// serve-mixed: a seeded 2000-request, 4-model trace through RunServing on a
// cold ConfigService at a nominal 10 req/s (no growing backlog), then the
// same service (and estimator) over a fixed ladder of offered rates, then
// a fresh estimator on the warm service (all config lookups hit). The
// traced pass replaces the cold RunServing with a ContinuousBatchScheduler
// replica whose step-cost callback is wrapped in spans; it must reproduce
// RunServing's latencies exactly.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "models/model_zoo.h"
#include "models/transformer.h"
#include "serving/config_service.h"
#include "serving/scheduler.h"
#include "serving/serving_sim.h"
#include "serving/shape_bucket.h"
#include "serving/traffic_gen.h"

namespace perfbench {
namespace {

using namespace tilelink;

constexpr int kTp = 8;
constexpr int kRequests = 2000;
constexpr double kNominalRps = 10.0;
// A backlog grows when the replicas still need more than this share of the
// trace's duration after its last arrival: the queue is outpacing service.
constexpr double kMaxDrainShare = 0.05;
constexpr const char* kModels[] = {"GPT3-6.7B", "LLaMA2-13B", "LLaMA2-70B",
                                   "Mixtral-8x7B"};

double Ms(sim::TimeNs t) { return sim::ToMs(t); }

// What a serving run produced, from RunServing or from the replica.
struct Served {
  sim::TimeNs p50 = 0, p99 = 0;
  int64_t requests = 0, steps = 0;
  std::vector<sim::TimeNs> makespans;  // per model
  std::string trace;                   // RunServing only
};

Served FromResult(const serving::ServingResult& res) {
  Served s;
  s.p50 = res.p50_latency;
  s.p99 = res.p99_latency;
  s.requests = res.total_requests;
  s.steps = res.total_steps;
  for (const serving::ModelServingResult& m : res.per_model) {
    s.makespans.push_back(m.makespan);
  }
  s.trace = res.trace;
  return s;
}

class Serve : public Workload {
 public:
  explicit Serve(const Options& opts) : opts_(opts) {}

  void Setup() override {
    base_ = serving::ServingOptions();
    for (const char* name : kModels) {
      base_.models.push_back(models::GetModel(name));
    }
    base_.traffic.seed = Mix(opts_.seed ^ 0x7365727665);
    base_.traffic.num_requests = kRequests;
    base_.traffic.num_models = static_cast<int>(base_.models.size());
    rungs_.clear();
    for (double rate : opts_.rates) rungs_.push_back(MakeRung(rate));
    nominal_ = MakeRung(kNominalRps);
  }

  PassResult Pass(Spans* spans) override {
    PassResult r;
    serving::ConfigService service(serving::ConfigService::Options{
        .capacity = 0, .tune_threads = opts_.threads});
    models::E2eEstimator est(kTp, /*batch=*/1, /*seq=*/1, /*two_node=*/false);
    service.Attach(&est);

    Served cold;
    auto t0 = Clock::now();
    if (spans == nullptr) {
      cold = FromResult(serving::RunServing(nominal_.opts, &est));
    } else {
      cold = Replica(nominal_.opts, &est, spans, &r);
    }
    r.step_s.push_back(SecondsSince(t0));
    Account(nominal_, cold, &r);
    const serving::ConfigService::Snapshot cold_snap = service.Stats();

    double max_rps = 0;
    for (std::size_t i = 0; i < rungs_.size(); ++i) {
      const Rung& rung = rungs_[i];
      Served s;
      t0 = Clock::now();
      {
        Spans::Scope span(spans, "serving", "run_serving",
                          static_cast<int64_t>(i));
        s = FromResult(serving::RunServing(rung.opts, &est));
      }
      r.step_s.push_back(SecondsSince(t0));
      Account(rung, s, &r);
      const std::string p = "serving.rate." + RateName(rung.rate);
      r.sim[p + ".p99_ms"] = Ms(s.p99);
      r.sim[p + ".drain_ms"] = DrainMs(rung, s);
      if (Ms(s.p99) <= opts_.p99_limit_ms && !Backlogged(rung, s)) {
        max_rps = std::max(max_rps, rung.rate);
      }
    }

    models::E2eEstimator warm_est(kTp, 1, 1, /*two_node=*/false);
    service.Attach(&warm_est);
    t0 = Clock::now();
    Served warm;
    {
      Spans::Scope span(spans, "serving", "warm_replica");
      warm = FromResult(serving::RunServing(nominal_.opts, &warm_est));
    }
    r.step_s.push_back(SecondsSince(t0));
    const double warm_s = r.step_s.back();
    Account(nominal_, warm, &r);
    // The untraced pass compares whole traces; the replica has none, so the
    // traced pass compares what it reproduces.
    const bool warm_same =
        cold.trace.empty()
            ? warm.p50 == cold.p50 && warm.p99 == cold.p99 &&
                  warm.steps == cold.steps && warm.makespans == cold.makespans
            : warm.trace == cold.trace;
    if (r.failed > 0) return r;

    const serving::ConfigService::Snapshot snap = service.Stats();
    double full_evals = 0;
    for (const auto& [key, e] : service.cache().Entries()) {
      full_evals += e.full_evals;
    }
    r.sim["req_p50_ms"] = Ms(cold.p50);
    r.sim["req_p99_ms"] = Ms(cold.p99);
    r.sim["sim_ms"] = r.sim["req_p50_ms"];
    r.sim["sim_tail_ms"] = r.sim["req_p99_ms"];
    r.sim["nominal.drain_ms"] = DrainMs(nominal_, cold);
    r.sim["nominal.backlogged"] = Backlogged(nominal_, cold) ? 1.0 : 0.0;
    r.sim["max_rps"] = max_rps;
    r.sim["warm_equals_cold"] = warm_same ? 1.0 : 0.0;
    r.sim["serving.steps"] = static_cast<double>(cold.steps);
    r.sim["serving.max_rps"] = max_rps;
    r.sim["serving.cold_tunes"] = static_cast<double>(cold_snap.misses);
    r.sim["serving.hit_rate"] = snap.hit_rate;
    r.sim["tune.searches"] = static_cast<double>(snap.misses);
    r.sim["tune.cache_hits"] = static_cast<double>(snap.hits);
    r.sim["tune.full_evals"] = full_evals;
    r.sim["tune.seed_over_tuned"] = snap.tuned_speedup_geomean;
    for (const auto& [k, v] : r.sim) {
      if (k.rfind("serving.", 0) == 0 || k.rfind("tune.", 0) == 0) {
        r.layer[k] = v;
      }
    }
    const tl::CacheStats st = service.cache().stats();
    r.layer["serving.warm_s"] = warm_s;
    r.layer["tune.busy_s"] = static_cast<double>(st.warm_start_ns) / 1e9;
    r.layer["tune.max_search_ms"] = static_cast<double>(st.max_tune_ns) / 1e6;
    return r;
  }

  bool Check(const PassResult& first) override {
    if (first.sim.count("warm_equals_cold") == 0) return false;
    const bool warm_same = first.sim.at("warm_equals_cold") == 1.0;
    const bool steady = first.sim.at("nominal.backlogged") == 0.0;
    std::printf("  every generated request completed: yes (else counted as "
                "failed)\n");
    std::printf("  warm replica reproduces the cold one bitwise: %s\n",
                warm_same ? "yes" : "NO");
    std::printf("  nominal %.4g req/s: drain after the last arrival %.1f ms "
                "within %.0f%% of the trace (no growing backlog): %s\n",
                kNominalRps, first.sim.at("nominal.drain_ms"),
                100 * kMaxDrainShare, steady ? "yes" : "NO");
    return warm_same && steady;
  }

  void PrintFidelity(const PassResult& first) override {
    if (first.sim.count("tune.seed_over_tuned") == 0) return;
    std::printf("  tuned-over-seed config speedup %.4fx (unvalidated: no "
                "paper reference); the paper reports no serving figures\n",
                first.sim.at("tune.seed_over_tuned"));
  }

 private:
  // One offered rate: its options, and each model's last arrival, from
  // which the drain time after the trace ends is measured.
  struct Rung {
    double rate = 0;
    serving::ServingOptions opts;
    std::vector<sim::TimeNs> last_arrival;  // per model
  };

  Rung MakeRung(double rate) const {
    Rung rung;
    rung.rate = rate;
    rung.opts = base_;
    rung.opts.traffic.mean_interarrival =
        static_cast<sim::TimeNs>(std::llround(1e9 / rate));
    rung.last_arrival.assign(base_.models.size(), 0);
    for (const serving::Request& q :
         serving::GenerateTraffic(rung.opts.traffic)) {
      sim::TimeNs& last =
          rung.last_arrival[static_cast<std::size_t>(q.model_index)];
      last = std::max(last, q.arrival);
    }
    return rung;
  }

  // Time the slowest replica needs after its last arrival.
  static double DrainMs(const Rung& rung, const Served& s) {
    sim::TimeNs drain = 0;
    for (std::size_t m = 0; m < s.makespans.size(); ++m) {
      drain = std::max(drain, s.makespans[m] - rung.last_arrival[m]);
    }
    return Ms(drain);
  }

  static bool Backlogged(const Rung& rung, const Served& s) {
    const sim::TimeNs duration =
        *std::max_element(rung.last_arrival.begin(), rung.last_arrival.end());
    return DrainMs(rung, s) > kMaxDrainShare * Ms(duration);
  }

  // Requests not completed count as failed operations.
  static void Account(const Rung& rung, const Served& s, PassResult* r) {
    r->attempted += rung.opts.traffic.num_requests;
    r->failed += rung.opts.traffic.num_requests - s.requests;
  }

  // RunServing, re-driven step by step: one scheduler per model, the step
  // cost bucketed and timed through the estimator inside a span.
  Served Replica(const serving::ServingOptions& opts, models::E2eEstimator* est,
                 Spans* spans, PassResult* r) {
    Served out;
    const std::vector<serving::Request> all =
        serving::GenerateTraffic(opts.traffic);
    std::vector<sim::TimeNs> latencies, waits;
    std::vector<double> step_host_ms;
    for (std::size_t mi = 0; mi < opts.models.size(); ++mi) {
      const models::ModelConfig& model = opts.models[mi];
      std::vector<serving::Request> mine;
      for (const serving::Request& q : all) {
        if (q.model_index == static_cast<int>(mi)) mine.push_back(q);
      }
      if (mine.empty()) {
        out.makespans.push_back(0);
        continue;
      }
      Spans::Scope span(spans, "serving", "scheduler",
                        static_cast<int64_t>(mi));
      serving::ContinuousBatchScheduler sched(opts.sched, std::move(mine));
      int64_t step = 0;
      const std::vector<serving::RequestOutcome> outcomes =
          sched.Run([&](const models::ServingStep& raw) {
            Spans::Scope s(spans, "models", "serving_step_time", step++);
            const auto t0 = Clock::now();
            const sim::TimeNs cost =
                est->ServingStepTime(model, opts.method,
                                     serving::BucketStep(raw, opts.buckets)) *
                model.layers;
            step_host_ms.push_back(1e3 * SecondsSince(t0));
            return cost;
          });
      for (const serving::RequestOutcome& o : outcomes) {
        latencies.push_back(o.latency());
        waits.push_back(o.admitted - o.arrival);
      }
      out.requests += static_cast<int64_t>(outcomes.size());
      out.steps += static_cast<int64_t>(sched.steps().size());
      const serving::StepRecord& last = sched.steps().back();
      out.makespans.push_back(last.start + last.cost);
    }
    out.p50 = serving::Percentile(latencies, 0.5);
    out.p99 = serving::Percentile(latencies, 0.99);
    r->layer["serving.queue_wait_p99_ms"] =
        Ms(serving::Percentile(waits, 0.99));
    r->layer["serving.step_host_p50_ms"] = Percentile(step_host_ms, 0.5);
    r->layer["serving.step_host_p99_ms"] = Percentile(step_host_ms, 0.99);
    return out;
  }

  Options opts_;
  serving::ServingOptions base_;
  Rung nominal_;
  std::vector<Rung> rungs_;
};

}  // namespace

std::unique_ptr<Workload> MakeServe(const Options& opts) {
  return std::make_unique<Serve>(opts);
}

}  // namespace perfbench
