#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

#include "runtime/world.h"
#include "sim/machine_spec.h"
#include "tilelink/kernels/gemm_hier_rs.h"

namespace perfbench {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = std::min(
      v.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(v.size() - 1) + 0.5));
  return v[idx];
}

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

Spans::Scope::Scope(Spans* spans, std::string layer, std::string name,
                    int64_t op)
    : spans_(spans) {
  if (spans_ == nullptr) return;
  Span s;
  s.layer = std::move(layer);
  s.name = std::move(name);
  s.parent = spans_->open_;
  s.op = op;
  s.start_s = SecondsSince(spans_->t0_);
  index_ = static_cast<int>(spans_->spans_.size());
  spans_->spans_.push_back(std::move(s));
  spans_->open_ = index_;
}

Spans::Scope::~Scope() {
  if (spans_ == nullptr) return;
  Span& s = spans_->spans_[static_cast<std::size_t>(index_)];
  s.end_s = SecondsSince(spans_->t0_);
  spans_->open_ = s.parent;
}

std::map<std::string, double> Spans::SelfSeconds() const {
  // Children of one span run one after another on the main thread, so the
  // covered part of a span is the sum of its children's durations.
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.layer] += (s.end_s - s.start_s) - child_s[i];
  }
  return out;
}

double Spans::TotalSeconds(const std::string& layer,
                           const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.layer == layer && s.name == name) total += s.end_s - s.start_s;
  }
  return total;
}

bool Spans::Save(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"cat\":\"",
                  i == 0 ? "" : ",", s.start_s * 1e6,
                  (s.end_s - s.start_s) * 1e6);
    f << buf << s.layer << "\",\"name\":\"" << s.name
      << "\",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
      << ",\"op\":" << s.op << "}}";
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

std::vector<std::pair<std::string, std::string>> PerLayerMetrics(
    const Options& opts) {
  std::vector<std::pair<std::string, std::string>> m = {
      {"sim.events", "count"},
      {"sim.host_ns_per_event", "ns"},
      {"net.bytes", "bytes"},
      {"net.retries", "count"},
      {"net.drops", "count"},
      {"net.timeouts", "count"},
      {"runtime.world_ms", "ms"},
      {"runtime.run_spmd_ms", "ms"},
      {"kernels.build_ms", "ms"},
      {"multinode.hier_ag.sim_ms", "ms"},
      {"multinode.hier_rs.sim_ms", "ms"},
      {"multinode.dp_allreduce.sim_ms", "ms"},
      {"tune.searches", "count"},
      {"tune.cache_hits", "count"},
      {"tune.full_evals", "count"},
      {"tune.busy_s", "s"},
      {"tune.max_search_ms", "ms"},
      {"tune.seed_over_tuned", "x"},
      {"models.attn_ms", "ms"},
      {"models.ffn_ms", "ms"},
      {"models.default_layer_ms", "ms"},
      {"serving.steps", "count"},
      {"serving.queue_wait_p99_ms", "ms"},
      {"serving.max_rps", "req/s"},
      {"serving.cold_tunes", "count"},
      {"serving.hit_rate", "fraction"},
      {"serving.warm_s", "s"},
      {"serving.step_host_p50_ms", "ms"},
      {"serving.step_host_p99_ms", "ms"},
      {"trace.overhead_s", "s"},
      {"error_rate", "fraction"},
  };
  for (const char* k : {"gemm_hier_rs", "ag_gemm_hier"}) {
    const std::string p = std::string("kernels.") + k;
    m.push_back({p + ".sim_ms", "ms"});
    m.push_back({p + ".exposed_comm_frac", "fraction"});
    m.push_back({p + ".compute_util", "fraction"});
    m.push_back({p + ".wire_util", "fraction"});
    m.push_back({p + ".critical_path_frac", "fraction"});
  }
  for (const std::string& model : TuneModels()) {
    m.push_back({"models.run_s." + model, "s"});
  }
  for (double r : opts.rates) {
    m.push_back({"serving.rate." + RateName(r) + ".p99_ms", "ms"});
  }
  for (const char* layer :
       {"runtime", "kernels", "multinode", "models", "serving", "sim"}) {
    m.push_back({std::string("self_s.") + layer, "s"});
  }
  return m;
}

std::string RateName(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", rate);
  return buf;
}

namespace {

constexpr int kSetupReps = 7;

// Part of every set-up: one small fused-kernel simulation on the 2x8
// machine, so the timed passes start with warm allocators and code.
void WarmUp() {
  using namespace tilelink;
  rt::World world(sim::MachineSpec::H800x16(), rt::ExecMode::kTimingOnly);
  tl::GemmHierRsConfig cfg;
  cfg.m = 16 * 16;
  cfg.k = 16;
  cfg.n = 16;
  cfg.gemm = {8, 16, 8};
  cfg.rs_block_m = 8;
  tl::GemmHierRs kernel(world, cfg);
  world.RunSpmd(
      [&](rt::RankCtx& ctx) -> sim::Coro { co_await kernel.Run(ctx); });
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Metric {
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::map<std::string, Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("RESULT %s\n", json.c_str());
}

// Sum over the steps of a pass of each step's median over the passes;
// the median pass time when the passes did not all run the same steps.
double WallSeconds(const std::vector<PassResult>& passes,
                   const std::vector<double>& walls) {
  const std::size_t steps = passes[0].step_s.size();
  for (const PassResult& p : passes) {
    if (p.step_s.size() != steps || steps == 0) return Median(walls);
  }
  double total = 0;
  for (std::size_t i = 0; i < steps; ++i) {
    std::vector<double> v;
    for (const PassResult& p : passes) v.push_back(p.step_s[i]);
    total += Median(v);
  }
  return total;
}

// Unit of a simulated value, from its name.
const char* SimUnit(const std::string& name) {
  const auto ends = [&](const std::string& suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  if (ends("_ms") || ends(".ms")) return "ms ";
  if (ends("max_rps")) return "req/s ";
  if (ends("speedup") || ends("seed_over_tuned")) return "x ";
  return "";
}

}  // namespace

int Drive(Workload& w, const std::string& name, const Options& opts) {
  std::printf("=== perfbench %s: seed %llu, %s run ===\n", name.c_str(),
              static_cast<unsigned long long>(opts.seed),
              opts.trace ? "traced" : "untraced");
  std::fflush(stdout);

  // Set-up, several times: the median is setup_s.
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    w.Setup();
    WarmUp();
    setups.push_back(SecondsSince(t0));
  }
  const double setup_s = Median(setups);

  std::vector<PassResult> passes;
  std::vector<double> walls;
  // Peak resident memory as of the end of the first pass, so the number of
  // passes that fit in the budget does not move it (memory the tuner
  // threads retain grows with every further cold pass).
  double peak_rss_mb = 0;
  Spans spans;
  const auto run_t0 = Clock::now();
  if (!opts.trace) {
    // Closed loop: a few passes at least, more while the budget lasts.
    while (passes.size() < static_cast<std::size_t>(w.MinPasses()) ||
           SecondsSince(run_t0) < opts.seconds) {
      const auto t0 = Clock::now();
      passes.push_back(w.Pass(nullptr));
      walls.push_back(SecondsSince(t0));
      if (passes.size() == 1) peak_rss_mb = PeakRssMb();
    }
  } else {
    for (Spans* s : {static_cast<Spans*>(nullptr), &spans}) {
      const auto t0 = Clock::now();
      passes.push_back(w.Pass(s));
      walls.push_back(SecondsSince(t0));
    }
  }
  const double wall_s = opts.trace ? walls[0] : WallSeconds(passes, walls);

  bool repeat_ok = true;
  int64_t attempted = 0, failed = 0;
  for (const PassResult& p : passes) {
    repeat_ok = repeat_ok && p.sim == passes[0].sim;
    attempted += p.attempted;
    failed += p.failed;
  }
  std::printf("\n-- output checks --\n");
  std::printf("  %s: simulated values of all %zu passes identical: %s\n",
              opts.trace ? "traced-run parity (untraced vs traced pass)"
                         : "repeatability",
              passes.size(), repeat_ok ? "yes" : "NO");
  const bool checks_ok = w.Check(passes[0]);
  std::printf("  operations failed: %lld of %lld\n",
              static_cast<long long>(failed),
              static_cast<long long>(attempted));
  const bool correct = repeat_ok && checks_ok && failed == 0;

  std::printf("\n-- fidelity (simulated ratios vs the paper) --\n");
  w.PrintFidelity(passes[0]);

  const PassResult& first = passes[0];
  const double error_rate =
      attempted > 0 ? static_cast<double>(failed) /
                          static_cast<double>(attempted)
                    : 0.0;
  std::map<std::string, Metric> metrics;
  std::printf("\n-- metrics --\n");
  if (!opts.trace) {
    metrics["setup_s"] = {setup_s, "s"};
    metrics["wall_s"] = {wall_s, "s"};
    metrics["peak_rss_mb"] = {peak_rss_mb, "MB"};
    // A pass with a failed operation reports no simulated values.
    for (const char* k : {"sim_ms", "sim_tail_ms"}) {
      const auto it = first.sim.find(k);
      metrics[k] = {it == first.sim.end() ? 0.0 : it->second, "ms"};
    }
    std::printf("  passes timed: %zu in %.2f s:", passes.size(),
                SecondsSince(run_t0));
    for (double s : walls) std::printf(" %.3f", s);
    std::printf(" s; wall_s sums each step's median over them\n");
    std::printf("  %-28s %.6g\n", "error_rate", error_rate);
  } else {
    std::map<std::string, double> layer = first.layer;
    for (const auto& [k, v] : passes[1].layer) layer[k] = v;
    for (const auto& [k, v] : spans.SelfSeconds()) layer["self_s." + k] = v;
    layer["trace.overhead_s"] = walls[1] - walls[0];
    layer["error_rate"] = error_rate;
    // Layers a workload does not exercise report 0.
    for (const auto& [n, unit] : PerLayerMetrics(opts)) {
      metrics[n] = {layer.count(n) ? layer.at(n) : 0.0, unit};
    }
    std::printf("  untraced pass %.3f s, traced pass %.3f s\n", walls[0],
                walls[1]);
    if (!opts.out_dir.empty()) {
      const std::string path = opts.out_dir + "/spans-" + name + "-seed" +
                               std::to_string(opts.seed) + ".json";
      std::printf("  %zu spans written to %s: %s\n", spans.spans().size(),
                  path.c_str(), spans.Save(path) ? "ok" : "FAILED");
    }
  }
  for (const auto& [k, v] : first.sim) {
    std::printf("  %-34s %.6f %s(simulated)\n", k.c_str(), v, SimUnit(k));
  }
  for (const auto& [k, m] : metrics) {
    std::printf("  %-34s %.6f %s\n", k.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", correct ? "OK" : "FAIL: an output check failed");
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace perfbench
