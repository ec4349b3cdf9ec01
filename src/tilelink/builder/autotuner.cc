#include "tilelink/builder/autotuner.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>

#include "common/check.h"

namespace tilelink::tl {
namespace {

// Serialized line sink: every verbose line is formatted into one string and
// written with a single locked fwrite, so lines can never interleave even
// if another thread is printing. Workers themselves never print — all
// verbose output is produced by the serial replay pass, which also keeps
// the line *order* identical to the single-threaded search.
void EmitLine(const std::string& line) {
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  std::fwrite(line.data(), 1, line.size(), stdout);
}

void PrintCandidate(const char* tag, const TuneCandidate& c, sim::TimeNs cost,
                    const char* suffix) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "[%s] %-60s %8.3f ms%s\n", tag,
                c.Describe().c_str(), static_cast<double>(cost) / 1e6, suffix);
  EmitLine(buf);
}

// Runs `body` on `threads` threads (the calling thread counts as one) and
// joins; the first exception any worker throws is rethrown on the caller.
void RunWorkers(int threads, const std::function<void()>& body) {
  if (threads <= 1) {
    body();
    return;
  }
  std::mutex mu;
  std::exception_ptr err;
  auto guarded = [&body, &mu, &err] {
    try {
      body();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!err) err = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 1; t < threads; ++t) pool.emplace_back(guarded);
  guarded();
  for (std::thread& th : pool) th.join();
  if (err) std::rethrow_exception(err);
}

// Sentinels in the shared completed-cost table. Real costs are >= 0 and
// kInfeasible is int64 max, so negatives are free.
constexpr sim::TimeNs kPending = -1;  // not finished yet
constexpr sim::TimeNs kSkipped = -2;  // speculatively pruned by a worker

// Full-fidelity pass over `finalists`: parallel speculative evaluation +
// serial replay in finalist order (see the determinism note in the header).
// Appends to `result`'s evaluated/pruned/infeasible tallies, updates
// best/best_cost, and records seed_cost when `base` reaches full fidelity.
void FullFidelityPass(const Autotuner::Options& options, int threads,
                      const std::vector<TuneCandidate>& finalists,
                      const TuneCandidate& base, const Autotuner::EvalFn& eval,
                      const Autotuner::BoundFn& lower_bound,
                      TuneResult* result) {
  const std::size_t n = finalists.size();
  std::vector<sim::TimeNs> bounds;
  if (lower_bound) {
    bounds.reserve(n);
    for (const TuneCandidate& c : finalists) bounds.push_back(lower_bound(c));
  }

  // Parallel speculative pass: workers pull candidate indices off a shared
  // counter and record full-fidelity costs in `done`. The prune test for
  // candidate i only consults *completed earlier-indexed* candidates, whose
  // costs are upper bounds on the serial best-so-far before i (each such j
  // has bound(j) <= cost(j), so serial would have reached a best no worse
  // than cost(j) by index i). Hence a worker skip implies the serial skip,
  // and everything serial evaluates is evaluated here — just possibly more,
  // which the replay below discards.
  std::vector<std::atomic<sim::TimeNs>> done;
  if (threads > 1 && n > 1) {
    done = std::vector<std::atomic<sim::TimeNs>>(n);
    for (std::atomic<sim::TimeNs>& d : done) {
      d.store(kPending, std::memory_order_relaxed);
    }
    std::atomic<std::size_t> next{0};
    RunWorkers(std::min<int>(threads, static_cast<int>(n)), [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        if (!bounds.empty()) {
          sim::TimeNs best_done = Autotuner::kInfeasible;
          for (std::size_t j = 0; j < i; ++j) {
            const sim::TimeNs v = done[j].load(std::memory_order_acquire);
            if (v >= 0 && v < best_done) best_done = v;
          }
          if (best_done != Autotuner::kInfeasible && bounds[i] >= best_done) {
            done[i].store(kSkipped, std::memory_order_release);
            continue;
          }
        }
        done[i].store(eval(finalists[i]), std::memory_order_release);
      }
    });
  }

  // Serial replay in candidate-index order: identical control flow to the
  // single-threaded search, with eval() replaced by a table lookup. This is
  // where TuneResult and all verbose lines are produced, so both are
  // bitwise independent of the thread count.
  for (std::size_t i = 0; i < n; ++i) {
    const TuneCandidate& c = finalists[i];
    if (!bounds.empty() && result->best_cost != Autotuner::kInfeasible &&
        bounds[i] >= result->best_cost) {
      result->pruned++;
      if (options.verbose) {
        char buf[512];
        std::snprintf(buf, sizeof(buf),
                      "[tune] %-60s pruned (bound %.3f ms >= best %.3f ms)\n",
                      c.Describe().c_str(),
                      static_cast<double>(bounds[i]) / 1e6,
                      static_cast<double>(result->best_cost) / 1e6);
        EmitLine(buf);
      }
      continue;
    }
    sim::TimeNs cost =
        done.empty() ? eval(c) : done[i].load(std::memory_order_acquire);
    if (cost < 0) {
      // The worker speculatively skipped a candidate the serial order
      // evaluates — only possible with an unsound bound (bound > cost
      // somewhere). Recover determinism by evaluating it here.
      cost = eval(c);
    }
    if (cost == Autotuner::kInfeasible) {
      result->infeasible++;
      if (options.verbose) {
        char buf[512];
        std::snprintf(buf, sizeof(buf), "[tune] %-60s infeasible\n",
                      c.Describe().c_str());
        EmitLine(buf);
      }
      continue;
    }
    if (c == base) result->seed_cost = cost;
    result->evaluated.emplace_back(c, cost);
    const bool improved = cost < result->best_cost;
    if (improved) {
      result->best = c;
      result->best_cost = cost;
    }
    if (options.verbose) {
      PrintCandidate("tune", c, cost, improved ? "  <- best" : "");
    }
  }
}

}  // namespace

TuneSchedule Autotuner::Ladder(const FidelityFn& at_fidelity) {
  std::vector<TuneSchedule::Rung> rungs;
  for (const auto& [denom, keep] :
       {std::pair{kLadderCoarsest, 0.5}, std::pair{4, 0.25}}) {
    rungs.push_back({[at_fidelity, denom](const TuneCandidate& c) {
                       return at_fidelity(c, denom);
                     },
                     keep});
  }
  return TuneSchedule(std::move(rungs), /*min_space=*/16);
}

TuneSchedule Autotuner::OneRung(const EvalFn& coarse) {
  return TuneSchedule({{coarse, 0.125}}, /*min_space=*/8);
}

TuneResult Autotuner::Search(const TuningSpace& space,
                             const TuneCandidate& base, const EvalFn& eval,
                             const BoundFn& lower_bound,
                             const TuneSchedule& schedule) const {
  std::vector<TuneCandidate> candidates = space.Enumerate(base);
  TL_CHECK_MSG(!candidates.empty(), "empty tuning space");
  // The base (seed) config always gets a full-fidelity run: a scheduled or
  // pruned search can then never return something worse than the seed.
  if (std::find(candidates.begin(), candidates.end(), base) ==
      candidates.end()) {
    candidates.push_back(base);
  }

  const int threads = std::max(1, options_.threads);

  TuneResult result;
  result.best_cost = kInfeasible;

  // --- Plain search: every candidate at full fidelity. -------------------
  if (schedule.rungs_.empty() ||
      static_cast<int>(candidates.size()) < schedule.min_space_) {
    if (lower_bound) {
      // Visit in ascending-bound order: the likely argmin is simulated
      // first, which makes the bound prune most of the rest.
      std::vector<std::pair<sim::TimeNs, std::size_t>> order;
      order.reserve(candidates.size());
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        order.emplace_back(lower_bound(candidates[i]), i);
      }
      std::stable_sort(order.begin(), order.end());
      std::vector<TuneCandidate> sorted;
      sorted.reserve(candidates.size());
      for (const auto& [bound, i] : order) sorted.push_back(candidates[i]);
      candidates = std::move(sorted);
    }
    FullFidelityPass(options_, threads, candidates, base, eval, lower_bound,
                     &result);
    TL_CHECK_MSG(result.best_cost != kInfeasible,
                 "every candidate in the tuning space was infeasible");
    return result;
  }

  // Floors, computed once: the gate below and every rung's ranking use
  // them.
  std::vector<sim::TimeNs> floors(candidates.size(), 0);
  if (lower_bound) {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      floors[i] = lower_bound(candidates[i]);
    }
  }
  // Floor gate: a candidate whose communication-optimal lower bound already
  // meets the seed's measured cost can never win — drop it before paying
  // for any rung. (The seed itself always survives.)
  const auto gated = [&](std::size_t i, sim::TimeNs seed_cost) {
    return lower_bound && seed_cost != kInfeasible &&
           !(candidates[i] == base) && floors[i] >= seed_cost;
  };

  // Seed anchor: one full-fidelity run, claimed first, with the first
  // rung's scores sharded over the remaining workers instead of waiting for
  // it. A worker that finds the anchor still pending scores its candidate
  // speculatively; the serial gate below discards scores of candidates the
  // anchor drops, so the result is the same at every thread count (and at
  // one thread no speculative score is paid). Every later stage compares
  // against the anchor, so no rung can promote its way past the seed; the
  // final pass reuses this cost instead of re-simulating the seed.
  std::atomic<sim::TimeNs> anchor{kPending};
  std::vector<sim::TimeNs> first_rung(candidates.size(), kPending);
  {
    const TuneSchedule::Rung& rung = schedule.rungs_.front();
    std::atomic<std::size_t> next{0};
    RunWorkers(std::min<int>(threads, static_cast<int>(candidates.size()) + 1),
               [&] {
                 for (;;) {
                   const std::size_t t =
                       next.fetch_add(1, std::memory_order_relaxed);
                   if (t > candidates.size()) return;
                   if (t == 0) {
                     anchor.store(eval(base), std::memory_order_release);
                     continue;
                   }
                   const std::size_t i = t - 1;
                   const sim::TimeNs s =
                       anchor.load(std::memory_order_acquire);
                   if (s != kPending && gated(i, s)) continue;
                   first_rung[i] = rung.eval(candidates[i]);
                 }
               });
  }
  const sim::TimeNs seed_cost = anchor.load(std::memory_order_acquire);
  if (options_.verbose && seed_cost != kInfeasible) {
    PrintCandidate("tune/rung", base, seed_cost, "  seed anchor");
  }

  std::vector<std::size_t> alive;
  alive.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (gated(i, seed_cost)) {
      result.pruned++;
      if (options_.verbose) {
        char buf[512];
        std::snprintf(buf, sizeof(buf),
                      "[tune/rung] %-55s pruned (floor >= seed)\n",
                      candidates[i].Describe().c_str());
        EmitLine(buf);
      }
      continue;
    }
    alive.push_back(i);
  }

  // Coarse rungs: score the survivors, promote the best by (rung score,
  // lower bound, enumeration index) — the floors order near-ties, so a
  // fidelity too blunt to separate two candidates still promotes the one
  // with more communication headroom first. Each later rung is a pure
  // index-sharded map; classification and promotion run serially.
  for (std::size_t r = 0; r < schedule.rungs_.size(); ++r) {
    const TuneSchedule::Rung& rung = schedule.rungs_[r];
    std::vector<sim::TimeNs> rung_cost(alive.size(), kPending);
    if (r == 0) {
      for (std::size_t i = 0; i < alive.size(); ++i) {
        rung_cost[i] = first_rung[alive[i]];
      }
    } else {
      std::atomic<std::size_t> next{0};
      RunWorkers(std::min<int>(threads, static_cast<int>(alive.size())),
                 [&] {
                   for (;;) {
                     const std::size_t i =
                         next.fetch_add(1, std::memory_order_relaxed);
                     if (i >= alive.size()) return;
                     rung_cost[i] = rung.eval(candidates[alive[i]]);
                   }
                 });
    }
    std::vector<std::tuple<sim::TimeNs, sim::TimeNs, std::size_t>> scored;
    std::vector<std::size_t> deferred;
    scored.reserve(alive.size());
    for (std::size_t i = 0; i < alive.size(); ++i) {
      const std::size_t ci = alive[i];
      if (rung_cost[i] == kInfeasible) {
        deferred.push_back(ci);
        continue;
      }
      scored.emplace_back(rung_cost[i], floors[ci], ci);
    }
    result.coarse_evals += static_cast<int>(scored.size());
    result.evaluated_per_rung.push_back(static_cast<int>(scored.size()));
    std::sort(scored.begin(), scored.end());
    const std::size_t keep = std::min<std::size_t>(
        scored.size(),
        std::max<std::size_t>(
            kMinPromote,
            static_cast<std::size_t>(
                rung.keep * static_cast<double>(scored.size()) + 0.999)));
    result.halved += static_cast<int>(scored.size() - keep);
    result.promoted_per_rung.push_back(static_cast<int>(keep));
    std::vector<std::size_t> next_alive;
    next_alive.reserve(keep + deferred.size() + 1);
    for (std::size_t i = 0; i < keep; ++i) {
      next_alive.push_back(std::get<2>(scored[i]));
    }
    next_alive.insert(next_alive.end(), deferred.begin(), deferred.end());
    const auto is_base = [&](std::size_t ci) { return candidates[ci] == base; };
    if (std::none_of(next_alive.begin(), next_alive.end(), is_base)) {
      next_alive.push_back(static_cast<std::size_t>(
          std::find(candidates.begin(), candidates.end(), base) -
          candidates.begin()));
    }
    if (options_.verbose) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "[tune/rung] rung %zu scored %zu, promoted %zu "
                    "(+%zu deferred)\n",
                    r + 1, scored.size(), keep, deferred.size());
      EmitLine(buf);
    }
    alive = std::move(next_alive);
  }

  // Full fidelity over the promoted set, in last-rung score order (likely
  // argmin first) with lower-bound pruning. The seed's anchor run is reused
  // instead of being paid twice.
  std::vector<TuneCandidate> finalists;
  finalists.reserve(alive.size());
  for (std::size_t ci : alive) finalists.push_back(candidates[ci]);
  const EvalFn full = [&eval, &base, seed_cost](const TuneCandidate& c) {
    if (c == base && seed_cost != kInfeasible) return seed_cost;
    return eval(c);
  };
  FullFidelityPass(options_, threads, finalists, base, full, lower_bound,
                   &result);
  // Recorded even when the bound pruned the seed's row: the anchor paid it.
  if (seed_cost != kInfeasible) result.seed_cost = seed_cost;
  result.evaluated_per_rung.push_back(
      static_cast<int>(result.evaluated.size()));
  result.promoted_per_rung.push_back(1);
  TL_CHECK_MSG(result.best_cost != kInfeasible,
               "every candidate in the tuning space was infeasible");
  return result;
}

}  // namespace tilelink::tl
