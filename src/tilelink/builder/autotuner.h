// Autotuner: search over a TuningSpace scored by the simulator.
//
// The evaluator runs one candidate end-to-end (typically: build a
// timing-only World, construct the kernel with the candidate's knobs,
// RunSpmd, return the makespan). Two optional accelerators make large
// spaces tractable:
//
//  - An analytic lower bound — built from sim::CostModel formulas (the
//    overlap-aware max(compute, comm) + launch latency), which cost
//    nanoseconds instead of a full DES run — prunes candidates that cannot
//    beat the best simulated time found so far. Candidates reach full
//    fidelity in ascending-bound (plain) or ascending-rung-score (scheduled)
//    order, so the likely argmin is simulated first and the bound prunes
//    the rest.
//
//  - A TuneSchedule of coarse rungs. Each rung scores the surviving
//    candidates on a cheaper simulation of the same metric (e.g. the
//    reduction loop collapsed to one k-step, or the problem shrunk to
//    1/16) and promotes a fixed fraction of them to the next rung. The
//    seed is anchored at full fidelity before any rung runs and always
//    rides along, so a scheduled search can never return a config worse
//    than the seed.
//
// Candidates the evaluator rejects as infeasible (by returning kInfeasible)
// are skipped.
//
// Parallel determinism (Options::threads > 1): every rung and the
// full-fidelity pass shard candidates across a pool of worker threads
// pulling indices from a shared atomic counter, one evaluator call per
// candidate on the worker's own Simulator/World (evaluators build fresh
// worlds per call, so there is no shared mutable state). Pruning stays
// effective across workers through a shared completed-cost table: a worker
// about to evaluate candidate i skips it only if some *earlier-indexed*
// candidate j < i has already finished with cost <= bound(i). Because a
// sound bound satisfies bound(j) <= cost(j), any such j would also have
// forced the serial search to prune i, so the speculative skip can never
// drop a candidate the serial order would have simulated. A final serial
// replay in candidate-index order then rebuilds TuneResult exactly as the
// single-threaded search would have: identical argmin (ties broken by
// enumeration index, never completion order), identical `evaluated` list,
// identical pruned/infeasible/halved counts, and identical verbose output
// — bitwise the same for every thread count.
#pragma once

#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "tilelink/builder/tuning_space.h"

namespace tilelink::tl {

struct TuneResult {
  TuneCandidate best;
  sim::TimeNs best_cost = 0;
  // Every (candidate, simulated cost) pair actually evaluated at full
  // fidelity, in evaluation order.
  std::vector<std::pair<TuneCandidate, sim::TimeNs>> evaluated;
  int pruned = 0;        // skipped via the lower bound
  int infeasible = 0;    // rejected by the evaluator at full fidelity
  int halved = 0;        // eliminated by a coarse rung
  int coarse_evals = 0;  // coarse-rung scores paid
  // Full-fidelity cost of the seed (base) candidate, when the search
  // evaluated it: a scheduled search always anchors on it; a plain search
  // records it when the seed reaches full fidelity unpruned. 0 = not
  // measured.
  sim::TimeNs seed_cost = 0;
  // Scheduled searches only, one slot per rung (coarsest first) plus one
  // for the full-fidelity pass: candidates scored at that rung, and
  // candidates promoted out of it by rank (the full-fidelity slot's
  // promotion is the argmin, so it is 1; deferred coarse-infeasible
  // candidates ride along unscored and are not counted as promoted).
  std::vector<int> evaluated_per_rung;
  std::vector<int> promoted_per_rung;
};

// Coarse rungs, coarsest first, run before the full-fidelity pass. Each
// rung scores the surviving candidates on a cheaper evaluator and promotes
// a fixed fraction of them. A default-constructed schedule is empty (the
// plain search); Autotuner::Ladder and Autotuner::OneRung build the only
// two non-empty ones, whose fractions and minimum space are fixed
// constants. Spaces smaller than the minimum skip the rungs (they would
// cost more than they save) and search plain.
class TuneSchedule {
 public:
  TuneSchedule() = default;

 private:
  friend class Autotuner;
  struct Rung {
    std::function<sim::TimeNs(const TuneCandidate&)> eval;
    double keep = 1.0;  // fraction of the scored candidates promoted
  };
  TuneSchedule(std::vector<Rung> rungs, int min_space)
      : rungs_(std::move(rungs)), min_space_(min_space) {}
  std::vector<Rung> rungs_;
  int min_space_ = 0;
};

class Autotuner {
 public:
  // Sentinel: the evaluator returns this for candidates whose constraints
  // (divisibility, capacity) the kernel cannot satisfy.
  static constexpr sim::TimeNs kInfeasible =
      std::numeric_limits<sim::TimeNs>::max();

  using EvalFn = std::function<sim::TimeNs(const TuneCandidate&)>;
  using BoundFn = std::function<sim::TimeNs(const TuneCandidate&)>;
  // The same metric on a problem shrunk by ~1/denom along an axis that
  // scales compute and communication together.
  using FidelityFn = std::function<sim::TimeNs(const TuneCandidate&, int)>;

  // Every rung promotes at least this many of its scored candidates.
  static constexpr int kMinPromote = 4;
  // The fidelity denominator of the ladder's coarsest rung: a family
  // ladders only when this rung actually shrinks its problem.
  static constexpr int kLadderCoarsest = 16;

  // The fidelity ladder: rungs at 1/16 and 1/4 of the problem keeping half
  // and then a quarter of their scores, for spaces of at least 16. Fixed
  // per-tile costs do not shrink with the problem, so the coarsest ranking
  // is the least trustworthy and gets the widest survivor set.
  static TuneSchedule Ladder(const FidelityFn& at_fidelity);
  // One rung on a cheapened evaluator (e.g. the reduction loop collapsed to
  // one k-step) keeping an eighth of its scores, for spaces of at least 8:
  // the schedule for shapes too small for the ladder to shrink.
  static TuneSchedule OneRung(const EvalFn& coarse);

  struct Options {
    bool verbose = false;  // print one line per candidate to stdout
    // Worker threads for candidate evaluation (<= 1 runs fully serial).
    // Any value yields a bitwise-identical TuneResult; see the determinism
    // note in the file comment.
    int threads = 1;
  };

  Autotuner() = default;
  explicit Autotuner(Options options) : options_(options) {}

  const Options& options() const { return options_; }

  // Returns the argmin candidate over space.Enumerate(base) plus the base
  // itself. `lower_bound` may be null. Requires a non-empty,
  // not-all-infeasible space.
  //
  // Without rungs (empty schedule or a space below its minimum) this is
  // the plain search: every candidate at full fidelity in ascending-bound
  // order with lower-bound pruning. Otherwise:
  //   1. the seed is evaluated once at full fidelity, anchoring the search;
  //      with a lower bound, candidates whose floor already meets or
  //      exceeds the seed's cost are dropped before any rung runs (with
  //      threads > 1 the anchor runs alongside the first rung's scores,
  //      which are discarded for dropped candidates);
  //   2. each rung scores the survivors and promotes its fixed best
  //      fraction — ranked by (rung score, lower bound, enumeration index)
  //      — to the next rung, the seed always riding along; candidates a
  //      rung rejects as infeasible are deferred to the next rung unscored
  //      (a shrunken problem can have tighter divisibility);
  //   3. the promoted set runs at full fidelity in last-rung order with
  //      lower-bound pruning, reusing the seed's anchor cost.
  TuneResult Search(const TuningSpace& space, const TuneCandidate& base,
                    const EvalFn& eval, const BoundFn& lower_bound = nullptr,
                    const TuneSchedule& schedule = {}) const;

 private:
  Options options_{};
};

}  // namespace tilelink::tl
