#!/usr/bin/env bash
# CI: tier-1 verify plus the tuned-bench smoke stages.
#   1. RelWithDebInfo, -Wall -Wextra -Werror (warnings are errors)
#   2. Debug + AddressSanitizer
#   3. Debug + ThreadSanitizer, with real data races reported as errors:
#      test_tuning (the parallel-search determinism tests — including the
#      shared read-only FaultPlan retry-path search — and the
#      tuned-config-cache stress run), plus test_serving and
#      test_models_e2e, whose tuned estimators run sharded cold tunes
#      through ConfigService and the estimator's mutex'd memo. The sharded
#      autotuner, the concurrent cache and the estimator memo are the only
#      multi-threaded code paths.
#   4. Bench smoke: the autotuned fig8/fig11 benches (each exits nonzero if
#      any tuned config loses to its hand-picked default, fig8 also if the
#      rung/bound machinery stops skipping candidates, and fig11 also if
#      the simulated two-node dilution leaves the paper's ballpark), plus
#      the simulator microbenchmarks, which fail the stage if the 512-flow
#      network bench stops reporting wakes_per_flow or it exceeds 1.1 (one
#      armed completion wake per fabric, not one event per flow per
#      rebalance), or if the MLP-1 AG+GEMM simulation stops reporting
#      frames_per_event or it exceeds 0.5 (one coroutine per tile-program
#      block, not one frame per op or loop iteration). fig11 also gates the
#      parallel-tuning identity: the cold sweep at --tune-threads 8 must
#      reproduce the serial sweep's cache bit-for-bit. Machine-readable results land in
#      build-ci/BENCH_*.json; fig11 warm-starts its tuned-config cache from
#      build-ci/BENCH_fig11_cache.json when a previous run left one.
#   5. 16-GPU smoke: the two-node fabric bench with --payload --fused —
#      fails if the functional 2x8 collectives are not bit-exact with zero
#      consistency violations (or an injected NIC-stage fault goes
#      uncaught), if a hierarchical collective loses to the same
#      collective run as one flat world-wide ring (RingScope::kWorld) at
#      2x8, if a tuned DP-sync config loses to
#      the hand-picked two-node defaults, or if the fused gemm_hier_rs
#      kernel loses to the layer-level GEMM-then-HierRS compose (or its
#      functional run is not bit-exact / violation-free), or if the
#      planner-generated ag_gemm_hier loses its --ag-fused gate (fused vs
#      AllGather-then-GEMM compose, tuned vs seed, small-m column split,
#      functional + fault-injected bit-exactness). The bench also
#      self-gates the fabric timeline: the recorded chrome-trace JSON must
#      parse, the producer->ring->rail->reduce flow chain must be present,
#      the profiler must be internally consistent (utilizations in [0,1],
#      critical path <= makespan), traced faults must surface as fault.*
#      instants, and makespans must be bitwise identical with tracing on or
#      off. The stage then checks the fabric.* keys landed in the JSON
#      report, that its multinode.collectives.* makespans equal
#      bench/golden/multinode_collectives.json exactly, and that the saved
#      trace file is non-trivial.
#   6. Serving smoke: the continuous-batching bench drives a deterministic
#      request trace through per-model replicas with scheduled cold tuning
#      behind the online config service — it self-gates p99/cold-tune
#      latency bounds, the cold+warm hit rate, tuned >= seed, bitwise
#      same-seed reproducibility (trace + cache), and the ladder's
#      efficiency/argmin contract against the exhaustive search. The stage
#      then checks the serving.* keys landed in BENCH_serving.json.
# Usage: scripts/ci.sh [--fast]   (--fast skips the sanitizer/bench stages)
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

echo "=== [1/6] RelWithDebInfo, -Wall -Wextra -Werror ==="
cmake -B build-ci -S . -DTILELINK_WERROR=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-ci -j
# --timeout: a hung coroutine pipeline fails fast instead of
# stalling the whole CI run.
(cd build-ci && ctest --output-on-failure --timeout 120 -j"$(nproc)")

if [[ "$FAST" == "0" ]]; then
  echo "=== [2/6] Debug + ASan ==="
  cmake -B build-asan -S . -DTILELINK_ASAN=ON -DCMAKE_BUILD_TYPE=Debug
  cmake --build build-asan -j
  # ctest includes test_multinode, so the functional collectives' payload
  # and staging buffers are leak-checked here (the coroutine frame pools
  # are already gated off under ASan). detect_leaks is pinned on so a
  # platform default can't silently drop the leak check.
  (cd build-asan && ASAN_OPTIONS=detect_leaks=1 \
      ctest --output-on-failure --timeout 300 -j"$(nproc)")

  echo "=== [3/6] Debug + TSan (parallel search, cache, config service) ==="
  cmake -B build-tsan -S . -DTILELINK_TSAN=ON -DCMAKE_BUILD_TYPE=Debug
  cmake --build build-tsan -j --target test_tuning test_serving \
      test_models_e2e
  # halt_on_error: a data race fails the stage instead of scrolling past.
  for t in test_tuning test_serving test_models_e2e; do
    TSAN_OPTIONS=halt_on_error=1 "./build-tsan/$t"
  done

  echo "=== [4/6] Bench smoke (tuned configs must beat hand-picked) ==="
  ./build-ci/bench_micro_sim --json build-ci/BENCH_micro_sim.json
  wpf=$(grep -o '"BM_NetworkFlows/512.wakes_per_flow": [^,}]*' \
      build-ci/BENCH_micro_sim.json | awk '{print $2}') || true
  awk -v v="${wpf:-missing}" \
      'BEGIN { exit !(v != "missing" && v + 0 <= 1.1) }' \
      || { echo "BM_NetworkFlows/512.wakes_per_flow=${wpf:-missing}" \
                "(want <= 1.1)"; exit 1; }
  fpe=$(grep -o '"BM_SimulateAgGemmMlp1.frames_per_event": [^,}]*' \
      build-ci/BENCH_micro_sim.json | awk '{print $2}') || true
  awk -v v="${fpe:-missing}" \
      'BEGIN { exit !(v != "missing" && v + 0 <= 0.5) }' \
      || { echo "BM_SimulateAgGemmMlp1.frames_per_event=${fpe:-missing}" \
                "(want <= 0.5)"; exit 1; }
  ./build-ci/bench_fig8_mlp --json build-ci/BENCH_fig8.json
  ./build-ci/bench_fig11_e2e --tune-threads 8 \
      --json build-ci/BENCH_fig11.json \
      --cache build-ci/BENCH_fig11_cache.json

  echo "=== [5/6] 16-GPU smoke (payload + fused + ag-fused + faults) ==="
  # The generated/hand-built identity suite (test_overlap_gen) already ran
  # under ctest in stages 1-2; this stage gates the *generated* kernel's
  # end-to-end win: --ag-fused fails if the planner-generated ag_gemm_hier
  # loses to the AllGather-then-GEMM compose at any gate shape (including
  # the small-m column-split shape), if the tuner regresses past the seed,
  # if the small-m planner stops column-splitting, or if the functional /
  # fault-injected runs are not bit-exact and checker-clean.
  ./build-ci/bench_multinode_fabric --payload --fused --ag-fused --faults \
      --json build-ci/BENCH_multinode.json \
      --trace build-ci/TRACE_multinode.json
  # The bench already gates trace validity, the flow chain and profiler
  # consistency via its exit code; double-check the artifacts made it out.
  for key in fabric.exposed_comm_frac fabric.critical_path_ns \
             fabric.compute_util fabric.wire_util \
             fabric.ag_fused_speedup fabric.ag_fused_exposed_comm_frac; do
    grep -q "\"$key\"" build-ci/BENCH_multinode.json \
        || { echo "missing $key in BENCH_multinode.json"; exit 1; }
  done
  # The collective makespans (hierarchical and flat world-ring, 4/16/64 MiB,
  # plus the relative geomeans) are deterministic simulated time: every
  # multinode.collectives.* key must equal the checked-in golden exactly.
  python3 - build-ci/BENCH_multinode.json \
      bench/golden/multinode_collectives.json <<'PY'
import json, sys
got, want = (json.load(open(p)) for p in sys.argv[1:3])
got = {k: v for k, v in got.items() if k.startswith("multinode.collectives.")}
if got != want:
    for k in sorted(set(got) | set(want)):
        if got.get(k) != want.get(k):
            print(f"{k}: got {got.get(k)}, golden {want.get(k)}")
    sys.exit("multinode.collectives.* differ from bench/golden")
PY
  [[ -s build-ci/TRACE_multinode.json ]] \
      || { echo "empty TRACE_multinode.json"; exit 1; }
  grep -q '"ph"' build-ci/TRACE_multinode.json \
      || { echo "TRACE_multinode.json has no trace events"; exit 1; }

  echo "=== [6/6] Serving smoke (continuous batching + online config service) ==="
  # The bench exits nonzero if any of its own gates fail: fleet p99 and
  # per-unseen-shape cold-tune latency bounds, cache hit rate across a
  # cold+warm replica pair, tuned-vs-seed geomean >= 1, bitwise identical
  # trace+cache on a same-seed rerun, and the scheduled search matching the
  # exhaustive argmin on every tuned MLP shape within 25% of its
  # full-fidelity evaluations.
  ./build-ci/bench_serving --requests 24 --tune-threads 8 \
      --json build-ci/BENCH_serving.json \
      --cache build-ci/BENCH_serving_cache.json
  for key in serving.p99_ms serving.cache_hit_rate serving.tuned_speedup; do
    grep -q "\"$key\"" build-ci/BENCH_serving.json \
        || { echo "missing $key in BENCH_serving.json"; exit 1; }
  done
fi

echo "CI OK"
