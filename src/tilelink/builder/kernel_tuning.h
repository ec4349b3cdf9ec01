// Candidate evaluators connecting the Autotuner to every fused kernel.
//
// Simulate*() builds a fresh timing-only World, constructs the kernel with
// the candidate's knobs and returns the SPMD makespan — the exact quantity
// the paper's figures report. *LowerBound() are analytic sim::CostModel
// bounds — the overlap-aware max(compute-only, wire-time) plus the kernel
// launch latency every fused kernel pays — which the Autotuner uses to
// prune candidates without paying for a DES run. Tune*() wire evaluator,
// bound and a coarse-rung schedule together; the cheaper rung evaluators
// are private to the .cc.
#pragma once

#include "compute/moe_routing.h"
#include "sim/machine_spec.h"
#include "tilelink/builder/autotuner.h"

namespace tilelink::tl {

// One MLP part: [m, k] x [k, n] with m row-sharded (AG+GEMM) or n produced
// as partials to reduce-scatter (GEMM+RS).
struct MlpPartShape {
  int64_t m = 0;
  int64_t k = 0;
  int64_t n = 0;
};

// AG-KV + flash attention (sequence-parallel self-attention, Figure 6).
struct AttnShape {
  int64_t batch_heads = 0;
  int64_t seq = 0;  // total KV sequence (sharded across ranks)
  int64_t head_dim = 128;
};

// Compute-only flash core ([bh, sq] query block against [bh, skv] KV); the
// e2e model sweep tunes this for the sequence-parallel attention block,
// whose communication is fused into the QKV/out projections instead.
struct FlashShape {
  int64_t batch_heads = 0;
  int64_t seq_q = 0;
  int64_t seq_kv = 0;
  int64_t head_dim = 128;
};

// One MoE layer part: m global tokens, `hidden` token features, and
// inner = I/R local expert columns.
struct MoeShape {
  int64_t m = 0;
  int64_t hidden = 0;
  int64_t inner = 0;
  int num_experts = 0;
  int topk = 0;
};

// Ring-RS chunk rows for one per-rank block: ~1/8 of the block, kept a
// multiple of `bm` and a divisor of the block — the layer-default rule
// shared by the e2e estimator's hand-picked configs and the fused
// multi-node kernel's seed. Falls back to `bm` when the block is not a
// multiple of it (the shape is then rejected by the feasibility checks).
int RsBlockRows(int64_t m_per_rank, int bm);

// ---- Full-fidelity evaluators -------------------------------------------
// Simulated makespan; Autotuner::kInfeasible when the candidate violates
// the kernel's divisibility constraints.
sim::TimeNs SimulateAgGemm(const sim::MachineSpec& spec,
                           const MlpPartShape& shape, const TuneCandidate& c);
sim::TimeNs SimulateGemmRs(const sim::MachineSpec& spec,
                           const MlpPartShape& shape, const TuneCandidate& c);
sim::TimeNs SimulateAgAttention(const sim::MachineSpec& spec,
                                const AttnShape& shape,
                                const TuneCandidate& c);
sim::TimeNs SimulateFlashCore(const sim::MachineSpec& spec,
                              const FlashShape& shape,
                              const TuneCandidate& c);
sim::TimeNs SimulateAgMoe(const sim::MachineSpec& spec, const MoeShape& shape,
                          const compute::MoeRouting& routing,
                          const TuneCandidate& c);
sim::TimeNs SimulateMoeRs(const sim::MachineSpec& spec, const MoeShape& shape,
                          const compute::MoeRouting& routing,
                          const TuneCandidate& c);
// Both MoE parts chained per rank inside one world (the e2e layer shape).
sim::TimeNs SimulateMoeLayer(const sim::MachineSpec& spec,
                             const MoeShape& shape,
                             const compute::MoeRouting& routing,
                             const TuneCandidate& part1,
                             const TuneCandidate& part2);

// ---- Analytic lower bounds ----------------------------------------------
// *LowerBound compose the overlap-aware bound with the candidate-dependent
// communication-optimal floors of builder/comm_bounds.h via max. The
// *OverlapBound parts are exported separately so benchmarks and tests can
// measure how many extra candidates the floors prune.
sim::TimeNs AgGemmOverlapBound(const sim::MachineSpec& spec,
                               const MlpPartShape& shape,
                               const TuneCandidate& c);
sim::TimeNs GemmRsOverlapBound(const sim::MachineSpec& spec,
                               const MlpPartShape& shape,
                               const TuneCandidate& c);
sim::TimeNs AgGemmLowerBound(const sim::MachineSpec& spec,
                             const MlpPartShape& shape,
                             const TuneCandidate& c);
sim::TimeNs GemmRsLowerBound(const sim::MachineSpec& spec,
                             const MlpPartShape& shape,
                             const TuneCandidate& c);
sim::TimeNs AgAttentionLowerBound(const sim::MachineSpec& spec,
                                  const AttnShape& shape,
                                  const TuneCandidate& c);
sim::TimeNs FlashCoreLowerBound(const sim::MachineSpec& spec,
                                const FlashShape& shape,
                                const TuneCandidate& c);
sim::TimeNs AgMoeLowerBound(const sim::MachineSpec& spec,
                            const MoeShape& shape, const TuneCandidate& c);
sim::TimeNs MoeRsLowerBound(const sim::MachineSpec& spec,
                            const MoeShape& shape, const TuneCandidate& c);

// ---- Full searches (evaluator + bound + schedule pre-wired) -------------
// Each picks its TuneSchedule from the shape: the fidelity ladder when its
// shrink axis (AG+GEMM k, GEMM+RS n, attention seq, flash seq_kv,
// MoE token count — each scales compute and communication together) can
// shrink at 1/16; else one rung on a cheapened simulation (the reduction
// loop collapsed to one k-step, the sequence or token count quartered);
// else, for attention shapes too short for either, a plain search.
TuneResult TuneAgGemm(const sim::MachineSpec& spec, const MlpPartShape& shape,
                      const TuningSpace& space, const TuneCandidate& base,
                      const Autotuner& tuner = Autotuner());
TuneResult TuneGemmRs(const sim::MachineSpec& spec, const MlpPartShape& shape,
                      const TuningSpace& space, const TuneCandidate& base,
                      const Autotuner& tuner = Autotuner());
TuneResult TuneAgAttention(const sim::MachineSpec& spec,
                           const AttnShape& shape, const TuningSpace& space,
                           const TuneCandidate& base,
                           const Autotuner& tuner = Autotuner());
TuneResult TuneFlashCore(const sim::MachineSpec& spec,
                         const FlashShape& shape, const TuningSpace& space,
                         const TuneCandidate& base,
                         const Autotuner& tuner = Autotuner());
TuneResult TuneAgMoe(const sim::MachineSpec& spec, const MoeShape& shape,
                     const compute::MoeRouting& routing,
                     const TuningSpace& space, const TuneCandidate& base,
                     const Autotuner& tuner = Autotuner());
TuneResult TuneMoeRs(const sim::MachineSpec& spec, const MoeShape& shape,
                     const compute::MoeRouting& routing,
                     const TuningSpace& space, const TuneCandidate& base,
                     const Autotuner& tuner = Autotuner());

}  // namespace tilelink::tl
