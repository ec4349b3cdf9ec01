// fabric-2x8: the H800x16 machine (2 nodes x 8 GPUs). One pass runs the
// fused GEMM + hierarchical ReduceScatter and the fused hierarchical
// AllGather + GEMM on the six Table-4 MLP shapes at TP16 with their seed
// configs, plus the hierarchical AllGather, the hierarchical ReduceScatter
// and the DP AllReduce, each on its own bench-owned World; then it replays
// the same operations on a 4-rail fabric under seeded random-transient
// FaultPlans. One thread; no tuner, cache or serving.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "runtime/world.h"
#include "sim/fault.h"
#include "sim/profile.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "tilelink/kernels/ag_gemm_hier.h"
#include "tilelink/kernels/gemm_hier_rs.h"
#include "tilelink/multinode/hier_collectives.h"
#include "tilelink/multinode/payload_validation.h"

namespace perfbench {
namespace {

using namespace tilelink;

using Program = std::function<sim::Coro(rt::RankCtx&)>;

constexpr int kTp = 16;
constexpr int64_t kTokens = 8192;  // Table 4: batch x sequence
constexpr uint64_t kCollTileBytes = 512 << 10;
constexpr uint64_t kDpTileBytes = 1 << 20;
// The seed picks each collective's per-rank tile count from this menu.
constexpr int64_t kCollTiles[] = {28, 30, 32, 34, 36};

struct MlpShape {
  const char* name;
  int64_t h, i;
};
constexpr MlpShape kTable4Mlp[] = {
    {"MLP-1", 4096, 11008}, {"MLP-2", 4096, 14336}, {"MLP-3", 3584, 14336},
    {"MLP-4", 4608, 36864}, {"MLP-5", 8192, 28672}, {"MLP-6", 8192, 29568},
};

enum class Kind { kGemmHierRs, kAgGemmHier, kHierAg, kHierRs, kDpAllReduce };

struct Op {
  Op(std::string name_, Kind kind_) : name(std::move(name_)), kind(kind_) {}

  std::string name;  // "<kernel or collective>.<shape>"
  Kind kind;
  tl::GemmHierRsConfig rs;  // kGemmHierRs
  tl::AgGemmHierConfig ag;  // kAgGemmHier
  int64_t tiles = 0;        // collectives
  uint64_t tile_bytes = 0;

  bool is_kernel() const {
    return kind == Kind::kGemmHierRs || kind == Kind::kAgGemmHier;
  }
  const char* family() const {
    switch (kind) {
      case Kind::kGemmHierRs: return "gemm_hier_rs";
      case Kind::kAgGemmHier: return "ag_gemm_hier";
      case Kind::kHierAg: return "hier_ag";
      case Kind::kHierRs: return "hier_rs";
      case Kind::kDpAllReduce: return "dp_allreduce";
    }
    return "";
  }
};

// Ring / AllGather chunk rows of the seed configs: an eighth of the
// per-rank rows, rounded to the GEMM tile.
int ChunkRows(int64_t m_per_rank, int bm) {
  int64_t chunk = std::max<int64_t>(bm, m_per_rank / 8 - (m_per_rank / 8) % bm);
  while (m_per_rank % chunk != 0) chunk -= bm;
  return static_cast<int>(chunk);
}

// Constructs the operation (owned by `hold`) on `world` and returns its
// SPMD body.
template <typename T, typename... Args>
Program Build(std::shared_ptr<void>* hold, Args&&... args) {
  auto obj = std::make_shared<T>(std::forward<Args>(args)...);
  *hold = obj;
  return [obj](rt::RankCtx& ctx) -> sim::Coro { co_await obj->Run(ctx); };
}

Program BuildOp(const Op& op, rt::World& world, std::shared_ptr<void>* hold) {
  const multinode::HierConfig cfg;
  switch (op.kind) {
    case Kind::kGemmHierRs: return Build<tl::GemmHierRs>(hold, world, op.rs);
    case Kind::kAgGemmHier: return Build<tl::AgGemmHier>(hold, world, op.ag);
    case Kind::kHierAg:
      return Build<multinode::HierAllGather>(hold, world, op.tiles,
                                             op.tile_bytes, cfg);
    case Kind::kHierRs:
      return Build<multinode::HierReduceScatter>(hold, world, op.tiles,
                                                 op.tile_bytes, cfg);
    case Kind::kDpAllReduce:
      return Build<multinode::DpAllReduce>(hold, world, op.tiles,
                                           op.tile_bytes, cfg);
  }
  return {};
}

// Small functional shapes for the bit-exact checks.
tl::GemmHierRsConfig SmallGemmHierRs() {
  tl::GemmHierRsConfig c;
  c.m = static_cast<int64_t>(kTp) * 16;
  c.k = 16;
  c.n = 16;
  c.gemm = {8, 16, 8};
  c.rs_block_m = 8;
  return c;
}

tl::AgGemmHierConfig SmallAgGemmHier() {
  tl::AgGemmHierConfig c;
  c.m = static_cast<int64_t>(kTp) * 16;
  c.k = 16;
  c.n = 16;
  c.gemm = {8, 16, 8};
  c.comm_tile_m = 8;
  return c;
}

struct ProfileSum {
  double exposed = 0, compute = 0, wire = 0, critical = 0;
  int n = 0;
};

class Fabric : public Workload {
 public:
  explicit Fabric(const Options& opts) : opts_(opts) {}

  void Setup() override {
    spec_ = sim::MachineSpec::H800x16();
    fault_spec_ = spec_;
    fault_spec_.nic_rails = 4;
    ops_.clear();
    const int64_t m_per_rank = kTokens / kTp;
    for (const MlpShape& s : kTable4Mlp) {
      Op rs(std::string("gemm_hier_rs.") + s.name, Kind::kGemmHierRs);
      rs.rs.m = kTokens;
      rs.rs.k = s.i / kTp;
      rs.rs.n = s.h;
      rs.rs.rs_block_m = ChunkRows(m_per_rank, rs.rs.gemm.bm);
      ops_.push_back(rs);
      Op ag(std::string("ag_gemm_hier.") + s.name, Kind::kAgGemmHier);
      ag.ag.m = kTokens;
      ag.ag.k = s.h;
      ag.ag.n = s.i / kTp;
      ag.ag.comm_tile_m = ChunkRows(m_per_rank, ag.ag.gemm.bm);
      ops_.push_back(ag);
    }
    const uint64_t pick = Mix(opts_.seed);
    const Kind colls[] = {Kind::kHierAg, Kind::kHierRs, Kind::kDpAllReduce};
    for (int c = 0; c < 3; ++c) {
      Op op("", colls[c]);
      op.tiles = kCollTiles[(pick >> (8 * c)) % std::size(kCollTiles)];
      op.tile_bytes =
          colls[c] == Kind::kDpAllReduce ? kDpTileBytes : kCollTileBytes;
      op.name = std::string(op.family()) + "." + std::to_string(op.tiles) +
                "x" + std::to_string(op.tile_bytes >> 10) + "KiB";
      ops_.push_back(op);
    }
    // One independently seeded plan per operation: a plan replays the same
    // fates on every World, so sharing one would make every operation's
    // faulted makespan hinge on the same few drops.
    plans_.clear();
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const uint64_t seed = Mix(opts_.seed * 1009 + i);
      sim::FaultPlan plan;
      plan.RandomTransients("nic", seed, 0.08, 0.10, 3.0);
      plan.RandomTransients("nvlink", Mix(seed), 0.02, 0.05, 2.0);
      plans_.push_back(std::move(plan));
    }
  }

  PassResult Pass(Spans* spans) override {
    PassResult r;
    uint64_t events = 0, bytes = 0;
    sim::FaultStats faults;
    std::map<std::string, std::vector<double>> family_ms;
    std::map<std::string, ProfileSum> profiles;
    std::vector<double> clean_ms, faulted_ms;
    for (const bool faulted : {false, true}) {
      const sim::MachineSpec& spec = faulted ? fault_spec_ : spec_;
      for (std::size_t i = 0; i < ops_.size(); ++i) {
        const Op& op = ops_[i];
        const std::string key = (faulted ? "faulted." : "clean.") + op.name;
        Spans::Scope op_span(spans, "bench", key, static_cast<int64_t>(i));
        const auto op_t0 = Clock::now();
        ++r.attempted;
        try {
          std::optional<rt::World> world;
          {
            Spans::Scope s(spans, "runtime", "world");
            world.emplace(spec, rt::ExecMode::kTimingOnly);
          }
          if (faulted) world->set_fault_plan(&plans_[i]);
          std::shared_ptr<void> hold;
          Program program;
          {
            Spans::Scope s(spans, op.is_kernel() ? "kernels" : "multinode",
                           "build");
            program = BuildOp(op, *world, &hold);
          }
          sim::TimeNs makespan = 0;
          {
            Spans::Scope s(spans, "runtime", "run_spmd");
            makespan = world->RunSpmd(program);
          }
          r.step_s.push_back(SecondsSince(op_t0));
          const double ms = sim::ToMs(makespan);
          r.sim[key + ".ms"] = ms;
          (faulted ? faulted_ms : clean_ms).push_back(ms);
          events += world->sim().processed_events();
          bytes += world->intra_fabric().total_bytes() +
                   world->inter_fabric().total_bytes();
          faults += world->fault_stats();
          if (!faulted) family_ms[op.family()].push_back(ms);
          if (spans != nullptr && !faulted && op.is_kernel()) {
            // Profile a traced re-run; its makespan must equal the
            // untraced one bitwise.
            Spans::Scope s(spans, "sim", "profile");
            sim::TimeNs traced = 0;
            const sim::Profile p = ProfileOp(op, spec, &traced);
            if (traced != makespan) {
              ++r.failed;
              std::printf("  %s: traced makespan %lld ns != untraced %lld ns\n",
                          key.c_str(), static_cast<long long>(traced),
                          static_cast<long long>(makespan));
            }
            ProfileSum& sum = profiles[op.family()];
            sum.exposed += p.exposed_comm_frac;
            sum.compute += p.compute_util;
            sum.wire += p.wire_util;
            sum.critical += static_cast<double>(p.critical_path) /
                            static_cast<double>(p.makespan);
            ++sum.n;
          }
        } catch (const tilelink::Error& e) {
          ++r.failed;
          std::printf("  %s FAILED: %s\n", key.c_str(), e.what());
        }
      }
    }
    if (r.failed > 0) return r;
    r.sim["fabric_ms"] = Geomean(clean_ms);
    r.sim["faulted_ms"] = Geomean(faulted_ms);
    r.sim["sim_ms"] = r.sim["fabric_ms"];
    r.sim["sim_tail_ms"] = r.sim["faulted_ms"];
    r.sim["sim.events"] = static_cast<double>(events);
    r.sim["net.bytes"] = static_cast<double>(bytes);
    r.sim["net.retries"] = static_cast<double>(faults.retries);
    r.sim["net.drops"] = static_cast<double>(faults.drops);
    r.sim["net.timeouts"] = static_cast<double>(faults.timeouts);
    for (const auto& [k, v] : r.sim) {
      if (k.rfind("sim.", 0) == 0 || k.rfind("net.", 0) == 0) r.layer[k] = v;
    }
    for (const auto& [family, v] : family_ms) {
      const std::string layer =
          (family == "gemm_hier_rs" || family == "ag_gemm_hier")
              ? "kernels."
              : "multinode.";
      r.layer[layer + family + ".sim_ms"] = Geomean(v);
    }
    if (spans != nullptr) {
      const double run_s = spans->TotalSeconds("runtime", "run_spmd");
      r.layer["runtime.world_ms"] =
          1e3 * spans->TotalSeconds("runtime", "world");
      r.layer["kernels.build_ms"] =
          1e3 * spans->TotalSeconds("kernels", "build");
      r.layer["runtime.run_spmd_ms"] = 1e3 * run_s;
      r.layer["sim.host_ns_per_event"] =
          1e9 * run_s / static_cast<double>(events);
      for (const auto& [family, s] : profiles) {
        const std::string p = "kernels." + family;
        r.layer[p + ".exposed_comm_frac"] = s.exposed / s.n;
        r.layer[p + ".compute_util"] = s.compute / s.n;
        r.layer[p + ".wire_util"] = s.wire / s.n;
        r.layer[p + ".critical_path_frac"] = s.critical / s.n;
      }
    }
    return r;
  }

  bool Check(const PassResult&) override {
    bool ok = true;
    struct Case {
      const char* name;
      const sim::MachineSpec* spec;
      const sim::FaultPlan* plan;
    };
    const Case cases[] = {{"fault-free", &spec_, nullptr},
                          {"fault plan, 4 rails", &fault_spec_, &plans_[0]}};
    for (const Case& c : cases) {
      const multinode::PayloadReport rs =
          multinode::ValidateGemmHierRs(*c.spec, SmallGemmHierRs(), c.plan);
      const multinode::PayloadReport ag =
          multinode::ValidateAgGemmHier(*c.spec, SmallAgGemmHier(), c.plan);
      for (const auto& [name, rep] :
           {std::pair{"gemm_hier_rs", &rs}, std::pair{"ag_gemm_hier", &ag}}) {
        std::printf("  %s %s (small shape): bit_exact=%d violations=%zu "
                    "drops=%llu retries=%llu\n",
                    name, c.name, rep->bit_exact ? 1 : 0, rep->violations,
                    static_cast<unsigned long long>(rep->faults.drops),
                    static_cast<unsigned long long>(rep->faults.retries));
        ok = ok && rep->ok();
      }
    }
    return ok;
  }

  // One thread over memory-bound event loops: the workload most exposed to
  // other work on the machine, so per-operation medians need three passes.
  int MinPasses() const override { return 3; }

  void PrintFidelity(const PassResult& first) override {
    std::printf(
        "  2x8 fused-vs-compose speedups: not reported by this workload "
        "(unvalidated: no paper reference)\n");
    if (first.sim.count("fabric_ms") != 0) {
      std::printf("  fault slowdown faulted_ms / fabric_ms = %.4fx "
                  "(unvalidated: no paper reference)\n",
                  first.sim.at("faulted_ms") / first.sim.at("fabric_ms"));
    }
  }

 private:
  sim::Profile ProfileOp(const Op& op, const sim::MachineSpec& spec,
                         sim::TimeNs* makespan) {
    sim::TraceRecorder rec;
    rt::World world(spec, rt::ExecMode::kTimingOnly);
    world.set_trace(&rec);
    std::shared_ptr<void> hold;
    *makespan = world.RunSpmd(BuildOp(op, world, &hold));
    return sim::BuildProfile(rec);
  }

  Options opts_;
  sim::MachineSpec spec_, fault_spec_;
  std::vector<Op> ops_;
  std::vector<sim::FaultPlan> plans_;  // one per operation
};

}  // namespace

std::unique_ptr<Workload> MakeFabric(const Options& opts) {
  return std::make_unique<Fabric>(opts);
}

}  // namespace perfbench
