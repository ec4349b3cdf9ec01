// Tests for the TileLink compiler: builder structure, the §4.2 memory-
// consistency verifier (accept + reject), listing codegen, and the
// fault-injection path — the deliberately-unsafe reordering pass must
// produce runtime consistency violations that the checker catches, while
// the safe compilation of the same program is clean.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "runtime/world.h"
#include "tensor/tensor_ops.h"
#include "tilelink/kernels/ag_gemm.h"
#include "tilelink/primitives.h"
#include "tilelink/program.h"

namespace tilelink::tl {
namespace {

using rt::ExecMode;
using rt::RankCtx;
using rt::World;

Op NopWait(const std::string& label) {
  return ops::ConsumerTileWait(label, [](const Env&) {
    WaitSpec s;
    return s;  // no channels: structurally a wait, semantically free
  });
}

Op AcquireLoad(const std::string& label) {
  return ops::Load(label, /*acquire=*/true, nullptr);
}

Op PlainStore(const std::string& label) {
  return ops::Store(label, nullptr);
}

Op Notify(const std::string& label) {
  return ops::ProducerTileNotify(label, [](const Env&) {
    NotifySpec s;
    return s;
  });
}

FusedKernelSpec OneRoleSpec(BlockProgram program) {
  FusedKernelSpec spec;
  spec.name = "test_kernel";
  spec.roles.push_back(Role{"role0", 1, std::move(program)});
  return spec;
}

TEST(Verifier, AcceptsWaitBeforeAcquireLoad) {
  TileProgramBuilder b;
  b.Add(NopWait("w")).Add(AcquireLoad("l")).Add(PlainStore("s")).Add(
      Notify("n"));
  EXPECT_NO_THROW(Compiler().Compile(OneRoleSpec(b.Build())));
}

TEST(Verifier, RejectsAcquireLoadWithoutWait) {
  TileProgramBuilder b;
  b.Add(AcquireLoad("naked_load"));
  try {
    Compiler().Compile(OneRoleSpec(b.Build()));
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_NE(std::string(e.what()).find("naked_load"), std::string::npos);
  }
}

TEST(Verifier, RejectsNotifyWithoutPrecedingWrite) {
  TileProgramBuilder b;
  b.Add(Notify("orphan_notify"));
  EXPECT_THROW(Compiler().Compile(OneRoleSpec(b.Build())), VerifyError);
}

TEST(Verifier, WaitInsideLoopDominatesLoopBody) {
  TileProgramBuilder b;
  b.For("t", [](const Env&) { return int64_t{2}; },
        [](TileProgramBuilder& body) {
          body.Add(NopWait("w")).Add(AcquireLoad("l"));
        });
  EXPECT_NO_THROW(Compiler().Compile(OneRoleSpec(b.Build())));
}

TEST(Verifier, WaitBeforeLoopDominatesLoopBody) {
  TileProgramBuilder b;
  b.Add(NopWait("w"));
  b.For("t", [](const Env&) { return int64_t{2}; },
        [](TileProgramBuilder& body) { body.Add(AcquireLoad("l")); });
  EXPECT_NO_THROW(Compiler().Compile(OneRoleSpec(b.Build())));
}

TEST(Verifier, WaitInsideLoopDoesNotEscapeLoop) {
  // A wait inside a loop (possibly zero-trip) cannot satisfy an
  // acquire-load after the loop.
  TileProgramBuilder b;
  b.For("t", [](const Env&) { return int64_t{0}; },
        [](TileProgramBuilder& body) { body.Add(NopWait("w")); });
  b.Add(AcquireLoad("late_load"));
  EXPECT_THROW(Compiler().Compile(OneRoleSpec(b.Build())), VerifyError);
}

TEST(Listing, EmitsRolesLoopsAndSyncMnemonics) {
  TileProgramBuilder comm;
  comm.Add(ops::TilePullData("pull", [](const Env&) { return DataSpec{}; }));
  comm.Add(Notify("notify"));
  TileProgramBuilder compute;
  compute.For("k", [](const Env&) { return int64_t{4}; },
              [](TileProgramBuilder& body) {
                body.Add(NopWait("w")).Add(AcquireLoad("l"));
              });
  FusedKernelSpec spec;
  spec.name = "listing_test";
  spec.roles.push_back(Role{"comm", 2, comm.Build()});
  spec.roles.push_back(Role{"compute", 3, compute.Build()});
  CompiledKernel kernel = Compiler().Compile(std::move(spec));
  const std::string& l = kernel.listing();
  EXPECT_NE(l.find(".role comm"), std::string::npos);
  EXPECT_NE(l.find(".role compute"), std::string::npos);
  EXPECT_NE(l.find("for k:"), std::string::npos);
  EXPECT_NE(l.find("ld.global.remote"), std::string::npos);
  EXPECT_NE(l.find("red.release.global.add"), std::string::npos);
  EXPECT_NE(l.find("spin.ld.global.acquire"), std::string::npos);
  EXPECT_NE(l.find("ld.global.acquire.b128"), std::string::npos);
}

// ---------------------------------------------------------------------- //
// Fault injection: the unsafe reordering of §4.2 must be caught at runtime
// by the consistency checker (and may corrupt numerics), while the safe
// compilation of the identical kernel is clean. We use the SM-pull AG+GEMM
// kernel whose consumer loads genuinely race with the comm role's pulls
// when hoisted above their waits.
// ---------------------------------------------------------------------- //

// A purpose-built producer/consumer pair where the unsafe reorder lands the
// consumer's acquire-load deterministically inside the producer's transfer
// window: the producer pushes a large tile to its peer and notifies; the
// consumer runs a pipeline-prologue delay, waits, then loads. Sinking the
// wait (unsafe mode) makes the load probe mid-transfer.
size_t RunRaceProbe(bool unsafe) {
  const int R = 2;
  sim::MachineSpec spec = sim::MachineSpec::Test(R, 4);
  spec.nvlink_gbps = 1.0;  // 1 MiB push ~ 1 ms window
  World world(spec, ExecMode::kFunctional);
  world.checker().set_enabled(true);
  auto bufs = world.AllocSymmetric("race_buf", 1 << 16);

  TileProgramBuilder comm;
  comm.Add(ops::TilePushData(
      "push",
      [bufs](const Env& e) {
        DataSpec d;
        d.src_rank = e.rank;
        d.dst_rank = 1 - e.rank;
        d.bytes = 1 << 20;
        d.write_buf = bufs[static_cast<size_t>(1 - e.rank)];
        d.write_lo = 0;
        d.write_hi = 1 << 16;
        return d;
      }));
  comm.Add(ops::ProducerTileNotify("notify", [](const Env& e) {
    NotifySpec s;
    s.entries.push_back(NotifyEntry{
        SignalSpace::kProducerConsumer, {1 - e.rank}, 0, 1});
    return s;
  }));

  TileProgramBuilder compute;
  compute.Add(ops::Mma("prologue",
                       [](const Env&, const sim::CostModel&) {
                         return sim::Us(200.0);  // deep pipeline fill
                       }));
  compute.Add(ops::ConsumerTileWait("wait", [](const Env&) {
    WaitSpec s;
    s.waits.push_back(ChannelWait{0, 1});
    return s;
  }));
  compute.Add(ops::Load("consume", /*acquire=*/true, [bufs](const Env& e) {
    DataSpec d;
    d.read_buf = bufs[static_cast<size_t>(e.rank)];
    d.read_lo = 0;
    d.read_hi = 1 << 16;
    return d;
  }));

  FusedKernelSpec spec_k;
  spec_k.name = "race_probe";
  spec_k.roles.push_back(Role{"comm", 1, comm.Build()});
  spec_k.roles.push_back(Role{"compute", 1, compute.Build()});
  CompilerOptions opt;
  opt.unsafe_reorder = unsafe;
  CompiledKernel kernel = Compiler(opt).Compile(std::move(spec_k));
  auto bcs = BlockChannel::CreateSymmetric(world, "race", 1, 1, 1);
  world.RunSpmd([&](RankCtx& ctx) -> sim::Coro {
    auto state = kernel.Launch(ctx, *ctx.stream,
                               bcs[static_cast<size_t>(ctx.rank)]);
    co_await state->Wait();
  });
  return world.checker().violations().size();
}

TEST(FaultInjection, SafeCompilationHasNoViolations) {
  EXPECT_EQ(RunRaceProbe(false), 0u);
}

TEST(FaultInjection, UnsafeReorderIsDetectedByChecker) {
  // The sunk wait makes the acquire-load probe while the peer's push is in
  // flight: the checker must flag a read-before-release.
  EXPECT_GT(RunRaceProbe(true), 0u)
      << "unsafe reordering went undetected by the consistency checker";
}

// ---------------------------------------------------------------------- //
// Interpreter semantics: op order through nested loops, loop-variable
// resets, a pinned timeline, error propagation, and when load/store
// DataSpecs are built.
// ---------------------------------------------------------------------- //

struct OpRecord {
  std::string label;
  std::array<int64_t, 4> loop;
  bool operator==(const OpRecord&) const = default;
};

// An elementwise op that costs `ns` and appends (label, env.loop) to
// `log[env.rank]` when it runs.
Op RecordingOp(const std::string& label, sim::TimeNs ns,
               std::vector<std::vector<OpRecord>>* log) {
  return ops::Elementwise(
      label, [ns](const Env&, const sim::CostModel&) { return ns; },
      [label, log](const Env& e) {
        (*log)[static_cast<size_t>(e.rank)].push_back(OpRecord{label, e.loop});
      });
}

// Launches `spec` on each rank of a 2-rank world in `mode` (4 producer/
// consumer channels, checker on when `checker`) and returns the makespan;
// `events` (when set) receives the simulator's event count.
sim::TimeNs RunTwoRanks(FusedKernelSpec spec, ExecMode mode,
                        uint64_t* events = nullptr, bool checker = false) {
  World world(sim::MachineSpec::Test(2, 4), mode);
  world.checker().set_enabled(checker);
  CompiledKernel kernel = Compiler().Compile(std::move(spec));
  auto bcs = BlockChannel::CreateSymmetric(world, "interp", 4, 1, 1);
  const sim::TimeNs t = world.RunSpmd([&](RankCtx& ctx) -> sim::Coro {
    auto state = kernel.Launch(ctx, *ctx.stream,
                               bcs[static_cast<size_t>(ctx.rank)]);
    co_await state->Wait();
  });
  if (events != nullptr) *events = world.sim().processed_events();
  return t;
}

TEST(ProgramInterpreter, NestedLoopsRunOpsInProgramOrder) {
  std::vector<std::vector<OpRecord>> log(2);
  TileProgramBuilder b;
  b.Add(RecordingOp("begin", 3, &log));
  b.For("a", [](const Env&) { return int64_t{2}; },
        [&](TileProgramBuilder& ba) {
          ba.Add(RecordingOp("A", 5, &log));
          // Inner trip count reads the outer loop variable.
          ba.For("b", [](const Env& e) { return 1 + e.iv(0); },
                 [&](TileProgramBuilder& bb) {
                   bb.For("zero", [](const Env&) { return int64_t{0}; },
                          [&](TileProgramBuilder& bz) {
                            bz.Add(RecordingOp("never", 7, &log));
                          });
                   bb.Add(RecordingOp("B", 0, &log));
                   bb.For("c", [](const Env&) { return int64_t{2}; },
                          [&](TileProgramBuilder& bc) {
                            bc.For("d",
                                   [](const Env& e) {
                                     return e.iv(2) + e.iv(1) + 1;
                                   },
                                   [&](TileProgramBuilder& bd) {
                                     bd.Add(RecordingOp("D", 2, &log));
                                   });
                            bc.Add(RecordingOp("C", 1, &log));
                          });
                   bb.Add(RecordingOp("B2", 0, &log));
                 });
          ba.Add(RecordingOp("A2", 4, &log));
        });
  b.Add(RecordingOp("end", 3, &log));
  FusedKernelSpec spec;
  spec.name = "order";
  spec.roles.push_back(Role{"r", 1, b.Build()});
  RunTwoRanks(std::move(spec), ExecMode::kFunctional);

  using L = std::array<int64_t, 4>;
  std::vector<OpRecord> want;
  want.push_back({"begin", L{0, 0, 0, 0}});
  for (int64_t a = 0; a < 2; ++a) {
    want.push_back({"A", L{a, 0, 0, 0}});
    for (int64_t bi = 0; bi < 1 + a; ++bi) {
      want.push_back({"B", L{a, bi, 0, 0}});
      for (int64_t c = 0; c < 2; ++c) {
        for (int64_t d = 0; d < c + bi + 1; ++d) {
          want.push_back({"D", L{a, bi, c, d}});
        }
        // The depth-3 loop variable reads 0 again after its loop.
        want.push_back({"C", L{a, bi, c, 0}});
      }
      want.push_back({"B2", L{a, bi, 0, 0}});
    }
    want.push_back({"A2", L{a, 0, 0, 0}});
  }
  want.push_back({"end", L{0, 0, 0, 0}});
  for (int r = 0; r < 2; ++r) {
    const std::vector<OpRecord>& got = log[static_cast<size_t>(r)];
    ASSERT_EQ(got.size(), want.size()) << "rank " << r;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].label, want[i].label) << "rank " << r << " op " << i;
      EXPECT_EQ(got[i].loop, want[i].loop)
          << "rank " << r << " op " << i << " (" << want[i].label << ")";
    }
  }
}

// Two roles on two ranks: a comm block pushes four tiles to its peer
// (alternating SM-driven and async-DMA pushes, each notifying on landing)
// while two compute blocks wait for each tile, load it and run a
// tile-dependent number of MMA steps.
FusedKernelSpec PinnedPipelineSpec() {
  TileProgramBuilder comm;
  comm.For("t", [](const Env&) { return int64_t{4}; },
           [](TileProgramBuilder& body) {
             for (const bool dma : {false, true}) {
               body.Add(ops::TilePushData(
                   dma ? "push_dma" : "push_sm",
                   [dma](const Env& e) {
                     DataSpec d;
                     d.src_rank = e.rank;
                     d.dst_rank = 1 - e.rank;
                     d.bytes = static_cast<uint64_t>(
                         (dma ? 96 : 32) * 1024 * (1 + e.iv(0)));
                     return d;
                   },
                   [dma](const Env& e) {
                     NotifySpec s;
                     s.entries.push_back(
                         NotifyEntry{SignalSpace::kProducerConsumer,
                                     {1 - e.rank},
                                     static_cast<int>(e.iv(0)),
                                     1});
                     return s;
                   },
                   dma));
             }
           });
  TileProgramBuilder compute;
  compute.For(
      "t", [](const Env&) { return int64_t{4}; },
      [](TileProgramBuilder& body) {
        body.Add(ops::ConsumerTileWait("wait", [](const Env& e) {
          WaitSpec s;
          s.waits.push_back(ChannelWait{static_cast<int>(e.iv(0)), 2});
          return s;
        }));
        body.Add(ops::Load("load", /*acquire=*/true));
        body.For("k", [](const Env& e) { return 1 + e.iv(0) + e.block_id; },
                 [](TileProgramBuilder& kb) {
                   kb.Add(ops::Mma("mma",
                                   [](const Env& e, const sim::CostModel&) {
                                     return sim::TimeNs{700 + 13 * e.iv(1)};
                                   }));
                 });
        body.Add(ops::Store("store"));
      });
  FusedKernelSpec spec;
  spec.name = "pinned";
  spec.roles.push_back(Role{"comm", 1, comm.Build()});
  spec.roles.push_back(Role{"compute", 2, compute.Build()});
  return spec;
}

// Pinned exactly: the interpreter's suspension points (delays, waits,
// transfers, DMA hand-offs) fix every (time, seq) key, so any change to how
// a block program is walked shows up in the makespan or the event count.
TEST(ProgramInterpreter, PipelineTimelineIsPinned) {
  uint64_t events = 0;
  const sim::TimeNs t =
      RunTwoRanks(PinnedPipelineSpec(), ExecMode::kTimingOnly, &events);
  EXPECT_EQ(t, 32393);
  EXPECT_EQ(events, 180u);
}

TEST(ProgramInterpreter, PushWithoutDataSpecThrowsOutOfRunSpmd) {
  TileProgramBuilder b;
  b.Add(ops::Mma("warmup", [](const Env&, const sim::CostModel&) {
    return sim::TimeNs{50};
  }));
  b.Add(ops::TilePushData("bare_push", nullptr));
  FusedKernelSpec spec;
  spec.name = "bare";
  spec.roles.push_back(Role{"r", 1, b.Build()});
  try {
    RunTwoRanks(std::move(spec), ExecMode::kTimingOnly);
    FAIL() << "expected an error from the push without a DataSpec";
  } catch (const sim::DeadlockError& e) {
    FAIL() << "push without a DataSpec surfaced as a deadlock: " << e.what();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bare_push"), std::string::npos)
        << e.what();
  }
}

TEST(ProgramInterpreter, UnsatisfiableWaitRaisesDeadlockNamingItsFlag) {
  TileProgramBuilder b;
  b.For("t", [](const Env&) { return int64_t{2}; },
        [](TileProgramBuilder& body) {
          body.Add(ops::ConsumerTileWait("stuck", [](const Env& e) {
            WaitSpec s;
            // Channel 2 is never notified; iteration 0 waits forever.
            s.waits.push_back(ChannelWait{static_cast<int>(2 + e.iv(0)), 1});
            return s;
          }));
        });
  FusedKernelSpec spec;
  spec.name = "stuck";
  spec.roles.push_back(Role{"r", 1, b.Build()});
  try {
    RunTwoRanks(std::move(spec), ExecMode::kTimingOnly);
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("interp.pc[2]"), std::string::npos)
        << e.what();
  }
}

// Load and store DataSpecs only feed the consistency checker, so they are
// built only while it is enabled.
TEST(ProgramInterpreter, LoadStoreDataBuiltOnlyForTheChecker) {
  auto data_calls = [](ExecMode mode, bool checker) {
    auto calls = std::make_shared<int>(0);
    auto count = [calls](const Env&) {
      ++*calls;
      return DataSpec{};
    };
    TileProgramBuilder b;
    b.For("t", [](const Env&) { return int64_t{3}; },
          [&](TileProgramBuilder& body) {
            body.Add(ops::Load("load", /*acquire=*/false, count));
            body.Add(ops::Store("store", count));
          });
    FusedKernelSpec spec;
    spec.name = "lazy_data";
    spec.roles.push_back(Role{"r", 1, b.Build()});
    RunTwoRanks(std::move(spec), mode, nullptr, checker);
    return *calls;
  };
  EXPECT_EQ(data_calls(ExecMode::kTimingOnly, false), 0);
  EXPECT_EQ(data_calls(ExecMode::kFunctional, false), 0);
  // 2 ranks x 3 iterations x (load + store).
  EXPECT_EQ(data_calls(ExecMode::kTimingOnly, true), 12);
  EXPECT_EQ(data_calls(ExecMode::kFunctional, true), 12);
}

TEST(Compiler, UnsafeModeChangesListingOrder) {
  // In the unsafe listing the acquire-load precedes the wait.
  auto build = [](bool unsafe) {
    TileProgramBuilder b;
    b.Add(PlainStore("st"));
    b.Add(NopWait("w"));
    b.Add(AcquireLoad("l"));
    CompilerOptions opt;
    opt.unsafe_reorder = unsafe;
    return Compiler(opt).Compile(OneRoleSpec(b.Build())).listing();
  };
  const std::string safe = build(false);
  const std::string unsafe = build(true);
  EXPECT_LT(safe.find("spin.ld.global.acquire"),
            safe.find("ld.global.acquire.b128"));
  EXPECT_GT(unsafe.find("spin.ld.global.acquire"),
            unsafe.find("ld.global.acquire.b128"));
}

TEST(Builder, LoopDepthsAreLexical) {
  TileProgramBuilder b;
  std::vector<int> seen_depths;
  b.For("a", [](const Env&) { return int64_t{1}; },
        [&](TileProgramBuilder& ba) {
          ba.For("b", [](const Env&) { return int64_t{1}; },
                 [&](TileProgramBuilder& bb) {
                   bb.Add(PlainStore("s"));
                 });
        });
  BlockProgram p = b.Build();
  ASSERT_EQ(p.stmts.size(), 1u);
  ASSERT_TRUE(p.stmts[0].loop != nullptr);
  EXPECT_EQ(p.stmts[0].loop->depth, 0);
  ASSERT_EQ(p.stmts[0].loop->body.size(), 1u);
  EXPECT_EQ(p.stmts[0].loop->body[0].loop->depth, 1);
}

TEST(Compiler, RejectsEmptyKernel) {
  FusedKernelSpec spec;
  spec.name = "empty";
  EXPECT_THROW(Compiler().Compile(std::move(spec)), Error);
}

}  // namespace
}  // namespace tilelink::tl
