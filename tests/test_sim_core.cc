// Unit tests for the discrete-event simulator core: event ordering
// (including reserved-seq scheduling), coroutine composition, FIFO
// resources, flags, deadlock detection, the coroutine frame pool's
// lifetime, and the frame counter (a tile-program block is one frame).
#include <gtest/gtest.h>
#include <malloc.h>

#include <thread>
#include <vector>

#include "runtime/world.h"
#include "sim/coro.h"
#include "sim/coro_utils.h"
#include "sim/flag.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "tilelink/block_channel.h"
#include "tilelink/primitives.h"
#include "tilelink/program.h"

namespace tilelink::sim {
namespace {

Coro DelayAndRecord(TimeNs delay, std::vector<TimeNs>* log, Simulator* sim) {
  co_await Delay{delay};
  log->push_back(sim->Now());
}

TEST(SimCore, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<TimeNs> log;
  sim.Spawn(DelayAndRecord(300, &log, &sim));
  sim.Spawn(DelayAndRecord(100, &log, &sim));
  sim.Spawn(DelayAndRecord(200, &log, &sim));
  sim.Run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], 100);
  EXPECT_EQ(log[1], 200);
  EXPECT_EQ(log[2], 300);
}

TEST(SimCore, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.At(50, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimCore, AtSeqRunsAtItsReservedPosition) {
  // The reservation is taken first, a same-time event is pushed in between,
  // and the AtSeq callback is scheduled last (from inside an earlier event):
  // it still runs first, because the queue orders by (time, seq).
  Simulator sim;
  std::vector<int> order;
  const uint64_t early = sim.ReserveSeq();
  sim.At(50, [&order] { order.push_back(1); });
  sim.At(10, [&sim, &order, early] {
    sim.AtSeq(50, early, [&order] { order.push_back(0); });
  });
  sim.At(50, [&order] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimCore, AtSeqRejectsUnreservedSeqsAndPastKeys) {
  Simulator sim;
  const uint64_t reserved = sim.ReserveSeq();
  // Never reserved: the next seq has not been handed out.
  EXPECT_THROW(sim.AtSeq(10, reserved + 1, [] {}), Error);
  bool same_ns_rejected = false;
  sim.At(100, [&sim, &same_ns_rejected, reserved] {
    // Same ns, but a seq the running event already passed.
    try {
      sim.AtSeq(100, reserved, [] {});
    } catch (const Error&) {
      same_ns_rejected = true;
    }
  });
  sim.Run();
  EXPECT_TRUE(same_ns_rejected);
  EXPECT_EQ(sim.Now(), 100);
  // A time in the past.
  EXPECT_THROW(sim.AtSeq(50, reserved, [] {}), Error);
  // A later time under the old reservation is fine.
  bool ran = false;
  sim.AtSeq(150, reserved, [&ran] { ran = true; });
  sim.Run();
  EXPECT_TRUE(ran);
}

Coro Nested(Simulator* sim, TimeNs* out) {
  co_await Delay{10};
  *out = sim->Now();
}

Coro Outer(Simulator* sim, TimeNs* child_time, TimeNs* parent_time) {
  co_await Delay{5};
  co_await Nested(sim, child_time);
  *parent_time = sim->Now();
}

TEST(SimCore, ChildCoroutineRunsInline) {
  Simulator sim;
  TimeNs child = -1, parent = -1;
  sim.Spawn(Outer(&sim, &child, &parent));
  sim.Run();
  EXPECT_EQ(child, 15);
  EXPECT_EQ(parent, 15);  // parent resumes at the same instant
}

Coro ThrowingChild() {
  co_await Delay{1};
  throw Error("child failed");
}

Coro CatchingParent(bool* caught) {
  try {
    co_await ThrowingChild();
  } catch (const Error&) {
    *caught = true;
  }
}

TEST(SimCore, FrameCounterCountsEveryCoroutineFrame) {
  Simulator sim;
  TimeNs child = -1, parent = -1;
  const uint64_t before = FramesAllocated();
  sim.Spawn(Outer(&sim, &child, &parent));  // Outer plus its Nested child
  sim.Run();
  EXPECT_EQ(FramesAllocated() - before, 2u);
}

// The tile-program interpreter runs each block as one coroutine: a block of
// thousands of costed ops in nested loops allocates a handful of frames
// (block wrapper, program walk, launch bookkeeping), not one per op or
// loop iteration.
TEST(SimCore, BlockProgramAllocatesFramesPerBlockNotPerOp) {
  constexpr int kRanks = 2;
  constexpr int kBlocks = 3;
  constexpr int64_t kOuter = 40, kInner = 25;  // 2 ops x 1000 iterations
  tl::TileProgramBuilder b;
  b.For("i", [](const tl::Env&) { return kOuter; },
        [](tl::TileProgramBuilder& outer) {
          outer.For("j", [](const tl::Env&) { return kInner; },
                    [](tl::TileProgramBuilder& inner) {
                      inner.Add(tl::ops::Mma(
                          "mma", [](const tl::Env&, const CostModel&) {
                            return TimeNs{10};
                          }));
                      inner.Add(tl::ops::Elementwise(
                          "epi", [](const tl::Env&, const CostModel&) {
                            return TimeNs{3};
                          }));
                    });
        });
  tl::FusedKernelSpec spec;
  spec.name = "frames";
  spec.roles.push_back(tl::Role{"compute", kBlocks, b.Build()});
  const tl::CompiledKernel kernel = tl::Compiler().Compile(std::move(spec));

  rt::World world(MachineSpec::Test(kRanks, 8), rt::ExecMode::kTimingOnly);
  auto bcs = tl::BlockChannel::CreateSymmetric(world, "frames", 1, 1, 1);
  const uint64_t before = FramesAllocated();
  const TimeNs t = world.RunSpmd([&](rt::RankCtx& ctx) -> Coro {
    auto state = kernel.Launch(ctx, *ctx.stream,
                               bcs[static_cast<size_t>(ctx.rank)]);
    co_await state->Wait();
  });
  const uint64_t frames = FramesAllocated() - before;
  EXPECT_GE(t, kOuter * kInner * 13);  // every op's cost was paid
  constexpr uint64_t kTotalBlocks = kRanks * kBlocks;
  EXPECT_LE(frames, 4 * kTotalBlocks + 8 * kRanks)
      << frames << " frames for " << kTotalBlocks << " blocks of "
      << 2 * kOuter * kInner << " ops";
}

TEST(SimCore, ChildExceptionPropagatesToParent) {
  Simulator sim;
  bool caught = false;
  sim.Spawn(CatchingParent(&caught));
  sim.Run();
  EXPECT_TRUE(caught);
}

Coro UseResource(Resource* res, TimeNs hold, std::vector<TimeNs>* starts,
                 Simulator* sim) {
  co_await res->Acquire();
  starts->push_back(sim->Now());
  co_await Delay{hold};
  res->Release();
}

TEST(SimCore, ResourceFifoAdmission) {
  Simulator sim;
  Resource res(&sim, 2, "sms");
  std::vector<TimeNs> starts;
  for (int i = 0; i < 5; ++i) {
    sim.Spawn(UseResource(&res, 100, &starts, &sim));
  }
  sim.Run();
  ASSERT_EQ(starts.size(), 5u);
  // Two run immediately, then one each time a slot frees (waves).
  EXPECT_EQ(starts[0], 0);
  EXPECT_EQ(starts[1], 0);
  EXPECT_EQ(starts[2], 100);
  EXPECT_EQ(starts[3], 100);
  EXPECT_EQ(starts[4], 200);
}

TEST(SimCore, ResourceCountsAreConsistent) {
  Simulator sim;
  Resource res(&sim, 3, "r");
  EXPECT_EQ(res.capacity(), 3);
  EXPECT_EQ(res.available(), 3);
  EXPECT_EQ(res.in_use(), 0);
}

Coro WaitFlag(Flag* flag, uint64_t threshold, TimeNs* when, Simulator* sim) {
  co_await flag->WaitGe(threshold);
  *when = sim->Now();
}

Coro SetFlagAt(Flag* flag, TimeNs t, uint64_t value) {
  co_await Delay{t};
  flag->Set(value);
}

TEST(SimCore, FlagWakesAtThreshold) {
  Simulator sim;
  Flag flag(&sim, "f");
  TimeNs woke = -1;
  sim.Spawn(WaitFlag(&flag, 3, &woke, &sim));
  sim.Spawn(SetFlagAt(&flag, 100, 1));
  sim.Spawn(SetFlagAt(&flag, 200, 3));
  sim.Run();
  EXPECT_EQ(woke, 200);
}

Coro WaitFlagLog(Flag* flag, uint64_t threshold, int tag,
                 std::vector<int>* log) {
  co_await flag->WaitGe(threshold);
  log->push_back(tag);
}

TEST(SimCore, FlagWakesSatisfiedWaitersInArrivalOrder) {
  Simulator sim;
  Flag flag(&sim, "f");
  std::vector<int> log;
  const uint64_t thresholds[] = {2, 1, 3, 1, 2, 3};
  for (int i = 0; i < 6; ++i) {
    sim.Spawn(WaitFlagLog(&flag, thresholds[i], i, &log));
  }
  sim.Spawn(SetFlagAt(&flag, 10, 2));
  std::vector<int> after_set;
  size_t parked = 0;
  sim.At(15, [&] {
    after_set = log;
    parked = flag.num_waiters();
    flag.Add(1);
  });
  sim.Run();
  EXPECT_EQ(after_set, (std::vector<int>{0, 1, 3, 4}));
  EXPECT_EQ(parked, 2u);  // the threshold-3 waiters, still in order
  EXPECT_EQ(log, (std::vector<int>{0, 1, 3, 4, 2, 5}));
  EXPECT_EQ(flag.num_waiters(), 0u);
}

TEST(SimCore, FlagIsMonotonic) {
  Simulator sim;
  Flag flag(&sim, "f");
  flag.Set(5);
  flag.Set(3);  // lower value ignored
  EXPECT_EQ(flag.value(), 5u);
  flag.Add(2);
  EXPECT_EQ(flag.value(), 7u);
}

Coro NeverWakes(Flag* flag) { co_await flag->WaitGe(1); }

TEST(SimCore, DeadlockIsDetectedAndNamed) {
  Simulator sim;
  Flag flag(&sim, "orphan_flag");
  sim.Spawn(NeverWakes(&flag));
  try {
    sim.Run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("orphan_flag"), std::string::npos);
  }
}

Coro SmallDelay(int* count) {
  co_await Delay{1};
  ++(*count);
}

TEST(SimCore, WhenAllJoinsAllChildren) {
  Simulator sim;
  int count = 0;
  auto parent = [](Simulator*, int* c) -> Coro {
    std::vector<Coro> children;
    for (int i = 0; i < 10; ++i) children.push_back(SmallDelay(c));
    co_await WhenAll(std::move(children));
    EXPECT_EQ(*c, 10);
  };
  sim.Spawn(parent(nullptr, &count));
  sim.Run();
  EXPECT_EQ(count, 10);
}

TEST(SimCore, DeterministicAcrossRuns) {
  auto run_once = []() {
    Simulator sim;
    Resource res(&sim, 3, "r");
    std::vector<TimeNs> starts;
    for (int i = 0; i < 20; ++i) {
      sim.Spawn(UseResource(&res, 37 + i, &starts, &sim));
    }
    sim.Run();
    return starts;
  };
  EXPECT_EQ(run_once(), run_once());
}

// Coroutine frames are pooled per thread; the pool must be handed back when
// its thread exits, or every short-lived worker thread (the autotuner starts
// fresh ones per rung) leaks all the frames it ever pooled.
TEST(SimCore, FramePoolFreedAtThreadExit) {
  const auto simulate_on_fresh_thread = [] {
    std::thread worker([] {
      Simulator sim;
      int count = 0;
      for (int i = 0; i < 20000; ++i) sim.Spawn(SmallDelay(&count));
      sim.Run();
      EXPECT_EQ(count, 20000);
    });
    worker.join();
  };
  simulate_on_fresh_thread();  // warm up allocator arenas and lazy statics
  const std::size_t before = mallinfo2().uordblks;
  for (int t = 0; t < 8; ++t) simulate_on_fresh_thread();
  const std::size_t after = mallinfo2().uordblks;
  // One thread pools ~20000 frames (> 1 MiB); eight leaked pools would
  // grow the heap by ~10 MiB.
  EXPECT_LT(after, before + (std::size_t{1} << 20))
      << "heap grew from " << before << " to " << after << " bytes";
}

}  // namespace
}  // namespace tilelink::sim
