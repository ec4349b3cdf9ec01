// Unit tests for the discrete-event simulator core: event ordering,
// coroutine composition, FIFO resources, flags, deadlock detection, and
// the coroutine frame pool's lifetime.
#include <gtest/gtest.h>
#include <malloc.h>

#include <thread>
#include <vector>

#include "sim/coro.h"
#include "sim/coro_utils.h"
#include "sim/flag.h"
#include "sim/resource.h"
#include "sim/simulator.h"

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
