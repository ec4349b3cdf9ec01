// Microbenchmarks of the simulator substrate itself: event-loop throughput,
// host-callback scheduling, resource contention, network flows, and an
// end-to-end overlapped kernel (wall-clock cost of simulating one AG+GEMM).
// Built on the vendored harness in bench/microbench.h (Google Benchmark API
// subset) so it always compiles without external dependencies.
#include "bench/microbench.h"

#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "comm/collectives.h"
#include "sim/flag.h"
#include "sim/network.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "tilelink/kernels/ag_gemm.h"

namespace tilelink {
namespace {

sim::Coro Ping(sim::TimeNs step, int count) {
  for (int i = 0; i < count; ++i) {
    co_await sim::Delay{step};
  }
}

void BM_EventLoop(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    s.Spawn(Ping(10, events));
    s.Run();
    benchmark::DoNotOptimize(s.processed_events());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventLoop)->Arg(1000)->Arg(100000);

// Aggregate event throughput of N independent simulators on N threads —
// the execution shape of the parallel autotuner (one private World per
// worker, zero shared mutable state). items/s is the *aggregate* events/s
// across all threads, directly comparable to the single-thread BM_EventLoop
// baseline; near-linear scaling here means candidate evaluation shards
// without the simulators contending on anything.
void BM_EventLoopThreaded(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr int kEvents = 100000;
  for (auto _ : state) {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(threads - 1));
    for (int t = 1; t < threads; ++t) {
      pool.emplace_back([] {
        sim::Simulator s;
        s.Spawn(Ping(10, kEvents));
        s.Run();
        benchmark::DoNotOptimize(s.processed_events());
      });
    }
    sim::Simulator s;
    s.Spawn(Ping(10, kEvents));
    s.Run();
    for (std::thread& th : pool) th.join();
    benchmark::DoNotOptimize(s.processed_events());
  }
  state.SetItemsProcessed(state.iterations() * threads * kEvents);
}
BENCHMARK(BM_EventLoopThreaded)->Arg(1)->Arg(2)->Arg(8);

void BM_HostCallbacks(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    uint64_t sum = 0;
    for (int i = 0; i < events; ++i) {
      s.At(i, [&sum, i] { sum += static_cast<uint64_t>(i); });
    }
    s.Run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_HostCallbacks)->Arg(1000)->Arg(100000);

sim::Coro UseRes(sim::Resource* res) {
  co_await res->Acquire();
  co_await sim::Delay{5};
  res->Release();
}

void BM_ResourceContention(benchmark::State& state) {
  const int waiters = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    sim::Resource res(&s, 4, "r");
    for (int i = 0; i < waiters; ++i) s.Spawn(UseRes(&res));
    s.Run();
  }
  state.SetItemsProcessed(state.iterations() * waiters);
}
BENCHMARK(BM_ResourceContention)->Arg(128)->Arg(4096);

sim::Coro OneFlow(sim::Network* net, int src, int dst) {
  co_await net->Transfer(src, dst, 1 << 20);
}

void BM_NetworkFlows(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    sim::Network net(&s, 8, 150.0, 2200, "nvl");
    for (int i = 0; i < flows; ++i) {
      s.Spawn(OneFlow(&net, i % 8, (i + 1) % 8));
    }
    s.Run();
    // Completion wakes popped per transfer (1.0 is one wake per flow).
    state.counters["wakes_per_flow"] =
        static_cast<double>(net.wake_stats().wakes) / flows;
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_NetworkFlows)->Arg(64)->Arg(512);

void BM_SimulateAgGemmMlp1(benchmark::State& state) {
  for (auto _ : state) {
    rt::World world(sim::MachineSpec::H800x8(), rt::ExecMode::kTimingOnly);
    tl::AgGemmConfig cfg;
    cfg.m = 8192;
    cfg.k = 4096;
    cfg.n = 11008 / 8;
    cfg.gemm = bench::CoarseTiling(cfg.k);
    cfg.channels_per_rank = 4;
    cfg.comm = tl::CommResource::kDma;
    tl::AgGemm kernel(world, cfg);
    const uint64_t frames0 = sim::FramesAllocated();
    const sim::TimeNs t = world.RunSpmd(
        [&](rt::RankCtx& ctx) -> sim::Coro { co_await kernel.Run(ctx); });
    benchmark::DoNotOptimize(t);
    const auto events = static_cast<double>(world.sim().processed_events());
    state.counters["sim_ms"] = static_cast<double>(t) / 1e6;
    state.counters["events"] = events;
    // Coroutine frames per simulated event (CI stage 4 gates <= 0.5).
    state.counters["frames_per_event"] =
        static_cast<double>(sim::FramesAllocated() - frames0) / events;
  }
}
BENCHMARK(BM_SimulateAgGemmMlp1)->Unit(benchmark::kMillisecond);

void BM_SimulateAllGather8(benchmark::State& state) {
  for (auto _ : state) {
    rt::World world(sim::MachineSpec::H800x8(), rt::ExecMode::kTimingOnly);
    comm::SymTensor shards, outs;
    for (int r = 0; r < 8; ++r) {
      shards.push_back(Tensor::Alloc(world.device(r), "s", {1024, 4096},
                                     DType::kBF16));
      outs.push_back(Tensor::Alloc(world.device(r), "o", {8192, 4096},
                                   DType::kBF16));
    }
    const sim::TimeNs t =
        world.RunSpmd([&](rt::RankCtx& ctx) -> sim::Coro {
          co_await comm::AllGather(ctx, shards, outs);
        });
    benchmark::DoNotOptimize(t);
    state.counters["sim_ms"] = static_cast<double>(t) / 1e6;
  }
}
BENCHMARK(BM_SimulateAllGather8)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tilelink

BENCHMARK_MAIN();
