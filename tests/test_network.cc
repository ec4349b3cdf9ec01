// Tests for the flow-level interconnect: serial bandwidth, fair sharing,
// latency accounting, local copies, cross-fabric independence, World
// routing, stale completion keys, the one-wake-per-fabric completion
// schedule and its pinned golden timeline, rail splitting, and the
// deterministic fault layer (targeted drops/spikes, seeded transients, ack
// timeouts, rail death and failover).
#include <gtest/gtest.h>

#include <vector>

#include "runtime/world.h"
#include "sim/fault.h"
#include "sim/machine_spec.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace tilelink::sim {
namespace {

constexpr double kBw = 100.0;       // bytes/ns == GB/s
constexpr TimeNs kLatency = 1000;  // 1 us

Coro OneTransfer(Network* net, int src, int dst, uint64_t bytes,
                 TimeNs* done, Simulator* sim) {
  co_await net->Transfer(src, dst, bytes);
  *done = sim->Now();
}

TEST(Network, SingleFlowRunsAtPortBandwidth) {
  Simulator sim;
  Network net(&sim, 4, kBw, kLatency, "nvl");
  TimeNs done = 0;
  sim.Spawn(OneTransfer(&net, 0, 1, 100000, &done, &sim));
  sim.Run();
  // 100000 bytes at 100 B/ns = 1000 ns + latency.
  EXPECT_NEAR(static_cast<double>(done), 1000.0 + kLatency, 5.0);
}

TEST(Network, TwoFlowsShareIngressPort) {
  Simulator sim;
  Network net(&sim, 4, kBw, kLatency, "nvl");
  TimeNs d1 = 0, d2 = 0;
  sim.Spawn(OneTransfer(&net, 0, 2, 100000, &d1, &sim));
  sim.Spawn(OneTransfer(&net, 1, 2, 100000, &d2, &sim));
  sim.Run();
  // Both target port 2: each gets bw/2 -> ~2000 ns + latency.
  EXPECT_NEAR(static_cast<double>(d1), 2000.0 + kLatency, 10.0);
  EXPECT_NEAR(static_cast<double>(d2), 2000.0 + kLatency, 10.0);
}

TEST(Network, DisjointPairsDoNotInterfere) {
  Simulator sim;
  Network net(&sim, 4, kBw, kLatency, "nvl");
  TimeNs d1 = 0, d2 = 0;
  sim.Spawn(OneTransfer(&net, 0, 1, 100000, &d1, &sim));
  sim.Spawn(OneTransfer(&net, 2, 3, 100000, &d2, &sim));
  sim.Run();
  EXPECT_NEAR(static_cast<double>(d1), 1000.0 + kLatency, 5.0);
  EXPECT_NEAR(static_cast<double>(d2), 1000.0 + kLatency, 5.0);
}

Coro LateTransfer(Network* net, TimeNs start, int src, int dst,
                  uint64_t bytes, TimeNs* done, Simulator* sim) {
  co_await Delay{start};
  co_await net->Transfer(src, dst, bytes);
  *done = sim->Now();
}

TEST(Network, RatesRebalanceWhenFlowsJoinAndLeave) {
  Simulator sim;
  Network net(&sim, 4, kBw, /*latency=*/0, "nvl");
  TimeNs d1 = 0, d2 = 0;
  // Flow 1: 200000 bytes alone for 1000ns (100000 done), then shares.
  sim.Spawn(OneTransfer(&net, 0, 2, 200000, &d1, &sim));
  sim.Spawn(LateTransfer(&net, 1000, 1, 2, 50000, &d2, &sim));
  sim.Run();
  // After t=1000: flow1 has 100000 left at 50 B/ns -> would finish at 3000;
  // flow2 (50000 at 50 B/ns) finishes at 2000, then flow1 speeds up:
  // at t=2000 flow1 has 50000 left at full 100 -> finishes ~2500.
  EXPECT_NEAR(static_cast<double>(d2), 2000.0, 20.0);
  EXPECT_NEAR(static_cast<double>(d1), 2500.0, 20.0);
}

TEST(Network, ZeroByteTransferOnlyPaysLatency) {
  Simulator sim;
  Network net(&sim, 2, kBw, kLatency, "nvl");
  TimeNs done = 0;
  sim.Spawn(OneTransfer(&net, 0, 1, 0, &done, &sim));
  sim.Run();
  EXPECT_EQ(done, kLatency);
}

TEST(Network, LocalCopyUsesHbmBandwidth) {
  Simulator sim;
  Network net(&sim, 2, kBw, kLatency, "nvl");
  net.set_local_copy_bw_gbps(1000.0);
  TimeNs done = 0;
  sim.Spawn(OneTransfer(&net, 1, 1, 1000000, &done, &sim));
  sim.Run();
  // 1e6 bytes at 1000 B/ns = 1000ns + latency.
  EXPECT_NEAR(static_cast<double>(done), 1000.0 + kLatency, 5.0);
}

TEST(Network, TotalBytesAccounted) {
  Simulator sim;
  Network net(&sim, 4, kBw, kLatency, "nvl");
  TimeNs d = 0;
  sim.Spawn(OneTransfer(&net, 0, 1, 12345, &d, &sim));
  sim.Spawn(OneTransfer(&net, 2, 3, 55555, &d, &sim));
  sim.Run();
  EXPECT_EQ(net.total_bytes(), 12345u + 55555u);
  EXPECT_EQ(net.active_flow_count(), 0);
}

TEST(Network, CrossFabricFlowsDoNotContend) {
  // The two fabrics are separate Networks (as in World): max-min sharing
  // applies within a fabric, never across — concurrent NVLink and NIC flows
  // between the same device pair each run at their own port bandwidth.
  Simulator sim;
  Network nvlink(&sim, 4, kBw, /*latency=*/0, "nvl");
  Network nic(&sim, 4, kBw / 4, /*latency=*/0, "nic");
  TimeNs d_intra1 = 0, d_intra2 = 0, d_inter = 0;
  // Two intra flows share an ingress port; the inter flow is unaffected.
  sim.Spawn(OneTransfer(&nvlink, 0, 2, 100000, &d_intra1, &sim));
  sim.Spawn(OneTransfer(&nvlink, 1, 2, 100000, &d_intra2, &sim));
  sim.Spawn(OneTransfer(&nic, 0, 2, 100000, &d_inter, &sim));
  sim.Run();
  EXPECT_NEAR(static_cast<double>(d_intra1), 2000.0, 10.0);  // bw/2
  EXPECT_NEAR(static_cast<double>(d_intra2), 2000.0, 10.0);
  EXPECT_NEAR(static_cast<double>(d_inter), 4000.0, 10.0);  // nic bw, alone
}

TEST(Network, StaleCompletionEventsAreIgnored) {
  // Regression: flow A's completion is scheduled, then a joining flow slows
  // A (stale event #1 fires mid-flight), then the other flow finishes and A
  // speeds back up (stale event #2 fires after A's reschedule). A must
  // complete exactly once, at the rate-integrated time.
  Simulator sim;
  Network net(&sim, 4, kBw, /*latency=*/0, "nvl");
  TimeNs da = 0, db = 0;
  sim.Spawn(OneTransfer(&net, 0, 2, 300000, &da, &sim));       // A
  sim.Spawn(LateTransfer(&net, 1000, 1, 2, 50000, &db, &sim)); // B
  sim.Run();
  // A alone until t=1000 (100000 done, eta was 3000). Shared 50/50 until B
  // ends at t=2000 (A: +50000). A alone again: 150000 left at 100 B/ns ->
  // finishes at 3500, after both stale etas (3000 gen-1, 5000 gen-2).
  EXPECT_NEAR(static_cast<double>(db), 2000.0, 20.0);
  EXPECT_NEAR(static_cast<double>(da), 3500.0, 20.0);
  EXPECT_EQ(net.active_flow_count(), 0);
}

Coro OneMiB(Network* net, int src, int dst) {
  co_await net->Transfer(src, dst, 1 << 20);
}

TEST(Network, AboutOneWakePerTransfer) {
  // The BM_NetworkFlows/512 shape: 512 equal flows over 8 ports, all joining
  // in one ns. The fabric keeps one armed completion wake, so nearly every
  // wake completes a flow instead of one event per flow per rebalance.
  Simulator sim;
  Network net(&sim, 8, 150.0, 2200, "nvl");
  constexpr int kFlows = 512;
  for (int i = 0; i < kFlows; ++i) {
    sim.Spawn(OneMiB(&net, i % 8, (i + 1) % 8));
  }
  sim.Run();
  const WakeStats& w = net.wake_stats();
  EXPECT_EQ(w.rebalances, 2u * kFlows);  // one per join, one per leave
  EXPECT_EQ(w.completions, static_cast<uint64_t>(kFlows));
  EXPECT_LE(static_cast<double>(w.wakes), 1.1 * kFlows);
  EXPECT_LE(static_cast<double>(w.wakes - w.completions), 0.05 * w.wakes);
  EXPECT_LE(w.superseded + w.lazy_rearms, w.wakes - w.completions);
  EXPECT_EQ(net.active_flow_count(), 0);
}

TEST(World, TransferRoutesByNodeBoundary) {
  MachineSpec spec = MachineSpec::H800x8();
  spec.num_devices = 4;
  spec.devices_per_node = 2;  // nodes {0,1} and {2,3}
  rt::World world(spec, rt::ExecMode::kTimingOnly);
  EXPECT_EQ(&world.fabric_for(0, 1), &world.intra_fabric());
  EXPECT_EQ(&world.fabric_for(2, 3), &world.intra_fabric());
  EXPECT_EQ(&world.fabric_for(1, 2), &world.inter_fabric());
  EXPECT_EQ(&world.fabric_for(3, 0), &world.inter_fabric());
  world.sim().Spawn([](rt::World* w) -> Coro {
    co_await w->Transfer(0, 1, 1000);  // same node -> NVLink
    co_await w->Transfer(0, 2, 2000);  // cross node -> NIC
    co_await w->Transfer(3, 3, 4000);  // src == dst: local copy, same node
  }(&world));
  world.sim().Run();
  EXPECT_EQ(world.intra_fabric().total_bytes(), 1000u + 4000u);
  EXPECT_EQ(world.inter_fabric().total_bytes(), 2000u);
}

TEST(World, ConcurrentIntraAndInterTransfersOverlap) {
  MachineSpec spec = MachineSpec::H800x8();
  spec.num_devices = 4;
  spec.devices_per_node = 2;
  rt::World world(spec, rt::ExecMode::kTimingOnly);
  const uint64_t bytes = 64 << 20;
  TimeNs intra_done = 0, inter_done = 0;
  Simulator& sim = world.sim();
  sim.Spawn([](rt::World* w, uint64_t b, TimeNs* done) -> Coro {
    co_await w->Transfer(0, 1, b);
    *done = w->sim().Now();
  }(&world, bytes, &intra_done));
  sim.Spawn([](rt::World* w, uint64_t b, TimeNs* done) -> Coro {
    co_await w->Transfer(1, 3, b);
    *done = w->sim().Now();
  }(&world, bytes, &inter_done));
  sim.Run();
  // Device 1 is endpoint of both, yet neither slows the other: different
  // fabrics, different ports.
  const double b = static_cast<double>(bytes);
  EXPECT_NEAR(static_cast<double>(intra_done - spec.nvlink_latency),
              b / spec.nvlink_gbps, b / spec.nvlink_gbps * 0.01);
  EXPECT_NEAR(static_cast<double>(inter_done - spec.nic_latency),
              b / spec.nic_gbps, b / spec.nic_gbps * 0.01);
}

// ---------------------------------------------------------------------------
// Rails
// ---------------------------------------------------------------------------

Coro OneTry(Network* net, int src, int dst, uint64_t bytes, TransferOpts opts,
            TransferOutcome* out, TimeNs* done, Simulator* sim) {
  co_await net->TryTransfer(src, dst, bytes, opts, out);
  *done = sim->Now();
}

TEST(Rails, FlowsContendOnlyWithinTheirRail) {
  Simulator sim;
  Network net(&sim, 4, kBw, /*latency=*/0, "nic");
  net.ConfigureRails(2);
  // Two flows on the same egress port but different rails: each owns its
  // rail's bw/2 share, so both finish as if alone on half the port.
  TransferOutcome oa, ob;
  TimeNs da = 0, db = 0;
  TransferOpts rail0, rail1;
  rail0.rail = 0;
  rail1.rail = 1;
  sim.Spawn(OneTry(&net, 0, 1, 100000, rail0, &oa, &da, &sim));
  sim.Spawn(OneTry(&net, 0, 2, 100000, rail1, &ob, &db, &sim));
  sim.Run();
  EXPECT_NEAR(static_cast<double>(da), 2000.0, 5.0);  // 100000 / (100/2)
  EXPECT_NEAR(static_cast<double>(db), 2000.0, 5.0);
  EXPECT_EQ(oa.rail, 0);
  EXPECT_EQ(ob.rail, 1);

  // Same rail: they share the rail's bw/2.
  TimeNs dc = 0, dd = 0;
  TransferOutcome oc, od;
  sim.Spawn(OneTry(&net, 0, 1, 100000, rail0, &oc, &dc, &sim));
  sim.Spawn(OneTry(&net, 0, 2, 100000, rail0, &od, &dd, &sim));
  const TimeNs t0 = sim.Now();
  sim.Run();
  EXPECT_NEAR(static_cast<double>(dc - t0), 4000.0, 5.0);
  EXPECT_NEAR(static_cast<double>(dd - t0), 4000.0, 5.0);
}

TEST(Rails, AutoPickSpreadsAcrossLeastLoadedLiveRails) {
  Simulator sim;
  Network net(&sim, 2, kBw, /*latency=*/0, "nic");
  net.ConfigureRails(4);
  net.SetRailScale(/*port=*/-1, /*rail=*/2, 0.0);  // rail 2 dead up front
  EXPECT_EQ(net.rail_generation(), 1u);
  std::vector<TransferOutcome> outs(6);
  std::vector<TimeNs> done(6);
  for (int i = 0; i < 6; ++i) {
    sim.Spawn(OneTry(&net, 0, 1, 1000, TransferOpts{}, &outs[i], &done[i],
                     &sim));
  }
  sim.Run();
  int per_rail[4] = {0, 0, 0, 0};
  for (const TransferOutcome& o : outs) per_rail[o.rail]++;
  EXPECT_EQ(per_rail[0], 2);  // 6 flows over live rails {0, 1, 3}
  EXPECT_EQ(per_rail[1], 2);
  EXPECT_EQ(per_rail[2], 0);
  EXPECT_EQ(per_rail[3], 2);
}

// ---------------------------------------------------------------------------
// Faults
// ---------------------------------------------------------------------------

TEST(Faults, TargetedDropBillsWireButFailsDelivery) {
  Simulator sim;
  Network net(&sim, 2, kBw, kLatency, "nic");
  FaultPlan plan;
  plan.DropTransfer("nic", 0, 1, /*ordinal=*/0);
  net.SetFaultPlan(&plan);
  TransferOutcome o0, o1;
  TimeNs d0 = 0, d1 = 0;
  sim.Spawn([](Network* net, TransferOutcome* o0, TransferOutcome* o1,
               TimeNs* d0, TimeNs* d1, Simulator* sim) -> Coro {
    co_await net->TryTransfer(0, 1, 100000, TransferOpts{}, o0);
    *d0 = sim->Now();
    co_await net->TryTransfer(0, 1, 100000, TransferOpts{}, o1);
    *d1 = sim->Now();
  }(&net, &o0, &o1, &d0, &d1, &sim));
  sim.Run();
  EXPECT_FALSE(o0.delivered);  // ordinal 0 dropped...
  EXPECT_EQ(o0.ordinal, 0u);
  EXPECT_NEAR(static_cast<double>(d0), 1000.0 + kLatency, 5.0);  // wire billed
  EXPECT_TRUE(o1.delivered);  // ...retry carries ordinal 1, not re-dropped
  EXPECT_EQ(o1.ordinal, 1u);
  EXPECT_EQ(net.fault_stats().drops, 1u);
}

TEST(Faults, TransferWrapperRetriesDroppedChunks) {
  Simulator sim;
  Network net(&sim, 2, kBw, kLatency, "nic");
  FaultPlan plan;
  plan.DropTransfer("nic", 0, 1, 0);
  plan.DropTransfer("nic", 0, 1, 1);
  net.SetFaultPlan(&plan);
  TimeNs done = 0;
  sim.Spawn(OneTransfer(&net, 0, 1, 100000, &done, &sim));
  sim.Run();
  EXPECT_GT(done, 0);
  EXPECT_EQ(net.fault_stats().drops, 2u);
  EXPECT_EQ(net.fault_stats().retries, 2u);
}

TEST(Faults, ExhaustedRetriesRaiseNamedFaultError) {
  Simulator sim;
  Network net(&sim, 2, kBw, kLatency, "nic");
  FaultPlan plan;
  for (uint64_t ord = 0; ord < 8; ++ord) plan.DropTransfer("nic", 0, 1, ord);
  RetryPolicy rp;
  rp.max_retries = 2;
  plan.set_retry(rp);
  net.SetFaultPlan(&plan);
  TimeNs done = 0;
  sim.Spawn(OneTransfer(&net, 0, 1, 100000, &done, &sim));
  try {
    sim.Run();
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.role(), "nic.transfer");
    EXPECT_EQ(e.rank(), 0);
    EXPECT_EQ(e.attempts(), 3);  // 1 + max_retries
    EXPECT_NE(std::string(e.what()).find("chunk dropped"), std::string::npos);
  }
}

TEST(Faults, LatencySpikeBillsMultiplier) {
  Simulator sim;
  Network net(&sim, 2, kBw, kLatency, "nic");
  FaultPlan plan;
  plan.SpikeTransfer("nic", 0, 1, /*ordinal=*/0, /*mult=*/3.0);
  net.SetFaultPlan(&plan);
  TimeNs spiked = 0, clean = 0;
  sim.Spawn([](Network* net, TimeNs* spiked, TimeNs* clean,
               Simulator* sim) -> Coro {
    const TimeNs t0 = sim->Now();
    co_await net->Transfer(0, 1, 100000);
    *spiked = sim->Now() - t0;
    const TimeNs t1 = sim->Now();
    co_await net->Transfer(0, 1, 100000);
    *clean = sim->Now() - t1;
  }(&net, &spiked, &clean, &sim));
  sim.Run();
  EXPECT_NEAR(static_cast<double>(spiked), 3.0 * static_cast<double>(clean),
              5.0);
  EXPECT_EQ(net.fault_stats().spikes, 1u);
}

TEST(Faults, RailDeathParksFlowAndAckTimeoutRecovers) {
  Simulator sim;
  Network net(&sim, 2, kBw, /*latency=*/10, "nic");
  net.ConfigureRails(2);
  // Kill rail 0 mid-flight. The legacy Transfer wrapper picks rail 0 (least
  // loaded, tie-lowest), the flow parks at rate 0, the ack timeout fires,
  // and the retry lands on surviving rail 1.
  FaultPlan plan;
  plan.DegradeRail("nic", /*port=*/-1, /*rail=*/0, /*at=*/500,
                   /*fraction=*/0.0);
  net.SetFaultPlan(&plan);
  TimeNs done = 0;
  sim.Spawn(OneTransfer(&net, 0, 1, 100000, &done, &sim));
  sim.Run();
  EXPECT_GT(done, 0);
  EXPECT_GE(net.fault_stats().timeouts, 1u);
  EXPECT_GE(net.fault_stats().retries, 1u);
  EXPECT_EQ(net.RailScale(0, 0), 0.0);
  EXPECT_EQ(net.RailScale(0, 1), 1.0);
  EXPECT_EQ(net.active_flow_count(), 0);
}

TEST(Faults, IdenticalSeedsReplayIdenticalTimelines) {
  // Two independent simulators with the same seeded plan must produce
  // bit-identical completion times and fault counters; a different seed
  // must produce a different timeline.
  auto run = [](uint64_t seed, std::vector<TimeNs>* times) -> FaultStats {
    Simulator sim;
    Network net(&sim, 4, kBw, kLatency, "nic");
    FaultPlan plan;
    plan.RandomTransients("nic", seed, /*drop_prob=*/0.25,
                          /*spike_prob=*/0.25, /*spike_mult=*/2.0);
    net.SetFaultPlan(&plan);
    times->assign(16, 0);
    for (int i = 0; i < 16; ++i) {
      sim.Spawn(OneTransfer(&net, i % 3, 3, 50000, &(*times)[i], &sim));
    }
    sim.Run();
    return net.fault_stats();
  };
  std::vector<TimeNs> a, b, c;
  const FaultStats sa = run(42, &a);
  const FaultStats sb = run(42, &b);
  const FaultStats sc = run(43, &c);
  EXPECT_EQ(a, b);
  EXPECT_EQ(sa.drops, sb.drops);
  EXPECT_EQ(sa.spikes, sb.spikes);
  EXPECT_GT(sa.drops + sa.spikes, 0u);  // the mix actually injected faults
  EXPECT_GT(sc.drops + sc.spikes, 0u);
  EXPECT_NE(a, c);
}

Coro LateTry(Network* net, TimeNs start, int src, int dst, uint64_t bytes,
             TransferOpts opts, TransferOutcome* out, TimeNs* done,
             Simulator* sim) {
  co_await Delay{start};
  co_await net->TryTransfer(src, dst, bytes, opts, out);
  *done = sim->Now();
}

TEST(Network, GoldenCompletionTimesUnderChurn) {
  // Pins every flow's completion ns under heavy rate churn, so any change
  // to how completions are scheduled must reproduce the float progress
  // arithmetic and the event order exactly. Two rails; a seeded stream of
  // staggered joins on ports 0-2; an equal-size pair finishing in the same
  // ns; rail 1 degraded to half mid-flight; and rail 0 of port 3 killed
  // under a pinned flow that then ends in its ack timeout.
  Simulator sim;
  Network net(&sim, 4, kBw, /*latency=*/40, "nic");
  net.ConfigureRails(2);
  constexpr int kSeeded = 14;
  constexpr int kFlows = kSeeded + 3;
  std::vector<TimeNs> done(kFlows, -1);
  std::vector<TransferOutcome> outs(kFlows);
  // Equal-size pair on disjoint ports, done before any seeded join.
  sim.Spawn(LateTry(&net, 0, 0, 1, 30000, TransferOpts{}, &outs[0], &done[0],
                    &sim));
  sim.Spawn(LateTry(&net, 0, 1, 2, 30000, TransferOpts{}, &outs[1], &done[1],
                    &sim));
  // The rail-death victim: pinned to rail 0 through port 3.
  TransferOpts victim;
  victim.rail = 0;
  victim.ack_timeout = 6000;
  sim.Spawn(LateTry(&net, 900, 3, 0, 400000, victim, &outs[2], &done[2],
                    &sim));
  uint64_t state = 7;
  auto next = [&state] {
    state += 0x9E3779B97F4A7C15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  for (int i = 3; i < kFlows; ++i) {
    const TimeNs start = 700 + static_cast<TimeNs>(next() % 3000);
    const int src = static_cast<int>(next() % 3);
    const int dst = (src + 1 + static_cast<int>(next() % 2)) % 3;
    const uint64_t bytes = 20000 + (next() % 8) * 5000;
    sim.Spawn(LateTry(&net, start, src, dst, bytes, TransferOpts{}, &outs[i],
                      &done[i], &sim));
  }
  sim.At(1700, [&net] { net.SetRailScale(/*port=*/-1, /*rail=*/1, 0.5); });
  sim.At(2500, [&net] { net.SetRailScale(/*port=*/3, /*rail=*/0, 0.0); });
  sim.Run();

  EXPECT_EQ(done[0], done[1]);
  // Pinned from the one-completion-event-per-flow model; never re-pin.
  const std::vector<TimeNs> golden = {640,  640,  6940, 4798, 7500, 3994,
                                      2530, 2467, 5326, 5320, 3675, 3108,
                                      2804, 5173, 3742, 6078, 7052};
  EXPECT_EQ(done, golden);
  std::vector<int> rails, timed_out;
  for (const TransferOutcome& o : outs) {
    rails.push_back(o.rail);
    timed_out.push_back(o.timed_out ? 1 : 0);
  }
  EXPECT_EQ(rails, (std::vector<int>{0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1, 0, 0,
                                     1, 0, 1, 1}));
  EXPECT_EQ(timed_out, (std::vector<int>{0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                         0, 0, 0, 0, 0}));
  EXPECT_EQ(net.fault_stats().timeouts, 1u);
  EXPECT_EQ(net.active_flow_count(), 0);
}

}  // namespace
}  // namespace tilelink::sim
