// Flow-level interconnect model.
//
// Each device exposes one egress port and one ingress port per fabric
// (intra-node NVLink-class, inter-node NIC-class). A transfer is a flow from
// (src egress) to (dst ingress); at any instant a flow's rate is
//   min(egress_bw / flows_on_egress, ingress_bw / flows_on_ingress)
// — a deterministic approximation of max-min fair sharing that captures the
// contention effects that matter for overlap studies: concurrent pulls from
// one producer halve each puller's rate, ring transfers run at full port
// bandwidth, and all-to-all traffic divides ingress bandwidth.
//
// Ports can optionally be split into `rails` (ConfigureRails): each rail
// owns an equal 1/rails share of the port bandwidth, scaled by a per-rail
// health factor in [0, 1], and flows contend only within their rail. With
// the default single healthy rail the arithmetic reduces bitwise to the flat
// model. A FaultPlan (sim/fault.h) can drop or straggle individual transfer
// attempts and kill or degrade rails at a simulated time; `TryTransfer`
// reports delivery instead of throwing so callers own the retry policy,
// while the legacy `Transfer` wraps it in the plan's bounded-retry loop.
//
// Rates are recomputed, and every flow's progress advanced, whenever the
// flow set or a rail's health changes. Each pending flow then holds one
// completion key (eta, seq), and the fabric keeps ONE armed simulator wake
// at the smallest key. The seq is reserved (Simulator::ReserveSeq) exactly
// where a per-flow completion event used to be pushed, so the wake runs at
// the very position in the event order that flow's own event would have,
// and makespans stay bitwise identical to the one-event-per-flow model
// while the queue carries about one network event per transfer instead of
// one per flow per rebalance. The wake is re-armed at once only when the
// minimum key moves earlier; when it moves later, the armed wake fires
// early, finds no flow due, and re-arms at the true minimum. A flow that
// completes is picked up (RemoveFlow, which re-keys every flow) in the same
// ns, so while one awaits pickup only a key due in that ns needs arming.
// Flows are looked up by id (never reused), so a timer outliving its flow is
// inert.
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "sim/fault.h"
#include "sim/flag.h"
#include "sim/simulator.h"

namespace tilelink::sim {

// One directional port with fixed bandwidth (bytes per nanosecond, which is
// numerically GB/s), split across rails; each rail's share is divided
// equally among its active flows.
struct Port {
  double bw_bytes_per_ns = 0.0;
  int active_flows = 0;                  // across all rails (diagnostics)
  std::vector<int> rail_flows = {0};     // active flows per rail
  std::vector<double> rail_scale = {1.0};  // health in [0, 1] per rail
};

// Completion-wake bookkeeping (plain counters, always on).
struct WakeStats {
  uint64_t rebalances = 0;   // Rebalance() runs: flow joins/leaves, rescales
  uint64_t wakes = 0;        // wake events popped, superseded ones included
  uint64_t superseded = 0;   // popped after an earlier-keyed wake replaced it
  uint64_t lazy_rearms = 0;  // live wakes that found no flow due and re-armed
  uint64_t completions = 0;  // wakes that completed a flow
};

// Per-attempt knobs for TryTransfer.
struct TransferOpts {
  int rail = -1;           // -1: pick the least-loaded live rail
  TimeNs ack_timeout = 0;  // >0: abandon the attempt after this long
};

// What happened to one attempt.
struct TransferOutcome {
  bool delivered = true;
  bool timed_out = false;
  int rail = 0;
  uint64_t ordinal = 0;  // per-edge attempt ordinal (0 when no plan attached)
};

class Network {
 public:
  // latency_ns is the per-message wire latency added before bytes flow.
  Network(Simulator* sim, int num_ports, double port_bw_gbps,
          TimeNs latency_ns, std::string name);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  int num_ports() const { return static_cast<int>(egress_.size()); }
  TimeNs latency() const { return latency_ns_; }
  double port_bandwidth_gbps() const { return port_bw_; }
  const std::string& name() const { return name_; }

  // Coroutine: completes when `bytes` have moved from src's egress port to
  // dst's ingress port. A src==dst transfer models a local HBM-to-HBM copy
  // at local_copy_bw_gbps (no port contention). When a fault plan perturbs
  // this fabric, failed attempts are retried under the plan's RetryPolicy
  // and exhaustion throws FaultError; otherwise this is a single attempt.
  Coro Transfer(int src, int dst, uint64_t bytes);

  // One attempt: applies the fault plan's transient fate for this attempt
  // and reports the outcome in *out instead of retrying or throwing.
  // Callers that need failover (link roles) build their policy on this.
  Coro TryTransfer(int src, int dst, uint64_t bytes, TransferOpts opts,
                   TransferOutcome* out);

  // --- rails ---

  // Split every port into `rails` equal-bandwidth rails (requires no active
  // flows). Resets all rail health to 1.
  void ConfigureRails(int rails);
  int rails() const { return rails_; }

  // Scale rail `rail` of `port` (-1: all ports) to `fraction` of its
  // bandwidth share, on both the egress and ingress side. Bumps the rail
  // health generation so schedulers know to re-plan.
  void SetRailScale(int port, int rail, double fraction);
  double RailScale(int port, int rail) const;
  uint64_t rail_generation() const { return rail_generation_; }

  // --- faults ---

  // Attach a read-only fault plan (caller keeps it alive). Schedules the
  // plan's rail degrades for this fabric onto the simulator clock.
  void SetFaultPlan(const FaultPlan* plan);
  const FaultPlan* fault_plan() const { return plan_; }
  const FaultStats& fault_stats() const { return stats_; }
  void NoteRetry();

  // --- tracing ---

  // Trace process id for this fabric's wire spans, per-rail counters and
  // fault instants (assigned by World::set_trace; -1 keeps the fabric
  // silent even when the simulator has a recorder).
  void set_trace_pid(int pid) { trace_pid_ = pid; }
  int trace_pid() const { return trace_pid_; }

  // Expected serial time of one transfer on a healthy rail: the ack-timeout
  // basis when no cost model is at hand.
  TimeNs ExpectedFlowTime(uint64_t bytes) const;

  void set_local_copy_bw_gbps(double gbps) { local_copy_bw_ = gbps; }

  // Total bytes ever moved (for tests/diagnostics).
  uint64_t total_bytes() const { return total_bytes_; }
  int active_flow_count() const { return static_cast<int>(flows_.size()); }
  const WakeStats& wake_stats() const { return wake_stats_; }

 private:
  struct Flow {
    uint64_t id;
    int src;
    int dst;
    double remaining_bytes;
    double rate = 0.0;       // bytes/ns
    TimeNs last_update = 0;  // when remaining_bytes was valid
    // Completion key while `pending` (rate > 0 and not done).
    TimeNs eta = 0;
    uint64_t seq = 0;
    bool pending = false;
    int rail = 0;
    bool timed_out = false;
    Flag done;
    Flow(Simulator* sim, uint64_t i, int s, int d, double bytes)
        : id(i), src(s), dst(d), remaining_bytes(bytes),
          done(sim, "flow.done") {}
    bool KeyBefore(TimeNs t, uint64_t s) const {
      return eta != t ? eta < t : seq < s;
    }
  };

  using FlowTable = std::vector<std::unique_ptr<Flow>>;

  // Binary search by id; end() when the flow is gone.
  FlowTable::const_iterator FindFlow(uint64_t id) const;
  void AddFlow(Flow& f);
  void RemoveFlow(uint64_t id);
  // The simulator's recorder when this fabric is trace-enabled, else null.
  TraceRecorder* Tracer() const {
    return trace_pid_ >= 0 ? sim_->trace() : nullptr;
  }
  // Sum of remaining bytes across active flows on one rail (trace only).
  double InflightBytes(int rail) const;
  void TraceRailCounter(int rail);
  // Advances progress of all flows to Now(), recomputes rates, re-keys
  // every pending flow and arms the wake.
  void Rebalance();
  // Reserves f's completion key under its current rate; a flow at rate 0
  // (dead rail) parks unkeyed until a rescale or its ack timeout.
  void KeyCompletion(Flow& f);
  // Arms the wake at `first`'s key when that is earlier than the armed one.
  void Arm(const Flow* first);
  // The wake: completes (or re-keys) the flow due at the armed key.
  void OnWake(uint64_t wake_id);
  // Least-loaded rail alive on both endpoints (tie: lowest index); rail 0
  // when every rail is dead (the flow parks; an ack-timeout recovers it).
  int PickRail(int src, int dst) const;
  void ApplyDegrade(const RailDegrade& d);

  Simulator* sim_;
  std::vector<Port> egress_;
  std::vector<Port> ingress_;
  double port_bw_;
  double local_copy_bw_ = 3000.0;  // ~HBM-class local copy
  TimeNs latency_ns_;
  std::string name_;
  FlowTable flows_;  // ascending id: determinism
  // The armed wake's key; a popped wake whose id is not wake_id_ was
  // superseded by an earlier-keyed one.
  bool armed_ = false;
  TimeNs armed_t_ = 0;
  uint64_t armed_seq_ = 0;
  uint64_t wake_id_ = 0;
  int pickups_ = 0;  // flows done and not yet removed by their waiter
  WakeStats wake_stats_;
  uint64_t next_flow_id_ = 0;
  uint64_t total_bytes_ = 0;
  int rails_ = 1;
  uint64_t rail_generation_ = 0;
  const FaultPlan* plan_ = nullptr;  // non-owning, read-only
  FaultStats stats_;
  std::vector<uint64_t> edge_ordinal_;  // src * num_ports + dst, plan only
  int trace_pid_ = -1;
};

}  // namespace tilelink::sim
