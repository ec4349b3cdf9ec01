#include "sim/network.h"

#include <algorithm>
#include <cmath>

#include "sim/trace.h"

namespace tilelink::sim {

namespace {

std::string RailLane(int rail) { return "rail" + std::to_string(rail); }

}  // namespace

void Network::NoteRetry() {
  stats_.retries++;
  if (TraceRecorder* t = Tracer()) {
    t->AddInstant(trace_pid_, t->Track(trace_pid_, "faults"), "fault.retry",
                  sim_->Now(),
                  {TraceArg::Num("retries", static_cast<double>(stats_.retries))});
  }
}

double Network::InflightBytes(int rail) const {
  double sum = 0;
  for (const auto& fp : flows_) {
    if (fp->rail == rail && fp->done.value() == 0) sum += fp->remaining_bytes;
  }
  return sum;
}

void Network::TraceRailCounter(int rail) {
  if (TraceRecorder* t = Tracer()) {
    t->AddCounter(trace_pid_, name_ + ".inflight_bytes", RailLane(rail),
                  sim_->Now(), InflightBytes(rail));
  }
}

Network::Network(Simulator* sim, int num_ports, double port_bw_gbps,
                 TimeNs latency_ns, std::string name)
    : sim_(sim), port_bw_(port_bw_gbps), latency_ns_(latency_ns),
      name_(std::move(name)) {
  TL_CHECK_GT(num_ports, 0);
  TL_CHECK_GT(port_bw_gbps, 0.0);
  egress_.resize(num_ports, Port{port_bw_gbps, 0, {0}, {1.0}});
  ingress_.resize(num_ports, Port{port_bw_gbps, 0, {0}, {1.0}});
}

void Network::ConfigureRails(int rails) {
  TL_CHECK_GT(rails, 0);
  TL_CHECK_EQ(active_flow_count(), 0);
  rails_ = rails;
  for (auto* side : {&egress_, &ingress_}) {
    for (Port& p : *side) {
      p.rail_flows.assign(rails, 0);
      p.rail_scale.assign(rails, 1.0);
    }
  }
}

void Network::SetRailScale(int port, int rail, double fraction) {
  TL_CHECK_GE(rail, 0);
  TL_CHECK_LT(rail, rails_);
  TL_CHECK_GE(fraction, 0.0);
  const int lo = port < 0 ? 0 : port;
  const int hi = port < 0 ? num_ports() : port + 1;
  TL_CHECK_LT(lo, num_ports());
  TL_CHECK_LE(hi, num_ports());
  for (int p = lo; p < hi; ++p) {
    egress_[p].rail_scale[rail] = fraction;
    ingress_[p].rail_scale[rail] = fraction;
  }
  rail_generation_++;
  if (TraceRecorder* t = Tracer()) {
    t->AddCounter(trace_pid_, name_ + ".rail_health", RailLane(rail),
                  sim_->Now(), fraction);
    t->AddInstant(trace_pid_, t->Track(trace_pid_, RailLane(rail)),
                  "rail_generation", sim_->Now(),
                  {TraceArg::Num("generation",
                                 static_cast<double>(rail_generation_)),
                   TraceArg::Num("port", port),
                   TraceArg::Num("fraction", fraction)});
  }
  Rebalance();
}

double Network::RailScale(int port, int rail) const {
  TL_CHECK_GE(port, 0);
  TL_CHECK_LT(port, num_ports());
  TL_CHECK_GE(rail, 0);
  TL_CHECK_LT(rail, rails_);
  return egress_[port].rail_scale[rail];
}

void Network::SetFaultPlan(const FaultPlan* plan) {
  plan_ = plan;
  if (plan == nullptr) return;
  edge_ordinal_.assign(
      static_cast<std::size_t>(num_ports()) * num_ports(), 0);
  for (const RailDegrade& d : plan->degrades()) {
    if (d.fabric != name_) continue;
    TL_CHECK_LT(d.rail, rails_);
    const TimeNs when = std::max(sim_->Now(), d.at);
    sim_->At(when, [this, d] { ApplyDegrade(d); });
  }
}

void Network::ApplyDegrade(const RailDegrade& d) {
  const int lo = d.port < 0 ? 0 : d.port;
  const int hi = d.port < 0 ? num_ports() : d.port + 1;
  for (int p = lo; p < hi; ++p) {
    egress_[p].rail_scale[d.rail] = d.fraction;
    ingress_[p].rail_scale[d.rail] = d.fraction;
  }
  rail_generation_++;
  if (TraceRecorder* t = Tracer()) {
    t->AddCounter(trace_pid_, name_ + ".rail_health", RailLane(d.rail),
                  sim_->Now(), d.fraction);
    t->AddInstant(
        trace_pid_, t->Track(trace_pid_, RailLane(d.rail)),
        d.fraction <= 0.0 ? "fault.rail_death" : "fault.rail_degrade",
        sim_->Now(),
        {TraceArg::Num("generation", static_cast<double>(rail_generation_)),
         TraceArg::Num("port", d.port),
         TraceArg::Num("fraction", d.fraction)});
  }
  Rebalance();
}

TimeNs Network::ExpectedFlowTime(uint64_t bytes) const {
  // One rail's serial share: rails_ x the bytes-over-port time.
  return latency_ns_ +
         static_cast<TimeNs>(std::ceil(
             static_cast<double>(bytes) * rails_ / port_bw_));
}

int Network::PickRail(int src, int dst) const {
  int best = -1;
  int best_load = 0;
  for (int r = 0; r < rails_; ++r) {
    if (egress_[src].rail_scale[r] <= 0.0 ||
        ingress_[dst].rail_scale[r] <= 0.0) {
      continue;
    }
    const int load = egress_[src].rail_flows[r] + ingress_[dst].rail_flows[r];
    if (best < 0 || load < best_load) {
      best = r;
      best_load = load;
    }
  }
  return best < 0 ? 0 : best;
}

Coro Network::Transfer(int src, int dst, uint64_t bytes) {
  if (plan_ == nullptr || !plan_->PerturbsFabric(name_)) {
    TransferOutcome out;
    co_await TryTransfer(src, dst, bytes, TransferOpts{}, &out);
    co_return;
  }
  const RetryPolicy& rp = plan_->retry();
  TransferOpts opts;
  opts.ack_timeout = static_cast<TimeNs>(
      rp.timeout_factor * static_cast<double>(ExpectedFlowTime(bytes)));
  const TimeNs backoff =
      rp.backoff_base > 0 ? rp.backoff_base : std::max<TimeNs>(1, latency_ns_);
  for (int attempt = 0;; ++attempt) {
    TransferOutcome out;
    co_await TryTransfer(src, dst, bytes, opts, &out);
    if (out.delivered) co_return;
    if (attempt >= rp.max_retries) {
      throw FaultError(name_ + ".transfer", src,
                       static_cast<int64_t>(out.ordinal), attempt + 1,
                       out.timed_out ? "ack timeout" : "chunk dropped");
    }
    NoteRetry();
    co_await Delay{backoff << std::min(attempt, 10)};
  }
}

Coro Network::TryTransfer(int src, int dst, uint64_t bytes, TransferOpts opts,
                          TransferOutcome* out) {
  TL_CHECK_GE(src, 0);
  TL_CHECK_LT(src, num_ports());
  TL_CHECK_GE(dst, 0);
  TL_CHECK_LT(dst, num_ports());
  TL_CHECK(out != nullptr);
  *out = TransferOutcome{};
  total_bytes_ += bytes;
  if (bytes == 0) {
    co_await Delay{latency_ns_};
    co_return;
  }
  if (src == dst) {
    // Local copy: no fabric contention, HBM-class bandwidth, no faults.
    TimeNs t = static_cast<TimeNs>(
        std::ceil(static_cast<double>(bytes) / local_copy_bw_));
    co_await Delay{latency_ns_ + t};
    co_return;
  }
  TransientFault fate;
  if (plan_ != nullptr) {
    uint64_t& ord = edge_ordinal_[static_cast<std::size_t>(src) * num_ports() +
                                  dst];
    out->ordinal = ord++;
    fate = plan_->OnTransfer(name_, src, dst, out->ordinal);
  }
  const TimeNs start = sim_->Now();
  co_await Delay{latency_ns_};
  const uint64_t id = next_flow_id_++;
  flows_.push_back(std::make_unique<Flow>(sim_, id, src, dst,
                                          static_cast<double>(bytes)));
  Flow& flow = *flows_.back();
  flow.last_update = sim_->Now();
  flow.rail = opts.rail >= 0 ? opts.rail : PickRail(src, dst);
  TL_CHECK_LT(flow.rail, rails_);
  out->rail = flow.rail;
  if (opts.ack_timeout > 0) {
    // Flow ids are never reused, so a timer outliving its flow is inert.
    sim_->At(sim_->Now() + opts.ack_timeout, [this, id] {
      auto it = FindFlow(id);
      if (it == flows_.end()) return;
      Flow& f = **it;
      if (f.done.value() > 0) return;  // completed, awaiting pickup
      f.timed_out = true;
      f.pending = false;
      ++pickups_;
      stats_.timeouts++;
      if (TraceRecorder* t = Tracer()) {
        t->AddInstant(trace_pid_, t->Track(trace_pid_, RailLane(f.rail)),
                      "fault.timeout", sim_->Now(),
                      {TraceArg::Num("src", f.src), TraceArg::Num("dst", f.dst),
                       TraceArg::Num("rail", f.rail)});
      }
      f.done.Set(1);
    });
  }
  AddFlow(flow);
  const TimeNs wire_start = sim_->Now();
  co_await flow.done.WaitGe(1);
  const bool timed_out = flow.timed_out;
  const int rail_used = flow.rail;
  RemoveFlow(id);
  if (TraceRecorder* t = Tracer()) {
    t->AddSpan(trace_pid_, t->Track(trace_pid_, RailLane(rail_used)),
               name_ + ".xfer", wire_start, sim_->Now(), kCatWire,
               {TraceArg::Num("bytes", static_cast<double>(bytes)),
                TraceArg::Num("src", src), TraceArg::Num("dst", dst),
                TraceArg::Num("rail", rail_used),
                TraceArg::Num("delivered", timed_out ? 0 : 1)});
  }
  if (timed_out) {
    out->delivered = false;
    out->timed_out = true;
    co_return;
  }
  if (fate.latency_mult > 1.0) {
    // Straggler: bill the extra fraction of the observed duration.
    const double elapsed = static_cast<double>(sim_->Now() - start);
    stats_.spikes++;
    if (TraceRecorder* t = Tracer()) {
      t->AddInstant(trace_pid_, t->Track(trace_pid_, RailLane(rail_used)),
                    "fault.spike", sim_->Now(),
                    {TraceArg::Num("src", src), TraceArg::Num("dst", dst),
                     TraceArg::Num("latency_mult", fate.latency_mult)});
    }
    co_await Delay{static_cast<TimeNs>(
        std::ceil((fate.latency_mult - 1.0) * elapsed))};
  }
  if (fate.drop) {
    // Wire time was billed, but delivery failed.
    stats_.drops++;
    if (TraceRecorder* t = Tracer()) {
      t->AddInstant(trace_pid_, t->Track(trace_pid_, RailLane(rail_used)),
                    "fault.drop", sim_->Now(),
                    {TraceArg::Num("src", src), TraceArg::Num("dst", dst),
                     TraceArg::Num("rail", rail_used)});
    }
    out->delivered = false;
  }
}

Network::FlowTable::const_iterator Network::FindFlow(uint64_t id) const {
  auto it = std::lower_bound(
      flows_.begin(), flows_.end(), id,
      [](const std::unique_ptr<Flow>& f, uint64_t v) { return f->id < v; });
  return it != flows_.end() && (*it)->id == id ? it : flows_.end();
}

void Network::AddFlow(Flow& f) {
  egress_[f.src].active_flows++;
  ingress_[f.dst].active_flows++;
  egress_[f.src].rail_flows[f.rail]++;
  ingress_[f.dst].rail_flows[f.rail]++;
  Rebalance();
  TraceRailCounter(f.rail);
}

void Network::RemoveFlow(uint64_t id) {
  auto it = FindFlow(id);
  TL_CHECK(it != flows_.end());
  Flow& f = **it;
  egress_[f.src].active_flows--;
  ingress_[f.dst].active_flows--;
  egress_[f.src].rail_flows[f.rail]--;
  ingress_[f.dst].rail_flows[f.rail]--;
  TL_CHECK_GE(egress_[f.src].active_flows, 0);
  TL_CHECK_GE(ingress_[f.dst].active_flows, 0);
  TL_CHECK_GE(egress_[f.src].rail_flows[f.rail], 0);
  TL_CHECK_GE(ingress_[f.dst].rail_flows[f.rail], 0);
  const int rail = f.rail;
  flows_.erase(it);
  --pickups_;
  Rebalance();
  TraceRailCounter(rail);
}

void Network::Rebalance() {
  ++wake_stats_.rebalances;
  const TimeNs now = sim_->Now();
  const Flow* first = nullptr;
  for (const auto& fp : flows_) {
    Flow& f = *fp;
    if (f.done.value() > 0) continue;  // completed, awaiting pickup
    // Progress under the old rate.
    f.remaining_bytes -= f.rate * static_cast<double>(now - f.last_update);
    f.remaining_bytes = std::max(f.remaining_bytes, 0.0);
    f.last_update = now;
    // With one healthy rail this is bitwise the flat bw/flows share.
    const Port& ep = egress_[f.src];
    const Port& ip = ingress_[f.dst];
    const double eg = (ep.bw_bytes_per_ns / rails_) * ep.rail_scale[f.rail] /
                      std::max(1, ep.rail_flows[f.rail]);
    const double in = (ip.bw_bytes_per_ns / rails_) * ip.rail_scale[f.rail] /
                      std::max(1, ip.rail_flows[f.rail]);
    f.rate = std::min(eg, in);
    KeyCompletion(f);
    if (f.pending &&
        (first == nullptr || f.KeyBefore(first->eta, first->seq))) {
      first = &f;
    }
  }
  Arm(first);
}

void Network::KeyCompletion(Flow& f) {
  f.pending = f.rate > 0.0;
  if (!f.pending) return;  // dead rail: park until rescale or ack timeout
  f.eta = sim_->Now() + std::max<TimeNs>(1, static_cast<TimeNs>(std::ceil(
                            f.remaining_bytes / f.rate)));
  f.seq = sim_->ReserveSeq();
}

void Network::Arm(const Flow* first) {
  if (first == nullptr) return;
  // A flow awaiting pickup is removed, and every key re-reserved, before
  // simulated time moves on, so only a key due this very ns needs a wake.
  if (pickups_ > 0 && first->eta > sim_->Now()) return;
  // Minimum moved later (or stayed): the armed wake fires first and re-arms.
  if (armed_ && !first->KeyBefore(armed_t_, armed_seq_)) return;
  armed_ = true;
  armed_t_ = first->eta;
  armed_seq_ = first->seq;
  const uint64_t wake_id = ++wake_id_;
  sim_->AtSeq(armed_t_, armed_seq_, [this, wake_id] { OnWake(wake_id); });
}

void Network::OnWake(uint64_t wake_id) {
  ++wake_stats_.wakes;
  if (wake_id != wake_id_) {
    ++wake_stats_.superseded;
    return;
  }
  armed_ = false;
  // One scan: the flow keyed at the armed seq (seqs are unique) and the
  // first key among the rest.
  Flow* due = nullptr;
  const Flow* next = nullptr;
  for (const auto& fp : flows_) {
    if (!fp->pending) continue;
    if (fp->seq == armed_seq_) {
      due = fp.get();
    } else if (next == nullptr || fp->KeyBefore(next->eta, next->seq)) {
      next = fp.get();
    }
  }
  if (due == nullptr) {
    // The flow keyed here was re-keyed, retired or timed out since arming.
    ++wake_stats_.lazy_rearms;
    Arm(next);
    return;
  }
  Flow& f = *due;
  const TimeNs now = sim_->Now();
  f.remaining_bytes -= f.rate * static_cast<double>(now - f.last_update);
  f.last_update = now;
  if (f.remaining_bytes <= 0.5) {
    f.remaining_bytes = 0.0;
    f.pending = false;
    ++pickups_;
    ++wake_stats_.completions;
    // The waiting coroutine wakes at this same timestamp and calls
    // RemoveFlow, which frees the ports and rebalances; the port is "busy"
    // for zero simulated time after completion.
    f.done.Set(1);
  } else {
    KeyCompletion(f);  // float residue: try again under the same rate
    if (next == nullptr || f.KeyBefore(next->eta, next->seq)) next = &f;
  }
  Arm(next);
}

}  // namespace tilelink::sim
