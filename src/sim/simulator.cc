#include "sim/simulator.h"

#include <array>
#include <cstdlib>
#include <sstream>

#include "common/log.h"
#include "sim/trace.h"

// Coroutine frame pooling is a no-op under AddressSanitizer so freed frames
// stay poisoned and use-after-free on a frame is still caught.
#if defined(__SANITIZE_ADDRESS__)
#define TILELINK_FRAME_POOL_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TILELINK_FRAME_POOL_DISABLED 1
#endif
#endif

namespace tilelink::sim {

#ifndef TILELINK_FRAME_POOL_DISABLED
namespace {

// Size-bucketed free lists for coroutine frames (64-byte granularity, frames
// up to 2 KiB pooled; larger ones fall through to the global allocator).
// The simulator spawns millions of short-lived activity frames of only a
// handful of distinct sizes, so steady state allocates nothing. Pooled
// memory is returned when the thread exits: the autotuner starts fresh
// worker threads for every rung, so a pool that outlived its thread would
// leak every frame it held.
constexpr std::size_t kFrameGranularity = 64;
constexpr std::size_t kFrameBuckets = 32;

struct FreeFrame {
  FreeFrame* next;
};

// Both trivially destructible, so they stay readable while other
// thread_local destructors run at thread exit.
thread_local std::array<FreeFrame*, kFrameBuckets> g_frame_pool = {};
enum class PoolState : unsigned char { kUnregistered, kLive, kGone };
thread_local PoolState g_pool_state = PoolState::kUnregistered;

// Frees every pooled frame at thread exit; frames released after that go
// straight back to the global allocator.
struct PoolReaper {
  ~PoolReaper() {
    for (FreeFrame*& head : g_frame_pool) {
      while (head != nullptr) {
        FreeFrame* next = head->next;
        ::operator delete(head);
        head = next;
      }
    }
    g_pool_state = PoolState::kGone;
  }
};

inline std::size_t BucketOf(std::size_t size) {
  return (size + kFrameGranularity - 1) / kFrameGranularity;
}

}  // namespace
#endif  // TILELINK_FRAME_POOL_DISABLED

namespace {
thread_local std::uint64_t g_frames_allocated = 0;
}  // namespace

std::uint64_t FramesAllocated() noexcept { return g_frames_allocated; }

void* FramePoolAlloc(std::size_t size) {
  ++g_frames_allocated;
#ifndef TILELINK_FRAME_POOL_DISABLED
  const std::size_t bucket = BucketOf(size);
  if (bucket < kFrameBuckets) {
    if (FreeFrame* frame = g_frame_pool[bucket]; frame != nullptr) {
      g_frame_pool[bucket] = frame->next;
      return frame;
    }
    return ::operator new(bucket * kFrameGranularity);
  }
#endif
  return ::operator new(size);
}

void FramePoolFree(void* ptr, std::size_t size) noexcept {
#ifndef TILELINK_FRAME_POOL_DISABLED
  const std::size_t bucket = BucketOf(size);
  if (bucket < kFrameBuckets && g_pool_state != PoolState::kGone) {
    if (g_pool_state == PoolState::kUnregistered) {
      // First pooled frame on this thread: arm the exit-time reaper.
      static thread_local PoolReaper reaper;
      g_pool_state = PoolState::kLive;
    }
    auto* frame = static_cast<FreeFrame*>(ptr);
    frame->next = g_frame_pool[bucket];
    g_frame_pool[bucket] = frame;
    return;
  }
#endif
  ::operator delete(ptr);
}

std::coroutine_handle<> Coro::promise_type::FinalAwaiter::await_suspend(
    Coro::Handle h) noexcept {
  promise_type& p = h.promise();
  if (p.continuation) {
    return p.continuation;  // resume the awaiting parent at the same time
  }
  if (p.owned_by_sim && p.sim != nullptr) {
    p.sim->NotifyRootDone(h);  // simulator destroys the frame safely later
  }
  return std::noop_coroutine();
}

Simulator::Simulator() = default;

Simulator::~Simulator() {
  DestroyFinishedRoots();
  // Roots still suspended at teardown (e.g. after a DeadlockError) would
  // otherwise leak their frames: destroy them explicitly. Frame destruction
  // only runs local destructors — nothing is resumed.
  for (void* frame : live_root_frames_) {
    Coro::Handle::from_address(frame).destroy();
  }
  // Callables still queued at teardown own captures: destroy without running.
  while (!queue_.empty()) {
    const Event ev = queue_.top();
    queue_.pop();
    if (ev.callback) {
      auto* node = static_cast<CallbackNode*>(ev.payload);
      node->invoke(node, /*run=*/false);
    }
  }
}

void Simulator::Spawn(Coro coro, std::string name) {
  TL_CHECK(coro.valid());
  Coro::Handle h = coro.Release();
  h.promise().sim = this;
  h.promise().owned_by_sim = true;
  ++live_roots_;
  live_root_frames_.insert(h.address());
  ScheduleResume(now_, h);
  if (trace_ != nullptr && !name.empty()) {
    open_root_spans_.emplace(h.address(), OpenRootSpan{std::move(name), now_});
  }
}

void Simulator::ScheduleResume(TimeNs t, std::coroutine_handle<> h) {
  TL_CHECK_GE(t, now_);
  queue_.push(Event{t, next_seq_++, h.address(), /*callback=*/false});
}

void Simulator::NotifyRootDone(Coro::Handle h) {
  --live_roots_;
  live_root_frames_.erase(h.address());
  finished_roots_.push_back(h);
  if (trace_ != nullptr && !open_root_spans_.empty()) {
    auto it = open_root_spans_.find(h.address());
    if (it != open_root_spans_.end()) {
      trace_->AddSpan(trace_pid_, trace_->Track(trace_pid_, it->second.name),
                      it->second.name, it->second.start, now_, kCatTask);
      open_root_spans_.erase(it);
    }
  }
}

void Simulator::DestroyFinishedRoots() {
  // Pop before destroying: rethrowing a root's error must not leave the
  // already-destroyed handle in the list, or the destructor (and the next
  // Run) would touch a freed frame.
  while (!finished_roots_.empty()) {
    Coro::Handle h = finished_roots_.front();
    finished_roots_.erase(finished_roots_.begin());
    std::exception_ptr err = h.promise().error;
    h.destroy();
    if (err) std::rethrow_exception(err);
  }
}

void Simulator::Run() {
  const TimeNs run_start = now_;
  const uint64_t events_before = processed_events_;
  while (!queue_.empty()) {
    const Event ev = queue_.top();
    queue_.pop();
    TL_CHECK_GE(ev.t, now_);
    now_ = ev.t;
    floor_seq_ = ev.seq + 1;
    ++processed_events_;
    if (!ev.callback) {
      std::coroutine_handle<>::from_address(ev.payload).resume();
    } else {
      auto* node = static_cast<CallbackNode*>(ev.payload);
      node->invoke(node, /*run=*/true);
      FreeCallbackNode(node);
    }
    DestroyFinishedRoots();  // rethrows root errors promptly
  }
  if (live_roots_ > 0) {
    std::ostringstream os;
    os << "deadlock: event queue empty at t=" << now_ << "ns with "
       << live_roots_ << " live activities; blocked on:";
    for (const auto& [key, info] : blocked_) {
      os << "\n  - "
         << (info.describe != nullptr ? info.describe(info.ctx) : info.what);
    }
    throw DeadlockError(os.str(), now_);
  }
  if (trace_ != nullptr) {
    trace_->AddSpan(
        trace_pid_, trace_->Track(trace_pid_, "event-loop"), "run", run_start,
        now_, kCatTask,
        {TraceArg::Num("events",
                       static_cast<double>(processed_events_ - events_before)),
         TraceArg::Str("result", "drained")});
  }
}

void Simulator::RegisterBlocked(const void* key, std::string what) {
  blocked_[key] = BlockedInfo{std::move(what), nullptr, nullptr};
}

void Simulator::RegisterBlockedDynamic(const void* key, const void* ctx,
                                       std::string (*describe)(const void*)) {
  blocked_[key] = BlockedInfo{{}, describe, ctx};
}

void Simulator::UnregisterBlocked(const void* key) { blocked_.erase(key); }

void Delay::await_suspend(std::coroutine_handle<> h) {
  TL_CHECK_MSG(sim != nullptr, "Delay awaited outside a simulator coroutine");
  sim->ScheduleResume(sim->Now() + (ns < 0 ? 0 : ns), h);
}

}  // namespace tilelink::sim
