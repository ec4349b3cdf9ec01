// Deterministic single-threaded discrete-event simulator.
//
// The simulator owns a priority queue of events ordered by (time, sequence).
// Events are either coroutine resumptions or plain callbacks. Determinism:
// ties in time break by sequence number (taken at insertion, or reserved
// earlier with ReserveSeq), and all state mutation happens on the single
// event loop, so a given program produces bit-identical timing and numerics
// on every run.
//
// Hot path: an Event is a trivially-copyable 32-byte record whose payload is
// either a coroutine frame address or a pointer to a pooled CallbackNode
// (small-buffer storage for the callable), so priority-queue sifts are
// memcpy-speed and scheduling a callback never touches the heap after the
// node pool warms up. Coroutine frames are also pooled (see FramePoolAlloc
// in coro.h) — the autotuner runs thousands of short simulations per search,
// so allocation churn dominates without these.
#pragma once

#include <coroutine>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <new>
#include <queue>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/coro.h"
#include "sim/time.h"

namespace tilelink::sim {

class TraceRecorder;

// Thrown by Run() when the event queue drains while spawned activities are
// still blocked (a lost-wakeup / miswired-channel bug in the simulated
// program). The message records the simulated time of the stall and lists
// what each blocked activity was waiting for — for flag waits, the awaited
// threshold against the last published value.
class DeadlockError : public tilelink::Error {
 public:
  explicit DeadlockError(const std::string& what, TimeNs stall_time = 0)
      : Error(what), stall_time_(stall_time) {}

  // Simulated time at which the event queue drained.
  TimeNs stall_time() const { return stall_time_; }

 private:
  TimeNs stall_time_;
};

class Simulator {
 private:
  // Pooled storage for one scheduled callback. The callable lives in the
  // inline buffer (or, when larger, in one boxed heap allocation the node
  // points to); `invoke` moves it out, destroys the stored copy and — when
  // `run` — calls it. Nodes are recycled through a free list.
  struct CallbackNode {
    static constexpr std::size_t kInlineBytes = 48;
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];
    void (*invoke)(CallbackNode*, bool run) = nullptr;
    CallbackNode* next_free = nullptr;
  };

  // Trivially copyable: payload is a coroutine frame address (callback ==
  // false) or a CallbackNode* (callback == true).
  struct Event {
    TimeNs t;
    uint64_t seq;
    void* payload;
    bool callback;
  };
  static_assert(std::is_trivially_copyable_v<Event>);

 public:
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeNs Now() const { return now_; }

  // Spawns a root coroutine; the simulator owns and destroys its frame.
  void Spawn(Coro coro, std::string name = "");

  // Schedules a plain callback at absolute time t (>= Now()).
  template <typename F>
  void At(TimeNs t, F&& fn) {
    TL_CHECK_GE(t, now_);
    queue_.push(Event{t, next_seq_++, MakeCallback(std::forward<F>(fn)),
                      /*callback=*/true});
  }
  template <typename F>
  void After(TimeNs delta, F&& fn) {
    At(now_ + delta, std::forward<F>(fn));
  }

  // Takes the next sequence number without scheduling anything. The queue
  // orders by (time, seq) alone, so a callback pushed later with AtSeq under
  // a reserved seq runs exactly where an At made at the reservation point
  // would have, and a reservation that is never scheduled disturbs nothing.
  uint64_t ReserveSeq() { return next_seq_++; }

  // Schedules a callback at key (t, seq), where seq came from ReserveSeq().
  // The key must not be in the past: t >= Now(), and at t == Now() seq must
  // come after the event being run.
  template <typename F>
  void AtSeq(TimeNs t, uint64_t seq, F&& fn) {
    TL_CHECK_LT(seq, next_seq_);
    TL_CHECK_GE(t, now_);
    TL_CHECK(t > now_ || seq >= floor_seq_);
    queue_.push(
        Event{t, seq, MakeCallback(std::forward<F>(fn)), /*callback=*/true});
  }

  // Schedules a coroutine resumption at absolute time t.
  void ScheduleResume(TimeNs t, std::coroutine_handle<> h);

  // Runs until the event queue is empty. Throws the first exception escaping
  // a root coroutine; throws DeadlockError if activities remain blocked.
  void Run();

  // Number of root coroutines spawned and still running.
  int live_roots() const { return live_roots_; }
  uint64_t processed_events() const { return processed_events_; }

  // Blocked-activity registry for deadlock diagnostics. Awaitables register
  // a description keyed by their own address while a coroutine is parked —
  // either an eager string, or (hot path) a describe function evaluated
  // against `ctx` only if a deadlock is actually reported, so parking
  // allocates nothing and the report sees the *final* state (e.g. a flag's
  // last published value, not its value when the waiter parked).
  void RegisterBlocked(const void* key, std::string what);
  void RegisterBlockedDynamic(const void* key, const void* ctx,
                              std::string (*describe)(const void*));
  void UnregisterBlocked(const void* key);

  // Optional chrome-trace recorder (not owned may be null). While attached,
  // Spawn/NotifyRootDone record one structural span per named root
  // coroutine and Run records an event-loop span; with no recorder the hot
  // path allocates nothing.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }
  TraceRecorder* trace() const { return trace_; }
  // Trace process id the simulator's own spans (roots, event loop) land on.
  void set_trace_pid(int pid) { trace_pid_ = pid; }
  int trace_pid() const { return trace_pid_; }

  // Internal: called from Coro final suspend for sim-owned roots.
  void NotifyRootDone(Coro::Handle h);

 private:
  template <typename F>
  CallbackNode* MakeCallback(F&& fn) {
    using Fn = std::decay_t<F>;
    CallbackNode* node = AllocCallbackNode();
    if constexpr (sizeof(Fn) <= CallbackNode::kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      new (static_cast<void*>(node->storage)) Fn(std::forward<F>(fn));
      node->invoke = [](CallbackNode* n, bool run) {
        Fn* f = std::launder(reinterpret_cast<Fn*>(n->storage));
        if (run) {
          Fn local(std::move(*f));
          f->~Fn();
          local();
        } else {
          f->~Fn();
        }
      };
    } else {
      // Callable too large for the inline buffer: box it in one allocation.
      Fn* boxed = new Fn(std::forward<F>(fn));
      std::memcpy(node->storage, &boxed, sizeof(boxed));
      node->invoke = [](CallbackNode* n, bool run) {
        Fn* f;
        std::memcpy(&f, n->storage, sizeof(f));
        std::unique_ptr<Fn> owned(f);
        if (run) (*owned)();
      };
    }
    return node;
  }

  CallbackNode* AllocCallbackNode() {
    if (free_callbacks_ != nullptr) {
      CallbackNode* node = free_callbacks_;
      free_callbacks_ = node->next_free;
      return node;
    }
    callback_arena_.emplace_back();
    return &callback_arena_.back();
  }
  void FreeCallbackNode(CallbackNode* node) {
    node->next_free = free_callbacks_;
    free_callbacks_ = node;
  }

  struct EventCompare {
    bool operator()(const Event& a, const Event& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  void DestroyFinishedRoots();

  TimeNs now_ = 0;
  uint64_t next_seq_ = 0;
  // Smallest seq AtSeq may still use at now_: one past the running event's.
  uint64_t floor_seq_ = 0;
  uint64_t processed_events_ = 0;
  int live_roots_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventCompare> queue_;
  // Node storage (std::deque: stable addresses) plus the recycling list.
  std::deque<CallbackNode> callback_arena_;
  CallbackNode* free_callbacks_ = nullptr;
  std::vector<Coro::Handle> finished_roots_;
  // Frames of sim-owned roots still suspended; destroyed at teardown so a
  // deadlocked (never-completing) program does not leak its coroutines.
  std::unordered_set<void*> live_root_frames_;
  struct BlockedInfo {
    std::string what;  // used when describe == nullptr
    std::string (*describe)(const void*) = nullptr;
    const void* ctx = nullptr;
  };
  std::unordered_map<const void*, BlockedInfo> blocked_;
  TraceRecorder* trace_ = nullptr;
  int trace_pid_ = 0;
  // Open root spans (spawn -> completion), populated only while a recorder
  // is attached. Keyed by frame address: safe against frame-pool address
  // reuse because the entry is erased in NotifyRootDone before the frame is
  // destroyed.
  struct OpenRootSpan {
    std::string name;
    TimeNs start;
  };
  std::unordered_map<void*, OpenRootSpan> open_root_spans_;
};

}  // namespace tilelink::sim
