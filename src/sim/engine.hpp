// Discrete-event simulation engine.
//
// The whole testbed (hosts, NICs, links, receiver agents, noise processes)
// runs on one Engine. Components schedule callbacks at absolute or relative
// simulated times; the engine fires them in (time, lane, sequence) order, so
// same-timestamp events fire in scheduling order and every run is
// deterministic. Callbacks may schedule further events and may call Stop().
//
// Internally events live in a slab-allocated intrusive pool (no per-event
// heap allocation: callbacks are held inline by SmallFn, tags are unowned
// string literals) fronted by a timing wheel; cancellation is a generation
// counter compare, never a set lookup.
//
// Every event is keyed (time, source lane, per-lane sequence). A fabric
// declares one virtual lane per host (`SetVirtualLanes`) and homes each
// host's events on its lane, so same-time events fire in source-lane order,
// then in the order that lane scheduled them. See docs/ARCHITECTURE.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>

#include "common/status.hpp"
#include "common/units.hpp"

namespace twochains::sim {

/// Identifies a scheduled event so it can be cancelled. Id 0 is never a
/// live event.
using EventId = std::uint64_t;

/// Move-only callable holder with 120 bytes of inline storage, so scheduling
/// a typical capture list never touches the heap (std::function's small
/// buffer is ~16 bytes and every fabric callback spills). Larger or
/// throwing-move captures fall back to a heap pointer transparently.
class SmallFn {
 public:
  static constexpr std::size_t kInlineBytes = 120;

  SmallFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& fn) {  // NOLINT: implicit, mirrors std::function
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &InlineOps<Fn>::kOps;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &HeapOps<Fn>::kOps;
    }
  }

  SmallFn(SmallFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { Reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(unsigned char*);
    // dst <- src: move-construct into dst, destroy src.
    void (*relocate)(unsigned char*, unsigned char*);
    void (*destroy)(unsigned char*);
  };

  template <typename Fn>
  struct InlineOps {
    static Fn* At(unsigned char* s) noexcept {
      return std::launder(reinterpret_cast<Fn*>(s));
    }
    static void Invoke(unsigned char* s) { (*At(s))(); }
    static void Relocate(unsigned char* d, unsigned char* s) {
      Fn* src = At(s);
      ::new (static_cast<void*>(d)) Fn(std::move(*src));
      src->~Fn();
    }
    static void Destroy(unsigned char* s) { At(s)->~Fn(); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn* Ptr(unsigned char* s) noexcept {
      return *std::launder(reinterpret_cast<Fn**>(s));
    }
    static void Invoke(unsigned char* s) { (*Ptr(s))(); }
    static void Relocate(unsigned char* d, unsigned char* s) {
      ::new (static_cast<void*>(d)) Fn*(Ptr(s));
    }
    static void Destroy(unsigned char* s) { delete Ptr(s); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy};
  };

  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

class Engine {
 public:
  using Callback = SmallFn;

  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time: the firing event's timestamp inside a
  /// callback, the last fired event's (or RunUntil deadline) when idle.
  PicoTime Now() const noexcept;

  /// Schedules @p cb at absolute time @p when (>= Now(); earlier times are
  /// clamped so causality cannot run backwards). Inside a callback the event
  /// lands on the scheduling lane; from outside a run it lands on lane 0.
  /// @p tag must have static storage duration (string literal): it is kept
  /// by pointer, never copied, and only read when an event hook is set.
  EventId ScheduleAt(PicoTime when, Callback cb, const char* tag = nullptr);

  /// Schedules @p cb @p delay picoseconds from now.
  EventId ScheduleAfter(PicoTime delay, Callback cb, const char* tag = nullptr);

  /// As ScheduleAt/ScheduleAfter, but the event executes on virtual lane
  /// @p lane. The key's source lane is still the scheduling lane inside a
  /// callback; from outside a run it is @p lane.
  EventId ScheduleAtOn(std::uint32_t lane, PicoTime when, Callback cb,
                       const char* tag = nullptr);
  EventId ScheduleAfterOn(std::uint32_t lane, PicoTime delay, Callback cb,
                          const char* tag = nullptr);

  /// Cancels a pending event. Returns false if it already fired or was
  /// cancelled before.
  bool Cancel(EventId id);

  /// Runs until the event queue is empty (or Stop()).
  void Run();

  /// Runs until simulated time would exceed @p deadline; events at exactly
  /// the deadline still fire. Pending later events remain queued. The clock
  /// advances to the deadline, so a following RunUntil resumes from a
  /// deterministic point.
  void RunUntil(PicoTime deadline);

  /// Runs until @p done() returns true, the queue drains, or Stop() is
  /// called. Returns true iff @p done() held. @p done is checked before the
  /// first event and after every event.
  bool RunUntilCondition(const std::function<bool()>& done);

  /// Requests that the current Run*() call return after the in-flight
  /// callback.
  void Stop() noexcept;

  /// True when no events are pending.
  bool Idle() const noexcept { return PendingEvents() == 0; }

  /// Number of pending (not yet fired, not cancelled) events.
  std::size_t PendingEvents() const noexcept;

  /// Total callbacks executed since construction.
  std::uint64_t EventsProcessed() const noexcept;

  /// Optional observation hook called before each event executes
  /// (time, tag; "" when the event was scheduled without a tag). Installing
  /// a hook is what makes tags observable — without one they cost nothing.
  void SetEventHook(std::function<void(PicoTime, const char*)> hook);

  /// Declares the number of virtual lanes (one per fabric host; a switched
  /// fabric homes each net::Switch on its own lane past the hosts, so
  /// switch-buffer state is only ever touched from events in that lane's
  /// order). Must be called while idle, before events are scheduled. The
  /// lanes only feed the (time, lane, seq) order.
  void SetVirtualLanes(std::uint32_t lanes);

  std::uint32_t VirtualLanes() const noexcept;

  /// Lane of the currently firing event (0 outside a run). What plain
  /// ScheduleAt inherits.
  std::uint32_t CurrentLane() const noexcept;

  /// Total event-slab slots allocated (capacity, not pending count). The
  /// bounded-memory regression asserts this stays flat across
  /// schedule/cancel churn.
  std::size_t AllocatedEventSlots() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace twochains::sim
