#include "sim/engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

namespace twochains::sim {
namespace {

constexpr PicoTime kNoEvent = std::numeric_limits<PicoTime>::max();

// Event slab geometry: chunks of 512 nodes, at most 2M in-flight events.
constexpr std::uint32_t kChunkShift = 9;
constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
constexpr std::uint32_t kMaxChunks = 4096;

// Timing wheel: 2048 slots of 4096 ps (~8.4 us horizon). The window size
// equals the wheel size, so an occupied slot maps to exactly one granule
// and no per-bucket granule disambiguation is needed. Events beyond the
// horizon wait in the overflow heap and are pulled granule-at-a-time as the
// cursor reaches them.
constexpr std::uint32_t kGranuleShift = 12;
constexpr std::uint32_t kWheelSlots = 2048;
constexpr std::uint32_t kWheelMask = kWheelSlots - 1;
constexpr std::uint32_t kBitmapWords = kWheelSlots / 64;

// Node lifecycle. The generation bumps when a node is freed, so a stale
// EventId (or a queue entry left behind by a sweep) names an older
// generation and misses instead of touching the slot's new tenant.
enum class NodeState : std::uint8_t { kFree, kScheduled, kCancelled };

// EventId layout: [63:32] slot+1 | [31:0] generation. Slot 0 encodes as 1
// so id 0 is never a live event.
constexpr EventId MakeId(std::uint32_t slot, std::uint32_t gen) noexcept {
  return (std::uint64_t{slot + 1} << 32) | gen;
}

struct EventNode {
  PicoTime when = 0;
  std::uint64_t key_lo = 0;  // (source lane << 48) | per-lane sequence
  SmallFn cb;
  const char* tag = nullptr;
  EventNode* next_free = nullptr;
  std::uint32_t gen = 0;
  NodeState state = NodeState::kFree;
  std::uint32_t slot = 0;
  std::uint32_t home_lane = 0;
};

// What the ordering structures hold: 32 bytes instead of the node, so heap
// sifts move small POD items. The generation snapshot makes entries for
// swept (freed-in-place) nodes detectably stale at pop.
struct LightItem {
  PicoTime when;
  std::uint64_t key_lo;
  EventNode* node;
  std::uint32_t gen;
};

struct ItemAfter {
  bool operator()(const LightItem& a, const LightItem& b) const noexcept {
    if (a.when != b.when) return a.when > b.when;
    return a.key_lo > b.key_lo;  // key_lo is globally unique: no ties
  }
};

inline void HeapPush(std::vector<LightItem>& h, const LightItem& it) {
  h.push_back(it);
  std::push_heap(h.begin(), h.end(), ItemAfter{});
}
inline void HeapPop(std::vector<LightItem>& h) {
  std::pop_heap(h.begin(), h.end(), ItemAfter{});
  h.pop_back();
}

inline bool IsLive(const LightItem& it) noexcept {
  return it.node->gen == it.gen && it.node->state == NodeState::kScheduled;
}

// First occupied wheel slot strictly after `after` in circular order, or -1.
// Scans whole bitmap words; the final pass re-checks the starting word's low
// bits (slots that wrapped all the way around).
int NextOccupiedSlot(const std::uint64_t* bm, std::uint32_t after) noexcept {
  const std::uint32_t start = (after + 1) & kWheelMask;
  const std::uint32_t w0 = start / 64;
  for (std::uint32_t i = 0; i <= kBitmapWords; ++i) {
    const std::uint32_t wi = (w0 + i) % kBitmapWords;
    std::uint64_t word = bm[wi];
    if (i == 0) word &= ~std::uint64_t{0} << (start % 64);
    if (word != 0) {
      return static_cast<int>(wi * 64 +
                              static_cast<std::uint32_t>(std::countr_zero(word)));
    }
  }
  return -1;
}

}  // namespace

struct Engine::Impl {
  // Ordering structures.
  std::vector<LightItem> active;    // current-granule min-heap
  std::vector<LightItem> overflow;  // beyond-horizon min-heap
  std::array<std::vector<LightItem>, kWheelSlots> buckets;
  std::uint64_t bitmap[kBitmapWords] = {};
  std::uint64_t cursor_granule = 0;
  std::size_t bucket_items = 0;
  PicoTime now = 0;

  // Slab.
  std::vector<std::unique_ptr<EventNode[]>> chunks;
  EventNode* free_head = nullptr;

  std::uint64_t fired = 0;
  std::uint64_t live = 0;
  std::uint64_t cancelled_pending = 0;

  std::uint32_t virtual_lanes = 1;
  std::vector<std::uint64_t> lane_seq{0};  // next sequence number per lane
  std::function<void(PicoTime, const char*)> hook;

  bool in_run = false;
  std::uint32_t lane = 0;  // lane of the firing event while in_run
  bool stop = false;

  // Marks a Run*() call in flight; restores the outer context on exit so a
  // run nested inside a callback hands the caller back its own lane.
  struct RunScope {
    Impl& impl;
    bool saved_in_run;
    std::uint32_t saved_lane;
    explicit RunScope(Impl& i)
        : impl(i), saved_in_run(i.in_run), saved_lane(i.lane) {
      impl.in_run = true;
      impl.lane = 0;
      impl.stop = false;
    }
    ~RunScope() {
      impl.in_run = saved_in_run;
      impl.lane = saved_lane;
    }
  };

  std::uint32_t ContextLane() const noexcept { return in_run ? lane : 0; }

  // ------------------------------------------------------------------- slab

  EventNode* AllocNode() {
    EventNode* n = free_head;
    if (n != nullptr) {
      free_head = n->next_free;
      return n;
    }
    const auto c = static_cast<std::uint32_t>(chunks.size());
    if (c == kMaxChunks) {
      std::fprintf(stderr, "sim::Engine: event slab exhausted (%u events)\n",
                   kMaxChunks * kChunkSize);
      std::abort();
    }
    auto chunk = std::make_unique<EventNode[]>(kChunkSize);
    for (std::uint32_t i = 0; i < kChunkSize; ++i) {
      chunk[i].slot = c * kChunkSize + i;
    }
    for (std::uint32_t i = kChunkSize - 1; i >= 1; --i) {
      chunk[i].next_free = free_head;
      free_head = &chunk[i];
    }
    EventNode* first = &chunk[0];
    chunks.push_back(std::move(chunk));
    return first;
  }

  void FreeNode(EventNode* n) noexcept {
    ++n->gen;
    n->state = NodeState::kFree;
    n->tag = nullptr;
    n->next_free = free_head;
    free_head = n;
  }

  void FreeCancelled(EventNode* n) noexcept {
    n->cb = SmallFn();  // release captured state now, not at reuse
    FreeNode(n);
    --cancelled_pending;
  }

  // -------------------------------------------------------------- the wheel

  void InsertNode(EventNode* n) {
    const std::uint64_t g = n->when >> kGranuleShift;
    const LightItem it{n->when, n->key_lo, n, n->gen};
    if (g <= cursor_granule) {
      assert(g == cursor_granule || n->when >= now);
      HeapPush(active, it);
    } else if (g - cursor_granule < kWheelSlots) {
      const std::uint32_t slot = static_cast<std::uint32_t>(g) & kWheelMask;
      bitmap[slot / 64] |= std::uint64_t{1} << (slot % 64);
      buckets[slot].push_back(it);
      ++bucket_items;
    } else {
      HeapPush(overflow, it);
    }
  }

  // Advances the cursor to the next occupied granule, draining that granule
  // from both the wheel bucket and the overflow heap into the active heap.
  // Returns false when no events remain anywhere.
  bool AdvanceCursor() {
    const std::uint32_t cslot =
        static_cast<std::uint32_t>(cursor_granule) & kWheelMask;
    std::uint64_t bucket_granule = kNoEvent;
    const int s = NextOccupiedSlot(bitmap, cslot);
    if (s >= 0) {
      bucket_granule = cursor_granule +
                       ((static_cast<std::uint32_t>(s) - cslot) & kWheelMask);
    }
    const std::uint64_t overflow_granule =
        overflow.empty() ? kNoEvent : overflow.front().when >> kGranuleShift;
    const std::uint64_t g = std::min(bucket_granule, overflow_granule);
    if (g == kNoEvent) return false;
    cursor_granule = g;
    if (bucket_granule == g) {
      const std::uint32_t slot = static_cast<std::uint32_t>(g) & kWheelMask;
      bitmap[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
      auto& bucket = buckets[slot];
      bucket_items -= bucket.size();
      active.insert(active.end(), bucket.begin(), bucket.end());
      bucket.clear();
    }
    while (!overflow.empty() && (overflow.front().when >> kGranuleShift) == g) {
      active.push_back(overflow.front());
      HeapPop(overflow);
    }
    std::make_heap(active.begin(), active.end(), ItemAfter{});
    return true;
  }

  // Pops the next live event with when < limit. Cancelled and stale entries
  // encountered on the way are reclaimed without advancing time.
  EventNode* PopBefore(PicoTime limit) {
    while (true) {
      if (active.empty() && !AdvanceCursor()) return nullptr;
      const LightItem item = active.front();
      if (item.when >= limit) return nullptr;
      HeapPop(active);
      EventNode* n = item.node;
      if (IsLive(item)) return n;
      if (n->gen == item.gen) FreeCancelled(n);
    }
  }

  void Fire(EventNode* n) {
    now = n->when;
    lane = n->home_lane;
    ++fired;
    if (hook) hook(n->when, n->tag != nullptr ? n->tag : "");
    SmallFn cb = std::move(n->cb);
    FreeNode(n);
    --live;
    cb();
  }

  // Fires every event with when < limit until the queue drains, Stop(), or
  // @p done (checked after each event) holds. Returns true iff done held.
  bool FireBefore(PicoTime limit, const std::function<bool()>* done) {
    while (!stop) {
      EventNode* n = PopBefore(limit);
      if (n == nullptr) return false;
      Fire(n);
      if (done != nullptr && (*done)()) return true;
    }
    return false;
  }

  // ------------------------------------------------------------------ sweep

  // Reclaims cancelled nodes in place (slab scan + stale-entry filter) so
  // schedule/cancel churn cannot grow the slab: triggered when cancelled
  // events dominate the queued population.
  void MaybeSweep() {
    if (cancelled_pending < 64) return;
    const std::size_t queued = active.size() + overflow.size() + bucket_items;
    if (cancelled_pending * 2 < queued) return;
    Sweep();
  }

  void Sweep() {
    for (auto& chunk : chunks) {
      for (std::uint32_t i = 0; i < kChunkSize; ++i) {
        if (chunk[i].state == NodeState::kCancelled) FreeCancelled(&chunk[i]);
      }
    }
    const auto stale = [](const LightItem& it) noexcept { return !IsLive(it); };
    auto filter_heap = [&](std::vector<LightItem>& h) {
      h.erase(std::remove_if(h.begin(), h.end(), stale), h.end());
      std::make_heap(h.begin(), h.end(), ItemAfter{});
    };
    filter_heap(active);
    filter_heap(overflow);
    for (std::uint32_t w = 0; w < kBitmapWords; ++w) {
      std::uint64_t word = bitmap[w];
      while (word != 0) {
        const std::uint32_t slot =
            w * 64 + static_cast<std::uint32_t>(std::countr_zero(word));
        word &= word - 1;
        auto& bucket = buckets[slot];
        const std::size_t before = bucket.size();
        bucket.erase(std::remove_if(bucket.begin(), bucket.end(), stale),
                     bucket.end());
        bucket_items -= before - bucket.size();
        if (bucket.empty()) {
          bitmap[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
        }
      }
    }
  }

  // ------------------------------------------------------------- scheduling

  // Keys the event by its source lane: the firing event's lane inside a
  // run, the target lane from idle.
  EventId ScheduleOn(std::uint32_t target, PicoTime when, SmallFn cb,
                     const char* tag) {
    assert(target < virtual_lanes);
    if (target >= virtual_lanes) target %= virtual_lanes;
    const std::uint32_t src_lane = in_run ? lane : target;
    if (when < now) when = now;
    EventNode* n = AllocNode();
    n->when = when;
    n->key_lo = (std::uint64_t{src_lane} << 48) | lane_seq[src_lane]++;
    n->cb = std::move(cb);
    n->tag = tag;
    n->home_lane = target;
    n->state = NodeState::kScheduled;
    InsertNode(n);
    ++live;
    return MakeId(n->slot, n->gen);
  }

  bool CancelId(EventId id) {
    const auto slot_p1 = static_cast<std::uint32_t>(id >> 32);
    const auto gen = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
    if (slot_p1 == 0 || slot_p1 > chunks.size() * kChunkSize) return false;
    const std::uint32_t slot = slot_p1 - 1;
    EventNode* n = &chunks[slot >> kChunkShift][slot & (kChunkSize - 1)];
    if (n->gen != gen || n->state != NodeState::kScheduled) {
      return false;  // already fired, already cancelled, or slot reused
    }
    n->state = NodeState::kCancelled;
    --live;
    ++cancelled_pending;
    MaybeSweep();
    return true;
  }
};

Engine::Engine() : impl_(std::make_unique<Impl>()) {}

Engine::~Engine() = default;

PicoTime Engine::Now() const noexcept { return impl_->now; }

EventId Engine::ScheduleAt(PicoTime when, Callback cb, const char* tag) {
  return impl_->ScheduleOn(impl_->ContextLane(), when, std::move(cb), tag);
}

EventId Engine::ScheduleAfter(PicoTime delay, Callback cb, const char* tag) {
  return impl_->ScheduleOn(impl_->ContextLane(), impl_->now + delay,
                           std::move(cb), tag);
}

EventId Engine::ScheduleAtOn(std::uint32_t lane, PicoTime when, Callback cb,
                             const char* tag) {
  return impl_->ScheduleOn(lane, when, std::move(cb), tag);
}

EventId Engine::ScheduleAfterOn(std::uint32_t lane, PicoTime delay,
                                Callback cb, const char* tag) {
  return impl_->ScheduleOn(lane, impl_->now + delay, std::move(cb), tag);
}

bool Engine::Cancel(EventId id) { return impl_->CancelId(id); }

void Engine::Run() {
  Impl::RunScope scope(*impl_);
  impl_->FireBefore(kNoEvent, nullptr);
}

void Engine::RunUntil(PicoTime deadline) {
  {
    Impl::RunScope scope(*impl_);
    impl_->FireBefore(deadline == kNoEvent ? kNoEvent : deadline + 1, nullptr);
  }
  // Even with no events at/below the deadline, time advances to it so
  // callers can measure elapsed windows.
  impl_->now = std::max(impl_->now, deadline);
}

bool Engine::RunUntilCondition(const std::function<bool()>& done) {
  if (done()) return true;
  Impl::RunScope scope(*impl_);
  return impl_->FireBefore(kNoEvent, &done) || done();
}

void Engine::Stop() noexcept { impl_->stop = true; }

std::size_t Engine::PendingEvents() const noexcept {
  return static_cast<std::size_t>(impl_->live);
}

std::uint64_t Engine::EventsProcessed() const noexcept { return impl_->fired; }

void Engine::SetEventHook(std::function<void(PicoTime, const char*)> hook) {
  impl_->hook = std::move(hook);
}

void Engine::SetVirtualLanes(std::uint32_t lanes) {
  assert(impl_->live == 0 && "SetVirtualLanes requires an idle engine");
  impl_->virtual_lanes = std::max<std::uint32_t>(1, lanes);
  impl_->lane_seq.assign(impl_->virtual_lanes, 0);
}

std::uint32_t Engine::VirtualLanes() const noexcept {
  return impl_->virtual_lanes;
}

std::uint32_t Engine::CurrentLane() const noexcept {
  return impl_->ContextLane();
}

std::size_t Engine::AllocatedEventSlots() const noexcept {
  return impl_->chunks.size() * kChunkSize;
}

}  // namespace twochains::sim
