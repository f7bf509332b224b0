// Three-tier bucketed event queue — the scheduling hot path of the DES kernel.
//
// Simulated time is cut into aligned windows of kRingSize (2048) ns. Let
// cur = now / kRingSize be the window that holds the current time.
//
// Tier 1 (ring): one bucket per nanosecond of window cur. An event whose time
// falls in window cur goes to bucket `t & kRingMask`, an intrusive FIFO list,
// so same-timestamp events pop in scheduling order, with O(1) push and an
// occupancy bitmap plus `countr_zero` to find the next non-empty bucket.
//
// Tier 2 (wheel): one list per window in (cur, cur + kWheelSize), 33.5 ms of
// simulated time. A list is a chain of cache-line chunks holding (node,
// offset-in-window) entries, drawn from a free list; a push appends to the
// window's newest chunk and updates its bitmap bit and minimum, without
// touching the node. When the ring runs empty, the next event is the minimum
// of the earliest non-empty window (or the heap top), and that window becomes
// due: now moves into it, and its list is pushed onto the front of the ring
// buckets, which are all empty at that point. The flush reads contiguous
// entries and only stores to the nodes, so it does not stall on a chain of
// cache misses through coroutine frames.
//
// Tier 3 (heap): events beyond the wheel span (compute phases, long sleeps)
// go to a binary heap ordered by (time, insertion-seq). Each time the ring
// advances to a new window, heap entries that now fall inside the wheel span
// move to their windows, in (time, seq) order.
//
// Ordering argument. The dispatch order is exactly (time, scheduling order).
// Within a tier this holds by construction (FIFO buckets, window lists walked
// newest first and prepended on flush, heap seq). Across tiers: `now` is
// monotone, so a time t is heap-eligible, then wheel-eligible, then
// ring-eligible, and never the reverse. Hence every heap entry for t was
// scheduled before every wheel entry for t, and every wheel entry before
// every ring entry. Migration keeps that order: heap entries reach a window
// before any direct push can target it (a direct push needs the window inside
// the span, and the migration runs as soon as it is), and a window reaches
// the ring before any direct push can target its buckets (the ring only takes
// window cur). So the older tier always goes first at equal time.
//
// Storage. The ring (32 KiB) lives in the queue. The wheel (about 178 KiB)
// is allocated on the first push that needs it, so a Simulation that never
// looks more than one window ahead never pays for it. Chunks (64 B, five
// entries) are allocated 256 at a time and recycled, like the heap's vector.
//
// Events are intrusive `SchedNode`s. Awaiters embed their node directly in
// the coroutine frame (zero allocation on the park/wake path); the
// handle-based `Simulation::schedule_*` API draws nodes from a free-list
// pool. `WaitList` is the matching intrusive waiter list used by Channel,
// SimMutex, SimCondVar, SimSemaphore, and Latch; a whole WaitList can be
// spliced into the current bucket in O(1), so notify_all / count_down wake N
// waiters with one list splice instead of N queue pushes.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "sim/time.hpp"

namespace zipper::sim {

/// Intrusive scheduling node. Embedded in awaiter frames (pooled == false) or
/// drawn from the Simulation's free-list pool (pooled == true). The `next`
/// pointer is reused: first as the waiter-list link while parked, then as the
/// bucket link once scheduled.
struct SchedNode {
  std::coroutine_handle<> h = nullptr;
  SchedNode* next = nullptr;
  bool pooled = false;
};

/// Intrusive FIFO of parked waiters of type W, linked through W::next_waiter
/// (O(1) push/pop, O(position) selective take). Used for typed waiter lists
/// (channel awaiters, MPI receivers) whose wake path needs the awaiter, not
/// just its SchedNode.
template <typename W>
class IntrusiveFifo {
 public:
  bool empty() const noexcept { return head_ == nullptr; }

  void push_back(W* w) noexcept {
    w->next_waiter = nullptr;
    if (tail_) {
      tail_->next_waiter = w;
    } else {
      head_ = w;
    }
    tail_ = w;
  }

  W* pop_front() noexcept {
    W* w = head_;
    if (w) {
      head_ = w->next_waiter;
      if (!head_) tail_ = nullptr;
    }
    return w;
  }

  /// Unlinks and returns the first waiter (in push order) satisfying `pred`,
  /// or nullptr when none does.
  template <typename Pred>
  W* take_first(Pred pred) noexcept {
    W* prev = nullptr;
    for (W* w = head_; w; prev = w, w = w->next_waiter) {
      if (!pred(*w)) continue;
      (prev ? prev->next_waiter : head_) = w->next_waiter;
      if (tail_ == w) tail_ = prev;
      return w;
    }
    return nullptr;
  }

 private:
  W* head_ = nullptr;
  W* tail_ = nullptr;
};

/// Intrusive FIFO list of parked SchedNodes (O(1) push/pop/splice).
class WaitList {
 public:
  bool empty() const noexcept { return head_ == nullptr; }
  std::size_t size() const noexcept { return n_; }

  void push_back(SchedNode* n) noexcept {
    n->next = nullptr;
    if (tail_) {
      tail_->next = n;
    } else {
      head_ = n;
    }
    tail_ = n;
    ++n_;
  }

  SchedNode* pop_front() noexcept {
    SchedNode* n = head_;
    if (n) {
      head_ = n->next;
      if (!head_) tail_ = nullptr;
      --n_;
    }
    return n;
  }

 private:
  friend class BucketQueue;
  SchedNode* head_ = nullptr;
  SchedNode* tail_ = nullptr;
  std::size_t n_ = 0;
};

class BucketQueue {
 public:
  static constexpr std::size_t kRingBits = 11;
  static constexpr std::size_t kRingSize = std::size_t{1} << kRingBits;  // 2048 ns
  static constexpr std::size_t kRingMask = kRingSize - 1;
  static constexpr std::size_t kWheelBits = 14;
  static constexpr std::size_t kWheelSize = std::size_t{1} << kWheelBits;  // windows
  static constexpr Time kNoDeadline = std::numeric_limits<Time>::max();

  bool empty() const noexcept {
    return ring_count_ == 0 && wheel_count_ == 0 && heap_.empty();
  }
  std::size_t size() const noexcept {
    return ring_count_ + wheel_count_ + heap_.size();
  }

  /// Enqueues `n` to fire at absolute time `t` (requires now <= t).
  void push(SchedNode* n, Time t, Time now) {
    assert(t >= now && "cannot schedule into the simulated past");
    const std::uint64_t ahead = window_of(t) - window_of(now);
    if (ahead == 0) {
      const std::size_t s = static_cast<std::uint64_t>(t) & kRingMask;
      Bucket& b = buckets_[s];
      n->next = nullptr;
      if (b.tail) {
        b.tail->next = n;
      } else {
        b.head = n;
        bits_[s >> 6] |= std::uint64_t{1} << (s & 63);
      }
      b.tail = n;
      ++ring_count_;
    } else if (ahead < kWheelSize) {
      wheel_push(n, t);
    } else {
      heap_.push_back(HeapEntry{t, heap_seq_++, n});
      std::push_heap(heap_.begin(), heap_.end(), HeapLater{});
    }
  }

  /// Splices an entire WaitList into the bucket for time `now` in O(1): the
  /// list's FIFO order becomes scheduling order. The list is left empty.
  void splice_now(WaitList& l, Time now) {
    if (!l.head_) return;
    const std::size_t s = static_cast<std::uint64_t>(now) & kRingMask;
    Bucket& b = buckets_[s];
    if (b.tail) {
      b.tail->next = l.head_;
    } else {
      b.head = l.head_;
      bits_[s >> 6] |= std::uint64_t{1} << (s & 63);
    }
    b.tail = l.tail_;
    ring_count_ += l.n_;
    l.head_ = l.tail_ = nullptr;
    l.n_ = 0;
  }

  /// Earliest queued event time at or after `now`, or kNoDeadline when empty.
  Time next_time(Time now) const noexcept {
    if (ring_count_ > 0) return ring_min(now);
    if (wheel_count_ > 0) return wheel_min(now);
    if (!heap_.empty()) return heap_.front().t;
    return kNoDeadline;
  }

  /// Pops the earliest event if its time is <= `deadline`; nullptr otherwise
  /// (or when empty). On success stores the event's time in `t_out`; the
  /// caller must then advance its clock to `t_out`.
  SchedNode* pop(Time now, Time deadline, Time& t_out) {
    Time from = now;
    if (ring_count_ == 0) {
      // Window cur is exhausted: the next event opens a later window.
      from = next_time(now);
      if (from == kNoDeadline || from > deadline) return nullptr;
      open_window(window_of(from));
    }
    const std::size_t slot =
        next_occupied(static_cast<std::uint64_t>(from) & kRingMask);
    const Time t = window_start(from) + static_cast<Time>(slot);
    if (t > deadline) return nullptr;
    Bucket& b = buckets_[slot];
    SchedNode* n = b.head;
    b.head = n->next;
    if (!b.head) {
      b.tail = nullptr;
      bits_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
    }
    --ring_count_;
    t_out = t;
    return n;
  }

  /// Drops every queued event (nodes are abandoned, not freed — pooled nodes'
  /// storage is owned by the Simulation's pool, embedded nodes by their
  /// coroutine frames).
  void clear() noexcept {
    if (ring_count_ > 0) {
      buckets_.fill(Bucket{});
      bits_.fill(0);
      ring_count_ = 0;
    }
    wheel_.reset();
    wheel_count_ = 0;
    chunk_blocks_.clear();
    free_chunks_ = nullptr;
    heap_.clear();
    heap_seq_ = 0;
  }

 private:
  struct Bucket {
    SchedNode* head = nullptr;
    SchedNode* tail = nullptr;
  };
  struct HeapEntry {
    Time t;
    std::uint64_t seq;  // heap-local insertion order; FIFO tie-break at equal t
    SchedNode* n;
  };
  struct HeapLater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const noexcept {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };

  static constexpr std::size_t kWords = kRingSize / 64;
  static constexpr std::size_t kWheelMask = kWheelSize - 1;
  static constexpr std::size_t kWheelWords = kWheelSize / 64;
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  /// One cache line of a window's list: up to kSlots events in push order
  /// (older chunks are full; the newest holds Wheel::fill entries). Entries
  /// live here rather than in the nodes, so opening a window reads contiguous
  /// entries instead of chasing links through coroutine frames.
  struct Chunk {
    static constexpr std::size_t kSlots = 5;
    Chunk* next;  // the window's older chunk, or the free-list link
    SchedNode* node[kSlots];
    std::uint16_t off[kSlots];  // firing time within the window
  };
  static_assert(sizeof(Chunk) <= 64, "one chunk per cache line");
  static constexpr std::size_t kChunkBlock = 256;  // chunks per allocation

  /// Window lists in slot `window & kWheelMask`, newest chunk first, with a
  /// two-level occupancy bitmap, each window's minimum offset and the fill
  /// of its newest chunk (kept here so a push only stores to the chunk).
  struct Wheel {
    std::array<Chunk*, kWheelSize> head{};
    std::array<std::uint16_t, kWheelSize> min_off{};
    std::array<std::uint8_t, kWheelSize> fill{};
    std::array<std::uint64_t, kWheelWords> bits{};
    std::array<std::uint64_t, kWheelWords / 64> summary{};  // word non-empty
  };
  static_assert(sizeof(Wheel) <= 256 * 1024, "wheel storage budget");

  // The wheel and heap paths below are kept out of line (gnu::noinline) so
  // that push() and pop() stay small enough to inline into the ring-only
  // dispatch loop.
  static std::uint64_t window_of(Time t) noexcept {
    return static_cast<std::uint64_t>(t) >> kRingBits;
  }
  static Time window_start(Time t) noexcept {
    return t & ~static_cast<Time>(kRingMask);
  }

  [[gnu::noinline]] void wheel_push(SchedNode* n, Time t) {
    if (!wheel_) wheel_ = std::make_unique<Wheel>();
    Wheel& w = *wheel_;
    const std::size_t s = window_of(t) & kWheelMask;
    const auto off = static_cast<std::uint16_t>(t & kRingMask);
    Chunk* c = w.head[s];
    std::size_t k = w.fill[s];
    if (c) {
      w.min_off[s] = std::min(w.min_off[s], off);
    } else {
      w.min_off[s] = off;
      w.bits[s >> 6] |= std::uint64_t{1} << (s & 63);
      w.summary[s >> 12] |= std::uint64_t{1} << ((s >> 6) & 63);
    }
    if (!c || k == Chunk::kSlots) {
      if (!free_chunks_) refill_chunks();
      Chunk* const fresh = free_chunks_;
      free_chunks_ = fresh->next;
      fresh->next = c;
      w.head[s] = c = fresh;
      k = 0;
    }
    c->node[k] = n;
    c->off[k] = off;
    w.fill[s] = static_cast<std::uint8_t>(k + 1);
    ++wheel_count_;
  }

  void refill_chunks() {
    chunk_blocks_.push_back(std::make_unique<Chunk[]>(kChunkBlock));
    Chunk* const block = chunk_blocks_.back().get();
    for (std::size_t i = 0; i < kChunkBlock; ++i) {
      block[i].next = free_chunks_;
      free_chunks_ = &block[i];
    }
  }

  /// Earliest time in the first non-empty window after `now`'s (requires
  /// wheel_count_ > 0).
  [[gnu::noinline]] Time wheel_min(Time now) const noexcept {
    const Wheel& w = *wheel_;
    const std::uint64_t first = window_of(now) + 1;
    std::size_t s = next_window_slot(first & kWheelMask);
    if (s == kNone) s = next_window_slot(0);
    assert(s != kNone && "wheel_min on empty wheel");
    const std::uint64_t window = first + ((s - first) & kWheelMask);
    return static_cast<Time>(window << kRingBits) + w.min_off[s];
  }

  /// First occupied wheel slot >= `from` (no wrap), or kNone.
  std::size_t next_window_slot(std::size_t from) const noexcept {
    const Wheel& w = *wheel_;
    const std::size_t w0 = from >> 6;
    const std::uint64_t word = w.bits[w0] & (~std::uint64_t{0} << (from & 63));
    if (word) return (w0 << 6) + static_cast<std::size_t>(std::countr_zero(word));
    for (std::size_t j = (w0 + 1) >> 6; j < w.summary.size(); ++j) {
      std::uint64_t sum = w.summary[j];
      if (j == (w0 + 1) >> 6) sum &= ~std::uint64_t{0} << ((w0 + 1) & 63);
      if (sum) {
        const std::size_t k = (j << 6) + static_cast<std::size_t>(std::countr_zero(sum));
        return (k << 6) + static_cast<std::size_t>(std::countr_zero(w.bits[k]));
      }
    }
    return kNone;
  }

  /// Makes `window` the ring's window (requires an empty ring): heap entries
  /// now inside the wheel span join their windows, then the window's list is
  /// pushed onto the front of the (empty) ring buckets.
  [[gnu::noinline]] void open_window(std::uint64_t window) {
    while (!heap_.empty() && window_of(heap_.front().t) - window < kWheelSize) {
      std::pop_heap(heap_.begin(), heap_.end(), HeapLater{});
      const HeapEntry e = heap_.back();
      heap_.pop_back();
      wheel_push(e.n, e.t);
    }
    if (wheel_count_ == 0) return;
    Wheel& w = *wheel_;
    const std::size_t s = window & kWheelMask;
    Chunk* c = w.head[s];
    if (!c) return;
    std::size_t k = w.fill[s];
    w.head[s] = nullptr;
    w.bits[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
    if (!w.bits[s >> 6]) {
      w.summary[s >> 12] &= ~(std::uint64_t{1} << ((s >> 6) & 63));
    }
    // Newest first: prepending each node restores scheduling order. Only
    // stores reach the nodes, so their cache misses overlap.
    while (c) {
      for (std::size_t i = k; i-- > 0;) {
        SchedNode* const n = c->node[i];
        const std::size_t b_slot = c->off[i];
        Bucket& b = buckets_[b_slot];
        n->next = b.head;
        b.head = n;
        if (!b.tail) {
          b.tail = n;
          bits_[b_slot >> 6] |= std::uint64_t{1} << (b_slot & 63);
        }
      }
      ring_count_ += k;
      wheel_count_ -= k;
      Chunk* const older = c->next;
      c->next = free_chunks_;
      free_chunks_ = c;
      c = older;
      k = Chunk::kSlots;
    }
  }

  /// Earliest ring event time (requires ring_count_ > 0).
  Time ring_min(Time now) const noexcept {
    return window_start(now) + static_cast<Time>(next_occupied(
                                   static_cast<std::uint64_t>(now) & kRingMask));
  }

  /// Index of the first occupied bucket at or after `start` (requires an
  /// occupied one: ring events are never earlier than now).
  std::size_t next_occupied(std::size_t start) const noexcept {
    const std::size_t w0 = start >> 6;
    const std::uint64_t first = bits_[w0] >> (start & 63);
    if (first) {
      return start + static_cast<std::size_t>(std::countr_zero(first));
    }
    for (std::size_t w = w0 + 1; w < kWords; ++w) {
      if (bits_[w]) {
        return (w << 6) + static_cast<std::size_t>(std::countr_zero(bits_[w]));
      }
    }
    assert(false && "next_occupied on empty ring");
    return start;
  }

  std::array<Bucket, kRingSize> buckets_{};
  std::array<std::uint64_t, kWords> bits_{};
  std::size_t ring_count_ = 0;
  std::unique_ptr<Wheel> wheel_;  // allocated on first use
  std::size_t wheel_count_ = 0;
  std::vector<std::unique_ptr<Chunk[]>> chunk_blocks_;  // owns every chunk
  Chunk* free_chunks_ = nullptr;
  std::vector<HeapEntry> heap_;
  std::uint64_t heap_seq_ = 0;
};

}  // namespace zipper::sim
