// Growable FIFO ring buffer with recycled slots.
//
// Replaces std::deque in channel/buffer hot paths: a deque allocates and
// frees a node per ~few elements as the FIFO churns, while this ring reuses
// one power-of-two slab of slots forever (growing geometrically only when the
// high-water mark rises). Elements are constructed on push and destroyed on
// pop; head/tail are monotone counters masked into the slab. An empty ring
// owns no slab; the first push allocates kFirstGrowth slots.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <memory>
#include <utility>

namespace zipper::common {

template <typename T>
class RingBuffer {
 public:
  /// Slots of the first slab when growing from empty: most channels and
  /// producer queues in a large simulation never hold more than a few items.
  static constexpr std::size_t kFirstGrowth = 4;

  RingBuffer() = default;
  explicit RingBuffer(std::size_t initial_capacity) {
    if (initial_capacity > 0) grow(std::bit_ceil(initial_capacity));
  }
  RingBuffer(const RingBuffer&) = delete;
  RingBuffer& operator=(const RingBuffer&) = delete;
  RingBuffer(RingBuffer&& o) noexcept
      : slab_(std::exchange(o.slab_, nullptr)),
        cap_(std::exchange(o.cap_, 0)),
        mask_(std::exchange(o.mask_, 0)),
        head_(std::exchange(o.head_, 0)),
        tail_(std::exchange(o.tail_, 0)) {}
  RingBuffer& operator=(RingBuffer&& o) noexcept {
    if (this != &o) {
      destroy_all();
      slab_ = std::exchange(o.slab_, nullptr);
      cap_ = std::exchange(o.cap_, 0);
      mask_ = std::exchange(o.mask_, 0);
      head_ = std::exchange(o.head_, 0);
      tail_ = std::exchange(o.tail_, 0);
    }
    return *this;
  }
  ~RingBuffer() { destroy_all(); }

  bool empty() const noexcept { return head_ == tail_; }
  std::size_t size() const noexcept { return tail_ - head_; }
  std::size_t capacity() const noexcept { return cap_; }

  void push_back(T value) { emplace_back(std::move(value)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (tail_ - head_ == cap_) grow(cap_ ? cap_ * 2 : kFirstGrowth);
    T* slot = slab_ + (tail_ & mask_);
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++tail_;
    return *slot;
  }

  T& front() noexcept {
    assert(!empty());
    return slab_[head_ & mask_];
  }
  const T& front() const noexcept {
    assert(!empty());
    return slab_[head_ & mask_];
  }

  /// Destroys and removes the front element.
  void pop_front() noexcept {
    assert(!empty());
    slab_[head_ & mask_].~T();
    ++head_;
  }

  /// Moves the front element out, then removes it.
  T take_front() {
    T v = std::move(front());
    pop_front();
    return v;
  }

  void clear() noexcept {
    while (!empty()) pop_front();
  }

 private:
  void grow(std::size_t new_cap) {
    std::allocator<T> alloc;
    T* fresh = alloc.allocate(new_cap);
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) {
      T* src = slab_ + ((head_ + i) & mask_);
      ::new (static_cast<void*>(fresh + i)) T(std::move(*src));
      src->~T();
    }
    if (slab_) alloc.deallocate(slab_, cap_);
    slab_ = fresh;
    cap_ = new_cap;
    mask_ = new_cap - 1;
    head_ = 0;
    tail_ = n;
  }

  void destroy_all() noexcept {
    if (!slab_) return;
    clear();
    std::allocator<T>().deallocate(slab_, cap_);
    slab_ = nullptr;
    cap_ = 0;
    mask_ = 0;
  }

  T* slab_ = nullptr;
  std::size_t cap_ = 0;   // always a power of two (or 0)
  std::size_t mask_ = 0;  // cap_ - 1 (0 while empty; grow runs before use)
  std::size_t head_ = 0;  // monotone; index = head_ & mask_
  std::size_t tail_ = 0;
};

}  // namespace zipper::common
