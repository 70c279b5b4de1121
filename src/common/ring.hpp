// Ring: a FIFO that keeps its storage. Elements live in one power-of-two
// circular buffer that doubles when full and never shrinks, so a queue that
// is filled and drained over and over (per-destination strategy queues, the
// received-packet queue, the engine's time-ordered FIFOs) stops allocating
// once it has reached its peak depth. std::deque, by contrast, frees and
// re-allocates a block every few elements as the queue moves through it.
//
// Slots outside [front, front + size) hold no object: pop_front destroys the
// element it removes, so a popped payload releases its resources at once.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "common/assert.hpp"

namespace nmx {

template <class T>
class Ring {
 public:
  Ring() = default;
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;
  Ring(Ring&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        cap_(std::exchange(o.cap_, 0)),
        head_(std::exchange(o.head_, 0)),
        size_(std::exchange(o.size_, 0)) {}
  Ring& operator=(Ring&& o) noexcept {
    if (this != &o) {
      release();
      data_ = std::exchange(o.data_, nullptr);
      cap_ = std::exchange(o.cap_, 0);
      head_ = std::exchange(o.head_, 0);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }
  ~Ring() { release(); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& front() {
    NMX_ASSERT(size_ > 0);
    return data_[head_];
  }
  /// The i-th element from the front.
  T& operator[](std::size_t i) { return data_[(head_ + i) & (cap_ - 1)]; }

  template <class... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == cap_) grow();
    T* slot = data_ + ((head_ + size_) & (cap_ - 1));
    std::construct_at(slot, std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  void pop_front() {
    NMX_ASSERT(size_ > 0);
    std::destroy_at(data_ + head_);
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

  /// Destroy every element; the storage is kept.
  void clear() {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

  /// Remove the elements `pred` accepts, keeping the others in order.
  /// Returns how many were removed.
  template <class Pred>
  std::size_t erase_if(Pred pred) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      T& e = (*this)[i];
      if (pred(e)) continue;
      if (kept != i) (*this)[kept] = std::move(e);
      ++kept;
    }
    const std::size_t removed = size_ - kept;
    for (std::size_t i = kept; i < size_; ++i) std::destroy_at(&(*this)[i]);
    size_ = kept;
    return removed;
  }

 private:
  // Start at one element: most per-destination queues never hold more.
  void grow() {
    const std::size_t cap = cap_ == 0 ? 1 : 2 * cap_;
    T* data = std::allocator<T>{}.allocate(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      T& e = (*this)[i];
      std::construct_at(data + i, std::move(e));
      std::destroy_at(&e);
    }
    if (data_ != nullptr) std::allocator<T>{}.deallocate(data_, cap_);
    data_ = data;
    cap_ = cap;
    head_ = 0;
  }

  void release() {
    clear();
    if (data_ != nullptr) std::allocator<T>{}.deallocate(data_, cap_);
    data_ = nullptr;
    cap_ = 0;
  }

  T* data_ = nullptr;
  std::size_t cap_ = 0;   ///< 0 or a power of two
  std::size_t head_ = 0;  ///< index of the front element
  std::size_t size_ = 0;
};

}  // namespace nmx
