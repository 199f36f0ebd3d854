// Ring<T>: FIFO over a power-of-two circular buffer that keeps its
// capacity. A queue that fills and drains in steady state stops allocating
// once it has reached its high-water mark; a std::deque frees and
// re-allocates a block every few elements as it cycles (DESIGN.md §2.3).
//
// A ring that drains empty after a burst grew it past kKeep slots gives
// its buffer back, so a one-off burst (a restart's exchange requests, a
// replay) does not pin its high-water mark for the rest of the run.
//
// Elements are indexed from the front. erase(i) shifts the i elements
// before it, so erasing at or near the front — what an in-order consumer
// does — is cheap. Popped and cleared slots keep their moved-from values
// until overwritten, so T should not own resources that must be released
// promptly.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace gcr::sim {

template <class T>
class Ring {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  T& operator[](std::size_t i) { return buf_[(head_ + i) & mask()]; }
  const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) & mask()];
  }

  void push_back(T value) {
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) & mask()] = std::move(value);
    ++count_;
  }

  T pop_front() {
    T value = std::move(buf_[head_]);
    head_ = (head_ + 1) & mask();
    if (--count_ == 0) release();
    return value;
  }

  /// Removes element i; the elements behind it keep their order.
  void erase(std::size_t i) {
    for (; i > 0; --i) (*this)[i] = std::move((*this)[i - 1]);
    head_ = (head_ + 1) & mask();
    if (--count_ == 0) release();
  }

  void clear() {
    count_ = 0;
    release();
  }

 private:
  /// Capacity kept when the ring drains empty.
  static constexpr std::size_t kKeep = 8;

  std::size_t mask() const { return buf_.size() - 1; }

  void release() {
    head_ = 0;
    if (buf_.size() > kKeep) std::vector<T>().swap(buf_);
  }

  void grow() {
    std::vector<T> next(buf_.empty() ? 4 : buf_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) next[i] = std::move((*this)[i]);
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace gcr::sim
