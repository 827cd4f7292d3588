// The one flat d-ary (d = 4) min-heap of the library, behind the service
// engine's virtual-time event queue (engine::EventHeap).
//
// Four children per node means half the tree depth of a binary heap, and
// a sift-down compares children that sit in one cache line of 16-byte
// entries. When Before is a strict TOTAL order over the live entries,
// the pop sequence depends only on the contents, never on the insertion
// history or on the heap's internal layout.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace resmodel::util {

/// Min-heap of T under the strict order Before (a stateless function
/// object: Before{}(a, b) is true when a must pop before b).
template <typename T, typename Before>
class DaryHeap {
 public:
  std::size_t size() const noexcept { return items_.size(); }
  bool empty() const noexcept { return items_.empty(); }
  void reserve(std::size_t n) { items_.reserve(n); }
  void clear() noexcept { items_.clear(); }

  /// The next entry to pop. Call only while !empty().
  const T& min() const noexcept { return items_.front(); }

  /// The live entries in heap (NOT pop) order.
  std::span<const T> items() const noexcept { return items_; }

  void push(T item) {
    items_.push_back(item);
    sift_up(items_.size() - 1);
  }

  T pop_min() noexcept {
    const T top = items_.front();
    items_.front() = items_.back();
    items_.pop_back();
    if (!items_.empty()) sift_down(0);
    return top;
  }

  /// pop_min + push fused into one sift-down from the root — the common
  /// step of both users (the popped client or host re-enters with its
  /// next key).
  void replace_min(T item) noexcept {
    items_.front() = item;
    sift_down(0);
  }

  /// Replaces the contents with `items` and heapifies (Floyd, O(n)).
  void build(std::vector<T> items) noexcept {
    items_ = std::move(items);
    if (items_.size() < 2) return;
    for (std::size_t i = (items_.size() - 2) / kArity + 1; i-- > 0;) {
      sift_down(i);
    }
  }

 private:
  static constexpr std::size_t kArity = 4;

  static bool before(const T& a, const T& b) noexcept { return Before{}(a, b); }

  void sift_up(std::size_t i) noexcept {
    const T e = items_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(e, items_[parent])) break;
      items_[i] = items_[parent];
      i = parent;
    }
    items_[i] = e;
  }

  void sift_down(std::size_t i) noexcept {
    const T e = items_[i];
    const std::size_t n = items_.size();
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      const std::size_t last = std::min(first + kArity, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (before(items_[c], items_[best])) best = c;
      }
      if (!before(items_[best], e)) break;
      items_[i] = items_[best];
      i = best;
    }
    items_[i] = e;
  }

  std::vector<T> items_;
};

}  // namespace resmodel::util
