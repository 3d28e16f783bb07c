#ifndef SWIM_SIM_EVENT_QUEUE_H_
#define SWIM_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

namespace swim::sim {

/// Pending-event queues for the replay engine. Both implement the same
/// total order - ascending (time, seq), so simultaneous events pop in
/// FIFO submission order - and the same minimal interface:
///
///   void Push(E event);   // event.time must be >= the last popped time
///   E Pop();              // undefined on an empty queue
///   bool empty() / size_t size()
///
/// The element type E only needs public `double time` and `uint64_t seq`
/// members. Two implementations:
///
///   HeapEventQueue: std::priority_queue - the engine the simulator
///                   shipped with, retired to golden-oracle duty (property
///                   tests drive it and DaryEventHeap with the same event
///                   stream and assert identical pop order).
///   DaryEventHeap:  4-ary implicit heap, O(log n) with a ~2x better
///                   constant than the binary heap (shallower tree,
///                   cache-friendly sift-down over 4 children); the
///                   replay engine's queue.
///
/// The replay engine keeps only in-flight events (task waves, wakes, node
/// losses) in its queue; job arrivals stream from the submit-sorted
/// template, so the queue is sized by what runs at once, not by the
/// length of the trace, and an O(log n) heap is all it needs.

/// Strict weak ordering used by HeapEventQueue: `a` pops after `b`.
template <typename E>
struct EventAfter {
  bool operator()(const E& a, const E& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// `a` pops before `b`: ascending (time, seq).
template <typename E>
inline bool EventBefore(const E& a, const E& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

/// The retired std::priority_queue engine, kept as the golden oracle.
template <typename E>
class HeapEventQueue {
 public:
  bool empty() const { return queue_.empty(); }
  size_t size() const { return queue_.size(); }
  void Push(E event) { queue_.push(std::move(event)); }
  E Pop() {
    E event = queue_.top();
    queue_.pop();
    return event;
  }

 private:
  std::priority_queue<E, std::vector<E>, EventAfter<E>> queue_;
};

/// 4-ary implicit min-heap on (time, seq).
template <typename E>
class DaryEventHeap {
 public:
  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  /// The event the next Pop() returns; undefined on an empty heap.
  const E& Top() const { return heap_.front(); }

  void Push(E event) {
    heap_.push_back(std::move(event));
    SiftUp(heap_.size() - 1);
  }

  E Pop() {
    E top = std::move(heap_.front());
    E last = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_.front() = std::move(last);
      SiftDown(0);
    }
    return top;
  }

 private:
  static constexpr size_t kArity = 4;

  void SiftUp(size_t i) {
    while (i > 0) {
      size_t parent = (i - 1) / kArity;
      if (!EventBefore(heap_[i], heap_[parent])) break;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  void SiftDown(size_t i) {
    const size_t n = heap_.size();
    for (;;) {
      size_t first_child = i * kArity + 1;
      if (first_child >= n) break;
      size_t best = first_child;
      size_t last_child = std::min(first_child + kArity, n);
      for (size_t c = first_child + 1; c < last_child; ++c) {
        if (EventBefore(heap_[c], heap_[best])) best = c;
      }
      if (!EventBefore(heap_[best], heap_[i])) break;
      std::swap(heap_[i], heap_[best]);
      i = best;
    }
  }

  std::vector<E> heap_;
};

}  // namespace swim::sim

#endif  // SWIM_SIM_EVENT_QUEUE_H_
