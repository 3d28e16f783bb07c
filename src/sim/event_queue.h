#ifndef SWIM_SIM_EVENT_QUEUE_H_
#define SWIM_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

namespace swim::sim {

/// Pending-event queues for the replay engine. All of them implement the
/// same total order - ascending (time, seq), so simultaneous events pop
/// in FIFO submission order - and the same minimal interface:
///
///   void Push(E event);   // event.time must be >= the last popped time
///   E Pop();              // undefined on an empty queue
///   bool empty() / size_t size()
///
/// The element type E only needs public `double time` and `uint64_t seq`
/// members. DaryEventHeap and CalendarEventQueue additionally take an
/// allocator (default std::allocator) so the replay engine can back every
/// bucket and heap node with a per-lane Arena; HeapEventQueue stays
/// allocator-free, frozen in its golden-oracle role. Three
/// implementations:
///
///   HeapEventQueue:     std::priority_queue, O(log n) - the engine the
///                       simulator shipped with, retired to golden-oracle
///                       duty (property tests drive it and CalendarEventQueue
///                       with the same event stream and assert identical pop
///                       order).
///   DaryEventHeap:      4-ary implicit heap, O(log n) with a ~2x better
///                       constant than the binary heap (shallower tree,
///                       cache-friendly sift-down over 4 children).
///   CalendarEventQueue: Brown's calendar queue - amortized O(1)
///                       enqueue/dequeue when event times are spread over
///                       the bucket ring - which delegates to DaryEventHeap
///                       while the queue is small (sparse tails: the drain
///                       at the end of a replay, tiny traces), switching
///                       representation with hysteresis.

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
template <typename E, typename Alloc = std::allocator<E>>
class DaryEventHeap {
 public:
  DaryEventHeap() = default;
  explicit DaryEventHeap(const Alloc& alloc) : heap_(alloc) {}

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

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

  /// Moves the contents out (unordered); leaves the heap empty.
  std::vector<E, Alloc> TakeAll() {
    std::vector<E, Alloc> all = std::move(heap_);
    heap_.clear();
    return all;
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

  std::vector<E, Alloc> heap_;
};

/// Calendar queue (R. Brown, CACM 1988): events hash by time into a ring
/// of buckets of width `width_`; the dequeue cursor walks the ring one
/// bucket-width of simulated time per step, so when the bucket ring is
/// tuned to ~1 event per bucket both operations are amortized O(1) - no
/// log-depth sift per task batch. Differences from the textbook version,
/// driven by the replay engine's determinism contract:
///
///   - Buckets are vectors kept sorted ascending by (time, seq) with a
///     consumed-prefix head index, so the monotone (time, seq) pushes the
///     simulator produces append in O(1) and FIFO tie-breaks are exact.
///   - The cursor tracks the *virtual bucket number* (time / width as an
///     integer) rather than an accumulated floating-point year boundary,
///     so bucket membership is computed exactly the same way on enqueue
///     and dequeue - no drift, no misordered pops.
///   - A dequeue that scans a full ring without finding a due event jumps
///     the cursor straight to the earliest pending event (O(buckets)
///     direct search) instead of sweeping year by year - this is what
///     makes a week-long idle gap between two jobs cost one jump instead
///     of millions of empty bucket visits.
///   - Below `kHeapBelow` events the whole queue lives in a DaryEventHeap
///     (a bucket ring is all overhead when nearly empty); it migrates to
///     calendar form above `kCalendarAbove`. The thresholds are separated
///     so a queue oscillating around the boundary does not thrash.
///
/// Resize policy: the ring doubles when occupancy exceeds 2 events/bucket
/// and halves below 1/4, and the width is re-estimated from the live
/// event span on each rebuild - both deterministic functions of the queue
/// contents, so replay output cannot depend on allocation history.
template <typename E, typename Alloc = std::allocator<E>>
class CalendarEventQueue {
 public:
  CalendarEventQueue() = default;
  /// All internal storage — the small-queue heap, the bucket ring, and
  /// every bucket's item vector — allocates through (rebinds of) `alloc`.
  explicit CalendarEventQueue(const Alloc& alloc)
      : alloc_(alloc), heap_(alloc), buckets_(BucketAlloc(alloc)) {}

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  void Push(E event) {
    ++size_;
    if (heap_mode_) {
      heap_.Push(std::move(event));
      if (size_ > kCalendarAbove) SwitchToCalendar();
      return;
    }
    Insert(std::move(event));
    if (size_ > buckets_.size() * 2) Rebuild(buckets_.size() * 2);
  }

  E Pop() {
    --size_;
    if (heap_mode_) return heap_.Pop();
    E event = PopCalendar();
    if (size_ < kHeapBelow) {
      SwitchToHeap();
    } else if (size_ * 4 < buckets_.size() && buckets_.size() > kMinBuckets) {
      Rebuild(buckets_.size() / 2);
    }
    return event;
  }

 private:
  struct Bucket {
    std::vector<E, Alloc> items;
    size_t head = 0;  // items[0, head) already popped

    Bucket() = default;
    explicit Bucket(const Alloc& alloc) : items(alloc) {}

    bool IsEmpty() const { return head == items.size(); }
    const E& Front() const { return items[head]; }
  };

  using BucketAlloc =
      typename std::allocator_traits<Alloc>::template rebind_alloc<Bucket>;

  static constexpr size_t kHeapBelow = 48;
  static constexpr size_t kCalendarAbove = 96;
  static constexpr size_t kMinBuckets = 64;

  /// Virtual bucket number of `time`; clamped so extreme times cannot
  /// overflow the division into uint64 territory.
  uint64_t VirtualBucket(double time) const {
    double q = time / width_;
    if (q <= 0.0) return 0;
    if (q >= 9.0e18) return UINT64_C(9000000000000000000);
    return static_cast<uint64_t>(q);
  }

  size_t RingIndex(uint64_t virtual_bucket) const {
    return static_cast<size_t>(virtual_bucket & mask_);
  }

  void Insert(E event) {
    uint64_t vb = VirtualBucket(event.time);
    if (vb < cursor_vb_) cursor_vb_ = vb;  // never skip a late re-push
    Bucket& bucket = buckets_[RingIndex(vb)];
    if (bucket.IsEmpty() || !EventBefore(event, bucket.items.back())) {
      bucket.items.push_back(std::move(event));
      return;
    }
    auto pos = std::upper_bound(bucket.items.begin() + bucket.head,
                                bucket.items.end(), event, EventBefore<E>);
    bucket.items.insert(pos, std::move(event));
  }

  E TakeFront(Bucket& bucket) {
    E event = std::move(bucket.items[bucket.head]);
    ++bucket.head;
    if (bucket.IsEmpty()) {
      bucket.items.clear();
      bucket.head = 0;
    } else if (bucket.head > 64 && bucket.head * 2 > bucket.items.size()) {
      bucket.items.erase(bucket.items.begin(),
                         bucket.items.begin() + bucket.head);
      bucket.head = 0;
    }
    return event;
  }

  E PopCalendar() {
    const size_t n = buckets_.size();
    // One pass over the ring, advancing the virtual-bucket cursor: a
    // bucket's front is due iff it belongs to the cursor's virtual bucket
    // (events a full ring later hash to the same slot but a larger
    // virtual bucket number).
    for (size_t i = 0; i < n; ++i) {
      uint64_t vb = cursor_vb_ + i;
      Bucket& bucket = buckets_[RingIndex(vb)];
      if (!bucket.IsEmpty() && VirtualBucket(bucket.Front().time) == vb) {
        cursor_vb_ = vb;
        return TakeFront(bucket);
      }
    }
    // Nothing due within one full ring: an idle gap. Jump the cursor to
    // the earliest pending event (bucket fronts are per-bucket minima).
    size_t best = n;
    for (size_t j = 0; j < n; ++j) {
      if (buckets_[j].IsEmpty()) continue;
      if (best == n || EventBefore(buckets_[j].Front(),
                                   buckets_[best].Front())) {
        best = j;
      }
    }
    cursor_vb_ = VirtualBucket(buckets_[best].Front().time);
    return TakeFront(buckets_[best]);
  }

  static size_t NextPowerOfTwo(size_t value) {
    size_t result = 1;
    while (result < value) result *= 2;
    return result;
  }

  void InitBuckets(std::vector<E, Alloc> events, size_t bucket_count) {
    bucket_count = std::max(NextPowerOfTwo(bucket_count), kMinBuckets);
    // The prototype bucket carries the allocator; assign copies it (and
    // with it the arena) into every ring slot.
    buckets_.assign(bucket_count, Bucket(alloc_));
    mask_ = bucket_count - 1;
    // Width from the live span: ~1 event per virtual bucket keeps both
    // insert (short sorted runs) and pop (few empty visits) O(1).
    double lo = 0.0, hi = 0.0;
    if (!events.empty()) {
      lo = hi = events.front().time;
      for (const E& event : events) {
        lo = std::min(lo, event.time);
        hi = std::max(hi, event.time);
      }
    }
    double span = hi - lo;
    width_ = span > 0.0 ? span / static_cast<double>(events.size()) : 1.0;
    // Keep virtual bucket numbers well inside uint64 even for times far
    // from zero with a tiny span.
    width_ = std::max(width_, (std::abs(hi) + 1.0) * 1e-12);
    cursor_vb_ = VirtualBucket(lo);
    for (E& event : events) Insert(std::move(event));
  }

  void SwitchToCalendar() {
    heap_mode_ = false;
    InitBuckets(heap_.TakeAll(), size_);
  }

  void SwitchToHeap() {
    heap_mode_ = true;
    for (Bucket& bucket : buckets_) {
      for (size_t k = bucket.head; k < bucket.items.size(); ++k) {
        heap_.Push(std::move(bucket.items[k]));
      }
    }
    buckets_.clear();
    mask_ = 0;
  }

  void Rebuild(size_t bucket_count) {
    std::vector<E, Alloc> events(alloc_);
    events.reserve(size_);
    for (Bucket& bucket : buckets_) {
      for (size_t k = bucket.head; k < bucket.items.size(); ++k) {
        events.push_back(std::move(bucket.items[k]));
      }
    }
    InitBuckets(std::move(events), bucket_count);
  }

  bool heap_mode_ = true;
  size_t size_ = 0;
  Alloc alloc_;
  DaryEventHeap<E, Alloc> heap_;
  std::vector<Bucket, BucketAlloc> buckets_;
  size_t mask_ = 0;
  double width_ = 1.0;
  uint64_t cursor_vb_ = 0;
};

}  // namespace swim::sim

#endif  // SWIM_SIM_EVENT_QUEUE_H_
