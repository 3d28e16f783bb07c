// Property tests for the replay engine's event queue (sim/event_queue.h):
// the 4-ary heap is driven with the same event streams as the retired
// std::priority_queue (the golden oracle) and must produce the exact same
// pop order - including FIFO order within same-timestamp bursts, which is
// what the replay engine's determinism contract hangs on - and Top() must
// always show the event the next Pop() returns.
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "sim/event_queue.h"

namespace swim::sim {
namespace {

struct TestEvent {
  double time = 0.0;
  uint64_t seq = 0;
  uint32_t payload = 0;
};

/// Pops everything, checking Top() against each Pop().
std::vector<TestEvent> Drain(DaryEventHeap<TestEvent>& heap) {
  std::vector<TestEvent> order;
  order.reserve(heap.size());
  while (!heap.empty()) {
    const TestEvent top = heap.Top();
    order.push_back(heap.Pop());
    EXPECT_EQ(top.seq, order.back().seq) << "Top() disagrees with Pop()";
  }
  return order;
}

std::vector<TestEvent> Drain(HeapEventQueue<TestEvent>& queue) {
  std::vector<TestEvent> order;
  order.reserve(queue.size());
  while (!queue.empty()) order.push_back(queue.Pop());
  return order;
}

void ExpectSameOrder(const std::vector<TestEvent>& got,
                     const std::vector<TestEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].seq, want[i].seq) << "divergence at pop " << i;
    ASSERT_EQ(got[i].time, want[i].time) << "divergence at pop " << i;
    ASSERT_EQ(got[i].payload, want[i].payload) << "divergence at pop " << i;
  }
}

/// Replay-shaped stream: the queue is drained in time order while new
/// events land at or after the current simulated time (discrete-event
/// causality), with occasional same-timestamp bursts.
template <typename MakeTime>
void RunInterleavedAgainstOracle(size_t total_events, uint64_t seed,
                                 MakeTime&& next_time) {
  Pcg32 rng(seed, /*stream=*/0x0e51);
  HeapEventQueue<TestEvent> oracle;
  DaryEventHeap<TestEvent> dary;
  uint64_t seq = 0;
  double now = 0.0;
  size_t pushed = 0;
  std::vector<TestEvent> oracle_order, dary_order;
  while (pushed < total_events || !oracle.empty()) {
    bool push = pushed < total_events &&
                (oracle.empty() || rng.NextBernoulli(0.55));
    if (push) {
      // Bursts: with probability 1/4 the event reuses the current time
      // exactly, otherwise it lands strictly in the future.
      double time = rng.NextBernoulli(0.25) ? now : next_time(rng, now);
      TestEvent event{time, seq, static_cast<uint32_t>(seq * 2654435761u)};
      ++seq;
      ++pushed;
      oracle.Push(event);
      dary.Push(event);
    } else {
      ASSERT_EQ(oracle.size(), dary.size());
      TestEvent expected = oracle.Pop();
      now = expected.time;  // simulated clock advances to the pop
      oracle_order.push_back(expected);
      const TestEvent top = dary.Top();
      dary_order.push_back(dary.Pop());
      ASSERT_EQ(top.seq, dary_order.back().seq)
          << "Top() disagrees with Pop()";
    }
  }
  ExpectSameOrder(dary_order, oracle_order);
}

TEST(EventQueueTest, HundredThousandRandomEventsMatchOracle) {
  RunInterleavedAgainstOracle(100000, 20120417, [](Pcg32& rng, double now) {
    return now + rng.NextDouble(0.0, 500.0);
  });
}

TEST(EventQueueTest, SameTimestampBurstsPopInFifoOrder) {
  // Heavy bursts: only ~200 distinct timestamps across 100k events, so
  // hundreds of events share each time and FIFO (seq) order carries the
  // whole ordering. Integer-valued times also maximize exact collisions.
  RunInterleavedAgainstOracle(100000, 19880204, [](Pcg32& rng, double now) {
    return now + static_cast<double>(rng.NextInt(1, 3));
  });
}

TEST(EventQueueTest, IdleGapsAndFarFuturePushes) {
  // Clustered events separated by gaps up to a simulated month, so the
  // heap drains nearly empty between clusters and far-future events sit
  // under a churning near-term front.
  RunInterleavedAgainstOracle(50000, 6021023, [](Pcg32& rng, double now) {
    if (rng.NextBernoulli(0.01)) {
      return now + rng.NextDouble(1e5, 30.0 * 86400.0);  // gap
    }
    return now + rng.NextDouble(0.0, 60.0);  // cluster
  });
}

TEST(EventQueueTest, MonotonePushThenFullDrain) {
  // Everything pushed up front in (time, seq) order, then drained.
  HeapEventQueue<TestEvent> oracle;
  DaryEventHeap<TestEvent> dary;
  Pcg32 rng(404, /*stream=*/0x0e52);
  double time = 0.0;
  for (uint64_t i = 0; i < 20000; ++i) {
    time += rng.NextDouble(0.0, 10.0);
    TestEvent event{time, i, static_cast<uint32_t>(i)};
    oracle.Push(event);
    dary.Push(event);
  }
  std::vector<TestEvent> oracle_order = Drain(oracle);
  std::vector<TestEvent> dary_order = Drain(dary);
  ExpectSameOrder(dary_order, oracle_order);
}

}  // namespace
}  // namespace swim::sim
