// Awaitable primitives: Trigger, Semaphore, CountBarrier, Channel edge cases.
#include <gtest/gtest.h>

#include <vector>

#include "sim/awaitables.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "sim/ring.hpp"

namespace gcr::sim {
namespace {

Co<void> delay_then_mark(Engine& eng, Time dt, std::vector<int>* log,
                         int mark) {
  co_await delay(eng, dt);
  log->push_back(mark);
}

TEST(Delay, ZeroStillYieldsThroughQueue) {
  // dt == 0 is a fairness point: the resumption goes through the event
  // queue, so same-time work scheduled earlier runs first.
  Engine eng;
  std::vector<int> log;
  eng.spawn("z", delay_then_mark(eng, 0, &log, 1));
  eng.call_at(0, [&] { log.push_back(0); });
  eng.run();
  // The spawn's start event runs, suspends on delay(0); the callback
  // (scheduled before the zero-delay resume) runs next; the mark last.
  EXPECT_EQ(log, (std::vector<int>{0, 1}));
  EXPECT_EQ(eng.now(), 0);
}

TEST(Delay, OneTickBoundaryOrdersAfterZero) {
  Engine eng;
  std::vector<int> log;
  eng.spawn("one", delay_then_mark(eng, 1, &log, 1));
  eng.spawn("zero", delay_then_mark(eng, 0, &log, 0));
  eng.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1}));  // 0-tick before 1-tick
  EXPECT_EQ(eng.now(), 1);
}

TEST(DelayDeathTest, NegativeDurationAborts) {
  Engine eng;
  EXPECT_DEATH({ Delay bad(eng, -1); }, "negative Delay duration");
}

Co<void> wait_trigger(Trigger& t, int* out) {
  co_await t.wait();
  *out += 1;
}

TEST(Trigger, BroadcastsToAllWaiters) {
  Engine eng;
  Trigger t(eng);
  int woken = 0;
  for (int i = 0; i < 5; ++i) eng.spawn("w", wait_trigger(t, &woken));
  eng.call_at(1_ms, [&] { t.fire(); });
  eng.run();
  EXPECT_EQ(woken, 5);
}

TEST(Trigger, AlreadyFiredReturnsImmediately) {
  Engine eng;
  Trigger t(eng);
  t.fire();
  int woken = 0;
  eng.spawn("w", wait_trigger(t, &woken));
  eng.run();
  EXPECT_EQ(woken, 1);
}

TEST(Trigger, ResetReArms) {
  Engine eng;
  Trigger t(eng);
  t.fire();
  t.reset();
  int woken = 0;
  eng.spawn("w", wait_trigger(t, &woken));
  eng.run();
  EXPECT_EQ(woken, 0);  // still suspended
  t.fire();
  eng.run();
  EXPECT_EQ(woken, 1);
}

Co<void> hold_resource(Engine& eng, Semaphore& sem, Time hold,
                       std::vector<int>* order, int id) {
  co_await sem.acquire();
  ScopedPermit permit(sem);
  order->push_back(id);
  co_await delay(eng, hold);
}

TEST(Semaphore, SerializesFifo) {
  Engine eng;
  Semaphore sem(eng, 1);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    eng.spawn("h", hold_resource(eng, sem, 10_ms, &order, i));
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(eng.now(), 40_ms);  // fully serialized
  EXPECT_EQ(sem.available(), 1);
}

TEST(Semaphore, MultiplePermitsOverlap) {
  Engine eng;
  Semaphore sem(eng, 2);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    eng.spawn("h", hold_resource(eng, sem, 10_ms, &order, i));
  }
  eng.run();
  EXPECT_EQ(eng.now(), 20_ms);  // two at a time
  EXPECT_EQ(sem.available(), 2);
}

TEST(Semaphore, KilledHolderReleasesPermit) {
  Engine eng;
  Semaphore sem(eng, 1);
  std::vector<int> order;
  auto victim = eng.spawn("v", hold_resource(eng, sem, 1000_s, &order, 0));
  eng.spawn("h", hold_resource(eng, sem, 10_ms, &order, 1));
  eng.call_at(5_ms, [&] { eng.kill(*victim); });
  eng.run(1_s);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));  // 1 ran after the kill
  EXPECT_EQ(sem.available(), 1);
}

TEST(Semaphore, KilledQueuedWaiterSkipped) {
  Engine eng;
  Semaphore sem(eng, 1);
  std::vector<int> order;
  eng.spawn("a", hold_resource(eng, sem, 10_ms, &order, 0));
  auto queued = eng.spawn("q", hold_resource(eng, sem, 10_ms, &order, 1));
  eng.spawn("b", hold_resource(eng, sem, 10_ms, &order, 2));
  eng.call_at(1_ms, [&] { eng.kill(*queued); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_EQ(sem.available(), 1);
}

Co<void> barrier_party(Engine& eng, CountBarrier& bar, Time arrive_at,
                       std::vector<Time>* done) {
  co_await delay(eng, arrive_at);
  co_await bar.arrive_and_wait();
  done->push_back(eng.now());
}

TEST(CountBarrier, ReleasesTogetherAtLastArrival) {
  Engine eng;
  CountBarrier bar(eng, 3);
  std::vector<Time> done;
  eng.spawn("a", barrier_party(eng, bar, 1_ms, &done));
  eng.spawn("b", barrier_party(eng, bar, 5_ms, &done));
  eng.spawn("c", barrier_party(eng, bar, 9_ms, &done));
  eng.run();
  ASSERT_EQ(done.size(), 3u);
  for (Time t : done) EXPECT_EQ(t, 9_ms);
}

TEST(CountBarrier, ReusableAcrossGenerations) {
  Engine eng;
  CountBarrier bar(eng, 2);
  std::vector<Time> done;
  auto party = [](Engine& e, CountBarrier& b, std::vector<Time>* d,
                  Time stagger) -> Co<void> {
    for (int round = 0; round < 3; ++round) {
      co_await delay(e, stagger);
      co_await b.arrive_and_wait();
      d->push_back(e.now());
    }
  };
  eng.spawn("a", party(eng, bar, &done, 1_ms));
  eng.spawn("b", party(eng, bar, &done, 2_ms));
  eng.run();
  EXPECT_EQ(done.size(), 6u);  // three rounds, both released each time
}

Co<void> pop_n(Channel<int>& ch, int n, std::vector<int>* out) {
  for (int i = 0; i < n; ++i) out->push_back(co_await ch.pop());
}

TEST(Channel, BufferedValuesFifo) {
  Engine eng;
  Channel<int> ch(eng);
  for (int i = 0; i < 5; ++i) ch.push(i);
  std::vector<int> out;
  eng.spawn("c", pop_n(ch, 5, &out));
  eng.run();
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Channel, WaitersServedFifo) {
  Engine eng;
  Channel<int> ch(eng);
  std::vector<int> a, b;
  eng.spawn("a", pop_n(ch, 1, &a));
  eng.spawn("b", pop_n(ch, 1, &b));
  eng.call_at(1_ms, [&] {
    ch.push(10);
    ch.push(20);
  });
  eng.run();
  EXPECT_EQ(a, (std::vector<int>{10}));
  EXPECT_EQ(b, (std::vector<int>{20}));
}

TEST(Channel, ClearDropsBuffered) {
  Engine eng;
  Channel<int> ch(eng);
  ch.push(1);
  ch.push(2);
  ch.clear();
  EXPECT_TRUE(ch.empty());
}

std::vector<int> ring_contents(const Ring<int>& r) {
  std::vector<int> out;
  for (std::size_t i = 0; i < r.size(); ++i) out.push_back(r[i]);
  return out;
}

TEST(Ring, FifoAcrossWrapAndGrowth) {
  Ring<int> r;
  int next = 0;
  int expect = 0;
  // Interleave pushes and pops so the head wraps before each growth.
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 5 + round; ++i) r.push_back(next++);
    for (int i = 0; i < 3; ++i) EXPECT_EQ(r.pop_front(), expect++);
  }
  while (!r.empty()) EXPECT_EQ(r.pop_front(), expect++);
  EXPECT_EQ(expect, next);
}

TEST(Ring, EraseKeepsTheOrderOfTheRest) {
  Ring<int> r;
  for (int i = 0; i < 6; ++i) r.push_back(i);
  (void)r.pop_front();
  (void)r.pop_front();
  for (int i = 6; i < 9; ++i) r.push_back(i);  // wraps past the end
  r.erase(3);                                   // element 5
  EXPECT_EQ(ring_contents(r), (std::vector<int>{2, 3, 4, 6, 7, 8}));
  r.erase(0);
  EXPECT_EQ(ring_contents(r), (std::vector<int>{3, 4, 6, 7, 8}));
  r.erase(r.size() - 1);
  EXPECT_EQ(ring_contents(r), (std::vector<int>{3, 4, 6, 7}));
  r.clear();
  EXPECT_TRUE(r.empty());
  r.push_back(42);  // usable again after a clear released a grown buffer
  EXPECT_EQ(r.pop_front(), 42);
}

}  // namespace
}  // namespace gcr::sim
