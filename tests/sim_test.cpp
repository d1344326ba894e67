// Unit tests: simulation time, scheduler ordering/cancellation, timers, RNG.
#include <gtest/gtest.h>

#include <algorithm>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace mrmtp::sim {
namespace {

TEST(TimeTest, DurationConversions) {
  EXPECT_EQ(Duration::millis(3).ns(), 3'000'000);
  EXPECT_EQ(Duration::micros(5).ns(), 5'000);
  EXPECT_EQ(Duration::seconds(2).ns(), 2'000'000'000);
  EXPECT_DOUBLE_EQ(Duration::millis(1500).to_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(Duration::seconds_f(0.25).to_millis(), 250.0);
}

TEST(TimeTest, Arithmetic) {
  Time t = Time::zero() + Duration::millis(10);
  EXPECT_EQ((t - Time::zero()).ns(), Duration::millis(10).ns());
  EXPECT_EQ((t + Duration::millis(5)).ns(), 15'000'000);
  EXPECT_EQ((Duration::millis(10) * 3).ns(), Duration::millis(30).ns());
  EXPECT_EQ((Duration::millis(10) / 2).ns(), Duration::millis(5).ns());
  EXPECT_LT(Time::zero(), t);
}

TEST(TimeTest, Rendering) {
  EXPECT_EQ(Duration::nanos(500).str(), "500ns");
  EXPECT_EQ(Duration::millis(3).str(), "3ms");
  EXPECT_EQ(Time::from_ns(1'500'000'000).str(), "1.500000s");
}

TEST(SchedulerTest, FiresInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(Time::from_ns(300), [&] { order.push_back(3); });
  sched.schedule_at(Time::from_ns(100), [&] { order.push_back(1); });
  sched.schedule_at(Time::from_ns(200), [&] { order.push_back(2); });
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now().ns(), 300);
}

TEST(SchedulerTest, TiesFireInInsertionOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(Time::from_ns(50), [&order, i] { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SchedulerTest, CancelPreventsFiring) {
  Scheduler sched;
  bool fired = false;
  EventId id = sched.schedule_after(Duration::millis(1), [&] { fired = true; });
  sched.cancel(id);
  sched.run();
  EXPECT_FALSE(fired);
}

TEST(SchedulerTest, CancelIsIdempotent) {
  Scheduler sched;
  EventId id = sched.schedule_after(Duration::millis(1), [] {});
  sched.cancel(id);
  sched.cancel(id);
  sched.cancel(EventId{});
  EXPECT_TRUE(sched.run());
}

TEST(SchedulerTest, SchedulingInThePastThrows) {
  Scheduler sched;
  sched.schedule_at(Time::from_ns(100), [] {});
  sched.run();
  EXPECT_THROW(sched.schedule_at(Time::from_ns(50), [] {}), std::logic_error);
}

TEST(SchedulerTest, NegativeDelayClampsToNow) {
  Scheduler sched;
  bool fired = false;
  sched.schedule_after(Duration::millis(-5), [&] { fired = true; });
  sched.run();
  EXPECT_TRUE(fired);
}

TEST(SchedulerTest, RunUntilAdvancesClockToDeadline) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(Time::from_ns(100), [&] { ++fired; });
  sched.schedule_at(Time::from_ns(900), [&] { ++fired; });
  sched.run_until(Time::from_ns(500));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now().ns(), 500);
  sched.run_until(Time::from_ns(1000));
  EXPECT_EQ(fired, 2);
}

TEST(SchedulerTest, EventsScheduledDuringEventsFire) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sched.schedule_after(Duration::nanos(10), recurse);
  };
  sched.schedule_after(Duration::nanos(10), recurse);
  sched.run();
  EXPECT_EQ(depth, 5);
}

TEST(SchedulerTest, MaxEventsGuardTrips) {
  Scheduler sched;
  std::function<void()> forever = [&] {
    sched.schedule_after(Duration::nanos(1), forever);
  };
  sched.schedule_after(Duration::nanos(1), forever);
  EXPECT_FALSE(sched.run(1000));
  EXPECT_EQ(sched.events_fired(), 1000u);
}

TEST(SchedulerTest, RescheduleMovesDeadlineLater) {
  Scheduler sched;
  std::vector<int> order;
  EventId moved =
      sched.schedule_at(Time::from_ns(100), [&] { order.push_back(1); });
  sched.schedule_at(Time::from_ns(200), [&] { order.push_back(2); });
  EXPECT_TRUE(sched.reschedule(moved, Time::from_ns(300)));
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(sched.now().ns(), 300);
}

TEST(SchedulerTest, RescheduleMovesDeadlineEarlier) {
  Scheduler sched;
  std::vector<int> order;
  EventId moved =
      sched.schedule_at(Time::from_ns(500), [&] { order.push_back(1); });
  sched.schedule_at(Time::from_ns(200), [&] { order.push_back(2); });
  EXPECT_TRUE(sched.reschedule(moved, Time::from_ns(100)));
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SchedulerTest, RescheduleAfterFireOrCancelFails) {
  Scheduler sched;
  EventId fired = sched.schedule_at(Time::from_ns(10), [] {});
  EventId cancelled = sched.schedule_at(Time::from_ns(20), [] {});
  sched.cancel(cancelled);
  sched.run();
  EXPECT_FALSE(sched.reschedule(fired, Time::from_ns(100)));
  EXPECT_FALSE(sched.reschedule(cancelled, Time::from_ns(100)));
  EXPECT_FALSE(sched.reschedule(EventId{}, Time::from_ns(100)));
}

TEST(SchedulerTest, ReschedulePastClampsToNow) {
  Scheduler sched;
  sched.schedule_at(Time::from_ns(100), [] {});
  sched.run();
  bool fired = false;
  EventId id = sched.schedule_at(Time::from_ns(500), [&] { fired = true; });
  EXPECT_TRUE(sched.reschedule(id, Time::from_ns(50)));  // in the past
  sched.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sched.now().ns(), 100);
}

/// The bounded-queue invariant: no matter how hot the reschedule or cancel
/// churn, the event queue never outgrows max(64, 4 x live events).
std::size_t queue_bound(const Scheduler& sched) {
  return std::max<std::size_t>(64, 4 * sched.pending());
}

TEST(SchedulerTest, MillionReschedulesBoundQueueGrowth) {
  Scheduler sched;
  // One background event per "router" plus the churning dead-timer event.
  for (int i = 0; i < 16; ++i) {
    sched.schedule_at(Time::from_ns(2'000'000'000), [] {});
  }
  bool fired = false;
  EventId dead = sched.schedule_at(Time::from_ns(1'000'000'000),
                                   [&] { fired = true; });
  // A keep-alive per simulated frame: alternate bump-later and pull-earlier
  // so both reschedule paths run at full churn.
  for (std::int64_t i = 0; i < 1'000'000; ++i) {
    std::int64_t at = 1'000'000'000 + ((i % 2 == 0) ? i : -i);
    ASSERT_TRUE(sched.reschedule(dead, Time::from_ns(at)));
    ASSERT_LE(sched.queue_size(), queue_bound(sched)) << "at churn step " << i;
  }
  EXPECT_EQ(sched.reschedules(), 1'000'000u);
  EXPECT_LE(sched.queue_high_water(), queue_bound(sched));
  sched.run();
  EXPECT_TRUE(fired);
}

TEST(SchedulerTest, CancelChurnCompactsQueue) {
  Scheduler sched;
  for (int round = 0; round < 100; ++round) {
    std::vector<EventId> ids;
    for (int i = 0; i < 100; ++i) {
      ids.push_back(sched.schedule_after(Duration::millis(i + 1), [] {}));
    }
    for (EventId id : ids) sched.cancel(id);
    ASSERT_LE(sched.queue_size(), queue_bound(sched)) << "round " << round;
  }
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_TRUE(sched.empty());
}

TEST(SchedulerTest, RescheduledEventFiresExactlyOnce) {
  Scheduler sched;
  int fires = 0;
  EventId id = sched.schedule_at(Time::from_ns(100), [&] { ++fires; });
  // Pull earlier several times: the event must fire once, at the last
  // deadline.
  for (std::int64_t at : {90, 80, 70, 60}) {
    ASSERT_TRUE(sched.reschedule(id, Time::from_ns(at)));
  }
  sched.run();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(sched.now().ns(), 60);
}

TEST(TimerTest, OneShotFiresOnce) {
  Scheduler sched;
  int fires = 0;
  Timer t(sched, [&] { ++fires; });
  t.start(Duration::millis(1));
  sched.run_until(Time::from_ns(Duration::millis(10).ns()));
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(t.running());
}

TEST(TimerTest, PeriodicFiresRepeatedly) {
  Scheduler sched;
  int fires = 0;
  Timer t(sched, [&] { ++fires; });
  t.start_periodic(Duration::millis(1));
  sched.run_until(Time::from_ns(Duration::micros(5500).ns()));
  EXPECT_EQ(fires, 5);
  t.stop();
  sched.run_until(Time::from_ns(Duration::millis(10).ns()));
  EXPECT_EQ(fires, 5);
}

TEST(TimerTest, RestartPostponesExpiry) {
  Scheduler sched;
  int fires = 0;
  Timer dead(sched, [&] { ++fires; });
  dead.start(Duration::millis(10));
  // Keep restarting before expiry — like keep-alives resetting a dead timer.
  for (int i = 1; i <= 5; ++i) {
    sched.schedule_at(Time::from_ns(Duration::millis(i * 8).ns()),
                      [&] { dead.restart(); });
  }
  sched.run_until(Time::from_ns(Duration::millis(45).ns()));
  EXPECT_EQ(fires, 0);
  sched.run_until(Time::from_ns(Duration::millis(60).ns()));
  EXPECT_EQ(fires, 1);
}

TEST(TimerTest, StopInsideCallbackOfOtherTimerIsSafe) {
  Scheduler sched;
  auto t2 = std::make_unique<Timer>(sched, [] { FAIL() << "must not fire"; });
  Timer t1(sched, [&] { t2->stop(); });
  t1.start(Duration::millis(1));
  t2->start(Duration::millis(2));
  sched.run_until(Time::from_ns(Duration::millis(5).ns()));
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.range(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformRoughlyBalanced) {
  Rng rng(11);
  double sum = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.fork();
  EXPECT_NE(a.next(), child.next());
}

}  // namespace
}  // namespace mrmtp::sim
