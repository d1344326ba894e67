// Randomized differential test: the radix-heap Scheduler vs a tiny
// obviously-correct reference model, driven with identical schedule /
// schedule_at_ordered / reschedule / cancel / step / run_until sequences.
// The sequences deliberately include same-deadline bursts (exercising the
// (time, order, fifo) tie-break), far-future deadlines, reschedule churn in
// both directions, operations on already-fired ids, and callbacks that
// cancel or reschedule other pending events while they fire. Pop order must
// match event for event, and the buckets must hold exactly the pending events
// (queue_size() == pending()) after every operation.
//
// Runs plain, under ASan, and under TSan (see tests/CMakeLists.txt and
// scripts/check.sh).

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace mrmtp {
namespace {

using sim::Duration;
using sim::EventId;
using sim::Rng;
using sim::Scheduler;
using sim::Time;

/// Reference model: a flat map scanned for the minimum on every pop. O(n)
/// per operation and transparently correct — the property the radix heap is
/// checked against.
class ReferenceScheduler {
 public:
  void schedule(Time at, std::uint64_t order, std::uint64_t token) {
    pending_[token] = Ev{at.ns(), order, next_fifo_++};
  }

  bool reschedule(std::uint64_t token, Time at) {
    auto it = pending_.find(token);
    if (it == pending_.end()) return false;
    if (at < now_) at = now_;
    it->second.at_ns = at.ns();  // fifo survives, matching the Scheduler
    return true;
  }

  void cancel(std::uint64_t token) { pending_.erase(token); }

  /// Pops the (time, order, fifo) minimum; returns false when empty.
  bool pop(std::uint64_t& token_out, std::int64_t& at_out) {
    return pop_until(Time::from_ns(INT64_MAX), token_out, at_out);
  }

  bool pop_until(Time deadline, std::uint64_t& token_out,
                 std::int64_t& at_out) {
    if (pending_.empty()) return false;
    auto best = pending_.begin();
    for (auto it = std::next(best); it != pending_.end(); ++it) {
      if (before(it->second, best->second)) best = it;
    }
    if (best->second.at_ns > deadline.ns()) return false;
    token_out = best->first;
    at_out = best->second.at_ns;
    now_ = Time::from_ns(best->second.at_ns);
    pending_.erase(best);
    return true;
  }

  void advance_to(Time deadline) {
    if (deadline > now_) now_ = deadline;
  }

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] std::size_t size() const { return pending_.size(); }

 private:
  struct Ev {
    std::int64_t at_ns;
    std::uint64_t order;
    std::uint64_t fifo;
  };
  static bool before(const Ev& a, const Ev& b) {
    if (a.at_ns != b.at_ns) return a.at_ns < b.at_ns;
    if (a.order != b.order) return a.order < b.order;
    return a.fifo < b.fifo;
  }

  std::map<std::uint64_t, Ev> pending_;
  std::uint64_t next_fifo_ = 1;
  Time now_ = Time::zero();
};

/// What a firing event does to another pending event in the mid-callback
/// variant: cancel it, or reschedule it to now + `delay_ns` (negative aims
/// at the past and clamps to now).
struct SideEffect {
  std::size_t target;  // index into the fuzz run's id list
  bool cancel;
  std::int64_t delay_ns;
};

/// One event in three mutates another when it fires; the choice is a pure
/// function of the token so both schedulers apply the same effect.
std::optional<SideEffect> side_effect_of(std::uint64_t token,
                                         std::size_t n_ids) {
  std::uint64_t h = (token + 1) * 0x9e3779b97f4a7c15ull;
  h ^= h >> 31;
  if (n_ids == 0 || h % 3 != 0) return std::nullopt;
  static constexpr std::int64_t kDelays[] = {-1000, 0, 1, 5'000, 3'000'000,
                                             20'000'000'000};
  return SideEffect{static_cast<std::size_t>((h >> 8) % n_ids),
                    (h >> 40) % 4 == 0, kDelays[(h >> 20) % 6]};
}

/// Drives both schedulers through one random fuzz run and asserts identical
/// pop order, identical reschedule return values, and identical clocks. With
/// `callbacks_mutate`, firing callbacks also cancel and reschedule other
/// pending events, moving bucket entries while the scheduler is mid-pop.
void fuzz_run(std::uint64_t seed, int ops, bool callbacks_mutate = false) {
  Scheduler sched;
  ReferenceScheduler ref;
  Rng rng(seed);

  std::uint64_t next_token = 1;
  // token -> Scheduler EventId for every schedule that ever happened; stale
  // entries stay so cancel/reschedule also hit already-fired events.
  std::vector<std::pair<std::uint64_t, EventId>> ids;
  std::vector<std::uint64_t> sched_fired;
  std::vector<std::uint64_t> ref_fired;
  // reschedule() results of mid-callback side effects, in firing order.
  std::vector<bool> sched_effects;
  std::vector<bool> ref_effects;

  auto fire_sched = [&](std::uint64_t token) {
    sched_fired.push_back(token);
    if (!callbacks_mutate) return;
    std::optional<SideEffect> fx = side_effect_of(token, ids.size());
    if (!fx) return;
    EventId target = ids[fx->target].second;
    if (fx->cancel) {
      sched.cancel(target);
    } else {
      sched_effects.push_back(sched.reschedule(
          target, Time::from_ns(sched.now().ns() + fx->delay_ns)));
    }
    EXPECT_EQ(sched.queue_size(), sched.pending()) << "seed " << seed;
  };
  // Mirrors fire_sched on the reference after it pops `token`.
  auto fire_ref = [&](std::uint64_t token) {
    ref_fired.push_back(token);
    if (!callbacks_mutate) return;
    std::optional<SideEffect> fx = side_effect_of(token, ids.size());
    if (!fx) return;
    std::uint64_t target = ids[fx->target].first;
    if (fx->cancel) {
      ref.cancel(target);
    } else {
      ref_effects.push_back(ref.reschedule(
          target, Time::from_ns(ref.now().ns() + fx->delay_ns)));
    }
  };

  auto schedule_one = [&](Time at, std::uint64_t order) {
    std::uint64_t token = next_token++;
    EventId id = sched.schedule_at_ordered(
        at, order, [&fire_sched, token] { fire_sched(token); });
    ref.schedule(at, order, token);
    ids.emplace_back(token, id);
  };

  auto random_delay = [&]() -> Duration {
    switch (rng.below(6)) {
      case 0:
        return Duration{};  // same instant as now
      case 1:
        return Duration::nanos(rng.range(1, 50));
      case 2:
        return Duration::micros(rng.range(1, 500));
      case 3:
        return Duration::millis(rng.range(1, 50));
      case 4:  // far future: seconds to minutes past everything else
        return Duration::seconds(rng.range(10, 1000));
      default:
        return Duration::micros(rng.range(1, 20));
    }
  };

  for (int op = 0; op < ops; ++op) {
    switch (rng.below(10)) {
      case 0:
      case 1: {  // plain schedule (kUnordered key)
        schedule_one(sched.now() + random_delay(), Scheduler::kUnordered);
        break;
      }
      case 2: {  // keyed schedule, small key space so keys collide too
        schedule_one(sched.now() + random_delay(),
                     static_cast<std::uint64_t>(rng.below(8)));
        break;
      }
      case 3: {  // same-deadline burst, mixed keyed/plain
        Time at = sched.now() + random_delay();
        int n = static_cast<int>(rng.range(2, 12));
        for (int i = 0; i < n; ++i) {
          std::uint64_t order = rng.chance(0.5)
                                    ? Scheduler::kUnordered
                                    : static_cast<std::uint64_t>(rng.below(4));
          schedule_one(at, order);
        }
        break;
      }
      case 4: {  // reschedule a random (possibly fired) event
        if (ids.empty()) break;
        auto& [token, id] = ids[rng.below(ids.size())];
        Time at = sched.now() + random_delay();
        if (rng.chance(0.25)) {  // sometimes aim at the past (clamps to now)
          at = Time::from_ns(sched.now().ns() / 2);
        }
        ASSERT_EQ(sched.reschedule(id, at), ref.reschedule(token, at))
            << "seed " << seed << " op " << op;
        break;
      }
      case 5: {  // cancel a random (possibly fired) event
        if (ids.empty()) break;
        auto& [token, id] = ids[rng.below(ids.size())];
        sched.cancel(id);
        ref.cancel(token);
        break;
      }
      case 6:
      case 7: {  // step a few events
        int n = static_cast<int>(rng.range(1, 8));
        for (int i = 0; i < n; ++i) {
          std::uint64_t token = 0;
          std::int64_t at_ns = 0;
          bool ref_had = ref.pop(token, at_ns);
          if (ref_had) fire_ref(token);
          ASSERT_EQ(sched.step(), ref_had) << "seed " << seed << " op " << op;
          if (!ref_had) break;
          ASSERT_EQ(sched.now().ns(), at_ns) << "seed " << seed << " op " << op;
        }
        break;
      }
      case 8: {  // run_until a random horizon
        Time deadline = sched.now() + random_delay();
        sched.run_until(deadline);
        std::uint64_t token = 0;
        std::int64_t at_ns = 0;
        while (ref.pop_until(deadline, token, at_ns)) fire_ref(token);
        ref.advance_to(deadline);
        ASSERT_EQ(sched.now().ns(), ref.now().ns())
            << "seed " << seed << " op " << op;
        break;
      }
      default: {  // consistency checkpoint
        ASSERT_EQ(sched.pending(), ref.size()) << "seed " << seed << " op " << op;
        break;
      }
    }
    ASSERT_EQ(sched.queue_size(), sched.pending())
        << "seed " << seed << " op " << op;
    ASSERT_EQ(sched_effects, ref_effects) << "seed " << seed << " op " << op;
    ASSERT_EQ(sched_fired.size(), ref_fired.size())
        << "seed " << seed << " op " << op;
    if (!sched_fired.empty() && sched_fired.back() != ref_fired.back()) {
      FAIL() << "pop order diverged at seed " << seed << " op " << op
             << ": Scheduler fired " << sched_fired.back() << ", reference fired "
             << ref_fired.back();
    }
  }

  // Drain both completely and compare the full tail.
  for (;;) {
    std::uint64_t token = 0;
    std::int64_t at_ns = 0;
    bool ref_had = ref.pop(token, at_ns);
    if (ref_had) fire_ref(token);
    bool sched_had = sched.step();
    ASSERT_EQ(sched_had, ref_had) << "seed " << seed << " at drain";
    if (!ref_had) break;
    ASSERT_EQ(sched.now().ns(), at_ns) << "seed " << seed << " at drain";
    ASSERT_EQ(sched.queue_size(), sched.pending()) << "seed " << seed << " at drain";
  }
  ASSERT_EQ(sched_fired, ref_fired) << "seed " << seed;
  ASSERT_EQ(sched_effects, ref_effects) << "seed " << seed;
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.queue_size(), 0u);
}

TEST(SchedulerProperty, MatchesReferenceAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    fuzz_run(0x9e3779b97f4a7c15ull * seed + seed, 1500);
    if (HasFatalFailure()) return;
  }
}

TEST(SchedulerProperty, LongChurnSingleSeed) { fuzz_run(42, 20000); }

TEST(SchedulerProperty, CallbacksCancelAndRescheduleOthers) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    fuzz_run(0xc2b2ae3d27d4eb4full * seed + seed, 1500,
             /*callbacks_mutate=*/true);
    if (HasFatalFailure() || HasNonfatalFailure()) return;
  }
}

TEST(SchedulerProperty, SameDeadlineBurstKeyedBeforePlain) {
  // A keyed event scheduled *after* a plain one at the same instant must
  // still pop first: the sharded engine relies on keyed-before-plain being
  // invariant under insert order.
  Scheduler sched;
  std::vector<int> fired;
  Time at = Time::from_ns(1000);
  sched.schedule_at(at, [&] { fired.push_back(100); });
  sched.schedule_at_ordered(at, 7, [&] { fired.push_back(7); });
  sched.schedule_at_ordered(at, 3, [&] { fired.push_back(3); });
  sched.schedule_at(at, [&] { fired.push_back(101); });
  sched.run();
  EXPECT_EQ(fired, (std::vector<int>{3, 7, 100, 101}));
}

TEST(SchedulerProperty, FarFutureDeadlinesKeepOrder) {
  // Deadlines spread over hours around ~1 s clusters: popping across the
  // gaps must preserve order exactly.
  Scheduler sched;
  Rng rng(7);
  ReferenceScheduler ref;
  std::vector<std::uint64_t> sched_fired;
  std::vector<std::uint64_t> ref_fired;
  for (std::uint64_t token = 1; token <= 2000; ++token) {
    Time at =
        Time::from_ns(rng.range(0, 1ll << 30) +
                      rng.range(0, 3) * 3'600'000'000'000ll);
    sched.schedule_at(at, [&sched_fired, token] { sched_fired.push_back(token); });
    ref.schedule(at, Scheduler::kUnordered, token);
  }
  while (sched.step()) {
    ASSERT_EQ(sched.queue_size(), sched.pending());
  }
  std::uint64_t token = 0;
  std::int64_t at_ns = 0;
  while (ref.pop(token, at_ns)) ref_fired.push_back(token);
  EXPECT_EQ(sched_fired, ref_fired);
}

// Targeted cases for the radix heap: each pins one way a monotone bucket
// queue can pop out of (time, order, fifo) order.

TEST(SchedulerProperty, InsertAfterRunUntilStopsShortOfNextEvent) {
  // run_until fires the event at 100 and stops short of the one at 1000;
  // only a pop may settle the queue on 1000, so an insert at 600 must still
  // fire first.
  Scheduler sched;
  std::vector<int> fired;
  sched.schedule_at(Time::from_ns(100), [&] { fired.push_back(100); });
  sched.schedule_at(Time::from_ns(1000), [&] { fired.push_back(1000); });
  sched.run_until(Time::from_ns(500));
  EXPECT_EQ(fired, (std::vector<int>{100}));
  EXPECT_EQ(sched.next_time(), Time::from_ns(1000));
  sched.schedule_at(Time::from_ns(600), [&] { fired.push_back(600); });
  EXPECT_EQ(sched.next_time(), Time::from_ns(600));
  sched.run();
  EXPECT_EQ(fired, (std::vector<int>{100, 600, 1000}));
}

TEST(SchedulerProperty, NextTimeThenEarlierInsert) {
  // A peek leaves the clock and the queue alone: after next_time() reports
  // 1000, inserts at 500 and at now() still come first.
  Scheduler sched;
  std::vector<int> fired;
  sched.schedule_at(Time::from_ns(1000), [&] { fired.push_back(1000); });
  ASSERT_EQ(sched.next_time(), Time::from_ns(1000));
  sched.schedule_at(Time::from_ns(500), [&] { fired.push_back(500); });
  ASSERT_EQ(sched.next_time(), Time::from_ns(500));
  sched.schedule_at(Time::zero(), [&] { fired.push_back(0); });
  ASSERT_EQ(sched.next_time(), Time::zero());
  sched.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 500, 1000}));
}

TEST(SchedulerProperty, RescheduleIntoCurrentGroupKeepsOldFifo) {
  // Four plain events share t = 1000. X, scheduled before all of them for
  // t = 5000, is pulled back to now() by the group's first event: its older
  // insertion sequence puts it ahead of the group's rest.
  Scheduler sched;
  std::vector<int> fired;
  const Time t = Time::from_ns(1000);
  EventId x = sched.schedule_at(Time::from_ns(5000), [&] { fired.push_back(9); });
  sched.schedule_at(t, [&] {
    fired.push_back(1);
    EXPECT_TRUE(sched.reschedule(x, sched.now()));
  });
  for (int label = 2; label <= 4; ++label) {
    sched.schedule_at(t, [&fired, label] { fired.push_back(label); });
  }
  sched.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 9, 2, 3, 4}));
}

TEST(SchedulerProperty, CancelInsideCurrentGroupKeepsOrder) {
  // The group's first event cancels its second: the rest fire in insertion
  // order, not with the last one moved into the hole.
  Scheduler sched;
  std::vector<int> fired;
  const Time t = Time::from_ns(1000);
  EventId second{};
  sched.schedule_at(t, [&] {
    fired.push_back(1);
    sched.cancel(second);
  });
  second = sched.schedule_at(t, [&] { fired.push_back(2); });
  for (int label = 3; label <= 6; ++label) {
    sched.schedule_at(t, [&fired, label] { fired.push_back(label); });
  }
  sched.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 3, 4, 5, 6}));
  EXPECT_TRUE(sched.empty());
}

TEST(SchedulerProperty, KeyedEventsReachGroupOutOfKeyOrder) {
  // Keyed events for one instant arrive in descending key order, some by
  // reschedule from other times, and settle into the group together: they
  // fire in key order, then the plain ones in insertion order.
  Scheduler sched;
  std::vector<int> fired;
  const Time t = Time::from_ns(1 << 20);
  auto keyed = [&](Time at, std::uint64_t key) {
    return sched.schedule_at_ordered(
        at, key, [&fired, key] { fired.push_back(static_cast<int>(key)); });
  };
  sched.schedule_at(t, [&] { fired.push_back(100); });
  keyed(t, 9);
  EventId late = keyed(Time::from_ns(1 << 22), 5);
  keyed(t, 7);
  EventId early = keyed(Time::from_ns(1 << 10), 2);
  sched.schedule_at(t, [&] { fired.push_back(101); });
  keyed(t, 3);
  ASSERT_TRUE(sched.reschedule(late, t));
  ASSERT_TRUE(sched.reschedule(early, t));
  sched.run();
  EXPECT_EQ(fired, (std::vector<int>{2, 3, 5, 7, 9, 100, 101}));
}

TEST(SchedulerProperty, DeadlinesPast2To62Nanoseconds) {
  // Times whose top bits differ from the clock's land in the highest
  // buckets; they must still pop in order, ties included, up to the last
  // representable instant.
  Scheduler sched;
  ReferenceScheduler ref;
  std::vector<std::uint64_t> sched_fired;
  std::vector<std::uint64_t> ref_fired;
  constexpr std::int64_t k62 = std::int64_t{1} << 62;
  const std::int64_t times[] = {INT64_MAX,     k62,           k62 + 1,
                                INT64_MAX - 1, k62 + (1ll << 40), 7,
                                INT64_MAX,     k62,           (1ll << 61) + 3};
  std::uint64_t token = 0;
  for (std::int64_t at : times) {
    ++token;
    const std::uint64_t key = token % 3 == 0 ? token : Scheduler::kUnordered;
    sched.schedule_at_ordered(Time::from_ns(at), key, [&sched_fired, token] {
      sched_fired.push_back(token);
    });
    ref.schedule(Time::from_ns(at), key, token);
  }
  sched.run_until(Time::from_ns(k62));
  EXPECT_EQ(sched.now(), Time::from_ns(k62));
  EXPECT_EQ(sched.pending(), 5u);
  sched.run_until(Time::from_ns(INT64_MAX));
  EXPECT_TRUE(sched.empty());
  std::int64_t at_ns = 0;
  while (ref.pop(token, at_ns)) ref_fired.push_back(token);
  EXPECT_EQ(sched_fired, ref_fired);
  EXPECT_EQ(sched_fired.front(), 6u);  // t = 7
  EXPECT_EQ(sched_fired.back(), 7u);   // INT64_MAX, plain, inserted last
}

}  // namespace
}  // namespace mrmtp
