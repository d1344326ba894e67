// Discrete-event scheduler.
//
// Events pop in (time, order key, insertion sequence) order; plain events
// carry the maximal order key, so same-instant plain events fire in
// insertion order and every run stays bit-reproducible. Keyed events
// (schedule_at_ordered) let the sharded engine break same-instant ties by a
// sharding-invariant key instead of by which scheduler happened to see the
// insert first.
//
// Layout: a monotone radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, JACM 1990)
// over event times. The clock never runs backwards, so every pending time is
// >= a settled `base_`, and an event sits in bucket bit_width(time ^ base_):
// bucket 0 holds the events at `base_`, bucket b > 0 those whose time first
// differs from `base_` at bit b - 1. Callbacks and keys live in a slab of
// Slots (freelist-recycled, with a generation counter so EventIds stay O(1)
// to validate); buckets hold slot indices, and every Slot records its index
// in its bucket:
//   * schedule and reschedule (which keeps the insertion sequence) append to
//     a bucket, cancel swap-removes from one: O(1).
//   * Bucket 0 is the current same-instant group, kept sorted by (order,
//     insertion sequence) and popped front to back; an insert, reschedule or
//     cancel there keeps it sorted. When it runs dry, a pop settles `base_`
//     on the minimum of the lowest non-empty bucket and re-deals that bucket
//     into strictly lower ones. An event moves down at most 63 times in its
//     life, so a pop is O(1) amortized.
//   * Only a pop settles. next_time() reads a per-bucket minimum and leaves
//     `base_` alone, so an insert between now() and the next event stays
//     legal after a peek or a run_until that stopped short.
//   * The buckets hold exactly the pending events, so queue_size() ==
//     pending() after every call and no stale entry ever needs discarding.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/time.hpp"

namespace mrmtp::sim {

/// Handle for a scheduled event; valid until the event fires or is cancelled.
/// Encodes (slot generation << 32 | slot index + 1) into the slab.
struct EventId {
  std::uint64_t seq = 0;
  [[nodiscard]] bool valid() const { return seq != 0; }
};

class Scheduler {
 public:
  using Callback = std::function<void()>;

  /// Order key given to plain schedule_at events: keyed events at the same
  /// instant always fire first, then plain events in insertion order.
  static constexpr std::uint64_t kUnordered = UINT64_MAX;

  /// Current simulation time (time of the most recently fired event).
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `fn` at absolute time `at`. `at` must be >= now().
  EventId schedule_at(Time at, Callback fn) {
    return schedule_at_ordered(at, kUnordered, std::move(fn));
  }

  /// Schedules `fn` at `at` with an explicit same-instant tie-break key.
  /// Pop order is (time, order, insertion sequence); the sharded engine
  /// derives `order` from blueprint identity (sender node, port, send
  /// sequence) so tie-breaks are invariant under resharding.
  EventId schedule_at_ordered(Time at, std::uint64_t order, Callback fn);

  /// Schedules `fn` after `delay` from now. Negative delays clamp to zero.
  EventId schedule_after(Duration delay, Callback fn);

  /// Cancels a pending event; no-op if already fired or cancelled.
  void cancel(EventId id);

  /// Moves a pending event's deadline to `at` (clamped to now()), keeping its
  /// insertion sequence; returns false if the event already fired or was
  /// cancelled.
  bool reschedule(EventId id, Time at);

  /// Deadline of the earliest pending event, or empty when none is pending.
  /// The sharded engine calls this at every barrier to compute the safe
  /// horizons.
  [[nodiscard]] std::optional<Time> next_time() const;

  /// Fires the next event; returns false when the queue is empty.
  bool step();

  /// Runs events with time <= deadline, then advances the clock to deadline.
  void run_until(Time deadline);

  /// Runs until the event queue drains (or `max_events` fires, as a runaway
  /// guard; returns false if the guard tripped).
  bool run(std::uint64_t max_events = UINT64_MAX);

  [[nodiscard]] bool empty() const { return pending() == 0; }
  /// Pending (scheduled, not yet fired or cancelled) events: every slot not
  /// on the freelist.
  [[nodiscard]] std::size_t pending() const {
    return slots_.size() - free_.size();
  }
  /// Bucket entries; always equal to pending().
  [[nodiscard]] std::size_t queue_size() const { return pending(); }
  [[nodiscard]] std::size_t queue_high_water() const {
    return queue_high_water_;
  }
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }
  [[nodiscard]] std::uint64_t reschedules() const { return reschedules_; }
  /// Always 0: the queue never rebuilds. Kept for readers of the counter.
  [[nodiscard]] std::uint64_t compactions() const { return 0; }

 private:
  static constexpr std::uint32_t kNotQueued = UINT32_MAX;
  /// Event times are in [0, 2^63), so time ^ base_ has at most 63 bits.
  static constexpr int kBuckets = 64;

  /// Slab cell, cache-line aligned (exactly one line with libstdc++'s
  /// 32-byte std::function): one scheduled event's keys, callback and index
  /// in its bucket (the bucket is bit_width(at_ns ^ base_)). `gen` advances
  /// on every free, invalidating outstanding EventIds in O(1).
  struct alignas(64) Slot {
    std::int64_t at_ns = 0;
    std::uint64_t order = 0;
    std::uint64_t fifo = 0;  // insertion sequence, preserved across reschedule
    std::uint32_t gen = 1;
    std::uint32_t pos = kNotQueued;
    Callback fn;
  };

  [[nodiscard]] Slot* slot_of(EventId id);
  void free_slot(std::uint32_t idx);
  [[nodiscard]] int bucket_of(std::int64_t at_ns) const;
  /// Same-instant order inside bucket 0: (order key, insertion sequence).
  [[nodiscard]] bool before(std::uint32_t a, std::uint32_t b) const;
  /// Appends slot `idx` to bucket `b`, keeping the bucket's minimum.
  void push(int b, std::uint32_t idx);
  /// Files slot `idx` (keys already set) into its bucket.
  void insert(std::uint32_t idx);
  /// Takes slot `idx` out of its bucket.
  void remove(std::uint32_t idx);
  /// Exact minimum time held by non-empty bucket `b` > 0.
  [[nodiscard]] std::int64_t min_of(int b) const;
  /// Bucket 0 is empty: moves `base_` to the earliest pending time and
  /// re-deals the lowest non-empty bucket, filling bucket 0.
  void settle();
  /// Pops the front of bucket 0, frees its slot, advances the clock and
  /// runs it.
  void fire_next();

  Time now_ = Time::zero();
  std::int64_t base_ = 0;
  std::uint64_t next_fifo_ = 1;
  std::uint64_t fired_ = 0;
  std::uint64_t reschedules_ = 0;
  std::size_t queue_high_water_ = 0;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  /// Slot indices per bucket. buckets_[0] is sorted from `head_` on; its
  /// entries before `head_` have already fired.
  std::vector<std::uint32_t> buckets_[kBuckets];
  std::size_t head_ = 0;
  /// Bit b set when bucket b > 0 is non-empty.
  std::uint64_t nonempty_ = 0;
  /// min_[b] is bucket b's minimum time unless bit b of `stale_` is set (its
  /// minimum left the bucket); next_time() refreshes it on demand.
  mutable std::int64_t min_[kBuckets] = {};
  mutable std::uint64_t stale_ = 0;
};

/// Restartable timer built on Scheduler; the workhorse behind every
/// keep-alive, dead, hold, MRAI, and retransmission timer in the protocols.
/// Re-arming an already-running timer reuses the scheduled event via
/// Scheduler::reschedule, so per-frame resets do not churn the queue.
class Timer {
 public:
  Timer(Scheduler& sched, Scheduler::Callback on_fire)
      : sched_(sched), on_fire_(std::move(on_fire)) {}
  ~Timer() { stop(); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Arms (or re-arms) as a one-shot firing after `d`.
  void start(Duration d) {
    periodic_ = false;
    interval_ = d;
    rearm();
  }

  /// Arms as a periodic timer with period `d`; fires repeatedly until stop().
  void start_periodic(Duration d) {
    periodic_ = true;
    interval_ = d;
    rearm();
  }

  /// Re-arms with the last interval (e.g. dead timer reset on keep-alive).
  void restart() { rearm(); }

  void stop() {
    if (id_.valid()) {
      sched_.cancel(id_);
      id_ = {};
    }
  }

  [[nodiscard]] bool running() const { return id_.valid(); }
  [[nodiscard]] Duration interval() const { return interval_; }

 private:
  void rearm() {
    Duration d = interval_ < Duration{} ? Duration{} : interval_;
    if (id_.valid() && sched_.reschedule(id_, sched_.now() + d)) return;
    id_ = {};
    arm();
  }

  void arm() {
    id_ = sched_.schedule_after(interval_, [this] {
      id_ = {};
      if (periodic_) arm();
      on_fire_();
    });
  }

  Scheduler& sched_;
  Scheduler::Callback on_fire_;
  EventId id_{};
  Duration interval_{};
  bool periodic_ = false;
};

}  // namespace mrmtp::sim
