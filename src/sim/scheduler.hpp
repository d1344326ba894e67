// Discrete-event scheduler.
//
// An indexed 4-ary min-heap orders events by (time, order key, insertion
// sequence); plain events carry the maximal order key, so same-instant plain
// events fire in insertion order and every run stays bit-reproducible. Keyed
// events (schedule_at_ordered) let the sharded engine break same-instant ties
// by a sharding-invariant key instead of by which scheduler happened to see
// the insert first.
//
// Layout. Callbacks live in a slab of Slots (freelist-recycled, with a
// generation counter so EventIds stay O(1) to validate); the heap holds one
// {deadline, order, fifo, slot} entry per pending event, and every Slot
// records its entry's heap position:
//   * schedule is a sift-up, pop a sift-down: O(log n).
//   * cancel removes the entry in place and reschedule moves it in place
//     (sift up or down), keeping its insertion sequence: O(log n).
//   * The heap holds exactly the pending events, so queue_size() ==
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

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  /// Pending (scheduled, not yet fired or cancelled) events.
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  /// Heap entries; always equal to pending().
  [[nodiscard]] std::size_t queue_size() const { return heap_.size(); }
  [[nodiscard]] std::size_t queue_high_water() const {
    return queue_high_water_;
  }
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }
  [[nodiscard]] std::uint64_t reschedules() const { return reschedules_; }
  /// Always 0: the heap never rebuilds. Kept for readers of the counter.
  [[nodiscard]] std::uint64_t compactions() const { return 0; }

 private:
  static constexpr std::uint32_t kNotQueued = UINT32_MAX;

  /// Slab cell: the callback of one scheduled event and its heap position.
  /// `gen` advances on every free, invalidating outstanding EventIds in O(1).
  struct Slot {
    Callback fn;
    std::uint32_t gen = 1;
    std::uint32_t pos = kNotQueued;
  };

  /// Heap entry for one pending event.
  struct Entry {
    std::int64_t at_ns;
    std::uint64_t order;
    std::uint64_t fifo;  // insertion sequence, preserved across reschedule
    std::uint32_t slot;
    /// Min-heap ordering: (time, order key, insertion sequence).
    [[nodiscard]] bool before(const Entry& o) const {
      if (at_ns != o.at_ns) return at_ns < o.at_ns;
      if (order != o.order) return order < o.order;
      return fifo < o.fifo;
    }
  };

  [[nodiscard]] Slot* slot_of(EventId id);
  void free_slot(std::uint32_t idx);
  /// Stores `e` at heap index `i` and records the position in its slot.
  void place(std::size_t i, const Entry& e);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Removes heap index `i`, refilling the hole from the back.
  void remove_at(std::size_t i);
  /// Pops the root, frees its slot, advances the clock and runs it.
  void fire_root();

  Time now_ = Time::zero();
  std::uint64_t next_fifo_ = 1;
  std::uint64_t fired_ = 0;
  std::uint64_t reschedules_ = 0;
  std::size_t queue_high_water_ = 0;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::vector<Entry> heap_;  // 4-ary: children of i are 4i+1 .. 4i+4
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
