#include "sim/parallel.hpp"

#include <algorithm>
#include <barrier>
#include <stdexcept>
#include <thread>

namespace mrmtp::sim {

// ---------------------------------------------------------------------------
// ShardBus

ShardBus::ShardBus(std::uint32_t shards)
    : shards_(shards),
      channels_(static_cast<std::size_t>(shards) * shards),
      inbox_min_ns_(shards, kNoneNs),
      floors_(new std::atomic<std::int64_t>[shards]) {
  for (std::uint32_t d = 0; d < shards_; ++d) floors_[d].store(0);
}

void ShardBus::post(std::uint32_t src, std::uint32_t dst, Time at,
                    std::uint64_t order, std::function<void()> fn) {
  if (at.ns() < floors_[dst].load(std::memory_order_acquire)) {
    throw std::logic_error(
        "ShardBus: cross-shard post at " + at.str() +
        " lands below the destination's safe horizon (lookahead violation)");
  }
  std::size_t depth = 0;
  {
    // The event must become visible to horizon computations (via the inbox
    // minimum) atomically with entering the channel: sync_mu_ spans both.
    std::lock_guard sync(sync_mu_);
    inbox_min_ns_[dst] = std::min(inbox_min_ns_[dst], at.ns());
    Channel& ch = channel(src, dst);
    std::lock_guard lock(ch.mu);
    if (ch.q.size() >= kChannelCap) {
      throw std::runtime_error("ShardBus: channel overflow (runaway loop?)");
    }
    ch.q.push_back(CrossEvent{at, order, ch.next_seq++, std::move(fn)});
    depth = ch.q.size();
  }
  posted_.fetch_add(1, std::memory_order_relaxed);
  if (src != dst) cross_posted_.fetch_add(1, std::memory_order_relaxed);
  std::size_t hw = high_water_.load(std::memory_order_relaxed);
  while (depth > hw &&
         !high_water_.compare_exchange_weak(hw, depth,
                                            std::memory_order_relaxed)) {
  }
}

std::size_t ShardBus::drain(std::uint32_t dst, Scheduler& into) {
  std::lock_guard sync(sync_mu_);
  return drain_locked(dst, into);
}

std::size_t ShardBus::drain_locked(std::uint32_t dst, Scheduler& into) {
  struct Tagged {
    Time at;
    std::uint64_t order;
    std::uint32_t src;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  std::vector<Tagged> batch;
  for (std::uint32_t src = 0; src < shards_; ++src) {
    Channel& ch = channel(src, dst);
    std::vector<CrossEvent> q;
    {
      std::lock_guard lock(ch.mu);
      q.swap(ch.q);
    }
    batch.reserve(batch.size() + q.size());
    for (auto& e : q) {
      batch.push_back(Tagged{e.at, e.order, src, e.seq, std::move(e.fn)});
    }
  }
  // Arrivals enter the destination scheduler keyed, so execution order is a
  // pure function of (arrival time, poster-supplied order key) — never of
  // thread timing, sharding, or WHEN this drain ran. The sort is not needed
  // for correctness anymore (the scheduler orders keyed events itself); it
  // keeps insertion order stable for posters that share an order key, where
  // (src, seq) is the documented fallback.
  std::sort(batch.begin(), batch.end(), [](const Tagged& a, const Tagged& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.order != b.order) return a.order < b.order;
    if (a.src != b.src) return a.src < b.src;
    return a.seq < b.seq;
  });
  for (auto& e : batch) {
    into.schedule_at_ordered(e.at, e.order, std::move(e.fn));
  }
  // Cover transfer: the drained events now live in `into`, whose minimum the
  // caller publishes before releasing sync_mu_ (posts are locked out until
  // then, so nothing lands uncovered behind this clear).
  inbox_min_ns_[dst] = kNoneNs;
  return batch.size();
}

std::optional<Time> ShardBus::pending_min(std::uint32_t dst) {
  std::lock_guard sync(sync_mu_);
  std::optional<Time> best;
  for (std::uint32_t src = 0; src < shards_; ++src) {
    Channel& ch = channel(src, dst);
    std::lock_guard lock(ch.mu);
    for (const auto& e : ch.q) {
      if (!best || e.at < *best) best = e.at;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// ShardedEngine

struct ShardedEngine::DetectStep {
  ShardedEngine* eng;
  void operator()() const noexcept {
    // Runs with every shard parked at the check barrier: if nobody found
    // sub-deadline work after the collective drain, the run is over.
    ++eng->stats_.windows;
    eng->finished_.store(!eng->dirty_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    eng->dirty_.store(false, std::memory_order_relaxed);
  }
};

struct ShardedEngine::SyncState {
  std::barrier<> park;          // all shards believe the deadline is clear
  std::barrier<DetectStep> check;  // post-drain verdict
  SyncState(std::ptrdiff_t n, DetectStep step) : park(n), check(n, step) {}
};

ShardedEngine::ShardedEngine(std::vector<Scheduler*> shards,
                             const Options& options)
    : shards_(std::move(shards)),
      bus_(static_cast<std::uint32_t>(shards_.size())),
      min_ns_(new std::atomic<std::int64_t>[shards_.size()]),
      shard_stalls_(shards_.size(), 0),
      shard_segments_(shards_.size(), 0) {
  if (shards_.empty()) {
    throw std::invalid_argument("ShardedEngine: no shards");
  }
  for (Scheduler* s : shards_) {
    if (s == nullptr) {
      throw std::invalid_argument("ShardedEngine: null shard scheduler");
    }
  }
  const std::size_t n = shards_.size();
  for (std::size_t i = 0; i < n; ++i) min_ns_[i].store(kNoneNs);

  // Direct per-pair lookahead, then the transitive closure. The closure is
  // what makes m_i + la*(i,j) a bound on MULTI-HOP arrivals: without it, a
  // chain k -> i -> j with a cheap two-hop path could deliver below a
  // horizon computed from direct links only, and the diagonal la*(j,j) —
  // the cheapest round trip through other shards — is the binding
  // constraint for a shard whose neighbors are all idle.
  const std::vector<Duration>& direct = options.pair_lookahead;
  if (!direct.empty() && direct.size() != n * n) {
    throw std::invalid_argument(
        "ShardedEngine: pair_lookahead must be shards^2 entries");
  }
  closure_ns_.assign(n * n, kNoneNs);
  for (std::size_t i = 0; i < direct.size(); ++i) {
    if (i / n != i % n && direct[i] > Duration{}) {
      closure_ns_[i] = direct[i].ns();
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t ik = closure_ns_[i * n + k];
      if (ik == kNoneNs) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const std::int64_t kj = closure_ns_[k * n + j];
        if (kj == kNoneNs) continue;
        closure_ns_[i * n + j] = std::min(closure_ns_[i * n + j], ik + kj);
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::int64_t v = closure_ns_[i * n + j];
      if (i != j && v != kNoneNs && v <= 0) {
        throw std::invalid_argument(
            "ShardedEngine: nonpositive pair lookahead");
      }
    }
  }
}

std::optional<Duration> ShardedEngine::pair_lookahead(
    std::uint32_t src, std::uint32_t dst) const {
  const std::int64_t v = closure_ns_[src * shards_.size() + dst];
  if (v == kNoneNs) return std::nullopt;
  return Duration::nanos(v);
}

std::int64_t ShardedEngine::horizon_ns(std::uint32_t dst) const {
  // Caller holds bus_.sync_mu(). Safety: under the sync mutex, EVERY pending
  // event in the system is covered — it sits in shard i's scheduler at a
  // time >= i's published minimum, or in shard i's inbox at a time >= i's
  // inbox minimum (posts update the inbox minimum before the event enters a
  // channel; drains clear it only in the same critical section that
  // publishes the destination's new scheduler minimum). Any future arrival
  // into dst descends from one of those events through links summing to
  // >= la*(origin,dst), so W computed here lower-bounds every arrival that
  // can ever land. A slot may even move backwards when an early arrival is
  // drained; that only makes this bound more conservative, never unsafe,
  // because the closure's triangle inequality (la*(k,i) + la*(i,dst) >=
  // la*(k,dst)) charges every multi-hop chain to its origin's cover at the
  // moment this bound is taken.
  const std::size_t n = shards_.size();
  std::int64_t w = kNoneNs;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t la = closure_ns_[i * n + dst];
    if (la == kNoneNs) continue;
    const std::int64_t m =
        std::min(min_ns_[i].load(std::memory_order_acquire),
                 bus_.inbox_min_ns(static_cast<std::uint32_t>(i)));
    if (m == kNoneNs) continue;
    w = std::min(w, m + la);
  }
  return w;
}

void ShardedEngine::publish_min(std::uint32_t s) {
  std::optional<Time> nt = shards_[s]->next_time();
  min_ns_[s].store(nt ? nt->ns() : kNoneNs, std::memory_order_release);
}

void ShardedEngine::shard_loop(std::uint32_t s, Time deadline,
                               SyncState& sync) {
  Scheduler& sched = *shards_[s];
  const std::int64_t deadline_ns = deadline.ns();
  for (;;) {
    // Asynchronous phase: execute below the horizon, re-reading neighbor
    // minima as they advance; no rendezvous on this path.
    for (;;) {
      // Sample the epoch BEFORE reading any shared state: publishers store
      // their new minimum first and bump the epoch after, so any advance we
      // fail to observe below leaves epoch != seen and the wait at the
      // bottom returns immediately (no lost wakeup).
      const std::uint64_t seen = epoch_.load(std::memory_order_acquire);
      std::int64_t w;
      {
        // Drain and publish in ONE critical section: the drained events'
        // cover moves from the inbox minimum to our published scheduler
        // minimum, and no horizon may be computed in between.
        std::lock_guard sync_lock(bus_.sync_mu());
        bus_.drain_locked(s, sched);
        publish_min(s);
        w = horizon_ns(s);
      }
      // Execute events strictly below the horizon (an event AT the horizon
      // could still be preceded by a same-instant arrival), capped at the
      // deadline inclusively.
      const std::int64_t exec_end =
          w == kNoneNs ? deadline_ns : std::min(w - 1, deadline_ns);
      std::optional<Time> nt = sched.next_time();
      if (nt && nt->ns() <= exec_end) {
        if (w != kNoneNs) {
          bus_.set_safe_floor(s, Time::from_ns(w));
        }
        sched.run_until(Time::from_ns(exec_end));
        // Raising our own published minimum needs no lock: events posted
        // during the run are already covered by their destinations' inbox
        // minima, and our remaining events are all >= the new value.
        publish_min(s);
        ++shard_segments_[s];
        epoch_.fetch_add(1, std::memory_order_acq_rel);
        epoch_.notify_all();
        continue;
      }
      // No executable work. Park only once every published minimum has
      // cleared the deadline; otherwise wait for a neighbor to advance.
      // (A stale read here can only delay parking or park early; early
      // parks are caught by the collective drain below.)
      bool all_clear = true;
      for (std::uint32_t i = 0; i < shards_.size(); ++i) {
        if (min_ns_[i].load(std::memory_order_acquire) <= deadline_ns) {
          all_clear = false;
          break;
        }
      }
      if (all_clear) break;
      ++shard_stalls_[s];
      epoch_.wait(seen, std::memory_order_acquire);
    }

    // Termination detection. All shards eventually reach the park barrier
    // (finite sub-deadline work plus guaranteed horizon progress), at which
    // point nobody is executing, so one more drain observes every post made
    // by sub-deadline work. If any shard drained sub-deadline arrivals, the
    // cascade may continue: go around again.
    sync.park.arrive_and_wait();
    {
      std::lock_guard sync_lock(bus_.sync_mu());
      bus_.drain_locked(s, sched);
      publish_min(s);
    }
    std::optional<Time> nt = sched.next_time();
    if (nt && nt->ns() <= deadline_ns) {
      dirty_.store(true, std::memory_order_relaxed);
    }
    sync.check.arrive_and_wait();  // completion step sets finished_
    if (finished_.load(std::memory_order_relaxed)) break;
    epoch_.fetch_add(1, std::memory_order_acq_rel);
    epoch_.notify_all();
  }

  // Deadline-inclusive finish: every remaining arrival is provably beyond
  // the deadline, so clocks can advance to it and deadline-instant events
  // fire. Posts made here land beyond the deadline at every destination.
  bus_.set_safe_floor(s, deadline + Duration::nanos(1));
  sched.run_until(deadline);
  publish_min(s);
}

void ShardedEngine::run_single(Time deadline) {
  // One shard: nothing rides the bus in a sharded fabric (same-shard
  // deliveries bypass it), so this is plain inclusive execution. Tests may
  // still post manually; loop until the mailbox holds nothing due.
  Scheduler& sched = *shards_[0];
  for (;;) {
    bus_.drain(0, sched);
    bus_.set_safe_floor(0, deadline + Duration::nanos(1));
    sched.run_until(deadline);
    ++shard_segments_[0];
    std::optional<Time> pm = bus_.pending_min(0);
    if (!pm || *pm > deadline) break;
    // A callback posted work due within this run; pick it up. (Only
    // possible for posts made at-or-above the floor by the running shard
    // itself, i.e. self-posts in tests.)
  }
  ++stats_.windows;
}

void ShardedEngine::run_until(Time deadline) {
  std::fill(shard_stalls_.begin(), shard_stalls_.end(), 0);
  std::fill(shard_segments_.begin(), shard_segments_.end(), 0);
  if (shards_.size() == 1) {
    run_single(deadline);
  } else {
    finished_.store(false);
    dirty_.store(false);
    SyncState sync(static_cast<std::ptrdiff_t>(shards_.size()),
                   DetectStep{this});
    std::vector<std::thread> threads;
    threads.reserve(shards_.size());
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      threads.emplace_back(
          [this, s, deadline, &sync] { shard_loop(s, deadline, sync); });
    }
    for (auto& t : threads) t.join();
  }
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    stats_.horizon_stalls += shard_stalls_[s];
    stats_.coalesced_windows += shard_segments_[s];
  }
  stats_.cross_events = bus_.cross_posted();
  stats_.mailbox_high_water =
      std::max<std::uint64_t>(stats_.mailbox_high_water,
                              bus_.channel_high_water());
}

}  // namespace mrmtp::sim
