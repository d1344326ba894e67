#include "sim/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

namespace mrmtp::sim {

Scheduler::Slot* Scheduler::slot_of(EventId id) {
  if (!id.valid()) return nullptr;
  std::uint32_t idx = static_cast<std::uint32_t>(id.seq & 0xffffffffu) - 1;
  if (idx >= slots_.size()) return nullptr;
  Slot& s = slots_[idx];
  if (s.pos == kNotQueued || s.gen != static_cast<std::uint32_t>(id.seq >> 32)) {
    return nullptr;
  }
  return &s;
}

void Scheduler::free_slot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.fn = nullptr;
  s.pos = kNotQueued;
  ++s.gen;  // invalidates outstanding EventIds
  free_.push_back(idx);
}

void Scheduler::place(std::size_t i, const Entry& e) {
  heap_[i] = e;
  slots_[e.slot].pos = static_cast<std::uint32_t>(i);
}

void Scheduler::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    std::size_t parent = (i - 1) / 4;
    if (!e.before(heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, e);
}

void Scheduler::sift_down(std::size_t i) {
  const Entry e = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < std::min(first + 4, n); ++c) {
      if (heap_[c].before(heap_[best])) best = c;
    }
    if (!heap_[best].before(e)) break;
    place(i, heap_[best]);
    i = best;
  }
  place(i, e);
}

void Scheduler::remove_at(std::size_t i) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  place(i, last);
  if (i > 0 && last.before(heap_[(i - 1) / 4])) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

EventId Scheduler::schedule_at_ordered(Time at, std::uint64_t order,
                                       Callback fn) {
  if (at < now_) {
    throw std::logic_error("Scheduler: schedule_at in the past (at=" +
                           at.str() + " now=" + now_.str() + ")");
  }
  std::uint32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[idx];
  s.fn = std::move(fn);
  heap_.push_back(Entry{at.ns(), order, next_fifo_++, idx});
  sift_up(heap_.size() - 1);
  queue_high_water_ = std::max(queue_high_water_, heap_.size());
  return EventId{(static_cast<std::uint64_t>(s.gen) << 32) | (idx + 1)};
}

EventId Scheduler::schedule_after(Duration delay, Callback fn) {
  if (delay < Duration{}) delay = Duration{};
  return schedule_at(now_ + delay, std::move(fn));
}

void Scheduler::cancel(EventId id) {
  Slot* s = slot_of(id);
  if (s == nullptr) return;
  remove_at(s->pos);
  free_slot(static_cast<std::uint32_t>((id.seq & 0xffffffffu) - 1));
}

bool Scheduler::reschedule(EventId id, Time at) {
  Slot* s = slot_of(id);
  if (s == nullptr) return false;
  if (at < now_) at = now_;
  ++reschedules_;
  Entry& e = heap_[s->pos];
  const bool earlier = at.ns() < e.at_ns;
  e.at_ns = at.ns();
  if (earlier) {
    sift_up(s->pos);
  } else {
    sift_down(s->pos);
  }
  return true;
}

std::optional<Time> Scheduler::next_time() const {
  if (heap_.empty()) return std::nullopt;
  return Time::from_ns(heap_.front().at_ns);
}

void Scheduler::fire_root() {
  const Entry top = heap_.front();
  remove_at(0);
  Callback fn = std::move(slots_[top.slot].fn);
  free_slot(top.slot);
  now_ = Time::from_ns(top.at_ns);
  ++fired_;
  fn();
}

bool Scheduler::step() {
  if (heap_.empty()) return false;
  fire_root();
  return true;
}

void Scheduler::run_until(Time deadline) {
  while (!heap_.empty() && heap_.front().at_ns <= deadline.ns()) fire_root();
  if (deadline > now_) now_ = deadline;
}

bool Scheduler::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (step()) {
    if (++n >= max_events) return false;
  }
  return true;
}

}  // namespace mrmtp::sim
