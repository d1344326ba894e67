#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "util/asan.hpp"

namespace mrmtp::sim {

Scheduler::Slot::Slot(Slot&& other) noexcept
    : at_ns(other.at_ns),
      order(other.order),
      fifo(other.fifo),
      gen(other.gen),
      pos(other.pos),
      ops(other.ops) {
  if (ops != nullptr && ops->relocate != nullptr) {
    ops->relocate(capture, other.capture);
  } else {
    std::memcpy(capture, other.capture, kInlineBytes);
  }
  other.ops = nullptr;
}

void* Scheduler::Slot::target() {
  if (ops->storage == Storage::kInline) return capture;
  void* p = nullptr;
  std::memcpy(&p, capture, sizeof p);
  return p;
}

Scheduler::~Scheduler() {
  for (Slot& s : slots_) {
    if (s.ops != nullptr) dispose(*s.ops, s.target());
  }
  // Every block is free now; lift its poisoning before the chunks go.
  for (Block* b = free_blocks_; b != nullptr;) {
    util::asan_unpoison(b, sizeof(Block));
    b = b->next;
  }
}

void* Scheduler::take_block() {
  Block* b = free_blocks_;
  if (b != nullptr) {
    util::asan_unpoison(b, sizeof(Block));
    free_blocks_ = b->next;
    return b;
  }
  // Carved in order from the newest chunk, so the pages of blocks never
  // used stay untouched.
  if (carved_ == kBlocksPerChunk || block_chunks_.empty()) {
    block_chunks_.push_back(
        std::make_unique_for_overwrite<Block[]>(kBlocksPerChunk));
    carved_ = 0;
  }
  return &block_chunks_.back()[carved_++];
}

void Scheduler::give_block(void* block) noexcept {
  auto* b = static_cast<Block*>(block);
  b->next = free_blocks_;
  free_blocks_ = b;
  // A capture read after its event fired or was cancelled faults under
  // ASan; only the link word stays readable.
  util::asan_poison(b->bytes + sizeof(Block*), sizeof(Block) - sizeof(Block*));
}

void Scheduler::dispose(const Ops& ops, void* target) noexcept {
  if (ops.destroy != nullptr) ops.destroy(target);
  if (ops.storage == Storage::kBlock) give_block(target);
}

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
  s.ops = nullptr;
  s.pos = kNotQueued;
  ++s.gen;  // invalidates outstanding EventIds
  free_.push_back(idx);
}

int Scheduler::bucket_of(std::int64_t at_ns) const {
  return static_cast<int>(std::bit_width(static_cast<std::uint64_t>(at_ns) ^
                                         static_cast<std::uint64_t>(base_)));
}

bool Scheduler::before(std::uint32_t a, std::uint32_t b) const {
  const Slot& x = slots_[a];
  const Slot& y = slots_[b];
  if (x.order != y.order) return x.order < y.order;
  return x.fifo < y.fifo;
}

void Scheduler::push(int b, std::uint32_t idx) {
  Slot& s = slots_[idx];
  std::vector<std::uint32_t>& v = buckets_[b];
  if (b > 0) {
    const std::uint64_t bit = std::uint64_t{1} << b;
    if ((nonempty_ & bit) == 0 || s.at_ns < min_[b]) {
      // Below even a stale minimum, so it is the exact one.
      min_[b] = s.at_ns;
      stale_ &= ~bit;
    }
    nonempty_ |= bit;
  }
  s.pos = static_cast<std::uint32_t>(v.size());
  v.push_back(idx);
}

void Scheduler::insert(std::uint32_t idx) {
  const int b = bucket_of(slots_[idx].at_ns);
  std::vector<std::uint32_t>& v = buckets_[b];
  // Bucket 0 keeps its unfired tail sorted. A plain insert has the largest
  // key so far and appends; a keyed one, or a reschedule keeping an old
  // insertion sequence, slides into place.
  if (b > 0 || head_ == v.size() || before(v.back(), idx)) {
    push(b, idx);
    return;
  }
  auto at = std::lower_bound(
      v.begin() + static_cast<std::ptrdiff_t>(head_), v.end(), idx,
      [this](std::uint32_t x, std::uint32_t y) { return before(x, y); });
  at = v.insert(at, idx);
  for (auto i = static_cast<std::size_t>(at - v.begin()); i < v.size(); ++i) {
    slots_[v[i]].pos = static_cast<std::uint32_t>(i);
  }
}

void Scheduler::remove(std::uint32_t idx) {
  Slot& s = slots_[idx];
  const int b = bucket_of(s.at_ns);
  std::vector<std::uint32_t>& v = buckets_[b];
  if (b > 0) {
    const std::uint32_t moved = v.back();
    v[s.pos] = moved;
    slots_[moved].pos = s.pos;
    v.pop_back();
    const std::uint64_t bit = std::uint64_t{1} << b;
    if (v.empty()) {
      nonempty_ &= ~bit;
      stale_ &= ~bit;
    } else if (s.at_ns == min_[b]) {
      stale_ |= bit;
    }
    return;
  }
  v.erase(v.begin() + s.pos);
  if (head_ == v.size()) {
    v.clear();
    head_ = 0;
    return;
  }
  for (std::size_t i = s.pos; i < v.size(); ++i) {
    slots_[v[i]].pos = static_cast<std::uint32_t>(i);
  }
}

std::int64_t Scheduler::min_of(int b) const {
  const std::uint64_t bit = std::uint64_t{1} << b;
  if (stale_ & bit) {
    std::int64_t m = INT64_MAX;
    for (std::uint32_t idx : buckets_[b]) m = std::min(m, slots_[idx].at_ns);
    min_[b] = m;
    stale_ &= ~bit;
  }
  return min_[b];
}

void Scheduler::settle() {
  const int b = std::countr_zero(nonempty_);
  base_ = min_of(b);
  nonempty_ &= ~(std::uint64_t{1} << b);
  // Every time in bucket b agrees with the new base above bit b - 1, so each
  // event lands in a strictly lower bucket and `src` is not written to.
  std::vector<std::uint32_t>& src = buckets_[b];
  for (std::uint32_t idx : src) push(bucket_of(slots_[idx].at_ns), idx);
  src.clear();
  // The new group arrives in bucket order, which is usually already
  // (order, fifo) order.
  std::vector<std::uint32_t>& group = buckets_[0];
  auto cmp = [this](std::uint32_t x, std::uint32_t y) { return before(x, y); };
  if (!std::is_sorted(group.begin(), group.end(), cmp)) {
    std::sort(group.begin(), group.end(), cmp);
    for (std::size_t i = 0; i < group.size(); ++i) {
      slots_[group[i]].pos = static_cast<std::uint32_t>(i);
    }
  }
}

std::uint32_t Scheduler::claim(Time at, std::uint64_t order) {
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
  s.at_ns = at.ns();
  s.order = order;
  s.fifo = next_fifo_++;
  return idx;
}

void Scheduler::unclaim(std::uint32_t idx) { free_.push_back(idx); }

EventId Scheduler::file(std::uint32_t idx) {
  insert(idx);
  queue_high_water_ = std::max(queue_high_water_, pending());
  return EventId{(static_cast<std::uint64_t>(slots_[idx].gen) << 32) |
                 (idx + 1)};
}

void Scheduler::cancel(EventId id) {
  if (slot_of(id) == nullptr) return;
  const auto idx = static_cast<std::uint32_t>((id.seq & 0xffffffffu) - 1);
  remove(idx);
  Slot& s = slots_[idx];
  const Ops& ops = *s.ops;
  void* target = s.target();
  free_slot(idx);
  dispose(ops, target);
}

bool Scheduler::reschedule(EventId id, Time at) {
  Slot* s = slot_of(id);
  if (s == nullptr) return false;
  if (at < now_) at = now_;
  ++reschedules_;
  if (at.ns() == s->at_ns) return true;
  const auto idx = static_cast<std::uint32_t>((id.seq & 0xffffffffu) - 1);
  remove(idx);
  s->at_ns = at.ns();
  insert(idx);
  return true;
}

std::optional<Time> Scheduler::next_time() const {
  if (empty()) return std::nullopt;
  if (head_ < buckets_[0].size()) return Time::from_ns(base_);
  return Time::from_ns(min_of(std::countr_zero(nonempty_)));
}

void Scheduler::fire_next() {
  std::vector<std::uint32_t>& group = buckets_[0];
  if (head_ == group.size()) settle();
  const std::uint32_t idx = group[head_++];
  if (head_ == group.size()) {
    group.clear();
    head_ = 0;
  }
  // The callable leaves its slot before it runs: it may schedule events,
  // which can reuse the slot or grow slots_.
  Slot& s = slots_[idx];
  const Ops& ops = *s.ops;
  alignas(std::uint64_t) unsigned char capture[kInlineBytes];
  if (ops.relocate != nullptr) {
    ops.relocate(capture, s.capture);
  } else {
    std::memcpy(capture, s.capture, kInlineBytes);
  }
  void* target = capture;
  if (ops.storage != Storage::kInline) {
    std::memcpy(&target, capture, sizeof target);
  }
  free_slot(idx);
  now_ = Time::from_ns(base_);
  ++fired_;
  struct Disposer {
    Scheduler& sched;
    const Ops& ops;
    void* target;
    ~Disposer() { sched.dispose(ops, target); }
  } disposer{*this, ops, target};
  ops.call(target);
}

bool Scheduler::step() {
  if (empty()) return false;
  fire_next();
  return true;
}

void Scheduler::run_until(Time deadline) {
  for (;;) {
    std::optional<Time> next = next_time();
    if (!next || *next > deadline) break;
    fire_next();
  }
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
