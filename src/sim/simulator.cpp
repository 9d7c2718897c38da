#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace composim {

namespace {
// Compact once tombstones are both numerous and the majority of the heap;
// the floor keeps small queues on the cheap pop-time-discard path.
constexpr std::size_t kCompactFloor = 1024;
}  // namespace

std::uint32_t Simulator::allocSlot() {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.pending = true;
  s.cancelled = false;
  return slot;
}

void Simulator::releaseSlot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.pending = false;
  s.cancelled = false;
  ++s.generation;  // stale EventIds stop matching
  if (s.generation == 0) ++s.generation;  // keep ids nonzero on wrap
  free_slots_.push_back(slot);
}

EventId Simulator::schedule(SimTime delay, Action fn) {
  if (delay < 0.0) delay = 0.0;
  return scheduleAt(now_ + delay, std::move(fn));
}

EventId Simulator::scheduleAt(SimTime when, Action fn) {
  if (!fn) throw std::invalid_argument("Simulator::schedule: empty action");
  if (!(when >= now_)) {
    // NaN compares false both ways and would break the heap order.
    if (std::isnan(when)) {
      throw std::invalid_argument("Simulator::schedule: NaN time");
    }
    when = now_;
  }
  const std::uint32_t slot = allocSlot();
  slots_[slot].fn = std::move(fn);
  heap_.push_back(Entry{when, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), later);
  return (static_cast<EventId>(slots_[slot].generation) << 32) | slot;
}

bool Simulator::cancel(EventId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (gen == 0 || slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (!s.pending || s.generation != gen || s.cancelled) return false;
  s.cancelled = true;
  ++cancelled_;
  if (cancelled_ > kCompactFloor && cancelled_ * 2 > heap_.size()) {
    compactTombstones();
  }
  return true;
}

void Simulator::compactTombstones() {
  auto live_end = std::remove_if(heap_.begin(), heap_.end(), [this](const Entry& e) {
    if (!slots_[e.slot].cancelled) return false;
    slots_[e.slot].fn = nullptr;
    releaseSlot(e.slot);
    return true;
  });
  heap_.erase(live_end, heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), later);
  cancelled_ = 0;
}

void Simulator::purgeCancelledTop() {
  while (!heap_.empty() && slots_[heap_.front().slot].cancelled) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const std::uint32_t slot = heap_.back().slot;
    heap_.pop_back();
    slots_[slot].fn = nullptr;
    releaseSlot(slot);
    --cancelled_;
  }
}

bool Simulator::popNext(SimTime& when, Action& fn) {
  purgeCancelledTop();
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), later);
  const Entry e = heap_.back();
  heap_.pop_back();
  fn = std::move(slots_[e.slot].fn);
  releaseSlot(e.slot);
  when = e.time;
  return true;
}

bool Simulator::step() {
  SimTime when;
  Action fn;
  if (!popNext(when, fn)) return false;
  now_ = when;
  ++executed_;
  fn();
  return true;
}

void Simulator::run(std::uint64_t maxEvents) {
  for (std::uint64_t i = 0; i < maxEvents; ++i) {
    if (!step()) return;
  }
}

Simulator::State Simulator::state() const {
  if (!heap_.empty()) {
    throw std::logic_error(
        "Simulator::state: event queue not drained (closures in pending "
        "events cannot be captured)");
  }
  State st;
  st.now = now_;
  st.next_seq = next_seq_;
  st.executed = executed_;
  st.slot_generations.reserve(slots_.size());
  for (const Slot& s : slots_) st.slot_generations.push_back(s.generation);
  st.free_slots = free_slots_;
  return st;
}

void Simulator::setState(const State& st) {
  if (!heap_.empty()) {
    throw std::logic_error(
        "Simulator::setState: target simulator has pending events");
  }
  now_ = st.now;
  next_seq_ = st.next_seq;
  executed_ = st.executed;
  slots_.assign(st.slot_generations.size(), Slot{});
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].generation = st.slot_generations[i];
  }
  free_slots_ = st.free_slots;
  cancelled_ = 0;
}

void Simulator::runUntil(SimTime until) {
  SimTime when;
  Action fn;
  while (true) {
    purgeCancelledTop();
    if (heap_.empty()) return;
    if (heap_.front().time > until) {
      if (until > now_) now_ = until;
      return;
    }
    if (!popNext(when, fn)) return;
    now_ = when;
    ++executed_;
    fn();
  }
}

}  // namespace composim
