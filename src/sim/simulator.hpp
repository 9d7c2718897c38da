// composim: discrete-event simulation kernel.
//
// Single-threaded, deterministic. Events are (time, sequence) ordered so
// ties resolve in scheduling order. The binary heap holds only 24-byte
// {time, seq, slot} keys; each event's action lives in its slot, so heap
// sifts move three scalars instead of a std::function. Cancellation is
// O(1) via a slot/generation scheme: an EventId encodes a slot index plus
// the slot's generation, so cancel() and pop-time tombstone checks are
// plain array accesses instead of hash lookups. Cancelled entries stay in
// the heap as tombstones and are discarded at pop time (their slot's
// action is released then); when tombstones dominate the heap they are
// compacted in one pass so mass cancellation (e.g. a flow network
// rescheduling its completion event) cannot bloat the queue.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/units.hpp"

namespace composim {

class ProfileSink;

/// Handle to a scheduled event; usable with Simulator::cancel().
using EventId = std::uint64_t;

constexpr EventId kInvalidEvent = 0;

class Simulator {
 public:
  using Action = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time (seconds).
  SimTime now() const { return now_; }

  /// Schedule `fn` to run `delay` seconds from now. Negative delays clamp
  /// to zero (run at the current time, after already-queued events).
  /// Throws std::invalid_argument for an empty action or a NaN delay.
  EventId schedule(SimTime delay, Action fn);

  /// Schedule at an absolute time (clamped to now()). Throws
  /// std::invalid_argument for an empty action or a NaN time.
  EventId scheduleAt(SimTime when, Action fn);

  /// Cancel a pending event. Returns false if it already ran, was already
  /// cancelled, or the id is invalid.
  bool cancel(EventId id);

  /// Run one event. Returns false when the queue is empty.
  bool step();

  /// Run until the queue drains or `maxEvents` events execute.
  void run(std::uint64_t maxEvents = UINT64_MAX);

  /// Run until simulated time reaches `until` (events at exactly `until`
  /// are executed) or the queue drains. The clock never runs backwards:
  /// with `until` < now() no event runs and now() is unchanged.
  void runUntil(SimTime until);

  /// Number of events executed so far.
  std::uint64_t eventsExecuted() const { return executed_; }

  /// Number of events still pending, excluding cancelled tombstones.
  std::size_t pendingEvents() const { return heap_.size() - cancelled_; }

  /// Raw heap occupancy including tombstones awaiting compaction
  /// (diagnostic; pendingEvents() is the semantically meaningful count).
  std::size_t queuedEvents() const { return heap_.size(); }

  bool empty() const { return pendingEvents() == 0; }

  /// Optional profiling hook (see sim/profile.hpp). Not owned; nullptr
  /// means profiling is off and instrumented components skip all work.
  void setProfiler(ProfileSink* sink) { profiler_ = sink; }
  ProfileSink* profiler() const { return profiler_; }

  /// Deterministic snapshot of a *drained* simulator: clock, sequence
  /// counter and the slot/generation allocator. Capturing the allocator is
  /// what makes forked runs hand out the same EventIds as a cold run — the
  /// free-list order and per-slot generations decide every future id.
  /// Only valid at a quiescent point (empty event queue); state() and
  /// setState() throw std::logic_error otherwise.
  struct State {
    SimTime now = 0.0;
    std::uint64_t next_seq = 1;
    std::uint64_t executed = 0;
    std::vector<std::uint32_t> slot_generations;
    std::vector<std::uint32_t> free_slots;
  };

  State state() const;
  void setState(const State& st);

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;   // global scheduling order; breaks time ties
    std::uint32_t slot;  // index into slots_, which holds the action
  };
  struct Slot {
    Action fn;  // set while pending; released when the event runs or purges
    std::uint32_t generation = 1;
    bool pending = false;
    bool cancelled = false;
  };
  // Min-heap ordering for std::*_heap (which build max-heaps).
  static bool later(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  std::uint32_t allocSlot();
  void releaseSlot(std::uint32_t slot);
  /// Pop cancelled entries off the heap top so front() is a live event.
  void purgeCancelledTop();
  /// Drop all tombstones and rebuild the heap in O(n).
  void compactTombstones();
  /// Pop the next live event: its time goes to `when` and its action is
  /// moved into `fn` before the slot is released (the running action may
  /// schedule events, which can grow slots_).
  bool popNext(SimTime& when, Action& fn);

  ProfileSink* profiler_ = nullptr;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::vector<Entry> heap_;  // binary heap via std::push_heap/pop_heap
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t cancelled_ = 0;  // tombstones currently in heap_
};

}  // namespace composim
