// composim: span/counter profiler with Chrome trace_event export.
//
// The concrete ProfileSink (sim/profile.hpp): records spans, async spans,
// instants and time-weighted counters against Simulator::now(), and dumps
// the standard Chrome trace_event JSON that chrome://tracing and Perfetto
// load directly. Tracks map to trace "threads" (one row each, named via
// thread_name metadata); async spans use the 'b'/'e' phases keyed by
// correlation id so overlapping fabric flows render as interval tracks;
// counters use the 'C' phase and also keep a time-weighted integral so
// tests and reports can ask for a mean utilization without replaying the
// trace.
//
// Everything is a no-op while disabled, and components only reach the
// profiler through Simulator::profiler() (nullptr when absent), so an
// untraced run pays one branch per potential record.
//
// A traced run pays for recording and for export, so both are kept lean:
// setCounter makes one hash lookup on the counter name, chromeTrace()
// builds each event as a reserved object, and exportOrder() sorts only
// the runs of records that share a timestamp (records are appended at the
// monotone sim clock, a precondition it checks).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "falcon/json.hpp"
#include "sim/profile.hpp"
#include "sim/simulator.hpp"

namespace composim::telemetry {

class Profiler final : public ProfileSink {
 public:
  /// Construction does NOT install the profiler; call
  /// sim.setProfiler(&profiler) to start receiving component spans.
  explicit Profiler(Simulator& sim) : sim_(&sim) {}

  void setEnabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// RAII complete-span handle for synchronous scopes that drive the
  /// simulator (an experiment run, a measurement window). Records a span
  /// from construction to end()/destruction on `track`.
  class Span {
   public:
    Span() = default;
    Span(Span&& other) noexcept { *this = std::move(other); }
    Span& operator=(Span&& other) noexcept;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { end(); }
    /// Close early; extra args are merged into the closing record.
    void end(ProfileArgs args = {});

   private:
    friend class Profiler;
    Span(Profiler* prof, std::string track) : prof_(prof), track_(std::move(track)) {}
    Profiler* prof_ = nullptr;
    std::string track_;
  };

  /// Open a RAII span on `track` (defaults to the category name).
  Span span(const char* category, std::string name, ProfileArgs args = {},
            std::string track = {});

  // --- ProfileSink ---
  void beginSpan(const std::string& track, const char* category,
                 std::string name, ProfileArgs args = {}) override;
  void endSpan(const std::string& track, ProfileArgs args = {}) override;
  AsyncSpanId beginAsyncSpan(const char* category, std::string name,
                             ProfileArgs args = {}) override;
  void endAsyncSpan(AsyncSpanId id, ProfileArgs args = {}) override;
  void setCounter(const std::string& counter, const std::string& series,
                  double value) override;
  void instant(const char* category, std::string name,
               ProfileArgs args = {}) override;

  std::uint64_t newCorrelation() override {
    return recording() ? next_corr_++ : 0;
  }

  /// Number of records captured so far (spans count begin+end separately).
  std::size_t recordCount() const { return records_.size(); }

  /// Cap the record vector at `cap` entries (0 = unbounded, the default).
  /// Once the cap is reached, NEW spans/counters/instants are dropped
  /// whole — a begin that would exceed the cap is suppressed together
  /// with its matching end, so the recorded stream stays balanced — while
  /// ends of spans that were recorded before the cap still append (a
  /// bounded overshoot of at most the open-span depth). Counter integrals
  /// keep updating so counterMean() stays exact even when the 'C' records
  /// are dropped. Long serving-style runs use this to bound span memory.
  void setMaxRecords(std::size_t cap) { max_records_ = cap; }
  std::size_t maxRecords() const { return max_records_; }
  /// Records suppressed by the max-record policy so far.
  std::uint64_t droppedRecords() const { return dropped_records_; }

  /// Whether the counter series was ever set. counterValue/counterMean
  /// return 0.0 both for "never updated" and for a genuine 0.0; callers
  /// that need to tell the two apart check this first.
  bool hasCounter(const std::string& counter, const std::string& series) const;
  /// Latest value of a counter series (0 if never set).
  double counterValue(const std::string& counter,
                      const std::string& series) const;
  /// Time-weighted mean of a counter series from its first update to
  /// now() (or to the finalize() time once finalized). 0 if never set.
  double counterMean(const std::string& counter,
                     const std::string& series) const;

  /// Freeze the trace: closes the counter integrals at the current time
  /// and detaches from the Simulator, so the Profiler may safely outlive
  /// the system that produced the trace (Experiment hands it back to the
  /// caller this way). Recording stops.
  void finalize();

  /// The trace as a Chrome trace_event JSON document. Events are emitted
  /// in the documented deterministic export order (see exportOrder()), so
  /// identical runs produce byte-identical traces even when many tracks
  /// record at the same simulated timestamp.
  falcon::Json chromeTrace() const;
  /// Write chromeTrace() to `path`; Internal status on I/O failure.
  Status writeChromeTrace(const std::string& path, int indent = -1) const;

  /// Deterministic export order over the records, the tie-break contract
  /// for colliding timestamps: records sort by (start time, track id,
  /// record sequence). Within one track the recording sequence is already
  /// depth-correct (an end that shares its timestamp with a sibling begin
  /// was recorded first, inner spans close before outer ones), so
  /// preserving per-track sequence keeps every B/E and b/e pairing valid;
  /// ordering same-timestamp records of *different* tracks by track id
  /// removes the cross-track interleaving that used to depend on event
  /// execution order. Track ids are assigned in first-use order and names
  /// are fixed per track, so the full key is equivalent to the documented
  /// (start, depth, name, seq) ordering restricted to valid traces.
  ///
  /// Precondition: records are in nondecreasing time order, as recording
  /// at the sim clock leaves them, so only runs of equal timestamps are
  /// sorted. A record earlier than its predecessor (reachable only through
  /// a hand-built State) throws std::logic_error, here and in chromeTrace().
  std::vector<std::size_t> exportOrder() const;

  /// Opaque full-trace snapshot (records, track table, open async spans,
  /// counter integrals). A fork restores it into a fresh Profiler so the
  /// tail appends to the warmed prefix's trace exactly as a cold run
  /// would; open B records and async begins carry over and are closed by
  /// the tail. Copy-on-fork rather than serialize: the record vector is
  /// value-type all the way down and the tail mutates it in place.
  struct State;
  State state() const;
  void setState(const State& st);

  /// One captured event, exposed read-only so telemetry::analysis can
  /// replay the trace (span trees, causal joins, bucket sweeps) without a
  /// JSON round-trip. Records are stored in recording order; use
  /// exportOrder() for the canonical cross-track presentation order.
  struct Record {
    char phase = 'B';  // B/E nested, b/e async, C counter, i instant
    SimTime time = 0.0;
    std::uint32_t tid = 0;
    AsyncSpanId id = kInvalidAsyncSpan;
    std::string category;
    std::string name;
    ProfileArgs args;
  };
  const std::vector<Record>& records() const { return records_; }
  /// Track names indexed by Record::tid.
  const std::vector<std::string>& trackNames() const { return track_names_; }
  /// The trace's end time once finalized (== the Simulator clock at
  /// finalize()); 0 before that.
  SimTime endTime() const { return end_time_; }

 private:
  struct CounterState {
    double value = 0.0;
    SimTime since = 0.0;
    SimTime first = 0.0;
    double weighted_sum = 0.0;  // integral of value dt up to `since`
  };
  static constexpr std::uint32_t kNoTrack = UINT32_MAX;
  /// One counter's series (one or two per counter, so a linear scan) and
  /// its trace track id, kNoTrack until the counter's first recorded
  /// update registers the track.
  struct CounterTrack {
    std::uint32_t tid = kNoTrack;
    std::vector<std::pair<std::string, CounterState>> series;
  };
  using CounterMap = std::unordered_map<std::string, CounterTrack>;

  bool recording() const { return enabled_ && sim_ != nullptr; }
  bool atCapacity() const {
    return max_records_ > 0 && records_.size() >= max_records_;
  }
  SimTime now() const { return sim_ != nullptr ? sim_->now() : end_time_; }
  std::uint32_t trackId(const std::string& track);
  const CounterState* findCounter(const std::string& counter,
                                  const std::string& series) const;

  Simulator* sim_;  // null after finalize()
  bool enabled_ = true;
  SimTime end_time_ = 0.0;
  std::vector<Record> records_;
  std::vector<std::string> track_names_;  // index = tid
  std::unordered_map<std::string, std::uint32_t> track_ids_;
  std::unordered_map<AsyncSpanId, std::size_t> open_async_;  // id -> begin idx
  // Keyed by counter name: one hash lookup per setCounter. Nothing that
  // reaches output iterates it (finalize closes each integral on its own).
  CounterMap counters_;
  AsyncSpanId next_async_ = 1;
  std::uint64_t next_corr_ = 1;
  // Max-record drop policy (0 = unbounded). drop_depth_[tid] counts open
  // track spans whose begin was suppressed, so the matching ends are
  // suppressed too and the recorded stream stays balanced.
  std::size_t max_records_ = 0;
  std::uint64_t dropped_records_ = 0;
  std::unordered_map<std::uint32_t, std::uint32_t> drop_depth_;
};

struct Profiler::State {
  bool enabled = true;
  std::vector<Record> records;
  std::vector<std::string> track_names;
  std::unordered_map<std::string, std::uint32_t> track_ids;
  std::unordered_map<AsyncSpanId, std::size_t> open_async;
  CounterMap counters;
  AsyncSpanId next_async = 1;
  std::uint64_t next_corr = 1;
  std::size_t max_records = 0;
  std::uint64_t dropped_records = 0;
  std::unordered_map<std::uint32_t, std::uint32_t> drop_depth;
};

}  // namespace composim::telemetry
