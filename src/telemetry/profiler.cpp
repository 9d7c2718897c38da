#include "telemetry/profiler.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace composim::telemetry {

namespace {

constexpr int kTracePid = 1;

/// Arg objects keep Json::set() semantics: a repeated key overwrites the
/// value in the position of its first occurrence.
falcon::Json argsToJson(const ProfileArgs& args) {
  falcon::JsonObject obj;
  obj.reserve(args.size());
  for (const ProfileArg& a : args) {
    falcon::Json v = a.is_string ? falcon::Json(a.str) : falcon::Json(a.num);
    auto it = std::find_if(obj.begin(), obj.end(),
                           [&a](const auto& kv) { return kv.first == a.key; });
    if (it != obj.end()) {
      it->second = std::move(v);
    } else {
      obj.emplace_back(a.key, std::move(v));
    }
  }
  return falcon::Json(std::move(obj));
}

/// A metadata event naming the process (tid 0) or one track's row.
falcon::Json metadataEvent(std::int64_t tid, const char* name,
                           const std::string& label) {
  falcon::JsonObject args;
  args.emplace_back("name", label);
  falcon::JsonObject ev;
  ev.reserve(5);
  ev.emplace_back("ph", "M");
  ev.emplace_back("pid", kTracePid);
  ev.emplace_back("tid", tid);
  ev.emplace_back("name", name);
  ev.emplace_back("args", std::move(args));
  return falcon::Json(std::move(ev));
}

}  // namespace

Profiler::Span& Profiler::Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    end();
    prof_ = other.prof_;
    track_ = std::move(other.track_);
    other.prof_ = nullptr;
  }
  return *this;
}

void Profiler::Span::end(ProfileArgs args) {
  if (prof_ == nullptr) return;
  Profiler* p = std::exchange(prof_, nullptr);
  p->endSpan(track_, std::move(args));
}

Profiler::Span Profiler::span(const char* category, std::string name,
                              ProfileArgs args, std::string track) {
  if (!recording()) return Span{};
  if (track.empty()) track = category;
  beginSpan(track, category, std::move(name), std::move(args));
  return Span(this, std::move(track));
}

std::uint32_t Profiler::trackId(const std::string& track) {
  auto it = track_ids_.find(track);
  if (it != track_ids_.end()) return it->second;
  const auto tid = static_cast<std::uint32_t>(track_names_.size());
  track_names_.push_back(track);
  track_ids_.emplace(track, tid);
  return tid;
}

void Profiler::beginSpan(const std::string& track, const char* category,
                         std::string name, ProfileArgs args) {
  if (!recording()) return;
  const std::uint32_t tid = trackId(track);
  if (atCapacity()) {
    // Drop the whole span: remember the suppressed depth so the matching
    // endSpan (LIFO on this track) is suppressed too.
    ++dropped_records_;
    ++drop_depth_[tid];
    return;
  }
  records_.push_back(Record{'B', now(), tid, kInvalidAsyncSpan,
                            category, std::move(name), std::move(args)});
}

void Profiler::endSpan(const std::string& track, ProfileArgs args) {
  if (!recording()) return;
  const std::uint32_t tid = trackId(track);
  if (auto it = drop_depth_.find(tid);
      it != drop_depth_.end() && it->second > 0) {
    // This end matches a begin the cap suppressed.
    --it->second;
    ++dropped_records_;
    return;
  }
  // Ends of spans recorded before the cap always append (bounded
  // overshoot), keeping the recorded stream balanced.
  records_.push_back(Record{'E', now(), tid, kInvalidAsyncSpan,
                            {}, {}, std::move(args)});
}

AsyncSpanId Profiler::beginAsyncSpan(const char* category, std::string name,
                                     ProfileArgs args) {
  if (!recording()) return kInvalidAsyncSpan;
  if (atCapacity()) {
    // Suppressed whole: the caller gets the invalid id, whose endAsyncSpan
    // is a no-op, so no unbalanced 'e' is ever recorded.
    ++dropped_records_;
    return kInvalidAsyncSpan;
  }
  const AsyncSpanId id = next_async_++;
  open_async_.emplace(id, records_.size());
  records_.push_back(Record{'b', now(), trackId(category), id, category,
                            std::move(name), std::move(args)});
  return id;
}

void Profiler::endAsyncSpan(AsyncSpanId id, ProfileArgs args) {
  if (!recording() || id == kInvalidAsyncSpan) return;
  auto it = open_async_.find(id);
  if (it == open_async_.end()) return;  // unknown or already closed
  // Chrome pairs async begin/end by (category, id); category/name are
  // repeated from the begin record for readability in raw JSON.
  const Record& open = records_[it->second];
  Record end{'e', now(), open.tid, id, open.category, open.name,
             std::move(args)};
  open_async_.erase(it);
  records_.push_back(std::move(end));
}

const Profiler::CounterState* Profiler::findCounter(
    const std::string& counter, const std::string& series) const {
  auto c = counters_.find(counter);
  if (c == counters_.end()) return nullptr;
  for (const auto& [name, st] : c->second.series) {
    if (name == series) return &st;
  }
  return nullptr;
}

void Profiler::setCounter(const std::string& counter, const std::string& series,
                          double value) {
  if (!recording()) return;
  const SimTime t = now();
  CounterTrack& track = counters_.try_emplace(counter).first->second;
  auto it = std::find_if(track.series.begin(), track.series.end(),
                         [&series](const auto& s) { return s.first == series; });
  if (it == track.series.end()) {
    track.series.emplace_back(series, CounterState{value, t, t, 0.0});
  } else {
    CounterState& s = it->second;
    if (s.value == value) return;  // no change: skip the duplicate record
    s.weighted_sum += s.value * (t - s.since);
    s.value = value;
    s.since = t;
  }
  // Past the cap the integral above still updates (counterMean stays
  // exact); only the trace record is suppressed.
  if (atCapacity()) {
    ++dropped_records_;
    return;
  }
  // The track is registered at the counter's first recorded update, never
  // at a suppressed one, so a capped trace names no empty counter rows.
  if (track.tid == kNoTrack) track.tid = trackId(counter);
  records_.push_back(Record{'C', t, track.tid, kInvalidAsyncSpan,
                            "counter", counter,
                            ProfileArgs{{series, value}}});
}

void Profiler::instant(const char* category, std::string name,
                       ProfileArgs args) {
  if (!recording()) return;
  if (atCapacity()) {
    ++dropped_records_;
    return;
  }
  records_.push_back(Record{'i', now(), trackId(category), kInvalidAsyncSpan,
                            category, std::move(name), std::move(args)});
}

bool Profiler::hasCounter(const std::string& counter,
                          const std::string& series) const {
  return findCounter(counter, series) != nullptr;
}

double Profiler::counterValue(const std::string& counter,
                              const std::string& series) const {
  const CounterState* st = findCounter(counter, series);
  return st == nullptr ? 0.0 : st->value;
}

double Profiler::counterMean(const std::string& counter,
                             const std::string& series) const {
  const CounterState* st = findCounter(counter, series);
  if (st == nullptr) return 0.0;
  const SimTime end = now();
  const SimTime span = end - st->first;
  if (span <= 0.0) return st->value;
  const double integral = st->weighted_sum + st->value * (end - st->since);
  return integral / span;
}

Profiler::State Profiler::state() const {
  State st;
  st.enabled = enabled_;
  st.records = records_;
  st.track_names = track_names_;
  st.track_ids = track_ids_;
  st.open_async = open_async_;
  st.counters = counters_;
  st.next_async = next_async_;
  st.next_corr = next_corr_;
  st.max_records = max_records_;
  st.dropped_records = dropped_records_;
  st.drop_depth = drop_depth_;
  return st;
}

void Profiler::setState(const State& st) {
  enabled_ = st.enabled;
  records_ = st.records;
  track_names_ = st.track_names;
  track_ids_ = st.track_ids;
  open_async_ = st.open_async;
  counters_ = st.counters;
  next_async_ = st.next_async;
  next_corr_ = st.next_corr;
  max_records_ = st.max_records;
  dropped_records_ = st.dropped_records;
  drop_depth_ = st.drop_depth;
}

void Profiler::finalize() {
  if (sim_ == nullptr) return;
  end_time_ = sim_->now();
  // Close every counter integral at the end time so means computed after
  // the Simulator is gone cover the full run.
  for (auto& [counter, track] : counters_) {
    for (auto& [series, st] : track.series) {
      st.weighted_sum += st.value * (end_time_ - st.since);
      st.since = end_time_;
    }
  }
  sim_ = nullptr;
}

std::vector<std::size_t> Profiler::exportOrder() const {
  std::vector<std::size_t> order(records_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Recording order is already time-sorted (the sim clock is monotone),
  // so the (time, tid, seq) order only has to canonicalize each run of
  // records sharing one timestamp: sort the run by (tid, seq). Per-track
  // sequence is preserved (seq is the final key), which is what keeps
  // B/E nesting and b/e pairing valid.
  const auto byTrack = [this](std::size_t a, std::size_t b) {
    const std::uint32_t ta = records_[a].tid;
    const std::uint32_t tb = records_[b].tid;
    return ta != tb ? ta < tb : a < b;
  };
  std::size_t run = 0;
  for (std::size_t i = 1; i <= order.size(); ++i) {
    if (i < order.size() && records_[i].time == records_[run].time) continue;
    if (i < order.size() && records_[i].time < records_[run].time) {
      throw std::logic_error(
          "Profiler::exportOrder: record " + std::to_string(i) +
          " is earlier than the record before it; records must be in "
          "nondecreasing time order");
    }
    if (i - run > 1) std::sort(order.begin() + run, order.begin() + i, byTrack);
    run = i;
  }
  return order;
}

falcon::Json Profiler::chromeTrace() const {
  falcon::JsonArray events;
  events.reserve(1 + track_names_.size() + records_.size());
  // Process + per-track thread names so Perfetto labels the rows.
  events.push_back(metadataEvent(0, "process_name", "composim"));
  for (std::size_t tid = 0; tid < track_names_.size(); ++tid) {
    events.push_back(metadataEvent(static_cast<std::int64_t>(tid),
                                   "thread_name", track_names_[tid]));
  }
  for (const std::size_t idx : exportOrder()) {
    const Record& r = records_[idx];
    falcon::JsonObject ev;  // reserved to its exact field count
    ev.reserve(4 + !r.name.empty() + !r.category.empty() +
               (r.id != kInvalidAsyncSpan) + (r.phase == 'i') + !r.args.empty());
    ev.emplace_back("ph", std::string(1, r.phase));
    ev.emplace_back("ts", r.time * 1e6);  // trace_event timestamps are microseconds
    ev.emplace_back("pid", kTracePid);
    ev.emplace_back("tid", static_cast<std::int64_t>(r.tid));
    if (!r.name.empty()) ev.emplace_back("name", r.name);
    if (!r.category.empty()) ev.emplace_back("cat", r.category);
    if (r.id != kInvalidAsyncSpan) {
      ev.emplace_back("id", static_cast<std::int64_t>(r.id));
    }
    if (r.phase == 'i') ev.emplace_back("s", "t");  // instant scope: thread
    if (!r.args.empty()) ev.emplace_back("args", argsToJson(r.args));
    events.emplace_back(std::move(ev));
  }
  falcon::JsonObject other;
  other.emplace_back("producer", "composim.telemetry.Profiler");
  if (max_records_ > 0) {
    other.emplace_back("max_records", static_cast<std::int64_t>(max_records_));
    other.emplace_back("dropped_records",
                       static_cast<std::int64_t>(dropped_records_));
  }
  falcon::JsonObject doc;
  doc.emplace_back("traceEvents", std::move(events));
  doc.emplace_back("displayTimeUnit", "ms");
  doc.emplace_back("otherData", std::move(other));
  return falcon::Json(std::move(doc));
}

Status Profiler::writeChromeTrace(const std::string& path, int indent) const {
  std::ofstream out(path);
  if (!out) return Status::internal("cannot open '" + path + "' for writing");
  out << chromeTrace().dump(indent) << '\n';
  if (!out) return Status::internal("short write to '" + path + "'");
  return Status::success();
}

}  // namespace composim::telemetry
