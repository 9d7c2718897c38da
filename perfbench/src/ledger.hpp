// perfbench: span and counter ledger for the traced run.
//
// Spans are recorded from the benchmark's own code, around the calls it
// makes into composim's public entry points; nothing inside the library
// is instrumented. A span's layer is the first dot-separated component of
// its name ("dl.graph_ir.load" belongs to "dl"). Spans stay in memory and
// are written out once, when the run ends.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// CPU time of the calling thread. The benchmark is single-threaded, so
/// this is the host time composim spent, without the time the OS gave to
/// other processes on a shared host. Every measurement uses it.
inline double cpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Wall-clock time: only for the run's time budget and the parallelism
/// probe.
inline double wallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::string name;
  double start = 0.0;  // thread CPU seconds
  double end = 0.0;
  int parent = -1;     // index into the ledger's spans, -1 for a root
  int op = -1;         // op id the span belongs to, -1 outside any op
  double duration() const { return end - start; }
};

class Ledger {
 public:
  /// A disabled ledger records nothing; Scope still works, so the traced
  /// and untraced paths run the same code.
  explicit Ledger(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Ledger& ledger, const char* name, int op = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Ledger& ledger_;
    int index_ = -1;
  };

  /// Add `v` to the named counter (counters exist only when enabled).
  void count(const std::string& name, double v);
  double counter(const std::string& name) const;

  /// Summed duration of every span with this exact name, and how many.
  double totalSeconds(const std::string& name) const;
  std::size_t spanCount(const std::string& name) const;

  /// Self time (duration minus the time covered by direct children),
  /// summed per layer.
  std::map<std::string, double> selfSecondsByLayer() const;

  /// Write every span as one JSON document; false when the file cannot be
  /// written.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;  // stack of open span indices
  std::map<std::string, double> counters_;
};

}  // namespace perfbench
