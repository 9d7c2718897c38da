// composim bench: parallel sweep engine acceptance gate.
//
// Part 1 runs the same 8-spec suite twice through core::SweepRunner —
// serial (--jobs 1) and parallel (--jobs 4) — and verifies the engine's
// two promises:
//   (a) equivalence: serial and parallel runs produce byte-identical
//       RunTracker manifests AND byte-identical Chrome trace exports
//       (hard gate, exit nonzero on any divergence);
//   (b) speed: the parallel replay is >= 3x faster wall-clock on a host
//       that delivers the parallelism. A core count does not show that (a
//       shared or throttled host can report 4 hardware threads and run
//       them on about one core), so the gate is conditioned on a measured
//       probe: the same CPU burn timed on one thread and on four at once,
//       taken before and after the timed sweeps. It is enforced when both
//       probes read >= 3.5, and otherwise recorded as skipped with the
//       measured value; the bar itself never moves.
//
// The suite is eight equal-cost specs (same benchmark/config, distinct
// names) so a 4-worker replay has a balanced 2-runs-per-worker schedule
// and the speedup measurement reflects the engine, not scheduling luck.
//
// Part 2 gates the snapshot/fork path (DESIGN.md §14) on a warmup-heavy
// 8-variant suite — one shared warm prefix, short distinct tails:
//   (c) equivalence: forked sweeps (share_warm_prefixes on, serial AND
//       --jobs 4) are byte-identical to the cold sweep that runs every
//       prefix, across manifests, traces, Prometheus and JSONL exports;
//   (d) round-trip determinism: two forked replays are byte-identical to
//       each other;
//   (e) speed: the forked replay is >= 2x faster than the cold replay
//       (serial arms, so the ratio measures prefix reuse rather than
//       scheduling; enforced under the same parallelism probe as (b),
//       recorded as skipped elsewhere, where timing is too noisy to gate).
//
//   $ ./bench/sweep_parallel [BENCH_sweep.json]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/sweep_runner.hpp"
#include "telemetry/run_tracker.hpp"

using namespace composim;

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++g_failures;
}

constexpr int kSuiteSize = 8;
constexpr int kParallelJobs = 4;
// The speed gates need the host to deliver at least this many cores'
// worth of parallel CPU time while they are measured.
constexpr double kMinEffectiveParallelism = 3.5;

std::atomic<std::uint64_t> g_burn_sink{0};

/// Fixed CPU burn (register-only xorshift, no memory traffic).
void burn() {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 60'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_burn_sink.fetch_add(x, std::memory_order_relaxed);
}

double wallSeconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Effective parallelism the host delivers right now: kParallelJobs times
/// the burn's single-thread wall time over the wall time of kParallelJobs
/// concurrent burns. About 4 on an idle 4-core host, about 1 on a host
/// that runs every thread on one core.
double effectiveParallelism() {
  auto t0 = std::chrono::steady_clock::now();
  burn();
  const double one = wallSeconds(t0);
  t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int i = 0; i < kParallelJobs; ++i) threads.emplace_back(burn);
  for (auto& t : threads) t.join();
  const double many = wallSeconds(t0);
  return many > 0.0 ? kParallelJobs * one / many : 0.0;
}

std::string formatParallelism(double p) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", p);
  return buf;
}

std::vector<core::ExperimentSpec> buildSuite() {
  std::vector<core::ExperimentSpec> specs;
  for (int i = 0; i < kSuiteSize; ++i) {
    core::ExperimentSpec s;
    s.name = "sweep-" + std::to_string(i);
    s.workload = "ResNet-50";
    s.config = core::SystemConfig::FalconGpus;
    s.options.trainer.epochs = 1;
    s.options.trainer.max_iterations_per_epoch = 12;
    s.options.trace = true;  // trace exports participate in the equivalence gate
    specs.push_back(std::move(s));
  }
  return specs;
}

/// Warmup-heavy fork suite: eight variants of ONE warm prefix
/// (kWarmPrefix iterations) whose tails are 2..9 iterations. The prefix
/// dominates, so running it once and forking is most of the win. Untraced:
/// each fork would otherwise copy the donor's full prefix trace (string-
/// heavy record vectors), which costs about as much as recording it and
/// would measure trace copying instead of prefix reuse. Trace byte-
/// identity under forking is gated separately (snapshot_fork_test).
constexpr int kWarmPrefix = 24;

std::vector<core::ExperimentSpec> buildForkSuite() {
  std::vector<core::ExperimentSpec> specs;
  for (int i = 0; i < kSuiteSize; ++i) {
    core::ExperimentSpec s;
    s.name = "fork-" + std::to_string(i);
    s.workload = "ResNet-50";
    s.config = core::SystemConfig::FalconGpus;
    s.options.trainer.epochs = 1;
    s.options.trainer.max_iterations_per_epoch = kWarmPrefix + 2 + i;
    s.options.warm_prefix = kWarmPrefix;
    specs.push_back(std::move(s));
  }
  return specs;
}

struct SweepArtifacts {
  double wall_seconds = 0.0;
  std::string manifest;                  // RunTracker manifest JSON
  std::vector<std::string> traces;       // per-run Chrome trace JSON text
  std::vector<std::string> prometheus;   // per-run registry exposition
  std::vector<std::string> jsonl;        // per-run scraped-series dump
  bool all_ok = true;

  bool operator==(const SweepArtifacts& o) const {
    return manifest == o.manifest && traces == o.traces &&
           prometheus == o.prometheus && jsonl == o.jsonl;
  }
};

SweepArtifacts replay(int jobs, const std::string& trace_dir) {
  SweepArtifacts art;
  core::SweepRunner runner({jobs});
  const auto t0 = std::chrono::steady_clock::now();
  const auto outcomes = runner.run(buildSuite());
  art.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Aggregation happens here, post-barrier, exactly as run_suite does it.
  telemetry::RunTracker tracker;
  for (const auto& done : outcomes) {
    if (!done.status) {
      art.all_ok = false;
      continue;
    }
    auto& run = tracker.run(done.spec.name);
    run.setConfig("benchmark", done.spec.workload);
    run.setConfig("config", core::toString(done.spec.config));
    run.setSummary("mean_iteration_s", done.result.training.mean_iteration_time);
    run.setSummary("samples_per_second", done.result.training.samples_per_second);
    run.setSummary("gpu_util_pct", done.result.gpu_util_pct);
    run.setSummary("falcon_pcie_gbs", done.result.falcon_pcie_gbs);
    const auto& util = done.result.metrics->series("gpu_util_pct");
    for (std::size_t i = 0; i < util.size(); ++i) {
      run.log("gpu_util_pct", util.timeAt(i), util.valueAt(i));
    }
    const std::string path =
        trace_dir + "/" + done.spec.name + "_trace.json";
    if (done.result.profiler &&
        done.result.profiler->writeChromeTrace(path)) {
      std::ifstream in(path);
      std::ostringstream buf;
      buf << in.rdbuf();
      art.traces.push_back(buf.str());
    } else {
      art.all_ok = false;
    }
  }
  art.manifest = tracker.manifest().dump(2);
  return art;
}

/// Replay the fork suite, cold (every spec runs its own prefix) or forked
/// (the shared prefix runs once, tails fork from the snapshot). Artifacts
/// are collected in memory — every export surface participates in the
/// equivalence gates.
SweepArtifacts replayFork(int jobs, bool share) {
  SweepArtifacts art;
  core::SweepOptions opts;
  opts.jobs = jobs;
  opts.share_warm_prefixes = share;
  core::SweepRunner runner(opts);
  // Time the sweep alone; rendering the artifacts (trace JSON in
  // particular) costs the same per run in both arms and would only dilute
  // the prefix-reuse signal the speedup gate measures.
  const auto t0 = std::chrono::steady_clock::now();
  const auto outcomes = runner.run(buildForkSuite());
  art.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  telemetry::RunTracker tracker;
  for (const auto& done : outcomes) {
    if (!done.status) {
      art.all_ok = false;
      continue;
    }
    auto& run = tracker.run(done.spec.name);
    run.setConfig("benchmark", done.spec.workload);
    run.setConfig("config", core::toString(done.spec.config));
    run.setSummary("mean_iteration_s", done.result.training.mean_iteration_time);
    run.setSummary("gpu_util_pct", done.result.gpu_util_pct);
    if (done.result.profiler) {
      art.traces.push_back(done.result.profiler->chromeTrace().dump(2));
    }
    art.prometheus.push_back(done.result.metrics->prometheusText());
    art.jsonl.push_back(done.result.metrics->jsonlDump());
  }
  art.manifest = tracker.manifest().dump(2);
  return art;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Sweep engine",
                "serial vs parallel replay: equivalence + speedup");

  const std::string out_path = argc > 1 ? argv[1] : "BENCH_sweep.json";
  const std::string trace_root =
      std::filesystem::path(out_path).parent_path().string();
  const std::string serial_dir =
      (trace_root.empty() ? "." : trace_root) + "/sweep_serial";
  const std::string parallel_dir =
      (trace_root.empty() ? "." : trace_root) + "/sweep_parallel_traces";
  std::filesystem::create_directories(serial_dir);
  std::filesystem::create_directories(parallel_dir);

  const double probe_before = effectiveParallelism();
  std::printf("effective parallelism before the timed sweeps: %.2f\n",
              probe_before);
  std::printf("replaying %d specs serially (--jobs 1)...\n", kSuiteSize);
  const auto serial = replay(1, serial_dir);
  std::printf("replaying %d specs in parallel (--jobs %d)...\n", kSuiteSize,
              kParallelJobs);
  const auto parallel = replay(kParallelJobs, parallel_dir);

  const double speedup =
      parallel.wall_seconds > 0.0 ? serial.wall_seconds / parallel.wall_seconds
                                  : 0.0;
  const unsigned hw = std::thread::hardware_concurrency();

  std::printf("\nserial   : %.3f s wall\n", serial.wall_seconds);
  std::printf("parallel : %.3f s wall (%u hardware threads)\n",
              parallel.wall_seconds, hw);
  std::printf("speedup  : %.2fx\n\n", speedup);

  check(serial.all_ok && parallel.all_ok, "all runs completed");
  check(serial.manifest == parallel.manifest,
        "RunTracker manifests are byte-identical");
  check(serial.traces.size() == static_cast<std::size_t>(kSuiteSize) &&
            parallel.traces == serial.traces,
        "Chrome trace exports are byte-identical");
  std::printf("\nreplaying warmup-heavy fork suite (%d variants, %d-iteration "
              "shared prefix)...\n",
              kSuiteSize, kWarmPrefix);
  std::printf("  cold (every prefix runs, --jobs 1)...\n");
  const auto fork_cold = replayFork(1, /*share=*/false);
  std::printf("  forked (prefix runs once, --jobs 1)...\n");
  const auto fork_serial = replayFork(1, /*share=*/true);
  std::printf("  forked again (round-trip determinism)...\n");
  const auto fork_again = replayFork(1, /*share=*/true);
  std::printf("  forked (--jobs %d; snapshots restore on workers)...\n",
              kParallelJobs);
  const auto fork_parallel = replayFork(kParallelJobs, /*share=*/true);

  const double fork_speedup =
      fork_serial.wall_seconds > 0.0
          ? fork_cold.wall_seconds / fork_serial.wall_seconds
          : 0.0;
  std::printf("\nfork cold   : %.3f s wall\n", fork_cold.wall_seconds);
  std::printf("fork shared : %.3f s wall\n", fork_serial.wall_seconds);
  std::printf("fork speedup: %.2fx\n\n", fork_speedup);

  const double probe_after = effectiveParallelism();
  std::printf("effective parallelism after the timed sweeps: %.2f\n\n",
              probe_after);
  const double probe_min = std::min(probe_before, probe_after);
  const bool parallel_host = probe_min >= kMinEffectiveParallelism;
  const std::string gate_state =
      parallel_host ? "enforced"
                    : "skipped: effective parallelism " +
                          formatParallelism(probe_min) + " < 3.5";

  if (parallel_host) {
    check(speedup >= 3.0, "parallel replay >= 3x faster at --jobs 4");
  } else {
    std::printf("  [SKIP] speedup gate (effective parallelism %.2f < %.1f "
                "measured on this host; %.2fx not judged)\n",
                probe_min, kMinEffectiveParallelism, speedup);
  }
  check(fork_cold.all_ok && fork_serial.all_ok && fork_again.all_ok &&
            fork_parallel.all_ok,
        "all fork-suite runs completed");
  check(fork_cold == fork_serial,
        "forked sweep byte-identical to cold sweep "
        "(manifest+prometheus+jsonl)");
  check(fork_cold == fork_parallel,
        "forked sweep at --jobs 4 byte-identical to cold sweep");
  check(fork_serial == fork_again,
        "snapshot round-trip is deterministic (two forked replays "
        "byte-identical)");
  if (parallel_host) {
    check(fork_speedup >= 2.0,
          "forked replay >= 2x faster than cold on warmup-heavy suite");
  } else {
    std::printf("  [SKIP] fork speedup gate (effective parallelism %.2f < "
                "%.1f measured on this host; %.2fx not judged)\n",
                probe_min, kMinEffectiveParallelism, fork_speedup);
  }

  auto doc = falcon::Json::object();
  doc.set("bench", "sweep_parallel");
  doc.set("suite_size", static_cast<std::int64_t>(kSuiteSize));
  doc.set("jobs", static_cast<std::int64_t>(kParallelJobs));
  doc.set("serial_seconds", serial.wall_seconds);
  doc.set("parallel_seconds", parallel.wall_seconds);
  doc.set("speedup", speedup);
  doc.set("byte_identical", serial.manifest == parallel.manifest &&
                                parallel.traces == serial.traces);
  doc.set("hardware_concurrency", static_cast<std::int64_t>(hw));
  doc.set("parallelism_probe_before", probe_before);
  doc.set("parallelism_probe_after", probe_after);
  doc.set("speedup_gate", gate_state);
  doc.set("fork_suite_size", static_cast<std::int64_t>(kSuiteSize));
  doc.set("fork_warm_prefix", static_cast<std::int64_t>(kWarmPrefix));
  doc.set("fork_cold_seconds", fork_cold.wall_seconds);
  doc.set("fork_seconds", fork_serial.wall_seconds);
  doc.set("fork_parallel_seconds", fork_parallel.wall_seconds);
  doc.set("fork_speedup", fork_speedup);
  doc.set("fork_byte_identical",
          fork_cold == fork_serial && fork_cold == fork_parallel);
  doc.set("fork_roundtrip_deterministic", fork_serial == fork_again);
  doc.set("fork_speedup_gate", gate_state);
  std::ofstream out(out_path);
  out << doc.dump(2) << "\n";
  const bool wrote = out.good();
  out.close();
  check(wrote, "BENCH_sweep.json written");
  std::printf("\nreport written to %s\n", out_path.c_str());

  if (g_failures) {
    std::printf("\n%d acceptance check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("\nall acceptance checks passed\n");
  return 0;
}
