// perfbench: composim's host-cost benchmark.
//
//   perfbench --workload <paper_matrix|traced_analysis|fault_recovery>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--golden-dir perfbench/golden] [--out-dir <dir>]
//             [--write-golden]
//
// Run from the repository root (graphs load from examples/graphs/). One
// single-threaded process. With --trace 0 it times whole passes over the
// workload's ops until --seconds have passed (and at least 100 ops ran)
// and prints the end-to-end metrics, its times scaled to a reference host
// speed (see referenceSeconds); with --trace 1 it alternates an
// untraced pass with a traced pass (spans, bare-stack twins and layer
// probes) and prints the per-layer metrics. Either way the last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 when the outputs are correct, 1 when a correctness
// gate failed, 2 on bad arguments or a set-up error (no result printed).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dl/workload_registry.hpp"
#include "ledger.hpp"
#include "telemetry/analysis.hpp"
#include "telemetry/profiler.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace perfbench;

namespace {

constexpr std::size_t kMinOps = 100;
constexpr int kSetups = 9;
/// CPU time of one reference-kernel run at the reference host speed. The
/// timed metrics are scaled to this speed; never change it, or every
/// baseline moves.
constexpr double kRefNominalSeconds = 1e-3;
/// Reference samples on each side of an op that set its host speed.
constexpr std::size_t kRefWindow = 3;
constexpr const char* kKnownDefect =
    "an incident was still open when the run ended";

struct Args {
  std::string workload;
  std::uint64_t seed = kGoldenChaosSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string golden_dir = "perfbench/golden";
  std::string out_dir;
  bool write_golden = false;
};

bool parseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--write-golden") {
      a->write_golden = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a->workload = v;
      } else if (flag == "--seed") {
        a->seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a->seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") return false;
        a->trace = v == "1";
      } else if (flag == "--golden-dir") {
        a->golden_dir = v;
      } else if (flag == "--out-dir") {
        a->out_dir = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Harrell-Davis estimate of percentile p (in (0, 100)): a weighted mean
/// of every order statistic, the weights being the Beta((n+1)q, (n+1)(1-q))
/// mass of each cell [i/n, (i+1)/n], q = p/100. A workload's op times
/// cluster by op, and the plain sample percentile jumps between clusters
/// when single samples trade ranks; this estimate moves smoothly.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double q = p / 100.0;
  const double a = q * (n + 1.0), b = (1.0 - q) * (n + 1.0);
  const double log_beta = std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b);
  auto density = [&](double t) {
    if (t <= 0.0 || t >= 1.0) return 0.0;
    return std::exp((a - 1.0) * std::log(t) + (b - 1.0) * std::log1p(-t) - log_beta);
  };
  constexpr int kSteps = 16;  // Simpson's rule per cell (even)
  double sum = 0.0, total = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double lo = static_cast<double>(i) / n;
    const double h = 1.0 / (n * kSteps);
    double mass = density(lo) + density(lo + kSteps * h);
    for (int k = 1; k < kSteps; ++k) mass += (k % 2 ? 4.0 : 2.0) * density(lo + k * h);
    mass *= h / 3.0;
    sum += mass * v[i];
    total += mass;
  }
  return sum / total;
}

/// Host-speed reference. On a shared host the CPU time of the same work
/// moves by up to 1.8x within a minute, as other tenants load the core and
/// its caches. So the benchmark times this fixed kernel, which shares no
/// code with composim, beside every op, and scales each op's CPU time by
/// kRefNominalSeconds over the kernel's time around it. The kernel churns
/// an ordered map (node allocation, pointer chasing, rebalancing), the
/// kind of work the simulator's event and flow bookkeeping does; of the
/// kernels tried (heap over a 512 KiB or 4 MiB table, pure arithmetic,
/// churn on long-lived maps of 16K or 64K entries, churn on this small
/// map) its time tracked the ops' best. Returns its CPU seconds.
double referenceSeconds() {
  static volatile std::size_t sink = 0;
  const double t0 = cpuSeconds();
  std::map<std::uint64_t, double> m;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 6'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    m[x % 8192] += 1.0;
    if (m.size() > 2048) m.erase(m.begin());
  }
  sink = sink + m.size();
  return cpuSeconds() - t0;
}

/// Scale factor to the reference speed for each of `ref`'s positions: the
/// nominal kernel time over the median kernel time within kRefWindow.
std::vector<double> speedScales(const std::vector<double>& ref) {
  std::vector<double> scales(ref.size());
  for (std::size_t j = 0; j < ref.size(); ++j) {
    const std::size_t lo = j < kRefWindow ? 0 : j - kRefWindow;
    const std::size_t hi = std::min(ref.size(), j + kRefWindow + 1);
    scales[j] = kRefNominalSeconds /
                median(std::vector<double>(ref.begin() + lo, ref.begin() + hi));
  }
  return scales;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Parallelism this host actually delivers: the same CPU burn on one
/// thread, then on every hardware thread at once. nproc alone misleads
/// on hosts that advertise more cores than they grant.
double effectiveParallelism(unsigned nproc) {
  auto burn = [] {
    double x = 1.0;
    for (int i = 0; i < 4'000'000; ++i) x = x * 1.0000001 + 1e-9;
    return x;
  };
  std::vector<double> sink(nproc + 1);
  double t0 = wallSeconds();
  sink[nproc] = burn();
  const double single = wallSeconds() - t0;
  t0 = wallSeconds();
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < nproc; ++i) {
    threads.emplace_back([&sink, &burn, i] { sink[i] = burn(); });
  }
  for (std::thread& t : threads) t.join();
  const double all = wallSeconds() - t0;
  return all > 0.0 ? static_cast<double>(nproc) * single / all : 0.0;
}

std::map<std::string, std::string> readGolden(const std::string& path,
                                              bool* found) {
  std::map<std::string, std::string> table;
  std::ifstream in(path);
  *found = static_cast<bool>(in);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    table[line.substr(0, line.find(' '))] = line;
  }
  return table;
}

/// Everything a run judges and tallies, shared by both modes.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t known_defect = 0;  // verdicts matching the known defect
  std::map<std::string, std::size_t> failed_by_model;
  std::size_t golden_checked = 0;
  std::size_t gate_failures = 0;    // correctness-gate violations
  std::vector<std::string> errors;  // the first few, for the report

  void error(std::string e) {
    if (errors.size() < 20) errors.push_back(std::move(e));
    ++gate_failures;
  }
};

struct Gate {
  const Workload& w;
  std::map<std::string, std::string> golden;
  bool covered = false;  // a golden table applies to this seed
  std::map<std::string, std::string> written;  // --write-golden capture
  bool write = false;
  /// First outcome of each op this run: its golden line and whether it
  /// failed. Later samples of the op must reproduce it.
  std::map<std::string, std::pair<std::string, bool>> seen;

  /// Judge one op sample. The first sample of an op is judged in full
  /// (run status, oracles, golden line) and counted once in `attempted`
  /// and `failed`; the simulation is deterministic, so every later sample
  /// of it is a timing repeat that must give the same outcome, and a
  /// difference fails the gate. The counts are thus fixed by the seed,
  /// however many samples the time budget allows.
  void judge(const Op& op, const OpOutcome& out, Tally& t) {
    const std::string line = goldenLine(w, op, out);
    const auto prior = seen.find(op.label);
    if (prior != seen.end()) {
      if (prior->second.first != line || prior->second.second != !out.ok()) {
        t.error(op.label + ": repeat differs from the op's first outcome:\n  "
                "first  " + prior->second.first + "\n  repeat " + line);
      }
      return;
    }
    bool failed = !out.ok();
    seen[op.label] = {line, failed};
    if (!out.status.ok) {
      t.error(op.label + ": run failed: " + out.status.toString());
    }
    for (const auto& v : out.verdicts) {
      if (v.passed) continue;
      const bool known = v.oracle == "liveness.terminal-state" &&
                         v.detail.find(kKnownDefect) != std::string::npos;
      if (known) {
        ++t.known_defect;
      } else {
        t.error(op.label + ": oracle " + v.oracle + " failed: " + v.detail);
      }
    }
    if (write) {
      written[op.label] = line;
    } else if (covered) {
      ++t.golden_checked;
      const auto it = golden.find(op.label);
      if (it == golden.end()) {
        t.error(op.label + ": no golden line");
        failed = true;
      } else if (it->second != line) {
        t.error("golden mismatch:\n  expected " + it->second + "\n  got      " +
                line);
        failed = true;
      }
    }
    ++t.attempted;
    if (failed) {
      ++t.failed;
      ++t.failed_by_model[op.model->name];
    }
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void printResult(const Tally& t, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              t.gate_failures == 0 ? "true" : "false", t.attempted, t.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// --trace 0: whole untraced passes until the time budget is spent, so
/// every run times the same mix of ops. Each op sample is followed by a
/// reference-kernel sample, and its CPU time is scaled to the reference
/// host speed (see referenceSeconds). The percentiles are over every
/// scaled op sample; the throughput is total iterations over total scaled
/// op time.
std::vector<Metric> runUntraced(const Workload& w, const Args& args, Gate& gate,
                                Tally& t, const std::string& ops_path) {
  Ledger off(false);
  const std::size_t min_passes = (kMinOps + w.ops.size() - 1) / w.ops.size();
  std::vector<std::size_t> sample_op;  // in run order
  std::vector<double> op_s, ref_s;
  std::vector<double> iterations(w.ops.size());
  std::size_t passes = 0;
  const double start = wallSeconds();
  while (passes < min_passes || wallSeconds() - start < args.seconds) {
    for (std::size_t i = 0; i < w.ops.size(); ++i) {
      const OpOutcome out = runOp(w, w.ops[i], off, static_cast<int>(i));
      sample_op.push_back(i);
      op_s.push_back(out.seconds);
      ref_s.push_back(referenceSeconds());
      iterations[i] = out.status.ok
                          ? static_cast<double>(out.result.training.iterations_run)
                          : 0.0;
      gate.judge(w.ops[i], out, t);
    }
    ++passes;
    if (gate.write) break;
  }
  const std::vector<double> scales = speedScales(ref_s);
  std::vector<double> op_ms, raw_ms;
  double total_seconds = 0.0, raw_seconds = 0.0;
  double total_iterations = 0.0;
  for (std::size_t j = 0; j < op_s.size(); ++j) {
    op_ms.push_back(op_s[j] * scales[j] * 1e3);
    raw_ms.push_back(op_s[j] * 1e3);
    total_seconds += op_s[j] * scales[j];
    raw_seconds += op_s[j];
    total_iterations += iterations[sample_op[j]];
  }
  if (!ops_path.empty()) {
    std::ofstream out(ops_path);
    out << "# op\titerations\tcpu_ms\treference_ms\tscaled_ms (run order)\n";
    for (std::size_t j = 0; j < op_s.size(); ++j) {
      out << w.ops[sample_op[j]].label << '\t' << iterations[sample_op[j]] << '\t'
          << raw_ms[j] << '\t' << ref_s[j] * 1e3 << '\t' << op_ms[j] << '\n';
    }
  }
  std::printf("measured: %zu passes of %zu ops (%zu op samples) in %.2f s\n",
              passes, w.ops.size(), op_s.size(), wallSeconds() - start);
  std::printf("host speed: reference kernel median %.4f ms (nominal %.4f ms); "
              "unscaled op p50 %.4f ms, p90 %.4f ms, iters_per_s %.2f\n",
              median(ref_s) * 1e3, kRefNominalSeconds * 1e3,
              percentile(raw_ms, 50.0), percentile(raw_ms, 90.0),
              total_iterations / raw_seconds);
  return {
      {"iters_per_s", total_iterations / total_seconds, "1/s"},
      {"op_p50_ms", percentile(op_ms, 50.0), "ms"},
      {"op_p90_ms", percentile(op_ms, 90.0), "ms"},
      {"peak_rss_mb", peakRssMb(), "MB"},
      {"ok_frac",
       static_cast<double>(t.attempted - t.failed) /
           static_cast<double>(t.attempted),
       "fraction"},
  };
}

/// Fig 11's subset (five Table II models x local/hybrid/falcon): the bare
/// twins' work counts over it, pinned on the seed commit.
struct CrossCheck {
  std::uint64_t events = 0, flows = 0, solves = 0;
  int runs = 0;
  static constexpr std::uint64_t kEvents = 5'295'737;
  static constexpr std::uint64_t kFlows = 3'242'991;
  static constexpr std::uint64_t kSolves = 3'244'679;
};

bool inFig11(const Op& op) {
  static const std::set<std::string> table2 = [] {
    std::set<std::string> names;
    for (const auto& m : dl::WorkloadRegistry::instance().paperZoo()) {
      names.insert(m.name);
    }
    return names;
  }();
  const auto c = op.spec.config;
  return table2.count(op.model->name) != 0 &&
         (c == core::SystemConfig::LocalGpus ||
          c == core::SystemConfig::HybridGpus ||
          c == core::SystemConfig::FalconGpus);
}

/// One traced pass: every op under spans, its bare twin, then the layer
/// probes.
void tracedPass(const Workload& w, Ledger& L, Gate& gate, Tally& t,
                CrossCheck* cross, double* metrics_seconds) {
  for (std::size_t i = 0; i < w.ops.size(); ++i) {
    const Op& op = w.ops[i];
    const OpOutcome out = runOp(w, op, L, static_cast<int>(i));
    gate.judge(op, out, t);
    const dl::TrainingResult& r = out.result.training;
    if (out.status.ok) {
      L.count("dl.iterations", static_cast<double>(r.iterations_run));
      L.count("dl.lost_iterations", static_cast<double>(r.lost_iterations));
      L.count("dl.restores", static_cast<double>(r.restores));
      const core::RecoverySummary& rec = out.result.recovery;
      L.count("core.recovery.faults", static_cast<double>(rec.faults_injected));
      L.count("core.recovery.retries",
              static_cast<double>(rec.reattach_retries));
      L.count("falcon.detections", static_cast<double>(rec.detections));
    }
    if (w.kind == Kind::Analysis && out.status.ok) {
      Ledger::Scope span(L, "telemetry.analyze", static_cast<int>(i));
      telemetry::analysis::analyzeProfile(*out.result.profiler, op.model->name);
    }

    dl::TrainingResult twin_result;
    const double t0 = cpuSeconds();
    TwinCounts c;
    {
      Ledger::Scope span(L, "bench.twin", static_cast<int>(i));
      c = runTwin(op, L, &twin_result);
    }
    *metrics_seconds += out.experiment_seconds - (cpuSeconds() - t0);
    const bool same =
        out.status.ok
            ? c.finished && sameTraining(twin_result, r) &&
                  (!out.result.recovery.enabled ||
                   (c.flows_started == out.result.recovery.flows_started &&
                    c.flows_failed == out.result.recovery.flows_failed))
            : !c.finished;
    if (!same) t.error(op.label + ": bare twin differs from the op's result");
    L.count("sim.events", static_cast<double>(c.events));
    L.count("fabric.flows_started", static_cast<double>(c.flows_started));
    L.count("fabric.flows_failed", static_cast<double>(c.flows_failed));
    L.count("fabric.component_solves", static_cast<double>(c.component_solves));
    L.count("fabric.rate_recomputations",
            static_cast<double>(c.rate_recomputations));
    L.count("collectives.ops", static_cast<double>(c.collectives));
    if (cross != nullptr && inFig11(op)) {
      cross->events += c.events;
      cross->flows += c.flows_started;
      cross->solves += c.component_solves;
      ++cross->runs;
    }
  }

  for (core::SystemConfig c : w.configs) routeProbe(c, L);
  for (std::size_t s : w.shapes) allReduceProbe(w.ops[s], L);
  if (w.kind == Kind::Analysis) return;
  // Untraced workloads: what `--trace --analyze` would cost on the
  // traced_analysis shapes this workload contains.
  for (std::size_t s : w.shapes) {
    const Op& op = w.ops[s];
    const bool shape = (op.model->name == "ResNet-50" ||
                        op.model->name == "BERT-L") &&
                       (op.spec.config == core::SystemConfig::LocalGpus ||
                        op.spec.config == core::SystemConfig::FalconGpus);
    if (!shape) continue;
    try {
      traceProbe(op, L);
    } catch (const std::exception& e) {
      t.error(op.label + ": trace probe failed: " + e.what());
    }
  }
}

/// --trace 1: alternate untraced and traced passes; per-layer metrics.
std::vector<Metric> runTraced(const Workload& w, const Args& args,
                              const Ledger& setup_ledger, Gate& gate,
                              Tally& t, const std::string& spans_path) {
  Ledger L(true);
  Ledger off(false);
  std::vector<double> untraced_s, traced_s;
  CrossCheck cross;
  double metrics_seconds = 0.0;
  const double start = wallSeconds();
  while (traced_s.empty() || wallSeconds() - start < args.seconds) {
    double t0 = cpuSeconds();
    for (std::size_t i = 0; i < w.ops.size(); ++i) {
      runOp(w, w.ops[i], off, static_cast<int>(i));
    }
    untraced_s.push_back(cpuSeconds() - t0);
    t0 = cpuSeconds();
    tracedPass(w, L, gate, t, traced_s.empty() ? &cross : nullptr,
               &metrics_seconds);
    traced_s.push_back(cpuSeconds() - t0);
  }
  const double passes = static_cast<double>(traced_s.size());
  const double ops = passes * static_cast<double>(w.ops.size());
  std::printf("measured: %zu untraced + %zu traced passes of %zu ops in "
              "%.2f s\n",
              untraced_s.size(), traced_s.size(), w.ops.size(),
              wallSeconds() - start);

  if (w.kind == Kind::Matrix) {
    const bool ok = cross.events == CrossCheck::kEvents &&
                    cross.flows == CrossCheck::kFlows &&
                    cross.solves == CrossCheck::kSolves;
    std::printf(
        "count cross-check (Fig 11 subset, %d twin runs): sim.events %llu "
        "[seed %llu], fabric.flows_started %llu [seed %llu], "
        "fabric.component_solves %llu [seed %llu]: %s\n",
        cross.runs, static_cast<unsigned long long>(cross.events),
        static_cast<unsigned long long>(CrossCheck::kEvents),
        static_cast<unsigned long long>(cross.flows),
        static_cast<unsigned long long>(CrossCheck::kFlows),
        static_cast<unsigned long long>(cross.solves),
        static_cast<unsigned long long>(CrossCheck::kSolves),
        ok ? "ok" : "CHANGED");
  }

  auto perPass = [&](const char* counter) { return L.counter(counter) / passes; };
  auto meanMs = [&](const Ledger& l, const char* span) {
    const std::size_t n = l.spanCount(span);
    return n == 0 ? 0.0 : l.totalSeconds(span) * 1e3 / static_cast<double>(n);
  };
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

  const double records = L.counter("telemetry.trace_records");
  const double exports = static_cast<double>(L.spanCount("telemetry.trace_export"));
  std::vector<Metric> m = {
      {"sim.events", perPass("sim.events"), "count"},
      {"sim.ns_per_event",
       ratio(L.totalSeconds("sim.run") * 1e9, L.counter("sim.events")), "ns"},
      {"fabric.flows_started", perPass("fabric.flows_started"), "count"},
      {"fabric.component_solves", perPass("fabric.component_solves"), "count"},
      {"fabric.rate_recomputations", perPass("fabric.rate_recomputations"),
       "count"},
      {"fabric.solves_per_flow",
       ratio(L.counter("fabric.component_solves"),
             L.counter("fabric.flows_started")),
       "ratio"},
      {"fabric.route_us",
       ratio(L.totalSeconds("fabric.route_cold") * 1e6,
             L.counter("fabric.route_cold_calls")),
       "us"},
      {"fabric.route_cached_ns",
       ratio(L.totalSeconds("fabric.route_cached") * 1e9,
             L.counter("fabric.route_cached_calls")),
       "ns"},
      {"fabric.flows_failed", perPass("fabric.flows_failed"), "count"},
      {"collectives.ops", perPass("collectives.ops"), "count"},
      {"collectives.flows_per_op",
       ratio(L.counter("collectives.allreduce_flows"),
             L.counter("collectives.allreduce_calls")),
       "ratio"},
      {"collectives.allreduce_ms", meanMs(L, "collectives.allreduce"), "ms"},
      {"dl.graph_ir.load_ms", meanMs(setup_ledger, "dl.graph_ir.load"), "ms"},
      {"dl.trainer_run_ms", meanMs(L, "dl.trainer_run"), "ms"},
      {"dl.iterations", perPass("dl.iterations"), "count"},
      {"dl.lost_iterations", perPass("dl.lost_iterations"), "count"},
      {"dl.restores", perPass("dl.restores"), "count"},
      {"core.system_build_ms", meanMs(L, "core.system_build"), "ms"},
      {"core.experiment_ms", meanMs(L, "core.experiment"), "ms"},
      {"core.chaos.judge_ms", meanMs(L, "core.chaos.judge"), "ms"},
      {"core.recovery.faults", perPass("core.recovery.faults"), "count"},
      {"core.recovery.retries", perPass("core.recovery.retries"), "count"},
      {"falcon.detections", perPass("falcon.detections"), "count"},
      {"telemetry.metrics_ms", metrics_seconds * 1e3 / ops, "ms"},
      {"telemetry.trace_records", ratio(records, exports), "count"},
      {"telemetry.trace_dropped",
       ratio(L.counter("telemetry.trace_dropped"), exports), "count"},
      {"telemetry.trace_bytes", ratio(L.counter("telemetry.trace_bytes"), exports),
       "bytes"},
      {"telemetry.trace_export_ms", meanMs(L, "telemetry.trace_export"), "ms"},
      {"telemetry.trace_ns_per_record",
       ratio(L.totalSeconds("telemetry.trace_export") * 1e9, records), "ns"},
      {"telemetry.analysis_ms",
       ratio((L.totalSeconds("telemetry.analyze") +
              L.totalSeconds("telemetry.analysis")) *
                 1e3,
             exports),
       "ms"},
  };
  const std::map<std::string, double> self = L.selfSecondsByLayer();
  for (const char* layer :
       {"bench", "core", "dl", "sim", "fabric", "collectives", "telemetry"}) {
    const auto it = self.find(layer);
    m.push_back({std::string(layer) + ".self_ms",
                 it == self.end() ? 0.0 : it->second * 1e3 / passes, "ms"});
  }
  const double untraced = median(untraced_s);
  const double traced = median(traced_s);
  m.push_back({"bench.untraced_pass_s", untraced, "s"});
  m.push_back({"bench.traced_pass_s", traced, "s"});
  m.push_back({"bench.trace_overhead_s", traced - untraced, "s"});

  if (!spans_path.empty()) {
    const bool ok = setup_ledger.write(spans_path + ".setup.json") &&
                    L.write(spans_path + ".json");
    std::printf("spans: %s.{setup,}.json%s\n", spans_path.c_str(),
                ok ? "" : " (write failed)");
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <paper_matrix|traced_analysis|"
                 "fault_recovery> --seed <n> --seconds <s> --trace <0|1> "
                 "[--golden-dir <dir>] [--out-dir <dir>] [--write-golden]\n");
    return 2;
  }

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("host: nproc=%u effective_parallelism=%.2f build=%s "
              "compiler=\"%s\" jobs=1\n",
              nproc, effectiveParallelism(nproc), PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER);

  // Set-up builds the inputs (graph loads checked against the built-ins,
  // the op list, and for fault_recovery the baselines and scenarios), then
  // runs one warm-up op so lazy initialization and cold caches are paid
  // here, not in the first timed op. The warm-up op is the one with the
  // smallest label, whatever the seed's order. Set-up runs several times,
  // with a reference-kernel sample before and after each, and is scaled to
  // the reference host speed like the ops; the median is reported.
  Ledger setup_ledger(args.trace);
  Ledger off(false);
  Workload w;
  std::vector<std::string> setup_errors;
  std::vector<double> setup_raw, setup_ref{referenceSeconds()};
  try {
    for (int i = 0; i < kSetups; ++i) {
      setup_errors.clear();
      const double t0 = cpuSeconds();
      w = setUp(args.workload, args.seed, setup_ledger, &setup_errors);
      const auto warm = std::min_element(
          w.ops.begin(), w.ops.end(),
          [](const Op& a, const Op& b) { return a.label < b.label; });
      runOp(w, *warm, off, -1);
      setup_raw.push_back(cpuSeconds() - t0);
      setup_ref.push_back(referenceSeconds());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    return 2;
  }
  const std::vector<double> setup_scales = speedScales(setup_ref);
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    setup_s.push_back(setup_raw[i] * 0.5 * (setup_scales[i] + setup_scales[i + 1]));
  }

  Tally tally;
  for (const std::string& e : setup_errors) tally.error(e);
  Gate gate{w, {}, false, {}, args.write_golden, {}};
  const std::string golden_name = goldenFile(w);
  if (!golden_name.empty() && !args.write_golden) {
    gate.golden = readGolden(args.golden_dir + "/" + golden_name, &gate.covered);
    if (!gate.covered) tally.error("missing golden table " + golden_name);
  }

  std::string spans_path, ops_path;
  if (!args.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string stem = args.workload + "_seed" + std::to_string(args.seed);
    spans_path = args.out_dir + "/spans_" + stem;
    ops_path = args.out_dir + "/ops_" + stem + ".tsv";
  }
  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = runTraced(w, args, setup_ledger, gate, tally, spans_path);
  } else {
    metrics = runUntraced(w, args, gate, tally, ops_path);
    metrics.insert(metrics.begin() + 1, Metric{"setup_s", median(setup_s), "s"});
  }

  if (args.write_golden) {
    if (golden_name.empty()) {
      std::fprintf(stderr, "perfbench: seed %llu has no golden table\n",
                   static_cast<unsigned long long>(args.seed));
      return 2;
    }
    const std::string path = args.golden_dir + "/" + golden_name;
    std::ofstream out(path);
    out << "# perfbench golden outputs: " << w.name << ", seed " << w.seed
        << (w.kind == Kind::Chaos ? "" : " (order-independent)") << "\n";
    for (const auto& [label, line] : gate.written) out << line << "\n";
    std::printf("wrote %zu golden lines to %s\n", gate.written.size(),
                path.c_str());
  }

  std::printf("setup: %d runs, median %.4f s (unscaled %.4f s)\n", kSetups,
              median(setup_s), median(setup_raw));
  std::printf("ops: %zu attempted, %zu failed, failed_frac %.4f "
              "(each op judged once, repeats must match; known defect, %s: "
              "%zu)\n",
              tally.attempted, tally.failed,
              static_cast<double>(tally.failed) /
                  static_cast<double>(std::max<std::size_t>(1, tally.attempted)),
              kKnownDefect, tally.known_defect);
  for (const auto& [model, n] : tally.failed_by_model) {
    std::printf("  failed %-12s %zu\n", model.c_str(), n);
  }
  std::printf("golden: %s, %zu op outputs checked\n",
              args.write_golden ? "written"
              : gate.covered    ? golden_name.c_str()
                                : "not covered at this seed (oracles only)",
              tally.golden_checked);
  for (const std::string& e : tally.errors) {
    std::printf("GATE: %s\n", e.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-30s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  printResult(tally, metrics);
  return tally.gate_failures == 0 ? 0 : 1;
}
