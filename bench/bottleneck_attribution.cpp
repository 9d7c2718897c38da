// composim bench: bottleneck-attribution acceptance gates (ISSUE 10).
//
// Doubles as an acceptance test for telemetry::analysis:
//
//  1. Attribution soundness — for a local + falcon analysis pair, every
//     iteration's buckets must sum to its wall time within
//     kAttributionTolerancePct, and critical-path coverage must stay
//     >= 95% of wall time.
//  2. Determinism — re-running the identical suite at --jobs 1 and
//     --jobs 4 must produce byte-identical analysis JSON (the analyzer
//     rides on the sweep engine's byte-identity contract).
//  3. Run-diff attribution — diffing BERT-L on localGPUs vs falconGPUs
//     (the README's worked pair) must show the falcon run slower, with the
//     delta landing in exposed_comm and not in compute (moving the GPUs
//     behind the drawer changes the fabric, never the GPU math).
//
// Writes the gate results to BENCH_analysis.json (validated again by
// bench_json_validate) and exits non-zero on any gate failure.
//
//   $ ./bench/bottleneck_attribution BENCH_analysis.json
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment_config.hpp"
#include "core/sweep_runner.hpp"
#include "telemetry/analysis.hpp"
#include "telemetry/report.hpp"

using namespace composim;
namespace analysis = composim::telemetry::analysis;

namespace {

constexpr int kIterations = 8;
constexpr double kMinCoveragePct = 95.0;

core::ExperimentSpec makeSpec(const std::string& name, const std::string& workload,
                              core::SystemConfig cfg) {
  core::ExperimentSpec s;
  s.name = name;
  s.workload = workload;
  s.config = cfg;
  s.options.workload = s.workload;
  s.options.trainer.epochs = 1;
  s.options.trainer.max_iterations_per_epoch = kIterations;
  s.options.analysis = true;
  return s;
}

/// Run the specs at `jobs` and return each run's analysis JSON dump (the
/// byte string the determinism gate compares) plus the analyses.
struct SuiteOutcome {
  std::vector<std::shared_ptr<analysis::RunAnalysis>> analyses;
  std::vector<std::string> dumps;
  bool ok = true;
};

SuiteOutcome runSuite(std::vector<core::ExperimentSpec> specs, int jobs) {
  SuiteOutcome out;
  core::SweepRunner runner({jobs});
  const auto runs = runner.run(std::move(specs), {});
  for (const core::SweepRun& run : runs) {
    if (!run.status || !run.result.analysis) {
      std::fprintf(stderr, "run '%s' failed: %s\n", run.spec.name.c_str(),
                   run.status.toString().c_str());
      out.ok = false;
      continue;
    }
    run.result.analysis->name = run.spec.name;
    out.analyses.push_back(run.result.analysis);
    out.dumps.push_back(toJson(*run.result.analysis).dump(2));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_analysis.json";
  bool ok = true;
  auto gate = [&](bool pass, const std::string& what) {
    std::printf("  [%s] %s\n", pass ? "PASS" : "FAIL", what.c_str());
    if (!pass) ok = false;
    return pass;
  };

  // --- 1. Attribution soundness over the paper's core A/B pair. ---
  std::printf("attribution gates (ResNet-50 local vs falcon, %d iters):\n",
              kIterations);
  const std::vector<core::ExperimentSpec> base_suite = {
      makeSpec("resnet-local", "ResNet-50", core::SystemConfig::LocalGpus),
      makeSpec("resnet-falcon", "ResNet-50", core::SystemConfig::FalconGpus)};
  const SuiteOutcome serial = runSuite(base_suite, 1);
  gate(serial.ok && serial.analyses.size() == base_suite.size(),
       "both analysis runs completed");

  falcon::Json runs_json = falcon::Json::array();
  for (const auto& a : serial.analyses) {
    gate(a->iterations > 0, a->name + ": iterations analyzed > 0");
    gate(a->max_attribution_error_pct <= analysis::kAttributionTolerancePct,
         a->name + ": buckets sum to wall within " +
             telemetry::fmt(analysis::kAttributionTolerancePct, 1) + "% (max err " +
             telemetry::fmt(a->max_attribution_error_pct, 4) + "%)");
    gate(a->coverage_pct >= kMinCoveragePct,
         a->name + ": critical-path coverage " +
             telemetry::fmt(a->coverage_pct, 1) + "% >= " +
             telemetry::fmt(kMinCoveragePct, 0) + "%");
    falcon::Json j = falcon::Json::object();
    j.set("name", a->name);
    j.set("iterations", static_cast<std::int64_t>(a->iterations));
    j.set("wall_mean_s", a->mean.wall);
    j.set("compute_mean_s", a->mean.compute);
    j.set("exposed_comm_mean_s", a->mean.exposed_comm);
    j.set("overlapped_comm_mean_s", a->mean.overlapped_comm);
    j.set("fabric_contention_mean_s", a->mean.fabric_contention);
    j.set("stall_mean_s", a->mean.stall);
    j.set("coverage_pct", a->coverage_pct);
    j.set("max_attribution_error_pct", a->max_attribution_error_pct);
    runs_json.push(std::move(j));
  }

  // --- 2. Byte-identical analysis across sweep parallelism. ---
  std::printf("determinism gate (--jobs 1 vs --jobs 4):\n");
  const SuiteOutcome parallel = runSuite(base_suite, 4);
  const bool identical =
      parallel.ok && serial.dumps == parallel.dumps && !serial.dumps.empty();
  gate(identical, "analysis JSON byte-identical across jobs 1 vs 4");

  // --- 3. Run-diff on BERT-L local vs falcon. ---
  std::printf("run-diff gate (BERT-L localGPUs vs falconGPUs):\n");
  const SuiteOutcome pair = runSuite(
      {makeSpec("bert-local", "BERT-L", core::SystemConfig::LocalGpus),
       makeSpec("bert-falcon", "BERT-L", core::SystemConfig::FalconGpus)},
      2);
  falcon::Json diff_json = falcon::Json::object();
  bool compute_not_dominant = false;
  if (gate(pair.ok && pair.analyses.size() == 2, "both BERT-L runs completed")) {
    const analysis::RunDiff diff =
        analysis::diffRuns(*pair.analyses[0], *pair.analyses[1]);
    std::printf("%s", analysis::report(diff).c_str());
    double compute_delta = 0.0;
    for (const auto& [bucket, delta] : diff.bucket_deltas) {
      if (bucket == "compute") compute_delta = delta;
    }
    // BERT-L's gradient all-reduce crosses the drawer's host adapters on
    // falconGPUs, so the falcon run is slower per iteration and the delta
    // is exposed communication. The sign check fails on a swapped pair,
    // the bucket check on indistinguishable runs (dominant bucket "none").
    gate(diff.wall_delta_s > 0.0,
         "falcon run slower (wall delta " + telemetry::fmt(diff.wall_delta_s, 4) +
             " s/iter > 0)");
    gate(diff.dominant_bucket == "exposed_comm",
         "dominant bucket is exposed_comm (got " + diff.dominant_bucket + ")");
    compute_not_dominant =
        std::abs(compute_delta) <= 0.5 * std::abs(diff.wall_delta_s);
    gate(compute_not_dominant, "wall-time delta not attributed to compute");
    diff_json = toJson(diff);
    diff_json.set("compute_delta_s", compute_delta);
    diff_json.set("compute_not_dominant", compute_not_dominant);
  }

  falcon::Json doc = falcon::Json::object();
  doc.set("schema", "composim.bench.analysis/1");
  doc.set("iterations_per_run", kIterations);
  doc.set("runs", std::move(runs_json));
  falcon::Json det = falcon::Json::object();
  det.set("jobs1_vs_jobs4_identical", identical);
  doc.set("determinism", std::move(det));
  doc.set("run_diff", std::move(diff_json));
  doc.set("all_gates_passed", ok);
  try {
    telemetry::writeFile(out_path, doc.dump(2) + "\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot write %s: %s\n", out_path.c_str(), e.what());
    return 1;
  }
  std::printf("%s written to %s\n", ok ? "gates passed;" : "GATES FAILED;",
              out_path.c_str());
  return ok ? 0 : 1;
}
