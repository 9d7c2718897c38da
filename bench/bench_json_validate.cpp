// Validates composim bench JSON exports, dispatching on the schema tag:
//
//  * "composim.bench.simcore/1" (BENCH_simcore.json, written by
//    micro_simcore and amended by solver_scaling): a non-empty benchmark
//    array with sane per-run fields, the recompute/event-queue series the
//    perf gates track, and a solver_scaling section with a strictly
//    growing chassis sweep whose routing/batching invariants held (routes
//    equivalent to the flat oracle, batched arrivals bit-identical and no
//    slower than serial, steady-state routing allocation-free, and the
//    warmed ring all-reduce at most 2.5 heap allocations per flow).
//  * "composim.bench.analysis/1" (BENCH_analysis.json, written by
//    bottleneck_attribution): per-run attribution buckets nonnegative and
//    summing to iteration wall time within 0.1%, critical-path coverage
//    >= 95%, the jobs-1-vs-4 determinism flag, and a run-diff that
//    names a dominant bucket with the compute-not-dominant flag set.
//
// Exit code 0 on success, 1 with a diagnostic on stderr otherwise. Used
// by the bench_smoke and bench_analysis ctests; accepts one or more
// files and validates each in turn.
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "falcon/json.hpp"

using composim::falcon::Json;
using composim::falcon::JsonError;

namespace {

int fail(const std::string& why) {
  std::fprintf(stderr, "bench_json_validate: %s\n", why.c_str());
  return 1;
}

int validateSimcore(const Json& doc) {
  const Json* benches = doc.find("benchmarks");
  if (benches == nullptr || !benches->isArray()) {
    return fail("missing benchmarks array");
  }
  if (benches->asArray().empty()) return fail("benchmarks array is empty");

  std::set<std::string> names;
  for (const Json& entry : benches->asArray()) {
    if (!entry.isObject()) return fail("benchmark entry is not an object");
    const Json* name = entry.find("name");
    if (name == nullptr || !name->isString() || name->asString().empty()) {
      return fail("benchmark entry without a name");
    }
    const Json* rt = entry.find("real_time_ns");
    if (rt == nullptr || !rt->isNumber() || rt->asDouble() <= 0.0) {
      return fail(name->asString() + ": real_time_ns missing or non-positive");
    }
    const Json* iters = entry.find("iterations");
    if (iters == nullptr || !iters->isNumber() || iters->asDouble() <= 0.0) {
      return fail(name->asString() + ": iterations missing or non-positive");
    }
    const Json* ips = entry.find("items_per_second");
    if (ips == nullptr || !ips->isNumber() || ips->asDouble() < 0.0) {
      return fail(name->asString() + ": items_per_second missing or negative");
    }
    names.insert(name->asString());
  }

  for (const char* required : {"BM_MaxMinRecompute/256", "BM_MaxMinRecompute/1024",
                               "BM_EventQueueScheduleRun/1000"}) {
    if (names.count(required) == 0) {
      return fail(std::string("required series absent: ") + required);
    }
  }

  const Json* scaling = doc.find("solver_scaling");
  if (scaling == nullptr || !scaling->isObject()) {
    return fail("missing solver_scaling section");
  }
  const Json* allocs = scaling->find("route_steady_allocs");
  if (allocs == nullptr || !allocs->isNumber() || allocs->asDouble() != 0.0) {
    return fail("route_steady_allocs missing or non-zero");
  }
  constexpr double kMaxRingAllocsPerFlow = 2.5;
  const Json* ring_allocs = scaling->find("ring_allocs_per_flow");
  if (ring_allocs == nullptr || !ring_allocs->isNumber() ||
      !(ring_allocs->asDouble() > 0.0 &&
        ring_allocs->asDouble() <= kMaxRingAllocsPerFlow)) {
    return fail("ring_allocs_per_flow missing, non-positive or above 2.5");
  }
  const Json* scenarios = scaling->find("scenarios");
  if (scenarios == nullptr || !scenarios->isArray() ||
      scenarios->asArray().empty()) {
    return fail("solver_scaling.scenarios missing or empty");
  }
  double prev_chassis = 0.0, prev_gpus = 0.0;
  for (const Json& s : scenarios->asArray()) {
    if (!s.isObject()) return fail("solver_scaling scenario is not an object");
    const Json* chassis = s.find("chassis");
    const Json* gpus = s.find("gpus");
    if (chassis == nullptr || !chassis->isNumber() ||
        chassis->asDouble() <= prev_chassis) {
      return fail("scenario chassis counts must be strictly increasing");
    }
    if (gpus == nullptr || !gpus->isNumber() || gpus->asDouble() <= prev_gpus) {
      return fail("scenario gpu counts must be strictly increasing");
    }
    prev_chassis = chassis->asDouble();
    prev_gpus = gpus->asDouble();
    const std::string at = "chassis=" + std::to_string(
        static_cast<long long>(chassis->asDouble()));
    for (const char* rate : {"routes_per_sec_flat", "routes_per_sec_hier"}) {
      const Json* v = s.find(rate);
      if (v == nullptr || !v->isNumber() || v->asDouble() <= 0.0) {
        return fail(at + ": " + rate + " missing or non-positive");
      }
    }
    const Json* speedup = s.find("batched_speedup");
    if (speedup == nullptr || !speedup->isNumber() || speedup->asDouble() < 1.0) {
      return fail(at + ": batched_speedup missing or below 1x");
    }
    for (const char* flag : {"route_equivalent", "batched_bit_identical"}) {
      const Json* v = s.find(flag);
      if (v == nullptr || !v->isBool() || !v->asBool()) {
        return fail(at + ": " + flag + " missing or false");
      }
    }
  }
  return 0;
}

int validateAnalysis(const Json& doc) {
  constexpr double kTolerancePct = 0.1;
  constexpr double kMinCoveragePct = 95.0;
  const Json* runs = doc.find("runs");
  if (runs == nullptr || !runs->isArray() || runs->asArray().empty()) {
    return fail("missing or empty runs array");
  }
  for (const Json& run : runs->asArray()) {
    if (!run.isObject()) return fail("run entry is not an object");
    const Json* name = run.find("name");
    if (name == nullptr || !name->isString() || name->asString().empty()) {
      return fail("run entry without a name");
    }
    const std::string& at = name->asString();
    const Json* iters = run.find("iterations");
    if (iters == nullptr || !iters->isNumber() || iters->asDouble() <= 0.0) {
      return fail(at + ": iterations missing or non-positive");
    }
    const Json* wall = run.find("wall_mean_s");
    if (wall == nullptr || !wall->isNumber() || wall->asDouble() <= 0.0) {
      return fail(at + ": wall_mean_s missing or non-positive");
    }
    double partition = 0.0;
    for (const char* bucket :
         {"compute_mean_s", "exposed_comm_mean_s", "fabric_contention_mean_s",
          "stall_mean_s", "overlapped_comm_mean_s"}) {
      const Json* v = run.find(bucket);
      if (v == nullptr || !v->isNumber() || v->asDouble() < 0.0) {
        return fail(at + ": " + bucket + " missing or negative");
      }
      // overlapped comm re-counts compute time; it is not in the partition.
      if (std::string(bucket) != "overlapped_comm_mean_s") {
        partition += v->asDouble();
      }
    }
    const double err_pct =
        100.0 * (partition > wall->asDouble() ? partition - wall->asDouble()
                                              : wall->asDouble() - partition) /
        wall->asDouble();
    if (err_pct > kTolerancePct) {
      return fail(at + ": buckets sum off wall time by " +
                  std::to_string(err_pct) + "% (tolerance " +
                  std::to_string(kTolerancePct) + "%)");
    }
    const Json* cov = run.find("coverage_pct");
    if (cov == nullptr || !cov->isNumber() ||
        cov->asDouble() < kMinCoveragePct) {
      return fail(at + ": coverage_pct missing or below 95%");
    }
    const Json* err = run.find("max_attribution_error_pct");
    if (err == nullptr || !err->isNumber() || err->asDouble() > kTolerancePct) {
      return fail(at + ": max_attribution_error_pct missing or over tolerance");
    }
  }
  const Json* det = doc.find("determinism");
  if (det == nullptr || !det->isObject()) {
    return fail("missing determinism section");
  }
  const Json* ident = det->find("jobs1_vs_jobs4_identical");
  if (ident == nullptr || !ident->isBool() || !ident->asBool()) {
    return fail("jobs1_vs_jobs4_identical missing or false");
  }
  const Json* diff = doc.find("run_diff");
  if (diff == nullptr || !diff->isObject()) {
    return fail("missing run_diff section");
  }
  const Json* dom = diff->find("dominant_bucket");
  if (dom == nullptr || !dom->isString() || dom->asString() == "none") {
    return fail("run_diff.dominant_bucket missing or none (indistinguishable runs)");
  }
  const Json* nd = diff->find("compute_not_dominant");
  if (nd == nullptr || !nd->isBool() || !nd->asBool()) {
    return fail("run_diff.compute_not_dominant missing or false");
  }
  return 0;
}

int validateFile(const char* path) {
  std::ifstream in(path);
  if (!in) return fail(std::string("cannot open ") + path);
  std::ostringstream buf;
  buf << in.rdbuf();

  Json doc;
  try {
    doc = Json::parse(buf.str());
  } catch (const JsonError& e) {
    return fail(std::string("parse error: ") + e.what());
  }
  if (!doc.isObject()) return fail("top-level value is not an object");
  const Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->isString()) {
    return fail("missing schema tag");
  }
  if (schema->asString() == "composim.bench.simcore/1") {
    return validateSimcore(doc);
  }
  if (schema->asString() == "composim.bench.analysis/1") {
    return validateAnalysis(doc);
  }
  return fail("unexpected schema tag: " + schema->asString());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return fail("usage: bench_json_validate <BENCH_*.json> [more...]");
  }
  for (int i = 1; i < argc; ++i) {
    if (validateFile(argv[i]) != 0) return 1;
  }
  return 0;
}
