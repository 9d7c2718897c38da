// perfbench: the three workloads, their ops, and the traced-run probes.
//
// An op is one timed unit a user of composim pays for:
//   paper_matrix    one Experiment::run with the Fig 11 default options
//   traced_analysis one analyzed quickstart-shaped run, its Chrome trace
//                   serialized to memory and its analysis rendered
//   fault_recovery  one chaos::runSingleSpec call on a generated scenario
// Every op is judged by chaos::OracleRegistry::standard() and, where the
// golden table covers it, against the expected simulated outputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/chaos/campaign.hpp"
#include "core/experiment.hpp"
#include "ledger.hpp"

namespace perfbench {

using namespace composim;

enum class Kind { Matrix, Analysis, Chaos };

struct Op {
  std::string label;  // "<model>/<config>" or "<model>/chaos-NNNN"
  /// Config, options and workload name. Chaos ops run through
  /// runSingleSpec(spec); the others call Experiment::run with `model`.
  core::ExperimentSpec spec;
  std::shared_ptr<const dl::ModelSpec> model;  // graph-loaded
  int scenario = -1;  // fault_recovery: the generator's scenario index
};

struct Workload {
  std::string name;
  Kind kind = Kind::Matrix;
  std::uint64_t seed = 0;
  std::vector<Op> ops;  // one pass, in seeded order
  /// Indices of the first op of each distinct (model, config) pair, and
  /// the configs the ops cover, in op order; the traced run's layer
  /// probes iterate these.
  std::vector<std::size_t> shapes;
  std::vector<core::SystemConfig> configs;
};

/// What one op produced.
struct OpOutcome {
  Status status;
  core::ExperimentResult result;
  std::vector<core::chaos::OracleVerdict> verdicts;
  double seconds = 0.0;         // host time of the timed unit
  double experiment_seconds = 0.0;  // of which Experiment::run itself
  bool ok() const;              // ran, and every oracle passed
};

constexpr std::uint64_t kGoldenChaosSeed = 1;

/// Build the workload's inputs from `seed`. Graph-IR models load from
/// examples/graphs/ relative to the working directory; every loaded spec
/// is compared field by field with the registry built-in, and a mismatch
/// is appended to `errors`. Throws std::invalid_argument on an unknown
/// workload name or an unreadable graph.
Workload setUp(const std::string& name, std::uint64_t seed, Ledger& ledger,
               std::vector<std::string>* errors);

/// Run one op (the timed unit), then judge it with the standard oracles.
OpOutcome runOp(const Workload& w, const Op& op, Ledger& ledger, int op_id);

/// Expected-output line for the golden table: fixed-precision training
/// outputs, or for chaos ops the campaign digest line.
std::string goldenLine(const Workload& w, const Op& op, const OpOutcome& out);

/// Golden table file name for this workload and seed; empty when the
/// seed is not covered (held-out fault_recovery seeds).
std::string goldenFile(const Workload& w);

/// Work counts of one bare-stack twin run.
struct TwinCounts {
  std::uint64_t events = 0;
  std::uint64_t flows_started = 0;
  std::uint64_t flows_failed = 0;
  std::uint64_t component_solves = 0;
  std::uint64_t rate_recomputations = 0;
  std::uint64_t collectives = 0;
  bool finished = false;  // the trainer reported completion
};

/// Re-run the op on a bare stack (ComposableSystem + Trainer, plus the
/// fault injector, health monitor and recovery orchestrator when the op
/// has a fault schedule) with no metrics pipeline or profiler, under
/// spans. `*training` receives the twin's TrainingResult.
TwinCounts runTwin(const Op& op, Ledger& ledger, dl::TrainingResult* training);

/// True when every field of the two results is identical.
bool sameTraining(const dl::TrainingResult& a, const dl::TrainingResult& b);

/// Cold Topology::route over every ordered endpoint pair of a fresh
/// `config` system (training GPUs, host memory, training storage), then
/// repeated cached lookups of the same pairs. Adds route counts and times
/// to the ledger's counters.
void routeProbe(core::SystemConfig config, Ledger& ledger);

/// One gradient-sized Communicator::allReduce over the training GPUs of a
/// fresh `op.spec.config` system.
void allReduceProbe(const Op& op, Ledger& ledger);

/// Trace and analyze a short run of `op`'s shape, for workloads whose ops
/// are untraced. Adds the trace counters the analysis ops also report.
void traceProbe(const Op& op, Ledger& ledger);

}  // namespace perfbench
