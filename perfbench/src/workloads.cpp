#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <optional>
#include <random>
#include <stdexcept>

#include "collectives/communicator.hpp"
#include "core/chaos/oracles.hpp"
#include "core/recovery_orchestrator.hpp"
#include "dl/workload_registry.hpp"
#include "dl/zoo.hpp"
#include "fabric/failures.hpp"
#include "falcon/health_monitor.hpp"
#include "telemetry/analysis.hpp"
#include "telemetry/profiler.hpp"

namespace perfbench {

namespace {

constexpr const char* kGraphDir = "examples/graphs";

/// Fig 11's six configurations; allGPUs16 is the one core::allConfigs()
/// leaves out.
const std::vector<core::SystemConfig> kMatrixConfigs = {
    core::SystemConfig::LocalGpus,  core::SystemConfig::HybridGpus,
    core::SystemConfig::FalconGpus, core::SystemConfig::LocalNvme,
    core::SystemConfig::FalconNvme, core::SystemConfig::AllGpus16};

/// traced_analysis and fault_recovery both split their ops between a
/// vision and a language model.
const char* const kPairGraphs[] = {"resnet_50.graph.json",
                                   "bert_l.graph.json"};

/// Iteration cap of a traced_analysis op: quickstart's shape (one epoch)
/// with a smaller cap, so that a run holds at least 100 ops.
constexpr int kAnalysisIterations = 10;

/// fault_recovery scenarios per model.
constexpr int kScenariosPerModel = 150;

bool sameSpec(const dl::ModelSpec& a, const dl::ModelSpec& b) {
  if (a.layers.size() != b.layers.size()) return false;
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    const dl::LayerSpec& x = a.layers[i];
    const dl::LayerSpec& y = b.layers[i];
    if (x.name != y.name || x.kind != y.kind || x.params != y.params ||
        x.forward_flops != y.forward_flops ||
        x.activation_bytes != y.activation_bytes) {
      return false;
    }
  }
  return a.name == b.name && a.domain == b.domain && a.dataset == b.dataset &&
         a.reported_depth == b.reported_depth &&
         a.fp16_efficiency == b.fp16_efficiency &&
         a.fp32_efficiency == b.fp32_efficiency &&
         a.input_bytes_per_sample == b.input_bytes_per_sample &&
         a.activation_overhead_factor == b.activation_overhead_factor &&
         a.paper_batch_per_gpu == b.paper_batch_per_gpu &&
         a.paper_epochs == b.paper_epochs;
}

/// Load one graph file through the registry's "graph:" path and check it
/// against the built-in of the same name.
std::shared_ptr<const dl::ModelSpec> loadGraph(
    const std::string& path, Ledger& ledger, std::vector<std::string>* errors) {
  auto spec = std::make_shared<dl::ModelSpec>();
  Status s;
  {
    Ledger::Scope span(ledger, "dl.graph_ir.load");
    s = dl::WorkloadRegistry::instance().resolve("graph:" + path, spec.get());
  }
  if (!s) throw std::invalid_argument(path + ": " + s.toString());
  dl::ModelSpec builtin;
  if (!dl::WorkloadRegistry::instance().model(spec->name, &builtin)) {
    errors->push_back(path + ": no built-in workload named " + spec->name);
  } else if (!sameSpec(*spec, builtin)) {
    errors->push_back(path + ": graph-loaded spec differs from built-in " +
                      spec->name);
  }
  return spec;
}

Op makeOp(const std::shared_ptr<const dl::ModelSpec>& model,
          core::SystemConfig config, core::ExperimentOptions options) {
  Op op;
  op.label = model->name + "/" + core::toString(config);
  op.spec.name = op.label;
  op.spec.workload = model->name;
  op.spec.config = config;
  op.spec.options = std::move(options);
  op.spec.options.workload = model->name;
  op.model = model;
  return op;
}

/// Generated fault scenarios for one model, as the chaos campaign builds
/// them: one healthy baseline anchors the injection times.
void addFaultOps(Workload& w, const std::shared_ptr<const dl::ModelSpec>& model,
                 Ledger& ledger) {
  core::chaos::CampaignOptions campaign;
  campaign.workload = model->name;
  campaign.config = core::SystemConfig::FalconGpus;
  campaign.space.seed = w.seed;
  campaign.space.count = kScenariosPerModel;
  const core::chaos::ChaosCampaign chaos(campaign);
  core::chaos::BaselineTiming timing;
  std::vector<core::chaos::Scenario> scenarios;
  {
    Ledger::Scope span(ledger, "core.chaos.generate");
    timing = chaos.measureBaseline();
    scenarios = core::chaos::generateScenarios(campaign.space, timing);
  }
  for (const core::chaos::Scenario& s : scenarios) {
    Op op;
    op.spec = chaos.specForScenario(s, timing);
    op.label = model->name + "/" + op.spec.name;
    op.scenario = s.index;
    op.model = model;
    w.ops.push_back(std::move(op));
  }
}

/// Serialize the Chrome trace to memory and render the analysis, as a
/// `--trace --analyze` user does after the run.
void exportAndRender(const core::ExperimentResult& r, Ledger& ledger) {
  std::size_t bytes = 0;
  {
    Ledger::Scope span(ledger, "telemetry.trace_export");
    bytes = r.profiler->chromeTrace().dump().size();
  }
  {
    Ledger::Scope span(ledger, "telemetry.analysis");
    const std::string json = telemetry::analysis::toJson(*r.analysis).dump();
    const std::string text = telemetry::analysis::report(*r.analysis);
    ledger.count("telemetry.analysis_bytes",
                 static_cast<double>(json.size() + text.size()));
  }
  ledger.count("telemetry.trace_records",
               static_cast<double>(r.profiler->recordCount()));
  ledger.count("telemetry.trace_dropped",
               static_cast<double>(r.profiler->droppedRecords()));
  ledger.count("telemetry.trace_bytes", static_cast<double>(bytes));
}

}  // namespace

bool OpOutcome::ok() const {
  if (!status.ok) return false;
  for (const auto& v : verdicts) {
    if (!v.passed) return false;
  }
  return true;
}

Workload setUp(const std::string& name, std::uint64_t seed, Ledger& ledger,
               std::vector<std::string>* errors) {
  Workload w;
  w.name = name;
  w.seed = seed;
  const std::string dir = kGraphDir;
  if (name == "paper_matrix") {
    w.kind = Kind::Matrix;
    std::vector<std::string> paths;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string p = entry.path().string();
      if (p.size() > 11 && p.compare(p.size() - 11, 11, ".graph.json") == 0) {
        paths.push_back(p);
      }
    }
    std::sort(paths.begin(), paths.end());
    if (paths.empty()) throw std::invalid_argument("no graphs under " + dir);
    for (const std::string& p : paths) {
      const auto model = loadGraph(p, ledger, errors);
      for (core::SystemConfig c : kMatrixConfigs) {
        w.ops.push_back(makeOp(model, c, core::ExperimentOptions{}));
      }
    }
  } else if (name == "traced_analysis") {
    w.kind = Kind::Analysis;
    core::ExperimentOptions options;
    options.trainer.epochs = 1;
    options.trainer.max_iterations_per_epoch = kAnalysisIterations;
    options.analysis = true;
    for (const char* file : kPairGraphs) {
      const auto model = loadGraph(dir + "/" + file, ledger, errors);
      for (core::SystemConfig c :
           {core::SystemConfig::LocalGpus, core::SystemConfig::FalconGpus}) {
        w.ops.push_back(makeOp(model, c, options));
      }
    }
  } else if (name == "fault_recovery") {
    w.kind = Kind::Chaos;
    for (const char* file : kPairGraphs) {
      addFaultOps(w, loadGraph(dir + "/" + file, ledger, errors), ledger);
    }
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }

  // Inputs come from the seed: the op order (and, for fault_recovery, the
  // scenarios themselves).
  std::mt19937_64 rng(seed);
  std::shuffle(w.ops.begin(), w.ops.end(), rng);

  for (std::size_t i = 0; i < w.ops.size(); ++i) {
    const Op& op = w.ops[i];
    const bool new_shape = std::none_of(
        w.shapes.begin(), w.shapes.end(), [&](std::size_t s) {
          return w.ops[s].model->name == op.model->name &&
                 w.ops[s].spec.config == op.spec.config;
        });
    if (new_shape) w.shapes.push_back(i);
    if (std::find(w.configs.begin(), w.configs.end(), op.spec.config) ==
        w.configs.end()) {
      w.configs.push_back(op.spec.config);
    }
  }
  return w;
}

OpOutcome runOp(const Workload& w, const Op& op, Ledger& ledger, int op_id) {
  Ledger::Scope root(ledger, "bench.op", op_id);
  OpOutcome out;
  const double t0 = cpuSeconds();
  if (w.kind == Kind::Chaos) {
    Ledger::Scope span(ledger, "core.experiment");
    core::SweepRun run = core::chaos::runSingleSpec(op.spec);
    out.status = run.status;
    out.result = std::move(run.result);
    out.experiment_seconds = cpuSeconds() - t0;
  } else {
    try {
      {
        Ledger::Scope span(ledger, "core.experiment");
        out.result = core::Experiment::run(op.spec.config, *op.model,
                                           op.spec.options);
      }
      out.experiment_seconds = cpuSeconds() - t0;
      if (w.kind == Kind::Analysis) {
        exportAndRender(out.result, ledger);
      }
      out.status = Status::success();
    } catch (const std::exception& e) {
      out.status = Status::internal(op.label + ": " + e.what());
    }
  }
  out.seconds = cpuSeconds() - t0;

  Ledger::Scope judge(ledger, "core.chaos.judge");
  static const core::chaos::OracleRegistry oracles =
      core::chaos::OracleRegistry::standard();
  const core::chaos::OracleInput input{
      &op.spec, &out.status, out.status.ok ? &out.result : nullptr};
  out.verdicts = oracles.evaluate(input);
  return out;
}

std::string goldenLine(const Workload& w, const Op& op, const OpOutcome& out) {
  char buf[320];
  const dl::TrainingResult& t = out.result.training;
  if (w.kind != Kind::Chaos) {
    std::snprintf(buf, sizeof(buf), "%s %.9e %.9e %.9e", op.label.c_str(),
                  t.extrapolated_total_time, t.mean_iteration_time,
                  t.samples_per_second);
    return buf;
  }
  // The chaos campaign's per-scenario digest format (ChaosCampaign::run),
  // prefixed with the op label. A run that threw digests its zeros.
  const core::ExperimentResult* r = out.status.ok ? &out.result : nullptr;
  const bool recovery = r != nullptr && r->recovery.enabled;
  std::string verdict_bits;
  for (const auto& v : out.verdicts) verdict_bits += v.passed ? '1' : '0';
  std::snprintf(
      buf, sizeof(buf),
      "%s s=%04d code=%d surv=%d term=%s it=%lld lost=%lld rst=%lld "
      "det=%llu ret=%llu gang=%zu mttr=%.6f v=%s",
      op.label.c_str(), op.scenario, static_cast<int>(out.status.code),
      r != nullptr && t.completed ? 1 : 0,
      core::toString(recovery ? r->recovery.terminal_state
                              : core::RecoveryTerminalState::Idle),
      r ? static_cast<long long>(t.iterations_run) : 0LL,
      r ? static_cast<long long>(t.lost_iterations) : 0LL,
      r ? static_cast<long long>(t.restores) : 0LL,
      r ? static_cast<unsigned long long>(r->recovery.detections) : 0ULL,
      r ? static_cast<unsigned long long>(r->recovery.reattach_retries) : 0ULL,
      r ? r->recovery.final_gang_size : std::size_t{0},
      r ? r->recovery.mean_mttr : 0.0, verdict_bits.c_str());
  return buf;
}

std::string goldenFile(const Workload& w) {
  if (w.kind != Kind::Chaos) return w.name + ".golden";
  if (w.seed != kGoldenChaosSeed) return {};
  return w.name + ".seed" + std::to_string(w.seed) + ".golden";
}

bool sameTraining(const dl::TrainingResult& a, const dl::TrainingResult& b) {
  return a.completed == b.completed && a.error == b.error &&
         a.epochs == b.epochs && a.iterations_run == b.iterations_run &&
         a.iterations_full == b.iterations_full &&
         a.simulated_time == b.simulated_time &&
         a.extrapolated_total_time == b.extrapolated_total_time &&
         a.mean_iteration_time == b.mean_iteration_time &&
         a.samples_per_second == b.samples_per_second &&
         a.data_stall_time == b.data_stall_time &&
         a.checkpoint_time == b.checkpoint_time &&
         a.checkpoint_bytes == b.checkpoint_bytes && a.restores == b.restores &&
         a.lost_iterations == b.lost_iterations &&
         a.restore_time == b.restore_time && a.loss_curve == b.loss_curve;
}

TwinCounts runTwin(const Op& op, Ledger& ledger, dl::TrainingResult* training) {
  const core::ExperimentOptions& options = op.spec.options;
  const core::FaultsConfig& faults = options.faults;
  std::optional<core::ComposableSystem> system;
  {
    Ledger::Scope span(ledger, "core.system_build");
    system.emplace(op.spec.config);
  }
  Ledger::Scope run_span(ledger, "dl.trainer_run");
  dl::Trainer trainer(system->sim(), system->network(), system->topology(),
                      system->trainingGpus(), system->cpu(),
                      system->hostMemory(), system->trainingStorage(),
                      *op.model, dl::datasetFor(*op.model), options.trainer);

  // The recovery stack Experiment::run builds for a fault schedule, wired
  // in the same order so the event sequence matches.
  std::unique_ptr<fabric::FaultInjector> injector;
  std::unique_ptr<falcon::HealthMonitor> monitor;
  std::unique_ptr<core::RecoveryOrchestrator> orchestrator;
  if (faults.enabled) {
    Ledger::Scope span(ledger, "core.recovery_build");
    static constexpr falcon::SlotId kSpareSlots[] = {
        {0, 4}, {0, 5}, {0, 6}, {0, 7}, {1, 5}, {1, 6}, {1, 7}};
    for (int i = 0;
         i < faults.spare_gpus && i < static_cast<int>(std::size(kSpareSlots));
         ++i) {
      system->installSpareGpu(kSpareSlots[static_cast<std::size_t>(i)]);
    }
    system->chassis().setTransientAttachFailureRate(faults.attach_failure_rate,
                                                    faults.seed + 1);
    injector = std::make_unique<fabric::FaultInjector>(
        system->sim(), system->topology(), system->network(), faults.seed);
    monitor = std::make_unique<falcon::HealthMonitor>(
        system->sim(), system->chassis(), system->bmc());
    monitor->setErrorStormThreshold(faults.error_storm_threshold);
    orchestrator = std::make_unique<core::RecoveryOrchestrator>(
        *system, *monitor, trainer, faults.policy, faults.seed + 2);
    for (const auto& f : faults.gpu_falloffs) {
      const auto& g =
          system->falconGpus().at(static_cast<std::size_t>(f.gpu_index));
      const auto& info = system->chassis().slot(*system->slotOfGpu(g.get()));
      injector->scheduleDeviceFalloff(info.link_up, info.link_down, f.at);
    }
    for (const auto& s : faults.ecc_storms) {
      const auto& g =
          system->falconGpus().at(static_cast<std::size_t>(s.gpu_index));
      const auto slot = *system->slotOfGpu(g.get());
      injector->scheduleErrorBurst(system->chassis().slot(slot).link_up, s.at,
                                   s.errors);
    }
    for (const auto& h : faults.host_port_flaps) {
      const auto& port = system->chassis().hostPort(h.port);
      injector->scheduleHostPortFlap(port.link_in, port.link_out, h.at,
                                     h.downtime);
    }
    monitor->start(faults.health_poll_interval);
  }

  bool finished = false;
  trainer.start([&](const dl::TrainingResult& r) {
    *training = r;
    finished = true;
    if (monitor) monitor->stop();
    if (orchestrator) orchestrator->noteRunEnded();
  });
  {
    Ledger::Scope span(ledger, "sim.run");
    if (options.watchdog > 0.0) system->sim().runUntil(options.watchdog);
    if (finished || options.watchdog <= 0.0) system->sim().run();
  }

  TwinCounts c;
  c.finished = finished;
  c.events = system->sim().eventsExecuted();
  const fabric::FlowNetwork& net = system->network();
  c.flows_started = net.flowsStarted();
  c.flows_failed = net.flowsFailed();
  c.component_solves = net.componentSolves();
  c.rate_recomputations = net.rateRecomputations();
  c.collectives = trainer.communicator().collectivesCompleted();
  return c;
}

void routeProbe(core::SystemConfig config, Ledger& ledger) {
  core::ComposableSystem system(config);
  std::vector<fabric::NodeId> ends;
  for (const devices::Gpu* g : system.trainingGpus()) ends.push_back(g->node());
  ends.push_back(system.hostMemory());
  ends.push_back(system.trainingStorage().node());
  fabric::Topology& topo = system.topology();

  std::size_t pairs = 0;
  std::size_t hops = 0;
  {
    Ledger::Scope span(ledger, "fabric.route_cold");
    for (fabric::NodeId a : ends) {
      for (fabric::NodeId b : ends) {
        if (a == b) continue;
        topo.invalidateRoutes();  // each call is a fresh path search
        const auto r = topo.route(a, b);
        hops += r ? r->links.size() : 0;
        ++pairs;
      }
    }
  }
  // Cached lookups: warm once, then enough rounds to time reliably.
  constexpr int kRounds = 2000;
  for (fabric::NodeId a : ends) {
    for (fabric::NodeId b : ends) {
      if (a != b) topo.routeCached(a, b);
    }
  }
  {
    Ledger::Scope span(ledger, "fabric.route_cached");
    for (int k = 0; k < kRounds; ++k) {
      for (fabric::NodeId a : ends) {
        for (fabric::NodeId b : ends) {
          if (a == b) continue;
          const auto& r = topo.routeCached(a, b);
          hops += r ? r->links.size() : 0;
        }
      }
    }
  }
  ledger.count("fabric.route_cold_calls", static_cast<double>(pairs));
  ledger.count("fabric.route_cached_calls",
               static_cast<double>(pairs) * kRounds);
  ledger.count("fabric.route_hops", static_cast<double>(hops));
}

void allReduceProbe(const Op& op, Ledger& ledger) {
  core::ComposableSystem system(op.spec.config);
  std::vector<fabric::NodeId> ranks;
  for (const devices::Gpu* g : system.trainingGpus()) ranks.push_back(g->node());
  bool done = false;
  {
    Ledger::Scope span(ledger, "collectives.allreduce");
    collectives::Communicator comm(system.sim(), system.network(),
                                   system.topology(), ranks);
    comm.allReduce(op.model->gradientBytes(op.spec.options.trainer.precision),
                   [&done](const collectives::CollectiveResult&) {
                     done = true;
                   });
    system.sim().run();
  }
  if (!done) throw std::runtime_error(op.label + ": allReduce did not finish");
  ledger.count("collectives.allreduce_calls", 1.0);
  ledger.count("collectives.allreduce_flows",
               static_cast<double>(system.network().flowsStarted()));
}

void traceProbe(const Op& op, Ledger& ledger) {
  core::ExperimentSpec spec = op.spec;
  spec.options.analysis = true;
  if (!spec.options.faults.enabled) {
    // A fault schedule is anchored to its run's length; keep it whole.
    spec.options.trainer.epochs = 1;
    spec.options.trainer.max_iterations_per_epoch = kAnalysisIterations;
  }
  core::ExperimentResult r;
  {
    Ledger::Scope span(ledger, "core.experiment_traced");
    r = core::runExperimentSpec(spec);
  }
  exportAndRender(r, ledger);
  Ledger::Scope span(ledger, "telemetry.analyze");
  telemetry::analysis::analyzeProfile(*r.profiler, op.model->name);
}

}  // namespace perfbench
