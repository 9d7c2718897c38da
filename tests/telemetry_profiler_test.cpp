// Tests for the span/counter profiler and its Chrome trace_event export:
// record mechanics, time-weighted counters, trace structure for a real
// 2-GPU DDP training run, and determinism across identical seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/composable_system.hpp"
#include "core/experiment.hpp"
#include "dl/trainer.hpp"
#include "dl/zoo.hpp"
#include "telemetry/profiler.hpp"

namespace composim::telemetry {
namespace {

using core::ComposableSystem;
using core::SystemConfig;

// --- unit mechanics on a bare simulator ---

TEST(Profiler, TrackSpansRecordBeginEndAtSimTime) {
  Simulator sim;
  Profiler prof(sim);
  sim.setProfiler(&prof);
  sim.schedule(1.0, [&] {
    auto s = prof.span("test", "outer");
    prof.beginSpan("test", "test", "inner");
    s.end();  // E records close LIFO per track: this closes "inner"
    sim.schedule(0.5, [&prof] { prof.endSpan("test"); });
  });
  sim.run();
  // Records: B outer, B inner, E (s.end at t=1), E (scheduled at t=1.5)
  ASSERT_EQ(prof.recordCount(), 4u);
  const falcon::Json doc = prof.chromeTrace();
  const auto& events = doc.at("traceEvents").asArray();
  // 1 process_name + 1 thread_name metadata, then the 4 records.
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[2].at("ph").asString(), "B");
  EXPECT_EQ(events[2].at("name").asString(), "outer");
  EXPECT_DOUBLE_EQ(events[2].at("ts").asDouble(), 1.0e6);
  EXPECT_EQ(events[3].at("ph").asString(), "B");
  EXPECT_EQ(events[4].at("ph").asString(), "E");
  EXPECT_DOUBLE_EQ(events[4].at("ts").asDouble(), 1.0e6);
  EXPECT_EQ(events[5].at("ph").asString(), "E");
  EXPECT_DOUBLE_EQ(events[5].at("ts").asDouble(), 1.5e6);
}

TEST(Profiler, AsyncSpansPairByCorrelationId) {
  Simulator sim;
  Profiler prof(sim);
  sim.setProfiler(&prof);
  const AsyncSpanId a = prof.beginAsyncSpan("net", "flowA");
  const AsyncSpanId b = prof.beginAsyncSpan("net", "flowB");
  EXPECT_NE(a, kInvalidAsyncSpan);
  EXPECT_NE(a, b);
  sim.schedule(2.0, [&] {
    prof.endAsyncSpan(b);
    prof.endAsyncSpan(a);
  });
  sim.run();
  const falcon::Json doc = prof.chromeTrace();
  const auto& events = doc.at("traceEvents").asArray();
  // metadata (process + 1 track) + b,b,e,e
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[2].at("ph").asString(), "b");
  EXPECT_EQ(events[4].at("ph").asString(), "e");
  // End records repeat the name and carry the id of their begin.
  EXPECT_EQ(events[4].at("name").asString(), "flowB");
  EXPECT_EQ(events[4].at("id").asInt(), events[3].at("id").asInt());
  EXPECT_EQ(events[5].at("name").asString(), "flowA");
  EXPECT_EQ(events[5].at("id").asInt(), events[2].at("id").asInt());
  // Double-end is ignored.
  prof.endAsyncSpan(a);
  EXPECT_EQ(prof.recordCount(), 4u);
}

TEST(Profiler, CountersDedupAndIntegrate) {
  Simulator sim;
  Profiler prof(sim);
  sim.setProfiler(&prof);
  prof.setCounter("link", "util", 50.0);
  sim.schedule(1.0, [&] {
    prof.setCounter("link", "util", 50.0);  // unchanged: no record
    prof.setCounter("link", "util", 100.0);
  });
  sim.schedule(2.0, [&] { prof.setCounter("link", "util", 0.0); });
  sim.run();
  EXPECT_EQ(prof.recordCount(), 3u);  // the duplicate was dropped
  EXPECT_DOUBLE_EQ(prof.counterValue("link", "util"), 0.0);
  // Time-weighted: 50 for 1s, 100 for 1s, 0 afterwards -> mean 75 at t=2.
  EXPECT_DOUBLE_EQ(prof.counterMean("link", "util"), 75.0);
  prof.finalize();
  EXPECT_DOUBLE_EQ(prof.counterMean("link", "util"), 75.0);
}

TEST(Profiler, HasCounterDistinguishesUnsetFromZero) {
  Simulator sim;
  Profiler prof(sim);
  sim.setProfiler(&prof);
  prof.setCounter("link", "util", 0.0);
  // counterValue returns 0.0 either way; hasCounter tells them apart.
  EXPECT_DOUBLE_EQ(prof.counterValue("link", "util"), 0.0);
  EXPECT_DOUBLE_EQ(prof.counterValue("link", "flows"), 0.0);
  EXPECT_TRUE(prof.hasCounter("link", "util"));
  EXPECT_FALSE(prof.hasCounter("link", "flows"));
  EXPECT_FALSE(prof.hasCounter("nope", "util"));
  prof.finalize();
  EXPECT_TRUE(prof.hasCounter("link", "util"));
}

TEST(Profiler, FinalizeFreezesAndDetaches) {
  Simulator sim;
  auto prof = std::make_shared<Profiler>(sim);
  sim.setProfiler(prof.get());
  sim.schedule(1.0, [&] { prof->setCounter("c", "v", 10.0); });
  sim.run();
  prof->finalize();
  const std::size_t n = prof->recordCount();
  // Recording stops after finalize.
  prof->instant("x", "late");
  prof->setCounter("c", "v", 99.0);
  EXPECT_EQ(prof->recordCount(), n);
  EXPECT_DOUBLE_EQ(prof->counterValue("c", "v"), 10.0);
}

TEST(Profiler, DisabledProfilerAddsZeroRecords) {
  Simulator sim;
  Profiler prof(sim);
  prof.setEnabled(false);
  sim.setProfiler(&prof);
  auto s = prof.span("cat", "noop");
  prof.beginSpan("t", "cat", "x");
  prof.endSpan("t");
  EXPECT_EQ(prof.beginAsyncSpan("cat", "y"), kInvalidAsyncSpan);
  prof.endAsyncSpan(1);
  prof.setCounter("c", "v", 1.0);
  prof.instant("cat", "z");
  s.end();
  EXPECT_EQ(prof.recordCount(), 0u);
  const falcon::Json doc = prof.chromeTrace();
  EXPECT_EQ(doc.at("traceEvents").asArray().size(), 1u);  // process metadata
}

TEST(Profiler, MaxRecordsDropsNewSpansWhole) {
  Simulator sim;
  Profiler prof(sim);
  prof.setMaxRecords(4);
  sim.setProfiler(&prof);
  prof.beginSpan("t", "c", "a");
  prof.beginSpan("t", "c", "b");
  prof.setCounter("lnk", "util", 50.0);
  prof.instant("c", "mark");  // 4 records: at capacity from here on
  EXPECT_EQ(prof.recordCount(), 4u);

  // New work past the cap is dropped whole.
  prof.beginSpan("t", "c", "dropped");
  prof.instant("c", "late");
  EXPECT_EQ(prof.beginAsyncSpan("c", "flow"), kInvalidAsyncSpan);
  sim.schedule(1.0, [&] {
    prof.setCounter("lnk", "util", 100.0);  // record dropped, integral kept
    prof.endSpan("t");  // closes "dropped": suppressed with its begin
    prof.endSpan("t");  // closes "b": begin was recorded, so this appends
    prof.endSpan("t");  // closes "a": appends (bounded overshoot)
  });
  sim.run();
  EXPECT_EQ(prof.recordCount(), 6u);
  EXPECT_EQ(prof.droppedRecords(), 5u);
  prof.finalize();
  // Counter integral stayed exact across the dropped record: 50 held for
  // the full [0, 1] window (the 100 landed at the finalize instant).
  EXPECT_DOUBLE_EQ(prof.counterMean("lnk", "util"), 50.0);

  // The exported stream is still balanced.
  const falcon::Json trace = prof.chromeTrace();
  std::map<std::int64_t, int> depth;
  for (const auto& e : trace.at("traceEvents").asArray()) {
    const std::string ph = e.at("ph").asString();
    if (ph == "B") ++depth[e.at("tid").asInt()];
    if (ph == "E") {
      --depth[e.at("tid").asInt()];
      EXPECT_GE(depth[e.at("tid").asInt()], 0);
    }
  }
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "tid " << tid;
}

TEST(ProfilerTrace, CollidingTimestampsExportInDocumentedOrder) {
  // Two tracks interleave records at the same simulated instant; the
  // export must group them by track (time, track id, sequence) instead
  // of leaking the event-execution interleaving.
  auto record = [](Profiler& prof) {
    prof.beginSpan("beta", "c", "b1");
    prof.beginSpan("alpha", "c", "a1");
    prof.endSpan("beta");
    prof.endSpan("alpha");
    prof.beginSpan("beta", "c", "b2");
    prof.endSpan("beta");
  };
  Simulator sim;
  Profiler prof(sim);
  sim.setProfiler(&prof);
  sim.schedule(1.0, [&] { record(prof); });
  sim.run();
  ASSERT_EQ(prof.recordCount(), 6u);

  const auto order = prof.exportOrder();
  const auto& recs = prof.records();
  std::vector<std::pair<char, std::uint32_t>> got;
  for (const std::size_t idx : order) {
    got.emplace_back(recs[idx].phase, recs[idx].tid);
  }
  // beta = tid 0 (first use), alpha = tid 1: all beta records first, in
  // per-track recording order (depth-correct), then alpha's pair.
  const std::vector<std::pair<char, std::uint32_t>> want = {
      {'B', 0}, {'E', 0}, {'B', 0}, {'E', 0}, {'B', 1}, {'E', 1}};
  EXPECT_EQ(got, want);

  // Identical runs export byte-identically even with the collisions.
  Simulator sim2;
  Profiler prof2(sim2);
  sim2.setProfiler(&prof2);
  sim2.schedule(1.0, [&] { record(prof2); });
  sim2.run();
  EXPECT_EQ(prof.chromeTrace().dump(-1), prof2.chromeTrace().dump(-1));
}

// --- structural checks on a real 2-GPU DDP run ---

struct TraceRun {
  std::string dump;       // compact chromeTrace JSON
  std::size_t records = 0;
  std::shared_ptr<Profiler> profiler;
};

TraceRun runTinyDdp(bool trace) {
  ComposableSystem sys{SystemConfig::LocalGpus};
  auto gpus = sys.trainingGpus();
  gpus.resize(2);  // 2-rank DDP
  std::shared_ptr<Profiler> prof;
  if (trace) {
    prof = std::make_shared<Profiler>(sys.sim());
    sys.sim().setProfiler(prof.get());
  }
  dl::TrainerOptions opt;
  opt.epochs = 1;
  opt.max_iterations_per_epoch = 3;
  opt.strategy = dl::Strategy::DistributedDataParallel;
  dl::Trainer trainer(sys.sim(), sys.network(), sys.topology(), gpus,
                      sys.cpu(), sys.hostMemory(), sys.trainingStorage(),
                      dl::workload("MobileNetV2"), dl::datasetFor(dl::workload("MobileNetV2")),
                      opt);
  bool completed = false;
  trainer.start([&](const dl::TrainingResult& r) { completed = r.completed; });
  sys.sim().run();
  EXPECT_TRUE(completed);
  TraceRun out;
  if (prof) {
    prof->finalize();
    sys.sim().setProfiler(nullptr);
    out.dump = prof->chromeTrace().dump(-1);
    out.records = prof->recordCount();
    out.profiler = prof;
  }
  return out;
}

TEST(ProfilerTrace, DeterministicAcrossIdenticalRuns) {
  const TraceRun a = runTinyDdp(true);
  const TraceRun b = runTinyDdp(true);
  EXPECT_GT(a.records, 0u);
  EXPECT_EQ(a.dump, b.dump);
}

TEST(ProfilerTrace, UninstrumentedRunStillCompletes) {
  const TraceRun r = runTinyDdp(false);
  EXPECT_EQ(r.records, 0u);
}

TEST(ProfilerTrace, SpansNestAndTimesAreMonotonic) {
  const TraceRun run = runTinyDdp(true);
  const falcon::Json doc = falcon::Json::parse(run.dump);
  const auto& events = doc.at("traceEvents").asArray();
  ASSERT_GT(events.size(), 10u);

  std::map<std::int64_t, int> depth;  // per-tid open B spans
  double last_ts = 0.0;
  bool first = true;
  std::set<std::string> names;
  for (const auto& e : events) {
    const std::string ph = e.at("ph").asString();
    if (ph == "M") continue;
    const double ts = e.at("ts").asDouble();
    if (!first) {
      EXPECT_GE(ts, last_ts);  // records append in event order
    }
    last_ts = ts;
    first = false;
    const std::int64_t tid = e.at("tid").asInt();
    if (ph == "B") {
      ++depth[tid];
    } else if (ph == "E") {
      --depth[tid];
      EXPECT_GE(depth[tid], 0) << "unbalanced E on tid " << tid;
    } else if (ph == "b" || ph == "e") {
      EXPECT_NE(e.find("id"), nullptr);
    }
    if (const auto* n = e.find("name")) names.insert(n->asString());
  }
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "track " << tid << " ended with open spans";
  }

  // The trainer/collectives/fabric layers all contributed spans.
  for (const char* required :
       {"iteration", "forward", "backward", "gradient-sync", "optimizer",
        "step-overhead", "checkpoint", "prefetch", "h2d", "allReduce"}) {
    EXPECT_TRUE(names.count(required)) << "missing span '" << required << "'";
  }
  // Per-link counters were published.
  bool link_counter = false;
  for (const auto& n : names) {
    if (n.rfind("link:", 0) == 0) link_counter = true;
  }
  EXPECT_TRUE(link_counter) << "no link utilization counters in trace";
}

TEST(ProfilerTrace, LinkCountersStayInRange) {
  const TraceRun run = runTinyDdp(true);
  const falcon::Json doc = falcon::Json::parse(run.dump);
  int counter_records = 0;
  for (const auto& e : doc.at("traceEvents").asArray()) {
    if (e.at("ph").asString() != "C") continue;
    const std::string name = e.at("name").asString();
    if (name.rfind("link:", 0) != 0) continue;
    ++counter_records;
    const auto& args = e.at("args");
    if (const auto* u = args.find("util_pct")) {
      EXPECT_GE(u->asDouble(), 0.0);
      EXPECT_LE(u->asDouble(), 100.0 + 1e-6);
    }
    if (const auto* f = args.find("flows")) {
      EXPECT_GE(f->asDouble(), 0.0);
    }
  }
  EXPECT_GT(counter_records, 0);
}

// --- experiment wiring ---

TEST(ProfilerTrace, ExperimentTraceOptionProducesProfiler) {
  core::ExperimentOptions opt;
  opt.trainer.epochs = 1;
  opt.trainer.max_iterations_per_epoch = 2;
  opt.trace = true;
  const auto r =
      core::Experiment::run(SystemConfig::LocalGpus, dl::workload("MobileNetV2"), opt);
  ASSERT_NE(r.profiler, nullptr);
  EXPECT_GT(r.profiler->recordCount(), 0u);

  // Round-trip through the file writer.
  const std::string path = ::testing::TempDir() + "composim_trace_test.json";
  const Status w = r.profiler->writeChromeTrace(path);
  ASSERT_TRUE(w.ok) << w.toString();
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const falcon::Json doc = falcon::Json::parse(buf.str());
  EXPECT_GT(doc.at("traceEvents").asArray().size(), 0u);
  EXPECT_EQ(doc.at("displayTimeUnit").asString(), "ms");
  std::remove(path.c_str());

  // The run-level span is present.
  bool experiment_span = false;
  for (const auto& e : doc.at("traceEvents").asArray()) {
    const auto* n = e.find("name");
    if (n && n->asString() == "MobileNetV2") experiment_span = true;
  }
  EXPECT_TRUE(experiment_span);
}

TEST(ProfilerTrace, NoTraceOptionMeansNoProfiler) {
  core::ExperimentOptions opt;
  opt.trainer.epochs = 1;
  opt.trainer.max_iterations_per_epoch = 2;
  const auto r =
      core::Experiment::run(SystemConfig::LocalGpus, dl::workload("MobileNetV2"), opt);
  EXPECT_EQ(r.profiler, nullptr);
}

// --- export pinned byte for byte ---
//
// The expected documents below are checked in verbatim. They were captured
// from the earlier export (snprintf("%.17g") numbers, per-character
// escaping, a full stable sort of the records, ordered-map counters), so a
// change to the writer, the event build, the export order or the counter
// keying that moves one byte fails here.

/// A hand-built trace touching every record kind the export writes:
/// nested track spans, overlapping async flows, deduped counters,
/// instants, string args that need escaping, duplicate arg keys, and
/// several tracks recording at one timestamp.
void recordPinnedTrace(Simulator& sim, Profiler& prof) {
  sim.setProfiler(&prof);
  prof.beginSpan("trainer/rank0", "train", "iteration",
                 {{"iter", 0}, {"batch", 64}});
  prof.setCounter("link:gpu0->pcie_sw0", "util_pct", 0.0);
  prof.setCounter("link:gpu0->pcie_sw0", "flows", 0.0);
  sim.schedule(0.25, [&] {
    const AsyncSpanId f1 = prof.beginAsyncSpan(
        "fabric", "flow gpu0->gpu1", {{"bytes", 1048576}, {"corr", 7}});
    const AsyncSpanId f2 =
        prof.beginAsyncSpan("fabric", "flow gpu1->gpu0", {{"bytes", 3e9}});
    prof.setCounter("link:gpu0->pcie_sw0", "util_pct", 100.0 / 3.0);
    prof.setCounter("link:gpu0->pcie_sw0", "util_pct", 100.0 / 3.0);  // dup
    prof.setCounter("link:gpu0->pcie_sw0", "flows", 2.0);
    sim.schedule(0.5, [&prof, f1] { prof.endAsyncSpan(f1, {{"ok", 1}}); });
    sim.schedule(0.75, [&prof, f2] { prof.endAsyncSpan(f2); });
  });
  sim.schedule(1.0 / 3.0, [&] {
    prof.instant("fault", "link_down",
                 {{"link", "gpu0->pcie_sw0"},
                  {"note", "quote \" backslash \\ newline \n tab \t cr \r "
                           "ctrl \x01\x1f end \xc2\xb5s"}});
    prof.beginSpan("trainer/rank0", "train", "forward", {{"k", 1}, {"k", 2}});
  });
  sim.schedule(1.0, [&] {
    // Same timestamp, recorded across tracks out of track-id order.
    prof.beginSpan("comm \"ring\"", "comm", "allreduce", {{"bytes", 1e-7}});
    prof.endSpan("trainer/rank0");  // closes "forward"
    prof.setCounter("link:gpu1->pcie_sw0", "util_pct", 12.5);
    prof.instant("train", "checkpoint");
    prof.endSpan("comm \"ring\"", {{"algo", "ring"}});
    prof.setCounter("link:gpu0->pcie_sw0", "util_pct", 2e20);
    prof.endSpan("trainer/rank0", {{"loss", 0.1}});
  });
  sim.run();
  prof.finalize();
  sim.setProfiler(nullptr);
}

/// A capped trace: the cap drops a new span, an async flow, an instant
/// and the first update of a new counter, whose track then never appears.
void recordCappedTrace(Simulator& sim, Profiler& prof) {
  sim.setProfiler(&prof);
  prof.setMaxRecords(3);
  prof.beginSpan("t", "c", "kept");
  prof.setCounter("lnk", "util", 50.0);
  prof.instant("c", "mark");
  prof.beginSpan("t", "c", "dropped");
  prof.setCounter("late_counter", "v", 1.0);
  prof.beginAsyncSpan("net", "flow");
  sim.schedule(2.0, [&] {
    prof.setCounter("lnk", "util", 75.0);
    prof.endSpan("t");
    prof.endSpan("t");
  });
  sim.run();
  prof.finalize();
  sim.setProfiler(nullptr);
}

const char* const kPinnedIndented = R"json({
  "traceEvents": [
    {
      "ph": "M",
      "pid": 1,
      "tid": 0,
      "name": "process_name",
      "args": {
        "name": "composim"
      }
    },
    {
      "ph": "M",
      "pid": 1,
      "tid": 0,
      "name": "thread_name",
      "args": {
        "name": "trainer/rank0"
      }
    },
    {
      "ph": "M",
      "pid": 1,
      "tid": 1,
      "name": "thread_name",
      "args": {
        "name": "link:gpu0->pcie_sw0"
      }
    },
    {
      "ph": "M",
      "pid": 1,
      "tid": 2,
      "name": "thread_name",
      "args": {
        "name": "fabric"
      }
    },
    {
      "ph": "M",
      "pid": 1,
      "tid": 3,
      "name": "thread_name",
      "args": {
        "name": "fault"
      }
    },
    {
      "ph": "M",
      "pid": 1,
      "tid": 4,
      "name": "thread_name",
      "args": {
        "name": "comm \"ring\""
      }
    },
    {
      "ph": "M",
      "pid": 1,
      "tid": 5,
      "name": "thread_name",
      "args": {
        "name": "link:gpu1->pcie_sw0"
      }
    },
    {
      "ph": "M",
      "pid": 1,
      "tid": 6,
      "name": "thread_name",
      "args": {
        "name": "train"
      }
    },
    {
      "ph": "B",
      "ts": 0,
      "pid": 1,
      "tid": 0,
      "name": "iteration",
      "cat": "train",
      "args": {
        "iter": 0,
        "batch": 64
      }
    },
    {
      "ph": "C",
      "ts": 0,
      "pid": 1,
      "tid": 1,
      "name": "link:gpu0->pcie_sw0",
      "cat": "counter",
      "args": {
        "util_pct": 0
      }
    },
    {
      "ph": "C",
      "ts": 0,
      "pid": 1,
      "tid": 1,
      "name": "link:gpu0->pcie_sw0",
      "cat": "counter",
      "args": {
        "flows": 0
      }
    },
    {
      "ph": "C",
      "ts": 250000,
      "pid": 1,
      "tid": 1,
      "name": "link:gpu0->pcie_sw0",
      "cat": "counter",
      "args": {
        "util_pct": 33.333333333333336
      }
    },
    {
      "ph": "C",
      "ts": 250000,
      "pid": 1,
      "tid": 1,
      "name": "link:gpu0->pcie_sw0",
      "cat": "counter",
      "args": {
        "flows": 2
      }
    },
    {
      "ph": "b",
      "ts": 250000,
      "pid": 1,
      "tid": 2,
      "name": "flow gpu0->gpu1",
      "cat": "fabric",
      "id": 1,
      "args": {
        "bytes": 1048576,
        "corr": 7
      }
    },
    {
      "ph": "b",
      "ts": 250000,
      "pid": 1,
      "tid": 2,
      "name": "flow gpu1->gpu0",
      "cat": "fabric",
      "id": 2,
      "args": {
        "bytes": 3000000000
      }
    },
    {
      "ph": "B",
      "ts": 333333.33333333331,
      "pid": 1,
      "tid": 0,
      "name": "forward",
      "cat": "train",
      "args": {
        "k": 2
      }
    },
    {
      "ph": "i",
      "ts": 333333.33333333331,
      "pid": 1,
      "tid": 3,
      "name": "link_down",
      "cat": "fault",
      "s": "t",
      "args": {
        "link": "gpu0->pcie_sw0",
        "note": "quote \" backslash \\ newline \n tab \t cr \r ctrl \u0001\u001f end µs"
      }
    },
    {
      "ph": "e",
      "ts": 750000,
      "pid": 1,
      "tid": 2,
      "name": "flow gpu0->gpu1",
      "cat": "fabric",
      "id": 1,
      "args": {
        "ok": 1
      }
    },
    {
      "ph": "E",
      "ts": 1000000,
      "pid": 1,
      "tid": 0
    },
    {
      "ph": "E",
      "ts": 1000000,
      "pid": 1,
      "tid": 0,
      "args": {
        "loss": 0.10000000000000001
      }
    },
    {
      "ph": "C",
      "ts": 1000000,
      "pid": 1,
      "tid": 1,
      "name": "link:gpu0->pcie_sw0",
      "cat": "counter",
      "args": {
        "util_pct": 2e+20
      }
    },
    {
      "ph": "e",
      "ts": 1000000,
      "pid": 1,
      "tid": 2,
      "name": "flow gpu1->gpu0",
      "cat": "fabric",
      "id": 2
    },
    {
      "ph": "B",
      "ts": 1000000,
      "pid": 1,
      "tid": 4,
      "name": "allreduce",
      "cat": "comm",
      "args": {
        "bytes": 9.9999999999999995e-08
      }
    },
    {
      "ph": "E",
      "ts": 1000000,
      "pid": 1,
      "tid": 4,
      "args": {
        "algo": "ring"
      }
    },
    {
      "ph": "C",
      "ts": 1000000,
      "pid": 1,
      "tid": 5,
      "name": "link:gpu1->pcie_sw0",
      "cat": "counter",
      "args": {
        "util_pct": 12.5
      }
    },
    {
      "ph": "i",
      "ts": 1000000,
      "pid": 1,
      "tid": 6,
      "name": "checkpoint",
      "cat": "train",
      "s": "t"
    }
  ],
  "displayTimeUnit": "ms",
  "otherData": {
    "producer": "composim.telemetry.Profiler"
  }
})json";

const char* const kPinnedCompact =
    R"json({"traceEvents":[)json"
    R"json({"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"composim"}},)json"
    R"json({"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"trainer/rank0"}},)json"
    R"json({"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"link:gpu0->pcie_sw0"}},)json"
    R"json({"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"fabric"}},)json"
    R"json({"ph":"M","pid":1,"tid":3,"name":"thread_name","args":{"name":"fault"}},)json"
    R"json({"ph":"M","pid":1,"tid":4,"name":"thread_name","args":{"name":"comm \"ring\""}},)json"
    R"json({"ph":"M","pid":1,"tid":5,"name":"thread_name","args":{"name":"link:gpu1->pcie_sw0"}},)json"
    R"json({"ph":"M","pid":1,"tid":6,"name":"thread_name","args":{"name":"train"}},)json"
    R"json({"ph":"B","ts":0,"pid":1,"tid":0,"name":"iteration","cat":"train","args":{"iter":0,"batch":64}},)json"
    R"json({"ph":"C","ts":0,"pid":1,"tid":1,"name":"link:gpu0->pcie_sw0","cat":"counter","args":{"util_pct":0}},)json"
    R"json({"ph":"C","ts":0,"pid":1,"tid":1,"name":"link:gpu0->pcie_sw0","cat":"counter","args":{"flows":0}},)json"
    R"json({"ph":"C","ts":250000,"pid":1,"tid":1,"name":"link:gpu0->pcie_sw0","cat":"counter","args":{"util_pct":33.333333333333336}},)json"
    R"json({"ph":"C","ts":250000,"pid":1,"tid":1,"name":"link:gpu0->pcie_sw0","cat":"counter","args":{"flows":2}},)json"
    R"json({"ph":"b","ts":250000,"pid":1,"tid":2,"name":"flow gpu0->gpu1","cat":"fabric","id":1,"args":{"bytes":1048576,"corr":7}},)json"
    R"json({"ph":"b","ts":250000,"pid":1,"tid":2,"name":"flow gpu1->gpu0","cat":"fabric","id":2,"args":{"bytes":3000000000}},)json"
    R"json({"ph":"B","ts":333333.33333333331,"pid":1,"tid":0,"name":"forward","cat":"train","args":{"k":2}},)json"
    R"json({"ph":"i","ts":333333.33333333331,"pid":1,"tid":3,"name":"link_down","cat":"fault","s":"t","args":{"link":"gpu0->pcie_sw0","note":"quote \" backslash \\ newline \n tab \t cr \r ctrl \u0001\u001f end µs"}},)json"
    R"json({"ph":"e","ts":750000,"pid":1,"tid":2,"name":"flow gpu0->gpu1","cat":"fabric","id":1,"args":{"ok":1}},)json"
    R"json({"ph":"E","ts":1000000,"pid":1,"tid":0},)json"
    R"json({"ph":"E","ts":1000000,"pid":1,"tid":0,"args":{"loss":0.10000000000000001}},)json"
    R"json({"ph":"C","ts":1000000,"pid":1,"tid":1,"name":"link:gpu0->pcie_sw0","cat":"counter","args":{"util_pct":2e+20}},)json"
    R"json({"ph":"e","ts":1000000,"pid":1,"tid":2,"name":"flow gpu1->gpu0","cat":"fabric","id":2},)json"
    R"json({"ph":"B","ts":1000000,"pid":1,"tid":4,"name":"allreduce","cat":"comm","args":{"bytes":9.9999999999999995e-08}},)json"
    R"json({"ph":"E","ts":1000000,"pid":1,"tid":4,"args":{"algo":"ring"}},)json"
    R"json({"ph":"C","ts":1000000,"pid":1,"tid":5,"name":"link:gpu1->pcie_sw0","cat":"counter","args":{"util_pct":12.5}},)json"
    R"json({"ph":"i","ts":1000000,"pid":1,"tid":6,"name":"checkpoint","cat":"train","s":"t"})json"
    R"json(],"displayTimeUnit":"ms","otherData":{"producer":"composim.telemetry.Profiler"}})json";

const char* const kCappedCompact =
    R"json({"traceEvents":[)json"
    R"json({"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"composim"}},)json"
    R"json({"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"t"}},)json"
    R"json({"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"lnk"}},)json"
    R"json({"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"c"}},)json"
    R"json({"ph":"B","ts":0,"pid":1,"tid":0,"name":"kept","cat":"c"},)json"
    R"json({"ph":"C","ts":0,"pid":1,"tid":1,"name":"lnk","cat":"counter","args":{"util":50}},)json"
    R"json({"ph":"i","ts":0,"pid":1,"tid":2,"name":"mark","cat":"c","s":"t"},)json"
    R"json({"ph":"E","ts":2000000,"pid":1,"tid":0})json"
    R"json(],"displayTimeUnit":"ms","otherData":{"producer":"composim.telemetry.Profiler","max_records":3,"dropped_records":5}})json";

TEST(ProfilerExport, PinnedTraceMatchesCapturedTextByteForByte) {
  Simulator sim;
  Profiler prof(sim);
  recordPinnedTrace(sim, prof);
  const falcon::Json doc = prof.chromeTrace();
  EXPECT_EQ(doc.dump(2), kPinnedIndented);
  EXPECT_EQ(doc.dump(-1), kPinnedCompact);
}

TEST(ProfilerExport, CappedTraceMatchesCapturedTextByteForByte) {
  Simulator sim;
  Profiler prof(sim);
  recordCappedTrace(sim, prof);
  EXPECT_EQ(prof.chromeTrace().dump(-1), kCappedCompact);
  // The counter whose every update was capped still integrates, but owns
  // no trace row.
  EXPECT_TRUE(prof.hasCounter("late_counter", "v"));
  EXPECT_DOUBLE_EQ(prof.counterValue("late_counter", "v"), 1.0);
  EXPECT_DOUBLE_EQ(prof.counterMean("lnk", "util"), 50.0);
  for (const std::string& track : prof.trackNames()) {
    EXPECT_NE(track, "late_counter");
  }
}

TEST(ProfilerExport, ExportOrderMatchesFullStableSort) {
  const TraceRun run = runTinyDdp(true);
  const auto& recs = run.profiler->records();
  std::vector<std::size_t> want(recs.size());
  for (std::size_t i = 0; i < want.size(); ++i) want[i] = i;
  std::stable_sort(want.begin(), want.end(), [&](std::size_t a, std::size_t b) {
    if (recs[a].time != recs[b].time) return recs[a].time < recs[b].time;
    if (recs[a].tid != recs[b].tid) return recs[a].tid < recs[b].tid;
    return a < b;
  });
  EXPECT_EQ(run.profiler->exportOrder(), want);
}

TEST(ProfilerExport, ExportRejectsRecordsOutOfTimeOrder) {
  Simulator sim;
  Profiler prof(sim);
  sim.setProfiler(&prof);
  prof.instant("c", "first");
  sim.schedule(1.0, [&] { prof.instant("c", "second"); });
  sim.run();
  EXPECT_EQ(prof.exportOrder().size(), 2u);

  // Records only ever append at the monotone sim clock; a state that
  // breaks that precondition is refused instead of exported misordered.
  Profiler::State st = prof.state();
  std::swap(st.records[0].time, st.records[1].time);
  Profiler broken(sim);
  broken.setState(st);
  EXPECT_THROW(broken.exportOrder(), std::logic_error);
  EXPECT_THROW(broken.chromeTrace(), std::logic_error);
}

TEST(ProfilerExport, CounterStateForksWithTheTrace) {
  Simulator sim;
  Profiler prof(sim);
  sim.setProfiler(&prof);
  prof.setCounter("link", "util", 40.0);
  prof.setCounter("link", "flows", 1.0);
  sim.schedule(1.0, [&] { prof.setCounter("link", "util", 80.0); });
  sim.run();

  Simulator sim2;
  sim2.setState(sim.state());
  Profiler fork(sim2);
  fork.setState(prof.state());
  sim2.setProfiler(&fork);
  const std::size_t n = fork.recordCount();
  fork.setCounter("link", "util", 80.0);  // unchanged in the fork: deduped
  EXPECT_EQ(fork.recordCount(), n);
  sim2.schedule(1.0, [&] { fork.setCounter("link", "util", 0.0); });
  sim2.run();
  EXPECT_EQ(fork.recordCount(), n + 1);
  // 40 for 1 s, 80 for 1 s -> mean 60 at t = 2; the original is untouched.
  EXPECT_DOUBLE_EQ(fork.counterMean("link", "util"), 60.0);
  EXPECT_DOUBLE_EQ(fork.counterValue("link", "flows"), 1.0);
  EXPECT_DOUBLE_EQ(prof.counterValue("link", "util"), 80.0);
  // The fork reuses the counter's track instead of registering a new one.
  EXPECT_EQ(fork.records().back().tid, prof.records()[0].tid);
  EXPECT_EQ(fork.trackNames(), prof.trackNames());
}

}  // namespace
}  // namespace composim::telemetry
