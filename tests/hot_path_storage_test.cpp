// Storage-reuse tests for the chunk hot path: event actions live in the
// simulator's slots (the heap holds only keys), FlowNetwork resets finished
// flow slots in place, and completed flows wait out their arrival latency
// in a free-listed delivery pool. Each test drives reuse or reallocation
// hard enough that a stale or dangling entry would show, under the
// sanitizers as a memory error and otherwise as a wrong value.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fabric/flow_network.hpp"
#include "sim/profile.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"

namespace composim {
namespace {

TEST(EventStorage, ActionSchedulingThousandsOfEventsKeepsCapturesValid) {
  Simulator sim;
  struct Ran {
    SimTime time;
    int order;  // scheduling order
  };
  std::vector<Ran> ran;
  const std::vector<int> payload(64, 7);
  const std::string label(48, 'x');  // beyond the small-string buffer
  constexpr int kEvents = 5000;
  std::size_t seen_payload = 0;
  sim.schedule(0.0, [&, payload, label] {
    // Grows slots_ several times over while this action runs; the action's
    // own captures must stay readable afterwards.
    for (int i = 0; i < kEvents; ++i) {
      const SimTime t = 1.0 + static_cast<double>((i * 7919) % 97);
      sim.schedule(t, [&ran, &sim, i] { ran.push_back({sim.now(), i}); });
    }
    seen_payload = static_cast<std::size_t>(
        std::count(payload.begin(), payload.end(), 7));
    seen_payload += label.size();
  });
  sim.run();
  EXPECT_EQ(seen_payload, 64u + 48u);
  ASSERT_EQ(ran.size(), static_cast<std::size_t>(kEvents));
  for (std::size_t k = 1; k < ran.size(); ++k) {
    const bool ordered =
        ran[k - 1].time < ran[k].time ||
        (ran[k - 1].time == ran[k].time && ran[k - 1].order < ran[k].order);
    ASSERT_TRUE(ordered) << "event " << k << " out of (time, seq) order";
  }
}

TEST(EventStorage, CancelledCaptureReleasedWhenTombstonePurged) {
  Simulator sim;
  auto token = std::make_shared<int>(1);
  const EventId id = sim.schedule(1.0, [token] {});
  sim.schedule(2.0, [] {});
  ASSERT_TRUE(sim.cancel(id));
  EXPECT_EQ(token.use_count(), 2);  // the tombstone still holds the action
  ASSERT_TRUE(sim.step());          // purges the tombstone, runs t=2
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventStorage, CancelledCapturesReleasedWhenTombstonesCompacted) {
  Simulator sim;
  auto token = std::make_shared<int>(1);
  constexpr int kEvents = 2000;
  constexpr int kCancelled = 1025;  // > compaction floor and > half the heap
  std::vector<EventId> ids;
  for (int i = 0; i < kEvents; ++i) {
    ids.push_back(sim.schedule(1.0 + i, [token] {}));
  }
  for (int i = 0; i < kCancelled; ++i) ASSERT_TRUE(sim.cancel(ids[i]));
  EXPECT_EQ(sim.queuedEvents(), static_cast<std::size_t>(kEvents - kCancelled));
  EXPECT_EQ(token.use_count(), 1 + kEvents - kCancelled);
  for (int i = kCancelled; i < kEvents; ++i) ASSERT_TRUE(sim.cancel(ids[i]));
  sim.run();
  EXPECT_EQ(sim.eventsExecuted(), 0u);
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace

namespace fabric {
namespace {

struct Net {
  Simulator sim;
  Topology topo;
  FlowNetwork net{sim, topo};
};

TEST(FlowSlotReuse, ShortRouteAfterLongRouteChargesOnlyItsOwnLinks) {
  Net n;
  const NodeId a = n.topo.addNode("a", NodeKind::Gpu);
  const NodeId b = n.topo.addNode("b", NodeKind::PcieSwitch);
  const NodeId c = n.topo.addNode("c", NodeKind::PcieSwitch);
  const NodeId d = n.topo.addNode("d", NodeKind::Gpu);
  const LinkId ab = n.topo.addDuplexLink(a, b, units::GBps(10), 1e-6,
                                         LinkKind::PCIe4).first;
  const LinkId bc = n.topo.addDuplexLink(b, c, units::GBps(10), 1e-6,
                                         LinkKind::PCIe4).first;
  const LinkId cd = n.topo.addDuplexLink(c, d, units::GBps(10), 1e-6,
                                         LinkKind::PCIe4).first;
  const Bytes first = units::MiB(4);
  const Bytes second = units::MiB(6);
  n.net.startFlow(a, d, first, [&](const FlowResult& r) {
    ASSERT_EQ(r.status, FlowStatus::Completed);
    // The long flow's slot is free again; the short flow reuses it.
    n.net.startFlow(a, b, second, [](const FlowResult&) {});
  });
  n.sim.run();
  EXPECT_EQ(n.net.flowsCompleted(), 2u);
  EXPECT_EQ(n.net.linkBytes(ab), first + second);
  EXPECT_EQ(n.net.linkBytes(bc), first);
  EXPECT_EQ(n.net.linkBytes(cd), first);
}

TEST(FlowSlotReuse, LiveFlowsStayFindableThroughScatteredCancels) {
  // Enough concurrent flows to grow the id lookup table several times and
  // form long probe runs; cancelling in a scattered order then exercises
  // every deletion path.
  Net n;
  const NodeId a = n.topo.addNode("a", NodeKind::Gpu);
  const NodeId b = n.topo.addNode("b", NodeKind::Gpu);
  n.topo.addDuplexLink(a, b, units::GBps(10), 1e-6, LinkKind::PCIe4);
  constexpr int kFlows = 600;
  std::vector<FlowRequest> reqs(kFlows);
  for (FlowRequest& rq : reqs) {
    rq.src = a;
    rq.dst = b;
    rq.bytes = units::MiB(1);
  }
  const std::vector<FlowId> ids = n.net.startFlows(std::move(reqs));
  std::vector<bool> live(kFlows, true);
  std::size_t remaining = kFlows;
  for (int k = 0; k < kFlows; ++k) {
    const int victim = (k * 337) % kFlows;  // 337 is coprime to 600
    ASSERT_TRUE(n.net.cancelFlow(ids[static_cast<std::size_t>(victim)]));
    ASSERT_FALSE(n.net.cancelFlow(ids[static_cast<std::size_t>(victim)]));
    live[static_cast<std::size_t>(victim)] = false;
    --remaining;
    ASSERT_EQ(n.net.activeFlows(), remaining);
    if (k % 37 != 0) continue;
    for (int f = 0; f < kFlows; ++f) {
      const double rate = n.net.flowRate(ids[static_cast<std::size_t>(f)]);
      if (live[static_cast<std::size_t>(f)]) {
        ASSERT_GT(rate, 0.0) << "live flow " << f << " lost after " << k;
      } else {
        ASSERT_EQ(rate, 0.0) << "cancelled flow " << f << " still found";
      }
    }
  }
  EXPECT_EQ(n.net.activeFlows(), 0u);
  n.sim.run();
  EXPECT_EQ(n.net.flowsFailed(), static_cast<std::uint64_t>(kFlows));
}

/// Records every closing async-span argument set, by span id.
class RecordingSink final : public ProfileSink {
 public:
  struct Closed {
    AsyncSpanId id;
    double ideal_s;
  };
  std::vector<Closed> closed;

  void beginSpan(const std::string&, const char*, std::string,
                 ProfileArgs) override {}
  void endSpan(const std::string&, ProfileArgs) override {}
  AsyncSpanId beginAsyncSpan(const char*, std::string, ProfileArgs) override {
    return ++next_;
  }
  void endAsyncSpan(AsyncSpanId id, ProfileArgs args) override {
    double ideal = -1.0;
    for (const ProfileArg& arg : args) {
      if (arg.key == "ideal_s") ideal = arg.num;
    }
    closed.push_back({id, ideal});
  }
  void setCounter(const std::string&, const std::string&, double) override {}
  void instant(const char*, std::string, ProfileArgs) override {}

 private:
  AsyncSpanId next_ = 0;
};

TEST(FlowSlotReuse, ProfiledIdealTimeDoesNotLeakIntoNextFlow) {
  Net n;
  RecordingSink sink;
  const NodeId a = n.topo.addNode("a", NodeKind::Gpu);
  const NodeId b = n.topo.addNode("b", NodeKind::Gpu);
  n.topo.addDuplexLink(a, b, units::GBps(10), 1e-6, LinkKind::PCIe4);
  n.sim.setProfiler(&sink);
  n.net.startFlow(a, b, units::MiB(8), [](const FlowResult&) {});
  n.sim.run();
  ASSERT_EQ(sink.closed.size(), 1u);
  EXPECT_GT(sink.closed[0].ideal_s, 0.0);

  // Admitted unprofiled (no span, no ideal time computed) into the same
  // slot, then closed with the profiler back on: the report must carry a
  // zero ideal time, not the previous flow's.
  n.sim.setProfiler(nullptr);
  n.net.startFlow(a, b, units::MiB(2), [](const FlowResult&) {});
  n.sim.setProfiler(&sink);
  n.sim.run();
  ASSERT_EQ(sink.closed.size(), 2u);
  EXPECT_EQ(sink.closed[1].id, kInvalidAsyncSpan);
  EXPECT_EQ(sink.closed[1].ideal_s, 0.0);
  n.sim.setProfiler(nullptr);
}

TEST(FlowDeliveryPool, PendingDeliveriesSurviveSlotAndPoolReuse) {
  Net n;
  // Four independent links, long propagation latency, short transfers:
  // each flow finishes injecting long before it is delivered, so its flow
  // slot is reused while dozens of deliveries are still pending, and the
  // delivery pool both reuses freed entries and grows from inside a
  // delivery callback.
  constexpr int kPairs = 4;
  constexpr int kFlows = 200;
  const Bandwidth cap = units::GBps(10);
  const SimTime latency = 0.01;
  const SimTime spacing = 0.0002;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int p = 0; p < kPairs; ++p) {
    const NodeId s = n.topo.addNode("s" + std::to_string(p), NodeKind::Gpu);
    const NodeId d = n.topo.addNode("d" + std::to_string(p), NodeKind::Gpu);
    n.topo.addDuplexLink(s, d, cap, latency, LinkKind::PCIe4);
    pairs.emplace_back(s, d);
  }
  struct Expect {
    Bytes bytes;
    SimTime start;
  };
  std::vector<Expect> expected;
  std::vector<FlowResult> got;
  std::vector<int> calls;
  const auto launch = [&](int k, std::pair<NodeId, NodeId> route, Bytes bytes,
                          auto&& self) -> void {
    expected[static_cast<std::size_t>(k)] = {bytes, n.sim.now()};
    n.net.startFlow(route.first, route.second, bytes,
                    [&, k, route, self](const FlowResult& r) {
                      got[static_cast<std::size_t>(k)] = r;
                      ++calls[static_cast<std::size_t>(k)];
                      if (k < kFlows && k % 2 == 0) {
                        // Follow-up flow issued from inside a delivery.
                        self(kFlows + k / 2, route, 1000 + k, self);
                      }
                    });
  };
  const std::size_t total = kFlows + kFlows / 2;
  expected.assign(total, Expect{0, 0.0});
  got.assign(total, FlowResult{});
  calls.assign(total, 0);
  for (int k = 0; k < kFlows; ++k) {
    n.sim.scheduleAt(spacing * k, [&, k] {
      // Distinct sizes, each well under `spacing` at full link rate.
      launch(k, pairs[static_cast<std::size_t>(k % kPairs)],
             units::KiB(100) + 17 * k, launch);
    });
  }
  n.sim.run();
  for (std::size_t k = 0; k < total; ++k) {
    ASSERT_EQ(calls[k], 1) << "flow " << k;
    const FlowResult& r = got[k];
    EXPECT_EQ(r.status, FlowStatus::Completed) << "flow " << k;
    EXPECT_EQ(r.bytes, expected[k].bytes) << "flow " << k;
    EXPECT_EQ(r.start, expected[k].start) << "flow " << k;
    const SimTime transfer = static_cast<double>(expected[k].bytes) / cap;
    EXPECT_NEAR(r.end, expected[k].start + transfer + latency, 1e-12)
        << "flow " << k;
  }
  EXPECT_EQ(n.net.activeFlows(), 0u);
}

}  // namespace
}  // namespace fabric
}  // namespace composim
