// Hierarchical-vs-flat routing equivalence: route() on a topology with two
// or more domains goes through the domain tables and must match the
// flat-Dijkstra oracle (routeFlat) in reachability and total latency on
// every pair, including after link failures and on paths that detour out
// of and back into a domain. Link latencies are exact binary fractions
// (k / 2^20 seconds) so equal-cost paths sum bitwise-identically and the
// comparisons below can demand exact equality.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fabric/topology.hpp"

namespace composim::fabric {
namespace {

double lat(int k) { return static_cast<double>(k) / 1048576.0; }

/// Deterministic xorshift so every run sees identical topologies.
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed * 2654435761u + 1) {}
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  int range(int lo, int hi) {  // inclusive
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
};

/// Check every (src, dst) pair: same reachability, bitwise-equal latency,
/// and a structurally valid hierarchical path (contiguous src->dst over up
/// links, latency/bottleneck consistent with the link sequence).
void expectEquivalent(const Topology& topo) {
  const int n = static_cast<int>(topo.nodeCount());
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      const auto flat = topo.routeFlat(s, d);
      const auto hier = topo.route(s, d);
      ASSERT_EQ(flat.has_value(), hier.has_value())
          << "reachability mismatch " << s << "->" << d;
      if (!flat) continue;
      EXPECT_EQ(flat->latency, hier->latency)
          << "latency mismatch " << s << "->" << d;
      // Path validity.
      NodeId cur = s;
      double sum = 0.0;
      double bottleneck = std::numeric_limits<double>::infinity();
      for (LinkId lid : hier->links) {
        const Link& l = topo.link(lid);
        ASSERT_EQ(l.src, cur) << "discontiguous path " << s << "->" << d;
        ASSERT_TRUE(l.up) << "path uses a down link " << s << "->" << d;
        sum += l.latency;
        bottleneck = std::min(bottleneck, l.capacity);
        cur = l.dst;
      }
      ASSERT_EQ(cur, d) << "path does not end at dst " << s << "->" << d;
      EXPECT_EQ(hier->latency, sum);
      if (!hier->links.empty()) {
        EXPECT_EQ(hier->bottleneck, bottleneck);
      }
    }
  }
}

TEST(HierarchicalRoute, TwoDomainChassisPair) {
  Topology t;
  // Domain 0: hub + 3 leaves; domain 1: hub + 3 leaves; duplex inter link.
  const NodeId h0 = t.addNode("h0", NodeKind::PcieSwitch);
  const NodeId h1 = t.addNode("h1", NodeKind::PcieSwitch);
  std::vector<NodeId> leaves0, leaves1;
  for (int i = 0; i < 3; ++i) {
    const NodeId a = t.addNode("a" + std::to_string(i), NodeKind::Gpu);
    t.addDuplexLink(a, h0, 1e9, lat(2 + i), LinkKind::PCIe4);
    leaves0.push_back(a);
    const NodeId b = t.addNode("b" + std::to_string(i), NodeKind::Gpu);
    t.addDuplexLink(b, h1, 1e9, lat(2 + i), LinkKind::PCIe4);
    leaves1.push_back(b);
  }
  t.addDuplexLink(h0, h1, 2e9, lat(10), LinkKind::HostAdapter);
  t.setNodeDomain(h1, 1);
  for (NodeId b : leaves1) t.setNodeDomain(b, 1);

  expectEquivalent(t);
  // Cross-domain path runs leaf -> hub -> hub -> leaf.
  const auto r = t.route(leaves0[0], leaves1[2]);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->links.size(), 3u);
  EXPECT_EQ(r->latency, lat(2) + lat(10) + lat(4));
}

TEST(HierarchicalRoute, SameDomainDetourThroughOtherDomain) {
  Topology t;
  // x and y share a domain but their only intra link is down, so the
  // shortest (and only) path exits via domain 1 and re-enters.
  const NodeId x = t.addNode("x", NodeKind::Gpu);
  const NodeId y = t.addNode("y", NodeKind::Gpu);
  const NodeId m = t.addNode("m", NodeKind::PcieSwitch);
  t.setNodeDomain(m, 1);
  const auto [xy, yx] = t.addDuplexLink(x, y, 1e9, lat(1), LinkKind::NVLink);
  t.addDuplexLink(x, m, 1e9, lat(5), LinkKind::PCIe4);
  t.addDuplexLink(m, y, 1e9, lat(7), LinkKind::PCIe4);

  expectEquivalent(t);
  t.setLinkUp(xy, false);
  t.setLinkUp(yx, false);
  expectEquivalent(t);
  const auto r = t.route(x, y);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->latency, lat(5) + lat(7));
  EXPECT_EQ(r->links.size(), 2u);
}

TEST(HierarchicalRoute, SingleDomainFallsBackToFlatPaths) {
  Topology t;
  const NodeId a = t.addNode("a", NodeKind::Gpu);
  const NodeId b = t.addNode("b", NodeKind::Gpu);
  const NodeId c = t.addNode("c", NodeKind::Gpu);
  t.addDuplexLink(a, b, 1e9, lat(1), LinkKind::NVLink);
  t.addDuplexLink(b, c, 1e9, lat(1), LinkKind::NVLink);
  // No second domain: routing stays on the flat path.
  const auto hier = t.route(a, c);
  const auto flat = t.routeFlat(a, c);
  ASSERT_TRUE(hier.has_value());
  EXPECT_EQ(hier->links, flat->links);  // identical path, not just latency
}

TEST(HierarchicalRoute, UnreachableCrossDomainMatchesOracle) {
  Topology t;
  const NodeId a = t.addNode("a", NodeKind::Gpu);
  const NodeId b = t.addNode("b", NodeKind::Gpu);
  t.setNodeDomain(b, 1);
  const auto [ab, ba] = t.addDuplexLink(a, b, 1e9, lat(1), LinkKind::PCIe4);
  EXPECT_TRUE(t.route(a, b).has_value());
  t.setLinkUp(ab, false);
  t.setLinkUp(ba, false);
  EXPECT_FALSE(t.route(a, b).has_value());
  EXPECT_FALSE(t.routeFlat(a, b).has_value());
  expectEquivalent(t);
}

TEST(HierarchicalRoute, SnapshotRoundTripsDomainsAndDropsTables) {
  Topology t;
  const NodeId a = t.addNode("a", NodeKind::Gpu);
  const NodeId b = t.addNode("b", NodeKind::Gpu);
  t.setNodeDomain(b, 1);
  t.addDuplexLink(a, b, 1e9, lat(3), LinkKind::PCIe4);
  ASSERT_TRUE(t.route(a, b).has_value());
  const auto before_builds = t.hierarchyBuilds();
  const auto st = t.state();
  EXPECT_EQ(st.domains.size(), t.nodeCount());
  EXPECT_EQ(st.domains[1], 1);
  t.restoreState(st);
  // Tables were dropped; the next route rebuilds them lazily.
  ASSERT_TRUE(t.route(a, b).has_value());
  EXPECT_GT(t.hierarchyBuilds(), before_builds);
}

TEST(HierarchicalRoute, RestoreRejectsDomainMismatch) {
  Topology t;
  t.addNode("a", NodeKind::Gpu);
  const NodeId b = t.addNode("b", NodeKind::Gpu);
  t.setNodeDomain(b, 1);
  auto st = t.state();
  st.domains[1] = 2;  // snapshot from a differently configured topology
  EXPECT_THROW(t.restoreState(st), std::logic_error);
}

TEST(HierarchicalRoute, HierarchyRebuildsOnlyOnTopologyChange) {
  Topology t;
  const NodeId a = t.addNode("a", NodeKind::Gpu);
  const NodeId b = t.addNode("b", NodeKind::Gpu);
  t.setNodeDomain(b, 1);
  t.addDuplexLink(a, b, 1e9, lat(3), LinkKind::PCIe4);
  ASSERT_TRUE(t.route(a, b).has_value());
  const auto builds = t.hierarchyBuilds();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(t.route(a, b).has_value());
  EXPECT_EQ(t.hierarchyBuilds(), builds);  // cached queries don't rebuild
  t.invalidateRoutes();
  ASSERT_TRUE(t.route(b, a).has_value());
  EXPECT_EQ(t.hierarchyBuilds(), builds + 1);
}

class RandomizedEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RandomizedEquivalence, MatchesFlatOracleIncludingDownLinks) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  Topology t;
  const int domains = rng.range(2, 4);
  std::vector<std::vector<NodeId>> members(static_cast<std::size_t>(domains));
  for (int d = 0; d < domains; ++d) {
    const int count = rng.range(3, 7);
    for (int i = 0; i < count; ++i) {
      const NodeId n = t.addNode("d" + std::to_string(d) + "n" + std::to_string(i),
                                 NodeKind::Gpu);
      if (d > 0) t.setNodeDomain(n, d);
      members[static_cast<std::size_t>(d)].push_back(n);
    }
  }
  // Intra-domain: a connecting chain plus random extra edges.
  std::vector<LinkId> links;
  const auto connect = [&](NodeId a, NodeId b) {
    const auto [f, r] =
        t.addDuplexLink(a, b, 1e8 * rng.range(1, 8), lat(rng.range(1, 64)),
                        LinkKind::PCIe4);
    links.push_back(f);
    links.push_back(r);
  };
  for (const auto& dom : members) {
    for (std::size_t i = 1; i < dom.size(); ++i) connect(dom[i - 1], dom[i]);
    const int extra = rng.range(0, 3);
    for (int e = 0; e < extra; ++e) {
      const NodeId a = dom[static_cast<std::size_t>(
          rng.range(0, static_cast<int>(dom.size()) - 1))];
      const NodeId b = dom[static_cast<std::size_t>(
          rng.range(0, static_cast<int>(dom.size()) - 1))];
      if (a != b) connect(a, b);
    }
  }
  // Inter-domain: each adjacent domain pair gets 1-2 random links, plus a
  // random extra pair so border graphs are not always chains.
  for (int d = 1; d < domains; ++d) {
    const auto& prev = members[static_cast<std::size_t>(d - 1)];
    const auto& cur = members[static_cast<std::size_t>(d)];
    const int count = rng.range(1, 2);
    for (int e = 0; e < count; ++e) {
      connect(prev[static_cast<std::size_t>(
                  rng.range(0, static_cast<int>(prev.size()) - 1))],
              cur[static_cast<std::size_t>(
                  rng.range(0, static_cast<int>(cur.size()) - 1))]);
    }
  }
  if (domains > 2) {
    const auto& a = members.front();
    const auto& b = members.back();
    connect(a[static_cast<std::size_t>(rng.range(0, static_cast<int>(a.size()) - 1))],
            b[static_cast<std::size_t>(rng.range(0, static_cast<int>(b.size()) - 1))]);
  }

  expectEquivalent(t);
  // Knock out ~20% of links (possibly disconnecting domains) and re-check.
  for (LinkId l : links) {
    if (rng.range(0, 4) == 0) t.setLinkUp(l, false);
  }
  expectEquivalent(t);
  // Restore and check the rebuild path once more.
  for (LinkId l : links) t.setLinkUp(l, true);
  expectEquivalent(t);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedEquivalence, ::testing::Range(1, 13));

}  // namespace
}  // namespace composim::fabric
