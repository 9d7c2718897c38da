#include "fabric/topology.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace composim::fabric {

const char* toString(NodeKind k) {
  switch (k) {
    case NodeKind::Gpu: return "GPU";
    case NodeKind::CpuRootComplex: return "RootComplex";
    case NodeKind::PcieSwitch: return "PCIeSwitch";
    case NodeKind::HostMemory: return "HostMemory";
    case NodeKind::Storage: return "Storage";
    case NodeKind::Nic: return "NIC";
    case NodeKind::Other: return "Other";
  }
  return "?";
}

const char* toString(LinkKind k) {
  switch (k) {
    case LinkKind::NVLink: return "NVLink";
    case LinkKind::PCIe3: return "PCI-e 3.0";
    case LinkKind::PCIe4: return "PCI-e 4.0";
    case LinkKind::HostAdapter: return "HostAdapter";
    case LinkKind::RootComplex: return "RootComplex";
    case LinkKind::MemoryBus: return "MemoryBus";
    case LinkKind::Ethernet: return "Ethernet";
    case LinkKind::Internal: return "Internal";
  }
  return "?";
}

NodeId Topology::addNode(std::string name, NodeKind kind) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{std::move(name), kind});
  adjacency_.emplace_back();
  reverse_adjacency_.emplace_back();
  domain_of_.push_back(kDefaultDomain);
  ++generation_;
  return id;
}

LinkId Topology::addLink(NodeId src, NodeId dst, Bandwidth capacity,
                         SimTime latency, LinkKind kind) {
  if (src < 0 || dst < 0 || static_cast<std::size_t>(src) >= nodes_.size() ||
      static_cast<std::size_t>(dst) >= nodes_.size()) {
    throw std::out_of_range("Topology::addLink: bad node id");
  }
  if (src == dst) throw std::invalid_argument("Topology::addLink: self-loop");
  if (capacity <= 0.0) throw std::invalid_argument("Topology::addLink: capacity must be > 0");
  const LinkId id = static_cast<LinkId>(links_.size());
  links_.push_back(Link{src, dst, capacity, latency, kind, true, {}});
  adjacency_[static_cast<std::size_t>(src)].push_back(id);
  reverse_adjacency_[static_cast<std::size_t>(dst)].push_back(id);
  ++generation_;
  return id;
}

std::pair<LinkId, LinkId> Topology::addDuplexLink(NodeId a, NodeId b,
                                                  Bandwidth capacityPerDirection,
                                                  SimTime latency, LinkKind kind) {
  const LinkId fwd = addLink(a, b, capacityPerDirection, latency, kind);
  const LinkId rev = addLink(b, a, capacityPerDirection, latency, kind);
  return {fwd, rev};
}

void Topology::isolateNode(NodeId n) {
  for (LinkId l : adjacency_.at(static_cast<std::size_t>(n))) {
    links_[static_cast<std::size_t>(l)].up = false;
  }
  for (LinkId l : reverse_adjacency_.at(static_cast<std::size_t>(n))) {
    links_[static_cast<std::size_t>(l)].up = false;
  }
  ++generation_;
}

void Topology::setLinkUp(LinkId l, bool up) {
  links_.at(static_cast<std::size_t>(l)).up = up;
  ++generation_;
}

void Topology::setNodeDomain(NodeId n, DomainId d) {
  if (d < 0) throw std::invalid_argument("Topology::setNodeDomain: domain must be >= 0");
  domain_of_.at(static_cast<std::size_t>(n)) = d;
  ++generation_;
}

NodeId Topology::findNode(const std::string& name) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].name == name) return static_cast<NodeId>(i);
  }
  return kInvalidNode;
}

const std::vector<LinkId>& Topology::linksFrom(NodeId n) const {
  return adjacency_.at(static_cast<std::size_t>(n));
}

const std::vector<LinkId>& Topology::linksInto(NodeId n) const {
  return reverse_adjacency_.at(static_cast<std::size_t>(n));
}

Topology::State Topology::state() const {
  State st;
  st.links.reserve(links_.size());
  for (const Link& l : links_) st.links.push_back({l.up, l.counters});
  st.generation = generation_;
  st.domains = domain_of_;
  return st;
}

void Topology::restoreState(const State& st) {
  if (st.links.size() != links_.size()) {
    throw std::logic_error(
        "Topology::restoreState: link count mismatch (snapshot taken from a "
        "differently built topology)");
  }
  if (st.domains != domain_of_) {
    // Domains are build-time structure: the fork rebuilds them from the
    // same configuration, so a divergence means the snapshot came from a
    // differently configured topology.
    throw std::logic_error(
        "Topology::restoreState: routing-domain configuration mismatch "
        "(snapshot taken from a differently configured topology)");
  }
  for (std::size_t i = 0; i < links_.size(); ++i) {
    links_[i].up = st.links[i].up;
    links_[i].counters = st.links[i].counters;
  }
  generation_ = st.generation;
  // Cached routes, Dijkstra scratch, and the hierarchy tables may predate
  // the restored link states; all three are recomputed lazily.
  route_cache_.clear();
  cache_generation_ = ~0ULL;
  hier_generation_ = ~0ULL;
  scratch_epoch_ = 0;
  std::fill(scratch_stamp_.begin(), scratch_stamp_.end(), 0u);
  // The fork's worker thread is the new routing owner (see checkRouteOwner).
  rebindRouteOwner();
}

void Topology::rebindRouteOwner() const {
  route_owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
}

void Topology::checkRouteOwner() const {
  // The route cache and Dijkstra scratch are mutated from this const
  // method without locks; correctness rests on single-owner-thread use
  // (each parallel sweep run owns a private Topology). Pin the first
  // caller and fail loudly — instead of racing silently — on any other.
  const std::thread::id me = std::this_thread::get_id();
  std::thread::id owner = route_owner_.load(std::memory_order_relaxed);
  if (owner == std::thread::id()) {
    if (route_owner_.compare_exchange_strong(owner, me,
                                             std::memory_order_relaxed)) {
      return;
    }
    // Lost the pin race: `owner` now holds the winner's id.
  }
  if (owner != me) {
    throw std::logic_error(
        "Topology::route: called from a thread other than the routing "
        "owner; give each worker its own Topology or call "
        "rebindRouteOwner() after a handoff");
  }
}

void Topology::dijkstra(NodeId src, NodeId stop_at, DomainId domain,
                        bool reverse) const {
  // dist/via/heap are per-instance scratch reused across calls; a slot is
  // valid only when its stamp matches the current epoch, so "reset" is
  // one counter bump instead of an O(nodes) refill.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (scratch_stamp_.size() < nodes_.size()) {
    scratch_dist_.resize(nodes_.size(), kInf);
    scratch_via_.resize(nodes_.size(), kInvalidLink);
    scratch_stamp_.resize(nodes_.size(), 0);
  }
  if (++scratch_epoch_ == 0) {  // epoch wrap: stale stamps could collide
    std::fill(scratch_stamp_.begin(), scratch_stamp_.end(), 0u);
    scratch_epoch_ = 1;
  }
  const auto distAt = [&](NodeId n) {
    const auto i = static_cast<std::size_t>(n);
    return scratch_stamp_[i] == scratch_epoch_ ? scratch_dist_[i] : kInf;
  };
  const auto touch = [&](NodeId n, double d, LinkId via) {
    const auto i = static_cast<std::size_t>(n);
    scratch_stamp_[i] = scratch_epoch_;
    scratch_dist_[i] = d;
    scratch_via_[i] = via;
  };

  using QE = std::pair<double, NodeId>;
  scratch_heap_.clear();
  scratch_heap_.reserve(heap_watermark_);
  const auto push = [&](QE e) {
    scratch_heap_.push_back(e);
    std::push_heap(scratch_heap_.begin(), scratch_heap_.end(), std::greater<>{});
    heap_watermark_ = std::max(heap_watermark_, scratch_heap_.size());
  };
  touch(src, 0.0, kInvalidLink);
  push({0.0, src});
  // Ties broken deterministically by node id: pop order over the same
  // subgraph is identical whether or not `domain` restricts it.
  while (!scratch_heap_.empty()) {
    std::pop_heap(scratch_heap_.begin(), scratch_heap_.end(), std::greater<>{});
    const auto [d, u] = scratch_heap_.back();
    scratch_heap_.pop_back();
    if (d > distAt(u)) continue;
    if (u == stop_at) break;
    const auto& edges = reverse ? reverse_adjacency_[static_cast<std::size_t>(u)]
                                : adjacency_[static_cast<std::size_t>(u)];
    for (LinkId lid : edges) {
      const Link& l = links_[static_cast<std::size_t>(lid)];
      if (!l.up) continue;
      const NodeId next = reverse ? l.src : l.dst;
      if (domain >= 0 && domain_of_[static_cast<std::size_t>(next)] != domain) continue;
      const double nd = d + l.latency;
      if (nd < distAt(next)) {
        touch(next, nd, lid);
        push({nd, next});
      }
    }
  }
}

Route Topology::reconstructFromScratch(NodeId src, NodeId dst) const {
  Route r;
  r.links.reserve(path_watermark_);
  for (NodeId cur = dst; cur != src;) {
    const LinkId lid = scratch_via_[static_cast<std::size_t>(cur)];
    r.links.push_back(lid);
    cur = links_[static_cast<std::size_t>(lid)].src;
  }
  std::reverse(r.links.begin(), r.links.end());
  finalizeRoute(r);
  return r;
}

void Topology::finalizeRoute(Route& r) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  r.latency = 0.0;
  r.bottleneck = kInf;
  for (LinkId lid : r.links) {
    const Link& l = links_[static_cast<std::size_t>(lid)];
    r.latency += l.latency;
    r.bottleneck = std::min(r.bottleneck, l.capacity);
  }
  path_watermark_ = std::max(path_watermark_, r.links.size());
}

std::optional<Route> Topology::computeFlat(NodeId src, NodeId dst) const {
  if (src == dst) return Route{};  // empty route: same endpoint
  dijkstra(src, dst, /*domain=*/-1, /*reverse=*/false);
  if (scratch_stamp_[static_cast<std::size_t>(dst)] == scratch_epoch_ &&
      scratch_via_[static_cast<std::size_t>(dst)] != kInvalidLink) {
    return reconstructFromScratch(src, dst);
  }
  return std::nullopt;
}

std::optional<Route> Topology::routeFlat(NodeId src, NodeId dst) const {
  if (src < 0 || dst < 0 || static_cast<std::size_t>(src) >= nodes_.size() ||
      static_cast<std::size_t>(dst) >= nodes_.size()) {
    return std::nullopt;
  }
  checkRouteOwner();
  return computeFlat(src, dst);
}

std::optional<Route> Topology::computeRoute(NodeId src, NodeId dst) const {
  ensureHierarchy();
  return hier_active_ ? computeHierarchical(src, dst) : computeFlat(src, dst);
}

const std::optional<Route>& Topology::routeCached(NodeId src, NodeId dst) const {
  static const std::optional<Route> kNoRoute;
  if (src < 0 || dst < 0 || static_cast<std::size_t>(src) >= nodes_.size() ||
      static_cast<std::size_t>(dst) >= nodes_.size()) {
    return kNoRoute;
  }
  checkRouteOwner();
  if (cache_generation_ != generation_) {
    route_cache_.clear();
    cache_generation_ = generation_;
  }
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
      static_cast<std::uint32_t>(dst);
  if (auto it = route_cache_.find(key); it != route_cache_.end()) return it->second;
  const auto [it, inserted] = route_cache_.emplace(key, computeRoute(src, dst));
  (void)inserted;
  return it->second;
}

std::optional<Route> Topology::route(NodeId src, NodeId dst) const {
  return routeCached(src, dst);
}

void Topology::ensureHierarchy() const {
  if (hier_generation_ == generation_) return;
  hier_generation_ = generation_;

  hier_active_ = false;
  DomainId max_dom = 0;
  for (std::size_t i = 0; i < domain_of_.size(); ++i) {
    max_dom = std::max(max_dom, domain_of_[i]);
    if (domain_of_[i] != domain_of_[0]) hier_active_ = true;
  }
  if (!hier_active_) return;  // a single domain routes by flat Dijkstra
  ++hier_builds_;

  const auto ndom = static_cast<std::size_t>(max_dom) + 1;
  hier_members_.assign(ndom, {});
  hier_local_.assign(nodes_.size(), -1);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    auto& members = hier_members_[static_cast<std::size_t>(domain_of_[i])];
    hier_local_[i] = static_cast<std::int32_t>(members.size());
    members.push_back(static_cast<NodeId>(i));
  }

  // Border = endpoint of an *up* inter-domain link. A node whose only
  // cross-domain links are down is a plain member until a generation bump
  // brings one back, at which point the tables rebuild anyway.
  hier_border_of_.assign(nodes_.size(), -1);
  hier_borders_.clear();
  hier_domain_borders_.assign(ndom, {});
  const auto makeBorder = [&](NodeId n) {
    auto& idx = hier_border_of_[static_cast<std::size_t>(n)];
    if (idx >= 0) return;
    idx = static_cast<std::int32_t>(hier_borders_.size());
    const DomainId dom = domain_of_[static_cast<std::size_t>(n)];
    BorderTable t;
    t.border = n;
    t.domain = dom;
    hier_borders_.push_back(std::move(t));
    hier_domain_borders_[static_cast<std::size_t>(dom)].push_back(idx);
  };
  for (const Link& l : links_) {
    if (!l.up) continue;
    if (domain_of_[static_cast<std::size_t>(l.src)] !=
        domain_of_[static_cast<std::size_t>(l.dst)]) {
      makeBorder(l.src);
      makeBorder(l.dst);
    }
  }
  // Keep per-domain border order sorted by node id: the border-graph search
  // seeds and the terminal scan iterate these lists, and a fixed order
  // makes equal-cost tie-breaks deterministic.
  for (auto& list : hier_domain_borders_) {
    std::sort(list.begin(), list.end(), [&](std::int32_t a, std::int32_t b) {
      return hier_borders_[static_cast<std::size_t>(a)].border <
             hier_borders_[static_cast<std::size_t>(b)].border;
    });
  }

  // Intra-domain tables: one restricted Dijkstra per border per direction.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (BorderTable& t : hier_borders_) {
    const auto& members = hier_members_[static_cast<std::size_t>(t.domain)];
    t.to_dist.assign(members.size(), kInf);
    t.to_via.assign(members.size(), kInvalidLink);
    t.from_dist.assign(members.size(), kInf);
    t.from_via.assign(members.size(), kInvalidLink);
    dijkstra(t.border, kInvalidNode, t.domain, /*reverse=*/false);
    for (std::size_t m = 0; m < members.size(); ++m) {
      const auto n = static_cast<std::size_t>(members[m]);
      if (scratch_stamp_[n] == scratch_epoch_) {
        t.to_dist[m] = scratch_dist_[n];
        t.to_via[m] = scratch_via_[n];
      }
    }
    dijkstra(t.border, kInvalidNode, t.domain, /*reverse=*/true);
    for (std::size_t m = 0; m < members.size(); ++m) {
      const auto n = static_cast<std::size_t>(members[m]);
      if (scratch_stamp_[n] == scratch_epoch_) {
        t.from_dist[m] = scratch_dist_[n];
        t.from_via[m] = scratch_via_[n];
      }
    }
  }

  // Border graph: up inter-domain links (carrying their LinkId) plus
  // intra-domain transit edges derived from the forward tables.
  hier_border_adj_.assign(hier_borders_.size(), {});
  for (std::size_t lid = 0; lid < links_.size(); ++lid) {
    const Link& l = links_[lid];
    if (!l.up) continue;
    if (domain_of_[static_cast<std::size_t>(l.src)] ==
        domain_of_[static_cast<std::size_t>(l.dst)]) {
      continue;
    }
    const auto from = hier_border_of_[static_cast<std::size_t>(l.src)];
    const auto to = hier_border_of_[static_cast<std::size_t>(l.dst)];
    hier_border_adj_[static_cast<std::size_t>(from)].push_back(
        BorderEdge{to, l.latency, static_cast<LinkId>(lid)});
  }
  for (const auto& borders : hier_domain_borders_) {
    for (std::int32_t bi : borders) {
      const BorderTable& t = hier_borders_[static_cast<std::size_t>(bi)];
      for (std::int32_t bj : borders) {
        if (bj == bi) continue;
        const NodeId other = hier_borders_[static_cast<std::size_t>(bj)].border;
        const double w = t.to_dist[static_cast<std::size_t>(
            hier_local_[static_cast<std::size_t>(other)])];
        if (std::isfinite(w)) {
          hier_border_adj_[static_cast<std::size_t>(bi)].push_back(
              BorderEdge{bj, w, kInvalidLink});
        }
      }
    }
  }
}

void Topology::appendToPath(const BorderTable& t, NodeId target,
                            std::vector<LinkId>& out) const {
  // border -> target along the forward table; via = last link into each
  // node, so the walk runs backwards and the segment is reversed on append.
  hier_seg_.clear();
  for (NodeId cur = target; cur != t.border;) {
    const LinkId lid = t.to_via[static_cast<std::size_t>(
        hier_local_[static_cast<std::size_t>(cur)])];
    hier_seg_.push_back(lid);
    cur = links_[static_cast<std::size_t>(lid)].src;
  }
  out.insert(out.end(), hier_seg_.rbegin(), hier_seg_.rend());
}

void Topology::appendFromPath(NodeId from, const BorderTable& t,
                              std::vector<LinkId>& out) const {
  // from -> border along the reverse table; via = first link out of each
  // node, so the walk is already in forward order.
  for (NodeId cur = from; cur != t.border;) {
    const LinkId lid = t.from_via[static_cast<std::size_t>(
        hier_local_[static_cast<std::size_t>(cur)])];
    out.push_back(lid);
    cur = links_[static_cast<std::size_t>(lid)].dst;
  }
}

std::optional<Route> Topology::computeHierarchical(NodeId src, NodeId dst) const {
  if (src == dst) return Route{};
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const DomainId sd = domain_of_[static_cast<std::size_t>(src)];
  const DomainId dd = domain_of_[static_cast<std::size_t>(dst)];

  // Candidate A: the path stays inside one domain. Runs first so the node
  // scratch (needed for its reconstruction) survives the border search,
  // which only touches the border-graph scratch.
  double intra_dist = kInf;
  if (sd == dd) {
    dijkstra(src, dst, sd, /*reverse=*/false);
    const auto d = static_cast<std::size_t>(dst);
    if (scratch_stamp_[d] == scratch_epoch_ && scratch_via_[d] != kInvalidLink) {
      intra_dist = scratch_dist_[d];
    }
  }

  // Candidate B: src -> some border of sd -> border graph -> some border of
  // dd -> dst. Any path that leaves a domain decomposes into maximal
  // same-domain segments whose junctions are border nodes, so the minimum
  // over A and B equals the flat shortest distance.
  const auto B = hier_borders_.size();
  border_dist_.assign(B, kInf);
  border_prev_.assign(B, -1);
  border_prev_edge_.assign(B, -1);
  border_heap_.clear();
  const auto bpush = [&](double d, NodeId n) {
    border_heap_.emplace_back(d, n);
    std::push_heap(border_heap_.begin(), border_heap_.end(), std::greater<>{});
  };
  for (std::int32_t bi : hier_domain_borders_[static_cast<std::size_t>(sd)]) {
    const BorderTable& t = hier_borders_[static_cast<std::size_t>(bi)];
    const double d0 = t.from_dist[static_cast<std::size_t>(
        hier_local_[static_cast<std::size_t>(src)])];
    if (!std::isfinite(d0)) continue;
    border_dist_[static_cast<std::size_t>(bi)] = d0;
    bpush(d0, t.border);
  }
  while (!border_heap_.empty()) {
    std::pop_heap(border_heap_.begin(), border_heap_.end(), std::greater<>{});
    const auto [d, n] = border_heap_.back();
    border_heap_.pop_back();
    const auto bi = static_cast<std::size_t>(hier_border_of_[static_cast<std::size_t>(n)]);
    if (d > border_dist_[bi]) continue;
    const auto& edges = hier_border_adj_[bi];
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const BorderEdge& edge = edges[e];
      const auto to = static_cast<std::size_t>(edge.to);
      const double nd = d + edge.weight;
      if (nd < border_dist_[to]) {
        border_dist_[to] = nd;
        border_prev_[to] = static_cast<std::int32_t>(bi);
        border_prev_edge_[to] = static_cast<std::int32_t>(e);
        bpush(nd, hier_borders_[to].border);
      }
    }
  }
  double border_total = kInf;
  std::int32_t best_b = -1;
  for (std::int32_t bi : hier_domain_borders_[static_cast<std::size_t>(dd)]) {
    const auto i = static_cast<std::size_t>(bi);
    if (!std::isfinite(border_dist_[i])) continue;
    const BorderTable& t = hier_borders_[i];
    const double tail = t.to_dist[static_cast<std::size_t>(
        hier_local_[static_cast<std::size_t>(dst)])];
    if (!std::isfinite(tail)) continue;
    const double total = border_dist_[i] + tail;
    if (total < border_total) {
      border_total = total;
      best_b = bi;
    }
  }

  if (std::isfinite(intra_dist) && intra_dist <= border_total) {
    return reconstructFromScratch(src, dst);
  }
  if (best_b < 0) return std::nullopt;

  Route r;
  r.links.reserve(path_watermark_);
  hier_chain_.clear();
  for (std::int32_t b = best_b; b >= 0; b = border_prev_[static_cast<std::size_t>(b)]) {
    hier_chain_.push_back(b);
  }
  std::reverse(hier_chain_.begin(), hier_chain_.end());
  appendFromPath(src, hier_borders_[static_cast<std::size_t>(hier_chain_.front())],
                 r.links);
  for (std::size_t i = 1; i < hier_chain_.size(); ++i) {
    const auto prev = static_cast<std::size_t>(hier_chain_[i - 1]);
    const auto cur = static_cast<std::size_t>(hier_chain_[i]);
    const BorderEdge& edge =
        hier_border_adj_[prev][static_cast<std::size_t>(border_prev_edge_[cur])];
    if (edge.link != kInvalidLink) {
      r.links.push_back(edge.link);
    } else {
      appendToPath(hier_borders_[prev], hier_borders_[cur].border, r.links);
    }
  }
  appendToPath(hier_borders_[static_cast<std::size_t>(best_b)], dst, r.links);
  finalizeRoute(r);
  return r;
}

}  // namespace composim::fabric
