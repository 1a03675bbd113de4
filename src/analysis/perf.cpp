#include "analysis/perf.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <queue>
#include <set>

#include "graph/scc.hpp"
#include "netlist/node_semantics.hpp"

namespace mte::analysis {
namespace {

using netlist::Netlist;
using netlist::NodeType;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
constexpr double kEps = 1e-9;

// ---------------------------------------------------------------------------
// Marked-graph construction
// ---------------------------------------------------------------------------

/// One acceptance-event vertex. Var-latency units own a head (issue)
/// vertex plus latency_lo - 1 internal delay vertices that all report
/// the unit's name in cycle loci.
struct Vertex {
  std::size_t node = kNone;
  bool dummy = false;
};

struct GraphModel {
  MarkedGraph graph;
  std::vector<Vertex> verts;
  std::vector<std::size_t> head;  ///< node id -> acceptance vertex (or kNone)
  std::vector<std::size_t> tail;  ///< node id -> last delay vertex (== head
                                  ///< except var-latency)
};

GraphModel build_model(const Netlist& net, const netlist::Adjacency& adj,
                       const PerfOptions& opt) {
  GraphModel m;
  const auto& nodes = net.nodes();
  const auto& edges = net.edges();
  m.head.assign(nodes.size(), kNone);
  m.tail.assign(nodes.size(), kNone);

  const auto add_vertex = [&m](std::size_t node, bool dummy) {
    m.verts.push_back(Vertex{node, dummy});
    m.graph.adj.emplace_back();
    return m.verts.size() - 1;
  };
  const auto arc = [&m](std::size_t from, std::size_t to, std::size_t tokens) {
    m.graph.adj[from].push_back(PerfArc{to, tokens});
  };

  for (const auto& n : nodes) {
    const netlist::NodeSemantics& row = netlist::semantics(n.type);
    if (!row.accepts && !row.offers) continue;
    const std::size_t h = add_vertex(n.id, false);
    m.head[n.id] = h;
    std::size_t t = h;
    for (std::size_t i = 1; i < row.fill_latency(n); ++i) {
      const std::size_t d = add_vertex(n.id, true);
      arc(t, d, 0);
      t = d;
    }
    m.tail[n.id] = t;
  }

  const std::size_t s = net.is_multithreaded() ? net.threads() : 1;
  for (const auto& u : nodes) {
    const netlist::NodeSemantics& row = netlist::semantics(u.type);
    if (!row.offers) continue;

    // Combinational closure: every storage/sink acceptance fed from u's
    // output without crossing an alignment-breaking node.
    std::set<std::size_t> consumers;
    std::set<std::size_t> visited;
    std::vector<std::size_t> stack;
    for (const std::size_t e : adj.out[u.id]) stack.push_back(edges[e].to);
    while (!stack.empty()) {
      const std::size_t v = stack.back();
      stack.pop_back();
      if (!visited.insert(v).second) continue;
      const netlist::NodeSemantics& rv = netlist::semantics(nodes[v].type);
      if (rv.accepts) {
        consumers.insert(v);
        continue;
      }
      if (rv.breaks_alignment || rv.offers) continue;
      for (const std::size_t e : adj.out[v]) stack.push_back(edges[e].to);
    }

    const std::size_t cap = row.capacity(net, opt.meb_shared_slots);
    for (const std::size_t c : consumers) {
      // Forward: c's n-th acceptance trails u's n-th offer by >= 1 cycle.
      // A path looping back to u itself re-enters as acceptance n+1.
      arc(m.tail[u.id], m.head[c], c == u.id ? 1 : 0);
      // Backward slot release (sources hold no tokens).
      if (row.storage()) arc(m.head[c], m.head[u.id], cap);
    }
    // Cross-consumer coupling: >= 2 consumers of one output only arise
    // through forks, whose eager control holds the head token until all
    // arms consumed it. Aggregate index shift is 1 per thread stream.
    if (consumers.size() >= 2) {
      for (const std::size_t ci : consumers) {
        for (const std::size_t cj : consumers) {
          if (ci != cj) arc(m.head[cj], m.head[ci], s);
        }
      }
    }
  }

  // A channel moves at most one token per cycle.
  for (std::size_t v = 0; v < m.verts.size(); ++v) arc(v, v, 1);
  return m;
}

// ---------------------------------------------------------------------------
// Weak components (constraint coupling groups)
// ---------------------------------------------------------------------------

std::vector<std::size_t> weak_components(const MarkedGraph& g) {
  std::vector<std::size_t> parent(g.adj.size());
  for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  std::vector<std::size_t> path;
  const auto find = [&parent, &path](std::size_t x) {
    path.clear();
    while (parent[x] != x) {
      path.push_back(x);
      x = parent[x];
    }
    for (const std::size_t p : path) parent[p] = x;
    return x;
  };
  for (std::size_t u = 0; u < g.adj.size(); ++u) {
    for (const auto& a : g.adj[u]) {
      const std::size_t ru = find(u);
      const std::size_t rv = find(a.to);
      if (ru != rv) parent[std::max(ru, rv)] = std::min(ru, rv);
    }
  }
  std::vector<std::size_t> comp(g.adj.size());
  for (std::size_t u = 0; u < g.adj.size(); ++u) comp[u] = find(u);
  return comp;
}

// ---------------------------------------------------------------------------
// Fill latency: earliest first-arrival cycle per node
// ---------------------------------------------------------------------------

/// dist[v] = minimum cycle at which a token can first be offered on v's
/// output: sources offer at 0, each storage element adds a cycle, a
/// var-latency unit adds latency_lo, combinational nodes add nothing.
/// Joins take the min over inputs (a lower bound — sound for an upper
/// throughput bound) so plain Dijkstra applies.
std::vector<std::size_t> fill_latency(const Netlist& net, const netlist::Adjacency& adj) {
  const auto& nodes = net.nodes();
  std::vector<std::size_t> dist(nodes.size(), kNone);
  using Item = std::pair<std::size_t, std::size_t>;  // (dist, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  for (const auto& n : nodes) {
    if (n.type == NodeType::kSource) {
      dist[n.id] = 0;
      pq.push({0, n.id});
    }
  }
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d != dist[u]) continue;
    for (const std::size_t e : adj.out[u]) {
      const std::size_t v = net.edges()[e].to;
      const std::size_t nd = d + netlist::semantics(nodes[v].type).fill_latency(nodes[v]);
      if (dist[v] == kNone || nd < dist[v]) {
        dist[v] = nd;
        pq.push({nd, v});
      }
    }
  }
  return dist;
}

// ---------------------------------------------------------------------------
// Policy walks
// ---------------------------------------------------------------------------

/// Walks the converged policy from `start` until it closes a cycle;
/// returns the cycle's vertices plus its (tokens, hops) weight.
struct WalkedCycle {
  std::vector<std::size_t> verts;
  std::size_t tokens = 0;
  std::size_t hops = 0;
};

/// `seen` is caller-owned scratch of one entry per vertex, all zero on
/// entry and on return: the walk clears the marks it set by re-walking
/// the same path, so it costs the path's length, not the graph's size.
WalkedCycle walk_cycle(const MarkedGraph& g, const std::vector<std::size_t>& policy,
                       std::size_t start, std::vector<char>& seen) {
  const auto succ = [&](std::size_t v) {
    return policy[v] == kNone ? kNone : g.adj[v][policy[v]].to;
  };
  WalkedCycle out;
  std::size_t u = start;
  while (u != kNone && !seen[u]) {
    seen[u] = 1;
    u = succ(u);
  }
  if (u != kNone) {
    std::size_t x = u;
    do {
      out.verts.push_back(x);
      out.tokens += g.adj[x][policy[x]].tokens;
      ++out.hops;
      x = succ(x);
    } while (x != u);
  }
  for (std::size_t v = start; v != kNone && seen[v]; v = succ(v)) seen[v] = 0;
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Howard's policy iteration (minimum cycle mean, unit delays)
// ---------------------------------------------------------------------------

CycleMeanResult howard_min_cycle_mean(const MarkedGraph& g) {
  const std::size_t n = g.adj.size();
  CycleMeanResult r;
  r.ratio = kInf;
  r.vertex_ratio.assign(n, kInf);
  if (n == 0) {
    r.converged = true;
    return r;
  }

  std::vector<std::size_t> policy(n, kNone);
  for (std::size_t v = 0; v < n; ++v) {
    if (!g.adj[v].empty()) policy[v] = 0;
  }
  std::vector<double> eta(n, kInf);
  std::vector<double> val(n, 0.0);
  const auto succ = [&](std::size_t v) {
    return policy[v] == kNone ? kNone : g.adj[v][policy[v]].to;
  };
  const auto wgt = [&](std::size_t v) {
    return static_cast<double>(g.adj[v][policy[v]].tokens);
  };

  std::vector<int> state(n);  // 0 new, 1 on current path, 2 settled
  std::vector<std::size_t> path;
  const std::size_t max_iter = 100 + 10 * n;
  bool changed = true;
  while (changed && r.iterations < max_iter) {
    ++r.iterations;

    // --- evaluate the current policy (a functional graph) ----------------
    std::fill(eta.begin(), eta.end(), kInf);
    std::fill(val.begin(), val.end(), 0.0);
    std::fill(state.begin(), state.end(), 0);
    for (std::size_t s = 0; s < n; ++s) {
      if (state[s] != 0) continue;
      path.clear();
      std::size_t u = s;
      while (u != kNone && state[u] == 0) {
        state[u] = 1;
        path.push_back(u);
        u = succ(u);
      }
      if (u != kNone && state[u] == 1) {
        // New cycle discovered along this path.
        std::size_t pos = 0;
        while (path[pos] != u) ++pos;
        double tokens = 0.0;
        for (std::size_t i = pos; i < path.size(); ++i) tokens += wgt(path[i]);
        const double mean = tokens / static_cast<double>(path.size() - pos);
        val[u] = 0.0;
        eta[u] = mean;
        for (std::size_t i = path.size(); i-- > pos + 1;) {
          const std::size_t x = path[i];
          const std::size_t nx = i + 1 < path.size() ? path[i + 1] : u;
          eta[x] = mean;
          val[x] = wgt(x) - mean + val[nx];
        }
      }
      // Settle the remaining prefix against its (now settled) successor.
      for (std::size_t i = path.size(); i-- > 0;) {
        const std::size_t x = path[i];
        if (state[x] == 2) continue;
        const std::size_t nx = succ(x);
        if (eta[x] == kInf) {  // not part of the cycle just found
          if (nx != kNone && eta[nx] != kInf) {
            eta[x] = eta[nx];
            val[x] = wgt(x) - eta[nx] + val[nx];
          }
        }
        state[x] = 2;
      }
    }

    // --- improve: per vertex, the index-first argmin of (eta, bias) ------
    changed = false;
    for (std::size_t u = 0; u < n; ++u) {
      if (policy[u] == kNone) continue;
      std::size_t best = policy[u];
      std::size_t bx = g.adj[u][best].to;
      double be = eta[bx];
      double bv = be == kInf ? kInf
                             : static_cast<double>(g.adj[u][best].tokens) + val[bx];
      for (std::size_t a = 0; a < g.adj[u].size(); ++a) {
        const std::size_t x = g.adj[u][a].to;
        if (eta[x] == kInf) continue;
        const double cv = static_cast<double>(g.adj[u][a].tokens) + val[x];
        if (eta[x] < be - kEps || (eta[x] < be + kEps && cv < bv - kEps)) {
          best = a;
          bx = x;
          be = eta[x];
          bv = cv;
        }
      }
      if (best != policy[u]) {
        policy[u] = best;
        changed = true;
      }
    }
  }
  r.converged = !changed;
  r.vertex_ratio = eta;
  r.policy = policy;

  // Global minimum + one critical cycle, walked off the final policy.
  std::size_t argmin = kNone;
  for (std::size_t v = 0; v < n; ++v) {
    if (eta[v] < r.ratio - kEps) {
      r.ratio = eta[v];
      argmin = v;
    }
  }
  if (argmin != kNone) {
    std::vector<char> seen(n, 0);
    WalkedCycle wc = walk_cycle(g, policy, argmin, seen);
    r.cycle = std::move(wc.verts);
    r.cycle_tokens = wc.tokens;
    r.cycle_hops = wc.hops;
  }
  return r;
}

namespace {

/// Token-weighted shortest distances FROM a set of constraint vertices
/// (Dijkstra over the arcs, weight = initial tokens): dist[t] is the
/// fewest initial tokens on a directed path from any source to t, the
/// transient slack a downstream measurement at t can collect from that
/// constraint; kNone where no directed path exists. Arcs never leave a
/// weak component, so one search from the union of every component's
/// sources answers each component on its own. `visits` counts the
/// distance entries written.
std::vector<std::size_t> slack_from(const MarkedGraph& g,
                                    const std::vector<std::size_t>& sources,
                                    std::size_t& visits) {
  std::vector<std::size_t> dist(g.adj.size(), kNone);
  using Item = std::pair<std::size_t, std::size_t>;  // (dist, vertex)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  const auto write = [&](std::size_t v, std::size_t d) {
    dist[v] = d;
    ++visits;
    heap.push({d, v});
  };
  for (const std::size_t v : sources) {
    if (dist[v] != 0) write(v, 0);
  }
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[v]) continue;
    for (const auto& a : g.adj[v]) {
      const std::size_t nd = d + a.tokens;
      if (nd < dist[a.to]) write(a.to, nd);
    }
  }
  return dist;
}

}  // namespace

// ---------------------------------------------------------------------------
// Karp's algorithm (cross-check)
// ---------------------------------------------------------------------------

double karp_min_cycle_mean(const MarkedGraph& g) {
  double best = kInf;
  std::vector<std::size_t> local(g.adj.size(), kNone);
  for (const auto& scc :
       graph::nontrivial_components(g.adj, [](const PerfArc& a) { return a.to; })) {
    const std::size_t nc = scc.size();
    for (std::size_t i = 0; i < nc; ++i) local[scc[i]] = i;
    // arcs[v] = incoming (from, weight) pairs within the SCC.
    std::vector<std::vector<std::pair<std::size_t, double>>> in(nc);
    for (const std::size_t u : scc) {
      for (const auto& a : g.adj[u]) {
        if (local[a.to] != kNone) {
          in[local[a.to]].push_back({local[u], static_cast<double>(a.tokens)});
        }
      }
    }
    for (const std::size_t u : scc) local[u] = kNone;
    // D_k[v]: min weight of a k-arc walk from scc[0]. Two passes over
    // rolling rows keep memory O(nc): the first computes D_nc, the second
    // recomputes each D_k (k < nc) and folds Karp's max over k.
    std::vector<double> row(nc), next(nc);
    const auto restart = [&] {
      std::fill(row.begin(), row.end(), kInf);
      row[0] = 0.0;
    };
    const auto advance = [&] {
      for (std::size_t v = 0; v < nc; ++v) {
        next[v] = kInf;
        for (const auto& [u, w] : in[v]) {
          if (row[u] != kInf) next[v] = std::min(next[v], row[u] + w);
        }
      }
      row.swap(next);
    };
    restart();
    for (std::size_t k = 1; k <= nc; ++k) advance();
    const std::vector<double> last = row;
    std::vector<double> worst(nc, -kInf);
    restart();
    for (std::size_t k = 0; k < nc; ++k) {
      for (std::size_t v = 0; v < nc; ++v) {
        if (last[v] == kInf || row[v] == kInf) continue;
        worst[v] = std::max(worst[v], (last[v] - row[v]) / static_cast<double>(nc - k));
      }
      advance();
    }
    for (std::size_t v = 0; v < nc; ++v) {
      if (worst[v] != -kInf) best = std::min(best, worst[v]);
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// Finite-horizon bound
// ---------------------------------------------------------------------------

double windowed_bound(const PerfSinkBound& sink, std::size_t cycles) {
  if (!sink.reachable || cycles == 0 || sink.fill_latency >= cycles) return 0.0;
  const std::size_t w = cycles - sink.fill_latency;
  double count = static_cast<double>(w);
  for (const auto& cand : sink.candidates) {
    if (cand.hops == 0) continue;
    // A through-sink cycle (slack 0) constrains the fill-adjusted window;
    // a remote cycle constrains the whole run plus its in-flight slack.
    const std::size_t win = cand.slack == 0 ? w : cycles;
    const double c = static_cast<double>(((win - 1) / cand.hops + 1) * cand.tokens +
                                         cand.slack);
    count = std::min(count, c);
  }
  return count / static_cast<double>(cycles);
}

// ---------------------------------------------------------------------------
// The full pass
// ---------------------------------------------------------------------------

PerfReport analyze_perf(const Netlist& net, const PerfOptions& options) {
  PerfReport rep;
  const auto& nodes = net.nodes();

  // Defensive: dangling edge references make the graph walk unsafe; the
  // MTE005 wiring check owns that report, we just bail to bound 1.
  for (const auto& e : net.edges()) {
    if (e.from >= nodes.size() || e.to >= nodes.size() ||
        e.from_port >= nodes[e.from].outputs || e.to_port >= nodes[e.to].inputs) {
      return rep;
    }
  }

  const netlist::Adjacency adj = netlist::adjacency(net);
  const GraphModel model = build_model(net, adj, options);
  const CycleMeanResult howard = howard_min_cycle_mean(model.graph);
  const double karp = karp_min_cycle_mean(model.graph);
  rep.converged = howard.converged;
  rep.iterations = howard.iterations;
  rep.karp_agrees =
      (howard.ratio == kInf && karp == kInf) || std::abs(howard.ratio - karp) <= kEps;

  const std::vector<std::size_t> comp = weak_components(model.graph);
  const std::vector<std::size_t> fill = fill_latency(net, adj);

  // Aggregate MEB service cap: the hybrid MEB caps each thread's
  // sustained rate at (1+K)/2, so S threads together move at most
  // S*(1+K)/2 tokens per cycle through any MEB station.
  const std::size_t s = net.is_multithreaded() ? net.threads() : 1;
  std::optional<std::pair<std::size_t, std::size_t>> service_cap;  // (T, H)
  if (net.is_multithreaded() && options.meb_shared_slots) {
    const std::size_t k = *options.meb_shared_slots;
    if (s * (1 + k) < 2) service_cap = {s * (1 + k), 2};
  }

  // Per-component structural minimum and its representative vertex.
  std::map<std::size_t, std::pair<double, std::size_t>> comp_min;
  for (std::size_t v = 0; v < model.verts.size(); ++v) {
    const double e = howard.vertex_ratio[v];
    auto [it, inserted] = comp_min.emplace(comp[v], std::make_pair(e, v));
    if (!inserted && e < it->second.first - kEps) it->second = {e, v};
  }

  // Turns a walked critical cycle into the user-facing locus list.
  const auto describe_cycle = [&](const WalkedCycle& wc, double ratio) {
    PerfCycle c;
    c.ratio = ratio;
    c.tokens = wc.tokens;
    c.hops = wc.hops;
    for (const std::size_t v : wc.verts) {
      const std::string& name = nodes[model.verts[v].node].name;
      if (c.loci.empty() || c.loci.back() != name) c.loci.push_back(name);
    }
    if (c.loci.size() > 1 && c.loci.front() == c.loci.back()) c.loci.pop_back();
    c.fix_slots = c.hops > c.tokens ? c.hops - c.tokens : 0;
    c.cost = 1.0 - ratio;
    return c;
  };

  // The remote constraints a sink can collect slack from: its weak
  // component's critical cycle when the component's ratio is below 1
  // (walked once per component from its argmin vertex, not the global
  // one — they differ in multi-sink nets), and its MEB stations, where
  // the hybrid service cap binds. Each kind costs one search in all,
  // however many sinks share a component.
  std::map<std::size_t, WalkedCycle> comp_cycle;
  std::vector<std::size_t> cycle_verts;
  std::vector<std::size_t> meb_verts;
  std::vector<char> has_meb(model.verts.size(), 0);  // by component
  std::vector<char> seen(model.verts.size(), 0);
  for (const auto& n : nodes) {
    const std::size_t v = model.head[n.id];
    if (n.type == NodeType::kBuffer && v != kNone) {
      meb_verts.push_back(v);
      has_meb[comp[v]] = 1;
    }
    if (n.type != NodeType::kSink) continue;
    const auto cm = comp_min.find(comp[v]);
    if (cm == comp_min.end() || !(cm->second.first < 1.0 - kEps) ||
        comp_cycle.count(cm->first) > 0) {
      continue;
    }
    WalkedCycle wc = walk_cycle(model.graph, howard.policy, cm->second.second, seen);
    cycle_verts.insert(cycle_verts.end(), wc.verts.begin(), wc.verts.end());
    comp_cycle.emplace(cm->first, std::move(wc));
  }
  const std::vector<std::size_t> cycle_slack =
      slack_from(model.graph, cycle_verts, rep.slack_visits);
  const std::vector<std::size_t> meb_slack =
      service_cap ? slack_from(model.graph, meb_verts, rep.slack_visits)
                  : std::vector<std::size_t>{};

  double worst_structural = 1.0;
  const WalkedCycle* worst_cycle = nullptr;
  for (const auto& n : nodes) {
    if (n.type != NodeType::kSink) continue;
    PerfSinkBound sb;
    sb.sink = n.name;
    if (!adj.in[n.id].empty()) {  // the channel feeding it, as elaboration names it
      const netlist::Edge& e = net.edges()[adj.in[n.id].back()];
      sb.channel = nodes[e.from].name + ":" + std::to_string(e.from_port);
    }
    sb.reachable = fill[n.id] != kNone;
    sb.fill_latency = sb.reachable ? fill[n.id] : 0;
    sb.candidates.push_back({1, 1, 0});

    const std::size_t sink_vertex = model.head[n.id];
    const std::size_t c = comp[sink_vertex];
    const auto cm = comp_min.find(c);
    double structural = 1.0;
    if (cm != comp_min.end() && cm->second.first != kInf) {
      structural = std::min(1.0, cm->second.first);
    }
    sb.structural_ratio = structural;
    double theta = structural;
    if (structural < 1.0 - kEps) {
      const WalkedCycle& wc = comp_cycle.at(c);
      // A cycle with no directed path to the sink imposes no count
      // recurrence on it (theta still records the steady-state cap).
      const std::size_t slack = cycle_slack[sink_vertex];
      if (slack != kNone) sb.candidates.push_back({wc.tokens, wc.hops, slack});
      if (structural < worst_structural - kEps) {
        worst_structural = structural;
        worst_cycle = &wc;
      }
    }
    if (service_cap && has_meb[c]) {
      // The cap binds at each MEB station; the sink additionally collects
      // the slack buffered past the nearest constraining MEB.
      const std::size_t slack = meb_slack[sink_vertex];
      if (slack != kNone) {
        sb.candidates.push_back({service_cap->first, service_cap->second, slack});
      }
      theta = std::min(theta, static_cast<double>(service_cap->first) /
                                  static_cast<double>(service_cap->second));
    }
    sb.theta = theta;
    rep.sinks.push_back(std::move(sb));
  }
  std::sort(rep.sinks.begin(), rep.sinks.end(),
            [](const PerfSinkBound& a, const PerfSinkBound& b) {
              return a.sink < b.sink;
            });
  rep.aggregate_bound = 1.0;
  for (const auto& sb : rep.sinks) {
    rep.aggregate_bound = std::min(rep.aggregate_bound, sb.theta);
  }
  if (worst_cycle && !worst_cycle->verts.empty()) {
    rep.bottleneck = describe_cycle(*worst_cycle, worst_structural);
  }

  if (net.is_multithreaded() && s > 0) {
    double per_thread = 1.0;
    if (options.meb_shared_slots) {
      per_thread = std::min(
          per_thread, (1.0 + static_cast<double>(*options.meb_shared_slots)) / 2.0);
    }
    if (options.arbiter == mt::ArbiterKind::kOblivious) {
      per_thread = std::min(per_thread, 1.0 / static_cast<double>(s));
    }
    per_thread = std::min(per_thread, rep.aggregate_bound);
    rep.per_thread_bounds.assign(s, per_thread);
  }

  for (const auto& n : nodes) {
    if (n.rate >= 1.0 || n.rate <= 0.0) continue;
    if (n.type == NodeType::kSource || n.type == NodeType::kSink) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%g", n.rate);
      rep.rate_notes.push_back(
          std::string(n.type == NodeType::kSource ? "source '" : "sink '") + n.name +
          "' rate " + buf +
          " caps expected load (Bernoulli gate; not a hard bound)");
    }
  }
  return rep;
}

}  // namespace mte::analysis
