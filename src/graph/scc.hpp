// Strongly connected components: the one SCC routine of the library. The
// static analyzer's cycle checks (MTE020/022/030), the performance pass's
// Karp cross-check and the event kernel's levelization all run it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

namespace mte::graph {

/// comp[v] is vertex v's component id. Ids are numbered in completion
/// order, and Tarjan completes a component only after every component
/// reachable from it, so the order is reverse topological: an arc u -> w
/// between two components has comp[u] > comp[w].
struct Sccs {
  std::vector<std::size_t> comp;
  std::size_t count = 0;
};

/// Iterative Tarjan over `adj`: adj[v] lists v's arcs, target(arc) is an
/// arc's head (the identity for successor lists). Roots and arcs are
/// visited in index order; an explicit frame stack replaces recursion.
template <typename Adj, typename Target = std::identity>
[[nodiscard]] Sccs strong_components(const Adj& adj, Target target = {}) {
  const std::size_t n = adj.size();
  constexpr std::size_t kUnvisited = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> index(n, kUnvisited);
  std::vector<std::size_t> lowlink(n, 0);
  std::vector<char> on_stack(n, 0);
  std::vector<std::size_t> stack;
  std::vector<std::pair<std::size_t, std::size_t>> frames;  // (vertex, next arc)
  Sccs out;
  out.comp.assign(n, 0);
  std::size_t next_index = 0;
  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    frames.emplace_back(root, 0);
    while (!frames.empty()) {
      const std::size_t v = frames.back().first;
      if (frames.back().second == 0) {
        index[v] = lowlink[v] = next_index++;
        stack.push_back(v);
        on_stack[v] = 1;
      }
      if (frames.back().second < adj[v].size()) {
        const std::size_t w =
            static_cast<std::size_t>(target(adj[v][frames.back().second++]));
        if (index[w] == kUnvisited) {
          frames.emplace_back(w, 0);
        } else if (on_stack[w] != 0) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
        continue;
      }
      if (lowlink[v] == index[v]) {
        while (true) {
          const std::size_t w = stack.back();
          stack.pop_back();
          on_stack[w] = 0;
          out.comp[w] = out.count;
          if (w == v) break;
        }
        ++out.count;
      }
      frames.pop_back();
      if (!frames.empty()) {
        std::size_t& parent = lowlink[frames.back().first];
        parent = std::min(parent, lowlink[v]);
      }
    }
  }
  return out;
}

/// The nontrivial strong components of `adj` (two or more vertices, or
/// one vertex with a self-arc): the cycles of the graph. Listed in
/// strong_components() id order, each with its vertices in increasing
/// order.
template <typename Adj, typename Target = std::identity>
[[nodiscard]] std::vector<std::vector<std::size_t>> nontrivial_components(
    const Adj& adj, Target target = {}) {
  const Sccs sccs = strong_components(adj, target);
  std::vector<std::vector<std::size_t>> members(sccs.count);
  for (std::size_t v = 0; v < adj.size(); ++v) members[sccs.comp[v]].push_back(v);
  std::vector<std::vector<std::size_t>> out;
  for (auto& m : members) {
    const auto self_arc = [&](const auto& a) { return std::size_t{target(a)} == m[0]; };
    if (m.size() >= 2 || std::any_of(adj[m[0]].begin(), adj[m[0]].end(), self_arc)) {
      out.push_back(std::move(m));
    }
  }
  return out;
}

}  // namespace mte::graph
