// Unit tests for the shared SCC routine (graph/scc.hpp) that the analyzer,
// the performance pass and the event kernel's levelization all run:
//   * component ids come out in reverse topological order, and the
//     components match mutual reachability on seeded random graphs;
//   * one vertex is a nontrivial component exactly when it has a
//     self-arc;
//   * a 100k-vertex path and a 100k-vertex ring complete (no recursion).
#include <gtest/gtest.h>

#include <cstddef>
#include <random>
#include <vector>

#include "graph/scc.hpp"

namespace mte::graph {
namespace {

using Adj = std::vector<std::vector<std::size_t>>;

Adj random_graph(std::mt19937_64& rng, std::size_t n, std::size_t arcs) {
  Adj adj(n);
  for (std::size_t i = 0; i < arcs; ++i) adj[rng() % n].push_back(rng() % n);
  return adj;
}

/// reach[u][v]: v is reachable from u (every vertex reaches itself).
std::vector<std::vector<bool>> reachability(const Adj& adj) {
  const std::size_t n = adj.size();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<std::size_t> stack{s};
    reach[s][s] = true;
    while (!stack.empty()) {
      const std::size_t u = stack.back();
      stack.pop_back();
      for (const std::size_t w : adj[u]) {
        if (!reach[s][w]) {
          reach[s][w] = true;
          stack.push_back(w);
        }
      }
    }
  }
  return reach;
}

TEST(Scc, IdsAreReverseTopologicalAndMatchMutualReachability) {
  std::mt19937_64 rng(20260730);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng() % 40;
    const Adj adj = random_graph(rng, n, rng() % (2 * n + 1));
    const Sccs sccs = strong_components(adj);
    const auto reach = reachability(adj);
    ASSERT_EQ(sccs.comp.size(), n);
    for (std::size_t u = 0; u < n; ++u) {
      ASSERT_LT(sccs.comp[u], sccs.count);
      for (std::size_t v = 0; v < n; ++v) {
        EXPECT_EQ(sccs.comp[u] == sccs.comp[v], reach[u][v] && reach[v][u])
            << "trial " << trial << ": vertices " << u << ", " << v;
      }
      for (const std::size_t w : adj[u]) {
        // An arc between two components runs from a higher id to a lower.
        if (sccs.comp[u] != sccs.comp[w]) {
          EXPECT_GT(sccs.comp[u], sccs.comp[w]) << "trial " << trial;
        }
      }
    }
  }
}

TEST(Scc, SingleVertexIsNontrivialExactlyWithASelfArc) {
  EXPECT_TRUE(nontrivial_components(Adj{{}}).empty());
  EXPECT_EQ(nontrivial_components(Adj{{0}}), (std::vector<std::vector<std::size_t>>{{0}}));
  // 0 -> 1 -> 2 (self-arc), 2 -> 3 <-> 4: the self-arc vertex and the
  // 2-cycle, listed in id order (the downstream cycle completes first).
  const Adj adj{{1}, {2}, {2, 3}, {4}, {3}};
  EXPECT_EQ(nontrivial_components(adj),
            (std::vector<std::vector<std::size_t>>{{3, 4}, {2}}));
}

TEST(Scc, ArcTargetsComeFromTheProjection) {
  struct Arc {
    std::size_t to;
    int weight;
  };
  const std::vector<std::vector<Arc>> adj{{{1, 5}}, {{0, 7}}, {{2, 1}}};
  const auto head = [](const Arc& a) { return a.to; };
  const Sccs sccs = strong_components(adj, head);
  EXPECT_EQ(sccs.count, 2U);
  EXPECT_EQ(sccs.comp[0], sccs.comp[1]);
  EXPECT_EQ(nontrivial_components(adj, head),
            (std::vector<std::vector<std::size_t>>{{0, 1}, {2}}));
}

TEST(Scc, HundredThousandVertexPathAndRingComplete) {
  constexpr std::size_t kN = 100000;
  Adj path(kN);
  for (std::size_t v = 0; v + 1 < kN; ++v) path[v].push_back(v + 1);
  const Sccs line = strong_components(path);
  ASSERT_EQ(line.count, kN);
  // The depth-first search from vertex 0 completes the far end first.
  for (std::size_t v = 0; v < kN; ++v) ASSERT_EQ(line.comp[v], kN - 1 - v);
  EXPECT_TRUE(nontrivial_components(path).empty());

  Adj ring = path;
  ring[kN - 1].push_back(0);
  EXPECT_EQ(strong_components(ring).count, 1U);
  const auto cycles = nontrivial_components(ring);
  ASSERT_EQ(cycles.size(), 1U);
  EXPECT_EQ(cycles.front().size(), kN);
}

}  // namespace
}  // namespace mte::graph
