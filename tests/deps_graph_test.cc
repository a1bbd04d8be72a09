// Tests for the dependency-structure analyzer: SCCs, layers, and the runtime
// call tracker as ManagerScope frames feed it, barrier frames included.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/sim/scope.h"

namespace mks {
namespace {

TEST(DependencyGraph, EmptyGraphIsLoopFree) {
  DependencyGraph g;
  EXPECT_TRUE(g.IsLoopFree());
  EXPECT_TRUE(g.Loops().empty());
}

TEST(DependencyGraph, ChainIsLoopFreeWithLayers) {
  DependencyGraph g;
  g.AddEdge("c", "b", DepKind::kComponent);
  g.AddEdge("b", "a", DepKind::kComponent);
  ASSERT_TRUE(g.IsLoopFree());
  auto layers = g.Layers();
  EXPECT_EQ(layers[g.FindModule("a")], 0);
  EXPECT_EQ(layers[g.FindModule("b")], 1);
  EXPECT_EQ(layers[g.FindModule("c")], 2);
  auto order = g.VerificationOrder();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(g.name(order[0]), "a");
  EXPECT_EQ(g.name(order[2]), "c");
}

TEST(DependencyGraph, DetectsTwoNodeLoop) {
  DependencyGraph g;
  g.AddEdge("page", "process", DepKind::kInterpreter);
  g.AddEdge("process", "page", DepKind::kComponent);
  auto loops = g.Loops();
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].size(), 2u);
  EXPECT_TRUE(g.Layers().empty());
  EXPECT_TRUE(g.VerificationOrder().empty());
}

TEST(DependencyGraph, SelfEdgeIsALoop) {
  DependencyGraph g;
  g.AddEdge("m", "m", DepKind::kMap);
  EXPECT_FALSE(g.IsLoopFree());
}

TEST(DependencyGraph, MultipleKindsBetweenSameModules) {
  DependencyGraph g;
  g.AddEdge("a", "b", DepKind::kComponent);
  g.AddEdge("a", "b", DepKind::kMap);
  g.AddEdge("a", "b", DepKind::kProgram);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_TRUE(g.IsLoopFree());
}

TEST(DependencyGraph, DotAndTextRendering) {
  DependencyGraph g;
  g.AddEdge("segment_manager", "page_frame_manager", DepKind::kComponent);
  const std::string dot = g.ToDot("fig");
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("component"), std::string::npos);
  const std::string text = g.ToText();
  EXPECT_NE(text.find("segment_manager --component--> page_frame_manager"), std::string::npos);
}

// Property test: random DAGs (edges only from higher to lower index) are
// always loop-free and the layer assignment respects every edge; adding one
// back edge creates a loop.
class RandomDagTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomDagTest, LayersRespectEdgesAndBackEdgeCreatesLoop) {
  Rng rng(GetParam());
  DependencyGraph g;
  constexpr int kNodes = 24;
  for (int i = 0; i < kNodes; ++i) {
    g.AddModule(std::string("m").append(std::to_string(i)));
  }
  struct Edge {
    int from, to;
  };
  std::vector<Edge> edges;
  for (int from = 1; from < kNodes; ++from) {
    const int fanout = static_cast<int>(rng.NextBelow(4));
    for (int k = 0; k < fanout; ++k) {
      const int to = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(from)));
      g.AddEdge(ModuleId(static_cast<uint16_t>(from)), ModuleId(static_cast<uint16_t>(to)),
                DepKind::kComponent);
      edges.push_back({from, to});
    }
  }
  ASSERT_TRUE(g.IsLoopFree());
  auto layers = g.Layers();
  for (const Edge& e : edges) {
    EXPECT_GT(layers[ModuleId(static_cast<uint16_t>(e.from))],
              layers[ModuleId(static_cast<uint16_t>(e.to))]);
  }
  // Close a random edge backwards: instant loop.
  if (!edges.empty()) {
    const Edge& e = edges[rng.NextBelow(edges.size())];
    g.AddEdge(ModuleId(static_cast<uint16_t>(e.to)), ModuleId(static_cast<uint16_t>(e.from)),
              DepKind::kMap);
    EXPECT_FALSE(g.IsLoopFree());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(CallTracker, RecordsNestedCallsOnly) {
  CallTracker tracker;
  ScopeStack scopes(&tracker, nullptr, nullptr);
  const ModuleId a = scopes.Register("a");
  const ModuleId b = scopes.Register("b");
  const ModuleId c = scopes.Register("c");
  {
    ManagerScope sa(&scopes, a);
    {
      ManagerScope sb(&scopes, b);
      ManagerScope sc(&scopes, c);
    }
  }
  const DependencyGraph& observed = tracker.observed();
  EXPECT_TRUE(observed.HasEdge(a, b));
  EXPECT_TRUE(observed.HasEdge(b, c));
  EXPECT_FALSE(observed.HasEdge(a, c));
}

TEST(CallTracker, ReentrantSameModuleRecordsNothing) {
  CallTracker tracker;
  ScopeStack scopes(&tracker, nullptr, nullptr);
  const ModuleId a = scopes.Register("a");
  ManagerScope s1(&scopes, a);
  ManagerScope s2(&scopes, a);
  EXPECT_EQ(tracker.observed().edge_count(), 0u);
}

TEST(CallTracker, BarrierSuspendsTheCallerStack) {
  CallTracker tracker;
  ScopeStack scopes(&tracker, nullptr, nullptr);
  const ModuleId low = scopes.Register("page_frame");
  const ModuleId high = scopes.Register("directory");
  {
    ManagerScope in_low(&scopes, low);
    // The upward software signal: no activation records left behind, so the
    // high module's work is observed as a fresh entry, not an edge.  Frames
    // that name no module (an activity) do not lift the barrier.
    ManagerScope signal(&scopes, kBarrier);
    ManagerScope activity(&scopes, ProfDomain::kFaultService);
    ManagerScope in_high(&scopes, high);
  }
  EXPECT_FALSE(tracker.observed().HasEdge(low, high));
  // And the stack was restored afterwards.
  {
    ManagerScope in_low(&scopes, low);
    ManagerScope nested(&scopes, high);
  }
  EXPECT_TRUE(tracker.observed().HasEdge(low, high));
}

TEST(CallTracker, UndeclaredEdgesReported) {
  CallTracker tracker;
  ScopeStack scopes(&tracker, nullptr, nullptr);
  const ModuleId a = scopes.Register("a");
  const ModuleId b = scopes.Register("b");
  {
    ManagerScope sa(&scopes, a);
    ManagerScope sb(&scopes, b);
  }
  DependencyGraph declared;
  declared.AddModule("a");
  declared.AddModule("b");
  EXPECT_EQ(tracker.UndeclaredEdges(declared).size(), 1u);
  declared.AddEdge("a", "b", DepKind::kInterpreter);  // any kind legitimizes
  EXPECT_TRUE(tracker.UndeclaredEdges(declared).empty());
}

}  // namespace
}  // namespace mks
