#include "util/stats.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dds/core_exact.h"
#include "dds/solver.h"
#include "graph/generators.h"

namespace ddsgraph {
namespace {

TEST(StatsTest, MeanOfEmptyIsZero) {
  EXPECT_EQ(Mean({}), 0.0);
}

TEST(StatsTest, MeanBasic) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3, 4}), 2.5);
}

TEST(StatsTest, GeometricMean) {
  EXPECT_DOUBLE_EQ(GeometricMean({1, 100}), 10.0);
  EXPECT_DOUBLE_EQ(GeometricMean({8}), 8.0);
  EXPECT_EQ(GeometricMean({2, 0}), 0.0);   // non-positive -> 0
  EXPECT_EQ(GeometricMean({}), 0.0);
}

TEST(StatsTest, QuantileInterpolates) {
  std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({5}, 0.9), 5.0);
}

TEST(StatsTest, SummarizeKnownSample) {
  const Summary s = Summarize({2, 4, 4, 4, 5, 5, 7, 9});
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);  // classic textbook sample
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.median, 4.5);
}

TEST(StatsTest, SummarizeEmpty) {
  const Summary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

// ---------------------------------------------------------------------
// SolverStats flow counters (arcs scanned, Dinic solves, and the retired
// push-relabel counters that stay 0) and their surfacing through
// ToString / SolutionJson.
// ---------------------------------------------------------------------

TEST(SolverStatsTest, KernelCountersFilledByExactSolve) {
  const Digraph g = UniformDigraph(20, 110, 21);
  const DdsSolution sol = SolveExactDds(g, ExactOptions{});
  EXPECT_GT(sol.stats.arcs_scanned, 0);
  EXPECT_GT(sol.stats.flow_solves_dinic, 0);
  // At most one min cut per binary-search guess (guesses whose refined
  // core comes up empty are certified without a flow solve).
  EXPECT_LE(sol.stats.flow_solves_dinic, sol.stats.binary_search_iters);
  EXPECT_EQ(sol.stats.flow_solves_push_relabel, 0);
  EXPECT_EQ(sol.stats.global_relabels, 0);
}

// Every min cut runs Dinic, also on a ~36k-arc network: the fresh build
// is a cold Solve and the reparameterized re-solves warm Resolves.
TEST(SolverStatsTest, DinicScansArcsWithoutGlobalRelabels) {
  const Digraph big = UniformDigraph(2048, 12000, 3);
  std::vector<VertexId> all(big.NumVertices());
  for (VertexId v = 0; v < big.NumVertices(); ++v) all[v] = v;
  const RatioProbeResult probe = ProbeRatio(
      big, all, all,
      {Fraction{1, 1}, 0.0, std::sqrt(static_cast<double>(big.NumEdges())),
       ExactSearchDelta(big)},
      ExactOptions{});
  EXPECT_GT(probe.flow.arcs_scanned, 0);
  EXPECT_GT(probe.flow.flow_networks_reused, 0);
  EXPECT_GT(probe.flow.warm_start_augmentations, 0);
  EXPECT_EQ(probe.flow.flow_solves_dinic,
            probe.flow.flow_networks_built + probe.flow.flow_networks_reused);
  EXPECT_EQ(probe.flow.flow_solves_push_relabel, 0);
  EXPECT_EQ(probe.flow.global_relabels, 0);
}

TEST(SolverStatsTest, ToStringCarriesKernelCounters) {
  SolverStats stats;
  stats.arcs_scanned = 12345;
  stats.flow_solves_dinic = 7;
  const std::string s = stats.ToString();
  EXPECT_NE(s.find("arcs=12345"), std::string::npos) << s;
  EXPECT_NE(s.find("dinic_solves=7"), std::string::npos) << s;
  EXPECT_EQ(s.find("pr="), std::string::npos) << s;
  EXPECT_EQ(s.find("grel="), std::string::npos) << s;
}

// The serve-path latency split (queue_ms / solve_ms) is zero outside the
// server and must stay invisible in ToString then — a one-shot CLI solve
// has no queue to report.
TEST(SolverStatsTest, ServeLatencySplitHiddenWhenZero) {
  SolverStats stats;
  EXPECT_EQ(stats.ToString().find("queue="), std::string::npos);
  stats.queue_ms = 1.25;
  stats.solve_ms = 40;
  const std::string s = stats.ToString();
  EXPECT_NE(s.find("queue=1.25ms"), std::string::npos) << s;
  EXPECT_NE(s.find("solve=40ms"), std::string::npos) << s;
}

TEST(SolverStatsTest, SolutionJsonCarriesServeLatencySplit) {
  const Digraph g = UniformDigraph(14, 60, 25);
  DdsSolution sol = SolveExactDds(g, ExactOptions{});
  // Outside the server the fields serialize as plain zeros.
  EXPECT_NE(SolutionJson(sol).find("\"queue_ms\": 0, \"solve_ms\": 0"),
            std::string::npos);
  sol.stats.queue_ms = 0.5;
  sol.stats.solve_ms = 2.25;
  const std::string json = SolutionJson(sol);
  EXPECT_NE(json.find("\"queue_ms\": 0.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"solve_ms\": 2.25"), std::string::npos) << json;
}

TEST(SolverStatsTest, SolutionJsonCarriesKernelCounters) {
  const Digraph g = UniformDigraph(14, 60, 25);
  const DdsSolution sol = SolveExactDds(g, ExactOptions{});
  const std::string json = SolutionJson(sol);
  for (const char* key :
       {"\"arcs_scanned\": ", "\"global_relabels\": ",
        "\"flow_solves_dinic\": ", "\"flow_solves_push_relabel\": "}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
  // The emitted numbers are the stats' values, not placeholders; the
  // push-relabel keys stay in the schema and read 0.
  EXPECT_NE(json.find("\"arcs_scanned\": " +
                      std::to_string(sol.stats.arcs_scanned)),
            std::string::npos);
  EXPECT_NE(json.find("\"global_relabels\": 0,"), std::string::npos);
  EXPECT_NE(json.find("\"flow_solves_push_relabel\": 0,"),
            std::string::npos);
}

}  // namespace
}  // namespace ddsgraph
