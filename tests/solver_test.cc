#include "dds/solver.h"

#include <gtest/gtest.h>

#include "dds/engine.h"
#include "graph/generators.h"

namespace ddsgraph {
namespace {

constexpr DdsAlgorithm kAllAlgorithms[] = {
    DdsAlgorithm::kNaiveExact, DdsAlgorithm::kLpExact,
    DdsAlgorithm::kFlowExact,  DdsAlgorithm::kDcExact,
    DdsAlgorithm::kCoreExact,  DdsAlgorithm::kPeelApprox,
    DdsAlgorithm::kBatchPeelApprox, DdsAlgorithm::kCoreApprox,
};

TEST(SolverTest, NamesRoundTrip) {
  for (DdsAlgorithm algorithm : kAllAlgorithms) {
    const std::string name = AlgorithmName(algorithm);
    const auto parsed = ParseAlgorithmName(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, algorithm);
  }
  EXPECT_FALSE(ParseAlgorithmName("bogus").has_value());
}

TEST(SolverTest, ExactFlagMatchesSemantics) {
  EXPECT_TRUE(IsExactAlgorithm(DdsAlgorithm::kCoreExact));
  EXPECT_TRUE(IsExactAlgorithm(DdsAlgorithm::kFlowExact));
  EXPECT_FALSE(IsExactAlgorithm(DdsAlgorithm::kCoreApprox));
  EXPECT_FALSE(IsExactAlgorithm(DdsAlgorithm::kPeelApprox));
}

TEST(SolverTest, AllAlgorithmsRunOnSmallGraph) {
  const Digraph g = UniformDigraph(8, 25, 3);
  DdsEngine engine(g);
  double exact_density = -1;
  for (DdsAlgorithm algorithm : kAllAlgorithms) {
    DdsRequest request;
    request.algorithm = algorithm;
    const DdsSolution sol = engine.Solve(request).value();
    EXPECT_GT(sol.density, 0.0) << AlgorithmName(algorithm);
    EXPECT_NEAR(sol.density, DirectedDensity(g, sol.pair), 1e-9)
        << AlgorithmName(algorithm);
    if (IsExactAlgorithm(algorithm)) {
      if (exact_density < 0) {
        exact_density = sol.density;
      } else {
        EXPECT_NEAR(sol.density, exact_density, 1e-5)
            << AlgorithmName(algorithm);
      }
    } else {
      // Each approximation carries its own certified bracket.
      EXPECT_GE(sol.density * 4.0, exact_density)
          << AlgorithmName(algorithm);
      EXPECT_LE(exact_density, sol.upper_bound + 1e-6)
          << AlgorithmName(algorithm);
    }
  }
}

TEST(SolverTest, SummaryMentionsKeyFields) {
  const Digraph g = UniformDigraph(10, 30, 4);
  DdsEngine engine(g);
  DdsRequest request;
  request.algorithm = DdsAlgorithm::kCoreApprox;
  const DdsSolution sol = engine.Solve(request).value();
  const std::string summary = SolutionSummary(sol);
  EXPECT_NE(summary.find("rho="), std::string::npos);
  EXPECT_NE(summary.find("|S|="), std::string::npos);
  EXPECT_NE(summary.find("|T|="), std::string::npos);
}

}  // namespace
}  // namespace ddsgraph
