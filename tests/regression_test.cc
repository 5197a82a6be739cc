#include <cmath>

#include <gtest/gtest.h>

#include "core/core_approx.h"
#include "dds/core_exact.h"
#include "dds/peel_approx.h"
#include "dds/solver.h"
#include "graph/generators.h"

namespace ddsgraph {
namespace {

// Medium-scale invariants pinned against each other (no absolute golden
// values: all quantities are recomputed and cross-validated at runtime, so
// the suite stays robust to generator-irrelevant changes while still
// catching algorithmic regressions).

TEST(RegressionTest, MediumRmatAllSolversConsistent) {
  const Digraph g = RmatDigraph(9, 6000, 42);
  const DdsSolution exact = SolveExactDds(g, ExactOptions{});
  const CoreApproxResult core_approx = CoreApprox(g);
  const DdsSolution peel = PeelApprox(g);

  // Exactness dominates both approximations.
  EXPECT_GE(exact.density + 1e-6, core_approx.density);
  EXPECT_GE(exact.density + 1e-6, peel.density);
  // Certified brackets hold.
  EXPECT_GE(core_approx.density * 2.0 + 1e-6, exact.density);
  EXPECT_LE(exact.density, core_approx.upper_bound + 1e-6);
  // The paper's empirical claim: actual approximation quality is far above
  // the 1/2 guarantee on skewed graphs.
  EXPECT_GE(core_approx.density / exact.density, 0.75);
}

TEST(RegressionTest, MediumUniformGraphConsistent) {
  const Digraph g = UniformDigraph(400, 3000, 7);
  const DdsSolution exact = SolveExactDds(g, ExactOptions{});
  const CoreApproxResult approx = CoreApprox(g);
  EXPECT_GE(exact.density + 1e-6, approx.density);
  EXPECT_GE(approx.density * 2.0 + 1e-6, exact.density);
  // Warm start caps the ratio probes: with pruning, the D&C explores a
  // small fraction of the ~n^2/3 realizable ratio values.
  EXPECT_LT(exact.stats.ratios_probed, 200);
}

TEST(RegressionTest, PlantedBlockRecoveredAtScale) {
  const PlantedDigraph planted =
      PlantedDenseBlock(2000, 8000, 20, 30, 0.95, 123);
  const DdsSolution exact = SolveExactDds(planted.graph, ExactOptions{});
  const double planted_density = PairDensity(
      planted.graph, planted.planted_s, planted.planted_t);
  EXPECT_GE(exact.density + 1e-6, planted_density);
  // The found pair must be essentially the planted block: ratios match and
  // density is within a whisker (background can add a vertex or two).
  EXPECT_NEAR(exact.density, planted_density, 0.15 * planted_density);
}

TEST(RegressionTest, CoreExactBeatsDcExactOnWork) {
  const Digraph g = RmatDigraph(8, 3000, 11);
  const DdsSolution dc = SolveExactDds(
      g, ExactPresetFor(DdsAlgorithm::kDcExact, ExactOptions{}));
  const DdsSolution core = SolveExactDds(g, ExactOptions{});
  EXPECT_NEAR(dc.density, core.density, 1e-6);
  // Core pruning must shrink the peak network size substantially on a
  // power-law graph — the mechanism behind the paper's speedups (E8).
  EXPECT_LT(core.stats.max_network_nodes, dc.stats.max_network_nodes / 2);
}

}  // namespace
}  // namespace ddsgraph
