#include "dds/engine.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "dds/density.h"
#include "dds/naive_exact.h"
#include "dds/solver.h"
#include "graph/generators.h"
#include "util/random.h"

namespace ddsgraph {
namespace {

// Random weighted graph with weights in [1, max_w], via the seeded
// weighted generator (graph/generators.h).
WeightedDigraph RandomWeighted(uint32_t n, int64_t arcs, int64_t max_w,
                               uint64_t seed) {
  WeightOptions options;
  options.max_weight = max_w;
  return UniformWeightedDigraph(n, arcs, seed, options);
}

void ExpectSameSolution(const DdsSolution& a, const DdsSolution& b) {
  EXPECT_EQ(a.pair.s, b.pair.s);
  EXPECT_EQ(a.pair.t, b.pair.t);
  EXPECT_EQ(a.density, b.density);  // bit-identical, not just near
  EXPECT_EQ(a.pair_edges, b.pair_edges);
  EXPECT_EQ(a.lower_bound, b.lower_bound);
  EXPECT_EQ(a.upper_bound, b.upper_bound);
  EXPECT_EQ(a.interrupted, b.interrupted);
}

// --------------------------------------------------------------- registry

TEST(RegistryTest, CoversEveryAlgorithmExactlyOnce) {
  const auto registry = AlgorithmRegistry();
  EXPECT_EQ(registry.size(), 8u);
  for (const AlgorithmInfo& info : registry) {
    // Enum -> row and name -> row agree with the row itself.
    EXPECT_EQ(FindAlgorithm(info.algorithm), &info);
    EXPECT_EQ(FindAlgorithm(std::string_view(info.name)), &info);
    // The registry is the source of truth for the name helpers.
    EXPECT_STREQ(AlgorithmName(info.algorithm), info.name);
    const auto parsed = ParseAlgorithmName(info.name);
    ASSERT_TRUE(parsed.has_value()) << info.name;
    EXPECT_EQ(*parsed, info.algorithm);
    EXPECT_EQ(IsExactAlgorithm(info.algorithm), info.exact);
    // Workspace-using (anytime-capable) rows are exact solvers.
    if (info.uses_workspace) {
      EXPECT_TRUE(info.exact) << info.name;
    }
  }
  EXPECT_EQ(FindAlgorithm(std::string_view("bogus")), nullptr);
  EXPECT_EQ(FindAlgorithm(static_cast<DdsAlgorithm>(999)), nullptr);
}

TEST(RegistryTest, HelpStringListsEveryName) {
  const std::string help = AlgorithmNamesHelp();
  for (const AlgorithmInfo& info : AlgorithmRegistry()) {
    EXPECT_NE(help.find(info.name), std::string::npos) << info.name;
  }
  // Every algorithm is weight-generic, so the one help string also serves
  // weighted engines (the CLI --algo help can't go stale).
  EXPECT_NE(help.find("peel-approx"), std::string::npos);
  EXPECT_NE(help.find("batch-peel-approx"), std::string::npos);
  EXPECT_NE(help.find("lp-exact"), std::string::npos);
}

// ----------------------------------------------------------------- engine

TEST(DdsEngineTest, AllAlgorithmsReachableAndAgreeWithFreeFunctions) {
  const Digraph g = UniformDigraph(8, 25, 3);
  DdsEngine engine(g);
  for (const AlgorithmInfo& info : AlgorithmRegistry()) {
    DdsRequest request;
    request.algorithm = info.algorithm;
    const Result<DdsSolution> via_engine = engine.Solve(request);
    ASSERT_TRUE(via_engine.ok()) << info.name;
    const DdsSolution direct = DdsEngine(g).Solve(request).value();
    EXPECT_EQ(via_engine.value().density, direct.density) << info.name;
    EXPECT_EQ(via_engine.value().pair.s, direct.pair.s) << info.name;
    EXPECT_EQ(via_engine.value().pair.t, direct.pair.t) << info.name;
  }
  EXPECT_EQ(engine.num_solves(),
            static_cast<int64_t>(AlgorithmRegistry().size()));
}

TEST(DdsEngineTest, RepeatSolveReusesWorkspaceAndIsBitIdentical) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    const Digraph g = UniformDigraph(24, 110, seed);
    const DdsSolution one_shot = SolveExactDds(g, ExactOptions{});
    DdsEngine engine(g);
    DdsRequest request;
    request.algorithm = DdsAlgorithm::kCoreExact;
    const DdsSolution first = engine.Solve(request).value();
    const DdsSolution second = engine.Solve(request).value();
    ExpectSameSolution(first, one_shot);
    ExpectSameSolution(second, one_shot);
    ExpectSameSolution(second, first);
    // Workspace amortization is observable: the second solve records the
    // solve it inherited scratch from.
    EXPECT_EQ(first.stats.prior_engine_solves, 0);
    EXPECT_EQ(second.stats.prior_engine_solves, 1);
    EXPECT_EQ(one_shot.stats.prior_engine_solves, 0);
    // Queries that never touch the workspace don't inflate the signal.
    DdsRequest approx;
    approx.algorithm = DdsAlgorithm::kCoreApprox;
    EXPECT_EQ(engine.Solve(approx).value().stats.prior_engine_solves, 2);
    DdsRequest third;
    third.algorithm = DdsAlgorithm::kCoreExact;
    EXPECT_EQ(engine.Solve(third).value().stats.prior_engine_solves, 2);
    // Identical trajectory, identical work counters.
    EXPECT_EQ(second.stats.flow_networks_built,
              first.stats.flow_networks_built);
    EXPECT_EQ(second.stats.binary_search_iters,
              first.stats.binary_search_iters);
  }
}

TEST(DdsEngineTest, WeightedFacadeMatchesDirectSolvers) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    const WeightedDigraph g = RandomWeighted(12, 40, 5, seed);
    DdsEngine engine(g);
    DdsRequest request;
    request.algorithm = DdsAlgorithm::kCoreExact;
    const DdsSolution via_engine = engine.Solve(request).value();
    const DdsSolution direct = SolveExactDds(g, ExactOptions{});
    ExpectSameSolution(via_engine, direct);

    request.algorithm = DdsAlgorithm::kNaiveExact;
    const DdsSolution naive = engine.Solve(request).value();
    EXPECT_NEAR(via_engine.density, naive.density, 1e-9);

    request.algorithm = DdsAlgorithm::kCoreApprox;
    const DdsSolution approx = engine.Solve(request).value();
    EXPECT_GE(approx.density * 2.0 + 1e-9, naive.density);
    EXPECT_LE(naive.density, approx.upper_bound + 1e-9);
  }
}

TEST(DdsEngineTest, WeightedEngineServesTheFullRegistry) {
  // Every algorithm — exact, LP and both peel approximations — validates
  // and solves on a weighted engine, and approximations report certified
  // brackets of the weighted optimum.
  const WeightedDigraph g = RandomWeighted(8, 20, 3, 1);
  const double optimum = NaiveExact(g).density;
  DdsEngine engine(g);
  for (const AlgorithmInfo& info : AlgorithmRegistry()) {
    DdsRequest request;
    request.algorithm = info.algorithm;
    const Result<DdsSolution> result = engine.Solve(request);
    ASSERT_TRUE(result.ok()) << info.name;
    const DdsSolution& sol = result.value();
    if (info.exact) {
      EXPECT_NEAR(sol.density, optimum, 1e-6) << info.name;
    } else {
      EXPECT_LE(sol.density, optimum + 1e-9) << info.name;
      EXPECT_GE(sol.upper_bound + 1e-9, optimum) << info.name;
    }
    EXPECT_NEAR(sol.density, PairDensity(g, sol.pair.s, sol.pair.t),
                1e-12)
        << info.name;
  }
}

// All-weights-1 weighted approximation solves run the same templated code
// as the unweighted engine — the whole DdsSolution, including every
// SolverStats counter, must be bit-identical through the facade.
TEST(DdsEngineTest, UnitWeightApproxSolvesBitIdenticalToUnweighted) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    const Digraph base = RmatDigraph(6, 400, seed);
    const WeightedDigraph unit = WeightedDigraph::FromDigraph(base);
    DdsEngine plain_engine(base);
    DdsEngine weighted_engine(unit);
    for (DdsAlgorithm algorithm :
         {DdsAlgorithm::kPeelApprox, DdsAlgorithm::kBatchPeelApprox,
          DdsAlgorithm::kCoreApprox}) {
      DdsRequest request;
      request.algorithm = algorithm;
      const DdsSolution plain = plain_engine.Solve(request).value();
      const DdsSolution weighted = weighted_engine.Solve(request).value();
      ExpectSameSolution(weighted, plain);
      EXPECT_EQ(weighted.stats.ratios_probed, plain.stats.ratios_probed)
          << AlgorithmName(algorithm) << " seed " << seed;
      EXPECT_EQ(weighted.stats.binary_search_iters,
                plain.stats.binary_search_iters)
          << AlgorithmName(algorithm) << " seed " << seed;
    }
  }
}

TEST(DdsEngineTest, OversizedGraphsFailAsStatusNotAbort) {
  // 80 vertices: beyond naive-exact (14) and lp-exact (64) limits.
  const Digraph big = UniformDigraph(80, 300, 1);
  DdsEngine engine(big);
  for (DdsAlgorithm algorithm :
       {DdsAlgorithm::kNaiveExact, DdsAlgorithm::kLpExact}) {
    DdsRequest request;
    request.algorithm = algorithm;
    const Result<DdsSolution> result = engine.Solve(request);
    ASSERT_FALSE(result.ok()) << AlgorithmName(algorithm);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  // flow-exact's exhaustive enumeration guard is max_exhaustive_n.
  DdsRequest flow;
  flow.algorithm = DdsAlgorithm::kFlowExact;
  flow.exact.max_exhaustive_n = 50;
  const Result<DdsSolution> rejected = engine.Solve(flow);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  flow.exact.max_exhaustive_n = 100;  // now n=80 fits
  EXPECT_TRUE(engine.Solve(flow).ok());
}

// ------------------------------------------------------------- validation

TEST(ValidateRequestTest, RejectsBadOptions) {
  const Digraph g = UniformDigraph(8, 20, 1);
  DdsEngine engine(g);

  DdsRequest bad_exhaustive;
  bad_exhaustive.exact.max_exhaustive_n = 0;
  EXPECT_EQ(ValidateRequest(bad_exhaustive).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(engine.Solve(bad_exhaustive).ok());

  DdsRequest nan_deadline;
  nan_deadline.deadline_seconds =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(ValidateRequest(nan_deadline).code(),
            StatusCode::kInvalidArgument);

  DdsRequest negative_deadline;
  negative_deadline.deadline_seconds = -1.0;
  EXPECT_EQ(ValidateRequest(negative_deadline).code(),
            StatusCode::kInvalidArgument);

  DdsRequest bad_epsilon;
  bad_epsilon.algorithm = DdsAlgorithm::kPeelApprox;
  bad_epsilon.peel.epsilon = 0.0;
  EXPECT_EQ(ValidateRequest(bad_epsilon).code(),
            StatusCode::kInvalidArgument);
  // The same broken knob is ignored by an algorithm that never reads it,
  // so a request object can be reused across algorithms.
  bad_epsilon.algorithm = DdsAlgorithm::kCoreApprox;
  EXPECT_TRUE(ValidateRequest(bad_epsilon).ok());

  DdsRequest bad_algorithm;
  bad_algorithm.algorithm = static_cast<DdsAlgorithm>(123);
  EXPECT_EQ(ValidateRequest(bad_algorithm).code(),
            StatusCode::kInvalidArgument);
  // The engine surfaces the same error as a Status, not a crash.
  EXPECT_FALSE(engine.Solve(bad_algorithm).ok());

  DdsRequest fine;  // defaults validate
  EXPECT_TRUE(ValidateRequest(fine).ok());
  // Failed solves do not count as served.
  EXPECT_EQ(engine.num_solves(), 0);
}

// `exact` is honored on weighted engines since the weight-policy
// redesign, so it is validated there too — both the request-level check
// and the graph-aware exhaustive-enumeration guard.
TEST(ValidateRequestTest, WeightedEngineValidatesExactOptions) {
  const WeightedDigraph g = RandomWeighted(8, 20, 3, 2);
  DdsEngine engine(g);
  DdsRequest bad;
  bad.algorithm = DdsAlgorithm::kCoreExact;
  bad.exact.max_exhaustive_n = 0;
  EXPECT_EQ(ValidateRequest(bad).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(engine.Solve(bad).ok());

  const WeightedDigraph big = RandomWeighted(30, 90, 4, 3);
  DdsEngine big_engine(big);
  DdsRequest flow;
  flow.algorithm = DdsAlgorithm::kFlowExact;
  flow.exact.max_exhaustive_n = 20;
  const Result<DdsSolution> rejected = big_engine.Solve(flow);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  flow.exact.max_exhaustive_n = 30;  // now n=30 fits
  EXPECT_TRUE(big_engine.Solve(flow).ok());
}

// The redesign's payoff at the facade: every ExactOptions knob reaches a
// weighted solve, observably (parametric reuse toggles, size traces) and
// bit-identically across the ablation of the probe engine.
TEST(DdsEngineTest, WeightedSolvesHonorExactOptions) {
  const WeightedDigraph g = RandomWeighted(24, 110, 5, 11);
  DdsEngine engine(g);
  DdsRequest request;
  request.algorithm = DdsAlgorithm::kCoreExact;
  request.exact.record_network_sizes = true;
  const DdsSolution incremental = engine.Solve(request).value();
  EXPECT_GT(incremental.stats.flow_networks_reused, 0);
  EXPECT_FALSE(incremental.stats.network_sizes.empty());

  request.exact.incremental_probe = false;
  const DdsSolution fresh = engine.Solve(request).value();
  EXPECT_EQ(fresh.stats.flow_networks_reused, 0);
  ExpectSameSolution(fresh, incremental);
  EXPECT_EQ(fresh.stats.binary_search_iters,
            incremental.stats.binary_search_iters);
  EXPECT_EQ(fresh.stats.flow_networks_built,
            incremental.stats.flow_networks_built +
                incremental.stats.flow_networks_reused);
}

// ---------------------------------------------------------------- anytime

TEST(AnytimeTest, DeadlineTruncatedSolveBracketsOptimum) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const Digraph g = UniformDigraph(11, 45, seed);
    const double optimum = NaiveExact(g).density;
    DdsEngine engine(g);
    DdsRequest request;
    request.algorithm = DdsAlgorithm::kCoreExact;
    request.deadline_seconds = 1e-9;  // expires before the first min cut
    const DdsSolution sol = engine.Solve(request).value();
    ASSERT_TRUE(sol.interrupted) << "seed " << seed;
    // The certified interval must bracket the true optimum, and the
    // incumbent (the approx warm start at this budget) must witness the
    // lower bound exactly.
    EXPECT_LE(sol.lower_bound, optimum + 1e-9) << "seed " << seed;
    EXPECT_GE(sol.upper_bound + 1e-9, optimum) << "seed " << seed;
    EXPECT_EQ(sol.lower_bound, sol.density);
    EXPECT_GT(sol.density, 0.0);  // warm start ran before the deadline
    EXPECT_LE(sol.lower_bound, sol.upper_bound + 1e-12);
  }
}

TEST(AnytimeTest, CancellationViaCallbackBracketsOptimum) {
  for (int64_t budget : {1, 3, 7, 20}) {
    const Digraph g = UniformDigraph(12, 50, 7);
    const double optimum = NaiveExact(g).density;
    DdsEngine engine(g);
    DdsRequest request;
    request.algorithm = DdsAlgorithm::kCoreExact;
    int64_t calls = 0;
    request.progress = [&calls, budget](const DdsProgress& progress) {
      // Fields are best-effort telemetry (probe-local inside a probe);
      // only sanity-check, don't assume cross-field invariants.
      EXPECT_GE(progress.elapsed_seconds, 0.0);
      EXPECT_GE(progress.upper_bound, 0.0);
      return ++calls < budget;
    };
    const DdsSolution sol = engine.Solve(request).value();
    EXPECT_GE(calls, 1);
    EXPECT_LE(sol.lower_bound, optimum + 1e-9) << "budget " << budget;
    EXPECT_GE(sol.upper_bound + 1e-9, optimum) << "budget " << budget;
    if (!sol.interrupted) {
      // Ran to completion before the budget: must be exact.
      EXPECT_NEAR(sol.density, optimum, 1e-6);
    }
  }
}

// The exhaustive path (flow-exact) must notice a cancellation that fires
// inside the *last* ratio's probe — the spot a loop-top check alone would
// miss — and report interruption with certified bounds.
TEST(AnytimeTest, ExhaustiveLateCancellationStillReportsInterruption) {
  const Digraph g = UniformDigraph(10, 40, 3);
  const double optimum = NaiveExact(g).density;
  DdsRequest request;
  request.algorithm = DdsAlgorithm::kFlowExact;
  int64_t total = 0;
  request.progress = [&total](const DdsProgress&) {
    ++total;
    return true;
  };
  DdsEngine engine(g);
  const DdsSolution full = engine.Solve(request).value();
  ASSERT_FALSE(full.interrupted);
  EXPECT_NEAR(full.density, optimum, 1e-6);
  ASSERT_GT(total, 2);
  for (const int64_t cancel_at : {total, total - 1}) {
    DdsEngine fresh(g);
    int64_t calls = 0;
    request.progress = [&calls, cancel_at](const DdsProgress&) {
      return ++calls < cancel_at;
    };
    const DdsSolution sol = fresh.Solve(request).value();
    EXPECT_EQ(calls, cancel_at);  // deterministic trajectory up to the cut
    EXPECT_TRUE(sol.interrupted) << "cancel_at " << cancel_at;
    EXPECT_LE(sol.lower_bound, optimum + 1e-9);
    EXPECT_GE(sol.upper_bound + 1e-9, optimum);
  }
}

TEST(AnytimeTest, GenerousDeadlineStillProvesOptimality) {
  const Digraph g = UniformDigraph(10, 35, 2);
  const double optimum = NaiveExact(g).density;
  DdsEngine engine(g);
  DdsRequest request;
  request.algorithm = DdsAlgorithm::kCoreExact;
  request.deadline_seconds = 300.0;
  const DdsSolution sol = engine.Solve(request).value();
  EXPECT_FALSE(sol.interrupted);
  EXPECT_NEAR(sol.density, optimum, 1e-6);
  EXPECT_EQ(sol.lower_bound, sol.upper_bound);
}

TEST(AnytimeTest, WeightedDeadlineTruncationIsCertified) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    const WeightedDigraph g = RandomWeighted(11, 40, 4, seed);
    if (g.TotalWeight() == 0) continue;
    const double optimum = NaiveExact(g).density;
    DdsEngine engine(g);
    DdsRequest request;
    request.algorithm = DdsAlgorithm::kCoreExact;
    request.deadline_seconds = 1e-9;
    const DdsSolution sol = engine.Solve(request).value();
    ASSERT_TRUE(sol.interrupted) << "seed " << seed;
    EXPECT_LE(sol.lower_bound, optimum + 1e-9) << "seed " << seed;
    EXPECT_GE(sol.upper_bound + 1e-9, optimum) << "seed " << seed;
  }
}

// Engine solves after an interrupted one must not inherit stale state:
// the next full solve still returns the exact answer.
TEST(AnytimeTest, EngineRecoversAfterInterruptedSolve) {
  const Digraph g = UniformDigraph(12, 50, 9);
  const DdsSolution one_shot = SolveExactDds(g, ExactOptions{});
  DdsEngine engine(g);
  DdsRequest truncated;
  truncated.algorithm = DdsAlgorithm::kCoreExact;
  truncated.deadline_seconds = 1e-9;
  (void)engine.Solve(truncated).value();
  DdsRequest full;
  full.algorithm = DdsAlgorithm::kCoreExact;
  const DdsSolution after = engine.Solve(full).value();
  EXPECT_EQ(after.density, one_shot.density);
  EXPECT_EQ(after.pair.s, one_shot.pair.s);
  EXPECT_EQ(after.pair.t, one_shot.pair.t);
  EXPECT_FALSE(after.interrupted);
}

// --------------------------------------------------------------- summary

TEST(SolutionJsonTest, ContainsKeyFieldsAndFlags) {
  const Digraph g = UniformDigraph(10, 30, 4);
  DdsEngine engine(g);
  DdsRequest request;
  request.algorithm = DdsAlgorithm::kCoreApprox;
  const DdsSolution sol = engine.Solve(request).value();
  const std::string json = SolutionJson(sol);
  EXPECT_NE(json.find("\"density\": "), std::string::npos);
  EXPECT_NE(json.find("\"s\": ["), std::string::npos);
  EXPECT_NE(json.find("\"t\": ["), std::string::npos);
  EXPECT_NE(json.find("\"interrupted\": false"), std::string::npos);
  EXPECT_NE(json.find("\"ratios_probed\": "), std::string::npos);
  EXPECT_NE(json.find("\"prior_engine_solves\": 0"), std::string::npos);
}

TEST(SolutionJsonTest, TranslatesLabelsWhenProvided) {
  DdsSolution sol;
  sol.pair.s = {0, 2};
  sol.pair.t = {1};
  const std::string json = SolutionJson(sol, {100, 200, 300});
  EXPECT_NE(json.find("\"s\": [100,300]"), std::string::npos);
  EXPECT_NE(json.find("\"t\": [200]"), std::string::npos);
}

}  // namespace
}  // namespace ddsgraph
