// Tests for the shared-memory parallel solve layer (DESIGN.md §11):
// bit-identity of the parallel approximations against their sequential
// runs, density + pair identity of the parallel exact solvers, and
// anytime deadline/cancel semantics under threads > 1.

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/core_approx.h"
#include "core/xy_core_decomposition.h"
#include "dds/batch_peel_approx.h"
#include "dds/engine.h"
#include "dds/naive_exact.h"
#include "dds/peel_approx.h"
#include "graph/generators.h"
#include "util/thread_pool.h"

namespace ddsgraph {
namespace {

constexpr int kThreadCounts[] = {2, 4, 8};

void ExpectSameSolution(const DdsSolution& a, const DdsSolution& b) {
  EXPECT_EQ(a.pair.s, b.pair.s);
  EXPECT_EQ(a.pair.t, b.pair.t);
  EXPECT_EQ(a.density, b.density);
  EXPECT_EQ(a.pair_edges, b.pair_edges);
  EXPECT_EQ(a.lower_bound, b.lower_bound);
  EXPECT_EQ(a.upper_bound, b.upper_bound);
}

std::vector<Digraph> GeneratorFamilies() {
  std::vector<Digraph> graphs;
  graphs.push_back(UniformDigraph(300, 1800, 11));
  graphs.push_back(RmatDigraph(8, 1600, 5));
  graphs.push_back(PlantedDenseBlock(200, 900, 8, 12, 0.9, 21).graph);
  return graphs;
}

// ------------------------------------------------------------ bit identity

TEST(ParallelSolveTest, PeelApproxBitIdenticalAcrossThreadCounts) {
  for (const Digraph& g : GeneratorFamilies()) {
    PeelApproxOptions options;
    const DdsSolution sequential = PeelApprox(g, options);
    for (int threads : kThreadCounts) {
      options.threads = threads;
      const DdsSolution parallel = PeelApprox(g, options);
      ExpectSameSolution(parallel, sequential);
      EXPECT_EQ(parallel.stats.ratios_probed, sequential.stats.ratios_probed);
    }
  }
}

TEST(ParallelSolveTest, WeightedPeelApproxBitIdenticalAcrossThreadCounts) {
  const WeightedDigraph wg =
      AttachRandomWeights(RmatDigraph(8, 1600, 5), 33, WeightOptions{});
  PeelApproxOptions options;
  const DdsSolution sequential = PeelApprox(wg, options);
  for (int threads : kThreadCounts) {
    options.threads = threads;
    ExpectSameSolution(PeelApprox(wg, options), sequential);
  }
}

TEST(ParallelSolveTest, BatchPeelBitIdenticalAcrossThreadCounts) {
  // Graph larger than one scan chunk (2^14) so the chunked parallel scan
  // genuinely splits the vertex range.
  const Digraph g = UniformDigraph(40000, 120000, 9);
  BatchPeelOptions options;
  const DdsSolution sequential = BatchPeelApprox(g, options);
  for (int threads : kThreadCounts) {
    options.threads = threads;
    const DdsSolution parallel = BatchPeelApprox(g, options);
    ExpectSameSolution(parallel, sequential);
    EXPECT_EQ(parallel.stats.binary_search_iters,
              sequential.stats.binary_search_iters);
  }
}

TEST(ParallelSolveTest, CoreSkylineBitIdenticalAcrossThreadCounts) {
  for (const Digraph& g : GeneratorFamilies()) {
    const std::vector<SkylinePoint> sequential = CoreSkyline(g);
    for (int threads : kThreadCounts) {
      ThreadPool pool(threads);
      int64_t peels = 0;
      const std::vector<SkylinePoint> parallel =
          CoreSkyline(g, /*x_limit=*/-1, &pool, &peels);
      ASSERT_EQ(parallel.size(), sequential.size()) << "threads " << threads;
      for (size_t i = 0; i < parallel.size(); ++i) {
        EXPECT_EQ(parallel[i].x, sequential[i].x);
        EXPECT_EQ(parallel[i].y, sequential[i].y);
      }
      EXPECT_GT(peels, 0);
    }
  }
}

TEST(ParallelSolveTest, WeightedCoreSkylineBitIdenticalAcrossThreadCounts) {
  WeightOptions weights;
  weights.dist = WeightOptions::Dist::kGeometric;
  const WeightedDigraph wg =
      AttachRandomWeights(UniformDigraph(300, 1800, 11), 17, weights);
  const std::vector<SkylinePoint> sequential = CoreSkyline(wg);
  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    const std::vector<SkylinePoint> parallel =
        CoreSkyline(wg, /*x_limit=*/-1, &pool);
    ASSERT_EQ(parallel.size(), sequential.size());
    for (size_t i = 0; i < parallel.size(); ++i) {
      EXPECT_EQ(parallel[i].x, sequential[i].x);
      EXPECT_EQ(parallel[i].y, sequential[i].y);
    }
  }
}

TEST(ParallelSolveTest, CoreApproxSameCoreAcrossThreadCounts) {
  for (const Digraph& g : GeneratorFamilies()) {
    const CoreApproxResult sequential = CoreApprox(g);
    for (int threads : kThreadCounts) {
      ThreadPool pool(threads);
      const CoreApproxResult parallel = CoreApprox(g, &pool);
      EXPECT_EQ(parallel.best_x, sequential.best_x);
      EXPECT_EQ(parallel.best_y, sequential.best_y);
      EXPECT_EQ(parallel.core.s, sequential.core.s);
      EXPECT_EQ(parallel.core.t, sequential.core.t);
      EXPECT_EQ(parallel.density, sequential.density);
      EXPECT_EQ(parallel.lower_bound, sequential.lower_bound);
      EXPECT_EQ(parallel.upper_bound, sequential.upper_bound);
    }
  }
}

// -------------------------------------------------- exact solver identity
//
// Pair equality across thread counts is guaranteed only when the
// max-density witness is unique (ExactOptions::threads); the fixed-seed
// graphs below have unique optima, so asserting the pair pins the
// strongest version of the contract deterministically.

TEST(ParallelSolveTest, ExactSolversDensityAndPairIdenticalAcrossThreads) {
  std::vector<Digraph> graphs;
  graphs.push_back(UniformDigraph(60, 320, 4));
  graphs.push_back(RmatDigraph(6, 300, 2));
  graphs.push_back(PlantedDenseBlock(80, 300, 6, 9, 0.9, 13).graph);
  for (const Digraph& g : graphs) {
    for (const DdsAlgorithm algorithm :
         {DdsAlgorithm::kDcExact, DdsAlgorithm::kCoreExact}) {
      DdsEngine engine(g);
      DdsRequest request;
      request.algorithm = algorithm;
      const DdsSolution sequential = engine.Solve(request).value();
      for (int threads : kThreadCounts) {
        request.threads = threads;
        DdsEngine parallel_engine(g);
        const DdsSolution parallel = parallel_engine.Solve(request).value();
        EXPECT_EQ(parallel.density, sequential.density)
            << AlgorithmName(algorithm) << " threads " << threads;
        EXPECT_EQ(parallel.pair.s, sequential.pair.s)
            << AlgorithmName(algorithm) << " threads " << threads;
        EXPECT_EQ(parallel.pair.t, sequential.pair.t)
            << AlgorithmName(algorithm) << " threads " << threads;
        EXPECT_EQ(parallel.pair_edges, sequential.pair_edges);
        EXPECT_FALSE(parallel.interrupted);
      }
      request.threads = 1;
    }
  }
}

TEST(ParallelSolveTest, WeightedExactDensityAndPairIdenticalAcrossThreads) {
  WeightOptions weights;
  weights.dist = WeightOptions::Dist::kGeometric;
  const WeightedDigraph wg =
      AttachRandomWeights(UniformDigraph(60, 320, 4), 29, weights);
  DdsEngine engine(wg);
  DdsRequest request;
  request.algorithm = DdsAlgorithm::kCoreExact;
  const DdsSolution sequential = engine.Solve(request).value();
  for (int threads : kThreadCounts) {
    request.threads = threads;
    DdsEngine parallel_engine(wg);
    const DdsSolution parallel = parallel_engine.Solve(request).value();
    EXPECT_EQ(parallel.density, sequential.density) << threads;
    EXPECT_EQ(parallel.pair.s, sequential.pair.s) << threads;
    EXPECT_EQ(parallel.pair.t, sequential.pair.t) << threads;
  }
}

TEST(ParallelSolveTest, ParallelExhaustiveMatchesSequential) {
  const Digraph g = UniformDigraph(12, 50, 6);
  DdsRequest request;
  request.algorithm = DdsAlgorithm::kFlowExact;
  DdsEngine engine(g);
  const DdsSolution sequential = engine.Solve(request).value();
  EXPECT_NEAR(sequential.density, NaiveExact(g).density, 1e-6);
  for (int threads : kThreadCounts) {
    request.threads = threads;
    DdsEngine parallel_engine(g);
    const DdsSolution parallel = parallel_engine.Solve(request).value();
    EXPECT_EQ(parallel.density, sequential.density) << threads;
    EXPECT_EQ(parallel.pair.s, sequential.pair.s) << threads;
    EXPECT_EQ(parallel.pair.t, sequential.pair.t) << threads;
  }
}

TEST(ParallelSolveTest, DirectSolveExactDdsHonorsExactThreadCounts) {
  // The DdsEngine facade clamps threads to the hardware; the free
  // function honors the exact count. This is the test that keeps the
  // work-sharing interval loop genuinely multi-threaded under TSan even
  // on small CI machines.
  const Digraph g = UniformDigraph(60, 320, 4);
  const DdsSolution sequential = SolveExactDds(g, ExactOptions{});
  for (int threads : kThreadCounts) {
    ExactOptions options;
    options.threads = threads;
    const DdsSolution parallel = SolveExactDds(g, options);
    EXPECT_EQ(parallel.density, sequential.density) << threads;
    EXPECT_EQ(parallel.pair.s, sequential.pair.s) << threads;
    EXPECT_EQ(parallel.pair.t, sequential.pair.t) << threads;
  }
  // The non-D&C exhaustive loop, same guarantee.
  ExactOptions exhaustive;
  exhaustive.divide_and_conquer = false;
  const DdsSolution seq_exhaustive = SolveExactDds(g, exhaustive);
  exhaustive.threads = 4;
  const DdsSolution par_exhaustive = SolveExactDds(g, exhaustive);
  EXPECT_EQ(par_exhaustive.density, seq_exhaustive.density);
  EXPECT_EQ(par_exhaustive.pair.s, seq_exhaustive.pair.s);
  EXPECT_EQ(par_exhaustive.pair.t, seq_exhaustive.pair.t);
}

TEST(ParallelSolveTest, DirectParallelSolveHonorsCancellation) {
  // Cancellation via a shared thread-safe SolveControl with real worker
  // threads (no facade clamp): the bracket must stay certified.
  const Digraph g = UniformDigraph(40, 220, 7);
  const double optimum = SolveExactDds(g, ExactOptions{}).density;
  for (const int64_t budget : {1, 5, 25}) {
    ExactOptions options;
    options.threads = 4;
    int64_t calls = 0;  // serialized by SolveControl's callback mutex
    SolveControl control(
        std::numeric_limits<double>::infinity(),
        [&calls, budget](const DdsProgress&) { return ++calls < budget; });
    const DdsSolution sol = SolveExactDds(g, options, &control);
    EXPECT_GE(calls, 1);
    EXPECT_LE(sol.lower_bound, optimum + 1e-9) << "budget " << budget;
    EXPECT_GE(sol.upper_bound + 1e-9, optimum) << "budget " << budget;
    if (!sol.interrupted) {
      EXPECT_NEAR(sol.density, optimum, 1e-6);
    }
  }
}

// --------------------------------------------------- anytime under threads

TEST(ParallelSolveTest, DeadlineTruncatedParallelSolveBracketsOptimum) {
  for (int threads : kThreadCounts) {
    const Digraph g = UniformDigraph(11, 45, 2);
    const double optimum = NaiveExact(g).density;
    DdsEngine engine(g);
    DdsRequest request;
    request.algorithm = DdsAlgorithm::kCoreExact;
    request.threads = threads;
    request.deadline_seconds = 1e-9;  // expires before the first min cut
    const DdsSolution sol = engine.Solve(request).value();
    ASSERT_TRUE(sol.interrupted) << "threads " << threads;
    EXPECT_LE(sol.lower_bound, optimum + 1e-9) << "threads " << threads;
    EXPECT_GE(sol.upper_bound + 1e-9, optimum) << "threads " << threads;
    EXPECT_EQ(sol.lower_bound, sol.density);
    EXPECT_GT(sol.density, 0.0);  // warm start ran before the deadline
    EXPECT_LE(sol.lower_bound, sol.upper_bound + 1e-12);
  }
}

TEST(ParallelSolveTest, CancellationViaCallbackUnderThreadsBracketsOptimum) {
  for (int threads : kThreadCounts) {
    for (const int64_t budget : {1, 5, 25}) {
      const Digraph g = UniformDigraph(40, 220, 7);
      // Too large for NaiveExact; the sequential exact solve (validated
      // against NaiveExact elsewhere) is the optimum reference.
      const double optimum = SolveExactDds(g, ExactOptions{}).density;
      DdsEngine engine(g);
      DdsRequest request;
      request.algorithm = DdsAlgorithm::kCoreExact;
      request.threads = threads;
      int64_t calls = 0;  // serialized by SolveControl's callback mutex
      request.progress = [&calls, budget](const DdsProgress& progress) {
        EXPECT_GE(progress.elapsed_seconds, 0.0);
        EXPECT_GE(progress.upper_bound, 0.0);
        return ++calls < budget;
      };
      const DdsSolution sol = engine.Solve(request).value();
      EXPECT_GE(calls, 1);
      EXPECT_LE(sol.lower_bound, optimum + 1e-9)
          << "threads " << threads << " budget " << budget;
      EXPECT_GE(sol.upper_bound + 1e-9, optimum)
          << "threads " << threads << " budget " << budget;
      if (!sol.interrupted) {
        EXPECT_NEAR(sol.density, optimum, 1e-6);
      }
    }
  }
}

// ---------------------------------------------------------- request checks

TEST(ParallelSolveTest, RequestValidationRejectsNonPositiveThreads) {
  DdsRequest request;
  request.threads = 0;
  EXPECT_EQ(ValidateRequest(request).code(), StatusCode::kInvalidArgument);
  request.threads = -3;
  EXPECT_EQ(ValidateRequest(request).code(), StatusCode::kInvalidArgument);
  request.threads = 1;
  EXPECT_TRUE(ValidateRequest(request).ok());
  request.threads = 64;  // beyond hardware concurrency is allowed
  EXPECT_TRUE(ValidateRequest(request).ok());
}

}  // namespace
}  // namespace ddsgraph
