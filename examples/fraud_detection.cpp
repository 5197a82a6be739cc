// Fraud detection: locating a fake-review campaign.
//
// Scenario (the paper's motivating application): a review platform has
// organic user->product review traffic plus a paid campaign in which a
// small pool of sock-puppet accounts showers a set of products with
// reviews. The campaign forms a dense directed block — exactly what the
// directed densest subgraph objective maximizes, because it rewards
// |E(S,T)| against sqrt(|S||T|) without forcing S and T to be the same
// set (an undirected DSD would dilute the signal with the organic
// reviewers).
//
// Run: ./build/examples/fraud_detection [--accounts N] [--spammers K]

#include <algorithm>
#include <cstdio>

#include "ddsgraph.h"
#include "util/flags.h"

namespace {

double Overlap(const std::vector<ddsgraph::VertexId>& got,
               const std::vector<ddsgraph::VertexId>& truth) {
  std::vector<ddsgraph::VertexId> a = got;
  std::vector<ddsgraph::VertexId> b = truth;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<ddsgraph::VertexId> inter;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(inter));
  return b.empty() ? 0.0
                   : static_cast<double>(inter.size()) /
                         static_cast<double>(b.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ddsgraph;
  FlagSet flags("fraud_detection",
                "find a planted fake-review campaign with CoreExact");
  int64_t* accounts = flags.Int64("accounts", 4000, "platform accounts");
  int64_t* organic = flags.Int64("organic_reviews", 20000,
                                 "background review edges");
  int64_t* spammers = flags.Int64("spammers", 20, "sock-puppet accounts");
  int64_t* products = flags.Int64("products", 30, "boosted products");
  double* zeal = flags.Double("zeal", 0.9,
                              "fraction of boosted products each "
                              "sock-puppet reviews");
  flags.ParseOrDie(argc, argv);

  // Simulate the platform: organic reviews are uniform noise; the campaign
  // is a dense spammer->product block on randomly chosen vertex ids.
  const PlantedDigraph platform = PlantedDenseBlock(
      static_cast<uint32_t>(*accounts), *organic,
      static_cast<uint32_t>(*spammers), static_cast<uint32_t>(*products),
      *zeal, /*seed=*/2026);

  std::printf("platform: %u accounts, %lld review edges\n",
              platform.graph.NumVertices(),
              static_cast<long long>(platform.graph.NumEdges()));
  std::printf("hidden campaign: %zu spammers -> %zu products (zeal %.0f%%)\n",
              platform.planted_s.size(), platform.planted_t.size(),
              *zeal * 100);

  // One engine serves both passes (the serving pattern — construct per
  // graph, query many times; repeated exact solves would also reuse the
  // engine's warmed solver scratch).
  DdsEngine engine(platform.graph);
  DdsRequest request;

  // Cheap triage first: the 2-approximation narrows the graph in
  // O(sqrt(m) (n+m)).
  request.algorithm = DdsAlgorithm::kCoreApprox;
  const DdsSolution triage = engine.Solve(request).value();
  std::printf("\n[triage]  CoreApprox flags %zu accounts / %zu products "
              "(density %.2f, certified >= rho_opt/2)\n",
              triage.pair.s.size(), triage.pair.t.size(), triage.density);

  // Then the exact solver confirms. A production deployment would add
  // request.deadline_seconds here: an expired solve still returns the
  // incumbent suspects with a certified density bracket.
  request.algorithm = DdsAlgorithm::kCoreExact;
  const DdsSolution verdict = engine.Solve(request).value();
  std::printf("[verdict] CoreExact: %s\n",
              SolutionSummary(verdict).c_str());

  std::printf("\nrecovered %.0f%% of the sock-puppets and %.0f%% of the "
              "boosted products\n",
              100 * Overlap(verdict.pair.s, platform.planted_s),
              100 * Overlap(verdict.pair.t, platform.planted_t));
  const double planted_density = PairDensity(
      platform.graph, platform.planted_s, platform.planted_t);
  std::printf("planted block density %.3f vs. found density %.3f\n",
              planted_density, verdict.density);
  return 0;
}
