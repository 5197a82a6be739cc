#include "dds/engine.h"

#include <cmath>
#include <thread>
#include <utility>

#include "core/core_approx.h"
#include "dds/density.h"
#include "dds/flow_exact.h"
#include "dds/lp_exact.h"
#include "dds/naive_exact.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ddsgraph {
namespace {

// The registry adapter for the core 2-approximation: convert the
// CoreApprox result shape into a DdsSolution with the certified
// [density, 2 sqrt(x y)] bracket, reporting skyline sweeps through the
// same ratios_probed counter every other solver uses.
template <typename G>
DdsSolution CoreApproxSolution(const G& g, int threads) {
  ThreadPool pool(threads);
  const CoreApproxResult approx = CoreApprox(g, &pool);
  DdsSolution solution;
  solution.pair = DdsPair{approx.core.s, approx.core.t};
  solution.density = approx.density;
  solution.pair_edges = PairWeight(g, solution.pair.s, solution.pair.t);
  solution.lower_bound = approx.density;
  solution.upper_bound = approx.upper_bound;
  solution.stats.ratios_probed = approx.sweeps;
  return solution;
}

// Graph-aware validation: the size-guarded algorithms CHECK-abort when
// called directly; through the facade an oversized graph is a Status.
Status ValidateGraphSize(const DdsRequest& request, int64_t n) {
  if (request.algorithm == DdsAlgorithm::kNaiveExact &&
      n > kNaiveExactMaxVertices) {
    return Status::InvalidArgument(
        "naive-exact enumerates 4^n pairs; n=" + std::to_string(n) +
        " exceeds the limit of " + std::to_string(kNaiveExactMaxVertices));
  }
  if (request.algorithm == DdsAlgorithm::kLpExact &&
      n > kLpExactMaxVertices) {
    return Status::InvalidArgument(
        "lp-exact solves a dense LP per ratio; n=" + std::to_string(n) +
        " exceeds the limit of " + std::to_string(kLpExactMaxVertices));
  }
  if (request.algorithm == DdsAlgorithm::kFlowExact ||
      request.algorithm == DdsAlgorithm::kDcExact ||
      request.algorithm == DdsAlgorithm::kCoreExact) {
    const ExactOptions preset =
        ExactPresetFor(request.algorithm, request.exact);
    if (!preset.divide_and_conquer && n > preset.max_exhaustive_n) {
      return Status::InvalidArgument(
          AlgorithmName(request.algorithm) +
          std::string(" enumerates O(n^2) ratios; n=") + std::to_string(n) +
          " exceeds max_exhaustive_n=" +
          std::to_string(preset.max_exhaustive_n) +
          " (raise ExactOptions::max_exhaustive_n or use a "
          "divide-and-conquer algorithm)");
    }
  }
  return Status::Ok();
}

// The one runner behind every registry row, for either weight policy.
// kFlowExact / kDcExact overlay their defining ablation flags on the
// request's ExactOptions, then the one exact engine runs with the
// engine-owned workspace and the solve's control — so weighted solves
// honor every ExactOptions flag and preset. The engine wrapper fills
// stats.seconds and stats.prior_engine_solves afterwards, so every
// algorithm reports those uniformly.
template <typename G>
Result<DdsSolution> RunAlgorithm(const G& g, const DdsRequest& request,
                                 SolveControl* control,
                                 ProbeWorkspace* workspace) {
  RETURN_IF_ERROR(ValidateGraphSize(request, g.NumVertices()));
  switch (request.algorithm) {
    case DdsAlgorithm::kNaiveExact:
      return NaiveExact(g);
    case DdsAlgorithm::kLpExact:
      return LpExact(g);
    case DdsAlgorithm::kFlowExact:
    case DdsAlgorithm::kDcExact:
    case DdsAlgorithm::kCoreExact: {
      ExactOptions options = ExactPresetFor(request.algorithm, request.exact);
      options.threads = request.threads;
      return SolveExactDds(g, options, control, workspace);
    }
    case DdsAlgorithm::kPeelApprox: {
      PeelApproxOptions options = request.peel;
      options.threads = request.threads;
      return PeelApprox(g, options);
    }
    case DdsAlgorithm::kBatchPeelApprox: {
      BatchPeelOptions options = request.batch_peel;
      options.threads = request.threads;
      return BatchPeelApprox(g, options);
    }
    case DdsAlgorithm::kCoreApprox:
      return CoreApproxSolution(g, request.threads);
  }
  // ValidateRequest rejects every value outside the enum first.
  LOG(FATAL) << "unregistered DdsAlgorithm "
             << static_cast<int>(request.algorithm);
  return DdsSolution{};
}

// ------------------------------------------------------------ registry
// One row per algorithm; everything the facade knows about an algorithm
// beyond its runner case lives here. Register a new solver by adding a
// row, an enum value and a RunAlgorithm case.
constexpr AlgorithmInfo kRegistry[] = {
    {DdsAlgorithm::kNaiveExact, "naive-exact", /*exact=*/true,
     /*uses_workspace=*/false},
    {DdsAlgorithm::kLpExact, "lp-exact", true, false},
    {DdsAlgorithm::kFlowExact, "flow-exact", true, true},
    {DdsAlgorithm::kDcExact, "dc-exact", true, true},
    {DdsAlgorithm::kCoreExact, "core-exact", true, true},
    {DdsAlgorithm::kPeelApprox, "peel-approx", false, false},
    {DdsAlgorithm::kBatchPeelApprox, "batch-peel-approx", false, false},
    {DdsAlgorithm::kCoreApprox, "core-approx", false, false},
};

}  // namespace

std::span<const AlgorithmInfo> AlgorithmRegistry() { return kRegistry; }

const AlgorithmInfo* FindAlgorithm(DdsAlgorithm algorithm) {
  for (const AlgorithmInfo& info : kRegistry) {
    if (info.algorithm == algorithm) return &info;
  }
  return nullptr;
}

const AlgorithmInfo* FindAlgorithm(std::string_view name) {
  for (const AlgorithmInfo& info : kRegistry) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

std::string AlgorithmNamesHelp() {
  std::string out;
  for (const AlgorithmInfo& info : kRegistry) {
    if (!out.empty()) out += " | ";
    out += info.name;
  }
  return out;
}

Status ValidateRequest(const DdsRequest& request) {
  const AlgorithmInfo* info = FindAlgorithm(request.algorithm);
  if (info == nullptr) {
    return Status::InvalidArgument(
        "unknown DdsAlgorithm value " +
        std::to_string(static_cast<int>(request.algorithm)) +
        "; known: " + AlgorithmNamesHelp());
  }
  if (std::isnan(request.deadline_seconds) ||
      request.deadline_seconds <= 0) {
    return Status::InvalidArgument(
        "deadline_seconds must be positive (infinity = no deadline), got " +
        std::to_string(request.deadline_seconds));
  }
  if (request.threads < 1) {
    return Status::InvalidArgument(
        "DdsRequest::threads must be >= 1 (1 = sequential), got " +
        std::to_string(request.threads));
  }
  // Only the options the chosen algorithm consumes are validated, so a
  // request object can be reused across algorithms without tripping on
  // knobs the run would ignore.
  switch (request.algorithm) {
    case DdsAlgorithm::kFlowExact:
    case DdsAlgorithm::kDcExact:
    case DdsAlgorithm::kCoreExact:
      if (request.exact.max_exhaustive_n < 1) {
        return Status::InvalidArgument(
            "ExactOptions::max_exhaustive_n must be >= 1, got " +
            std::to_string(request.exact.max_exhaustive_n));
      }
      if (FlowEngineName(request.exact.flow_engine) == nullptr) {
        return Status::InvalidArgument(
            "unknown FlowEngine value " +
            std::to_string(static_cast<int>(request.exact.flow_engine)) +
            "; known: " + FlowEngineNamesHelp());
      }
      break;
    case DdsAlgorithm::kPeelApprox:
      if (!(request.peel.epsilon > 0) ||
          !std::isfinite(request.peel.epsilon)) {
        return Status::InvalidArgument(
            "PeelApproxOptions::epsilon must be positive and finite");
      }
      break;
    case DdsAlgorithm::kBatchPeelApprox:
      if (!(request.batch_peel.ladder_epsilon > 0) ||
          !std::isfinite(request.batch_peel.ladder_epsilon) ||
          !(request.batch_peel.batch_epsilon > 0) ||
          !std::isfinite(request.batch_peel.batch_epsilon)) {
        return Status::InvalidArgument(
            "BatchPeelOptions epsilons must be positive and finite");
      }
      break;
    default:
      break;
  }
  return Status::Ok();
}

Result<DdsSolution> DdsEngine::Solve(const DdsRequest& request) {
  // Reentrancy latch first: everything below (validation aside) touches
  // engine-owned state — the workspace, the solve counters — so a racing
  // second Solve must fail before reading any of it. Cleared on every
  // exit path via RAII.
  if (solving_.test_and_set(std::memory_order_acquire)) {
    return Status::Unavailable(
        "DdsEngine::Solve is not reentrant: another solve is already "
        "running on this engine; give each thread its own engine or "
        "serialize access (the serve scheduler's one-mutex-per-graph "
        "pattern)");
  }
  struct BusyClear {
    std::atomic_flag* flag;
    ~BusyClear() { flag->clear(std::memory_order_release); }
  } busy_clear{&solving_};
  Status status = ValidateRequest(request);
  if (!status.ok()) return status;
  const AlgorithmInfo* info = FindAlgorithm(request.algorithm);
  WallTimer timer;
  SolveControl control(request.deadline_seconds, request.progress);
  // Clamp the fan-out to the hardware: beyond it, CPU-bound peels and
  // probes only pay cache-thrashing interleaving, and a serving facade
  // must bound the threads one request can spawn. (Unknown concurrency
  // probes as 0 — no clamp then.)
  DdsRequest effective = request;
  const unsigned hardware = std::thread::hardware_concurrency();
  if (hardware > 0 && effective.threads > static_cast<int>(hardware)) {
    effective.threads = static_cast<int>(hardware);
  }
  Result<DdsSolution> solved = std::visit(
      [&](const auto* graph) {
        return RunAlgorithm(*graph, effective, &control, &workspace_);
      },
      graph_);
  if (!solved.ok()) return solved;
  DdsSolution& solution = solved.value();
  // Facade-level uniformity: every algorithm reports wall time and the
  // engine-reuse provenance the same way. Only workspace-using solves
  // count as scratch inheritance — a core-approx query between two exact
  // solves must not inflate the reuse signal.
  solution.stats.seconds = timer.Seconds();
  solution.stats.prior_engine_solves = workspace_solves_;
  if (info->uses_workspace) ++workspace_solves_;
  ++num_solves_;
  return solved;
}

}  // namespace ddsgraph
