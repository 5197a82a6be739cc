#include "dds/solver.h"

#include <sstream>

#include "dds/engine.h"
#include "util/table.h"

namespace ddsgraph {

std::string SolverStats::ToString() const {
  std::ostringstream os;
  os << "ratios=" << ratios_probed << " flows=" << flow_networks_built
     << " reused=" << flow_networks_reused
     << " warm_aug=" << warm_start_augmentations
     << " arcs=" << arcs_scanned
     << " solves[dinic=" << flow_solves_dinic
     << ",pr=" << flow_solves_push_relabel
     << ",grel=" << global_relabels << "]"
     << " iters=" << binary_search_iters
     << " max_net=" << max_network_nodes << " pruned=" << intervals_pruned;
  if (prior_engine_solves > 0) {
    os << " engine_solves=" << prior_engine_solves;
  }
  // The serve-path split only exists for scheduler-served solves; keep
  // direct-call output unchanged.
  if (queue_ms > 0 || solve_ms > 0) {
    os << " queue=" << FormatDouble(queue_ms, 3)
       << "ms solve=" << FormatDouble(solve_ms, 3) << "ms";
  }
  if (cache_hit) os << " cache_hit";
  if (coalesced) os << " coalesced";
  os << " time=" << FormatSeconds(seconds);
  return os.str();
}

const char* AlgorithmName(DdsAlgorithm algorithm) {
  const AlgorithmInfo* info = FindAlgorithm(algorithm);
  return info != nullptr ? info->name : "unknown";
}

std::optional<DdsAlgorithm> ParseAlgorithmName(const std::string& name) {
  const AlgorithmInfo* info = FindAlgorithm(std::string_view(name));
  if (info == nullptr) return std::nullopt;
  return info->algorithm;
}

bool IsExactAlgorithm(DdsAlgorithm algorithm) {
  const AlgorithmInfo* info = FindAlgorithm(algorithm);
  return info != nullptr && info->exact;
}

ExactOptions ExactPresetFor(DdsAlgorithm algorithm, ExactOptions base) {
  switch (algorithm) {
    case DdsAlgorithm::kFlowExact:
      base.divide_and_conquer = false;
      base.core_pruning = false;
      base.refine_cores_in_probe = false;
      base.approx_warm_start = false;
      break;
    case DdsAlgorithm::kDcExact:
      base.divide_and_conquer = true;
      base.core_pruning = false;
      base.refine_cores_in_probe = false;
      base.approx_warm_start = false;
      break;
    default:
      break;
  }
  return base;
}

std::string SolutionSummary(const DdsSolution& solution) {
  std::ostringstream os;
  os << "rho=" << FormatDouble(solution.density, 6)
     << " |S|=" << solution.pair.s.size()
     << " |T|=" << solution.pair.t.size()
     << " edges=" << solution.pair_edges << " ["
     << FormatDouble(solution.lower_bound, 4) << ", "
     << FormatDouble(solution.upper_bound, 4) << "] "
     << (solution.interrupted ? "(interrupted) " : "")
     << solution.stats.ToString();
  return os.str();
}

std::string SolutionJson(const DdsSolution& solution,
                         const std::vector<uint64_t>& labels) {
  std::ostringstream os;
  auto vertex_list = [&os, &labels](const std::vector<VertexId>& vs) {
    os << "[";
    for (size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) os << ",";
      os << (labels.empty() ? vs[i] : labels[vs[i]]);
    }
    os << "]";
  };
  os << "{\"density\": " << FormatRoundTrip(solution.density)
     << ", \"pair_edges\": " << solution.pair_edges
     << ", \"s_size\": " << solution.pair.s.size()
     << ", \"t_size\": " << solution.pair.t.size() << ", \"s\": ";
  vertex_list(solution.pair.s);
  os << ", \"t\": ";
  vertex_list(solution.pair.t);
  os << ", \"lower_bound\": " << FormatRoundTrip(solution.lower_bound)
     << ", \"upper_bound\": " << FormatRoundTrip(solution.upper_bound)
     << ", \"interrupted\": " << (solution.interrupted ? "true" : "false")
     << ", \"stats\": {\"ratios_probed\": " << solution.stats.ratios_probed
     << ", \"flow_networks_built\": " << solution.stats.flow_networks_built
     << ", \"flow_networks_reused\": "
     << solution.stats.flow_networks_reused
     << ", \"warm_start_augmentations\": "
     << solution.stats.warm_start_augmentations
     << ", \"arcs_scanned\": " << solution.stats.arcs_scanned
     << ", \"global_relabels\": " << solution.stats.global_relabels
     << ", \"flow_solves_dinic\": " << solution.stats.flow_solves_dinic
     << ", \"flow_solves_push_relabel\": "
     << solution.stats.flow_solves_push_relabel
     << ", \"binary_search_iters\": " << solution.stats.binary_search_iters
     << ", \"max_network_nodes\": " << solution.stats.max_network_nodes
     << ", \"intervals_pruned\": " << solution.stats.intervals_pruned
     << ", \"prior_engine_solves\": " << solution.stats.prior_engine_solves
     << ", \"queue_ms\": " << FormatDouble(solution.stats.queue_ms, 6)
     << ", \"solve_ms\": " << FormatDouble(solution.stats.solve_ms, 6)
     << ", \"cache_hit\": " << (solution.stats.cache_hit ? "true" : "false")
     << ", \"coalesced\": " << (solution.stats.coalesced ? "true" : "false")
     << ", \"seconds\": " << FormatDouble(solution.stats.seconds, 6)
     << "}}";
  return os.str();
}

}  // namespace ddsgraph
