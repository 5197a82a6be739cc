#include "dds/solver.h"

#include <sstream>

#include "dds/engine.h"
#include "util/json_writer.h"
#include "util/table.h"

namespace ddsgraph {

std::string SolverStats::ToString() const {
  std::ostringstream os;
  os << "ratios=" << ratios_probed << " flows=" << flow_networks_built
     << " reused=" << flow_networks_reused
     << " warm_aug=" << warm_start_augmentations
     << " arcs=" << arcs_scanned
     << " dinic_solves=" << flow_solves_dinic
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
  const auto label = [&labels](VertexId v) -> uint64_t {
    return labels.empty() ? v : labels[v];
  };
  const SolverStats& stats = solution.stats;
  JsonWriter json;
  json.Reserve(640 + 12 * (solution.pair.s.size() + solution.pair.t.size()));
  json.BeginObject()
      .Key("density").RoundTrip(solution.density)
      .Key("pair_edges").Int(solution.pair_edges)
      .Key("s_size").Int(solution.pair.s.size())
      .Key("t_size").Int(solution.pair.t.size())
      .Key("s").IntArray(solution.pair.s, label)
      .Key("t").IntArray(solution.pair.t, label)
      .Key("lower_bound").RoundTrip(solution.lower_bound)
      .Key("upper_bound").RoundTrip(solution.upper_bound)
      .Key("interrupted").Bool(solution.interrupted)
      .Key("stats").BeginObject()
      .Key("ratios_probed").Int(stats.ratios_probed)
      .Key("flow_networks_built").Int(stats.flow_networks_built)
      .Key("flow_networks_reused").Int(stats.flow_networks_reused)
      .Key("warm_start_augmentations").Int(stats.warm_start_augmentations)
      .Key("arcs_scanned").Int(stats.arcs_scanned)
      .Key("global_relabels").Int(stats.global_relabels)
      .Key("flow_solves_dinic").Int(stats.flow_solves_dinic)
      .Key("flow_solves_push_relabel").Int(stats.flow_solves_push_relabel)
      .Key("binary_search_iters").Int(stats.binary_search_iters)
      .Key("max_network_nodes").Int(stats.max_network_nodes)
      .Key("intervals_pruned").Int(stats.intervals_pruned)
      .Key("prior_engine_solves").Int(stats.prior_engine_solves)
      .Key("queue_ms").Double(stats.queue_ms, 6)
      .Key("solve_ms").Double(stats.solve_ms, 6)
      .Key("cache_hit").Bool(stats.cache_hit)
      .Key("coalesced").Bool(stats.coalesced)
      .Key("seconds").Double(stats.seconds, 6)
      .EndObject()
      .EndObject();
  return json.Take();
}

}  // namespace ddsgraph
