#include "flow/min_cut.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace ddsgraph {

std::vector<bool> SourceSideOfMinCut(const FlowNetwork& net, uint32_t source) {
  CHECK(net.finalized());
  std::vector<bool> reached(net.NumNodes(), false);
  std::vector<uint32_t> queue{source};
  reached[source] = true;
  for (size_t qi = 0; qi < queue.size(); ++qi) {
    const uint32_t v = queue[qi];
    net.ForEachOutArc(v, [&](uint32_t e) {
      const uint32_t w = net.To(e);
      if (!reached[w] && net.Residual(e) > kFlowEps) {
        reached[w] = true;
        queue.push_back(w);
      }
    });
  }
  return reached;
}

FlowCap CutCapacity(const FlowNetwork& net,
                    const std::vector<bool>& source_side) {
  CHECK(net.finalized());
  CHECK_EQ(source_side.size(), net.NumNodes());
  FlowCap total = 0;
  for (uint32_t v = 0; v < net.NumNodes(); ++v) {
    if (!source_side[v]) continue;
    net.ForEachOutArc(v, [&](uint32_t e) {
      if (!source_side[net.To(e)]) total += net.InitialCap(e);
    });
  }
  return total;
}

bool VerifyMaxFlowMinCut(const FlowNetwork& net, uint32_t source,
                         uint32_t sink, FlowCap flow_value, double tol) {
  const std::vector<bool> side = SourceSideOfMinCut(net, source);
  if (side[sink]) return false;  // sink reachable => not a valid cut
  const FlowCap cut = CutCapacity(net, side);
  const double scale = std::max<FlowCap>(1.0, std::fabs(flow_value));
  return std::fabs(cut - flow_value) <= tol * scale;
}

}  // namespace ddsgraph
