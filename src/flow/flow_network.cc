#include "flow/flow_network.h"

#include <algorithm>

#include "util/logging.h"

namespace ddsgraph {

FlowCap RouteFlow(FlowNetwork* net, uint32_t from, uint32_t to,
                  FlowCap amount) {
  CHECK(net != nullptr);
  CHECK_NE(from, to);
  net->Finalize();
  FlowCap routed = 0;
  // Each round finds one shortest residual path by BFS and pushes its
  // bottleneck (capped at the remaining amount). BFS matters here: the
  // drain paths this function exists for (DESIGN.md §7) are two reverse
  // hops long, while an unguided DFS can tour most of the network first.
  std::vector<uint32_t> parent_arc;
  std::vector<uint32_t> queue;
  while (amount - routed > kFlowEps) {
    parent_arc.assign(net->NumNodes(), FlowNetwork::kNil);
    queue.clear();
    queue.push_back(from);
    bool reached = false;
    for (size_t qi = 0; qi < queue.size() && !reached; ++qi) {
      const uint32_t v = queue[qi];
      const uint32_t end = net->EndOut(v);
      for (uint32_t k = net->FirstOut(v); k < end; ++k) {
        const uint32_t e = net->OutArc(k);
        const uint32_t w = net->To(e);
        if (w == from || parent_arc[w] != FlowNetwork::kNil ||
            net->Residual(e) <= kFlowEps) {
          continue;
        }
        parent_arc[w] = e;
        if (w == to) {
          reached = true;
          break;
        }
        queue.push_back(w);
      }
    }
    if (!reached) return routed;
    FlowCap bottleneck = amount - routed;
    for (uint32_t v = to; v != from; v = net->To(parent_arc[v] ^ 1)) {
      bottleneck = std::min(bottleneck, net->Residual(parent_arc[v]));
    }
    for (uint32_t v = to; v != from; v = net->To(parent_arc[v] ^ 1)) {
      net->Push(parent_arc[v], bottleneck);
    }
    routed += bottleneck;
  }
  return routed;
}

}  // namespace ddsgraph
