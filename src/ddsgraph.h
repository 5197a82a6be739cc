#ifndef DDSGRAPH_DDSGRAPH_H_
#define DDSGRAPH_DDSGRAPH_H_

/// \file
/// Umbrella header: the public API of the ddsgraph library.
///
/// ddsgraph reproduces "Efficient Algorithms for Densest Subgraph
/// Discovery on Large Directed Graphs" (SIGMOD 2020): exact and
/// approximation algorithms for the directed densest subgraph problem
/// built on [x,y]-cores. See DESIGN.md for the architecture and
/// examples/quickstart.cpp for a first program.

#include "core/core_approx.h"             // IWYU pragma: export
#include "core/xy_core.h"                 // IWYU pragma: export
#include "core/xy_core_decomposition.h"   // IWYU pragma: export
#include "dds/batch_peel_approx.h"        // IWYU pragma: export
#include "dds/control.h"                  // IWYU pragma: export
#include "dds/core_exact.h"               // IWYU pragma: export
#include "dds/density.h"                  // IWYU pragma: export
#include "dds/engine.h"                   // IWYU pragma: export
#include "dds/lp_exact.h"                 // IWYU pragma: export
#include "dds/naive_exact.h"              // IWYU pragma: export
#include "dds/peel_approx.h"              // IWYU pragma: export
#include "dds/result.h"                   // IWYU pragma: export
#include "dds/solver.h"                   // IWYU pragma: export
#include "graph/degree.h"                 // IWYU pragma: export
#include "graph/digraph.h"                // IWYU pragma: export
#include "graph/digraph_builder.h"        // IWYU pragma: export
#include "graph/generators.h"             // IWYU pragma: export
#include "graph/io.h"                     // IWYU pragma: export
#include "graph/subgraph.h"               // IWYU pragma: export
#include "graph/wcc.h"                    // IWYU pragma: export
#include "serve/catalog.h"                // IWYU pragma: export
#include "serve/client.h"                 // IWYU pragma: export
#include "serve/protocol.h"               // IWYU pragma: export
#include "serve/response_cache.h"         // IWYU pragma: export
#include "serve/scheduler.h"              // IWYU pragma: export
#include "serve/server.h"                 // IWYU pragma: export
#include "serve/wal.h"                    // IWYU pragma: export
#include "stream/dynamic_digraph.h"       // IWYU pragma: export
#include "stream/edge_stream.h"           // IWYU pragma: export
#include "util/failpoint.h"               // IWYU pragma: export
#include "util/thread_pool.h"             // IWYU pragma: export
#include "util/timer.h"                   // IWYU pragma: export
#include "util/zipf.h"                    // IWYU pragma: export

#endif  // DDSGRAPH_DDSGRAPH_H_
