#ifndef DDSGRAPH_SERVE_PROTOCOL_H_
#define DDSGRAPH_SERVE_PROTOCOL_H_

#include <map>
#include <optional>
#include <string>

#include "serve/scheduler.h"
#include "util/status.h"

/// \file
/// The dds_server wire protocol (DESIGN.md §13, §14).
///
/// Requests and responses are single JSON objects carried in the framed
/// byte stream of util/socket.h ("<len>\n<json>\n"); responses are
/// written through util/json_writer.h, which owns their bytes. The
/// optional `op` key selects the verb (default "solve"). One solve
/// request:
///
///   {"graph": "reviews", "algo": "core-exact", "weighted": true,
///    "deadline_ms": 50, "threads": 2, "id": 17}
///
/// `graph` is required; everything else is optional (`algo` defaults to
/// core-exact, no deadline, threads 1). `id` — a JSON string or number —
/// is echoed verbatim in the response so a pipelining client can match
/// responses that complete out of order. Unknown keys are rejected, not
/// ignored: a typo'd "deadlin_ms" must fail loudly, not silently run
/// without a deadline.
///
/// The streaming verbs added with the dynamic graph subsystem, plus the
/// health probe:
///
///   {"op": "update", "graph": "reviews", "edges": "+3 9, -1 2", "id": 2}
///   {"op": "list_graphs", "id": 3}
///   {"op": "server_stats", "id": 4}
///   {"op": "health", "id": 5}
///
/// `update` applies an edge batch to a live catalog graph; the batch
/// travels as one *string* in the compact ops grammar of
/// stream/edge_stream.h (`+u v [w]` / `-u v`, comma-separated) because
/// the request schema is deliberately flat — no arrays. Each verb's key
/// set is validated strictly (e.g. `algo` on an `update` is an error).
/// Responses may nest: `update` echoes the new version and sizes,
/// `list_graphs` returns one object per catalog entry, `server_stats`
/// the scheduler's accepted/rejected/served/queued counters plus the
/// response-cache and batching counters (DESIGN.md §15), and `health` a
/// cheap liveness summary — like `server_stats` it is answered on the
/// connection thread, off-scheduler, so it stays responsive when the
/// admission queue is saturated.
///
/// A success response wraps the engine's SolutionJson (so the wire schema
/// and the CLI --json schema share one serializer) plus the serve-path
/// latency split and the cache provenance markers (`version` is the
/// entry version the solution corresponds to; compare it against an
/// `update` ack's version to check freshness):
///
///   {"id": 17, "status": "ok", "graph": "reviews", "algo": "core-exact",
///    "queue_ms": 0.21, "solve_ms": 3.75, "version": 4,
///    "cache_hit": false, "coalesced": false, "solution": {...}}
///
/// An error response carries the Status verbatim:
///
///   {"id": 17, "status": "error", "code": "UNAVAILABLE",
///    "message": "admission queue full (64 requests queued); retry later"}
///
/// Algorithm names are validated through the PR 2 registry
/// (ParseAlgorithmName), so the server and dds_tool accept exactly the
/// same `algo` vocabulary — one source of truth.

namespace ddsgraph {

/// One scalar JSON value with its verbatim source slice (for echoing).
struct JsonScalar {
  enum class Kind { kString, kNumber, kBool, kNull };
  Kind kind = Kind::kNull;
  std::string string_value;  ///< decoded, for kString
  double number = 0;         ///< for kNumber
  bool boolean = false;      ///< for kBool
  std::string raw;           ///< verbatim source slice, valid JSON
};

/// Parses one *flat* JSON object — string keys, scalar values (string /
/// number / true / false / null). Nested objects or arrays are rejected:
/// the request schema is flat by design, and rejecting nesting keeps the
/// parser small enough to audit. Duplicate keys are rejected.
Result<std::map<std::string, JsonScalar>> ParseFlatJsonObject(
    const std::string& json);

/// The parsed wire request, before registry/catalog resolution.
struct WireRequest {
  std::string id_raw;  ///< verbatim id token to echo; empty = absent
  /// solve | update | list_graphs | server_stats | health
  std::string op = "solve";
  std::string graph;
  std::string algo = "core-exact";
  std::optional<bool> weighted;  ///< client's expectation, if stated
  double deadline_ms = 0;        ///< 0 = none
  int64_t threads = 1;
  std::string edges;  ///< update only: compact ops string (ParseEdgeOps)
};

/// Parses and schema-checks one request object (types, ranges, unknown
/// keys, and the per-verb key matrix — e.g. `edges` is required for
/// op=update and forbidden elsewhere). Algorithm-name validity is *not*
/// checked here — that happens in ToServeRequest against the registry, so
/// the two error classes stay distinguishable in messages; likewise the
/// `edges` grammar is parsed by the server via ParseEdgeOps.
Result<WireRequest> ParseWireRequest(const std::string& json);

/// Resolves the wire request into a scheduler ServeRequest via the
/// algorithm registry: unknown `algo` → InvalidArgument naming the known
/// algorithms (the same help string dds_tool prints).
Result<ServeRequest> ToServeRequest(const WireRequest& wire);

/// Serializes a success response (see the file comment). The top-level
/// `queue_ms` / `solve_ms` / `cache_hit` / `coalesced` fields are read
/// from `response.solution.stats`. `solution_json` is the engine's
/// SolutionJson output, embedded verbatim.
std::string OkResponseJson(const WireRequest& wire,
                           const ServeResponse& response,
                           const std::string& solution_json);

/// Serializes an error response for `status`. `id_raw` may be empty.
std::string ErrorResponseJson(const std::string& id_raw,
                              const Status& status);

/// Serializes the response to an `update` verb:
///   {"id": 2, "status": "ok", "op": "update", "graph": "reviews",
///    "version": 5, "applied": 3, "num_vertices": 400, "num_edges": 2310}
std::string UpdateResponseJson(const WireRequest& wire,
                               const CatalogEntry::UpdateResult& result);

/// Serializes the response to a `list_graphs` verb: one object per entry
/// (name, weighted, version, num_vertices, num_edges, solves), in catalog
/// (name) order. Responses may nest — only *requests* are flat.
std::string ListGraphsResponseJson(const std::string& id_raw,
                                   const GraphCatalog& catalog);

/// Serializes the response to a `server_stats` verb from the scheduler's
/// counters plus the catalog size. Since PR 9 the object also carries
/// the fast-path counters: coalesced/batches/batched and the
/// cache_enabled/cache_hits/cache_misses/cache_evictions/
/// cache_recent_evictions/cache_invalidations/cache_entries/cache_bytes
/// group (all-zero
/// counters with "cache_enabled": false when the cache is off).
std::string ServerStatsResponseJson(const std::string& id_raw,
                                    const GraphCatalog& catalog,
                                    const RequestScheduler& scheduler);

/// Serializes the response to a `health` verb:
///   {"id": 5, "status": "ok", "op": "health", "healthy": true,
///    "accepting": true, "num_graphs": 3, "queued": 0, "reasons": []}
/// `healthy` equals `accepting` (between Start and Stop) — the liveness
/// bit a probe branches on. `status` is the *quality* summary: "ok", or
/// "degraded" when the server is alive but struggling, with the
/// machine-checkable causes listed in `reasons`:
///   "queue_saturated"    admission queue at >= 80% of capacity
///   "wal_sync_errors"    a WAL fsync has failed (ack durability at risk)
///   "cache_evicting"     the response cache evicted within the recent
///                        window (decays when the pressure stops)
/// A draining server (`accepting` false) also reports "degraded" with
/// reason "not_accepting".
std::string HealthResponseJson(const std::string& id_raw,
                               const GraphCatalog& catalog,
                               const RequestScheduler& scheduler);

/// Scans `json` for `"key": ` (JsonKeyNeedle, util/json_writer.h)
/// followed by a number and returns it.
/// Substring-based on purpose: response JSON nests (solution, stats) and
/// the load client only needs a few numeric fields, not a full parser.
/// Returns nullopt when the key is absent.
std::optional<double> FindJsonNumber(const std::string& json,
                                     const std::string& key);

/// Scans `json` for `"key": "<string>"` and returns the decoded string
/// contents (escapes resolved, `\uXXXX` and surrogate pairs as UTF-8).
/// Returns nullopt when absent or malformed.
std::optional<std::string> FindJsonString(const std::string& json,
                                          const std::string& key);

/// The bit-comparable slice of a response's embedded solution: from the
/// opening brace of the "solution" object up to (excluding) its
/// `, "stats"` suffix — density, pair sizes, vertex lists, bounds and the
/// interrupted flag, all deterministically formatted. Two solves of the
/// same request must match on this slice byte-for-byte; the stats that
/// follow (timings, schedule-dependent counters) legitimately differ.
Result<std::string> SolutionSliceForCompare(
    const std::string& response_json);

}  // namespace ddsgraph

#endif  // DDSGRAPH_SERVE_PROTOCOL_H_
