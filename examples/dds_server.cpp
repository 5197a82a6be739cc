// dds_server: the long-lived DDS serving daemon.
//
// Loads a catalog of named graphs once, keeps one hot DdsEngine per graph
// (warm ProbeWorkspace, finalized CSR flow arenas), and serves concurrent
// densest-subgraph queries over a framed JSON protocol on TCP — the
// serve-many-queries deployment the one-shot dds_tool cannot be: engines
// and workspaces survive across requests instead of dying per invocation.
//
// ## Usage
//
//   # Serve two files: "web" unweighted, "reviews" weighted (u v w lines).
//   GRAPHS="web=wiki-Vote.txt,reviews=reviews.wtxt:weighted"
//   ./build/dds_server --graphs "$GRAPHS" --port 8642 --workers 4
//
//   # No data handy: serve three deterministic synthetic demo graphs.
//   ./build/dds_server --generate_demo
//
// ## Protocol (serve/protocol.h)
//
// Frames are "<byte length>\n<json>\n". One request per frame:
//
//   REQ='{"graph": "web", "algo": "core-exact", "deadline_ms": 50}'
//   echo "$REQ" | awk '{ print length($0); print }' | nc 127.0.0.1 8642
//
// Fields: graph (required catalog name), algo (any dds_tool --algo name),
// weighted (optional expectation check), deadline_ms (end-to-end budget;
// expired exact solves return the incumbent with certified [lower, upper]
// bounds), threads (per-solve parallelism), id (echoed back).
//
// The response wraps the same SolutionJson dds_tool --json prints, plus
// queue_ms / solve_ms so clients can split waiting from computing, a
// `version` naming the exact graph state the solution corresponds to
// (compare against `update` acks to check freshness), and the `cache_hit`
// / `coalesced` fast-path markers (DESIGN.md §15). Full admission queues
// are rejected immediately with code UNAVAILABLE (backpressure) — retry
// with jitter.
//
// With --cache_mb > 0 (the default, 8 MiB) a version-keyed response
// cache answers repeated no-deadline queries without re-solving, and
// identical in-flight queries coalesce onto one solve; an `update` ack
// guarantees later responses carry at least the acked version. Same-graph
// batching (--batch_max) groups queued requests for one graph onto one
// worker pass regardless of the cache.
//
// Introspection verbs, all answered off-scheduler so they work even when
// the admission queue is saturated:
//
//   {"op": "list_graphs"}   one object per catalog entry (name, version…)
//   {"op": "server_stats"}  accepted/served/rejected/queued plus the
//                           fast-path counters: coalesced, batches,
//                           batched, cache_enabled, cache_hits,
//                           cache_misses, cache_evictions,
//                           cache_invalidations, cache_entries,
//                           cache_bytes
//   {"op": "health"}        liveness probe: {"healthy": true,
//                           "accepting": true, "num_graphs": 3,
//                           "queued": 0} — probes branch on `healthy`
//
// ## Durability (--data_dir, DESIGN.md §16)
//
//   ./build/dds_server --generate_demo --data_dir /var/lib/dds
//
// With --data_dir every graph gets a write-ahead log and a snapshot
// under the directory: each acked `update` is appended (and, under the
// default --fsync always, fsynced) to `<name>.wal` *before* the ack is
// written, and the log folds into `<name>.snap` when it outgrows
// --wal_checkpoint_mb. On startup the daemon first rebuilds every graph
// found in the directory (snapshot + WAL tail replay; a torn final
// record is truncated, never fatal) and only then loads --graphs specs
// whose names were not recovered. --fsync interval/never trade the
// ack-implies-durable guarantee for throughput.
//
// Ctrl-C (or --max_seconds for scripted runs) triggers a drain shutdown:
// no new requests are admitted, every admitted request still gets its
// response, then the process exits.

#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "ddsgraph.h"
#include "serve/server.h"
#include "util/flags.h"

namespace {

volatile std::sig_atomic_t g_interrupted = 0;

void HandleSignal(int) { g_interrupted = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace ddsgraph;
  FlagSet flags("dds_server", "long-lived DDS serving daemon");
  std::string* graphs = flags.String(
      "graphs", "",
      "comma-separated catalog specs `name=path` or `name=path:weighted`; "
      "each file loads once through the shared edge-list loader and gets "
      "a persistent engine");
  bool* generate_demo = flags.Bool(
      "generate_demo", false,
      "add three deterministic synthetic graphs (demo-rmat, demo-uniform, "
      "demo-weighted) to the catalog; the zero-setup way to try the "
      "server");
  std::string* host = flags.String("host", "127.0.0.1", "listen address");
  int64_t* port =
      flags.Int64("port", 8642, "TCP port; 0 picks an ephemeral port");
  int64_t* workers = flags.Int64(
      "workers", 2, "scheduler worker threads pulling from the queue");
  int64_t* queue_capacity = flags.Int64(
      "queue_capacity", 64,
      "admitted-but-unserved request cap; beyond it requests are "
      "rejected with UNAVAILABLE instead of queueing unboundedly");
  int64_t* cache_mb = flags.Int64(
      "cache_mb", 8,
      "version-keyed response cache budget in MiB; hits skip the solve "
      "entirely and identical in-flight requests coalesce. 0 disables "
      "both (every request solves)");
  int64_t* batch_max = flags.Int64(
      "batch_max", 8,
      "max queued same-graph requests one worker runs back to back on "
      "the warm engine; 1 disables batching");
  double* max_seconds = flags.Double(
      "max_seconds", 0,
      "exit (with a drain shutdown) after this many seconds; 0 = serve "
      "until SIGINT/SIGTERM. Used by the ctest smoke run");
  std::string* data_dir = flags.String(
      "data_dir", "",
      "durability directory: one `<name>.wal` + `<name>.snap` pair per "
      "graph; acked updates are logged before the ack and graphs found "
      "here are recovered on startup. Empty = in-memory only");
  std::string* fsync = flags.String(
      "fsync", "always",
      "WAL fsync policy: `always` (ack implies durable), `interval` "
      "(group fsync, bounded loss window), `never` (page cache only)");
  double* fsync_interval_ms = flags.Double(
      "fsync_interval_ms", 50,
      "max un-fsynced age of an acked record under --fsync interval");
  int64_t* wal_checkpoint_mb = flags.Int64(
      "wal_checkpoint_mb", 64,
      "fold a graph's WAL into a fresh snapshot when it exceeds this "
      "many MiB; 0 disables automatic checkpoints");
  double* update_timeout_ms = flags.Double(
      "update_timeout_ms", 5000,
      "max time an `update` waits for a graph busy with a long solve or "
      "compaction before answering retryable UNAVAILABLE; 0 waits "
      "forever");
  std::string* failpoints = flags.String(
      "failpoints", "",
      "arm deterministic failpoints, e.g. `wal:after_append=abort` or "
      "`serve:reject=error@3` (comma-separated; crash-test harness "
      "only)");
  flags.ParseOrDie(argc, argv);

  if (!failpoints->empty()) {
    const Status armed = Failpoints::ActivateFromSpec(*failpoints);
    if (!armed.ok()) {
      std::fprintf(stderr, "bad --failpoints: %s\n",
                   armed.ToString().c_str());
      return 1;
    }
  }

  GraphCatalog catalog;
  std::vector<std::string> recovered;
  if (!data_dir->empty()) {
    PersistOptions persist;
    persist.data_dir = *data_dir;
    const Result<FsyncPolicy> policy = ParseFsyncPolicy(*fsync);
    if (!policy.ok()) {
      std::fprintf(stderr, "bad --fsync: %s\n",
                   policy.status().ToString().c_str());
      return 1;
    }
    persist.wal.fsync = policy.value();
    persist.wal.fsync_interval_s = *fsync_interval_ms / 1e3;
    persist.checkpoint_bytes = *wal_checkpoint_mb << 20;
    const Status enabled = catalog.EnablePersistence(persist);
    if (!enabled.ok()) {
      std::fprintf(stderr, "failed to open --data_dir '%s': %s\n",
                   data_dir->c_str(), enabled.ToString().c_str());
      return 1;
    }
    // Recovery before loading: a crash-interrupted run's state (snapshot
    // + replayed WAL tail) wins over re-reading the original input file,
    // which would silently discard every acked update.
    const Status recovered_ok = catalog.RecoverAll(&recovered);
    if (!recovered_ok.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n",
                   recovered_ok.ToString().c_str());
      return 1;
    }
    for (const std::string& name : recovered) {
      const CatalogEntry* entry = catalog.Find(name);
      std::printf("recovered: %-16s v%lld from %s\n", name.c_str(),
                  static_cast<long long>(entry->version()),
                  data_dir->c_str());
    }
  }
  const auto was_recovered = [&recovered](const std::string& name) {
    for (const std::string& r : recovered) {
      if (r == name) return true;
    }
    return false;
  };
  if (!graphs->empty()) {
    // Parse "name=path[:weighted]" specs.
    std::string spec;
    std::vector<std::string> specs;
    for (const char c : *graphs + ",") {
      if (c == ',') {
        if (!spec.empty()) specs.push_back(spec);
        spec.clear();
      } else {
        spec += c;
      }
    }
    for (const std::string& s : specs) {
      const size_t eq = s.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::fprintf(stderr,
                     "bad --graphs spec '%s' (want name=path[:weighted])\n",
                     s.c_str());
        return 1;
      }
      const std::string name = s.substr(0, eq);
      std::string path = s.substr(eq + 1);
      bool weighted = false;
      const std::string suffix = ":weighted";
      if (path.size() > suffix.size() &&
          path.compare(path.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
        weighted = true;
        path.resize(path.size() - suffix.size());
      }
      // Already rebuilt from its snapshot + WAL: the durable state is
      // strictly newer than the input file (it has the acked updates),
      // so the file must not overwrite it.
      if (was_recovered(name)) continue;
      // The shared loader's Status names the offending file — surface it
      // verbatim (same path dds_tool takes).
      const Status loaded = catalog.LoadGraph(name, path, weighted);
      if (!loaded.ok()) {
        std::fprintf(stderr, "failed to load graph '%s': %s\n",
                     name.c_str(), loaded.ToString().c_str());
        return 1;
      }
    }
  }
  if (*generate_demo || catalog.size() == 0) {
    if (catalog.size() == 0 && !*generate_demo) {
      std::fprintf(stderr,
                   "no --graphs given; serving the synthetic demo catalog "
                   "(pass --graphs name=path to serve real data)\n");
    }
    // Demo attach can fail for real reasons (durable attach hits a WAL
    // error in --data_dir); a silently thinner catalog would mask that,
    // so every failure is reported even though the server still starts.
    const auto add_demo = [&](const char* name, const Status& added) {
      if (!added.ok()) {
        std::fprintf(stderr, "failed to add demo graph '%s': %s\n", name,
                     added.ToString().c_str());
      }
    };
    if (!was_recovered("demo-rmat")) {
      add_demo("demo-rmat",
               catalog.AddGraph("demo-rmat", RmatDigraph(10, 8000, 7)));
    }
    if (!was_recovered("demo-uniform")) {
      add_demo("demo-uniform",
               catalog.AddGraph("demo-uniform",
                                UniformDigraph(600, 5000, 11)));
    }
    if (!was_recovered("demo-weighted")) {
      add_demo("demo-weighted",
               catalog.AddGraph(
                   "demo-weighted",
                   UniformWeightedDigraph(400, 3000, 13, WeightOptions{})));
    }
  }

  for (const CatalogEntry* entry : catalog.Entries()) {
    std::printf("catalog: %-16s %s n=%u m=%lld\n", entry->name().c_str(),
                entry->weighted() ? "weighted  " : "unweighted",
                entry->num_vertices(),
                static_cast<long long>(entry->num_edges()));
  }

  ServerOptions options;
  options.host = *host;
  options.port = static_cast<int>(*port);
  options.scheduler.workers = static_cast<int>(*workers);
  options.scheduler.queue_capacity = static_cast<int>(*queue_capacity);
  options.scheduler.cache_bytes = static_cast<size_t>(*cache_mb) << 20;
  options.scheduler.batch_max = static_cast<int>(*batch_max);
  options.update_timeout_s = *update_timeout_ms / 1e3;
  DdsServer server(&catalog, options);
  const Result<int> started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "failed to start: %s\n",
                 started.status().ToString().c_str());
    return 1;
  }
  std::printf("dds_server listening on %s:%d (%d workers, queue %d, "
              "cache %lld MiB, batch %d, durability %s)\n",
              host->c_str(), started.value(), static_cast<int>(*workers),
              static_cast<int>(*queue_capacity),
              static_cast<long long>(*cache_mb),
              static_cast<int>(*batch_max),
              catalog.persistent() ? fsync->c_str() : "off");
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  WallTimer uptime;
  while (g_interrupted == 0 &&
         (*max_seconds <= 0 || uptime.Seconds() < *max_seconds)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("draining: %lld served, %lld rejected, %lld queued, "
              "%lld cache hits, %lld coalesced\n",
              static_cast<long long>(server.scheduler().served()),
              static_cast<long long>(server.scheduler().rejected()),
              static_cast<long long>(server.scheduler().queued()),
              static_cast<long long>(server.scheduler().cache_counters().hits),
              static_cast<long long>(server.scheduler().coalesced()));
  server.Stop();
  std::printf("dds_server stopped after %.1fs; %lld requests served\n",
              uptime.Seconds(),
              static_cast<long long>(server.scheduler().served()));
  return 0;
}
