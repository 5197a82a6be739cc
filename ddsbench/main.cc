// ddsbench: one run of one workload of the repository benchmark.
//
//   ddsbench --workload offline_batch|serve_cold|serve_live --seed N
//            --seconds S --trace 0|1 --work_dir DIR
//
// Untraced (--trace 0): set up the workload's setups() times (setup_s is
// the median), run its fixed-count script once, check every output, and
// print the end-to-end metrics. Traced (--trace 1): the same, then set up
// as many times again and run the script again with spans recorded, run
// the layer replays (replay.h), and print the per-layer metrics plus, for
// every end-to-end metric, the traced-minus-untraced difference as
// `overhead.<metric>`. Every workload prints the same metric names. Spans
// go to DIR/spans-<workload>-<seed>.json.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics. The line before it is the host-contention record of the
// untraced window. Exit status 1 when any oracle failed.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "util/flags.h"
#include "workloads.h"

namespace ddsbench {
namespace {

double SetUpMedian(Workload* workload, Tracer* tracer) {
  std::vector<double> seconds;
  for (int i = 0; i < workload->setups(); ++i) {
    seconds.push_back(workload->SetUp(tracer));
  }
  return Median(seconds);
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void PrintTable(const Metrics& metrics) {
  for (const Metrics::Metric& m : metrics.all()) {
    std::printf("  %-28s %16.6f %-6s n=%" PRId64 "\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

int Main(int argc, char** argv) {
  ddsgraph::FlagSet flags("ddsbench", "one run of the repository benchmark");
  std::string* workload_name = flags.String(
      "workload", "", "offline_batch | serve_cold | serve_live");
  int64_t* seed = flags.Int64("seed", 1, "input and script seed");
  int64_t* seconds =
      flags.Int64("seconds", 20, "nominal run length; sizes the script");
  int64_t* trace = flags.Int64("trace", 0, "1 = traced run (per-layer)");
  std::string* work_dir = flags.String(
      "work_dir", ".bench_build/work", "inputs, data dirs and span files");
  flags.ParseOrDie(argc, argv);

  Options options;
  options.workload = *workload_name;
  options.seed = static_cast<uint64_t>(*seed);
  options.seconds = *seconds;
  options.work_dir = *work_dir + "/" + options.workload;
  std::unique_ptr<Workload> workload;
  if (options.workload == "offline_batch") {
    workload = MakeOfflineBatch(options);
  } else if (options.workload == "serve_cold") {
    workload = MakeServeCold(options);
  } else if (options.workload == "serve_live") {
    workload = MakeServeLive(options);
  } else {
    std::fprintf(stderr, "unknown --workload '%s'\n", workload_name->c_str());
    return 2;
  }
  if (*seconds < 1 || (*trace != 0 && *trace != 1)) {
    std::fprintf(stderr, "--seconds must be >= 1 and --trace 0 or 1\n");
    return 2;
  }
  if (const ddsgraph::Status st = workload->Prepare(); !st.ok()) {
    std::fprintf(stderr, "prepare: %s\n", st.ToString().c_str());
    return 2;
  }

  Metrics e2e;
  Outcome outcome;
  HostContention host;
  const double setup_s = SetUpMedian(workload.get(), nullptr);
  e2e.Set("setup_s", setup_s, "s", workload->setups());
  workload->Measure(nullptr, &e2e, &outcome, &host);
  std::printf("%s seed=%" PRIu64 " end-to-end:\n", options.workload.c_str(),
              options.seed);
  PrintTable(e2e);

  Metrics reported = e2e;
  if (*trace == 1) {
    Tracer tracer;
    Metrics traced;
    Outcome traced_outcome;
    HostContention traced_host;
    traced.Set("setup_s", SetUpMedian(workload.get(), &tracer), "s",
               workload->setups());
    workload->Measure(&tracer, &traced, &traced_outcome, &traced_host);
    Metrics layers;
    workload->Layers(&tracer, &layers, &traced_outcome);
    outcome.attempted += traced_outcome.attempted;
    outcome.ok += traced_outcome.ok;
    for (const std::string& d : traced_outcome.divergences) {
      outcome.Diverged("traced run: " + d);
    }
    layers.Set("host.steal_frac", traced_host.steal_frac, "frac", 1);
    layers.Set("host.run_delay_ms", traced_host.run_delay_ms, "ms", 1);
    for (const Metrics::Metric& m : e2e.all()) {
      const Metrics::Metric* t = traced.Find(m.name);
      layers.Set("overhead." + m.name, t->value - m.value, m.unit, t->samples);
    }
    std::printf("%s seed=%" PRIu64 " per-layer (traced):\n",
                options.workload.c_str(), options.seed);
    PrintTable(layers);
    const std::string spans = options.work_dir + "/spans-" +
                              options.workload + "-" +
                              std::to_string(options.seed) + ".json";
    if (const ddsgraph::Status st = tracer.WriteJson(spans); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 2;
    }
    std::printf("spans: %s\n", spans.c_str());
    reported = layers;
  }

  for (const std::string& d : outcome.divergences) {
    std::printf("DIVERGENCE: %s\n", d.c_str());
  }
  std::printf("host: steal_frac=%.6f run_delay_ms=%.3f\n", host.steal_frac,
              host.run_delay_ms);
  const bool correct = outcome.divergences.empty();
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(outcome.attempted) +
                     ", \"failed\": " +
                     std::to_string(outcome.attempted - outcome.ok) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metrics::Metric& m : reported.all()) {
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + JsonNumber(m.value) + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ddsbench

int main(int argc, char** argv) { return ddsbench::Main(argc, argv); }
