// E5 — scalability (the paper's "vary |E|" figure) plus the
// thread-scaling section of the shared-memory parallel solve layer
// (DESIGN.md §11).
//
// Part 1: runtime of PeelApprox, CoreApprox and CoreExact on 20%..100%
// edge prefixes of the largest power-law graph. Expected shape: all grow
// roughly linearly in |E|; CoreApprox stays well below PeelApprox
// throughout; CoreExact tracks CoreApprox plus the flow overhead.
//
// Part 2: the same solvers on the full graph across a thread ladder
// {1, 2, 4, 8}, driven through the DdsEngine facade exactly as a serving
// deployment would. The peel ladder's rung tree shares its forked walks
// across the pool (bit-identical winners: every rung gets its own pass's
// result, merged in rung order), and the exact
// ratio-space search becomes a work-sharing interval loop (same optimum,
// deterministic tie-breaks). The facade clamps the fan-out to the probed
// hardware concurrency (oversubscribed CPU-bound peels only thrash), so
// besides the wall-clock table the run *verifies* output identity at
// every thread count and emits machine-readable results (--json_out,
// default BENCH_e5.json) with the hardware concurrency and the effective
// worker count per rung — a ladder measured on a single-core container
// honestly reads as ~1x with every rung clamped to one worker.
//
// Every timed cell of both parts is the median of --reps runs.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <thread>

#include "bench_common.h"
#include "core/core_approx.h"
#include "dds/core_exact.h"
#include "dds/engine.h"
#include "dds/peel_approx.h"
#include "util/flags.h"
#include "util/table.h"

namespace ddsgraph {
namespace bench {
namespace {

int Main(int argc, const char* const* argv) {
  FlagSet flags("e5_scalability",
                "E5: runtime vs |E| fraction + thread scaling");
  bool* quick = flags.Bool("quick", false, "use the smaller base graph");
  bool* with_exact =
      flags.Bool("with_exact", true, "include the CoreExact column");
  int64_t* max_threads = flags.Int64(
      "max_threads", 8, "top of the thread ladder (1,2,4,... up to this)");
  int64_t* reps = flags.Int64(
      "reps", kReps,
      "repetitions per timed cell; the median and quartiles are reported");
  std::string* json_out = JsonOutFlag(&flags, "BENCH_e5.json");
  flags.ParseOrDie(argc, argv);

  const Dataset base = ScalabilityDataset(*quick);
  PrintBanner("E5", "scalability on " + base.name);
  Table t({"fraction", "n", "m", "peel-approx", "core-approx",
           "core-exact"});
  const int num_reps = static_cast<int>(std::max<int64_t>(1, *reps));
  for (double fraction : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    const Digraph g = EdgeFraction(base.graph, fraction);
    const Timing t_peel = TimeMedian(num_reps, [&] { (void)PeelApprox(g); });
    const Timing t_core = TimeMedian(num_reps, [&] { (void)CoreApprox(g); });
    std::string exact_cell = "-";
    if (*with_exact) {
      exact_cell = FormatSeconds(
          TimeMedian(num_reps, [&] {
            (void)SolveExactDds(g, ExactOptions{});
          }).median);
    }
    t.AddRow({FormatDouble(fraction * 100, 0) + "%",
              std::to_string(g.NumVertices()), std::to_string(g.NumEdges()),
              FormatSeconds(t_peel.median), FormatSeconds(t_core.median),
              exact_cell});
  }
  t.PrintMarkdown(std::cout);

  // ------------------------------------------------- thread scaling
  const Digraph& g = base.graph;
  const unsigned hardware = std::thread::hardware_concurrency();
  std::printf("\nthread scaling on %s (n=%u m=%lld, hardware "
              "concurrency %u):\n",
              base.name.c_str(), g.NumVertices(),
              static_cast<long long>(g.NumEdges()), hardware);
  Table st({"threads", "workers", "peel-approx", "speedup", "core-exact",
            "speedup", "identical"});
  JsonWriter json = BenchJson("e5_scalability", num_reps);
  json.Key("dataset").String(base.name)
      .Key("n").Int(g.NumVertices())
      .Key("m").Int(g.NumEdges())
      .Key("note").String(
          "speedup = threads-1 median / this median through the DdsEngine "
          "facade, which clamps the fan-out to the hardware "
          "(effective_threads); peel outputs verified bit-identical and "
          "exact optimum densities verified equal across the ladder")
      .Key("thread_scaling").BeginArray();

  DdsEngine engine(g);
  DdsSolution peel_base;
  DdsSolution exact_base;
  Timing t_peel1;
  Timing t_exact1;
  bool all_identical = true;
  for (int threads = 1; threads <= *max_threads; threads *= 2) {
    DdsRequest peel_request;
    peel_request.algorithm = DdsAlgorithm::kPeelApprox;
    peel_request.threads = threads;
    DdsRequest exact_request;
    exact_request.algorithm = DdsAlgorithm::kCoreExact;
    exact_request.threads = threads;
    const int effective =
        hardware > 0 ? std::min<int>(threads, static_cast<int>(hardware))
                     : threads;
    DdsSolution peel;
    DdsSolution exact;
    const Timing t_peel = TimeMedian(
        num_reps, [&] { peel = engine.Solve(peel_request).value(); });
    Timing t_exact;
    if (*with_exact) {
      t_exact = TimeMedian(
          num_reps, [&] { exact = engine.Solve(exact_request).value(); });
    }
    bool identical = true;
    if (threads == 1) {
      peel_base = peel;
      exact_base = exact;
      t_peel1 = t_peel;
      t_exact1 = t_exact;
    } else {
      // The parallel layer's contract: approximations bit-identical;
      // exact solvers identical in optimum density, with the returned
      // pair witnessing it (pair equality holds only when the optimum
      // witness is unique, so it is not asserted here — see
      // ExactOptions::threads).
      identical = peel.pair.s == peel_base.pair.s &&
                  peel.pair.t == peel_base.pair.t &&
                  peel.density == peel_base.density;
      if (*with_exact) {
        identical = identical && exact.density == exact_base.density &&
                    exact.lower_bound == exact.density &&
                    !exact.pair.Empty();
      }
      all_identical = all_identical && identical;
    }
    const double peel_speedup = t_peel1.median / t_peel.median;
    const double exact_speedup =
        *with_exact ? t_exact1.median / t_exact.median : 0.0;
    st.AddRow({std::to_string(threads), std::to_string(effective),
               FormatSeconds(t_peel.median),
               FormatDouble(peel_speedup, 2) + "x",
               *with_exact ? FormatSeconds(t_exact.median) : "-",
               *with_exact ? FormatDouble(exact_speedup, 2) + "x" : "-",
               identical ? "yes" : "NO"});
    json.BeginObject()
        .Key("threads").Int(threads)
        .Key("effective_threads").Int(effective);
    AddTiming(&json, "peel_seconds", t_peel);
    json.Key("peel_speedup").Double(peel_speedup, 3);
    AddTiming(&json, "core_exact_seconds", t_exact);
    json.Key("core_exact_speedup").Double(exact_speedup, 3)
        .Key("outputs_identical").Bool(identical)
        .EndObject();
  }
  st.PrintMarkdown(std::cout);
  if (!all_identical) {
    std::fprintf(stderr,
                 "ERROR: parallel outputs differ from threads=1\n");
    return 1;
  }

  return WriteBenchJson(*json_out, &json.EndArray()) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace ddsgraph

int main(int argc, char** argv) { return ddsgraph::bench::Main(argc, argv); }
