#ifndef DDSBENCH_HARNESS_H_
#define DDSBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "util/status.h"

/// \file
/// The measuring side of the repository benchmark: spans, metrics, host
/// contention and input files. Nothing here calls into the library's
/// solvers or servers; the workloads do, and wrap each call in a span.

namespace ddsbench {

using Clock = std::chrono::steady_clock;

/// One timed interval. `parent` and `request` are 0 when absent; spans of
/// one served request share `request`.
struct Span {
  std::string name;
  int64_t id = 0;
  int64_t parent = 0;
  int64_t request = 0;
  int64_t start_ns = 0;  ///< since the tracer was created
  int64_t end_ns = 0;
};

/// In-memory span store of a traced run, written out once at exit.
/// Thread-safe: client threads record concurrently.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  int64_t NewRequestId() {
    return next_request_.fetch_add(1, std::memory_order_relaxed);
  }

  void Record(std::string name, int64_t id, int64_t parent, int64_t request,
              Clock::time_point start, Clock::time_point end);
  /// A span whose duration was reported by the server rather than timed
  /// here; it is placed at `start` and attached under `parent`.
  void RecordReported(std::string name, int64_t parent, int64_t request,
                      Clock::time_point start, double duration_ms);

  /// Durations (ms) of every span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;

  ddsgraph::Status WriteJson(const std::string& path) const;

 private:
  const Clock::time_point epoch_ = Clock::now();
  std::atomic<int64_t> next_id_{1};
  std::atomic<int64_t> next_request_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

/// Times one call. With a null tracer it is a plain stopwatch, so the
/// untraced run measures through the same code without recording spans.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent = 0,
             int64_t request = 0);
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes the span (first call only) and returns its duration in ms.
  double End();
  int64_t id() const { return id_; }
  Clock::time_point start() const { return start_; }

 private:
  Tracer* const tracer_;
  const char* const name_;
  const int64_t id_;
  const int64_t parent_;
  const int64_t request_;
  const Clock::time_point start_;
  bool ended_ = false;
  double ms_ = 0;
};

/// Named metrics in insertion order, each with its unit and the number of
/// samples it aggregates.
class Metrics {
 public:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    int64_t samples = 0;
  };

  void Set(const std::string& name, double value, const std::string& unit,
           int64_t samples);
  const Metric* Find(const std::string& name) const;
  const std::vector<Metric>& all() const { return metrics_; }

  /// Median / quantile of `values`, recorded with its sample count.
  void SetMedian(const std::string& name, const std::vector<double>& values,
                 const std::string& unit);
  void SetQuantile(const std::string& name, const std::vector<double>& values,
                   double q, const std::string& unit);

 private:
  std::vector<Metric> metrics_;
};

/// What one workload run reports back to main.
struct Outcome {
  int64_t attempted = 0;
  int64_t ok = 0;
  /// Oracle failures; any entry makes the run incorrect (exit 1).
  std::vector<std::string> divergences;

  void Diverged(const std::string& what);
  double ok_frac() const {
    return attempted > 0 ? static_cast<double>(ok) / attempted : 0;
  }
};

// ------------------------------------------------------------- host

/// Snapshot of host CPU accounting: /proc/stat steal and total ticks, and
/// the run delay (time runnable but waiting for a CPU) of every live
/// thread of this process from /proc/self/task/*/schedstat.
struct HostSample {
  int64_t steal_ticks = 0;
  int64_t total_ticks = 0;
  std::map<int, int64_t> run_delay_ns;  ///< by thread id
};
HostSample SampleHost();

/// Run delay of the calling thread so far (ns); short-lived benchmark
/// threads add this to `exited_delay_ns` before they end.
int64_t ThisThreadRunDelayNs();

/// Contention diagnostics over a window: steal share of all CPU ticks, and
/// run delay accrued by the threads alive at the end of the window plus
/// `exited_delay_ns` from threads that ended inside it.
struct HostContention {
  double steal_frac = 0;
  double run_delay_ms = 0;
};
HostContention Contention(const HostSample& begin, const HostSample& end,
                          int64_t exited_delay_ns);

/// CPU seconds used by the whole process so far.
double ProcessCpuSeconds();

/// VmHWM in MiB.
double PeakRssMib();

// ------------------------------------------------------------- inputs

/// Writes `g` as an edge list (`u v` or `u v w` lines) with isolated
/// vertices dropped and the rest renumbered densely in id order, so the
/// library's loader reads it back with identity labels and the file's ids
/// are the ids updates and oracles use.
ddsgraph::Status WriteEdgeList(const ddsgraph::Digraph& g, const std::string& path);
ddsgraph::Status WriteEdgeList(const ddsgraph::WeightedDigraph& g,
                     const std::string& path);

/// Removes `dir` recursively (if present) and creates it empty.
ddsgraph::Status ResetDir(const std::string& dir);

/// The comparable prefix of a direct SolutionJson (everything before the
/// schedule-dependent stats), byte-comparable with
/// SolutionSliceForCompare on a served response.
std::string DirectSolutionSlice(const std::string& solution_json);

double Median(std::vector<double> values);

}  // namespace ddsbench

#endif  // DDSBENCH_HARNESS_H_
