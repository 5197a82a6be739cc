#ifndef DDSBENCH_WORKLOADS_H_
#define DDSBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "harness.h"

/// \file
/// The three workloads (README.md explains why each exists). A run is:
/// Prepare (write inputs and scripts from the seed; untimed), SetUp
/// setups() times (median = setup_s), Measure (the count-driven script, then the
/// oracles outside the timed window). A traced run repeats SetUp + Measure
/// with a Tracer and then calls Layers for the per-layer metrics.

namespace ddsbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int64_t seconds = 20;   ///< sizes the fixed-count script; not a timer
  std::string work_dir;   ///< inputs, WAL data dirs and span files
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Writes the input files and generates every request/update script.
  virtual ddsgraph::Status Prepare() = 0;

  /// Set-ups per run; setup_s is their median.
  virtual int setups() const = 0;

  /// Builds the ready state from the input files, replacing any previous
  /// state, and returns the seconds it took.
  virtual double SetUp(Tracer* tracer) = 0;

  /// Runs the script on the current state. End-to-end metrics go to
  /// `metrics`; the oracles run after the timed window and fill `outcome`.
  /// `host` receives the contention record of the timed window.
  virtual void Measure(Tracer* tracer, Metrics* metrics, Outcome* outcome,
                       HostContention* host) = 0;

  /// Per-layer metrics of the traced Measure just run, plus any replay
  /// calls that measure a layer directly.
  virtual void Layers(Tracer* tracer, Metrics* layers, Outcome* outcome) = 0;
};

std::unique_ptr<Workload> MakeOfflineBatch(const Options& options);
std::unique_ptr<Workload> MakeServeCold(const Options& options);
std::unique_ptr<Workload> MakeServeLive(const Options& options);

}  // namespace ddsbench

#endif  // DDSBENCH_WORKLOADS_H_
