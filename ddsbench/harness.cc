#include "harness.h"

#include <dirent.h>
#include <cstdlib>
#include <time.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "util/memory.h"
#include "util/stats.h"

namespace ddsbench {

using ddsgraph::Status;

// ------------------------------------------------------------- tracing

void Tracer::Record(std::string name, int64_t id, int64_t parent,
                    int64_t request, Clock::time_point start,
                    Clock::time_point end) {
  Span span;
  span.name = std::move(name);
  span.id = id;
  span.parent = parent;
  span.request = request;
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_)
          .count();
  span.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
          .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

void Tracer::RecordReported(std::string name, int64_t parent, int64_t request,
                            Clock::time_point start, double duration_ms) {
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   std::max(0.0, duration_ms)));
  Record(std::move(name), NewId(), parent, request, start, end);
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back((span.end_ns - span.start_ns) / 1e6);
  }
  return out;
}

Status Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write spans to " + path);
  std::lock_guard<std::mutex> lock(mu_);
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  out.close();
  if (!out) return Status::Internal("short write to " + path);
  return Status::Ok();
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, int64_t parent,
                       int64_t request)
    : tracer_(tracer),
      name_(name),
      id_(tracer != nullptr ? tracer->NewId() : 0),
      parent_(parent),
      request_(request),
      start_(Clock::now()) {}

double ScopedSpan::End() {
  if (ended_) return ms_;
  ended_ = true;
  const Clock::time_point end = Clock::now();
  ms_ = std::chrono::duration<double, std::milli>(end - start_).count();
  if (tracer_ != nullptr) {
    tracer_->Record(name_, id_, parent_, request_, start_, end);
  }
  return ms_;
}

// ------------------------------------------------------------- metrics

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit, int64_t samples) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = Metric{name, value, unit, samples};
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit, samples});
}

const Metrics::Metric* Metrics::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Metrics::SetMedian(const std::string& name,
                        const std::vector<double>& values,
                        const std::string& unit) {
  SetQuantile(name, values, 0.5, unit);
}

void Metrics::SetQuantile(const std::string& name,
                          const std::vector<double>& values, double q,
                          const std::string& unit) {
  Set(name, ddsgraph::Quantile(values, q), unit,
      static_cast<int64_t>(values.size()));
}

void Outcome::Diverged(const std::string& what) {
  // Keep the report readable when one defect repeats on every response.
  if (divergences.size() < 20) divergences.push_back(what);
}

double Median(std::vector<double> values) {
  return ddsgraph::Quantile(std::move(values), 0.5);
}

// ------------------------------------------------------------- host

namespace {

// Second field of a schedstat file: ns spent runnable but not running.
int64_t ReadRunDelayNs(const std::string& path) {
  std::ifstream in(path);
  int64_t on_cpu = 0;
  int64_t delay = 0;
  if (!(in >> on_cpu >> delay)) return 0;
  return delay;
}

}  // namespace

HostSample SampleHost() {
  HostSample sample;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  if (stat >> cpu && cpu == "cpu") {
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user, so it is not added again.
    for (int field = 0; field < 8; ++field) {
      int64_t ticks = 0;
      if (!(stat >> ticks)) break;
      sample.total_ticks += ticks;
      if (field == 7) sample.steal_ticks = ticks;
    }
  }
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* entry = readdir(dir)) {
      if (entry->d_name[0] == '.') continue;
      const int tid = std::atoi(entry->d_name);
      sample.run_delay_ns[tid] = ReadRunDelayNs(
          std::string("/proc/self/task/") + entry->d_name + "/schedstat");
    }
    closedir(dir);
  }
  return sample;
}

int64_t ThisThreadRunDelayNs() {
  return ReadRunDelayNs("/proc/thread-self/schedstat");
}

HostContention Contention(const HostSample& begin, const HostSample& end,
                          int64_t exited_delay_ns) {
  HostContention out;
  const int64_t ticks = end.total_ticks - begin.total_ticks;
  if (ticks > 0) {
    out.steal_frac =
        static_cast<double>(end.steal_ticks - begin.steal_ticks) / ticks;
  }
  int64_t delay = exited_delay_ns;
  for (const auto& [tid, ns] : end.run_delay_ns) {
    const auto it = begin.run_delay_ns.find(tid);
    delay += ns - (it != begin.run_delay_ns.end() ? it->second : 0);
  }
  out.run_delay_ms = delay / 1e6;
  return out;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec / 1e9;
}

double PeakRssMib() { return ddsgraph::PeakRssKib() / 1024.0; }

// ------------------------------------------------------------- inputs

namespace {

template <typename G>
Status WriteEdgeListImpl(const G& g, const std::string& path) {
  const uint32_t n = g.NumVertices();
  std::vector<int64_t> dense(n, -1);
  int64_t next = 0;
  for (uint32_t u = 0; u < n; ++u) {
    if (g.OutDegree(u) + g.InDegree(u) > 0) dense[u] = next++;
  }
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write " + path);
  out << "# ddsbench input: " << next << " vertices, " << g.NumEdges()
      << " edges\n";
  for (uint32_t u = 0; u < n; ++u) {
    const auto nbrs = g.OutNeighbors(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      out << dense[u] << ' ' << dense[nbrs[i]];
      if constexpr (G::kWeighted) out << ' ' << g.OutWeight(u, i);
      out << '\n';
    }
  }
  out.close();
  if (!out) return Status::Internal("short write to " + path);
  return Status::Ok();
}

}  // namespace

Status WriteEdgeList(const ddsgraph::Digraph& g, const std::string& path) {
  return WriteEdgeListImpl(g, path);
}

Status WriteEdgeList(const ddsgraph::WeightedDigraph& g,
                     const std::string& path) {
  return WriteEdgeListImpl(g, path);
}

Status ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (ec) return Status::Internal("cannot remove " + dir + ": " + ec.message());
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::Internal("cannot create " + dir + ": " + ec.message());
  return Status::Ok();
}

std::string DirectSolutionSlice(const std::string& solution_json) {
  return solution_json.substr(0, solution_json.find(", \"stats\""));
}

}  // namespace ddsbench
