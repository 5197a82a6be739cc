#include "serve/scheduler.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "util/logging.h"

namespace ddsgraph {

RequestScheduler::RequestScheduler(const GraphCatalog* catalog,
                                   SchedulerOptions options)
    : catalog_(catalog),
      options_(options),
      cache_(options.cache_bytes > 0
                 ? std::make_unique<ResponseCache>(ResponseCacheOptions{
                       options.cache_bytes,
                       options.cache_eviction_window_s})
                 : nullptr) {
  CHECK(catalog != nullptr);
  CHECK(options.workers >= 1)
      << "scheduler needs >= 1 worker, got " << options.workers;
  CHECK(options.queue_capacity >= 1)
      << "queue capacity must be >= 1, got " << options.queue_capacity;
  CHECK(options.batch_max >= 1)
      << "batch_max must be >= 1, got " << options.batch_max;
}

RequestScheduler::~RequestScheduler() { Stop(); }

void RequestScheduler::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    CHECK(!started_) << "RequestScheduler::Start called twice";
    started_ = true;
  }
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Status RequestScheduler::Submit(ServeRequest request, ServeCallback done) {
  CHECK(done != nullptr) << "Submit needs a completion callback";
  // Cheap validation happens at admission so overload rejections and bad
  // requests never cost a queue slot or a worker wakeup.
  const CatalogEntry* entry = catalog_->Find(request.graph);
  if (entry == nullptr) {
    return Status::NotFound("no graph named '" + request.graph +
                            "' in the catalog");
  }
  RETURN_IF_ERROR(ValidateRequest(request.request));

  // cached_version() is the lock-free mirror, so this read never stalls
  // behind a solve holding the entry mutex — the whole point of the
  // admission fast path. It may trail a concurrent update, never lead
  // it: a trailing read only means a miss (or a hit on the version the
  // request could legitimately have been ordered before the update).
  const int64_t admit_version = entry->cached_version();
  const bool cachable = cache_ != nullptr && IsCachableRequest(request.request);
  std::string request_key;
  std::string flight_key;
  if (cachable) {
    request_key = CanonicalRequestKey(request.request);
    // The version belongs in the flight key too: identical requests
    // straddling an update must not coalesce, their answers differ.
    flight_key = request.graph;
    flight_key += '\x1f';
    flight_key += std::to_string(admit_version);
    flight_key += '\x1f';
    flight_key += request_key;
  }

  std::optional<DdsSolution> hit;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) {
      return Status::Unavailable("scheduler is not accepting requests" +
                                 std::string(stopping_ ? " (stopping)"
                                                       : " (not started)"));
    }
    if (cachable) {
      hit = cache_->Lookup(request.graph, admit_version, request_key);
      if (!hit.has_value()) {
        auto it = inflight_.find(flight_key);
        if (it != inflight_.end()) {
          // Single-flight: ride the admitted identical solve instead of
          // queueing a duplicate. No queue slot — a waiter adds no work.
          it->second->waiters.push_back(
              Waiter{std::move(done), WallTimer(), /*coalesced=*/true});
          ++accepted_;
          ++coalesced_;
          return Status::Ok();
        }
      }
    }
    if (!hit.has_value()) {
      if (queue_.size() >=
          static_cast<size_t>(options_.queue_capacity)) {
        ++rejected_;
        return Status::Unavailable(
            "admission queue full (" +
            std::to_string(options_.queue_capacity) +
            " requests queued); retry later");
      }
      auto flight = std::make_unique<Flight>();
      flight->request = std::move(request);
      flight->entry = entry;
      flight->request_key = std::move(request_key);
      flight->flight_key = std::move(flight_key);
      flight->admit_version = admit_version;
      flight->waiters.push_back(
          Waiter{std::move(done), WallTimer(), /*coalesced=*/false});
      if (cachable) inflight_[flight->flight_key] = flight.get();
      queue_.push_back(std::move(flight));
      ++accepted_;
    }
  }
  if (hit.has_value()) {
    // Serve the memoized solution synchronously on the submitting
    // thread: no queue slot, no worker wakeup, and by the version key
    // it is bit-identical to the solve this request would have run.
    ServeResponse response;
    response.entry = entry;
    response.version = admit_version;
    response.cache_hit = true;
    response.solution = std::move(hit).value();
    response.solution.stats.queue_ms = 0;
    response.solution.stats.solve_ms = 0;
    response.solution.stats.cache_hit = true;
    response.solution.stats.coalesced = false;
    done(std::move(response));
    return Status::Ok();
  }
  work_cv_.notify_one();
  return Status::Ok();
}

void RequestScheduler::WorkerLoop() {
  for (;;) {
    // One pickup takes a whole same-(entry, version) group: the flights
    // share the entry's warm engine back to back instead of ping-ponging
    // the entry mutex across workers interleaved with other graphs.
    std::vector<std::unique_ptr<Flight>> group;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        // stopping_ with an empty queue: the drain is complete.
        return;
      }
      group.push_back(std::move(queue_.front()));
      queue_.pop_front();
      const CatalogEntry* entry = group.front()->entry;
      const int64_t version = group.front()->admit_version;
      for (auto it = queue_.begin();
           it != queue_.end() &&
           group.size() < static_cast<size_t>(options_.batch_max);) {
        if ((*it)->entry == entry && (*it)->admit_version == version) {
          group.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
      if (group.size() >= 2) {
        ++batches_;
        batched_ += static_cast<int64_t>(group.size());
      }
    }
    for (auto& flight : group) Process(std::move(flight));
  }
}

void RequestScheduler::Process(std::unique_ptr<Flight> flight) {
  // End-to-end deadline: charge the leader's queue wait against the
  // budget. An already-expired request still runs with an epsilon budget
  // — the anytime engine stops at its first control check and returns
  // the incumbent with a certified bracket, so expiry degrades the
  // answer's tightness, never its validity. (Deadlined requests never
  // coalesce, so only the leader's budget exists.)
  DdsRequest effective = flight->request.request;
  if (effective.deadline_seconds !=
      std::numeric_limits<double>::infinity()) {
    const double waited_s = flight->waiters.front().queued_at.Millis() / 1e3;
    effective.deadline_seconds =
        std::max(1e-9, effective.deadline_seconds - waited_s);
  }

  WallTimer solve_timer;
  int64_t solved_version = 0;
  Result<DdsSolution> solved =
      flight->entry->Solve(effective, &solved_version);
  const double solve_ms = solve_timer.Millis();

  // Memoize before unhooking from inflight_, in that order: a Submit
  // racing this completion then finds the result in the cache or the
  // flight in inflight_, never neither (neither would mean a wasted
  // duplicate solve). Keyed on the version the solve actually ran
  // against — an update that slipped in between admission and pickup
  // moves the key forward with the answer.
  const bool memoize = solved.ok() && cache_ != nullptr &&
                       !flight->flight_key.empty() &&
                       !solved.value().interrupted;
  if (memoize) {
    cache_->Insert(flight->request.graph, solved_version,
                   flight->request_key, solved.value());
  }
  std::vector<Waiter> waiters;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!flight->flight_key.empty()) inflight_.erase(flight->flight_key);
    waiters = std::move(flight->waiters);
    // Counted before any `done` runs: a client that reads `served` right
    // after its answer arrives must already see its own solve.
    served_ += static_cast<int64_t>(waiters.size());
  }

  for (size_t i = 0; i < waiters.size(); ++i) {
    ServeResponse response;
    response.entry = flight->entry;
    response.version = solved_version;
    response.coalesced = waiters[i].coalesced;
    // Per-waiter end-to-end accounting: everything since this request's
    // own admission that wasn't the shared solve was waiting. Followers
    // that attached mid-solve clamp to 0.
    response.solve_ms = solve_ms;
    response.queue_ms =
        std::max(0.0, waiters[i].queued_at.Millis() - solve_ms);
    if (solved.ok()) {
      response.solution = solved.value();
      response.solution.stats.queue_ms = response.queue_ms;
      response.solution.stats.solve_ms = response.solve_ms;
      response.solution.stats.cache_hit = false;
      response.solution.stats.coalesced = response.coalesced;
    } else {
      response.status = solved.status();
    }
    waiters[i].done(std::move(response));
  }
}

void RequestScheduler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

int64_t RequestScheduler::InvalidateGraph(const std::string& graph) {
  return cache_ != nullptr ? cache_->InvalidateGraph(graph) : 0;
}

int64_t RequestScheduler::accepted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return accepted_;
}

int64_t RequestScheduler::served() const {
  std::lock_guard<std::mutex> lock(mu_);
  return served_;
}

int64_t RequestScheduler::rejected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejected_;
}

int64_t RequestScheduler::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(queue_.size());
}

int64_t RequestScheduler::coalesced() const {
  std::lock_guard<std::mutex> lock(mu_);
  return coalesced_;
}

int64_t RequestScheduler::batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_;
}

int64_t RequestScheduler::batched() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batched_;
}

bool RequestScheduler::accepting() const {
  std::lock_guard<std::mutex> lock(mu_);
  return started_ && !stopping_;
}

ResponseCacheCounters RequestScheduler::cache_counters() const {
  return cache_ != nullptr ? cache_->Counters() : ResponseCacheCounters{};
}

}  // namespace ddsgraph
