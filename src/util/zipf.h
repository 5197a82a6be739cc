#ifndef DDSGRAPH_UTIL_ZIPF_H_
#define DDSGRAPH_UTIL_ZIPF_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/logging.h"
#include "util/random.h"

/// \file
/// Seeded Zipfian rank sampling for skewed workload generation.
///
/// The serving benchmark (ddsbench serve_cold / serve_live) draws its
/// query mix from a Zipf(s) distribution over a small universe of
/// (graph, algorithm) items: rank k (0-based) is sampled with probability
/// proportional to 1/(k+1)^s, the standard model for request popularity
/// skew. `s = 0` degenerates to uniform; `s = 1` is the classic web/cache
/// skew; larger `s` concentrates traffic on the hottest item.
///
/// The implementation precomputes the normalized CDF once (the universes
/// here are tiny — tens of items, not millions) and inverts it by binary
/// search on one xoshiro draw per sample, so sequences are deterministic
/// per seed like every other generator in the library.

namespace ddsgraph {

class ZipfGenerator {
 public:
  /// Samples 0-based ranks in [0, n) with P(k) ∝ 1/(k+1)^s. Requires
  /// n >= 1 and s >= 0 (finite).
  ZipfGenerator(int64_t n, double s, uint64_t seed) : rng_(seed) {
    CHECK(n >= 1) << "ZipfGenerator needs a non-empty universe, got n=" << n;
    CHECK(s >= 0 && std::isfinite(s))
        << "Zipf exponent must be finite and >= 0, got " << s;
    cdf_.resize(static_cast<size_t>(n));
    double total = 0;
    for (int64_t k = 0; k < n; ++k) {
      total += std::pow(static_cast<double>(k + 1), -s);
      cdf_[static_cast<size_t>(k)] = total;
    }
    for (double& c : cdf_) c /= total;
    cdf_.back() = 1.0;  // guard the binary search against rounding
  }

  /// Next rank; deterministic per (n, s, seed).
  int64_t Next() {
    const double u = rng_.NextDouble();
    // First rank whose cumulative probability exceeds u.
    size_t lo = 0;
    size_t hi = cdf_.size() - 1;
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (cdf_[mid] > u) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return static_cast<int64_t>(lo);
  }

  int64_t universe() const { return static_cast<int64_t>(cdf_.size()); }

 private:
  std::vector<double> cdf_;  ///< cdf_[k] = P(rank <= k), cdf_.back() == 1
  Rng rng_;
};

}  // namespace ddsgraph

#endif  // DDSGRAPH_UTIL_ZIPF_H_
