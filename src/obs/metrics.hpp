// MetricsRegistry: named counters, gauges and fixed-bucket histograms.
//
// Design constraints (shared with the rest of src/obs/):
//  - Single-threaded, like the simulator itself. No atomics, no locks.
//  - The registry hands out STABLE references (node-based storage), so hot
//    paths look a metric up once and then touch a plain integer/double.
//  - Zero cost when observability is off: nothing in the library constructs
//    a registry unless a sink was attached (see obs/session.hpp); guarded
//    call sites skip even the name lookup.
//
// Naming convention: `subsystem.noun.verb` (e.g. "manager.epoch.decide",
// "runner.runs.complete"), lowercase [a-z0-9_] segments joined by '.'.
// The registry enforces the charset and at least two segments; the
// three-segment convention is documented in docs/ARCHITECTURE.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/session.hpp"

namespace rltherm::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed uniform-width buckets over [lo, hi); values outside the range land
/// in dedicated underflow/overflow counters instead of being clamped, so a
/// mis-sized range is visible in the data rather than silently distorted.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void observe(double value);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double minSeen() const noexcept { return min_; }
  [[nodiscard]] double maxSeen() const noexcept { return max_; }

  /// Bucket-interpolated quantile estimate for q in [0, 1] (0 with no
  /// observations). Ranks landing in a bucket interpolate linearly across
  /// its width; ranks in the underflow/overflow tails return the exact
  /// observed min/max (the only values known out there). The estimate is
  /// clamped to [minSeen, maxSeen], so p50/p95/p99 are always inside the
  /// observed range even for coarse buckets.
  [[nodiscard]] double quantile(double q) const;

  /// Merges `other` (same lo/hi/bucket spec — enforced) into this histogram;
  /// the parallel sweep engine uses this to fold per-run histograms into one
  /// deterministic aggregate in index order.
  void absorb(const Histogram& other);

  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }
  [[nodiscard]] std::size_t bucketCount() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t bucketValue(std::size_t bucket) const;
  /// Lower edge of bucket i (upper edge is lowerEdge(i) + bucket width).
  [[nodiscard]] double lowerEdge(std::size_t bucket) const;
  [[nodiscard]] std::uint64_t underflow() const noexcept { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class MetricsRegistry {
 public:
  /// Find-or-create. References stay valid for the registry's lifetime.
  /// A name may be registered as only ONE kind of metric.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Re-requesting an existing histogram requires the same (lo, hi, buckets).
  Histogram& histogram(const std::string& name, double lo, double hi,
                       std::size_t buckets);

  [[nodiscard]] std::size_t counterCount() const noexcept { return counters_.size(); }
  [[nodiscard]] std::size_t gaugeCount() const noexcept { return gauges_.size(); }
  [[nodiscard]] std::size_t histogramCount() const noexcept {
    return histograms_.size();
  }

  /// Visitation in name order (std::map iteration), for summary tables.
  template <typename F>
  void forEachCounter(F&& f) const {
    for (const auto& [name, metric] : counters_) f(name, metric);
  }
  template <typename F>
  void forEachGauge(F&& f) const {
    for (const auto& [name, metric] : gauges_) f(name, metric);
  }
  template <typename F>
  void forEachHistogram(F&& f) const {
    for (const auto& [name, metric] : histograms_) f(name, metric);
  }

  /// The enforced part of the naming convention: >= 2 lowercase
  /// [a-z0-9_] segments joined by single dots.
  [[nodiscard]] static bool validName(const std::string& name);

 private:
  void requireFreshOrKind(const std::string& name, const char* kind) const;

  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Adds `n` to the ambient registry's counter `name`. A no-op without a
/// registry, and for n == 0 (a zero never registers a counter).
inline void bumpCounter(const char* name, std::uint64_t n = 1) {
  if (MetricsRegistry* registry = metrics(); registry != nullptr && n > 0) {
    registry->counter(name).add(n);
  }
}

}  // namespace rltherm::obs
