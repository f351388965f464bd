// Process-wide cache of prepared RC step operators.
//
// prepare() costs O(n³) (matrix exponential + LU solves) while a step costs
// O(n²); a sweep that builds hundreds of identical machines, or a tenant
// re-preparing the same package at the same tick, pays the O(n³) once when
// the cache is warm. Entries are keyed by an FNV-1a fingerprint over every
// input that determines the operators (step size, conductance matrix,
// inverse capacitances — see RcNetwork::prepare), following the
// canonical-encoding convention of the checkpoint store's fingerprint
// (src/store/policy_checkpoint.cpp). The cache is always on.
//
// Determinism: a cached PreparedStep is immutable and byte-identical to
// what a cold prepare() would compute (same inputs, same deterministic
// algorithm), so sharing it across sweep worker threads cannot change any
// simulated value — the sweep bit-identity guarantee holds with the cache
// on (tested at --jobs 1/2/8). The hit/miss COUNTS, however, depend on
// scheduling order; they live in process-global atomics here, read through
// stats() by sweep and benchmark reports, and never enter a run's private
// metrics session, so per-run metric streams stay scheduling-independent.
#pragma once

#include <cstdint>
#include <memory>

#include "common/matrix.hpp"
#include "common/types.hpp"

namespace rltherm::thermal {

/// Everything prepare() derives from (stepSize, network): immutable once
/// built, shared by every network with the same fingerprint.
struct PreparedStep {
  Seconds stepSize = 0.0;
  std::uint64_t fingerprint = 0;
  Matrix expOp;  ///< E = e^{Ah}
  Matrix phiOp;  ///< Φ = A⁻¹(E−I)C⁻¹
};

struct ExpOpCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;
};

class ExpOperatorCache {
 public:
  /// The process-wide instance.
  [[nodiscard]] static ExpOperatorCache& instance();

  /// Returns the cached step for the fingerprint (counting a hit), or
  /// nullptr (counting a miss).
  [[nodiscard]] std::shared_ptr<const PreparedStep> lookup(std::uint64_t fingerprint);

  /// Inserts (first writer wins) and returns the canonical shared entry —
  /// callers must keep the returned pointer, not their argument. At
  /// capacity the oldest entry is evicted.
  [[nodiscard]] std::shared_ptr<const PreparedStep> store(
      std::shared_ptr<const PreparedStep> step);

  /// Drops every entry and zeroes the counters (tests and cold-prepare
  /// benchmarks).
  void clear();

  [[nodiscard]] ExpOpCacheStats stats() const;

 private:
  ExpOperatorCache();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rltherm::thermal
