// The perf-report model: the parsed form of a BENCH_*.json artifact (fresh
// bench output or committed baseline under bench/baselines/). The field
// names mirror what bench/bench_util.hpp::writePerfSections and the
// bench_micro_kernels --json harness emit; obs::kPerfSchemaVersion governs
// compatibility.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace rltherm::perf {

struct Fingerprint {
  std::uint32_t schemaVersion = 0;
  std::string cpuModel;
  std::uint64_t coreCount = 0;
  std::string compiler;
  std::string buildType;
  bool checked = false;
  std::string sanitizers;

  /// Hard comparability: timing under a different build type, contract
  /// setting or sanitizer set is a different experiment, not noise.
  [[nodiscard]] bool timingComparable(const Fingerprint& other) const {
    return buildType == other.buildType && checked == other.checked &&
           sanitizers == other.sanitizers;
  }
};

/// Median-of-K repetition stats for one fixed-work kernel.
struct KernelStats {
  std::string name;
  std::uint64_t reps = 0;
  double minNs = 0.0;
  double medianNs = 0.0;
  double madNs = 0.0;
  double cv = 0.0;
  double meanNs = 0.0;
  double maxNs = 0.0;
  double simRate = 0.0;  ///< sim_seconds_per_wall_second; 0 = n/a
};

/// One hot-path timer aggregate (thermal.rc.step, rl.q.update, ...).
struct ScopeAgg {
  std::string name;
  std::uint64_t calls = 0;
  double totalNs = 0.0;
  double meanNs = 0.0;
  double maxNs = 0.0;
};

/// Histogram quantile summary (e.g. manager.epoch.decide decision latency).
struct HistogramSummary {
  std::string metric;
  std::uint64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

struct PerfReport {
  std::string suite;
  std::uint32_t schemaVersion = 0;
  Fingerprint fingerprint;
  double wallMs = 0.0;
  double simSeconds = 0.0;
  double simRate = 0.0;  ///< headline sim_seconds_per_wall_second
  std::vector<KernelStats> kernels;  ///< empty for table-style suite reports
  std::vector<ScopeAgg> scopes;
  std::vector<HistogramSummary> histograms;
};

/// Reads and parses `path` with the shared reader. Every failure (unreadable
/// file, malformed JSON) comes back in `error` as "path: ...", not thrown.
[[nodiscard]] JsonParseResult parseJsonFile(const std::string& path);

/// Parses a bench report from a JSON document / file. Returns "" on
/// success, a one-line diagnostic otherwise.
[[nodiscard]] std::string parsePerfReport(const JsonValue& doc, PerfReport& out);
[[nodiscard]] std::string loadPerfReport(const std::string& path, PerfReport& out);

}  // namespace rltherm::perf
