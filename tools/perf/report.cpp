#include "perf/report.hpp"

#include <fstream>
#include <set>
#include <sstream>

namespace rltherm::perf {

namespace {

void parseFingerprint(const JsonValue& doc, Fingerprint& out) {
  out.schemaVersion =
      static_cast<std::uint32_t>(doc.numberOr("schema_version", 0.0));
  out.cpuModel = doc.stringOr("cpu_model", "unknown");
  out.coreCount = static_cast<std::uint64_t>(doc.numberOr("core_count", 0.0));
  out.compiler = doc.stringOr("compiler", "unknown");
  out.buildType = doc.stringOr("build_type", "unknown");
  out.checked = doc.boolOr("checked", false);
  out.sanitizers = doc.stringOr("sanitizers", "unknown");
}

}  // namespace

std::string parsePerfReport(const JsonValue& doc, PerfReport& out) {
  if (doc.kind != JsonValue::Kind::Object) {
    return "perf report is not a JSON object";
  }
  out.suite = doc.stringOr("suite", "");
  if (out.suite.empty()) return "perf report has no 'suite' field";
  out.schemaVersion =
      static_cast<std::uint32_t>(doc.numberOr("schema_version", 0.0));
  if (out.schemaVersion == 0) {
    return "perf report has no 'schema_version' (pre-perf-era bench JSON? "
           "re-run the bench with --json)";
  }
  const JsonValue* fp = doc.find("fingerprint");
  if (fp == nullptr || fp->kind != JsonValue::Kind::Object) {
    return "perf report has no 'fingerprint' object";
  }
  parseFingerprint(*fp, out.fingerprint);
  out.wallMs = doc.numberOr("wall_ms", 0.0);
  out.simSeconds = doc.numberOr("sim_seconds", 0.0);
  out.simRate = doc.numberOr("sim_seconds_per_wall_second", 0.0);

  // Kernel and scope names become object keys in the trajectory, so a
  // repeated name would write a document the strict reader then refuses.
  std::set<std::string> names;
  if (const JsonValue* kernels = doc.find("kernels");
      kernels != nullptr && kernels->kind == JsonValue::Kind::Array) {
    for (const JsonValue& k : kernels->items) {
      KernelStats stats;
      stats.name = k.stringOr("name", "");
      if (stats.name.empty()) return "kernel entry without a 'name'";
      if (!names.insert(stats.name).second) {
        return "kernel '" + stats.name + "' appears twice";
      }
      stats.reps = static_cast<std::uint64_t>(k.numberOr("reps", 0.0));
      stats.minNs = k.numberOr("min_ns", 0.0);
      stats.medianNs = k.numberOr("median_ns", 0.0);
      if (stats.medianNs <= 0.0) {
        return "kernel '" + stats.name + "' has no positive 'median_ns'";
      }
      stats.madNs = k.numberOr("mad_ns", 0.0);
      stats.cv = k.numberOr("cv", 0.0);
      stats.meanNs = k.numberOr("mean_ns", 0.0);
      stats.maxNs = k.numberOr("max_ns", 0.0);
      stats.simRate = k.numberOr("sim_seconds_per_wall_second", 0.0);
      out.kernels.push_back(std::move(stats));
    }
  }

  names.clear();
  if (const JsonValue* scopes = doc.find("hot_scopes");
      scopes != nullptr && scopes->kind == JsonValue::Kind::Array) {
    for (const JsonValue& s : scopes->items) {
      ScopeAgg agg;
      agg.name = s.stringOr("scope", "");
      if (!names.insert(agg.name).second) return "scope '" + agg.name + "' appears twice";
      agg.calls = static_cast<std::uint64_t>(s.numberOr("calls", 0.0));
      agg.totalNs = s.numberOr("total_ns", 0.0);
      agg.meanNs = s.numberOr("mean_ns", 0.0);
      agg.maxNs = s.numberOr("max_ns", 0.0);
      out.scopes.push_back(std::move(agg));
    }
  }

  if (const JsonValue* histograms = doc.find("histograms");
      histograms != nullptr && histograms->kind == JsonValue::Kind::Array) {
    for (const JsonValue& h : histograms->items) {
      HistogramSummary summary;
      summary.metric = h.stringOr("metric", "");
      summary.count = static_cast<std::uint64_t>(h.numberOr("count", 0.0));
      summary.mean = h.numberOr("mean", 0.0);
      summary.p50 = h.numberOr("p50", 0.0);
      summary.p95 = h.numberOr("p95", 0.0);
      summary.p99 = h.numberOr("p99", 0.0);
      out.histograms.push_back(std::move(summary));
    }
  }
  return "";
}

JsonParseResult parseJsonFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    JsonParseResult result;
    result.error = path + ": cannot read file";
    return result;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  JsonParseResult result = parseJson(buffer.str());
  if (!result.ok()) {
    result.error = path + ": offset " + std::to_string(result.offset) + ": " + result.error;
  }
  return result;
}

std::string loadPerfReport(const std::string& path, PerfReport& out) {
  const JsonParseResult parsed = parseJsonFile(path);
  if (!parsed.ok()) return parsed.error;
  const std::string error = parsePerfReport(parsed.value, out);
  return error.empty() ? "" : path + ": " + error;
}

}  // namespace rltherm::perf
