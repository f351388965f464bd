#include "perf/gate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace rltherm::perf {

namespace {

std::string pct(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.1f%%", value);
  return buf;
}

std::string fixed(double value, int precision) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

const KernelStats* findKernel(const PerfReport& report, const std::string& name) {
  for (const KernelStats& kernel : report.kernels) {
    if (kernel.name == name) return &kernel;
  }
  return nullptr;
}

}  // namespace

GateResult comparePerf(const PerfReport& baseline, const PerfReport& fresh,
                       const GateConfig& config) {
  GateResult result;

  if (baseline.schemaVersion != fresh.schemaVersion) {
    result.diagnostic = "schema version mismatch: baseline v" +
                        std::to_string(baseline.schemaVersion) + " vs fresh v" +
                        std::to_string(fresh.schemaVersion) +
                        "; refresh the baseline (--write-baseline)";
    return result;
  }
  if (baseline.suite != fresh.suite) {
    result.diagnostic = "suite mismatch: baseline '" + baseline.suite +
                        "' vs fresh '" + fresh.suite + "'";
    return result;
  }
  if (!baseline.fingerprint.timingComparable(fresh.fingerprint)) {
    result.diagnostic =
        "fingerprints are not timing-comparable: baseline is " +
        baseline.fingerprint.buildType +
        (baseline.fingerprint.checked ? "+checked" : "") + "/" +
        baseline.fingerprint.sanitizers + ", fresh is " +
        fresh.fingerprint.buildType +
        (fresh.fingerprint.checked ? "+checked" : "") + "/" +
        fresh.fingerprint.sanitizers +
        "; measure with the same build preset or refresh the baseline";
    return result;
  }

  double floorPct = config.floorPct;
  if (baseline.fingerprint.cpuModel != fresh.fingerprint.cpuModel) {
    floorPct = std::max(floorPct, kCrossMachineFloorPct);
    result.notes.push_back(
        "cross-machine comparison (baseline '" + baseline.fingerprint.cpuModel +
        "' vs fresh '" + fresh.fingerprint.cpuModel + "'); floor widened to " +
        fixed(floorPct, 0) + "%");
  }

  // Per-kernel medians, lower is better. Kernels only in one side are noted,
  // never silently dropped.
  for (const KernelStats& base : baseline.kernels) {
    const KernelStats* now = findKernel(fresh, base.name);
    if (now == nullptr) {
      result.notes.push_back("kernel '" + base.name +
                             "' is in the baseline but not in the fresh report");
      continue;
    }
    GateRow row;
    row.name = base.name;
    row.baseline = base.medianNs;
    row.fresh = now->medianNs * config.canaryFactor;
    row.deltaPct = 100.0 * (row.fresh - row.baseline) / row.baseline;
    row.thresholdPct = std::max(floorPct, config.cvMult * 100.0 * base.cv);
    row.regressed = row.deltaPct > row.thresholdPct;
    if (row.deltaPct < -row.thresholdPct) {
      result.notes.push_back("kernel '" + base.name + "' improved by " +
                             pct(row.deltaPct) +
                             "; consider refreshing the baseline");
    }
    result.rows.push_back(row);
  }
  for (const KernelStats& now : fresh.kernels) {
    if (findKernel(baseline, now.name) == nullptr) {
      result.notes.push_back("kernel '" + now.name +
                             "' is new (not in the baseline); it will be gated "
                             "after the next --write-baseline");
    }
  }

  // Headline sim rate, higher is better. Suite-style reports have no
  // kernels; this row is what gates them.
  if (baseline.simRate > 0.0 && fresh.simRate > 0.0) {
    GateRow row;
    row.name = "headline sim rate";
    row.higherIsBetter = true;
    row.baseline = baseline.simRate;
    row.fresh = fresh.simRate / config.canaryFactor;
    row.deltaPct = 100.0 * (row.baseline - row.fresh) / row.baseline;
    row.thresholdPct = floorPct;
    row.regressed = row.deltaPct > row.thresholdPct;
    result.rows.push_back(row);
  }

  if (result.rows.empty()) {
    result.diagnostic =
        "nothing comparable: neither kernels nor a headline sim rate shared "
        "between baseline and fresh report";
  }
  return result;
}

void renderMarkdown(const GateResult& result, std::ostream& out) {
  if (!result.diagnostic.empty()) {
    out << "perfgate: NOT COMPARABLE — " << result.diagnostic << "\n";
    return;
  }
  out << "| metric | baseline | fresh | delta | threshold | status |\n";
  out << "|---|---:|---:|---:|---:|---|\n";
  for (const GateRow& row : result.rows) {
    const double scale = row.higherIsBetter ? 1.0 : 1e6;  // ns -> ms
    const char* unit = row.higherIsBetter ? " sim s/s" : " ms";
    out << "| " << row.name << " | " << fixed(row.baseline / scale, 3) << unit
        << " | " << fixed(row.fresh / scale, 3) << unit << " | "
        << pct(row.higherIsBetter ? -row.deltaPct : row.deltaPct) << " | "
        << fixed(row.thresholdPct, 1) << "% | "
        << (row.regressed ? "**REGRESSED**" : "ok") << " |\n";
  }
  for (const std::string& note : result.notes) out << "note: " << note << "\n";
  out << (result.pass() ? "perfgate: PASS\n" : "perfgate: FAIL\n");
}

void renderJson(const GateResult& result, std::ostream& out) {
  JsonWriter json(out);
  json.beginObject();
  json.key("pass").value(result.pass());
  json.key("diagnostic").value(result.diagnostic);
  json.key("rows").beginArray();
  for (const GateRow& row : result.rows) {
    json.beginObject();
    json.key("name").value(row.name);
    json.key("baseline").value(row.baseline);
    json.key("fresh").value(row.fresh);
    json.key("delta_pct").value(row.deltaPct);
    json.key("threshold_pct").value(row.thresholdPct);
    json.key("regressed").value(row.regressed);
    json.endObject();
  }
  json.endArray();
  json.key("notes").beginArray();
  for (const std::string& note : result.notes) json.value(note);
  json.endArray();
  json.endObject();
  out << "\n";
}

std::string appendTrajectory(const std::string& path, const PerfReport& fresh,
                             const std::string& date) {
  JsonValue doc;
  std::ifstream probe(path);
  if (probe.good()) {
    probe.close();
    JsonParseResult parsed = parseJsonFile(path);
    if (!parsed.ok()) return parsed.error;
    doc = std::move(parsed.value);
    if (doc.kind != JsonValue::Kind::Object || doc.find("points") == nullptr) {
      return path + ": not a trajectory document (expected {\"points\": [...]})";
    }
  } else {
    doc.kind = JsonValue::Kind::Object;
    doc.members.emplace_back("schema_version", JsonValue::makeNumber(1.0));
    JsonValue points;
    points.kind = JsonValue::Kind::Array;
    doc.members.emplace_back("points", std::move(points));
  }

  JsonValue point;
  point.kind = JsonValue::Kind::Object;
  point.members.emplace_back("date", JsonValue::makeString(date));
  point.members.emplace_back("suite", JsonValue::makeString(fresh.suite));
  JsonValue fp;
  fp.kind = JsonValue::Kind::Object;
  fp.members.emplace_back("cpu_model",
                          JsonValue::makeString(fresh.fingerprint.cpuModel));
  fp.members.emplace_back(
      "core_count",
      JsonValue::makeNumber(static_cast<double>(fresh.fingerprint.coreCount)));
  fp.members.emplace_back("compiler",
                          JsonValue::makeString(fresh.fingerprint.compiler));
  fp.members.emplace_back("build_type",
                          JsonValue::makeString(fresh.fingerprint.buildType));
  JsonValue checked;
  checked.kind = JsonValue::Kind::Bool;
  checked.boolean = fresh.fingerprint.checked;
  fp.members.emplace_back("checked", checked);
  fp.members.emplace_back("sanitizers",
                          JsonValue::makeString(fresh.fingerprint.sanitizers));
  point.members.emplace_back("fingerprint", std::move(fp));
  point.members.emplace_back("sim_seconds_per_wall_second",
                             JsonValue::makeNumber(fresh.simRate));
  JsonValue kernels;
  kernels.kind = JsonValue::Kind::Object;
  for (const KernelStats& kernel : fresh.kernels) {
    JsonValue k;
    k.kind = JsonValue::Kind::Object;
    k.members.emplace_back("median_ns", JsonValue::makeNumber(kernel.medianNs));
    k.members.emplace_back("cv", JsonValue::makeNumber(kernel.cv));
    if (kernel.simRate > 0.0) {
      k.members.emplace_back("sim_seconds_per_wall_second",
                             JsonValue::makeNumber(kernel.simRate));
    }
    kernels.members.emplace_back(kernel.name, std::move(k));
  }
  point.members.emplace_back("kernels", std::move(kernels));
  JsonValue scopes;
  scopes.kind = JsonValue::Kind::Object;
  for (const ScopeAgg& scope : fresh.scopes) {
    JsonValue s;
    s.kind = JsonValue::Kind::Object;
    s.members.emplace_back(
        "calls", JsonValue::makeNumber(static_cast<double>(scope.calls)));
    s.members.emplace_back("mean_ns", JsonValue::makeNumber(scope.meanNs));
    scopes.members.emplace_back(scope.name, std::move(s));
  }
  point.members.emplace_back("scopes", std::move(scopes));

  // members is non-const on a mutable doc; find() is const-only, so locate
  // the points array by hand.
  for (auto& [name, value] : doc.members) {
    if (name == "points" && value.kind == JsonValue::Kind::Array) {
      value.items.push_back(std::move(point));
      std::string text;
      writeJson(doc, text);
      std::ofstream out(path, std::ios::trunc);
      if (!out.good()) return path + ": cannot write";
      out << text << "\n";
      return "";
    }
  }
  return path + ": trajectory document has no 'points' array";
}

}  // namespace rltherm::perf
