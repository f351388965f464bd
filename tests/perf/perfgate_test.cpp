// Drives the rltherm_perf_core library in-process: the report parser's
// strictness, the noise-aware comparison (fixed floor +
// CV-scaled band), the canary that check.sh uses to prove the gate can
// fail, baseline round-trips, and the trajectory append.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "perf/gate.hpp"
#include "perf/report.hpp"

namespace rltherm::perf {
namespace {

std::string tempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  ASSERT_TRUE(out.good());
  out << text;
}

/// A minimal but schema-complete report, as bench_micro_kernels --json
/// would emit it.
std::string reportJson(double medianNs, double cv, double simRate,
                       const std::string& buildType = "optimized") {
  std::ostringstream out;
  out << R"({"suite":"micro_kernels","schema_version":1,)"
      << R"("fingerprint":{"schema_version":1,"cpu_model":"testbox",)"
      << R"("core_count":4,"compiler":"gcc 12.2.0","build_type":")"
      << buildType
      << R"(","checked":false,"sanitizers":"none"},)"
      << R"("wall_ms":100,"sim_seconds":)" << simRate / 10.0
      << R"(,"sim_seconds_per_wall_second":)" << simRate
      << R"(,"hot_scopes":[{"scope":"thermal.rc.step","calls":100,)"
      << R"("total_ns":5000,"mean_ns":50,"max_ns":90}],)"
      << R"("histograms":[{"metric":"manager.epoch.decide","count":10,)"
      << R"("mean":0.02,"p50":0.02,"p95":0.03,"p99":0.04}],)"
      << R"("kernels":[{"name":"rc_step","reps":5,"min_ns":)" << medianNs * 0.9
      << R"(,"median_ns":)" << medianNs << R"(,"mad_ns":)" << medianNs * cv / 1.4826
      << R"(,"cv":)" << cv << R"(,"mean_ns":)" << medianNs << R"(,"max_ns":)"
      << medianNs * 1.2 << R"(,"sim_seconds_per_wall_second":0}]})";
  return out.str();
}

PerfReport parseReport(const std::string& json) {
  const JsonParseResult parsed = parseJson(json);
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  PerfReport report;
  const std::string error = parsePerfReport(parsed.value, report);
  EXPECT_TRUE(error.empty()) << error;
  return report;
}

TEST(PerfReportTest, ParsesTheFullSchema) {
  const PerfReport report = parseReport(reportJson(1000.0, 0.02, 5000.0));
  EXPECT_EQ(report.suite, "micro_kernels");
  EXPECT_EQ(report.schemaVersion, 1u);
  EXPECT_EQ(report.fingerprint.cpuModel, "testbox");
  EXPECT_EQ(report.fingerprint.coreCount, 4u);
  EXPECT_DOUBLE_EQ(report.simRate, 5000.0);
  ASSERT_EQ(report.kernels.size(), 1u);
  EXPECT_EQ(report.kernels[0].name, "rc_step");
  EXPECT_DOUBLE_EQ(report.kernels[0].medianNs, 1000.0);
  ASSERT_EQ(report.scopes.size(), 1u);
  EXPECT_EQ(report.scopes[0].name, "thermal.rc.step");
  EXPECT_EQ(report.scopes[0].calls, 100u);
  ASSERT_EQ(report.histograms.size(), 1u);
  EXPECT_DOUBLE_EQ(report.histograms[0].p99, 0.04);
}

TEST(PerfReportTest, RejectsPrePerfEraAndMalformedReports) {
  PerfReport report;
  const JsonParseResult noVersion =
      parseJson(R"({"suite":"x","fingerprint":{}})");
  ASSERT_TRUE(noVersion.ok());
  EXPECT_NE(parsePerfReport(noVersion.value, report).find("schema_version"),
            std::string::npos);

  const JsonParseResult noFingerprint =
      parseJson(R"({"suite":"x","schema_version":1})");
  ASSERT_TRUE(noFingerprint.ok());
  EXPECT_NE(parsePerfReport(noFingerprint.value, report).find("fingerprint"),
            std::string::npos);

  const JsonParseResult noSuite = parseJson(R"({"schema_version":1})");
  ASSERT_TRUE(noSuite.ok());
  EXPECT_FALSE(parsePerfReport(noSuite.value, report).empty());
}

TEST(PerfReportTest, RejectsRepeatedKernelAndScopeNames) {
  // The trajectory keys points by these names; a repeat would write a
  // duplicate key that the next append could not read back.
  const std::string kernel = R"({"name":"k","median_ns":5})";
  const std::string scope = R"({"scope":"s"})";
  const std::string head =
      R"({"suite":"x","schema_version":1,"fingerprint":{},)";
  PerfReport report;
  EXPECT_EQ(parsePerfReport(
                parseJson(head + R"("kernels":[)" + kernel + "," + kernel + "]}").value,
                report),
            "kernel 'k' appears twice");
  EXPECT_EQ(parsePerfReport(
                parseJson(head + R"("hot_scopes":[)" + scope + "," + scope + "]}").value,
                report),
            "scope 's' appears twice");
}

TEST(PerfGateTest, IdenticalReportsPass) {
  const PerfReport report = parseReport(reportJson(1000.0, 0.02, 5000.0));
  const GateResult result = comparePerf(report, report, {});
  EXPECT_TRUE(result.pass());
  ASSERT_EQ(result.rows.size(), 2u);  // kernel + headline
  EXPECT_FALSE(result.rows[0].regressed);
  EXPECT_FALSE(result.rows[1].regressed);
}

TEST(PerfGateTest, RegressionBeyondTheFloorIsCaught) {
  const PerfReport baseline = parseReport(reportJson(1000.0, 0.01, 5000.0));
  const PerfReport fresh = parseReport(reportJson(1300.0, 0.01, 5000.0));
  const GateResult result = comparePerf(baseline, fresh, {});
  EXPECT_FALSE(result.pass());
  ASSERT_FALSE(result.rows.empty());
  EXPECT_TRUE(result.rows[0].regressed);
  EXPECT_NEAR(result.rows[0].deltaPct, 30.0, 1e-9);
}

TEST(PerfGateTest, NoiseWithinTheCvBandIsTolerated) {
  // Baseline CV 0.08 -> threshold = max(15, 5*100*0.08) = 40%. A +30% delta
  // that fails a quiet kernel must pass this noisy one.
  const PerfReport baseline = parseReport(reportJson(1000.0, 0.08, 5000.0));
  const PerfReport fresh = parseReport(reportJson(1300.0, 0.08, 5000.0));
  const GateResult result = comparePerf(baseline, fresh, {});
  EXPECT_TRUE(result.pass());
  ASSERT_FALSE(result.rows.empty());
  EXPECT_NEAR(result.rows[0].thresholdPct, 40.0, 1e-9);
}

TEST(PerfGateTest, HeadlineRateDropIsARegression) {
  const PerfReport baseline = parseReport(reportJson(1000.0, 0.01, 5000.0));
  const PerfReport fresh = parseReport(reportJson(1000.0, 0.01, 3000.0));
  const GateResult result = comparePerf(baseline, fresh, {});
  EXPECT_FALSE(result.pass());
  const GateRow& headline = result.rows.back();
  EXPECT_TRUE(headline.higherIsBetter);
  EXPECT_TRUE(headline.regressed);
  EXPECT_NEAR(headline.deltaPct, 40.0, 1e-9);
}

TEST(PerfGateTest, CanaryFactorForcesFailureOnIdenticalReports) {
  const PerfReport report = parseReport(reportJson(1000.0, 0.02, 5000.0));
  GateConfig config;
  config.canaryFactor = 3.0;
  const GateResult result = comparePerf(report, report, config);
  EXPECT_FALSE(result.pass());
  for (const GateRow& row : result.rows) EXPECT_TRUE(row.regressed);
}

TEST(PerfGateTest, BuildTypeMismatchIsADiagnosticNotAComparison) {
  const PerfReport baseline =
      parseReport(reportJson(1000.0, 0.02, 5000.0, "optimized"));
  const PerfReport fresh = parseReport(reportJson(1000.0, 0.02, 5000.0, "debug"));
  const GateResult result = comparePerf(baseline, fresh, {});
  EXPECT_FALSE(result.pass());
  EXPECT_FALSE(result.diagnostic.empty());
  EXPECT_TRUE(result.rows.empty());
}

TEST(PerfGateTest, CrossMachineComparisonWidensTheFloor) {
  const PerfReport baseline = parseReport(reportJson(1000.0, 0.01, 5000.0));
  PerfReport fresh = parseReport(reportJson(1300.0, 0.01, 5000.0));
  fresh.fingerprint.cpuModel = "otherbox";
  // +30% would fail same-machine (floor 15%) but passes the cross-machine
  // floor of 35% — with a warning note.
  const GateResult result = comparePerf(baseline, fresh, {});
  EXPECT_TRUE(result.pass());
  ASSERT_FALSE(result.notes.empty());
  EXPECT_NE(result.notes[0].find("cross-machine"), std::string::npos);
}

TEST(PerfGateTest, MissingAndNewKernelsAreNotedNeverDropped) {
  const PerfReport baseline = parseReport(reportJson(1000.0, 0.02, 5000.0));
  PerfReport fresh = parseReport(reportJson(1000.0, 0.02, 5000.0));
  fresh.kernels[0].name = "renamed_kernel";
  const GateResult result = comparePerf(baseline, fresh, {});
  ASSERT_EQ(result.notes.size(), 2u);
  EXPECT_NE(result.notes[0].find("not in the fresh report"), std::string::npos);
  EXPECT_NE(result.notes[1].find("new"), std::string::npos);
}

TEST(PerfGateTest, MarkdownAndJsonRenderTheVerdict) {
  const PerfReport baseline = parseReport(reportJson(1000.0, 0.01, 5000.0));
  const PerfReport fresh = parseReport(reportJson(1300.0, 0.01, 5000.0));
  const GateResult result = comparePerf(baseline, fresh, {});

  std::ostringstream markdown;
  renderMarkdown(result, markdown);
  EXPECT_NE(markdown.str().find("| metric | baseline | fresh |"),
            std::string::npos);
  EXPECT_NE(markdown.str().find("**REGRESSED**"), std::string::npos);
  EXPECT_NE(markdown.str().find("perfgate: FAIL"), std::string::npos);

  std::ostringstream json;
  renderJson(result, json);
  const JsonParseResult parsed = parseJson(json.str());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_FALSE(parsed.value.boolOr("pass", true));
  const JsonValue* rows = parsed.value.find("rows");
  ASSERT_NE(rows, nullptr);
  EXPECT_FALSE(rows->items.empty());
}

TEST(PerfGateTest, BaselineFileRoundTripsThroughLoad) {
  const std::string path = tempPath("perfgate_baseline.json");
  writeFile(path, reportJson(1000.0, 0.02, 5000.0));
  PerfReport loaded;
  ASSERT_EQ(loadPerfReport(path, loaded), "");
  const PerfReport direct = parseReport(reportJson(1000.0, 0.02, 5000.0));
  const GateResult result = comparePerf(direct, loaded, {});
  EXPECT_TRUE(result.pass());
  EXPECT_NEAR(result.rows[0].deltaPct, 0.0, 1e-12);
}

TEST(PerfGateTest, MissingBaselineFileIsADiagnostic) {
  PerfReport report;
  const std::string error =
      loadPerfReport(tempPath("does_not_exist.json"), report);
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("does_not_exist.json"), std::string::npos);
}

TEST(TrajectoryTest, AppendCreatesThenExtendsTheDocument) {
  const std::string path = tempPath("perfgate_trajectory.json");
  std::remove(path.c_str());
  const PerfReport report = parseReport(reportJson(1000.0, 0.02, 5000.0));

  ASSERT_EQ(appendTrajectory(path, report, "2026-08-01"), "");
  ASSERT_EQ(appendTrajectory(path, report, "2026-08-08"), "");

  const JsonParseResult parsed = parseJsonFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_DOUBLE_EQ(parsed.value.numberOr("schema_version", 0.0), 1.0);
  const JsonValue* points = parsed.value.find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->items.size(), 2u);
  EXPECT_EQ(points->items[0].stringOr("date", ""), "2026-08-01");
  EXPECT_EQ(points->items[1].stringOr("date", ""), "2026-08-08");
  EXPECT_DOUBLE_EQ(
      points->items[0].numberOr("sim_seconds_per_wall_second", 0.0), 5000.0);
  const JsonValue* fp = points->items[0].find("fingerprint");
  ASSERT_NE(fp, nullptr);
  EXPECT_EQ(fp->stringOr("cpu_model", ""), "testbox");
  const JsonValue* kernels = points->items[0].find("kernels");
  ASSERT_NE(kernels, nullptr);
  EXPECT_NE(kernels->find("rc_step"), nullptr);
  const JsonValue* scopes = points->items[0].find("scopes");
  ASSERT_NE(scopes, nullptr);
  EXPECT_NE(scopes->find("thermal.rc.step"), nullptr);
}

TEST(TrajectoryTest, RefusesANonTrajectoryDocument) {
  const std::string path = tempPath("perfgate_not_trajectory.json");
  writeFile(path, R"({"something":"else"})");
  const PerfReport report = parseReport(reportJson(1000.0, 0.02, 5000.0));
  const std::string error = appendTrajectory(path, report, "2026-08-01");
  EXPECT_NE(error.find("not a trajectory document"), std::string::npos);
}

}  // namespace
}  // namespace rltherm::perf
