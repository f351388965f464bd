// The ISSUE's acceptance campaign, pinned as a ctest gate: over the seeded
// fault storm (scenarios/fault_storm_replication.toml), learned replication
// must beat the safety supervisor alone on delivered work AND cycling MTTF
// while spending at most 15% more total energy — and the whole campaign must
// be bit-identical at any --jobs, because a resilience claim that moves with
// the thread count is not a claim.
//
// The lanes come from bench/resilience_campaign_util.hpp, the exact grid
// bench_resilience prints, so this gate and the report can never drift apart.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "resilience_campaign_util.hpp"

#ifndef RLTHERM_REPO_ROOT
#error "RLTHERM_REPO_ROOT must point at the source tree (set in tests/CMakeLists.txt)"
#endif

namespace rltherm::bench {
namespace {

/// Arm energy for the ≤15%-overhead gate.
double totalEnergyOf(const core::RunResult& result) {
  return result.dynamicEnergy + result.staticEnergy;
}

const exec::SweepResult& campaign() {
  static const exec::SweepResult sweep =
      exec::SweepRunner({.jobs = 1}).run(resilienceSpecs(RLTHERM_REPO_ROOT "/scenarios"));
  return sweep;
}

TEST(ResilienceAcceptanceTest, CampaignHasTheTwoArmsInReportOrder) {
  const exec::SweepResult& sweep = campaign();
  ASSERT_EQ(sweep.runs.size(), 2u);
  EXPECT_EQ(sweep.runs[0].label, "supervisor");
  EXPECT_EQ(sweep.runs[1].label, "replication");
  // Both arms rode the same storm: each retires exactly the one core.dead
  // core, so the comparison below is like-for-like.
  EXPECT_EQ(sweep.runs[0].result.faultStats.coresRetired, 1u);
  EXPECT_EQ(sweep.runs[1].result.faultStats.coresRetired, 1u);
  // The storm actually bit both arms — a campaign where nothing was ever at
  // risk would pass the gates vacuously.
  EXPECT_GT(sweep.runs[0].result.taintedIterations, 0);
}

TEST(ResilienceAcceptanceTest, ReplicationDeliversMoreWorkThanTheSupervisorAlone) {
  const exec::SweepResult& sweep = campaign();
  const core::RunResult& supervisor = sweep.runs[0].result;
  const core::RunResult& replication = sweep.runs[1].result;
  EXPECT_GT(replication.deliveredIterations, supervisor.deliveredIterations);
  EXPECT_LT(replication.taintedIterations, supervisor.taintedIterations);
  // Both arms still finish the scenario's two applications.
  EXPECT_EQ(supervisor.completions.size(), 2u);
  EXPECT_EQ(replication.completions.size(), 2u);
}

TEST(ResilienceAcceptanceTest, ReplicationImprovesCyclingMttf) {
  const exec::SweepResult& sweep = campaign();
  EXPECT_GT(sweep.runs[1].result.reliability.cyclingMttfYears,
            sweep.runs[0].result.reliability.cyclingMttfYears);
}

TEST(ResilienceAcceptanceTest, EnergyOverheadStaysWithinFifteenPercent) {
  const exec::SweepResult& sweep = campaign();
  const double supervisorEnergy = totalEnergyOf(sweep.runs[0].result);
  const double replicationEnergy = totalEnergyOf(sweep.runs[1].result);
  ASSERT_GT(supervisorEnergy, 0.0);
  EXPECT_LE(replicationEnergy / supervisorEnergy, 1.15);
}

TEST(ResilienceAcceptanceTest, CampaignIsBitIdenticalAtAnyJobsCount) {
  const exec::SweepResult& serial = campaign();
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
    const exec::SweepResult parallel =
        exec::SweepRunner({.jobs = jobs}).run(resilienceSpecs(RLTHERM_REPO_ROOT "/scenarios"));
    ASSERT_EQ(parallel.runs.size(), serial.runs.size()) << "jobs " << jobs;
    for (std::size_t i = 0; i < serial.runs.size(); ++i) {
      const core::RunResult& a = serial.runs[i].result;
      const core::RunResult& b = parallel.runs[i].result;
      // EXPECT_EQ on doubles on purpose: bit-identical is the claim.
      EXPECT_EQ(a.deliveredIterations, b.deliveredIterations) << "jobs " << jobs;
      EXPECT_EQ(a.taintedIterations, b.taintedIterations) << "jobs " << jobs;
      EXPECT_EQ(a.finalDeliveredRatio, b.finalDeliveredRatio) << "jobs " << jobs;
      EXPECT_EQ(a.reliability.cyclingMttfYears, b.reliability.cyclingMttfYears)
          << "jobs " << jobs;
      EXPECT_EQ(totalEnergyOf(a), totalEnergyOf(b)) << "jobs " << jobs;
      EXPECT_EQ(a.coreTraces, b.coreTraces) << "jobs " << jobs;
    }
  }
}

}  // namespace
}  // namespace rltherm::bench
