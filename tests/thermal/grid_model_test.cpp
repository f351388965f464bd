#include "thermal/grid_model.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace rltherm::thermal {
namespace {

TEST(GridModelTest, DefaultStructure) {
  const GridPackage pkg(GridThermalConfig{});
  EXPECT_EQ(pkg.coreCount(), 4u);
  EXPECT_EQ(pkg.cellRows(), 4u);
  EXPECT_EQ(pkg.cellCols(), 4u);
  EXPECT_EQ(pkg.cellCount(), 16u);
  EXPECT_EQ(pkg.network().nodeCount(), 18u);  // 16 cells + spreader + sink
  for (std::size_t core = 0; core < 4; ++core) {
    EXPECT_EQ(pkg.coreCells(core).size(), 4u);
  }
}

TEST(GridModelTest, CoarsestGridIsOneCellPerCore) {
  GridThermalConfig config;
  config.cellsPerCoreSide = 1;
  const GridPackage pkg(config);
  EXPECT_EQ(pkg.cellCount(), 4u);
  EXPECT_EQ(pkg.coreCells(0).size(), 1u);
}

TEST(GridModelTest, InvalidConfigRejected) {
  GridThermalConfig config;
  config.cellsPerCoreSide = 0;
  EXPECT_THROW(GridPackage{config}, PreconditionError);
  config = GridThermalConfig{};
  config.lateralCouplingRange = 0;
  EXPECT_THROW(GridPackage{config}, PreconditionError);
}

TEST(GridModelTest, ZeroCoresRejected) {
  GridThermalConfig config;
  config.cellsPerCoreSide = 1;
  config.coreCount = 0;
  EXPECT_THROW(GridPackage{config}, PreconditionError);
}

TEST(GridModelTest, OddCoreCountLeavesTheLastRowPartial) {
  GridThermalConfig config;
  config.coreCount = 3;
  const GridPackage grid(config);
  EXPECT_EQ(grid.cellRows(), 4u);
  EXPECT_EQ(grid.cellCols(), 4u);
  EXPECT_EQ(grid.cellCount(), 12u);
  EXPECT_EQ(grid.network().nodeCount(), 14u);  // 12 cells + spreader + sink
  EXPECT_NO_THROW((void)grid.cellNode(3, 1));
  EXPECT_THROW((void)grid.cellNode(3, 2), PreconditionError);  // no fourth core

  config.coreCount = 1;
  config.cellsPerCoreSide = 1;
  const GridPackage single(config);
  EXPECT_EQ(single.cellCols(), 1u);
  EXPECT_EQ(single.network().nodeCount(), 3u);
}

TEST(GridModelTest, UniformPowerGivesSymmetricCores) {
  GridPackage pkg(GridThermalConfig{});
  const std::vector<Watts> power(4, 6.0);
  const std::vector<Celsius> ss = pkg.network().steadyState(pkg.nodePower(power));
  pkg.network().setTemperatures(ss);
  for (std::size_t core = 1; core < 4; ++core) {
    EXPECT_NEAR(pkg.coreMeanTemperature(0), pkg.coreMeanTemperature(core), 1e-6);
  }
}

// The lumped package (one cell per core) is calibrated against the paper's
// platform; the next three cases check that calibration.
GridPackage lumpedPackage() {
  GridThermalConfig config;
  config.cellsPerCoreSide = 1;
  return GridPackage(config);
}

TEST(GridModelTest, OneCellFullLoadSteadyStateInCalibratedRange) {
  // All four cores at max-frequency power (~8.3 W dynamic + ~2.5 W leakage)
  // should land near the calibrated ~70 C the paper's platform exhibits.
  GridPackage pkg = lumpedPackage();
  pkg.settle(std::vector<Watts>(4, 10.8));
  EXPECT_GT(pkg.coreMeanTemperature(0), 60.0);
  EXPECT_LT(pkg.coreMeanTemperature(0), 80.0);
}

TEST(GridModelTest, OneCellIdleSteadyStateIsWarm) {
  GridPackage pkg = lumpedPackage();
  pkg.settle(std::vector<Watts>(4, 1.3));
  EXPECT_GT(pkg.coreMeanTemperature(0), 28.0);
  EXPECT_LT(pkg.coreMeanTemperature(0), 36.0);
}

TEST(GridModelTest, OneCellCoreTimeConstantIsFast) {
  // A power step on one core should move its junction temperature most of
  // the way to the local steady state within a few seconds (the calibrated
  // tau ~ R_jc * C_core ~ 1.3 s), while the sink barely moves.
  GridPackage pkg = lumpedPackage();
  pkg.prepare(0.01);
  const std::vector<Watts> corePower = {9.0, 1.0, 1.0, 1.0};
  const Celsius sinkBefore = pkg.network().temperature(pkg.sinkNode());
  for (int i = 0; i < 300; ++i) pkg.step(corePower);  // 3 seconds
  const Celsius coreRise = pkg.coreMeanTemperature(0) - 25.0;
  const Celsius sinkRise = pkg.network().temperature(pkg.sinkNode()) - sinkBefore;
  EXPECT_GT(coreRise, 8.0);
  EXPECT_LT(sinkRise, coreRise * 0.3);
}

TEST(GridModelTest, OneCellConductanceSumsVerticalsBeforeLaterals) {
  // Each core's diagonal entry of G adds its vertical conductance first,
  // then its lateral ones, for any parameters. Built cell by cell instead
  // (vertical after the laterals from the cells above and to the left),
  // core 3's entry differs in the last bit for these resistances.
  GridThermalConfig config;
  config.cellsPerCoreSide = 1;
  config.rc.lateralResistance = 2.3;
  config.rc.junctionToSpreader = 1.37;
  GridPackage grid(config);
  grid.prepare(0.01);

  const PackageRcConfig& rc = config.rc;
  RcNetwork::Builder reference;
  for (int core = 0; core < 4; ++core) {
    (void)reference.addNode({.name = "core", .kind = NodeKind::Core,
                             .capacitance = rc.coreCapacitance,
                             .resistanceToAmbient = std::nullopt});
  }
  const std::size_t spreader = reference.addNode(
      {.name = "spreader", .kind = NodeKind::Spreader,
       .capacitance = rc.spreaderCapacitance, .resistanceToAmbient = std::nullopt});
  const std::size_t sink = reference.addNode(
      {.name = "sink", .kind = NodeKind::Sink, .capacitance = rc.sinkCapacitance,
       .resistanceToAmbient = rc.sinkToAmbient});
  for (std::size_t core = 0; core < 4; ++core) {
    reference.connect(core, spreader, rc.junctionToSpreader);
  }
  reference.connect(0, 1, rc.lateralResistance).connect(0, 2, rc.lateralResistance);
  reference.connect(1, 3, rc.lateralResistance).connect(2, 3, rc.lateralResistance);
  reference.connect(spreader, sink, rc.spreaderToSink);
  RcNetwork network = reference.build();
  network.prepare(0.01, config.step);
  // The fingerprint hashes every bit of G, the capacitances and the step.
  EXPECT_EQ(grid.network().operatorFingerprint(), network.operatorFingerprint());
}

TEST(GridModelTest, FineGridStaysNearLumpedAverages) {
  // Refining the grid must not change the core-average temperatures much
  // (same total capacitance, same vertical conductance).
  GridThermalConfig coarseConfig;
  coarseConfig.cellsPerCoreSide = 1;
  GridThermalConfig fineConfig;
  fineConfig.cellsPerCoreSide = 3;
  GridPackage coarse(coarseConfig);
  GridPackage fine(fineConfig);

  const std::vector<Watts> power = {9.0, 1.0, 1.0, 1.0};
  coarse.network().setTemperatures(
      coarse.network().steadyState(coarse.nodePower(power)));
  fine.network().setTemperatures(fine.network().steadyState(fine.nodePower(power)));

  EXPECT_NEAR(fine.coreMeanTemperature(0), coarse.coreMeanTemperature(0), 2.5);
  EXPECT_NEAR(fine.coreMeanTemperature(3), coarse.coreMeanTemperature(3), 2.5);
}

TEST(GridModelTest, HotSpotResolvedWithinLoadedCore) {
  // A loaded core's interior cells run hotter than its cells bordering an
  // idle neighbour; peak >= mean strictly under asymmetric load.
  GridThermalConfig config;
  config.cellsPerCoreSide = 3;
  GridPackage pkg(config);
  const std::vector<Watts> power = {10.0, 0.5, 0.5, 0.5};
  pkg.network().setTemperatures(pkg.network().steadyState(pkg.nodePower(power)));
  EXPECT_GT(pkg.corePeakTemperature(0), pkg.coreMeanTemperature(0) + 0.05);
  EXPECT_GT(pkg.coreMeanTemperature(0), pkg.coreMeanTemperature(3));
}

TEST(GridModelTest, TransientSteppingWorks) {
  GridPackage pkg(GridThermalConfig{});
  pkg.network().prepare(0.01);
  const std::vector<Watts> power = {8.0, 8.0, 1.0, 1.0};
  const std::vector<Watts> nodePower = pkg.nodePower(power);
  const Celsius before = pkg.coreMeanTemperature(0);
  for (int i = 0; i < 300; ++i) pkg.network().step(nodePower);
  EXPECT_GT(pkg.coreMeanTemperature(0), before + 5.0);
}

TEST(GridModelTest, NodePowerSpreadsUniformlyOverCells) {
  const GridPackage pkg(GridThermalConfig{});
  const std::vector<Watts> power = {8.0, 0.0, 0.0, 0.0};
  const std::vector<Watts> nodePower = pkg.nodePower(power);
  for (const std::size_t cell : pkg.coreCells(0)) {
    EXPECT_DOUBLE_EQ(nodePower[cell], 2.0);  // 8 W over 4 cells
  }
  EXPECT_DOUBLE_EQ(nodePower[pkg.spreaderNode()], 0.0);
}

TEST(GridModelTest, CellNodeBoundsChecked) {
  const GridPackage pkg(GridThermalConfig{});
  EXPECT_THROW((void)pkg.cellNode(4, 0), PreconditionError);
  EXPECT_THROW((void)pkg.coreCells(4), PreconditionError);
  const std::vector<Watts> wrong(3, 1.0);
  EXPECT_THROW(pkg.nodePower(wrong), PreconditionError);
}

class GridResolutionSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GridResolutionSweep, TotalHeatBalancesAtSteadyState) {
  // Property: at steady state, total power in == power out through the sink
  // (checked via the sink temperature drop over the ambient resistance), with
  // full and partial last core rows.
  const std::vector<Watts> loads = {7.0, 3.0, 2.0, 4.0};
  for (const std::size_t cores : {std::size_t{4}, std::size_t{1}, std::size_t{3}}) {
    GridThermalConfig config;
    config.coreCount = cores;
    config.cellsPerCoreSide = GetParam();
    GridPackage pkg(config);
    const std::span<const Watts> power(loads.data(), cores);
    const std::vector<Celsius> ss = pkg.network().steadyState(pkg.nodePower(power));
    const double sinkFlow =
        (ss[pkg.sinkNode()] - config.rc.ambient) / config.rc.sinkToAmbient;
    EXPECT_NEAR(sinkFlow, std::accumulate(power.begin(), power.end(), 0.0), 1e-6)
        << cores << " cores";
  }
}

INSTANTIATE_TEST_SUITE_P(Resolutions, GridResolutionSweep, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace rltherm::thermal
