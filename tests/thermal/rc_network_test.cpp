#include "thermal/rc_network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "thermal/expop_cache.hpp"

namespace rltherm::thermal {
namespace {

/// Single node with capacitance C and resistance R to ambient — the textbook
/// first-order RC with closed-form solution.
RcNetwork singleNode(double capacitance, double resistance, Celsius ambient) {
  RcNetwork::Builder builder;
  builder.ambient(ambient);
  builder.addNode(NodeSpec{.name = "n",
                           .kind = NodeKind::Core,
                           .capacitance = capacitance,
                           .resistanceToAmbient = resistance});
  return builder.build();
}

/// A rows x cols cell grid over a shared spreader and sink, every
/// capacitance and resistance drawn independently.
RcNetwork randomGrid(Rng& rng, std::size_t rows, std::size_t cols) {
  RcNetwork::Builder builder;
  std::vector<std::size_t> cells;
  for (std::size_t i = 0; i < rows * cols; ++i) {
    cells.push_back(builder.addNode(NodeSpec{.name = "cell" + std::to_string(i),
                                             .kind = NodeKind::Core,
                                             .capacitance = rng.uniform(0.1, 0.4),
                                             .resistanceToAmbient = std::nullopt}));
  }
  const std::size_t spreader = builder.addNode(NodeSpec{.name = "spreader",
                                                        .kind = NodeKind::Spreader,
                                                        .capacitance = rng.uniform(15.0, 35.0),
                                                        .resistanceToAmbient = std::nullopt});
  const std::size_t sink = builder.addNode(NodeSpec{.name = "sink",
                                                    .kind = NodeKind::Sink,
                                                    .capacitance = rng.uniform(100.0, 200.0),
                                                    .resistanceToAmbient = rng.uniform(0.3, 0.5)});
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t cell = cells[r * cols + c];
      if (c + 1 < cols) builder.connect(cell, cells[r * cols + c + 1], rng.uniform(2.0, 6.0));
      if (r + 1 < rows) builder.connect(cell, cells[(r + 1) * cols + c], rng.uniform(2.0, 6.0));
      builder.connect(cell, spreader, rng.uniform(4.0, 10.0));
    }
  }
  builder.connect(spreader, sink, rng.uniform(0.2, 0.3));
  return builder.build();
}

TEST(RcNetworkBuilderTest, FloatingNodeRejected) {
  RcNetwork::Builder builder;
  builder.addNode(NodeSpec{.name = "ok", .kind = NodeKind::Other, .capacitance = 1.0, .resistanceToAmbient = 1.0});
  builder.addNode(NodeSpec{.name = "floating", .kind = NodeKind::Other, .capacitance = 1.0, .resistanceToAmbient = std::nullopt});
  EXPECT_THROW(builder.build(), PreconditionError);
}

TEST(RcNetworkBuilderTest, NodeConnectedThroughGraphIsAccepted) {
  RcNetwork::Builder builder;
  const std::size_t a =
      builder.addNode(NodeSpec{.name = "a", .kind = NodeKind::Other, .capacitance = 1.0, .resistanceToAmbient = 1.0});
  const std::size_t b = builder.addNode(NodeSpec{.name = "b", .kind = NodeKind::Other, .capacitance = 1.0, .resistanceToAmbient = std::nullopt});
  builder.connect(a, b, 2.0);
  EXPECT_NO_THROW(builder.build());
}

TEST(RcNetworkBuilderTest, InvalidParametersRejected) {
  RcNetwork::Builder builder;
  EXPECT_THROW(builder.addNode(NodeSpec{.name = "bad", .kind = NodeKind::Other, .capacitance = 0.0, .resistanceToAmbient = std::nullopt}),
               PreconditionError);
  EXPECT_THROW(
      builder.addNode(NodeSpec{.name = "bad", .kind = NodeKind::Other, .capacitance = 1.0, .resistanceToAmbient = 0.0}),
      PreconditionError);
  const std::size_t a =
      builder.addNode(NodeSpec{.name = "a", .kind = NodeKind::Other, .capacitance = 1.0, .resistanceToAmbient = 1.0});
  EXPECT_THROW(builder.connect(a, a, 1.0), PreconditionError);
  EXPECT_THROW(builder.connect(a, 99, 1.0), PreconditionError);
}

TEST(RcNetworkBuilderTest, EmptyNetworkRejected) {
  RcNetwork::Builder builder;
  EXPECT_THROW(builder.build(), PreconditionError);
}

TEST(RcNetworkTest, StartsAtAmbient) {
  const RcNetwork net = singleNode(1.0, 2.0, 30.0);
  EXPECT_DOUBLE_EQ(net.temperature(0), 30.0);
}

TEST(RcNetworkTest, SteadyStateMatchesOhmsLawAnalogue) {
  // T_ss = T_amb + P * R for a single node.
  const RcNetwork net = singleNode(1.0, 2.5, 25.0);
  const std::vector<Watts> power = {4.0};
  const std::vector<Celsius> ss = net.steadyState(power);
  EXPECT_NEAR(ss[0], 25.0 + 4.0 * 2.5, 1e-10);
}

TEST(RcNetworkTest, ExactStepMatchesClosedFormExponential) {
  // T(t) = T_ss + (T0 - T_ss) e^{-t/RC} for constant power.
  RcNetwork net = singleNode(2.0, 3.0, 25.0);
  net.prepare(0.1);
  const std::vector<Watts> power = {5.0};
  const double tss = 25.0 + 5.0 * 3.0;
  const double tau = 2.0 * 3.0;
  for (int i = 1; i <= 50; ++i) {
    net.step(power);
    const double t = 0.1 * i;
    const double expected = tss + (25.0 - tss) * std::exp(-t / tau);
    EXPECT_NEAR(net.temperature(0), expected, 1e-9) << "at step " << i;
  }
}

TEST(RcNetworkTest, ConvergesToSteadyState) {
  RcNetwork net = singleNode(1.0, 1.0, 25.0);
  net.prepare(0.5);
  const std::vector<Watts> power = {10.0};
  for (int i = 0; i < 100; ++i) net.step(power);
  EXPECT_NEAR(net.temperature(0), 35.0, 1e-6);
}

TEST(RcNetworkTest, StepBeforePrepareThrows) {
  RcNetwork net = singleNode(1.0, 1.0, 25.0);
  const std::vector<Watts> power = {1.0};
  EXPECT_THROW(net.step(power), PreconditionError);
}

TEST(RcNetworkTest, NegativePowerRejected) {
  RcNetwork net = singleNode(1.0, 1.0, 25.0);
  net.prepare(0.1);
  const std::vector<Watts> power = {-1.0};
  EXPECT_THROW(net.step(power), PreconditionError);
}

TEST(RcNetworkTest, Rk4AgreesWithExactStep) {
  // Two coupled nodes; RK4 at a fine step must track the exact operator.
  RcNetwork::Builder builder;
  builder.ambient(25.0);
  const std::size_t a = builder.addNode(
      NodeSpec{.name = "a", .kind = NodeKind::Other, .capacitance = 1.0, .resistanceToAmbient = 2.0});
  const std::size_t b = builder.addNode(
      NodeSpec{.name = "b", .kind = NodeKind::Other, .capacitance = 3.0, .resistanceToAmbient = std::nullopt});
  builder.connect(a, b, 1.5);
  RcNetwork exact = builder.build();
  RcNetwork rk4 = builder.build();
  exact.prepare(0.01);
  const std::vector<Watts> power = {4.0, 1.0};
  for (int i = 0; i < 500; ++i) {
    exact.step(power);
    rk4.stepRk4(power, 0.01);
  }
  EXPECT_NEAR(exact.temperature(a), rk4.temperature(a), 1e-6);
  EXPECT_NEAR(exact.temperature(b), rk4.temperature(b), 1e-6);
}

// Independent physics oracle on a 66-node heterogeneous grid under per-cell
// power plateaus of 50..400 ticks (a plateau lets a wrong operator integrate
// its bias instead of averaging it out). Both ways a network obtains its
// operators must agree with RK4: a cold prepare that computes them (cache
// miss) and a warm prepare that shares the cached entry (cache hit).
TEST(StepEquivalenceProperty, Rk4OracleAgreesWithBothPaths) {
  Rng rng(0x04AC1E);
  const RcNetwork prototype = randomGrid(rng, 8, 8);
  ASSERT_EQ(prototype.nodeCount(), 66u);
  ExpOperatorCache& cache = ExpOperatorCache::instance();
  cache.clear();
  RcNetwork cold = prototype;
  RcNetwork warm = prototype;
  RcNetwork rk4 = prototype;
  cold.prepare(0.01);
  ASSERT_EQ(cache.stats().misses, 1u);
  warm.prepare(0.01);
  ASSERT_EQ(cache.stats().hits, 1u);
  for (RcNetwork* n : {&cold, &warm, &rk4}) n->setUniformTemperature(40.0);

  std::vector<Watts> cellPower(prototype.nodeCount(), 0.0);  // spreader, sink stay 0 W
  double worstCold = 0.0;
  double worstWarm = 0.0;
  for (std::size_t t = 0, nextPlateau = 0; t < 2000; ++t) {
    if (t == nextPlateau) {
      for (std::size_t i = 0; i + 2 < cellPower.size(); ++i) cellPower[i] = rng.uniform(0.0, 2.0);
      nextPlateau = t + 50 + rng.uniformInt(350);
    }
    cold.step(cellPower);
    warm.step(cellPower);
    rk4.stepRk4(cellPower, 0.01);
    for (std::size_t i = 0; i < prototype.nodeCount(); ++i) {
      worstCold = std::max(worstCold, std::abs(cold.temperature(i) - rk4.temperature(i)));
      worstWarm = std::max(worstWarm, std::abs(warm.temperature(i) - rk4.temperature(i)));
    }
  }
  EXPECT_LT(worstCold, 1e-3);
  EXPECT_LT(worstWarm, 1e-3);
}

TEST(RcNetworkTest, HeatFlowsFromHotToCold) {
  RcNetwork::Builder builder;
  builder.ambient(25.0);
  const std::size_t hot = builder.addNode(
      NodeSpec{.name = "hot", .kind = NodeKind::Core, .capacitance = 1.0, .resistanceToAmbient = std::nullopt});
  const std::size_t cold = builder.addNode(
      NodeSpec{.name = "cold", .kind = NodeKind::Other, .capacitance = 1.0, .resistanceToAmbient = 1.0});
  builder.connect(hot, cold, 1.0);
  RcNetwork net = builder.build();
  net.prepare(0.05);
  const std::vector<Watts> power = {8.0, 0.0};
  for (int i = 0; i < 400; ++i) net.step(power);
  EXPECT_GT(net.temperature(hot), net.temperature(cold));
  EXPECT_GT(net.temperature(cold), 25.0);
}

TEST(RcNetworkTest, SetTemperaturesRoundTrip) {
  RcNetwork net = singleNode(1.0, 1.0, 25.0);
  const std::vector<Celsius> temps = {60.0};
  net.setTemperatures(temps);
  EXPECT_DOUBLE_EQ(net.temperature(0), 60.0);
  net.setUniformTemperature(40.0);
  EXPECT_DOUBLE_EQ(net.temperature(0), 40.0);
}

TEST(RcNetworkTest, NodesOfKindFilters) {
  RcNetwork::Builder builder;
  builder.addNode(NodeSpec{.name = "c0", .kind = NodeKind::Core, .capacitance = 1.0,
                           .resistanceToAmbient = 1.0});
  builder.addNode(NodeSpec{.name = "s", .kind = NodeKind::Sink, .capacitance = 1.0,
                           .resistanceToAmbient = 1.0});
  const RcNetwork net = builder.build();
  EXPECT_EQ(net.nodesOfKind(NodeKind::Core).size(), 1u);
  EXPECT_EQ(net.nodesOfKind(NodeKind::Sink).size(), 1u);
  EXPECT_TRUE(net.nodesOfKind(NodeKind::Spreader).empty());
}

TEST(RcNetworkTest, RepreparingChangesStepSize) {
  RcNetwork net = singleNode(1.0, 1.0, 25.0);
  net.prepare(0.1);
  EXPECT_DOUBLE_EQ(net.preparedStep().value(), 0.1);
  net.prepare(1.0);
  EXPECT_DOUBLE_EQ(net.preparedStep().value(), 1.0);
}

class StepSizeSweep : public ::testing::TestWithParam<double> {};

TEST_P(StepSizeSweep, ExactStepIsStepSizeInvariantAtFixedHorizon) {
  // Property of the matrix-exponential update: integrating to t = 2 s in N
  // steps gives the same temperature for any N (constant power).
  const double dt = GetParam();
  RcNetwork net = singleNode(1.5, 2.0, 25.0);
  net.prepare(dt);
  const std::vector<Watts> power = {6.0};
  const int steps = static_cast<int>(std::round(2.0 / dt));
  for (int i = 0; i < steps; ++i) net.step(power);
  const double tss = 25.0 + 12.0;
  const double expected = tss + (25.0 - tss) * std::exp(-2.0 / 3.0);
  EXPECT_NEAR(net.temperature(0), expected, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Steps, StepSizeSweep, ::testing::Values(0.01, 0.02, 0.1, 0.5, 2.0));

}  // namespace
}  // namespace rltherm::thermal
