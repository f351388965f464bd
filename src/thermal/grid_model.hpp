// The package thermal network, standing in for the paper's Intel quad-core
// platform at any spatial resolution.
//
// Cores are laid out row-major in a 2-column grid (an odd core count leaves
// the last row partial). Each core is an N x N block of cells; every cell
// connects vertically to a shared heat spreader and laterally to its grid
// neighbours, and the spreader drains through a heat sink with convection to
// ambient:
//
//     core0 -- core1        each cell --(R_jc * N^2)--> spreader
//       |        |          spreader  --(R_ss)--------> sink
//     core2 -- core3        sink      --(R_sa)--------> ambient
//
// N = 1 is the lumped package, one RC node per core (the machine's default).
// N > 1 is a HotSpot-class grid on the same RcNetwork machinery (exact
// matrix-exponential stepping, LU steady state), which resolves within-core
// hot spots and scales the plant beyond one-node-per-core abstractions (the
// related-work concern about RC model solvability).
//
// Default parameters are calibrated so that an idle chip sits ~6 C above
// ambient and a fully loaded chip (all cores at max frequency) reaches
// ~72 C core temperature with a core-local time constant of ~2 s, matching
// the temperature ranges and multi-second cycling the paper reports.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "thermal/rc_network.hpp"

namespace rltherm::thermal {

/// Physical RC parameters of the package. Per-core values are aggregates,
/// divided among a core's cells so that every resolution holds the same
/// total capacitance and vertical conductance.
struct PackageRcConfig {
  Celsius ambient = 25.0;

  double coreCapacitance = 0.8;       ///< J/K per core
  double junctionToSpreader = 1.6;    ///< K/W per core (R_jc)
  double lateralResistance = 3.0;     ///< K/W between adjacent cores

  double spreaderCapacitance = 25.0;  ///< J/K
  double sinkCapacitance = 150.0;     ///< J/K
  double spreaderToSink = 0.25;       ///< K/W (R_ss)
  double sinkToAmbient = 0.38;        ///< K/W (R_sa, convection)
};

struct GridThermalConfig {
  std::size_t coreCount = 4;         ///< row-major, 2 columns
  std::size_t cellsPerCoreSide = 2;  ///< each core is an NxN block of cells
  PackageRcConfig rc;
};

class GridPackage {
 public:
  explicit GridPackage(const GridThermalConfig& config);

  [[nodiscard]] std::size_t coreCount() const noexcept { return config_.coreCount; }
  /// Extent of the die grid; a partial last core row leaves its right-hand
  /// cells absent, so cellCount() can be below cellRows() * cellCols().
  [[nodiscard]] std::size_t cellRows() const noexcept {
    return (config_.coreCount + kCoreColumns - 1) / kCoreColumns * config_.cellsPerCoreSide;
  }
  [[nodiscard]] std::size_t cellCols() const noexcept {
    return std::min(config_.coreCount, kCoreColumns) * config_.cellsPerCoreSide;
  }
  [[nodiscard]] std::size_t cellCount() const noexcept { return coreCellNodes_.size(); }

  [[nodiscard]] RcNetwork& network() noexcept { return network_; }
  [[nodiscard]] const RcNetwork& network() const noexcept { return network_; }

  /// Prepare the network's exact step (RcNetwork::prepare).
  void prepare(Seconds stepSize) { network_.prepare(stepSize); }

  /// Advance one prepared step under the given per-core power. The node
  /// power vector is a member, so the per-tick path allocates nothing.
  void step(std::span<const Watts> corePower);

  /// Set every node to its steady state under the given per-core power.
  void settle(std::span<const Watts> corePower);

  /// Node index of the cell at (row, col) of the die grid.
  [[nodiscard]] std::size_t cellNode(std::size_t row, std::size_t col) const;

  /// Node indices of the cells belonging to a core.
  [[nodiscard]] std::span<const std::size_t> coreCells(std::size_t core) const;

  /// Build the per-node power vector from per-core powers (each core's power
  /// spread uniformly over its cells).
  [[nodiscard]] std::vector<Watts> nodePower(std::span<const Watts> corePower) const;

  /// Allocation-free variant: resizes `out` once, then refills it in place.
  void nodePowerInto(std::span<const Watts> corePower, std::vector<Watts>& out) const;

  /// Mean and peak cell temperature of a core (equal at one cell per core).
  [[nodiscard]] Celsius coreMeanTemperature(std::size_t core) const;
  [[nodiscard]] Celsius corePeakTemperature(std::size_t core) const;

  [[nodiscard]] std::size_t spreaderNode() const noexcept { return spreaderNode_; }
  [[nodiscard]] std::size_t sinkNode() const noexcept { return sinkNode_; }

 private:
  static constexpr std::size_t kCoreColumns = 2;

  GridThermalConfig config_;
  RcNetwork network_;
  std::vector<std::size_t> cellNodes_;      // row-major die grid; kNoCell if absent
  std::vector<std::size_t> coreCellNodes_;  // core-major, N^2 cells per core
  std::size_t spreaderNode_ = 0;
  std::size_t sinkNode_ = 0;
  std::vector<Watts> nodePower_;            // step() scratch
};

}  // namespace rltherm::thermal
