#include "thermal/grid_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace rltherm::thermal {

namespace {
constexpr std::size_t kNoCell = std::numeric_limits<std::size_t>::max();
}  // namespace

GridPackage::GridPackage(const GridThermalConfig& config) : config_(config) {
  expects(config.coreCount >= 1, "GridPackage requires at least one core");
  expects(config.cellsPerCoreSide >= 1, "GridPackage: cellsPerCoreSide must be >= 1");
  expects(config.lateralCouplingRange >= 1,
          "GridPackage: lateralCouplingRange must be >= 1");
  expects(config.lateralDecayExponent >= 0.0,
          "GridPackage: lateralDecayExponent must be >= 0");

  const std::size_t side = config.cellsPerCoreSide;
  const std::size_t rows = cellRows();
  const std::size_t cols = cellCols();
  const std::size_t cellsPerCore = side * side;
  const PackageRcConfig& rc = config.rc;

  RcNetwork::Builder builder;
  builder.ambient(rc.ambient);

  // Per-cell aggregates: N parallel vertical paths and N capacitance shares
  // reproduce the per-core totals.
  const double cellCapacitance = rc.coreCapacitance / static_cast<double>(cellsPerCore);
  const double cellVerticalR = rc.junctionToSpreader * static_cast<double>(cellsPerCore);
  // Lateral conductance between neighbouring cells: the core-to-core lateral
  // resistance crosses cellsPerCoreSide series cell-to-cell hops and is fed
  // by cellsPerCoreSide parallel rows, so per-hop R = R_core_lateral.
  const double cellLateralR = rc.lateralResistance;

  // Cells in row-major order (at N = 1 node i is core i); the cells right of
  // a partial last core row do not exist.
  cellNodes_.assign(rows * cols, kNoCell);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if ((r / side) * kCoreColumns + c / side >= config.coreCount) continue;
      cellNodes_[r * cols + c] = builder.addNode(NodeSpec{
          .name = "cell_" + std::to_string(r) + "_" + std::to_string(c),
          .kind = NodeKind::Core,
          .capacitance = cellCapacitance,
          .resistanceToAmbient = std::nullopt,
      });
    }
  }
  spreaderNode_ = builder.addNode(NodeSpec{
      .name = "spreader",
      .kind = NodeKind::Spreader,
      .capacitance = rc.spreaderCapacitance,
      .resistanceToAmbient = std::nullopt,
  });
  sinkNode_ = builder.addNode(NodeSpec{
      .name = "sink",
      .kind = NodeKind::Sink,
      .capacitance = rc.sinkCapacitance,
      .resistanceToAmbient = rc.sinkToAmbient,
  });

  // Edge order fixes the summation order of G's diagonal: every cell's
  // vertical conductance comes first, then its lateral ones. One node per
  // core therefore gives the same G, bit for bit, for any parameters.
  const auto present = [&](std::size_t r, std::size_t c) {
    return r < rows && c < cols && cellNodes_[r * cols + c] != kNoCell;
  };
  for (const std::size_t node : cellNodes_) {
    if (node != kNoCell) builder.connect(node, spreaderNode_, cellVerticalR);
  }
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (!present(r, c)) continue;
      const std::size_t node = cellNodes_[r * cols + c];
      // Axis-aligned lateral couplings with distance decay: d == 1 is the
      // nearest-neighbour hop (R(1) == cellLateralR, the classic grid);
      // larger d adds progressively weaker far-field paths.
      for (std::size_t d = 1; d <= config.lateralCouplingRange; ++d) {
        const double lateralR =
            cellLateralR * std::pow(static_cast<double>(d), config.lateralDecayExponent);
        if (present(r, c + d)) builder.connect(node, cellNodes_[r * cols + c + d], lateralR);
        if (present(r + d, c)) builder.connect(node, cellNodes_[(r + d) * cols + c], lateralR);
      }
    }
  }
  builder.connect(spreaderNode_, sinkNode_, rc.spreaderToSink);

  // Core -> cell block mapping.
  coreCellNodes_.reserve(config.coreCount * cellsPerCore);
  for (std::size_t core = 0; core < config.coreCount; ++core) {
    const std::size_t top = (core / kCoreColumns) * side;
    const std::size_t left = (core % kCoreColumns) * side;
    for (std::size_t dr = 0; dr < side; ++dr) {
      for (std::size_t dc = 0; dc < side; ++dc) {
        coreCellNodes_.push_back(cellNodes_[(top + dr) * cols + left + dc]);
      }
    }
  }

  network_ = builder.build();
}

void GridPackage::step(std::span<const Watts> corePower) {
  nodePowerInto(corePower, nodePower_);
  network_.step(nodePower_);
}

void GridPackage::settle(std::span<const Watts> corePower) {
  network_.setTemperatures(network_.steadyState(nodePower(corePower)));
}

std::size_t GridPackage::cellNode(std::size_t row, std::size_t col) const {
  expects(row < cellRows() && col < cellCols() &&
              cellNodes_[row * cellCols() + col] != kNoCell,
          "cellNode: out of range");
  return cellNodes_[row * cellCols() + col];
}

std::span<const std::size_t> GridPackage::coreCells(std::size_t core) const {
  expects(core < config_.coreCount, "coreCells: core out of range");
  const std::size_t cellsPerCore = config_.cellsPerCoreSide * config_.cellsPerCoreSide;
  return std::span<const std::size_t>(coreCellNodes_).subspan(core * cellsPerCore,
                                                              cellsPerCore);
}

std::vector<Watts> GridPackage::nodePower(std::span<const Watts> corePower) const {
  std::vector<Watts> power;
  nodePowerInto(corePower, power);
  ensures(power.size() == network_.nodeCount(), "nodePower: one entry per node");
  return power;
}

void GridPackage::nodePowerInto(std::span<const Watts> corePower,
                                std::vector<Watts>& out) const {
  expects(corePower.size() == coreCount(), "nodePower: per-core power size mismatch");
  out.assign(network_.nodeCount(), 0.0);
  for (std::size_t core = 0; core < coreCount(); ++core) {
    const std::span<const std::size_t> cells = coreCells(core);
    const double perCell = corePower[core] / static_cast<double>(cells.size());
    for (const std::size_t node : cells) out[node] = perCell;
  }
}

Celsius GridPackage::coreMeanTemperature(std::size_t core) const {
  const std::span<const std::size_t> cells = coreCells(core);
  double sum = 0.0;
  for (const std::size_t node : cells) sum += network_.temperature(node);
  const Celsius mean = sum / static_cast<double>(cells.size());
  RLTHERM_ENSURE(std::isfinite(mean), "coreMeanTemperature: mean must be finite");
  return mean;
}

Celsius GridPackage::corePeakTemperature(std::size_t core) const {
  const std::span<const std::size_t> cells = coreCells(core);
  RLTHERM_EXPECT(!cells.empty(), "corePeakTemperature: core must map to at least one cell");
  Celsius peak = network_.temperature(cells.front());
  for (const std::size_t node : cells) peak = std::max(peak, network_.temperature(node));
  return peak;
}

}  // namespace rltherm::thermal
