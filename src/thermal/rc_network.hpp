// Lumped RC thermal network (HotSpot-class compact model).
//
// The network is a graph of thermal nodes (core junctions, heat spreader,
// heat sink, ...) connected by thermal resistances, each node having a heat
// capacity and optionally a resistance to ambient. The continuous dynamics
// are
//
//     C dT/dt = P(t) - G (T - T_amb)
//
// where C is the diagonal capacitance matrix, G the conductance Laplacian
// (plus ambient conductances on the diagonal) and P the per-node power.
// With power held constant over a step h (true in our tick-based simulator),
// the exact discrete update is
//
//     T(t+h) = E T(t) + Phi b,   E = e^{A h},  Phi = A^{-1}(E - I),
//     A = -C^{-1} G,             b = C^{-1} (P + G_amb T_amb contribution)
//
// E and Phi are precomputed once per step size, making each simulator tick a
// pair of small allocation-free matrix-vector products. A classic RK4
// integrator is provided as an independent cross-check for the tests.
// Prepared operators are shared across networks through the process-wide
// fingerprint-keyed cache (expop_cache.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/types.hpp"

namespace rltherm::thermal {

struct PreparedStep;

/// Node role, for reporting and floorplan queries.
enum class NodeKind { Core, Spreader, Sink, Other };

struct NodeSpec {
  std::string name;
  NodeKind kind = NodeKind::Other;
  double capacitance = 1.0;  ///< J/K; must be > 0
  /// Thermal resistance from this node directly to ambient (K/W); infinite
  /// (no path) when not set.
  std::optional<double> resistanceToAmbient;
};

/// Builder + simulator for the RC network.
class RcNetwork {
 public:
  /// An empty network; only useful as a placeholder before assigning one
  /// produced by Builder::build().
  RcNetwork() = default;

  /// Incrementally build the network, then call prepare(stepSize).
  class Builder {
   public:
    /// Adds a node, returning its index.
    std::size_t addNode(NodeSpec spec);

    /// Connects two nodes with a thermal resistance (K/W, must be > 0).
    Builder& connect(std::size_t a, std::size_t b, double resistance);

    /// Ambient temperature (deg C). Default 25.
    Builder& ambient(Celsius t) noexcept;

    /// Finalize. Throws if any node is thermally floating (no path to
    /// ambient through the resistance graph), since such a network has no
    /// bounded steady state.
    [[nodiscard]] RcNetwork build() const;

   private:
    friend class RcNetwork;
    struct Edge {
      std::size_t a;
      std::size_t b;
      double resistance;
    };
    std::vector<NodeSpec> nodes_;
    std::vector<Edge> edges_;
    Celsius ambient_ = 25.0;
  };

  [[nodiscard]] std::size_t nodeCount() const noexcept { return nodes_.size(); }
  [[nodiscard]] const NodeSpec& node(std::size_t i) const { return nodes_[i]; }
  [[nodiscard]] Celsius ambient() const noexcept { return ambient_; }

  /// Indices of all nodes of the given kind, in insertion order.
  [[nodiscard]] std::vector<std::size_t> nodesOfKind(NodeKind kind) const;

  /// Current temperatures (deg C), one per node.
  [[nodiscard]] std::span<const Celsius> temperatures() const noexcept { return temps_; }
  [[nodiscard]] Celsius temperature(std::size_t node) const { return temps_.at(node); }

  /// Reset all node temperatures (to ambient by default).
  void setUniformTemperature(Celsius t);
  void setTemperatures(std::span<const Celsius> temps);

  /// Precompute the exact-step operator for the given step size (seconds),
  /// or adopt an identical one from the ExpOperatorCache. Must be called
  /// before step(); may be called again to change the step.
  void prepare(Seconds stepSize);

  /// Advance one step of `stepSize` with the given per-node power (W).
  /// Requires prepare() to have been called and power.size() == nodeCount().
  void step(std::span<const Watts> power);

  /// Advance one step with classic RK4 at the same step size (for
  /// cross-validation; does not require prepare()).
  void stepRk4(std::span<const Watts> power, Seconds stepSize);

  /// Steady-state temperatures under constant power (solves G T = P + amb).
  [[nodiscard]] std::vector<Celsius> steadyState(std::span<const Watts> power) const;

  /// The prepared step size, if prepare() has been called.
  [[nodiscard]] std::optional<Seconds> preparedStep() const noexcept { return preparedStep_; }

  /// FNV-1a fingerprint of the last prepared (stepSize, network) pair — the
  /// ExpOperatorCache key; 0 before prepare().
  [[nodiscard]] std::uint64_t operatorFingerprint() const noexcept { return fingerprint_; }

 private:
  /// dT/dt for RK4: C^-1 (P - G(T) + amb contribution).
  [[nodiscard]] std::vector<double> derivative(std::span<const double> temps,
                                               std::span<const Watts> power) const;

  std::vector<NodeSpec> nodes_;
  Celsius ambient_ = 25.0;
  Matrix conductance_;             // G: Laplacian + ambient conductance diag
  std::vector<double> ambientG_;   // per-node conductance to ambient (1/R)
  std::vector<double> invCap_;     // 1 / capacitance per node
  std::vector<Celsius> temps_;

  std::optional<Seconds> preparedStep_;
  /// Immutable prepared operators (E, Φ), possibly shared with other
  /// networks through the ExpOperatorCache.
  std::shared_ptr<const PreparedStep> prepared_;
  std::uint64_t fingerprint_ = 0;
  std::vector<double> scratch_;  // u = P + G_amb·T_amb
  std::vector<double> homogeneous_;
  std::vector<double> forced_;
};

}  // namespace rltherm::thermal
