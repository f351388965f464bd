#include "thermal/rc_network.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/fnv.hpp"
#include "obs/timeline.hpp"
#include "thermal/expop_cache.hpp"

namespace rltherm::thermal {

namespace {

/// Checked-build verification that G is a valid conductance matrix: symmetric
/// and weakly diagonally dominant with a positive diagonal, which (by
/// Gershgorin) makes it positive semi-definite. A violated check means the
/// Laplacian assembly is broken and every temperature downstream is garbage.
void verifyConductanceMatrix(const Matrix& g) {
  if constexpr (kContractsEnabled) {
    const std::size_t n = g.rows();
    for (std::size_t i = 0; i < n; ++i) {
      RLTHERM_INVARIANT(g(i, i) > 0.0, "conductance diagonal must be positive");
      double offDiagSum = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        RLTHERM_INVARIANT(std::isfinite(g(i, j)), "conductance entry must be finite");
        if (i == j) continue;
        RLTHERM_INVARIANT(g(i, j) == g(j, i), "conductance matrix must be symmetric");
        RLTHERM_INVARIANT(g(i, j) <= 0.0, "off-diagonal conductance must be <= 0");
        offDiagSum += -g(i, j);
      }
      RLTHERM_INVARIANT(g(i, i) >= offDiagSum - 1e-9 * g(i, i),
                        "conductance matrix must be diagonally dominant (PSD)");
    }
  }
}

}  // namespace

std::size_t RcNetwork::Builder::addNode(NodeSpec spec) {
  expects(spec.capacitance > 0.0, "Thermal node capacitance must be > 0");
  if (spec.resistanceToAmbient) {
    expects(*spec.resistanceToAmbient > 0.0, "Ambient resistance must be > 0");
  }
  nodes_.push_back(std::move(spec));
  return nodes_.size() - 1;
}

RcNetwork::Builder& RcNetwork::Builder::connect(std::size_t a, std::size_t b,
                                                double resistance) {
  expects(a < nodes_.size() && b < nodes_.size(), "connect: node index out of range");
  expects(a != b, "connect: cannot connect a node to itself");
  expects(resistance > 0.0, "Thermal resistance must be > 0");
  edges_.push_back(Edge{a, b, resistance});
  return *this;
}

RcNetwork::Builder& RcNetwork::Builder::ambient(Celsius t) noexcept {
  ambient_ = t;
  return *this;
}

RcNetwork RcNetwork::Builder::build() const {
  expects(!nodes_.empty(), "Thermal network must have at least one node");

  // Every node must reach ambient through the resistance graph, otherwise the
  // network has no bounded steady state (and G would be singular).
  std::vector<std::vector<std::size_t>> adjacency(nodes_.size());
  for (const Edge& e : edges_) {
    adjacency[e.a].push_back(e.b);
    adjacency[e.b].push_back(e.a);
  }
  std::vector<bool> reached(nodes_.size(), false);
  std::queue<std::size_t> frontier;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].resistanceToAmbient) {
      reached[i] = true;
      frontier.push(i);
    }
  }
  while (!frontier.empty()) {
    const std::size_t u = frontier.front();
    frontier.pop();
    for (const std::size_t v : adjacency[u]) {
      if (!reached[v]) {
        reached[v] = true;
        frontier.push(v);
      }
    }
  }
  expects(std::all_of(reached.begin(), reached.end(), [](bool r) { return r; }),
          "Thermal network has a node with no path to ambient");

  RcNetwork net;
  net.nodes_ = nodes_;
  net.ambient_ = ambient_;
  const std::size_t n = nodes_.size();
  net.conductance_ = Matrix(n, n);
  net.ambientG_.assign(n, 0.0);
  net.invCap_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    net.invCap_[i] = 1.0 / nodes_[i].capacitance;
    if (nodes_[i].resistanceToAmbient) {
      net.ambientG_[i] = 1.0 / *nodes_[i].resistanceToAmbient;
      net.conductance_(i, i) += net.ambientG_[i];
    }
  }
  for (const Edge& e : edges_) {
    const double g = 1.0 / e.resistance;
    net.conductance_(e.a, e.a) += g;
    net.conductance_(e.b, e.b) += g;
    net.conductance_(e.a, e.b) -= g;
    net.conductance_(e.b, e.a) -= g;
  }
  net.temps_.assign(n, ambient_);
  net.scratch_.resize(n);
  net.homogeneous_.resize(n);
  net.forced_.resize(n);
  verifyConductanceMatrix(net.conductance_);
  return net;
}

std::vector<std::size_t> RcNetwork::nodesOfKind(NodeKind kind) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == kind) out.push_back(i);
  }
  RLTHERM_ENSURE(std::is_sorted(out.begin(), out.end()),
                 "nodesOfKind: indices must ascend for deterministic iteration");
  return out;
}

void RcNetwork::setUniformTemperature(Celsius t) {
  std::fill(temps_.begin(), temps_.end(), t);
}

void RcNetwork::setTemperatures(std::span<const Celsius> temps) {
  expects(temps.size() == temps_.size(), "setTemperatures: size mismatch");
  std::copy(temps.begin(), temps.end(), temps_.begin());
}

void RcNetwork::prepare(Seconds stepSize) {
  RLTHERM_TIMED_SCOPE("thermal.rc.prepare");
  expects(stepSize > 0.0, "Step size must be > 0");
  const std::size_t n = nodes_.size();
  expects(n > 0, "prepare: empty network");

  // Every field that changes what the prepared operators ARE, in a fixed order.
  Fnv1a hasher;
  hasher.bytes("rltherm-expop-v1", 16);
  hasher.u64(n);
  hasher.f64(stepSize);
  for (const double g : conductance_.data()) hasher.f64(g);
  for (const double c : invCap_) hasher.f64(c);
  fingerprint_ = hasher.value();

  ExpOperatorCache& cache = ExpOperatorCache::instance();
  if (std::shared_ptr<const PreparedStep> hit = cache.lookup(fingerprint_)) {
    RLTHERM_ENSURE(hit->expOp.rows() == n && hit->stepSize == stepSize,
                   "prepare: fingerprint collision in the operator cache");
    prepared_ = std::move(hit);
    preparedStep_ = stepSize;
    return;
  }

  auto step = std::make_shared<PreparedStep>();
  step->stepSize = stepSize;
  step->fingerprint = fingerprint_;

  // A = -C^{-1} G.
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = -invCap_[i] * conductance_(i, j);
  }
  step->expOp = expm(a * stepSize);

  // Phi = A^{-1}(E - I), then fold in C^{-1} so step() applies Phi directly
  // to the raw input u = P + G_amb * T_amb.
  Matrix eMinusI = step->expOp - Matrix::identity(n);
  Matrix phi = LuFactorization(a).solve(eMinusI);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) phi(i, j) *= invCap_[j];
  }
  step->phiOp = std::move(phi);

  prepared_ = cache.store(std::move(step));
  preparedStep_ = stepSize;
}

void RcNetwork::step(std::span<const Watts> power) {
  RLTHERM_TIMED_SCOPE("thermal.rc.step");
  expects(preparedStep_.has_value() && prepared_ != nullptr,
          "RcNetwork::step called before prepare()");
  expects(power.size() == nodes_.size(), "step: power vector size mismatch");
  const std::size_t n = nodes_.size();
  for (std::size_t i = 0; i < n; ++i) {
    expects(power[i] >= 0.0, "step: negative power");
    scratch_[i] = power[i] + ambientG_[i] * ambient_;
  }
  prepared_->expOp.multiplyInto(temps_, homogeneous_);
  prepared_->phiOp.multiplyInto(scratch_, forced_);
  for (std::size_t i = 0; i < n; ++i) {
    temps_[i] = homogeneous_[i] + forced_[i];
    RLTHERM_ENSURE(isPhysicalTemperature(temps_[i]),
                   "RcNetwork::step produced a non-physical temperature");
  }
}

std::vector<double> RcNetwork::derivative(std::span<const double> temps,
                                          std::span<const Watts> power) const {
  const std::size_t n = nodes_.size();
  std::vector<double> d(n);
  for (std::size_t i = 0; i < n; ++i) {
    double flow = power[i] + ambientG_[i] * ambient_;
    for (std::size_t j = 0; j < n; ++j) flow -= conductance_(i, j) * temps[j];
    d[i] = invCap_[i] * flow;
  }
  return d;
}

void RcNetwork::stepRk4(std::span<const Watts> power, Seconds stepSize) {
  expects(stepSize > 0.0, "Step size must be > 0");
  expects(power.size() == nodes_.size(), "stepRk4: power vector size mismatch");
  const std::size_t n = nodes_.size();
  const std::vector<double> k1 = derivative(temps_, power);
  std::vector<double> probe(n);
  for (std::size_t i = 0; i < n; ++i) probe[i] = temps_[i] + 0.5 * stepSize * k1[i];
  const std::vector<double> k2 = derivative(probe, power);
  for (std::size_t i = 0; i < n; ++i) probe[i] = temps_[i] + 0.5 * stepSize * k2[i];
  const std::vector<double> k3 = derivative(probe, power);
  for (std::size_t i = 0; i < n; ++i) probe[i] = temps_[i] + stepSize * k3[i];
  const std::vector<double> k4 = derivative(probe, power);
  for (std::size_t i = 0; i < n; ++i) {
    temps_[i] += stepSize / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
  }
}

std::vector<Celsius> RcNetwork::steadyState(std::span<const Watts> power) const {
  expects(power.size() == nodes_.size(), "steadyState: power vector size mismatch");
  const std::size_t n = nodes_.size();
  std::vector<double> rhs(n);
  for (std::size_t i = 0; i < n; ++i) rhs[i] = power[i] + ambientG_[i] * ambient_;
  return LuFactorization(conductance_).solve(rhs);
}

}  // namespace rltherm::thermal
