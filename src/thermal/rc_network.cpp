#include "thermal/rc_network.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <queue>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/isa.hpp"
#include "obs/timeline.hpp"
#include "thermal/expop_cache.hpp"
#include "thermal/step_kernel.hpp"

namespace rltherm::thermal {

namespace {

// FNV-1a(64) over a canonical little-endian byte encoding, the same hash
// and convention the checkpoint store uses for policy fingerprints
// (src/store/policy_checkpoint.cpp): every field that changes what the
// prepared operators ARE, in a fixed order.
class FingerprintHasher {
 public:
  void bytes(const void* data, std::size_t size) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ULL;
    }
  }
  void f64(double v) noexcept {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void u64(std::uint64_t v) noexcept {
    unsigned char raw[8];
    for (int i = 0; i < 8; ++i) raw[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(raw, sizeof(raw));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

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

/// Builds the packed operator (see PreparedStep) for step size h.
std::shared_ptr<PreparedStep> packStep(Seconds h, const Matrix& conductance,
                                       std::span<const double> invCap,
                                       std::span<const double> ambientInput,
                                       const Matrix& inputMap) {
  const std::size_t n = conductance.rows();
  const std::size_t m = inputMap.cols();
  // A = -C^{-1} G.
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = -invCap[i] * conductance(i, j);
  }
  const Matrix e = expm(a * h);
  // Phi = A^{-1}(E - I), with C^{-1} folded in so it applies to raw watts.
  Matrix phi = LuFactorization(a).solve(e - Matrix::identity(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) phi(i, j) *= invCap[j];
  }
  const Matrix forced = phi * inputMap;
  const std::vector<double> offset = phi * ambientInput;

  auto step = std::make_shared<PreparedStep>();
  step->stepSize = h;
  step->nodes = n;
  step->inputs = m;
  const std::size_t tileCount = (n + kTileRows - 1) / kTileRows;
  const std::size_t tileSize = (n + m) * kTileRows;
  step->tiles.assign(tileCount * tileSize, 0.0);
  step->offset.assign(tileCount * kTileRows, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double* row = step->tiles.data() + (i / kTileRows) * tileSize + i % kTileRows;
    for (std::size_t j = 0; j < n; ++j) row[j * kTileRows] = e(i, j);
    for (std::size_t j = 0; j < m; ++j) row[(n + j) * kTileRows] = forced(i, j);
    step->offset[i] = offset[i];
  }
  return step;
}

// Two doubles: one SSE2 register on the baseline x86-64 ISA; four: one AVX2
// register; eight: one AVX-512 register, a whole tile column (GCC/Clang
// vector extension).
using Lane2 = double __attribute__((vector_size(16)));
using Lane4 = double __attribute__((vector_size(32)));
using Lane8 = double __attribute__((vector_size(64)));

/// The one tile body: out = E temps + (F inputs + d) for `Tiles` tiles from
/// row `row`, each tile held in kTileRows / width lanes. Each row
/// accumulates in its own lane element in column order, so the result
/// equals the scalar left-to-right sums bit for bit at any lane width; the
/// lanes are independent chains, which hides the FP-add latency. This file
/// is compiled with -ffp-contract=off, so no entry point fuses e * x into
/// the add, not even under a target that has FMA.
template <typename Lane, std::size_t Tiles>
[[gnu::always_inline]] inline void applyPass(const PreparedStep& op, std::size_t row,
                                             const double* temps, const double* inputs,
                                             double* out) noexcept {
  constexpr std::size_t kWidth = sizeof(Lane) / sizeof(double);
  constexpr std::size_t kPerTile = kTileRows / kWidth;
  constexpr std::size_t kLanes = Tiles * kPerTile;
  static_assert(kTileRows % kWidth == 0, "a tile is a whole number of lanes");
  static_assert(kLanes <= 16, "the unroll pragmas cover at most 16 lanes");
  const std::size_t tileSize = (op.nodes + op.inputs) * kTileRows;
  // Lane a of the pass covers rows [a * kWidth, (a + 1) * kWidth) of it;
  // each tile starts `tileSize` values after the previous one.
  const auto at = [tileSize](std::size_t a) {
    return a / kPerTile * tileSize + a % kPerTile * kWidth;
  };
  const double* col = op.tiles.data() + row / kTileRows * tileSize;
  Lane h[kLanes] = {};
  for (std::size_t j = 0; j < op.nodes; ++j, col += kTileRows) {
    const double x = temps[j];
#pragma GCC unroll 16
    for (std::size_t a = 0; a < kLanes; ++a) {
      Lane e;
      std::memcpy(&e, col + at(a), sizeof(e));
      h[a] += e * x;
    }
  }
  Lane f[kLanes] = {};
  for (std::size_t j = 0; j < op.inputs; ++j, col += kTileRows) {
    const double x = inputs[j];
#pragma GCC unroll 16
    for (std::size_t a = 0; a < kLanes; ++a) {
      Lane e;
      std::memcpy(&e, col + at(a), sizeof(e));
      f[a] += e * x;
    }
  }
#pragma GCC unroll 16
  for (std::size_t a = 0; a < kLanes; ++a) {
    Lane d;
    std::memcpy(&d, op.offset.data() + row + a * kWidth, sizeof(d));
    const Lane sum = h[a] + (f[a] + d);
    std::memcpy(out + row + a * kWidth, &sum, sizeof(sum));
  }
}

/// applyPass for a run-time tile count in [1, MaxTiles].
template <typename Lane, std::size_t MaxTiles>
[[gnu::always_inline]] inline void applyPassOf(std::size_t tiles, const PreparedStep& op,
                                               std::size_t row, const double* temps,
                                               const double* inputs, double* out) noexcept {
  if constexpr (MaxTiles > 1) {
    if (tiles < MaxTiles) {
      applyPassOf<Lane, MaxTiles - 1>(tiles, op, row, temps, inputs, out);
      return;
    }
  }
  applyPass<Lane, MaxTiles>(op, row, temps, inputs, out);
}

/// Runs every pass of planPasses() (step_kernel.hpp) in row order.
template <typename Lane, std::size_t MaxTiles>
[[gnu::always_inline]] inline void applyTiles(const PreparedStep& op, const double* temps,
                                              const double* inputs, double* out) noexcept {
  const PassPlan plan = planPasses((op.nodes + kTileRows - 1) / kTileRows, MaxTiles);
  std::size_t row = 0;
  for (std::size_t p = 0; p < plan.passes; ++p) {
    applyPassOf<Lane, MaxTiles>(plan.size(p), op, row, temps, inputs, out);
    row += plan.size(p) * kTileRows;
  }
}

[[gnu::always_inline]] inline void baselineTiles(const PreparedStep& op,
                                                 const double* temps,
                                                 const double* inputs,
                                                 double* out) noexcept {
  applyTiles<Lane2, 1>(op, temps, inputs, out);
}

enum class Kernel { Baseline, Avx2, Avx512 };

/// step()'s dispatch rule: an operator of more than one tile takes the
/// widest entry point the host has. A single-tile operator (the 6-node
/// lumped package) stays on the inlined baseline: a wide pass only pays off
/// once it spans several tiles.
Kernel kernelFor(std::size_t nodes) noexcept {
  if (nodes <= kTileRows) return Kernel::Baseline;
  static const Kernel kWidest = hostHasAvx512() ? Kernel::Avx512
                                : hostHasAvx2()   ? Kernel::Avx2
                                                  : Kernel::Baseline;
  return kWidest;
}

}  // namespace

void applyTilesBaseline(const PreparedStep& op, const double* temps, const double* inputs,
                        double* out) noexcept {
  baselineTiles(op, temps, inputs, out);
}

#if defined(__x86_64__)
// Passes of at most 3 tiles under AVX2 (6 accumulators per part; 4 tiles
// would spill the 16 registers) and at most 5 under AVX-512 (5 per part, of
// 32 registers). Measured on a 66-node step: 3 + 3 + 3 beats the AVX2
// 2 + 2 + 2 + 2 + 1 plan by about 10%, and 5 + 4 beats 3 + 3 + 3 under
// AVX-512 by about 12%.
[[gnu::target("avx2")]] void applyTilesAvx2(const PreparedStep& op, const double* temps,
                                            const double* inputs, double* out) noexcept {
  applyTiles<Lane4, 3>(op, temps, inputs, out);
}

[[gnu::target("avx512f")]] void applyTilesAvx512(const PreparedStep& op, const double* temps,
                                                 const double* inputs, double* out) noexcept {
  applyTiles<Lane8, 5>(op, temps, inputs, out);
}
#endif

// rltherm-lint: allow(missing-contract) — ISA probe table, no numerics to assert
std::span<const StepKernel> hostStepKernels() noexcept {
  static const auto kHost = [] {
    std::array<StepKernel, 3> all{};
    std::size_t count = 0;
    all[count++] = StepKernel{"baseline", &applyTilesBaseline};
#if defined(__x86_64__)
    if (hostHasAvx2()) all[count++] = StepKernel{"avx2", &applyTilesAvx2};
    if (hostHasAvx512()) all[count++] = StepKernel{"avx512", &applyTilesAvx512};
#endif
    return std::pair{all, count};
  }();
  return std::span<const StepKernel>(kHost.first).first(kHost.second);
}

const char* stepKernelName(std::size_t nodes) noexcept {
  static constexpr const char* kNames[] = {"baseline", "avx2", "avx512"};
  return kNames[static_cast<std::size_t>(kernelFor(nodes))];
}

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
  verifyConductanceMatrix(net.conductance_);
  net.conductanceLu_ = std::make_shared<const LuFactorization>(net.conductance_);
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
  prepare(stepSize, Matrix::identity(nodes_.size()));
}

void RcNetwork::prepare(Seconds stepSize, const Matrix& inputMap) {
  RLTHERM_TIMED_SCOPE("thermal.rc.prepare");
  expects(stepSize > 0.0, "Step size must be > 0");
  const std::size_t n = nodes_.size();
  expects(n > 0, "prepare: empty network");
  expects(inputMap.rows() == n && inputMap.cols() >= 1,
          "prepare: input map must be nodeCount() x m with m >= 1");
  for (const double b : inputMap.data()) {
    expects(std::isfinite(b) && b >= 0.0, "prepare: input map entries must be finite and >= 0");
  }

  FingerprintHasher hasher;
  hasher.bytes("rltherm-expop-v2", 16);
  hasher.u64(n);
  hasher.u64(inputMap.cols());
  hasher.f64(stepSize);
  for (const double g : conductance_.data()) hasher.f64(g);
  for (const double c : invCap_) hasher.f64(c);
  for (const double g : ambientG_) hasher.f64(g);
  hasher.f64(ambient_);
  for (const double b : inputMap.data()) hasher.f64(b);
  fingerprint_ = hasher.value();

  ExpOperatorCache& cache = ExpOperatorCache::instance();
  if (std::shared_ptr<const PreparedStep> hit = cache.lookup(fingerprint_)) {
    RLTHERM_ENSURE(hit->nodes == n && hit->inputs == inputMap.cols() &&
                       hit->stepSize == stepSize,
                   "prepare: fingerprint collision in the operator cache");
    prepared_ = std::move(hit);
  } else {
    std::vector<double> ambientInput(n);
    for (std::size_t i = 0; i < n; ++i) ambientInput[i] = ambientG_[i] * ambient_;
    std::shared_ptr<PreparedStep> step =
        packStep(stepSize, conductance_, invCap_, ambientInput, inputMap);
    step->fingerprint = fingerprint_;
    prepared_ = cache.store(std::move(step));
  }
  preparedStep_ = stepSize;
  next_.assign(prepared_->offset.size(), 0.0);
}

std::size_t RcNetwork::inputCount() const noexcept {
  return prepared_ == nullptr ? 0 : prepared_->inputs;
}

void RcNetwork::step(std::span<const Watts> inputs) {
  RLTHERM_TIMED_SCOPE("thermal.rc.step");
  expects(prepared_ != nullptr, "RcNetwork::step called before prepare()");
  expects(inputs.size() == prepared_->inputs, "step: input vector size mismatch");
  for (const Watts p : inputs) expects(p >= 0.0, "step: negative power");
  switch (kernelFor(prepared_->nodes)) {
#if defined(__x86_64__)
    case Kernel::Avx512:
      applyTilesAvx512(*prepared_, temps_.data(), inputs.data(), next_.data());
      break;
    case Kernel::Avx2:
      applyTilesAvx2(*prepared_, temps_.data(), inputs.data(), next_.data());
      break;
#endif
    default:
      baselineTiles(*prepared_, temps_.data(), inputs.data(), next_.data());
  }
  std::copy_n(next_.begin(), temps_.size(), temps_.begin());
  if constexpr (kContractsEnabled) {
    for (const Celsius t : temps_) {
      RLTHERM_ENSURE(isPhysicalTemperature(t),
                     "RcNetwork::step produced a non-physical temperature");
    }
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
  expects(conductanceLu_ != nullptr, "steadyState: network not built by Builder::build()");
  const std::size_t n = nodes_.size();
  std::vector<double> rhs(n);
  for (std::size_t i = 0; i < n; ++i) rhs[i] = power[i] + ambientG_[i] * ambient_;
  return conductanceLu_->solve(rhs);
}

}  // namespace rltherm::thermal
