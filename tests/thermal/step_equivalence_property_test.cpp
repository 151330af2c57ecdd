// Property-test harness for the packed RC step kernel (rc_network.hpp).
//
// The contract under test:
//  - the 1-cell-per-core GridPackage builds the lumped quad-core network
//    bit for bit (checked against a directly built reference);
//  - on that lumped package (unit input columns at the core nodes, ambient
//    only at the sink) the step is BIT-IDENTICAL, tick for tick, to the
//    classic dense two-matvec step E T + Phi (P + G_amb T_amb), which a
//    test-side oracle rebuilds from expm + LuFactorization;
//  - on seeded random heterogeneous grids (4 .. 128 cells) with a
//    per-core input map, the step stays within kRk4Bound of RK4 on fine
//    sub-steps and settles onto steadyState();
//  - the bound is falsifiable: a deliberately wrong input-map weight (the
//    canary) must BREAK it, proving the harness would catch a mis-folded
//    operator rather than vacuously pass;
//  - every wide entry point the host has (AVX2, AVX-512; step_kernel.hpp)
//    is bit-identical to the baseline one, tick for tick, on single- and
//    multi-tile operators.
//
// Inputs are leaky: every tick adds a temperature-dependent leakage term
// to a plateau-shaped dynamic power, so the input changes on every tick as
// it does in the closed loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "lumped_reference.hpp"
#include "thermal/grid_model.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/step_kernel.hpp"

namespace rltherm::thermal {
namespace {

constexpr Seconds kTick = 0.01;

/// Max |kernel - RK4| (°C) allowed on the random grids, and on the settle
/// to steady state. Measured: at most 5e-10 against RK4 on 2 ms sub-steps
/// and 1e-11 against the LU steady state; the wrong-weight canary reaches
/// 6e-2. The bound keeps a 20x margin above the first and sits six orders
/// below the second.
constexpr double kRk4Bound = 1e-8;
constexpr int kRk4SubSteps = 5;

/// Random W x H cell grid + spreader + sink, every capacitance and
/// resistance drawn independently (heterogeneous by construction).
RcNetwork buildRandomGrid(Rng& rng, std::size_t rows, std::size_t cols) {
  RcNetwork::Builder builder;
  std::vector<std::size_t> cells(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      NodeSpec spec;
      spec.name = "cell-" + std::to_string(r) + "-" + std::to_string(c);
      spec.kind = NodeKind::Core;
      spec.capacitance = rng.uniform(0.1, 0.4);
      cells[r * cols + c] = builder.addNode(spec);
    }
  }
  NodeSpec spreader;
  spreader.name = "spreader";
  spreader.kind = NodeKind::Spreader;
  spreader.capacitance = rng.uniform(15.0, 35.0);
  const std::size_t spreaderNode = builder.addNode(spreader);
  NodeSpec sink;
  sink.name = "sink";
  sink.kind = NodeKind::Sink;
  sink.capacitance = rng.uniform(100.0, 200.0);
  sink.resistanceToAmbient = rng.uniform(0.3, 0.5);
  const std::size_t sinkNode = builder.addNode(sink);

  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t node = cells[r * cols + c];
      if (c + 1 < cols) builder.connect(node, cells[r * cols + c + 1], rng.uniform(2.0, 6.0));
      if (r + 1 < rows) builder.connect(node, cells[(r + 1) * cols + c], rng.uniform(2.0, 6.0));
      builder.connect(node, spreaderNode, rng.uniform(4.0, 10.0));
    }
  }
  builder.connect(spreaderNode, sinkNode, rng.uniform(0.2, 0.3));
  builder.ambient(25.0);
  return builder.build();
}

/// Random connected network of n nodes: a chain through every node plus
/// about n random extra edges, ambient paths on a random quarter of the
/// nodes (always including the last), every value drawn independently.
RcNetwork buildRandomNetwork(Rng& rng, std::size_t n) {
  RcNetwork::Builder builder;
  for (std::size_t i = 0; i < n; ++i) {
    NodeSpec spec;
    spec.name = "node-" + std::to_string(i);
    spec.capacitance = rng.uniform(0.05, 50.0);
    if (i + 1 == n || rng.uniformInt(4) == 0) {
      spec.resistanceToAmbient = rng.uniform(0.2, 5.0);
    }
    builder.addNode(spec);
    if (i > 0) builder.connect(i - 1, i, rng.uniform(0.1, 8.0));
  }
  for (std::size_t k = 0; k < n; ++k) {
    const auto a = static_cast<std::size_t>(rng.uniformInt(n));
    const auto b = static_cast<std::size_t>(rng.uniformInt(n));
    if (a != b) builder.connect(a, b, rng.uniform(0.5, 20.0));
  }
  builder.ambient(rng.uniform(20.0, 45.0));
  return builder.build();
}

/// Four "cores", one per quadrant of the rows x cols cell grid; each
/// core's power is spread uniformly over its cells (the GridPackage map).
Matrix quadrantInputMap(std::size_t nodes, std::size_t rows, std::size_t cols) {
  const std::size_t rowSplit = (rows + 1) / 2;
  const std::size_t colSplit = (cols + 1) / 2;
  Matrix map(nodes, 4);
  std::vector<double> cellsPerCore(4, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t core = (r < rowSplit ? 0 : 2) + (c < colSplit ? 0 : 1);
      map(r * cols + c, core) = 1.0;
      cellsPerCore[core] += 1.0;
    }
  }
  for (std::size_t i = 0; i < rows * cols; ++i) {
    for (std::size_t core = 0; core < 4; ++core) map(i, core) /= cellsPerCore[core];
  }
  return map;
}

/// Plateau-shaped dynamic power (redrawn every 50..400 ticks) plus a
/// leakage term per input that follows the temperature of the node with
/// the same index, so the returned inputs change on every tick.
class LeakyTrace {
 public:
  LeakyTrace(Rng& rng, std::size_t inputs) : rng_(rng), dynamic_(inputs), power_(inputs) {
    redraw();
  }

  const std::vector<Watts>& at(std::size_t tick, std::span<const Celsius> temps) {
    if (tick >= nextChange_) {
      redraw();
      nextChange_ = tick + 50 + rng_.uniformInt(350);
    }
    for (std::size_t i = 0; i < power_.size(); ++i) {
      power_[i] = dynamic_[i] + 0.3 * std::exp(0.02 * (temps[i] - 25.0));
    }
    return power_;
  }

 private:
  void redraw() {
    for (double& p : dynamic_) p = rng_.uniform(0.0, 8.0);
  }
  Rng& rng_;
  std::vector<Watts> dynamic_;
  std::vector<Watts> power_;
  std::size_t nextChange_ = 0;
};

/// The classic dense two-matvec exact step, built test-side from expm and
/// LuFactorization: T' = E T + Phi (P + G_amb T_amb) with E = e^{Ah},
/// A = -C^{-1} G and Phi = A^{-1}(E - I) C^{-1}, each product summed in
/// column order by Matrix::multiplyInto.
class DenseOracle {
 public:
  DenseOracle(const RcNetwork& net, Seconds h)
      : n_(net.nodeCount()),
        temps_(net.temperatures().begin(), net.temperatures().end()),
        input_(n_),
        homogeneous_(n_),
        forced_(n_) {
    std::vector<double> invCap(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      invCap[i] = 1.0 / net.node(i).capacitance;
      const auto& r = net.node(i).resistanceToAmbient;
      ambientG_.push_back(r ? 1.0 / *r : 0.0);
    }
    Matrix a(n_, n_);
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t j = 0; j < n_; ++j) a(i, j) = -invCap[i] * net.conductance()(i, j);
    }
    e_ = expm(a * h);
    phi_ = LuFactorization(a).solve(e_ - Matrix::identity(n_));
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t j = 0; j < n_; ++j) phi_(i, j) *= invCap[j];
    }
    ambient_ = net.ambient();
  }

  void step(std::span<const Watts> nodePower) {
    for (std::size_t i = 0; i < n_; ++i) input_[i] = nodePower[i] + ambientG_[i] * ambient_;
    e_.multiplyInto(temps_, homogeneous_);
    phi_.multiplyInto(input_, forced_);
    for (std::size_t i = 0; i < n_; ++i) temps_[i] = homogeneous_[i] + forced_[i];
  }

  [[nodiscard]] std::span<const Celsius> temperatures() const { return temps_; }

 private:
  std::size_t n_;
  Matrix e_;
  Matrix phi_;
  std::vector<double> ambientG_;
  Celsius ambient_ = 25.0;
  std::vector<Celsius> temps_;
  std::vector<double> input_;
  std::vector<double> homogeneous_;
  std::vector<double> forced_;
};

double maxAbsDiff(std::span<const Celsius> a, std::span<const Celsius> b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

// (a) The default plant: the packed kernel must equal the dense two-matvec
// step bit for bit, so folding the input map changed no simulated value.
TEST(StepEquivalenceProperty, LumpedStepIsBitIdenticalToDenseOracle) {
  GridPackage pkg(GridThermalConfig{}, 4, 1);
  RcNetwork& network = pkg.network();
  network.setTemperatures(network.steadyState(pkg.nodePower(
      std::vector<Watts>{1.0, 1.0, 1.0, 1.0})));
  pkg.prepare(kTick);
  ASSERT_EQ(network.inputCount(), 4u);
  DenseOracle oracle(network, kTick);

  Rng rng(0x1EA4);
  LeakyTrace trace(rng, 4);  // nodes 0..3 are the cores
  for (std::size_t t = 0; t < 12000; ++t) {
    const std::vector<Watts>& corePower = trace.at(t, network.temperatures());
    network.step(corePower);
    oracle.step(pkg.nodePower(corePower));
    const std::span<const Celsius> a = network.temperatures();
    const std::span<const Celsius> b = oracle.temperatures();
    ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(Celsius)))
        << "bitwise divergence from the dense oracle at tick " << t;
  }
}

bool bitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(), a.data().size() * sizeof(double)) == 0;
}

// The one-cell-per-core grid IS the lumped package: the same conductance
// matrix bit for bit and the same prepared operator, for 1..4 cores, with
// the default parameters and with a lateral resistance under which the
// summation order shows in the last bit (the interleaved-order canary).
TEST(StepEquivalenceProperty, OneCellGridReproducesTheLumpedNetworkBitwise) {
  GridThermalConfig skewed;
  skewed.junctionToSpreader = 1.6;
  skewed.lateralResistance = 2.5;
  for (const GridThermalConfig& config : {GridThermalConfig{}, skewed}) {
    for (std::size_t cores = 1; cores <= 4; ++cores) {
      SCOPED_TRACE("cores = " + std::to_string(cores) +
                   ", R_lat = " + std::to_string(config.lateralResistance));
      GridPackage pkg(config, cores, 1);
      RcNetwork reference = buildLumpedReference(config, cores);
      ASSERT_EQ(pkg.network().nodeCount(), reference.nodeCount());
      EXPECT_TRUE(bitwiseEqual(pkg.network().conductance(), reference.conductance()));
      EXPECT_TRUE(bitwiseEqual(pkg.inputMap(), lumpedInputMap(cores)));
      pkg.prepare(kTick);
      reference.prepare(kTick, lumpedInputMap(cores));
      EXPECT_EQ(pkg.network().operatorFingerprint(), reference.operatorFingerprint());
    }
  }
  // Non-vacuity: the edge order matters at these parameters, so the
  // equality above pins the order and not just the topology.
  EXPECT_FALSE(bitwiseEqual(
      buildLumpedReference(skewed, 4, LumpedEdgeOrder::PerCellInterleaved).conductance(),
      buildLumpedReference(skewed, 4).conductance()));
}

/// Runs the kernel (prepared with `kernelMap`) against RK4 on kRk4SubSteps
/// sub-steps per tick (fed B p with the true `map`) over leaky inputs, and
/// returns the worst per-node divergence seen at any tick.
double worstRk4Divergence(const RcNetwork& prototype, const Matrix& map,
                          const Matrix& kernelMap, std::size_t ticks, std::uint64_t seed) {
  RcNetwork kernel = prototype;
  RcNetwork rk4 = prototype;
  kernel.prepare(kTick, kernelMap);
  kernel.setUniformTemperature(40.0);
  rk4.setUniformTemperature(40.0);
  Rng rng(seed);
  LeakyTrace trace(rng, map.cols());
  double worst = 0.0;
  for (std::size_t t = 0; t < ticks; ++t) {
    const std::vector<Watts>& corePower = trace.at(t, rk4.temperatures());
    kernel.step(corePower);
    const std::vector<Watts> nodePower = map * std::span<const Watts>(corePower);
    for (int s = 0; s < kRk4SubSteps; ++s) rk4.stepRk4(nodePower, kTick / kRk4SubSteps);
    worst = std::max(worst, maxAbsDiff(kernel.temperatures(), rk4.temperatures()));
  }
  return worst;
}

// (b) Physics, not just self-consistency: random heterogeneous grids track
// RK4 within kRk4Bound and settle onto the LU steady state.
TEST(StepEquivalenceProperty, RandomGridsStayNearRk4AndSettleToSteadyState) {
  const struct {
    std::size_t rows, cols;
  } sizes[] = {{2, 2}, {4, 4}, {6, 8}, {8, 16}};  // 4 .. 128 cells
  std::uint64_t seed = 0xC0FFEE;
  for (const auto& size : sizes) {
    Rng rng(seed++);
    const RcNetwork net = buildRandomGrid(rng, size.rows, size.cols);
    const Matrix map = quadrantInputMap(net.nodeCount(), size.rows, size.cols);
    EXPECT_LT(worstRk4Divergence(net, map, map, 1000, seed * 31), kRk4Bound)
        << size.rows << "x" << size.cols << " grid left the RK4 bound";

    // The exact step holds for any h: 100 steps of 50 s under constant
    // input must land on G^{-1}(B p + G_amb T_amb).
    RcNetwork settle = net;
    settle.prepare(50.0, map);
    const std::vector<Watts> corePower = {6.0, 1.0, 3.5, 0.5};
    for (int i = 0; i < 100; ++i) settle.step(corePower);
    const std::vector<Celsius> expected =
        settle.steadyState(map * std::span<const Watts>(corePower));
    EXPECT_LT(maxAbsDiff(settle.temperatures(), expected), kRk4Bound)
        << size.rows << "x" << size.cols << " grid missed its steady state";
  }
}

// (c) The falsifiability canary: one cell of a 16-cell core weighted 1/15
// instead of 1/16 must visibly break the bound. If this ever passes the
// bound, the harness has gone vacuous (e.g. the kernel ignores the map).
TEST(StepEquivalenceProperty, WrongInputWeightCanaryBreaksTheBound) {
  Rng rng(0xBADBA4D);
  const RcNetwork net = buildRandomGrid(rng, 8, 8);
  const Matrix map = quadrantInputMap(net.nodeCount(), 8, 8);
  ASSERT_EQ(map(0, 0), 1.0 / 16.0);
  Matrix wrong = map;
  wrong(0, 0) = 1.0 / 15.0;
  EXPECT_LT(worstRk4Divergence(net, map, map, 1000, 0x5EED), kRk4Bound);
  EXPECT_GT(worstRk4Divergence(net, map, wrong, 1000, 0x5EED), kRk4Bound)
      << "a mis-weighted input map stayed within the RK4 bound; the harness is vacuous";
}

// Independent physics oracle at the SAME step size: RK4 must agree with
// both the packed kernel and the dense oracle. Guards against the
// degenerate failure where kernel and oracle match each other bit for bit
// because both apply the same wrong operator.
TEST(StepEquivalenceProperty, Rk4OracleAgreesWithBothPaths) {
  Rng rng(0x04AC1E);
  RcNetwork kernel = buildRandomGrid(rng, 4, 4);
  kernel.setUniformTemperature(40.0);
  RcNetwork rk4 = kernel;
  kernel.prepare(kTick);
  DenseOracle dense(kernel, kTick);

  Rng traceRng(0x7EA7);
  LeakyTrace trace(traceRng, kernel.nodeCount());
  double worstDense = 0.0;
  double worstKernel = 0.0;
  for (std::size_t t = 0; t < 2000; ++t) {
    const std::vector<Watts>& power = trace.at(t, rk4.temperatures());
    kernel.step(power);
    dense.step(power);
    rk4.stepRk4(power, kTick);
    worstDense = std::max(worstDense, maxAbsDiff(dense.temperatures(), rk4.temperatures()));
    worstKernel = std::max(worstKernel, maxAbsDiff(kernel.temperatures(), rk4.temperatures()));
  }
  EXPECT_LT(worstDense, 1e-3);
  EXPECT_LT(worstKernel, 1e-3);
}

/// The tile sizes of every pass of planPasses(tiles, maxTiles), in order.
std::vector<std::size_t> passSizes(std::size_t tiles, std::size_t maxTiles) {
  const PassPlan plan = planPasses(tiles, maxTiles);
  std::vector<std::size_t> sizes;
  for (std::size_t p = 0; p < plan.passes; ++p) sizes.push_back(plan.size(p));
  return sizes;
}

// The pass plan all entry points share covers every tile once, in the
// fewest passes of at most maxTiles tiles, with sizes differing by at most
// one. From three tiles per pass up (AVX2: 3, AVX-512: 5), no operator of
// two or more tiles gets a lone-tile pass.
TEST(StepEquivalenceProperty, PassPlanIsBalancedWithNoLoneTail) {
  for (std::size_t maxTiles = 1; maxTiles <= 6; ++maxTiles) {
    for (std::size_t tiles = 1; tiles <= 70; ++tiles) {
      SCOPED_TRACE("tiles = " + std::to_string(tiles) + ", max = " + std::to_string(maxTiles));
      const std::vector<std::size_t> sizes = passSizes(tiles, maxTiles);
      EXPECT_EQ(sizes.size(), (tiles + maxTiles - 1) / maxTiles);
      std::size_t covered = 0;
      for (const std::size_t size : sizes) covered += size;
      EXPECT_EQ(covered, tiles);
      const auto [smallest, largest] = std::minmax_element(sizes.begin(), sizes.end());
      EXPECT_GE(*smallest, 1u);
      EXPECT_LE(*largest, maxTiles);
      EXPECT_LE(*largest - *smallest, 1u);
      EXPECT_TRUE(std::is_sorted(sizes.rbegin(), sizes.rend()));
      if (maxTiles >= 3 && tiles >= 2) {
        EXPECT_GE(*smallest, 2u);
      }
    }
  }
  EXPECT_EQ(passSizes(9, 3), (std::vector<std::size_t>{3, 3, 3}));
  EXPECT_EQ(passSizes(9, 4), (std::vector<std::size_t>{3, 3, 3}));
  EXPECT_EQ(passSizes(9, 5), (std::vector<std::size_t>{5, 4}));
  EXPECT_EQ(passSizes(33, 5), (std::vector<std::size_t>{5, 5, 5, 5, 5, 4, 4}));
  EXPECT_TRUE(passSizes(0, 5).empty());
}

/// Steps every entry point this host supports side by side on `net`'s
/// prepared operator over `ticks` leaky ticks, plus the network's own
/// step(), and requires each to agree with the baseline bit for bit on
/// every tick.
void expectWideMatchesBaseline(RcNetwork net, std::size_t ticks, std::uint64_t seed) {
  const PreparedStep& op = *net.preparedOperator();
  const std::span<const StepKernel> kernels = hostStepKernels();
  ASSERT_STREQ(kernels.front().name, "baseline");
  // One state per entry point, each fed its own previous output.
  std::vector<std::vector<double>> temps(
      kernels.size(), std::vector<double>(net.temperatures().begin(), net.temperatures().end()));
  std::vector<std::vector<double>> next(kernels.size(), std::vector<double>(op.offset.size()));
  Rng rng(seed);
  LeakyTrace trace(rng, op.inputs);
  for (std::size_t t = 0; t < ticks; ++t) {
    const std::vector<Watts>& inputs = trace.at(t, temps.front());
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      kernels[k].apply(op, temps[k].data(), inputs.data(), next[k].data());
      ASSERT_EQ(0, std::memcmp(next.front().data(), next[k].data(),
                               op.offset.size() * sizeof(double)))
          << "n = " << op.nodes << ": the " << kernels[k].name
          << " kernel diverged from the baseline at tick " << t;
      std::copy_n(next[k].begin(), op.nodes, temps[k].begin());
    }
    net.step(inputs);
    ASSERT_EQ(0, std::memcmp(next.front().data(), net.temperatures().data(),
                             op.nodes * sizeof(double)))
        << "n = " << op.nodes << ": step() (" << stepKernelName(op.nodes)
        << ") diverged at tick " << t;
  }
}

// (d) The wide kernels change no simulated value. Every entry point the
// host has runs against the baseline on the lumped package (one tile), the
// 64-cell grid (9 tiles) and random networks whose tile counts (2, 3, 5, 6,
// 7, 8 and 33, each with a partial last tile) hit every remainder of the
// AVX2 (3) and AVX-512 (5) pass sizes.
TEST(StepEquivalenceProperty, WideKernelMatchesBaselineBitwise) {
  const std::span<const StepKernel> kernels = hostStepKernels();
  if (kernels.size() == 1) GTEST_SKIP() << "this host has no wide kernel";
  ASSERT_STREQ(stepKernelName(6), "baseline");
  ASSERT_STREQ(stepKernelName(66), kernels.back().name)
      << "step() must take the widest entry point for a multi-tile operator";
  if (std::strcmp(kernels.back().name, "avx512") == 0) {
    ASSERT_EQ(kernels.size(), 3u) << "an AVX-512 host must also run the AVX2 kernel";
  }

  GridPackage lumped(GridThermalConfig{}, 4, 1);
  lumped.prepare(kTick);
  ASSERT_EQ(lumped.network().nodeCount(), 6u);
  expectWideMatchesBaseline(lumped.network(), 12000, 0x1EA4);

  GridPackage grid(GridThermalConfig{}, 4, 4);
  grid.prepare(kTick);
  ASSERT_EQ(grid.network().nodeCount(), 66u);
  grid.network().setUniformTemperature(45.0);
  expectWideMatchesBaseline(grid.network(), 12000, 0x6164);

  std::uint64_t seed = 0x51DE;
  for (const std::size_t n : {9u, 17u, 33u, 41u, 49u, 57u, 258u}) {
    Rng rng(seed++);
    RcNetwork net = buildRandomNetwork(rng, n);
    Matrix map(n, 4);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < 4; ++j) {
        if (rng.uniformInt(3) == 0) map(i, j) = rng.uniform(0.0, 1.0);
      }
    }
    net.prepare(kTick, map);
    net.setUniformTemperature(40.0);
    expectWideMatchesBaseline(net, 12000, seed * 31);
  }
}

}  // namespace
}  // namespace rltherm::thermal
