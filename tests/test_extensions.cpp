// Tests for the extension transforms built on the core engine: Bluestein
// arbitrary-length FFT, 2-D FFT (strided vs transpose column passes),
// DCT-II/III, the measured (Fig. 8) planner, and the streaming partitioned
// convolution behind examples/convolution.cpp.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "ddl/common/aligned.hpp"
#include "ddl/common/rng.hpp"
#include "ddl/fft/bluestein.hpp"
#include "ddl/fft/dct.hpp"
#include "ddl/fft/fft2d.hpp"
#include "ddl/fft/planner.hpp"
#include "ddl/fft/reference.hpp"
#include "ddl/plan/grammar.hpp"
#include "ddl/stream/stream.hpp"

namespace ddl::fft {
namespace {

// ---------------------------------------------------------------------------
// Bluestein
// ---------------------------------------------------------------------------

class BluesteinParam : public ::testing::TestWithParam<index_t> {};

TEST_P(BluesteinParam, MatchesReference) {
  const index_t n = GetParam();
  AlignedBuffer<cplx> x(n);
  fill_random(x.span(), 100 + static_cast<std::uint64_t>(n));
  std::vector<cplx> input(x.begin(), x.end());
  std::vector<cplx> expect(static_cast<std::size_t>(n));
  dft_reference(std::span<const cplx>(input), std::span<cplx>(expect));

  BluesteinFft fft(n);
  EXPECT_GE(fft.conv_size(), 2 * n - 1);
  fft.forward(x.span());
  EXPECT_LT(max_abs_diff(x.span(), std::span<const cplx>(expect)), 1e-9 * n) << "n=" << n;

  fft.inverse(x.span());
  EXPECT_LT(max_abs_diff(x.span(), std::span<const cplx>(input)), 1e-10 * n) << "n=" << n;
}

// Primes, prime powers, awkward composites, and a power of two for parity.
INSTANTIATE_TEST_SUITE_P(Sizes, BluesteinParam,
                         ::testing::Values<index_t>(1, 2, 3, 7, 11, 17, 31, 97, 101, 121, 127,
                                                    243, 251, 509, 1009, 64, 1000));

TEST(Bluestein, AcceptsPlannedConvolutionTree) {
  const index_t n = 97;  // conv size 256
  const auto tree = plan::parse_tree("ctddl(16,16)");
  BluesteinFft fft(n, tree.get());
  AlignedBuffer<cplx> x(n);
  fill_random(x.span(), 5);
  std::vector<cplx> input(x.begin(), x.end());
  std::vector<cplx> expect(static_cast<std::size_t>(n));
  dft_reference(std::span<const cplx>(input), std::span<cplx>(expect));
  fft.forward(x.span());
  EXPECT_LT(max_abs_diff(x.span(), std::span<const cplx>(expect)), 1e-9 * n);
}

TEST(Bluestein, RejectsWrongTreeSize) {
  const auto tree = plan::parse_tree("ct(4,4)");  // 16 != conv size for n=97
  EXPECT_THROW(BluesteinFft(97, tree.get()), std::invalid_argument);
}

TEST(Bluestein, LargePrimeAgainstShiftTheorem) {
  // For a large prime where O(n^2) is still okay-ish, verify the circular
  // shift property instead of recomputing the full reference twice.
  const index_t n = 2003;
  AlignedBuffer<cplx> x(n);
  AlignedBuffer<cplx> shifted(n);
  fill_random(x.span(), 9);
  const index_t shift = 7;
  for (index_t j = 0; j < n; ++j) shifted[(j + shift) % n] = x[j];

  BluesteinFft fft(n);
  fft.forward(x.span());
  fft.forward(shifted.span());
  double worst = 0;
  for (index_t k = 0; k < n; ++k) {
    const double ang = -2.0 * std::numbers::pi * static_cast<double>((k * shift) % n) /
                       static_cast<double>(n);
    const cplx expect = x[k] * cplx{std::cos(ang), std::sin(ang)};
    worst = std::max(worst, std::abs(shifted[k] - expect));
  }
  EXPECT_LT(worst, 1e-8 * n);
}

// ---------------------------------------------------------------------------
// 2-D FFT
// ---------------------------------------------------------------------------

/// Reference separable 2-D DFT via the O(n^2) 1-D reference.
std::vector<cplx> dft2d_reference(const std::vector<cplx>& in, index_t rows, index_t cols) {
  std::vector<cplx> tmp(in.size());
  // Rows.
  for (index_t r = 0; r < rows; ++r) {
    std::vector<cplx> row(static_cast<std::size_t>(cols));
    std::vector<cplx> out_row(static_cast<std::size_t>(cols));
    for (index_t c = 0; c < cols; ++c) row[static_cast<std::size_t>(c)] =
        in[static_cast<std::size_t>(r * cols + c)];
    dft_reference(std::span<const cplx>(row), std::span<cplx>(out_row));
    for (index_t c = 0; c < cols; ++c) tmp[static_cast<std::size_t>(r * cols + c)] =
        out_row[static_cast<std::size_t>(c)];
  }
  // Columns.
  std::vector<cplx> out(in.size());
  for (index_t c = 0; c < cols; ++c) {
    std::vector<cplx> col(static_cast<std::size_t>(rows));
    std::vector<cplx> out_col(static_cast<std::size_t>(rows));
    for (index_t r = 0; r < rows; ++r) col[static_cast<std::size_t>(r)] =
        tmp[static_cast<std::size_t>(r * cols + c)];
    dft_reference(std::span<const cplx>(col), std::span<cplx>(out_col));
    for (index_t r = 0; r < rows; ++r) out[static_cast<std::size_t>(r * cols + c)] =
        out_col[static_cast<std::size_t>(r)];
  }
  return out;
}

class Fft2dParam
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, ColumnMode>> {};

TEST_P(Fft2dParam, MatchesSeparableReference) {
  const auto [rows, cols, mode] = GetParam();
  AlignedBuffer<cplx> x(rows * cols);
  fill_random(x.span(), 31 * static_cast<std::uint64_t>(rows + cols));
  const std::vector<cplx> input(x.begin(), x.end());
  const auto expect = dft2d_reference(input, rows, cols);

  Fft2d fft(rows, cols, mode);
  fft.forward(x.span());
  EXPECT_LT(max_abs_diff(x.span(), std::span<const cplx>(expect)), 1e-9 * rows * cols);

  fft.inverse(x.span());
  EXPECT_LT(max_abs_diff(x.span(), std::span<const cplx>(input)), 1e-10 * rows * cols);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Fft2dParam,
    ::testing::Combine(::testing::Values<index_t>(4, 16, 32),
                       ::testing::Values<index_t>(4, 16, 32),
                       ::testing::Values(ColumnMode::strided, ColumnMode::transpose)));

TEST(Fft2d, NonSquareAndDegenerateShapes) {
  for (const auto& [rows, cols] : std::vector<std::pair<index_t, index_t>>{
           {1, 16}, {16, 1}, {2, 64}, {64, 2}, {8, 32}}) {
    AlignedBuffer<cplx> x(rows * cols);
    fill_random(x.span(), 77);
    const std::vector<cplx> input(x.begin(), x.end());
    const auto expect = dft2d_reference(input, rows, cols);
    Fft2d fft(rows, cols, ColumnMode::transpose);
    fft.forward(x.span());
    EXPECT_LT(max_abs_diff(x.span(), std::span<const cplx>(expect)), 1e-9 * rows * cols)
        << rows << "x" << cols;
  }
}

TEST(Fft2d, StridedAndTransposeModesAgree) {
  const index_t rows = 64;
  const index_t cols = 128;
  AlignedBuffer<cplx> a(rows * cols);
  AlignedBuffer<cplx> b(rows * cols);
  fill_random(a.span(), 3);
  for (index_t i = 0; i < rows * cols; ++i) b[i] = a[i];
  Fft2d strided(rows, cols, ColumnMode::strided);
  Fft2d transposed(rows, cols, ColumnMode::transpose);
  strided.forward(a.span());
  transposed.forward(b.span());
  EXPECT_LT(max_abs_diff(a.span(), b.span()), 1e-9 * rows * cols);
}

// ---------------------------------------------------------------------------
// DCT
// ---------------------------------------------------------------------------

/// O(n^2) DCT-II by definition: C[k] = 2 sum_j x[j] cos(pi k (2j+1)/(2n)).
std::vector<real_t> dct2_reference(const std::vector<real_t>& x) {
  const auto n = static_cast<index_t>(x.size());
  std::vector<real_t> c(x.size(), 0.0);
  for (index_t k = 0; k < n; ++k) {
    double acc = 0;
    for (index_t j = 0; j < n; ++j) {
      acc += x[static_cast<std::size_t>(j)] *
             std::cos(std::numbers::pi * static_cast<double>(k) *
                      (2.0 * static_cast<double>(j) + 1.0) / (2.0 * static_cast<double>(n)));
    }
    c[static_cast<std::size_t>(k)] = 2.0 * acc;
  }
  return c;
}

class DctParam : public ::testing::TestWithParam<index_t> {};

TEST_P(DctParam, MatchesDefinitionAndRoundTrips) {
  const index_t n = GetParam();
  std::vector<real_t> x(static_cast<std::size_t>(n));
  fill_random(std::span<real_t>(x), 900 + static_cast<std::uint64_t>(n));
  const auto expect = dct2_reference(x);

  AlignedBuffer<real_t> data(n);
  for (index_t i = 0; i < n; ++i) data[i] = x[static_cast<std::size_t>(i)];
  Dct dct(n);
  dct.forward(data.span());
  for (index_t k = 0; k < n; ++k) {
    EXPECT_NEAR(data[k], expect[static_cast<std::size_t>(k)], 1e-9 * n) << "k=" << k;
  }

  dct.inverse(data.span());
  for (index_t j = 0; j < n; ++j) {
    EXPECT_NEAR(data[j], x[static_cast<std::size_t>(j)], 1e-10 * n);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DctParam,
                         ::testing::Values<index_t>(1, 2, 3, 4, 8, 15, 16, 64, 128, 1024));

TEST(Dct, ConstantSignalConcentratesInDc) {
  const index_t n = 256;
  AlignedBuffer<real_t> data(n);
  for (auto& v : data) v = 1.0;
  Dct dct(n);
  dct.forward(data.span());
  EXPECT_NEAR(data[0], 2.0 * static_cast<double>(n), 1e-9 * n);
  for (index_t k = 1; k < n; ++k) EXPECT_NEAR(data[k], 0.0, 1e-9 * n) << k;
}

// ---------------------------------------------------------------------------
// Measured (Fig. 8) planner
// ---------------------------------------------------------------------------

TEST(MeasuredPlanner, ProducesCorrectPlans) {
  PlannerOptions opts;
  opts.measure_floor = 2e-4;
  opts.stream_points = 1 << 12;
  FftPlanner planner(opts);
  for (const bool allow_ddl : {false, true}) {
    const index_t n = 1 << 8;
    const auto tree = planner.plan_measured(n, allow_ddl, 2e-4);
    ASSERT_EQ(tree->n, n);
    if (!allow_ddl) {
      EXPECT_EQ(plan::ddl_node_count(*tree), 0);
    }

    AlignedBuffer<cplx> x(n);
    fill_random(x.span(), 4);
    std::vector<cplx> input(x.begin(), x.end());
    std::vector<cplx> expect(static_cast<std::size_t>(n));
    dft_reference(std::span<const cplx>(input), std::span<cplx>(expect));
    execute_tree(*tree, x.span());
    EXPECT_LT(max_abs_diff(x.span(), std::span<const cplx>(expect)), 1e-9 * n);
  }
}

// ---------------------------------------------------------------------------
// Streaming convolution (the examples/convolution.cpp configuration)
// ---------------------------------------------------------------------------

// The example's geometry — block 4096, 513 raised-cosine taps — through the
// partitioned overlap-save engine, validated against the naive reference.
// Also pins the pow2-rounding fix: the FFT covers 4096 + 513 - 1 = 4608 =
// 2^9 * 3^2 exactly instead of rounding up to 8192.
TEST(StreamConvolution, ExampleConfigurationMatchesNaive) {
  const index_t block = 4096;
  const std::size_t taps = 513;
  std::vector<real_t> h(taps);
  for (std::size_t j = 0; j < taps; ++j) {
    h[j] = (1.0 - std::cos(2.0 * std::numbers::pi * static_cast<double>(j) /
                           static_cast<double>(taps - 1))) /
           static_cast<double>(taps);
  }
  const std::size_t signal_len = 3 * static_cast<std::size_t>(block);
  AlignedBuffer<real_t> xbuf(static_cast<index_t>(signal_len));
  fill_random(xbuf.span(), 205);
  const std::vector<real_t> x(xbuf.begin(), xbuf.end());

  stream::ConvolverOptions opts;
  opts.block = block;
  stream::PartitionedConvolver conv(std::span<const real_t>(h), opts);
  EXPECT_EQ(conv.fft_size(), 4608);  // not 8192

  std::vector<real_t> y(signal_len, 0.0);
  for (std::size_t start = 0; start < signal_len; start += static_cast<std::size_t>(block)) {
    conv.process(
        std::span<const real_t>(x).subspan(start, static_cast<std::size_t>(block)),
        std::span<real_t>(y).subspan(start, static_cast<std::size_t>(block)));
  }

  std::vector<real_t> ref(signal_len + taps - 1, 0.0);
  for (std::size_t i = 0; i < signal_len; ++i) {
    for (std::size_t j = 0; j < taps; ++j) ref[i + j] += x[i] * h[j];
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < signal_len; ++i) worst = std::max(worst, std::abs(y[i] - ref[i]));
  EXPECT_LT(worst, 1e-10);
}

TEST(StreamConvolution, RfftRejectsDegenerateGeometry) {
  EXPECT_THROW(stream::Rfft(0), std::invalid_argument);
  EXPECT_THROW(stream::Rfft(21), std::invalid_argument);
  std::vector<real_t> x(16, 0.0);
  std::vector<cplx> spec(9);
  EXPECT_NO_THROW(
      stream::rfft_forward(std::span<const real_t>(x), std::span<cplx>(spec)));
}

TEST(MeasuredPlanner, CostIsPositiveAndDdlNoWorseInItsOwnMetric) {
  PlannerOptions opts;
  opts.measure_floor = 2e-4;
  opts.stream_points = 1 << 12;
  FftPlanner planner(opts);
  const index_t n = 1 << 8;
  const double sdl = planner.measured_cost(n, false, 2e-4);
  const double ddl = planner.measured_cost(n, true, 2e-4);
  EXPECT_GT(sdl, 0.0);
  EXPECT_GT(ddl, 0.0);
  // Measured costs are noisy; allow generous slack but catch inversions.
  EXPECT_LT(ddl, sdl * 3.0);
}

}  // namespace
}  // namespace ddl::fft
