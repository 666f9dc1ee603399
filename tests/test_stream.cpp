// ddl::stream tests: real-FFT fast path vs the complex reference (2 ULP at
// the energy scale), batched packing, STFT COLA reconstruction for every
// admitted window/hop pair, partitioned overlap-save convolution vs a naive
// time-domain oracle, truncated-aware FFT-size selection, structured
// geometry rejection (verify::Rule::stream_geometry), and the 10k-block
// soak: zero steady-state allocations (counting operator-new hook), bitwise
// stability across thread counts, and obs/frames/blocks monotonicity.
// Registered under the ctest labels `stream` and `concurrency`.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "ddl/common/aligned.hpp"
#include "ddl/common/parallel.hpp"
#include "ddl/common/rng.hpp"
#include "ddl/fft/fft.hpp"
#include "ddl/obs/obs.hpp"
#include "ddl/stream/stream.hpp"
#include "ddl/verify/plan_verify.hpp"

// ---------------------------------------------------------------------------
// Counting operator-new hook. Replaces the global allocation functions for
// this test binary so the soak test can prove the streaming hot path is
// allocation-free in steady state. The counter only observes; allocation
// behaviour is unchanged (malloc/free underneath).
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_new_calls{0};
}  // namespace

// The replacement pairs new->malloc with delete->free deliberately; GCC
// cannot see that every replaced operator uses the same underlying
// allocator, so silence the pairing heuristic for this block.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace ddl {
namespace {

/// Every test leaves the pool back at one thread so test order can't leak
/// parallelism into suites that assume the serial default.
class ThreadGuard {
 public:
  explicit ThreadGuard(int n) { parallel::set_threads(n); }
  ~ThreadGuard() { parallel::set_threads(1); }
};

/// `k` ULP at the energy scale of the computation. Pointwise ULP bounds are
/// meaningless when two different factorizations round differently, so every
/// comparison in this file is |diff| <= k * ulp(scale) with `scale` an upper
/// bound on the magnitudes involved (docs/STREAMING.md).
double ulp_tol(double scale, double k = 2.0) {
  return k * (std::nextafter(scale, std::numeric_limits<double>::infinity()) - scale);
}

std::vector<real_t> random_real(index_t n, std::uint64_t seed) {
  AlignedBuffer<real_t> buf(n);
  fill_random(buf.span(), seed);
  return {buf.begin(), buf.end()};
}

/// Naive O(n^2) linear convolution, the convolver oracle.
std::vector<real_t> convolve_direct(const std::vector<real_t>& x, const std::vector<real_t>& h) {
  std::vector<real_t> y(x.size() + h.size() - 1, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    for (std::size_t j = 0; j < h.size(); ++j) y[i + j] += x[i] * h[j];
  }
  return y;
}

// -------------------------------------------------------------------------
// Rfft: correctness vs the complex reference
// -------------------------------------------------------------------------

TEST(StreamRfft, MatchesComplexReferenceWithin2Ulp) {
  // 24 keeps a non-power-of-two half transform (12 points) in the sweep.
  for (const index_t n : {index_t{2}, index_t{4}, index_t{8}, index_t{16}, index_t{24},
                          index_t{64}, index_t{96}, index_t{256}, index_t{1024}, index_t{4096}}) {
    const auto x = random_real(n, 17 + static_cast<std::uint64_t>(n));

    stream::Rfft rfft(n);
    std::vector<cplx> spec(static_cast<std::size_t>(rfft.bins()));
    rfft.forward(std::span<const real_t>(x), std::span<cplx>(spec));

    // Complex reference: full n-point transform of the same samples. The
    // fixed rightmost tree keeps the sweep free of planner measurements.
    auto fft = fft::Fft::plan(n, fft::Strategy::rightmost);
    AlignedBuffer<cplx> ref(n);
    for (index_t i = 0; i < n; ++i) ref[i] = {x[static_cast<std::size_t>(i)], 0.0};
    fft.forward(ref.span());

    double scale = 0.0;
    for (const real_t v : x) scale += std::abs(v);
    const double tol = ulp_tol(std::max(scale, 1.0));
    for (index_t k = 0; k <= n / 2; ++k) {
      EXPECT_NEAR(spec[static_cast<std::size_t>(k)].real(), ref[k].real(), tol)
          << "n=" << n << " bin=" << k;
      EXPECT_NEAR(spec[static_cast<std::size_t>(k)].imag(), ref[k].imag(), tol)
          << "n=" << n << " bin=" << k;
    }
  }
}

TEST(StreamRfft, DcAndNyquistAreReal) {
  // A real signal's bins 0 and n/2 are sums of real samples (with +-1
  // weights at Nyquist), so their imaginary parts must vanish.
  for (const index_t n : {index_t{2}, index_t{24}, index_t{128}}) {
    const auto x = random_real(n, 8 + static_cast<std::uint64_t>(n));
    stream::Rfft rfft(n);
    std::vector<cplx> spec(static_cast<std::size_t>(rfft.bins()));
    rfft.forward(std::span<const real_t>(x), std::span<cplx>(spec));

    double scale = 0.0;
    for (const real_t v : x) scale += std::abs(v);
    const double tol = ulp_tol(std::max(scale, 1.0));
    EXPECT_NEAR(spec.front().imag(), 0.0, tol) << "n=" << n;
    EXPECT_NEAR(spec.back().imag(), 0.0, tol) << "n=" << n;
  }
}

TEST(StreamRfft, RoundTripRecoversInput) {
  for (const index_t n : {index_t{2}, index_t{8}, index_t{640}, index_t{4096}}) {
    const auto x = random_real(n, 23);
    stream::Rfft rfft(n);
    std::vector<cplx> spec(static_cast<std::size_t>(rfft.bins()));
    std::vector<real_t> back(static_cast<std::size_t>(n), 0.0);
    rfft.forward(std::span<const real_t>(x), std::span<cplx>(spec));
    rfft.inverse(std::span<const cplx>(spec), std::span<real_t>(back));

    double scale = 0.0;
    for (const real_t v : x) scale = std::max(scale, std::abs(v));
    const double tol = ulp_tol(scale * static_cast<double>(n));
    for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(back[i], x[i], tol) << "n=" << n;
  }
}

TEST(StreamRfft, OneShotHelpersMatchInstance) {
  const index_t n = 256;
  const auto x = random_real(n, 31);
  stream::Rfft rfft(n);
  std::vector<cplx> a(static_cast<std::size_t>(rfft.bins()));
  std::vector<cplx> b(a.size());
  rfft.forward(std::span<const real_t>(x), std::span<cplx>(a));
  stream::rfft_forward(std::span<const real_t>(x), std::span<cplx>(b));
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].real(), b[k].real()) << k;  // same algorithm, bitwise equal
    EXPECT_EQ(a[k].imag(), b[k].imag()) << k;
  }

  std::vector<real_t> back(static_cast<std::size_t>(n), 0.0);
  stream::rfft_inverse(std::span<const cplx>(b), std::span<real_t>(back));
  const double tol = ulp_tol(static_cast<double>(n));
  for (std::size_t i = 0; i < back.size(); ++i) EXPECT_NEAR(back[i], x[i], tol);
}

TEST(StreamRfft, BatchedForwardBitwiseMatchesSingle) {
  const index_t n = 512;
  const index_t batch = 5;
  stream::RfftOptions opts;
  opts.max_batch = batch;
  stream::Rfft rfft(n, opts);

  const index_t in_dist = n + 8;
  const index_t spec_dist = rfft.bins() + 4;
  std::vector<real_t> in(static_cast<std::size_t>(batch * in_dist), 0.0);
  for (index_t b = 0; b < batch; ++b) {
    const auto x = random_real(n, 40 + static_cast<std::uint64_t>(b));
    std::copy(x.begin(), x.end(), in.begin() + static_cast<std::size_t>(b * in_dist));
  }
  std::vector<cplx> spectra(static_cast<std::size_t>(batch * spec_dist));
  rfft.forward_batch(in.data(), batch, in_dist, spectra.data(), spec_dist);

  for (index_t b = 0; b < batch; ++b) {
    std::vector<cplx> single(static_cast<std::size_t>(rfft.bins()));
    rfft.forward(std::span<const real_t>(in).subspan(static_cast<std::size_t>(b * in_dist),
                                                     static_cast<std::size_t>(n)),
                 std::span<cplx>(single));
    for (index_t k = 0; k < rfft.bins(); ++k) {
      const cplx got = spectra[static_cast<std::size_t>(b * spec_dist + k)];
      EXPECT_EQ(got.real(), single[static_cast<std::size_t>(k)].real()) << "b=" << b << " k=" << k;
      EXPECT_EQ(got.imag(), single[static_cast<std::size_t>(k)].imag()) << "b=" << b << " k=" << k;
    }
  }
}

// -------------------------------------------------------------------------
// Geometry rejection: structured, position-annotated errors
// -------------------------------------------------------------------------

TEST(StreamVerify, RejectsOddAndDegenerateRfftLengths) {
  for (const index_t n : {index_t{0}, index_t{1}, index_t{7}, index_t{255}}) {
    try {
      stream::Rfft rfft(n);
      FAIL() << "n=" << n << " must be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("stream.rfft.n"), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find("stream_geometry"), std::string::npos) << e.what();
    }
  }
}

TEST(StreamVerify, RejectsBatchOutOfRange) {
  stream::RfftOptions opts;
  opts.max_batch = 0;
  EXPECT_THROW(stream::Rfft(64, opts), std::invalid_argument);
  opts.max_batch = verify::kMaxStreamBatch + 1;
  EXPECT_THROW(stream::Rfft(64, opts), std::invalid_argument);
}

TEST(StreamVerify, RejectsMismatchedHop) {
  stream::StftOptions opts;
  opts.fft_size = 1024;
  opts.hop = 384;  // does not divide 1024
  try {
    stream::StftProcessor stft(opts);
    FAIL() << "hop mismatch must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("stream.stft.hop"), std::string::npos) << e.what();
  }
  opts.hop = 2048;  // larger than the frame
  EXPECT_THROW(stream::StftProcessor{opts}, std::invalid_argument);
  opts.hop = 0;
  EXPECT_THROW(stream::StftProcessor{opts}, std::invalid_argument);
}

TEST(StreamVerify, RejectsColaViolation) {
  // Hann with hop == n: the window vanishes at the frame edges, so the
  // overlap-add denominator is zero at residue 0 — reconstruction would
  // divide by zero. The admission check computes d[r] numerically.
  stream::StftOptions opts;
  opts.fft_size = 512;
  opts.hop = 512;
  opts.window = stream::Window::hann;
  try {
    stream::StftProcessor stft(opts);
    FAIL() << "COLA violation must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("stream.stft.window"), std::string::npos) << e.what();
  }
  // The same geometry is fine with a rectangular window (d[r] == 1).
  opts.window = stream::Window::rectangular;
  EXPECT_NO_THROW(stream::StftProcessor{opts});
}

TEST(StreamVerify, RejectsBadConvolverGeometry) {
  const auto fir = random_real(8, 3);
  stream::ConvolverOptions opts;
  opts.block = 0;
  EXPECT_THROW(stream::PartitionedConvolver(std::span<const real_t>(fir), opts),
               std::invalid_argument);
  opts.block = 64;
  EXPECT_THROW(stream::PartitionedConvolver(std::span<const real_t>{}, opts),
               std::invalid_argument);
  opts.fft_size = 64;  // < block + min(block, taps) - 1 = 71
  try {
    stream::PartitionedConvolver conv(std::span<const real_t>(fir), opts);
    FAIL() << "undersized FFT must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("stream.conv.fft"), std::string::npos) << e.what();
  }
}

TEST(StreamVerify, ReportCarriesStreamGeometryRule) {
  verify::StreamLimits limits;
  limits.rfft_n = 9;  // odd
  const verify::Report report = verify::verify_stream_config(limits);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(verify::Rule::stream_geometry));

  verify::StreamLimits good;
  good.rfft_n = 1024;
  good.stft_fft = 1024;
  good.stft_hop = 256;
  good.stft_window = 0;
  EXPECT_TRUE(verify::verify_stream_config(good).ok());
}

// -------------------------------------------------------------------------
// Truncated-transform-aware FFT size selection
// -------------------------------------------------------------------------

TEST(StreamSizing, PrefersCheapSmoothSizesOverNextPow2) {
  // 256 + 129 - 1 = 384 = 2^7 * 3 already is 5-smooth: keep it, not 512.
  EXPECT_EQ(stream::choose_fft_size(384), 384);
  // 545 -> 576 = 2^6 * 3^2, far below 1024.
  EXPECT_EQ(stream::choose_fft_size(545), 576);
  // Harmless degenerate requests stay small (floor of 4, always even).
  EXPECT_EQ(stream::choose_fft_size(1), 4);
}

TEST(StreamSizing, ResultAlwaysCoversAndIsSmooth) {
  for (index_t min_n = 1; min_n <= 3000; min_n += 17) {
    const index_t n = stream::choose_fft_size(min_n);
    EXPECT_GE(n, min_n);
    EXPECT_EQ(n % 2, 0);
    index_t rest = n;
    while (rest % 2 == 0) rest /= 2;
    while (rest % 3 == 0) rest /= 3;
    while (rest % 5 == 0) rest /= 5;
    EXPECT_EQ(rest, 1) << "n=" << n << " not 5-smooth";
    index_t pow2 = 1;
    while (pow2 < std::max(min_n, index_t{4})) pow2 *= 2;
    EXPECT_LE(n, pow2) << "worse than next_pow2";
  }
}

TEST(StreamSizing, ConvolverUsesTruncatedAwareSize) {
  const auto fir = random_real(129, 5);
  stream::ConvolverOptions opts;
  opts.block = 256;
  stream::PartitionedConvolver conv(std::span<const real_t>(fir), opts);
  EXPECT_EQ(conv.fft_size(), 384);  // not 512
  EXPECT_EQ(conv.partitions(), 1);
  EXPECT_EQ(conv.partition_len(), 129);
}

// -------------------------------------------------------------------------
// STFT reconstruction
// -------------------------------------------------------------------------

TEST(StreamStft, ColaReconstructionIsExactUpToRounding) {
  struct Case {
    index_t fft, hop;
    stream::Window window;
  };
  const Case cases[] = {
      {512, 128, stream::Window::hann},
      {512, 256, stream::Window::hann},
      {1024, 256, stream::Window::hann},
      {256, 64, stream::Window::rectangular},
      {256, 256, stream::Window::rectangular},
  };
  for (const Case& c : cases) {
    stream::StftOptions opts;
    opts.fft_size = c.fft;
    opts.hop = c.hop;
    opts.window = c.window;
    stream::StftProcessor stft(opts);
    EXPECT_EQ(stft.latency(), c.fft - c.hop);

    const index_t steps = 64;
    const auto x = random_real(steps * c.hop, 77);
    std::vector<real_t> y(x.size(), 0.0);
    for (index_t t = 0; t < steps; ++t) {
      stft.process(
          std::span<const real_t>(x).subspan(static_cast<std::size_t>(t * c.hop),
                                             static_cast<std::size_t>(c.hop)),
          std::span<real_t>(y).subspan(static_cast<std::size_t>(t * c.hop),
                                       static_cast<std::size_t>(c.hop)));
    }
    // Output sample i reproduces input sample i - latency().
    const auto delay = static_cast<std::size_t>(stft.latency());
    const double tol = ulp_tol(static_cast<double>(c.fft));
    for (std::size_t i = delay; i < x.size(); ++i) {
      ASSERT_NEAR(y[i], x[i - delay], tol)
          << "fft=" << c.fft << " hop=" << c.hop << " i=" << i;
    }
    EXPECT_EQ(stft.frames(), static_cast<std::uint64_t>(steps));
  }
}

TEST(StreamStft, SpectralEffectIsApplied) {
  stream::StftOptions opts;
  opts.fft_size = 256;
  opts.hop = 64;
  stream::StftProcessor stft(opts);
  const auto x = random_real(64 * 32, 13);
  std::vector<real_t> y(x.size(), 0.0);
  const stream::StftProcessor::SpectrumFn mute = [](std::span<cplx> spec) {
    for (cplx& b : spec) b = {0.0, 0.0};
  };
  for (index_t t = 0; t < 32; ++t) {
    stft.process(std::span<const real_t>(x).subspan(static_cast<std::size_t>(t) * 64, 64),
                 std::span<real_t>(y).subspan(static_cast<std::size_t>(t) * 64, 64), mute);
  }
  for (const real_t v : y) EXPECT_EQ(v, 0.0);
}

// -------------------------------------------------------------------------
// Partitioned convolution vs the naive oracle
// -------------------------------------------------------------------------

TEST(StreamConvolver, MatchesNaiveReferenceWithin2Ulp) {
  struct Case {
    index_t block, taps;
  };
  // taps < block (single partition), == block, and >> block (FDL depth 5).
  const Case cases[] = {{64, 17}, {64, 64}, {128, 129}, {64, 300}, {256, 129}};
  for (const Case& c : cases) {
    const auto h = random_real(c.taps, 91);
    const index_t blocks = 24;
    const auto x = random_real(c.block * blocks, 92);

    stream::ConvolverOptions opts;
    opts.block = c.block;
    stream::PartitionedConvolver conv(std::span<const real_t>(h), opts);
    EXPECT_EQ(conv.taps(), c.taps);
    EXPECT_EQ(conv.partitions(), (c.taps + conv.partition_len() - 1) / conv.partition_len());

    std::vector<real_t> y(x.size(), 0.0);
    for (index_t t = 0; t < blocks; ++t) {
      conv.process(std::span<const real_t>(x).subspan(static_cast<std::size_t>(t * c.block),
                                                      static_cast<std::size_t>(c.block)),
                   std::span<real_t>(y).subspan(static_cast<std::size_t>(t * c.block),
                                                static_cast<std::size_t>(c.block)));
    }

    const auto ref = convolve_direct(x, h);
    // Energy scale: |y| <= sum|h| * max|x|, with rounding accumulating over
    // the O(log n) butterfly stages of the two transforms.
    double habs = 0.0;
    for (const real_t v : h) habs += std::abs(v);
    double xmax = 0.0;
    for (const real_t v : x) xmax = std::max(xmax, std::abs(v));
    const double tol = ulp_tol(habs * xmax * std::log2(static_cast<double>(conv.fft_size())));
    for (std::size_t i = 0; i < y.size(); ++i) {
      ASSERT_NEAR(y[i], ref[i], tol) << "block=" << c.block << " taps=" << c.taps << " i=" << i;
    }
    EXPECT_EQ(conv.blocks(), static_cast<std::uint64_t>(blocks));
  }
}

// -------------------------------------------------------------------------
// Soak: zero steady-state allocations, thread-count stability, monotone
// counters
// -------------------------------------------------------------------------

/// Drives `steps` hops of the STFT -> convolver chain and returns the
/// concatenated output.
std::vector<real_t> run_chain(index_t block, index_t steps, int threads, std::uint64_t seed,
                              std::uint64_t* new_calls_in_steady_state = nullptr) {
  ThreadGuard guard(threads);
  stream::StftOptions sopts;
  sopts.fft_size = 4 * block;
  sopts.hop = block;
  stream::StftProcessor stft(sopts);

  const auto fir = random_real(257, seed + 1);
  stream::ConvolverOptions copts;
  copts.block = block;
  stream::PartitionedConvolver conv(std::span<const real_t>(fir), copts);

  const auto x = random_real(block * steps, seed);
  std::vector<real_t> mid(static_cast<std::size_t>(block), 0.0);
  std::vector<real_t> y(x.size(), 0.0);

  // Warmup absorbs one-time lazy state outside the stream objects (lane
  // arenas, per-thread obs registration, plan-cache fill).
  const index_t warmup = 16;
  for (index_t t = 0; t < warmup; ++t) {
    stft.process(std::span<const real_t>(x).first(static_cast<std::size_t>(block)),
                 std::span<real_t>(mid));
    conv.process(std::span<const real_t>(mid), std::span<real_t>(y).first(
                                                   static_cast<std::size_t>(block)));
  }

  const std::uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  for (index_t t = 0; t < steps; ++t) {
    stft.process(std::span<const real_t>(x).subspan(static_cast<std::size_t>(t * block),
                                                    static_cast<std::size_t>(block)),
                 std::span<real_t>(mid));
    conv.process(std::span<const real_t>(mid),
                 std::span<real_t>(y).subspan(static_cast<std::size_t>(t * block),
                                              static_cast<std::size_t>(block)));
  }
  if (new_calls_in_steady_state != nullptr) {
    *new_calls_in_steady_state = g_new_calls.load(std::memory_order_relaxed) - before;
  }
  return y;
}

TEST(StreamSoak, TenThousandBlocksZeroSteadyStateAllocations) {
  const index_t block = 128;
  const index_t steps = 10000;
  std::uint64_t steady_allocs = ~std::uint64_t{0};
  const auto y = run_chain(block, steps, 1, 55, &steady_allocs);
  EXPECT_EQ(steady_allocs, 0u)
      << "streaming hot path allocated in steady state (operator-new hook)";
  // Sanity: the chain produced signal, not silence.
  double energy = 0.0;
  for (const real_t v : y) energy += v * v;
  EXPECT_GT(energy, 0.0);
}

TEST(StreamSoak, OutputBitwiseStableAcrossThreadCounts) {
  const index_t block = 256;
  const index_t steps = 200;
  const auto y1 = run_chain(block, steps, 1, 66);
  const auto y4 = run_chain(block, steps, 4, 66);
  ASSERT_EQ(y1.size(), y4.size());
  for (std::size_t i = 0; i < y1.size(); ++i) {
    ASSERT_EQ(y1[i], y4[i]) << "thread-count dependent output at sample " << i;
  }
}

TEST(StreamSoak, ObsCountersAndProgressAreMonotone) {
  obs::reset();
  obs::enable(true);
  stream::StftOptions sopts;
  sopts.fft_size = 512;
  sopts.hop = 128;
  stream::StftProcessor stft(sopts);
  const auto fir = random_real(65, 8);
  stream::ConvolverOptions copts;
  copts.block = 128;
  stream::PartitionedConvolver conv(std::span<const real_t>(fir), copts);

  const auto x = random_real(128 * 32, 9);
  std::vector<real_t> mid(128, 0.0);
  std::vector<real_t> out(128, 0.0);
  std::uint64_t last_frames = 0;
  std::uint64_t last_blocks = 0;
  for (index_t t = 0; t < 32; ++t) {
    stft.process(std::span<const real_t>(x).subspan(static_cast<std::size_t>(t) * 128, 128),
                 std::span<real_t>(mid));
    conv.process(std::span<const real_t>(mid), std::span<real_t>(out));
    EXPECT_GT(stft.frames(), last_frames);
    EXPECT_GT(conv.blocks(), last_blocks);
    last_frames = stft.frames();
    last_blocks = conv.blocks();
  }
  obs::enable(false);

  const obs::Snapshot snap = obs::snapshot();
  std::uint64_t stream_events = 0;
  for (const auto& ev : snap.events) {
    if (ev.stage == obs::Stage::stream_block || ev.stage == obs::Stage::stream_pack ||
        ev.stage == obs::Stage::stream_fdl || ev.stage == obs::Stage::stream_ola) {
      ++stream_events;
      EXPECT_GE(ev.t1_ns, ev.t0_ns);
    }
  }
  EXPECT_GT(stream_events, 0u) << "stream stages not instrumented";
}

}  // namespace
}  // namespace ddl
