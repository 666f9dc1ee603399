#pragma once
/// \file rfft.hpp
/// \brief Streaming real-input FFT: the n/2 complex-packing fast path on
///        top of the process-wide PlanCache.
///
/// A length-n real signal is packed into n/2 complex points (z[j] = x[2j] +
/// i*x[2j+1]), transformed with one half-size complex FFT, and untangled
/// into the n/2+1 non-redundant spectrum bins. The class is built for
/// long-lived streaming sessions:
///
///  * the half-size executor comes from the process-wide fft::PlanCache, so
///    streaming sessions and ddl::svc share one executor (and its tuned
///    plan) per tree shape;
///  * the half transform can be planned with FftPlanner (ISA-tagged DP
///    costs) instead of the fixed rightmost default;
///  * a batched entry point packs up to max_batch frames into preallocated
///    lanes and dispatches the executor's batched/SIMD path;
///  * every pass is instrumented with ddl::obs stream stages, and the
///    geometry is admitted through verify::verify_stream_config.
///
/// All buffers are allocated at construction; forward()/inverse() are
/// allocation-free (the zero-allocation contract of docs/STREAMING.md).
/// Results are bitwise identical across thread counts: the packing and
/// untangle passes are serial, and the executor guarantees it for the half
/// transform. One driver thread at a time per instance.

#include <span>
#include <string>

#include "ddl/common/aligned.hpp"
#include "ddl/common/types.hpp"
#include "ddl/fft/plan_cache.hpp"
#include "ddl/fft/planner.hpp"
#include "ddl/verify/diagnostics.hpp"

namespace ddl::stream {

/// Planning knobs for the packed half-size complex transform.
struct RfftOptions {
  /// Explicit factorization tree for the n/2-point half transform
  /// (overrides the planner). Must satisfy tree->n == n/2.
  const plan::Node* tree = nullptr;

  /// Optional planner: the half transform is planned under `strategy` with
  /// the planner's (ISA-tagged, possibly calibrated) cost model. Null means
  /// the deterministic rightmost default tree.
  fft::FftPlanner* planner = nullptr;
  fft::Strategy strategy = fft::Strategy::ddl_dp;

  /// Packing lanes preallocated for forward_batch ([1, kMaxStreamBatch]).
  index_t max_batch = 1;
};

namespace detail {

/// Throw std::invalid_argument with the rendered report (prefixed with
/// `context`) when it is not clean. The streaming layer's admission gate.
void require_clean(const verify::Report& report, const char* context);

}  // namespace detail

/// Real-input FFT with preallocated state (see file comment).
class Rfft {
 public:
  explicit Rfft(index_t n, const RfftOptions& opts = {});

  /// Real transform length (even, >= 2).
  [[nodiscard]] index_t size() const noexcept { return n_; }

  /// Non-redundant spectrum bins: n/2 + 1 (DC .. Nyquist).
  [[nodiscard]] index_t bins() const noexcept { return n_ / 2 + 1; }

  /// Batched lanes preallocated for forward_batch.
  [[nodiscard]] index_t max_batch() const noexcept { return max_batch_; }

  /// Plan grammar of the half transform ("leaf(1)" when n == 2).
  [[nodiscard]] const std::string& grammar() const noexcept { return grammar_; }

  /// X[0..n/2] of the length-n real input.
  void forward(std::span<const real_t> in, std::span<cplx> spectrum);

  /// Real inverse of a non-redundant spectrum; inverse(forward(x)) == x.
  void inverse(std::span<const cplx> spectrum, std::span<real_t> out);

  /// Batched forward: `count` frames (count <= max_batch()), frame b read
  /// from in + b*in_dist (in_dist >= n), written to spectra + b*spec_dist
  /// (spec_dist >= bins()). Dispatches the executor's batched/SIMD path.
  void forward_batch(const real_t* in, index_t count, index_t in_dist, cplx* spectra,
                     index_t spec_dist);

 private:
  void untangle(const cplx* z, cplx* spectrum) const;
  void retangle(const cplx* spectrum, cplx* z) const;

  index_t n_ = 0;
  index_t max_batch_ = 1;
  AlignedBuffer<cplx> twiddle_;  ///< e^{-2*pi*i*k/n}, k in [0, n/2)
  AlignedBuffer<cplx> work_;     ///< max_batch * n/2 packing lanes
  fft::PlanCache::Entry half_;   ///< shared executor (empty exec when n == 2)
  std::string grammar_;
};

/// One-shot helpers: plan-cache-backed convenience wrappers (they build a
/// transient Rfft per call; hot paths should hold an Rfft instance).
void rfft_forward(std::span<const real_t> in, std::span<cplx> spectrum);
void rfft_inverse(std::span<const cplx> spectrum, std::span<real_t> out);

}  // namespace ddl::stream
