// Isolated replays of the codelet and layout kernels the executors spend
// their time in, at the active ISA. They belong to the traced run only:
// each moves an end-to-end metric through the workloads that call it
// (README.md, layer map). Inputs are zeros; rates count computed points or
// bytes (read + written), not measured memory traffic.

#include <cmath>

#include "bench.hpp"
#include "ddl/codelets/codelets.hpp"
#include "ddl/common/aligned.hpp"
#include "ddl/fft/executor.hpp"
#include "ddl/fft/twiddle.hpp"
#include "ddl/layout/reorg.hpp"
#include "ddl/layout/stride_perm.hpp"

namespace ddlbench {
namespace {

using namespace ddl;

/// Median seconds per call of `fn` over ~0.2 s of >= 200 us samples.
template <typename F>
double median_call_s(F&& fn) {
  fn();
  std::uint64_t t0 = obs::now_ns();
  fn();
  const double once = std::max(seconds_since(t0), 1e-9);
  const int calls = std::max(1, static_cast<int>(std::ceil(200e-6 / once)));
  std::vector<double> samples;
  const std::uint64_t end = obs::now_ns() + 200'000'000;
  do {
    t0 = obs::now_ns();
    for (int i = 0; i < calls; ++i) fn();
    samples.push_back(seconds_since(t0) / calls);
  } while (obs::now_ns() < end);
  return quantile(samples, 0.5);
}

}  // namespace

Report run_layers(const Options&) {
  Report rep;
  const codelets::Isa isa = codelets::active_isa();
  constexpr index_t kCols = 256;
  const auto mpts = [](double points, double s) { return points / s / 1e6; };
  const auto gbs = [](double bytes, double s) { return bytes / s / 1e9; };

  for (const index_t n : {index_t{16}, index_t{32}}) {
    AlignedBuffer<cplx> buf(n * kCols);
    const auto kernel = codelets::dft_batch_kernel(n, isa);
    const double s = median_call_s([&] { kernel(buf.data(), 1, n, kCols); });
    rep.layer("codelets.dft_batch" + std::to_string(n) + "_mpts", mpts(n * kCols, s), "Mpoint/s");
  }
  {
    // The paper's stride penalty: 4096 size-32 codelets over the same 2 MiB,
    // at unit stride and at stride 4096.
    constexpr index_t kCount = 4096;
    AlignedBuffer<cplx> buf(32 * kCount);
    const auto kernel = codelets::dft_kernel(32);
    const double s1 = median_call_s([&] {
      for (index_t j = 0; j < kCount; ++j) kernel(buf.data() + j * 32, 1);
    });
    const double s4096 = median_call_s([&] {
      for (index_t j = 0; j < kCount; ++j) kernel(buf.data() + j, kCount);
    });
    rep.layer("codelets.dft32_s1_mpts", mpts(32 * kCount, s1), "Mpoint/s");
    rep.layer("codelets.dft32_s4096_mpts", mpts(32 * kCount, s4096), "Mpoint/s");
  }
  {
    AlignedBuffer<real_t> buf(64 * kCols);
    const auto kernel = codelets::wht_batch_kernel(64, isa);
    const double s = median_call_s([&] { kernel(buf.data(), 1, 64, kCols); });
    rep.layer("codelets.wht_batch64_mpts", mpts(64 * kCols, s), "Mpoint/s");
  }

  // The 2^20 geometry of outcache's balanced trees: a 1024 x 1024 matrix.
  constexpr index_t kN1 = 1024;
  constexpr index_t kN = kN1 * kN1;
  const double bytes = 2.0 * kN * sizeof(cplx);
  AlignedBuffer<cplx> data(kN), scratch(kN);
  fft::TwiddleCache twiddles;
  const cplx* w = twiddles.ensure(kN);
  {
    const auto kernel = codelets::twiddle_scatter_kernel(isa);
    const double s = median_call_s(
        [&] { kernel(data.data(), 1, scratch.data(), w, kN, kN1, kN1, 0, kN1); });
    rep.layer("codelets.twiddle_scatter_gbs", gbs(bytes, s), "GB/s");
  }
  rep.layer("layout.transpose_gather_gbs",
            gbs(bytes, median_call_s([&] {
                  layout::transpose_gather(data.data(), 1, kN1, kN1, scratch.data());
                })),
            "GB/s");
  rep.layer("layout.transpose_scatter_gbs",
            gbs(bytes, median_call_s([&] {
                  layout::transpose_scatter(data.data(), 1, kN1, kN1, scratch.data());
                })),
            "GB/s");
  for (const index_t n : {kN, index_t{1} << 12}) {
    const index_t n2 = n == kN ? kN1 : 64;
    const std::string suffix = n == kN ? "" : ".2p12";
    const double nb = 2.0 * static_cast<double>(n) * sizeof(cplx);
    const cplx* wn = twiddles.ensure(n);
    rep.layer("layout.stride_perm_gbs" + suffix,
              gbs(nb, median_call_s([&] {
                    layout::stride_permute_inplace(data.data(), 1, n, n2, scratch.data());
                  })),
              "GB/s");
    rep.layer("layout.twiddle_rows_gbs" + suffix,
              gbs(nb, median_call_s([&] {
                    fft::detail::twiddle_pass_rows(data.data(), 1, n, n / n2, n2, wn);
                  })),
              "GB/s");
  }
  rep.fact("isa", codelets::isa_name(isa));
  return rep;
}

}  // namespace ddlbench
