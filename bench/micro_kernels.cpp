/// \file micro_kernels.cpp
/// The kernel performance gate: scalar-vs-SIMD timings of the dispatched
/// hot-path kernels (gemv, silu, swiglu, rmsnorm, Q4 gemv) on plain
/// std::chrono, with a self-enforcing speedup floor on the large gemv and a
/// cross-check that both dispatch levels agree numerically. It needs no
/// benchmark library, so it builds and CI measures on every host. Every row
/// but `gemv_stream` reuses one cache-resident input; `gemv_stream` cycles
/// over 256 MB of distinct expert-projection matrices, so its weights come
/// from DRAM as they do in decode. It is reported, not gated.
///
///   bench_micro_kernels results/BENCH_kernels.json   # gate + artifact
///   bench_micro_kernels --meta meta.json             # metadata only (no
///                                                    # timings; byte-stable
///                                                    # for CI double runs)
///   bench_micro_kernels --min-speedup 1.5            # override the floor
///
/// The speedup floor defaults to 2.0 on the large gemv, overridable via
/// --min-speedup or HYBRIMOE_KERNEL_MIN_SPEEDUP; on hosts without AVX2 the
/// gate is skipped (there is nothing to compare). Exit codes: 0 pass,
/// 1 gate/equivalence failure, 2 usage error.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "kernels/ops.hpp"
#include "kernels/quant.hpp"
#include "kernels/simd.hpp"
#include "kernels/tensor.hpp"
#include "util/rng.hpp"

namespace {

using namespace hybrimoe;

/// Keep `p`'s pointee alive past the optimizer.
inline void keep(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

/// Noise-robust ns/iteration on a single-core host: calibrate the batch size
/// to ~1 ms, then take the best of 7 batches (minimum wall time — external
/// interference only ever adds time).
template <typename Fn>
double best_ns_per_iter(Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  std::size_t iters = 1;
  double batch_s = 0.0;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    batch_s = std::chrono::duration<double>(Clock::now() - t0).count();
    if (batch_s >= 1e-3 || iters >= (std::size_t{1} << 26)) break;
    iters *= 4;
  }
  double best = batch_s / static_cast<double>(iters);
  for (int rep = 0; rep < 6; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    best = std::min(best, s / static_cast<double>(iters));
  }
  return best * 1e9;
}

struct KernelResult {
  std::string name;
  std::size_t rows = 0;  ///< 0 for elementwise kernels
  std::size_t cols = 0;  ///< vector length for elementwise kernels
  double scalar_ns = 0.0;
  double simd_ns = 0.0;
  double speedup = 1.0;
  double max_abs_diff = 0.0;  ///< scalar-vs-SIMD output disagreement
};

std::vector<float> random_vector(util::Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.gaussian());
  return v;
}

/// Time `fn` at both dispatch levels (SIMD timing falls back to the scalar
/// number when AVX2 is unavailable) and cross-check the per-level outputs.
template <typename Fn, typename Out>
KernelResult measure(const std::string& name, std::size_t rows, std::size_t cols,
                     Fn&& fn, Out&& output) {
  KernelResult r;
  r.name = name;
  r.rows = rows;
  r.cols = cols;
  std::vector<float> scalar_out;
  {
    kernels::simd::ForcedLevel pin(kernels::simd::IsaLevel::Scalar);
    fn();
    scalar_out = output();
    r.scalar_ns = best_ns_per_iter(fn);
  }
  if (kernels::simd::level_available(kernels::simd::IsaLevel::Avx2)) {
    kernels::simd::ForcedLevel pin(kernels::simd::IsaLevel::Avx2);
    fn();
    r.max_abs_diff = kernels::max_abs_diff(scalar_out, output());
    r.simd_ns = best_ns_per_iter(fn);
  } else {
    r.simd_ns = r.scalar_ns;
  }
  r.speedup = r.scalar_ns / r.simd_ns;
  return r;
}

/// The measured kernel set; `timings` off emits shapes only (--meta mode).
std::vector<KernelResult> run_kernels(bool timings) {
  util::Rng rng(bench::kBenchSeed);
  std::vector<KernelResult> results;

  // Large gemv: the gate's subject — long rows where vectorization pays.
  const auto w_large = kernels::Tensor::randn(rng, 256, 1024);
  const auto x_large = random_vector(rng, 1024);
  std::vector<float> y_large(256);
  // Hot-path-sized gemv: the executor's default expert projection shape.
  const auto w_small = kernels::Tensor::randn(rng, 64, 32);
  const auto x_small = random_vector(rng, 32);
  std::vector<float> y_small(64);
  // Elementwise kernels at a mid-size activation length.
  const std::size_t n = 4096;
  const auto act_src = random_vector(rng, n);
  std::vector<float> act(n);
  const auto gate = random_vector(rng, n);
  const auto up = random_vector(rng, n);
  std::vector<float> combined(n);
  // Q4 gemv over the same large shape as the dense gate subject.
  const auto q_large = kernels::QuantizedMatrix::quantize(w_large);
  std::vector<float> yq_large(256);
  // Cold-stream gemv at the executor's 512x256 expert projection shape: 512
  // copies of one matrix (256 MB, far past any LLC), one per call in turn.
  // Allocated only when timed; the --meta view needs the shape alone.
  constexpr std::size_t kStreamRows = 512;
  constexpr std::size_t kStreamCols = 256;
  constexpr std::size_t kStreamBytes = std::size_t{256} << 20;
  const auto w_stream = kernels::Tensor::randn(rng, kStreamRows, kStreamCols);
  const auto x_stream = random_vector(rng, kStreamCols);
  std::vector<kernels::Tensor> stream;
  if (timings)
    stream.assign(kStreamBytes / (kStreamRows * kStreamCols * sizeof(float)), w_stream);
  std::size_t stream_next = 0;
  std::vector<float> y_stream(kStreamRows);

  struct Case {
    const char* name;
    std::size_t rows, cols;
    std::function<void()> run;
    std::function<std::vector<float>()> out;
  };
  const std::vector<Case> cases{
      {"gemv", 256, 1024,
       [&] { kernels::gemv_into(w_large, x_large, y_large); keep(y_large.data()); },
       [&] { return y_large; }},
      {"gemv_small", 64, 32,
       [&] { kernels::gemv_into(w_small, x_small, y_small); keep(y_small.data()); },
       [&] { return y_small; }},
      {"silu", 0, n,
       [&] {
         std::copy(act_src.begin(), act_src.end(), act.begin());
         kernels::silu_inplace(act);
         keep(act.data());
       },
       [&] { return act; }},
      {"swiglu", 0, n,
       [&] { kernels::swiglu_combine(gate, up, combined); keep(combined.data()); },
       [&] { return combined; }},
      {"rmsnorm", 0, n,
       [&] {
         std::copy(act_src.begin(), act_src.end(), act.begin());
         kernels::rmsnorm_inplace(act);
         keep(act.data());
       },
       [&] { return act; }},
      {"q4_gemv", 256, 1024,
       [&] { q_large.gemv_into(x_large, yq_large); keep(yq_large.data()); },
       [&] { return yq_large; }},
      {"gemv_stream", kStreamRows, kStreamCols,
       [&] {
         kernels::gemv_into(stream[stream_next], x_stream, y_stream);
         stream_next = (stream_next + 1) % stream.size();
         keep(y_stream.data());
       },
       [&] {
         kernels::gemv_into(w_stream, x_stream, y_stream);
         return y_stream;
       }},
  };

  for (const Case& c : cases) {
    if (timings) {
      results.push_back(measure(c.name, c.rows, c.cols, c.run, c.out));
    } else {
      KernelResult r;
      r.name = c.name;
      r.rows = c.rows;
      r.cols = c.cols;
      results.push_back(r);
    }
  }
  return results;
}

void write_artifact(std::ostream& os, const std::vector<KernelResult>& results,
                    double min_speedup, bool gate_enforced, bool gate_passed,
                    double gemv_speedup, bool timings) {
  util::JsonWriter w(os);
  w.field("bench").string("micro_kernels");
  w.field("isa_compiled").string(kernels::simd::to_string(kernels::simd::compiled_level()));
  w.field("isa_detected").string(kernels::simd::to_string(kernels::simd::detected_level()));
  w.field("min_speedup_gate").number(min_speedup);
  w.field("gate_enforced").boolean(gate_enforced);
  if (timings) {
    w.field("gate_passed").boolean(gate_passed);
    w.field("gemv_speedup_x").number(gemv_speedup);
  }
  w.field("kernels").begin_array();
  for (const KernelResult& r : results) {
    auto item = w.row();
    item.field("name").string(r.name);
    item.field("rows").number(static_cast<double>(r.rows));
    item.field("cols").number(static_cast<double>(r.cols));
    if (timings) {
      item.field("scalar_ns").number(r.scalar_ns);
      item.field("simd_ns").number(r.simd_ns);
      item.field("speedup_x").number(r.speedup);
      item.field("max_abs_diff").number(r.max_abs_diff);
    }
    item.close();
  }
  w.end_array();
  w.finish();
}

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "bench_micro_kernels: " << message
            << "\nusage: bench_micro_kernels [out.json] [--meta PATH] "
               "[--min-speedup X]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string meta_path;
  double min_speedup = 2.0;
  if (const char* env = std::getenv("HYBRIMOE_KERNEL_MIN_SPEEDUP"))
    min_speedup = std::atof(env);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--meta") {
      if (i + 1 >= argc) usage_error("--meta requires a path");
      meta_path = argv[++i];
    } else if (arg == "--min-speedup") {
      if (i + 1 >= argc) usage_error("--min-speedup requires a value");
      min_speedup = std::atof(argv[++i]);
    } else if (!arg.empty() && arg.front() == '-') {
      usage_error("unknown option '" + arg + "'");
    } else if (out_path.empty()) {
      out_path = arg;
    } else {
      usage_error("unexpected argument '" + arg + "'");
    }
  }

  // --meta: emit byte-stable metadata (no timings) and exit — what CI
  // byte-diffs across a double run to prove the artifact schema is
  // deterministic.
  if (!meta_path.empty()) {
    std::ofstream meta(meta_path);
    if (!meta) usage_error("cannot write '" + meta_path + "'");
    write_artifact(meta, run_kernels(/*timings=*/false), min_speedup,
                   /*gate_enforced=*/false, /*gate_passed=*/true,
                   /*gemv_speedup=*/0.0, /*timings=*/false);
    std::cout << "Wrote " << meta_path << "\n";
    return 0;
  }

  bench::print_header("micro-kernel gate: scalar vs SIMD hot paths",
                      "the §V claim that kernel-level execution, not Python "
                      "orchestration, should set the pace");
  std::cout << "isa: compiled=" << kernels::simd::to_string(kernels::simd::compiled_level())
            << " detected=" << kernels::simd::to_string(kernels::simd::detected_level())
            << "\n\n";

  const auto results = run_kernels(/*timings=*/true);

  util::TextTable table("kernel timings (best of 7)");
  table.set_headers({"kernel", "shape", "scalar ns", "simd ns", "speedup", "max |diff|"});
  for (const KernelResult& r : results) {
    const std::string shape = r.rows > 0
                                  ? std::to_string(r.rows) + "x" + std::to_string(r.cols)
                                  : "n=" + std::to_string(r.cols);
    table.begin_row()
        .add_cell(r.name)
        .add_cell(shape)
        .add_cell(util::format_double(r.scalar_ns, 0))
        .add_cell(util::format_double(r.simd_ns, 0))
        .add_cell(util::format_double(r.speedup, 2) + "x")
        .add_cell(util::format_double(r.max_abs_diff, 7));
  }
  table.print(std::cout);

  // Equivalence cross-check: both dispatch levels must agree to well under
  // any tolerance the functional tests use (the dedicated ulp-level suite
  // lives in tests/kernels/simd_equivalence_test.cpp).
  bool ok = true;
  for (const KernelResult& r : results) {
    if (r.max_abs_diff > 1e-4) {
      std::cerr << "\nFAIL: " << r.name << " scalar/SIMD outputs diverge by "
                << r.max_abs_diff << " (> 1e-4)\n";
      ok = false;
    }
  }

  // The gate: large-gemv SIMD speedup must clear the floor. Skipped without
  // AVX2 — there is no second path to race.
  const bool gate_enforced =
      kernels::simd::level_available(kernels::simd::IsaLevel::Avx2);
  const auto gemv = std::find_if(results.begin(), results.end(),
                                 [](const KernelResult& r) { return r.name == "gemv"; });
  const double gemv_speedup = gemv != results.end() ? gemv->speedup : 0.0;
  bool gate_passed = true;
  if (gate_enforced) {
    gate_passed = gemv_speedup >= min_speedup;
    std::cout << "\ngate: gemv speedup " << util::format_double(gemv_speedup, 2)
              << "x vs floor " << util::format_double(min_speedup, 2) << "x — "
              << (gate_passed ? "PASS" : "FAIL") << "\n";
    if (!gate_passed) ok = false;
  } else {
    std::cout << "\ngate: skipped (no AVX2 on this host)\n";
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) usage_error("cannot write '" + out_path + "'");
    write_artifact(out, results, min_speedup, gate_enforced, gate_passed,
                   gemv_speedup, /*timings=*/true);
    std::cout << "Wrote " << out_path << "\n";
  }
  return ok ? 0 : 1;
}
