#pragma once

/// \file simd.hpp
/// Runtime-dispatched SIMD primitives behind the hot `kernels::ops` paths and
/// the quantized GEMV. Every primitive has a portable scalar implementation
/// and (on x86-64 GCC/Clang builds) an AVX2+FMA variant compiled with
/// per-function target attributes, so one binary runs everywhere and picks
/// the fastest available path at runtime via cpuid. Dispatch is process-wide
/// and can be pinned for tests (`force_level`), which is how CI exercises
/// both paths on any host.
///
/// Numeric contract: the scalar and AVX2 variants of each primitive are
/// *equivalent within documented ulp bounds*, not bitwise identical — vector
/// accumulation reorders float/double sums and the vectorized exp uses a
/// polynomial instead of libm. Within one process the dispatched result is
/// deterministic (same level, same association every call), which is what
/// keeps execution digests bit-identical across execution modes and worker
/// counts. The bounds are pinned by tests/kernels/simd_equivalence_test.cpp:
///  * dot / rmsnorm / q4_dot: double accumulation in both variants, only the
///    association differs — a few ulp after the final rounding to float;
///  * silu / swiglu: the AVX2 exp polynomial is accurate to ~2 ulp over the
///    clamped range [-87.3, 88.7], so outputs agree to ~1e-6 relative;
///  * gemv / q4_gemv: at either level, every output is bit-identical to the
///    same level's per-row dot / q4_dot — the whole-matrix form only changes
///    how the weights stream in, never the arithmetic.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "kernels/quant.hpp"

namespace hybrimoe::kernels::simd {

/// Instruction-set level a dispatched primitive can run at.
enum class IsaLevel : std::uint8_t {
  Scalar,  ///< portable C++ loops (always available)
  Avx2,    ///< 256-bit AVX2 + FMA vector paths (x86-64 GCC/Clang builds)
};

/// Printable name of a level ("scalar" / "avx2").
[[nodiscard]] const char* to_string(IsaLevel level) noexcept;

/// Highest level this binary carries code for (compile-time property).
[[nodiscard]] IsaLevel compiled_level() noexcept;

/// Highest compiled level the running CPU also supports (cached cpuid
/// probe; always at least Scalar, never above compiled_level()).
[[nodiscard]] IsaLevel detected_level() noexcept;

/// True when `level` can execute on this build and host.
[[nodiscard]] bool level_available(IsaLevel level) noexcept;

/// Level the dispatched primitives below actually use right now: the forced
/// override when one is set, detected_level() otherwise.
[[nodiscard]] IsaLevel active_level() noexcept;

/// Test hook: pin dispatch to `level` process-wide (std::nullopt restores
/// auto-detection). Throws std::invalid_argument when the level is not
/// available on this build/host. Thread-safe, but intended for test setup —
/// flipping it concurrently with kernel calls changes which variant later
/// calls pick (never the safety of any call).
void force_level(std::optional<IsaLevel> level);

/// RAII dispatch pin: forces `level` on construction, restores
/// auto-detection on destruction. The unit-test idiom for covering both
/// variants on one host.
class ForcedLevel {
 public:
  /// Pins dispatch to `level` (throws std::invalid_argument if unavailable).
  explicit ForcedLevel(IsaLevel level) { force_level(level); }
  /// Restores auto-detected dispatch.
  ~ForcedLevel() { force_level(std::nullopt); }
  ForcedLevel(const ForcedLevel&) = delete;
  ForcedLevel& operator=(const ForcedLevel&) = delete;
};

/// Dot product of two equal-length spans, accumulated in double (the
/// reproducible-small-scale-math convention of ops::gemv). Dispatched.
[[nodiscard]] double dot(std::span<const float> a, std::span<const float> b);

/// y = W * x for a row-major W of `rows` x x.size() floats (`w.size()` must be
/// rows * x.size(), `y.size()` rows): y[r] is static_cast<float>(dot(row r,
/// x)) bit for bit. The AVX2 variant widens x to double once per call rather
/// than once per row and prefetches the row a fixed distance ahead (clamped
/// to the matrix), so weights that do not fit in cache stream at memory
/// speed. Dispatched.
void gemv(std::span<const float> w, std::size_t rows, std::span<const float> x,
          std::span<float> y);

/// In-place SiLU: v <- v / (1 + exp(-v)). Dispatched.
void silu(std::span<float> values);

/// out[i] = silu(gate[i]) * up[i]; all spans must have equal length.
/// Dispatched.
void swiglu(std::span<const float> gate, std::span<const float> up,
            std::span<float> out);

/// In-place RMSNorm with unit gain: v <- v / sqrt(mean(v^2) + eps), with the
/// sum of squares accumulated in double. Dispatched.
void rmsnorm(std::span<float> values, float eps);

/// One quantized GEMV row: sum of code-decoded Q4 values times `x`, with
/// per-block double accumulation scaled by the block scale (the same
/// structure as the scalar QuantizedMatrix::gemv inner loop). `blocks` must
/// cover at least x.size() values; values past x.size() are ignored.
/// Dispatched.
[[nodiscard]] double q4_dot(std::span<const Q4Block> blocks,
                            std::span<const float> x);

/// y = W * x for W stored as `rows` equally long runs of Q4 blocks
/// (`blocks.size()` a multiple of `rows`, each run covering x.size()
/// values, `y.size()` rows): y[r] is static_cast<float>(q4_dot(run r, x))
/// bit for bit, with the same fixed-distance row prefetch as gemv in the
/// AVX2 variant. Dispatched.
void q4_gemv(std::span<const Q4Block> blocks, std::size_t rows,
             std::span<const float> x, std::span<float> y);

}  // namespace hybrimoe::kernels::simd
