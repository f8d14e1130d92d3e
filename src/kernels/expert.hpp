#pragma once

/// \file expert.hpp
/// A SwiGLU expert FFN — the unit of work every scheduler in this repository
/// moves between devices. Dense (fp32) and Q4-quantized variants share the
/// same forward semantics:
///
///   y = W_down( SiLU(W_gate x) ⊙ (W_up x) )
///
/// which is the expert structure of Mixtral, Qwen2 and DeepSeek alike.

#include <cstddef>
#include <span>
#include <vector>

#include "kernels/quant.hpp"
#include "kernels/tensor.hpp"

namespace hybrimoe::kernels {

/// Non-owning view of one expert's three projections, each row-major:
/// gate and up are [d_ff x d_model], down is [d_model x d_ff]. `T` is float
/// (ExpertView: dense values) or Q4Block (Q4ExpertView: every row padded to
/// whole blocks). Forwards read the viewed weights in place, so the storage
/// must outlive the view.
template <class T>
struct BasicExpertView {
  std::span<const T> gate;
  std::span<const T> up;
  std::span<const T> down;
  std::size_t d_model = 0;
  std::size_t d_ff = 0;
};
using ExpertView = BasicExpertView<float>;
using Q4ExpertView = BasicExpertView<Q4Block>;

/// Dense expert weights: gate/up are [d_ff x d_model], down is [d_model x d_ff].
struct ExpertWeights {
  Tensor gate;
  Tensor up;
  Tensor down;

  /// Random expert with fan-in init.
  [[nodiscard]] static ExpertWeights random(util::Rng& rng, std::size_t d_model,
                                            std::size_t d_ff);

  [[nodiscard]] std::size_t d_model() const noexcept { return gate.cols(); }
  [[nodiscard]] std::size_t d_ff() const noexcept { return gate.rows(); }

  /// fp32 storage footprint.
  [[nodiscard]] std::size_t dense_bytes() const noexcept {
    return (gate.size() + up.size() + down.size()) * sizeof(float);
  }

  /// The three projections as a view (valid while this object lives).
  [[nodiscard]] ExpertView view() const noexcept {
    return {gate.flat(), up.flat(), down.flat(), d_model(), d_ff()};
  }
};

/// Reusable intermediate buffers for expert forward passes. A caller that
/// keeps one scratch per worker thread takes the gate/up/hidden allocations
/// off the per-token loop; results are identical to the allocating forms.
struct ForwardScratch {
  std::vector<float> gate;
  std::vector<float> up;
  std::vector<float> hidden;
};

/// Forward pass through a dense expert.
[[nodiscard]] std::vector<float> expert_forward(const ExpertWeights& w,
                                                std::span<const float> x);

/// Forward pass through a dense expert reusing `scratch` for intermediates
/// (delegates to the ExpertView form).
[[nodiscard]] std::vector<float> expert_forward(const ExpertWeights& w,
                                                std::span<const float> x,
                                                ForwardScratch& scratch);

/// Forward pass over dense weights read in place through simd::gemv.
[[nodiscard]] std::vector<float> expert_forward(const ExpertView& w,
                                                std::span<const float> x,
                                                ForwardScratch& scratch);

/// Forward pass over Q4 blocks read in place through simd::q4_gemv.
[[nodiscard]] std::vector<float> expert_forward(const Q4ExpertView& w,
                                                std::span<const float> x,
                                                ForwardScratch& scratch);

/// Q4-quantized expert: same forward contract, ~8x smaller weights.
class QuantizedExpert {
 public:
  QuantizedExpert() = default;
  explicit QuantizedExpert(const ExpertWeights& dense);

  [[nodiscard]] std::vector<float> forward(std::span<const float> x) const;

  /// Forward pass reusing `scratch` for intermediates (delegates to the
  /// Q4ExpertView form).
  [[nodiscard]] std::vector<float> forward(std::span<const float> x,
                                           ForwardScratch& scratch) const;

  /// The three quantized projections as a view (valid while this object lives).
  [[nodiscard]] Q4ExpertView view() const noexcept {
    return {gate_.blocks(), up_.blocks(), down_.blocks(), d_model(), d_ff()};
  }

  [[nodiscard]] std::size_t storage_bytes() const noexcept {
    return gate_.storage_bytes() + up_.storage_bytes() + down_.storage_bytes();
  }
  [[nodiscard]] std::size_t d_model() const noexcept { return gate_.cols(); }
  [[nodiscard]] std::size_t d_ff() const noexcept { return gate_.rows(); }

  /// Quantized gate projection [d_ff x d_model].
  [[nodiscard]] const QuantizedMatrix& gate() const noexcept { return gate_; }
  /// Quantized up projection [d_ff x d_model].
  [[nodiscard]] const QuantizedMatrix& up() const noexcept { return up_; }
  /// Quantized down projection [d_model x d_ff].
  [[nodiscard]] const QuantizedMatrix& down() const noexcept { return down_; }

 private:
  QuantizedMatrix gate_;
  QuantizedMatrix up_;
  QuantizedMatrix down_;
};

}  // namespace hybrimoe::kernels
