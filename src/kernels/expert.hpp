#pragma once

/// \file expert.hpp
/// A SwiGLU expert FFN — the unit of work every scheduler in this repository
/// moves between devices. Dense (fp32) and Q4-quantized variants share the
/// same forward semantics:
///
///   y = W_down( SiLU(W_gate x) ⊙ (W_up x) )
///
/// which is the expert structure of Mixtral, Qwen2 and DeepSeek alike.

#include <span>
#include <vector>

#include "kernels/quant.hpp"
#include "kernels/tensor.hpp"

namespace hybrimoe::kernels {

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

  /// Total float count of the three projections (the transfer blob size).
  [[nodiscard]] std::size_t blob_floats() const noexcept {
    return gate.size() + up.size() + down.size();
  }

  /// Serialize the three projections (gate, up, down — row-major,
  /// concatenated) into `dst`, which must hold at least blob_floats()
  /// values: the serialized weights one simulated PCIe transfer stands for
  /// (exec::ExpertStore::transfer_blob). Returns the floats written.
  std::size_t copy_blob_to(std::span<float> dst) const;
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

/// Forward pass through a dense expert reusing `scratch` for intermediates.
[[nodiscard]] std::vector<float> expert_forward(const ExpertWeights& w,
                                                std::span<const float> x,
                                                ForwardScratch& scratch);

/// Q4-quantized expert: same forward contract, ~8x smaller weights.
class QuantizedExpert {
 public:
  QuantizedExpert() = default;
  explicit QuantizedExpert(const ExpertWeights& dense);

  [[nodiscard]] std::vector<float> forward(std::span<const float> x) const;

  /// Forward pass reusing `scratch` for intermediates.
  [[nodiscard]] std::vector<float> forward(std::span<const float> x,
                                           ForwardScratch& scratch) const;

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
