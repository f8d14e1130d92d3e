#include "kernels/expert.hpp"

#include <type_traits>

#include "kernels/ops.hpp"
#include "kernels/simd.hpp"

namespace hybrimoe::kernels {

namespace {

/// y = W * x over one viewed projection of `rows` rows.
template <class T>
void project(std::span<const T> w, std::size_t rows, std::span<const float> x,
             std::span<float> y) {
  if constexpr (std::is_same_v<T, float>) {
    simd::gemv(w, rows, x, y);
  } else {
    simd::q4_gemv(w, rows, x, y);
  }
}

/// The SwiGLU forward shared by the dense and Q4 views.
template <class T>
std::vector<float> forward_view(const BasicExpertView<T>& w, std::span<const float> x,
                                ForwardScratch& scratch) {
  HYBRIMOE_REQUIRE(x.size() == w.d_model, "expert_forward dimension mismatch");
  scratch.gate.resize(w.d_ff);
  scratch.up.resize(w.d_ff);
  scratch.hidden.resize(w.d_ff);
  project(w.gate, w.d_ff, x, std::span<float>(scratch.gate));
  project(w.up, w.d_ff, x, std::span<float>(scratch.up));
  swiglu_combine(scratch.gate, scratch.up, scratch.hidden);
  std::vector<float> out(w.d_model);
  project(w.down, w.d_model, std::span<const float>(scratch.hidden), std::span<float>(out));
  return out;
}

}  // namespace

ExpertWeights ExpertWeights::random(util::Rng& rng, std::size_t d_model, std::size_t d_ff) {
  ExpertWeights w;
  w.gate = Tensor::randn(rng, d_ff, d_model);
  w.up = Tensor::randn(rng, d_ff, d_model);
  w.down = Tensor::randn(rng, d_model, d_ff);
  return w;
}

std::vector<float> expert_forward(const ExpertWeights& w, std::span<const float> x) {
  ForwardScratch scratch;
  return expert_forward(w, x, scratch);
}

std::vector<float> expert_forward(const ExpertWeights& w, std::span<const float> x,
                                  ForwardScratch& scratch) {
  return expert_forward(w.view(), x, scratch);
}

std::vector<float> expert_forward(const ExpertView& w, std::span<const float> x,
                                  ForwardScratch& scratch) {
  return forward_view(w, x, scratch);
}

std::vector<float> expert_forward(const Q4ExpertView& w, std::span<const float> x,
                                  ForwardScratch& scratch) {
  return forward_view(w, x, scratch);
}

QuantizedExpert::QuantizedExpert(const ExpertWeights& dense)
    : gate_(QuantizedMatrix::quantize(dense.gate)),
      up_(QuantizedMatrix::quantize(dense.up)),
      down_(QuantizedMatrix::quantize(dense.down)) {}

std::vector<float> QuantizedExpert::forward(std::span<const float> x) const {
  ForwardScratch scratch;
  return forward(x, scratch);
}

std::vector<float> QuantizedExpert::forward(std::span<const float> x,
                                            ForwardScratch& scratch) const {
  return expert_forward(view(), x, scratch);
}

}  // namespace hybrimoe::kernels
