#pragma once

/// \file tensor.hpp
/// Minimal row-major dense matrix used by the functional MoE path.
///
/// The scheduling/caching system never touches weight values — it operates on
/// the cost model — but the functional runner, the quantization kernels and
/// several tests execute real expert math at small dimensions. This type keeps
/// that path simple, owning, and bounds-checked in debug contract mode.

#include <cstddef>
#include <span>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace hybrimoe::kernels {

/// Owning row-major 2-D float matrix.
class Tensor {
 public:
  Tensor() = default;
  Tensor(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  /// All-zero matrix.
  [[nodiscard]] static Tensor zeros(std::size_t rows, std::size_t cols) {
    return Tensor(rows, cols);
  }

  /// i.i.d. Gaussian entries scaled by `stddev` (default 1/sqrt(cols), the
  /// usual fan-in init so activations stay O(1)).
  [[nodiscard]] static Tensor randn(util::Rng& rng, std::size_t rows, std::size_t cols,
                                    double stddev = -1.0);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] float& at(std::size_t r, std::size_t c) {
    HYBRIMOE_REQUIRE(r < rows_ && c < cols_, "Tensor::at out of range");
    return data_[r * cols_ + c];
  }
  [[nodiscard]] float at(std::size_t r, std::size_t c) const {
    HYBRIMOE_REQUIRE(r < rows_ && c < cols_, "Tensor::at out of range");
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<float> row(std::size_t r) {
    HYBRIMOE_REQUIRE(r < rows_, "Tensor::row out of range");
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const float> row(std::size_t r) const {
    HYBRIMOE_REQUIRE(r < rows_, "Tensor::row out of range");
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] std::span<float> flat() noexcept { return data_; }
  [[nodiscard]] std::span<const float> flat() const noexcept { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// Fill row-major storage of `cols`-wide rows with the values
/// Tensor::randn(rng, out.size() / cols, cols, stddev) holds, drawing the
/// same stream from `rng`: for weights that live outside a Tensor.
void fill_randn(util::Rng& rng, std::span<float> out, std::size_t cols,
                double stddev = -1.0);

}  // namespace hybrimoe::kernels
