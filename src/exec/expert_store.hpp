#pragma once

/// \file expert_store.hpp
/// Deterministic functional weights for the execution backend. Every
/// moe::ExpertId maps to a SwiGLU expert whose weights are generated from
/// (store seed, expert id) alone — independent of creation order, worker
/// count, and scheduling policy — so two stores with equal options hold
/// bitwise-identical weights and any execution order reproduces the same
/// layer outputs. The functional geometry (d_model/d_ff) is intentionally
/// decoupled from the cost model's: scheduling charges the paper's Table II
/// shapes while kernels run at small dimensions that finish in microseconds.
///
/// A store can run experts at fp32 (default) or Q4 precision. In either
/// case each expert's transfer blob — the serialized weights one simulated
/// PCIe transfer stands for — is built once into an arena owned by the
/// store; Q4 blobs are ~6x smaller than fp32 at the default geometry. The
/// executor's copy jobs move no bytes and never read a blob: the blob is
/// for callers that account or inspect transfer bytes.
///
/// Thread-safety: fully internally synchronized (shared_mutex). Lookups
/// take a shared lock; first touch of an expert materializes it under the
/// exclusive lock. Returned references/spans stay valid and immutable for
/// the store's lifetime (node-based map, arena chunks never move, weights
/// never mutated after creation), so workers may read them lock-free after
/// the accessor returns.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "kernels/expert.hpp"
#include "moe/expert_id.hpp"

namespace hybrimoe::exec {

/// Lazily-materialized (expert id -> weights) map plus per-layer inputs.
class ExpertStore {
 public:
  /// `d_model`/`d_ff`: functional expert geometry (both > 0); `seed` drives
  /// every weight and input value; `quantized` selects Q4 expert math and
  /// Q4 transfer blobs (weights are generated at fp32 first, so the dense
  /// weights are bitwise-identical across precisions for a given seed).
  ExpertStore(std::size_t d_model, std::size_t d_ff, std::uint64_t seed,
              bool quantized = false);

  /// \brief Functional d_model of every stored expert.
  [[nodiscard]] std::size_t d_model() const noexcept { return d_model_; }
  /// \brief Functional d_ff of every stored expert.
  [[nodiscard]] std::size_t d_ff() const noexcept { return d_ff_; }
  /// \brief True when experts run (and ship) at Q4 precision.
  [[nodiscard]] bool quantized() const noexcept { return quantized_; }
  /// Bytes of one expert's transfer blob (the serialized weights one
  /// transfer stands for): the three fp32 projection matrices, or their Q4
  /// blocks when the store is quantized.
  [[nodiscard]] std::size_t expert_bytes() const noexcept;

  /// Dense weights of `id` (what fp32 forwards read), materializing the
  /// expert on first touch. Thread-safe; the returned reference is stable
  /// and immutable.
  [[nodiscard]] const kernels::ExpertWeights& weights(moe::ExpertId id);

  /// Transfer blob of `id`: the serialized weights one transfer stands for
  /// (size expert_bytes(); fp32 layout gate | up | down as in
  /// ExpertWeights::copy_blob_to), arena-backed and materialized on first
  /// touch. Thread-safe; stable and immutable.
  [[nodiscard]] std::span<const std::byte> transfer_blob(moe::ExpertId id);

  /// Forward pass of expert `id` on `x` at the store's precision, reusing
  /// per-thread scratch for intermediates. Thread-safe.
  [[nodiscard]] std::vector<float> forward(moe::ExpertId id, std::span<const float> x);

  /// Deterministic activation vector fed to every expert of `layer`
  /// (size d_model). Thread-safe; the returned span is stable and immutable.
  [[nodiscard]] std::span<const float> layer_input(std::uint16_t layer);

  /// Experts materialized so far (telemetry for memory accounting).
  [[nodiscard]] std::size_t materialized() const;

 private:
  /// Chunked bump allocator for transfer blobs: stable addresses, one
  /// allocation per ~1 MiB of weights instead of one per expert touch.
  class BlobArena {
   public:
    /// Carve `bytes` (64-byte aligned start) out of the current chunk,
    /// growing by a new chunk when it does not fit. Addresses never move.
    [[nodiscard]] std::span<std::byte> allocate(std::size_t bytes);

   private:
    static constexpr std::size_t kChunkBytes = 1 << 20;
    std::vector<std::unique_ptr<std::byte[]>> chunks_;
    std::size_t used_ = 0;
    std::size_t capacity_ = 0;
  };

  /// One materialized expert: dense weights, the Q4 form when quantized,
  /// and the serialized arena-backed transfer payload.
  struct Entry {
    kernels::ExpertWeights weights;
    kernels::QuantizedExpert q4;
    std::span<const std::byte> blob;
  };

  /// Materialize-on-first-touch lookup shared by the public accessors.
  [[nodiscard]] const Entry& entry(std::uint32_t key);

  std::size_t d_model_;
  std::size_t d_ff_;
  std::uint64_t seed_;
  bool quantized_;
  mutable std::shared_mutex mutex_;
  BlobArena arena_;
  std::unordered_map<std::uint32_t, Entry> experts_;
  std::unordered_map<std::uint16_t, std::vector<float>> inputs_;
};

}  // namespace hybrimoe::exec
