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
/// One payload per expert. A store runs experts at fp32 (default) or Q4
/// precision and keeps each expert exactly once, as its payload: the three
/// projections gate | up | down, row-major, as fp32 values or as Q4 blocks
/// (~6x smaller at the default geometry). The payload is at once what every
/// forward reads in place (through kernels::ExpertView / Q4ExpertView) and
/// the transfer blob — the serialized weights one simulated PCIe transfer
/// stands for (the executor's copy jobs move no bytes and never read it).
/// fp32 values are bit-identical to kernels::ExpertWeights::random on the
/// expert's seed; Q4 blocks to kernels::QuantizedExpert of those weights.
///
/// The arena. Payloads are carved at 64-byte alignment from chunks that are
/// 2 MiB-aligned and whole multiples of 2 MiB, mapped lazily (untouched
/// pages cost no memory) and advised MADV_HUGEPAGE before first touch, so
/// on hosts with transparent huge pages the weight stream of a forward
/// walks few TLB entries. The advice is best effort: without huge pages the
/// arena is ordinary 4 KiB memory with identical contents. The first chunk
/// is 2 MiB and each next one doubles up to 64 MiB, so a tiny store maps
/// one huge page, not a large up-front reservation.
///
/// Thread-safety: fully internally synchronized (shared_mutex). Lookups
/// take a shared lock; first touch of an expert materializes it under the
/// exclusive lock. Returned views/spans stay valid and immutable for the
/// store's lifetime (arena chunks never move, payloads are never mutated
/// after creation), so workers may read them lock-free after the accessor
/// returns.

#include <cstddef>
#include <cstdint>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "kernels/expert.hpp"
#include "moe/expert_id.hpp"

namespace hybrimoe::exec {

/// Lazily-materialized (expert id -> payload) map plus per-layer inputs.
class ExpertStore {
 public:
  /// `d_model`/`d_ff`: functional expert geometry (both > 0); `seed` drives
  /// every weight and input value; `quantized` selects Q4 payloads and Q4
  /// expert math (the blocks quantize the fp32 weights the same seed gives
  /// an fp32 store).
  ExpertStore(std::size_t d_model, std::size_t d_ff, std::uint64_t seed,
              bool quantized = false);

  /// \brief Functional d_model of every stored expert.
  [[nodiscard]] std::size_t d_model() const noexcept { return d_model_; }
  /// \brief Functional d_ff of every stored expert.
  [[nodiscard]] std::size_t d_ff() const noexcept { return d_ff_; }
  /// \brief True when experts run (and ship) at Q4 precision.
  [[nodiscard]] bool quantized() const noexcept { return quantized_; }
  /// Bytes of one expert's payload (= its transfer blob): the three fp32
  /// projection matrices, or their Q4 blocks when the store is quantized.
  [[nodiscard]] std::size_t expert_bytes() const noexcept;

  /// Dense weights of `id` as a view of its payload (what fp32 forwards
  /// read), materializing the expert on first touch. Throws
  /// std::invalid_argument on a quantized store, which holds only Q4 blocks.
  /// Thread-safe; the viewed weights are stable and immutable.
  [[nodiscard]] kernels::ExpertView weights(moe::ExpertId id);

  /// Payload of `id` as raw bytes — the transfer blob, the serialized
  /// weights one transfer stands for (size expert_bytes(), layout gate | up
  /// | down), materialized on first touch. Thread-safe; stable and
  /// immutable.
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
  /// Bump allocator over 2 MiB-aligned, huge-page-advised chunks (see the
  /// file comment): stable addresses, one mapping per chunk.
  class PayloadArena {
   public:
    PayloadArena() = default;
    ~PayloadArena();
    PayloadArena(const PayloadArena&) = delete;
    PayloadArena& operator=(const PayloadArena&) = delete;

    /// Carve `bytes` (64-byte aligned start) out of the current chunk,
    /// mapping a new chunk when it does not fit. Addresses never move.
    [[nodiscard]] std::span<std::byte> allocate(std::size_t bytes);

   private:
    std::vector<std::span<std::byte>> chunks_;
    std::size_t used_ = 0;  ///< bytes carved from chunks_.back()
  };

  std::size_t d_model_;
  std::size_t d_ff_;
  std::uint64_t seed_;
  bool quantized_;
  mutable std::shared_mutex mutex_;
  PayloadArena arena_;
  std::unordered_map<std::uint32_t, std::span<const std::byte>> experts_;
  std::unordered_map<std::uint16_t, std::vector<float>> inputs_;
};

}  // namespace hybrimoe::exec
