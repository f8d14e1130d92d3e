#include "exec/expert_store.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <new>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace hybrimoe::exec {

namespace {

/// Domain-separation salts so weights and inputs draw from disjoint streams.
constexpr std::uint64_t kWeightSalt = 0x57E1'6877'B10B'5EEDULL;
constexpr std::uint64_t kInputSalt = 0x1A7E'17F0'0D5A'17EDULL;

constexpr std::size_t kHugePage = std::size_t{2} << 20;
constexpr std::size_t kPayloadAlign = 64;

std::size_t round_up(std::size_t n, std::size_t to) noexcept { return (n + to - 1) / to * to; }

/// Q4 blocks of one row of `cols` values (padded to whole blocks).
std::size_t q4_row_blocks(std::size_t cols) noexcept {
  return (cols + kernels::Q4Block::kValues - 1) / kernels::Q4Block::kValues;
}

/// The three projections of a payload laid out gate | up | down, where
/// gate/up hold `in_len` elements each and down `out_len`.
template <class T>
kernels::BasicExpertView<T> split_payload(std::span<const std::byte> payload,
                                          std::size_t in_len, std::size_t out_len,
                                          std::size_t d_model, std::size_t d_ff) {
  const auto* base = reinterpret_cast<const T*>(payload.data());
  return {{base, in_len}, {base + in_len, in_len}, {base + 2 * in_len, out_len}, d_model,
          d_ff};
}

/// Map `bytes` (a multiple of kHugePage) at a kHugePage-aligned address,
/// advised MADV_HUGEPAGE before anything touches it.
std::span<std::byte> map_chunk(std::size_t bytes) {
  const std::size_t span = bytes + kHugePage;  // room to align the start
  void* raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                     -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto start = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t aligned = round_up(start, kHugePage);
  if (aligned > start) ::munmap(raw, aligned - start);
  const std::size_t tail = start + span - (aligned + bytes);
  if (tail > 0) ::munmap(reinterpret_cast<void*>(aligned + bytes), tail);
  auto* base = reinterpret_cast<std::byte*>(aligned);
  (void)::madvise(base, bytes, MADV_HUGEPAGE);  // advisory: fails harmlessly without THP
  // A byte array's lifetime starts here, so the float and Q4Block payloads
  // written into it are implicitly created objects (no code runs).
  return {::new (base) std::byte[bytes], bytes};
}

}  // namespace

ExpertStore::PayloadArena::~PayloadArena() {
  for (const std::span<std::byte> chunk : chunks_) ::munmap(chunk.data(), chunk.size());
}

std::span<std::byte> ExpertStore::PayloadArena::allocate(std::size_t bytes) {
  used_ = round_up(used_, kPayloadAlign);
  if (chunks_.empty() || used_ + bytes > chunks_.back().size()) {
    // 2 MiB, then doubling up to 64 MiB; always large enough for `bytes`.
    const std::size_t grown = kHugePage << std::min<std::size_t>(chunks_.size(), 5);
    chunks_.push_back(map_chunk(round_up(std::max(grown, bytes), kHugePage)));
    used_ = 0;
  }
  const std::span<std::byte> out = chunks_.back().subspan(used_, bytes);
  used_ += bytes;
  return out;
}

ExpertStore::ExpertStore(std::size_t d_model, std::size_t d_ff, std::uint64_t seed,
                         bool quantized)
    : d_model_(d_model), d_ff_(d_ff), seed_(seed), quantized_(quantized) {
  HYBRIMOE_REQUIRE(d_model > 0 && d_ff > 0, "expert store dimensions must be positive");
}

std::size_t ExpertStore::expert_bytes() const noexcept {
  if (!quantized_) return 3 * d_model_ * d_ff_ * sizeof(float);
  return (2 * d_ff_ * q4_row_blocks(d_model_) + d_model_ * q4_row_blocks(d_ff_)) *
         sizeof(kernels::Q4Block);
}

std::span<const std::byte> ExpertStore::transfer_blob(moe::ExpertId id) {
  const std::uint32_t key = id.encode();
  {
    std::shared_lock lock(mutex_);
    const auto it = experts_.find(key);
    if (it != experts_.end()) return it->second;
  }
  std::unique_lock lock(mutex_);
  const auto it = experts_.find(key);  // re-check: another thread may have won
  if (it != experts_.end()) return it->second;

  util::Rng rng(seed_ ^ kWeightSalt ^ (static_cast<std::uint64_t>(key) << 16));
  const std::span<std::byte> out = arena_.allocate(expert_bytes());
  if (quantized_) {
    const kernels::QuantizedExpert q4(kernels::ExpertWeights::random(rng, d_model_, d_ff_));
    std::byte* dst = out.data();
    for (const kernels::QuantizedMatrix* m : {&q4.gate(), &q4.up(), &q4.down()}) {
      const std::size_t bytes = m->blocks().size_bytes();
      std::memcpy(dst, m->blocks().data(), bytes);
      dst += bytes;
    }
  } else {
    // Drawn in place, in ExpertWeights::random's order: gate, up, down.
    auto* w = reinterpret_cast<float*>(out.data());
    const std::size_t n = d_model_ * d_ff_;
    kernels::fill_randn(rng, {w, n}, d_model_);
    kernels::fill_randn(rng, {w + n, n}, d_model_);
    kernels::fill_randn(rng, {w + 2 * n, n}, d_ff_);
  }
  return experts_.emplace(key, out).first->second;
}

kernels::ExpertView ExpertStore::weights(moe::ExpertId id) {
  HYBRIMOE_REQUIRE(!quantized_, "a quantized expert store holds no fp32 weights");
  const std::size_t n = d_model_ * d_ff_;
  return split_payload<float>(transfer_blob(id), n, n, d_model_, d_ff_);
}

std::vector<float> ExpertStore::forward(moe::ExpertId id, std::span<const float> x) {
  thread_local kernels::ForwardScratch scratch;
  if (!quantized_) return kernels::expert_forward(weights(id), x, scratch);
  const auto q4 = split_payload<kernels::Q4Block>(
      transfer_blob(id), d_ff_ * q4_row_blocks(d_model_), d_model_ * q4_row_blocks(d_ff_), d_model_,
      d_ff_);
  return kernels::expert_forward(q4, x, scratch);
}

std::span<const float> ExpertStore::layer_input(std::uint16_t layer) {
  {
    std::shared_lock lock(mutex_);
    const auto it = inputs_.find(layer);
    if (it != inputs_.end()) return it->second;
  }
  std::unique_lock lock(mutex_);
  const auto it = inputs_.find(layer);
  if (it != inputs_.end()) return it->second;
  util::Rng rng(seed_ ^ kInputSalt ^ (static_cast<std::uint64_t>(layer) + 1));
  std::vector<float> x(d_model_);
  for (auto& v : x) v = static_cast<float>(rng.gaussian());
  return inputs_.emplace(layer, std::move(x)).first->second;
}

std::size_t ExpertStore::materialized() const {
  std::shared_lock lock(mutex_);
  return experts_.size();
}

}  // namespace hybrimoe::exec
