#include "exec/expert_store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

#include "kernels/expert.hpp"
#include "util/rng.hpp"

namespace hybrimoe::exec {
namespace {

/// Frozen per-expert weight seed: the store draws expert `id` as
/// kernels::ExpertWeights::random(Rng(seed ^ salt ^ (id.encode() << 16)), ...).
/// Every exec digest depends on these values, so the formula is pinned here.
util::Rng expert_rng(std::uint64_t seed, moe::ExpertId id) {
  return util::Rng(seed ^ 0x57E1'6877'B10B'5EEDULL ^
                   (static_cast<std::uint64_t>(id.encode()) << 16));
}

kernels::ExpertWeights reference_weights(std::uint64_t seed, moe::ExpertId id,
                                         std::size_t d_model, std::size_t d_ff) {
  util::Rng rng = expert_rng(seed, id);
  return kernels::ExpertWeights::random(rng, d_model, d_ff);
}

std::uintptr_t address(const void* p) { return reinterpret_cast<std::uintptr_t>(p); }

bool same_bytes(std::span<const std::byte> a, const void* b, std::size_t bytes) {
  return a.size() == bytes && std::memcmp(a.data(), b, bytes) == 0;
}

TEST(ExpertStore, TransferBlobIsTheSerializedWeights) {
  // The payload is the transfer blob: gate | up | down, row-major, fp32 —
  // exactly ExpertWeights::random on the expert's seed — expert_bytes() long.
  constexpr std::uint64_t kSeed = 7;
  ExpertStore store(32, 64, kSeed);
  for (const moe::ExpertId id : {moe::ExpertId{0, 0}, moe::ExpertId{3, 5}}) {
    const auto blob = store.transfer_blob(id);
    ASSERT_EQ(blob.size(), store.expert_bytes());
    const auto w = reference_weights(kSeed, id, 32, 64);
    std::size_t offset = 0;
    for (const kernels::Tensor* t : {&w.gate, &w.up, &w.down}) {
      const auto bytes = t->flat().size_bytes();
      EXPECT_TRUE(same_bytes(blob.subspan(offset, bytes), t->flat().data(), bytes))
          << "expert " << id.layer << "/" << id.expert << " at byte " << offset;
      offset += bytes;
    }
    EXPECT_EQ(offset, blob.size());
    EXPECT_EQ(store.transfer_blob(id).data(), blob.data());  // stable
  }

  // Q4: the blocks of QuantizedExpert over the same fp32 weights, in order.
  ExpertStore q4(32, 64, kSeed, /*quantized=*/true);
  const moe::ExpertId id{3, 5};
  const auto blob = q4.transfer_blob(id);
  ASSERT_EQ(blob.size(), q4.expert_bytes());
  const kernels::QuantizedExpert q(reference_weights(kSeed, id, 32, 64));
  std::size_t offset = 0;
  for (const kernels::QuantizedMatrix* m : {&q.gate(), &q.up(), &q.down()}) {
    const auto bytes = m->blocks().size_bytes();
    EXPECT_TRUE(same_bytes(blob.subspan(offset, bytes), m->blocks().data(), bytes))
        << "Q4 projection at byte " << offset;
    offset += bytes;
  }
  EXPECT_EQ(offset, blob.size());
  EXPECT_EQ(q4.transfer_blob(id).data(), blob.data());
  EXPECT_LT(q4.expert_bytes(), store.expert_bytes());
}

TEST(ExpertStore, WeightsAliasTheOnePayloadAtStableAlignedAddresses) {
  // 37x50 payloads are 22200 bytes, not a multiple of 64: the arena must
  // carve each one's 64-byte alignment itself.
  ExpertStore store(37, 50, 11);
  const std::size_t n = 37 * 50;
  auto check_alias = [&](moe::ExpertId id) {
    const auto blob = store.transfer_blob(id);
    const auto w = store.weights(id);
    const auto* base = reinterpret_cast<const float*>(blob.data());
    EXPECT_EQ(w.gate.data(), base);
    EXPECT_EQ(w.up.data(), base + n);
    EXPECT_EQ(w.down.data(), base + 2 * n);
    EXPECT_EQ(w.gate.size() + w.up.size() + w.down.size(), blob.size() / sizeof(float));
    EXPECT_EQ(w.d_model, 37u);
    EXPECT_EQ(w.d_ff, 50u);
    EXPECT_EQ(address(blob.data()) % 64, 0u) << id.layer << "/" << id.expert;
  };

  const moe::ExpertId first{0, 0};
  const auto blob = store.transfer_blob(first);
  // The first payload opens the first arena chunk, which is 2 MiB-aligned.
  EXPECT_EQ(address(blob.data()) % (std::size_t{2} << 20), 0u);
  const std::vector<std::byte> contents(blob.begin(), blob.end());
  check_alias(first);

  // Hundreds of later materializations span several chunks; the first
  // expert's payload neither moves nor changes, and no payload is copied.
  for (std::uint16_t l = 1; l <= 6; ++l)
    for (std::uint16_t e = 0; e < 100; ++e) check_alias({l, e});
  EXPECT_EQ(store.materialized(), 601u);
  EXPECT_EQ(store.transfer_blob(first).data(), blob.data());
  EXPECT_TRUE(same_bytes(store.transfer_blob(first), contents.data(), contents.size()));
  check_alias(first);

  // Q4 payloads (20-byte blocks) are 64-byte aligned too.
  ExpertStore q4(37, 50, 11, /*quantized=*/true);
  for (std::uint16_t e = 0; e < 300; ++e)
    EXPECT_EQ(address(q4.transfer_blob({2, e}).data()) % 64, 0u) << e;
}

TEST(ExpertStore, QuantizedStoreHasNoDenseWeights) {
  ExpertStore q4(32, 64, 3, /*quantized=*/true);
  EXPECT_THROW((void)q4.weights({0, 0}), std::invalid_argument);
}

struct Geometry {
  std::size_t d_model;
  std::size_t d_ff;
};

TEST(ExpertStore, ForwardsEqualTheOwningKernelsBitForBit) {
  constexpr std::uint64_t kSeed = 0x5EED'0E8A;
  // d_model 20 and 37 are not multiples of 16 (SIMD tails); d_ff 72 and 50
  // are not multiples of 32 (padded Q4 rows).
  for (const Geometry g : {Geometry{32, 64}, Geometry{256, 512}, Geometry{20, 72},
                           Geometry{37, 50}}) {
    for (const bool quantized : {false, true}) {
      ExpertStore store(g.d_model, g.d_ff, kSeed, quantized);
      for (const moe::ExpertId id : {moe::ExpertId{0, 1}, moe::ExpertId{5, 7}}) {
        const auto x = store.layer_input(id.layer);
        const auto dense = reference_weights(kSeed, id, g.d_model, g.d_ff);
        const std::vector<float> expected =
            quantized ? kernels::QuantizedExpert(dense).forward(x)
                      : kernels::expert_forward(dense, x);
        const std::vector<float> got = store.forward(id, x);
        ASSERT_EQ(got.size(), expected.size());
        EXPECT_EQ(std::memcmp(got.data(), expected.data(), got.size() * sizeof(float)), 0)
            << g.d_model << "x" << g.d_ff << (quantized ? " Q4" : " fp32") << " expert "
            << id.layer << "/" << id.expert;
      }
    }
  }
}

TEST(ExpertStore, ConcurrentFirstTouchesReturnIdenticalPayloads) {
  ExpertStore store(32, 64, 5);
  constexpr std::size_t kThreads = 4;
  constexpr std::uint16_t kExperts = 64;
  std::vector<std::vector<const std::byte*>> seen(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &start, &seen, t] {
      start.arrive_and_wait();
      // Each thread walks the same experts from a different starting point.
      for (std::uint16_t i = 0; i < kExperts; ++i) {
        const auto e = static_cast<std::uint16_t>((i + t * 16) % kExperts);
        seen[t].push_back(store.transfer_blob({1, e}).data());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(store.materialized(), kExperts);
  for (std::uint16_t e = 0; e < kExperts; ++e) {
    const std::byte* expected = store.transfer_blob({1, e}).data();
    for (std::size_t t = 0; t < kThreads; ++t)
      EXPECT_EQ(seen[t][(e + kExperts - t * 16) % kExperts], expected)
          << "thread " << t << " expert " << e;
  }
}

}  // namespace
}  // namespace hybrimoe::exec
