/// \file multi_device_exec_test.cpp
/// Threaded execution of N-device plans: per-device GPU lanes and per-link
/// copy engines must reproduce the single-threaded reference outputs
/// bitwise, at any worker count, with transfer gating honored on every link.

#include <gtest/gtest.h>

#include <vector>

#include "exec/executor.hpp"
#include "hw/topology.hpp"
#include "moe/model_config.hpp"
#include "sched/simulator.hpp"

namespace hybrimoe::exec {
namespace {

using sched::ExpertDemand;
using sched::Stage;

hw::CostModel multi_costs(std::size_t devices) {
  return {hw::Topology::replicated(hw::MachineProfile::unit_test_machine(), devices),
          moe::ModelConfig::tiny()};
}

#if defined(__SANITIZE_THREAD__)
#define HYBRIMOE_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HYBRIMOE_TEST_TSAN 1
#endif
#endif

ExecOptions fast_options(std::size_t workers) {
  ExecOptions options;
  options.workers = workers;
  // Unit-machine seconds -> ~100us paced tasks; TSan slows wakeups by an
  // order of magnitude, so pace coarser there to keep overshoot negligible.
#if defined(HYBRIMOE_TEST_TSAN)
  options.time_scale = 3e-3;
#else
  options.time_scale = 1e-4;
#endif
  return options;
}

/// Demands exercising every lane: cached experts on both devices, CPU work,
/// and on-demand transfers.
std::vector<ExpertDemand> lane_demands(std::size_t devices) {
  std::vector<ExpertDemand> demands;
  for (std::uint16_t e = 0; e < 10; ++e) {
    ExpertDemand d;
    d.expert = e;
    d.load = 1 + e % 4;
    d.cached = e % 3 == 0;
    if (d.cached)
      d.cached_on =
          sched::accelerator_device(static_cast<std::size_t>(e) % devices);
    demands.push_back(d);
  }
  return demands;
}

TEST(MultiDeviceExecutor, ThreadedMatchesReferenceOnTwoDevicePlans) {
  const auto costs = multi_costs(2);
  const auto demands = lane_demands(2);
  const auto plan = sched::simulate_layer(0, Stage::Decode, demands, costs);
  ASSERT_TRUE(sched::validate_plan(plan, demands).empty());
  ASSERT_EQ(plan.num_accel_devices(), 2u);

  HybridExecutor reference(fast_options(1));
  reference.begin_step();
  const auto ref = reference.execute_layer_reference(plan);
  (void)reference.end_step();

  HybridExecutor threaded(fast_options(2));
  threaded.begin_step();
  const auto real = threaded.execute_layer(plan, 0.0);
  const auto step = threaded.end_step();
  EXPECT_EQ(step.layers, 1u);
  EXPECT_GT(real.measured, 0.0);
  EXPECT_EQ(ref.output, real.output);  // bitwise across lanes
}

TEST(MultiDeviceExecutor, DigestsAreWorkerCountInvariantOnFourDevices) {
  const auto costs = multi_costs(4);
  const auto demands = lane_demands(4);
  const auto plan = sched::simulate_layer(0, Stage::Decode, demands, costs);
  ASSERT_TRUE(sched::validate_plan(plan, demands).empty());

  std::uint64_t first_digest = 0;
  for (const std::size_t workers : {1u, 2u, 3u}) {
    HybridExecutor executor(fast_options(workers));
    executor.begin_step();
    (void)executor.execute_layer(plan, 0.0);
    const auto step = executor.end_step();
    EXPECT_NE(step.digest, kDigestSeed);
    if (first_digest == 0) {
      first_digest = step.digest;
    } else {
      EXPECT_EQ(step.digest, first_digest) << "workers=" << workers;
    }
  }
}

TEST(MultiDeviceExecutor, AsyncCopiesRouteToTheirLinks) {
  const auto costs = multi_costs(2);
  const auto demands = lane_demands(2);
  const auto plan = sched::simulate_layer(0, Stage::Decode, demands, costs);

  // 30 modeled seconds of speculative copies; if the layer waited on them
  // its window would grow by >= 20 (the busiest link).
  const std::vector<AsyncCopy> copies{{.id = {1, 0}, .link = 0, .seconds = 10.0},
                                      {.id = {1, 1}, .link = 1, .seconds = 10.0},
                                      {.id = {1, 2}, .link = 1, .seconds = 10.0}};
  // Paced at 10 ms per modeled second, not fast_options' 100 us: the +10
  // margin below is then 100 ms of wall clock, which scheduler stalls on a
  // loaded host (a few ms) cannot reach, while a layer that waited on the
  // busiest link would still overrun it by 2x.
  ExecOptions options = fast_options(2);
  options.time_scale = 1e-2;
  HybridExecutor executor(options);
  executor.begin_step();
  const auto result = executor.execute_layer(plan, 0.0, copies);
  // Speculative copies must not extend the layer window (the +10 margin
  // absorbs sleep overshoot, well under the 20s the busiest link would add
  // if the layer waited).
  EXPECT_LT(result.measured, plan.makespan + 10.0);
  const auto step = executor.end_step();  // drains every link
  EXPECT_EQ(step.layers, 1u);
}

TEST(MultiDeviceExecutor, UnpacedLinkLanesCountEveryTransfer) {
  // A transfer moves no host bytes, but each one is still a job on its
  // link's lane: on-demand transfers in transfer_order, then the async
  // copies routed to that link, every one counted and none lost unpaced.
  const auto costs = multi_costs(2);
  const auto demands = lane_demands(2);
  const auto plan = sched::simulate_layer(0, Stage::Decode, demands, costs);
  ASSERT_TRUE(sched::validate_plan(plan, demands).empty());
  ASSERT_EQ(plan.num_accel_devices(), 2u);
  const std::vector<AsyncCopy> copies{{.id = {1, 0}, .link = 0, .seconds = 1.0},
                                      {.id = {1, 1}, .link = 1, .seconds = 1.0},
                                      {.id = {1, 2}, .link = 1, .seconds = 1.0}};
  const std::size_t async_on_link[2] = {1, 2};

  HybridExecutor reference(fast_options(1));
  reference.begin_step();
  (void)reference.execute_layer_reference(plan);
  const auto ref = reference.end_step();

  HybridExecutor executor(fast_options(2));
  executor.begin_step(/*paced=*/false);
  (void)executor.execute_layer(plan, 0.0, copies);
  const auto step = executor.end_step();
  EXPECT_EQ(step.digest, ref.digest);
  ASSERT_EQ(executor.num_links(), 2u);
  for (std::size_t link = 0; link < 2; ++link) {
    const auto on_demand = plan.transfer_order(sched::accelerator_device(link)).size();
    ASSERT_GT(on_demand, 0u) << "link " << link << " has no on-demand transfer";
    EXPECT_EQ(executor.link_transfers_completed(link), on_demand + async_on_link[link])
        << "link " << link;
  }
}

TEST(MultiDeviceExecutor, RepeatedLayersStayDeterministic) {
  const auto costs = multi_costs(3);
  const auto demands = lane_demands(3);
  const auto plan = sched::simulate_layer(0, Stage::Decode, demands, costs);

  std::uint64_t digests[2] = {0, 0};
  for (int round = 0; round < 2; ++round) {
    HybridExecutor executor(fast_options(2));
    executor.begin_step();
    (void)executor.execute_layer(plan, 0.0);
    (void)executor.execute_layer(plan, 0.0);
    digests[round] = executor.end_step().digest;
  }
  EXPECT_EQ(digests[0], digests[1]);
}

}  // namespace
}  // namespace hybrimoe::exec
