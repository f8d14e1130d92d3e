#include "sched/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.hpp"

namespace hybrimoe::sched {
namespace {

/// Unit-cost machine: cpu == load, gpu == 1 (flat), transfer == 3 — the
/// cost regime of the paper's Fig. 5 worked example.
class SimulatorTest : public ::testing::Test {
 protected:
  moe::ModelConfig model_ = moe::ModelConfig::tiny();
  hw::CostModel costs_{hw::MachineProfile::unit_test_machine(), model_};
};

const ExpertTask* find_task(const LayerPlan& plan, std::uint16_t expert) {
  for (const auto& t : plan.tasks)
    if (t.expert.expert == expert) return &t;
  return nullptr;
}

TEST_F(SimulatorTest, Fig5WorkedExample) {
  // A:1 B:1 C:3 uncached; D:4 E:1 cached. The hybrid schedule sends the
  // heavy uncached expert C through PCIe to the GPU instead of computing it
  // on the CPU (paper Fig. 5 steps 3-4), and the CPU handles the small
  // uncached experts A and B.
  const std::vector<ExpertDemand> demands = {
      {0, 1, false}, {1, 1, false}, {2, 3, false}, {3, 4, true}, {4, 1, true}};
  const auto plan = simulate_layer(0, Stage::Decode, demands, costs_);
  EXPECT_TRUE(validate_plan(plan, demands).empty());

  const auto* a = find_task(plan, 0);
  const auto* b = find_task(plan, 1);
  const auto* c = find_task(plan, 2);
  const auto* d = find_task(plan, 3);
  ASSERT_TRUE(a && b && c && d);
  EXPECT_EQ(a->device, kCpuDevice);
  EXPECT_EQ(b->device, kCpuDevice);
  EXPECT_EQ(c->device, kGpuDevice);
  EXPECT_TRUE(c->transferred);
  EXPECT_GE(c->start, c->transfer_end);
  EXPECT_EQ(d->device, kGpuDevice);
  EXPECT_FALSE(d->transferred);

  // Hybrid beats the no-transfer fixed mapping on this instance (4 vs 5).
  SimOptions fixed;
  fixed.allow_transfers = false;
  fixed.allow_cpu_steal = false;
  const auto fixed_plan = simulate_layer(0, Stage::Decode, demands, costs_, fixed);
  EXPECT_LT(plan.makespan, fixed_plan.makespan);
  EXPECT_NEAR(plan.makespan, 4.0, 1e-9);
  EXPECT_NEAR(fixed_plan.makespan, 5.0, 1e-9);
}

TEST_F(SimulatorTest, Fig5StealWithBusyGpu) {
  // With the GPU held by the shared expert (gpu_busy_until) the idle CPU
  // steals the low-load cached expert E — the paper's step 5.
  const std::vector<ExpertDemand> demands = {
      {0, 1, false}, {3, 4, true}, {4, 1, true}};
  SimOptions opt;
  opt.gpu_busy_until = 1.5;
  const auto plan = simulate_layer(0, Stage::Decode, demands, costs_, opt);
  EXPECT_TRUE(validate_plan(plan, demands).empty());
  const auto* e = find_task(plan, 4);
  ASSERT_TRUE(e != nullptr);
  EXPECT_EQ(e->device, kCpuDevice);  // stolen: CPU idle at t=1, GPU busy
  const auto* d = find_task(plan, 3);
  EXPECT_EQ(d->device, kGpuDevice);
  EXPECT_GE(d->start, 1.5);
}

TEST_F(SimulatorTest, GpuPriorityHighLoadFirst) {
  const std::vector<ExpertDemand> demands = {
      {0, 1, true}, {1, 5, true}, {2, 3, true}};
  SimOptions opt;
  opt.allow_cpu_steal = false;  // keep everything on the GPU
  const auto plan = simulate_layer(0, Stage::Decode, demands, costs_, opt);
  // GPU order: loads 5, 3, 1.
  std::vector<std::pair<double, std::uint32_t>> order;
  for (const auto& t : plan.tasks) order.emplace_back(t.start, t.load);
  std::sort(order.begin(), order.end());
  ASSERT_EQ(order.size(), 3U);
  EXPECT_EQ(order[0].second, 5U);
  EXPECT_EQ(order[1].second, 3U);
  EXPECT_EQ(order[2].second, 1U);
}

TEST_F(SimulatorTest, CpuPriorityLowLoadFirst) {
  const std::vector<ExpertDemand> demands = {
      {0, 4, false}, {1, 1, false}, {2, 2, false}};
  SimOptions opt;
  opt.allow_transfers = false;
  const auto plan = simulate_layer(0, Stage::Decode, demands, costs_, opt);
  std::vector<std::pair<double, std::uint32_t>> order;
  for (const auto& t : plan.tasks) order.emplace_back(t.start, t.load);
  std::sort(order.begin(), order.end());
  EXPECT_EQ(order[0].second, 1U);
  EXPECT_EQ(order[1].second, 2U);
  EXPECT_EQ(order[2].second, 4U);
}

TEST_F(SimulatorTest, TransferPriorityHighLoadFirst) {
  // CPU disabled: every expert streams; high loads go first.
  const std::vector<ExpertDemand> demands = {
      {0, 1, false}, {1, 5, false}, {2, 3, false}};
  SimOptions opt;
  opt.allow_cpu = false;
  opt.transfer_only_if_beneficial = false;
  const auto plan = simulate_layer(0, Stage::Decode, demands, costs_, opt);
  EXPECT_TRUE(validate_plan(plan, demands).empty());
  std::vector<std::pair<double, std::uint32_t>> transfers;
  for (const auto& t : plan.tasks) {
    EXPECT_TRUE(t.transferred);
    transfers.emplace_back(t.transfer_start, t.load);
  }
  std::sort(transfers.begin(), transfers.end());
  EXPECT_EQ(transfers[0].second, 5U);
  EXPECT_EQ(transfers[1].second, 3U);
  EXPECT_EQ(transfers[2].second, 1U);
}

TEST_F(SimulatorTest, NoTransferWhenCpuIsFaster) {
  // One small uncached expert: CPU (1s) beats transfer+GPU (3+1s).
  const std::vector<ExpertDemand> demands = {{0, 1, false}};
  const auto plan = simulate_layer(0, Stage::Decode, demands, costs_);
  EXPECT_EQ(plan.tasks[0].device, kCpuDevice);
  EXPECT_EQ(plan.pcie_busy, 0.0);
}

TEST_F(SimulatorTest, GpuOffsetDelaysGpuNotCpu) {
  const std::vector<ExpertDemand> demands = {{0, 2, true}, {1, 1, false}};
  SimOptions opt;
  opt.gpu_busy_until = 10.0;
  const auto plan = simulate_layer(0, Stage::Decode, demands, costs_, opt);
  EXPECT_TRUE(validate_plan(plan, demands).empty());
  for (const auto& t : plan.tasks) {
    if (t.device == kGpuDevice) {
      EXPECT_GE(t.start, 10.0);
    }
  }
  const auto* cpu_task = find_task(plan, 1);
  ASSERT_TRUE(cpu_task != nullptr);
  EXPECT_EQ(cpu_task->device, kCpuDevice);
  EXPECT_DOUBLE_EQ(cpu_task->start, 0.0);
  EXPECT_GE(plan.makespan, 10.0);
}

TEST_F(SimulatorTest, PcieOffsetDelaysTransfers) {
  const std::vector<ExpertDemand> demands = {{0, 8, false}, {1, 8, false}};
  SimOptions opt;
  opt.pcie_busy_until = 2.0;
  const auto plan = simulate_layer(0, Stage::Decode, demands, costs_, opt);
  EXPECT_TRUE(validate_plan(plan, demands).empty());
  for (const auto& t : plan.tasks) {
    if (t.transferred) {
      EXPECT_GE(t.transfer_start, 2.0);
    }
  }
}

TEST_F(SimulatorTest, WarmupAppliedToFirstCpuTaskOnly) {
  moe::ModelConfig model = moe::ModelConfig::tiny();
  hw::MachineProfile machine = hw::MachineProfile::unit_test_machine();
  machine.cpu.warmup_penalty = 0.5;
  const hw::CostModel costs(machine, model);
  const std::vector<ExpertDemand> demands = {{0, 1, false}, {1, 1, false}};
  SimOptions opt;
  opt.allow_transfers = false;
  const auto plan = simulate_layer(0, Stage::Decode, demands, costs, opt);
  std::vector<double> durations;
  for (const auto& t : plan.tasks) durations.push_back(t.end - t.start);
  std::sort(durations.begin(), durations.end());
  EXPECT_NEAR(durations[0], 1.0, 1e-9);
  EXPECT_NEAR(durations[1], 1.5, 1e-9);  // cold first task

  SimOptions no_cold = opt;
  no_cold.cpu_cold_start = false;
  const auto warm_plan = simulate_layer(0, Stage::Decode, demands, costs, no_cold);
  EXPECT_NEAR(warm_plan.makespan, 2.0, 1e-9);
}

TEST_F(SimulatorTest, InputValidation) {
  const std::vector<ExpertDemand> empty;
  EXPECT_THROW((void)simulate_layer(0, Stage::Decode, empty, costs_),
               std::invalid_argument);
  const std::vector<ExpertDemand> zero_load = {{0, 0, false}};
  EXPECT_THROW((void)simulate_layer(0, Stage::Decode, zero_load, costs_),
               std::invalid_argument);
  const std::vector<ExpertDemand> duplicate = {{0, 1, false}, {0, 2, false}};
  EXPECT_THROW((void)simulate_layer(0, Stage::Decode, duplicate, costs_),
               std::invalid_argument);
  SimOptions bad;
  bad.allow_cpu = false;
  bad.allow_transfers = false;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST_F(SimulatorTest, Deterministic) {
  util::Rng rng(5);
  std::vector<ExpertDemand> demands;
  for (std::uint16_t e = 0; e < 8; ++e)
    demands.push_back({e, static_cast<std::uint32_t>(rng.uniform_index(9) + 1),
                       rng.bernoulli(0.5)});
  const auto p1 = simulate_layer(0, Stage::Prefill, demands, costs_);
  const auto p2 = simulate_layer(0, Stage::Prefill, demands, costs_);
  ASSERT_EQ(p1.tasks.size(), p2.tasks.size());
  EXPECT_EQ(p1.makespan, p2.makespan);
  for (std::size_t i = 0; i < p1.tasks.size(); ++i) {
    EXPECT_EQ(p1.tasks[i].expert, p2.tasks[i].expert);
    EXPECT_EQ(p1.tasks[i].start, p2.tasks[i].start);
  }
}

TEST_F(SimulatorTest, MakespanWithExtraCachedHelpsOnAggregate) {
  // Caching one more expert usually shortens the layer, but greedy list
  // scheduling has Graham-style anomalies: forcing an expert onto the GPU
  // queue can occasionally serialize work the CPU would have absorbed. The
  // prefetcher clamps negative impacts, so what matters is (a) regressions
  // are bounded and (b) the aggregate effect is clearly positive.
  util::Rng rng(6);
  double total_gain = 0.0;
  int cases = 0;
  int regressions = 0;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<ExpertDemand> demands;
    for (std::uint16_t e = 0; e < 6; ++e)
      demands.push_back({e, static_cast<std::uint32_t>(rng.uniform_index(8) + 1),
                         rng.bernoulli(0.4)});
    const double base = simulate_layer(0, Stage::Decode, demands, costs_).makespan;
    for (const auto& d : demands) {
      if (d.cached) continue;
      const double with =
          makespan_with_extra_cached(0, Stage::Decode, demands, d.expert, costs_);
      EXPECT_LE(with, base * 1.6 + 1e-9) << "expert " << d.expert;
      total_gain += base - with;
      ++cases;
      if (with > base + 1e-9) ++regressions;
    }
  }
  ASSERT_GT(cases, 0);
  EXPECT_GT(total_gain, 0.0);
  EXPECT_LT(static_cast<double>(regressions) / cases, 0.25);
}

/// Structural validity across randomized instances and every option set —
/// the central property test of the scheduling subsystem.
struct OptionCase {
  const char* name;
  SimOptions options;
};

// Without a printer gtest lists a param as its raw bytes, which begin with
// the ASLR-randomised address of `name`; the registered test names then
// changed from one build (and one discovery run) to the next.
void PrintTo(const OptionCase& option_case, std::ostream* os) { *os << option_case.name; }

class PlanValidityTest : public ::testing::TestWithParam<OptionCase> {};

TEST_P(PlanValidityTest, RandomInstancesAlwaysValid) {
  const auto& options = GetParam().options;
  const moe::ModelConfig model = moe::ModelConfig::tiny();
  const hw::CostModel costs(hw::MachineProfile::unit_test_machine(), model);
  util::Rng rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<std::uint16_t>(rng.uniform_index(12) + 1);
    std::vector<ExpertDemand> demands;
    for (std::uint16_t e = 0; e < n; ++e)
      demands.push_back({e, static_cast<std::uint32_t>(rng.uniform_index(16) + 1),
                         rng.bernoulli(0.5)});
    SimOptions opt = options;
    opt.gpu_busy_until = rng.bernoulli(0.5) ? rng.uniform(0.0, 3.0) : 0.0;
    opt.pcie_busy_until = rng.bernoulli(0.3) ? rng.uniform(0.0, 2.0) : 0.0;
    const auto plan = simulate_layer(3, Stage::Decode, demands, costs, opt);
    const auto issues = validate_plan(plan, demands);
    ASSERT_TRUE(issues.empty())
        << GetParam().name << " trial " << trial << ": " << issues.front();
  }
}

INSTANTIATE_TEST_SUITE_P(
    OptionSets, PlanValidityTest,
    ::testing::Values(
        OptionCase{"hybrid", SimOptions{}},
        OptionCase{"no_transfers",
                   SimOptions{.allow_transfers = false, .allow_cpu_steal = false}},
        OptionCase{"gpu_centric",
                   SimOptions{.allow_cpu = false, .transfer_only_if_beneficial = false}},
        OptionCase{"no_steal", SimOptions{.allow_cpu_steal = false}},
        OptionCase{"naive_transfers", SimOptions{.transfer_only_if_beneficial = false}},
        OptionCase{"greedy_cpu", SimOptions{.cpu_only_if_beneficial = false}}),
    [](const ::testing::TestParamInfo<OptionCase>& param_info) {
      return param_info.param.name;
    });

/// The hybrid schedule should rarely lose to restricted variants; assert it
/// never loses by more than a small factor and wins on aggregate.
TEST_F(SimulatorTest, HybridCompetitiveWithRestrictedVariants) {
  util::Rng rng(8);
  double hybrid_total = 0.0;
  double fixed_total = 0.0;
  double gpu_total = 0.0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<ExpertDemand> demands;
    const auto n = static_cast<std::uint16_t>(rng.uniform_index(10) + 2);
    for (std::uint16_t e = 0; e < n; ++e)
      demands.push_back({e, static_cast<std::uint32_t>(rng.uniform_index(12) + 1),
                         rng.bernoulli(0.5)});
    const double hybrid = simulate_layer(0, Stage::Decode, demands, costs_).makespan;
    SimOptions fixed;
    fixed.allow_transfers = false;
    fixed.allow_cpu_steal = false;
    const double no_move =
        simulate_layer(0, Stage::Decode, demands, costs_, fixed).makespan;
    SimOptions gpu_only;
    gpu_only.allow_cpu = false;
    gpu_only.transfer_only_if_beneficial = false;
    const double gpu =
        simulate_layer(0, Stage::Decode, demands, costs_, gpu_only).makespan;
    hybrid_total += hybrid;
    fixed_total += no_move;
    gpu_total += gpu;
    EXPECT_LE(hybrid, no_move * 1.35) << "trial " << trial;
  }
  EXPECT_LT(hybrid_total, fixed_total);
  EXPECT_LT(hybrid_total, gpu_total);
}

}  // namespace
}  // namespace hybrimoe::sched
