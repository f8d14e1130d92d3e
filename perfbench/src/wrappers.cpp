#include "wrappers.hpp"

#include <memory>

#include "spans.hpp"

namespace perfbench {

namespace rt = hybrimoe::runtime;
namespace sched = hybrimoe::sched;
namespace cache = hybrimoe::cache;
namespace core = hybrimoe::core;
namespace moe = hybrimoe::moe;

LayerCounters& counters() {
  static LayerCounters c;
  return c;
}

namespace {

class TracedScheduler final : public sched::LayerScheduler {
 public:
  explicit TracedScheduler(std::unique_ptr<sched::LayerScheduler> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] sched::LayerPlan schedule(std::uint16_t layer, sched::Stage stage,
                                          std::span<const sched::ExpertDemand> demands,
                                          const hybrimoe::hw::CostModel& costs,
                                          double gpu_busy_until, double pcie_busy_until,
                                          std::span<const double> link_busy) override {
    LayerCounters& c = counters();
    sched::LayerPlan plan;
    {
      ScopedSpan span(SpanName::Schedule, c.step);
      plan = inner_->schedule(layer, stage, demands, costs, gpu_busy_until,
                              pcie_busy_until, link_busy);
    }
    c.plan_tasks += plan.tasks.size();
    for (const sched::ExpertDemand& d : demands) {
      if (!d.cached) continue;
      if (c.pending.erase(moe::ExpertId{layer, d.expert}) > 0) ++c.useful_decisions;
    }
    return plan;
  }

  [[nodiscard]] sched::SimOptions impact_options() const override {
    return inner_->impact_options();
  }

 private:
  std::unique_ptr<sched::LayerScheduler> inner_;
};

class TracedPrefetcher final : public core::Prefetcher {
 public:
  explicit TracedPrefetcher(std::unique_ptr<core::Prefetcher> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] std::vector<core::PrefetchDecision> plan(
      const hybrimoe::workload::ForwardTrace& trace, std::size_t layer,
      sched::Stage stage, const cache::ExpertCache& cache,
      const hybrimoe::hw::CostModel& costs, double budget_seconds,
      const std::unordered_set<moe::ExpertId>* extra_resident) override {
    LayerCounters& c = counters();
    std::vector<core::PrefetchDecision> decisions;
    {
      ScopedSpan span(SpanName::Prefetch, c.step);
      decisions = inner_->plan(trace, layer, stage, cache, costs, budget_seconds,
                               extra_resident);
    }
    c.decisions += decisions.size();
    for (const core::PrefetchDecision& d : decisions) c.pending.insert(d.expert);
    return decisions;
  }

 private:
  std::unique_ptr<core::Prefetcher> inner_;
};

class TracedPolicy final : public cache::CachePolicy {
 public:
  explicit TracedPolicy(std::unique_ptr<cache::CachePolicy> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void on_reference(moe::ExpertId id) override {
    ScopedLeaf leaf(SpanName::Policy);
    inner_->on_reference(id);
  }
  void on_hit(moe::ExpertId id) override {
    ScopedLeaf leaf(SpanName::Policy);
    inner_->on_hit(id);
  }
  void on_insert(moe::ExpertId id) override {
    ScopedLeaf leaf(SpanName::Policy);
    inner_->on_insert(id);
  }
  void on_evict(moe::ExpertId id) override {
    ScopedLeaf leaf(SpanName::Policy);
    inner_->on_evict(id);
  }
  void on_scores(std::uint16_t layer, std::span<const float> scores,
                 std::size_t top_k) override {
    ScopedLeaf leaf(SpanName::Policy);
    inner_->on_scores(layer, scores, top_k);
  }
  [[nodiscard]] moe::ExpertId choose_victim(
      std::span<const moe::ExpertId> candidates) override {
    ScopedLeaf leaf(SpanName::Policy);
    return inner_->choose_victim(candidates);
  }
  [[nodiscard]] double priority(moe::ExpertId id) const override {
    ScopedLeaf leaf(SpanName::Policy);
    return inner_->priority(id);
  }

 private:
  std::unique_ptr<cache::CachePolicy> inner_;
};

}  // namespace

rt::PrefetcherFactory traced_prefetcher_factory(rt::PrefetcherFactory inner) {
  return [inner = std::move(inner)](
             const rt::ComponentContext& ctx) -> std::unique_ptr<core::Prefetcher> {
    auto prefetcher = inner(ctx);
    if (prefetcher == nullptr) return nullptr;
    return std::make_unique<TracedPrefetcher>(std::move(prefetcher));
  };
}

void register_wrappers() {
  if (rt::scheduler_registry().contains(kTracedScheduler)) return;
  const rt::SchedulerFactory scheduler = rt::scheduler_registry().get("hybrid");
  rt::scheduler_registry().add(
      kTracedScheduler,
      [scheduler](const rt::ComponentContext& ctx)
          -> std::unique_ptr<sched::LayerScheduler> {
        return std::make_unique<TracedScheduler>(scheduler(ctx));
      });
  rt::prefetcher_registry().add(
      kTracedPrefetcher, traced_prefetcher_factory(rt::prefetcher_registry().get("impact")));
  const rt::CachePolicyFactory policy = rt::cache_policy_registry().get("mrs");
  rt::cache_policy_registry().add(
      kTracedPolicy,
      [policy](const rt::ComponentContext& ctx) -> std::unique_ptr<cache::CachePolicy> {
        return std::make_unique<TracedPolicy>(policy(ctx));
      });
}

rt::StackSpec traced_spec(rt::StackSpec spec) {
  register_wrappers();
  if (spec.scheduler.policy == "hybrid") spec.scheduler.policy = kTracedScheduler;
  if (spec.prefetch.policy == "impact") spec.prefetch.policy = kTracedPrefetcher;
  if (spec.cache.policy == "mrs") spec.cache.policy = kTracedPolicy;
  return spec;
}

}  // namespace perfbench
