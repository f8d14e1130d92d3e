#include "selftest.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "runtime/session.hpp"
#include "runtime/stack_registry.hpp"
#include "serve_sim/kv.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"
#include "wrappers.hpp"

namespace perfbench {

namespace rt = hybrimoe::runtime;
namespace wl = hybrimoe::workload;

namespace {

struct Checker {
  std::vector<std::string>& failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  template <typename F>
  void expect_throws(F&& f, const std::string& what) {
    try {
      f();
    } catch (const std::invalid_argument&) {
      return;
    }
    failures.push_back(what + " did not throw");
  }
};

void percentile_rules(Checker& c) {
  c.expect(quantile_from_name("p50") == 50.0, "p50 maps to q=50");
  c.expect(quantile_from_name("p99") == 99.0, "p99 maps to q=99");
  c.expect(quantile_from_name("p99.9") == 99.9, "p99.9 maps to q=99.9");
  c.expect(quantile_from_name("p0") == 0.0 && quantile_from_name("p100") == 100.0,
           "p0 and p100 are the ends of [0,100]");
  for (const char* bad : {"50", "p", "pp5", "p101", "p-1", "p5x", "0.5"})
    c.expect_throws([&] { (void)quantile_from_name(bad); },
                    std::string("quantile_from_name(\"") + bad + "\")");
  c.expect_throws([] { (void)percentile(std::vector<double>{1.0}, 101.0); },
                  "percentile with q=101");
  c.expect_throws([] { (void)percentile(std::vector<double>{1.0}, -0.5); },
                  "percentile with q=-0.5");

  // The highest percentile with at least ten samples beyond it.
  const std::pair<std::size_t, const char*> cases[] = {
      {19, ""},     {20, "p50"},   {39, "p50"},   {40, "p75"},    {99, "p75"},
      {100, "p90"}, {199, "p90"},  {200, "p95"},  {100000, "p95"}};
  for (const auto& [n, want] : cases) {
    const auto got = tail_percentile(n);
    c.expect(std::string(got.value_or("")) == want,
             "tail percentile of " + std::to_string(n) + " samples is '" + want + "'");
  }

  // q is a percent: on 1..101, p50 is 51 and p0.5 is near the minimum.
  std::vector<double> v;
  for (int i = 101; i >= 1; --i) v.push_back(i);
  c.expect(percentile(v, quantile_from_name("p50")) == 51.0, "p50 of 1..101 is 51");
  c.expect(median(v) == 51.0, "median of 1..101 is 51");
  c.expect(percentile(v, quantile_from_name("p99")) == 100.0, "p99 of 1..101 is 100");
  c.expect(std::abs(percentile(v, 0.5) - 1.5) < 1e-12, "q=0.5 reads p0.5, not p50");
  const Tail t = summarize(v);
  c.expect(t.samples == 101 && t.p50 == 51.0 && t.tail_name == "p90" && t.tail == 91.0,
           "summarize(1..101) reports p50=51 and p90=91 over 101 samples");

  // ServeMetrics::ttft_p takes q in [0,100] as well.
  rt::ServeMetrics m;
  for (int i = 1; i <= 101; ++i) {
    rt::RequestMetrics r;
    r.first_token = i;
    r.generated_tokens = 1;
    m.requests.push_back(r);
  }
  c.expect(m.ttft_p(quantile_from_name("p50")) == 51.0, "ServeMetrics::ttft_p(50) is 51");
}

void span_arithmetic(Checker& c) {
  // step [0,100): schedule [10,30), prefetch [40,70) holding 5+7 ns of
  // policy calls, and 3 ns of policy calls directly under the step.
  SpanRecorder rec;
  const auto step = rec.open_at(SpanName::Step, 7, 0);
  const auto sched = rec.open_at(SpanName::Schedule, 7, 10);
  rec.close_at(sched, 30);
  const auto pre = rec.open_at(SpanName::Prefetch, 7, 40);
  rec.leaf_at(SpanName::Policy, 5, 50);
  rec.leaf_at(SpanName::Policy, 7, 60);
  rec.close_at(pre, 70);
  rec.leaf_at(SpanName::Policy, 3, 90);
  rec.close_at(step, 100);
  c.expect(rec.idle(), "every span closed");
  c.expect(rec.totals(SpanName::Step).total == 100, "step duration 100");
  c.expect(rec.totals(SpanName::Step).self == 100 - 20 - 30 - 3,
           "step self = duration minus direct children (schedule, prefetch, policy)");
  c.expect(rec.totals(SpanName::Prefetch).self == 30 - 12,
           "prefetch self excludes its policy calls");
  const auto policy = rec.totals(SpanName::Policy);
  c.expect(policy.total == 15 && policy.self == 15 && policy.count == 3,
           "policy leaves coalesce per parent: 15 ns over 3 calls");
  c.expect(rec.spans().size() == 5, "two coalesced policy records, not three");
  for (const Span& s : rec.spans())
    if (s.name == SpanName::Policy) c.expect(s.id == 7, "leaf inherits its parent's id");
  c.expect_throws(
      [] {
        SpanRecorder r;
        const auto a = r.open_at(SpanName::Step, 0, 0);
        (void)r.open_at(SpanName::Schedule, 0, 1);
        try {
          r.close_at(a, 2);
        } catch (const std::logic_error& e) {
          throw std::invalid_argument(e.what());
        }
      },
      "closing an outer span before its child");
}

void null_prefetcher_stays_null(Checker& c) {
  const rt::PrefetcherFactory none = rt::prefetcher_registry().get("none");
  const rt::PrefetcherFactory wrapped = traced_prefetcher_factory(none);
  const auto costs = hybrimoe::hw::CostModel(hybrimoe::hw::Topology::a6000_xeon10(),
                                             hybrimoe::moe::ModelConfig::tiny());
  const rt::EngineBuildInfo info;
  const rt::StackSpec spec;
  const rt::ComponentContext ctx{costs, info, spec, nullptr};
  c.expect(wrapped(ctx) == nullptr, "a wrapped null prefetcher stays null");
}

/// Serve a small stream with the plain preset twice and with the wrapped
/// stack (recording into a live recorder) once: all three must agree.
void wrapped_stack_is_pure(Checker& c, const hybrimoe::moe::ModelConfig& model,
                           const wl::RequestStreamParams& stream, rt::ServeOptions options,
                           const std::string& label) {
  rt::ExperimentSpec spec;
  spec.model = model;
  spec.topology = hybrimoe::hw::Topology::a6000_xeon10();
  spec.cache_ratio = 0.25;
  spec.trace.seed = 11;
  const auto specs = wl::generate_request_stream(stream);
  const rt::StackSpec plain = rt::preset_spec(rt::Framework::HybriMoE);
  rt::ExperimentHarness harness(spec);
  const auto a = harness.serve_stream(plain, specs, options);
  const auto b = harness.serve_stream(plain, specs, options);
  SpanRecorder rec;
  active_recorder() = &rec;
  counters() = LayerCounters{};
  rt::ServeMetrics traced;
  try {
    traced = harness.serve_stream(traced_spec(plain), specs, options);
  } catch (...) {
    active_recorder() = nullptr;
    throw;
  }
  active_recorder() = nullptr;
  c.expect(modeled_digest(a) == modeled_digest(b), label + ": same-seed repeats agree");
  c.expect(modeled_digest(a) == modeled_digest(traced),
           label + ": wrapped stack matches the plain HybriMoE preset");
  c.expect(a.finished_count() + a.rejected_count() == specs.size(),
           label + ": finished + rejected == attempted");
  c.expect(rec.totals(SpanName::Schedule).count > 0 && rec.totals(SpanName::Policy).count > 0,
           label + ": the wrappers recorded spans");
  c.expect(counters().plan_tasks > 0, label + ": the wrappers counted plan tasks");
}

}  // namespace

std::vector<std::string> run_selftest() {
  std::vector<std::string> failures;
  Checker c{failures};
  try {
    percentile_rules(c);
    span_arithmetic(c);
    register_wrappers();
    null_prefetcher_stays_null(c);

    wl::RequestStreamParams tiny;
    tiny.num_requests = 120;
    tiny.arrival_rate = 700.0;
    tiny.prompt_tokens_min = 16;
    tiny.prompt_tokens_max = 48;
    tiny.decode_tokens_min = 6;
    tiny.decode_tokens_max = 12;
    tiny.seed = 5;
    rt::ServeOptions kv;
    kv.max_prefill_chunk = 16;
    const auto model = hybrimoe::moe::ModelConfig::tiny();
    kv.kv.bytes_per_token = hybrimoe::serve_sim::model_kv_bytes_per_token(model);
    kv.kv.budget_mb = 3.0 * 60.0 * kv.kv.bytes_per_token / 1.0e6;
    kv.kv.mode = hybrimoe::serve_sim::AdmissionMode::Reject;
    wrapped_stack_is_pure(c, model, tiny, kv, "tiny, KV reject");

    wl::RequestStreamParams deepseek;
    deepseek.num_requests = 2;
    deepseek.arrival_rate = 20.0;
    deepseek.prompt_tokens_min = 40;
    deepseek.prompt_tokens_max = 80;
    deepseek.decode_tokens_min = 2;
    deepseek.decode_tokens_max = 4;
    deepseek.seed = 6;
    rt::ServeOptions chunked;
    chunked.max_prefill_chunk = 64;
    wrapped_stack_is_pure(c, hybrimoe::moe::ModelConfig::deepseek(), deepseek, chunked,
                          "DeepSeek");
  } catch (const std::exception& e) {
    failures.push_back(std::string("selftest threw: ") + e.what());
  }
  return failures;
}

}  // namespace perfbench
