#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "exec/executor.hpp"
#include "runtime/frameworks.hpp"
#include "runtime/session.hpp"
#include "serve_sim/kv.hpp"
#include "serve_sim/sim_core.hpp"
#include "serve_sim/trace_source.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "wrappers.hpp"

namespace perfbench {

namespace rt = hybrimoe::runtime;
namespace wl = hybrimoe::workload;
namespace ex = hybrimoe::exec;
namespace moe = hybrimoe::moe;
using hybrimoe::sched::Stage;

namespace {

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

/// A serving run's setup_s is the median of kSetups standalone set-ups,
/// each on its own trace seed, timed after kSetupWarmups untimed ones (the
/// first few set-ups of a process run up to 2x slower while the heap grows).
constexpr int kSetupWarmups = 5;
constexpr int kSetups = 15;

/// SplitMix64 finaliser: independent sub-seeds from the run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The model instance (its gate weights) is the system under test: the same
/// in every run. The run seed draws the traffic.
constexpr std::uint64_t kGateSeed = 0x5EEDC0DE;

/// The paper's setting for every workload: the single-accelerator
/// a6000_xeon10 topology with a 25% expert cache. Every round of a run
/// serves the same model instance (gate seed) with its own token stream.
rt::ExperimentSpec experiment_spec(const moe::ModelConfig& model, std::uint64_t seed,
                                   std::size_t round) {
  rt::ExperimentSpec spec;
  spec.model = model;
  rt::TopologySpec topology;
  topology.preset = "a6000_xeon10";
  spec.topology = rt::resolve_topology(topology);
  spec.cache_ratio = 0.25;
  spec.trace.seed = derive_seed(seed, 200 + round);
  spec.trace.gate_seed = kGateSeed;
  return spec;
}

rt::StackSpec plain_stack() { return rt::preset_spec(rt::Framework::HybriMoE); }

/// A serving workload: a run serves `rounds` independent request streams
/// drawn from the same distribution, each on a freshly set-up stack.
struct ServingWorkload {
  moe::ModelConfig model;
  wl::RequestStreamParams stream;  ///< one round's stream (seeded per round)
  rt::ServeOptions options;
  std::uint64_t seed = 0;
  double tbt_slo = 0.1;  ///< seconds; a request meets it when its p95 gap does
  /// Closed loop of this many users (0 = open loop): users join
  /// kUserStagger apart, and a user sends its next request as soon as the
  /// previous one finished, so the rest of the round's requests queue behind
  /// the last join and a request counts as sent when it is admitted.
  std::size_t users = 0;
  static constexpr double kUserStagger = 0.15;  ///< modeled seconds
  /// When set, the engine runs in Performance mode on this executor (real
  /// expert kernels on every step); otherwise in Simulated mode.
  std::shared_ptr<ex::HybridExecutor> executor;
  /// Host seconds one round takes on the 4-core reference host; sets how
  /// many rounds fit in the run's time.
  double round_seconds = 2.0;

  /// Rounds of a run: as many as fit in `budget_s`, at least two, and
  /// enough that the pooled requests support a TTFT percentile (>= 20).
  [[nodiscard]] std::size_t rounds(double budget_s) const {
    const std::size_t floor = std::max<std::size_t>(
        2, (20 + stream.num_requests - 1) / stream.num_requests);
    return std::max(floor, static_cast<std::size_t>(std::lround(budget_s / round_seconds)));
  }
  [[nodiscard]] std::vector<wl::RequestSpec> requests(std::size_t round) const {
    wl::RequestStreamParams p = stream;
    p.seed = derive_seed(seed, 100 + round);
    std::vector<wl::RequestSpec> specs = wl::generate_request_stream(p);
    for (std::size_t i = 0; users > 0 && i < specs.size(); ++i)
      specs[i].arrival_time = kUserStagger * static_cast<double>(std::min(i, users - 1));
    return specs;
  }
  /// Time to first token, counted from when the request was sent.
  [[nodiscard]] double ttft(const rt::RequestMetrics& r) const {
    return r.first_token - (users > 0 ? r.admit : r.arrival);
  }
};

/// exec_decode: one caller sends batch-4 Mixtral requests back to back
/// through a Performance-mode engine. A request (a session) is one prefill
/// step of the four prompts followed by decode steps of the four sequences.
struct ExecWorkload {
  moe::ModelConfig model = moe::ModelConfig::mixtral();
  std::size_t batch = 4;             ///< sequences per session
  std::size_t prompt_min = 16;       ///< prompt tokens per sequence
  std::size_t prompt_max = 64;
  std::size_t session_steps = 50;    ///< the prefill plus 49 decode steps
  std::size_t warmup_steps = 2;      ///< the prefill and first decode: set-up
  std::size_t modeled_sessions = 40; ///< closed loop replayed in Simulated mode
  ex::ExecOptions exec;
  double tbt_slo = 0.3;
};

ExecWorkload exec_workload() {
  ExecWorkload w;
  // Engine thread + 2 workers + 1 copy thread = 4 threads.
  w.exec.workers = 2;
  w.exec.time_scale = 1.0;
  w.exec.d_model = 256;
  w.exec.d_ff = 512;
  return w;
}

void load_store(ex::ExpertStore& store, const moe::ModelConfig& model);

ServingWorkload serving_workload(const std::string& name, std::uint64_t seed) {
  ServingWorkload w;
  w.seed = seed;
  w.stream.process = wl::ArrivalProcess::Poisson;
  w.options.max_batch = 8;
  if (name == "exec_serve") {
    w.model = moe::ModelConfig::mixtral();
    w.stream.num_requests = 8;
    w.stream.prompt_tokens_min = 16;
    w.stream.prompt_tokens_max = 64;
    // Equal output lengths: a user's next request joins as its last one
    // leaves, so the batch stays full between the staggered ramp-up and
    // drain, and decode steps are full-batch steps.
    w.stream.decode_tokens_min = 32;
    w.stream.decode_tokens_max = 32;
    w.options.max_prefill_chunk = 64;
    // Four users keep the batch full with no backlog and no refusals.
    w.users = 4;
    w.options.max_batch = w.users;
    // KV accounting under reject admission, with room for one max-size
    // request more than the batch holds: reservations are tracked and
    // checked on every admission, and none is ever refused.
    const double bytes_per_token = hybrimoe::serve_sim::model_kv_bytes_per_token(w.model);
    w.options.kv.bytes_per_token = bytes_per_token;
    w.options.kv.budget_mb =
        static_cast<double>((w.users + 1) * (64 + 32)) * bytes_per_token / 1.0e6;
    w.options.kv.mode = hybrimoe::serve_sim::AdmissionMode::Reject;
    // Performance mode on exec_decode's executor, its weights loaded once
    // per run (the model load, not part of set-up).
    w.executor = std::make_shared<ex::HybridExecutor>(exec_workload().exec);
    load_store(w.executor->store(), w.model);
    // Half a second between tokens: two full-batch steps, so a request
    // meets it unless prefill chunks of joining users stall it repeatedly.
    w.tbt_slo = 0.5;
    w.round_seconds = 4.0;
  } else {
    throw std::invalid_argument("unknown serving workload '" + name + "'");
  }
  return w;
}

/// The execution backend's configuration, reported by every run.
void add_exec_meta(std::vector<std::pair<std::string, std::string>>& meta) {
  const ExecWorkload w = exec_workload();
  meta.push_back({"exec_workers", std::to_string(w.exec.workers)});
  meta.push_back({"exec_geometry", "d_model=" + std::to_string(w.exec.d_model) +
                                       " d_ff=" + std::to_string(w.exec.d_ff)});
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median_of(const std::vector<double>& v) { return v.empty() ? 0.0 : median(v); }
double min_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}
double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

std::string fixed(double v, int digits = 3) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

void add_metric(RunResult& out, std::string name, double value, std::string unit) {
  out.metrics.push_back({std::move(name), value, std::move(unit)});
}

/// Installs `recorder` as the active one for its scope.
class ActiveRecorder {
 public:
  explicit ActiveRecorder(SpanRecorder& recorder) { active_recorder() = &recorder; }
  ~ActiveRecorder() { active_recorder() = nullptr; }
  ActiveRecorder(const ActiveRecorder&) = delete;
  ActiveRecorder& operator=(const ActiveRecorder&) = delete;
};

/// CPU time of every composed serving step; keeps the full-batch decode
/// steps (a full batch and no prompt token), the steps a user waits on
/// between tokens under load. Decode steps of the ramp-up and drain cost
/// a fraction of a full one, and how many a round has varies with its
/// prompts, so a percentile over all decode steps moves with them.
class StepClock final : public rt::StepHook {
 public:
  explicit StepClock(std::size_t full_batch) : full_batch_(full_batch) {}
  void before_step(std::size_t, double, rt::OffloadEngine&) override { start_ = cpu_ns(); }
  void after_step(const rt::StepInfo& info, const rt::StageMetrics&) override {
    const std::int64_t end = cpu_ns();
    if (info.prefill_tokens == 0 && info.active_requests == full_batch_)
      decode_cpu.push_back(end - start_);
  }
  std::vector<std::int64_t> decode_cpu;

 private:
  std::size_t full_batch_;
  std::int64_t start_ = 0;
};

/// The traced run's hook: a runtime.step span per step.
class TracedStepHook final : public rt::StepHook {
 public:
  explicit TracedStepHook(SpanRecorder& recorder) : recorder_(recorder) {}
  void before_step(std::size_t index, double, rt::OffloadEngine&) override {
    counters().begin_step(index);
    span_ = recorder_.open(SpanName::Step, index);
  }
  void after_step(const rt::StepInfo& info, const rt::StageMetrics&) override {
    recorder_.close(span_);
    batch.push_back(static_cast<double>(info.active_requests));
  }
  std::vector<double> batch;  ///< active requests per step

 private:
  SpanRecorder& recorder_;
  std::int32_t span_ = -1;
};

/// Times trace synthesis: wraps the lazy source with a span per acquire.
class TimedSource final : public hybrimoe::serve_sim::TraceSource {
 public:
  TimedSource(hybrimoe::serve_sim::TraceSource& inner, SpanRecorder& recorder)
      : inner_(inner), recorder_(recorder) {}
  void acquire(rt::Request& request) override {
    const bool fresh = request.prefill_chunks.empty() && request.decode.num_steps() == 0;
    const std::int32_t span = recorder_.open(SpanName::Synth, request.spec.id);
    inner_.acquire(request);
    recorder_.close(span);
    if (fresh) tokens += request.spec.prompt_tokens + request.spec.decode_tokens;
  }
  void release(rt::Request& request) override { inner_.release(request); }
  std::uint64_t tokens = 0;  ///< tokens whose routing was synthesised

 private:
  hybrimoe::serve_sim::TraceSource& inner_;
  SpanRecorder& recorder_;
};

/// Digest accumulator over the exact bits of modeled values.
struct Digest {
  std::uint64_t h = ex::kDigestSeed;
  void add(std::uint64_t v) { h = ex::hash_u64(h, v); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

/// Engine counters summed over rounds.
void accumulate(rt::StageMetrics& into, const rt::StageMetrics& from) {
  into.tokens += from.tokens;
  into.total_latency += from.total_latency;
  into.per_forward.insert(into.per_forward.end(), from.per_forward.begin(),
                          from.per_forward.end());
  into.cpu_busy += from.cpu_busy;
  into.gpu_busy += from.gpu_busy;
  into.pcie_busy += from.pcie_busy;
  into.cache.hits += from.cache.hits;
  into.cache.misses += from.cache.misses;
  into.cache.insertions += from.cache.insertions;
  into.cache.evictions += from.cache.evictions;
}

// ---------------------------------------------------------------------------
// Per-layer report (traced rounds)
// ---------------------------------------------------------------------------

/// What the traced rounds measured at the layer boundaries, summed.
struct LayerSample {
  /// Wall time of the traced measurement windows and of the same rounds
  /// untraced: the time base of the spans.
  double traced_s = 0.0;
  double untraced_s = 0.0;
  double synth_s = 0.0;
  double synth_tokens = 0.0;
  double prefetch_s = 0.0;
  double schedule_s = 0.0;
  double policy_s = 0.0;
  double step_s = 0.0;
  double step_self_s = 0.0;
  double serve_self_s = 0.0;
  double steps = 0.0;
  double decisions = 0.0;
  double useful = 0.0;
  double plan_tasks = 0.0;

  /// Add the spans recorded from index `first` on and the wrapper counters.
  void add_round(const SpanRecorder& rec, std::size_t first) {
    synth_s += seconds(rec.totals(SpanName::Synth, first).total);
    prefetch_s += seconds(rec.totals(SpanName::Prefetch, first).self);
    schedule_s += seconds(rec.totals(SpanName::Schedule, first).self);
    policy_s += seconds(rec.totals(SpanName::Policy, first).total);
    const auto step = rec.totals(SpanName::Step, first);
    step_s += seconds(step.total);
    step_self_s += seconds(step.self);
    serve_self_s += seconds(rec.totals(SpanName::ServeRun, first).self);
    steps += static_cast<double>(step.count);
    const LayerCounters& c = counters();
    decisions += static_cast<double>(c.decisions);
    useful += static_cast<double>(c.useful_decisions);
    plan_tasks += static_cast<double>(c.plan_tasks);
  }
};

/// Inputs of the per-layer metrics beyond the spans.
struct LayerReport {
  LayerSample spans;
  rt::StageMetrics steps;  ///< modeled engine counters of the traced rounds
  double queue_wait_p50_ms = 0.0;
  double batch_p50 = 0.0;
  double kv_peak_share = 0.0;
  double exec_layer_ms = 0.0;
  double exec_host_ms = 0.0;
  double exec_copies = 0.0;
  double exec_copy_mb = 0.0;
  double forward_us = 0.0;
  double gflop_per_step = 0.0;
  double weight_mb_per_step = 0.0;
};

void add_layer_metrics(const LayerReport& r, RunResult& out) {
  const LayerSample& s = r.spans;
  const rt::StageMetrics& m = r.steps;
  const double lookups = static_cast<double>(m.cache.hits + m.cache.misses);
  const double modeled_steps = static_cast<double>(m.per_forward.size());
  add_metric(out, "workload.synth_s", s.synth_s, "s");
  add_metric(out, "workload.synth_us_per_token", ratio(s.synth_s * 1e6, s.synth_tokens),
             "us/token");
  add_metric(out, "core.prefetch_s", s.prefetch_s, "s");
  add_metric(out, "core.prefetches_per_step", ratio(s.decisions, s.steps), "1/step");
  add_metric(out, "core.prefetch_useful_share", ratio(s.useful, s.decisions), "ratio");
  add_metric(out, "sched.schedule_s", s.schedule_s, "s");
  add_metric(out, "sched.cpu_busy_share", ratio(m.cpu_busy, m.total_latency), "ratio");
  add_metric(out, "sched.gpu_busy_share", ratio(m.gpu_busy, m.total_latency), "ratio");
  add_metric(out, "sched.link_busy_share", ratio(m.pcie_busy, m.total_latency), "ratio");
  add_metric(out, "cache.hit_rate", ratio(static_cast<double>(m.cache.hits), lookups), "ratio");
  add_metric(out, "cache.insertions_per_step",
             ratio(static_cast<double>(m.cache.insertions), modeled_steps), "1/step");
  add_metric(out, "cache.evictions_per_step",
             ratio(static_cast<double>(m.cache.evictions), modeled_steps), "1/step");
  add_metric(out, "cache.policy_s", s.policy_s, "s");
  add_metric(out, "runtime.step_s", s.step_s, "s");
  add_metric(out, "runtime.step_self_s", s.step_self_s, "s");
  add_metric(out, "runtime.tokens_per_step",
             ratio(static_cast<double>(m.tokens), modeled_steps), "token/step");
  add_metric(out, "serve_sim.self_s", s.serve_self_s, "s");
  add_metric(out, "serve_sim.queue_wait_p50_ms", r.queue_wait_p50_ms, "ms");
  add_metric(out, "serve_sim.batch_p50", r.batch_p50, "requests");
  add_metric(out, "serve_sim.kv_peak_share", r.kv_peak_share, "ratio");
  add_metric(out, "exec.layer_wall_ms_per_step", r.exec_layer_ms, "ms");
  add_metric(out, "exec.host_ms_per_step", r.exec_host_ms, "ms");
  add_metric(out, "exec.copies_per_step", r.exec_copies, "1/step");
  add_metric(out, "exec.copy_mb_per_step", r.exec_copy_mb, "MB/step");
  add_metric(out, "kernels.expert_forward_us", r.forward_us, "us");
  add_metric(out, "kernels.gflop_per_step", r.gflop_per_step, "GFLOP/step");
  add_metric(out, "kernels.weight_mb_per_step", r.weight_mb_per_step, "MB/step");
  add_metric(out, "bench.trace_overhead_share", ratio(s.traced_s, s.untraced_s) - 1.0,
             "ratio");

  // Where the traced time went, by layer self time.
  std::vector<std::pair<std::string, double>> shares{
      {"workload.synth", s.synth_s},        {"core.prefetch", s.prefetch_s},
      {"sched.schedule", s.schedule_s},     {"cache.policy", s.policy_s},
      {"runtime.step_self", s.step_self_s}, {"serve_sim.self", s.serve_self_s}};
  std::stable_sort(shares.begin(), shares.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });
  std::string line = "layer shares of traced time:";
  for (const auto& [name, v] : shares) line += " " + name + "=" + fixed(ratio(v, s.traced_s));
  out.notes.push_back(line);
}

void write_spans(const SpanRecorder& rec, const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file '" + path + "'");
  rec.write(out);
}

/// The kernels layer in isolation: one expert forward at the execution
/// geometry, timed call by call (median of 200 after a warm-up).
double expert_forward_us(ex::ExpertStore& store) {
  const moe::ExpertId id{0, 0};
  const auto input = store.layer_input(0);
  for (int i = 0; i < 20; ++i) (void)store.forward(id, input);
  std::vector<double> us;
  for (int i = 0; i < 200; ++i) {
    const std::int64_t t0 = now_ns();
    (void)store.forward(id, input);
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return median(us);
}

/// Reports one workload-design share and whether it is as designed.
void design_check(RunResult& out, const std::string& label, double share, bool met) {
  out.notes.push_back("design check: " + label + " = " + fixed(share) +
                      (met ? " (as designed)" : " (NOT as designed)"));
}

/// What a run measured end to end, host and modeled.
struct EndToEnd {
  // Host figures, one per round, in CPU time.
  std::vector<double> tokens_per_cpu_s;
  std::vector<double> step_p50_ms;  ///< over the round's decode steps
  std::vector<double> step_p90_ms;
  std::size_t decode_steps = 0;
  std::vector<double> setup_s;
  std::vector<double> ttft_ms;       ///< modeled, per request
  std::vector<double> tbt_ms;        ///< modeled, per request: its mean gap
  std::vector<double> queue_ms;      ///< modeled, per request
  double good_tokens = 0.0;          ///< tokens of requests meeting the TBT SLO
  double busy_s = 0.0;               ///< modeled time the engine was busy
  double requests = 0.0;
  double served = 0.0;

  /// Record one round's host figures: tokens per CPU second and the CPU
  /// time percentiles of its decode steps.
  void add_host_round(double tokens, double cpu_s, const std::vector<std::int64_t>& steps_ns) {
    if (steps_ns.empty()) return;
    tokens_per_cpu_s.push_back(tokens / cpu_s);
    std::vector<double> ms;
    for (const std::int64_t ns : steps_ns) ms.push_back(static_cast<double>(ns) * 1e-6);
    step_p50_ms.push_back(median(ms));
    step_p90_ms.push_back(percentile(ms, 90.0));
    decode_steps += ms.size();
  }
};

void add_e2e_metrics(const EndToEnd& e, RunResult& out) {
  const Tail ttft = summarize(e.ttft_ms);
  const Tail tbt = summarize(e.tbt_ms);
  // Host figures are the best round's: interference from other tenants of a
  // shared host only ever slows a round down, and it comes and goes within
  // a run (consecutive rounds of one workload have run 1.7x apart).
  add_metric(out, "tokens_per_cpu_s", max_of(e.tokens_per_cpu_s), "token/s");
  add_metric(out, "step_cpu_p50_ms", min_of(e.step_p50_ms), "ms");
  add_metric(out, "step_cpu_p90_ms", min_of(e.step_p90_ms), "ms");
  add_metric(out, "setup_s", median_of(e.setup_s), "s");
  add_metric(out, "model_ttft_p50_ms", ttft.p50, "ms");
  add_metric(out, "model_ttft_tail_ms", ttft.tail, "ms");
  add_metric(out, "model_tbt_p50_ms", tbt.p50, "ms");
  add_metric(out, "model_tbt_tail_ms", tbt.tail, "ms");
  add_metric(out, "model_goodput_tok_per_s", ratio(e.good_tokens, e.busy_s), "token/s");
  add_metric(out, "served_share", ratio(e.served, e.requests), "ratio");
  std::string rounds = "tokens per CPU second, per round:";
  for (const double v : e.tokens_per_cpu_s) rounds += " " + fixed(v, 1);
  out.notes.push_back(rounds);
  out.notes.push_back("host figures are the best of " +
                      std::to_string(e.tokens_per_cpu_s.size()) + " rounds of " +
                      std::to_string(e.decode_steps) +
                      " decode steps in all; model_ttft_tail_ms is " +
                      std::string(ttft.tail_name) + " of " + std::to_string(ttft.samples) +
                      " requests; model_tbt_tail_ms is " + std::string(tbt.tail_name) + " of " +
                      std::to_string(tbt.samples));
}

// ---------------------------------------------------------------------------
// The serving workload (exec_serve)
// ---------------------------------------------------------------------------

struct ServingSetup {
  std::unique_ptr<rt::ExperimentHarness> harness;
  std::unique_ptr<wl::TraceGenerator> generator;
  std::unique_ptr<rt::OffloadEngine> engine;
};

/// Everything a round builds before its first request: the harness (cost
/// model and warmup trace), the trace generator and the engine with its
/// warmup-seeded cache.
ServingSetup set_up_serving(const ServingWorkload& w, std::size_t round,
                            const rt::StackSpec& stack) {
  ServingSetup s;
  rt::ExperimentSpec spec = experiment_spec(w.model, w.seed, round);
  if (w.executor) {
    spec.execution_mode = ex::ExecutionMode::Performance;
    spec.executor = w.executor;
  }
  s.harness = std::make_unique<rt::ExperimentHarness>(spec);
  s.generator = std::make_unique<wl::TraceGenerator>(w.model, s.harness->spec().trace);
  s.engine = s.harness->build(stack);
  if (w.executor) {
    // As in exec_decode, set-up ends with a warm-up step, here one decode
    // step of a full batch from its own trace seed: the first step on a
    // fresh engine pages in the executor's buffers.
    wl::TraceGenParams params = spec.trace;
    params.seed = derive_seed(w.seed, 300 + round);
    wl::TraceGenerator warm(w.model, params);
    const wl::DecodeTrace decode = warm.generate_decode_batch(1, w.options.max_batch);
    rt::StageMetrics m;
    (void)s.engine->run_step(decode.steps.front(), Stage::Decode, m);
  }
  return s;
}

struct ServingRound {
  double serve_s = 0.0;       ///< CPU seconds, all threads
  double serve_wall_s = 0.0;  ///< wall seconds, the spans' time base
  rt::ServeMetrics metrics;
  std::vector<std::int64_t> decode_cpu;  ///< CPU ns of each full-batch decode step
  std::vector<double> batch;       ///< traced rounds only
  std::uint64_t synth_tokens = 0;  ///< traced rounds only
};

ServingRound serve_untraced(const ServingWorkload& w, std::size_t round,
                            const std::vector<wl::RequestSpec>& specs) {
  ServingRound r;
  ServingSetup s = set_up_serving(w, round, plain_stack());
  const std::int64_t t0 = cpu_ns();
  const std::int64_t w0 = now_ns();
  StepClock clock(w.options.max_batch);
  rt::ServeOptions options = w.options;
  options.hook = &clock;
  rt::ServeEngine engine(std::move(s.engine));
  r.metrics = engine.serve_stream(*s.generator, specs, options);
  r.serve_s = seconds(cpu_ns() - t0);
  r.serve_wall_s = seconds(now_ns() - w0);
  r.decode_cpu = std::move(clock.decode_cpu);
  return r;
}

/// The same round through the wrapped components, the timed trace source
/// and the traced step hook, driving serve_sim::SimCore directly.
ServingRound serve_traced(const ServingWorkload& w, std::size_t round,
                          const std::vector<wl::RequestSpec>& specs, SpanRecorder& rec) {
  ServingRound r;
  ServingSetup s = set_up_serving(w, round, traced_spec(plain_stack()));
  counters() = LayerCounters{};  // the serve only, not the set-up's warm-up
  const std::int64_t t0 = cpu_ns();
  const std::int64_t w0 = now_ns();
  TracedStepHook hook(rec);
  rt::ServeOptions options = w.options;
  options.hook = &hook;
  hybrimoe::serve_sim::LazyTraceSource lazy(*s.generator, options.max_prefill_chunk);
  TimedSource source(lazy, rec);
  // The (arrival, id) order ServeEngine::serve_stream serves in.
  std::vector<rt::Request> requests(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) requests[i].spec = specs[i];
  std::stable_sort(requests.begin(), requests.end(),
                   [](const rt::Request& a, const rt::Request& b) {
                     if (a.spec.arrival_time != b.spec.arrival_time)
                       return a.spec.arrival_time < b.spec.arrival_time;
                     return a.spec.id < b.spec.id;
                   });
  {
    ActiveRecorder active(rec);
    const std::int32_t run = rec.open(SpanName::ServeRun, round);
    hybrimoe::serve_sim::SimCore core(*s.engine, options, source);
    r.metrics = core.run(requests);
    rec.close(run);
  }
  r.serve_s = seconds(cpu_ns() - t0);
  r.serve_wall_s = seconds(now_ns() - w0);
  r.batch = std::move(hook.batch);
  r.synth_tokens = source.tokens;
  return r;
}

/// Conservation: every attempted request is terminal exactly once — either
/// finished with its full token budget or rejected with none.
void check_conservation(const std::vector<wl::RequestSpec>& specs, const rt::ServeMetrics& m,
                        RunResult& out) {
  if (m.requests.size() != specs.size()) {
    out.errors.push_back("served " + std::to_string(m.requests.size()) + " of " +
                         std::to_string(specs.size()) + " requests");
    return;
  }
  std::vector<std::uint8_t> seen(specs.size(), 0);
  std::size_t finished = 0;
  std::size_t rejected = 0;
  for (const rt::RequestMetrics& r : m.requests) {
    if (r.id >= specs.size() || seen[r.id]++ != 0) {
      out.errors.push_back("request " + std::to_string(r.id) + " missing or duplicated");
      return;
    }
    const wl::RequestSpec& spec = specs[r.id];
    if (r.rejected) {
      ++rejected;
      if (r.generated_tokens != 0)
        out.errors.push_back("rejected request " + std::to_string(r.id) + " emitted tokens");
      continue;
    }
    ++finished;
    const std::size_t expected = (spec.prompt_tokens > 0 ? 1 : 0) + spec.decode_tokens;
    if (r.generated_tokens != expected || r.first_token < r.arrival || r.finish < r.first_token)
      out.errors.push_back("request " + std::to_string(r.id) + " did not finish cleanly");
  }
  if (finished + rejected != specs.size())
    out.errors.push_back("finished + rejected != attempted");
}

/// Prompt and output tokens of the requests that finished.
double processed_tokens(const rt::ServeMetrics& m) {
  double tokens = 0.0;
  for (const rt::RequestMetrics& r : m.requests)
    if (!r.rejected) tokens += static_cast<double>(r.prompt_tokens + r.generated_tokens);
  return tokens;
}

/// Add one untraced serving round to the run's end-to-end figures.
void add_round(EndToEnd& e, const ServingWorkload& w, const ServingRound& r) {
  e.add_host_round(processed_tokens(r.metrics), r.serve_s, r.decode_cpu);
  for (const rt::RequestMetrics& q : r.metrics.requests) {
    ++e.requests;
    if (q.rejected) continue;
    ++e.served;
    e.ttft_ms.push_back(w.ttft(q) * 1e3);
    e.queue_ms.push_back(q.queueing_delay() * 1e3);
    if (!q.tbt.empty()) e.tbt_ms.push_back(q.tbt_mean() * 1e3);
    if (q.meets_tbt_slo(w.tbt_slo))
      e.good_tokens += static_cast<double>(q.prompt_tokens + q.generated_tokens);
  }
  e.busy_s += r.metrics.steps.total_latency;
}

RunResult run_serving(const RunOptions& o) {
  RunResult out;
  const ServingWorkload w = serving_workload(o.workload, o.seed);
  // A traced run pairs each traced round with the same round untraced.
  const std::size_t planned = w.rounds(o.seconds);
  const std::size_t num_rounds = o.trace ? std::max<std::size_t>(1, planned / 2) : planned;
  out.meta.push_back({"model", w.model.name});
  out.meta.push_back({"rounds", std::to_string(num_rounds)});
  out.meta.push_back({"requests_per_round", std::to_string(w.stream.num_requests)});
  out.meta.push_back({"loop", w.users > 0 ? "closed, " + std::to_string(w.users) + " users"
                                          : "open, Poisson"});
  add_exec_meta(out.meta);

  EndToEnd e2e;
  for (int i = 0; i < kSetupWarmups + kSetups; ++i) {
    const std::int64_t t0 = cpu_ns();
    [[maybe_unused]] const ServingSetup s =
        set_up_serving(w, 1000 + static_cast<std::size_t>(i), plain_stack());
    if (i >= kSetupWarmups) e2e.setup_s.push_back(seconds(cpu_ns() - t0));
  }

  SpanRecorder rec;
  LayerReport report;
  std::vector<double> batch;
  try {
    for (std::size_t round = 0; round < num_rounds; ++round) {
      const std::vector<wl::RequestSpec> specs = w.requests(round);
      out.attempted += specs.size();
      const ServingRound plain = serve_untraced(w, round, specs);
      check_conservation(specs, plain.metrics, out);
      add_round(e2e, w, plain);
      if (!o.trace) continue;

      const std::size_t first = rec.spans().size();
      const ServingRound traced = serve_traced(w, round, specs, rec);
      check_conservation(specs, traced.metrics, out);
      if (modeled_digest(traced.metrics) != modeled_digest(plain.metrics))
        out.errors.push_back("round " + std::to_string(round) +
                             ": tracing changed the modeled results");
      report.spans.add_round(rec, first);
      report.spans.traced_s += traced.serve_wall_s;
      report.spans.untraced_s += plain.serve_wall_s;
      report.spans.synth_tokens += static_cast<double>(traced.synth_tokens);
      accumulate(report.steps, traced.metrics.steps);
      report.kv_peak_share =
          std::max(report.kv_peak_share,
                   ratio(traced.metrics.kv.peak_bytes, traced.metrics.kv.budget_bytes));
      batch.insert(batch.end(), traced.batch.begin(), traced.batch.end());
    }
  } catch (const std::exception& e) {
    out.errors.push_back(std::string("serving round threw: ") + e.what());
    out.failed = out.attempted;
    return out;
  }
  out.notes.push_back("requests " + fixed(e2e.requests, 0) + ", finished " +
                      fixed(e2e.served, 0) + ", refused " + fixed(e2e.requests - e2e.served, 0));
  if (!o.trace) {
    add_e2e_metrics(e2e, out);
    return out;
  }

  report.queue_wait_p50_ms = median_of(e2e.queue_ms);
  report.batch_p50 = median_of(batch);
  ex::ExpertStore store(exec_workload().exec.d_model, exec_workload().exec.d_ff,
                        ex::ExecOptions{}.weight_seed);
  report.forward_us = expert_forward_us(store);
  add_layer_metrics(report, out);
  write_spans(rec, o.span_file);
  return out;
}

// ---------------------------------------------------------------------------
// exec_decode: Performance mode, closed loop of batch-4 sessions
// ---------------------------------------------------------------------------

/// Materialise every expert's weights and transfer blob once per process —
/// the model load — so no round pays first-touch generation inside a step.
void load_store(ex::ExpertStore& store, const moe::ModelConfig& model) {
  for (std::size_t l = 0; l < model.num_layers; ++l) {
    for (std::size_t e = 0; e < model.num_routed_experts; ++e) {
      const moe::ExpertId id{static_cast<std::uint16_t>(l), static_cast<std::uint16_t>(e)};
      (void)store.weights(id);
      (void)store.transfer_blob(id);
    }
  }
}

/// The steps of session `session`: the merged prefill of the four prompts,
/// then the decode steps. Session 0 is the one every Performance round runs.
std::vector<wl::ForwardTrace> session_steps(const ExecWorkload& w, std::uint64_t seed,
                                            std::size_t session) {
  rt::ExperimentSpec spec = experiment_spec(w.model, seed, 0);
  spec.trace.seed = derive_seed(seed, 400 + session);
  wl::TraceGenerator gen(w.model, spec.trace);
  hybrimoe::util::Rng rng(derive_seed(seed, 500 + session));
  std::vector<wl::PrefillTrace> prompts;
  for (std::size_t i = 0; i < w.batch; ++i) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(w.prompt_min), static_cast<std::int64_t>(w.prompt_max)));
    prompts.push_back(gen.generate_prefill(len));
  }
  std::vector<const wl::ForwardTrace*> parts;
  for (const wl::PrefillTrace& p : prompts) parts.push_back(&p.forward);
  std::vector<wl::ForwardTrace> steps{wl::merge_forward_traces(parts)};
  wl::DecodeTrace decode = gen.generate_decode_batch(w.session_steps - 1, w.batch);
  for (wl::ForwardTrace& step : decode.steps) steps.push_back(std::move(step));
  return steps;
}

/// Prompt and decode tokens of a session.
std::size_t session_tokens(const std::vector<wl::ForwardTrace>& steps) {
  std::size_t tokens = 0;
  for (const wl::ForwardTrace& step : steps) tokens += step.tokens;
  return tokens;
}

Stage step_stage(std::size_t i) { return i == 0 ? Stage::Prefill : Stage::Decode; }

struct ExecRound {
  double setup_s = 0.0;             ///< CPU seconds
  std::vector<std::int64_t> cpus;   ///< run_step CPU ns (all threads) per timed step
  double cpu_s = 0.0;               ///< sum of cpus
  double wall_s = 0.0;              ///< run_step wall time over the timed steps
  double measured_s = 0.0;          ///< executor layer windows over the timed steps
  double copies = 0.0;              ///< link copies over the timed steps
};

RunResult run_exec(const RunOptions& o) {
  RunResult out;
  const ExecWorkload w = exec_workload();
  const std::size_t total_steps = w.session_steps;
  const std::size_t timed_steps = total_steps - w.warmup_steps;
  const rt::ExperimentSpec spec = experiment_spec(w.model, o.seed, 0);
  out.meta.push_back({"model", w.model.name});
  add_exec_meta(out.meta);
  out.meta.push_back({"exec_batch", std::to_string(w.batch)});

  const std::int64_t load0 = now_ns();
  auto executor = std::make_shared<ex::HybridExecutor>(w.exec);
  load_store(executor->store(), w.model);
  out.notes.push_back("expert store load " + fixed(seconds(now_ns() - load0)) + " s");

  // The closed loop in Simulated mode, over many more sessions than
  // Performance mode can afford: the modeled metrics. Session 0's latencies
  // must equal every Performance round's.
  std::vector<double> modeled;        // session 0, step by step
  rt::StageMetrics modeled_counters;  // session 0's timed steps
  EndToEnd e2e;                       // a session is one request
  {
    rt::ExperimentHarness harness(spec);
    auto engine = harness.build(plain_stack());
    for (std::size_t session = 0; session < w.modeled_sessions; ++session) {
      const auto steps = session_steps(w, o.seed, session);
      std::vector<double> latency;
      rt::StageMetrics m;
      for (std::size_t i = 0; i < steps.size(); ++i) {
        if (session == 0 && i == w.warmup_steps) {
          m = rt::StageMetrics{};
          engine->cache().reset_stats();
        }
        latency.push_back(engine->run_step(steps[i], step_stage(i), m));
        m.per_forward.push_back(latency.back());
        m.total_latency += latency.back();
        m.tokens += steps[i].tokens;
      }
      if (session == 0) {
        modeled = latency;
        modeled_counters = m;
        // As SimCore does: the cache's own counters plus prefetch-buffer hits.
        modeled_counters.cache = engine->aggregate_cache_stats();
        modeled_counters.cache.hits += m.cache.hits;
      }
      const std::vector<double> gaps(latency.begin() + 1, latency.end());
      e2e.ttft_ms.push_back(latency.front() * 1e3);
      e2e.tbt_ms.push_back(hybrimoe::util::mean(gaps) * 1e3);
      for (const double v : latency) e2e.busy_s += v;
      if (hybrimoe::util::p95(gaps) <= w.tbt_slo)
        e2e.good_tokens += static_cast<double>(session_tokens(steps));
    }
  }
  // Reference digests: session 0 through the single-threaded reference path
  // (Simulated mode with the executor attached).
  std::vector<std::uint64_t> reference;
  {
    rt::ExperimentSpec ref_spec = spec;
    ref_spec.executor = executor;
    rt::ExperimentHarness harness(ref_spec);
    auto engine = harness.build(plain_stack());
    const auto steps = session_steps(w, o.seed, 0);
    rt::StageMetrics m;
    for (std::size_t i = 0; i < total_steps; ++i) {
      if (engine->run_step(steps[i], step_stage(i), m) != modeled[i])
        out.errors.push_back("reference step " + std::to_string(i) +
                             " modeled latency differs from the simulated loop");
      reference.push_back(m.exec_digest);
    }
  }

  rt::ExperimentSpec perf_spec = spec;
  perf_spec.execution_mode = ex::ExecutionMode::Performance;
  perf_spec.executor = executor;

  SpanRecorder rec;
  LayerSample spans;

  // One round: synthesise session 0, set up (harness, engine, warm-up
  // steps), then time each step call and check it against the reference.
  auto run_round = [&](bool tracing) {
    ExecRound r;
    counters() = LayerCounters{};
    const std::size_t first = rec.spans().size();
    std::vector<wl::ForwardTrace> steps;
    if (tracing) {
      ActiveRecorder active(rec);
      const std::int32_t span = rec.open(SpanName::Synth, 0);
      steps = session_steps(w, o.seed, 0);
      rec.close(span);
    } else {
      steps = session_steps(w, o.seed, 0);
    }
    const std::int64_t s0 = cpu_ns();
    rt::ExperimentHarness harness(perf_spec);
    auto engine = harness.build(tracing ? traced_spec(plain_stack()) : plain_stack());
    rt::StageMetrics m;
    for (std::size_t i = 0; i < w.warmup_steps; ++i)
      (void)engine->run_step(steps[i], step_stage(i), m);
    r.setup_s = seconds(cpu_ns() - s0);
    const std::uint64_t copies0 = executor->link_transfers_completed(0);

    std::unique_ptr<ActiveRecorder> active;
    std::int32_t loop_span = -1;
    if (tracing) {
      active = std::make_unique<ActiveRecorder>(rec);
      loop_span = rec.open(SpanName::ServeRun, 0);
    }
    for (std::size_t i = w.warmup_steps; i < total_steps; ++i) {
      ++out.attempted;
      const double measured0 = m.measured_latency;
      counters().begin_step(i);
      const std::int64_t c0 = cpu_ns();
      const std::int64_t t0 = now_ns();
      const std::int32_t span = tracing ? rec.open_at(SpanName::Step, i, t0) : -1;
      double latency = -1.0;
      try {
        latency = engine->run_step(steps[i], step_stage(i), m);
      } catch (const std::exception& e) {
        if (tracing) rec.close(span);
        ++out.failed;
        out.errors.push_back("step " + std::to_string(i) + " threw: " + e.what());
        continue;
      }
      const std::int64_t t1 = now_ns();
      const std::int64_t c1 = cpu_ns();
      if (tracing) rec.close_at(span, t1);
      r.cpus.push_back(c1 - c0);
      r.cpu_s += seconds(c1 - c0);
      r.wall_s += seconds(t1 - t0);
      r.measured_s += m.measured_latency - measured0;
      if (m.exec_digest != reference[i] || latency != modeled[i]) {
        ++out.failed;
        out.errors.push_back("step " + std::to_string(i) +
                             " differs from the single-threaded reference");
      }
    }
    if (tracing) {
      rec.close(loop_span);
      active.reset();
      spans.add_round(rec, first);
      spans.synth_tokens += static_cast<double>(session_tokens(steps));
    }
    r.copies = static_cast<double>(executor->link_transfers_completed(0) - copies0);
    e2e.setup_s.push_back(r.setup_s);
    return r;
  };

  // Untraced rounds until the time is spent (at least two); a traced run
  // follows each untraced round with a traced one, in half the time each.
  // A discarded round first: the machine settles after the store load.
  (void)run_round(false);
  std::vector<ExecRound> rounds;
  const std::int64_t started = now_ns();
  const std::size_t min_rounds = o.trace ? 1 : 2;
  std::int64_t last = 0;
  while (rounds.size() < min_rounds || seconds(now_ns() - started + last) <= o.seconds) {
    const std::int64_t t = now_ns();
    rounds.push_back(run_round(false));
    if (o.trace) {
      const ExecRound traced = run_round(true);
      spans.traced_s += traced.wall_s;
      spans.untraced_s += rounds.back().wall_s;
    }
    last = now_ns() - t;
  }

  double wall_s = 0.0;
  double measured_s = 0.0;
  double copies = 0.0;
  for (const ExecRound& r : rounds) {
    if (r.cpus.empty()) continue;
    e2e.add_host_round(static_cast<double>(r.cpus.size() * w.batch), r.cpu_s, r.cpus);
    wall_s += r.wall_s;
    measured_s += r.measured_s;
    copies += r.copies;
  }
  out.notes.push_back("digest-checked " + std::to_string(out.attempted) +
                      " steps, in rounds of " + std::to_string(timed_steps) +
                      " timed steps after one discarded round");
  if (e2e.decode_steps == 0) {
    out.errors.push_back("no step completed");
    return out;
  }
  const double timed = static_cast<double>(e2e.decode_steps);

  if (!o.trace) {
    // Served: timed step calls that matched the reference.
    e2e.requests = static_cast<double>(out.attempted);
    e2e.served = e2e.requests - static_cast<double>(out.failed);
    add_e2e_metrics(e2e, out);
    return out;
  }

  // Per-layer metrics: spans from the traced rounds, execution figures from
  // the untraced ones.
  LayerReport report;
  report.spans = spans;
  report.steps = modeled_counters;
  report.batch_p50 = static_cast<double>(w.batch);
  report.exec_layer_ms = measured_s * 1e3 / timed;
  report.exec_host_ms = (wall_s - measured_s) * 1e3 / timed;
  report.exec_copies = copies / timed;
  report.exec_copy_mb =
      report.exec_copies * static_cast<double>(executor->store().expert_bytes()) / 1e6;
  report.forward_us = expert_forward_us(executor->store());
  // Every plan task runs one expert forward at the functional geometry:
  // three d_model x d_ff projections, 2 flops per weight, fp32 weights read.
  const double tasks_per_step = ratio(spans.plan_tasks, spans.steps);
  const double weights = 3.0 * static_cast<double>(w.exec.d_model * w.exec.d_ff);
  report.gflop_per_step = tasks_per_step * 2.0 * weights / 1e9;
  report.weight_mb_per_step = tasks_per_step * weights * 4.0 / 1e6;
  add_layer_metrics(report, out);
  const double layer_share = ratio(measured_s, wall_s);
  design_check(out, "exec layer windows share of run_step wall time", layer_share,
               layer_share > 0.5);
  write_spans(rec, o.span_file);
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"exec_serve", "exec_decode"};
  return names;
}

RunResult run_workload(const RunOptions& options) {
  if (options.workload == "exec_decode") return run_exec(options);
  return run_serving(options);
}

std::uint64_t modeled_digest(const rt::ServeMetrics& m) {
  Digest d;
  for (const rt::RequestMetrics& r : m.requests) {
    d.add(r.id);
    d.add(static_cast<std::uint64_t>(r.priority));
    d.add(static_cast<std::uint64_t>(r.rejected));
    d.add(r.arrival);
    d.add(r.admit);
    d.add(r.first_token);
    d.add(r.finish);
    d.add(static_cast<std::uint64_t>(r.prompt_tokens));
    d.add(static_cast<std::uint64_t>(r.generated_tokens));
    d.add(static_cast<std::uint64_t>(r.preemptions));
    d.add(static_cast<std::uint64_t>(r.evictions));
    for (const double gap : r.tbt) d.add(gap);
  }
  const rt::StageMetrics& s = m.steps;
  d.add(static_cast<std::uint64_t>(s.stage));
  d.add(static_cast<std::uint64_t>(s.tokens));
  d.add(s.total_latency);
  for (const double v : s.per_forward) d.add(v);
  for (const double v : {s.attention_time, s.shared_time, s.moe_time, s.cpu_busy, s.gpu_busy,
                         s.pcie_busy})
    d.add(v);
  for (const std::size_t v : {s.cache.hits, s.cache.misses, s.cache.insertions,
                              s.cache.evictions, s.cache.rejected_insertions, s.transfers,
                              s.prefetches, s.maintenance})
    d.add(static_cast<std::uint64_t>(v));
  for (const std::size_t v : s.device_transfers) d.add(static_cast<std::uint64_t>(v));
  d.add(s.exec_digest);
  d.add(m.makespan);
  d.add(m.kv.budget_bytes);
  d.add(m.kv.peak_bytes);
  d.add(static_cast<std::uint64_t>(m.kv.rejected));
  d.add(static_cast<std::uint64_t>(m.kv.evictions));
  return d.h;
}

}  // namespace perfbench
