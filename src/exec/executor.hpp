#pragma once

/// \file executor.hpp
/// The real threaded execution backend: takes the same sched::LayerPlan the
/// discrete-event simulator consumes and actually dispatches it — the CPU
/// expert lane (one pool task per layer) to a work-stealing ThreadPool,
/// transfers to one asynchronous CopyEngine thread *per host link* (a
/// transfer stands for a DMA: its job moves no host bytes, it paces and
/// publishes completion), primary-GPU-lane work (dense phase + routed
/// experts of accelerator 0) to the calling engine thread, and each
/// further accelerator's lane to its own dedicated thread — honoring the
/// plan's dependencies: an uncached accelerator expert cannot start before
/// its transfer completes, and each resource lane is serially occupied in
/// plan order. Lanes and copiers are created lazily from the device count
/// the executed plans actually carry, so single-accelerator engines spawn
/// exactly the threads they did under the CPU+GPU pair model.
///
/// Every expert task runs a real expert forward pass at the store's
/// functional dimensions (SIMD-dispatched, fp32 or Q4), then — in a paced
/// step — sleeps to the scaled modeled duration (calibrated sleep), so
/// wall-clock measurements validate the *concurrency structure* the
/// scheduler claims — whether CPU compute, GPU compute and PCIe transfers
/// genuinely overlap in real time (paper §V moves task allocation into C++
/// for exactly this) — while remaining robust on small CI hosts. An unpaced
/// step (ExecutionMode::Performance) keeps the identical lowering and
/// dependency structure but drops every sleep, so the measured window is
/// real kernel time plus the lanes' hand-offs. Layer outputs are reduced in a fixed
/// deterministic order, so threaded execution is bitwise-identical to the
/// single-threaded reference at any worker count, paced or not.
///
/// Thread-safety: one executor drives one engine thread at a time —
/// begin_step / execute_layer / pace_dense / end_step must be called from a
/// single thread (the OffloadEngine step loop), and that thread doubles as
/// the GPU lane. Internally the executor owns the worker pool and the copy
/// thread; the ExpertStore is internally synchronized. Sharing one executor
/// across engines is fine as long as their steps do not interleave.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "exec/copy_engine.hpp"
#include "exec/expert_store.hpp"
#include "exec/thread_pool.hpp"
#include "hw/cost_model.hpp"
#include "sched/plan.hpp"

namespace hybrimoe::exec {

/// Which backend an OffloadEngine runs its plans through.
enum class ExecutionMode : std::uint8_t {
  Simulated,    ///< discrete-event only: plans are charged, never executed
  Threaded,     ///< plans are lowered to real tasks on real threads, paced
                ///< to the scaled modeled durations
  Performance,  ///< same lowering as Threaded with pacing dropped: every
                ///< task runs flat out, wall clock is real kernel time
};

/// Printable name of an execution mode.
[[nodiscard]] constexpr const char* to_string(ExecutionMode m) noexcept {
  switch (m) {
    case ExecutionMode::Threaded:
      return "threaded";
    case ExecutionMode::Performance:
      return "performance";
    case ExecutionMode::Simulated:
    default:
      return "simulated";
  }
}

/// Tuning knobs of the threaded backend.
struct ExecOptions {
  /// CPU worker threads in the expert pool (>= 1).
  std::size_t workers = 4;
  /// Wall-clock seconds per modeled second. Pick via calibrate_time_scale
  /// (or a wall-time target) so that paced durations dominate real kernel
  /// times and sleep overshoot; 1.0 means real time == modeled time.
  double time_scale = 1.0;
  /// Run real expert FFN kernels and produce layer outputs/digests. When
  /// false the backend paces timing only.
  bool compute_experts = true;
  /// Run experts at Q4 precision: quantized kernels on the hot path, reading
  /// ~6x fewer weight bytes per forward than fp32 at the default geometry.
  /// Outputs/digests stay deterministic but differ from fp32 runs.
  bool quantized_experts = false;
  /// Functional expert geometry (decoupled from the cost model's Table II
  /// shapes: scheduling charges the paper's sizes, kernels run small).
  std::size_t d_model = 32;
  std::size_t d_ff = 64;
  /// Seed for the deterministic weight/input store.
  std::uint64_t weight_seed = 0x5EED'0E8Aul;

  /// Throws std::invalid_argument on structurally invalid options.
  void validate() const;
};

/// FNV-1a offset basis — the seed of an empty digest chain.
inline constexpr std::uint64_t kDigestSeed = 0xCBF29CE484222325ULL;

/// Extend an FNV-1a digest chain over `size` raw bytes.
[[nodiscard]] std::uint64_t hash_bytes(std::uint64_t seed, const void* data,
                                       std::size_t size) noexcept;

/// Extend an FNV-1a digest chain with one 64-bit value.
[[nodiscard]] std::uint64_t hash_u64(std::uint64_t seed, std::uint64_t value) noexcept;

/// Outcome of executing one layer plan.
struct LayerResult {
  /// Wall-clock layer window re-expressed in modeled seconds (wall /
  /// time_scale); 0 for the single-threaded reference path.
  double measured = 0.0;
  /// Combined routed-expert output of the layer (empty when
  /// compute_experts is off). Bitwise-deterministic across backends,
  /// worker counts and device assignments.
  std::vector<float> output;
};

/// Outcome of one engine step (one forward pass) on the backend.
struct StepResult {
  double measured = 0.0;           ///< sum of layer windows, modeled seconds
  std::uint64_t digest = kDigestSeed;  ///< chained FNV-1a over layer outputs
  std::size_t layers = 0;          ///< layers executed this step
};

/// One speculative upload (prefetch or cache maintenance) the engine hands
/// to the backend alongside a plan: which expert, over which accelerator
/// link, at what modeled duration. Speculative copies are not waited on —
/// they drain behind the plan's on-demand transfers, exactly like the
/// modeled per-link carry.
struct AsyncCopy {
  moe::ExpertId id;
  std::size_t link = 0;   ///< accelerator/link index (topology order)
  double seconds = 0.0;   ///< modeled transfer duration on that link
};

/// Threaded (and reference) executor for scheduler layer plans.
class HybridExecutor {
 public:
  /// Threads are started lazily on the first threaded layer, so an executor
  /// used only for the reference path never spawns any.
  explicit HybridExecutor(ExecOptions options = {});
  /// Drains the copy engine and joins all backend threads.
  ~HybridExecutor();

  HybridExecutor(const HybridExecutor&) = delete;
  HybridExecutor& operator=(const HybridExecutor&) = delete;

  /// The options this executor was built with (immutable).
  [[nodiscard]] const ExecOptions& options() const noexcept { return options_; }
  /// The deterministic weight/input store (internally synchronized).
  [[nodiscard]] ExpertStore& store() noexcept { return store_; }

  /// Start a step: resets the step accumulator. `paced` selects whether this
  /// step's tasks sleep to their scaled modeled durations (Threaded) or run
  /// flat out (Performance; `measured` then reports raw wall seconds).
  /// Engine thread only; steps must not nest.
  void begin_step(bool paced = true);

  /// Execute one layer plan for real: dispatches each link's transfers to
  /// that link's copy thread (in per-link transfer_order, followed by the
  /// `async_copies` routed to it — speculative uploads that are *not* waited
  /// on and spill into subsequent layers exactly like the modeled per-link
  /// carry), runs the CPU lane as one worker-pool task, runs the dense head
  /// (`overhead` + plan.gpu_offset) and accelerator 0's tasks on the calling
  /// thread, runs every further accelerator's lane on its dedicated thread,
  /// and returns once every compute task of the plan has finished. Engine
  /// thread only, inside a step; plan.tasks must be non-empty.
  [[nodiscard]] LayerResult execute_layer(const sched::LayerPlan& plan, double overhead,
                                          std::span<const AsyncCopy> async_copies = {});

  /// Single-threaded reference execution: computes the same outputs/digest
  /// as execute_layer with no threads and no pacing (measured == 0). The
  /// bitwise ground truth the threaded backend is validated against.
  [[nodiscard]] LayerResult execute_layer_reference(const sched::LayerPlan& plan);

  /// Pace a layer with no routed experts (dense phase only) on the GPU
  /// lane. Engine thread only, inside a step.
  void pace_dense(double modeled_seconds);

  /// Finish the step: waits for stragglers on the copy engine (their drain
  /// time is *not* part of the measurement — the simulator resets PCIe
  /// carry between steps the same way), rethrows any worker/copy-thread
  /// error, and returns the step's accumulated measurement/digest.
  [[nodiscard]] StepResult end_step();

  /// Abandon an open step after a failure: quiesces the backend (waits for
  /// in-flight tasks, drains copies, discards pending errors and the step
  /// accumulator) so a shared executor is usable for a fresh begin_step
  /// instead of staying wedged. No-op when no step is open. Engine thread
  /// only — the engine's step loop invokes this from its unwind path.
  void abort_step() noexcept;

  /// Measure this host's real kernel and sleep-wakeup times (via
  /// hw::time_callable) and return the smallest time_scale at which the
  /// fastest modeled task of `costs` still comfortably covers them
  /// (`safety` x). Feed the result (or any larger scale, e.g. one chosen
  /// for a wall-time budget) into ExecOptions::time_scale.
  [[nodiscard]] double calibrate_time_scale(const hw::CostModel& costs,
                                            double safety = 8.0);

  /// Copy links spun up so far (lazily grown by ensure_started; 0 before
  /// the first threaded layer).
  [[nodiscard]] std::size_t num_links() const noexcept { return copiers_.size(); }

  /// Copy jobs completed on link `link` so far (monotonic; 0 for a link that
  /// never started). Every expert upload the engine accounts — on-demand,
  /// prefetch or maintenance — is exactly one copy job on its target link,
  /// paced or not,
  /// so these totals are the execution-side witness the trace subsystem's
  /// conservation checks compare per-step transfer records against. Call
  /// between steps (end_step drains the copiers).
  [[nodiscard]] std::uint64_t link_transfers_completed(std::size_t link) const {
    return link < copiers_.size() ? copiers_[link]->completed() : 0;
  }

 private:
  struct LayerBoard;
  /// Lazily spawn the worker pool plus one copy thread per link and one lane
  /// thread per extra accelerator (num_links >= 1, num_lanes >= 0).
  void ensure_started(std::size_t num_links, std::size_t num_lanes);
  /// Run the board's whole CPU lane (one pool task per layer): each task's
  /// forward and pacing, publishing each completion as it finishes.
  void run_cpu_lane(const std::shared_ptr<LayerBoard>& board);
  /// Run extra accelerator `accel`'s whole lane (accel >= 1) on its
  /// dedicated thread: dense head, then its tasks gated on their transfers.
  void run_gpu_lane(const std::shared_ptr<LayerBoard>& board, std::size_t accel);
  /// Deterministic load-weighted reduction of per-task outputs, then digest.
  [[nodiscard]] std::vector<float> combine_and_digest(
      const sched::LayerPlan& plan, std::vector<std::vector<float>>& slots);

  ExecOptions options_;
  ExpertStore store_;
  // Declaration order is load-bearing: the copy/lane threads and worker pool
  // are destroyed (joined) before the store their tasks reference.
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<CopyEngine>> copiers_;   ///< one per link
  std::vector<std::unique_ptr<CopyEngine>> gpu_lanes_; ///< accel 1.. lanes
  StepResult step_;
  bool in_step_ = false;
  bool paced_ = true;           ///< current step paces tasks (set by begin_step)
  bool slack_reduced_ = false;  ///< engine-thread timer slack tightened
};

}  // namespace hybrimoe::exec
