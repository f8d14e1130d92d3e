#pragma once

/// \file copy_engine.hpp
/// The PCIe lane of the threaded execution backend: one dedicated thread
/// servicing transfer jobs strictly in submission order, exactly as the
/// simulator models the link as a single serially-occupied resource. Jobs
/// are closures built by the executor — a transfer stands for a DMA, so a
/// job moves no host bytes: it paces itself to the scaled modeled transfer
/// duration (in a paced step), then publishes its completion to the task
/// graph.
///
/// Thread-safety: submit() and drain() may be called from any thread (the
/// executor calls them from the engine thread). Jobs run on the copy thread
/// only; completion ordering is FIFO by submission.

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>

#include <condition_variable>

namespace hybrimoe::exec {

/// Single-threaded asynchronous transfer servicer (the simulated PCIe link).
class CopyEngine {
 public:
  /// Spawns the copy thread.
  CopyEngine();
  /// Drains all queued jobs, then joins the copy thread.
  ~CopyEngine();

  CopyEngine(const CopyEngine&) = delete;
  CopyEngine& operator=(const CopyEngine&) = delete;

  /// Enqueue a transfer job; jobs execute strictly in submission order.
  void submit(std::function<void()> job);

  /// Block until every submitted job has completed. Must not be called from
  /// inside a job.
  void drain();

  /// Jobs completed so far (monotonic).
  [[nodiscard]] std::uint64_t completed() const;

  /// Rethrow the first exception that escaped a job, if any (the copy
  /// thread swallowed it to stay alive). Clears the stored exception.
  void rethrow_pending_error();

 private:
  void copy_loop();

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::uint64_t completed_ = 0;
  std::exception_ptr first_error_;
  bool busy_ = false;
  bool stop_ = false;
  // Last member: the thread must start only after all state is initialized.
  std::thread thread_;
};

}  // namespace hybrimoe::exec
