#pragma once

/// \file spans.hpp
/// In-memory span recorder for the traced benchmark run. A span is one timed
/// call into a layer: name, start, end, the span it ran inside, and the step
/// or request it belongs to. Spans nest on a stack (the benchmark is
/// single-threaded where it records), so a span's self time is its duration
/// minus the time its direct children cover.
///
/// High-frequency leaf calls (cache-policy callbacks) are coalesced: every
/// call under one parent span adds to a single record that counts the calls
/// and sums their durations, which keeps memory bounded by the number of
/// steps rather than the number of policy callbacks.

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <vector>

namespace perfbench {

/// The layer boundaries the traced run records, named after src/ modules.
enum class SpanName : std::uint32_t {
  ServeRun,  ///< serve_sim: one SimCore::run (or the exec closed loop)
  Synth,     ///< workload: trace synthesis for one request (or one round)
  Step,      ///< runtime: one engine step
  Schedule,  ///< sched: one LayerScheduler::schedule call
  Prefetch,  ///< core: one Prefetcher::plan call
  Policy,    ///< cache: cache-policy callbacks (coalesced per parent span)
};
inline constexpr std::size_t kNumSpanNames = 6;
[[nodiscard]] const char* to_string(SpanName name);

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Nanoseconds of CPU time used so far by the whole process, all threads.
/// The benchmark's host figures are CPU time: on a shared host the wall
/// time of the multi-threaded execution backend swings by 2x from run to
/// run with how fast idle cores are woken, while the CPU time its threads
/// spend stays within a few percent. For single-threaded work the two agree.
[[nodiscard]] std::int64_t cpu_ns();

struct Span {
  SpanName name = SpanName::ServeRun;
  std::int64_t start = 0;     ///< ns, first call for a coalesced record
  std::int64_t end = 0;       ///< ns, last call for a coalesced record
  std::int64_t total = 0;     ///< ns spent inside the span (sum of calls)
  std::int64_t children = 0;  ///< ns covered by direct children
  std::int32_t parent = -1;   ///< index of the enclosing span, -1 at the root
  std::uint64_t id = 0;       ///< step or request id
  std::uint64_t count = 1;    ///< calls folded into this record

  [[nodiscard]] std::int64_t self() const { return total - children; }
};

class SpanRecorder {
 public:
  /// Open a span at time `t` inside the currently open one; returns its index.
  std::int32_t open_at(SpanName name, std::uint64_t id, std::int64_t t);
  /// Close the innermost open span (which must be `span`) at time `t`.
  void close_at(std::int32_t span, std::int64_t t);
  /// Fold one leaf call of `ns` nanoseconds, ending at `t`, into the
  /// coalesced record for `name` under the innermost open span.
  void leaf_at(SpanName name, std::int64_t ns, std::int64_t t);

  std::int32_t open(SpanName name, std::uint64_t id) {
    return open_at(name, id, now_ns());
  }
  void close(std::int32_t span) { close_at(span, now_ns()); }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] bool idle() const { return stack_.empty(); }

  /// Sum of total (inclusive) and self nanoseconds per span name, over the
  /// spans recorded from index `first` on.
  struct Totals {
    std::int64_t total = 0;
    std::int64_t self = 0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] Totals totals(SpanName name, std::size_t first = 0) const;

  /// One tab-separated line per span: name, start, end, total, self, parent,
  /// id, count (times in ns relative to the first span).
  void write(std::ostream& os) const;

 private:
  struct Frame {
    std::int32_t span;
    std::map<SpanName, std::int32_t> leaves;  ///< name -> coalesced record
  };
  std::vector<Span> spans_;
  std::vector<Frame> stack_;
  std::map<SpanName, std::int32_t> root_leaves_;
};

/// The recorder wrappers report into; null when the run is untraced.
SpanRecorder*& active_recorder();

/// RAII span on the active recorder (no-op when none is installed).
class ScopedSpan {
 public:
  ScopedSpan(SpanName name, std::uint64_t id) : recorder_(active_recorder()) {
    if (recorder_ != nullptr) span_ = recorder_->open(name, id);
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::int32_t span_ = -1;
};

/// RAII coalesced leaf call on the active recorder.
class ScopedLeaf {
 public:
  explicit ScopedLeaf(SpanName name)
      : recorder_(active_recorder()), name_(name), start_(recorder_ ? now_ns() : 0) {}
  ~ScopedLeaf() {
    if (recorder_ == nullptr) return;
    const std::int64_t t = now_ns();
    recorder_->leaf_at(name_, t - start_, t);
  }
  ScopedLeaf(const ScopedLeaf&) = delete;
  ScopedLeaf& operator=(const ScopedLeaf&) = delete;

 private:
  SpanRecorder* recorder_;
  SpanName name_;
  std::int64_t start_;
};

}  // namespace perfbench
