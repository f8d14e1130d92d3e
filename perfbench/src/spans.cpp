#include "spans.hpp"

#include <ctime>
#include <stdexcept>

namespace perfbench {

std::int64_t cpu_ns() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
}

const char* to_string(SpanName name) {
  switch (name) {
    case SpanName::ServeRun: return "serve_sim.run";
    case SpanName::Synth: return "workload.synth";
    case SpanName::Step: return "runtime.step";
    case SpanName::Schedule: return "sched.schedule";
    case SpanName::Prefetch: return "core.prefetch";
    case SpanName::Policy: return "cache.policy";
  }
  return "?";
}

std::int32_t SpanRecorder::open_at(SpanName name, std::uint64_t id, std::int64_t t) {
  Span span;
  span.name = name;
  span.start = t;
  span.end = t;
  span.parent = stack_.empty() ? -1 : stack_.back().span;
  span.id = id;
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(span);
  stack_.push_back({index, {}});
  return index;
}

void SpanRecorder::close_at(std::int32_t span, std::int64_t t) {
  if (stack_.empty() || stack_.back().span != span)
    throw std::logic_error("span closed out of order");
  stack_.pop_back();
  Span& s = spans_[static_cast<std::size_t>(span)];
  s.end = t;
  s.total = t - s.start;
  if (s.parent >= 0) spans_[static_cast<std::size_t>(s.parent)].children += s.total;
}

void SpanRecorder::leaf_at(SpanName name, std::int64_t ns, std::int64_t t) {
  auto& leaves = stack_.empty() ? root_leaves_ : stack_.back().leaves;
  const auto [it, inserted] =
      leaves.try_emplace(name, static_cast<std::int32_t>(spans_.size()));
  if (inserted) {
    Span span;
    span.name = name;
    span.start = t - ns;
    span.parent = stack_.empty() ? -1 : stack_.back().span;
    span.id = span.parent >= 0 ? spans_[static_cast<std::size_t>(span.parent)].id : 0;
    span.count = 0;
    spans_.push_back(span);
  }
  Span& s = spans_[static_cast<std::size_t>(it->second)];
  s.end = t;
  s.total += ns;
  ++s.count;
  if (s.parent >= 0) spans_[static_cast<std::size_t>(s.parent)].children += ns;
}

SpanRecorder::Totals SpanRecorder::totals(SpanName name, std::size_t first) const {
  Totals out;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name) continue;
    out.total += s.total;
    out.self += s.self();
    out.count += s.count;
  }
  return out;
}

void SpanRecorder::write(std::ostream& os) const {
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start;
  os << "name\tstart_ns\tend_ns\ttotal_ns\tself_ns\tparent\tid\tcount\n";
  for (const Span& s : spans_) {
    os << to_string(s.name) << '\t' << s.start - origin << '\t' << s.end - origin
       << '\t' << s.total << '\t' << s.self() << '\t' << s.parent << '\t' << s.id
       << '\t' << s.count << '\n';
  }
}

SpanRecorder*& active_recorder() {
  static SpanRecorder* recorder = nullptr;
  return recorder;
}

}  // namespace perfbench
