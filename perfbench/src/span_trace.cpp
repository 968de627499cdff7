#include "span_trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <unordered_map>

#include "support/error.hpp"

namespace perfbench {

namespace {

thread_local ScopedSpan* t_open = nullptr;
thread_local std::uint32_t t_open_id = 0;
thread_local std::uint32_t t_open_op = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Length of the union of `intervals` clipped to [lo, hi].
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
                        std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, reach);
    b = std::min(b, hi);
    if (b > a) {
      covered += b - a;
      reach = b;
    }
  }
  return covered;
}

}  // namespace

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const char* name)
    : recorder_(recorder) {
  if (recorder_ == nullptr) {
    return;
  }
  span_.id = recorder_->next_id();
  span_.name = name;
  outer_ = t_open;
  span_.parent = outer_ != nullptr ? t_open_id : 0;
  span_.op = outer_ != nullptr ? t_open_op : span_.id;
  t_open = this;
  t_open_id = span_.id;
  t_open_op = span_.op;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) {
    return;
  }
  span_.end_ns = now_ns();
  recorder_->record(span_);
  t_open = outer_;
  t_open_id = span_.parent;
  t_open_op = outer_ != nullptr ? span_.op : 0;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::int64_t origin = 0;
  if (!all.empty()) {
    origin = std::min_element(all.begin(), all.end(),
                              [](const Span& a, const Span& b) {
                                return a.start_ns < b.start_ns;
                              })
                 ->start_ns;
  }
  std::ofstream out(path);
  HETERO_REQUIRE(out.good(), "perfbench: cannot write spans to " + path);
  for (const Span& s : all) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"start_us\":" << static_cast<double>(s.start_ns - origin) / 1e3
        << ",\"dur_us\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << "}\n";
  }
  HETERO_REQUIRE(out.good(), "perfbench: short write of spans to " + path);
}

double SpanAnalysis::total(const std::string& name) const {
  const auto it = total_s.find(name);
  HETERO_REQUIRE(it != total_s.end(), "perfbench: no span named " + name);
  return it->second;
}

SpanAnalysis analyse(const std::vector<Span>& spans,
                     const std::string& op_name) {
  std::unordered_map<std::uint32_t, const Span*> by_id;
  std::unordered_map<std::uint32_t,
                     std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans) {
    by_id[s.id] = &s;
    if (s.parent != 0) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  SpanAnalysis out;
  for (const Span& s : spans) {
    const auto kids = children.find(s.id);
    const double self =
        static_cast<double>(
            (s.end_ns - s.start_ns) -
            (kids == children.end()
                 ? 0
                 : covered_ns(kids->second, s.start_ns, s.end_ns))) *
        1e-9;
    const double duration = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    out.self_s[s.name] += self;
    out.total_s[s.name] += duration;
    ++out.count[s.name];
    const auto root = by_id.find(s.op);
    if (root == by_id.end() || op_name != root->second->name) {
      continue;
    }
    ++out.op_spans;
    if (s.parent == 0) {
      ++out.ops;
      out.op_s += duration;
      out.unattributed_s += self;
    }
  }
  return out;
}

}  // namespace perfbench
