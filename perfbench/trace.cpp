#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench {

namespace {

const Clock::time_point kOrigin = Clock::now();

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

/// Open spans of the calling thread, innermost last.
thread_local std::vector<std::uint64_t> t_stack;

void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - kOrigin)
      .count();
}

std::uint64_t Tracer::begin(const char* name, std::uint64_t id, std::uint64_t parent) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.id = id;
  span.parent = t_stack.empty() ? parent : t_stack.back();
  span.tid = thread_index();
  span.start_ns = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  span.span_id = next_span_++;
  t_stack.push_back(span.span_id);
  open_.emplace(span.span_id, std::move(span));
  return t_stack.back();
}

void Tracer::end(std::uint64_t span_id) {
  if (span_id == 0) return;
  const std::int64_t t = now_ns();
  if (!t_stack.empty() && t_stack.back() == span_id) t_stack.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = open_.find(span_id);
  if (it == open_.end()) return;
  it->second.end_ns = t;
  closed_.push_back(std::move(it->second));
  open_.erase(it);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  const std::vector<Span> all = spans();
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const Span& s : all) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, SpanTotals> out;
  for (const Span& s : all) {
    std::int64_t covered = 0;
    const auto it = children.find(s.span_id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to this span.
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::int64_t cur_lo = 0, cur_hi = -1;
      for (auto [lo, hi] : intervals) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    SpanTotals& t = out[s.name];
    const std::int64_t dur = s.end_ns - s.start_ns;
    t.total_ms += static_cast<double>(dur) / 1e6;
    t.self_ms += static_cast<double>(dur - covered) / 1e6;
    ++t.count;
  }
  return out;
}

void Tracer::write_chrome_trace(const std::string& path,
                                const std::vector<const Tracer*>& tracers) {
  std::ofstream os(path, std::ios::trunc);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char num[64];
  bool first = true;
  for (std::size_t pid = 0; pid < tracers.size(); ++pid) {
    for (const Span& s : tracers[pid]->spans()) {
      const std::string layer = s.name.substr(0, s.name.find('.'));
      os << (first ? "\n" : ",\n") << "{\"name\":";
      first = false;
      json_string(os, s.name);
      os << ",\"cat\":";
      json_string(os, layer);
      std::snprintf(num, sizeof num, "%.3f", static_cast<double>(s.start_ns) / 1e3);
      os << ",\"ph\":\"X\",\"pid\":" << pid + 1 << ",\"tid\":" << s.tid
         << ",\"ts\":" << num;
      std::snprintf(num, sizeof num, "%.3f",
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      os << ",\"dur\":" << num << ",\"args\":{\"span\":" << s.span_id
         << ",\"parent\":" << s.parent << ",\"id\":" << s.id << "}}";
    }
  }
  os << "\n]}\n";
}

}  // namespace perfbench
