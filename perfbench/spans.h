// In-memory span log for the traced benchmark run. The benchmark opens a
// span around each call it makes into a layer's public functions; spans
// stay in memory and are written out as JSON lines when the run ends.
// Self time of a span is its duration minus its children's durations;
// the benchmark's children never overlap (one shard, sequential batches).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since a fixed process-wide origin.
inline double NowS() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

struct Span {
  const char* name = "";  // static string literal
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // shared by the spans of one request
  double start_s = 0.0;
  double end_s = 0.0;
  int shard = -1;       // serve.decision only
  int candidates = -1;  // serve.decision only

  double Duration() const { return end_s - start_s; }
};

class SpanLog {
 public:
  std::uint64_t NewId() { return next_id_++; }

  /// Records a finished span and returns its id.
  std::uint64_t Add(Span span) {
    if (span.id == 0) span.id = NewId();
    spans_.push_back(span);
    return span.id;
  }

  /// Moves spans recorded elsewhere (a replay's decisions), assigning
  /// ids to those without one.
  void Absorb(std::vector<Span>& spans) {
    for (Span& span : spans) Add(span);
    spans.clear();
  }

  const std::vector<Span>& spans() const { return spans_; }

  struct NameTotals {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  /// Per span name: count, summed duration, and summed self time.
  std::map<std::string, NameTotals> Totals() const {
    std::unordered_map<std::uint64_t, double> children_s;
    for (const Span& span : spans_) {
      if (span.parent != 0) children_s[span.parent] += span.Duration();
    }
    std::map<std::string, NameTotals> totals;
    for (const Span& span : spans_) {
      NameTotals& t = totals[span.name];
      ++t.count;
      t.total_s += span.Duration();
      t.self_s += span.Duration();
      if (auto it = children_s.find(span.id); it != children_s.end()) {
        t.self_s -= it->second;
      }
    }
    return totals;
  }

  /// Writes one JSON object per span; returns false on I/O failure.
  bool WriteJsonl(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(out,
                   "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                   "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.name,
                   s.start_s * 1e6, s.end_s * 1e6);
      if (s.shard >= 0) std::fprintf(out, ",\"shard\":%d", s.shard);
      if (s.candidates >= 0) {
        std::fprintf(out, ",\"candidates\":%d", s.candidates);
      }
      std::fputs("}\n", out);
    }
    return std::fclose(out) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

}  // namespace perfbench
