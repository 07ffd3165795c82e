// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code around calls into the
// simulator's public API; nothing inside the simulator is instrumented.
// Each span knows its parent, and every closed span adds its duration to
// its parent's child time, so a span's self time is its duration minus the
// part of it its children cover. Per-access spans are too many to keep:
// the caller keeps one in `sample_every` and reports the rest as child
// time only, so self times stay exact while the stored trace stays small.
#ifndef LEAPBENCH_SPANS_H_
#define LEAPBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace leapbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";  // string literal
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    int64_t child_ns = 0;
    uint32_t round = 0;  // spans of one round share this identifier
  };

  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  // Starts a round: the spans recorded until the next call share its id.
  void NewRound() { ++round_; }

  // Opens a span as a child of the innermost open span.
  void Begin(const char* name) {
    spans_.push_back({name, Now(), 0, open_.empty() ? -1 : open_.back(), 0,
                      round_});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
  }

  // Closes the innermost open span and returns its duration in ns.
  int64_t End() {
    Span& span = spans_[open_.back()];
    open_.pop_back();
    span.end_ns = Now();
    const int64_t dur = span.end_ns - span.start_ns;
    if (span.parent >= 0) {
      spans_[span.parent].child_ns += dur;
    }
    return dur;
  }

  // A finished child of the innermost open span, measured by the caller.
  // `keep` stores it; otherwise only its time is credited to the parent.
  void Child(const char* name, int64_t start_ns, int64_t end_ns, bool keep) {
    const int parent = open_.back();
    spans_[parent].child_ns += end_ns - start_ns;
    if (keep) {
      spans_.push_back({name, start_ns, end_ns, parent, 0, round_});
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time (duration minus child time) summed per span name, over the
  // spans of the given round.
  std::map<std::string, int64_t> SelfNs(uint32_t round) const {
    std::map<std::string, int64_t> out;
    for (const Span& span : spans_) {
      if (span.round == round) {
        out[span.name] += span.end_ns - span.start_ns - span.child_ns;
      }
    }
    return out;
  }

  uint32_t round() const { return round_; }

  // Chrome trace-event JSON ("X" complete events, one track per round).
  bool WriteChromeJson(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %zu, \"parent\": %d, "
                   "\"self_ns\": %lld}}",
                   i == 0 ? "" : ",\n", s.name, s.round,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent,
                   static_cast<long long>(s.end_ns - s.start_ns - s.child_ns));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  uint32_t round_ = 0;
};

}  // namespace leapbench

#endif  // LEAPBENCH_SPANS_H_
