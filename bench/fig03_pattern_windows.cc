// Figure 3: fractions of sequential / stride / other patterns in page-fault
// sequences of length X (Window-X), strict matching for X in {2,4,8} plus
// majority matching for X = 8, for the four application workloads at 50%
// memory.
//
// Here the classified stream is the actual *fault* stream observed by the
// machine (not the raw access stream), like the paper's measurement.
#include <cstdio>
#include <deque>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/majority.h"
#include "src/stats/table.h"

namespace leap {
namespace {

struct Fractions {
  double sequential = 0;
  double stride = 0;
  double other = 0;
};

// Strict Window-X classification over a fault-address sequence.
Fractions ClassifyStrict(const std::vector<SwapSlot>& faults, size_t window) {
  size_t seq = 0;
  size_t stride = 0;
  size_t other = 0;
  for (size_t i = 0; i + window < faults.size(); ++i) {
    bool all_seq = true;
    bool all_stride = true;
    const PageDelta first = static_cast<PageDelta>(faults[i + 1]) -
                            static_cast<PageDelta>(faults[i]);
    for (size_t k = 1; k < window; ++k) {
      const PageDelta d = static_cast<PageDelta>(faults[i + k]) -
                          static_cast<PageDelta>(faults[i + k - 1]);
      all_seq = all_seq && d == 1;
      all_stride = all_stride && d == first;
    }
    if (all_seq) {
      ++seq;
    } else if (all_stride && first != 0) {
      ++stride;
    } else {
      ++other;
    }
  }
  const double total = static_cast<double>(seq + stride + other);
  if (total == 0) {
    return {};
  }
  return {seq / total, stride / total, other / total};
}

// Majority Window-X: a window counts as sequential/stride when a majority
// of its deltas agree (Boyer-Moore), tolerating transient interruptions.
Fractions ClassifyMajority(const std::vector<SwapSlot>& faults,
                           size_t window) {
  size_t seq = 0;
  size_t stride = 0;
  size_t other = 0;
  std::vector<PageDelta> deltas;
  for (size_t i = 0; i + window < faults.size(); ++i) {
    deltas.clear();
    for (size_t k = 1; k < window; ++k) {
      deltas.push_back(static_cast<PageDelta>(faults[i + k]) -
                       static_cast<PageDelta>(faults[i + k - 1]));
    }
    const auto maj = BoyerMooreMajority(deltas);
    if (maj.has_value() && *maj == 1) {
      ++seq;
    } else if (maj.has_value() && *maj != 0) {
      ++stride;
    } else {
      ++other;
    }
  }
  const double total = static_cast<double>(seq + stride + other);
  if (total == 0) {
    return {};
  }
  return {seq / total, stride / total, other / total};
}

// Collects the fault-slot stream of one app at 50% memory.
std::vector<SwapSlot> CollectFaults(size_t app_index, size_t accesses) {
  const AppSpec& spec = kApps[app_index];
  MachineConfig config =
      DefaultVmmConfig(PrefetchKind::kNone, bench::kMicroFrames, 77);
  Machine machine(config);
  const Pid pid = machine.CreateProcess(spec.footprint_pages / 2);
  SimTimeNs now = WarmUp(machine, pid, spec.footprint_pages);

  auto stream = spec.make(spec.footprint_pages, 555);
  Rng rng(555);
  std::vector<SwapSlot> faults;
  faults.reserve(accesses / 2);
  for (size_t i = 0; i < accesses; ++i) {
    const MemOp op = stream->Next(rng);
    now += op.think_ns;
    const bool was_resident = machine.IsResident(pid, op.vpn);
    const AccessResult r = machine.Access(pid, op.vpn, op.write, now);
    now += r.latency;
    if (!was_resident && r.type != AccessType::kMinorFault) {
      const auto slot = machine.SlotOf(pid, op.vpn);
      if (slot.has_value()) {
        faults.push_back(*slot);
      }
    }
  }
  return faults;
}

std::string Pct(double v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.1f", v * 100.0);
  return buf;
}

void Run() {
  bench::PrintHeader(
      "Figure 3 - pattern fractions in fault windows (percent)",
      "strict fractions collapse from window-2 to window-8; majority-8 "
      "detects 11.3-29.7% more sequential than strict-8; Memcached ~96% "
      "irregular");

  TextTable table;
  table.SetHeader({"app", "class", "strict-2", "strict-4", "strict-8",
                   "majority-8"});
  for (size_t app = 0; app < 4; ++app) {
    const auto faults = CollectFaults(app, 400000);
    const Fractions s2 = ClassifyStrict(faults, 2);
    const Fractions s4 = ClassifyStrict(faults, 4);
    const Fractions s8 = ClassifyStrict(faults, 8);
    const Fractions m8 = ClassifyMajority(faults, 8);
    table.AddRow({kApps[app].name, "sequential", Pct(s2.sequential),
                  Pct(s4.sequential), Pct(s8.sequential),
                  Pct(m8.sequential)});
    table.AddRow({"", "stride", Pct(s2.stride), Pct(s4.stride),
                  Pct(s8.stride), Pct(m8.stride)});
    table.AddRow({"", "other", Pct(s2.other), Pct(s4.other), Pct(s8.other),
                  Pct(m8.other)});
  }
  std::printf("%s\n", table.Render().c_str());
}

}  // namespace
}  // namespace leap

int main() {
  leap::Run();
  return 0;
}
