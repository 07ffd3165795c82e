// The benchmark's three workloads: input generation from a seed, the
// simulator set-up each one runs, and one measured round.
//
// A round builds the simulator from scratch (construction, CreateProcess,
// WarmUp), runs the pre-generated access streams to completion as a closed
// loop, and collects every simulated-time result. Rounds are pure
// functions of the inputs, so every round of a run - traced or not - must
// produce the same SimResult; every run checks that it does.
#ifndef LEAPBENCH_WORKLOADS_H_
#define LEAPBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "spans.h"
#include "src/cluster/fabric.h"
#include "src/prefetch/profile_pass.h"
#include "src/stats/counters.h"
#include "src/stats/histogram.h"
#include "src/workload/access_stream.h"

namespace leapbench {

enum class WorkloadKind { kLeapStride, kDefaultVoltdb, kClusterMix };

const char* WorkloadName(WorkloadKind kind);
std::optional<WorkloadKind> ParseWorkload(std::string_view name);

// Simulated system size. The full geometry is what the benchmark reports;
// the tiny one keeps the self-test fast.
struct Geometry {
  size_t hosts = 1;
  size_t nodes = 2;
  size_t footprint_pages = 0;
  size_t total_frames = 0;
  size_t accesses_per_app = 0;
  // Cluster only: CXL tier capacity per host, in pages, and the length of
  // simulated time the fault plan is laid out over.
  size_t cxl_pages = 0;
  leap::SimTimeNs fault_span_ns = 0;
};

// Everything the simulator receives, generated from the workload seed
// before any timed region: one op sequence per app.
struct Inputs {
  WorkloadKind kind = WorkloadKind::kLeapStride;
  Geometry geo;
  std::vector<std::vector<leap::MemOp>> ops;  // one per app (= per host)
};

Inputs MakeInputs(WorkloadKind kind, uint64_t seed, bool tiny);

// Every simulated-time result of one round. Deterministic given Inputs.
struct SimResult {
  uint64_t requested = 0;        // accesses requested over all apps
  uint64_t completed = 0;        // accesses the apps actually executed
  uint64_t unfinished_apps = 0;  // apps that stopped short
  // Hosts where issued - hits - unused_evicted != unconsumed_prefetched().
  uint64_t imbalanced_hosts = 0;
  leap::Histogram remote;  // 4 KB remote page accesses, merged over apps
  leap::SimTimeNs completion_ns = 0;  // slowest app
  leap::Counters totals;
  leap::Histogram timeliness;
  leap::Histogram alloc;
  leap::Histogram eviction_wait;
  // Cluster only (zero on single-host workloads).
  uint64_t fabric_ops = 0;
  uint64_t fabric_bytes = 0;
  uint64_t slab_imbalance = 0;
  leap::StageBreakdown stages;
  double queue_mean_demand_ns = 0.0;
  double queue_mean_prefetch_ns = 0.0;

  uint64_t Failed() const;
  // Hash of every field above: equal fingerprints mean equal simulations.
  uint64_t Fingerprint() const;
};

// Host-clock spans of one round, in seconds.
struct HostTimes {
  double ctor_s = 0.0;    // Machine / Cluster construction
  double warmup_s = 0.0;  // CreateProcess + WarmUp + fault scheduling
  double run_s = 0.0;     // RunApp / Cluster::Run (or the traced loop)
  double stats_s = 0.0;   // collecting SimResult (incl. Cluster::Stats)
  double SetupS() const { return ctor_s + warmup_s; }
};

// Extra host-time detail only the traced round produces.
struct TraceDetail {
  // Indexed by AccessBucket: host ns and calls per Machine::Access.
  std::array<int64_t, 4> access_ns{};
  std::array<uint64_t, 4> access_calls{};
  // Fault trace replayed into fresh policies: records and host ns.
  uint64_t replay_records = 0;
  int64_t replay_ns = 0;
};

enum AccessBucket { kLocal = 0, kCacheHit = 1, kWaitHit = 2, kMiss = 3 };
inline constexpr const char* kAccessBucketNames[] = {"local", "cache_hit",
                                                     "wait_hit", "miss"};

struct Round {
  SimResult sim;
  HostTimes host;
};

// Untraced round: the timed run is the public RunApp / Cluster::Run call.
Round RunRound(const Inputs& inputs);

// Set-up only: construction plus population of a simulator that is then
// discarded. Returns the host seconds the set-up took.
double SetupOnly(const Inputs& inputs);

// Traced round: the same simulation driven access by access through
// Machine::Access (the loop RunApp uses), with spans recorded in `tracer`,
// then the recorded fault trace replayed into fresh prefetch policies.
Round RunTracedRound(const Inputs& inputs, Tracer& tracer,
                     TraceDetail& detail);

}  // namespace leapbench

#endif  // LEAPBENCH_WORKLOADS_H_
