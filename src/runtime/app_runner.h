// Executes workloads on a simulated machine and collects the metrics the
// paper reports: completion time, throughput (TPS/OPS), and the latency
// distribution of remote (non-resident) page accesses.
#ifndef LEAP_SRC_RUNTIME_APP_RUNNER_H_
#define LEAP_SRC_RUNTIME_APP_RUNNER_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "src/runtime/machine.h"
#include "src/stats/histogram.h"
#include "src/workload/access_stream.h"

namespace leap {

struct RunConfig {
  // Total memory accesses to execute.
  size_t total_accesses = 500'000;
  // Abort the run when simulated time exceeds this (0 = no cap). Runs that
  // hit the cap report finished = false - the paper's "never finishes".
  SimTimeNs time_cap_ns = 0;
  // Simulated time at which the app starts (use the time returned by
  // WarmUp so measurement begins after population).
  SimTimeNs start_time_ns = 0;
  uint64_t seed = 7;
};

struct RunResult {
  std::string app_name;
  bool finished = true;
  SimTimeNs completion_ns = 0;
  uint64_t accesses = 0;
  uint64_t app_ops = 0;
  // Application-level operations per simulated second.
  double ops_per_sec = 0.0;
  // Latency of every access that went through the paging/VFS path (cache
  // hits, wait-hits, and misses) - the paper's "4KB remote page access".
  Histogram remote_access_latency;
  // Misses only (the slow-path tail).
  Histogram miss_latency;
  // All accesses, including local hits.
  Histogram access_latency;
};

// Runs one workload to completion on its own timeline starting at the
// machine's current shared resources state.
RunResult RunApp(Machine& machine, Pid pid, AccessStream& stream,
                 const RunConfig& config);

// Sequentially writes `pages` pages once, starting at `start`, and returns
// the finish time. This mirrors the paper's microbenchmark setup: the
// working set is populated in address order first, so swap slots line up
// with virtual pages and the measured pattern (Sequential / Stride-N) is
// seen by the backing store as-is.
SimTimeNs WarmUp(Machine& machine, Pid pid, size_t pages,
                 SimTimeNs start = 0);

// Runs several workloads concurrently on one machine (Figure 13): accesses
// interleave in global simulated-time order, contending for DRAM, the NIC,
// and the device like co-located processes.
struct MultiAppSpec {
  Pid pid;
  AccessStream* stream;
  RunConfig config;
};
std::vector<RunResult> RunAppsConcurrently(Machine& machine,
                                           std::vector<MultiAppSpec> specs);

// --- multi-machine core ------------------------------------------------------

// One workload bound to an explicit machine. RunAppsConcurrently and the
// cluster drivers both lower onto this, so there is exactly one
// global-time-ordered interleaving loop in the tree.
struct BoundAppSpec {
  Machine* machine = nullptr;
  Pid pid = 0;
  AccessStream* stream = nullptr;
  RunConfig config;
};

// Optional per-run hooks for multi-host drivers (cold path; empty
// std::functions cost nothing on the access loop's scale).
struct RunHooks {
  // Checked before each step; returning false stops that app where it
  // stands (reported finished = false with its progress so far).
  std::function<bool(size_t app_index)> keep_running;
  // Fired for every access that went through the paging/VFS path (the
  // same set recorded into RunResult::remote_access_latency). `now` is
  // the app's local time after the access completed.
  std::function<void(size_t app_index, const AccessResult& access,
                     SimTimeNs now)>
      on_remote_access;
};

// A set of bound apps advanced by the global-time-ordered interleaving
// loop, exposed as a resumable stepper so callers can interleave app
// progress with other simulation work. RunBoundApps drives it to
// completion in one call; Cluster drives one set per shard in
// bounded time windows. The step sequence is a pure function of the specs
// and the window boundaries partitioning time - stepping to `t` in one
// call or in many produces bit-identical state.
class BoundAppSet {
 public:
  // "No runnable app" sentinel from NextStepTime (all-ones, sorts after
  // every real timestamp).
  static constexpr SimTimeNs kNoStep = ~SimTimeNs{0};

  explicit BoundAppSet(std::vector<BoundAppSpec> specs);

  // Advances apps in global-time order while the earliest live app's local
  // time is < `until`. Pass kNoStep to run everything to completion.
  void StepUntil(SimTimeNs until, const RunHooks& hooks = {});

  bool AllDone() const;
  // Earliest live app's local time (the time its next step begins), or
  // kNoStep when every app has finished.
  SimTimeNs NextStepTime() const;
  size_t size() const { return apps_.size(); }

  // Moves results out; the set is spent afterwards.
  std::vector<RunResult> TakeResults();

 private:
  struct AppState {
    BoundAppSpec spec;
    Rng rng{0};
    SimTimeNs local_time = 0;
    uint64_t accesses = 0;
    uint64_t ops = 0;
    bool done = false;
    RunResult result;
  };

  void Finish(AppState& app, bool finished);
  void Step(AppState& app, size_t index, const RunHooks& hooks);

  std::vector<AppState> apps_;
};

std::vector<RunResult> RunBoundApps(std::vector<BoundAppSpec> specs,
                                    const RunHooks& hooks = {});

}  // namespace leap

#endif  // LEAP_SRC_RUNTIME_APP_RUNNER_H_
