// End-to-end runs on small configurations: completion, throughput, and
// multi-app interleaving.
#include "src/runtime/app_runner.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/runtime/presets.h"
#include "src/workload/app_models.h"
#include "src/workload/patterns.h"

namespace leap {
namespace {

TEST(AppRunner, CompletesRequestedAccesses) {
  Machine machine(LeapVmmConfig(2048, 1));
  const Pid pid = machine.CreateProcess(512);
  SequentialStream stream(4096, 200);
  RunConfig config;
  config.total_accesses = 20000;
  const RunResult result = RunApp(machine, pid, stream, config);
  EXPECT_TRUE(result.finished);
  EXPECT_EQ(result.accesses, 20000u);
  EXPECT_GT(result.completion_ns, 0u);
  EXPECT_EQ(result.access_latency.count(), 20000u);
}

TEST(AppRunner, TimeCapMarksUnfinished) {
  Machine machine(DiskSwapConfig(Medium::kHdd, PrefetchKind::kReadAhead,
                                 1024, 2));
  const Pid pid = machine.CreateProcess(256);
  RandomStream stream(8192, 100);
  RunConfig config;
  config.total_accesses = 10'000'000;  // far more than the cap allows
  config.time_cap_ns = 50 * kNsPerMs;
  const RunResult result = RunApp(machine, pid, stream, config);
  EXPECT_FALSE(result.finished);
  EXPECT_LT(result.accesses, config.total_accesses);
}

TEST(AppRunner, OpsPerSecondComputed) {
  Machine machine(LeapVmmConfig(2048, 3));
  const Pid pid = machine.CreateProcess(0);
  SequentialStream stream(1024, 1000);
  RunConfig config;
  config.total_accesses = 5000;
  const RunResult result = RunApp(machine, pid, stream, config);
  EXPECT_GT(result.ops_per_sec, 0.0);
  EXPECT_EQ(result.app_ops, 5000u);
}

TEST(AppRunner, RemoteLatencyOnlyCountsNonResidentAccesses) {
  Machine machine(LeapVmmConfig(8192, 4));
  const Pid pid = machine.CreateProcess(0);  // everything fits
  SequentialStream stream(1024, 100);
  RunConfig config;
  config.total_accesses = 5000;
  const RunResult result = RunApp(machine, pid, stream, config);
  // No memory pressure: no remote accesses at all.
  EXPECT_EQ(result.remote_access_latency.count(), 0u);
}

TEST(AppRunner, ConcurrentAppsInterleaveOnSharedMachine) {
  Machine machine(LeapVmmConfig(4096, 5));
  const Pid a = machine.CreateProcess(256);
  const Pid b = machine.CreateProcess(256);
  auto wl_a = MakePowerGraph(2048, 10);
  auto wl_b = MakeMemcached(2048, 11);
  RunConfig config;
  config.total_accesses = 30000;
  std::vector<MultiAppSpec> specs = {{a, wl_a.get(), config},
                                     {b, wl_b.get(), config}};
  const auto results = RunAppsConcurrently(machine, std::move(specs));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].finished);
  EXPECT_TRUE(results[1].finished);
  EXPECT_EQ(results[0].accesses, 30000u);
  EXPECT_EQ(results[1].accesses, 30000u);
}

TEST(AppRunner, DeterministicAcrossRuns) {
  auto run_once = [] {
    Machine machine(LeapVmmConfig(2048, 7));
    const Pid pid = machine.CreateProcess(512);
    auto stream = MakeVoltDb(4096, 13);
    RunConfig config;
    config.total_accesses = 20000;
    config.seed = 21;
    return RunApp(machine, pid, *stream, config).completion_ns;
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- BoundAppSet step order ---------------------------------------------------

// Think times from {0, 1, 2} ns over a tiny footprint: equal local times are
// common, so most steps exercise the lowest-index tie-break. Every Next()
// logs the stream's id, which is the order apps were stepped in.
class TieStream : public AccessStream {
 public:
  static constexpr size_t kPages = 16;

  TieStream(size_t id, std::vector<size_t>* log) : id_(id), log_(log) {}

  MemOp Next(Rng& rng) override {
    log_->push_back(id_);
    MemOp op;
    op.vpn = rng.NextU64(kPages);
    op.write = rng.NextBool(0.25);
    op.think_ns = rng.NextU64(3);
    op.op_end = true;
    return op;
  }
  size_t footprint_pages() const override { return kPages; }
  std::string name() const override { return "tie"; }

 private:
  size_t id_;
  std::vector<size_t>* log_;
};

// 64 apps on one machine, with staggered lengths (so they finish at
// different times) and start times one or two ns apart.
struct TieWorld {
  static constexpr size_t kApps = 64;

  TieWorld() : machine(LeapVmmConfig(4096, 3)) {
    for (size_t i = 0; i < kApps; ++i) {
      pids.push_back(machine.CreateProcess(0));
      streams.push_back(std::make_unique<TieStream>(i, &log));
    }
  }

  RunConfig Config(size_t i) const {
    RunConfig config;
    config.total_accesses = 40 + 13 * (i % 5);
    config.start_time_ns = 1000 + i % 3;
    config.seed = 500 + i;
    return config;
  }

  std::vector<BoundAppSpec> Specs() {
    std::vector<BoundAppSpec> specs;
    for (size_t i = 0; i < kApps; ++i) {
      specs.push_back({&machine, pids[i], streams[i].get(), Config(i)});
    }
    return specs;
  }

  Machine machine;
  std::vector<Pid> pids;
  std::vector<std::unique_ptr<TieStream>> streams;
  std::vector<size_t> log;
};

// The interleaving loop as a plain linear scan: advance the live app with
// the smallest local time, lowest index first on ties. The reference the
// heap-ordered BoundAppSet must reproduce step for step.
class LinearScanApps {
 public:
  explicit LinearScanApps(TieWorld& world) : world_(world) {
    for (size_t i = 0; i < TieWorld::kApps; ++i) {
      const RunConfig config = world.Config(i);
      apps_.push_back({Rng(config.seed), config.start_time_ns, 0, false});
    }
  }

  void StepUntil(SimTimeNs until) {
    for (;;) {
      App* next = nullptr;
      size_t index = 0;
      bool tied = false;
      for (size_t i = 0; i < apps_.size(); ++i) {
        App& app = apps_[i];
        if (app.done) {
          continue;
        }
        if (next == nullptr || app.local_time < next->local_time) {
          next = &app;
          index = i;
          tied = false;
        } else if (app.local_time == next->local_time) {
          tied = true;
        }
      }
      if (next == nullptr || next->local_time >= until) {
        return;
      }
      tie_steps_ += tied ? 1 : 0;
      const MemOp op = world_.streams[index]->Next(next->rng);
      next->local_time += op.think_ns;
      next->local_time += world_.machine
                              .Access(world_.pids[index], op.vpn, op.write,
                                      next->local_time)
                              .latency;
      if (++next->accesses >= world_.Config(index).total_accesses) {
        next->done = true;
      }
    }
  }

  SimTimeNs NextStepTime() const {
    SimTimeNs earliest = BoundAppSet::kNoStep;
    for (const App& app : apps_) {
      if (!app.done && app.local_time < earliest) {
        earliest = app.local_time;
      }
    }
    return earliest;
  }
  bool AllDone() const { return NextStepTime() == BoundAppSet::kNoStep; }
  SimTimeNs CompletionNs(size_t i) const {
    return apps_[i].local_time - world_.Config(i).start_time_ns;
  }
  uint64_t tie_steps() const { return tie_steps_; }

 private:
  struct App {
    Rng rng;
    SimTimeNs local_time;
    uint64_t accesses;
    bool done;
  };

  TieWorld& world_;
  std::vector<App> apps_;
  uint64_t tie_steps_ = 0;
};

TEST(BoundAppSetOrder, HeapMatchesLinearScanIncludingTies) {
  TieWorld heap_world;
  TieWorld scan_world;
  BoundAppSet apps(heap_world.Specs());
  LinearScanApps reference(scan_world);
  apps.StepUntil(BoundAppSet::kNoStep);
  reference.StepUntil(BoundAppSet::kNoStep);

  ASSERT_GT(reference.tie_steps(), 0u) << "the stream must force ties";
  EXPECT_EQ(heap_world.log, scan_world.log);
  const std::vector<RunResult> results = apps.TakeResults();
  ASSERT_EQ(results.size(), TieWorld::kApps);
  for (size_t i = 0; i < TieWorld::kApps; ++i) {
    EXPECT_TRUE(results[i].finished);
    EXPECT_EQ(results[i].accesses, heap_world.Config(i).total_accesses);
    EXPECT_EQ(results[i].completion_ns, reference.CompletionNs(i)) << i;
  }
}

TEST(BoundAppSetOrder, ManyWindowsMatchOneCall) {
  TieWorld one_world;
  TieWorld split_world;
  BoundAppSet one(one_world.Specs());
  BoundAppSet split(split_world.Specs());
  one.StepUntil(BoundAppSet::kNoStep);
  for (SimTimeNs until = 0; !split.AllDone(); until += 5) {
    split.StepUntil(until);
    EXPECT_GE(split.NextStepTime(), until);
  }

  EXPECT_EQ(one_world.log, split_world.log);
  const std::vector<RunResult> a = one.TakeResults();
  const std::vector<RunResult> b = split.TakeResults();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].finished, b[i].finished);
    EXPECT_EQ(a[i].completion_ns, b[i].completion_ns);
    EXPECT_EQ(a[i].accesses, b[i].accesses);
    EXPECT_EQ(a[i].app_ops, b[i].app_ops);
    EXPECT_EQ(a[i].access_latency.count(), b[i].access_latency.count());
    EXPECT_EQ(a[i].access_latency.Sum(), b[i].access_latency.Sum());
    EXPECT_EQ(a[i].remote_access_latency.count(),
              b[i].remote_access_latency.count());
  }
}

TEST(BoundAppSetOrder, KeepRunningStopFinishesOnlyThatApp) {
  constexpr size_t kStopped = 5;
  constexpr size_t kStepsBeforeStop = 10;
  TieWorld world;
  BoundAppSet apps(world.Specs());
  std::vector<size_t> asked(TieWorld::kApps, 0);
  RunHooks hooks;
  hooks.keep_running = [&asked](size_t i) {
    return !(i == kStopped && asked[i]++ == kStepsBeforeStop);
  };
  apps.StepUntil(BoundAppSet::kNoStep, hooks);

  EXPECT_TRUE(apps.AllDone());
  // Asked once per step, then once more to stop - never again after.
  EXPECT_EQ(asked[kStopped], kStepsBeforeStop + 1);
  const std::vector<RunResult> results = apps.TakeResults();
  for (size_t i = 0; i < TieWorld::kApps; ++i) {
    if (i == kStopped) {
      EXPECT_FALSE(results[i].finished);
      EXPECT_EQ(results[i].accesses, kStepsBeforeStop);
    } else {
      EXPECT_TRUE(results[i].finished) << i;
      EXPECT_EQ(results[i].accesses, world.Config(i).total_accesses) << i;
    }
  }
}

TEST(BoundAppSetOrder, NextStepTimeAndAllDoneTrackFinishingApps) {
  TieWorld heap_world;
  TieWorld scan_world;
  BoundAppSet apps(heap_world.Specs());
  LinearScanApps reference(scan_world);
  EXPECT_FALSE(apps.AllDone());
  EXPECT_EQ(apps.NextStepTime(), reference.NextStepTime());

  size_t windows = 0;
  for (SimTimeNs until = 1000; !reference.AllDone(); until += 7) {
    apps.StepUntil(until);
    reference.StepUntil(until);
    ASSERT_EQ(apps.NextStepTime(), reference.NextStepTime()) << until;
    ASSERT_EQ(apps.AllDone(), reference.AllDone()) << until;
    ++windows;
  }
  EXPECT_GT(windows, TieWorld::kApps);  // apps finished across many windows
  EXPECT_TRUE(apps.AllDone());
  EXPECT_EQ(apps.NextStepTime(), BoundAppSet::kNoStep);
  EXPECT_EQ(heap_world.log, scan_world.log);

  BoundAppSet empty({});
  EXPECT_TRUE(empty.AllDone());
  EXPECT_EQ(empty.NextStepTime(), BoundAppSet::kNoStep);
}

}  // namespace
}  // namespace leap
