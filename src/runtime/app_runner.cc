#include "src/runtime/app_runner.h"

#include <algorithm>

namespace leap {

BoundAppSet::BoundAppSet(std::vector<BoundAppSpec> specs) {
  apps_.reserve(specs.size());
  for (const BoundAppSpec& spec : specs) {
    AppState state;
    state.spec = spec;
    state.rng = Rng(spec.config.seed);
    state.local_time = spec.config.start_time_ns;
    state.result.app_name = spec.stream->name();
    heap_.push_back({state.local_time, apps_.size()});
    apps_.push_back(std::move(state));
  }
  // A sorted array is a valid min-heap.
  std::sort(heap_.begin(), heap_.end());
}

void BoundAppSet::Finish(AppState& app, bool finished) {
  const SimTimeNs elapsed = app.local_time - app.spec.config.start_time_ns;
  app.result.finished = finished;
  app.result.completion_ns = elapsed;
  app.result.accesses = app.accesses;
  app.result.app_ops = app.ops;
  app.result.ops_per_sec =
      elapsed == 0 ? 0.0 : static_cast<double>(app.ops) / ToSec(elapsed);
}

bool BoundAppSet::Step(AppState& app, size_t index, const RunHooks& hooks) {
  Machine& machine = *app.spec.machine;
  const MemOp op = app.spec.stream->Next(app.rng);
  app.local_time += op.think_ns;
  const AccessResult access =
      machine.Access(app.spec.pid, op.vpn, op.write, app.local_time);
  app.local_time += access.latency;
  ++app.accesses;
  if (op.op_end) {
    ++app.ops;
  }

  app.result.access_latency.Record(access.latency);
  if (access.type != AccessType::kLocalHit &&
      access.type != AccessType::kMinorFault) {
    app.result.remote_access_latency.Record(access.latency);
    if (access.type == AccessType::kMiss) {
      app.result.miss_latency.Record(access.latency);
    }
    if (hooks.on_remote_access) {
      hooks.on_remote_access(index, access, app.local_time);
    }
  }

  const SimTimeNs elapsed = app.local_time - app.spec.config.start_time_ns;
  const bool capped = app.spec.config.time_cap_ns != 0 &&
                      elapsed > app.spec.config.time_cap_ns;
  if (app.accesses >= app.spec.config.total_accesses || capped) {
    Finish(app, /*finished=*/!capped);
    return true;
  }
  return false;
}

void BoundAppSet::PopTop() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    SiftDownTop();
  }
}

void BoundAppSet::SiftDownTop() {
  const size_t n = heap_.size();
  const HeapEntry moving = heap_[0];
  size_t i = 0;
  for (;;) {
    size_t child = 2 * i + 1;
    if (child >= n) {
      break;
    }
    if (child + 1 < n && heap_[child + 1] < heap_[child]) {
      ++child;
    }
    if (!(heap_[child] < moving)) {
      break;
    }
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = moving;
}

void BoundAppSet::StepUntil(SimTimeNs until, const RunHooks& hooks) {
  // Global-time-ordered interleaving: always advance the app whose next
  // access happens earliest (lowest index on ties). Shared state (NIC
  // queues, devices, frame pools, a cluster's fabric and event queue) then
  // observes a single near-non-decreasing timeline - the contention model
  // and the determinism guarantee at once. Only the stepped app's time
  // moves, so the heap is repaired from the top alone.
  while (!heap_.empty() && heap_.front().time < until) {
    const size_t index = heap_.front().index;
    AppState& app = apps_[index];
    if (hooks.keep_running && !hooks.keep_running(index)) {
      Finish(app, /*finished=*/false);
      PopTop();
      continue;
    }
    if (Step(app, index, hooks)) {
      PopTop();
    } else {
      heap_.front().time = app.local_time;
      SiftDownTop();
    }
  }
}

std::vector<RunResult> BoundAppSet::TakeResults() {
  std::vector<RunResult> results;
  results.reserve(apps_.size());
  for (AppState& app : apps_) {
    results.push_back(std::move(app.result));
  }
  return results;
}

RunResult RunApp(Machine& machine, Pid pid, AccessStream& stream,
                 const RunConfig& config) {
  std::vector<BoundAppSpec> specs = {{&machine, pid, &stream, config}};
  return RunBoundApps(std::move(specs))[0];
}

SimTimeNs WarmUp(Machine& machine, Pid pid, size_t pages, SimTimeNs start) {
  SimTimeNs now = start;
  for (Vpn v = 0; v < pages; ++v) {
    now += 150;  // allocation/copy think time
    now += machine.Access(pid, v, /*write=*/true, now).latency;
  }
  return now;
}

std::vector<RunResult> RunAppsConcurrently(Machine& machine,
                                           std::vector<MultiAppSpec> specs) {
  std::vector<BoundAppSpec> bound;
  bound.reserve(specs.size());
  for (const MultiAppSpec& spec : specs) {
    bound.push_back({&machine, spec.pid, spec.stream, spec.config});
  }
  return RunBoundApps(std::move(bound));
}

std::vector<RunResult> RunBoundApps(std::vector<BoundAppSpec> specs,
                                    const RunHooks& hooks) {
  BoundAppSet apps(std::move(specs));
  apps.StepUntil(BoundAppSet::kNoStep, hooks);
  return apps.TakeResults();
}

}  // namespace leap
