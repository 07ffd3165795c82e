// Flight recorder + stats sampler contracts:
//
//  1. Ring semantics: fixed capacity, oldest-first iteration, dropped
//     counter once full; a disabled recorder stores nothing.
//  2. Per-op stage telescoping: for every recorded fabric op,
//     software + queue + wire + stall + service == dur exactly (the
//     decomposition is a partition of the op's sojourn, not an estimate).
//  3. Aggregate identity: the StageBreakdown demand mean equals the
//     fabric's end-to-end demand sojourn mean.
//  4. Pure observation: the same seeded cluster run produces bit-identical
//     counters/histograms with tracing+sampling on and off.
//  5. The Chrome trace export is syntactically valid JSON and carries the
//     tracks the fig16 walkthrough relies on.
//  6. Sampler cadence and contents are deterministic across same-seed runs.
#include <cctype>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/stats_sampler.h"
#include "src/obs/trace_recorder.h"
#include "src/runtime/app_runner.h"
#include "src/runtime/cluster.h"
#include "src/runtime/presets.h"
#include "src/workload/patterns.h"

namespace leap {
namespace {

// --- 1. ring semantics ------------------------------------------------------

TraceEvent Ev(SimTimeNs ts, TraceEventKind kind = TraceEventKind::kFabricOp) {
  TraceEvent e;
  e.ts = ts;
  e.kind = kind;
  return e;
}

TEST(TraceRecorderTest, RingWrapsOldestFirstAndCountsDrops) {
  TraceRecorder rec({/*enabled=*/true, /*capacity=*/4});
  EXPECT_EQ(rec.capacity(), 4u);
  for (SimTimeNs ts = 1; ts <= 6; ++ts) {
    rec.Record(Ev(ts));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 2u);
  EXPECT_EQ(rec.recorded(), 6u);
  // Oldest-first: events 1 and 2 were overwritten.
  for (size_t i = 0; i < rec.size(); ++i) {
    EXPECT_EQ(rec.At(i).ts, static_cast<SimTimeNs>(3 + i));
  }
}

TEST(TraceRecorderTest, DisabledRecorderStoresNothing) {
  TraceRecorder rec({/*enabled=*/false, /*capacity=*/1024});
  EXPECT_FALSE(rec.enabled());
  EXPECT_EQ(rec.capacity(), 0u);  // no ring allocated at all
  rec.Record(Ev(1));
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.recorded(), 0u);
}

TEST(TraceRecorderTest, CountKind) {
  TraceRecorder rec({/*enabled=*/true, /*capacity=*/16});
  rec.Record(Ev(1, TraceEventKind::kFabricOp));
  rec.Record(Ev(2, TraceEventKind::kHedgeIssued));
  rec.Record(Ev(3, TraceEventKind::kHedgeIssued));
  EXPECT_EQ(rec.CountKind(TraceEventKind::kFabricOp), 1u);
  EXPECT_EQ(rec.CountKind(TraceEventKind::kHedgeIssued), 2u);
  EXPECT_EQ(rec.CountKind(TraceEventKind::kReadRetry), 0u);
}

// --- shared cluster fixture -------------------------------------------------

constexpr size_t kFootprint = 512;
constexpr size_t kAccesses = 3000;
constexpr uint32_t kGrayNode = 1;

ClusterConfig SmallConfig(bool trace_on, bool sampler_on) {
  ClusterConfig config;
  config.hosts = 2;
  config.nodes = 4;
  config.node_capacity_slabs = 1024;
  config.host = LeapVmmConfig(kFootprint, /*seed=*/42);
  config.host.host_agent.slab_pages = 64;
  config.seed = 7;
  // Mitigation + monitor on so hedges/reroutes/health transitions have a
  // chance to fire and land in the trace (smoke-style knobs).
  config.resilience.enabled = true;
  config.resilience.read_deadline_ns = 50 * kNsPerUs;
  config.resilience.hedge_floor_ns = 10 * kNsPerUs;
  config.resilience.retry_backoff_ns = 5 * kNsPerUs;
  config.resilience.max_read_retries = 3;
  config.health_monitor_enabled = true;
  config.health.min_samples = 16;
  config.health.ewma_alpha = 0.25;
  // The fixture is small (3000 accesses/host), so make the outlier
  // thresholds easy to cross: a 16x gray stretch must be detected well
  // before the run drains or the gray-track walkthrough has nothing to
  // point at.
  config.health.suspect_factor = 1.5;
  config.health.gray_factor = 2.5;
  config.health.clear_factor = 1.2;
  config.trace.enabled = trace_on;
  config.sampler.enabled = sampler_on;
  return config;
}

struct ClusterOutcome {
  std::map<std::string, uint64_t> counters;
  std::vector<SimTimeNs> completion;
  uint64_t miss_p50 = 0;
  uint64_t miss_p99 = 0;
  uint64_t miss_count = 0;
  double miss_sum = 0.0;

  bool operator==(const ClusterOutcome&) const = default;
};

// One deterministic 2-host run with a mid-run gray fault; returns the
// fingerprint and (optionally) the cluster for trace/sampler inspection.
ClusterOutcome RunSmall(const ClusterConfig& config,
                        std::unique_ptr<Cluster>* keep = nullptr) {
  auto cluster = std::make_unique<Cluster>(config);
  std::vector<std::unique_ptr<AccessStream>> streams;
  std::vector<ClusterAppSpec> specs;
  std::vector<Pid> pids;
  SimTimeNs warm_end = 0;
  for (size_t h = 0; h < config.hosts; ++h) {
    const Pid pid = cluster->host(h).CreateProcess(kFootprint / 2);
    pids.push_back(pid);
    warm_end = WarmUp(cluster->host(h), pid, kFootprint, warm_end);
    streams.push_back(
        std::make_unique<SequentialStream>(kFootprint, /*think_ns=*/300));
  }
  const SimTimeNs start = warm_end + kNsPerMs;
  cluster->ScheduleNodeGray(kGrayNode, 16.0, start + 2 * kNsPerMs);
  cluster->ScheduleNodeDelaySpike(0, 20 * kNsPerUs, start + 3 * kNsPerMs,
                                  start + 4 * kNsPerMs);
  for (size_t h = 0; h < config.hosts; ++h) {
    RunConfig run;
    run.total_accesses = kAccesses;
    run.start_time_ns = start;
    run.seed = 100 + h;
    specs.push_back({h, pids[h], streams[h].get(), run});
  }
  const auto results = cluster->Run(std::move(specs));

  ClusterOutcome out;
  Histogram merged;
  for (const RunResult& r : results) {
    out.completion.push_back(r.completion_ns);
    merged.Merge(r.miss_latency);
  }
  out.counters = cluster->Stats().totals.values();
  out.miss_p50 = merged.Percentile(0.5);
  out.miss_p99 = merged.Percentile(0.99);
  out.miss_count = merged.count();
  out.miss_sum = merged.Sum();
  if (keep != nullptr) {
    *keep = std::move(cluster);
  }
  return out;
}

// --- 2 + 3. stage attribution ----------------------------------------------

TEST(StageBreakdownTest, PerOpStagesTelescopeToDuration) {
  std::unique_ptr<Cluster> cluster;
  RunSmall(SmallConfig(/*trace_on=*/true, /*sampler_on=*/false), &cluster);
  const TraceRecorder* rec = cluster->trace();
  ASSERT_NE(rec, nullptr);
  ASSERT_GT(rec->CountKind(TraceEventKind::kFabricOp), 100u);
  for (size_t i = 0; i < rec->size(); ++i) {
    const TraceEvent& e = rec->At(i);
    if (e.kind != TraceEventKind::kFabricOp) {
      continue;
    }
    const uint64_t stage_sum = uint64_t{e.stage_software_ns} +
                               e.stage_queue_ns + e.stage_wire_ns +
                               e.stage_stall_ns + e.stage_service_ns;
    EXPECT_EQ(stage_sum, e.dur_ns)
        << "op " << i << " (" << IoClassName(e.cls) << ")";
  }
}

TEST(StageBreakdownTest, DemandStageMeanEqualsSojournMean) {
  std::unique_ptr<Cluster> cluster;
  RunSmall(SmallConfig(/*trace_on=*/false, /*sampler_on=*/false), &cluster);
  const ClusterStats stats = cluster->Stats();
  const size_t demand = static_cast<size_t>(IoClass::kDemandRead);
  const StageBreakdown::Stage& s = stats.stages.cls[demand];
  ASSERT_GT(s.ops, 0u);
  // The stage sums partition exactly the same ops the sojourn accounting
  // covers, so the means agree to double-rounding exactness.
  const double stage_mean =
      static_cast<double>(s.TotalNs()) / static_cast<double>(s.ops);
  EXPECT_NEAR(stage_mean, stats.class_sojourn_mean_ns[demand], 1e-6);
  // p99 attribution is populated for demand reads.
  EXPECT_GT(stats.stages.demand_p99_total_ns, 0u);
  EXPECT_GE(stats.stages.demand_p99_total_ns,
            stats.stages.demand_p99_service_ns);
}

// --- 4. pure observation ----------------------------------------------------

TEST(TraceRecorderTest, TracingAndSamplingDoNotPerturbTheRun) {
  const ClusterOutcome off =
      RunSmall(SmallConfig(/*trace_on=*/false, /*sampler_on=*/false));
  const ClusterOutcome on =
      RunSmall(SmallConfig(/*trace_on=*/true, /*sampler_on=*/true));
  EXPECT_EQ(off, on);
}

// --- 5. Chrome trace export -------------------------------------------------

// Minimal recursive-descent JSON syntax checker: enough to guarantee a
// JSON parser will accept the export (CI additionally runs it through
// python3 -m json.tool).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}
  bool Valid() {
    i_ = 0;
    SkipWs();
    const bool ok = Value();
    SkipWs();
    return ok && i_ == s_.size();
  }

 private:
  void SkipWs() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }
  bool Literal(const char* lit) {
    const size_t n = std::string(lit).size();
    if (s_.compare(i_, n, lit) != 0) {
      return false;
    }
    i_ += n;
    return true;
  }
  bool String() {
    if (s_[i_] != '"') {
      return false;
    }
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      i_ += s_[i_] == '\\' ? 2 : 1;
    }
    if (i_ >= s_.size()) {
      return false;
    }
    ++i_;  // closing quote
    return true;
  }
  bool Number() {
    const size_t begin = i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) != 0 ||
            s_[i_] == '-' || s_[i_] == '+' || s_[i_] == '.' ||
            s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
    }
    return i_ > begin;
  }
  bool Object() {
    ++i_;  // '{'
    SkipWs();
    if (i_ < s_.size() && s_[i_] == '}') {
      ++i_;
      return true;
    }
    while (i_ < s_.size()) {
      SkipWs();
      if (!String()) {
        return false;
      }
      SkipWs();
      if (i_ >= s_.size() || s_[i_] != ':') {
        return false;
      }
      ++i_;
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      break;
    }
    if (i_ >= s_.size() || s_[i_] != '}') {
      return false;
    }
    ++i_;
    return true;
  }
  bool Array() {
    ++i_;  // '['
    SkipWs();
    if (i_ < s_.size() && s_[i_] == ']') {
      ++i_;
      return true;
    }
    while (i_ < s_.size()) {
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      break;
    }
    if (i_ >= s_.size() || s_[i_] != ']') {
      return false;
    }
    ++i_;
    return true;
  }
  bool Value() {
    if (i_ >= s_.size()) {
      return false;
    }
    switch (s_[i_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  const std::string& s_;
  size_t i_ = 0;
};

TEST(ChromeTraceExportTest, ExportsValidJsonWithExpectedTracks) {
  std::unique_ptr<Cluster> cluster;
  RunSmall(SmallConfig(/*trace_on=*/true, /*sampler_on=*/false), &cluster);
  ASSERT_NE(cluster->trace(), nullptr);
  std::ostringstream out;
  cluster->trace()->ExportChromeTrace(out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json.substr(0, 400);
  // Track metadata and the fault/health story the walkthrough relies on.
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("\"gray_set\""), std::string::npos);
  EXPECT_NE(json.find("\"delay_spike\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"fabric\""), std::string::npos);
}

TEST(ChromeTraceExportTest, EmptyRecorderExportsValidJson) {
  TraceRecorder rec({/*enabled=*/true, /*capacity=*/16});
  std::ostringstream out;
  rec.ExportChromeTrace(out);
  EXPECT_TRUE(JsonChecker(out.str()).Valid()) << out.str();
}

// --- 6. sampler determinism -------------------------------------------------

TEST(StatsSamplerTest, CadenceAndContentsAreDeterministic) {
  std::unique_ptr<Cluster> c1;
  std::unique_ptr<Cluster> c2;
  RunSmall(SmallConfig(/*trace_on=*/false, /*sampler_on=*/true), &c1);
  RunSmall(SmallConfig(/*trace_on=*/false, /*sampler_on=*/true), &c2);
  ASSERT_NE(c1->sampler(), nullptr);
  ASSERT_NE(c2->sampler(), nullptr);
  const auto& s1 = c1->sampler()->samples();
  const auto& s2 = c2->sampler()->samples();
  ASSERT_GT(s1.size(), 10u);
  ASSERT_EQ(s1.size(), s2.size());
  const SimTimeNs period = kStatsSamplerPeriodNs;
  for (size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].ts, (i + 1) * period);  // exact cadence, no drift
    EXPECT_EQ(s1[i].ts, s2[i].ts);
    EXPECT_EQ(s1[i].window_demand_ops, s2[i].window_demand_ops);
    EXPECT_EQ(s1[i].window_demand_p99_ns, s2[i].window_demand_p99_ns);
    EXPECT_EQ(s1[i].node_state, s2[i].node_state);
    EXPECT_EQ(s1[i].host_free_frames, s2[i].host_free_frames);
    EXPECT_EQ(s1[i].host_cache_pages, s2[i].host_cache_pages);
    EXPECT_DOUBLE_EQ(s1[i].demand_queue_delay_ewma_ns,
                     s2[i].demand_queue_delay_ewma_ns);
  }
  // The JSONL writer emits one parseable object per line.
  std::ostringstream jsonl;
  c1->sampler()->WriteJsonl(jsonl);
  std::istringstream lines(jsonl.str());
  std::string line;
  size_t n = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(JsonChecker(line).Valid()) << line;
    ++n;
  }
  EXPECT_EQ(n, s1.size());
}

// The gray fault must actually have been detected in this fixture -
// otherwise the "gray_set -> gray span" walkthrough asserts on nothing.
TEST(StatsSamplerTest, GrayNodeShowsUpInTheTimeSeries) {
  std::unique_ptr<Cluster> cluster;
  RunSmall(SmallConfig(/*trace_on=*/false, /*sampler_on=*/true), &cluster);
  bool saw_gray = false;
  for (const StatsSample& s : cluster->sampler()->samples()) {
    if (s.node_state.size() > kGrayNode && s.node_state[kGrayNode] == 2) {
      saw_gray = true;
      break;
    }
  }
  EXPECT_TRUE(saw_gray);
}

}  // namespace
}  // namespace leap
