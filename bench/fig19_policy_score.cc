// Figure 19 (this repo's extension): policy scoring on the paper's own
// axes - accuracy (prefetch hits / issued, Figure 10a), coverage
// (prefetch hits / page faults), timeliness (insert -> first hit,
// Figure 10b), and wasted-prefetch ratio (unused evictions / issued) -
// for every policy in the registry, across four canonical patterns:
//   sequential        the paper's best case
//   strided           Stride-10 (section 5.1)
//   scrambled-zipf    hot set scattered across the address space - the
//                     irregular pattern where the learned policy's
//                     confidence gating should beat blind lookahead
//   interleaved       two tenants (sequential + scrambled-zipf) on one
//                     machine, faults interleaved in global time order
//
// ProfileGuidedPolicy is trained per pattern: a recording run (no
// prefetching) captures the fault trace through Machine::SetFaultTraceSink,
// BuildProfile turns it into per-region stride/distance hints, and the
// scored run replays those hints - the 3PO profile->replay loop end to end.
//
// The JSON carries a "criteria" block with the two headline comparisons
// (learned vs next-n-line accuracy on scrambled-zipf; profile-guided vs
// Leap coverage on strided). All values are functions of counters and
// simulated time only - no wall clock - so reruns are byte-identical.
//
// Exits 1 when either criterion fails.
//
// Usage: fig19_policy_score [--smoke] [output.json]
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/prefetch/profile_pass.h"
#include "src/stats/table.h"

namespace leap {
namespace {

constexpr uint64_t kSeed = 61;

struct BenchGeometry {
  size_t footprint_pages = 16 * 1024;
  size_t accesses = 100'000;
  size_t total_frames = bench::kMicroFrames;
};

BenchGeometry FullGeometry() { return {}; }
BenchGeometry SmokeGeometry() { return {2048, 12'000, bench::kMicroFrames}; }

enum class Pattern { kSequential, kStrided, kScrambledZipf, kInterleaved };

constexpr Pattern kPatterns[] = {Pattern::kSequential, Pattern::kStrided,
                                 Pattern::kScrambledZipf,
                                 Pattern::kInterleaved};

const char* PatternName(Pattern p) {
  switch (p) {
    case Pattern::kSequential:
      return "sequential";
    case Pattern::kStrided:
      return "strided";
    case Pattern::kScrambledZipf:
      return "scrambled-zipf";
    case Pattern::kInterleaved:
      return "interleaved";
  }
  return "?";
}

std::unique_ptr<AccessStream> MakeStream(Pattern p, size_t footprint) {
  switch (p) {
    case Pattern::kSequential:
      return std::make_unique<SequentialStream>(footprint, 750);
    case Pattern::kStrided:
      return std::make_unique<StrideStream>(footprint, 10, 750);
    case Pattern::kScrambledZipf:
    case Pattern::kInterleaved:  // the zipf leg; sequential leg added below
      return std::make_unique<ScrambledZipfStream>(footprint, 0.99, 750);
  }
  return nullptr;
}

struct PolicyScore {
  std::string policy;
  double accuracy_pct = 0.0;
  double coverage_pct = 0.0;
  SimTimeNs timeliness_p50_ns = 0;
  SimTimeNs timeliness_p99_ns = 0;
  double wasted_ratio = 0.0;
  uint64_t issued = 0;
  uint64_t hits = 0;
  uint64_t faults = 0;
};

struct PatternScores {
  std::string pattern;
  std::vector<PolicyScore> policies;

  const PolicyScore* Find(std::string_view policy) const {
    for (const PolicyScore& s : policies) {
      if (s.policy == policy) return &s;
    }
    return nullptr;
  }
};

// Runs `pattern` on one machine with `config`, optionally recording the
// fault trace. Interleaved runs two tenants concurrently.
void RunPattern(Machine& machine, Pattern pattern, const BenchGeometry& geo) {
  if (pattern == Pattern::kInterleaved) {
    const Pid seq_pid = machine.CreateProcess(geo.footprint_pages / 2);
    const Pid zipf_pid = machine.CreateProcess(geo.footprint_pages / 2);
    const SimTimeNs warm1 = WarmUp(machine, seq_pid, geo.footprint_pages);
    const SimTimeNs warm2 =
        WarmUp(machine, zipf_pid, geo.footprint_pages, warm1);
    SequentialStream seq(geo.footprint_pages, 750);
    ScrambledZipfStream zipf(geo.footprint_pages, 0.99, 750);
    RunConfig run;
    run.total_accesses = geo.accesses;
    run.start_time_ns = warm2 + 10 * kNsPerMs;
    RunConfig run2 = run;
    run2.seed = 8;
    RunAppsConcurrently(machine,
                        {{seq_pid, &seq, run}, {zipf_pid, &zipf, run2}});
    return;
  }
  const Pid pid = machine.CreateProcess(geo.footprint_pages / 2);
  const SimTimeNs warm_end = WarmUp(machine, pid, geo.footprint_pages);
  auto stream = MakeStream(pattern, geo.footprint_pages);
  RunConfig run;
  run.total_accesses = geo.accesses;
  run.start_time_ns = warm_end + 10 * kNsPerMs;
  RunApp(machine, pid, *stream, run);
}

// Recording pass: the default machine (read-ahead prefetcher - profile
// the deployed configuration, as a real profile-guided pass would) with
// the fault trace captured. Recording under an active prefetcher matters:
// prefetch hits are policy-visible events, so the trace approximates the
// full cold-access stream in slot space instead of the miss residue.
PrefetchProfile TrainProfile(Pattern pattern, const BenchGeometry& geo) {
  MachineConfig config =
      DefaultVmmConfig(PrefetchKind::kReadAhead, geo.total_frames, kSeed);
  Machine machine(config);
  FaultTrace trace;
  machine.SetFaultTraceSink(&trace);
  RunPattern(machine, pattern, geo);
  machine.SetFaultTraceSink(nullptr);
  return BuildProfile(trace);
}

PolicyScore ScoreOne(Pattern pattern, PrefetchKind kind,
                     const PrefetchProfile& profile,
                     const BenchGeometry& geo) {
  MachineConfig config = DefaultVmmConfig(kind, geo.total_frames, kSeed);
  if (kind == PrefetchKind::kProfileGuided) {
    config.profile_guided.profile = profile;
  }
  Machine machine(config);
  RunPattern(machine, pattern, geo);

  const Counters& c = machine.counters();
  PolicyScore s;
  s.policy = PrefetchKindName(kind);
  s.accuracy_pct =
      100.0 * c.Ratio(counter::kPrefetchHits, counter::kPrefetchIssued);
  s.coverage_pct =
      100.0 * c.Ratio(counter::kPrefetchHits, counter::kPageFaults);
  s.timeliness_p50_ns = machine.timeliness_hist().Percentile(0.5);
  s.timeliness_p99_ns = machine.timeliness_hist().Percentile(0.99);
  s.wasted_ratio = c.Ratio(counter::kPrefetchUnused, counter::kPrefetchIssued);
  s.issued = c.Get(counter::kPrefetchIssued);
  s.hits = c.Get(counter::kPrefetchHits);
  s.faults = c.Get(counter::kPageFaults);
  return s;
}

struct Criteria {
  double online_delta_accuracy = 0.0;
  double next_n_line_accuracy = 0.0;
  bool online_delta_beats_next_n_line = false;
  double profile_guided_coverage = 0.0;
  double leap_coverage = 0.0;
  bool profile_guided_approaches_leap = false;
};

Criteria EvaluateCriteria(const std::vector<PatternScores>& all) {
  Criteria crit;
  for (const PatternScores& ps : all) {
    if (ps.pattern == "scrambled-zipf") {
      const PolicyScore* od = ps.Find("online-delta");
      const PolicyScore* nn = ps.Find("next-n-line");
      if (od != nullptr && nn != nullptr) {
        crit.online_delta_accuracy = od->accuracy_pct;
        crit.next_n_line_accuracy = nn->accuracy_pct;
        crit.online_delta_beats_next_n_line =
            od->accuracy_pct > nn->accuracy_pct;
      }
    } else if (ps.pattern == "strided") {
      const PolicyScore* pg = ps.Find("profile-guided");
      const PolicyScore* lp = ps.Find("leap");
      if (pg != nullptr && lp != nullptr) {
        crit.profile_guided_coverage = pg->coverage_pct;
        crit.leap_coverage = lp->coverage_pct;
        crit.profile_guided_approaches_leap =
            pg->coverage_pct >= 0.9 * lp->coverage_pct;
      }
    }
  }
  return crit;
}

bool WriteJson(const std::string& path, const std::vector<PatternScores>& all,
               const Criteria& crit, const BenchGeometry& geo, bool smoke) {
  bench::BenchRunInfo info;
  info.bench = "fig19_policy_score";
  info.seed = kSeed;
  info.hosts = 1;
  info.nodes = 2;
  bench::JsonObject doc = bench::BenchJson(smoke, info);
  doc.Obj("geometry", bench::JsonObject()
                          .Int("footprint_pages", geo.footprint_pages)
                          .Int("accesses", geo.accesses)
                          .Int("total_frames", geo.total_frames));
  bench::JsonObject patterns;
  for (const PatternScores& ps : all) {
    bench::JsonObject policies;
    for (const PolicyScore& s : ps.policies) {
      policies.Obj(s.policy, bench::JsonObject()
                                 .Num("accuracy_pct", s.accuracy_pct, 4)
                                 .Num("coverage_pct", s.coverage_pct, 4)
                                 .Int("timeliness_p50_ns", s.timeliness_p50_ns)
                                 .Int("timeliness_p99_ns", s.timeliness_p99_ns)
                                 .Num("wasted_ratio", s.wasted_ratio, 4)
                                 .Int("issued", s.issued)
                                 .Int("hits", s.hits)
                                 .Int("faults", s.faults));
    }
    patterns.Raw(ps.pattern, policies.Block(2));
  }
  doc.Raw("patterns", patterns.Block(1))
      .Raw("criteria",
           bench::JsonObject()
               .Num("online_delta_accuracy_scrambled_zipf",
                    crit.online_delta_accuracy, 4)
               .Num("next_n_line_accuracy_scrambled_zipf",
                    crit.next_n_line_accuracy, 4)
               .Bool("online_delta_beats_next_n_line",
                     crit.online_delta_beats_next_n_line)
               .Num("profile_guided_coverage_strided",
                    crit.profile_guided_coverage, 4)
               .Num("leap_coverage_strided", crit.leap_coverage, 4)
               .Bool("profile_guided_ge_0.9x_leap",
                     crit.profile_guided_approaches_leap)
               .Block(1));
  return bench::WriteJsonFile(path, doc);
}

int Run(const bench::BenchArgs& args) {
  const BenchGeometry geo = args.smoke ? SmokeGeometry() : FullGeometry();
  bench::PrintHeader(
      "Figure 19 - per-policy accuracy / coverage / timeliness / waste "
      "across sequential, strided, scrambled-zipf, interleaved",
      "section 5 metrics: accuracy = hits/issued (fig 10a), coverage = "
      "hits/faults, timeliness = insert->first-hit (fig 10b)");

  std::vector<PatternScores> all;
  for (Pattern pattern : kPatterns) {
    PatternScores ps;
    ps.pattern = PatternName(pattern);
    // Offline profile for this pattern (3PO loop: record -> profile ->
    // replay). The recording run shares the scored runs' geometry + seed.
    const PrefetchProfile profile = TrainProfile(pattern, geo);
    std::printf("\n--- pattern %s (profile: %zu region hints) ---\n",
                ps.pattern.c_str(), profile.hints.size());

    TextTable table;
    table.SetHeader({"policy", "accuracy(%)", "coverage(%)", "p50 t(us)",
                     "p99 t(us)", "wasted", "issued"});
    for (PrefetchKind kind : kAllPrefetchKinds) {
      PolicyScore s = ScoreOne(pattern, kind, profile, geo);
      char acc[32], cov[32], t50[32], t99[32], waste[32], issued[32];
      std::snprintf(acc, sizeof(acc), "%.1f", s.accuracy_pct);
      std::snprintf(cov, sizeof(cov), "%.1f", s.coverage_pct);
      std::snprintf(t50, sizeof(t50), "%.1f", ToUs(s.timeliness_p50_ns));
      std::snprintf(t99, sizeof(t99), "%.1f", ToUs(s.timeliness_p99_ns));
      std::snprintf(waste, sizeof(waste), "%.3f", s.wasted_ratio);
      std::snprintf(issued, sizeof(issued), "%llu",
                    static_cast<unsigned long long>(s.issued));
      table.AddRow({s.policy, acc, cov, t50, t99, waste, issued});
      ps.policies.push_back(std::move(s));
    }
    std::printf("%s\n", table.Render().c_str());
    all.push_back(std::move(ps));
  }

  const Criteria crit = EvaluateCriteria(all);
  std::printf(
      "\ncriteria: online-delta accuracy %.1f%% vs next-n-line %.1f%% on "
      "scrambled-zipf -> %s; profile-guided coverage %.1f%% vs leap %.1f%% "
      "on strided -> %s\n",
      crit.online_delta_accuracy, crit.next_n_line_accuracy,
      crit.online_delta_beats_next_n_line ? "PASS" : "FAIL",
      crit.profile_guided_coverage, crit.leap_coverage,
      crit.profile_guided_approaches_leap ? "PASS" : "FAIL");

  const bool written = WriteJson(args.json_path, all, crit, geo, args.smoke);
  const bool passed = crit.online_delta_beats_next_n_line &&
                      crit.profile_guided_approaches_leap;
  return written && passed ? 0 : 1;
}

}  // namespace
}  // namespace leap

int main(int argc, char** argv) {
  return leap::Run(
      leap::bench::ParseBenchArgs(argc, argv, "BENCH_policy.json"));
}
