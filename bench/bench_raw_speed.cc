// Raw-speed campaign end-to-end gate: the PBFT 16-node YCSB macro run
// (ROADMAP's reference point for the message/crypto hot path), executed
// twice inside one binary — once with the legacy slow paths forced
// (scalar SHA-256, no hash memoization, per-message digest loops) and
// once with every optimization enabled. The two variants are the same
// simulation (identical virtual-time results; the bench asserts it), so
// the events/sec ratio isolates the wall-clock win on the machine that
// runs the bench. CI gates on that same-run ratio plus an absolute
// comparison against the committed seed baseline
// (bench/baselines/BENCH_SEED_pbft16_ycsb.json) via bbreport.
//
// --jobs is forced to 1: the legacy toggle is process-wide, and timing
// two variants concurrently would let them steal each other's cycles.
// A side effect worth keeping: output is trivially identical at any
// requested --jobs value.

#include "common.h"
#include "util/perf.h"

using namespace bb;
using namespace bb::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  args.jobs = 1;  // see header comment: variants must time in isolation
  double duration = args.full ? 60 : 30;

  auto opts = OptionsFor("hyperledger");
  if (!opts.ok()) return UsageError(argv[0], opts.status());

  MacroConfig cfg;
  cfg.options = *opts;
  cfg.servers = 16;
  cfg.clients = 16;
  cfg.rate = 100;
  cfg.duration = duration;
  cfg.drain = 15;
  cfg.warmup = 5;
  cfg.workload = WorkloadKind::kYcsb;
  cfg.seed = 7;

  SweepRunner runner("raw_speed", args);
  const char* variants[] = {"legacy", "optimized"};
  for (const char* v : variants) {
    SweepCase c;
    c.config = cfg;
    c.labels = {{"bench", "raw_speed"}, {"variant", v}};
    bool legacy = std::string(v) == "legacy";
    c.before = [legacy](MacroRun&) { perf::SetLegacyMode(legacy); };
    c.after = [](MacroRun&, const core::BenchReport&) {
      perf::SetLegacyMode(false);
    };
    runner.Add(std::move(c));
  }

  PrintHeader("Raw-speed campaign: PBFT 16-node YCSB, legacy vs optimized");
  std::printf("%10s | %10s %10s | %12s %14s\n", "variant", "tput tx/s",
              "committed", "sim events", "events/sec");
  uint64_t committed[2] = {0, 0};
  double events_per_sec[2] = {0, 0};
  bool ok = runner.Run([&](size_t i, const SweepOutcome& o) {
    if (!o.status.ok()) return;
    std::printf("%10s | %10.1f %10llu | %12llu %14.0f\n", variants[i],
                o.report.throughput, (unsigned long long)o.report.committed,
                (unsigned long long)o.events, o.events_per_sec);
    committed[i] = o.report.committed;
    events_per_sec[i] = o.events_per_sec;
  });
  if (!ok) return 1;

  // The toggle must not leak into simulated behaviour.
  if (committed[0] != committed[1]) {
    std::fprintf(stderr,
                 "FAIL: legacy and optimized variants diverged "
                 "(%llu vs %llu committed) — the perf toggle changed "
                 "simulated results\n",
                 (unsigned long long)committed[0],
                 (unsigned long long)committed[1]);
    return 1;
  }
  if (events_per_sec[0] > 0) {
    std::printf("\noptimized/legacy events-per-sec ratio: %.2fx\n",
                events_per_sec[1] / events_per_sec[0]);
  }

  // With --profile, attribute the win: same diff table bbreport --diff
  // prints for `--diff legacy.prof.json optimized.prof.json`, so every
  // raw-speed step can land with a profile-diff in the PR.
  if (runner.profiling()) {
    const obs::Profiler* legacy = runner.profiler(0);
    const obs::Profiler* optimized = runner.profiler(1);
    if (legacy != nullptr && optimized != nullptr) {
      PrintHeader("Wall-profile diff: legacy -> optimized");
      std::fputs(
          obs::RenderProfileDiff(legacy->ToJson(), optimized->ToJson())
              .c_str(),
          stdout);
      std::printf("\nprofiles written: %s / %s\n",
                  runner.ProfilePath(0).c_str(),
                  runner.ProfilePath(1).c_str());
    }
  }
  return 0;
}
