// e2ebench_rep: one repetition of one end-to-end benchmark workload, in a
// process of its own. run.py starts it several times per measured run and
// averages the middle half of the repetitions; each process's getrusage
// peak RSS then belongs to exactly one workload.
//
//   e2ebench_rep --workload=pbft16-donothing --seed=7 [--trace]
//
// Every phase is timed around the program's public calls:
//   setup     Simulation construction .. Driver construction
//             (platform.build = MakePlatform, workloads.setup =
//             WorkloadConnector::Setup: deploy, preload, FinalizeGenesis)
//   run       Driver::Run (offered load plus drain)
//   teardown  destroy driver, workload, platform (platform.destroy),
//             simulation
// Exact per-layer counts come from post-run calls (events_executed,
// Platform::ExportMetrics, Driver::Report). With --trace the process also
// attaches obs::Profiler (over setup and run, as `bbench --profile` does)
// and obs::MemTracker (before the platform is built, as `bbench --mem`
// does) and reports their rollups. Untraced processes attach nothing.
//
// `e2ebench_rep --reference` instead times a fixed host-speed probe that
// shares no code with the program (see HostReference).
//
// Correctness: the ledger audit must find no violation and at least one
// transaction must commit; otherwise the process exits 1 and prints no
// result. Output: one JSON object on stdout. Exit 2 on a usage error.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/driver.h"
#include "obs/auditor.h"
#include "obs/memtrack.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "platform/forensics.h"
#include "platform/platform.h"
#include "platform/registry.h"
#include "util/json.h"
#include "workloads/donothing.h"
#include "workloads/smallbank.h"
#include "workloads/ycsb.h"

using namespace bb;

namespace {

// The three workloads. The network is the simulator default for all of
// them (1 ms one-way base latency plus jitter, 1 Gb/s links, no injected
// delay, no faults); 8 open-loop clients at a fixed per-client rate.
// NOTES.md records why each was chosen.
struct WorkloadSpec {
  const char* name;
  const char* platform;  // registry name
  size_t servers;
  const char* workload;  // donothing | ycsb | smallbank
  double rate;           // tx/s per client
  double duration;       // virtual seconds of offered load
  double drain;          // virtual seconds after load for commits to land
};

constexpr size_t kClients = 8;
constexpr double kClientStart = 1.0;

constexpr WorkloadSpec kWorkloads[] = {
    {"pbft16-donothing", "hyperledger", 16, "donothing", 100, 40, 5},
    {"parity4-genesis", "parity", 4, "ycsb", 1, 120, 10},
    {"tm4-smallbank", "erisdb", 4, "smallbank", 100, 10, 5},
};

double Since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::unique_ptr<core::WorkloadConnector> MakeWorkload(const std::string& w) {
  // Default configs: YCSB preloads 20k records and Smallbank 10k accounts,
  // both from RNGs fixed inside the workloads, so genesis work does not
  // depend on the seed.
  if (w == "ycsb") return std::make_unique<workloads::YcsbWorkload>();
  if (w == "smallbank") return std::make_unique<workloads::SmallbankWorkload>();
  return std::make_unique<workloads::DoNothingWorkload>();
}

/// Sums every instrument called `name` over all nodes (counters and
/// gauges alike); `max` takes the largest per-node value instead.
double Aggregate(const util::Json& metrics, const char* name,
                 bool max = false) {
  double out = 0;
  for (const util::Json& m : metrics.items()) {
    const util::Json* n = m.Get("name");
    const util::Json* v = m.Get("value");
    if (n == nullptr || v == nullptr || n->AsString() != name) continue;
    out = max ? std::max(out, v->AsDouble()) : out + v->AsDouble();
  }
  return out;
}

/// Inclusive seconds of the outermost profiler scopes named `leaf` whose
/// path starts with `prefix` (nested repeats are not double counted).
double ScopeSeconds(const util::Json& profile, const std::string& prefix,
                    const std::string& leaf) {
  double out = 0;
  const util::Json* scopes = profile.Get("scopes");
  if (scopes == nullptr) return 0;
  for (const util::Json& s : scopes->items()) {
    const std::string& path = s.Get("path")->AsString();
    if (path.rfind(prefix, 0) != 0) continue;
    size_t first = path.find(leaf);
    if (first == std::string::npos || first + leaf.size() != path.size() ||
        (first > 0 && path[first - 1] != '/')) {
      continue;
    }
    out += s.Get("total_seconds")->AsDouble();
  }
  return out;
}

double SubsystemSelf(const obs::Profiler& p, obs::prof::Subsystem s) {
  return double(p.subsystem_self_ns(s)) * 1e-9;
}

/// Host-speed probe for run.py's normalisation: fixed work that shares no
/// code with the program, timed in wall seconds. A dependent pointer chase
/// through 64 MiB (memory latency, like freeing and rebuilding large
/// states) and an integer mixing loop (core speed, like event dispatch).
/// It runs in a process of its own so it neither warms the allocator nor
/// raises a workload's peak RSS.
int HostReference() {
  auto t0 = std::chrono::steady_clock::now();
  constexpr uint64_t kSlots = (64u << 20) / sizeof(uint32_t);
  std::vector<uint32_t> next(kSlots);
  // A full-period LCG modulo 2^k visits every slot once in an order no
  // prefetcher follows.
  for (uint64_t i = 0; i < kSlots; ++i) {
    next[i] = uint32_t((i * 2862933555777941757ull + 3037000493ull) %
                       kSlots);
  }
  uint32_t at = 0;
  for (int i = 0; i < (1 << 19); ++i) at = next[at];
  uint64_t acc = at;
  for (int i = 0; i < (20 << 20); ++i) {
    acc = acc * 0x9e3779b97f4a7c15ull + (acc >> 29);
  }
  // Printing a byte of the result keeps the compiler from dropping the
  // loops.
  std::printf("{\"host_ref_s\": %.9f, \"check\": %llu}\n", Since(t0),
              (unsigned long long)(acc & 0xff));
  return 0;
}

constexpr double kMiB = 1024.0 * 1024.0;

int Usage() {
  std::fprintf(stderr,
               "usage: e2ebench_rep --workload=NAME --seed=N [--trace]\n"
               "       e2ebench_rep --reference\n"
               "workloads:");
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  bool have_seed = false;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--workload=", 0) == 0) {
      std::string name = a.substr(sizeof("--workload=") - 1);
      for (const WorkloadSpec& w : kWorkloads) {
        if (name == w.name) spec = &w;
      }
      if (spec == nullptr) return Usage();
    } else if (a.rfind("--seed=", 0) == 0) {
      char* end = nullptr;
      const char* v = argv[i] + sizeof("--seed=") - 1;
      seed = std::strtoull(v, &end, 10);
      have_seed = *v != '\0' && *end == '\0';
      if (!have_seed) return Usage();
    } else if (a == "--trace") {
      traced = true;
    } else if (a == "--reference") {
      return HostReference();
    } else {
      return Usage();
    }
  }
  if (spec == nullptr || !have_seed) return Usage();

  auto options = platform::StackOptionsFromString(spec->platform);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n", options.status().ToString().c_str());
    return 1;
  }

  // Observers outlive everything they watch. Untraced: both stay null.
  std::unique_ptr<obs::MemTracker> memtracker;
  std::unique_ptr<obs::Profiler> profiler;
  std::unique_ptr<obs::Profiler::ThreadScope> prof_scope;
  if (traced) {
    memtracker = std::make_unique<obs::MemTracker>();
    profiler = std::make_unique<obs::Profiler>();
    prof_scope = std::make_unique<obs::Profiler::ThreadScope>(profiler.get());
  }

  // --- setup ---------------------------------------------------------------
  // One seed drives the Simulation, the Platform and the Driver.
  auto t_setup = std::chrono::steady_clock::now();
  auto sim = std::make_unique<sim::Simulation>(seed);
  if (memtracker != nullptr) sim->set_memtracker(memtracker.get());
  auto t_build = std::chrono::steady_clock::now();
  // The setup scopes' prefix is no profiler subsystem, so setup work that
  // no inner scope claims lands in "other", not in the driver's self time.
  std::unique_ptr<platform::Platform> chain = [&] {
    BB_PROF_SCOPE("setup.platform");
    return platform::MakePlatform(sim.get(), *options, spec->servers, seed);
  }();
  double build_s = Since(t_build);
  auto t_wl = std::chrono::steady_clock::now();
  std::unique_ptr<core::WorkloadConnector> workload =
      MakeWorkload(spec->workload);
  Status st = [&] {
    BB_PROF_SCOPE("setup.workload");
    return workload->Setup(chain.get());
  }();
  double wl_setup_s = Since(t_wl);
  if (!st.ok()) {
    std::fprintf(stderr, "workload setup failed: %s\n", st.ToString().c_str());
    return 1;
  }
  core::DriverConfig dc;
  dc.num_clients = kClients;
  dc.request_rate = spec->rate;
  dc.duration = spec->duration;
  dc.drain = spec->drain;
  dc.warmup = 0;  // the virtual-time report covers the whole offered load
  dc.seed = seed;
  // Load starts at virtual t = kClientStart, not 0: Parity's admission
  // token bucket (10 tx/s per server) fills from t = 0, so a request
  // arriving in its first 0.1 s would be rejected and counted as failed.
  sim->RunUntil(kClientStart);
  auto driver = std::make_unique<core::Driver>(chain.get(), workload.get(), dc);
  double setup_s = Since(t_setup);

  // --- run -----------------------------------------------------------------
  auto t_run = std::chrono::steady_clock::now();
  driver->Run();
  double run_s = Since(t_run);
  if (profiler != nullptr) {
    profiler->set_events(sim->events_executed());
    profiler->Stop();
    prof_scope.reset();  // detach and merge before reading the rollups
  }

  // --- harvest (untimed) ---------------------------------------------------
  core::BenchReport report = driver->Report();
  obs::AuditorConfig ac;
  ac.confirmation_depth = chain->options().confirmation_depth;
  ac.end_time = kClientStart + spec->duration + spec->drain;
  obs::AuditReport audit = platform::RunAudit(*chain, ac);
  if (!audit.ok()) {
    std::fprintf(stderr, "ledger audit failed: %s: %s\n",
                 audit.violations.front().invariant.c_str(),
                 audit.violations.front().detail.c_str());
    return 1;
  }
  if (report.committed == 0) {
    std::fprintf(stderr, "no transaction committed\n");
    return 1;
  }
  obs::MetricsRegistry reg;
  chain->ExportMetrics(&reg);
  util::Json m = reg.ToJson();
  util::Json out = util::Json::Object();
  out.Set("workload", spec->name);
  out.Set("seed", seed);
  out.Set("traced", traced);

  // Simulated output: identical for one seed whatever the wall clock does,
  // and unchanged by any optimisation that keeps behaviour byte-identical.
  util::Json digest = util::Json::Object();
  digest.Set("submitted", report.submitted);
  digest.Set("committed", report.committed);
  digest.Set("latency_p50", report.latency_p50);
  digest.Set("latency_p99", report.latency_p99);
  digest.Set("head", chain->node(0).chain().head().ToHex());
  digest.Set("state_root", chain->node(0).state().current_root().ToHex());
  out.Set("digest", std::move(digest));

  util::Json counts = util::Json::Object();
  counts.Set("sim.events", sim->events_executed());
  counts.Set("sim.msgs", Aggregate(m, "net.messages_sent"));
  counts.Set("sim.msg_bytes", Aggregate(m, "net.bytes_sent"));
  counts.Set("consensus.blocks", chain->CanonicalBlocks());
  // Failed rounds: Tendermint rounds that ended without a block plus PBFT
  // view changes (PoA has neither).
  counts.Set("consensus.rounds_failed",
             Aggregate(m, "consensus.rounds_failed") +
                 Aggregate(m, "consensus.view_changes"));
  counts.Set("chain.pool_peak", Aggregate(m, "pool.peak", /*max=*/true));
  double hits = Aggregate(m, "state.trie_cache_hits");
  double misses = Aggregate(m, "state.trie_cache_misses");
  counts.Set("storage.node_writes", Aggregate(m, "state.trie_node_writes"));
  counts.Set("storage.node_reads", Aggregate(m, "state.trie_node_reads"));
  counts.Set("storage.cache_hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0.0);
  counts.Set("storage.bytes_written",
             Aggregate(m, "state.trie_bytes_written"));
  counts.Set("storage.state_bytes", Aggregate(m, "state.storage_bytes"));
  counts.Set("vm.txs_executed", Aggregate(m, "txs.executed"));
  counts.Set("vm.txs_failed", Aggregate(m, "txs.failed"));
  out.Set("counts", std::move(counts));

  if (profiler != nullptr) {
    util::Json p = profiler->ToJson();
    util::Json layers = util::Json::Object();
    layers.Set("sim.self_s", SubsystemSelf(*profiler, obs::prof::kSimKernel));
    layers.Set("sim.serialize_s",
               SubsystemSelf(*profiler, obs::prof::kSerialization));
    const util::Json* ser = p.Get("subsystems")->Get("serialization");
    layers.Set("sim.serialize_allocs",
               ser != nullptr && ser->Get("alloc_count") != nullptr
                   ? ser->Get("alloc_count")->AsDouble()
                   : 0.0);
    layers.Set("consensus.self_s", SubsystemSelf(*profiler, obs::prof::kConsensus));
    layers.Set("platform.gossip_admit_s",
               ScopeSeconds(p, "", "driver.gossip_admit"));
    layers.Set("storage.genesis_commit_s",
               ScopeSeconds(p, "setup.", "storage.trie_commit") +
                   ScopeSeconds(p, "setup.", "storage.bucket_commit"));
    layers.Set("storage.block_commit_s",
               ScopeSeconds(p, "driver.run/", "storage.trie_commit") +
                   ScopeSeconds(p, "driver.run/", "storage.bucket_commit"));
    layers.Set("util.hash_s", SubsystemSelf(*profiler, obs::prof::kHashing));
    layers.Set("vm.execute_s", ScopeSeconds(p, "", "vm.execute_tx"));
    layers.Set("core.self_s", SubsystemSelf(*profiler, obs::prof::kDriver));
    uint64_t storage_peak = 0;
    for (uint32_t n = 0; n < chain->num_servers(); ++n) {
      storage_peak += memtracker->peak(n, obs::mem::kStorageState);
    }
    layers.Set("mem.storage_peak_mb", double(storage_peak) / kMiB);
    layers.Set("mem.cluster_peak_mb",
               double(memtracker->cluster().peak) / kMiB);
    out.Set("layers", std::move(layers));
  }

  // --- teardown ------------------------------------------------------------
  auto t_down = std::chrono::steady_clock::now();
  driver.reset();
  workload.reset();
  auto t_destroy = std::chrono::steady_clock::now();
  chain.reset();
  double destroy_s = Since(t_destroy);
  sim.reset();
  double teardown_s = Since(t_down);

  util::Json phases = util::Json::Object();
  phases.Set("setup_s", setup_s);
  phases.Set("run_s", run_s);
  phases.Set("teardown_s", teardown_s);
  phases.Set("platform.build_s", build_s);
  phases.Set("workloads.setup_s", wl_setup_s);
  phases.Set("platform.destroy_s", destroy_s);
  out.Set("phases", std::move(phases));
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}
