// bbreport: validates and reports every document blockbench writes, and
// gates CI on them. The kind is read from each file, so one command line
// may mix kinds:
//
//   blockbench-audit-v1     ledger audit (bbench --audit)
//   blockbench-profile-v1   wall-clock profile (--profile)
//   blockbench-mem-v1       memory accounting dump (--mem)
//   blockbench-blackbox-v1  flight-recorder dump (--blackbox, or an
//                           audited run that found a violation)
//   blockbench-sweep-v1     a bench binary's --json sweep
//   "benchmarks" array      google-benchmark output (bench_components)
//   "traceEvents" array     Chrome/Perfetto trace (--trace)
//
//   bbreport [flags] FILE...
//       Validate each file and print its report. A blackbox report ends
//       with the bbench --replay command that re-runs the recording.
//
//   bbreport --diff BEFORE AFTER
//       Per-subsystem deltas of two profile or two mem documents,
//       largest absolute delta first.
//
// Each gate reads the documents of one kind; a gate that matches no
// input fails:
//   --out=PATH                  merge the micro and sweep inputs into
//                               one blockbench-report-v1 snapshot
//   --gate-ratio=NUM/DEN:MAX    micro: cpu_time ratio of two benchmarks
//                               of the same run
//   --gate-events-ratio=BENCH:K=V1/K=V2:MIN
//                               sweep: sim.events_per_sec ratio of two
//                               rows of the sweep named BENCH (a floor)
//   --gate-events-vs-baseline=FILE:SEL:MIN
//                               sweep: events_per_sec of the row SEL
//                               against a committed snapshot (a floor)
//   --gate-scaling=MAXEXP       sweep: fitted exponent of per-node
//                               mem.peak_node_bytes over n per platform;
//                               quorum-broadcast BFT platforms, expected
//                               super-linear, are exempt
//   --gate-vs-baseline=FILE:SEL:MAX
//                               sweep: mem.peak_node_bytes of the row SEL
//                               against a committed snapshot
//   --gate-peak-bytes=N         mem: cluster-wide concurrent peak
//   --min-attributed=PCT        profile: share of wall time attributed
//                               to named subsystems
//   --fail-on-violation         audit: no safety violation recorded
//   --expect-violation          audit: a violation recorded (the
//                               scenario bit)
//   --min-forked-pct=X          audit: forked_pct >= X
//   --max-forked-pct=X          audit: forked_pct <= X
//   --require-recovery          audit: a post-heal recovery gap recorded
//
// Selectors (SEL) are comma-separated key=value pairs against a sweep
// row's labels, e.g. platform=hyperledger,n=16. A baseline FILE is a
// sweep document or a BENCH_*.json snapshot.
//
// Exit codes: 0 ok, 1 unreadable or invalid document, 2 usage, 4 a gate
// or expectation failed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "report_common.h"

using bb::tools::BaselineGateSpec;
using bb::tools::DocKind;
using bb::tools::RatioGateSpec;
using bb::tools::SelectorRatioGateSpec;
using bb::util::Json;

namespace {

constexpr int kInvalid = 1, kUsage = 2, kGateFailed = 4;

/// Platforms whose per-node memory grows super-linearly by design (PBFT
/// quorum broadcast); --gate-scaling reports but never gates them.
constexpr const char* kScalingExempt[] = {"hyperledger", "fabric", "erisdb"};

struct Flags {
  std::string out_path;
  bool diff = false;
  std::vector<RatioGateSpec> ratio_gates;
  std::vector<SelectorRatioGateSpec> events_gates;
  std::vector<BaselineGateSpec> events_baselines;
  std::vector<BaselineGateSpec> mem_baselines;
  double gate_scaling = -1;
  double gate_peak_bytes = -1;
  double min_attributed = -1;
  bool fail_on_violation = false;
  bool expect_violation = false;
  bool require_recovery = false;
  double min_forked_pct = -1;
  double max_forked_pct = -1;
  std::vector<std::string> inputs;
  size_t other_than_diff = 0;  // flags given besides --diff

  bool audit_expectations() const {
    return fail_on_violation || expect_violation || require_recovery ||
           min_forked_pct >= 0 || max_forked_pct >= 0;
  }
};

int Usage(const std::string& msg) {
  std::fprintf(stderr, "bbreport: %s\n", msg.c_str());
  std::fprintf(
      stderr,
      "usage: bbreport [--out=PATH] [--gate-ratio=NUM/DEN:MAX]...\n"
      "                [--gate-events-ratio=BENCH:K=V1/K=V2:MIN]...\n"
      "                [--gate-events-vs-baseline=FILE:SEL:MIN]...\n"
      "                [--gate-scaling=MAXEXP] "
      "[--gate-vs-baseline=FILE:SEL:MAX]...\n"
      "                [--gate-peak-bytes=N] [--min-attributed=PCT]\n"
      "                [--fail-on-violation | --expect-violation]\n"
      "                [--min-forked-pct=X] [--max-forked-pct=X] "
      "[--require-recovery]\n"
      "                FILE...\n"
      "       bbreport --diff BEFORE AFTER\n");
  return kUsage;
}

/// Fills `f`; returns 0, or the usage exit code after printing why.
int ParseFlags(int argc, char** argv, Flags* f) {
  static const std::pair<const char*, bool Flags::*> kSwitches[] = {
      {"--diff", &Flags::diff},
      {"--fail-on-violation", &Flags::fail_on_violation},
      {"--expect-violation", &Flags::expect_violation},
      {"--require-recovery", &Flags::require_recovery},
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      f->inputs.push_back(arg);
      continue;
    }
    auto switch_it = std::find_if(
        std::begin(kSwitches), std::end(kSwitches),
        [&arg](const auto& s) { return arg == s.first; });
    if (arg != "--diff") ++f->other_than_diff;
    if (switch_it != std::end(kSwitches)) {
      f->*(switch_it->second) = true;
      continue;
    }
    size_t eq = arg.find('=');
    if (eq == std::string::npos) return Usage("unknown flag " + arg);
    std::string name = arg.substr(0, eq), value = arg.substr(eq + 1);
    bool ok = true;
    if (name == "--out") {
      f->out_path = value;
      ok = !value.empty();
    } else if (name == "--gate-ratio") {
      ok = bb::tools::ParseRatioGateSpec(value, &f->ratio_gates.emplace_back());
    } else if (name == "--gate-events-ratio") {
      ok = bb::tools::ParseSelectorRatioGateSpec(
          value, &f->events_gates.emplace_back());
    } else if (name == "--gate-events-vs-baseline") {
      ok = bb::tools::ParseBaselineGateSpec(
          value, &f->events_baselines.emplace_back());
    } else if (name == "--gate-vs-baseline") {
      ok = bb::tools::ParseBaselineGateSpec(value,
                                            &f->mem_baselines.emplace_back());
    } else if (name == "--gate-scaling") {
      ok = bb::tools::ParsePositiveDouble(value, &f->gate_scaling);
    } else if (name == "--gate-peak-bytes") {
      ok = bb::tools::ParsePositiveDouble(value, &f->gate_peak_bytes);
    } else if (name == "--min-attributed") {
      ok = bb::tools::ParsePositiveDouble(value, &f->min_attributed) &&
           f->min_attributed <= 100;
    } else if (name == "--min-forked-pct") {
      ok = bb::util::ParseDouble(value, &f->min_forked_pct) &&
           f->min_forked_pct >= 0;
    } else if (name == "--max-forked-pct") {
      ok = bb::util::ParseDouble(value, &f->max_forked_pct) &&
           f->max_forked_pct >= 0;
    } else {
      return Usage("unknown flag " + arg);
    }
    if (!ok) return Usage("bad value in " + arg);
  }
  if (f->fail_on_violation && f->expect_violation) {
    return Usage("--fail-on-violation and --expect-violation conflict");
  }
  if (f->inputs.empty()) return Usage("no input files");
  return 0;
}

struct Loaded {
  Json doc;
  DocKind kind;
};

/// Loads and classifies one input; prints why and returns false when the
/// file is unreadable or of no known kind.
bool Load(const std::string& path, Loaded* out) {
  auto doc = bb::tools::LoadJson(path);
  if (!doc.ok()) {
    std::fprintf(stderr, "bbreport: %s\n", doc.status().ToString().c_str());
    return false;
  }
  auto kind = bb::tools::DetectKind(*doc);
  if (!kind.ok()) {
    std::fprintf(stderr, "bbreport: %s: %s\n", path.c_str(),
                 kind.status().ToString().c_str());
    return false;
  }
  *out = Loaded{std::move(*doc), *kind};
  return true;
}

int Diff(const Flags& f) {
  if (f.inputs.size() != 2 || f.other_than_diff > 0) {
    return Usage("--diff takes exactly two documents and no other flag");
  }
  Loaded before, after;
  if (!Load(f.inputs[0], &before) || !Load(f.inputs[1], &after)) {
    return kInvalid;
  }
  if (before.kind != after.kind ||
      (before.kind != DocKind::kProfile && before.kind != DocKind::kMem)) {
    return Usage(std::string("--diff needs two profile or two mem documents, "
                             "got ") +
                 KindName(before.kind) + " and " + KindName(after.kind));
  }
  for (size_t i = 0; i < 2; ++i) {
    const Loaded& in = i == 0 ? before : after;
    bb::Status s = bb::tools::ValidateDocument(in.kind, in.doc);
    if (!s.ok()) {
      std::fprintf(stderr, "bbreport: %s: %s\n", f.inputs[i].c_str(),
                   s.ToString().c_str());
      return kInvalid;
    }
  }
  bool profile = before.kind == DocKind::kProfile;
  std::printf("%s diff: %s -> %s\n", profile ? "profile" : "mem",
              f.inputs[0].c_str(), f.inputs[1].c_str());
  std::fputs(profile ? bb::obs::RenderProfileDiff(before.doc, after.doc).c_str()
                     : bb::obs::RenderMemDiff(before.doc, after.doc).c_str(),
             stdout);
  return 0;
}

/// Returns false when a scenario expectation failed (printed to stderr).
bool CheckAuditExpectations(const Json& doc, const std::string& path,
                            const Flags& want) {
  bool ok = true;
  size_t violations = doc.Get("invariants")->Get("violations")->size();
  double forked_pct = doc.Get("fork_tree")->Get("forked_pct")->AsDouble();
  auto fail = [&](const std::string& why) {
    std::fprintf(stderr, "bbreport: %s: %s\n", path.c_str(), why.c_str());
    ok = false;
  };
  char buf[128];
  if (want.fail_on_violation && violations > 0) {
    fail(std::to_string(violations) + " safety violation(s) recorded");
  }
  if (want.expect_violation && violations == 0) {
    fail("expected a safety violation, found none — the scenario did not "
         "bite");
  }
  if (want.min_forked_pct >= 0 && forked_pct < want.min_forked_pct) {
    std::snprintf(buf, sizeof(buf),
                  "forked_pct %.2f below expected minimum %.2f", forked_pct,
                  want.min_forked_pct);
    fail(buf);
  }
  if (want.max_forked_pct >= 0 && forked_pct > want.max_forked_pct) {
    std::snprintf(buf, sizeof(buf),
                  "forked_pct %.2f above expected maximum %.2f", forked_pct,
                  want.max_forked_pct);
    fail(buf);
  }
  if (want.require_recovery && bb::obs::AuditRecoveryGap(doc) < 0) {
    fail("no post-heal recovery recorded");
  }
  return ok;
}

/// (n, bytes) points per platform label for one mem-block metric,
/// harvested from every sweep row carrying a mem block. Ordered map:
/// deterministic output.
using ScalingPoints =
    std::map<std::string, std::vector<std::pair<double, double>>>;

void CollectScalingPoints(const Json& rows, const char* key,
                          ScalingPoints* points) {
  for (const Json& row : rows.items()) {
    const Json* labels = row.Get("labels");
    const Json* mem = row.Get("mem");
    if (labels == nullptr || mem == nullptr) continue;
    const Json* platform = labels->Get("platform");
    const Json* n = labels->Get("n");
    const Json* peak = mem->Get(key);
    if (platform == nullptr || !platform->is_string() || n == nullptr ||
        peak == nullptr || !peak->is_number()) {
      continue;
    }
    double nodes = n->is_number() ? n->AsDouble()
                                  : std::atof(n->AsString().c_str());
    if (nodes > 0 && peak->AsDouble() > 0) {
      (*points)[platform->AsString()].emplace_back(nodes, peak->AsDouble());
    }
  }
}

/// Least-squares slope of log(peak) over log(n) — the growth exponent
/// (1 = linear, 2 = quadratic). NAN with fewer than two distinct sizes.
double FitExponent(const std::vector<std::pair<double, double>>& pts) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const auto& [n, peak] : pts) {
    double x = std::log(n), y = std::log(peak);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  double count = double(pts.size());
  double var = sxx - sx * sx / count;
  if (!(var > 1e-12)) return std::nan("");
  return (sxy - sx * sy / count) / var;
}

bool GateScaling(const std::vector<std::pair<std::string, Json>>& sweeps,
                 double max_exp) {
  ScalingPoints per_node;  // per-node peak vs N (the gate)
  ScalingPoints cluster;   // cluster peak vs N (informational)
  for (const auto& [path, doc] : sweeps) {
    CollectScalingPoints(*doc.Get("rows"), "peak_node_bytes", &per_node);
    CollectScalingPoints(*doc.Get("rows"), "cluster_peak", &cluster);
  }
  if (per_node.empty()) {
    std::fprintf(stderr,
                 "bbreport: --gate-scaling found no sweep rows with mem "
                 "blocks and platform/n labels\n");
    return false;
  }
  bool ok = true;
  for (const auto& [platform, pts] : per_node) {
    double exp = FitExponent(pts);
    if (std::isnan(exp)) {
      std::fprintf(stderr,
                   "bbreport: scaling fit needs >= 2 cluster sizes for %s "
                   "(got %zu points)\n",
                   platform.c_str(), pts.size());
      ok = false;
      continue;
    }
    // The cluster-wide exponent (~ per-node exponent + 1) is where
    // quorum-broadcast protocols show their O(N^2) curve; printed for
    // every platform, never gated.
    auto cit = cluster.find(platform);
    double cluster_exp =
        cit != cluster.end() ? FitExponent(cit->second) : std::nan("");
    bool exempt = std::find(std::begin(kScalingExempt),
                            std::end(kScalingExempt),
                            platform) != std::end(kScalingExempt);
    std::printf(
        "bbreport: scaling %s: peak_node_bytes ~ N^%.2f, cluster_peak ~ "
        "N^%.2f over %zu points%s\n",
        platform.c_str(), exp, cluster_exp, pts.size(),
        exempt ? " (exempt)" : "");
    if (!exempt) {
      ok &= bb::tools::CheckGate("scaling exponent " + platform, exp, max_exp);
    }
  }
  return ok;
}

/// SECTION.KEY of the first row matching `sel` in a sweep document, or
/// in any sweep of a blockbench-report-v1 snapshot (nested under
/// "macro"); negative when absent.
double FindRowMetric(const Json& doc, const std::string& sel,
                     const char* section, const char* key) {
  if (const Json* rows = doc.Get("rows")) {
    return bb::tools::SweepRowMetric(*rows, sel, section, key);
  }
  if (const Json* macro = doc.Get("macro")) {
    for (const Json& entry : macro->items()) {
      const Json* rows = entry.Get("rows");
      double v = rows != nullptr
                     ? bb::tools::SweepRowMetric(*rows, sel, section, key)
                     : -1;
      if (v >= 0) return v;
    }
  }
  return -1;
}

/// One --gate-*vs-baseline: current/baseline of SECTION.KEY for the row
/// the spec selects. Returns 0, kInvalid (unreadable baseline) or
/// kGateFailed.
int GateVsBaseline(const BaselineGateSpec& g,
                   const std::vector<std::pair<std::string, Json>>& sweeps,
                   const char* section, const char* key, const char* label,
                   bool is_floor) {
  auto doc = bb::tools::LoadJson(g.file);
  if (!doc.ok()) {
    std::fprintf(stderr, "bbreport: baseline: %s\n",
                 doc.status().ToString().c_str());
    return kInvalid;
  }
  double baseline = FindRowMetric(*doc, g.sel, section, key);
  double current = -1;
  for (const auto& [path, sweep] : sweeps) {
    current = FindRowMetric(sweep, g.sel, section, key);
    if (current >= 0) break;
  }
  if (baseline <= 0 || current < 0) {
    std::fprintf(stderr, "bbreport: baseline gate rows missing: %s in %s\n",
                 g.sel.c_str(), g.file.c_str());
    return kGateFailed;
  }
  return bb::tools::CheckGate(
             std::string(label) + " " + g.sel + " (" + g.file + ")",
             current / baseline, g.bound, is_floor)
             ? 0
             : kGateFailed;
}

bool GateRatio(const RatioGateSpec& g,
               const std::map<std::string, double>& bench_cpu) {
  auto num = bench_cpu.find(g.num);
  auto den = bench_cpu.find(g.den);
  if (num == bench_cpu.end() || den == bench_cpu.end()) {
    std::fprintf(stderr, "bbreport: gate benchmark missing: %s\n",
                 (num == bench_cpu.end() ? g.num : g.den).c_str());
    return false;
  }
  if (den->second <= 0) {
    std::fprintf(stderr, "bbreport: gate denominator %s has cpu_time 0\n",
                 g.den.c_str());
    return false;
  }
  return bb::tools::CheckGate(g.num + "/" + g.den, num->second / den->second,
                              g.bound);
}

bool GateEventsRatio(const SelectorRatioGateSpec& g,
                     const std::vector<std::pair<std::string, Json>>& sweeps) {
  double num = -1, den = -1;
  for (const auto& [path, doc] : sweeps) {
    const Json* bench = doc.Get("bench");
    if (bench == nullptr || !bench->is_string() ||
        bench->AsString() != g.name) {
      continue;
    }
    const Json& rows = *doc.Get("rows");
    if (num < 0) num = bb::tools::SweepRowMetric(rows, g.num_sel, "sim",
                                                 "events_per_sec");
    if (den < 0) den = bb::tools::SweepRowMetric(rows, g.den_sel, "sim",
                                                 "events_per_sec");
  }
  if (num < 0 || den <= 0) {
    std::fprintf(stderr, "bbreport: gate rows missing: %s (%s / %s)\n",
                 g.name.c_str(), g.num_sel.c_str(), g.den_sel.c_str());
    return false;
  }
  return bb::tools::CheckGate(
      "events " + g.name + " " + g.num_sel + "/" + g.den_sel, num / den,
      g.bound, /*is_floor=*/true);
}

/// The blockbench-report-v1 snapshot of the micro and sweep inputs.
bool WriteSnapshot(const std::string& out_path,
                   const std::vector<std::pair<std::string, Json>>& micros,
                   const std::vector<std::pair<std::string, Json>>& sweeps) {
  Json micro = Json::Array();
  for (const auto& [path, doc] : micros) {
    Json entry = Json::Object();
    entry.Set("source", path);
    if (const Json* ctx = doc.Get("context")) entry.Set("context", *ctx);
    entry.Set("benchmarks", *doc.Get("benchmarks"));
    micro.Push(std::move(entry));
  }
  Json macro = Json::Array();
  for (const auto& [path, doc] : sweeps) {
    Json entry = Json::Object();
    entry.Set("source", path);
    for (const char* key : {"schema", "bench", "full", "jobs", "wall_seconds",
                            "rows"}) {
      if (const Json* v = doc.Get(key)) entry.Set(key, *v);
    }
    macro.Push(std::move(entry));
  }
  Json report = Json::Object();
  report.Set("schema", "blockbench-report-v1");
  report.Set("micro", std::move(micro));
  report.Set("macro", std::move(macro));
  std::string text = report.Dump(2);
  text.push_back('\n');
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bbreport: cannot write %s\n", out_path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::printf("bbreport: wrote %s\n", out_path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags f;
  if (int rc = ParseFlags(argc, argv, &f); rc != 0) return rc;
  if (f.diff) return Diff(f);

  bool gates_ok = true;
  std::map<DocKind, size_t> seen;
  // First sighting of each microbenchmark name -> cpu_time, for the
  // ratio gates.
  std::map<std::string, double> bench_cpu;
  std::vector<std::pair<std::string, Json>> micros, sweeps;
  for (const std::string& path : f.inputs) {
    Loaded in;
    if (!Load(path, &in)) return kInvalid;
    auto text = bb::tools::ReadDocument(in.kind, in.doc, path);
    if (!text.ok()) {
      std::fprintf(stderr, "bbreport: %s: %s\n", path.c_str(),
                   text.status().ToString().c_str());
      return kInvalid;
    }
    std::fputs(text->c_str(), stdout);
    ++seen[in.kind];
    switch (in.kind) {
      case DocKind::kMicro:
        for (const Json& b : in.doc.Get("benchmarks")->items()) {
          const Json* cpu = b.Get("cpu_time");
          if (cpu != nullptr && cpu->is_number()) {
            bench_cpu.emplace(b.Get("name")->AsString(), cpu->AsDouble());
          }
        }
        micros.emplace_back(path, std::move(in.doc));
        break;
      case DocKind::kSweep:
        sweeps.emplace_back(path, std::move(in.doc));
        break;
      case DocKind::kMem:
        if (f.gate_peak_bytes > 0) {
          gates_ok &= bb::tools::CheckGate(
              path + " cluster peak bytes",
              in.doc.Get("cluster")->Get("peak")->AsDouble(),
              f.gate_peak_bytes);
        }
        break;
      case DocKind::kProfile:
        if (f.min_attributed > 0) {
          gates_ok &= bb::tools::CheckGate(
              path + " attributed%",
              100.0 * bb::obs::AttributedFraction(in.doc), f.min_attributed,
              /*is_floor=*/true);
        }
        break;
      case DocKind::kAudit:
        gates_ok &= CheckAuditExpectations(in.doc, path, f);
        break;
      case DocKind::kBlackbox:
      case DocKind::kTrace:
        break;
    }
  }

  // A gate on a kind that never showed up would pass vacuously.
  const std::tuple<bool, DocKind, const char*> kPerDocumentGates[] = {
      {f.gate_peak_bytes > 0, DocKind::kMem, "--gate-peak-bytes"},
      {f.min_attributed > 0, DocKind::kProfile, "--min-attributed"},
      {f.audit_expectations(), DocKind::kAudit, "the audit expectations"},
  };
  for (const auto& [wanted, kind, flag] : kPerDocumentGates) {
    if (wanted && seen[kind] == 0) {
      std::fprintf(stderr, "bbreport: %s matched no %s document\n", flag,
                   KindName(kind));
      gates_ok = false;
    }
  }

  for (const RatioGateSpec& g : f.ratio_gates) {
    gates_ok &= GateRatio(g, bench_cpu);
  }
  for (const SelectorRatioGateSpec& g : f.events_gates) {
    gates_ok &= GateEventsRatio(g, sweeps);
  }
  if (f.gate_scaling > 0) gates_ok &= GateScaling(sweeps, f.gate_scaling);
  for (const BaselineGateSpec& g : f.events_baselines) {
    int rc = GateVsBaseline(g, sweeps, "sim", "events_per_sec",
                            "events-vs-baseline", /*is_floor=*/true);
    if (rc == kInvalid) return kInvalid;
    gates_ok &= rc == 0;
  }
  for (const BaselineGateSpec& g : f.mem_baselines) {
    int rc = GateVsBaseline(g, sweeps, "mem", "peak_node_bytes",
                            "peak-vs-baseline", /*is_floor=*/false);
    if (rc == kInvalid) return kInvalid;
    gates_ok &= rc == 0;
  }
  if (!gates_ok) return kGateFailed;
  if (!f.out_path.empty() && !WriteSnapshot(f.out_path, micros, sweeps)) {
    return kInvalid;
  }
  return 0;
}
