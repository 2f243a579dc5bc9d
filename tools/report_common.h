// Reading blockbench documents back: load a JSON file, tell its kind from
// its content, validate and render it, and the --gate-* grammar. Used by
// bbreport for every kind and by bbench --replay (LoadJson). Header-only
// so the tests can drive the same reader over mutated documents.
//
// Each format's validator and renderer live beside its writer in src/obs;
// only the two formats written outside src/obs are read here: the
// blockbench-sweep-v1 documents of the bench binaries (bench/common.h)
// and google-benchmark's --benchmark_out JSON.

#ifndef BLOCKBENCH_TOOLS_REPORT_COMMON_H_
#define BLOCKBENCH_TOOLS_REPORT_COMMON_H_

#include <cstdio>
#include <string>
#include <utility>

#include "obs/auditor.h"
#include "obs/memtrack.h"
#include "obs/profiler.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/status.h"

namespace bb::tools {

inline Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open " + path);
  }
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

/// Read + parse one JSON document; the error message carries the path.
inline Result<util::Json> LoadJson(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) return text.status();
  auto doc = util::Json::Parse(*text);
  if (!doc.ok()) {
    return Status::InvalidArgument(path + ": " + doc.status().ToString());
  }
  return doc;
}

// --- Document kinds ------------------------------------------------------------

enum class DocKind { kAudit, kProfile, kMem, kBlackbox, kSweep, kMicro, kTrace };

inline const char* KindName(DocKind kind) {
  static const char* const kNames[] = {"audit", "profile", "mem",  "blackbox",
                                       "sweep", "micro",   "trace"};
  return kNames[size_t(kind)];
}

/// The kind a document declares: a blockbench "schema" tag, a
/// google-benchmark "benchmarks" array or a Chrome "traceEvents" array.
inline Result<DocKind> DetectKind(const util::Json& doc) {
  static const std::pair<const char*, DocKind> kSchemas[] = {
      {"blockbench-audit-v1", DocKind::kAudit},
      {"blockbench-profile-v1", DocKind::kProfile},
      {"blockbench-mem-v1", DocKind::kMem},
      {"blockbench-blackbox-v1", DocKind::kBlackbox},
      {"blockbench-sweep-v1", DocKind::kSweep},
  };
  const util::Json* schema = doc.Get("schema");
  for (const auto& [tag, kind] : kSchemas) {
    if (schema != nullptr && schema->is_string() && schema->AsString() == tag) {
      return kind;
    }
  }
  const util::Json* micro = doc.Get("benchmarks");
  if (micro != nullptr && micro->is_array()) return DocKind::kMicro;
  const util::Json* trace = doc.Get("traceEvents");
  if (trace != nullptr && trace->is_array()) return DocKind::kTrace;
  return Status::InvalidArgument(
      "not a blockbench document: no known \"schema\" tag, no "
      "\"benchmarks\" array (google-benchmark), no \"traceEvents\" array "
      "(Chrome trace)");
}

/// A blockbench-sweep-v1 document beyond "it parsed": every row needs
/// labels and a status, and successful rows need their metrics block.
inline Status ValidateSweep(const util::Json& doc) {
  const util::Json* schema = doc.Get("schema");
  if (schema == nullptr || schema->AsString() != "blockbench-sweep-v1") {
    return Status::InvalidArgument("schema is not blockbench-sweep-v1");
  }
  const util::Json* rows = doc.Get("rows");
  if (rows == nullptr || !rows->is_array()) {
    return Status::InvalidArgument("sweep document without rows");
  }
  for (size_t i = 0; i < rows->items().size(); ++i) {
    const util::Json& row = rows->items()[i];
    if (!row.is_object() || row.Get("labels") == nullptr ||
        row.Get("status") == nullptr) {
      return Status::InvalidArgument("row " + std::to_string(i) +
                                     " missing labels/status");
    }
    const util::Json* status = row.Get("status");
    if (status->is_string() && status->AsString() == "Ok" &&
        row.Get("metrics") == nullptr) {
      return Status::InvalidArgument("OK row " + std::to_string(i) +
                                     " without metrics");
    }
  }
  return Status::Ok();
}

/// google-benchmark output: a benchmarks array of named entries.
inline Status ValidateMicro(const util::Json& doc) {
  const util::Json* benchmarks = doc.Get("benchmarks");
  if (benchmarks == nullptr || !benchmarks->is_array()) {
    return Status::InvalidArgument("no benchmarks array");
  }
  for (const util::Json& b : benchmarks->items()) {
    if (!b.is_object() || b.Get("name") == nullptr) {
      return Status::InvalidArgument("benchmark entry without name");
    }
  }
  return Status::Ok();
}

inline Status ValidateDocument(DocKind kind, const util::Json& doc) {
  switch (kind) {
    case DocKind::kAudit: return obs::ValidateAudit(doc);
    case DocKind::kProfile: return obs::ValidateProfile(doc);
    case DocKind::kMem: return obs::ValidateMemDump(doc);
    case DocKind::kBlackbox: return obs::ValidateBlackbox(doc);
    case DocKind::kSweep: return ValidateSweep(doc);
    case DocKind::kMicro: return ValidateMicro(doc);
    case DocKind::kTrace: {
      obs::TraceSummary unused;
      return obs::AnalyzeChromeTrace(doc, &unused);
    }
  }
  return Status::Internal("unknown document kind");
}

/// Newest records of the interleaved cross-node timeline a blackbox
/// post-mortem shows.
constexpr size_t kBlackboxTimelineDepth = 40;

/// Validates `doc` as `kind` and renders what bbreport prints for it,
/// headed by `path`.
inline Result<std::string> ReadDocument(DocKind kind, const util::Json& doc,
                                        const std::string& path) {
  if (kind == DocKind::kTrace) {
    // One pass both validates the trace and gathers its report.
    obs::TraceSummary summary;
    BB_RETURN_IF_ERROR(obs::AnalyzeChromeTrace(doc, &summary));
    return path + ": " + obs::RenderTraceSummary(summary);
  }
  BB_RETURN_IF_ERROR(ValidateDocument(kind, doc));
  char buf[256];
  switch (kind) {
    case DocKind::kAudit:
      return path + ": " + obs::RenderAuditSummary(doc);
    case DocKind::kProfile: {
      const util::Json* threads = doc.Get("threads");
      uint64_t n = threads != nullptr ? threads->AsUint() : 0;
      std::snprintf(buf, sizeof(buf), ": OK (%.3fs wall, %llu thread%s)\n",
                    doc.Get("duration_seconds")->AsDouble(),
                    (unsigned long long)n, n == 1 ? "" : "s");
      return path + buf + obs::RenderProfileAttribution(doc) + "\n";
    }
    case DocKind::kMem:
      return path + ": OK\n" + obs::RenderMemAttribution(doc) + "\n";
    case DocKind::kBlackbox: {
      std::string divergence = obs::FirstDivergence(doc);
      return path + ": OK\n" + obs::RenderBlackboxSummary(doc) + "\n" +
             obs::RenderBlackboxTimeline(doc, kBlackboxTimelineDepth) +
             "\nfirst divergence: " +
             (divergence.empty() ? "none (all commits agree)" : divergence) +
             "\nreplay: bbench --replay=" + path + "\n";
    }
    case DocKind::kSweep: {
      const auto& rows = doc.Get("rows")->items();
      size_t with_mem = 0;
      for (const util::Json& row : rows) with_mem += row.Get("mem") != nullptr;
      std::snprintf(buf, sizeof(buf), ": %zu sweep rows", rows.size());
      std::string out = path + buf;
      if (with_mem > 0) {
        std::snprintf(buf, sizeof(buf), ", %zu with mem blocks", with_mem);
        out += buf;
      }
      return out + "\n";
    }
    case DocKind::kMicro:
      std::snprintf(buf, sizeof(buf), ": %zu microbenchmarks\n",
                    doc.Get("benchmarks")->items().size());
      return path + buf;
    case DocKind::kTrace:
      break;
  }
  return Status::Internal("unknown document kind");
}

// --- --gate-* flag grammar ---------------------------------------------------
//
// Gates share three spec shapes, so selectors and bounds parse the same
// way for every document kind:
//   * "NUM/DEN:BOUND"        two benchmark names and a ratio bound
//   * "NAME:SEL1/SEL2:BOUND" two row selectors inside one sweep
//   * "FILE:SEL:BOUND"       a committed snapshot + one row selector
// Row selectors are "key=value" pairs against a sweep row's labels
// object; comma-separate pairs ("platform=hyperledger,n=16") to require
// all of them.

/// Strict positive double ("1.03"); false on garbage or <= 0.
inline bool ParsePositiveDouble(const std::string& s, double* out) {
  return util::ParseDouble(s, out) && *out > 0;
}

/// "NUM_NAME/DEN_NAME:BOUND". Benchmark names may themselves contain
/// '/' (google-benchmark args, e.g. BM_DigestBatch/64), so split at the
/// '/' that starts the denominator's "BM_" prefix; fall back to the
/// first '/' for names that don't follow the convention.
struct RatioGateSpec {
  std::string num, den;
  double bound = 0;
};

inline bool ParseRatioGateSpec(const std::string& v, RatioGateSpec* g) {
  size_t slash = v.rfind("/BM_");
  if (slash == std::string::npos) slash = v.find('/');
  size_t colon = v.rfind(':');
  if (slash == std::string::npos || colon == std::string::npos ||
      colon < slash || slash == 0) {
    return false;
  }
  g->num = v.substr(0, slash);
  g->den = v.substr(slash + 1, colon - slash - 1);
  return !g->num.empty() && !g->den.empty() &&
         ParsePositiveDouble(v.substr(colon + 1), &g->bound);
}

/// "NAME:SEL1/SEL2:BOUND" — two rows of the sweep named NAME.
struct SelectorRatioGateSpec {
  std::string name;
  std::string num_sel, den_sel;
  double bound = 0;
};

inline bool ParseSelectorRatioGateSpec(const std::string& v,
                                       SelectorRatioGateSpec* g) {
  size_t first_colon = v.find(':');
  size_t last_colon = v.rfind(':');
  if (first_colon == std::string::npos || last_colon == first_colon) {
    return false;
  }
  g->name = v.substr(0, first_colon);
  std::string pair = v.substr(first_colon + 1, last_colon - first_colon - 1);
  size_t slash = pair.find('/');
  if (slash == std::string::npos) return false;
  g->num_sel = pair.substr(0, slash);
  g->den_sel = pair.substr(slash + 1);
  return !g->name.empty() && !g->num_sel.empty() && !g->den_sel.empty() &&
         ParsePositiveDouble(v.substr(last_colon + 1), &g->bound);
}

/// "FILE:SEL:BOUND" — current inputs vs a committed snapshot's row.
struct BaselineGateSpec {
  std::string file;
  std::string sel;
  double bound = 0;
};

inline bool ParseBaselineGateSpec(const std::string& v, BaselineGateSpec* g) {
  size_t last_colon = v.rfind(':');
  if (last_colon == std::string::npos) return false;
  std::string rest = v.substr(0, last_colon);
  size_t sel_colon = rest.rfind(':');
  if (sel_colon == std::string::npos) return false;
  g->file = rest.substr(0, sel_colon);
  g->sel = rest.substr(sel_colon + 1);
  return !g->file.empty() && !g->sel.empty() &&
         ParsePositiveDouble(v.substr(last_colon + 1), &g->bound);
}

/// True when the sweep row's labels object satisfies every
/// comma-separated "key=value" pair of the selector.
inline bool RowMatchesLabels(const util::Json& row, const std::string& sel) {
  const util::Json* labels = row.Get("labels");
  if (labels == nullptr) return false;
  size_t start = 0;
  while (start <= sel.size()) {
    size_t comma = sel.find(',', start);
    std::string pair = sel.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    size_t eq = pair.find('=');
    if (eq == std::string::npos) return false;
    const util::Json* v = labels->Get(pair.substr(0, eq));
    if (v == nullptr || !v->is_string() || v->AsString() != pair.substr(eq + 1)) {
      return false;
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return true;
}

/// Numeric rows[i].SECTION.KEY of the first row matching `sel`;
/// negative when no row matches or the field is absent.
inline double SweepRowMetric(const util::Json& rows, const std::string& sel,
                             const std::string& section,
                             const std::string& key) {
  for (const util::Json& row : rows.items()) {
    if (!RowMatchesLabels(row, sel)) continue;
    const util::Json* sec = row.Get(section);
    if (sec == nullptr) continue;
    const util::Json* v = sec->Get(key);
    if (v != nullptr && v->is_number()) return v->AsDouble();
  }
  return -1;
}

/// Prints the pass line (stdout) or the FAILED line (stderr) in the
/// shared gate format and returns whether the gate held. `is_floor`
/// selects "value must stay >= bound" (speedup floors) over the default
/// "value must stay <= bound" (overhead / growth ceilings).
inline bool CheckGate(const std::string& label, double value, double bound,
                      bool is_floor = false) {
  bool ok = is_floor ? value >= bound : value <= bound;
  if (ok) {
    std::printf("bbreport: gate %s = %.4f (%s %.4f) OK\n", label.c_str(),
                value, is_floor ? "min" : "max", bound);
  } else {
    std::fprintf(stderr, "bbreport: gate FAILED: %s = %.4f %s %.4f\n",
                 label.c_str(), value, is_floor ? "below" : "exceeds", bound);
  }
  return ok;
}

}  // namespace bb::tools

#endif  // BLOCKBENCH_TOOLS_REPORT_COMMON_H_
