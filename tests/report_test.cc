// Parser property test for the documents bbreport reads from outside the
// program (tools/report_common.h): a real document of every kind is
// mutated key by key, down to depth 3 — each member deleted, retyped to
// every other JSON type, or emptied — and each mutant goes through kind
// detection and the validator. A mutant the validator accepts must then
// render without crashing. The walk is seeded, so a failure reproduces.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "obs/auditor.h"
#include "obs/memtrack.h"
#include "obs/profiler.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "platform/forensics.h"
#include "tools/report_common.h"

namespace bb::tools {
namespace {

using util::Json;

Json MustParse(const std::string& text) {
  auto doc = Json::Parse(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return doc.ok() ? *doc : Json();
}

bench::MacroConfig SmallRun() {
  auto opts = bench::OptionsFor("hyperledger");
  EXPECT_TRUE(opts.ok());
  bench::MacroConfig cfg;
  cfg.options = *opts;
  cfg.servers = 4;
  cfg.clients = 2;
  cfg.rate = 5;
  cfg.duration = 6;
  cfg.drain = 3;
  cfg.warmup = 1;
  cfg.ycsb_records = 100;
  return cfg;
}

/// One real document of every kind bbreport reads: the five written by a
/// traced, recorded, memory-accounted, profiled and audited run with a
/// partition, a one-row sweep, and google-benchmark output in the shape
/// bench_components writes.
std::vector<std::pair<DocKind, Json>> RealDocuments() {
  workloads::RegisterAllChaincodes();
  std::vector<std::pair<DocKind, Json>> docs;

  obs::Tracer tracer;
  obs::FlightRecorder recorder(32);
  obs::MemTracker memtracker;
  obs::Profiler profiler;
  bench::MacroConfig cfg = SmallRun();
  cfg.tracer = &tracer;
  cfg.recorder = &recorder;
  cfg.memtracker = &memtracker;
  {
    obs::Profiler::ThreadScope scope(&profiler);
    auto run = bench::MacroRun::Create(cfg);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    if (!run.ok()) return docs;
    sim::Network* net = &(*run)->rplatform().network();
    (*run)->rsim().At(2.0, [net] { net->Partition({0, 1}); });
    (*run)->rsim().At(4.0, [net] { net->HealPartition(); });
    (*run)->Run();
    obs::AuditorConfig ac;
    ac.heal_time = 4.0;
    ac.end_time = cfg.duration + cfg.drain;
    docs.emplace_back(DocKind::kAudit,
                      platform::RunAudit((*run)->rplatform(), ac).ToJson(ac));
  }
  profiler.Stop();
  docs.emplace_back(DocKind::kProfile, profiler.ToJson());
  docs.emplace_back(DocKind::kMem, memtracker.ToJson());
  docs.emplace_back(DocKind::kBlackbox,
                    recorder.ToJson(bench::RunSpecFromMacro(cfg), {}));
  docs.emplace_back(DocKind::kTrace, MustParse(tracer.DumpChromeTrace()));

  bench::BenchArgs args;
  args.jobs = 1;
  args.json_path = "report_test.sweep.json";
  bench::SweepRunner runner("report_test", args);
  runner.EnableMemTracking();
  runner.Add(SmallRun(), {{"platform", "hyperledger"}, {"n", "4"}});
  EXPECT_TRUE(runner.Run([](size_t, const bench::SweepOutcome&) {}));
  auto sweep = LoadJson(args.json_path);
  EXPECT_TRUE(sweep.ok()) << sweep.status().ToString();
  std::remove(args.json_path.c_str());
  if (sweep.ok()) docs.emplace_back(DocKind::kSweep, *sweep);

  docs.emplace_back(DocKind::kMicro, MustParse(R"({
    "context": {"date": "2026-08-06T10:00:00+00:00", "num_cpus": 1,
                "library_build_type": "release"},
    "benchmarks": [
      {"name": "BM_BlockHashCached", "run_type": "iteration",
       "iterations": 1000, "real_time": 12.5, "cpu_time": 12.4,
       "time_unit": "ns"},
      {"name": "BM_DigestBatch/64", "run_type": "iteration",
       "iterations": 200, "real_time": 640.0, "cpu_time": 638.0,
       "time_unit": "ns", "items_per_second": 1.0e8}
    ]})"));
  return docs;
}

/// Replacements for one value: every other JSON type, plus the emptied
/// container for a non-empty one.
std::vector<Json> Retypes(const Json& v) {
  std::vector<Json> out;
  for (Json alt : {Json(), Json(true), Json(-1), Json(7), Json("x"),
                   Json::Array(), Json::Object()}) {
    bool container = alt.is_array() || alt.is_object();
    if (alt.type() == v.type() && (!container || v.size() == 0)) continue;
    out.push_back(std::move(alt));
  }
  return out;
}

/// Array elements to descend into: the first of each distinct shape
/// (member names for objects, type and size otherwise) plus a few
/// seeded-random picks.
std::vector<size_t> SampledIndices(const Json& array, std::mt19937_64* rng) {
  std::map<std::string, size_t> first_of_shape;
  const auto& items = array.items();
  for (size_t i = 0; i < items.size(); ++i) {
    std::string shape = std::to_string(int(items[i].type()));
    if (items[i].is_object()) {
      for (const auto& [k, v] : items[i].members()) shape += "," + k;
    } else {
      shape += ":" + std::to_string(items[i].size());
    }
    first_of_shape.emplace(shape, i);
  }
  std::vector<size_t> picks;
  for (const auto& [shape, i] : first_of_shape) picks.push_back(i);
  for (int n = 0; n < 3 && !items.empty(); ++n) {
    picks.push_back(size_t((*rng)() % items.size()));
  }
  if (!items.empty()) picks.push_back(items.size() - 1);
  return picks;
}

/// Every mutant of `node`: each object member (each consuming one level
/// of `depth`) and each sampled array element deleted, retyped, or
/// mutated further down.
std::vector<Json> Mutants(const Json& node, int depth, std::mt19937_64* rng) {
  std::vector<Json> out;
  if (node.is_object() && depth > 0) {
    const auto& members = node.members();
    for (size_t i = 0; i < members.size(); ++i) {
      auto with = [&](const Json* replacement) {
        Json copy = Json::Object();
        for (size_t j = 0; j < members.size(); ++j) {
          if (j != i) {
            copy.Set(members[j].first, members[j].second);
          } else if (replacement != nullptr) {
            copy.Set(members[j].first, *replacement);
          }
        }
        return copy;
      };
      out.push_back(with(nullptr));
      for (const Json& alt : Retypes(members[i].second)) {
        out.push_back(with(&alt));
      }
      for (const Json& sub : Mutants(members[i].second, depth - 1, rng)) {
        out.push_back(with(&sub));
      }
    }
  } else if (node.is_array()) {
    const auto& items = node.items();
    for (size_t i : SampledIndices(node, rng)) {
      auto with = [&](const Json* replacement) {
        Json copy = Json::Array();
        for (size_t j = 0; j < items.size(); ++j) {
          if (j != i) {
            copy.Push(items[j]);
          } else if (replacement != nullptr) {
            copy.Push(*replacement);
          }
        }
        return copy;
      };
      out.push_back(with(nullptr));
      for (const Json& alt : Retypes(items[i])) out.push_back(with(&alt));
      for (const Json& sub : Mutants(items[i], depth, rng)) {
        out.push_back(with(&sub));
      }
    }
  }
  return out;
}

TEST(Report, MutatedDocumentsAreRejectedOrRendered) {
  std::vector<std::pair<DocKind, Json>> docs = RealDocuments();
  ASSERT_EQ(docs.size(), 7u);
  std::mt19937_64 rng(20261020);
  for (const auto& [kind, doc] : docs) {
    SCOPED_TRACE(KindName(kind));
    auto detected = DetectKind(doc);
    ASSERT_TRUE(detected.ok()) << detected.status().ToString();
    EXPECT_EQ(*detected, kind);
    auto text = ReadDocument(kind, doc, "real.json");
    ASSERT_TRUE(text.ok()) << text.status().ToString();

    size_t rejected = 0, rendered = 0;
    for (const Json& mutant : Mutants(doc, 3, &rng)) {
      (void)DetectKind(mutant);
      Status s = ValidateDocument(kind, mutant);
      auto read = ReadDocument(kind, mutant, "mutant.json");
      EXPECT_EQ(s.ok(), read.ok()) << s.ToString() << "\n" << mutant.Dump();
      if (!s.ok()) {
        ++rejected;
        continue;
      }
      EXPECT_FALSE(read->empty());
      ++rendered;
    }
    // Deleting the schema tag or the top-level arrays alone must be
    // caught, so every kind has rejected mutants.
    EXPECT_GT(rejected, 0u);
    std::printf("%-8s %5zu mutants rejected, %5zu rendered\n", KindName(kind),
                rejected, rendered);
  }
}

}  // namespace
}  // namespace bb::tools
