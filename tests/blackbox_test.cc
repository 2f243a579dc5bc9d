// FlightRecorder tests: ring wrap/eviction semantics, RunSpec JSON
// round-trip, structural validation of blockbench-blackbox-v1 dumps,
// the golden partitioned black boxes of all five engines and a 2-shard
// run (pinned by digest), dump identity across sweep --jobs values, the
// replay-equivalence contract (a RunSpec-reconstructed run produces a
// byte-identical dump), and the message-seq breakpoint used by
// bbench --until.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "obs/metrics.h"
#include "obs/probe.h"
#include "obs/recorder.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "util/sha256.h"

namespace bb::obs {
namespace {

// --- Ring semantics ----------------------------------------------------------

TEST(FlightRecorder, RecordsAndIntrospects) {
  FlightRecorder rec(8);
  Probe probe(nullptr, &rec);
  probe.MsgSend(0, 1.0, 7, 1, "prepare", 100, /*dropped=*/false);
  probe.MsgRecv(1, 1.5, 7, 0, "prepare", 100);
  probe.Phase(0, 2.0, "pbft.view_change", 3);
  probe.Fault(FlightRecorder::Kind::kCrash, 1, 2.5);

  EXPECT_EQ(rec.num_nodes(), 2u);
  EXPECT_EQ(rec.recorded(0), 2u);
  EXPECT_EQ(rec.recorded(1), 2u);
  EXPECT_EQ(rec.evicted(0), 0u);

  const auto& send = rec.At(0, 0);
  EXPECT_EQ(send.kind, FlightRecorder::Kind::kSend);
  EXPECT_EQ(send.id, 7u);
  EXPECT_EQ(send.peer, 1u);
  EXPECT_EQ(rec.Name(send.name), "prepare");

  const auto& phase = rec.At(0, 1);
  EXPECT_EQ(phase.kind, FlightRecorder::Kind::kPhase);
  EXPECT_EQ(rec.Name(phase.name), "pbft.view_change");
  EXPECT_EQ(phase.id, 3u);

  const auto& crash = rec.At(1, 1);
  EXPECT_EQ(crash.kind, FlightRecorder::Kind::kCrash);
  EXPECT_EQ(rec.Name(crash.name), "crash");
}

TEST(FlightRecorder, RingWrapsAndEvictsOldest) {
  FlightRecorder rec(4);
  Probe probe(nullptr, &rec);
  for (int i = 0; i < 10; ++i) {
    probe.Phase(0, double(i), "tick", uint64_t(i));
  }
  EXPECT_EQ(rec.recorded(0), 10u);
  EXPECT_EQ(rec.evicted(0), 6u);
  EXPECT_EQ(rec.ring_size(0), 4u);
  // Survivors are the newest four, oldest-first: ids 6, 7, 8, 9.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rec.At(0, i).id, 6 + i) << "ring slot " << i;
    EXPECT_EQ(rec.At(0, i).t, double(6 + i));
  }
}

TEST(FlightRecorder, ExactlyFullRingDoesNotEvict) {
  FlightRecorder rec(4);
  Probe probe(nullptr, &rec);
  for (int i = 0; i < 4; ++i) probe.Phase(0, double(i), "tick", uint64_t(i));
  EXPECT_EQ(rec.evicted(0), 0u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(rec.At(0, i).id, i);
  // One more push evicts exactly the oldest.
  probe.Phase(0, 4.0, "tick", 4);
  EXPECT_EQ(rec.evicted(0), 1u);
  EXPECT_EQ(rec.At(0, 0).id, 1u);
  EXPECT_EQ(rec.At(0, 3).id, 4u);
}

TEST(FlightRecorder, InternsNamesOnce) {
  FlightRecorder rec;
  Probe probe(nullptr, &rec);
  for (int i = 0; i < 100; ++i) probe.Phase(0, double(i), "pbft.prepare", 0);
  probe.Phase(1, 100.0, "pbft.commit", 0);
  EXPECT_EQ(rec.num_names(), 2u);
}

TEST(FlightRecorder, ExportMetricsPublishesRingPressure) {
  FlightRecorder rec(4);
  Probe probe(nullptr, &rec);
  for (int i = 0; i < 10; ++i) probe.Phase(0, double(i), "tick", uint64_t(i));
  probe.Phase(1, 0.0, "tick", 0);

  MetricsRegistry reg;
  rec.ExportMetrics(&reg);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("recorder.ring_capacity", {}), 4.0);
  Labels n0{{"node", "0"}}, n1{{"node", "1"}};
  EXPECT_DOUBLE_EQ(reg.GaugeValue("recorder.ring_size", n0), 4.0);
  EXPECT_EQ(reg.CounterValue("recorder.recorded", n0), 10u);
  EXPECT_EQ(reg.CounterValue("recorder.evicted", n0), 6u);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("recorder.ring_size", n1), 1.0);
  EXPECT_EQ(reg.CounterValue("recorder.evicted", n1), 0u);
}

// --- RunSpec round-trip ------------------------------------------------------

TEST(RunSpec, JsonRoundTrip) {
  RunSpec s;
  s.platform = "pbft+trie+evm@shards=2";
  s.workload = "smallbank";
  s.servers = 4;
  s.clients = 3;
  s.cross_shard = 0.25;
  s.rate = 55;
  s.duration = 33;
  s.warmup = 3;
  s.drain = 7;
  s.max_outstanding = 16;
  s.seed = 11;
  s.platform_seed = 22;
  s.driver_seed = 33;
  s.ycsb_records = 500;
  s.smallbank_accounts = 600;
  s.crashes = {{2, 10.5}, {3, 12.0}};
  s.partition_start = 5;
  s.partition_end = 15;
  s.delay = 0.01;
  s.corrupt = 0.001;

  auto back = RunSpec::FromJson(s.ToJson());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->platform, s.platform);
  EXPECT_EQ(back->workload, s.workload);
  EXPECT_EQ(back->servers, s.servers);
  EXPECT_EQ(back->clients, s.clients);
  EXPECT_EQ(back->cross_shard, s.cross_shard);
  EXPECT_EQ(back->rate, s.rate);
  EXPECT_EQ(back->duration, s.duration);
  EXPECT_EQ(back->warmup, s.warmup);
  EXPECT_EQ(back->drain, s.drain);
  EXPECT_EQ(back->max_outstanding, s.max_outstanding);
  EXPECT_EQ(back->seed, s.seed);
  EXPECT_EQ(back->platform_seed, s.platform_seed);
  EXPECT_EQ(back->driver_seed, s.driver_seed);
  EXPECT_EQ(back->ycsb_records, s.ycsb_records);
  EXPECT_EQ(back->smallbank_accounts, s.smallbank_accounts);
  EXPECT_EQ(back->crashes, s.crashes);
  EXPECT_EQ(back->partition_start, s.partition_start);
  EXPECT_EQ(back->partition_end, s.partition_end);
  EXPECT_EQ(back->delay, s.delay);
  EXPECT_EQ(back->corrupt, s.corrupt);
}

TEST(RunSpec, FromJsonRejectsMissingSeed) {
  RunSpec s;
  util::Json run = s.ToJson();
  util::Json stripped = util::Json::Object();
  for (const auto& [k, v] : run.members()) {
    if (k != "driver_seed") stripped.Set(k, v);
  }
  EXPECT_FALSE(RunSpec::FromJson(stripped).ok());
}

TEST(RunSpec, ValidateNamesTheFlagAtFault) {
  EXPECT_TRUE(RunSpec{}.Validate().ok());
  RunSpec closed_loop;
  closed_loop.rate = 0;
  closed_loop.max_outstanding = 4;
  EXPECT_TRUE(closed_loop.Validate().ok());

  struct Case {
    void (*mutate)(RunSpec*);
    const char* flag;
  };
  const Case kCases[] = {
      {[](RunSpec* s) { s->servers = 0; }, "--servers"},
      {[](RunSpec* s) { s->clients = 0; }, "--clients"},
      {[](RunSpec* s) { s->rate = -5; }, "--rate"},
      {[](RunSpec* s) { s->rate = 0; }, "--rate"},  // open loop, no load
      {[](RunSpec* s) { s->duration = 0; }, "--duration"},
      {[](RunSpec* s) { s->warmup = -1; }, "--warmup"},
      {[](RunSpec* s) { s->duration = 5; }, "--warmup"},  // default warmup 10
      {[](RunSpec* s) { s->delay = -5; }, "--delay"},
      {[](RunSpec* s) { s->corrupt = 2; }, "--corrupt"},
      {[](RunSpec* s) { s->corrupt = -0.5; }, "--corrupt"},
      {[](RunSpec* s) {
         s->partition_start = 30;
         s->partition_end = 10;
       },
       "--partition"},
      {[](RunSpec* s) {
         s->partition_start = 5;
         s->partition_end = 5;
       },
       "--partition"},
      {[](RunSpec* s) { s->partition_end = 10; }, "--partition"},  // no T0
  };
  for (const Case& c : kCases) {
    RunSpec s;
    c.mutate(&s);
    Status st = s.Validate();
    ASSERT_FALSE(st.ok()) << c.flag;
    EXPECT_NE(st.message().find(c.flag), std::string::npos) << st.message();
  }

  // A replayed spec is read with the types it was written with: a
  // wrong-typed field is named instead of replaying as 0.
  const std::pair<const char*, util::Json> kRetyped[] = {
      {"seed", util::Json("x")},      {"warmup", util::Json("x")},
      {"servers", util::Json("x")},   {"servers", util::Json(-4)},
      {"clients", util::Json(2.5)},   {"platform", util::Json(3)},
      {"delay", util::Json("x")},     {"corrupt", util::Json(true)},
      {"ycsb_records", util::Json("x")},
      {"partition_start", util::Json::Array()},
  };
  for (const auto& [field, value] : kRetyped) {
    util::Json run = RunSpec{}.ToJson();
    run.Set(field, value);
    auto back = RunSpec::FromJson(run);
    ASSERT_FALSE(back.ok()) << field << " = " << value.Dump();
    EXPECT_NE(back.status().message().find(std::string("\"") + field + "\""),
              std::string::npos)
        << back.status().message();
  }
  util::Json bad_crash = RunSpec{}.ToJson();
  util::Json crashes = util::Json::Array();
  util::Json entry = util::Json::Array();
  entry.Push("x");
  entry.Push(1.0);
  crashes.Push(std::move(entry));
  bad_crash.Set("crashes", std::move(crashes));
  EXPECT_FALSE(RunSpec::FromJson(bad_crash).ok());
}

// --- End-to-end dumps --------------------------------------------------------

bench::MacroConfig BaseConfig(const char* platform_name,
                              FlightRecorder* rec) {
  auto opts = bench::OptionsFor(platform_name);
  EXPECT_TRUE(opts.ok());
  bench::MacroConfig cfg;
  cfg.options = *opts;
  cfg.servers = 4;
  cfg.clients = 2;
  cfg.rate = 10;
  cfg.duration = 20;
  cfg.drain = 10;
  cfg.warmup = 2;
  cfg.ycsb_records = 200;
  cfg.recorder = rec;
  return cfg;
}

/// Runs `cfg` with the network split in half during [t_part, t_heal).
void RunPartitioned(bench::MacroConfig cfg, double t_part, double t_heal) {
  auto run = bench::MacroRun::Create(cfg);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  sim::Network* net = &(*run)->rplatform().network();
  (*run)->rsim().At(t_part, [net] { net->Partition({0, 1}); });
  (*run)->rsim().At(t_heal, [net] { net->HealPartition(); });
  (*run)->Run();
}

util::Json PartitionedDump(const char* platform, double cross_shard,
                           FlightRecorder* rec) {
  bench::MacroConfig cfg = BaseConfig(platform, rec);
  cfg.cross_shard_ratio = cross_shard;
  // Outlive the 2PC prepare timeout (30 s), so prepares stranded by the
  // partition end in coordinator aborts.
  if (cross_shard > 0) cfg.duration = 40;
  RunPartitioned(cfg, 5.0, 10.0);
  RunSpec spec = bench::RunSpecFromMacro(cfg);
  spec.partition_start = 5.0;
  spec.partition_end = 10.0;
  BlackboxTrigger trig{"explicit", "", "golden test"};
  return rec->ToJson(spec, trig);
}

util::Json PartitionedPbftDump(FlightRecorder* rec) {
  return PartitionedDump("hyperledger", 0, rec);
}

// The golden partitioned black boxes, one per consensus engine plus a
// 2-shard PBFT run whose coordinator prepares, commits and aborts
// cross-shard transactions: each dump must validate, carry records on
// every server, and serialize byte-for-byte to its pinned digest (any
// change is a conscious golden update: print the new dump, re-verify,
// re-pin). This pins the whole recording pipeline — hook placement,
// record layout, name interning, slice traversal and JSON shape at once.
TEST(BlackboxGolden, PartitionedPbft4NodeByteForByte) {
  workloads::RegisterAllChaincodes();
  struct Case {
    const char* platform;
    double cross_shard;
    size_t nodes;  // servers (+ coordinator) + clients
    const char* digest;
  };
  const Case kCases[] = {
      {"hyperledger", 0, 6,
       "c6df644d110bb703494662d4e7006fbad64672d8dd92bff93be2e25cb2640f8d"},
      {"ethereum", 0, 6,
       "55bc98a91a43309aa0b241c69aabd60315d4a04c968d177f4f87694e69862eb3"},
      {"parity", 0, 6,
       "b171c2a09f10ccb5325d4b21d8115482b340088f7f498f204ed332a14ee43a60"},
      {"corda", 0, 6,
       "056cdb60cf44971b6c3514198f43d523c155853634dbcebaca6fdba7c6410be9"},
      {"erisdb", 0, 6,
       "4457d097a9512f506f6539d22a10229b19d1fe77eb969572eb33a6bf84fbb4cc"},
      {"hyperledger@shards=2", 0.2, 11,
       "d3d61c286e1fe43e20a1b77fa31b0f91ad2bcfe0859eb8be3799f284d28e4f32"},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.platform);
    FlightRecorder rec;
    util::Json dump = PartitionedDump(c.platform, c.cross_shard, &rec);
    ASSERT_TRUE(ValidateBlackbox(dump).ok())
        << ValidateBlackbox(dump).ToString();

    // Every server recorded something; partition edges reached every node.
    ASSERT_EQ(rec.num_nodes(), c.nodes);
    for (uint32_t n = 0; n < 4; ++n) EXPECT_GT(rec.recorded(n), 0u);
    if (c.cross_shard > 0) {
      std::set<std::string> names;
      for (uint32_t i = 0; i < rec.num_names(); ++i) names.insert(rec.Name(i));
      for (const char* xs : {"xs.prepare", "xs.commit", "xs.abort"}) {
        EXPECT_EQ(names.count(xs), 1u) << xs;
      }
    }

    std::string json = dump.Dump(2);
    FlightRecorder rec2;
    EXPECT_EQ(json, PartitionedDump(c.platform, c.cross_shard, &rec2).Dump(2));
    EXPECT_EQ(Sha256::Digest(json).ToHex(), c.digest)
        << "dump starts:\n" << json.substr(0, 2000);
  }
}

// Replay equivalence at the harness level: reconstruct the MacroConfig
// from the dumped RunSpec alone (as bbench --replay does from the file)
// and the re-run must produce a byte-identical black box.
TEST(Blackbox, ReplayFromRunSpecIsByteIdentical) {
  workloads::RegisterAllChaincodes();
  FlightRecorder rec;
  util::Json dump = PartitionedPbftDump(&rec);
  auto spec = RunSpec::FromJson(*dump.Get("run"));
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();

  FlightRecorder replay_rec;
  auto opts = bench::OptionsFor(spec->platform);
  ASSERT_TRUE(opts.ok());
  bench::MacroConfig cfg;
  cfg.options = *opts;
  cfg.servers = size_t(spec->servers);
  cfg.clients = size_t(spec->clients);
  cfg.rate = spec->rate;
  cfg.duration = spec->duration;
  cfg.drain = spec->drain;
  cfg.warmup = spec->warmup;
  cfg.seed = spec->seed;
  cfg.ycsb_records = spec->ycsb_records;
  cfg.recorder = &replay_rec;
  RunPartitioned(cfg, spec->partition_start, spec->partition_end);

  BlackboxTrigger trig{"explicit", "", "golden test"};
  EXPECT_EQ(dump.Dump(2), replay_rec.ToJson(*spec, trig).Dump(2));
}

// Dump identity across sweep --jobs values: the same partitioned cases
// run serially and on 8 worker threads must serialize byte-identical
// black boxes — nothing wall-clock- or scheduling-dependent may leak
// into a dump.
TEST(Blackbox, DumpIdenticalAcrossSweepJobs) {
  workloads::RegisterAllChaincodes();
  auto sweep = [](size_t jobs) {
    bench::BenchArgs args;
    args.jobs = jobs;
    bench::SweepRunner runner("blackbox_jobs_test", args);
    auto recs = std::make_shared<
        std::vector<std::unique_ptr<FlightRecorder>>>();
    for (const char* platform : {"hyperledger", "ethereum"}) {
      recs->push_back(std::make_unique<FlightRecorder>());
      bench::SweepCase c;
      auto opts = bench::OptionsFor(platform);
      EXPECT_TRUE(opts.ok());
      c.config.options = *opts;
      c.config.servers = 4;
      c.config.clients = 2;
      c.config.rate = 10;
      c.config.duration = 15;
      c.config.drain = 5;
      c.config.warmup = 2;
      c.config.ycsb_records = 200;
      c.config.recorder = recs->back().get();
      c.before = [](bench::MacroRun& run) {
        sim::Network* net = &run.rplatform().network();
        run.rsim().At(4.0, [net] { net->Partition({0, 1}); });
        run.rsim().At(8.0, [net] { net->HealPartition(); });
      };
      runner.Add(std::move(c));
    }
    EXPECT_TRUE(runner.Run(nullptr));
    std::vector<std::string> dumps;
    RunSpec spec;  // defaults: identity only needs a fixed spec
    BlackboxTrigger trig;
    for (auto& r : *recs) dumps.push_back(r->ToJson(spec, trig).Dump(2));
    return dumps;
  };
  std::vector<std::string> serial = sweep(1);
  std::vector<std::string> parallel = sweep(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "case " << i;
  }
}

// --- Replay breakpoint -------------------------------------------------------

// The recorder's message-seq breakpoint must stop the simulation right
// after the matching send, and the truncated run's records must be a
// prefix of the full run's (the bbench --until contract).
TEST(Blackbox, BreakSeqStopsSimulationDeterministically) {
  workloads::RegisterAllChaincodes();
  auto run_until = [](uint64_t break_seq, FlightRecorder* rec) {
    bench::MacroConfig cfg = BaseConfig("hyperledger", rec);
    rec->set_break_seq(break_seq);
    auto run = bench::MacroRun::Create(cfg);
    ASSERT_TRUE(run.ok());
    (*run)->driver().StartAll();
    (*run)->rsim().RunUntil(cfg.duration + cfg.drain);
    if (break_seq > 0) {
      EXPECT_TRUE((*run)->rsim().stop_requested());
      EXPECT_LT((*run)->rsim().Now(), cfg.duration);
    }
  };
  FlightRecorder full;
  run_until(0, &full);
  FlightRecorder truncated;
  run_until(200, &truncated);

  ASSERT_GT(truncated.num_nodes(), 0u);
  for (uint32_t n = 0; n < truncated.num_nodes(); ++n) {
    ASSERT_LE(truncated.recorded(n), full.recorded(n));
    ASSERT_EQ(truncated.evicted(n), 0u) << "truncated run wrapped";
    for (size_t i = 0; i < truncated.ring_size(n); ++i) {
      const auto& a = truncated.At(n, i);
      const auto& b = full.At(n, i);
      ASSERT_EQ(a.t, b.t) << "node " << n << " record " << i;
      ASSERT_EQ(a.kind, b.kind);
      ASSERT_EQ(a.id, b.id);
      ASSERT_EQ(truncated.Name(a.name), full.Name(b.name));
    }
  }
}

// --- Validation --------------------------------------------------------------

TEST(Blackbox, ValidatorRejectsTampering) {
  workloads::RegisterAllChaincodes();
  FlightRecorder rec(64);
  bench::MacroConfig cfg = BaseConfig("hyperledger", &rec);
  cfg.duration = 10;
  cfg.drain = 5;
  auto run = bench::MacroRun::Create(cfg);
  ASSERT_TRUE(run.ok());
  (*run)->Run();
  RunSpec spec = bench::RunSpecFromMacro(cfg);
  BlackboxTrigger trig;
  util::Json good = rec.ToJson(spec, trig);
  ASSERT_TRUE(ValidateBlackbox(good).ok())
      << ValidateBlackbox(good).ToString();

  util::Json bad_schema = rec.ToJson(spec, trig);
  bad_schema.Set("schema", "blockbench-blackbox-v999");
  EXPECT_FALSE(ValidateBlackbox(bad_schema).ok());

  util::Json no_run = rec.ToJson(spec, trig);
  no_run.Set("run", util::Json::Object());
  EXPECT_FALSE(ValidateBlackbox(no_run).ok());

  util::Json bad_ring = rec.ToJson(spec, trig);
  bad_ring.Set("ring_capacity", 0);
  EXPECT_FALSE(ValidateBlackbox(bad_ring).ok());

  // A causal-slice target is null or names a record in full: each of
  // these once passed validation and crashed the renderer.
  const util::Json& slice = *good.Get("causal_slice");
  const util::Json& target = *slice.Get("target");
  ASSERT_TRUE(target.is_object());
  std::vector<util::Json> bad_targets = {util::Json::Object(), util::Json(7)};
  for (const char* key : {"kind", "node", "t", "height"}) {
    util::Json stripped = util::Json::Object();
    util::Json retyped = util::Json::Object();
    for (const auto& [k, v] : target.members()) {
      if (k != key) stripped.Set(k, v);
      retyped.Set(k, k == key ? util::Json(k == "kind" ? util::Json(3)
                                                       : util::Json("x"))
                              : v);
    }
    bad_targets.push_back(std::move(stripped));
    bad_targets.push_back(std::move(retyped));
  }
  for (const util::Json& bad_target : bad_targets) {
    util::Json tampered = rec.ToJson(spec, trig);
    util::Json bad_slice = slice;
    bad_slice.Set("target", bad_target);
    tampered.Set("causal_slice", std::move(bad_slice));
    EXPECT_FALSE(ValidateBlackbox(tampered).ok()) << bad_target.Dump();
  }
  util::Json no_target = rec.ToJson(spec, trig);
  util::Json null_slice = slice;
  null_slice.Set("target", util::Json());
  no_target.Set("causal_slice", std::move(null_slice));
  EXPECT_TRUE(ValidateBlackbox(no_target).ok());
}

}  // namespace
}  // namespace bb::obs
