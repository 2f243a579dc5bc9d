// Tracer: a span/event recorder keyed on virtual simulation time.
//
// One Tracer serves one sim::Simulation, attached as a sink of the
// obs::Probe (obs/probe.h) that hook sites reach through
// Simulation::probe(), which is null when no sink is attached — the
// entire instrumentation cost in disabled mode is one pointer test per
// hook site. All timestamps are virtual seconds, and events are stored
// in dispatch order, so a trace is byte-identical across runs and
// across sweep --jobs values (each run owns its simulation and tracer).
//
// Two event families:
//  * spans/instants on a (node, category, name) axis — consensus engines
//    emit their named phases here ("pbft.prepare", "pow.mine", ...);
//  * transaction lifecycle milestones (submit -> admit -> propose ->
//    commit -> confirm) recorded first-wins per tx id; each adjacent
//    milestone pair becomes an async span ("tx.admission",
//    "tx.pool_wait", "tx.consensus", "tx.confirmation") whose durations
//    telescope to exactly the client-measured commit latency.
//
// Serialization targets the Chrome trace_event JSON format, loadable in
// Perfetto (ui.perfetto.dev) and chrome://tracing. See
// docs/OBSERVABILITY.md.

#ifndef BLOCKBENCH_OBS_TRACE_H_
#define BLOCKBENCH_OBS_TRACE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/json.h"
#include "util/status.h"

namespace bb::obs {

class Tracer {
 public:
  /// Transaction lifecycle milestones, in causal order.
  enum TxPhase : uint8_t {
    kSubmit = 0,   // client hands the tx to its server
    kAdmit,        // a server pool accepts it (direct or via gossip)
    kPropose,      // a proposer packs it into a block
    kCommit,       // first canonical execution commits it
    kConfirm,      // the submitting client observes the commit
  };
  static constexpr size_t kNumTxPhases = 5;
  /// Span between milestone `leg` and `leg + 1` (4 legs total).
  static constexpr size_t kNumTxSpans = kNumTxPhases - 1;
  static const char* TxSpanName(size_t leg);

  /// Milestone timestamps for one tx; entries are -1 until recorded.
  using TxMilestones = std::array<double, kNumTxPhases>;

  // --- Recording (hot path when enabled) ---------------------------------

  /// A closed span [start, end] on node `node`'s track, with an
  /// optional single numeric arg (none when `arg_key` is null).
  void CompleteSpan(uint32_t node, const char* cat, const char* name,
                    double start, double end, const char* arg_key = nullptr,
                    double arg_value = 0) {
    PushEvent(node, cat, name, 'X', start, end - start, 0, arg_key, arg_value);
  }
  /// A point event on node `node`'s track, with an optional arg.
  void Instant(uint32_t node, const char* cat, const char* name, double t,
               const char* arg_key = nullptr, double arg_value = 0) {
    PushEvent(node, cat, name, 'i', t, 0, 0, arg_key, arg_value);
  }
  /// A counter sample: one point of the per-node counter track
  /// (name, id=node) — the obs::Sampler's output primitive. Renders as a
  /// Chrome trace_event counter ("ph":"C"); Perfetto draws one track per
  /// (name, id) pair.
  void Counter(uint32_t node, const char* cat, const char* name, double t,
               double value) {
    PushEvent(node, cat, name, 'C', t, 0, node, "value", value);
  }
  /// Flow arrow start/end linking a message send to its delivery across
  /// node tracks ('s'/'f' pairs share the message seq as id; Perfetto
  /// renders them as arrows). Each call also records a zero-duration
  /// anchor span on the node track for the arrow to bind to. A send
  /// whose message is dropped in flight leaves an unmatched 's' —
  /// AnalyzeChromeTrace treats that as legal (the arrow just never lands).
  void FlowBegin(uint32_t node, const char* cat, const char* name, double t,
                 uint64_t id) {
    PushEvent(node, cat, name, 'X', t, 0, 0, nullptr, 0);
    PushEvent(node, cat, name, 's', t, 0, id, nullptr, 0);
  }
  void FlowEnd(uint32_t node, const char* cat, const char* name, double t,
               uint64_t id) {
    PushEvent(node, cat, name, 'X', t, 0, 0, nullptr, 0);
    PushEvent(node, cat, name, 'f', t, 0, id, nullptr, 0);
  }

  /// Records milestone `phase` at time t, first writer wins; emits the
  /// async span from the previous milestone once both ends are known.
  /// kSubmit starts (or restarts, on client retry after a rejection) the
  /// record, clearing later milestones. Returns the tx's record.
  const TxMilestones& TxMilestone(uint64_t tx_id, TxPhase phase, double t);
  /// Milestone record for a tx, nullptr if never seen.
  const TxMilestones* FindTx(uint64_t tx_id) const;

  // --- Introspection / export --------------------------------------------

  size_t num_events() const { return events_.size(); }
  size_t num_tx() const { return tx_.size(); }

  /// Whole trace as a Chrome trace_event JSON document (for tests and
  /// golden digests).
  std::string DumpChromeTrace() const;
  /// Streams the trace to `path` through a BufferedWriter.
  Status WriteChromeTrace(const std::string& path) const;

 private:
  struct Event {
    const char* cat;      // static-lifetime strings only
    const char* name;
    const char* arg_key;  // optional single numeric arg
    double ts;            // virtual seconds
    double dur;           // seconds, 'X' only
    double arg_val;
    uint64_t id;          // async pair id ('b'/'e'), counter ('C'), flow ('s'/'f')
    uint32_t tid;
    char ph;              // 'X', 'i', 'b', 'e', 'C', 's', 'f'
  };

  // Inline so bb_sim (below bb_obs in the link graph) can emit flow
  // events without a link-time dependency.
  void PushEvent(uint32_t tid, const char* cat, const char* name, char ph,
                 double ts, double dur, uint64_t id, const char* arg_key,
                 double arg_val) {
    if (tid > max_tid_) max_tid_ = tid;
    events_.push_back(Event{cat, name, arg_key, ts, dur, arg_val, id, tid, ph});
  }

  void RenderTo(const std::function<void(const std::string&)>& sink) const;
  static void RenderEvent(const Event& e, std::string* out);

  std::vector<Event> events_;
  std::unordered_map<uint64_t, TxMilestones> tx_;
  uint32_t max_tid_ = 0;
};

/// What a Chrome trace says about a run, gathered while validating it.
struct TraceSummary {
  struct SpanStats {
    uint64_t count = 0;
    double total_us = 0;
  };
  struct CounterStats {
    uint64_t samples = 0;
    std::map<std::string, uint64_t> tracks;  // id -> samples on that track
    double min = 0, max = 0;
  };
  uint64_t events = 0, complete_spans = 0, instants = 0, async_pairs = 0;
  uint64_t counter_samples = 0;
  uint64_t flow_starts = 0, flow_ends = 0;
  std::map<std::string, SpanStats> x_spans;      // "cat/name" -> stats
  std::map<std::string, CounterStats> counters;  // "cat/name" -> stats
  /// tx id -> per-leg duration in µs (-1 until seen).
  std::map<std::string, std::array<double, Tracer::kNumTxSpans>> tx_legs;
};

/// Structural validation of a parsed Chrome trace_event document (the
/// Tracer's output), filling `out` on the way. Every event needs a known
/// phase ('X', 'i', 'b', 'e', 'C', 'M', 's', 'f') and a timestamp;
/// complete spans need a non-negative duration; every async 'b' needs a
/// matching 'e' with the same (cat, name, id) at a later-or-equal time;
/// counter samples need an id and numeric-only args; every flow finish
/// needs a prior start with the same (cat, id). An unmatched flow start
/// is legal: the message was dropped in flight.
Status AnalyzeChromeTrace(const util::Json& doc, TraceSummary* out);

/// The event counts line, then the commit-latency critical path of every
/// complete transaction (per-leg mean, which telescopes to the mean
/// commit latency, and per-leg p95), named spans and counter tracks.
std::string RenderTraceSummary(const TraceSummary& t);

}  // namespace bb::obs

#endif  // BLOCKBENCH_OBS_TRACE_H_
