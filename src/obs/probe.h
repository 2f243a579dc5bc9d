// Probe: the one attach point for the instruments that record *facts*
// of a run — the Tracer (spans, instants and flow arrows for Perfetto)
// and the FlightRecorder (bounded black-box rings for post-mortems).
//
// A Probe holds the two optional, non-owned sinks and has one method per
// fact. Each method renders the fact into every attached sink's own
// vocabulary, so a hook site states a fact once and tests one pointer:
//
//   if (auto* p = sim->probe()) p->Phase(node, now, "pbft.prepare", ...);
//
// Simulation::probe() is null unless a sink is attached. Everything here
// is inline, like the sinks' recording paths, so bb_sim can record
// without a link-time dependency on bb_obs. Byte and wall-time
// accounting (MemTracker, Profiler) keep their own attach points. See
// docs/OBSERVABILITY.md.

#ifndef BLOCKBENCH_OBS_PROBE_H_
#define BLOCKBENCH_OBS_PROBE_H_

#include <cstdint>
#include <string>

#include "obs/recorder.h"
#include "obs/trace.h"

namespace bb::obs {

/// What the tracer draws for a consensus phase: nothing, an instant at
/// the phase time, or a closed span, tagged with an optional key=value.
struct Mark {
  enum Shape : uint8_t { kNone, kInstant, kSpan };
  Shape shape = kNone;
  double start = 0, end = 0;
  const char* key = nullptr;
  double value = 0;

  static Mark Instant(const char* key = nullptr, double value = 0) {
    return Mark{kInstant, 0, 0, key, value};
  }
  /// The span [start, end]; nothing when `start` was never stamped (< 0).
  static Mark Span(double start, double end, const char* key, double value) {
    return Mark{start < 0 ? kNone : kSpan, start, end, key, value};
  }
};

class Probe {
 public:
  using Kind = FlightRecorder::Kind;

  /// Either sink may be null; neither is owned.
  Probe(Tracer* tracer, FlightRecorder* recorder)
      : tracer_(tracer), recorder_(recorder) {}

  bool empty() const { return tracer_ == nullptr && recorder_ == nullptr; }
  /// True when phase spans are drawn (state kept only to start a span
  /// can be skipped otherwise).
  bool tracing() const { return tracer_ != nullptr; }

  // --- Network -------------------------------------------------------------

  /// A send attempt and its outcome: the recorder logs every attempt and
  /// the drop, the tracer draws a flow arrow only for a message that
  /// leaves. Returns true once the recorder's replay breakpoint
  /// (set_break_seq) is reached, so the caller stops right after it.
  bool MsgSend(uint32_t node, double t, uint64_t seq, uint32_t to,
               const std::string& type, uint64_t bytes, bool dropped) {
    if (tracer_ != nullptr && !dropped) {
      tracer_->FlowBegin(node, "net", "net.send", t, seq);
    }
    if (recorder_ == nullptr) return false;
    recorder_->Log(node, Kind::kSend, t, type, seq, bytes, to);
    if (dropped) recorder_->Log(node, Kind::kDrop, t, type, seq, 0, to);
    return recorder_->break_seq() != 0 && seq >= recorder_->break_seq();
  }
  void MsgRecv(uint32_t node, double t, uint64_t seq, uint32_t from,
               const std::string& type, uint64_t bytes) {
    if (tracer_ != nullptr) tracer_->FlowEnd(node, "net", "net.recv", t, seq);
    if (recorder_ != nullptr) {
      recorder_->Log(node, Kind::kRecv, t, type, seq, bytes, from);
    }
  }
  /// A message lost at delivery time (the fault state changed mid-hop or
  /// the receiver's inbox filled up).
  void MsgDrop(uint32_t node, double t, uint64_t seq, uint32_t from,
               const std::string& type) {
    if (recorder_ != nullptr) {
      recorder_->Log(node, Kind::kDrop, t, type, seq, 1, from);
    }
  }
  /// Fault-schedule edge: kCrash/kRecover/kPartition/kHeal, `aux` = the
  /// partition side.
  void Fault(Kind kind, uint32_t node, double t, uint64_t aux = 0) {
    if (tracer_ != nullptr) {
      static const char* const kNames[] = {"fault.crash", "fault.recover",
                                           "fault.partition", "fault.heal"};
      const char* name = kNames[size_t(kind) - size_t(Kind::kCrash)];
      if (kind == Kind::kPartition) {
        tracer_->Instant(node, "fault", name, t, "side", double(aux));
      } else {
        tracer_->Instant(node, "fault", name, t);
      }
    }
    if (recorder_ != nullptr) {
      recorder_->Log(node, kind, t, FlightRecorder::KindName(kind), 0, aux);
    }
  }

  // --- Consensus -------------------------------------------------------------

  /// A consensus phase transition ("pbft.prepare", "xs.commit", ...) at
  /// `t`: the recorder logs (id, aux), the tracer draws `mark`.
  void Phase(uint32_t node, double t, const char* name, uint64_t id,
             uint64_t aux = 0, const Mark& mark = {}) {
    if (tracer_ != nullptr && mark.shape == Mark::kInstant) {
      tracer_->Instant(node, "consensus", name, t, mark.key, mark.value);
    } else if (tracer_ != nullptr && mark.shape == Mark::kSpan) {
      tracer_->CompleteSpan(node, "consensus", name, mark.start, mark.end,
                            mark.key, mark.value);
    }
    if (recorder_ != nullptr) {
      recorder_->Log(node, Kind::kPhase, t, name, id, aux);
    }
  }
  /// A timer that fired and changed behaviour.
  void Timer(uint32_t node, double t, const char* name, uint64_t id) {
    if (recorder_ != nullptr) recorder_->Log(node, Kind::kTimer, t, name, id);
  }
  /// An engine saw its head move to another branch. Tracer only: the
  /// recorder's fork switch comes from the executing node, which knows
  /// the rewind depth (ForkSwitch).
  void EngineForkSwitch(uint32_t node, double t, const char* name,
                        uint64_t height) {
    if (tracer_ != nullptr) {
      tracer_->Instant(node, "consensus", name, t, "height", double(height));
    }
  }

  // --- Chain -----------------------------------------------------------------

  /// Block assembled at `height`; `prefix` identifies its content.
  void Seal(uint32_t node, double t, uint64_t height, uint64_t prefix) {
    if (recorder_ != nullptr) {
      recorder_->Log(node, Kind::kSeal, t, "block.seal", height, prefix);
    }
  }
  /// Canonical execution of the block at `height`.
  void Commit(uint32_t node, double t, uint64_t height, uint64_t prefix) {
    if (recorder_ != nullptr) {
      recorder_->Log(node, Kind::kCommit, t, "block.commit", height, prefix);
    }
  }
  /// Execution rewound `depth` blocks to follow a new head at `height`.
  void ForkSwitch(uint32_t node, double t, uint64_t height, uint64_t depth) {
    if (recorder_ != nullptr) {
      recorder_->Log(node, Kind::kForkSwitch, t, "chain.fork_switch", height,
                     depth);
    }
  }

  // --- Transactions, samples, sink accounting --------------------------------

  /// Stamps lifecycle milestone `phase` of `tx_id` and returns the tx's
  /// milestone record (nullptr without a tracer).
  const Tracer::TxMilestones* TxMilestone(uint64_t tx_id,
                                          Tracer::TxPhase phase, double t) {
    return tracer_ != nullptr ? &tracer_->TxMilestone(tx_id, phase, t)
                              : nullptr;
  }
  /// One live-sampler gauge reading (a tracer counter-track point).
  void Sample(uint32_t node, const char* name, double t, double value) {
    if (tracer_ != nullptr) tracer_->Counter(node, "sampler", name, t, value);
  }
  /// Bytes held by `node`'s recorder ring (0 without a recorder).
  uint64_t RingBytes(uint32_t node) const {
    if (recorder_ == nullptr) return 0;
    return recorder_->ring_size(node) * sizeof(FlightRecorder::Record);
  }
  /// The recorder's ring occupancy and eviction gauges, if attached.
  void ExportMetrics(MetricsRegistry* reg) const {
    if (recorder_ != nullptr) recorder_->ExportMetrics(reg);
  }

 private:
  Tracer* tracer_;
  FlightRecorder* recorder_;
};

}  // namespace bb::obs

#endif  // BLOCKBENCH_OBS_PROBE_H_
