// Auditor: post-run cross-node ledger forensics.
//
// The client-side surface (throughput/latency) says a fault scenario
// *happened*; only the ledgers say what it *did*. The auditor takes
// every node's final view of the block tree, merges them into the
// global fork tree, and answers the questions behind the paper's
// security experiments (Fig 9 crash, Fig 10 partition attack):
//
//   * how many distinct blocks were ever sealed, and how many ended up
//     off the agreed chain (the paper's Δ — the double-spend window)?
//   * how deep did fork branches grow, and how much chain-work
//     (mining effort) was wasted on them?
//   * how far had individual ledgers diverged by the end of the run?
//   * were safety invariants kept — no two conflicting blocks both
//     confirmed, canonical chains structurally sound, all honest nodes
//     agreeing after a partition heals?
//   * after the heal, how long until the next block committed (the
//     Hyperledger-model recovery gap)?
//
// Inputs are neutral NodeChainView records rather than chain::ChainStore
// (bb_chain links bb_obs, so obs cannot look back up the stack);
// platform::CollectAuditViews (platform/forensics.h) does the
// extraction. Reports are deterministic: all iteration is over sorted
// keys, so the serialized blockbench-audit-v1 document is byte-identical
// across runs and is pinned by golden tests.

#ifndef BLOCKBENCH_OBS_AUDITOR_H_
#define BLOCKBENCH_OBS_AUDITOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/status.h"

namespace bb::obs {

/// One block as recorded by one node's chain store, platform-neutral.
struct AuditBlock {
  std::string hash;    // hex digest
  std::string parent;  // hex digest of the parent
  uint64_t height = 0;
  uint32_t proposer = 0;
  double timestamp = 0;  // virtual seconds when sealed
  uint64_t weight = 1;   // chain-work carried (PoW difficulty; else 1)
  bool canonical = false;  // on THIS node's canonical chain
};

/// One cross-shard commit-protocol record replayed from a node's
/// canonical chain (sharded platforms only). `phase` is "prepare" or
/// "abort" for the sealed __xshard marker records, "commit" for the
/// sealed original transaction.
struct XsRecord {
  uint64_t base_id = 0;  // the client transaction id (phase bits cleared)
  std::string phase;
  std::vector<uint32_t> participants;  // prepare only: the shard set
  double timestamp = 0;                // seal time of the carrying block
};

/// One node's complete final ledger view (genesis excluded).
struct NodeChainView {
  uint32_t node = 0;
  /// Consensus group this node belongs to (0 when unsharded). Nodes are
  /// only compared against peers in the same shard; each shard grows an
  /// independent chain off the shared genesis.
  uint32_t shard = 0;
  bool crashed = false;
  std::string genesis;  // hex digest every chain must root at
  std::string head;
  uint64_t head_height = 0;
  uint64_t reorgs = 0;
  uint64_t invalid_blocks = 0;
  std::vector<AuditBlock> blocks;
  /// Cross-shard 2PC records on this node's canonical chain, in seal
  /// order (empty when unsharded).
  std::vector<XsRecord> xs_records;
};

struct AuditorConfig {
  /// Blocks below a node's head that count as confirmed for clients
  /// (0 = immediate finality). A fork branch outgrowing this depth means
  /// confirmed transactions were discarded — the double-spend condition.
  uint64_t confirmation_depth = 0;
  /// When the partition healed (virtual seconds); < 0 = no partition.
  double heal_time = -1;
  /// End of the run (bounds the over-time series).
  double end_time = 0;
  /// Bin width of the sealed/forked-over-time series, seconds.
  double series_bin = 10;
  /// Number of consensus groups the views split into (1 = unsharded).
  /// When > 1, structural invariants run per shard and the
  /// cross_shard_atomicity invariant replays the sealed 2PC records.
  uint32_t num_shards = 1;
  /// Cross-shard decisions whose prepare sealed within this many virtual
  /// seconds of end_time may still be legitimately in flight; they are
  /// counted but not treated as atomicity violations.
  double xs_grace = 10;
};

struct AuditViolation {
  std::string invariant;
  std::string detail;
};

/// The audit result. ToJson() renders the blockbench-audit-v1 document.
struct AuditReport {
  // --- Global fork tree (union of every node's blocks) --------------------
  uint64_t distinct_blocks = 0;
  uint64_t agreed_blocks = 0;   // on the reference (heaviest live) chain
  uint64_t forked_blocks = 0;   // distinct - agreed: the paper's Δ
  double forked_pct = 0;        // forked / distinct * 100
  uint64_t fork_points = 0;     // blocks (or genesis) with > 1 child
  uint64_t branches = 0;        // maximal branches off the agreed chain
  uint64_t max_branch_depth = 0;  // longest such branch, in blocks
  uint64_t wasted_weight = 0;     // chain-work sealed into forked blocks

  // --- Per-node divergence at run end -------------------------------------
  struct NodeSummary {
    uint32_t node = 0;
    bool crashed = false;
    uint64_t head_height = 0;
    uint64_t known_blocks = 0;      // attached in this node's store
    uint64_t canonical_blocks = 0;  // on its own canonical chain
    uint64_t forked_blocks = 0;
    uint64_t reorgs = 0;
    /// Distance from this node's head back to the first block shared
    /// with the reference chain (0 = head is on the agreed chain).
    uint64_t divergence_depth = 0;
  };
  std::vector<NodeSummary> nodes;

  // --- Over time (bins of config.series_bin virtual seconds) --------------
  std::vector<uint64_t> sealed_per_bin;
  std::vector<uint64_t> forked_per_bin;

  // --- Recovery after the heal --------------------------------------------
  /// Timestamp of the first agreed-chain block sealed at/after heal_time;
  /// -1 when no heal was configured or nothing committed afterwards.
  double first_seal_after_heal = -1;
  /// first_seal_after_heal - heal_time; -1 when not applicable. The
  /// Hyperledger model's "recovers ~50 s slower" shows up here.
  double recovery_gap = -1;

  // --- Cross-shard 2PC replay (sharded runs only) -------------------------
  uint64_t xs_decisions = 0;  // distinct base ids with a sealed prepare
  uint64_t xs_committed = 0;  // decided commit on every participant
  uint64_t xs_aborted = 0;    // decided abort on every participant
  uint64_t xs_in_flight = 0;  // undecided but inside the grace window

  std::vector<AuditViolation> violations;

  bool ok() const { return violations.empty(); }

  /// The blockbench-audit-v1 document (deterministic member order).
  util::Json ToJson(const AuditorConfig& config) const;
  /// Human-readable summary block for bench output.
  std::string RenderTable() const;
};

/// Accumulates node views, then Run() builds the report.
class Auditor {
 public:
  explicit Auditor(AuditorConfig config = {}) : config_(std::move(config)) {}

  void AddNode(NodeChainView view) { views_.push_back(std::move(view)); }
  size_t num_nodes() const { return views_.size(); }

  /// Reconstructs the fork tree and checks every invariant. Views are
  /// consumed read-only; Run() may be called repeatedly. Sharded configs
  /// audit each shard's group independently, merge the results, and then
  /// replay the cross-shard 2PC records for atomicity.
  AuditReport Run() const;

 private:
  /// The single-group audit (the whole pre-sharding pipeline).
  AuditReport RunGroup(const std::vector<const NodeChainView*>& views) const;
  void CheckCrossShardAtomicity(AuditReport* rep) const;

  AuditorConfig config_;
  std::vector<NodeChainView> views_;
};

/// Structural validation of a parsed blockbench-audit-v1 document:
/// schema tag, required sections, fork-tree arithmetic (distinct =
/// agreed + forked), per-node summaries consistent with the tree, series
/// arrays of equal length, and an "ok" that matches the violations list.
Status ValidateAudit(const util::Json& doc);

/// One-line summary of a validated audit document: blocks, forked share,
/// deepest branch, violation count and the post-heal recovery gap.
std::string RenderAuditSummary(const util::Json& doc);

/// recovery.gap_seconds of a validated audit document; -1 when absent.
double AuditRecoveryGap(const util::Json& doc);

}  // namespace bb::obs

#endif  // BLOCKBENCH_OBS_AUDITOR_H_
