#include "obs/auditor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

namespace bb::obs {

namespace {

/// One distinct block in the global fork tree, with which nodes saw it.
struct TreeBlock {
  AuditBlock block;
  std::set<uint32_t> seen_by;
  std::set<uint32_t> canonical_on;
};

std::string Shorten(const std::string& hash) {
  return hash.size() > 12 ? hash.substr(0, 12) : hash;
}

}  // namespace

AuditReport Auditor::RunGroup(
    const std::vector<const NodeChainView*>& views) const {
  AuditReport rep;
  AuditorConfig cfg = config_;
  // All maps are keyed by hash (or height); iteration order is sorted,
  // which is what makes the report deterministic.
  std::map<std::string, TreeBlock> tree;
  std::string genesis = views.empty() ? "" : views.front()->genesis;

  auto violate = [&rep](const char* invariant, std::string detail) {
    rep.violations.push_back(AuditViolation{invariant, std::move(detail)});
  };

  // --- Merge every view into the global tree ------------------------------
  for (const NodeChainView* vp : views) {
    const NodeChainView& v = *vp;
    if (v.genesis != genesis) {
      violate("view_consistency",
              "node " + std::to_string(v.node) + " roots at genesis " +
                  Shorten(v.genesis) + ", node " +
                  std::to_string(views.front()->node) + " at " +
                  Shorten(genesis));
    }
    for (const AuditBlock& b : v.blocks) {
      auto [it, inserted] = tree.emplace(b.hash, TreeBlock{b, {}, {}});
      TreeBlock& tb = it->second;
      if (!inserted && (tb.block.parent != b.parent ||
                        tb.block.height != b.height)) {
        violate("view_consistency",
                "block " + Shorten(b.hash) + " has conflicting "
                "parent/height across nodes");
      }
      tb.seen_by.insert(v.node);
      if (b.canonical) tb.canonical_on.insert(v.node);
    }
  }
  rep.distinct_blocks = tree.size();

  // --- Structural invariant: heights follow parents -----------------------
  for (const auto& [hash, tb] : tree) {
    const AuditBlock& b = tb.block;
    if (b.parent == genesis) {
      if (b.height != 1) {
        violate("height_continuity", "block " + Shorten(hash) +
                                         " extends genesis at height " +
                                         std::to_string(b.height));
      }
      continue;
    }
    auto parent = tree.find(b.parent);
    if (parent == tree.end()) {
      violate("height_continuity", "block " + Shorten(hash) +
                                       " has unknown parent " +
                                       Shorten(b.parent));
    } else if (b.height != parent->second.block.height + 1) {
      violate("height_continuity",
              "block " + Shorten(hash) + " at height " +
                  std::to_string(b.height) + " extends a parent at height " +
                  std::to_string(parent->second.block.height));
    }
  }

  // --- Per-node canonical chains ------------------------------------------
  // node -> (height -> hash), plus structural checks on each chain.
  std::map<uint32_t, std::map<uint64_t, std::string>> canon;
  for (const NodeChainView* vp : views) {
    const NodeChainView& v = *vp;
    std::map<uint64_t, std::string>& chain = canon[v.node];
    for (const AuditBlock& b : v.blocks) {
      if (!b.canonical) continue;
      auto [it, inserted] = chain.emplace(b.height, b.hash);
      if (!inserted) {
        violate("canonical_completeness",
                "node " + std::to_string(v.node) + " has two canonical "
                "blocks at height " + std::to_string(b.height));
      }
    }
    if (chain.size() != v.head_height) {
      violate("canonical_completeness",
              "node " + std::to_string(v.node) + " head height " +
                  std::to_string(v.head_height) + " but " +
                  std::to_string(chain.size()) + " canonical blocks");
    }
    for (uint64_t h = 1; h <= v.head_height; ++h) {
      if (chain.find(h) == chain.end()) {
        violate("canonical_completeness",
                "node " + std::to_string(v.node) +
                    " canonical chain has a gap at height " +
                    std::to_string(h));
        break;  // one gap report per node is enough
      }
    }
  }

  // --- Reference chain: heaviest canonical chain among live nodes ---------
  // (falls back to all nodes when everything crashed). This is the chain
  // an honest client would follow at run end.
  const NodeChainView* ref_view = nullptr;
  uint64_t ref_weight = 0;
  for (const NodeChainView* vp : views) {
    const NodeChainView& v = *vp;
    if (v.crashed) continue;
    uint64_t w = 0;
    for (const AuditBlock& b : v.blocks) {
      if (b.canonical) w += b.weight;
    }
    if (ref_view == nullptr || w > ref_weight ||
        (w == ref_weight && v.head_height > ref_view->head_height)) {
      ref_view = &v;
      ref_weight = w;
    }
  }
  if (ref_view == nullptr && !views.empty()) ref_view = views.front();

  std::set<std::string> agreed;  // hashes on the reference chain
  if (ref_view != nullptr) {
    for (const AuditBlock& b : ref_view->blocks) {
      if (b.canonical) agreed.insert(b.hash);
    }
  }
  rep.agreed_blocks = agreed.size();
  rep.forked_blocks = rep.distinct_blocks - rep.agreed_blocks;
  rep.forked_pct = rep.distinct_blocks > 0
                       ? 100.0 * double(rep.forked_blocks) /
                             double(rep.distinct_blocks)
                       : 0.0;

  // --- Fork-tree shape ----------------------------------------------------
  std::map<std::string, uint64_t> child_count;
  for (const auto& [hash, tb] : tree) ++child_count[tb.block.parent];
  for (const auto& [parent, n] : child_count) {
    if (n > 1) ++rep.fork_points;
  }
  // Branch roots: forked blocks extending the agreed chain (or genesis).
  // Depth via heights: blocks sorted by (height, hash) see their parent
  // first, so one pass computes each forked block's branch depth.
  std::map<std::string, uint64_t> branch_depth;
  std::vector<const TreeBlock*> by_height;
  by_height.reserve(tree.size());
  for (const auto& [hash, tb] : tree) by_height.push_back(&tb);
  std::stable_sort(by_height.begin(), by_height.end(),
                   [](const TreeBlock* a, const TreeBlock* b) {
                     return a->block.height < b->block.height;
                   });
  for (const TreeBlock* tb : by_height) {
    const AuditBlock& b = tb->block;
    if (agreed.count(b.hash) != 0) continue;
    rep.wasted_weight += b.weight;
    auto parent_depth = branch_depth.find(b.parent);
    if (parent_depth == branch_depth.end()) {
      // Parent is agreed or genesis: this block starts a branch.
      branch_depth[b.hash] = 1;
      ++rep.branches;
    } else {
      branch_depth[b.hash] = parent_depth->second + 1;
    }
    rep.max_branch_depth = std::max(rep.max_branch_depth,
                                    branch_depth[b.hash]);
  }

  // --- Per-node summaries and divergence ----------------------------------
  for (const NodeChainView* vp : views) {
    const NodeChainView& v = *vp;
    AuditReport::NodeSummary ns;
    ns.node = v.node;
    ns.crashed = v.crashed;
    ns.head_height = v.head_height;
    ns.known_blocks = v.blocks.size();
    for (const AuditBlock& b : v.blocks) {
      if (b.canonical) ++ns.canonical_blocks;
    }
    ns.forked_blocks = ns.known_blocks - ns.canonical_blocks;
    ns.reorgs = v.reorgs;
    // Walk the head's ancestry until it joins the reference chain.
    std::string cursor = v.head;
    while (cursor != genesis && agreed.count(cursor) == 0) {
      auto it = tree.find(cursor);
      if (it == tree.end()) break;  // already reported as discontinuity
      ++ns.divergence_depth;
      cursor = it->second.block.parent;
    }
    rep.nodes.push_back(ns);
  }
  std::sort(rep.nodes.begin(), rep.nodes.end(),
            [](const AuditReport::NodeSummary& a,
               const AuditReport::NodeSummary& b) { return a.node < b.node; });

  // --- Over-time series ---------------------------------------------------
  double span = cfg.end_time;
  for (const auto& [hash, tb] : tree) {
    span = std::max(span, tb.block.timestamp);
  }
  size_t bins = cfg.series_bin > 0 ? size_t(span / cfg.series_bin) + 1 : 0;
  rep.sealed_per_bin.assign(bins, 0);
  rep.forked_per_bin.assign(bins, 0);
  if (bins > 0) {
    for (const auto& [hash, tb] : tree) {
      size_t bin = std::min(bins - 1,
                            size_t(tb.block.timestamp / cfg.series_bin));
      ++rep.sealed_per_bin[bin];
      if (agreed.count(hash) == 0) ++rep.forked_per_bin[bin];
    }
  }

  // --- Recovery gap after the heal ----------------------------------------
  if (cfg.heal_time >= 0) {
    double first = -1;
    for (const std::string& hash : agreed) {
      const TreeBlock& tb = tree.at(hash);
      if (tb.block.timestamp >= cfg.heal_time &&
          (first < 0 || tb.block.timestamp < first)) {
        first = tb.block.timestamp;
      }
    }
    rep.first_seal_after_heal = first;
    rep.recovery_gap = first >= 0 ? first - cfg.heal_time : -1;
  }

  // --- Safety invariants over confirmed state -----------------------------
  // Conflicting finality: two live nodes each confirmed a different
  // block at one height — the realized double-spend of Fig 10.
  std::map<uint64_t, std::set<std::string>> confirmed_at;
  for (const NodeChainView* vp : views) {
    const NodeChainView& v = *vp;
    if (v.crashed) continue;
    uint64_t confirmed = v.head_height > cfg.confirmation_depth
                             ? v.head_height - cfg.confirmation_depth
                             : 0;
    const std::map<uint64_t, std::string>& chain = canon[v.node];
    for (const auto& [h, hash] : chain) {
      if (h <= confirmed) confirmed_at[h].insert(hash);
    }
  }
  uint64_t conflicting_heights = 0;
  std::string first_conflict;
  for (const auto& [h, hashes] : confirmed_at) {
    if (hashes.size() > 1) {
      if (conflicting_heights == 0) {
        first_conflict = "height " + std::to_string(h) + ": " +
                         Shorten(*hashes.begin()) + " vs " +
                         Shorten(*std::next(hashes.begin()));
      }
      ++conflicting_heights;
    }
  }
  if (conflicting_heights > 0) {
    violate("conflicting_finality",
            std::to_string(conflicting_heights) +
                " height(s) with two confirmed blocks on live nodes, "
                "first at " + first_conflict);
  }

  // Confirmed-fork depth: a branch that outgrew the confirmation depth
  // means blocks confirmed during the run were discarded later, even if
  // the final views now agree.
  if (rep.max_branch_depth > cfg.confirmation_depth &&
      rep.forked_blocks > 0) {
    violate("confirmed_fork_depth",
            "a fork branch reached depth " +
                std::to_string(rep.max_branch_depth) +
                " > confirmation depth " +
                std::to_string(cfg.confirmation_depth) +
                ": confirmed blocks were discarded (double-spend window)");
  }

  // Post-heal agreement: once the partition healed, every live node must
  // be back on the agreed chain (up to normal tip lag).
  if (cfg.heal_time >= 0) {
    for (const AuditReport::NodeSummary& ns : rep.nodes) {
      if (ns.crashed) continue;
      if (ns.divergence_depth > cfg.confirmation_depth) {
        violate("post_heal_agreement",
                "node " + std::to_string(ns.node) + " still diverges by " +
                    std::to_string(ns.divergence_depth) +
                    " blocks after the heal");
      }
    }
  }

  return rep;
}

AuditReport Auditor::Run() const {
  std::vector<const NodeChainView*> all;
  all.reserve(views_.size());
  for (const NodeChainView& v : views_) all.push_back(&v);
  if (config_.num_shards <= 1) return RunGroup(all);

  // Shards grow independent chains off the shared genesis, so the
  // structural audit runs per consensus group — one shard's blocks are
  // not forks of another's — and the results merge into one report.
  std::map<uint32_t, std::vector<const NodeChainView*>> groups;
  for (const NodeChainView& v : views_) groups[v.shard].push_back(&v);
  AuditReport rep;
  for (auto& [shard, group] : groups) {
    AuditReport sub = RunGroup(group);
    rep.distinct_blocks += sub.distinct_blocks;
    rep.agreed_blocks += sub.agreed_blocks;
    rep.forked_blocks += sub.forked_blocks;
    rep.fork_points += sub.fork_points;
    rep.branches += sub.branches;
    rep.max_branch_depth = std::max(rep.max_branch_depth,
                                    sub.max_branch_depth);
    rep.wasted_weight += sub.wasted_weight;
    rep.nodes.insert(rep.nodes.end(), sub.nodes.begin(), sub.nodes.end());
    if (sub.sealed_per_bin.size() > rep.sealed_per_bin.size()) {
      rep.sealed_per_bin.resize(sub.sealed_per_bin.size(), 0);
      rep.forked_per_bin.resize(sub.sealed_per_bin.size(), 0);
    }
    for (size_t i = 0; i < sub.sealed_per_bin.size(); ++i) {
      rep.sealed_per_bin[i] += sub.sealed_per_bin[i];
    }
    for (size_t i = 0; i < sub.forked_per_bin.size(); ++i) {
      rep.forked_per_bin[i] += sub.forked_per_bin[i];
    }
    if (sub.first_seal_after_heal >= 0 &&
        (rep.first_seal_after_heal < 0 ||
         sub.first_seal_after_heal < rep.first_seal_after_heal)) {
      rep.first_seal_after_heal = sub.first_seal_after_heal;
      rep.recovery_gap = sub.recovery_gap;
    }
    for (AuditViolation& viol : sub.violations) {
      viol.detail = "shard " + std::to_string(shard) + ": " + viol.detail;
      rep.violations.push_back(std::move(viol));
    }
  }
  rep.forked_pct =
      rep.distinct_blocks > 0
          ? 100.0 * double(rep.forked_blocks) / double(rep.distinct_blocks)
          : 0.0;
  std::sort(rep.nodes.begin(), rep.nodes.end(),
            [](const AuditReport::NodeSummary& a,
               const AuditReport::NodeSummary& b) { return a.node < b.node; });
  CheckCrossShardAtomicity(&rep);
  return rep;
}

void Auditor::CheckCrossShardAtomicity(AuditReport* rep) const {
  // Replay the sealed 2PC records from one live replica per shard (all
  // replicas in a shard agree — that is the per-shard audit's job) and
  // check every decision resolved the same way on every participant.
  std::map<uint32_t, const NodeChainView*> shard_rep;
  for (const NodeChainView& v : views_) {
    auto [it, inserted] = shard_rep.emplace(v.shard, &v);
    if (!inserted && it->second->crashed && !v.crashed) it->second = &v;
  }

  struct Decision {
    std::vector<uint32_t> participants;
    std::map<uint32_t, std::string> outcome;  // shard -> latest phase
    double prepare_time = 0;
  };
  std::map<uint64_t, Decision> decisions;
  for (const auto& [shard, view] : shard_rep) {
    for (const XsRecord& r : view->xs_records) {
      Decision& d = decisions[r.base_id];
      if (r.phase == "prepare") {
        if (d.participants.empty()) d.participants = r.participants;
        d.prepare_time = std::max(d.prepare_time, r.timestamp);
        d.outcome.emplace(shard, "prepare");  // keep commit/abort if seen
      } else {
        d.outcome[shard] = r.phase;
      }
    }
  }

  auto violate = [rep](std::string detail) {
    rep->violations.push_back(
        AuditViolation{"cross_shard_atomicity", std::move(detail)});
  };
  for (const auto& [id, d] : decisions) {
    ++rep->xs_decisions;
    std::vector<uint32_t> participants = d.participants;
    if (participants.empty()) {
      for (const auto& [shard, phase] : d.outcome) {
        participants.push_back(shard);
      }
    }
    size_t commits = 0, aborts = 0;
    std::string detail;
    for (uint32_t shard : participants) {
      auto it = d.outcome.find(shard);
      std::string phase = it == d.outcome.end() ? "missing" : it->second;
      if (phase == "commit") ++commits;
      if (phase == "abort") ++aborts;
      if (!detail.empty()) detail += ", ";
      detail += "shard " + std::to_string(shard) + "=" + phase;
    }
    const bool in_grace = d.prepare_time > config_.end_time - config_.xs_grace;
    if (commits > 0 && aborts > 0) {
      violate("transaction " + std::to_string(id) +
              " decided both ways: " + detail);
    } else if (commits == participants.size()) {
      ++rep->xs_committed;
    } else if (commits > 0) {
      // Partially sealed commit: legitimate only while the remaining
      // participants' commit blocks can still be in flight.
      if (in_grace) {
        ++rep->xs_in_flight;
      } else {
        violate("transaction " + std::to_string(id) +
                " committed on a strict subset of participants: " + detail);
      }
    } else if (aborts > 0) {
      ++rep->xs_aborted;
    } else if (in_grace) {
      ++rep->xs_in_flight;
    } else {
      violate("transaction " + std::to_string(id) +
              " prepared but never decided: " + detail);
    }
  }
}

util::Json AuditReport::ToJson(const AuditorConfig& config) const {
  util::Json doc = util::Json::Object();
  doc.Set("schema", "blockbench-audit-v1");

  util::Json cfg = util::Json::Object();
  cfg.Set("confirmation_depth", config.confirmation_depth);
  cfg.Set("heal_time", config.heal_time);
  cfg.Set("end_time", config.end_time);
  cfg.Set("series_bin", config.series_bin);
  if (config.num_shards > 1) {
    // Sharded-only members keep the unsharded document byte-identical
    // (its SHA-256 is pinned by golden tests).
    cfg.Set("num_shards", uint64_t(config.num_shards));
    cfg.Set("xs_grace", config.xs_grace);
  }
  doc.Set("config", std::move(cfg));

  util::Json tree = util::Json::Object();
  tree.Set("distinct_blocks", distinct_blocks);
  tree.Set("agreed_blocks", agreed_blocks);
  tree.Set("forked_blocks", forked_blocks);
  tree.Set("forked_pct", forked_pct);
  tree.Set("fork_points", fork_points);
  tree.Set("branches", branches);
  tree.Set("max_branch_depth", max_branch_depth);
  tree.Set("wasted_weight", wasted_weight);
  doc.Set("fork_tree", std::move(tree));

  util::Json nodes_json = util::Json::Array();
  for (const NodeSummary& ns : nodes) {
    util::Json n = util::Json::Object();
    n.Set("node", uint64_t(ns.node));
    n.Set("crashed", ns.crashed);
    n.Set("head_height", ns.head_height);
    n.Set("known_blocks", ns.known_blocks);
    n.Set("canonical_blocks", ns.canonical_blocks);
    n.Set("forked_blocks", ns.forked_blocks);
    n.Set("reorgs", ns.reorgs);
    n.Set("divergence_depth", ns.divergence_depth);
    nodes_json.Push(std::move(n));
  }
  doc.Set("nodes", std::move(nodes_json));

  util::Json series = util::Json::Object();
  series.Set("bin_seconds", config.series_bin);
  util::Json sealed = util::Json::Array();
  for (uint64_t v : sealed_per_bin) sealed.Push(v);
  series.Set("sealed", std::move(sealed));
  util::Json forked = util::Json::Array();
  for (uint64_t v : forked_per_bin) forked.Push(v);
  series.Set("forked", std::move(forked));
  doc.Set("series", std::move(series));

  util::Json recovery = util::Json::Object();
  recovery.Set("heal_time", config.heal_time);
  recovery.Set("first_seal_after_heal", first_seal_after_heal);
  recovery.Set("gap_seconds", recovery_gap);
  doc.Set("recovery", std::move(recovery));

  if (config.num_shards > 1) {
    util::Json xs = util::Json::Object();
    xs.Set("decisions", xs_decisions);
    xs.Set("committed", xs_committed);
    xs.Set("aborted", xs_aborted);
    xs.Set("in_flight", xs_in_flight);
    doc.Set("cross_shard", std::move(xs));
  }

  util::Json invariants = util::Json::Object();
  util::Json checked = util::Json::Array();
  for (const char* name :
       {"view_consistency", "height_continuity", "canonical_completeness",
        "conflicting_finality", "confirmed_fork_depth",
        "post_heal_agreement"}) {
    checked.Push(name);
  }
  if (config.num_shards > 1) checked.Push("cross_shard_atomicity");
  invariants.Set("checked", std::move(checked));
  util::Json violations_json = util::Json::Array();
  for (const AuditViolation& v : violations) {
    util::Json vj = util::Json::Object();
    vj.Set("invariant", v.invariant);
    vj.Set("detail", v.detail);
    violations_json.Push(std::move(vj));
  }
  invariants.Set("violations", std::move(violations_json));
  doc.Set("invariants", std::move(invariants));
  doc.Set("ok", ok());
  return doc;
}

std::string AuditReport::RenderTable() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  blocks sealed %llu, agreed %llu, forked %llu (%.1f%%)\n",
                (unsigned long long)distinct_blocks,
                (unsigned long long)agreed_blocks,
                (unsigned long long)forked_blocks, forked_pct);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  fork points %llu, branches %llu (max depth %llu), "
                "wasted weight %llu\n",
                (unsigned long long)fork_points, (unsigned long long)branches,
                (unsigned long long)max_branch_depth,
                (unsigned long long)wasted_weight);
  out += buf;
  uint64_t max_div = 0;
  for (const NodeSummary& ns : nodes) {
    max_div = std::max(max_div, ns.divergence_depth);
  }
  std::snprintf(buf, sizeof(buf), "  max node divergence %llu block(s)\n",
                (unsigned long long)max_div);
  out += buf;
  if (xs_decisions > 0) {
    std::snprintf(buf, sizeof(buf),
                  "  cross-shard: %llu decision(s), %llu committed, "
                  "%llu aborted, %llu in flight\n",
                  (unsigned long long)xs_decisions,
                  (unsigned long long)xs_committed,
                  (unsigned long long)xs_aborted,
                  (unsigned long long)xs_in_flight);
    out += buf;
  }
  if (recovery_gap >= 0) {
    std::snprintf(buf, sizeof(buf),
                  "  recovery: first agreed block %.1f s after the heal\n",
                  recovery_gap);
    out += buf;
  } else if (first_seal_after_heal < 0 && recovery_gap < 0 &&
             !nodes.empty() && violations.empty()) {
    // Nothing to report: either no heal was configured or no block
    // committed afterwards; the JSON carries the distinction.
  }
  if (violations.empty()) {
    out += "  invariants: all OK\n";
  } else {
    std::snprintf(buf, sizeof(buf), "  invariants: %zu VIOLATION(S)\n",
                  violations.size());
    out += buf;
    for (const AuditViolation& v : violations) {
      out += "    [" + v.invariant + "] " + v.detail + "\n";
    }
  }
  return out;
}

// --- Document-side helpers (bbreport, tests) ---------------------------------

namespace {

/// The member `key` of `obj` when it has JSON type `type`, else null.
const util::Json* Typed(const util::Json& obj, const char* key,
                        util::Json::Type type) {
  const util::Json* v = obj.Get(key);
  return v != nullptr && v->type() == type ? v : nullptr;
}

Status Mistyped(const std::string& key) {
  return Status::InvalidArgument("missing or mistyped '" + key + "'");
}

}  // namespace

Status ValidateAudit(const util::Json& doc) {
  using Type = util::Json::Type;
  const util::Json* schema = Typed(doc, "schema", Type::kString);
  if (schema == nullptr) return Mistyped("schema");
  if (schema->AsString() != "blockbench-audit-v1") {
    return Status::InvalidArgument("unexpected schema '" +
                                   schema->AsString() + "'");
  }
  const util::Json* tree = Typed(doc, "fork_tree", Type::kObject);
  if (tree == nullptr) return Mistyped("fork_tree");
  const util::Json* nodes = Typed(doc, "nodes", Type::kArray);
  if (nodes == nullptr) return Mistyped("nodes");
  const util::Json* series = Typed(doc, "series", Type::kObject);
  if (series == nullptr) return Mistyped("series");
  const util::Json* inv = Typed(doc, "invariants", Type::kObject);
  if (inv == nullptr) return Mistyped("invariants");
  for (const char* key : {"distinct_blocks", "agreed_blocks", "forked_blocks",
                          "forked_pct", "fork_points", "branches",
                          "max_branch_depth", "wasted_weight"}) {
    if (Typed(*tree, key, Type::kNumber) == nullptr) return Mistyped(key);
  }
  uint64_t distinct = tree->Get("distinct_blocks")->AsUint();
  uint64_t agreed = tree->Get("agreed_blocks")->AsUint();
  uint64_t forked = tree->Get("forked_blocks")->AsUint();
  if (agreed + forked != distinct) {
    return Status::InvalidArgument(
        "fork-tree arithmetic broken (agreed " + std::to_string(agreed) +
        " + forked " + std::to_string(forked) + " != distinct " +
        std::to_string(distinct) + ")");
  }
  if (nodes->size() == 0) {
    return Status::InvalidArgument("empty nodes section");
  }
  for (size_t i = 0; i < nodes->items().size(); ++i) {
    const util::Json& n = nodes->items()[i];
    std::string at = "node " + std::to_string(i);
    for (const char* key : {"node", "head_height", "known_blocks",
                            "canonical_blocks", "forked_blocks", "reorgs",
                            "divergence_depth"}) {
      if (Typed(n, key, Type::kNumber) == nullptr) {
        return Status::InvalidArgument(at + " missing '" + key + "'");
      }
    }
    uint64_t known = n.Get("known_blocks")->AsUint();
    if (known > distinct) {
      return Status::InvalidArgument(
          at + " knows more blocks than the global tree holds");
    }
    if (n.Get("canonical_blocks")->AsUint() +
            n.Get("forked_blocks")->AsUint() != known) {
      return Status::InvalidArgument(at + " block accounting broken");
    }
  }
  const util::Json* sealed = Typed(*series, "sealed", Type::kArray);
  const util::Json* forked_bins = Typed(*series, "forked", Type::kArray);
  if (sealed == nullptr || forked_bins == nullptr ||
      sealed->size() != forked_bins->size()) {
    return Status::InvalidArgument(
        "series arrays missing or of unequal length");
  }
  const util::Json* violations = Typed(*inv, "violations", Type::kArray);
  const util::Json* ok = Typed(doc, "ok", Type::kBool);
  if (violations == nullptr || ok == nullptr) {
    return Status::InvalidArgument("invariants section malformed");
  }
  if (ok->AsBool() != (violations->size() == 0)) {
    return Status::InvalidArgument("'ok' contradicts the violations list");
  }
  return Status::Ok();
}

double AuditRecoveryGap(const util::Json& doc) {
  const util::Json* rec = doc.Get("recovery");
  const util::Json* gap = rec != nullptr ? rec->Get("gap_seconds") : nullptr;
  return gap != nullptr && gap->is_number() ? gap->AsDouble() : -1;
}

std::string RenderAuditSummary(const util::Json& doc) {
  const util::Json* tree = doc.Get("fork_tree");
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%llu blocks, %llu forked (%.1f%%), max branch depth %llu, "
                "%zu violation(s)",
                (unsigned long long)tree->Get("distinct_blocks")->AsUint(),
                (unsigned long long)tree->Get("forked_blocks")->AsUint(),
                tree->Get("forked_pct")->AsDouble(),
                (unsigned long long)tree->Get("max_branch_depth")->AsUint(),
                doc.Get("invariants")->Get("violations")->size());
  std::string out = buf;
  double gap = AuditRecoveryGap(doc);
  if (gap >= 0) {
    std::snprintf(buf, sizeof(buf), ", recovery gap %.1f s", gap);
    out += buf;
  }
  return out + "\n";
}

}  // namespace bb::obs
