#include "dist/runtime.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <climits>
#include <deque>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>

#include "core/plan.h"
#include "dist/comm.h"
#include "engine/forest.h"
#include "engine/plan_exec.h"
#include "graph/vertex_set.h"
#include "support/check.h"
#include "support/metrics.h"
#include "support/timer.h"
#include "support/trace.h"

namespace graphpi::dist {

const char* to_string(ExecMode mode) noexcept {
  switch (mode) {
    case ExecMode::kLockstep: return "lockstep";
    case ExecMode::kAsync: return "async";
  }
  return "?";
}

bool parse_exec_mode(std::string_view name, ExecMode& out) noexcept {
  if (name == "lockstep") {
    out = ExecMode::kLockstep;
    return true;
  }
  if (name == "async") {
    out = ExecMode::kAsync;
    return true;
  }
  return false;
}

namespace {

using PlanMask = PlanForest::PlanMask;
using Target = ContinuationMsg::Target;

constexpr std::uint8_t kNoLimit = ContinuationMsg::kNoDepthLimit;

/// A node-local unit of work: run the subtree rooted at `trie_node` under
/// `mask` with the first `depth` schedule positions already mapped. Tasks
/// are created when the descent from a root crosses the task_depth cutoff
/// and never travel between nodes by themselves.
struct LocalTask {
  std::uint32_t trie_node = 0;
  PlanMask mask = 0;
  std::uint8_t depth = 0;
  VertexId mapped[Pattern::kMaxVertices] = {};
};

/// How a completed-but-nonresident walk state leaves a walker: the
/// lockstep executor sends it straight through the channel, the async
/// executor buffers it in a per-destination coalescer and flushes batch
/// frames. The walk itself — and therefore every count — is identical.
class Shipper {
 public:
  virtual ~Shipper() = default;
  virtual void ship(int from, int dest, const ContinuationMsg& m) = 0;
};

/// One trie-walking execution context bound to a single shard: the
/// workspace buffers (one allocation per walker for the whole run,
/// mirroring ForestExecutor::Workspace), the undivided per-plan sums, and
/// the local task queue. Both executors drive instances of this class, so
/// the sharded walk semantics live in exactly one place.
class ShardWalk {
 public:
  ShardWalk(const ShardedGraph& sharded, const PlanForest& forest, int node,
            std::uint8_t cutoff, Shipper& shipper)
      : sharded_(&sharded),
        forest_(&forest),
        shard_(&sharded.shard(node)),
        node_(node),
        cutoff_(cutoff),
        shipper_(&shipper) {
    sums.assign(forest.plans().size(), 0);
  }

  /// Executes the root extensions for owned vertex `v0`; descents past
  /// the task cutoff are queued on `tasks` (drain with run_queued_task).
  void run_root(VertexId v0) {
    mapped_[0] = v0;
    // Root extensions are always unconstrained (no predecessors or
    // bounds can reference depth < 0), so any owned v0 is valid.
    for (const PlanForest::Extension& ext : forest_->root().extensions)
      exec_node(static_cast<std::uint32_t>(ext.child),
                ext.mask & forest_->all_plans_mask(), cutoff_);
  }

  /// Pops and runs one queued task; false when the queue is empty.
  bool run_queued_task() {
    if (tasks.empty()) return false;
    const LocalTask task = tasks.front();
    tasks.pop_front();
    std::copy(task.mapped, task.mapped + task.depth, mapped_);
    ++tasks_run;
    exec_node(task.trie_node, task.mask, kNoLimit);
    return true;
  }

  /// Handles an arrived continuation payload (decode + advance/ship).
  void process_payload(const Message& msg) {
    GRAPHPI_CHECK(msg.kind == MessageKind::kContinuation);
    ContinuationMsg m;
    if (!ContinuationMsg::try_decode(msg.payload, m)) {
      // Structurally malformed despite an intact CRC — count it and drop
      // it instead of reading past the buffer; the sender's retransmit
      // timer re-requests delivery of anything still unacked.
      ++decode_failures;
      return;
    }
    std::copy(m.mapped.begin(), m.mapped.end(), mapped_);
    advance_chain(m);
  }

  std::vector<Count> sums;
  std::deque<LocalTask> tasks;
  std::uint64_t tasks_run = 0;
  std::uint64_t shipped_continuations = 0;
  std::uint64_t shipped_set_vertices = 0;
  std::uint64_t decode_failures = 0;

 private:
  // -- trie walk -----------------------------------------------------------

  [[nodiscard]] static std::uint8_t full_fold_mask(std::size_t preds) {
    return static_cast<std::uint8_t>((1u << preds) - 1);
  }

  [[nodiscard]] bool all_resident(std::span<const int> preds) const {
    for (int p : preds)
      if (!shard_->is_resident(mapped_[p])) return false;
    return true;
  }

  void exec_node(std::uint32_t node_idx, PlanMask active, std::uint8_t limit) {
    const PlanForest::Node& node =
        forest_->nodes()[static_cast<std::size_t>(node_idx)];
    if (limit != kNoLimit && node.depth >= static_cast<int>(limit)) {
      LocalTask task;
      task.trie_node = node_idx;
      task.mask = active;
      task.depth = static_cast<std::uint8_t>(node.depth);
      std::copy(mapped_, mapped_ + node.depth, task.mapped);
      tasks.push_back(task);
      return;
    }

    // Leaves first: they may use cand[depth]/tmp[depth], which the
    // extension loop below rebuilds (same order as ForestExecutor).
    if (!node.count_leaves.empty() || !node.iep_leaves.empty())
      eval_leaves(node_idx, active);

    const int depth = node.depth;
    const std::span<const VertexId> mapped{mapped_,
                                           static_cast<std::size_t>(depth)};
    for (std::size_t e = 0; e < node.extensions.size(); ++e) {
      const PlanForest::Extension& ext = node.extensions[e];
      if ((ext.mask & active) == 0) continue;
      const ResolvedBranches rb = resolve_branches(mapped_, ext, active);
      if (rb.live == 0) continue;

      if (all_resident(ext.predecessor_depths)) {
        const std::span<const VertexId> cands = exec::build_candidates(
            shard_->view(), ext.predecessor_depths, mapped, cand_[depth],
            tmp_[depth], all_vertices_);
        run_extension_loop(node_idx, e, rb, cands, limit);
      } else {
        ContinuationMsg m;
        m.trie_node = node_idx;
        m.target = Target::kExtension;
        m.item = static_cast<std::uint16_t>(e);
        m.depth_limit = limit;
        m.mask = active;
        m.mapped.assign(mapped_, mapped_ + depth);
        advance_chain(m);
      }
    }
  }

  void eval_leaves(std::uint32_t node_idx, PlanMask active) {
    const PlanForest::Node& node =
        forest_->nodes()[static_cast<std::size_t>(node_idx)];
    const int depth = node.depth;
    const std::span<const VertexId> mapped{mapped_,
                                           static_cast<std::size_t>(depth)};

    for (std::size_t li = 0; li < node.count_leaves.size(); ++li) {
      const PlanForest::CountLeaf& leaf = node.count_leaves[li];
      if (((active >> leaf.plan) & 1) == 0) continue;
      const exec::Window w = exec::bounded_window(mapped_, leaf);
      if (w.empty()) continue;
      if (all_resident(leaf.predecessor_depths)) {
        const Count raw = exec::count_intersection_bounded(
            shard_->view(), leaf.predecessor_depths, mapped, w.lo_inclusive,
            w.hi_exclusive, cand_[depth], tmp_[depth]);
        sums[static_cast<std::size_t>(leaf.plan)] +=
            raw - exec::count_used_in_intersection(
                      shard_->view(), leaf.predecessor_depths, mapped,
                      w.lo_inclusive, w.hi_exclusive);
      } else {
        ContinuationMsg m;
        m.trie_node = node_idx;
        m.target = Target::kCountLeaf;
        m.item = static_cast<std::uint16_t>(li);
        m.mask = active;
        m.mapped.assign(mapped_, mapped_ + depth);
        advance_chain(m);
      }
    }

    if (node.iep_leaves.empty()) return;
    PlanMask iep_active = 0;
    for (const PlanForest::IepLeaf& leaf : node.iep_leaves)
      if (((active >> leaf.plan) & 1) != 0)
        iep_active |= PlanMask{1} << leaf.plan;
    if (iep_active == 0) return;

    // The sharded executor has no memo tables, so it builds every DEMANDED
    // set (suffix_def_demand_masks), not just the ForestExecutor's
    // materialize subset.
    const std::vector<PlanMask>& demand = node.suffix_def_demand_masks;
    bool local = true;
    for (std::size_t i = 0; i < node.suffix_defs.size() && local; ++i)
      if ((demand[i] & active) != 0 && !all_resident(node.suffix_defs[i]))
        local = false;

    if (local) {
      // Every needed suffix set is computable on this shard: exactly the
      // ForestExecutor evaluation (shared sets, then per-plan terms).
      if (suffix_sets_.size() < node.suffix_defs.size())
        suffix_sets_.resize(node.suffix_defs.size());
      for (std::size_t i = 0; i < node.suffix_defs.size(); ++i)
        if ((demand[i] & active) != 0)
          exec::build_suffix_set(shard_->view(), node.suffix_defs[i], mapped,
                                 suffix_sets_[i], scratch_a_);
      for (const PlanForest::IepLeaf& leaf : node.iep_leaves) {
        if (((active >> leaf.plan) & 1) == 0) continue;
        const Plan& plan =
            forest_->plans()[static_cast<std::size_t>(leaf.plan)];
        sums[static_cast<std::size_t>(leaf.plan)] +=
            exec::evaluate_iep_terms(plan.iep.terms, suffix_sets_,
                                     leaf.set_ids, scratch_a_, scratch_b_);
      }
      return;
    }

    // Some suffix set needs a non-resident adjacency: build them as a
    // shipped chain carrying the completed sets along.
    ContinuationMsg m;
    m.trie_node = node_idx;
    m.target = Target::kIepChain;
    m.item = 0;
    m.mask = active;
    m.mapped.assign(mapped_, mapped_ + depth);
    m.done_sets.resize(node.suffix_defs.size());
    advance_chain(m);
  }

  /// Candidate loop of one extension over already-resolved branches: the
  /// loop runs the union window and narrows the active-plan mask per
  /// candidate (same model as ForestExecutor; `rb` must come from
  /// resolve_branches under the current mapping and have live > 0).
  void run_extension_loop(std::uint32_t node_idx, std::size_t ext_idx,
                          const ResolvedBranches& rb,
                          std::span<const VertexId> cands,
                          std::uint8_t limit) {
    const PlanForest::Node& node =
        forest_->nodes()[static_cast<std::size_t>(node_idx)];
    const PlanForest::Extension& ext = node.extensions[ext_idx];
    const int depth = node.depth;
    const std::span<const VertexId> mapped{mapped_,
                                           static_cast<std::size_t>(depth)};

    const auto range =
        rb.union_window.unbounded()
            ? cands
            : trim_to_window(cands, rb.union_window.lo_inclusive,
                             rb.union_window.hi_exclusive);
    const auto child = static_cast<std::uint32_t>(ext.child);
    if (rb.live == 1) {
      const PlanMask next = rb.masks[0];
      for (VertexId v : range) {
        if (exec::already_used(mapped, v)) continue;
        mapped_[depth] = v;
        exec_node(child, next, limit);
      }
      return;
    }
    for (VertexId v : range) {
      const PlanMask next = rb.mask_at(v);
      if (next == 0 || exec::already_used(mapped, v)) continue;
      mapped_[depth] = v;
      exec_node(child, next, limit);
    }
  }

  // -- continuation chains -------------------------------------------------

  /// Folds every locally-resident, not-yet-folded predecessor of the
  /// chain's current item into m.partial (first fold materializes the
  /// window-trimmed adjacency). Returns true when the set is complete —
  /// either all predecessors folded or the intersection emptied out.
  bool fold_local(std::span<const int> preds, exec::Window clamp,
                  ContinuationMsg& m) {
    for (std::size_t i = 0; i < preds.size(); ++i) {
      if (m.folded & (1u << i)) continue;
      const VertexId pv = mapped_[preds[i]];
      if (!shard_->is_resident(pv)) continue;
      if (!m.has_partial) {
        const auto adj = trim_to_window(shard_->neighbors(pv),
                                        clamp.lo_inclusive, clamp.hi_exclusive);
        m.partial.assign(adj.begin(), adj.end());
        m.has_partial = true;
      } else {
        exec::intersect_with_vertex(shard_->view(), m.partial, pv, fold_tmp_);
        std::swap(m.partial, fold_tmp_);
      }
      m.folded |= static_cast<std::uint8_t>(1u << i);
      if (m.partial.empty()) {
        // Nothing can survive the remaining intersections.
        m.folded = full_fold_mask(preds.size());
        return true;
      }
    }
    return m.folded == full_fold_mask(preds.size());
  }

  /// Serializes the chain and ships it to the owner of the first
  /// predecessor whose adjacency this node does not hold.
  void ship(std::span<const int> preds, const ContinuationMsg& m) {
    int dest = -1;
    for (std::size_t i = 0; i < preds.size(); ++i)
      if ((m.folded & (1u << i)) == 0) {
        dest = sharded_->owner(m.mapped[static_cast<std::size_t>(preds[i])]);
        break;
      }
    GRAPHPI_CHECK_MSG(dest >= 0 && dest != node_,
                      "a chain only ships when a predecessor is non-"
                      "resident, and owners always hold their vertices");
    ++shipped_continuations;
    shipped_set_vertices += m.shipped_set_vertices();
    shipper_->ship(node_, dest, m);
  }

  /// Advances a chain on this node as far as local residency allows:
  /// completes the item (running the dependent loop / count / IEP
  /// evaluation here) or ships the remainder. mapped_ must already hold
  /// m.mapped.
  void advance_chain(ContinuationMsg& m) {
    const PlanForest::Node& node =
        forest_->nodes()[static_cast<std::size_t>(m.trie_node)];
    switch (m.target) {
      case Target::kExtension: {
        const PlanForest::Extension& ext = node.extensions[m.item];
        const ResolvedBranches rb = resolve_branches(mapped_, ext, m.mask);
        if (rb.live == 0) return;
        if (!fold_local(ext.predecessor_depths, rb.union_window, m)) {
          ship(ext.predecessor_depths, m);
          return;
        }
        run_extension_loop(m.trie_node, m.item, rb, m.partial, m.depth_limit);
        return;
      }
      case Target::kCountLeaf: {
        const PlanForest::CountLeaf& leaf = node.count_leaves[m.item];
        const exec::Window w = exec::bounded_window(mapped_, leaf);
        if (w.empty()) return;
        if (!fold_local(leaf.predecessor_depths, w, m)) {
          ship(leaf.predecessor_depths, m);
          return;
        }
        // The materialized intersection is already window-trimmed; the
        // used-vertex correction is membership of mapped vertices in it.
        Count used = 0;
        for (VertexId v : m.mapped)
          if (contains(m.partial, v)) ++used;
        sums[static_cast<std::size_t>(leaf.plan)] +=
            static_cast<Count>(m.partial.size()) - used;
        return;
      }
      case Target::kIepChain:
        advance_iep_chain(m);
        return;
    }
    GRAPHPI_CHECK_MSG(false, "unknown continuation target");
  }

  void advance_iep_chain(ContinuationMsg& m) {
    const PlanForest::Node& node =
        forest_->nodes()[static_cast<std::size_t>(m.trie_node)];
    const std::vector<PlanMask>& demand = node.suffix_def_demand_masks;
    const std::span<const VertexId> mapped{mapped_, m.mapped.size()};
    while (m.item < node.suffix_defs.size()) {
      if ((demand[m.item] & m.mask) == 0) {
        ++m.item;  // no active plan consumes this set
        continue;
      }
      const std::vector<int>& def = node.suffix_defs[m.item];
      if (def.empty()) {
        // Disconnected suffix vertex: every vertex minus the mapped ones.
        auto& set = m.done_sets[m.item];
        // vertex_count(), not parent(): snapshot-reassembled shardings
        // never materialize the whole graph.
        set.resize(sharded_->vertex_count());
        std::iota(set.begin(), set.end(), VertexId{0});
        remove_all(set, mapped);
        ++m.item;
        continue;
      }
      if (!fold_local(def, exec::Window{}, m)) {
        ship(def, m);
        return;
      }
      remove_all(m.partial, mapped);
      m.done_sets[m.item] = std::move(m.partial);
      m.partial.clear();
      m.has_partial = false;
      m.folded = 0;
      ++m.item;
    }
    // All needed sets materialized: evaluate every active plan's terms.
    for (const PlanForest::IepLeaf& leaf : node.iep_leaves) {
      if (((m.mask >> leaf.plan) & 1) == 0) continue;
      const Plan& plan = forest_->plans()[static_cast<std::size_t>(leaf.plan)];
      sums[static_cast<std::size_t>(leaf.plan)] +=
          exec::evaluate_iep_terms(plan.iep.terms, m.done_sets, leaf.set_ids,
                                   scratch_a_, scratch_b_);
    }
  }

  const ShardedGraph* sharded_;
  const PlanForest* forest_;
  const Shard* shard_;
  int node_;
  std::uint8_t cutoff_;
  Shipper* shipper_;

  VertexId mapped_[Pattern::kMaxVertices] = {};
  std::vector<VertexId> cand_[Pattern::kMaxVertices];
  std::vector<VertexId> tmp_[Pattern::kMaxVertices];
  std::vector<std::vector<VertexId>> suffix_sets_;
  std::vector<VertexId> scratch_a_;
  std::vector<VertexId> scratch_b_;
  std::vector<VertexId> all_vertices_;
  std::vector<VertexId> fold_tmp_;  ///< chain-folding swap buffer
};

/// Validates the forest for sharded execution and computes the task
/// cutoff depth (shared by both executors).
std::uint8_t prepare_forest(const ShardedGraph& sharded,
                            const PlanForest& forest, int task_depth) {
  int min_leaf = INT_MAX;
  bool wants_hub = false;
  for (const Plan& plan : forest.plans()) {
    GRAPHPI_CHECK_MSG(plan.size() >= 2,
                      "the sharded runtime requires plans with >= 2 "
                      "vertices (no terminal action at the root)");
    min_leaf = std::min(min_leaf, plan.leaf_depth());
    wants_hub |= plan.wants_hub_index;
  }
  GRAPHPI_CHECK_MSG(forest.root().count_leaves.empty(),
                    "root terminal actions are impossible for plans of "
                    "size >= 2");
  if (wants_hub) sharded.ensure_hub_indexes();
  return static_cast<std::uint8_t>(
      std::clamp(task_depth, 1, std::max(1, min_leaf)));
}

std::vector<Count> finalize_counts(const PlanForest& forest,
                                   std::vector<Count> sums) {
  const auto& plans = forest.plans();
  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (!plans[i].iep_active()) continue;
    GRAPHPI_CHECK_MSG(sums[i] % plans[i].iep.divisor == 0,
                      "IEP sum must be divisible by the surviving-"
                      "automorphism factor x");
    sums[i] /= plans[i].iep.divisor;
  }
  return sums;
}

/// Best-effort finalization of a stopped run: a partial IEP sum is
/// generally not divisible by x, so divide without the check.
std::vector<Count> finalize_partial_counts(const PlanForest& forest,
                                           std::vector<Count> sums) {
  const auto& plans = forest.plans();
  for (std::size_t i = 0; i < plans.size(); ++i)
    if (plans[i].iep_active()) sums[i] /= plans[i].iep.divisor;
  return sums;
}

void fill_shared_stats(const ShardedGraph& sharded,
                       const ReliableChannel& channel, ClusterStats& out) {
  const CommStats comm = channel.transport_stats();
  const ReliabilityStats rel = channel.reliability_stats();
  out.ack_messages =
      comm.messages_by_kind[static_cast<std::size_t>(MessageKind::kAck)];
  out.retransmits = rel.retransmits;
  out.corrupt_frames_detected = rel.corrupt_frames_detected;
  out.duplicates_suppressed = rel.duplicates_suppressed;
  out.injected_drops = comm.injected_drops;
  out.injected_duplicates = comm.injected_duplicates;
  out.injected_reorders = comm.injected_reorders;
  out.injected_corruptions = comm.injected_corruptions;
  out.messages = comm.messages;
  out.bytes = comm.bytes;
  out.continuation_messages = comm.messages_by_kind[static_cast<std::size_t>(
      MessageKind::kContinuation)];
  out.continuation_bytes = comm.bytes_by_kind[static_cast<std::size_t>(
      MessageKind::kContinuation)];
  out.count_messages = comm.messages_by_kind[static_cast<std::size_t>(
      MessageKind::kPartialCounts)];
  out.count_bytes = comm.bytes_by_kind[static_cast<std::size_t>(
      MessageKind::kPartialCounts)];
  out.coalesced_frames = rel.batch_frames_sent;
  out.coalesced_payloads = rel.batch_payloads;
  out.sent_messages_per_node = comm.sent_messages_per_node;
  out.sent_bytes_per_node = comm.sent_bytes_per_node;
  const ShardedGraph::Stats& shape = sharded.stats();
  out.owned_per_node = shape.owned_per_node;
  out.ghosts_per_node = shape.ghosts_per_node;
  out.replication_factor = shape.replication_factor;
  std::uint64_t high = 0;
  for (int n = 0; n < channel.nodes(); ++n)
    high = std::max<std::uint64_t>(high, channel.inbox_high_water(n));
  out.mailbox_high_water = high;
}

// ---------------------------------------------------------------------------
// Lockstep executor: deterministic single-threaded round-robin service.
// ---------------------------------------------------------------------------

/// The sharded batch traversal: every logical node walks the plan-forest
/// trie against its own shard only, shipping serialized continuations to
/// owners when an adjacency it needs is not resident. Single-threaded
/// round-robin service keeps the run deterministic.
class LockstepForestRun : public Shipper {
 public:
  LockstepForestRun(const ShardedGraph& sharded, const PlanForest& forest,
                    const ClusterOptions& options)
      : sharded_(&sharded),
        forest_(&forest),
        channel_(sharded.nodes(), options.faults),
        control_(options.control != nullptr && options.control->armed()
                     ? options.control
                     : nullptr) {
    const std::uint8_t cutoff =
        prepare_forest(sharded, forest, options.task_depth);
    nodes_.resize(static_cast<std::size_t>(sharded.nodes()));
    for (std::size_t n = 0; n < nodes_.size(); ++n)
      nodes_[n].walk = std::make_unique<ShardWalk>(
          sharded, forest, static_cast<int>(n), cutoff, *this);
  }

  void ship(int from, int dest, const ContinuationMsg& m) override {
    channel_.send(from, dest, MessageKind::kContinuation, m.encode());
  }

  std::vector<Count> run(ClusterStats* stats,
                         support::RunReport* run_report = nullptr) {
    // Service nodes round-robin, one unit of work per turn, until no node
    // has anything left AND the reliable channel has drained (frames may
    // need retransmitting under a fault plan): inbox message first, then
    // a queued task, then the next owned root. An armed ExecControl is
    // checked once per round — root-grained, every `nodes` work units.
    support::RunStatus status = support::RunStatus::kOk;
    bool any = true;
    while (any || !channel_.idle()) {
      if (control_ != nullptr) {
        status = control_->check(roots_done_);
        if (status != support::RunStatus::kOk) break;
      }
      channel_.tick();
      any = false;
      for (std::size_t n = 0; n < nodes_.size(); ++n)
        any |= channel_.service_retransmits(static_cast<int>(n));
      for (std::size_t n = 0; n < nodes_.size(); ++n)
        any |= service(static_cast<int>(n));
    }

    if (run_report != nullptr) {
      run_report->status = status;
      run_report->completed_roots = roots_done_;
    }
    if (status != support::RunStatus::kOk) {
      // Stopped early: skip the message exchange (in-flight continuations
      // are abandoned) and aggregate whatever every node accumulated.
      std::vector<Count> total = nodes_[0].walk->sums;
      for (std::size_t n = 1; n < nodes_.size(); ++n)
        for (std::size_t i = 0; i < total.size(); ++i)
          total[i] += nodes_[n].walk->sums[i];
      if (stats != nullptr) fill_stats(*stats);
      return finalize_partial_counts(*forest_, std::move(total));
    }

    // Every non-master node reports its undivided per-plan sums once —
    // the "counts travel" half of the paper's message economy. The drain
    // keeps ticking the reliable channel so dropped/corrupted reports are
    // retransmitted until the master has all of them.
    for (std::size_t n = 1; n < nodes_.size(); ++n) {
      PartialCountsMsg report;
      report.sums = nodes_[n].walk->sums;
      report.tasks = nodes_[n].walk->tasks_run;
      channel_.send(static_cast<int>(n), 0, MessageKind::kPartialCounts,
                    report.encode());
    }
    std::vector<Count> total = nodes_[0].walk->sums;
    std::size_t reports = 0;
    Message msg;
    while (reports + 1 < nodes_.size() || !channel_.idle()) {
      channel_.tick();
      for (std::size_t n = 0; n < nodes_.size(); ++n)
        channel_.service_retransmits(static_cast<int>(n));
      // Non-master receives only consume acks; the master accumulates
      // each report exactly once (the channel dedups duplicates).
      for (std::size_t n = 0; n < nodes_.size(); ++n) {
        while (channel_.receive(static_cast<int>(n), msg)) {
          GRAPHPI_CHECK(n == 0);
          GRAPHPI_CHECK(msg.kind == MessageKind::kPartialCounts);
          PartialCountsMsg report;
          if (!PartialCountsMsg::try_decode(msg.payload, report) ||
              report.sums.size() != total.size()) {
            // Unreachable with an intact CRC frame; counted, not UB.
            ++decode_failures_;
            ++reports;
            continue;
          }
          for (std::size_t i = 0; i < total.size(); ++i)
            total[i] += report.sums[i];
          ++reports;
        }
      }
    }

    if (stats != nullptr) fill_stats(*stats);
    return finalize_counts(*forest_, std::move(total));
  }

 private:
  struct NodeSlot {
    std::unique_ptr<ShardWalk> walk;
    std::size_t next_root = 0;
    double seconds = 0.0;
  };

  bool service(int n) {
    NodeSlot& ns = nodes_[static_cast<std::size_t>(n)];
    Message msg;
    if (channel_.receive(n, msg)) {
      support::Timer timer;
      ns.walk->process_payload(msg);
      ns.seconds += timer.elapsed_seconds();
      return true;
    }
    if (!ns.walk->tasks.empty()) {
      support::Timer timer;
      ns.walk->run_queued_task();
      ns.seconds += timer.elapsed_seconds();
      return true;
    }
    const auto owned = ns.walk ? sharded_->shard(n).owned()
                               : std::span<const VertexId>{};
    if (ns.next_root < owned.size()) {
      const VertexId v0 = owned[ns.next_root++];
      support::Timer timer;
      ns.walk->run_root(v0);
      ns.seconds += timer.elapsed_seconds();
      ++roots_done_;
      return true;
    }
    return false;
  }

  void fill_stats(ClusterStats& out) const {
    out = ClusterStats{};
    fill_shared_stats(*sharded_, channel_, out);
    std::uint64_t decode_failures = decode_failures_;
    out.tasks_per_node.reserve(nodes_.size());
    out.seconds_per_node.reserve(nodes_.size());
    for (const NodeSlot& ns : nodes_) {
      out.total_tasks += ns.walk->tasks_run;
      out.tasks_per_node.push_back(ns.walk->tasks_run);
      out.seconds_per_node.push_back(ns.seconds);
      out.shipped_continuations += ns.walk->shipped_continuations;
      out.shipped_set_vertices += ns.walk->shipped_set_vertices;
      decode_failures += ns.walk->decode_failures;
    }
    out.decode_failures = decode_failures;
  }

  const ShardedGraph* sharded_;
  const PlanForest* forest_;
  ReliableChannel channel_;
  const support::ExecControl* control_ = nullptr;
  std::vector<NodeSlot> nodes_;
  std::uint64_t roots_done_ = 0;
  std::uint64_t decode_failures_ = 0;
};

// ---------------------------------------------------------------------------
// Async executor: one worker pool per node, coalesced flushes,
// cooperative backpressure. Counts are bit-identical to lockstep because
// the walk (ShardWalk) is the same code and integer partial sums are
// order-independent; what changes is WHEN things run — compute and
// communication overlap instead of alternating.
// ---------------------------------------------------------------------------

class AsyncForestRun {
 public:
  AsyncForestRun(const ShardedGraph& sharded, const PlanForest& forest,
                 const ClusterOptions& options)
      : sharded_(&sharded),
        forest_(&forest),
        channel_(sharded.nodes(), options.faults,
                 options.mailbox_capacity > 0
                     ? static_cast<std::size_t>(options.mailbox_capacity)
                     : 0),
        control_(options.control != nullptr && options.control->armed()
                     ? options.control
                     : nullptr),
        poll_mask_(control_ != nullptr ? control_->poll_mask() : ~0ull),
        workers_per_node_(std::max(1, options.workers_per_node)),
        mailbox_capacity_(options.mailbox_capacity > 0
                              ? static_cast<std::size_t>(options.mailbox_capacity)
                              : 0),
        flush_payloads_(std::max(1, options.flush_payloads)),
        flush_bytes_(std::max(1, options.flush_bytes)) {
    cutoff_ = prepare_forest(sharded, forest, options.task_depth);
    const int nodes = sharded.nodes();
    root_cursors_ = std::vector<std::atomic<std::size_t>>(
        static_cast<std::size_t>(nodes));
    for (int n = 0; n < nodes; ++n)
      root_cursors_[static_cast<std::size_t>(n)].store(0);
    const std::uint64_t total_roots = sharded.total_owned();
    pending_.store(static_cast<std::int64_t>(total_roots));
    if (total_roots == 0) done_.store(true);
    for (int n = 0; n < nodes; ++n)
      for (int w = 0; w < workers_per_node_; ++w)
        workers_.push_back(std::make_unique<Worker>(*this, n));
  }

  std::vector<Count> run(ClusterStats* stats,
                         support::RunReport* run_report = nullptr) {
    for (auto& w : workers_)
      w->thread = std::thread([&wr = *w] { wr.main(); });
    for (auto& w : workers_) w->thread.join();

    support::RunReport merged;
    for (auto& w : workers_) {
      support::RunReport wr;
      wr.status = w->status;
      merged.merge(wr);
    }
    merged.completed_roots = roots_done_.load();
    if (run_report != nullptr) *run_report = merged;

    const std::size_t nodes = static_cast<std::size_t>(sharded_->nodes());
    std::vector<std::vector<Count>> node_sums(
        nodes, std::vector<Count>(forest_->plans().size(), 0));
    std::vector<std::uint64_t> node_tasks(nodes, 0);
    for (auto& w : workers_) {
      auto& sums = node_sums[static_cast<std::size_t>(w->node)];
      for (std::size_t i = 0; i < sums.size(); ++i)
        sums[i] += w->walk.sums[i];
      node_tasks[static_cast<std::size_t>(w->node)] += w->walk.tasks_run;
    }

    if (merged.status != support::RunStatus::kOk) {
      // Stopped early: skip the count exchange, aggregate best-effort.
      std::vector<Count> total = std::move(node_sums[0]);
      for (std::size_t n = 1; n < nodes; ++n)
        for (std::size_t i = 0; i < total.size(); ++i)
          total[i] += node_sums[n][i];
      if (stats != nullptr) fill_stats(*stats);
      return finalize_partial_counts(*forest_, std::move(total));
    }

    // Post-quiescence count exchange, driven from the master thread the
    // same way the lockstep executor does it: nodes report undivided
    // sums over the (still fault-injected) channel, the master collects
    // with retransmit + dedup until everything is acked.
    for (std::size_t n = 1; n < nodes; ++n) {
      PartialCountsMsg report;
      report.sums = node_sums[n];
      report.tasks = node_tasks[n];
      channel_.send(static_cast<int>(n), 0, MessageKind::kPartialCounts,
                    report.encode());
    }
    std::vector<Count> total = std::move(node_sums[0]);
    std::size_t reports = 0;
    Message msg;
    while (reports + 1 < nodes || !channel_.idle()) {
      channel_.tick();
      for (std::size_t n = 0; n < nodes; ++n)
        channel_.service_retransmits(static_cast<int>(n));
      for (std::size_t n = 0; n < nodes; ++n) {
        while (channel_.receive(static_cast<int>(n), msg)) {
          // Straggler continuation duplicates were deduped inside
          // receive(); anything delivered here is a count report.
          GRAPHPI_CHECK(n == 0);
          GRAPHPI_CHECK(msg.kind == MessageKind::kPartialCounts);
          PartialCountsMsg report;
          if (!PartialCountsMsg::try_decode(msg.payload, report) ||
              report.sums.size() != total.size()) {
            ++decode_failures_;
            ++reports;
            continue;
          }
          for (std::size_t i = 0; i < total.size(); ++i)
            total[i] += report.sums[i];
          ++reports;
        }
      }
    }

    if (stats != nullptr) fill_stats(*stats);
    return finalize_counts(*forest_, std::move(total));
  }

 private:
  /// Owned roots claimed from a node's cursor per grab: small enough to
  /// load-balance a pool, large enough to amortize the atomic. The
  /// in-memory OpenMP root schedule uses support::kRootChunk instead.
  static constexpr std::size_t kOwnedRootsPerClaim = 16;

  struct Worker final : Shipper {
    Worker(AsyncForestRun& run, int node_idx)
        : run(&run),
          node(node_idx),
          walk(*run.sharded_, *run.forest_, node_idx, run.cutoff_, *this),
          buffers(static_cast<std::size_t>(run.sharded_->nodes())),
          buffered_bytes(static_cast<std::size_t>(run.sharded_->nodes()), 0) {}

    // -- Shipper: coalesce into per-destination buffers ---------------------
    void ship(int /*from*/, int dest, const ContinuationMsg& m) override {
      run->pending_.fetch_add(1, std::memory_order_acq_rel);
      auto& buf = buffers[static_cast<std::size_t>(dest)];
      std::vector<std::uint8_t> payload = m.encode();
      buffered_bytes[static_cast<std::size_t>(dest)] += payload.size();
      buf.push_back(std::move(payload));
      if (buf.size() >= static_cast<std::size_t>(run->flush_payloads_) ||
          buffered_bytes[static_cast<std::size_t>(dest)] >=
              static_cast<std::size_t>(run->flush_bytes_))
        flush(dest);
    }

    void flush(int dest) {
      auto& buf = buffers[static_cast<std::size_t>(dest)];
      if (buf.empty()) return;
      wait_for_room(dest);
      run->channel_.send_many(node, dest, MessageKind::kContinuation, buf);
      buffered_bytes[static_cast<std::size_t>(dest)] = 0;
      ++flushes;
    }

    /// True if anything was flushed.
    bool flush_all() {
      bool flushed = false;
      for (std::size_t d = 0; d < buffers.size(); ++d) {
        if (buffers[d].empty()) continue;
        flush(static_cast<int>(d));
        flushed = true;
      }
      return flushed;
    }

    /// Cooperative backpressure: while `dest`'s mailbox is at capacity,
    /// drain our own inbox into the deferred queue (so a peer stalled on
    /// US progresses — this is what makes cyclic pressure deadlock-free)
    /// and keep the retransmit clock moving.
    void wait_for_room(int dest) {
      if (run->mailbox_capacity_ == 0) return;
      bool counted = false;
      while (run->channel_.inbox_size(dest) >= run->mailbox_capacity_) {
        if (!counted) {
          ++mailbox_stalls;
          counted = true;
        }
        if (run->stopped_.load(std::memory_order_relaxed) ||
            run->done_.load(std::memory_order_relaxed))
          return;
        Message msg;
        if (run->channel_.receive(node, msg)) {
          deferred.push_back(std::move(msg));
          continue;
        }
        run->channel_.tick();
        run->channel_.service_retransmits(node);
        std::this_thread::yield();
      }
    }

    // -- worker body --------------------------------------------------------
    void main() {
      // A pre-fired control (cancel set before the run, elapsed deadline)
      // must stop the pool even before the first stride poll lands.
      if (run->control_ != nullptr) {
        const support::RunStatus st = run->control_->check(
            run->roots_done_.load(std::memory_order_relaxed));
        if (st != support::RunStatus::kOk) {
          status = st;
          run->stopped_.store(true, std::memory_order_relaxed);
        }
      }
      while (!run->done_.load(std::memory_order_acquire) &&
             !run->stopped_.load(std::memory_order_relaxed)) {
        bool did_work = false;

        // Deferred first: payloads drained while stalled are oldest.
        while (!deferred.empty()) {
          Message msg = std::move(deferred.front());
          deferred.pop_front();
          process_payload(msg);
          did_work = true;
        }
        if (stop_requested()) break;

        // Mailbox: walk continuations shipped to this node.
        Message msg;
        while (run->channel_.receive(node, msg)) {
          process_payload(msg);
          did_work = true;
          if (stop_requested()) break;
        }
        if (stop_requested()) break;

        // Roots: claim a chunk of this node's owned root domain.
        const auto owned = run->sharded_->shard(node).owned();
        const std::size_t begin =
            run->root_cursors_[static_cast<std::size_t>(node)].fetch_add(
                kOwnedRootsPerClaim, std::memory_order_relaxed);
        if (begin < owned.size()) {
          const std::size_t end =
              std::min(begin + kOwnedRootsPerClaim, owned.size());
          support::Timer timer;
          for (std::size_t i = begin; i < end; ++i) {
            walk.run_root(owned[i]);
            while (walk.run_queued_task()) {
            }
            finish_unit();
            run->roots_done_.fetch_add(1, std::memory_order_relaxed);
            if (poll_control() || stop_requested()) break;
          }
          seconds += timer.elapsed_seconds();
          did_work = true;
        }
        if (did_work) continue;

        // Nothing local: push out partial batches, then block briefly on
        // the mailbox (the timeout doubles as the done_/stopped_ and
        // retransmit heartbeat).
        if (flush_all()) continue;
        run->channel_.tick();
        run->channel_.service_retransmits(node);
        if (run->channel_.receive_wait(node, msg,
                                       std::chrono::microseconds(500),
                                       run->control_))
          process_payload(msg);
      }
    }

    void process_payload(const Message& msg) {
      support::Timer timer;
      walk.process_payload(msg);
      seconds += timer.elapsed_seconds();
      finish_unit();
    }

    /// One in-flight unit (root or continuation payload) fully processed.
    void finish_unit() {
      if (run->pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Last unit anywhere: every root is walked and every shipped
        // continuation processed. Release the pool.
        run->done_.store(true, std::memory_order_release);
      }
    }

    [[nodiscard]] bool stop_requested() const {
      return run->stopped_.load(std::memory_order_relaxed) ||
             run->done_.load(std::memory_order_acquire);
    }

    /// Per-worker stride-gated control poll (root granularity). True when
    /// the run should stop.
    bool poll_control() {
      ++local_roots;
      if (run->control_ == nullptr) return false;
      if ((local_roots & run->poll_mask_) != 0)
        return status != support::RunStatus::kOk;
      const support::RunStatus st =
          run->control_->check(run->roots_done_.load(std::memory_order_relaxed));
      if (st != support::RunStatus::kOk && status == support::RunStatus::kOk) {
        status = st;
        run->stopped_.store(true, std::memory_order_relaxed);
      }
      return status != support::RunStatus::kOk;
    }

    AsyncForestRun* run;
    int node;
    ShardWalk walk;
    std::vector<std::vector<std::vector<std::uint8_t>>> buffers;
    std::vector<std::size_t> buffered_bytes;
    std::deque<Message> deferred;
    std::uint64_t local_roots = 0;
    std::uint64_t flushes = 0;
    std::uint64_t mailbox_stalls = 0;
    double seconds = 0.0;
    support::RunStatus status = support::RunStatus::kOk;
    std::thread thread;
  };

  void fill_stats(ClusterStats& out) const {
    out = ClusterStats{};
    fill_shared_stats(*sharded_, channel_, out);
    const std::size_t nodes = static_cast<std::size_t>(sharded_->nodes());
    out.tasks_per_node.assign(nodes, 0);
    out.seconds_per_node.assign(nodes, 0.0);
    std::uint64_t decode_failures = decode_failures_;
    for (const auto& w : workers_) {
      const auto n = static_cast<std::size_t>(w->node);
      out.total_tasks += w->walk.tasks_run;
      out.tasks_per_node[n] += w->walk.tasks_run;
      out.seconds_per_node[n] += w->seconds;
      out.shipped_continuations += w->walk.shipped_continuations;
      out.shipped_set_vertices += w->walk.shipped_set_vertices;
      out.flushes += w->flushes;
      out.mailbox_stalls += w->mailbox_stalls;
      decode_failures += w->walk.decode_failures;
    }
    out.decode_failures = decode_failures;
  }

  const ShardedGraph* sharded_;
  const PlanForest* forest_;
  ReliableChannel channel_;
  const support::ExecControl* control_;
  const std::uint64_t poll_mask_;
  const int workers_per_node_;
  const std::size_t mailbox_capacity_;
  const int flush_payloads_;
  const int flush_bytes_;
  std::uint8_t cutoff_ = 1;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::atomic<std::size_t>> root_cursors_;
  std::atomic<std::int64_t> pending_{0};
  std::atomic<bool> done_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> roots_done_{0};
  std::uint64_t decode_failures_ = 0;
};

/// Bridges a finished run's ClusterStats into the process metrics
/// registry, so one snapshot covers the distributed backend alongside
/// every other layer. Fires once per distributed run — also when the
/// caller passed no stats sink (the run fills a local copy).
void bridge_stats_to_registry(const ClusterStats& s) {
  using support::metrics::Counter;
  using support::metrics::metric_counter;
  using support::metrics::metric_gauge;
  static Counter& c_runs = metric_counter("dist.runs");
  static Counter& c_tasks = metric_counter("dist.tasks");
  static Counter& c_messages = metric_counter("dist.messages");
  static Counter& c_bytes = metric_counter("dist.bytes");
  static Counter& c_continuations =
      metric_counter("dist.continuations_shipped");
  static Counter& c_set_vertices = metric_counter("dist.shipped_set_vertices");
  static Counter& c_acks = metric_counter("dist.acks");
  static Counter& c_retransmits = metric_counter("dist.retransmits");
  static Counter& c_corrupt = metric_counter("dist.corrupt_frames_detected");
  static Counter& c_dups = metric_counter("dist.duplicates_suppressed");
  static Counter& c_decode = metric_counter("dist.decode_failures");
  static Counter& c_inj_drop = metric_counter("dist.injected_drops");
  static Counter& c_inj_dup = metric_counter("dist.injected_duplicates");
  static Counter& c_inj_reord = metric_counter("dist.injected_reorders");
  static Counter& c_inj_corr = metric_counter("dist.injected_corruptions");
  static Counter& c_flushes = metric_counter("dist.flushes");
  static Counter& c_co_frames = metric_counter("dist.coalesced_frames");
  static Counter& c_co_payloads = metric_counter("dist.coalesced_payloads");
  static Counter& c_stalls = metric_counter("dist.mailbox_stalls");
  c_runs.inc();
  c_tasks.inc(s.total_tasks);
  c_messages.inc(s.messages);
  c_bytes.inc(s.bytes);
  c_continuations.inc(s.shipped_continuations);
  c_set_vertices.inc(s.shipped_set_vertices);
  c_acks.inc(s.ack_messages);
  c_retransmits.inc(s.retransmits);
  c_corrupt.inc(s.corrupt_frames_detected);
  c_dups.inc(s.duplicates_suppressed);
  c_decode.inc(s.decode_failures);
  c_inj_drop.inc(s.injected_drops);
  c_inj_dup.inc(s.injected_duplicates);
  c_inj_reord.inc(s.injected_reorders);
  c_inj_corr.inc(s.injected_corruptions);
  c_flushes.inc(s.flushes);
  c_co_frames.inc(s.coalesced_frames);
  c_co_payloads.inc(s.coalesced_payloads);
  c_stalls.inc(s.mailbox_stalls);
  metric_gauge("dist.mailbox_high_water")
      .record_max(static_cast<std::int64_t>(s.mailbox_high_water));
}

/// Single-node run: the whole graph is one shard, so the plain batch
/// executor over the full root domain is the honest (and fastest) path —
/// no replication, no messages.
std::vector<Count> single_node_run(const Graph& graph, const PlanForest& forest,
                                   ClusterStats* stats,
                                   const support::ExecControl* control,
                                   support::RunReport* report) {
  const support::trace::Span span("dist.single_node");
  const ForestExecutor executor(graph, forest);
  ForestExecutor::Workspace ws;
  std::vector<VertexId> roots(graph.vertex_count());
  std::iota(roots.begin(), roots.end(), VertexId{0});
  support::Timer timer;
  const std::vector<Count> counts =
      executor.count_roots(ws, roots, control, report);
  ClusterStats local;
  ClusterStats* s = stats != nullptr ? stats : &local;
  *s = ClusterStats{};
  s->total_tasks = roots.size();
  s->tasks_per_node = {roots.size()};
  s->seconds_per_node = {timer.elapsed_seconds()};
  s->sent_messages_per_node = {0};
  s->sent_bytes_per_node = {0};
  s->owned_per_node = {graph.vertex_count()};
  s->ghosts_per_node = {0};
  s->replication_factor = 1.0;
  bridge_stats_to_registry(*s);
  return counts;
}

std::vector<Count> run_sharded(const ShardedGraph& sharded,
                               const PlanForest& forest,
                               const ClusterOptions& options,
                               ClusterStats* stats,
                               support::RunReport* report) {
  const support::trace::Span span(options.exec == ExecMode::kAsync
                                      ? "dist.run_async"
                                      : "dist.run_lockstep");
  // Always materialize stats and a report: the registry bridge and the
  // exec-stop counters fire whether or not the caller asked for either.
  ClusterStats local_stats;
  ClusterStats* s = stats != nullptr ? stats : &local_stats;
  support::RunReport local_report;
  support::RunReport* r = report != nullptr ? report : &local_report;
  std::vector<Count> counts =
      options.exec == ExecMode::kAsync
          ? AsyncForestRun(sharded, forest, options).run(s, r)
          : LockstepForestRun(sharded, forest, options).run(s, r);
  support::observe_run_status(r->status);
  bridge_stats_to_registry(*s);
  return counts;
}

}  // namespace

void ClusterStats::accumulate(const ClusterStats& other) {
  const auto merge_u64 = [](std::vector<std::uint64_t>& into,
                            const std::vector<std::uint64_t>& from) {
    if (into.size() < from.size()) into.resize(from.size(), 0);
    for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
  };
  total_tasks += other.total_tasks;
  messages += other.messages;
  bytes += other.bytes;
  continuation_messages += other.continuation_messages;
  continuation_bytes += other.continuation_bytes;
  shipped_continuations += other.shipped_continuations;
  shipped_set_vertices += other.shipped_set_vertices;
  count_messages += other.count_messages;
  count_bytes += other.count_bytes;
  ack_messages += other.ack_messages;
  retransmits += other.retransmits;
  corrupt_frames_detected += other.corrupt_frames_detected;
  duplicates_suppressed += other.duplicates_suppressed;
  decode_failures += other.decode_failures;
  injected_drops += other.injected_drops;
  injected_duplicates += other.injected_duplicates;
  injected_reorders += other.injected_reorders;
  injected_corruptions += other.injected_corruptions;
  flushes += other.flushes;
  coalesced_frames += other.coalesced_frames;
  coalesced_payloads += other.coalesced_payloads;
  mailbox_stalls += other.mailbox_stalls;
  mailbox_high_water = std::max(mailbox_high_water, other.mailbox_high_water);
  merge_u64(tasks_per_node, other.tasks_per_node);
  merge_u64(sent_messages_per_node, other.sent_messages_per_node);
  merge_u64(sent_bytes_per_node, other.sent_bytes_per_node);
  if (seconds_per_node.size() < other.seconds_per_node.size())
    seconds_per_node.resize(other.seconds_per_node.size(), 0.0);
  for (std::size_t i = 0; i < other.seconds_per_node.size(); ++i)
    seconds_per_node[i] += other.seconds_per_node[i];
  // Shard shape is identical across chunks of one batch: keep the latest.
  owned_per_node = other.owned_per_node;
  ghosts_per_node = other.ghosts_per_node;
  replication_factor = other.replication_factor;
}

Count distributed_count(const Graph& graph, const Configuration& config,
                        const ClusterOptions& options, ClusterStats* stats,
                        support::RunReport* report) {
  std::vector<Plan> plans;
  plans.push_back(compile_plan(config));
  const PlanForest forest(std::move(plans));
  return distributed_count_batch(graph, forest, options, stats, report)
      .front();
}

std::vector<Count> distributed_count_batch(const Graph& graph,
                                           const PlanForest& forest,
                                           const ClusterOptions& options,
                                           ClusterStats* stats,
                                           support::RunReport* report) {
  GRAPHPI_CHECK_MSG(options.nodes >= 1, "cluster needs at least one node");
  if (options.nodes == 1)
    return single_node_run(graph, forest, stats, options.control, report);
  ShardOptions shard_options;
  shard_options.nodes = options.nodes;
  shard_options.strategy = options.partition;
  std::optional<ShardedGraph> sharded;
  {
    const support::trace::Span span("dist.partition");
    sharded.emplace(graph, shard_options);
  }
  return run_sharded(*sharded, forest, options, stats, report);
}

std::vector<Count> distributed_count_batch(const ShardedGraph& sharded,
                                           const PlanForest& forest,
                                           const ClusterOptions& options,
                                           ClusterStats* stats,
                                           support::RunReport* report) {
  return run_sharded(sharded, forest, options, stats, report);
}

}  // namespace graphpi::dist
