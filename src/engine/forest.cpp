#include "engine/forest.h"

#include <algorithm>
#include <atomic>

#include "engine/plan_exec.h"
#include "graph/vertex_set.h"
#include "support/check.h"
#include "support/metrics.h"

namespace graphpi {

namespace {

using PlanMask = PlanForest::PlanMask;

std::atomic<std::uint64_t> g_next_executor_id{1};  // 0 = workspace unbound

}  // namespace

struct ForestExecutor::Branches {
  std::array<exec::Window, PlanForest::kMaxPlans> windows;
  std::array<PlanMask, PlanForest::kMaxPlans> masks;
  std::size_t live = 0;
  exec::Window union_window{kNoVertexBound, 0};

  /// Resolves `ext`'s branches against `mapped` under `active`; branches
  /// that are masked out or whose window is empty do not survive.
  Branches(const VertexId* mapped, const PlanForest::Extension& ext,
           PlanMask active) {
    for (const PlanForest::Branch& branch : ext.branches) {
      const PlanMask m = branch.mask & active;
      if (m == 0) continue;
      const exec::Window w = exec::bounded_window(mapped, branch);
      if (w.empty()) continue;
      windows[live] = w;
      masks[live] = m;
      ++live;
      union_window.lo_inclusive =
          std::min(union_window.lo_inclusive, w.lo_inclusive);
      union_window.hi_exclusive =
          std::max(union_window.hi_exclusive, w.hi_exclusive);
    }
  }

  /// Plans whose window admits v (narrowing step of the candidate loop).
  [[nodiscard]] PlanMask mask_at(VertexId v) const noexcept {
    PlanMask m = 0;
    for (std::size_t b = 0; b < live; ++b)
      if (windows[b].contains(v)) m |= masks[b];
    return m;
  }
};

ForestExecutor::ForestExecutor(const Graph& graph, const PlanForest& forest)
    : graph_(&graph),
      forest_(&forest),
      id_(g_next_executor_id.fetch_add(1, std::memory_order_relaxed)) {
  for (const Plan& plan : forest.plans())
    if (plan.wants_hub_index) {
      graph.ensure_hub_index();
      break;
    }
}

ForestExecutor::ForestExecutor(const Graph& graph, const PlanForest& forest,
                               std::span<const std::uint32_t> residency)
    : ForestExecutor(graph, forest) {
  GRAPHPI_CHECK(residency.size() >= graph.vertex_count());
  residency_ = residency.data();
}

namespace {

/// Packs the (at most two) memo-key mapped values into one exact 64-bit
/// key — no hashing ambiguity, so a hit is always the right value.
std::uint64_t memo_key(const VertexId* mapped, std::span<const int> depths) {
  std::uint64_t key = 0;
  for (int d : depths) key = (key << 32) | mapped[d];
  return key;
}

}  // namespace

Count ForestExecutor::memoized_raw_count(Workspace& ws, int memo_id,
                                         std::span<const int> key_depths,
                                         std::span<const int> preds,
                                         std::span<const VertexId> mapped,
                                         VertexId lo, VertexId hi) const {
  auto& table = ws.memo[static_cast<std::size_t>(memo_id)];
  const int depth = static_cast<int>(mapped.size());
  // Cheap intersections (small adjacency sums, L1-resident) beat a cold
  // table slot; only expensive ones are worth remembering.
  std::size_t work = 0;
  for (int p : preds) work += graph_->degree(mapped[p]);
  const std::uint64_t key = memo_key(ws.mapped, key_depths);
  if (table.disabled || work < kMemoMinWork || key == kMemoEmptyKey)
    return exec::count_intersection_bounded(*graph_, preds, mapped, lo, hi,
                                            ws.cand[depth], ws.tmp[depth]);
  if (table.keys.empty()) {
    table.keys.assign(kMemoSlots, kMemoEmptyKey);
    table.values.resize(kMemoSlots);
  }
  // Locality-aware slot map: the low key half is the innermost-varying
  // mapped value, which scans *sorted* adjacency lists — keeping slots
  // linear in it turns table probes into near-sequential memory access.
  // The outer half is scattered multiplicatively to separate subtrees.
  const std::size_t slot =
      (static_cast<std::size_t>(key & 0xffffffffu) +
       static_cast<std::size_t>(static_cast<std::uint32_t>(key >> 32) *
                                0x9E3779B9u)) &
      (table.keys.size() - 1);
  ++table.probes;
  if (table.keys[slot] == key) {
    ++table.hits;
    return table.values[slot];
  }
  const Count raw = exec::count_intersection_bounded(
      *graph_, preds, mapped, lo, hi, ws.cand[depth], ws.tmp[depth]);
  table.keys[slot] = key;
  table.values[slot] = raw;
  if (table.probes - table.last_review_probes >= kMemoProbeWindow) {
    // Review the last window (misses reach here often enough that the
    // window overshoots by at most a few hits): a table whose keys are
    // not repeating on this graph stops paying for itself. The first
    // window fills an empty table, so its misses say nothing about
    // repetition and it is not judged.
    const bool cold_fill = table.last_review_probes == 0;
    const std::uint64_t window_probes = table.probes - table.last_review_probes;
    const std::uint64_t window_hits = table.hits - table.last_review_hits;
    if (!cold_fill &&
        window_hits * kMemoMinHitDen < window_probes * kMemoMinHitNum) {
      table.disabled = true;
      table.keys = {};
      table.values = {};
    }
    table.last_review_probes = table.probes;
    table.last_review_hits = table.hits;
  }
  return raw;
}

void ForestExecutor::hand_off(Workspace& ws, const PlanForest::Node& node,
                              Step step, std::size_t item,
                              PlanMask active) const {
  HandOff h;
  h.trie_node = static_cast<std::uint32_t>(&node - forest_->nodes().data());
  h.step = step;
  h.item = static_cast<std::uint16_t>(item);
  h.mask = active;
  h.mapped = {ws.mapped, static_cast<std::size_t>(node.depth)};
  ws.shipper->hand_off(h);
}

bool ForestExecutor::eval_leaves(Workspace& ws, const PlanForest::Node& node,
                                 PlanMask active) const {
  const int depth = node.depth;
  const std::span<const VertexId> mapped{ws.mapped,
                                         static_cast<std::size_t>(depth)};

  for (std::size_t li = 0; li < node.count_leaves.size(); ++li) {
    const PlanForest::CountLeaf& leaf = node.count_leaves[li];
    if (((active >> leaf.plan) & 1) == 0) continue;
    const exec::Window w = exec::bounded_window(ws.mapped, leaf);
    if (w.empty()) continue;
    if (ws.shipper != nullptr &&
        !resident(leaf.predecessor_depths, ws.mapped)) {
      hand_off(ws, node, Step::kCountLeaf, li, active);
      continue;
    }
    const Count raw =
        leaf.memo_id >= 0
            ? memoized_raw_count(ws, leaf.memo_id, leaf.memo_key_depths,
                                 leaf.predecessor_depths, mapped,
                                 w.lo_inclusive, w.hi_exclusive)
            : exec::count_intersection_bounded(
                  *graph_, leaf.predecessor_depths, mapped, w.lo_inclusive,
                  w.hi_exclusive, ws.cand[depth], ws.tmp[depth]);
    ws.sums[static_cast<std::size_t>(leaf.plan)] +=
        raw - exec::count_used_in_intersection(*graph_,
                                               leaf.predecessor_depths, mapped,
                                               w.lo_inclusive, w.hi_exclusive);
  }

  if (node.iep_leaves.empty()) return true;
  if (ws.shipper != nullptr) {
    // Every set an active plan needs, a memoized k == 1 leaf's included,
    // must be buildable here; otherwise the whole IEP step travels.
    for (std::size_t i = 0; i < node.suffix_defs.size(); ++i)
      if ((node.suffix_def_demand_masks[i] & active) != 0 &&
          !resident(node.suffix_defs[i], ws.mapped)) {
        hand_off(ws, node, Step::kIepNode, 0, active);
        return false;
      }
  }
  // Materialize each suffix candidate set some active plan consumes —
  // once, however many S_i across however many leaves read it.
  if (ws.suffix_sets.size() < node.suffix_defs.size())
    ws.suffix_sets.resize(node.suffix_defs.size());
  for (std::size_t i = 0; i < node.suffix_defs.size(); ++i)
    if ((node.suffix_def_masks[i] & active) != 0)
      exec::build_suffix_set(*graph_, node.suffix_defs[i], mapped,
                             ws.suffix_sets[i], ws.scratch_a);
  for (const PlanForest::IepLeaf& leaf : node.iep_leaves) {
    if (((active >> leaf.plan) & 1) == 0) continue;
    if (leaf.memo_id >= 0) {
      // k == 1: the term sum is |S_0|; memoize the raw intersection and
      // correct for used vertices outside the memo.
      const auto& def =
          node.suffix_defs[static_cast<std::size_t>(leaf.set_ids[0])];
      const Count raw =
          memoized_raw_count(ws, leaf.memo_id, leaf.memo_key_depths, def,
                             mapped, 0, kNoVertexBound);
      ws.sums[static_cast<std::size_t>(leaf.plan)] +=
          raw - exec::count_used_in_intersection(*graph_, def, mapped, 0,
                                                 kNoVertexBound);
      ++ws.iep_terms;  // the memoized k == 1 plan has exactly one term
      continue;
    }
    const Plan& plan = forest_->plans()[static_cast<std::size_t>(leaf.plan)];
    ws.sums[static_cast<std::size_t>(leaf.plan)] +=
        exec::evaluate_iep_terms(plan.iep.terms, ws.suffix_sets, leaf.set_ids,
                                 ws.scratch_a, ws.scratch_b);
    ws.iep_terms += plan.iep.terms.size();
  }
  return true;
}

void ForestExecutor::exec_node(Workspace& ws, const PlanForest::Node& node,
                               PlanMask active) const {
  // Leaves first: they may use cand[depth]/tmp[depth], which the
  // extension loop below rebuilds.
  bool sets_built = true;
  if (!node.count_leaves.empty() || !node.iep_leaves.empty())
    sets_built = eval_leaves(ws, node, active);

  const int depth = node.depth;
  const std::span<const VertexId> mapped{ws.mapped,
                                         static_cast<std::size_t>(depth)};
  for (std::size_t e = 0; e < node.extensions.size(); ++e) {
    const PlanForest::Extension& ext = node.extensions[e];
    if ((ext.mask & active) == 0) continue;

    // Resolve each active branch's restriction window under the current
    // mapping; the loop runs over the union window and narrows the
    // active-plan mask per candidate, so plans differing only in
    // restrictions share the intersection built below.
    const Branches rb(ws.mapped, ext, active);
    if (rb.live == 0) continue;

    std::span<const VertexId> cands;
    if (ext.reuse_suffix_def >= 0 && sets_built &&
        (node.suffix_def_masks[static_cast<std::size_t>(
             ext.reuse_suffix_def)] &
         active) != 0) {
      // eval_leaves just materialized this intersection as a shared IEP
      // suffix set; copy it (child recursion reuses the suffix slots) —
      // cheaper than re-intersecting, and the removed used vertices
      // would be skipped by the loop anyway.
      const auto& set =
          ws.suffix_sets[static_cast<std::size_t>(ext.reuse_suffix_def)];
      ws.cand[depth].assign(set.begin(), set.end());
      cands = ws.cand[depth];
    } else if (ws.shipper != nullptr &&
               !resident(ext.predecessor_depths, ws.mapped)) {
      hand_off(ws, node, Step::kExtension, e, active);
      continue;
    } else {
      cands = exec::build_candidates(*graph_, ext.predecessor_depths, mapped,
                                     ws.cand[depth], ws.tmp[depth],
                                     ws.all_vertices);
    }
    run_loop(ws, ext, rb, cands, depth);
  }
}

void ForestExecutor::run_loop(Workspace& ws, const PlanForest::Extension& ext,
                              const Branches& rb,
                              std::span<const VertexId> cands,
                              int depth) const {
  const PlanForest::Node& child =
      forest_->nodes()[static_cast<std::size_t>(ext.child)];
  const std::span<const VertexId> mapped{ws.mapped,
                                         static_cast<std::size_t>(depth)};
  const auto range =
      rb.union_window.unbounded()
          ? cands
          : trim_to_window(cands, rb.union_window.lo_inclusive,
                           rb.union_window.hi_exclusive);
  if (rb.live == 1) {
    // Common case: one distinct window — the trim above already applied
    // it, so no per-vertex checks are needed.
    const PlanMask next = rb.masks[0];
    for (VertexId v : range) {
      if (exec::already_used(mapped, v)) continue;
      ws.mapped[depth] = v;
      exec_node(ws, child, next);
    }
    return;
  }
  for (VertexId v : range) {
    const PlanMask next = rb.mask_at(v);
    if (next == 0 || exec::already_used(mapped, v)) continue;
    ws.mapped[depth] = v;
    exec_node(ws, child, next);
  }
}

exec::Window ForestExecutor::extension_window(const VertexId* mapped,
                                              std::uint32_t trie_node,
                                              std::uint16_t item,
                                              PlanMask mask) const {
  const PlanForest::Node& node = forest_->nodes()[trie_node];
  return Branches(mapped, node.extensions[item], mask).union_window;
}

void ForestExecutor::resume_extension(Workspace& ws, std::uint32_t trie_node,
                                      std::uint16_t item, PlanMask mask,
                                      std::span<const VertexId> candidates)
    const {
  const PlanForest::Node& node = forest_->nodes()[trie_node];
  const PlanForest::Extension& ext = node.extensions[item];
  const Branches rb(ws.mapped, ext, mask);
  if (rb.live != 0) run_loop(ws, ext, rb, candidates, node.depth);
}

void ForestExecutor::reset(Workspace& ws) const {
  GRAPHPI_CHECK_MSG(ws.shipper == nullptr || residency_ != nullptr,
                    "a shipping hook needs a shard executor");
  ws.sums.assign(forest_->plans().size(), 0);
  if (ws.bound_executor != id_) {
    // Memo keys are only meaningful for the executor that wrote them.
    ws.memo.clear();
    ws.bound_executor = id_;
  }
  if (ws.memo.size() < forest_->stats().memoized_leaves)
    ws.memo.resize(forest_->stats().memoized_leaves);
}

void ForestExecutor::accumulate_root(Workspace& ws, VertexId v0) const {
  const PlanForest::Node& root = forest_->root();
  GRAPHPI_CHECK_MSG(root.iep_leaves.empty(),
                    "accumulate_root requires IEP plans with an outer loop");
  // A root leaf is a 1-vertex plan: no predecessors or bounds can
  // reference depth < 0, so it counts every root exactly once.
  for (const PlanForest::CountLeaf& leaf : root.count_leaves)
    ++ws.sums[static_cast<std::size_t>(leaf.plan)];
  // Root extensions are likewise unconstrained, so any v0 is a valid
  // depth-0 assignment.
  for (const PlanForest::Extension& ext : root.extensions) {
    ws.mapped[0] = v0;
    exec_node(ws, forest_->nodes()[static_cast<std::size_t>(ext.child)],
              ext.mask & forest_->all_plans_mask());
  }
}

std::vector<Count> ForestExecutor::finalize(
    std::span<const Count> sums) const {
  const auto& plans = forest_->plans();
  GRAPHPI_CHECK(sums.size() == plans.size());
  std::vector<Count> out(sums.begin(), sums.end());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (!plans[i].iep_active()) continue;
    GRAPHPI_CHECK_MSG(out[i] % plans[i].iep.divisor == 0,
                      "IEP sum must be divisible by the surviving-"
                      "automorphism factor x");
    out[i] /= plans[i].iep.divisor;
  }
  return out;
}

std::vector<Count> ForestExecutor::count(Workspace& ws,
                                         const support::ExecControl* control,
                                         support::RunReport* report) const {
  reset(ws);
  support::metrics::metric_counter("engine.forest.runs").inc();
  if (control == nullptr || !control->armed()) {
    exec_node(ws, forest_->root(), forest_->all_plans_mask());
    // The depth-0 candidate loop scans every vertex exactly once.
    flush_metrics(ws, graph_->vertex_count());
    if (report != nullptr)
      *report = support::RunReport{support::RunStatus::kOk,
                                   graph_->vertex_count()};
    return finalize(ws.sums);
  }
  support::PollGate gate(control);
  for (VertexId v0 = 0; v0 < graph_->vertex_count(); ++v0) {
    accumulate_root(ws, v0);
    if (gate.completed_unit() != support::RunStatus::kOk) break;
  }
  if (report != nullptr) {
    report->status = gate.status();
    report->completed_roots = gate.done();
  }
  support::observe_run_status(gate.status());
  flush_metrics(ws, gate.done());
  return gate.status() == support::RunStatus::kOk ? finalize(ws.sums)
                                                  : finalize_partial(ws.sums);
}

ForestExecutor::MemoStats ForestExecutor::memo_stats(
    const Workspace& ws) noexcept {
  MemoStats stats;
  for (const Workspace::MemoTable& table : ws.memo) {
    stats.lookups += table.probes;
    stats.hits += table.hits;
    if (table.disabled) ++stats.shutoffs;
  }
  return stats;
}

void ForestExecutor::flush_metrics(Workspace& ws, std::uint64_t roots) const {
  using support::metrics::Counter;
  using support::metrics::metric_counter;
  static Counter& c_roots = metric_counter("engine.forest.roots_completed");
  static Counter& c_lookups = metric_counter("engine.memo.lookups");
  static Counter& c_hits = metric_counter("engine.memo.hits");
  static Counter& c_shutoffs = metric_counter("engine.memo.shutoffs");
  static Counter& c_iep = metric_counter("engine.iep.terms_evaluated");
  if (roots != 0) c_roots.inc(roots);
  // Deltas against the workspace's last flush; a cleared memo (executor
  // rebind) makes `now < mark`, in which case the totals restart.
  const auto delta = [](std::uint64_t now, std::uint64_t& mark) {
    const std::uint64_t d = now >= mark ? now - mark : now;
    mark = now;
    return d;
  };
  const MemoStats now = memo_stats(ws);
  c_lookups.inc(delta(now.lookups, ws.metrics_mark.lookups));
  c_hits.inc(delta(now.hits, ws.metrics_mark.hits));
  c_shutoffs.inc(delta(now.shutoffs, ws.metrics_mark.shutoffs));
  c_iep.inc(delta(ws.iep_terms, ws.metrics_mark.iep_terms));
}

std::vector<Count> ForestExecutor::finalize_partial(
    std::span<const Count> sums) const {
  const auto& plans = forest_->plans();
  GRAPHPI_CHECK(sums.size() == plans.size());
  std::vector<Count> out(sums.begin(), sums.end());
  for (std::size_t i = 0; i < plans.size(); ++i)
    if (plans[i].iep_active()) out[i] /= plans[i].iep.divisor;
  return out;
}

std::vector<Count> ForestExecutor::count() const {
  Workspace ws;
  return count(ws);
}

Count count_embeddings(const Graph& graph, const Configuration& config) {
  const PlanForest forest({compile_plan(config)});
  return ForestExecutor(graph, forest).count().front();
}

Count count_embeddings(const Graph& graph, const Pattern& pattern,
                       bool use_iep) {
  PlannerOptions options;
  options.use_iep = use_iep;
  return count_embeddings(
      graph, plan_configuration(pattern, GraphStats::of(graph), options));
}

}  // namespace graphpi
