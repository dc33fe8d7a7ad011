#include "dist/runtime.h"

#include <algorithm>
#include <atomic>
#include <chrono>
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
using Step = ForestExecutor::Step;
using Target = ContinuationMsg::Target;

static_assert(static_cast<int>(Step::kExtension) ==
                  static_cast<int>(Target::kExtension) &&
              static_cast<int>(Step::kCountLeaf) ==
                  static_cast<int>(Target::kCountLeaf) &&
              static_cast<int>(Step::kIepNode) ==
                  static_cast<int>(Target::kIepChain));
static_assert(ForestExecutor::kNotResident == Shard::kNotResident);

/// Where a chain that must leave its node goes: the lockstep executor
/// sends it straight through the channel, the async executor buffers it
/// in a per-destination coalescer and flushes batch frames. What is
/// shipped — and therefore every count — is the same.
class Outbox {
 public:
  virtual void post(int from, int dest, const ContinuationMsg& m) = 0;

 protected:
  ~Outbox() = default;
};

/// One worker of a logical node: a workspace of the node's shard executor
/// plus its shipping hook. The executor walks the trie and hands off every
/// step that needs a non-resident adjacency; here such a step becomes a
/// continuation chain that folds in the adjacencies resident on the
/// current node and ships the rest to an owner. A chain completed on a
/// node adds its count there or resumes the walk through the executor.
class ShardWorker final : public ForestExecutor::Shipper {
 public:
  ShardWorker(const ShardedGraph& sharded, const ForestExecutor& executor,
              int node, Outbox& outbox)
      : sharded_(&sharded),
        shard_(&sharded.shard(node)),
        executor_(&executor),
        node_(node),
        outbox_(&outbox) {
    executor.reset(ws_);
    ws_.shipper = this;
  }
  ShardWorker(const ShardWorker&) = delete;  // ws_.shipper points here
  ShardWorker& operator=(const ShardWorker&) = delete;

  /// Walks the whole forest from owned root `v0`.
  void run_root(VertexId v0) {
    executor_->accumulate_root(ws_, v0);
    ++roots_;
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
    std::copy(m.mapped.begin(), m.mapped.end(), ws_.mapped);
    advance_chain(m);
  }

  void hand_off(const ForestExecutor::HandOff& h) override {
    ContinuationMsg m;
    m.trie_node = h.trie_node;
    m.target = static_cast<Target>(h.step);
    m.item = h.item;
    m.mask = h.mask;
    m.mapped.assign(h.mapped.begin(), h.mapped.end());
    if (h.step == Step::kIepNode)
      m.done_sets.resize(trie_node(m).suffix_defs.size());
    advance_chain(m);
  }

  /// Undivided per-plan sums of everything this worker completed.
  [[nodiscard]] const std::vector<Count>& sums() const { return ws_.sums; }

  /// Publishes the run's memo, IEP and completed-root tallies; call once
  /// per run, after the worker stopped.
  void flush_metrics() { executor_->flush_metrics(ws_, roots_); }

  std::uint64_t shipped_continuations = 0;
  std::uint64_t shipped_set_vertices = 0;
  std::uint64_t decode_failures = 0;

 private:
  [[nodiscard]] const PlanForest::Node& trie_node(
      const ContinuationMsg& m) const {
    return executor_->forest().nodes()[m.trie_node];
  }

  [[nodiscard]] static std::uint8_t full_fold_mask(std::size_t preds) {
    return static_cast<std::uint8_t>((1u << preds) - 1);
  }

  /// Folds every locally-resident, not-yet-folded predecessor of the
  /// chain's current item into m.partial (first fold materializes the
  /// window-trimmed adjacency). Returns true when the set is complete —
  /// either all predecessors folded or the intersection emptied out.
  bool fold_local(std::span<const int> preds, exec::Window clamp,
                  ContinuationMsg& m) {
    for (std::size_t i = 0; i < preds.size(); ++i) {
      if (m.folded & (1u << i)) continue;
      const VertexId pv = ws_.mapped[preds[i]];
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
    outbox_->post(node_, dest, m);
  }

  /// Advances a chain on this node as far as local residency allows:
  /// completes the item (resuming the extension's loop, adding the count
  /// or evaluating the IEP terms here) or ships the remainder. ws_.mapped
  /// must already hold m.mapped.
  void advance_chain(ContinuationMsg& m) {
    const PlanForest::Node& node = trie_node(m);
    switch (m.target) {
      case Target::kExtension: {
        const exec::Window clamp =
            executor_->extension_window(ws_.mapped, m.trie_node, m.item, m.mask);
        if (clamp.empty()) return;
        if (!fold_local(node.extensions[m.item].predecessor_depths, clamp,
                        m)) {
          ship(node.extensions[m.item].predecessor_depths, m);
          return;
        }
        executor_->resume_extension(ws_, m.trie_node, m.item, m.mask,
                                    m.partial);
        return;
      }
      case Target::kCountLeaf: {
        const PlanForest::CountLeaf& leaf = node.count_leaves[m.item];
        const exec::Window w = exec::bounded_window(ws_.mapped, leaf);
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
        ws_.sums[static_cast<std::size_t>(leaf.plan)] +=
            static_cast<Count>(m.partial.size()) - used;
        return;
      }
      case Target::kIepChain:
        advance_iep_chain(node, m);
        return;
    }
    GRAPHPI_CHECK_MSG(false, "unknown continuation target");
  }

  /// Builds every suffix set an active plan demands, carrying the
  /// completed ones along, then evaluates every active plan's terms.
  void advance_iep_chain(const PlanForest::Node& node, ContinuationMsg& m) {
    const std::vector<PlanMask>& demand = node.suffix_def_demand_masks;
    const std::span<const VertexId> mapped{ws_.mapped, m.mapped.size()};
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
    for (const PlanForest::IepLeaf& leaf : node.iep_leaves) {
      if (((m.mask >> leaf.plan) & 1) == 0) continue;
      const Plan& plan =
          executor_->forest().plans()[static_cast<std::size_t>(leaf.plan)];
      ws_.sums[static_cast<std::size_t>(leaf.plan)] +=
          exec::evaluate_iep_terms(plan.iep.terms, m.done_sets, leaf.set_ids,
                                   ws_.scratch_a, ws_.scratch_b);
      ws_.iep_terms += plan.iep.terms.size();
    }
  }

  const ShardedGraph* sharded_;
  const Shard* shard_;
  const ForestExecutor* executor_;
  int node_;
  Outbox* outbox_;
  ForestExecutor::Workspace ws_;
  std::uint64_t roots_ = 0;
  std::vector<VertexId> fold_tmp_;  ///< chain-folding swap buffer
};

/// One executor per node, over the node's shard view and resident set.
/// Constructing them builds each view's hub index when a plan wants one,
/// before any worker thread starts.
std::vector<ForestExecutor> shard_executors(const ShardedGraph& sharded,
                                            const PlanForest& forest) {
  std::vector<ForestExecutor> executors;
  executors.reserve(static_cast<std::size_t>(sharded.nodes()));
  for (int n = 0; n < sharded.nodes(); ++n)
    executors.emplace_back(sharded.shard(n).view(), forest,
                           sharded.shard(n).local_ids());
  return executors;
}

/// Ends a run once every node is quiescent. Every non-master node reports
/// its undivided per-plan sums once — the "counts travel" half of the
/// paper's message economy — over the (still fault-injected) channel, and
/// the drain keeps ticking it so dropped or corrupted reports are
/// retransmitted until the master has all of them. A stopped run skips
/// the exchange (in-flight continuations are abandoned) and finalizes
/// whatever every node accumulated, best-effort.
std::vector<Count> gather_counts(ReliableChannel& channel,
                                 const ForestExecutor& executor,
                                 support::RunStatus status,
                                 std::vector<std::vector<Count>> node_sums,
                                 std::uint64_t& decode_failures) {
  const std::size_t nodes = node_sums.size();
  std::vector<Count> total = std::move(node_sums[0]);
  if (status != support::RunStatus::kOk) {
    for (std::size_t n = 1; n < nodes; ++n)
      for (std::size_t i = 0; i < total.size(); ++i)
        total[i] += node_sums[n][i];
    return executor.finalize_partial(total);
  }
  for (std::size_t n = 1; n < nodes; ++n) {
    PartialCountsMsg report;
    report.sums = std::move(node_sums[n]);
    channel.send(static_cast<int>(n), 0, MessageKind::kPartialCounts,
                 report.encode());
  }
  std::size_t reports = 0;
  Message msg;
  while (reports + 1 < nodes || !channel.idle()) {
    channel.tick();
    for (std::size_t n = 0; n < nodes; ++n)
      channel.service_retransmits(static_cast<int>(n));
    // Non-master receives only consume acks (straggler continuation
    // duplicates are deduped inside receive()); the master accumulates
    // each report exactly once.
    for (std::size_t n = 0; n < nodes; ++n) {
      while (channel.receive(static_cast<int>(n), msg)) {
        GRAPHPI_CHECK(n == 0);
        GRAPHPI_CHECK(msg.kind == MessageKind::kPartialCounts);
        PartialCountsMsg report;
        if (!PartialCountsMsg::try_decode(msg.payload, report) ||
            report.sums.size() != total.size()) {
          // Unreachable with an intact CRC frame; counted, not UB.
          ++decode_failures;
          ++reports;
          continue;
        }
        for (std::size_t i = 0; i < total.size(); ++i)
          total[i] += report.sums[i];
        ++reports;
      }
    }
  }
  return executor.finalize(total);
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
class LockstepForestRun final : public Outbox {
 public:
  LockstepForestRun(const ShardedGraph& sharded, const PlanForest& forest,
                    const ClusterOptions& options)
      : sharded_(&sharded),
        channel_(sharded.nodes(), options.faults),
        control_(options.control != nullptr && options.control->armed()
                     ? options.control
                     : nullptr),
        executors_(shard_executors(sharded, forest)) {
    nodes_.resize(static_cast<std::size_t>(sharded.nodes()));
    for (std::size_t n = 0; n < nodes_.size(); ++n)
      nodes_[n].worker = std::make_unique<ShardWorker>(
          sharded, executors_[n], static_cast<int>(n), *this);
  }

  void post(int from, int dest, const ContinuationMsg& m) override {
    channel_.send(from, dest, MessageKind::kContinuation, m.encode());
  }

  std::vector<Count> run(ClusterStats* stats,
                         support::RunReport* run_report = nullptr) {
    // Service nodes round-robin, one unit of work per turn, until no node
    // has anything left AND the reliable channel has drained (frames may
    // need retransmitting under a fault plan): inbox message first, then
    // the next owned root. An armed ExecControl is checked once per
    // round — root-grained, every `nodes` work units.
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
    std::vector<std::vector<Count>> node_sums;
    for (const NodeSlot& ns : nodes_) {
      node_sums.push_back(ns.worker->sums());
      ns.worker->flush_metrics();
    }
    std::vector<Count> counts =
        gather_counts(channel_, executors_.front(), status,
                      std::move(node_sums), decode_failures_);
    if (stats != nullptr) fill_stats(*stats);
    return counts;
  }

 private:
  struct NodeSlot {
    std::unique_ptr<ShardWorker> worker;
    std::size_t next_root = 0;
    double seconds = 0.0;
  };

  bool service(int n) {
    NodeSlot& ns = nodes_[static_cast<std::size_t>(n)];
    Message msg;
    if (channel_.receive(n, msg)) {
      support::Timer timer;
      ns.worker->process_payload(msg);
      ns.seconds += timer.elapsed_seconds();
      return true;
    }
    const auto owned = sharded_->shard(n).owned();
    if (ns.next_root < owned.size()) {
      const VertexId v0 = owned[ns.next_root++];
      support::Timer timer;
      ns.worker->run_root(v0);
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
    out.seconds_per_node.reserve(nodes_.size());
    for (const NodeSlot& ns : nodes_) {
      out.seconds_per_node.push_back(ns.seconds);
      out.shipped_continuations += ns.worker->shipped_continuations;
      out.shipped_set_vertices += ns.worker->shipped_set_vertices;
      decode_failures += ns.worker->decode_failures;
    }
    out.decode_failures = decode_failures;
  }

  const ShardedGraph* sharded_;
  ReliableChannel channel_;
  const support::ExecControl* control_ = nullptr;
  std::vector<ForestExecutor> executors_;
  std::vector<NodeSlot> nodes_;
  std::uint64_t roots_done_ = 0;
  std::uint64_t decode_failures_ = 0;
};

// ---------------------------------------------------------------------------
// Async executor: one worker pool per node, coalesced flushes,
// cooperative backpressure. Counts are bit-identical to lockstep because
// the walk (ShardWorker over ForestExecutor) is the same code and integer
// partial sums are order-independent; what changes is WHEN things run —
// compute and communication overlap instead of alternating.
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
        flush_bytes_(std::max(1, options.flush_bytes)),
        executors_(shard_executors(sharded, forest)) {
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

    std::vector<std::vector<Count>> node_sums(
        static_cast<std::size_t>(sharded_->nodes()),
        std::vector<Count>(forest_->plans().size(), 0));
    for (auto& w : workers_) {
      auto& sums = node_sums[static_cast<std::size_t>(w->node)];
      for (std::size_t i = 0; i < sums.size(); ++i)
        sums[i] += w->walk.sums()[i];
      w->walk.flush_metrics();
    }
    // The post-quiescence count exchange runs from the master thread, the
    // same way the lockstep executor does it.
    std::vector<Count> counts =
        gather_counts(channel_, executors_.front(), merged.status,
                      std::move(node_sums), decode_failures_);
    if (stats != nullptr) fill_stats(*stats);
    return counts;
  }

 private:
  /// Owned roots claimed from a node's cursor per grab: small enough to
  /// load-balance a pool, large enough to amortize the atomic. The
  /// in-memory OpenMP root schedule uses support::kRootChunk instead.
  static constexpr std::size_t kOwnedRootsPerClaim = 16;

  struct Worker final : Outbox {
    Worker(AsyncForestRun& run, int node_idx)
        : run(&run),
          node(node_idx),
          walk(*run.sharded_,
               run.executors_[static_cast<std::size_t>(node_idx)], node_idx,
               *this),
          buffers(static_cast<std::size_t>(run.sharded_->nodes())),
          buffered_bytes(static_cast<std::size_t>(run.sharded_->nodes()), 0) {}

    // -- Outbox: coalesce into per-destination buffers ----------------------
    void post(int /*from*/, int dest, const ContinuationMsg& m) override {
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
    ShardWorker walk;
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
    out.seconds_per_node.assign(nodes, 0.0);
    std::uint64_t decode_failures = decode_failures_;
    for (const auto& w : workers_) {
      const auto n = static_cast<std::size_t>(w->node);
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
  std::vector<ForestExecutor> executors_;

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
  support::Timer timer;
  const std::vector<Count> counts = executor.count(ws, control, report);
  ClusterStats local;
  ClusterStats* s = stats != nullptr ? stats : &local;
  *s = ClusterStats{};
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
