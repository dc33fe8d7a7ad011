// Sharded multi-node distributed runtime (Section IV-E, grown past the
// paper's whole-graph-per-node assumption).
//
// Every logical node holds ONLY its shard of the data graph — owned CSR
// rows plus the 1-hop ghost halo (dist/shard.h) — and runs the one trie
// walker, engine/forest.h's ForestExecutor, over that shard's global-id
// view and resident set, one workspace per worker, memo tables and IEP
// suffix-set reuse included. The walk hands every step whose adjacency is
// not resident to the worker's shipping hook. That hook folds in the
// adjacencies resident on the current node, serializes the continuation —
// partial embedding, set-build progress, and the in-flight candidate set
// — and ships it to the owner of the missing adjacency over the typed
// channel (dist/comm.h); a chain completed there resumes the walk through
// ForestExecutor::resume_extension(). Partial counts flow back to the
// master at the end; full embeddings never travel. Message and byte
// counters make that economy measurable, and per-node busy time and
// traffic feed the comm-cost model in dist/simulator.h.
//
// Two executors drive the same workers; they differ only in scheduling:
//
//   * ExecMode::kLockstep — the original single-threaded round-robin
//     service loop: one unit of work (an arrived continuation or an owned
//     root) per node per turn, compute strictly alternating with channel
//     drains. Fully deterministic (fault injection replays exactly), the
//     reference for the differential tests.
//   * ExecMode::kAsync — real compute/comm overlap: each node runs a
//     small pool of worker threads (workers_per_node) draining a bounded
//     MPMC mailbox; continuations are coalesced per destination and
//     flushed as batch frames (one header + CRC + ack per batch), with
//     cooperative backpressure when a peer's mailbox is full. Counts are
//     bit-identical to lockstep/serial — integer partial sums are
//     order-independent — while wall clock drops because nothing round-
//     robins: workers walk roots while frames move.
//
// A single pattern is executed as a one-plan forest, so the same sharded
// executor serves single-pattern counting (distributed_count) and
// whole-batch motif censuses (distributed_count_batch) — results are
// bit-identical to the in-memory ForestExecutor::count(), asserted by
// tests that also poison non-resident adjacency to prove no node ever
// reads outside its shard.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/configuration.h"
#include "core/plan_forest.h"
#include "dist/comm.h"
#include "dist/shard.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "support/exec_control.h"

namespace graphpi::dist {

/// How the logical nodes are driven (see file header).
enum class ExecMode : std::uint8_t {
  kLockstep = 0,  ///< deterministic single-threaded round-robin service
  kAsync = 1,     ///< one worker pool per node, mailboxes + coalesced flushes
};

[[nodiscard]] const char* to_string(ExecMode mode) noexcept;

/// Parses "lockstep" / "async" (CLI flag form). False on anything else.
[[nodiscard]] bool parse_exec_mode(std::string_view name,
                                   ExecMode& out) noexcept;

struct ClusterOptions {
  /// Number of logical nodes (>= 1). 1 runs the whole forest locally
  /// (no sharding, no messages).
  int nodes = 2;
  PartitionStrategy partition = PartitionStrategy::kHash;
  /// Seeded fault injection applied to the transport; the reliability
  /// layer (dist/comm.h) keeps counts bit-identical under any plan with
  /// all probabilities < 1 in both exec modes.
  FaultPlan faults{};
  /// Optional deadline/cancel/budget handle (not owned). Lockstep checks
  /// it once per round-robin service round; async workers poll it at
  /// their own root stride and the master merges the per-worker
  /// RunReports. On a stop the run returns partial counts; pass a
  /// RunReport to the counting entry points to observe the status.
  const support::ExecControl* control = nullptr;

  ExecMode exec = ExecMode::kLockstep;
  /// Async only: worker threads per logical node (>= 1). The pool shares
  /// the node's mailbox and claims owned roots from a shared cursor, so
  /// intra-node parallelism composes with the inter-node kind.
  int workers_per_node = 1;
  /// Async only: frames a node's mailbox holds before senders of new
  /// data stall (cooperative backpressure; protocol traffic — acks,
  /// retransmits — is never refused). 0 = unbounded.
  int mailbox_capacity = 1024;
  /// Async only: continuation payloads buffered per destination before a
  /// coalesced batch-frame flush (1 disables coalescing).
  int flush_payloads = 32;
  /// Async only: buffered payload bytes per destination that force a
  /// flush even below flush_payloads.
  int flush_bytes = 1 << 16;
};

/// Observability counters for one distributed run. Byte counters measure
/// serialized payloads (see dist/comm.h).
struct ClusterStats {
  std::uint64_t messages = 0;  ///< all channel messages
  std::uint64_t bytes = 0;     ///< all channel payload bytes
  /// Continuation-kind channel messages (lockstep: one per shipped
  /// continuation; async: one per FRAME, many continuations per batch
  /// frame — see coalesced_payloads).
  std::uint64_t continuation_messages = 0;
  std::uint64_t continuation_bytes = 0;
  /// Walk continuations shipped (payloads, not frames — mode-independent:
  /// identical across lockstep and async for the same run).
  std::uint64_t shipped_continuations = 0;
  /// Candidate-set vertices carried inside continuations (in-flight
  /// intersections + completed IEP suffix sets).
  std::uint64_t shipped_set_vertices = 0;
  /// Partial-count reports to the master.
  std::uint64_t count_messages = 0;
  std::uint64_t count_bytes = 0;
  std::vector<double> seconds_per_node;  ///< busy time per node
  std::vector<std::uint64_t> sent_messages_per_node;
  std::vector<std::uint64_t> sent_bytes_per_node;
  /// Shard shape of the run; owned_per_node is also each node's root
  /// count.
  std::vector<std::uint32_t> owned_per_node;
  std::vector<std::uint32_t> ghosts_per_node;
  double replication_factor = 0.0;
  // Reliability-protocol counters (see dist/comm.h ReliableChannel).
  std::uint64_t ack_messages = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t corrupt_frames_detected = 0;
  std::uint64_t duplicates_suppressed = 0;
  /// Intact frames whose payload still failed structural decode — counted
  /// and skipped (the sender's retransmit timer re-requests) instead of UB.
  std::uint64_t decode_failures = 0;
  // What the fault plan actually injected at the transport.
  std::uint64_t injected_drops = 0;
  std::uint64_t injected_duplicates = 0;
  std::uint64_t injected_reorders = 0;
  std::uint64_t injected_corruptions = 0;
  // Async-executor counters (zero in lockstep mode).
  std::uint64_t flushes = 0;            ///< coalescer flush operations
  std::uint64_t coalesced_frames = 0;   ///< batch frames on the wire
  std::uint64_t coalesced_payloads = 0; ///< continuations inside batch frames
  std::uint64_t mailbox_stalls = 0;     ///< flushes that found a full peer
  std::uint64_t mailbox_high_water = 0; ///< deepest any mailbox got (frames)

  /// Element-wise merge (chunked batches accumulate across forests).
  void accumulate(const ClusterStats& other);
};

/// Counts embeddings of `config` on `graph` with the sharded cluster.
/// Exactly equal to count_embeddings() (asserted by tests). A non-null
/// `report` receives the stop status and completed root count when
/// `options.control` is armed (partial counts skip the IEP divisibility
/// check — they are best-effort, not exact).
[[nodiscard]] Count distributed_count(const Graph& graph,
                                      const Configuration& config,
                                      const ClusterOptions& options = {},
                                      ClusterStats* stats = nullptr,
                                      support::RunReport* report = nullptr);

/// Counts every plan of a prefix-sharing forest in one sharded batch
/// traversal — the distributed twin of ForestExecutor::count(), returning
/// finalized per-plan counts indexed like forest.plans().
[[nodiscard]] std::vector<Count> distributed_count_batch(
    const Graph& graph, const PlanForest& forest,
    const ClusterOptions& options = {}, ClusterStats* stats = nullptr,
    support::RunReport* report = nullptr);

/// Same, on a prebuilt sharding (`options.nodes`/`options.partition` are
/// ignored in favor of the sharding's own). This is the entry point the
/// shard-isolation tests use with poisoned non-resident rows.
[[nodiscard]] std::vector<Count> distributed_count_batch(
    const ShardedGraph& sharded, const PlanForest& forest,
    const ClusterOptions& options = {}, ClusterStats* stats = nullptr,
    support::RunReport* report = nullptr);

}  // namespace graphpi::dist
