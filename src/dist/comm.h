// In-process typed message channel for the sharded distributed runtime.
//
// Every cross-node interaction of the sharded executor travels through a
// Channel as a SERIALIZED byte payload — continuations carrying partial
// embeddings and in-flight candidate sets, and per-plan partial counts.
// Serializing (instead of passing pointers between logical nodes of the
// same process) keeps the simulation honest: the byte counters measure
// exactly what a wire would carry, so the paper's "counts travel,
// embeddings never do" economy becomes a number instead of a slogan, and
// the comm-cost model in dist/simulator.h has real inputs.
//
// The channel is thread-safe: the lockstep executor drives all logical
// nodes from one thread (deterministic round-robin), while the async
// executor runs one worker pool per node with the channel as the only
// shared medium — inboxes are bounded MPMC queues, traffic counters are
// atomic, and the reliability bookkeeping (sequence numbers, unacked
// frames, dedup floors) is guarded per node. It can also MISBEHAVE like a
// transport: a seeded, deterministic FaultPlan injects drops, duplicates,
// reorders, and byte corruption per message kind, and the ReliableChannel
// layered on top restores exactly-once delivery with CRC32-framed
// payloads, sequence numbers, send-side retransmit with capped backoff,
// and receive-side dedup — the same protocol shape a real MPI/socket
// backend will need. Batch frames amortize one header + CRC + ack over
// many coalesced continuation payloads (see send_many).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <random>
#include <span>
#include <unordered_set>
#include <vector>

#include "graph/types.h"
#include "support/metrics.h"
#include "support/mpmc_queue.h"

namespace graphpi::dist {

enum class MessageKind : std::uint8_t {
  /// A walk continuation: partial embedding + set-build progress shipped
  /// to the owner of an adjacency the sender does not hold.
  kContinuation = 0,
  /// A node's per-plan partial sums reported to the master.
  kPartialCounts = 1,
  /// Reliability-layer acknowledgement of a received data frame.
  kAck = 2,
};
inline constexpr std::size_t kMessageKindCount = 3;

struct Message {
  MessageKind kind = MessageKind::kContinuation;
  int from = -1;
  int to = -1;
  std::vector<std::uint8_t> payload;
};

/// Deterministic fault injection: per-kind probabilities, seeded RNG.
/// The same plan + the same send sequence produces the same faults, so
/// failing runs reproduce exactly (in lockstep mode; async mode shares
/// the engine across sender threads, so which send draws which roll
/// depends on scheduling — the reliability layer keeps counts
/// bit-identical either way).
struct FaultPlan {
  struct Rates {
    double drop = 0.0;       ///< message silently lost
    double duplicate = 0.0;  ///< message delivered twice
    double reorder = 0.0;    ///< message jumps the queue at the receiver
    double corrupt = 0.0;    ///< 1–3 payload bytes flipped
  };

  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  Rates kind[kMessageKindCount] = {};

  [[nodiscard]] bool active() const noexcept {
    for (const Rates& r : kind)
      if (r.drop > 0 || r.duplicate > 0 || r.reorder > 0 || r.corrupt > 0)
        return true;
    return false;
  }

  /// Same rates for every kind — acks misbehave too.
  [[nodiscard]] static FaultPlan uniform(std::uint64_t seed, double drop,
                                         double duplicate, double reorder,
                                         double corrupt) {
    FaultPlan plan;
    plan.seed = seed;
    for (Rates& r : plan.kind) r = Rates{drop, duplicate, reorder, corrupt};
    return plan;
  }
};

/// Aggregate traffic counters, by kind and by sending node. The
/// injected_* counters record what the fault plan actually did. Snapshot
/// struct — Channel::stats() materializes it from atomic counters, so a
/// copy taken mid-run is internally consistent enough for monitoring and
/// exact once the channel has quiesced.
struct CommStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;  ///< payload bytes (headers excluded)
  std::uint64_t messages_by_kind[kMessageKindCount] = {};
  std::uint64_t bytes_by_kind[kMessageKindCount] = {};
  std::vector<std::uint64_t> sent_messages_per_node;
  std::vector<std::uint64_t> sent_bytes_per_node;
  std::uint64_t injected_drops = 0;
  std::uint64_t injected_duplicates = 0;
  std::uint64_t injected_reorders = 0;
  std::uint64_t injected_corruptions = 0;
};

/// All-to-all mailboxes between `nodes` logical nodes, with optional
/// fault injection at the send side. Inboxes are bounded MPMC queues
/// (`mailbox_capacity` frames each; 0 = unbounded). The channel itself
/// never refuses a send — protocol traffic (acks, retransmits) must
/// always land — so the bound is enforced cooperatively: senders of NEW
/// data consult inbox_size() and stall while a peer is at capacity (see
/// the async runtime's flush loop), and inbox_high_water() records how
/// deep mailboxes actually got.
class Channel {
 public:
  explicit Channel(int nodes, FaultPlan faults = {},
                   std::size_t mailbox_capacity = 0);

  void send(int from, int to, MessageKind kind,
            std::vector<std::uint8_t> payload);

  /// Pops the oldest message addressed to `node`; false when its inbox is
  /// empty.
  [[nodiscard]] bool receive(int node, Message& out);

  /// Blocks up to `timeout` for traffic addressed to `node` (without
  /// consuming it). False on timeout, close, or a fired `control`.
  [[nodiscard]] bool wait_for_traffic(int node, std::chrono::nanoseconds timeout,
                                      const support::ExecControl* control);

  /// True when every inbox is empty.
  [[nodiscard]] bool idle() const noexcept;

  /// True when `node`'s inbox is empty (the reliability layer's
  /// congestion signal: frames queued there are in flight, not lost).
  [[nodiscard]] bool inbox_empty(int node) const noexcept {
    return inboxes_[static_cast<std::size_t>(node)].empty();
  }
  [[nodiscard]] std::size_t inbox_size(int node) const noexcept {
    return inboxes_[static_cast<std::size_t>(node)].size();
  }
  [[nodiscard]] std::size_t inbox_high_water(int node) const noexcept {
    return inboxes_[static_cast<std::size_t>(node)].high_water();
  }
  [[nodiscard]] std::size_t mailbox_capacity() const noexcept {
    return inboxes_.empty() ? 0 : inboxes_[0].capacity();
  }

  /// Wakes every blocked receiver and drops subsequent sends — called
  /// once the async run has terminated so straggling protocol traffic
  /// cannot wedge an exiting worker.
  void close_all();

  [[nodiscard]] int nodes() const noexcept {
    return static_cast<int>(inboxes_.size());
  }

  /// Snapshot of the atomic traffic counters.
  [[nodiscard]] CommStats stats() const;

 private:
  /// Traffic counters as metrics::Counter value types — the same
  /// relaxed-increment primitive the process registry stores, embedded
  /// per channel (vectors are sized at construction and never resized;
  /// Counter, like std::atomic, cannot move).
  struct AtomicStats {
    explicit AtomicStats(std::size_t nodes)
        : sent_messages_per_node(nodes), sent_bytes_per_node(nodes) {}
    support::metrics::Counter messages;
    support::metrics::Counter bytes;
    support::metrics::Counter messages_by_kind[kMessageKindCount];
    support::metrics::Counter bytes_by_kind[kMessageKindCount];
    std::vector<support::metrics::Counter> sent_messages_per_node;
    std::vector<support::metrics::Counter> sent_bytes_per_node;
    support::metrics::Counter injected_drops;
    support::metrics::Counter injected_duplicates;
    support::metrics::Counter injected_reorders;
    support::metrics::Counter injected_corruptions;
  };

  std::deque<support::BoundedMpmcQueue<Message>> inboxes_;
  FaultPlan faults_;
  bool faults_active_ = false;
  std::mutex rng_mu_;  ///< guards rng_ (shared across sender threads)
  std::mt19937_64 rng_;
  AtomicStats stats_;
};

// ---------------------------------------------------------------------------
// Reliability layer: CRC32 frames + sequence numbers + retransmit/dedup.
// ---------------------------------------------------------------------------

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `data`.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept;

/// Protocol-level counters of the reliability layer. Snapshot struct
/// (see CommStats).
struct ReliabilityStats {
  std::uint64_t data_frames_sent = 0;  ///< first transmissions only
  std::uint64_t retransmits = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t corrupt_frames_detected = 0;  ///< CRC mismatches discarded
  std::uint64_t duplicates_suppressed = 0;    ///< dedup hits (frame re-acked)
  /// Coalesced batch frames (one header + CRC + ack amortized over many
  /// payloads) and the payloads they carried.
  std::uint64_t batch_frames_sent = 0;
  std::uint64_t batch_payloads = 0;
};

/// Exactly-once delivery over a lossy, duplicating, reordering,
/// corrupting Channel. Frame layout:
///
///   data:  [u8 frame=0][u32 seq][payload...][u32 crc]
///   ack:   [u8 frame=1][u32 seq][u32 crc]
///   batch: [u8 frame=2][u32 seq][u32 count]{[u32 len][bytes]}*count[u32 crc]
///
/// with the CRC covering every preceding byte. Sequence numbers are per
/// directed (from → to) link and shared across data and batch frames.
/// The receiver CRC-checks each frame, discards corrupt ones (the
/// sender's retransmit timer recovers them), acks every intact data or
/// batch frame — including duplicates, whose payloads are then
/// suppressed by per-sender dedup — and delivers the inner payloads
/// exactly once (a batch frame's payloads are staged and handed out one
/// receive() at a time). The sender keeps unacked frames and resends
/// them on a tick-driven timer with exponential backoff capped at
/// kRtoMaxTicks. Any fault probability < 1 converges; a retry cap guards
/// against livelock if a plan eats every copy.
///
/// Bookkeeping is O(1) per frame. A sender keeps one deque of unacked
/// frames per destination in seq order (seqs on a link are contiguous
/// and assigned under the sender's lock): an ack indexes its slot at
/// `seq - front.seq`, frees the frame bytes, and pops the acked prefix.
/// A receiver keeps, per sender, a floor below which every seq was
/// delivered plus a sparse set of the delivered seqs above it, so an
/// in-order link never hashes and dedup memory is bounded by the reorder
/// window, not by the run's traffic.
///
/// In-flight rule: a frame is in flight from its send until its ack is
/// consumed — while it is queued at the receiver, while the receiver is
/// popping and checking it (`popping`, set until every ack of that
/// receive() is queued back), and while its ack is queued at the
/// sender. Only a due frame that is in none of these states is presumed
/// lost, so a fault-free channel never retransmits, however the threads
/// of either endpoint are scheduled.
///
/// Thread safety: every per-node structure (sequence rows, unacked
/// frames, dedup floors, staged batch payloads) is guarded by that
/// node's mutex; a node's operations take only its own lock plus (inside
/// Channel) the destination inbox lock, so lock order is always
/// node → inbox and cross-node sends never deadlock.
class ReliableChannel {
 public:
  static constexpr std::uint32_t kRtoInitialTicks = 4;
  static constexpr std::uint32_t kRtoMaxTicks = 64;
  static constexpr std::uint32_t kMaxRetries = 4096;

  explicit ReliableChannel(int nodes, const FaultPlan& faults = {},
                           std::size_t mailbox_capacity = 0);

  void send(int from, int to, MessageKind kind,
            std::vector<std::uint8_t> payload);

  /// Coalesced flush: ships every payload in one batch frame — one
  /// header, one CRC, one sequence number, one ack for the lot. The
  /// receiver delivers them as individual kContinuation messages.
  void send_many(int from, int to, MessageKind kind,
                 std::vector<std::vector<std::uint8_t>>& payloads);

  /// Delivers the next new intact payload addressed to `node`, consuming
  /// (and acking / deduping / discarding) raw frames as needed. False
  /// when nothing deliverable is queued right now — more may appear
  /// after retransmits.
  [[nodiscard]] bool receive(int node, Message& out);

  /// Blocking receive for async workers: waits up to `timeout` for a
  /// deliverable payload. False on timeout, channel close, or a fired
  /// `control`.
  [[nodiscard]] bool receive_wait(int node, Message& out,
                                  std::chrono::nanoseconds timeout,
                                  const support::ExecControl* control);

  /// Resends `node`'s due unacked frames that are no longer in flight
  /// (see the in-flight rule above): the destination's inbox is empty
  /// and it is not mid-receive, and no ack is queued back here. True if
  /// anything was resent.
  bool service_retransmits(int node);

  /// Advances the retransmit clock one round.
  void tick() noexcept { now_.fetch_add(1, std::memory_order_relaxed); }

  /// True when no raw frames are queued, no batch payloads are staged,
  /// and every data frame is acked.
  [[nodiscard]] bool idle() const noexcept;

  /// Seqs `node` holds above its per-sender dedup floors: nonzero only
  /// while some link's arrivals are out of order.
  [[nodiscard]] std::size_t dedup_backlog(int node) const;

  /// See Channel: the cooperative backpressure signal and close.
  [[nodiscard]] std::size_t inbox_size(int node) const noexcept {
    return channel_.inbox_size(node);
  }
  [[nodiscard]] std::size_t inbox_high_water(int node) const noexcept {
    return channel_.inbox_high_water(node);
  }
  [[nodiscard]] std::size_t mailbox_capacity() const noexcept {
    return channel_.mailbox_capacity();
  }
  void close_all() { channel_.close_all(); }

  [[nodiscard]] int nodes() const noexcept { return channel_.nodes(); }
  [[nodiscard]] CommStats transport_stats() const { return channel_.stats(); }
  [[nodiscard]] ReliabilityStats reliability_stats() const {
    ReliabilityStats s;
    s.data_frames_sent = rstats_.data_frames_sent.value();
    s.retransmits = rstats_.retransmits.value();
    s.acks_sent = rstats_.acks_sent.value();
    s.corrupt_frames_detected = rstats_.corrupt_frames_detected.value();
    s.duplicates_suppressed = rstats_.duplicates_suppressed.value();
    s.batch_frames_sent = rstats_.batch_frames_sent.value();
    s.batch_payloads = rstats_.batch_payloads.value();
    return s;
  }

 private:
  struct Unacked {
    std::uint32_t seq = 0;
    MessageKind kind = MessageKind::kContinuation;
    bool acked = false;  ///< acked behind the deque front; awaiting pop
    std::vector<std::uint8_t> frame;  ///< full framed bytes, ready to resend
    std::uint64_t due = 0;
    std::uint32_t rto = kRtoInitialTicks;
    std::uint32_t retries = 0;
  };

  /// Receive-side dedup for one sender: every seq below `floor` was
  /// delivered; `above` holds the delivered seqs past it.
  struct SeenLink {
    std::uint32_t floor = 0;
    std::unordered_set<std::uint32_t> above;

    /// Records `seq`; false if it was delivered before.
    [[nodiscard]] bool first_arrival(std::uint32_t seq);
  };

  /// Everything one node mutates concurrently, under one lock.
  struct NodeRt {
    mutable std::mutex mu;  ///< mutable: idle() is a const observer
    /// Frames this node sent, per destination, in seq order.
    std::vector<std::deque<Unacked>> unacked;
    std::size_t live_unacked = 0;  ///< slots in `unacked` not yet acked
    std::vector<SeenLink> seen;    ///< per sender
    std::deque<Message> staged;  ///< unpacked batch payloads awaiting receive
    /// Set while a receive() pops raw frames, until their acks are
    /// queued: read lock-free by peers deciding what is in flight.
    std::atomic<bool> popping{false};
  };

  /// Protocol counters on the same metrics::Counter primitive (see
  /// Channel::AtomicStats).
  struct AtomicReliabilityStats {
    support::metrics::Counter data_frames_sent;
    support::metrics::Counter retransmits;
    support::metrics::Counter acks_sent;
    support::metrics::Counter corrupt_frames_detected;
    support::metrics::Counter duplicates_suppressed;
    support::metrics::Counter batch_frames_sent;
    support::metrics::Counter batch_payloads;
  };

  void send_ack(int from, int to, std::uint32_t seq);
  /// Records the unacked frame `seq` on rt's link to `to`, under rt.mu.
  void track(NodeRt& rt, int to, std::uint32_t seq, MessageKind kind,
             const std::vector<std::uint8_t>& frame);
  /// Pops raw frames until one delivers, with `node`'s lock held.
  [[nodiscard]] bool pop_frames_locked(int node, NodeRt& rt, Message& out);
  [[nodiscard]] std::size_t link(int from, int to) const noexcept {
    return static_cast<std::size_t>(from) *
               static_cast<std::size_t>(channel_.nodes()) +
           static_cast<std::size_t>(to);
  }

  Channel channel_;
  std::atomic<std::uint64_t> now_{0};
  std::vector<std::uint32_t> next_seq_;  ///< per directed link; row `from`
                                         ///< guarded by rt_[from].mu
  std::deque<NodeRt> rt_;                ///< per node (deque: mutex not movable)
  AtomicReliabilityStats rstats_;
};

// ---------------------------------------------------------------------------
// Wire codec: little-endian, length-prefixed vectors. Small on purpose —
// payload layouts live with the typed message structs below.
// ---------------------------------------------------------------------------

class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void vertex_span(std::span<const VertexId> vs);
  void count_span(std::span<const Count> cs);

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader: an underrun (or an over-long length prefix)
/// latches `failed` and every subsequent read returns 0 — no read ever
/// touches bytes past the buffer. Callers check ok()/done() once at the
/// end instead of guarding every field.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data)
      : p_(data.data()), end_(data.data() + data.size()) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  void vertex_vec(std::vector<VertexId>& out);
  void count_vec(std::vector<Count>& out);

  /// No read ran past the buffer so far.
  [[nodiscard]] bool ok() const noexcept { return !failed_; }
  /// Fully and cleanly consumed: ok() and no trailing bytes.
  [[nodiscard]] bool done() const noexcept { return !failed_ && p_ == end_; }

 private:
  template <typename T>
  [[nodiscard]] T read_le() noexcept;

  const std::uint8_t* p_;
  const std::uint8_t* end_;
  bool failed_ = false;
};

// ---------------------------------------------------------------------------
// Typed payloads.
// ---------------------------------------------------------------------------

/// A shipped walk continuation (MessageKind::kContinuation). The receiver
/// re-derives restriction windows and branch masks from `mapped`, so only
/// identity (which trie node, which item), progress (which predecessors
/// are already folded into `partial`), and the actual candidate data
/// travel.
struct ContinuationMsg {
  enum class Target : std::uint8_t {
    kExtension = 0,  ///< building extension `item`'s candidate set
    kCountLeaf = 1,  ///< building counting leaf `item`'s intersection
    kIepChain = 2,   ///< building suffix set `item`; done_sets carries the
                     ///< node's already-completed suffix sets
  };
  std::uint32_t trie_node = 0;
  Target target = Target::kExtension;
  std::uint16_t item = 0;
  std::uint64_t mask = 0;  ///< active-plan bitmask at the trie node
  /// Bit i set = predecessor_depths[i] already folded into `partial`.
  std::uint8_t folded = 0;
  bool has_partial = false;
  std::vector<VertexId> mapped;   ///< schedule depths [0, trie depth)
  std::vector<VertexId> partial;  ///< in-flight candidate intersection
  std::vector<std::vector<VertexId>> done_sets;  ///< kIepChain only

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  /// Bounds- and range-checked decode; false on any malformed payload
  /// (never reads out of bounds, never throws).
  [[nodiscard]] static bool try_decode(std::span<const std::uint8_t> payload,
                                       ContinuationMsg& out);
  /// Throwing wrapper for contexts where a decode failure is a logic bug.
  [[nodiscard]] static ContinuationMsg decode(
      std::span<const std::uint8_t> payload);

  /// Candidate-set vertices this continuation carries (partial + completed
  /// suffix sets) — the "shipped candidates" half of the byte economy.
  [[nodiscard]] std::uint64_t shipped_set_vertices() const noexcept;
};

/// A node's end-of-run report (MessageKind::kPartialCounts): undivided
/// per-plan sums.
struct PartialCountsMsg {
  std::vector<Count> sums;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static bool try_decode(std::span<const std::uint8_t> payload,
                                       PartialCountsMsg& out);
  [[nodiscard]] static PartialCountsMsg decode(
      std::span<const std::uint8_t> payload);
};

}  // namespace graphpi::dist
