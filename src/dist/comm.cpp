#include "dist/comm.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "core/pattern.h"
#include "support/check.h"

namespace graphpi::dist {

Channel::Channel(int nodes, FaultPlan faults, std::size_t mailbox_capacity)
    : faults_(faults),
      faults_active_(faults.active()),
      rng_(faults.seed),
      stats_(static_cast<std::size_t>(nodes)) {
  GRAPHPI_CHECK_MSG(nodes >= 1, "channel needs at least one node");
  for (int n = 0; n < nodes; ++n) inboxes_.emplace_back(mailbox_capacity);
}

void Channel::send(int from, int to, MessageKind kind,
                   std::vector<std::uint8_t> payload) {
  GRAPHPI_CHECK(from >= 0 && from < static_cast<int>(inboxes_.size()));
  GRAPHPI_CHECK(to >= 0 && to < static_cast<int>(inboxes_.size()));
  const auto k = static_cast<std::size_t>(kind);
  stats_.messages.inc();
  stats_.messages_by_kind[k].inc();
  stats_.bytes.inc(payload.size());
  stats_.bytes_by_kind[k].inc(payload.size());
  stats_.sent_messages_per_node[static_cast<std::size_t>(from)].inc();
  stats_.sent_bytes_per_node[static_cast<std::size_t>(from)].inc(
      payload.size());

  auto& inbox = inboxes_[static_cast<std::size_t>(to)];
  if (!faults_active_) {
    inbox.force_push(Message{kind, from, to, std::move(payload)});
    return;
  }

  // Fault rolls are drawn in a fixed order from the seeded engine, so a
  // given send sequence always misbehaves the same way (exactly
  // reproducible in lockstep mode, where one thread does all sending).
  Message msg{kind, from, to, std::move(payload)};
  bool duplicate = false;
  bool reorder = false;
  {
    std::lock_guard<std::mutex> rng_lock(rng_mu_);
    const FaultPlan::Rates& rates = faults_.kind[k];
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    if (coin(rng_) < rates.drop) {
      stats_.injected_drops.inc();
      return;
    }
    if (!msg.payload.empty() && coin(rng_) < rates.corrupt) {
      stats_.injected_corruptions.inc();
      std::uniform_int_distribution<std::size_t> pos(0, msg.payload.size() - 1);
      std::uniform_int_distribution<int> flips(1, 3);
      std::uniform_int_distribution<int> bits(1, 255);  // nonzero XOR: real flip
      const int n = flips(rng_);
      for (int i = 0; i < n; ++i)
        msg.payload[pos(rng_)] ^= static_cast<std::uint8_t>(bits(rng_));
    }
    duplicate = coin(rng_) < rates.duplicate;
    reorder = coin(rng_) < rates.reorder;
  }
  if (duplicate) {
    stats_.injected_duplicates.inc();
    inbox.force_push(Message{msg});
  }
  if (reorder && !inbox.empty()) {
    stats_.injected_reorders.inc();
    inbox.force_push_front(std::move(msg));
  } else {
    inbox.force_push(std::move(msg));
  }
}

bool Channel::receive(int node, Message& out) {
  return inboxes_[static_cast<std::size_t>(node)].try_pop(out);
}

bool Channel::wait_for_traffic(int node, std::chrono::nanoseconds timeout,
                               const support::ExecControl* control) {
  return inboxes_[static_cast<std::size_t>(node)].wait_nonempty(timeout,
                                                                control);
}

bool Channel::idle() const noexcept {
  for (const auto& inbox : inboxes_)
    if (!inbox.empty()) return false;
  return true;
}

void Channel::close_all() {
  for (auto& inbox : inboxes_) inbox.close();
}

CommStats Channel::stats() const {
  CommStats out;
  out.messages = stats_.messages.value();
  out.bytes = stats_.bytes.value();
  for (std::size_t k = 0; k < kMessageKindCount; ++k) {
    out.messages_by_kind[k] = stats_.messages_by_kind[k].value();
    out.bytes_by_kind[k] = stats_.bytes_by_kind[k].value();
  }
  out.sent_messages_per_node.reserve(stats_.sent_messages_per_node.size());
  out.sent_bytes_per_node.reserve(stats_.sent_bytes_per_node.size());
  for (const auto& c : stats_.sent_messages_per_node)
    out.sent_messages_per_node.push_back(c.value());
  for (const auto& c : stats_.sent_bytes_per_node)
    out.sent_bytes_per_node.push_back(c.value());
  out.injected_drops = stats_.injected_drops.value();
  out.injected_duplicates = stats_.injected_duplicates.value();
  out.injected_reorders = stats_.injected_reorders.value();
  out.injected_corruptions = stats_.injected_corruptions.value();
  return out;
}

// --------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected 0xEDB88320).
// --------------------------------------------------------------------------

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t b : data) c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

// --------------------------------------------------------------------------
// ReliableChannel.
// --------------------------------------------------------------------------

namespace {

constexpr std::uint8_t kFrameData = 0;
constexpr std::uint8_t kFrameAck = 1;
constexpr std::uint8_t kFrameBatch = 2;
constexpr std::size_t kFrameHeader = 1 + 4;  // type + seq
constexpr std::size_t kFrameTrailer = 4;     // crc

void append_u32_le(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t load_u32_le(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// Returns true and the seq if the frame is intact (CRC over everything
/// before the trailer matches the trailer).
bool frame_intact(const std::vector<std::uint8_t>& frame, std::uint8_t& type,
                  std::uint32_t& seq) noexcept {
  if (frame.size() < kFrameHeader + kFrameTrailer) return false;
  const std::span<const std::uint8_t> body(frame.data(),
                                           frame.size() - kFrameTrailer);
  if (crc32(body) != load_u32_le(frame.data() + frame.size() - kFrameTrailer))
    return false;
  type = frame[0];
  seq = load_u32_le(frame.data() + 1);
  return type == kFrameData || type == kFrameAck || type == kFrameBatch;
}

/// Splits an intact batch frame's body into its payloads. False on a
/// malformed container (CRC-passing corruption is ~2^-32; treated like a
/// corrupt frame — unacked, so the retransmit timer redelivers).
bool unpack_batch(const std::vector<std::uint8_t>& frame,
                  std::vector<std::vector<std::uint8_t>>& out) {
  const std::uint8_t* p = frame.data() + kFrameHeader;
  const std::uint8_t* end = frame.data() + frame.size() - kFrameTrailer;
  if (end - p < 4) return false;
  const std::uint32_t count = load_u32_le(p);
  p += 4;
  out.clear();
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (end - p < 4) return false;
    const std::uint32_t len = load_u32_le(p);
    p += 4;
    if (static_cast<std::size_t>(end - p) < len) return false;
    out.emplace_back(p, p + len);
    p += len;
  }
  return p == end;
}

}  // namespace

ReliableChannel::ReliableChannel(int nodes, const FaultPlan& faults,
                                 std::size_t mailbox_capacity)
    : channel_(nodes, faults, mailbox_capacity),
      next_seq_(static_cast<std::size_t>(nodes) *
                    static_cast<std::size_t>(nodes),
                0),
      rt_(static_cast<std::size_t>(nodes)) {
  for (NodeRt& rt : rt_) {
    rt.unacked.resize(static_cast<std::size_t>(nodes));
    rt.seen.resize(static_cast<std::size_t>(nodes));
  }
}

// Advances the floor over every contiguous delivered seq; only
// out-of-order arrivals touch the sparse set.
bool ReliableChannel::SeenLink::first_arrival(std::uint32_t seq) {
  if (seq == floor) {
    ++floor;
    while (!above.empty() && above.erase(floor) != 0) ++floor;
    return true;
  }
  // Serial-number order, so the comparison survives seq wraparound.
  if (static_cast<std::int32_t>(seq - floor) < 0) return false;
  return above.insert(seq).second;
}

void ReliableChannel::track(NodeRt& rt, int to, std::uint32_t seq,
                            MessageKind kind,
                            const std::vector<std::uint8_t>& frame) {
  const std::uint64_t now = now_.load(std::memory_order_relaxed);
  rt.unacked[static_cast<std::size_t>(to)].push_back(
      Unacked{seq, kind, false, frame, now + kRtoInitialTicks,
              kRtoInitialTicks, 0});
  ++rt.live_unacked;
}

void ReliableChannel::send(int from, int to, MessageKind kind,
                           std::vector<std::uint8_t> payload) {
  NodeRt& rt = rt_[static_cast<std::size_t>(from)];
  std::lock_guard<std::mutex> lock(rt.mu);
  const std::uint32_t seq = next_seq_[link(from, to)]++;
  std::vector<std::uint8_t> frame;
  frame.reserve(kFrameHeader + payload.size() + kFrameTrailer);
  frame.push_back(kFrameData);
  append_u32_le(frame, seq);
  frame.insert(frame.end(), payload.begin(), payload.end());
  append_u32_le(frame, crc32(frame));
  rstats_.data_frames_sent.inc();
  track(rt, to, seq, kind, frame);
  channel_.send(from, to, kind, std::move(frame));
}

void ReliableChannel::send_many(int from, int to, MessageKind kind,
                                std::vector<std::vector<std::uint8_t>>& payloads) {
  if (payloads.empty()) return;
  if (payloads.size() == 1) {
    // A batch of one gains nothing from the container: ship it as a plain
    // data frame (4 header bytes cheaper, same ack economy).
    send(from, to, kind, std::move(payloads.front()));
    payloads.clear();
    return;
  }
  NodeRt& rt = rt_[static_cast<std::size_t>(from)];
  std::lock_guard<std::mutex> lock(rt.mu);
  const std::uint32_t seq = next_seq_[link(from, to)]++;
  std::size_t total = kFrameHeader + 4 + kFrameTrailer;
  for (const auto& p : payloads) total += 4 + p.size();
  std::vector<std::uint8_t> frame;
  frame.reserve(total);
  frame.push_back(kFrameBatch);
  append_u32_le(frame, seq);
  append_u32_le(frame, static_cast<std::uint32_t>(payloads.size()));
  for (const auto& p : payloads) {
    append_u32_le(frame, static_cast<std::uint32_t>(p.size()));
    frame.insert(frame.end(), p.begin(), p.end());
  }
  append_u32_le(frame, crc32(frame));
  rstats_.data_frames_sent.inc();
  rstats_.batch_frames_sent.inc();
  rstats_.batch_payloads.inc(payloads.size());
  track(rt, to, seq, kind, frame);
  channel_.send(from, to, kind, std::move(frame));
  payloads.clear();
}

void ReliableChannel::send_ack(int from, int to, std::uint32_t seq) {
  std::vector<std::uint8_t> frame;
  frame.reserve(kFrameHeader + kFrameTrailer);
  frame.push_back(kFrameAck);
  append_u32_le(frame, seq);
  append_u32_le(frame, crc32(frame));
  rstats_.acks_sent.inc();
  // Fire-and-forget: a lost ack is recovered by the sender's retransmit,
  // which the dedup floor turns into a fresh ack.
  channel_.send(from, to, MessageKind::kAck, std::move(frame));
}

bool ReliableChannel::receive(int node, Message& out) {
  NodeRt& rt = rt_[static_cast<std::size_t>(node)];
  std::lock_guard<std::mutex> lock(rt.mu);
  if (!rt.staged.empty()) {
    out = std::move(rt.staged.front());
    rt.staged.pop_front();
    return true;
  }
  // A frame popped below stays in flight until its ack is queued back
  // (service_retransmits reads this flag), so raise it before the first
  // pop and drop it only after the last ack.
  rt.popping.store(true);
  const bool got = pop_frames_locked(node, rt, out);
  rt.popping.store(false);
  return got;
}

bool ReliableChannel::pop_frames_locked(int node, NodeRt& rt, Message& out) {
  Message raw;
  while (channel_.receive(node, raw)) {
    std::uint8_t type = 0;
    std::uint32_t seq = 0;
    if (!frame_intact(raw.payload, type, seq)) {
      rstats_.corrupt_frames_detected.inc();
      continue;  // sender's timer will resend
    }
    if (type == kFrameAck) {
      // Slot `seq - front.seq` of the link's deque; an ack for a popped
      // (or never-sent) seq falls outside it and is a stale duplicate.
      auto& q = rt.unacked[static_cast<std::size_t>(raw.from)];
      if (q.empty()) continue;
      const std::uint32_t slot = seq - q.front().seq;
      if (slot >= q.size() || q[slot].acked) continue;
      q[slot].acked = true;
      q[slot].frame = std::vector<std::uint8_t>();
      --rt.live_unacked;
      while (!q.empty() && q.front().acked) q.pop_front();
      continue;
    }
    SeenLink& seen = rt.seen[static_cast<std::size_t>(raw.from)];
    if (type == kFrameBatch) {
      std::vector<std::vector<std::uint8_t>> payloads;
      if (!unpack_batch(raw.payload, payloads)) {
        // Malformed container despite an intact CRC: treat as corrupt and
        // do NOT ack, so the sender redelivers the whole batch.
        rstats_.corrupt_frames_detected.inc();
        continue;
      }
      send_ack(node, raw.from, seq);
      if (!seen.first_arrival(seq)) {
        rstats_.duplicates_suppressed.inc();
        continue;
      }
      for (auto& p : payloads)
        rt.staged.push_back(Message{raw.kind, raw.from, node, std::move(p)});
      out = std::move(rt.staged.front());
      rt.staged.pop_front();
      return true;
    }
    // Intact data frame: ack it even if it is a duplicate (the original
    // ack may have been lost), then dedup before delivering.
    send_ack(node, raw.from, seq);
    if (!seen.first_arrival(seq)) {
      rstats_.duplicates_suppressed.inc();
      continue;
    }
    out.kind = raw.kind;
    out.from = raw.from;
    out.to = node;
    out.payload.assign(
        raw.payload.begin() + static_cast<std::ptrdiff_t>(kFrameHeader),
        raw.payload.end() - static_cast<std::ptrdiff_t>(kFrameTrailer));
    return true;
  }
  return false;
}

bool ReliableChannel::receive_wait(int node, Message& out,
                                   std::chrono::nanoseconds timeout,
                                   const support::ExecControl* control) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    if (receive(node, out)) return true;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    if (!channel_.wait_for_traffic(node, deadline - now, control))
      return false;
  }
}

bool ReliableChannel::service_retransmits(int node) {
  // Queue-aware RTO: a due frame is only presumed lost once it is out of
  // flight (see the in-flight rule in comm.h) — not queued at `to`, not
  // being popped there, and no ack queued back here. (A real transport
  // gets the same effect from an adaptive RTO; in this in-process
  // simulation queue depth is the honest congestion signal, and it keeps
  // a fault-free channel retransmit-free no matter the backlog or the
  // thread schedule.) Pending acks land in this node's own inbox, so
  // while it is non-empty nothing is presumed lost — skip the scan.
  if (!channel_.inbox_empty(node)) return false;
  NodeRt& rt = rt_[static_cast<std::size_t>(node)];
  std::lock_guard<std::mutex> lock(rt.mu);
  if (rt.live_unacked == 0) return false;
  const std::uint64_t now = now_.load(std::memory_order_relaxed);
  bool resent = false;
  for (int to = 0; to < channel_.nodes(); ++to) {
    auto& q = rt.unacked[static_cast<std::size_t>(to)];
    if (q.empty()) continue;
    // Order matters. Only this node pops its own inbox, under the lock
    // held here, so the inbox can only grow meanwhile. A frame `to` has
    // popped was popped with `popping` raised; if the flag has dropped
    // again, that receive's acks were queued here before it dropped —
    // so reading the peer's inbox, then its flag, then this inbox last
    // leaves no window in which an acked frame looks lost.
    if (!channel_.inbox_empty(to) ||
        rt_[static_cast<std::size_t>(to)].popping.load())
      continue;
    if (!channel_.inbox_empty(node)) break;
    for (Unacked& u : q) {
      if (u.acked || u.due > now) continue;
      ++u.retries;
      GRAPHPI_CHECK_MSG(u.retries < kMaxRetries,
                        "reliable channel livelocked: frame never acked");
      rstats_.retransmits.inc();
      u.rto = std::min(u.rto * 2, kRtoMaxTicks);
      u.due = now + u.rto;
      channel_.send(node, to, u.kind, u.frame);
      resent = true;
    }
  }
  return resent;
}

bool ReliableChannel::idle() const noexcept {
  if (!channel_.idle()) return false;
  for (const NodeRt& rt : rt_) {
    std::lock_guard<std::mutex> lock(rt.mu);
    if (rt.live_unacked != 0 || !rt.staged.empty()) return false;
  }
  return true;
}

std::size_t ReliableChannel::dedup_backlog(int node) const {
  const NodeRt& rt = rt_[static_cast<std::size_t>(node)];
  std::lock_guard<std::mutex> lock(rt.mu);
  std::size_t held = 0;
  for (const SeenLink& s : rt.seen) held += s.above.size();
  return held;
}

// --------------------------------------------------------------------------
// Wire codec.
// --------------------------------------------------------------------------

namespace {

template <typename T>
void append_le(std::vector<std::uint8_t>& buf, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i)
    buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

}  // namespace

void WireWriter::u16(std::uint16_t v) { append_le(buf_, v); }
void WireWriter::u32(std::uint32_t v) { append_le(buf_, v); }
void WireWriter::u64(std::uint64_t v) { append_le(buf_, v); }

void WireWriter::vertex_span(std::span<const VertexId> vs) {
  u32(static_cast<std::uint32_t>(vs.size()));
  for (VertexId v : vs) u32(v);
}

void WireWriter::count_span(std::span<const Count> cs) {
  u32(static_cast<std::uint32_t>(cs.size()));
  for (Count c : cs) u64(c);
}

template <typename T>
T WireReader::read_le() noexcept {
  if (failed_ || static_cast<std::size_t>(end_ - p_) < sizeof(T)) {
    failed_ = true;
    return T{};
  }
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i)
    v |= static_cast<T>(static_cast<T>(p_[i]) << (8 * i));
  p_ += sizeof(T);
  return v;
}

std::uint8_t WireReader::u8() { return read_le<std::uint8_t>(); }
std::uint16_t WireReader::u16() { return read_le<std::uint16_t>(); }
std::uint32_t WireReader::u32() { return read_le<std::uint32_t>(); }
std::uint64_t WireReader::u64() { return read_le<std::uint64_t>(); }

void WireReader::vertex_vec(std::vector<VertexId>& out) {
  const std::uint32_t n = u32();
  out.clear();
  // Validate the length prefix against the bytes actually remaining
  // BEFORE reserving — a corrupt prefix must not drive allocation.
  if (failed_ ||
      static_cast<std::size_t>(end_ - p_) < static_cast<std::size_t>(n) * 4) {
    failed_ = true;
    return;
  }
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(u32());
}

void WireReader::count_vec(std::vector<Count>& out) {
  const std::uint32_t n = u32();
  out.clear();
  if (failed_ ||
      static_cast<std::size_t>(end_ - p_) < static_cast<std::size_t>(n) * 8) {
    failed_ = true;
    return;
  }
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(u64());
}

// --------------------------------------------------------------------------
// Typed payloads.
// --------------------------------------------------------------------------

std::vector<std::uint8_t> ContinuationMsg::encode() const {
  WireWriter w;
  w.u32(trie_node);
  w.u8(static_cast<std::uint8_t>(target));
  w.u16(item);
  w.u64(mask);
  w.u8(folded);
  w.u8(has_partial ? 1 : 0);
  w.vertex_span(mapped);
  w.vertex_span(has_partial ? std::span<const VertexId>{partial}
                            : std::span<const VertexId>{});
  w.u16(static_cast<std::uint16_t>(done_sets.size()));
  for (const auto& set : done_sets) w.vertex_span(set);
  return w.take();
}

bool ContinuationMsg::try_decode(std::span<const std::uint8_t> payload,
                                 ContinuationMsg& out) {
  WireReader r(payload);
  ContinuationMsg m;
  m.trie_node = r.u32();
  const std::uint8_t target_raw = r.u8();
  m.item = r.u16();
  m.mask = r.u64();
  m.folded = r.u8();
  m.has_partial = r.u8() != 0;
  r.vertex_vec(m.mapped);
  r.vertex_vec(m.partial);
  const std::uint16_t sets = r.u16();
  if (!r.ok()) return false;
  m.done_sets.resize(sets);
  for (auto& set : m.done_sets) r.vertex_vec(set);
  if (!r.done()) return false;
  // Range checks beyond raw bounds: enum and structural invariants the
  // executor would otherwise trip over.
  if (target_raw > static_cast<std::uint8_t>(Target::kIepChain)) return false;
  if (m.mapped.size() > Pattern::kMaxVertices) return false;
  m.target = static_cast<Target>(target_raw);
  out = std::move(m);
  return true;
}

ContinuationMsg ContinuationMsg::decode(std::span<const std::uint8_t> payload) {
  ContinuationMsg m;
  GRAPHPI_CHECK_MSG(try_decode(payload, m), "malformed continuation payload");
  return m;
}

std::uint64_t ContinuationMsg::shipped_set_vertices() const noexcept {
  std::uint64_t total = has_partial ? partial.size() : 0;
  for (const auto& set : done_sets) total += set.size();
  return total;
}

std::vector<std::uint8_t> PartialCountsMsg::encode() const {
  WireWriter w;
  w.count_span(sums);
  return w.take();
}

bool PartialCountsMsg::try_decode(std::span<const std::uint8_t> payload,
                                  PartialCountsMsg& out) {
  WireReader r(payload);
  PartialCountsMsg m;
  r.count_vec(m.sums);
  if (!r.done()) return false;
  out = std::move(m);
  return true;
}

PartialCountsMsg PartialCountsMsg::decode(
    std::span<const std::uint8_t> payload) {
  PartialCountsMsg m;
  GRAPHPI_CHECK_MSG(try_decode(payload, m), "malformed partial-counts payload");
  return m;
}

}  // namespace graphpi::dist
