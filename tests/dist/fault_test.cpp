// Fault-injection and wire-hardening tests (dist/comm.h):
//  * CRC32 known-answer + guaranteed detection of short burst errors,
//  * seeded fuzz over the wire codec — mutated / truncated / garbage
//    payloads never crash try_decode, they decode-fail (or parse as some
//    other well-formed message, which the frame CRC screens out first),
//  * Channel fault accounting and idle() consistency under drop/duplicate,
//  * ReliableChannel exactly-once delivery under heavy injected faults,
//  * its O(1) bookkeeping: a 20,000-frame backlog on one link, acks for
//    frames behind the unacked front, the per-sender dedup floor, and no
//    retransmit of a frame the receiver is still processing,
//  * the sharded runtime producing bit-identical counts under a nonzero
//    FaultPlan, with the recovery counters surfaced through ClusterStats.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "api/graphpi.h"
#include "dist/comm.h"
#include "graph/generators.h"

namespace graphpi::dist {
namespace {

TEST(Crc32, KnownAnswer) {
  // The IEEE 802.3 check value: CRC32("123456789") = 0xCBF43926.
  const std::string s = "123456789";
  const std::vector<std::uint8_t> bytes(s.begin(), s.end());
  EXPECT_EQ(crc32(bytes), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, DetectsEveryShortBurstError) {
  // CRC32 detects all burst errors up to 32 bits, so ANY 1–3 byte
  // corruption of a framed payload (what FaultPlan injects) must change
  // the checksum — the reliability layer's discard-and-retransmit path
  // never sees a false intact frame from these faults.
  std::mt19937_64 rng(7);
  std::vector<std::uint8_t> frame(64);
  for (auto& b : frame) b = static_cast<std::uint8_t>(rng());
  const std::uint32_t good = crc32(frame);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> bad = frame;
    const std::size_t pos = rng() % (bad.size() - 3);
    const int burst = 1 + static_cast<int>(rng() % 3);
    for (int i = 0; i < burst; ++i)
      bad[pos + static_cast<std::size_t>(i)] ^=
          static_cast<std::uint8_t>(1 + rng() % 255);
    EXPECT_NE(crc32(bad), good) << "trial " << trial;
  }
}

ContinuationMsg sample_continuation() {
  ContinuationMsg msg;
  msg.trie_node = 5;
  msg.target = ContinuationMsg::Target::kIepChain;
  msg.item = 2;
  msg.mask = 0xdeadbeefcafe;
  msg.folded = 0b101;
  msg.has_partial = true;
  msg.mapped = {4, 9, 17};
  msg.partial = {1, 2, 3, 5, 8, 13};
  msg.done_sets = {{2, 4, 6}, {10, 20}};
  return msg;
}

TEST(WireFuzz, MutatedContinuationsNeverCrash) {
  const ContinuationMsg sample = sample_continuation();
  const std::vector<std::uint8_t> valid = sample.encode();
  // A 17-byte header (trie node, target, item, mask, folded, has_partial)
  // then length-prefixed mapped (16), partial (28) and done sets (2+16+12).
  EXPECT_EQ(valid.size(), 91u);
  {
    ContinuationMsg out;
    ASSERT_TRUE(ContinuationMsg::try_decode(valid, out));
    EXPECT_EQ(out.trie_node, sample.trie_node);
    EXPECT_EQ(out.target, sample.target);
    EXPECT_EQ(out.item, sample.item);
    EXPECT_EQ(out.mask, sample.mask);
    EXPECT_EQ(out.folded, sample.folded);
    EXPECT_EQ(out.has_partial, sample.has_partial);
    EXPECT_EQ(out.mapped, sample.mapped);
    EXPECT_EQ(out.partial, sample.partial);
    EXPECT_EQ(out.done_sets, sample.done_sets);
  }
  std::mt19937_64 rng(0xF00D);
  for (int trial = 0; trial < 20000; ++trial) {
    std::vector<std::uint8_t> bytes = valid;
    const int mutations = 1 + static_cast<int>(rng() % 8);
    for (int i = 0; i < mutations; ++i)
      bytes[rng() % bytes.size()] ^= static_cast<std::uint8_t>(1 + rng() % 255);
    if (rng() % 4 == 0) bytes.resize(rng() % (bytes.size() + 1));  // truncate
    ContinuationMsg out;
    // Must return (true or false), never read out of bounds or throw.
    (void)ContinuationMsg::try_decode(bytes, out);
  }
}

TEST(WireFuzz, MutatedPartialCountsNeverCrash) {
  PartialCountsMsg msg;
  msg.sums = {10, 0, 123456789012345ull, 7};
  const std::vector<std::uint8_t> valid = msg.encode();
  EXPECT_EQ(valid.size(), 4u + 4 * 8);  // length prefix + the sums
  {
    PartialCountsMsg out;
    ASSERT_TRUE(PartialCountsMsg::try_decode(valid, out));
    EXPECT_EQ(out.sums, msg.sums);
  }
  std::mt19937_64 rng(0xBEEF);
  for (int trial = 0; trial < 20000; ++trial) {
    std::vector<std::uint8_t> bytes = valid;
    const int mutations = 1 + static_cast<int>(rng() % 8);
    for (int i = 0; i < mutations; ++i)
      bytes[rng() % bytes.size()] ^= static_cast<std::uint8_t>(1 + rng() % 255);
    if (rng() % 4 == 0) bytes.resize(rng() % (bytes.size() + 1));
    PartialCountsMsg out;
    (void)PartialCountsMsg::try_decode(bytes, out);
  }
}

TEST(WireFuzz, GarbageBuffersNeverCrash) {
  std::mt19937_64 rng(0xACE);
  for (int trial = 0; trial < 20000; ++trial) {
    std::vector<std::uint8_t> bytes(rng() % 96);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    ContinuationMsg c;
    PartialCountsMsg p;
    (void)ContinuationMsg::try_decode(bytes, c);
    (void)PartialCountsMsg::try_decode(bytes, p);
  }
}

TEST(WireReaderHardening, UnderrunLatchesInsteadOfOverreading) {
  const std::vector<std::uint8_t> three = {1, 2, 3};
  WireReader r(three);
  EXPECT_EQ(r.u16(), 0x0201u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.u32(), 0u);  // only 1 byte left: latches failed
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u64(), 0u);  // stays failed, still no overread
  EXPECT_FALSE(r.done());
}

TEST(WireReaderHardening, OversizedLengthPrefixFails) {
  // A length prefix claiming more elements than bytes remain must fail
  // cleanly instead of reserving gigabytes or reading past the end.
  WireWriter w;
  w.u32(0xffffffffu);  // "4 billion vertices follow"
  const std::vector<std::uint8_t> bytes = w.take();
  WireReader r(bytes);
  std::vector<VertexId> out;
  r.vertex_vec(out);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(out.empty());
}

TEST(ChannelFaults, AccountingAndIdleStayConsistent) {
  const FaultPlan plan = FaultPlan::uniform(/*seed=*/99, /*drop=*/0.3,
                                            /*duplicate=*/0.3,
                                            /*reorder=*/0.2, /*corrupt=*/0.3);
  Channel channel(2, plan);
  EXPECT_TRUE(channel.idle());
  constexpr int kSends = 2000;
  for (int i = 0; i < kSends; ++i)
    channel.send(0, 1, MessageKind::kContinuation,
                 {static_cast<std::uint8_t>(i), 1, 2, 3});
  const CommStats& stats = channel.stats();
  EXPECT_EQ(stats.messages, kSends);
  EXPECT_GT(stats.injected_drops, 0u);
  EXPECT_GT(stats.injected_duplicates, 0u);
  EXPECT_GT(stats.injected_reorders, 0u);
  EXPECT_GT(stats.injected_corruptions, 0u);

  // Drain: delivered = sent - dropped + duplicated, and receive() must
  // stay well-behaved past the nominal send count (no underflow, no
  // phantom messages) no matter how many copies the plan queued.
  EXPECT_FALSE(channel.idle());
  std::uint64_t delivered = 0;
  Message msg;
  while (channel.receive(1, msg)) ++delivered;
  EXPECT_EQ(delivered,
            kSends - stats.injected_drops + stats.injected_duplicates);
  EXPECT_TRUE(channel.idle());
  EXPECT_FALSE(channel.receive(1, msg));
  EXPECT_FALSE(channel.receive(0, msg));
  EXPECT_TRUE(channel.idle());
}

TEST(ChannelFaults, DeterministicForAGivenSeed) {
  auto run = [] {
    Channel channel(2, FaultPlan::uniform(1234, 0.2, 0.2, 0.2, 0.2));
    for (int i = 0; i < 500; ++i)
      channel.send(0, 1, MessageKind::kContinuation,
                   {static_cast<std::uint8_t>(i), 9, 9});
    std::vector<std::vector<std::uint8_t>> got;
    Message msg;
    while (channel.receive(1, msg)) got.push_back(msg.payload);
    return got;
  };
  EXPECT_EQ(run(), run());
}

TEST(ReliableChannel, ExactlyOnceUnderHeavyFaults) {
  const FaultPlan plan = FaultPlan::uniform(/*seed=*/4242, /*drop=*/0.25,
                                            /*duplicate=*/0.25,
                                            /*reorder=*/0.25,
                                            /*corrupt=*/0.25);
  ReliableChannel channel(2, plan);
  constexpr std::uint32_t kMessages = 400;
  std::map<std::uint32_t, int> received;
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    WireWriter w;
    w.u32(i);
    const int from = static_cast<int>(i % 2);
    channel.send(from, 1 - from, MessageKind::kContinuation, w.take());
  }
  Message msg;
  for (int round = 0; round < 1000000 && !channel.idle(); ++round) {
    channel.tick();
    for (int node = 0; node < 2; ++node) {
      (void)channel.service_retransmits(node);
      while (channel.receive(node, msg)) {
        WireReader r(msg.payload);
        ++received[r.u32()];
        EXPECT_TRUE(r.done());
      }
    }
  }
  EXPECT_TRUE(channel.idle());
  ASSERT_EQ(received.size(), kMessages);  // every payload arrived...
  for (const auto& [id, copies] : received)
    EXPECT_EQ(copies, 1) << "payload " << id;  // ...exactly once

  // With all four fault kinds at 25%, every recovery mechanism fired.
  const ReliabilityStats& rel = channel.reliability_stats();
  EXPECT_EQ(rel.data_frames_sent, kMessages);
  EXPECT_GT(rel.retransmits, 0u);
  EXPECT_GT(rel.corrupt_frames_detected, 0u);
  EXPECT_GT(rel.duplicates_suppressed, 0u);
  EXPECT_GT(rel.acks_sent, 0u);
}

TEST(ReliableChannel, FaultFreePassThrough) {
  ReliableChannel channel(3);
  WireWriter w;
  w.u64(0x1122334455667788ull);
  channel.send(2, 0, MessageKind::kPartialCounts, w.take());
  Message msg;
  ASSERT_TRUE(channel.receive(0, msg));
  EXPECT_EQ(msg.kind, MessageKind::kPartialCounts);
  EXPECT_EQ(msg.from, 2);
  WireReader r(msg.payload);
  EXPECT_EQ(r.u64(), 0x1122334455667788ull);
  EXPECT_TRUE(r.done());
  // The data frame is acked lazily by the next receive sweep on the
  // sender's side; drain it so idle() holds.
  while (channel.receive(2, msg)) {
  }
  EXPECT_TRUE(channel.idle());
  EXPECT_EQ(channel.reliability_stats().retransmits, 0u);
  EXPECT_EQ(channel.reliability_stats().corrupt_frames_detected, 0u);
}

TEST(ReliableChannel, TwentyThousandFramesInFlightOnOneLink) {
  // Every frame is sent before the receiver drains any. Each payload is
  // delivered once and in order, the backlog is never presumed lost, and
  // idle() holds off until the very last ack is consumed.
  ReliableChannel channel(2);
  constexpr std::uint32_t kFrames = 20000;
  constexpr std::uint32_t kBulk = kFrames / 2;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    WireWriter w;
    w.u32(i);
    channel.send(0, 1, MessageKind::kContinuation, w.take());
  }
  Message msg;
  auto deliver_next = [&](std::uint32_t want) {
    ASSERT_TRUE(channel.receive(1, msg)) << "payload " << want;
    WireReader r(msg.payload);
    EXPECT_EQ(r.u32(), want);
    EXPECT_TRUE(r.done());
  };
  // First half: acks pile up at the sender while the retransmit clock
  // runs far past every frame's timeout.
  for (std::uint32_t i = 0; i < kBulk; ++i) {
    channel.tick();
    ASSERT_FALSE(channel.service_retransmits(0)) << "frame " << i;
    deliver_next(i);
  }
  EXPECT_FALSE(channel.idle());
  EXPECT_FALSE(channel.receive(0, msg));  // consumes kBulk acks at once
  EXPECT_FALSE(channel.idle()) << kFrames - kBulk << " frames still unacked";
  // Second half: one delivery, one ack consumed, step by step.
  for (std::uint32_t i = kBulk; i < kFrames; ++i) {
    channel.tick();
    ASSERT_FALSE(channel.service_retransmits(0)) << "frame " << i;
    deliver_next(i);
    ASSERT_FALSE(channel.idle()) << "ack " << i << " still queued";
    EXPECT_FALSE(channel.receive(0, msg));
    ASSERT_EQ(channel.idle(), i + 1 == kFrames) << "after ack " << i;
  }
  EXPECT_FALSE(channel.receive(1, msg));
  const ReliabilityStats rel = channel.reliability_stats();
  EXPECT_EQ(rel.retransmits, 0u);
  EXPECT_EQ(rel.acks_sent, kFrames);
  EXPECT_EQ(rel.duplicates_suppressed, 0u);
  EXPECT_EQ(channel.dedup_backlog(1), 0u);
}

TEST(ReliableChannel, AcksBehindTheUnackedFrontAreHandled) {
  // Only acks are reordered: each one after the first jumps the sender's
  // queue, so the sender meets them newest first — every ack but the
  // last is for a frame behind the front of its unacked deque.
  FaultPlan plan;
  plan.kind[static_cast<std::size_t>(MessageKind::kAck)].reorder = 1.0;
  ReliableChannel channel(2, plan);
  constexpr std::uint32_t kFrames = 64;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    WireWriter w;
    w.u32(i);
    channel.send(0, 1, MessageKind::kContinuation, w.take());
  }
  Message msg;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(channel.receive(1, msg));
    WireReader r(msg.payload);
    EXPECT_EQ(r.u32(), i);  // data frames are not reordered
  }
  EXPECT_EQ(channel.transport_stats().injected_reorders, kFrames - 1);
  EXPECT_FALSE(channel.idle());
  EXPECT_FALSE(channel.receive(0, msg));
  EXPECT_TRUE(channel.idle());
  EXPECT_EQ(channel.reliability_stats().retransmits, 0u);
}

TEST(ReliableChannel, DedupFloorSuppressesOldSeqsAndCatchesUp) {
  // Every data frame is duplicated, and each original jumps the queue, so
  // the receiver meets originals newest first and then every duplicate
  // in seq order: [o63 .. o1, o0, d0, d1 .. d63]. Originals above the
  // floor wait in the sparse set until o0 lets the floor catch up; then
  // every duplicate is below the floor and suppressed.
  FaultPlan plan;
  FaultPlan::Rates& data =
      plan.kind[static_cast<std::size_t>(MessageKind::kContinuation)];
  data.duplicate = 1.0;
  data.reorder = 1.0;
  ReliableChannel channel(2, plan);
  constexpr std::uint32_t kFrames = 64;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    WireWriter w;
    w.u32(i);
    channel.send(0, 1, MessageKind::kContinuation, w.take());
  }
  Message msg;
  for (std::uint32_t k = 0; k < kFrames; ++k) {
    EXPECT_EQ(channel.dedup_backlog(1), k);
    ASSERT_TRUE(channel.receive(1, msg));
    WireReader r(msg.payload);
    EXPECT_EQ(r.u32(), kFrames - 1 - k);
  }
  EXPECT_EQ(channel.dedup_backlog(1), 0u) << "o0 let the floor catch up";
  EXPECT_FALSE(channel.receive(1, msg)) << "every duplicate is suppressed";
  const ReliabilityStats rel = channel.reliability_stats();
  EXPECT_EQ(rel.duplicates_suppressed, kFrames);
  EXPECT_EQ(rel.acks_sent, 2 * kFrames);  // duplicates are re-acked
  EXPECT_FALSE(channel.receive(0, msg));  // duplicate acks are stale
  EXPECT_TRUE(channel.idle());
  EXPECT_EQ(channel.reliability_stats().retransmits, 0u);
}

TEST(DistributedFaults, CountsBitIdenticalUnderInjectedFaults) {
  // The acceptance shape: a 3-node sharded run under a seeded fault plan
  // with drop, duplicate, and corrupt all nonzero produces EXACTLY the
  // serial counts, and the recovery counters prove faults really fired.
  const Graph graph = rmat(7, 650, 101);
  const GraphPi engine(graph);
  const std::vector<Pattern> patterns = {patterns::house(),
                                         patterns::pentagon(),
                                         patterns::clique(4)};
  const std::vector<Count> want = engine.count_batch(patterns);

  MatchOptions options;
  options.backend = Backend::kDistributed;
  options.nodes = 3;
  options.faults = FaultPlan::uniform(/*seed=*/7, /*drop=*/0.08,
                                      /*duplicate=*/0.08, /*reorder=*/0.05,
                                      /*corrupt=*/0.08);
  ClusterStats stats;
  options.cluster_stats = &stats;
  const std::vector<Count> got = engine.count_batch(patterns, options);
  EXPECT_EQ(got, want);
  EXPECT_GT(stats.injected_drops, 0u);
  EXPECT_GT(stats.injected_duplicates, 0u);
  EXPECT_GT(stats.injected_corruptions, 0u);
  EXPECT_GT(stats.retransmits, 0u);
  EXPECT_GT(stats.corrupt_frames_detected, 0u);
  EXPECT_GT(stats.duplicates_suppressed, 0u);
  EXPECT_EQ(stats.decode_failures, 0u);  // CRC screens corruption first
}

TEST(ChannelThreading, ConcurrentSendersKeepAccountingConsistent) {
  // Channel::send from many threads at once (the async runtime's shape):
  // the atomic counters must add up exactly and per-sender attribution
  // must not bleed across threads.
  constexpr int kNodes = 4;
  constexpr int kSendsPerThread = 3000;
  Channel channel(kNodes);
  std::vector<std::thread> senders;
  for (int from = 0; from < kNodes; ++from)
    senders.emplace_back([&channel, from] {
      for (int i = 0; i < kSendsPerThread; ++i)
        channel.send(from, (from + 1 + i) % kNodes,
                     MessageKind::kContinuation,
                     {static_cast<std::uint8_t>(i), 0xab});
    });
  for (auto& t : senders) t.join();
  const CommStats stats = channel.stats();
  EXPECT_EQ(stats.messages, kNodes * kSendsPerThread);
  EXPECT_EQ(stats.bytes, kNodes * kSendsPerThread * 2u);
  ASSERT_EQ(stats.sent_messages_per_node.size(), kNodes);
  for (int n = 0; n < kNodes; ++n)
    EXPECT_EQ(stats.sent_messages_per_node[static_cast<std::size_t>(n)],
              kSendsPerThread)
        << "sender " << n;
  std::uint64_t drained = 0;
  Message msg;
  for (int n = 0; n < kNodes; ++n)
    while (channel.receive(n, msg)) ++drained;
  EXPECT_EQ(drained, kNodes * kSendsPerThread);
  EXPECT_TRUE(channel.idle());
}

TEST(ChannelThreading, ConcurrentFaultySendersConserveMessages) {
  // With the fault RNG shared across threads the exact fault SEQUENCE is
  // schedule-dependent, but conservation must still hold: delivered ==
  // sent - dropped + duplicated, and idle() agrees after the drain.
  constexpr int kThreads = 4;
  constexpr int kSendsPerThread = 2000;
  Channel channel(2, FaultPlan::uniform(/*seed=*/55, /*drop=*/0.2,
                                        /*duplicate=*/0.2, /*reorder=*/0.1,
                                        /*corrupt=*/0.2));
  std::vector<std::thread> senders;
  for (int t = 0; t < kThreads; ++t)
    senders.emplace_back([&channel] {
      for (int i = 0; i < kSendsPerThread; ++i)
        channel.send(0, 1, MessageKind::kContinuation,
                     {static_cast<std::uint8_t>(i), 1, 2, 3});
    });
  for (auto& t : senders) t.join();
  const CommStats stats = channel.stats();
  EXPECT_EQ(stats.messages, kThreads * kSendsPerThread);
  std::uint64_t delivered = 0;
  Message msg;
  while (channel.receive(1, msg)) ++delivered;
  EXPECT_EQ(delivered, kThreads * kSendsPerThread - stats.injected_drops +
                           stats.injected_duplicates);
  EXPECT_TRUE(channel.idle());
}

TEST(ReliableChannelThreading, ExactlyOnceWithConcurrentEndpoints) {
  // Two threads drive the two endpoints of a faulty reliable link
  // simultaneously — sends, receives, and retransmit service all
  // interleave. Every payload must still arrive exactly once per side.
  const FaultPlan plan = FaultPlan::uniform(/*seed=*/808, /*drop=*/0.15,
                                            /*duplicate=*/0.15,
                                            /*reorder=*/0.15,
                                            /*corrupt=*/0.15);
  ReliableChannel channel(2, plan);
  constexpr std::uint32_t kPerSide = 300;
  std::array<std::map<std::uint32_t, int>, 2> received;
  std::array<std::thread, 2> endpoints;
  for (int node = 0; node < 2; ++node)
    endpoints[static_cast<std::size_t>(node)] = std::thread([&, node] {
      for (std::uint32_t i = 0; i < kPerSide; ++i) {
        WireWriter w;
        w.u32(i);
        channel.send(node, 1 - node, MessageKind::kContinuation, w.take());
      }
      Message msg;
      auto& got = received[static_cast<std::size_t>(node)];
      // Keep servicing until this side holds every payload and the link
      // has globally drained (the peer may still need our acks).
      while (got.size() < kPerSide || !channel.idle()) {
        channel.tick();
        (void)channel.service_retransmits(node);
        while (channel.receive(node, msg)) {
          WireReader r(msg.payload);
          ++got[r.u32()];
          EXPECT_TRUE(r.done());
        }
        std::this_thread::yield();
      }
    });
  for (auto& t : endpoints) t.join();
  for (int node = 0; node < 2; ++node) {
    ASSERT_EQ(received[static_cast<std::size_t>(node)].size(), kPerSide)
        << "node " << node;
    for (const auto& [id, copies] : received[static_cast<std::size_t>(node)])
      EXPECT_EQ(copies, 1) << "node " << node << " payload " << id;
  }
  EXPECT_TRUE(channel.idle());
}

TEST(ReliableChannelThreading, FrameBeingReceivedIsNotPresumedLost) {
  // A receiver queues a frame's ack only after popping it, checking its
  // CRC and unpacking it; in that window the frame is in neither inbox,
  // yet it is in flight, not lost. A sender servicing its retransmit
  // timer flat out on another thread must not resend it. 1 MB batch
  // frames stretch the window to about a millisecond, so the timer
  // passes its timeout inside the window on nearly every frame.
  ReliableChannel channel(2);
  constexpr int kFrames = 8;
  constexpr std::size_t kPayloads = 64;
  std::atomic<bool> stop{false};
  std::thread timer([&] {
    while (!stop.load()) {
      channel.tick();
      (void)channel.service_retransmits(0);
    }
  });
  Message msg;
  for (int f = 0; f < kFrames; ++f) {
    std::vector<std::vector<std::uint8_t>> payloads(
        kPayloads,
        std::vector<std::uint8_t>(16 << 10, static_cast<std::uint8_t>(f)));
    channel.send_many(0, 1, MessageKind::kContinuation, payloads);
    std::size_t got = 0;
    while (got < kPayloads)
      if (channel.receive(1, msg)) ++got;
    while (!channel.idle()) {
      (void)channel.receive(1, msg);
      (void)channel.receive(0, msg);
    }
  }
  stop.store(true);
  timer.join();
  EXPECT_EQ(channel.reliability_stats().retransmits, 0u);
  EXPECT_EQ(channel.reliability_stats().duplicates_suppressed, 0u);
}

TEST(DistributedFaults, AsyncCountsBitIdenticalUnderInjectedFaults) {
  // The async executor shares the fault RNG across worker threads, so
  // WHICH frames misbehave is schedule-dependent — but the reliability
  // layer masks all of it: counts stay exactly the serial answer across
  // node counts and pool sizes.
  const Graph graph = rmat(7, 650, 103);
  const GraphPi engine(graph);
  const std::vector<Pattern> patterns = {patterns::house(),
                                         patterns::pentagon()};
  const std::vector<Count> want = engine.count_batch(patterns);

  for (int nodes : {2, 4}) {
    for (int workers : {1, 2}) {
      MatchOptions options;
      options.backend = Backend::kDistributed;
      options.nodes = nodes;
      options.dist_exec = ExecMode::kAsync;
      options.dist_workers = workers;
      options.faults = FaultPlan::uniform(/*seed=*/11, /*drop=*/0.05,
                                          /*duplicate=*/0.05,
                                          /*reorder=*/0.03, /*corrupt=*/0.05);
      ClusterStats stats;
      options.cluster_stats = &stats;
      EXPECT_EQ(engine.count_batch(patterns, options), want)
          << "nodes=" << nodes << " workers=" << workers;
      EXPECT_GT(stats.injected_drops + stats.injected_duplicates +
                    stats.injected_corruptions,
                0u)
          << "nodes=" << nodes << " workers=" << workers;
    }
  }
}

}  // namespace
}  // namespace graphpi::dist
