// ReliableTransport tests: exactly-once in-order delivery through every
// fault mix the chaos layer can throw (drop/dup/reorder/corrupt/straggler,
// separately and combined), bidirectional traffic on one tag, strict
// TryRecv, deadline hand-off to the upper tiers, zero steady-state buffer
// allocations (tiny bodies and the engine's 64 KiB slices), collectives
// running bit-exact through chaos at every pipeline depth and channel
// count, the frame CRC against its standard check value and a bytewise
// reference, and the fault-schedule JSON replay round-trip.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "collective/tags.h"
#include "collective/threaded.h"
#include "common/buffer_pool.h"
#include "common/rng.h"
#include "transport/crc32.h"
#include "transport/fault_schedule.h"
#include "transport/faulty.h"
#include "transport/inproc.h"
#include "transport/reliable.h"
#include "transport/stack.h"

#include "pool_prime.h"

namespace aiacc::transport {
namespace {

Payload MakeBody(int i, std::size_t lanes) {
  Payload body(lanes);
  for (std::size_t j = 0; j < lanes; ++j) {
    body[j] = static_cast<float>(i) + 0.25f * static_cast<float>(j);
  }
  return body;
}

/// Send `n` bodies 0 -> 1 through Reliable(Faulty(spec)) and require the
/// receiver to observe exactly the sent stream, in order. Returns the
/// reliable layer's stats for mix-specific assertions.
ReliableStats RunStream(const FaultSpec& spec, int n,
                        ReliableOptions opts = {}) {
  TransportStack stack(2, spec, opts);
  ReliableTransport& rel = *stack.reliable();
  const std::size_t lanes = 8;
  std::thread sender([&] {
    for (int i = 0; i < n; ++i) {
      rel.Send(0, 1, 3, MakeBody(i, lanes));
    }
  });
  [&]() {
    for (int i = 0; i < n; ++i) {
      auto p = rel.Recv(1, 0, 3);
      ASSERT_TRUE(p.ok()) << "message " << i << ": " << p.status().ToString();
      EXPECT_EQ(*p, MakeBody(i, lanes)) << "message " << i;
    }
  }();
  sender.join();
  // Nothing extra may ever surface (exactly-once).
  EXPECT_EQ(rel.TryRecv(1, 0, 3), std::nullopt);
  const ReliableStats s = rel.stats();
  EXPECT_EQ(s.delivered, static_cast<std::uint64_t>(n));
  return s;
}

TEST(ReliableTransportTest, CleanChannelIsTransparent) {
  const ReliableStats s = RunStream(FaultSpec{}, 50);
  EXPECT_EQ(s.retransmits, 0u);
  EXPECT_EQ(s.crc_failures, 0u);
  EXPECT_EQ(s.duplicates_discarded, 0u);
}

TEST(ReliableTransportTest, ExactlyOnceUnderDrops) {
  FaultSpec spec;
  spec.seed = 11;
  spec.all_links.drop_prob = 0.25;
  const ReliableStats s = RunStream(spec, 300);
  EXPECT_GT(s.retransmits, 0u);
}

TEST(ReliableTransportTest, ExactlyOnceUnderDuplication) {
  FaultSpec spec;
  spec.seed = 12;
  spec.all_links.dup_prob = 0.3;
  const ReliableStats s = RunStream(spec, 300);
  EXPECT_GT(s.duplicates_discarded, 0u);
}

TEST(ReliableTransportTest, ExactlyOnceUnderReordering) {
  FaultSpec spec;
  spec.seed = 13;
  spec.all_links.reorder_prob = 0.3;
  RunStream(spec, 300);
}

TEST(ReliableTransportTest, ExactlyOnceUnderCorruption) {
  FaultSpec spec;
  spec.seed = 14;
  spec.all_links.corrupt_prob = 0.2;
  const ReliableStats s = RunStream(spec, 300);
  // A flipped bit must be caught by the CRC and healed by retransmission.
  EXPECT_GT(s.crc_failures, 0u);
  EXPECT_GT(s.retransmits, 0u);
}

TEST(ReliableTransportTest, ExactlyOnceUnderStraggler) {
  FaultSpec spec;
  spec.seed = 15;
  spec.straggler_rank = 0;
  spec.straggler_delay_ms = 1.0;
  RunStream(spec, 60);
}

TEST(ReliableTransportTest, ExactlyOnceUnderCombinedChaos) {
  FaultSpec spec;
  spec.seed = 16;
  spec.all_links.drop_prob = 0.1;
  spec.all_links.dup_prob = 0.1;
  spec.all_links.reorder_prob = 0.1;
  spec.all_links.corrupt_prob = 0.05;
  const ReliableStats s = RunStream(spec, 400);
  EXPECT_GT(s.retransmits, 0u);
}

// AllToAll runs both directions of a rank pair on one tag; the kind lane
// must demux each side's acks from the other side's data.
TEST(ReliableTransportTest, BidirectionalTrafficOnOneTag) {
  FaultSpec spec;
  spec.seed = 21;
  spec.all_links.drop_prob = 0.15;
  spec.all_links.dup_prob = 0.1;
  TransportStack stack(2, spec, ReliableOptions{});
  ReliableTransport& rel = *stack.reliable();
  const int n = 150;
  auto side = [&](int me, int peer) {
    std::thread sender([&, me, peer] {
      for (int i = 0; i < n; ++i) rel.Send(me, peer, 9, MakeBody(i, 6));
    });
    for (int i = 0; i < n; ++i) {
      auto p = rel.Recv(me, peer, 9);
      ASSERT_TRUE(p.ok());
      EXPECT_EQ(*p, MakeBody(i, 6));
    }
    sender.join();
  };
  std::thread t0([&] { side(0, 1); });
  std::thread t1([&] { side(1, 0); });
  t0.join();
  t1.join();
}

// Reliable TryRecv never skips a gap: a dropped-but-retransmitting frame
// stalls delivery rather than letting a later frame jump the queue.
TEST(ReliableTransportTest, TryRecvStaysStrictlyOrdered) {
  FaultSpec spec;
  spec.seed = 22;
  spec.all_links.drop_prob = 0.3;
  spec.all_links.reorder_prob = 0.3;
  TransportStack stack(2, spec, ReliableOptions{});
  ReliableTransport& rel = *stack.reliable();
  const int n = 100;
  for (int i = 0; i < n; ++i) rel.Send(0, 1, 4, MakeBody(i, 5));
  int got = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (got < n) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    auto p = rel.TryRecv(1, 0, 4);
    if (!p.has_value()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    EXPECT_EQ(*p, MakeBody(got, 5)) << "message " << got;
    ++got;
  }
  EXPECT_EQ(rel.TryRecv(1, 0, 4), std::nullopt);
}

// Tier-1 gives up after the message deadline; the loss surfaces as the
// *receiver's* RecvFor deadline (the hand-off to tiers 2/3).
TEST(ReliableTransportTest, MessageDeadlineHandsOffToUpperTiers) {
  FaultSpec spec;
  spec.seed = 23;
  spec.all_links.drop_prob = 1.0;  // nothing ever arrives
  ReliableOptions opts;
  opts.rto_initial_ms = 1;
  opts.rto_max_ms = 4;
  opts.message_deadline_ms = 30;
  TransportStack stack(2, spec, opts);
  ReliableTransport& rel = *stack.reliable();
  rel.Send(0, 1, 2, MakeBody(0, 4));
  auto p = rel.RecvFor(1, 0, 2, std::chrono::milliseconds(100));
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kDeadlineExceeded);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rel.stats().delivery_failures == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(rel.stats().retransmits, 1u);
}

// Retained bodies, wire frames, acks, and delivered bodies all cycle
// through the BufferPool: once the communication pattern's buffer classes
// are warm, a retransmitting steady state allocates nothing. (Delay faults
// rather than drops: a *dropped* frame is destroyed inside the chaos
// decorator — a test-only device that consumes buffers a real wire would
// never have owned — while delays exercise the genuine retransmit +
// duplicate-discard path with every buffer eventually returning home.)
//
// `prime` lists (request size, count) pairs that deep-prime the pool before
// the run, one entry per distinct size class in play. When the consumer
// thread is starved by a loaded machine, the daemon keeps building resends
// every rto, so the transient buffer population can burst well past what
// serial warm-up pings would populate.
void ExpectZeroSteadyStateAllocations(
    std::size_t lanes, std::uint64_t seed,
    const std::vector<std::pair<std::size_t, int>>& prime) {
  FaultSpec spec;
  spec.seed = seed;
  spec.all_links.delay_prob = 0.3;
  spec.all_links.max_delay_ms = 15.0;  // >> rto: forces retransmits
  common::BufferPool pool;
  test::PrimePool(pool, prime);
  ReliableOptions opts;
  opts.pool = &pool;
  opts.rto_initial_ms = 2;
  opts.rto_max_ms = 8;
  TransportStack stack(2, spec, opts);
  ReliableTransport& rel = *stack.reliable();
  const auto lane = [](int i, std::size_t j) {
    return static_cast<float>(i) + 0.5f * static_cast<float>(j % 64);
  };
  auto ping = [&](int i) {
    Payload body = pool.Acquire(lanes);
    for (std::size_t j = 0; j < lanes; ++j) body[j] = lane(i, j);
    rel.Send(0, 1, 6, std::move(body));
    auto p = rel.Recv(1, 0, 6);
    ASSERT_TRUE(p.ok());
    ASSERT_EQ(p->size(), lanes);
    for (std::size_t j = 0; j < lanes; ++j) ASSERT_EQ((*p)[j], lane(i, j));
    pool.Release(std::move(*p));
  };
  for (int i = 0; i < 200; ++i) ping(i);  // warm the classes
  const std::uint64_t misses_before = pool.stats().misses;
  for (int i = 0; i < 300; ++i) ping(i);
  EXPECT_EQ(pool.stats().misses, misses_before)
      << "steady-state retransmission allocated fresh buffers";
  EXPECT_GT(rel.stats().retransmits, 0u)
      << "delays never forced a retransmit; the assertion proved nothing";
}

TEST(ReliableTransportTest, ZeroSteadyStateAllocations) {
  // Wire frames (12 lanes), retained bodies and acks all fall into the
  // smallest size class.
  ExpectZeroSteadyStateAllocations(/*lanes=*/8, /*seed=*/24, {{12, 128}});
}

// The engine's 64 KiB slice: 16384 lanes, a power of two, so its wire frame
// lands one size class above the retained body. Covers the retained-body
// resend, the in-place header strip and send-path ack retirement at the
// sizes the engine actually sends.
TEST(ReliableTransportTest, ZeroSteadyStateAllocationsAtSliceSize) {
  // Wire frames (body + 4 header lanes; delivered bodies keep this
  // capacity), retained bodies, and acks: three distinct classes.
  ExpectZeroSteadyStateAllocations(/*lanes=*/16384, /*seed=*/25,
                                   {{16384 + 4, 128}, {16384, 32}, {4, 128}});
}

// ------------------------------------------------------------ frame CRC ---

/// Bit-at-a-time CRC-32 (reflected, poly 0xEDB88320), independent of the
/// table-driven implementation under test.
std::uint32_t ReferenceCrc32(const unsigned char* p, std::size_t n) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, StandardCheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32Update(0xFFFFFFFFu, check, 9) ^ 0xFFFFFFFFu, 0xCBF43926u);
  EXPECT_EQ(Crc32Update(0xFFFFFFFFu, nullptr, 0) ^ 0xFFFFFFFFu, 0u);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtUnalignedOffsets) {
  Rng rng(91);
  std::vector<unsigned char> buf(300 + 8);
  for (int trial = 0; trial < 2000; ++trial) {
    for (auto& b : buf) b = static_cast<unsigned char>(rng.NextU64());
    const auto offset = static_cast<std::size_t>(rng.UniformInt(0, 7));
    const auto len = static_cast<std::size_t>(rng.UniformInt(0, 300));
    const unsigned char* p = buf.data() + offset;
    const std::uint32_t want = ReferenceCrc32(p, len);
    ASSERT_EQ(Crc32Update(0xFFFFFFFFu, p, len) ^ 0xFFFFFFFFu, want)
        << "len " << len << " offset " << offset;
    // Chaining over a split point equals one pass over the whole range.
    const auto cut = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(len)));
    const std::uint32_t chained =
        Crc32Update(Crc32Update(0xFFFFFFFFu, p, cut), p + cut, len - cut);
    ASSERT_EQ(chained ^ 0xFFFFFFFFu, want) << "len " << len << " cut " << cut;
  }
}

// --------------------------------- collectives through the chaos stack ---

// Every collective must complete *bit-exactly* through seeded
// drop/dup/reorder/corrupt chaos, at every pipeline depth and channel
// count, without any checkpoint recovery — tier 1 alone repairs the wire.
TEST(ReliableCollectiveTest, MultiChannelAllReduceBitExactThroughChaos) {
  const int world = 3;
  const std::size_t len = 4096;
  for (const int channels : {1, 2, 4}) {
    for (const int depth : {1, 2, 4, 8}) {
      auto make_data = [&] {
        std::vector<std::vector<float>> data(world);
        Rng rng(77);
        for (auto& v : data) {
          v.resize(len);
          for (float& x : v) x = static_cast<float>(rng.Uniform(-8.0, 8.0));
        }
        return data;
      };
      auto run = [&](Transport& tr, std::vector<std::vector<float>>& data) {
        std::vector<std::thread> threads;
        for (int r = 0; r < world; ++r) {
          threads.emplace_back([&, r] {
            collective::Comm comm{&tr, r, world, collective::kSyncTag, 20000};
            comm.pipeline_depth = depth;
            const Status st = collective::MultiChannelAllReduce(
                comm, data[static_cast<std::size_t>(r)],
                collective::ReduceOp::kAvg, channels);
            EXPECT_TRUE(st.ok()) << st.ToString();
          });
        }
        for (auto& t : threads) t.join();
      };

      // Reference: clean transport, identical schedule parameters.
      auto ref = make_data();
      InProcTransport clean(world);
      run(clean, ref);

      // Chaos run: drop/dup/reorder/corrupt under the reliable layer.
      FaultSpec spec;
      spec.seed = 1000 + static_cast<std::uint64_t>(channels * 10 + depth);
      spec.all_links.drop_prob = 0.03;
      spec.all_links.dup_prob = 0.03;
      spec.all_links.reorder_prob = 0.03;
      spec.all_links.corrupt_prob = 0.01;
      auto chaotic = make_data();
      TransportStack stack(world, spec, ReliableOptions{});
      ReliableTransport& rel = *stack.reliable();
      run(rel, chaotic);

      for (int r = 0; r < world; ++r) {
        ASSERT_EQ(chaotic[static_cast<std::size_t>(r)],
                  ref[static_cast<std::size_t>(r)])
            << "channels=" << channels << " depth=" << depth << " rank=" << r;
      }
    }
  }
}

// ------------------------------------------- fault-schedule JSON replay ---

TEST(FaultScheduleTest, JsonRoundTripPreservesEveryField) {
  FaultSpec spec;
  spec.seed = 424242;
  spec.delivery = FaultDelivery::kRaw;
  spec.all_links.drop_prob = 0.125;
  spec.all_links.dup_prob = 0.0625;
  spec.all_links.reorder_prob = 0.25;
  spec.all_links.corrupt_prob = 0.03125;
  spec.all_links.delay_prob = 0.5;
  spec.all_links.max_delay_ms = 7.5;
  LinkFaults lossy;
  lossy.drop_prob = 1.0;
  spec.per_link[{0, 2}] = lossy;
  spec.per_link[{2, 1}] = LinkFaults{};
  TagFaults window;
  window.tag_lo = 33;
  window.tag_hi = 48;
  window.faults.corrupt_prob = 0.75;
  spec.per_tag.push_back(window);
  spec.crash_rank = 2;
  spec.crash_after_sends = 900;
  spec.straggler_rank = 1;
  spec.straggler_delay_ms = 3.25;

  const std::string json = FaultScheduleToJson(spec);
  auto parsed = FaultScheduleFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->seed, spec.seed);
  EXPECT_EQ(parsed->delivery, spec.delivery);
  EXPECT_EQ(parsed->all_links, spec.all_links);
  EXPECT_EQ(parsed->per_link, spec.per_link);
  EXPECT_EQ(parsed->per_tag, spec.per_tag);
  EXPECT_EQ(parsed->crash_rank, spec.crash_rank);
  EXPECT_EQ(parsed->crash_after_sends, spec.crash_after_sends);
  EXPECT_EQ(parsed->straggler_rank, spec.straggler_rank);
  EXPECT_EQ(parsed->straggler_delay_ms, spec.straggler_delay_ms);

  // And the round-tripped schedule replays the identical fault sequence.
  FaultSpec simple;
  simple.seed = 5;
  simple.all_links.drop_prob = 0.2;
  auto replay = FaultScheduleFromJson(FaultScheduleToJson(simple));
  ASSERT_TRUE(replay.ok());
  auto run_with = [&](const FaultSpec& s) {
    InProcTransport inner(2);
    FaultyTransport tr(inner, s);
    for (int i = 0; i < 200; ++i) tr.Send(0, 1, 0, {static_cast<float>(i)});
    return tr.stats().dropped;
  };
  EXPECT_EQ(run_with(simple), run_with(*replay));
}

TEST(FaultScheduleTest, FileRoundTripAndErrors) {
  FaultSpec spec;
  spec.seed = 7;
  spec.all_links.drop_prob = 0.5;
  const std::string path =
      ::testing::TempDir() + "reliable_test_schedule.json";
  ASSERT_TRUE(WriteFaultSchedule(path, spec).ok());
  auto loaded = LoadFaultSchedule(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->seed, 7u);
  EXPECT_EQ(loaded->all_links.drop_prob, 0.5);
  std::remove(path.c_str());

  EXPECT_FALSE(FaultScheduleFromJson("not json").ok());
  EXPECT_FALSE(FaultScheduleFromJson("{\"unknown_key\": 1}").ok());
  EXPECT_FALSE(LoadFaultSchedule("/nonexistent/schedule.json").ok());
}

}  // namespace
}  // namespace aiacc::transport
