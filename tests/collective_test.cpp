// Collective-library tests.
//
// Threaded (functional): real threads, real payloads — ring/hierarchical
// all-reduce, reduce-scatter, all-gather, broadcast, multi-channel, across a
// sweep of world sizes and buffer lengths (parameterized).
//
// Simulated (timed): analytic estimates, fluid-vs-detailed agreement, the
// multi-stream bandwidth win, and real-payload reductions through the
// simulated rings.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <optional>
#include <thread>
#include <tuple>
#include <vector>

#include "collective/simulated.h"
#include "collective/threaded.h"
#include "common/buffer_pool.h"
#include "common/rng.h"
#include "common/sync.h"
#include "core/sync_bits.h"
#include "transport/faulty.h"

namespace aiacc::collective {
namespace {

std::vector<std::vector<float>> MakeRankData(int world, std::size_t len,
                                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> data(static_cast<std::size_t>(world));
  for (auto& v : data) {
    v.resize(len);
    for (float& x : v) x = static_cast<float>(rng.Uniform(-10.0, 10.0));
  }
  return data;
}

std::vector<float> ExpectedSum(const std::vector<std::vector<float>>& data) {
  std::vector<float> sum(data[0].size(), 0.0f);
  for (const auto& v : data) {
    for (std::size_t i = 0; i < v.size(); ++i) sum[i] += v[i];
  }
  return sum;
}

void RunAllRanks(int world, const std::function<void(int)>& body) {
  std::vector<std::thread> threads;
  for (int r = 0; r < world; ++r) threads.emplace_back([&body, r] { body(r); });
  for (auto& t : threads) t.join();
}

// ------------------------------------------------ threaded: parameterized --

struct RingCase {
  int world;
  std::size_t len;
};

class RingAllReduceP : public ::testing::TestWithParam<RingCase> {};

TEST_P(RingAllReduceP, MatchesSequentialSum) {
  const auto [world, len] = GetParam();
  transport::InProcTransport tr(world);
  auto data = MakeRankData(world, len, 1000 + world * 17 + len);
  const auto expected = ExpectedSum(data);
  RunAllRanks(world, [&](int rank) {
    Comm comm{&tr, rank, world, 0};
    EXPECT_TRUE(
        RingAllReduce(comm, data[static_cast<std::size_t>(rank)],
                      ReduceOp::kSum).ok());
  });
  for (int r = 0; r < world; ++r) {
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_NEAR(data[static_cast<std::size_t>(r)][i], expected[i], 1e-3)
          << "rank " << r << " element " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RingAllReduceP,
    ::testing::Values(RingCase{1, 16}, RingCase{2, 16}, RingCase{3, 7},
                      RingCase{4, 64}, RingCase{5, 1}, RingCase{4, 1023},
                      RingCase{8, 256}, RingCase{7, 97}, RingCase{2, 2},
                      RingCase{6, 6}));

class HierarchicalAllReduceP
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HierarchicalAllReduceP, MatchesSequentialAvg) {
  const auto [hosts, gpus] = GetParam();
  const int world = hosts * gpus;
  const std::size_t len = 128;
  transport::InProcTransport tr(world);
  auto data = MakeRankData(world, len, 77 + world);
  auto expected = ExpectedSum(data);
  for (float& x : expected) x /= static_cast<float>(world);
  RunAllRanks(world, [&](int rank) {
    Comm comm{&tr, rank, world, 0};
    EXPECT_TRUE(
        HierarchicalAllReduce(comm, gpus, data[static_cast<std::size_t>(rank)],
                              ReduceOp::kAvg).ok());
  });
  for (int r = 0; r < world; ++r) {
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_NEAR(data[static_cast<std::size_t>(r)][i], expected[i], 1e-4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HierarchicalAllReduceP,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(1, 2, 4)));

TEST(ThreadedCollectiveTest, MinAndMaxOps) {
  const int world = 4;
  const std::size_t len = 32;
  transport::InProcTransport tr(world);
  auto data = MakeRankData(world, len, 5);
  auto data_max = data;
  std::vector<float> expected_min(len);
  std::vector<float> expected_max(len);
  for (std::size_t i = 0; i < len; ++i) {
    float lo = data[0][i];
    float hi = data[0][i];
    for (int r = 1; r < world; ++r) {
      lo = std::min(lo, data[static_cast<std::size_t>(r)][i]);
      hi = std::max(hi, data[static_cast<std::size_t>(r)][i]);
    }
    expected_min[i] = lo;
    expected_max[i] = hi;
  }
  RunAllRanks(world, [&](int rank) {
    Comm comm{&tr, rank, world, 0};
    EXPECT_TRUE(
        RingAllReduce(comm, data[static_cast<std::size_t>(rank)],
                      ReduceOp::kMin).ok());
  });
  transport::InProcTransport tr2(world);
  RunAllRanks(world, [&](int rank) {
    Comm comm{&tr2, rank, world, 0};
    EXPECT_TRUE(
        RingAllReduce(comm, data_max[static_cast<std::size_t>(rank)],
                      ReduceOp::kMax).ok());
  });
  for (int r = 0; r < world; ++r) {
    EXPECT_EQ(data[static_cast<std::size_t>(r)], expected_min);
    EXPECT_EQ(data_max[static_cast<std::size_t>(r)], expected_max);
  }
}

TEST(ThreadedCollectiveTest, BitVectorMinSyncSemantics) {
  // The decentralized sync protocol: readiness vectors (0/1) min-allreduce
  // to their intersection.
  const int world = 3;
  transport::InProcTransport tr(world);
  std::vector<std::vector<float>> ready = {
      {1, 1, 0, 1, 0}, {1, 0, 1, 1, 0}, {1, 1, 1, 1, 0}};
  RunAllRanks(world, [&](int rank) {
    Comm comm{&tr, rank, world, 0};
    EXPECT_TRUE(
        RingAllReduce(comm, ready[static_cast<std::size_t>(rank)],
                      ReduceOp::kMin).ok());
  });
  const std::vector<float> expected = {1, 0, 0, 1, 0};
  for (int r = 0; r < world; ++r) {
    EXPECT_EQ(ready[static_cast<std::size_t>(r)], expected);
  }
}

TEST(ThreadedCollectiveTest, ReduceScatterOwnsReducedChunk) {
  const int world = 4;
  const std::size_t len = 16;
  transport::InProcTransport tr(world);
  auto data = MakeRankData(world, len, 9);
  const auto expected = ExpectedSum(data);
  RunAllRanks(world, [&](int rank) {
    Comm comm{&tr, rank, world, 0};
    EXPECT_TRUE(
        ReduceScatter(comm, data[static_cast<std::size_t>(rank)],
                      ReduceOp::kSum).ok());
  });
  for (int r = 0; r < world; ++r) {
    const std::size_t b = ChunkBegin(len, world, r);
    const std::size_t e = ChunkBegin(len, world, r + 1);
    for (std::size_t i = b; i < e; ++i) {
      ASSERT_NEAR(data[static_cast<std::size_t>(r)][i], expected[i], 1e-3);
    }
  }
}

TEST(ThreadedCollectiveTest, ReduceScatterThenAllGatherEqualsAllReduce) {
  const int world = 4;
  const std::size_t len = 64;
  transport::InProcTransport tr(world);
  auto data = MakeRankData(world, len, 21);
  const auto expected = ExpectedSum(data);
  RunAllRanks(world, [&](int rank) {
    Comm comm{&tr, rank, world, 0};
    EXPECT_TRUE(
        ReduceScatter(comm, data[static_cast<std::size_t>(rank)],
                      ReduceOp::kSum).ok());
    Comm comm2{&tr, rank, world, 100};
    EXPECT_TRUE(AllGather(comm2, data[static_cast<std::size_t>(rank)]).ok());
  });
  for (int r = 0; r < world; ++r) {
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_NEAR(data[static_cast<std::size_t>(r)][i], expected[i], 1e-3);
    }
  }
}

TEST(ThreadedCollectiveTest, BroadcastFromEveryRoot) {
  const int world = 5;
  const std::size_t len = 33;
  for (int root = 0; root < world; ++root) {
    transport::InProcTransport tr(world);
    auto data = MakeRankData(world, len, 31 + root);
    const auto want = data[static_cast<std::size_t>(root)];
    RunAllRanks(world, [&](int rank) {
      Comm comm{&tr, rank, world, 0};
      EXPECT_TRUE(
          Broadcast(comm, root, data[static_cast<std::size_t>(rank)]).ok());
    });
    for (int r = 0; r < world; ++r) {
      EXPECT_EQ(data[static_cast<std::size_t>(r)], want) << "root " << root;
    }
  }
}

class MultiChannelP : public ::testing::TestWithParam<int> {};

TEST_P(MultiChannelP, MatchesSingleChannel) {
  const int channels = GetParam();
  const int world = 4;
  const std::size_t len = 1000;
  transport::InProcTransport tr(world);
  auto data = MakeRankData(world, len, 55);
  auto expected = ExpectedSum(data);
  for (float& x : expected) x /= world;
  RunAllRanks(world, [&](int rank) {
    Comm comm{&tr, rank, world, 0};
    EXPECT_TRUE(
        MultiChannelAllReduce(comm, data[static_cast<std::size_t>(rank)],
                              ReduceOp::kAvg, channels).ok());
  });
  for (int r = 0; r < world; ++r) {
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_NEAR(data[static_cast<std::size_t>(r)][i], expected[i], 1e-4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Channels, MultiChannelP,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(ThreadedCollectiveTest, RingMessageCount) {
  // Each rank sends exactly 2(n-1) messages in a ring all-reduce.
  const int world = 4;
  transport::InProcTransport tr(world);
  auto data = MakeRankData(world, 64, 3);
  RunAllRanks(world, [&](int rank) {
    Comm comm{&tr, rank, world, 0};
    EXPECT_TRUE(
        RingAllReduce(comm, data[static_cast<std::size_t>(rank)],
                      ReduceOp::kSum).ok());
  });
  EXPECT_EQ(tr.TotalMessages(),
            static_cast<std::uint64_t>(world) * 2 * (world - 1));
}

TEST(ThreadedCollectiveTest, ReduceToRootOnly) {
  const int world = 4;
  const std::size_t len = 20;
  for (int root = 0; root < world; ++root) {
    transport::InProcTransport tr(world);
    auto data = MakeRankData(world, len, 41 + root);
    const auto original = data;
    const auto expected = ExpectedSum(data);
    RunAllRanks(world, [&](int rank) {
      Comm comm{&tr, rank, world, 0};
      EXPECT_TRUE(
          Reduce(comm, root, data[static_cast<std::size_t>(rank)],
                 ReduceOp::kSum).ok());
    });
    for (int r = 0; r < world; ++r) {
      if (r == root) {
        for (std::size_t i = 0; i < len; ++i) {
          ASSERT_NEAR(data[static_cast<std::size_t>(r)][i], expected[i],
                      1e-3);
        }
      } else {
        EXPECT_EQ(data[static_cast<std::size_t>(r)],
                  original[static_cast<std::size_t>(r)])
            << "non-root buffer modified";
      }
    }
  }
}

TEST(ThreadedCollectiveTest, GatherCollectsRankMajor) {
  const int world = 3;
  const std::size_t len = 5;
  transport::InProcTransport tr(world);
  auto data = MakeRankData(world, len, 51);
  std::vector<float> gathered(world * len);
  RunAllRanks(world, [&](int rank) {
    Comm comm{&tr, rank, world, 0};
    EXPECT_TRUE(
        Gather(comm, /*root=*/1,
               data[static_cast<std::size_t>(rank)],
               rank == 1 ? std::span<float>(gathered) : std::span<float>())
            .ok());
  });
  for (int r = 0; r < world; ++r) {
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_EQ(gathered[static_cast<std::size_t>(r) * len + i],
                data[static_cast<std::size_t>(r)][i]);
    }
  }
}

TEST(ThreadedCollectiveTest, ScatterDistributesRankMajor) {
  const int world = 3;
  const std::size_t len = 4;
  transport::InProcTransport tr(world);
  std::vector<float> source(world * len);
  for (std::size_t i = 0; i < source.size(); ++i) {
    source[i] = static_cast<float>(i);
  }
  std::vector<std::vector<float>> chunks(world, std::vector<float>(len));
  RunAllRanks(world, [&](int rank) {
    Comm comm{&tr, rank, world, 0};
    EXPECT_TRUE(
        Scatter(comm, /*root=*/0,
                rank == 0 ? std::span<const float>(source)
                          : std::span<const float>(),
                chunks[static_cast<std::size_t>(rank)])
            .ok());
  });
  for (int r = 0; r < world; ++r) {
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_EQ(chunks[static_cast<std::size_t>(r)][i],
                source[static_cast<std::size_t>(r) * len + i]);
    }
  }
}

TEST(ThreadedCollectiveTest, ScatterThenGatherRoundTrips) {
  const int world = 4;
  const std::size_t len = 6;
  transport::InProcTransport tr(world);
  std::vector<float> source(world * len);
  Rng rng(61);
  for (float& v : source) v = static_cast<float>(rng.Uniform(-1, 1));
  std::vector<float> back(world * len);
  RunAllRanks(world, [&](int rank) {
    std::vector<float> chunk(len);
    Comm comm{&tr, rank, world, 0};
    EXPECT_TRUE(
        Scatter(comm, 0,
                rank == 0 ? std::span<const float>(source)
                          : std::span<const float>(),
                chunk)
            .ok());
    Comm comm2{&tr, rank, world, 8};
    EXPECT_TRUE(
        Gather(comm2, 0, chunk,
               rank == 0 ? std::span<float>(back) : std::span<float>())
            .ok());
  });
  EXPECT_EQ(back, source);
}

TEST(ThreadedCollectiveTest, AllToAllTransposesBlocks) {
  const int world = 4;
  const std::size_t block = 3;
  transport::InProcTransport tr(world);
  // send[r][d*block + i] = r * 100 + d * 10 + i.
  std::vector<std::vector<float>> send(world);
  std::vector<std::vector<float>> recv(world,
                                       std::vector<float>(world * block));
  for (int r = 0; r < world; ++r) {
    for (int d = 0; d < world; ++d) {
      for (std::size_t i = 0; i < block; ++i) {
        send[static_cast<std::size_t>(r)].push_back(
            static_cast<float>(r * 100 + d * 10 + static_cast<int>(i)));
      }
    }
  }
  RunAllRanks(world, [&](int rank) {
    Comm comm{&tr, rank, world, 0};
    EXPECT_TRUE(
        AllToAll(comm, send[static_cast<std::size_t>(rank)],
                 recv[static_cast<std::size_t>(rank)]).ok());
  });
  // recv[d][s*block + i] must equal send[s][d*block + i].
  for (int d = 0; d < world; ++d) {
    for (int s = 0; s < world; ++s) {
      for (std::size_t i = 0; i < block; ++i) {
        EXPECT_EQ(recv[static_cast<std::size_t>(d)]
                      [static_cast<std::size_t>(s) * block + i],
                  static_cast<float>(s * 100 + d * 10 + static_cast<int>(i)));
      }
    }
  }
}

TEST(ChunkBeginTest, CoversBufferExactly) {
  for (std::size_t len : {0u, 1u, 7u, 64u, 1000u}) {
    for (int n : {1, 2, 3, 7, 16}) {
      EXPECT_EQ(ChunkBegin(len, n, 0), 0u);
      EXPECT_EQ(ChunkBegin(len, n, n), len);
      for (int c = 0; c < n; ++c) {
        EXPECT_LE(ChunkBegin(len, n, c), ChunkBegin(len, n, c + 1));
      }
    }
  }
}

// ------------------------------------------------------------- simulated --

class SimCollectiveTest : public ::testing::Test {
 protected:
  void Build(int hosts, int gpus, net::TransportKind kind) {
    fabric = std::make_unique<net::CloudFabric>(
        engine, net::Topology{hosts, gpus, kind}, net::FabricParams{});
    coll = std::make_unique<SimCollectives>(*fabric);
  }
  sim::Engine engine;
  std::unique_ptr<net::CloudFabric> fabric;
  std::unique_ptr<SimCollectives> coll;
};

TEST_F(SimCollectiveTest, RingTimeMatchesAnalyticEstimate) {
  Build(4, 8, net::TransportKind::kTcp);
  const double bytes = 64e6;
  double done_at = -1.0;
  SimCollectives::Unit unit;
  unit.bytes_per_rank = bytes;
  unit.on_done = [&](double t) { done_at = t; };
  coll->Start(std::move(unit));
  engine.Run();
  EXPECT_NEAR(done_at, coll->EstimateTime(bytes, Algorithm::kRing),
              done_at * 0.01);
}

TEST_F(SimCollectiveTest, HierarchicalTimeMatchesEstimate) {
  Build(4, 8, net::TransportKind::kTcp);
  const double bytes = 64e6;
  double done_at = -1.0;
  SimCollectives::Unit unit;
  unit.bytes_per_rank = bytes;
  unit.algorithm = Algorithm::kHierarchical;
  unit.on_done = [&](double t) { done_at = t; };
  coll->Start(std::move(unit));
  engine.Run();
  EXPECT_NEAR(done_at, coll->EstimateTime(bytes, Algorithm::kHierarchical),
              done_at * 0.01);
}

TEST_F(SimCollectiveTest, FluidAgreesWithDetailedRing) {
  // The macro-flow (fluid) model and the step-level ring must agree on an
  // otherwise idle network (within the latency-folding approximation).
  Build(4, 2, net::TransportKind::kTcp);
  const double bytes = 32e6;
  double fluid = -1.0;
  {
    SimCollectives::Unit unit;
    unit.bytes_per_rank = bytes;
    unit.on_done = [&](double t) { fluid = t; };
    coll->Start(std::move(unit));
    engine.Run();
  }
  sim::Engine engine2;
  net::CloudFabric fabric2(engine2, net::Topology{4, 2, net::TransportKind::kTcp},
                           net::FabricParams{});
  SimCollectives coll2(fabric2);
  double detailed_done = -1.0;
  double detailed_start = engine2.Now();
  {
    SimCollectives::Unit unit;
    unit.bytes_per_rank = bytes;
    unit.on_done = [&](double t) { detailed_done = t; };
    coll2.StartDetailedRing(std::move(unit));
    engine2.Run();
  }
  const double detailed = detailed_done - detailed_start;
  EXPECT_NEAR(fluid, detailed, detailed * 0.15);
}

TEST_F(SimCollectiveTest, MultiStreamSpeedsUpLargeTransfer) {
  // One 96MB unit vs four concurrent 24MB units: the four streams multiplex
  // the NIC past the single-stream cap, finishing ~3x faster (cap is 30%).
  Build(2, 8, net::TransportKind::kTcp);
  const double total = 96e6;
  double single_done = -1.0;
  {
    SimCollectives::Unit unit;
    unit.bytes_per_rank = total;
    unit.on_done = [&](double t) { single_done = t; };
    coll->Start(std::move(unit));
    engine.Run();
  }
  sim::Engine engine2;
  net::CloudFabric fabric2(engine2, net::Topology{2, 8, net::TransportKind::kTcp},
                           net::FabricParams{});
  SimCollectives coll2(fabric2);
  int done = 0;
  double multi_done = -1.0;
  for (int s = 0; s < 4; ++s) {
    SimCollectives::Unit unit;
    unit.bytes_per_rank = total / 4;
    unit.on_done = [&](double t) {
      if (++done == 4) multi_done = t;
    };
    coll2.Start(std::move(unit));
  }
  engine2.Run();
  ASSERT_GT(single_done, 0.0);
  ASSERT_GT(multi_done, 0.0);
  const double speedup = single_done / multi_done;
  EXPECT_GT(speedup, 2.5);
  EXPECT_LT(speedup, 3.5);
}

TEST_F(SimCollectiveTest, PayloadsAreReducedForReal) {
  Build(2, 2, net::TransportKind::kTcp);
  const int world = 4;
  auto data = MakeRankData(world, 50, 123);
  auto expected = ExpectedSum(data);
  for (float& x : expected) x /= world;
  SimCollectives::Unit unit;
  unit.bytes_per_rank = 50 * sizeof(float);
  for (auto& v : data) unit.buffers.emplace_back(v);
  bool done = false;
  unit.on_done = [&](double) { done = true; };
  coll->Start(std::move(unit));
  engine.Run();
  ASSERT_TRUE(done);
  for (int r = 0; r < world; ++r) {
    for (std::size_t i = 0; i < 50; ++i) {
      ASSERT_NEAR(data[static_cast<std::size_t>(r)][i], expected[i], 1e-4);
    }
  }
}

TEST_F(SimCollectiveTest, SubgroupAllReduceOnlyTouchesItsHosts) {
  Build(4, 2, net::TransportKind::kTcp);
  // Group spans hosts 0 and 1 only.
  SimCollectives::Unit unit;
  unit.bytes_per_rank = 8e6;
  unit.ranks = {0, 1, 2, 3};  // hosts 0,1
  bool done = false;
  unit.on_done = [&](double) { done = true; };
  coll->Start(std::move(unit));
  engine.Run();
  ASSERT_TRUE(done);
  EXPECT_GT(fabric->network().Stats(fabric->EgressLink(0)).bytes_carried, 0.0);
  EXPECT_GT(fabric->network().Stats(fabric->EgressLink(1)).bytes_carried, 0.0);
  EXPECT_EQ(fabric->network().Stats(fabric->EgressLink(2)).bytes_carried, 0.0);
  EXPECT_EQ(fabric->network().Stats(fabric->EgressLink(3)).bytes_carried, 0.0);
}

TEST_F(SimCollectiveTest, SingleRankCompletesImmediately) {
  Build(1, 1, net::TransportKind::kTcp);
  bool done = false;
  SimCollectives::Unit unit;
  unit.bytes_per_rank = 1e6;
  unit.on_done = [&](double) { done = true; };
  coll->Start(std::move(unit));
  engine.Run();
  EXPECT_TRUE(done);
  EXPECT_LT(engine.Now(), 1e-3);
}

TEST_F(SimCollectiveTest, TimedBroadcastDeliversAndScales) {
  Build(4, 8, net::TransportKind::kTcp);
  double small_done = -1.0;
  coll->Broadcast(8e6, /*root=*/0, {}, [&](double t) { small_done = t; });
  engine.Run();
  ASSERT_GT(small_done, 0.0);

  sim::Engine engine2;
  net::CloudFabric fabric2(engine2,
                           net::Topology{4, 8, net::TransportKind::kTcp},
                           net::FabricParams{});
  SimCollectives coll2(fabric2);
  double big_done = -1.0;
  coll2.Broadcast(80e6, 0, {}, [&](double t) { big_done = t; });
  engine2.Run();
  // 10x the bytes: close to 10x the time (latency is small here).
  EXPECT_GT(big_done, small_done * 8.0);
  EXPECT_LT(big_done, small_done * 12.0);
}

TEST_F(SimCollectiveTest, TimedBroadcastSingleRankImmediate) {
  Build(1, 1, net::TransportKind::kTcp);
  bool done = false;
  coll->Broadcast(1e6, 0, {}, [&](double) { done = true; });
  engine.Run();
  EXPECT_TRUE(done);
  EXPECT_LT(engine.Now(), 1e-3);
}

TEST_F(SimCollectiveTest, TimedBroadcastSubgroupTouchesOnlyItsHosts) {
  Build(4, 2, net::TransportKind::kTcp);
  bool done = false;
  coll->Broadcast(8e6, /*root=*/0, {0, 1, 2, 3},  // hosts 0 and 1
                  [&](double) { done = true; });
  engine.Run();
  ASSERT_TRUE(done);
  EXPECT_GT(fabric->network().Stats(fabric->EgressLink(0)).bytes_carried,
            0.0);
  EXPECT_EQ(fabric->network().Stats(fabric->EgressLink(3)).bytes_carried,
            0.0);
}

TEST_F(SimCollectiveTest, RdmaFasterThanTcp) {
  Build(4, 8, net::TransportKind::kTcp);
  const double bytes = 128e6;
  const double tcp = coll->EstimateTime(bytes, Algorithm::kRing);
  sim::Engine engine2;
  net::CloudFabric rdma_fabric(
      engine2, net::Topology{4, 8, net::TransportKind::kRdma},
      net::FabricParams{});
  SimCollectives rdma_coll(rdma_fabric);
  const double rdma = rdma_coll.EstimateTime(bytes, Algorithm::kRing);
  EXPECT_LT(rdma, tcp);
}

// ------------------------------------- threaded: shutdown robustness ------

// Run the collective on every rank except `missing`, so it can never
// complete; fire Shutdown mid-algorithm. Every participating thread must
// return (join = no deadlock) and whoever was blocked must report non-OK.
// Ranks that legitimately finish before the missing rank matters (e.g.
// early pipeline stages) may return Ok — we require at least one observer.
void ExpectUnblocksOnShutdown(int world, int missing,
                              const std::function<Status(const Comm&)>& op) {
  transport::InProcTransport tr(world);
  std::vector<Status> status(static_cast<std::size_t>(world), Status::Ok());
  std::vector<std::thread> threads;
  for (int r = 0; r < world; ++r) {
    if (r == missing) continue;
    threads.emplace_back([&, r] {
      Comm comm{&tr, r, world, 0};
      status[static_cast<std::size_t>(r)] = op(comm);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  tr.Shutdown();
  for (auto& t : threads) t.join();
  int non_ok = 0;
  for (int r = 0; r < world; ++r) {
    if (r != missing && !status[static_cast<std::size_t>(r)].ok()) ++non_ok;
  }
  EXPECT_GE(non_ok, 1) << "no rank observed the shutdown";
}

TEST(ShutdownUnblocksTest, RingAllReduce) {
  ExpectUnblocksOnShutdown(4, 3, [](const Comm& c) {
    std::vector<float> d(32, 1.0f);
    return RingAllReduce(c, d, ReduceOp::kSum);
  });
}

TEST(ShutdownUnblocksTest, HierarchicalAllReduce) {
  ExpectUnblocksOnShutdown(4, 3, [](const Comm& c) {
    std::vector<float> d(32, 1.0f);
    return HierarchicalAllReduce(c, /*gpus_per_host=*/2, d, ReduceOp::kAvg);
  });
}

TEST(ShutdownUnblocksTest, ReduceScatter) {
  ExpectUnblocksOnShutdown(4, 3, [](const Comm& c) {
    std::vector<float> d(32, 1.0f);
    return ReduceScatter(c, d, ReduceOp::kSum);
  });
}

TEST(ShutdownUnblocksTest, AllGather) {
  ExpectUnblocksOnShutdown(4, 3, [](const Comm& c) {
    std::vector<float> d(32, 1.0f);
    return AllGather(c, d);
  });
}

TEST(ShutdownUnblocksTest, BroadcastFromMissingRoot) {
  ExpectUnblocksOnShutdown(4, 3, [](const Comm& c) {
    std::vector<float> d(32, 1.0f);
    return Broadcast(c, /*root=*/3, d);
  });
}

TEST(ShutdownUnblocksTest, ReduceToRoot) {
  ExpectUnblocksOnShutdown(4, 3, [](const Comm& c) {
    std::vector<float> d(32, 1.0f);
    return Reduce(c, /*root=*/0, d, ReduceOp::kSum);
  });
}

TEST(ShutdownUnblocksTest, GatherMissingContribution) {
  ExpectUnblocksOnShutdown(4, 3, [](const Comm& c) {
    std::vector<float> mine(8, 1.0f);
    std::vector<float> gathered(c.rank == 0 ? 32 : 0);
    return Gather(c, /*root=*/0, mine, gathered);
  });
}

TEST(ShutdownUnblocksTest, ScatterFromMissingRoot) {
  ExpectUnblocksOnShutdown(4, 3, [](const Comm& c) {
    std::vector<float> chunk(8);
    return Scatter(c, /*root=*/3, {}, chunk);
  });
}

TEST(ShutdownUnblocksTest, AllToAll) {
  ExpectUnblocksOnShutdown(4, 3, [](const Comm& c) {
    std::vector<float> send(32, 1.0f);
    std::vector<float> recv(32);
    return AllToAll(c, send, recv);
  });
}

TEST(ShutdownUnblocksTest, MultiChannelAllReduce) {
  ExpectUnblocksOnShutdown(4, 3, [](const Comm& c) {
    std::vector<float> d(64, 1.0f);
    return MultiChannelAllReduce(c, d, ReduceOp::kSum, /*num_channels=*/3);
  });
}

// ------------------------------------ bit-exactness against a reference --
//
// Buffer pooling, payload forwarding, fused RecvReduce and pipeline slicing
// must not change a single bit of any result: every collective performs
// the same elementwise operations in the same order as the sequential folds
// below, so results are compared with exact float equality, not a
// tolerance. The reference shares no code with src/collective — it
// re-derives the chunk boundaries, the fold order and the averaging from
// the algorithms' definitions.

using RankData = std::vector<std::vector<float>>;

/// One fold step, `acc op x`, in the operand order the ring uses.
float RefApply(ReduceOp op, float acc, float x) {
  switch (op) {
    case ReduceOp::kMin:
      return acc < x ? acc : x;
    case ReduceOp::kMax:
      return acc > x ? acc : x;
    default:  // kSum; kAvg sums and divides once at the end
      return x + acc;
  }
}

/// Element i folded along the ring from rank `start`: v = x_start, then
/// v = x_{start+k} op v for k = 1..n-1 (ranks mod n).
float RefFoldFrom(const RankData& x, std::size_t start, std::size_t i,
                  ReduceOp op) {
  const std::size_t n = x.size();
  float v = x[start % n][i];
  for (std::size_t k = 1; k < n; ++k) {
    v = RefApply(op, v, x[(start + k) % n][i]);
  }
  return v;
}

/// Ring reduction of `x` (inputs in ring order): chunk c — elements
/// [len*c/n, len*(c+1)/n) — is folded starting at ring position c.
std::vector<float> RefRingFold(const RankData& x, ReduceOp op) {
  const std::size_t n = x.size();
  const std::size_t len = x[0].size();
  std::vector<float> out(len);
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t i = len * c / n; i < len * (c + 1) / n; ++i) {
      out[i] = RefFoldFrom(x, c, i, op);
    }
  }
  return out;
}

void RefFinalizeAvg(std::vector<float>& v, std::size_t world, ReduceOp op) {
  if (op != ReduceOp::kAvg) return;
  const float inv = 1.0f / static_cast<float>(world);
  for (float& e : v) e *= inv;
}

/// What RingAllReduce leaves on every rank.
RankData RefRingAllReduce(const RankData& x, ReduceOp op) {
  std::vector<float> out = RefRingFold(x, op);
  RefFinalizeAvg(out, x.size(), op);
  return RankData(x.size(), out);
}

/// What MultiChannelAllReduce leaves on every rank: one independent ring per
/// channel slice [len*c/ch, len*(c+1)/ch), or a single ring when the payload
/// cannot give every channel at least one element per ring chunk.
RankData RefMultiChannelAllReduce(const RankData& x, ReduceOp op,
                                  std::size_t channels) {
  const std::size_t world = x.size();
  const std::size_t len = x[0].size();
  if (channels == 1 || len < channels * world) return RefRingAllReduce(x, op);
  std::vector<float> out(len);
  for (std::size_t c = 0; c < channels; ++c) {
    const auto b = static_cast<std::ptrdiff_t>(len * c / channels);
    const auto e = static_cast<std::ptrdiff_t>(len * (c + 1) / channels);
    RankData slices;
    for (const auto& v : x) slices.emplace_back(v.begin() + b, v.begin() + e);
    const std::vector<float> folded = RefRingFold(slices, op);
    std::copy(folded.begin(), folded.end(), out.begin() + b);
  }
  RefFinalizeAvg(out, world, op);
  return RankData(world, out);
}

std::vector<std::vector<float>> RunPipeline(transport::Transport& tr,
                                            int world, std::size_t len,
                                            ReduceOp op,
                                            common::BufferPool* pool,
                                            std::uint64_t seed) {
  auto data = MakeRankData(world, len, seed);
  RunAllRanks(world, [&](int rank) {
    Comm comm{&tr, rank, world, /*tag_base=*/0, /*timeout_ms=*/0, pool};
    EXPECT_TRUE(
        RingAllReduce(comm, data[static_cast<std::size_t>(rank)], op).ok());
  });
  return data;
}

void ExpectBitIdentical(const RankData& expected, const RankData& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t r = 0; r < expected.size(); ++r) {
    ASSERT_EQ(expected[r].size(), actual[r].size());
    if (expected[r].empty()) continue;  // data() may be null: UB for memcmp
    ASSERT_EQ(std::memcmp(expected[r].data(), actual[r].data(),
                          expected[r].size() * sizeof(float)),
              0)
        << "rank " << r << " diverged from the sequential reference";
  }
}

class PooledBitExactP
    : public ::testing::TestWithParam<std::tuple<int, std::size_t, ReduceOp>> {
};

TEST_P(PooledBitExactP, PooledRingAllReduceMatchesReferenceBitwise) {
  const auto [world, len, op] = GetParam();
  const std::uint64_t seed = 9000 + static_cast<std::uint64_t>(world) * 131 +
                             len * 7 + static_cast<std::uint64_t>(op);
  transport::InProcTransport tr(world);
  common::BufferPool pool;
  const auto pooled = RunPipeline(tr, world, len, op, &pool, seed);
  ExpectBitIdentical(RefRingAllReduce(MakeRankData(world, len, seed), op),
                     pooled);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PooledBitExactP,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),   // world 1..8
                       ::testing::Values(std::size_t{1}, std::size_t{7},
                                         std::size_t{97},
                                         std::size_t{1023}),  // odd sizes
                       ::testing::Values(ReduceOp::kSum, ReduceOp::kAvg,
                                         ReduceOp::kMin, ReduceOp::kMax)));

TEST(PooledBitExactTest, OtherCollectivesMatchReferenceBitwise) {
  const int world = 5;
  const std::size_t len = 35;    // odd per-rank chunk
  const std::size_t full = len * world;
  const auto n = static_cast<std::size_t>(world);
  const auto data = MakeRankData(world, full, 4242);

  // Broadcast, reduce-scatter (own chunk only — scratch regions are
  // unspecified), all-gather, reduce, gather, scatter and all-to-all, each
  // run once on identical inputs.
  struct PathResult {
    RankData bcast, rs_chunk, ag, red, gat, sct, a2a;
  };
  auto chunk_of = [&](const std::vector<float>& v, std::size_t c) {
    return std::vector<float>(
        v.begin() + static_cast<std::ptrdiff_t>(full * c / n),
        v.begin() + static_cast<std::ptrdiff_t>(full * (c + 1) / n));
  };
  auto block_of = [&](const std::vector<float>& v, std::size_t b) {
    return std::vector<float>(
        v.begin() + static_cast<std::ptrdiff_t>(b * len),
        v.begin() + static_cast<std::ptrdiff_t>((b + 1) * len));
  };

  PathResult out;
  out.bcast = data;
  out.rs_chunk.assign(n, {});
  out.ag = data;  // chunk r of rank r's buffer seeds the all-gather
  out.red = data;
  out.gat.assign(n, std::vector<float>());
  out.gat[0].resize(full);
  out.sct.assign(n, std::vector<float>(len));
  out.a2a.assign(n, std::vector<float>(full));
  transport::InProcTransport tr(world);
  common::BufferPool pool;
  RunAllRanks(world, [&](int rank) {
    const auto r = static_cast<std::size_t>(rank);
    Comm comm{&tr, rank, world, /*tag_base=*/0, /*timeout_ms=*/0, &pool};
    EXPECT_TRUE(Broadcast(comm, /*root=*/2, out.bcast[r]).ok());
    std::vector<float> rs = data[r];
    EXPECT_TRUE(ReduceScatter(comm, rs, ReduceOp::kSum).ok());
    out.rs_chunk[r] = chunk_of(rs, r);
    EXPECT_TRUE(AllGather(comm, out.ag[r]).ok());
    EXPECT_TRUE(Reduce(comm, /*root=*/1, out.red[r], ReduceOp::kAvg).ok());
    EXPECT_TRUE(Gather(comm, /*root=*/0,
                       std::span<const float>(data[r]).subspan(0, len),
                       out.gat[r])
                    .ok());
    const std::span<const float> to_scatter =
        rank == 3 ? std::span<const float>(data[3])
                  : std::span<const float>();
    EXPECT_TRUE(Scatter(comm, /*root=*/3, to_scatter, out.sct[r]).ok());
    EXPECT_TRUE(AllToAll(comm, data[r], out.a2a[r]).ok());
  });

  PathResult want;
  want.bcast.assign(n, data[2]);
  const std::vector<float> sum = RefRingFold(data, ReduceOp::kSum);
  std::vector<float> gathered_chunks(full);
  for (std::size_t r = 0; r < n; ++r) {
    want.rs_chunk.push_back(chunk_of(sum, r));
    const std::vector<float> own = chunk_of(data[r], r);
    std::copy(own.begin(), own.end(),
              gathered_chunks.begin() +
                  static_cast<std::ptrdiff_t>(full * r / n));
  }
  want.ag.assign(n, gathered_chunks);
  // Reduce chains from rank root+1 around the ring and ends at the root.
  want.red = data;
  for (std::size_t i = 0; i < full; ++i) {
    want.red[1][i] = RefFoldFrom(data, 2, i, ReduceOp::kAvg);
  }
  RefFinalizeAvg(want.red[1], n, ReduceOp::kAvg);
  want.gat.assign(n, std::vector<float>());
  for (std::size_t r = 0; r < n; ++r) {
    want.gat[0].insert(want.gat[0].end(), data[r].begin(),
                       data[r].begin() + static_cast<std::ptrdiff_t>(len));
    want.sct.push_back(block_of(data[3], r));
    want.a2a.emplace_back();
    for (std::size_t s = 0; s < n; ++s) {
      const std::vector<float> block = block_of(data[s], r);
      want.a2a[r].insert(want.a2a[r].end(), block.begin(), block.end());
    }
  }
  ExpectBitIdentical(want.bcast, out.bcast);
  ExpectBitIdentical(want.rs_chunk, out.rs_chunk);
  ExpectBitIdentical(want.ag, out.ag);
  ExpectBitIdentical(want.red, out.red);
  ExpectBitIdentical(want.gat, out.gat);
  ExpectBitIdentical(want.sct, out.sct);
  ExpectBitIdentical(want.a2a, out.a2a);
}

TEST(PooledChaosTest, BitIdenticalUnderLosslessFaultSchedule) {
  // Duplication, reordering and delay — but no drops — over the pooled
  // path: the strict Recv framing de-duplicates and re-orders, so the
  // result must still be bitwise identical to the sequential reference.
  const int world = 4;
  const std::size_t len = 257;
  for (const ReduceOp op : {ReduceOp::kSum, ReduceOp::kAvg, ReduceOp::kMin,
                            ReduceOp::kMax}) {
    const std::uint64_t seed = 31337 + static_cast<std::uint64_t>(op);
    transport::InProcTransport inner(world);
    transport::FaultSpec spec;
    spec.seed = 99 + static_cast<std::uint64_t>(op);
    spec.all_links.dup_prob = 0.15;
    spec.all_links.reorder_prob = 0.15;
    spec.all_links.delay_prob = 0.25;
    spec.all_links.max_delay_ms = 2.0;
    transport::FaultyTransport chaotic(inner, spec);
    common::BufferPool pool;
    const auto chaos = RunPipeline(chaotic, world, len, op, &pool, seed);

    ExpectBitIdentical(RefRingAllReduce(MakeRankData(world, len, seed), op),
                       chaos);
    const transport::FaultStats stats = chaotic.stats();
    EXPECT_GT(stats.duplicated + stats.reordered + stats.delayed, 0u)
        << "fault schedule did not fire; chaos coverage is vacuous";
    EXPECT_EQ(stats.dropped, 0u);
  }
}

#if GTEST_HAS_DEATH_TEST
TEST(CommDeathTest, NullPoolAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  transport::InProcTransport tr(1);
  std::vector<float> data(8, 1.0f);
  Comm comm{&tr, /*rank=*/0, /*world_size=*/1};
  comm.pool = nullptr;
  EXPECT_DEATH((void)RingAllReduce(comm, data, ReduceOp::kSum),
               "comm.pool != nullptr");
}
#endif  // GTEST_HAS_DEATH_TEST

// -------------------------------------------------- pipelined ring slices --
// Depth-d slicing changes only the message framing: every rank still reduces
// the same elements in the same order, so every depth must match the
// sequential reference bitwise (exact equality, no tolerance). Lengths
// are chosen so MultiChannelAllReduce's depth-aware small-payload fallback
// decides the same way at every depth — 7 falls back everywhere, 257/1023
// never do (the largest threshold here is 4 channels x 8 ranks x depth 8 =
// 256 floats) — so the reference needs only the depth-1 rule.

std::vector<std::vector<float>> RunPipelined(int world, std::size_t len,
                                             ReduceOp op, int depth,
                                             int channels,
                                             common::BufferPool* pool,
                                             std::uint64_t seed) {
  transport::InProcTransport tr(world);
  auto data = MakeRankData(world, len, seed);
  RunAllRanks(world, [&](int rank) {
    Comm comm{&tr,  rank, world, /*tag_base=*/0, /*timeout_ms=*/0,
              pool, depth};
    EXPECT_TRUE(MultiChannelAllReduce(comm, data[static_cast<std::size_t>(rank)],
                                      op, channels)
                    .ok());
  });
  return data;
}

class PipelinedBitExactP
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, std::size_t, ReduceOp>> {};

TEST_P(PipelinedBitExactP, AnyDepthMatchesReferenceBitwise) {
  const auto [depth, channels, world, len, op] = GetParam();
  const std::uint64_t seed = 77000 + static_cast<std::uint64_t>(depth) * 1009 +
                             static_cast<std::uint64_t>(channels) * 131 +
                             static_cast<std::uint64_t>(world) * 17 + len * 7 +
                             static_cast<std::uint64_t>(op);
  common::BufferPool pool;
  const auto piped = RunPipelined(world, len, op, depth, channels, &pool, seed);
  ExpectBitIdentical(
      RefMultiChannelAllReduce(MakeRankData(world, len, seed), op,
                               static_cast<std::size_t>(channels)),
      piped);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelinedBitExactP,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),     // pipeline depth
                       ::testing::Values(1, 4),           // channels
                       ::testing::Values(1, 2, 3, 5, 8),  // world
                       ::testing::Values(std::size_t{7}, std::size_t{257},
                                         std::size_t{1023}),
                       ::testing::Values(ReduceOp::kSum, ReduceOp::kAvg,
                                         ReduceOp::kMin, ReduceOp::kMax)));

TEST(PipelinedBitExactTest, HierarchicalMatchesReferenceBitwise) {
  // Slicing threads through both nested rings (intra-host + leaders); the
  // reference folds each host group on its own ring, folds the group totals
  // on the leaders' ring, and broadcasts the result.
  const int hosts = 2;
  const int gpus = 2;
  const int world = hosts * gpus;
  const std::size_t len = 128;
  auto run = [&](int depth) {
    transport::InProcTransport tr(world);
    common::BufferPool pool;
    auto data = MakeRankData(world, len, 5150);
    RunAllRanks(world, [&](int rank) {
      Comm comm{&tr,   rank, world, /*tag_base=*/0, /*timeout_ms=*/0,
                &pool, depth};
      EXPECT_TRUE(HierarchicalAllReduce(comm, gpus,
                                        data[static_cast<std::size_t>(rank)],
                                        ReduceOp::kSum)
                      .ok());
    });
    return data;
  };
  const RankData data = MakeRankData(world, len, 5150);
  RankData group_totals;
  for (int h = 0; h < hosts; ++h) {
    group_totals.push_back(RefRingFold(
        RankData(data.begin() + h * gpus, data.begin() + (h + 1) * gpus),
        ReduceOp::kSum));
  }
  const RankData want(static_cast<std::size_t>(world),
                      RefRingFold(group_totals, ReduceOp::kSum));
  ExpectBitIdentical(want, run(1));
  ExpectBitIdentical(want, run(4));
}

TEST(PipelinedChaosTest, BitIdenticalUnderLosslessFaultSchedule) {
  // Duplication, reordering and delay across a depth-4 pipelined run: the
  // strict per-(src,tag) FIFO framing must keep the in-flight slice window
  // coherent, matching the sequential reference bit for bit.
  const int world = 4;
  const std::size_t len = 257;
  for (const ReduceOp op : {ReduceOp::kSum, ReduceOp::kAvg, ReduceOp::kMin,
                            ReduceOp::kMax}) {
    const std::uint64_t seed = 86000 + static_cast<std::uint64_t>(op);
    transport::InProcTransport inner(world);
    transport::FaultSpec spec;
    spec.seed = 4242 + static_cast<std::uint64_t>(op);
    spec.all_links.dup_prob = 0.15;
    spec.all_links.reorder_prob = 0.15;
    spec.all_links.delay_prob = 0.25;
    spec.all_links.max_delay_ms = 2.0;
    transport::FaultyTransport chaotic(inner, spec);
    common::BufferPool pool;
    auto data = MakeRankData(world, len, seed);
    RunAllRanks(world, [&](int rank) {
      Comm comm{&chaotic, rank,  world, /*tag_base=*/0, /*timeout_ms=*/0,
                &pool,    /*pipeline_depth=*/4};
      EXPECT_TRUE(
          RingAllReduce(comm, data[static_cast<std::size_t>(rank)], op).ok());
    });

    ExpectBitIdentical(RefRingAllReduce(MakeRankData(world, len, seed), op),
                       data);
    const transport::FaultStats stats = chaotic.stats();
    EXPECT_GT(stats.duplicated + stats.reordered + stats.delayed, 0u)
        << "fault schedule did not fire; chaos coverage is vacuous";
    EXPECT_EQ(stats.dropped, 0u);
  }
}

TEST(ThreadedCollectiveTest, PipelinedRingMessageCount) {
  // Depth-d slicing multiplies each rank's 2(n-1) chunk sends into
  // 2(n-1)*d_eff slice sends, where d_eff clamps to the per-step chunk size.
  const int world = 4;
  common::BufferPool pool;
  {
    transport::InProcTransport tr(world);
    auto data = MakeRankData(world, 64, 21);  // chunks of 16: depth 4 fits
    RunAllRanks(world, [&](int rank) {
      Comm comm{&tr,   rank, world, /*tag_base=*/0, /*timeout_ms=*/0,
                &pool, /*pipeline_depth=*/4};
      EXPECT_TRUE(
          RingAllReduce(comm, data[static_cast<std::size_t>(rank)],
                        ReduceOp::kSum).ok());
    });
    EXPECT_EQ(tr.TotalMessages(),
              static_cast<std::uint64_t>(world) * 2 * (world - 1) * 4);
  }
  {
    transport::InProcTransport tr(world);
    auto data = MakeRankData(world, 6, 22);  // 1-float chunks: d_eff = 1
    RunAllRanks(world, [&](int rank) {
      Comm comm{&tr,   rank, world, /*tag_base=*/0, /*timeout_ms=*/0,
                &pool, /*pipeline_depth=*/8};
      EXPECT_TRUE(
          RingAllReduce(comm, data[static_cast<std::size_t>(rank)],
                        ReduceOp::kSum).ok());
    });
    EXPECT_EQ(tr.TotalMessages(),
              static_cast<std::uint64_t>(world) * 2 * (world - 1));
  }
}

// ------------------------------------------------ bit-packed sync rounds --

TEST(ReduceOpTest, BitAndIsExactBitwiseIntersection) {
  // Arbitrary 32-bit lane patterns — quiet/signalling NaNs, denormals, -0,
  // all-ones — must AND exactly: no lane may be canonicalized on the way
  // through Accumulate.
  const std::uint32_t pa[] = {0xFFFFFFFFu, 0x7FC00001u, 0x7F800001u,
                              0x00000001u, 0x80000000u, 0xDEADBEEFu,
                              0x00000000u, 0x3F800000u, 0x00400000u,
                              0xFFFFFFFFu, 0x12345678u};
  const std::uint32_t pb[] = {0x12345678u, 0xFFC00003u, 0xFF800001u,
                              0x00000003u, 0xFFFFFFFFu, 0xBEEFDEADu,
                              0xFFFFFFFFu, 0x3F800000u, 0x00C00000u,
                              0x7FFFFFFFu, 0x87654321u};
  const std::size_t n = std::size(pa);  // > 8: vector body plus scalar tail
  std::vector<float> a(n);
  std::vector<float> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = std::bit_cast<float>(pa[i]);
    b[i] = std::bit_cast<float>(pb[i]);
  }
  Accumulate(a, b, ReduceOp::kBitAnd);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(a[i]), pa[i] & pb[i])
        << "lane " << i;
  }
}

TEST(ThreadedCollectiveTest, PackedSyncBitsMatchLegacyMinEncoding) {
  // The bit-packed sync round (kBitAnd over 32-bit lanes) must compute the
  // exact readiness intersection the legacy one-float-per-gradient kMin
  // encoding did, while moving 1/32 the payload bytes per round.
  const int world = 4;
  const std::size_t n_bits = 2048;  // divisible by 32: exact 32x shrink
  Rng rng(97531);
  std::vector<BitVector> ready(static_cast<std::size_t>(world),
                               BitVector(n_bits));
  std::vector<std::vector<float>> legacy(
      static_cast<std::size_t>(world), std::vector<float>(n_bits));
  for (int r = 0; r < world; ++r) {
    for (std::size_t i = 0; i < n_bits; ++i) {
      const bool bit = rng.Uniform(0.0, 1.0) < 0.8;
      ready[static_cast<std::size_t>(r)].Assign(i, bit);
      legacy[static_cast<std::size_t>(r)][i] = bit ? 1.0f : 0.0f;
    }
  }

  transport::InProcTransport legacy_tr(world);
  RunAllRanks(world, [&](int rank) {
    Comm comm{&legacy_tr, rank, world, 0};
    EXPECT_TRUE(RingAllReduce(comm, legacy[static_cast<std::size_t>(rank)],
                              ReduceOp::kMin)
                    .ok());
  });

  const std::size_t words = core::SyncWordCount(n_bits);
  ASSERT_EQ(words, n_bits / 32);
  std::vector<std::vector<float>> packed(
      static_cast<std::size_t>(world), std::vector<float>(words));
  transport::InProcTransport packed_tr(world);
  RunAllRanks(world, [&](int rank) {
    const auto r = static_cast<std::size_t>(rank);
    core::PackSyncBits(ready[r], packed[r]);
    Comm comm{&packed_tr, rank, world, 0};
    EXPECT_TRUE(RingAllReduce(comm, packed[r], ReduceOp::kBitAnd).ok());
  });

  for (int r = 0; r < world; ++r) {
    for (std::size_t i = 0; i < n_bits; ++i) {
      ASSERT_EQ(core::SyncBitSet(packed[static_cast<std::size_t>(r)], i),
                legacy[static_cast<std::size_t>(r)][i] == 1.0f)
          << "rank " << r << " bit " << i;
    }
  }
  // Same message count, 1/32 the floats per message: exactly 32x fewer
  // payload bytes over the wire.
  EXPECT_EQ(legacy_tr.TotalMessages(), packed_tr.TotalMessages());
  EXPECT_EQ(legacy_tr.TotalPayloadBytes(),
            32 * packed_tr.TotalPayloadBytes());
}

// ------------------------------------------- gather: completion-order drain

/// Transport decorator recording, per receiving rank, the source order of
/// successful receives — lets the test observe which peer the Gather root
/// actually consumed first.
class RecvOrderRecorder final : public transport::Transport {
 public:
  explicit RecvOrderRecorder(transport::Transport& inner) : inner_(inner) {}

  [[nodiscard]] int world_size() const noexcept override {
    return inner_.world_size();
  }
  void Send(int src, int dst, int tag, transport::Payload payload) override {
    inner_.Send(src, dst, tag, std::move(payload));
  }
  Result<transport::Payload> Recv(int rank, int src, int tag) override {
    auto result = inner_.Recv(rank, src, tag);
    if (result.ok()) Record(rank, src);
    return result;
  }
  Result<transport::Payload> RecvFor(
      int rank, int src, int tag, std::chrono::milliseconds timeout) override {
    auto result = inner_.RecvFor(rank, src, tag, timeout);
    if (result.ok()) Record(rank, src);
    return result;
  }
  std::optional<transport::Payload> TryRecv(int rank, int src,
                                            int tag) override {
    auto result = inner_.TryRecv(rank, src, tag);
    if (result.has_value()) Record(rank, src);
    return result;
  }
  void Shutdown() override { inner_.Shutdown(); }
  [[nodiscard]] bool IsShutdown() const noexcept override {
    return inner_.IsShutdown();
  }
  Status Barrier() override { return inner_.Barrier(); }
  [[nodiscard]] std::uint64_t TotalMessages() const override {
    return inner_.TotalMessages();
  }

  std::vector<int> OrderAtRank(int rank) const {
    common::MutexLock lock(mu_);
    std::vector<int> order;
    for (const auto& [r, src] : receives_) {
      if (r == rank) order.push_back(src);
    }
    return order;
  }

 private:
  void Record(int rank, int src) {
    common::MutexLock lock(mu_);
    receives_.emplace_back(rank, src);
  }

  transport::Transport& inner_;
  mutable common::Mutex mu_{"test-recv-order"};
  std::vector<std::pair<int, int>> receives_ GUARDED_BY(mu_);
};

TEST(GatherOrderTest, RootDrainsPeersInCompletionOrder) {
  // Rank 1 is a straggler: it enters the gather ~80ms late. A root that
  // drains peers in rank order would sit blocked on rank 1 the whole time;
  // the completion-order drain must consume rank 2's ready contribution
  // first.
  const int world = 3;
  const std::size_t len = 16;
  transport::InProcTransport inner(world);
  RecvOrderRecorder tr(inner);
  const auto data = MakeRankData(world, len, 808);
  std::vector<float> gathered(len * world);
  RunAllRanks(world, [&](int rank) {
    if (rank == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(80));
    }
    Comm comm{&tr, rank, world, 0};
    std::span<float> out =
        rank == 0 ? std::span<float>(gathered) : std::span<float>();
    EXPECT_TRUE(
        Gather(comm, /*root=*/0,
               data[static_cast<std::size_t>(rank)], out)
            .ok());
  });
  for (int r = 0; r < world; ++r) {
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_EQ(gathered[static_cast<std::size_t>(r) * len + i],
                data[static_cast<std::size_t>(r)][i]);
    }
  }
  EXPECT_EQ(tr.OrderAtRank(0), (std::vector<int>{2, 1}));
}

}  // namespace
}  // namespace aiacc::collective
