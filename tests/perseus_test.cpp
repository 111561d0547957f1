// Direct tests of the Perseus public API (the Horovod-compatible surface of
// §IV): rank/size, all-reduce ops and channel counts, fp16 all-reduce,
// parameter broadcast, barriers, tag lockstep across mixed operation
// sequences, and NaN-skip behaviour.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "core/perseus.h"

namespace aiacc::perseus {
namespace {

TEST(PerseusTest, RankAndSize) {
  std::atomic<int> rank_sum{0};
  RunRanks(4, [&](Session& s) {
    EXPECT_EQ(s.size(), 4);
    rank_sum.fetch_add(s.rank());
  });
  EXPECT_EQ(rank_sum.load(), 0 + 1 + 2 + 3);
}

TEST(PerseusTest, AllReduceAveragesByDefault) {
  const int world = 3;
  std::vector<std::vector<float>> data(world);
  RunRanks(world, [&](Session& s) {
    std::vector<float> v = {static_cast<float>(s.rank()),
                            static_cast<float>(s.rank() * 10)};
    s.AllReduce(v);
    data[static_cast<std::size_t>(s.rank())] = v;
  });
  for (int r = 0; r < world; ++r) {
    EXPECT_FLOAT_EQ(data[static_cast<std::size_t>(r)][0], 1.0f);   // (0+1+2)/3
    EXPECT_FLOAT_EQ(data[static_cast<std::size_t>(r)][1], 10.0f);
  }
}

TEST(PerseusTest, AllReduceSumMinMax) {
  const int world = 4;
  std::vector<float> sums(world), mins(world), maxs(world);
  RunRanks(world, [&](Session& s) {
    std::vector<float> a = {static_cast<float>(s.rank() + 1)};
    s.AllReduce(a, 2, collective::ReduceOp::kSum);
    sums[static_cast<std::size_t>(s.rank())] = a[0];
    std::vector<float> b = {static_cast<float>(s.rank() + 1)};
    s.AllReduce(b, 2, collective::ReduceOp::kMin);
    mins[static_cast<std::size_t>(s.rank())] = b[0];
    std::vector<float> c = {static_cast<float>(s.rank() + 1)};
    s.AllReduce(c, 2, collective::ReduceOp::kMax);
    maxs[static_cast<std::size_t>(s.rank())] = c[0];
  });
  for (int r = 0; r < world; ++r) {
    EXPECT_FLOAT_EQ(sums[static_cast<std::size_t>(r)], 10.0f);
    EXPECT_FLOAT_EQ(mins[static_cast<std::size_t>(r)], 1.0f);
    EXPECT_FLOAT_EQ(maxs[static_cast<std::size_t>(r)], 4.0f);
  }
}

TEST(PerseusTest, MixedOperationSequenceStaysInLockstep) {
  // Interleave all-reduces with different channel counts, broadcasts and
  // barriers: tag namespaces must never collide (the regression this guards
  // is cross-operation message mismatch).
  const int world = 4;
  std::vector<float> results(world, 0.0f);
  RunRanks(world, [&](Session& s) {
    Rng rng(5);  // same on all ranks
    float acc = 0.0f;
    for (int round = 0; round < 10; ++round) {
      const int channels = 1 + static_cast<int>(rng.UniformInt(0, 3));
      std::vector<float> v(64, static_cast<float>(s.rank() + round));
      s.AllReduce(v, channels);
      acc += v[0];
      if (round % 3 == 0) {
        std::vector<float> p(16, static_cast<float>(s.rank()));
        std::vector<std::span<float>> params;
        params.emplace_back(p);
        s.BroadcastParameters(params, /*root=*/round % world);
        acc += p[0];  // == root's rank
      }
      if (round % 4 == 0) s.Barrier();
    }
    results[static_cast<std::size_t>(s.rank())] = acc;
  });
  for (int r = 1; r < world; ++r) {
    EXPECT_FLOAT_EQ(results[static_cast<std::size_t>(r)], results[0]);
  }
}

TEST(PerseusTest, Fp16AllReduceQuantizesButAverages) {
  const int world = 2;
  std::vector<std::vector<float>> data(world);
  RunRanks(world, [&](Session& s) {
    // 0.1 is not representable in binary16: expect avg of quantized values.
    std::vector<float> v = {0.1f, 2048.5f};
    s.AllReduceFp16(v);
    data[static_cast<std::size_t>(s.rank())] = v;
  });
  EXPECT_EQ(data[0], data[1]);
  EXPECT_NEAR(data[0][0], 0.1f, 0.1f / 1000.0f);
  EXPECT_NE(data[0][0], 0.1f);           // quantization visible
  EXPECT_FLOAT_EQ(data[0][1], 2048.0f);  // 2048.5 rounds to 2048 in half
}

TEST(PerseusTest, Fp16AllReduceHalvesWireBytes) {
  // Every ring hop ships packed halves. 4096 floats keep every chunk even,
  // so each hop's wire is exactly half its fp32 size (a 1-element chunk
  // would still take one whole wire word).
  const int world = 2;
  auto wire_bytes = [&](bool fp16) {
    auto context = std::make_shared<Context>(world);
    std::vector<std::thread> threads;
    for (int r = 0; r < world; ++r) {
      threads.emplace_back([&context, fp16, r] {
        Session s(context, r);
        std::vector<float> v(4096, 0.5f + static_cast<float>(r));
        if (fp16) {
          s.AllReduceFp16(v);
        } else {
          s.AllReduce(v);
        }
      });
    }
    for (auto& t : threads) t.join();
    return context->transport().TotalPayloadBytes();
  };
  const std::uint64_t fp32_bytes = wire_bytes(false);
  EXPECT_EQ(fp32_bytes, 32768u);  // 2 ranks x 2 hops x 2048 floats x 4 B
  EXPECT_EQ(wire_bytes(true), fp32_bytes / 2);
}

TEST(PerseusTest, BroadcastParametersMultiTensor) {
  const int world = 3;
  // Not vector<bool>: rank threads write distinct indices concurrently, and
  // bit-packing would make those writes share a word.
  std::vector<char> ok(world, 0);
  RunRanks(world, [&](Session& s) {
    std::vector<float> t0(8, static_cast<float>(s.rank()));
    std::vector<float> t1(3, static_cast<float>(s.rank() * 100));
    std::vector<std::span<float>> params;
    params.emplace_back(t0);
    params.emplace_back(t1);
    s.BroadcastParameters(params, /*root=*/2);
    bool good = true;
    for (float v : t0) good &= v == 2.0f;
    for (float v : t1) good &= v == 200.0f;
    ok[static_cast<std::size_t>(s.rank())] = good;
  });
  for (int r = 0; r < world; ++r) EXPECT_TRUE(ok[static_cast<std::size_t>(r)]);
}

TEST(PerseusTest, NanSkipKeepsRanksAligned) {
  // One tensor has a NaN: aggregation is skipped on every rank (all see the
  // same data) and a subsequent clean all-reduce still works — tags stayed
  // aligned.
  const int world = 2;
  std::vector<float> after(world);
  RunRanks(world, [&](Session& s) {
    std::vector<float> bad = {std::nanf(""), 1.0f};
    std::vector<std::span<float>> grads;
    grads.emplace_back(bad);
    auto report = s.AllReduceGradients(grads);
    EXPECT_FALSE(report.Clean());
    std::vector<float> good = {static_cast<float>(s.rank())};
    s.AllReduce(good);
    after[static_cast<std::size_t>(s.rank())] = good[0];
  });
  EXPECT_FLOAT_EQ(after[0], 0.5f);
  EXPECT_FLOAT_EQ(after[1], 0.5f);
}

TEST(PerseusTest, SingleRankWorld) {
  RunRanks(1, [&](Session& s) {
    std::vector<float> v = {3.0f};
    s.AllReduce(v);
    EXPECT_FLOAT_EQ(v[0], 3.0f);
    s.Barrier();
  });
}

TEST(PerseusTest, LargeTensorManyChannels) {
  const int world = 4;
  const std::size_t len = 100000;
  std::vector<double> checksums(world);
  RunRanks(world, [&](Session& s) {
    Rng rng(static_cast<std::uint64_t>(s.rank()) + 1);
    std::vector<float> v(len);
    for (float& x : v) x = static_cast<float>(rng.Uniform(-1, 1));
    s.AllReduce(v, /*num_channels=*/8);
    double sum = 0.0;
    for (float x : v) sum += x;
    checksums[static_cast<std::size_t>(s.rank())] = sum;
  });
  for (int r = 1; r < world; ++r) {
    EXPECT_DOUBLE_EQ(checksums[static_cast<std::size_t>(r)], checksums[0]);
  }
}

}  // namespace
}  // namespace aiacc::perseus
