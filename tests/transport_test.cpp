// In-process transport tests: (src, tag) matching, FIFO per channel,
// blocking receive semantics, barrier, shutdown, and concurrent stress.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "transport/inproc.h"

namespace aiacc::transport {
namespace {

TEST(InProcTransportTest, DeliversToMatchingSourceAndTag) {
  InProcTransport tr(3);
  tr.Send(0, 2, /*tag=*/7, {1.0f});
  tr.Send(1, 2, /*tag=*/7, {2.0f});
  tr.Send(0, 2, /*tag=*/9, {3.0f});
  EXPECT_EQ((*tr.Recv(2, 0, 7))[0], 1.0f);
  EXPECT_EQ((*tr.Recv(2, 1, 7))[0], 2.0f);
  EXPECT_EQ((*tr.Recv(2, 0, 9))[0], 3.0f);
}

TEST(InProcTransportTest, FifoWithinChannel) {
  InProcTransport tr(2);
  for (int i = 0; i < 100; ++i) {
    tr.Send(0, 1, 0, {static_cast<float>(i)});
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ((*tr.Recv(1, 0, 0))[0], static_cast<float>(i));
  }
}

TEST(InProcTransportTest, RecvBlocksUntilSend) {
  InProcTransport tr(2);
  std::atomic<bool> got{false};
  std::thread receiver([&] {
    auto p = tr.Recv(1, 0, 5);
    ASSERT_TRUE(p.ok());
    got.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  tr.Send(0, 1, 5, {42.0f});
  receiver.join();
  EXPECT_TRUE(got.load());
}

TEST(InProcTransportTest, DifferentTagsDoNotCross) {
  InProcTransport tr(2);
  tr.Send(0, 1, /*tag=*/1, {1.0f});
  std::atomic<bool> wrong_tag_received{false};
  std::thread receiver([&] {
    auto p = tr.Recv(1, 0, /*tag=*/2);  // must NOT match tag 1
    if (p.ok()) wrong_tag_received.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(wrong_tag_received.load());
  tr.Shutdown();
  receiver.join();
  EXPECT_FALSE(wrong_tag_received.load());
}

TEST(InProcTransportTest, ShutdownUnblocksReceivers) {
  InProcTransport tr(2);
  std::thread receiver([&] {
    auto p = tr.Recv(1, 0, 0);
    EXPECT_FALSE(p.ok());
    EXPECT_EQ(p.status().code(), StatusCode::kUnavailable);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  tr.Shutdown();
  receiver.join();
}

TEST(InProcTransportTest, BarrierSynchronizesAllRanks) {
  const int world = 4;
  InProcTransport tr(world);
  std::atomic<int> before{0};
  std::atomic<int> after{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&] {
      before.fetch_add(1);
      EXPECT_TRUE(tr.Barrier().ok());
      // Every rank must observe all `before` increments post-barrier.
      EXPECT_EQ(before.load(), world);
      after.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(after.load(), world);
}

TEST(InProcTransportTest, BarrierReusable) {
  const int world = 3;
  InProcTransport tr(world);
  std::atomic<int> sum{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        sum.fetch_add(1);
        EXPECT_TRUE(tr.Barrier().ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(sum.load(), world * 10);
}

TEST(InProcTransportTest, RecvForTimesOutOnSilence) {
  InProcTransport tr(2);
  const auto t0 = std::chrono::steady_clock::now();
  auto p = tr.RecvFor(1, 0, 0, std::chrono::milliseconds(30));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(elapsed, std::chrono::milliseconds(25));
}

TEST(InProcTransportTest, RecvForDeliversWithinDeadline) {
  InProcTransport tr(2);
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    tr.Send(0, 1, 3, {7.0f});
  });
  auto p = tr.RecvFor(1, 0, 3, std::chrono::milliseconds(2000));
  sender.join();
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)[0], 7.0f);
}

TEST(InProcTransportTest, RecvForShutdownBeatsDeadline) {
  InProcTransport tr(2);
  std::thread receiver([&] {
    auto p = tr.RecvFor(1, 0, 0, std::chrono::milliseconds(10000));
    EXPECT_FALSE(p.ok());
    EXPECT_EQ(p.status().code(), StatusCode::kUnavailable);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  tr.Shutdown();
  receiver.join();
}

TEST(InProcTransportTest, TryRecvNeverBlocks) {
  InProcTransport tr(2);
  EXPECT_FALSE(tr.TryRecv(1, 0, 0).has_value());
  tr.Send(0, 1, 0, {1.0f});
  tr.Send(0, 1, 0, {2.0f});
  auto first = tr.TryRecv(1, 0, 0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ((*first)[0], 1.0f);
  auto second = tr.TryRecv(1, 0, 0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ((*second)[0], 2.0f);
  EXPECT_FALSE(tr.TryRecv(1, 0, 0).has_value());
}

TEST(InProcTransportTest, BarrierReturnsUnavailableOnShutdown) {
  const int world = 3;
  InProcTransport tr(world);
  // Only 2 of 3 ranks arrive: the barrier cannot complete, so Shutdown must
  // wake the waiters with a non-OK status (not a spurious "success").
  std::vector<std::thread> threads;
  std::atomic<int> non_ok{0};
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      const Status st = tr.Barrier();
      if (!st.ok()) {
        EXPECT_EQ(st.code(), StatusCode::kUnavailable);
        non_ok.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  tr.Shutdown();
  for (auto& t : threads) t.join();
  EXPECT_EQ(non_ok.load(), 2);
}

TEST(InProcTransportTest, MessageCounter) {
  InProcTransport tr(2);
  EXPECT_EQ(tr.TotalMessages(), 0u);
  tr.Send(0, 1, 0, {});
  tr.Send(1, 0, 0, {});
  EXPECT_EQ(tr.TotalMessages(), 2u);
}

TEST(InProcTransportTest, ReceiveAndByteCountersCoverBothRecvPaths) {
  InProcTransport tr(2);
  tr.Send(0, 1, 0, {1.0f, 2.0f, 3.0f});
  tr.Send(0, 1, 0, {4.0f});
  EXPECT_EQ(tr.TotalPayloadBytes(), 4 * sizeof(float));
  EXPECT_EQ(tr.wake_counters().receives, 0u);
  // TryRecv must account for a delivery exactly like the blocking path (it
  // used to skip the counters entirely).
  ASSERT_TRUE(tr.TryRecv(1, 0, 0).has_value());
  EXPECT_EQ(tr.wake_counters().receives, 1u);
  ASSERT_TRUE(tr.Recv(1, 0, 0).ok());
  EXPECT_EQ(tr.wake_counters().receives, 2u);
  // An empty-handed TryRecv is not a delivery.
  EXPECT_FALSE(tr.TryRecv(1, 0, 0).has_value());
  EXPECT_EQ(tr.wake_counters().receives, 2u);
  // Bytes are counted on the send side; receiving does not change them.
  EXPECT_EQ(tr.TotalPayloadBytes(), 4 * sizeof(float));
}

TEST(InProcTransportTest, ConcurrentStress) {
  // Two rank pairs exchange on independent channels concurrently; all
  // payload sums must survive.
  InProcTransport tr(4);
  constexpr int kMessages = 2000;
  std::vector<std::thread> threads;
  std::atomic<long long> received_sum{0};
  for (int pair = 0; pair < 2; ++pair) {
    const int sender = pair * 2;
    const int receiver = pair * 2 + 1;
    threads.emplace_back([&tr, sender, receiver] {
      for (int i = 0; i < kMessages; ++i) {
        tr.Send(sender, receiver, i % 4, {static_cast<float>(i)});
      }
    });
    threads.emplace_back([&tr, sender, receiver, &received_sum] {
      long long sum = 0;
      // Per-tag FIFOs: drain each tag's expected share.
      for (int tag = 0; tag < 4; ++tag) {
        for (int i = 0; i < kMessages / 4; ++i) {
          auto p = tr.Recv(receiver, sender, tag);
          ASSERT_TRUE(p.ok());
          sum += static_cast<long long>((*p)[0]);
        }
      }
      received_sum.fetch_add(sum);
    });
  }
  for (auto& t : threads) t.join();
  const long long expected =
      2LL * (static_cast<long long>(kMessages) * (kMessages - 1) / 2);
  EXPECT_EQ(received_sum.load(), expected);
}

// ------------------------------------------------------- wakeup protocol --

TEST(WakeupTest, TargetedSendWakesOnlyTheMatchingReceiver) {
  InProcTransport tr(2);
  constexpr int kReceivers = 3;
  std::vector<std::thread> receivers;
  for (int tag = 0; tag < kReceivers; ++tag) {
    receivers.emplace_back([&tr, tag] {
      auto p = tr.Recv(1, 0, tag);
      ASSERT_TRUE(p.ok());
      EXPECT_EQ((*p)[0], static_cast<float>(tag));
    });
  }
  // Let all three receivers block on their private slot CVs, then deliver
  // to just one tag: only that receiver may wake.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  tr.Send(0, 1, /*tag=*/1, {1.0f});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(tr.wake_counters().futile_wakeups, 0u);
  tr.Send(0, 1, /*tag=*/0, {0.0f});
  tr.Send(0, 1, /*tag=*/2, {2.0f});
  for (auto& t : receivers) t.join();
  const auto counters = tr.wake_counters();
  EXPECT_EQ(counters.notifies, 3u);
  EXPECT_EQ(counters.futile_wakeups, 0u);
}

}  // namespace
}  // namespace aiacc::transport
