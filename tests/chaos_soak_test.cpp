// Chaos-soak: long randomized fault schedules driven through the whole
// three-tier fault stack — tier 1 in-band retransmission
// (transport/reliable.h), tier 2 channel quarantine / rebalance / probation
// (collective/channel_health.h), tier 2.5 engine degradation + unit retries
// (core/degradation.h, threaded_engine.cpp) — asserting bit-exact results
// throughout, with *no* checkpoint recovery involved.
//
// Every schedule is seeded; when a soak cell fails, its FaultSpec is
// serialized to JSON (AIACC_FAULT_DUMP_DIR or the test temp dir) so the
// exact schedule replays under a debugger via transport/fault_schedule.h.
// The seed sweep is bounded by AIACC_CHAOS_SEEDS (CI sets it).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "collective/channel_health.h"
#include "collective/tags.h"
#include "collective/threaded.h"
#include "common/rng.h"
#include "core/degradation.h"
#include "core/threaded_engine.h"
#include "transport/fault_schedule.h"
#include "transport/faulty.h"
#include "transport/inproc.h"
#include "transport/reliable.h"
#include "transport/stack.h"

namespace aiacc {
namespace {

using collective::ChannelHealthTracker;
using collective::ChannelTagBase;
using collective::MultiChannelAllReduce;
using core::CommConfig;
using core::DegradationController;
using core::FailureConfig;
using core::ThreadedAiaccEngine;
using transport::FaultDelivery;
using transport::FaultSpec;
using transport::FaultyTransport;
using transport::InProcTransport;
using transport::LinkFaults;
using transport::ReliableOptions;
using transport::ReliableTransport;
using transport::TagFaults;
using transport::TracingOptions;
using transport::Transport;
using transport::TransportStack;

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atoi(v);
}

/// Serialize a failing cell's schedule for replay and point at it from the
/// test output (CI uploads the dump dir as an artifact).
void DumpSchedule(const FaultSpec& spec, const std::string& cell) {
  const char* dir = std::getenv("AIACC_FAULT_DUMP_DIR");
  const std::string path = (dir != nullptr && *dir != '\0'
                                ? std::string(dir) + "/"
                                : ::testing::TempDir()) +
                           "fault_schedule_" + cell + ".json";
  const Status st = transport::WriteFaultSchedule(path, spec);
  ADD_FAILURE() << "chaos cell '" << cell << "' failed; schedule "
                << (st.ok() ? "saved to " + path
                            : "dump failed: " + st.ToString());
}

std::vector<std::vector<float>> MakeRankData(int world, std::size_t len,
                                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> data(static_cast<std::size_t>(world));
  for (auto& v : data) {
    v.resize(len);
    for (float& x : v) x = static_cast<float>(rng.Uniform(-6.0, 6.0));
  }
  return data;
}

/// One soak cell: `iters` health-tracked multi-channel all-reduces over the
/// given transport, each compared bit-exactly against the same sequence on
/// a clean transport. Returns false on any mismatch or non-OK status.
bool RunTrackedSequence(transport::Transport& tr, int world, int channels,
                        int depth, int iters, std::uint64_t data_seed,
                        std::int64_t timeout_ms) {
  ChannelHealthTracker::Options hopt;
  hopt.world_size = world;
  ChannelHealthTracker health(hopt);
  std::atomic<bool> all_ok{true};
  for (int it = 0; it < iters && all_ok.load(); ++it) {
    auto ref = MakeRankData(world, 2048, data_seed + static_cast<std::uint64_t>(it));
    {
      InProcTransport clean(world);
      ChannelHealthTracker::Options copt;
      copt.world_size = world;
      ChannelHealthTracker clean_health(copt);
      std::vector<std::thread> threads;
      for (int r = 0; r < world; ++r) {
        threads.emplace_back([&, r] {
          collective::Comm comm{&clean, r, world, collective::kSyncTag, 0};
          comm.pipeline_depth = depth;
          const Status st =
              MultiChannelAllReduce(comm, ref[static_cast<std::size_t>(r)],
                                    collective::ReduceOp::kAvg, channels,
                                    &clean_health);
          if (!st.ok()) all_ok.store(false);
        });
      }
      for (auto& t : threads) t.join();
    }
    auto data =
        MakeRankData(world, 2048, data_seed + static_cast<std::uint64_t>(it));
    std::vector<std::thread> threads;
    for (int r = 0; r < world; ++r) {
      threads.emplace_back([&, r] {
        collective::Comm comm{&tr, r, world, collective::kSyncTag, timeout_ms};
        comm.pipeline_depth = depth;
        const Status st =
            MultiChannelAllReduce(comm, data[static_cast<std::size_t>(r)],
                                  collective::ReduceOp::kAvg, channels,
                                  &health);
        if (!st.ok()) all_ok.store(false);
      });
    }
    for (auto& t : threads) t.join();
    if (data != ref) all_ok.store(false);
  }
  return all_ok.load();
}

// ------------------------------------------------------- the soak matrix --

TEST(ChaosSoakTest, CollectiveSoakMatrix) {
  const int seeds = EnvInt("AIACC_CHAOS_SEEDS", 2);
  const int world = 3;
  const struct {
    int channels;
    int depth;
  } shapes[] = {{1, 1}, {2, 4}, {4, 8}};
  for (int s = 0; s < seeds; ++s) {
    for (const double rate : {0.002, 0.01, 0.05}) {
      for (const auto& shape : shapes) {
        FaultSpec spec;
        spec.seed = 9000 + static_cast<std::uint64_t>(s) * 131 +
                    static_cast<std::uint64_t>(rate * 1000) * 7 +
                    static_cast<std::uint64_t>(shape.channels);
        spec.all_links.drop_prob = rate;
        spec.all_links.dup_prob = rate;
        spec.all_links.reorder_prob = rate;
        spec.all_links.corrupt_prob = rate / 4.0;
        TransportStack stack(world, spec, ReliableOptions{});
        ReliableTransport& rel = *stack.reliable();
        if (!RunTrackedSequence(rel, world, shape.channels, shape.depth,
                                /*iters=*/4, /*data_seed=*/spec.seed,
                                /*timeout_ms=*/30000)) {
          DumpSchedule(spec, "soak_s" + std::to_string(s) + "_r" +
                                 std::to_string(rate) + "_c" +
                                 std::to_string(shape.channels) + "_d" +
                                 std::to_string(shape.depth));
          return;
        }
      }
    }
  }
}

// ------------------------------------- quarantine / probation lifecycle --

// A channel whose tag window goes 100% lossy mid-run is retried in-call
// (correct results throughout), quarantined after repeated failures (plans
// exclude it; its chunks rebalance onto survivors), and — once the faults
// clear — re-admitted through probation.
TEST(ChaosSoakTest, QuarantineAndReadmissionMidRun) {
  const int world = 2;
  const int channels = 3;
  const std::size_t len = 960;
  InProcTransport inner(world);
  FaultSpec spec;  // strict delivery: loss surfaces as a recv deadline
  spec.seed = 31;
  FaultyTransport faulty(inner, spec);

  ChannelHealthTracker::Options hopt;
  hopt.world_size = world;
  hopt.initial_cooldown = 1;
  hopt.probation_successes = 1;
  ChannelHealthTracker health(hopt);

  // Kill channel 1's tags (never channel 0: it is quarantine-exempt). A
  // failed channel relocates to a fresh epoch home per agreed failure, so a
  // fault that models a *persistently bad channel* — not a poisoned tag —
  // must cover its home at every epoch it can reach during the window.
  std::vector<TagFaults> windows;
  auto kill = [&](int lo) {
    TagFaults w;
    w.tag_lo = lo;
    w.tag_hi = lo + collective::kTagsPerCollective - 1;
    w.faults.drop_prob = 1.0;
    windows.push_back(w);
  };
  kill(ChannelTagBase(collective::kSyncTag, 1));
  for (int epoch = 1; epoch <= 16; ++epoch) {
    kill(collective::ChannelEpochTagBase(1, epoch));
  }
  faulty.SetDynamicTagFaults(windows);

  bool saw_quarantine = false;
  auto one_round = [&](int it) {
    auto ref = MakeRankData(world, len, 500 + static_cast<std::uint64_t>(it));
    auto data = ref;
    // Expected: plain average (kAvg over identical per-rank data layouts is
    // deterministic; compute the reference on a clean transport).
    {
      InProcTransport clean(world);
      std::vector<std::thread> threads;
      for (int r = 0; r < world; ++r) {
        threads.emplace_back([&, r] {
          collective::Comm comm{&clean, r, world, collective::kSyncTag, 0};
          const Status st =
              MultiChannelAllReduce(comm, ref[static_cast<std::size_t>(r)],
                                    collective::ReduceOp::kAvg, channels);
          EXPECT_TRUE(st.ok()) << st.ToString();
        });
      }
      for (auto& t : threads) t.join();
    }
    std::vector<std::thread> threads;
    for (int r = 0; r < world; ++r) {
      threads.emplace_back([&, r] {
        collective::Comm comm{&faulty, r, world, collective::kSyncTag, 250};
        const Status st =
            MultiChannelAllReduce(comm, data[static_cast<std::size_t>(r)],
                                  collective::ReduceOp::kAvg, channels,
                                  &health);
        EXPECT_TRUE(st.ok()) << "iteration " << it << ": " << st.ToString();
      });
    }
    for (auto& t : threads) t.join();
    // The retry path restores a failed channel's chunk from the snapshot
    // and re-runs it on a fresh namespace: results stay exact even while
    // the channel is actively failing.
    EXPECT_EQ(data, ref) << "iteration " << it;
  };

  for (int it = 0; it < 4; ++it) {
    one_round(it);
    if (health.states()[1].state ==
        ChannelHealthTracker::ChannelState::kQuarantined) {
      saw_quarantine = true;
      break;
    }
  }
  EXPECT_TRUE(saw_quarantine) << "persistent failures never quarantined";

  // Heal the channel; quarantine cooldown -> probation -> full re-admission.
  faulty.ClearDynamicTagFaults();
  bool readmitted = false;
  for (int it = 10; it < 22 && !readmitted; ++it) {
    one_round(it);
    readmitted = health.states()[1].state ==
                 ChannelHealthTracker::ChannelState::kHealthy;
  }
  EXPECT_TRUE(readmitted) << "healed channel never re-admitted";
}

// Quarantine / re-admission decisions racing in-flight slices: a toggler
// thread flips a channel's fault window every few milliseconds while the
// ranks hammer health-tracked collectives. Exercises the tracker's
// plan/report rendezvous against concurrent ring traffic under TSan.
TEST(ChaosSoakTest, QuarantineRaceStress) {
  const int world = 3;
  const int channels = 4;
  const std::size_t len = 512;
  InProcTransport inner(world);
  FaultSpec spec;
  spec.seed = 57;
  FaultyTransport faulty(inner, spec);
  ChannelHealthTracker::Options hopt;
  hopt.world_size = world;
  hopt.initial_cooldown = 1;
  hopt.probation_successes = 1;
  ChannelHealthTracker health(hopt);

  // Follow channel 2 across the epoch homes it relocates to as it fails.
  std::vector<TagFaults> windows;
  auto kill = [&](int lo) {
    TagFaults w;
    w.tag_lo = lo;
    w.tag_hi = lo + collective::kTagsPerCollective - 1;
    w.faults.drop_prob = 1.0;
    windows.push_back(w);
  };
  kill(ChannelTagBase(collective::kSyncTag, 2));
  for (int epoch = 1; epoch <= 32; ++epoch) {
    kill(collective::ChannelEpochTagBase(2, epoch));
  }

  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    bool on = false;
    while (!stop.load()) {
      on = !on;
      if (on) {
        faulty.SetDynamicTagFaults(windows);
      } else {
        faulty.ClearDynamicTagFaults();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });

  const int iters = 25;
  for (int it = 0; it < iters; ++it) {
    auto data = MakeRankData(world, len, 700 + static_cast<std::uint64_t>(it));
    auto ref = data;
    {
      InProcTransport clean(world);
      std::vector<std::thread> threads;
      for (int r = 0; r < world; ++r) {
        threads.emplace_back([&, r] {
          collective::Comm comm{&clean, r, world, collective::kSyncTag, 0};
          const Status st =
              MultiChannelAllReduce(comm, ref[static_cast<std::size_t>(r)],
                                    collective::ReduceOp::kAvg, channels);
          EXPECT_TRUE(st.ok()) << st.ToString();
        });
      }
      for (auto& t : threads) t.join();
    }
    std::vector<std::thread> threads;
    for (int r = 0; r < world; ++r) {
      threads.emplace_back([&, r] {
        collective::Comm comm{&faulty, r, world, collective::kSyncTag, 150};
        const Status st =
            MultiChannelAllReduce(comm, data[static_cast<std::size_t>(r)],
                                  collective::ReduceOp::kAvg, channels,
                                  &health);
        EXPECT_TRUE(st.ok()) << "iteration " << it << ": " << st.ToString();
      });
    }
    for (auto& t : threads) t.join();
    // Quarantine rebalances chunks onto the survivors, which regroups the
    // ring reductions — so the result may differ from the fixed-plan clean
    // reference by rounding, but never by more, and every rank must agree
    // on it bit-exactly.
    for (int r = 1; r < world; ++r) {
      EXPECT_EQ(data[static_cast<std::size_t>(r)], data[0])
          << "iteration " << it << ": ranks 0 and " << r << " diverged";
    }
    int off = 0;
    for (std::size_t i = 0; i < len; ++i) {
      const float want = ref[0][i];
      const float tol = 1e-4f * std::max(1.0f, std::abs(want));
      if (std::abs(data[0][i] - want) > tol) ++off;
    }
    EXPECT_EQ(off, 0) << "iteration " << it
                      << ": values beyond rounding tolerance";
  }
  stop.store(true);
  toggler.join();
}

// ------------------------------------------------- engine through chaos --

/// Run `iters` iterations of the threaded engine with two per-rank gradient
/// tensors filled from a deterministic (rank, iteration) pattern; returns
/// each rank's final tensor contents (averages scattered in place). Any
/// non-OK WaitIteration stops the run; `*failed` reports it.
std::vector<std::vector<float>> RunEngine(
    int world, CommConfig config, FailureConfig failure, int iters,
    bool* failed,
    const std::function<void(ThreadedAiaccEngine&)>& inspect = {}) {
  static constexpr std::size_t kLenA = 600, kLenB = 130;
  auto engine =
      std::make_unique<ThreadedAiaccEngine>(world, config, failure);
  std::vector<std::vector<float>> out(static_cast<std::size_t>(world));
  std::atomic<bool> any_failed{false};
  std::vector<std::thread> threads;
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      std::vector<float> a(kLenA), b(kLenB);
      auto& worker = engine->worker(r);
      ASSERT_TRUE(worker.Register("grad_a", a).ok());
      ASSERT_TRUE(worker.Register("grad_b", b).ok());
      worker.Finalize();
      for (int it = 0; it < iters; ++it) {
        for (std::size_t i = 0; i < a.size(); ++i) {
          a[i] = static_cast<float>(r + 1) * 0.5f +
                 static_cast<float>(it) * 0.125f +
                 static_cast<float>(i) * 0.25f;
        }
        for (std::size_t i = 0; i < b.size(); ++i) {
          b[i] = static_cast<float>(r + 1) * -0.75f +
                 static_cast<float>(it * 3 + static_cast<int>(i)) * 0.0625f;
        }
        worker.PushAll();
        const Status st = worker.WaitIteration();
        if (!st.ok()) {
          any_failed.store(true);
          break;
        }
      }
      auto& result = out[static_cast<std::size_t>(r)];
      result = a;
      result.insert(result.end(), b.begin(), b.end());
    });
  }
  for (auto& t : threads) t.join();
  *failed = any_failed.load();
  if (inspect) inspect(*engine);
  return out;
}

// The acceptance contrast: at a drop rate where the strict seed engine
// aborts, the reliable stack completes every iteration bit-exactly.
TEST(ChaosSoakTest, EngineSurvivesDropChaosWhereSeedAborts) {
  const int world = 2;
  const int iters = 30;
  CommConfig config;
  config.num_streams = 2;
  config.granularity_bytes = 1024;  // several units per iteration

  // Reference: clean engine.
  bool failed = false;
  const auto clean = RunEngine(world, config, FailureConfig{}, iters, &failed);
  ASSERT_FALSE(failed);

  FaultSpec spec;
  spec.seed = 61;
  spec.all_links.drop_prob = 0.01;

  // Seed behaviour (no reliable layer): strict loss -> recv deadline ->
  // abort. This is what the reliability tier exists to prevent.
  FailureConfig fragile;
  fragile.faults = spec;
  fragile.collective_timeout_ms = 300;
  RunEngine(world, config, fragile, iters, &failed);
  EXPECT_TRUE(failed) << "expected the unprotected engine to abort at 1% drop";

  // Reliable + degradation stack: same chaos, full completion, exact data.
  // A short iteration burst can outrun the default 10ms retransmit timer
  // (a drop in the final rto window is repaired after the run ends), so
  // run the full 30-iteration schedule with a tight rto — every drop is
  // then provably repaired in-band, inside the run.
  FailureConfig robust;
  robust.faults = spec;
  robust.collective_timeout_ms = 10000;
  robust.reliable_transport = true;
  robust.reliable_options.rto_initial_ms = 1;
  robust.reliable_options.rto_max_ms = 8;
  robust.degrade_before_abort = true;
  std::uint64_t retransmits = 0;
  std::uint64_t dropped = 0;
  const auto survived =
      RunEngine(world, config, robust, iters, &failed,
                [&](ThreadedAiaccEngine& engine) {
                  ASSERT_NE(engine.reliable_layer(), nullptr);
                  retransmits = engine.reliable_layer()->stats().retransmits;
                  dropped = engine.fault_injector()->stats().dropped;
                });
  EXPECT_FALSE(failed) << "reliable engine aborted under 1% drop";
  EXPECT_EQ(survived, clean) << "repaired traffic changed the numerics";
  EXPECT_GT(dropped, 0u) << "the schedule never dropped a frame";
  EXPECT_GT(retransmits, 0u) << "chaos never exercised the retransmit path";
}

// Tier 2.5: units whose primary tag namespace is blackholed are retried on
// fresh epoch tags at degraded depth; the degradation level rises under the
// pressure and walks back down after clean iterations — and the results
// stay bit-exact throughout (retries re-gather from untouched tensors).
TEST(ChaosSoakTest, EngineDegradesRetriesAndRestores) {
  const int world = 2;
  const int iters = 6;
  CommConfig config;
  config.num_streams = 2;
  config.granularity_bytes = 4096;
  config.pipeline_depth = 4;

  bool failed = false;
  const auto clean = RunEngine(world, config, FailureConfig{}, iters, &failed);
  ASSERT_FALSE(failed);

  // Blackhole the *primary* unit namespace only: first attempts time out,
  // epoch-1 retry tags (collective::kUnitRetryTagBase) are clean.
  FaultSpec spec;
  spec.seed = 62;
  TagFaults window;
  window.tag_lo = collective::kUnitTagBase;
  window.tag_hi = collective::kUnitRetryTagBase - 1;
  window.faults.drop_prob = 1.0;
  spec.per_tag.push_back(window);

  FailureConfig failure;
  failure.faults = spec;
  failure.collective_timeout_ms = 200;
  failure.degrade_before_abort = true;
  failure.degradation.recover_after = 2;
  std::uint64_t pressure = 0;
  int final_level = -1;
  const auto result =
      RunEngine(world, config, failure, iters, &failed,
                [&](ThreadedAiaccEngine& engine) {
                  pressure = engine.FaultPressure();
                  final_level = engine.degradation_level();
                });
  EXPECT_FALSE(failed) << "engine aborted instead of retrying units";
  EXPECT_EQ(result, clean) << "unit retries changed the numerics";
  // The first iteration's failures were repaired in-band...
  EXPECT_GT(pressure, 0u) << "no retries recorded";
  // ...and the clean iterations afterwards walked the level back to zero.
  EXPECT_EQ(final_level, 0);
}

// ----------------------------------------------- degradation controller --

TEST(DegradationControllerTest, LadderRisesCapsAndRestores) {
  DegradationController::Options opt;
  opt.max_level = 2;
  opt.recover_after = 3;
  DegradationController c(opt);
  EXPECT_EQ(c.level(), 0);
  EXPECT_EQ(c.EffectiveDepth(8), 8);
  EXPECT_EQ(c.EffectiveStreams(4), 4);

  c.RecordFailure();
  EXPECT_EQ(c.level(), 1);
  EXPECT_EQ(c.EffectiveDepth(8), 4);
  EXPECT_EQ(c.EffectiveStreams(4), 2);
  c.RecordFailure();
  c.RecordFailure();  // capped
  EXPECT_EQ(c.level(), 2);
  EXPECT_EQ(c.EffectiveDepth(8), 2);
  EXPECT_EQ(c.EffectiveDepth(1), 1);  // floor

  c.RecordSuccess();
  c.RecordSuccess();
  EXPECT_EQ(c.level(), 2) << "restored before the success streak completed";
  c.RecordSuccess();
  EXPECT_EQ(c.level(), 1);
  // A failure resets the streak.
  c.RecordSuccess();
  c.RecordFailure();
  EXPECT_EQ(c.level(), 2);
  for (int i = 0; i < 6; ++i) c.RecordSuccess();
  EXPECT_EQ(c.level(), 0);
  EXPECT_EQ(DegradationController::DepthAt(8, 3), 1);
}

// ------------------------------------------------- the transport stack --

// Every combination of optional layers: each is present exactly when its
// options are given, top() is the highest one present, and a frame
// crosses the whole stack unchanged.
TEST(TransportStackTest, EachLayerPresentExactlyWhenGiven) {
  for (int mask = 0; mask < 8; ++mask) {
    const bool faults = (mask & 1) != 0;
    const bool reliable = (mask & 2) != 0;
    const bool tracing = (mask & 4) != 0;
    SCOPED_TRACE("faults=" + std::to_string(faults) +
                 " reliable=" + std::to_string(reliable) +
                 " tracing=" + std::to_string(tracing));
    TransportStack stack(
        2, faults ? std::optional(FaultSpec{}) : std::nullopt,
        reliable ? std::optional(ReliableOptions{}) : std::nullopt,
        tracing ? std::optional(TracingOptions{}) : std::nullopt);
    EXPECT_EQ(stack.faulty() != nullptr, faults);
    EXPECT_EQ(stack.reliable() != nullptr, reliable);
    EXPECT_EQ(stack.tracing() != nullptr, tracing);
    Transport* want = &stack.inproc();
    if (faults) want = stack.faulty();
    if (reliable) want = stack.reliable();
    if (tracing) want = stack.tracing();
    EXPECT_EQ(&stack.top(), want);

    const transport::Payload body = {1.0f, 2.0f, 3.0f};
    stack.top().Send(0, 1, 7, body);
    auto got = stack.top().RecvFor(1, 0, 7, std::chrono::seconds(10));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, body);
  }
}

// A strict spec runs raw under a reliable layer (the reliable layer owns
// sequencing) and stays strict without one.
TEST(TransportStackTest, ReliableLayerForcesRawFaultDelivery) {
  FaultSpec spec;
  ASSERT_EQ(spec.delivery, FaultDelivery::kStrict);
  TransportStack strict(2, spec);
  EXPECT_EQ(strict.faulty()->spec().delivery, FaultDelivery::kStrict);
  TransportStack repaired(2, spec, ReliableOptions{});
  EXPECT_NE(repaired.faulty()->spec().delivery, FaultDelivery::kStrict);
}

// Tracing sits above the reliable layer: the stamp trailer rides inside
// the reliable frame (covered by its CRC) and is stripped before delivery.
TEST(TransportStackTest, TracingIsTopmost) {
  TransportStack stack(2, FaultSpec{}, ReliableOptions{}, TracingOptions{});
  ASSERT_EQ(&stack.top(), stack.tracing());
  const transport::Payload body = {4.0f, 5.0f};
  stack.top().Send(0, 1, 9, body);
  auto got = stack.top().RecvFor(1, 0, 9, std::chrono::seconds(10));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, body);
  EXPECT_EQ(stack.tracing()->stats().stamped, 1u);
  EXPECT_EQ(stack.tracing()->stats().stripped, 1u);
  EXPECT_EQ(stack.reliable()->stats().delivered, 1u);
}

}  // namespace
}  // namespace aiacc
