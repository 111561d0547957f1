// Tests of the observability tier (DESIGN.md §7): the wire trace context
// and hybrid logical clocks, the causal tracing transport decorator,
// multi-rank trace merging with clock-skew recovery, and the fault flight
// recorder — including the end-to-end contracts the ISSUE gates on: merged
// flow edges are causally consistent after skew correction, and an
// injected-fault engine run leaves a flight dump naming the failing
// rank/tag.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "collective/channel_health.h"
#include "collective/tags.h"
#include "collective/threaded.h"
#include "common/buffer_pool.h"
#include "common/logging.h"
#include "core/threaded_engine.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/merge.h"
#include "telemetry/trace_context.h"
#include "transport/faulty.h"
#include "transport/inproc.h"
#include "transport/tracing.h"

namespace aiacc {
namespace {

using telemetry::ChromeTraceDoc;
using telemetry::FlightRecorder;
using telemetry::FlightSeverity;
using telemetry::HybridLogicalClock;
using telemetry::RuntimeTracer;
using telemetry::TraceLevel;
using telemetry::TraceStamp;

// ------------------------------------------------------------ trace context

TEST(TraceContextTest, StampRoundTripAndMagicRejection) {
  TraceStamp stamp;
  stamp.origin = 3;
  stamp.msg_id = 0xBEEF1234u;
  stamp.hlc = 1234567890123456789LL;
  float lanes[telemetry::kStampLanes];
  telemetry::WriteStamp(lanes, stamp);
  const auto parsed = telemetry::ParseStamp(lanes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->origin, 3);
  EXPECT_EQ(parsed->msg_id, 0xBEEF1234u);
  EXPECT_EQ(parsed->hlc, 1234567890123456789LL);

  lanes[0] += 1.0f;  // magic off by one: must not parse
  EXPECT_FALSE(telemetry::ParseStamp(lanes).has_value());
}

TEST(TraceContextTest, StripStampShrinksInPlaceAndLeavesBodyIntact) {
  TraceStamp stamp;
  stamp.origin = 1;
  stamp.msg_id = 42;
  stamp.hlc = 777;
  std::vector<float> frame = {1.0f, 2.0f, 3.0f};
  frame.resize(3 + telemetry::kStampLanes);
  telemetry::WriteStamp(frame.data() + 3, stamp);

  const auto parsed = telemetry::StripStamp(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->msg_id, 42u);
  ASSERT_EQ(frame.size(), 3u);
  EXPECT_EQ(frame[2], 3.0f);

  // An unstamped frame (too short, or trailer does not verify) is left
  // untouched.
  std::vector<float> plain = {4.0f, 5.0f, 6.0f};
  EXPECT_FALSE(telemetry::StripStamp(plain).has_value());
  EXPECT_EQ(plain.size(), 3u);
}

TEST(TraceContextTest, FlowIdsAreUniquePerOriginAndMessage) {
  EXPECT_NE(telemetry::FlowId(0, 7), telemetry::FlowId(1, 7));
  EXPECT_NE(telemetry::FlowId(2, 7), telemetry::FlowId(2, 8));
  // origin -1 would collide with origin 0's namespace if ranks were not
  // offset by one inside FlowId.
  EXPECT_NE(telemetry::FlowId(0, 0), 0u);
}

TEST(TraceContextTest, HlcRunsPastObservedRemoteStamps) {
  HybridLogicalClock clock;
  const std::int64_t t1 = clock.Tick(1000);
  EXPECT_GE(t1, 1000);
  // A remote stamp far ahead of the local physical clock drags the HLC
  // forward: causal order survives clock skew.
  const std::int64_t t2 = clock.Observe(500, 99999);
  EXPECT_GT(t2, 99999);
  // And the clock never runs backward even when physical time reads 0.
  EXPECT_GT(clock.Tick(0), t2);
}

// -------------------------------------------------------- tracing transport

TEST(TracingTransportTest, BindsRecvToSendViaFlowEvents) {
  RuntimeTracer tracer;
  tracer.Enable(TraceLevel::kPhase);
  transport::InProcTransport inner(2);
  transport::TracingOptions opts;
  opts.tracer = &tracer;
  transport::TracingTransport tr(inner, opts);

  tr.Send(0, 1, 7, {1.0f, 2.0f, 3.0f});
  const auto got = tr.Recv(1, 0, 7);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (transport::Payload{1.0f, 2.0f, 3.0f}));

  const auto stats = tr.stats();
  EXPECT_EQ(stats.stamped, 1u);
  EXPECT_EQ(stats.stripped, 1u);
  EXPECT_EQ(stats.parse_failures, 0u);
  EXPECT_GT(tr.HlcNow(0), 0);
  EXPECT_GT(tr.HlcNow(1), 0);

  tracer.Disable();
  ChromeTraceDoc doc;
  tracer.Collect(&doc);
  ASSERT_EQ(doc.flows.size(), 2u);
  const auto& a = doc.flows[0];
  const auto& b = doc.flows[1];
  EXPECT_EQ(a.id, b.id);  // both ends derived the id from the stamp alone
  EXPECT_NE(a.start, b.start);
}

TEST(TracingTransportTest, SteadyStateRecyclesBothSizeClasses) {
  // The stamped wire copy and the released body must both cycle through
  // the pool: after warmup, a fixed communication pattern performs no
  // payload allocations (pool misses stay flat) even with stamping on.
  common::BufferPool pool;
  RuntimeTracer tracer;  // disabled: measures the wire-format cost alone
  transport::InProcTransport inner(2);
  transport::TracingOptions opts;
  opts.pool = &pool;
  opts.tracer = &tracer;
  transport::TracingTransport tr(inner, opts);

  constexpr std::size_t kElems = 256;
  auto round = [&] {
    transport::Payload body = pool.Acquire(kElems);
    std::fill(body.begin(), body.end(), 1.0f);
    tr.Send(0, 1, 5, std::move(body));
    auto got = tr.Recv(1, 0, 5);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), kElems);
    pool.Release(std::move(*got));
  };
  for (int i = 0; i < 4; ++i) round();  // warm both size classes
  const auto warm = pool.stats();
  for (int i = 0; i < 64; ++i) round();
  const auto steady = pool.stats();
  EXPECT_EQ(steady.misses, warm.misses)
      << "tracing steady state allocated fresh buffers";
}

TEST(TracingTransportTest, EngineStacksTracingLayerPerTriState) {
  core::CommConfig config;
  config.num_streams = 1;
  {
    core::FailureConfig failure;
    failure.trace_messages = 0;  // never stamp
    core::ThreadedAiaccEngine engine(2, config, failure);
    EXPECT_EQ(engine.tracing_layer(), nullptr);
    engine.Shutdown();
  }
  {
    core::FailureConfig failure;
    failure.trace_messages = 1;  // always stamp, even with the tracer off
    core::ThreadedAiaccEngine engine(2, config, failure);
    EXPECT_NE(engine.tracing_layer(), nullptr);
    engine.Shutdown();
  }
}

// ------------------------------------------------------- merged multi-rank

TEST(MergedTraceTest, FlowEdgesRecoverSkewAndStayCausallyConsistent) {
  constexpr int kWorld = 3;
  constexpr int kIters = 3;
  constexpr std::size_t kElems = 1024;
  // Millisecond-scale offsets of both signs; rank 0 pinned at zero.
  const std::vector<double> skew_s = {0.0, 2.0e-3, -1.0e-3};

  auto& tracer = RuntimeTracer::Global();
  tracer.Clear();
  tracer.Enable(TraceLevel::kPhase);

  core::CommConfig config;
  config.num_streams = 2;
  config.granularity_bytes = 1024;
  core::FailureConfig failure;
  failure.trace_messages = 1;
  failure.trace_rank_skew_ns.resize(kWorld);
  for (int r = 0; r < kWorld; ++r) {
    failure.trace_rank_skew_ns[static_cast<std::size_t>(r)] =
        static_cast<std::int64_t>(skew_s[static_cast<std::size_t>(r)] * 1e9);
  }
  {
    core::ThreadedAiaccEngine engine(kWorld, config, failure);
    std::vector<std::thread> threads;
    for (int r = 0; r < kWorld; ++r) {
      threads.emplace_back([&, r] {
        SetThreadLogContext(r, "worker");
        auto& worker = engine.worker(r);
        std::vector<std::vector<float>> tensors(
            2, std::vector<float>(kElems, static_cast<float>(r + 1)));
        for (std::size_t t = 0; t < tensors.size(); ++t) {
          char name[32];
          std::snprintf(name, sizeof(name), "grad%03zu", t);
          ASSERT_TRUE(worker.Register(name, tensors[t]).ok());
        }
        worker.Finalize();
        for (int it = 0; it < kIters; ++it) {
          telemetry::TraceSpan iteration(tracer, TraceLevel::kPhase,
                                         "engine.iteration", "iteration", it);
          worker.PushAll();
          ASSERT_TRUE(worker.WaitIteration().ok());
        }
      });
    }
    for (auto& t : threads) t.join();
    engine.Shutdown();
  }
  tracer.Disable();

  ChromeTraceDoc doc;
  tracer.Collect(&doc);
  EXPECT_EQ(tracer.dropped(), 0u);
  auto by_rank = telemetry::SplitByRankLabel(doc);
  std::vector<telemetry::RankTrace> traces;
  for (int r = 0; r < kWorld; ++r) {
    ChromeTraceDoc rank_doc = std::move(by_rank[r]);
    telemetry::ShiftTimes(rank_doc, skew_s[static_cast<std::size_t>(r)]);
    traces.push_back({r, std::move(rank_doc)});
  }
  const telemetry::MergeReport report = telemetry::MergeTraces(traces);

  EXPECT_GT(report.flow_edges, 0u);
  EXPECT_EQ(report.unmatched_flows, 0u);
  ASSERT_EQ(report.offset_seconds.size(), static_cast<std::size_t>(kWorld));
  for (int r = 0; r < kWorld; ++r) {
    EXPECT_NEAR(report.offset_seconds[static_cast<std::size_t>(r)],
                skew_s[static_cast<std::size_t>(r)], 5e-4)
        << "rank " << r << " offset not recovered";
  }
  // The corrected flow graph is causally consistent: no recv precedes its
  // send by more than the estimator's residual tolerance — which also
  // makes the per-message dependency graph acyclic (every edge moves
  // forward in merged time, up to that residual).
  EXPECT_LE(report.max_causality_violation, 1e-3);
  std::map<std::uint64_t, double> start_ts;
  for (const auto& flow : report.merged.flows) {
    if (flow.start) start_ts.emplace(flow.id, flow.time);
  }
  std::size_t checked = 0;
  for (const auto& flow : report.merged.flows) {
    if (flow.start) continue;
    const auto it = start_ts.find(flow.id);
    ASSERT_NE(it, start_ts.end()) << "dangling flow end in merged trace";
    EXPECT_GE(flow.time, it->second - 1e-3);
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

// ---------------------------------------------------------- flight recorder

TEST(FlightRecorderTest, RingKeepsMostRecentEvents) {
  FlightRecorder recorder(4);
  for (int i = 0; i < 10; ++i) {
    recorder.Record(FlightSeverity::kWarn, "test", "evt", /*rank=*/i);
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().seq, 7u);
  EXPECT_EQ(events.back().seq, 10u);
  EXPECT_EQ(events.back().rank, 9);
  EXPECT_STREQ(events.back().component, "test");
}

TEST(FlightRecorderTest, ToJsonCarriesTheTaxonomy) {
  FlightRecorder recorder(8);
  recorder.Record(FlightSeverity::kError, "collective.channel", "quarantine",
                  /*rank=*/2, /*channel=*/1, /*tag=*/4096);
  const std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos);
  EXPECT_NE(json.find("\"component\":\"collective.channel\""),
            std::string::npos);
  EXPECT_NE(json.find("\"channel\":1"), std::string::npos);
  EXPECT_NE(json.find("\"tag\":4096"), std::string::npos);
}

TEST(FlightRecorderTest, EnvDumpFirstFaultWins) {
  const std::string dir = ::testing::TempDir() + "obs_flight_env";
  std::filesystem::create_directories(dir);
  ASSERT_EQ(setenv("AIACC_FLIGHT_DIR", dir.c_str(), 1), 0);
  FlightRecorder recorder(8);
  recorder.Record(FlightSeverity::kFatal, "test", "boom");
  EXPECT_TRUE(recorder.DumpToEnvDir("first").ok());
  EXPECT_TRUE(std::filesystem::exists(dir + "/flight-first.json"));
  // Later faults are echoes of the first: no second file.
  EXPECT_TRUE(recorder.DumpToEnvDir("second").ok());
  EXPECT_FALSE(std::filesystem::exists(dir + "/flight-second.json"));
  unsetenv("AIACC_FLIGHT_DIR");
}

TEST(FlightRecorderTest, ChannelFaultsRecordFailingChannelAndTag) {
  // A multi-channel collective whose channel 1 goes 100% lossy must leave
  // "collective.channel" events in the global ring naming the failing
  // channel and the tag namespace it failed on (the post-mortem the dump
  // carries when such a failure escalates).
  const int world = 2;
  const int channels = 3;
  const std::size_t len = 960;
  transport::InProcTransport inner(world);
  transport::FaultSpec spec;  // strict delivery: loss -> recv deadline
  spec.seed = 31;
  transport::FaultyTransport faulty(inner, spec);

  collective::ChannelHealthTracker::Options hopt;
  hopt.world_size = world;
  hopt.initial_cooldown = 1;
  hopt.probation_successes = 1;
  collective::ChannelHealthTracker health(hopt);

  // Kill channel 1's tags at its home and every epoch it can relocate to
  // (channel 0 is quarantine-exempt).
  std::vector<transport::TagFaults> windows;
  auto kill = [&](int lo) {
    transport::TagFaults w;
    w.tag_lo = lo;
    w.tag_hi = lo + collective::kTagsPerCollective - 1;
    w.faults.drop_prob = 1.0;
    windows.push_back(w);
  };
  kill(collective::ChannelTagBase(collective::kSyncTag, 1));
  for (int epoch = 1; epoch <= 16; ++epoch) {
    kill(collective::ChannelEpochTagBase(1, epoch));
  }
  faulty.SetDynamicTagFaults(windows);

  const std::uint64_t seq0 = FlightRecorder::Global().recorded();
  for (int it = 0; it < 4; ++it) {
    std::vector<std::vector<float>> data(
        static_cast<std::size_t>(world),
        std::vector<float>(len, static_cast<float>(it + 1)));
    std::vector<std::thread> threads;
    for (int r = 0; r < world; ++r) {
      threads.emplace_back([&, r] {
        collective::Comm comm{&faulty, r, world, collective::kSyncTag, 250};
        const Status st = collective::MultiChannelAllReduce(
            comm, data[static_cast<std::size_t>(r)],
            collective::ReduceOp::kAvg, channels, &health);
        EXPECT_TRUE(st.ok()) << "iteration " << it << ": " << st.ToString();
      });
    }
    for (auto& t : threads) t.join();
    if (health.states()[1].state ==
        collective::ChannelHealthTracker::ChannelState::kQuarantined) {
      break;
    }
  }

  bool named = false;
  for (const auto& event : FlightRecorder::Global().Snapshot()) {
    if (event.seq <= seq0) continue;
    if (std::string_view(event.component) == "collective.channel" &&
        event.channel == 1 && event.tag >= 0) {
      named = true;
      break;
    }
  }
  EXPECT_TRUE(named)
      << "no collective.channel flight event names channel 1 and its tag";
}

TEST(FlightRecorderTest, InjectedFaultAbortLeavesDumpNamingFailure) {
  const std::string dir = ::testing::TempDir() + "obs_flight_abort";
  std::filesystem::create_directories(dir);
  ASSERT_EQ(setenv("AIACC_FLIGHT_DIR", dir.c_str(), 1), 0);

  const int world = 2;
  core::CommConfig config;
  config.num_streams = 1;
  core::FailureConfig failure;
  failure.collective_timeout_ms = 100;
  // Kill the whole unit tag namespace (sync rounds, below kUnitTagBase,
  // stay healthy): the first unit all-reduce deterministically times out,
  // records unit-failed with its tag, and escalates to an engine abort.
  transport::FaultSpec faults;
  transport::TagFaults window;
  window.tag_lo = collective::kUnitTagBase;
  window.tag_hi = collective::kChannelEpochTagBase - 1;
  window.faults.drop_prob = 1.0;
  faults.per_tag.push_back(window);
  failure.faults = faults;
  core::ThreadedAiaccEngine engine(world, config, failure);

  std::vector<std::thread> threads;
  std::vector<Status> last(world, Status::Ok());
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      auto& worker = engine.worker(r);
      std::vector<float> grad(16, 1.0f);
      ASSERT_TRUE(worker.Register("g", grad).ok());
      worker.Finalize();
      worker.PushAll();
      last[static_cast<std::size_t>(r)] = worker.WaitIteration();
    });
  }
  for (auto& t : threads) t.join();
  engine.Shutdown();
  unsetenv("AIACC_FLIGHT_DIR");

  EXPECT_TRUE(engine.aborted());
  for (int r = 0; r < world; ++r) {
    EXPECT_FALSE(last[static_cast<std::size_t>(r)].ok());
  }

  // The abort dumped the ring; the post-mortem names the fatal abort and
  // the failing unit collective with its rank and tag.
  const std::string path = dir + "/flight-abort.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "no flight dump at " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"severity\":\"fatal\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"what\":\"abort\""), std::string::npos) << json;
  const std::size_t unit_failed = json.find("\"what\":\"unit-failed\"");
  ASSERT_NE(unit_failed, std::string::npos) << json;
  const std::size_t rank_pos = json.find("\"rank\":", unit_failed);
  ASSERT_NE(rank_pos, std::string::npos);
  EXPECT_GE(std::atoi(json.c_str() + rank_pos + 7), 0)
      << "unit-failed event does not name the failing rank: " << json;
  const std::size_t tag_pos = json.find("\"tag\":", unit_failed);
  ASSERT_NE(tag_pos, std::string::npos);
  EXPECT_GT(std::atoi(json.c_str() + tag_pos + 6), 0)
      << "unit-failed event does not name the failing tag: " << json;
}

}  // namespace
}  // namespace aiacc
