// The traced run's per-layer replay: one iteration's gradient list, packed
// with the public StreamingPacker at the workload's granularity and codecs,
// driven unit after unit through the public scheduler, gather/scatter,
// collective, codec and optimizer functions on a benchmark-owned transport
// stack (InProcTransport, plus ReliableTransport for the reliable
// workload) under a timing decorator. One thread per rank and one unit at
// a time, so each number is a per-call cost without cross-stream
// contention.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace enginebench {

struct LayerMetric {
  double value = 0.0;
  std::string unit;
};

struct ReplayResult {
  std::map<std::string, LayerMetric> metrics;  // by per-layer metric name
  int iterations = 0;                     // replay iterations run
  bool correct = false;
  std::string error;
  std::vector<std::unique_ptr<SpanLog>> logs;  // one per rank thread
};

ReplayResult RunReplay(const Workload& workload, const GradientData& data,
                       int world, double seconds);

}  // namespace enginebench
