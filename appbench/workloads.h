// One repetition of a workload: build a fresh cluster, start its services,
// let every load thread open its connection (and populate, for kv-rpc),
// then run all load threads closed-loop from one start barrier over their
// pre-generated streams, and check every result.
#ifndef APPBENCH_WORKLOADS_H_
#define APPBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "appbench/measure.h"
#include "appbench/stream.h"
#include "src/telemetry/metrics.h"

namespace appbench {

// All streams of one workload, generated once per run from the seed.
struct Streams {
  Workload workload = Workload::kKvRpc;
  KvStream kv;
  LogStream log;
  BatchStream batch;
};
Streams MakeStreams(Workload w, uint64_t seed);

struct RepResult {
  // Set-up (host seconds from the start of the repetition).
  double cluster_s = 0;   // LiteCluster construction.
  double services_s = 0;  // KV server / log / LMR creation.
  double populate_s = 0;  // Load threads: clients, map/open, KV populate.
  double setup_s = 0;     // Up to the first timed request.
  uint64_t setup_minflt = 0;
  int threads_after_setup = 0;

  // Measured window.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t host_ns = 0;       // Start barrier release to the last finish.
  uint64_t cpu_ns = 0;        // getrusage user+sys delta.
  uint64_t ctxsw = 0;
  uint64_t makespan_ns = 0;   // Virtual: start barrier to the last finish.
  std::vector<uint64_t> latency_ns;  // Virtual, per completed request.

  // Checks that failed at quiesce, one line each.
  std::vector<std::string> check_failures;

  // Traced repetitions only.
  std::vector<int> load_nodes;
  std::vector<lt::telemetry::MetricsSnapshot> before, after;  // Per node.
  uint64_t load_vcpu_ns = 0;      // lt::ThreadCpuNs of the load threads.
  uint64_t load_task_ns = 0;      // Host CPU of the load threads.
  uint64_t service_task_ns = 0;   // Host CPU of every other thread.
  std::vector<std::vector<Span>> spans;  // Per load thread.
};

RepResult RunRep(const Streams& streams, bool traced);

}  // namespace appbench

#endif  // APPBENCH_WORKLOADS_H_
