// Per-layer view of traced repetitions: benchmark-side span self times,
// program counter ratios (from StatSnapshot() deltas over the measured
// window) and the lite.lat stage waterfall of the load nodes.
#ifndef APPBENCH_LAYERS_H_
#define APPBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "appbench/measure.h"
#include "appbench/workloads.h"

namespace appbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

double Median(std::vector<double> v);
// p-th percentile (p in (0, 100]) of integer-ns samples, sorted in place; 0
// if empty. Each sample x stands for the 1 ns clock tick [x - 0.5, x + 0.5),
// and the result interpolates inside the tick that holds rank p/100 * n, so
// ties (virtual time repeats exact values) still resolve below 1 ns.
double Percentile(std::vector<uint64_t>* v, double p);

// Counter deltas summed over a set of nodes.
struct CounterSum {
  std::map<std::string, double> values;
  std::map<std::string, double> hist_count;
  std::map<std::string, double> hist_sum;

  void AddDelta(const lt::telemetry::MetricsSnapshot& before,
                const lt::telemetry::MetricsSnapshot& after);
  double Value(const std::string& name) const;
};

// Writes the spans of requests below `max_req` of every load thread as CSV
// (thread, req, span, parent, host and virtual start/end in ns). False on an
// I/O error.
bool WriteSpansCsv(const RepResult& rep, const std::string& path, uint32_t max_req);

// Folds traced repetitions in one at a time, so their spans need not be
// kept, then reports every per-layer metric.
class LayerStats {
 public:
  void Add(const RepResult& rep);

  // Appends the per-layer metrics to `out` and the human-readable report to
  // `report`. A broken stage-conservation check is appended to `failures`.
  void Finish(Metrics* out, std::string* report, std::vector<std::string>* failures) const;

 private:
  struct SpanAgg {
    uint64_t count = 0;
    double host_ns = 0, host_self_ns = 0;
    double virt_ns = 0, virt_self_ns = 0;
  };

  uint64_t requests_ = 0;
  CounterSum all_;   // Every node.
  CounterSum load_;  // The load threads' nodes.
  double qpc_occupancy_end_ = 0;
  uint64_t load_vcpu_ns_ = 0;
  uint64_t load_task_ns_ = 0;
  uint64_t service_task_ns_ = 0;
  uint64_t ctxsw_ = 0;
  SpanAgg spans_[kSpanNameCount];
  std::vector<uint64_t> op_virt_ns_[kSpanNameCount];
};

}  // namespace appbench

#endif  // APPBENCH_LAYERS_H_
