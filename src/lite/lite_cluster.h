// LiteCluster — N simulated machines, each running one LITE instance, wired
// to one fabric: the equivalent of the paper's testbed (10 machines, 40 Gbps
// InfiniBand). Construction performs the LT_join/cluster-manager setup phase
// with no simulated cost (the paper's management library runs out-of-band).
//
// One host thread, the cluster's completion poller, serves every node's
// receive CQ: it takes the earliest-ready completion across all ready CQs and
// runs it on that node's own virtual poll thread (LiteInstance::
// ServeCompletion). The per-node poll and head threads of the paper are model
// entities; only their host thread is shared.
#ifndef SRC_LITE_LITE_CLUSTER_H_
#define SRC_LITE_LITE_CLUSTER_H_

#include <memory>
#include <thread>
#include <vector>

#include "src/lite/client.h"
#include "src/lite/instance.h"
#include "src/node/node.h"

namespace lite {

class LiteCluster {
 public:
  explicit LiteCluster(size_t node_count, const lt::SimParams& params = lt::SimParams());
  ~LiteCluster();

  size_t size() const { return instances_.size(); }
  LiteInstance* instance(NodeId id) { return instances_[id].get(); }
  lt::Cluster& cluster() { return cluster_; }
  lt::Node* node(NodeId id) { return cluster_.node(id); }
  const lt::SimParams& params() const { return cluster_.params(); }
  // Running completion-poller host threads (1 while the cluster lives; the
  // nodes' own service threads are each node's `lite.svc.threads`).
  int poller_threads() const { return poller_.joinable() ? 1 : 0; }

  // Creates an application client on `node` (user-level by default).
  std::unique_ptr<LiteClient> CreateClient(NodeId node, bool kernel_level = false);

  // ---- Fault injection (src/faults/faults.h) ----
  // The fabric-level fault engine: per-link drop/duplicate/delay rules,
  // partitions, and node crash windows.
  lt::FaultEngine& faults() { return cluster_.fabric().faults(); }
  // Crash/restart at fabric level: while crashed, every transfer to or from
  // the node drops; peers detect it via keepalive lease expiry (or mark it
  // dead directly in tests). The node's LITE instance and memory survive —
  // restart models a fast reboot with its LMR metadata registry intact.
  void CrashNode(NodeId id) { faults().CrashNode(id); }
  void RestartNode(NodeId id) { faults().RestartNode(id); }

  // ---- Telemetry ----
  // Enables request-path tracing on every node (sample_every = 0 turns it
  // back off; 1 traces every op).
  void EnableTracing(uint32_t sample_every) { cluster_.SetTraceSampling(sample_every); }
  // Cluster-wide metrics + trace spans as JSON (LT_stat's cluster view).
  std::string DumpTelemetryJson() { return cluster_.DumpTelemetryJson(); }
  // Flight recorder: all nodes' journal rings merged by virtual time.
  std::string DumpJournal() { return cluster_.DumpJournal(); }
  // Chrome trace-event export (chrome://tracing / Perfetto). False on I/O
  // error. Includes all sampled spans plus the flight-recorder events.
  bool ExportChromeTrace(const std::string& path) { return cluster_.ExportChromeTrace(path); }
  // Human-readable per-stage latency waterfall, all nodes (latency_attr.h).
  std::string DumpLatencyBreakdown();
  // Health watchdog: evaluates the conservation invariants against every
  // node's metrics snapshot, retaken until no metric moved while it was read
  // (so a background service op cannot tear it); returns one "nodeN: ..."
  // line per violation (empty = healthy). Cheap enough to call from any test
  // teardown.
  std::vector<std::string> RunHealthCheck();

 private:
  // The poller's loop: serves completions until the channel closes.
  void ServeLoop();

  lt::Cluster cluster_;
  // Declared before the instances so it outlives them: a CQ push racing a
  // node's detach may still signal it.
  lt::CompChannel poll_channel_;
  std::vector<std::unique_ptr<LiteInstance>> instances_;
  std::thread poller_;
};

}  // namespace lite

#endif  // SRC_LITE_LITE_CLUSTER_H_
