#include "src/lite/lite_cluster.h"

#include <optional>
#include <sstream>
#include <thread>

#include "src/telemetry/latency_attr.h"

namespace lite {

namespace {

// True when no counter, probe or histogram moved between the two snapshots.
bool SameSnapshot(const lt::telemetry::MetricsSnapshot& a,
                  const lt::telemetry::MetricsSnapshot& b) {
  if (a.values != b.values || a.histograms.size() != b.histograms.size()) {
    return false;
  }
  for (const auto& [name, h] : a.histograms) {
    auto it = b.histograms.find(name);
    if (it == b.histograms.end() || it->second.count != h.count || it->second.sum != h.sum) {
      return false;
    }
  }
  return true;
}

// A snapshot reads its metrics one by one, so an op that a service thread
// (the poller's head publish, a worker's reply) begins or retires during the
// read tears it: `lite.engine.ops` counts the op while `ops_ok` and
// `in_flight` do not. The watchdog's rules hold at one instant, so retake
// the snapshot until two in a row agree (nothing moved while the first was
// read); a real conservation fault persists and is still reported.
lt::telemetry::MetricsSnapshot QuiescedSnapshot(const lt::telemetry::Registry& reg) {
  constexpr int kMaxAttempts = 1000;
  lt::telemetry::MetricsSnapshot snap = reg.Snapshot();
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    lt::telemetry::MetricsSnapshot again = reg.Snapshot();
    if (SameSnapshot(snap, again)) {
      break;
    }
    snap = std::move(again);
    std::this_thread::yield();
  }
  return snap;
}

}  // namespace

LiteCluster::LiteCluster(size_t node_count, const lt::SimParams& params)
    : cluster_(node_count, params) {
  const NodeId manager = 0;
  instances_.reserve(node_count);
  for (size_t i = 0; i < node_count; ++i) {
    instances_.push_back(std::make_unique<LiteInstance>(cluster_.node(i), manager));
  }
  // Peer discovery + global-rkey exchange.
  for (auto& a : instances_) {
    for (auto& b : instances_) {
      a->ConnectPeer(b.get());
    }
  }
  // Shared QP pools: K QPs per (ordered) node pair, pairwise-connected.
  for (auto& inst : instances_) {
    inst->CreateQueuePairs();
  }
  if (params.lite_transport == lt::LiteTransport::kRc) {
    // RC: pairwise-connect the K QPs of every (ordered) node pair. DC skips
    // this entirely — initiators attach lazily on first use (DESIGN.md §10).
    const int k = std::max(1, params.lite_qp_sharing_factor);
    for (NodeId i = 0; i < node_count; ++i) {
      for (NodeId j = i + 1; j < node_count; ++j) {
        for (int q = 0; q < k; ++q) {
          lt::Qp* a = instances_[i]->PoolQp(j, q);
          lt::Qp* b = instances_[j]->PoolQp(i, q);
          a->Connect(j, b->qpn());
          b->Connect(i, a->qpn());
        }
      }
    }
  }
  // Control rings (every ordered pair, including self for loopback RPCs).
  // At large scale this O(n²) bootstrap dominates setup; with
  // lite_eager_control_rings=false a channel is built lazily on first RPC.
  if (params.lite_eager_control_rings) {
    for (auto& client : instances_) {
      for (auto& server : instances_) {
        client->BootstrapControlChannel(server.get());
      }
    }
  } else {
    for (auto& client : instances_) {
      // Self-loopback is always wired (internal services assume it).
      client->BootstrapControlChannel(client.get());
    }
  }
  poller_ = std::thread(&LiteCluster::ServeLoop, this);
  for (auto& inst : instances_) {
    inst->Start(&poll_channel_);
  }
  // Any gtest failure while this cluster lives dumps its flight recorder
  // (tests/gtest_main.cc drains the registry on the first failed assertion).
  lt::telemetry::RegisterFailureDump(this, [this] { return DumpJournal(); });
}

LiteCluster::~LiteCluster() {
  lt::telemetry::UnregisterFailureDump(this);
  for (auto& inst : instances_) {
    inst->Stop();
  }
  poll_channel_.Close();
  poller_.join();
}

void LiteCluster::ServeLoop() {
  while (std::optional<lt::CompChannel::Event> ev = poll_channel_.Next()) {
    static_cast<LiteInstance*>(ev->cq->channel_context())->ServeCompletion(ev->completion);
  }
}

std::string LiteCluster::DumpLatencyBreakdown() {
  std::ostringstream out;
  for (size_t i = 0; i < cluster_.size(); ++i) {
    const auto snap = cluster_.node(i)->telemetry().registry().Snapshot();
    const std::string body = lt::telemetry::LatencyAttr::DumpLatencyBreakdown(snap);
    if (body.empty()) {
      continue;
    }
    out << "=== node " << i << " ===\n" << body;
  }
  return out.str();
}

std::vector<std::string> LiteCluster::RunHealthCheck() {
  std::vector<std::string> violations;
  for (size_t i = 0; i < cluster_.size(); ++i) {
    const auto snap = QuiescedSnapshot(cluster_.node(i)->telemetry().registry());
    for (const std::string& v : lt::telemetry::HealthWatchdog::Check(snap)) {
      violations.push_back("node" + std::to_string(i) + ": " + v);
    }
  }
  return violations;
}

std::unique_ptr<LiteClient> LiteCluster::CreateClient(NodeId node, bool kernel_level) {
  return std::make_unique<LiteClient>(instances_[node].get(), kernel_level);
}

}  // namespace lite
