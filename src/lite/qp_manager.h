// QpManager — the RC implementation of the Transport interface: the shared
// per-destination QP pool (paper Sec. 6.1). Owns QP creation/pairing,
// QoS-aware QP selection, and errored-QP recovery; with lite_transport=rc
// (the default) every submission path reaches the fabric through a QP
// leased and guarded here. A TransportHandle's slot is the pool index
// within pool_[dst].
#ifndef SRC_LITE_QP_MANAGER_H_
#define SRC_LITE_QP_MANAGER_H_

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/lite/qos.h"
#include "src/lite/transport.h"
#include "src/lite/types.h"
#include "src/node/node.h"
#include "src/telemetry/journal.h"

namespace lite {

class QpManager : public Transport {
 public:
  QpManager(lt::Node* node, QosManager* qos) : Transport(node, qos) {}

  lt::LiteTransport mode() const override { return lt::LiteTransport::kRc; }

  // Creates K QPs (K = lite_qp_sharing_factor) to every destination flagged
  // in `connect`, all delivering receives into the shared `recv_cq`. One
  // mutex per QP serializes posts (the QP send queue is ordered anyway).
  void Setup(const std::vector<bool>& connect, lt::Cq* recv_cq) override;

  // QoS-aware selection: cheap per-thread round-robin across the priority
  // band's slots. Returns a pool index for `dst`, or -1 if no QP exists.
  int PickQpIndex(NodeId dst, Priority pri);
  // Sticky per (thread, destination) so a pipelining thread's consecutive
  // posts land on one QP and share doorbells (round-robin would break every
  // doorbell batch).
  int PickQpIndexSticky(NodeId dst, Priority pri);

  TransportHandle Lease(NodeId dst, Priority pri) override {
    return TransportHandle{dst, PickQpIndex(dst, pri)};
  }
  TransportHandle LeaseSticky(NodeId dst, Priority pri) override {
    return TransportHandle{dst, PickQpIndexSticky(dst, pri)};
  }

  bool Valid(const TransportHandle& h) const override {
    return h.dst < pool_.size() && h.slot >= 0 &&
           h.slot < static_cast<int32_t>(pool_[h.dst].size()) &&
           pool_[h.dst][h.slot] != nullptr;
  }
  lt::Qp* Qp(const TransportHandle& h) const override { return pool_[h.dst][h.slot]; }
  std::mutex& Mu(const TransportHandle& h) const override { return *mu_[h.dst][h.slot]; }

  // RC prepare: recover the leased QP if a prior drop errored it.
  bool Prepare(const TransportHandle& h) override {
    lt::Qp* q = pool_[h.dst][h.slot];
    if (q->in_error()) {
      RecoverQp(q);
      return true;
    }
    return false;
  }

  // Nullptr-safe pool access (cluster wiring / introspection).
  lt::Qp* PoolQp(NodeId dst, int k) const override;
  size_t TotalQps() const override;

  // Test hook: punches a hole in the pool so Valid()'s nullptr guard is
  // exercisable (Setup never leaves holes; a hot-unplug path would).
  void DropQpForTest(NodeId dst, int k) { pool_[dst][k] = nullptr; }

 private:
  // The slot band [lo, hi) `pri` may use toward `dst`; empty without QPs.
  std::pair<int, int> Band(NodeId dst, Priority pri) const;

  // pool_[dst][k], k in [0, K).
  std::vector<std::vector<lt::Qp*>> pool_;
  std::vector<std::vector<std::unique_ptr<std::mutex>>> mu_;
};

}  // namespace lite

#endif  // SRC_LITE_QP_MANAGER_H_
