// Software RNIC with Verbs-level semantics.
//
// Supports: RC and UD queue pairs, completion queues (shareable across QPs),
// memory regions registered by virtual address (per-page NIC translation,
// like native user-level Verbs) or by physical address (the kernel-only API
// LITE exploits for its global MR, paper Sec. 4.1), one-sided READ / WRITE /
// WRITE-WITH-IMM, two-sided SEND/RECV (RC and UD), and masked 64-bit atomics
// (FETCH_ADD, CMP_SWAP).
//
// Performance model (all values from SimParams):
//   * The issuing thread pays the doorbell cost (rnic_post_ns) synchronously.
//   * Each WQE then occupies the NIC processing engine for
//     rnic_process_ns + (MPT/MTT/QPC miss penalties); engine occupancy is a
//     virtual reservation (like a fabric port), so pipelined ops through one
//     NIC share its processing rate — on-NIC SRAM misses therefore reduce
//     throughput (paper Fig. 5) and add latency (paper Fig. 4).
//   * Payloads reserve fabric bandwidth on both endpoint ports.
//   * Completions carry a ready_at timestamp; polling a CQ only yields
//     entries whose time has arrived.
//
// One-sided operations never execute application/OS code on the target node:
// the issuing thread performs the target-memory copy itself (it is the DMA
// engine), touching only the *target NIC's* caches — the same asymmetry the
// paper relies on ("indirection only at the local side").
#ifndef SRC_RNIC_RNIC_H_
#define SRC_RNIC_RNIC_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/rate_window.h"
#include "src/common/status.h"
#include "src/common/sync_util.h"
#include "src/fabric/fabric.h"
#include "src/mem/addr.h"
#include "src/mem/page_table.h"
#include "src/mem/phys_mem.h"
#include "src/rnic/lru_cache.h"
#include "src/sim/params.h"
#include "src/telemetry/latency_attr.h"

namespace lt {

namespace telemetry {
class FixedHistogram;
}  // namespace telemetry

class Rnic;

// The one read-modify-write on node memory: FETCH_ADD (is_cas false) or
// CMP_SWAP on the 8-byte word at `word`, returning its old value. The RNIC
// responder and LITE's loopback atomics both apply it, so local and remote
// atomics on one word are atomic with each other.
uint64_t ApplyAtomic(uint8_t* word, bool is_cas, uint64_t compare_add, uint64_t swap);

// Resolves node ids to their RNICs; owned by the cluster.
class RnicDirectory {
 public:
  void Register(NodeId node, Rnic* rnic);
  Rnic* Lookup(NodeId node) const;

 private:
  mutable SpinLock mu_;
  std::vector<Rnic*> rnics_;
};

// Access permission bits for memory regions.
enum MrAccess : uint32_t {
  kMrRead = 1u << 0,
  kMrWrite = 1u << 1,
  kMrAtomic = 1u << 2,
  kMrAll = kMrRead | kMrWrite | kMrAtomic,
};

struct MrEntry {
  uint32_t lkey = 0;   // == rkey in this model.
  NodeId node = kInvalidNode;
  bool physical = false;  // Registered with physical addresses (kernel API).
  uint64_t base = 0;      // VirtAddr (virtual MR) or PhysAddr (physical MR).
  uint64_t length = 0;
  uint32_t access = 0;
  PageTable* page_table = nullptr;  // Translation source for virtual MRs.
};

enum class WcOpcode { kSend, kRdmaWrite, kRdmaRead, kAtomic, kRecv, kRecvImm };

struct Completion {
  uint64_t wr_id = 0;
  WcOpcode opcode = WcOpcode::kSend;
  Status status = Status::Ok();
  uint32_t byte_len = 0;
  uint32_t imm = 0;
  bool has_imm = false;
  NodeId src_node = kInvalidNode;  // For receive completions.
  uint32_t src_qpn = 0;
  uint64_t ready_at_ns = 0;  // Poll returns this entry only once time arrives.
  // Transport-stage decomposition of this WQE's round trip (latency
  // attribution; zero for error/local completions).
  telemetry::WqeLatBreakdown lat;
};

// How a waiting thread "spends" the virtual-time gap until an event arrives;
// determines its modeled CPU utilization (paper Fig. 13).
enum class WaitMode { kBusyPoll, kSleep, kAdaptive };

class Cq;

// Completion channel, the analogue of ibv_comp_channel: any number of CQs
// attach to one channel and one consumer thread serves them all. An attached
// CQ signals its channel on every Push, on Shutdown and on detach; the channel
// lists the CQs that may hold entries, so a wakeup scans the ready CQs only,
// never every attached one.
class CompChannel {
 public:
  struct Event {
    Cq* cq = nullptr;
    Completion completion;
  };

  // Blocks until an attached CQ holds a completion, then removes the one with
  // the earliest ready time across all of them, whatever the caller's clock
  // (its clock is not touched). The event's CQ counts as in service until the
  // next call; Cq::DetachChannel waits for that. nullopt once closed. One
  // consumer thread only.
  std::optional<Event> Next();
  // Ends service: Next() returns nullopt from now on.
  void Close();

 private:
  friend class Cq;
  void Signal(Cq* cq);
  void Detach(Cq* cq);

  std::mutex mu_;
  std::condition_variable work_cv_;  // Wakes the consumer.
  std::condition_variable idle_cv_;  // Wakes detachers when in_service_ moves.
  std::vector<Cq*> ready_;           // CQs that may hold entries, each once.
  Cq* in_service_ = nullptr;
  bool closed_ = false;
};

// Completion queue; may be shared by any number of QPs (this is how LITE uses
// one global receive CQ per node).
class Cq {
 public:
  explicit Cq(const SimParams& params) : params_(params) {}

  // Non-blocking: returns the earliest entry whose virtual ready time has
  // already arrived on the caller's clock (pipelined callers).
  std::optional<Completion> TryPoll();

  // Blocks (really, on a condvar) until an entry exists, then advances the
  // caller's virtual clock to the entry's ready time, charging CPU according
  // to `mode`. Returns nullopt on timeout or shutdown.
  std::optional<Completion> WaitPoll(uint64_t timeout_ns, WaitMode mode,
                                     uint64_t adaptive_budget_ns = 0);

  // Like WaitPoll but only consumes the completion whose wr_id matches;
  // lets many threads await their own completions on one shared CQ without
  // stealing each other's entries.
  std::optional<Completion> WaitPollFor(uint64_t wr_id, uint64_t timeout_ns, WaitMode mode,
                                        uint64_t adaptive_budget_ns = 0);

  // Removes and returns the completion whose wr_id matches, regardless of its
  // ready time, without touching the caller's clock. Used by the async memop
  // retirement path, where the CQE's existence (success/error) is decided at
  // post time and the waiter advances its own clock from ready_at_ns.
  std::optional<Completion> TryTake(uint64_t wr_id);

  void Push(Completion completion);
  size_t Depth() const;
  void Shutdown();

  // Hands this CQ's completions to `channel`'s consumer from now on, tagged
  // with `context` (ibv_create_cq's cq_context). One channel at a time.
  void AttachChannel(CompChannel* channel, void* context);
  // On return the channel hands out none of this CQ's completions any more
  // and its consumer is not serving one (so never call it from the consumer).
  void DetachChannel();
  void* channel_context() const { return channel_context_; }

 private:
  friend class CompChannel;
  // The entry with the earliest ready time (end() if none); mu_ held.
  std::deque<Completion>::iterator EarliestLocked();
  // Channel side: the earliest entry's ready time (nullopt when empty or shut
  // down), and removal of that entry.
  std::optional<uint64_t> EarliestReadyAt();
  std::optional<Completion> TakeEarliest();

  const SimParams& params_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Completion> entries_;
  bool shutdown_ = false;
  // Written under both the channel's mutex and mu_, so either one guards a
  // read; listed_ is guarded by the channel's mutex alone.
  CompChannel* channel_ = nullptr;
  void* channel_context_ = nullptr;
  bool listed_ = false;
};

// kRc/kUd are the classic Verbs types. kDcIni/kDcTgt model a dynamically
// connected transport (DESIGN.md §10): a kDcIni initiator re-targets any
// peer via Connect() (the µs-scale attach is charged by the transport layer,
// not here), and all initiators of a node address one kDcTgt target whose
// single QP context serves every sender — so responder QPC pressure is O(1)
// instead of O(peers). Both behave like RC on the data path.
enum class QpType { kRc, kUd, kDcIni, kDcTgt };

struct Rqe {
  uint64_t wr_id = 0;
  uint32_t lkey = 0;
  uint64_t addr = 0;
  uint64_t length = 0;
};

class Qp {
 public:
  Qp(Rnic* rnic, uint32_t qpn, QpType type, Cq* send_cq, Cq* recv_cq)
      : rnic_(rnic), qpn_(qpn), type_(type), send_cq_(send_cq), recv_cq_(recv_cq) {}

  uint32_t qpn() const { return qpn_; }
  QpType type() const { return type_; }
  Rnic* rnic() const { return rnic_; }
  Cq* send_cq() const { return send_cq_; }
  Cq* recv_cq() const { return recv_cq_; }

  // RC connection target.
  void Connect(NodeId node, uint32_t qpn) {
    remote_node_ = node;
    remote_qpn_ = qpn;
  }
  NodeId remote_node() const { return remote_node_; }
  uint32_t remote_qpn() const { return remote_qpn_; }
  bool connected() const { return remote_node_ != kInvalidNode; }

  Status PostRecv(const Rqe& rqe);
  std::optional<Rqe> TakeRecv();
  // Blocks (real time) until an RQE is posted; models RC RNR retransmission.
  std::optional<Rqe> TakeRecvWait(uint64_t real_timeout_ns);
  size_t RecvDepth() const;

  // ---- Error state (RC reliability model) ----
  // A dropped/partitioned transfer moves an RC QP to the error state, like
  // hardware exhausting its retransmit budget: further PostSends fail fast
  // with kFailedPrecondition until the owner resets the QP. ResetToRts()
  // models the ibv_modify_qp ERR->RESET->INIT->RTR->RTS round-trip (the
  // connection target is preserved); the reconnect's time cost is charged by
  // the caller (LITE's lite_qp_reconnect_ns).
  bool in_error() const { return state_.load(std::memory_order_acquire) != 0; }
  void SetError() { state_.store(1, std::memory_order_release); }
  void ResetToRts() { state_.store(0, std::memory_order_release); }

 private:
  Rnic* const rnic_;
  const uint32_t qpn_;
  const QpType type_;
  Cq* const send_cq_;
  Cq* const recv_cq_;
  NodeId remote_node_ = kInvalidNode;
  uint32_t remote_qpn_ = 0;
  std::atomic<int> state_{0};  // 0 = RTS, 1 = error

  mutable std::mutex rq_mu_;
  std::condition_variable rq_cv_;
  std::deque<Rqe> rq_;
};

enum class WrOpcode { kWrite, kWriteImm, kRead, kSend, kFetchAdd, kCmpSwap };

struct WorkRequest {
  WrOpcode opcode = WrOpcode::kWrite;
  uint64_t wr_id = 0;

  // Local buffer: lkey names the MR; addr is a VirtAddr for virtual MRs or a
  // PhysAddr for physical MRs; length in bytes.
  uint32_t lkey = 0;
  uint64_t local_addr = 0;
  uint64_t length = 0;

  // If non-null, the local buffer is plain host memory the kernel addresses
  // physically (LITE's zero-copy user-buffer path, paper Sec. 4.1): no lkey
  // lookup and no page-table walk on the local side.
  void* host_local = nullptr;

  // Remote target for one-sided ops (same addressing convention, governed by
  // the remote MR named by rkey).
  uint32_t rkey = 0;
  uint64_t remote_addr = 0;

  uint32_t imm = 0;  // For kWriteImm.

  // UD destination (ignored for RC).
  NodeId ud_dst_node = kInvalidNode;
  uint32_t ud_dst_qpn = 0;

  // Atomics.
  uint64_t compare_add = 0;
  uint64_t swap = 0;
  uint64_t* atomic_result = nullptr;  // Valid once the completion is polled.

  // Unsignaled work requests generate no success completion (LITE's RPC
  // writes are unsignaled: failures are detected by reply timeout, paper
  // Sec. 5.1). Error completions are always delivered.
  bool signaled = true;

  // Opt-in fast-path hints (both default off so existing blocking paths are
  // byte-identical with the flags idle):
  //   doorbell_hint — this post may share a doorbell with an immediately
  //     preceding post to the same QP (within rnic_doorbell_window_ns),
  //     paying rnic_post_wqe_ns instead of the full rnic_post_ns.
  //   inline_data — for writes with length <= rnic_inline_max, the payload is
  //     copied into the WQE at post time, skipping the local DMA-read stage
  //     (local engine occupancy drops to rnic_inline_process_ns).
  bool doorbell_hint = false;
  bool inline_data = false;
};

class Rnic {
 public:
  Rnic(NodeId node, const SimParams& params, PhysMem* mem, FabricPort* port,
       RnicDirectory* directory);

  NodeId node() const { return node_; }
  const SimParams& params() const { return params_; }
  PhysMem* mem() const { return mem_; }

  // ---- Resource management (driver-level; costs charged by callers) ----
  StatusOr<MrEntry> RegisterMrVirtual(PageTable* pt, VirtAddr addr, uint64_t length,
                                      uint32_t access);
  StatusOr<MrEntry> RegisterMrPhysical(PhysAddr addr, uint64_t length, uint32_t access);
  Status DeregisterMr(uint32_t lkey);
  StatusOr<MrEntry> LookupMr(uint32_t key) const;
  size_t MrCount() const;

  Cq* CreateCq();
  Qp* CreateQp(QpType type, Cq* send_cq, Cq* recv_cq);
  Qp* LookupQp(uint32_t qpn) const;
  size_t QpCount() const;

  // ---- Data path ----
  // Posts a work request; returns once the doorbell is rung. The completion
  // (with status) appears on the QP's send CQ. Two-sided deliveries appear on
  // the target QP's recv CQ.
  Status PostSend(Qp* qp, const WorkRequest& wr);

  // Cache statistics (for tests and the ablation benches).
  const LruCache& mpt_cache() const { return mpt_cache_; }
  const LruCache& mtt_cache() const { return mtt_cache_; }
  const LruCache& qpc_cache() const { return qpc_cache_; }
  uint64_t ops_posted() const { return ops_posted_.load(std::memory_order_relaxed); }

  // ---- Fast-path telemetry (doorbell batching / selective signaling /
  // inline sends) ----
  uint64_t doorbells_rung() const { return doorbells_.load(std::memory_order_relaxed); }
  uint64_t wqes_batched() const { return wqes_batched_.load(std::memory_order_relaxed); }
  uint64_t inline_sends() const { return inline_sends_.load(std::memory_order_relaxed); }
  uint64_t wqes_signaled() const { return wqes_signaled_.load(std::memory_order_relaxed); }
  uint64_t wqes_unsignaled() const {
    return wqes_unsignaled_.load(std::memory_order_relaxed);
  }
  // Node-level telemetry wiring: batch sizes are recorded into this histogram
  // whenever a doorbell batch closes (next doorbell rings). May stay null.
  void SetDoorbellBatchHistogram(telemetry::FixedHistogram* hist) {
    doorbell_batch_hist_.store(hist, std::memory_order_release);
  }

  // Latency attribution: transport breakdown of the calling thread's most
  // recent PostSend (the same values carried on its Completion). Unsignaled
  // posts get no send CQE, so the RPC request path reads the thread-local
  // mirror instead. Reset clears it (loopback paths that bypass PostSend).
  static telemetry::WqeLatBreakdown LastPostBreakdown();
  static void ResetLastPostBreakdown();

 private:
  friend class Qp;

  struct Resolved {
    std::vector<PhysRange> ranges;
    uint8_t* host = nullptr;  // Set instead of `ranges` for host-memory buffers.
    uint64_t cache_penalty_ns = 0;
  };

  // Validates + translates an MR-relative access, charging this NIC's cache
  // penalties into `resolved.cache_penalty_ns` (not yet realized).
  StatusOr<Resolved> ResolveOnNic(uint32_t key, uint64_t addr, uint64_t length,
                                  uint32_t required_access);

  // Reserves NIC engine occupancy; returns the engine finish time (ns).
  uint64_t ReserveEngine(uint64_t earliest_ns, uint64_t occupancy_ns);

  // Absolute finish time of a one-way transfer to `remote` starting no
  // earlier than `earliest_ns`, or Fabric::kDropped under failure injection.
  // `queue_ns_out` accumulates the transfer's port-queueing share.
  uint64_t FinishOrDrop(Rnic* remote, uint64_t bytes, uint64_t earliest_ns,
                        TransferFaults* faults_out = nullptr, uint64_t* queue_ns_out = nullptr);
  // Same, for the reverse direction (remote -> this node): read responses.
  uint64_t FinishOrDropFrom(Rnic* remote, uint64_t bytes, uint64_t earliest_ns,
                            uint64_t* queue_ns_out = nullptr);

  // Copies `len` bytes between resolved buffers (physical fragments on any
  // node, or host memory); this is the DMA engine.
  void CopyResolved(const Resolved& src, const Resolved& dst, uint64_t len);

  void PushSendCompletion(Qp* qp, const WorkRequest& wr, Status status, uint64_t ready_at);

  Status ExecuteOneSided(Qp* qp, const WorkRequest& wr, Rnic* remote);
  Status ExecuteSend(Qp* qp, const WorkRequest& wr, Rnic* remote, uint32_t dst_qpn);
  Status ExecuteAtomic(Qp* qp, const WorkRequest& wr, Rnic* remote);

  const NodeId node_;
  const SimParams& params_;
  PhysMem* const mem_;
  FabricPort* const port_;
  RnicDirectory* const directory_;

  LruCache mpt_cache_;
  LruCache mtt_cache_;
  LruCache qpc_cache_;

  // Charges the host-side post cost for `wr`: a full doorbell (rnic_post_ns),
  // or the per-extra-WQE increment when the post batches with the previous
  // one on the same QP. Tracks per-thread batch state and records closed
  // batch sizes into the doorbell histogram.
  void ChargePostCost(Qp* qp, const WorkRequest& wr);

  RateWindow engine_capacity_;  // Windowed processing-engine occupancy.
  std::atomic<uint64_t> ops_posted_{0};
  std::atomic<uint64_t> doorbells_{0};
  std::atomic<uint64_t> wqes_batched_{0};
  std::atomic<uint64_t> inline_sends_{0};
  std::atomic<uint64_t> wqes_signaled_{0};
  std::atomic<uint64_t> wqes_unsignaled_{0};
  std::atomic<telemetry::FixedHistogram*> doorbell_batch_hist_{nullptr};
  std::atomic<uint32_t> next_key_{1};
  std::atomic<uint32_t> next_qpn_{1};

  mutable SpinLock mr_mu_;
  std::unordered_map<uint32_t, MrEntry> mrs_;

  mutable SpinLock qp_mu_;
  std::vector<std::unique_ptr<Qp>> qps_;
  std::unordered_map<uint32_t, Qp*> qp_index_;
  std::vector<std::unique_ptr<Cq>> cqs_;
};

}  // namespace lt

#endif  // SRC_RNIC_RNIC_H_
