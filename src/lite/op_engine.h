// OpEngine — the single op-submission engine all three LITE data paths post
// through (paper Secs. 4, 6: one shared kernel path for memops and RPC).
//
// Every op is built from the same five steps, each with one home:
//   * Post — one gated post of a WR on a leased transport handle: the
//     migration gate at the target, the QP lock, Prepare (QP recovery / DC
//     re-target), PostSend, gate close;
//   * LoopbackCopy — a piece whose target is this node: gate, local copy,
//     close (no RNIC involved);
//   * PostAndWait / Repost — the one retry loop (backoff, QP recovery,
//     dead-peer fast fail) every failed or unposted piece goes through;
//   * lt::ApplyAtomic — the one read-modify-write on node memory, shared by
//     loopback atomics and the RNIC responder;
//   * the lh-level stale-home redirect loop (LiteInstance::IssueRedirected)
//     that re-resolves a migrated LMR and re-issues the op in full.
// The submitters:
//   * blocking memops — SubmitPieces ("issue all pieces, wait all"). A
//     one-piece op is the latency path the paper measures: it is QoS-admitted
//     even when local and posts on a plain lease; several pieces share a
//     sticky QP per destination, doorbell-batched, small writes inline;
//   * async memops — IssueAsyncPieces posts every piece immediately and
//     returns a completion handle retired by Poll/Wait/WaitAll;
//   * RPC — ring posts, replies and head-mirror publishes are unsignaled
//     OneSidedWriteImm / OneSidedWrite posts on the same spine (RPC-level
//     retransmits count into lite.engine.retries through CountRetry()).
#ifndef SRC_LITE_OP_ENGINE_H_
#define SRC_LITE_OP_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/lite/transport.h"
#include "src/lite/types.h"
#include "src/node/node.h"
#include "src/telemetry/journal.h"

namespace lite {

using lt::Status;
using lt::StatusOr;

class LiteInstance;

class OpEngine {
 public:
  explicit OpEngine(LiteInstance* inst) : inst_(inst) {}

  OpEngine(const OpEngine&) = delete;
  OpEngine& operator=(const OpEngine&) = delete;

  // One piece of a (possibly multi-chunk) memop, as submitted to the engine:
  // a remote (node, addr) range paired with its user-buffer cursor.
  struct OpDesc {
    NodeId node = kInvalidNode;
    PhysAddr addr = 0;
    void* local = nullptr;
    uint64_t len = 0;
  };

  // ---- Blocking submission ("issue all pieces, wait all") ----
  // Posts every remote piece signaled before waiting on any, so pieces on
  // different chunks/nodes overlap on the wire; local pieces complete
  // inline. Failed pieces are re-posted through the retry loop (transient
  // drops back off, errored QPs are recovered first). Returns the first
  // error, after draining every piece.
  Status SubmitPieces(const std::vector<OpDesc>& pieces, bool is_read, Priority pri);
  // 8-byte FETCH_ADD (is_cas false) or CMP_SWAP; returns the old value.
  // Exactly-once under retry: a dropped atomic is rejected by the responder
  // before the memory operation is applied.
  StatusOr<uint64_t> RemoteAtomic(NodeId dst, PhysAddr addr, bool is_cas, uint64_t compare_add,
                                  uint64_t swap);

  // ---- Unsignaled posts (RPC spine) ----
  // Fire-and-forget: errors surface on the next signaled user of the QP (or
  // as an RPC reply timeout, paper Sec. 5.1). OneSidedWriteImm carries an
  // RPC ring entry or reply; OneSidedWrite publishes a ring head mirror.
  Status OneSidedWriteImm(NodeId dst, PhysAddr dst_addr, const void* src, uint64_t len,
                          uint32_t imm, Priority pri) {
    return PostUnsignaled(dst, dst_addr, src, len, &imm, pri);
  }
  Status OneSidedWrite(NodeId dst, PhysAddr dst_addr, const void* src, uint64_t len,
                       Priority pri) {
    return PostUnsignaled(dst, dst_addr, src, len, nullptr, pri);
  }

  // ---- Async completion-handle pipeline ----
  // Issues one async memop's pieces (unsignaled + selective signaling, see
  // memops_async.cc) and returns its handle. Caller did lh/permission checks.
  // The origin fields describe the whole memop in lh space; when given, an op
  // that retires with kStaleHome is transparently re-resolved and re-issued
  // against the LMR's new home (LT_wait then returns the redo's status).
  // `reserved_handle` (ring path) registers the op under a handle already
  // handed to the caller by ReserveHandle(); 0 assigns a fresh one.
  StatusOr<MemopHandle> IssueAsyncPieces(const std::vector<OpDesc>& pieces, bool is_read,
                                         Priority pri, Lh origin_lh = 0, uint64_t origin_off = 0,
                                         void* origin_buf = nullptr, uint64_t origin_len = 0,
                                         MemopHandle reserved_handle = 0);
  // Pre-assigns a completion handle for an op whose registration is
  // deferred (per-CPU submission rings): the client returns the handle to
  // the application immediately; the drain registers the op under it.
  MemopHandle ReserveHandle() { return next_memop_handle_.fetch_add(1); }
  // Registers a reserved handle whose deferred op failed before issue (lh
  // died between enqueue and drain): Poll/Wait surface `result` for it.
  void InsertFailedHandle(MemopHandle h, const Status& result);
  // Crossing-free readiness checks against the shared completion state (the
  // user library reads the completion flag without entering the kernel). A
  // handle that no longer exists reads as ready: consuming it cannot block.
  bool HandleReady(MemopHandle h) const;
  bool AllHandlesReady() const;
  // Registers an already-sent single-attempt RPC as an async op retired
  // through the same handle machinery.
  StatusOr<MemopHandle> InsertAsyncRpc(uint32_t rpc_slot, void* out, uint32_t out_max,
                                       uint32_t* out_len, Priority pri);
  StatusOr<bool> Poll(MemopHandle h);
  Status Wait(MemopHandle h);
  // Appends every retired handle's final status to `results` (when
  // non-null) so errors past the first are not swallowed.
  Status WaitAll(std::vector<std::pair<MemopHandle, Status>>* results = nullptr);
  size_t AsyncInFlight() const;

  // Resolves the API timeout sentinels (types.h) and applies the hang-
  // backstop cap — the single home of the old duplicated clamp logic.
  uint64_t EffectiveTimeoutNs(uint64_t requested_ns) const;

  // RPC-level retransmits ride the engine spine too; RpcCall reports them
  // here so lite.engine.retries covers every transparent re-send.
  void CountRetry() {
    if (engine_retries_ != nullptr) {
      engine_retries_->Inc();
    }
  }

  // Registers the engine's lite.* instruments (constructor-time, via
  // LiteInstance::RegisterTelemetry; pointers cached for the hot path).
  void RegisterTelemetry(lt::telemetry::Registry& reg, lt::telemetry::Journal* journal);

 private:
  // One posted WQE of an async memop (one chunk piece).
  struct AsyncWqe {
    TransportHandle h;     // Leased transport slot (dst + pool slot).
    lt::WorkRequest wr;    // Retained so a failed WQE can be re-posted.
    bool signaled = false;
    bool posted = false;   // False: post failed at issue; retried at retire.
    uint64_t stream_pos = 0;
    bool done = false;     // Local pieces complete at issue time.
    uint64_t ready_at_ns = 0;
  };
  enum class AsyncOpState { kInFlight, kRetiring, kDone };
  struct AsyncOp {
    MemopHandle id = 0;
    AsyncOpState state = AsyncOpState::kInFlight;
    bool is_rpc = false;
    Priority pri = Priority::kHigh;
    std::vector<AsyncWqe> wqes;       // Memop ops.
    uint32_t rpc_slot = 0;            // RPC ops: reply rendezvous + output.
    void* rpc_out = nullptr;
    uint32_t rpc_out_max = 0;
    uint32_t* rpc_out_len = nullptr;
    Status result = Status::Ok();     // Valid once state == kDone.
    uint64_t ready_at_ns = 0;
    // Origin of the memop in lh space (see IssueAsyncPieces): enables the
    // transparent stale-home redo at retirement. origin_lh == 0 disables it.
    Lh origin_lh = 0;
    uint64_t origin_off = 0;
    void* origin_buf = nullptr;
    uint64_t origin_len = 0;
    bool origin_is_read = false;
    // Error decided at issue time (e.g. a local piece NACKed by the
    // migration gate); folded into the result at retirement.
    Status issue_error = Status::Ok();
    // Latency attribution record detached from the issuing API scope;
    // committed when the op retires (latency_attr.h).
    lt::telemetry::OpAttrRecord attr;
  };
  // Per-(destination, QP) selective-signaling stream: which positions have a
  // harvested covering CQE, and which signaled WQEs are still pending.
  struct AsyncStream {
    uint64_t next_pos = 0;
    uint64_t covered_pos = 0;       // Positions < covered_pos are fenced.
    uint64_t covered_ready_ns = 0;  // Virtual time the fence completed.
    std::map<uint64_t, uint64_t> signaled_pending;  // stream_pos -> wr_id
  };

  uint64_t NextWrId() { return next_wr_id_.fetch_add(1); }

  // Engine op accounting (HealthWatchdog conservation invariant:
  // lite.engine.ops == ops_ok + ops_failed + in_flight). Every engine entry
  // point Begins exactly once and Finishes exactly once — blocking ops at
  // return (Accounted), async ops when their state reaches kDone.
  void BeginEngineOp() {
    engine_ops_->Inc();
    engine_inflight_.fetch_add(1, std::memory_order_relaxed);
  }
  void FinishEngineOp(bool ok) {
    (ok ? engine_ops_ok_ : engine_ops_failed_)->Inc();
    engine_inflight_.fetch_sub(1, std::memory_order_relaxed);
  }
  // Runs one blocking engine op inside the Begin/Finish accounting.
  template <typename Fn>
  auto Accounted(Fn&& body) {
    BeginEngineOp();
    auto r = body();
    FinishEngineOp(r.ok());
    return r;
  }

  // QoS admission of `len` bytes at `pri`, stamped as the qos stage.
  void Admit(Priority pri, uint64_t len);
  // A signaled-by-default READ/WRITE WR for a remote piece; `batch` asks
  // the RNIC for doorbell batching and (writes) inline data.
  lt::WorkRequest DataWr(const OpDesc& piece, bool is_read, bool batch);
  // The one gated post: opens the target's migration gate for data WRs,
  // posts under the slot lock after Prepare, closes the gate. Returns the
  // gate's NACK (kStaleHome, or kUnavailable when the fence wait timed
  // out) or PostSend's status. `recovered` reports that Prepare reset an
  // errored QP first.
  Status Post(const TransportHandle& h, lt::WorkRequest* wr, bool* recovered = nullptr);
  // The one loopback access: a piece on this node, gated and copied locally.
  Status LoopbackCopy(const OpDesc& piece, bool is_read);
  // Waits for the CQE of a posted signaled WR (nullopt on timeout); stamps
  // the wait as the round trip's stages, or as a detour when it failed.
  std::optional<lt::Completion> AwaitCqe(const TransportHandle& h, uint64_t wr_id);
  // Posts a signaled WR and waits for its completion, retrying retryable
  // failures (drops, fence timeouts) with backoff and QP recovery. Returns
  // the successful completion, or the last error. `pinned` pins the
  // transport handle (the async flush fence must land on the stream's own
  // QP); null leases one per attempt.
  StatusOr<lt::Completion> PostAndWait(NodeId dst, lt::WorkRequest* wr, Priority pri,
                                       const TransportHandle* pinned = nullptr);
  // The one re-post of a failed (or never-posted) piece: dead-peer fast
  // fail, then — when the piece had reached the wire — counts and journals
  // a retry, then re-posts it signaled through PostAndWait.
  StatusOr<lt::Completion> Repost(NodeId dst, const lt::WorkRequest& wr, bool was_posted,
                                  Priority pri);
  // Body of OneSidedWriteImm (imm != null) and OneSidedWrite.
  Status PostUnsignaled(NodeId dst, PhysAddr dst_addr, const void* src, uint64_t len,
                        const uint32_t* imm, Priority pri);

  // Commits a retired async op's attribution record (no-op when inactive).
  void CommitAsyncAttr(AsyncOp* op);
  // Backpressure: retires the oldest in-flight ops until the window has
  // room, waiting on the cv while every one is being retired elsewhere.
  void WaitForWindowLocked(std::unique_lock<std::mutex>& lock);
  // Retires an in-flight `op` (async_mu_ held via `lock`), memop or RPC.
  void RetireLocked(std::unique_lock<std::mutex>& lock, AsyncOp* op);
  // Marks a retiring op kDone with `result` ready at `ready_at_ns`, commits
  // its attribution and closes its engine-op accounting.
  void FinishAsyncLocked(AsyncOp* op, const Status& result, uint64_t ready_at_ns);
  // Retires an RPC-kind op; drops the lock around the reply wait (the reply
  // is delivered by the poll thread, which never takes async_mu_).
  void RetireRpcUnlocked(std::unique_lock<std::mutex>& lock, AsyncOp* op);
  // Retires `op` (state must be kRetiring; async_mu_ held via `lock`):
  // harvests or infers each WQE's completion, re-posting failed WQEs with
  // the blocking path's retry semantics, then marks the op kDone. A
  // kStaleHome result with a known origin drops the lock and re-issues the
  // whole memop against the LMR's new home (exactly-once for the caller).
  void RetireMemopLocked(std::unique_lock<std::mutex>& lock, AsyncOp* op);
  // Finds a completion for `wr_id`: the shared harvest map first, then the
  // CQ itself (async CQEs exist from post time; only ready_at is future).
  std::optional<lt::Completion> TakeAsyncCompletionLocked(lt::Cq* cq, uint64_t wr_id);
  // Consumes a kDone op's result (erases the record).
  Status ConsumeAsyncLocked(std::map<MemopHandle, std::unique_ptr<AsyncOp>>::iterator it);

  LiteInstance* const inst_;

  std::atomic<uint64_t> next_wr_id_{1};

  // Async completion-handle state (the completion ring). One mutex covers
  // the op table, the signaling streams, and the harvest map; the cv wakes
  // window-full issuers and waiters racing a concurrent retirer.
  mutable std::mutex async_mu_;
  std::condition_variable async_cv_;
  std::map<MemopHandle, std::unique_ptr<AsyncOp>> async_ops_;  // Oldest first.
  std::atomic<uint64_t> next_memop_handle_{1};
  size_t async_inflight_ = 0;  // Ops not yet kDone.
  std::map<std::pair<NodeId, int>, AsyncStream> async_streams_;
  std::unordered_map<uint64_t, lt::Completion> async_harvested_;  // wr_id -> CQE

  // Telemetry instruments (owned by the node's registry; cached pointers so
  // the hot path never does a name lookup).
  lt::telemetry::Counter* engine_ops_ = nullptr;
  lt::telemetry::Counter* engine_ops_ok_ = nullptr;
  lt::telemetry::Counter* engine_ops_failed_ = nullptr;
  std::atomic<int64_t> engine_inflight_{0};
  lt::telemetry::Counter* engine_pieces_overlapped_ = nullptr;
  lt::telemetry::Counter* engine_retries_ = nullptr;
  lt::telemetry::Counter* oneside_retries_ = nullptr;
  lt::telemetry::Counter* unsignaled_recovered_ = nullptr;
  // Async fast-path instruments (docs/TELEMETRY.md, "Async fast path").
  lt::telemetry::Counter* async_ops_issued_ = nullptr;
  lt::telemetry::Counter* async_inferred_ = nullptr;
  lt::telemetry::Counter* async_flush_fences_ = nullptr;
  lt::telemetry::Journal* journal_ = nullptr;
};

}  // namespace lite

#endif  // SRC_LITE_OP_ENGINE_H_
