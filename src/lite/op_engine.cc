// OpEngine implementation: the shared steps (gated Post, LoopbackCopy, the
// PostAndWait/Repost retry loop), the blocking submitters built from them
// (SubmitPieces, RemoteAtomic, the unsignaled RPC posts), and the async
// completion-handle machinery.
//
// Concurrency: one mutex (async_mu_) covers the op table, the per-stream
// signaling state, and the shared harvest map (a CQE taken on behalf of a
// different op's WQE parks there until its owner retires). In this simulator
// every CQE exists from post time — only its ready_at is in the future — so
// retirement never blocks on real time; waiters advance their own virtual
// clocks from the harvested ready times.
#include "src/lite/op_engine.h"

#include <algorithm>
#include <cstdint>

#include "src/common/logging.h"
#include "src/common/timing.h"
#include "src/lite/instance.h"
#include "src/rnic/rnic.h"
#include "src/telemetry/latency_attr.h"

namespace lite {

using lt::Completion;
using lt::NowNs;
using lt::SpinFor;
using lt::SyncToBusy;
using lt::WaitMode;
using lt::WcOpcode;
using lt::WorkRequest;
using lt::WrOpcode;
using lt::telemetry::AttrAdd;
using lt::telemetry::AttrAddSplit;
using lt::telemetry::LatStage;

namespace {

// One hour of simulated time: effectively infinite for any benchmark yet
// finite, so a lost wakeup cannot hang a run forever.
constexpr uint64_t kLongTimeoutCapNs = 3'600ull * 1'000'000'000ull;

bool TransientCode(const Status& s) {
  return s.code() == lt::StatusCode::kUnavailable || s.code() == lt::StatusCode::kTimeout;
}

// Issuer-side migration gate (the simulated analogue of the responder NIC
// checking its protection tables): consults `target`'s migration guard before
// a data access to its memory. kOk means proceed — the caller must
// CloseAccess(gate, landed) once the post's outcome is known.
Status GateAccess(LiteInstance* issuer, LiteInstance* target, PhysAddr addr, uint64_t len,
                  bool is_write, AccessGate* gate) {
  if (target == nullptr) {
    return Status::Ok();
  }
  switch (target->migration().OpenAccess(addr, len, is_write, issuer->node_id(), gate)) {
    case MigrationState::Gate::kStale:
      return Status::StaleHome("target LMR migrated away; re-resolve its home");
    case MigrationState::Gate::kBusy:
      return Status::Unavailable("migration fence busy");
    case MigrationState::Gate::kClear:
      break;
  }
  return Status::Ok();
}

// True for WRs that may touch LMR data at the destination and therefore go
// through the migration gate. Zero-length writes (async flush fences) and
// write-imm RPC traffic are exempt; other ring memory (head mirrors) never
// lies in a migrating range, so its gate check always clears.
bool GatedDataOp(const lt::WorkRequest& wr) {
  switch (wr.opcode) {
    case WrOpcode::kRead:
      return true;
    case WrOpcode::kWrite:
      return wr.length > 0;
    case WrOpcode::kFetchAdd:
    case WrOpcode::kCmpSwap:
      return true;
    default:
      return false;
  }
}

}  // namespace

void OpEngine::RegisterTelemetry(lt::telemetry::Registry& reg, lt::telemetry::Journal* journal) {
  journal_ = journal;
  // Engine-level instruments (docs/TELEMETRY.md, "Op-submission engine").
  engine_ops_ = reg.GetCounter("lite.engine.ops");
  engine_ops_ok_ = reg.GetCounter("lite.engine.ops_ok");
  engine_ops_failed_ = reg.GetCounter("lite.engine.ops_failed");
  reg.RegisterProbe("lite.engine.in_flight", [this] {
    const int64_t v = engine_inflight_.load(std::memory_order_relaxed);
    return v > 0 ? static_cast<uint64_t>(v) : 0;
  });
  engine_pieces_overlapped_ = reg.GetCounter("lite.engine.pieces_overlapped");
  engine_retries_ = reg.GetCounter("lite.engine.retries");
  // Fault & recovery instruments (docs/TELEMETRY.md).
  oneside_retries_ = reg.GetCounter("lite.oneside.retries");
  unsignaled_recovered_ = reg.GetCounter("lite.oneside.unsignaled_recovered");
  // Async fast-path instruments (docs/TELEMETRY.md, "Async fast path").
  async_ops_issued_ = reg.GetCounter("lite.async.ops");
  async_inferred_ = reg.GetCounter("lite.async.inferred_completions");
  async_flush_fences_ = reg.GetCounter("lite.async.flush_fences");
  reg.RegisterProbe("lite.async.in_flight",
                    [this] { return static_cast<uint64_t>(AsyncInFlight()); });
}

uint64_t OpEngine::EffectiveTimeoutNs(uint64_t requested_ns) const {
  uint64_t t =
      requested_ns == kDefaultTimeout ? inst_->params().lite_rpc_timeout_ns : requested_ns;
  return std::min(t, kLongTimeoutCapNs);
}

// ----------------------------------------------------------- shared steps

void OpEngine::Admit(Priority pri, uint64_t len) {
  const uint64_t qos_t0 = NowNs();
  inst_->qos_.Admit(pri, len);
  AttrAdd(LatStage::kLatQosWait, NowNs() - qos_t0);
}

WorkRequest OpEngine::DataWr(const OpDesc& piece, bool is_read, bool batch) {
  WorkRequest wr;
  wr.opcode = is_read ? WrOpcode::kRead : WrOpcode::kWrite;
  wr.host_local = piece.local;
  wr.length = piece.len;
  wr.rkey = inst_->peer_global_rkey_[piece.node];
  wr.remote_addr = piece.addr;
  wr.signaled = true;
  wr.doorbell_hint = batch;
  wr.inline_data = batch && !is_read;  // The RNIC applies its rnic_inline_max cut.
  wr.wr_id = NextWrId();
  return wr;
}

Status OpEngine::Post(const TransportHandle& h, WorkRequest* wr, bool* recovered) {
  Transport& tr = *inst_->transport_;
  // Migration gate, opened per post (a retry must re-check the phase: the
  // fence may have committed in between). The gate may park here — real-time
  // wait, zero virtual charge — until the fence resolves.
  LiteInstance* peer = inst_->Peer(h.dst);
  AccessGate gate;
  if (GatedDataOp(*wr)) {
    const bool atomic = wr->opcode == WrOpcode::kFetchAdd || wr->opcode == WrOpcode::kCmpSwap;
    LT_RETURN_IF_ERROR(GateAccess(inst_, peer, wr->remote_addr, atomic ? 8 : wr->length,
                                  wr->opcode != WrOpcode::kRead, &gate));
  }
  Status posted = Status::Ok();
  const uint64_t post_t0 = NowNs();
  {
    // The QP lock covers only the post; waiting happens outside so threads
    // sharing a pool QP overlap their in-flight ops (the whole point of the
    // shared pool, Sec. 6.1). Prepare recovers an errored QP and, under DC,
    // re-attaches a stolen slot to this handle's destination.
    std::lock_guard<std::mutex> lock(tr.Mu(h));
    const bool reset = tr.Prepare(h);
    if (recovered != nullptr) {
      *recovered = reset;
    }
    posted = inst_->rnic().PostSend(tr.Qp(h), *wr);
  }
  AttrAdd(LatStage::kLatPost, NowNs() - post_t0);
  // Data movement is synchronous inside PostSend (the simulated DMA), so the
  // gate closes right after the post: an Ok post means the bytes are at the
  // destination (or dirty-logged harmlessly if the fabric dropped the
  // request — the error surfaces via the CQE).
  if (peer != nullptr) {
    peer->migration().CloseAccess(&gate, posted.ok());
  }
  return posted;
}

Status OpEngine::LoopbackCopy(const OpDesc& piece, bool is_read) {
  AccessGate gate;
  LT_RETURN_IF_ERROR(GateAccess(inst_, inst_, piece.addr, piece.len, !is_read, &gate));
  const uint64_t copy_t0 = NowNs();
  if (is_read) {
    inst_->LocalCopyOut(piece.local, piece.addr, piece.len);
  } else {
    inst_->LocalCopyIn(piece.addr, piece.local, piece.len);
  }
  AttrAdd(LatStage::kLatPost, NowNs() - copy_t0);
  inst_->migration().CloseAccess(&gate, /*success=*/true);
  return Status::Ok();
}

std::optional<Completion> OpEngine::AwaitCqe(const TransportHandle& h, uint64_t wr_id) {
  const uint64_t wait_t0 = NowNs();
  auto c = inst_->transport_->Qp(h)->send_cq()->WaitPollFor(
      wr_id, inst_->params().lite_rpc_timeout_ns, WaitMode::kBusyPoll);
  const uint64_t wait_dt = NowNs() - wait_t0;
  if (c.has_value() && c->status.ok()) {
    AttrAddSplit(wait_dt, c->lat);
  } else {
    AttrAdd(LatStage::kLatDetour, wait_dt);
  }
  return c;
}

StatusOr<Completion> OpEngine::PostAndWait(NodeId dst, WorkRequest* wr, Priority pri,
                                           const TransportHandle* pinned) {
  Transport& tr = *inst_->transport_;
  const uint32_t max_retries = inst_->params().lite_rpc_max_retries;
  uint64_t backoff_ns = inst_->params().lite_rpc_retry_backoff_ns;
  Status last = Status::Timeout("one-sided completion timeout");
  for (uint32_t attempt = 0; attempt <= max_retries; ++attempt) {
    if (attempt > 0) {
      oneside_retries_->Inc();
      engine_retries_->Inc();
      lt::IdleFor(backoff_ns);
      AttrAdd(LatStage::kLatDetour, backoff_ns);
      if (journal_ != nullptr) {
        journal_->Record(lt::telemetry::JournalEvent::kOnesideRetry, dst, attempt);
      }
      backoff_ns *= 2;
      if (inst_->PeerDead(dst)) {
        inst_->rpc_dead_fast_fail_->Inc();
        return DeadPeerUnavailable();
      }
    }
    TransportHandle h = pinned != nullptr ? *pinned : tr.Lease(dst, pri);
    if (!tr.Valid(h)) {
      return Status::Unavailable("no QP to destination node");
    }
    wr->wr_id = NextWrId();
    Status posted = Post(h, wr);
    if (!posted.ok()) {
      last = posted;
      // A fence still busy at the gate, or a post that lost a race to a
      // concurrent QP error: transient, recover and retry. kStaleHome is
      // final here — the caller must re-resolve the home.
      if (posted.code() == lt::StatusCode::kUnavailable ||
          posted.code() == lt::StatusCode::kFailedPrecondition) {
        continue;
      }
      return posted;
    }
    auto c = AwaitCqe(h, wr->wr_id);
    if (!c.has_value()) {
      last = Status::Timeout("one-sided completion timeout");
      continue;
    }
    if (c->status.ok()) {
      return *c;
    }
    last = c->status;
    if (!TransientCode(last)) {
      return last;  // Non-transient (permission, bounds): do not retry.
    }
  }
  return last;
}

StatusOr<Completion> OpEngine::Repost(NodeId dst, const WorkRequest& wr, bool was_posted,
                                      Priority pri) {
  if (inst_->PeerDead(dst)) {
    inst_->rpc_dead_fast_fail_->Inc();
    return DeadPeerUnavailable();
  }
  if (was_posted) {
    // The original WQE reached the wire and failed (or timed out): a true
    // retry. A piece that never posted is simply issued late.
    oneside_retries_->Inc();
    engine_retries_->Inc();
    if (journal_ != nullptr) {
      journal_->Record(lt::telemetry::JournalEvent::kOnesideRetry, dst, 0);
    }
  }
  WorkRequest again = wr;
  again.signaled = true;
  again.doorbell_hint = false;
  return PostAndWait(dst, &again, pri);
}

// ------------------------------------------------------ blocking submission

Status OpEngine::SubmitPieces(const std::vector<OpDesc>& pieces, bool is_read, Priority pri) {
  return Accounted([&]() -> Status {
    const uint64_t start = NowNs();
    // A one-piece op is the latency path (fig06): QoS-admitted even when
    // local, posted on a plain lease without doorbell batching or inline
    // data. Several pieces post back-to-back on a sticky QP per destination
    // so the RNIC batches their doorbells; small writes go inline.
    const bool batch = pieces.size() > 1;
    struct Posted {
      TransportHandle h;
      WorkRequest wr;
      Status post = Status::Ok();
    };
    Transport& tr = *inst_->transport_;
    Status result = Status::Ok();
    std::vector<Posted> remote;
    remote.reserve(pieces.size());
    for (const OpDesc& piece : pieces) {
      const bool local = piece.node == inst_->node_id();
      if (!local || !batch) {
        Admit(pri, piece.len);
      }
      if (local) {
        Status s = LoopbackCopy(piece, is_read);
        if (!s.ok() && result.ok()) {
          result = s;
        }
        continue;
      }
      Posted p;
      p.h = batch ? tr.LeaseSticky(piece.node, pri) : tr.Lease(piece.node, pri);
      p.wr = DataWr(piece, is_read, batch);
      p.post = tr.Valid(p.h) ? Post(p.h, &p.wr) : Status::Unavailable("no QP to destination node");
      remote.push_back(std::move(p));
    }
    if (remote.size() > 1) {
      engine_pieces_overlapped_->Inc(remote.size());
    }

    // Wait phase: harvest every piece, re-posting failures through the
    // retry loop. All pieces drain even after an error, so no WQE is left
    // dangling against the caller's buffer.
    uint64_t ready = 0;
    for (Posted& p : remote) {
      std::optional<Completion> c;
      if (p.post.ok()) {
        c = AwaitCqe(p.h, p.wr.wr_id);
      }
      Status s = Status::Ok();
      if (c.has_value() && c->status.ok()) {
        ready = std::max(ready, c->ready_at_ns);
      } else if (c.has_value() && !TransientCode(c->status)) {
        s = c->status;  // Non-transient (permission, bounds): do not retry.
      } else if (p.post.code() == lt::StatusCode::kStaleHome) {
        s = p.post;  // The caller re-resolves the home and re-issues.
      } else {
        auto rc = Repost(p.h.dst, p.wr, p.post.ok(), pri);
        if (rc.ok()) {
          ready = std::max(ready, rc->ready_at_ns);
        } else {
          s = rc.status();
        }
      }
      if (!s.ok() && result.ok()) {
        result = s;
      }
    }
    if (!remote.empty() && result.ok()) {
      lt::telemetry::StampStage(lt::telemetry::TraceStage::kCompletion,
                                ready > 0 ? ready : NowNs());
      if (pri == Priority::kHigh) {
        inst_->qos_.RecordHighPriRtt(NowNs() - start);
      }
    }
    return result;
  });
}

StatusOr<uint64_t> OpEngine::RemoteAtomic(NodeId dst, PhysAddr addr, bool is_cas,
                                          uint64_t compare_add, uint64_t swap) {
  if (addr % 8 != 0) {
    return Status::InvalidArgument("atomic target not 8-byte aligned");
  }
  return Accounted([&]() -> StatusOr<uint64_t> {
    Admit(Priority::kHigh, 8);
    if (dst == inst_->node_id()) {
      AccessGate gate;
      LT_RETURN_IF_ERROR(GateAccess(inst_, inst_, addr, 8, /*is_write=*/true, &gate));
      const uint64_t spin_t0 = NowNs();
      SpinFor(inst_->params().local_op_base_ns + inst_->params().rnic_atomic_extra_ns / 2);
      AttrAdd(LatStage::kLatRnicLocal, NowNs() - spin_t0);
      // The same read-modify-write the RNIC responder applies, so local and
      // remote atomics on one word are atomic with each other.
      const uint64_t old_value =
          lt::ApplyAtomic(inst_->node_->mem().Data(addr, 8), is_cas, compare_add, swap);
      inst_->migration().CloseAccess(&gate, /*success=*/true);
      return old_value;
    }
    uint64_t old_value = 0;
    WorkRequest wr;
    wr.opcode = is_cas ? WrOpcode::kCmpSwap : WrOpcode::kFetchAdd;
    wr.rkey = inst_->peer_global_rkey_[dst];
    wr.remote_addr = addr;
    wr.compare_add = compare_add;
    wr.swap = swap;
    wr.atomic_result = &old_value;
    wr.signaled = true;
    auto c = PostAndWait(dst, &wr, Priority::kHigh);
    if (!c.ok()) {
      return c.status();
    }
    return old_value;
  });
}

Status OpEngine::PostUnsignaled(NodeId dst, PhysAddr dst_addr, const void* src, uint64_t len,
                                const uint32_t* imm, Priority pri) {
  return Accounted([&]() -> Status {
    Admit(pri, len);
    const OpDesc piece{dst, dst_addr, const_cast<void*>(src), len};
    if (dst == inst_->node_id()) {
      if (imm == nullptr) {
        return LoopbackCopy(piece, /*is_read=*/false);
      }
      // Loopback RPC: copy locally and deliver the IMM to our own receive CQ
      // so the poll thread handles it uniformly. No PostSend happens, so
      // clear the RNIC's last-post breakdown — RPC callers read it after
      // this returns.
      lt::Rnic::ResetLastPostBreakdown();
      if (len > 0) {
        LT_RETURN_IF_ERROR(LoopbackCopy(piece, /*is_read=*/false));
      }
      Completion c;
      c.opcode = WcOpcode::kRecvImm;
      c.has_imm = true;
      c.imm = *imm;
      c.byte_len = static_cast<uint32_t>(len);
      c.src_node = inst_->node_id();
      c.ready_at_ns = NowNs() + inst_->params().rnic_completion_ns;
      inst_->recv_cq_->Push(std::move(c));
      return Status::Ok();
    }
    Transport& tr = *inst_->transport_;
    TransportHandle h = tr.Lease(dst, pri);
    if (!tr.Valid(h)) {
      return Status::Unavailable("no QP to destination node");
    }
    WorkRequest wr;
    wr.opcode = imm != nullptr ? WrOpcode::kWriteImm : WrOpcode::kWrite;
    wr.host_local = piece.local;
    wr.length = len;
    wr.rkey = inst_->peer_global_rkey_[dst];
    wr.remote_addr = dst_addr;
    wr.imm = imm != nullptr ? *imm : 0;
    wr.signaled = false;
    bool recovered = false;
    Status s = Post(h, &wr, &recovered);
    if (recovered) {
      // The recovery ran on behalf of a post nobody waits on; count and
      // journal it so the flight recorder shows the silent path too.
      unsignaled_recovered_->Inc();
      if (journal_ != nullptr) {
        journal_->Record(lt::telemetry::JournalEvent::kUnsignaledRecover, dst, tr.Qp(h)->qpn());
      }
    }
    return s;
  });
}

// ----------------------------------------------------------- async issue

StatusOr<MemopHandle> OpEngine::IssueAsyncPieces(const std::vector<OpDesc>& pieces, bool is_read,
                                                 Priority pri, Lh origin_lh, uint64_t origin_off,
                                                 void* origin_buf, uint64_t origin_len,
                                                 MemopHandle reserved_handle) {
  BeginEngineOp();
  async_ops_issued_->Inc();

  auto op = std::make_unique<AsyncOp>();
  op->pri = pri;
  op->origin_lh = origin_lh;
  op->origin_off = origin_off;
  op->origin_buf = origin_buf;
  op->origin_len = origin_len;
  op->origin_is_read = is_read;
  const uint32_t signal_every = std::max<uint32_t>(1, inst_->params().lite_async_signal_every);

  std::unique_lock<std::mutex> lock(async_mu_);
  WaitForWindowLocked(lock);

  Transport& tr = *inst_->transport_;
  for (const OpDesc& piece : pieces) {
    AsyncWqe wqe;
    if (piece.node == inst_->node_id()) {
      // Local pieces complete at issue time. A gate NACK is recorded as the
      // op's issue error; retirement folds it in (and the stale-home redo
      // then re-issues the whole memop against the new home).
      Status g = LoopbackCopy(piece, is_read);
      if (!g.ok() && op->issue_error.ok()) {
        op->issue_error = g;
      }
      wqe.done = true;
      wqe.ready_at_ns = NowNs();
      op->wqes.push_back(wqe);
      continue;
    }
    Admit(pri, piece.len);
    wqe.h = tr.LeaseSticky(piece.node, pri);
    wqe.wr = DataWr(piece, is_read, /*batch=*/true);
    if (tr.Valid(wqe.h)) {
      AsyncStream& stream = async_streams_[{wqe.h.dst, wqe.h.slot}];
      wqe.stream_pos = stream.next_pos++;
      wqe.signaled = ((wqe.stream_pos + 1) % signal_every == 0);
      wqe.wr.signaled = wqe.signaled;
      wqe.posted = Post(wqe.h, &wqe.wr).ok();
      if (wqe.posted && wqe.signaled) {
        stream.signaled_pending[wqe.stream_pos] = wqe.wr.wr_id;
      }
    }
    // A gate NACK or failed (or impossible) post leaves wqe.posted false;
    // retirement re-posts it signaled through the retry loop, which re-gates
    // (parking through the fence or surfacing kStaleHome).
    op->wqes.push_back(wqe);
  }

  const MemopHandle h = reserved_handle != 0 ? reserved_handle : next_memop_handle_.fetch_add(1);
  op->id = h;
  // An issue-time error (gate NACK on a local piece) keeps the op in flight
  // so retirement folds the error in and can run the stale-home redo.
  bool all_done = op->issue_error.ok();
  uint64_t ready = NowNs();
  for (const AsyncWqe& wqe : op->wqes) {
    all_done = all_done && wqe.done;
    ready = std::max(ready, wqe.ready_at_ns);
  }
  if (all_done) {
    // Purely local op, complete at issue: the caller's ScopedOpAttr commits
    // normally at API return; only the engine-op accounting closes here.
    op->state = AsyncOpState::kDone;
    op->ready_at_ns = ready;
    FinishEngineOp(true);
  } else {
    ++async_inflight_;
    // Detach the caller's attribution record into the op; retirement commits
    // it with the op's true completion time as the e2e.
    lt::telemetry::AttrDetach(&op->attr);
  }
  async_ops_.emplace(h, std::move(op));
  return h;
}

StatusOr<MemopHandle> OpEngine::InsertAsyncRpc(uint32_t rpc_slot, void* out, uint32_t out_max,
                                               uint32_t* out_len, Priority pri) {
  // The ring post already went through OneSidedWriteImm; the handle itself
  // is an engine op too, so the conservation invariant sees it retire.
  BeginEngineOp();
  async_ops_issued_->Inc();
  auto op = std::make_unique<AsyncOp>();
  op->is_rpc = true;
  op->pri = pri;
  op->rpc_slot = rpc_slot;
  op->rpc_out = out;
  op->rpc_out_max = out_max;
  op->rpc_out_len = out_len;

  std::unique_lock<std::mutex> lock(async_mu_);
  WaitForWindowLocked(lock);
  const MemopHandle h = next_memop_handle_.fetch_add(1);
  op->id = h;
  ++async_inflight_;
  lt::telemetry::AttrDetach(&op->attr);
  async_ops_.emplace(h, std::move(op));
  return h;
}

void OpEngine::InsertFailedHandle(MemopHandle h, const Status& result) {
  // The handle was reserved and returned to the caller before its deferred
  // op could register (the lh died between enqueue and drain); park a done
  // op under it so Poll/Wait surface the failure instead of InvalidArgument.
  BeginEngineOp();
  async_ops_issued_->Inc();
  auto op = std::make_unique<AsyncOp>();
  op->id = h;
  op->state = AsyncOpState::kDone;
  op->result = result;
  op->ready_at_ns = NowNs();
  lt::telemetry::AttrDetach(&op->attr);
  CommitAsyncAttr(op.get());
  FinishEngineOp(false);
  std::lock_guard<std::mutex> lock(async_mu_);
  async_ops_.emplace(h, std::move(op));
  async_cv_.notify_all();
}

bool OpEngine::HandleReady(MemopHandle h) const {
  std::lock_guard<std::mutex> lock(async_mu_);
  auto it = async_ops_.find(h);
  if (it == async_ops_.end()) {
    return true;  // Unknown/consumed: Wait returns without blocking.
  }
  return it->second->state == AsyncOpState::kDone && it->second->ready_at_ns <= NowNs();
}

bool OpEngine::AllHandlesReady() const {
  std::lock_guard<std::mutex> lock(async_mu_);
  for (const auto& entry : async_ops_) {
    if (entry.second->state != AsyncOpState::kDone || entry.second->ready_at_ns > NowNs()) {
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------------- retirement

std::optional<Completion> OpEngine::TakeAsyncCompletionLocked(lt::Cq* cq, uint64_t wr_id) {
  auto it = async_harvested_.find(wr_id);
  if (it != async_harvested_.end()) {
    Completion c = it->second;
    async_harvested_.erase(it);
    return c;
  }
  return cq->TryTake(wr_id);
}

void OpEngine::CommitAsyncAttr(AsyncOp* op) {
  if (!op->attr.active) {
    return;
  }
  const uint64_t e2e =
      op->ready_at_ns > op->attr.start_ns ? op->ready_at_ns - op->attr.start_ns : 0;
  inst_->node_->telemetry().latency().Commit(op->attr, e2e);
  op->attr.active = false;
}

void OpEngine::RetireMemopLocked(std::unique_lock<std::mutex>& lock, AsyncOp* op) {
  // Stamps made while retiring (retries, fences, the stale redo) belong to
  // the op being retired, not to whatever op the retiring thread carries.
  lt::telemetry::AttrAdoptScope adopt(&op->attr);
  auto repost = [&](AsyncWqe& wqe) {
    auto c = Repost(wqe.h.dst, wqe.wr, wqe.posted, op->pri);
    if (!c.ok()) {
      return c.status();
    }
    wqe.done = true;
    wqe.ready_at_ns = c->ready_at_ns;
    return Status::Ok();
  };
  lt::telemetry::WqeLatBreakdown tail_lat;
  uint64_t tail_ready = 0;
  // A harvested CQE at stream position `pos` fences every earlier position
  // on its stream, success or error.
  auto fence_to = [](AsyncStream& stream, uint64_t pos, uint64_t ready_ns) {
    if (pos + 1 > stream.covered_pos) {
      stream.covered_pos = pos + 1;
      stream.covered_ready_ns = std::max(stream.covered_ready_ns, ready_ns);
    }
  };
  // `wqe` completes at CQE `c`, the op's tail so far if it is the latest.
  auto complete = [&](AsyncWqe& wqe, const Completion& c) {
    wqe.done = true;
    wqe.ready_at_ns = c.ready_at_ns;
    if (c.ready_at_ns >= tail_ready) {
      tail_ready = c.ready_at_ns;
      tail_lat = c.lat;
    }
  };
  Status result = op->issue_error;
  uint64_t op_ready = 0;
  for (AsyncWqe& wqe : op->wqes) {
    Status s = Status::Ok();
    if (!wqe.done) {
      if (!wqe.posted) {
        s = repost(wqe);
      } else {
        lt::Cq* cq = inst_->transport_->Qp(wqe.h)->send_cq();
        AsyncStream& stream = async_streams_[{wqe.h.dst, wqe.h.slot}];
        auto c = TakeAsyncCompletionLocked(cq, wqe.wr.wr_id);
        if (wqe.signaled) {
          stream.signaled_pending.erase(wqe.stream_pos);
          if (!c.has_value()) {
            s = Status::Internal("signaled async CQE missing");
          } else {
            fence_to(stream, wqe.stream_pos, c->ready_at_ns);
            if (c->status.ok()) {
              complete(wqe, *c);
            } else if (TransientCode(c->status)) {
              s = repost(wqe);
            } else {
              s = c->status;
            }
          }
        } else if (c.has_value()) {
          // Unsignaled WQEs only ever leave an error CQE behind.
          s = TransientCode(c->status) ? repost(wqe) : c->status;
        } else {
          // No error CQE: the WQE succeeded. Find (or create) the signaled
          // fence that makes its completion observable, and take its time.
          if (stream.covered_pos > wqe.stream_pos) {
            wqe.done = true;
            wqe.ready_at_ns = stream.covered_ready_ns;
            async_inferred_->Inc();
          } else {
            auto cover = stream.signaled_pending.lower_bound(wqe.stream_pos);
            bool covered = false;
            if (cover != stream.signaled_pending.end()) {
              const uint64_t cover_pos = cover->first;
              const uint64_t cover_wr_id = cover->second;
              auto c2 = TakeAsyncCompletionLocked(cq, cover_wr_id);
              stream.signaled_pending.erase(cover);
              if (c2.has_value()) {
                // Park the cover CQE for its owner; its arrival (success or
                // error) fences everything before it on this stream either
                // way — our WQE's own outcome was already decided above.
                async_harvested_.emplace(cover_wr_id, *c2);
                fence_to(stream, cover_pos, c2->ready_at_ns);
                complete(wqe, *c2);
                async_inferred_->Inc();
                covered = true;
              }
            }
            if (!covered) {
              // No signaled WQE past ours: fence the stream with a
              // zero-length signaled write on the same QP.
              async_flush_fences_->Inc();
              WorkRequest fence;
              fence.opcode = WrOpcode::kWrite;
              fence.length = 0;
              fence.rkey = inst_->peer_global_rkey_[wqe.h.dst];
              fence.signaled = true;
              auto fc = PostAndWait(wqe.h.dst, &fence, op->pri, &wqe.h);
              if (fc.ok()) {
                stream.covered_pos = std::max(stream.covered_pos, stream.next_pos);
                stream.covered_ready_ns = std::max(stream.covered_ready_ns, fc->ready_at_ns);
                wqe.done = true;
                wqe.ready_at_ns = fc->ready_at_ns;
                async_inferred_->Inc();
              } else {
                // The data landed (no error CQE) but the fence could not
                // complete — report the fence's error; at-least-once holds.
                s = fc.status();
              }
            }
          }
        }
      }
    }
    if (!s.ok() && result.ok()) {
      result = s;
    }
    if (wqe.done) {
      op_ready = std::max(op_ready, wqe.ready_at_ns);
    }
  }
  if (result.code() == lt::StatusCode::kStaleHome && op->origin_lh != 0) {
    // The LMR migrated mid-flight. Re-resolve its home and transparently
    // re-issue the whole memop (blocking). Exactly-once for the caller:
    // writes are idempotent re-copies, atomics never carry an origin. The
    // op stays kRetiring across the unlock, so no other thread consumes it.
    lock.unlock();
    Status redo = inst_->RedoMemopAfterStale(op->origin_lh, op->origin_off, op->origin_buf,
                                             op->origin_len, op->origin_is_read, op->pri);
    lock.lock();
    result = redo;
    op_ready = std::max(op_ready, NowNs());
  }
  // Book the tail WQE's RNIC/fabric breakdown: harvesting a CQE advances no
  // clock, so without this the transport time would all land in "other".
  if (tail_ready > 0) {
    AttrAdd(LatStage::kLatRnicLocal, tail_lat.rnic_local_ns);
    AttrAdd(LatStage::kLatPortQueue, tail_lat.port_queue_ns);
    AttrAdd(LatStage::kLatWire, tail_lat.wire_ns);
    AttrAdd(LatStage::kLatRnicRemote, tail_lat.rnic_remote_ns);
    AttrAdd(LatStage::kLatComplPoll, tail_lat.compl_ns);
  }
  FinishAsyncLocked(op, result, op_ready > 0 ? op_ready : NowNs());
}

void OpEngine::FinishAsyncLocked(AsyncOp* op, const Status& result, uint64_t ready_at_ns) {
  op->result = result;
  op->ready_at_ns = ready_at_ns;
  op->state = AsyncOpState::kDone;
  CommitAsyncAttr(op);
  FinishEngineOp(result.ok());
  --async_inflight_;
  async_cv_.notify_all();
}

void OpEngine::RetireRpcUnlocked(std::unique_lock<std::mutex>& lock, AsyncOp* op) {
  // Direct the reply-wait stamps (RpcWait runs on this thread) at the op's
  // own detached record rather than the retiring thread's current op.
  lt::telemetry::AttrAdoptScope adopt(&op->attr);
  lock.unlock();
  Status s = inst_->RpcWait(op->rpc_slot, op->rpc_out, op->rpc_out_max, op->rpc_out_len);
  lock.lock();
  FinishAsyncLocked(op, s, NowNs());
}

void OpEngine::RetireLocked(std::unique_lock<std::mutex>& lock, AsyncOp* op) {
  op->state = AsyncOpState::kRetiring;
  if (op->is_rpc) {
    RetireRpcUnlocked(lock, op);
  } else {
    RetireMemopLocked(lock, op);
  }
}

void OpEngine::WaitForWindowLocked(std::unique_lock<std::mutex>& lock) {
  const size_t window = std::max<size_t>(1, inst_->params().lite_async_window);
  const uint64_t bp_t0 = NowNs();
  while (async_inflight_ >= window) {
    auto oldest = std::find_if(async_ops_.begin(), async_ops_.end(), [](const auto& entry) {
      return entry.second->state == AsyncOpState::kInFlight;
    });
    if (oldest != async_ops_.end()) {
      RetireLocked(lock, oldest->second.get());
    } else {
      // Every outstanding op is being retired by another thread.
      async_cv_.wait(lock);
    }
  }
  AttrAdd(LatStage::kLatEngineQueue, NowNs() - bp_t0);
}

Status OpEngine::ConsumeAsyncLocked(std::map<MemopHandle, std::unique_ptr<AsyncOp>>::iterator it) {
  AsyncOp* op = it->second.get();
  if (op->ready_at_ns > NowNs()) {
    SyncToBusy(op->ready_at_ns);
  }
  Status result = op->result;
  async_ops_.erase(it);
  return result;
}

// ------------------------------------------------------- public retirement

StatusOr<bool> OpEngine::Poll(MemopHandle h) {
  SpinFor(inst_->params().rnic_completion_ns);  // CQ poll cost; poll loops progress.
  std::unique_lock<std::mutex> lock(async_mu_);
  auto it = async_ops_.find(h);
  if (it == async_ops_.end()) {
    return Status::InvalidArgument("unknown or already-retired async handle");
  }
  AsyncOp* op = it->second.get();
  if (op->state == AsyncOpState::kRetiring) {
    return false;
  }
  if (op->state == AsyncOpState::kInFlight) {
    // Don't block on an RPC: in flight until the poll thread delivers the reply.
    if (op->is_rpc &&
        inst_->reply_slots_[op->rpc_slot]->state.load(std::memory_order_acquire) < 2) {
      return false;
    }
    RetireLocked(lock, op);
    it = async_ops_.find(h);
    if (it == async_ops_.end()) {
      return Status::InvalidArgument("async handle consumed concurrently");
    }
    op = it->second.get();
  }
  if (NowNs() < op->ready_at_ns) {
    return false;  // Retired, but the completion hasn't arrived on our clock.
  }
  Status result = ConsumeAsyncLocked(it);
  if (!result.ok()) {
    return result;
  }
  return true;
}

Status OpEngine::Wait(MemopHandle h) {
  std::unique_lock<std::mutex> lock(async_mu_);
  while (true) {
    auto it = async_ops_.find(h);
    if (it == async_ops_.end()) {
      return Status::InvalidArgument("unknown or already-retired async handle");
    }
    AsyncOp* op = it->second.get();
    switch (op->state) {
      case AsyncOpState::kDone:
        return ConsumeAsyncLocked(it);
      case AsyncOpState::kInFlight:
        RetireLocked(lock, op);
        break;  // Re-find: the map may have shifted while unlocked.
      case AsyncOpState::kRetiring:
        async_cv_.wait(lock);
        break;
    }
  }
}

Status OpEngine::WaitAll(std::vector<std::pair<MemopHandle, Status>>* results) {
  Status first_error = Status::Ok();
  std::unique_lock<std::mutex> lock(async_mu_);
  while (!async_ops_.empty()) {
    auto it = async_ops_.begin();
    AsyncOp* op = it->second.get();
    switch (op->state) {
      case AsyncOpState::kDone: {
        const MemopHandle h = it->first;
        Status s = ConsumeAsyncLocked(it);
        if (results != nullptr) {
          results->emplace_back(h, s);
        }
        if (!s.ok() && first_error.ok()) {
          first_error = s;
        }
        break;
      }
      case AsyncOpState::kInFlight:
        RetireLocked(lock, op);
        break;
      case AsyncOpState::kRetiring:
        async_cv_.wait(lock);
        break;
    }
  }
  return first_error;
}

size_t OpEngine::AsyncInFlight() const {
  std::lock_guard<std::mutex> lock(async_mu_);
  return async_inflight_;
}

}  // namespace lite
