#include "src/rnic/rnic.h"

#include <algorithm>
#include <cassert>

#include "src/common/logging.h"
#include "src/common/annotations.h"
#include "src/common/timing.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace lt {
namespace {

constexpr uint64_t kRnrTimeoutNs = 2'000'000'000;  // Receiver-not-ready give-up.
constexpr uint64_t kOneSidedHeaderBytes = 30;      // Request header on the wire.

uint64_t MttKey(uint32_t lkey, uint64_t vpage) {
  return (static_cast<uint64_t>(lkey) << 36) ^ vpage;
}

// Per-thread doorbell batch tracker: consecutive hinted posts to the same QP
// within rnic_doorbell_window_ns share one doorbell. The rnic/qpn fields are
// used for identity comparison only and are never dereferenced (the tracked
// RNIC may outlive a test cluster).
struct DoorbellBatch {
  const Rnic* rnic = nullptr;
  uint32_t qpn = 0;
  uint64_t last_post_ns = 0;
  uint32_t len = 0;  // WQEs under the current doorbell (0 = untracked post).
};
thread_local DoorbellBatch tl_doorbell;

// Transport breakdown of this thread's most recent PostSend (latency
// attribution). Execute* fill it from the same absolute timestamps they
// compute the completion's ready time from; PushSendCompletion copies it
// onto the CQE, and unsignaled posters read it via LastPostBreakdown().
thread_local telemetry::WqeLatBreakdown tl_last_lat;

}  // namespace

uint64_t ApplyAtomic(uint8_t* word, bool is_cas, uint64_t compare_add, uint64_t swap) {
  auto* p = reinterpret_cast<uint64_t*>(word);
  if (!is_cas) {
    return __atomic_fetch_add(p, compare_add, __ATOMIC_SEQ_CST);
  }
  uint64_t expected = compare_add;
  __atomic_compare_exchange_n(p, &expected, swap, /*weak=*/false, __ATOMIC_SEQ_CST,
                              __ATOMIC_SEQ_CST);
  return expected;  // The old value whether or not the swap happened.
}

// ---------------------------------------------------------------- directory

void RnicDirectory::Register(NodeId node, Rnic* rnic) {
  std::lock_guard<SpinLock> lock(mu_);
  if (rnics_.size() <= node) {
    rnics_.resize(node + 1, nullptr);
  }
  rnics_[node] = rnic;
}

Rnic* RnicDirectory::Lookup(NodeId node) const {
  std::lock_guard<SpinLock> lock(mu_);
  if (node >= rnics_.size()) {
    return nullptr;
  }
  return rnics_[node];
}

// ----------------------------------------------------------------------- cq

std::optional<Completion> Cq::TryPoll() {
  const uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  auto best = entries_.end();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->ready_at_ns <= now && (best == entries_.end() || it->ready_at_ns < best->ready_at_ns)) {
      best = it;
    }
  }
  if (best == entries_.end()) {
    return std::nullopt;
  }
  Completion c = *best;
  entries_.erase(best);
  return c;
}

std::optional<Completion> Cq::WaitPoll(uint64_t timeout_ns, WaitMode mode,
                                       uint64_t adaptive_budget_ns) {
  Completion c;
  {
    std::unique_lock<std::mutex> lock(mu_);
    bool ok = cv_.wait_for(lock, std::chrono::nanoseconds(timeout_ns),
                           [this] { return !entries_.empty() || shutdown_; });
    if (!ok || entries_.empty()) {
      // Timed out (or shut down). The virtual clock is NOT advanced: an idle
      // waiter's clock stays put and jumps forward on its next event; callers
      // that need elapsed-timeout semantics charge it themselves.
      return std::nullopt;
    }
    // Take the entry with the earliest virtual ready time.
    auto best = EarliestLocked();
    c = *best;
    entries_.erase(best);
  }
  switch (mode) {
    case WaitMode::kBusyPoll:
      SyncToBusy(c.ready_at_ns);
      break;
    case WaitMode::kSleep:
      SyncToIdle(c.ready_at_ns);
      break;
    case WaitMode::kAdaptive:
      SyncToAdaptive(c.ready_at_ns, adaptive_budget_ns);
      break;
  }
  return c;
}

std::optional<Completion> Cq::WaitPollFor(uint64_t wr_id, uint64_t timeout_ns, WaitMode mode,
                                          uint64_t adaptive_budget_ns) {
  const uint64_t real_deadline = RealNowNs() + timeout_ns;
  Completion c;
  {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      auto it = entries_.begin();
      for (; it != entries_.end(); ++it) {
        if (it->wr_id == wr_id) {
          break;
        }
      }
      if (it != entries_.end()) {
        c = *it;
        entries_.erase(it);
        break;
      }
      if (shutdown_) {
        return std::nullopt;
      }
      uint64_t now = RealNowNs();
      if (now >= real_deadline) {
        return std::nullopt;
      }
      cv_.wait_for(lock, std::chrono::nanoseconds(real_deadline - now));
    }
  }
  switch (mode) {
    case WaitMode::kBusyPoll:
      SyncToBusy(c.ready_at_ns);
      break;
    case WaitMode::kSleep:
      SyncToIdle(c.ready_at_ns);
      break;
    case WaitMode::kAdaptive:
      SyncToAdaptive(c.ready_at_ns, adaptive_budget_ns);
      break;
  }
  return c;
}

std::optional<Completion> Cq::TryTake(uint64_t wr_id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->wr_id == wr_id) {
      Completion c = *it;
      entries_.erase(it);
      return c;
    }
  }
  return std::nullopt;
}

void Cq::Push(Completion completion) {
  CompChannel* channel;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.push_back(std::move(completion));
    channel = channel_;
  }
  cv_.notify_all();
  if (channel != nullptr) {
    channel->Signal(this);
  }
}

size_t Cq::Depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void Cq::Shutdown() {
  CompChannel* channel;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    channel = channel_;
  }
  cv_.notify_all();
  if (channel != nullptr) {
    channel->Signal(this);  // Its consumer drops the CQ from the ready list.
  }
}

void Cq::AttachChannel(CompChannel* channel, void* context) {
  {
    std::scoped_lock lock(channel->mu_, mu_);
    channel_ = channel;
    channel_context_ = context;
  }
  channel->Signal(this);  // Entries pushed before the attach.
}

void Cq::DetachChannel() {
  CompChannel* channel;
  {
    std::lock_guard<std::mutex> lock(mu_);
    channel = channel_;
  }
  if (channel != nullptr) {
    channel->Detach(this);
  }
}

std::deque<Completion>::iterator Cq::EarliestLocked() {
  auto best = entries_.begin();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->ready_at_ns < best->ready_at_ns) {
      best = it;
    }
  }
  return best;
}

std::optional<uint64_t> Cq::EarliestReadyAt() {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_ || entries_.empty()) {
    return std::nullopt;
  }
  return EarliestLocked()->ready_at_ns;
}

std::optional<Completion> Cq::TakeEarliest() {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_ || entries_.empty()) {
    return std::nullopt;
  }
  auto best = EarliestLocked();
  Completion c = std::move(*best);
  entries_.erase(best);
  return c;
}

// ------------------------------------------------------------------ channel

void CompChannel::Signal(Cq* cq) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A listed CQ is rescanned before the consumer sleeps: no wake needed.
    if (cq->channel_ != this || cq->listed_) {
      return;
    }
    cq->listed_ = true;
    ready_.push_back(cq);
  }
  work_cv_.notify_one();
}

void CompChannel::Detach(Cq* cq) {
  std::unique_lock<std::mutex> lock(mu_);
  {
    std::lock_guard<std::mutex> cq_lock(cq->mu_);
    cq->channel_ = nullptr;
  }
  if (cq->listed_) {
    cq->listed_ = false;
    ready_.erase(std::find(ready_.begin(), ready_.end(), cq));
  }
  idle_cv_.wait(lock, [this, cq] { return in_service_ != cq; });
}

std::optional<CompChannel::Event> CompChannel::Next() {
  std::unique_lock<std::mutex> lock(mu_);
  if (in_service_ != nullptr) {
    in_service_ = nullptr;
    idle_cv_.notify_all();
  }
  while (!closed_) {
    // Earliest ready time across the listed CQs; unlist the empty ones
    // (a later Push lists them again).
    Cq* best = nullptr;
    uint64_t best_at = 0;
    for (size_t i = 0; i < ready_.size();) {
      Cq* cq = ready_[i];
      const std::optional<uint64_t> at = cq->EarliestReadyAt();
      if (!at.has_value()) {
        cq->listed_ = false;
        ready_[i] = ready_.back();
        ready_.pop_back();
        continue;
      }
      if (best == nullptr || *at < best_at) {
        best = cq;
        best_at = *at;
      }
      ++i;
    }
    if (best != nullptr) {
      // Empty only if the CQ's owner also polled it since the scan: rescan.
      std::optional<Completion> c = best->TakeEarliest();
      if (c.has_value()) {
        in_service_ = best;
        return Event{best, std::move(*c)};
      }
      continue;
    }
    work_cv_.wait(lock);
  }
  return std::nullopt;
}

void CompChannel::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  work_cv_.notify_all();
}

// ----------------------------------------------------------------------- qp

Status Qp::PostRecv(const Rqe& rqe) {
  {
    std::lock_guard<std::mutex> lock(rq_mu_);
    rq_.push_back(rqe);
  }
  rq_cv_.notify_all();
  return Status::Ok();
}

std::optional<Rqe> Qp::TakeRecv() {
  std::lock_guard<std::mutex> lock(rq_mu_);
  if (rq_.empty()) {
    return std::nullopt;
  }
  Rqe rqe = rq_.front();
  rq_.pop_front();
  return rqe;
}

std::optional<Rqe> Qp::TakeRecvWait(uint64_t real_timeout_ns) {
  std::unique_lock<std::mutex> lock(rq_mu_);
  if (!rq_cv_.wait_for(lock, std::chrono::nanoseconds(real_timeout_ns),
                       [this] { return !rq_.empty(); })) {
    return std::nullopt;
  }
  Rqe rqe = rq_.front();
  rq_.pop_front();
  return rqe;
}

size_t Qp::RecvDepth() const {
  std::lock_guard<std::mutex> lock(rq_mu_);
  return rq_.size();
}

// --------------------------------------------------------------------- rnic

Rnic::Rnic(NodeId node, const SimParams& params, PhysMem* mem, FabricPort* port,
           RnicDirectory* directory)
    : node_(node),
      params_(params),
      mem_(mem),
      port_(port),
      directory_(directory),
      mpt_cache_(params.mpt_cache_entries),
      mtt_cache_(params.mtt_cache_pages),
      qpc_cache_(params.qpc_cache_entries) {
  directory_->Register(node, this);
}

StatusOr<MrEntry> Rnic::RegisterMrVirtual(PageTable* pt, VirtAddr addr, uint64_t length,
                                          uint32_t access) {
  if (length == 0 || pt == nullptr) {
    return Status::InvalidArgument("bad MR registration");
  }
  // Validate the whole range is mapped.
  auto check = pt->TranslateRange(node_, addr, length);
  if (!check.ok()) {
    return check.status();
  }
  MrEntry mr;
  mr.lkey = next_key_.fetch_add(1);
  mr.node = node_;
  mr.physical = false;
  mr.base = addr;
  mr.length = length;
  mr.access = access;
  mr.page_table = pt;
  {
    std::lock_guard<SpinLock> lock(mr_mu_);
    mrs_[mr.lkey] = mr;
  }
  return mr;
}

StatusOr<MrEntry> Rnic::RegisterMrPhysical(PhysAddr addr, uint64_t length, uint32_t access) {
  if (length == 0 || addr + length > mem_->size_bytes()) {
    return Status::InvalidArgument("bad physical MR registration");
  }
  MrEntry mr;
  mr.lkey = next_key_.fetch_add(1);
  mr.node = node_;
  mr.physical = true;
  mr.base = addr;
  mr.length = length;
  mr.access = access;
  {
    std::lock_guard<SpinLock> lock(mr_mu_);
    mrs_[mr.lkey] = mr;
  }
  return mr;
}

Status Rnic::DeregisterMr(uint32_t lkey) {
  std::lock_guard<SpinLock> lock(mr_mu_);
  auto it = mrs_.find(lkey);
  if (it == mrs_.end()) {
    return Status::NotFound("MR not registered");
  }
  mrs_.erase(it);
  mpt_cache_.Erase(lkey);
  return Status::Ok();
}

StatusOr<MrEntry> Rnic::LookupMr(uint32_t key) const {
  std::lock_guard<SpinLock> lock(mr_mu_);
  auto it = mrs_.find(key);
  if (it == mrs_.end()) {
    return Status::NotFound("MR key unknown");
  }
  return it->second;
}

size_t Rnic::MrCount() const {
  std::lock_guard<SpinLock> lock(mr_mu_);
  return mrs_.size();
}

Cq* Rnic::CreateCq() {
  std::lock_guard<SpinLock> lock(qp_mu_);
  cqs_.push_back(std::make_unique<Cq>(params_));
  return cqs_.back().get();
}

Qp* Rnic::CreateQp(QpType type, Cq* send_cq, Cq* recv_cq) {
  std::lock_guard<SpinLock> lock(qp_mu_);
  uint32_t qpn = next_qpn_.fetch_add(1);
  qps_.push_back(std::make_unique<Qp>(this, qpn, type, send_cq, recv_cq));
  Qp* qp = qps_.back().get();
  qp_index_[qpn] = qp;
  return qp;
}

Qp* Rnic::LookupQp(uint32_t qpn) const {
  std::lock_guard<SpinLock> lock(qp_mu_);
  auto it = qp_index_.find(qpn);
  return it == qp_index_.end() ? nullptr : it->second;
}

size_t Rnic::QpCount() const {
  std::lock_guard<SpinLock> lock(qp_mu_);
  return qps_.size();
}

StatusOr<Rnic::Resolved> Rnic::ResolveOnNic(uint32_t key, uint64_t addr, uint64_t length,
                                            uint32_t required_access) {
  Resolved out;
  if (!mpt_cache_.Touch(key)) {
    out.cache_penalty_ns += params_.mpt_miss_ns;
  }
  auto mr_or = LookupMr(key);
  if (!mr_or.ok()) {
    return mr_or.status();
  }
  const MrEntry& mr = *mr_or;
  if ((mr.access & required_access) != required_access) {
    return Status::PermissionDenied("MR access violation");
  }
  if (length == 0) {
    return out;
  }
  if (addr < mr.base || addr + length > mr.base + mr.length) {
    return Status::OutOfRange("access outside MR bounds");
  }
  if (mr.physical) {
    out.ranges.push_back(PhysRange{node_, static_cast<PhysAddr>(addr), length});
    return out;
  }
  // Virtual MR: the NIC walks PTEs; charge one MTT miss per uncached page.
  const size_t page = mr.page_table->page_size();
  for (uint64_t vpage = addr / page; vpage <= (addr + length - 1) / page; ++vpage) {
    if (!mtt_cache_.Touch(MttKey(key, vpage))) {
      out.cache_penalty_ns += params_.mtt_miss_ns;
    }
  }
  auto ranges = mr.page_table->TranslateRange(node_, addr, length);
  if (!ranges.ok()) {
    return ranges.status();
  }
  out.ranges = std::move(*ranges);
  return out;
}

uint64_t Rnic::ReserveEngine(uint64_t earliest_ns, uint64_t occupancy_ns) {
  return engine_capacity_.Reserve(earliest_ns, occupancy_ns);
}

void Rnic::PushSendCompletion(Qp* qp, const WorkRequest& wr, Status status, uint64_t ready_at) {
  if (!wr.signaled && status.ok()) {
    return;
  }
  Completion c;
  c.wr_id = wr.wr_id;
  c.status = std::move(status);
  c.byte_len = static_cast<uint32_t>(wr.length);
  switch (wr.opcode) {
    case WrOpcode::kWrite:
    case WrOpcode::kWriteImm:
      c.opcode = WcOpcode::kRdmaWrite;
      break;
    case WrOpcode::kRead:
      c.opcode = WcOpcode::kRdmaRead;
      break;
    case WrOpcode::kSend:
      c.opcode = WcOpcode::kSend;
      break;
    case WrOpcode::kFetchAdd:
    case WrOpcode::kCmpSwap:
      c.opcode = WcOpcode::kAtomic;
      break;
  }
  c.ready_at_ns = ready_at + params_.rnic_completion_ns;
  c.lat = tl_last_lat;
  qp->send_cq()->Push(std::move(c));
}

telemetry::WqeLatBreakdown Rnic::LastPostBreakdown() { return tl_last_lat; }

void Rnic::ResetLastPostBreakdown() { tl_last_lat = telemetry::WqeLatBreakdown{}; }

void Rnic::ChargePostCost(Qp* qp, const WorkRequest& wr) {
  DoorbellBatch& b = tl_doorbell;
  const uint64_t now = NowNs();
  const bool batches = wr.doorbell_hint && b.rnic == this && b.qpn == qp->qpn() &&
                       b.len > 0 && now >= b.last_post_ns &&
                       now - b.last_post_ns <= params_.rnic_doorbell_window_ns;
  if (batches) {
    // Rides the previous doorbell: only the per-extra-WQE build cost.
    SpinFor(params_.rnic_post_wqe_ns);
    wqes_batched_.fetch_add(1, std::memory_order_relaxed);
    ++b.len;
    b.last_post_ns = NowNs();
    return;
  }
  // New doorbell. Close out the previous batch on this NIC (batch size is
  // only observable once the next doorbell rings).
  if (b.rnic == this && b.len > 0) {
    telemetry::FixedHistogram* hist = doorbell_batch_hist_.load(std::memory_order_acquire);
    if (hist != nullptr) {
      hist->Record(b.len);
    }
  }
  SpinFor(params_.rnic_post_ns);
  doorbells_.fetch_add(1, std::memory_order_relaxed);
  b.rnic = wr.doorbell_hint ? this : nullptr;
  b.qpn = qp->qpn();
  b.len = wr.doorbell_hint ? 1 : 0;
  b.last_post_ns = NowNs();
}

Status Rnic::PostSend(Qp* qp, const WorkRequest& wr) {
  ops_posted_.fetch_add(1, std::memory_order_relaxed);
  (wr.signaled ? wqes_signaled_ : wqes_unsignaled_).fetch_add(1, std::memory_order_relaxed);
  tl_last_lat = telemetry::WqeLatBreakdown{};  // Error paths leave it zero.
  // Doorbell + WQE build: synchronous host cost (shared doorbell when the
  // post batches with the previous one on this QP).
  ChargePostCost(qp, wr);
  telemetry::StampStage(telemetry::TraceStage::kRnicPost);

  NodeId dst_node;
  uint32_t dst_qpn = 0;
  if (qp->type() == QpType::kUd) {
    if (wr.opcode != WrOpcode::kSend) {
      return Status::InvalidArgument("UD QPs support only SEND");
    }
    dst_node = wr.ud_dst_node;
    dst_qpn = wr.ud_dst_qpn;
  } else {
    // RC and DC-initiator QPs share the connected data path; a DC QP's
    // connection target is simply whatever Connect() last attached it to.
    if (!qp->connected()) {
      return Status::FailedPrecondition("RC QP not connected");
    }
    if (qp->in_error()) {
      return Status::FailedPrecondition("RC QP in error state (reset required)");
    }
    dst_node = qp->remote_node();
    dst_qpn = qp->remote_qpn();
  }
  Rnic* remote = directory_->Lookup(dst_node);
  if (remote == nullptr) {
    return Status::Unavailable("destination node unknown");
  }

  switch (wr.opcode) {
    case WrOpcode::kWrite:
    case WrOpcode::kWriteImm:
    case WrOpcode::kRead:
      return ExecuteOneSided(qp, wr, remote);
    case WrOpcode::kSend:
      return ExecuteSend(qp, wr, remote, dst_qpn);
    case WrOpcode::kFetchAdd:
    case WrOpcode::kCmpSwap:
      return ExecuteAtomic(qp, wr, remote);
  }
  return Status::InvalidArgument("unknown opcode");
}

Status Rnic::ExecuteOneSided(Qp* qp, const WorkRequest& wr, Rnic* remote) {
  const bool is_read = wr.opcode == WrOpcode::kRead;
  // Inline send: the payload was copied into the WQE at post time, so the
  // local engine skips the DMA read of the source buffer (reads can never be
  // inline — the payload arrives later).
  const bool inline_send =
      !is_read && wr.inline_data && wr.length <= params_.rnic_inline_max;
  const uint64_t now = NowNs();

  uint64_t qpc_penalty = qpc_cache_.Touch(qp->qpn()) ? 0 : params_.qpc_miss_ns;
  // Responder-side QPC (gated): the remote NIC looks up the context serving
  // this sender — per-peer for RC, the one shared DCT entry for DC targets.
  uint64_t remote_qpc_penalty =
      params_.rnic_model_responder_qpc && remote != this
          ? (remote->qpc_cache_.Touch(qp->remote_qpn()) ? 0 : params_.qpc_miss_ns)
          : 0;

  StatusOr<Resolved> local = [&]() -> StatusOr<Resolved> {
    if (wr.length == 0) {
      return Resolved{};
    }
    if (wr.host_local != nullptr) {
      Resolved r;
      r.host = static_cast<uint8_t*>(wr.host_local);
      return r;
    }
    return ResolveOnNic(wr.lkey, wr.local_addr, wr.length, is_read ? kMrWrite : kMrRead);
  }();
  if (!local.ok()) {
    PushSendCompletion(qp, wr, local.status(), now);
    return Status::Ok();
  }
  StatusOr<Resolved> remote_res =
      wr.length == 0 ? StatusOr<Resolved>(Resolved{})
                     : remote->ResolveOnNic(wr.rkey, wr.remote_addr, wr.length,
                                            is_read ? kMrRead : kMrWrite);
  if (!remote_res.ok()) {
    PushSendCompletion(qp, wr, remote_res.status(), now);
    return Status::Ok();
  }

  // All on-NIC SRAM lookups (QPC + local and remote MPT/MTT) are resolved at
  // this point; arg carries the total miss-penalty ns they contributed.
  telemetry::StampStage(telemetry::TraceStage::kNicCache,
                        qpc_penalty + remote_qpc_penalty + local->cache_penalty_ns +
                            remote_res->cache_penalty_ns);

  // Engine occupancy at both NICs (processing + SRAM miss stalls).
  if (inline_send) {
    inline_sends_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t local_done = ReserveEngine(
      now, (inline_send ? params_.rnic_inline_process_ns : params_.rnic_process_ns) +
               qpc_penalty + local->cache_penalty_ns);

  // Fabric: writes carry the payload on the request; reads carry it on the
  // response.
  uint64_t request_bytes = kOneSidedHeaderBytes + (is_read ? 0 : wr.length);
  uint64_t response_bytes = is_read ? wr.length : 0;

  TransferFaults request_faults;
  uint64_t queue_ns = 0;
  uint64_t request_arrive =
      FinishOrDrop(remote, request_bytes, local_done, &request_faults, &queue_ns);
  if (request_arrive == Fabric::kDropped) {
    // Retransmit budget exhausted: the QP transitions to the error state
    // (hardware semantics); the owner must reset it before reusing.
    qp->SetError();
    PushSendCompletion(qp, wr, Status::Unavailable("message dropped"), now + kRnrTimeoutNs / 64);
    return Status::Ok();
  }
  telemetry::StampStage(telemetry::TraceStage::kFabric, request_arrive);
  uint64_t remote_done = remote->ReserveEngine(
      request_arrive,
      params_.rnic_process_ns + remote_res->cache_penalty_ns + remote_qpc_penalty);

  // Perform the data movement (the issuing thread is the DMA engine).
  if (wr.length > 0) {
    if (is_read) {
      CopyResolved(*remote_res, *local, wr.length);
    } else {
      CopyResolved(*local, *remote_res, wr.length);
    }
  }
  telemetry::StampStage(telemetry::TraceStage::kDma, wr.length);

  // Writes complete with a piggybacked RC ACK (no payload bandwidth); reads
  // carry the data on the response path, which reserves remote->local fabric
  // bandwidth.
  uint64_t ready_at;
  uint64_t wire_ns = request_arrive - local_done - queue_ns;
  if (is_read) {
    uint64_t resp_queue_ns = 0;
    ready_at = FinishOrDropFrom(remote, response_bytes + kOneSidedHeaderBytes / 2,
                                remote_done + params_.rnic_ack_ns, &resp_queue_ns);
    if (ready_at == Fabric::kDropped) {
      qp->SetError();
      PushSendCompletion(qp, wr, Status::Unavailable("response dropped"),
                         now + kRnrTimeoutNs / 64);
      return Status::Ok();
    }
    wire_ns += ready_at - (remote_done + params_.rnic_ack_ns) - resp_queue_ns;
    queue_ns += resp_queue_ns;
  } else {
    ready_at = remote_done + params_.rnic_ack_ns + params_.wire_latency_ns;
    wire_ns += params_.wire_latency_ns;
  }

  // Attribution breakdown from the same absolute timestamps the completion
  // is built from (pure arithmetic; no clock movement).
  tl_last_lat.rnic_local_ns = local_done - now;
  tl_last_lat.port_queue_ns = queue_ns;
  tl_last_lat.wire_ns = wire_ns;
  tl_last_lat.rnic_remote_ns = (remote_done - request_arrive) + params_.rnic_ack_ns;
  tl_last_lat.compl_ns = params_.rnic_completion_ns;

  if (wr.opcode == WrOpcode::kWriteImm) {
    Qp* remote_qp = remote->LookupQp(qp->remote_qpn());
    if (remote_qp != nullptr && remote_qp->recv_cq() != nullptr) {
      Completion rc;
      rc.wr_id = 0;
      rc.opcode = WcOpcode::kRecvImm;
      rc.byte_len = static_cast<uint32_t>(wr.length);
      rc.imm = wr.imm;
      rc.has_imm = true;
      rc.src_node = node_;
      rc.src_qpn = qp->qpn();
      rc.ready_at_ns = remote_done + params_.rnic_completion_ns;
      if (request_faults.duplicate) {
        // Fault injection duplicated the request on the wire: the receiver
        // sees the imm event twice (upper layers must dedup by sequence).
        Completion dup = rc;
        dup.ready_at_ns += params_.wire_latency_ns + request_faults.dup_extra_delay_ns;
        remote_qp->recv_cq()->Push(std::move(dup));
      }
      remote_qp->recv_cq()->Push(std::move(rc));
    }
  }

  PushSendCompletion(qp, wr, Status::Ok(), ready_at);
  return Status::Ok();
}

Status Rnic::ExecuteSend(Qp* qp, const WorkRequest& wr, Rnic* remote, uint32_t dst_qpn) {
  const uint64_t now = NowNs();
  uint64_t qpc_penalty = qpc_cache_.Touch(qp->qpn()) ? 0 : params_.qpc_miss_ns;
  uint64_t remote_qpc_penalty =
      params_.rnic_model_responder_qpc && remote != this
          ? (remote->qpc_cache_.Touch(dst_qpn) ? 0 : params_.qpc_miss_ns)
          : 0;

  StatusOr<Resolved> local = [&]() -> StatusOr<Resolved> {
    if (wr.length == 0) {
      return Resolved{};
    }
    if (wr.host_local != nullptr) {
      Resolved r;
      r.host = static_cast<uint8_t*>(wr.host_local);
      return r;
    }
    return ResolveOnNic(wr.lkey, wr.local_addr, wr.length, kMrRead);
  }();
  if (!local.ok()) {
    PushSendCompletion(qp, wr, local.status(), now);
    return Status::Ok();
  }

  Qp* remote_qp = remote->LookupQp(dst_qpn);
  if (remote_qp == nullptr) {
    PushSendCompletion(qp, wr, Status::Unavailable("no such destination QP"), now);
    return Status::Ok();
  }

  // Receiver-not-ready: block until an RQE is posted (RC retransmit model).
  std::optional<Rqe> rqe = remote_qp->TakeRecv();
  if (!rqe.has_value()) {
    rqe = remote_qp->TakeRecvWait(kRnrTimeoutNs);
    if (!rqe.has_value()) {
      IdleFor(kRnrTimeoutNs);
      PushSendCompletion(qp, wr, Status::Timeout("receiver not ready"), NowNs());
      return Status::Ok();
    }
  }

  if (rqe->length < wr.length) {
    PushSendCompletion(qp, wr, Status::InvalidArgument("receive buffer too small"), NowNs());
    return Status::Ok();
  }

  StatusOr<Resolved> sink =
      wr.length == 0
          ? StatusOr<Resolved>(Resolved{})
          : remote->ResolveOnNic(rqe->lkey, rqe->addr, wr.length, kMrWrite);
  if (!sink.ok()) {
    PushSendCompletion(qp, wr, sink.status(), NowNs());
    return Status::Ok();
  }

  uint64_t wire_bytes = wr.length + (qp->type() == QpType::kUd ? params_.ud_grh_bytes : 0);
  uint64_t local_done =
      ReserveEngine(now, params_.rnic_process_ns + qpc_penalty + local->cache_penalty_ns);
  uint64_t queue_ns = 0;
  uint64_t arrive =
      FinishOrDrop(remote, wire_bytes + kOneSidedHeaderBytes / 2, local_done, nullptr, &queue_ns);
  if (arrive == Fabric::kDropped) {
    if (qp->type() == QpType::kRc) {
      qp->SetError();
    }
    PushSendCompletion(qp, wr, Status::Unavailable("message dropped"), now + kRnrTimeoutNs / 64);
    return Status::Ok();
  }
  uint64_t remote_done = remote->ReserveEngine(
      arrive, params_.rnic_process_ns + sink->cache_penalty_ns + remote_qpc_penalty);

  if (wr.length > 0) {
    CopyResolved(*local, *sink, wr.length);
  }

  Completion rc;
  rc.wr_id = rqe->wr_id;
  rc.opcode = WcOpcode::kRecv;
  rc.byte_len = static_cast<uint32_t>(wr.length);
  rc.imm = wr.imm;
  rc.src_node = node_;
  rc.src_qpn = qp->qpn();
  rc.ready_at_ns = remote_done + params_.rnic_completion_ns;
  remote_qp->recv_cq()->Push(std::move(rc));

  // UD has no ACK; RC acks back.
  const bool ud = qp->type() == QpType::kUd;
  uint64_t ready_at =
      ud ? local_done : remote_done + params_.rnic_ack_ns + params_.wire_latency_ns;
  tl_last_lat.rnic_local_ns = local_done - now;
  tl_last_lat.port_queue_ns = queue_ns;
  tl_last_lat.wire_ns = (arrive - local_done - queue_ns) + (ud ? 0 : params_.wire_latency_ns);
  tl_last_lat.rnic_remote_ns = (remote_done - arrive) + (ud ? 0 : params_.rnic_ack_ns);
  tl_last_lat.compl_ns = params_.rnic_completion_ns;
  PushSendCompletion(qp, wr, Status::Ok(), ready_at);
  return Status::Ok();
}

uint64_t Rnic::FinishOrDrop(Rnic* remote, uint64_t bytes, uint64_t earliest_ns,
                            TransferFaults* faults_out, uint64_t* queue_ns_out) {
  return port_->fabric()->TransferFinishNs(node_, remote->node(), bytes, earliest_ns, faults_out,
                                           queue_ns_out);
}

uint64_t Rnic::FinishOrDropFrom(Rnic* remote, uint64_t bytes, uint64_t earliest_ns,
                                uint64_t* queue_ns_out) {
  return port_->fabric()->TransferFinishNs(remote->node(), node_, bytes, earliest_ns, nullptr,
                                           queue_ns_out);
}

void Rnic::CopyResolved(const Resolved& src, const Resolved& dst, uint64_t len) {
  if (src.host != nullptr && dst.host != nullptr) {
    SimDmaCopy(dst.host, src.host, len);
    return;
  }
  if (src.host != nullptr) {
    // Host -> fragmented physical.
    uint64_t off = 0;
    for (const PhysRange& pr : dst.ranges) {
      uint64_t take = std::min<uint64_t>(pr.size, len - off);
      PhysMem* dmem = directory_->Lookup(pr.node)->mem();
      SimDmaCopy(dmem->Data(pr.addr, take), src.host + off, take);
      off += take;
      if (off == len) {
        break;
      }
    }
    assert(off == len && "destination scatter list shorter than op length");
    return;
  }
  if (dst.host != nullptr) {
    // Fragmented physical -> host.
    uint64_t off = 0;
    for (const PhysRange& pr : src.ranges) {
      uint64_t take = std::min<uint64_t>(pr.size, len - off);
      PhysMem* smem = directory_->Lookup(pr.node)->mem();
      SimDmaCopy(dst.host + off, smem->Data(pr.addr, take), take);
      off += take;
      if (off == len) {
        break;
      }
    }
    assert(off == len && "source scatter list shorter than op length");
    return;
  }
  // Fragmented physical -> fragmented physical.
  size_t si = 0;
  size_t di = 0;
  uint64_t soff = 0;
  uint64_t doff = 0;
  uint64_t remaining = len;
  while (remaining > 0 && si < src.ranges.size() && di < dst.ranges.size()) {
    uint64_t savail = src.ranges[si].size - soff;
    uint64_t davail = dst.ranges[di].size - doff;
    uint64_t take = std::min({savail, davail, remaining});
    PhysMem* smem = directory_->Lookup(src.ranges[si].node)->mem();
    PhysMem* dmem = directory_->Lookup(dst.ranges[di].node)->mem();
    SimDmaCopy(dmem->Data(dst.ranges[di].addr + doff, take),
                smem->Data(src.ranges[si].addr + soff, take), take);
    soff += take;
    doff += take;
    remaining -= take;
    if (soff == src.ranges[si].size) {
      ++si;
      soff = 0;
    }
    if (doff == dst.ranges[di].size) {
      ++di;
      doff = 0;
    }
  }
  assert(remaining == 0 && "scatter/gather list shorter than op length");
}

Status Rnic::ExecuteAtomic(Qp* qp, const WorkRequest& wr, Rnic* remote) {
  const uint64_t now = NowNs();
  if (wr.remote_addr % 8 != 0) {
    PushSendCompletion(qp, wr, Status::InvalidArgument("atomic target not 8B-aligned"), now);
    return Status::Ok();
  }
  uint64_t qpc_penalty = qpc_cache_.Touch(qp->qpn()) ? 0 : params_.qpc_miss_ns;
  uint64_t remote_qpc_penalty =
      params_.rnic_model_responder_qpc && remote != this
          ? (remote->qpc_cache_.Touch(qp->remote_qpn()) ? 0 : params_.qpc_miss_ns)
          : 0;
  auto target = remote->ResolveOnNic(wr.rkey, wr.remote_addr, 8, kMrAtomic);
  if (!target.ok()) {
    PushSendCompletion(qp, wr, target.status(), now);
    return Status::Ok();
  }
  assert(target->ranges.size() == 1);

  uint64_t local_done = ReserveEngine(now, params_.rnic_process_ns + qpc_penalty);
  uint64_t queue_ns = 0;
  uint64_t arrive =
      FinishOrDrop(remote, kOneSidedHeaderBytes + 16, local_done, nullptr, &queue_ns);
  if (arrive == Fabric::kDropped) {
    qp->SetError();
    PushSendCompletion(qp, wr, Status::Unavailable("atomic dropped"), now + kRnrTimeoutNs / 64);
    return Status::Ok();
  }
  uint64_t remote_done = remote->ReserveEngine(
      arrive, params_.rnic_process_ns + params_.rnic_atomic_extra_ns +
                  target->cache_penalty_ns + remote_qpc_penalty);

  const uint64_t old_value =
      ApplyAtomic(remote->mem()->Data(target->ranges[0].addr, 8),
                  wr.opcode == WrOpcode::kCmpSwap, wr.compare_add, wr.swap);
  if (wr.atomic_result != nullptr) {
    *wr.atomic_result = old_value;
  }

  // The atomic response is ack-sized; it rides the credit path rather than
  // reserving payload bandwidth.
  tl_last_lat.rnic_local_ns = local_done - now;
  tl_last_lat.port_queue_ns = queue_ns;
  tl_last_lat.wire_ns = (arrive - local_done - queue_ns) + params_.wire_latency_ns;
  tl_last_lat.rnic_remote_ns = remote_done - arrive;
  tl_last_lat.compl_ns = params_.rnic_completion_ns;
  PushSendCompletion(qp, wr, Status::Ok(), remote_done + params_.wire_latency_ns);
  return Status::Ok();
}

}  // namespace lt
