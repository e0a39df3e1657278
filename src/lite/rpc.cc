// LITE RPC stack (paper Sec. 5).
//
// Request path: the client reserves space in the per-(client, function) ring
// at the server, writes [header | input] there with one RDMA write-imm whose
// 32-bit immediate encodes (function id, ring offset), and waits on a reply
// slot. The server's single shared polling thread decodes the IMM, moves the
// payload out of the ring, hands it to the registered function's queue, and
// the advanced ring head goes back to the client's head mirror with a
// one-sided write (paper Fig. 9; a background thread in the paper). The reply
// is a second write-imm into the client's reply slot. Request writes are
// unsignaled: failures surface as reply timeouts (paper Sec. 5.1).
// Each node's poll and head threads are model entities that LiteCluster's one
// poller runs through ServeCompletion (see lite_cluster.h).
#include <cstring>
#include <set>
#include <thread>

#include "src/common/annotations.h"
#include "src/common/logging.h"
#include "src/common/service_timeline.h"
#include "src/common/timing.h"
#include "src/lite/instance.h"
#include "src/lite/wire.h"
#include "src/rnic/rnic.h"

namespace lite {

using lt::NowNs;
using lt::SpinFor;
using lt::WcOpcode;
using lt::telemetry::AttrAdd;
using lt::telemetry::AttrAddRpcWait;
using lt::telemetry::LatStage;

namespace {

uint64_t Align64(uint64_t v) { return (v + 63) & ~63ull; }

}  // namespace

// Adaptive spin-then-sleep arrival at an event (paper Sec. 5.2): sync to the
// event's virtual time; if the gap exceeded the spin budget the thread had
// gone to sleep, so it additionally pays a wakeup.
void SyncAdaptiveWithWakeup(uint64_t event_vtime, const lt::SimParams& p) {
  const uint64_t gap = event_vtime > lt::NowNs() ? event_vtime - lt::NowNs() : 0;
  lt::SyncToAdaptive(event_vtime, p.lite_adaptive_spin_ns);
  if (gap > p.lite_adaptive_spin_ns) {
    lt::SpinFor(p.thread_wakeup_ns);
  }
}

// ----------------------------------------------------------- channel setup

StatusOr<PhysAddr> LiteInstance::AllocMirror() {
  std::lock_guard<std::mutex> lock(mirror_mu_);
  if (mirror_next_ >= mirror_cap_) {
    return Status::ResourceExhausted("head-mirror slab exhausted");
  }
  return mirror_slab_ + 8 * mirror_next_++;
}

ServerRing* LiteInstance::SetupServerRing(NodeId client, RpcFuncId ring_id,
                                          PhysAddr client_head_mirror) {
  std::lock_guard<std::mutex> lock(rings_mu_);
  auto key = std::make_pair(client, ring_id);
  auto it = rings_.find(key);
  if (it != rings_.end()) {
    return it->second.get();
  }
  auto chunks = AllocLocalChunks(params().lite_rpc_ring_bytes);
  if (!chunks.ok() || chunks->size() != 1) {
    LT_LOG_ERROR << "node " << node_id() << ": cannot allocate RPC ring";
    return nullptr;
  }
  auto ring = std::make_unique<ServerRing>();
  ring->client = client;
  ring->func = ring_id;
  ring->ring = (*chunks)[0];
  ring->ring_size = ring->ring.size;
  ring->client_head_mirror = client_head_mirror;
  ServerRing* out = ring.get();
  rings_[key] = std::move(ring);
  return out;
}

StatusOr<RpcChannel*> LiteInstance::GetChannel(NodeId server, RpcFuncId ring_id) {
  {
    std::lock_guard<std::mutex> lock(channels_mu_);
    auto it = channels_.find({server, ring_id});
    if (it != channels_.end()) {
      return it->second.get();
    }
  }
  if (ring_id == kControlRingId) {
    // Lazy bootstrap (lite_eager_control_rings=false at large scale): build
    // the control ring to this server on first use. BootstrapControlChannel
    // is idempotent, so a race between two first callers is benign.
    LiteInstance* srv = Peer(server);
    if (srv == nullptr) {
      return Status::Internal("control channel missing (unknown peer)");
    }
    BootstrapControlChannel(srv);
    std::lock_guard<std::mutex> lock(channels_mu_);
    auto it = channels_.find({server, ring_id});
    if (it == channels_.end()) {
      return Status::Internal("control channel missing (bootstrap failed)");
    }
    return it->second.get();
  }
  // First bind to this (server, function): ask the server to allocate the
  // ring (paper Sec. 5.1, "LITE allocates a new internal LMR at the RPC
  // server node").
  auto mirror = AllocMirror();
  if (!mirror.ok()) {
    return mirror.status();
  }
  WireWriter w;
  w.Put<RpcFuncId>(ring_id);
  w.Put<PhysAddr>(*mirror);
  std::vector<uint8_t> out;
  LT_RETURN_IF_ERROR(InternalRpc(server, kFnRingSetup, w.bytes(), &out));
  WireReader r(out.data(), out.size());
  LmrChunk chunk;
  uint64_t ring_size = 0;
  if (!r.Get(&chunk) || !r.Get(&ring_size)) {
    return Status::Internal("malformed ring-setup reply");
  }
  auto channel = std::make_unique<RpcChannel>();
  channel->server = server;
  channel->func = ring_id;
  channel->ring = {chunk};
  channel->ring_size = ring_size;
  channel->head_mirror = *mirror;

  std::lock_guard<std::mutex> lock(channels_mu_);
  auto [it, inserted] = channels_.emplace(std::make_pair(server, ring_id), std::move(channel));
  return it->second.get();
}

// ------------------------------------------------------------- reply slots

StatusOr<uint32_t> LiteInstance::AcquireReplySlot(uint32_t out_max) {
  if (out_max > params().lite_reply_slot_bytes) {
    return Status::InvalidArgument("RPC reply larger than reply-slot size");
  }
  std::unique_lock<std::mutex> lock(slot_mu_);
  if (free_slots_.empty()) {
    // Zombie quarantine sweep: a slot whose caller timed out is normally
    // freed by the late reply — but a dead peer never sends one. Reclaim
    // zombies older than the RPC timeout so a crashed server can't leak the
    // slot pool dry.
    const uint64_t now_real = lt::RealNowNs();
    for (uint32_t i = 0; i < reply_slots_.size(); ++i) {
      ReplySlot& z = *reply_slots_[i];
      if (z.state.load(std::memory_order_acquire) == 4 &&
          now_real - z.zombie_since_real_ns.load(std::memory_order_relaxed) >
              params().lite_rpc_timeout_ns) {
        z.state.store(0, std::memory_order_release);
        free_slots_.push_back(i);
        rpc_zombie_reclaimed_->Inc();
      }
    }
  }
  if (!slot_cv_.wait_for(lock, std::chrono::seconds(10), [this] { return !free_slots_.empty(); })) {
    return Status::ResourceExhausted("no free RPC reply slots");
  }
  uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  // New generation: late replies addressed to the previous tenant of this
  // slot no longer match and are discarded by HandleReplyImm.
  reply_slots_[slot]->gen.fetch_add(1, std::memory_order_relaxed);
  reply_slots_[slot]->state.store(1, std::memory_order_release);
  return slot;
}

void LiteInstance::ReleaseReplySlot(uint32_t slot) {
  {
    std::lock_guard<std::mutex> lock(slot_mu_);
    reply_slots_[slot]->state.store(0, std::memory_order_release);
    free_slots_.push_back(slot);
  }
  slot_cv_.notify_one();
}

// ------------------------------------------------------------ client path

Status LiteInstance::PostRpcRequest(RpcChannel* channel, RpcFuncId func, const void* in,
                                    uint32_t in_len, PhysAddr reply_phys, uint32_t reply_max,
                                    uint32_t reply_slot, Priority pri, uint32_t* seq_inout,
                                    bool fail_fast_dead) {
  const uint64_t entry_len = Align64(sizeof(RpcReqHeader) + in_len);
  if (entry_len > channel->ring_size) {
    return Status::InvalidArgument("RPC input larger than server ring");
  }
  if (fail_fast_dead && PeerDead(channel->server)) {
    rpc_dead_fast_fail_->Inc();
    return DeadPeerUnavailable();
  }

  std::lock_guard<std::mutex> lock(channel->mu);
  const uint64_t real_deadline = lt::RealNowNs() + params().lite_rpc_timeout_ns;
  uint64_t off;
  while (true) {
    // The head mirror is DMA-written by the server when it publishes a ring
    // head; the racy read is the paper's design (stale heads only delay reuse).
    uint64_t head = lt::SimDmaRead64(node_->mem().Data(channel->head_mirror, 8));
    off = channel->tail % channel->ring_size;
    uint64_t pad = (off + entry_len > channel->ring_size) ? (channel->ring_size - off) : 0;
    if (channel->tail + pad + entry_len <= head + channel->ring_size) {
      channel->tail += pad;
      off = channel->tail % channel->ring_size;
      break;
    }
    // Ring full: wait for the server's background head updates.
    if (lt::RealNowNs() > real_deadline) {
      return Status::ResourceExhausted("RPC ring full (server not draining)");
    }
    lt::IdleFor(params().lite_ring_full_retry_ns);
    AttrAdd(LatStage::kLatEngineQueue, params().lite_ring_full_retry_ns);
    std::this_thread::sleep_for(std::chrono::microseconds(2));
  }

  if (*seq_inout == 0) {
    // Fresh call: assign the channel's next sequence (retries re-present the
    // same one so the server can dedup). 0 is reserved for "never dedup".
    if (channel->next_seq == 0) {
      channel->next_seq = 1;
    }
    *seq_inout = channel->next_seq++;
  }

  RpcReqHeader hdr;
  hdr.input_len = in_len;
  hdr.reply_phys = reply_phys;
  hdr.reply_max = static_cast<uint16_t>(reply_max);
  hdr.reply_slot = reply_slot;
  hdr.seq = *seq_inout;
  hdr.client_node = static_cast<uint16_t>(node_id());
  hdr.tail_after = channel->tail + entry_len;
  hdr.trace_id = lt::telemetry::CurrentTraceId();

  std::vector<uint8_t> staging(sizeof(RpcReqHeader) + in_len);
  std::memcpy(staging.data(), &hdr, sizeof(hdr));
  if (in_len > 0) {
    std::memcpy(staging.data() + sizeof(hdr), in, in_len);
  }

  const LmrChunk& ring = channel->ring[0];
  Status st =
      engine_.OneSidedWriteImm(channel->server, ring.addr + off, staging.data(), staging.size(),
                               EncodeImm(func, static_cast<uint32_t>(off / kRingOffsetUnit)), pri);
  if (st.ok()) {
    channel->tail += entry_len;
  }
  return st;
}

StatusOr<uint32_t> LiteInstance::RpcSend(NodeId server_node, RpcFuncId func, const void* in,
                                         uint32_t in_len, uint32_t out_max, Priority pri) {
  auto channel = GetChannel(server_node, RingIdFor(func));
  if (!channel.ok()) {
    return channel.status();
  }
  auto slot = AcquireReplySlot(out_max);
  if (!slot.ok()) {
    return slot.status();
  }
  // The reply may use the whole slot; if it exceeds the caller's buffer the
  // copy-out truncates and reports OutOfRange (the data still arrived).
  ReplySlot& s = *reply_slots_[*slot];
  uint32_t seq = 0;
  Status st = PostRpcRequest(*channel, func, in, in_len, s.buf_phys, s.buf_max,
                             PackReplySlot(*slot, s.gen.load(std::memory_order_relaxed)), pri,
                             &seq);
  if (!st.ok()) {
    ReleaseReplySlot(*slot);
    return st;
  }
  return *slot;
}

Status LiteInstance::RpcSendNoReply(NodeId server_node, RpcFuncId func, const void* in,
                                    uint32_t in_len, Priority pri) {
  auto channel = GetChannel(server_node, RingIdFor(func));
  if (!channel.ok()) {
    return channel.status();
  }
  uint32_t seq = 0;
  return PostRpcRequest(*channel, func, in, in_len, /*reply_phys=*/0, /*reply_max=*/0,
                        kNoReplySlot, pri, &seq);
}

Status LiteInstance::RpcWait(uint32_t slot, void* out, uint32_t out_max, uint32_t* out_len,
                             uint64_t timeout_ns) {
  timeout_ns = engine_.EffectiveTimeoutNs(timeout_ns);
  ReplySlot& s = *reply_slots_[slot];
  uint32_t len;
  uint64_t ready_vtime;
  {
    std::unique_lock<std::mutex> lock(s.mu);
    if (!s.cv.wait_for(lock, std::chrono::nanoseconds(timeout_ns),
                       [&s] { return s.state.load(std::memory_order_acquire) >= 2; })) {
      // Timed out: leave the slot as a zombie; a late reply frees it (or the
      // quarantine sweep reclaims it if the peer died and none ever comes).
      s.zombie_since_real_ns.store(lt::RealNowNs(), std::memory_order_relaxed);
      s.state.store(4, std::memory_order_release);
      lt::IdleFor(timeout_ns);
      AttrAdd(LatStage::kLatDetour, timeout_ns);
      return Status::Timeout("no RPC reply before timeout");
    }
    len = s.reply_len;
    ready_vtime = s.ready_vtime_ns;
  }
  // The LITE library's adaptive wait: busy-check the shared state briefly,
  // then sleep (paper Sec. 5.2). The wait spans request transport, remote
  // handler service, and reply transport; with no per-post breakdown at hand
  // (the post happened at RpcSend time, possibly on another thread) the whole
  // delta books as remote service.
  const uint64_t wait_t0 = NowNs();
  SyncAdaptiveWithWakeup(ready_vtime, params());
  AttrAddRpcWait(NowNs() - wait_t0, lt::telemetry::WqeLatBreakdown{});
  lt::telemetry::StampStage(lt::telemetry::TraceStage::kCompletion, ready_vtime);

  const uint64_t ret_t0 = NowNs();
  uint32_t copy_len = std::min(len, out_max);
  if (copy_len > 0 && out != nullptr) {
    LocalCopyOut(out, s.buf_phys, copy_len);
  }
  AttrAdd(LatStage::kLatRetire, NowNs() - ret_t0);
  if (out_len != nullptr) {
    *out_len = len;
  }
  ReleaseReplySlot(slot);
  if (len > out_max) {
    return Status::OutOfRange("reply truncated: larger than caller buffer");
  }
  return Status::Ok();
}

Status LiteInstance::Rpc(NodeId server_node, RpcFuncId func, const void* in, uint32_t in_len,
                         void* out, uint32_t out_max, uint32_t* out_len, Priority pri) {
  lt::telemetry::ScopedSpan span(&node_->telemetry().tracer(), "LT_RPC");
  lt::telemetry::ScopedOpAttr attr(&node_->telemetry().latency(), "rpc", in_len,
                                   static_cast<int>(pri));
  return RpcCall(server_node, func, in, in_len, out, out_max, out_len, pri, RpcCallOpts{});
}

Status LiteInstance::RpcCall(NodeId server_node, RpcFuncId func, const void* in, uint32_t in_len,
                             void* out, uint32_t out_max, uint32_t* out_len, Priority pri,
                             const RpcCallOpts& opts) {
  if (opts.fail_fast_dead && PeerDead(server_node)) {
    rpc_dead_fast_fail_->Inc();
    return DeadPeerUnavailable();
  }
  auto channel = GetChannel(server_node, RingIdFor(func));
  if (!channel.ok()) {
    return channel.status();
  }
  auto slot = AcquireReplySlot(out_max);
  if (!slot.ok()) {
    return slot.status();
  }
  ReplySlot& s = *reply_slots_[*slot];
  // The packed slot+generation rides every attempt; all attempts of one call
  // share the slot, so whichever attempt's reply lands first completes it.
  const uint32_t packed = PackReplySlot(*slot, s.gen.load(std::memory_order_relaxed));
  const uint64_t per_try_ns = engine_.EffectiveTimeoutNs(opts.timeout_ns);
  const uint32_t max_retries = opts.max_retries == kUseParamRetries
                                   ? params().lite_rpc_max_retries
                                   : opts.max_retries;
  uint64_t backoff_ns = params().lite_rpc_retry_backoff_ns;
  uint32_t seq = 0;  // Assigned by the first successful post; reused after.
  Status last = Status::Timeout("no RPC reply before timeout");
  for (uint32_t attempt = 0; attempt <= max_retries; ++attempt) {
    if (attempt > 0) {
      rpc_retries_->Inc();
      engine_.CountRetry();
      lt::IdleFor(backoff_ns);
      AttrAdd(LatStage::kLatDetour, backoff_ns);
      if (journal_ != nullptr) {
        journal_->Record(lt::telemetry::JournalEvent::kRpcRetry, server_node, backoff_ns);
      }
      backoff_ns *= 2;
      if (opts.fail_fast_dead && PeerDead(server_node)) {
        rpc_dead_fast_fail_->Inc();
        last = DeadPeerUnavailable();
        break;
      }
    }
    Status posted = PostRpcRequest(*channel, func, in, in_len, s.buf_phys, s.buf_max, packed,
                                   pri, &seq, opts.fail_fast_dead);
    // The request's transport breakdown (RNIC, port queue, wire) from the
    // write-imm just posted; the reply wait below is split against it.
    const lt::telemetry::WqeLatBreakdown post_lat = lt::Rnic::LastPostBreakdown();
    if (!posted.ok()) {
      last = posted;
      const lt::StatusCode c = posted.code();
      if (c == lt::StatusCode::kUnavailable || c == lt::StatusCode::kTimeout ||
          c == lt::StatusCode::kResourceExhausted) {
        continue;  // Transient (QP reconnect exhausted / ring full): retry.
      }
      break;
    }
    uint32_t len;
    uint64_t ready_vtime;
    {
      std::unique_lock<std::mutex> lock(s.mu);
      if (!s.cv.wait_for(lock, std::chrono::nanoseconds(per_try_ns),
                         [&s] { return s.state.load(std::memory_order_acquire) >= 2; })) {
        lt::IdleFor(per_try_ns);  // The attempt's wait really elapsed.
        AttrAdd(LatStage::kLatDetour, per_try_ns);
        last = Status::Timeout("no RPC reply before timeout");
        continue;
      }
      len = s.reply_len;
      ready_vtime = s.ready_vtime_ns;
    }
    const uint64_t wait_t0 = NowNs();
    SyncAdaptiveWithWakeup(ready_vtime, params());
    AttrAddRpcWait(NowNs() - wait_t0, post_lat);
    lt::telemetry::StampStage(lt::telemetry::TraceStage::kCompletion, ready_vtime);
    const uint64_t ret_t0 = NowNs();
    const uint32_t copy_len = std::min(len, out_max);
    if (copy_len > 0 && out != nullptr) {
      LocalCopyOut(out, s.buf_phys, copy_len);
    }
    AttrAdd(LatStage::kLatRetire, NowNs() - ret_t0);
    if (out_len != nullptr) {
      *out_len = len;
    }
    ReleaseReplySlot(*slot);
    if (len > out_max) {
      return Status::OutOfRange("reply truncated: larger than caller buffer");
    }
    return Status::Ok();
  }
  // Every attempt failed. If nothing was ever posted the slot is clean;
  // otherwise a late reply may still land — quarantine it as a zombie.
  if (seq == 0) {
    ReleaseReplySlot(*slot);
  } else {
    bool became_ready = false;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      if (s.state.load(std::memory_order_acquire) == 2) {
        became_ready = true;  // Reply raced in after the final timeout.
      } else {
        s.zombie_since_real_ns.store(lt::RealNowNs(), std::memory_order_relaxed);
        s.state.store(4, std::memory_order_release);
      }
    }
    if (became_ready) {
      ReleaseReplySlot(*slot);
    }
  }
  if (opts.fail_fast_dead && last.code() == lt::StatusCode::kTimeout && PeerDead(server_node)) {
    // Distinguish "peer is dead" from "peer is slow": the liveness service
    // condemned the target while we were waiting.
    last = DeadPeerUnavailable();
  }
  return last;
}

Status LiteInstance::MulticastRpc(const std::vector<NodeId>& servers, RpcFuncId func,
                                  const void* in, uint32_t in_len,
                                  std::vector<std::vector<uint8_t>>* replies) {
  // Pipelined multicast (paper Sec. 8.4): issue all calls as async handles,
  // then retire each through the shared completion-handle machinery; total
  // latency ~= one RPC round trip.
  struct Pending {
    MemopHandle handle = kInvalidMemopHandle;
    std::vector<uint8_t> buf;
    uint32_t len = 0;
  };
  const uint32_t out_max = static_cast<uint32_t>(params().lite_reply_slot_bytes);
  std::vector<Pending> pending(servers.size());
  Status first_error = Status::Ok();
  for (size_t i = 0; i < servers.size(); ++i) {
    pending[i].buf.resize(out_max);
    auto h = RpcAsync(servers[i], func, in, in_len, pending[i].buf.data(), out_max,
                      &pending[i].len);
    if (!h.ok()) {
      first_error = h.status();
      break;
    }
    pending[i].handle = *h;
  }
  if (replies != nullptr) {
    replies->clear();
  }
  for (Pending& p : pending) {
    if (p.handle == kInvalidMemopHandle) {
      continue;
    }
    Status st = Wait(p.handle);
    if (!st.ok() && first_error.ok()) {
      first_error = st;
    }
    p.buf.resize(p.len);
    if (replies != nullptr) {
      replies->push_back(std::move(p.buf));
    }
  }
  return first_error;
}

Status LiteInstance::InternalRpc(NodeId server, RpcFuncId func, const WireWriterBytes& in,
                                 std::vector<uint8_t>* out, uint64_t timeout_ns, Priority pri) {
  RpcCallOpts opts;
  opts.timeout_ns = timeout_ns;
  return InternalRpcOpts(server, func, in, out, opts, pri);
}

Status LiteInstance::InternalRpcOpts(NodeId server, RpcFuncId func, const WireWriterBytes& in,
                                     std::vector<uint8_t>* out, const RpcCallOpts& opts,
                                     Priority pri) {
  std::vector<uint8_t> raw(params().lite_reply_slot_bytes);
  uint32_t raw_len = 0;
  LT_RETURN_IF_ERROR(RpcCall(server, func, in.data(), static_cast<uint32_t>(in.size()),
                             raw.data(), static_cast<uint32_t>(raw.size()), &raw_len, pri, opts));
  if (raw_len < sizeof(uint32_t)) {
    return Status::Internal("malformed internal RPC reply");
  }
  uint32_t code;
  std::memcpy(&code, raw.data(), sizeof(code));
  if (code != static_cast<uint32_t>(lt::StatusCode::kOk)) {
    return Status(static_cast<lt::StatusCode>(code), "remote LITE error");
  }
  if (out != nullptr) {
    out->assign(raw.begin() + sizeof(uint32_t), raw.begin() + raw_len);
  }
  return Status::Ok();
}

// ------------------------------------------------------------ server path

Status LiteInstance::RegisterRpc(RpcFuncId func) {
  if (func > kMaxAppFuncId) {
    return Status::InvalidArgument("application RPC ids must be <= 999");
  }
  EnsureAppQueue(func);
  return Status::Ok();
}

BlockingQueue<RpcIncoming>* LiteInstance::EnsureAppQueue(RpcFuncId func) {
  std::lock_guard<std::mutex> lock(funcs_mu_);
  auto it = app_queues_.find(func);
  if (it == app_queues_.end()) {
    it = app_queues_.emplace(func, std::make_unique<BlockingQueue<RpcIncoming>>()).first;
  }
  return it->second.get();
}

StatusOr<RpcIncoming> LiteInstance::RecvRpc(RpcFuncId func, uint64_t timeout_ns) {
  BlockingQueue<RpcIncoming>* queue = EnsureAppQueue(func);
  std::optional<RpcIncoming> inc;
  if (timeout_ns == kInfiniteTimeout) {
    inc = queue->Pop();
  } else {
    inc = queue->PopFor(std::chrono::nanoseconds(engine_.EffectiveTimeoutNs(timeout_ns)));
  }
  if (!inc.has_value()) {
    if (stopping_.load()) {
      return Status::Unavailable("LITE instance stopping");
    }
    return Status::Timeout("no RPC request before timeout");
  }
  // Serve this request on its own timeline (adaptive spin-then-sleep wait).
  lt::ServiceTimeline::ForThisThread().BeginService(inc->arrival_vtime_ns, 1000,
                                                    params().lite_adaptive_spin_ns,
                                                    params().thread_wakeup_ns);
  return *inc;
}

Status LiteInstance::ReplyRpc(const ReplyToken& token, const void* data, uint32_t len) {
  if (!token.valid() || token.reply_slot == kNoReplySlot || token.reply_phys == 0) {
    return Status::Ok();  // Fire-and-forget call: nothing to reply to.
  }
  if (len > token.reply_max) {
    return Status::InvalidArgument("RPC reply exceeds caller's buffer");
  }
  if (token.seq != 0) {
    // Cache the reply before sending: a retried duplicate arriving after
    // this point re-sends it instead of re-executing the handler.
    RecordReplay(token, data, len);
  }
  if (token.parent_trace_id != 0) {
    // The client sampled this call (nonzero trace id on the wire): commit a
    // server-side child span covering request pickup -> reply post, tagged
    // with the client's id so the dump/export can stitch the halves. Costs
    // nothing for unsampled traffic — parent_trace_id is 0 then. Committed
    // before the reply write so that once the client observes completion,
    // the server half is already in node-local tracer state.
    lt::telemetry::Tracer& tracer = node_->telemetry().tracer();
    lt::telemetry::TraceSpan span;
    span.op = "LT_RPC_srv";
    span.trace_id = tracer.AllocTraceId();
    span.parent_trace_id = token.parent_trace_id;
    span.node = node_id();
    span.StampAt(lt::telemetry::TraceStage::kServerRecv, token.arrival_vtime_ns);
    span.StampAt(lt::telemetry::TraceStage::kServerReply, lt::NowNs(), len);
    tracer.Commit(span);
  }
  return engine_.OneSidedWriteImm(token.client_node, token.reply_phys, data, len,
                                  EncodeImm(kReplyFuncId, token.reply_slot), Priority::kHigh);
}

StatusOr<RpcIncoming> LiteInstance::ReplyAndRecv(const ReplyToken& token, const void* data,
                                                 uint32_t len, RpcFuncId func,
                                                 uint64_t timeout_ns) {
  LT_RETURN_IF_ERROR(ReplyRpc(token, data, len));
  return RecvRpc(func, timeout_ns);
}

// -------------------------------------------------------------- messaging

Status LiteInstance::SendMsg(NodeId dst, const void* data, uint32_t len, Priority pri) {
  auto channel = GetChannel(dst, kControlRingId);
  if (!channel.ok()) {
    return channel.status();
  }
  uint32_t seq = 0;
  return PostRpcRequest(*channel, kMsgFuncId, data, len, /*reply_phys=*/0, /*reply_max=*/0,
                        kNoReplySlot, pri, &seq);
}

StatusOr<MsgIncoming> LiteInstance::RecvMsg(uint64_t timeout_ns) {
  std::optional<MsgIncoming> msg;
  if (timeout_ns == kInfiniteTimeout) {
    msg = msg_queue_.Pop();
  } else {
    msg = msg_queue_.PopFor(std::chrono::nanoseconds(engine_.EffectiveTimeoutNs(timeout_ns)));
  }
  if (!msg.has_value()) {
    if (stopping_.load()) {
      return Status::Unavailable("LITE instance stopping");
    }
    return Status::Timeout("no message before timeout");
  }
  lt::ServiceTimeline::ForThisThread().BeginService(msg->arrival_vtime_ns, 500,
                                                    params().lite_adaptive_spin_ns,
                                                    params().thread_wakeup_ns);
  return *msg;
}

// ----------------------------------------------------------- service loops

void LiteInstance::ServeCompletion(const lt::Completion& c) {
  // Resume this node's poll thread where its last event left it, then serve
  // the event on the event's own timeline (clock rewound per event; the
  // thread's serial dispatch capacity is still enforced).
  lt::SetServiceClock(poll_clock_ns_);
  const uint64_t cpu0 = lt::ThreadCpuNs();
  lt::SyncToIdle(c.ready_at_ns);
  poll_wakeups_->Inc();
  if (c.opcode == WcOpcode::kRecvImm && c.has_imm) {
    // Batch size at this wake: the completion in hand plus whatever else is
    // already queued behind it (paper Sec. 5.1's shared-poller batching).
    poll_batch_hist_->Record(1 + recv_cq_->Depth());
    poll_timeline_.BeginService(c.ready_at_ns, params().lite_rpc_dispatch_ns,
                                params().lite_adaptive_spin_ns, params().thread_wakeup_ns);
    if (ImmFunc(c.imm) == kReplyFuncId) {
      HandleReplyImm(c.imm, c.byte_len, lt::NowNs());
    } else {
      HandleRequestImm(c.src_node, c.imm, lt::NowNs());
    }
  }
  poll_cpu_.Add(lt::ThreadCpuNs() - cpu0 - head_publish_cpu_ns_);
  head_publish_cpu_ns_ = 0;
  poll_clock_ns_ = lt::NowNs();
}

void LiteInstance::HandleReplyImm(uint32_t imm, uint32_t byte_len, uint64_t vtime) {
  const uint32_t packed = ImmPayload(imm);
  const uint32_t slot = UnpackReplySlot(packed);
  const uint32_t gen = UnpackReplyGen(packed);
  if (slot >= reply_slots_.size()) {
    LT_LOG_WARNING << "node " << node_id() << ": reply IMM names bad slot " << slot;
    return;
  }
  rpc_replies_->Inc();
  ReplySlot& s = *reply_slots_[slot];
  bool was_zombie = false;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if ((s.gen.load(std::memory_order_relaxed) & kReplyGenMask) != gen) {
      // Addressed to an earlier tenant of this slot (late reply after reuse).
      rpc_stale_replies_->Inc();
      return;
    }
    switch (s.state.load(std::memory_order_acquire)) {
      case 1:  // Caller waiting: deliver.
        s.reply_len = byte_len;
        s.ready_vtime_ns = vtime;
        s.state.store(2, std::memory_order_release);
        break;
      case 4:  // Caller gave up: the late reply frees the slot.
        was_zombie = true;
        break;
      default:  // Free or already delivered: duplicate reply, drop it.
        rpc_stale_replies_->Inc();
        return;
    }
  }
  if (was_zombie) {
    // Free only if still a zombie: the quarantine sweep in AcquireReplySlot
    // may have reclaimed (or even re-issued) the slot since we dropped s.mu.
    bool freed = false;
    {
      std::lock_guard<std::mutex> lock(slot_mu_);
      int expected = 4;
      if (s.state.compare_exchange_strong(expected, 0, std::memory_order_acq_rel)) {
        free_slots_.push_back(slot);
        freed = true;
      }
    }
    if (freed) {
      slot_cv_.notify_one();
    }
  } else {
    s.cv.notify_one();
  }
}

void LiteInstance::HandleRequestImm(NodeId src, uint32_t imm, uint64_t vtime) {
  const RpcFuncId func = ImmFunc(imm);
  const uint64_t offset = static_cast<uint64_t>(ImmPayload(imm)) * kRingOffsetUnit;

  ServerRing* ring = nullptr;
  {
    std::lock_guard<std::mutex> lock(rings_mu_);
    auto it = rings_.find({src, RingIdFor(func)});
    if (it != rings_.end()) {
      ring = it->second.get();
    }
  }
  if (ring == nullptr) {
    LT_LOG_WARNING << "node " << node_id() << ": request IMM for unknown ring (src=" << src
                   << " func=" << func << ")";
    return;
  }
  rpc_requests_->Inc();
  LT_VLOG << "node " << node_id() << ": RPC request from " << src << " func " << func;

  SpinFor(params().lite_rpc_dispatch_ns);

  // The ring is DMA-written by the client's RNIC; read the header with the
  // simulated-DMA copy (see annotations.h).
  RpcReqHeader hdr;
  lt::SimDmaCopy(&hdr, node_->mem().Data(ring->ring.addr + offset, sizeof(hdr)), sizeof(hdr));
  if (hdr.magic != kRpcMagic || hdr.input_len > ring->ring_size) {
    LT_LOG_WARNING << "node " << node_id() << ": corrupt RPC header in ring";
    return;
  }

  if (hdr.seq != 0 && !SeqFresh(ring, hdr.seq)) {
    // Duplicate of an already-executed request (client retry or fabric
    // duplication): release its ring space, then replay the cached reply
    // instead of re-running the handler — at-most-once execution.
    rpc_dup_requests_->Inc();
    ring->head = std::max(ring->head, hdr.tail_after);
    PublishHead(ring);
    ReplayReply(ring, hdr);
    return;
  }

  // The single data move of the receive path (paper Sec. 5.2): ring -> user.
  RpcIncoming inc;
  inc.data.resize(hdr.input_len);
  if (hdr.input_len > 0) {
    LocalCopyOut(inc.data.data(), ring->ring.addr + offset + sizeof(hdr), hdr.input_len);
  }
  inc.token.client_node = hdr.client_node;
  inc.token.reply_phys = hdr.reply_phys;
  inc.token.reply_max = hdr.reply_max;
  inc.token.reply_slot = hdr.reply_slot;
  inc.token.ring_func = ring->func;
  inc.token.seq = hdr.seq;
  inc.token.parent_trace_id = hdr.trace_id;
  inc.arrival_vtime_ns = NowNs();
  inc.token.arrival_vtime_ns = inc.arrival_vtime_ns;

  // Release the ring space and let the background thread tell the client.
  ring->head = std::max(ring->head, hdr.tail_after);
  PublishHead(ring);

  if (func <= kMaxAppFuncId) {
    EnsureAppQueue(func)->Push(std::move(inc));
  } else if (func == kMsgFuncId) {
    MsgIncoming msg;
    msg.data = std::move(inc.data);
    msg.src = src;
    msg.arrival_vtime_ns = inc.arrival_vtime_ns;
    msg_queue_.Push(std::move(msg));
  } else {
    if (!worker_threads_[0].joinable()) {
      for (std::thread& t : worker_threads_) {
        StartServiceThread(&t, &LiteInstance::InternalWorkerLoop);
      }
    }
    internal_queue_.Push({func, std::move(inc)});
  }
}

void LiteInstance::PublishHead(ServerRing* ring) {
  // The paper's background head thread, posted inline on the triggering
  // event's timeline: neither its time nor its CPU counts against the poll
  // thread. The mirror slab lies outside every LMR, so the post's migration
  // gate always clears and never parks the poller.
  const uint64_t vtime = NowNs();
  const uint64_t cpu0 = lt::ThreadCpuNs();
  const uint64_t head = ring->head;
  (void)engine_.OneSidedWrite(ring->client, ring->client_head_mirror, &head, sizeof(head),
                              Priority::kHigh);
  head_publish_cpu_ns_ += lt::ThreadCpuNs() - cpu0;
  lt::SetServiceClock(vtime);
}

// ------------------------------------------------- idempotence bookkeeping

bool LiteInstance::SeqFresh(ServerRing* ring, uint32_t seq) {
  // Poll thread only — no lock needed on seq_low/seq_above. Sequences are
  // per-channel and skip 0; wrap-around would need 2^32 calls on one channel.
  if (seq <= ring->seq_low || ring->seq_above.count(seq) != 0) {
    return false;
  }
  ring->seq_above.insert(seq);
  // Collapse the consecutive run above the watermark (keeps the set sparse;
  // it only holds gaps created by fault-injected reordering).
  while (!ring->seq_above.empty() && *ring->seq_above.begin() == ring->seq_low + 1) {
    ++ring->seq_low;
    ring->seq_above.erase(ring->seq_above.begin());
  }
  return true;
}

void LiteInstance::RecordReplay(const ReplyToken& token, const void* data, uint32_t len) {
  ServerRing* ring = nullptr;
  {
    std::lock_guard<std::mutex> lock(rings_mu_);
    auto it = rings_.find({token.client_node, token.ring_func});
    if (it != rings_.end()) {
      ring = it->second.get();
    }
  }
  if (ring == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(ring->replay_mu);
  auto& entry = ring->replay[token.seq];
  if (len > 0) {
    entry.assign(static_cast<const uint8_t*>(data), static_cast<const uint8_t*>(data) + len);
  } else {
    entry.clear();
  }
  while (ring->replay.size() > kReplayCacheEntries) {
    ring->replay.erase(ring->replay.begin());  // Evict the oldest sequence.
  }
}

void LiteInstance::ReplayReply(ServerRing* ring, const RpcReqHeader& hdr) {
  if (hdr.reply_slot == kNoReplySlot || hdr.reply_phys == 0) {
    return;  // Fire-and-forget duplicate: nothing to replay.
  }
  std::vector<uint8_t> cached;
  bool hit = false;
  {
    std::lock_guard<std::mutex> lock(ring->replay_mu);
    auto it = ring->replay.find(hdr.seq);
    if (it != ring->replay.end()) {
      cached = it->second;
      hit = true;
    }
  }
  if (!hit) {
    // Not cached: either the original is still executing (its reply will
    // arrive) or the sequence fell off the replay horizon (the client times
    // out). Either way, re-executing would break at-most-once — drop it.
    return;
  }
  rpc_replayed_replies_->Inc();
  (void)engine_.OneSidedWriteImm(ring->client, hdr.reply_phys, cached.data(),
                                 static_cast<uint32_t>(cached.size()),
                                 EncodeImm(kReplyFuncId, hdr.reply_slot), Priority::kHigh);
}

// ----------------------------------------------------- liveness (keepalive)

void LiteInstance::SetPeerDead(NodeId node, bool dead) {
  if (node >= peer_dead_n_) {
    return;
  }
  const uint8_t prev =
      peer_dead_[node].exchange(dead ? 1 : 0, std::memory_order_relaxed);
  if (dead && prev == 0) {
    liveness_marked_dead_->Inc();
    if (journal_ != nullptr) {
      journal_->Record(lt::telemetry::JournalEvent::kPeerDead, node);
    }
    LT_LOG_INFO << "node " << node_id() << ": liveness marks node " << node << " dead";
  } else if (!dead && prev != 0) {
    liveness_revived_->Inc();
    if (journal_ != nullptr) {
      journal_->Record(lt::telemetry::JournalEvent::kPeerAlive, node);
    }
    LT_LOG_INFO << "node " << node_id() << ": liveness revives node " << node;
  }
}

void LiteInstance::KeepaliveLoop() {
  const uint64_t interval_ns = params().lite_keepalive_interval_ns;
  int consecutive_failures = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(keepalive_mu_);
      if (keepalive_cv_.wait_for(lock, std::chrono::nanoseconds(interval_ns),
                                 [this] { return stopping_.load(); })) {
        return;
      }
    }
    WireWriter w;
    w.Put<NodeId>(node_id());
    std::vector<uint8_t> out;
    RpcCallOpts opts;
    // Keepalives probe liveness; they must not linger (no retries) and must
    // reach a manager we currently believe dead (it may have restarted).
    opts.timeout_ns = std::max<uint64_t>(2 * interval_ns, 1'000'000);
    opts.max_retries = 0;
    opts.fail_fast_dead = false;
    Status st = InternalRpcOpts(manager_node_, kFnKeepalive, w.bytes(), &out, opts);
    liveness_keepalives_->Inc();
    if (!st.ok()) {
      if (++consecutive_failures >= 3) {
        SetPeerDead(manager_node_, true);
      }
      continue;
    }
    consecutive_failures = 0;
    SetPeerDead(manager_node_, false);
    // The manager piggybacks its dead list on the reply; adopt it (our own
    // id and the manager's are never taken on someone else's word).
    WireReader r(out.data(), out.size());
    uint32_t dead_count = 0;
    if (!r.Get(&dead_count) || dead_count > peer_dead_n_) {
      continue;
    }
    std::vector<uint8_t> dead(peer_dead_n_, 0);
    bool parse_ok = true;
    for (uint32_t i = 0; i < dead_count; ++i) {
      NodeId n = kInvalidNode;
      if (!r.Get(&n)) {
        parse_ok = false;
        break;
      }
      if (n < dead.size()) {
        dead[n] = 1;
      }
    }
    if (!parse_ok) {
      continue;
    }
    for (NodeId n = 0; n < static_cast<NodeId>(peer_dead_n_); ++n) {
      if (n == node_id() || n == manager_node_) {
        continue;
      }
      SetPeerDead(n, dead[n] != 0);
    }
  }
}

void LiteInstance::InternalWorkerLoop() {
  lt::ServiceTimeline timeline;
  while (true) {
    auto item = internal_queue_.Pop();
    if (!item.has_value()) {
      return;  // Queue closed.
    }
    auto& [func, inc] = *item;
    timeline.BeginService(inc.arrival_vtime_ns, 1500, params().lite_adaptive_spin_ns,
                          params().thread_wakeup_ns);
    auto it = internal_handlers_.find(func);
    if (it == internal_handlers_.end()) {
      LT_LOG_WARNING << "node " << node_id() << ": no handler for internal func " << func;
      continue;
    }
    it->second(this, inc);
  }
}

}  // namespace lite
