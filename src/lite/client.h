// LiteClient — the handle an application holds on LITE.
//
// Kernel-level applications (paper's LITE-DSM) construct it with
// kernel_level=true and pay no boundary costs. User-level applications pay
// one user->kernel crossing per API entry; returns are hidden behind the
// shared-page completion flag (paper Sec. 5.2), so a full RPC costs exactly
// two crossings (~0.17 us). A "naive syscalls" mode reproduces the
// unoptimized ~0.9 us path for the ablation benchmark.
//
// With SimParams::lite_ring_enable, data-path ops instead ride per-CPU
// submission/completion rings (ring.h): the crossing becomes a doorbell
// paid only when the kernel-half drainer has gone cold, async submissions
// defer and drain in batches, and Poll/Wait reap completions with adaptive
// spin-then-sleep. Control-plane calls (malloc/map/locks/recv/reply/...)
// keep the classic one-crossing path either way.
#ifndef SRC_LITE_CLIENT_H_
#define SRC_LITE_CLIENT_H_

#include <string>
#include <vector>

#include "src/lite/instance.h"

namespace lite {

class LiteClient {
 public:
  LiteClient(LiteInstance* instance, bool kernel_level = false)
      : instance_(instance), kernel_level_(kernel_level) {}

  LiteInstance* instance() const { return instance_; }
  NodeId node_id() const { return instance_->node_id(); }
  bool kernel_level() const { return kernel_level_; }

  void set_priority(Priority pri) { priority_ = pri; }
  Priority priority() const { return priority_; }

  // Ablation: charge full syscalls (enter+exit) on every boundary instead of
  // LITE's optimized single-crossing + shared-page return.
  void set_naive_syscalls(bool naive) { naive_syscalls_ = naive; }

  // ---- Memory (Table 1) ----
  StatusOr<Lh> Malloc(uint64_t size, const std::string& name, const MallocOptions& options = {});
  Status Free(Lh lh);
  StatusOr<Lh> Map(const std::string& name, uint32_t want_perm = kPermRead | kPermWrite);
  Status Unmap(Lh lh);
  Status Read(Lh lh, uint64_t offset, void* buf, uint64_t len);
  Status Write(Lh lh, uint64_t offset, const void* buf, uint64_t len);
  // Async memops: issue returns a completion handle; retire with
  // Poll/Wait/WaitAll (see LiteInstance for semantics). Each call pays the
  // usual boundary-crossing cost.
  StatusOr<MemopHandle> ReadAsync(Lh lh, uint64_t offset, void* buf, uint64_t len);
  StatusOr<MemopHandle> WriteAsync(Lh lh, uint64_t offset, const void* buf, uint64_t len);
  StatusOr<bool> Poll(MemopHandle h);
  Status Wait(MemopHandle h);
  // With `results`, appends (handle, final status) for every retired op, so
  // one dead peer doesn't swallow the other handles' outcomes.
  Status WaitAll(std::vector<std::pair<MemopHandle, Status>>* results = nullptr);
  Status Memset(Lh lh, uint64_t offset, uint8_t value, uint64_t len);
  Status Memcpy(Lh dst, uint64_t dst_off, Lh src, uint64_t src_off, uint64_t len);
  Status Memmove(Lh dst, uint64_t dst_off, Lh src, uint64_t src_off, uint64_t len);

  // ---- RPC / messaging (Table 1) ----
  Status RegisterRpc(RpcFuncId func);
  Status Rpc(NodeId server, RpcFuncId func, const void* in, uint32_t in_len, void* out,
             uint32_t out_max, uint32_t* out_len);
  Status MulticastRpc(const std::vector<NodeId>& servers, RpcFuncId func, const void* in,
                      uint32_t in_len, std::vector<std::vector<uint8_t>>* replies);
  StatusOr<RpcIncoming> RecvRpc(RpcFuncId func, uint64_t timeout_ns = ~0ull);
  Status ReplyRpc(const ReplyToken& token, const void* data, uint32_t len);
  StatusOr<RpcIncoming> ReplyAndRecv(const ReplyToken& token, const void* data, uint32_t len,
                                     RpcFuncId func, uint64_t timeout_ns = ~0ull);
  Status SendMsg(NodeId dst, const void* data, uint32_t len);
  StatusOr<MsgIncoming> RecvMsg(uint64_t timeout_ns = ~0ull);

  // ---- Synchronization (Table 1) ----
  StatusOr<uint64_t> FetchAdd(Lh lh, uint64_t offset, uint64_t delta);
  StatusOr<uint64_t> TestSet(Lh lh, uint64_t offset, uint64_t expected, uint64_t desired);
  StatusOr<LockId> CreateLock(const std::string& name);
  StatusOr<LockId> OpenLock(const std::string& name);
  Status Lock(const LockId& lock);
  Status Unlock(const LockId& lock);
  Status Barrier(const std::string& name, uint32_t expected);

  // ---- Management (DESIGN.md "Epoch-fenced ownership & live migration") ----
  // LT_migrate: live-migrates the named LMR to `new_home`; LT_drain_node
  // migrates every LMR hosted at `victim` to the remaining alive nodes.
  Status Migrate(const std::string& name, NodeId new_home,
                 LiteInstance::MigrateStats* stats = nullptr);
  Status DrainNode(NodeId victim, uint64_t* moved = nullptr);

  // ---- Introspection ----
  // LT_stat: queries the node's telemetry registry (no boundary cost — the
  // paper's statistics are exported through a shared read-only page).
  int64_t Stat(const std::string& name) const { return instance_->Stat(name); }
  lt::telemetry::MetricsSnapshot StatSnapshot() const { return instance_->StatSnapshot(); }

 private:
  // Charges the cost of entering the kernel for one LITE call.
  void EnterKernel();

  // True when this client's data-path ops ride the per-CPU rings: user
  // level, not in the naive-syscall ablation, and the instance has rings.
  bool UseRings() const {
    return !kernel_level_ && !naive_syscalls_ && instance_->rings() != nullptr;
  }

  // The node's latency-attribution sink (latency_attr.h).
  lt::telemetry::LatencyAttr* AttrSink();

  LiteInstance* const instance_;
  const bool kernel_level_;
  bool naive_syscalls_ = false;
  Priority priority_ = Priority::kHigh;
};

}  // namespace lite

#endif  // SRC_LITE_CLIENT_H_
