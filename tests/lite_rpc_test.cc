#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "src/common/timing.h"
#include "src/lite/lite_cluster.h"

namespace lite {
namespace {

using lt::StatusCode;

// Simple echo server running on a node until stopped.
class EchoServer {
 public:
  EchoServer(LiteCluster* cluster, lt::NodeId node, RpcFuncId func, bool use_reply_and_recv = false)
      : client_(cluster->CreateClient(node, /*kernel_level=*/true)), func_(func) {
    (void)client_->RegisterRpc(func_);
    thread_ = std::thread([this, use_reply_and_recv] { Run(use_reply_and_recv); });
  }

  ~EchoServer() {
    stopping_.store(true);
    thread_.join();
  }

  int served() const { return served_.load(); }

 private:
  void Run(bool use_reply_and_recv) {
    ReplyToken pending;
    std::vector<uint8_t> pending_data;
    while (!stopping_.load()) {
      lt::StatusOr<RpcIncoming> inc = lt::Status::Unavailable("");
      if (use_reply_and_recv && pending.valid()) {
        inc = client_->ReplyAndRecv(pending, pending_data.data(),
                                    static_cast<uint32_t>(pending_data.size()), func_,
                                    50'000'000);
        pending = ReplyToken{};
      } else {
        inc = client_->RecvRpc(func_, 50'000'000);
      }
      if (!inc.ok()) {
        continue;
      }
      served_.fetch_add(1);
      // Echo with a marker prefix.
      std::vector<uint8_t> reply;
      reply.push_back(0xee);
      reply.insert(reply.end(), inc->data.begin(), inc->data.end());
      if (use_reply_and_recv) {
        pending = inc->token;
        pending_data = std::move(reply);
      } else {
        (void)client_->ReplyRpc(inc->token, reply.data(), static_cast<uint32_t>(reply.size()));
      }
    }
    if (pending.valid()) {
      (void)client_->ReplyRpc(pending, pending_data.data(),
                              static_cast<uint32_t>(pending_data.size()));
    }
  }

  std::unique_ptr<LiteClient> client_;
  const RpcFuncId func_;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<int> served_{0};
};

class LiteRpcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lt::SimParams p = lt::SimParams::FastForTests();
    cluster_ = std::make_unique<LiteCluster>(3, p);
    c0_ = cluster_->CreateClient(0);
  }
  std::unique_ptr<LiteCluster> cluster_;
  std::unique_ptr<LiteClient> c0_;
};

TEST_F(LiteRpcTest, BasicCallAndReply) {
  EchoServer server(cluster_.get(), 1, 7);
  char out[64];
  uint32_t out_len = 0;
  ASSERT_TRUE(c0_->Rpc(1, 7, "ping", 4, out, sizeof(out), &out_len).ok());
  ASSERT_EQ(out_len, 5u);
  EXPECT_EQ(static_cast<uint8_t>(out[0]), 0xee);
  EXPECT_EQ(std::memcmp(out + 1, "ping", 4), 0);
}

TEST_F(LiteRpcTest, EmptyInputAllowed) {
  EchoServer server(cluster_.get(), 1, 8);
  char out[8];
  uint32_t out_len = 0;
  ASSERT_TRUE(c0_->Rpc(1, 8, nullptr, 0, out, sizeof(out), &out_len).ok());
  EXPECT_EQ(out_len, 1u);
}

TEST_F(LiteRpcTest, SelfCallViaLoopback) {
  EchoServer server(cluster_.get(), 0, 9);
  char out[16];
  uint32_t out_len = 0;
  ASSERT_TRUE(c0_->Rpc(0, 9, "self", 4, out, sizeof(out), &out_len).ok());
  EXPECT_EQ(out_len, 5u);
}

TEST_F(LiteRpcTest, ManySequentialCallsRecycleRing) {
  EchoServer server(cluster_.get(), 1, 10);
  // Enough traffic to wrap the (test-sized) ring several times.
  std::vector<uint8_t> payload(3000, 0x42);
  char out[4096];
  uint32_t out_len = 0;
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(c0_->Rpc(1, 10, payload.data(), static_cast<uint32_t>(payload.size()), out,
                         sizeof(out), &out_len)
                    .ok())
        << "call " << i;
    ASSERT_EQ(out_len, payload.size() + 1);
  }
  EXPECT_EQ(server.served(), 300);
}

TEST_F(LiteRpcTest, ConcurrentClientsOneServer) {
  EchoServer server(cluster_.get(), 2, 11);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      auto client = cluster_->CreateClient(t % 2);
      char out[64];
      uint32_t out_len = 0;
      for (int i = 0; i < 50; ++i) {
        std::string msg = "t" + std::to_string(t) + "_" + std::to_string(i);
        auto st = client->Rpc(2, 11, msg.data(), static_cast<uint32_t>(msg.size()), out,
                              sizeof(out), &out_len);
        if (!st.ok() || out_len != msg.size() + 1 ||
            std::memcmp(out + 1, msg.data(), msg.size()) != 0) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.served(), 200);
}

TEST_F(LiteRpcTest, ReplyAndRecvCombinedApi) {
  EchoServer server(cluster_.get(), 1, 12, /*use_reply_and_recv=*/true);
  char out[64];
  uint32_t out_len = 0;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(c0_->Rpc(1, 12, "combo", 5, out, sizeof(out), &out_len).ok());
    EXPECT_EQ(out_len, 6u);
  }
}

TEST_F(LiteRpcTest, MulticastCollectsAllReplies) {
  EchoServer s1(cluster_.get(), 1, 13);
  EchoServer s2(cluster_.get(), 2, 13);
  std::vector<std::vector<uint8_t>> replies;
  ASSERT_TRUE(c0_->MulticastRpc({1, 2}, 13, "mc", 2, &replies).ok());
  ASSERT_EQ(replies.size(), 2u);
  for (const auto& r : replies) {
    ASSERT_EQ(r.size(), 3u);
    EXPECT_EQ(r[0], 0xee);
    EXPECT_EQ(std::memcmp(r.data() + 1, "mc", 2), 0);
  }
}

TEST_F(LiteRpcTest, AppFuncIdRangeEnforced) {
  EXPECT_FALSE(c0_->RegisterRpc(1000).ok());
  EXPECT_TRUE(c0_->RegisterRpc(999).ok());
}

TEST_F(LiteRpcTest, OversizedInputRejected) {
  EchoServer server(cluster_.get(), 1, 14);
  std::vector<uint8_t> huge(cluster_->params().lite_rpc_ring_bytes + 1);
  char out[8];
  uint32_t out_len;
  auto st = c0_->Rpc(1, 14, huge.data(), static_cast<uint32_t>(huge.size()), out, sizeof(out),
                     &out_len);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(LiteRpcTest, ReplyLargerThanBufferTruncates) {
  EchoServer server(cluster_.get(), 1, 15);
  char out[4];
  uint32_t out_len = 0;
  auto st = c0_->Rpc(1, 15, "0123456789", 10, out, sizeof(out), &out_len);
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(out_len, 11u);  // Full length reported.
}

TEST_F(LiteRpcTest, UnservedFunctionTimesOut) {
  // No server registered anywhere for func 20; request lands in the queue
  // and no reply ever comes.
  lt::SimParams p = lt::SimParams::FastForTests();
  p.lite_rpc_timeout_ns = 50'000'000;  // 50 ms.
  LiteCluster small(2, p);
  auto client = small.CreateClient(0);
  char out[8];
  uint32_t out_len;
  auto st = client->Rpc(1, 20, "x", 1, out, sizeof(out), &out_len);
  EXPECT_EQ(st.code(), StatusCode::kTimeout);
}

TEST_F(LiteRpcTest, SendMsgAndRecvMsg) {
  auto c1 = cluster_->CreateClient(1);
  ASSERT_TRUE(c0_->SendMsg(1, "hello msg", 9).ok());
  auto msg = c1->RecvMsg(1'000'000'000);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->src, 0u);
  ASSERT_EQ(msg->data.size(), 9u);
  EXPECT_EQ(std::memcmp(msg->data.data(), "hello msg", 9), 0);
}

TEST_F(LiteRpcTest, MessagesArriveInOrderPerSender) {
  auto c1 = cluster_->CreateClient(1);
  for (uint32_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(c0_->SendMsg(1, &i, sizeof(i)).ok());
  }
  for (uint32_t i = 0; i < 50; ++i) {
    auto msg = c1->RecvMsg(1'000'000'000);
    ASSERT_TRUE(msg.ok());
    uint32_t got = 0;
    std::memcpy(&got, msg->data.data(), 4);
    EXPECT_EQ(got, i);
  }
}

TEST_F(LiteRpcTest, RecvMsgTimesOutWhenIdle) {
  auto c1 = cluster_->CreateClient(1);
  auto msg = c1->RecvMsg(10'000'000);
  EXPECT_EQ(msg.status().code(), StatusCode::kTimeout);
}

// Parameterized reply sizes through the full RPC path.
class LiteRpcSizeTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  void SetUp() override {
    lt::SimParams p = lt::SimParams::FastForTests();
    cluster_ = std::make_unique<LiteCluster>(2, p);
    c0_ = cluster_->CreateClient(0);
  }
  std::unique_ptr<LiteCluster> cluster_;
  std::unique_ptr<LiteClient> c0_;
};

TEST_P(LiteRpcSizeTest, EchoRoundTrip) {
  uint32_t size = GetParam();
  EchoServer server(cluster_.get(), 1, 21);
  std::vector<uint8_t> in(size);
  for (uint32_t i = 0; i < size; ++i) {
    in[i] = static_cast<uint8_t>(i * 131 + 13);
  }
  std::vector<uint8_t> out(size + 1);
  uint32_t out_len = 0;
  ASSERT_TRUE(c0_->Rpc(1, 21, in.data(), size, out.data(), static_cast<uint32_t>(out.size()),
                       &out_len)
                  .ok());
  ASSERT_EQ(out_len, size + 1);
  EXPECT_EQ(std::memcmp(out.data() + 1, in.data(), size), 0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LiteRpcSizeTest,
                         ::testing::Values(1, 8, 64, 512, 4096, 8192));

// Latency sanity with full-cost parameters (paper Fig. 10 band).
TEST(LiteRpcLatencyTest, KernelLevelRpcInCalibratedBand) {
  lt::SimParams p;
  p.node_phys_mem_bytes = 48ull << 20;
  LiteCluster cluster(2, p);
  auto client = cluster.CreateClient(0, /*kernel_level=*/true);
  EchoServer server(&cluster, 1, 22);
  char out[64];
  uint32_t out_len;
  // Warm the channel.
  ASSERT_TRUE(client->Rpc(1, 22, "warm", 4, out, sizeof(out), &out_len).ok());
  uint64_t t0 = lt::NowNs();
  const int kCalls = 20;
  for (int i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(client->Rpc(1, 22, "12345678", 8, out, sizeof(out), &out_len).ok());
  }
  uint64_t per_call = (lt::NowNs() - t0) / kCalls;
  // Paper Fig. 10: LITE RPC ~4-7 us for small messages.
  EXPECT_GE(per_call, 2000u);
  EXPECT_LE(per_call, 12000u);
}

TEST(LiteRpcLatencyTest, UserLevelAddsCrossingCosts) {
  lt::SimParams p;
  p.node_phys_mem_bytes = 48ull << 20;
  LiteCluster cluster(2, p);
  EchoServer server(&cluster, 1, 23);
  char out[64];
  uint32_t out_len;

  // Kernel-level callers never cross the user/kernel boundary.
  auto kernel_client = cluster.CreateClient(0, /*kernel_level=*/true);
  uint64_t crossings0 = cluster.node(0)->os().crossing_count();
  ASSERT_TRUE(kernel_client->Rpc(1, 23, "x", 1, out, sizeof(out), &out_len).ok());
  EXPECT_EQ(cluster.node(0)->os().crossing_count(), crossings0);

  // User-level callers pay exactly one crossing per API entry; the return
  // rides the shared page (paper Sec. 5.2).
  auto user_client = cluster.CreateClient(0, /*kernel_level=*/false);
  crossings0 = cluster.node(0)->os().crossing_count();
  ASSERT_TRUE(user_client->Rpc(1, 23, "x", 1, out, sizeof(out), &out_len).ok());
  EXPECT_EQ(cluster.node(0)->os().crossing_count(), crossings0 + 1);
}

TEST(LiteRpcLatencyTest, NaiveSyscallModeCostsMore) {
  lt::SimParams p;
  p.node_phys_mem_bytes = 48ull << 20;
  LiteCluster cluster(2, p);
  EchoServer server(&cluster, 1, 24);
  char out[64];
  uint32_t out_len;
  auto naive = cluster.CreateClient(0, /*kernel_level=*/false);
  naive->set_naive_syscalls(true);
  uint64_t syscalls0 = cluster.node(0)->os().syscall_count();
  ASSERT_TRUE(naive->Rpc(1, 24, "x", 1, out, sizeof(out), &out_len).ok());
  EXPECT_GT(cluster.node(0)->os().syscall_count(), syscalls0);
}

// ---- Failure recovery: retries, idempotence, liveness ---------------------

// Short per-try timeout so dropped transfers retry quickly.
class LiteRpcRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lt::SimParams p = lt::SimParams::FastForTests();
    p.lite_rpc_timeout_ns = 50'000'000;  // 50 ms per try
    p.lite_rpc_max_retries = 3;
    cluster_ = std::make_unique<LiteCluster>(2, p);
    c0_ = cluster_->CreateClient(0);
  }
  std::unique_ptr<LiteCluster> cluster_;
  std::unique_ptr<LiteClient> c0_;
};

TEST_F(LiteRpcRecoveryTest, RetryRecoversFromDroppedRequest) {
  EchoServer server(cluster_.get(), 1, 30);
  // Warm the channel so the next 0->1 transfer is the request itself.
  char out[64];
  uint32_t out_len = 0;
  ASSERT_TRUE(c0_->Rpc(1, 30, "warm", 4, out, sizeof(out), &out_len).ok());

  cluster_->faults().DropNextTransfers(0, 1, 1);
  ASSERT_TRUE(c0_->Rpc(1, 30, "dropped once", 12, out, sizeof(out), &out_len).ok());
  EXPECT_EQ(out_len, 13u);
  EXPECT_EQ(server.served(), 2);  // retry executed the call exactly once
  EXPECT_GT(cluster_->instance(0)->Stat("lite.rpc.retries"), 0);
  // The drop put one of the client's RC QPs into the error state. Posts
  // spread round-robin over the K QPs to the server, so a few more calls are
  // guaranteed to land on the errored one and reconnect it transparently.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(c0_->Rpc(1, 30, "cycle", 5, out, sizeof(out), &out_len).ok());
  }
  EXPECT_GT(cluster_->instance(0)->Stat("lite.qp.reconnects"), 0);
  EXPECT_EQ(server.served(), 6);
}

TEST_F(LiteRpcRecoveryTest, RetryAfterLostReplyDoesNotReexecute) {
  EchoServer server(cluster_.get(), 1, 31);
  char out[64];
  uint32_t out_len = 0;
  ASSERT_TRUE(c0_->Rpc(1, 31, "warm", 4, out, sizeof(out), &out_len).ok());

  // Let the warm call's async ring-head update drain so the drop budget hits
  // the test call's traffic only.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // Kill the next two 1->0 transfers: the test call's head update and its
  // reply write-imm (in whichever order the server threads post them). The
  // retransmitted request hits the server's dedup and is answered from the
  // replay cache.
  cluster_->faults().DropNextTransfers(1, 0, 2);
  ASSERT_TRUE(c0_->Rpc(1, 31, "lost reply", 10, out, sizeof(out), &out_len).ok());
  EXPECT_EQ(out_len, 11u);
  EXPECT_EQ(std::memcmp(out + 1, "lost reply", 10), 0);
  EXPECT_EQ(server.served(), 2);  // handler did NOT run twice
  EXPECT_GT(cluster_->instance(1)->Stat("lite.rpc.dup_requests"), 0);
  EXPECT_GT(cluster_->instance(1)->Stat("lite.rpc.replayed_replies"), 0);
}

TEST_F(LiteRpcRecoveryTest, DuplicatedRequestExecutesOnce) {
  EchoServer server(cluster_.get(), 1, 32);
  char out[64];
  uint32_t out_len = 0;
  ASSERT_TRUE(c0_->Rpc(1, 32, "warm", 4, out, sizeof(out), &out_len).ok());

  // Fabric duplicates every 0->1 transfer; per-channel sequence numbers must
  // suppress the second delivery.
  lt::LinkFaultRule dup;
  dup.dup_p = 1.0;
  cluster_->faults().SetLinkRule(0, 1, dup);
  ASSERT_TRUE(c0_->Rpc(1, 32, "twice on the wire", 17, out, sizeof(out), &out_len).ok());
  cluster_->faults().ClearLinkRule(0, 1);

  // The duplicate is deduped on arrival (poll thread), possibly just after
  // the reply; wait for the counter rather than racing it.
  const uint64_t deadline = lt::RealNowNs() + 2'000'000'000ull;
  while (cluster_->instance(1)->Stat("lite.rpc.dup_requests") == 0 &&
         lt::RealNowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.served(), 2);  // exactly once per logical call
  EXPECT_GT(cluster_->instance(1)->Stat("lite.rpc.dup_requests"), 0);
}

TEST_F(LiteRpcRecoveryTest, DeadPeerFailsFastWithUnavailable) {
  EchoServer server(cluster_.get(), 1, 33);
  char out[64];
  uint32_t out_len = 0;
  ASSERT_TRUE(c0_->Rpc(1, 33, "alive", 5, out, sizeof(out), &out_len).ok());

  // Liveness verdict: calls must fail immediately (no timeout burn) with
  // Unavailable — distinct from Timeout ("no reply within the deadline").
  cluster_->instance(0)->SetPeerDead(1, true);
  const uint64_t t0 = lt::RealNowNs();
  lt::Status st = c0_->Rpc(1, 33, "dead", 4, out, sizeof(out), &out_len);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_LT(lt::RealNowNs() - t0, 40'000'000ull);  // well under one try
  EXPECT_GT(cluster_->instance(0)->Stat("lite.rpc.dead_fast_fail"), 0);

  // Revival restores service.
  cluster_->instance(0)->SetPeerDead(1, false);
  EXPECT_TRUE(c0_->Rpc(1, 33, "back", 4, out, sizeof(out), &out_len).ok());
  EXPECT_EQ(server.served(), 2);
}

TEST(LiteRpcZombieTest, TimedOutSlotsAreReclaimed) {
  // Exhaust a tiny reply-slot pool with calls that time out (unserved
  // function, no retries), then verify the quarantine sweep recycles the
  // zombie slots so later calls still find capacity. The timeout is a
  // real-time bound that every recycled call must also meet, so it leaves
  // ample room for a loaded host to schedule the server's poll thread.
  lt::SimParams p = lt::SimParams::FastForTests();
  p.lite_rpc_timeout_ns = 250'000'000;  // 250 ms
  p.lite_rpc_max_retries = 0;
  p.lite_reply_slots = 4;
  LiteCluster cluster(2, p);
  auto c0 = cluster.CreateClient(0);
  EchoServer server(&cluster, 1, 40);

  char out[64];
  uint32_t out_len = 0;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(c0->Rpc(1, 999, "void", 4, out, sizeof(out), &out_len).code(),
              StatusCode::kTimeout);
  }
  // All four slots are zombies now; they become reclaimable once they are
  // older than the RPC timeout (real time).
  std::this_thread::sleep_for(std::chrono::nanoseconds(p.lite_rpc_timeout_ns) +
                              std::chrono::milliseconds(10));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(c0->Rpc(1, 40, "recycled", 8, out, sizeof(out), &out_len).ok()) << i;
  }
  EXPECT_GT(cluster.instance(0)->Stat("lite.rpc.zombie_reclaimed"), 0);
}

// OS threads of this process, from /proc/self/status (-1 if unreadable).
int OsThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoi(line.substr(8));
    }
  }
  return -1;
}

int64_t SvcThreads(LiteCluster& cluster, lt::NodeId node) {
  return cluster.instance(node)->Stat("lite.svc.threads");
}

// A node starts no service thread of its own until it serves an internal
// (control) request — Malloc's name registration, Map — and then starts its
// two internal workers. Every node's receive CQ and ring-head publishes run
// on the cluster's one completion poller.
TEST(LiteServiceThreadsTest, ServedNodesRunTwoWorkersClientsRunNone) {
  LiteCluster cluster(4, lt::SimParams::FastForTests());
  EXPECT_EQ(cluster.poller_threads(), 1);
  for (lt::NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(SvcThreads(cluster, n), 0) << "node " << n;
  }
  auto c0 = cluster.CreateClient(0);
  auto c1 = cluster.CreateClient(1);
  ASSERT_TRUE(c0->Malloc(4096, "svc-lmr").ok());
  ASSERT_TRUE(c1->Map("svc-lmr").ok());
  EXPECT_EQ(SvcThreads(cluster, 0), 2);
  for (lt::NodeId n = 1; n < 4; ++n) {
    EXPECT_EQ(SvcThreads(cluster, n), 0) << "node " << n;
  }
  EXPECT_EQ(cluster.poller_threads(), 1);
}

TEST(LiteServiceThreadsTest, KeepaliveAddsOneThreadPerNonManager) {
  lt::SimParams p = lt::SimParams::FastForTests();
  p.lite_keepalive_interval_ns = 2'000'000;  // 2 ms cadence (real time).
  LiteCluster cluster(4, p);
  for (lt::NodeId n = 1; n < 4; ++n) {
    EXPECT_EQ(SvcThreads(cluster, n), 1) << "node " << n;
  }
  // The manager serves the keepalives, so it starts its workers once the
  // first lease renewal lands; the clients stay at their keepalive thread.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (SvcThreads(cluster, 0) != 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(SvcThreads(cluster, 0), 2);
  for (lt::NodeId n = 1; n < 4; ++n) {
    EXPECT_EQ(SvcThreads(cluster, n), 1) << "node " << n;
  }
}

// A cluster adds one OS thread, its completion poller, whatever its size.
TEST(LiteServiceThreadsTest, ClusterAddsOnePollerThreadAtAnySize) {
  for (size_t nodes : {2, 4, 32}) {
    const int before = OsThreadCount();
    ASSERT_GT(before, 0);
    {
      LiteCluster cluster(nodes, lt::SimParams::FastForTests());
      EXPECT_EQ(OsThreadCount(), before + 1) << nodes << " nodes";
    }
    EXPECT_EQ(OsThreadCount(), before) << nodes << " nodes";
  }
}

// What node 1's virtual poll thread did with a burst of requests.
struct PollRun {
  std::vector<uint64_t> service_vtimes;  // Per request, sorted.
  int64_t poll_cpu_ns = 0;
  int64_t poll_wakeups = 0;
};

// Sends `count` fire-and-forget requests from `client` to `server`, all
// issued at virtual time `at` on a fresh thread.
void SendBurst(LiteCluster& cluster, lt::NodeId client, lt::NodeId server, RpcFuncId func,
               int count, uint64_t at) {
  std::thread([&] {
    lt::SyncClockTo(at);
    for (int i = 0; i < count; ++i) {
      ASSERT_TRUE(cluster.instance(client)->RpcSendNoReply(server, func, &i, sizeof(i)).ok());
    }
  }).join();
}

// Node 0 sends node 1 a burst of kBurst requests at one virtual instant; with
// `also_node2`, node 3 first sends node 2 the same burst at the same instant.
// Costs are zero except the poll thread's 1 µs dispatch: one burst queues on
// node 1's poll thread, and two bursts sharing one poll timeline would
// overflow its 8192 ns capacity window.
PollRun RunBursts(bool also_node2) {
  constexpr int kBurst = 6;
  constexpr RpcFuncId kFunc = 21;
  constexpr uint64_t kBurstVtime = 1'000'000'000;  // Far past the warm-up.
  lt::SimParams p = lt::SimParams::FastForTests();
  p.lite_rpc_dispatch_ns = 1'000;
  LiteCluster cluster(4, p);
  const std::pair<lt::NodeId, lt::NodeId> pairs[] = {{0, 1}, {3, 2}};
  for (const auto& [client, server] : pairs) {
    EXPECT_TRUE(cluster.instance(server)->RegisterRpc(kFunc).ok());
    // Warm-up request: binds the channel (a ring-setup internal RPC).
    SendBurst(cluster, client, server, kFunc, 1, 0);
    EXPECT_TRUE(cluster.instance(server)->RecvRpc(kFunc, 5'000'000'000).ok());
  }
  if (also_node2) {
    SendBurst(cluster, 3, 2, kFunc, kBurst, kBurstVtime);
  }
  SendBurst(cluster, 0, 1, kFunc, kBurst, kBurstVtime);
  PollRun run;
  for (int i = 0; i < kBurst; ++i) {
    auto inc = cluster.instance(1)->RecvRpc(kFunc, 5'000'000'000);
    EXPECT_TRUE(inc.ok()) << i;
    if (inc.ok()) {
      run.service_vtimes.push_back(inc->arrival_vtime_ns);
    }
  }
  if (also_node2) {
    for (int i = 0; i < kBurst; ++i) {
      EXPECT_TRUE(cluster.instance(2)->RecvRpc(kFunc, 5'000'000'000).ok()) << i;
    }
  }
  std::sort(run.service_vtimes.begin(), run.service_vtimes.end());
  // A request is handed over before its event's CPU is booked; stopping the
  // node waits until the poller has left node 1's handlers for good.
  cluster.instance(1)->Stop();
  run.poll_cpu_ns = cluster.instance(1)->Stat("lite.poll.cpu_ns");
  run.poll_wakeups = cluster.instance(1)->Stat("lite.poll.wakeups");
  return run;
}

// The poller shares only its host thread: each node's poll thread keeps its
// own clock, serial capacity and CPU account, so a simultaneous burst at
// another node moves none of node 1's service times or poll counters.
TEST(LiteServiceThreadsTest, PerNodePollTimelinesAreIndependent) {
  const PollRun alone = RunBursts(/*also_node2=*/false);
  const PollRun both = RunBursts(/*also_node2=*/true);
  ASSERT_EQ(alone.service_vtimes.size(), 6u);
  EXPECT_EQ(both.service_vtimes, alone.service_vtimes);
  EXPECT_EQ(both.poll_cpu_ns, alone.poll_cpu_ns);
  EXPECT_EQ(both.poll_wakeups, alone.poll_wakeups);
  // The burst really queued on node 1's poll thread (1 µs dispatch each).
  EXPECT_GE(alone.service_vtimes.back() - alone.service_vtimes.front(), 2'000u);
}

// Stopping one node leaves the poller serving the others: their calls keep
// succeeding, and the stopped node's threads are gone.
TEST(LiteServiceThreadsTest, StoppingOneNodeKeepsOthersServed) {
  const int before = OsThreadCount();
  ASSERT_GT(before, 0);
  {
    LiteCluster cluster(3, lt::SimParams::FastForTests());
    // Node 2 serves internal requests first, so it has workers to join.
    MallocOptions on_node2;
    on_node2.nodes = {2};
    ASSERT_TRUE(cluster.CreateClient(1)->Malloc(4096, "stop-one", on_node2).ok());
    ASSERT_EQ(SvcThreads(cluster, 2), 2);
    EchoServer server0(&cluster, 0, 40);
    EchoServer server1(&cluster, 1, 40);
    std::atomic<bool> stop{false};
    std::atomic<int> failures{0};
    std::atomic<int> calls{0};
    std::vector<std::thread> callers;
    for (lt::NodeId from : {0, 1}) {
      callers.emplace_back([&, from] {
        auto client = cluster.CreateClient(from);
        const lt::NodeId to = 1 - from;
        char out[64];
        uint32_t out_len = 0;
        while (!stop.load()) {
          if (!client->Rpc(to, 40, "ping", 4, out, sizeof(out), &out_len).ok()) {
            failures.fetch_add(1);
          }
          calls.fetch_add(1);
        }
      });
    }
    while (calls.load() < 50) {
      std::this_thread::yield();
    }
    cluster.instance(2)->Stop();
    EXPECT_EQ(SvcThreads(cluster, 2), 0);
    const int at_stop = calls.load();
    while (calls.load() < at_stop + 200) {
      std::this_thread::yield();
    }
    stop.store(true);
    for (std::thread& t : callers) {
      t.join();
    }
    EXPECT_EQ(failures.load(), 0);
  }
  EXPECT_EQ(OsThreadCount(), before);
}

// Tears each cluster down right after its first internal RPC, with
// fire-and-forget requests still in flight. Node 2 is stopped right after
// its first request is sent, while its poll thread may be starting the head
// writer and workers: Stop must join every thread the poll threads started,
// and none may hang.
TEST(LiteServiceThreadsTest, TeardownAfterFirstInternalRpcLeavesNoThread) {
  const int before = OsThreadCount();
  ASSERT_GT(before, 0);
  const char payload[] = "in-flight";
  for (int round = 0; round < 200; ++round) {
    LiteCluster cluster(3, lt::SimParams::FastForTests());
    auto c1 = cluster.CreateClient(1);
    ASSERT_TRUE(c1->Malloc(4096, "teardown-" + std::to_string(round)).ok());
    for (int i = 0; i < 8; ++i) {
      for (lt::NodeId from = 0; from < 3; ++from) {
        const lt::NodeId to = from == 0 ? 1 : 0;
        ASSERT_TRUE(cluster.instance(from)
                        ->RpcSendNoReply(to, kFnEcho, payload, sizeof(payload))
                        .ok());
      }
    }
    ASSERT_TRUE(cluster.instance(0)->RpcSendNoReply(2, kFnEcho, payload, sizeof(payload)).ok());
    cluster.instance(2)->Stop();
  }
  EXPECT_EQ(OsThreadCount(), before);
}

}  // namespace
}  // namespace lite
