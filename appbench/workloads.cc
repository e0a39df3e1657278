#include "appbench/workloads.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <latch>
#include <memory>
#include <mutex>
#include <thread>

#include "src/apps/kv_store.h"
#include "src/apps/lite_log.h"
#include "src/common/timing.h"
#include "src/lite/lite_cluster.h"

namespace appbench {
namespace {

constexpr uint64_t kLogBytes = 16ull << 20;
constexpr uint64_t kCopyPiece = 64 << 10;  // Set-up and final-check transfer size.
const char kLogName[] = "appbench_log";
const char kLmrName[] = "appbench_lmr";

double Secs(uint64_t from_ns, uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

// One load thread's share of the measured window.
struct LoadThread {
  SpanLog spans;
  std::vector<uint64_t> latency_ns;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t ready_clock = 0;
  uint64_t end_clock = 0;
  uint64_t vcpu_ns = 0;
  int tid = 0;

  void Prepare(size_t reqs, size_t spans_per_req, bool traced) {
    latency_ns.reserve(reqs);
    if (traced) {
      spans.Reserve(reqs * spans_per_req);
    }
  }

  // Times one closed-loop request: `issue` runs the app call under a "req"
  // span and returns whether its result checked out.
  template <typename Issue>
  void Request(bool traced, uint32_t i, Issue issue) {
    const uint64_t v0 = lt::NowNs();
    bool ok = false;
    {
      SpanScope req(traced ? &spans : nullptr, kSpanReq, i);
      ok = issue(traced ? &spans : nullptr);
    }
    latency_ns.push_back(lt::NowNs() - v0);
    ++attempted;
    failed += ok ? 0 : 1;
  }
};

// Collects set-up and check failures from any thread.
class Failures {
 public:
  void Add(std::string what) {
    std::lock_guard<std::mutex> lock(mu_);
    lines_.push_back(std::move(what));
  }
  std::vector<std::string> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(lines_);
  }

 private:
  std::mutex mu_;
  std::vector<std::string> lines_;
};

// Runs `threads` load threads on nodes 1..threads. Each runs setup(t) —
// its connection and any populate, part of set-up — and waits at the start
// barrier; all then start from one virtual time and run body(t, &load). The
// main thread samples host and program counters on both sides of the
// measured window while the load threads are parked.
template <typename Setup, typename Body>
void DriveLoad(lite::LiteCluster* cluster, int threads, bool traced, uint64_t services_end_ns,
               const Rusage& rep_start_ru, uint64_t rep_start_ns, Failures* failures,
               Setup setup, Body body, RepResult* rep) {
  std::vector<LoadThread> lts(threads);
  std::latch ready(threads), go(1), done(threads), leave(1);
  std::atomic<uint64_t> vstart{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      LoadThread& me = lts[t];
      me.tid = ThreadId();
      bool ok = false;
      try {
        ok = setup(t);
      } catch (const std::exception& e) {
        failures->Add(std::string("set-up threw: ") + e.what());
      }
      me.ready_clock = lt::NowNs();
      ready.count_down();
      go.wait();
      if (ok) {
        lt::SyncClockTo(vstart.load());
        const uint64_t cpu0 = lt::ThreadCpuNs();
        body(t, &me);
        me.vcpu_ns = lt::ThreadCpuNs() - cpu0;
      }
      me.end_clock = lt::NowNs();
      done.count_down();
      leave.wait();
    });
  }

  ready.wait();
  const uint64_t setup_end_ns = HostNs();
  rep->populate_s = Secs(services_end_ns, setup_end_ns);
  rep->setup_s = Secs(rep_start_ns, setup_end_ns);
  rep->threads_after_setup = OsThreads();
  const Rusage ru0 = ReadRusage();
  rep->setup_minflt = ru0.minflt - rep_start_ru.minflt;
  std::map<int, uint64_t> task0;
  if (traced) {
    for (size_t n = 0; n < cluster->size(); ++n) {
      rep->before.push_back(cluster->instance(static_cast<lt::NodeId>(n))->StatSnapshot());
    }
    task0 = TaskCpuNs();
  }
  uint64_t start = 0;
  for (const LoadThread& load : lts) {
    start = std::max(start, load.ready_clock);
  }
  vstart.store(start);

  const uint64_t h0 = HostNs();
  go.count_down();
  done.wait();
  const uint64_t h1 = HostNs();
  const Rusage ru1 = ReadRusage();
  rep->host_ns = h1 - h0;
  rep->cpu_ns = ru1.cpu_ns - ru0.cpu_ns;
  rep->ctxsw = ru1.ctxsw - ru0.ctxsw;
  if (traced) {
    const std::map<int, uint64_t> task1 = TaskCpuNs();
    for (size_t n = 0; n < cluster->size(); ++n) {
      rep->after.push_back(cluster->instance(static_cast<lt::NodeId>(n))->StatSnapshot());
    }
    for (const auto& [tid, ns] : task1) {
      auto it = task0.find(tid);
      const uint64_t delta = ns - (it == task0.end() ? 0 : it->second);
      const bool load = std::any_of(lts.begin(), lts.end(),
                                    [tid = tid](const LoadThread& l) { return l.tid == tid; });
      (load ? rep->load_task_ns : rep->service_task_ns) += delta;
    }
  }
  leave.count_down();
  for (std::thread& th : pool) {
    th.join();
  }

  uint64_t end = start;
  for (const LoadThread& load : lts) {
    end = std::max(end, load.end_clock);
    rep->attempted += load.attempted;
    rep->failed += load.failed;
    rep->load_vcpu_ns += load.vcpu_ns;
    rep->latency_ns.insert(rep->latency_ns.end(), load.latency_ns.begin(),
                           load.latency_ns.end());
    if (traced) {
      rep->spans.push_back(load.spans.spans());
    }
  }
  rep->makespan_ns = end - start;
  for (int t = 0; t < threads; ++t) {
    rep->load_nodes.push_back(t + 1);
  }
  // Later quiesce calls from the main thread happen after the window.
  lt::SyncClockTo(end);
}

// Quiesce checks every workload shares: no fabric drops, healthy nodes.
void CheckCluster(lite::LiteCluster* cluster, Failures* failures) {
  for (size_t n = 0; n < cluster->size(); ++n) {
    const int64_t drops =
        cluster->instance(static_cast<lt::NodeId>(n))->Stat("faults.drops_total");
    if (drops != 0) {
      failures->Add("node" + std::to_string(n) + ": faults.drops_total=" +
                    std::to_string(drops));
    }
  }
  for (const std::string& line : cluster->RunHealthCheck()) {
    failures->Add("health: " + line);
  }
}

// ---------------------------------------------------------------- kv-rpc

void RunKv(const KvStream& s, const Shape& shape, bool traced, RepResult* rep,
           Failures* failures) {
  const uint64_t t0 = HostNs();
  const Rusage ru0 = ReadRusage();
  auto cluster = std::make_unique<lite::LiteCluster>(shape.nodes);
  const uint64_t t1 = HostNs();
  liteapp::LiteKvServer server(cluster.get(), 0, /*server_threads=*/2);
  server.Start();
  const uint64_t t2 = HostNs();
  rep->cluster_s = Secs(t0, t1);
  rep->services_s = Secs(t1, t2);

  // issued[k] / acked[k]: newest version of key k its owner has sent / has
  // seen acknowledged. A get issued after acked[k] = a and returning before
  // issued[k] grows past b must observe a version in [a, b].
  std::vector<std::atomic<uint32_t>> issued(s.names.size()), acked(s.names.size());
  for (size_t k = 0; k < s.names.size(); ++k) {
    issued[k].store(1);
    acked[k].store(1);
  }
  std::vector<std::unique_ptr<liteapp::LiteKvClient>> clients(shape.threads);

  auto setup = [&](int t) {
    clients[t] = std::make_unique<liteapp::LiteKvClient>(cluster.get(), t + 1, 0);
    for (size_t k = t; k < s.names.size(); k += shape.threads) {
      const std::vector<uint8_t>& v = s.values[k][0];
      if (!clients[t]->Put(s.names[k], v.data(), static_cast<uint32_t>(v.size())).ok()) {
        failures->Add("kv populate failed for " + s.names[k]);
        return false;
      }
    }
    return true;
  };
  auto body = [&](int t, LoadThread* me) {
    liteapp::LiteKvClient& client = *clients[t];
    const std::vector<KvReq>& reqs = s.per_thread[t];
    me->Prepare(reqs.size(), 2, traced);
    for (uint32_t i = 0; i < reqs.size(); ++i) {
      const KvReq& r = reqs[i];
      me->Request(traced, i, [&](SpanLog* log) {
        if (r.put) {
          const std::vector<uint8_t>& v = s.values[r.key][r.version - 1];
          issued[r.key].store(r.version);
          lt::Status st;
          {
            SpanScope span(log, kSpanKvPut, i);
            st = client.Put(s.names[r.key], v.data(), static_cast<uint32_t>(v.size()));
          }
          if (st.ok()) {
            acked[r.key].store(r.version);
          }
          return st.ok();
        }
        const uint32_t lo = acked[r.key].load();
        lt::StatusOr<std::vector<uint8_t>> got = lt::Status::Internal("unset");
        {
          SpanScope span(log, kSpanKvGet, i);
          got = client.Get(s.names[r.key]);
        }
        return got.ok() && KvValueValid(s, *got, r.key, lo, issued[r.key].load());
      });
    }
  };
  DriveLoad(cluster.get(), shape.threads, traced, t2, ru0, t0, failures, setup, body, rep);

  // Quiesce: every key must hold exactly its last acknowledged put.
  liteapp::LiteKvClient checker(cluster.get(), 1, 0);
  for (uint32_t k = 0; k < s.names.size(); ++k) {
    auto got = checker.Get(s.names[k]);
    const uint32_t want = acked[k].load();
    if (!got.ok() || !KvValueValid(s, *got, k, want, want)) {
      failures->Add("kv final value of " + s.names[k] + " is not version " +
                    std::to_string(want));
    }
  }
  CheckCluster(cluster.get(), failures);
  clients.clear();
  server.Stop();
}

// ------------------------------------------------------------ log-commit

void RunLog(const LogStream& s, const Shape& shape, bool traced, RepResult* rep,
            Failures* failures) {
  const uint64_t t0 = HostNs();
  const Rusage ru0 = ReadRusage();
  auto cluster = std::make_unique<lite::LiteCluster>(shape.nodes);
  const uint64_t t1 = HostNs();
  auto allocator = cluster->CreateClient(0);
  if (!liteapp::LiteLog::Create(allocator.get(), kLogName, kLogBytes).ok()) {
    failures->Add("LiteLog::Create failed");
    return;
  }
  const uint64_t t2 = HostNs();
  rep->cluster_s = Secs(t0, t1);
  rep->services_s = Secs(t1, t2);

  // Per-thread tallies the final Clean() and CommittedCount() must match.
  struct Tally {
    uint64_t commits = 0;
    uint64_t bytes = 0;
    uint64_t reclaimed = 0;
  };
  std::vector<Tally> tallies(shape.threads);
  std::vector<std::unique_ptr<lite::LiteClient>> clients(shape.threads);
  std::vector<std::unique_ptr<liteapp::LiteLog>> logs(shape.threads);

  auto setup = [&](int t) {
    clients[t] = cluster->CreateClient(t + 1);
    auto log = liteapp::LiteLog::Open(clients[t].get(), kLogName);
    if (!log.ok()) {
      failures->Add("LiteLog::Open failed on node " + std::to_string(t + 1));
      return false;
    }
    logs[t] = std::make_unique<liteapp::LiteLog>(*log);
    return true;
  };
  auto body = [&](int t, LoadThread* me) {
    liteapp::LiteLog& log = *logs[t];
    Tally& tally = tallies[t];
    const std::vector<LogReq>& reqs = s.per_thread[t];
    me->Prepare(reqs.size(), 2, traced);
    std::vector<liteapp::LogEntry> entries;
    for (uint32_t i = 0; i < reqs.size(); ++i) {
      const LogReq& r = reqs[i];
      me->Request(traced, i, [&](SpanLog* span_log) {
        if (r.entries == 0) {
          lt::StatusOr<uint64_t> got = lt::Status::Internal("unset");
          {
            SpanScope span(span_log, kSpanLogClean, i);
            got = log.Clean();
          }
          tally.reclaimed += got.ok() ? *got : 0;
          return got.ok();
        }
        entries.clear();
        for (int e = 0; e < r.entries; ++e) {
          entries.push_back(liteapp::LogEntry{s.pool.data() + r.pool_off[e], r.len[e]});
        }
        lt::Status st;
        {
          SpanScope span(span_log, kSpanLogCommit, i);
          st = log.Commit(entries);
        }
        if (st.ok()) {
          ++tally.commits;
          tally.bytes += LogTxnBytes(r);
        }
        return st.ok();
      });
    }
  };
  DriveLoad(cluster.get(), shape.threads, traced, t2, ru0, t0, failures, setup, body, rep);

  // Quiesce: the log's own counters must equal the writers' tallies.
  Tally total;
  for (const Tally& t : tallies) {
    total.commits += t.commits;
    total.bytes += t.bytes;
    total.reclaimed += t.reclaimed;
  }
  auto log = liteapp::LiteLog::Open(allocator.get(), kLogName);
  lt::StatusOr<uint64_t> count = log.status();
  lt::StatusOr<uint64_t> final_clean = log.status();
  if (log.ok()) {
    count = log->CommittedCount();
    final_clean = log->Clean();
  }
  if (!count.ok() || *count != total.commits) {
    failures->Add("log CommittedCount " + (count.ok() ? std::to_string(*count) : "failed") +
                  " != " + std::to_string(total.commits) + " commits");
  }
  if (!final_clean.ok() || *final_clean != total.bytes - total.reclaimed) {
    failures->Add("log final Clean reclaimed " +
                  (final_clean.ok() ? std::to_string(*final_clean) : "failed") + " != " +
                  std::to_string(total.bytes - total.reclaimed) + " bytes");
  }
  CheckCluster(cluster.get(), failures);
}

// ------------------------------------------------------------ rdma-batch

// The client's shadow of its own region, written only by that client.
struct Region {
  uint64_t base = 0;
  std::vector<uint8_t> shadow = std::vector<uint8_t>(kRecordsOff + kRecords * kRecordStride);

  uint64_t Word(uint32_t w) const {
    uint64_t v = 0;
    std::memcpy(&v, shadow.data() + kWordsOff + w * 8, 8);
    return v;
  }
  void SetWord(uint32_t w, uint64_t v) { std::memcpy(shadow.data() + kWordsOff + w * 8, &v, 8); }
  uint64_t RecordOff(uint32_t r) const { return kRecordsOff + uint64_t{r} * kRecordStride; }
};

// Compares the whole region against the shadow with plain reads.
bool RegionMatches(lite::LiteClient* client, lite::Lh lh, const Region& region) {
  std::vector<uint8_t> buf(kCopyPiece);
  for (uint64_t off = 0; off < region.shadow.size(); off += kCopyPiece) {
    const uint64_t len = std::min<uint64_t>(kCopyPiece, region.shadow.size() - off);
    if (!client->Read(lh, region.base + off, buf.data(), len).ok() ||
        std::memcmp(buf.data(), region.shadow.data() + off, len) != 0) {
      return false;
    }
  }
  return true;
}

void RunBatch(const BatchStream& s, const Shape& shape, bool traced, RepResult* rep,
              Failures* failures) {
  const uint64_t t0 = HostNs();
  const Rusage ru0 = ReadRusage();
  lt::SimParams params;
  params.lite_ring_enable = true;
  auto cluster = std::make_unique<lite::LiteCluster>(shape.nodes, params);
  const uint64_t t1 = HostNs();
  auto owner = cluster->CreateClient(0);
  if (!owner->Malloc(kLmrBytes, kLmrName).ok()) {
    failures->Add("Malloc of the shared LMR failed");
    return;
  }
  const uint64_t t2 = HostNs();
  rep->cluster_s = Secs(t0, t1);
  rep->services_s = Secs(t1, t2);

  std::vector<Region> regions(shape.threads);
  std::vector<std::unique_ptr<lite::LiteClient>> clients(shape.threads);
  std::vector<lite::Lh> lhs(shape.threads, lite::kInvalidLh);

  auto setup = [&](int t) {
    clients[t] = cluster->CreateClient(t + 1);
    auto lh = clients[t]->Map(kLmrName);
    if (!lh.ok()) {
      failures->Add("Map of the shared LMR failed on node " + std::to_string(t + 1));
      return false;
    }
    lhs[t] = *lh;
    Region& region = regions[t];
    region.base = static_cast<uint64_t>(t) * kRegionBytes;
    for (uint32_t r = 0; r < kRecords; ++r) {
      const uint64_t ptr = region.base + region.RecordOff(r);
      std::memcpy(region.shadow.data() + kPtrsOff + r * 8, &ptr, 8);
      std::memcpy(region.shadow.data() + region.RecordOff(r),
                  s.pool.data() + (r * 997u) % kPoolBytes, s.record_len[r]);
    }
    for (uint64_t off = 0; off < region.shadow.size(); off += kCopyPiece) {
      const uint64_t len = std::min<uint64_t>(kCopyPiece, region.shadow.size() - off);
      if (!clients[t]->Write(*lh, region.base + off, region.shadow.data() + off, len).ok()) {
        failures->Add("initial region write failed on node " + std::to_string(t + 1));
        return false;
      }
    }
    return true;
  };
  auto body = [&](int t, LoadThread* me) {
    lite::LiteClient& c = *clients[t];
    const lite::Lh lh = lhs[t];
    Region& region = regions[t];
    const std::vector<BatchReq>& reqs = s.per_thread[t];
    me->Prepare(reqs.size(), kBatchOps + 6, traced);
    std::vector<uint8_t> read_buf(kBatchOps * kSlotBytes);
    std::vector<uint8_t> record_buf(kRecordStride);
    for (uint32_t i = 0; i < reqs.size(); ++i) {
      const BatchReq& r = reqs[i];
      me->Request(traced, i, [&](SpanLog* log) {
        bool ok = true;
        uint64_t ptr = 0;
        const uint64_t word = r.word;
        const uint64_t old_word = region.Word(r.word);
        uint64_t new_word = old_word;
        {
          SpanScope batch(log, kSpanBatch, i);
          for (int k = 0; k < kBatchOps; ++k) {
            const BatchOp& op = r.ops[k];
            const uint64_t addr = region.base + uint64_t{op.slot} * kSlotBytes + op.off;
            SpanScope span(log, op.write ? kSpanWriteAsync : kSpanReadAsync, i);
            ok &= (op.write ? c.WriteAsync(lh, addr, s.pool.data() + op.pool_off, op.len)
                            : c.ReadAsync(lh, addr, read_buf.data() + k * kSlotBytes, op.len))
                      .ok();
          }
          {
            SpanScope span(log, kSpanWaitAll, i);
            ok &= c.WaitAll().ok();
          }
          const uint64_t word_addr = region.base + kWordsOff + word * 8;
          lt::StatusOr<uint64_t> got = lt::Status::Internal("unset");
          if (r.fetch_add) {
            SpanScope span(log, kSpanFetchAdd, i);
            got = c.FetchAdd(lh, word_addr, r.delta);
            new_word = old_word + r.delta;
          } else {
            const uint64_t expected = r.ts_hit ? old_word : old_word + 1;
            SpanScope span(log, kSpanTestSet, i);
            got = c.TestSet(lh, word_addr, expected, old_word + r.delta);
            new_word = r.ts_hit ? old_word + r.delta : old_word;
          }
          ok &= got.ok() && *got == old_word;
          {
            SpanScope span(log, kSpanRead, i);
            ok &= c.Read(lh, region.base + kPtrsOff + r.record * 8u, &ptr, 8).ok();
          }
          ok &= ptr == region.base + region.RecordOff(r.record);
          if (ok) {
            SpanScope span(log, kSpanRead, i);
            ok &= c.Read(lh, ptr, record_buf.data(), s.record_len[r.record]).ok();
          }
        }
        // Check reads against the shadow, then apply this batch's writes
        // (the ops touch distinct slots, so their order does not matter).
        for (int k = 0; k < kBatchOps; ++k) {
          const BatchOp& op = r.ops[k];
          uint8_t* shadow = region.shadow.data() + uint64_t{op.slot} * kSlotBytes + op.off;
          if (op.write) {
            std::memcpy(shadow, s.pool.data() + op.pool_off, op.len);
          } else {
            ok &= std::memcmp(read_buf.data() + k * kSlotBytes, shadow, op.len) == 0;
          }
        }
        region.SetWord(r.word, new_word);
        return ok && std::memcmp(record_buf.data(),
                                 region.shadow.data() + region.RecordOff(r.record),
                                 s.record_len[r.record]) == 0;
      });
    }
  };
  DriveLoad(cluster.get(), shape.threads, traced, t2, ru0, t0, failures, setup, body, rep);

  // Quiesce: each region, read back in full, must equal its shadow.
  for (int t = 0; t < shape.threads; ++t) {
    auto checker = cluster->CreateClient(t + 1);
    auto lh = checker->Map(kLmrName);
    if (lhs[t] == lite::kInvalidLh || !lh.ok() || !RegionMatches(checker.get(), *lh, regions[t])) {
      failures->Add("rdma-batch region of node " + std::to_string(t + 1) +
                    " differs from its shadow");
    }
  }
  CheckCluster(cluster.get(), failures);
}

}  // namespace

Streams MakeStreams(Workload w, uint64_t seed) {
  Streams s;
  s.workload = w;
  switch (w) {
    case Workload::kKvRpc:
      s.kv = MakeKvStream(seed);
      break;
    case Workload::kLogCommit:
      s.log = MakeLogStream(seed);
      break;
    case Workload::kRdmaBatch:
      s.batch = MakeBatchStream(seed);
      break;
  }
  return s;
}

RepResult RunRep(const Streams& streams, bool traced) {
  RepResult rep;
  Failures failures;
  const Shape shape = ShapeOf(streams.workload);
  switch (streams.workload) {
    case Workload::kKvRpc:
      RunKv(streams.kv, shape, traced, &rep, &failures);
      break;
    case Workload::kLogCommit:
      RunLog(streams.log, shape, traced, &rep, &failures);
      break;
    case Workload::kRdmaBatch:
      RunBatch(streams.batch, shape, traced, &rep, &failures);
      break;
  }
  rep.check_failures = failures.Take();
  return rep;
}

}  // namespace appbench
