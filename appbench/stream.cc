#include "appbench/stream.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "src/apps/workloads.h"

namespace appbench {
namespace {

// SplitMix64, kept local so the benchmark's inputs never change with the
// program's own generators (FacebookKvSampler aside, which the workload
// names on purpose).
class Mix {
 public:
  explicit Mix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint32_t Below(uint64_t bound) { return static_cast<uint32_t>(Next() % bound); }
  uint32_t Between(uint32_t lo, uint32_t hi) { return lo + Below(uint64_t{hi} - lo + 1); }

 private:
  uint64_t state_;
};

std::vector<uint8_t> RandomPool(Mix* rng, size_t bytes) {
  std::vector<uint8_t> pool(bytes);
  for (uint8_t& b : pool) {
    b = static_cast<uint8_t>(rng->Next());
  }
  return pool;
}

constexpr uint32_t kKvKeys = 1200;
constexpr uint32_t kKvMinValue = 16;
constexpr uint32_t kKvMaxValue = 4096;
constexpr uint32_t kKvPutPercent = 10;
// The KV server appends every put to an 8 MB value log and stops appending
// once it is full; the stream stays well inside it so every repetition does
// the same work (records are 16 B header + value, 64 B aligned).
constexpr uint64_t kKvValueLogBudget = 7ull << 20;
constexpr uint32_t kLogCleanEvery = 256;

uint8_t KvPattern(uint32_t key, uint32_t version, uint32_t i) {
  return static_cast<uint8_t>((key * 2654435761u) ^ (version * 40503u) ^ (i * 131u) ^ (i >> 8));
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kKvRpc, Workload::kLogCommit, Workload::kRdmaBatch}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kKvRpc:
      return "kv-rpc";
    case Workload::kLogCommit:
      return "log-commit";
    case Workload::kRdmaBatch:
      return "rdma-batch";
  }
  return "?";
}

Shape ShapeOf(Workload w) {
  switch (w) {
    case Workload::kKvRpc:
      return {4, 3, 12000};
    case Workload::kLogCommit:
      return {4, 3, 100000};
    case Workload::kRdmaBatch:
      return {3, 2, 24000};
  }
  return {};
}

// ---------------------------------------------------------------- kv-rpc

namespace {

std::vector<uint8_t> KvValue(uint32_t key, uint32_t version, uint32_t len) {
  std::vector<uint8_t> v(len);
  const uint32_t hdr[3] = {key, version, len};
  std::memcpy(v.data(), hdr, sizeof(hdr));
  for (uint32_t i = sizeof(hdr); i < len; ++i) {
    v[i] = KvPattern(key, version, i);
  }
  return v;
}

}  // namespace

bool KvValueValid(const KvStream& s, const std::vector<uint8_t>& got, uint32_t key, uint32_t lo,
                  uint32_t hi) {
  uint32_t hdr[3] = {};
  if (got.size() < sizeof(hdr)) {
    return false;
  }
  std::memcpy(hdr, got.data(), sizeof(hdr));
  const uint32_t version = hdr[1];
  return hdr[0] == key && version >= lo && version <= hi && version >= 1 &&
         version <= s.values[key].size() && s.values[key][version - 1] == got;
}

KvStream MakeKvStream(uint64_t seed) {
  const Shape shape = ShapeOf(Workload::kKvRpc);
  Mix rng(seed ^ 0x6b762d727063ull);
  liteapp::FacebookKvSampler sizes(seed);
  auto next_size = [&] {
    return std::clamp(sizes.NextValueSize(), kKvMinValue, kKvMaxValue);
  };
  auto record_bytes = [](uint32_t len) { return (16 + uint64_t{len} + 63) & ~63ull; };

  KvStream s;
  uint64_t log_bytes = 0;
  s.names.resize(kKvKeys);
  s.values.resize(kKvKeys);
  for (uint32_t k = 0; k < kKvKeys; ++k) {
    s.names[k] = "user" + std::to_string(k * 7919 % 100003);
    const uint32_t len = next_size();  // Version 1: populated during set-up.
    s.values[k].push_back(KvValue(k, 1, len));
    log_bytes += record_bytes(len);
  }
  const uint32_t threads = static_cast<uint32_t>(shape.threads);
  s.per_thread.resize(threads);
  for (uint32_t t = 0; t < threads; ++t) {
    auto& reqs = s.per_thread[t];
    reqs.resize(shape.reqs_per_thread);
    for (KvReq& r : reqs) {
      r.put = rng.Below(100) < kKvPutPercent;
      if (r.put) {
        r.key = rng.Below(kKvKeys / threads) * threads + t;
        const uint32_t len = next_size();
        r.version = static_cast<uint32_t>(s.values[r.key].size() + 1);
        s.values[r.key].push_back(KvValue(r.key, r.version, len));
        log_bytes += record_bytes(len);
      } else {
        r.key = rng.Below(kKvKeys);
      }
    }
  }
  if (log_bytes > kKvValueLogBudget) {
    throw std::runtime_error("kv-rpc stream overflows the server's value log");
  }
  return s;
}

// ------------------------------------------------------------ log-commit

uint64_t LogTxnBytes(const LogReq& r) {
  uint64_t total = 0;
  for (int e = 0; e < r.entries; ++e) {
    total += 8 + r.len[e];
  }
  return total;
}

LogStream MakeLogStream(uint64_t seed) {
  const Shape shape = ShapeOf(Workload::kLogCommit);
  Mix rng(seed ^ 0x6c6f672d636dull);
  LogStream s;
  s.pool = RandomPool(&rng, kPoolBytes + 1024);
  s.per_thread.resize(shape.threads);
  for (auto& reqs : s.per_thread) {
    reqs.resize(shape.reqs_per_thread);
    for (uint32_t i = 0; i < reqs.size(); ++i) {
      LogReq& r = reqs[i];
      if (i % kLogCleanEvery == kLogCleanEvery - 1) {
        continue;  // Clean.
      }
      r.entries = static_cast<uint8_t>(rng.Between(1, 4));
      for (int e = 0; e < r.entries; ++e) {
        r.len[e] = static_cast<uint16_t>(rng.Between(16, 1024));
        r.pool_off[e] = rng.Below(kPoolBytes);
      }
    }
  }
  return s;
}

// ------------------------------------------------------------ rdma-batch

BatchStream MakeBatchStream(uint64_t seed) {
  const Shape shape = ShapeOf(Workload::kRdmaBatch);
  Mix rng(seed ^ 0x726462617463ull);
  BatchStream s;
  s.pool = RandomPool(&rng, kPoolBytes + kSlotBytes);
  s.record_len.resize(kRecords);
  for (uint16_t& len : s.record_len) {
    len = static_cast<uint16_t>(rng.Between(64, kRecordStride));
  }
  s.per_thread.resize(shape.threads);
  for (auto& reqs : s.per_thread) {
    reqs.resize(shape.reqs_per_thread);
    for (BatchReq& r : reqs) {
      uint16_t used[kBatchOps];
      for (int i = 0; i < kBatchOps; ++i) {
        BatchOp& op = r.ops[i];
        do {
          op.slot = static_cast<uint16_t>(rng.Below(kSlots));
        } while (std::find(used, used + i, op.slot) != used + i);
        used[i] = op.slot;
        op.len = static_cast<uint16_t>(rng.Between(64, kSlotBytes));
        op.off = static_cast<uint16_t>(rng.Below(kSlotBytes - op.len + 1));
        op.pool_off = rng.Below(kPoolBytes);
      }
      for (int w = 0; w < kBatchWrites;) {
        BatchOp& op = r.ops[rng.Below(kBatchOps)];
        if (!op.write) {
          op.write = true;
          ++w;
        }
      }
      r.fetch_add = rng.Below(2) == 0;
      r.ts_hit = rng.Below(2) == 0;
      r.word = static_cast<uint8_t>(rng.Below(kWords));
      r.delta = static_cast<uint16_t>(rng.Between(1, 1000));
      r.record = static_cast<uint16_t>(rng.Below(kRecords));
    }
  }
  return s;
}

// -------------------------------------------------------------- self-test

namespace {

template <typename T>
void Append(std::string* out, const T& v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

}  // namespace

std::string SerializeStream(Workload w, uint64_t seed) {
  std::string out;
  switch (w) {
    case Workload::kKvRpc: {
      KvStream s = MakeKvStream(seed);
      for (uint32_t k = 0; k < s.names.size(); ++k) {
        out += s.names[k];
        for (const auto& v : s.values[k]) {
          out.append(v.begin(), v.end());
        }
      }
      for (const auto& reqs : s.per_thread) {
        for (const KvReq& r : reqs) {
          Append(&out, r.put);
          Append(&out, r.key);
          Append(&out, r.version);
        }
      }
      break;
    }
    case Workload::kLogCommit: {
      LogStream s = MakeLogStream(seed);
      out.append(s.pool.begin(), s.pool.end());
      for (const auto& reqs : s.per_thread) {
        for (const LogReq& r : reqs) {
          Append(&out, r.entries);
          for (int e = 0; e < r.entries; ++e) {
            Append(&out, r.len[e]);
            Append(&out, r.pool_off[e]);
          }
        }
      }
      break;
    }
    case Workload::kRdmaBatch: {
      BatchStream s = MakeBatchStream(seed);
      out.append(s.pool.begin(), s.pool.end());
      for (uint16_t len : s.record_len) {
        Append(&out, len);
      }
      for (const auto& reqs : s.per_thread) {
        for (const BatchReq& r : reqs) {
          for (const BatchOp& op : r.ops) {
            Append(&out, op.write);
            Append(&out, op.slot);
            Append(&out, op.off);
            Append(&out, op.len);
            Append(&out, op.pool_off);
          }
          Append(&out, r.fetch_add);
          Append(&out, r.ts_hit);
          Append(&out, r.word);
          Append(&out, r.delta);
          Append(&out, r.record);
        }
      }
      break;
    }
  }
  return out;
}

}  // namespace appbench
