// Request streams for the application benchmark.
//
// Every input a load thread issues is generated here from the workload seed,
// before any timing starts: keys, versions, value and entry sizes, batch
// offsets, atomic operands. The load threads only walk their stream, so the
// generator's host cost is never charged to the program, and the same seed
// always yields the same bytes (SerializeStream() is what the self-test
// compares).
#ifndef APPBENCH_STREAM_H_
#define APPBENCH_STREAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace appbench {

enum class Workload { kKvRpc, kLogCommit, kRdmaBatch };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

// Fixed per-workload shape: cluster size, load threads (one per client node,
// nodes 1..threads; node 0 hosts the server, the log or the LMR) and the
// requests each load thread issues in one repetition.
struct Shape {
  int nodes;
  int threads;
  uint32_t reqs_per_thread;
};
Shape ShapeOf(Workload w);

// Shared random bytes that writes and log entries copy their payload from.
constexpr uint32_t kPoolBytes = 64 << 10;

// ---------------------------------------------------------------- kv-rpc
// Keys are shared by all readers; key k is written only by thread
// k % threads, so each key's versions form one sequence 1, 2, 3, ... and a
// reader can bound the version it may legally observe.
struct KvReq {
  bool put = false;
  uint32_t key = 0;
  uint32_t version = 0;  // Put only.
};

// Every value starts with its key id, version and length, then a pattern
// derived from all three, so a reader can tell which put it observes.
struct KvStream {
  std::vector<std::string> names;                        // Key strings.
  std::vector<std::vector<std::vector<uint8_t>>> values; // values[k][v - 1].
  std::vector<std::vector<KvReq>> per_thread;
};

// True when `got` is exactly the value some version in [lo, hi] of `key`
// stored.
bool KvValueValid(const KvStream& s, const std::vector<uint8_t>& got, uint32_t key, uint32_t lo,
                  uint32_t hi);

KvStream MakeKvStream(uint64_t seed);

// ------------------------------------------------------------ log-commit
struct LogReq {
  uint8_t entries = 0;  // 0 = run Clean() instead of a commit.
  uint16_t len[4] = {};
  uint32_t pool_off[4] = {};
};

struct LogStream {
  std::vector<uint8_t> pool;
  std::vector<std::vector<LogReq>> per_thread;
};

// Log bytes one commit reserves: an 8-byte header per entry plus its data.
uint64_t LogTxnBytes(const LogReq& r);

LogStream MakeLogStream(uint64_t seed);

// ------------------------------------------------------------ rdma-batch
// Each client owns one 4 MB region of the shared 8 MB LMR:
//   [0, 3 MB)            kSlots data slots of 4 KB (async reads/writes)
//   kWordsOff            kWords 8-byte atomic words
//   kPtrsOff             kRecords 8-byte pointers, each naming a record
//   kRecordsOff          kRecords records of 64..512 B, kRecordStride apart
constexpr uint64_t kLmrBytes = 8ull << 20;
constexpr uint64_t kRegionBytes = 4ull << 20;
constexpr uint32_t kSlotBytes = 4096;
constexpr uint32_t kSlots = 768;
constexpr uint32_t kWords = 64;
constexpr uint32_t kRecords = 256;
constexpr uint32_t kRecordStride = 512;
constexpr uint64_t kWordsOff = uint64_t{kSlots} * kSlotBytes;
constexpr uint64_t kPtrsOff = kWordsOff + 4096;
constexpr uint64_t kRecordsOff = kPtrsOff + 4096;
constexpr int kBatchOps = 8;
constexpr int kBatchWrites = 2;  // 3:1 reads to writes.

struct BatchOp {
  bool write = false;
  uint16_t slot = 0;
  uint16_t off = 0;  // Within the slot.
  uint16_t len = 0;
  uint32_t pool_off = 0;  // Write source.
};

struct BatchReq {
  BatchOp ops[kBatchOps];  // Distinct slots, so the ops never overlap.
  bool fetch_add = false;  // Else test-and-set.
  bool ts_hit = false;     // Test-and-set expects the current value.
  uint8_t word = 0;
  uint16_t delta = 0;      // Fetch-add operand / test-and-set new value seed.
  uint16_t record = 0;     // Indirect read target.
};

struct BatchStream {
  std::vector<uint8_t> pool;
  std::vector<uint16_t> record_len;  // Length of each record (shared layout).
  std::vector<std::vector<BatchReq>> per_thread;
};

BatchStream MakeBatchStream(uint64_t seed);

// Byte image of a workload's whole stream (self-test: same seed, same bytes).
std::string SerializeStream(Workload w, uint64_t seed);

}  // namespace appbench

#endif  // APPBENCH_STREAM_H_
