// Host-side measurement for the application benchmark: the process's own
// clocks and kernel counters, and the benchmark-side span log.
//
// Spans are recorded only in a traced repetition. Each one carries both
// clocks: host (what the simulator costs) and virtual (the model's answer,
// lt::NowNs of the issuing thread).
#ifndef APPBENCH_MEASURE_H_
#define APPBENCH_MEASURE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace appbench {

// Host monotonic clock (ns).
uint64_t HostNs();

// Process-wide getrusage: user+sys CPU, minor faults, context switches.
struct Rusage {
  uint64_t cpu_ns = 0;
  uint64_t minflt = 0;
  uint64_t ctxsw = 0;
};
Rusage ReadRusage();

// Peak resident set (VmHWM) and current OS threads, from /proc/self/status.
uint64_t PeakRssKb();
int OsThreads();

// Calling thread's kernel task id.
int ThreadId();

// utime+stime per task of this process, in ns (/proc/self/task/*/stat,
// clock-tick resolution).
std::map<int, uint64_t> TaskCpuNs();

// ------------------------------------------------------------------ spans
enum SpanName : uint8_t {
  kSpanReq,  // One request: the app call plus the benchmark's own checks.
  // App ops, kSpanKvGet..kSpanBatch.
  kSpanKvGet,
  kSpanKvPut,
  kSpanLogCommit,
  kSpanLogClean,
  kSpanBatch,
  kSpanReadAsync,
  kSpanWriteAsync,
  kSpanWaitAll,
  kSpanFetchAdd,
  kSpanTestSet,
  kSpanRead,
  kSpanNameCount,
};
const char* SpanNameStr(int name);

struct Span {
  uint64_t h0 = 0, h1 = 0;  // Host ns.
  uint64_t v0 = 0, v1 = 0;  // Virtual ns.
  int32_t parent = -1;      // Index of the enclosing span, -1 for a request.
  uint32_t req = 0;         // Request id (index in the thread's stream).
  SpanName name = kSpanReq;
};

// One load thread's spans, kept in memory and read after the run.
class SpanLog {
 public:
  void Reserve(size_t n) { spans_.reserve(n); }
  int32_t Begin(SpanName name, uint32_t req);
  void End(int32_t idx);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int32_t open_ = -1;
};

// Records one span when `log` is non-null; free otherwise.
class SpanScope {
 public:
  SpanScope(SpanLog* log, SpanName name, uint32_t req)
      : log_(log), idx_(log != nullptr ? log->Begin(name, req) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) {
      log_->End(idx_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* const log_;
  const int32_t idx_;
};

}  // namespace appbench

#endif  // APPBENCH_MEASURE_H_
