#include "appbench/measure.h"

#include <dirent.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/common/timing.h"

namespace appbench {
namespace {

uint64_t TimevalNs(const timeval& tv) {
  return static_cast<uint64_t>(tv.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(tv.tv_usec) * 1000ull;
}

// Value of a "Key:   123 ..." line of /proc/self/status, or -1.
long StatusField(const char* key) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return -1;
  }
  char line[256];
  long value = -1;
  const size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      value = std::strtol(line + key_len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return value;
}

}  // namespace

uint64_t HostNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

Rusage ReadRusage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Rusage out;
  out.cpu_ns = TimevalNs(ru.ru_utime) + TimevalNs(ru.ru_stime);
  out.minflt = static_cast<uint64_t>(ru.ru_minflt);
  out.ctxsw = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return out;
}

uint64_t PeakRssKb() {
  long kb = StatusField("VmHWM");
  return kb < 0 ? 0 : static_cast<uint64_t>(kb);
}

int OsThreads() { return static_cast<int>(StatusField("Threads")); }

int ThreadId() { return static_cast<int>(syscall(SYS_gettid)); }

std::map<int, uint64_t> TaskCpuNs() {
  std::map<int, uint64_t> out;
  const uint64_t ns_per_tick = 1'000'000'000ull / static_cast<uint64_t>(sysconf(_SC_CLK_TCK));
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    return out;
  }
  while (dirent* ent = readdir(dir)) {
    if (ent->d_name[0] == '.') {
      continue;
    }
    const std::string path = std::string("/proc/self/task/") + ent->d_name + "/stat";
    FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) {
      continue;  // The task exited meanwhile.
    }
    char buf[1024];
    size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    buf[n] = '\0';
    // Fields after the parenthesised command name: state is field 3, utime
    // and stime are fields 14 and 15.
    const char* p = std::strrchr(buf, ')');
    if (p == nullptr) {
      continue;
    }
    unsigned long long utime = 0, stime = 0;
    if (std::sscanf(p + 2, "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu", &utime,
                    &stime) == 2) {
      out[std::atoi(ent->d_name)] = (utime + stime) * ns_per_tick;
    }
  }
  closedir(dir);
  return out;
}

// ------------------------------------------------------------------ spans

const char* SpanNameStr(int name) {
  static const char* const kNames[kSpanNameCount] = {
      "req",       "kv.get",     "kv.put",        "log.commit",     "log.clean",
      "batch",     "lite.read_async", "lite.write_async", "lite.wait_all", "lite.fetch_add",
      "lite.test_set", "lite.read",
  };
  return name >= 0 && name < kSpanNameCount ? kNames[name] : "?";
}

int32_t SpanLog::Begin(SpanName name, uint32_t req) {
  Span s;
  s.name = name;
  s.req = req;
  s.parent = open_;
  s.v0 = lt::NowNs();
  s.h0 = HostNs();
  spans_.push_back(s);
  open_ = static_cast<int32_t>(spans_.size() - 1);
  return open_;
}

void SpanLog::End(int32_t idx) {
  Span& s = spans_[static_cast<size_t>(idx)];
  s.h1 = HostNs();
  s.v1 = lt::NowNs();
  open_ = s.parent;
}

}  // namespace appbench
