#include "appbench/layers.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "src/telemetry/latency_attr.h"

namespace appbench {
namespace {

constexpr char kLatPrefix[] = "lite.lat.";

std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

// Appends metrics and their report lines, every ratio with its base.
class Emitter {
 public:
  Emitter(Metrics* out, std::string* report) : out_(out), report_(report) {}

  void Section(const char* layer) { *report_ += Format("\n== layer %s ==\n", layer); }

  void Value(const std::string& name, double v, const char* unit, const std::string& base) {
    out_->push_back({name, v, unit});
    *report_ += Format("  %-36s %14.4f %-9s %s\n", name.c_str(), v, unit, base.c_str());
  }

  // name = scale * num / den (0 when den is 0).
  void Ratio(const std::string& name, const char* unit, double num, const char* num_label,
             double den, const char* den_label, double scale = 1) {
    const double v = den == 0 ? 0 : scale * num / den;
    Value(name, v, unit,
          Format("= %s%s %.0f / %s %.0f", scale == 1 ? "" : Format("%g x ", scale).c_str(),
                 num_label, num, den_label, den));
  }

 private:
  Metrics* out_;
  std::string* report_;
};

// "lite.lat.<op>.<size>.<pri>.<stage>" -> ("<op>.<size>.<pri>", "<stage>").
bool SplitLatKey(const std::string& key, std::string* op, std::string* stage) {
  if (key.rfind(kLatPrefix, 0) != 0) {
    return false;
  }
  const size_t dot = key.rfind('.');
  *op = key.substr(sizeof(kLatPrefix) - 1, dot - (sizeof(kLatPrefix) - 1));
  *stage = key.substr(dot + 1);
  return true;
}

}  // namespace

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Percentile(std::vector<uint64_t>* v, double p) {
  if (v->empty()) {
    return 0;
  }
  std::sort(v->begin(), v->end());
  const double q = p / 100.0 * static_cast<double>(v->size());
  const size_t rank = std::clamp<size_t>(static_cast<size_t>(std::ceil(q)), 1, v->size());
  const uint64_t x = (*v)[rank - 1];
  const auto lo = std::lower_bound(v->begin(), v->end(), x) - v->begin();
  const auto hi = std::upper_bound(v->begin(), v->end(), x) - v->begin();
  return static_cast<double>(x) - 0.5 +
         (q - static_cast<double>(lo)) / static_cast<double>(hi - lo);
}

void CounterSum::AddDelta(const lt::telemetry::MetricsSnapshot& before,
                          const lt::telemetry::MetricsSnapshot& after) {
  for (const auto& [name, v] : after.values) {
    values[name] += static_cast<double>(v - before.ValueOr(name));
  }
  for (const auto& [name, h] : after.histograms) {
    auto it = before.histograms.find(name);
    const uint64_t count0 = it == before.histograms.end() ? 0 : it->second.count;
    const uint64_t sum0 = it == before.histograms.end() ? 0 : it->second.sum;
    hist_count[name] += static_cast<double>(h.count - count0);
    hist_sum[name] += static_cast<double>(h.sum - sum0);
  }
}

double CounterSum::Value(const std::string& name) const {
  auto it = values.find(name);
  return it == values.end() ? 0 : it->second;
}

bool WriteSpansCsv(const RepResult& rep, const std::string& path, uint32_t max_req) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "thread,req,span,parent,host_start_ns,host_end_ns,virt_start_ns,virt_end_ns\n");
  for (size_t t = 0; t < rep.spans.size(); ++t) {
    for (const Span& s : rep.spans[t]) {
      if (s.req >= max_req) {
        break;
      }
      std::fprintf(f, "%zu,%u,%s,%d,%llu,%llu,%llu,%llu\n", t, s.req, SpanNameStr(s.name),
                   s.parent, static_cast<unsigned long long>(s.h0),
                   static_cast<unsigned long long>(s.h1), static_cast<unsigned long long>(s.v0),
                   static_cast<unsigned long long>(s.v1));
    }
  }
  return std::fclose(f) == 0;
}

void LayerStats::Add(const RepResult& rep) {
  requests_ += rep.attempted;
  for (size_t n = 0; n < rep.after.size(); ++n) {
    all_.AddDelta(rep.before[n], rep.after[n]);
    if (std::find(rep.load_nodes.begin(), rep.load_nodes.end(), static_cast<int>(n)) !=
        rep.load_nodes.end()) {
      load_.AddDelta(rep.before[n], rep.after[n]);
    }
  }
  qpc_occupancy_end_ = 0;
  for (const auto& snap : rep.after) {
    qpc_occupancy_end_ += static_cast<double>(snap.ValueOr("lite.transport.qpc_occupancy"));
  }
  load_vcpu_ns_ += rep.load_vcpu_ns;
  load_task_ns_ += rep.load_task_ns;
  service_task_ns_ += rep.service_task_ns;
  ctxsw_ += rep.ctxsw;

  for (const std::vector<Span>& spans : rep.spans) {
    std::vector<uint64_t> child_host(spans.size()), child_virt(spans.size());
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_host[s.parent] += s.h1 - s.h0;
        child_virt[s.parent] += s.v1 - s.v0;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      SpanAgg& agg = spans_[s.name];
      ++agg.count;
      agg.host_ns += static_cast<double>(s.h1 - s.h0);
      agg.host_self_ns += static_cast<double>(s.h1 - s.h0 - child_host[i]);
      agg.virt_ns += static_cast<double>(s.v1 - s.v0);
      agg.virt_self_ns += static_cast<double>(s.v1 - s.v0 - child_virt[i]);
      if (s.name >= kSpanKvGet && s.name <= kSpanBatch) {  // App ops: percentiles.
        op_virt_ns_[s.name].push_back(s.v1 - s.v0);
      }
    }
  }
}

void LayerStats::Finish(Metrics* out, std::string* report,
                        std::vector<std::string>* failures) const {
  Emitter e(out, report);
  const double reqs = static_cast<double>(requests_);
  auto all = [&](const char* name) { return all_.Value(name); };
  auto load = [&](const char* name) { return load_.Value(name); };

  // ---- apps: benchmark-side spans.
  e.Section("apps");
  *report += Format("  %-18s %9s %10s %10s %10s %10s\n", "span", "count", "host_us", "self_us",
                    "virt_us", "vself_us");
  for (int n = 0; n < kSpanNameCount; ++n) {
    const SpanAgg& a = spans_[n];
    if (a.count == 0) {
      continue;
    }
    const double c = static_cast<double>(a.count) * 1000.0;
    *report += Format("  %-18s %9llu %10.3f %10.3f %10.3f %10.3f\n", SpanNameStr(n),
                      static_cast<unsigned long long>(a.count), a.host_ns / c,
                      a.host_self_ns / c, a.virt_ns / c, a.virt_self_ns / c);
  }
  for (SpanName op : {kSpanKvGet, kSpanKvPut, kSpanLogCommit, kSpanLogClean, kSpanBatch}) {
    std::vector<uint64_t> v = op_virt_ns_[op];
    const std::string name = std::string("apps.") + SpanNameStr(op);
    const std::string base = Format("(%zu samples)", v.size());
    e.Value(name + ".p50_us", Percentile(&v, 50) / 1000.0, "us", base);
    e.Value(name + ".p99_us", Percentile(&v, 99) / 1000.0, "us", base);
    const SpanAgg& a = spans_[op];
    e.Value(name + ".host_us", a.count == 0 ? 0 : a.host_ns / static_cast<double>(a.count) / 1e3,
            "us", "(host time per call)");
  }
  // A LITE call either crosses into the kernel or rides a submission ring;
  // ring doorbells are crossings that carry ring ops, so count them once.
  e.Ratio("apps.lite_calls_per_req", "count/req",
          load("os.crossings") - load("os.crossings_batched") + load("lite.ring.ops"),
          "load-node crossings-doorbells+ring_ops", reqs, "requests");

  // ---- lite.client: user/kernel boundary.
  e.Section("lite.client");
  e.Ratio("lite.client.crossings_per_req", "count/req", all("os.crossings"), "os.crossings",
          reqs, "requests");
  e.Ratio("lite.client.syscalls_per_req", "count/req", all("os.syscalls"), "os.syscalls", reqs,
          "requests");
  e.Ratio("lite.client.vcpu_us_per_req", "us", static_cast<double>(load_vcpu_ns_),
          "load-thread vcpu_ns", reqs, "requests", 1e-3);

  // ---- lite.ring: per-CPU submission rings.
  e.Section("lite.ring");
  e.Ratio("lite.ring.ops_per_doorbell", "count", all("lite.ring.ops"), "lite.ring.ops",
          all("lite.ring.doorbells"), "lite.ring.doorbells");
  e.Ratio("lite.ring.deferred_flushes_per_req", "count/req", all("lite.ring.deferred_flushes"),
          "lite.ring.deferred_flushes", reqs, "requests");
  e.Ratio("lite.ring.spin_hit_ratio", "ratio", all("lite.ring.spin_hits"), "spin_hits",
          all("lite.ring.spin_hits") + all("lite.ring.sleep_wakeups"), "spin_hits+sleep_wakeups");

  // ---- lite.engine: op engine and memops (blocking and async).
  e.Section("lite.engine");
  const double ops = all("lite.engine.ops");
  e.Ratio("lite.engine.ops_per_req", "count/req", ops, "lite.engine.ops", reqs, "requests");
  e.Ratio("lite.engine.retries_per_kop", "count/kop", all("lite.engine.retries"),
          "lite.engine.retries", ops, "lite.engine.ops", 1000);
  e.Ratio("lite.engine.failed_ratio", "ratio", all("lite.engine.ops_failed"),
          "lite.engine.ops_failed", ops, "lite.engine.ops");
  e.Ratio("lite.engine.pieces_overlapped_per_req", "count/req",
          all("lite.engine.pieces_overlapped"), "lite.engine.pieces_overlapped", reqs, "requests");
  e.Ratio("lite.async.ops_per_req", "count/req", all("lite.async.ops"), "lite.async.ops", reqs,
          "requests");
  e.Ratio("lite.async.inferred_completion_ratio", "ratio", all("lite.async.inferred_completions"),
          "lite.async.inferred_completions", all("lite.async.ops"), "lite.async.ops");

  // ---- lite.rpc: RPC stack, poll and server threads.
  e.Section("lite.rpc");
  e.Ratio("lite.rpc.msgs_per_req", "count/req",
          all("lite.rpc.requests") + all("lite.rpc.replies"), "rpc requests+replies", reqs,
          "requests");
  e.Ratio("lite.rpc.retries_per_kreq", "count/kreq", all("lite.rpc.retries"), "lite.rpc.retries",
          reqs, "requests", 1000);
  auto hist = [&](const CounterSum& c, const char* name, bool sum) {
    const auto& m = sum ? c.hist_sum : c.hist_count;
    auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  };
  e.Ratio("lite.rpc.poll_batch_mean", "count", hist(all_, "lite.rpc.poll_batch", true),
          "poll_batch sum", hist(all_, "lite.rpc.poll_batch", false), "poll_batch count");
  e.Ratio("lite.poll.wakeups_per_req", "count/req", all("lite.poll.wakeups"), "lite.poll.wakeups",
          reqs, "requests");
  e.Ratio("lite.poll.vcpu_ns_per_req", "ns", all("lite.poll.cpu_ns"), "lite.poll.cpu_ns", reqs,
          "requests");

  // ---- lite.qos / lite.transport: guards.
  e.Section("lite.qos+lite.transport");
  e.Ratio("lite.qos.throttle_ns_per_req", "ns", all("lite.qos.throttle_delay_ns"),
          "lite.qos.throttle_delay_ns", reqs, "requests");
  e.Value("lite.qp.reconnects", all("lite.qp.reconnects"), "count", "(sum over nodes)");
  e.Value("lite.transport.qpc_occupancy", qpc_occupancy_end_, "count",
          "(gauge at window end, sum over nodes)");

  // ---- rnic.
  e.Section("rnic");
  const double wqes = all("lite.rnic.wqe_signaled") + all("lite.rnic.wqe_unsignaled");
  auto hit_ratio = [&](const char* name, const char* prefix) {
    const std::string p = prefix;
    e.Ratio(name, "ratio", all((p + ".hits").c_str()), (p + ".hits").c_str(),
            all((p + ".hits").c_str()) + all((p + ".misses").c_str()), "hits+misses");
  };
  e.Ratio("rnic.ops_posted_per_req", "count/req", all("rnic.ops_posted"), "rnic.ops_posted", reqs,
          "requests");
  e.Ratio("rnic.doorbells_per_wqe", "ratio", all("lite.rnic.doorbells"), "lite.rnic.doorbells",
          wqes, "wqes");
  e.Ratio("rnic.unsignaled_ratio", "ratio", all("lite.rnic.wqe_unsignaled"), "wqe_unsignaled",
          wqes, "wqes");
  e.Ratio("rnic.wqes_batched_ratio", "ratio", all("lite.rnic.wqes_batched"),
          "lite.rnic.wqes_batched", wqes, "wqes");
  hit_ratio("rnic.mpt.hit_ratio", "rnic.mpt");
  hit_ratio("rnic.qpc.hit_ratio", "rnic.qpc");

  // ---- fabric (port counters, summed over every node's port).
  e.Section("fabric");
  e.Ratio("fabric.bytes_per_req", "B/req", all("fabric.port.bytes"), "fabric.port.bytes", reqs,
          "requests");
  e.Ratio("fabric.reservations_per_req", "count/req", all("fabric.port.reservations"),
          "fabric.port.reservations", reqs, "requests");
  e.Ratio("fabric.queue_delay_ns_per_resv", "ns", all("fabric.port.queue_delay_ns"),
          "fabric.port.queue_delay_ns", all("fabric.port.reservations"), "reservations");

  // ---- lite.lat waterfall of the load nodes: stage means per op.
  struct Row {
    double count = 0;
    double e2e = 0;
    double stage[lt::telemetry::kLatStageCount] = {};
  };
  std::map<std::string, Row> rows;
  Row total;
  for (const auto& [key, sum] : load_.hist_sum) {
    std::string op, stage;
    if (!SplitLatKey(key, &op, &stage)) {
      continue;
    }
    Row& row = rows[op];
    if (stage == "e2e") {
      row.count += load_.hist_count.at(key);
      row.e2e += sum;
      total.count += load_.hist_count.at(key);
      total.e2e += sum;
      continue;
    }
    for (int s = 0; s < lt::telemetry::kLatStageCount; ++s) {
      if (stage == lt::telemetry::LatStageName(s)) {
        row.stage[s] += sum;
        total.stage[s] += sum;
      }
    }
  }
  *report += "\n== lite.lat waterfall (load nodes; stage means in ns per op) ==\n";
  *report += Format("  %-22s %9s %9s", "op", "count", "e2e");
  for (int s = 0; s < lt::telemetry::kLatStageCount; ++s) {
    *report += Format(" %9.9s", lt::telemetry::LatStageName(s));
  }
  *report += "\n";
  rows["total"] = total;
  for (const auto& [op, row] : rows) {
    if (row.count == 0) {
      continue;
    }
    *report += Format("  %-22s %9.0f %9.1f", op.c_str(), row.count, row.e2e / row.count);
    for (double st : row.stage) {
      *report += Format(" %9.1f", st / row.count);
    }
    *report += "\n";
  }
  e.Section("lite.lat");
  double stage_sum = 0;
  for (int s = 0; s < lt::telemetry::kLatStageCount; ++s) {
    const std::string name = std::string("lat.") + lt::telemetry::LatStageName(s) + "_ns";
    const double mean = total.count == 0 ? 0 : total.stage[s] / total.count;
    stage_sum += mean;
    e.Value(name, mean, "ns", "(stage mean over load-node ops)");
  }
  const double e2e_mean = total.count == 0 ? 0 : total.e2e / total.count;
  e.Value("lat.e2e_ns", e2e_mean, "ns", Format("(%.0f ops)", total.count));
  const bool conserved = std::fabs(stage_sum - e2e_mean) <= 1e-6 * std::max(1.0, e2e_mean);
  *report += Format("  check: stage means sum to %.3f ns, e2e mean %.3f ns: %s\n", stage_sum,
                    e2e_mean, conserved ? "ok" : "MISMATCH");
  if (!conserved || total.count == 0) {
    failures->push_back(Format("lite.lat stage means sum to %.3f ns but e2e mean is %.3f ns",
                               stage_sum, e2e_mean));
  }

  // ---- host: the simulator's own cost, split by thread role.
  e.Section("host");
  e.Ratio("host.load_cpu_us_per_req", "us", static_cast<double>(load_task_ns_),
          "load-thread task cpu_ns", reqs, "requests", 1e-3);
  e.Ratio("host.service_cpu_us_per_req", "us", static_cast<double>(service_task_ns_),
          "other-thread task cpu_ns", reqs, "requests", 1e-3);
  e.Ratio("host.ctx_switches_per_req", "count/req", static_cast<double>(ctxsw_),
          "rusage nvcsw+nivcsw", reqs, "requests");
}

}  // namespace appbench
