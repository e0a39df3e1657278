// Application-level benchmark binary for the LITE reproduction.
//
//   appbench --workload kv-rpc|log-commit|rdma-batch --seed N
//                   --seconds S --trace 0|1
//                   [--spans-out PATH]
//   appbench --workload W --seed N --stream-digest
//
// A run repeats whole repetitions (fresh cluster, set-up, one measured
// window over the pre-generated stream, quiesce checks) until --seconds of
// host time have passed, and reports medians across them. With --trace 1
// every second repetition is traced and the per-layer metrics come from
// those; the others give the untraced baseline for trace.overhead_frac.
// --spans-out keeps the first traced repetition's spans of its first
// kSpansKept requests per thread as CSV. The last line is "RESULT {json}"
// with every metric computed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "appbench/layers.h"
#include "appbench/measure.h"
#include "appbench/stream.h"
#include "appbench/workloads.h"

namespace appbench {
namespace {

constexpr int kMinReps = 3;
constexpr uint32_t kSpansKept = 2000;

struct Args {
  Workload workload = Workload::kKvRpc;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool stream_digest = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--stream-digest") {
      a->stream_digest = true;
      continue;
    }
    if (value == nullptr) {
      return false;
    }
    ++i;
    if (flag == "--workload") {
      have_workload = ParseWorkload(value, &a->workload);
      if (!have_workload) {
        return false;
      }
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value, nullptr);
    } else if (flag == "--spans-out") {
      a->spans_out = value;
    } else if (flag == "--trace") {
      a->trace = std::strcmp(value, "1") == 0;
    } else {
      return false;
    }
  }
  return have_workload;
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h = (h ^ c) * 0x100000001b3ull;
  }
  return h;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

// Per-repetition end-to-end figures of an untraced repetition.
struct RepFigures {
  double p50_us, p99_us, kreq_per_vsec, host_us_per_req, host_cpu_us_per_req;
};

RepFigures Figures(RepResult* rep) {
  const double reqs = static_cast<double>(std::max<uint64_t>(rep->attempted, 1));
  RepFigures f{};
  f.p50_us = Percentile(&rep->latency_ns, 50) / 1000.0;
  f.p99_us = Percentile(&rep->latency_ns, 99) / 1000.0;
  f.kreq_per_vsec =
      rep->makespan_ns == 0 ? 0 : reqs * 1e6 / static_cast<double>(rep->makespan_ns);
  f.host_us_per_req = static_cast<double>(rep->host_ns) / reqs / 1000.0;
  f.host_cpu_us_per_req = static_cast<double>(rep->cpu_ns) / reqs / 1000.0;
  return f;
}

int Run(const Args& args) {
  if (args.stream_digest) {
    const std::string bytes = SerializeStream(args.workload, args.seed);
    std::printf("stream %s seed=%llu bytes=%zu fnv1a=%016llx\n", WorkloadName(args.workload),
                static_cast<unsigned long long>(args.seed), bytes.size(),
                static_cast<unsigned long long>(Fnv1a(bytes)));
    return 0;
  }

  const Streams streams = MakeStreams(args.workload, args.seed);
  const uint64_t run_start = HostNs();
  std::vector<RepFigures> untraced, traced;
  std::vector<double> setup_s, cluster_s, services_s, populate_s, minflt, threads;
  uint64_t attempted = 0, failed = 0, samples = 0, beyond_p99 = 0;
  std::vector<std::string> failures;
  LayerStats layers;

  for (int rep_no = 0;; ++rep_no) {
    const bool trace_this = args.trace && rep_no % 2 == 1;
    RepResult rep = RunRep(streams, trace_this);
    const RepFigures f = Figures(&rep);
    attempted += rep.attempted;
    failed += rep.failed + rep.check_failures.size();
    for (const std::string& line : rep.check_failures) {
      failures.push_back("rep " + std::to_string(rep_no) + ": " + line);
    }
    setup_s.push_back(rep.setup_s);
    cluster_s.push_back(rep.cluster_s);
    services_s.push_back(rep.services_s);
    populate_s.push_back(rep.populate_s);
    minflt.push_back(static_cast<double>(rep.setup_minflt));
    threads.push_back(rep.threads_after_setup);
    std::printf("rep %d traced=%d reqs=%llu failed=%llu setup_s=%.4f p50_us=%.3f p99_us=%.3f "
                "kreq_per_vsec=%.2f host_us_per_req=%.3f host_cpu_us_per_req=%.3f\n",
                rep_no, trace_this ? 1 : 0, static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed), rep.setup_s, f.p50_us, f.p99_us,
                f.kreq_per_vsec, f.host_us_per_req, f.host_cpu_us_per_req);
    std::fflush(stdout);
    if (trace_this) {
      if (traced.empty() && !args.spans_out.empty() &&
          !WriteSpansCsv(rep, args.spans_out, kSpansKept)) {
        std::fprintf(stderr, "appbench: cannot write %s\n", args.spans_out.c_str());
      }
      layers.Add(rep);
      traced.push_back(f);
    } else {
      untraced.push_back(f);
      const size_t n = rep.latency_ns.size();
      samples += n;
      beyond_p99 += n - static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n)));
    }
    const bool time_up = static_cast<double>(HostNs() - run_start) / 1e9 >= args.seconds;
    if (time_up && rep_no + 1 >= kMinReps && (!args.trace || !traced.empty())) {
      break;
    }
    if (rep.attempted == 0) {
      break;  // Set-up failed; repeating it will not help.
    }
  }

  auto median_of = [](const std::vector<RepFigures>& reps, double RepFigures::*field) {
    std::vector<double> v;
    for (const RepFigures& f : reps) {
      v.push_back(f.*field);
    }
    return Median(v);
  };
  Metrics metrics;
  metrics.push_back({"req_p50_us", median_of(untraced, &RepFigures::p50_us), "us"});
  metrics.push_back({"req_p99_us", median_of(untraced, &RepFigures::p99_us), "us"});
  metrics.push_back({"kreq_per_vsec", median_of(untraced, &RepFigures::kreq_per_vsec), "kreq/s"});
  metrics.push_back({"host_us_per_req", median_of(untraced, &RepFigures::host_us_per_req), "us"});
  metrics.push_back(
      {"host_cpu_us_per_req", median_of(untraced, &RepFigures::host_cpu_us_per_req), "us"});
  metrics.push_back({"host_peak_rss_mb", static_cast<double>(PeakRssKb()) / 1024.0, "MB"});
  metrics.push_back({"host_threads", Median(threads), "count"});
  metrics.push_back({"setup_s", Median(setup_s), "s"});
  const double failed_frac =
      attempted == 0 ? 1.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  metrics.push_back({"failed_frac", failed_frac, "ratio"});
  std::printf("latency samples=%llu beyond_p99=%llu (median of %zu untraced repetitions)\n",
              static_cast<unsigned long long>(samples), static_cast<unsigned long long>(beyond_p99),
              untraced.size());

  if (args.trace) {
    std::string report;
    layers.Finish(&metrics, &report, &failures);
    std::fputs(report.c_str(), stdout);
    const double traced_host = median_of(traced, &RepFigures::host_us_per_req);
    const double untraced_host = median_of(untraced, &RepFigures::host_us_per_req);
    std::vector<Metric> extra = {
        {"host.minor_faults_setup", Median(minflt), "count"},
        {"setup.cluster_s", Median(cluster_s), "s"},
        {"setup.services_s", Median(services_s), "s"},
        {"setup.populate_s", Median(populate_s), "s"},
        {"trace.overhead_frac", untraced_host == 0 ? 0 : traced_host / untraced_host - 1, "ratio"},
    };
    std::printf("\n== layer host+setup (medians over all repetitions) ==\n");
    for (const Metric& m : extra) {
      std::printf("  %-36s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
      metrics.push_back(m);
    }
  }

  for (const std::string& line : failures) {
    std::printf("CHECK FAILED: %s\n", line.c_str());
  }
  const bool correct = failed == 0 && failures.empty() && attempted > 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + JsonEscape(metrics[i].name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + JsonEscape(metrics[i].unit) + "\"}";
  }
  json += "}}";
  std::printf("RESULT %s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace appbench

int main(int argc, char** argv) {
  appbench::Args args;
  if (!appbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload kv-rpc|log-commit|rdma-batch --seed N "
                 "[--seconds S] [--trace 0|1] [--spans-out PATH] [--stream-digest]\n",
                 argv[0]);
    return 2;
  }
  try {
    return appbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "appbench: %s\n", e.what());
    return 1;
  }
}
