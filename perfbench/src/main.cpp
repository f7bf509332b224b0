// perfbench — the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--smoke] [--corrupt-expect] [--list-metrics]
//
// Runs one named workload through the library's public entry points for
// about S seconds, checks its outputs, and prints as the last stdout line
// one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; --trace 1 is the separate
// traced run that reports the per-layer ones and writes its spans to
// DIR/trace-<workload>-seed<N>.json. Exit status is 0 only when every
// correctness check passed. perfbench/README.md documents every metric.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace perfbench {
int serve_daemon(int port_fd, const std::string& dir);  // net.cpp
}  // namespace perfbench

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every workload reports every end-to-end metric; README.md gives what
// each means per workload.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"payload_mb_per_s", "MB/s"},
    {"latency_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

// Per-layer metrics; a layer a workload does not exercise reports 0.
constexpr MetricDef kPerLayer[] = {
    {"exp.plan_s", "s"},
    {"workflow.cluster_build_s", "s"},
    {"transports.coupling_build_s", "s"},
    {"workflow.run_s", "s"},
    {"des.sharded_wall_s", "s"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.events_per_block", "count"},
    {"sim.kernel_ns_per_event", "ns"},
    {"sim.scenario_over_kernel", "x"},
    {"sim.channel_ns_per_msg", "ns"},
    {"net.fabric_ns_per_transfer", "ns"},
    {"mpi.ns_per_message", "ns"},
    {"core.zipper.vt_ns_per_block", "ns"},
    {"pfs.ns_per_mib_written", "ns"},
    {"pfs.bytes_written", "B"},
    {"pfs.bytes_read", "B"},
    {"core.zipper.blocks_stolen", "count"},
    {"core.sched.consumer_steals", "count"},
    {"exp.partition_fallback", "count"},
    {"sim.sharded.shards", "count"},
    {"sim.sharded.windows", "count"},
    {"sim.sharded.messages", "count"},
    {"sim.sharded.sync_wall_s", "s"},
    {"sim.sharded.speedup", "x"},
    {"sim.sharded.efficiency", "ratio"},
    {"core.zipper.net_frame.encode_ns_per_kib", "ns"},
    {"core.zipper.net_frame.decode_ns_per_kib", "ns"},
    {"core.exec.epoll.handoff_ns", "ns"},
    {"core.zipper.net_service.setup_s", "s"},
    {"core.zipper.net_service.sessions_per_s", "1/s"},
    {"core.zipper.net_service.block_p50_ms", "ms"},
    {"core.zipper.net_service.bulk_mb_per_s", "MB/s"},
    {"core.zipper.net_service.session_ms", "ms"},
    {"core.zipper.net_service.bulk_block_p50_ms", "ms"},
    {"core.zipper.net_service.network_frac", "ratio"},
    {"core.zipper.net_service.put_retries", "count"},
    {"core.zipper.net_service.blocks_spilled_slow", "count"},
    {"core.zipper.net_service.blocks_from_disk", "count"},
    {"proc.daemon_peak_rss_mb", "MB"},
    {"proc.daemon_bulk_peak_rss_mb", "MB"},
    {"proc.daemon_cpu_us_per_block", "us"},
    {"proc.client_cpu_us_per_block", "us"},
    {"proc.daemon_syscalls_per_block", "count"},
    {"proc.client_syscalls_per_block", "count"},
    {"proc.daemon_ctx_switches_per_block", "count"},
    {"proc.client_ctx_switches_per_block", "count"},
    {"proc.ctx_switches_per_block", "count"},
    {"core.rt.read_ns_p50", "ns"},
    {"core.rt.consumer_wait_ms", "ms"},
    {"core.rt.stall_ms", "ms"},
    {"core.rt.network_frac", "ratio"},
    {"core.rt.blocks_from_disk", "count"},
    {"proc.os_threads", "count"},
    {"proc.cpu_us_per_block", "us"},
    {"host.memcpy_gb_per_s", "GB/s"},
    {"host.nproc", "count"},
    {"bench.latency_samples", "count"},
    {"bench.latency_p90_ms", "ms"},
    {"bench.latency_p99_ms", "ms"},
    {"bench.trace_overhead_frac", "ratio"},
    {"bench.failed_frac", "ratio"},
};

struct WorkloadDef {
  const char* name;
  void (*run)(const Options&, Report&);
};

constexpr WorkloadDef kWorkloads[] = {
    {"des_weak_xl", run_des_weak_xl},
    {"des_spill_steal", run_des_spill_steal},
    {"net_mixed", run_net_mixed},
    {"inproc_stream", run_inproc_stream},
};

// Hard per-run deadline, inside the 180 s one benchmark run may take.
constexpr double kDeadlineS = 165;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n"
               "          [--out-dir DIR] [--smoke] [--corrupt-expect]\n"
               "       %s --list-metrics\n"
               "workloads:",
               argv0, argv0);
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto c = line.find(':');
      return c == std::string::npos ? line : line.substr(c + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

/// Runs the workload; a thrown exception is a failed run, not a crash.
void run_guarded(const WorkloadDef& w, const Options& o, Report& r) {
  try {
    w.run(o, r);
  } catch (const std::exception& e) {
    r.fail(std::string(w.name) + ": exception: " + e.what());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_trace = false, list = false;
  int serve_fd = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool next = i + 1 < argc;
    if (a == "--workload" && next) {
      o.workload = argv[++i];
    } else if (a == "--seed" && next) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds" && next) {
      o.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && next) {
      o.trace = std::atoi(argv[++i]) != 0;
      have_trace = true;
    } else if (a == "--out-dir" && next) {
      o.out_dir = argv[++i];
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--corrupt-expect") {
      o.corrupt_expect = true;
    } else if (a == "--list-metrics") {
      list = true;
    } else if (a == "--serve-fd" && next) {
      serve_fd = std::atoi(argv[++i]);
    } else {
      return usage(argv[0]);
    }
  }
  if (serve_fd >= 0) return serve_daemon(serve_fd, o.out_dir);
  if (list) {
    for (const auto& m : kEndToEnd) std::printf("end_to_end %s %s\n", m.name, m.unit);
    for (const auto& m : kPerLayer) std::printf("per_layer %s %s\n", m.name, m.unit);
    return 0;
  }
  const WorkloadDef* wl = nullptr;
  for (const auto& w : kWorkloads) {
    if (o.workload == w.name) wl = &w;
  }
  if (!wl || !have_seed || !have_trace || !(o.seconds > 0)) return usage(argv[0]);
  std::filesystem::create_directories(o.out_dir);
  // Start from a quiet disk: write-back left over from an earlier process
  // would otherwise stall this run's spill-file and session-directory I/O.
  ::sync();

  Watchdog::arm(kDeadlineS, [] {
    std::printf("{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
                "\"metrics\": {}}\n");
  });

  Report r;
  if (!o.trace) {
    run_guarded(*wl, o, r);
  } else {
    // The traced run: half the time untraced, half traced, so the tracing
    // overhead is measured within one run on the same inputs.
    Options half = o;
    half.seconds = o.seconds / 2;
    Options untraced_half = half;
    untraced_half.trace = false;
    Report untraced;
    run_guarded(*wl, untraced_half, untraced);
    Tracer::instance().set_enabled(true);
    {
      Span sp("bench", o.workload);
      run_guarded(*wl, half, r);
    }
    Tracer::instance().set_enabled(false);
    for (const auto& e : untraced.errors()) r.fail("untraced half: " + e);
    const double traced_tp = r.get("throughput_per_s");
    r.put("bench.trace_overhead_frac",
          traced_tp > 0 ? untraced.get("throughput_per_s") / traced_tp - 1 : 0,
          "ratio");
    const std::string path = o.out_dir + "/trace-" + o.workload + "-seed" +
                             std::to_string(o.seed) + ".json";
    r.check(Tracer::instance().write_chrome(path), "cannot write " + path);
    for (const auto& [layer, s] : Tracer::instance().self_seconds()) {
      std::printf("trace self_s %-26s %.6f\n", layer.c_str(), s);
    }
    std::printf("trace spans written to %s\n", path.c_str());
  }
  // Host fingerprint and in-run yardsticks, recorded with every result, and
  // the latency tail next to the median the result line carries.
  const double kernel_ns = kernel_ns_per_event(0.2);
  const double memcpy_gbs = memcpy_gb_per_s(0.1);
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf(
      "{\"host\": {\"cpu_model\": \"%s\", \"nproc\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"kernel_ns_per_event\": %.4f, "
      "\"memcpy_gb_per_s\": %.3f}, \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"latency\": {\"samples\": %.0f, "
      "\"p50_ms\": %.6g, \"p90_ms\": %.6g, \"p99_ms\": %.6g}}\n",
      json_escape(cpu_model()).c_str(), nproc, PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, kernel_ns, memcpy_gbs, o.workload.c_str(),
      static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0,
      r.get("bench.latency_samples"), r.get("latency_p50_ms"),
      r.get("bench.latency_p90_ms"), r.get("bench.latency_p99_ms"));

  if (o.trace) {
    r.put("sim.kernel_ns_per_event", kernel_ns, "ns");
    r.put("host.memcpy_gb_per_s", memcpy_gbs, "GB/s");
    r.put("host.nproc", nproc, "count");
    if (r.get("sim.ns_per_event") > 0) {
      r.put("sim.scenario_over_kernel", r.get("sim.ns_per_event") / kernel_ns, "x");
    }
    r.put("bench.failed_frac",
          static_cast<double>(r.failed_count()) /
              static_cast<double>(std::max<std::uint64_t>(1, r.attempted_count())),
          "ratio");
  }
  // Only the declared names reach the result line.
  Report out = r;
  out.clear_metrics();
  if (!o.trace) {
    for (const auto& m : kEndToEnd) {
      out.check(r.has(m.name) && r.get(m.name) > 0,
                std::string("end-to-end metric missing or zero: ") + m.name);
      out.put(m.name, r.get(m.name), m.unit);
    }
  } else {
    for (const auto& m : kPerLayer) out.put(m.name, r.get(m.name), m.unit);
  }
  std::printf("%s\n", out.json().c_str());
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}
