// net_mixed: zipperd in a forked child, driven from this process by
// run_client_load as a closed loop of at most 4 concurrent sessions (a
// worker starts its next session only after the previous one verified).
//
//   phase A  many short 2 -> 1 sessions, 8 KiB blocks: the per-frame path
//            and the session handshake.
//   phase B  fewer, longer sessions, 256 KiB blocks: the byte path; TCP
//            backpressure makes writers spill some blocks to disk.
#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/zipper/net_service.hpp"

namespace perfbench {

namespace znet = zipper::core::zbody::net;

void net_layer_rungs(std::uint64_t seed, std::uint64_t small_block,
                     std::uint64_t bulk_block, Report& r);  // rungs.cpp

namespace {

constexpr std::uint64_t kConcurrency = 4;
constexpr std::uint64_t kSmallBlock = 8 * 1024;
constexpr std::uint64_t kBulkBlock = 256 * 1024;

// The client loop runs on the lower half of the CPUs and the daemon loop on
// the upper half. Left to the scheduler, the two single-threaded loops are
// sometimes placed on one CPU, and every block handoff then waits out a
// scheduler time slice (~3 ms instead of ~0.06 ms): a placement lottery,
// not a property of the code under test. Two CPUs per side (rather than
// one) let each loop move off a CPU the host is stealing time from.
cpu_set_t half_of_cpus(bool upper) {
  const unsigned n = std::thread::hardware_concurrency();
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned c = 0; c < n; ++c) {
    if ((c >= n / 2) == upper) CPU_SET(c, &set);
  }
  return set;
}

void pin_client() {
  if (std::thread::hardware_concurrency() < 2) return;
  const cpu_set_t set = half_of_cpus(false);
  ::sched_setaffinity(0, sizeof(set), &set);
}

struct Daemon {
  pid_t pid = -1;
  std::uint16_t port = 0;
};

/// Forks and execs this binary in --serve mode; returns once the daemon's
/// listener is bound (the child reports its port through a pipe).
Daemon start_daemon(const std::string& self, const std::string& dir) {
  int fds[2];
  if (::pipe(fds) != 0) return {};
  // Everything the child needs is prepared before fork(): between fork and
  // exec it may only make async-signal-safe calls.
  const std::string fd = std::to_string(fds[1]);
  const bool pin = std::thread::hardware_concurrency() >= 2;
  const cpu_set_t daemon_cpu = half_of_cpus(true);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return {};
  }
  if (pid == 0) {
    ::close(fds[0]);
    if (pin) ::sched_setaffinity(0, sizeof(daemon_cpu), &daemon_cpu);
    ::execl(self.c_str(), self.c_str(), "--serve-fd", fd.c_str(), "--out-dir",
            dir.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(fds[1]);
  Daemon d;
  d.pid = pid;
  if (::read(fds[0], &d.port, sizeof(d.port)) != sizeof(d.port)) d.port = 0;
  ::close(fds[0]);
  return d;
}

/// SIGTERM, then waits up to `grace_s` for a clean exit; SIGKILL after.
/// Returns the wait status, or -1 if the daemon had to be killed.
int stop_daemon(const Daemon& d, double grace_s) {
  if (d.pid <= 0) return -1;
  ::kill(d.pid, SIGTERM);
  const auto t0 = Clock::now();
  int status = 0;
  while (seconds_since(t0) < grace_s) {
    const pid_t w = ::waitpid(d.pid, &status, WNOHANG);
    if (w == d.pid) return status;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::kill(d.pid, SIGKILL);
  ::waitpid(d.pid, &status, 0);
  return -1;
}

void dump_daemon_state(pid_t pid, const std::string& log_path) {
  std::fprintf(stderr, "perfbench: daemon %d last state:\n", static_cast<int>(pid));
  for (const char* leaf : {"status", "wchan"}) {
    std::ifstream f("/proc/" + std::to_string(pid) + "/" + leaf);
    std::string line;
    while (std::getline(f, line)) {
      if (line.rfind("State", 0) == 0 || line.rfind("Threads", 0) == 0 ||
          std::string(leaf) == "wchan") {
        std::fprintf(stderr, "  %s: %s\n", leaf, line.c_str());
      }
    }
  }
  std::ifstream log(log_path);
  std::vector<std::string> tail;
  std::string line;
  while (std::getline(log, line)) {
    tail.push_back(line);
    if (tail.size() > 20) tail.erase(tail.begin());
  }
  for (const auto& l : tail) std::fprintf(stderr, "  log: %s\n", l.c_str());
}

znet::SessionSpec session_spec(std::uint64_t block, std::uint64_t step_bytes,
                               std::uint32_t steps, std::uint64_t seed) {
  znet::SessionSpec s;
  s.producers = 2;
  s.consumers = 1;
  s.steps = steps;
  s.block_bytes = block;
  s.step_bytes = step_bytes;
  // Payload bytes are generated inside run_client_load from each BlockId;
  // the seed reaches the session only through the (inert) chaos seed.
  s.chaos_seed = seed;
  return s;
}

struct Phase {
  // Per batch.
  std::vector<double> sessions_per_s, mb_per_s, batch_p50_ms;
  std::vector<double> latency_ms;
  double seconds = 0;
  std::uint64_t sessions = 0, blocks = 0, from_network = 0, from_disk = 0;
  std::uint64_t put_retries = 0, spilled_slow = 0;
};

/// Runs fixed-size batches of sessions until `budget_s` passes.
void run_phase(const char* name, const znet::ClientOptions& co,
               double budget_s, Report& r, Phase& ph) {
  Span sp("core.zipper.net_service", std::string("phase ") + name);
  const auto t0 = Clock::now();
  do {
    znet::ClientResult res;
    {
      Span call("core.zipper.net_service", "run_client_load");
      res = znet::run_client_load(co);
    }
    r.attempted(co.sessions);
    if (res.sessions_failed > 0) {
      r.fail(std::string("net_mixed phase ") + name + ": " +
                 std::to_string(res.sessions_failed) + " sessions failed" +
                 (res.errors.empty() ? "" : ": " + res.errors.front()),
             res.sessions_failed);
    }
    r.check(res.exactly_once(),
            std::string("net_mixed phase ") + name + ": analyzed " +
                std::to_string(res.blocks_analyzed) + " of " +
                std::to_string(res.blocks_expected) + " blocks");
    ph.sessions_per_s.push_back(res.sessions_per_s());
    ph.batch_p50_ms.push_back(static_cast<double>(res.latency_p50_ns()) / 1e6);
    ph.mb_per_s.push_back(static_cast<double>(res.sessions_ok) *
                          static_cast<double>(co.spec.producers) *
                          co.spec.steps * static_cast<double>(co.spec.step_bytes) /
                          1e6 / res.duration_s);
    for (const auto ns : res.latency_ns) {
      ph.latency_ms.push_back(static_cast<double>(ns) / 1e6);
    }
    ph.seconds += res.duration_s;
    ph.sessions += res.sessions_ok;
    ph.blocks += res.blocks_analyzed;
    ph.from_network += res.blocks_from_network;
    ph.from_disk += res.blocks_from_disk;
    ph.put_retries += res.put_retries;
    ph.spilled_slow += res.blocks_spilled_slow;
  } while (seconds_since(t0) < budget_s);
}

std::string self_exe() {
  std::error_code ec;
  return std::filesystem::read_symlink("/proc/self/exe", ec).string();
}

}  // namespace

/// The whole net_mixed run. `end_to_end` = false records only the per-layer
/// metrics, for the socket leg of another workload's traced run.
static void net_mixed(const Options& o, Report& r, bool end_to_end) {
  const std::string dir = o.out_dir + "/net";
  std::filesystem::create_directories(dir + "/spill");
  const std::string exe = self_exe();
  ::signal(SIGPIPE, SIG_IGN);
  pin_client();

  // Set-up: fork until the daemon's port is ready, several times.
  std::vector<double> setup_s;
  Daemon d;
  const int setup_reps = o.smoke ? 2 : 15;
  for (int i = 0; i < setup_reps; ++i) {
    Span sp("core.zipper.net_service", "daemon fork -> port ready");
    const auto t0 = Clock::now();
    d = start_daemon(exe, dir);
    setup_s.push_back(seconds_since(t0));
    if (d.port == 0) {
      r.fail("net_mixed: daemon never reported a port");
      stop_daemon(d, 1);
      return;
    }
    if (i + 1 < setup_reps) {
      const int st = stop_daemon(d, 10);
      r.check(st >= 0 && WIFEXITED(st) && WEXITSTATUS(st) == 0,
              "net_mixed: idle daemon did not exit 0 after SIGTERM");
    }
  }
  const std::string log_path = dir + "/zipperd.log";
  Watchdog::set_hook([pid = d.pid, log_path] {
    dump_daemon_state(pid, log_path);
    ::kill(pid, SIGKILL);
    int st = 0;
    ::waitpid(pid, &st, 0);
  });

  znet::ClientOptions a;
  a.port = d.port;
  a.concurrency = kConcurrency;
  a.sessions = o.smoke ? 8 : 200;
  a.spec = session_spec(kSmallBlock, 2 * kSmallBlock, 8, o.seed);
  a.spill_root = dir + "/spill";
  znet::ClientOptions b = a;
  b.sessions = o.smoke ? 4 : 16;
  b.spec = session_spec(kBulkBlock, 4 * kBulkBlock, 4, o.seed);

  const ProcSample d0 = proc_sample(d.pid), c0 = proc_sample();
  Phase pa, pb;
  run_phase("A", a, o.seconds * 0.5, r, pa);
  // The daemon's peak through the short-session phase: per-session state
  // at 4-way fan-out. Phase B's peak depends on how many 256 KiB blocks
  // happen to be queued at once and on the allocator's mmap threshold (it
  // moved between ~15 and ~19 MB run to run), so it is reported per layer.
  const ProcSample da = proc_sample(d.pid);
  reset_peak_rss(d.pid);
  run_phase("B", b, o.seconds * 0.5, r, pb);
  const ProcSample d1 = proc_sample(d.pid), c1 = proc_sample();

  Watchdog::clear_hook();
  const int st = stop_daemon(d, 10);
  if (st < 0) dump_daemon_state(d.pid, log_path);
  r.check(st >= 0 && WIFEXITED(st) && WEXITSTATUS(st) == 0,
          "net_mixed: daemon did not exit 0 after SIGTERM (status " +
              std::to_string(st) + ")");

  const double setup = median(setup_s);
  const double sessions_per_s = fast_rate(pa.sessions_per_s);
  const double bulk_mb_per_s = fast_rate(pb.mb_per_s);
  const double block_p50_ms = fast_time(pa.batch_p50_ms);
  if (end_to_end) {
    r.put("setup_s", setup, "s");
    r.put("throughput_per_s", sessions_per_s, "1/s");
    r.put("payload_mb_per_s", bulk_mb_per_s, "MB/s");
    r.put("latency_p50_ms", block_p50_ms, "ms");
    put_latency_tail(r, pa.latency_ms);
    r.put("peak_rss_mb", da.peak_rss_mb, "MB");
  }
  std::fprintf(stderr,
               "perfbench: net_mixed phase A %llu sessions / %zu latency "
               "samples, phase B %llu sessions, %llu of %llu blocks via disk\n",
               static_cast<unsigned long long>(pa.sessions),
               pa.latency_ms.size(),
               static_cast<unsigned long long>(pb.sessions),
               static_cast<unsigned long long>(pb.from_disk),
               static_cast<unsigned long long>(pb.blocks));

  if (!o.trace) return;
  const double blocks = static_cast<double>(pa.blocks + pb.blocks);
  r.put("core.zipper.net_service.setup_s", setup, "s");
  r.put("core.zipper.net_service.sessions_per_s", sessions_per_s, "1/s");
  r.put("core.zipper.net_service.block_p50_ms", block_p50_ms, "ms");
  r.put("core.zipper.net_service.bulk_mb_per_s", bulk_mb_per_s, "MB/s");
  r.put("proc.daemon_peak_rss_mb", da.peak_rss_mb, "MB");
  r.put("core.zipper.net_service.session_ms",
        pa.sessions ? pa.seconds * kConcurrency / static_cast<double>(pa.sessions) * 1e3
                    : 0,
        "ms");
  r.put("core.zipper.net_service.bulk_block_p50_ms", median(pb.latency_ms),
        "ms");
  r.put("proc.daemon_bulk_peak_rss_mb", d1.peak_rss_mb, "MB");
  r.put("core.zipper.net_service.network_frac",
        pb.blocks ? static_cast<double>(pb.from_network) / static_cast<double>(pb.blocks)
                  : 0,
        "ratio");
  r.put("core.zipper.net_service.put_retries",
        static_cast<double>(pa.put_retries + pb.put_retries), "count");
  r.put("core.zipper.net_service.blocks_spilled_slow",
        static_cast<double>(pa.spilled_slow + pb.spilled_slow), "count");
  r.put("core.zipper.net_service.blocks_from_disk",
        static_cast<double>(pa.from_disk + pb.from_disk), "count");
  r.put("proc.daemon_cpu_us_per_block", (d1.cpu_us - d0.cpu_us) / blocks, "us");
  r.put("proc.client_cpu_us_per_block", (c1.cpu_us - c0.cpu_us) / blocks, "us");
  r.put("proc.daemon_syscalls_per_block", (d1.syscalls - d0.syscalls) / blocks,
        "count");
  r.put("proc.client_syscalls_per_block", (c1.syscalls - c0.syscalls) / blocks,
        "count");
  r.put("proc.daemon_ctx_switches_per_block",
        (d1.ctx_switches - d0.ctx_switches) / blocks, "count");
  r.put("proc.client_ctx_switches_per_block",
        (c1.ctx_switches - c0.ctx_switches) / blocks, "count");
  net_layer_rungs(o.seed, kSmallBlock, kBulkBlock, r);
}

void run_net_mixed(const Options& o, Report& r) { net_mixed(o, r, true); }

void net_socket_layers(const Options& o, Report& r) {
  Options leg = o;
  leg.trace = true;
  leg.seconds = o.smoke ? 1 : 8;
  net_mixed(leg, r, false);
}

// The daemon side of --serve-fd: bind, report the port, serve until SIGTERM.
namespace {
znet::ZipperdServer* g_server = nullptr;
void on_term(int) {
  if (g_server) g_server->request_stop();
}
}  // namespace

int serve_daemon(int port_fd, const std::string& dir) {
  znet::ServerOptions opts;
  opts.data_dir = dir + "/data";
  opts.log = std::fopen((dir + "/zipperd.log").c_str(), "a");
  try {
    znet::ZipperdServer server(std::move(opts));
    g_server = &server;
    struct sigaction sa {};
    sa.sa_handler = on_term;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);
    const std::uint16_t port = server.port();
    if (::write(port_fd, &port, sizeof(port)) != sizeof(port)) return 3;
    ::close(port_fd);
    server.run();
    g_server = nullptr;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench daemon: fatal: %s\n", e.what());
    return 2;
  }
  return 0;
}

}  // namespace perfbench
