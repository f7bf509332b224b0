#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

namespace perfbench {

// ------------------------------------------------------------------ report --

void Report::put(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    // JSON has no NaN/inf; a ratio over an empty sample reads as 0.
    std::fprintf(stderr, "perfbench: %s is not finite, reported as 0\n",
                 name.c_str());
    value = 0;
  }
  metrics_[name] = Metric{value, unit};
}

void Report::fail(const std::string& why, std::uint64_t n) {
  failed_ += n;
  errors_.push_back(why);
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
}

bool Report::check(bool ok, const std::string& why) {
  if (!ok) fail(why);
  return ok;
}

bool Report::has(const std::string& name) const {
  return metrics_.count(name) != 0;
}

double Report::get(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0 : it->second.value;
}

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << std::max<std::uint64_t>(1, attempted_)
     << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : metrics_) {
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

// ----------------------------------------------------------------- tracing --

namespace {

struct ThreadSpans {
  int tid = 0;
  std::vector<Tracer::SpanRec> closed;
  std::vector<Tracer::SpanRec> open;  // stack
};

std::mutex g_threads_mu;
std::vector<std::shared_ptr<ThreadSpans>> g_threads;  // guarded by g_threads_mu
std::atomic<std::uint64_t> g_next_span{1};
const Clock::time_point g_epoch = Clock::now();

ThreadSpans& local_spans() {
  thread_local std::shared_ptr<ThreadSpans> mine = [] {
    auto t = std::make_shared<ThreadSpans>();
    std::lock_guard<std::mutex> lk(g_threads_mu);
    t->tid = static_cast<int>(g_threads.size());
    g_threads.push_back(t);
    return t;
  }();
  return *mine;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

std::uint64_t Tracer::begin(const char* layer, std::string name) {
  ThreadSpans& ts = local_spans();
  SpanRec s;
  s.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  s.parent = ts.open.empty() ? 0 : ts.open.back().id;
  s.layer = layer;
  s.name = std::move(name);
  s.tid = ts.tid;
  s.t0_ns = now_ns();
  ts.open.push_back(std::move(s));
  return ts.open.back().id;
}

void Tracer::end(std::uint64_t id) {
  ThreadSpans& ts = local_spans();
  if (ts.open.empty() || ts.open.back().id != id) return;  // mis-nested
  SpanRec s = std::move(ts.open.back());
  ts.open.pop_back();
  s.t1_ns = now_ns();
  ts.closed.push_back(std::move(s));
}

// Readers run after every traced thread has been joined.
std::vector<Tracer::SpanRec> Tracer::spans() const {
  std::vector<SpanRec> out;
  std::lock_guard<std::mutex> lk(g_threads_mu);
  for (const auto& t : g_threads) {
    out.insert(out.end(), t->closed.begin(), t->closed.end());
  }
  return out;
}

std::map<std::string, double> Tracer::self_seconds() const {
  const auto all = spans();
  std::map<std::uint64_t, std::int64_t> child_ns;
  for (const auto& s : all) {
    if (s.parent) child_ns[s.parent] += s.t1_ns - s.t0_ns;
  }
  std::map<std::string, double> out;
  for (const auto& s : all) {
    const auto it = child_ns.find(s.id);
    const std::int64_t self =
        (s.t1_ns - s.t0_ns) - (it == child_ns.end() ? 0 : it->second);
    out[s.layer] += static_cast<double>(std::max<std::int64_t>(0, self)) / 1e9;
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\": [\n";
  bool first = true;
  for (const auto& s : spans()) {
    f << (first ? "" : ",\n") << "{\"name\": \"" << s.name
      << "\", \"cat\": \"" << s.layer << "\", \"ph\": \"X\", \"ts\": "
      << static_cast<double>(s.t0_ns) / 1e3
      << ", \"dur\": " << static_cast<double>(s.t1_ns - s.t0_ns) / 1e3
      << ", \"pid\": 1, \"tid\": " << s.tid << ", \"args\": {\"id\": " << s.id
      << ", \"parent\": " << s.parent << "}}";
    first = false;
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

// ------------------------------------------------------------------- stats --

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1 - frac) + v[hi] * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double median_time(const std::function<void()>& fn, double budget_s,
                   int min_reps) {
  std::vector<double> t;
  const auto start = Clock::now();
  while (static_cast<int>(t.size()) < min_reps ||
         seconds_since(start) < budget_s) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0));
  }
  return median(std::move(t));
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (a + 1) +
                    0xBF58476D1CE4E5B9ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ------------------------------------------------------------------- /proc --

namespace {

std::string proc_path(pid_t pid, const char* leaf) {
  return (pid == 0 ? std::string("/proc/self/")
                   : "/proc/" + std::to_string(pid) + "/") +
         leaf;
}

double field_after(const std::string& text, const char* key) {
  const auto pos = text.find(key);
  if (pos == std::string::npos) return 0;
  return std::strtod(text.c_str() + pos + std::strlen(key), nullptr);
}

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

}  // namespace

ProcSample proc_sample(pid_t pid) {
  ProcSample s;
  const std::string status = slurp(proc_path(pid, "status"));
  s.peak_rss_mb = field_after(status, "VmHWM:") / 1024.0;
  s.threads = field_after(status, "Threads:");
  const std::string io = slurp(proc_path(pid, "io"));
  s.syscalls = field_after(io, "syscr:") + field_after(io, "syscw:");
  if (pid == 0) {
    // getrusage also counts threads that have already exited.
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    s.cpu_us = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
               static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
    s.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
    return s;
  }
  // Another process: sum the live threads' switch counts (status shows only
  // the main thread's).
  std::error_code ec;
  for (const auto& task : std::filesystem::directory_iterator(
           proc_path(pid, "task"), ec)) {
    const std::string ts = slurp(task.path().string() + "/status");
    s.ctx_switches += field_after(ts, "\nvoluntary_ctxt_switches:") +
                      field_after(ts, "nonvoluntary_ctxt_switches:");
  }
  // /proc/<pid>/stat: utime and stime are fields 14 and 15, after the
  // parenthesised command name (which may contain spaces).
  const std::string stat = slurp(proc_path(pid, "stat"));
  const auto rp = stat.rfind(')');
  if (rp != std::string::npos) {
    std::istringstream is(stat.substr(rp + 2));
    std::string tok;
    double utime = 0, stime = 0;
    for (int field = 3; is >> tok; ++field) {
      if (field == 14) utime = std::strtod(tok.c_str(), nullptr);
      if (field == 15) {
        stime = std::strtod(tok.c_str(), nullptr);
        break;
      }
    }
    const double hz = static_cast<double>(::sysconf(_SC_CLK_TCK));
    s.cpu_us = (utime + stime) / hz * 1e6;
  }
  return s;
}

void reset_peak_rss(pid_t pid) {
  std::ofstream f(proc_path(pid, "clear_refs"));
  f << "5";
}

void put_latency_tail(Report& r, const std::vector<double>& ms) {
  const double n = static_cast<double>(ms.size());
  r.put("bench.latency_samples", n, "count");
  r.put("bench.latency_p90_ms", n * 0.1 >= 10 ? quantile(ms, 0.90) : 0, "ms");
  r.put("bench.latency_p99_ms", n * 0.01 >= 10 ? quantile(ms, 0.99) : 0, "ms");
}

// -------------------------------------------------------------- watchdog --

namespace {

struct WatchdogState {
  std::mutex mu;
  std::condition_variable cv;
  bool disarmed = false;
  std::function<void()> hook;
  std::thread th;
  ~WatchdogState() {
    {
      std::lock_guard<std::mutex> lk(mu);
      disarmed = true;
    }
    cv.notify_all();
    if (th.joinable()) th.join();
  }
};

WatchdogState& wd() {
  static WatchdogState s;
  return s;
}

}  // namespace

void Watchdog::arm(double deadline_s, std::function<void()> on_expiry_line) {
  WatchdogState& s = wd();
  s.th = std::thread([deadline_s, line = std::move(on_expiry_line)] {
    WatchdogState& st = wd();
    std::unique_lock<std::mutex> lk(st.mu);
    const bool disarmed = st.cv.wait_for(
        lk, std::chrono::duration<double>(deadline_s),
        [&] { return st.disarmed; });
    if (disarmed) return;
    std::fprintf(stderr, "perfbench: deadline of %.0f s expired\n", deadline_s);
    auto hook = st.hook;
    lk.unlock();
    if (hook) hook();
    line();
    std::fflush(stdout);
    std::fflush(stderr);
    ::_exit(3);
  });
}

void Watchdog::set_hook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lk(wd().mu);
  wd().hook = std::move(hook);
}

void Watchdog::clear_hook() { set_hook(nullptr); }

}  // namespace perfbench
