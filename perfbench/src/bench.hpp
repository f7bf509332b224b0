// Shared plumbing for the perfbench program: options, the result report,
// in-memory span tracing, timing/percentile helpers and /proc readers.
//
// The benchmark only times calls into the library's public functions and
// reads the counters the library already exposes; every span below is
// recorded from the benchmark's own code, around those calls.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;           // tiny sizes for the self-test
  bool corrupt_expect = false;  // self-test: break a pinned expectation
  std::string out_dir = ".";    // spill dirs, daemon log, trace file
};

// ------------------------------------------------------------------ report --

/// What one run prints: metrics by name with units, plus the correctness
/// tally. Any failed check marks the run incorrect and counts as a failed
/// operation.
class Report {
 public:
  void put(const std::string& name, double value, const std::string& unit);
  /// Counts `n` operations attempted.
  void attempted(std::uint64_t n = 1) { attempted_ += n; }
  /// Records a failed correctness check (`n` failed operations).
  void fail(const std::string& why, std::uint64_t n = 1);
  /// Checks `ok`; on false records a failure with `why`.
  bool check(bool ok, const std::string& why);

  bool correct() const noexcept { return failed_ == 0 && errors_.empty(); }
  std::uint64_t attempted_count() const noexcept { return attempted_; }
  std::uint64_t failed_count() const noexcept { return failed_; }
  const std::vector<std::string>& errors() const noexcept { return errors_; }
  bool has(const std::string& name) const;
  void clear_metrics() { metrics_.clear(); }
  double get(const std::string& name) const;

  /// The result line: one JSON object, printed last on stdout.
  std::string json() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

// ----------------------------------------------------------------- tracing --

/// In-memory span recorder. Off by default; `perfbench --trace 1` turns it
/// on. Spans nest per thread (a thread-local stack gives each span its
/// parent), are kept in per-thread buffers, and are written out as a Chrome
/// trace when the run ends.
class Tracer {
 public:
  struct SpanRec {
    std::uint64_t id = 0, parent = 0;
    const char* layer = "";
    std::string name;
    std::int64_t t0_ns = 0, t1_ns = 0;
    int tid = 0;
  };

  static Tracer& instance();
  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  std::uint64_t begin(const char* layer, std::string name);
  void end(std::uint64_t id);

  /// All closed spans, merged across threads.
  std::vector<SpanRec> spans() const;
  /// Self time per layer (span minus the time its child spans cover), s.
  std::map<std::string, double> self_seconds() const;
  /// Writes a chrome://tracing / Perfetto JSON file. False on I/O error.
  bool write_chrome(const std::string& path) const;

 private:
  bool enabled_ = false;
};

/// RAII span around one call into a layer; free when tracing is off.
class Span {
 public:
  Span(const char* layer, std::string name) {
    if (Tracer::instance().enabled()) {
      id_ = Tracer::instance().begin(layer, std::move(name));
    }
  }
  ~Span() {
    if (id_) Tracer::instance().end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint64_t id_ = 0;
};

// ------------------------------------------------------------------- stats --

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// End-to-end estimators over the repetitions of one run. Interference from
/// a shared host only ever slows a repetition down, so a run reports the
/// faster quartile of its repetitions: the 25th percentile of times and the
/// 75th percentile of rates. Measured on a shared 4-vCPU host, this halved
/// the run-to-run spread of the latency medians against a plain median.
inline double fast_time(std::vector<double> v) { return quantile(std::move(v), 0.25); }
inline double fast_rate(std::vector<double> v) { return quantile(std::move(v), 0.75); }

/// Times `fn` repeatedly until `budget_s` passes (at least `min_reps`) and
/// returns the median per-call seconds.
double median_time(const std::function<void()>& fn, double budget_s,
                   int min_reps = 3);

/// Mixes a 64-bit seed with stream indices (splitmix64 finaliser).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0);

// ------------------------------------------------------------------- /proc --

struct ProcSample {
  double cpu_us = 0;             // utime + stime
  double ctx_switches = 0;       // voluntary + involuntary
  double syscalls = 0;           // /proc/<pid>/io syscr + syscw
  double peak_rss_mb = 0;        // VmHWM
  double threads = 0;            // Threads
};

/// Reads the counters of process `pid` (0 = this process).
ProcSample proc_sample(pid_t pid = 0);

/// Resets the peak-RSS mark (VmHWM) of `pid` (0 = this process), so peaks
/// can be taken per round and reported as a median.
void reset_peak_rss(pid_t pid = 0);

/// Records the tail of a latency sample (ms) next to its median: the p90
/// and p99, each only when at least ten samples lie beyond it (else 0).
void put_latency_tail(Report& r, const std::vector<double>& ms);

// -------------------------------------------------------------- watchdog --

/// Hard per-workload deadline. On expiry it runs the registered hook (the
/// net workload kills its daemon and dumps its last state there), prints a
/// failed result line and exits the process with code 3 — a benchmark must
/// report a hang, never inherit it.
class Watchdog {
 public:
  static void arm(double deadline_s, std::function<void()> on_expiry_line);
  static void set_hook(std::function<void()> hook);
  static void clear_hook();
};

// -------------------------------------------------------------- workloads --

void run_des_weak_xl(const Options& o, Report& r);
void run_des_spill_steal(const Options& o, Report& r);
void run_net_mixed(const Options& o, Report& r);
void run_inproc_stream(const Options& o, Report& r);

/// The socket path's per-layer metrics from a short net_mixed run (8 s),
/// for the traced run of a listed workload: net_mixed itself is not listed
/// in BENCHMARK.json (README.md says why), but its layers stay measured.
void net_socket_layers(const Options& o, Report& r);

/// In-run yardsticks recorded with every result.
double kernel_ns_per_event(double budget_s);
double memcpy_gb_per_s(double budget_s);

}  // namespace perfbench
