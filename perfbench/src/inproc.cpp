// inproc_stream: core::rt::Runtime with 2 producer and 2 consumer threads.
// Producers write 64 KiB blocks filled by apps::generate_block from the
// seed; consumers fold each block into a common::RunningStats. The network
// is unthrottled, so writer spill engages only when buffers really fill.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "apps/synthetic.hpp"
#include "bench.hpp"
#include "common/stats.hpp"
#include "core/rt/runtime.hpp"

namespace perfbench {

using namespace zipper;

namespace {

constexpr int kProducers = 2;
constexpr int kConsumers = 2;
constexpr std::size_t kDoubles = 8192;  // 64 KiB blocks
constexpr int kIndexPerStep = 64;

std::uint64_t block_seed(std::uint64_t seed, int p, int b) {
  return mix_seed(seed, static_cast<std::uint64_t>(p),
                  static_cast<std::uint64_t>(b));
}

core::BlockId block_id(int p, int b) {
  return core::BlockId{b / kIndexPerStep, p, b % kIndexPerStep};
}

common::RunningStats fold(std::span<const double> v) {
  common::RunningStats s;
  for (const double x : v) s.add(x);
  return s;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_stats(const common::RunningStats& a, const common::RunningStats& b) {
  return a.count() == b.count() && same_bits(a.mean(), b.mean()) &&
         same_bits(a.variance(), b.variance()) && same_bits(a.min(), b.min()) &&
         same_bits(a.max(), b.max());
}

/// Per-block reference statistics, straight from the generated data.
std::vector<common::RunningStats> reference_stats(std::uint64_t seed,
                                                  int per_producer) {
  std::vector<common::RunningStats> ref(
      static_cast<std::size_t>(kProducers * per_producer));
  std::vector<std::thread> th;
  for (int p = 0; p < kProducers; ++p) {
    th.emplace_back([&, p] {
      std::vector<double> buf(kDoubles);
      for (int b = 0; b < per_producer; ++b) {
        apps::generate_block(apps::Complexity::kLinear, buf,
                             block_seed(seed, p, b));
        ref[static_cast<std::size_t>(p * per_producer + b)] = fold(buf);
      }
    });
  }
  for (auto& t : th) t.join();
  return ref;
}

struct Round {
  double wall_s = 0;
  std::vector<double> write_s, read_s;
  std::vector<common::RunningStats> got;  // per block, by producer-major id
  std::vector<int> seen;
  std::uint64_t stall_ns = 0, wait_ns = 0, from_network = 0, from_disk = 0,
                read = 0;
  double threads = 0;
};

core::rt::Config runtime_config(const std::string& spill_dir) {
  core::rt::Config cfg;
  cfg.spill_dir = spill_dir;
  cfg.network_bandwidth = 0;  // unthrottled
  cfg.block_bytes = kDoubles * sizeof(double);
  return cfg;
}

Round run_round(core::rt::Runtime& rt, std::uint64_t seed, int per_producer) {
  Round rd;
  const std::size_t n = static_cast<std::size_t>(kProducers * per_producer);
  rd.got.resize(n);
  rd.seen.assign(n, 0);
  std::vector<std::vector<double>> write_s(kProducers), read_s(kConsumers);
  std::mutex got_mu;  // guards rd.got / rd.seen

  const auto t0 = Clock::now();
  std::vector<std::thread> th;
  for (int c = 0; c < kConsumers; ++c) {
    th.emplace_back([&, c] {
      auto& lat = read_s[static_cast<std::size_t>(c)];
      for (;;) {
        std::shared_ptr<const core::Block> blk;
        {
          Span sp("core.rt", "ConsumerEndpoint::read");
          const auto r0 = Clock::now();
          blk = rt.consumer(c).read();
          lat.push_back(seconds_since(r0));
        }
        if (!blk) break;
        const auto* v = reinterpret_cast<const double*>(blk->payload.data());
        const auto st = fold({v, blk->payload.size() / sizeof(double)});
        const auto& id = blk->header.id;
        const long long idx = static_cast<long long>(id.producer) * per_producer +
                              static_cast<long long>(id.step) * kIndexPerStep +
                              id.index;
        std::lock_guard<std::mutex> lk(got_mu);
        if (idx >= 0 && idx < static_cast<long long>(n)) {
          rd.got[static_cast<std::size_t>(idx)] = st;
          ++rd.seen[static_cast<std::size_t>(idx)];
        }
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    th.emplace_back([&, p] {
      auto& lat = write_s[static_cast<std::size_t>(p)];
      lat.reserve(static_cast<std::size_t>(per_producer));
      std::vector<double> buf(kDoubles);
      for (int b = 0; b < per_producer; ++b) {
        apps::generate_block(apps::Complexity::kLinear, buf,
                             block_seed(seed, p, b));
        Span sp("core.rt", "ProducerEndpoint::write");
        const auto w0 = Clock::now();
        rt.producer(p).write(block_id(p, b),
                             std::as_bytes(std::span<const double>(buf)));
        lat.push_back(seconds_since(w0));
      }
      Span sp("core.rt", "ProducerEndpoint::finish");
      rt.producer(p).finish();
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  rd.threads = proc_sample().threads;
  for (auto& t : th) t.join();
  rd.wall_s = seconds_since(t0);

  for (auto& v : write_s) rd.write_s.insert(rd.write_s.end(), v.begin(), v.end());
  for (auto& v : read_s) rd.read_s.insert(rd.read_s.end(), v.begin(), v.end());
  for (int p = 0; p < kProducers; ++p) rd.stall_ns += rt.producer(p).stats().stall_ns;
  for (int c = 0; c < kConsumers; ++c) {
    const auto s = rt.consumer(c).stats();
    rd.wait_ns += s.wait_ns;
    rd.from_network += s.blocks_from_network;
    rd.from_disk += s.blocks_from_disk;
    rd.read += s.blocks_read;
  }
  return rd;
}

}  // namespace

void run_inproc_stream(const Options& o, Report& r) {
  const std::string spill = o.out_dir + "/inproc/spill";
  std::filesystem::create_directories(spill);
  const int per_producer = o.smoke ? 256 : 4096;
  const double block_mb = static_cast<double>(kDoubles * sizeof(double)) / 1e6;

  const auto ref = reference_stats(o.seed, per_producer);
  common::RunningStats ref_total;
  for (const auto& s : ref) ref_total.merge(s);
  if (o.corrupt_expect) ref_total.add(1.0);

  std::vector<double> setup_s, blocks_per_s, write_ms, read_s, peak_mb;
  std::vector<double> round_write_p50_ms;
  std::vector<double> stall_ms, wait_ms;
  double threads = 0;
  std::uint64_t blocks = 0, from_network = 0, from_disk = 0;
  const auto start = Clock::now();
  const ProcSample p0 = proc_sample();
  int rounds = 0;
  do {
    std::unique_ptr<core::rt::Runtime> rt;
    {
      Span sp("core.rt", "Runtime::Runtime");
      const auto t0 = Clock::now();
      rt = std::make_unique<core::rt::Runtime>(kProducers, kConsumers,
                                               runtime_config(spill));
      setup_s.push_back(seconds_since(t0));
    }
    reset_peak_rss();
    Round rd = run_round(*rt, o.seed, per_producer);
    const double round_peak_mb = proc_sample().peak_rss_mb;
    rt.reset();
    ++rounds;

    const std::size_t n = rd.seen.size();
    r.attempted(n);
    std::uint64_t lost = 0, dup = 0, wrong = 0;
    common::RunningStats total;
    for (std::size_t i = 0; i < n; ++i) {
      if (rd.seen[i] == 0) ++lost;
      if (rd.seen[i] > 1) ++dup;
      if (rd.seen[i] == 1 && !same_stats(rd.got[i], ref[i])) ++wrong;
      total.merge(rd.got[i]);
    }
    if (lost + dup + wrong > 0) {
      r.fail("inproc_stream round " + std::to_string(rounds) + ": " +
                 std::to_string(lost) + " lost, " + std::to_string(dup) +
                 " duplicated, " + std::to_string(wrong) + " wrong blocks",
             lost + dup + wrong);
    }
    r.check(same_stats(total, ref_total),
            "inproc_stream round " + std::to_string(rounds) +
                ": merged RunningStats differ from the reference");
    // The first round warms the allocator, page cache and spill directory;
    // it is checked but not timed.
    if (rounds == 1) continue;

    blocks_per_s.push_back(static_cast<double>(n) / rd.wall_s);
    peak_mb.push_back(round_peak_mb);
    for (const double s : rd.write_s) write_ms.push_back(s * 1e3);
    round_write_p50_ms.push_back(median(rd.write_s) * 1e3);
    read_s.insert(read_s.end(), rd.read_s.begin(), rd.read_s.end());
    stall_ms.push_back(static_cast<double>(rd.stall_ns) / 1e6);
    wait_ms.push_back(static_cast<double>(rd.wait_ns) / 1e6);
    threads = std::max(threads, rd.threads);
    blocks += rd.read;
    from_network += rd.from_network;
    from_disk += rd.from_disk;
  } while (rounds < 2 || seconds_since(start) < o.seconds);
  const ProcSample p1 = proc_sample();

  // Extra construction-only repetitions keep setup_s a median of many.
  for (int i = 0; i < 15; ++i) {
    const auto t0 = Clock::now();
    core::rt::Runtime rt(kProducers, kConsumers, runtime_config(spill));
    setup_s.push_back(seconds_since(t0));
  }

  const double bps = fast_rate(blocks_per_s);
  r.put("setup_s", median(setup_s), "s");
  r.put("throughput_per_s", bps, "1/s");
  r.put("payload_mb_per_s", bps * block_mb, "MB/s");
  r.put("latency_p50_ms", fast_time(round_write_p50_ms), "ms");
  put_latency_tail(r, write_ms);
  r.put("peak_rss_mb", median(peak_mb), "MB");

  if (!o.trace) return;
  const double nb = static_cast<double>(std::max<std::uint64_t>(1, blocks));
  r.put("core.rt.read_ns_p50", median(read_s) * 1e9, "ns");
  r.put("core.rt.consumer_wait_ms", median(wait_ms), "ms");
  r.put("core.rt.stall_ms", median(stall_ms), "ms");
  r.put("core.rt.network_frac", static_cast<double>(from_network) / nb, "ratio");
  r.put("core.rt.blocks_from_disk", static_cast<double>(from_disk), "count");
  r.put("proc.os_threads", threads, "count");
  r.put("proc.cpu_us_per_block", (p1.cpu_us - p0.cpu_us) / nb, "us");
  r.put("proc.ctx_switches_per_block", (p1.ctx_switches - p0.ctx_switches) / nb,
        "count");
  // The other real-time path: the same streaming body over sockets.
  net_socket_layers(o, r);
}

}  // namespace perfbench
