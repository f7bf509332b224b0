// Tests for the real in-process Zipper runtime (application threads around
// one epoll loop thread): end-to-end delivery and integrity over both
// channels, work-stealing behaviour, Preserve mode durability, termination,
// failure propagation, stress.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "core/rt/runtime.hpp"
#include "trace/timeline.hpp"

namespace fs = std::filesystem;
using namespace zipper::core;
using namespace zipper::core::rt;

namespace {

struct TempDirs {
  fs::path spill, preserve;
  TempDirs() {
    const auto base = fs::temp_directory_path() /
                      ("zipper_test_" + std::to_string(::getpid()) + "_" +
                       std::to_string(counter()++));
    spill = base / "spill";
    preserve = base / "preserve";
    fs::create_directories(spill);
    fs::create_directories(preserve);
  }
  ~TempDirs() {
    std::error_code ec;
    fs::remove_all(spill.parent_path(), ec);
  }
  static std::atomic<int>& counter() {
    static std::atomic<int> c{0};
    return c;
  }
};

std::vector<std::byte> make_payload(std::uint64_t seed, std::size_t n) {
  std::vector<std::byte> out(n);
  zipper::common::Xoshiro256 rng(seed);
  for (auto& b : out) b = static_cast<std::byte>(rng() & 0xFF);
  return out;
}

std::size_t os_threads() {
  std::size_t n = 0;
  for (const auto& e : fs::directory_iterator("/proc/self/task")) {
    (void)e;
    ++n;
  }
  return n;
}

Config base_config(const TempDirs& dirs) {
  Config cfg;
  cfg.spill_dir = dirs.spill;
  cfg.preserve_dir = dirs.preserve;
  cfg.producer_buffer_blocks = 8;
  cfg.high_water = 0.5;
  return cfg;
}

}  // namespace

TEST(RtRuntime, SingleBlockRoundTrip) {
  TempDirs dirs;
  Runtime rt(1, 1, base_config(dirs));
  const auto payload = make_payload(1, 4096);
  rt.producer(0).write(BlockId{0, 0, 0}, payload);
  rt.producer(0).finish();
  auto block = rt.consumer(0).read();
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->header.id, (BlockId{0, 0, 0}));
  EXPECT_EQ(block->payload, payload);
  EXPECT_EQ(rt.consumer(0).read(), nullptr);  // end of stream
}

TEST(RtRuntime, PayloadIntegrityManyBlocks) {
  TempDirs dirs;
  Runtime rt(1, 1, base_config(dirs));
  std::map<BlockId, std::uint64_t> checksums;
  for (int s = 0; s < 5; ++s) {
    for (int b = 0; b < 10; ++b) {
      const BlockId id{s, 0, b};
      auto payload = make_payload(static_cast<std::uint64_t>(s * 100 + b), 8192);
      checksums[id] = zipper::common::fnv1a(payload);
      rt.producer(0).write(id, payload);
    }
  }
  rt.producer(0).finish();
  int received = 0;
  while (auto block = rt.consumer(0).read()) {
    ASSERT_TRUE(checksums.contains(block->header.id));
    EXPECT_EQ(zipper::common::fnv1a(block->payload), checksums[block->header.id])
        << "corrupt payload for " << block->header.id.to_string();
    ++received;
  }
  EXPECT_EQ(received, 50);
}

TEST(RtRuntime, EveryBlockDeliveredExactlyOnceMultiProducerMultiConsumer) {
  TempDirs dirs;
  const int P = 4, Q = 2, steps = 6, blocks = 8;
  Runtime rt(P, Q, base_config(dirs));

  std::vector<std::thread> producers;
  for (int p = 0; p < P; ++p) {
    producers.emplace_back([&, p] {
      auto payload = make_payload(static_cast<std::uint64_t>(p), 2048);
      for (int s = 0; s < steps; ++s) {
        for (int b = 0; b < blocks; ++b) {
          rt.producer(p).write(BlockId{s, p, b}, payload);
        }
      }
      rt.producer(p).finish();
    });
  }

  std::mutex m;
  std::map<std::string, int> seen;
  std::vector<std::thread> consumers;
  for (int c = 0; c < Q; ++c) {
    consumers.emplace_back([&, c] {
      while (auto block = rt.consumer(c).read()) {
        std::lock_guard lk(m);
        ++seen[block->header.id.to_string()];
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(seen.size(), static_cast<std::size_t>(P * steps * blocks));
  for (const auto& [id, n] : seen) EXPECT_EQ(n, 1) << id << " delivered " << n << "x";
}

TEST(RtRuntime, StealActivatesUnderBackpressure) {
  TempDirs dirs;
  Config cfg = base_config(dirs);
  cfg.producer_buffer_blocks = 4;
  cfg.high_water = 0.5;
  cfg.network_bandwidth = 2e6;  // 2 MB/s: sender is deliberately slow
  Runtime rt(1, 1, cfg);

  const auto payload = make_payload(7, 64 * 1024);
  std::thread consumer([&] {
    while (rt.consumer(0).read()) {
    }
  });
  for (int b = 0; b < 40; ++b) rt.producer(0).write(BlockId{0, 0, b}, payload);
  rt.producer(0).finish();
  consumer.join();

  const auto ps = rt.producer(0).stats();
  EXPECT_EQ(ps.blocks_written, 40u);
  EXPECT_GT(ps.blocks_stolen, 0u) << "writer thread never stole despite backpressure";
  EXPECT_EQ(ps.blocks_sent + ps.blocks_stolen, 40u);
  const auto cs = rt.consumer(0).stats();
  EXPECT_EQ(cs.blocks_from_disk, ps.blocks_stolen);
  EXPECT_EQ(cs.blocks_read, 40u);
}

TEST(RtRuntime, StealDisabledSendsEverythingViaNetwork) {
  TempDirs dirs;
  Config cfg = base_config(dirs);
  cfg.enable_steal = false;
  cfg.network_bandwidth = 5e6;
  Runtime rt(1, 1, cfg);
  const auto payload = make_payload(3, 32 * 1024);
  std::thread consumer([&] {
    while (rt.consumer(0).read()) {
    }
  });
  for (int b = 0; b < 20; ++b) rt.producer(0).write(BlockId{0, 0, b}, payload);
  rt.producer(0).finish();
  consumer.join();
  EXPECT_EQ(rt.producer(0).stats().blocks_stolen, 0u);
  EXPECT_EQ(rt.producer(0).stats().blocks_sent, 20u);
}

TEST(RtRuntime, DualChannelReducesProducerStall) {
  // The paper's headline producer-side effect: with a slow network and a
  // bounded buffer, enabling the writer thread must cut write() stall time.
  auto run = [](bool steal) {
    TempDirs dirs;
    Config cfg;
    cfg.spill_dir = dirs.spill;
    cfg.producer_buffer_blocks = 4;
    cfg.high_water = 0.5;
    cfg.enable_steal = steal;
    cfg.network_bandwidth = 4e6;
    Runtime rt(1, 1, cfg);
    std::thread consumer([&] {
      while (rt.consumer(0).read()) {
      }
    });
    const auto payload = make_payload(11, 64 * 1024);
    for (int b = 0; b < 32; ++b) rt.producer(0).write(BlockId{0, 0, b}, payload);
    const auto stall = rt.producer(0).stats().stall_ns;
    rt.producer(0).finish();
    consumer.join();
    return stall;
  };
  const auto stall_without = run(false);
  const auto stall_with = run(true);
  EXPECT_LT(static_cast<double>(stall_with),
            0.8 * static_cast<double>(stall_without))
      << "work stealing failed to reduce producer stall ("
      << stall_with / 1e6 << "ms vs " << stall_without / 1e6 << "ms)";
}

TEST(RtRuntime, PreserveModePersistsEveryBlock) {
  TempDirs dirs;
  Config cfg = base_config(dirs);
  cfg.mode = Mode::kPreserve;
  cfg.network_bandwidth = 8e6;  // force some blocks over both channels
  cfg.producer_buffer_blocks = 4;
  const int total = 24;
  {
    Runtime rt(1, 1, cfg);
    std::thread consumer([&] {
      while (rt.consumer(0).read()) {
      }
    });
    const auto payload = make_payload(5, 32 * 1024);
    for (int b = 0; b < total; ++b) rt.producer(0).write(BlockId{0, 0, b}, payload);
    rt.producer(0).finish();
    consumer.join();
    rt.wait_idle();
    EXPECT_EQ(rt.consumer(0).stats().blocks_preserved, static_cast<std::uint64_t>(total));
  }
  // Every block must exist in the preserve dir, with full payload.
  int files = 0;
  for (const auto& e : fs::directory_iterator(dirs.preserve)) {
    EXPECT_EQ(fs::file_size(e.path()), 32u * 1024u);
    ++files;
  }
  EXPECT_EQ(files, total);
}

TEST(RtRuntime, NoPreserveLeavesNoSpillFilesBehind) {
  TempDirs dirs;
  Config cfg = base_config(dirs);
  cfg.network_bandwidth = 4e6;
  cfg.producer_buffer_blocks = 4;
  {
    Runtime rt(1, 1, cfg);
    std::thread consumer([&] {
      while (rt.consumer(0).read()) {
      }
    });
    const auto payload = make_payload(9, 64 * 1024);
    for (int b = 0; b < 24; ++b) rt.producer(0).write(BlockId{0, 0, b}, payload);
    rt.producer(0).finish();
    consumer.join();
    EXPECT_GT(rt.producer(0).stats().blocks_stolen, 0u);  // spill happened
  }
  EXPECT_TRUE(fs::is_empty(dirs.spill)) << "spill files leaked in No-Preserve mode";
}

TEST(RtRuntime, BlockMetadataSurvivesBothChannels) {
  TempDirs dirs;
  Config cfg = base_config(dirs);
  cfg.network_bandwidth = 4e6;
  cfg.producer_buffer_blocks = 4;
  Runtime rt(1, 1, cfg);
  std::thread producer([&] {
    const auto payload = make_payload(2, 16 * 1024);
    for (int b = 0; b < 16; ++b) {
      rt.producer(0).write(BlockId{7, 0, b}, payload, /*offset=*/b * 16384ull);
    }
    rt.producer(0).finish();
  });
  std::map<int, std::uint64_t> offsets;
  while (auto block = rt.consumer(0).read()) {
    EXPECT_EQ(block->header.id.step, 7);
    offsets[block->header.id.index] = block->header.offset;
  }
  producer.join();
  ASSERT_EQ(offsets.size(), 16u);
  for (int b = 0; b < 16; ++b) EXPECT_EQ(offsets[b], b * 16384ull);
}

TEST(RtRuntime, DestructorHandlesAbandonedConsumers) {
  // A consumer that never reads must not deadlock the destructor.
  TempDirs dirs;
  Config cfg = base_config(dirs);
  cfg.consumer_buffer_blocks = 2;
  cfg.net_channel_blocks = 2;
  Runtime rt(1, 1, cfg);
  const auto payload = make_payload(4, 1024);
  for (int b = 0; b < 4; ++b) rt.producer(0).write(BlockId{0, 0, b}, payload);
  // No finish(), no reads: destructor must shut everything down cleanly.
}

TEST(RtRuntime, StressRandomSizesManyThreads) {
  TempDirs dirs;
  Config cfg = base_config(dirs);
  cfg.producer_buffer_blocks = 6;
  cfg.network_bandwidth = 50e6;
  const int P = 6, Q = 3;
  Runtime rt(P, Q, cfg);

  std::atomic<std::uint64_t> bytes_written{0}, bytes_read{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < P; ++p) {
    threads.emplace_back([&, p] {
      zipper::common::Xoshiro256 rng(static_cast<std::uint64_t>(p) + 99);
      for (int s = 0; s < 8; ++s) {
        for (int b = 0; b < 6; ++b) {
          const std::size_t n = 512 + rng.below(32 * 1024);
          auto payload = make_payload(rng(), n);
          bytes_written += n;
          rt.producer(p).write(BlockId{s, p, b}, payload);
        }
      }
      rt.producer(p).finish();
    });
  }
  for (int c = 0; c < Q; ++c) {
    threads.emplace_back([&, c] {
      while (auto block = rt.consumer(c).read()) {
        bytes_read += block->payload.size();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bytes_read.load(), bytes_written.load());
}

TEST(RtRuntime, RealSpansGiveThreadedRunsPerSpanNesting) {
  // The unified body records genuine [t0, t1] spans on the threaded
  // executor's monotonic clock — not one synthetic counter-derived span per
  // rank anchored at t = 0. Producers trace on ranks 0..P-1, consumers on
  // P..P+Q-1, the same layout the DES workflow uses.
  TempDirs dirs;
  auto cfg = base_config(dirs);
  cfg.producer_buffer_blocks = 2;  // tiny buffer: force stall + steal
  cfg.network_bandwidth = 4e6;     // slow network: blocks take both channels
  zipper::trace::Recorder rec;
  cfg.recorder = &rec;
  const int P = 2, Q = 1;
  Runtime rt(P, Q, cfg);

  std::vector<std::thread> threads;
  for (int p = 0; p < P; ++p) {
    threads.emplace_back([&, p] {
      for (int b = 0; b < 16; ++b) {
        rt.producer(p).write(BlockId{0, p, b}, make_payload(7, 64 * 1024));
      }
      rt.producer(p).finish();
    });
  }
  std::uint64_t read_blocks = 0;
  threads.emplace_back([&] {
    while (auto block = rt.consumer(0).read()) ++read_blocks;
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(read_blocks, 32u);

  using zipper::trace::Cat;
  // Per-span granularity: every network send is its own kTransfer span on
  // the producer's rank, every spill fetch its own kRead span on the
  // consumer's — span *counts* match the per-endpoint counters one-to-one.
  std::uint64_t sent = 0, fetched = 0;
  std::map<std::pair<std::int32_t, Cat>, std::uint64_t> span_count;
  for (const auto& s : rec.spans()) {
    EXPECT_GT(s.t1, s.t0);
    ++span_count[{s.rank, s.cat}];
  }
  for (int p = 0; p < P; ++p) sent += rt.producer(p).stats().blocks_sent;
  fetched = rt.consumer(0).stats().blocks_from_disk;
  EXPECT_GT(fetched, 0u) << "network never throttled; steal path untested";
  const std::uint64_t transfer_spans =
      span_count[std::pair<std::int32_t, Cat>{0, Cat::kTransfer}] +
      span_count[std::pair<std::int32_t, Cat>{1, Cat::kTransfer}];
  const std::uint64_t read_spans =
      span_count[std::pair<std::int32_t, Cat>{P, Cat::kRead}];
  EXPECT_EQ(transfer_spans, sent);
  EXPECT_EQ(read_spans, fetched);

  // Stall span totals equal the stall counters exactly: both sides of the
  // unified stats are derived from the same timed wait.
  for (int p = 0; p < P; ++p) {
    EXPECT_EQ(static_cast<std::uint64_t>(rec.total(Cat::kStall, p)),
              rt.producer(p).stats().stall_ns);
  }

  // True nesting along a real time axis: spans on one producer rank start at
  // distinct times (synthetic spans all began at t = 0), and the analyzer
  // decomposes them per category like any DES trace.
  std::set<zipper::sim::Time> starts;
  for (const auto& s : rec.spans()) {
    if (s.rank == 0) starts.insert(s.t0);
  }
  EXPECT_GT(starts.size(), 1u) << "spans collapsed onto one synthetic anchor";

  const auto attr = zipper::trace::analyze(rec);
  ASSERT_FALSE(attr.ranks.empty());
  EXPECT_GT(attr.t_end, 0);
  std::uint64_t ranks_seen = 0;
  for (const auto& ra : attr.ranks) {
    ranks_seen |= 1ull << ra.rank;
    EXPECT_GT(ra.busy, 0);
  }
  // Producer and consumer ranks both show up in one attribution.
  EXPECT_TRUE(ranks_seen & 1ull) << "producer rank 0 missing from trace";
  EXPECT_TRUE(ranks_seen & (1ull << P)) << "consumer rank missing from trace";
}

TEST(RtRuntime, OneLoopThreadServesEveryEndpoint) {
  // Every service coroutine of every endpoint runs on the one loop thread
  // the Runtime owns, however many endpoints there are. (The loop's file
  // worker would start at the first spill; these small blocks never spill.)
  TempDirs dirs;
  const std::size_t before = os_threads();
  {
    const int P = 8, Q = 4;
    Runtime rt(P, Q, base_config(dirs));
    EXPECT_EQ(os_threads(), before + 1);
    const auto payload = make_payload(6, 4096);
    for (int p = 0; p < P; ++p) {
      for (int b = 0; b < 3; ++b) rt.producer(p).write(BlockId{0, p, b}, payload);
      rt.producer(p).finish();
    }
    int received = 0;
    for (int c = 0; c < Q; ++c) {
      while (rt.consumer(c).read()) ++received;
    }
    EXPECT_EQ(received, P * 3);
    EXPECT_EQ(os_threads(), before + 1);
  }
  EXPECT_EQ(os_threads(), before);
}

TEST(RtRuntime, DestructorDoesNotWaitOutTheControlInterval) {
  TempDirs dirs;
  Config cfg = base_config(dirs);
  cfg.controller = [](const zipper::core::chaos::ControlSnapshot&) {
    return zipper::core::chaos::ControlAction{};
  };
  cfg.control_interval = 10 * zipper::sim::kSecond;
  auto rt = std::make_unique<Runtime>(1, 1, cfg);
  rt->producer(0).write(BlockId{0, 0, 0}, make_payload(8, 1024));
  rt->producer(0).finish();
  while (rt->consumer(0).read()) {
  }
  const auto t0 = std::chrono::steady_clock::now();
  rt.reset();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1))
      << "~Runtime waited out the controller's 10 s tick";
}

TEST(RtRuntime, SpillFileErrorsReachTheCallerAsExceptions) {
  // The spill directory vanishes under a running runtime, so every spill
  // write and read-back fails. The application must see an exception, never
  // a block the runtime could not read back.
  TempDirs dirs;
  Config cfg = base_config(dirs);
  cfg.spill_dir = dirs.spill / "vanishing";
  cfg.producer_buffer_blocks = 4;
  cfg.network_bandwidth = 2e6;  // slow network: the writer must spill
  Runtime rt(1, 1, cfg);
  fs::remove_all(cfg.spill_dir);

  const auto payload = make_payload(10, 64 * 1024);
  bool producer_threw = false, consumer_threw = false;
  std::thread producer([&] {
    try {
      for (int b = 0; b < 40; ++b) rt.producer(0).write(BlockId{0, 0, b}, payload);
      rt.producer(0).finish();
    } catch (const std::exception&) {
      producer_threw = true;
    }
  });
  std::thread consumer([&] {
    try {
      while (auto block = rt.consumer(0).read()) {
        EXPECT_EQ(block->payload, payload) << block->header.id.to_string();
      }
    } catch (const std::exception&) {
      consumer_threw = true;
    }
  });
  producer.join();
  consumer.join();
  EXPECT_TRUE(producer_threw) << "write()/finish() hid the spill failure";
  EXPECT_TRUE(consumer_threw) << "read() hid the spill failure";
  EXPECT_THROW(rt.wait_idle(), std::exception);
}
