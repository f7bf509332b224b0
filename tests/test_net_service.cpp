// Differential suite for the real-I/O backend (docs/service.md): the same
// unified zipper body that runs on the VirtualTimeExecutor is bound to the
// EpollExecutor and driven across a real localhost socket by an in-process
// zipperd + client pair. The streaming invariants must agree:
//
//   * exactly-once — both executors analyze exactly the same block-id set;
//   * per-(producer,consumer) FIFO — production order survives the DES event
//     loop and the length-prefixed TCP frame stream alike;
//   * conservation — analyzed == network + disk on both sides of the wire.
//
// Plus the frame-codec edge cases (truncated header, oversized length,
// byte-by-byte split reads, checksum corruption), the chaos ladder against a
// live daemon (fault window -> retry/backoff -> degrade to the shared spill
// directory), peer resets mid-block, shutdown races forced through the loop,
// and the EpollExecutor's own contract (timer ordering, deadlock detection;
// the sync primitives it shares with the DES are tested on both schedulers
// in test_sim.cpp).
//
// Flake-proofing contract for CI: every server here binds port 0 and the
// client reads the kernel-assigned port back from the server object — no
// fixed ports, no startup sleeps (the listener is live when the constructor
// returns).
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/eventfd.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "apps/profiles.hpp"
#include "common/units.hpp"
#include "core/exec/epoll.hpp"
#include "core/zipper/net_frame.hpp"
#include "core/zipper/net_service.hpp"
#include "workflow/runner.hpp"
#include "workflow/zipper_coupling.hpp"

namespace fs = std::filesystem;
using namespace zipper;
using common::KiB;
using core::BlockHeader;
using core::BlockId;
// Alias is `znet` (not `net`) to dodge the ambiguity with zipper::net
// (net/fabric.hpp) under `using namespace zipper`.
namespace znet = core::zbody::net;
namespace exec = core::exec;

namespace {

// Shared geometry, identical on both executors (non-divisible step size so
// the last block of every step is short).
constexpr int kP = 4;
constexpr int kQ = 2;
constexpr int kSteps = 3;
constexpr std::uint64_t kBlockBytes = 64 * KiB;
constexpr std::uint64_t kStepBytes = 5 * 64 * KiB + 32 * KiB;
constexpr int kBlocksPerStep = 6;
constexpr std::uint64_t kExpectedBlocks =
    static_cast<std::uint64_t>(kP) * kSteps * kBlocksPerStep;

std::set<BlockId> expected_ids() {
  std::set<BlockId> ids;
  for (int s = 0; s < kSteps; ++s)
    for (int p = 0; p < kP; ++p)
      for (int b = 0; b < kBlocksPerStep; ++b) ids.insert(BlockId{s, p, b});
  return ids;
}

// Per-(consumer,producer) analyze order, for the FIFO property.
using OrderLog = std::map<std::pair<int, int>, std::vector<BlockId>>;

void expect_fifo(const OrderLog& order, const char* executor) {
  for (const auto& [key, seq] : order) {
    for (std::size_t i = 1; i < seq.size(); ++i) {
      EXPECT_LT(seq[i - 1], seq[i])
          << executor << ": consumer " << key.first << " saw producer "
          << key.second << "'s blocks out of order: "
          << seq[i - 1].to_string() << " before " << seq[i].to_string();
    }
  }
}

// ---------------------------------------------------------- virtual time ----

struct VtOutcome {
  std::set<BlockId> analyzed;
  OrderLog order;
  std::uint64_t analyzed_count = 0;
};

VtOutcome run_virtual() {
  apps::WorkloadProfile prof;
  prof.name = "net-diff";
  prof.steps = kSteps;
  prof.bytes_per_rank_per_step = kStepBytes;
  prof.t_collision = sim::from_seconds(0.01);
  prof.t_update = sim::from_seconds(0.01);
  prof.analysis_ns_per_byte = 1.0;

  core::dsim::SimZipperConfig z;
  z.block_bytes = kBlockBytes;
  z.producer_buffer_blocks = 8;
  // Stealing legitimately reorders via the disk path (test_exec pins that
  // down); FIFO is only a contract with it off, so the differential runs
  // steal-free on both executors.
  z.enable_steal = false;

  VtOutcome out;
  z.on_analyzed = [&out](int c, const BlockHeader& h) {
    out.analyzed.insert(h.id);
    out.order[{c, h.id.producer}].push_back(h.id);
    ++out.analyzed_count;
  };
  workflow::Cluster cluster(workflow::ClusterSpec::bridges(),
                            workflow::Layout{kP, kQ, 0});
  cluster.recorder.set_enabled(false);
  workflow::ZipperCoupling coupling(cluster, prof, z);
  workflow::run_workflow(cluster, prof, &coupling);
  return out;
}

// -------------------------------------------------------------- loopback ----

struct NetOutcome {
  znet::ClientResult res;
  znet::ServerStats sstats;
  // Keyed (session, consumer, producer): sessions multiplex one daemon.
  std::map<std::tuple<std::uint64_t, int, int>, std::vector<BlockId>> order;
  std::map<std::uint64_t, std::set<BlockId>> analyzed;  // per session
};

struct NetCase {
  std::uint64_t sessions = 1;
  std::uint64_t concurrency = 1;
  std::string fault;
  std::uint64_t chaos_seed = 0;
  double horizon_s = 1.0;
  bool chaos_stall = false;
  bool enable_steal = false;
  std::uint64_t analysis_ns = 0;
  std::uint32_t steps = kSteps;
};

NetOutcome run_net(const NetCase& tc) {
  znet::ServerOptions so;
  so.chaos_stall = tc.chaos_stall;
  so.analysis_ns_per_block = tc.analysis_ns;
  NetOutcome out;
  // Single-writer: the hook runs on the server thread only, and the test
  // reads after join() — the join is the synchronization point.
  so.on_analyzed = [&out](std::uint64_t session, int c, const BlockHeader& h) {
    out.order[{session, c, h.id.producer}].push_back(h.id);
    out.analyzed[session].insert(h.id);
  };
  znet::ZipperdServer server(std::move(so));

  znet::ClientOptions co;
  co.port = server.port();
  co.sessions = tc.sessions;
  co.concurrency = tc.concurrency;
  co.spec.producers = kP;
  co.spec.consumers = kQ;
  co.spec.steps = tc.steps;
  co.spec.block_bytes = kBlockBytes;
  co.spec.step_bytes = kStepBytes;
  co.spec.fault = tc.fault;
  co.spec.chaos_seed = tc.chaos_seed;
  co.spec.horizon_s = tc.horizon_s;
  co.spec.enable_steal = tc.enable_steal;

  std::thread daemon([&server] { server.run(); });
  out.res = znet::run_client_load(co);
  server.request_stop();
  daemon.join();
  out.sstats = server.stats();
  return out;
}

// A blocking loopback connection to `port`; -1 on failure. The listener's
// kernel backlog completes the handshake, so this returns before (and
// whether or not) the daemon accepts.
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void send_all(int fd, const std::vector<std::byte>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, 0);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

// A raw client for malformed-wire tests: connect (blocking socket), send
// exactly `bytes`, then hard-close.
void raw_send_and_close(std::uint16_t port, const std::vector<std::byte>& bytes,
                        bool rst) {
  const int fd = connect_loopback(port);
  ASSERT_GE(fd, 0);
  send_all(fd, bytes);
  if (rst) {
    // SO_LINGER 0: close sends RST instead of FIN — a peer reset mid-block.
    linger lg{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  }
  ::close(fd);
}

// Caps RLIMIT_NOFILE at the lowest free descriptor for its lifetime, so every
// new fd — accept4() included — fails with EMFILE.
class FdTableFull {
 public:
  FdTableFull() {
    ::getrlimit(RLIMIT_NOFILE, &saved_);
    const int lowest_free = ::eventfd(0, EFD_CLOEXEC);
    ::close(lowest_free);
    rlimit capped = saved_;
    capped.rlim_cur = static_cast<rlim_t>(lowest_free);
    ok_ = lowest_free >= 0 && ::setrlimit(RLIMIT_NOFILE, &capped) == 0;
  }
  ~FdTableFull() { ::setrlimit(RLIMIT_NOFILE, &saved_); }
  FdTableFull(const FdTableFull&) = delete;
  FdTableFull& operator=(const FdTableFull&) = delete;
  bool ok() const noexcept { return ok_; }

 private:
  rlimit saved_{};
  bool ok_ = false;
};

znet::SessionSpec small_spec(std::uint64_t id, const fs::path& spill) {
  znet::SessionSpec spec;
  spec.session_id = id;
  spec.producers = 2;
  spec.consumers = 2;
  spec.steps = 2;
  spec.block_bytes = 4 * KiB;
  spec.step_bytes = 8 * KiB;
  spec.spill_dir = spill.string();
  return spec;
}

}  // namespace

// ------------------------------------------------------------ frame codec ----

TEST(NetFrameCodec, HelloRoundTrip) {
  znet::SessionSpec spec = small_spec(42, "/tmp/spill_rt");
  spec.fault = "2x8@0.5";
  spec.chaos_seed = 7;
  spec.route_kind = 2;
  spec.consumer_steal = true;
  spec.high_water = 0.75;
  znet::FrameDecoder dec;
  const auto wire = znet::encode_hello(spec);
  dec.feed(wire.data(), wire.size());
  const auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, znet::FrameType::kHello);
  const znet::SessionSpec back = znet::decode_hello(f->body);
  EXPECT_EQ(back.session_id, 42u);
  EXPECT_EQ(back.producers, 2u);
  EXPECT_EQ(back.fault, "2x8@0.5");
  EXPECT_EQ(back.route_kind, 2);
  EXPECT_TRUE(back.consumer_steal);
  EXPECT_DOUBLE_EQ(back.high_water, 0.75);
  EXPECT_EQ(back.spill_dir, "/tmp/spill_rt");
  EXPECT_EQ(dec.pending_bytes(), 0u);
}

TEST(NetFrameCodec, MixedRoundTripWithPayloadAndSpillIds) {
  znet::WireMixed m;
  m.has_block = true;
  m.producer = 3;
  m.consumer = 1;
  m.sent_raw_ns = 123456789;
  m.block.id = BlockId{5, 3, 2};
  m.block.bytes = 100;
  m.payload.resize(100);
  for (int i = 0; i < 100; ++i) m.payload[i] = static_cast<std::byte>(i);
  BlockHeader spilled;
  spilled.id = BlockId{5, 3, 1};
  spilled.on_disk = true;
  m.ids_on_disk.push_back(spilled);

  znet::FrameDecoder dec;
  const auto wire = znet::encode_mixed(m);
  dec.feed(wire.data(), wire.size());
  const auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  ASSERT_EQ(f->type, znet::FrameType::kMixed);
  const znet::WireMixed back = znet::decode_mixed(f->body);
  EXPECT_EQ(back.block.id, m.block.id);
  EXPECT_EQ(back.payload, m.payload);
  ASSERT_EQ(back.ids_on_disk.size(), 1u);
  EXPECT_EQ(back.ids_on_disk[0].id, spilled.id);
  EXPECT_TRUE(back.ids_on_disk[0].on_disk);
  EXPECT_EQ(back.sent_raw_ns, 123456789u);
}

TEST(NetFrameCodec, SummaryRoundTrip) {
  znet::SessionSummary s;
  s.session_id = 9;
  s.ok = true;
  s.blocks_analyzed = 48;
  s.blocks_from_network = 40;
  s.blocks_from_disk = 8;
  s.latency_ns = {100, 200, 300};
  znet::FrameDecoder dec;
  const auto wire = znet::encode_summary(s);
  dec.feed(wire.data(), wire.size());
  const auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  const znet::SessionSummary back = znet::decode_summary(f->body);
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.blocks_analyzed, 48u);
  EXPECT_EQ(back.blocks_from_disk, 8u);
  EXPECT_EQ(back.latency_ns, (std::vector<std::uint64_t>{100, 200, 300}));
}

TEST(NetFrameCodec, TruncatedHeaderWaitsForMoreBytes) {
  znet::FrameDecoder dec;
  const std::byte partial[3] = {std::byte{10}, std::byte{0}, std::byte{0}};
  dec.feed(partial, 3);
  EXPECT_FALSE(dec.next().has_value());  // 4-byte length not complete yet
  EXPECT_EQ(dec.pending_bytes(), 3u);
}

TEST(NetFrameCodec, OversizedLengthThrows) {
  znet::FrameDecoder dec;
  std::vector<std::byte> hdr(5);
  const std::uint32_t huge = znet::kMaxFrameBytes + 1;
  std::memcpy(hdr.data(), &huge, 4);
  hdr[4] = std::byte{2};
  dec.feed(hdr.data(), hdr.size());
  EXPECT_THROW(dec.next(), znet::FrameError);
}

TEST(NetFrameCodec, ZeroLengthAndUnknownTypeThrow) {
  {
    znet::FrameDecoder dec;
    const std::byte zero[5] = {};
    dec.feed(zero, 5);
    EXPECT_THROW(dec.next(), znet::FrameError);
  }
  {
    znet::FrameDecoder dec;
    std::vector<std::byte> f(5);
    const std::uint32_t len = 1;
    std::memcpy(f.data(), &len, 4);
    f[4] = std::byte{9};  // no such frame type
    dec.feed(f.data(), f.size());
    EXPECT_THROW(dec.next(), znet::FrameError);
  }
}

TEST(NetFrameCodec, SplitReadsAcrossWakeupsReassemble) {
  // Three frames, fed one byte at a time — the worst epoll fragmentation.
  std::vector<std::byte> stream;
  const auto hello = znet::encode_hello(small_spec(1, "/tmp/x"));
  znet::WireMixed m;
  m.done = true;
  m.producer = 0;
  const auto mixed = znet::encode_mixed(m);
  znet::SessionSummary s;
  s.ok = true;
  const auto summary = znet::encode_summary(s);
  stream.insert(stream.end(), hello.begin(), hello.end());
  stream.insert(stream.end(), mixed.begin(), mixed.end());
  stream.insert(stream.end(), summary.begin(), summary.end());

  znet::FrameDecoder dec;
  std::vector<znet::Frame> frames;
  for (const std::byte b : stream) {
    dec.feed(&b, 1);
    while (auto f = dec.next()) frames.push_back(std::move(*f));
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, znet::FrameType::kHello);
  EXPECT_EQ(frames[1].type, znet::FrameType::kMixed);
  EXPECT_EQ(frames[2].type, znet::FrameType::kSummary);
  EXPECT_TRUE(znet::decode_mixed(frames[1].body).done);
  EXPECT_EQ(dec.pending_bytes(), 0u);
}

TEST(NetFrameCodec, TruncatedBodyAndTrailingBytesThrow) {
  const auto wire = znet::encode_hello(small_spec(1, "/tmp/x"));
  // Body cut short: drop the last byte of the hello body.
  {
    std::vector<std::byte> body(wire.begin() + 5, wire.end() - 1);
    EXPECT_THROW(znet::decode_hello(body), znet::FrameError);
  }
  // Trailing garbage after a well-formed body.
  {
    std::vector<std::byte> body(wire.begin() + 5, wire.end());
    body.push_back(std::byte{0xAA});
    EXPECT_THROW(znet::decode_hello(body), znet::FrameError);
  }
}

TEST(NetFrameCodec, CorruptPayloadFailsChecksum) {
  znet::WireMixed m;
  m.has_block = true;
  m.block.id = BlockId{0, 0, 0};
  m.block.bytes = 64;
  m.payload.assign(64, std::byte{0x5A});
  auto wire = znet::encode_mixed(m);
  wire[wire.size() - 1] ^= std::byte{0xFF};  // flip a payload bit on the wire
  znet::FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  const auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_THROW(znet::decode_mixed(f->body), znet::FrameError);
}

// -------------------------------------------------- epoll executor contract --

TEST(EpollExecutor, TimersFireInDeadlineOrder) {
  exec::EpollExecutor ex;
  std::vector<int> order;
  auto sleeper = [&](int tag, sim::Time d) -> sim::Task {
    co_await ex.sleep_until(ex.now() + d);
    order.push_back(tag);
  };
  ex.spawn(sleeper(3, 6 * sim::kMillisecond));
  ex.spawn(sleeper(1, 1 * sim::kMillisecond));
  ex.spawn(sleeper(2, 3 * sim::kMillisecond));
  ex.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EpollExecutor, DeadlockedLoopThrowsInsteadOfHanging) {
  exec::EpollExecutor ex;
  sim::Channel<int, exec::EpollExecutor> ch(ex);
  auto stuck = [&]() -> sim::Task {
    (void)co_await ch.recv();  // nothing will ever send or close
  };
  ex.spawn(stuck());
  EXPECT_THROW(ex.run(), std::runtime_error);
}

// ------------------------------------------------------- loopback coupling --

TEST(NetService, ExactlyOnceFifoConservationDifferentialVsVirtualTime) {
  const VtOutcome vt = run_virtual();
  NetCase tc;
  tc.sessions = 2;
  tc.concurrency = 2;
  const NetOutcome nt = run_net(tc);

  // Virtual-time side of the differential.
  const std::set<BlockId> expected = expected_ids();
  EXPECT_EQ(vt.analyzed, expected);
  EXPECT_EQ(vt.analyzed_count, kExpectedBlocks) << "VT: exactly once";
  expect_fifo(vt.order, "virtual-time");

  // Real-socket side: same invariants, per multiplexed session.
  ASSERT_EQ(nt.res.sessions_ok, 2u) << (nt.res.errors.empty()
                                            ? "no error detail"
                                            : nt.res.errors.front());
  EXPECT_EQ(nt.res.sessions_failed, 0u);
  ASSERT_EQ(nt.analyzed.size(), 2u);
  for (const auto& [session, ids] : nt.analyzed) {
    EXPECT_EQ(ids, expected) << "epoll session " << session
                             << ": analyzed set differs from virtual time";
  }
  EXPECT_EQ(nt.res.blocks_analyzed, 2 * kExpectedBlocks);
  EXPECT_EQ(nt.res.blocks_from_network + nt.res.blocks_from_disk,
            nt.res.blocks_analyzed)
      << "every block arrives via exactly one of the two channels";
  OrderLog flat;
  for (const auto& [key, seq] : nt.order) {
    auto& dst = flat[{static_cast<int>(std::get<0>(key)) * 100 +
                          std::get<1>(key),
                      std::get<2>(key)}];
    dst.insert(dst.end(), seq.begin(), seq.end());
  }
  expect_fifo(flat, "epoll");
  EXPECT_EQ(nt.sstats.sessions_ok, 2u);
  EXPECT_EQ(nt.sstats.blocks_analyzed, 2 * kExpectedBlocks);
}

TEST(NetService, ChaosFaultWindowsWalkTheResilienceLadder) {
  NetCase tc;
  tc.steps = 20;
  tc.fault = "3x8@0.3";
  tc.enable_steal = true;
  tc.chaos_seed = 5;
  tc.horizon_s = 0.02;  // windows open while the senders are still streaming
  tc.analysis_ns = 1'500'000;
  const NetOutcome nt = run_net(tc);
  ASSERT_EQ(nt.res.sessions_ok, 1u) << (nt.res.errors.empty()
                                            ? "no error detail"
                                            : nt.res.errors.front());
  // Exactly-once must hold through the degraded path: every block the ladder
  // pushed to the shared spill directory was fetched by the daemon's reader.
  EXPECT_EQ(nt.res.blocks_analyzed, nt.res.blocks_expected);
  EXPECT_GT(nt.res.put_retries + nt.res.blocks_spilled_slow +
                nt.res.blocks_from_disk,
            0u)
      << "fault windows never engaged the retry/degrade ladder";
}

TEST(NetService, ChaosSocketStallsKeepExactlyOnce) {
  // Real injected stalls: the daemon stops reading during fault windows, so
  // degradation comes from genuine TCP backpressure, not a modeled timeout.
  NetCase tc;
  tc.steps = 20;
  tc.fault = "2x8@0.15";
  tc.enable_steal = true;
  tc.chaos_seed = 11;
  tc.horizon_s = 0.05;
  tc.chaos_stall = true;
  tc.analysis_ns = 500'000;
  const NetOutcome nt = run_net(tc);
  ASSERT_EQ(nt.res.sessions_ok, 1u) << (nt.res.errors.empty()
                                            ? "no error detail"
                                            : nt.res.errors.front());
  EXPECT_EQ(nt.res.blocks_analyzed, nt.res.blocks_expected);
}

TEST(NetService, PeerResetMidBlockFailsOneSessionNotTheDaemon) {
  znet::ServerOptions so;
  znet::ZipperdServer server(std::move(so));
  const std::uint16_t port = server.port();
  std::thread daemon([&server] { server.run(); });

  // A session that dies mid-frame: valid hello, then the first 12 bytes of a
  // mixed frame, then RST.
  {
    znet::WireMixed m;
    m.has_block = true;
    m.block.id = BlockId{0, 0, 0};
    m.block.bytes = 4 * KiB;
    m.payload.assign(4 * KiB, std::byte{0x11});
    const auto mixed = znet::encode_mixed(m);
    auto bytes = znet::encode_hello(small_spec(77, "/tmp/zipper_reset_spill"));
    bytes.insert(bytes.end(), mixed.begin(), mixed.begin() + 12);
    raw_send_and_close(port, bytes, /*rst=*/true);
  }
  // A stray connection that is not even speaking the protocol.
  {
    std::vector<std::byte> garbage(64, std::byte{0x42});
    raw_send_and_close(port, garbage, /*rst=*/false);
  }

  // The daemon must still serve a full session afterwards.
  znet::ClientOptions co;
  co.port = port;
  co.spec.producers = 2;
  co.spec.consumers = 2;
  co.spec.steps = 2;
  co.spec.block_bytes = 16 * KiB;
  co.spec.step_bytes = 64 * KiB;
  const znet::ClientResult res = znet::run_client_load(co);
  EXPECT_EQ(res.sessions_ok, 1u) << (res.errors.empty()
                                         ? "no error detail"
                                         : res.errors.front());
  EXPECT_EQ(res.blocks_analyzed, res.blocks_expected);

  server.request_stop();
  daemon.join();
  EXPECT_EQ(server.stats().sessions_ok, 1u);
  EXPECT_EQ(server.stats().sessions_failed, 2u)
      << "both malformed sessions recorded as failed, daemon kept serving";
}

TEST(NetService, StopDrainsIdleConnectionsPromptly) {
  znet::ZipperdServer server(znet::ServerOptions{});
  std::thread daemon([&server] { server.run(); });
  // An idle connection that never sends a hello must not wedge shutdown.
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  server.request_stop();
  daemon.join();  // hangs here (until the CI timeout) if drain is broken
  ::close(fd);
  SUCCEED();
}

// The two shutdown races below are forced on the daemon's own loop, with no
// threads and no sleeps: each test calls run() on the test thread and fails
// by hanging (until the suite's ctest timeout) if the daemon loses the stop.

TEST(NetService, StopInTheAcceptBatchClosesTheLateSession) {
  // A session whose hello and only block already sit in the socket buffer
  // when the loop starts. Analyzing that block runs a callback on the loop:
  // it connects a second, silent client and then requests stop, so the
  // listener and the stop eventfd turn readable in one epoll batch, listener
  // first. The acceptor then spawns the late session behind the stop
  // watcher, whose half-close of the active sessions misses it; the late
  // session must close its socket instead of waiting for a hello forever.
  znet::ZipperdServer* srv = nullptr;
  int late_fd = -1;
  znet::ServerOptions so;
  so.on_analyzed = [&](std::uint64_t, int, const BlockHeader&) {
    if (late_fd >= 0) return;
    late_fd = connect_loopback(srv->port());
    srv->request_stop();
  };
  znet::ZipperdServer server(std::move(so));
  srv = &server;

  znet::SessionSpec spec = small_spec(5, "/tmp/zipper_race_spill");
  spec.producers = 1;
  spec.consumers = 1;
  spec.steps = 1;
  spec.step_bytes = spec.block_bytes;
  znet::WireMixed m;
  m.has_block = true;
  m.block.id = BlockId{0, 0, 0};
  m.block.bytes = spec.block_bytes;
  m.payload.assign(spec.block_bytes, std::byte{0x33});
  std::vector<std::byte> bytes = znet::encode_hello(spec);
  const auto mixed = znet::encode_mixed(m);
  bytes.insert(bytes.end(), mixed.begin(), mixed.end());
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  send_all(fd, bytes);

  server.run();  // returns only if the late session let go of its socket
  EXPECT_GE(late_fd, 0);
  EXPECT_EQ(server.stats().blocks_analyzed, 1u);
  EXPECT_EQ(server.stats().sessions_accepted, 1u)
      << "a connection accepted after the stop is closed, not served";
  ::close(fd);
  if (late_fd >= 0) ::close(late_fd);
}

TEST(NetService, StopDuringAcceptBackoffEndsTheAcceptor) {
  // With the descriptor table full, accept4() fails with EMFILE and the
  // acceptor backs off on a timer instead of parking on the listener, so the
  // stop watcher's cancel of the listener cannot reach it. The stop is
  // pending before the loop starts and lands during the first back-off; the
  // acceptor must see it when the timer fires rather than retry forever.
  znet::ZipperdServer server(znet::ServerOptions{});
  server.request_stop();
  {
    FdTableFull full;
    ASSERT_TRUE(full.ok());
    server.run();
  }
  EXPECT_EQ(server.stats().sessions_accepted, 0u);
}
