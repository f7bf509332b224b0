// Layer-ladder rungs: each one drives a single layer through its public API
// in isolation and reports its cost per unit of work, so a change in an
// end-to-end metric can be attributed to the layer that moved. Also the
// in-run yardsticks (bare kernel events, memcpy bandwidth) that separate a
// slower host from slower code.
#include <cstring>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/dsim/sim_runtime.hpp"
#include "core/exec/epoll.hpp"
#include "core/zipper/net_frame.hpp"
#include "exp/scenario.hpp"
#include "mpi/mpi.hpp"
#include "net/fabric.hpp"
#include "pfs/pfs.hpp"
#include "sim/channel.hpp"
#include "sim/simulation.hpp"
#include "workflow/cluster.hpp"

namespace perfbench {

using namespace zipper;

namespace {

constexpr double kRungBudgetS = 0.15;

/// Ping-pong round trips over a pair of channels (client/server coroutines).
template <class Ex, class Chan>
void ping_pong(Ex& ex, int pairs, int rounds) {
  struct Duo {
    Chan ping, pong;
    explicit Duo(Ex& e) : ping(e), pong(e) {}
  };
  std::vector<std::unique_ptr<Duo>> duos;
  for (int i = 0; i < pairs; ++i) duos.push_back(std::make_unique<Duo>(ex));
  for (auto& d : duos) {
    ex.spawn([](Duo& du, int n) -> sim::Task {
      for (int k = 0; k < n; ++k) {
        co_await du.ping.send(k);
        co_await du.pong.recv();
      }
    }(*d, rounds));
    ex.spawn([](Duo& du, int n) -> sim::Task {
      for (int k = 0; k < n; ++k) {
        co_await du.ping.recv();
        co_await du.pong.send(k);
      }
    }(*d, rounds));
  }
  ex.run();
}

}  // namespace

double kernel_ns_per_event(double budget_s) {
  std::uint64_t events = 0;
  const double t = median_time(
      [&] {
        sim::Simulation s;
        for (int i = 0; i < 1024; ++i) {
          s.spawn([](sim::Simulation& sm) -> sim::Task {
            for (int k = 0; k < 100; ++k) co_await sm.delay(10);
          }(s));
        }
        s.run();
        events = s.events_dispatched();
      },
      budget_s, 5);
  return t / static_cast<double>(events) * 1e9;
}

double memcpy_gb_per_s(double budget_s) {
  constexpr std::size_t kBytes = 32u << 20;
  std::vector<char> src(kBytes, 1), dst(kBytes, 0);
  unsigned sink = 0;
  const double t = median_time(
      [&] {
        std::memcpy(dst.data(), src.data(), kBytes);
        sink += static_cast<unsigned char>(dst[sink % kBytes]);
        src[sink % kBytes] = static_cast<char>(sink);
      },
      budget_s, 5);
  return static_cast<double>(kBytes) / t / 1e9;
}

void des_layer_rungs(const exp::ScenarioSpec& spec, Report& r) {
  const std::uint64_t block = spec.zipper.block_bytes;
  {
    Span sp("sim", "rung: Channel ping-pong");
    constexpr int kPairs = 64, kRounds = 100;
    const double t = median_time(
        [&] {
          sim::Simulation s;
          ping_pong<sim::Simulation, sim::Channel<int>>(s, kPairs, kRounds);
        },
        kRungBudgetS);
    r.put("sim.channel_ns_per_msg", t / (2.0 * kPairs * kRounds) * 1e9, "ns");
  }
  const workflow::ClusterSpec cs = exp::make_cluster_spec(spec);
  constexpr int kHosts = 64;
  {
    Span sp("net", "rung: Fabric::transfer");
    constexpr int kTransfers = 1024;
    const double t = median_time(
        [&] {
          sim::Simulation s;
          net::FabricConfig fc = cs.fabric;
          fc.num_hosts = kHosts;
          net::Fabric f(s, fc);
          for (int i = 0; i < kTransfers; ++i) {
            s.spawn(f.transfer(i % (kHosts / 2), kHosts / 2 + i % (kHosts / 2),
                               block));
          }
          s.run();
        },
        kRungBudgetS);
    r.put("net.fabric_ns_per_transfer", t / kTransfers * 1e9, "ns");
  }
  {
    Span sp("mpi", "rung: World::send/recv");
    constexpr int kPerPair = 32;
    const double t = median_time(
        [&] {
          sim::Simulation s;
          net::FabricConfig fc = cs.fabric;
          fc.num_hosts = kHosts;
          net::Fabric f(s, fc);
          std::vector<int> rank_to_host(kHosts);
          for (int i = 0; i < kHosts; ++i) rank_to_host[static_cast<std::size_t>(i)] = i;
          mpi::World w(s, f, rank_to_host);
          for (int i = 0; i < kHosts / 2; ++i) {
            s.spawn([](mpi::World& wd, int src, int dst, std::uint64_t b)
                        -> sim::Task {
              for (int k = 0; k < kPerPair; ++k) co_await wd.send(src, dst, 0, b);
            }(w, i, kHosts / 2 + i, block));
            s.spawn([](mpi::World& wd, int dst, int src) -> sim::Task {
              for (int k = 0; k < kPerPair; ++k) {
                mpi::Envelope env;
                co_await wd.recv(dst, src, 0, env);
              }
            }(w, kHosts / 2 + i, i));
          }
          s.run();
        },
        kRungBudgetS);
    r.put("mpi.ns_per_message", t / (kHosts / 2 * kPerPair) * 1e9, "ns");
  }
  {
    // ZipperBody put -> analyze under virtual time on a small slice of the
    // workload's cluster, with the workload's own Zipper configuration.
    Span sp("core.zipper", "rung: SimZipper put->analyze");
    constexpr int kP = 8, kQ = 4, kSteps = 4;
    auto small = spec;
    small.producers = kP;
    small.consumers = kQ;
    small.steps = kSteps;
    const apps::WorkloadProfile profile = exp::make_profile(small);
    std::uint64_t blocks = 0;
    const double t = median_time(
        [&] {
          workflow::Cluster c(cs, workflow::Layout{kP, kQ, 0});
          c.recorder.set_enabled(false);
          core::dsim::SimZipper z(c.sim, *c.world, *c.fs, c.recorder, profile,
                                  spec.zipper, kP, kQ, c.consumer_rank(0));
          z.spawn_services();
          const int bps = z.blocks_per_step();
          for (int p = 0; p < kP; ++p) {
            c.sim.spawn([](core::dsim::SimZipper& zz, int pp, int n,
                           int steps) -> sim::Task {
              for (int st = 0; st < steps; ++st) {
                for (int b = 0; b < n; ++b) {
                  co_await zz.producer_put_block(pp, st, b, n);
                }
              }
              co_await zz.producer_finalize(pp);
            }(z, p, bps, kSteps));
          }
          for (int q = 0; q < kQ; ++q) c.sim.spawn(z.consumer_run(q));
          c.sim.run();
          blocks = z.stats().blocks_analyzed;
        },
        kRungBudgetS);
    r.put("core.zipper.vt_ns_per_block",
          blocks ? t / static_cast<double>(blocks) * 1e9 : 0, "ns");
  }
  {
    Span sp("pfs", "rung: ParallelFileSystem::write");
    constexpr int kClients = 8, kChunks = 16;
    const double t = median_time(
        [&] {
          workflow::Cluster c(cs, workflow::Layout{kClients, 0, 0});
          for (int i = 0; i < kClients; ++i) {
            c.sim.spawn([](pfs::ParallelFileSystem& fs, int host, int id,
                           std::uint64_t b) -> sim::Task {
              pfs::FileId f = 0;
              co_await fs.create(host, "rung" + std::to_string(id), f);
              for (int k = 0; k < kChunks; ++k) {
                co_await fs.write(host, f, static_cast<std::uint64_t>(k) * b, b);
              }
            }(*c.fs, c.world->host_of(i), i, block));
          }
          c.sim.run();
        },
        kRungBudgetS);
    const double mib = static_cast<double>(kClients) * kChunks *
                       static_cast<double>(block) / (1024.0 * 1024.0);
    r.put("pfs.ns_per_mib_written", t / mib * 1e9, "ns");
  }
}

void net_layer_rungs(std::uint64_t seed, std::uint64_t small_block,
                     std::uint64_t bulk_block, Report& r) {
  namespace znet = core::zbody::net;
  // A frame batch mixing both phases' block sizes, seeded payload bytes.
  std::vector<znet::WireMixed> frames;
  common::Xoshiro256 rng(seed);
  auto add = [&](std::uint64_t bytes, int count) {
    for (int i = 0; i < count; ++i) {
      znet::WireMixed m;
      m.has_block = true;
      m.producer = i % 2;
      m.block.id = core::BlockId{0, i % 2, i};
      m.block.bytes = bytes;
      m.payload.resize(bytes);
      for (auto& b : m.payload) b = static_cast<std::byte>(rng() & 0xFF);
      frames.push_back(std::move(m));
    }
  };
  add(small_block, 32);
  add(bulk_block, 4);
  double kib = 0;
  for (const auto& f : frames) kib += static_cast<double>(f.payload.size()) / 1024;

  std::vector<std::vector<std::byte>> wire(frames.size());
  {
    Span sp("core.zipper.net_frame", "rung: encode_mixed");
    const double t = median_time(
        [&] {
          for (std::size_t i = 0; i < frames.size(); ++i) {
            wire[i] = znet::encode_mixed(frames[i]);
          }
        },
        kRungBudgetS);
    r.put("core.zipper.net_frame.encode_ns_per_kib", t / kib * 1e9, "ns");
  }
  {
    Span sp("core.zipper.net_frame", "rung: FrameDecoder + decode_mixed");
    std::vector<std::byte> stream;
    for (const auto& w : wire) stream.insert(stream.end(), w.begin(), w.end());
    std::size_t decoded = 0;
    const double t = median_time(
        [&] {
          znet::FrameDecoder dec;
          decoded = 0;
          constexpr std::size_t kChunk = 64 * 1024;  // a typical recv() size
          for (std::size_t off = 0; off < stream.size(); off += kChunk) {
            dec.feed(stream.data() + off, std::min(kChunk, stream.size() - off));
            while (auto f = dec.next()) {
              decoded += znet::decode_mixed(f->body).payload.size();
            }
          }
        },
        kRungBudgetS);
    r.check(decoded * 1.0 == kib * 1024, "net_frame rung: decoded bytes differ");
    r.put("core.zipper.net_frame.decode_ns_per_kib", t / kib * 1e9, "ns");
  }
  {
    Span sp("core.exec.epoll", "rung: EpChannel ping-pong");
    constexpr int kPairs = 64, kRounds = 100;
    const double t = median_time(
        [&] {
          core::exec::EpollExecutor ex;
          ping_pong<core::exec::EpollExecutor, core::exec::EpChannel<int>>(
              ex, kPairs, kRounds);
        },
        kRungBudgetS);
    r.put("core.exec.epoll.handoff_ns", t / (2.0 * kPairs * kRounds) * 1e9, "ns");
  }
}

}  // namespace perfbench
