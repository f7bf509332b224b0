// Network binding: runs ZipperBody over real sockets on the EpollExecutor.
//
// The third instantiation (after VtBinding and RtBinding): producers live in
// the client process, consumers in the zipperd daemon, and every mixed
// message crosses a localhost TCP connection as a length-prefixed frame
// (net_frame.hpp). One NetEnv instance serves one side of one session:
//
//   * client role — attach_wire() hands it the connected socket; send_mixed/
//     send_done serialize frames and write them through the epoll loop
//     (short writes park on wait_writable). The spill path writes real files
//     into the session's shared spill directory — the "PFS" the daemon's
//     reader fetches degraded blocks from, so the resilience ladder's
//     exactly-once guarantee holds across processes.
//   * daemon role — the session demux decodes frames and deliver_mixed()s
//     them into per-consumer channels; recv_mixed is a channel recv. EOF
//     or a frame error closes the queues and the body unwinds exactly like
//     the threaded shutdown path.
//
// A hard socket error on the client marks the wire broken and turns further
// sends into no-ops instead of throwing: the body's senders finish, the
// session layer sees wire_error() and reports the failure — one dead session
// cannot take down a load driver multiplexing thousands.
//
// Everything runs on one epoll loop thread, so RawMutex is the no-op lock
// (the spilled-map critical sections contain no co_await) and span recording
// needs no serialization.
#pragma once

#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/exec/epoll.hpp"
#include "core/exec/virtual_time.hpp"  // exec::NullMutex
#include "core/zipper/body.hpp"
#include "core/zipper/net_frame.hpp"
#include "core/zipper/rt_binding.hpp"  // rtdetail:: file helpers
#include "sim/channel.hpp"
#include "sim/latch.hpp"
#include "sim/sync.hpp"

namespace zipper::core::zbody {

class NetEnv;

/// RAII trace span on the epoll loop's clock; inert without a recorder.
class NetSpan {
 public:
  NetSpan(trace::Recorder* rec, exec::EpollExecutor* ex, int rank,
          trace::Cat cat)
      : rec_(rec), ex_(ex), rank_(rank), cat_(cat), t0_(rec ? ex->now() : 0) {}
  NetSpan(const NetSpan&) = delete;
  NetSpan& operator=(const NetSpan&) = delete;
  ~NetSpan() {
    if (rec_) rec_->record(rank_, cat_, t0_, ex_->now());
  }

 private:
  trace::Recorder* rec_;
  exec::EpollExecutor* ex_;
  int rank_;
  trace::Cat cat_;
  sim::Time t0_;
};

struct NetBinding {
  using Task = sim::Task;
  using Time = sim::Time;
  using Ctx = exec::EpollExecutor;
  /// The DES primitives, instantiated on the epoll loop.
  using Mutex = sim::BasicMutex<exec::EpollExecutor>;
  using CondVar = sim::BasicCondVar<exec::EpollExecutor>;
  using Latch = sim::BasicLatch<exec::EpollExecutor>;
  /// Single loop thread + no co_await inside the guarded sections.
  using RawMutex = exec::NullMutex;
  template <typename T>
  using Channel = sim::Channel<T, exec::EpollExecutor>;
  /// Real blocks carry their bytes across the wire.
  using Payload = std::shared_ptr<Block>;
  using Span = NetSpan;
  using Env = NetEnv;
  /// Daemon consumers are loop coroutines that always drain.
  static constexpr bool kConsumersMayAbandon = false;
};

struct NetEnvConfig {
  std::filesystem::path spill_dir;     // shared with the peer process
  std::filesystem::path preserve_dir;  // daemon-local
  bool preserve = false;
  std::size_t net_channel_blocks = 32;
  std::uint64_t chaos_block_service_ns = 0;
  std::uint64_t analysis_ns_per_block = 0;
  trace::Recorder* recorder = nullptr;
};

class NetEnv {
 public:
  using ItemT = Item<NetBinding>;
  using MixedT = Mixed<NetBinding>;

  NetEnv(exec::EpollExecutor& ex, NetEnvConfig cfg, int num_consumers)
      : ex_(&ex), cfg_(std::move(cfg)), wire_m_(ex) {
    nets_.reserve(static_cast<std::size_t>(num_consumers));
    for (int c = 0; c < num_consumers; ++c) {
      nets_.push_back(std::make_unique<NetBinding::Channel<MixedT>>(
          ex, cfg_.net_channel_blocks));
    }
  }

  // ------------------------------------------------------ contract core ----

  exec::EpollExecutor& prim() noexcept { return *ex_; }
  exec::EpollExecutor& executor() noexcept { return *ex_; }
  sim::Time now() const noexcept { return ex_->now(); }
  /// Chaos window clock: seconds since this env was constructed (session
  /// start). Client and daemon construct their envs a connect-handshake
  /// apart, well inside the windows' subsecond placement jitter.
  double now_s() const noexcept { return sim::to_seconds(ex_->now() - et0_); }
  void spawn(sim::Task t) { ex_->spawn(std::move(t)); }
  auto sleep(sim::Time d) { return ex_->sleep_until(ex_->now() + d); }

  NetSpan span(int rank, trace::Cat cat) {
    return NetSpan(cfg_.recorder, ex_, rank, cat);
  }
  void record_span(int rank, trace::Cat cat, sim::Time t0, sim::Time t1) {
    if (cfg_.recorder) cfg_.recorder->record(rank, cat, t0, t1);
  }

  void charge_backoff_wait(int, sim::Time) noexcept {}

  // ------------------------------------------------------- client role ----

  /// Hands the env the connected (non-blocking) socket. The env never owns
  /// or closes the fd — the session layer does.
  void attach_wire(int fd) noexcept { wire_fd_ = fd; }

  /// Non-empty once a send hit a hard socket error; sends are no-ops after.
  const std::string& wire_error() const noexcept { return wire_error_; }

  sim::Task send_mixed(int p, int c, MixedT msg) {
    net::WireMixed w;
    w.has_block = msg.has_block;
    w.done = msg.done;
    w.producer = msg.producer;
    w.consumer = c;
    w.block = msg.item.h;
    w.ids_on_disk = std::move(msg.ids_on_disk);
    w.sent_raw_ns =
        static_cast<std::uint64_t>(exec::EpollExecutor::raw_now());
    if (msg.has_block && msg.item.payload) {
      w.payload = msg.item.payload->payload;
    }
    (void)p;
    co_await write_frame(net::encode_mixed(w));
  }

  sim::Task send_done(int p, int c, MixedT msg) {
    return send_mixed(p, c, std::move(msg));
  }

  /// Writes one whole frame, serialized against concurrent senders so frames
  /// never interleave on the wire. Short writes park on epoll writability —
  /// this is where real TCP backpressure (including chaos-injected daemon
  /// read stalls) reaches the producer side.
  sim::Task write_frame(std::vector<std::byte> frame) {
    if (wire_fd_ < 0 || !wire_error_.empty()) co_return;
    co_await wire_m_.lock();
    std::size_t off = 0;
    while (off < frame.size() && wire_error_.empty()) {
      const ssize_t n =
          ::send(wire_fd_, frame.data() + off, frame.size() - off,
                 MSG_NOSIGNAL);
      if (n >= 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!co_await ex_->wait_writable(wire_fd_)) {
          wire_error_ = "wire cancelled";
        }
        continue;
      }
      if (errno == EINTR) continue;
      wire_error_ = std::string("send: ") + std::strerror(errno);
    }
    wire_m_.unlock();
  }

  // ------------------------------------------------------- daemon role ----

  /// Demux -> consumer queue, with channel backpressure (a full consumer
  /// stalls the session demux, which stalls the client's TCP stream).
  sim::Task deliver_mixed(int c, MixedT msg) {
    co_await nets_[static_cast<std::size_t>(c)]->send(std::move(msg));
  }

  sim::Task recv_mixed(int c, std::optional<MixedT>& out) {
    out = co_await nets_[static_cast<std::size_t>(c)]->recv();
  }

  /// Chaos service inflation: a fault-window consumer serves each received
  /// block that much extra time, for real (on the loop's timer wheel).
  sim::Task receive_block(int c, std::uint64_t bytes, int producer,
                          double slow) {
    (void)c;
    (void)bytes;
    (void)producer;
    if (cfg_.chaos_block_service_ns > 0 && slow > 1.0) {
      co_await sleep(static_cast<sim::Time>(
          static_cast<double>(cfg_.chaos_block_service_ns) * (slow - 1.0)));
    }
  }

  // --------------------------------------------------------- spill/PFS ----
  // File errors are session-fatal, not process-fatal: they mark io_error()
  // (the session layer reports the failure in its summary) instead of
  // throwing out of a body service coroutine and killing the whole daemon.

  /// Non-empty once a spill/preserve file operation failed.
  const std::string& io_error() const noexcept { return io_error_; }

  sim::Task spill_write(int p, const ItemT& it) {
    (void)p;
    try {
      rtdetail::write_file(rtdetail::spill_path(cfg_.spill_dir, it.h.id),
                           it.payload ? it.payload->payload
                                      : std::vector<std::byte>(it.h.bytes));
    } catch (const std::exception& e) {
      if (io_error_.empty()) io_error_ = e.what();
    }
    co_return;
  }

  sim::Task fetch_spill(int c, const BlockHeader& h, ItemT& out) {
    (void)c;
    auto block = std::make_shared<Block>();
    block->header = h;
    try {
      const std::filesystem::path src =
          rtdetail::spill_path(cfg_.spill_dir, h.id);
      block->payload = rtdetail::read_file(src, h.bytes);
      if (cfg_.preserve) {
        std::filesystem::rename(
            src, rtdetail::preserve_path(cfg_.preserve_dir, h.id));
      } else {
        std::filesystem::remove(src);
      }
    } catch (const std::exception& e) {
      if (io_error_.empty()) io_error_ = e.what();
      block->payload.assign(h.bytes, std::byte{0});
    }
    out.h = h;
    out.payload = std::move(block);
    co_return;
  }

  sim::Task preserve_open(int) { co_return; }

  sim::Task preserve_write(int c, const ItemT& it) {
    (void)c;
    try {
      rtdetail::write_file(
          rtdetail::preserve_path(cfg_.preserve_dir, it.h.id),
          it.payload ? it.payload->payload
                     : std::vector<std::byte>(it.h.bytes));
    } catch (const std::exception& e) {
      if (io_error_.empty()) io_error_ = e.what();
    }
    co_return;
  }

  // ------------------------------------------------------- misc contract ----

  sim::Task control_tick(sim::Time interval, bool& alive) {
    co_await sleep(interval);
    alive = !stopped_;
  }

  sim::Time analysis_cost(std::uint64_t) const noexcept {
    return static_cast<sim::Time>(cfg_.analysis_ns_per_block);
  }

  sim::Task idle_recv(NetBinding::Channel<ItemT>& buf,
                      std::optional<ItemT>& out) {
    out = buf.try_recv();
    if (!out) co_await sleep(kStealPoll);
  }
  sim::Task drain_nap() { co_await sleep(kStealPoll); }

  void stop_control() noexcept { stopped_ = true; }

  void close_transport() {
    for (auto& n : nets_) {
      if (!n->closed()) n->close();
    }
  }

 private:
  static constexpr sim::Time kStealPoll = 500 * sim::kMicrosecond;

  exec::EpollExecutor* ex_;
  NetEnvConfig cfg_;
  sim::Time et0_ = ex_->now();
  NetBinding::Mutex wire_m_;
  int wire_fd_ = -1;
  std::string wire_error_;
  std::string io_error_;
  bool stopped_ = false;
  std::vector<std::unique_ptr<NetBinding::Channel<MixedT>>> nets_;
};

extern template class ZipperBody<NetBinding>;

}  // namespace zipper::core::zbody
