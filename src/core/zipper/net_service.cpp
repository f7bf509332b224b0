#include "core/zipper/net_service.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <set>
#include <system_error>
#include <utility>

#include "core/exec/exec.hpp"
#include "core/zipper/body.hpp"

namespace zipper::core::zbody::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

/// Sanity bounds on a handshake before any per-session state is allocated;
/// a hostile or buggy client fails its own session, not the daemon.
std::string validate_spec(const SessionSpec& s) {
  if (s.producers > 256 || s.consumers > 256) return "too many ranks";
  if (s.steps > 1'000'000) return "too many steps";
  if (s.block_bytes > (16u << 20)) return "block_bytes too large";
  if (s.step_bytes > (256u << 20)) return "step_bytes too large";
  if (s.route_kind > 2) return "unknown route kind";
  if (s.spill_dir.empty()) return "empty spill_dir";
  return {};
}

/// Both ends rebuild identical policy state from the handshake — the wire
/// analog of both executors reading one ScenarioSpec.
BodyConfig body_config_from(const SessionSpec& spec) {
  BodyConfig bc;
  bc.block_bytes = spec.block_bytes;
  bc.producer_buffer_blocks = static_cast<int>(spec.producer_buffer_blocks);
  bc.high_water = spec.high_water;
  bc.enable_steal = spec.enable_steal;
  bc.preserve = spec.preserve;
  bc.consumer_buffer_blocks = static_cast<int>(spec.consumer_buffer_blocks);
  bc.sched.route = static_cast<sched::RouteKind>(spec.route_kind);
  bc.sched.consumer_steal = spec.consumer_steal;
  bc.step_bytes = spec.step_bytes;
  bc.first_producer_rank = 0;
  bc.first_consumer_rank = static_cast<int>(spec.producers);
  return bc;
}

std::shared_ptr<const chaos::ChaosEngine> chaos_from(const SessionSpec& spec) {
  if (spec.fault.empty() || spec.fault == "off") return nullptr;
  const auto f = chaos::parse_fault(spec.fault);
  if (!f || !f->enabled()) return nullptr;
  chaos::ChaosSpec cs;
  cs.seed = spec.chaos_seed;
  cs.fault = *f;
  return std::make_shared<chaos::ChaosEngine>(
      cs, static_cast<int>(spec.producers), static_cast<int>(spec.consumers),
      spec.horizon_s);
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Reads until one complete frame is decoded. Returns an error string on
/// EOF / socket error / frame error / cancel; the decoder keeps any bytes
/// beyond the frame (the client may pipeline mixed frames after the hello).
sim::Task read_one_frame(exec::EpollExecutor& ex, int fd, FrameDecoder& dec,
                         std::optional<Frame>& out, std::string& err) {
  std::byte buf[64 * 1024];
  for (;;) {
    try {
      out = dec.next();
    } catch (const FrameError& e) {
      err = e.what();
      co_return;
    }
    if (out) co_return;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      dec.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      err = "connection closed";
      co_return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!co_await ex.wait_readable(fd)) {
        err = "cancelled";
        co_return;
      }
      continue;
    }
    if (errno == EINTR) continue;
    err = std::string("recv: ") + std::strerror(errno);
    co_return;
  }
}

}  // namespace

// ------------------------------------------------------------------ server --

/// Everything one accepted connection owns. Lives in session_main's frame:
/// the demux and consumer coroutines hold raw pointers, and session_main
/// awaits their latches before the frame (and this struct) is destroyed.
struct ZipperdServer::Session {
  Session(exec::EpollExecutor& ex, int fd_, SessionSpec spec_)
      : fd(fd_),
        spec(std::move(spec_)),
        consumers_done(ex, spec.consumers),
        demux_done(ex, 1) {}

  int fd;
  SessionSpec spec;
  std::shared_ptr<const chaos::ChaosEngine> chaos;
  std::unique_ptr<NetEnv> env;
  std::unique_ptr<ZipperBody<NetBinding>> body;
  NetBinding::Latch consumers_done;
  NetBinding::Latch demux_done;
  /// send-timestamp per in-flight network block (latency at analyze time).
  std::map<BlockId, std::uint64_t> sent_ns;
  std::set<BlockId> seen;  // exactly-once: every analyzed id, once
  bool duplicate = false;
  std::uint64_t analyzed = 0;
  std::vector<std::uint64_t> latency;
  std::string error;
};

ZipperdServer::ZipperdServer(ServerOptions opts) : opts_(std::move(opts)) {
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opts_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int e = errno;
    ::close(listen_fd_);
    errno = e;
    throw_errno("bind");
  }
  if (::listen(listen_fd_, 1024) < 0) {
    const int e = errno;
    ::close(listen_fd_);
    errno = e;
    throw_errno("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    const int e = errno;
    ::close(listen_fd_);
    errno = e;
    throw_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  stop_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (stop_fd_ < 0) {
    const int e = errno;
    ::close(listen_fd_);
    errno = e;
    throw_errno("eventfd");
  }
  if (opts_.data_dir.empty()) {
    opts_.data_dir = std::filesystem::temp_directory_path() /
                     ("zipperd_" + std::to_string(::getpid()));
  }
}

ZipperdServer::~ZipperdServer() {
  // Abandoned session sockets (run() aborted by a daemon bug) are closed
  // here; the executor member's destructor then frees their frames.
  for (int fd : active_fds_) ::close(fd);
  if (stop_fd_ >= 0) ::close(stop_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void ZipperdServer::request_stop() noexcept {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t r = ::write(stop_fd_, &one, sizeof(one));
}

void ZipperdServer::log_line(const std::string& line) {
  if (!opts_.log) return;
  std::fprintf(opts_.log, "zipperd: %s\n", line.c_str());
  std::fflush(opts_.log);
}

void ZipperdServer::run() {
  ex_.spawn(stop_watch_main());
  ex_.spawn(acceptor_main());
  log_line("listening on 127.0.0.1:" + std::to_string(port_));
  ex_.run();
  log_line("stopped: " + std::to_string(stats_.sessions_ok) + " ok, " +
           std::to_string(stats_.sessions_failed) + " failed, " +
           std::to_string(stats_.blocks_analyzed) + " blocks");
}

sim::Task ZipperdServer::stop_watch_main() {
  (void)co_await ex_.wait_readable(stop_fd_);
  stopping_ = true;
  log_line("stop requested, draining " +
           std::to_string(active_fds_.size()) + " session(s)");
  ex_.cancel_fd(listen_fd_);
  // Half-close every active session: its demux reads EOF, the body unwinds
  // through the normal end-of-stream path, and run() returns once the last
  // root finishes.
  for (int fd : active_fds_) ::shutdown(fd, SHUT_RDWR);
}

sim::Task ZipperdServer::acceptor_main() {
  // Re-checked after every wake-up, the back-off sleep included: a stop that
  // lands while the acceptor is not parked on listen_fd_ cannot cancel it.
  while (!stopping_) {
    const int cfd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd >= 0) {
      set_nodelay(cfd);
      ex_.spawn(session_main(cfd));
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!co_await ex_.wait_readable(listen_fd_)) co_return;
      continue;
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    // Transient exhaustion (EMFILE/ENFILE/ENOBUFS): back off and keep
    // serving the sessions we already have.
    log_line(std::string("accept: ") + std::strerror(errno));
    co_await ex_.sleep_until(ex_.now() + 10 * sim::kMillisecond);
  }
}

sim::Task ZipperdServer::session_main(int fd) {
  if (stopping_) {
    // Accepted in the loop turn the stop landed in, but queued behind
    // stop_watch_main: its half-close missed this fd, so no hello or EOF
    // would ever arrive to end the session.
    ::close(fd);
    co_return;
  }
  active_fds_.push_back(fd);
  ++stats_.sessions_accepted;

  FrameDecoder dec;
  std::optional<Frame> hello;
  std::string err;
  co_await read_one_frame(ex_, fd, dec, hello, err);
  SessionSpec spec;
  if (err.empty()) {
    if (hello->type != FrameType::kHello) {
      err = "first frame is not a hello";
    } else {
      try {
        spec = decode_hello(hello->body);
        err = validate_spec(spec);
      } catch (const FrameError& e) {
        err = e.what();
      }
    }
  }
  if (!err.empty()) {
    log_line("session rejected: " + err);
    ++stats_.sessions_failed;
    active_fds_.erase(
        std::find(active_fds_.begin(), active_fds_.end(), fd));
    ex_.cancel_fd(fd);
    ::close(fd);
    co_return;
  }

  const int Q = static_cast<int>(spec.consumers);
  Session s(ex_, fd, spec);
  s.chaos = chaos_from(spec);

  NetEnvConfig ec;
  ec.spill_dir = spec.spill_dir;
  ec.preserve = spec.preserve;
  ec.preserve_dir = opts_.data_dir / ("s" + std::to_string(spec.session_id));
  ec.net_channel_blocks = spec.consumer_buffer_blocks;
  ec.chaos_block_service_ns = opts_.chaos_block_service_ns;
  ec.analysis_ns_per_block = opts_.analysis_ns_per_block;
  if (spec.preserve) {
    std::error_code fec;
    std::filesystem::create_directories(ec.preserve_dir, fec);
    if (fec) s.error = "preserve dir: " + fec.message();
  }
  s.env = std::make_unique<NetEnv>(ex_, ec, Q);
  s.env->attach_wire(fd);

  BodyConfig bc = body_config_from(spec);
  bc.chaos = s.chaos;
  Session* sp = &s;
  bc.on_analyzed = [this, sp](int c, const BlockHeader& h) {
    if (!sp->seen.insert(h.id).second) sp->duplicate = true;
    ++sp->analyzed;
    ++stats_.blocks_analyzed;
    const auto it = sp->sent_ns.find(h.id);
    if (it != sp->sent_ns.end()) {
      const auto now =
          static_cast<std::uint64_t>(exec::EpollExecutor::raw_now());
      if (now > it->second &&
          sp->latency.size() < SessionSummary::kMaxSamples) {
        sp->latency.push_back(now - it->second);
      }
      sp->sent_ns.erase(it);
    }
    if (opts_.on_analyzed) opts_.on_analyzed(sp->spec.session_id, c, h);
  };
  s.body = std::make_unique<ZipperBody<NetBinding>>(*s.env, bc,
                                                    static_cast<int>(
                                                        spec.producers),
                                                    Q);

  ex_.spawn(demux_main(&s, std::move(dec)));
  for (int c = 0; c < Q; ++c) ex_.spawn(consumer_wrap(&s, c));
  co_await s.consumers_done.wait();
  for (int c = 0; c < Q; ++c) co_await s.body->wait_consumer_services(c);

  SessionSummary sum;
  sum.session_id = spec.session_id;
  sum.blocks_analyzed = s.analyzed;
  for (int c = 0; c < Q; ++c) {
    const exec::RankStats cs = s.body->consumer_stats(c);
    sum.blocks_from_network += cs.blocks_from_network;
    sum.blocks_from_disk += cs.blocks_from_disk;
    sum.blocks_preserved += cs.blocks_preserved;
  }
  sum.latency_ns = std::move(s.latency);
  if (s.error.empty() && !s.env->io_error().empty()) {
    s.error = s.env->io_error();
  }
  if (s.error.empty() && s.duplicate) s.error = "duplicate block analyzed";
  if (s.error.empty() && s.analyzed != spec.expected_blocks()) {
    s.error = "analyzed " + std::to_string(s.analyzed) + " of " +
              std::to_string(spec.expected_blocks()) + " blocks";
  }
  sum.ok = s.error.empty();
  sum.error = s.error;
  co_await s.env->write_frame(encode_summary(sum));

  // The client closes its end after reading the summary; the demux sees EOF
  // and finishes. Await it before destroying the session state it points at.
  co_await s.demux_done.wait();

  active_fds_.erase(std::find(active_fds_.begin(), active_fds_.end(), fd));
  ex_.cancel_fd(fd);
  ::close(fd);
  if (sum.ok) {
    ++stats_.sessions_ok;
  } else {
    ++stats_.sessions_failed;
    log_line("session " + std::to_string(spec.session_id) +
             " failed: " + s.error);
  }
}

sim::Task ZipperdServer::demux_main(Session* s, FrameDecoder dec) {
  std::vector<std::byte> rbuf(64 * 1024);
  std::string err;
  bool eof = false;
  const int Q = static_cast<int>(s->spec.consumers);
  while (err.empty() && !eof) {
    // Drain every complete frame already buffered.
    for (;;) {
      std::optional<Frame> f;
      try {
        f = dec.next();
      } catch (const FrameError& e) {
        err = e.what();
        break;
      }
      if (!f) break;
      if (f->type != FrameType::kMixed) {
        err = "unexpected frame type mid-session";
        break;
      }
      WireMixed w;
      try {
        w = decode_mixed(f->body);
      } catch (const FrameError& e) {
        err = e.what();
        break;
      }
      if (w.consumer < 0 || w.consumer >= Q) {
        err = "mixed frame for unknown consumer";
        break;
      }
      if (w.has_block) s->sent_ns[w.block.id] = w.sent_raw_ns;
      NetEnv::MixedT m;
      m.has_block = w.has_block;
      m.done = w.done;
      m.producer = w.producer;
      m.ids_on_disk = std::move(w.ids_on_disk);
      if (w.has_block) {
        auto blk = std::make_shared<Block>();
        blk->header = w.block;
        blk->payload = std::move(w.payload);
        m.item.h = w.block;
        m.item.payload = std::move(blk);
      }
      // Channel backpressure: a full consumer parks the demux here, which
      // stops socket reads, which stalls the client's senders — the same
      // coupling the DES models, now through a real TCP window.
      co_await s->env->deliver_mixed(w.consumer, std::move(m));
    }
    if (!err.empty()) break;

    // Chaos fault windows injected for real: while any window is open this
    // session reads nothing, so the client's puts time out and walk the
    // retry/backoff/spill ladder against genuine socket stalls.
    if (opts_.chaos_stall && s->chaos) {
      for (;;) {
        const double now_s = s->env->now_s();
        double until = 0;
        for (const chaos::FaultWindow& w : s->chaos->fault_windows()) {
          if (w.t0_s <= now_s && now_s < w.t1_s) until = std::max(until, w.t1_s);
        }
        if (until <= now_s) break;
        co_await s->env->sleep(
            static_cast<sim::Time>((until - now_s) * 1e9));
      }
    }

    const ssize_t n = ::recv(s->fd, rbuf.data(), rbuf.size(), 0);
    if (n > 0) {
      dec.feed(rbuf.data(), static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!co_await ex_.wait_readable(s->fd)) err = "cancelled";
      continue;
    }
    if (errno == EINTR) continue;
    err = std::string("recv: ") + std::strerror(errno);
  }
  if (err.empty() && dec.pending_bytes() > 0) {
    // Peer reset (or vanished) mid-block: the bytes of a partial frame are
    // sitting in the decoder with no continuation coming.
    err = "peer closed mid-frame (" +
          std::to_string(dec.pending_bytes()) + " bytes pending)";
  }
  if (!err.empty() && s->error.empty()) s->error = err;
  // End of input: close the consumer queues so the body unwinds through its
  // end-of-stream path whether the session completed or died.
  s->env->close_transport();
  s->demux_done.count_down();
}

sim::Task ZipperdServer::consumer_wrap(Session* s, int c) {
  try {
    co_await s->body->consumer_run(c);
  } catch (const std::exception& e) {
    if (s->error.empty()) {
      s->error = "consumer " + std::to_string(c) + ": " + e.what();
    }
    s->env->close_transport();
  }
  s->consumers_done.count_down();
}

// ------------------------------------------------------------------ client --

namespace {

struct ClientState {
  const ClientOptions* opts;
  std::filesystem::path spill_root;
  std::uint64_t next_session = 0;
  ClientResult res;
};

constexpr std::size_t kMaxPooledSamples = 1u << 18;

void pool_latency(ClientResult& res, const std::vector<std::uint64_t>& add) {
  for (std::uint64_t v : add) {
    if (res.latency_ns.size() >= kMaxPooledSamples) return;
    res.latency_ns.push_back(v);
  }
}

void session_failed(ClientState& st, std::uint64_t sid,
                    const std::string& why) {
  ++st.res.sessions_failed;
  if (st.res.errors.size() < 8) {
    st.res.errors.push_back("session " + std::to_string(sid) + ": " + why);
  }
}

std::byte fill_byte(const BlockId& id) {
  return static_cast<std::byte>(
      (id.step * 131 + id.producer * 31 + id.index * 7) & 0xFF);
}

sim::Task client_session(exec::EpollExecutor& ex, ClientState& st,
                         std::uint64_t sid) {
  SessionSpec spec = st.opts->spec;
  spec.session_id = sid;
  const std::filesystem::path sdir =
      st.spill_root / ("s" + std::to_string(::getpid()) + "_" +
                       std::to_string(sid));
  spec.spill_dir = sdir.string();
  std::error_code fec;
  std::filesystem::create_directories(sdir, fec);
  if (fec) {
    session_failed(st, sid, "spill dir: " + fec.message());
    co_return;
  }

  std::string err;
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    session_failed(st, sid, std::string("socket: ") + std::strerror(errno));
    co_return;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(st.opts->port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (errno == EINPROGRESS) {
      if (!co_await ex.wait_writable(fd)) {
        err = "connect cancelled";
      } else {
        int soerr = 0;
        socklen_t len = sizeof(soerr);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
        if (soerr != 0) err = std::string("connect: ") + std::strerror(soerr);
      }
    } else {
      err = std::string("connect: ") + std::strerror(errno);
    }
  }

  if (err.empty()) {
    set_nodelay(fd);
    const int P = static_cast<int>(spec.producers);
    const int Q = static_cast<int>(spec.consumers);
    NetEnvConfig ec;
    ec.spill_dir = sdir;
    NetEnv env(ex, ec, Q);
    env.attach_wire(fd);
    BodyConfig bc = body_config_from(spec);
    bc.chaos = chaos_from(spec);
    if (st.opts->make_controller) {
      bc.controller = st.opts->make_controller();
      bc.control_interval = st.opts->control_interval;
    }
    ZipperBody<NetBinding> body(env, bc, P, Q);

    co_await env.write_frame(encode_hello(spec));
    for (int p = 0; p < P; ++p) body.spawn_producer_services(p);
    if (bc.controller) body.spawn_control();

    const int nb = spec.blocks_per_step();
    for (std::uint32_t step = 0;
         step < spec.steps && env.wire_error().empty(); ++step) {
      for (int p = 0; p < P; ++p) {
        for (int b = 0; b < nb; ++b) {
          NetEnv::ItemT it;
          it.h.id = BlockId{static_cast<std::int32_t>(step), p, b};
          it.h.offset = static_cast<std::uint64_t>(b) * spec.block_bytes;
          it.h.bytes = (b == nb - 1)
                           ? spec.step_bytes -
                                 static_cast<std::uint64_t>(nb - 1) *
                                     spec.block_bytes
                           : spec.block_bytes;
          auto blk = std::make_shared<Block>();
          blk->header = it.h;
          blk->payload.assign(it.h.bytes, fill_byte(it.h.id));
          it.payload = std::move(blk);
          co_await body.put(p, std::move(it));
        }
      }
    }
    for (int p = 0; p < P; ++p) body.producer_finalize(p);
    for (int p = 0; p < P; ++p) co_await body.wait_sender_done(p);
    if (bc.controller) {
      // control_main's in-flight tick completes within one interval of the
      // stop flag; wait it out so the body outlives its last snapshot.
      env.stop_control();
      co_await env.sleep(2 * bc.control_interval);
    }

    SessionSummary sum;
    if (env.wire_error().empty()) {
      FrameDecoder dec;
      std::optional<Frame> f;
      co_await read_one_frame(ex, fd, dec, f, err);
      if (err.empty()) {
        if (f->type != FrameType::kSummary) {
          err = "expected summary frame";
        } else {
          try {
            sum = decode_summary(f->body);
          } catch (const FrameError& e) {
            err = e.what();
          }
        }
      }
    } else {
      err = env.wire_error();
    }

    if (err.empty() && !sum.ok) {
      err = sum.error.empty() ? "daemon reported failure" : sum.error;
    }
    if (err.empty() && sum.blocks_analyzed != spec.expected_blocks()) {
      err = "daemon analyzed " + std::to_string(sum.blocks_analyzed) +
            " of " + std::to_string(spec.expected_blocks());
    }
    if (err.empty() && !env.io_error().empty()) err = env.io_error();

    exec::AggregateStats ag{};
    body.aggregate_into(ag);
    st.res.put_retries += ag.put_retries;
    st.res.blocks_spilled_slow += ag.blocks_spilled_slow;
    st.res.blocks_analyzed += sum.blocks_analyzed;
    st.res.blocks_from_network += sum.blocks_from_network;
    st.res.blocks_from_disk += sum.blocks_from_disk;
    pool_latency(st.res, sum.latency_ns);
  }

  ex.cancel_fd(fd);
  ::close(fd);
  std::filesystem::remove_all(sdir, fec);
  if (err.empty()) {
    ++st.res.sessions_ok;
  } else {
    session_failed(st, sid, err);
  }
}

sim::Task client_worker(exec::EpollExecutor& ex, ClientState& st) {
  while (st.next_session < st.opts->sessions) {
    const std::uint64_t sid = st.next_session++;
    co_await client_session(ex, st, sid);
  }
}

}  // namespace

std::uint64_t ClientResult::latency_percentile_ns(double q) const {
  if (latency_ns.empty()) return 0;
  std::vector<std::uint64_t> v = latency_ns;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

ClientResult run_client_load(const ClientOptions& opts) {
  exec::EpollExecutor ex;
  ClientState st;
  st.opts = &opts;
  st.spill_root = opts.spill_root;
  if (st.spill_root.empty()) {
    st.spill_root = std::filesystem::temp_directory_path() /
                    ("zipper_client_" + std::to_string(::getpid()));
  }
  std::error_code fec;
  std::filesystem::create_directories(st.spill_root, fec);

  const std::uint64_t workers =
      std::max<std::uint64_t>(1, std::min(opts.concurrency, opts.sessions));
  for (std::uint64_t w = 0; w < workers; ++w) {
    ex.spawn(client_worker(ex, st));
  }
  const sim::Time t0 = exec::EpollExecutor::raw_now();
  ex.run();
  st.res.duration_s =
      static_cast<double>(exec::EpollExecutor::raw_now() - t0) / 1e9;
  st.res.blocks_expected = opts.sessions * opts.spec.expected_blocks();
  return st.res;
}

}  // namespace zipper::core::zbody::net
