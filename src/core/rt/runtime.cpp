#include "core/rt/runtime.hpp"

#include <cassert>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/exec/epoll.hpp"
#include "core/exec/handoff.hpp"
#include "core/zipper/net_binding.hpp"

namespace zipper::core::rt {

namespace fs = std::filesystem;

using ItemT = zbody::Item<zbody::NetBinding>;

/// Everything on the loop thread, and the hand-offs into it: each producer's
/// inbox, drained by a pump that puts blocks into the body; each consumer's
/// one-block slot, filled by a pump once the consumer first reads; and
/// `stop`, whose close() makes the keeper tear the loop down.
struct Runtime::Loop {
  Loop(int num_producers, int num_consumers, zbody::NetEnvConfig ec,
       zbody::BodyConfig bc)
      : inbox_blocks(static_cast<std::size_t>(bc.producer_buffer_blocks)),
        env(ex, std::move(ec), num_consumers),
        body(env, std::move(bc), num_producers, num_consumers) {
    for (int c = 0; c < num_consumers; ++c) {
      slots.emplace_back(ex, 0);  // read() opens it
      body.spawn_consumer_services(c);
      ex.spawn(consumer_pump(c));
    }
    for (int p = 0; p < num_producers; ++p) {
      inboxes.emplace_back(ex, inbox_blocks);
      body.spawn_producer_services(p);
      ex.spawn(producer_pump(p));
    }
    body.spawn_control();
    ex.spawn(keeper());
    thread = std::jthread([this] {
      try {
        ex.run();
      } catch (...) {
        fail(std::current_exception());
      }
    });
  }

  // ------------------------------------------------------------ loop side --

  sim::Task producer_pump(int p) {
    auto& inbox = inboxes[static_cast<std::size_t>(p)];
    bool finishing = false;
    while (auto it = co_await inbox.recv()) {
      if (!it->payload) {  // finish()'s end-of-stream marker
        finishing = true;
        break;
      }
      // A put into a full buffer parks: a genuine stall. While it lasts,
      // write() may leave one more block in the inbox and then waits; the
      // rest of the time it runs up to a buffer's worth ahead of a busy loop.
      const bool stall = body.producer_buffer_full(p);
      if (stall) inbox.set_capacity(1);
      co_await body.put(p, std::move(*it));
      if (stall) inbox.set_capacity(inbox_blocks);
    }
    body.producer_finalize(p);
    if (!finishing) co_return;  // torn down
    // finish() returns once the sender drained the buffer, joined the writer
    // and flushed the end-of-stream messages.
    co_await body.wait_sender_done(p);
    throw_if_io_error();
    inbox.close();
  }

  sim::Task consumer_pump(int c) {
    auto& slot = slots[static_cast<std::size_t>(c)];
    // Fetch only into an empty, open slot, so one block at most leaves the
    // consumer buffer ahead of read(). Once teardown closed the slot,
    // space() returns at once and push() drops: the pump drains the consumer.
    while (true) {
      co_await slot.space();
      std::optional<ItemT> it;
      co_await body.consumer_next(c, it);
      if (!it) break;
      throw_if_io_error();  // never hand out a block that failed to read back
      slot.push(std::move(*it));
    }
    body.close_consumer_output(c);
    co_await body.wait_consumer_services(c);  // wait_idle() waits for this
    throw_if_io_error();
    slot.close();
  }

  sim::Task keeper() {
    co_await stop.recv();  // parks until ~Runtime closes `stop`
    // Senders of unfinished producers drop what is left instead of wedging
    // on a channel nobody drains; receivers end once the channels ran dry.
    env.close_transport();
    env.stop_control();
    for (auto& inbox : inboxes) inbox.close();  // pumps finalize producers
    for (auto& slot : slots) slot.close();      // pumps drain consumers
  }

  void throw_if_io_error() const {
    if (!env.io_error().empty()) throw std::runtime_error(env.io_error());
  }

  // ---------------------------------------------------------- thread side --

  /// The loop ended with an exception: every blocked application thread
  /// wakes up, finds `failure` set and rethrows it.
  void fail(std::exception_ptr e) {
    {
      std::lock_guard lk(m);
      failure = std::move(e);
    }
    for (auto& inbox : inboxes) inbox.close();
    for (auto& slot : slots) slot.close();
  }

  void throw_if_failed() {
    std::lock_guard lk(m);
    if (failure) std::rethrow_exception(failure);
  }

  const std::size_t inbox_blocks;  // = the producer buffer's capacity
  exec::EpollExecutor ex;
  zbody::NetEnv env;
  zbody::ZipperBody<zbody::NetBinding> body;
  std::deque<exec::Handoff<ItemT>> inboxes;  // per producer
  std::deque<exec::Handoff<ItemT>> slots;    // per consumer
  exec::Handoff<int> stop{ex, 1};
  std::mutex m;
  std::exception_ptr failure;  // what ended the loop early, if anything
  std::jthread thread;         // declared last: starts after the rest exists
};

// ---------------------------------------------------------------- endpoints --

void ProducerEndpoint::write(BlockId id, std::span<const std::byte> data,
                             std::uint64_t offset) {
  auto block = std::make_shared<Block>();
  block->header = BlockHeader{id, offset, data.size(), false};
  block->payload.assign(data.begin(), data.end());
  const BlockHeader h = block->header;
  Runtime::Loop& loop = *rt_->loop_;
  if (!loop.inboxes[static_cast<std::size_t>(index_)].put(
          ItemT{h, std::move(block)})) {
    loop.throw_if_failed();
    throw std::logic_error("write() after finish()");
  }
}

void ProducerEndpoint::finish() {
  assert(!finished_ && "finish() called twice");
  finished_ = true;
  Runtime::Loop& loop = *rt_->loop_;
  auto& inbox = loop.inboxes[static_cast<std::size_t>(index_)];
  inbox.put(ItemT{});  // no payload: the end-of-stream marker
  inbox.wait_closed();
  loop.throw_if_failed();
}

std::uint64_t ProducerEndpoint::suggested_block_bytes() {
  return rt_->loop_->body.suggested_block_bytes(index_);
}

ProducerStats ProducerEndpoint::stats() const {
  return rt_->loop_->body.producer_stats(index_);
}

std::shared_ptr<const Block> ConsumerEndpoint::read() {
  if (ended_) return nullptr;
  auto& slot = rt_->loop_->slots[static_cast<std::size_t>(index_)];
  if (!started_) {
    started_ = true;
    slot.set_capacity(1);
  }
  std::optional<ItemT> it = slot.take();
  if (!it) {
    ended_ = true;
    rt_->loop_->throw_if_failed();
    return nullptr;
  }
  return std::move(it->payload);
}

ConsumerStats ConsumerEndpoint::stats() const {
  return rt_->loop_->body.consumer_stats(index_);
}

// ------------------------------------------------------------------ runtime --

Runtime::Runtime(int num_producers, int num_consumers, Config config)
    : config_(std::move(config)) {
  assert(num_producers > 0 && num_consumers > 0);
  if (config_.spill_dir.empty()) {
    config_.spill_dir = fs::temp_directory_path() / "zipper_spill";
  }
  fs::create_directories(config_.spill_dir);
  if (config_.mode == Mode::kPreserve) {
    if (config_.preserve_dir.empty()) {
      config_.preserve_dir = fs::temp_directory_path() / "zipper_preserve";
    }
    fs::create_directories(config_.preserve_dir);
  }
  if (config_.chaos.any()) {
    chaos_ = std::make_shared<chaos::ChaosEngine>(
        config_.chaos, num_producers, num_consumers, config_.chaos_horizon_s);
  }

  zbody::NetEnvConfig ec;
  ec.spill_dir = config_.spill_dir;
  ec.preserve_dir = config_.preserve_dir;
  ec.preserve = config_.mode == Mode::kPreserve;
  ec.network_bandwidth = config_.network_bandwidth;
  ec.net_channel_blocks = config_.net_channel_blocks;
  ec.chaos_block_service_ns = config_.chaos_block_service_ns;
  ec.recorder = config_.recorder;

  zbody::BodyConfig bc;
  bc.block_bytes = config_.block_bytes;
  bc.producer_buffer_blocks = static_cast<int>(config_.producer_buffer_blocks);
  bc.high_water = config_.high_water;
  bc.enable_steal = config_.enable_steal;
  bc.preserve = config_.mode == Mode::kPreserve;
  bc.consumer_buffer_blocks = static_cast<int>(config_.consumer_buffer_blocks);
  bc.sched = config_.sched;
  bc.step_bytes = 0;  // the application chooses its own write() sizes
  // Trace-rank convention: producers are ranks 0..P-1, consumers P..P+Q-1.
  bc.first_producer_rank = 0;
  bc.first_consumer_rank = num_producers;
  bc.chaos = chaos_;
  bc.max_put_retries = config_.max_put_retries;
  bc.put_retry_backoff = config_.put_retry_backoff;
  bc.controller = config_.controller;
  bc.control_interval = config_.control_interval;

  consumers_.resize(static_cast<std::size_t>(num_consumers));
  for (int c = 0; c < num_consumers; ++c) {
    consumers_[static_cast<std::size_t>(c)].rt_ = this;
    consumers_[static_cast<std::size_t>(c)].index_ = c;
  }
  producers_.resize(static_cast<std::size_t>(num_producers));
  for (int p = 0; p < num_producers; ++p) {
    producers_[static_cast<std::size_t>(p)].rt_ = this;
    producers_[static_cast<std::size_t>(p)].index_ = p;
  }
  loop_ = std::make_unique<Loop>(num_producers, num_consumers, std::move(ec),
                                 std::move(bc));
}

const chaos::ChaosEngine* Runtime::chaos() const noexcept {
  return chaos_.get();
}

void Runtime::wait_idle() {
  for (auto& slot : loop_->slots) slot.wait_closed();
  loop_->throw_if_failed();
}

Runtime::~Runtime() {
  // The keeper closes every inbox and slot: pumps finalize unfinished
  // producers and drain consumers that stopped reading or never read, and
  // the loop runs until every coroutine has ended.
  loop_->stop.close();
  loop_->thread.join();
}

}  // namespace zipper::core::rt
