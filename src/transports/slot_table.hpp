// Circular reader/writer slot synchronization — the coordination pattern
// behind DataSpaces'/DIMES' customized locks.
//
// The staging area holds `num_slots` step slots reused in FIFO order (the
// paper's `step % num_slots` lock-name trick). Writers of step k may proceed
// only once every reader of step k - num_slots released it (so unread data is
// never overwritten); readers of step k wait until all P writers deposited
// step k. With num_slots == 1 this degenerates into the strict
// writer-reader interlock the ADIOS uniform interface imposes. No mutex: all
// parties run on one Simulation and touch the counts between suspensions.
#pragma once

#include <map>

#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace zipper::transports {

class SlotTable {
 public:
  SlotTable(sim::Simulation& sim, int num_slots, int writers, int readers)
      : num_slots_(num_slots), writers_(writers), readers_(readers),
        cv_(sim) {}

  /// Blocks the writer until step's slot is recycled (lock_on_write).
  sim::Task writer_acquire(int step) {
    while (!write_allowed(step)) co_await cv_.wait();
  }

  /// Marks one writer of `step` done (unlock_on_write).
  void writer_release(int step) {
    ++writers_done_[step];
    cv_.notify_all();
  }

  /// Blocks the reader until all writers deposited `step` (lock_on_read).
  sim::Task reader_acquire(int step) {
    while (writers_done_[step] < writers_) co_await cv_.wait();
  }

  /// Marks one reader of `step` done; may recycle the slot for a waiting
  /// writer (unlock_on_read).
  void reader_release(int step) {
    ++readers_done_[step];
    cv_.notify_all();
  }

  int num_slots() const noexcept { return num_slots_; }

 private:
  bool write_allowed(int step) {
    const int recycled = step - num_slots_;
    return recycled < 0 || readers_done_[recycled] >= readers_;
  }

  int num_slots_, writers_, readers_;
  sim::SimCondVar cv_;
  std::map<int, int> writers_done_;
  std::map<int, int> readers_done_;
};

}  // namespace zipper::transports
