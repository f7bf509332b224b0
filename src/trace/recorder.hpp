// Span-based execution tracing — our stand-in for TAU / Intel Trace Analyzer.
//
// Ranks record (category, t0, t1) spans; the benches aggregate stall
// percentages (figures 4–6) and render ASCII Gantt snapshots (figures 17,
// 19). The recorder is deliberately dumb: a flat vector of spans, filtered on
// demand. The recorder itself does no locking: DES runs are single-threaded,
// and the epoll loop (zipperd, core/rt) records from its one thread.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace zipper::trace {

enum class Cat : std::uint8_t {
  kCompute,     // generic simulation compute
  kCollision,   // LBM collision kernel
  kStreaming,   // LBM streaming (MPI_Sendrecv halo exchange)
  kUpdate,      // LBM macroscopic update
  kPut,         // transport-level data output
  kGet,         // transport-level data input
  kLock,        // staging lock acquisition (DataSpaces/DIMES)
  kServerQuery, // metadata/staging server interaction
  kStall,       // application blocked by the coupling layer
  kTransfer,    // runtime-level network transfer
  kStore,       // write to the parallel file system
  kRead,        // read from the parallel file system
  kAnalysis,    // consumer-side analysis compute
  kWaitall,     // collective completion wait (Decaf PUT)
  kBarrier,     // explicit barrier
  kSteal,       // Zipper writer-thread work stealing
};

std::string_view cat_name(Cat c) noexcept;
char cat_glyph(Cat c) noexcept;

struct Span {
  std::int32_t rank;
  Cat cat;
  sim::Time t0;
  sim::Time t1;
};

class Recorder {
 public:
  explicit Recorder(bool enabled = true) : enabled_(enabled) {}

  void set_enabled(bool on) noexcept { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }

  void record(std::int32_t rank, Cat cat, sim::Time t0, sim::Time t1) {
    if (enabled_ && t1 > t0) spans_.push_back(Span{rank, cat, t0, t1});
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  void clear() { spans_.clear(); }

  /// Total recorded time for `cat` on `rank` (rank == -1: all ranks).
  sim::Time total(Cat cat, std::int32_t rank = -1) const;

  /// Spans overlapping [t0, t1) on `rank`, clipped to the window.
  std::vector<Span> window(std::int32_t rank, sim::Time t0, sim::Time t1) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span tied to a Simulation clock. Safe to hold across co_await — the
/// span simply covers all simulated time between construction & destruction.
class ScopedSpan {
 public:
  ScopedSpan(Recorder& rec, sim::Simulation& sim, std::int32_t rank, Cat cat)
      : rec_(&rec), sim_(&sim), rank_(rank), cat_(cat), t0_(sim.now()) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { rec_->record(rank_, cat_, t0_, sim_->now()); }

 private:
  Recorder* rec_;
  sim::Simulation* sim_;
  std::int32_t rank_;
  Cat cat_;
  sim::Time t0_;
};

/// Renders ranks' spans in [t0, t1) as an ASCII Gantt chart, one row per
/// rank, one glyph per time cell ('.' = idle). Later spans overwrite earlier
/// ones within a cell.
std::string render_gantt(const Recorder& rec, const std::vector<std::int32_t>& ranks,
                         sim::Time t0, sim::Time t1, int width = 100);

/// One-line legend matching render_gantt's glyphs for the given categories.
std::string gantt_legend(const std::vector<Cat>& cats);

}  // namespace zipper::trace
