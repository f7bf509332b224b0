// Shared driver behind the zipper_lab CLI (`zipper_lab run <fig>`):
// expand a registered figure's scenarios, run them through the SweepEngine,
// present the narrative tables, and optionally write CSV/JSON artifacts.
#pragma once

#include <string>

#include "exp/registry.hpp"

namespace zipper::exp {

struct LabOptions {
  bool full = false;           // paper-size matrix instead of quick mode
  int jobs = 1;                // sweep threads
  bool write_artifacts = false;
  std::string artifacts_dir = "artifacts";
  bool progress = false;       // per-scenario progress lines to stderr
  // Sharded parallel DES: > 1 sets sim_threads on every expanded scenario
  // (exp/partition.hpp decides per spec whether sharding is provably safe).
  // Deliberately changes no label and adds no column — a run with any
  // --sim-threads value produces byte-identical artifacts.
  int sim_threads = 1;
};

/// Runs one registered figure end to end. Returns a process exit code.
int run_figure(const FigureDef& fig, const LabOptions& opts);

/// Strict `-j` value parser shared by every lab CLI entry point: rejects
/// trailing junk and out-of-range values instead of atoi's silent 0.
bool parse_jobs(const char* s, int* out);

}  // namespace zipper::exp
