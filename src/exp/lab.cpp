#include "exp/lab.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "exp/artifacts.hpp"
#include "exp/engine.hpp"

namespace zipper::exp {

int run_figure(const FigureDef& fig, const LabOptions& opts) {
  if (fig.run_tuned) return fig.run_tuned(fig, opts);
  auto specs = fig.scenarios(opts.full);
  if (opts.sim_threads > 1) {
    for (auto& s : specs) s.sim_threads = opts.sim_threads;
  }

  SweepOptions sweep;
  sweep.jobs = opts.jobs;
  if (opts.progress) {
    sweep.on_done = [](const ScenarioSpec& spec, const ScenarioResult& r,
                       std::size_t done, std::size_t total) {
      std::fprintf(stderr, "[%zu/%zu] %s%s\n", done, total, spec.label.c_str(),
                   r.crashed ? "  (crashed)" : "");
    };
  }
  const auto results = run_sweep(specs, sweep);

  const FigureContext ctx{specs, results, opts.full};
  fig.present(ctx);

  if (opts.write_artifacts) {
    std::error_code ec;
    std::filesystem::create_directories(opts.artifacts_dir, ec);
    const std::string stem = opts.artifacts_dir + "/" + fig.name;
    const bool csv_ok = write_file(stem + ".csv", to_csv(results));
    const bool json_ok = write_file(stem + ".json", to_json(results));
    if (!csv_ok || !json_ok) {
      std::fprintf(stderr, "error: failed to write artifacts under %s\n",
                   opts.artifacts_dir.c_str());
      return 1;
    }
    std::printf("\nartifacts: %s.csv, %s.json\n", stem.c_str(), stem.c_str());
  }
  return 0;
}

bool parse_jobs(const char* s, int* out) {
  // Eager validation (the PR-3 `zipper_lab sweep` style): reject empty
  // strings, trailing junk ("-jfoo", "-j 2x"), and out-of-range values
  // instead of letting atoi map them to a silent 0 -> clamped-to-1.
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || v > (1 << 20) ||
      v < -(1 << 20)) {
    return false;  // the magnitude bound also stops int-truncation wrap
  }
  *out = static_cast<int>(v);
  return true;
}

}  // namespace zipper::exp
