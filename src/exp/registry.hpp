// Named-scenario registry: every paper figure (and ablation) as a scenario
// set plus a presenter that renders the figure's narrative table.
//
// A FigureDef owns two functions: scenarios(full) produces the declarative
// specs (quick mode by default, --full for the paper-size matrix), and
// present() renders the measured results the way the original bench/fig*
// harness did — same tables, same paper-value columns, same shape checks.
// `zipper_lab run <fig>` goes through run_figure().
#pragma once

#include <string>
#include <vector>

#include "exp/scenario.hpp"

namespace zipper::exp {

struct FigureContext {
  const std::vector<ScenarioSpec>& specs;
  const std::vector<ScenarioResult>& results;
  bool full = false;

  /// Result lookup by label; nullptr when absent (e.g. skipped in quick mode).
  const ScenarioResult* find(const std::string& label) const;
};

struct LabOptions;  // lab.hpp

struct FigureDef {
  std::string name;    // registry key: "fig02", "ablation-block-size", ...
  std::string paper;   // "Figure 2", "Ablation", ...
  std::string title;   // one-line description for `zipper_lab list`
  std::string expect;  // the qualitative result to look for
  std::vector<ScenarioSpec> (*scenarios)(bool full);
  void (*present)(const FigureContext& ctx);
  // Non-null for tuner-backed figures (ablation_tune): run_figure delegates
  // here instead of the sweep-and-present path. scenarios() still returns
  // the tuner's base scenario so `list` counts and `analyze` work unchanged.
  int (*run_tuned)(const FigureDef& fig, const LabOptions& opts) = nullptr;
};

/// All registered figures, in paper order.
const std::vector<FigureDef>& registry();

/// Lookup by name; nullptr when unknown.
const FigureDef* find_figure(const std::string& name);

}  // namespace zipper::exp
