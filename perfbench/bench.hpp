// Shared pieces of the perfbench binary: workload set-up through the
// library's public entry points, and the traced runs (runs.cpp) that
// supply the per-layer numbers. See README.md for what each metric means.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "core/model.hpp"
#include "policy/sleep.hpp"
#include "scenario/spec.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

// Drift-plus-penalty weight of every run: greencell_sim's default --V.
inline constexpr double kV = 3.0;

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One workload as `greencell_sim --scenario SPEC` would run it, from the
// scenario file to the controller. The model sits behind a pointer because
// the controller and the prune map keep its address.
struct Instance {
  gc::scenario::ScenarioSpec spec;
  std::unique_ptr<gc::core::NetworkModel> model;
  gc::policy::SleepSetup sleep;
  std::unique_ptr<gc::core::LyapunovController> controller;
};

// Wall seconds of each set-up stage.
struct SetupTimes {
  double load_s = 0.0;
  double build_s = 0.0;
  double controller_s = 0.0;
  double total_s() const { return load_s + build_s + controller_s; }
};

Instance set_up(const std::string& spec_path, SetupTimes* times);

// The SimOptions every run uses: the input seed, the auditor forced on so
// the numbers do not depend on the obs build flavour, everything else at
// greencell_sim's defaults.
gc::sim::SimOptions sim_options(const Instance& inst, std::uint64_t input_seed);

// The per-slot series the timed and traced runs must agree on.
struct Series {
  std::vector<double> cost, grid_j, q_bs, q_users;
  bool operator==(const Series&) const = default;
};
Series series_of(const gc::sim::Metrics& m);

// Sums over the slots of traced runs. Times in seconds, counts as totals;
// README.md lists the layer behind each field.
struct LayerTotals {
  int slots = 0;
  double inputs_s = 0.0;
  double s2_s = 0.0;
  double s1_schedule_s = 0.0;
  double s1_candidates_s = 0.0;
  double s1_fill_in_s = 0.0;
  double s1_power_s = 0.0;
  double s3_s = 0.0;
  double s4_s = 0.0;
  double advance_s = 0.0;
  double step_s = 0.0;
  double audit_s = 0.0;
  double loop_s = 0.0;  // the whole traced loop, named layers or not
  double candidates = 0.0;
  double fill_in_candidates = 0.0;
  double s1_attempted_links = 0.0;  // S1's picks before power control
  double s1_scheduled_links = 0.0;  // links power control kept
  double routes = 0.0;
  double s1_lp_solves = 0.0;
  double s1_lp_iters = 0.0;
  double s4_lp_solves = 0.0;
  double s4_lp_iters = 0.0;
  double s4_lp_cols = 0.0;
  int mismatch_slots = 0;
  double audit_violations = 0.0;  // queue-bound plus battery-bound
  std::int64_t closed_windows = 0;
  std::int64_t unstable_windows = 0;

  // Time inside the named layers; the rest of loop_s is the harness.
  double named_s() const {
    return inputs_s + s2_s + s1_schedule_s + s1_candidates_s + s1_fill_in_s +
           s1_power_s + s3_s + s4_s + advance_s + step_s + audit_s;
  }
};

// Drives `slots` slots of `inst` itself: samples the inputs, replays S2,
// S1 (with the candidate and fill-in scans timed apart), power control,
// S3, S4 and the state advance on the controller's state with the
// controller's options, then calls controller.step and counts every slot
// whose replayed decision or next state differs from the applied one.
// Adds its sums into `totals`. `inject_mismatch_slot` (>= 0) perturbs that
// slot's replayed decision, which the tests use to prove the comparison
// bites.
void replay_run(Instance& inst, std::uint64_t input_seed, int slots,
                int inject_mismatch_slot, LayerTotals& totals, Series* series);

// run_simulation with the program's own span ring recording: sim.slot,
// controller.step and lp.solve spans, plus the lp.* registry counters.
struct SpanRunResult {
  gc::sim::Metrics metrics;
  double loop_s = 0.0;
  double slot_s = 0.0;                // sum of sim.slot spans
  std::vector<double> step_s;         // one controller.step span per slot
  double lp_solve_s = 0.0;            // sum of lp.solve spans
  double lp_solves = 0.0;
  double lp_iterations = 0.0;
  std::int64_t spans_dropped = 0;
  double degraded_slots = 0.0;
  double audit_violations = 0.0;
};
SpanRunResult span_run(Instance& inst, std::uint64_t input_seed, int slots);

}  // namespace perfbench
