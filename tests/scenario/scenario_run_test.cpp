// End-to-end scenario subsystem guarantees: the default spec reproduces
// ScenarioConfig::paper() bit-identically, generator-driven specs are
// deterministic at any sweep thread count, time-varying traffic shows up
// in the offered-packets accounting, and a checkpoint written under one
// scenario hash refuses to resume under another.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "core/controller.hpp"
#include "lp/simplex.hpp"
#include "obs/profile.hpp"
#include "obs/registry.hpp"
#include "obs/timer.hpp"
#include "scenario/spec.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "util/check.hpp"

#include "../sim/metrics_testutil.hpp"

namespace gc::scenario {
namespace {

sim::Metrics run_config(const sim::ScenarioConfig& cfg, int slots,
                        const sim::SimOptions& opts = {}) {
  const core::NetworkModel model = cfg.build();
  core::LyapunovController controller(model, 3.0, cfg.controller_options());
  return sim::run_simulation(model, controller, slots, opts);
}

// ISSUE acceptance: the default spec (and hence
// examples/scenarios/paper_baseline.json, which is its resolved dump) is
// the paper scenario down to the last bit.
TEST(ScenarioRun, DefaultSpecReproducesPaperBitIdentically) {
  const ScenarioSpec spec = parse_scenario_json("{}");
  const sim::Metrics from_spec = run_config(spec.config, 30);
  const sim::Metrics paper = run_config(sim::ScenarioConfig::paper(), 30);
  expect_metrics_bit_identical(from_spec, paper);
}

// A generator-heavy spec (hex grid, clustered users, bursty traffic, wind
// renewables) must give bit-identical per-job Metrics whether the sweep
// runs on 1 worker or several: generation and traffic sampling are seeded
// per job, never from shared mutable state.
TEST(ScenarioRun, GeneratorScenarioDeterministicAcrossThreadCounts) {
  const ScenarioSpec spec = parse_scenario_json(R"({
    "topology": {
      "layout": "hex_grid",
      "cells": {"rows": 1, "cols": 2, "radius_m": 400},
      "users": {"count": 10, "placement": "clustered", "hotspots": 2}
    },
    "traffic": {"kind": "bursty", "sessions": 3, "block_slots": 4},
    "renewables": {"kind": "wind"}
  })");
  std::vector<sim::SimJob> jobs;
  for (int k = 0; k < 4; ++k) {
    sim::SimJob job;
    job.scenario = spec.config;
    job.slots = 8;
    job.sim.input_seed = 100 + static_cast<std::uint64_t>(k);
    jobs.push_back(job);
  }
  sim::SweepOptions serial_opts;
  serial_opts.threads = 1;
  sim::SweepRunner serial(serial_opts);
  const auto a = serial.run(jobs);
  sim::SweepOptions parallel_opts;
  parallel_opts.threads = 4;
  sim::SweepRunner parallel(parallel_opts);
  const auto b = parallel.run(jobs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k)
    expect_metrics_bit_identical(a[k], b[k]);
}

TEST(ScenarioRun, TimeVaryingTrafficChangesOfferedPackets) {
  const ScenarioSpec constant = parse_scenario_json("{}");
  const ScenarioSpec flash = parse_scenario_json(R"({
    "traffic": {"kind": "flash_crowd", "start_slot": 2,
                "duration_slots": 5, "spike_multiplier": 4.0}
  })");
  const sim::Metrics mc = run_config(constant.config, 10);
  const sim::Metrics mf = run_config(flash.config, 10);
  EXPECT_GT(mc.total_offered_packets, 0.0);
  EXPECT_GT(mf.total_offered_packets, mc.total_offered_packets)
      << "the spike slots must offer more than the constant baseline";
}

// Satellite 1: the checkpoint header carries the scenario hash, and
// resuming under a different spec is refused loudly instead of silently
// continuing a different experiment.
TEST(ScenarioRun, ResumeUnderDifferentScenarioHashIsRefused) {
  const ScenarioSpec spec = parse_scenario_json("{}");
  const std::uint64_t hash = scenario_hash(spec);
  const std::string ckpt =
      testing::TempDir() + "gc_scenario_hash_mismatch.ckpt";

  sim::SimOptions write_opts;
  write_opts.scenario_name = spec.name;
  write_opts.scenario_hash = hash;
  write_opts.checkpoint_path = ckpt;
  run_config(spec.config, 5, write_opts);

  sim::SimOptions mismatched;
  mismatched.scenario_hash = hash ^ 0xdeadbeefull;
  mismatched.resume_path = ckpt;
  EXPECT_THROW(run_config(spec.config, 10, mismatched), CheckError);

  sim::SimOptions matched;
  matched.scenario_hash = hash;
  matched.resume_path = ckpt;
  const sim::Metrics resumed = run_config(spec.config, 10, matched);
  EXPECT_EQ(resumed.slots, 10);
  std::remove(ckpt.c_str());
}

// Counts the "lp.solve" spans below `node`, split by whether a
// "controller.step" node encloses them.
void count_lp_solves(const obs::ProfileNode& node, bool under_step,
                     std::int64_t* inside, std::int64_t* outside) {
  for (const auto& [name, child] : node.children) {
    if (name == "lp.solve") *(under_step ? inside : outside) += child.count;
    count_lp_solves(child, under_step || name == "controller.step", inside,
                    outside);
  }
}

// Every LP a default run solves happens on the controller's thread inside
// its step, so a profile of a default flash-crowd run (spike included)
// attributes every lp.solve span under controller.step and re-roots none.
TEST(ScenarioRun, FlashCrowdProfileNestsEveryLpSolveUnderControllerStep) {
  const ScenarioSpec spec = load_scenario_file(
      std::string(GC_SCENARIO_EXAMPLES_DIR) + "/flash_crowd.json");
  auto& rec = obs::SpanRecorder::instance();
  rec.enable();
  run_config(spec.config, 60);
  const std::int64_t dropped = rec.dropped();
  const obs::Profile p = obs::build_profile(rec.drain());
  rec.disable();

  EXPECT_EQ(dropped, 0);
  EXPECT_EQ(p.orphans, 0);
  std::int64_t inside = 0, outside = 0;
  count_lp_solves(p.root, false, &inside, &outside);
  EXPECT_GT(inside, 0);
  EXPECT_EQ(outside, 0);
}

ScenarioSpec example_spec(const char* file) {
  return load_scenario_file(std::string(GC_SCENARIO_EXAMPLES_DIR) + "/" +
                            file);
}

// B of eq. (34), summed the way the paper writes it: for every session and
// node, the in/out link scans run again. The model hoists those scans out
// of the session loop; the constant must not move by a single bit.
double naive_drift_b(const core::NetworkModel& m) {
  const int n = m.num_nodes();
  double b1 = 0.0;
  for (int s = 0; s < m.num_sessions(); ++s)
    for (int i = 0; i < n; ++i) {
      double out_max = 0.0, in_max = 0.0;
      for (int j = 0; j < n; ++j) {
        if (j == i) continue;
        out_max = std::max(out_max, m.max_link_packets(i, j));
        in_max = std::max(in_max, m.max_link_packets(j, i));
      }
      out_max *= m.num_radios(i);
      in_max *= m.num_radios(i);
      const double admit = m.topology().is_base_station(i)
                               ? m.session(s).max_admit_packets
                               : 0.0;
      b1 += out_max * out_max + (in_max + admit) * (in_max + admit);
    }
  b1 *= 0.5;
  double b2 = 0.0;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const double v = m.beta() * m.max_link_packets_all_radios(i, j);
      b2 += v * v;
    }
  double b3 = 0.0;
  for (int i = 0; i < n; ++i) {
    const auto& b = m.node(i).battery;
    b3 += std::max(b.max_charge_j * b.max_charge_j,
                   b.max_discharge_j * b.max_discharge_j);
  }
  b3 *= 0.5;
  return b1 + b2 + b3;
}

TEST(ScenarioRun, DriftConstantBMatchesNaiveEq34) {
  for (const char* file : {"paper_baseline.json", "flash_crowd.json"}) {
    const core::NetworkModel model = example_spec(file).config.build();
    EXPECT_EQ(model.drift_constant_B(), naive_drift_b(model)) << file;
  }
}

// Sums every SolveStats record the controller's workspaces publish.
struct StatsTotals : lp::SolveStatsSink {
  double pivots = 0, bound_flips = 0, refactorizations = 0, iterations = 0;
  void on_solve(const lp::SolveStats& st, const char*) override {
    pivots += st.pivots;
    bound_flips += st.bound_flips;
    refactorizations += st.refactorizations;
    iterations += st.pivots + st.bound_flips;
  }
};

// SolveStats is the solver's one work count: the lp.* registry totals are
// added from it once per solve, so over a run they equal the sums a sink
// collects from the same solves.
TEST(ScenarioRun, LpCounterTotalsEqualSolveStatsSums) {
  const ScenarioSpec spec = example_spec("flash_crowd.json");
  const core::NetworkModel model = spec.config.build();
  StatsTotals sums;
  core::ControllerOptions copts = spec.config.controller_options();
  copts.lp_stats = &sums;
  core::LyapunovController controller(model, 3.0, copts);
  const char* names[] = {"lp.pivots", "lp.bound_flips", "lp.refactorizations",
                         "lp.iterations"};
  double before[4];
  for (int k = 0; k < 4; ++k)
    before[k] = obs::registry().counter(names[k]).total();
  sim::run_simulation(model, controller, 100);
  const double expected[] = {sums.pivots, sums.bound_flips,
                             sums.refactorizations, sums.iterations};
  EXPECT_GT(sums.pivots, 0.0);
  for (int k = 0; k < 4; ++k)
    EXPECT_EQ(obs::registry().counter(names[k]).total() - before[k],
              expected[k])
        << names[k];
}

}  // namespace
}  // namespace gc::scenario
