// Checkpoint/resume (sim/checkpoint.hpp, docs/ROBUSTNESS.md): a run killed
// after a checkpoint and resumed in a fresh process-equivalent (new model,
// new controller, new RNG) must reproduce the uninterrupted run's Metrics
// series bit-identically.
#include "sim/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/controller.hpp"
#include "obs/registry.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "util/check.hpp"

#include "metrics_testutil.hpp"

namespace gc::sim {
namespace {

std::string tmp_path(const char* name) {
  return testing::TempDir() + "gc_checkpoint_test_" + name;
}

TEST(Checkpoint, SaveLoadRoundTripsBitExactly) {
  const auto cfg = ScenarioConfig::tiny();
  const auto model = cfg.build();
  core::LyapunovController controller(model, 3.0, cfg.controller_options());
  SimOptions opts;
  Metrics m = run_simulation(model, controller, 20, opts);
  Rng rng(opts.input_seed);

  const Checkpoint a =
      make_checkpoint(20, rng, controller, m, nullptr, nullptr);
  const std::string path = tmp_path("roundtrip.ckpt");
  save_checkpoint(a, path);
  const Checkpoint b = load_checkpoint(path);

  EXPECT_EQ(b.next_slot, a.next_slot);
  EXPECT_EQ(bits(b.last_grid_j), bits(a.last_grid_j));
  expect_series_bit_identical(b.q, a.q, "q");
  expect_series_bit_identical(b.gq, a.gq, "gq");
  expect_series_bit_identical(b.battery_capacity_j, a.battery_capacity_j,
                              "battery_capacity_j");
  expect_series_bit_identical(b.battery_level_j, a.battery_level_j,
                              "battery_level_j");
  EXPECT_FALSE(b.has_mobility);
  expect_metrics_bit_identical(b.metrics, a.metrics);
  std::remove(path.c_str());
}

TEST(Checkpoint, KillAndResumeStaticRunIsBitIdentical) {
  const auto cfg = ScenarioConfig::tiny();
  const int horizon = 100, kill_at = 40;
  const std::string ckpt = tmp_path("static.ckpt");

  // Reference: one uninterrupted run.
  const auto ref_model = cfg.build();
  core::LyapunovController ref_ctrl(ref_model, 3.0,
                                    cfg.controller_options());
  const Metrics ref = run_simulation(ref_model, ref_ctrl, horizon, {});

  // "Crashed" run: stops after kill_at slots, leaving its final checkpoint.
  {
    const auto model = cfg.build();
    core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
    SimOptions opts;
    opts.checkpoint_path = ckpt;
    run_simulation(model, ctrl, kill_at, opts);
  }

  // Resume in a fresh model/controller, as a restarted process would.
  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  SimOptions opts;
  opts.resume_path = ckpt;
  const Metrics resumed = run_simulation(model, ctrl, horizon, opts);

  expect_metrics_bit_identical(resumed, ref);
  std::remove(ckpt.c_str());
}

TEST(Checkpoint, KillAndResumeMobileRunIsBitIdentical) {
  const auto cfg = ScenarioConfig::tiny();
  const int horizon = 80, kill_at = 33;  // not a multiple of anything
  const std::string ckpt = tmp_path("mobile.ckpt");
  MobilityConfig mob;
  mob.speed_mps_lo = 0.5;
  mob.speed_mps_hi = 5.0;
  mob.area_m = cfg.area_m;

  auto ref_model = cfg.build();
  core::LyapunovController ref_ctrl(ref_model, 3.0,
                                    cfg.controller_options());
  const Metrics ref =
      run_simulation_mobile(ref_model, ref_ctrl, horizon, mob, {});

  {
    auto model = cfg.build();
    core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
    SimOptions opts;
    opts.checkpoint_path = ckpt;
    run_simulation_mobile(model, ctrl, kill_at, mob, opts);
  }

  auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  SimOptions opts;
  opts.resume_path = ckpt;
  const Metrics resumed =
      run_simulation_mobile(model, ctrl, horizon, mob, opts);

  expect_metrics_bit_identical(resumed, ref);
  std::remove(ckpt.c_str());
}

TEST(Checkpoint, PeriodicCheckpointsResumeFromTheLastOne) {
  const auto cfg = ScenarioConfig::tiny();
  const int horizon = 50;
  const std::string ckpt = tmp_path("periodic.ckpt");

  const auto ref_model = cfg.build();
  core::LyapunovController ref_ctrl(ref_model, 3.0,
                                    cfg.controller_options());
  const Metrics ref = run_simulation(ref_model, ref_ctrl, horizon, {});

  // A run with --checkpoint-every 7 exercises the periodic writes (after
  // slots 7, 14, 21, 28 — each atomically replacing the previous file)
  // before the final checkpoint at its 31-slot horizon replaces them.
  {
    const auto model = cfg.build();
    core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
    SimOptions opts;
    opts.checkpoint_path = ckpt;
    opts.checkpoint_every = 7;
    run_simulation(model, ctrl, 31, opts);
  }
  // The final checkpoint of the truncated run is at its horizon (31).
  EXPECT_EQ(load_checkpoint(ckpt).next_slot, 31);

  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  SimOptions opts;
  opts.resume_path = ckpt;
  const Metrics resumed = run_simulation(model, ctrl, horizon, opts);
  expect_metrics_bit_identical(resumed, ref);
  std::remove(ckpt.c_str());
}

// Solver introspection survives a crash: the S1 warm-start chain restarts
// cold at every slot, so the lp.warmstart_* counter totals of a killed +
// resumed run must equal the uninterrupted run's — the interruption falls
// on a slot boundary and no cross-slot solver state is (or may be) lost.
// Each leg runs through a single-threaded SweepRunner so its counters land
// in a private registry (worker threads resolve instruments fresh; the
// test's main thread could not be re-pointed after its first LP solve).
TEST(Checkpoint, WarmStartCountersReplayAcrossResume) {
  const int horizon = 60, kill_at = 25;
  const std::string ckpt = tmp_path("warm_counters.ckpt");

  auto make_job = [](int slots) {
    SimJob job;
    job.scenario = ScenarioConfig::tiny();
    job.V = 3.0;
    job.slots = slots;
    return job;
  };
  auto sweep_one = [](const SimJob& job, obs::Registry* reg) {
    SweepOptions opt;
    opt.threads = 1;
    opt.merge_into = reg;
    SweepRunner(opt).run({job});
  };

  obs::Registry ref_reg;
  sweep_one(make_job(horizon), &ref_reg);

  obs::Registry resumed_reg;  // accumulates both legs
  SimJob first = make_job(kill_at);
  first.sim.checkpoint_path = ckpt;
  sweep_one(first, &resumed_reg);
  SimJob second = make_job(horizon);
  second.sim.resume_path = ckpt;
  sweep_one(second, &resumed_reg);

  // The warm trio is typically all-zero here (the SF relaxation's packing
  // structure solves integrally in one pass on stock scenarios), but the
  // equality must hold regardless — a resume that replayed warm state
  // differently would break it the day a scenario does go multi-pass. The
  // other introspection counters are hot on every slot and pin the replay
  // non-vacuously.
  for (const char* name :
       {"lp.solves", "lp.iterations", "lp.phase1_iterations",
        "lp.phase2_iterations", "lp.degenerate_pivots", "lp.numeric_repairs",
        "lp.warmstart_attempted", "lp.warmstart_accepted",
        "lp.warmstart_vars_reused"}) {
    EXPECT_EQ(ref_reg.counter(name).total(),
              resumed_reg.counter(name).total())
        << name;
  }
  EXPECT_GT(ref_reg.counter("lp.solves").total(), 0.0);
  EXPECT_GT(ref_reg.counter("lp.phase1_iterations").total(), 0.0);
  std::remove(ckpt.c_str());
}

TEST(Checkpoint, LoadRejectsMissingFileBadMagicAndTruncation) {
  EXPECT_THROW(load_checkpoint(tmp_path("no_such_file.ckpt")), CheckError);

  const std::string bad_magic = tmp_path("bad_magic.ckpt");
  {
    std::ofstream out(bad_magic, std::ios::binary);
    out << "NOTGCCK1 some trailing bytes that are long enough";
  }
  EXPECT_THROW(load_checkpoint(bad_magic), CheckError);
  std::remove(bad_magic.c_str());

  // A valid checkpoint with its tail torn off (crash mid-copy) must be
  // rejected, not half-loaded.
  const auto cfg = ScenarioConfig::tiny();
  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  const Metrics m = run_simulation(model, ctrl, 5, {});
  Rng rng(7);
  const std::string good = tmp_path("good.ckpt");
  save_checkpoint(make_checkpoint(5, rng, ctrl, m, nullptr, nullptr), good);
  std::ifstream in(good, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  const std::string torn = tmp_path("torn.ckpt");
  {
    std::ofstream out(torn, std::ios::binary);
    out.write(data.data(), static_cast<std::streamsize>(data.size() / 2));
  }
  EXPECT_THROW(load_checkpoint(torn), CheckError);
  std::remove(good.c_str());
  std::remove(torn.c_str());
}

// Satellite: corruption fuzz. Every truncation point and every single-byte
// flip of a valid v3 checkpoint must surface as a typed CheckpointError
// (which is-a CheckError) — never a crash, hang, or silent half-load. The
// v3 header (magic, version, payload size, CRC-32 over the payload) leaves
// no byte uncovered.
TEST(Checkpoint, FuzzTruncationAndByteFlipsAlwaysThrowTyped) {
  const auto cfg = ScenarioConfig::tiny();
  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  const Metrics m = run_simulation(model, ctrl, 8, {});
  Rng rng(7);
  const std::string good = tmp_path("fuzz_base.ckpt");
  save_checkpoint(make_checkpoint(8, rng, ctrl, m, nullptr, nullptr), good);
  std::ifstream in(good, std::ios::binary);
  const std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(data.size(), 24u);

  const std::string victim = tmp_path("fuzz_victim.ckpt");
  const auto write_victim = [&](const std::string& bytes) {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  // Truncation sweep: every prefix (stepping 7 to keep the test fast, plus
  // the always-interesting header boundaries) must be rejected.
  std::vector<std::size_t> cuts = {0, 1, 7, 8, 12, 20, 23, 24,
                                   data.size() - 1};
  for (std::size_t cut = 25; cut + 7 < data.size(); cut += 7)
    cuts.push_back(cut);
  for (const std::size_t cut : cuts) {
    write_victim(data.substr(0, cut));
    EXPECT_THROW(load_checkpoint(victim), CheckpointError) << "cut=" << cut;
  }

  // Byte-flip sweep: the header is covered field-by-field, the payload by
  // the CRC; a flip anywhere must be caught.
  for (std::size_t pos = 0; pos < data.size();
       pos += (pos < 28 ? 1 : 11)) {
    std::string flipped = data;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x40);
    write_victim(flipped);
    EXPECT_THROW(load_checkpoint(victim), CheckpointError) << "pos=" << pos;
  }

  // Trailing garbage after a valid image is corruption too (a torn rename
  // can concatenate files).
  write_victim(data + "extra");
  EXPECT_THROW(load_checkpoint(victim), CheckpointError);

  std::remove(good.c_str());
  std::remove(victim.c_str());
}

// Rotation (sim::CheckpointRotator): keeps the newest N generations plus a
// manifest; load_newest_valid picks the newest loadable one.
TEST(Checkpoint, RotatorKeepsNewestGenerationsAndManifest) {
  const auto cfg = ScenarioConfig::tiny();
  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  const Metrics m = run_simulation(model, ctrl, 5, {});
  Rng rng(7);
  const std::string base = tmp_path("rotate.ckpt");
  for (const auto& g : list_generations(base)) std::remove(g.file.c_str());
  std::remove((base + ".manifest").c_str());

  CheckpointRotator rotator(base, /*keep=*/2);
  for (int slot = 1; slot <= 4; ++slot) {
    Checkpoint c = make_checkpoint(slot, rng, ctrl, m, nullptr, nullptr);
    rotator.write(c);
  }
  const std::vector<GenerationInfo> gens = list_generations(base);
  ASSERT_EQ(gens.size(), 2u);  // pruned down to the newest two
  EXPECT_EQ(gens[0].generation, 3);
  EXPECT_EQ(gens[0].slot, 3);
  EXPECT_EQ(gens[1].generation, 4);
  EXPECT_EQ(gens[1].slot, 4);
  // Pruned generation files are actually gone.
  EXPECT_FALSE(std::ifstream(base + ".gen1").good());
  EXPECT_FALSE(std::ifstream(base + ".gen2").good());

  const auto sel = load_newest_valid(base);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->checkpoint.next_slot, 4);
  EXPECT_EQ(sel->skipped_corrupt, 0);

  // A new rotator over the same base continues the numbering rather than
  // colliding with surviving generations.
  CheckpointRotator reopened(base, 2);
  Checkpoint c = make_checkpoint(9, rng, ctrl, m, nullptr, nullptr);
  reopened.write(c);
  const auto after = list_generations(base);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[1].generation, 5);
  EXPECT_EQ(after[1].slot, 9);

  for (const auto& g : list_generations(base)) std::remove(g.file.c_str());
  std::remove((base + ".manifest").c_str());
}

TEST(Checkpoint, LoadNewestValidFallsBackPastCorruptGenerations) {
  const auto cfg = ScenarioConfig::tiny();
  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  const Metrics m = run_simulation(model, ctrl, 5, {});
  Rng rng(7);
  const std::string base = tmp_path("fallback.ckpt");
  for (const auto& g : list_generations(base)) std::remove(g.file.c_str());
  std::remove((base + ".manifest").c_str());

  CheckpointRotator rotator(base, 3);
  for (int slot = 1; slot <= 3; ++slot) {
    Checkpoint c = make_checkpoint(slot, rng, ctrl, m, nullptr, nullptr);
    rotator.write(c);
  }
  // Corrupt the newest generation; the selection must fall back to gen2
  // and report the skip.
  {
    std::ofstream out(base + ".gen3",
                      std::ios::binary | std::ios::trunc);
    out << "garbage";
  }
  const auto sel = load_newest_valid(base);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->checkpoint.next_slot, 2);
  EXPECT_EQ(sel->source.generation, 2);
  EXPECT_EQ(sel->skipped_corrupt, 1);

  // A stale manifest is advisory: delete it and selection still works off
  // the directory scan.
  std::remove((base + ".manifest").c_str());
  const auto scanned = load_newest_valid(base);
  ASSERT_TRUE(scanned.has_value());
  EXPECT_EQ(scanned->checkpoint.next_slot, 2);

  // All generations corrupt -> a typed error naming the base.
  for (const auto& g : list_generations(base)) {
    std::ofstream out(g.file, std::ios::binary | std::ios::trunc);
    out << "junk";
  }
  EXPECT_THROW(load_newest_valid(base), CheckpointError);

  for (const auto& g : list_generations(base)) std::remove(g.file.c_str());

  // No generations at all -> nullopt (the caller decides whether a fresh
  // start is acceptable).
  EXPECT_FALSE(load_newest_valid(tmp_path("nothing.ckpt")).has_value());
}

// Rotated periodic checkpoints resume bit-identically through run_loop,
// exactly like the single-file path.
TEST(Checkpoint, RotatedResumeIsBitIdentical) {
  const auto cfg = ScenarioConfig::tiny();
  const int horizon = 60, kill_at = 27;
  const std::string base = tmp_path("rotated_resume.ckpt");
  for (const auto& g : list_generations(base)) std::remove(g.file.c_str());
  std::remove((base + ".manifest").c_str());

  const auto ref_model = cfg.build();
  core::LyapunovController ref_ctrl(ref_model, 3.0,
                                    cfg.controller_options());
  const Metrics ref = run_simulation(ref_model, ref_ctrl, horizon, {});

  {
    const auto model = cfg.build();
    core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
    SimOptions opts;
    opts.checkpoint_path = base;
    opts.checkpoint_every = 10;
    opts.checkpoint_rotate = 2;
    run_simulation(model, ctrl, kill_at, opts);
  }

  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  SimOptions opts;
  opts.resume_path = base;
  opts.checkpoint_rotate = 2;
  const Metrics resumed = run_simulation(model, ctrl, horizon, opts);
  expect_metrics_bit_identical(resumed, ref);

  for (const auto& g : list_generations(base)) std::remove(g.file.c_str());
  std::remove((base + ".manifest").c_str());
}

// The version gate must name BOTH the version it found and the one this
// build supports, so an operator reading the refusal knows the file is
// stale rather than corrupt. The version check runs before the CRC, so a
// byte-patched header needs no re-checksum to reach it.
TEST(Checkpoint, VersionRefusalNamesFoundAndSupportedVersions) {
  const auto cfg = ScenarioConfig::tiny();
  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  const Metrics m = run_simulation(model, ctrl, 5, {});
  Rng rng(7);
  const std::string path = tmp_path("old_version.ckpt");
  save_checkpoint(make_checkpoint(5, rng, ctrl, m, nullptr, nullptr), path);

  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  // The u32 format version sits right after the 8-byte magic
  // (little-endian); rewrite v7 -> v6 to fake a checkpoint that still
  // carries the retired cross-slot warm-start section.
  ASSERT_EQ(data[8], 7);
  data[8] = 6;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  try {
    load_checkpoint(path);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unsupported checkpoint version 6"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("reads v7"), std::string::npos) << msg;
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
  }
  std::remove(path.c_str());
}

// v5: the sleep-policy section round trips bit-exactly, and a presence
// mismatch (policy checkpoint into a policy-free run, or vice versa) is
// refused instead of silently replaying a different network.
TEST(Checkpoint, PolicySectionRoundTripsAndPresenceMismatchIsRefused) {
  const auto cfg = ScenarioConfig::tiny();
  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  const Metrics m = run_simulation(model, ctrl, 6, {});

  policy::SleepSetup setup;
  setup.config.policy = policy::SleepPolicy::Threshold;
  setup.config.sleep_threshold = 5.0;
  setup.config.min_dwell_slots = 0;
  setup.config.min_awake_bs = 1;
  setup.bs.assign(2, {});
  // A fresh controller (zero backlog) drives the mode machine — the
  // 6-slot run above left ctrl's queues above the sleep threshold.
  core::LyapunovController pctrl(model, 3.0, cfg.controller_options());
  policy::SleepController sleep(model, setup, 3.0);
  Rng rng(7);
  {
    core::SlotInputs inputs = model.sample_inputs(0, rng);
    sleep.decide(0, pctrl.state(), inputs);  // idle network: BS 1 sleeps
  }
  ASSERT_EQ(sleep.mode(1), policy::SleepController::Mode::Sleeping);
  pctrl.mutable_state().set_q(0, 0, 50.0);
  {
    core::SlotInputs inputs = model.sample_inputs(1, rng);
    sleep.decide(1, pctrl.state(), inputs);  // backlog: BS 1 is mid-wake
  }
  ASSERT_EQ(sleep.mode(1), policy::SleepController::Mode::Waking);

  const std::string path = tmp_path("policy.ckpt");
  save_checkpoint(
      make_checkpoint(2, rng, ctrl, m, nullptr, nullptr, nullptr, &sleep),
      path);
  const Checkpoint b = load_checkpoint(path);
  ASSERT_TRUE(b.has_policy);
  const policy::SleepControllerState snap = sleep.snapshot();
  EXPECT_EQ(b.policy_state.mode, snap.mode);
  EXPECT_EQ(b.policy_state.dwell, snap.dwell);
  EXPECT_EQ(b.policy_state.wake_countdown, snap.wake_countdown);
  EXPECT_EQ(b.policy_state.switches, snap.switches);
  EXPECT_EQ(bits(b.policy_state.switch_energy_j),
            bits(snap.switch_energy_j));
  EXPECT_EQ(b.policy_state.sleep_slots, snap.sleep_slots);

  core::LyapunovController ctrl2(model, 3.0, cfg.controller_options());
  Metrics m2;
  Rng rng2(1);
  // Policy checkpoint into a policy-free resume: refused.
  EXPECT_THROW(restore_checkpoint(b, rng2, ctrl2, m2, nullptr, nullptr,
                                  nullptr, nullptr),
               CheckError);
  // Policy-free checkpoint into a policy-driven resume: refused too.
  const Checkpoint plain =
      make_checkpoint(2, rng, ctrl, m, nullptr, nullptr);
  policy::SleepController sleep2(model, setup, 3.0);
  EXPECT_THROW(restore_checkpoint(plain, rng2, ctrl2, m2, nullptr, nullptr,
                                  nullptr, &sleep2),
               CheckError);
  // The matching pair restores and the machine continues mid-wake.
  restore_checkpoint(b, rng2, ctrl2, m2, nullptr, nullptr, nullptr, &sleep2);
  EXPECT_EQ(sleep2.mode(1), policy::SleepController::Mode::Waking);
  EXPECT_EQ(sleep2.switch_count(), sleep.switch_count());
  std::remove(path.c_str());
}

// Kill+resume through run_loop with an active sleep policy: the resumed
// run's Metrics AND policy counters must match the uninterrupted run's.
TEST(Checkpoint, KillAndResumePolicyRunIsBitIdentical) {
  const auto cfg = ScenarioConfig::tiny();
  policy::SleepSetup setup;
  setup.config.policy = policy::SleepPolicy::Hysteresis;
  setup.config.sleep_threshold = 2.0;
  setup.config.wake_threshold = 8.0;
  setup.bs.assign(2, {});
  const int horizon = 80, kill_at = 33;
  const std::string ckpt = tmp_path("policy_resume.ckpt");

  const auto ref_model = cfg.build();
  core::LyapunovController ref_ctrl(ref_model, 3.0,
                                    cfg.controller_options());
  SimOptions ref_opts;
  ref_opts.sleep = &setup;
  const Metrics ref = run_simulation(ref_model, ref_ctrl, horizon, ref_opts);

  {
    const auto model = cfg.build();
    core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
    SimOptions opts;
    opts.sleep = &setup;
    opts.checkpoint_path = ckpt;
    run_simulation(model, ctrl, kill_at, opts);
  }
  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  SimOptions opts;
  opts.sleep = &setup;
  opts.resume_path = ckpt;
  const Metrics resumed = run_simulation(model, ctrl, horizon, opts);

  expect_metrics_bit_identical(resumed, ref);
  // The policy aggregates are re-derived from the restored controller, so
  // they only match if the v5 section actually carried the counters.
  EXPECT_EQ(resumed.policy_awake_bs, ref.policy_awake_bs);
  EXPECT_EQ(resumed.policy_switches, ref.policy_switches);
  EXPECT_EQ(bits(resumed.policy_switch_energy_j),
            bits(ref.policy_switch_energy_j));
  EXPECT_EQ(resumed.policy_sleep_slots, ref.policy_sleep_slots);
  std::remove(ckpt.c_str());
}

// v6: the alert-engine state rides the checkpoint, so a resumed run's
// debounce counters and fire/clear edges replay exactly.
TEST(Checkpoint, AlertStateRoundTripsThroughV6) {
  const auto cfg = ScenarioConfig::tiny();
  const auto model = cfg.build();
  core::LyapunovController controller(model, 3.0, cfg.controller_options());
  SimOptions opts;
  Metrics m = run_simulation(model, controller, 10, opts);
  Rng rng(opts.input_seed);

  // Rules that hold without any registry instrument (an absent metric
  // reads 0, and 0 < 1 holds), so the state is deterministic.
  obs::AlertRule fires;
  fires.name = "fires";
  fires.metric = "no.such.metric";
  fires.op = obs::AlertRule::Op::kLess;
  fires.threshold = 1.0;
  obs::AlertRule slow = fires;
  slow.name = "slow";
  slow.for_slots = 7;
  obs::AlertEngine engine({fires, slow});
  const obs::Registry reg;
  engine.rebase(reg);
  for (int t = 0; t < 3; ++t) engine.evaluate(reg, t, nullptr);
  ASSERT_EQ(engine.firing(), 1);  // "slow" held only 3/7 slots

  const Checkpoint a = make_checkpoint(10, rng, controller, m, nullptr,
                                       nullptr, nullptr, nullptr, &engine);
  EXPECT_TRUE(a.has_alerts);
  const std::string path = tmp_path("alerts.ckpt");
  save_checkpoint(a, path);
  const Checkpoint b = load_checkpoint(path);
  ASSERT_TRUE(b.has_alerts);
  EXPECT_EQ(b.alert_state.rules_hash, engine.rules_hash());
  EXPECT_EQ(b.alert_state.total_fires, 1u);
  ASSERT_EQ(b.alert_state.rules.size(), 2u);
  EXPECT_TRUE(b.alert_state.rules[0].firing);
  EXPECT_EQ(b.alert_state.rules[1].hold, 3u);

  // Restored into a fresh engine, the debounce picks up mid-count: four
  // more holding slots fire the second rule exactly on schedule.
  obs::AlertEngine resumed({fires, slow});
  Rng rng2(opts.input_seed);
  Metrics m2;
  core::LyapunovController ctrl2(model, 3.0, cfg.controller_options());
  restore_checkpoint(b, rng2, ctrl2, m2, nullptr, nullptr, nullptr,
                     nullptr, &resumed);
  resumed.rebase(reg);
  EXPECT_EQ(resumed.firing(), 1);
  EXPECT_EQ(resumed.total_fires(), 1u);
  for (int t = 3; t < 6; ++t) resumed.evaluate(reg, t, nullptr);
  EXPECT_EQ(resumed.firing(), 1);
  resumed.evaluate(reg, 6, nullptr);
  EXPECT_EQ(resumed.firing(), 2);
  std::remove(path.c_str());
}

// Resuming under an edited rule set is refused: silently replaying
// different alerts from old debounce state would be worse than restarting
// the engine.
TEST(Checkpoint, AlertRulesHashMismatchIsRefused) {
  const auto cfg = ScenarioConfig::tiny();
  const auto model = cfg.build();
  core::LyapunovController controller(model, 3.0, cfg.controller_options());
  SimOptions opts;
  Metrics m = run_simulation(model, controller, 5, opts);
  Rng rng(opts.input_seed);

  obs::AlertRule r;
  r.name = "r";
  r.metric = "m";
  r.threshold = 1.0;
  obs::AlertEngine engine({r});
  const Checkpoint c = make_checkpoint(5, rng, controller, m, nullptr,
                                       nullptr, nullptr, nullptr, &engine);

  obs::AlertRule edited = r;
  edited.threshold = 2.0;
  obs::AlertEngine other({edited});
  Rng rng2(opts.input_seed);
  Metrics m2;
  core::LyapunovController ctrl2(model, 3.0, cfg.controller_options());
  EXPECT_THROW(restore_checkpoint(c, rng2, ctrl2, m2, nullptr, nullptr,
                                  nullptr, nullptr, &other),
               CheckError);
}

// Unlike mobility/policy, an alert-section presence mismatch is tolerated:
// alert state never affects Metrics, so turning rules on (or off) across a
// restart just restarts the engine's accumulators.
TEST(Checkpoint, AlertPresenceMismatchIsTolerated) {
  const auto cfg = ScenarioConfig::tiny();
  const auto model = cfg.build();
  core::LyapunovController controller(model, 3.0, cfg.controller_options());
  SimOptions opts;
  Metrics m = run_simulation(model, controller, 5, opts);
  Rng rng(opts.input_seed);

  // Alert-free checkpoint resumed by an alerting run: engine untouched.
  const Checkpoint plain =
      make_checkpoint(5, rng, controller, m, nullptr, nullptr);
  EXPECT_FALSE(plain.has_alerts);
  obs::AlertRule r;
  r.name = "r";
  r.metric = "m";
  obs::AlertEngine engine({r});
  {
    Rng rng2(opts.input_seed);
    Metrics m2;
    core::LyapunovController ctrl2(model, 3.0, cfg.controller_options());
    restore_checkpoint(plain, rng2, ctrl2, m2, nullptr, nullptr, nullptr,
                       nullptr, &engine);
    EXPECT_EQ(engine.total_fires(), 0u);
  }
  // Alerting checkpoint resumed by an alert-free run: section ignored.
  const Checkpoint alerting = make_checkpoint(
      5, rng, controller, m, nullptr, nullptr, nullptr, nullptr, &engine);
  EXPECT_TRUE(alerting.has_alerts);
  {
    Rng rng2(opts.input_seed);
    Metrics m2;
    core::LyapunovController ctrl2(model, 3.0, cfg.controller_options());
    restore_checkpoint(alerting, rng2, ctrl2, m2, nullptr, nullptr);
  }
}

TEST(Checkpoint, ResumeBeyondHorizonIsRejected) {
  const auto cfg = ScenarioConfig::tiny();
  const std::string ckpt = tmp_path("beyond.ckpt");
  {
    const auto model = cfg.build();
    core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
    SimOptions opts;
    opts.checkpoint_path = ckpt;
    run_simulation(model, ctrl, 20, opts);
  }
  const auto model = cfg.build();
  core::LyapunovController ctrl(model, 3.0, cfg.controller_options());
  SimOptions opts;
  opts.resume_path = ckpt;
  EXPECT_THROW(run_simulation(model, ctrl, /*slots=*/10, opts), CheckError);
  std::remove(ckpt.c_str());
}

}  // namespace
}  // namespace gc::sim
