// greencell_sim: command-line driver for the online energy-cost-minimizing
// controller. See --help (tools/cli_options.cpp) for every flag.
//
//   $ greencell_sim --users 30 --V 4 --slots 200 --csv run.csv
//   $ greencell_sim --slots 200 --trace run.jsonl --report
//   $ greencell_sim --multihop 0 --renewables 0 --quiet   # legacy baseline
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>

#include "cli_options.hpp"
#include "core/controller.hpp"
#include "fault/fault_schedule.hpp"
#include "lp/solve_log.hpp"
#include "obs/alerts.hpp"
#include "obs/events.hpp"
#include "obs/http_exporter.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/timer.hpp"
#include "policy/sleep.hpp"
#include "scenario/spec.hpp"
#include "sim/checkpoint.hpp"
#include "sim/simulator.hpp"
#include "sim/supervisor.hpp"
#include "sim/sweep.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/fsio.hpp"
#include "util/stats.hpp"

namespace {

// End-of-run observability: subproblem wall-time breakdown, then every
// registered counter and timer.
void print_report(const gc::sim::Metrics& m) {
  const gc::core::SlotTimings& t = m.timing;
  std::printf("\n-- report: subproblem time breakdown --\n");
  std::printf("  %-16s%12s%12s%9s\n", "subproblem", "total_ms", "mean_ms",
              "share");
  const double step = t.step_s > 0.0 ? t.step_s : 1e-30;
  const int slots = m.slots > 0 ? m.slots : 1;
  const struct {
    const char* name;
    double s;
  } rows[] = {{"S1 scheduling", t.s1_s},
              {"S2 admission", t.s2_s},
              {"S3 routing", t.s3_s},
              {"S4 energy", t.s4_s},
              {"step total", t.step_s}};
  for (const auto& r : rows)
    std::printf("  %-16s%12.3f%12.4f%8.1f%%\n", r.name, r.s * 1e3,
                r.s * 1e3 / slots, 100.0 * r.s / step);
  std::printf("  (S1+S2+S3+S4 cover %.1f%% of step time)\n",
              100.0 * t.subproblem_total_s() / step);
  std::printf("\n-- report: registry --\n%s",
              gc::obs::render_report(gc::obs::registry()).c_str());
}

int run(const gc::cli::Options& opt);
int run_attempt(const gc::cli::Options& opt, int crash_restarts,
                bool supervised);

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  const gc::cli::ParseResult parsed = gc::cli::parse_args(args);
  if (!parsed.options) {
    std::fprintf(stderr, "error: %s\n\n%s", parsed.error.c_str(),
                 gc::cli::usage().c_str());
    return 2;
  }
  if (parsed.options->help) {
    std::fputs(gc::cli::usage().c_str(), stdout);
    return 0;
  }
  const gc::cli::Options& opt = *parsed.options;
  try {
    return run(opt);
  } catch (const gc::CheckError& e) {
    // Unopenable trace/CSV paths and --validate violations land here.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

namespace {

// --csv output for one run's per-slot series.
void write_csv(const std::string& path, const gc::sim::Metrics& m) {
  gc::CsvWriter csv(path, {"t", "cost", "grid_j", "q_bs", "q_users",
                           "battery_bs_j", "battery_users_j"});
  for (int t = 0; t < m.slots; ++t)
    csv.row({static_cast<double>(t + 1), m.cost[t], m.grid_j[t], m.q_bs[t],
             m.q_users[t], m.battery_bs_j[t], m.battery_users_j[t]});
}

std::string seed_suffixed(const std::string& path, int k) {
  return path.empty() ? path : path + ".seed" + std::to_string(k);
}

// Ordered directed links the architecture allows — the profile's topology
// size next to num_nodes (how wide the S1/S3 subproblems can get).
int count_allowed_links(const gc::core::NetworkModel& model) {
  int links = 0;
  for (int i = 0; i < model.num_nodes(); ++i)
    for (int j = 0; j < model.num_nodes(); ++j)
      if (i != j && model.link_allowed(i, j)) ++links;
  return links;
}

gc::obs::ProfileMeta make_profile_meta(const gc::cli::Options& opt,
                                       const gc::core::NetworkModel& model,
                                       int slots, double wall_s,
                                       long long dropped) {
  gc::obs::ProfileMeta meta;
  meta.scenario = opt.scenario_name;
  meta.nodes = model.num_nodes();
  meta.links = count_allowed_links(model);
  if (const gc::net::LinkPruneMap* prune = model.pruned_links())
    meta.links_pruned = prune->pruned_links();
  meta.sessions = model.num_sessions();
  meta.slots = slots;
  meta.wall_s = wall_s;
  meta.slots_per_s = wall_s > 0.0 ? slots / wall_s : 0.0;
  meta.spans_dropped = dropped;
  return meta;
}

void write_profile_files(const std::string& path, const gc::obs::Profile& p) {
  gc::obs::write_text_atomic(path, p.to_json(), "profile");
  gc::obs::write_text_atomic(path + ".collapsed", p.to_collapsed(),
                             "collapsed profile");
}

// The wall time of one sweep job = its sweep.job span (recorded around the
// whole run_job call on the worker thread).
double job_wall_s(const std::vector<gc::obs::SpanEvent>& events) {
  for (const gc::obs::SpanEvent& e : events)
    if (std::strcmp(e.name, "sweep.job") == 0) return e.dur_s;
  return 0.0;
}

// Stamps the run's sleep-policy identity and counters into a profile's
// meta (no-op for policy-free runs, keeping the artifact byte-stable).
void stamp_policy_meta(gc::obs::ProfileMeta& meta, const gc::cli::Options& opt,
                       const gc::sim::Metrics& m) {
  if (m.policy_awake_bs < 0) return;
  meta.policy = gc::policy::sleep_policy_name(opt.scenario.bs_sleep.policy);
  meta.policy_switches = static_cast<std::int64_t>(m.policy_switches);
  meta.policy_switch_energy_j = m.policy_switch_energy_j;
  meta.policy_sleep_slots = static_cast<std::int64_t>(m.policy_sleep_slots);
}

// --spans / --profile for a single run: drain the ring once, export the
// Chrome trace and/or the attribution tree from the same event list.
void export_single_run_obs(const gc::cli::Options& opt,
                           const gc::core::NetworkModel& model,
                           const gc::sim::Metrics& m, double wall_s) {
  if (opt.spans_path.empty() && opt.profile_path.empty()) return;
  gc::obs::SpanRecorder& rec = gc::obs::SpanRecorder::instance();
  const long long dropped = static_cast<long long>(rec.dropped());
  const std::vector<gc::obs::SpanEvent> events = rec.drain();
  if (!opt.spans_path.empty()) {
    gc::obs::write_chrome_trace(opt.spans_path, events);
    if (!opt.quiet) {
      std::printf("spans written to %s", opt.spans_path.c_str());
      if (dropped > 0)
        std::printf(" (ring buffer dropped %lld oldest spans)", dropped);
      std::printf("\n");
    }
  }
  if (!opt.profile_path.empty()) {
    gc::obs::Profile p = gc::obs::build_profile(events);
    p.meta = make_profile_meta(opt, model, m.slots, wall_s, dropped);
    stamp_policy_meta(p.meta, opt, m);
    write_profile_files(opt.profile_path, p);
    if (!opt.quiet)
      std::printf("profile written to %s (+.collapsed)\n",
                  opt.profile_path.c_str());
  }
}

// --spans / --profile for a sweep: one drain, partitioned by enclosing
// sweep.job span. The combined artifacts land at the given paths, each
// replicate's slice at PATH.seed<k> (the snapshot convention); the merged
// profile is a deterministic fold in seed order.
void export_sweep_obs(const gc::cli::Options& opt,
                      const gc::core::NetworkModel& model,
                      const std::vector<gc::sim::Metrics>& runs) {
  if (opt.spans_path.empty() && opt.profile_path.empty()) return;
  gc::obs::SpanRecorder& rec = gc::obs::SpanRecorder::instance();
  const long long dropped = static_cast<long long>(rec.dropped());
  const std::vector<gc::obs::SpanEvent> events = rec.drain();
  const std::map<std::int64_t, std::vector<gc::obs::SpanEvent>> by_job =
      gc::obs::partition_spans_by_job(events);

  if (!opt.spans_path.empty()) {
    gc::obs::write_chrome_trace(opt.spans_path, events);
    for (const auto& [job, slice] : by_job) {
      if (job < 0) continue;  // spans outside any job: combined file only
      gc::obs::write_chrome_trace(
          seed_suffixed(opt.spans_path, static_cast<int>(job)), slice);
    }
    if (!opt.quiet) {
      std::printf("spans written to %s, per-seed at %s.seed<k>",
                  opt.spans_path.c_str(), opt.spans_path.c_str());
      if (dropped > 0)
        std::printf(" (ring buffer dropped %lld oldest spans)", dropped);
      std::printf("\n");
    }
  }

  if (!opt.profile_path.empty()) {
    gc::obs::Profile merged;
    for (int k = 0; k < opt.seeds; ++k) {
      const auto it = by_job.find(k);
      if (it == by_job.end()) continue;  // ring drops can evict whole jobs
      gc::obs::Profile p = gc::obs::build_profile(it->second);
      const int slots =
          k < static_cast<int>(runs.size()) ? runs[k].slots : 0;
      // Per-seed drop attribution is unknowable (one shared ring), so the
      // merged profile carries the total and the slices carry zero.
      p.meta =
          make_profile_meta(opt, model, slots, job_wall_s(it->second), 0);
      if (k < static_cast<int>(runs.size()))
        stamp_policy_meta(p.meta, opt, runs[k]);
      write_profile_files(seed_suffixed(opt.profile_path, k), p);
      merged.merge_from(p);
    }
    merged.meta.spans_dropped = dropped;
    write_profile_files(opt.profile_path, merged);
    if (!opt.quiet)
      std::printf(
          "profile written to %s (+.collapsed), per-seed at %s.seed<k>\n",
          opt.profile_path.c_str(), opt.profile_path.c_str());
  }
}

// --seeds N > 1: N replicates over input seeds S..S+N-1, fanned out
// through the parallel sweep engine; per-seed lines plus an aggregate
// mean/min/max summary. Per-seed results are bit-identical at any
// --threads value (sim/sweep.hpp).
int run_replicates(const gc::cli::Options& opt,
                   const gc::fault::FaultSchedule* faults,
                   const gc::policy::SleepSetup* sleep,
                   const gc::core::NetworkModel& model, int crash_restarts,
                   bool supervised) {
  // Per-seed LP solve logs: each job gets its own sink and file (one
  // shared file would interleave replicates), kept alive past the sweep.
  std::vector<std::unique_ptr<gc::lp::JsonlSolveLog>> lp_logs;
  std::vector<gc::sim::SimJob> jobs;
  for (int k = 0; k < opt.seeds; ++k) {
    gc::sim::SimJob job;
    job.scenario = opt.scenario;
    // Run parameter, not a scenario-JSON field: applied on top of whatever
    // scenario the replicate runs (see ScenarioConfig::link_prune).
    job.scenario.link_prune = opt.link_prune;
    job.V = opt.V;
    job.slots = opt.slots;
    job.sim.input_seed = opt.input_seed + static_cast<std::uint64_t>(k);
    job.sim.validate = opt.validate;
    job.sim.trace_path = seed_suffixed(opt.trace_path, k);
    job.sim.trace_top_k = opt.trace_top_k;
    job.sim.strict_bounds = opt.strict_bounds;
    job.sim.snapshot_path = seed_suffixed(opt.snapshot_path, k);
    job.sim.snapshot_every = opt.snapshot_every;
    job.sim.scenario_name = opt.scenario_name;
    job.sim.scenario_hash = opt.scenario_hash;
    job.sim.scenario_structural_hash = opt.scenario_structural_hash;
    job.sim.faults = faults;
    job.sim.sleep = sleep;
    // Per-seed checkpoints: each replicate rotates its own generations at
    // BASE.seed<k>. A supervised sweep attempt auto-resumes every seed
    // from its own base — seeds that already finished reload their final
    // checkpoint and return instantly, so a crashed sweep only redoes the
    // interrupted replicates' tails.
    job.sim.checkpoint_path = seed_suffixed(opt.checkpoint_path, k);
    job.sim.checkpoint_every = opt.checkpoint_every;
    job.sim.checkpoint_rotate = opt.checkpoint_rotate;
    if (supervised) {
      job.sim.resume_path = job.sim.checkpoint_path;
      job.sim.resume_auto = true;
      job.sim.sink_resume = true;
      job.sim.process_kill_skip = crash_restarts;
    }
    gc::core::ControllerOptions copts = opt.scenario.controller_options();
    if (!opt.lp_log_path.empty()) {
      const std::string lp_path = seed_suffixed(opt.lp_log_path, k);
      bool append = false;
      if (supervised) {
        // Same contract as the single-run path: cut the crashed attempt's
        // log back to this seed's checkpointed slot, then append.
        int resume_slot = 0;
        if (opt.checkpoint_rotate > 0) {
          const auto sel = gc::sim::load_newest_valid(job.sim.resume_path);
          if (sel.has_value()) resume_slot = sel->checkpoint.next_slot;
        } else if (std::ifstream(job.sim.resume_path).good()) {
          resume_slot =
              gc::sim::load_checkpoint(job.sim.resume_path).next_slot;
        }
        const gc::util::JsonlTruncation cut =
            gc::util::truncate_jsonl_to_slot(lp_path, "slot", resume_slot);
        append = cut.existed && cut.kept_lines > 0;
      }
      lp_logs.push_back(
          std::make_unique<gc::lp::JsonlSolveLog>(lp_path, append));
      copts.lp_stats = lp_logs.back().get();
      job.sim.lp_sink = lp_logs.back().get();
    }
    job.controller = copts;
    if (opt.mobility_mps > 0.0) {
      gc::sim::MobilityConfig mob;
      mob.speed_mps_lo = 0.0;
      mob.speed_mps_hi = opt.mobility_mps;
      mob.area_m = opt.scenario.area_m;
      job.mobility = mob;
    }
    jobs.push_back(job);
  }

  gc::sim::SweepOptions sweep_opts;
  sweep_opts.threads = opt.threads;
  sweep_opts.snapshot_path = opt.snapshot_path;
  gc::sim::SweepRunner runner(sweep_opts);
  const std::vector<gc::sim::Metrics> runs = runner.run(jobs);

  if (!opt.quiet)
    std::printf(
        "replicate sweep: %d seeds (%llu..%llu), %d worker thread(s)\n",
        opt.seeds, static_cast<unsigned long long>(opt.input_seed),
        static_cast<unsigned long long>(opt.input_seed + opt.seeds - 1),
        runner.threads());
  gc::RunningStat cost, delivered, delay, backlog;
  for (int k = 0; k < opt.seeds; ++k) {
    const gc::sim::Metrics& m = runs[k];
    const double final_backlog =
        m.slots == 0 ? 0.0 : m.q_bs.back() + m.q_users.back();
    cost.add(m.cost_avg.average());
    delivered.add(m.total_delivered_packets);
    delay.add(m.average_delay_slots());
    backlog.add(final_backlog);
    std::printf("seed=%llu avg_cost=%.6g delivered=%.0f delay=%.2f "
                "backlog=%.0f\n",
                static_cast<unsigned long long>(opt.input_seed + k),
                m.cost_avg.average(), m.total_delivered_packets,
                m.average_delay_slots(), final_backlog);
    if (!opt.csv_path.empty()) write_csv(seed_suffixed(opt.csv_path, k), m);
  }
  std::printf("aggregate avg_cost mean=%.6g min=%.6g max=%.6g\n",
              cost.mean(), cost.min(), cost.max());
  std::printf("aggregate delivered mean=%.1f min=%.0f max=%.0f\n",
              delivered.mean(), delivered.min(), delivered.max());
  std::printf("aggregate delay mean=%.2f min=%.2f max=%.2f\n", delay.mean(),
              delay.min(), delay.max());
  std::printf("aggregate backlog mean=%.1f min=%.0f max=%.0f\n",
              backlog.mean(), backlog.min(), backlog.max());
  if (!runs.empty() && runs.front().policy_awake_bs >= 0) {
    unsigned long long switches = 0, asleep = 0;
    double switch_j = 0.0;
    for (const auto& m : runs) {
      switches += m.policy_switches;
      asleep += m.policy_sleep_slots;
      switch_j += m.policy_switch_energy_j;
    }
    std::printf(
        "aggregate policy (%s): switches=%llu switch_energy_j=%.1f "
        "sleep_bs_slots=%llu\n",
        gc::policy::sleep_policy_name(opt.scenario.bs_sleep.policy), switches,
        switch_j, asleep);
  }
  if (!opt.quiet) {
    if (!opt.csv_path.empty())
      std::printf("per-seed CSVs written to %s.seed<k>\n",
                  opt.csv_path.c_str());
    if (!opt.trace_path.empty())
      std::printf("per-seed traces written to %s.seed<k>\n",
                  opt.trace_path.c_str());
    if (!opt.snapshot_path.empty())
      std::printf("fleet snapshot at %s (+.prom), per-seed at %s.seed<k>\n",
                  opt.snapshot_path.c_str(), opt.snapshot_path.c_str());
    if (!opt.lp_log_path.empty())
      std::printf("per-seed LP solve logs written to %s.seed<k>\n",
                  opt.lp_log_path.c_str());
    if (!opt.checkpoint_path.empty())
      std::printf("per-seed checkpoints written to %s.seed<k>\n",
                  opt.checkpoint_path.c_str());
  }
  export_sweep_obs(opt, model, runs);
  if (opt.report) {
    // Worker registries were merged into the global registry by the sweep,
    // so the report covers all replicates; per-run timing is summed.
    gc::sim::Metrics total;
    for (const auto& m : runs) {
      total.slots += m.slots;
      total.timing.s1_s += m.timing.s1_s;
      total.timing.s2_s += m.timing.s2_s;
      total.timing.s3_s += m.timing.s3_s;
      total.timing.s4_s += m.timing.s4_s;
      total.timing.step_s += m.timing.step_s;
    }
    print_report(total);
  }
  return 0;
}

// Crash-safe service mode (docs/ROBUSTNESS.md "Operating long runs"):
// --supervise runs each attempt in a forked child; crashes restart it from
// the newest valid checkpoint, SIGHUP hot-reloads the scenario.
int run(const gc::cli::Options& opt) {
  if (!opt.supervise) return run_attempt(opt, 0, false);
  gc::sim::SupervisorOptions sup_opts;
  sup_opts.max_restarts = opt.max_restarts;
  sup_opts.backoff_ms = opt.restart_backoff_ms;
  sup_opts.quiet = opt.quiet;
  // Event-journal lifecycle hooks: restart / hot_reload lines come from
  // the PARENT (the process that survives the crash). Each hook first
  // resolves the slot the next attempt will resume from — the same cut the
  // child will make — so the crashed attempt's dead journal tail never
  // buries the lifecycle line.
  int reloads_seen = 0;
  if (!opt.events_path.empty()) {
    const auto parent_resume_slot = [&opt]() {
      try {
        if (opt.checkpoint_rotate > 0) {
          const auto sel = gc::sim::load_newest_valid(opt.checkpoint_path);
          return sel.has_value() ? sel->checkpoint.next_slot : 0;
        }
        if (std::ifstream(opt.checkpoint_path).good())
          return gc::sim::load_checkpoint(opt.checkpoint_path).next_slot;
      } catch (const gc::CheckError&) {
        // An unreadable checkpoint means the child starts over from 0.
      }
      return 0;
    };
    sup_opts.on_crash_restart = [&opt, parent_resume_slot](int restarts) {
      const int cut = parent_resume_slot();
      gc::obs::append_lifecycle_event(opt.events_path, cut,
                                      gc::obs::EventKind::kRestart, cut,
                                      restarts);
    };
    sup_opts.on_reload = [&opt, &reloads_seen, parent_resume_slot]() {
      const int cut = parent_resume_slot();
      gc::obs::append_lifecycle_event(opt.events_path, cut,
                                      gc::obs::EventKind::kHotReload, cut,
                                      ++reloads_seen);
    };
  }
  gc::sim::RunSupervisor supervisor(sup_opts);
  const gc::sim::SupervisorOutcome outcome =
      supervisor.run([&](int crash_restarts) {
        try {
          return run_attempt(opt, crash_restarts, true);
        } catch (const gc::CheckError& e) {
          // A deterministic failure: print it here (the child's stderr is
          // the user's stderr) and exit nonzero so the supervisor does
          // not retry it.
          std::fprintf(stderr, "error: %s\n", e.what());
          return 1;
        }
      });
  if (!opt.quiet && (outcome.crash_restarts > 0 || outcome.reloads > 0))
    std::printf("supervisor: %d crash restart(s), %d reload(s)%s\n",
                outcome.crash_restarts, outcome.reloads,
                outcome.gave_up ? "; gave up" : "");
  return outcome.exit_code;
}

// Scenario hot-reload: re-read the swap file and accept it only when the
// structural fields (topology, energy model, algorithm) are untouched —
// traffic shape and tariff may change. Refusals name the first differing
// structural field.
gc::scenario::ScenarioSpec load_swapped_scenario(
    const gc::cli::Options& opt) {
  gc::scenario::ScenarioSpec swapped =
      gc::scenario::load_scenario_file(opt.reload_scenario_path);
  if (gc::scenario::scenario_structural_hash(swapped) !=
      opt.scenario_structural_hash) {
    const gc::scenario::ScenarioSpec original =
        gc::scenario::load_scenario_file(opt.scenario_path);
    const std::string field =
        gc::scenario::first_structural_difference(original, swapped);
    GC_CHECK_MSG(false,
                 "--reload-scenario " << opt.reload_scenario_path
                     << ": structural field \"" << field
                     << "\" differs from " << opt.scenario_path
                     << "; only traffic shape and tariff may be swapped at "
                        "a reload (docs/ROBUSTNESS.md)");
  }
  return swapped;
}

int run_attempt(const gc::cli::Options& opt_in, int crash_restarts,
                bool supervised) {
  const gc::cli::Options& opt = opt_in;
  // --print-scenario: dump the resolved spec (whether it came from a
  // --scenario file or from shaping flags) as canonical JSON and exit.
  if (opt.print_scenario) {
    gc::scenario::ScenarioSpec spec;
    spec.name = opt.scenario_name;
    spec.config = opt.scenario;
    std::fputs(gc::scenario::to_json(spec).c_str(), stdout);
    return 0;
  }

  // Resolve the active scenario: a supervised attempt with a reload file
  // swaps it in (structurally checked) on every (re)start, so a SIGHUP
  // restart picks up edits without losing checkpointed progress.
  gc::sim::ScenarioConfig active_scenario = opt.scenario;
  std::string active_name = opt.scenario_name;
  std::uint64_t active_hash = opt.scenario_hash;
  bool scenario_swapped = false;
  if (supervised && !opt.reload_scenario_path.empty()) {
    const gc::scenario::ScenarioSpec swapped = load_swapped_scenario(opt);
    active_scenario = swapped.config;
    active_name = swapped.name;
    active_hash = gc::scenario::scenario_hash(swapped);
    scenario_swapped = true;
    if (!opt.quiet && active_hash != opt.scenario_hash)
      std::printf("scenario swapped in from %s (%s)\n",
                  opt.reload_scenario_path.c_str(),
                  gc::scenario::hash_hex(active_hash).c_str());
  }

  // Performance levers ride on top of the scenario (they are run
  // parameters, never part of the spec or its hash).
  active_scenario.link_prune = opt.link_prune;

  gc::core::NetworkModel model = active_scenario.build();
  // Per-BS sleep parameters (src/policy), expanded from the scenario's
  // bs.tiers / bs.sleep blocks plus any --policy overrides. Plain data; it
  // must outlive the run (SimOptions holds a pointer) and is shared
  // read-only across replicate jobs.
  const gc::policy::SleepSetup sleep_setup = active_scenario.sleep_setup();
  gc::core::ControllerOptions controller_opts =
      active_scenario.controller_options();

  // A supervised attempt always auto-resumes from the checkpoint base (a
  // crash may have landed before the first checkpoint existed, so the
  // base may legitimately name nothing). Pre-resolve the resume slot here:
  // the lp-log sink is constructed before the run and must be truncated
  // back to the checkpointed slot for a resumed run's log to be
  // byte-identical to an uninterrupted one's.
  std::string resume_path = opt.resume_path;
  int resume_slot = 0;
  if (supervised) {
    resume_path = opt.checkpoint_path;
    if (opt.checkpoint_rotate > 0) {
      const auto sel = gc::sim::load_newest_valid(resume_path);
      if (sel.has_value()) resume_slot = sel->checkpoint.next_slot;
    } else if (std::ifstream(resume_path).good()) {
      resume_slot = gc::sim::load_checkpoint(resume_path).next_slot;
    }
  }

  // --lp-log (single run; replicate sweeps attach one per seed inside
  // run_replicates): stream every simplex solve's SolveStats as JSONL.
  std::unique_ptr<gc::lp::JsonlSolveLog> lp_log;
  if (!opt.lp_log_path.empty() && opt.seeds == 1) {
    bool append = false;
    if (supervised) {
      const gc::util::JsonlTruncation cut = gc::util::truncate_jsonl_to_slot(
          opt.lp_log_path, "slot", resume_slot);
      append = cut.existed && cut.kept_lines > 0;
    }
    lp_log =
        std::make_unique<gc::lp::JsonlSolveLog>(opt.lp_log_path, append);
    controller_opts.lp_stats = lp_log.get();
  }
  gc::core::LyapunovController controller(model, opt.V, controller_opts);
  gc::sim::SimOptions sim_opts;
  sim_opts.input_seed = opt.input_seed;
  sim_opts.validate = opt.validate;
  sim_opts.trace_path = opt.trace_path;
  sim_opts.scenario_name = active_name;
  sim_opts.scenario_hash = active_hash;
  sim_opts.scenario_structural_hash = opt.scenario_structural_hash;
  sim_opts.allow_swapped_scenario = scenario_swapped;
  sim_opts.trace_top_k = opt.trace_top_k;
  sim_opts.sleep = &sleep_setup;
  sim_opts.checkpoint_path = opt.checkpoint_path;
  sim_opts.checkpoint_every = opt.checkpoint_every;
  sim_opts.checkpoint_rotate = opt.checkpoint_rotate;
  sim_opts.resume_path = resume_path;
  sim_opts.resume_auto = supervised;
  sim_opts.sink_resume = supervised;
  sim_opts.process_kill_skip = crash_restarts;
  sim_opts.lp_sink = lp_log.get();
  bool interrupted = false;
  sim_opts.interrupted = &interrupted;
  sim_opts.strict_bounds = opt.strict_bounds;
  sim_opts.snapshot_path = opt.snapshot_path;
  sim_opts.snapshot_every = opt.snapshot_every;

  // Any checkpointing run gets signal-safe graceful shutdown: the first
  // SIGTERM/SIGINT finishes the slot, writes a checkpoint, flushes every
  // sink and exits cleanly; the second one kills the process.
  if (supervised || !opt.checkpoint_path.empty())
    gc::sim::install_shutdown_signals();

  // Both the Chrome trace and the profile feed off the same span ring.
  if (!opt.spans_path.empty() || !opt.profile_path.empty())
    gc::obs::SpanRecorder::instance().enable();

  gc::fault::FaultSchedule faults(model.num_nodes(), opt.input_seed);
  if (!opt.faults_path.empty()) {
    faults = gc::fault::FaultSchedule::from_json_file(opt.faults_path,
                                                      model.num_nodes());
    sim_opts.faults = &faults;
  }

  // Replicate sweep: fan the seeds out and aggregate (the FaultSchedule is
  // read-only during runs, so sharing it across jobs is safe).
  if (opt.seeds > 1)
    return run_replicates(opt, sim_opts.faults, &sleep_setup, model,
                          crash_restarts, supervised);

  // Live operations trio (docs/OBSERVABILITY.md "Operating live runs").
  // All single-run-only (rejected with --seeds > 1 at parse) and
  // Metrics-neutral: a run with all three attached is bit-identical to
  // the same run without them. The journal's sink opens under the same
  // resume-slot contract as the lp-log above; a non-supervised run (cut
  // 0) starts it fresh, exactly like the trace.
  gc::obs::EventJournal events;
  if (!opt.events_path.empty()) {
    const gc::obs::EventSinkResume er =
        events.open_sink(opt.events_path, supervised ? resume_slot : -1);
    if (!opt.quiet && er.existed && er.kept_lines > 0)
      std::printf("event journal resumed: kept %lld line(s), dropped %lld, "
                  "next seq %llu\n",
                  static_cast<long long>(er.kept_lines),
                  static_cast<long long>(er.dropped_lines),
                  static_cast<unsigned long long>(er.next_seq));
    sim_opts.events = &events;
  }

  std::unique_ptr<gc::obs::AlertEngine> alerts;
  if (!opt.alerts_path.empty()) {
    alerts = std::make_unique<gc::obs::AlertEngine>(
        gc::obs::AlertEngine::from_json_file(opt.alerts_path));
    sim_opts.alerts = alerts.get();
  }

  // The exporter runs in THIS process — under --supervise that is the
  // child, which owns the registry the endpoints serve; each restarted
  // attempt re-binds (and, for --metrics-port 0, re-publishes) its port.
  std::unique_ptr<gc::obs::HttpExporter> exporter;
  if (opt.metrics_port >= 0) {
    exporter = std::make_unique<gc::obs::HttpExporter>(opt.metrics_port,
                                                       sim_opts.events);
    if (!opt.metrics_port_file.empty())
      gc::obs::write_text_atomic(opt.metrics_port_file,
                                 std::to_string(exporter->port()) + "\n",
                                 "metrics port file");
    if (!opt.quiet)
      std::printf("metrics exporter listening on http://127.0.0.1:%d\n",
                  exporter->port());
    sim_opts.exporter = exporter.get();
  }
  sim_opts.restart_count = crash_restarts;

  gc::sim::Metrics m;
  const gc::obs::StopWatch run_watch;
  if (opt.mobility_mps > 0.0) {
    gc::sim::MobilityConfig mob;
    mob.speed_mps_lo = 0.0;
    mob.speed_mps_hi = opt.mobility_mps;
    mob.area_m = active_scenario.area_m;
    m = gc::sim::run_simulation_mobile(model, controller, opt.slots, mob,
                                       sim_opts);
  } else {
    m = gc::sim::run_simulation(model, controller, opt.slots, sim_opts);
  }
  const double run_wall_s = run_watch.elapsed_seconds();

  if (interrupted) {
    // Graceful shutdown: the run checkpointed and flushed at the slot
    // boundary; report where it stopped and exit cleanly (a supervised
    // parent treats exit 0 + termination flag as "done").
    if (!opt.quiet)
      std::printf("interrupted at slot %d of %d; checkpoint %s holds the "
                  "state — resume with --resume (or restart --supervise)\n",
                  m.slots, opt.slots, opt.checkpoint_path.c_str());
    return 0;
  }

  if (!opt.csv_path.empty()) write_csv(opt.csv_path, m);

  // A --slots 0 dry run leaves every series empty; report zeros.
  const bool empty = m.slots == 0;
  const double final_backlog = empty ? 0.0 : m.q_bs.back() + m.q_users.back();
  const double final_battery_bs = empty ? 0.0 : m.battery_bs_j.back();
  const double final_battery_users = empty ? 0.0 : m.battery_users_j.back();

  if (!opt.quiet) {
    if (!opt.scenario_path.empty())
      std::printf("scenario spec: %s (%s) from %s\n", active_name.c_str(),
                  gc::scenario::hash_hex(active_hash).c_str(),
                  scenario_swapped ? opt.reload_scenario_path.c_str()
                                   : opt.scenario_path.c_str());
    std::printf("scenario: %d users, %d sessions @ %.0f kbps, %s, %s, V=%g\n",
                active_scenario.num_users, active_scenario.num_sessions,
                active_scenario.session_rate_bps / 1e3,
                active_scenario.multihop ? "multi-hop" : "one-hop",
                active_scenario.renewables ? "renewables" : "grid-only",
                opt.V);
    std::printf("slots:                %d\n", m.slots);
    std::printf("avg energy cost:      %.6g\n", m.cost_avg.average());
    // Offered = what the (possibly time-varying) traffic model actually
    // presented this run, so the percentage is meaningful under diurnal /
    // bursty / flash-crowd workloads too.
    std::printf("delivered packets:    %.0f (%.1f%% of offered)\n",
                m.total_delivered_packets,
                100.0 * m.total_delivered_packets /
                    std::max(1.0, m.total_offered_packets));
    // Little's-law delay over a transient is meaningless (a 20-slot run of
    // a growing backlog "reports" thousands of slots), so the estimate is
    // shown only once the run spans three auditor windows.
    if (m.slots >= 3 * sim_opts.audit_window_slots)
      std::printf("avg delay (slots):    %.2f\n", m.average_delay_slots());
    else
      std::printf(
          "avg delay (slots):    n/a (transient; Little's-law estimate)\n");
    std::printf("final backlog:        %.0f packets\n", final_backlog);
    std::printf("energy buffers:       %.1f kJ (BS), %.1f kJ (users)\n",
                final_battery_bs / 1e3, final_battery_users / 1e3);
    std::printf("curtailed / unserved: %.1f kJ / %.1f J\n",
                m.total_curtailed_j / 1e3, m.total_unserved_energy_j);
    if (m.policy_awake_bs >= 0)
      std::printf("sleep policy:         %s — %d BS awake at end, %llu "
                  "switch(es), %.1f J switching, %llu BS-slots asleep\n",
                  gc::policy::sleep_policy_name(
                      active_scenario.bs_sleep.policy),
                  m.policy_awake_bs,
                  static_cast<unsigned long long>(m.policy_switches),
                  m.policy_switch_energy_j,
                  static_cast<unsigned long long>(m.policy_sleep_slots));
    if (!opt.csv_path.empty())
      std::printf("CSV written to %s\n", opt.csv_path.c_str());
    if (!opt.trace_path.empty())
      std::printf("trace written to %s\n", opt.trace_path.c_str());
    if (!opt.checkpoint_path.empty())
      std::printf("checkpoint written to %s\n", opt.checkpoint_path.c_str());
    if (!opt.snapshot_path.empty())
      std::printf("snapshot written to %s (+.prom)\n",
                  opt.snapshot_path.c_str());
    if (lp_log)
      std::printf("LP solve log written to %s (%lld solves)\n",
                  opt.lp_log_path.c_str(),
                  static_cast<long long>(lp_log->lines_written()));
    if (!opt.events_path.empty())
      std::printf("event journal written to %s (%llu slot events)\n",
                  opt.events_path.c_str(),
                  static_cast<unsigned long long>(events.next_seq()));
    if (alerts)
      std::printf("alerts: %llu fire(s) over the run, %d rule(s) firing at "
                  "the end (%d critical)\n",
                  static_cast<unsigned long long>(alerts->total_fires()),
                  alerts->firing(), alerts->critical_firing());
  } else {
    std::printf("avg_cost=%.6g delivered=%.0f delay=%.2f backlog=%.0f\n",
                m.cost_avg.average(), m.total_delivered_packets,
                m.average_delay_slots(), final_backlog);
  }
  if (opt.report) print_report(m);
  export_single_run_obs(opt, model, m, run_wall_s);
  // --alerts-fatal: a completed run during which any rule fired exits 3,
  // distinct from usage errors (2) and deterministic failures (1). The
  // graceful-interrupt path above stays exit 0 so a SIGHUP hot-reload is
  // never mistaken for a deterministic failure.
  if (alerts != nullptr && opt.alerts_fatal && alerts->total_fires() > 0) {
    std::fprintf(stderr,
                 "error: --alerts-fatal: %llu alert fire(s) during the run\n",
                 static_cast<unsigned long long>(alerts->total_fires()));
    return 3;
  }
  return 0;
}

}  // namespace
