// perfbench: times one workload from the scenario file to the final
// metrics, checks the run's outputs, and prints one JSON line.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--slots N] [--sims K] [--inject-mismatch SLOT]
//
// --trace 0 (the timed run) reports the end-to-end metrics; --trace 1 (the
// traced run) reports the per-layer metrics. Exit status 0 means every
// check passed, 1 a failed check, 2 a usage error. Run it from the
// repository root: workloads name their scenario files relative to it.
// README.md documents the workloads, the metrics and the checks.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "net/link_prune.hpp"
#include "obs/registry.hpp"
#include "util/check.hpp"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  const char* spec;  // relative to the repository root
  int slots;         // horizon of every simulation
  int sims;          // distinct input seeds one timed run simulates
};

// Horizons and seed counts are sized so the K simulations of a declared
// workload fit in one 55-s run on a 4-core x86 VM and its simulated
// metrics spread less than 7 % across --seed (README.md, "Steadiness").
// hex-500 is runnable but not declared in BENCHMARK.json: one 100-slot
// simulation takes ~22 s, and its delivered fraction spreads ~23 % between
// input seeds, more than any bound the benchmark may set.
constexpr Workload kWorkloads[] = {
    {"paper-baseline", "examples/scenarios/paper_baseline.json", 100, 32},
    {"flash-crowd", "examples/scenarios/flash_crowd.json", 100, 32},
    {"hex-500", "examples/scenarios/hex_16bs_500users.json", 100, 1},
};

// Input seed of simulation k of a run with --seed `seed`. k = 0 is the
// CLI's own `--input-seed seed`; the stride keeps the seeds of nearby
// --seed values from overlapping.
std::uint64_t sub_seed(std::uint64_t seed, int k) {
  return seed + static_cast<std::uint64_t>(k) * 1000003u;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  int trace = 0;
  int slots = -1;  // < 0: the workload's horizon
  int sims = -1;   // < 0: the workload's seed count
  int inject_mismatch = -1;
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--slots N] [--sims K] "
               "[--inject-mismatch SLOT]\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args* a, std::string* err) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *err = "missing value for " + flag;
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      a->workload = v;
      continue;
    }
    const double x = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0' || errno != 0 || !std::isfinite(x)) {
      *err = "bad number for " + flag + ": " + v;
      return false;
    }
    const bool whole = x == std::floor(x) && std::fabs(x) < 1e15;
    if (flag == "--seed" && whole && x >= 0) {
      a->seed = static_cast<std::uint64_t>(x);
    } else if (flag == "--seconds" && x >= 0) {
      a->seconds = x;
    } else if (flag == "--trace" && (x == 0 || x == 1)) {
      a->trace = static_cast<int>(x);
    } else if (flag == "--slots" && whole && x >= 1 && x <= 1e6) {
      a->slots = static_cast<int>(x);
    } else if (flag == "--sims" && whole && x >= 1 && x <= 1e4) {
      a->sims = static_cast<int>(x);
    } else if (flag == "--inject-mismatch" && whole && x >= 0 && x <= 1e6) {
      a->inject_mismatch = static_cast<int>(x);
    } else {
      *err = "bad flag or value: " + flag + " " + v;
      return false;
    }
  }
  if (a->workload.empty()) {
    *err = "--workload is required";
    return false;
  }
  return true;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

// The run's outcome: metrics in print order, plus the failed checks.
struct Report {
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  std::vector<std::string> failures;
  double attempted = 0.0;  // slots simulated
  double failed = 0.0;     // slots the fallback ladder degraded

  void metric(const char* name, double value, const char* unit) {
    metrics.push_back({name, {value, unit}});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

// The checks every simulated run must pass. Admission is capped by
// K_s^max per slot, not by the demand v_s: the spec's admit_factor sets
// K_s^max to twice the demand, so admitted > offered is the model working
// as designed (README.md, "Checks").
void check_run(Report& rep, const Instance& inst, const gc::sim::Metrics& m,
               int slots, double audit_violations, const std::string& label) {
  double admit_cap = 0.0;
  for (const gc::core::Session& s : inst.model->sessions())
    admit_cap += s.max_admit_packets * slots;
  rep.check(m.slots == slots, label + ": completed " +
                                  std::to_string(m.slots) + " of " +
                                  std::to_string(slots) + " slots");
  rep.check(std::isfinite(m.cost_avg.average()),
            label + ": avg_cost is not finite");
  rep.check(m.total_delivered_packets <= m.total_admitted_packets,
            label + ": delivered exceeds admitted packets");
  rep.check(m.total_admitted_packets <= admit_cap,
            label + ": admitted exceeds the admission cap");
  rep.check(audit_violations == 0.0,
            label + ": " + std::to_string(audit_violations) +
                " queue/battery bound violations");
}

// Peak resident memory of this process image. getrusage's ru_maxrss would
// also count the parent's footprint at fork, which survives exec on Linux.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  GC_CHECK_MSG(false, "no VmHWM line in /proc/self/status");
  return 0.0;
}

// Host-speed probe: a fixed kernel of dense row eliminations on a
// 128 x 256 tableau, the shape of work the simplex does, and independent of
// the library under test. Timed before and after every simulation, it
// tracks the host's speed drifts (README.md, "Steadiness").
double calibration_s() {
  constexpr int kRows = 128, kCols = 256, kPivots = 400;
  std::vector<double> t(static_cast<std::size_t>(kRows) * kCols);
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = 1.0 + static_cast<double>(i % 97) * 1e-3;
  const double t0 = now_s();
  for (int it = 0; it < kPivots; ++it) {
    const double* pivot = &t[static_cast<std::size_t>(it % kRows) * kCols];
    for (int r = 0; r < kRows; ++r) {
      if (r == it % kRows) continue;
      double* row = &t[static_cast<std::size_t>(r) * kCols];
      const double f = row[it % kCols] * 1e-9;
      for (int c = 0; c < kCols; ++c) row[c] -= f * pivot[c];
    }
  }
  const double elapsed = now_s() - t0;
  volatile double sink = t[t.size() / 2];  // keeps the work observable
  (void)sink;
  return elapsed;
}

// Times are reported at the speed of a host that runs calibration_s() in
// this many seconds (the 4-core x86 VM the baseline was measured on, in a
// fast phase), so absolute figures stay close to wall-clock ones.
constexpr double kCalibrationRefS = 0.0125;

double mean_backlog(const gc::sim::Metrics& m) {
  double sum = 0.0;
  for (std::size_t t = 0; t < m.q_bs.size(); ++t) sum += m.q_bs[t] + m.q_users[t];
  return m.q_bs.empty() ? 0.0 : sum / static_cast<double>(m.q_bs.size());
}

// --trace 0: simulations 0..K-1 are run once each for the simulated
// metrics; while time remains they are run again for more timing samples,
// and every rerun must reproduce its first run's series exactly. Every
// time is scaled by kCalibrationRefS over the calibration time measured
// around its simulation. Loop and end-to-end times pool the simulations;
// set-up time, milliseconds with rare page-fault outliers, is a median.
// The unscaled wall-clock figures go to stderr.
void timed_mode(const Workload& w, const Args& a, int slots, int sims,
                Report& rep) {
  std::vector<double> setup_s;
  double loop_s = 0.0, e2e_s = 0.0, wall_loop_s = 0.0, wall_setup_s = 0.0;
  std::vector<Series> first;
  double cost_sum = 0.0, delivered = 0.0, offered = 0.0, backlog_sum = 0.0;
  const double t_start = now_s();
  for (int i = 0; i < sims || now_s() - t_start < a.seconds; ++i) {
    const int k = i % sims;
    const std::string label = "simulation " + std::to_string(i) +
                              " (input seed " +
                              std::to_string(sub_seed(a.seed, k)) + ")";
    const double cal_before = calibration_s();
    SetupTimes st;
    Instance inst = set_up(w.spec, &st);
    gc::obs::registry().reset();
    const double t0 = now_s();
    const gc::sim::Metrics m = gc::sim::run_simulation(
        *inst.model, *inst.controller, slots,
        sim_options(inst, sub_seed(a.seed, k)));
    const double loop = now_s() - t0;
    const double scale =
        kCalibrationRefS / (0.5 * (cal_before + calibration_s()));
    gc::obs::Registry& reg = gc::obs::registry();
    const double violations =
        reg.counter("stability.q_bound_violations").total() +
        reg.counter("stability.z_bound_violations").total();
    check_run(rep, inst, m, slots, violations, label);
    rep.attempted += m.slots;
    rep.failed += reg.counter("ctrl.degraded_slots").total();
    setup_s.push_back(scale * st.total_s());
    loop_s += scale * loop;
    e2e_s += scale * (st.total_s() + loop);
    wall_setup_s += st.total_s();
    wall_loop_s += loop;
    if (i < sims) {
      first.push_back(series_of(m));
      cost_sum += m.cost_avg.average();
      delivered += m.total_delivered_packets;
      offered += m.total_offered_packets;
      backlog_sum += mean_backlog(m);
    } else {
      rep.check(series_of(m) == first[static_cast<std::size_t>(k)],
                label + ": rerun changed the simulated series");
    }
  }
  const double runs = static_cast<double>(setup_s.size());
  std::fprintf(stderr,
               "perfbench: wall clock, unscaled: %.0f simulations, mean "
               "setup %.6g s, loop %.6g slots/s\n",
               runs, wall_setup_s / runs, runs * slots / wall_loop_s);
  rep.metric("setup_s", median(setup_s), "s");
  rep.metric("loop_slots_per_s", runs * slots / loop_s, "slots/s");
  rep.metric("e2e_s", e2e_s / runs, "s");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
  rep.metric("avg_cost", cost_sum / sims, "cost");
  rep.metric("delivered_frac", offered > 0.0 ? delivered / offered : 0.0,
             "ratio");
  rep.metric("mean_backlog_pkts", backlog_sum / sims, "packets");
}

// --trace 1: set-up layers timed around their public calls, then traced
// simulations (a span-ring run and a replay run of the same input seed)
// while time remains.
void traced_mode(const Workload& w, const Args& a, int slots, Report& rep) {
  const double t_start = now_s();
  std::vector<double> load, build, constants, prune, prune_kept, init;
  for (int r = 0; r < 3 || (now_s() - t_start < 0.15 * a.seconds && r < 200);
       ++r) {
    SetupTimes st;
    Instance inst = set_up(w.spec, &st);
    load.push_back(st.load_s);
    build.push_back(st.build_s);
    init.push_back(st.controller_s);
    // The model constants (beta, B, gamma_max): the NetworkModel
    // constructor again, from the built model's public parts.
    const gc::core::NetworkModel& m = *inst.model;
    std::vector<gc::core::NodeParams> nodes;
    std::vector<double> pmax;
    for (int i = 0; i < m.num_nodes(); ++i) {
      nodes.push_back(m.node(i));
      pmax.push_back(m.node(i).energy.max_tx_power_w);
    }
    gc::net::Topology topo = m.topology();
    gc::net::Spectrum spectrum = m.spectrum();
    std::vector<gc::core::Session> sessions = m.sessions();
    double t0 = now_s();
    const gc::core::NetworkModel again(std::move(topo), std::move(spectrum),
                                       m.radio(), std::move(nodes),
                                       std::move(sessions), m.cost(),
                                       m.config());
    constants.push_back(now_s() - t0);
    rep.check(again.drift_constant_B() == m.drift_constant_B(),
              "rebuilt model has a different drift constant B");
    t0 = now_s();
    const gc::net::LinkPruneMap map(m.topology(), m.spectrum(), m.radio(),
                                    pmax);
    prune.push_back(now_s() - t0);
    prune_kept.push_back(static_cast<double>(map.kept_links()) /
                         static_cast<double>(map.total_links()));
  }

  LayerTotals L;
  double span_loop_s = 0.0, slot_s = 0.0, lp_solve_s = 0.0, lp_solves = 0.0,
         lp_iters = 0.0;
  std::vector<double> step_s;
  std::int64_t dropped = 0;
  for (int k = 0; k == 0 || now_s() - t_start < a.seconds; ++k) {
    const std::uint64_t seed = sub_seed(a.seed, k);
    const std::string label =
        "traced simulation " + std::to_string(k) + " (input seed " +
        std::to_string(seed) + ")";
    SetupTimes st;
    Instance timed_inst = set_up(w.spec, &st);
    const SpanRunResult sr = span_run(timed_inst, seed, slots);
    check_run(rep, timed_inst, sr.metrics, slots, sr.audit_violations, label);
    rep.attempted += sr.metrics.slots;
    rep.failed += sr.degraded_slots;
    span_loop_s += sr.loop_s;
    slot_s += sr.slot_s;
    step_s.insert(step_s.end(), sr.step_s.begin(), sr.step_s.end());
    lp_solve_s += sr.lp_solve_s;
    lp_solves += sr.lp_solves;
    lp_iters += sr.lp_iterations;
    dropped += sr.spans_dropped;

    Instance traced_inst = set_up(w.spec, &st);
    Series traced;
    replay_run(traced_inst, seed, slots, k == 0 ? a.inject_mismatch : -1, L,
               &traced);
    rep.check(traced == series_of(sr.metrics),
              label + ": traced series differ from the timed run's");
  }
  rep.check(L.mismatch_slots == 0,
            std::to_string(L.mismatch_slots) +
                " slot(s) where the replayed decision differs from step's");
  rep.check(dropped == 0, "the span ring dropped " + std::to_string(dropped) +
                              " span(s)");
  rep.check(static_cast<double>(step_s.size()) == L.slots,
            "expected one controller.step span per slot");

  const double n = L.slots;
  const auto ms = [n](double s) { return 1e3 * s / n; };
  rep.metric("scenario.load_ms", 1e3 * median(load), "ms");
  rep.metric("model.build_ms", 1e3 * median(build), "ms");
  rep.metric("model.constants_ms", 1e3 * median(constants), "ms");
  rep.metric("net.prune_map_ms", 1e3 * median(prune), "ms");
  rep.metric("net.prune_kept_frac", median(prune_kept), "ratio");
  rep.metric("controller.init_ms", 1e3 * median(init), "ms");
  rep.metric("sim.inputs_ms", ms(L.inputs_s), "ms");
  rep.metric("s2.admission_ms", ms(L.s2_s), "ms");
  rep.metric("s1.candidates_ms", ms(L.s1_candidates_s), "ms");
  rep.metric("s1.candidates", L.candidates / n, "count/slot");
  rep.metric("s1.fill_in_ms", ms(L.s1_fill_in_s), "ms");
  rep.metric("s1.fill_in_candidates", L.fill_in_candidates / n, "count/slot");
  rep.metric("s1.schedule_ms", ms(L.s1_schedule_s), "ms");
  rep.metric("s1.lp_solves", L.s1_lp_solves / n, "count/slot");
  rep.metric("s1.lp_iters", L.s1_lp_iters / n, "count/slot");
  rep.metric("s1.power_control_ms", ms(L.s1_power_s), "ms");
  rep.metric("s1.scheduled_links", L.s1_scheduled_links / n, "count/slot");
  rep.metric("s1.descheduled_frac",
             L.s1_attempted_links > 0.0
                 ? 1.0 - L.s1_scheduled_links / L.s1_attempted_links
                 : 0.0,
             "ratio");
  rep.metric("s3.routing_ms", ms(L.s3_s), "ms");
  rep.metric("s3.routes", L.routes / n, "count/slot");
  rep.metric("s4.energy_ms", ms(L.s4_s), "ms");
  rep.metric("s4.lp_iters", L.s4_lp_iters / n, "count/slot");
  rep.metric("s4.lp_cols",
             L.s4_lp_solves > 0.0 ? L.s4_lp_cols / L.s4_lp_solves : 0.0,
             "count");
  rep.metric("state.advance_ms", ms(L.advance_s), "ms");
  rep.metric("controller.step_ms_p50", 1e3 * percentile(step_s, 0.50), "ms");
  rep.metric("controller.step_ms_p95", 1e3 * percentile(step_s, 0.95), "ms");
  rep.metric("controller.step_samples", static_cast<double>(step_s.size()),
             "count");
  double step_sum = 0.0;
  for (double s : step_s) step_sum += s;
  rep.metric("sim.slot_self_ms", ms(slot_s - step_sum), "ms");
  rep.metric("lp.solve_ms", ms(lp_solve_s), "ms");
  rep.metric("lp.iters_per_solve", lp_solves > 0.0 ? lp_iters / lp_solves : 0.0,
             "count");
  // The auditor's window verdict needs three closed windows; with fewer,
  // unstable_windows reads -1 ("not reached"), never 0 ("stable").
  const std::int64_t per_run_windows =
      L.closed_windows / std::max<std::int64_t>(1, L.slots / slots);
  const bool verdict = per_run_windows >= 3;
  rep.metric("audit.closed_windows", static_cast<double>(L.closed_windows),
             "count");
  rep.metric("audit.verdict_reached", verdict ? 1.0 : 0.0, "bool");
  rep.metric("audit.unstable_windows",
             verdict ? static_cast<double>(L.unstable_windows) : -1.0,
             "count");
  rep.metric("audit.violations", L.audit_violations, "count");
  rep.metric("trace.overhead_frac", L.loop_s / span_loop_s - 1.0, "ratio");
  rep.metric("trace.attributed_frac", L.named_s() / L.loop_s, "ratio");
  rep.metric("replay.mismatch_slots", L.mismatch_slots, "count");
}

void print_json(const Report& rep) {
  std::printf("{\"correct\": %s, \"attempted\": %.0f, \"failed\": %.0f, "
              "\"metrics\": {",
              rep.failures.empty() ? "true" : "false", rep.attempted,
              rep.failed);
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const auto& [name, vu] = rep.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", name.c_str(), vu.first, vu.second);
  }
  std::printf("}}\n");
}

int run(int argc, char** argv) {
  Args a;
  std::string err;
  if (!parse_args(argc, argv, &a, &err)) return usage(err.c_str());
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads)
    if (a.workload == c.name) w = &c;
  if (w == nullptr) return usage(("unknown workload " + a.workload).c_str());
  const int slots = a.slots > 0 ? a.slots : w->slots;
  const int sims = a.sims > 0 ? a.sims : w->sims;

  Report rep;
  if (a.trace == 0) {
    timed_mode(*w, a, slots, sims, rep);
  } else {
    traced_mode(*w, a, slots, rep);
  }
  for (const std::string& f : rep.failures)
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  print_json(rep);
  return rep.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
