#include <algorithm>
#include <cstring>
#include <utility>

#include "bench.hpp"
#include "core/allocator.hpp"
#include "core/energy_manager.hpp"
#include "core/psi.hpp"
#include "core/router.hpp"
#include "core/scheduler.hpp"
#include "lp/simplex.hpp"
#include "obs/registry.hpp"
#include "obs/stability.hpp"
#include "obs/timer.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace core = gc::core;

Instance set_up(const std::string& spec_path, SetupTimes* times) {
  Instance inst;
  double t0 = now_s();
  inst.spec = gc::scenario::load_scenario_file(spec_path);
  double t1 = now_s();
  times->load_s = t1 - t0;
  t0 = t1;
  inst.model =
      std::make_unique<core::NetworkModel>(inst.spec.config.build());
  inst.sleep = inst.spec.config.sleep_setup();
  t1 = now_s();
  times->build_s = t1 - t0;
  t0 = t1;
  inst.controller = std::make_unique<core::LyapunovController>(
      *inst.model, kV, inst.spec.config.controller_options());
  times->controller_s = now_s() - t0;
  // The replay mirrors the controller only; a sleep policy would add an
  // overlay between the inputs and the step that it does not reproduce.
  GC_CHECK_MSG(!inst.sleep.active(),
               spec_path << ": workloads with a sleep policy are not "
                            "supported by the replay");
  return inst;
}

gc::sim::SimOptions sim_options(const Instance& inst,
                                std::uint64_t input_seed) {
  gc::sim::SimOptions o;
  o.input_seed = input_seed;
  o.audit = true;
  o.sleep = &inst.sleep;
  o.scenario_name = inst.spec.name;
  return o;
}

Series series_of(const gc::sim::Metrics& m) {
  return Series{m.cost, m.grid_j, m.q_bs, m.q_users};
}

namespace {

// Adds the wall time of `f()` to `acc`.
template <class F>
void timed(double& acc, F&& f) {
  const double t0 = now_s();
  f();
  acc += now_s() - t0;
}

// Counts the solves of one replayed LP-backed subproblem.
struct LpTally : gc::lp::SolveStatsSink {
  double solves = 0.0, iterations = 0.0, cols = 0.0;
  void on_solve(const gc::lp::SolveStats& s, const char*) override {
    solves += 1.0;
    iterations += s.phase1_iterations + s.phase2_iterations;
    cols += s.cols;
  }
};

bool same_links(const std::vector<core::ScheduledLink>& a,
                const std::vector<core::ScheduledLink>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].tx != b[i].tx || a[i].rx != b[i].rx || a[i].band != b[i].band ||
        a[i].power_w != b[i].power_w ||
        a[i].capacity_bps != b[i].capacity_bps ||
        a[i].capacity_packets != b[i].capacity_packets)
      return false;
  return true;
}

bool same_decision(const core::SlotDecision& a, const core::SlotDecision& b) {
  if (!same_links(a.schedule, b.schedule)) return false;
  if (a.routes.size() != b.routes.size() ||
      a.admissions.size() != b.admissions.size() ||
      a.energy.size() != b.energy.size())
    return false;
  for (std::size_t i = 0; i < a.routes.size(); ++i)
    if (a.routes[i].tx != b.routes[i].tx || a.routes[i].rx != b.routes[i].rx ||
        a.routes[i].session != b.routes[i].session ||
        a.routes[i].packets != b.routes[i].packets)
      return false;
  for (std::size_t i = 0; i < a.admissions.size(); ++i)
    if (a.admissions[i].source_bs != b.admissions[i].source_bs ||
        a.admissions[i].packets != b.admissions[i].packets)
      return false;
  for (std::size_t i = 0; i < a.energy.size(); ++i) {
    const core::NodeEnergyDecision& x = a.energy[i];
    const core::NodeEnergyDecision& y = b.energy[i];
    if (x.demand_j != y.demand_j || x.serve_renewable_j != y.serve_renewable_j ||
        x.serve_grid_j != y.serve_grid_j || x.discharge_j != y.discharge_j ||
        x.charge_renewable_j != y.charge_renewable_j ||
        x.charge_grid_j != y.charge_grid_j || x.curtailed_j != y.curtailed_j ||
        x.unserved_j != y.unserved_j || x.connected != y.connected)
      return false;
  }
  return a.grid_total_j == b.grid_total_j && a.cost == b.cost &&
         a.demand_shortfall == b.demand_shortfall &&
         a.unserved_energy_j == b.unserved_energy_j &&
         a.fallbacks == b.fallbacks;
}

bool same_state(const core::NetworkState& a, const core::NetworkState& b) {
  const core::NetworkModel& m = a.model();
  const int n = m.num_nodes();
  if (a.slot() != b.slot()) return false;
  for (int i = 0; i < n; ++i) {
    if (a.battery_j(i) != b.battery_j(i)) return false;
    for (int s = 0; s < m.num_sessions(); ++s)
      if (a.q(i, s) != b.q(i, s)) return false;
    for (int j = 0; j < n; ++j)
      if (j != i && a.g_queue(i, j) != b.g_queue(i, j)) return false;
  }
  return true;
}

}  // namespace

void replay_run(Instance& inst, std::uint64_t input_seed, int slots,
                int inject_mismatch_slot, LayerTotals& L, Series* series) {
  const core::NetworkModel& model = *inst.model;
  core::LyapunovController& controller = *inst.controller;
  const core::ControllerOptions& opt = controller.options();
  const core::NetworkState& st = controller.state();
  // What run_loop does before its first slot.
  controller.mutable_state().set_sanitize(true);
  gc::Rng rng(input_seed);
  gc::obs::AuditConfig audit_cfg =
      gc::sim::make_audit_config(model, controller.V(), opt.allocator.lambda);
  audit_cfg.window_slots = gc::sim::SimOptions{}.audit_window_slots;
  gc::obs::StabilityAuditor auditor(std::move(audit_cfg));
  std::vector<double> audit_q(static_cast<std::size_t>(model.num_nodes()) *
                              static_cast<std::size_t>(model.num_sessions()));
  std::vector<double> audit_z(static_cast<std::size_t>(model.num_nodes()));

  // One workspace per LP-backed subproblem, as the controller keeps: a
  // workspace-free SF may round a different, equally optimal alpha.
  gc::lp::Workspace ws_s1, ws_s4;
  LpTally s1_lp, s4_lp;
  ws_s1.set_stats_sink(&s1_lp);
  ws_s4.set_stats_sink(&s4_lp);
  // SF's primary links lead its schedule; this counter says how many.
  const gc::obs::Counter& primary_links =
      gc::obs::registry().counter("sched.primary_links");

  *series = Series{};
  const double loop_t0 = now_s();
  for (int t = 0; t < slots; ++t) {
    core::SlotInputs inputs;
    timed(L.inputs_s, [&] { inputs = model.sample_inputs(t, rng); });

    core::SlotDecision d;
    timed(L.s2_s, [&] {
      d.admissions = core::allocate_resources(st, opt.allocator, &inputs);
    });

    const double energy_price =
        opt.energy_aware_scheduling
            ? st.V() * model.cost_at(st.slot())
                           .scaled(inputs.cost_multiplier)
                           .derivative(controller.last_grid_j())
            : 0.0;
    std::size_t primary = 0;
    timed(L.s1_schedule_s, [&] {
      const double before = primary_links.total();
      try {
        d.schedule = core::sequential_fix_schedule(
            st, inputs, opt.fill_in, energy_price, opt.lp, &ws_s1);
        primary = static_cast<std::size_t>(primary_links.total() - before);
      } catch (const gc::CheckError&) {
        ++d.fallbacks;
        d.schedule =
            core::greedy_schedule(st, inputs, opt.fill_in, energy_price);
      }
    });
    // The two scans SF runs inside, timed again on their own.
    timed(L.s1_candidates_s, [&] {
      L.candidates += static_cast<double>(
          core::build_candidates(st, inputs).size());
    });
    if (opt.fill_in) {
      const std::vector<core::ScheduledLink> primary_links_only(
          d.schedule.begin(),
          d.schedule.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(primary, d.schedule.size())));
      timed(L.s1_fill_in_s, [&] {
        L.fill_in_candidates += static_cast<double>(
            core::build_fill_in_candidates(st, inputs, primary_links_only,
                                           energy_price)
                .size());
      });
    }
    L.s1_attempted_links += static_cast<double>(d.schedule.size());
    timed(L.s1_power_s,
          [&] { core::assign_powers(model, inputs, d.schedule); });
    L.s1_scheduled_links += static_cast<double>(d.schedule.size());

    timed(L.s3_s, [&] {
      const std::vector<double>* demand =
          inputs.session_demand_packets.empty()
              ? nullptr
              : &inputs.session_demand_packets;
      core::RoutingResult r =
          core::greedy_route(st, d.schedule, d.admissions, demand);
      d.routes = std::move(r.routes);
      d.demand_shortfall = std::move(r.demand_shortfall);
    });
    L.routes += static_cast<double>(d.routes.size());

    timed(L.s4_s, [&] {
      const std::vector<double> demands =
          core::compute_energy_demands(model, d.schedule);
      core::EnergyResult e;
      // Default EnergyLpOptions are what the controller passes with every
      // lever at its default.
      try {
        e = core::lp_energy_manage(st, inputs, demands,
                                   core::EnergyLpOptions{}, opt.lp, &ws_s4);
      } catch (const gc::CheckError&) {
        ++d.fallbacks;
        e = core::price_energy_manage(st, inputs, demands);
      }
      d.energy = std::move(e.decisions);
      d.grid_total_j = e.grid_total_j;
      d.cost = e.cost;
      d.unserved_energy_j = e.unserved_total_j;
    });

    core::NetworkState next = st;
    timed(L.advance_s, [&] { next.advance(d); });

    core::SlotDecision applied;
    timed(L.step_s, [&] { applied = controller.step(inputs); });

    if (t == inject_mismatch_slot) d.cost += 1.0;
    if (!same_decision(d, applied) || !same_state(next, st))
      ++L.mismatch_slots;

    series->cost.push_back(applied.cost);
    series->grid_j.push_back(applied.grid_total_j);
    series->q_bs.push_back(st.total_data_queue_bs());
    series->q_users.push_back(st.total_data_queue_users());

    // The auditor as run_loop feeds it.
    timed(L.audit_s, [&] {
      const int S = model.num_sessions();
      for (int i = 0; i < model.num_nodes(); ++i) {
        for (int s = 0; s < S; ++s)
          audit_q[static_cast<std::size_t>(i * S + s)] = st.q(i, s);
        audit_z[static_cast<std::size_t>(i)] = st.z(i);
      }
      gc::obs::SlotAudit a;
      a.slot = t;
      a.q = &audit_q;
      a.z = &audit_z;
      a.lyapunov = core::lyapunov(st);
      a.cost = applied.cost;
      for (const auto& adm : applied.admissions) a.admitted_packets += adm.packets;
      a.total_backlog = st.total_data_queue_bs() + st.total_data_queue_users();
      auditor.observe(a);
    });
  }
  L.loop_s += now_s() - loop_t0;
  L.slots += slots;
  L.s1_lp_solves += s1_lp.solves;
  L.s1_lp_iters += s1_lp.iterations;
  L.s4_lp_solves += s4_lp.solves;
  L.s4_lp_iters += s4_lp.iterations;
  L.s4_lp_cols += s4_lp.cols;
  L.audit_violations += static_cast<double>(auditor.total_q_violations() +
                                            auditor.total_z_violations());
  L.closed_windows += auditor.state_snapshot().closed_windows;
  L.unstable_windows += auditor.unstable_windows();
}

SpanRunResult span_run(Instance& inst, std::uint64_t input_seed, int slots) {
  SpanRunResult r;
  gc::obs::registry().reset();
  gc::obs::SpanRecorder& rec = gc::obs::SpanRecorder::instance();
  rec.enable(1 << 18);
  const double t0 = now_s();
  r.metrics = gc::sim::run_simulation(*inst.model, *inst.controller, slots,
                                      sim_options(inst, input_seed));
  r.loop_s = now_s() - t0;
  rec.disable();
  r.spans_dropped = rec.dropped();
  for (const gc::obs::SpanEvent& e : rec.drain()) {
    if (std::strcmp(e.name, "sim.slot") == 0) {
      r.slot_s += e.dur_s;
    } else if (std::strcmp(e.name, "controller.step") == 0) {
      r.step_s.push_back(e.dur_s);
    } else if (std::strcmp(e.name, "lp.solve") == 0) {
      r.lp_solve_s += e.dur_s;
    }
  }
  gc::obs::Registry& reg = gc::obs::registry();
  r.lp_solves = reg.counter("lp.solves").total();
  r.lp_iterations = reg.counter("lp.iterations").total();
  r.degraded_slots = reg.counter("ctrl.degraded_slots").total();
  r.audit_violations = reg.counter("stability.q_bound_violations").total() +
                       reg.counter("stability.z_bound_violations").total();
  return r;
}

}  // namespace perfbench
