#include "core/controller.hpp"

#include "obs/registry.hpp"
#include "obs/timer.hpp"

namespace gc::core {

namespace {

// Registry handles resolved once per thread (against the thread-current
// registry — per-worker under the parallel sweep engine); step() only
// bumps them.
struct ControllerMetrics {
  obs::Histogram& step = obs::registry().histogram("ctrl.step_seconds");
  obs::Histogram& s1 = obs::registry().histogram("ctrl.s1_sched_seconds");
  obs::Histogram& s2 = obs::registry().histogram("ctrl.s2_admit_seconds");
  obs::Histogram& s3 = obs::registry().histogram("ctrl.s3_route_seconds");
  obs::Histogram& s4 = obs::registry().histogram("ctrl.s4_energy_seconds");
  obs::Counter& slots = obs::registry().counter("ctrl.slots");
  obs::Counter& grid_j = obs::registry().counter("energy.grid_j");
  obs::Counter& renewable_j = obs::registry().counter("energy.renewable_served_j");
  obs::Counter& discharge_j = obs::registry().counter("energy.battery_discharge_j");
  obs::Counter& charge_j = obs::registry().counter("energy.battery_charge_j");
  obs::Counter& curtailed_j = obs::registry().counter("energy.curtailed_j");
  obs::Counter& unserved_j = obs::registry().counter("energy.unserved_j");
  // Fallback ladder (docs/ROBUSTNESS.md): slots where an LP-based solver
  // failed and the cheaper one took over, per LP-backed subproblem (S1,
  // S4), plus the total count of degraded slots.
  obs::Counter& fallback_s1 = obs::registry().counter("ctrl.fallback_s1");
  obs::Counter& fallback_s4 = obs::registry().counter("ctrl.fallback_s4");
  obs::Counter& degraded = obs::registry().counter("ctrl.degraded_slots");
};

ControllerMetrics& metrics() {
  static thread_local ControllerMetrics m;
  return m;
}

}  // namespace

LyapunovController::LyapunovController(const NetworkModel& model, double V,
                                       ControllerOptions options)
    : model_(&model), options_(options), state_(model, V) {
  // Label each workspace with its subproblem so SolveStats consumers (the
  // --lp-log stream, tests) can split the LP workload by solve class.
  lp_ws_s1_.set_stats_context("s1");
  lp_ws_s4_.set_stats_context("s4");
  lp_ws_s1_.set_stats_sink(options_.lp_stats);
  lp_ws_s4_.set_stats_sink(options_.lp_stats);
}

SlotDecision LyapunovController::step(const SlotInputs& inputs) {
  GC_CHECK(static_cast<int>(inputs.bandwidth_hz.size()) ==
           model_->num_bands());
  GC_CHECK(static_cast<int>(inputs.renewable_j.size()) == model_->num_nodes());
  GC_CHECK(static_cast<int>(inputs.grid_connected.size()) ==
           model_->num_nodes());

  // Announce the slot before any solve so every SolveStats record the
  // sinks see this step carries the right slot stamp.
  if (options_.lp_stats != nullptr) options_.lp_stats->begin_slot(state_.slot());

  ControllerMetrics& m = metrics();
  SlotDecision decision;
  // Each span times its scope once for the profiler, the ctrl.*_seconds
  // histogram and the decision's SlotTimings. Span dims annotate problem
  // sizes for the profiler (obs/profile.hpp): the step carries the topology
  // size, each subproblem its own decision count (links scheduled, routes,
  // energy demands).
  obs::Span step_span("controller.step", state_.slot(), model_->num_nodes(),
                      &m.step, &decision.timing.step_s);

  // S2 — source selection + admission control.
  {
    obs::Span span("controller.s2_admission", state_.slot(), -1, &m.s2,
                   &decision.timing.s2_s);
    decision.admissions =
        allocate_resources(state_, options_.allocator, &inputs);
  }

  // S1 — link scheduling, then constraint (24) via minimal-power control.
  // Under the fallback ladder, a failed SequentialFix relaxation (watchdog
  // limit, infeasibility, numerical trouble) degrades to the greedy
  // scheduler for this slot instead of aborting the run.
  {
    obs::Span span("controller.s1_schedule", state_.slot(), -1, &m.s1,
                   &decision.timing.s1_s);
    const double energy_price =
        options_.energy_aware_scheduling
            ? state_.V() * model_->cost_at(state_.slot())
                               .scaled(inputs.cost_multiplier)
                               .derivative(last_grid_j_)
            : 0.0;
    if (options_.scheduler == ControllerOptions::Scheduler::SequentialFix) {
      const auto run_sf = [&] {
        return sequential_fix_schedule(state_, inputs, options_.fill_in,
                                       energy_price, options_.lp, &lp_ws_s1_);
      };
      if (options_.fallbacks) {
        try {
          decision.schedule = run_sf();
        } catch (const CheckError&) {
          m.fallback_s1.add();
          ++decision.fallbacks;
          decision.schedule =
              greedy_schedule(state_, inputs, options_.fill_in, energy_price);
        }
      } else {
        decision.schedule = run_sf();
      }
    } else {
      decision.schedule =
          greedy_schedule(state_, inputs, options_.fill_in, energy_price);
    }
    assign_powers(*model_, inputs, decision.schedule);
    span.set_dim(static_cast<std::int64_t>(decision.schedule.size()));
  }

  // S3 — routing over the realized capacities.
  {
    obs::Span span("controller.s3_routing", state_.slot(), -1, &m.s3,
                   &decision.timing.s3_s);
    const std::vector<double>* demand =
        inputs.session_demand_packets.empty() ? nullptr
                                              : &inputs.session_demand_packets;
    RoutingResult routing = greedy_route(state_, decision.schedule,
                                         decision.admissions, demand);
    decision.routes = std::move(routing.routes);
    decision.demand_shortfall = std::move(routing.demand_shortfall);
    span.set_dim(static_cast<std::int64_t>(decision.routes.size()));
  }

  // S4 — energy management for the demand the schedule implies (ladder:
  // Lp -> Price). A down node demands nothing, not even its baseline draw;
  // an asleep node's demand is replaced by the policy layer's sleep power
  // (plus switching energy), which it still purchases normally; an awake
  // node with a pending switch charge (instant wake) pays it on top.
  {
    obs::Span span("controller.s4_energy", state_.slot(), -1, &m.s4,
                   &decision.timing.s4_s);
    std::vector<double> demands =
        compute_energy_demands(*model_, decision.schedule);
    span.set_dim(static_cast<std::int64_t>(demands.size()));
    if (inputs.any_node_inactive() || !inputs.policy_demand_j.empty())
      for (std::size_t i = 0; i < demands.size(); ++i) {
        const int node = static_cast<int>(i);
        if (inputs.node_is_down(node))
          demands[i] = 0.0;  // an outage silences even sleep power
        else if (inputs.node_is_asleep(node))
          demands[i] = inputs.policy_demand(node);
        else
          demands[i] += inputs.policy_demand(node);
      }
    // Default EnergyLpOptions: the joint LP below 64 nodes, the exact
    // base-station/user split at or above (energy_manager.hpp).
    EnergyResult energy;
    if (options_.energy_manager == ControllerOptions::EnergyManager::Lp) {
      if (options_.fallbacks) {
        try {
          energy = lp_energy_manage(state_, inputs, demands, EnergyLpOptions{},
                                    options_.lp, &lp_ws_s4_);
        } catch (const CheckError&) {
          m.fallback_s4.add();
          ++decision.fallbacks;
          energy = price_energy_manage(state_, inputs, demands);
        }
      } else {
        energy = lp_energy_manage(state_, inputs, demands, EnergyLpOptions{},
                                  options_.lp, &lp_ws_s4_);
      }
    } else {
      energy = price_energy_manage(state_, inputs, demands);
    }
    decision.energy = std::move(energy.decisions);
    decision.grid_total_j = energy.grid_total_j;
    decision.cost = energy.cost;
    decision.unserved_energy_j = energy.unserved_total_j;
    last_grid_j_ = energy.grid_total_j;
  }

  decision.degraded = decision.fallbacks > 0;
  if (decision.degraded) m.degraded.add();

  m.slots.add();
  m.grid_j.add(decision.grid_total_j);
  m.unserved_j.add(decision.unserved_energy_j);
  for (const auto& e : decision.energy) {
    m.renewable_j.add(e.serve_renewable_j);
    m.discharge_j.add(e.discharge_j);
    m.charge_j.add(e.charge_total_j());
    m.curtailed_j.add(e.curtailed_j);
  }

  state_.advance(decision);
  return decision;
}

}  // namespace gc::core
