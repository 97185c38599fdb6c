// The online finite-queue-aware energy-cost minimization algorithm
// (Section IV): each slot, observe the random state, solve the four
// subproblems S1-S4 in sequence, apply the decision, and update the queues.
//
// Theorem 3 guarantees every queue (Q, H, z) is strongly stable under this
// controller; Theorem 4 makes its time-averaged cost an upper bound on the
// offline optimum psi*_P1.
//
// The Fig. 2(f) baselines (multi-hop w/o renewables, one-hop w/ and w/o
// renewables) are the same controller run on a NetworkModel whose
// ModelConfig disables relaying and/or renewable inputs.
#pragma once

#include "core/allocator.hpp"
#include "core/energy_manager.hpp"
#include "core/model.hpp"
#include "core/router.hpp"
#include "core/scheduler.hpp"
#include "core/state.hpp"

namespace gc::core {

struct ControllerOptions {
  AllocatorParams allocator;
  enum class Scheduler { SequentialFix, Greedy } scheduler = Scheduler::SequentialFix;
  // Psi3-aware secondary scheduling pass. Required for the system to carry
  // traffic at all (the paper's S1 alone deadlocks at cold start — see
  // scheduler.hpp); exposed so bench/ablation_fill_in can demonstrate it.
  bool fill_in = true;
  // Extension (off = the paper's algorithm): charge scheduling candidates
  // V*f'(P(t-1)) for the base-station energy they would spend, closing the
  // S1<->S4 coupling the decomposition drops.
  bool energy_aware_scheduling = false;
  // Lp solves S4 exactly (up to a fine PWL of f) like the paper's CPLEX;
  // Price is the closed-form decomposition. bench/ablation_energy_managers
  // (150 random paper-scale instances) measures it against a 128-segment
  // LP at a mean relative gap of -5.1e-6 (price marginally better) and
  // ~1000-1750x faster per solve.
  enum class EnergyManager { Lp, Price } energy_manager = EnergyManager::Lp;
  // Watchdog budget applied to every LP solve the subproblems issue
  // (iterations and, if max_seconds > 0, wall-clock). The defaults are the
  // solver's own generous limits; long unattended runs tighten them.
  lp::Options lp;
  // Per-solve LP introspection sink (e.g. lp::JsonlSolveLog), attached to
  // the controller's two workspaces with contexts "s1"/"s4".
  // Observation only — never changes decisions; nullptr = off. Must
  // outlive the controller and be thread-safe when controllers share it.
  lp::SolveStatsSink* lp_stats = nullptr;
  // Fallback ladder (docs/ROBUSTNESS.md): when an LP-based subproblem
  // solver fails (Infeasible / IterationLimit / TimeLimit / NumericalError,
  // surfaced as gc::CheckError), retry the slot's subproblem with the
  // cheaper closed-form solver instead of aborting the run:
  //   S1 SequentialFix -> Greedy, S4 Lp -> Price.
  // Every drop bumps ctrl.fallback_s{1,4} and marks the decision
  // degraded. Off = the strict mode tests rely on (failures propagate).
  bool fallbacks = true;
};

class LyapunovController {
 public:
  LyapunovController(const NetworkModel& model, double V,
                     ControllerOptions options = {});

  const NetworkState& state() const { return state_; }
  // Mutable access for checkpoint restore and for the simulator's
  // sanitization switch; the online algorithm itself never uses it.
  NetworkState& mutable_state() { return state_; }
  double V() const { return state_.V(); }
  const ControllerOptions& options() const { return options_; }
  // P(t-1), the grid draw the energy-aware scheduling extension prices
  // against; exposed for checkpointing.
  double last_grid_j() const { return last_grid_j_; }
  void set_last_grid_j(double j) { last_grid_j_ = j; }

  // Runs one slot: solves S2 (admission), S1 (scheduling + power control),
  // S3 (routing) and S4 (energy management), advances all queue laws, and
  // returns the applied decision.
  SlotDecision step(const SlotInputs& inputs);

 private:
  const NetworkModel* model_;
  ControllerOptions options_;
  NetworkState state_;
  double last_grid_j_ = 0.0;  // P(t-1), for energy-aware scheduling
  // Reusable LP solver state, one workspace per LP-backed subproblem so
  // each solves a single model family (S1 additionally warm-starts its
  // sequential-fix series through lp_ws_s1_; see scheduler.hpp). Purely
  // solver-internal: no warm hint crosses a slot, so none of it is
  // checkpointed.
  lp::Workspace lp_ws_s1_, lp_ws_s4_;
};

}  // namespace gc::core
