// Subproblem S4 — energy management (Section IV-C4).
//
// Given the slot's schedule (which fixes each node's energy demand E_i via
// eqs. (2) and (23)), choose per node the renewable split (r_i, c_i^r), the
// battery action (c_i, d_i), and the grid draws (g_i, c_i^g) minimizing
//   Psi4 = sum_i z_i (c_i - d_i) + V f(P(t)),
// subject to (9)-(14), where P(t) sums the *base stations'* grid draws.
//
// The paper solves S4 with CPLEX. We provide two solvers:
//
//  * price_energy_manage: exploits that S4 separates across nodes
//    once the grid's marginal price pi = V f'(P) is known. Each node's best
//    response to pi has a closed form that respects the charge-XOR-discharge
//    rule (9) by construction; aggregate base-station demand D(pi) is
//    non-increasing while V f'(.) is strictly increasing, so bisection finds
//    the consistent price.
//  * lp_energy_manage (controller default): one LP over all nodes with f
//    replaced by a tangent-line PWL epigraph; exact up to the PWL gap, with
//    degenerate charge/discharge ties cancelled afterwards so (9) holds.
//    bench/ablation_energy_managers (150 random paper-scale instances)
//    puts the price solver at a mean relative gap of -5.1e-6 against a
//    128-segment LP (marginally better; worst instance +5.6e-15) and
//    ~1000-1750x faster per solve; pick it via ControllerOptions for large
//    sweeps.
//
// Deviation from the paper (documented in DESIGN.md): eq. (3) forces
// R_i = c_i^r + r_i exactly, which is infeasible when the battery is full
// and demand is low; we allow curtailment (R_i >= c_i^r + r_i) and report
// the curtailed energy. An `unserved_j` slack (minimized with absolute
// priority) keeps the problem feasible when an off-grid node's battery and
// renewables cannot cover its demand; it is zero in normal operation and is
// exercised by the failure-injection tests.
#pragma once

#include <vector>

#include "core/state.hpp"
#include "core/types.hpp"
#include "lp/simplex.hpp"

namespace gc::core {

// E_i(t) for every node under the given schedule (eqs. (2) + (23)).
std::vector<double> compute_energy_demands(
    const NetworkModel& model, const std::vector<ScheduledLink>& schedule);

struct EnergyResult {
  std::vector<NodeEnergyDecision> decisions;  // indexed by node
  double grid_total_j = 0.0;                  // P(t)
  double cost = 0.0;                          // f(P(t))
  double objective = 0.0;  // sum z_i (c_i - d_i) + V f(P)
  double unserved_total_j = 0.0;
};

// Both solvers honor the fault overlay in `inputs`: a down node is inert
// (zero demand, no renewable intake, no grid draw, battery frozen), and
// `inputs.cost_multiplier` spikes the slot's tariff to m * f before the
// grid/battery trade-off is made. `lp_options` bounds lp_energy_manage's
// solve (watchdog); a non-Optimal status throws gc::CheckError naming the
// simplex status and the slot, which the controller's fallback ladder
// catches (Lp -> Price).
EnergyResult price_energy_manage(const NetworkState& state,
                                 const SlotInputs& inputs,
                                 const std::vector<double>& demands_j);

// S4 decomposition (docs/ALGORITHM.md "Why the S4 split is exact"). User
// nodes never appear in the grid-price coupling — their grid energy is
// unpriced (Sec. II-E), so none of their variables touch P, and the joint
// LP separates into one tiny LP over the base stations plus an independent
// per-user problem whose exact optimum is the closed-form best response at
// price 0. On a 500-node topology this shrinks the S4 LP from ~3000
// variables to ~100 while changing nothing the LP could not also have
// chosen (ties aside, which is why Auto keeps the historical joint path on
// small instances).
enum class S4Decompose { Auto, Force, Never };

struct EnergyLpOptions {
  int pwl_segments = 64;
  // Auto decomposes at num_nodes >= decompose_min_nodes; the threshold
  // keeps the paper-scale default (22 nodes) on the joint-LP trajectory
  // bit for bit.
  S4Decompose decompose = S4Decompose::Auto;
  int decompose_min_nodes = 64;
};

// lp_energy_manage's `workspace` (optional) reuses solver buffers across
// slots; no warm-start hint is passed, so results are identical with or
// without one.
EnergyResult lp_energy_manage(const NetworkState& state,
                              const SlotInputs& inputs,
                              const std::vector<double>& demands_j,
                              const EnergyLpOptions& options,
                              const lp::Options& lp_options = {},
                              lp::Workspace* workspace = nullptr);

// Legacy signature: a joint LP over all nodes (S4Decompose::Never) with
// the given PWL resolution. Kept because the ablation benches and tests
// pin this exact historical behavior.
EnergyResult lp_energy_manage(const NetworkState& state,
                              const SlotInputs& inputs,
                              const std::vector<double>& demands_j,
                              int pwl_segments = 64,
                              const lp::Options& lp_options = {},
                              lp::Workspace* workspace = nullptr);

// Psi4 (eq. (38)) of a given decision vector, for tests. `cost_multiplier`
// applies a price spike (pass inputs.cost_multiplier when comparing against
// a faulted slot).
double psi4(const NetworkState& state,
            const std::vector<NodeEnergyDecision>& decisions,
            double cost_multiplier = 1.0);

}  // namespace gc::core
