// Subproblem S1 — link scheduling (Section IV-C1).
//
// Minimizes Psi1 (eq. (35)), i.e. maximizes sum_ij H_ij * c_ij^m(t) over the
// binary variables alpha_ij^m under the single-radio constraint (22), then
// enforces the physical interference constraint (24) by computing minimal
// transmission powers per band (links that cannot reach the SINR threshold
// at P_max are descheduled, making their capacity 0 exactly as eq. (1)
// prescribes).
//
// Three schedulers are provided:
//  * sequential_fix_schedule — the paper's SF heuristic: repeatedly solve
//    the LP relaxation and round the largest alpha to 1;
//  * greedy_schedule — weight-sorted greedy (ablation baseline);
//  * exhaustive_schedule — exact maximization by branch and bound, usable
//    only on small instances (tests and ablations).
#pragma once

#include <vector>

#include "core/state.hpp"
#include "core/types.hpp"
#include "lp/simplex.hpp"

namespace gc::core {

// One alpha_ij^m candidate together with its objective weight in exact
// Psi-hat units: the Psi1 drain beta*H_ij*c*dt/delta for primary
// candidates, the Psi3 routing gain for fill-in candidates, both minus the
// optional energy-awareness penalty below.
struct CandidateLinkBand {
  int tx = -1;
  int rx = -1;
  int band = -1;
  double capacity_bps = 0.0;
  double weight = 0.0;
};

// Energy-aware scheduling (extension; off by default). The paper's
// decomposition solves S1 before S4, so scheduling never sees the energy
// price of activating a link — at light load that wastes grid energy on
// relay hops with marginal queueing benefit (see EXPERIMENTS.md). When
// marginal_energy_price > 0 (the controller passes V * f'(P(t-1))), each
// *relay* fill-in candidate's weight is reduced by the price of the energy
// its base-station endpoints would spend (noise-limited minimal TX power +
// receive power over the slot); relay links that cannot justify their
// energy are not scheduled. Primary (H > 0) candidates and delivery links
// into a session destination are exempt: committed packets (27) and the
// demand (18) are obligations, not optimization choices.
//
// All alpha variables SF considers: allowed links whose virtual queue
// H_ij(t) is positive and whose band is available at both endpoints.
std::vector<CandidateLinkBand> build_candidates(const NetworkState& state,
                                                const SlotInputs& inputs);

// Secondary candidates for the Psi3-aware fill-in pass. Taken literally,
// the paper's S1 deadlocks at cold start: alpha is fixed to 0 wherever
// H_ij = 0, routing (25) then forbids l > 0, and H can only grow through
// routed packets — so nothing ever transmits. The joint per-slot problem P3
// resolves this: activating a link with H_ij = 0 contributes nothing to
// Psi1 but lets routing realize a Psi3 gain of (Q_i^s - Q_j^s - beta H_ij)
// per packet. This helper scores exactly that gain (capacity * best
// session differential, positive scores only) for links both of whose
// endpoints are still idle; the schedulers run a second pass over it.
std::vector<CandidateLinkBand> build_fill_in_candidates(
    const NetworkState& state, const SlotInputs& inputs,
    const std::vector<ScheduledLink>& already_scheduled,
    double marginal_energy_price = 0.0);

// The scheduling returned by these functions has power_w / capacity_packets
// unset; call assign_powers afterwards.
// fill_in enables the Psi3-aware second pass (required for the system to
// start; exposed so the ablation can demonstrate the deadlock).
// Both builders honor the fault overlay in `inputs`: links with a down
// endpoint or a deep-faded (tx, rx) pair produce no candidates, so a faulted
// element is simply absent from S1's feasible set. `lp_options` bounds the
// relaxation solves (iteration / wall-clock watchdog); a non-Optimal pass
// throws gc::CheckError naming the simplex status and the slot, which the
// controller's fallback ladder catches.
//
// `workspace` (optional) is the caller-owned lp::Workspace the relaxation
// series solves through. Passing one amortizes the tableau allocations
// across slots AND lets SF warm-start each pass after the first from the
// previous pass's bound states (the surviving candidates' variables map
// 1:1 onto the shrunk LP), which collapses most of phase I. Hints never
// cross calls — the first pass of every call is cold, and the within-call
// hints depend only on within-call history — so the same state always
// yields the same schedule (checkpoint/resume replays exactly). Against a
// workspace-free run, objectives and statuses match but a degenerate
// relaxation may round a different (equally optimal) alpha.
std::vector<ScheduledLink> sequential_fix_schedule(
    const NetworkState& state, const SlotInputs& inputs, bool fill_in = true,
    double marginal_energy_price = 0.0, const lp::Options& lp_options = {},
    lp::Workspace* workspace = nullptr);

std::vector<ScheduledLink> greedy_schedule(const NetworkState& state,
                                           const SlotInputs& inputs,
                                           bool fill_in = true,
                                           double marginal_energy_price = 0.0);
std::vector<ScheduledLink> exhaustive_schedule(const NetworkState& state,
                                               const SlotInputs& inputs);

// Total Psi1 weight (sum of H_ij * c_ij^m over scheduled links); the
// quantity all three schedulers maximize.
double schedule_weight(const NetworkState& state,
                       const std::vector<ScheduledLink>& schedule,
                       const SlotInputs& inputs);

// Enforces constraint (24): per band, computes the component-wise minimal
// powers meeting the SINR threshold (Foschini–Miljanic) and drops links that
// are infeasible even at maximum power. Fills power_w, capacity_bps and
// capacity_packets of the surviving links.
void assign_powers(const NetworkModel& model, const SlotInputs& inputs,
                   std::vector<ScheduledLink>& schedule);

}  // namespace gc::core
