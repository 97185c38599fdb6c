// Subproblem S3 — routing (Section IV-C3).
//
// Minimizes sum_{s,i,j} (-Q_i^s + Q_j^s + beta*H_ij) * l_ij^s subject to the
// routing structure (16)-(18) and the link-capacity constraint (25), with
// the schedule (and hence each link's packet capacity) fixed by S1.
//
// The paper's greedy rule is exact per link: first satisfy each session's
// destination demand v_s on the incoming link with the smallest coefficient
// (eq. (18)), then give each link's remaining capacity to the session with
// the most negative coefficient (or nothing if all are non-negative).
// Deviation from the paper, documented in DESIGN.md: the paper sets the
// destination variable to v_s even if the chosen link was not scheduled; we
// cap assignments by scheduled capacity (spilling to the next-best incoming
// link) and report any remaining shortfall instead of violating (25).
#pragma once

#include <vector>

#include "core/state.hpp"
#include "core/types.hpp"

namespace gc::core {

struct RoutingResult {
  std::vector<RouteDecision> routes;
  // Unmet destination demand per session (packets); 0 when (18) was met.
  std::vector<double> demand_shortfall;
};

// `demand` (optional) carries the slot's sampled v_s(t) when the model has
// a time-varying TrafficModel (SlotInputs::session_demand_packets); null
// falls back to the sessions' constant demand.
RoutingResult greedy_route(const NetworkState& state,
                           const std::vector<ScheduledLink>& schedule,
                           const std::vector<AdmissionDecision>& admissions,
                           const std::vector<double>* demand = nullptr);

// Exact LP solution of S3 (continuous relaxation; the constraint structure
// is integral in practice): the test oracle for greedy_route, which the
// controller always uses (router_test asserts the two reach the same
// objective). Both routers only touch scheduled links, so the fault overlay
// needs no handling here: S1 already withheld down/faded elements. A
// non-Optimal status throws gc::CheckError naming the simplex status and
// the slot.
RoutingResult lp_route(const NetworkState& state,
                       const std::vector<ScheduledLink>& schedule,
                       const std::vector<AdmissionDecision>& admissions,
                       const std::vector<double>* demand = nullptr);

// Objective value of S3 for a given routing.
double routing_objective(const NetworkState& state,
                         const std::vector<RouteDecision>& routes);

}  // namespace gc::core
