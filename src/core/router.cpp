#include "core/router.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "lp/simplex.hpp"
#include "obs/registry.hpp"

namespace gc::core {

namespace {

// S3 observability: packets delivered straight from a base station vs over
// a user relay (the multi-hop payoff), and plain forwarding volume.
struct RouterMetrics {
  obs::Counter& direct = obs::registry().counter("route.delivered_direct_packets");
  obs::Counter& relayed =
      obs::registry().counter("route.delivered_relayed_packets");
  obs::Counter& forwarded = obs::registry().counter("route.forwarded_packets");
};

void note_routes(const NetworkState& state,
                 const std::vector<RouteDecision>& routes) {
  static thread_local RouterMetrics m;
  const auto& model = state.model();
  for (const auto& r : routes) {
    if (r.rx != model.session(r.session).destination)
      m.forwarded.add(r.packets);
    else if (model.topology().is_base_station(r.tx))
      m.direct.add(r.packets);
    else
      m.relayed.add(r.packets);
  }
}

double coefficient(const NetworkState& state, int i, int j, int s) {
  // -Q_i^s + Q_j^s + beta * H_ij (H already carries one factor of beta).
  return -state.q(i, s) + state.q(j, s) +
         state.model().beta() * state.h(i, j);
}

struct LinkCap {
  int tx, rx;
  double remaining;
};

}  // namespace

RoutingResult greedy_route(const NetworkState& state,
                           const std::vector<ScheduledLink>& schedule,
                           const std::vector<AdmissionDecision>& admissions,
                           const std::vector<double>* demand) {
  const auto& model = state.model();
  const int S = model.num_sessions();
  const auto demand_of = [&](int s) {
    return demand != nullptr ? (*demand)[static_cast<std::size_t>(s)]
                             : model.session(s).demand_packets;
  };
  RoutingResult result;
  result.demand_shortfall.assign(static_cast<std::size_t>(S), 0.0);

  // One capacity bucket per (tx, rx) pair; with multiple radios a link may
  // be scheduled on several bands at once, so entries are aggregated.
  std::vector<LinkCap> links;
  links.reserve(schedule.size());
  for (const auto& sl : schedule) {
    bool merged = false;
    for (auto& l : links)
      if (l.tx == sl.tx && l.rx == sl.rx) {
        l.remaining += sl.capacity_packets;
        merged = true;
        break;
      }
    if (!merged) links.push_back(LinkCap{sl.tx, sl.rx, sl.capacity_packets});
  }

  auto push_route = [&](int tx, int rx, int s, double packets) {
    if (packets <= 0.0) return;
    result.routes.push_back(RouteDecision{tx, rx, s, packets});
  };

  // Step 1: destination demand, constraint (18). Smallest coefficient
  // first; spill across incoming links until v_s is met or capacity runs
  // out.
  for (int s = 0; s < S; ++s) {
    const int dest = model.session(s).destination;
    double need = demand_of(s);
    if (need <= 0.0) continue;
    std::vector<std::size_t> incoming;
    for (std::size_t l = 0; l < links.size(); ++l)
      if (links[l].rx == dest && links[l].tx != dest) incoming.push_back(l);
    std::sort(incoming.begin(), incoming.end(),
              [&](std::size_t a, std::size_t b) {
                return coefficient(state, links[a].tx, dest, s) <
                       coefficient(state, links[b].tx, dest, s);
              });
    for (std::size_t l : incoming) {
      if (need <= 0.0) break;
      const double amount = std::min(need, links[l].remaining);
      if (amount <= 0.0) continue;
      push_route(links[l].tx, dest, s, std::floor(amount));
      links[l].remaining -= std::floor(amount);
      need -= std::floor(amount);
    }
    result.demand_shortfall[s] = need;
  }

  // Step 2: fill each link's remaining capacity with the most negative
  // coefficient session, respecting (16) (no traffic into the source BS)
  // and (17) (destinations do not forward their own session). Destination
  // deliveries are excluded — (18) is an equality already satisfied.
  for (auto& link : links) {
    if (link.remaining <= 0.0) continue;
    int best_s = -1;
    double best_coeff = 0.0;  // only strictly negative coefficients route
    for (int s = 0; s < S; ++s) {
      if (link.tx == model.session(s).destination) continue;  // (17)
      if (link.rx == model.session(s).destination) continue;  // (18) done
      if (link.rx == admissions[s].source_bs) continue;       // (16)
      const double c = coefficient(state, link.tx, link.rx, s);
      if (c < best_coeff) {
        best_coeff = c;
        best_s = s;
      }
    }
    if (best_s >= 0) {
      push_route(link.tx, link.rx, best_s, std::floor(link.remaining));
      link.remaining = 0.0;
    }
  }
  note_routes(state, result.routes);
  return result;
}

RoutingResult lp_route(const NetworkState& state,
                       const std::vector<ScheduledLink>& schedule,
                       const std::vector<AdmissionDecision>& admissions,
                       const std::vector<double>* demand) {
  const auto& model = state.model();
  const int S = model.num_sessions();
  const auto demand_of = [&](int s) {
    return demand != nullptr ? (*demand)[static_cast<std::size_t>(s)]
                             : model.session(s).demand_packets;
  };
  RoutingResult result;
  result.demand_shortfall.assign(static_cast<std::size_t>(S), 0.0);

  lp::Model m;
  // Variable per (scheduled link, session) not excluded by (16)/(17).
  struct Var {
    std::size_t link;
    int session;
  };
  std::vector<Var> vars;
  std::vector<std::vector<int>> link_vars(schedule.size());
  std::vector<std::vector<int>> dest_vars(static_cast<std::size_t>(S));
  for (std::size_t l = 0; l < schedule.size(); ++l) {
    for (int s = 0; s < S; ++s) {
      const int dest = model.session(s).destination;
      if (schedule[l].tx == dest) continue;                // (17)
      if (schedule[l].rx == admissions[s].source_bs) continue;  // (16)
      const double coeff =
          coefficient(state, schedule[l].tx, schedule[l].rx, s);
      const int v = m.add_variable(0.0, lp::kInf, coeff);
      vars.push_back(Var{l, s});
      link_vars[l].push_back(v);
      if (schedule[l].rx == dest) dest_vars[s].push_back(v);
    }
  }
  // (25): per-link capacity.
  for (std::size_t l = 0; l < schedule.size(); ++l) {
    const int row =
        m.add_row(lp::Sense::LessEqual, schedule[l].capacity_packets);
    for (int v : link_vars[l]) m.set_coeff(row, v, 1.0);
  }
  // (18): destination demand, as <= demand plus a delivery reward that
  // dominates every routing coefficient (the paper's equality may be
  // unsatisfiable under the realized schedule, in which case we deliver as
  // much as possible and report the shortfall).
  double dominate = 1.0;
  for (int v = 0; v < m.num_variables(); ++v)
    dominate = std::max(dominate, std::abs(m.objective_coeff(v)) + 1.0);
  for (int s = 0; s < S; ++s) {
    const double need = demand_of(s);
    if (need <= 0.0 || dest_vars[s].empty()) {
      result.demand_shortfall[s] = need;
      continue;
    }
    const int row = m.add_row(lp::Sense::LessEqual, need);
    for (int v : dest_vars[s]) m.set_coeff(row, v, 1.0);
    for (int v : dest_vars[s])
      m.set_objective_coeff(v, m.objective_coeff(v) - dominate);
  }

  const lp::Solution sol = lp::solve(m, lp::Options{});
  GC_CHECK_MSG(sol.status == lp::Status::Optimal,
               "S3 LP not optimal at slot " << state.slot() << ": "
                                            << lp::to_string(sol.status));
  std::vector<double> delivered(static_cast<std::size_t>(S), 0.0);
  for (std::size_t v = 0; v < vars.size(); ++v) {
    const double packets = std::floor(sol.x[v] + 1e-6);
    if (packets <= 0.0) continue;
    const auto& sl = schedule[vars[v].link];
    result.routes.push_back(
        RouteDecision{sl.tx, sl.rx, vars[v].session, packets});
    if (sl.rx == model.session(vars[v].session).destination)
      delivered[vars[v].session] += packets;
  }
  for (int s = 0; s < S; ++s)
    result.demand_shortfall[s] = std::max(demand_of(s) - delivered[s], 0.0);
  note_routes(state, result.routes);
  return result;
}

double routing_objective(const NetworkState& state,
                         const std::vector<RouteDecision>& routes) {
  double total = 0.0;
  for (const auto& r : routes)
    total += coefficient(state, r.tx, r.rx, r.session) * r.packets;
  return total;
}

}  // namespace gc::core
