#include "core/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "lp/simplex.hpp"
#include "net/power_control.hpp"
#include "obs/registry.hpp"

namespace gc::core {

namespace {

// S1 observability: how many LP relaxation passes SF needs, how often it
// falls back to rounding a fractional alpha, how much work the fill-in pass
// adds, and how many links power control deschedules.
struct SchedulerMetrics {
  obs::Counter& lp_passes = obs::registry().counter("sched.sf_lp_passes");
  obs::Counter& roundings = obs::registry().counter("sched.sf_roundings");
  obs::Counter& primary = obs::registry().counter("sched.primary_links");
  obs::Counter& fill_in = obs::registry().counter("sched.fill_in_links");
  obs::Counter& descheduled =
      obs::registry().counter("sched.power_descheduled_links");
};

SchedulerMetrics& sched_metrics() {
  static thread_local SchedulerMetrics m;
  return m;
}

// Price of the energy the base-station endpoints of (tx, rx, band) would
// spend if activated: noise-limited minimal transmit power (the
// interference-free floor of constraint (24)) plus the receiver's constant
// draw, over one slot, times the marginal grid price. Zero when
// energy-aware scheduling is off (price = 0) or both endpoints are users
// (their grid energy never enters f(P), Sec. II-E).
double activation_penalty(const NetworkModel& model, int tx, int rx,
                          double bandwidth_hz, double price) {
  if (price <= 0.0) return 0.0;
  double energy_j = 0.0;
  if (model.topology().is_base_station(tx)) {
    const double p_min = model.radio().sinr_threshold *
                         model.radio().noise_psd_w_per_hz * bandwidth_hz /
                         model.topology().gain(tx, rx);
    energy_j += p_min * model.slot_seconds();
  }
  if (model.topology().is_base_station(rx))
    energy_j += model.node(rx).energy.recv_power_w * model.slot_seconds();
  return price * energy_j;
}

// Tracks the generalized radio constraints: at most num_radios(i)
// simultaneous activities per node (eq. (22) with R radios), and at most
// one activity per (node, band) (eqs. (20)/(21), which R = 1 makes
// implicit).
class RadioUsage {
 public:
  explicit RadioUsage(const NetworkModel& model)
      : model_(&model),
        used_(static_cast<std::size_t>(model.num_nodes()), 0),
        band_used_(static_cast<std::size_t>(model.num_nodes()) *
                       model.num_bands(),
                   0) {}

  RadioUsage(const NetworkModel& model,
             const std::vector<ScheduledLink>& schedule)
      : RadioUsage(model) {
    for (const auto& s : schedule) take(s.tx, s.rx, s.band);
  }

  bool can_take(int tx, int rx, int band) const {
    return used_[tx] < model_->num_radios(tx) &&
           used_[rx] < model_->num_radios(rx) && !band_used_[bi(tx, band)] &&
           !band_used_[bi(rx, band)];
  }
  void take(int tx, int rx, int band) {
    GC_CHECK(can_take(tx, rx, band));
    ++used_[tx];
    ++used_[rx];
    band_used_[bi(tx, band)] = 1;
    band_used_[bi(rx, band)] = 1;
  }
  void release(int tx, int rx, int band) {
    --used_[tx];
    --used_[rx];
    band_used_[bi(tx, band)] = 0;
    band_used_[bi(rx, band)] = 0;
  }
  bool node_saturated(int node) const {
    return used_[node] >= model_->num_radios(node);
  }
  int spare(int node) const { return model_->num_radios(node) - used_[node]; }

 private:
  std::size_t bi(int node, int band) const {
    GC_CHECK_MSG(band >= 0 && band < model_->num_bands(),
                 "bad band " << band << " at node " << node);
    return static_cast<std::size_t>(node) * model_->num_bands() + band;
  }
  const NetworkModel* model_;
  std::vector<int> used_;
  std::vector<char> band_used_;
};

}  // namespace

std::vector<CandidateLinkBand> build_candidates(const NetworkState& state,
                                                const SlotInputs& inputs) {
  const auto& model = state.model();
  const int n = model.num_nodes();
  const double pkts_per_bps = model.slot_seconds() / model.packet_bits();
  // Range pruning (net/link_prune.hpp): the neighbor lists are ascending,
  // so the pruned scan visits surviving pairs in the same order the dense
  // scan would — candidate order (and everything downstream) is unchanged.
  const net::LinkPruneMap* prune = model.pruned_links();
  std::vector<CandidateLinkBand> out;
  for (int i = 0; i < n; ++i) {
    if (inputs.node_is_inactive(i)) continue;  // down or asleep: no radio
    const auto scan_rx = [&](int j) {
      if (!model.link_allowed(i, j)) return;
      if (inputs.node_is_inactive(j) || inputs.link_is_faded(i, j, n)) return;
      const double h = state.h(i, j);
      if (h <= 0.0) return;  // SF fixes alpha = 0 when H_ij = 0
      for (int m = 0; m < model.num_bands(); ++m) {
        if (!model.spectrum().link_band_ok(i, j, m)) continue;
        const double c = net::nominal_capacity_bps(
            inputs.bandwidth_hz[m], model.radio().sinr_threshold);
        if (c <= 0.0) continue;
        // Exact Psi1-hat drain (beta * H * cap_packets). Primary
        // candidates are never energy-penalized: a positive H means
        // packets were already committed to this link and (27) obliges
        // serving them.
        const double weight = model.beta() * h * c * pkts_per_bps;
        if (weight <= 0.0) continue;
        out.push_back(CandidateLinkBand{i, j, m, c, weight});
      }
    };
    if (prune != nullptr) {
      for (int j : prune->out_neighbors(i)) scan_rx(j);
    } else {
      for (int j = 0; j < n; ++j)
        if (j != i) scan_rx(j);
    }
  }
  return out;
}

std::vector<CandidateLinkBand> build_fill_in_candidates(
    const NetworkState& state, const SlotInputs& inputs,
    const std::vector<ScheduledLink>& already_scheduled,
    double marginal_energy_price) {
  const auto& model = state.model();
  const int n = model.num_nodes();
  const RadioUsage usage(model, already_scheduled);

  // Range pruning: beyond shrinking the scan, dropping out-of-range pairs
  // here IMPROVES the schedule — an unpruned infeasible fill-in link would
  // occupy two radios until power control deschedules it, crowding out
  // feasible links (docs/ALGORITHM.md "Why range pruning is exact").
  const net::LinkPruneMap* prune = model.pruned_links();
  std::vector<CandidateLinkBand> out;
  for (int i = 0; i < n; ++i) {
    if (usage.node_saturated(i) || inputs.node_is_inactive(i)) continue;
    const auto scan_rx = [&](int j) {
      if (usage.node_saturated(j) || !model.link_allowed(i, j)) return;
      if (inputs.node_is_inactive(j) || inputs.link_is_faded(i, j, n)) return;
      // Best Psi3 differential any session could realize on (i, j), and
      // whether j is some session's destination (a delivery link: exempt
      // from the energy penalty, since (18) makes delivery an obligation
      // rather than an optimization choice).
      double best_diff = 0.0;
      bool delivery_link = false;
      for (int s = 0; s < model.num_sessions(); ++s) {
        if (i == model.session(s).destination) continue;  // (17)
        if (j == model.session(s).destination) delivery_link = true;
        best_diff = std::max(best_diff, state.q(i, s) - state.q(j, s) -
                                            model.beta() * state.h(i, j));
      }
      if (best_diff <= 0.0) return;
      for (int m = 0; m < model.num_bands(); ++m) {
        if (!model.spectrum().link_band_ok(i, j, m)) continue;
        if (!usage.can_take(i, j, m)) continue;
        const double c = net::nominal_capacity_bps(
            inputs.bandwidth_hz[m], model.radio().sinr_threshold);
        const double pkts = c * model.slot_seconds() / model.packet_bits();
        if (pkts < 1.0) continue;  // cannot carry a whole packet
        const double penalty =
            delivery_link ? 0.0
                          : activation_penalty(model, i, j,
                                               inputs.bandwidth_hz[m],
                                               marginal_energy_price);
        const double weight = best_diff * std::floor(pkts) - penalty;
        if (weight <= 0.0) continue;
        out.push_back(CandidateLinkBand{i, j, m, c, weight});
      }
    };
    if (prune != nullptr) {
      for (int j : prune->out_neighbors(i)) scan_rx(j);
    } else {
      for (int j = 0; j < n; ++j)
        if (j != i) scan_rx(j);
    }
  }
  return out;
}

namespace {

// Weight-sorted greedy over an explicit candidate list, respecting the
// radio budget already consumed by `schedule`.
void greedy_fill(const NetworkState& state,
                 std::vector<CandidateLinkBand> cands,
                 std::vector<ScheduledLink>& schedule) {
  std::sort(cands.begin(), cands.end(),
            [](const CandidateLinkBand& a, const CandidateLinkBand& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              if (a.tx != b.tx) return a.tx < b.tx;
              if (a.rx != b.rx) return a.rx < b.rx;
              return a.band < b.band;
            });
  RadioUsage usage(state.model(), schedule);
  for (const auto& c : cands) {
    if (!usage.can_take(c.tx, c.rx, c.band)) continue;
    usage.take(c.tx, c.rx, c.band);
    ScheduledLink link;
    link.tx = c.tx;
    link.rx = c.rx;
    link.band = c.band;
    link.capacity_bps = c.capacity_bps;
    schedule.push_back(link);
  }
}

}  // namespace

namespace {

// One SF relax-round-compact series over `cands`: fixes links into
// `schedule`, consuming `usage`. Each pass after the first warm-starts
// from the previous pass through `ws`; the first pass is always cold.
void sf_series(const NetworkState& state,
               std::vector<CandidateLinkBand> cands, RadioUsage& usage,
               const lp::Options& lp_options, lp::Workspace& ws,
               std::vector<ScheduledLink>& schedule) {
  const auto& model = state.model();

  while (!cands.empty()) {
    sched_metrics().lp_passes.add();
    // LP relaxation: maximize sum w_c alpha_c s.t. the remaining radio
    // budget per node and one activity per (node, band).
    lp::Model m;
    for (const auto& c : cands) m.add_variable(0.0, 1.0, -c.weight);
    std::vector<int> node_row(static_cast<std::size_t>(model.num_nodes()),
                              -1);
    std::vector<int> band_row(
        static_cast<std::size_t>(model.num_nodes()) * model.num_bands(), -1);
    for (std::size_t v = 0; v < cands.size(); ++v) {
      for (int node : {cands[v].tx, cands[v].rx}) {
        if (node_row[node] < 0)
          node_row[node] =
              m.add_row(lp::Sense::LessEqual, usage.spare(node));
        m.set_coeff(node_row[node], static_cast<int>(v), 1.0);
        const std::size_t bi =
            static_cast<std::size_t>(node) * model.num_bands() +
            cands[v].band;
        if (band_row[bi] < 0)
          band_row[bi] = m.add_row(lp::Sense::LessEqual, 1.0);
        m.set_coeff(band_row[bi], static_cast<int>(v), 1.0);
      }
    }
    const lp::Solution sol = lp::solve(m, lp_options, ws);
    GC_CHECK_MSG(sol.status == lp::Status::Optimal,
                 "SF relaxation not optimal at slot "
                     << state.slot() << ": " << lp::to_string(sol.status));

    // Fix every alpha already at 1; if none, round the largest fractional.
    std::vector<std::size_t> to_fix;
    for (std::size_t v = 0; v < cands.size(); ++v)
      if (sol.x[v] >= 1.0 - 1e-6) to_fix.push_back(v);
    if (to_fix.empty()) {
      std::size_t best = 0;
      for (std::size_t v = 1; v < cands.size(); ++v)
        if (sol.x[v] > sol.x[best]) best = v;
      to_fix.push_back(best);
      sched_metrics().roundings.add();
    }

    for (std::size_t v : to_fix) {
      const auto& f = cands[v];
      // Two alpha = 1 never conflict in a feasible LP point, but a rounded
      // fractional may conflict with one fixed this same round.
      if (!usage.can_take(f.tx, f.rx, f.band)) continue;
      usage.take(f.tx, f.rx, f.band);
      ScheduledLink link;
      link.tx = f.tx;
      link.rx = f.rx;
      link.band = f.band;
      link.capacity_bps = f.capacity_bps;
      schedule.push_back(link);
    }
    // Compact the surviving candidates, recording where each one sat in
    // the LP just solved: that correspondence is exactly the warm-start
    // map for the next (strictly smaller) relaxation.
    std::vector<int> warm_map;
    warm_map.reserve(cands.size());
    std::size_t kept = 0;
    for (std::size_t v = 0; v < cands.size(); ++v) {
      if (!usage.can_take(cands[v].tx, cands[v].rx, cands[v].band)) continue;
      cands[kept++] = cands[v];
      warm_map.push_back(static_cast<int>(v));
    }
    cands.resize(kept);
    if (!cands.empty()) ws.set_warm_start(std::move(warm_map));
  }
}

}  // namespace

std::vector<ScheduledLink> sequential_fix_schedule(
    const NetworkState& state, const SlotInputs& inputs, bool fill_in,
    double marginal_energy_price, const lp::Options& lp_options,
    lp::Workspace* workspace) {
  std::vector<ScheduledLink> schedule;
  RadioUsage usage(state.model());
  // All passes solve through one workspace (caller's, or a local fallback)
  // so buffers are reused; each compaction leaves a warm-start map for the
  // next pass.
  lp::Workspace local_ws;
  lp::Workspace& ws = workspace != nullptr ? *workspace : local_ws;
  sf_series(state, build_candidates(state, inputs), usage, lp_options, ws,
            schedule);
  sched_metrics().primary.add(static_cast<double>(schedule.size()));
  // Psi3-aware fill-in over radios SF left idle (see
  // build_fill_in_candidates for why the paper's S1 alone deadlocks).
  if (fill_in) {
    const std::size_t before = schedule.size();
    greedy_fill(state,
                build_fill_in_candidates(state, inputs, schedule,
                                         marginal_energy_price),
                schedule);
    sched_metrics().fill_in.add(static_cast<double>(schedule.size() - before));
  }
  return schedule;
}

std::vector<ScheduledLink> greedy_schedule(const NetworkState& state,
                                           const SlotInputs& inputs,
                                           bool fill_in,
                                           double marginal_energy_price) {
  std::vector<ScheduledLink> schedule;
  greedy_fill(state, build_candidates(state, inputs), schedule);
  sched_metrics().primary.add(static_cast<double>(schedule.size()));
  if (fill_in) {
    const std::size_t before = schedule.size();
    greedy_fill(state,
                build_fill_in_candidates(state, inputs, schedule,
                                         marginal_energy_price),
                schedule);
    sched_metrics().fill_in.add(static_cast<double>(schedule.size() - before));
  }
  return schedule;
}

namespace {

void exhaustive_rec(const std::vector<CandidateLinkBand>& cands,
                    std::size_t idx, RadioUsage& usage,
                    std::vector<std::size_t>& chosen, double weight,
                    std::vector<std::size_t>& best_chosen,
                    double& best_weight) {
  if (idx == cands.size()) {
    if (weight > best_weight) {
      best_weight = weight;
      best_chosen = chosen;
    }
    return;
  }
  // Upper bound: all remaining weights; prune when it cannot beat the best.
  double remaining = 0.0;
  for (std::size_t v = idx; v < cands.size(); ++v)
    remaining += cands[v].weight;
  if (weight + remaining <= best_weight) return;

  const auto& c = cands[idx];
  if (usage.can_take(c.tx, c.rx, c.band)) {
    usage.take(c.tx, c.rx, c.band);
    chosen.push_back(idx);
    exhaustive_rec(cands, idx + 1, usage, chosen, weight + c.weight,
                   best_chosen, best_weight);
    chosen.pop_back();
    usage.release(c.tx, c.rx, c.band);
  }
  exhaustive_rec(cands, idx + 1, usage, chosen, weight, best_chosen,
                 best_weight);
}

}  // namespace

std::vector<ScheduledLink> exhaustive_schedule(const NetworkState& state,
                                               const SlotInputs& inputs) {
  std::vector<CandidateLinkBand> cands = build_candidates(state, inputs);
  GC_CHECK_MSG(cands.size() <= 24,
               "exhaustive scheduler is for small instances only ("
                   << cands.size() << " candidates)");
  RadioUsage usage(state.model());
  std::vector<std::size_t> chosen, best_chosen;
  double best_weight = -1.0;
  exhaustive_rec(cands, 0, usage, chosen, 0.0, best_chosen, best_weight);
  std::vector<ScheduledLink> schedule;
  for (std::size_t v : best_chosen) {
    ScheduledLink link;
    link.tx = cands[v].tx;
    link.rx = cands[v].rx;
    link.band = cands[v].band;
    link.capacity_bps = cands[v].capacity_bps;
    schedule.push_back(link);
  }
  return schedule;
}

double schedule_weight(const NetworkState& state,
                       const std::vector<ScheduledLink>& schedule,
                       const SlotInputs& inputs) {
  const auto& model = state.model();
  double total = 0.0;
  for (const auto& s : schedule) {
    const double c = net::nominal_capacity_bps(inputs.bandwidth_hz[s.band],
                                               model.radio().sinr_threshold);
    total += state.h(s.tx, s.rx) * c;
  }
  return total;
}

namespace {

// MaxPowerAdaptiveRate: every transmitter at P_max; links whose realized
// SINR clears the threshold carry the Shannon rate of that SINR, the rest
// are dropped (capacity 0 per eq. (1)). Dropping a link only raises the
// SINR of the others, so one pass from the weakest link up converges.
void assign_powers_max_adaptive(const NetworkModel& model,
                                const SlotInputs& inputs, int band,
                                std::vector<std::size_t> on_band,
                                const std::vector<ScheduledLink>& schedule,
                                std::vector<ScheduledLink>& surviving) {
  const double w = inputs.bandwidth_hz[band];
  while (!on_band.empty()) {
    std::vector<net::Transmission> txs;
    txs.reserve(on_band.size());
    for (std::size_t idx : on_band) {
      const auto& s = schedule[idx];
      txs.push_back(net::Transmission{
          s.tx, s.rx, model.node(s.tx).energy.max_tx_power_w});
    }
    // Find the weakest link; if it clears the threshold, everyone does.
    double worst = 0.0;
    std::size_t worst_k = 0;
    std::vector<double> sinrs(on_band.size());
    for (std::size_t k = 0; k < on_band.size(); ++k) {
      sinrs[k] = net::sinr(model.topology(), txs, k, w, model.radio());
      if (k == 0 || sinrs[k] < worst) {
        worst = sinrs[k];
        worst_k = k;
      }
    }
    if (worst >= model.radio().sinr_threshold) {
      for (std::size_t k = 0; k < on_band.size(); ++k) {
        ScheduledLink s = schedule[on_band[k]];
        s.power_w = model.node(s.tx).energy.max_tx_power_w;
        s.capacity_bps = w * std::log2(1.0 + sinrs[k]);
        s.capacity_packets = std::floor(
            s.capacity_bps * model.slot_seconds() / model.packet_bits());
        surviving.push_back(s);
      }
      return;
    }
    on_band.erase(on_band.begin() + static_cast<long>(worst_k));
  }
}

}  // namespace

void assign_powers(const NetworkModel& model, const SlotInputs& inputs,
                   std::vector<ScheduledLink>& schedule) {
  std::vector<ScheduledLink> surviving;
  for (int band = 0; band < model.num_bands(); ++band) {
    std::vector<std::size_t> on_band;
    for (std::size_t i = 0; i < schedule.size(); ++i)
      if (schedule[i].band == band) on_band.push_back(i);
    if (on_band.empty()) continue;

    if (model.config().phy_policy ==
        ModelConfig::PhyPolicy::MaxPowerAdaptiveRate) {
      assign_powers_max_adaptive(model, inputs, band, std::move(on_band),
                                 schedule, surviving);
      continue;
    }

    // Deschedule the violating link and retry until feasible; each retry
    // removes one link so this terminates.
    while (!on_band.empty()) {
      std::vector<net::CoBandLink> links;
      links.reserve(on_band.size());
      for (std::size_t idx : on_band) {
        const auto& s = schedule[idx];
        links.push_back(net::CoBandLink{
            s.tx, s.rx, model.node(s.tx).energy.max_tx_power_w});
      }
      const auto pc = net::solve_min_powers(
          model.topology(), links, inputs.bandwidth_hz[band], model.radio());
      if (pc.feasible) {
        for (std::size_t k = 0; k < on_band.size(); ++k) {
          ScheduledLink s = schedule[on_band[k]];
          s.power_w = pc.powers_w[k];
          s.capacity_bps = net::nominal_capacity_bps(
              inputs.bandwidth_hz[band], model.radio().sinr_threshold);
          s.capacity_packets = std::floor(
              s.capacity_bps * model.slot_seconds() / model.packet_bits());
          surviving.push_back(s);
        }
        break;
      }
      GC_CHECK(pc.violating_link >= 0);
      on_band.erase(on_band.begin() + pc.violating_link);
    }
  }
  sched_metrics().descheduled.add(
      static_cast<double>(schedule.size() - surviving.size()));
  schedule = std::move(surviving);
}

}  // namespace gc::core
