#include "core/model.hpp"

#include <algorithm>
#include <cmath>

namespace gc::core {

NetworkModel::NetworkModel(net::Topology topology, net::Spectrum spectrum,
                           net::RadioParams radio,
                           std::vector<NodeParams> nodes,
                           std::vector<Session> sessions,
                           energy::QuadraticCost cost, ModelConfig config)
    : topo_(std::move(topology)),
      spectrum_(std::move(spectrum)),
      radio_(radio),
      nodes_(std::move(nodes)),
      sessions_(std::move(sessions)),
      cost_(cost),
      config_(config) {
  GC_CHECK(static_cast<int>(nodes_.size()) == topo_.num_nodes());
  GC_CHECK(spectrum_.num_nodes() == topo_.num_nodes());
  GC_CHECK(config_.slot_seconds > 0.0);
  GC_CHECK(config_.packet_bits > 0.0);
  for (const auto& n : nodes_) {
    n.energy.validate();
    n.battery.validate();
    n.grid.validate();
    GC_CHECK_MSG(n.renewable != nullptr, "every node needs a renewable model");
    GC_CHECK_MSG(n.num_radios >= 1, "every node needs at least one radio");
  }
  for (const auto& s : sessions_) {
    GC_CHECK(s.destination >= topo_.num_base_stations() &&
             s.destination < topo_.num_nodes());
    GC_CHECK(s.demand_packets >= 0.0);
    GC_CHECK(s.max_admit_packets >= 0.0);
  }

  const int n = num_nodes();

  // beta = max over links of the per-slot link service bound (Section
  // IV-A; with multiple radios a link can be served on several bands at
  // once, so the (29) constant scales accordingly).
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      if (i != j) beta_ = std::max(beta_, max_link_packets_all_radios(i, j));
  // A degenerate model with no usable link still needs beta > 0 for the
  // virtual-queue scaling to be well defined.
  beta_ = std::max(beta_, 1.0);

  // gamma_max over the attainable total base-station grid draw and, with a
  // time-varying tariff, over every slot's effective cost function (the
  // z-shift of Section IV-B must dominate f' always).
  for (int i = 0; i < num_base_stations(); ++i)
    max_total_grid_j_ += nodes_[i].grid.max_draw_j;
  for (double mult : config_.tariff_multipliers) {
    GC_CHECK_MSG(mult > 0.0, "tariff multipliers must be positive");
    max_tariff_ = std::max(max_tariff_, mult);
  }
  gamma_max_ = max_tariff_ * cost_.gamma_max(max_total_grid_j_);

  // B of eq. (34). l_s^max in the paper bounds the admission burst; the
  // source is always a base station, so the indicator contributes only for
  // base-station nodes.
  // The per-node in/out bounds do not depend on the session, so they are
  // scanned once; the sum below keeps its session-major order.
  std::vector<double> out_max(static_cast<std::size_t>(n), 0.0);
  std::vector<double> in_max(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      out_max[i] = std::max(out_max[i], max_link_packets(i, j));
      in_max[i] = std::max(in_max[i], max_link_packets(j, i));
    }
    // With R_i radios a node can serve/receive on up to R_i links at once,
    // so the per-slot in/out bounds scale by R_i.
    out_max[i] *= nodes_[i].num_radios;
    in_max[i] *= nodes_[i].num_radios;
  }
  const int S = num_sessions();
  double b1 = 0.0;  // data-queue term
  for (int s = 0; s < S; ++s) {
    for (int i = 0; i < n; ++i) {
      const double admit =
          topo_.is_base_station(i) ? sessions_[s].max_admit_packets : 0.0;
      b1 += out_max[i] * out_max[i] + (in_max[i] + admit) * (in_max[i] + admit);
    }
  }
  b1 *= 0.5;

  double b2 = 0.0;  // virtual-queue term
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const double v = beta_ * max_link_packets_all_radios(i, j);
      b2 += v * v;
    }

  double b3 = 0.0;  // energy-queue term
  for (const auto& node : nodes_)
    b3 += std::max(node.battery.max_charge_j * node.battery.max_charge_j,
                   node.battery.max_discharge_j * node.battery.max_discharge_j);
  b3 *= 0.5;

  drift_b_ = b1 + b2 + b3;
}

const net::LinkPruneMap* NetworkModel::pruned_links() const {
  if (!config_.link_prune) return nullptr;
  if (prune_ == nullptr || prune_->topology_version() != topo_.version()) {
    std::vector<double> pmax(static_cast<std::size_t>(num_nodes()), 0.0);
    for (int i = 0; i < num_nodes(); ++i)
      pmax[i] = nodes_[i].energy.max_tx_power_w;
    prune_ =
        std::make_unique<net::LinkPruneMap>(topo_, spectrum_, radio_, pmax);
  }
  return prune_.get();
}

bool NetworkModel::link_allowed(int tx, int rx) const {
  check_node(tx);
  check_node(rx);
  if (tx == rx) return false;
  if (config_.multihop) return true;
  // One-hop architecture: only the direct base-station -> destination
  // downlink. Packets sent to any other user would strand there (nobody
  // relays), so those links carry no usable traffic.
  if (!topo_.is_base_station(tx) || topo_.is_base_station(rx)) return false;
  for (const auto& s : sessions_)
    if (s.destination == rx) return true;
  return false;
}

double NetworkModel::max_bandwidth_hz(int band) const {
  const auto& sc = spectrum_.config();
  return band == 0 ? sc.cellular_bandwidth_hz : sc.random_bandwidth_hi_hz;
}

double NetworkModel::max_link_packets(int tx, int rx) const {
  if (!link_allowed(tx, rx)) return 0.0;
  double best_bps = 0.0;
  for (int m = 0; m < num_bands(); ++m)
    if (spectrum_.link_band_ok(tx, rx, m))
      best_bps = std::max(best_bps, net::nominal_capacity_bps(
                                        max_bandwidth_hz(m),
                                        radio_.sinr_threshold));
  return std::floor(best_bps * config_.slot_seconds / config_.packet_bits);
}

double NetworkModel::tariff_multiplier(int slot) const {
  GC_CHECK(slot >= 0);
  if (config_.tariff_multipliers.empty()) return 1.0;
  return config_.tariff_multipliers[static_cast<std::size_t>(slot) %
                                    config_.tariff_multipliers.size()];
}

energy::QuadraticCost NetworkModel::cost_at(int slot) const {
  const double m = tariff_multiplier(slot);
  return energy::QuadraticCost(m * cost_.a(), m * cost_.b(), m * cost_.c());
}

double NetworkModel::max_link_packets_all_radios(int tx, int rx) const {
  if (!link_allowed(tx, rx)) return 0.0;
  int common_bands = 0;
  for (int m = 0; m < num_bands(); ++m)
    if (spectrum_.link_band_ok(tx, rx, m)) ++common_bands;
  const int parallel = std::min(
      {nodes_[tx].num_radios, nodes_[rx].num_radios, common_bands});
  return parallel * max_link_packets(tx, rx);
}

SlotInputs NetworkModel::sample_inputs(int slot, Rng& rng) const {
  SlotInputs in;
  // Independent substreams per process class keep the draws identical
  // across architectures that share a seed (so Fig. 2(f) compares like for
  // like).
  Rng band_rng = rng.fork(0x1000u + static_cast<std::uint64_t>(slot));
  Rng renew_rng = rng.fork(0x2000u + static_cast<std::uint64_t>(slot));
  Rng grid_rng = rng.fork(0x3000u + static_cast<std::uint64_t>(slot));

  const auto& sc = spectrum_.config();
  in.bandwidth_hz.assign(static_cast<std::size_t>(num_bands()), 0.0);
  in.bandwidth_hz[0] = sc.cellular_bandwidth_hz;
  for (int m = 1; m < num_bands(); ++m)
    in.bandwidth_hz[m] =
        band_rng.uniform(sc.random_bandwidth_lo_hz, sc.random_bandwidth_hi_hz);

  const int n = num_nodes();
  in.renewable_j.assign(static_cast<std::size_t>(n), 0.0);
  in.grid_connected.assign(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    in.renewable_j[i] =
        config_.renewables ? nodes_[i].renewable->sample_j(slot, renew_rng) : 0.0;
    in.grid_connected[i] =
        energy::GridConnection(nodes_[i].grid).sample_connected(grid_rng) ? 1
                                                                          : 0;
  }

  if (config_.traffic != nullptr) {
    // Run-level traffic stream (position-independent fork: the same stream
    // every slot); models fork it further by (session, slot/block), so the
    // evaluation stays pure and checkpoint-resume-safe.
    const Rng traffic_rng = rng.fork(0x4000u);
    const int S = num_sessions();
    in.session_demand_packets.assign(static_cast<std::size_t>(S), 0.0);
    for (int s = 0; s < S; ++s)
      in.session_demand_packets[s] = config_.traffic->demand_packets(
          s, slot, sessions_[s].demand_packets, traffic_rng);
  }
  return in;
}

}  // namespace gc::core
