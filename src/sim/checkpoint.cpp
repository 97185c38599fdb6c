#include "sim/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "obs/json.hpp"
#include "util/fsio.hpp"

namespace gc::sim {

namespace {

[[noreturn]] void corrupt(const std::string& msg) { throw CheckpointError(msg); }

// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over the payload bytes: cheap,
// table-driven, and catches the single-bit flips and truncations the fuzz
// tests inject. Not cryptographic — the threat model is storage rot, not
// an adversary.
std::uint32_t crc32(const std::string& data) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char byte : data)
    crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

// Fixed-width little-endian primitives. Doubles travel as their IEEE-754
// bit patterns, so the round trip is bit-exact.
void put_u64(std::ostream& out, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.write(b, 8);
}

void put_u32(std::ostream& out, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.write(b, 4);
}

void put_i64(std::ostream& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_f64(std::ostream& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_vec(std::ostream& out, const std::vector<double>& v) {
  put_u64(out, v.size());
  for (double x : v) put_f64(out, x);
}

std::uint64_t get_u64(std::istream& in) {
  char b[8];
  in.read(b, 8);
  if (!in.good()) corrupt("checkpoint truncated");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[i]))
         << (8 * i);
  return v;
}

std::uint32_t get_u32(std::istream& in) {
  char b[4];
  in.read(b, 4);
  if (!in.good()) corrupt("checkpoint truncated");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(b[i]))
         << (8 * i);
  return v;
}

std::int64_t get_i64(std::istream& in) {
  return static_cast<std::int64_t>(get_u64(in));
}

double get_f64(std::istream& in) {
  return std::bit_cast<double>(get_u64(in));
}

std::vector<double> get_vec(std::istream& in) {
  const std::uint64_t size = get_u64(in);
  if (size > (1ull << 32)) corrupt("checkpoint vector size implausible");
  std::vector<double> v(static_cast<std::size_t>(size));
  for (auto& x : v) x = get_f64(in);
  return v;
}

void put_rng(std::ostream& out, const RngState& r) {
  for (std::uint64_t s : r.s) put_u64(out, s);
  put_u64(out, r.seed);
}

RngState get_rng(std::istream& in) {
  RngState r;
  for (auto& s : r.s) s = get_u64(in);
  r.seed = get_u64(in);
  return r;
}

void put_tracker(std::ostream& out, const StabilityTracker& t) {
  put_f64(out, t.abs_sum());
  put_f64(out, t.sup_partial_average());
  put_vec(out, t.partial_averages());
}

void get_tracker(std::istream& in, StabilityTracker& t) {
  const double abs_sum = get_f64(in);
  const double sup = get_f64(in);
  t.restore(abs_sum, sup, get_vec(in));
}

std::string serialize_payload(const Checkpoint& checkpoint) {
  std::ostringstream out(std::ios::binary);
  put_u64(out, checkpoint.scenario_hash);
  put_u64(out, checkpoint.scenario_structural_hash);
  put_i64(out, checkpoint.next_slot);
  put_rng(out, checkpoint.input_rng);
  put_f64(out, checkpoint.last_grid_j);
  put_vec(out, checkpoint.q);
  put_vec(out, checkpoint.gq);
  put_vec(out, checkpoint.battery_capacity_j);
  put_vec(out, checkpoint.battery_level_j);

  const Metrics& m = checkpoint.metrics;
  put_vec(out, m.cost);
  put_vec(out, m.grid_j);
  put_vec(out, m.q_bs);
  put_vec(out, m.q_users);
  put_vec(out, m.battery_bs_j);
  put_vec(out, m.battery_users_j);
  put_f64(out, m.cost_avg.sum());
  put_i64(out, m.cost_avg.slots());
  put_tracker(out, m.q_total_stability);
  put_tracker(out, m.h_total_stability);
  put_f64(out, m.total_demand_shortfall);
  put_f64(out, m.total_unserved_energy_j);
  put_f64(out, m.total_curtailed_j);
  put_f64(out, m.total_delivered_packets);
  put_f64(out, m.total_admitted_packets);
  put_f64(out, m.total_offered_packets);
  put_i64(out, m.slots);
  put_f64(out, m.timing.s1_s);
  put_f64(out, m.timing.s2_s);
  put_f64(out, m.timing.s3_s);
  put_f64(out, m.timing.s4_s);
  put_f64(out, m.timing.step_s);

  put_u32(out, checkpoint.has_mobility ? 1 : 0);
  if (checkpoint.has_mobility) {
    put_u64(out, checkpoint.mobility.targets.size());
    for (const auto& t : checkpoint.mobility.targets) {
      put_f64(out, t.x);
      put_f64(out, t.y);
    }
    put_vec(out, checkpoint.mobility.speeds_mps);
    put_rng(out, checkpoint.mobility.rng);
    put_u64(out, checkpoint.user_positions.size());
    for (const auto& p : checkpoint.user_positions) {
      put_f64(out, p.x);
      put_f64(out, p.y);
    }
  }

  put_u32(out, checkpoint.has_audit ? 1 : 0);
  if (checkpoint.has_audit) {
    const obs::AuditorState& a = checkpoint.audit;
    put_i64(out, a.slots);
    put_f64(out, a.cost_sum);
    put_f64(out, a.prev_lyapunov);
    put_u32(out, a.have_prev_lyapunov ? 1 : 0);
    put_i64(out, a.total_q_violations);
    put_i64(out, a.total_z_violations);
    put_i64(out, a.total_drift_violations);
    put_i64(out, a.unstable_windows);
    put_f64(out, a.run_worst_q_margin);
    put_f64(out, a.run_worst_z_margin);
    put_i64(out, a.window_fill);
    put_i64(out, a.closed_windows);
    put_f64(out, a.window_backlog_sum);
    put_f64(out, a.window_cost_sum);
    put_f64(out, a.prev_window_backlog_mean);
    put_f64(out, a.prev_window_cost_mean);
    put_u32(out, a.have_prev_window ? 1 : 0);
    put_f64(out, a.window_cost_delta);
  }

  put_u32(out, checkpoint.has_policy ? 1 : 0);
  if (checkpoint.has_policy) {
    const policy::SleepControllerState& p = checkpoint.policy_state;
    GC_CHECK(p.dwell.size() == p.mode.size() &&
             p.wake_countdown.size() == p.mode.size());
    put_u64(out, p.mode.size());
    for (std::size_t i = 0; i < p.mode.size(); ++i) {
      put_u32(out, p.mode[i]);
      put_i64(out, p.dwell[i]);
      put_i64(out, p.wake_countdown[i]);
    }
    put_u64(out, p.switches);
    put_f64(out, p.switch_energy_j);
    put_u64(out, p.sleep_slots);
  }

  put_u32(out, checkpoint.has_alerts ? 1 : 0);
  if (checkpoint.has_alerts) {
    const obs::AlertEngineState& a = checkpoint.alert_state;
    put_u64(out, a.rules_hash);
    put_u64(out, a.total_fires);
    put_u64(out, a.rules.size());
    for (const auto& r : a.rules) {
      put_f64(out, r.cum);
      put_u32(out, r.hold);
      put_u32(out, r.firing ? 1 : 0);
      put_vec(out, r.window);
    }
  }
  return out.str();
}

Checkpoint parse_payload(std::istream& in) {
  Checkpoint c;
  c.scenario_hash = get_u64(in);
  c.scenario_structural_hash = get_u64(in);
  c.next_slot = static_cast<int>(get_i64(in));
  c.input_rng = get_rng(in);
  c.last_grid_j = get_f64(in);
  c.q = get_vec(in);
  c.gq = get_vec(in);
  c.battery_capacity_j = get_vec(in);
  c.battery_level_j = get_vec(in);

  Metrics& m = c.metrics;
  m.cost = get_vec(in);
  m.grid_j = get_vec(in);
  m.q_bs = get_vec(in);
  m.q_users = get_vec(in);
  m.battery_bs_j = get_vec(in);
  m.battery_users_j = get_vec(in);
  const double cost_sum = get_f64(in);
  const std::int64_t cost_slots = get_i64(in);
  m.cost_avg.restore(cost_sum, cost_slots);
  get_tracker(in, m.q_total_stability);
  get_tracker(in, m.h_total_stability);
  m.total_demand_shortfall = get_f64(in);
  m.total_unserved_energy_j = get_f64(in);
  m.total_curtailed_j = get_f64(in);
  m.total_delivered_packets = get_f64(in);
  m.total_admitted_packets = get_f64(in);
  m.total_offered_packets = get_f64(in);
  m.slots = static_cast<int>(get_i64(in));
  m.timing.s1_s = get_f64(in);
  m.timing.s2_s = get_f64(in);
  m.timing.s3_s = get_f64(in);
  m.timing.s4_s = get_f64(in);
  m.timing.step_s = get_f64(in);

  c.has_mobility = get_u32(in) != 0;
  if (c.has_mobility) {
    const std::uint64_t users = get_u64(in);
    if (users > (1ull << 24)) corrupt("checkpoint user count implausible");
    c.mobility.targets.resize(static_cast<std::size_t>(users));
    for (auto& t : c.mobility.targets) {
      t.x = get_f64(in);
      t.y = get_f64(in);
    }
    c.mobility.speeds_mps = get_vec(in);
    c.mobility.rng = get_rng(in);
    const std::uint64_t positions = get_u64(in);
    if (positions != users) corrupt("checkpoint mobility/position arity mismatch");
    c.user_positions.resize(static_cast<std::size_t>(positions));
    for (auto& p : c.user_positions) {
      p.x = get_f64(in);
      p.y = get_f64(in);
    }
  }

  c.has_audit = get_u32(in) != 0;
  if (c.has_audit) {
    obs::AuditorState& a = c.audit;
    a.slots = get_i64(in);
    a.cost_sum = get_f64(in);
    a.prev_lyapunov = get_f64(in);
    a.have_prev_lyapunov = get_u32(in) != 0;
    a.total_q_violations = get_i64(in);
    a.total_z_violations = get_i64(in);
    a.total_drift_violations = get_i64(in);
    a.unstable_windows = get_i64(in);
    a.run_worst_q_margin = get_f64(in);
    a.run_worst_z_margin = get_f64(in);
    a.window_fill = static_cast<int>(get_i64(in));
    a.closed_windows = get_i64(in);
    a.window_backlog_sum = get_f64(in);
    a.window_cost_sum = get_f64(in);
    a.prev_window_backlog_mean = get_f64(in);
    a.prev_window_cost_mean = get_f64(in);
    a.have_prev_window = get_u32(in) != 0;
    a.window_cost_delta = get_f64(in);
  }

  c.has_policy = get_u32(in) != 0;
  if (c.has_policy) {
    policy::SleepControllerState& p = c.policy_state;
    const std::uint64_t n_bs = get_u64(in);
    if (n_bs > (1ull << 24)) corrupt("checkpoint policy BS count implausible");
    p.mode.resize(static_cast<std::size_t>(n_bs));
    p.dwell.resize(static_cast<std::size_t>(n_bs));
    p.wake_countdown.resize(static_cast<std::size_t>(n_bs));
    for (std::size_t i = 0; i < p.mode.size(); ++i) {
      const std::uint32_t mode = get_u32(in);
      if (mode > 2) corrupt("checkpoint policy mode out of range");
      p.mode[i] = static_cast<std::uint8_t>(mode);
      p.dwell[i] = static_cast<std::int32_t>(get_i64(in));
      p.wake_countdown[i] = static_cast<std::int32_t>(get_i64(in));
    }
    p.switches = get_u64(in);
    p.switch_energy_j = get_f64(in);
    p.sleep_slots = get_u64(in);
  }

  c.has_alerts = get_u32(in) != 0;
  if (c.has_alerts) {
    obs::AlertEngineState& a = c.alert_state;
    a.rules_hash = get_u64(in);
    a.total_fires = get_u64(in);
    const std::uint64_t n_rules = get_u64(in);
    if (n_rules > (1ull << 16)) corrupt("checkpoint alert rule count implausible");
    a.rules.resize(static_cast<std::size_t>(n_rules));
    for (auto& r : a.rules) {
      r.cum = get_f64(in);
      r.hold = get_u32(in);
      r.firing = get_u32(in) != 0;
      r.window = get_vec(in);
    }
  }
  return c;
}

}  // namespace

Checkpoint make_checkpoint(int next_slot, const Rng& input_rng,
                           const core::LyapunovController& controller,
                           const Metrics& metrics,
                           const RandomWaypoint* mobility,
                           const net::Topology* topology,
                           const obs::StabilityAuditor* auditor,
                           const policy::SleepController* sleep,
                           const obs::AlertEngine* alerts) {
  GC_CHECK(next_slot >= 0);
  GC_CHECK((mobility == nullptr) == (topology == nullptr));
  const core::NetworkState& state = controller.state();
  const core::NetworkModel& model = state.model();
  const int n = model.num_nodes();
  const int S = model.num_sessions();

  Checkpoint c;
  c.next_slot = next_slot;
  c.input_rng = input_rng.state();
  c.last_grid_j = controller.last_grid_j();
  c.q.reserve(static_cast<std::size_t>(n) * S);
  for (int i = 0; i < n; ++i)
    for (int s = 0; s < S; ++s) c.q.push_back(state.q(i, s));
  c.gq.reserve(static_cast<std::size_t>(n) * n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      c.gq.push_back(i == j ? 0.0 : state.g_queue(i, j));
  c.battery_capacity_j.reserve(static_cast<std::size_t>(n));
  c.battery_level_j.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    c.battery_capacity_j.push_back(state.battery_capacity_j(i));
    c.battery_level_j.push_back(state.battery_j(i));
  }
  c.metrics = metrics;
  if (mobility != nullptr) {
    c.has_mobility = true;
    c.mobility = mobility->snapshot();
    const int first_user = topology->num_base_stations();
    for (int u = 0; u < topology->num_users(); ++u)
      c.user_positions.push_back(topology->position(first_user + u));
  }
  if (auditor != nullptr) {
    c.has_audit = true;
    c.audit = auditor->state_snapshot();
  }
  if (sleep != nullptr) {
    c.has_policy = true;
    c.policy_state = sleep->snapshot();
  }
  if (alerts != nullptr) {
    c.has_alerts = true;
    c.alert_state = alerts->state();
  }
  return c;
}

void restore_checkpoint(const Checkpoint& checkpoint, Rng& input_rng,
                        core::LyapunovController& controller,
                        Metrics& metrics, RandomWaypoint* mobility,
                        net::Topology* topology,
                        obs::StabilityAuditor* auditor,
                        policy::SleepController* sleep,
                        obs::AlertEngine* alerts) {
  core::NetworkState& state = controller.mutable_state();
  const core::NetworkModel& model = state.model();
  const int n = model.num_nodes();
  const int S = model.num_sessions();
  GC_CHECK_MSG(
      static_cast<int>(checkpoint.q.size()) == n * S &&
          static_cast<int>(checkpoint.gq.size()) == n * n &&
          static_cast<int>(checkpoint.battery_capacity_j.size()) == n &&
          static_cast<int>(checkpoint.battery_level_j.size()) == n,
      "checkpoint does not match the model (node/session arity)");
  GC_CHECK_MSG(checkpoint.has_mobility == (mobility != nullptr),
               "checkpoint mobility presence does not match the run");
  GC_CHECK_MSG(checkpoint.has_policy == (sleep != nullptr),
               "checkpoint sleep-policy presence does not match the run "
               "(resume with the same --policy the checkpoint was written "
               "under)");

  input_rng.set_state(checkpoint.input_rng);
  controller.set_last_grid_j(checkpoint.last_grid_j);
  state.set_slot(checkpoint.next_slot);
  for (int i = 0; i < n; ++i)
    for (int s = 0; s < S; ++s)
      state.set_q(i, s, checkpoint.q[static_cast<std::size_t>(i) * S + s]);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      state.set_g_queue(i, j,
                        checkpoint.gq[static_cast<std::size_t>(i) * n + j]);
    }
  for (int i = 0; i < n; ++i) {
    state.set_battery_capacity_j(i, checkpoint.battery_capacity_j[i]);
    state.restore_battery_level_j(i, checkpoint.battery_level_j[i]);
  }
  metrics = checkpoint.metrics;
  if (mobility != nullptr) {
    GC_CHECK(topology != nullptr);
    mobility->restore(checkpoint.mobility);
    const int first_user = topology->num_base_stations();
    GC_CHECK_MSG(static_cast<int>(checkpoint.user_positions.size()) ==
                     topology->num_users(),
                 "checkpoint user-position arity mismatch");
    for (int u = 0; u < topology->num_users(); ++u)
      topology->set_position(first_user + u, checkpoint.user_positions[u]);
  }
  if (auditor != nullptr && checkpoint.has_audit)
    auditor->restore(checkpoint.audit);
  if (sleep != nullptr) sleep->restore(checkpoint.policy_state);
  if (alerts != nullptr && checkpoint.has_alerts)
    alerts->restore(checkpoint.alert_state);
}

void save_checkpoint(const Checkpoint& checkpoint, const std::string& path) {
  const std::string payload = serialize_payload(checkpoint);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    GC_CHECK_MSG(out.good(), "cannot open checkpoint file " << tmp);
    out.write(kCheckpointMagic, 8);
    put_u32(out, kCheckpointVersion);
    put_u64(out, payload.size());
    put_u32(out, crc32(payload));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out.flush();
    GC_CHECK_MSG(out.good(), "checkpoint write failed on " << tmp);
  }
  util::fsync_file(tmp);
  GC_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
               "cannot move checkpoint into place at " << path);
  util::fsync_parent_dir(path);
}

Checkpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) corrupt("cannot open checkpoint " + path);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();

  // Header: 8B magic + 4B version + 8B payload size + 4B CRC-32.
  constexpr std::size_t kHeader = 8 + 4 + 8 + 4;
  if (data.size() < kHeader) corrupt("checkpoint truncated in " + path);
  if (std::memcmp(data.data(), kCheckpointMagic, 8) != 0)
    corrupt("bad checkpoint magic in " + path);
  std::istringstream hdr(data.substr(8, kHeader - 8), std::ios::binary);
  const std::uint32_t version = get_u32(hdr);
  if (version != kCheckpointVersion)
    corrupt("unsupported checkpoint version " + std::to_string(version) +
            " in " + path + " (this build reads v" +
            std::to_string(kCheckpointVersion) +
            " only; older checkpoints lack the CRC, structural-hash, "
            "auditor, sleep-policy and alert-state fields or carry a "
            "retired warm-start section — re-run from slot 0)");
  const std::uint64_t payload_size = get_u64(hdr);
  const std::uint32_t stored_crc = get_u32(hdr);
  if (data.size() - kHeader != payload_size)
    corrupt("checkpoint payload size mismatch in " + path + " (header says " +
            std::to_string(payload_size) + " bytes, file holds " +
            std::to_string(data.size() - kHeader) + ")");
  const std::string payload = data.substr(kHeader);
  const std::uint32_t actual_crc = crc32(payload);
  if (actual_crc != stored_crc)
    corrupt("checkpoint CRC mismatch in " + path +
            " (payload is corrupt — bit rot or torn write)");

  std::istringstream body(payload, std::ios::binary);
  Checkpoint c;
  try {
    c = parse_payload(body);
  } catch (const CheckpointError&) {
    throw;
  } catch (const CheckError& e) {
    corrupt(std::string(e.what()) + " in " + path);
  }
  // The format is fully self-describing; trailing bytes mean corruption.
  body.peek();
  if (!body.eof()) corrupt("trailing bytes after checkpoint in " + path);
  return c;
}

// ---- Rotation --------------------------------------------------------

namespace {

std::string manifest_path(const std::string& base) {
  return base + ".manifest";
}

std::string generation_file(const std::string& base, std::int64_t gen) {
  return base + ".gen" + std::to_string(gen);
}

// Manifest-driven listing; returns false when the manifest is missing or
// does not parse (callers degrade to a directory scan).
bool list_from_manifest(const std::string& base,
                        std::vector<GenerationInfo>* out) {
  std::ifstream in(manifest_path(base));
  if (!in.good()) return false;
  std::ostringstream text;
  text << in.rdbuf();
  try {
    const obs::JsonValue root = obs::json_parse(text.str());
    if (!root.is_object() || !root.has("generations")) return false;
    for (const obs::JsonValue& e : root.at("generations").as_array()) {
      GenerationInfo g;
      g.generation = static_cast<std::int64_t>(e.at("gen").as_number());
      g.slot = static_cast<int>(e.number_or("slot", -1.0));
      g.file = generation_file(base, g.generation);
      out->push_back(g);
    }
  } catch (const CheckError&) {
    out->clear();
    return false;  // damaged manifest: fall back to scanning the directory
  }
  std::sort(out->begin(), out->end(),
            [](const GenerationInfo& a, const GenerationInfo& b) {
              return a.generation < b.generation;
            });
  return true;
}

void list_from_directory(const std::string& base,
                         std::vector<GenerationInfo>* out) {
  const std::filesystem::path base_path(base);
  std::filesystem::path dir = base_path.parent_path();
  if (dir.empty()) dir = ".";
  const std::string prefix = base_path.filename().string() + ".gen";
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix))
      continue;
    const std::string suffix = name.substr(prefix.size());
    if (suffix.empty() ||
        suffix.find_first_not_of("0123456789") != std::string::npos)
      continue;
    GenerationInfo g;
    g.generation = std::strtoll(suffix.c_str(), nullptr, 10);
    g.file = entry.path().string();
    out->push_back(g);
  }
  std::sort(out->begin(), out->end(),
            [](const GenerationInfo& a, const GenerationInfo& b) {
              return a.generation < b.generation;
            });
}

}  // namespace

std::vector<GenerationInfo> list_generations(const std::string& base) {
  std::vector<GenerationInfo> out;
  if (!list_from_manifest(base, &out)) list_from_directory(base, &out);
  return out;
}

std::optional<ResumeSelection> load_newest_valid(const std::string& base) {
  const std::vector<GenerationInfo> gens = list_generations(base);
  if (gens.empty()) return std::nullopt;
  ResumeSelection sel;
  std::string newest_error;
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    try {
      sel.checkpoint = load_checkpoint(it->file);
      sel.source = *it;
      return sel;
    } catch (const CheckpointError& e) {
      if (newest_error.empty()) newest_error = e.what();
      ++sel.skipped_corrupt;
    }
  }
  corrupt("all " + std::to_string(gens.size()) +
          " checkpoint generations of " + base +
          " are corrupt; newest error: " + newest_error);
}

CheckpointRotator::CheckpointRotator(std::string base, int keep)
    : base_(std::move(base)), keep_(keep) {
  GC_CHECK_MSG(keep_ >= 1, "checkpoint rotation must keep >= 1 generations");
  generations_ = list_generations(base_);
}

void CheckpointRotator::write(const Checkpoint& checkpoint) {
  GenerationInfo g;
  g.generation =
      generations_.empty() ? 1 : generations_.back().generation + 1;
  g.slot = checkpoint.next_slot;
  g.file = generation_file(base_, g.generation);
  save_checkpoint(checkpoint, g.file);
  generations_.push_back(g);

  // Manifest before prune: a crash between the two leaves extra files on
  // disk (harmless), never a manifest pointing at deleted generations.
  std::vector<GenerationInfo> pruned;
  while (static_cast<int>(generations_.size()) > keep_) {
    pruned.push_back(generations_.front());
    generations_.erase(generations_.begin());
  }
  write_manifest();
  for (const GenerationInfo& p : pruned) {
    std::error_code ec;
    std::filesystem::remove(p.file, ec);  // best-effort
  }
}

void CheckpointRotator::write_manifest() const {
  std::string body = "{\"version\":1,\"generations\":[";
  for (std::size_t i = 0; i < generations_.size(); ++i) {
    if (i) body += ',';
    body += "{\"gen\":" + std::to_string(generations_[i].generation) +
            ",\"slot\":" + std::to_string(generations_[i].slot) + "}";
  }
  body += "]}\n";
  const std::string path = manifest_path(base_);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    GC_CHECK_MSG(out.good(), "cannot open checkpoint manifest " << tmp);
    out << body;
    out.flush();
    GC_CHECK_MSG(out.good(), "checkpoint manifest write failed on " << tmp);
  }
  util::fsync_file(tmp);
  GC_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
               "cannot move checkpoint manifest into place at " << path);
  util::fsync_parent_dir(path);
}

}  // namespace gc::sim
