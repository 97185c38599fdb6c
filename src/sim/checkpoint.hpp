// Checkpoint/resume for crash-proof long runs (docs/ROBUSTNESS.md).
//
// A checkpoint captures everything the simulation loop conditions on:
//  * the next slot index to execute,
//  * the input RNG stream position (sample_inputs is a pure function of
//    (slot, seed) via Rng::fork, but the full state is saved so future
//    samplers that advance the stream stay correct),
//  * the controller's NetworkState (queues, virtual queues, per-battery
//    capacity + level — capacity matters under battery-fade faults) and its
//    P(t-1) memory,
//  * the accumulated Metrics (series, averages, stability trackers, totals;
//    wall-clock timing is carried along but is inherently nondeterministic),
//  * optionally the mobility walker (trips + RNG) and the user positions,
//  * optionally the StabilityAuditor's accumulated state, so a resumed
//    run's stability digest matches an uninterrupted run's,
//  * optionally the sleep-policy controller's mode state (src/policy:
//    per-BS mode, dwell and wake countdowns plus the switching counters),
//    so a killed + resumed run replays sleep/wake commands bit-identically.
//
// Serialization is a versioned binary format: the 8-byte magic "GCCKPT01",
// a u32 format version (currently 7), a u64 payload size, a CRC-32 of the
// payload, then the payload itself as fixed-width little-endian fields
// (doubles as their IEEE-754 bit patterns, so the round trip is bit-exact).
// v3 added the size + CRC header, the structural scenario hash, and the
// auditor state; v4 a cross-slot LP warm-start carry; v5 the sleep-policy
// state; v6 the alert-engine state (obs/alerts.hpp), so a resumed run's
// debounce counters and fire/clear edges replay exactly; v7 dropped the
// warm-start carry again (no LP warm hint crosses a slot any more). Other
// versions are refused loudly — re-run from slot 0 rather than resuming
// with silently missing or misread state. save_checkpoint writes to a
// temp file, fsyncs it, and renames it into place, so neither a crash
// mid-write nor a power loss after the rename corrupts the previous
// checkpoint. Every load-time corruption (truncation, bit flip, wrong
// magic, trailing bytes) throws CheckpointError — a typed gc::CheckError —
// and never yields a partially loaded state.
//
// Rotation (--checkpoint-rotate N): CheckpointRotator writes generation
// files BASE.gen<K> with monotonically increasing K, keeps the newest N,
// and maintains an atomic JSON manifest BASE.manifest. load_newest_valid
// resolves a resume by trying the newest generation first and falling back
// to older ones when the tail is truncated or corrupt; a corrupt or
// missing manifest degrades to a directory scan, so the manifest is an
// index, never a single point of failure.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "net/topology.hpp"
#include "obs/alerts.hpp"
#include "obs/stability.hpp"
#include "policy/sleep.hpp"
#include "sim/mobility.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace gc::sim {

inline constexpr char kCheckpointMagic[9] = "GCCKPT01";
inline constexpr std::uint32_t kCheckpointVersion = 7;

// Load-time corruption (missing file, bad magic, unsupported version,
// truncation, CRC mismatch, trailing bytes). A CheckError subtype so
// existing catch sites keep working, while rotation fallback can
// distinguish "this generation is damaged, try an older one" from
// programming errors.
class CheckpointError : public CheckError {
  using CheckError::CheckError;
};

struct Checkpoint {
  int next_slot = 0;  // first slot the resumed run executes
  // Scenario identity hash (src/scenario); 0 for runs without a scenario
  // spec. run_loop refuses to resume when it differs from the run's.
  std::uint64_t scenario_hash = 0;
  // Structural subset of the scenario hash (scenario_structural_hash):
  // what must match for a hot-reloaded scenario to resume this state.
  std::uint64_t scenario_structural_hash = 0;
  RngState input_rng;
  double last_grid_j = 0.0;  // controller's P(t-1) memory

  // NetworkState.
  std::vector<double> q;                   // N x S row-major
  std::vector<double> gq;                  // N x N row-major
  std::vector<double> battery_capacity_j;  // N (differs from the model's
                                           // pristine value under fade)
  std::vector<double> battery_level_j;     // N

  // Accumulated run metrics.
  Metrics metrics;

  // Mobility (absent for static runs).
  bool has_mobility = false;
  RandomWaypoint::Snapshot mobility;
  std::vector<net::Vec2> user_positions;

  // Stability auditor accumulators (absent for audit-off runs).
  bool has_audit = false;
  obs::AuditorState audit;

  // Sleep-policy controller state (absent unless the run drives an active
  // policy::SleepController). v5.
  bool has_policy = false;
  policy::SleepControllerState policy_state;

  // Alert-engine state (absent unless the run evaluates --alerts rules).
  // v6. Unlike mobility/policy, a presence mismatch is tolerated: alert
  // state never affects Metrics, so resuming an alert-free checkpoint with
  // rules on (or vice versa) just restarts the engine's accumulators.
  bool has_alerts = false;
  obs::AlertEngineState alert_state;
};

// Captures the full loop state after slot `next_slot - 1` completed.
// `auditor` and `sleep` may be null (audit-off / policy-free run).
Checkpoint make_checkpoint(int next_slot, const Rng& input_rng,
                           const core::LyapunovController& controller,
                           const Metrics& metrics,
                           const RandomWaypoint* mobility,
                           const net::Topology* topology,
                           const obs::StabilityAuditor* auditor = nullptr,
                           const policy::SleepController* sleep = nullptr,
                           const obs::AlertEngine* alerts = nullptr);

// Reinstates a checkpoint into live objects. The controller must be built
// on the same model/scenario the checkpoint came from (arity-checked).
// Pass mobility/topology iff the checkpoint has mobility state. Auditor
// state is restored when both the checkpoint carries it and `auditor` is
// non-null; any other combination is ignored (audit state never affects
// Metrics, so an audit-on resume of an audit-off checkpoint just restarts
// its accumulators). Policy state, like mobility, must match: a checkpoint
// with (without) a policy section resumed by a run without (with) an
// active SleepController would silently replay a different network, so
// the mismatch is refused.
void restore_checkpoint(const Checkpoint& checkpoint, Rng& input_rng,
                        core::LyapunovController& controller,
                        Metrics& metrics, RandomWaypoint* mobility,
                        net::Topology* topology,
                        obs::StabilityAuditor* auditor = nullptr,
                        policy::SleepController* sleep = nullptr,
                        obs::AlertEngine* alerts = nullptr);

// Binary IO. save_checkpoint is atomic and durable (temp file + fsync +
// rename + parent-dir fsync); load_checkpoint throws CheckpointError on a
// missing file, bad magic, unsupported version, truncation, CRC mismatch,
// or trailing bytes.
void save_checkpoint(const Checkpoint& checkpoint, const std::string& path);
Checkpoint load_checkpoint(const std::string& path);

// ---- Rotation --------------------------------------------------------

// One on-disk checkpoint generation.
struct GenerationInfo {
  std::int64_t generation = 0;  // monotonically increasing across restarts
  int slot = -1;                // next_slot recorded at write time (-1 when
                                // recovered from a directory scan)
  std::string file;             // BASE.gen<generation>
};

// Generations known for `base`, oldest first: from BASE.manifest when it
// parses, otherwise from scanning base's directory for BASE.gen<K> files.
// Empty when none exist.
std::vector<GenerationInfo> list_generations(const std::string& base);

// The newest generation that loads cleanly. `skipped_corrupt` counts newer
// generations that had to be passed over (each one is a successful
// corruption fallback — the robust.* metrics report them). Returns
// std::nullopt when no generation files exist at all (fresh start);
// throws CheckpointError when generations exist but every one is corrupt.
struct ResumeSelection {
  Checkpoint checkpoint;
  GenerationInfo source;
  int skipped_corrupt = 0;
};
std::optional<ResumeSelection> load_newest_valid(const std::string& base);

// Writes rotating checkpoint generations. Continues the generation
// numbering of whatever is already on disk, so a restarted run never
// reuses (and thus never half-overwrites) a generation file.
class CheckpointRotator {
 public:
  // keep >= 1: number of newest generations retained after each write.
  CheckpointRotator(std::string base, int keep);

  // Saves `checkpoint` as the next generation, rewrites the manifest
  // atomically, then prunes generations beyond `keep`.
  void write(const Checkpoint& checkpoint);

  const std::string& base() const { return base_; }

 private:
  void write_manifest() const;

  std::string base_;
  int keep_;
  std::vector<GenerationInfo> generations_;  // oldest first
};

}  // namespace gc::sim
