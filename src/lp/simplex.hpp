// Two-phase primal simplex for bounded-variable linear programs.
//
// Method: rows are converted to equalities with slack variables; an
// artificial variable per row forms the initial basis. Phase I minimizes the
// sum of artificials (infeasibility); phase II minimizes the caller's
// objective with the artificials pinned to zero. Nonbasic variables rest at
// a finite bound; the dense tableau (B^-1 A, augmented with B^-1 b) is
// updated by elementary row operations per pivot, with periodic
// recomputation of basic values to control drift.
//
// Pricing is Dantzig (most negative reduced cost) with a permanent switch to
// Bland's rule after a stall, which guarantees termination on degenerate
// problems.
//
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "lp/model.hpp"

namespace gc::lp {

enum class Status {
  Optimal,
  Infeasible,
  Unbounded,
  IterationLimit,
  // Watchdog outcomes (fault tolerance; see docs/ROBUSTNESS.md): the solve
  // exceeded its wall-clock budget, or the tableau degenerated into NaN /
  // infinity. Callers treat both like IterationLimit: no usable solution.
  TimeLimit,
  NumericalError,
};

const char* to_string(Status s);

struct Options {
  int max_iterations = 200000;
  // Wall-clock budget per solve in seconds; 0 (the default) = unlimited.
  // Checked every few pivots, so the overshoot is bounded by a handful of
  // iterations. Exceeding it returns Status::TimeLimit.
  double max_seconds = 0.0;
  // Feasibility tolerance on bounds / rows (absolute, relative to the
  // problem's magnitude which callers keep O(1)..O(1e6)).
  double feas_tol = 1e-7;
  // Reduced-cost optimality tolerance.
  double opt_tol = 1e-7;
  // Minimum |pivot| accepted.
  double pivot_tol = 1e-9;
  // Iterations without objective improvement before switching to Bland.
  int stall_limit = 200;
  // Recompute basic values from the tableau every this many pivots.
  int refresh_every = 128;
};

struct Solution {
  Status status = Status::IterationLimit;
  double objective = 0.0;
  std::vector<double> x;  // structural variables only
  int iterations = 0;
  // Residual infeasibility the solver itself measured (phase I objective).
  double infeasibility = 0.0;
};

// Per-solve introspection record, filled by every solve (workspace or not)
// and kept in Workspace::last_stats(). Collection is a handful of integer
// increments inside loops that already do O(rows*cols) arithmetic, so it is
// always on. It is the solver's only work count: lp::solve adds the totals
// to the lp.* registry counters once per solve. Purely observational:
// nothing here feeds back into the solve, so results are bit-identical with
// or without a sink attached.
struct SolveStats {
  // Problem dimensions as the caller posed them (structural variables;
  // slacks/artificials excluded).
  int rows = 0;
  int cols = 0;
  int nonzeros = 0;  // coefficient entries across all rows

  // Work split by phase (phase I drives artificials out, phase II optimizes
  // the caller's objective). iterations = pivots + bound flips.
  int phase1_iterations = 0;
  int phase2_iterations = 0;
  int pivots = 0;
  // Pivots that moved the entering variable by (numerically) zero — the
  // degeneracy that makes dense simplex stall on big scheduling LPs.
  int degenerate_pivots = 0;
  int bound_flips = 0;
  int refactorizations = 0;  // periodic basic-value recomputations
  // Times the stall guard switched to Bland's rule: at most once per
  // phase, so 0, 1 or 2.
  int bland_switches = 0;

  // Warm start (see Workspace): attempted = a hint was pending when the
  // solve began; reused = how many structural variables actually rested at
  // a bound state carried over from the previous solve.
  bool warm_attempted = false;
  int warm_vars_reused = 0;

  // Numeric-repair events: end-of-solve bound clamps that moved a value by
  // more than drift noise, plus NaN/inf detections (each also surfaces as
  // Status::NumericalError).
  int numeric_repairs = 0;

  // The tableau's nonzero entry count when the solve ended (fill-in from
  // pivoting included).
  std::int64_t fill_nonzeros = 0;

  double wall_s = 0.0;
  Status status = Status::IterationLimit;
};

// Receiver for per-solve statistics (e.g. lp::JsonlSolveLog). `context` is
// the call-site label the owning Workspace carries ("s1", "s3", "s4", or ""
// for unlabeled workspaces). Implementations must be safe to share across
// threads if the workspace owners run concurrently.
class SolveStatsSink {
 public:
  virtual ~SolveStatsSink() = default;
  virtual void on_solve(const SolveStats& stats, const char* context) = 0;
  // The controller announces the slot it is about to solve for, so sinks
  // can stamp records with it (JsonlSolveLog's "slot" field) and resume
  // logic can truncate a crashed run's log back to a slot boundary.
  virtual void begin_slot(int /*slot*/) {}
  // Durability point: flush buffered lines to stable storage. Called at
  // every checkpoint boundary so log tails survive a SIGKILL.
  virtual void flush() {}
};

// Where a variable rests between pivots. Exposed (rather than kept private
// to the solver) because the Workspace records the structural variables'
// final states for warm starts.
enum class VarState : std::uint8_t { AtLower, AtUpper, Basic };

// Caller-owned, reusable solver state.
//
// The tableau, bounds, cost, basis and scratch vectors live here and are
// resized (std::vector::assign — capacity is kept) instead of freshly
// allocated on every solve. A controller that issues thousands of mid-size
// LPs per run (the S1 sequential-fix series, S3, S4) holds one Workspace
// per call site and amortizes all per-solve allocation away after the first
// slot. A Workspace must not be shared between concurrent solves; one per
// thread/controller is the intended shape.
//
// Warm start: after every solve the workspace remembers each structural
// variable's final VarState. A caller whose next model reuses (a subset
// of) the previous model's variables can pass that correspondence through
// set_warm_start(); the next solve then starts mapped nonbasic variables at
// their previous bound instead of the default lower bound, which makes the
// initial artificial basis nearly feasible and collapses phase I. The hint
// is one-shot (cleared by the solve that consumes it) and purely a
// starting-point change — the solver still proves optimality from scratch,
// so statuses and objective values are unaffected; only the vertex reached
// among ties and the iteration count may differ.
struct DenseTableau;
struct WorkspaceHooks;
class SimplexEngine;

class Workspace {
 public:
  // `map[j]` = index of the variable in the PREVIOUS solve that variable j
  // of the NEXT model corresponds to, or -1 for a brand-new variable. The
  // map's size must equal the next model's variable count.
  void set_warm_start(std::vector<int> map) { warm_map_ = std::move(map); }

  // Drops the recorded states and any pending hint (buffers keep their
  // capacity). Use when switching the workspace to an unrelated model
  // family mid-stream; not needed otherwise — without set_warm_start the
  // recorded states are inert.
  void clear_warm_start() {
    warm_map_.clear();
    prev_struct_state_.clear();
  }

  // Introspection (docs/PERFORMANCE.md "Profiling workflow"): the most
  // recent solve's statistics, refreshed by every solve through this
  // workspace.
  const SolveStats& last_stats() const { return last_stats_; }

  // Labels this workspace's solves for sinks and logs (one workspace per
  // LP-backed subproblem is the intended shape, so the label doubles as
  // the solve class: "s1", "s3", "s4"). Must outlive the workspace; use
  // string literals.
  void set_stats_context(const char* context) { stats_context_ = context; }
  const char* stats_context() const { return stats_context_; }

  // Streams every solve's SolveStats to `sink` (nullptr detaches). The
  // sink observes only; solver results are unaffected.
  void set_stats_sink(SolveStatsSink* sink) { stats_sink_ = sink; }

 private:
  friend class SimplexEngine;
  friend struct DenseTableau;
  friend struct WorkspaceHooks;
  std::vector<double> tab_, lo_, hi_, cost_, xb_, dscratch_;
  std::vector<VarState> state_;
  std::vector<int> basis_;
  // Entering-column cache: gathered once per iteration, it serves the
  // ratio test, bound flips, basic-value updates and the pivot's row
  // eliminations.
  std::vector<std::pair<int, double>> colbuf_;
  // Structural-variable states after the most recent solve + the pending
  // one-shot correspondence hint.
  std::vector<VarState> prev_struct_state_;
  std::vector<int> warm_map_;
  // Introspection state (observation only).
  SolveStats last_stats_;
  const char* stats_context_ = "";
  SolveStatsSink* stats_sink_ = nullptr;
};

Solution solve(const Model& model, const Options& options = {});

// Same solver, but all working memory lives in (and persists through)
// `workspace`. Results are identical to the workspace-free overload unless
// a warm-start hint is pending (see Workspace).
Solution solve(const Model& model, const Options& options,
               Workspace& workspace);

}  // namespace gc::lp
