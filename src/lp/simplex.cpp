#include "lp/simplex.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>

#include "obs/registry.hpp"
#include "obs/timer.hpp"

namespace gc::lp {

namespace {

// Solver observability: volumes (solves, simplex iterations), the pivot /
// bound-flip split, refactorizations (periodic recomputation of the basic
// values, this tableau code's analogue of a basis refactorization), Bland
// fallbacks, and wall time per solve.
struct SimplexMetrics {
  obs::Counter& solves = obs::registry().counter("lp.solves");
  obs::Counter& iterations = obs::registry().counter("lp.iterations");
  obs::Counter& pivots = obs::registry().counter("lp.pivots");
  obs::Counter& bound_flips = obs::registry().counter("lp.bound_flips");
  obs::Counter& refactorizations =
      obs::registry().counter("lp.refactorizations");
  obs::Counter& bland_switches = obs::registry().counter("lp.bland_switches");
  // Watchdog trips: solves ended by the wall-clock budget or by NaN /
  // infinity detection instead of a clean status.
  obs::Counter& time_limits = obs::registry().counter("lp.time_limits");
  obs::Counter& numerical_errors =
      obs::registry().counter("lp.numerical_errors");
  obs::Histogram& solve_seconds =
      obs::registry().histogram("lp.solve_seconds");
  // Introspection split (SolveStats; docs/PERFORMANCE.md "Profiling
  // workflow"): phase-1 vs phase-2 work, degeneracy, warm-start accounting,
  // numeric repairs, and the posed problem's dimensions.
  obs::Counter& phase1_iterations =
      obs::registry().counter("lp.phase1_iterations");
  obs::Counter& phase2_iterations =
      obs::registry().counter("lp.phase2_iterations");
  obs::Counter& degenerate_pivots =
      obs::registry().counter("lp.degenerate_pivots");
  obs::Counter& warmstart_attempted =
      obs::registry().counter("lp.warmstart_attempted");
  obs::Counter& warmstart_accepted =
      obs::registry().counter("lp.warmstart_accepted");
  obs::Counter& warmstart_vars_reused =
      obs::registry().counter("lp.warmstart_vars_reused");
  obs::Counter& numeric_repairs = obs::registry().counter("lp.numeric_repairs");
  // End-of-solve tableau fill in nonzero entries.
  obs::Histogram& fill_nonzeros =
      obs::registry().histogram("lp.fill_nonzeros");
  obs::Histogram& rows = obs::registry().histogram("lp.rows");
  obs::Histogram& cols = obs::registry().histogram("lp.cols");
  obs::Histogram& nonzeros = obs::registry().histogram("lp.nonzeros");
};

SimplexMetrics& lp_metrics() {
  // thread_local: references resolve against the thread-current registry
  // (per-worker under the parallel sweep engine; see obs/registry.hpp).
  static thread_local SimplexMetrics m;
  return m;
}

}  // namespace

const char* to_string(Status s) {
  switch (s) {
    case Status::Optimal: return "Optimal";
    case Status::Infeasible: return "Infeasible";
    case Status::Unbounded: return "Unbounded";
    case Status::IterationLimit: return "IterationLimit";
    case Status::TimeLimit: return "TimeLimit";
    case Status::NumericalError: return "NumericalError";
  }
  return "?";
}

// Friend-only door into Workspace internals used by solve().
struct WorkspaceHooks {
  // Saves the structural variables' final states into the workspace (for
  // the next solve's warm start) and consumes the one-shot hint.
  static void record_warm_state(Workspace& ws, int nstruct) {
    ws.prev_struct_state_.assign(ws.state_.begin(),
                                 ws.state_.begin() + nstruct);
    ws.warm_map_.clear();
  }

  // Stores the finished solve's stats in the workspace and notifies its
  // sink, if any.
  static void publish_stats(Workspace& ws, const SolveStats& stats) {
    ws.last_stats_ = stats;
    if (ws.stats_sink_ != nullptr)
      ws.stats_sink_->on_solve(stats, ws.stats_context_);
  }
};

// Dense tableau storage: the row-major tableau, column ntot holding
// B^-1 b. The engine never touches coefficients directly; it goes through
//   reset/load_rows/append_unit  build-time population
//   rhs/negate_row               rhs column + row orientation flips
//   scan_row                     nonzero (col, value) pairs, ascending col
//   price_accumulate             d[j] -= cb * a_ij over the row
//   gather_col                   nonzero (row, value) pairs, ascending row
//   pivot                        elementary row operations for one pivot
// The loops skip exact-zero coefficients in every decision (pricing
// eligibility, ratio test, basic-value updates, pivot row selection). The
// operation order below is the solver's bit-identity contract: reordering
// any of it changes which vertex degenerate LPs end on.
struct DenseTableau {
  explicit DenseTableau(Workspace& ws) : tab(ws.tab_) {}

  void reset(int m_, int ntot_) {
    m = m_;
    ntot = ntot_;
    width = ntot_ + 1;
    tab.assign(static_cast<std::size_t>(m) * width, 0.0);
  }

  void load_rows(const Model& model) {
    for (int r = 0; r < m; ++r) {
      for (auto [v, c] : model.row_entries(r)) at(r, v) = c;
      at(r, ntot) = model.row_rhs(r);
    }
  }

  void append_unit(int r, int j, double v) { at(r, j) = v; }

  double rhs(int r) const { return at(r, ntot); }

  void negate_row(int r) {
    double* row = &tab[static_cast<std::size_t>(r) * width];
    for (int j = 0; j < width; ++j) row[j] = -row[j];
  }

  template <class F>
  void scan_row(int r, int jlimit, F&& f) const {
    const double* row = &tab[static_cast<std::size_t>(r) * width];
    for (int j = 0; j < jlimit; ++j) {
      const double a = row[j];
      if (a != 0.0) f(j, a);
    }
  }

  void price_accumulate(int i, double cb, double* d) const {
    const double* row = &tab[static_cast<std::size_t>(i) * width];
    for (int j = 0; j < ntot; ++j) d[j] -= cb * row[j];
  }

  void gather_col(int e, std::vector<std::pair<int, double>>& out) const {
    for (int i = 0; i < m; ++i) {
      const double a = tab[static_cast<std::size_t>(i) * width + e];
      if (a != 0.0) out.emplace_back(i, a);
    }
  }

  // `col_cache` holds the entering column's nonzero entries as gathered
  // before this pivot; other rows' entries in that column are unchanged by
  // the pivot-row scaling, so the cached factors equal the live ones.
  void pivot(int row, int col,
             const std::vector<std::pair<int, double>>& col_cache) {
    const double inv = 1.0 / at(row, col);
    double* prow = &tab[static_cast<std::size_t>(row) * width];
    for (int j = 0; j < width; ++j) prow[j] *= inv;
    prow[col] = 1.0;  // kill roundoff
    for (const auto& [i, f] : col_cache) {
      if (i == row) continue;
      double* irow = &tab[static_cast<std::size_t>(i) * width];
      for (int j = 0; j < width; ++j) irow[j] -= f * prow[j];
      irow[col] = 0.0;
    }
  }

  std::int64_t nonzeros() const {
    std::int64_t nnz = 0;
    for (int i = 0; i < m; ++i) {
      const double* row = &tab[static_cast<std::size_t>(i) * width];
      for (int j = 0; j < ntot; ++j)
        if (row[j] != 0.0) ++nnz;
    }
    return nnz;
  }

  std::vector<double>& tab;
  int m = 0, ntot = 0, width = 0;

  double& at(int i, int j) {
    return tab[static_cast<std::size_t>(i) * width + j];
  }
  double at(int i, int j) const {
    return tab[static_cast<std::size_t>(i) * width + j];
  }
};

// The solver proper. All working vectors live in the caller's Workspace
// (bound by reference) so a long-lived workspace turns every per-solve
// allocation into an assign() over retained capacity.
class SimplexEngine {
 public:
  SimplexEngine(const Model& model, const Options& opt, Workspace& ws)
      : model_(model),
        opt_(opt),
        ws_(ws),
        tb_(ws),
        lo_(ws.lo_),
        hi_(ws.hi_),
        cost_(ws.cost_),
        state_(ws.state_),
        basis_(ws.basis_),
        xb_(ws.xb_),
        dscratch_(ws.dscratch_),
        colbuf_(ws.colbuf_) {
    build();
  }

  Solution run() {
    Solution sol = run_phases();
    stats_.fill_nonzeros = tb_.nonzeros();
    return sol;
  }

  // Per-solve introspection collected while running (see SolveStats).
  // Dimensions, wall time and status are stamped by solve().
  const SolveStats& stats() const { return stats_; }

 private:
  void build();
  Solution run_phases();
  // One simplex phase on objective `cost_`.
  Status iterate(int* iter_budget);
  void recompute_basic_values();
  double current_cost() const;
  int price(bool bland);  // entering column or -1

  double nonbasic_value(int j) const {
    return state_[j] == VarState::AtUpper ? hi_[j] : lo_[j];
  }

  const Model& model_;
  const Options& opt_;
  Workspace& ws_;
  DenseTableau tb_;

  int m_ = 0;        // rows
  int nstruct_ = 0;  // structural variables
  int ntot_ = 0;     // structural + slack + artificial

  std::vector<double>& lo_;
  std::vector<double>& hi_;
  std::vector<double>& cost_;
  std::vector<VarState>& state_;
  std::vector<int>& basis_;  // basis_[i] = variable basic in row i
  std::vector<double>& xb_;  // value of basis_[i]
  std::vector<double>& dscratch_;
  std::vector<std::pair<int, double>>& colbuf_;
  int first_artificial_ = 0;
  SolveStats stats_;
  // Wall-clock watchdog (Options::max_seconds); invalid when unlimited.
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_;

  // NaN / infinity anywhere in the basic values: the tableau degenerated
  // and no further pivot can be trusted.
  bool values_corrupt() const {
    for (double v : xb_)
      if (!std::isfinite(v)) return true;
    return false;
  }
};

void SimplexEngine::build() {
  m_ = model_.num_rows();
  nstruct_ = model_.num_variables();

  int nslack = 0;
  for (int r = 0; r < m_; ++r)
    if (model_.row_sense(r) != Sense::Equal) ++nslack;

  first_artificial_ = nstruct_ + nslack;
  ntot_ = first_artificial_ + m_;
  tb_.reset(m_, ntot_);

  lo_.assign(ntot_, 0.0);
  hi_.assign(ntot_, kInf);
  cost_.assign(ntot_, 0.0);
  state_.assign(ntot_, VarState::AtLower);
  basis_.assign(m_, -1);
  xb_.assign(m_, 0.0);
  dscratch_.assign(ntot_, 0.0);

  for (int j = 0; j < nstruct_; ++j) {
    lo_[j] = model_.lower(j);
    hi_[j] = model_.upper(j);
    GC_CHECK_MSG(std::isfinite(lo_[j]),
                 "variable " << j << " lacks a finite lower bound");
  }

  // Warm start (one-shot; see Workspace): rest mapped structural variables
  // at the bound they ended the previous solve on. The artificial-basis
  // residuals below are computed from nonbasic_value(), so the hint feeds
  // straight into a (near-)feasible starting point for phase I. A variable
  // that was basic before has no bound to rest at and stays at its lower
  // bound like any cold variable.
  if (!ws_.warm_map_.empty() && !ws_.prev_struct_state_.empty()) {
    GC_CHECK_MSG(static_cast<int>(ws_.warm_map_.size()) == nstruct_,
                 "warm-start map covers " << ws_.warm_map_.size()
                                          << " variables, model has "
                                          << nstruct_);
    stats_.warm_attempted = true;
    const int nprev = static_cast<int>(ws_.prev_struct_state_.size());
    for (int j = 0; j < nstruct_; ++j) {
      const int o = ws_.warm_map_[j];
      if (o < 0 || o >= nprev) continue;
      // A mapped variable that ended the previous solve at a bound rests
      // there again (AtLower coincides with the cold default but is still a
      // carried-over state); one that was basic has no bound to carry.
      if (ws_.prev_struct_state_[o] == VarState::AtUpper &&
          std::isfinite(hi_[j])) {
        state_[j] = VarState::AtUpper;
        ++stats_.warm_vars_reused;
      } else if (ws_.prev_struct_state_[o] == VarState::AtLower) {
        ++stats_.warm_vars_reused;
      }
    }
  }

  tb_.load_rows(model_);

  // Slacks: "<=" gets a +1 slack in [0, inf); ">=" a -1 surplus in [0, inf).
  int s = nstruct_;
  for (int r = 0; r < m_; ++r) {
    switch (model_.row_sense(r)) {
      case Sense::LessEqual:
        tb_.append_unit(r, s++, 1.0);
        break;
      case Sense::GreaterEqual:
        tb_.append_unit(r, s++, -1.0);
        break;
      case Sense::Equal:
        break;
    }
  }
  GC_CHECK(s == first_artificial_);

  // Artificial basis. Basic columns must form an identity, so rows whose
  // starting residual is negative are negated wholesale (the equation is
  // unchanged; only its orientation flips) before the +1 artificial enters.
  for (int r = 0; r < m_; ++r) {
    double resid = tb_.rhs(r);
    tb_.scan_row(r, first_artificial_, [&](int j, double a) {
      resid -= a * nonbasic_value(j);
    });
    if (resid < 0.0) {
      tb_.negate_row(r);
      resid = -resid;
    }
    const int art = first_artificial_ + r;
    tb_.append_unit(r, art, 1.0);
    basis_[r] = art;
    state_[art] = VarState::Basic;
    xb_[r] = resid;
  }
}

double SimplexEngine::current_cost() const {
  double c = 0.0;
  for (int j = 0; j < ntot_; ++j)
    if (state_[j] != VarState::Basic && cost_[j] != 0.0)
      c += cost_[j] * nonbasic_value(j);
  for (int i = 0; i < m_; ++i) c += cost_[basis_[i]] * xb_[i];
  return c;
}

void SimplexEngine::recompute_basic_values() {
  ++stats_.refactorizations;
  // x_B = (B^-1 b) - sum_{nonbasic j} (B^-1 A_j) * xval_j; both factors live
  // in the updated tableau.
  for (int i = 0; i < m_; ++i) {
    double v = tb_.rhs(i);
    tb_.scan_row(i, ntot_, [&](int j, double a) {
      if (state_[j] == VarState::Basic) return;
      const double xv = nonbasic_value(j);
      if (xv != 0.0) v -= a * xv;
    });
    xb_[i] = v;
  }
}

int SimplexEngine::price(bool bland) {
  // Reduced costs d_j = c_j - c_B^T (B^-1 A_j), accumulated row-wise so the
  // tableau is walked storage-friendly.
  double* d = dscratch_.data();
  for (int j = 0; j < ntot_; ++j) d[j] = cost_[j];
  for (int i = 0; i < m_; ++i) {
    const double cb = cost_[basis_[i]];
    if (cb == 0.0) continue;
    tb_.price_accumulate(i, cb, d);
  }

  int best = -1;
  double best_score = 0.0;
  for (int j = 0; j < ntot_; ++j) {
    if (state_[j] == VarState::Basic) continue;
    if (hi_[j] - lo_[j] <= 0.0) continue;  // fixed, cannot move
    double score = 0.0;
    if (state_[j] == VarState::AtLower && d[j] < -opt_.opt_tol)
      score = -d[j];
    else if (state_[j] == VarState::AtUpper && d[j] > opt_.opt_tol)
      score = d[j];
    if (score > 0.0) {
      if (bland) return j;  // lowest eligible index
      if (score > best_score) {
        best_score = score;
        best = j;
      }
    }
  }
  return best;
}

Status SimplexEngine::iterate(int* iter_budget) {
  bool bland = false;
  int stall = 0;
  double best_obj = current_cost();
  int since_refresh = 0;
  int since_watchdog = 0;
  constexpr double kTie = 1e-10;

  while (true) {
    if (*iter_budget <= 0) return Status::IterationLimit;
    // Watchdog: deadline and NaN screens every few pivots, cheap enough to
    // be negligible yet tight enough that a pathological solve cannot hold
    // the controller's slot hostage.
    if (++since_watchdog >= 32) {
      since_watchdog = 0;
      if (has_deadline_ && std::chrono::steady_clock::now() > deadline_)
        return Status::TimeLimit;
      if (values_corrupt()) return Status::NumericalError;
    }
    const int e = price(bland);
    if (e < 0) return Status::Optimal;
    --*iter_budget;

    const double dir = state_[e] == VarState::AtLower ? 1.0 : -1.0;
    const double span = hi_[e] - lo_[e];  // may be +inf

    // The entering column is gathered once per iteration; its nonzero
    // entries (ascending row) serve the ratio test, the bound-flip / step
    // updates of the basic values, and the pivot's row eliminations.
    colbuf_.clear();
    tb_.gather_col(e, colbuf_);

    // Ratio test: entering moves by t >= 0 in direction dir; basic i changes
    // at rate delta_i = -dir * T(i, e).
    double t_best = kInf;
    int leave_row = -1;
    bool leave_at_upper = false;
    double leave_pivot = 0.0;
    for (const auto& [i, a] : colbuf_) {
      if (std::abs(a) < opt_.pivot_tol) continue;
      const double delta = -dir * a;
      const int b = basis_[i];
      double t;
      bool to_upper;
      if (delta > 0.0) {
        if (!std::isfinite(hi_[b])) continue;
        t = (hi_[b] - xb_[i]) / delta;
        to_upper = true;
      } else {
        t = (lo_[b] - xb_[i]) / delta;  // delta<0, numerator<=0 -> t>=0
        to_upper = false;
      }
      if (t < 0.0) t = 0.0;  // roundoff guard
      bool take = false;
      if (leave_row < 0 || t < t_best - kTie) {
        take = true;
      } else if (t <= t_best + kTie) {
        take = bland ? (b < basis_[leave_row])
                     : (std::abs(a) > std::abs(leave_pivot));
      }
      if (take) {
        t_best = std::min(t, t_best);
        leave_row = i;
        leave_at_upper = to_upper;
        leave_pivot = a;
      }
    }

    if (span <= t_best) {
      // Entering hits its own opposite bound first: bound flip, no pivot.
      if (!std::isfinite(span)) return Status::Unbounded;
      ++stats_.bound_flips;
      state_[e] = state_[e] == VarState::AtLower ? VarState::AtUpper
                                                 : VarState::AtLower;
      for (const auto& [i, a] : colbuf_) xb_[i] -= dir * a * span;
    } else {
      GC_CHECK(leave_row >= 0);
      const double t = t_best;
      const double enter_val = nonbasic_value(e) + dir * t;
      for (const auto& [i, a] : colbuf_) {
        if (i == leave_row) continue;
        xb_[i] -= dir * a * t;
      }
      const int leaving = basis_[leave_row];
      state_[leaving] = leave_at_upper ? VarState::AtUpper : VarState::AtLower;
      ++stats_.pivots;
      // A zero-length step is the degeneracy that stalls dense simplex on
      // big scheduling LPs — worth its own count.
      if (t <= kTie) ++stats_.degenerate_pivots;
      tb_.pivot(leave_row, e, colbuf_);
      basis_[leave_row] = e;
      state_[e] = VarState::Basic;
      xb_[leave_row] = enter_val;
      if (++since_refresh >= opt_.refresh_every) {
        recompute_basic_values();
        since_refresh = 0;
      }
    }

    // Stall detection -> permanent Bland's rule (termination guarantee).
    const double obj = current_cost();
    if (obj < best_obj - 1e-10 * (1.0 + std::abs(best_obj))) {
      best_obj = obj;
      stall = 0;
    } else if (!bland && ++stall >= opt_.stall_limit) {
      bland = true;
      ++stats_.bland_switches;
    }
  }
}

Solution SimplexEngine::run_phases() {
  Solution sol;
  int budget = opt_.max_iterations;
  if (opt_.max_seconds > 0.0) {
    has_deadline_ = true;
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(opt_.max_seconds));
  }

  // Phase I: minimize the sum of artificials.
  for (int j = 0; j < ntot_; ++j) cost_[j] = 0.0;
  for (int r = 0; r < m_; ++r) cost_[first_artificial_ + r] = 1.0;
  Status st = iterate(&budget);
  recompute_basic_values();
  const double infeas = current_cost();
  sol.infeasibility = infeas;
  sol.iterations = opt_.max_iterations - budget;
  stats_.phase1_iterations = sol.iterations;
  if (!std::isfinite(infeas) || values_corrupt()) {
    st = Status::NumericalError;
    ++stats_.numeric_repairs;
  }
  if (st == Status::IterationLimit || st == Status::TimeLimit ||
      st == Status::NumericalError) {
    sol.status = st;
    return sol;
  }
  GC_CHECK_MSG(st != Status::Unbounded, "phase I cannot be unbounded");
  if (infeas > opt_.feas_tol * (1.0 + std::abs(infeas))) {
    sol.status = Status::Infeasible;
    return sol;
  }

  // Phase II: pin artificials at zero; minimize the caller's objective.
  for (int r = 0; r < m_; ++r) {
    const int a = first_artificial_ + r;
    hi_[a] = 0.0;
    if (state_[a] == VarState::AtUpper) state_[a] = VarState::AtLower;
  }
  for (int j = 0; j < ntot_; ++j) cost_[j] = 0.0;
  for (int j = 0; j < nstruct_; ++j) cost_[j] = model_.objective_coeff(j);
  st = iterate(&budget);
  recompute_basic_values();
  sol.iterations = opt_.max_iterations - budget;
  stats_.phase2_iterations = sol.iterations - stats_.phase1_iterations;
  if (values_corrupt()) {
    st = Status::NumericalError;
    ++stats_.numeric_repairs;
  }
  sol.status = st;

  sol.x.assign(nstruct_, 0.0);
  for (int j = 0; j < nstruct_; ++j)
    if (state_[j] != VarState::Basic) sol.x[j] = nonbasic_value(j);
  for (int i = 0; i < m_; ++i)
    if (basis_[i] < nstruct_) sol.x[basis_[i]] = xb_[i];
  // Clamp tiny bound violations left by floating-point drift. Clamps that
  // move a value beyond drift noise count as numeric repairs (SolveStats).
  constexpr double kDriftNoise = 1e-9;
  for (int j = 0; j < nstruct_; ++j) {
    const double before = sol.x[j];
    sol.x[j] = std::max(sol.x[j], model_.lower(j));
    if (std::isfinite(model_.upper(j)))
      sol.x[j] = std::min(sol.x[j], model_.upper(j));
    if (std::abs(sol.x[j] - before) > kDriftNoise) ++stats_.numeric_repairs;
  }
  sol.objective = model_.objective_value(sol.x);
  return sol;
}

Solution solve(const Model& model, const Options& options,
               Workspace& workspace) {
  SimplexMetrics& m = lp_metrics();
  // One clock pair times the solve for lp.solve_seconds, the lp.solve span
  // and stats.wall_s. Span dim = structural columns, so the profiler can
  // attribute wall time to LP size classes (obs/profile.hpp).
  obs::Span span("lp.solve", -1, model.num_variables(), &m.solve_seconds);

  std::int64_t nnz = 0;
  for (int r = 0; r < model.num_rows(); ++r)
    nnz += static_cast<std::int64_t>(model.row_entries(r).size());

  SimplexEngine engine(model, options, workspace);
  Solution sol = engine.run();
  SolveStats stats = engine.stats();
  // Record the structural variables' final states for the next solve's
  // warm start and consume the (one-shot) hint that fed this one.
  WorkspaceHooks::record_warm_state(workspace, model.num_variables());
  stats.wall_s = span.close();
  m.solves.add();
  m.iterations.add(sol.iterations);
  if (sol.status == Status::TimeLimit) m.time_limits.add();
  if (sol.status == Status::NumericalError) m.numerical_errors.add();

  // SolveStats is the one place the engine counts its work; the registry
  // takes its totals once per solve, so every lp.* work counter's events()
  // counts solves, not pivots or flips.
  stats.rows = model.num_rows();
  stats.cols = model.num_variables();
  stats.nonzeros = static_cast<int>(nnz);
  stats.status = sol.status;
  // "Accepted" = the hint survived to the engine and mapped at least one
  // variable onto a carried-over bound state.
  const bool warm_accepted = stats.warm_attempted && stats.warm_vars_reused > 0;

  m.pivots.add(stats.pivots);
  m.bound_flips.add(stats.bound_flips);
  m.refactorizations.add(stats.refactorizations);
  m.bland_switches.add(stats.bland_switches);
  m.phase1_iterations.add(stats.phase1_iterations);
  m.phase2_iterations.add(stats.phase2_iterations);
  m.degenerate_pivots.add(stats.degenerate_pivots);
  if (stats.warm_attempted) m.warmstart_attempted.add();
  if (warm_accepted) m.warmstart_accepted.add();
  // Only warm solves contribute, so events() counts attempts, not solves.
  if (stats.warm_attempted)
    m.warmstart_vars_reused.add(stats.warm_vars_reused);
  m.numeric_repairs.add(stats.numeric_repairs);
  m.fill_nonzeros.observe(static_cast<double>(stats.fill_nonzeros));
  m.rows.observe(stats.rows);
  m.cols.observe(stats.cols);
  m.nonzeros.observe(stats.nonzeros);

  WorkspaceHooks::publish_stats(workspace, stats);
  return sol;
}

Solution solve(const Model& model, const Options& options) {
  Workspace workspace;
  return solve(model, options, workspace);
}

}  // namespace gc::lp
