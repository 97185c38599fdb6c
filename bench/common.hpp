// Shared plumbing for the figure-reproduction drivers.
//
// Every fig2*/ablation_* binary prints the series it regenerates as an
// aligned table on stdout and writes the same data as CSV next to the
// binary. Horizon and sweep sizes default to values that finish in seconds;
// set REPRO_FULL=1 for the paper's full T = 100-slot horizon everywhere,
// or REPRO_SLOTS=<n> to pin the horizon explicitly.
// Sweep-shaped benches fan their runs out through sim::SweepRunner;
// GC_THREADS=<n> pins the worker count (default: all hardware threads).
// Per-seed results are bit-identical at any thread count (sweep.hpp).
#pragma once

#include <string>
#include <vector>

#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "util/csv.hpp"

namespace gc::bench {

// Environment overrides.
int env_int(const char* name, int fallback);
bool full_repro();

// Default horizon: `fast` normally, 100 (the paper's T) under REPRO_FULL=1,
// REPRO_SLOTS always wins.
int horizon(int fast);

// Worker threads for sweep-shaped benches: GC_THREADS if set (> 0),
// otherwise every hardware thread.
int bench_threads();

// A SweepRunner configured with bench_threads(), merging observability into
// the global registry.
sim::SweepRunner make_sweep_runner();

// Runs `jobs` through make_sweep_runner(); results in job order.
std::vector<sim::Metrics> run_sweep(const std::vector<sim::SimJob>& jobs);

// Pretty printing.
void print_title(const std::string& title, const std::string& subtitle);
void print_row(const std::vector<std::string>& cells, int width = 14);
std::string num(double v);

// Runs the online controller on `cfg` for `slots` and returns the metrics.
sim::Metrics run_controller(const sim::ScenarioConfig& cfg, double V,
                            int slots);

// Observability columns appended to the bench CSVs: mean per-slot wall time
// in milliseconds for each subproblem and the whole controller step.
std::vector<std::string> timing_headers();
std::vector<double> timing_columns(const sim::Metrics& m);
// `base` with the timing columns appended — CSV-row convenience.
std::vector<double> with_timing(std::vector<double> base,
                                const sim::Metrics& m);
// Same, appended to a header list.
std::vector<std::string> with_timing_headers(std::vector<std::string> base);

}  // namespace gc::bench
