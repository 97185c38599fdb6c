#include "lp/solve_log.hpp"

#include <cstdio>

#include "util/check.hpp"
#include "util/fsio.hpp"

namespace gc::lp {

JsonlSolveLog::JsonlSolveLog(const std::string& path, bool append)
    : path_(path), out_(path, append ? std::ios::app : std::ios::trunc) {
  GC_CHECK_MSG(out_.good(), "cannot open LP solve log " << path);
}

JsonlSolveLog::~JsonlSolveLog() {
  std::lock_guard<std::mutex> lock(mutex_);
  out_.flush();
}

void JsonlSolveLog::on_solve(const SolveStats& stats, const char* context) {
  // One self-contained line per solve; keys stay flat so `jq -c` and
  // column-oriented readers need no schema.
  char buf[640];
  std::lock_guard<std::mutex> lock(mutex_);
  std::snprintf(
      buf, sizeof buf,
      "{\"ctx\":\"%s\",\"slot\":%d,\"rows\":%d,\"cols\":%d,\"nonzeros\":%d,"
      "\"phase1_iters\":%d,\"phase2_iters\":%d,\"pivots\":%d,"
      "\"degenerate_pivots\":%d,\"bound_flips\":%d,\"refactorizations\":%d,"
      "\"bland\":%s,\"warm_attempted\":%s,\"warm_vars_reused\":%d,"
      "\"fill_nonzeros\":%lld,\"numeric_repairs\":%d,\"status\":\"%s\","
      "\"wall_s\":%.9f}",
      context != nullptr ? context : "", slot_, stats.rows, stats.cols,
      stats.nonzeros, stats.phase1_iterations, stats.phase2_iterations,
      stats.pivots, stats.degenerate_pivots, stats.bound_flips,
      stats.refactorizations, stats.bland_switches > 0 ? "true" : "false",
      stats.warm_attempted ? "true" : "false", stats.warm_vars_reused,
      static_cast<long long>(stats.fill_nonzeros), stats.numeric_repairs,
      to_string(stats.status), stats.wall_s);
  out_ << buf << '\n';
  ++lines_;
}

void JsonlSolveLog::begin_slot(int slot) {
  std::lock_guard<std::mutex> lock(mutex_);
  slot_ = slot;
}

void JsonlSolveLog::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  out_.flush();
  util::fsync_file(path_);
}

std::int64_t JsonlSolveLog::lines_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lines_;
}

}  // namespace gc::lp
