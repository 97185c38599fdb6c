// Wall-clock timing over std::chrono::steady_clock.
//
// Span is the one RAII timing primitive. It records the lifetime of a scope
// as a named interval into the process-wide SpanRecorder ring buffer,
// exportable as Chrome trace-event JSON (chrome://tracing, Perfetto), and
// optionally also into a Histogram and a caller-owned accumulator:
//
//   {
//     obs::Span span("lp.solve", -1, cols,
//                    &obs::registry().histogram("lp.solve_seconds"));
//     ... hot work ...
//   }   // <- observed here
//
// Spans nest naturally: each scope records its own start and duration, and
// the viewer reconstructs the stack from containment on the same thread
// lane. Recording is off by default. A span with neither a histogram nor an
// accumulator then costs one relaxed atomic load; a timed one always reads
// the clock twice (~20 ns each) and observes one histogram sample.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/registry.hpp"

namespace gc::obs {

// Free-running stopwatch for call sites that want the raw duration.
class StopWatch {
 public:
  StopWatch() : start_(clock::now()) {}
  double elapsed_seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }
  // Returns elapsed seconds and restarts.
  double lap() {
    const auto now = clock::now();
    const double s = std::chrono::duration<double>(now - start_).count();
    start_ = now;
    return s;
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

// One recorded interval. `name` must be a string literal (or otherwise
// outlive the recorder) — recording stores the pointer, never copies.
struct SpanEvent {
  const char* name = "";
  double start_s = 0.0;  // seconds since the recorder's epoch
  double dur_s = 0.0;
  std::uint32_t tid = 0;  // small dense per-thread index, Chrome lane
  std::int64_t id = -1;   // caller payload (sweep job index, slot, ...)
  // Problem-size annotation (LP columns, scheduled links, nodes, ...);
  // -1 = none. The profiler (obs/profile.hpp) aggregates it per tree node
  // so slots/s cliffs can be correlated with problem dimensions.
  std::int64_t dim = -1;
};

// Process-wide bounded span store: a mutex-protected ring buffer that keeps
// the most recent `capacity` spans (older ones are overwritten; dropped()
// counts them). Recording is gated on an atomic flag so instrumented hot
// paths pay one relaxed load when tracing is off.
class SpanRecorder {
 public:
  static SpanRecorder& instance();

  // Clears the buffer, (re)sizes it, and starts recording. The epoch for
  // start_s is the first enable() call of the process.
  void enable(std::size_t capacity = 1 << 18);
  void disable();
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  void record(const char* name, double start_s, double dur_s,
              std::int64_t id, std::int64_t dim = -1);

  // Seconds from the recorder epoch to `t` on the steady clock; 0 before
  // the first enable().
  double since_epoch_s(std::chrono::steady_clock::time_point t) const;

  // Copies the buffered spans out in chronological order and clears the
  // buffer (dropped() resets too).
  std::vector<SpanEvent> drain();
  std::int64_t dropped() const;

  // Writes the buffered spans (without draining) as Chrome trace-event
  // JSON — {"traceEvents":[{"ph":"X",...}]} — atomically (tmp + rename).
  // Timestamps are microseconds since the recorder epoch.
  void export_chrome_trace(const std::string& path) const;

  // The calling thread's dense lane index (assigned on first use).
  static std::uint32_t thread_lane();

  // Total spans the ring has dropped since the process started (unlike
  // dropped(), never reset by drain()). Mirrored into the `obs.spans_dropped`
  // registry counter of whichever thread recorded the overflowing span, so
  // truncated profiles are detectable from snapshots and reports.
  std::int64_t dropped_total() const;

 private:
  SpanRecorder() = default;

  std::atomic<bool> enabled_{false};
  // The epoch is written once (first enable) and read lock-free afterwards:
  // the release store on have_epoch_ publishes epoch_.
  std::atomic<bool> have_epoch_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;  // guards the ring below
  std::vector<SpanEvent> ring_;
  std::size_t next_ = 0;       // ring write cursor
  std::size_t size_ = 0;       // live entries (<= ring_.size())
  std::int64_t dropped_ = 0;
  std::int64_t dropped_total_ = 0;  // never reset (see dropped_total())
};

// Writes `spans` as Chrome trace-event JSON atomically (tmp + rename) —
// the same format SpanRecorder::export_chrome_trace emits, usable on any
// span list (a drained ring, or one sweep job's partition from
// obs::partition_spans_by_job).
void write_chrome_trace(const std::string& path,
                        const std::vector<SpanEvent>& spans);

// RAII span: times [construction, destruction). The interval goes into the
// SpanRecorder when recording is enabled, into `hist` (one sample) and onto
// `*accumulate_s` whenever those are given. `name` must outlive the
// recorder (use string literals). `id` disambiguates instances (slot index,
// sweep job index); `dim` annotates the problem size (LP columns, scheduled
// links, nodes) — set it at construction when known, or later via set_dim
// for sizes that only materialize inside the scope (a schedule's link
// count, say).
class Span {
 public:
  explicit Span(const char* name, std::int64_t id = -1, std::int64_t dim = -1,
                Histogram* hist = nullptr, double* accumulate_s = nullptr)
      : name_(name),
        id_(id),
        dim_(dim),
        hist_(hist),
        out_(accumulate_s),
        live_(SpanRecorder::instance().enabled()),
        open_(live_ || hist != nullptr || accumulate_s != nullptr) {
    if (open_) start_ = clock::now();
  }

  // Updates the recorded problem-size annotation (recorded at close).
  void set_dim(std::int64_t dim) { dim_ = dim; }

  // Ends the interval now rather than at scope exit and returns its length
  // in seconds (0 when nothing times this span). Later calls, the
  // destructor's included, do nothing and return 0.
  double close() {
    if (!open_) return 0.0;
    open_ = false;
    const double s =
        std::chrono::duration<double>(clock::now() - start_).count();
    if (hist_ != nullptr) hist_->observe(s);
    if (out_ != nullptr) *out_ += s;
    if (live_) {
      SpanRecorder& r = SpanRecorder::instance();
      r.record(name_, r.since_epoch_s(start_), s, id_, dim_);
    }
    return s;
  }

  ~Span() { close(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  using clock = std::chrono::steady_clock;
  const char* name_;
  std::int64_t id_;
  std::int64_t dim_;
  Histogram* hist_;
  double* out_;
  bool live_;
  bool open_;  // timed and not yet closed
  clock::time_point start_;
};

}  // namespace gc::obs
