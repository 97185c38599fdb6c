#include <algorithm>
#include <cstdio>
#include <fstream>

#include "obs/timer.hpp"
#include "util/check.hpp"

namespace gc::obs {

namespace {

// Ring-overflow accounting: every span the ring overwrites bumps the
// recording thread's `obs.spans_dropped` counter (per-worker under the
// parallel sweep engine, folded into the merged registry afterwards), so a
// truncated profile announces itself in snapshots and reports instead of
// silently missing its oldest spans.
obs::Counter& spans_dropped_counter() {
  static thread_local obs::Counter& c =
      obs::registry().counter("obs.spans_dropped");
  return c;
}

}  // namespace

SpanRecorder& SpanRecorder::instance() {
  static SpanRecorder r;
  return r;
}

void SpanRecorder::enable(std::size_t capacity) {
  GC_CHECK_MSG(capacity > 0, "span ring capacity must be > 0");
  // Register the drop counter up front so it appears (at zero) in registry
  // dumps of clean runs too — an absent counter and a truncated profile
  // must not look the same.
  spans_dropped_counter();
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.assign(capacity, SpanEvent{});
  next_ = size_ = 0;
  dropped_ = 0;
  if (!have_epoch_.load(std::memory_order_relaxed)) {
    epoch_ = std::chrono::steady_clock::now();
    have_epoch_.store(true, std::memory_order_release);
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void SpanRecorder::disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

double SpanRecorder::since_epoch_s(
    std::chrono::steady_clock::time_point t) const {
  // Lock-free: epoch_ is written once, published by the release store on
  // have_epoch_ (enable holds the mutex for the rest of its work).
  if (!have_epoch_.load(std::memory_order_acquire)) return 0.0;
  return std::chrono::duration<double>(t - epoch_).count();
}

void SpanRecorder::record(const char* name, double start_s, double dur_s,
                          std::int64_t id, std::int64_t dim) {
  if (!enabled()) return;
  const std::uint32_t tid = thread_lane();
  bool dropped_one = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (ring_.empty()) return;  // enable() never ran with capacity
    if (size_ == ring_.size()) {  // overwriting the oldest
      ++dropped_;
      ++dropped_total_;
      dropped_one = true;
    }
    ring_[next_] = SpanEvent{name, start_s, dur_s, tid, id, dim};
    next_ = (next_ + 1) % ring_.size();
    size_ = std::min(size_ + 1, ring_.size());
  }
  if (dropped_one) spans_dropped_counter().add();
}

std::vector<SpanEvent> SpanRecorder::drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanEvent> out;
  out.reserve(size_);
  // Oldest-first: the ring's logical start is next_ - size_ (mod capacity).
  for (std::size_t k = 0; k < size_; ++k) {
    const std::size_t i =
        (next_ + ring_.size() - size_ + k) % ring_.size();
    out.push_back(ring_[i]);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     return a.start_s < b.start_s;
                   });
  next_ = size_ = 0;
  dropped_ = 0;
  return out;
}

std::int64_t SpanRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::int64_t SpanRecorder::dropped_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_total_;
}

namespace {

void append_chrome_events(const SpanEvent* events, std::size_t n,
                          std::string* body) {
  *body += "{\"traceEvents\":[";
  char buf[80];
  for (std::size_t k = 0; k < n; ++k) {
    const SpanEvent& e = events[k];
    if (k != 0) *body += ',';
    *body += "\n{\"name\":\"";
    for (const char* c = e.name; *c; ++c) {
      if (*c == '"' || *c == '\\') *body += '\\';
      *body += *c;
    }
    // Complete ("X") events in microseconds, one pid, tid = lane.
    *body += "\",\"ph\":\"X\",\"ts\":";
    std::snprintf(buf, sizeof buf, "%.3f", e.start_s * 1e6);
    *body += buf;
    *body += ",\"dur\":";
    std::snprintf(buf, sizeof buf, "%.3f", e.dur_s * 1e6);
    *body += buf;
    std::snprintf(buf, sizeof buf, ",\"pid\":1,\"tid\":%u",
                  static_cast<unsigned>(e.tid));
    *body += buf;
    if (e.id >= 0 || e.dim >= 0) {
      *body += ",\"args\":{";
      bool first_arg = true;
      if (e.id >= 0) {
        std::snprintf(buf, sizeof buf, "\"id\":%lld",
                      static_cast<long long>(e.id));
        *body += buf;
        first_arg = false;
      }
      if (e.dim >= 0) {
        std::snprintf(buf, sizeof buf, "%s\"dim\":%lld", first_arg ? "" : ",",
                      static_cast<long long>(e.dim));
        *body += buf;
      }
      *body += '}';
    }
    *body += '}';
  }
  *body += "\n]}\n";
}

void write_atomically(const std::string& path, const std::string& body,
                      const char* what) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    GC_CHECK_MSG(out.good(), "cannot open " << what << " file " << tmp);
    out << body;
    out.flush();
    GC_CHECK_MSG(out.good(), what << " write failed on " << tmp);
  }
  GC_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
               "cannot move " << what << " into place at " << path);
}

}  // namespace

void SpanRecorder::export_chrome_trace(const std::string& path) const {
  std::string body;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    body.reserve(64 + size_ * 96);
    // The ring is walked oldest-first into a contiguous copy so the shared
    // event formatter applies.
    std::vector<SpanEvent> ordered;
    ordered.reserve(size_);
    for (std::size_t k = 0; k < size_; ++k)
      ordered.push_back(ring_[(next_ + ring_.size() - size_ + k) %
                              ring_.size()]);
    append_chrome_events(ordered.data(), ordered.size(), &body);
  }
  write_atomically(path, body, "span trace");
}

void write_chrome_trace(const std::string& path,
                        const std::vector<SpanEvent>& spans) {
  std::string body;
  body.reserve(64 + spans.size() * 96);
  append_chrome_events(spans.data(), spans.size(), &body);
  write_atomically(path, body, "span trace");
}

std::uint32_t SpanRecorder::thread_lane() {
  static std::atomic<std::uint32_t> next_lane{0};
  static thread_local std::uint32_t lane =
      next_lane.fetch_add(1, std::memory_order_relaxed);
  return lane;
}

}  // namespace gc::obs
