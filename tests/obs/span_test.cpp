// Span tracing (src/obs/timer.hpp): the process-wide SpanRecorder ring,
// RAII Span capture, drop accounting on wrap, and the Chrome trace-event
// export. The recorder is a process singleton, so every test enables a
// fresh ring and disables + drains before returning.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/timer.hpp"

namespace gc::obs {
namespace {

// RAII guard: whatever a test does, the next one starts with recording off
// and an empty ring.
struct RecorderReset {
  ~RecorderReset() {
    SpanRecorder::instance().disable();
    SpanRecorder::instance().drain();
  }
};

TEST(Span, DisabledRecorderRecordsNothing) {
  RecorderReset reset;
  SpanRecorder::instance().disable();
  { Span s("span_test.never", 1); }
  EXPECT_TRUE(SpanRecorder::instance().drain().empty());
}

TEST(Span, NestedSpansDrainChronologically) {
  RecorderReset reset;
  SpanRecorder::instance().enable(64);
  {
    Span outer("span_test.outer", 10);
    { Span inner("span_test.inner", 11); }
  }
  SpanRecorder::instance().disable();
  const auto spans = SpanRecorder::instance().drain();
  ASSERT_EQ(spans.size(), 2u);
  // Oldest-first by start time: the outer scope opened before the inner.
  EXPECT_STREQ(spans[0].name, "span_test.outer");
  EXPECT_STREQ(spans[1].name, "span_test.inner");
  EXPECT_EQ(spans[0].id, 10);
  EXPECT_EQ(spans[1].id, 11);
  EXPECT_LE(spans[0].start_s, spans[1].start_s);
  // Containment: the inner span closed no later than the outer did.
  EXPECT_LE(spans[1].start_s + spans[1].dur_s,
            spans[0].start_s + spans[0].dur_s + 1e-9);
  // Draining cleared the ring.
  EXPECT_TRUE(SpanRecorder::instance().drain().empty());
}

TEST(Span, RingKeepsMostRecentAndCountsDrops) {
  RecorderReset reset;
  SpanRecorder::instance().enable(4);
  for (std::int64_t i = 0; i < 10; ++i)
    SpanRecorder::instance().record("span_test.wrap", 1.0 * i, 0.5, i);
  EXPECT_EQ(SpanRecorder::instance().dropped(), 6);
  const auto spans = SpanRecorder::instance().drain();
  ASSERT_EQ(spans.size(), 4u);
  for (std::int64_t k = 0; k < 4; ++k) EXPECT_EQ(spans[k].id, 6 + k);
  // drain() resets the drop count with the buffer.
  EXPECT_EQ(SpanRecorder::instance().dropped(), 0);
}

TEST(Span, ReenableClearsPreviousContents) {
  RecorderReset reset;
  SpanRecorder::instance().enable(8);
  SpanRecorder::instance().record("span_test.old", 0.0, 1.0, 1);
  SpanRecorder::instance().enable(8);  // restart: old spans gone
  SpanRecorder::instance().record("span_test.new", 0.0, 1.0, 2);
  const auto spans = SpanRecorder::instance().drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "span_test.new");
}

TEST(Span, ExportsParseableChromeTrace) {
  RecorderReset reset;
  SpanRecorder::instance().enable(16);
  SpanRecorder::instance().record("span_test.export \"q\"", 1.0, 0.25, 42);
  SpanRecorder::instance().record("span_test.anon", 2.0, 0.5, -1);
  const std::string path = testing::TempDir() + "gc_span_export.json";
  SpanRecorder::instance().export_chrome_trace(path);

  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const JsonValue v = json_parse(ss.str());
  const JsonArray& events = v.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("name").as_string(), "span_test.export \"q\"");
  EXPECT_EQ(events[0].at("ph").as_string(), "X");
  // Microseconds since the recorder epoch.
  EXPECT_DOUBLE_EQ(events[0].at("ts").as_number(), 1e6);
  EXPECT_DOUBLE_EQ(events[0].at("dur").as_number(), 0.25e6);
  EXPECT_DOUBLE_EQ(events[0].at("args").at("id").as_number(), 42.0);
  // id < 0 = no payload: the args object is omitted entirely.
  EXPECT_FALSE(events[1].has("args"));
  // Export does not drain: the ring still holds both spans.
  EXPECT_EQ(SpanRecorder::instance().drain().size(), 2u);
  std::remove(path.c_str());
}

TEST(Span, ExportsDimAnnotationInTraceArgs) {
  RecorderReset reset;
  SpanRecorder::instance().enable(16);
  SpanRecorder::instance().record("span_test.dim", 1.0, 0.5, 7, 480);
  SpanRecorder::instance().record("span_test.dim_only", 2.0, 0.5, -1, 12);
  const std::string path = testing::TempDir() + "gc_span_dim.json";
  SpanRecorder::instance().export_chrome_trace(path);

  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const JsonValue v = json_parse(ss.str());
  const JsonArray& events = v.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].at("args").at("id").as_number(), 7.0);
  EXPECT_DOUBLE_EQ(events[0].at("args").at("dim").as_number(), 480.0);
  // A dim without an id still earns an args object — with no id key.
  EXPECT_FALSE(events[1].at("args").has("id"));
  EXPECT_DOUBLE_EQ(events[1].at("args").at("dim").as_number(), 12.0);
  std::remove(path.c_str());
}

TEST(Span, SpanCarriesDimSetInsideScope) {
  RecorderReset reset;
  SpanRecorder::instance().enable(8);
  {
    Span s("span_test.set_dim", 3);
    s.set_dim(99);  // the size materialized mid-scope
  }
  const auto spans = SpanRecorder::instance().drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].dim, 99);
}

// Ring overflow is triple-accounted: dropped() (reset by drain),
// dropped_total() (monotonic), and the recording thread's
// `obs.spans_dropped` registry counter. The counter is checked from a
// fresh thread with a private registry installed — the test main thread's
// cached instrument reference cannot be re-pointed.
TEST(Span, DropsAreMirroredIntoRegistryCounter) {
  RecorderReset reset;
  SpanRecorder::instance().enable(4);
  const std::int64_t total_before = SpanRecorder::instance().dropped_total();
  Registry private_reg;
  std::thread worker([&] {
    ThreadRegistryScope scope(&private_reg);
    for (int i = 0; i < 10; ++i)
      SpanRecorder::instance().record("span_test.overflow", 1.0 * i, 0.5, i);
  });
  worker.join();
  EXPECT_EQ(SpanRecorder::instance().dropped(), 6);
  EXPECT_EQ(SpanRecorder::instance().dropped_total() - total_before, 6);
  EXPECT_EQ(private_reg.counter("obs.spans_dropped").total(), 6.0);
  SpanRecorder::instance().drain();
  EXPECT_EQ(SpanRecorder::instance().dropped(), 0);  // dropped() resets...
  EXPECT_EQ(SpanRecorder::instance().dropped_total() - total_before,
            6);  // ...the running total does not
}

TEST(Span, EnablePreRegistersDropCounterAtZero) {
  RecorderReset reset;
  Registry private_reg;
  std::thread worker([&] {
    ThreadRegistryScope scope(&private_reg);
    SpanRecorder::instance().enable(8);
  });
  worker.join();
  // A clean run's snapshot shows the counter at zero rather than omitting
  // it — absence and truncation must not look alike.
  bool present = false;
  for (const auto& [name, c] : private_reg.counters())
    if (name == "obs.spans_dropped") {
      present = true;
      EXPECT_EQ(c->total(), 0.0);
    }
  EXPECT_TRUE(present);
}

TEST(Span, LiveSpanMeasuresElapsedTime) {
  RecorderReset reset;
  SpanRecorder::instance().enable(8);
  {
    Span s("span_test.timed", 0);
    volatile double x = 0.0;
    for (int i = 0; i < 20000; ++i) x = x + 1.0;
    (void)x;
  }
  const auto spans = SpanRecorder::instance().drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_GT(spans[0].dur_s, 0.0);
  EXPECT_GE(spans[0].start_s, 0.0);
}

}  // namespace
}  // namespace gc::obs
