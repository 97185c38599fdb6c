#include "obs/registry.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "obs/report.hpp"
#include "obs/timer.hpp"

namespace gc::obs {
namespace {

TEST(Counter, AccumulatesTotalAndEvents) {
  Counter c;
  EXPECT_EQ(c.total(), 0.0);
  EXPECT_EQ(c.events(), 0);
  c.add();
  c.add(2.5);
  EXPECT_DOUBLE_EQ(c.total(), 3.5);
  EXPECT_EQ(c.events(), 2);
  c.reset();
  EXPECT_EQ(c.total(), 0.0);
  EXPECT_EQ(c.events(), 0);
}

TEST(Gauge, LastValueWins) {
  Gauge g;
  g.set(4.0);
  g.set(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), -1.5);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST(Histogram, EmptyIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, SingleValueQuantilesClampExactly) {
  Histogram h;
  h.observe(3.0e-3);
  EXPECT_EQ(h.count(), 1);
  EXPECT_DOUBLE_EQ(h.sum(), 3.0e-3);
  EXPECT_DOUBLE_EQ(h.min(), 3.0e-3);
  EXPECT_DOUBLE_EQ(h.max(), 3.0e-3);
  // Quantiles clamp to [min, max], so a single sample reports exactly.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 3.0e-3);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0e-3);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.0e-3);
}

TEST(Histogram, QuantilesWithinBucketResolution) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.observe(i * 1.0e-6);  // 1us .. 1ms
  EXPECT_EQ(h.count(), 1000);
  // Geometric buckets are ~12% wide; allow a generous 15% relative error.
  EXPECT_NEAR(h.quantile(0.5), 500e-6, 0.15 * 500e-6);
  EXPECT_NEAR(h.quantile(0.95), 950e-6, 0.15 * 950e-6);
  EXPECT_DOUBLE_EQ(h.min(), 1e-6);
  EXPECT_DOUBLE_EQ(h.max(), 1000e-6);
  EXPECT_NEAR(h.mean(), 500.5e-6, 1e-9);
}

TEST(Histogram, OutOfRangeValuesClampToEndBuckets) {
  Histogram h;
  h.observe(1e-12);  // below kMin
  h.observe(1e7);    // above the top bucket (~2 hours)
  EXPECT_EQ(h.count(), 2);
  EXPECT_DOUBLE_EQ(h.min(), 1e-12);  // min/max stay exact
  EXPECT_DOUBLE_EQ(h.max(), 1e7);
  // Quantiles stay within the observed range thanks to the clamp.
  EXPECT_GE(h.quantile(0.5), h.min());
  EXPECT_LE(h.quantile(0.5), h.max());
}

// Values sitting exactly on a geometric bucket edge kMin * 2^(i/6) must
// land deterministically and report quantiles clamped to the observed
// range — the edges are where rounding bugs in the bucket index show up.
TEST(Histogram, QuantilesExactAtBucketBoundaries) {
  // 3.2e-8 = kMin * 2^(30/6) and 6.4e-8 = kMin * 2^(36/6): both are exact
  // bucket lower edges (and exactly representable doubles).
  const double lo = Histogram::kMin * 32.0;
  const double hi = Histogram::kMin * 64.0;
  Histogram h;
  for (int i = 0; i < 50; ++i) h.observe(lo);
  // All mass in one bucket: every quantile clamps to the single value.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), lo);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), lo);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), lo);
  for (int i = 0; i < 50; ++i) h.observe(hi);
  // Low ranks stay in lo's bucket (within its ~12% width, never below the
  // exact min); high ranks clamp to the exact max — hi's bucket midpoint
  // lies above hi, so the [min, max] clamp pins it.
  EXPECT_GE(h.quantile(0.25), lo);
  EXPECT_LE(h.quantile(0.25), lo * 1.13);
  EXPECT_DOUBLE_EQ(h.quantile(0.75), hi);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), hi);
  EXPECT_DOUBLE_EQ(h.min(), lo);
  EXPECT_DOUBLE_EQ(h.max(), hi);
}

TEST(Histogram, ResetClearsEverything) {
  Histogram h;
  h.observe(1.0);
  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(Registry, ReturnsStableReferencesByName) {
  Registry r;
  Counter& a = r.counter("x.count");
  Counter& b = r.counter("x.count");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = r.gauge("x.gauge");
  Gauge& g2 = r.gauge("x.gauge");
  EXPECT_EQ(&g1, &g2);
  Histogram& h1 = r.histogram("x.hist");
  Histogram& h2 = r.histogram("x.hist");
  EXPECT_EQ(&h1, &h2);
  // Different kinds under different names do not collide.
  EXPECT_EQ(r.counters().size(), 1u);
  EXPECT_EQ(r.gauges().size(), 1u);
  EXPECT_EQ(r.histograms().size(), 1u);
}

TEST(Registry, ViewsAreSortedByName) {
  Registry r;
  r.counter("zeta");
  r.counter("alpha");
  r.counter("mid");
  const auto view = r.counters();
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[0].first, "alpha");
  EXPECT_EQ(view[1].first, "mid");
  EXPECT_EQ(view[2].first, "zeta");
}

TEST(Registry, ResetKeepsRegistrationsAndReferences) {
  Registry r;
  Counter& c = r.counter("c");
  c.add(5.0);
  r.reset();
  EXPECT_EQ(c.total(), 0.0);
  EXPECT_EQ(&r.counter("c"), &c);  // same instrument after reset
  c.add(1.0);
  EXPECT_DOUBLE_EQ(r.counters()[0].second->total(), 1.0);
}

// Satellite: gauge merges are deterministic last-writer-wins in MERGE
// order — after folding r1, r2, r3 the gauge holds the value from the
// highest-index registry that ever SET it; registries that never set the
// gauge cannot steal the value (Gauge::merge_from, sim/sweep.cpp).
TEST(Registry, GaugeMergeIsMergeOrderLastWriterWins) {
  Registry r1, r2, r3;
  r1.gauge("run.last_V").set(1.0);
  r2.gauge("run.last_V").set(2.0);
  r3.gauge("run.last_V");  // registered but never set

  Registry forward;
  forward.merge_from(r1);
  forward.merge_from(r2);
  forward.merge_from(r3);  // unset: must not clobber r2's value
  EXPECT_DOUBLE_EQ(forward.gauge("run.last_V").value(), 2.0);

  // The winner is pinned by merge order, not by which registry set last on
  // the wall clock: reversing the order flips the result.
  Registry backward;
  backward.merge_from(r3);
  backward.merge_from(r2);
  backward.merge_from(r1);
  EXPECT_DOUBLE_EQ(backward.gauge("run.last_V").value(), 1.0);

  // A target that set the gauge itself yields to any merged setter.
  Registry target;
  target.gauge("run.last_V").set(9.0);
  target.merge_from(r3);
  EXPECT_DOUBLE_EQ(target.gauge("run.last_V").value(), 9.0);
  target.merge_from(r1);
  EXPECT_DOUBLE_EQ(target.gauge("run.last_V").value(), 1.0);
}

TEST(Registry, MergeAccumulatesCountersAndHistograms) {
  Registry a, b;
  a.counter("n").add(2.0);
  b.counter("n").add(3.0);
  b.counter("only_b").add(1.0);
  a.histogram("t").observe(1e-3);
  b.histogram("t").observe(2e-3);
  a.merge_from(b);
  EXPECT_DOUBLE_EQ(a.counter("n").total(), 5.0);
  EXPECT_EQ(a.counter("n").events(), 2);
  EXPECT_DOUBLE_EQ(a.counter("only_b").total(), 1.0);  // created by merge
  EXPECT_EQ(a.histogram("t").count(), 2);
  EXPECT_DOUBLE_EQ(a.histogram("t").sum(), 3e-3);
  EXPECT_DOUBLE_EQ(a.histogram("t").min(), 1e-3);
  EXPECT_DOUBLE_EQ(a.histogram("t").max(), 2e-3);
}

TEST(GlobalRegistry, IsASingleton) {
  EXPECT_EQ(&registry(), &registry());
}

// A Span given a histogram and an accumulator times its scope whether or
// not the recorder is on; with recording off it records no span.
TEST(Span, TimesIntoHistogramAndAccumulatorWithRecorderDisabled) {
  SpanRecorder& rec = SpanRecorder::instance();
  rec.disable();
  rec.drain();
  Histogram h;
  double acc = 0.0;
  {
    Span s("registry_test.timed", -1, -1, &h, &acc);
    // Burn a little time so the sample is strictly positive.
    volatile double x = 0.0;
    for (int i = 0; i < 1000; ++i) x = x + std::sqrt(static_cast<double>(i));
    (void)x;
  }
  EXPECT_EQ(h.count(), 1);
  EXPECT_GT(h.sum(), 0.0);
  EXPECT_GT(acc, 0.0);
  EXPECT_DOUBLE_EQ(acc, h.sum());
  EXPECT_TRUE(rec.drain().empty());
}

TEST(Report, RendersEveryInstrumentKind) {
  Registry r;
  r.counter("sched.fill_in_links").add(7.0);
  r.gauge("run.last_V").set(3.0);
  Histogram& h = r.histogram("ctrl.step_seconds");
  h.observe(2e-3);
  const std::string text = render_report(r);
  EXPECT_NE(text.find("sched.fill_in_links"), std::string::npos);
  EXPECT_NE(text.find("run.last_V"), std::string::npos);
  EXPECT_NE(text.find("ctrl.step_seconds"), std::string::npos);
}

}  // namespace
}  // namespace gc::obs
