// SnapshotWriter: cadence, JSON/Prometheus round-trips, and the atomicity
// guarantee — a reader polling the snapshot path must never see a torn
// file, even when the writing process is SIGKILLed mid-write
// (src/obs/snapshot.hpp).
#include "obs/snapshot.hpp"

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "util/check.hpp"

namespace gc::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(SnapshotWriter, DueFollowsTheCadence) {
  const SnapshotWriter w(testing::TempDir() + "gc_snap_due.json", 5);
  EXPECT_FALSE(w.due(0));
  EXPECT_FALSE(w.due(3));
  EXPECT_TRUE(w.due(5));
  EXPECT_FALSE(w.due(7));
  EXPECT_TRUE(w.due(10));
  // Cadence 0 = final-only: never due, the caller forces the last write.
  const SnapshotWriter final_only(testing::TempDir() + "gc_snap_f.json", 0);
  for (int t = 0; t < 20; ++t) EXPECT_FALSE(final_only.due(t));
}

TEST(SnapshotWriter, RejectsEmptyPathAndNegativeCadence) {
  EXPECT_THROW(SnapshotWriter("", 1), CheckError);
  EXPECT_THROW(SnapshotWriter("x.json", -1), CheckError);
}

TEST(SnapshotWriter, JsonRoundTripsEverySection) {
  const std::string path = testing::TempDir() + "gc_snap_round.json";
  SnapshotWriter w(path, 10);
  SnapshotData d;
  d.slot = 40;
  d.total_slots = 100;
  d.wall_s = 2.0;
  d.slots_per_s = 20.0;
  d.eta_s = 3.0;
  d.scenario_name = "paper";
  d.scenario_hash = 0xabcdu;
  d.have_aggregates = true;
  d.q_total_packets = 123.5;
  d.battery_total_j = 9.25;
  d.cost_time_avg = 0.5;
  d.have_stability = true;
  d.worst_q_margin = 7.0;
  d.q_violations = 2.0;
  d.jobs_done = 1;
  d.jobs_total = 4;
  Registry r;
  r.counter("test.counts").add(3.0);
  r.gauge("test.level").set(-2.5);
  r.histogram("test.seconds").observe(1e-3);
  d.registry = &r;
  w.write(d);

  const JsonValue v = json_parse(read_file(path));
  EXPECT_DOUBLE_EQ(v.at("slot").as_number(), 40.0);
  EXPECT_DOUBLE_EQ(v.at("total_slots").as_number(), 100.0);
  EXPECT_DOUBLE_EQ(v.at("slots_per_s").as_number(), 20.0);
  EXPECT_EQ(v.at("scenario").at("name").as_string(), "paper");
  EXPECT_EQ(v.at("scenario").at("hash").as_string(), "0x000000000000abcd");
  EXPECT_DOUBLE_EQ(v.at("fleet").at("jobs_done").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(v.at("fleet").at("jobs_total").as_number(), 4.0);
  EXPECT_DOUBLE_EQ(v.at("aggregates").at("q_total_packets").as_number(),
                   123.5);
  EXPECT_DOUBLE_EQ(v.at("aggregates").at("battery_total_j").as_number(), 9.25);
  EXPECT_DOUBLE_EQ(v.at("stability").at("worst_q_margin").as_number(), 7.0);
  EXPECT_DOUBLE_EQ(v.at("stability").at("q_violations").as_number(), 2.0);
  const JsonValue& reg = v.at("registry");
  EXPECT_DOUBLE_EQ(reg.at("counters").at("test.counts").at("total")
                       .as_number(),
                   3.0);
  EXPECT_DOUBLE_EQ(reg.at("gauges").at("test.level").as_number(), -2.5);
  EXPECT_DOUBLE_EQ(reg.at("histograms").at("test.seconds").at("count")
                       .as_number(),
                   1.0);
  std::remove(path.c_str());
  std::remove(w.prom_path().c_str());
}

TEST(SnapshotWriter, PromTwinExposesGcFamilies) {
  const std::string path = testing::TempDir() + "gc_snap_prom.json";
  SnapshotWriter w(path, 1);
  SnapshotData d;
  d.slot = 7;
  d.have_stability = true;
  d.q_violations = 5.0;
  Registry r;
  r.counter("ctrl.slots").add(7.0);
  d.registry = &r;
  w.write(d);
  const std::string prom = read_file(w.prom_path());
  EXPECT_NE(prom.find("gc_snapshot_slot 7"), std::string::npos) << prom;
  EXPECT_NE(prom.find("gc_stability_q_violations_total 5"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE gc_ctrl_slots_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("gc_ctrl_slots_total 7"), std::string::npos);
  std::remove(path.c_str());
  std::remove(w.prom_path().c_str());
}

// Registry histograms render as real Prometheus histogram families:
// cumulative _bucket{le="..."} lines, the +Inf bucket, _sum and _count —
// and every family is announced by # HELP / # TYPE.
TEST(SnapshotRender, HistogramFamiliesExposeCumulativeBuckets) {
  SnapshotData d;
  Registry r;
  Histogram& h = r.histogram("test.seconds");
  h.observe(1e-3);
  h.observe(1e-3);
  h.observe(2.0);
  d.registry = &r;
  const std::string prom = render_snapshot_prom(d);
  EXPECT_NE(prom.find("# HELP gc_test_seconds registry histogram "
                      "test.seconds"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE gc_test_seconds histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("gc_test_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("gc_test_seconds_count 3"), std::string::npos);
  EXPECT_NE(prom.find("gc_test_seconds_sum 2.00"), std::string::npos);
  // The finite buckets are cumulative and end at the total count.
  const std::size_t first = prom.find("gc_test_seconds_bucket{le=\"");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(prom.find(" 2\n", first), std::string::npos)
      << "two 1ms samples must close the first bucket at 2: " << prom;
  // Every sample line in the exposition belongs to an announced family.
  std::istringstream lines(prom);
  std::string line, announced;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      announced = line.substr(7, line.find(' ', 7) - 7);
    } else if (line.rfind("#", 0) != 0 && !line.empty()) {
      const std::string family = line.substr(0, line.find_first_of(" {"));
      const bool matches =
          family == announced || family == announced + "_bucket" ||
          family == announced + "_sum" || family == announced + "_count";
      EXPECT_TRUE(matches) << family << " rendered without # TYPE: " << line;
    }
  }
}

// policy_awake_bs = -1 is the policy-free sentinel: no "policy" JSON
// section, no gc_policy_* Prometheus lines — the -1 must never reach a
// scraper as a value.
TEST(SnapshotRender, PolicySentinelNeverLeaks) {
  SnapshotData d;
  d.slot = 3;
  ASSERT_EQ(d.policy_awake_bs, -1);  // the default IS the sentinel
  EXPECT_EQ(render_snapshot_json(d).find("\"policy\""), std::string::npos);
  EXPECT_EQ(render_snapshot_prom(d).find("gc_policy_"), std::string::npos);

  d.policy_awake_bs = 3;
  d.policy_switches = 14.0;
  d.policy_switch_energy_j = 0.5;
  d.policy_sleep_slots = 40.0;
  const JsonValue v = json_parse(render_snapshot_json(d));
  EXPECT_DOUBLE_EQ(v.at("policy").at("awake_bs").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(v.at("policy").at("switches").as_number(), 14.0);
  EXPECT_DOUBLE_EQ(v.at("policy").at("sleep_slots").as_number(), 40.0);
  const std::string prom = render_snapshot_prom(d);
  EXPECT_NE(prom.find("# TYPE gc_policy_awake_bs gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("gc_policy_awake_bs 3"), std::string::npos);
  EXPECT_NE(prom.find("gc_policy_switches_total 14"), std::string::npos);
  EXPECT_NE(prom.find("gc_policy_sleep_slots_total 40"), std::string::npos);
}

// An awake count of 0 (every BS asleep) is a real value, not the sentinel.
TEST(SnapshotRender, PolicyAwakeZeroStillRenders) {
  SnapshotData d;
  d.policy_awake_bs = 0;
  EXPECT_NE(render_snapshot_json(d).find("\"policy\""), std::string::npos);
  EXPECT_NE(render_snapshot_prom(d).find("gc_policy_awake_bs 0"),
            std::string::npos);
}

// The tmp+rename protocol means a polling reader only ever sees a complete
// snapshot. Fork a child that rewrites the snapshot as fast as it can,
// SIGKILL it at staggered offsets, and require whatever file is left behind
// to parse — any torn write would fail json_parse.
TEST(SnapshotWriter, SurvivesMidWriteKillWithoutTearing) {
  const std::string path = testing::TempDir() + "gc_snap_kill.json";
  std::remove(path.c_str());
  std::remove((path + ".prom").c_str());

  for (int round = 0; round < 4; ++round) {
    const pid_t pid = fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      // Child: hammer the writer until killed. A fat registry dump keeps
      // each write long enough for the kill to land inside one.
      Registry r;
      for (int i = 0; i < 200; ++i)
        r.counter("kill.c" + std::to_string(i)).add(i);
      SnapshotData d;
      d.total_slots = 123456;
      d.registry = &r;
      SnapshotWriter w(path, 1);
      for (int slot = 0;; ++slot) {
        d.slot = slot;
        w.write(d);
      }
    }
    // Parent: wait for the first complete snapshot, then kill mid-stream.
    for (int spin = 0; spin < 2000 && !std::ifstream(path).good(); ++spin)
      ::usleep(1000);
    ASSERT_TRUE(std::ifstream(path).good()) << "child never wrote " << path;
    ::usleep(500 * (round + 1));
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));

    const std::string body = read_file(path);
    ASSERT_FALSE(body.empty());
    const JsonValue v = json_parse(body);  // throws on a torn file
    EXPECT_DOUBLE_EQ(v.at("total_slots").as_number(), 123456.0);
    // The .prom twin is written second; if present it must be complete too.
    const std::string prom = read_file(path + ".prom");
    if (!prom.empty()) {
      EXPECT_NE(prom.find("gc_snapshot_slot "), std::string::npos);
      EXPECT_EQ(prom.back(), '\n');
    }
  }
  std::remove(path.c_str());
  std::remove((path + ".prom").c_str());
  std::remove((path + ".tmp").c_str());
  std::remove((path + ".prom.tmp").c_str());
}

}  // namespace
}  // namespace gc::obs
