#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "core/controller.hpp"
#include "sim/scenario.hpp"

namespace gc::sim {
namespace {

TEST(AverageDelay, ZeroSlotsIsZero) {
  Metrics m;
  EXPECT_EQ(m.average_delay_slots(), 0.0);
}

TEST(AverageDelay, ZeroDeliveriesIsZero) {
  Metrics m;
  m.slots = 3;
  m.q_bs = {5.0, 5.0, 5.0};
  m.q_users = {1.0, 1.0, 1.0};
  m.total_delivered_packets = 0.0;
  EXPECT_EQ(m.average_delay_slots(), 0.0);
}

TEST(AverageDelay, MatchesLittlesLawByHand) {
  // L = mean total backlog = ((2+0) + (4+0)) / 2 = 3 packets.
  // lambda = 3 delivered / 2 slots = 1.5 packets/slot.
  // W = L / lambda = 2 slots.
  Metrics m;
  m.slots = 2;
  m.q_bs = {2.0, 4.0};
  m.q_users = {0.0, 0.0};
  m.total_delivered_packets = 3.0;
  EXPECT_DOUBLE_EQ(m.average_delay_slots(), 2.0);
}

TEST(ZeroSlotRun, ProducesEmptySeriesWithoutCrashing) {
  const auto cfg = ScenarioConfig::tiny();
  const auto model = cfg.build();
  core::LyapunovController controller(model, 3.0, cfg.controller_options());
  const auto m = run_simulation(model, controller, /*slots=*/0);
  EXPECT_EQ(m.slots, 0);
  EXPECT_TRUE(m.q_bs.empty());
  EXPECT_TRUE(m.battery_bs_j.empty());
  EXPECT_EQ(m.total_delivered_packets, 0.0);
  EXPECT_EQ(m.average_delay_slots(), 0.0);
}

TEST(TimingAccumulation, SumsPerSlotTimings) {
  const auto cfg = ScenarioConfig::tiny();
  const auto model = cfg.build();
  core::LyapunovController controller(model, 3.0, cfg.controller_options());
  const auto m = run_simulation(model, controller, /*slots=*/5);
  EXPECT_GT(m.timing.step_s, 0.0);
  EXPECT_LE(m.timing.subproblem_total_s(), m.timing.step_s * 1.001);
}

}  // namespace
}  // namespace gc::sim
