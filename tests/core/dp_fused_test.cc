#include "core/dp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace upskill {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Gathers the per-user n×S lattice the materialized solvers consume, the
// way the seed assignment step used to.
std::vector<double> Materialize(const std::vector<double>& item_log_probs,
                                const std::vector<int32_t>& items,
                                int levels) {
  std::vector<double> log_probs(items.size() * static_cast<size_t>(levels));
  for (size_t t = 0; t < items.size(); ++t) {
    for (int s = 0; s < levels; ++s) {
      log_probs[t * static_cast<size_t>(levels) + static_cast<size_t>(s)] =
          item_log_probs[static_cast<size_t>(items[t]) * levels + s];
    }
  }
  return log_probs;
}

struct RandomConfig {
  int levels;
  std::vector<double> item_log_probs;  // [item * S + s]
  std::vector<int32_t> items;          // sequence
  std::vector<double> log_initial;     // may be empty
  double log_stay;
  double log_up;
  std::vector<uint8_t> allow_down;     // size n - 1 (or empty for n <= 1)
  double log_down;
};

// `levels` 0 draws the level count from 1..8.
RandomConfig MakeRandomConfig(Rng& rng, int levels = 0) {
  RandomConfig config;
  config.levels =
      levels > 0 ? levels : static_cast<int>(rng.NextIntInRange(1, 8));
  const int num_items = static_cast<int>(rng.NextIntInRange(1, 50));
  config.item_log_probs.resize(static_cast<size_t>(num_items) *
                               config.levels);
  for (double& v : config.item_log_probs) {
    // Mostly finite log-probs, occasionally -inf (zero-probability cells
    // happen with unsmoothed categorical features).
    v = rng.NextBernoulli(0.05) ? kNegInf : -10.0 * rng.NextDouble();
  }
  const size_t n = static_cast<size_t>(rng.NextIntInRange(0, 40));
  config.items.resize(n);
  for (int32_t& item : config.items) {
    item = static_cast<int32_t>(rng.NextInt(num_items));
  }
  if (rng.NextBernoulli(0.5)) {
    config.log_initial.resize(static_cast<size_t>(config.levels));
    for (double& v : config.log_initial) {
      v = rng.NextBernoulli(0.05) ? kNegInf : -5.0 * rng.NextDouble();
    }
  }
  // Sometimes zero transition costs (the plain-DP special case).
  if (rng.NextBernoulli(0.25)) {
    config.log_stay = 0.0;
    config.log_up = 0.0;
  } else {
    config.log_stay = -3.0 * rng.NextDouble();
    config.log_up = -3.0 * rng.NextDouble();
  }
  if (n > 1) {
    config.allow_down.resize(n - 1);
    for (uint8_t& flag : config.allow_down) {
      flag = rng.NextBernoulli(0.3) ? 1 : 0;
    }
  }
  config.log_down = -4.0 * rng.NextDouble();
  return config;
}

TEST(DpFusedTest, MatchesMaterializedSolverOnRandomConfigs) {
  Rng rng(20260806);
  DpScratch scratch;  // reused across trials, like the assignment engine
  for (int trial = 0; trial < 200; ++trial) {
    const RandomConfig config = MakeRandomConfig(rng);
    const std::vector<double> log_probs =
        Materialize(config.item_log_probs, config.items, config.levels);

    const MonotonePath expected = SolveMonotonePathWithTransitions(
        log_probs, config.levels, config.log_initial, config.log_stay,
        config.log_up);
    const double ll = SolveMonotonePathItems(
        config.item_log_probs, config.items, config.levels,
        config.log_initial, config.log_stay, config.log_up, scratch);
    EXPECT_EQ(expected.levels, scratch.levels) << "trial " << trial;
    // Bitwise: the fused kernel must follow the exact arithmetic order.
    EXPECT_EQ(expected.log_likelihood, ll) << "trial " << trial;
  }
}

TEST(DpFusedTest, MatchesPlainSolverWithZeroCosts) {
  Rng rng(7);
  DpScratch scratch;
  for (int trial = 0; trial < 50; ++trial) {
    const RandomConfig config = MakeRandomConfig(rng);
    const std::vector<double> log_probs =
        Materialize(config.item_log_probs, config.items, config.levels);
    const MonotonePath expected = SolveMonotonePath(log_probs, config.levels);
    const double ll =
        SolveMonotonePathItems(config.item_log_probs, config.items,
                               config.levels, {}, 0.0, 0.0, scratch);
    EXPECT_EQ(expected.levels, scratch.levels) << "trial " << trial;
    EXPECT_EQ(expected.log_likelihood, ll) << "trial " << trial;
  }
}

// Random level counts 1..8, then fixed wide columns (9, 17, 64) so the
// recurrence step runs many interior levels, with and without the
// down-edge, against the materialized solver.
TEST(DpFusedTest, MatchesForgettingSolverOnRandomConfigs) {
  Rng rng(31337);
  DpScratch scratch;
  const auto check = [&](const RandomConfig& config, int trial) {
    const std::vector<double> log_probs =
        Materialize(config.item_log_probs, config.items, config.levels);
    const MonotonePath expected = SolveMonotonePathWithForgetting(
        log_probs, config.levels, config.log_initial, config.log_stay,
        config.log_up, config.allow_down, config.log_down);
    const double ll = SolveMonotonePathItemsWithForgetting(
        config.item_log_probs, config.items, config.levels,
        config.log_initial, config.log_stay, config.log_up,
        config.allow_down, config.log_down, scratch);
    EXPECT_EQ(expected.levels, scratch.levels)
        << "levels " << config.levels << " trial " << trial;
    EXPECT_EQ(expected.log_likelihood, ll)
        << "levels " << config.levels << " trial " << trial;
  };
  for (int trial = 0; trial < 200; ++trial) {
    check(MakeRandomConfig(rng), trial);
  }
  for (const int levels : {9, 17, 64}) {
    for (int trial = 0; trial < 40; ++trial) {
      check(MakeRandomConfig(rng, levels), trial);
    }
  }
}

TEST(DpFusedTest, EmptySequenceYieldsEmptyPath) {
  DpScratch scratch;
  scratch.levels.assign(3, 7);  // stale content must be cleared
  const std::vector<double> item_log_probs(4, -1.0);
  const double ll = SolveMonotonePathItems(
      item_log_probs, std::span<const int32_t>(), 2, {}, -0.5, -1.5, scratch);
  EXPECT_TRUE(scratch.levels.empty());
  EXPECT_EQ(0.0, ll);
  const double forgetting_ll = SolveMonotonePathItemsWithForgetting(
      item_log_probs, {}, 2, {}, -0.5, -1.5, {}, -2.0, scratch);
  EXPECT_TRUE(scratch.levels.empty());
  EXPECT_EQ(0.0, forgetting_ll);
}

}  // namespace
}  // namespace upskill
