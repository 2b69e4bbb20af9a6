// Backend equivalence for the SIMD kernel layer: every dispatched kernel
// must match the scalar reference bitwise (double kernels) / bit-exactly
// (the CRC) on adversarial inputs — non-integral and out-of-range lookup
// keys, NaN/inf lanes, -inf log-probs, tie-heavy DP rows — across every
// batch size that exercises full vector blocks, tails, and the empty
// span. The same guarantee is then checked one layer up: the four
// Distribution kinds and both item-indexed DP solvers are swept under
// ForceScalarForTest(on/off) and compared bitwise. The quantized serving
// step, which has one body, is checked for its renormalization and argmax
// invariants on saturating columns.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/dp.h"
#include "dist/categorical.h"
#include "dist/gamma.h"
#include "dist/lognormal.h"
#include "dist/poisson.h"
#include "serve/quantized_model.h"
#include "simd/kernels.h"
#include "simd/simd.h"

namespace upskill {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Bitwise double comparison (distinguishes -0.0 from 0.0 and treats two
// NaNs with the same payload as equal, which operator== cannot).
::testing::AssertionResult BitEq(double a, double b) {
  if (std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bit patterns 0x" << std::hex
         << std::bit_cast<uint64_t>(a) << " vs 0x"
         << std::bit_cast<uint64_t>(b) << ")";
}

void ExpectBitEqual(std::span<const double> a, std::span<const double> b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(BitEq(a[i], b[i])) << "lane " << i;
  }
}

// Sizes chosen to cover: empty, below one vector, exactly one 4-wide and
// 8-wide block, block + tail, and many blocks.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 31, 100, 257};

// The whole-sequence DP's inputs: an item count, every level count with a
// register-resident vector body (1..8) and two that fall back to the
// scalar reference (9, 12), and lengths from empty to many actions.
constexpr int kDpItems = 12;
const size_t kDpLevels[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 12};
const size_t kDpLengths[] = {0, 1, 2, 3, 17, 64};

class KernelEquivalenceTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::ForceScalarForTest(false); }

  std::mt19937_64 rng_{0x5eed5eedULL};

  // Lookup keys: mostly valid small integers, salted with every way a lane
  // can be invalid or overflow the table.
  std::vector<double> MakeKeys(size_t n, size_t table_size) {
    std::vector<double> xs(n);
    std::uniform_int_distribution<int> valid(
        0, static_cast<int>(table_size) - 1);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (size_t i = 0; i < n; ++i) {
      switch (i % 8) {
        case 6:
          xs[i] = static_cast<double>(valid(rng_)) + unit(rng_);  // fractional
          break;
        case 5:
          xs[i] = -static_cast<double>(valid(rng_)) - 1.0;  // negative
          break;
        case 4:
          xs[i] = static_cast<double>(table_size + (i % 5));  // overflow
          break;
        case 3:
          xs[i] = (i % 2) ? std::numeric_limits<double>::quiet_NaN()
                          : std::numeric_limits<double>::infinity();
          break;
        default:
          xs[i] = static_cast<double>(valid(rng_));
      }
    }
    return xs;
  }

  // Positive reals across many magnitudes, salted with the non-support
  // cases (zero, negative, NaN, inf).
  std::vector<double> MakePositives(size_t n) {
    std::vector<double> xs(n);
    std::uniform_real_distribution<double> log_mag(-8.0, 8.0);
    for (size_t i = 0; i < n; ++i) {
      switch (i % 9) {
        case 8:
          xs[i] = 0.0;
          break;
        case 7:
          xs[i] = -std::exp(log_mag(rng_));
          break;
        case 6:
          xs[i] = (i % 2) ? std::numeric_limits<double>::quiet_NaN()
                          : std::numeric_limits<double>::infinity();
          break;
        default:
          xs[i] = std::exp(log_mag(rng_));
      }
    }
    return xs;
  }

  std::vector<double> LogsOf(std::span<const double> xs) {
    std::vector<double> logs(xs.size());
    for (size_t i = 0; i < xs.size(); ++i) {
      logs[i] = xs[i] > 0.0 ? std::log(xs[i]) : 0.0;
    }
    return logs;
  }

  // DP inputs: scores around zero with occasional -inf lanes and exact
  // duplicates (ties must break identically).
  std::vector<double> MakeScores(size_t n) {
    std::vector<double> xs(n);
    std::uniform_real_distribution<double> score(-20.0, 0.0);
    for (size_t i = 0; i < n; ++i) {
      if (i % 11 == 10) {
        xs[i] = kNegInf;
      } else if (i % 7 == 6 && i > 0) {
        xs[i] = xs[i - 1];  // exact tie with the neighbor
      } else {
        xs[i] = score(rng_);
      }
    }
    return xs;
  }

  // A [kDpItems x levels] cache with an all -inf row, an all signed-zero
  // row (every comparison a tie) and a partly NaN row.
  std::vector<double> MakeCache(size_t levels) {
    std::vector<double> cache = MakeScores(kDpItems * levels);
    for (size_t s = 0; s < levels; ++s) {
      cache[0 * levels + s] = kNegInf;
      cache[1 * levels + s] = (s % 2) ? -0.0 : 0.0;
      cache[2 * levels + s] = (s % 3 == 1) ? kNaN : -1.0;
    }
    return cache;
  }

  std::vector<int32_t> MakeIds(size_t length) {
    std::uniform_int_distribution<int32_t> pick(0, kDpItems - 1);
    std::vector<int32_t> ids(length);
    for (int32_t& id : ids) id = pick(rng_);
    return ids;
  }
};

TEST_F(KernelEquivalenceTest, LookupMatchesScalarBitwise) {
  std::vector<double> table(32);
  std::uniform_real_distribution<double> entry(-30.0, 0.0);
  for (double& t : table) t = entry(rng_);
  table[3] = kNegInf;  // a -inf table entry must gather through unchanged
  for (size_t n : kSizes) {
    const std::vector<double> xs = MakeKeys(n, table.size());
    std::vector<double> got(n, 42.0);
    std::vector<double> want(n, -42.0);
    bool got_overflow = false;
    bool want_overflow = false;
    simd::LookupLogProbBatch(xs, table, got, &got_overflow);
    simd::scalar::LookupLogProbBatch(xs, table, want, &want_overflow);
    ExpectBitEqual(got, want);
    EXPECT_EQ(got_overflow, want_overflow) << "n=" << n;
    // The overflow flag must fire iff an exact integer >= table.size()
    // exists (never for fractional/negative/NaN lanes).
    bool expect_overflow = false;
    for (double x : xs) {
      expect_overflow |= std::trunc(x) == x && x >= 0.0 && std::isfinite(x) &&
                         x >= static_cast<double>(table.size());
    }
    EXPECT_EQ(want_overflow, expect_overflow) << "n=" << n;
  }
  // Null overflow pointer is allowed.
  const std::vector<double> xs = MakeKeys(64, table.size());
  std::vector<double> out(64);
  simd::LookupLogProbBatch(xs, table, out, nullptr);
}

TEST_F(KernelEquivalenceTest, GammaKernelMatchesScalarBitwise) {
  const double shape = 2.7;
  const double scale = 0.6;
  const double log_gamma_shape = std::lgamma(shape);
  const double shape_log_scale = shape * std::log(scale);
  for (size_t n : kSizes) {
    const std::vector<double> xs = MakePositives(n);
    const std::vector<double> logs = LogsOf(xs);
    std::vector<double> got(n), want(n);
    simd::GammaLogProbBatch(xs, logs, shape - 1.0, scale, log_gamma_shape,
                            shape_log_scale, got);
    simd::scalar::GammaLogProbBatch(xs, logs, shape - 1.0, scale,
                                    log_gamma_shape, shape_log_scale, want);
    ExpectBitEqual(got, want);
  }
}

TEST_F(KernelEquivalenceTest, LogNormalKernelMatchesScalarBitwise) {
  const double mu = 1.3;
  const double sigma = 0.8;
  const double log_sigma = std::log(sigma);
  const double half_log_two_pi = 0.5 * std::log(2.0 * M_PI);
  for (size_t n : kSizes) {
    const std::vector<double> xs = MakePositives(n);
    const std::vector<double> logs = LogsOf(xs);
    std::vector<double> got(n), want(n);
    simd::LogNormalLogProbBatch(xs, logs, mu, sigma, log_sigma,
                                half_log_two_pi, got);
    simd::scalar::LogNormalLogProbBatch(xs, logs, mu, sigma, log_sigma,
                                        half_log_two_pi, want);
    ExpectBitEqual(got, want);
  }
}

// One DpForward run's outputs, preset to sentinels: the words of action 0
// and an empty sequence's row must stay untouched.
struct DpOutput {
  std::vector<uint64_t> moves;
  std::vector<double> row;
};

// The DpSequence over `ids`, writing into `out`.
simd::DpSequence SequenceInto(const std::vector<int32_t>& ids, size_t levels,
                              DpOutput& out) {
  const size_t length = ids.size();
  out.moves.assign(length * simd::DpUpMoveWords(levels),
                   0x5a5a5a5a5a5a5a5aULL);
  out.row.assign(levels, 42.0);
  simd::DpSequence seq;
  seq.items = length == 0 ? nullptr : ids.data();
  seq.length = length;
  seq.up_moves = out.moves.data();
  seq.last_row = out.row.data();
  return seq;
}

// Up-move words with the bits of levels >= `levels` cleared: the bits a
// backtrack can read.
std::vector<uint64_t> RealLevelBits(std::vector<uint64_t> words,
                                    size_t levels) {
  const size_t per_action = simd::DpUpMoveWords(levels);
  for (size_t i = 0; i < words.size(); ++i) {
    const size_t real = levels - (i % per_action) * 64;
    if (real < 64) words[i] &= (uint64_t{1} << real) - 1;
  }
  return words;
}

// The whole-sequence DP against its scalar reference: every level count
// with a register-resident vector body (1..8) and two that fall back to
// the reference (9, 12); lengths from empty to many actions; cache rows
// that are all -inf, all signed zeros (every comparison a tie) or partly
// NaN; with and without log_initial, with zero and non-zero costs.
TEST_F(KernelEquivalenceTest, DpForwardMatchesScalarBitwise) {
  for (const size_t levels : kDpLevels) {
    const std::vector<double> cache = MakeCache(levels);
    std::vector<double> log_initial = MakeScores(levels);
    log_initial[0] = -0.0;
    for (const size_t length : kDpLengths) {
      const std::vector<int32_t> ids = MakeIds(length);
      for (const bool with_initial : {false, true}) {
        for (const auto& [log_stay, log_up] :
             {std::pair{0.0, 0.0}, std::pair{-0.105, -2.302}}) {
          SCOPED_TRACE(::testing::Message()
                       << "levels=" << levels << " length=" << length
                       << " initial=" << with_initial
                       << " stay=" << log_stay);
          DpOutput got, want;
          const double* initial = with_initial ? log_initial.data() : nullptr;
          simd::DpForward(cache.data(), levels, initial, log_stay, log_up,
                          SequenceInto(ids, levels, got));
          simd::scalar::DpForward(cache.data(), levels, initial, log_stay,
                                  log_up, SequenceInto(ids, levels, want));
          EXPECT_EQ(got.moves, want.moves);
          ExpectBitEqual(got.row, want.row);
        }
      }
    }
  }
}

// The two-sequence form against the one-sequence form, under both
// dispatch modes: for every ordered pair of lengths (equal, unequal, one
// or both empty), each chain writes exactly the last row and real-level
// up-move bits it writes alone, on the inputs above; and the paired solve
// backtracks exactly the paths and log-likelihoods the single solve does.
TEST_F(KernelEquivalenceTest, DpForwardPairMatchesOneSequenceBitwise) {
  for (const bool force_scalar : {false, true}) {
    simd::ForceScalarForTest(force_scalar);
    for (const size_t levels : kDpLevels) {
      const std::vector<double> cache = MakeCache(levels);
      std::vector<double> log_initial = MakeScores(levels);
      log_initial[0] = -0.0;
      const int num_levels = static_cast<int>(levels);
      for (const size_t length_a : kDpLengths) {
        for (const size_t length_b : kDpLengths) {
          const std::vector<int32_t> ids[2] = {MakeIds(length_a),
                                               MakeIds(length_b)};
          for (const bool with_initial : {false, true}) {
            for (const auto& [log_stay, log_up] :
                 {std::pair{0.0, 0.0}, std::pair{-0.105, -2.302}}) {
              SCOPED_TRACE(::testing::Message()
                           << "scalar=" << force_scalar
                           << " levels=" << levels << " lengths=" << length_a
                           << "," << length_b << " initial=" << with_initial
                           << " stay=" << log_stay);
              const double* initial =
                  with_initial ? log_initial.data() : nullptr;
              DpOutput alone_out[2], paired_out[2];
              for (int k = 0; k < 2; ++k) {
                simd::DpForward(cache.data(), levels, initial, log_stay,
                                log_up, SequenceInto(ids[k], levels,
                                                     alone_out[k]));
              }
              simd::DpForward(cache.data(), levels, initial, log_stay, log_up,
                              SequenceInto(ids[0], levels, paired_out[0]),
                              SequenceInto(ids[1], levels, paired_out[1]));
              for (int k = 0; k < 2; ++k) {
                SCOPED_TRACE(::testing::Message() << "chain " << k);
                EXPECT_EQ(RealLevelBits(paired_out[k].moves, levels),
                          RealLevelBits(alone_out[k].moves, levels));
                ExpectBitEqual(paired_out[k].row, alone_out[k].row);
              }

              const std::span<const double> initial_span =
                  with_initial ? std::span<const double>(log_initial)
                               : std::span<const double>();
              DpScratch alone[2], paired[2];
              double alone_ll[2];
              for (int k = 0; k < 2; ++k) {
                alone_ll[k] =
                    SolveMonotonePathItems(cache, ids[k], num_levels,
                                           initial_span, log_stay, log_up,
                                           alone[k]);
              }
              const auto [first_ll, second_ll] = SolveMonotonePathItemsPair(
                  cache, ids[0], ids[1], num_levels, initial_span, log_stay,
                  log_up, paired[0], paired[1]);
              EXPECT_TRUE(BitEq(first_ll, alone_ll[0]));
              EXPECT_TRUE(BitEq(second_ll, alone_ll[1]));
              EXPECT_EQ(paired[0].levels, alone[0].levels);
              EXPECT_EQ(paired[1].levels, alone[1].levels);
            }
          }
        }
      }
    }
  }
}

// The quantized step on saturating columns: every step leaves the
// column's maximum at exactly zero (the renormalize invariant the next
// step's overflow-free subtract relies on), and QuantizedForwardLevel is
// the first (lowest-level) argmax of the column.
TEST_F(KernelEquivalenceTest, QuantizedStepKeepsTheColumnMaximumAtZero) {
  std::uniform_int_distribution<int> lane(-32767, 0);
  std::uniform_int_distribution<int> cost(-3000, 0);
  // Production multipliers top out at lround(kQuantAccScale *
  // kQuantResidualRange / 32767.0 * 32768.0) = 32513; sweep the whole
  // non-negative int16 range to cover the rounding edge cases.
  std::uniform_int_distribution<int> mult(0, 32767);
  const auto expect_invariants = [](const std::vector<int16_t>& column,
                                    const std::string& where) {
    const auto max = std::max_element(column.begin(), column.end());
    EXPECT_EQ(*max, 0) << where;
    EXPECT_EQ(simd::QuantizedForwardLevel(column.data(), column.size()),
              static_cast<int>(max - column.begin()) + 1)
        << where;
  };
  for (size_t levels :
       {size_t{1}, size_t{2}, size_t{5}, size_t{8}, size_t{9}, size_t{17},
        size_t{18}, size_t{32}, size_t{100}, size_t{128}, size_t{129}}) {
    std::vector<int16_t> qrow(levels);
    std::vector<int16_t> q_initial(levels);
    for (size_t s = 0; s < levels; ++s) {
      qrow[s] = static_cast<int16_t>(lane(rng_));
      q_initial[s] = (s % 5 == 4) ? serve::kQuantCostFloor
                                  : static_cast<int16_t>(cost(rng_));
    }
    const int16_t row_mult = static_cast<int16_t>(mult(rng_));

    std::vector<int16_t> column(levels);
    simd::QuantizedForwardInit(qrow.data(), row_mult, q_initial.data(),
                               levels, column.data());
    expect_invariants(column, "levels=" + std::to_string(levels) + " init");

    // Many steps, alternating the down-edge (renormalization + saturation
    // included: the floored q_initial lanes start deeply negative).
    std::vector<int16_t> next(levels);
    for (int step = 0; step < 32; ++step) {
      for (size_t s = 0; s < levels; ++s) {
        qrow[s] = static_cast<int16_t>(lane(rng_));
      }
      const int16_t q_stay = static_cast<int16_t>(cost(rng_));
      const int16_t q_up = static_cast<int16_t>(cost(rng_));
      const int16_t q_down = static_cast<int16_t>(cost(rng_));
      const bool allow_down = (step % 3) == 1;
      simd::QuantizedForwardStep(column.data(), qrow.data(), row_mult, q_stay,
                                 q_up, allow_down, q_down, levels,
                                 next.data());
      expect_invariants(next, "levels=" + std::to_string(levels) +
                                  " step=" + std::to_string(step));
      column.swap(next);
    }
  }
}

// ---------------------------------------------------------------------------
// One layer up: distributions and DP solvers under a backend sweep.
// ---------------------------------------------------------------------------

TEST_F(KernelEquivalenceTest, DistributionBatchesMatchAcrossBackends) {
  Poisson poisson(3.7);
  Gamma gamma(2.2, 0.9);
  LogNormal lognormal(0.4, 1.1);
  Categorical categorical(16, 0.01);
  {
    std::vector<double> probs(16, 0.0);
    double total = 0.0;
    std::uniform_real_distribution<double> unit(0.01, 1.0);
    for (double& p : probs) total += (p = unit(rng_));
    for (double& p : probs) p /= total;
    probs[5] = probs[5] + probs[7];
    probs[7] = 0.0;  // a zero-probability category -> -inf log table entry
    ASSERT_TRUE(categorical.SetProbabilities(probs).ok());
  }
  const Distribution* dists[] = {&poisson, &gamma, &lognormal, &categorical};
  for (const Distribution* dist : dists) {
    for (size_t n : kSizes) {
      std::vector<double> xs;
      if (dist->kind() == DistributionKind::kGamma ||
          dist->kind() == DistributionKind::kLogNormal) {
        xs = MakePositives(n);
      } else {
        xs = MakeKeys(n, 16);
      }
      std::vector<double> vec_out(n), scalar_out(n), single(n);
      simd::ForceScalarForTest(false);
      dist->LogProbBatch(xs, vec_out);
      simd::ForceScalarForTest(true);
      dist->LogProbBatch(xs, scalar_out);
      simd::ForceScalarForTest(false);
      ExpectBitEqual(vec_out, scalar_out);
      // And both must equal the one-at-a-time virtual LogProb for every
      // input in the comparable domain. NaN is excluded by contract: the
      // batch kernels' support predicate sends NaN to -inf on every
      // backend, while the scalar LogProb propagates it.
      for (size_t i = 0; i < n; ++i) {
        single[i] = std::isnan(xs[i]) ? vec_out[i] : dist->LogProb(xs[i]);
      }
      ExpectBitEqual(vec_out, single);
    }
  }
}

TEST_F(KernelEquivalenceTest, ItemDpSolversMatchAcrossBackends) {
  const int num_levels = 6;
  const int num_items = 40;
  const size_t n_actions = 150;
  std::vector<double> cache(
      static_cast<size_t>(num_items) * static_cast<size_t>(num_levels));
  std::uniform_real_distribution<double> score(-15.0, 0.0);
  for (double& c : cache) c = score(rng_);
  cache[7 * num_levels + 2] = kNegInf;  // an impossible (item, level) cell
  std::vector<int32_t> items(n_actions);
  std::uniform_int_distribution<int32_t> pick(0, num_items - 1);
  for (int32_t& it : items) it = pick(rng_);
  std::vector<double> log_initial(num_levels);
  for (double& v : log_initial) v = score(rng_);
  std::vector<uint8_t> allow_down(n_actions - 1, 0);
  for (size_t t = 0; t < allow_down.size(); t += 5) allow_down[t] = 1;

  DpScratch vec_scratch, scalar_scratch;
  simd::ForceScalarForTest(false);
  const double vec_ll = SolveMonotonePathItems(
      cache, items, num_levels, log_initial, -0.105, -2.302, vec_scratch);
  const std::vector<int> vec_levels = vec_scratch.levels;
  const double vec_ll_forget = SolveMonotonePathItemsWithForgetting(
      cache, items, num_levels, log_initial, -0.105, -2.302, allow_down,
      -3.0, vec_scratch);
  const std::vector<int> vec_levels_forget = vec_scratch.levels;

  simd::ForceScalarForTest(true);
  ASSERT_EQ(simd::ActiveBackend(), simd::Backend::kScalar);
  const double scalar_ll = SolveMonotonePathItems(
      cache, items, num_levels, log_initial, -0.105, -2.302, scalar_scratch);
  EXPECT_TRUE(BitEq(vec_ll, scalar_ll));
  EXPECT_EQ(vec_levels, scalar_scratch.levels);
  const double scalar_ll_forget = SolveMonotonePathItemsWithForgetting(
      cache, items, num_levels, log_initial, -0.105, -2.302, allow_down,
      -3.0, scalar_scratch);
  EXPECT_TRUE(BitEq(vec_ll_forget, scalar_ll_forget));
  EXPECT_EQ(vec_levels_forget, scalar_scratch.levels);
}

TEST_F(KernelEquivalenceTest, StreamingForwardMatchesBatchAcrossBackends) {
  // The streaming column after a prefix must equal the batch kernel's
  // final row on that prefix — on both backends, bitwise.
  // Above DpForward's 8-level register body, so the batch side runs the
  // scalar reference on both backends.
  const int num_levels = 9;
  const int num_items = 25;
  const size_t n_actions = 60;
  std::vector<double> cache(
      static_cast<size_t>(num_items) * static_cast<size_t>(num_levels));
  std::uniform_real_distribution<double> score(-15.0, 0.0);
  for (double& c : cache) c = score(rng_);
  std::vector<int32_t> items(n_actions);
  std::uniform_int_distribution<int32_t> pick(0, num_items - 1);
  for (int32_t& it : items) it = pick(rng_);

  for (const bool force_scalar : {false, true}) {
    simd::ForceScalarForTest(force_scalar);
    std::vector<double> column(num_levels), next(num_levels);
    DpScratch scratch;
    for (size_t t = 0; t < n_actions; ++t) {
      const std::span<const double> row(
          cache.data() +
              static_cast<size_t>(items[t]) * static_cast<size_t>(num_levels),
          static_cast<size_t>(num_levels));
      if (t == 0) {
        MonotoneForwardStart(row, {}, column);
      } else {
        MonotoneForwardStep(column, row, -0.105, -2.302, false, 0.0, next);
        column.swap(next);
      }
      const std::span<const int32_t> prefix(items.data(), t + 1);
      SolveMonotonePathItems(cache, prefix, num_levels, {}, -0.105, -2.302,
                             scratch);
      EXPECT_EQ(MonotoneForwardLevel(column), scratch.levels.back())
          << "t=" << t << " force_scalar=" << force_scalar;
    }
  }
}

TEST_F(KernelEquivalenceTest, Crc32MatchesScalarOnLargeUnalignedBuffer) {
  // 1 MiB plus a 13-byte tail, read from an odd offset: the vector body's
  // 64-byte folds, its 16-byte steps and the scalar tail all run, on
  // unaligned loads throughout.
  std::vector<uint8_t> bytes((1u << 20) + 13 + 5);
  std::uniform_int_distribution<int> pick(0, 255);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(pick(rng_));
  const uint8_t* data = bytes.data() + 5;
  const size_t size = bytes.size() - 5;

  simd::ForceScalarForTest(false);
  const uint32_t dispatched = simd::Crc32Update(0xffffffffu, data, size);
  simd::ForceScalarForTest(true);
  ASSERT_EQ(simd::ActiveBackend(), simd::Backend::kScalar);
  EXPECT_EQ(simd::Crc32Update(0xffffffffu, data, size), dispatched);
  EXPECT_EQ(simd::scalar::Crc32Update(0xffffffffu, data, size), dispatched);
}

TEST_F(KernelEquivalenceTest, BackendSwitchIsObservable) {
  // Whatever the hardware, forcing scalar must stick; restoring must
  // return to the compile/runtime-detected choice.
  const simd::Backend detected = simd::ActiveBackend();
  simd::ForceScalarForTest(true);
  EXPECT_EQ(simd::ActiveBackend(), simd::Backend::kScalar);
  EXPECT_STREQ(simd::BackendName(), "scalar");
  simd::ForceScalarForTest(false);
  EXPECT_EQ(simd::ActiveBackend(), detected);
}

}  // namespace
}  // namespace upskill
