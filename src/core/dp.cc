#include "core/dp.h"

#include <limits>
#include <utility>

#include "common/logging.h"
#include "simd/kernels.h"

namespace upskill {

MonotonePath SolveMonotonePath(std::span<const double> log_probs,
                               int num_levels) {
  return SolveMonotonePathWithTransitions(log_probs, num_levels,
                                          /*log_initial=*/{},
                                          /*log_stay=*/0.0, /*log_up=*/0.0);
}

MonotonePath SolveMonotonePathWithTransitions(
    std::span<const double> log_probs, int num_levels,
    std::span<const double> log_initial, double log_stay, double log_up) {
  UPSKILL_CHECK(num_levels >= 1);
  UPSKILL_CHECK(log_initial.empty() ||
                log_initial.size() == static_cast<size_t>(num_levels));
  MonotonePath result;
  if (log_probs.empty()) return result;
  UPSKILL_CHECK(log_probs.size() % static_cast<size_t>(num_levels) == 0);
  const size_t n = log_probs.size() / static_cast<size_t>(num_levels);
  const size_t levels = static_cast<size_t>(num_levels);

  // best[t * levels + s0] = L(t+1, s0+1); from[...] = 1 when the optimal
  // predecessor is one level below (the "improve" edge), 0 for "stay".
  std::vector<double> best(n * levels);
  std::vector<uint8_t> from(n * levels, 0);

  for (size_t s = 0; s < levels; ++s) {
    best[s] = log_probs[s] + (log_initial.empty() ? 0.0 : log_initial[s]);
  }
  for (size_t t = 1; t < n; ++t) {
    for (size_t s = 0; s < levels; ++s) {
      // Staying at the top level is the only move there, so it is free.
      const double stay_cost = (s + 1 < levels) ? log_stay : 0.0;
      double incoming = best[(t - 1) * levels + s] + stay_cost;
      uint8_t step = 0;
      if (s > 0) {
        // Strict improvement required so ties resolve to "stay", which
        // keeps the path at the lowest attainable level.
        const double up = best[(t - 1) * levels + (s - 1)] + log_up;
        if (up > incoming) {
          incoming = up;
          step = 1;
        }
      }
      best[t * levels + s] = incoming + log_probs[t * levels + s];
      from[t * levels + s] = step;
    }
  }

  // Final level: argmax, ties to the lowest level.
  size_t level = 0;
  double best_ll = best[(n - 1) * levels];
  for (size_t s = 1; s < levels; ++s) {
    const double candidate = best[(n - 1) * levels + s];
    if (candidate > best_ll) {
      best_ll = candidate;
      level = s;
    }
  }

  result.levels.resize(n);
  result.log_likelihood = best_ll;
  for (size_t t = n; t-- > 0;) {
    result.levels[t] = static_cast<int>(level) + 1;
    if (t > 0 && from[t * levels + level]) --level;
  }
  return result;
}

MonotonePath SolveMonotonePathWithForgetting(
    std::span<const double> log_probs, int num_levels,
    std::span<const double> log_initial, double log_stay, double log_up,
    std::span<const uint8_t> allow_down, double log_down) {
  UPSKILL_CHECK(num_levels >= 1);
  UPSKILL_CHECK(log_initial.empty() ||
                log_initial.size() == static_cast<size_t>(num_levels));
  MonotonePath result;
  if (log_probs.empty()) return result;
  UPSKILL_CHECK(log_probs.size() % static_cast<size_t>(num_levels) == 0);
  const size_t n = log_probs.size() / static_cast<size_t>(num_levels);
  UPSKILL_CHECK(allow_down.size() == n - 1);
  const size_t levels = static_cast<size_t>(num_levels);

  std::vector<double> best(n * levels);
  // Predecessor offset relative to the current level: -1 (came from
  // below, "up" move), 0 ("stay"), +1 (came from above, "forget" move).
  std::vector<int8_t> from(n * levels, 0);

  for (size_t s = 0; s < levels; ++s) {
    best[s] = log_probs[s] + (log_initial.empty() ? 0.0 : log_initial[s]);
  }
  for (size_t t = 1; t < n; ++t) {
    for (size_t s = 0; s < levels; ++s) {
      const double stay_cost = (s + 1 < levels) ? log_stay : 0.0;
      double incoming = best[(t - 1) * levels + s] + stay_cost;
      int8_t step = 0;
      if (s > 0) {
        const double up = best[(t - 1) * levels + (s - 1)] + log_up;
        if (up > incoming) {
          incoming = up;
          step = -1;
        }
      }
      if (s + 1 < levels && allow_down[t - 1]) {
        const double down = best[(t - 1) * levels + (s + 1)] + log_down;
        if (down > incoming) {
          incoming = down;
          step = 1;
        }
      }
      best[t * levels + s] = incoming + log_probs[t * levels + s];
      from[t * levels + s] = step;
    }
  }

  size_t level = 0;
  double best_ll = best[(n - 1) * levels];
  for (size_t s = 1; s < levels; ++s) {
    const double candidate = best[(n - 1) * levels + s];
    if (candidate > best_ll) {
      best_ll = candidate;
      level = s;
    }
  }

  result.levels.resize(n);
  result.log_likelihood = best_ll;
  for (size_t t = n; t-- > 0;) {
    result.levels[t] = static_cast<int>(level) + 1;
    if (t > 0) {
      level = static_cast<size_t>(static_cast<int>(level) +
                                  from[t * levels + level]);
    }
  }
  return result;
}

namespace {

// Index of the largest of row[0, levels), ties to the lowest level: where
// every backtrack starts and what MonotoneForwardLevel reports.
size_t ArgmaxTiesLow(const double* row, size_t levels) {
  size_t level = 0;
  double best = row[0];
  for (size_t s = 1; s < levels; ++s) {
    if (row[s] > best) {
      best = row[s];
      level = s;
    }
  }
  return level;
}

// Backtracks through `from` (0 = stay, 1 = from below, 2 = from above)
// starting at the argmax of the final row.
double BacktrackFused(const double* final_row, const uint8_t* from, size_t n,
                      size_t levels, std::vector<int>* out) {
  size_t level = ArgmaxTiesLow(final_row, levels);
  const double best_ll = final_row[level];
  for (size_t t = n; t-- > 0;) {
    (*out)[t] = static_cast<int>(level) + 1;
    if (t > 0) {
      const uint8_t step = from[t * levels + level];
      if (step == 1) {
        --level;
      } else if (step == 2) {
        ++level;
      }
    }
  }
  return best_ll;
}

// Backtracks the plain kernel's up-move bits from the argmax of the final
// row.
double BacktrackUpMoves(const double* final_row, const uint64_t* up_moves,
                        size_t n, size_t levels, int* path) {
  size_t level = ArgmaxTiesLow(final_row, levels);
  const double best_ll = final_row[level];
  const size_t words = simd::DpUpMoveWords(levels);
  if (words == 1) {
    // The common case gets its own loop: the word's load then does not
    // depend on `level`, which keeps it off the step-to-step chain.
    for (size_t t = n; t-- > 1;) {
      path[t] = static_cast<int>(level) + 1;
      level -= (up_moves[t] >> level) & 1;
    }
  } else {
    for (size_t t = n; t-- > 1;) {
      path[t] = static_cast<int>(level) + 1;
      level -= (up_moves[t * words + level / 64] >> (level % 64)) & 1;
    }
  }
  path[0] = static_cast<int>(level) + 1;
  return best_ll;
}

// One transition of the item-indexed recurrence: curr[s] = row[s] + the
// best of stay (free at the top level), up from s - 1 and, when
// `down_open`, the forgetting down-edge from s + 1. Strict `>` keeps ties
// on stay, and the down-edge is checked after stay/up: the operations of
// SolveMonotonePathWithForgetting, in its order. `from` (null when no
// backtrack follows) receives 0 = stay, 1 = from below, 2 = from above.
void RecurrenceStep(const double* prev, const double* row, size_t levels,
                    double log_stay, double log_up, bool down_open,
                    double log_down, double* curr, uint8_t* from) {
  for (size_t s = 0; s < levels; ++s) {
    double incoming = prev[s] + (s + 1 < levels ? log_stay : 0.0);
    uint8_t step = 0;
    if (s > 0) {
      const double up = prev[s - 1] + log_up;
      if (up > incoming) {
        incoming = up;
        step = 1;
      }
    }
    if (down_open && s + 1 < levels) {
      const double down = prev[s + 1] + log_down;
      if (down > incoming) {
        incoming = down;
        step = 2;
      }
    }
    curr[s] = incoming + row[s];
    if (from != nullptr) from[s] = step;
  }
}

void CheckPlainArgs(int num_levels, std::span<const double> log_initial) {
  UPSKILL_CHECK(num_levels >= 1);
  UPSKILL_CHECK(log_initial.empty() ||
                log_initial.size() == static_cast<size_t>(num_levels));
}

// Sizes `scratch` for a plain solve over `items` and returns the kernel's
// view of it.
simd::DpSequence PlainSequence(std::span<const int32_t> items, size_t levels,
                               DpScratch& scratch) {
  const size_t n = items.size();
  scratch.levels.resize(n);
  scratch.best_rows.resize(levels);
  scratch.up_moves.resize(n * simd::DpUpMoveWords(levels));
  return {items.data(), n, scratch.up_moves.data(), scratch.best_rows.data()};
}

// Backtracks a finished kernel run into scratch.levels.
double BacktrackPlain(const simd::DpSequence& seq, size_t levels,
                      DpScratch& scratch) {
  if (seq.length == 0) return 0.0;
  return BacktrackUpMoves(seq.last_row, seq.up_moves, seq.length, levels,
                          scratch.levels.data());
}

}  // namespace

double SolveMonotonePathItems(std::span<const double> item_log_probs,
                              std::span<const int32_t> items, int num_levels,
                              std::span<const double> log_initial,
                              double log_stay, double log_up,
                              DpScratch& scratch) {
  CheckPlainArgs(num_levels, log_initial);
  const size_t levels = static_cast<size_t>(num_levels);
  const simd::DpSequence seq = PlainSequence(items, levels, scratch);
  simd::DpForward(item_log_probs.data(), levels,
                  log_initial.empty() ? nullptr : log_initial.data(),
                  log_stay, log_up, seq);
  return BacktrackPlain(seq, levels, scratch);
}

std::pair<double, double> SolveMonotonePathItemsPair(
    std::span<const double> item_log_probs, std::span<const int32_t> first,
    std::span<const int32_t> second, int num_levels,
    std::span<const double> log_initial, double log_stay, double log_up,
    DpScratch& first_scratch, DpScratch& second_scratch) {
  CheckPlainArgs(num_levels, log_initial);
  const size_t levels = static_cast<size_t>(num_levels);
  const simd::DpSequence a = PlainSequence(first, levels, first_scratch);
  const simd::DpSequence b = PlainSequence(second, levels, second_scratch);
  simd::DpForward(item_log_probs.data(), levels,
                  log_initial.empty() ? nullptr : log_initial.data(),
                  log_stay, log_up, a, b);
  return {BacktrackPlain(a, levels, first_scratch),
          BacktrackPlain(b, levels, second_scratch)};
}

double SolveMonotonePathItemsWithForgetting(
    std::span<const double> item_log_probs, std::span<const int32_t> items,
    int num_levels, std::span<const double> log_initial, double log_stay,
    double log_up, std::span<const uint8_t> allow_down, double log_down,
    DpScratch& scratch) {
  UPSKILL_CHECK(num_levels >= 1);
  UPSKILL_CHECK(log_initial.empty() ||
                log_initial.size() == static_cast<size_t>(num_levels));
  const size_t n = items.size();
  scratch.levels.resize(n);
  if (n == 0) return 0.0;
  UPSKILL_CHECK(allow_down.size() == n - 1);
  const size_t levels = static_cast<size_t>(num_levels);

  scratch.best_rows.resize(2 * levels);
  scratch.from.resize(n * levels);
  double* prev = scratch.best_rows.data();
  double* curr = prev + levels;
  auto item_row = [&](size_t t) {
    return item_log_probs.data() + static_cast<size_t>(items[t]) * levels;
  };
  MonotoneForwardStart(std::span<const double>(item_row(0), levels),
                       log_initial, std::span<double>(prev, levels));
  for (size_t t = 1; t < n; ++t) {
    RecurrenceStep(prev, item_row(t), levels, log_stay, log_up,
                   allow_down[t - 1] != 0, log_down, curr,
                   scratch.from.data() + t * levels);
    std::swap(prev, curr);
  }
  return BacktrackFused(prev, scratch.from.data(), n, levels,
                        &scratch.levels);
}

void MonotoneForwardStart(std::span<const double> item_row,
                          std::span<const double> log_initial,
                          std::span<double> column) {
  const size_t levels = column.size();
  UPSKILL_CHECK(levels >= 1);
  UPSKILL_CHECK(item_row.size() >= levels);
  UPSKILL_CHECK(log_initial.empty() || log_initial.size() == levels);
  for (size_t s = 0; s < levels; ++s) {
    column[s] = item_row[s] + (log_initial.empty() ? 0.0 : log_initial[s]);
  }
}

void MonotoneForwardStep(std::span<const double> prev_column,
                         std::span<const double> item_row, double log_stay,
                         double log_up, bool allow_down, double log_down,
                         std::span<double> next_column) {
  const size_t levels = prev_column.size();
  UPSKILL_CHECK(levels >= 1);
  UPSKILL_CHECK(item_row.size() >= levels);
  UPSKILL_CHECK(next_column.size() == levels);
  UPSKILL_CHECK(next_column.data() != prev_column.data());
  RecurrenceStep(prev_column.data(), item_row.data(), levels, log_stay, log_up,
                 allow_down, log_down, next_column.data(), /*from=*/nullptr);
}

int MonotoneForwardLevel(std::span<const double> column) {
  UPSKILL_CHECK(!column.empty());
  return static_cast<int>(ArgmaxTiesLow(column.data(), column.size())) + 1;
}

}  // namespace upskill
