#ifndef UPSKILL_CORE_DP_H_
#define UPSKILL_CORE_DP_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace upskill {

/// Result of the per-user dynamic program (Figure 2 / Equation 4).
struct MonotonePath {
  /// 1-based skill level per action; empty for an empty sequence.
  std::vector<int> levels;
  /// Log-likelihood of the best path (sum of the chosen entries).
  double log_likelihood = 0.0;
};

/// Finds the monotone non-decreasing, unit-step level path that maximizes
/// sum_n log_probs[n * num_levels + (s_n - 1)] over an action-skill
/// lattice with `n = log_probs.size() / num_levels` actions. The first
/// action may take any level (users can start above level 1); each
/// subsequent action stays or moves up one level. Ties prefer the lower
/// level, making results deterministic.
///
/// Runs in O(n * S) time and memory, matching the complexity analysis in
/// Section IV-C.
MonotonePath SolveMonotonePath(std::span<const double> log_probs,
                               int num_levels);

/// Variant with an explicit probabilistic progression component (the
/// extension Section IV-A points to via Shin et al.): the path score adds
/// `log_initial[s0 - 1]` for the start level, `log_stay` per same-level
/// transition below the top level, and `log_up` per level-up. The top
/// level's self-transition costs 0 (staying is the only option there).
/// `log_initial` may be empty, meaning a free (uniform, unscored) start.
/// Ties still prefer the lower level.
MonotonePath SolveMonotonePathWithTransitions(
    std::span<const double> log_probs, int num_levels,
    std::span<const double> log_initial, double log_stay, double log_up);

/// Variant with forgetting (Section VII's future-work extension): at
/// positions where `allow_down[t - 1]` is set (the time gap before action
/// t exceeded the configured threshold), the path may additionally drop
/// exactly one level at cost `log_down`. Elsewhere the usual monotone
/// stay/up moves apply. `allow_down` has one entry per transition
/// (n - 1 total).
MonotonePath SolveMonotonePathWithForgetting(
    std::span<const double> log_probs, int num_levels,
    std::span<const double> log_initial, double log_stay, double log_up,
    std::span<const uint8_t> allow_down, double log_down);

/// Reusable scratch arena for the item-indexed DP kernels below: the best
/// rows (the recurrence only ever reads the previous row), the
/// backpointers, and per-sequence staging buffers for item ids and
/// allow-down flags. Buffers grow on demand and never shrink, so one
/// arena per thread slot makes repeated assignment passes allocation-free
/// in the steady state.
struct DpScratch {
  /// Best rows: [S] for the plain solver, [2 * S] ping-ponged by the
  /// forgetting solver.
  std::vector<double> best_rows;
  /// Plain-solver backpointers (simd::DpSequence::up_moves): one bit per
  /// (action, level), set when the level was reached from the one below.
  std::vector<uint64_t> up_moves;
  /// Forgetting-solver backpointers, [t * S + s]: 0 = stay, 1 = came from
  /// one level below ("improve"), 2 = came from one level above.
  std::vector<uint8_t> from;
  /// Item id per action, staged by callers that solve from `Action`
  /// records through an item-id solver (OnlineTrainer::Refresh).
  std::vector<int32_t> items;
  /// Per-transition down-edge flags (forgetting), staged the same way.
  std::vector<uint8_t> allow_down;
  /// Kernel output staging: 1-based level per action.
  std::vector<int> levels;
  /// Secondary staging buffer for callers comparing candidate paths
  /// (e.g. the per-class assignment step keeps its best path here).
  std::vector<int> best_levels;
};

/// Fused, item-indexed form of SolveMonotonePathWithTransitions: instead
/// of consuming a per-user n×S log-prob copy, reads rows of the shared
/// per-(item, level) cache (`item_log_probs[item * num_levels + s]`,
/// e.g. LogProbCache::values()) directly for the given item ids. Writes
/// the path into `scratch.levels` (resized to items.size()) and returns
/// its log-likelihood. Levels and log-likelihood are bitwise identical to
/// the materialized solver on the gathered lattice, including the
/// ties-to-lowest-level rule. Pass log_initial empty and zero costs to
/// reproduce SolveMonotonePath.
double SolveMonotonePathItems(std::span<const double> item_log_probs,
                              std::span<const int32_t> items, int num_levels,
                              std::span<const double> log_initial,
                              double log_stay, double log_up,
                              DpScratch& scratch);

/// Two users' plain solves through one call of simd::DpForward's
/// two-sequence form, then both backtracks: `first`'s path lands in
/// first_scratch.levels and `second`'s in second_scratch.levels (distinct
/// arenas), each bitwise what SolveMonotonePathItems gives it alone.
/// Returns the two log-likelihoods in that order.
std::pair<double, double> SolveMonotonePathItemsPair(
    std::span<const double> item_log_probs, std::span<const int32_t> first,
    std::span<const int32_t> second, int num_levels,
    std::span<const double> log_initial, double log_stay, double log_up,
    DpScratch& first_scratch, DpScratch& second_scratch);

/// Item-indexed form of SolveMonotonePathWithForgetting; `allow_down` has
/// one entry per transition (items.size() - 1, may alias
/// scratch.allow_down). Same bitwise-equivalence guarantee.
double SolveMonotonePathItemsWithForgetting(
    std::span<const double> item_log_probs, std::span<const int32_t> items,
    int num_levels, std::span<const double> log_initial, double log_stay,
    double log_up, std::span<const uint8_t> allow_down, double log_down,
    DpScratch& scratch);

/// Streaming forward-column primitives for the serving subsystem. The
/// batch solvers above materialize all n columns of the lattice because
/// they need backpointers for the full path; an online session only needs
/// the *tail* level after each action, and the recurrence of Equation 4
/// reads nothing but the previous column — so a live session can carry a
/// single S-sized column and update it in O(S) per observed action.
///
/// SolveMonotonePathItemsWithForgetting is MonotoneForwardStart, then the
/// recurrence step MonotoneForwardStep runs once per action (plus
/// backpointers), then a backtrack from MonotoneForwardLevel's
/// argmax-ties-low. So after feeding a prefix of a user's item rows
/// through Start + Step the column is bitwise equal to that solver's final
/// best row on the prefix, and MonotoneForwardLevel equals the tail level
/// of its path. The plain solver (SolveMonotonePathItems) runs its own
/// whole-sequence SIMD kernel with the same operation order; tests pin it
/// bitwise to the step with the down-edge closed.
///
/// Initializes `column` (size = num_levels) for the first action:
/// column[s] = item_row[s] + log_initial[s] (log_initial may be empty for
/// a free start). `item_row` is the item's S-sized slice of a
/// [item * S + (level-1)] cache.
void MonotoneForwardStart(std::span<const double> item_row,
                          std::span<const double> log_initial,
                          std::span<double> column);

/// Advances `prev_column` by one action with item row `item_row`, writing
/// the next column into `next_column` (must not alias `prev_column`).
/// `allow_down` opens the forgetting down-edge at cost `log_down` for this
/// transition; pass false (and any log_down) when forgetting is disabled.
void MonotoneForwardStep(std::span<const double> prev_column,
                         std::span<const double> item_row, double log_stay,
                         double log_up, bool allow_down, double log_down,
                         std::span<double> next_column);

/// 1-based argmax level of a forward column, ties to the lowest level —
/// the rule the batch backtrack applies to its final row.
int MonotoneForwardLevel(std::span<const double> column);

}  // namespace upskill

#endif  // UPSKILL_CORE_DP_H_
