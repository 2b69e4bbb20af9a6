#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/dp.h"
#include "exec/backend.h"
#include "exec/map_reduce.h"
#include "exec/shard.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace upskill {

Result<std::shared_ptr<exec::Backend>> CreateTrainingBackend(
    const SkillModelConfig& config) {
  return exec::CreateBackend(
      config.backend, config.parallel.any() ? config.parallel.num_threads : 1);
}

std::vector<int> SegmentUniformly(size_t length, int num_levels) {
  std::vector<int> levels(length);
  if (length < static_cast<size_t>(num_levels)) {
    // Fewer actions than levels: "equal groups" would skip levels and
    // break the unit-step constraint (Equation 1); climb one level per
    // action instead.
    for (size_t n = 0; n < length; ++n) {
      levels[n] = 1 + static_cast<int>(n);
    }
    return levels;
  }
  for (size_t n = 0; n < length; ++n) {
    levels[n] = 1 + static_cast<int>((n * static_cast<size_t>(num_levels)) /
                                     length);
    if (levels[n] > num_levels) levels[n] = num_levels;
  }
  return levels;
}

SkillAssignments InitializeAssignments(const Dataset& dataset, int num_levels,
                                       int min_init_actions) {
  SkillAssignments assignments(static_cast<size_t>(dataset.num_users()));
  bool any = false;
  for (UserId u = 0; u < dataset.num_users(); ++u) {
    const size_t len = dataset.sequence(u).size();
    if (static_cast<int>(len) >= min_init_actions) {
      assignments[static_cast<size_t>(u)] = SegmentUniformly(len, num_levels);
      any = true;
    }
  }
  if (!any) {
    // Nobody reaches the bar; fall back to segmenting everyone so the
    // initial fit still sees data at every level.
    for (UserId u = 0; u < dataset.num_users(); ++u) {
      assignments[static_cast<size_t>(u)] =
          SegmentUniformly(dataset.sequence(u).size(), num_levels);
    }
  }
  return assignments;
}

namespace {

// Item count below which the per-item column transforms in FitParameters
// (clamp + log) run inline: at ~5ns per item the work only outweighs a
// backend dispatch for catalogs of tens of thousands of items.
constexpr size_t kMinItemsForParallelTransform = 65536;

// Runs fit_cell over the (level, feature) grid with the axis fan-out
// selected by ParallelOptions: both axes flat, one axis with the other
// nested inside the task, or fully sequential. Mirrors the paper's
// separate "skill" and "feature" parallelization conditions. Each cell
// refits its own component (disjoint writes) from an already-merged count
// grid, so scheduling cannot affect the fitted parameters.
template <typename FitCell>
void DispatchCells(exec::Backend* backend, ParallelOptions parallel,
                   int num_levels, int num_features, const FitCell& fit_cell) {
  const bool concurrent = backend != nullptr && backend->concurrency() > 1;
  const bool parallel_levels = parallel.levels && concurrent;
  const bool parallel_features = parallel.features && concurrent;
  if (parallel_levels && parallel_features) {
    backend->RunIndices(0,
                        static_cast<size_t>(num_levels) *
                            static_cast<size_t>(num_features),
                        [&](size_t index) {
                          fit_cell(static_cast<int>(index) % num_features,
                                   1 + static_cast<int>(index) / num_features);
                        });
  } else if (parallel_levels) {
    backend->RunIndices(0, static_cast<size_t>(num_levels), [&](size_t s) {
      for (int f = 0; f < num_features; ++f) {
        fit_cell(f, static_cast<int>(s) + 1);
      }
    });
  } else if (parallel_features) {
    backend->RunIndices(0, static_cast<size_t>(num_features), [&](size_t f) {
      for (int s = 1; s <= num_levels; ++s) {
        fit_cell(static_cast<int>(f), s);
      }
    });
  } else {
    for (int s = 1; s <= num_levels; ++s) {
      for (int f = 0; f < num_features; ++f) fit_cell(f, s);
    }
  }
}

// Registry instruments behind the TrainResult readouts. The per-phase
// seconds histograms and the iteration/DP counters observe every
// training run in the process; TrainResult's fields stay per-run (they
// read the same Span clocks, not the cumulative registry totals).
struct TrainInstruments {
  obs::Histogram& init_seconds;
  obs::Histogram& cache_seconds;
  obs::Histogram& assignment_seconds;
  obs::Histogram& update_seconds;
  obs::Counter& iterations;
  obs::Counter& reassigned_users;

  static TrainInstruments& Get() {
    static TrainInstruments* instruments = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      return new TrainInstruments{
          registry.GetHistogram("upskill_train_phase_seconds",
                                "phase=\"init\""),
          registry.GetHistogram("upskill_train_phase_seconds",
                                "phase=\"cache\""),
          registry.GetHistogram("upskill_train_phase_seconds",
                                "phase=\"assignment\""),
          registry.GetHistogram("upskill_train_phase_seconds",
                                "phase=\"update\""),
          registry.GetCounter("upskill_train_iterations_total"),
          registry.GetCounter("upskill_train_reassigned_users_total"),
      };
    }();
    return *instruments;
  }
};

}  // namespace

void FitCellsFromCountGrid(const ItemTable& items,
                           std::span<const double> level_counts,
                           SkillModel* model, exec::Backend* backend,
                           ParallelOptions parallel) {
  UPSKILL_CHECK(model != nullptr);
  const int num_levels = model->num_levels();
  const int num_features = model->num_features();
  const size_t num_items = static_cast<size_t>(items.num_items());
  UPSKILL_CHECK(level_counts.size() ==
                static_cast<size_t>(num_levels) * num_items);
  if (backend == nullptr) backend = exec::Backend::Serial();
  exec::Backend* update_backend =
      ((parallel.levels || parallel.features) && backend->concurrency() > 1)
          ? backend
          : exec::Backend::Serial();

  // Positive-support kinds take a log per observation in the flat
  // formulation; hoisting log(max(x, floor)) per *item* makes the whole
  // update O(|I|) logs instead of O(|A|). AddPositiveTransformedColumn
  // consumes the precomputed pair without re-deriving either.
  std::vector<SufficientStats> prototypes;
  prototypes.reserve(static_cast<size_t>(num_features));
  for (int f = 0; f < num_features; ++f) {
    prototypes.push_back(model->component(f, 1).MakeStats());
  }
  std::vector<std::vector<double>> clamped_cols(
      static_cast<size_t>(num_features));
  std::vector<std::vector<double>> log_cols(static_cast<size_t>(num_features));
  for (int f = 0; f < num_features; ++f) {
    const DistributionKind kind = prototypes[static_cast<size_t>(f)].kind();
    if (kind != DistributionKind::kGamma &&
        kind != DistributionKind::kLogNormal) {
      continue;
    }
    std::vector<double>& clamped = clamped_cols[static_cast<size_t>(f)];
    std::vector<double>& logs = log_cols[static_cast<size_t>(f)];
    clamped.resize(num_items);
    logs.resize(num_items);
    const double* column = items.column(f).data();
    // One log per item is light work; fan out only for large catalogs
    // where the column transform outweighs the dispatch. One independent
    // write per item and no reduction, so scheduling cannot move a value.
    exec::Backend* column_backend = num_items >= kMinItemsForParallelTransform
                                        ? update_backend
                                        : exec::Backend::Serial();
    column_backend->RunIndices(0, num_items, [&](size_t item) {
      const double c = std::max(column[item], kPositiveObservationFloor);
      clamped[item] = c;
      logs[item] = std::log(c);
    });
  }

  // Every (feature, level) cell reduces its count row against the
  // feature column in fixed item order — a dense weighted accumulation
  // with no per-action work at all. Cells with no observations keep their
  // current parameters.
  auto fit_cell = [&](int feature, int level) {
    const size_t fs = static_cast<size_t>(feature);
    SufficientStats stats = prototypes[fs];
    const std::span<const double> weights(
        level_counts.data() + static_cast<size_t>(level - 1) * num_items,
        num_items);
    if (!clamped_cols[fs].empty()) {
      stats.AddPositiveTransformedColumn(clamped_cols[fs], log_cols[fs],
                                         weights);
    } else {
      stats.AddColumn(items.column(feature), weights);
    }
    if (!stats.empty()) {
      model->mutable_component(feature, level)->FitFromStats(stats);
    }
  };
  DispatchCells(backend, parallel, num_levels, num_features, fit_cell);
}

std::vector<double> CountAssignedActions(const Dataset& dataset,
                                         const SkillAssignments& assignments,
                                         int num_levels) {
  const size_t num_items = static_cast<size_t>(dataset.items().num_items());
  std::vector<double> level_counts(static_cast<size_t>(num_levels) * num_items,
                                   0.0);
  for (UserId user = 0; user < dataset.num_users(); ++user) {
    const std::vector<int>& levels = assignments[static_cast<size_t>(user)];
    if (levels.empty()) continue;  // excluded (initialization)
    std::span<const Action> seq = dataset.sequence(user);
    UPSKILL_CHECK(levels.size() == seq.size());
    for (size_t n = 0; n < seq.size(); ++n) {
      level_counts[static_cast<size_t>(levels[n] - 1) * num_items +
                   static_cast<size_t>(seq[n].item)] += 1.0;
    }
  }
  return level_counts;
}

void FitParameters(const Dataset& dataset, const SkillAssignments& assignments,
                   SkillModel* model, exec::Backend* backend,
                   ParallelOptions parallel) {
  UPSKILL_CHECK(model != nullptr);
  FitCellsFromCountGrid(
      dataset.items(),
      CountAssignedActions(dataset, assignments, model->num_levels()), model,
      backend, parallel);
}

AssignmentEngine::AssignmentEngine(const Dataset& dataset, int num_levels,
                                   int num_shards)
    : dataset_(&dataset),
      num_levels_(num_levels),
      num_shards_request_(num_shards),
      assignments_(static_cast<size_t>(dataset.num_users())),
      user_ll_(static_cast<size_t>(dataset.num_users()), 0.0),
      user_classes_(static_cast<size_t>(dataset.num_users()), 0) {}

void AssignmentEngine::TrackCounts(SkillAssignments initial) {
  UPSKILL_CHECK(!have_previous_ && level_counts_.empty());
  UPSKILL_CHECK(initial.size() == assignments_.size());
  // Move lists carry cell offsets as uint32_t.
  UPSKILL_CHECK(static_cast<uint64_t>(num_levels_) *
                    static_cast<uint64_t>(dataset_->items().num_items()) <=
                std::numeric_limits<uint32_t>::max());
  level_counts_ = CountAssignedActions(*dataset_, initial, num_levels_);
  assignments_ = std::move(initial);
}

void AssignmentEngine::BuildItemColumn() {
  const size_t num_users = static_cast<size_t>(dataset_->num_users());
  column_offsets_.resize(num_users + 1);
  column_offsets_[0] = 0;
  for (size_t u = 0; u < num_users; ++u) {
    column_offsets_[u + 1] =
        column_offsets_[u] + dataset_->sequence(static_cast<UserId>(u)).size();
  }
  // Left uninitialized: the first pass's shard tasks write every entry.
  item_column_ =
      std::make_unique_for_overwrite<int32_t[]>(column_offsets_.back());
}

std::span<const int32_t> AssignmentEngine::ItemIds(size_t user) const {
  return {item_column_.get() + column_offsets_[user],
          column_offsets_[user + 1] - column_offsets_[user]};
}

std::span<const uint8_t> AssignmentEngine::DownFlags(size_t user) const {
  const size_t length = column_offsets_[user + 1] - column_offsets_[user];
  if (length < 2) return {};
  return {down_column_.get() + column_offsets_[user] + 1, length - 1};
}

template <typename SolveUser, typename SolvePair>
AssignmentStats AssignmentEngine::RunPass(exec::Backend* user_backend,
                                          const ForgettingConfig& forgetting,
                                          const SolveUser& solve_user,
                                          const SolvePair& solve_pair) {
  if (user_backend == nullptr) user_backend = exec::Backend::Serial();
  // The first pass copies every action's item id into the column, each
  // shard task its own users' range before solving them, so the records
  // are read once; later passes read ids only from the column. The
  // down-edge flags are staged the same way, once per gap threshold.
  const bool fill_column = item_column_ == nullptr;
  if (fill_column) {
    // The user shards are planned with the column. The shard count only
    // moves scheduling, so a later pass on another backend keeps the plan.
    plan_ = exec::PlanDatasetShards(*dataset_, num_shards_request_,
                                    user_backend);
    shards_.resize(static_cast<size_t>(plan_.num_shards()));
    BuildItemColumn();
  }
  const bool fill_down =
      forgetting.enabled &&
      (down_column_ == nullptr || down_threshold_ != forgetting.gap_threshold);
  if (fill_down) {
    if (down_column_ == nullptr) {
      down_column_ =
          std::make_unique_for_overwrite<uint8_t[]>(column_offsets_.back());
    }
    down_threshold_ = forgetting.gap_threshold;
  }

  // With a tracked grid, a later pass patches it: a user whose path moved
  // lists the cells it left and entered (the moved positions, or the
  // whole old and new path when the length changed, as when
  // AssignWithClasses clears a path). The first pass moves nearly every
  // cell, so it recounts the grid after the join instead. Offsets fit
  // uint32_t (TrackCounts).
  const bool track_counts = !level_counts_.empty();
  const bool patch_counts = track_counts && have_previous_;
  const size_t num_items = static_cast<size_t>(dataset_->items().num_items());
  auto record_moves = [&](std::span<const int32_t> items,
                          const std::vector<int>& old_path,
                          const std::vector<int>& new_path,
                          ShardScratch& ws) {
    const bool same_length = old_path.size() == new_path.size();
    auto list = [&](const std::vector<int>& path, const std::vector<int>& other,
                    std::vector<uint32_t>& cells) {
      for (size_t n = 0; n < path.size(); ++n) {
        if (same_length && path[n] == other[n]) continue;
        cells.push_back(static_cast<uint32_t>(
            static_cast<size_t>(path[n] - 1) * num_items +
            static_cast<size_t>(items[n])));
      }
    };
    list(old_path, new_path, ws.removed_cells);
    list(new_path, old_path, ws.added_cells);
  };
  auto commit = [&](size_t u, const DpScratch& scratch, double ll,
                    ShardScratch& ws) {
    std::vector<int>& current = assignments_[u];
    if (!have_previous_ || scratch.levels != current) {
      ws.changed = true;
      if (patch_counts) record_moves(ItemIds(u), current, scratch.levels, ws);
      current.assign(scratch.levels.begin(), scratch.levels.end());
    }
    user_ll_[u] = ll;
  };

  // One task per balanced user shard; each task owns its shard's scratch
  // (DP arenas, move lists), so the loop body is lock-free and
  // allocation-free in the steady state. With a pair solver, the shard's
  // users go two per call; a user left over at the end of the shard is
  // solved alone.
  constexpr bool kPairs = !std::is_null_pointer_v<SolvePair>;
  user_backend->Run(plan_.num_shards(), [&](int shard_index) {
    const auto [begin, end] = plan_.range(shard_index);
    ShardScratch& ws = shards_[static_cast<size_t>(shard_index)];
    ws.changed = false;
    ws.removed_cells.clear();
    ws.added_cells.clear();
    if (fill_column) {
      int32_t* out = item_column_.get() + column_offsets_[begin];
      for (size_t u = begin; u < end; ++u) {
        for (const Action& a : dataset_->sequence(static_cast<UserId>(u))) {
          *out++ = a.item;
        }
      }
    }
    if (fill_down) {
      uint8_t* out = down_column_.get() + column_offsets_[begin];
      for (size_t u = begin; u < end; ++u) {
        const std::span<const Action> seq =
            dataset_->sequence(static_cast<UserId>(u));
        for (size_t n = 0; n < seq.size(); ++n) {
          *out++ = n > 0 && forgetting.OpensDownEdge(seq[n].time -
                                                     seq[n - 1].time);
        }
      }
    }
    size_t u = begin;
    if constexpr (kPairs) {
      for (; u + 1 < end; u += 2) {
        const auto [first_ll, second_ll] =
            solve_pair(ws.dp, ws.pair_dp, u, u + 1);
        commit(u, ws.dp, first_ll, ws);
        commit(u + 1, ws.pair_dp, second_ll, ws);
      }
    }
    for (; u < end; ++u) commit(u, ws.dp, solve_user(ws.dp, u), ws);
  });

  AssignmentStats stats;
  stats.changed = !have_previous_;
  // Exact grid moves, applied in fixed shard order. Cells stay integers
  // in [0, 2^53) and x - x is +0.0, so the patched grid is bitwise what
  // CountAssignedActions gives for the new paths.
  for (const ShardScratch& ws : shards_) {
    stats.changed = stats.changed || ws.changed;
    for (const uint32_t cell : ws.removed_cells) level_counts_[cell] -= 1.0;
    for (const uint32_t cell : ws.added_cells) level_counts_[cell] += 1.0;
  }
  if (track_counts && !patch_counts) {
    // The recount is CountAssignedActions' sweep over the column: the same
    // exact +1.0s, so the same bits.
    std::fill(level_counts_.begin(), level_counts_.end(), 0.0);
    for (size_t u = 0; u < assignments_.size(); ++u) {
      const std::vector<int>& path = assignments_[u];
      const std::span<const int32_t> items = ItemIds(u);
      for (size_t n = 0; n < path.size(); ++n) {
        level_counts_[static_cast<size_t>(path[n] - 1) * num_items +
                      static_cast<size_t>(items[n])] += 1.0;
      }
    }
  }
  // Per-user fixed-shape tree reduction: the objective is a pure function
  // of user_ll_ in index order — bitwise identical for any thread count
  // and any shard count. Shard partials never enter a float sum.
  stats.log_likelihood = exec::ReduceOrderedSum(user_ll_);
  have_previous_ = true;
  return stats;
}

double SolveUserPath(std::span<const int32_t> ids,
                     std::span<const uint8_t> allow_down,
                     std::span<const double> item_log_probs, int num_levels,
                     const TransitionWeights& transitions, double log_down,
                     DpScratch& scratch) {
  if (!allow_down.empty()) {
    return SolveMonotonePathItemsWithForgetting(
        item_log_probs, ids, num_levels, transitions.log_initial,
        transitions.log_stay, transitions.log_up, allow_down, log_down,
        scratch);
  }
  return SolveMonotonePathItems(item_log_probs, ids, num_levels,
                                transitions.log_initial, transitions.log_stay,
                                transitions.log_up, scratch);
}

AssignmentStats AssignmentEngine::Assign(
    const SkillModel& model, const std::vector<double>& item_log_probs,
    const TransitionWeights* transitions, exec::Backend* backend) {
  const ForgettingConfig& forgetting = model.config().forgetting;
  const TransitionWeights free_start;
  const TransitionWeights& weights =
      transitions == nullptr ? free_start : *transitions;
  if (forgetting.enabled) {
    const double log_down = std::log(forgetting.drop_probability);
    return RunPass(backend, forgetting, [&](DpScratch& scratch, size_t u) {
      return SolveUserPath(ItemIds(u), DownFlags(u), item_log_probs,
                           num_levels_, weights, log_down, scratch);
    });
  }
  // The plain pass solves two users per kernel call: the same ids, so the
  // same bits as SolveUserPath one user at a time.
  return RunPass(
      backend, forgetting,
      [&](DpScratch& scratch, size_t u) {
        return SolveMonotonePathItems(item_log_probs, ItemIds(u), num_levels_,
                                      weights.log_initial, weights.log_stay,
                                      weights.log_up, scratch);
      },
      [&](DpScratch& first, DpScratch& second, size_t u, size_t v) {
        return SolveMonotonePathItemsPair(
            item_log_probs, ItemIds(u), ItemIds(v), num_levels_,
            weights.log_initial, weights.log_stay, weights.log_up, first,
            second);
      });
}

AssignmentStats AssignmentEngine::AssignWithClasses(
    const SkillModel& model, const std::vector<double>& item_log_probs,
    std::span<const ProgressionClassWeights> classes, exec::Backend* backend) {
  UPSKILL_CHECK(!classes.empty());
  const ForgettingConfig& forgetting = model.config().forgetting;
  const double log_down = std::log(forgetting.drop_probability);
  const int num_levels = num_levels_;
  return RunPass(
      backend, forgetting,
      [&](DpScratch& scratch, size_t u) {
        // One slice of each column serves every class's solve.
        const std::span<const int32_t> ids = ItemIds(u);
        const std::span<const uint8_t> allow_down =
            forgetting.enabled ? DownFlags(u) : std::span<const uint8_t>();
        double best_score = -std::numeric_limits<double>::infinity();
        int best_class = 0;
        bool any_best = false;
        for (size_t c = 0; c < classes.size(); ++c) {
          const double path_ll =
              SolveUserPath(ids, allow_down, item_log_probs, num_levels,
                            classes[c].weights, log_down, scratch);
          const double score = path_ll + classes[c].log_prior;
          // Strict improvement: ties keep the earlier class, matching the
          // original implementation.
          if (score > best_score) {
            best_score = score;
            best_class = static_cast<int>(c);
            any_best = true;
            std::swap(scratch.levels, scratch.best_levels);
          }
        }
        std::swap(scratch.levels, scratch.best_levels);
        // All-(-inf) scores leave no winner; the original implementation
        // returned the default (empty) path in that pathological case.
        if (!any_best) scratch.levels.clear();
        user_classes_[u] = best_class;
        return ids.empty() ? 0.0 : best_score;
      });
}

SkillAssignments AssignSkills(const Dataset& dataset, const SkillModel& model,
                              exec::Backend* backend,
                              double* total_log_likelihood,
                              const TransitionWeights* transitions,
                              const std::vector<double>* item_log_probs) {
  // The per-(item, level) log-probability cache is shared across all
  // occurrences of an item; the training drivers pass the cache they
  // keep across iterations, standalone callers get a fresh one.
  std::vector<double> computed;
  if (item_log_probs == nullptr) {
    computed = model.ItemLogProbCache(dataset.items(), backend);
    item_log_probs = &computed;
  }
  AssignmentEngine engine(dataset, model.num_levels(),
                          model.config().num_shards);
  const AssignmentStats stats =
      engine.Assign(model, *item_log_probs, transitions, backend);
  if (total_log_likelihood != nullptr) {
    *total_log_likelihood = stats.log_likelihood;
  }
  return std::move(engine).TakeAssignments();
}

TransitionWeights FitTransitionWeights(const SkillAssignments& assignments,
                                       int num_levels, double smoothing) {
  UPSKILL_CHECK(num_levels >= 1);
  TransitionWeights weights;
  std::vector<double> initial_counts(static_cast<size_t>(num_levels), 0.0);
  double ups = 0.0;
  double stays_below_top = 0.0;
  for (const std::vector<int>& seq : assignments) {
    if (seq.empty()) continue;
    initial_counts[static_cast<size_t>(seq.front() - 1)] += 1.0;
    for (size_t n = 1; n < seq.size(); ++n) {
      if (seq[n] > seq[n - 1]) {
        ups += 1.0;
      } else if (seq[n] == seq[n - 1] && seq[n] < num_levels) {
        // Down-steps (possible under the forgetting extension) belong to
        // neither bucket of the up/stay odds.
        stays_below_top += 1.0;
      }
    }
  }
  double initial_total = 0.0;
  for (double c : initial_counts) initial_total += c;
  weights.log_initial.resize(static_cast<size_t>(num_levels));
  const double denom =
      initial_total + smoothing * static_cast<double>(num_levels);
  for (int s = 0; s < num_levels; ++s) {
    const double p =
        denom > 0.0
            ? (initial_counts[static_cast<size_t>(s)] + smoothing) / denom
            : 1.0 / static_cast<double>(num_levels);
    weights.log_initial[static_cast<size_t>(s)] =
        p > 0.0 ? std::log(p) : -std::numeric_limits<double>::infinity();
  }
  // Smoothed level-up probability, clamped away from the {0, 1} endpoints
  // so the DP weights stay finite. No observed transitions (and zero
  // smoothing) falls back to an uninformative 0.5.
  const double transition_mass = ups + stays_below_top + 2.0 * smoothing;
  const double p_up =
      transition_mass > 0.0
          ? std::clamp((ups + smoothing) / transition_mass, 1e-4, 1.0 - 1e-4)
          : 0.5;
  weights.log_up = std::log(p_up);
  weights.log_stay = std::log(1.0 - p_up);
  return weights;
}

Result<TrainResult> Trainer::Train(const Dataset& dataset) const {
  if (dataset.num_actions() == 0) {
    return Status::InvalidArgument("cannot train on an empty dataset");
  }
  // Without one assignment pass the result would carry the
  // initialization's paths, empty for users below min_init_actions.
  if (config_.max_iterations < 1) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  Result<SkillModel> created = SkillModel::Create(dataset.schema(), config_);
  if (!created.ok()) return created.status();

  TrainResult result;
  result.model = std::move(created).value();

  // Backend choice only moves scheduling, never results — the
  // determinism sweep in tests/exec enforces that bitwise.
  Result<std::shared_ptr<exec::Backend>> backend_result =
      CreateTrainingBackend(config_);
  if (!backend_result.ok()) return backend_result.status();
  std::shared_ptr<exec::Backend> backend = std::move(backend_result).value();

  // Optional progression components, refit each iteration.
  const bool use_transitions =
      config_.transitions == TransitionModel::kGlobal;
  const bool use_classes = config_.transitions == TransitionModel::kPerClass;
  if (use_classes && config_.num_progression_classes < 1) {
    return Status::InvalidArgument("num_progression_classes must be >= 1");
  }
  TransitionWeights transition_weights;
  std::vector<ProgressionClassWeights> classes;

  // The assignment engine plans its user shards from the user backend on
  // its first pass, carries the previous iteration's paths and per-shard
  // DP arenas, and keeps the count grid of its paths that every update
  // step refits from: counted from the initialization, then patched from
  // the paths each pass moved.
  AssignmentEngine engine(dataset, config_.num_levels, config_.num_shards);

  // Phase telemetry: every phase below runs under an obs::Span, which
  // yields the wall-clock seconds for TrainResult's per-run readouts,
  // feeds the cumulative phase histograms, and — when the global
  // TraceRecorder is enabled (train --trace-out) — emits one Chrome-trace
  // span per phase per iteration.
  TrainInstruments& instruments = TrainInstruments::Get();

  Stopwatch total_watch;
  // Initialization (Section IV-B): uniform segmentation of long sequences.
  {
    obs::Span span("train/init");
    SkillAssignments init = InitializeAssignments(
        dataset, config_.num_levels, config_.min_init_actions);
    if (use_transitions) {
      transition_weights =
          FitTransitionWeights(init, config_.num_levels, config_.smoothing);
    }
    if (use_classes) {
      // Seed K classes around the initial fit with geometrically spread
      // level-up speeds, so fast and slow learners can separate.
      const TransitionWeights base =
          FitTransitionWeights(init, config_.num_levels, config_.smoothing);
      const int k = config_.num_progression_classes;
      classes.resize(static_cast<size_t>(k));
      for (int c = 0; c < k; ++c) {
        const double spread =
            std::pow(2.0, static_cast<double>(c) - (k - 1) / 2.0);
        const double p_up = std::clamp(
            std::exp(base.log_up) * spread, 1e-4, 1.0 - 1e-4);
        classes[static_cast<size_t>(c)].weights = base;
        classes[static_cast<size_t>(c)].weights.log_up = std::log(p_up);
        classes[static_cast<size_t>(c)].weights.log_stay =
            std::log(1.0 - p_up);
        classes[static_cast<size_t>(c)].log_prior =
            -std::log(static_cast<double>(k));
      }
    }
    engine.TrackCounts(std::move(init));
    FitCellsFromCountGrid(dataset.items(), engine.level_counts(),
                          &result.model, backend.get(), config_.parallel);
    result.init_seconds = span.StopSeconds();
    instruments.init_seconds.Observe(result.init_seconds);
  }

  // The item log-prob cache lives across iterations, so its buffers are
  // allocated once; every iteration recomputes all of it.
  LogProbCache log_prob_cache;
  exec::Backend* user_backend =
      (config_.parallel.users && backend->concurrency() > 1)
          ? backend.get()
          : exec::Backend::Serial();
  // Every assignment pass solves every user's DP.
  const size_t num_users = static_cast<size_t>(dataset.num_users());

  double previous_ll = -std::numeric_limits<double>::infinity();
  for (int iteration = 0; iteration < config_.max_iterations; ++iteration) {
    instruments.iterations.Increment();
    {
      obs::Span span("train/cache", -1, iteration);
      log_prob_cache.Update(result.model, dataset.items(), user_backend);
      const double seconds = span.StopSeconds();
      result.cache_seconds += seconds;
      instruments.cache_seconds.Observe(seconds);
    }

    obs::Span assign_span("train/assignment", -1, iteration);
    const AssignmentStats stats =
        use_classes
            ? engine.AssignWithClasses(result.model, log_prob_cache.values(),
                                       classes, user_backend)
            : engine.Assign(result.model, log_prob_cache.values(),
                            use_transitions ? &transition_weights : nullptr,
                            user_backend);
    {
      const double seconds = assign_span.StopSeconds();
      result.assignment_seconds += seconds;
      instruments.assignment_seconds.Observe(seconds);
    }
    result.reassigned_users += num_users;
    instruments.reassigned_users.Increment(num_users);
    const double ll = stats.log_likelihood;

    const bool unchanged = iteration > 0 && !stats.changed;
    result.log_likelihood_trace.push_back(ll);
    result.iterations = iteration + 1;
    if (config_.verbose) {
      UPSKILL_LOG(Info) << "iteration " << iteration + 1
                        << " log-likelihood " << ll;
    }

    const bool small_gain =
        std::isfinite(previous_ll) &&
        ll - previous_ll <= config_.relative_tolerance * std::abs(previous_ll);
    if (unchanged || small_gain) {
      result.converged = true;
      result.final_log_likelihood = ll;
      break;
    }
    previous_ll = ll;

    obs::Span update_span("train/update", -1, iteration);
    const SkillAssignments& assignments = engine.assignments();
    FitCellsFromCountGrid(dataset.items(), engine.level_counts(),
                          &result.model, backend.get(), config_.parallel);
    if (use_transitions) {
      transition_weights = FitTransitionWeights(
          assignments, config_.num_levels, config_.smoothing);
    }
    if (use_classes) {
      // Refit each class from its current members (classes that lost all
      // members keep their previous weights).
      const std::vector<int>& user_classes = engine.user_classes();
      const int k = config_.num_progression_classes;
      std::vector<size_t> members(static_cast<size_t>(k), 0);
      for (int c = 0; c < k; ++c) {
        SkillAssignments subset(assignments.size());
        size_t count = 0;
        for (size_t u = 0; u < assignments.size(); ++u) {
          if (user_classes[u] == c) {
            subset[u] = assignments[u];
            ++count;
          }
        }
        members[static_cast<size_t>(c)] = count;
        if (count > 0) {
          classes[static_cast<size_t>(c)].weights = FitTransitionWeights(
              subset, config_.num_levels, config_.smoothing);
        }
      }
      const double total = static_cast<double>(dataset.num_users()) +
                           config_.smoothing * static_cast<double>(k);
      for (int c = 0; c < k; ++c) {
        classes[static_cast<size_t>(c)].log_prior = std::log(
            (static_cast<double>(members[static_cast<size_t>(c)]) +
             config_.smoothing + 1e-12) /
            (total + 1e-12));
      }
    }
    {
      const double seconds = update_span.StopSeconds();
      result.update_seconds += seconds;
      instruments.update_seconds.Observe(seconds);
    }
    result.final_log_likelihood = ll;
  }
  if (use_classes) result.user_classes = engine.user_classes();
  result.assignments = std::move(engine).TakeAssignments();

  if (use_transitions) {
    result.level_up_probability = std::exp(transition_weights.log_up);
    result.initial_distribution.resize(
        static_cast<size_t>(config_.num_levels));
    for (int s = 0; s < config_.num_levels; ++s) {
      result.initial_distribution[static_cast<size_t>(s)] =
          std::exp(transition_weights.log_initial[static_cast<size_t>(s)]);
    }
  }
  if (use_classes) result.progression_classes = std::move(classes);

  if (config_.verbose) {
    UPSKILL_LOG(Info) << "training finished in " << total_watch.ElapsedSeconds()
                      << "s (" << result.iterations << " iterations, "
                      << (result.converged ? "converged" : "iteration cap")
                      << ")";
  }
  return result;
}

}  // namespace upskill
