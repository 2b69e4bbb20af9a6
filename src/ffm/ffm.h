#ifndef UPSKILL_FFM_FFM_H_
#define UPSKILL_FFM_FFM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace upskill {
namespace ffm {

/// One active feature of an instance: a (field, feature index, value)
/// triple. Rating instances in this library are one-hot, so value is
/// usually 1.
struct Feature {
  int field = 0;
  int index = 0;
  double value = 1.0;
};

/// A sparse instance (the active features only).
using Instance = std::vector<Feature>;

/// A labeled training example.
struct Example {
  Instance features;
  double target = 0.0;
};

/// Field-aware Factorization Machine hyper-parameters (after Juan et al.,
/// the model the paper uses for rating prediction in Section VI-E).
struct FfmConfig {
  int num_latent = 4;
  double learning_rate = 0.1;
  double regularization = 2e-5;
  int epochs = 15;
  /// Latent weights start at Uniform(0, init_scale) / sqrt(k).
  double init_scale = 0.5;
  uint64_t seed = 42;
  bool verbose = false;
};

/// FFM for regression with squared loss and per-coordinate AdaGrad, as in
/// the reference LIBFFM implementation:
///
///   y_hat = w0 + sum_j w_j x_j
///         + sum_{j1 < j2} <v_{j1, f(j2)}, v_{j2, f(j1)}> x_{j1} x_{j2}
///
/// With only user and item fields, the interaction term reduces to a
/// biased matrix factorization, the paper's U+I baseline.
class FfmModel {
 public:
  /// Creates a model for `num_fields` fields over `num_features` feature
  /// indices with randomly initialized latent vectors.
  static Result<FfmModel> Create(int num_fields, int num_features,
                                 const FfmConfig& config);

  /// Prediction for one instance (no clipping).
  double Predict(const Instance& instance) const;

  /// One stochastic pass over `examples` in the given order. Returns the
  /// mean squared loss observed during the pass.
  double TrainEpoch(std::span<const Example> examples);

  /// Runs `config.epochs` passes, shuffling example order each epoch.
  void Train(std::vector<Example> examples, Rng& rng);

  /// Runs up to `config.epochs` passes with early stopping: after each
  /// epoch the model is scored on `validation`, and training stops when
  /// the validation RMSE has not improved for `patience` consecutive
  /// epochs. The best-scoring weights are restored. Returns the best
  /// validation RMSE.
  double TrainWithValidation(std::vector<Example> train,
                             std::span<const Example> validation, Rng& rng,
                             int patience = 3);

  /// RMSE of predictions against targets.
  double Evaluate(std::span<const Example> examples) const;

  int num_fields() const { return num_fields_; }
  int num_features() const { return num_features_; }
  int num_latent() const { return config_.num_latent; }

 private:
  FfmModel(int num_fields, int num_features, const FfmConfig& config);

  size_t LatentBase(int feature, int field) const {
    return (static_cast<size_t>(feature) * static_cast<size_t>(num_fields_) +
            static_cast<size_t>(field)) *
           static_cast<size_t>(config_.num_latent);
  }

  int num_fields_ = 0;
  int num_features_ = 0;
  FfmConfig config_;

  double bias_ = 0.0;
  double bias_grad_sum_ = 1.0;
  std::vector<double> linear_;
  std::vector<double> linear_grad_sum_;
  /// latent_[feature][field][k], flattened.
  std::vector<double> latent_;
  std::vector<double> latent_grad_sum_;
};

}  // namespace ffm
}  // namespace upskill

#endif  // UPSKILL_FFM_FFM_H_
