#include "ffm/ffm.h"

#include <cmath>

#include "common/logging.h"
#include "eval/metrics.h"

namespace upskill {
namespace ffm {

FfmModel::FfmModel(int num_fields, int num_features, const FfmConfig& config)
    : num_fields_(num_fields), num_features_(num_features), config_(config) {}

Result<FfmModel> FfmModel::Create(int num_fields, int num_features,
                                  const FfmConfig& config) {
  if (num_fields < 1) return Status::InvalidArgument("num_fields must be >= 1");
  if (num_features < 1) {
    return Status::InvalidArgument("num_features must be >= 1");
  }
  if (config.num_latent < 1) {
    return Status::InvalidArgument("num_latent must be >= 1");
  }
  if (config.learning_rate <= 0.0) {
    return Status::InvalidArgument("learning_rate must be positive");
  }
  FfmModel model(num_fields, num_features, config);
  const size_t latent_size = static_cast<size_t>(num_features) *
                             static_cast<size_t>(num_fields) *
                             static_cast<size_t>(config.num_latent);
  model.linear_.assign(static_cast<size_t>(num_features), 0.0);
  model.linear_grad_sum_.assign(static_cast<size_t>(num_features), 1.0);
  model.latent_.resize(latent_size);
  model.latent_grad_sum_.assign(latent_size, 1.0);
  Rng rng(config.seed);
  const double scale =
      config.init_scale / std::sqrt(static_cast<double>(config.num_latent));
  for (double& w : model.latent_) w = rng.NextDouble() * scale;
  return model;
}

double FfmModel::Predict(const Instance& instance) const {
  double result = bias_;
  for (const Feature& f : instance) {
    UPSKILL_CHECK(f.index >= 0 && f.index < num_features_);
    UPSKILL_CHECK(f.field >= 0 && f.field < num_fields_);
    result += linear_[static_cast<size_t>(f.index)] * f.value;
  }
  const int k = config_.num_latent;
  for (size_t a = 0; a < instance.size(); ++a) {
    for (size_t b = a + 1; b < instance.size(); ++b) {
      const Feature& fa = instance[a];
      const Feature& fb = instance[b];
      const size_t va = LatentBase(fa.index, fb.field);
      const size_t vb = LatentBase(fb.index, fa.field);
      double dot = 0.0;
      for (int d = 0; d < k; ++d) {
        dot += latent_[va + static_cast<size_t>(d)] *
               latent_[vb + static_cast<size_t>(d)];
      }
      result += dot * fa.value * fb.value;
    }
  }
  return result;
}

double FfmModel::TrainEpoch(std::span<const Example> examples) {
  const int k = config_.num_latent;
  const double eta = config_.learning_rate;
  const double reg = config_.regularization;
  double loss_sum = 0.0;

  for (const Example& example : examples) {
    const Instance& instance = example.features;
    const double prediction = Predict(instance);
    const double error = prediction - example.target;  // d(loss)/d(pred) / 2
    loss_sum += error * error;

    // Bias.
    {
      const double g = error;
      bias_grad_sum_ += g * g;
      bias_ -= eta / std::sqrt(bias_grad_sum_) * g;
    }
    // Linear terms.
    for (const Feature& f : instance) {
      const double g = error * f.value + reg * linear_[static_cast<size_t>(f.index)];
      double& gsum = linear_grad_sum_[static_cast<size_t>(f.index)];
      gsum += g * g;
      linear_[static_cast<size_t>(f.index)] -= eta / std::sqrt(gsum) * g;
    }
    // Pairwise interactions.
    for (size_t a = 0; a < instance.size(); ++a) {
      for (size_t b = a + 1; b < instance.size(); ++b) {
        const Feature& fa = instance[a];
        const Feature& fb = instance[b];
        const size_t va = LatentBase(fa.index, fb.field);
        const size_t vb = LatentBase(fb.index, fa.field);
        const double coeff = error * fa.value * fb.value;
        for (int d = 0; d < k; ++d) {
          const size_t ia = va + static_cast<size_t>(d);
          const size_t ib = vb + static_cast<size_t>(d);
          const double ga = coeff * latent_[ib] + reg * latent_[ia];
          const double gb = coeff * latent_[ia] + reg * latent_[ib];
          latent_grad_sum_[ia] += ga * ga;
          latent_grad_sum_[ib] += gb * gb;
          latent_[ia] -= eta / std::sqrt(latent_grad_sum_[ia]) * ga;
          latent_[ib] -= eta / std::sqrt(latent_grad_sum_[ib]) * gb;
        }
      }
    }
  }
  return examples.empty()
             ? 0.0
             : loss_sum / static_cast<double>(examples.size());
}

void FfmModel::Train(std::vector<Example> examples, Rng& rng) {
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(examples);
    const double loss = TrainEpoch(examples);
    if (config_.verbose) {
      UPSKILL_LOG(Info) << "ffm epoch " << epoch + 1 << " mse " << loss;
    }
  }
}

double FfmModel::TrainWithValidation(std::vector<Example> train,
                                     std::span<const Example> validation,
                                     Rng& rng, int patience) {
  UPSKILL_CHECK(patience >= 1);
  double best_rmse = Evaluate(validation);
  // Best-so-far weights (the pre-training state counts: training that
  // never helps must be a no-op).
  double best_bias = bias_;
  std::vector<double> best_linear = linear_;
  std::vector<double> best_latent = latent_;
  int epochs_without_improvement = 0;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(train);
    TrainEpoch(train);
    const double rmse = Evaluate(validation);
    if (config_.verbose) {
      UPSKILL_LOG(Info) << "ffm epoch " << epoch + 1 << " validation RMSE "
                        << rmse;
    }
    if (rmse < best_rmse - 1e-9) {
      best_rmse = rmse;
      best_bias = bias_;
      best_linear = linear_;
      best_latent = latent_;
      epochs_without_improvement = 0;
    } else if (++epochs_without_improvement >= patience) {
      break;
    }
  }
  bias_ = best_bias;
  linear_ = std::move(best_linear);
  latent_ = std::move(best_latent);
  return best_rmse;
}

double FfmModel::Evaluate(std::span<const Example> examples) const {
  std::vector<double> predicted;
  std::vector<double> actual;
  predicted.reserve(examples.size());
  actual.reserve(examples.size());
  for (const Example& example : examples) {
    predicted.push_back(Predict(example.features));
    actual.push_back(example.target);
  }
  return eval::Rmse(predicted, actual);
}

}  // namespace ffm
}  // namespace upskill
