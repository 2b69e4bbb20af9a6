#include "core/information_criteria.h"

#include <cmath>

#include "core/trainer.h"

namespace upskill {

long long CountModelParameters(const FeatureSchema& schema, int num_levels) {
  long long per_level = 0;
  for (int f = 0; f < schema.num_features(); ++f) {
    const FeatureSpec& spec = schema.feature(f);
    switch (spec.distribution) {
      case DistributionKind::kCategorical:
        per_level += spec.cardinality - 1;  // simplex constraint
        break;
      case DistributionKind::kPoisson:
        per_level += 1;
        break;
      case DistributionKind::kGamma:
      case DistributionKind::kLogNormal:
        per_level += 2;
        break;
    }
  }
  return per_level * static_cast<long long>(num_levels);
}

Result<InformationCriteria> ComputeInformationCriteria(
    const Dataset& dataset, const SkillModel& model) {
  if (dataset.num_actions() == 0) {
    return Status::InvalidArgument("empty dataset");
  }
  InformationCriteria criteria;
  criteria.num_actions = dataset.num_actions();
  criteria.num_parameters =
      CountModelParameters(model.schema(), model.num_levels());
  AssignSkills(dataset, model, nullptr, &criteria.log_likelihood);
  const double k = static_cast<double>(criteria.num_parameters);
  const double n = static_cast<double>(criteria.num_actions);
  criteria.bic = -2.0 * criteria.log_likelihood + k * std::log(n);
  criteria.aic = -2.0 * criteria.log_likelihood + 2.0 * k;
  return criteria;
}

}  // namespace upskill
