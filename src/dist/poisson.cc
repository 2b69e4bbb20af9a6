#include "dist/poisson.h"

#include <array>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/math.h"
#include "common/string_util.h"
#include "simd/kernels.h"

namespace upskill {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
// Smallest rate retained after fitting, so that observing a positive count
// under an (almost) all-zero level stays finitely unlikely instead of
// impossible.
constexpr double kMinRate = 1e-8;
// Per-call count table for the batched lookup kernel: covers every count
// the datasets realistically produce; the rare k >= kCountTable lanes are
// recomputed in a scalar fixup pass. Below kMinBatchForTable elements the
// table would cost more than it saves, so the plain loop runs instead.
// Both paths give the same bits, so the choice depends on the batch size
// alone, never on the SIMD backend.
constexpr size_t kCountTable = 128;
constexpr size_t kMinBatchForTable = 64;
}  // namespace

Poisson::Poisson(double rate) : rate_(rate) { UPSKILL_CHECK(rate_ > 0.0); }

double Poisson::LogProb(double x) const {
  const long long k = static_cast<long long>(x);
  if (k < 0 || static_cast<double>(k) != x) return kNegInf;
  return static_cast<double>(k) * std::log(rate_) - rate_ - LogFactorial(k);
}

void Poisson::LogProbBatch(std::span<const double> xs,
                           std::span<double> out) const {
  UPSKILL_CHECK(xs.size() == out.size());
  const double log_rate = std::log(rate_);
  const double rate = rate_;
  if (xs.size() < kMinBatchForTable) {
    for (size_t i = 0; i < xs.size(); ++i) {
      const double x = xs[i];
      const long long k = static_cast<long long>(x);
      out[i] = (k < 0 || static_cast<double>(k) != x)
                   ? kNegInf
                   : static_cast<double>(k) * log_rate - rate -
                         LogFactorial(k);
    }
    return;
  }
  // Precompute the per-count values with the exact scalar expression, so
  // the gathered results are bitwise identical to the loop above, then
  // let the kernel turn the per-element mass evaluation into a table
  // lookup. Counts beyond the table (flagged by the kernel) are rare
  // enough to recompute in a scalar fixup pass.
  std::array<double, kCountTable> table;
  for (size_t k = 0; k < kCountTable; ++k) {
    table[k] = static_cast<double>(k) * log_rate - rate -
               LogFactorial(static_cast<long long>(k));
  }
  bool overflow = false;
  simd::LookupLogProbBatch(xs, table, out, &overflow);
  if (overflow) {
    for (size_t i = 0; i < xs.size(); ++i) {
      const double x = xs[i];
      if (!(x >= static_cast<double>(kCountTable))) continue;
      const long long k = static_cast<long long>(x);
      if (k < 0 || static_cast<double>(k) != x) continue;
      out[i] = static_cast<double>(k) * log_rate - rate - LogFactorial(k);
    }
  }
}

void Poisson::Fit(std::span<const double> values) {
  if (values.empty()) return;
  double sum = 0.0;
  for (double v : values) {
    UPSKILL_CHECK(v >= 0.0);
    sum += v;
  }
  rate_ = std::max(kMinRate, sum / static_cast<double>(values.size()));
}

void Poisson::FitWeighted(std::span<const double> values,
                          std::span<const double> weights) {
  UPSKILL_CHECK(values.size() == weights.size());
  double weighted_sum = 0.0;
  double total = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    UPSKILL_CHECK(weights[i] >= 0.0);
    UPSKILL_CHECK(values[i] >= 0.0);
    weighted_sum += weights[i] * values[i];
    total += weights[i];
  }
  if (total <= 0.0) return;
  rate_ = std::max(kMinRate, weighted_sum / total);
}

void Poisson::FitFromStats(const SufficientStats& stats) {
  UPSKILL_CHECK(stats.kind() == DistributionKind::kPoisson);
  if (stats.empty()) return;  // keep current parameters
  rate_ = std::max(kMinRate, stats.sum() / stats.count());
}

double Poisson::Sample(Rng& rng) const {
  return static_cast<double>(rng.NextPoisson(rate_));
}

std::unique_ptr<Distribution> Poisson::Clone() const {
  return std::make_unique<Poisson>(*this);
}

std::vector<double> Poisson::Parameters() const { return {rate_}; }

Status Poisson::SetParameters(std::span<const double> params) {
  if (params.size() != 1) {
    return Status::InvalidArgument("poisson expects 1 parameter");
  }
  if (params[0] <= 0.0) {
    return Status::InvalidArgument("poisson rate must be positive");
  }
  rate_ = params[0];
  return Status::OK();
}

std::string Poisson::DebugString() const {
  return StringPrintf("Poisson(lambda=%.4f)", rate_);
}

}  // namespace upskill
