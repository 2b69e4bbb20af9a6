#include "bench/e2e/common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace upskill {
namespace e2e {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t middle = values.size() / 2;
  return values.size() % 2 == 1 ? values[middle]
                                 : (values[middle - 1] + values[middle]) / 2;
}

size_t LatencyHistogram::BucketOf(double value) {
  int exponent = 0;
  const double mantissa = std::frexp(value, &exponent);  // [0.5, 1)
  exponent = std::clamp(exponent - kMinExponent, 0, kExponents - 1);
  const int sub = std::clamp(
      static_cast<int>((mantissa - 0.5) * 2.0 * kSubBuckets), 0,
      kSubBuckets - 1);
  return static_cast<size_t>(exponent * kSubBuckets + sub);
}

double LatencyHistogram::LowerBound(size_t bucket) {
  const int exponent = static_cast<int>(bucket) / kSubBuckets + kMinExponent;
  const int sub = static_cast<int>(bucket) % kSubBuckets;
  return std::ldexp(0.5 + 0.5 * sub / kSubBuckets, exponent);
}

void LatencyHistogram::Add(double value) {
  if (!(value > 0.0)) value = std::ldexp(0.5, kMinExponent);
  ++counts_[BucketOf(value)];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_);
  double below = 0.0;
  for (size_t bucket = 0; bucket < counts_.size(); ++bucket) {
    const double in_bucket = static_cast<double>(counts_[bucket]);
    if (in_bucket > 0 && below + in_bucket >= rank) {
      const double lower = LowerBound(bucket);
      const double upper = LowerBound(bucket + 1);
      return lower + (upper - lower) * (rank - below) / in_bucket;
    }
    below += in_bucket;
  }
  return LowerBound(counts_.size());
}

void LayerSamples::Add(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  samples_[name].push_back(value);
}

std::vector<double> LayerSamples::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = samples_.find(name);
  return it == samples_.end() ? std::vector<double>() : it->second;
}

LayerSamples& Layers() {
  static LayerSamples* samples = new LayerSamples();
  return *samples;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, size_t samples) {
  if (!std::isfinite(value)) {
    Check(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_[name] = Entry{value, unit, samples};
}

bool Report::Check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "bench_e2e: check failed: %s\n", what.c_str());
    failures_.push_back(what);
  }
  return ok;
}

void Report::Count(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string Report::ResultLine() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " +
         std::to_string(std::max<uint64_t>(1, attempted_));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(entry.value) +
           ", \"unit\": " + JsonString(entry.unit) + "}";
  }
  return out + "}}";
}

std::string Report::ResultFile(const std::string& context) const {
  std::string out = "{" + context;
  out += ", \"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"failed_checks\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonString(failures_[i]);
  }
  out += "], \"notes\": {";
  bool first = true;
  for (const auto& [name, value] : notes_) {
    out += (first ? "" : ", ") + JsonString(name) + ": " + JsonNumber(value);
    first = false;
  }
  out += "}, \"metrics\": {";
  first = true;
  for (const auto& [name, entry] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += "\n  " + JsonString(name) + ": {\"value\": " +
           JsonNumber(entry.value) + ", \"unit\": " + JsonString(entry.unit) +
           ", \"n\": " + std::to_string(entry.samples) + "}";
  }
  return out + "}}\n";
}

}  // namespace e2e
}  // namespace upskill
