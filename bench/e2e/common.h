// Shared pieces of the end-to-end benchmark: order statistics, the
// per-layer sample store fed by LayerTimer, and the run report that
// prints the result line.

#ifndef UPSKILL_BENCH_E2E_COMMON_H_
#define UPSKILL_BENCH_E2E_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace upskill {
namespace e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Sample median (mean of the two middle values for an even count); 0 for
/// an empty sample.
double Median(std::vector<double> values);

/// Fixed-memory histogram of positive values: 64 buckets per power of
/// two (~1.1% wide), so millions of request latencies cost no memory that
/// would show in peak_rss_mb. Quantiles interpolate inside a bucket.
class LatencyHistogram {
 public:
  void Add(double value);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  /// 0 when empty.
  double Quantile(double q) const;

 private:
  static constexpr int kSubBuckets = 64;
  static constexpr int kMinExponent = -16;
  static constexpr int kExponents = 64;
  static size_t BucketOf(double value);
  static double LowerBound(size_t bucket);

  std::vector<uint64_t> counts_ =
      std::vector<uint64_t>(kSubBuckets * kExponents, 0);
  uint64_t count_ = 0;
};

/// Wall seconds of every timed call into a library layer, keyed by span
/// name. The per-layer metrics are read from here at the end of a run.
class LayerSamples {
 public:
  void Add(const std::string& name, double value);
  std::vector<double> Get(const std::string& name) const;
  double MedianOf(const std::string& name) const { return Median(Get(name)); }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<double>> samples_;
};

LayerSamples& Layers();

/// Times one call into a library layer (the ScopedTimer idiom): an
/// obs::Span, recorded into the process span store when tracing is on,
/// whose elapsed seconds also land in Layers() under the span's name.
/// `name` must be a string literal (the span store keeps the pointer).
class LayerTimer {
 public:
  explicit LayerTimer(const char* name) : name_(name), span_(name) {}
  ~LayerTimer() { Layers().Add(name_, span_.StopSeconds()); }
  LayerTimer(const LayerTimer&) = delete;
  LayerTimer& operator=(const LayerTimer&) = delete;

 private:
  const char* name_;
  obs::Span span_;
};

/// Outcome of one run: metrics, failed checks and the attempted/failed
/// operation counts. Every failed check also goes to stderr.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              size_t samples);
  /// Records `what` as a failure unless `ok`; returns `ok`.
  bool Check(bool ok, const std::string& what);
  void Count(uint64_t attempted, uint64_t failed);
  /// A value kept in the result file only (not a benchmark metric).
  void Note(const std::string& name, double value) { notes_[name] = value; }

  bool correct() const { return failures_.empty() && failed_ == 0; }
  /// The single-line result: correct, attempted, failed, and every metric
  /// as {"value", "unit"}.
  std::string ResultLine() const;
  /// The same plus sample counts, failed checks, notes and `context` (a
  /// JSON object body), for result files.
  std::string ResultFile(const std::string& context) const;

 private:
  struct Entry {
    double value;
    std::string unit;
    size_t samples;
  };
  std::map<std::string, Entry> metrics_;
  std::map<std::string, double> notes_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// JSON string literal for `text` (quotes included).
std::string JsonString(const std::string& text);
/// Shortest round-tripping JSON number; non-finite values become 0.
std::string JsonNumber(double value);

}  // namespace e2e
}  // namespace upskill

#endif  // UPSKILL_BENCH_E2E_COMMON_H_
