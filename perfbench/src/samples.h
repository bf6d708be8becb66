// Exact latency quantiles from raw samples.
//
// The library's TtcHistogram has 1 ms linear buckets, so every
// sub-millisecond percentile it reports is an interpolation artifact. The
// benchmark keeps every sample instead (a run records at most a few hundred
// thousand) and reads quantiles off the sorted values.
//
// A request that never got a committed answer (refused, lost, bad) is
// recorded with AddOverLimit(): it sorts above every answered sample and
// reads as kOverLimitMicros, so it misses any latency limit.

#ifndef PERFBENCH_SRC_SAMPLES_H_
#define PERFBENCH_SRC_SAMPLES_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

// What an over-limit sample reads as: 1000 s, beyond any run's length.
constexpr double kOverLimitMicros = 1e9;

class Samples {
 public:
  void Add(int64_t nanos) {
    nanos_.push_back(nanos);
    sorted_ = false;
  }
  void AddOverLimit() { ++over_limit_; }
  void Merge(const Samples& other) {
    nanos_.insert(nanos_.end(), other.nanos_.begin(), other.nanos_.end());
    over_limit_ += other.over_limit_;
    sorted_ = false;
  }

  int64_t count() const { return static_cast<int64_t>(nanos_.size()) + over_limit_; }
  int64_t over_limit() const { return over_limit_; }

  // Nearest-rank quantile in microseconds: the smallest sample with at
  // least q of all samples at or below it. 0 when there are no samples.
  double QuantileMicros(double q) {
    const int64_t rank = Rank(q);
    if (rank == 0) {
      return 0.0;
    }
    if (rank > static_cast<int64_t>(nanos_.size())) {
      return kOverLimitMicros;
    }
    return static_cast<double>(nanos_[rank - 1]) / 1e3;
  }

  // Mean in microseconds of the answered samples up to the q-quantile of
  // all samples: q = 1 averages every answered sample, q = 0.99 leaves out
  // the slowest 1 %. 0 when no sample is answered.
  double TrimmedMeanMicros(double q) {
    const int64_t rank = std::min(Rank(q), static_cast<int64_t>(nanos_.size()));
    if (rank == 0) {
      return 0.0;
    }
    double sum = 0.0;
    for (int64_t i = 0; i < rank; ++i) {
      sum += static_cast<double>(nanos_[i]);
    }
    return sum / static_cast<double>(rank) / 1e3;
  }

 private:
  // Sorts the samples and returns the 1-based nearest rank of q among all
  // of them, over-limit ones included; 0 when there are no samples.
  int64_t Rank(double q) {
    const int64_t n = count();
    if (n == 0) {
      return 0;
    }
    if (!sorted_) {
      std::sort(nanos_.begin(), nanos_.end());
      sorted_ = true;
    }
    const int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
    return std::clamp<int64_t>(rank, 1, n);
  }

  std::vector<int64_t> nanos_;
  int64_t over_limit_ = 0;
  bool sorted_ = true;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SAMPLES_H_
