// Order statistics for the end-to-end benchmark: median, quartiles with
// their sample count, how many samples lie beyond a percentile and the
// highest tail percentile a sample supports (at least ten beyond it), and
// the chunked percentile accumulator the latency samples go through.
// Header-only so the unit test builds without the GAugur libraries.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Samples a tail percentile must leave strictly above it before it is
/// reported; below this a percentile is noise, not a measurement.
inline constexpr std::size_t kMinTailSamples = 10;

/// Linearly interpolated quantile of an ascending-sorted sample
/// (q in [0, 1]; position q * (n - 1), the usual "type 7" rule).
/// Returns NaN for an empty sample.
inline double SortedQuantile(std::span<const double> sorted, double q) {
  if (sorted.empty()) return std::nan("");
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

inline std::vector<double> Sorted(std::span<const double> samples) {
  std::vector<double> out(samples.begin(), samples.end());
  std::sort(out.begin(), out.end());
  return out;
}

inline double Median(std::span<const double> samples) {
  const auto sorted = Sorted(samples);
  return SortedQuantile(sorted, 0.5);
}

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  std::size_t count = 0;
};

inline Quartiles SortedQuartiles(std::span<const double> sorted) {
  return {SortedQuantile(sorted, 0.25), SortedQuantile(sorted, 0.5),
          SortedQuantile(sorted, 0.75), sorted.size()};
}

/// Number of order statistics strictly above the interpolation position
/// of percentile `basis_points` / 100 in a sample of `n`. Integer math so
/// the boundary cases (n = 1000 at p99 leaves exactly ten) are exact.
inline std::size_t SamplesBeyond(std::size_t n, std::uint32_t basis_points) {
  if (n == 0) return 0;
  const std::uint64_t floor_pos =
      static_cast<std::uint64_t>(n - 1) * basis_points / 10000;
  return n - 1 - static_cast<std::size_t>(floor_pos);
}

/// Percentile ladder searched for the reported tail, highest first.
inline constexpr std::array<std::uint32_t, 7> kTailLadderBp = {
    9999, 9990, 9900, 9500, 9000, 7500, 5000};

struct TailPoint {
  double percentile = 0.0;  // e.g. 99.0
  double value = 0.0;
  std::size_t beyond = 0;  // samples strictly above the position
};

/// The highest ladder percentile with at least kMinTailSamples samples
/// beyond it; nullopt when even the median leaves fewer (n < 20).
inline std::optional<TailPoint> SortedTail(std::span<const double> sorted) {
  for (const std::uint32_t bp : kTailLadderBp) {
    const std::size_t beyond = SamplesBeyond(sorted.size(), bp);
    if (beyond >= kMinTailSamples) {
      return TailPoint{bp / 100.0, SortedQuantile(sorted, bp / 10000.0),
                       beyond};
    }
  }
  return std::nullopt;
}

/// Whether percentile `basis_points` / 100 has kMinTailSamples samples
/// beyond it in a sample of `n`.
inline bool Supports(std::size_t n, std::uint32_t basis_points) {
  return SamplesBeyond(n, basis_points) >= kMinTailSamples;
}

/// One percentile over consecutive chunks of a stream. Every `chunk`
/// values form a chunk whose percentile `basis_points` / 100 is kept, so
/// a report can take the lowest chunk or the median over chunks instead
/// of pooling the run. A chunk must leave kMinTailSamples beyond that
/// percentile (1000 leaves exactly ten beyond p99). A trailing partial
/// chunk is dropped unless it is the only one. The chunk buffer is
/// allocated once, so the benchmark's own memory does not grow with the
/// program's throughput and leak into the peak-RSS metric.
class ChunkedQuantile {
 public:
  ChunkedQuantile(std::size_t chunk, std::uint32_t basis_points)
      : chunk_(chunk), basis_points_(basis_points) {
    if (!Supports(chunk, basis_points)) {
      throw std::invalid_argument(
          "chunk leaves under ten samples beyond its percentile");
    }
    buffer_.reserve(chunk);
  }

  void Add(double value) {
    ++seen_;
    buffer_.push_back(value);
    if (buffer_.size() == chunk_) Flush();
  }

  /// Closes a partial chunk when no full chunk was seen, and returns the
  /// highest tail that chunk supports (nullopt when a full chunk exists,
  /// or when the partial one is too small for any tail).
  std::optional<TailPoint> Close() {
    std::optional<TailPoint> tail;
    if (values_.empty() && !buffer_.empty()) {
      std::sort(buffer_.begin(), buffer_.end());
      tail = SortedTail(buffer_);
      Flush();
    }
    buffer_.clear();
    return tail;
  }

  std::uint64_t Seen() const { return seen_; }
  std::size_t Chunks() const { return values_.size(); }
  std::size_t ChunkSize() const { return chunk_; }
  /// Each chunk's percentile, in stream order.
  std::span<const double> Values() const { return values_; }

 private:
  void Flush() {
    std::sort(buffer_.begin(), buffer_.end());
    values_.push_back(SortedQuantile(buffer_, basis_points_ / 10000.0));
    buffer_.clear();
  }

  std::size_t chunk_;
  std::uint32_t basis_points_;
  std::vector<double> buffer_;
  std::vector<double> values_;
  std::uint64_t seen_ = 0;
};

}  // namespace perfbench
