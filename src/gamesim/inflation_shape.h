// Parametric families of stage-time inflation responses.
//
// When a workload suffers pressure x in [0, 1] on a shared resource, the
// affected frame-loop stage slows down by a factor s(x) = 1 + A * h(x),
// where A is the amplitude (how contention-sensitive the workload is at
// full pressure) and h is a normalized shape with h(0) = 0, h(1) = 1.
//
// The shape families below reproduce the qualitative variety of the
// paper's measured sensitivity curves (Fig. 4, Observation 4): linear
// responses, convex "cliff" responses that only hurt near saturation
// (cache capacity working-set effects), concave responses that hurt
// immediately (bandwidth-bound stages), and logistic responses with an
// interior knee.
#pragma once

#include <cstdint>

namespace gaugur::gamesim {

// Eight bytes wide so InflationShape has no padding: every byte of the
// object is determined by its value, and byte-wise printers (gtest's
// parameter names among them) render it the same on every run.
enum class ShapeKind : std::uint64_t {
  kLinear = 0,   // h(x) = x
  kPower,        // h(x) = x^p          (p>1 convex cliff, p<1 concave)
  kLogistic,     // normalized sigmoid with knee at `knee`, steepness `steep`
  kPlateau,      // flat until `knee`, then linear ramp to 1
};

/// A normalized response shape h: [0,1] -> [0,1] with h(0)=0, h(1)=1.
struct InflationShape {
  ShapeKind kind = ShapeKind::kLinear;
  /// kPower: exponent p. kLogistic: steepness. kPlateau: unused.
  double p1 = 1.0;
  /// kLogistic / kPlateau: knee location in (0,1). Others: unused.
  double p2 = 0.5;

  /// Evaluate h(x); x outside [0,1] is clamped.
  double Eval(double x) const;

  static InflationShape Linear() { return {ShapeKind::kLinear, 1.0, 0.5}; }
  static InflationShape Power(double p) { return {ShapeKind::kPower, p, 0.5}; }
  static InflationShape Logistic(double steepness, double knee) {
    return {ShapeKind::kLogistic, steepness, knee};
  }
  static InflationShape Plateau(double knee) {
    return {ShapeKind::kPlateau, 0.0, knee};
  }
};

static_assert(sizeof(InflationShape) == sizeof(ShapeKind) + 2 * sizeof(double),
              "InflationShape must have no padding bytes");

/// Amplitude + shape: the full response of one stage to one resource.
/// Slowdown factor is 1 + amplitude * shape(pressure).
struct InflationResponse {
  double amplitude = 0.0;
  InflationShape shape = InflationShape::Linear();

  double SlowdownFactor(double pressure) const {
    return 1.0 + amplitude * shape.Eval(pressure);
  }
};

}  // namespace gaugur::gamesim
