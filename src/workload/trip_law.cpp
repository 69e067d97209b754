#include "workload/trip_law.hpp"

#include <array>
#include <cmath>

#include "base/expect.hpp"

namespace repro::workload {

void TripLaw::validate() const {
  for (const double weight : {weight_multiple_of_width, weight_two_leftover,
                              weight_uniform, weight_narrow}) {
    REPRO_EXPECT(weight >= 0.0 && std::isfinite(weight),
                 "trip law weights must be finite and non-negative");
  }
  REPRO_EXPECT(weight_multiple_of_width + weight_two_leftover +
                       weight_uniform + weight_narrow >
                   0.0,
               "trip law weights must not all be zero");
  REPRO_EXPECT(min_batches > 0 && min_batches <= max_batches,
               "batch range must be non-empty");
  REPRO_EXPECT(width >= 1, "cluster width must be at least 1");
}

std::uint64_t TripLaw::sample(Rng& rng) const {
  validate();
  const std::array<double, 4> weights = {weight_multiple_of_width,
                                         weight_two_leftover, weight_uniform,
                                         weight_narrow};
  const std::size_t mode = rng.discrete(weights);
  const std::uint64_t batches = static_cast<std::uint64_t>(
      rng.uniform_in(static_cast<std::int64_t>(min_batches),
                     static_cast<std::int64_t>(max_batches)));
  switch (mode) {
    case 0:
      return batches * width;
    case 1:
      return batches * width + 2;
    case 2:
      // Uniform over the same span, never below one batch.
      return width * min_batches +
             rng.uniform(width * (max_batches - min_batches) + width - 1);
    default:
      // Narrow: fewer iterations than processors (2..width-1); width 1
      // degenerates to a single iteration.
      return width <= 2 ? 1 : 2 + rng.uniform(width - 2);
  }
}

}  // namespace repro::workload
