#include "telemetry/sampler.hpp"

namespace composim::telemetry {

double RateProbe::operator()() {
  const double value = cumulative_();
  const SimTime now = sim_.now();
  if (primed_ && now <= last_time_) {
    // Back-to-back polls at the same instant: no interval to differentiate
    // over, so hold the last computed rate (and leave the baseline alone —
    // the in-between counter delta still counts toward the next interval).
    return last_rate_;
  }
  if (primed_) {
    last_rate_ = (value - last_value_) / (now - last_time_) * scale_;
  }
  last_value_ = value;
  last_time_ = now;
  primed_ = true;
  return last_rate_;
}

}  // namespace composim::telemetry
