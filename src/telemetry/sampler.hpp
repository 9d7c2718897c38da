// composim: rate probes for periodic metric sampling.
//
// Probes are callables returning an instantaneous value. Rate-style
// metrics (GPU utilization %, PCIe GB/s) are best expressed as *cumulative*
// probes sampled through a RateProbe, which differentiates between polls —
// exactly how nvidia-smi computes utilization over its sample window. The
// collectors (collectors.hpp) wrap RateProbes into MetricsRegistry
// instruments that the MetricsScraper polls on a fixed interval.
#pragma once

#include <functional>

#include "sim/simulator.hpp"

namespace composim::telemetry {

using Probe = std::function<double()>;

/// Converts a cumulative counter probe into a per-interval rate:
/// sample_i = (counter_i - counter_{i-1}) / (t_i - t_{i-1}) * scale.
/// A zero-length interval (two polls at the same simulated instant, e.g. a
/// final scrape landing on a scheduled tick) cannot be differentiated;
/// the probe holds the previous rate instead of dividing by zero.
class RateProbe {
 public:
  RateProbe(Simulator& sim, Probe cumulative, double scale = 1.0)
      : sim_(sim), cumulative_(std::move(cumulative)), scale_(scale) {}

  double operator()();

  /// Differentiation state (baseline + held rate), exposed so a forked
  /// run's collectors resume rate computation exactly where the warmed
  /// prefix left off instead of re-priming at the fork point.
  struct State {
    double last_value = 0.0;
    double last_rate = 0.0;
    SimTime last_time = 0.0;
    bool primed = false;
  };

  State state() const { return State{last_value_, last_rate_, last_time_, primed_}; }

  void setState(const State& st) {
    last_value_ = st.last_value;
    last_rate_ = st.last_rate;
    last_time_ = st.last_time;
    primed_ = st.primed;
  }

 private:
  Simulator& sim_;
  Probe cumulative_;
  double scale_;
  double last_value_ = 0.0;
  double last_rate_ = 0.0;
  SimTime last_time_ = 0.0;
  bool primed_ = false;
};

}  // namespace composim::telemetry
