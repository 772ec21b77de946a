#include "core/metrics.h"

#include <algorithm>

namespace mmflow::core {

ReconfigMetrics reconfig_metrics(const MultiModeExperiment& experiment,
                                 bitstream::MuxEncoding encoding,
                                 bool exploit_dontcares) {
  MMFLOW_REQUIRE(experiment.mdr_routing.size() >= 2);
  const arch::RoutingGraph rrg(experiment.region);
  const bitstream::ConfigModel model(rrg, encoding);

  ReconfigMetrics out;
  out.lut_bits = model.total_lut_bits();
  out.region_routing_bits = model.total_routing_bits();
  out.mdr_bits = model.full_region_bits();

  // Per-mode MDR routing configurations.
  std::vector<bitstream::RoutingState> mdr_states;
  for (std::size_t m = 0; m < experiment.mdr_routing.size(); ++m) {
    auto states = experiment.mdr_routing[m].per_mode_states(
        rrg, experiment.mdr[m].route_spec.instantiate(rrg));
    MMFLOW_CHECK(states.size() == 1);
    mdr_states.push_back(std::move(states.front()));
  }
  out.diff_routing_bits = model.parameterized_routing_bits(mdr_states);
  out.diff_bits = out.lut_bits + out.diff_routing_bits;

  // DCS parameterized configuration.
  const auto dcs_states = experiment.dcs_routing.per_mode_states(
      rrg, experiment.dcs_route_spec.instantiate(rrg));
  out.dcs_param_routing_bits =
      exploit_dontcares
          ? model.parameterized_routing_bits_dontcare(dcs_states)
          : model.parameterized_routing_bits(dcs_states);
  out.dcs_bits = out.lut_bits + out.dcs_param_routing_bits;
  return out;
}

double WirelengthMetrics::mean_ratio() const {
  MMFLOW_REQUIRE(!mdr.empty() && mdr.size() == dcs.size());
  double sum = 0.0;
  for (std::size_t m = 0; m < mdr.size(); ++m) {
    sum += static_cast<double>(dcs[m]) / static_cast<double>(mdr[m]);
  }
  return sum / static_cast<double>(mdr.size());
}

double WirelengthMetrics::max_ratio() const {
  MMFLOW_REQUIRE(!mdr.empty() && mdr.size() == dcs.size());
  double worst = 0.0;
  for (std::size_t m = 0; m < mdr.size(); ++m) {
    worst = std::max(worst,
                     static_cast<double>(dcs[m]) / static_cast<double>(mdr[m]));
  }
  return worst;
}

WirelengthMetrics wirelength_metrics(const MultiModeExperiment& experiment) {
  const arch::RoutingGraph rrg(experiment.region);
  const route::RouteProblem dcs_problem =
      experiment.dcs_route_spec.instantiate(rrg);
  WirelengthMetrics out;
  for (std::size_t m = 0; m < experiment.mdr_routing.size(); ++m) {
    out.mdr.push_back(experiment.mdr_routing[m].wirelength_of_mode(
        rrg, experiment.mdr[m].route_spec.instantiate(rrg), 0));
    out.dcs.push_back(experiment.dcs_routing.wirelength_of_mode(
        rrg, dcs_problem, static_cast<int>(m)));
  }
  return out;
}

AreaMetrics area_metrics(const std::vector<techmap::LutCircuit>& modes) {
  AreaMetrics out;
  for (const auto& mode : modes) {
    out.region_clbs = std::max<int>(out.region_clbs,
                                    static_cast<int>(mode.num_blocks()));
    out.static_sum_clbs += static_cast<int>(mode.num_blocks());
  }
  return out;
}

}  // namespace mmflow::core
