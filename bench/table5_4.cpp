// Table 5.4 — "Types of users simulated in experiments": think times of the
// three user types, plus each type's *effective* behaviour measured from a
// short run (ops per simulated second) to show what the knob does.

#include "core/presets.h"
#include "exp/workload.h"
#include "experiments.h"

namespace wlgen::bench {

exp::Experiment make_table5_4() {
  using exp::Verdict;
  exp::Experiment experiment;
  experiment.id = "table5_4";
  experiment.artifact = "Table 5.4";
  experiment.title = "types of users simulated in experiments";
  experiment.paper_claim = "extremely heavy I/O: 0 us; heavy: 5000 us; light: 20000 us think time";
  experiment.expectations = {
      exp::expect_monotonic_down("ops per simulated second", 0.0, Verdict::fail,
                                 "longer think time must strictly reduce offered load"),
      exp::expect_scalar_in_range("extremely_heavy_over_heavy", 1.5, 20.0, Verdict::fail,
                                  "zero think time keeps a request permanently outstanding"),
      exp::expect_scalar_in_range("heavy_over_light", 1.5, 20.0, Verdict::fail,
                                  "exp(5000) vs exp(20000) us thinking separates the rates"),
      exp::expect_scalar_in_range("preset_think_heavy_us", 4999.0, 5001.0, Verdict::fail,
                                  "paper: heavy I/O users think exp(5000) us"),
  };

  experiment.run = [](const exp::RunContext& ctx) {
    struct Row {
      const char* name;
      core::UserType type;
    };
    const std::vector<Row> rows = {
        {"extremely heavy I/O", core::extremely_heavy_user()},
        {"heavy I/O", core::heavy_user()},
        {"light I/O", core::light_user()},
    };

    exp::ExperimentResult result;
    result.x_label = "user type (0 = extremely heavy, 1 = heavy, 2 = light)";
    result.y_label = "ops per simulated second";
    std::vector<double> index, rates, responses;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      core::Population population;
      population.groups.push_back({rows[i].type, 1.0});
      population.validate_and_normalize();
      exp::WorkloadConfig config;
      config.num_users = 1;
      config.usim.sessions_per_user = ctx.sessions(30);
      config.population = population;
      config.seed = ctx.seed;
      const exp::WorkloadOutput out = exp::run_workload(config);
      const double ops_per_s =
          out.simulated_us > 0.0
              ? static_cast<double>(out.total_ops) / (out.simulated_us / 1e6)
              : 0.0;
      index.push_back(static_cast<double>(i));
      rates.push_back(ops_per_s);
      responses.push_back(out.analysis.response_stats().mean());
    }
    result.add_series("ops per simulated second", index, rates);
    result.add_series("mean response us", index, responses);
    result.set_scalar("extremely_heavy_over_heavy", rates[1] > 0.0 ? rates[0] / rates[1] : 0.0);
    result.set_scalar("heavy_over_light", rates[2] > 0.0 ? rates[1] / rates[2] : 0.0);
    result.set_scalar("preset_think_heavy_us", core::heavy_user().think_time_us->mean());
    result.set_scalar("preset_think_light_us", core::light_user().think_time_us->mean());
    result.notes.push_back(
        "The zero-think-time user keeps a request permanently outstanding (the "
        "Figure 5.6 load); heavy and light users pace themselves with exp(5000) "
        "and exp(20000) us thinking (Figures 5.7-5.11).");
    return result;
  };
  return experiment;
}

}  // namespace wlgen::bench
