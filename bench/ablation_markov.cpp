// Ablation — independence vs Markov operation stream (paper sections 3.1.4
// and 6.2).
//
// The paper assumes each operation is independent of the previous ones and
// flags "our assumption of independence in the file operation stream needs
// to be examined in greater detail" as future work.  This experiment runs
// the same population with increasing order-1 persistence and grades how
// much the measured response metrics move — i.e., how much the independence
// assumption matters for the paper's own evaluation.

#include <cmath>

#include "exp/workload.h"
#include "experiments.h"

namespace wlgen::bench {

exp::Experiment make_ablation_markov() {
  using exp::Verdict;
  exp::Experiment experiment;
  experiment.id = "ablation_markov";
  experiment.title = "independent vs Markov op stream";
  experiment.paper_claim = "paper 3.1.4 assumes independence; 6.2 proposes a Markov model";
  experiment.expectations = {
      exp::expect_scalar_in_range("max_rel_drift", 0.0, 0.1, Verdict::warn,
                                  "drift small vs Figures 5.6-5.11's spread: the "
                                  "independence assumption is benign"),
      exp::expect_scalar_in_range("max_rel_drift", 0.0, 0.3, Verdict::fail,
                                  "persistence must not swing the response metrics wildly"),
      exp::expect_scalar_in_range("zero_persistence_drift", 0.0, 1e-9, Verdict::fail,
                                  "markov p=0 must reproduce the independent stream exactly"),
  };

  experiment.run = [](const exp::RunContext& ctx) {
    const std::vector<double> persistences = {-1.0, 0.0, 0.5, 0.8, 0.95};
    std::vector<double> xs, levels;
    for (const double p : persistences) {
      exp::WorkloadConfig config;
      config.num_users = 4;
      config.usim.sessions_per_user = ctx.sessions(40);
      config.seed = ctx.seed + 808;
      config.usim.markov_persistence = p;
      levels.push_back(exp::run_workload(config).analysis.response_per_byte_us());
      xs.push_back(std::max(p, 0.0));  // plot the independent baseline at p=0
    }

    exp::ExperimentResult result;
    result.x_label = "order-1 persistence p (first point: independent baseline)";
    result.y_label = "response time per byte (us)";
    result.add_series("response", xs, levels);
    const double baseline = levels.front();
    double max_drift = 0.0;
    for (const double level : levels) {
      if (baseline > 0.0) max_drift = std::max(max_drift, std::fabs(level - baseline) / baseline);
    }
    result.set_scalar("independent_us_per_byte", baseline);
    result.set_scalar("max_rel_drift", max_drift);
    result.set_scalar("zero_persistence_drift",
                      baseline > 0.0 ? std::fabs(levels[1] - baseline) / baseline : 1.0);
    result.notes.push_back(
        "Higher persistence = longer same-file runs = better client cache "
        "locality, so response per byte drifts somewhat.  A drift small "
        "relative to the Figures 5.6-5.11 spread answers section 3.1.4's open "
        "question within the model.");
    return result;
  };
  return experiment;
}

}  // namespace wlgen::bench
