#include "common/response.h"

#include <utility>

#include "exp/workload.h"

namespace wlgen::bench {

exp::Experiment response_experiment(std::string id, std::string artifact, std::string title,
                                    core::Population population, std::string paper_claim,
                                    std::vector<exp::Expectation> expectations) {
  exp::Experiment experiment;
  experiment.id = std::move(id);
  experiment.artifact = std::move(artifact);
  experiment.title = std::move(title);
  experiment.paper_claim = std::move(paper_claim);
  experiment.expectations = std::move(expectations);
  experiment.run = [population = std::move(population)](const exp::RunContext& ctx) {
    exp::ContendedSweepConfig sweep;
    sweep.max_users = 6;
    sweep.usim.sessions_per_user = ctx.sessions(50);
    sweep.replications = ctx.replications;
    sweep.threads = ctx.contended_threads;
    sweep.seed = ctx.seed;
    sweep.population = population;
    const std::vector<exp::ContendedSweepPoint> points = exp::contended_response_sweep(sweep);

    std::vector<double> users, levels, ci_lo, ci_hi;
    for (const auto& point : points) {
      users.push_back(static_cast<double>(point.users));
      levels.push_back(point.response_per_byte_us);
      ci_lo.push_back(point.ci.lo());
      ci_hi.push_back(point.ci.hi());
    }

    exp::ExperimentResult result;
    result.x_label = "number of users using the computer simultaneously";
    result.y_label = "response time per byte (us)";
    result.add_series("response", users, levels);
    if (ctx.replications > 1) {
      // Cross-replication 95% band around the per-replication mean level.
      result.add_series("ci_lo", users, ci_lo).color = "#c0c0c0";
      result.add_series("ci_hi", users, ci_hi).color = "#c0c0c0";
    }
    result.set_scalar("first_user_us_per_byte", levels.front());
    result.set_scalar("final_us_per_byte", levels.back());
    result.set_scalar("growth_ratio",
                      levels.front() > 0.0 ? levels.back() / levels.front() : 0.0);
    result.set_scalar("final_ci_half_width", points.back().ci.half_width);
    result.set_scalar("replications", static_cast<double>(ctx.replications));
    return result;
  };
  return experiment;
}

}  // namespace wlgen::bench
