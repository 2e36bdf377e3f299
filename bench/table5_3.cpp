// Table 5.3 — mean and standard deviation of access size (bytes) and
// response time (microseconds) of file access system calls, for 1..6
// simultaneous users.
//
// Paper values (SUN 3/50 client, SUN 4/490 server, NFS): access size flat
// near 947(950) B; response mean growing 1285 -> 3494 us with std several
// times the mean at every load point.

#include "exp/workload.h"
#include "experiments.h"

namespace wlgen::bench {

exp::Experiment make_table5_3() {
  using exp::Verdict;
  exp::Experiment experiment;
  experiment.id = "table5_3";
  experiment.artifact = "Table 5.3";
  experiment.title = "access size and response time vs number of users";
  experiment.paper_claim =
      "access ~947(950) B flat; response 1285(4202) -> 3494(30059) us, std >> mean";
  experiment.expectations = {
      exp::expect_monotonic_up("response mean", 0.05, Verdict::fail,
                               "the response mean must grow with simultaneous users"),
      exp::expect_scalar_in_range("access_size_spread_ratio", 0.9, 1.15, Verdict::fail,
                                  "access size is an input: flat across load points"),
      exp::expect_scalar_in_range("access_size_overall", 850.0, 1050.0, Verdict::warn,
                                  "paper: ~947 B measured mean access size"),
      exp::expect_scalar_in_range("access_size_overall", 600.0, 1300.0, Verdict::fail,
                                  "exponential(1024) + EOF truncation sanity band"),
      exp::expect_scalar_in_range("response_std_over_mean_6u", 2.0, 20.0, Verdict::warn,
                                  "paper: response std stays several times the mean"),
      exp::expect_scalar_in_range("response_std_over_mean_6u", 1.0, 50.0, Verdict::fail,
                                  "cache hit/miss bimodality + queueing regime"),
  };

  experiment.run = [](const exp::RunContext& ctx) {
    std::vector<double> users, access_mean, access_std, response_mean, response_std;
    for (std::size_t u = 1; u <= 6; ++u) {
      exp::WorkloadConfig config;
      config.num_users = u;
      config.usim.sessions_per_user = ctx.sessions(50);  // paper: mean over 50 login sessions
      config.seed = ctx.seed + u;
      const exp::WorkloadOutput out = exp::run_workload(config);
      users.push_back(static_cast<double>(u));
      access_mean.push_back(out.analysis.access_size_stats().mean());
      access_std.push_back(out.analysis.access_size_stats().stddev());
      response_mean.push_back(out.analysis.response_stats().mean());
      response_std.push_back(out.analysis.response_stats().stddev());
    }

    exp::ExperimentResult result;
    result.x_label = "number of users";
    result.y_label = "microseconds / bytes";
    result.add_series("access size mean", users, access_mean);
    result.add_series("response mean", users, response_mean);
    result.add_series("response std", users, response_std);

    double access_lo = access_mean.front(), access_hi = access_mean.front(), access_sum = 0.0;
    for (const double a : access_mean) {
      access_lo = std::min(access_lo, a);
      access_hi = std::max(access_hi, a);
      access_sum += a;
    }
    result.set_scalar("access_size_overall", access_sum / static_cast<double>(access_mean.size()));
    result.set_scalar("access_size_spread_ratio", access_lo > 0.0 ? access_hi / access_lo : 0.0);
    result.set_scalar("response_mean_1u", response_mean.front());
    result.set_scalar("response_mean_6u", response_mean.back());
    result.set_scalar("response_std_over_mean_6u",
                      response_mean.back() > 0.0 ? response_std.back() / response_mean.back()
                                                 : 0.0);
    result.notes.push_back(
        "Access size is flat near (and below) the 1024 B input mean with std ~ "
        "mean; the response mean grows with users while its std stays several "
        "times the mean — the Table 5.3 regime.");
    return result;
  };
  return experiment;
}

}  // namespace wlgen::bench
