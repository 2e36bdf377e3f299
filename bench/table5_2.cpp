// Table 5.2 — "User characterization by file category".
//
// Runs the paper's 600-login-session characterisation workload (section 5.1)
// and re-derives, per category: accesses-per-byte, files per session and the
// fraction of sessions touching the category, graded against the published
// means.

#include <cmath>

#include "core/presets.h"
#include "exp/workload.h"
#include "experiments.h"

namespace wlgen::bench {

exp::Experiment make_table5_2() {
  using exp::Verdict;
  exp::Experiment experiment;
  experiment.id = "table5_2";
  experiment.artifact = "Table 5.2";
  experiment.title = "user characterization by file category";
  experiment.paper_claim =
      "600 sessions; per-category accesses/byte, file size, files, % users";
  experiment.expectations = {
      exp::expect_scalar_in_range("mean_abs_files_rel_err", 0.0, 0.35, Verdict::warn,
                                  "files-per-session track the Table 5.2 category means"),
      exp::expect_scalar_in_range("mean_abs_files_rel_err", 0.0, 0.8, Verdict::fail,
                                  "the USIM samples per-category file counts from Table 5.2"),
      exp::expect_scalar_in_range("mean_abs_touch_err_pct", 0.0, 10.0, Verdict::warn,
                                  "fraction of sessions touching each category vs % users"),
      exp::expect_scalar_in_range("mean_abs_touch_err_pct", 0.0, 25.0, Verdict::fail,
                                  "category touch probabilities must follow the table"),
      exp::expect_scalar_in_range("categories_touched", 6.0, 9.0, Verdict::fail,
                                  "a 600-session run must exercise the category space"),
  };

  experiment.run = [](const exp::RunContext& ctx) {
    exp::WorkloadConfig config;
    config.num_users = 1;
    config.usim.sessions_per_user = ctx.sessions(600);  // "after simulating 600 login sessions"
    config.seed = ctx.seed;
    const exp::WorkloadOutput out = exp::run_workload(config);

    exp::ExperimentResult result;
    result.x_label = "usage category index (Table 5.2 order)";
    result.y_label = "files per session";
    std::vector<double> index, paper_files, measured_files;
    double files_err = 0.0, touch_err = 0.0;
    std::size_t measured = 0;
    const auto per_category = out.analysis.per_category_usage();
    for (const auto& profile : core::di86_usage_profiles()) {
      const auto it = per_category.find(profile.category.label());
      if (it == per_category.end() || it->second.files_per_session.count() == 0) continue;
      index.push_back(static_cast<double>(index.size() + 1));
      paper_files.push_back(profile.files_per_session->mean());
      measured_files.push_back(it->second.files_per_session.mean());
      files_err += std::fabs(it->second.files_per_session.mean() -
                             profile.files_per_session->mean()) /
                   profile.files_per_session->mean();
      touch_err += std::fabs(100.0 * it->second.fraction_sessions_touching -
                             100.0 * profile.prob_accessing_category);
      ++measured;
    }
    result.add_series("paper files/session", index, paper_files);
    result.add_series("measured files/session", index, measured_files);
    result.set_scalar("categories_touched", static_cast<double>(measured));
    result.set_scalar("mean_abs_files_rel_err", measured > 0 ? files_err / measured : 1.0);
    result.set_scalar("mean_abs_touch_err_pct", measured > 0 ? touch_err / measured : 100.0);
    result.set_scalar("sessions", static_cast<double>(out.analysis.sessions().size()));
    result.set_scalar("system_calls", static_cast<double>(out.total_ops));
    result.notes.push_back(
        "Measured accesses-per-byte reflects EOF truncation and per-file wrap "
        "granularity; the RDONLY/RD-WRT size columns re-measure the files the "
        "FSC built from Table 5.1.");
    return result;
  };
  return experiment;
}

}  // namespace wlgen::bench
