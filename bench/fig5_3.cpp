// Figure 5.3 — distribution of average access-per-byte over 600 login
// sessions, before and after smoothing.
//
// Paper shape: a right-skewed histogram with its mode near 1-2 accesses per
// byte and a tail out to ~7.

#include "core/analysis.h"
#include "exp/workload.h"
#include "experiments.h"

namespace wlgen::bench {

exp::Experiment make_fig5_3() {
  using exp::Verdict;
  exp::Experiment experiment;
  experiment.id = "fig5_3";
  experiment.artifact = "Figure 5.3";
  experiment.title = "average access-per-byte over 600 login sessions";
  experiment.paper_claim = "right-skewed, mode ~1-2, tail to ~7 accesses per byte";
  experiment.expectations = {
      exp::expect_scalar_in_range("mean_access_per_byte", 1.5, 3.0, Verdict::warn,
                                  "paper: mass concentrated between 1 and ~3"),
      exp::expect_scalar_in_range("mean_access_per_byte", 0.5, 5.0, Verdict::fail,
                                  "sanity band for the characterisation run"),
      exp::expect_scalar_in_range("mode_center", 0.0, 4.0, Verdict::fail,
                                  "paper: the mode sits near 1-2 accesses per byte"),
      exp::expect_scalar_in_range("fraction_below_3", 0.55, 1.0, Verdict::fail,
                                  "paper: the bulk of the mass lies below ~3"),
      exp::expect_scalar_in_range("smoothed_mass_ratio", 0.999, 1.001, Verdict::fail,
                                  "smoothing must preserve total session mass"),
  };

  experiment.run = [](const exp::RunContext& ctx) {
    const exp::WorkloadOutput& out = exp::characterisation_run(ctx.sessions(600), ctx.seed);
    const stats::Histogram histogram = out.analysis.session_access_per_byte_histogram(24);

    exp::ExperimentResult result;
    result.x_label = "accesses per byte";
    result.y_label = "sessions";
    exp::add_histogram_series(result, histogram);

    stats::RunningSummary apb;
    std::size_t below3 = 0, counted = 0;
    for (const auto& s : out.analysis.sessions()) {
      if (s.files_referenced == 0) continue;
      apb.add(s.access_per_byte);
      ++counted;
      if (s.access_per_byte < 3.0) ++below3;
    }
    const auto& counts = histogram.counts();
    std::size_t mode = 0;
    for (std::size_t i = 1; i < counts.size(); ++i) {
      if (counts[i] > counts[mode]) mode = i;
    }
    result.set_scalar("sessions", static_cast<double>(out.analysis.sessions().size()));
    result.set_scalar("mean_access_per_byte", apb.mean());
    result.set_scalar("std_access_per_byte", apb.stddev());
    result.set_scalar("mode_center", histogram.centers()[mode]);
    result.set_scalar("fraction_below_3",
                      counted > 0 ? static_cast<double>(below3) / counted : 0.0);
    result.notes.push_back(
        "Right-skew with the bulk below ~3 accesses/byte reproduces the DI86 "
        "measurement the FSC/USIM pipeline was characterised from.");
    return result;
  };
  return experiment;
}

}  // namespace wlgen::bench
