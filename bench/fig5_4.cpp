// Figure 5.4 — distribution of average file size (bytes) over 600 login
// sessions, before and after smoothing.
//
// Paper shape: right-skewed histogram over 0..60000 bytes with the bulk
// below ~20000.

#include "core/analysis.h"
#include "exp/workload.h"
#include "experiments.h"

namespace wlgen::bench {

exp::Experiment make_fig5_4() {
  using exp::Verdict;
  exp::Experiment experiment;
  experiment.id = "fig5_4";
  experiment.artifact = "Figure 5.4";
  experiment.title = "average file size over 600 login sessions";
  experiment.paper_claim = "right-skewed over 0..60000 B, bulk below ~20000 B";
  experiment.expectations = {
      exp::expect_scalar_in_range("mean_file_size", 8000.0, 20000.0, Verdict::warn,
                                  "paper: session means concentrate below ~20000 B"),
      exp::expect_scalar_in_range("mean_file_size", 2000.0, 40000.0, Verdict::fail,
                                  "sanity band given Table 5.1's 714..31347 B category means"),
      exp::expect_scalar_in_range("fraction_below_20000", 0.55, 1.0, Verdict::fail,
                                  "paper: the bulk of the mass lies below ~20000 B"),
      exp::expect_scalar_in_range("smoothed_mass_ratio", 0.999, 1.001, Verdict::fail,
                                  "smoothing must preserve total session mass"),
  };

  experiment.run = [](const exp::RunContext& ctx) {
    const exp::WorkloadOutput& out = exp::characterisation_run(ctx.sessions(600), ctx.seed);
    const stats::Histogram histogram = out.analysis.session_file_size_histogram(24);

    exp::ExperimentResult result;
    result.x_label = "average file size (B)";
    result.y_label = "sessions";
    exp::add_histogram_series(result, histogram);

    stats::RunningSummary size;
    std::size_t below = 0, counted = 0;
    for (const auto& s : out.analysis.sessions()) {
      if (s.files_referenced == 0) continue;
      size.add(s.mean_file_size);
      ++counted;
      if (s.mean_file_size < 20000.0) ++below;
    }
    result.set_scalar("sessions", static_cast<double>(out.analysis.sessions().size()));
    result.set_scalar("mean_file_size", size.mean());
    result.set_scalar("std_file_size", size.stddev());
    result.set_scalar("fraction_below_20000",
                      counted > 0 ? static_cast<double>(below) / counted : 0.0);
    result.notes.push_back(
        "The right tail is driven by the NOTES categories (mean sizes 31347 and "
        "18771 B in Table 5.1).");
    return result;
  };
  return experiment;
}

}  // namespace wlgen::bench
