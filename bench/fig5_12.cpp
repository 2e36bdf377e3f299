// Figure 5.12 — average access (response) time per byte under different mean
// access sizes of file I/O system calls, 128..2048 bytes, one extremely
// heavy I/O user.
//
// Paper: monotonically decreasing per-byte cost — "it is better to have
// large access sizes for file I/O system calls, which is why most language
// libraries want to keep a buffer for each file".
//
// The graded series is the response per byte of the *file I/O (read/write)
// calls* — the calls whose access size the x-axis varies.  The all-calls
// metric used by Figures 5.6–5.11 is carried as a reference series: it is
// dominated (~70% of total response at 2048 B) by per-file synchronous
// metadata — creat/unlink and the close-to-open flush — whose cost is
// invariant in access size, so it compresses the amortisation the figure
// demonstrates from ~4.8x to ~2x (decomposition in DESIGN.md, "Contended
// calibration and the fig5_12 metric").

#include "core/presets.h"
#include "exp/workload.h"
#include "experiments.h"
#include "fsmodel/model.h"

namespace wlgen::bench {

exp::Experiment make_fig5_12() {
  using exp::Verdict;
  exp::Experiment experiment;
  experiment.id = "fig5_12";
  experiment.artifact = "Figure 5.12";
  experiment.title = "response time per byte vs mean access size";
  experiment.paper_claim = "decreasing curve from ~4 us/B at 128 B to ~1 us/B at 2048 B";
  experiment.expectations = {
      exp::expect_monotonic_down("response", 0.15, Verdict::fail,
                                 "per-byte cost must fall as access size grows (the tail "
                                 "flattens once the per-call cost is amortised, so small "
                                 "counter-steps there are sampling noise)"),
      exp::expect_scalar_in_range("amortisation_ratio", 2.5, 6.0, Verdict::warn,
                                  "paper: ~4x between 128 B and 2048 B calls"),
      exp::expect_scalar_in_range("amortisation_ratio", 1.2, 10.0, Verdict::fail,
                                  "fixed per-call cost must amortise visibly"),
  };

  experiment.run = [](const exp::RunContext& ctx) {
    const std::vector<double> means = {128, 256, 512, 768, 1024, 1280, 1536, 1792, 2048};
    std::vector<double> levels, all_call_levels;
    for (const double mean : means) {
      core::Population population;
      population.groups.push_back(
          {core::with_access_size_mean(core::extremely_heavy_user(), mean), 1.0});
      population.validate_and_normalize();
      exp::WorkloadConfig config;
      config.num_users = 1;
      config.usim.sessions_per_user = ctx.sessions(50);  // paper: mean over 50 login sessions
      config.population = population;
      config.seed = ctx.seed + 512 + static_cast<std::uint64_t>(mean);
      const exp::WorkloadOutput out = exp::run_workload(config);

      // Response per byte of the read/write calls only — the metric the
      // figure's access-size knob actually exercises.
      double data_response_us = 0.0;
      double data_bytes = 0.0;
      for (const fsmodel::FsOpType op : {fsmodel::FsOpType::read, fsmodel::FsOpType::write}) {
        const core::OpTypeStats& s = out.analysis.op_stats().per_op[static_cast<std::size_t>(op)];
        data_response_us += s.response_us.sum();
        data_bytes += s.access_size.sum();
      }
      levels.push_back(data_bytes > 0.0 ? data_response_us / data_bytes : 0.0);
      all_call_levels.push_back(out.analysis.response_per_byte_us());
    }

    exp::ExperimentResult result;
    result.x_label = "average access size per file I/O system call (B)";
    result.y_label = "response time per byte (us)";
    result.add_series("response", means, levels);
    result.add_series("all_calls", means, all_call_levels).color = "#c0c0c0";
    result.set_scalar("us_per_byte_at_128", levels.front());
    result.set_scalar("us_per_byte_at_2048", levels.back());
    result.set_scalar("amortisation_ratio",
                      levels.back() > 0.0 ? levels.front() / levels.back() : 0.0);
    result.set_scalar("all_calls_ratio",
                      all_call_levels.back() > 0.0
                          ? all_call_levels.front() / all_call_levels.back()
                          : 0.0);
    result.notes.push_back(
        "Fixed per-call cost amortised over larger transfers — the paper's "
        "argument for buffered language-level I/O.  The grey reference curve "
        "includes per-file metadata calls (creat/close-flush/unlink), whose "
        "access-size-invariant cost hides most of the amortisation.");
    return result;
  };
  return experiment;
}

}  // namespace wlgen::bench
