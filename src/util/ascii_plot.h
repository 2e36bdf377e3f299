#pragma once

#include <functional>
#include <string>
#include <vector>

namespace wlgen::util {

/// Options controlling ASCII rendering of curves and histograms.
///
/// The paper's GDS displays densities in an X11 window; in this library the
/// same role is played by terminal plots (and SVG files, see svg.h), which is
/// the degradation path the paper itself describes for hosts without X11.
struct PlotOptions {
  int width = 72;        ///< plot area width in characters
  int height = 16;       ///< plot area height in characters
  std::string title;     ///< printed above the plot when non-empty
  std::string x_label;   ///< printed below the x axis when non-empty
  std::string y_label;   ///< printed beside the y axis when non-empty
  char mark = '*';       ///< glyph used for curve points
};

/// Renders y(x) sampled on a grid as a multi-line ASCII plot.
std::string ascii_curve(const std::vector<double>& xs, const std::vector<double>& ys,
                        const PlotOptions& options = {});

/// Renders a function by sampling it at `samples` points over [lo, hi].
std::string ascii_function(const std::function<double(double)>& f, double lo, double hi,
                           std::size_t samples, const PlotOptions& options = {});

}  // namespace wlgen::util
