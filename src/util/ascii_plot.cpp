#include "util/ascii_plot.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace wlgen::util {

namespace {

std::string format_number(double v) {
  char buf[32];
  if (std::fabs(v) >= 1e5 || (v != 0.0 && std::fabs(v) < 1e-3)) {
    std::snprintf(buf, sizeof buf, "%.2e", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.4g", v);
  }
  return buf;
}

}  // namespace

std::string ascii_curve(const std::vector<double>& xs, const std::vector<double>& ys,
                        const PlotOptions& options) {
  if (xs.size() != ys.size() || xs.empty()) {
    throw std::invalid_argument("ascii_curve: xs and ys must be non-empty and equal-sized");
  }
  const int w = std::max(8, options.width);
  const int h = std::max(4, options.height);
  double xmin = xs.front(), xmax = xs.front();
  double ymin = ys.front(), ymax = ys.front();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xmin = std::min(xmin, xs[i]);
    xmax = std::max(xmax, xs[i]);
    ymin = std::min(ymin, ys[i]);
    ymax = std::max(ymax, ys[i]);
  }
  if (xmax == xmin) xmax = xmin + 1.0;
  if (ymax == ymin) ymax = ymin + 1.0;

  std::vector<std::string> grid(static_cast<std::size_t>(h), std::string(static_cast<std::size_t>(w), ' '));
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const int col = static_cast<int>(std::lround((xs[i] - xmin) / (xmax - xmin) * (w - 1)));
    const int row = static_cast<int>(std::lround((ys[i] - ymin) / (ymax - ymin) * (h - 1)));
    const int r = h - 1 - std::clamp(row, 0, h - 1);
    const int c = std::clamp(col, 0, w - 1);
    grid[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] = options.mark;
  }

  std::ostringstream out;
  if (!options.title.empty()) out << options.title << "\n";
  if (!options.y_label.empty()) out << "  [" << options.y_label << "]\n";
  out << format_number(ymax) << "\n";
  for (const auto& line : grid) out << "  |" << line << "\n";
  out << format_number(ymin) << " +" << std::string(static_cast<std::size_t>(w), '-') << "\n";
  out << "   " << format_number(xmin);
  const std::string right = format_number(xmax);
  const int pad = w - static_cast<int>(format_number(xmin).size()) - static_cast<int>(right.size());
  out << std::string(static_cast<std::size_t>(std::max(1, pad)), ' ') << right << "\n";
  if (!options.x_label.empty()) out << "   [" << options.x_label << "]\n";
  return out.str();
}

std::string ascii_function(const std::function<double(double)>& f, double lo, double hi,
                           std::size_t samples, const PlotOptions& options) {
  if (samples < 2) samples = 2;
  std::vector<double> xs(samples), ys(samples);
  const double step = (hi - lo) / static_cast<double>(samples - 1);
  for (std::size_t i = 0; i < samples; ++i) {
    xs[i] = lo + step * static_cast<double>(i);
    ys[i] = f(xs[i]);
  }
  return ascii_curve(xs, ys, options);
}

}  // namespace wlgen::util
