#pragma once

#include <string>
#include <vector>

namespace wlgen::util {

/// A single polyline series for SVG export.
struct SvgSeries {
  std::vector<double> xs;
  std::vector<double> ys;
  std::string label;
  std::string color = "#1f77b4";
};

/// Options for svg_plot.
struct SvgOptions {
  int width = 640;
  int height = 400;
  std::string title;
  std::string x_label;
  std::string y_label;
};

/// Renders one or more series as a self-contained SVG document string.
/// Used by the GDS and the experiment harness to export paper-figure
/// lookalikes; the role played by the X11 display in the original GDS.
std::string svg_plot(const std::vector<SvgSeries>& series, const SvgOptions& options = {});

/// Writes text to a file, creating parent directories when needed.
/// Throws std::runtime_error when the file cannot be written.
void write_text_file(const std::string& path, const std::string& content);

/// Reads a whole text file; throws std::runtime_error when unreadable.
std::string read_text_file(const std::string& path);

}  // namespace wlgen::util
