#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/workload.h"
#include "dist/cdf_table.h"
#include "dist/distribution.h"

namespace wlgen::core {

/// Parses one distribution expression.  Grammar (whitespace-insensitive):
///
///   constant(V)
///   uniform(LO, HI)
///   exp(theta=T [, s=S])                      — also exp(T)
///   phase_exp((w=W, theta=T, s=S), ...)       — paper eq. 5.1 mixture
///   gamma((w=W, alpha=A, theta=T, s=S), ...)  — multi-stage gamma
///   pdf_table((x, f), (x, f), ...)            — direct PDF values
///   cdf_table((x, F), (x, F), ...)            — direct CDF values
///
/// These are exactly the input families of the paper's GDS (section 4.1.1):
/// the two parametric families plus "the PDF or CDF values directly".
/// Throws std::invalid_argument with a position-annotated message on errors.
dist::DistributionPtr parse_distribution(const std::string& text);

/// Serialises every family parse_distribution accepts back to parseable
/// text, numbers at 12 significant digits (the table families with their
/// values as entered, before normalisation), so serialize(parse(serialize(d)))
/// == serialize(d).  Throws std::invalid_argument for foreign Distribution
/// subclasses.
std::string serialize_distribution(const dist::Distribution& d);

/// The GDS replacement: a named collection of distributions with load/store,
/// terminal rendering and CDF-table emission — the paper's interactive X11
/// tool, scriptable.
class DistributionSpecifier {
 public:
  /// Registers (or replaces) a named distribution.
  void set(const std::string& name, DistRef distribution);

  /// Parses "name = spec" lines ('#' comments, blank lines allowed) and
  /// registers every entry.  Throws std::invalid_argument on parse errors.
  void load_spec_text(const std::string& text);

  /// Looks up a distribution; throws std::out_of_range when missing.
  DistRef get(const std::string& name) const;

  /// True when `name` is registered.
  bool contains(const std::string& name) const;

  /// All registered names, sorted.
  std::vector<std::string> names() const;

  /// The paper's "Generate CDF tables" step for one named distribution.
  dist::CdfTable cdf_table(const std::string& name, std::size_t points = 256) const;

  /// Terminal plot of the named density over [lo, hi] — the X11 display's
  /// role.  With lo == hi the range is chosen from the distribution itself.
  std::string render_ascii(const std::string& name, double lo = 0.0, double hi = 0.0) const;

  /// SVG document of the named density (for EXPERIMENTS.md-style artefacts).
  std::string render_svg(const std::string& name, double lo = 0.0, double hi = 0.0) const;

  /// Serialises every entry as "name = spec" lines.
  std::string serialize() const;

 private:
  std::pair<double, double> plot_range(const dist::Distribution& d, double lo, double hi) const;

  std::map<std::string, DistRef> entries_;
};

}  // namespace wlgen::core
