#include "core/spec.h"

#include <cctype>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "dist/basic.h"
#include "dist/multistage_gamma.h"
#include "dist/phase_exponential.h"
#include "dist/tabulated.h"
#include "util/ascii_plot.h"
#include "util/numeric.h"
#include "util/strings.h"
#include "util/svg.h"

namespace wlgen::core {

namespace {

/// Minimal recursive-descent tokenizer/parser for the spec grammar.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  dist::DistributionPtr parse() {
    auto result = parse_expression();
    skip_space();
    if (pos_ != text_.size()) fail("trailing characters after distribution");
    return result;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::ostringstream out;
    out << "distribution spec error at offset " << pos_ << ": " << what << " in \"" << text_
        << "\"";
    throw std::invalid_argument(out.str());
  }

  void skip_space() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  bool consume(char c) {
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  std::string identifier() {
    skip_space();
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected identifier");
    return text_.substr(start, pos_ - start);
  }

  double number() {
    skip_space();
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    const auto parsed = util::parse_double(text_.substr(start, pos_ - start));
    if (!parsed) fail("expected number");
    return *parsed;
  }

  /// Parses "(k=v, k=v, ...)" or "(v, v, ...)" into ordered (key, value)
  /// pairs; positional values get empty keys.
  std::vector<std::pair<std::string, double>> tuple() {
    std::vector<std::pair<std::string, double>> out;
    expect('(');
    if (consume(')')) return out;
    while (true) {
      skip_space();
      std::string key;
      const std::size_t mark = pos_;
      if (pos_ < text_.size() && std::isalpha(static_cast<unsigned char>(text_[pos_]))) {
        key = identifier();
        if (!consume('=')) {
          pos_ = mark;  // it was not "key=", rewind and treat as a number
          key.clear();
        }
      }
      out.emplace_back(key, number());
      if (consume(')')) break;
      expect(',');
    }
    return out;
  }

  double named(const std::vector<std::pair<std::string, double>>& fields, const std::string& key,
               double fallback, bool required = false) {
    for (const auto& [k, v] : fields) {
      if (k == key) return v;
    }
    if (required) fail("missing field '" + key + "'");
    return fallback;
  }

  dist::DistributionPtr parse_expression() {
    const std::string head = util::to_lower(identifier());
    if (head == "constant" || head == "const") {
      const auto fields = tuple();
      if (fields.size() != 1) fail("constant takes one value");
      return std::make_unique<dist::ConstantDistribution>(fields[0].second);
    }
    if (head == "uniform") {
      const auto fields = tuple();
      if (fields.size() != 2) fail("uniform takes (lo, hi)");
      return std::make_unique<dist::UniformDistribution>(fields[0].second, fields[1].second);
    }
    if (head == "exp" || head == "exponential") {
      const auto fields = tuple();
      double theta = 0.0, offset = 0.0;
      if (fields.size() == 1 && fields[0].first.empty()) {
        theta = fields[0].second;
      } else {
        theta = named(fields, "theta", 0.0, /*required=*/true);
        offset = named(fields, "s", 0.0);
      }
      return std::make_unique<dist::ExponentialDistribution>(theta, offset);
    }
    if (head == "phase_exp") {
      std::vector<dist::ExpPhase> phases;
      expect('(');
      while (true) {
        const auto fields = tuple();
        phases.push_back({named(fields, "w", 1.0), named(fields, "theta", 0.0, true),
                          named(fields, "s", 0.0)});
        if (consume(')')) break;
        expect(',');
      }
      return std::make_unique<dist::PhaseTypeExponential>(std::move(phases));
    }
    if (head == "gamma" || head == "multi_gamma") {
      std::vector<dist::GammaStage> stages;
      expect('(');
      while (true) {
        const auto fields = tuple();
        stages.push_back({named(fields, "w", 1.0), named(fields, "alpha", 0.0, true),
                          named(fields, "theta", 0.0, true), named(fields, "s", 0.0)});
        if (consume(')')) break;
        expect(',');
      }
      return std::make_unique<dist::MultiStageGamma>(std::move(stages));
    }
    if (head == "pdf_table" || head == "cdf_table") {
      std::vector<double> xs, vs;
      expect('(');
      while (true) {
        const auto fields = tuple();
        if (fields.size() != 2) fail("table entries are (x, value) pairs");
        xs.push_back(fields[0].second);
        vs.push_back(fields[1].second);
        if (consume(')')) break;
        expect(',');
      }
      if (head == "pdf_table") {
        return std::make_unique<dist::TabulatedPdf>(std::move(xs), std::move(vs));
      }
      return std::make_unique<dist::TabulatedCdf>(std::move(xs), std::move(vs));
    }
    fail("unknown distribution family '" + head + "'");
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

std::string format_number(double v) {
  std::ostringstream out;
  out.precision(12);
  out << v;
  return out.str();
}

}  // namespace

dist::DistributionPtr parse_distribution(const std::string& text) { return Parser(text).parse(); }

std::string serialize_distribution(const dist::Distribution& d) {
  if (const auto* c = dynamic_cast<const dist::ConstantDistribution*>(&d)) {
    return "constant(" + format_number(c->value()) + ")";
  }
  if (const auto* u = dynamic_cast<const dist::UniformDistribution*>(&d)) {
    return "uniform(" + format_number(u->lower_bound()) + ", " + format_number(u->upper_bound()) +
           ")";
  }
  if (const auto* e = dynamic_cast<const dist::ExponentialDistribution*>(&d)) {
    return "exp(theta=" + format_number(e->theta()) + ", s=" + format_number(e->offset()) + ")";
  }
  if (const auto* p = dynamic_cast<const dist::PhaseTypeExponential*>(&d)) {
    std::string out = "phase_exp(";
    for (std::size_t i = 0; i < p->phases().size(); ++i) {
      const auto& ph = p->phases()[i];
      if (i != 0) out += ", ";
      out += "(w=" + format_number(ph.weight) + ", theta=" + format_number(ph.theta) +
             ", s=" + format_number(ph.offset) + ")";
    }
    return out + ")";
  }
  if (const auto* g = dynamic_cast<const dist::MultiStageGamma*>(&d)) {
    std::string out = "gamma(";
    for (std::size_t i = 0; i < g->stages().size(); ++i) {
      const auto& st = g->stages()[i];
      if (i != 0) out += ", ";
      out += "(w=" + format_number(st.weight) + ", alpha=" + format_number(st.alpha) +
             ", theta=" + format_number(st.theta) + ", s=" + format_number(st.offset) + ")";
    }
    return out + ")";
  }
  // Table families keep the values as entered: normalising them again on
  // the next parse would move their last digits.
  const auto table = [](const char* family, const std::vector<double>& xs,
                        const std::vector<double>& values) {
    std::string out = family;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      out += i == 0 ? "((" : ", (";
      out += format_number(xs[i]);
      out += ", ";
      out += format_number(values[i]);
      out += ')';
    }
    return out + ")";
  };
  if (const auto* t = dynamic_cast<const dist::TabulatedPdf*>(&d)) {
    return table("pdf_table", t->knots(), t->input_values());
  }
  if (const auto* t = dynamic_cast<const dist::TabulatedCdf*>(&d)) {
    return table("cdf_table", t->knots(), t->input_values());
  }
  throw std::invalid_argument("serialize_distribution: unsupported family: " + d.describe());
}

void DistributionSpecifier::set(const std::string& name, DistRef distribution) {
  if (!distribution) throw std::invalid_argument("DistributionSpecifier::set: null distribution");
  entries_[name] = std::move(distribution);
}

void DistributionSpecifier::load_spec_text(const std::string& text) {
  for (const auto& raw_line : util::split(text, '\n')) {
    const std::string line = util::trim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("spec line missing '=': " + line);
    }
    const std::string name = util::trim(line.substr(0, eq));
    if (name.empty()) throw std::invalid_argument("spec line missing name: " + line);
    set(name, DistRef(parse_distribution(line.substr(eq + 1))));
  }
}

DistRef DistributionSpecifier::get(const std::string& name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::out_of_range("DistributionSpecifier: no distribution named '" + name + "'");
  }
  return it->second;
}

bool DistributionSpecifier::contains(const std::string& name) const {
  return entries_.count(name) != 0;
}

std::vector<std::string> DistributionSpecifier::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, d] : entries_) out.push_back(name);
  return out;
}

dist::CdfTable DistributionSpecifier::cdf_table(const std::string& name,
                                                std::size_t points) const {
  return dist::build_cdf_table(*get(name), points);
}

std::pair<double, double> DistributionSpecifier::plot_range(const dist::Distribution& d,
                                                            double lo, double hi) const {
  if (hi > lo) return {lo, hi};
  double a = d.lower_bound();
  if (!std::isfinite(a)) a = d.quantile(0.001);
  double b = d.upper_bound();
  if (!std::isfinite(b)) b = d.quantile(0.999);
  if (!(b > a)) b = a + 1.0;
  return {a, b};
}

std::string DistributionSpecifier::render_ascii(const std::string& name, double lo,
                                                double hi) const {
  const DistRef d = get(name);
  const auto [a, b] = plot_range(*d, lo, hi);
  util::PlotOptions options;
  options.title = name + " : " + d->describe();
  // std::string{} sidesteps gcc 12.2's -Wrestrict false positive on
  // string::operator=(const char*) at -O3 (GCC PR 105329, fixed in 12.3).
  options.x_label = std::string{"x"};
  options.y_label = std::string{"f(x)"};
  return util::ascii_function([&](double x) { return d->pdf(x); }, a, b, 96, options);
}

std::string DistributionSpecifier::render_svg(const std::string& name, double lo,
                                              double hi) const {
  const DistRef d = get(name);
  const auto [a, b] = plot_range(*d, lo, hi);
  util::SvgSeries series;
  series.label = name;
  const std::size_t samples = 256;
  for (std::size_t i = 0; i < samples; ++i) {
    const double x = a + (b - a) * static_cast<double>(i) / static_cast<double>(samples - 1);
    series.xs.push_back(x);
    series.ys.push_back(d->pdf(x));
  }
  util::SvgOptions options;
  options.title = d->describe();
  // std::string{} sidesteps gcc 12.2's -Wrestrict false positive on
  // string::operator=(const char*) at -O3 (GCC PR 105329, fixed in 12.3).
  options.x_label = std::string{"x"};
  options.y_label = std::string{"f(x)"};
  return util::svg_plot({series}, options);
}

std::string DistributionSpecifier::serialize() const {
  std::string out;
  for (const auto& [name, d] : entries_) {
    out += name;
    out += " = ";
    out += serialize_distribution(*d);
    out += "\n";
  }
  return out;
}

}  // namespace wlgen::core
