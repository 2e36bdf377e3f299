// Unit tests for src/util: RNG streams, numeric routines, plotting, tables,
// string helpers.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <thread>

#include "util/args.h"
#include "util/ascii_plot.h"
#include "util/config.h"
#include "util/json.h"
#include "util/numeric.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/svg.h"
#include "util/table.h"

namespace wlgen::util {
namespace {

TEST(RngStream, SameSeedSameSequence) {
  RngStream a(7, 1);
  RngStream b(7, 1);
  // Run well past RngStream::kBlock so several batched refills are covered.
  for (int i = 0; i < 1000; ++i) EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
}

TEST(RngStream, BatchedUniformsStayInUnitIntervalAcrossRefills) {
  RngStream rng(3, 0);
  for (std::size_t i = 0; i < 5 * RngStream::kBlock; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngStream, DirectEngineDrawsInterleaveDeterministically) {
  // Mixed batched (uniform01) and direct (engine-backed) draws must be a
  // pure function of the call sequence: two identical streams stay in
  // lockstep through both kinds of draw, including across block refills.
  RngStream a(11, 4);
  RngStream b(11, 4);
  for (std::size_t i = 0; i < 3 * RngStream::kBlock; ++i) {
    if (i % 7 == 3) {
      EXPECT_DOUBLE_EQ(a.exponential(10.0), b.exponential(10.0));
    } else if (i % 7 == 5) {
      EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
    } else {
      EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
    }
  }
}

TEST(RngStream, ForkDoesNotPerturbParentSequence) {
  RngStream forked(7, 1);
  RngStream straight(7, 1);
  for (int i = 0; i < 10; ++i) forked.uniform01();
  for (int i = 0; i < 10; ++i) straight.uniform01();
  auto child = forked.fork("child");
  child.uniform01();
  for (int i = 0; i < 300; ++i) EXPECT_DOUBLE_EQ(forked.uniform01(), straight.uniform01());
}

TEST(RngStream, DifferentStreamsDiffer) {
  RngStream a(7, 1);
  RngStream b(7, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform01() == b.uniform01()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngStream, LabelConstructionIsStable) {
  RngStream a(7, "user/3");
  RngStream b(7, "user/3");
  EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
}

TEST(RngStream, ForkIndependence) {
  RngStream root(7, 0);
  RngStream child1 = root.fork("alpha");
  RngStream child2 = root.fork("beta");
  EXPECT_NE(child1.uniform01(), child2.uniform01());
}

TEST(RngStream, UniformRange) {
  RngStream rng(1, 0);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngStream, UniformIntInclusive) {
  RngStream rng(1, 0);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.count(0));
  EXPECT_TRUE(seen.count(3));
}

TEST(RngStream, ExponentialMeanApproximatelyCorrect) {
  RngStream rng(99, 0);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(100.0);
  EXPECT_NEAR(sum / n, 100.0, 3.0);
}

TEST(RngStream, GammaMeanApproximatelyCorrect) {
  RngStream rng(99, 0);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.gamma(2.0, 10.0);
  EXPECT_NEAR(sum / n, 20.0, 1.0);
}

TEST(RngStream, CategoricalRespectsWeights) {
  RngStream rng(5, 0);
  std::vector<double> weights = {1.0, 3.0};
  int count1 = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.categorical(weights) == 1) ++count1;
  }
  EXPECT_NEAR(static_cast<double>(count1) / n, 0.75, 0.03);
}

TEST(RngStream, CategoricalRejectsBadInput) {
  RngStream rng(5, 0);
  EXPECT_THROW(rng.categorical({}), std::invalid_argument);
  EXPECT_THROW(rng.categorical({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(rng.categorical({-1.0, 2.0}), std::invalid_argument);
}

TEST(RngStream, BernoulliEdges) {
  RngStream rng(5, 0);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Numeric, SimpsonIntegratesPolynomialExactly) {
  // Simpson is exact for cubics.
  const auto f = [](double x) { return x * x * x - 2.0 * x + 1.0; };
  const double got = simpson(f, 0.0, 2.0, 8);
  const double expected = 4.0 - 4.0 + 2.0;  // x^4/4 - x^2 + x over [0,2]
  EXPECT_NEAR(got, expected, 1e-12);
}

TEST(Numeric, SimpsonHandlesOddSubintervalCount) {
  const auto f = [](double x) { return x; };
  EXPECT_NEAR(simpson(f, 0.0, 1.0, 3), 0.5, 1e-12);
}

TEST(Numeric, SimpsonEmptyInterval) {
  EXPECT_DOUBLE_EQ(simpson([](double) { return 1.0; }, 2.0, 2.0, 10), 0.0);
}

TEST(Numeric, RegularizedGammaPKnownValues) {
  // P(1, x) = 1 - e^-x.
  EXPECT_NEAR(regularized_gamma_p(1.0, 1.0), 1.0 - std::exp(-1.0), 1e-12);
  // P(0.5, x) = erf(sqrt(x)).
  EXPECT_NEAR(regularized_gamma_p(0.5, 2.0), std::erf(std::sqrt(2.0)), 1e-10);
  EXPECT_DOUBLE_EQ(regularized_gamma_p(3.0, 0.0), 0.0);
}

TEST(Numeric, RegularizedGammaPMonotone) {
  double prev = 0.0;
  for (double x = 0.1; x < 20.0; x += 0.5) {
    const double cur = regularized_gamma_p(2.5, x);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
  EXPECT_NEAR(prev, 1.0, 1e-6);
}

TEST(AsciiPlot, CurveContainsMarks) {
  const auto plot = ascii_curve({0, 1, 2}, {0, 1, 0});
  EXPECT_NE(plot.find('*'), std::string::npos);
}

TEST(AsciiPlot, RejectsMismatchedInput) {
  EXPECT_THROW(ascii_curve({0, 1}, {0}), std::invalid_argument);
}

TEST(Svg, PlotProducesDocument) {
  SvgSeries s;
  s.xs = {0, 1, 2};
  s.ys = {0, 1, 4};
  s.label = "test";
  const std::string svg = svg_plot({s});
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("polyline"), std::string::npos);
  EXPECT_NE(svg.find("test"), std::string::npos);
}

TEST(TextFile, ReadReturnsExactBytes) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "wlgen_util_text_file").string();
  std::filesystem::remove_all(dir);
  // write_text_file creates the missing directory.
  const std::string path = dir + "/nested/blob.bin";
  std::string content = "line\r\nwith NUL ";
  content.push_back('\0');
  for (int i = 0; i < 70000; ++i) content.push_back(static_cast<char>(i * 31));
  write_text_file(path, content);
  EXPECT_EQ(read_text_file(path), content);
  write_text_file(path, "");
  EXPECT_EQ(read_text_file(path), "");
  EXPECT_THROW(read_text_file(dir + "/missing.txt"), std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(TextFile, ReadRejectsADirectoryButReadsPipesAndSpecialFiles) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "wlgen_util_text_dir").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  // A directory opens as a stream but cannot be read: it is not an empty file.
  try {
    read_text_file(dir);
    ADD_FAILURE() << "a directory read as a file";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "read_text_file: cannot read " + dir);
  }

  // A pipe reports no size; its bytes are read all the same.
  const std::string fifo = dir + "/pipe";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  std::string payload;
  for (int i = 0; i < 20000; ++i) payload += "pipe line " + std::to_string(i) + "\n";
  std::thread writer([&] {
    std::ofstream out(fifo, std::ios::binary);
    out << payload;
  });
  const std::string piped = read_text_file(fifo);
  writer.join();
  EXPECT_EQ(piped, payload);

  // So does a special file whose size reads as 0.
  std::error_code ec;
  ASSERT_EQ(std::filesystem::file_size("/proc/self/status", ec), 0u);
  EXPECT_NE(read_text_file("/proc/self/status").find("Name:"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(Table, RendersAlignedRows) {
  TextTable t({"a", "long_header"});
  t.add_row({"1", "2"});
  const std::string out = t.render();
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, MeanStdFormat) {
  EXPECT_EQ(TextTable::mean_std(1.5, 0.25), "1.50(0.25)");
}

TEST(Strings, SplitAndTrim) {
  const auto pieces = split("a,b,,c", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[2], "");
  EXPECT_EQ(trim("  hi \t"), "hi");
  EXPECT_EQ(trim(""), "");
  const std::string_view padded = " \r\tmid dle\v\f\n";
  EXPECT_EQ(trim_view(padded), "mid dle");
  EXPECT_EQ(trim_view(padded).data(), padded.data() + 3);  // a view, not a copy
  EXPECT_TRUE(trim_view(" \t ").empty());
}

TEST(Strings, SplitWhitespaceDiscardsEmpty) {
  const auto pieces = split_whitespace("  a\t b\nc  ");
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[2], "c");
}

TEST(Strings, ParseNumbers) {
  EXPECT_EQ(parse_double("1.5e3").value(), 1500.0);
  EXPECT_FALSE(parse_double("1.5x").has_value());
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_EQ(parse_int("42").value(), 42);
  EXPECT_FALSE(parse_int("4.2").has_value());
}

TEST(Strings, JoinAndLower) {
  EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_TRUE(starts_with("hello", "he"));
  EXPECT_FALSE(starts_with("h", "he"));
}

TEST(Strings, SlugifyCollapsesSeparatorRuns) {
  EXPECT_EQ(slugify("Figure 5.6"), "figure_5_6");
  EXPECT_EQ(slugify("Table 5.1"), "table_5_1");
  EXPECT_EQ(slugify("  Sections 2.1, 5.3 — baselines "), "sections_2_1_5_3_baselines");
  EXPECT_EQ(slugify("already_a_slug"), "already_a_slug");
  EXPECT_EQ(slugify(""), "artifact");
  EXPECT_EQ(slugify("---"), "artifact");
}

TEST(Strings, SlugifyFilenamePreservesExtension) {
  EXPECT_EQ(slugify_filename("Figure 5.6.svg"), "figure_5_6.svg");
  EXPECT_EQ(slugify_filename("Figure 5.6.JSON"), "figure_5_6.json");
  EXPECT_EQ(slugify_filename("EXPERIMENTS.md"), "experiments.md");
  EXPECT_EQ(slugify_filename("no extension here"), "no_extension_here");
}

TEST(Json, DumpAndParseRoundTrip) {
  JsonValue doc = JsonValue::make_object();
  doc.set("name", "fig5_6");
  doc.set("count", 23);
  doc.set("pi", 3.14159265358979);
  doc.set("ok", true);
  doc.set("missing", JsonValue());
  JsonValue xs = JsonValue::make_array();
  for (double v : {1.0, 2.5, -3.0}) xs.push_back(v);
  doc.set("xs", std::move(xs));

  const std::string text = doc.dump();
  const JsonValue back = parse_json(text);
  EXPECT_EQ(back.at("name").as_string(), "fig5_6");
  EXPECT_EQ(back.at("count").as_number(), 23.0);
  EXPECT_DOUBLE_EQ(back.at("pi").as_number(), 3.14159265358979);
  EXPECT_TRUE(back.at("ok").as_bool());
  EXPECT_TRUE(back.at("missing").is_null());
  ASSERT_EQ(back.at("xs").as_array().size(), 3u);
  EXPECT_EQ(back.at("xs").as_array()[1].as_number(), 2.5);
  // Key order survives, so re-dumping is byte-identical.
  EXPECT_EQ(back.dump(), text);
}

TEST(Json, StringEscapesSurviveRoundTrip) {
  JsonValue doc = JsonValue::make_object();
  doc.set("text", "line\n\"quoted\"\tback\\slash");
  const JsonValue back = parse_json(doc.dump());
  EXPECT_EQ(back.at("text").as_string(), "line\n\"quoted\"\tback\\slash");
}

TEST(Json, SurrogatePairsDecodeToOneUtf8CodePoint) {
  // \uD83D\uDE00 is U+1F600; decoding the halves independently would emit
  // invalid UTF-8 (CESU-8) that strict consumers reject.
  const JsonValue v = parse_json("\"\\uD83D\\uDE00\"");
  EXPECT_EQ(v.as_string(), "\xF0\x9F\x98\x80");
  EXPECT_THROW(parse_json("\"\\uD83D\""), std::runtime_error);     // unpaired high
  EXPECT_THROW(parse_json("\"\\uDE00\""), std::runtime_error);     // lone low
  EXPECT_THROW(parse_json("\"\\uD83D\\u0041\""), std::runtime_error);  // bad pair
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(parse_json("{"), std::runtime_error);
  EXPECT_THROW(parse_json("[1, 2,]"), std::runtime_error);
  EXPECT_THROW(parse_json("{\"a\": 1} trailing"), std::runtime_error);
  EXPECT_THROW(parse_json("nope"), std::runtime_error);
  EXPECT_THROW(parse_json("\"unterminated"), std::runtime_error);
}

TEST(Json, LookupHelpers) {
  JsonValue doc = JsonValue::make_object();
  doc.set("a", 1);
  EXPECT_NE(doc.find("a"), nullptr);
  EXPECT_EQ(doc.find("b"), nullptr);
  EXPECT_THROW(doc.at("b"), std::runtime_error);
  EXPECT_THROW(doc.at("a").as_string(), std::runtime_error);
}

// --- CLI argument parser ----------------------------------------------------

TEST(Args, PositionalsAndKeyValuePairs) {
  const Args args = Args::parse({"run", "--users", "4", "--model", "nfs", "extra"});
  EXPECT_EQ(args.positional, (std::vector<std::string>{"run", "extra"}));
  EXPECT_EQ(args.get("model", ""), "nfs");
  EXPECT_EQ(args.count("users", 1), 4u);
  EXPECT_EQ(args.count("absent", 9), 9u);
}

TEST(Args, EqualsFormIsAlwaysUnambiguous) {
  const Args args = Args::parse({"--users=6", "--out=dir with spaces", "--scale=0.25"});
  EXPECT_EQ(args.count("users", 1), 6u);
  EXPECT_EQ(args.get("out", ""), "dir with spaces");
  EXPECT_DOUBLE_EQ(args.number("scale", 1.0), 0.25);
}

TEST(Args, BooleanFlagsDoNotSwallowTheNextToken) {
  // The historical bug: `experiments --check fig5_1` ate the positional.
  const Args args = Args::parse({"--check", "fig5_1", "--verbose"}, {"check", "verbose"});
  EXPECT_TRUE(args.boolean("check"));
  EXPECT_TRUE(args.boolean("verbose"));
  EXPECT_EQ(args.positional, (std::vector<std::string>{"fig5_1"}));
  EXPECT_THROW(Args::parse({"--check=yes"}, {"check"}), std::invalid_argument);
}

TEST(Args, TrailingAndValuelessFlagsActAsBooleans) {
  const Args args = Args::parse({"--verify", "--log"});
  EXPECT_TRUE(args.boolean("verify"));
  EXPECT_TRUE(args.boolean("log"));
}

TEST(Args, CountRejectsNegativeFractionalAndMalformedValues) {
  // `--users -1` used to static_cast a negative double to std::size_t (UB).
  EXPECT_THROW(Args::parse({"--users", "-1"}).count("users", 1), std::invalid_argument);
  EXPECT_THROW(Args::parse({"--users=1.5"}).count("users", 1), std::invalid_argument);
  EXPECT_THROW(Args::parse({"--users", "abc"}).count("users", 1), std::invalid_argument);
  EXPECT_THROW(Args::parse({"--users="}).count("users", 1), std::invalid_argument);
  // Out-of-range magnitudes are errors too — never a float-to-integer cast.
  EXPECT_THROW(Args::parse({"--users", "1e20"}).count("users", 1), std::invalid_argument);
  EXPECT_THROW(Args::parse({"--users", "20000000000000000000"}).count("users", 1),
               std::invalid_argument);
  EXPECT_EQ(Args::parse({"--users", "0"}).count("users", 1), 0u);
}

TEST(Args, NumberAcceptsNegativesButRejectsGarbage) {
  EXPECT_DOUBLE_EQ(Args::parse({"--markov", "-1"}).number("markov", 0.0), -1.0);
  EXPECT_THROW(Args::parse({"--markov", "x"}).number("markov", 0.0), std::invalid_argument);
  // strtod reads these, but no flag takes them: NaN passes every range check.
  for (const char* value : {"nan", "-nan", "inf", "-Infinity", "1e999"}) {
    EXPECT_THROW(Args::parse({"--scale", value}).number("scale", 1.0), std::invalid_argument)
        << value;
  }
}

TEST(Args, RequireKnownNamesTheMisspelledFlag) {
  // `--chek fig5_1` must not silently swallow a token into a key nobody
  // reads — the command's whitelist catches the typo.
  const Args args = Args::parse({"--chek", "fig5_1"});
  EXPECT_THROW(args.require_known({"check", "only"}), std::invalid_argument);
  Args::parse({"--check"}, {"check"}).require_known({"check", "only"});  // must not throw
}

TEST(CommandSpec, DerivesFlagSetsAndHelpFromOneTable) {
  const CommandSpec spec{"demo",
                         "<file>",
                         "a demo command",
                         {{"count", "N", "how many"}, {"fast", "", "skip checks"}}};
  EXPECT_EQ(spec.flag_names(), (std::set<std::string>{"count", "fast", "help"}));
  EXPECT_EQ(spec.boolean_flag_names(), (std::set<std::string>{"fast", "help"}));

  const std::string usage = spec.usage_line("prog");
  EXPECT_NE(usage.find("prog demo <file>"), std::string::npos);
  EXPECT_NE(usage.find("[--count N]"), std::string::npos);
  EXPECT_NE(usage.find("[--fast]"), std::string::npos);

  const std::string help = render_command_help("prog", spec);
  EXPECT_NE(help.find("a demo command"), std::string::npos);
  EXPECT_NE(help.find("how many"), std::string::npos);
  EXPECT_NE(help.find("--help"), std::string::npos);
}

TEST(CommandSpec, UsageLineWrapsWithAlignedContinuation) {
  CommandSpec spec{"cmd", "", "wide", {}};
  for (int i = 0; i < 12; ++i) {
    spec.flags.push_back({"flag-number-" + std::to_string(i), "VALUE", "x"});
  }
  const std::string usage = spec.usage_line("prog", 60);
  for (const auto& line : split(usage, '\n')) {
    EXPECT_LE(line.size(), 60u) << line;
  }
  EXPECT_NE(usage.find('\n'), std::string::npos);  // actually wrapped
}

// --- util::Config (the scenario file parser) --------------------------------

TEST(Config, ParsesSectionsKeysCommentsAndQuotes) {
  const Config config = Config::parse_text(
      "# full-line comment\n"
      "; also a comment\n"
      "top = 1\n"
      "[alpha]\n"
      "name = bare value with spaces   # trailing comment\n"
      "quoted = \" kept; spaces # and marks \"  ; comment after quote\n"
      "escaped = \"a\\\"b\\\\c\\n\"\n"
      "dotted.key = 2.5\n"
      "[beta]  # section trailing comment\n"
      "flag = on\n"
      "list = a, b , ,c\n");
  EXPECT_TRUE(config.has("top"));
  EXPECT_EQ(config.get_int("top", 0), 1);
  EXPECT_EQ(config.get_string("alpha.name"), "bare value with spaces");
  EXPECT_EQ(config.get_string("alpha.quoted"), " kept; spaces # and marks ");
  EXPECT_EQ(config.get_string("alpha.escaped"), "a\"b\\c\n");
  EXPECT_DOUBLE_EQ(config.get_double("alpha.dotted.key", 0.0), 2.5);
  EXPECT_TRUE(config.get_bool("beta.flag", false));
  EXPECT_EQ(config.get_list("beta.list"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(config.keys().front(), "top");  // file order preserved
  EXPECT_EQ(config.keys_with_prefix("alpha.").size(), 4u);
  EXPECT_EQ(config.get_string("absent", "fallback"), "fallback");
}

TEST(Config, TypedGetterErrorsCarryOriginAndLineNumber) {
  const Config config = Config::parse_text(
      "[a]\n"
      "count = many\n"
      "level = high\n"
      "flag = maybe\n"
      "ratio = nan\n"
      "limit = inf\n",
      "test.scn");
  EXPECT_EQ(config.line_of("a.count"), 2);
  for (const auto& probe : std::vector<std::function<void()>>{
           [&] { (void)config.get_int("a.count", 0); },
           [&] { (void)config.get_size("a.count", 0); },
           [&] { (void)config.get_double("a.level", 0.0); },
           [&] { (void)config.get_bool("a.flag", false); },
           [&] { (void)config.get_double("a.ratio", 0.0); },
           [&] { (void)config.get_double("a.limit", 0.0); }}) {
    try {
      probe();
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("test.scn:"), std::string::npos) << e.what();
    }
  }
  // Negative counts are rejected by get_size but fine for get_int.
  const Config negative = Config::parse_text("n = -3\n");
  EXPECT_EQ(negative.get_int("n", 0), -3);
  EXPECT_THROW((void)negative.get_size("n", 0), std::invalid_argument);
}

TEST(Config, ParseErrorsNameTheLine) {
  for (const char* bad : {
           "key value\n",                 // no '='
           "[section\n",                  // unterminated header
           "a = \"unterminated\n",        // unterminated quote
           "a = \"x\" trailing\n",        // text after closing quote
           "a = \"bad \\q escape\"\n",    // unknown escape
           "a!b = 1\n",                   // invalid key
           "a = 1\na = 2\n",              // duplicate key
       }) {
    try {
      (void)Config::parse_text(bad, "bad.cfg");
      FAIL() << "expected parse failure for: " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("bad.cfg:"), std::string::npos) << e.what();
    }
  }
  // The duplicate-key error names the first definition's line too.
  try {
    (void)Config::parse_text("a = 1\na = 2\n", "dup.cfg");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos) << e.what();
  }
}

TEST(Config, RequireKnownFlagsTheTypoWithItsLine) {
  const Config config = Config::parse_text(
      "[scenario]\nmode = contended\n[workload]\nuserz = 3\n[model]\nnfs.x = 1\n",
      "typo.scn");
  config.require_known({"scenario.mode", "workload.userz"}, {"model."});  // must not throw
  try {
    config.require_known({"scenario.mode"}, {"model."});
    FAIL() << "expected unknown-key failure";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("typo.scn:4"), std::string::npos) << message;
    EXPECT_NE(message.find("workload.userz"), std::string::npos) << message;
  }
}

TEST(Config, MissingFileErrorNamesThePath) {
  try {
    (void)Config::parse_file("/nonexistent/nowhere.scn");
    FAIL() << "expected missing-file failure";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/nowhere.scn"), std::string::npos);
  }
}

}  // namespace
}  // namespace wlgen::util
