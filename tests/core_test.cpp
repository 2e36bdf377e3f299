// Unit tests for src/core: workload model types, presets (paper Tables
// 5.1/5.2/5.4), the spec DSL (GDS), FSC, usage log round-trip, and the
// extension policies.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/ext.h"
#include "core/fsc.h"
#include "core/presets.h"
#include "core/spec.h"
#include "core/usage_log.h"
#include "core/workload.h"
#include "dist/basic.h"

namespace wlgen::core {
namespace {

TEST(Workload, CategoryLabelsMatchPaperStyle) {
  const FileCategory c{FileType::regular, FileOwner::notes, UseMode::read_write};
  EXPECT_EQ(c.label(), "REG/NOTES/RD-WRT");
  const FileCategory d{FileType::directory, FileOwner::user, UseMode::read_only};
  EXPECT_EQ(d.label(), "DIR/USER/RDONLY");
}

TEST(Workload, CategoryIndexIsInjective) {
  std::set<std::size_t> seen;
  for (const auto& c : all_categories()) {
    EXPECT_TRUE(seen.insert(c.index()).second) << c.label();
  }
  EXPECT_EQ(seen.size(), 24u);
}

TEST(Workload, PopulationNormalizesFractions) {
  Population p;
  p.groups.push_back({heavy_user(), 2.0});
  p.groups.push_back({light_user(), 6.0});
  p.validate_and_normalize();
  EXPECT_DOUBLE_EQ(p.groups[0].fraction, 0.25);
  EXPECT_DOUBLE_EQ(p.groups[1].fraction, 0.75);
  Population empty;
  EXPECT_THROW(empty.validate_and_normalize(), std::invalid_argument);
}

TEST(Workload, LargestRemainderApportionment) {
  // 6 users at 50/50 must split exactly 3 + 3 (the paper's populations).
  Population p = mixed_population(0.5);
  int heavy = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    if (p.type_for_user(i, 6).name == "heavy") ++heavy;
  }
  EXPECT_EQ(heavy, 3);
  // 5 users at 80/20 -> 4 heavy, 1 light.
  Population q = mixed_population(0.8);
  heavy = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    if (q.type_for_user(i, 5).name == "heavy") ++heavy;
  }
  EXPECT_EQ(heavy, 4);
}

TEST(Presets, Table51HasNineCategoriesSummingToOne) {
  const auto profiles = di86_file_profiles();
  EXPECT_EQ(profiles.size(), 9u);
  double total = 0.0;
  for (const auto& p : profiles) total += p.fraction_of_files;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Spot values from the paper's table.
  EXPECT_NEAR(profiles[0].size_dist->mean(), 714.0, 1e-9);
  EXPECT_NEAR(profiles[6].size_dist->mean(), 31347.0, 1e-9);
  EXPECT_NEAR(profiles[5].fraction_of_files, 0.382, 1e-9);
}

TEST(Presets, Table52UsageMeansMatchPaper) {
  const auto usage = di86_usage_profiles();
  EXPECT_EQ(usage.size(), 9u);
  // REG/USER/RDONLY row: 1.42 accesses/byte, 2608 B files, 6.0 files, 100%.
  const auto& row = usage[2];
  EXPECT_EQ(row.category.label(), "REG/USER/RDONLY");
  EXPECT_NEAR(row.accesses_per_byte->mean(), 1.42, 1e-9);
  EXPECT_NEAR(row.file_size->mean(), 2608.0, 1e-9);
  EXPECT_NEAR(row.files_per_session->mean(), 6.0, 1e-9);
  EXPECT_DOUBLE_EQ(row.prob_accessing_category, 1.0);
}

TEST(Presets, Table54UserTypesThinkTimes) {
  EXPECT_DOUBLE_EQ(extremely_heavy_user().think_time_us->mean(), 0.0);
  EXPECT_DOUBLE_EQ(heavy_user().think_time_us->mean(), 5000.0);
  EXPECT_DOUBLE_EQ(light_user().think_time_us->mean(), 20000.0);
  EXPECT_DOUBLE_EQ(heavy_user().access_size_bytes->mean(), 1024.0);
}

TEST(Presets, AccessSizeOverride) {
  const UserType u = with_access_size_mean(extremely_heavy_user(), 128.0);
  EXPECT_DOUBLE_EQ(u.access_size_bytes->mean(), 128.0);
  EXPECT_DOUBLE_EQ(u.think_time_us->mean(), 0.0);  // rest preserved
}

// ---------------------------------------------------------------------------
// Spec DSL (GDS).
// ---------------------------------------------------------------------------

TEST(Spec, ParsesEveryFamily) {
  EXPECT_NEAR(parse_distribution("constant(5)")->mean(), 5.0, 1e-12);
  EXPECT_NEAR(parse_distribution("uniform(2, 6)")->mean(), 4.0, 1e-12);
  EXPECT_NEAR(parse_distribution("exp(100)")->mean(), 100.0, 1e-12);
  EXPECT_NEAR(parse_distribution("exp(theta=100, s=10)")->mean(), 110.0, 1e-12);
  const auto phase =
      parse_distribution("phase_exp((w=0.4, theta=12.7, s=0), (w=0.6, theta=18.2, s=18))");
  EXPECT_NEAR(phase->mean(), 0.4 * 12.7 + 0.6 * (18.0 + 18.2), 1e-9);
  const auto gamma = parse_distribution("gamma((w=1, alpha=1.5, theta=25.4, s=12))");
  EXPECT_NEAR(gamma->mean(), 12.0 + 1.5 * 25.4, 1e-9);
  EXPECT_NO_THROW(parse_distribution("pdf_table((0,0), (1,2), (2,0))"));
  EXPECT_NO_THROW(parse_distribution("cdf_table((0,0), (1,0.5), (2,1))"));
}

TEST(Spec, WhitespaceAndCaseInsensitive) {
  EXPECT_NO_THROW(parse_distribution("  EXP ( theta = 100 ) "));
  EXPECT_NO_THROW(parse_distribution("Phase_Exp((w=1,theta=5,s=0))"));
}

TEST(Spec, RejectsMalformedInput) {
  EXPECT_THROW(parse_distribution(""), std::invalid_argument);
  EXPECT_THROW(parse_distribution("frobnicate(1)"), std::invalid_argument);
  EXPECT_THROW(parse_distribution("exp()"), std::invalid_argument);
  EXPECT_THROW(parse_distribution("exp(theta=1) trailing"), std::invalid_argument);
  EXPECT_THROW(parse_distribution("uniform(1)"), std::invalid_argument);
  EXPECT_THROW(parse_distribution("pdf_table((0,0,0))"), std::invalid_argument);
}

TEST(Spec, SerializationRoundTrips) {
  const std::vector<std::string> specs = {
      "constant(5)",
      "uniform(2, 6)",
      "exp(theta=100, s=10)",
      "phase_exp((w=0.4, theta=12.7, s=0), (w=0.6, theta=18.2, s=18))",
      "gamma((w=0.7, alpha=1.4, theta=12.4, s=0), (w=0.3, alpha=1.5, theta=12.4, s=23))",
  };
  for (const auto& text : specs) {
    const auto d = parse_distribution(text);
    const auto round = parse_distribution(serialize_distribution(*d));
    EXPECT_NEAR(round->mean(), d->mean(), 1e-9) << text;
    EXPECT_NEAR(round->variance(), d->variance(), 1e-6) << text;
  }
}

TEST(Spec, SerializationIsAFixedPointForEveryFamily) {
  // Every form the grammar accepts, aliases included.  Numbers of at most
  // 12 significant digits come back as the same doubles, so the re-parsed
  // distribution also draws the same samples bit for bit.
  const std::vector<std::string> specs = {
      "constant(5)",
      "uniform(2, 6)",
      "exp(theta=100, s=10)",
      "exp(42.5)",
      "phase_exp((w=0.4, theta=12.7, s=0), (w=0.6, theta=18.2, s=18))",
      "gamma((w=0.7, alpha=1.4, theta=12.4, s=0), (w=0.3, alpha=1.5, theta=12.4, s=23))",
      "multi_gamma((w=1, alpha=2, theta=3, s=1))",
      "pdf_table((0, 0), (10, 3), (20, 1.25), (40, 0))",
      "cdf_table((0, 0.2), (5, 0.5), (15, 0.7), (40, 0.9))",
  };
  for (const auto& text : specs) {
    SCOPED_TRACE(text);
    const auto d = parse_distribution(text);
    const std::string once = serialize_distribution(*d);
    const auto round = parse_distribution(once);
    EXPECT_EQ(serialize_distribution(*round), once);
    util::RngStream a(7, "round-trip");
    util::RngStream b(7, "round-trip");
    for (int i = 0; i < 1000; ++i) {
      const double x = d->sample(a);
      const double y = round->sample(b);
      ASSERT_EQ(std::memcmp(&x, &y, sizeof x), 0) << x << " vs " << y;
    }
  }
  EXPECT_EQ(serialize_distribution(*parse_distribution("cdf_table((0,0.2),(5,0.5),(40,0.9))")),
            "cdf_table((0, 0.2), (5, 0.5), (40, 0.9))");
}

TEST(Spec, SpecifierLoadGetRender) {
  DistributionSpecifier gds;
  gds.load_spec_text(
      "# usage distributions\n"
      "think_time = exp(theta=5000)\n"
      "access_size = exp(theta=1024)\n");
  EXPECT_TRUE(gds.contains("think_time"));
  EXPECT_EQ(gds.names().size(), 2u);
  EXPECT_NEAR(gds.get("access_size")->mean(), 1024.0, 1e-9);
  EXPECT_THROW(gds.get("missing"), std::out_of_range);
  const auto plot = gds.render_ascii("think_time");
  EXPECT_NE(plot.find('*'), std::string::npos);
  const auto svg = gds.render_svg("think_time");
  EXPECT_NE(svg.find("<svg"), std::string::npos);
}

TEST(Spec, SpecifierEmitsCdfTables) {
  DistributionSpecifier gds;
  gds.load_spec_text("x = exp(theta=100)\n");
  const auto table = gds.cdf_table("x", 128);
  EXPECT_EQ(table.size(), 128u);
  EXPECT_NEAR(table.quantile(0.5), 100.0 * std::log(2.0), 3.0);
}

TEST(Spec, SpecifierSerializeReloads) {
  DistributionSpecifier gds;
  gds.load_spec_text("a = exp(theta=10)\nb = gamma((w=1, alpha=2, theta=3, s=1))\n");
  DistributionSpecifier reload;
  reload.load_spec_text(gds.serialize());
  EXPECT_NEAR(reload.get("a")->mean(), 10.0, 1e-9);
  EXPECT_NEAR(reload.get("b")->mean(), 7.0, 1e-9);
}

// ---------------------------------------------------------------------------
// FSC.
// ---------------------------------------------------------------------------

TEST(Fsc, BuildsLayoutAndManifest) {
  fs::SimulatedFileSystem fsys;
  FscConfig config;
  config.num_users = 3;
  config.files_per_user = 40;
  config.system_files = 100;
  FileSystemCreator fsc(fsys, di86_file_profiles(), config);
  const CreatedFileSystem manifest = fsc.create();

  EXPECT_TRUE(fsys.exists("/system"));
  EXPECT_TRUE(fsys.exists("/users/u0"));
  EXPECT_TRUE(fsys.exists("/users/u2"));
  EXPECT_TRUE(fsys.exists("/users/u0/d0"));
  EXPECT_TRUE(fsys.exists("/system/notes0"));
  // 100 system + 3*40 user files, plus registered directories: /system,
  // /users, 2 notes + 2 other subdirs, and (1 home + 4 subdirs) x 3 users.
  EXPECT_EQ(manifest.file_count(), 100u + 120u + 2u + 4u + 15u);
  EXPECT_EQ(fsys.regular_file_count(), 220u);
  EXPECT_EQ(manifest.user_count(), 3u);

  // Every manifest entry resolves and has the recorded size.
  for (const auto& f : manifest.files()) {
    const auto st = fsys.stat(f.path);
    ASSERT_TRUE(st.ok()) << f.path;
    EXPECT_EQ(st.value().size, f.size) << f.path;
    EXPECT_EQ(st.value().inode, f.inode) << f.path;
  }
}

TEST(Fsc, PoolsRespectOwnership) {
  fs::SimulatedFileSystem fsys;
  FscConfig config;
  config.num_users = 2;
  config.files_per_user = 50;
  config.system_files = 80;
  FileSystemCreator fsc(fsys, di86_file_profiles(), config);
  const CreatedFileSystem manifest = fsc.create();

  const FileCategory user_rdonly{FileType::regular, FileOwner::user, UseMode::read_only};
  const auto& pool0 = manifest.pool(user_rdonly, 0);
  const auto& pool1 = manifest.pool(user_rdonly, 1);
  EXPECT_FALSE(pool0.empty());
  EXPECT_FALSE(pool1.empty());
  for (std::size_t idx : pool0) {
    EXPECT_EQ(manifest.files()[idx].owner_user, 0u);
    EXPECT_TRUE(manifest.files()[idx].path.starts_with("/users/u0/"));
  }
  // NOTES files are shared: the same pool regardless of user.
  const FileCategory notes{FileType::regular, FileOwner::notes, UseMode::read_only};
  EXPECT_EQ(&manifest.pool(notes, 0), &manifest.pool(notes, 1));
  for (std::size_t idx : manifest.pool(notes, 0)) {
    EXPECT_TRUE(manifest.files()[idx].path.starts_with("/system/"));
  }
}

TEST(Fsc, CategoryFractionsApproximatelyRespected) {
  fs::SimulatedFileSystem fsys;
  FscConfig config;
  config.num_users = 4;
  config.files_per_user = 500;
  config.system_files = 400;
  FileSystemCreator fsc(fsys, di86_file_profiles(), config);
  const CreatedFileSystem manifest = fsc.create();

  // Among user-owned regular files, TEMP should dominate RDONLY per the
  // 38.2% vs 21.8% Table 5.1 fractions (ratio ~1.75).
  std::size_t temp = 0, rdonly = 0;
  for (const auto& f : manifest.files()) {
    if (f.category.owner != FileOwner::user) continue;
    if (f.category.use == UseMode::temp) ++temp;
    if (f.category.use == UseMode::read_only && f.category.file_type == FileType::regular) {
      ++rdonly;
    }
  }
  EXPECT_GT(temp, rdonly);
  const double ratio = static_cast<double>(temp) / static_cast<double>(rdonly);
  EXPECT_NEAR(ratio, 0.382 / 0.218, 0.4);
}

TEST(Fsc, MeanSizesTrackTable51) {
  fs::SimulatedFileSystem fsys;
  FscConfig config;
  config.num_users = 2;
  config.files_per_user = 1500;
  config.system_files = 1000;
  FileSystemCreator fsc(fsys, di86_file_profiles(), config);
  const CreatedFileSystem manifest = fsc.create();

  double notes_sum = 0.0;
  std::size_t notes_n = 0;
  for (const auto& f : manifest.files()) {
    if (f.category.owner == FileOwner::notes && f.category.use == UseMode::read_only) {
      notes_sum += static_cast<double>(f.size);
      ++notes_n;
    }
  }
  ASSERT_GT(notes_n, 50u);
  EXPECT_NEAR(notes_sum / static_cast<double>(notes_n), 31347.0, 31347.0 * 0.25);
}

TEST(Fsc, DeterministicForFixedSeed) {
  const auto build = [](std::uint64_t seed) {
    fs::SimulatedFileSystem fsys;
    FscConfig config;
    config.num_users = 1;
    config.seed = seed;
    FileSystemCreator fsc(fsys, di86_file_profiles(), config);
    const auto manifest = fsc.create();
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (const auto& f : manifest.files()) out.emplace_back(f.path, f.size);
    return out;
  };
  EXPECT_EQ(build(5), build(5));
  EXPECT_NE(build(5), build(6));
}

/// FNV-1a digest of a layout: every manifest entry in order, every entry's
/// stat (timestamps included) and the inode id and fd the next creat gets.
std::uint64_t layout_digest(fs::SimulatedFileSystem& fsys, const CreatedFileSystem& manifest) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto add = [&h](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  for (const CreatedFile& f : manifest.files()) {
    for (const char c : f.path) add(static_cast<unsigned char>(c));
    add(f.category.index());
    add(f.size);
    add(f.inode);
    add(f.owner_user);
    const auto st = fsys.stat(f.path);
    add(static_cast<std::uint64_t>(st.status()));
    add(st.value().inode);
    add(static_cast<std::uint64_t>(st.value().kind));
    add(st.value().size);
    add(st.value().link_count);
    add(static_cast<std::uint64_t>(st.value().created_at * 1000.0));
    add(static_cast<std::uint64_t>(st.value().modified_at * 1000.0));
  }
  add(manifest.user_count());
  add(fsys.inode_count());
  const auto probe = fsys.creat("/probe");
  add(static_cast<std::uint64_t>(probe.value()));
  add(fsys.fstat(probe.value()).value().inode);
  return h;
}

TEST(Fsc, UserRangeLayoutIsPinned) {
  const auto build = [](std::size_t first_user, std::size_t num_users,
                        fs::SimulatedFileSystem& fsys) {
    FscConfig config;
    config.first_user = first_user;
    config.num_users = num_users;
    config.seed = 11;
    return FileSystemCreator(fsys, di86_file_profiles(), config).create();
  };
  fs::SimulatedFileSystem range_fs;
  const CreatedFileSystem range = build(2, 3, range_fs);
  fs::SimulatedFileSystem full_fs;
  const CreatedFileSystem full = build(0, 5, full_fs);

  // Users [2,5) of the range build are the full build's users 2..4: the same
  // files, categories, sizes and directory sizes in the same order; the
  // system tree is the same down to its inode ids.
  const auto entries = [](const CreatedFileSystem& manifest, fs::SimulatedFileSystem& fsys) {
    std::vector<std::tuple<std::string, std::size_t, std::uint64_t, std::uint64_t>> out;
    for (const CreatedFile& f : manifest.files()) {
      if (f.owner_user != CreatedFile::kSystemOwner && f.owner_user < 2) continue;
      const bool system = f.owner_user == CreatedFile::kSystemOwner;
      if (system && f.path == "/users") continue;  // its size counts every user
      out.emplace_back(f.path, f.category.index(), fsys.stat(f.path).value().size,
                       system ? f.inode : 0);
    }
    return out;
  };
  EXPECT_EQ(entries(range, range_fs), entries(full, full_fs));

  // Pinned: every path's stat, the manifest order and the next inode/fd.
  EXPECT_EQ(layout_digest(range_fs, range), 3462708026632864210ULL);
  EXPECT_EQ(layout_digest(full_fs, full), 18036049541789895880ULL);
}

TEST(Fsc, RejectsBadConfig) {
  fs::SimulatedFileSystem fsys;
  FscConfig config;
  config.num_users = 0;
  EXPECT_THROW(FileSystemCreator(fsys, di86_file_profiles(), config), std::invalid_argument);
  EXPECT_THROW(FileSystemCreator(fsys, {}, FscConfig{}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Usage log.
// ---------------------------------------------------------------------------

TEST(UsageLogTest, SerializationRoundTrips) {
  UsageLog log;
  OpRecord r;
  r.issue_time_us = 123.5;
  r.response_us = 42.25;
  r.user = 3;
  r.session = 7;
  r.op = fsmodel::FsOpType::write;
  r.requested_bytes = 1024;
  r.actual_bytes = 900;
  r.file_id = 55;
  r.file_size = 4096;
  r.category = FileCategory{FileType::regular, FileOwner::notes, UseMode::read_write};
  log.append(r);

  const UsageLog parsed = UsageLog::parse(log.serialize());
  ASSERT_EQ(parsed.size(), 1u);
  const OpRecord& p = parsed.records()[0];
  EXPECT_DOUBLE_EQ(p.issue_time_us, 123.5);
  EXPECT_DOUBLE_EQ(p.response_us, 42.25);
  EXPECT_EQ(p.user, 3u);
  EXPECT_EQ(p.session, 7u);
  EXPECT_EQ(p.op, fsmodel::FsOpType::write);
  EXPECT_EQ(p.requested_bytes, 1024u);
  EXPECT_EQ(p.actual_bytes, 900u);
  EXPECT_EQ(p.category.label(), "REG/NOTES/RD-WRT");
}

TEST(UsageLogTest, ParseRejectsGarbage) {
  EXPECT_THROW(UsageLog::parse("1\t2\t3\n"), std::invalid_argument);
  EXPECT_THROW(UsageLog::parse("a\tb\tc\td\te\tf\tg\th\ti\tj\tk\tl\n"), std::invalid_argument);
  EXPECT_EQ(UsageLog::parse("# comment only\n").size(), 0u);
}

// ---------------------------------------------------------------------------
// Extensions.
// ---------------------------------------------------------------------------

TEST(Ext, IndependentStreamIsUniform) {
  IndependentOpStream policy;
  util::RngStream rng(1, "ind");
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 8000; ++i) ++counts[policy.choose(4, 0, rng)];
  for (int c : counts) EXPECT_NEAR(c, 2000, 250);
}

TEST(Ext, MarkovStreamPersists) {
  MarkovOpStream policy(0.9);
  util::RngStream rng(1, "markov");
  int stayed = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (policy.choose(10, 3, rng) == 3) ++stayed;
  }
  // P(stay) = 0.9 + 0.1 * (1/10) = 0.91.
  EXPECT_NEAR(static_cast<double>(stayed) / n, 0.91, 0.03);
  EXPECT_THROW(MarkovOpStream(1.0), std::invalid_argument);
  EXPECT_THROW(MarkovOpStream(-0.1), std::invalid_argument);
}

TEST(Ext, MarkovWithoutPreviousFallsBackToUniform) {
  MarkovOpStream policy(0.9);
  util::RngStream rng(1, "markov2");
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 4000; ++i) ++counts[policy.choose(4, OpStreamPolicy::kNone, rng)];
  for (int c : counts) EXPECT_GT(c, 700);
}

TEST(Ext, OffsetChoosersStayInRange) {
  util::RngStream rng(2, "off");
  for (const AccessPattern p : {AccessPattern::uniform_random, AccessPattern::zipf_block}) {
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t off = choose_offset(p, 10000, 512, rng);
      EXPECT_LE(off, 10000u - 512u);
    }
  }
  EXPECT_EQ(choose_offset(AccessPattern::uniform_random, 100, 512, rng), 0u);
  EXPECT_THROW(choose_offset(AccessPattern::sequential, 100, 10, rng), std::logic_error);
}

TEST(Ext, ZipfFavoursHead) {
  util::RngStream rng(3, "zipf");
  std::size_t head = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (choose_offset(AccessPattern::zipf_block, 100000, 1, rng) < 10000) ++head;
  }
  // Log-uniform: P(off < 10%) = log(10^4)/log(10^5) ~ 0.8.
  EXPECT_GT(static_cast<double>(head) / n, 0.6);
}

}  // namespace
}  // namespace wlgen::core
