// Streaming log pipeline: binary codec, spill sink, k-way merge reader and
// the text-streaming adapters (DESIGN.md "Streaming log pipeline").
#include "core/log_sink.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/usage_log.h"
#include "util/strings.h"
#include "util/svg.h"

namespace wlgen::core {
namespace {

OpRecord make_record(std::uint32_t user, double issue_us, double response_us,
                     std::uint64_t bytes = 512) {
  OpRecord r;
  r.issue_time_us = issue_us;
  r.response_us = response_us;
  r.user = user;
  r.session = user * 2 + 1;
  r.op = fsmodel::FsOpType::read;
  r.category = {FileType::regular, FileOwner::notes, UseMode::read_write};
  r.requested_bytes = bytes;
  r.actual_bytes = bytes;
  r.file_id = 7000 + user;
  r.file_size = 4096;
  return r;
}

std::string temp_dir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("wlgen_log_sink_") + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(RecordCodec, RoundTripsEveryFieldBitExact) {
  OpRecord r = make_record(42, 123.456789012345678, 9.000000000000002e-3);
  r.op = fsmodel::FsOpType::creat;
  r.category = {FileType::directory, FileOwner::other, UseMode::temp};
  r.requested_bytes = 0xDEADBEEFCAFEull;
  r.actual_bytes = 0x123456789ABCull;
  r.file_id = 0xFFFFFFFFFFFFFFFFull;
  r.file_size = 1;

  unsigned char buffer[kSpillRecordBytes];
  encode_record(r, buffer);
  const OpRecord d = decode_record(buffer);

  // Doubles travel as raw IEEE bits: compare representations, not values.
  EXPECT_EQ(std::memcmp(&d.issue_time_us, &r.issue_time_us, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&d.response_us, &r.response_us, sizeof(double)), 0);
  EXPECT_EQ(d.user, r.user);
  EXPECT_EQ(d.session, r.session);
  EXPECT_EQ(d.op, r.op);
  EXPECT_EQ(d.category, r.category);
  EXPECT_EQ(d.requested_bytes, r.requested_bytes);
  EXPECT_EQ(d.actual_bytes, r.actual_bytes);
  EXPECT_EQ(d.file_id, r.file_id);
  EXPECT_EQ(d.file_size, r.file_size);
}

TEST(RecordCodec, PreservesNonFiniteAndDenormalDoubles) {
  for (double value : {0.0, -0.0, 5e-324, std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
    OpRecord r = make_record(1, value, value);
    unsigned char buffer[kSpillRecordBytes];
    encode_record(r, buffer);
    const OpRecord d = decode_record(buffer);
    EXPECT_EQ(std::memcmp(&d.issue_time_us, &r.issue_time_us, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&d.response_us, &r.response_us, sizeof(double)), 0);
  }
}

TEST(SpillSink, SingleRunRoundTrip) {
  const std::string dir = temp_dir("single");
  SpillSink sink(dir, "shard000000", 1024);
  std::vector<OpRecord> records;
  for (std::uint32_t u = 0; u < 5; ++u) {
    for (int i = 0; i < 7; ++i) {
      records.push_back(make_record(u, 100.0 * i + u, 3.5 * i));
      sink.append(records.back());
    }
  }
  sink.close();
  ASSERT_EQ(sink.runs().size(), 1u);
  EXPECT_EQ(sink.records_written(), records.size());
  EXPECT_EQ(sink.runs()[0].bytes,
            kSpillHeaderBytes + records.size() * kSpillRecordBytes);

  auto reader = open_spilled_log(sink.runs());
  const UsageLog log = materialize(*reader);

  // Ground truth: the exact merge contract (stable sort by time then user).
  std::vector<OpRecord> expected = records;
  std::stable_sort(expected.begin(), expected.end(), [](const auto& a, const auto& b) {
    if (a.issue_time_us != b.issue_time_us) return a.issue_time_us < b.issue_time_us;
    return a.user < b.user;
  });
  ASSERT_EQ(log.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(log.records()[i].issue_time_us, expected[i].issue_time_us);
    EXPECT_EQ(log.records()[i].user, expected[i].user);
    EXPECT_EQ(log.records()[i].file_id, expected[i].file_id);
  }
  std::filesystem::remove_all(dir);
}

TEST(SpillSink, CutsRunsOnlyAtUserBoundaries) {
  const std::string dir = temp_dir("boundaries");
  // Tiny buffer so nearly every user boundary cuts a run — but a single
  // user's burst (longer than the buffer) must still stay in one run.
  const auto feed = [](SpillSink& sink) {
    for (int i = 0; i < 11; ++i) sink.append(make_record(0, i, 1.0));  // > buffer
    for (std::uint32_t u = 1; u < 6; ++u) {
      for (int i = 0; i < 3; ++i) sink.append(make_record(u, i, 1.0));
    }
    sink.close();
  };
  SpillSink sink(dir, "s", 4);
  feed(sink);
  ASSERT_GE(sink.runs().size(), 2u);

  // No user may appear in two runs.
  std::vector<std::uint32_t> owner_run(16, UINT32_MAX);
  for (std::size_t run_index = 0; run_index < sink.runs().size(); ++run_index) {
    RunFileReader reader(sink.runs()[run_index]);
    OpRecord r;
    while (reader.next(r)) {
      if (owner_run[r.user] == UINT32_MAX) {
        owner_run[r.user] = static_cast<std::uint32_t>(run_index);
      }
      EXPECT_EQ(owner_run[r.user], run_index) << "user " << r.user << " straddles runs";
    }
  }
  EXPECT_EQ(sink.records_written(), 11u + 5u * 3u);

  // Without a directory the same appends are cut at the same places, each
  // run held in memory, and merge to the same stream — with no file made.
  SpillSink memory("", "s", 4);
  feed(memory);
  ASSERT_EQ(memory.runs().size(), sink.runs().size());
  EXPECT_EQ(memory.records_written(), sink.records_written());
  EXPECT_EQ(memory.bytes_written(), 0u);
  for (std::size_t i = 0; i < memory.runs().size(); ++i) {
    const SpillRun& run = memory.runs()[i];
    EXPECT_TRUE(run.path.empty());
    ASSERT_NE(run.memory, nullptr);
    EXPECT_EQ(run.records, sink.runs()[i].records);
    EXPECT_EQ(materialize(*open_spilled_log({run})).serialize(),
              materialize(*open_spilled_log({sink.runs()[i]})).serialize())
        << "run " << i;
  }
  EXPECT_EQ(materialize(*open_spilled_log(memory.runs())).serialize(),
            materialize(*open_spilled_log(sink.runs())).serialize());
  EXPECT_FALSE(std::filesystem::exists("s_run000000.wlr"));
  std::filesystem::remove_all(dir);
}

TEST(MergeLogReader, HandlesZeroAndOneInput) {
  std::vector<std::unique_ptr<LogReader>> none;
  MergeLogReader empty(std::move(none));
  OpRecord r;
  EXPECT_FALSE(empty.next(r));

  UsageLog log;
  log.append(make_record(3, 1.0, 2.0));
  log.append(make_record(3, 5.0, 2.0));
  std::vector<std::unique_ptr<LogReader>> one;
  one.push_back(std::make_unique<MemoryLogReader>(log));
  MergeLogReader single(std::move(one));
  ASSERT_TRUE(single.next(r));
  EXPECT_EQ(r.issue_time_us, 1.0);
  ASSERT_TRUE(single.next(r));
  EXPECT_EQ(r.issue_time_us, 5.0);
  EXPECT_FALSE(single.next(r));
}

TEST(MergeLogReader, MergesWithEmptyInputsAndTieBreaksByUser) {
  // Inputs 0 and 2 are empty; 1 and 3 tie on issue_time everywhere, so the
  // user index decides — exactly the merge_user_logs contract.
  UsageLog a;
  a.append(make_record(7, 10.0, 1.0));
  a.append(make_record(7, 20.0, 1.0));
  UsageLog b;
  b.append(make_record(2, 10.0, 1.0));
  b.append(make_record(2, 20.0, 1.0));
  UsageLog empty_log;

  std::vector<std::unique_ptr<LogReader>> inputs;
  inputs.push_back(std::make_unique<MemoryLogReader>(empty_log));
  inputs.push_back(std::make_unique<MemoryLogReader>(a));
  inputs.push_back(std::make_unique<MemoryLogReader>(empty_log));
  inputs.push_back(std::make_unique<MemoryLogReader>(b));
  MergeLogReader merge(std::move(inputs));

  std::vector<std::uint32_t> users;
  OpRecord r;
  while (merge.next(r)) users.push_back(r.user);
  EXPECT_EQ(users, (std::vector<std::uint32_t>{2, 7, 2, 7}));
}

TEST(MergeLogReader, PreservesWithinUserOrderOnEqualTimestamps) {
  // Same (time, user) repeatedly in ONE input: input order must survive —
  // the stable-sort half of the merge contract.
  UsageLog log;
  for (std::uint64_t i = 0; i < 6; ++i) log.append(make_record(4, 50.0, 1.0, 100 + i));
  std::vector<std::unique_ptr<LogReader>> inputs;
  inputs.push_back(std::make_unique<MemoryLogReader>(log));
  MergeLogReader merge(std::move(inputs));
  OpRecord r;
  for (std::uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(merge.next(r));
    EXPECT_EQ(r.requested_bytes, 100 + i);
  }
  EXPECT_FALSE(merge.next(r));
}

TEST(MergeLogReader, ManyInputsMatchGlobalStableSort) {
  std::mt19937 rng(1992);
  std::vector<UsageLog> logs(9);
  std::vector<OpRecord> all;
  for (std::uint32_t input = 0; input < logs.size(); ++input) {
    double t = 0.0;
    const int count = static_cast<int>(rng() % 40);  // some inputs empty
    for (int i = 0; i < count; ++i) {
      t += static_cast<double>(rng() % 5);  // nondecreasing, frequent ties
      const OpRecord r = make_record(input, t, 1.0, all.size());
      logs[input].append(r);
      all.push_back(r);
    }
  }
  std::vector<std::unique_ptr<LogReader>> inputs;
  for (const auto& log : logs) inputs.push_back(std::make_unique<MemoryLogReader>(log));
  MergeLogReader merge(std::move(inputs));

  std::stable_sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.issue_time_us != b.issue_time_us) return a.issue_time_us < b.issue_time_us;
    return a.user < b.user;
  });
  OpRecord r;
  for (const auto& expected : all) {
    ASSERT_TRUE(merge.next(r));
    EXPECT_EQ(r.issue_time_us, expected.issue_time_us);
    EXPECT_EQ(r.user, expected.user);
    EXPECT_EQ(r.requested_bytes, expected.requested_bytes);
  }
  EXPECT_FALSE(merge.next(r));
}

TEST(RunFileReader, RejectsBadMagicAndTruncation) {
  const std::string dir = temp_dir("corrupt");
  SpillSink sink(dir, "x", 64);
  for (int i = 0; i < 10; ++i) sink.append(make_record(0, i, 1.0));
  sink.close();
  ASSERT_EQ(sink.runs().size(), 1u);
  SpillRun run = sink.runs()[0];

  // Truncate the file mid-record.
  std::filesystem::resize_file(run.path, run.bytes - 7);
  {
    RunFileReader reader(run);
    OpRecord r;
    EXPECT_THROW({ while (reader.next(r)) {} }, std::runtime_error);
  }

  // Corrupt the magic.
  {
    std::FILE* f = std::fopen(run.path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fputc('X', f);
    std::fclose(f);
  }
  EXPECT_THROW(RunFileReader{run}, std::runtime_error);

  SpillRun missing = run;
  missing.path += ".nope";
  EXPECT_THROW(RunFileReader{missing}, std::runtime_error);
  std::filesystem::remove_all(dir);
}

// The op byte indexes per-op tables downstream (the resume fold, the
// analyzer), so a run file whose op byte names no FsOpType is refused.
TEST(RunFileReader, RejectsAnUnknownOpCode) {
  const std::string dir = temp_dir("bad_op");
  SpillSink sink(dir, "x", 64);
  for (int i = 0; i < 3; ++i) sink.append(make_record(0, i, 1.0));
  sink.close();
  ASSERT_EQ(sink.runs().size(), 1u);
  const SpillRun run = sink.runs()[0];
  {
    std::FILE* f = std::fopen(run.path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 16 + kSpillRecordBytes + 24, SEEK_SET);  // second record's op byte
    std::fputc(static_cast<int>(fsmodel::kFsOpTypeCount), f);
    std::fclose(f);
  }
  RunFileReader reader(run);
  OpRecord r;
  EXPECT_TRUE(reader.next(r));
  try {
    reader.next(r);
    FAIL() << "accepted an unknown op code";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(run.path), std::string::npos) << e.what();
  }
  std::filesystem::remove_all(dir);
}

TEST(TextAdapters, WriteLogTextMatchesSerialize) {
  UsageLog log;
  for (std::uint32_t u = 0; u < 3; ++u) {
    log.append(make_record(u, 0.1 + u * 1e-9, 1234.5678901234567));
  }
  std::ostringstream out;
  MemoryLogReader reader(log);
  const std::uint64_t written = write_log_text(reader, out);
  EXPECT_EQ(written, log.size());
  EXPECT_EQ(out.str(), log.serialize());
}

// Empty when the texts are equal, else the first differing line of each:
// a full EXPECT_EQ diff of two multi-megabyte texts would be unreadable.
std::string first_difference(const std::string& got, const std::string& want) {
  if (got == want) return "";
  const auto [g, w] = std::mismatch(got.begin(), got.end(), want.begin(), want.end());
  const auto line_of = [](const std::string& text, std::string::const_iterator at) {
    const std::size_t pos = static_cast<std::size_t>(at - text.begin());
    const std::size_t begin = pos == 0 ? 0 : text.rfind('\n', pos - 1) + 1;
    return text.substr(begin, text.find('\n', pos) - begin);
  };
  return "got  '" + line_of(got, g) + "'\nwant '" + line_of(want, w) + "'";
}

// A log text of about 2.5 MiB, enough for 4 threads to cut 4 chunks, with
// a block of CRLF, comment and blank lines spanning every point where the
// parser cuts it into 2, 3 or 4 chunks, and no newline after its last line.
// `replace` swaps record lines, by record index, for other text; the
// 1-based line each replaced record was on lands in `line_of`.
struct CutText {
  std::string text;
  UsageLog log;  ///< the records the text holds, replaced ones left out
  std::map<std::size_t, std::size_t> line_of;
};

constexpr std::size_t kCutTextRecords = 28000;

CutText cut_text(const std::map<std::size_t, std::string>& replace = {}) {
  // The block's record line: CRLF-terminated, like everything around it.
  const std::string block_record = "7.25\t2.5\t3\t4\tread\t5\t6\t7\t8\t1\t0\t2";
  std::string block;
  for (int i = 0; i < 4; ++i) block += "# cut point\r\n\r\n  \t \r\n" + block_record + "\r\n\n";

  std::vector<std::string> lines;
  std::vector<OpRecord> records;
  for (std::size_t i = 0; i < kCutTextRecords; ++i) {
    const double at = static_cast<double>(i);
    OpRecord r = make_record(static_cast<std::uint32_t>(i % 97), 0.1 + 1.37 * at,
                             1234.5678901234567 / (at + 1.0), i * 7);
    r.op = static_cast<fsmodel::FsOpType>(i % fsmodel::kFsOpTypeCount);
    char line[kMaxRecordTextBytes];
    const auto it = replace.find(i);
    lines.push_back(it != replace.end() ? it->second + "\n"
                                        : std::string(line, format_record_text(r, line)));
    records.push_back(r);
  }
  lines.back().pop_back();  // no newline after the last line

  const std::string header = usage_log_header_line();
  std::size_t size = header.size() + 5 * block.size();
  std::size_t longest = 0;
  for (const auto& line : lines) {
    size += line.size();
    longest = std::max(longest, line.size());
  }
  // The cuts parse_log_text makes before moving to the next newline, as
  // (first, last) pairs of targets one block must span.
  const std::pair<std::size_t, std::size_t> cuts[] = {
      {size / 4, size / 4},
      {size / 3, size / 3},
      {std::min(size / 2, size / 4 * 2), std::max(size / 2, size / 4 * 2)},
      {size / 3 * 2, size / 3 * 2},
      {size / 4 * 3, size / 4 * 3}};
  EXPECT_GT(block.size(), longest + 24);

  CutText out;
  out.text = header;
  std::size_t line_number = 1;  // the header's
  std::size_t next_cut = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    // The first line start within (block - 16) bytes of a cut takes the
    // block: the previous start was further away, so this one is at or
    // before the cut, and the cut's newline falls inside the block.
    if (next_cut < std::size(cuts) &&
        out.text.size() + block.size() - 16 > cuts[next_cut].second) {
      EXPECT_LE(out.text.size(), cuts[next_cut].first);
      out.text += block;
      line_number += static_cast<std::size_t>(std::count(block.begin(), block.end(), '\n'));
      for (int b = 0; b < 4; ++b) out.log.append(parse_record_line(block_record));
      ++next_cut;
    }
    out.text += lines[i];
    ++line_number;
    if (replace.count(i)) {
      out.line_of[i] = line_number;
    } else {
      out.log.append(records[i]);
    }
  }
  EXPECT_EQ(next_cut, std::size(cuts));
  EXPECT_EQ(out.text.size(), size);
  EXPECT_GE(out.text.size(), 2u << 20);
  return out;
}

TEST(TextAdapters, ParseLogTextRoundTrips) {
  UsageLog log;
  log.append(make_record(0, 1.5, 2.5));
  log.append(make_record(9, 3.25, 0.125, 0));
  const std::string text = log.serialize();

  const UsageLog parsed = parse_log_text(text, 1);
  ASSERT_EQ(parsed.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(parsed.records()[i].issue_time_us, log.records()[i].issue_time_us);
    EXPECT_EQ(parsed.records()[i].user, log.records()[i].user);
    EXPECT_EQ(parsed.records()[i].actual_bytes, log.records()[i].actual_bytes);
  }

  // Chunked: every thread budget parses the same records in the same order,
  // whatever the lines at the cuts.
  const CutText big = cut_text();
  const std::string expected = big.log.serialize();
  for (std::size_t threads = 1; threads <= 4; ++threads) {
    SCOPED_TRACE(threads);
    const UsageLog chunked = parse_log_text(big.text, threads);
    EXPECT_EQ(chunked.size(), big.log.size());
    EXPECT_EQ(first_difference(chunked.serialize(), expected), "");
  }
}

// ---------------------------------------------------------------------------
// Text codec: the to_chars writer against the historical iostream formatter,
// and the in-place parser against the historical strtod/parse_int path.
// ---------------------------------------------------------------------------

// The record formatter the text log was defined by: an ostream at
// precision(17), i.e. printf %.17g doubles.  Kept here as the reference the
// to_chars writer must match byte for byte.
std::string reference_text(const std::vector<OpRecord>& records) {
  std::ostringstream out;
  out.precision(17);
  out << usage_log_header_line();
  for (const OpRecord& r : records) {
    out << r.issue_time_us << '\t' << r.response_us << '\t' << r.user << '\t' << r.session
        << '\t' << fsmodel::to_string(r.op) << '\t' << r.requested_bytes << '\t'
        << r.actual_bytes << '\t' << r.file_id << '\t' << r.file_size << '\t'
        << static_cast<int>(r.category.file_type) << '\t'
        << static_cast<int>(r.category.owner) << '\t' << static_cast<int>(r.category.use)
        << '\n';
  }
  return out.str();
}

double from_bits(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Asserts that all three writers reproduce the reference formatter.
void expect_writers_match_reference(const std::vector<OpRecord>& records, const char* tag) {
  UsageLog log;
  for (const auto& r : records) log.append(r);
  const std::string expected = reference_text(records);

  EXPECT_EQ(first_difference(log.serialize(), expected), "") << "serialize()";

  std::ostringstream stream;
  MemoryLogReader stream_reader(log);
  EXPECT_EQ(write_log_text(stream_reader, stream), records.size());
  EXPECT_EQ(first_difference(stream.str(), expected), "") << "write_log_text";

  const std::string dir = temp_dir(tag);
  const std::string path = dir + "/sub/usage.log";  // parent created on demand
  MemoryLogReader file_reader(log);
  EXPECT_EQ(write_log_file(file_reader, path, 4), records.size());
  EXPECT_EQ(first_difference(util::read_text_file(path), expected), "") << "write_log_file";
  std::filesystem::remove_all(dir);
}

// Edge values a record can carry: signed zeros, infinities, NaNs of both
// signs, the extreme finite doubles, integers past 2^53 and the unsigned
// maxima.
std::vector<OpRecord> edge_records() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double doubles[] = {0.0,
                            -0.0,
                            inf,
                            -inf,
                            nan,
                            -nan,
                            std::numeric_limits<double>::denorm_min(),
                            -std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::min(),
                            std::numeric_limits<double>::max(),
                            -std::numeric_limits<double>::max(),
                            9007199254740992.0,  // 2^53
                            18446744073709551616.0,
                            0.1,
                            1e21,
                            1e-7,
                            123456789012345678.0};
  const std::uint64_t integers[] = {0,
                                    1,
                                    (1ull << 53) + 1,
                                    std::numeric_limits<std::int64_t>::max(),
                                    std::numeric_limits<std::uint64_t>::max()};
  std::vector<OpRecord> records;
  for (double d : doubles) {
    for (std::uint64_t n : integers) {
      OpRecord r = make_record(std::numeric_limits<std::uint32_t>::max(), d, -d, n);
      r.session = std::numeric_limits<std::uint32_t>::max();
      r.file_id = n;
      r.file_size = n;
      records.push_back(r);
    }
  }
  return records;
}

TEST(TextWriter, MatchesIostreamReferenceOnRandomRecords) {
  std::mt19937_64 rng(20240613);
  std::uniform_real_distribution<double> time(0.0, 1e9);
  std::vector<OpRecord> records;
  constexpr std::size_t kRecords = 120000;
  records.reserve(kRecords);
  for (std::size_t i = 0; i < kRecords; ++i) {
    OpRecord r;
    // Alternate realistic magnitudes with raw bit patterns, which reach
    // denormals, infinities and NaN payloads.
    if (i % 2 == 0) {
      r.issue_time_us = time(rng);
      r.response_us = time(rng) * 1e-6;
    } else {
      r.issue_time_us = from_bits(rng());
      r.response_us = from_bits(rng());
    }
    r.user = static_cast<std::uint32_t>(rng());
    r.session = static_cast<std::uint32_t>(rng() >> (rng() % 32));
    r.op = static_cast<fsmodel::FsOpType>(rng() % 10);
    r.requested_bytes = rng() >> (rng() % 64);
    r.actual_bytes = rng() >> (rng() % 64);
    r.file_id = rng();
    r.file_size = rng() >> (rng() % 64);
    r.category = {static_cast<FileType>(rng() % 2), static_cast<FileOwner>(rng() % 3),
                  static_cast<UseMode>(rng() % 4)};
    records.push_back(r);
  }
  expect_writers_match_reference(records, "writer_random");
}

TEST(TextWriter, MatchesIostreamReferenceOnEdgeValues) {
  expect_writers_match_reference(edge_records(), "writer_edges");
  expect_writers_match_reference({}, "writer_empty");
}

// Records per formatting block (kTextBlockRecords in log_sink.cpp).
constexpr std::size_t kBlockRecords = 4096;

// `count` varied records in the order a producer hands them to a SpillSink:
// users ascending, each user's issue times nondecreasing.
UsageLog spill_ordered_log(std::size_t count) {
  std::mt19937_64 rng(count);
  std::uniform_real_distribution<double> think(0.0, 5e4);
  UsageLog log;
  double issue = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const auto user = static_cast<std::uint32_t>(i / 97);
    issue = i % 97 == 0 ? think(rng) : issue + think(rng);
    OpRecord r = make_record(user, issue, think(rng) * 1e-3, rng() >> (rng() % 64));
    r.op = static_cast<fsmodel::FsOpType>(rng() % 10);
    r.file_id = rng();
    log.append(r);
  }
  return log;
}

std::string text_of(LogReader& reader) {
  std::ostringstream out;
  write_log_text(reader, out);
  return out.str();
}

TEST(TextWriter, WriteLogFileMatchesWriteLogTextAtEveryThreadCount) {
  const std::string dir = temp_dir("writer_threads");
  const std::string path = dir + "/usage.log";
  for (const std::size_t count : {std::size_t{0}, std::size_t{1}, kBlockRecords - 1, kBlockRecords,
                                  kBlockRecords + 1, 3 * kBlockRecords + 17}) {
    SCOPED_TRACE(count);
    const UsageLog log = spill_ordered_log(count);
    MemoryLogReader memory_text(log);
    const std::string memory_expected = text_of(memory_text);

    // Several sorted runs, merged back by the loser tree.
    SpillSink sink(dir + "/spool" + std::to_string(count), "t", 1500);
    for (const OpRecord& r : log.records()) sink.append(r);
    sink.close();
    const std::string spilled_expected = text_of(*open_spilled_log(sink.runs()));

    // The same runs held in memory: the same merged stream.
    SpillSink memory_sink("", "t", 1500);
    for (const OpRecord& r : log.records()) memory_sink.append(r);
    memory_sink.close();
    EXPECT_EQ(first_difference(text_of(*open_spilled_log(memory_sink.runs())), spilled_expected),
              "");

    for (const std::size_t threads : {1, 2, 3, 4, 8}) {
      SCOPED_TRACE(threads);
      MemoryLogReader memory(log);
      EXPECT_EQ(write_log_file(memory, path, threads), count);
      EXPECT_EQ(first_difference(util::read_text_file(path), memory_expected), "");
      EXPECT_EQ(write_log_file(*open_spilled_log(sink.runs()), path, threads), count);
      EXPECT_EQ(first_difference(util::read_text_file(path), spilled_expected), "");
      EXPECT_EQ(write_log_file(*open_spilled_log(memory_sink.runs()), path, threads), count);
      EXPECT_EQ(first_difference(util::read_text_file(path), spilled_expected), "");
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(TextWriter, WriteLogFileRemovesThePartialLogWhenARunIsTruncated) {
  const std::string dir = temp_dir("writer_truncated");
  const UsageLog log = spill_ordered_log(6 * kBlockRecords);
  SpillSink sink(dir + "/spool", "t", 2 * kBlockRecords);
  for (const OpRecord& r : log.records()) sink.append(r);
  sink.close();
  ASSERT_GE(sink.runs().size(), 2u);
  // Cut the last run mid-stream: its first read chunk survives, so the
  // reader throws only after several blocks are with the formatters.
  const SpillRun& last = sink.runs().back();
  std::filesystem::resize_file(last.path, kSpillHeaderBytes + (last.records / 2) * kSpillRecordBytes + 7);

  const std::string path = dir + "/usage.log";
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const auto reader = open_spilled_log(sink.runs());
    EXPECT_THROW(write_log_file(*reader, path, threads), std::runtime_error);
    EXPECT_FALSE(std::filesystem::exists(path));
  }
  std::filesystem::remove_all(dir);
}

TEST(TextWriter, WriteLogFileThrowsOnUnwritablePath) {
  const std::string dir = temp_dir("writer_unwritable");
  // A regular file where a parent directory should be: no directory can be
  // created under it, whatever the process's privileges.
  const std::string blocker = dir + "/plain_file";
  std::FILE* f = std::fopen(blocker.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  UsageLog log;
  log.append(make_record(1, 2.0, 3.0));
  MemoryLogReader reader(log);
  EXPECT_THROW(write_log_file(reader, blocker + "/usage.log", 1), std::runtime_error);
  std::filesystem::remove_all(dir);

  // A device that accepts the open but fails every write (Linux).  The
  // larger log keeps formatter threads busy when the first write fails;
  // the device itself must survive the cleanup of the partial log.
  if (std::filesystem::exists("/dev/full")) {
    MemoryLogReader again(log);
    EXPECT_THROW(write_log_file(again, "/dev/full", 1), std::runtime_error);
    const UsageLog big = spill_ordered_log(5 * kBlockRecords);
    MemoryLogReader big_reader(big);
    EXPECT_THROW(write_log_file(big_reader, "/dev/full", 4), std::runtime_error);
    EXPECT_TRUE(std::filesystem::exists("/dev/full"));
  }
}

// A record line whose field `index` is `field` and every other field valid.
std::string line_with(std::size_t index, const std::string& field) {
  std::vector<std::string> fields = {"1.5", "2.5", "3", "4", "read", "5",
                                     "6",   "7",   "8", "1", "0",    "2"};
  fields[index] = field;
  std::string line;
  for (std::size_t i = 0; i < fields.size(); ++i) line += (i == 0 ? "" : "\t") + fields[i];
  return line;
}

TEST(TextParser, AcceptsHistoricalNonCanonicalDoubles) {
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    const char* field;
    double value;
  } cases[] = {
      {" 1.25 ", 1.25},           // whitespace-padded
      {"\v1.25\f", 1.25},         // other isspace padding
      {"+1.25", 1.25},            // leading '+'
      {"0x1.8p1", 3.0},           // hex float
      {"0X10", 16.0},             // hex integer
      {"inf", inf},               //
      {"-Infinity", -inf},        //
      {"1e400", inf},             // overflow saturates
      {"-1e400", -inf},           //
      {"1e-400", 0.0},            // underflow to zero
      {"4e-320", 4e-320},         // denormal
      {"4.9406564584124654e-324", std::numeric_limits<double>::denorm_min()},
      {".5", 0.5},                // no leading digit
      {"1.", 1.0},                // no trailing digit
      {"-0", -0.0},               //
      {"00012.5e+01", 125.0},     // leading zeros, explicit exponent sign
      // 1 + 2^-53 exactly, halfway between two doubles: ties to even.
      {"1.00000000000000011102230246251565404236316680908203125", 1.0},
      {"1.00000000000000011102230246251565404236316680908203126", 1.0000000000000002},
  };
  for (const auto& c : cases) {
    for (std::size_t index : {0u, 1u}) {
      SCOPED_TRACE(std::string(c.field) + " in field " + std::to_string(index));
      const OpRecord r = parse_record_line(line_with(index, c.field));
      const double got = index == 0 ? r.issue_time_us : r.response_us;
      EXPECT_TRUE(same_bits(got, c.value)) << got;
      EXPECT_TRUE(same_bits(got, *util::parse_double(c.field)));
    }
  }
  for (const char* field : {"nan", "-nan", "NAN", "nan(123)"}) {
    const OpRecord r = parse_record_line(line_with(0, field));
    EXPECT_TRUE(std::isnan(r.issue_time_us)) << field;
    EXPECT_TRUE(same_bits(r.issue_time_us, *util::parse_double(field))) << field;
  }
}

TEST(TextParser, IntegerFieldsKeepHistoricalAcceptance) {
  EXPECT_EQ(parse_record_line(line_with(2, " 17 ")).user, 17u);  // padded
  EXPECT_EQ(parse_record_line(line_with(2, "-1")).user, std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(parse_record_line(line_with(2, "4294967296")).user, 0u);  // narrowed by cast
  EXPECT_EQ(parse_record_line(line_with(7, "-1")).file_id,
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_record_line(line_with(7, "9223372036854775807")).file_id,
            9223372036854775807ull);
  // Rejected today, so rejected still: '+', fractions, hex, and u64 values
  // past INT64_MAX (the fields were always read as long long).
  for (const char* field : {"+5", "5.0", "0x5", "", " ", "9223372036854775808",
                            "18446744073709551615"}) {
    EXPECT_THROW(parse_record_line(line_with(7, field)), std::invalid_argument) << field;
  }
}

TEST(TextParser, FastPathAgreesWithStrtodOnRandomTokens) {
  // Random tokens over the characters numbers are made of: every token the
  // parser accepts must be one util::parse_double (strtod) accepts, with the
  // same bits, and vice versa; likewise for integer fields and parse_int.
  const std::string alphabet = "0123456789012345678901234567890123456789..eE+--x pin";
  std::mt19937 rng(77);
  for (int trial = 0; trial < 40000; ++trial) {
    std::string token;
    const std::size_t length = 1 + rng() % 24;
    for (std::size_t i = 0; i < length; ++i) token += alphabet[rng() % alphabet.size()];
    SCOPED_TRACE(token);

    const auto expected_double = util::parse_double(token);
    bool accepted = true;
    double got = 0.0;
    try {
      got = parse_record_line(line_with(1, token)).response_us;
    } catch (const std::invalid_argument&) {
      accepted = false;
    }
    ASSERT_EQ(accepted, expected_double.has_value());
    if (accepted) {
      ASSERT_TRUE(same_bits(got, *expected_double));
    }

    const auto expected_int = util::parse_int(token);
    accepted = true;
    std::uint64_t got_int = 0;
    try {
      got_int = parse_record_line(line_with(8, token)).file_size;
    } catch (const std::invalid_argument&) {
      accepted = false;
    }
    ASSERT_EQ(accepted, expected_int.has_value());
    if (accepted) {
      ASSERT_EQ(got_int, static_cast<std::uint64_t>(*expected_int));
    }
  }
}

TEST(TextParser, RoundTripIsBitExactForEdgeValues) {
  // UINT64_MAX is written fine but was never readable (long long fields),
  // so the round trip covers the integers up to INT64_MAX.
  std::vector<OpRecord> records;
  for (const OpRecord& r : edge_records()) {
    if (r.file_id <= static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
      records.push_back(r);
    }
  }
  UsageLog log;
  for (const auto& r : records) log.append(r);
  const UsageLog parsed = UsageLog::parse(log.serialize());
  ASSERT_EQ(parsed.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const OpRecord& a = records[i];
    const OpRecord& b = parsed.records()[i];
    if (std::isnan(a.issue_time_us)) {
      EXPECT_TRUE(std::isnan(b.issue_time_us));
      EXPECT_EQ(std::signbit(a.issue_time_us), std::signbit(b.issue_time_us));
    } else {
      EXPECT_TRUE(same_bits(a.issue_time_us, b.issue_time_us)) << a.issue_time_us;
      EXPECT_TRUE(same_bits(a.response_us, b.response_us)) << a.response_us;
    }
    EXPECT_EQ(a.user, b.user);
    EXPECT_EQ(a.session, b.session);
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.requested_bytes, b.requested_bytes);
    EXPECT_EQ(a.actual_bytes, b.actual_bytes);
    EXPECT_EQ(a.file_id, b.file_id);
    EXPECT_EQ(a.file_size, b.file_size);
    EXPECT_EQ(a.category, b.category);
  }
}

// The message parse_log_text throws for `text`, or "" when it parses.
std::string parse_error(const std::string& text, const std::string& source = {},
                        std::size_t threads = 1) {
  try {
    parse_log_text(text, threads, source);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(TextParser, ErrorsNameTheLine) {
  const std::string good = line_with(0, "1.5") + "\n";
  const std::string header = usage_log_header_line();
  // Comments, blank and CRLF lines count toward the line number.
  const std::string prefix = header + good + "\n  \r\n# note\n" + good;  // lines 1-6
  const struct {
    std::string bad;
    const char* detail;
  } cases[] = {
      {"1\t2\t3", "expected 12 fields, got 3"},
      {line_with(0, "1.5x"), "field 1 (issue_us): malformed number '1.5x'"},
      {line_with(3, "four"), "field 4 (session): malformed number 'four'"},
      {line_with(4, "fsync"), "unknown op 'fsync'"},
      {line_with(9, "7"), "bad file type 7"},
      {line_with(10, "3"), "bad owner 3"},
      {line_with(11, "-1"), "bad use mode -1"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.bad);
    const std::string text = prefix + c.bad + "\r\n" + good;
    EXPECT_EQ(parse_error(text), std::string("UsageLog::parse: line 7: ") + c.detail);
    EXPECT_EQ(parse_error(text, "trace.log"), std::string("trace.log:7: ") + c.detail);
  }
  EXPECT_EQ(parse_error(prefix), "");
  EXPECT_EQ(parse_error("\n\n" + line_with(2, "")), "UsageLog::parse: line 3: field 3 (user): "
                                                    "malformed number ''");

  // Chunked: a bad last line (in the last chunk, with no newline after it)
  // names its line; with bad lines in two chunks the lower one is reported,
  // whichever chunk finishes first.
  const std::size_t last = kCutTextRecords - 1;
  const std::size_t early = kCutTextRecords * 3 / 10;
  const std::size_t late = kCutTextRecords * 9 / 10;
  const CutText tail = cut_text({{last, "1\t2\t3"}});
  const CutText two = cut_text({{early, line_with(4, "fsync")}, {late, "1\t2"}});
  for (std::size_t threads = 1; threads <= 4; ++threads) {
    SCOPED_TRACE(threads);
    EXPECT_EQ(parse_error(tail.text, "big.log", threads),
              "big.log:" + std::to_string(tail.line_of.at(last)) + ": expected 12 fields, got 3");
    EXPECT_EQ(parse_error(two.text, {}, threads),
              "UsageLog::parse: line " + std::to_string(two.line_of.at(early)) +
                  ": unknown op 'fsync'");
  }
}

TEST(TextParser, ReadLogFilePrefixesThePath) {
  const std::string dir = temp_dir("read_log_file");
  const std::string path = dir + "/trace.log";
  UsageLog log;
  log.append(make_record(1, 2.0, 3.0));
  log.append(make_record(2, 4.0, 5.0));
  MemoryLogReader reader(log);
  write_log_file(reader, path, 1);
  EXPECT_EQ(read_log_file(path, 1).serialize(), log.serialize());

  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("1\t2\n", f);
  std::fclose(f);
  try {
    read_log_file(path, 1);
    ADD_FAILURE() << "malformed trace parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), path + ":4: expected 12 fields, got 2");
  }
  EXPECT_THROW(read_log_file(dir + "/missing.log", 1), std::runtime_error);
  std::filesystem::remove_all(dir);
}

// What a TextLogReader over `path` yields: its records, and the message of
// the std::invalid_argument it throws ("" when it reads to the end).
struct StreamRead {
  UsageLog log;
  std::string error;
};

StreamRead stream_read(const std::string& path, std::size_t threads, std::size_t block_bytes) {
  StreamRead read;
  try {
    TextLogReader reader(path, threads, block_bytes);
    OpRecord record;
    while (reader.next(record)) read.log.append(record);
    EXPECT_FALSE(reader.next(record));  // the end stays the end
  } catch (const std::invalid_argument& e) {
    read.error = e.what();
  }
  return read;
}

// Block sizes: one byte (every block is one line, and every line straddles
// reads), a few bytes, about one record line, and whole blocks of lines.
constexpr std::size_t kSmallBlocks[] = {1, 7, 90, 4096, kLogReadBlockBytes};

TEST(TextLogReader, YieldsParseLogTextsRecords) {
  const std::string dir = temp_dir("text_log_reader");
  const std::string path = dir + "/trace.log";
  const std::string header = usage_log_header_line();
  const std::string a = line_with(0, "1.5");
  const std::string b = line_with(2, "9");
  const std::string texts[] = {
      "",
      header,
      header + a,                                                  // no trailing newline
      header + a + "\n" + b + "\n",
      header + "\n# note\n  \r\n" + a + "\r\n\n# end\n" + b,        // comments, blanks, CRLF
      "\n\n" + a + "\n\n\n",
  };
  for (const std::string& text : texts) {
    util::write_text_file(path, text);
    const std::string expected = parse_log_text(text, 1).serialize();
    for (const std::size_t block : kSmallBlocks) {
      for (const std::size_t threads : {1, 4}) {
        SCOPED_TRACE(text + " block " + std::to_string(block) + " threads " +
                     std::to_string(threads));
        const StreamRead read = stream_read(path, threads, block);
        EXPECT_EQ(read.error, "");
        EXPECT_EQ(read.log.serialize(), expected);
      }
    }
  }

  // A log large enough for many blocks, with CRLF, comment and blank lines
  // and no newline after its last line.
  const CutText big = cut_text();
  util::write_text_file(path, big.text);
  const std::string expected = big.log.serialize();
  for (const std::size_t block : {std::size_t{1000}, std::size_t{4096}, kLogReadBlockBytes}) {
    for (std::size_t threads = 1; threads <= 4; ++threads) {
      SCOPED_TRACE("block " + std::to_string(block) + " threads " + std::to_string(threads));
      const StreamRead read = stream_read(path, threads, block);
      EXPECT_EQ(read.error, "");
      EXPECT_EQ(first_difference(read.log.serialize(), expected), "");
    }
  }
  EXPECT_EQ(read_log_file(path, 4).serialize(), expected);
  std::filesystem::remove_all(dir);
}

TEST(TextLogReader, ErrorsMatchReadLogFileAfterEveryEarlierRecord) {
  const std::string dir = temp_dir("text_log_reader_errors");
  const std::string path = dir + "/trace.log";
  // The error parse_log_text gives for `text`, and the records before the
  // line that fails: the reader yields exactly those first.
  const auto check = [&](const std::string& text, const std::string& bad_line,
                         std::initializer_list<std::size_t> blocks) {
    util::write_text_file(path, text);
    std::string expected_error;
    try {
      parse_log_text(text, 1, path);
    } catch (const std::invalid_argument& e) {
      expected_error = e.what();
    }
    ASSERT_NE(expected_error, "");
    const std::size_t at = text.find("\n" + bad_line) + 1;
    const std::string before = parse_log_text(text.substr(0, at), 1).serialize();
    for (const std::size_t block : blocks) {
      for (const std::size_t threads : {1, 2, 4}) {
        SCOPED_TRACE("block " + std::to_string(block) + " threads " + std::to_string(threads));
        const StreamRead read = stream_read(path, threads, block);
        EXPECT_EQ(read.error, expected_error);
        EXPECT_EQ(first_difference(read.log.serialize(), before), "");
      }
    }
  };

  // TextParser.ErrorsNameTheLine's malformed lines, after comment, blank
  // and CRLF lines.
  const std::string good = line_with(0, "1.5") + "\n";
  const std::string prefix =
      std::string(usage_log_header_line()) + good + "\n  \r\n# note\n" + good;
  for (const std::string& bad : {std::string("1\t2\t3"), line_with(0, "1.5x"),
                                line_with(3, "four"), line_with(4, "fsync"), line_with(9, "7"),
                                line_with(10, "3"), line_with(11, "-1")}) {
    SCOPED_TRACE(bad);
    check(prefix + bad + "\r\n" + good, bad, {1, 7, 90, 4096, kLogReadBlockBytes});
  }

  // Many blocks: a bad last line with no newline after it, and bad lines
  // in two blocks far apart (the lower one is reported).
  const std::size_t last = kCutTextRecords - 1;
  const std::size_t early = kCutTextRecords * 3 / 10;
  const std::size_t late = kCutTextRecords * 9 / 10;
  check(cut_text({{last, "1\t2\t3"}}).text, "1\t2\t3", {4096, kLogReadBlockBytes});
  check(cut_text({{early, line_with(4, "fsync")}, {late, "1\t2"}}).text, line_with(4, "fsync"),
        {4096, kLogReadBlockBytes});
  std::filesystem::remove_all(dir);
}

TEST(TextLogReader, RejectsAMissingFileAndADirectory) {
  const std::string dir = temp_dir("text_log_reader_missing");
  EXPECT_THROW(TextLogReader(dir + "/missing.log", 1), std::runtime_error);
  try {
    TextLogReader reader(dir, 2);
    OpRecord record;
    reader.next(record);
    ADD_FAILURE() << "a directory was read as a log";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "TextLogReader: cannot read " + dir);
  }
  std::filesystem::remove_all(dir);
}

TEST(Analyzer, ReaderAndLogConstructionAgree) {
  UsageLog log;
  std::mt19937 rng(7);
  for (int i = 0; i < 200; ++i) {
    OpRecord r = make_record(rng() % 4, i * 10.0, 1.0 + (rng() % 100));
    if (i % 3 == 0) r.op = fsmodel::FsOpType::write;
    if (i % 7 == 0) r.op = fsmodel::FsOpType::open;
    log.append(r);
  }
  UsageAnalyzer from_log(log);
  MemoryLogReader reader(log);
  UsageAnalyzer from_reader(reader);

  EXPECT_EQ(from_log.op_count(), from_reader.op_count());
  EXPECT_EQ(from_log.response_stats().mean(), from_reader.response_stats().mean());
  EXPECT_EQ(from_log.access_size_stats().mean(), from_reader.access_size_stats().mean());
  EXPECT_EQ(from_log.response_per_byte_us(), from_reader.response_per_byte_us());
}

}  // namespace
}  // namespace wlgen::core
