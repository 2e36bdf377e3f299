// Streaming log pipeline: binary codec, spill sink, k-way merge reader and
// the text-streaming adapters (DESIGN.md "Streaming log pipeline").
#include "core/log_sink.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/usage_log.h"
#include "runner/universe.h"
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

// The bytes encode_record writes for `r`.
std::string encoded(const OpRecord& r) {
  unsigned char buffer[kMaxRunRecordBytes];
  const std::size_t size = encode_record(r, buffer);
  return std::string(reinterpret_cast<const char*>(buffer), size);
}

// Decodes all of `bytes` as one record.
DecodeStatus decode_all(const std::string& bytes, OpRecord& out) {
  const auto* in = reinterpret_cast<const unsigned char*>(bytes.data());
  const unsigned char* const end = in + bytes.size();
  const DecodeStatus status = decode_record(in, end, out);
  if (status == DecodeStatus::ok) {
    EXPECT_EQ(in, end) << "the record did not end with its bytes";
  }
  return status;
}

// Every field's bits, so that records compare without their padding and
// with NaN payloads told apart.
bool same_record(const OpRecord& a, const OpRecord& b) {
  return std::bit_cast<std::uint64_t>(a.issue_time_us) ==
             std::bit_cast<std::uint64_t>(b.issue_time_us) &&
         std::bit_cast<std::uint64_t>(a.response_us) == std::bit_cast<std::uint64_t>(b.response_us) &&
         a.user == b.user && a.session == b.session && a.op == b.op && a.category == b.category &&
         a.requested_bytes == b.requested_bytes && a.actual_bytes == b.actual_bytes &&
         a.file_id == b.file_id && a.file_size == b.file_size;
}

TEST(RecordCodec, RoundTripsEveryFieldBitExact) {
  OpRecord r = make_record(42, 123.456789012345678, 9.000000000000002e-3);
  r.op = fsmodel::FsOpType::creat;
  r.category = {FileType::directory, FileOwner::other, UseMode::temp};
  r.requested_bytes = 0xDEADBEEFCAFEull;
  r.actual_bytes = 0x123456789ABCull;
  r.file_id = 0xFFFFFFFFFFFFFFFFull;
  r.file_size = 1;

  OpRecord d;
  ASSERT_EQ(decode_all(encoded(r), d), DecodeStatus::ok);
  EXPECT_TRUE(same_record(d, r));
}

TEST(RecordCodec, PreservesNonFiniteAndDenormalDoubles) {
  for (double value : {0.0, -0.0, 5e-324, std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
    const OpRecord r = make_record(1, value, value);
    OpRecord d;
    ASSERT_EQ(decode_all(encoded(r), d), DecodeStatus::ok);
    EXPECT_TRUE(same_record(d, r));
  }
}

// A seeded stream of 1.2 M records whose fields reach every varint length,
// both u32 and u64 maxima, raw double bit patterns (NaN payloads,
// subnormals, infinities, signed zeros) and every op x category code,
// encoded back to back: each must decode to its own bits and re-encode to
// its own bytes.
TEST(RecordCodec, SeededRoundTripIsBitExact) {
  std::mt19937_64 rng(33);
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::bit_cast<double>(std::uint64_t{0x7ff0000000000001}),
                             std::bit_cast<double>(std::uint64_t{0xfff8dead0000beef}),
                             std::numeric_limits<double>::max()};
  const auto any_double = [&]() -> double {
    switch (rng() % 3) {
      case 0: return specials[rng() % std::size(specials)];
      case 1: return std::bit_cast<double>(rng());
      default: return static_cast<double>(rng() % 100000000) / 16.0;
    }
  };
  const auto any_u64 = [&]() -> std::uint64_t {
    switch (rng() % 4) {
      case 0: return std::numeric_limits<std::uint64_t>::max();
      case 1: return 0;
      default: return rng() >> (rng() % 64);
    }
  };
  const auto any_u32 = [&]() -> std::uint32_t {
    return rng() % 5 == 0 ? std::numeric_limits<std::uint32_t>::max()
                          : static_cast<std::uint32_t>(rng() >> (32 + rng() % 32));
  };
  constexpr std::size_t kRecords = 1200000;
  std::vector<OpRecord> records(kRecords);
  std::vector<unsigned char> bytes(kRecords * kMaxRunRecordBytes);
  std::size_t size = 0;
  for (std::size_t i = 0; i < kRecords; ++i) {
    OpRecord& r = records[i];
    r.issue_time_us = any_double();
    r.response_us = any_double();
    r.user = any_u32();
    r.session = any_u32();
    const unsigned code = static_cast<unsigned>(i % kRunPackedCodes);  // every code, in turn
    r.op = static_cast<fsmodel::FsOpType>(code / 24);
    r.category = {static_cast<FileType>(code / 12 % 2), static_cast<FileOwner>(code / 4 % 3),
                  static_cast<UseMode>(code % 4)};
    r.requested_bytes = any_u64();
    r.actual_bytes = any_u64();
    r.file_id = any_u64();
    r.file_size = any_u64();
    const std::size_t n = encode_record(r, bytes.data() + size);
    ASSERT_GE(n, kMinRunRecordBytes);
    ASSERT_LE(n, kMaxRunRecordBytes);
    size += n;
  }
  const unsigned char* in = bytes.data();
  const unsigned char* const end = bytes.data() + size;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < kRecords; ++i) {
    const unsigned char* const start = in;
    OpRecord d;
    ASSERT_EQ(decode_record(in, end, d), DecodeStatus::ok) << "record " << i;
    if (!same_record(d, records[i]) ||
        encoded(d) != std::string(reinterpret_cast<const char*>(start), in - start)) {
      ++mismatches;
    }
  }
  EXPECT_EQ(in, end);
  EXPECT_EQ(mismatches, 0u);
}

TEST(RecordCodec, RefusesWhatItCannotEncode) {
  OpRecord r = make_record(1, 2.0, 3.0);
  r.op = static_cast<fsmodel::FsOpType>(fsmodel::kFsOpTypeCount);
  unsigned char buffer[kMaxRunRecordBytes];
  EXPECT_THROW(encode_record(r, buffer), std::invalid_argument);
  r = make_record(1, 2.0, 3.0);
  r.category.owner = static_cast<FileOwner>(3);
  EXPECT_THROW(encode_record(r, buffer), std::invalid_argument);
}

// Hostile bytes end in a status, never in a read past `end`: every cut of a
// record is truncated, and a varint that is too long, carries bits past
// its field or ends in a zero byte is corrupt.
TEST(RecordCodec, RejectsHostileBytes) {
  OpRecord r = make_record(300, 1.5, 2.5, 1ull << 40);
  r.session = 70000;
  const std::string good = encoded(r);
  OpRecord d;
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_EQ(decode_all(good.substr(0, cut), d), DecodeStatus::truncated) << cut;
  }
  const std::string doubles = good.substr(0, 16);
  const auto tail = [](std::size_t fields) {  // one-byte varints and a valid packed byte
    return std::string(fields, '\x01');
  };
  // user: 6 bytes (more than a u32 takes), bits past 32, a trailing zero.
  EXPECT_EQ(decode_all(doubles + "\x80\x80\x80\x80\x80\x01" + tail(6), d), DecodeStatus::corrupt);
  EXPECT_EQ(decode_all(doubles + "\xff\xff\xff\xff\x1f" + tail(6), d), DecodeStatus::corrupt);
  EXPECT_EQ(decode_all(doubles + std::string("\x81\x00", 2) + tail(6), d), DecodeStatus::corrupt);
  EXPECT_EQ(decode_all(doubles + "\xff\xff\xff\xff\x0f" + tail(6), d), DecodeStatus::ok);
  EXPECT_EQ(d.user, std::numeric_limits<std::uint32_t>::max());
  // file_size: 11 bytes, and 10 bytes with bits past 64.
  const std::string head = doubles + tail(3);
  EXPECT_EQ(decode_all(head + tail(3) + std::string(10, '\x80') + "\x01", d),
            DecodeStatus::corrupt);
  EXPECT_EQ(decode_all(head + tail(3) + std::string(9, '\xff') + "\x02", d),
            DecodeStatus::corrupt);
  EXPECT_EQ(decode_all(head + tail(3) + std::string(9, '\xff') + "\x01", d), DecodeStatus::ok);
  EXPECT_EQ(d.file_size, std::numeric_limits<std::uint64_t>::max());
  // The packed byte: 239 is the last code, 240 and up name no op.
  std::string packed = doubles + tail(2) + "\xef" + tail(4);
  EXPECT_EQ(decode_all(packed, d), DecodeStatus::ok);
  EXPECT_EQ(d.op, static_cast<fsmodel::FsOpType>(fsmodel::kFsOpTypeCount - 1));
  for (const int code : {240, 241, 255}) {
    packed[18] = static_cast<char>(code);
    EXPECT_EQ(decode_all(packed, d), DecodeStatus::unknown_op) << code;
  }
}

// A record that encode_record refuses throws from append and leaves the
// sink as it was, with no empty segment for close() to merge.
TEST(SpillSink, ARefusedRecordLeavesTheSinkAsItWas) {
  OpRecord bad = make_record(2, 5.0, 1.0);
  bad.op = static_cast<fsmodel::FsOpType>(fsmodel::kFsOpTypeCount);
  SpillSink empty("", "s", 4);
  EXPECT_THROW(empty.append(bad), std::invalid_argument);
  empty.close();
  EXPECT_EQ(empty.records_written(), 0u);
  EXPECT_TRUE(empty.runs().empty());

  SpillSink sink("", "s", 4);
  sink.append(make_record(1, 1.0, 1.0));
  EXPECT_THROW(sink.append(bad), std::invalid_argument);  // would start a segment
  sink.append(make_record(1, 0.5, 2.0));                  // a descent starts one
  EXPECT_THROW(sink.append(bad), std::invalid_argument);  // the last, refused
  sink.close();
  ASSERT_EQ(sink.runs().size(), 1u);
  EXPECT_EQ(sink.records_written(), 2u);
  const UsageLog log = materialize(*open_spilled_log(sink.runs()));
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.records()[0].response_us, 2.0);
  EXPECT_EQ(log.records()[1].response_us, 1.0);
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
  std::size_t bytes = kSpillHeaderBytes;
  for (const OpRecord& r : records) bytes += encoded(r).size();
  EXPECT_EQ(sink.runs()[0].bytes, bytes);

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

// The records' encodings back to back: a run's bytes after its header.
std::string encoded_bytes(const std::vector<OpRecord>& records) {
  std::string bytes;
  for (const OpRecord& r : records) bytes += encoded(r);
  return bytes;
}

// A run file's header for `records` records.
std::string run_header(std::size_t records) {
  std::string header(kSpillHeaderBytes, '\0');
  std::memcpy(header.data(), kSpillMagic, sizeof kSpillMagic);
  for (int b = 0; b < 8; ++b) header[8 + b] = static_cast<char>(records >> (8 * b));
  return header;
}

// A run's blocks as a scan finds them: every kRunIndexStride-th record's
// key and where its bytes start.
std::vector<RunBlock> rescanned_index(const SpillRun& run) {
  std::vector<RunBlock> index;
  RunFileReader reader(run);
  OpRecord r;
  for (std::uint64_t p = 0;; ++p) {
    const std::uint64_t offset = reader.offset();
    if (!reader.next(r)) break;
    index_record(index, p, r, offset);
  }
  return index;
}

// Seeded appends of every shape a run can hold: users ascending, some of
// them going back in time, equal (time, user) keys told apart only by their
// file_id, -0 next to +0, bursts longer than the buffer.  Every run — file
// or memory — must decode to exactly the stable sort of its records by
// (time, user), hold exactly those records' encodings, and carry an index
// whose keys and block offsets a re-scan of the run finds.
TEST(SpillSink, RunsMatchAStableSortOnAnyInput) {
  const auto by_key = [](const OpRecord& a, const OpRecord& b) {
    if (a.issue_time_us != b.issue_time_us) return a.issue_time_us < b.issue_time_us;
    return a.user < b.user;
  };
  const double times[] = {-0.0, 0.0, 1.0, 1.5, 2.0, 3.25, 7.0, 1e6};
  const std::string dir = temp_dir("stable");
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed);
    std::vector<OpRecord> records;
    const auto users = static_cast<std::uint32_t>(1 + rng() % 12);
    for (std::uint32_t u = 0; u < users; ++u) {
      const std::size_t count = rng() % 4 == 0 ? rng() % 90 : rng() % 12;
      std::vector<double> issues(count);
      for (double& t : issues) t = times[rng() % std::size(times)];
      if (rng() % 3 != 0) std::stable_sort(issues.begin(), issues.end());
      for (const double t : issues) {
        OpRecord r = make_record(3 * u + static_cast<std::uint32_t>(seed % 3), t,
                                 static_cast<double>(rng() % 1000) / 8.0, rng() % 4096);
        r.file_id = records.size();
        records.push_back(r);
      }
    }
    const std::size_t n = records.size();
    for (const std::size_t buffer : {std::size_t{1}, std::size_t{7}, std::size_t{32}, n, n + 1}) {
      // The sink's cut: a new user arriving with `buffer` records buffered.
      std::vector<std::vector<OpRecord>> expected;
      std::vector<OpRecord> pending;
      for (const OpRecord& r : records) {
        if (!pending.empty() && r.user != pending.back().user &&
            pending.size() >= std::max<std::size_t>(1, buffer)) {
          expected.push_back(std::move(pending));
          pending.clear();
        }
        pending.push_back(r);
      }
      if (!pending.empty()) expected.push_back(std::move(pending));
      for (auto& run : expected) std::stable_sort(run.begin(), run.end(), by_key);

      for (const bool in_memory : {false, true}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + ", buffer " + std::to_string(buffer) +
                     (in_memory ? ", memory" : ", file"));
        SpillSink sink(in_memory ? "" : dir, "t" + std::to_string(buffer), buffer);
        for (const OpRecord& r : records) sink.append(r);
        sink.close();
        ASSERT_EQ(sink.runs().size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
          const SpillRun& run = sink.runs()[i];
          const std::vector<OpRecord>& want = expected[i];
          EXPECT_EQ(run.records, want.size());
          const UsageLog got = materialize(*open_spilled_log({run}));
          ASSERT_EQ(got.size(), want.size()) << "run " << i;
          for (std::size_t p = 0; p < want.size(); ++p) {
            EXPECT_TRUE(same_record(got.records()[p], want[p])) << "run " << i << " record " << p;
          }
          ASSERT_NE(run.index, nullptr);
          EXPECT_EQ(*run.index, rescanned_index(run)) << "run " << i;
          EXPECT_EQ(run.index->size(), (want.size() + kRunIndexStride - 1) / kRunIndexStride);
          if (in_memory) {
            ASSERT_NE(run.memory, nullptr);
            EXPECT_TRUE(std::string(run.encoded.begin(), run.encoded.end()) ==
                        encoded_bytes(want))
                << "run " << i;
            continue;
          }
          const std::string bytes = run_header(want.size()) + encoded_bytes(want);
          EXPECT_EQ(run.bytes, bytes.size());
          EXPECT_TRUE(util::read_text_file(run.path) == bytes) << "run " << i;
        }
      }
    }
  }
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
    // The second record's packed byte, after its doubles and its one-byte
    // user and session.
    std::fseek(f, static_cast<long>(kSpillHeaderBytes + encoded(make_record(0, 0, 1.0)).size() + 18),
               SEEK_SET);
    std::fputc(static_cast<int>(kRunPackedCodes), f);
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
  EXPECT_EQ(write_log_file({memory_run(records)}, path, 4).records, records.size());
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

constexpr std::size_t kBlockRecords = kLogSliceRecords;

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

    // One run passes through in its own order.
    const std::vector<SpillRun> one = {memory_run(log.records())};
    for (const std::size_t threads : {1, 2, 3, 4, 8}) {
      SCOPED_TRACE(threads);
      EXPECT_EQ(write_log_file(one, path, threads).records, count);
      EXPECT_EQ(first_difference(util::read_text_file(path), memory_expected), "");
      WrittenLog written = write_log_file(sink.runs(), path, threads);
      EXPECT_EQ(written.records, count);
      EXPECT_TRUE(written.ordered);
      EXPECT_EQ(first_difference(util::read_text_file(path), spilled_expected), "");
      written = write_log_file(memory_sink.runs(), path, threads);
      EXPECT_EQ(written.records, count);
      EXPECT_TRUE(written.ordered);
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
  // Cut the last run mid-stream: its index still holds every record, so
  // its blocks past the cut run past the file's end.
  const SpillRun& last = sink.runs().back();
  std::filesystem::resize_file(last.path, last.bytes / 2 + 7);

  const std::string path = dir + "/usage.log";
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    try {
      write_log_file(sink.runs(), path, threads);
      ADD_FAILURE() << "a truncated run was written";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "RunFileReader: truncated run file '" + last.path + "'");
    }
    EXPECT_FALSE(std::filesystem::exists(path));
  }
  // Without its index the run is scanned first, and the scan finds the cut.
  std::vector<SpillRun> unindexed = sink.runs();
  unindexed.back().index = nullptr;
  EXPECT_THROW(write_log_file(unindexed, path, 4), std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(path));
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
  const std::vector<SpillRun> one = {memory_run({make_record(1, 2.0, 3.0)})};
  EXPECT_THROW(write_log_file(one, blocker + "/usage.log", 1), std::runtime_error);
  std::filesystem::remove_all(dir);

  // A device that accepts the open but fails every write (Linux).  The
  // larger log keeps worker threads busy when the first write fails; the
  // device itself must survive the cleanup of the partial log.
  if (std::filesystem::exists("/dev/full")) {
    EXPECT_THROW(write_log_file(one, "/dev/full", 1), std::runtime_error);
    const UsageLog big_log = spill_ordered_log(5 * kBlockRecords);
    SpillSink big("", "t", kBlockRecords);
    for (const OpRecord& r : big_log.records()) big.append(r);
    big.close();
    EXPECT_THROW(write_log_file(big.runs(), "/dev/full", 4), std::runtime_error);
    EXPECT_TRUE(std::filesystem::exists("/dev/full"));
  }
}

// A run file holding `bytes` after a header for `records` records.
SpillRun raw_run_file(const std::string& path, std::size_t records, const std::string& bytes) {
  util::write_text_file(path, run_header(records) + bytes);
  SpillRun run;
  run.path = path;
  run.records = records;
  run.bytes = kSpillHeaderBytes + bytes.size();
  return run;
}

// A run file holding `records` in the order given, written without
// SpillSink's merge.
SpillRun unsorted_run_file(const std::string& path, const std::vector<OpRecord>& records) {
  return raw_run_file(path, records.size(), encoded_bytes(records));
}

// Seeded runs of every kind, cut into slices of a few records so that seams
// fall everywhere: the bytes must be MergeLogReader's through
// write_log_text.  Keys come from a small set, so (time, user) ties across
// runs are common and the run index must break them as the loser tree does.
TEST(TextWriterProperty, SlicedRunsMatchTheSerialMerge) {
  const std::string dir = temp_dir("writer_property");
  const std::string path = dir + "/usage.log";
  const std::string spool = dir + "/spool";
  std::mt19937_64 rng(1991);
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE(trial);
    const std::size_t k = 1 + trial % 17;
    std::vector<SpillRun> runs;
    for (std::size_t r = 0; r < k; ++r) {
      const std::size_t size = rng() % 5 == 0 ? 0 : rng() % 300;
      std::vector<OpRecord> records;
      for (std::size_t i = 0; i < size; ++i) {
        OpRecord record = make_record(static_cast<std::uint32_t>(rng() % 6),
                                      static_cast<double>(rng() % 40) * 0.5, rng() % 1000 * 1e-3);
        record.file_id = rng();
        records.push_back(record);
      }
      // Four kinds: a memory run and a run file, each with its index or
      // without it (the writer must scan it for its blocks).
      const std::size_t kind = rng() % 4;
      const std::string stem = std::to_string(trial * 100 + r);
      SpillSink sink(kind < 2 ? std::string() : spool, stem, size + 1);
      for (const OpRecord& record : records) sink.append(record);
      sink.close();
      SpillRun run = size == 0 ? memory_run({}) : sink.runs().front();
      if (kind % 2 == 1) run.index = nullptr;
      runs.push_back(run);
    }
    const std::string expected = text_of(*open_spilled_log(runs));
    for (const std::size_t slice :
         {std::size_t{1}, std::size_t{3}, std::size_t{7}, std::size_t{64}}) {
      for (const std::size_t threads : {1, 3, 4}) {
        SCOPED_TRACE(testing::Message() << "slice " << slice << " threads " << threads);
        const WrittenLog written = detail::write_log_file(runs, path, threads, slice);
        EXPECT_TRUE(written.ordered);
        EXPECT_EQ(first_difference(util::read_text_file(path), expected), "");
      }
    }
    std::filesystem::remove_all(spool);
  }
  std::filesystem::remove_all(dir);
}

// The record lines of a log text, sorted: what a log holds, whatever order
// it holds them in.
std::vector<std::string> sorted_lines(const std::string& text) {
  std::vector<std::string> lines = util::split(text, '\n');
  std::sort(lines.begin(), lines.end());
  return lines;
}

// A run that is not sorted breaks the merge contract: the writer must say
// so, and still write each of its records exactly once.
TEST(TextWriter, AnUnsortedRunIsReportedAndWrittenWhole) {
  const std::string dir = temp_dir("writer_unsorted");
  const std::string path = dir + "/usage.log";
  std::mt19937_64 rng(7);
  const auto shuffled = [&rng](std::size_t count, std::uint32_t user) {
    std::vector<OpRecord> records;
    for (std::size_t i = 0; i < count; ++i) {
      records.push_back(make_record(user, static_cast<double>(rng() % 5000), 1.0));
    }
    return records;
  };
  const UsageLog sorted_log = spill_ordered_log(900);
  SpillSink sorted("", "t", 1000);
  for (const OpRecord& r : sorted_log.records()) sorted.append(r);
  sorted.close();
  for (const bool file : {false, true}) {
    SCOPED_TRACE(file);
    std::vector<SpillRun> runs = sorted.runs();
    const std::vector<OpRecord> bad = shuffled(700, 3);
    runs.insert(runs.begin() + 1,
                file ? unsorted_run_file(dir + "/bad.wlr", bad) : memory_run(bad));
    std::uint64_t total = 0;
    for (const SpillRun& run : runs) total += run.records;
    const std::vector<std::string> expected = sorted_lines(text_of(*open_spilled_log(runs)));
    for (const std::size_t slice : {std::size_t{5}, kLogSliceRecords}) {
      for (const std::size_t threads : {1, 4}) {
        SCOPED_TRACE(testing::Message() << "slice " << slice << " threads " << threads);
        const WrittenLog written = detail::write_log_file(runs, path, threads, slice);
        EXPECT_FALSE(written.ordered);
        EXPECT_EQ(written.records, total);
        EXPECT_EQ(sorted_lines(util::read_text_file(path)), expected);
      }
    }
    // Alone, an unsorted run passes through in its own order.
    const WrittenLog alone = detail::write_log_file({runs[1]}, path, 4, 5);
    EXPECT_FALSE(alone.ordered);
    EXPECT_EQ(alone.records, bad.size());
    EXPECT_EQ(util::read_text_file(path), text_of(*open_spilled_log({runs[1]})));
  }
  // A descent exactly at a seam: each slice of five is in order, the log is not.
  std::vector<OpRecord> halves;
  for (const double t : {10.0, 11.0, 12.0, 13.0, 14.0, 0.0, 1.0, 2.0, 3.0, 4.0}) {
    halves.push_back(make_record(1, t, 1.0));
  }
  for (const std::size_t threads : {1, 4}) {
    const WrittenLog written = detail::write_log_file({memory_run(halves)}, path, threads, 5);
    EXPECT_FALSE(written.ordered);
    EXPECT_EQ(written.records, halves.size());
  }
  std::filesystem::remove_all(dir);
}

TEST(TextWriter, WriteLogFileReportsRunFileErrors) {
  const std::string dir = temp_dir("writer_run_errors");
  const std::string path = dir + "/usage.log";
  SpillRun missing;
  missing.path = dir + "/missing.wlr";
  missing.records = 1;
  const std::vector<SpillRun> runs = {memory_run({make_record(1, 2.0, 3.0)}), missing};
  try {
    write_log_file(runs, path, 2);
    ADD_FAILURE() << "a missing run was written";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "RunFileReader: cannot open run file '" + missing.path + "'");
  }
  util::write_text_file(missing.path, "not a run file at all");
  try {
    write_log_file(runs, path, 2);
    ADD_FAILURE() << "a foreign run was written";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "RunFileReader: '" + missing.path + "' is not a wlgen run file");
  }
  EXPECT_FALSE(std::filesystem::exists(path));

  std::string bad_op = encoded(make_record(2, 4.0, 5.0));
  bad_op[18] = static_cast<char>(250);  // the packed byte
  const std::vector<SpillRun> bad = {runs[0], raw_run_file(dir + "/bad_op.wlr", 1, bad_op)};
  try {
    write_log_file(bad, path, 2);
    ADD_FAILURE() << "an unknown op code was written";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "RunFileReader: unknown op code in run file '" + dir + "/bad_op.wlr'");
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir);
}

// Hostile run bytes and indexes fail with RunFileReader's error texts, from
// the reader and from the log writer alike, and leave no log behind.
TEST(RunFileReader, RejectsHostileRunsWithItsErrorTexts) {
  const std::string dir = temp_dir("hostile");
  const std::string path = dir + "/usage.log";
  const std::string good = encoded(make_record(1, 2.0, 3.0));
  const auto expect_error = [&](const std::vector<SpillRun>& runs, const std::string& what) {
    SCOPED_TRACE(what);
    try {
      for (const SpillRun& run : runs) {
        RunFileReader reader(run);
        OpRecord r;
        while (reader.next(r)) {
        }
      }
      ADD_FAILURE() << "the reader accepted the run";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), what);
    }
    for (const std::size_t threads : {1, 4}) {
      try {
        detail::write_log_file(runs, path, threads, 3);
        ADD_FAILURE() << "the writer accepted the run";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), what);
      }
      EXPECT_FALSE(std::filesystem::exists(path));
    }
  };
  const std::vector<OpRecord> one = {make_record(0, 1.0, 1.0)};
  const SpillRun other = memory_run(one);
  const std::string bad = dir + "/bad.wlr";
  // A varint cut short by the end of the file.
  expect_error({other, raw_run_file(bad, 2, good + good.substr(0, 17))},
               "RunFileReader: truncated run file '" + bad + "'");
  // An 11-byte u64 varint in file_size.
  expect_error({other, raw_run_file(bad, 1, good.substr(0, good.size() - 1) +
                                               std::string(10, '\x80') + '\x01')},
               "RunFileReader: corrupt run file '" + bad + "'");
  // A packed byte of kRunPackedCodes.
  std::string packed = good;
  packed[18] = static_cast<char>(kRunPackedCodes);
  expect_error({other, raw_run_file(bad, 1, packed)},
               "RunFileReader: unknown op code in run file '" + bad + "'");

  // A sink's run of five blocks, then its index made to lie.
  SpillSink sink(dir + "/spool", "t", 1000);
  const UsageLog log = spill_ordered_log(5 * kRunIndexStride);
  for (const OpRecord& r : log.records()) sink.append(r);
  sink.close();
  ASSERT_EQ(sink.runs().size(), 1u);
  const SpillRun run = sink.runs().front();
  ASSERT_EQ(run.index->size(), 5u);
  const auto with_block = [&run](std::size_t b, std::uint64_t offset) {
    SpillRun lying = run;
    auto index = std::make_shared<std::vector<RunBlock>>(*run.index);
    (*index)[b].offset = offset;
    lying.index = std::move(index);
    return lying;
  };
  const std::string truncated = "RunFileReader: truncated run file '" + run.path + "'";
  const std::string corrupt = "RunFileReader: corrupt run file '" + run.path + "'";
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    // A block that starts past the file's end.
    const std::vector<SpillRun> past_end = {other, with_block(4, run.bytes)};
    try {
      detail::write_log_file(past_end, path, threads, 3);
      ADD_FAILURE() << "the writer accepted a block past the file's end";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), truncated);
    }
    // A block too close to the one before to hold its 32 records.
    try {
      const std::vector<SpillRun> too_close = {other, with_block(3, (*run.index)[2].offset + 1)};
      detail::write_log_file(too_close, path, threads, 3);
      ADD_FAILURE() << "the writer accepted a block too small for its records";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), corrupt);
    }
    // A block that starts one byte into a record: what its bytes decode to
    // from there is arbitrary, so the error may be any of the reader's.
    try {
      const std::vector<SpillRun> inside = {other, with_block(2, (*run.index)[2].offset + 1)};
      detail::write_log_file(inside, path, threads, 3);
      ADD_FAILURE() << "the writer accepted a block that starts inside a record";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_TRUE(what == corrupt || what == truncated ||
                  what == "RunFileReader: unknown op code in run file '" + run.path + "'")
          << what;
    }
    EXPECT_FALSE(std::filesystem::exists(path));
  }
  std::filesystem::remove_all(dir);
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

// ---------------------------------------------------------------------------
// Text codec properties: format_record_text's integer %.17g writer against
// std::to_chars, and parse_record_line's one-pass path against the general
// path it falls back to.
// ---------------------------------------------------------------------------

// A real log's records: three users of the default workload on one machine.
const std::vector<OpRecord>& real_records() {
  static const std::vector<OpRecord> records = [] {
    runner::WorkloadConfig workload;
    workload.seed = 29;
    workload.usim.sessions_per_user = 3;
    return runner::run_shared(workload, 3).log.records();
  }();
  return records;
}

std::string chars17(double v) {
  char text[32];
  return {text, std::to_chars(text, text + sizeof text, v, std::chars_format::general, 17).ptr};
}

// Writes records with `values` two at a time in their double fields and
// compares each line's first two fields with std::to_chars(general, 17).
void expect_writer_matches_to_chars(const std::vector<double>& values) {
  char line[kMaxRecordTextBytes];
  OpRecord r;
  for (std::size_t i = 0; i < values.size(); i += 2) {
    r.issue_time_us = values[i];
    r.response_us = values[i + 1 < values.size() ? i + 1 : i];
    const std::string_view text(line, static_cast<std::size_t>(format_record_text(r, line) - line));
    const std::string expected = chars17(r.issue_time_us) + '\t' + chars17(r.response_us) + '\t';
    ASSERT_EQ(text.substr(0, expected.size()), expected)
        << std::hexfloat << r.issue_time_us << ' ' << r.response_us;
  }
}

TEST(TextCodecProperty, WriterMatchesToCharsOnEveryClassOfDouble) {
  std::mt19937_64 rng(29);
  constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
  // A double of biased exponent in [lo, hi] and a random mantissa, half the
  // time cut to its top bits so short fractions and integers come up.
  const auto draw = [&](std::uint64_t lo, std::uint64_t hi) {
    std::uint64_t mantissa = rng() & kMantissa;
    if (rng() % 2 == 0) mantissa &= ~((std::uint64_t{1} << (rng() % 53)) - 1);
    return std::bit_cast<double>((lo + rng() % (hi - lo + 1)) << 52 | mantissa);
  };
  std::vector<double> values;
  std::size_t fast = 0;
  for (std::size_t i = 0; i < 4'000'000; ++i) {
    switch (i % 16) {
      case 0:  // subnormal
        values.push_back(std::bit_cast<double>(1 + rng() % kMantissa));
        break;
      case 1:  // (0, 1)
        values.push_back(draw(1, 1022));
        break;
      case 2:  // [2^53, max]
        values.push_back(draw(1023 + 53, 2046));
        break;
      case 3:  // negative, any finite magnitude
        values.push_back(-draw(0, 2046));
        break;
      case 4: {  // +-0, +-inf and nan with any payload and sign
        const double specials[] = {0.0, -0.0, std::numeric_limits<double>::infinity(),
                                   -std::numeric_limits<double>::infinity(),
                                   std::bit_cast<double>(rng() | (std::uint64_t{2047} << 52) |
                                                         (std::uint64_t{1} << 51))};
        values.push_back(specials[rng() % 5]);
        break;
      }
      default:  // [1, 2^53): the integer kernel
        values.push_back(draw(1023, 1023 + 52));
        ++fast;
    }
  }
  EXPECT_GT(fast, 2'000'000u);
  expect_writer_matches_to_chars(values);

  // +-2000 ulps around every power of ten from 1 to 10^17.
  values.clear();
  double power = 1.0;
  for (int d = 0; d <= 17; ++d, power *= 10.0) {
    const auto bits = std::bit_cast<std::uint64_t>(power);
    for (std::uint64_t ulp = 0; ulp <= 2000; ++ulp) {
      values.push_back(std::bit_cast<double>(bits + ulp));
      values.push_back(std::bit_cast<double>(bits - ulp));
    }
  }
  expect_writer_matches_to_chars(values);

  // Exact ties: with d integer digits %.17g keeps k = 17 - d fraction
  // digits, and v = I + odd / 2^(k+1) lies halfway between two of them.
  // Such a v is a double when I < 2^(52 - k).
  values.clear();
  std::uint64_t low = 1;
  for (int d = 1; d <= 16; ++d, low *= 10) {
    const int k = 17 - d;
    const std::uint64_t high = std::min(low * 10, std::uint64_t{1} << (52 - k));
    for (int i = 0; i < 4000; ++i) {
      const std::uint64_t integer = low + rng() % (high - low);
      const std::uint64_t odd = 2 * (rng() % (std::uint64_t{1} << k)) + 1;
      values.push_back(std::ldexp(static_cast<double>(integer << (k + 1) | odd), -(k + 1)));
    }
  }
  expect_writer_matches_to_chars(values);

  values.clear();
  for (const OpRecord& r : real_records()) {
    values.push_back(r.issue_time_us);
    values.push_back(r.response_us);
  }
  expect_writer_matches_to_chars(values);
}

// What a parse of `line` gives: the record, or the exception's text.
struct ParseOutcome {
  std::optional<OpRecord> record;
  std::string error;
};

template <typename Parse>
ParseOutcome parse_outcome(Parse parse, const std::string& line) {
  try {
    return {parse(line), {}};
  } catch (const std::invalid_argument& e) {
    return {std::nullopt, e.what()};
  }
}

TEST(TextCodecProperty, OnePassParserMatchesGeneralPathOnMutatedLines) {
  std::vector<std::string> lines;
  char text[kMaxRecordTextBytes];
  for (const OpRecord& r : real_records()) {
    lines.emplace_back(text, format_record_text(r, text) - 1);  // without the '\n'
  }
  ASSERT_GT(lines.size(), 500u);
  const std::string alphabet = "0123456789-+.eExpinaf \t\r\v#";
  const std::vector<std::string> tokens = {
      "", " ", "-", "+", "-0", "0", "00", "0012", "+5", "1e3", "1E+3", "1e", "1e400", "-1e400",
      "1e-400", "4e-320", "nan", "-nan", "nan(123)", "inf", "-inf", "-Infinity", "0x1p3", "0X10", ".5", "5.", "-.5", "-1",
      "18446744073709551615", "9223372036854775807", "9223372036854775808", "4294967296",
      "4294967297", "2147483648", "-2147483649", " 17 ", "17 ", "\v17", "1.5e", "2", "3", "4",
      "read", "readdir", "reads", "READ", "open ", "\r", "\t", "1\t2"};
  std::mt19937_64 rng(28);
  // Field boundaries of `line`: [start, end) of field i.
  const auto field = [](const std::string& line, std::size_t i) {
    std::size_t start = 0;
    for (; i > 0; --i) {
      const std::size_t tab = line.find('\t', start);
      if (tab == std::string::npos) return std::pair{line.size(), line.size()};
      start = tab + 1;
    }
    return std::pair{start, std::min(line.find('\t', start), line.size())};
  };
  std::size_t accepted = 0;
  constexpr std::size_t kTrials = 120'000;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    std::string line = lines[rng() % lines.size()];
    for (std::size_t edits = 1 + rng() % 3; edits > 0; --edits) {
      const std::size_t at = rng() % (line.size() + 1);
      const auto [start, end] = field(line, rng() % 13);
      switch (rng() % 8) {
        case 0:  // overwrite a byte
          if (at < line.size()) line[at] = alphabet[rng() % alphabet.size()];
          break;
        case 1:  // insert a byte
          line.insert(at, 1, alphabet[rng() % alphabet.size()]);
          break;
        case 2:  // delete a byte
          if (at < line.size()) line.erase(at, 1);
          break;
        case 3:  // replace a field
        case 4:
          line.replace(start, end - start, tokens[rng() % tokens.size()]);
          break;
        case 5:  // cut the line short
          line.resize(at);
          break;
        case 6:  // drop a field and its tab
          line.erase(start, std::min(end + 1, line.size()) - start);
          break;
        case 7:  // repeat a field
          line.insert(start, line.substr(start, end - start) + '\t');
          break;
      }
    }
    SCOPED_TRACE(line);
    const ParseOutcome fast = parse_outcome(parse_record_line, line);
    const ParseOutcome general = parse_outcome(detail::parse_record_fields, line);
    ASSERT_EQ(fast.error, general.error);
    ASSERT_EQ(fast.record.has_value(), general.record.has_value());
    if (fast.record) {
      ASSERT_TRUE(same_record(*fast.record, *general.record));
      ++accepted;
    }
  }
  // Both outcomes come up often.
  EXPECT_GT(accepted, kTrials / 10);
  EXPECT_LT(accepted, kTrials * 9 / 10);
  for (const std::string& line : lines) {
    ASSERT_TRUE(same_record(parse_record_line(line), detail::parse_record_fields(line))) << line;
  }
  // The one-pass path's op table against fsmodel::to_string, op by op.
  for (std::size_t op = 0; op < fsmodel::kFsOpTypeCount; ++op) {
    OpRecord r = real_records().front();
    r.op = static_cast<fsmodel::FsOpType>(op);
    EXPECT_EQ(parse_record_line(std::string(text, format_record_text(r, text) - 1)).op, r.op);
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
  write_log_file({memory_run(log.records())}, path, 1);
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
