#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/usage_log.h"

namespace wlgen::core {

// ---------------------------------------------------------------------------
// Producer side: LogSink
// ---------------------------------------------------------------------------

/// Record-at-a-time consumer of a usage-log stream — the producer-side half
/// of the streaming log pipeline (DESIGN.md "Streaming log pipeline").
/// Everything that used to "return a UsageLog by value" now appends into a
/// LogSink instead, so the producer never has to know whether records are
/// being materialized in one UsageLog (MemorySink) or cut into sorted runs
/// (SpillSink — the sharded runner's path, in RAM or on disk).
class LogSink {
 public:
  virtual ~LogSink() = default;

  /// Appends one completed-op record.  Producers append in per-user issue
  /// order with ascending user index across users (the order UserSimulator
  /// and the sharded runner naturally produce).
  virtual void append(const OpRecord& record) = 0;

  /// Flushes buffered state and finalizes the sink.  Idempotent; append()
  /// must not be called afterwards.
  virtual void close() = 0;
};

/// In-memory sink: appends into one UsageLog.
class MemorySink final : public LogSink {
 public:
  void append(const OpRecord& record) override { log_.append(record); }
  void close() override {}

  const UsageLog& log() const { return log_; }
  UsageLog take_log() { return std::move(log_); }

 private:
  UsageLog log_;
};

// ---------------------------------------------------------------------------
// Binary run format
// ---------------------------------------------------------------------------

/// The run record, the one binary form of a log record: in SpillSink's
/// buffer, in run files and in memory runs.  In order: issue_time_us and
/// response_us as their raw little-endian IEEE-754 bits (8 bytes each, so
/// a round trip is bit-exact: the merge contract and the %.17g digests
/// both depend on that), user and session as LEB128 varints, one byte
/// packing op and the three category axes as
/// ((op * 2 + file_type) * 3 + owner) * 4 + use, below kRunPackedCodes,
/// then requested_bytes, actual_bytes, file_id and file_size as LEB128
/// varints.  A varint has no trailing zero byte and no bits past its
/// field's width, so every record has exactly one encoding.  Records take
/// kMinRunRecordBytes to kMaxRunRecordBytes; a live run averages about 27.
inline constexpr std::size_t kMinRunRecordBytes = 16 + 2 + 1 + 4;
inline constexpr std::size_t kMaxRunRecordBytes = 16 + 2 * 5 + 1 + 4 * 10;
inline constexpr unsigned kRunPackedCodes = fsmodel::kFsOpTypeCount * 2 * 3 * 4;
static_assert(kRunPackedCodes <= 256, "op and category must pack into one byte");

/// A run file: 8-byte magic + u64 record count, then the records back to
/// back.  kSpillMagicV1 marks the retired fixed-width 60-byte format.
inline constexpr std::size_t kSpillHeaderBytes = 16;
inline constexpr char kSpillMagic[8] = {'W', 'L', 'G', 'R', 'U', 'N', '2', '\0'};
inline constexpr char kSpillMagicV1[8] = {'W', 'L', 'G', 'R', 'U', 'N', '1', '\0'};

/// Encodes `record` at `out`, which must have room for kMaxRunRecordBytes;
/// returns the bytes written.  Throws std::invalid_argument when the op or
/// a category axis lies outside its enum.
std::size_t encode_record(const OpRecord& record, unsigned char* out);

/// How decoding a record ended.
enum class DecodeStatus : unsigned char {
  ok,
  truncated,   ///< the bytes end inside the record
  corrupt,     ///< a varint longer than its field, or not in its one encoding
  unknown_op,  ///< the packed byte is kRunPackedCodes or more
};

/// Decodes the record at `in`, reading no byte at or past `end`.  On ok it
/// fills `out` and moves `in` past the record; otherwise `in` and `out`
/// are unspecified.
DecodeStatus decode_record(const unsigned char*& in, const unsigned char* end, OpRecord& out);

/// The merge key of one record: (issue_time_us, user).
struct RunKey {
  double issue_time_us = 0.0;
  std::uint32_t user = 0;

  friend bool operator==(const RunKey&, const RunKey&) = default;
};

/// A run is cut into blocks of kRunIndexStride records (the last may hold
/// fewer): records 0-31, 32-63, ...
inline constexpr std::size_t kRunIndexStride = 32;

/// One block of a run: its first record's key and the byte offset of that
/// record from the start of the run's records (the header not counted).
struct RunBlock {
  RunKey first;
  std::uint64_t offset = 0;

  friend bool operator==(const RunBlock&, const RunBlock&) = default;
};

/// Appends the block that `record` starts to `index` when `position`, its
/// place in its run, is a multiple of kRunIndexStride; `offset` is where
/// its bytes start in the run's records.
inline void index_record(std::vector<RunBlock>& index, std::uint64_t position,
                         const OpRecord& record, std::uint64_t offset) {
  if (position % kRunIndexStride == 0) index.push_back({{record.issue_time_us, record.user}, offset});
}

/// One sorted run: a `.wlr` file at `path`, or — with an empty path — the
/// encoded records `encoded`, held alive by `memory`.
struct SpillRun {
  std::string path;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;  ///< file size including the header (0 in memory)
  std::shared_ptr<const void> memory;  ///< owns `encoded`; null for a run file
  std::span<const unsigned char> encoded;
  /// The run's blocks (index_record over its records), so that
  /// write_log_file can cut a run without reading it first; null when
  /// unknown.  SpillSink and memory_run record it for every run they make.
  std::shared_ptr<const std::vector<RunBlock>> index;
};

/// A memory run over `records`, which must already be in the order the run
/// is to be read in.  The records are encoded in place, in their own
/// storage (a run record is never larger than an OpRecord), so the run
/// costs no memory beyond what it wraps.
SpillRun memory_run(std::vector<OpRecord> records);

/// Run-cutting sink: encodes each appended record into one byte buffer and
/// cuts the buffer into sorted runs of ~`buffer_records` records each — run
/// files (`<stem>_run<NNNNNN>.wlr` under `dir`), or memory runs when `dir`
/// is empty.  Only where a run lives differs: the cut, the order and
/// therefore the merged stream are the same.
///
/// Runs are only cut at *user boundaries*: a user's records never straddle
/// two runs.  Producers append users in ascending index order and each
/// user's records in issue order (per-user issue times are nondecreasing —
/// records are emitted at op completion inside a time-monotone event loop).
/// The buffer is a sequence of segments, each a maximal stretch of one
/// user's appends whose issue times do not descend, numbered in append
/// order.  A run is a loser-tree merge of its segments by (issue_time,
/// user), a tie going to the lower segment: the order of a stable sort by
/// (issue_time, user), on any input, and its records' bytes are copied in
/// that order without being decoded.  That plus a k-way merge keyed the
/// same way reproduces runner::merge_user_logs byte for byte: within-user
/// order survives the merge, and a (time, user) key can never tie across
/// runs because a user lives in exactly one run.  The buffer is reserved
/// once, at `buffer_records` records of kMaxRunRecordBytes; it grows only
/// when the user that crosses the budget brings more than that reservation
/// has left.
class SpillSink final : public LogSink {
 public:
  /// Creates `dir` if needed (none when empty: the runs stay in memory).
  /// Throws std::runtime_error when the directory or a run file cannot be
  /// created or written, and std::invalid_argument for a record that
  /// encode_record refuses.
  SpillSink(std::string dir, std::string stem, std::size_t buffer_records = 65536);
  ~SpillSink() override;
  SpillSink(const SpillSink&) = delete;
  SpillSink& operator=(const SpillSink&) = delete;

  void append(const OpRecord& record) override;
  void close() override;

  /// The finished runs (valid after close()).
  const std::vector<SpillRun>& runs() const { return runs_; }
  std::uint64_t records_written() const { return records_written_; }
  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  void flush();
  void reserve(std::size_t bytes);

  std::string dir_;
  std::string stem_;
  std::size_t buffer_records_;
  std::unique_ptr<unsigned char[]> buffer_;  ///< the buffered records, encoded
  std::size_t buffer_size_ = 0;              ///< bytes used
  std::size_t buffer_capacity_ = 0;
  std::size_t buffered_ = 0;            ///< records in the buffer
  std::vector<std::size_t> segments_;   ///< where each segment starts in the buffer
  std::vector<SpillRun> runs_;
  std::uint64_t records_written_ = 0;
  std::uint64_t bytes_written_ = 0;
  double last_time_ = 0.0;
  std::uint32_t last_user_ = 0;
  bool have_user_ = false;
  bool closed_ = false;
};

// ---------------------------------------------------------------------------
// Consumer side: LogReader
// ---------------------------------------------------------------------------

/// Forward cursor over a usage-log stream — the consumer-side half of the
/// pipeline.  UsageAnalyzer, the text serializer and open-loop
/// TraceReplayer all iterate one of these, so they work identically over an
/// in-RAM log, a text file read a block at a time, one run, or a k-way
/// merge of a million users' runs.
class LogReader {
 public:
  virtual ~LogReader() = default;

  /// Fills `out` with the next record; false at end of stream.
  virtual bool next(OpRecord& out) = 0;
};

/// Cursor over a materialized UsageLog (non-owning).
class MemoryLogReader final : public LogReader {
 public:
  explicit MemoryLogReader(const UsageLog& log) : log_(log) {}
  bool next(OpRecord& out) override {
    if (index_ >= log_.size()) return false;
    out = log_.records()[index_++];
    return true;
  }

 private:
  const UsageLog& log_;
  std::size_t index_ = 0;
};

/// Cursor over one run, decoding its records in order: a run file read a
/// buffer at a time, or a memory run's bytes.  Throws std::runtime_error
/// naming the file: "RunFileReader: cannot open run file '<path>'",
/// "'<path>' is not a wlgen run file" (bad magic), "truncated run file"
/// (the bytes end before the header's count of records), "corrupt run
/// file" (a varint not in its one encoding) or "unknown op code in run
/// file" (a packed byte of kRunPackedCodes or more).
class RunFileReader final : public LogReader {
 public:
  explicit RunFileReader(const SpillRun& run);
  ~RunFileReader() override;
  RunFileReader(const RunFileReader&) = delete;
  RunFileReader& operator=(const RunFileReader&) = delete;

  bool next(OpRecord& out) override;

  /// Where the next record starts, in bytes from the start of the run's
  /// records.
  std::uint64_t offset() const { return offset_; }

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  std::shared_ptr<const void> memory_;
  std::vector<unsigned char> buffer_;
  const unsigned char* pos_ = nullptr;  ///< unread bytes [pos_, end_)
  const unsigned char* end_ = nullptr;
  bool at_eof_ = false;                 ///< nothing left to read into buffer_
  std::uint64_t remaining_ = 0;         ///< records left in the run
  std::uint64_t offset_ = 0;
};

/// Loser-tree k-way merge over sorted inputs, keyed by (issue_time, user)
/// with input index as the final tie-break — the reader that gives a
/// sharded run's runs the exact merge_user_logs stream.  Each input must
/// itself be non-descending on (issue_time, user).  Handles k = 0 (empty
/// stream) and k = 1 (degenerate pass-through) without special casing at
/// the call site.
class MergeLogReader final : public LogReader {
 public:
  explicit MergeLogReader(std::vector<std::unique_ptr<LogReader>> inputs);
  bool next(OpRecord& out) override;

 private:
  bool beats(std::size_t a, std::size_t b) const;
  void replay(std::size_t leaf);

  std::vector<std::unique_ptr<LogReader>> inputs_;
  std::vector<OpRecord> current_;
  std::vector<char> valid_;
  std::vector<std::size_t> tree_;  ///< [0] = winner, [1..k-1] = losers
  std::size_t k_ = 0;
};

/// Opens the merged (issue_time, user) view over a set of runs, memory runs
/// and run files alike.  One run passes through in its own order.
std::unique_ptr<LogReader> open_spilled_log(const std::vector<SpillRun>& runs);

// ---------------------------------------------------------------------------
// Streaming adapters
// ---------------------------------------------------------------------------

/// Streams the reader to `out` in UsageLog::serialize's exact text format
/// (header line + one tab-separated record per line, %.17g doubles),
/// formatting on the calling thread a buffer of lines at a time.  Returns
/// the number of records written.
std::uint64_t write_log_text(LogReader& reader, std::ostream& out);

/// What write_log_file wrote.
struct WrittenLog {
  std::uint64_t records = 0;
  /// False when a record came before its predecessor in (issue_time_us,
  /// user) order — runner::OrderCheck over the text's records.
  bool ordered = true;
};

/// Records per slice of write_log_file.
inline constexpr std::size_t kLogSliceRecords = 4096;

/// Writes the merged text of `runs` — open_spilled_log's stream, in
/// write_log_text's format — to the file `path`, merged and formatted on up
/// to `threads` threads (capped at the core count).  The merged (issue_time,
/// user, run, position) order is cut into contiguous key-range slices of
/// about kLogSliceRecords records, with splitters taken from the runs'
/// blocks (SpillRun::index, or a scan of a run that has none).  Each slice
/// is merged and formatted into its own buffer by one worker, which
/// decodes one contiguous range of each run, in memory or read with one
/// pread; the calling thread writes the slices in order, so the bytes are
/// the same for any `threads`.  At most two slices per worker are in
/// flight.  One run is cut by position and passes through in its own order.
/// Cuts never go back, so every record of an unsorted run is written
/// exactly once (and `ordered` is false).  Creates parent directories;
/// throws std::runtime_error when the file cannot be opened, written or
/// closed, and RunFileReader's errors for a run that cannot be opened, is
/// not a run file, is truncated, is corrupt (a varint out of its one
/// encoding, or a block that does not end where the index starts the next)
/// or holds an unknown op code; on any failure removes the partial file
/// (when it is a regular file) before rethrowing.
WrittenLog write_log_file(const std::vector<SpillRun>& runs, const std::string& path,
                          std::size_t threads);

namespace detail {
/// write_log_file with `slice_records` records per slice (tests put seams
/// everywhere with a few).
WrittenLog write_log_file(const std::vector<SpillRun>& runs, const std::string& path,
                          std::size_t threads, std::size_t slice_records);
}  // namespace detail

/// Text below this size is parsed on the calling thread; above it the
/// parser cuts one chunk per this many bytes, up to one per thread.
inline constexpr std::size_t kMinParseChunkBytes = 256 * 1024;

/// Parses UsageLog text (serialize() output) on up to `threads` threads
/// (capped at the core count, like write_log_file's workers), scanning
/// lines and fields in place.  The text is cut at line boundaries into at
/// most one chunk per thread, none smaller than kMinParseChunkBytes; a first
/// pass counts each chunk's records, the record vector is sized once, and a
/// second pass parses every chunk straight into its own slice of it, so the
/// records are the same for any `threads`.  Throws std::invalid_argument on
/// malformed input, naming the lowest malformed 1-based line:
/// "<source>:<line>: <detail>", or "UsageLog::parse: line <line>: <detail>"
/// when `source` is empty.  Any other exception on a worker is rethrown on
/// the calling thread.
UsageLog parse_log_text(std::string_view text, std::size_t threads,
                        const std::string& source = {});

/// TextLogReader reads its file this many bytes at a time, and more only
/// while a line runs past the bytes read so far.
inline constexpr std::size_t kLogReadBlockBytes = 64 * 1024;

/// Cursor over a usage-log text file (serialize() output) in file order,
/// read and parsed a block at a time, so memory stays at a small ring of
/// blocks whatever the file's size.  The calling thread reads each block of
/// whole lines (about `block_bytes`) and up to threads - 1 parser threads
/// (capped at the core count) parse the blocks ahead of the one being
/// yielded; next() parses unclaimed blocks itself rather than wait.  The records are exactly
/// parse_log_text's, in the same order, for any `threads` and
/// `block_bytes`.  A malformed line throws std::invalid_argument from the
/// next() that reaches it, after every record before it has come out, with
/// read_log_file's message: "<path>:<line>: <detail>", the line numbered in
/// the whole file.  Throws std::runtime_error when the file cannot be
/// opened or read.
class TextLogReader final : public LogReader {
 public:
  TextLogReader(const std::string& path, std::size_t threads,
                std::size_t block_bytes = kLogReadBlockBytes);
  ~TextLogReader() override;
  TextLogReader(const TextLogReader&) = delete;
  TextLogReader& operator=(const TextLogReader&) = delete;

  bool next(OpRecord& out) override {
    if (cursor_ == end_ && !advance()) return false;
    out = *cursor_++;
    return true;
  }

 private:
  struct Ring;  // the blocks, the file and the parser threads (log_sink.cpp)

  /// Moves to the next block with records; false at end of file.
  bool advance();

  std::unique_ptr<Ring> ring_;
  const OpRecord* cursor_ = nullptr;  ///< the current block's unread records
  const OpRecord* end_ = nullptr;
};

/// Reads a usage-log text file whole: materialize over a TextLogReader on
/// up to `threads` threads, so parse errors read "<path>:<line>: <detail>".
UsageLog read_log_file(const std::string& path, std::size_t threads);

/// Drains a reader into a UsageLog, read in fixed-size chunks and copied
/// into one vector sized once, so memory stays near one copy of the
/// records.
UsageLog materialize(LogReader& reader);

}  // namespace wlgen::core
