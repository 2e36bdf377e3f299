#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
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

/// Fixed-width little-endian record encoding.  Doubles are stored as their
/// raw IEEE-754 bits, so a spill-and-read round trip is bit-exact — the
/// merge contract and the %.17g digests both depend on that.
inline constexpr std::size_t kSpillRecordBytes = 60;

/// 8-byte magic + u64 record count, then count fixed-width records.
inline constexpr std::size_t kSpillHeaderBytes = 16;
inline constexpr char kSpillMagic[8] = {'W', 'L', 'G', 'R', 'U', 'N', '1', '\0'};

void encode_record(const OpRecord& record, unsigned char* out);
OpRecord decode_record(const unsigned char* in);

/// One sorted run: a `.wlr` file at `path`, or — with an empty path — the
/// records held in `memory`.
struct SpillRun {
  std::string path;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;  ///< file size including the header (0 in memory)
  std::shared_ptr<const std::vector<OpRecord>> memory;
};

/// A run held in memory over `records`, which must already be in the order
/// the run is to be read in.
SpillRun memory_run(std::vector<OpRecord> records);

/// Run-cutting sink: buffers records and cuts them into sorted runs of
/// ~`buffer_records` each — run files (`<stem>_run<NNNNNN>.wlr` under
/// `dir`), or memory runs when `dir` is empty.  Only where a run lives
/// differs: the cut, the sort and therefore the merged stream are the same.
///
/// Runs are only cut at *user boundaries*: a user's records never straddle
/// two runs.  Producers append users in ascending index order and each
/// user's records in issue order (per-user issue times are nondecreasing —
/// records are emitted at op completion inside a time-monotone event loop),
/// so a stable sort of each run by (issue_time, user) plus a k-way merge
/// keyed the same way reproduces runner::merge_user_logs byte for byte:
/// within-user order survives the stable sort, and a (time, user) key can
/// never tie across runs because a user lives in exactly one run.
class SpillSink final : public LogSink {
 public:
  /// Creates `dir` if needed (none when empty: the runs stay in memory).
  /// Throws std::runtime_error when the directory or a run file cannot be
  /// created.
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

  std::string dir_;
  std::string stem_;
  std::size_t buffer_records_;
  std::vector<OpRecord> buffer_;
  std::vector<SpillRun> runs_;
  std::uint64_t records_written_ = 0;
  std::uint64_t bytes_written_ = 0;
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

/// Buffered cursor over one binary run file.  Throws std::runtime_error on
/// open failure, bad magic, or a truncated file.
class RunFileReader final : public LogReader {
 public:
  explicit RunFileReader(const SpillRun& run);
  ~RunFileReader() override;
  RunFileReader(const RunFileReader&) = delete;
  RunFileReader& operator=(const RunFileReader&) = delete;

  bool next(OpRecord& out) override;

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  std::vector<unsigned char> buffer_;
  std::size_t buffer_pos_ = 0;   ///< bytes consumed from buffer_
  std::size_t buffer_len_ = 0;   ///< bytes valid in buffer_
  std::uint64_t remaining_ = 0;  ///< records left in the file
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
/// formatting blocks of records on the calling thread and handing each
/// block's text to one out.write.  Returns the number of records written.
std::uint64_t write_log_text(LogReader& reader, std::ostream& out);

/// write_log_text straight to a file, with the text formatted on up to
/// `threads` threads: the calling thread reads records and fwrites each
/// block's text in stream order, and threads - 1 formatter threads (capped
/// at the core count; none for threads <= 1) format blocks in between,
/// helped by the caller while it waits, so the bytes are the same for any
/// `threads`.  Memory stays at a bounded ring of blocks.  Creates parent
/// directories; throws std::runtime_error when the file cannot be opened,
/// written or closed, and on any failure removes the partial file (when it
/// is a regular file) before rethrowing.  Returns the number of records
/// written.
std::uint64_t write_log_file(LogReader& reader, const std::string& path, std::size_t threads);

/// Text below this size is parsed on the calling thread; above it the
/// parser cuts one chunk per this many bytes, up to one per thread.
inline constexpr std::size_t kMinParseChunkBytes = 256 * 1024;

/// Parses UsageLog text (serialize() output) on up to `threads` threads
/// (capped at the core count, like write_log_file's formatters), scanning
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
