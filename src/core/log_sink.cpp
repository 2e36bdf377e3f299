#include "core/log_sink.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "util/strings.h"

namespace wlgen::core {

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

namespace {

inline void put_u64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

inline std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

inline void put_u32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

inline std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

inline std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

inline double bits_double(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string run_file_name(const std::string& stem, std::size_t index) {
  char buffer[16];
  std::snprintf(buffer, sizeof buffer, "%06zu", index);
  return stem + "_run" + buffer + ".wlr";
}

}  // namespace

void encode_record(const OpRecord& r, unsigned char* out) {
  put_u64(out + 0, double_bits(r.issue_time_us));
  put_u64(out + 8, double_bits(r.response_us));
  put_u32(out + 16, r.user);
  put_u32(out + 20, r.session);
  out[24] = static_cast<unsigned char>(r.op);
  out[25] = static_cast<unsigned char>(r.category.file_type);
  out[26] = static_cast<unsigned char>(r.category.owner);
  out[27] = static_cast<unsigned char>(r.category.use);
  put_u64(out + 28, r.requested_bytes);
  put_u64(out + 36, r.actual_bytes);
  put_u64(out + 44, r.file_id);
  put_u64(out + 52, r.file_size);
}

OpRecord decode_record(const unsigned char* in) {
  OpRecord r;
  r.issue_time_us = bits_double(get_u64(in + 0));
  r.response_us = bits_double(get_u64(in + 8));
  r.user = get_u32(in + 16);
  r.session = get_u32(in + 20);
  r.op = static_cast<fsmodel::FsOpType>(in[24]);
  r.category.file_type = static_cast<FileType>(in[25]);
  r.category.owner = static_cast<FileOwner>(in[26]);
  r.category.use = static_cast<UseMode>(in[27]);
  r.requested_bytes = get_u64(in + 28);
  r.actual_bytes = get_u64(in + 36);
  r.file_id = get_u64(in + 44);
  r.file_size = get_u64(in + 52);
  return r;
}

// ---------------------------------------------------------------------------
// SpillSink
// ---------------------------------------------------------------------------

SpillSink::SpillSink(std::string dir, std::string stem, std::size_t buffer_records)
    : dir_(std::move(dir)),
      stem_(std::move(stem)),
      buffer_records_(std::max<std::size_t>(1, buffer_records)) {
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec && !std::filesystem::is_directory(dir_)) {
      throw std::runtime_error("SpillSink: cannot create spool directory '" + dir_ +
                               "': " + ec.message());
    }
  }
  buffer_.reserve(buffer_records_);
}

SpillSink::~SpillSink() = default;

void SpillSink::append(const OpRecord& record) {
  if (closed_) throw std::logic_error("SpillSink::append after close");
  // Runs are cut only when a *new* user arrives with the buffer over budget,
  // so a user's records never straddle two runs — the property that makes
  // per-run stable sort + k-way merge reproduce merge_user_logs exactly.
  if (have_user_ && record.user != last_user_ && buffer_.size() >= buffer_records_) flush();
  buffer_.push_back(record);
  last_user_ = record.user;
  have_user_ = true;
}

void SpillSink::close() {
  if (closed_) return;
  flush();
  buffer_ = std::vector<OpRecord>();  // a run's worth of RAM, no longer needed
  closed_ = true;
}

void SpillSink::flush() {
  if (buffer_.empty()) return;
  // Each user's records arrive in issue order (nondecreasing time) with
  // users ascending, so the stable sort keeps per-user relative order —
  // exactly merge_user_logs' key and tie rules within this run.
  std::stable_sort(buffer_.begin(), buffer_.end(), [](const OpRecord& a, const OpRecord& b) {
    if (a.issue_time_us != b.issue_time_us) return a.issue_time_us < b.issue_time_us;
    return a.user < b.user;
  });
  records_written_ += buffer_.size();
  if (dir_.empty()) {
    // A copy holds exactly the run; the buffer's capacity stays for reuse.
    runs_.push_back(memory_run({buffer_.begin(), buffer_.end()}));
    buffer_.clear();
    return;
  }

  const std::string path =
      (std::filesystem::path(dir_) / run_file_name(stem_, runs_.size())).string();
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    throw std::runtime_error("SpillSink: cannot create run file '" + path + "'");
  }

  unsigned char header[kSpillHeaderBytes];
  std::memcpy(header, kSpillMagic, sizeof kSpillMagic);
  put_u64(header + 8, buffer_.size());

  std::vector<unsigned char> encoded(buffer_.size() * kSpillRecordBytes);
  for (std::size_t i = 0; i < buffer_.size(); ++i) {
    encode_record(buffer_[i], encoded.data() + i * kSpillRecordBytes);
  }
  const bool ok = std::fwrite(header, 1, sizeof header, file) == sizeof header &&
                  std::fwrite(encoded.data(), 1, encoded.size(), file) == encoded.size();
  const bool closed_ok = std::fclose(file) == 0;
  if (!ok || !closed_ok) {
    throw std::runtime_error("SpillSink: short write to run file '" + path + "'");
  }

  SpillRun run;
  run.path = path;
  run.records = buffer_.size();
  run.bytes = kSpillHeaderBytes + encoded.size();
  bytes_written_ += run.bytes;
  runs_.push_back(std::move(run));
  buffer_.clear();
}

SpillRun memory_run(std::vector<OpRecord> records) {
  SpillRun run;
  run.records = records.size();
  run.memory = std::make_shared<const std::vector<OpRecord>>(std::move(records));
  return run;
}

// ---------------------------------------------------------------------------
// Run readers
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kReadChunkRecords = 1024;

/// Cursor over a memory run; shares ownership of its records.
class MemoryRunReader final : public LogReader {
 public:
  explicit MemoryRunReader(std::shared_ptr<const std::vector<OpRecord>> records)
      : records_(std::move(records)) {}
  bool next(OpRecord& out) override {
    if (index_ >= records_->size()) return false;
    out = (*records_)[index_++];
    return true;
  }

 private:
  std::shared_ptr<const std::vector<OpRecord>> records_;
  std::size_t index_ = 0;
};

}  // namespace

RunFileReader::RunFileReader(const SpillRun& run) : path_(run.path) {
  file_ = std::fopen(path_.c_str(), "rb");
  if (file_ == nullptr) {
    throw std::runtime_error("RunFileReader: cannot open run file '" + path_ + "'");
  }
  unsigned char header[kSpillHeaderBytes];
  if (std::fread(header, 1, sizeof header, file_) != sizeof header ||
      std::memcmp(header, kSpillMagic, sizeof kSpillMagic) != 0) {
    std::fclose(file_);
    file_ = nullptr;
    throw std::runtime_error("RunFileReader: '" + path_ + "' is not a wlgen run file");
  }
  remaining_ = get_u64(header + 8);
  buffer_.resize(kReadChunkRecords * kSpillRecordBytes);
}

RunFileReader::~RunFileReader() {
  if (file_ != nullptr) std::fclose(file_);
}

bool RunFileReader::next(OpRecord& out) {
  if (remaining_ == 0) return false;
  if (buffer_pos_ >= buffer_len_) {
    const std::size_t want =
        std::min<std::uint64_t>(remaining_, kReadChunkRecords) * kSpillRecordBytes;
    buffer_len_ = std::fread(buffer_.data(), 1, want, file_);
    buffer_pos_ = 0;
    // `want` is exactly what the header still owes us, so any short read —
    // even one that yields whole records — means the file was truncated.
    if (buffer_len_ != want) {
      throw std::runtime_error("RunFileReader: truncated run file '" + path_ + "'");
    }
  }
  out = decode_record(buffer_.data() + buffer_pos_);
  if (static_cast<std::size_t>(out.op) >= fsmodel::kFsOpTypeCount) {  // readers index by op
    throw std::runtime_error("RunFileReader: unknown op code in run file '" + path_ + "'");
  }
  buffer_pos_ += kSpillRecordBytes;
  --remaining_;
  return true;
}

// ---------------------------------------------------------------------------
// MergeLogReader (loser tree)
// ---------------------------------------------------------------------------

namespace {
constexpr std::size_t kNoInput = static_cast<std::size_t>(-1);
}

MergeLogReader::MergeLogReader(std::vector<std::unique_ptr<LogReader>> inputs)
    : inputs_(std::move(inputs)), k_(inputs_.size()) {
  current_.resize(k_);
  valid_.resize(k_, 0);
  tree_.assign(std::max<std::size_t>(k_, 1), kNoInput);
  for (std::size_t i = 0; i < k_; ++i) valid_[i] = inputs_[i]->next(current_[i]) ? 1 : 0;
  // Build the loser tree by inserting leaves in index order: each insertion
  // either settles into the first empty internal node on its root path or —
  // exactly once, for the last path — reaches tree_[0] as the winner.
  for (std::size_t i = 0; i < k_; ++i) {
    std::size_t winner = i;
    bool settled = false;
    for (std::size_t node = (i + k_) / 2; node >= 1; node /= 2) {
      if (tree_[node] == kNoInput) {
        tree_[node] = winner;
        settled = true;
        break;
      }
      if (beats(tree_[node], winner)) std::swap(winner, tree_[node]);
    }
    if (!settled) tree_[0] = winner;
  }
}

bool MergeLogReader::beats(std::size_t a, std::size_t b) const {
  if (!valid_[a]) return false;
  if (!valid_[b]) return true;
  const OpRecord& ra = current_[a];
  const OpRecord& rb = current_[b];
  if (ra.issue_time_us != rb.issue_time_us) return ra.issue_time_us < rb.issue_time_us;
  if (ra.user != rb.user) return ra.user < rb.user;
  return a < b;  // stability across inputs: lower input index first
}

void MergeLogReader::replay(std::size_t leaf) {
  std::size_t winner = leaf;
  for (std::size_t node = (leaf + k_) / 2; node >= 1; node /= 2) {
    if (beats(tree_[node], winner)) std::swap(winner, tree_[node]);
  }
  tree_[0] = winner;
}

bool MergeLogReader::next(OpRecord& out) {
  if (k_ == 0) return false;
  const std::size_t w = tree_[0];
  if (w == kNoInput || !valid_[w]) return false;
  out = current_[w];
  valid_[w] = inputs_[w]->next(current_[w]) ? 1 : 0;
  replay(w);
  return true;
}

std::unique_ptr<LogReader> open_spilled_log(const std::vector<SpillRun>& runs) {
  std::vector<std::unique_ptr<LogReader>> readers;
  readers.reserve(runs.size());
  for (const auto& run : runs) {
    if (run.memory) {
      readers.push_back(std::make_unique<MemoryRunReader>(run.memory));
    } else {
      readers.push_back(std::make_unique<RunFileReader>(run));
    }
  }
  return std::make_unique<MergeLogReader>(std::move(readers));
}

// ---------------------------------------------------------------------------
// Streaming adapters
// ---------------------------------------------------------------------------

namespace {

// Bounded ring of blocks between the calling thread, which fills blocks in
// stream order and takes them back in the same order, and `workers` threads
// that run `work` on published blocks, oldest first.  Block `seq` lives in
// slot seq % size(); the caller refills a slot only after taking back the
// block it held, so memory stays at size() blocks and the blocks come back
// in stream order whichever thread worked on them.
template <typename Block>
class BlockRing {
 public:
  BlockRing(std::size_t workers, void (*work)(Block&))
      : blocks_(workers == 0 ? 1 : 2 * (workers + 1)), work_(work), worked_(blocks_.size(), 0) {
    try {
      threads_.reserve(workers);
      for (std::size_t i = 0; i < workers; ++i) threads_.emplace_back([this] { work_loop(); });
    } catch (...) {
      stop_and_join();
      throw;
    }
  }
  ~BlockRing() { stop_and_join(); }
  BlockRing(const BlockRing&) = delete;
  BlockRing& operator=(const BlockRing&) = delete;

  std::size_t size() const { return blocks_.size(); }
  Block& slot(std::uint64_t seq) { return blocks_[seq % blocks_.size()]; }

  /// Publishes block `seq`, the one just filled, to the workers; with
  /// `worked` the caller has already worked on it, as it does on every
  /// block when there are no workers.
  void publish(std::uint64_t seq, bool worked) {
    {
      const std::lock_guard lock(mutex_);
      worked_[seq % blocks_.size()] = worked ? 1 : 0;
      published_ = seq + 1;
      if (worked) claimed_ = published_;
    }
    work_cv_.notify_one();
  }

  /// Returns once block `seq`, the oldest not taken back, has been worked
  /// on.  Rather than idle, the caller works on unclaimed blocks itself,
  /// oldest first.
  void await(std::uint64_t seq) {
    std::unique_lock lock(mutex_);
    const std::size_t index = seq % blocks_.size();
    while (!worked_[index] && claimed_ < published_) work_next(lock);
    done_cv_.wait(lock, [&] { return worked_[index] != 0; });
  }

 private:
  void work_loop() {
    std::unique_lock lock(mutex_);
    for (;;) {
      work_cv_.wait(lock, [this] { return stop_ || claimed_ < published_; });
      if (stop_) return;
      work_next(lock);
      done_cv_.notify_one();
    }
  }

  /// Claims the oldest unclaimed block and works on it with `lock` released.
  void work_next(std::unique_lock<std::mutex>& lock) {
    const std::uint64_t seq = claimed_++;
    lock.unlock();
    work_(slot(seq));
    lock.lock();
    worked_[seq % blocks_.size()] = 1;
  }

  void stop_and_join() {
    {
      const std::lock_guard lock(mutex_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& thread : threads_) thread.join();
  }

  std::vector<Block> blocks_;
  void (*const work_)(Block&);
  std::mutex mutex_;
  std::vector<char> worked_;         ///< per slot; guarded by mutex_
  std::uint64_t published_ = 0;      ///< guarded by mutex_
  std::uint64_t claimed_ = 0;        ///< guarded by mutex_
  bool stop_ = false;                ///< guarded by mutex_
  std::condition_variable work_cv_;  ///< a block was published, or stop_
  std::condition_variable done_cv_;  ///< a worker finished a block
  std::vector<std::thread> threads_;  // last: joined before the members above die
};

// Records per formatting block: enough that handing a block between threads
// costs little next to formatting it, few enough that the ring of blocks
// stays at a few MiB.
constexpr std::size_t kTextBlockRecords = 4096;

// One ring slot of write_log_text: records in stream order and, once
// formatted, their text.
struct TextBlock {
  std::vector<OpRecord> records = std::vector<OpRecord>(kTextBlockRecords);
  std::size_t count = 0;
  // Left uninitialised, so only the pages formatting writes become resident.
  std::unique_ptr<char[]> text =
      std::make_unique_for_overwrite<char[]>(kTextBlockRecords * kMaxRecordTextBytes);
  std::size_t text_size = 0;
};

void format_block(TextBlock& block) {
  char* out = block.text.get();
  for (std::size_t i = 0; i < block.count; ++i) out = format_record_text(block.records[i], out);
  block.text_size = static_cast<std::size_t>(out - block.text.get());
}

// Reads the stream's next block into `block` and returns its record count
// (0 at end of stream).  With `format` (no formatter threads) each record
// is formatted as it is read, which keeps the serial path at one pass over
// the records.
std::size_t fill_block(LogReader& reader, TextBlock& block, bool format) {
  OpRecord* const records = block.records.data();
  char* out = block.text.get();
  std::size_t count = 0;
  while (count < kTextBlockRecords && reader.next(records[count])) {
    if (format) out = format_record_text(records[count], out);
    ++count;
  }
  block.count = count;
  if (format) block.text_size = static_cast<std::size_t>(out - block.text.get());
  return count;
}

// Writes the header and every record's text to `flush(data, size)` in
// stream order.  The calling thread reads and writes, formatting too when
// it would otherwise wait; up to threads - 1 formatter threads turn blocks
// into text in between.  An exception from the reader or `flush` stops and
// joins the formatters before it leaves.
template <typename Flush>
std::uint64_t stream_log_text(LogReader& reader, std::size_t threads, Flush&& flush) {
  const char* const header = usage_log_header_line();
  flush(header, std::strlen(header));
  // More formatters than cores cannot format faster, and each adds two slots.
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t workers = std::clamp<std::size_t>(threads, 1, cores) - 1;
  BlockRing<TextBlock> ring(workers, &format_block);
  std::uint64_t filled = 0;
  std::uint64_t flushed = 0;
  std::uint64_t records = 0;
  bool more = true;
  for (;;) {
    if (more && filled - flushed < ring.size()) {
      const std::size_t count = fill_block(reader, ring.slot(filled), workers == 0);
      more = count == kTextBlockRecords;
      if (count > 0) ring.publish(filled++, workers == 0);
      continue;
    }
    if (flushed == filled) break;
    ring.await(flushed);
    const TextBlock& block = ring.slot(flushed++);
    flush(block.text.get(), block.text_size);
    records += block.count;
  }
  return records;
}

}  // namespace

std::uint64_t write_log_text(LogReader& reader, std::ostream& out) {
  return stream_log_text(reader, 1, [&out](const char* data, std::size_t size) {
    out.write(data, static_cast<std::streamsize>(size));
  });
}

std::uint64_t write_log_file(LogReader& reader, const std::string& path, std::size_t threads) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) throw std::runtime_error("write_log_file: cannot open " + path);
  // A partial log must not be left behind looking like a finished one; only
  // a regular file is removed (never a device such as /dev/null).
  const auto remove_partial = [&p] {
    std::error_code ec;
    if (std::filesystem::is_regular_file(p, ec)) std::filesystem::remove(p, ec);
  };
  std::uint64_t written = 0;
  try {
    written = stream_log_text(reader, threads, [&](const char* data, std::size_t size) {
      if (std::fwrite(data, 1, size, file) != size) {
        throw std::runtime_error("write_log_file: write failed for " + path);
      }
    });
  } catch (...) {
    std::fclose(file);
    remove_partial();
    throw;
  }
  if (std::fclose(file) != 0) {
    remove_partial();
    throw std::runtime_error("write_log_file: close failed for " + path);
  }
  return written;
}

namespace {

// Calls on_line(line_number, trimmed_line) for every '\n'-separated line of
// text[begin, end), numbering from `first_line`.  Returns the number of
// newlines it passed.  A chunk ends just after a newline (or at the end of
// the text), so the chunks' lines are exactly the text's lines.
template <typename OnLine>
std::size_t for_each_line(std::string_view text, std::size_t begin, std::size_t end,
                          std::size_t first_line, OnLine&& on_line) {
  std::size_t line_number = first_line;
  for (std::size_t start = begin; start < end; ++line_number) {
    const std::size_t newline = text.find('\n', start);
    const std::size_t stop = std::min(newline, end);
    on_line(line_number, util::trim_view(text.substr(start, stop - start)));
    if (stop == end) break;
    start = stop + 1;
  }
  return line_number - first_line;
}

bool is_record_line(std::string_view trimmed) { return !trimmed.empty() && trimmed.front() != '#'; }

// Runs job(i) for every i < jobs: the calling thread and up to jobs - 1
// helper threads claim indices from a shared counter.  A job's exception is
// kept in its own slot, so every job still runs and the caller rethrows the
// lowest index's exception after joining.  When a helper cannot be started,
// the threads already running (the caller among them) claim its share.
template <typename Job>
void run_chunks(std::size_t jobs, Job&& job) {
  std::vector<std::exception_ptr> errors(jobs);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < jobs;) {
      try {
        job(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> helpers;
  helpers.reserve(jobs);
  try {
    for (std::size_t i = 1; i < jobs; ++i) helpers.emplace_back(work);
  } catch (const std::system_error&) {
    // Fewer helpers: the shared counter hands their chunks to the others.
  }
  work();
  for (auto& helper : helpers) helper.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace

UsageLog parse_log_text(std::string_view text, std::size_t threads, const std::string& source) {
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t chunks = std::clamp<std::size_t>(
      std::min(threads, text.size() / kMinParseChunkBytes), 1, cores);
  // Chunk c is text[cut[c], cut[c + 1]); every inner cut sits just after a
  // newline, so no line straddles two chunks.
  std::vector<std::size_t> cut(chunks + 1, text.size());
  cut[0] = 0;
  for (std::size_t c = 1; c < chunks; ++c) {
    const std::size_t target = std::max(cut[c - 1], text.size() / chunks * c);
    const std::size_t newline = text.find('\n', target);
    cut[c] = newline == std::string_view::npos ? text.size() : newline + 1;
  }

  // Pass 1: each chunk's records and lines, so pass 2 knows where each
  // chunk's records go and which line number each chunk starts at.
  std::vector<std::size_t> records(chunks + 1, 0);
  std::vector<std::size_t> lines(chunks + 1, 0);
  run_chunks(chunks, [&](std::size_t c) {
    std::size_t count = 0;
    lines[c + 1] = for_each_line(text, cut[c], cut[c + 1], 0,
                                 [&](std::size_t, std::string_view line) {
                                   if (is_record_line(line)) ++count;
                                 });
    records[c + 1] = count;
  });
  for (std::size_t c = 0; c < chunks; ++c) {
    records[c + 1] += records[c];
    lines[c + 1] += lines[c];
  }

  // Pass 2: every chunk parses into its own slice of the one vector.
  UsageLog log;
  std::vector<OpRecord>& out = log.records_mutable();
  out.resize(records[chunks]);
  run_chunks(chunks, [&](std::size_t c) {
    OpRecord* slot = out.data() + records[c];
    const auto parse_line = [&](std::size_t line_number, std::string_view line) {
      if (!is_record_line(line)) return;
      try {
        *slot++ = parse_record_line(line);
      } catch (const std::invalid_argument& e) {
        const std::string where = source.empty()
                                      ? "UsageLog::parse: line " + std::to_string(line_number)
                                      : source + ":" + std::to_string(line_number);
        throw std::invalid_argument(where + ": " + e.what());
      }
    };
    for_each_line(text, cut[c], cut[c + 1], lines[c] + 1, parse_line);
  });
  return log;
}

// ---------------------------------------------------------------------------
// TextLogReader
// ---------------------------------------------------------------------------

namespace {

// One slot of a TextLogReader's ring: whole lines of the file and, once
// parsed, their records.
struct ParseBlock {
  std::string text;  ///< grown, never shrunk; bytes [0, size) hold the lines
  std::size_t size = 0;
  std::vector<OpRecord> records;
  std::size_t lines = 0;     ///< newlines in the block
  std::size_t bad_line = 0;  ///< first malformed line, 1-based in the block (0 = none)
  std::string bad_detail;
  std::exception_ptr error;  ///< any other failure while parsing
};

// Parses the block's lines as parse_log_text does; a malformed line stops
// the parse and is kept for the reader to report with its file line.
void parse_block(ParseBlock& block) {
  block.records.clear();
  block.bad_line = 0;
  block.error = nullptr;
  try {
    block.lines = for_each_line(std::string_view(block.text.data(), block.size), 0, block.size,
                                1, [&block](std::size_t line_number, std::string_view line) {
                                  if (block.bad_line != 0 || !is_record_line(line)) return;
                                  try {
                                    block.records.push_back(parse_record_line(line));
                                  } catch (const std::invalid_argument& e) {
                                    block.bad_line = line_number;
                                    block.bad_detail = e.what();
                                  }
                                });
  } catch (...) {
    block.error = std::current_exception();
  }
}

}  // namespace

// The reader's thread reads blocks into the ring, parser threads parse
// them, and advance() takes them back in file order.
struct TextLogReader::Ring {
  Ring(const std::string& file_path, std::size_t workers, std::size_t bytes)
      : path(file_path),
        block_bytes(std::max<std::size_t>(1, bytes)),
        file(std::fopen(path.c_str(), "rb")),
        blocks(workers, &parse_block) {
    if (file == nullptr) throw std::runtime_error("TextLogReader: cannot open " + path);
  }
  ~Ring() {
    if (file != nullptr) std::fclose(file);
  }

  /// Reads blocks into every free slot and publishes them to the parsers.
  void fill() {
    while (!at_eof && published < yielded + blocks.size()) {
      if (!read_block(blocks.slot(published))) break;
      blocks.publish(published++, false);
    }
  }

  /// Reads the file's next block into `block`: the partial line carried
  /// over from the last read, then block_bytes at a time until a read holds
  /// a newline or the file ends.  The block ends just after its last
  /// newline (or at the end of the file); the bytes after it carry over.
  /// False when the file has nothing left.
  bool read_block(ParseBlock& block) {
    std::size_t size = carry.size();
    if (block.text.size() < size) block.text.resize(size);
    std::memcpy(block.text.data(), carry.data(), size);
    carry.clear();
    while (!at_eof) {
      if (block.text.size() < size + block_bytes) block.text.resize(size + block_bytes);
      const std::size_t got = std::fread(block.text.data() + size, 1, block_bytes, file);
      const std::size_t newline = std::string_view(block.text.data() + size, got).rfind('\n');
      size += got;
      if (got < block_bytes) {
        if (std::ferror(file)) throw std::runtime_error("TextLogReader: cannot read " + path);
        at_eof = true;
      } else if (newline != std::string_view::npos) {
        const std::size_t cut = size - got + newline + 1;
        carry.assign(block.text.data() + cut, size - cut);
        size = cut;
        break;
      }
    }
    block.size = size;
    return size > 0;
  }

  const std::string path;
  const std::size_t block_bytes;
  std::FILE* const file;
  std::string carry;  ///< read past the last block's final newline
  bool at_eof = false;
  std::uint64_t published = 0;  ///< blocks read
  std::uint64_t yielded = 0;    ///< blocks whose records have all come out
  bool yielding = false;        ///< block `yielded` is the current one
  std::size_t line_base = 0;    ///< lines in the blocks already yielded
  BlockRing<ParseBlock> blocks;  // last: its parsers stop before the members above die
};

TextLogReader::TextLogReader(const std::string& path, std::size_t threads,
                             std::size_t block_bytes) {
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  ring_ = std::make_unique<Ring>(path, std::clamp<std::size_t>(threads, 1, cores) - 1,
                                 block_bytes);
}

TextLogReader::~TextLogReader() = default;

bool TextLogReader::advance() {
  Ring& ring = *ring_;
  for (;;) {
    if (ring.yielding) {
      const ParseBlock& block = ring.blocks.slot(ring.yielded);
      if (block.bad_line != 0) {  // its records before the bad line have come out
        throw std::invalid_argument(ring.path + ":" +
                                    std::to_string(ring.line_base + block.bad_line) + ": " +
                                    block.bad_detail);
      }
      ring.line_base += block.lines;
      ++ring.yielded;
      ring.yielding = false;
    }
    ring.fill();
    if (ring.yielded == ring.published) return false;
    ring.blocks.await(ring.yielded);
    ring.yielding = true;
    const ParseBlock& block = ring.blocks.slot(ring.yielded);
    if (block.error) std::rethrow_exception(block.error);
    if (!block.records.empty()) {
      cursor_ = block.records.data();
      end_ = cursor_ + block.records.size();
      return true;
    }
  }
}

UsageLog read_log_file(const std::string& path, std::size_t threads) {
  TextLogReader reader(path, threads);
  return materialize(reader);
}

UsageLog materialize(LogReader& reader) {
  // Fixed-size chunks, then one vector sized once: each chunk is freed as
  // it is copied, so memory stays near one copy of the records instead of
  // the up to two a doubling vector holds while it grows.
  constexpr std::size_t kChunkRecords = 65536;
  std::vector<std::vector<OpRecord>> chunks;
  std::size_t total = 0;
  OpRecord record;
  for (;;) {
    std::vector<OpRecord> chunk;
    chunk.reserve(kChunkRecords);
    while (chunk.size() < kChunkRecords && reader.next(record)) chunk.push_back(record);
    const bool full = chunk.size() == kChunkRecords;
    total += chunk.size();
    chunks.push_back(std::move(chunk));
    if (!full) break;
  }
  UsageLog log;
  std::vector<OpRecord>& out = log.records_mutable();
  out.reserve(total);
  for (std::vector<OpRecord>& chunk : chunks) {
    out.insert(out.end(), chunk.begin(), chunk.end());
    chunk = std::vector<OpRecord>();
  }
  return log;
}

}  // namespace wlgen::core
