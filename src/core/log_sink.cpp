#include "core/log_sink.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <filesystem>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <tuple>

#include <fcntl.h>
#include <unistd.h>

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

// Records a run file is encoded and written in at a time.
constexpr std::size_t kWriteChunkRecords = 1024;

std::string run_file_name(const std::string& stem, std::size_t index) {
  char buffer[21];  // up to 20 digits of a 64-bit index and the '\0'
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
  // A record's sort key and its place in the buffer: 16 bytes to move
  // where the record is 72.  The position as the last tie-break makes the
  // sort stable, so within a user the append order survives (see the
  // class comment).  Local, so that it is freed as soon as the run is cut.
  struct Key {
    double issue_time_us;
    std::uint32_t user;
    std::uint32_t position;
  };
  if (buffer_.size() - 1 > std::numeric_limits<std::uint32_t>::max()) {
    throw std::runtime_error("SpillSink: cannot sort a run of " +
                             std::to_string(buffer_.size()) + " records (at most 2^32)");
  }
  std::vector<Key> keys(buffer_.size());
  for (std::size_t i = 0; i < buffer_.size(); ++i) {
    keys[i] = {buffer_[i].issue_time_us, buffer_[i].user, static_cast<std::uint32_t>(i)};
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.issue_time_us != b.issue_time_us) return a.issue_time_us < b.issue_time_us;
    if (a.user != b.user) return a.user < b.user;
    return a.position < b.position;
  });
  records_written_ += buffer_.size();
  auto index = std::make_shared<std::vector<RunKey>>();
  index->reserve((keys.size() + kRunIndexStride - 1) / kRunIndexStride);
  for (std::size_t i = 0; i < keys.size(); i += kRunIndexStride) {
    index->push_back({keys[i].issue_time_us, keys[i].user});
  }
  if (dir_.empty()) {
    // The run holds exactly its records; the buffer's capacity stays for
    // reuse.  Only the positions are kept through the copy, 4 bytes a
    // record instead of the key's 16.
    std::vector<std::uint32_t> order(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) order[i] = keys[i].position;
    keys = std::vector<Key>();
    std::vector<OpRecord> records;
    records.reserve(order.size());
    for (const std::uint32_t position : order) records.push_back(buffer_[position]);
    SpillRun run = memory_run(std::move(records));
    run.index = std::move(index);
    runs_.push_back(std::move(run));
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
  put_u64(header + 8, keys.size());
  bool ok = std::fwrite(header, 1, sizeof header, file) == sizeof header;
  // Encoded a chunk at a time, straight from the sorted keys.
  std::vector<unsigned char> chunk(std::min(keys.size(), kWriteChunkRecords) * kSpillRecordBytes);
  for (std::size_t from = 0; ok && from < keys.size(); from += kWriteChunkRecords) {
    const std::size_t count = std::min(keys.size() - from, kWriteChunkRecords);
    for (std::size_t i = 0; i < count; ++i) {
      encode_record(buffer_[keys[from + i].position], chunk.data() + i * kSpillRecordBytes);
    }
    const std::size_t size = count * kSpillRecordBytes;
    ok = std::fwrite(chunk.data(), 1, size, file) == size;
  }
  const bool closed_ok = std::fclose(file) == 0;
  if (!ok || !closed_ok) {
    throw std::runtime_error("SpillSink: short write to run file '" + path + "'");
  }

  SpillRun run;
  run.path = path;
  run.records = keys.size();
  run.bytes = kSpillHeaderBytes + keys.size() * kSpillRecordBytes;
  run.index = std::move(index);
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

}  // namespace

// ---------------------------------------------------------------------------
// write_log_text
// ---------------------------------------------------------------------------

std::uint64_t write_log_text(LogReader& reader, std::ostream& out) {
  const char* const header = usage_log_header_line();
  out.write(header, static_cast<std::streamsize>(std::strlen(header)));
  constexpr std::size_t kBufferRecords = 256;
  const auto buffer = std::make_unique_for_overwrite<char[]>(kBufferRecords * kMaxRecordTextBytes);
  std::uint64_t records = 0;
  OpRecord record;
  for (bool more = true; more;) {
    char* end = buffer.get();
    for (std::size_t count = 0; count < kBufferRecords && (more = reader.next(record)); ++count) {
      end = format_record_text(record, end);
      ++records;
    }
    out.write(buffer.get(), end - buffer.get());
  }
  return records;
}

// ---------------------------------------------------------------------------
// write_log_file: key-range slices
// ---------------------------------------------------------------------------

namespace {

// A double's bits, mapped so that unsigned order is numeric order with -0
// equal to +0 (as == has them) and NaNs beyond every number: a strict total
// order, so that sorting keys read from a corrupt run stays defined.
std::uint64_t ordered_bits(double value) {
  const std::uint64_t bits = double_bits(value == 0.0 ? 0.0 : value);
  return (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
}

// A place in the merged order: (issue time, user, run, position).  For
// sorted runs this is exactly the order MergeLogReader yields records in.
struct SliceKey {
  std::uint64_t time = 0;
  std::uint32_t user = 0;
  std::uint32_t run = 0;
  std::uint64_t position = 0;

  friend bool operator<(const SliceKey& a, const SliceKey& b) {
    return std::tie(a.time, a.user, a.run, a.position) <
           std::tie(b.time, b.user, b.run, b.position);
  }
};

// True when `b` comes before `a` in (issue time, user) order: OrderCheck's test.
bool descends(const RunKey& a, const RunKey& b) {
  return b.issue_time_us < a.issue_time_us ||
         (b.issue_time_us == a.issue_time_us && b.user < a.user);
}

// Reads up to `size` bytes at `offset`; fewer only at the end of the file
// or on an error.
std::size_t pread_full(int fd, unsigned char* data, std::size_t size, std::uint64_t offset) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t got = ::pread(fd, data + done, size - done, static_cast<off_t>(offset + done));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    done += static_cast<std::size_t>(got);
  }
  return done;
}

// Items [begin, end) of one run, in run order: its records, or its samples.
template <typename T>
struct Span {
  const T* begin;
  const T* end;
};

// A span's head in the merge, packed so that comparing two takes no
// branch: (ordered issue-time bits, user << 32 | span index).  ordered_bits
// agrees with MergeLogReader's comparison of issue times for every value
// but NaN, so for NaN-free runs the order is MergeLogReader's.  A spent
// span's key has kSpent set and sorts after every record's.
struct MergeKey {
  std::uint64_t hi;
  std::uint64_t lo;
};
constexpr std::uint64_t kSpent = std::uint64_t{1} << 31;

MergeKey merge_key(const OpRecord& record, std::size_t span) {
  return {ordered_bits(record.issue_time_us), std::uint64_t{record.user} << 32 | span};
}

// A sample's key; with the samples of run r in span r, the merge's order is
// SliceKey's.
MergeKey merge_key(const SliceKey& sample, std::size_t span) {
  return {sample.time, std::uint64_t{sample.user} << 32 | span};
}

bool merge_before(const MergeKey& a, const MergeKey& b) {
  return (a.hi < b.hi) | ((a.hi == b.hi) & (a.lo < b.lo));
}

// Loser-tree merge of sorted spans in (issue time, user, span index) order,
// calling emit(item) for every item.  The tree holds the keys
// themselves: tree[0] is the winner and tree[1, k) the losers of a
// heap-shaped tree whose leaf i sits at node i + k.  `winners` is the
// scratch the tree is built in.
template <typename T, typename Emit>
void merge_spans(std::vector<Span<T>>& spans, std::vector<MergeKey>& tree,
                 std::vector<MergeKey>& winners, Emit&& emit) {
  const std::size_t k = spans.size();
  if (k <= 1) {
    for (const Span<T>& span : spans) std::for_each(span.begin, span.end, emit);
    return;
  }
  const auto head = [&spans](std::size_t i) {
    if (spans[i].begin == spans[i].end) {
      return MergeKey{~std::uint64_t{0}, ~std::uint64_t{0} << 32 | kSpent | i};
    }
    return merge_key(*spans[i].begin, i);
  };
  tree.resize(k);
  winners.resize(2 * k);
  for (std::size_t i = 0; i < k; ++i) winners[k + i] = head(i);
  for (std::size_t node = k - 1; node >= 1; --node) {
    const MergeKey& a = winners[2 * node];
    const MergeKey& b = winners[2 * node + 1];
    const bool a_wins = merge_before(a, b);
    tree[node] = a_wins ? b : a;
    winners[node] = a_wins ? a : b;
  }
  tree[0] = winners[1];
  for (;;) {
    MergeKey winner = tree[0];
    if ((winner.lo & kSpent) != 0) return;
    const std::size_t i = winner.lo & (kSpent - 1);
    emit(*spans[i].begin++);
    // k interleaved streams defeat the hardware prefetcher; a span is read
    // a few records ahead of its head instead.
    __builtin_prefetch(spans[i].begin + 8);
    winner = head(i);
    for (std::size_t node = (i + k) / 2; node >= 1; node /= 2) {
      const MergeKey loser = tree[node];
      const bool loser_wins = merge_before(loser, winner);
      tree[node] = loser_wins ? winner : loser;
      winner = loser_wins ? loser : winner;
    }
    tree[0] = winner;
  }
}

// One finished slice: its text and what the order check needs.
struct Slice {
  std::unique_ptr<char[]> text;
  std::size_t capacity = 0;  ///< records the text has room for
  std::size_t text_size = 0;
  std::uint64_t records = 0;
  bool ordered = true;  ///< no descent inside the slice
  RunKey first;
  RunKey last;
  std::exception_ptr error;
  bool done = false;  ///< guarded by the pipeline's mutex
};

// A worker's buffers, reused from slice to slice.
struct SliceScratch {
  std::vector<unsigned char> bytes;  ///< one run file's range
  std::vector<OpRecord> decoded;     ///< every run file's records in the slice
  /// Each run's records in the slice: at `memory`, or at `offset` in `decoded`.
  struct Range {
    const OpRecord* memory;
    std::size_t offset;
    std::size_t count;
  };
  std::vector<Range> ranges;
  std::vector<Span<OpRecord>> spans;
  std::vector<MergeKey> tree;
  std::vector<MergeKey> winners;
};

// The runs, opened, and where every slice boundary cuts each of them.
//
// Boundary b has a splitter key, drawn from the runs' sampled keys (every
// stride-th record), and cuts run r at the first record whose SliceKey is
// not below it.  The planner narrows each cut to a bracket [lo, hi] of at
// most one stride from the samples alone; the worker of a slice reads each
// run from its first boundary's lo to its last boundary's hi and finds the
// exact cuts by binary search.  Two workers find the same cut from the same
// bytes, so the slices tile every run.  For sorted runs the cuts are exact,
// and the slices concatenate to the merged stream.  For an unsorted run the
// cuts are not where the merge would put them, but the splitters ascend and
// every search is monotone in the splitter (see cut()), so the cuts still
// never go back and every record lands in exactly one slice.
class SlicePlan {
 public:
  SlicePlan(const std::vector<SpillRun>& runs, std::size_t slice_records) {
    try {
      open(runs, slice_records);
    } catch (...) {
      close_files();
      throw;
    }
    if (total_ == 0) return;
    if (inputs_.size() == 1) {
      // One run passes through in its own order, cut by position.
      for (std::uint64_t cut = slice_records; cut < total_; cut += slice_records) {
        splitters_.emplace_back();
        brackets_.push_back({cut, cut});
      }
    } else {
      choose_splitters(slice_records);
      bracket_cuts();
    }
  }
  ~SlicePlan() { close_files(); }
  SlicePlan(const SlicePlan&) = delete;
  SlicePlan& operator=(const SlicePlan&) = delete;

  std::size_t slices() const { return total_ == 0 ? 0 : splitters_.size() + 1; }

  /// Merges and formats slice `j` into `out`.
  void fill(std::size_t j, Slice& out, SliceScratch& scratch) const {
    const std::size_t k = inputs_.size();
    const bool first_slice = j == 0;
    const bool last_slice = j + 1 == slices();
    scratch.decoded.clear();
    scratch.ranges.clear();
    std::size_t records = 0;
    for (std::uint32_t r = 0; r < k; ++r) {
      const Input& input = inputs_[r];
      const Bracket start = first_slice ? Bracket{0, 0} : brackets_[(j - 1) * k + r];
      const Bracket end = last_slice ? Bracket{input.records, input.records}
                                     : brackets_[j * k + r];
      const unsigned char* bytes = nullptr;
      if (!input.memory) bytes = read_range(input, start.lo, end.hi, scratch.bytes);
      const auto key_at = [&](std::uint64_t position) {
        if (input.memory) return key_of((*input.memory)[position], r, position);
        const unsigned char* p = bytes + (position - start.lo) * kSpillRecordBytes;
        return SliceKey{ordered_bits(bits_double(get_u64(p))), get_u32(p + 16), r, position};
      };
      const std::uint64_t from = first_slice ? 0 : cut(start, splitters_[j - 1], key_at);
      const std::uint64_t to = last_slice ? input.records : cut(end, splitters_[j], key_at);
      if (to <= from) continue;
      records += to - from;
      if (input.memory) {
        scratch.ranges.push_back({input.memory->data() + from, 0, to - from});
        continue;
      }
      const std::size_t offset = scratch.decoded.size();
      for (std::uint64_t p = from; p < to; ++p) {
        const OpRecord& record = scratch.decoded.emplace_back(
            decode_record(bytes + (p - start.lo) * kSpillRecordBytes));
        if (static_cast<std::size_t>(record.op) >= fsmodel::kFsOpTypeCount) {
          throw std::runtime_error("RunFileReader: unknown op code in run file '" + input.path +
                                   "'");
        }
      }
      scratch.ranges.push_back({nullptr, offset, to - from});
    }
    // Spans in run order (the merge's tie-break); pointers into `decoded`
    // are taken only now that it has stopped growing.
    scratch.spans.clear();
    for (const SliceScratch::Range& range : scratch.ranges) {
      const OpRecord* data =
          range.memory != nullptr ? range.memory : scratch.decoded.data() + range.offset;
      scratch.spans.push_back({data, data + range.count});
    }

    if (out.capacity < records) {
      out.text = std::make_unique_for_overwrite<char[]>(records * kMaxRecordTextBytes);
      out.capacity = records;
    }
    char* text = out.text.get();
    bool ordered = true;
    RunKey last;
    merge_spans(scratch.spans, scratch.tree, scratch.winners, [&](const OpRecord& record) {
      const RunKey key{record.issue_time_us, record.user};
      if (text == out.text.get()) {
        out.first = key;
      } else if (descends(last, key)) {
        ordered = false;
      }
      last = key;
      text = format_record_text(record, text);
    });
    out.text_size = static_cast<std::size_t>(text - out.text.get());
    out.records = records;
    out.ordered = ordered;
    out.last = last;
  }

 private:
  // One run: a memory run's records, or an open run file.
  struct Input {
    std::shared_ptr<const std::vector<OpRecord>> memory;  ///< null for a run file
    int fd = -1;
    std::string path;
    std::uint64_t records = 0;
    std::uint64_t stride = kRunIndexStride;  ///< positions between sampled keys
    std::size_t first_sample = 0;            ///< where its samples start in samples_
    std::uint64_t samples() const { return (records + stride - 1) / stride; }
  };

  // A boundary's cut in one run lies in [lo, hi].
  struct Bracket {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
  };

  static SliceKey key_of(const OpRecord& record, std::uint32_t run, std::uint64_t position) {
    return {ordered_bits(record.issue_time_us), record.user, run, position};
  }

  // The first position in [b.lo, b.hi) whose key is not below `splitter`;
  // b.hi when there is none.  (Over a run's samples, the number of them
  // below the splitter.)  On any array the result is monotone in the
  // splitter: two searches agree until the first probe where only the
  // higher splitter's key test passes, and from there the lower one stays
  // at or before that probe while the higher one moves past it.
  template <typename KeyAt>
  static std::uint64_t cut(const Bracket& b, const SliceKey& splitter, const KeyAt& key_at) {
    std::uint64_t first = b.lo;
    std::uint64_t count = b.hi - b.lo;
    while (count > 0) {
      const std::uint64_t half = count / 2;
      if (key_at(first + half) < splitter) {
        first += half + 1;
        count -= half + 1;
      } else {
        count = half;
      }
    }
    return first;
  }

  void open(const std::vector<SpillRun>& runs, std::size_t slice_records) {
    const bool sampled = runs.size() > 1;  // one run is cut by position
    inputs_.reserve(runs.size());
    for (const SpillRun& run : runs) {
      const auto r = static_cast<std::uint32_t>(inputs_.size());
      Input& input = inputs_.emplace_back();
      if (run.memory) {
        input.memory = run.memory;
        input.records = run.memory->size();
      } else {
        input.path = run.path;
        input.fd = ::open(run.path.c_str(), O_RDONLY | O_CLOEXEC);
        if (input.fd < 0) {
          throw std::runtime_error("RunFileReader: cannot open run file '" + run.path + "'");
        }
        unsigned char header[kSpillHeaderBytes];
        if (pread_full(input.fd, header, sizeof header, 0) != sizeof header ||
            std::memcmp(header, kSpillMagic, sizeof kSpillMagic) != 0) {
          throw std::runtime_error("RunFileReader: '" + run.path + "' is not a wlgen run file");
        }
        input.records = get_u64(header + 8);
      }
      total_ += input.records;
      if (!sampled) continue;
      input.first_sample = samples_.size();
      if (run.index && run.index->size() == input.samples()) {
        for (std::uint64_t i = 0; i < run.index->size(); ++i) {
          const RunKey& key = (*run.index)[i];
          samples_.push_back({ordered_bits(key.issue_time_us), key.user, r, i * input.stride});
        }
      } else if (input.memory) {
        // Without an index a memory run is sampled at most one slice apart,
        // so that a small slice size puts seams everywhere.
        input.stride = std::min<std::uint64_t>(kRunIndexStride, slice_records);
        for (std::uint64_t p = 0; p < input.records; p += input.stride) {
          samples_.push_back(key_of((*input.memory)[p], r, p));
        }
      } else {
        // A run file without an index is scanned for its samples.
        RunFileReader reader(run);
        OpRecord record;
        for (std::uint64_t p = 0; reader.next(record); ++p) {
          if (p % input.stride == 0) samples_.push_back(key_of(record, r, p));
        }
      }
    }
  }

  void close_files() {
    for (const Input& input : inputs_) {
      if (input.fd >= 0) ::close(input.fd);
    }
  }

  // Splitters one slice's worth of records apart in the sorted samples; each
  // sample stands for the stride records from its own.  A sorted run's
  // samples already ascend, so the runs' lists are merged; when some run's
  // do not (an unsorted run), all the samples are sorted instead.  No two
  // samples are equal, so both visit them in the same order.
  void choose_splitters(std::size_t slice_records) {
    std::uint64_t weight = 0;
    bool cut = false;  // the next sample is a splitter
    const auto visit = [&](const SliceKey& sample) {
      if (cut) splitters_.push_back(sample);
      weight += inputs_[sample.run].stride;
      cut = weight >= slice_records;
      if (cut) weight = 0;
    };
    std::vector<Span<SliceKey>> spans;
    bool ascending = true;
    for (const Input& input : inputs_) {
      const SliceKey* first = samples_.data() + input.first_sample;
      const SliceKey* last = first + input.samples();
      spans.push_back({first, last});
      ascending = ascending && std::is_sorted(first, last);
    }
    if (ascending) {
      std::vector<MergeKey> tree;
      std::vector<MergeKey> winners;
      merge_spans(spans, tree, winners, visit);
    } else {
      std::vector<SliceKey> samples = samples_;
      std::sort(samples.begin(), samples.end());
      std::for_each(samples.begin(), samples.end(), visit);
    }
  }

  // Each boundary's bracket in every run, from its samples alone: after n
  // samples below the splitter, the cut lies past the last of them and at
  // or before the next.  The splitters ascend and the search is monotone in
  // the splitter, so a bracket never goes back from the one before it, even
  // in an unsorted run.
  void bracket_cuts() {
    const std::size_t k = inputs_.size();
    brackets_.resize(splitters_.size() * k);
    for (std::size_t b = 0; b < splitters_.size(); ++b) {
      for (std::size_t r = 0; r < k; ++r) {
        const Input& input = inputs_[r];
        const SliceKey* samples = samples_.data() + input.first_sample;
        const std::uint64_t n = cut({0, input.samples()}, splitters_[b],
                                    [samples](std::uint64_t i) { return samples[i]; });
        brackets_[b * k + r] = {n == 0 ? 0 : (n - 1) * input.stride + 1,
                                std::min(n * input.stride, input.records)};
      }
    }
  }

  // Reads records [from, to) of a run file into `bytes`.
  static const unsigned char* read_range(const Input& input, std::uint64_t from, std::uint64_t to,
                                         std::vector<unsigned char>& bytes) {
    const std::size_t size = static_cast<std::size_t>(to - from) * kSpillRecordBytes;
    if (bytes.size() < size) bytes.resize(size);
    if (pread_full(input.fd, bytes.data(), size, kSpillHeaderBytes + from * kSpillRecordBytes) !=
        size) {
      throw std::runtime_error("RunFileReader: truncated run file '" + input.path + "'");
    }
    return bytes.data();
  }

  std::vector<Input> inputs_;
  std::uint64_t total_ = 0;
  std::vector<SliceKey> samples_;    ///< every run's sampled keys, run by run
  std::vector<SliceKey> splitters_;  ///< boundary b's key
  std::vector<Bracket> brackets_;    ///< boundary b's bracket in run r at [b * k + r]
};

// Workers merge and format slices, oldest unclaimed first, into a ring of
// two slots per worker; the calling thread takes the slices back in order.
// Slot j % size() is claimed for slice j only once slice j - size() has
// been taken back, so at most size() slices are in flight.
class SlicePipeline {
 public:
  SlicePipeline(const SlicePlan& plan, std::size_t workers) : plan_(plan), slots_(2 * workers) {
    try {
      threads_.reserve(workers);
      for (std::size_t i = 0; i < workers; ++i) threads_.emplace_back([this] { work_loop(); });
    } catch (const std::system_error&) {
      if (threads_.empty()) throw;  // the caller runs the slices itself
    }
  }
  ~SlicePipeline() {
    {
      const std::lock_guard lock(mutex_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& thread : threads_) thread.join();
  }
  SlicePipeline(const SlicePipeline&) = delete;
  SlicePipeline& operator=(const SlicePipeline&) = delete;

  /// Waits for slice `j`, the oldest not taken back, and returns it; a
  /// worker's exception is rethrown.
  const Slice& take(std::size_t j) {
    Slice& slot = slots_[j % slots_.size()];
    std::unique_lock lock(mutex_);
    done_cv_.wait(lock, [&slot] { return slot.done; });
    if (slot.error) std::rethrow_exception(slot.error);
    return slot;
  }

  /// Frees slice `j`'s slot for slice j + size().
  void release(std::size_t j) {
    {
      const std::lock_guard lock(mutex_);
      slots_[j % slots_.size()].done = false;
      released_ = j + 1;
    }
    work_cv_.notify_all();
  }

 private:
  void work_loop() {
    SliceScratch scratch;
    const std::size_t slices = plan_.slices();
    std::unique_lock lock(mutex_);
    for (;;) {
      work_cv_.wait(lock, [&] {
        return stop_ || claimed_ >= slices || claimed_ < released_ + slots_.size();
      });
      if (stop_ || claimed_ >= slices) return;
      const std::size_t j = claimed_++;
      Slice& slot = slots_[j % slots_.size()];
      lock.unlock();
      slot.error = nullptr;
      try {
        plan_.fill(j, slot, scratch);
      } catch (...) {
        slot.error = std::current_exception();
      }
      lock.lock();
      slot.done = true;
      done_cv_.notify_one();
    }
  }

  const SlicePlan& plan_;
  std::vector<Slice> slots_;
  std::mutex mutex_;
  std::size_t claimed_ = 0;          ///< guarded by mutex_
  std::size_t released_ = 0;         ///< guarded by mutex_
  bool stop_ = false;                ///< guarded by mutex_
  std::condition_variable work_cv_;  ///< a slot was released, or stop_
  std::condition_variable done_cv_;  ///< a worker finished a slice
  std::vector<std::thread> threads_;  // last: joined before the members above die
};

// Writes the header and every slice's text to `write(data, size)` in
// order, checking each slice and the seams between them.
template <typename Write>
WrittenLog write_slices(const SlicePlan& plan, std::size_t threads, Write&& write) {
  const char* const header = usage_log_header_line();
  write(header, std::strlen(header));
  WrittenLog result;
  std::optional<RunKey> last;  // the last record written
  const auto emit = [&](const Slice& slice) {
    if (slice.records == 0) return;  // a slice of unsorted runs can be empty
    write(slice.text.get(), slice.text_size);
    if (!slice.ordered || (last && descends(*last, slice.first))) result.ordered = false;
    last = slice.last;
    result.records += slice.records;
  };
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t workers = std::min(std::clamp<std::size_t>(threads, 1, cores), plan.slices());
  std::optional<SlicePipeline> pipeline;
  if (workers > 1) {
    try {
      pipeline.emplace(plan, workers);
    } catch (const std::system_error&) {
      // No worker could be started: the calling thread runs every slice.
    }
  }
  if (!pipeline) {
    Slice slice;
    SliceScratch scratch;
    for (std::size_t j = 0; j < plan.slices(); ++j) {
      plan.fill(j, slice, scratch);
      emit(slice);
    }
    return result;
  }
  for (std::size_t j = 0; j < plan.slices(); ++j) {
    emit(pipeline->take(j));
    pipeline->release(j);
  }
  return result;
}

}  // namespace

WrittenLog write_log_file(const std::vector<SpillRun>& runs, const std::string& path,
                          std::size_t threads) {
  return detail::write_log_file(runs, path, threads, kLogSliceRecords);
}

WrittenLog detail::write_log_file(const std::vector<SpillRun>& runs, const std::string& path,
                                  std::size_t threads, std::size_t slice_records) {
  // The runs are opened and cut before the log exists, so a run that cannot
  // be read from the start leaves no file behind.
  const SlicePlan plan(runs, std::max<std::size_t>(1, slice_records));
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
  WrittenLog written;
  try {
    written = write_slices(plan, threads, [&](const char* data, std::size_t size) {
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
