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
#include <sys/stat.h>
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

inline unsigned char* put_varint(unsigned char* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<unsigned char>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<unsigned char>(v);
  return p;
}

// Reads a varint of a `Bits`-bit field from [p, end) in its one encoding:
// at most ceil(Bits / 7) bytes, no trailing zero byte and no bits past the
// field's width in the last byte.
template <unsigned Bits>
[[gnu::always_inline]] inline DecodeStatus get_varint(const unsigned char*& p, const unsigned char* end,
                               std::uint64_t& value) {
  constexpr unsigned kBytes = (Bits + 6) / 7;
  std::uint64_t v = 0;
  for (unsigned i = 0; i < kBytes; ++i) {
    if (p == end) return DecodeStatus::truncated;
    const std::uint64_t byte = *p++;
    v |= (byte & 0x7f) << (7 * i);
    if (byte < 0x80) {
      if ((i > 0 && byte == 0) || (i == kBytes - 1 && (byte >> (Bits - 7 * i)) != 0)) {
        return DecodeStatus::corrupt;
      }
      value = v;
      return DecodeStatus::ok;
    }
  }
  return DecodeStatus::corrupt;  // longer than the field
}

// Moves `p` past a varint in [p, end), checking only that it ends there.
inline DecodeStatus skip_varint(const unsigned char*& p, const unsigned char* end) {
  for (;;) {
    if (p == end) return DecodeStatus::truncated;
    if (*p++ < 0x80) return DecodeStatus::ok;
  }
}

// Records a run file is written in at a time: a fixed chunk of this many
// bytes, flushed when the next record might not fit.
constexpr std::size_t kWriteChunkBytes = 64 * 1024;

std::string run_file_name(const std::string& stem, std::size_t index) {
  char buffer[21];  // up to 20 digits of a 64-bit index and the '\0'
  std::snprintf(buffer, sizeof buffer, "%06zu", index);
  return stem + "_run" + buffer + ".wlr";
}

}  // namespace

std::size_t encode_record(const OpRecord& r, unsigned char* out) {
  const auto op = static_cast<unsigned>(r.op);
  const auto file_type = static_cast<unsigned>(r.category.file_type);
  const auto owner = static_cast<unsigned>(r.category.owner);
  const auto use = static_cast<unsigned>(r.category.use);
  if (op >= fsmodel::kFsOpTypeCount || file_type >= 2 || owner >= 3 || use >= 4) {
    throw std::invalid_argument("encode_record: op or category out of range");
  }
  put_u64(out + 0, double_bits(r.issue_time_us));
  put_u64(out + 8, double_bits(r.response_us));
  unsigned char* p = put_varint(out + 16, r.user);
  p = put_varint(p, r.session);
  *p++ = static_cast<unsigned char>(((op * 2 + file_type) * 3 + owner) * 4 + use);
  p = put_varint(p, r.requested_bytes);
  p = put_varint(p, r.actual_bytes);
  p = put_varint(p, r.file_id);
  p = put_varint(p, r.file_size);
  return static_cast<std::size_t>(p - out);
}

namespace {

// decode_record's body, inlined into the loops that decode a run.
[[gnu::always_inline]] inline DecodeStatus decode_fields(const unsigned char*& in,
                                                         const unsigned char* end, OpRecord& out) {
  if (end - in < 16) return DecodeStatus::truncated;
  const unsigned char* p = in + 16;
  std::uint64_t user = 0;
  std::uint64_t session = 0;
  DecodeStatus status;
  if ((status = get_varint<32>(p, end, user)) != DecodeStatus::ok ||
      (status = get_varint<32>(p, end, session)) != DecodeStatus::ok) {
    return status;
  }
  if (p == end) return DecodeStatus::truncated;
  unsigned code = *p++;
  if (code >= kRunPackedCodes) return DecodeStatus::unknown_op;
  if ((status = get_varint<64>(p, end, out.requested_bytes)) != DecodeStatus::ok ||
      (status = get_varint<64>(p, end, out.actual_bytes)) != DecodeStatus::ok ||
      (status = get_varint<64>(p, end, out.file_id)) != DecodeStatus::ok ||
      (status = get_varint<64>(p, end, out.file_size)) != DecodeStatus::ok) {
    return status;
  }
  out.issue_time_us = bits_double(get_u64(in));
  out.response_us = bits_double(get_u64(in + 8));
  out.user = static_cast<std::uint32_t>(user);
  out.session = static_cast<std::uint32_t>(session);
  out.category.use = static_cast<UseMode>(code % 4);
  code /= 4;
  out.category.owner = static_cast<FileOwner>(code % 3);
  code /= 3;
  out.category.file_type = static_cast<FileType>(code % 2);
  out.op = static_cast<fsmodel::FsOpType>(code / 2);
  in = p;
  return DecodeStatus::ok;
}

}  // namespace

DecodeStatus decode_record(const unsigned char*& in, const unsigned char* end, OpRecord& out) {
  return decode_fields(in, end, out);
}

namespace {

// Reads the key of the record at `in` and moves `in` past the record,
// reading no byte at or past `end`.  Only the user is decoded; each field
// after it is skipped to its last byte, with no check of its one
// encoding.  Wherever decode_fields succeeds this reads the same key and
// ends at the same byte; where it fails this may succeed, so a record
// skipped here must also be decoded somewhere to be checked.
[[gnu::always_inline]] inline DecodeStatus read_key(const unsigned char*& in,
                                                    const unsigned char* end, RunKey& key) {
  if (end - in < 16) return DecodeStatus::truncated;
  const unsigned char* p = in + 16;
  std::uint64_t user = 0;
  if (const DecodeStatus status = get_varint<32>(p, end, user); status != DecodeStatus::ok) {
    return status;
  }
  // The session, the packed byte (any value), then the four u64 fields.
  if (const DecodeStatus status = skip_varint(p, end); status != DecodeStatus::ok) return status;
  if (p++ == end) return DecodeStatus::truncated;
  for (int field = 0; field < 4; ++field) {
    if (const DecodeStatus status = skip_varint(p, end); status != DecodeStatus::ok) return status;
  }
  key = {bits_double(get_u64(in)), static_cast<std::uint32_t>(user)};
  in = p;
  return DecodeStatus::ok;
}

// The error a reader throws for a record of run `path` that did not decode.
std::runtime_error decode_error(DecodeStatus status, const std::string& path) {
  switch (status) {
    case DecodeStatus::truncated:
      return std::runtime_error("RunFileReader: truncated run file '" + path + "'");
    case DecodeStatus::unknown_op:
      return std::runtime_error("RunFileReader: unknown op code in run file '" + path + "'");
    default:
      return std::runtime_error("RunFileReader: corrupt run file '" + path + "'");
  }
}

// A double's bits, mapped so that unsigned order is numeric order with -0
// equal to +0 (as == has them) and NaNs beyond every number: a strict total
// order, so that merging keys read from a corrupt run stays defined.
std::uint64_t ordered_bits(double value) {
  const std::uint64_t bits = double_bits(value == 0.0 ? 0.0 : value);
  return (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
}

// A source's head in a merge, packed so that comparing two takes no
// branch: (ordered issue-time bits, user << 32 | source index).
// ordered_bits agrees with MergeLogReader's comparison of issue times for
// every value but NaN, so for NaN-free sources the order is
// MergeLogReader's.  A spent source's key has kSpent set and sorts after
// every record's.
struct MergeKey {
  std::uint64_t hi;
  std::uint64_t lo;
};
constexpr std::uint64_t kSpent = std::uint64_t{1} << 31;

MergeKey merge_key(double issue_time_us, std::uint32_t user, std::size_t source) {
  return {ordered_bits(issue_time_us), std::uint64_t{user} << 32 | source};
}

MergeKey spent_key(std::size_t source) {
  return {~std::uint64_t{0}, ~std::uint64_t{0} << 32 | kSpent | source};
}

bool merge_before(const MergeKey& a, const MergeKey& b) {
  return (a.hi < b.hi) | ((a.hi == b.hi) & (a.lo < b.lo));
}

// Loser-tree merge of k sorted sources (k < kSpent) in (issue time, user,
// source index) order: head(i) is source i's head key (spent_key(i) once it
// has none left) and pop(i) takes its head and moves it on.  The tree
// holds the keys themselves: tree[0] is the winner and tree[1, k) the
// losers of a heap-shaped tree whose leaf i sits at node i + k.
// `winners` is the scratch the tree is built in.
template <typename Head, typename Pop>
void merge_sources(std::size_t k, std::vector<MergeKey>& tree, std::vector<MergeKey>& winners,
                   Head&& head, Pop&& pop) {
  if (k == 0) return;
  if (k == 1) {
    while ((head(0).lo & kSpent) == 0) pop(0);
    return;
  }
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
    pop(i);
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

// Merges the sink's segments — buffer[segments[s], segments[s + 1]), the
// last one ending at `size` — calling write(bytes, size) for each record
// in (issue time, user, segment) order, and returns the run's blocks.
template <typename Write>
std::vector<RunBlock> merge_segments(const unsigned char* buffer, std::size_t size,
                                     const std::vector<std::size_t>& segments, std::size_t records,
                                     Write&& write) {
  const std::size_t k = segments.size();
  struct Cursor {
    const unsigned char* head;
    const unsigned char* end;
    const unsigned char* next;  ///< the byte after the head
    RunKey key;                 ///< the head's key
  };
  std::vector<Cursor> cursors(k);
  for (std::size_t s = 0; s < k; ++s) {
    Cursor& c = cursors[s];
    c.head = c.next = buffer + segments[s];
    c.end = buffer + (s + 1 < k ? segments[s + 1] : size);
    if (c.head != c.end) read_key(c.next, c.end, c.key);  // the sink's own bytes: always ok
  }
  std::vector<RunBlock> index;
  index.reserve((records + kRunIndexStride - 1) / kRunIndexStride);
  std::uint64_t position = 0;
  std::uint64_t offset = 0;
  std::vector<MergeKey> tree;
  std::vector<MergeKey> winners;
  merge_sources(
      k, tree, winners,
      [&cursors](std::size_t s) {
        const Cursor& c = cursors[s];
        return c.head == c.end ? spent_key(s) : merge_key(c.key.issue_time_us, c.key.user, s);
      },
      [&](std::size_t s) {
        Cursor& c = cursors[s];
        const auto bytes = static_cast<std::size_t>(c.next - c.head);
        if (position++ % kRunIndexStride == 0) index.push_back({c.key, offset});
        write(c.head, bytes);
        offset += bytes;
        c.head = c.next;
        if (c.head != c.end) read_key(c.next, c.end, c.key);
      });
  return index;
}

}  // namespace

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
  // Room for a run's budget of the largest records, and the one record
  // that may follow it; pages the run never writes are never touched.
  const std::size_t limit = std::numeric_limits<std::size_t>::max() / (2 * kMaxRunRecordBytes);
  reserve((std::min(buffer_records_, limit) + 1) * kMaxRunRecordBytes);
}

SpillSink::~SpillSink() = default;

void SpillSink::reserve(std::size_t bytes) {
  auto grown = std::make_unique_for_overwrite<unsigned char[]>(bytes);
  if (buffer_size_ > 0) std::memcpy(grown.get(), buffer_.get(), buffer_size_);
  buffer_ = std::move(grown);
  buffer_capacity_ = bytes;
}

void SpillSink::append(const OpRecord& record) {
  if (closed_) throw std::logic_error("SpillSink::append after close");
  const bool new_user = !have_user_ || record.user != last_user_;
  // Runs are cut only when a *new* user arrives with the buffer over budget,
  // so a user's records never straddle two runs — the property that makes
  // the per-run merge + k-way merge reproduce merge_user_logs exactly.
  if (have_user_ && new_user && buffered_ >= buffer_records_) flush();
  if (buffer_capacity_ - buffer_size_ < kMaxRunRecordBytes) reserve(2 * buffer_capacity_);
  // Encoded first, so that a refused record leaves the sink as it was.
  const std::size_t at = buffer_size_;
  buffer_size_ += encode_record(record, buffer_.get() + at);
  // A segment starts at each user's first record and wherever the user's
  // issue time goes back (or is NaN, which orders against nothing).
  if (buffered_ == 0 || new_user || !(last_time_ <= record.issue_time_us)) {
    segments_.push_back(at);
  }
  ++buffered_;
  last_time_ = record.issue_time_us;
  last_user_ = record.user;
  have_user_ = true;
}

void SpillSink::close() {
  if (closed_) return;
  flush();
  buffer_.reset();  // a run's worth of RAM, no longer needed
  buffer_capacity_ = 0;
  segments_ = std::vector<std::size_t>();
  closed_ = true;
}

void SpillSink::flush() {
  if (buffered_ == 0) return;
  if (segments_.size() >= kSpent) {
    throw std::runtime_error("SpillSink: cannot merge a run of " +
                             std::to_string(segments_.size()) + " segments (at most 2^31 - 1)");
  }
  const std::size_t records = buffered_;
  records_written_ += records;
  SpillRun run;
  run.records = records;
  if (dir_.empty()) {
    // The run holds exactly its records' bytes; the buffer stays for reuse.
    auto bytes = std::make_shared<std::vector<unsigned char>>();
    bytes->reserve(buffer_size_);
    run.index = std::make_shared<const std::vector<RunBlock>>(
        merge_segments(buffer_.get(), buffer_size_, segments_, records,
                       [&bytes](const unsigned char* record, std::size_t size) {
                         bytes->insert(bytes->end(), record, record + size);
                       }));
    run.encoded = *bytes;
    run.memory = std::move(bytes);
  } else {
    run.path = (std::filesystem::path(dir_) / run_file_name(stem_, runs_.size())).string();
    std::FILE* file = std::fopen(run.path.c_str(), "wb");
    if (file == nullptr) {
      throw std::runtime_error("SpillSink: cannot create run file '" + run.path + "'");
    }
    // Copied a chunk at a time, in merge order, straight from the buffer.
    const auto chunk = std::make_unique_for_overwrite<unsigned char[]>(kWriteChunkBytes);
    std::memcpy(chunk.get(), kSpillMagic, sizeof kSpillMagic);
    put_u64(chunk.get() + 8, records);
    std::size_t used = kSpillHeaderBytes;
    bool ok = true;
    run.index = std::make_shared<const std::vector<RunBlock>>(
        merge_segments(buffer_.get(), buffer_size_, segments_, records,
                       [&](const unsigned char* record, std::size_t size) {
                         if (used + size > kWriteChunkBytes) {
                           ok = ok && std::fwrite(chunk.get(), 1, used, file) == used;
                           used = 0;
                         }
                         std::memcpy(chunk.get() + used, record, size);
                         used += size;
                       }));
    ok = ok && std::fwrite(chunk.get(), 1, used, file) == used;
    const bool closed_ok = std::fclose(file) == 0;
    if (!ok || !closed_ok) {
      throw std::runtime_error("SpillSink: short write to run file '" + run.path + "'");
    }
    run.bytes = kSpillHeaderBytes + buffer_size_;
    bytes_written_ += run.bytes;
  }
  runs_.push_back(std::move(run));
  buffer_size_ = 0;
  buffered_ = 0;
  segments_.clear();
}

SpillRun memory_run(std::vector<OpRecord> records) {
  // Record i's bytes start at or before i * kMaxRunRecordBytes and end at
  // or before (i + 1) * kMaxRunRecordBytes, short of where record i + 1
  // starts, so they overwrite only records already encoded and record i
  // itself, which is copied out first.
  static_assert(kMaxRunRecordBytes <= sizeof(OpRecord));
  auto storage = std::make_shared<std::vector<OpRecord>>(std::move(records));
  auto* const bytes = reinterpret_cast<unsigned char*>(storage->data());
  auto index = std::make_shared<std::vector<RunBlock>>();
  index->reserve((storage->size() + kRunIndexStride - 1) / kRunIndexStride);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < storage->size(); ++i) {
    const OpRecord record = (*storage)[i];
    index_record(*index, i, record, offset);
    offset += encode_record(record, bytes + offset);
  }
  SpillRun run;
  run.records = storage->size();
  run.encoded = {bytes, offset};
  run.memory = std::move(storage);
  run.index = std::move(index);
  return run;
}

// ---------------------------------------------------------------------------
// RunFileReader
// ---------------------------------------------------------------------------

namespace {
constexpr std::size_t kReadChunkBytes = 64 * 1024;
}  // namespace

RunFileReader::RunFileReader(const SpillRun& run) : path_(run.path), memory_(run.memory) {
  if (memory_) {
    pos_ = run.encoded.data();
    end_ = pos_ + run.encoded.size();
    at_eof_ = true;
    remaining_ = run.records;
    return;
  }
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
  buffer_.resize(kReadChunkBytes);
  pos_ = end_ = buffer_.data();
}

RunFileReader::~RunFileReader() {
  if (file_ != nullptr) std::fclose(file_);
}

bool RunFileReader::next(OpRecord& out) {
  if (remaining_ == 0) return false;
  if (!at_eof_ && static_cast<std::size_t>(end_ - pos_) < kMaxRunRecordBytes) {
    // Keep the unread tail and read up to a buffer's worth behind it.
    const auto left = static_cast<std::size_t>(end_ - pos_);
    std::memmove(buffer_.data(), pos_, left);
    const std::size_t want = buffer_.size() - left;
    const std::size_t got = std::fread(buffer_.data() + left, 1, want, file_);
    at_eof_ = got < want;
    pos_ = buffer_.data();
    end_ = pos_ + left + got;
  }
  const unsigned char* const start = pos_;
  const DecodeStatus status = decode_fields(pos_, end_, out);
  if (status != DecodeStatus::ok) throw decode_error(status, path_);
  offset_ += static_cast<std::uint64_t>(pos_ - start);
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
  for (const auto& run : runs) readers.push_back(std::make_unique<RunFileReader>(run));
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

// One run, opened: a memory run's bytes or a run file, and its blocks.
struct RunInput {
  std::shared_ptr<const void> memory;  ///< null for a run file
  const unsigned char* encoded = nullptr;  ///< a memory run's bytes
  int fd = -1;
  std::string path;
  std::uint64_t records = 0;
  std::uint64_t data_bytes = 0;  ///< the bytes after the header
  std::shared_ptr<const std::vector<RunBlock>> index;
  std::size_t first_sample = 0;  ///< where its samples start in the plan's samples

  std::uint64_t blocks() const { return (records + kRunIndexStride - 1) / kRunIndexStride; }
  std::uint64_t block_begin(std::uint64_t b) const { return (*index)[b].offset; }
  // Where block b's bytes end: the next block's start, or the end of the
  // run's bytes.
  std::uint64_t block_end(std::uint64_t b) const {
    return b + 1 < blocks() ? block_begin(b + 1) : data_bytes;
  }
};

// Decodes a run's records in order from [p, end), the bytes at offsets
// [offset, end_offset) of its records, checking that each block it
// finishes ends where the run's index starts the next one (the last where
// the run's bytes end), so that an index that lies is caught by whichever
// walker finishes the block.  A record cut short by the end of the run's
// bytes is a truncated run; one cut short anywhere else ran past its
// block, which the index put in the wrong place.
struct RunWalker {
  const RunInput* input;
  const unsigned char* p;
  const unsigned char* end;
  std::uint64_t offset;
  std::uint64_t end_offset;
  std::uint64_t position;  ///< the next record's place in the run

  void next(OpRecord& out) {
    const unsigned char* const start = p;
    step(decode_fields(p, end, out), start);
  }

  // Moves past the next record, reading only its key (read_key).
  RunKey skip() {
    const unsigned char* const start = p;
    RunKey key;
    step(read_key(p, end, key), start);
    return key;
  }

 private:
  void step(DecodeStatus status, const unsigned char* start) {
    if (status == DecodeStatus::truncated && end_offset != input->data_bytes) {
      status = DecodeStatus::corrupt;
    }
    if (status != DecodeStatus::ok) throw decode_error(status, input->path);
    offset += static_cast<std::uint64_t>(p - start);
    ++position;
    if (position == input->records ? offset != input->data_bytes
                                   : position % kRunIndexStride == 0 &&
                                         offset != input->block_begin(position / kRunIndexStride)) {
      throw decode_error(DecodeStatus::corrupt, input->path);
    }
  }
};

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

// One run's records in a slice: the walker at the head's successor.
struct RunCursor {
  RunWalker walker;
  std::uint64_t remaining;  ///< records left, the head among them
  OpRecord head;
};

// A worker's buffers, reused from slice to slice.
struct SliceScratch {
  std::vector<unsigned char> bytes;  ///< every run file's range in the slice
  std::vector<RunCursor> cursors;
  std::vector<MergeKey> tree;
  std::vector<MergeKey> winners;
};

// The runs, opened, and where every slice boundary cuts each of them.
//
// Boundary b has a splitter key, drawn from the runs' sampled keys (the
// first record of every block), and cuts run r at the first record whose
// SliceKey is not below it.  The planner narrows each cut to a bracket
// [lo, hi] of at most one block from the samples alone; the worker of a
// slice reads each run from the block of its first boundary's lo to the
// block of its last boundary's hi, in one pread for a run file, and finds
// the exact cuts by decoding the one block each bracket lies in.  Two
// workers find the same cut from the same bytes, so the slices tile every
// run.  For sorted runs the cuts are exact, and the slices concatenate to
// the merged stream.  For an unsorted run the cuts are not where the merge
// would put them, but the splitters ascend and every search is monotone in
// the splitter (see cut()), so the cuts still never go back and every
// record lands in exactly one slice.
class SlicePlan {
 public:
  SlicePlan(const std::vector<SpillRun>& runs, std::size_t slice_records) {
    try {
      open(runs);
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
    const auto start_of = [&](std::size_t r) {
      return first_slice ? Bracket{0, 0} : brackets_[(j - 1) * k + r];
    };
    const auto end_of = [&](std::size_t r) {
      return last_slice ? Bracket{inputs_[r].records, inputs_[r].records} : brackets_[j * k + r];
    };
    // Each run's blocks from its start bracket's to its end bracket's;
    // the run files' ranges are read back to back into one buffer.
    const auto blocks_of = [&](std::size_t r) {
      const std::uint64_t first = start_of(r).lo / kRunIndexStride;
      return std::pair{first, std::max(first, (end_of(r).hi - 1) / kRunIndexStride)};
    };
    const auto empty = [&](std::size_t r) {
      return start_of(r).lo >= inputs_[r].records || end_of(r).hi == 0;
    };
    std::size_t file_bytes = 0;
    for (std::size_t r = 0; r < k; ++r) {
      if (empty(r) || inputs_[r].memory) continue;
      const auto [first, last] = blocks_of(r);
      file_bytes += inputs_[r].block_end(last) - inputs_[r].block_begin(first);
    }
    if (scratch.bytes.size() < file_bytes) scratch.bytes.resize(file_bytes);

    scratch.cursors.clear();
    std::size_t records = 0;
    std::size_t used = 0;
    for (std::size_t r = 0; r < k; ++r) {
      if (empty(r)) continue;
      const RunInput& input = inputs_[r];
      const auto [first, last] = blocks_of(r);
      const std::uint64_t begin = input.block_begin(first);
      const std::uint64_t finish = input.block_end(last);
      const unsigned char* bytes = nullptr;
      if (input.memory) {
        bytes = input.encoded + begin;
      } else {
        bytes = scratch.bytes.data() + used;
        if (pread_full(input.fd, scratch.bytes.data() + used, finish - begin,
                       kSpillHeaderBytes + begin) != finish - begin) {
          throw decode_error(DecodeStatus::truncated, input.path);
        }
        used += finish - begin;
      }
      const auto walker_at = [&](std::uint64_t block) {
        const std::uint64_t offset = input.block_begin(block);
        return RunWalker{&input, bytes + (offset - begin), bytes + (finish - begin),
                         offset, finish, block * kRunIndexStride};
      };
      RunWalker from = walker_at(first);
      if (!first_slice) seek_cut(from, start_of(r), splitters_[j - 1], r);
      std::uint64_t to = input.records;
      if (!last_slice) {
        const Bracket end = end_of(r);
        to = end.lo;
        if (end.lo < end.hi) {
          RunWalker walker = walker_at(end.lo / kRunIndexStride);
          seek_cut(walker, end, splitters_[j], r);
          to = walker.position;
        }
      }
      if (to <= from.position) continue;
      records += to - from.position;
      RunCursor& cursor = scratch.cursors.emplace_back(RunCursor{from, to - from.position, {}});
      cursor.walker.next(cursor.head);
    }

    if (out.capacity < records) {
      out.text = std::make_unique_for_overwrite<char[]>(records * kMaxRecordTextBytes);
      out.capacity = records;
    }
    char* text = out.text.get();
    bool ordered = true;
    RunKey last;
    std::vector<RunCursor>& cursors = scratch.cursors;
    merge_sources(
        cursors.size(), scratch.tree, scratch.winners,
        [&cursors](std::size_t i) {
          const RunCursor& c = cursors[i];
          return c.remaining == 0 ? spent_key(i)
                                  : merge_key(c.head.issue_time_us, c.head.user, i);
        },
        [&](std::size_t i) {
          RunCursor& c = cursors[i];
          const RunKey key{c.head.issue_time_us, c.head.user};
          if (text == out.text.get()) {
            out.first = key;
          } else if (descends(last, key)) {
            ordered = false;
          }
          last = key;
          text = format_record_text(c.head, text);
          // k interleaved streams defeat the hardware prefetcher; a run is
          // read a few records ahead of its head instead.
          __builtin_prefetch(c.walker.p + 256);
          if (--c.remaining > 0) c.walker.next(c.head);
        });
    out.text_size = static_cast<std::size_t>(text - out.text.get());
    out.records = records;
    out.ordered = ordered;
    out.last = last;
  }

 private:
  // A boundary's cut in one run lies in [lo, hi].
  struct Bracket {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
  };

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

  // Moves `walker`, at or before b.lo in the same block, to the cut of
  // bracket `b` in run r: the first position in [b.lo, b.hi) whose key is
  // not below `splitter`, or b.hi.  A bracket lies in one block, and the
  // scan is monotone in the splitter as cut() is.  It reads keys only:
  // every record it passes is decoded by the merge of one slice or the
  // other, which checks it.
  static void seek_cut(RunWalker& walker, const Bracket& b, const SliceKey& splitter,
                       std::size_t r) {
    while (walker.position < b.lo) walker.skip();
    while (walker.position < b.hi) {
      RunWalker probe = walker;
      const RunKey record = probe.skip();
      const SliceKey key{ordered_bits(record.issue_time_us), record.user,
                         static_cast<std::uint32_t>(r), walker.position};
      if (!(key < splitter)) return;
      walker = probe;
    }
  }

  void open(const std::vector<SpillRun>& runs) {
    const bool sampled = runs.size() > 1;  // one run is cut by position
    inputs_.reserve(runs.size());
    for (const SpillRun& run : runs) {
      const auto r = static_cast<std::uint32_t>(inputs_.size());
      RunInput& input = inputs_.emplace_back();
      input.path = run.path;
      if (run.memory) {
        input.memory = run.memory;
        input.encoded = run.encoded.data();
        input.records = run.records;
        input.data_bytes = run.encoded.size();
      } else {
        input.fd = ::open(run.path.c_str(), O_RDONLY | O_CLOEXEC);
        if (input.fd < 0) {
          throw std::runtime_error("RunFileReader: cannot open run file '" + run.path + "'");
        }
        unsigned char header[kSpillHeaderBytes];
        struct stat st {};
        if (pread_full(input.fd, header, sizeof header, 0) != sizeof header ||
            std::memcmp(header, kSpillMagic, sizeof kSpillMagic) != 0 || ::fstat(input.fd, &st) != 0) {
          throw std::runtime_error("RunFileReader: '" + run.path + "' is not a wlgen run file");
        }
        input.records = get_u64(header + 8);
        input.data_bytes = static_cast<std::uint64_t>(st.st_size) - kSpillHeaderBytes;
      }
      if (run.index && run.index->size() == input.blocks()) {
        input.index = run.index;
      } else {
        // A run without its index is scanned for its blocks.
        auto index = std::make_shared<std::vector<RunBlock>>();
        RunFileReader reader(run);
        OpRecord record;
        for (std::uint64_t p = 0;; ++p) {
          const std::uint64_t offset = reader.offset();
          if (!reader.next(record)) break;
          index_record(*index, p, record, offset);
        }
        input.index = std::move(index);
      }
      check_blocks(input);
      total_ += input.records;
      if (!sampled) continue;
      input.first_sample = samples_.size();
      for (std::uint64_t b = 0; b < input.blocks(); ++b) {
        const RunKey& key = (*input.index)[b].first;
        samples_.push_back({ordered_bits(key.issue_time_us), key.user, r, b * kRunIndexStride});
      }
    }
  }

  // Every block must start inside the run's bytes, the first at 0, and
  // lie as far from the next start (the last from the end of the bytes) as
  // its records can take, so that no range read for a slice is larger than
  // its records can fill.
  static void check_blocks(const RunInput& input) {
    for (std::uint64_t b = 0; b < input.blocks(); ++b) {
      if (input.block_begin(b) >= input.data_bytes) {
        throw decode_error(DecodeStatus::truncated, input.path);
      }
    }
    for (std::uint64_t b = 0; b < input.blocks(); ++b) {
      const std::uint64_t begin = input.block_begin(b);
      const std::uint64_t records =
          std::min<std::uint64_t>(kRunIndexStride, input.records - b * kRunIndexStride);
      const std::uint64_t end = input.block_end(b);
      if ((b == 0 && begin != 0) || end > begin + records * kMaxRunRecordBytes ||
          (b + 1 < input.blocks() && end < begin + records * kMinRunRecordBytes)) {
        throw decode_error(DecodeStatus::corrupt, input.path);
      }
    }
  }

  void close_files() {
    for (const RunInput& input : inputs_) {
      if (input.fd >= 0) ::close(input.fd);
    }
  }

  // Splitters one slice's worth of records apart in the sorted samples; each
  // sample stands for the block it starts.  A sorted run's samples already
  // ascend, so the runs' lists are merged; when some run's do not (an
  // unsorted run), all the samples are sorted instead.  No two samples are
  // equal, so both visit them in the same order.
  void choose_splitters(std::size_t slice_records) {
    std::uint64_t weight = 0;
    bool cut = false;  // the next sample is a splitter
    const auto visit = [&](const SliceKey& sample) {
      if (cut) splitters_.push_back(sample);
      weight += kRunIndexStride;
      cut = weight >= slice_records;
      if (cut) weight = 0;
    };
    struct Span {
      const SliceKey* begin;
      const SliceKey* end;
    };
    std::vector<Span> spans;
    bool ascending = true;
    for (const RunInput& input : inputs_) {
      const SliceKey* first = samples_.data() + input.first_sample;
      const SliceKey* last = first + input.blocks();
      spans.push_back({first, last});
      ascending = ascending && std::is_sorted(first, last);
    }
    if (ascending) {
      std::vector<MergeKey> tree;
      std::vector<MergeKey> winners;
      merge_sources(
          spans.size(), tree, winners,
          [&spans](std::size_t i) {
            const Span& span = spans[i];
            return span.begin == span.end
                       ? spent_key(i)
                       : MergeKey{span.begin->time, std::uint64_t{span.begin->user} << 32 | i};
          },
          [&](std::size_t i) { visit(*spans[i].begin++); });
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
        const RunInput& input = inputs_[r];
        const SliceKey* samples = samples_.data() + input.first_sample;
        const std::uint64_t n = cut({0, input.blocks()}, splitters_[b],
                                    [samples](std::uint64_t i) { return samples[i]; });
        brackets_[b * k + r] = {n == 0 ? 0 : (n - 1) * kRunIndexStride + 1,
                                std::min(n * kRunIndexStride, input.records)};
      }
    }
  }

  std::vector<RunInput> inputs_;
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
