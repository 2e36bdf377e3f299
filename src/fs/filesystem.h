#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "fs/path.h"
#include "fs/status.h"

namespace wlgen::fs {

/// Inode number; root is always inode 1.
using InodeId = std::uint64_t;

/// File descriptor handle (>= 0 when valid).
using Fd = int;

/// Kind of an inode.
enum class FileKind { regular, directory };

/// Open flags, OR-able.  Mirrors the UNIX open(2) surface the paper's USIM
/// drives ("the interface in UNIX systems appears in the form of system
/// calls, e.g., open, read" — section 3.1.2).
enum OpenFlags : unsigned {
  kRead = 1u << 0,      ///< allow read()
  kWrite = 1u << 1,     ///< allow write()
  kCreate = 1u << 2,    ///< create if missing
  kTruncate = 1u << 3,  ///< truncate to zero on open
  kAppend = 1u << 4,    ///< position at EOF before every write
};

/// stat(2)-style metadata snapshot.
struct FileStat {
  InodeId inode = 0;
  FileKind kind = FileKind::regular;
  std::uint64_t size = 0;
  std::uint32_t link_count = 0;
  std::uint64_t read_ops = 0;    ///< lifetime read() calls touching the inode
  std::uint64_t write_ops = 0;   ///< lifetime write() calls touching the inode
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  double created_at = 0.0;       ///< simulated time, microseconds
  double modified_at = 0.0;
  double accessed_at = 0.0;
};

/// lseek whence.
enum class Seek { set, cur, end };

/// In-memory file system with UNIX semantics.
///
/// Period-accurate details the workload depends on: directories carry a real
/// size (the sum of their entry records, 16 bytes + name length each, as in
/// the old UFS on-disk format), and read(2) on a directory is permitted —
/// 4.xBSD, the system the paper's characterisation was measured on, allowed
/// exactly that, and the paper "treats directories as special files"
/// (section 4.1.2).
///
/// This substrate substitutes for the real file system the paper's generator
/// drives: "a new file system is created to which file I/O is directed"
/// (section 4.1) so existing files are never modified.  Here the *entire*
/// file system is the new one, held in memory.  Semantics kept faithfully:
/// byte-granular sizes, read truncation at EOF (the cause of Table 5.3's
/// measured mean access size < the 1024-byte input mean), open-before-read,
/// POSIX unlink-while-open lifetime, and directory tree behaviour.
///
/// Timing intentionally lives elsewhere (fsmodel): this class answers *what
/// happens*, the models answer *how long it takes*.
class SimulatedFileSystem {
 public:
  /// Max simultaneously open descriptors.
  static constexpr std::size_t kMaxOpenFiles = 4096;
  /// Max length of a single path component.
  static constexpr std::size_t kMaxNameLength = 255;

  SimulatedFileSystem();

  /// Supplies a simulated-clock source for inode timestamps (defaults to 0).
  void set_clock(std::function<double()> clock);

  // --- system-call surface -------------------------------------------------

  /// Opens a file.  kCreate creates missing regular files; opening a
  /// directory is allowed read-only.
  Result<Fd> open(const std::string& path, unsigned flags);

  /// creat(2): open with kWrite|kCreate|kTruncate.
  Result<Fd> creat(const std::string& path);

  /// Closes a descriptor.
  FsStatus close(Fd fd);

  /// Reads up to `count` bytes at the descriptor offset; returns the number
  /// actually read (truncated at EOF) and advances the offset.
  Result<std::uint64_t> read(Fd fd, std::uint64_t count);

  /// Writes `count` synthetic bytes at the offset, growing the file as
  /// needed; returns bytes written and advances the offset.
  Result<std::uint64_t> write(Fd fd, std::uint64_t count);

  /// Repositions the descriptor offset; returns the new offset.
  Result<std::uint64_t> lseek(Fd fd, std::int64_t offset, Seek whence);

  /// Removes a directory entry; the inode survives while still open.
  FsStatus unlink(const std::string& path);

  /// Creates a directory (parents must exist).
  FsStatus mkdir(const std::string& path);

  /// Creates all missing ancestors then the directory itself.
  FsStatus mkdir_recursive(const std::string& path);

  /// Metadata by path.
  Result<FileStat> stat(const std::string& path) const;

  /// Metadata by descriptor.
  Result<FileStat> fstat(Fd fd) const;

  /// True when the path resolves.
  bool exists(const std::string& path) const;

  /// Current descriptor offset (for tests).
  Result<std::uint64_t> tell(Fd fd) const;

  /// Replaces this file system's inodes, entries and descriptors with
  /// `source`'s, keeping this one's clock: a snapshot copies in a few
  /// flat-table copies (the FSC copies its shared /system tree this way).
  void copy_from(const SimulatedFileSystem& source);

  // --- introspection -------------------------------------------------------

  std::size_t regular_file_count() const;
  std::size_t directory_count() const;
  std::size_t open_descriptor_count() const { return open_count_; }
  std::size_t inode_count() const { return live_inodes_; }

 private:
  /// One inode record.  Records are reused once collected; ids are not.
  struct Inode {
    std::uint64_t size = 0;
    std::uint64_t read_ops = 0;
    std::uint64_t write_ops = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
    double created_at = 0.0;
    double modified_at = 0.0;
    double accessed_at = 0.0;
    std::uint32_t link_count = 0;
    std::uint32_t open_count = 0;
    FileKind kind = FileKind::regular;
    bool live = false;
  };

  /// One descriptor; inode 0 marks a closed one.
  struct OpenFile {
    InodeId inode = 0;
    std::uint64_t offset = 0;
    unsigned flags = 0;
  };

  /// Every directory entry of the file system in one open-addressed table
  /// keyed by (parent inode, name), probed linearly and kept at most half
  /// full; the names live in one append-only buffer, compacted when most of
  /// it belongs to removed entries.
  class EntryTable {
   public:
    /// The child `name` of `parent`, or 0.
    InodeId find(InodeId parent, std::string_view name) const;
    /// Adds an entry; `name` must be absent from `parent`.
    void insert(InodeId parent, std::string_view name, InodeId child);
    /// Removes an entry; returns false when it was absent.
    bool erase(InodeId parent, std::string_view name);

   private:
    struct Slot {
      InodeId parent = 0;  ///< 0 marks an empty slot (the root is nobody's child)
      InodeId child = 0;
      std::uint32_t hash = 0;
      std::uint32_t name_at = 0;  ///< offset of the name in names_
      std::uint32_t name_size = 0;
    };

    static std::uint32_t hash_of(InodeId parent, std::string_view name);
    std::string_view name_of(const Slot& slot) const {
      return std::string_view(names_).substr(slot.name_at, slot.name_size);
    }
    /// The slot holding (parent, name), or the empty slot ending its probe.
    std::size_t probe(InodeId parent, std::string_view name, std::uint32_t hash) const;
    void grow();
    void compact_names();

    std::vector<Slot> slots_;
    std::string names_;
    std::size_t used_ = 0;
    std::size_t dead_name_bytes_ = 0;
  };

  double now() const { return clock_ ? clock_() : 0.0; }
  /// Creates a live inode under the next id; references into inodes_ do
  /// not survive it.
  InodeId make_inode(FileKind kind);
  void add_child(InodeId dir, std::string_view name, InodeId id);
  void remove_child(InodeId dir, std::string_view name);
  /// inodes_'s index of a live inode; throws std::logic_error otherwise.
  std::size_t record_index(InodeId id) const;
  Inode& inode_ref(InodeId id);
  const Inode& inode_ref(InodeId id) const;
  FileStat stat_of(InodeId id) const;
  Result<InodeId> resolve(std::string_view path) const;
  /// The directory holding the path's last component, which `leaf` views.
  Result<InodeId> resolve_parent(std::string_view path, std::string_view& leaf) const;
  void maybe_collect(InodeId id);
  Result<OpenFile*> descriptor(Fd fd);
  Result<const OpenFile*> descriptor(Fd fd) const;

  std::function<double()> clock_;
  // Inode ids are handed out in order and never reused: record_of_[id] is
  // 1 + the index of the inode's record in inodes_, or 0 (a 4-byte
  // tombstone) for id 0 and for a collected inode.  The root is id 1.
  std::vector<std::uint32_t> record_of_;
  std::vector<Inode> inodes_;
  std::vector<std::uint32_t> free_records_;  // indices of collected records
  EntryTable entries_;
  // Fds are handed out in order from 3 (mimicking stdin/stdout/stderr being
  // taken): open_files_[fd - first_fd_].  The closed descriptors before
  // open_files_[open_front_] are trimmed once they fill half the table.
  std::vector<OpenFile> open_files_;
  Fd first_fd_ = 3;
  std::size_t open_front_ = 0;
  std::size_t open_count_ = 0;
  std::size_t live_inodes_ = 0;
};

}  // namespace wlgen::fs
