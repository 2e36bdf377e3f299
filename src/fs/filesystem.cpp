#include "fs/filesystem.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>

namespace wlgen::fs {

// --- EntryTable ---------------------------------------------------------------

std::uint32_t SimulatedFileSystem::EntryTable::hash_of(InodeId parent, std::string_view name) {
  // The murmur3 finalizer over the name's hash and the parent.
  std::uint64_t x = std::hash<std::string_view>{}(name) + parent * 0x9e3779b97f4a7c15ULL;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return static_cast<std::uint32_t>(x);
}

std::size_t SimulatedFileSystem::EntryTable::probe(InodeId parent, std::string_view name,
                                                   std::uint32_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.parent == 0) return i;
    if (slot.hash == hash && slot.parent == parent && name_of(slot) == name) return i;
  }
}

InodeId SimulatedFileSystem::EntryTable::find(InodeId parent, std::string_view name) const {
  if (slots_.empty()) return 0;
  const Slot& slot = slots_[probe(parent, name, hash_of(parent, name))];
  return slot.parent == 0 ? 0 : slot.child;
}

void SimulatedFileSystem::EntryTable::insert(InodeId parent, std::string_view name,
                                             InodeId child) {
  if (2 * (used_ + 1) > slots_.size()) grow();
  if (names_.size() + name.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("SimulatedFileSystem: directory names exceed 4 GiB");
  }
  const std::uint32_t hash = hash_of(parent, name);
  slots_[probe(parent, name, hash)] = {parent, child, hash,
                                       static_cast<std::uint32_t>(names_.size()),
                                       static_cast<std::uint32_t>(name.size())};
  names_.append(name);
  ++used_;
}

bool SimulatedFileSystem::EntryTable::erase(InodeId parent, std::string_view name) {
  if (slots_.empty()) return false;
  std::size_t hole = probe(parent, name, hash_of(parent, name));
  if (slots_[hole].parent == 0) return false;
  dead_name_bytes_ += slots_[hole].name_size;
  // Backward-shift deletion: pull every later slot of the run whose home is
  // not between the hole and itself into the hole, so no probe breaks early.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = (hole + 1) & mask; slots_[i].parent != 0; i = (i + 1) & mask) {
    const std::size_t home = slots_[i].hash & mask;
    const bool stays = hole < i ? (hole < home && home <= i) : (hole < home || home <= i);
    if (stays) continue;
    slots_[hole] = slots_[i];
    hole = i;
  }
  slots_[hole] = Slot{};
  --used_;
  if (dead_name_bytes_ > 4096 && 2 * dead_name_bytes_ > names_.size()) compact_names();
  return true;
}

void SimulatedFileSystem::EntryTable::grow() {
  std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots_.size()));
  old.swap(slots_);
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.parent == 0) continue;
    std::size_t i = slot.hash & mask;
    while (slots_[i].parent != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

void SimulatedFileSystem::EntryTable::compact_names() {
  std::string live;
  live.reserve(names_.size() - dead_name_bytes_);
  for (Slot& slot : slots_) {
    if (slot.parent == 0) continue;
    const std::string_view name = name_of(slot);
    slot.name_at = static_cast<std::uint32_t>(live.size());
    live.append(name);
  }
  names_.swap(live);
  dead_name_bytes_ = 0;
}

// --- SimulatedFileSystem ------------------------------------------------------

SimulatedFileSystem::SimulatedFileSystem() {
  record_of_.push_back(0);          // id 0: never an inode
  make_inode(FileKind::directory);  // the root, id 1
}

void SimulatedFileSystem::set_clock(std::function<double()> clock) { clock_ = std::move(clock); }

void SimulatedFileSystem::copy_from(const SimulatedFileSystem& source) {
  record_of_ = source.record_of_;
  inodes_ = source.inodes_;
  free_records_ = source.free_records_;
  entries_ = source.entries_;
  open_files_ = source.open_files_;
  first_fd_ = source.first_fd_;
  open_front_ = source.open_front_;
  open_count_ = source.open_count_;
  live_inodes_ = source.live_inodes_;
}

InodeId SimulatedFileSystem::make_inode(FileKind kind) {
  const InodeId id = record_of_.size();
  std::size_t record = inodes_.size();
  if (free_records_.empty()) {
    if (record >= std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("SimulatedFileSystem: too many live inodes");
    }
    inodes_.emplace_back();
  } else {
    record = free_records_.back();
    free_records_.pop_back();
    inodes_[record] = Inode{};
  }
  record_of_.push_back(static_cast<std::uint32_t>(record + 1));
  Inode& node = inodes_[record];
  node.kind = kind;
  node.link_count = 1;
  node.live = true;
  node.created_at = node.modified_at = node.accessed_at = now();
  ++live_inodes_;
  return id;
}

void SimulatedFileSystem::add_child(InodeId dir, std::string_view name, InodeId id) {
  entries_.insert(dir, name, id);
  Inode& node = inode_ref(dir);
  node.size += 16 + name.size();  // UFS-style directory entry record
  node.modified_at = now();
}

void SimulatedFileSystem::remove_child(InodeId dir, std::string_view name) {
  if (!entries_.erase(dir, name)) return;
  Inode& node = inode_ref(dir);
  const std::uint64_t entry = 16 + name.size();
  node.size -= std::min<std::uint64_t>(node.size, entry);
  node.modified_at = now();
}

std::size_t SimulatedFileSystem::record_index(InodeId id) const {
  if (id >= record_of_.size() || record_of_[id] == 0) {
    throw std::logic_error("SimulatedFileSystem: dangling inode id");
  }
  return record_of_[id] - 1;
}

SimulatedFileSystem::Inode& SimulatedFileSystem::inode_ref(InodeId id) {
  return inodes_[record_index(id)];
}

const SimulatedFileSystem::Inode& SimulatedFileSystem::inode_ref(InodeId id) const {
  return inodes_[record_index(id)];
}

Result<InodeId> SimulatedFileSystem::resolve(std::string_view path) const {
  if (!is_absolute(path)) return FsStatus::invalid_argument;
  PathWalker walk(path);
  InodeId current = 1;
  for (std::string_view piece; walk.next(piece);) {
    if (piece.size() > kMaxNameLength) return FsStatus::name_too_long;
    if (inode_ref(current).kind != FileKind::directory) return FsStatus::not_a_directory;
    current = entries_.find(current, piece);
    if (current == 0) return FsStatus::not_found;
  }
  return current;
}

Result<InodeId> SimulatedFileSystem::resolve_parent(std::string_view path,
                                                    std::string_view& leaf) const {
  if (!is_absolute(path)) return FsStatus::invalid_argument;
  PathWalker walk(path);
  std::string_view piece;
  if (!walk.next(piece)) return FsStatus::invalid_argument;  // root has no parent entry
  // One pass: a component is looked up once the next one shows it is not
  // the leaf.  The first error of the walk waits for the leaf's own check.
  InodeId current = 1;
  FsStatus walk_error = FsStatus::ok;
  for (std::string_view next; walk.next(next); piece = next) {
    if (walk_error != FsStatus::ok) continue;
    if (inode_ref(current).kind != FileKind::directory) {
      walk_error = FsStatus::not_a_directory;
      continue;
    }
    current = entries_.find(current, piece);
    if (current == 0) walk_error = FsStatus::not_found;
  }
  leaf = piece;
  if (leaf.size() > kMaxNameLength) return FsStatus::name_too_long;
  if (walk_error != FsStatus::ok) return walk_error;
  if (inode_ref(current).kind != FileKind::directory) return FsStatus::not_a_directory;
  return current;
}

void SimulatedFileSystem::maybe_collect(InodeId id) {
  const std::size_t record = record_index(id);
  Inode& node = inodes_[record];
  if (node.link_count == 0 && node.open_count == 0) {
    node.live = false;
    record_of_[id] = 0;
    free_records_.push_back(static_cast<std::uint32_t>(record));
    --live_inodes_;
  }
}

Result<SimulatedFileSystem::OpenFile*> SimulatedFileSystem::descriptor(Fd fd) {
  if (fd < first_fd_ || static_cast<std::size_t>(fd - first_fd_) >= open_files_.size()) {
    return FsStatus::bad_descriptor;
  }
  OpenFile& of = open_files_[static_cast<std::size_t>(fd - first_fd_)];
  if (of.inode == 0) return FsStatus::bad_descriptor;
  return &of;
}

Result<const SimulatedFileSystem::OpenFile*> SimulatedFileSystem::descriptor(Fd fd) const {
  if (fd < first_fd_ || static_cast<std::size_t>(fd - first_fd_) >= open_files_.size()) {
    return FsStatus::bad_descriptor;
  }
  const OpenFile& of = open_files_[static_cast<std::size_t>(fd - first_fd_)];
  if (of.inode == 0) return FsStatus::bad_descriptor;
  return &of;
}

Result<Fd> SimulatedFileSystem::open(const std::string& path, unsigned flags) {
  if ((flags & (kRead | kWrite)) == 0) return FsStatus::invalid_argument;
  if (open_count_ >= kMaxOpenFiles) return FsStatus::too_many_open_files;

  InodeId target = 0;
  const Result<InodeId> found = resolve(path);
  if (found.ok()) {
    target = found.value();
    if (inode_ref(target).kind == FileKind::directory && (flags & (kWrite | kTruncate)) != 0) {
      return FsStatus::is_a_directory;
    }
  } else if (found.status() == FsStatus::not_found && (flags & kCreate) != 0) {
    std::string_view leaf;
    const Result<InodeId> parent = resolve_parent(path, leaf);
    if (!parent.ok()) return parent.status();
    target = make_inode(FileKind::regular);
    add_child(parent.value(), leaf, target);
  } else {
    return found.status();
  }

  Inode& node = inode_ref(target);
  if ((flags & kTruncate) != 0 && node.kind == FileKind::regular) {
    node.size = 0;
    node.modified_at = now();
  }
  ++node.open_count;

  const Fd fd = first_fd_ + static_cast<Fd>(open_files_.size());
  open_files_.push_back(OpenFile{target, 0, flags});
  ++open_count_;
  return fd;
}

Result<Fd> SimulatedFileSystem::creat(const std::string& path) {
  return open(path, kWrite | kCreate | kTruncate);
}

FsStatus SimulatedFileSystem::close(Fd fd) {
  const auto d = descriptor(fd);
  if (!d.ok()) return d.status();
  const InodeId inode = d.value()->inode;
  d.value()->inode = 0;
  --open_count_;
  // Closed descriptors at the front leave the table in batches, so it spans
  // about the fds from the oldest still open to the newest.
  while (open_front_ < open_files_.size() && open_files_[open_front_].inode == 0) ++open_front_;
  if (open_front_ >= 64 && 2 * open_front_ >= open_files_.size()) {
    open_files_.erase(open_files_.begin(),
                      open_files_.begin() + static_cast<std::ptrdiff_t>(open_front_));
    first_fd_ += static_cast<Fd>(open_front_);
    open_front_ = 0;
  }
  Inode& node = inode_ref(inode);
  if (node.open_count == 0) throw std::logic_error("SimulatedFileSystem: open_count underflow");
  --node.open_count;
  maybe_collect(inode);
  return FsStatus::ok;
}

Result<std::uint64_t> SimulatedFileSystem::read(Fd fd, std::uint64_t count) {
  const auto d = descriptor(fd);
  if (!d.ok()) return d.status();
  OpenFile& of = *d.value();
  if ((of.flags & kRead) == 0) return FsStatus::not_permitted;
  Inode& node = inode_ref(of.inode);
  // Directories are readable as special files (4.xBSD semantics; the size is
  // the directory's entry bytes).
  const std::uint64_t available = of.offset < node.size ? node.size - of.offset : 0;
  const std::uint64_t got = std::min(count, available);
  of.offset += got;
  ++node.read_ops;
  node.bytes_read += got;
  node.accessed_at = now();
  return got;
}

Result<std::uint64_t> SimulatedFileSystem::write(Fd fd, std::uint64_t count) {
  const auto d = descriptor(fd);
  if (!d.ok()) return d.status();
  OpenFile& of = *d.value();
  if ((of.flags & kWrite) == 0) return FsStatus::not_permitted;
  Inode& node = inode_ref(of.inode);
  if (node.kind == FileKind::directory) return FsStatus::is_a_directory;
  if ((of.flags & kAppend) != 0) of.offset = node.size;
  const std::uint64_t end = of.offset + count;
  node.size = std::max(node.size, end);
  of.offset += count;
  ++node.write_ops;
  node.bytes_written += count;
  node.modified_at = now();
  return count;
}

Result<std::uint64_t> SimulatedFileSystem::lseek(Fd fd, std::int64_t offset, Seek whence) {
  const auto d = descriptor(fd);
  if (!d.ok()) return d.status();
  OpenFile& of = *d.value();
  const Inode& node = inode_ref(of.inode);
  std::int64_t base = 0;
  switch (whence) {
    case Seek::set: base = 0; break;
    case Seek::cur: base = static_cast<std::int64_t>(of.offset); break;
    case Seek::end: base = static_cast<std::int64_t>(node.size); break;
  }
  const std::int64_t target = base + offset;
  if (target < 0) return FsStatus::invalid_argument;
  of.offset = static_cast<std::uint64_t>(target);
  return of.offset;
}

FsStatus SimulatedFileSystem::unlink(const std::string& path) {
  std::string_view leaf;
  const Result<InodeId> parent = resolve_parent(path, leaf);
  if (!parent.ok()) return parent.status();
  const InodeId id = entries_.find(parent.value(), leaf);
  if (id == 0) return FsStatus::not_found;
  if (inode_ref(id).kind == FileKind::directory) return FsStatus::is_a_directory;
  remove_child(parent.value(), leaf);
  Inode& node = inode_ref(id);
  if (node.link_count == 0) throw std::logic_error("SimulatedFileSystem: link_count underflow");
  --node.link_count;
  maybe_collect(id);
  return FsStatus::ok;
}

FsStatus SimulatedFileSystem::mkdir(const std::string& path) {
  std::string_view leaf;
  const Result<InodeId> parent = resolve_parent(path, leaf);
  if (!parent.ok()) return parent.status();
  if (entries_.find(parent.value(), leaf) != 0) return FsStatus::already_exists;
  const InodeId id = make_inode(FileKind::directory);
  add_child(parent.value(), leaf, id);
  return FsStatus::ok;
}

FsStatus SimulatedFileSystem::mkdir_recursive(const std::string& path) {
  if (!is_absolute(path)) return FsStatus::invalid_argument;
  PathWalker walk(path);
  std::string prefix;
  for (std::string_view piece; walk.next(piece);) {
    prefix += '/';
    prefix += piece;
    const FsStatus st = mkdir(prefix);
    if (st == FsStatus::ok || st == FsStatus::already_exists) continue;
    return st;
  }
  return FsStatus::ok;
}

FileStat SimulatedFileSystem::stat_of(InodeId id) const {
  const Inode& node = inode_ref(id);
  FileStat st;
  st.inode = id;
  st.kind = node.kind;
  st.size = node.size;
  st.link_count = node.link_count;
  st.read_ops = node.read_ops;
  st.write_ops = node.write_ops;
  st.bytes_read = node.bytes_read;
  st.bytes_written = node.bytes_written;
  st.created_at = node.created_at;
  st.modified_at = node.modified_at;
  st.accessed_at = node.accessed_at;
  return st;
}

Result<FileStat> SimulatedFileSystem::stat(const std::string& path) const {
  const Result<InodeId> found = resolve(path);
  if (!found.ok()) return found.status();
  return stat_of(found.value());
}

Result<FileStat> SimulatedFileSystem::fstat(Fd fd) const {
  const auto d = descriptor(fd);
  if (!d.ok()) return d.status();
  return stat_of(d.value()->inode);
}

bool SimulatedFileSystem::exists(const std::string& path) const { return resolve(path).ok(); }

Result<std::uint64_t> SimulatedFileSystem::tell(Fd fd) const {
  const auto d = descriptor(fd);
  if (!d.ok()) return d.status();
  return d.value()->offset;
}

std::size_t SimulatedFileSystem::regular_file_count() const {
  return static_cast<std::size_t>(std::count_if(inodes_.begin(), inodes_.end(), [](const Inode& n) {
    return n.live && n.kind == FileKind::regular && n.link_count > 0;
  }));
}

std::size_t SimulatedFileSystem::directory_count() const {
  return static_cast<std::size_t>(std::count_if(inodes_.begin(), inodes_.end(), [](const Inode& n) {
    return n.live && n.kind == FileKind::directory;
  }));
}

}  // namespace wlgen::fs
