// Unit tests for src/fs: POSIX-flavoured semantics of the simulated file
// system — path resolution, descriptor lifecycle, EOF truncation,
// unlink-while-open, directory behaviour, capacity accounting.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "fs/filesystem.h"
#include "fs/path.h"
#include "util/rng.h"

namespace wlgen::fs {
namespace {

/// The components PathWalker yields for `path`.
std::vector<std::string> walk(std::string_view path) {
  std::vector<std::string> parts;
  PathWalker walker(path);
  for (std::string_view piece; walker.next(piece);) parts.emplace_back(piece);
  return parts;
}

TEST(Path, WalkerNormalizes) {
  EXPECT_EQ(walk("/a/./b/../c//d/"), (std::vector<std::string>{"a", "c", "d"}));
  EXPECT_TRUE(walk("/").empty());
  EXPECT_TRUE(is_absolute("/"));
  EXPECT_FALSE(is_absolute("relative/path"));
  EXPECT_TRUE(walk("relative/path").empty());
  EXPECT_FALSE(is_absolute(""));
  // A ".." cancels the nearest surviving component before it, nested or not.
  EXPECT_EQ(walk("/a/b/c/../../d"), (std::vector<std::string>{"a", "d"}));
  EXPECT_EQ(walk("/a/b/../c/.."), (std::vector<std::string>{"a"}));
  EXPECT_EQ(walk("/a..b/..c/."), (std::vector<std::string>{"a..b", "..c"}));
}

TEST(Path, DotDotClampsAtRoot) {
  EXPECT_EQ(walk("/../../a"), (std::vector<std::string>{"a"}));
  EXPECT_EQ(walk("/a/../../b"), (std::vector<std::string>{"b"}));
}

TEST(FileSystem, CreateWriteReadRoundTrip) {
  SimulatedFileSystem fsys;
  const auto fd = fsys.creat("/hello");
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(fsys.write(fd.value(), 100).value(), 100u);
  EXPECT_EQ(fsys.close(fd.value()), FsStatus::ok);

  const auto rd = fsys.open("/hello", kRead);
  ASSERT_TRUE(rd.ok());
  EXPECT_EQ(fsys.read(rd.value(), 60).value(), 60u);
  EXPECT_EQ(fsys.read(rd.value(), 60).value(), 40u);  // EOF truncation
  EXPECT_EQ(fsys.read(rd.value(), 60).value(), 0u);   // at EOF
  EXPECT_EQ(fsys.close(rd.value()), FsStatus::ok);
}

TEST(FileSystem, EofTruncationIsTheTable53Mechanism) {
  // A 1000-byte file read in 1024-byte requests moves only 1000 bytes —
  // the reason the paper's measured mean access size (946.71) is below the
  // 1024-byte input mean.
  SimulatedFileSystem fsys;
  const auto fd = fsys.creat("/f");
  fsys.write(fd.value(), 1000);
  fsys.lseek(fd.value(), 0, Seek::set);
  fsys.close(fd.value());
  const auto rd = fsys.open("/f", kRead);
  EXPECT_EQ(fsys.read(rd.value(), 1024).value(), 1000u);
}

TEST(FileSystem, OpenFlagsEnforced) {
  SimulatedFileSystem fsys;
  const auto fd = fsys.creat("/f");
  fsys.write(fd.value(), 10);
  fsys.close(fd.value());

  const auto rd = fsys.open("/f", kRead);
  EXPECT_EQ(fsys.write(rd.value(), 5).status(), FsStatus::not_permitted);
  fsys.close(rd.value());

  const auto wr = fsys.open("/f", kWrite);
  EXPECT_EQ(fsys.read(wr.value(), 5).status(), FsStatus::not_permitted);
  fsys.close(wr.value());

  EXPECT_EQ(fsys.open("/f", 0).status(), FsStatus::invalid_argument);
}

TEST(FileSystem, CreatTruncatesExisting) {
  SimulatedFileSystem fsys;
  auto fd = fsys.creat("/f");
  fsys.write(fd.value(), 500);
  fsys.close(fd.value());
  fd = fsys.creat("/f");
  fsys.close(fd.value());
  EXPECT_EQ(fsys.stat("/f").value().size, 0u);
}

TEST(FileSystem, OpenMissingWithoutCreateFails) {
  SimulatedFileSystem fsys;
  EXPECT_EQ(fsys.open("/nope", kRead).status(), FsStatus::not_found);
  EXPECT_EQ(fsys.open("/no/dir/file", kRead | kCreate | kWrite).status(), FsStatus::not_found);
}

TEST(FileSystem, AppendModePositionsAtEof) {
  SimulatedFileSystem fsys;
  auto fd = fsys.creat("/log");
  fsys.write(fd.value(), 10);
  fsys.close(fd.value());
  fd = fsys.open("/log", kWrite | kAppend);
  fsys.write(fd.value(), 5);
  fsys.close(fd.value());
  EXPECT_EQ(fsys.stat("/log").value().size, 15u);
}

TEST(FileSystem, LseekWhenceVariants) {
  SimulatedFileSystem fsys;
  const auto fd = fsys.creat("/f");
  fsys.write(fd.value(), 100);
  EXPECT_EQ(fsys.lseek(fd.value(), 10, Seek::set).value(), 10u);
  EXPECT_EQ(fsys.lseek(fd.value(), 5, Seek::cur).value(), 15u);
  EXPECT_EQ(fsys.lseek(fd.value(), -10, Seek::end).value(), 90u);
  EXPECT_EQ(fsys.lseek(fd.value(), -200, Seek::cur).status(), FsStatus::invalid_argument);
  // Seeking past EOF is legal; the read then returns 0.
  EXPECT_EQ(fsys.lseek(fd.value(), 500, Seek::set).value(), 500u);
  fsys.close(fd.value());
}

TEST(FileSystem, BadDescriptorsRejected) {
  SimulatedFileSystem fsys;
  EXPECT_EQ(fsys.read(99, 1).status(), FsStatus::bad_descriptor);
  EXPECT_EQ(fsys.write(99, 1).status(), FsStatus::bad_descriptor);
  EXPECT_EQ(fsys.close(99), FsStatus::bad_descriptor);
  EXPECT_EQ(fsys.lseek(99, 0, Seek::set).status(), FsStatus::bad_descriptor);
  EXPECT_EQ(fsys.fstat(99).status(), FsStatus::bad_descriptor);
}

TEST(FileSystem, UnlinkWhileOpenKeepsInodeAlive) {
  SimulatedFileSystem fsys;
  const auto fd = fsys.creat("/victim");
  fsys.write(fd.value(), 42);
  EXPECT_EQ(fsys.unlink("/victim"), FsStatus::ok);
  EXPECT_FALSE(fsys.exists("/victim"));
  // The descriptor still works (classic UNIX tmp-file idiom).
  fsys.lseek(fd.value(), 0, Seek::set);
  EXPECT_EQ(fsys.read(fd.value(), 100).status(), FsStatus::not_permitted);  // write-only fd
  EXPECT_EQ(fsys.fstat(fd.value()).value().size, 42u);
  const std::size_t inodes_before = fsys.inode_count();
  fsys.close(fd.value());
  EXPECT_EQ(fsys.inode_count(), inodes_before - 1);  // collected on close
}

TEST(FileSystem, HardLinksShareTheInode) {
  SimulatedFileSystem fsys;
  auto fd = fsys.creat("/a");
  fsys.write(fd.value(), 50);
  fsys.close(fd.value());
  ASSERT_EQ(fsys.link("/a", "/b"), FsStatus::ok);
  EXPECT_EQ(fsys.stat("/b").value().inode, fsys.stat("/a").value().inode);
  EXPECT_EQ(fsys.stat("/a").value().link_count, 2u);
  // Writing through one name is visible through the other.
  fd = fsys.open("/b", kWrite | kAppend);
  fsys.write(fd.value(), 10);
  fsys.close(fd.value());
  EXPECT_EQ(fsys.stat("/a").value().size, 60u);
  // Unlinking one name keeps the file alive under the other.
  EXPECT_EQ(fsys.unlink("/a"), FsStatus::ok);
  EXPECT_TRUE(fsys.exists("/b"));
  EXPECT_EQ(fsys.stat("/b").value().link_count, 1u);
  const std::uint64_t used = fsys.bytes_in_use();
  EXPECT_EQ(fsys.unlink("/b"), FsStatus::ok);
  EXPECT_EQ(fsys.bytes_in_use(), used - 60);
}

TEST(FileSystem, LinkErrors) {
  SimulatedFileSystem fsys;
  fsys.mkdir("/d");
  fsys.close(fsys.creat("/f").value());
  EXPECT_EQ(fsys.link("/missing", "/x"), FsStatus::not_found);
  EXPECT_EQ(fsys.link("/d", "/x"), FsStatus::is_a_directory);
  EXPECT_EQ(fsys.link("/f", "/f"), FsStatus::already_exists);
  EXPECT_EQ(fsys.link("/f", "/no/dir/x"), FsStatus::not_found);
}

TEST(FileSystem, UnlinkErrors) {
  SimulatedFileSystem fsys;
  EXPECT_EQ(fsys.unlink("/missing"), FsStatus::not_found);
  fsys.mkdir("/dir");
  EXPECT_EQ(fsys.unlink("/dir"), FsStatus::is_a_directory);
}

TEST(FileSystem, MkdirRmdirSemantics) {
  SimulatedFileSystem fsys;
  EXPECT_EQ(fsys.mkdir("/a"), FsStatus::ok);
  EXPECT_EQ(fsys.mkdir("/a"), FsStatus::already_exists);
  EXPECT_EQ(fsys.mkdir("/x/y"), FsStatus::not_found);  // parent missing
  EXPECT_EQ(fsys.mkdir_recursive("/x/y/z"), FsStatus::ok);
  EXPECT_TRUE(fsys.exists("/x/y/z"));
  EXPECT_EQ(fsys.rmdir("/x/y"), FsStatus::directory_not_empty);
  EXPECT_EQ(fsys.rmdir("/x/y/z"), FsStatus::ok);
  EXPECT_EQ(fsys.rmdir("/x/y"), FsStatus::ok);
}

TEST(FileSystem, DirectoryHasEntrySizeAndIsReadable) {
  SimulatedFileSystem fsys;
  fsys.mkdir("/d");
  EXPECT_EQ(fsys.stat("/d").value().size, 0u);
  fsys.close(fsys.creat("/d/file_one").value());
  fsys.close(fsys.creat("/d/f2").value());
  // 16 + strlen per UFS-style entry.
  EXPECT_EQ(fsys.stat("/d").value().size, (16 + 8) + (16 + 2));
  // read(2) on the directory works (4.xBSD semantics).
  const auto fd = fsys.open("/d", kRead);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(fsys.read(fd.value(), 1000).value(), fsys.stat("/d").value().size);
  fsys.close(fd.value());
  // ...but writing it does not.
  EXPECT_EQ(fsys.open("/d", kWrite).status(), FsStatus::is_a_directory);
  fsys.unlink("/d/f2");
  EXPECT_EQ(fsys.stat("/d").value().size, 16u + 8u);
}

TEST(FileSystem, ReaddirSorted) {
  SimulatedFileSystem fsys;
  fsys.mkdir("/d");
  fsys.close(fsys.creat("/d/b").value());
  fsys.close(fsys.creat("/d/a").value());
  const auto names = fsys.readdir("/d");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(fsys.readdir("/d/a").status(), FsStatus::not_a_directory);
  EXPECT_EQ(fsys.readdir("/missing").status(), FsStatus::not_found);
}

TEST(FileSystem, RenameMovesAndReplaces) {
  SimulatedFileSystem fsys;
  fsys.mkdir("/a");
  fsys.mkdir("/b");
  auto fd = fsys.creat("/a/f");
  fsys.write(fd.value(), 7);
  fsys.close(fd.value());
  EXPECT_EQ(fsys.rename("/a/f", "/b/g"), FsStatus::ok);
  EXPECT_FALSE(fsys.exists("/a/f"));
  EXPECT_EQ(fsys.stat("/b/g").value().size, 7u);

  fd = fsys.creat("/b/h");
  fsys.write(fd.value(), 3);
  fsys.close(fd.value());
  EXPECT_EQ(fsys.rename("/b/h", "/b/g"), FsStatus::ok);  // replaces g
  EXPECT_EQ(fsys.stat("/b/g").value().size, 3u);
}

TEST(FileSystem, RenameDirectoryIntoItselfRejected) {
  SimulatedFileSystem fsys;
  fsys.mkdir_recursive("/a/b");
  EXPECT_EQ(fsys.rename("/a", "/a/b/c"), FsStatus::invalid_argument);
}

TEST(FileSystem, CapacityEnforced) {
  SimulatedFileSystem::Options options;
  options.capacity_bytes = 100;
  SimulatedFileSystem fsys(options);
  const auto fd = fsys.creat("/f");
  EXPECT_EQ(fsys.write(fd.value(), 80).value(), 80u);
  EXPECT_EQ(fsys.write(fd.value(), 80).status(), FsStatus::no_space);
  EXPECT_EQ(fsys.bytes_in_use(), 80u);
  // Truncation frees space.
  fsys.close(fd.value());
  EXPECT_EQ(fsys.truncate("/f", 10), FsStatus::ok);
  EXPECT_EQ(fsys.bytes_in_use(), 10u);
}

TEST(FileSystem, MaxOpenFilesEnforced) {
  SimulatedFileSystem::Options options;
  options.max_open_files = 2;
  SimulatedFileSystem fsys(options);
  const auto a = fsys.creat("/a");
  const auto b = fsys.creat("/b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(fsys.creat("/c").status(), FsStatus::too_many_open_files);
  fsys.close(a.value());
  EXPECT_TRUE(fsys.creat("/c").ok());
}

TEST(FileSystem, NameLengthEnforced) {
  SimulatedFileSystem::Options options;
  options.max_name_length = 5;
  SimulatedFileSystem fsys(options);
  EXPECT_EQ(fsys.creat("/toolongname").status(), FsStatus::name_too_long);
  EXPECT_TRUE(fsys.creat("/ok").ok());
}

TEST(FileSystem, StoreDataRoundTripsBytes) {
  SimulatedFileSystem::Options options;
  options.store_data = true;
  SimulatedFileSystem fsys(options);
  const auto fd = fsys.creat("/data");
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  EXPECT_EQ(fsys.write_bytes(fd.value(), payload).value(), 5u);
  fsys.close(fd.value());

  const auto rd = fsys.open("/data", kRead);
  const auto got = fsys.read_bytes(rd.value(), 5);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), payload);
  fsys.close(rd.value());
}

TEST(FileSystem, ReadBytesRequiresStoreData) {
  SimulatedFileSystem fsys;  // store_data off
  const auto fd = fsys.creat("/f");
  EXPECT_EQ(fsys.read_bytes(fd.value(), 1).status(), FsStatus::invalid_argument);
  fsys.close(fd.value());
}

TEST(FileSystem, SyntheticWritePatternIsDeterministic) {
  SimulatedFileSystem::Options options;
  options.store_data = true;
  SimulatedFileSystem fsys(options);
  const auto fd = fsys.creat("/f");
  fsys.write(fd.value(), 300);  // synthetic pattern: byte i = i & 0xff
  fsys.lseek(fd.value(), 0, Seek::set);
  fsys.close(fd.value());
  const auto rd = fsys.open("/f", kRead);
  const auto got = fsys.read_bytes(rd.value(), 300);
  ASSERT_TRUE(got.ok());
  for (std::size_t i = 0; i < got.value().size(); ++i) {
    EXPECT_EQ(got.value()[i], static_cast<std::uint8_t>(i & 0xff));
  }
  fsys.close(rd.value());
}

TEST(FileSystem, StatCountsAccesses) {
  SimulatedFileSystem fsys;
  const auto fd = fsys.creat("/f");
  fsys.write(fd.value(), 100);
  fsys.lseek(fd.value(), 0, Seek::set);
  fsys.close(fd.value());
  const auto rd = fsys.open("/f", kRead);
  fsys.read(rd.value(), 30);
  fsys.read(rd.value(), 30);
  fsys.close(rd.value());
  const auto st = fsys.stat("/f").value();
  EXPECT_EQ(st.read_ops, 2u);
  EXPECT_EQ(st.write_ops, 1u);
  EXPECT_EQ(st.bytes_read, 60u);
  EXPECT_EQ(st.bytes_written, 100u);
  EXPECT_EQ(st.link_count, 1u);
}

TEST(FileSystem, ClockStampsTimestamps) {
  SimulatedFileSystem fsys;
  double now = 123.0;
  fsys.set_clock([&now] { return now; });
  const auto fd = fsys.creat("/f");
  EXPECT_DOUBLE_EQ(fsys.fstat(fd.value()).value().created_at, 123.0);
  now = 456.0;
  fsys.write(fd.value(), 1);
  EXPECT_DOUBLE_EQ(fsys.fstat(fd.value()).value().modified_at, 456.0);
  fsys.close(fd.value());
}

TEST(FileSystem, CountsFilesAndDirectories) {
  SimulatedFileSystem fsys;
  fsys.mkdir("/d");
  fsys.close(fsys.creat("/d/a").value());
  fsys.close(fsys.creat("/d/b").value());
  EXPECT_EQ(fsys.regular_file_count(), 2u);
  EXPECT_EQ(fsys.directory_count(), 2u);  // root + /d
  fsys.unlink("/d/a");
  EXPECT_EQ(fsys.regular_file_count(), 1u);
}

TEST(FileSystem, RelativePathsRejected) {
  SimulatedFileSystem fsys;
  EXPECT_EQ(fsys.creat("relative").status(), FsStatus::invalid_argument);
  EXPECT_EQ(fsys.mkdir(""), FsStatus::invalid_argument);
  EXPECT_EQ(fsys.stat("no-slash").status(), FsStatus::invalid_argument);
}

TEST(FileSystem, PathThroughFileRejected) {
  SimulatedFileSystem fsys;
  fsys.close(fsys.creat("/f").value());
  EXPECT_EQ(fsys.creat("/f/child").status(), FsStatus::not_a_directory);
  EXPECT_EQ(fsys.stat("/f/child").status(), FsStatus::not_a_directory);
}

// --- pinned random-op sequence ------------------------------------------------

/// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t value = 14695981039346656037ULL;
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      value ^= (word >> (8 * i)) & 0xffU;
      value *= 1099511628211ULL;
    }
  }
  void add(const std::string& text) {
    add(text.size());
    for (const char c : text) add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  void add(FsStatus status) { add(static_cast<std::uint64_t>(status)); }
  void add_time(double t) { add(static_cast<std::uint64_t>(t * 1000.0)); }
};

/// A random path over a small namespace, spelled with the lexical detours
/// PathWalker folds away: "//", "." and "<name>/..".  "longname7" exceeds
/// the sequence's 8-byte name limit.
std::string random_path(util::RngStream& rng) {
  static const char* const kNames[] = {"a", "b", "c", "dd", "longname7"};
  const auto pick = [&rng](std::int64_t n) { return rng.uniform_int(0, n - 1); };
  std::string path;
  const std::int64_t depth = rng.uniform_int(1, 3);
  for (std::int64_t level = 0; level < depth; ++level) {
    path += pick(8) == 0 ? "//" : "/";
    const std::int64_t detour = pick(10);
    if (detour == 0) path += "./";
    if (detour == 1) path += std::string(kNames[pick(4)]) + "/../";
    if (detour == 2) path += "../";
    path += kNames[pick(5)];
  }
  if (pick(12) == 0) path += "/.";
  if (pick(12) == 0) path += "/";
  return path;
}

/// Runs a seeded mix of every path and descriptor call and digests each
/// status, fd, inode id, size and directory size, then the final tree's
/// stat of every entry, timestamps included.
std::uint64_t random_sequence_digest(bool store_data) {
  SimulatedFileSystem::Options options;
  options.store_data = store_data;
  options.capacity_bytes = 30000;
  options.max_open_files = 6;
  options.max_name_length = 8;
  SimulatedFileSystem fsys(options);
  double now = 0.0;
  fsys.set_clock([&now] { return now; });
  util::RngStream rng(20261019, "fs/random-ops");
  Digest digest;
  std::vector<Fd> fds;
  const auto some_fd = [&]() -> Fd {
    if (fds.empty() || rng.uniform_int(0, 9) == 0) return 1000;  // never handed out
    return fds[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(fds.size()) - 1))];
  };
  const auto add_stat = [&digest](const Result<FileStat>& st) {
    digest.add(st.status());
    if (!st.ok()) return;
    const FileStat& s = st.value();
    digest.add(s.inode);
    digest.add(static_cast<std::uint64_t>(s.kind));
    digest.add(s.size);
    digest.add(s.link_count);
  };
  const auto add_count = [&digest](const Result<std::uint64_t>& r) {
    digest.add(r.status());
    if (r.ok()) digest.add(r.value());
  };

  for (int step = 0; step < 4000; ++step) {
    now += 1.0;
    const std::int64_t op = rng.uniform_int(0, 14);
    digest.add(static_cast<std::uint64_t>(op));
    switch (op) {
      case 0:
      case 1: {
        const unsigned flags = static_cast<unsigned>(rng.uniform_int(0, 31));
        const Result<Fd> fd = op == 0 ? fsys.creat(random_path(rng))
                                      : fsys.open(random_path(rng), flags);
        digest.add(fd.status());
        if (fd.ok()) {
          digest.add(static_cast<std::uint64_t>(fd.value()));
          fds.push_back(fd.value());
        }
        break;
      }
      case 2: {
        const Fd fd = some_fd();
        digest.add(fsys.close(fd));
        break;
      }
      case 3:
        if (store_data && rng.uniform_int(0, 1) == 0) {
          const auto got = fsys.read_bytes(some_fd(), static_cast<std::uint64_t>(rng.uniform_int(0, 3000)));
          digest.add(got.status());
          if (got.ok()) {
            digest.add(got.value().size());
            std::uint64_t sum = 0;
            for (const std::uint8_t b : got.value()) sum = sum * 31 + b;
            digest.add(sum);
          }
        } else {
          add_count(fsys.read(some_fd(), static_cast<std::uint64_t>(rng.uniform_int(0, 3000))));
        }
        break;
      case 4:
        if (store_data && rng.uniform_int(0, 1) == 0) {
          std::vector<std::uint8_t> bytes(static_cast<std::size_t>(rng.uniform_int(0, 500)));
          for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<std::uint8_t>(i * 7);
          add_count(fsys.write_bytes(some_fd(), bytes));
        } else {
          add_count(fsys.write(some_fd(), static_cast<std::uint64_t>(rng.uniform_int(0, 8000))));
        }
        break;
      case 5: {
        const Seek whence = static_cast<Seek>(rng.uniform_int(0, 2));
        add_count(fsys.lseek(some_fd(), rng.uniform_int(-2000, 4000), whence));
        add_count(fsys.tell(some_fd()));
        break;
      }
      case 6: digest.add(fsys.unlink(random_path(rng))); break;
      case 7: {
        const std::string from = random_path(rng);
        digest.add(fsys.link(from, random_path(rng)));
        break;
      }
      case 8:
        digest.add(rng.uniform_int(0, 3) == 0 ? fsys.mkdir_recursive(random_path(rng))
                                              : fsys.mkdir(random_path(rng)));
        break;
      case 9: digest.add(fsys.rmdir(random_path(rng))); break;
      case 10: {
        const std::string from = random_path(rng);
        digest.add(fsys.rename(from, random_path(rng)));
        break;
      }
      case 11: {
        const std::string path = random_path(rng);
        digest.add(fsys.truncate(path, static_cast<std::uint64_t>(rng.uniform_int(0, 6000))));
        break;
      }
      case 12:
        add_stat(fsys.stat(random_path(rng)));
        add_stat(fsys.fstat(some_fd()));
        break;
      case 13: {
        const auto names = fsys.readdir(random_path(rng));
        digest.add(names.status());
        if (names.ok()) {
          for (const auto& name : names.value()) digest.add(name);
        }
        break;
      }
      default: digest.add(fsys.exists(random_path(rng)) ? 1U : 0U); break;
    }
    add_stat(fsys.stat("/"));
    digest.add(fsys.open_descriptor_count());
    digest.add(fsys.bytes_in_use());
  }

  // The final tree, walked in readdir order.
  const std::function<void(const std::string&)> walk = [&](const std::string& dir) {
    const auto names = fsys.readdir(dir);
    if (!names.ok()) return;
    for (const auto& name : names.value()) {
      const std::string path = (dir == "/" ? "" : dir) + "/" + name;
      digest.add(path);
      const auto st = fsys.stat(path);
      add_stat(st);
      digest.add(st.value().bytes_read);
      digest.add(st.value().bytes_written);
      digest.add(st.value().read_ops);
      digest.add(st.value().write_ops);
      digest.add_time(st.value().created_at);
      digest.add_time(st.value().modified_at);
      digest.add_time(st.value().accessed_at);
      if (st.value().kind == FileKind::directory) walk(path);
    }
  };
  walk("/");
  digest.add(fsys.inode_count());
  digest.add(fsys.regular_file_count());
  digest.add(fsys.directory_count());
  // The next inode id and fd.
  for (const Fd fd : fds) fsys.close(fd);
  const auto probe = fsys.creat("/probe");
  digest.add(probe.status());
  if (probe.ok()) {
    digest.add(static_cast<std::uint64_t>(probe.value()));
    add_stat(fsys.fstat(probe.value()));
  }
  return digest.value;
}

TEST(FileSystem, RandomOpSequenceDigestIsPinned) {
  // Pinned values: any change to an id, fd, size, status or timestamp the
  // call surface hands out moves them.
  EXPECT_EQ(random_sequence_digest(false), 17688434362516181140ULL);
  EXPECT_EQ(random_sequence_digest(true), 18239602498015353814ULL);
}

TEST(ResultType, ValueAccessContracts) {
  Result<int> good(5);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 5);
  EXPECT_EQ(good.status(), FsStatus::ok);
  Result<int> bad(FsStatus::not_found);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.value_or(7), 7);
  EXPECT_THROW(bad.value(), std::logic_error);
  EXPECT_THROW(Result<int>(FsStatus::ok), std::logic_error);
}

}  // namespace
}  // namespace wlgen::fs
