// Unit tests for src/fs: POSIX-flavoured semantics of the simulated file
// system — path resolution, descriptor lifecycle, EOF truncation,
// unlink-while-open, directory behaviour, the descriptor and name limits.

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

TEST(FileSystem, UnlinkErrors) {
  SimulatedFileSystem fsys;
  EXPECT_EQ(fsys.unlink("/missing"), FsStatus::not_found);
  fsys.mkdir("/dir");
  EXPECT_EQ(fsys.unlink("/dir"), FsStatus::is_a_directory);
}

TEST(FileSystem, MkdirSemantics) {
  SimulatedFileSystem fsys;
  EXPECT_EQ(fsys.mkdir("/a"), FsStatus::ok);
  EXPECT_EQ(fsys.mkdir("/a"), FsStatus::already_exists);
  EXPECT_EQ(fsys.mkdir("/x/y"), FsStatus::not_found);  // parent missing
  EXPECT_EQ(fsys.mkdir_recursive("/x/y/z"), FsStatus::ok);
  EXPECT_TRUE(fsys.exists("/x/y/z"));
  EXPECT_EQ(fsys.mkdir_recursive("/x/y/z"), FsStatus::ok);  // already there
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

TEST(FileSystem, MaxOpenFilesEnforced) {
  // At most 4096 descriptors are open at once.
  SimulatedFileSystem fsys;
  std::vector<Fd> fds;
  for (int i = 0; i < 4096; ++i) {
    const auto fd = fsys.creat("/f" + std::to_string(i));
    ASSERT_TRUE(fd.ok()) << i;
    fds.push_back(fd.value());
  }
  EXPECT_EQ(fsys.creat("/over").status(), FsStatus::too_many_open_files);
  EXPECT_EQ(fsys.open("/f0", kRead).status(), FsStatus::too_many_open_files);
  fsys.close(fds.front());
  EXPECT_TRUE(fsys.creat("/over").ok());
}

TEST(FileSystem, NameLengthEnforced) {
  // A path component holds at most 255 bytes, on every path call.
  SimulatedFileSystem fsys;
  const std::string longest(255, 'n');
  const std::string too_long(256, 'n');
  EXPECT_EQ(fsys.creat("/" + too_long).status(), FsStatus::name_too_long);
  EXPECT_EQ(fsys.mkdir("/" + too_long), FsStatus::name_too_long);
  EXPECT_EQ(fsys.stat("/" + too_long + "/x").status(), FsStatus::name_too_long);
  EXPECT_EQ(fsys.mkdir("/" + longest), FsStatus::ok);
  EXPECT_TRUE(fsys.creat("/" + longest + "/" + longest).ok());
  EXPECT_EQ(fsys.unlink("/" + longest + "/" + too_long), FsStatus::name_too_long);
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
  void add(FsStatus status) { add(std::string(to_string(status))); }
  void add_time(double t) { add(static_cast<std::uint64_t>(t * 1000.0)); }
};

/// The short names a random path is made of.
constexpr const char* kNames[] = {"a", "b", "c", "dd"};

/// A random path over kNames and `long_name` (meant to exceed the name
/// limit), spelled with the lexical detours PathWalker folds away: "//",
/// "." and "<name>/..".
std::string random_path(util::RngStream& rng, const std::string& long_name) {
  const auto pick = [&rng](std::int64_t n) { return rng.uniform_int(0, n - 1); };
  std::string path;
  const std::int64_t depth = rng.uniform_int(1, 3);
  for (std::int64_t level = 0; level < depth; ++level) {
    path += pick(8) == 0 ? "//" : "/";
    const std::int64_t detour = pick(10);
    if (detour == 0) path += "./";
    if (detour == 1) path += std::string(kNames[pick(4)]) + "/../";
    if (detour == 2) path += "../";
    const std::int64_t name = pick(5);
    path += name == 4 ? long_name : kNames[name];
  }
  if (pick(12) == 0) path += "/.";
  if (pick(12) == 0) path += "/";
  return path;
}

/// Runs a seeded mix of the calls the workload pipeline makes (open, creat,
/// close, read, write, lseek, tell, unlink, mkdir, mkdir_recursive, stat,
/// fstat, exists, and copy_from between the file system and a snapshot), on
/// the default limits, and digests each status, fd, inode id and size; then
/// the stat of every path the namespace can spell, timestamps included.
std::uint64_t pipeline_call_sequence_digest() {
  const std::string long_name(256, 'n');  // one byte over the name limit
  SimulatedFileSystem fsys;
  SimulatedFileSystem snapshot;
  double now = 0.0;
  fsys.set_clock([&now] { return now; });
  util::RngStream rng(20261020, "fs/pipeline-ops");
  Digest digest;
  std::vector<Fd> fds;
  const auto some_fd = [&]() -> Fd {
    if (fds.empty() || rng.uniform_int(0, 9) == 0) return 1000000;  // never handed out
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
    const std::int64_t op = rng.uniform_int(0, 10);
    digest.add(static_cast<std::uint64_t>(op));
    switch (op) {
      case 0:
      case 1: {
        const unsigned flags = static_cast<unsigned>(rng.uniform_int(0, 31));
        const Result<Fd> fd = op == 0 ? fsys.creat(random_path(rng, long_name))
                                      : fsys.open(random_path(rng, long_name), flags);
        digest.add(fd.status());
        if (fd.ok()) {
          digest.add(static_cast<std::uint64_t>(fd.value()));
          fds.push_back(fd.value());
        }
        break;
      }
      case 2: digest.add(fsys.close(some_fd())); break;
      case 3: add_count(fsys.read(some_fd(), static_cast<std::uint64_t>(rng.uniform_int(0, 3000)))); break;
      case 4: add_count(fsys.write(some_fd(), static_cast<std::uint64_t>(rng.uniform_int(0, 8000)))); break;
      case 5: {
        const Seek whence = static_cast<Seek>(rng.uniform_int(0, 2));
        add_count(fsys.lseek(some_fd(), rng.uniform_int(-2000, 4000), whence));
        add_count(fsys.tell(some_fd()));
        break;
      }
      case 6: digest.add(fsys.unlink(random_path(rng, long_name))); break;
      case 7:
        digest.add(rng.uniform_int(0, 3) == 0 ? fsys.mkdir_recursive(random_path(rng, long_name))
                                              : fsys.mkdir(random_path(rng, long_name)));
        break;
      case 8:
        add_stat(fsys.stat(random_path(rng, long_name)));
        add_stat(fsys.fstat(some_fd()));
        break;
      case 9:
        // Save a snapshot, or roll back to the last one (descriptors too).
        if (rng.uniform_int(0, 2) == 0) {
          fsys.copy_from(snapshot);
        } else {
          snapshot.copy_from(fsys);
        }
        break;
      default: digest.add(fsys.exists(random_path(rng, long_name)) ? 1U : 0U); break;
    }
    add_stat(fsys.stat("/"));
    digest.add(fsys.open_descriptor_count());
  }

  // Every path of up to three short names; no call can make a deeper one.
  const std::function<void(const std::string&, int)> walk = [&](const std::string& dir, int depth) {
    for (const char* name : kNames) {
      const std::string path = dir + "/" + name;
      digest.add(path);
      const auto st = fsys.stat(path);
      add_stat(st);
      if (!st.ok()) continue;
      digest.add(st.value().bytes_read);
      digest.add(st.value().bytes_written);
      digest.add(st.value().read_ops);
      digest.add(st.value().write_ops);
      digest.add_time(st.value().created_at);
      digest.add_time(st.value().modified_at);
      digest.add_time(st.value().accessed_at);
      if (depth < 3) walk(path, depth + 1);
    }
  };
  walk("", 1);
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

TEST(FileSystem, PipelineCallSequenceDigestIsPinned) {
  // Pinned value: any change to an id, fd, size, status or timestamp the
  // calls the pipeline makes hand out moves it.
  EXPECT_EQ(pipeline_call_sequence_digest(), 5707665513968689597ULL);
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
