#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/workload.h"
#include "fs/filesystem.h"
#include "util/rng.h"

namespace wlgen::core {

/// One file created by the FSC.
struct CreatedFile {
  std::string path;
  FileCategory category;
  std::uint64_t size = 0;
  fs::InodeId inode = 0;
  std::size_t owner_user = kSystemOwner;  ///< owning user index; kSystemOwner for shared files

  static constexpr std::size_t kSystemOwner = static_cast<std::size_t>(-1);
};

/// The manifest of the file system the FSC built: every created file plus
/// per-category lookup pools the USIM selects from.  "In this new file
/// system, only those files which may be accessed need to be created"
/// (paper section 4.1).
class CreatedFileSystem {
 public:
  /// Root directories used by the layout.
  static std::string system_dir();                 ///< "/system"
  static std::string user_dir(std::size_t user);   ///< "/users/u<k>"

  /// All created files.
  const std::vector<CreatedFile>& files() const { return files_; }

  /// Indices (into files()) of the files user `user` may pick from for
  /// `category`: the user's own files for USER-owned categories, the shared
  /// system pool for NOTES/OTHER.  May be empty (the USIM then creates).
  const std::vector<std::size_t>& pool(const FileCategory& category, std::size_t user) const;

  std::size_t file_count() const { return files_.size(); }

  /// Number of users the layout was built for.
  std::size_t user_count() const { return user_count_; }

  /// Registers a file (used by FileSystemCreator and by tests).
  void add_file(CreatedFile file);

  void set_user_count(std::size_t users) { user_count_ = users; }

 private:
  using PoolKey = std::pair<std::size_t, std::size_t>;  // (category index, user or system)

  std::vector<CreatedFile> files_;
  std::map<PoolKey, std::vector<std::size_t>> pools_;
  std::size_t user_count_ = 0;
  static const std::vector<std::size_t> kEmptyPool;
};

/// Configuration of the initial file system build.
struct FscConfig {
  std::size_t num_users = 1;
  /// Global index of the first user to lay out: the build covers users
  /// [first_user, first_user + num_users).  File sizes draw from per-user
  /// RNG streams derived from the seed, so a range build produces exactly
  /// the trees a full build would give those users — the property the
  /// sharded runner's deterministic partitioning rests on (see DESIGN.md).
  std::size_t first_user = 0;
  /// Total regular files created per user (split across the USER-owned
  /// categories by their Table 5.1 fractions and scattered over the user's
  /// subdirectories).
  std::size_t files_per_user = 64;
  /// Total files in the shared /system tree (NOTES + OTHER categories).
  std::size_t system_files = 256;
  /// Subdirectories under each user's home (plus the home itself); gives the
  /// DIR/USER category a realistic pool and keeps directory sizes in the
  /// Table 5.1 regime (~800 B).
  std::size_t user_subdirs = 4;
  /// Subdirectories under /system for the NOTES and OTHER trees (half each).
  std::size_t system_subdirs = 4;
  std::uint64_t seed = 1991;
};

/// The shared part of an FSC layout: the /system tree (its NOTES and OTHER
/// files, from the "fsc/system" stream) and the empty /users directory,
/// with the system files' manifest entries.  It depends only on the seed,
/// system_files, system_subdirs and the profiles, so every universe of a
/// run copies one tree instead of rebuilding it (see DESIGN.md "Logical
/// file system and the FSC layout").  Built on a fresh file system with no
/// clock: its timestamps read 0, the time an FSC layout is built at.
class SystemTree {
 public:
  /// Builds the tree.  Throws like FileSystemCreator::create.
  SystemTree(const FscConfig& config, std::vector<FileCategoryProfile> profiles);

  /// True when this is the tree `config` and `profiles` lay out: the same
  /// seed, system_files and system_subdirs, and the same profiles
  /// (distributions compared by identity).
  bool matches(const FscConfig& config, const std::vector<FileCategoryProfile>& profiles) const;

 private:
  friend class FileSystemCreator;

  FscConfig config_;  ///< seed, system_files and system_subdirs are the key
  std::vector<FileCategoryProfile> profiles_;
  fs::SimulatedFileSystem fsys_;
  CreatedFileSystem manifest_;     ///< the system files
  std::vector<std::string> dirs_;  ///< the NOTES then the OTHER subdirectories
};

/// The paper's File System Creator: "builds a new file system according to
/// the file distributions for each file category ... we create a directory
/// for system files, and several directories, one for each virtual user"
/// (section 4.1.2).  A layout is a copy of a SystemTree plus the users'
/// trees, laid out on a new file system.
class FileSystemCreator {
 public:
  FileSystemCreator(fs::SimulatedFileSystem& fsys, std::vector<FileCategoryProfile> profiles,
                    FscConfig config);

  /// Builds the layout's SystemTree, then lays out from it; returns the
  /// manifest.  Throws std::runtime_error if the substrate rejects an
  /// operation, which no valid configuration causes.
  CreatedFileSystem create();

  /// Replaces the file system's contents with a copy of `tree` (its clock
  /// stays), then builds the users [first_user, first_user + num_users);
  /// returns the manifest.
  /// Throws std::invalid_argument unless `tree` matches this creator's
  /// config and profiles, and like create() otherwise.
  CreatedFileSystem create(const SystemTree& tree);

  const FscConfig& config() const { return config_; }

 private:
  fs::SimulatedFileSystem& fsys_;
  std::vector<FileCategoryProfile> profiles_;
  FscConfig config_;
};

}  // namespace wlgen::core
