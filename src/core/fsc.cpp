#include "core/fsc.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>
#include <string>

namespace wlgen::core {

const std::vector<std::size_t> CreatedFileSystem::kEmptyPool = {};

std::string CreatedFileSystem::system_dir() { return "/system"; }

std::string CreatedFileSystem::user_dir(std::size_t user) {
  return "/users/u" + std::to_string(user);
}

void CreatedFileSystem::add_file(CreatedFile file) {
  const std::size_t index = files_.size();
  const PoolKey key{file.category.index(), file.owner_user};
  files_.push_back(std::move(file));
  pools_[key].push_back(index);
}

const std::vector<std::size_t>& CreatedFileSystem::pool(const FileCategory& category,
                                                        std::size_t user) const {
  const std::size_t owner =
      category.owner == FileOwner::user ? user : CreatedFile::kSystemOwner;
  const auto it = pools_.find(PoolKey{category.index(), owner});
  return it == pools_.end() ? kEmptyPool : it->second;
}

namespace {

std::uint64_t sample_size(const FileCategoryProfile& profile, util::RngStream& rng) {
  if (!profile.size_dist) throw std::invalid_argument("FileSystemCreator: profile missing size dist");
  const double v = profile.size_dist->sample(rng);
  return static_cast<std::uint64_t>(std::max(1.0, std::llround(v) * 1.0));
}

std::string category_file_name(const FileCategory& category, std::size_t ordinal) {
  std::string name = category.label();
  for (auto& c : name) {
    c = c == '/' || c == '-' ? '_' : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  name += '_';
  name += std::to_string(ordinal);
  return name;
}

/// Throws unless `status` is ok; `what` names the call, and is only built
/// on failure.
template <typename What>
void require_ok(fs::FsStatus status, const What& what) {
  if (status != fs::FsStatus::ok) {
    throw std::runtime_error("FileSystemCreator: " + std::string(what()) + " failed: " +
                             fs::to_string(status));
  }
}

void create_regular(fs::SimulatedFileSystem& fsys, CreatedFileSystem& out,
                    const FileCategoryProfile& profile, const std::string& dir,
                    std::size_t owner_user, std::size_t ordinal, util::RngStream& rng) {
  std::string path = dir + "/" + category_file_name(profile.category, ordinal);
  const std::uint64_t size = sample_size(profile, rng);
  const auto fd = fsys.creat(path);
  require_ok(fd.status(), [&] { return "creat(" + path + ")"; });
  const auto wrote = fsys.write(fd.value(), size);
  require_ok(wrote.status(), [&] { return "populate(" + path + ")"; });
  const fs::InodeId inode = fsys.fstat(fd.value()).value().inode;
  require_ok(fsys.close(fd.value()), [&] { return "close(" + path + ")"; });

  CreatedFile file;
  file.path = std::move(path);
  file.category = profile.category;
  file.size = size;
  file.owner_user = owner_user;
  file.inode = inode;
  out.add_file(std::move(file));
}

void make_dir(fs::SimulatedFileSystem& fsys, const std::string& dir) {
  require_ok(fsys.mkdir_recursive(dir), [&] { return "mkdir " + dir; });
}

/// The regular-file profiles with `owner`.  Directory-category profiles are
/// realised by the layout's real directories, whose sizes emerge from their
/// entry counts (see fs::SimulatedFileSystem).
std::vector<const FileCategoryProfile*> regular_profiles(
    const std::vector<FileCategoryProfile>& profiles, FileOwner owner) {
  std::vector<const FileCategoryProfile*> out;
  for (const auto& p : profiles) {
    if (p.category.file_type == FileType::regular && p.category.owner == owner) out.push_back(&p);
  }
  return out;
}

/// `count` files of `profiles`, picked by their fractions and scattered over
/// `dirs`, drawn from `rng`.
void create_files(fs::SimulatedFileSystem& fsys, CreatedFileSystem& out,
                  const std::vector<const FileCategoryProfile*>& profiles,
                  const std::vector<std::string>& dirs, std::size_t count, std::size_t owner_user,
                  util::RngStream& rng) {
  if (profiles.empty() || dirs.empty()) return;
  std::vector<double> weights;
  for (const auto* p : profiles) weights.push_back(std::max(p->fraction_of_files, 1e-9));
  std::vector<std::size_t> ordinal(profiles.size(), 0);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t pick = rng.categorical(weights);
    const auto& dir = dirs[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(dirs.size()) - 1))];
    create_regular(fsys, out, *profiles[pick], dir, owner_user, ordinal[pick]++, rng);
  }
}

}  // namespace

SystemTree::SystemTree(const FscConfig& config, std::vector<FileCategoryProfile> profiles)
    : config_(config), profiles_(std::move(profiles)) {
  // The shared system tree draws from its own stream ("fsc/system") and
  // every user tree from another ("fsc/user/<k>"), so building users
  // [first_user, first_user + num_users) on a copy of this tree yields
  // bit-identical trees to a full build — the FSC side of the runner's
  // deterministic user partitioning.
  util::RngStream system_rng(config_.seed, "fsc/system");
  make_dir(fsys_, CreatedFileSystem::system_dir());
  make_dir(fsys_, "/users");

  const auto notes_profiles = regular_profiles(profiles_, FileOwner::notes);
  const auto other_profiles = regular_profiles(profiles_, FileOwner::other);

  // System subtrees: the NOTES and OTHER categories each get half of the
  // configured system subdirectories (at least one apiece).
  const std::size_t notes_dirs = std::max<std::size_t>(1, config_.system_subdirs / 2);
  const std::size_t other_dirs =
      std::max<std::size_t>(1, config_.system_subdirs - notes_dirs);
  std::vector<std::string> notes_paths, other_paths;
  for (std::size_t i = 0; i < notes_dirs; ++i) {
    notes_paths.push_back(CreatedFileSystem::system_dir() + "/notes" + std::to_string(i));
    make_dir(fsys_, notes_paths.back());
  }
  for (std::size_t i = 0; i < other_dirs; ++i) {
    other_paths.push_back(CreatedFileSystem::system_dir() + "/other" + std::to_string(i));
    make_dir(fsys_, other_paths.back());
  }
  dirs_ = notes_paths;
  dirs_.insert(dirs_.end(), other_paths.begin(), other_paths.end());

  // Split the system file budget by the relative NOTES/OTHER fractions.
  double notes_frac = 0.0, other_frac = 0.0;
  for (const auto* p : notes_profiles) notes_frac += p->fraction_of_files;
  for (const auto* p : other_profiles) other_frac += p->fraction_of_files;
  const double system_total = std::max(notes_frac + other_frac, 1e-9);
  const std::size_t notes_count = static_cast<std::size_t>(
      std::llround(static_cast<double>(config_.system_files) * notes_frac / system_total));
  create_files(fsys_, manifest_, notes_profiles, notes_paths, notes_count,
               CreatedFile::kSystemOwner, system_rng);
  create_files(fsys_, manifest_, other_profiles, other_paths, config_.system_files - notes_count,
               CreatedFile::kSystemOwner, system_rng);
}

bool SystemTree::matches(const FscConfig& config,
                         const std::vector<FileCategoryProfile>& profiles) const {
  const auto same = [](const FileCategoryProfile& a, const FileCategoryProfile& b) {
    return a.category == b.category && a.size_dist == b.size_dist &&
           a.fraction_of_files == b.fraction_of_files;
  };
  return config.seed == config_.seed && config.system_files == config_.system_files &&
         config.system_subdirs == config_.system_subdirs &&
         std::equal(profiles.begin(), profiles.end(), profiles_.begin(), profiles_.end(), same);
}

FileSystemCreator::FileSystemCreator(fs::SimulatedFileSystem& fsys,
                                     std::vector<FileCategoryProfile> profiles, FscConfig config)
    : fsys_(fsys), profiles_(std::move(profiles)), config_(config) {
  if (profiles_.empty()) throw std::invalid_argument("FileSystemCreator: no category profiles");
  if (config_.num_users == 0) throw std::invalid_argument("FileSystemCreator: need >= 1 user");
}

CreatedFileSystem FileSystemCreator::create() {
  return create(SystemTree(config_, profiles_));
}

CreatedFileSystem FileSystemCreator::create(const SystemTree& tree) {
  if (!tree.matches(config_, profiles_)) {
    throw std::invalid_argument(
        "FileSystemCreator: the system tree was built for another seed or layout");
  }
  fsys_.copy_from(tree.fsys_);
  CreatedFileSystem out = tree.manifest_;
  out.set_user_count(config_.first_user + config_.num_users);

  // Per-user home + subdirectories and files, each user from a private
  // stream keyed by the *global* user index.
  const auto user_profiles = regular_profiles(profiles_, FileOwner::user);
  const std::size_t user_end = config_.first_user + config_.num_users;
  for (std::size_t user = config_.first_user; user < user_end; ++user) {
    util::RngStream user_rng(config_.seed, "fsc/user/" + std::to_string(user));
    const std::string home = CreatedFileSystem::user_dir(user);
    make_dir(fsys_, home);
    std::vector<std::string> dirs = {home};
    for (std::size_t i = 0; i < config_.user_subdirs; ++i) {
      dirs.push_back(home + "/d" + std::to_string(i));
      make_dir(fsys_, dirs.back());
    }
    create_files(fsys_, out, user_profiles, dirs, config_.files_per_user, user, user_rng);
  }

  // Register the real directories under their DIR categories so the USIM can
  // reference them: the user's own directories (DIR/USER) and the system and
  // users directories (DIR/OTHER).
  const auto add_dir = [&](const std::string& path, FileOwner owner, std::size_t owner_user) {
    const auto st = fsys_.stat(path);
    if (!st.ok()) return;
    CreatedFile file;
    file.path = path;
    file.category = FileCategory{FileType::directory, owner, UseMode::read_only};
    file.size = st.value().size;
    file.inode = st.value().inode;
    file.owner_user = owner_user;
    out.add_file(std::move(file));
  };
  add_dir(CreatedFileSystem::system_dir(), FileOwner::other, CreatedFile::kSystemOwner);
  add_dir("/users", FileOwner::other, CreatedFile::kSystemOwner);
  for (const auto& dir : tree.dirs_) add_dir(dir, FileOwner::other, CreatedFile::kSystemOwner);
  for (std::size_t user = config_.first_user; user < user_end; ++user) {
    add_dir(CreatedFileSystem::user_dir(user), FileOwner::user, user);
    for (std::size_t i = 0; i < config_.user_subdirs; ++i) {
      add_dir(CreatedFileSystem::user_dir(user) + "/d" + std::to_string(i), FileOwner::user,
              user);
    }
  }
  return out;
}

}  // namespace wlgen::core
