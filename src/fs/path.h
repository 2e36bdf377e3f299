#pragma once

#include <cstddef>
#include <string_view>

namespace wlgen::fs {

/// Walks the components of an absolute path in order without allocating,
/// resolving "." and ".." lexically: "/a/./b/../c" yields "a" then "c".  A
/// component that a later ".." cancels is skipped, and ".." above the root
/// clamps at the root, as POSIX does.  A relative or empty path yields
/// nothing (is_absolute tells the two apart from "/").
class PathWalker {
 public:
  explicit PathWalker(std::string_view path);

  /// Sets `component` to the next surviving component; false at the end.
  bool next(std::string_view& component);

 private:
  /// True when a ".." after position `from` cancels the component ending there.
  bool cancelled(std::size_t from) const;

  std::string_view path_;
  std::size_t pos_ = 0;
  bool dots_ = false;  ///< the path may hold a ".." component
};

/// True for a non-empty path that starts with '/'.
inline bool is_absolute(std::string_view path) { return !path.empty() && path.front() == '/'; }

}  // namespace wlgen::fs
