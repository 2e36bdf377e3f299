#include "fs/path.h"

namespace wlgen::fs {

namespace {

/// The component starting at or after `pos` (past any '/'); empty at the end.
std::string_view next_piece(std::string_view path, std::size_t& pos) {
  while (pos < path.size() && path[pos] == '/') ++pos;
  const std::size_t start = pos;
  while (pos < path.size() && path[pos] != '/') ++pos;
  return path.substr(start, pos - start);
}

}  // namespace

PathWalker::PathWalker(std::string_view path)
    : path_(is_absolute(path) ? path : std::string_view{}),
      dots_(path_.find("..") != std::string_view::npos) {}

bool PathWalker::next(std::string_view& component) {
  for (;;) {
    const std::string_view piece = next_piece(path_, pos_);
    if (piece.empty()) return false;
    if (piece == "." || piece == "..") continue;
    if (dots_ && cancelled(pos_)) continue;
    component = piece;
    return true;
  }
}

bool PathWalker::cancelled(std::size_t from) const {
  // The components after `from` stack above this one; the first ".." that
  // finds nothing above it pops this one.
  std::size_t above = 0;
  for (std::string_view piece = next_piece(path_, from); !piece.empty();
       piece = next_piece(path_, from)) {
    if (piece == "..") {
      if (above == 0) return true;
      --above;
    } else if (piece != ".") {
      ++above;
    }
  }
  return false;
}

}  // namespace wlgen::fs
