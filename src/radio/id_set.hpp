// An ordered set of node ids for the active-set engine (DESIGN.md §12).
//
// One bit per id, plus one summary bit per 64-id word, so draining the
// set releases its members in ascending id without a sort: the drain
// reads n/4096 summary words and then only the words that hold members.
// The wake calendar orders each round's wakers through one, and the
// transmitter-driven resolver orders the listeners it touched.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace dsn {

class IdSet {
 public:
  /// Makes ids below `n` insertable. Never shrinks and keeps the
  /// members; allocates only when `n` passes every earlier bound, so
  /// inserts and drains never do.
  void grow(std::size_t n) {
    const std::size_t words = (n + 63) / 64;
    if (words <= words_.size()) return;
    words_.resize(words, 0);
    summary_.resize((words + 63) / 64, 0);
  }

  /// Ids below this bound are insertable.
  std::size_t capacity() const { return words_.size() * 64; }

  /// Adds `v`, which must be below capacity(); false when it was
  /// already a member.
  bool insert(NodeId v) {
    const std::size_t word = v / 64;
    const std::uint64_t bit = std::uint64_t{1} << (v % 64);
    if (words_[word] & bit) return false;
    words_[word] |= bit;
    summary_[word / 64] |= std::uint64_t{1} << (word % 64);
    return true;
  }

  /// Calls `visit(v)` for every member in ascending id and leaves the set
  /// empty. `visit` must not insert.
  template <typename Visit>
  void drain(Visit&& visit) {
    for (std::size_t s = 0; s < summary_.size(); ++s) {
      std::uint64_t occupied = summary_[s];
      if (occupied == 0) continue;
      summary_[s] = 0;
      while (occupied != 0) {
        const std::size_t word =
            s * 64 + static_cast<std::size_t>(std::countr_zero(occupied));
        occupied &= occupied - 1;
        std::uint64_t bits = words_[word];
        words_[word] = 0;
        while (bits != 0) {
          visit(static_cast<NodeId>(
              word * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
          bits &= bits - 1;
        }
      }
    }
  }

 private:
  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> summary_;
};

}  // namespace dsn
