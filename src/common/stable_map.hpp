// StableMap: an insert-only hash map whose elements never move, for the hot
// lookup tables that are keyed by a small pair and never erase (the nmad
// (peer, tag) channel table, the strategies' (rail, dst) queues).
//
// Two parts:
//  * element storage in fixed-size blocks: a block's capacity is reserved up
//    front and never exceeded, so an element's address is fixed for the
//    map's lifetime, and a T& stays valid while later inserts grow the map;
//  * an open-addressing index of inline (key, slot) cells, probed linearly
//    from a Fibonacci hash of the key and rehashed at 3/4 load. Growth
//    rebuilds only this index; a lookup is one probe run over contiguous
//    cells, with no node chasing.
//
// Nothing is allocated until the first insert. for_each visits elements in
// insertion order, so iteration is deterministic whatever the hash.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nmx {

/// `Hash` maps a Key to 64 bits; the map spreads them over its cells
/// itself, so a cheap combine of the key's fields is enough.
template <class Key, class T, class Hash>
class StableMap {
 public:
  /// The element for `key`, or nullptr when it was never inserted.
  T* find(const Key& key) {
    if (cells_.empty()) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & (cells_.size() - 1)) {
      const Cell& c = cells_[i];
      if (c.slot == kEmpty) return nullptr;
      if (c.key == key) return &node(c.slot).value;
    }
  }

  /// The element for `key`, value-initialised on first use.
  T& operator[](const Key& key) {
    if (T* v = find(key)) return *v;
    if (4 * (size_ + 1) > 3 * cells_.size()) grow();
    if (size_ % kBlock == 0) {
      blocks_.emplace_back();
      blocks_.back().reserve(kBlock);
    }
    blocks_.back().push_back(Node{key, T{}});
    place(key, static_cast<std::uint32_t>(size_++));
    return blocks_.back().back().value;
  }

  /// f(key, value) for every element, in insertion order.
  template <class F>
  void for_each(F&& f) const {
    for (const auto& block : blocks_) {
      for (const Node& n : block) f(n.key, n.value);
    }
  }

 private:
  static constexpr std::size_t kBlock = 8;
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  struct Node {
    Key key;
    T value;
  };
  struct Cell {
    Key key{};
    std::uint32_t slot = kEmpty;
  };

  Node& node(std::uint32_t slot) { return blocks_[slot / kBlock][slot % kBlock]; }

  std::size_t home(const Key& key) const {
    return static_cast<std::size_t>((Hash{}(key) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  /// Record `slot` in the first free cell of `key`'s probe run.
  void place(const Key& key, std::uint32_t slot) {
    std::size_t i = home(key);
    while (cells_[i].slot != kEmpty) i = (i + 1) & (cells_.size() - 1);
    cells_[i] = Cell{key, slot};
  }

  void grow() {
    const std::size_t cap = cells_.empty() ? 8 : 2 * cells_.size();
    cells_.assign(cap, Cell{});
    shift_ = 64;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
    for (std::uint32_t s = 0; s < size_; ++s) place(node(s).key, s);
  }

  std::vector<std::vector<Node>> blocks_;  ///< kBlock-capacity, never reallocated
  std::vector<Cell> cells_;                ///< power-of-two size, at most 3/4 full
  unsigned shift_ = 64;                    ///< 64 - log2(cells_.size())
  std::size_t size_ = 0;
};

}  // namespace nmx
