// Recycled std::list nodes for per-message objects.
//
// Requests and queue entries live in std::lists because their addresses
// must stay fixed and a stored iterator must remove them in O(1). Freeing
// the node when the message completes costs a heap round trip per message;
// these helpers instead splice released nodes onto a spare list and splice
// them back on the next use. splice relinks nodes without touching the
// objects, so every iterator into either list stays valid. A spare list only
// grows to the peak number of live nodes and is capped at kSpareNodes.
#pragma once

#include <cstddef>
#include <iterator>
#include <list>
#include <utility>

namespace nmx {

/// Most released nodes a spare list keeps; beyond that they are freed.
inline constexpr std::size_t kSpareNodes = 4096;

/// Append a node to `to`, reusing one from `spare` when there is one. The
/// node is assigned `v`.
template <class T>
typename std::list<T>::iterator push_back_recycled(std::list<T>& to, std::list<T>& spare, T v) {
  if (spare.empty()) {
    to.push_back(std::move(v));
  } else {
    to.splice(to.end(), spare, spare.begin());
    to.back() = std::move(v);
  }
  return std::prev(to.end());
}

/// Move node `it` of `from` to `spare` (or free it when `spare` is full).
/// The object is left as it is; the next user assigns over it.
template <class T>
void recycle(std::list<T>& from, typename std::list<T>::iterator it, std::list<T>& spare) {
  if (spare.size() < kSpareNodes) {
    spare.splice(spare.begin(), from, it);
  } else {
    from.erase(it);
  }
}

/// Live objects with stable addresses, whose released nodes are reused.
template <class T>
class NodePool {
 public:
  using iterator = typename std::list<T>::iterator;

  /// A node at the back of the live list: a recycled one, still holding its
  /// last user's state for the caller to overwrite, or a new one.
  iterator acquire() {
    if (spare_.empty()) {
      live_.emplace_back();
    } else {
      live_.splice(live_.end(), spare_, spare_.begin());
    }
    return std::prev(live_.end());
  }
  void release(iterator it) { recycle(live_, it, spare_); }

  std::size_t size() const { return live_.size(); }

 private:
  std::list<T> live_;
  std::list<T> spare_;
};

}  // namespace nmx
