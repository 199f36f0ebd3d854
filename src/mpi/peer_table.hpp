// Per-peer state sized to the traffic (DESIGN.md §4): (peer, record) pairs
// in ascending peer order for the peers a rank actually talked to, found by
// binary search (no hashing, so iteration follows an index loop over a
// dense length-n vector). An absent peer reads as a zero record.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "mpi/message.hpp"

namespace gcr::mpi {

template <class Record>
class PeerTable {
 public:
  using Entry = std::pair<RankId, Record>;

  /// The peer's record, or a zero record when the peer is absent. The
  /// reference is invalidated by the next insertion.
  const Record& get(RankId peer) const {
    static const Record kZero{};
    const auto it = lower(entries_, peer);
    return it != entries_.end() && it->first == peer ? it->second : kZero;
  }

  /// The peer's record, or nullptr when the peer is absent.
  Record* find(RankId peer) {
    const auto it = lower(entries_, peer);
    return it != entries_.end() && it->first == peer ? &it->second : nullptr;
  }

  /// The peer's record, inserting a zero record when the peer is absent.
  Record& at(RankId peer) {
    auto it = lower(entries_, peer);
    if (it == entries_.end() || it->first != peer) {
      it = entries_.insert(it, Entry{peer, Record{}});
    }
    return it->second;
  }

  /// Removes the peer's record, if any.
  void erase(RankId peer) {
    const auto it = lower(entries_, peer);
    if (it != entries_.end() && it->first == peer) entries_.erase(it);
  }

  void clear() { entries_.clear(); }
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

 private:
  // Branch-free binary search: the runtime looks peers up on every hop.
  template <class Vec>
  static auto lower(Vec& entries, RankId peer) {
    auto first = entries.begin();
    for (auto len = entries.size(); len > 0;) {
      const auto half = len / 2;
      const bool right = first[static_cast<std::ptrdiff_t>(half)].first < peer;
      first += right ? static_cast<std::ptrdiff_t>(half + 1) : 0;
      len = right ? len - half - 1 : half;
    }
    return first;
  }

  std::vector<Entry> entries_;
};

}  // namespace gcr::mpi
