#include "core/elastic.hpp"

#include "group/dynamic.hpp"
#include "mpi/message.hpp"
#include "util/assert.hpp"

namespace gcr::core {

TrafficMatrix::TrafficMatrix(int nranks)
    : sent_(static_cast<std::size_t>(nranks)) {
  GCR_CHECK(nranks > 0);
}

void TrafficMatrix::on_send(const mpi::Rank& rank, const mpi::Message& msg,
                            bool transmitted) {
  (void)rank;
  (void)transmitted;
  const int n = nranks();
  if (msg.src < 0 || msg.src >= n || msg.dst < 0 || msg.dst >= n) return;
  ++sent_[static_cast<std::size_t>(msg.src)].at(msg.dst);
}

std::uint64_t TrafficMatrix::pair_count(mpi::RankId a, mpi::RankId b) const {
  return sent_by(a).get(b) + sent_by(b).get(a);
}

RegroupPlanner::RegroupPlanner(const TrafficMatrix* traffic)
    : traffic_(traffic) {
  GCR_CHECK(traffic != nullptr);
}

std::optional<int> RegroupPlanner::choose_merge_target(
    mpi::RankId rank, const group::GroupSet& gs, int max_group_size) const {
  const int nranks = traffic_->nranks();
  GCR_CHECK(gs.nranks() == nranks);
  const int from = gs.group_of(rank);

  // The rank's transitive communication component under dynamic grouping.
  // Union order does not matter: the partition is the same either way.
  group::DynamicGrouper dyn(nranks);
  for (int a = 0; a < nranks; ++a) {
    for (const auto& [b, count] : traffic_->sent_by(a)) dyn.on_message(a, b);
  }
  const group::GroupSet dyn_groups = dyn.current();
  const int component = dyn_groups.group_of(rank);

  int best = -1;
  std::uint64_t best_direct = 0;
  std::size_t best_overlap = 0;
  for (int g = 0; g < gs.num_groups(); ++g) {
    if (g == from) continue;
    const auto& members = gs.members(g);
    if (max_group_size > 0 &&
        static_cast<int>(members.size()) + 1 > max_group_size) {
      continue;
    }
    std::uint64_t direct = 0;
    std::size_t overlap = 0;
    for (mpi::RankId m : members) {
      direct += traffic_->pair_count(rank, m);
      if (dyn_groups.group_of(m) == component) ++overlap;
    }
    if (direct == 0 && overlap == 0) continue;
    // Lexicographic (direct, overlap) preference; strict > keeps the
    // lowest-index winner on ties.
    if (best < 0 || direct > best_direct ||
        (direct == best_direct && overlap > best_overlap)) {
      best = g;
      best_direct = direct;
      best_overlap = overlap;
    }
  }
  if (best < 0) return std::nullopt;
  return best;
}

}  // namespace gcr::core
