#include "core/remap.hpp"

#include <algorithm>

#include "core/costs.hpp"

namespace chaos::core {

namespace {

/// Shared back half of remap planning: group this rank's elements by their
/// destination (walking ascending old offset), exchange the placement
/// lists, and assemble blocks. `homes[i]` is the new Home of
/// my_old_globals[i].
Schedule assemble_remap_schedule(sim::Comm& comm,
                                 std::span<const GlobalIndex> my_old_globals,
                                 std::span<const Home> homes) {
  const int P = comm.size();
  const int me = comm.rank();

  std::vector<ScheduleBlock> send_blocks;
  std::vector<ScheduleBlock> recv_blocks;

  // Group my outgoing elements by destination; ship the *new offsets* so
  // each destination can build its placement list. A Home of {-1,-1} marks
  // an element deleted in the new epoch: its data is simply dropped.
  std::vector<std::vector<GlobalIndex>> old_positions(static_cast<size_t>(P));
  std::vector<std::vector<GlobalIndex>> new_offsets(static_cast<size_t>(P));
  for (std::size_t i = 0; i < my_old_globals.size(); ++i) {
    const Home& h = homes[i];
    if (h.proc < 0) continue;
    old_positions[static_cast<size_t>(h.proc)].push_back(
        static_cast<GlobalIndex>(i));
    new_offsets[static_cast<size_t>(h.proc)].push_back(h.offset);
  }

  std::vector<std::vector<GlobalIndex>> incoming_offsets =
      comm.alltoallv(new_offsets);

  for (int r = 0; r < P; ++r) {
    auto& old_pos = old_positions[static_cast<size_t>(r)];
    if (r == me) {
      // Self-block: aligned (send position k pairs with recv position k).
      if (!old_pos.empty()) {
        send_blocks.push_back(ScheduleBlock{me, std::move(old_pos)});
        recv_blocks.push_back(ScheduleBlock{
            me, std::move(new_offsets[static_cast<size_t>(me)])});
      }
      continue;
    }
    if (!old_pos.empty())
      send_blocks.push_back(ScheduleBlock{r, std::move(old_pos)});
    if (!incoming_offsets[static_cast<size_t>(r)].empty())
      recv_blocks.push_back(ScheduleBlock{
          r, std::move(incoming_offsets[static_cast<size_t>(r)])});
  }
  return Schedule(std::move(send_blocks), std::move(recv_blocks));
}

}  // namespace

Schedule build_remap_schedule(sim::Comm& comm,
                              std::span<const GlobalIndex> my_old_globals,
                              const TranslationTable& new_table) {
  // Where does each of my elements go under the new distribution? An
  // element beyond the new universe was deleted by a shrinking epoch —
  // its Home stays {-1,-1} and assemble drops it. (In-range tombstones
  // come back from lookup as {-1,-1} already.)
  std::vector<GlobalIndex> in_range;
  in_range.reserve(my_old_globals.size());
  for (GlobalIndex g : my_old_globals)
    if (g < new_table.global_size()) in_range.push_back(g);
  const std::vector<Home> in_range_homes = new_table.lookup(comm, in_range);

  std::vector<Home> homes(my_old_globals.size());
  std::size_t k = 0;
  for (std::size_t i = 0; i < my_old_globals.size(); ++i)
    if (my_old_globals[i] < new_table.global_size())
      homes[i] = in_range_homes[k++];
  comm.charge_work(static_cast<double>(my_old_globals.size()) * 2.0);
  return assemble_remap_schedule(comm, my_old_globals, homes);
}

Schedule build_remap_schedule_delta(sim::Comm& comm,
                                    std::span<const GlobalIndex> my_old_globals,
                                    const TranslationTable& new_table,
                                    const OwnerDelta& delta) {
  const int me = comm.rank();

  // Batch-translate only the elements that moved away; every rank calls
  // lookup together (possibly with an empty batch). Deleted elements need
  // no translation — their data is dropped (Home{-1,-1}); owner_moved
  // covers only live->live moves.
  std::vector<GlobalIndex> moved;
  for (GlobalIndex g : my_old_globals)
    if (delta.owner_moved(g)) moved.push_back(g);
  const std::vector<Home> moved_homes = new_table.lookup(comm, moved);

  // Elements arriving here (moved in or born here), ascending. My live
  // owned set in the new epoch is the surviving old owned elements plus
  // these, and a surviving element's new offset is its position in that
  // ascending set (the offset convention over live elements). Old owned
  // globals ascend with their offsets, so one merge walk finds every
  // position.
  std::vector<GlobalIndex> arriving;
  for (const OwnerDelta::Move& m : delta.moves())
    if (m.to == me) arriving.push_back(m.global);
  const auto born_from = static_cast<std::ptrdiff_t>(arriving.size());
  for (const OwnerDelta::Move& b : delta.born())
    if (b.to == me) arriving.push_back(b.global);
  std::inplace_merge(arriving.begin(), arriving.begin() + born_from,
                     arriving.end());

  std::vector<Home> homes(my_old_globals.size());
  std::size_t mvi = 0, below = 0;
  GlobalIndex stayed = 0;
  for (std::size_t i = 0; i < my_old_globals.size(); ++i) {
    const GlobalIndex g = my_old_globals[i];
    CHAOS_ASSERT(i == 0 || my_old_globals[i - 1] < g,
                 "owned globals must ascend with their offsets");
    if (delta.deleted(g)) {
      homes[i] = Home{};
    } else if (delta.owner_moved(g)) {
      homes[i] = moved_homes[mvi++];
    } else {
      while (below < arriving.size() && arriving[below] < g) ++below;
      homes[i] = Home{me, stayed++ + static_cast<GlobalIndex>(below)};
    }
  }
  comm.charge_work(static_cast<double>(my_old_globals.size()) *
                       (2.0 * costs::kDeltaScan) +
                   static_cast<double>(moved.size()) * costs::kPatchMove);
  return assemble_remap_schedule(comm, my_old_globals, homes);
}

}  // namespace chaos::core
