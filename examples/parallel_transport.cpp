// Parallel transport: the array's signature trick — many cells moving at
// once. Traps a 3x3 block of cells, then executes two collective maneuvers
// (a convoy shift and a block rotation) with collision-free multi-cage
// routing and full particle dynamics at every actuation step (an open-loop
// `ClosedLoopTransporter` episode behind `LabOnChipPlatform::move_cells`).
//
// Run:  ./parallel_transport

#include <iostream>

#include "cell/library.hpp"
#include "common/table.hpp"
#include "core/platform.hpp"

using namespace biochip;

int main() {
  core::PlatformConfig config = core::PlatformConfig::paper_defaults();
  config.device.cols = 48;
  config.device.rows = 48;
  config.seed = 77;
  core::LabOnChipPlatform lab(config);

  // Nine cells pre-positioned on a 3x3 block (4-pitch spacing).
  lab.load_sample({{cell::viable_lymphocyte(), 9, 0.0}});
  std::vector<int> cages;
  for (std::size_t i = 0; i < 9; ++i) {
    lab.bodies()[i].position = {(12.0 + 6.0 * static_cast<double>(i % 3)) * 20e-6,
                                (14.0 + 6.0 * static_cast<double>(i / 3)) * 20e-6, 6e-6};
    const auto cage = lab.trap_cell(static_cast<int>(i));
    if (!cage) {
      std::cerr << "failed to trap cell " << i << "\n";
      return 1;
    }
    cages.push_back(*cage);
  }
  std::cout << "Trapped " << cages.size() << " cells on a 3x3 block.\n";

  Table t({"maneuver", "cages", "ticks", "delivered", "time [s]", "all retained"});

  // Maneuver 1: convoy — the whole block shifts 15 pitches east together.
  {
    std::vector<control::CageGoal> goals;
    for (int id : cages) {
      const GridCoord s = lab.cages().site(id);
      goals.push_back({id, {s.col + 15, s.row}});
    }
    const control::EpisodeReport r = lab.move_cells(goals);
    t.row()
        .cell("convoy +15 east")
        .cell(static_cast<int>(goals.size()))
        .cell(r.ticks)
        .cell(static_cast<int>(r.delivered_ids.size()))
        .cell(r.elapsed, 1)
        .cell(r.success ? "yes" : (r.planned ? "LOST" : "PLAN FAILED"));
  }

  // Maneuver 2: rotate the block 180° — every cage swaps with its opposite,
  // maximal crossing traffic through the block center.
  {
    std::vector<GridCoord> sites;
    for (int id : cages) sites.push_back(lab.cages().site(id));
    std::vector<control::CageGoal> goals;
    for (std::size_t i = 0; i < cages.size(); ++i)
      goals.push_back({cages[i], sites[cages.size() - 1 - i]});
    const control::EpisodeReport r = lab.move_cells(goals);
    t.row()
        .cell("block rotation 180deg")
        .cell(static_cast<int>(goals.size()))
        .cell(r.ticks)
        .cell(static_cast<int>(r.delivered_ids.size()))
        .cell(r.elapsed, 1)
        .cell(r.success ? "yes" : (r.planned ? "LOST" : "PLAN FAILED"));
  }
  t.print(std::cout);

  std::cout << "\nEvery step was validated twice: by the router's reservation\n"
               "table at planning time and by the cage controller + overdamped\n"
               "particle dynamics at execution time. One actuation step moves all\n"
               "nine cages simultaneously — scale this to the full 320x320 array\n"
               "and ~25,000 cages march in the same "
            << lab.site_period() << " s step (claim C1 + C3).\n";
  return 0;
}
