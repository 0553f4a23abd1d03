// Tests for the core simulation engine and the LabOnChipPlatform facade.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include <memory>

#include "cad/benchmarks.hpp"
#include "cell/library.hpp"
#include "common/error.hpp"
#include "core/platform.hpp"
#include "core/simulation.hpp"

namespace biochip::core {
namespace {

field::HarmonicCage test_cage() {
  // Paper-scale calibrated values (see bench_field_solver for provenance).
  return {{50e-6, 50e-6, 21e-6}, 5.2e7, 1.2e19, 1.3e20};
}

// ------------------------------------------------------- cage field model ----

TEST(CageFieldModel, TrapCenterFollowsSite) {
  CageFieldModel model(test_cage(), 20e-6, 30e-6);
  const Vec3 c = model.trap_center({3, 7});
  EXPECT_NEAR(c.x, 70e-6, 1e-12);
  EXPECT_NEAR(c.y, 150e-6, 1e-12);
  EXPECT_NEAR(c.z, 21e-6, 1e-12);
}

TEST(CageFieldModel, GradientZeroOutsideCaptureRadius) {
  CageFieldModel model(test_cage(), 20e-6, 30e-6);
  model.set_sites({{5, 5}});
  const Vec3 far = model.trap_center({5, 5}) + Vec3{100e-6, 0, 0};
  EXPECT_EQ(model.grad_erms2(far), (Vec3{}));
}

TEST(CageFieldModel, GradientPointsAwayFromCenterInsideTrap) {
  // ∇W points up-gradient (away from the minimum); the nDEP force
  // (prefactor < 0) then points back toward the center.
  CageFieldModel model(test_cage(), 20e-6, 30e-6);
  model.set_sites({{5, 5}});
  const Vec3 center = model.trap_center({5, 5});
  const Vec3 g = model.grad_erms2(center + Vec3{5e-6, 0, 0});
  EXPECT_GT(g.x, 0.0);
  EXPECT_NEAR(g.y, 0.0, 1e-3);
}

TEST(CageFieldModel, NearestCageWins) {
  CageFieldModel model(test_cage(), 20e-6, 30e-6);
  model.set_sites({{2, 5}, {8, 5}});
  const Vec3 near_first = model.trap_center({2, 5}) + Vec3{4e-6, 0, 0};
  const Vec3 g = model.grad_erms2(near_first);
  EXPECT_GT(g.x, 0.0);  // curvature of cage at {2,5}, not pulled by {8,5}
}

TEST(CageFieldModel, SpatialHashMatchesLinearReference) {
  // The O(1) hash probe must reproduce the linear-scan oracle over
  // randomized active-site sets (dense, sparse, negative coords, duplicates)
  // and query points spread inside and outside the populated region.
  CageFieldModel model(test_cage(), 20e-6, 30e-6);
  Rng rng(20260730);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<GridCoord> sites;
    const auto count = static_cast<std::size_t>(rng.uniform_int(1, 60));
    for (std::size_t s = 0; s < count; ++s)
      sites.push_back({static_cast<int>(rng.uniform_int(-4, 24)),
                       static_cast<int>(rng.uniform_int(-4, 24))});
    if (trial % 3 == 0) sites.push_back(sites.front());  // duplicate site
    model.set_sites(sites);
    for (int q = 0; q < 200; ++q) {
      const Vec3 p{rng.uniform(-6 * 20e-6, 26 * 20e-6),
                   rng.uniform(-6 * 20e-6, 26 * 20e-6), rng.uniform(0.0, 60e-6)};
      EXPECT_EQ(model.grad_erms2(p), model.grad_erms2_linear(p))
          << "trial=" << trial << " q=" << q;
    }
  }
}

TEST(CageFieldModel, HashAgreesWithLinearAtTrapAndCaptureShell) {
  CageFieldModel model(test_cage(), 20e-6, 30e-6);
  model.set_sites({{0, 0}, {3, 3}, {7, 2}});
  for (const GridCoord site : model.sites()) {
    const Vec3 c = model.trap_center(site);
    for (const Vec3 offset :
         {Vec3{}, Vec3{5e-6, -3e-6, 2e-6}, Vec3{29.9e-6, 0, 0}, Vec3{0, 31e-6, 0}}) {
      const Vec3 p = c + offset;
      EXPECT_EQ(model.grad_erms2(p), model.grad_erms2_linear(p));
    }
  }
}

TEST(CageFieldModel, EmptySiteSetGivesZeroDrive) {
  CageFieldModel model(test_cage(), 20e-6, 30e-6);
  EXPECT_EQ(model.grad_erms2({50e-6, 50e-6, 21e-6}), (Vec3{}));
  model.set_sites({{1, 1}});
  model.set_sites({});
  EXPECT_EQ(model.grad_erms2(model.trap_center({1, 1})), (Vec3{}));
}

TEST(CageFieldModel, IncrementalSetSitesMatchesRebuildAndOracle) {
  // Same-length site updates take the incremental erase+insert path (the
  // one-cage-per-hop tow pattern). Every hop must leave the hash in exactly
  // the state a full rebuild would produce: compare against a fresh model
  // and against the linear-scan oracle, including duplicate sites and the
  // backward-shift deletion chains they exercise.
  CageFieldModel inc(test_cage(), 20e-6, 30e-6);
  Rng rng(20260731);
  std::vector<GridCoord> sites;
  for (int s = 0; s < 24; ++s)
    sites.push_back({static_cast<int>(rng.uniform_int(0, 15)),
                     static_cast<int>(rng.uniform_int(0, 15))});
  sites.push_back(sites.front());  // duplicate from the start
  inc.set_sites(sites);
  for (int hop = 0; hop < 50; ++hop) {
    const auto idx = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(sites.size()) - 1));
    sites[idx] = {static_cast<int>(rng.uniform_int(0, 15)),
                  static_cast<int>(rng.uniform_int(0, 15))};
    if (hop % 7 == 0)  // periodically create & later destroy duplicates
      sites[(idx + 3) % sites.size()] = sites[idx];
    inc.set_sites(sites);  // same length: incremental path
    CageFieldModel fresh(test_cage(), 20e-6, 30e-6);
    fresh.set_sites(sites);  // full rebuild
    for (int q = 0; q < 30; ++q) {
      const Vec3 p{rng.uniform(-2 * 20e-6, 18 * 20e-6),
                   rng.uniform(-2 * 20e-6, 18 * 20e-6), rng.uniform(0.0, 50e-6)};
      const Vec3 g = inc.grad_erms2(p);
      ASSERT_EQ(g, fresh.grad_erms2(p)) << "hop=" << hop << " q=" << q;
      ASSERT_EQ(g, inc.grad_erms2_linear(p)) << "hop=" << hop << " q=" << q;
    }
  }
}

TEST(CageFieldModel, IncrementalShrinkAndGrowFallsBackToRebuild) {
  CageFieldModel model(test_cage(), 20e-6, 30e-6);
  std::vector<GridCoord> sites{{1, 1}, {5, 5}, {9, 9}};
  model.set_sites(sites);
  sites.push_back({3, 7});  // length change: full rebuild path
  model.set_sites(sites);
  for (const GridCoord site : sites) {
    const Vec3 p = model.trap_center(site);
    EXPECT_EQ(model.grad_erms2(p + Vec3{4e-6, 0, 0}),
              model.grad_erms2_linear(p + Vec3{4e-6, 0, 0}));
  }
  sites.erase(sites.begin());
  model.set_sites(sites);
  EXPECT_EQ(model.grad_erms2(model.trap_center({1, 1})),
            model.grad_erms2_linear(model.trap_center({1, 1})));
}

TEST(CageFieldModel, HugeCaptureRadiusFallsBackToScan) {
  // Capture radius spanning far more candidate sites than live cages takes
  // the linear fallback; the answers must still agree.
  CageFieldModel model(test_cage(), 20e-6, 500e-6);
  model.set_sites({{1, 2}, {10, 10}});
  const Vec3 p{95e-6, 80e-6, 21e-6};
  EXPECT_EQ(model.grad_erms2(p), model.grad_erms2_linear(p));
}

// Exact-arithmetic geometry for tie tests: pitch 2 m puts trap centers at
// odd integers, so midpoints and their squared distances are binary-exact
// and equidistance is a true floating-point tie, not an approximate one.
CageFieldModel tie_model() {
  return CageFieldModel(field::HarmonicCage{{0, 0, 0}, 1.0, 2.0, 3.0},
                        /*pitch=*/2.0, /*capture_radius=*/3.0);
}

TEST(CageFieldModel, ExactDistanceTiesBreakIdenticallyOnBothPaths) {
  // Regression for the hashed/linear tie divergence: the box scan visits
  // candidates in row-major order while the oracle follows insertion order,
  // so with a last-tie-wins rule a body exactly equidistant between two
  // trap centers — the midpoint of every tow hop — could get different
  // drives on the two paths. The insertion order below is adversarial: the
  // historical rules picked {1,1} (hashed) versus {0,0} (linear) at the
  // block center. The fixed rule: smallest (row, col) wins on both paths.
  CageFieldModel model = tie_model();
  model.set_sites({{1, 1}, {1, 0}, {0, 1}, {0, 0}});  // 2×2 active block

  const auto winner_drive = [&](GridCoord site, Vec3 p) {
    CageFieldModel solo = tie_model();
    solo.set_sites({site});
    return solo.grad_erms2(p);
  };
  const auto expect_winner = [&](Vec3 p, GridCoord site, const char* what) {
    const Vec3 g = model.grad_erms2(p);
    EXPECT_EQ(g, model.grad_erms2_linear(p)) << what;
    EXPECT_EQ(g, winner_drive(site, p)) << what;
  };
  // Horizontal midpoint between {0,0} (center x=1) and {1,0} (x=3).
  expect_winner({2.0, 1.0, 0.0}, {0, 0}, "horizontal midpoint");
  // Vertical midpoint between {0,0} (center y=1) and {0,1} (y=3).
  expect_winner({1.0, 2.0, 0.0}, {0, 0}, "vertical midpoint");
  // Center of the 2×2 block: equidistant from all four corners.
  expect_winner({2.0, 2.0, 0.0}, {0, 0}, "block center (4-way tie)");
  // Midpoint between {1,0} and {1,1}: row tie at col 1, smaller row wins.
  expect_winner({3.0, 2.0, 0.0}, {1, 0}, "row tie at col 1");
  // Midpoint between {0,1} and {1,1}: col tie at row 1, smaller col wins.
  expect_winner({2.0, 3.0, 0.0}, {0, 1}, "col tie at row 1");
}

TEST(CageFieldModel, SetSitesFuzzHashedVsLinearEveryStep) {
  // Randomized workout of the incremental set_sites path: sequences of
  // single-site moves (the tow pattern), duplicate creation/destruction,
  // swaps, and occasional grow/shrink rebuilds. After every step the hashed
  // lookup must agree with the linear oracle and with a freshly rebuilt
  // model at random points, every trap center, and exact pair midpoints
  // (covers the backward-shift deletion and multiset slots).
  CageFieldModel inc = tie_model();
  Rng rng(424242);
  std::vector<GridCoord> sites;
  const auto rand_site = [&] {
    return GridCoord{static_cast<int>(rng.uniform_int(-2, 9)),
                     static_cast<int>(rng.uniform_int(-2, 9))};
  };
  for (int s = 0; s < 12; ++s) sites.push_back(rand_site());
  inc.set_sites(sites);
  for (int step = 0; step < 160; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 9));
    const auto idx = [&] {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sites.size()) - 1));
    };
    if (op < 5) {
      sites[idx()] = rand_site();  // single move: incremental erase+insert
    } else if (op < 7) {
      sites[idx()] = sites[idx()];  // duplicate an existing site
    } else if (op < 8) {
      std::swap(sites[idx()], sites[idx()]);  // reorder only
    } else if (op < 9 || sites.size() <= 2) {
      sites.push_back(rand_site());  // grow: full rebuild
    } else {
      sites.erase(sites.begin() + static_cast<std::ptrdiff_t>(idx()));  // shrink
    }
    inc.set_sites(sites);
    CageFieldModel fresh = tie_model();
    fresh.set_sites(sites);
    // Every trap center (membership through the drive field)...
    for (const GridCoord site : sites) {
      const Vec3 c = inc.trap_center(site);
      ASSERT_EQ(inc.grad_erms2(c), inc.grad_erms2_linear(c)) << "step=" << step;
      ASSERT_EQ(inc.grad_erms2(c), fresh.grad_erms2(c)) << "step=" << step;
    }
    // ...exact midpoints of site pairs (distance ties when equidistant)...
    for (int q = 0; q < 6; ++q) {
      const Vec3 a = inc.trap_center(sites[idx()]);
      const Vec3 b = inc.trap_center(sites[idx()]);
      const Vec3 mid{(a.x + b.x) * 0.5, (a.y + b.y) * 0.5, 0.0};
      ASSERT_EQ(inc.grad_erms2(mid), inc.grad_erms2_linear(mid)) << "step=" << step;
      ASSERT_EQ(inc.grad_erms2(mid), fresh.grad_erms2(mid)) << "step=" << step;
    }
    // ...and random probes in and around the populated region.
    for (int q = 0; q < 10; ++q) {
      const Vec3 p{rng.uniform(-8.0, 24.0), rng.uniform(-8.0, 24.0),
                   rng.uniform(-1.0, 1.0)};
      ASSERT_EQ(inc.grad_erms2(p), inc.grad_erms2_linear(p)) << "step=" << step;
      ASSERT_EQ(inc.grad_erms2(p), fresh.grad_erms2(p)) << "step=" << step;
    }
  }
}

// ---------------------------------------------------- manipulation engine ----

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() {
    chip::DeviceConfig cfg = chip::paper_config_on_node(chip::paper_node());
    cfg.cols = 32;
    cfg.rows = 32;
    device_ = std::make_unique<chip::BiochipDevice>(cfg);
    medium_ = physics::dep_buffer();
    cage_ = device_->calibrate_cage(5, 6);
    engine_ = std::make_unique<ManipulationEngine>(*device_, medium_, cage_, 30e-6);
  }

  physics::ParticleBody cell_at(GridCoord site) {
    const cell::ParticleSpec spec = cell::viable_lymphocyte();
    const Vec3 trap = engine_->field_model().trap_center(site);
    return {trap, spec.radius, spec.density,
            spec.dep_prefactor(medium_, device_->config().drive_frequency), 0};
  }

  std::unique_ptr<chip::BiochipDevice> device_;
  physics::Medium medium_;
  field::HarmonicCage cage_;
  std::unique_ptr<ManipulationEngine> engine_;
};

TEST_F(EngineTest, TowAtPaperSpeedRetainsCell) {
  physics::ParticleBody cell = cell_at({5, 5});
  std::vector<GridCoord> path;
  for (int c = 5; c <= 15; ++c) path.push_back({c, 5});
  Rng rng(21);
  const TowReport report = engine_->tow(cell, path, 0.4, rng);  // 50 µm/s
  EXPECT_TRUE(report.retained);
  EXPECT_EQ(report.steps, path.size());
  const Vec3 target = engine_->field_model().trap_center({15, 5});
  EXPECT_LT((report.final_position - target).norm(), 25e-6);
}

TEST_F(EngineTest, TowTooFastLosesCell) {
  physics::ParticleBody cell = cell_at({5, 5});
  std::vector<GridCoord> path;
  for (int c = 5; c <= 20; ++c) path.push_back({c, 5});
  Rng rng(22);
  // 10 ms per 20 µm hop = 2 mm/s: far beyond the ~200 µm/s holding limit.
  const TowReport report = engine_->tow(cell, path, 0.01, rng);
  EXPECT_FALSE(report.retained);
  EXPECT_LT(report.steps, path.size());
}

TEST_F(EngineTest, SettlePullsCellIntoTrap) {
  const GridCoord site{8, 8};
  physics::ParticleBody cell = cell_at(site);
  // Start sedimented on the chip floor, one third of a pitch off-center.
  cell.position = engine_->field_model().trap_center(site) +
                  Vec3{7e-6, 0, 0};
  cell.position.z = cell.radius * 1.05;
  engine_->field_model().set_sites({site});
  Rng rng(23);
  engine_->settle(cell, 3.0, rng);
  const Vec3 trap = engine_->field_model().trap_center(site);
  EXPECT_LT((cell.position - trap).norm(), 6e-6);
  EXPECT_GT(cell.position.z, 10e-6);  // levitated off the floor
}

TEST_F(EngineTest, NonAdjacentPathRejected) {
  physics::ParticleBody cell = cell_at({5, 5});
  Rng rng(24);
  EXPECT_THROW(engine_->tow(cell, {{5, 5}, {7, 5}}, 0.4, rng), PreconditionError);
}

// ------------------------------------------- exact in-basin stepping ----

TEST(CageFieldModel, BasinPicksTheGradientTrapAndMeasuresBisectorGap) {
  CageFieldModel model(test_cage(), 20e-6, 30e-6);
  model.set_sites({{5, 5}, {7, 5}});
  const Vec3 c5 = model.trap_center({5, 5});
  // 6 µm toward the neighbor 40 µm away: the bisector is 20 µm from c5.
  const Vec3 p = c5 + Vec3{6e-6, 1e-6, 0.0};
  const CageFieldModel::Basin b = model.basin(p, 20e-6);
  ASSERT_TRUE(b.found);
  EXPECT_EQ(b.site, (GridCoord{5, 5}));
  EXPECT_EQ(model.drive(b, p), model.grad_erms2(p));
  EXPECT_NEAR(b.wall_gap, 14e-6, 1e-12);
  // With a small margin the neighbor cannot bound the basin near p.
  EXPECT_EQ(model.basin(p, 1e-6).wall_gap, std::numeric_limits<double>::infinity());
  // Outside every capture ball: nothing found, zero drive.
  const CageFieldModel::Basin out = model.basin(c5 + Vec3{0.0, 35e-6, 0.0}, 1e-6);
  EXPECT_FALSE(out.found);
  EXPECT_EQ(model.drive(out, c5), (Vec3{}));
}

TEST(CageFieldModel, BasinDriveEqualsGradientEverywhere) {
  // The EM fallback of the exact stepper takes its drive from the basin
  // query, so it must be bitwise the grad_erms2 field, ties included.
  CageFieldModel model = tie_model();
  model.set_sites({{0, 0}, {2, 0}, {1, 2}, {4, 4}, {4, 4}, {6, 3}});
  Rng rng(404);
  for (int q = 0; q < 4000; ++q) {
    const Vec3 p{rng.uniform(-2.0, 9.0), rng.uniform(-2.0, 7.0), rng.uniform(-1.0, 1.0)};
    const CageFieldModel::Basin b = model.basin(p, rng.uniform(0.0, 0.5));
    ASSERT_EQ(model.drive(b, p), model.grad_erms2(p)) << "q=" << q;
    ASSERT_EQ(model.drive(b, p), model.grad_erms2_linear(p)) << "q=" << q;
    if (b.found) {
      ASSERT_GE(b.wall_gap, 0.0);
      ASSERT_GT(model.ball_clearance(p), -1e-12 - model.capture_radius());
    } else {
      ASSERT_GT(model.ball_clearance(p), 0.0) << "q=" << q;
    }
  }
  // Exact midpoint between the traps at sites (0,0) and (2,0) (centers
  // x = 1 and x = 5): zero gap.
  EXPECT_EQ(model.basin({3.0, 1.0, 0.0}, 0.1).wall_gap, 0.0);
}

// Which path a body takes on its first substep: 1 exact step (all 400
// substeps' worth of time) or 1 Euler-Maruyama substep.
class ExactSelectionTest : public EngineTest {
 protected:
  RelaxWork first(physics::ParticleBody body) {
    Rng rng(31);
    return engine_->relax(body, 1, rng);
  }
  double margin(const physics::ParticleBody& body) {
    return ManipulationEngine::kExactMarginSpreads *
           engine_->integrator().relaxation(body, cage_).spread;
  }
};

TEST_F(ExactSelectionTest, HeldCellTakesOneExactStep) {
  engine_->field_model().set_sites({{8, 8}, {10, 8}});
  physics::ParticleBody cell = cell_at({8, 8});
  Rng rng(32);
  const RelaxWork w = engine_->relax(cell, 400, rng);
  EXPECT_EQ(w.exact_steps, 1u);
  EXPECT_EQ(w.em_substeps, 0u);
  const Vec3 trap = engine_->field_model().trap_center({8, 8});
  EXPECT_LT((cell.position - trap).norm(), 1e-6);
}

TEST_F(ExactSelectionTest, TieMidpointFallsBack) {
  engine_->field_model().set_sites({{8, 8}, {10, 8}});
  physics::ParticleBody cell = cell_at({9, 8});  // equidistant from both traps
  EXPECT_EQ(first(cell).em_substeps, 1u);
  EXPECT_EQ(first(cell).exact_steps, 0u);
}

TEST_F(ExactSelectionTest, CaptureShellWithinMarginFallsBack) {
  engine_->field_model().set_sites({{8, 8}});
  physics::ParticleBody cell = cell_at({8, 8});
  const double m = margin(cell);
  ASSERT_GT(m, 0.0);
  cell.position.x += 30e-6 - 0.5 * m;
  EXPECT_EQ(first(cell).em_substeps, 1u);
  // Just inside the margin-shrunk ball the exact step applies.
  cell.position.x -= 2.0 * m;
  EXPECT_EQ(first(cell).exact_steps, 1u);
}

TEST_F(ExactSelectionTest, BodyNearAWallFallsBack) {
  // Trap at the chamber edge: a cell pressed against the side wall is in
  // the capture ball but within the margin of the shrunk bounds.
  engine_->field_model().set_sites({{0, 8}});
  physics::ParticleBody cell = cell_at({0, 8});
  cell.position.x = engine_->integrator().options().bounds.min.x + cell.radius;
  EXPECT_EQ(first(cell).em_substeps, 1u);
  // A cell resting on the floor below its trap falls back too.
  physics::ParticleBody floor_cell = cell_at({0, 8});
  floor_cell.position.z = cell.radius;
  EXPECT_EQ(first(floor_cell).em_substeps, 1u);
}

TEST_F(ExactSelectionTest, PdepBodyFallsBack) {
  engine_->field_model().set_sites({{8, 8}});
  physics::ParticleBody cell = cell_at({8, 8});
  cell.dep_prefactor = std::fabs(cell.dep_prefactor);
  EXPECT_EQ(first(cell).em_substeps, 1u);
  EXPECT_EQ(first(cell).exact_steps, 0u);
}

TEST_F(ExactSelectionTest, BodySwitchesToExactMidCallOnceItQualifies) {
  // Released near the capture shell, the cell relaxes inward under Euler
  // steps until it clears the margin, then finishes with one exact step.
  engine_->field_model().set_sites({{8, 8}});
  physics::ParticleBody cell = cell_at({8, 8});
  cell.position.x += 30e-6 - 0.5 * margin(cell);
  Rng rng(33);
  const RelaxWork w = engine_->relax(cell, 400, rng);
  EXPECT_EQ(w.exact_steps, 1u);
  EXPECT_GE(w.em_substeps, 1u);
  EXPECT_LT(w.em_substeps, 400u);
}

TEST_F(ExactSelectionTest, FallbackIsBitwiseThePlainEulerLoop) {
  // Bodies that never qualify (a pDEP cell in a trap, a free cell sinking
  // outside every capture ball) take exactly the substeps the plain
  // per-substep loop over OverdampedIntegrator::step takes.
  engine_->field_model().set_sites({{8, 8}, {12, 8}});
  physics::ParticleBody pdep = cell_at({8, 8});
  pdep.dep_prefactor = std::fabs(pdep.dep_prefactor);
  pdep.position.x += 4e-6;
  physics::ParticleBody free_cell = cell_at({20, 20});
  free_cell.position.z = 60e-6;
  for (const physics::ParticleBody& start : {pdep, free_cell}) {
    physics::ParticleBody a = start, b = start;
    Rng ra(34), rb(34);
    const RelaxWork w = engine_->relax(a, 400, ra);
    EXPECT_EQ(w.em_substeps, 400u);
    EXPECT_EQ(w.exact_steps, 0u);
    const CageFieldModel& field = engine_->field_model();
    for (int s = 0; s < 400; ++s)
      engine_->integrator().step(b, [&](Vec3 q) { return field.grad_erms2(q); }, rb);
    EXPECT_EQ(a.position, b.position);
    EXPECT_EQ(ra(), rb());
  }
}

// ---------------------------------------------------------------- platform ----

class PlatformTest : public ::testing::Test {
 protected:
  PlatformTest() {
    PlatformConfig cfg = PlatformConfig::paper_defaults();
    cfg.device.cols = 48;
    cfg.device.rows = 48;
    cfg.seed = 7;
    lab_ = std::make_unique<LabOnChipPlatform>(cfg);
  }
  std::unique_ptr<LabOnChipPlatform> lab_;
};

TEST_F(PlatformTest, LoadSampleCreatesBodies) {
  lab_->load_sample({{cell::viable_lymphocyte(), 8, 0.05}});
  EXPECT_EQ(lab_->sample().size(), 8u);
  EXPECT_EQ(lab_->bodies().size(), 8u);
  for (const auto& b : lab_->bodies()) EXPECT_LT(b.dep_prefactor, 0.0);
}

TEST_F(PlatformTest, DetectFindsLoadedCells) {
  lab_->load_sample({{cell::viable_lymphocyte(), 6, 0.05}});
  const auto dets = lab_->detect_cells(64);
  EXPECT_GE(dets.size(), 5u);  // allow one cluster-merge of near neighbors
  EXPECT_LE(dets.size(), 7u);
}

TEST_F(PlatformTest, TrapThenMoveEndToEnd) {
  lab_->load_sample({{cell::viable_lymphocyte(), 3, 0.05}});
  const auto cage = lab_->trap_cell(0);
  ASSERT_TRUE(cage.has_value());
  const GridCoord from = lab_->cages().site(*cage);
  const GridCoord to{from.col < 24 ? from.col + 8 : from.col - 8, from.row};
  const MoveResult mv = lab_->move_cell(*cage, to);
  EXPECT_TRUE(mv.success);
  EXPECT_EQ(lab_->cages().site(*cage), to);
  // Claim C3 embodied: electronics time is negligible vs. the tow.
  EXPECT_LT(mv.electronics_time, 1e-3 * mv.tow.elapsed);
  // The physical cell arrived too.
  const int body = *lab_->body_in_cage(*cage);
  const Vec3 trap{(to.col + 0.5) * 20e-6, (to.row + 0.5) * 20e-6,
                  lab_->unit_cage().center.z};
  EXPECT_LT((lab_->bodies()[static_cast<std::size_t>(body)].position - trap).norm(),
            25e-6);
}

TEST_F(PlatformTest, PdepParticleNotTrappable) {
  // Polystyrene beads at 100 kHz in this buffer are still nDEP; use a
  // conductive particle instead (pDEP at low frequency).
  cell::ParticleSpec conductive = cell::polystyrene_bead();
  conductive.name = "conductive_bead";
  conductive.dielectric.body.conductivity = 1.0;  // >> medium
  lab_->load_sample({{conductive, 2, 0.02}});
  EXPECT_FALSE(lab_->trap_cell(0).has_value());
}

TEST_F(PlatformTest, SecondTrapRespectsSeparation) {
  lab_->load_sample({{cell::viable_lymphocyte(), 2, 0.0}});
  // Force both cells to almost the same spot.
  lab_->bodies()[0].position = {500e-6, 500e-6, 6e-6};
  lab_->bodies()[1].position = {510e-6, 505e-6, 6e-6};
  const auto first = lab_->trap_cell(0);
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(lab_->trap_cell(1).has_value());  // same/adjacent site blocked
}

TEST_F(PlatformTest, SitePeriodMatchesTowSpeed) {
  EXPECT_NEAR(lab_->site_period(), 20e-6 / 50e-6, 1e-12);
}

TEST_F(PlatformTest, RunAssayUsesDeviceGeometry) {
  const auto result = lab_->run_assay(cad::pcr_mix(2), cad::ChipResources{});
  EXPECT_TRUE(result.success);
  EXPECT_NEAR(result.transport_time,
              static_cast<double>(result.transport_steps) * lab_->site_period(), 1e-9);
}

TEST_F(PlatformTest, MoveUnknownCageThrows) {
  lab_->load_sample({{cell::viable_lymphocyte(), 1, 0.0}});
  EXPECT_THROW(lab_->move_cell(123, {5, 5}), PreconditionError);
}

TEST(Platform, DeterministicAcrossRuns) {
  auto run_once = [] {
    PlatformConfig cfg = PlatformConfig::paper_defaults();
    cfg.device.cols = 32;
    cfg.device.rows = 32;
    cfg.seed = 99;
    LabOnChipPlatform lab(cfg);
    lab.load_sample({{cell::viable_lymphocyte(), 4, 0.05}});
    return lab.bodies()[2].position;
  };
  const Vec3 a = run_once();
  const Vec3 b = run_once();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace biochip::core
