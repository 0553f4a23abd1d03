// Tests for the chip library: technology catalog, electrode array geometry,
// actuation patterns, programming timing, cage control, and the device
// facade (including the claim-C1 paper-scale checks).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "chip/actuation.hpp"
#include "chip/cage.hpp"
#include "chip/device.hpp"
#include "chip/electrode_array.hpp"
#include "chip/technology.hpp"
#include "chip/timing.hpp"
#include "common/error.hpp"
#include "common/units.hpp"

namespace biochip::chip {
namespace {

using namespace biochip::units;

// ------------------------------------------------------------ technology ----

TEST(Technology, CatalogOrderedAndMonotonic) {
  const auto nodes = node_catalog();
  ASSERT_GE(nodes.size(), 8u);
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    EXPECT_LT(nodes[i].feature_size, nodes[i - 1].feature_size);
    EXPECT_LE(nodes[i].supply, nodes[i - 1].supply);        // supply shrinks
    EXPECT_LT(nodes[i].sram_bit_area, nodes[i - 1].sram_bit_area);
    EXPECT_GE(nodes[i].year, nodes[i - 1].year);
  }
}

TEST(Technology, PaperNodeIs035um) {
  const CmosNode n = paper_node();
  EXPECT_EQ(n.name, "0.35um");
  EXPECT_DOUBLE_EQ(n.supply, 3.3);
}

TEST(Technology, UnknownNodeThrows) {
  EXPECT_THROW(node_by_name("7nm"), ConfigError);
}

class NodeParamTest : public ::testing::TestWithParam<CmosNode> {};

TEST_P(NodeParamTest, PixelFitsUnder20umPitchFrom035umOn) {
  // The feasibility floor: from 0.35 µm on, the per-pixel latch + switches
  // fit under a 20 µm (cell-sized) electrode. Newer nodes gain nothing (the
  // pitch is set by the cell), older-than-0.6 µm nodes can't fit the pixel —
  // so the paper's chip sits exactly at the oldest feasible node (claim C2).
  const CmosNode& node = GetParam();
  if (node.feature_size <= 0.4e-6) {
    EXPECT_TRUE(pixel_fits(node, 20.0_um, 2)) << node.name;
  }
  if (node.feature_size >= 0.8e-6) {
    EXPECT_FALSE(pixel_fits(node, 20.0_um, 2)) << node.name;
  }
}

TEST_P(NodeParamTest, PixelLogicAreaPositiveAndGrowsWithBits) {
  const CmosNode& node = GetParam();
  EXPECT_GT(node.pixel_logic_area(1), 0.0);
  EXPECT_GT(node.pixel_logic_area(4), node.pixel_logic_area(1));
}

INSTANTIATE_TEST_SUITE_P(AllNodes, NodeParamTest, ::testing::ValuesIn(node_catalog()),
                         [](const ::testing::TestParamInfo<CmosNode>& info) {
                           std::string n = info.param.name;
                           for (char& c : n)
                             if (c == '.') c = '_';
                           return n;
                         });

// --------------------------------------------------------------- array ----

TEST(ElectrodeArray, GeometryAndIndexing) {
  ElectrodeArray a(320, 320, 20.0_um);
  EXPECT_EQ(a.electrode_count(), 102400u);
  EXPECT_TRUE(a.contains({0, 0}));
  EXPECT_TRUE(a.contains({319, 319}));
  EXPECT_FALSE(a.contains({320, 0}));
  EXPECT_FALSE(a.contains({-1, 0}));
  EXPECT_EQ(a.index({1, 0}), 1u);
  EXPECT_EQ(a.index({0, 1}), 320u);
}

TEST(ElectrodeArray, CentersAndFootprints) {
  ElectrodeArray a(4, 4, 20.0_um, 0.8);
  const Vec2 c = a.center({1, 2});
  EXPECT_NEAR(c.x, 30.0_um, 1e-12);
  EXPECT_NEAR(c.y, 50.0_um, 1e-12);
  const Rect f = a.footprint({1, 2});
  EXPECT_NEAR(f.width(), 16.0_um, 1e-12);  // 80% metal fill
  EXPECT_TRUE(f.contains(c));
}

TEST(ElectrodeArray, NearestClampsToEdges) {
  ElectrodeArray a(8, 8, 20.0_um);
  EXPECT_EQ(a.nearest({-5.0_um, -5.0_um}), (GridCoord{0, 0}));
  EXPECT_EQ(a.nearest({1.0_mm, 1.0_mm}), (GridCoord{7, 7}));
  EXPECT_EQ(a.nearest({30.0_um, 50.0_um}), (GridCoord{1, 2}));
}

TEST(ElectrodeArray, InvalidConstructionThrows) {
  EXPECT_THROW(ElectrodeArray(0, 4, 20.0_um), PreconditionError);
  EXPECT_THROW(ElectrodeArray(4, 4, 0.0), PreconditionError);
  EXPECT_THROW(ElectrodeArray(4, 4, 20.0_um, 1.5), PreconditionError);
}

// ------------------------------------------------------------- actuation ----

TEST(Actuation, BackgroundIsAllPhaseB) {
  ElectrodeArray a(8, 8, 20.0_um);
  const ActuationPattern p = background(a);
  for (int r = 0; r < 8; ++r)
    for (int c = 0; c < 8; ++c) EXPECT_EQ(p.get({c, r}), PhaseSel::kPhaseB);
}

TEST(Actuation, SingleCageSetsPhaseAIsland) {
  ElectrodeArray a(8, 8, 20.0_um);
  const ActuationPattern p = single_cage(a, {3, 4});
  EXPECT_EQ(p.get({3, 4}), PhaseSel::kPhaseA);
  EXPECT_EQ(p.get({2, 4}), PhaseSel::kPhaseB);
  EXPECT_EQ(p.diff_count(background(a)), 1u);
}

TEST(Actuation, CageSiteSizeExpandsIsland) {
  ElectrodeArray a(8, 8, 20.0_um);
  const ActuationPattern p = single_cage(a, {2, 2}, 2);
  EXPECT_EQ(p.diff_count(background(a)), 4u);
  EXPECT_EQ(p.get({3, 3}), PhaseSel::kPhaseA);
}

TEST(Actuation, PhasorsMapPhasesToSigns) {
  ElectrodeArray a(2, 1, 20.0_um);
  ActuationPattern p = background(a);
  p.set({0, 0}, PhaseSel::kPhaseA);
  p.set({1, 0}, PhaseSel::kGround);
  EXPECT_EQ(p.phasor({0, 0}, 3.3), (std::complex<double>{3.3, 0.0}));
  EXPECT_EQ(p.phasor({1, 0}, 3.3), (std::complex<double>{0.0, 0.0}));
  const auto all = p.phasors(2.0);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_DOUBLE_EQ(all[0].real(), 2.0);
}

TEST(Actuation, CageLatticeCapacityMatchesClaimC1) {
  // Paper: >100k electrodes host "tens of thousands" of cages.
  ElectrodeArray a(320, 320, 20.0_um);
  const CageLattice lattice = cage_lattice(a, 2);
  EXPECT_GT(lattice.sites.size(), 20000u);
  EXPECT_LT(lattice.sites.size(), 30000u);
  // All sites separated by >= 2 pitches (spot check a sample).
  for (std::size_t i = 0; i + 1 < std::min<std::size_t>(lattice.sites.size(), 200); ++i)
    EXPECT_GE(chebyshev(lattice.sites[i], lattice.sites[i + 1]), 2);
}

TEST(Actuation, MoveCageUpdatesPattern) {
  ElectrodeArray a(8, 8, 20.0_um);
  ActuationPattern p = single_cage(a, {3, 3});
  move_cage(p, {3, 3}, {4, 3});
  EXPECT_EQ(p.get({3, 3}), PhaseSel::kPhaseB);
  EXPECT_EQ(p.get({4, 3}), PhaseSel::kPhaseA);
  EXPECT_THROW(move_cage(p, {0, 0}, {1, 0}), PreconditionError);  // no cage there
}

// ---------------------------------------------------------------- timing ----

TEST(Timing, FullProgramTimeScalesWithArray) {
  ProgrammingModel pm;
  ElectrodeArray small(64, 64, 20.0_um), large(320, 320, 20.0_um);
  const double ts = pm.full_program_time(small);
  const double tl = pm.full_program_time(large);
  EXPECT_GT(tl, ts);
  // 320x320 at 10 MHz, 16 pixels/word: ~(320·(20+2))/1e7 ≈ 0.7 ms.
  EXPECT_LT(tl, 5e-3);
  EXPECT_GT(tl, 1e-4);
}

TEST(Timing, IncrementalCheaperThanFull) {
  ProgrammingModel pm;
  ElectrodeArray a(320, 320, 20.0_um);
  EXPECT_LT(pm.incremental_program_time(2), pm.full_program_time(a));
  EXPECT_GT(pm.pattern_rate(2), 1e5);  // >100k cage moves/s possible
}

TEST(Timing, HeadroomHugeAtCellSpeeds) {
  // Claim C3: electronics are orders of magnitude faster than cells.
  ProgrammingModel pm;
  ElectrodeArray a(320, 320, 20.0_um);
  for (double speed : {10e-6, 50e-6, 100e-6}) {
    EXPECT_GT(timing_headroom(a, pm, speed), 100.0) << speed;
  }
}

TEST(Timing, PatternMemorySize) {
  ProgrammingModel pm;
  ElectrodeArray a(320, 320, 20.0_um);
  EXPECT_EQ(pm.pattern_memory_bits(a), 204800u);  // 2 bits per pixel
}

TEST(Timing, TransitTimeValidation) {
  EXPECT_NEAR(pitch_transit_time(20.0_um, 50e-6), 0.4, 1e-12);
  EXPECT_THROW(pitch_transit_time(0.0, 1.0), PreconditionError);
  EXPECT_THROW(pitch_transit_time(1.0, 0.0), PreconditionError);
}

// ------------------------------------------------------------------ cage ----

class CageControllerTest : public ::testing::Test {
 protected:
  ElectrodeArray array_{16, 16, 20.0e-6};
  CageController ctl_{array_, 2};
};

TEST_F(CageControllerTest, CreateAndQuery) {
  const int id = ctl_.create({4, 4});
  EXPECT_EQ(ctl_.cage_count(), 1u);
  EXPECT_EQ(ctl_.site(id), (GridCoord{4, 4}));
  EXPECT_EQ(ctl_.cage_ids(), std::vector<int>{id});
}

TEST_F(CageControllerTest, SeparationEnforcedOnCreate) {
  ctl_.create({4, 4});
  EXPECT_FALSE(ctl_.can_place({5, 5}));   // Chebyshev 1 < 2
  EXPECT_TRUE(ctl_.can_place({6, 4}));    // Chebyshev 2
  EXPECT_THROW(ctl_.create({4, 5}), PreconditionError);
}

TEST_F(CageControllerTest, MoveRules) {
  const int id = ctl_.create({4, 4});
  ctl_.move(id, {5, 4});
  EXPECT_EQ(ctl_.site(id), (GridCoord{5, 4}));
  EXPECT_THROW(ctl_.move(id, {7, 4}), PreconditionError);   // 2 pitches
  EXPECT_THROW(ctl_.move(id, {5, 4 + 20}), PreconditionError);
  EXPECT_EQ(ctl_.moves_executed(), 1u);
}

TEST_F(CageControllerTest, MoveCannotApproachNeighbor) {
  const int a = ctl_.create({4, 4});
  ctl_.create({7, 4});
  // Chebyshev({5,4},{7,4}) = 2: still legal.
  ctl_.move(a, {5, 4});
  // Chebyshev({6,4},{7,4}) = 1: traps would merge — rejected.
  EXPECT_THROW(ctl_.move(a, {6, 4}), PreconditionError);
  EXPECT_EQ(ctl_.site(a), (GridCoord{5, 4}));
}

TEST_F(CageControllerTest, SimultaneousStepConvoy) {
  // A convoy of cages marching east together stays legal.
  const int a = ctl_.create({2, 2});
  const int b = ctl_.create({4, 2});
  const int c = ctl_.create({6, 2});
  ctl_.apply_step({{a, {3, 2}}, {b, {5, 2}}, {c, {7, 2}}});
  EXPECT_EQ(ctl_.site(a), (GridCoord{3, 2}));
  EXPECT_EQ(ctl_.site(c), (GridCoord{7, 2}));
  EXPECT_EQ(ctl_.moves_executed(), 3u);
  EXPECT_EQ(ctl_.steps_executed(), 1u);
}

TEST_F(CageControllerTest, SimultaneousStepCollisionRejectedAtomically) {
  const int a = ctl_.create({2, 2});
  const int b = ctl_.create({5, 2});
  // a moves toward b while b moves toward a -> separation 1: rejected.
  EXPECT_THROW(ctl_.apply_step({{a, {3, 2}}, {b, {4, 2}}}), PreconditionError);
  // State unchanged (atomicity).
  EXPECT_EQ(ctl_.site(a), (GridCoord{2, 2}));
  EXPECT_EQ(ctl_.site(b), (GridCoord{5, 2}));
}

TEST_F(CageControllerTest, DuplicateMoveInStepRejected) {
  const int a = ctl_.create({2, 2});
  EXPECT_THROW(ctl_.apply_step({{a, {3, 2}}, {a, {2, 3}}}), PreconditionError);
}

TEST_F(CageControllerTest, DestroyFreesSite) {
  const int a = ctl_.create({4, 4});
  ctl_.destroy(a);
  EXPECT_EQ(ctl_.cage_count(), 0u);
  EXPECT_TRUE(ctl_.can_place({4, 5}));
  EXPECT_THROW(ctl_.site(a), PreconditionError);  // stale id
}

TEST_F(CageControllerTest, PatternReflectsCages) {
  ctl_.create({4, 4});
  ctl_.create({8, 8});
  const ActuationPattern p = ctl_.pattern();
  EXPECT_EQ(p.get({4, 4}), PhaseSel::kPhaseA);
  EXPECT_EQ(p.get({8, 8}), PhaseSel::kPhaseA);
  EXPECT_EQ(p.diff_count(background(array_)), 2u);
}

// ---------------------------------------------------------------- device ----

TEST(Device, PaperScaleMatchesClaimC1) {
  const BiochipDevice dev = paper_device();
  EXPECT_GT(dev.array().electrode_count(), 100000u);       // ">100,000 electrodes"
  EXPECT_NEAR(dev.chamber_volume(), 4.1e-9, 0.2e-9);       // "~4 µl"
  EXPECT_GT(dev.cage_capacity(2), 20000u);                 // "tens of thousands"
  EXPECT_TRUE(dev.pixel_fits());
  EXPECT_DOUBLE_EQ(dev.drive_amplitude(), 3.3);
}

TEST(Device, CalibratedCageIsClosedAndCentered) {
  const BiochipDevice dev = paper_device();
  const field::HarmonicCage cage = dev.calibrate_cage(5, 6);
  // Centered above the middle electrode of a 5x5 patch: (2.5 pitch, 2.5 pitch).
  EXPECT_NEAR(cage.center.x, 2.5 * 20.0_um, 2.0_um);
  EXPECT_NEAR(cage.center.y, 2.5 * 20.0_um, 2.0_um);
  // Levitated at a height comparable to the pitch.
  EXPECT_GT(cage.center.z, 5.0_um);
  EXPECT_LT(cage.center.z, 60.0_um);
  EXPECT_GT(cage.c_r, 0.0);
  EXPECT_GT(cage.c_z, 0.0);
}

TEST(Device, CageStrengthScalesWithSupplySquared) {
  // Claim C2's physical core: curvature of E_rms² ∝ V².
  DeviceConfig hi = paper_config_on_node(paper_node());
  DeviceConfig lo = hi;
  lo.drive_amplitude = hi.technology.supply / 2.0;
  const field::HarmonicCage cage_hi = BiochipDevice(hi).calibrate_cage(5, 6);
  const field::HarmonicCage cage_lo = BiochipDevice(lo).calibrate_cage(5, 6);
  EXPECT_NEAR(cage_hi.c_r / cage_lo.c_r, 4.0, 0.2);
  EXPECT_NEAR(cage_hi.c_z / cage_lo.c_z, 4.0, 0.2);
}

TEST(Device, PowerIncreasesWithActivity) {
  const BiochipDevice dev = paper_device();
  const double idle = dev.actuation_power(0, 0.0);
  const double busy = dev.actuation_power(1000, 100.0);
  EXPECT_GT(busy, idle);
  EXPECT_LT(busy, 1.0);  // stays well under a watt
}

TEST(Device, ChamberBoundsMatchArrayAndGap) {
  const BiochipDevice dev = paper_device();
  const Aabb b = dev.chamber_bounds();
  EXPECT_NEAR(b.max.x, 320 * 20.0_um, 1e-9);
  EXPECT_NEAR(b.max.z, 100.0_um, 1e-12);
}

TEST(Device, InvalidConfigThrows) {
  DeviceConfig cfg = paper_config_on_node(paper_node());
  cfg.chamber_height = 0.0;
  EXPECT_THROW(BiochipDevice dev(cfg), PreconditionError);
  cfg = paper_config_on_node(paper_node());
  cfg.drive_frequency = 0.0;
  EXPECT_THROW(BiochipDevice dev(cfg), PreconditionError);
}

TEST(Device, LocalDomainResolution) {
  const BiochipDevice dev = paper_device();
  const field::ChamberDomain d = dev.local_domain(5, 8);
  EXPECT_NEAR(d.spacing, 2.5_um, 1e-12);
  EXPECT_EQ(d.nodes_x(), 41u);  // 5 pitches * 8 + 1
  EXPECT_THROW(dev.local_domain(4, 8), PreconditionError);  // even patch
}

// ------------------------------------------------ surrogate error bound ----

// The exact in-basin stepper is exact with respect to the harmonic cage
// surrogate, not the solved field. This pins how far the surrogate's
// ∇E_rms² strays from the phasor solve it was calibrated on (the paper
// device, 5×5 patch, 6 nodes/pitch — the calibration the service benches
// use), on spherical shells around the cage center inside the 30 µm capture
// radius. 400 Fibonacci-sphere points per shell; points lower than one cell
// radius (5 µm) above the floor are skipped.
//  - lateral: max |Δ∇_xy| / (c_r·ρ) over the equatorial band |z − z₀| <= ρ/4,
//    where held and towed cells sit;
//  - vertical: max |Δ∇_z| / (c_z·ρ) over the whole shell.
// Bounds are the measured values plus 10%. Laterally the surrogate is good
// to 3.5% at 2 µm and 6% at 5 µm (a held cell's σ_r is ~0.05 µm) but its
// force is ~2× too stiff at a full pitch. Vertically it is a secant over
// ±10 µm of a strongly asymmetric profile (steeper toward the electrodes),
// and the true vertical minimum sits ~0.35 µm above the fitted center.
TEST(Device, HarmonicSurrogateGradientBoundOnCaptureShells) {
  const BiochipDevice dev(paper_config_on_node(paper_node()));
  const field::PhasorSolution sol = dev.solve_unit_cage(5, 6);
  const field::HarmonicCage cage = dev.calibrate_cage(5, 6);
  struct Shell {
    double rho, lateral, vertical;
  };
  const Shell shells[] = {{2e-6, 0.039, 0.84},  {5e-6, 0.063, 0.94},
                          {10e-6, 0.27, 3.3},   {15e-6, 0.55, 11.5},
                          {20e-6, 0.79, 15.2},  {30e-6, 1.12, 1.10}};
  const int n = 400;
  for (const Shell& sh : shells) {
    double lateral = 0.0, vertical = 0.0;
    for (int i = 0; i < n; ++i) {
      const double cz = 1.0 - 2.0 * (i + 0.5) / n;
      const double sz = std::sqrt(1.0 - cz * cz);
      const double phi = i * 2.399963229728653;  // golden angle
      const Vec3 p = cage.center + Vec3{sh.rho * sz * std::cos(phi),
                                        sh.rho * sz * std::sin(phi), sh.rho * cz};
      if (p.z < 5e-6) continue;
      const Vec3 d = sol.grad_erms2_at(p) - cage.grad_erms2(p);
      if (std::fabs(cz) <= 0.25)
        lateral = std::max(lateral, std::hypot(d.x, d.y) / (cage.c_r * sh.rho));
      vertical = std::max(vertical, std::fabs(d.z) / (cage.c_z * sh.rho));
    }
    EXPECT_LE(lateral, sh.lateral) << "rho " << sh.rho;
    EXPECT_LE(vertical, sh.vertical) << "rho " << sh.rho;
  }
}

}  // namespace
}  // namespace biochip::chip
