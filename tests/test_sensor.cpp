// Tests for the sensor library: capacitive/optical pixel models, scan
// timing, frame synthesis (offsets, CDS, averaging), and detection.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "chip/defects.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "sensor/capacitive.hpp"
#include "sensor/detect.hpp"
#include "sensor/frame.hpp"
#include "sensor/optical.hpp"
#include "sensor/scan.hpp"

namespace biochip::sensor {
namespace {

using namespace biochip::units;

CapacitivePixel paper_pixel() {
  CapacitivePixel px;
  px.electrode_area = 16.0_um * 16.0_um;
  px.chamber_height = 100.0_um;
  px.sense_voltage = 3.3;
  return px;
}

// ------------------------------------------------------------ capacitive ----

TEST(Capacitive, BaselineIsSeriesCombination) {
  const CapacitivePixel px = paper_pixel();
  const double c = px.baseline_capacitance();
  // fF scale for a 16 µm electrode through 100 µm of water.
  EXPECT_GT(c, 0.1e-15);
  EXPECT_LT(c, 100e-15);
  // Series: less than either plate alone.
  const double c_liquid =
      px.medium_eps_r * constants::epsilon0 * px.electrode_area / px.chamber_height;
  EXPECT_LT(c, c_liquid);
}

TEST(Capacitive, DeltaCNegativeAndMonotonicInRadius) {
  const CapacitivePixel px = paper_pixel();
  double prev = 0.0;
  for (double r : {1e-6, 2e-6, 4e-6, 8e-6}) {
    const double d = px.delta_c(r, r * 1.05, 0.0);
    EXPECT_LT(d, 0.0) << r;
    EXPECT_LT(d, prev) << r;  // more negative with size
    prev = d;
  }
}

TEST(Capacitive, DeltaCDecaysWithHeightAndLateralOffset) {
  const CapacitivePixel px = paper_pixel();
  const double near = std::fabs(px.delta_c(5e-6, 6e-6, 0.0));
  const double high = std::fabs(px.delta_c(5e-6, 30e-6, 0.0));
  const double aside = std::fabs(px.delta_c(5e-6, 6e-6, 15e-6));
  EXPECT_GT(near, high);
  EXPECT_GT(near, aside);
}

TEST(Capacitive, NoiseSigmaHasAmplifierFloor) {
  CapacitivePixel px = paper_pixel();
  const double sigma = px.frame_noise_sigma(298.15);
  EXPECT_GE(sigma, px.amp_noise_charge / px.sense_voltage);
  px.amp_noise_charge = 0.0;
  EXPECT_GT(px.frame_noise_sigma(298.15), 0.0);  // kT/C term remains
}

TEST(Capacitive, HigherSenseVoltageBuysSnr) {
  // Claim C2's sensing half: ΔC-referred noise falls as 1/V.
  CapacitivePixel hi = paper_pixel();   // 3.3 V
  CapacitivePixel lo = paper_pixel();
  lo.sense_voltage = 1.0;
  EXPECT_NEAR(hi.single_frame_snr(5e-6, 6e-6, 298.15) /
                  lo.single_frame_snr(5e-6, 6e-6, 298.15),
              3.3, 1e-9);
}

TEST(Capacitive, AveragedSnrFollowsSqrtN) {
  // Claim C4's law: SNR(N) = SNR(1)·√N.
  const CapacitivePixel px = paper_pixel();
  const double s1 = px.averaged_snr(5e-6, 6e-6, 298.15, 1);
  const double s16 = px.averaged_snr(5e-6, 6e-6, 298.15, 16);
  const double s256 = px.averaged_snr(5e-6, 6e-6, 298.15, 256);
  EXPECT_NEAR(s16 / s1, 4.0, 1e-9);
  EXPECT_NEAR(s256 / s1, 16.0, 1e-9);
}

TEST(Capacitive, FramesForSnrInvertsTheLaw) {
  const CapacitivePixel px = paper_pixel();
  const double s1 = px.single_frame_snr(2e-6, 2.2e-6, 298.15);
  const std::size_t n = frames_for_snr(px, 2e-6, 2.2e-6, 298.15, 5.0 * s1);
  EXPECT_GE(n, 25u);
  EXPECT_LE(n, 26u);
  EXPECT_EQ(frames_for_snr(px, 10e-6, 10.5e-6, 298.15, 1e-6), 1u);
}

class AveragingLawTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AveragingLawTest, SnrScalesExactly) {
  const CapacitivePixel px = paper_pixel();
  const std::size_t n = GetParam();
  EXPECT_NEAR(px.averaged_snr(5e-6, 6e-6, 298.15, n),
              px.single_frame_snr(5e-6, 6e-6, 298.15) * std::sqrt(double(n)), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(PowersOfFour, AveragingLawTest,
                         ::testing::Values(1u, 4u, 16u, 64u, 256u, 1024u, 4096u));

// --------------------------------------------------------------- optical ----

TEST(Optical, BaselineAndShadowSigns) {
  OpticalPixel px;
  px.photodiode_area = 10.0_um * 10.0_um;
  EXPECT_GT(px.baseline_current(), 0.0);
  EXPECT_GT(px.delta_current(5e-6, 0.0), 0.0);
  EXPECT_LT(px.delta_current(5e-6, 20e-6), px.delta_current(5e-6, 0.0));
}

TEST(Optical, ShadowSaturatesAtPixelArea) {
  OpticalPixel px;
  px.photodiode_area = 10.0_um * 10.0_um;
  const double huge = px.delta_current(50e-6, 0.0);
  const double expected_cap =
      px.responsivity * px.irradiance * px.photodiode_area * px.shadow_contrast;
  EXPECT_NEAR(huge, expected_cap, expected_cap * 1e-9);
}

TEST(Optical, SnrImprovesWithIntegrationAndAveraging) {
  OpticalPixel px;
  px.photodiode_area = 10.0_um * 10.0_um;
  const double s1 = px.single_frame_snr(5e-6);
  EXPECT_GT(s1, 0.0);
  EXPECT_NEAR(px.averaged_snr(5e-6, 9) / s1, 3.0, 1e-9);
  OpticalPixel longer = px;
  longer.integration_time = 4.0 * px.integration_time;
  // Signal ∝ T, noise ∝ √T → SNR ∝ √T... here noise charge = sqrt(2qI·T/2):
  EXPECT_NEAR(longer.single_frame_snr(5e-6) / s1, 2.0, 1e-6);
}

// ------------------------------------------------------------------ scan ----

TEST(Scan, FrameTimeScalesWithArray) {
  ScanTiming scan;
  chip::ElectrodeArray small(64, 64, 20.0_um), large(320, 320, 20.0_um);
  EXPECT_LT(scan.frame_time(small), scan.frame_time(large));
  EXPECT_GT(scan.frame_rate(small), scan.frame_rate(large));
}

TEST(Scan, PaperArrayFrameRateAboveVideoRate) {
  // 102k pixels over 8 ADCs at 1 Msps -> ~70 fps: sensor readout is not the
  // bottleneck (claim C3/C4 coupling).
  ScanTiming scan;
  chip::ElectrodeArray a(320, 320, 20.0_um);
  EXPECT_GT(scan.frame_rate(a), 25.0);
}

TEST(Scan, MaxFramesWithinTransitBudget) {
  ScanTiming scan;
  chip::ElectrodeArray a(320, 320, 20.0_um);
  const std::size_t n = scan.max_frames_within_transit(a, 50e-6);
  EXPECT_GE(n, 10u);   // plenty of averaging during one pitch transit
  EXPECT_LE(n, 1000u);
  // Faster cells leave less time.
  EXPECT_LT(scan.max_frames_within_transit(a, 100e-6), n);
}

TEST(Scan, AcquisitionTimeLinearInFrames) {
  ScanTiming scan;
  chip::ElectrodeArray a(64, 64, 20.0_um);
  EXPECT_NEAR(scan.acquisition_time(a, 10), 10.0 * scan.frame_time(a), 1e-12);
}

// ----------------------------------------------------------------- frame ----

class FrameTest : public ::testing::Test {
 protected:
  chip::ElectrodeArray array_{32, 32, 20.0e-6};
  FrameSynthesizer synth_{array_, paper_pixel(), 298.15, 77};
  std::vector<FrameTarget> one_cell_{{{320.0e-6, 320.0e-6, 6.0e-6}, 5.0e-6}};
};

TEST_F(FrameTest, IdealFrameSignalAtParticlePixel) {
  const Grid2 f = synth_.ideal_frame(one_cell_);
  const GridCoord at = array_.nearest({320.0e-6, 320.0e-6});
  EXPECT_LT(f.at(static_cast<std::size_t>(at.col), static_cast<std::size_t>(at.row)), 0.0);
  // Far corner is clean.
  EXPECT_DOUBLE_EQ(f.at(0, 0), 0.0);
}

TEST_F(FrameTest, OffsetsAreDeterministicPerSeed) {
  FrameSynthesizer again(array_, paper_pixel(), 298.15, 77);
  for (std::size_t n = 0; n < synth_.offsets().size(); ++n)
    EXPECT_DOUBLE_EQ(synth_.offsets().data()[n], again.offsets().data()[n]);
  FrameSynthesizer other(array_, paper_pixel(), 298.15, 78);
  EXPECT_NE(synth_.offsets().data()[0], other.offsets().data()[0]);
}

TEST_F(FrameTest, CdsRemovesFixedPatternOffsets) {
  Rng rng(5);
  const Grid2 raw = synth_.raw_frame({}, rng);
  const Grid2 cds = synth_.cds_frame({}, rng);
  // Raw frame variance is dominated by the 3 fF offsets; CDS by ~40 aF noise.
  RunningStats raw_stats, cds_stats;
  for (double v : raw.data()) raw_stats.add(v);
  for (double v : cds.data()) cds_stats.add(v);
  EXPECT_GT(raw_stats.stddev(), 20.0 * cds_stats.stddev());
}

TEST_F(FrameTest, AveragingShrinksNoiseBySqrtN) {
  Rng rng(6);
  RunningStats s1, s64;
  for (int rep = 0; rep < 12; ++rep) {
    const Grid2 f1 = synth_.averaged_frame({}, rng, 1);
    const Grid2 f64 = synth_.averaged_frame({}, rng, 64);
    for (double v : f1.data()) s1.add(v);
    for (double v : f64.data()) s64.add(v);
  }
  EXPECT_NEAR(s1.stddev() / s64.stddev(), 8.0, 1.0);
}

TEST_F(FrameTest, InvalidTargetThrows) {
  EXPECT_THROW(synth_.ideal_frame({{{0, 0, 0}, 0.0}}), PreconditionError);
}

// ---------------------------------------------------------------- detect ----

class DetectTest : public ::testing::Test {
 protected:
  chip::ElectrodeArray array_{32, 32, 20.0e-6};
  CapacitivePixel pixel_ = paper_pixel();
  FrameSynthesizer synth_{array_, pixel_, 298.15, 99};

  std::vector<FrameTarget> targets_ = {
      {{100.0e-6, 100.0e-6, 6.0e-6}, 5.0e-6},
      {{420.0e-6, 180.0e-6, 6.0e-6}, 5.0e-6},
      {{300.0e-6, 520.0e-6, 6.0e-6}, 5.0e-6},
  };
  std::vector<Vec2> truth_ = {{100.0e-6, 100.0e-6}, {420.0e-6, 180.0e-6},
                              {300.0e-6, 520.0e-6}};
};

TEST_F(DetectTest, ThresholdFindsAllCellsInAveragedFrame) {
  Rng rng(7);
  const Grid2 frame = synth_.averaged_frame(targets_, rng, 64);
  const double sigma = synth_.cds_noise_sigma() / 8.0;
  const auto dets = detect_threshold(frame, array_, 6.0 * sigma);
  const MatchStats stats = match_detections(truth_, dets, 30e-6);
  EXPECT_EQ(stats.true_positives, 3);
  EXPECT_EQ(stats.false_negatives, 0);
  EXPECT_LE(stats.false_positives, 1);
  EXPECT_LT(stats.mean_localization_error, 15e-6);
}

TEST_F(DetectTest, SingleNoisyFrameMissesSmallCells) {
  // A 2 µm particle has single-frame SNR << 1: detection needs averaging.
  std::vector<FrameTarget> small{{{200.0e-6, 200.0e-6, 2.2e-6}, 2.0e-6}};
  Rng rng(8);
  const Grid2 one = synth_.cds_frame(small, rng);
  const double sigma = synth_.cds_noise_sigma();
  const auto dets1 = detect_threshold(one, array_, 5.0 * sigma);
  const MatchStats m1 = match_detections({{200.0e-6, 200.0e-6}}, dets1, 30e-6);
  EXPECT_EQ(m1.true_positives, 0);
  // 4096 averaged frames recover it.
  const Grid2 avg = synth_.averaged_frame(small, rng, 4096);
  const auto dets2 = detect_threshold(avg, array_, 5.0 * sigma / 64.0);
  const MatchStats m2 = match_detections({{200.0e-6, 200.0e-6}}, dets2, 30e-6);
  EXPECT_EQ(m2.true_positives, 1);
}

TEST_F(DetectTest, MatchedFilterBeatsThresholdAtLowSnr) {
  // At marginal SNR the matched filter should find at least as many cells
  // with no more false positives.
  std::vector<FrameTarget> faint{{{200.0e-6, 200.0e-6, 3.3e-6}, 3.0e-6},
                                 {{440.0e-6, 400.0e-6, 3.3e-6}, 3.0e-6}};
  const std::vector<Vec2> truth{{200.0e-6, 200.0e-6}, {440.0e-6, 400.0e-6}};
  Rng rng(9);
  int matched_wins = 0, tie = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const Grid2 frame = synth_.averaged_frame(faint, rng, 4);
    const double sigma = synth_.cds_noise_sigma() / 2.0;
    const auto th = match_detections(
        truth, detect_threshold(frame, array_, 4.5 * sigma), 40e-6);
    const auto mf = match_detections(
        truth, detect_matched(frame, array_, pixel_, 3e-6, 3.3e-6, 4.5 * sigma), 40e-6);
    const double th_score = th.true_positives - th.false_positives;
    const double mf_score = mf.true_positives - mf.false_positives;
    if (mf_score > th_score) ++matched_wins;
    if (mf_score == th_score) ++tie;
  }
  EXPECT_GE(matched_wins + tie, 7);
}

TEST_F(DetectTest, MatchStatsAccounting) {
  std::vector<Detection> dets{{{100.0e-6, 100.0e-6}, 1.0, 1},
                              {{900.0e-6, 900.0e-6}, 1.0, 1}};
  const MatchStats stats = match_detections(truth_, dets, 25e-6);
  EXPECT_EQ(stats.true_positives, 1);
  EXPECT_EQ(stats.false_positives, 1);
  EXPECT_EQ(stats.false_negatives, 2);
  EXPECT_NEAR(stats.recall(), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(stats.precision(), 0.5, 1e-12);
}

TEST_F(DetectTest, TwoAdjacentCellsMergeIntoOneCluster) {
  // Cells one pitch apart blur into one cluster at this pixel pitch — the
  // known resolution limit of pitch-sampled imaging.
  std::vector<FrameTarget> pair{{{200.0e-6, 200.0e-6, 6.0e-6}, 5.0e-6},
                                {{220.0e-6, 200.0e-6, 6.0e-6}, 5.0e-6}};
  Rng rng(10);
  const Grid2 frame = synth_.averaged_frame(pair, rng, 256);
  const auto dets = detect_threshold(frame, array_, synth_.cds_noise_sigma());
  EXPECT_EQ(dets.size(), 1u);
  EXPECT_GT(dets.front().pixel_count, 1);
}

TEST(Detect, KernelIsUnitEnergy) {
  chip::ElectrodeArray array(16, 16, 20.0e-6);
  const auto kernel = matched_kernel(paper_pixel(), array, 5e-6, 6e-6, 1);
  double energy = 0.0;
  for (double v : kernel) energy += v * v;
  EXPECT_NEAR(energy, 1.0, 1e-9);
}

TEST(Frame, PixelFaultsOverlayByKind) {
  const chip::ElectrodeArray array(4, 4, 20.0_um);
  chip::DefectMap defects(array);
  defects.set_state({1, 0}, chip::PixelState::kDead);
  defects.set_state({2, 1}, chip::PixelState::kStuckBackground);
  defects.set_state({3, 2}, chip::PixelState::kStuckCage);
  Grid2 frame(4, 4, 20.0_um, /*init=*/-7e-16);
  apply_pixel_faults(frame, defects, -4e-15);
  EXPECT_EQ(frame.at(1, 0), 0.0);      // dead: no reading
  EXPECT_EQ(frame.at(2, 1), 0.0);      // stuck background: no reading
  EXPECT_EQ(frame.at(3, 2), -4e-15);   // stuck cage: parked-phantom ΔC
  EXPECT_EQ(frame.at(0, 0), -7e-16);   // healthy pixels untouched
  // Controller-side bad-pixel masking is the same overlay with ΔC = 0.
  apply_pixel_faults(frame, defects, 0.0);
  EXPECT_EQ(frame.at(3, 2), 0.0);
  Grid2 wrong(3, 3, 20.0_um);
  EXPECT_THROW(apply_pixel_faults(wrong, defects, 0.0), PreconditionError);
}

TEST(Detect, AssociateNearestWithinGate) {
  const std::vector<Vec2> expected{{100e-6, 100e-6}, {200e-6, 100e-6}};
  std::vector<Detection> dets(3);
  dets[0].position = {205e-6, 102e-6};  // nearest to expected[1]
  dets[1].position = {101e-6, 99e-6};   // nearest to expected[0]
  dets[2].position = {400e-6, 400e-6};  // stray, out of every gate
  const std::vector<int> a = associate_detections(expected, dets, 30e-6);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0], 1);
  EXPECT_EQ(a[1], 0);
  // Each detection is used at most once: one detection cannot serve two
  // expected positions even when both are in gate.
  const std::vector<Vec2> both{{100e-6, 100e-6}, {110e-6, 100e-6}};
  const std::vector<Detection> one{dets[1]};
  const std::vector<int> b = associate_detections(both, one, 30e-6);
  EXPECT_EQ(b[0], 0);
  EXPECT_EQ(b[1], -1);
}

// ------------------------------------------- thresholded-frame identity ----

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// A crowd of cells on an odd-sized array (31 x 27), some near the edges and
// some close enough to merge, at heights that give a range of SNRs.
class ThresholdedFrameTest : public ::testing::Test {
 protected:
  chip::ElectrodeArray array_{31, 27, 20.0e-6};
  FrameSynthesizer synth_{array_, paper_pixel(), 298.15, 123};

  std::vector<FrameTarget> crowd(std::uint64_t seed) const {
    Rng pick(seed);
    std::vector<FrameTarget> out;
    for (int k = 0; k < 12; ++k)
      out.push_back({{pick.uniform(0.0, 620e-6), pick.uniform(0.0, 540e-6),
                      pick.uniform(5.5e-6, 20e-6)},
                     pick.uniform(3e-6, 6e-6)});
    return out;
  }
  double sigma(std::size_t frames) const {
    return synth_.cds_noise_sigma() / std::sqrt(static_cast<double>(frames));
  }
};

TEST_F(ThresholdedFrameTest, ExactWhereTheDetectorLooks) {
  for (const double k : {0.5, 1.0, 4.0})
    for (const std::size_t frames : {1u, 16u})
      for (const bool cached : {false, true}) {
        SCOPED_TRACE(testing::Message() << "k=" << k << " frames=" << frames
                                        << " cached=" << cached);
        const double threshold = k * sigma(frames);
        Rng dense_rng(3), cut_rng(3);
        if (cached) {  // a cached normal at entry, and an odd frame offset
          EXPECT_EQ(bits(dense_rng.normal()), bits(cut_rng.normal()));
        }
        const std::vector<FrameTarget> targets = crowd(17);
        const Grid2 dense = synth_.averaged_frame(targets, dense_rng, frames);
        const Grid2 cut = synth_.averaged_frame(targets, cut_rng, frames, threshold);
        std::size_t differing = 0;
        for (std::size_t n = 0; n < dense.size(); ++n) {
          const double d = dense.data()[n], c = cut.data()[n];
          if (d <= -threshold) {
            EXPECT_EQ(bits(c), bits(d)) << n;
          } else {
            EXPECT_GT(c, -threshold) << n;
          }
          differing += bits(c) != bits(d);
        }
        if (k == 4.0) {
          EXPECT_GT(differing, dense.size() / 2);  // the skip path ran
        }
        for (int draw = 0; draw < 3; ++draw)
          EXPECT_EQ(bits(dense_rng.normal()), bits(cut_rng.normal()));
        EXPECT_EQ(dense_rng(), cut_rng());
      }
  Rng rng(1);
  EXPECT_THROW(synth_.averaged_frame({}, rng, 4, 0.0), PreconditionError);
}

TEST_F(ThresholdedFrameTest, DetectionsAreIdenticalOnDenseAndThresholdedFrames) {
  Rng defect_rng(8);
  const chip::DefectMap defects = chip::sample_defects(array_, 0.03, defect_rng);
  for (const std::uint64_t seed : {1u, 2u, 3u})
    for (const std::size_t frames : {1u, 16u, 64u})
      for (const int overlay : {0, 1, 2}) {  // none, stuck-cage phantoms, masked
        SCOPED_TRACE(testing::Message() << "seed=" << seed << " frames=" << frames
                                        << " overlay=" << overlay);
        const double threshold = 4.0 * sigma(frames);
        const std::vector<FrameTarget> targets = crowd(seed + 40);
        Rng dense_rng(seed), cut_rng(seed);
        Grid2 dense = synth_.averaged_frame(targets, dense_rng, frames);
        Grid2 cut = synth_.averaged_frame(targets, cut_rng, frames, threshold);
        if (overlay > 0) {
          const double stuck_dc = overlay == 1 ? -4.0 * threshold : 0.0;
          apply_pixel_faults(dense, defects, stuck_dc);
          apply_pixel_faults(cut, defects, stuck_dc);
        }
        const std::vector<Detection> a = detect_threshold(dense, array_, threshold);
        const std::vector<Detection> b = detect_threshold(cut, array_, threshold);
        ASSERT_EQ(a.size(), b.size());
        EXPECT_FALSE(a.empty());
        for (std::size_t n = 0; n < a.size(); ++n) {
          EXPECT_EQ(bits(a[n].position.x), bits(b[n].position.x)) << n;
          EXPECT_EQ(bits(a[n].position.y), bits(b[n].position.y)) << n;
          EXPECT_EQ(bits(a[n].score), bits(b[n].score)) << n;
          EXPECT_EQ(a[n].pixel_count, b[n].pixel_count) << n;
        }
      }
}

// ------------------------------------------------ greedy matcher oracle ----

// The repeated full-scan greedy matcher: each step takes the nearest free
// pair within the gate, lowest point and then detection index at equal
// distance. Returns (point, detection, distance) in the order taken.
struct OraclePair {
  std::size_t point, detection;
  double distance;
};
std::vector<OraclePair> cubic_greedy(const std::vector<Vec2>& points,
                                     const std::vector<Detection>& dets, double gate) {
  std::vector<std::uint8_t> point_used(points.size(), 0), det_used(dets.size(), 0);
  std::vector<OraclePair> taken;
  while (true) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t bp = 0, bd = 0;
    bool found = false;
    for (std::size_t p = 0; p < points.size(); ++p) {
      if (point_used[p]) continue;
      for (std::size_t d = 0; d < dets.size(); ++d) {
        if (det_used[d]) continue;
        const double dist = (points[p] - dets[d].position).norm();
        if (dist <= gate && dist < best) {
          best = dist;
          bp = p;
          bd = d;
          found = true;
        }
      }
    }
    if (!found) break;
    point_used[bp] = 1;
    det_used[bd] = 1;
    taken.push_back({bp, bd, best});
  }
  return taken;
}

TEST(Detect, GreedyMatchersAgreeWithCubicOracleUnderTies) {
  // Integer lattice coordinates make equal distances common (3-4-5, mirror
  // images) and put pairs exactly on the gate.
  const double gate = 5.0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng pick(seed);
    const auto lattice = [&] {
      return Vec2{static_cast<double>(pick.uniform_int(0, 12)),
                  static_cast<double>(pick.uniform_int(0, 12))};
    };
    std::vector<Vec2> points(static_cast<std::size_t>(pick.uniform_int(0, 14)));
    for (Vec2& p : points) p = lattice();
    std::vector<Detection> dets(static_cast<std::size_t>(pick.uniform_int(0, 14)));
    for (Detection& d : dets) d.position = lattice();
    SCOPED_TRACE(testing::Message() << "seed=" << seed);

    const std::vector<OraclePair> oracle = cubic_greedy(points, dets, gate);
    std::vector<int> expect(points.size(), -1);
    double error_sum = 0.0;
    for (const OraclePair& p : oracle) {
      expect[p.point] = static_cast<int>(p.detection);
      error_sum += p.distance;
    }
    EXPECT_EQ(associate_detections(points, dets, gate), expect);

    const MatchStats stats = match_detections(points, dets, gate);
    const int tp = static_cast<int>(oracle.size());
    EXPECT_EQ(stats.true_positives, tp);
    EXPECT_EQ(stats.false_negatives, static_cast<int>(points.size()) - tp);
    EXPECT_EQ(stats.false_positives, static_cast<int>(dets.size()) - tp);
    EXPECT_EQ(bits(stats.mean_localization_error), bits(tp > 0 ? error_sum / tp : 0.0));
  }
  // A pair exactly at the gate is taken; one just beyond it is not.
  const std::vector<Detection> at_gate{{{3.0, 4.0}, 1.0, 1}};
  EXPECT_EQ(associate_detections({{0.0, 0.0}}, at_gate, 5.0), std::vector<int>{0});
  EXPECT_EQ(associate_detections({{0.0, 0.0}}, at_gate, std::nextafter(5.0, 0.0)),
            std::vector<int>{-1});
}

TEST(Detect, ThresholdValidation) {
  Grid2 frame(4, 4, 20.0e-6);
  chip::ElectrodeArray array(4, 4, 20.0e-6);
  EXPECT_THROW(detect_threshold(frame, array, 0.0), PreconditionError);
  EXPECT_THROW(match_detections({}, {}, 0.0), PreconditionError);
}

}  // namespace
}  // namespace biochip::sensor
