// Experiment SN-1 — readout-chain engineering: frame rate vs array size and
// ADC provisioning, capacitive signal scale vs pixel geometry, and the CDS
// ablation. Complements C4 (which fixes the chain and sweeps averaging).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <iostream>

#include "chip/defects.hpp"
#include "chip/device.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "sensor/capacitive.hpp"
#include "sensor/detect.hpp"
#include "sensor/frame.hpp"
#include "sensor/scan.hpp"

using namespace biochip;
using namespace biochip::units;

namespace {

void print_frame_rate_table() {
  print_banner(std::cout, "SN-1: frame rate vs array size and ADC provisioning");
  Table t({"array", "ADCs", "ADC rate [Msps]", "frame time [ms]", "frame rate [fps]"});
  for (int side : {64, 320, 1024}) {
    const chip::ElectrodeArray array(side, side, 20.0_um);
    for (int adcs : {1, 8, 32}) {
      sensor::ScanTiming scan;
      scan.adc_channels = adcs;
      t.row()
          .cell(std::to_string(side) + "x" + std::to_string(side))
          .cell(adcs)
          .cell(scan.adc_rate / 1e6, 1)
          .cell(scan.frame_time(array) * 1e3, 2)
          .cell(scan.frame_rate(array), 1);
    }
  }
  t.print(std::cout);
  std::cout << "\nShape check: the paper-scale array reads at video rate with a\n"
               "modest 8-ADC bank; readout parallelism, not pixel physics, sets\n"
               "the frame rate.\n";
}

void print_signal_vs_geometry() {
  print_banner(std::cout, "SN-1: capacitive signal vs pixel geometry (5 um cell)");
  Table t({"pitch [um]", "C_base [fF]", "dC [aF]", "dC/C [ppm]", "1-frame SNR"});
  for (double pitch_um : {10.0, 20.0, 40.0, 80.0}) {
    sensor::CapacitivePixel px;
    const double metal = 0.8 * pitch_um * 1e-6;
    px.electrode_area = metal * metal;
    px.chamber_height = 100.0_um;
    px.sense_voltage = 3.3;
    const double c0 = px.baseline_capacitance();
    const double dc = px.delta_c(5.0_um, 5.5_um, 0.0);
    t.row()
        .cell(pitch_um, 0)
        .cell(c0 * 1e15, 3)
        .cell(-dc * 1e18, 1)
        .cell(-dc / c0 * 1e6, 1)
        .cell(px.single_frame_snr(5.0_um, 5.5_um, 298.15), 2);
  }
  t.print(std::cout);
  std::cout << "\nShape check: single-frame SNR peaks at the cell-sized (20 um)\n"
               "pixel — oversized pixels dilute the signal, undersized ones lose\n"
               "collection area — matching the paper's point that the pitch should\n"
               "track cell size, not the technology minimum.\n";
}

void print_cds_ablation() {
  print_banner(std::cout, "SN-1 ablation: raw vs CDS readout (fixed-pattern offsets)");
  const chip::ElectrodeArray array(64, 64, 20.0_um);
  sensor::CapacitivePixel px;
  px.electrode_area = 16.0_um * 16.0_um;
  px.chamber_height = 100.0_um;
  px.sense_voltage = 3.3;
  sensor::FrameSynthesizer synth(array, px, 298.15, 555);
  std::vector<sensor::FrameTarget> cell{{{640.0_um, 640.0_um, 5.5_um}, 5.0_um}};
  Rng rng(6);
  RunningStats raw_stats, cds_stats;
  for (int rep = 0; rep < 4; ++rep) {
    const Grid2 raw = synth.raw_frame(cell, rng);
    const Grid2 cds = synth.cds_frame(cell, rng);
    for (double v : raw.data()) raw_stats.add(v);
    for (double v : cds.data()) cds_stats.add(v);
  }
  const double signal = -px.delta_c(5.0_um, 5.5_um, 0.0);
  Table t({"readout", "pixel sigma [aF]", "signal/sigma"});
  t.row().cell("raw (offsets in)").cell(raw_stats.stddev() * 1e18, 1).cell(
      signal / raw_stats.stddev(), 2);
  t.row().cell("CDS").cell(cds_stats.stddev() * 1e18, 1).cell(
      signal / cds_stats.stddev(), 2);
  t.print(std::cout);
  std::cout << "\nShape check: without CDS the 3 fF fixed-pattern dispersion buries\n"
               "the ~" << static_cast<int>(signal * 1e18)
            << " aF cell signal; CDS recovers it — the design choice of the\n"
               "ISSCC'04 sensor (paper ref [4]).\n";
}

void print_optical_comparison() {
  print_banner(std::cout,
               "SN-1: capacitive vs optical pixel (the paper's two options)");
  Table t({"particle radius [um]", "capacitive 1-frame SNR", "optical 1-frame SNR",
           "capacitive N for 5-sigma", "optical N for 5-sigma"});
  sensor::CapacitivePixel cap;
  cap.electrode_area = 16.0_um * 16.0_um;
  cap.chamber_height = 100.0_um;
  cap.sense_voltage = 3.3;
  sensor::OpticalPixel opt;
  opt.photodiode_area = 10.0_um * 10.0_um;
  for (double r_um : {1.0, 2.0, 5.0, 10.0}) {
    const double r = r_um * 1e-6;
    const double s_cap = cap.single_frame_snr(r, r * 1.1, 298.15);
    const double s_opt = opt.single_frame_snr(r);
    auto frames_for = [](double snr1) {
      if (snr1 <= 0.0) return std::string("-");
      const double n = (5.0 / snr1) * (5.0 / snr1);
      return std::to_string(static_cast<long>(n < 1.0 ? 1.0 : std::ceil(n)));
    };
    t.row()
        .cell(r_um, 1)
        .cell(s_cap, 2)
        .cell(s_opt, 2)
        .cell(frames_for(s_cap))
        .cell(frames_for(s_opt));
  }
  t.print(std::cout);
  std::cout << "\nShape check: both per-pixel sensors the paper mentions resolve a\n"
               "cell-sized particle in one frame; the optical pixel wins on raw SNR\n"
               "(photon flux is cheap) while the capacitive pixel needs no\n"
               "illumination optics — the trade the authors actually faced between\n"
               "refs [3] and [4].\n";
}

void bm_scan_model(benchmark::State& state) {
  const chip::ElectrodeArray array(static_cast<int>(state.range(0)),
                                   static_cast<int>(state.range(0)), 20.0_um);
  sensor::ScanTiming scan;
  for (auto _ : state) benchmark::DoNotOptimize(scan.frame_time(array));
}

void bm_matched_filter(benchmark::State& state) {
  const chip::ElectrodeArray array(static_cast<int>(state.range(0)),
                                   static_cast<int>(state.range(0)), 20.0_um);
  sensor::CapacitivePixel px;
  px.electrode_area = 16.0_um * 16.0_um;
  px.chamber_height = 100.0_um;
  sensor::FrameSynthesizer synth(array, px, 298.15, 555);
  Rng rng(8);
  const Grid2 frame = synth.cds_frame({{{320.0_um, 320.0_um, 5.5_um}, 5.0_um}}, rng);
  for (auto _ : state) {
    auto dets = sensor::detect_matched(frame, array, px, 5.0_um, 5.5_um,
                                       synth.cds_noise_sigma());
    benchmark::DoNotOptimize(dets.data());
  }
}

// One closed-loop sense+track step at paper scale (range(0)² pixels): an
// averaged frame of 128 cells thresholded as the control loop senses it
// (16 frames, 4σ, 1% defects masked to zero), threshold detection and
// association of the detections to the cells' trap centers. Counters are
// per step and deterministic: pixels, Box-Muller pairs evaluated,
// detections and gated candidate pairs.
void bm_sense_track(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const chip::ElectrodeArray array(side, side, 20.0_um);
  sensor::CapacitivePixel px;
  px.electrode_area = 16.0_um * 16.0_um;
  px.chamber_height = 100.0_um;
  px.sense_voltage = 3.3;
  const sensor::FrameSynthesizer synth(array, px, 298.15, 555);
  Rng defect_rng(21);
  const chip::DefectMap defects = chip::sample_defects(array, 0.01, defect_rng);
  // Cells on distinct cage sites (every other electrode), a few microns off
  // their trap centers.
  Rng place(22);
  std::vector<sensor::FrameTarget> targets;
  std::vector<Vec2> expected;
  while (targets.size() < 128) {
    const GridCoord site{2 * static_cast<int>(place.uniform_int(1, side / 2 - 2)),
                         2 * static_cast<int>(place.uniform_int(1, side / 2 - 2))};
    const Vec2 center = array.center(site);
    if (std::find(expected.begin(), expected.end(), center) != expected.end()) continue;
    expected.push_back(center);
    targets.push_back({{center.x + place.uniform(-3.0_um, 3.0_um),
                        center.y + place.uniform(-3.0_um, 3.0_um), 9.0_um},
                       3.5_um});
  }
  constexpr std::size_t kFrames = 16;
  const double threshold = 4.0 * synth.cds_noise_sigma() / std::sqrt(double{kFrames});
  const double gate = 30.0_um;
  constexpr std::uint64_t kSenseSeed = 23;

  std::vector<sensor::Detection> dets;
  for (auto _ : state) {
    Rng sense(kSenseSeed);  // the same draws every step: constant work
    Grid2 frame = synth.averaged_frame(targets, sense, kFrames, threshold);
    sensor::apply_pixel_faults(frame, defects, 0.0);
    dets = sensor::detect_threshold(frame, array, threshold);
    const std::vector<int> assigned = sensor::associate_detections(expected, dets, gate);
    benchmark::DoNotOptimize(assigned.data());
  }
  std::size_t gated = 0;
  for (const Vec2& e : expected)
    for (const sensor::Detection& d : dets) gated += (e - d.position).norm() <= gate;
  // Pairs evaluated: the noise call averaged_frame makes, replayed on its
  // noiseless frame with the same draws.
  Grid2 ideal = synth.ideal_frame(targets);
  Rng sense(kSenseSeed);
  const std::size_t pairs = sense.add_normal(
      ideal.data(), synth.cds_noise_sigma() / std::sqrt(double{kFrames}), -threshold);
  state.counters["pixels"] = static_cast<double>(array.electrode_count());
  state.counters["exact_pairs"] = static_cast<double>(pairs);
  state.counters["detections"] = static_cast<double>(dets.size());
  state.counters["gated_pairs"] = static_cast<double>(gated);
}

BENCHMARK(bm_scan_model)->Arg(320)->Unit(benchmark::kNanosecond);
BENCHMARK(bm_sense_track)->Arg(320)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_matched_filter)->Arg(64)->Arg(320)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_frame_rate_table();
  print_signal_vs_geometry();
  print_cds_ablation();
  print_optical_comparison();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
