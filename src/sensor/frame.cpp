#include "sensor/frame.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"

namespace biochip::sensor {

FrameSynthesizer::FrameSynthesizer(chip::ElectrodeArray array, CapacitivePixel pixel,
                                   double temperature, std::uint64_t seed)
    : array_(array), pixel_(pixel), temperature_(temperature),
      offsets_(static_cast<std::size_t>(array.cols()), static_cast<std::size_t>(array.rows()),
               array.pitch()) {
  BIOCHIP_REQUIRE(temperature > 0.0, "temperature must be positive");
  Rng rng(seed);
  for (double& v : offsets_.data()) v = rng.normal(0.0, pixel_.offset_sigma_farads);
}

Grid2 FrameSynthesizer::ideal_frame(const std::vector<FrameTarget>& targets) const {
  Grid2 frame(static_cast<std::size_t>(array_.cols()),
              static_cast<std::size_t>(array_.rows()), array_.pitch());
  // Each particle contributes to pixels within a 2-pitch lateral window.
  const double window = 2.0 * array_.pitch();
  for (const FrameTarget& t : targets) {
    BIOCHIP_REQUIRE(t.radius > 0.0, "target radius must be positive");
    const GridCoord lo = array_.nearest({t.position.x - window, t.position.y - window});
    const GridCoord hi = array_.nearest({t.position.x + window, t.position.y + window});
    // delta_c(r, z, lateral), with its per-particle factor taken once.
    const double on_axis = pixel_.on_axis_delta_c(t.radius, t.position.z);
    for (int r = lo.row; r <= hi.row; ++r)
      for (int c = lo.col; c <= hi.col; ++c) {
        const Vec2 ctr = array_.center({c, r});
        const double lateral = (ctr - Vec2{t.position.x, t.position.y}).norm();
        frame.at(static_cast<std::size_t>(c), static_cast<std::size_t>(r)) +=
            on_axis * pixel_.lateral_falloff(lateral);
      }
  }
  return frame;
}

Grid2 FrameSynthesizer::raw_frame(const std::vector<FrameTarget>& targets, Rng& rng) const {
  Grid2 frame = ideal_frame(targets);
  const double sigma = pixel_.frame_noise_sigma(temperature_);
  for (std::size_t n = 0; n < frame.size(); ++n)
    frame.data()[n] += offsets_.data()[n] + rng.normal(0.0, sigma);
  return frame;
}

Grid2 FrameSynthesizer::cds_frame(const std::vector<FrameTarget>& targets, Rng& rng) const {
  Grid2 frame = ideal_frame(targets);
  const double sigma = cds_noise_sigma();
  for (double& v : frame.data()) v += rng.normal(0.0, sigma);
  return frame;
}

Grid2 FrameSynthesizer::averaged_frame(const std::vector<FrameTarget>& targets, Rng& rng,
                                       std::size_t n_frames,
                                       std::optional<double> threshold) const {
  BIOCHIP_REQUIRE(n_frames >= 1, "need at least one frame");
  BIOCHIP_REQUIRE(!threshold || *threshold > 0.0, "threshold must be positive");
  Grid2 acc = ideal_frame(targets);
  // Equivalent to averaging n CDS frames: noise σ scales by 1/√n.
  const double sigma = cds_noise_sigma() / std::sqrt(static_cast<double>(n_frames));
  rng.add_normal(acc.data(), sigma,
                 threshold ? std::optional<double>(-*threshold) : std::nullopt);
  return acc;
}

double FrameSynthesizer::cds_noise_sigma() const {
  return pixel_.frame_noise_sigma(temperature_) * std::sqrt(2.0);
}

void apply_pixel_faults(Grid2& frame, const chip::DefectMap& defects,
                        double stuck_cage_dc) {
  BIOCHIP_REQUIRE(frame.nx() == static_cast<std::size_t>(defects.cols()) &&
                      frame.ny() == static_cast<std::size_t>(defects.rows()),
                  "frame and defect map shapes differ");
  // Both are row-major (row · cols + col), so one linear pass covers them.
  // Defects are sparse: eight OK pixels (kOk = 0) pass per word compare.
  static_assert(static_cast<std::uint8_t>(chip::PixelState::kOk) == 0);
  const std::vector<chip::PixelState>& states = defects.states();
  std::vector<double>& values = frame.data();
  for (std::size_t base = 0; base < states.size(); base += 8) {
    const std::size_t end = std::min(base + 8, states.size());
    if (end - base == 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, states.data() + base, sizeof word);
      if (word == 0) continue;
    }
    for (std::size_t n = base; n < end; ++n) {
      if (states[n] == chip::PixelState::kOk) continue;
      values[n] = states[n] == chip::PixelState::kStuckCage ? stuck_cage_dc : 0.0;
    }
  }
}

OpticalFrameSynthesizer::OpticalFrameSynthesizer(chip::ElectrodeArray array,
                                                 OpticalPixel pixel)
    : array_(array), pixel_(pixel) {
  BIOCHIP_REQUIRE(pixel.photodiode_area > 0.0, "photodiode area must be positive");
}

Grid2 OpticalFrameSynthesizer::ideal_frame(const std::vector<FrameTarget>& targets) const {
  Grid2 frame(static_cast<std::size_t>(array_.cols()),
              static_cast<std::size_t>(array_.rows()), array_.pitch());
  const double window = 2.0 * array_.pitch();
  for (const FrameTarget& t : targets) {
    BIOCHIP_REQUIRE(t.radius > 0.0, "target radius must be positive");
    const GridCoord lo = array_.nearest({t.position.x - window, t.position.y - window});
    const GridCoord hi = array_.nearest({t.position.x + window, t.position.y + window});
    for (int r = lo.row; r <= hi.row; ++r)
      for (int c = lo.col; c <= hi.col; ++c) {
        const Vec2 ctr = array_.center({c, r});
        const double lateral = (ctr - Vec2{t.position.x, t.position.y}).norm();
        frame.at(static_cast<std::size_t>(c), static_cast<std::size_t>(r)) -=
            pixel_.delta_current(t.radius, lateral);
      }
  }
  return frame;
}

Grid2 OpticalFrameSynthesizer::noisy_frame(const std::vector<FrameTarget>& targets,
                                           Rng& rng) const {
  Grid2 frame = ideal_frame(targets);
  const double sigma = noise_sigma();
  for (double& v : frame.data()) v += rng.normal(0.0, sigma);
  return frame;
}

Grid2 OpticalFrameSynthesizer::averaged_frame(const std::vector<FrameTarget>& targets,
                                              Rng& rng, std::size_t n_frames) const {
  BIOCHIP_REQUIRE(n_frames >= 1, "need at least one frame");
  Grid2 frame = ideal_frame(targets);
  const double sigma = noise_sigma() / std::sqrt(static_cast<double>(n_frames));
  for (double& v : frame.data()) v += rng.normal(0.0, sigma);
  return frame;
}

double OpticalFrameSynthesizer::noise_sigma() const {
  // Charge noise over the integration time, referred back to current.
  return pixel_.charge_noise() / pixel_.integration_time;
}

}  // namespace biochip::sensor
