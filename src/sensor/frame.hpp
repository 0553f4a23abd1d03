#pragma once
/// \file frame.hpp
/// \brief Synthesis of (noisy) sensor frames from the physical scene.
///
/// A frame is a Grid2 of ΔC values (capacitance change vs. dry baseline),
/// one node per pixel, spacing = electrode pitch. The synthesizer owns the
/// per-pixel fixed-pattern offsets so raw vs. CDS readout can be compared.

#include <cstdint>
#include <optional>
#include <vector>

#include "chip/defects.hpp"
#include "chip/electrode_array.hpp"
#include "common/grid.hpp"
#include "common/rng.hpp"
#include "sensor/capacitive.hpp"
#include "sensor/optical.hpp"

namespace biochip::sensor {

/// Minimal particle description for imaging.
struct FrameTarget {
  Vec3 position;        ///< center [m] (chip-plane x,y; z above surface)
  double radius = 0.0;  ///< [m]
};

class FrameSynthesizer {
 public:
  /// `seed` fixes the per-pixel fixed-pattern offsets (a property of the
  /// chip, not of the frame).
  FrameSynthesizer(chip::ElectrodeArray array, CapacitivePixel pixel, double temperature,
                   std::uint64_t seed);

  const chip::ElectrodeArray& array() const { return array_; }
  const CapacitivePixel& pixel() const { return pixel_; }
  /// The chip's fixed-pattern offset map [F].
  const Grid2& offsets() const { return offsets_; }

  /// Noiseless ΔC image of the scene.
  Grid2 ideal_frame(const std::vector<FrameTarget>& targets) const;
  /// Single raw read: ideal + fixed-pattern offsets + random noise.
  Grid2 raw_frame(const std::vector<FrameTarget>& targets, Rng& rng) const;
  /// Correlated-double-sampled read: offsets cancel, random noise ×√2
  /// (two samples are differenced).
  Grid2 cds_frame(const std::vector<FrameTarget>& targets, Rng& rng) const;
  /// Mean of n CDS frames (the claim-C4 averaging path).
  ///
  /// Without `threshold` every pixel carries its full noise draw. With a
  /// `threshold` (a positive ΔC magnitude [F], the one `detect_threshold`
  /// will use), the frame is exact only where that detector can see it:
  ///  * every pixel whose dense value is <= -threshold is bitwise the dense
  ///    value, so detections, scores and pixel counts are identical;
  ///  * every other pixel reads above -threshold: a pixel whose noise
  ///    cannot reach -threshold (`Rng::add_normal` with cutoff -threshold)
  ///    may read its noiseless ΔC instead;
  ///  * `rng` ends in the state the dense call leaves.
  /// Only the threshold detector may read such a frame: its sub-threshold
  /// pixels are not noise samples (use the dense path for statistics).
  Grid2 averaged_frame(const std::vector<FrameTarget>& targets, Rng& rng,
                       std::size_t n_frames,
                       std::optional<double> threshold = std::nullopt) const;

  /// Per-frame random-noise σ of a CDS read [F].
  double cds_noise_sigma() const;

 private:
  chip::ElectrodeArray array_;
  CapacitivePixel pixel_;
  double temperature_;
  Grid2 offsets_;
};

/// Overlay manufacturing pixel faults on a synthesized ΔC frame (the sensor
/// side of `chip::DefectMap`): dead and stuck-background pixels read no
/// signal (ΔC = 0 — their readout or CDS chain is broken), stuck-cage pixels
/// read the constant `stuck_cage_dc` (a large negative ΔC that mimics a
/// permanently parked particle — the false-positive source a closed-loop
/// tracker must reject via DefectMap lookups). Frame and map must share the
/// array shape.
void apply_pixel_faults(Grid2& frame, const chip::DefectMap& defects,
                        double stuck_cage_dc);

/// Optical counterpart: frames of photocurrent *change* ΔI per pixel
/// (negative under a shadowing particle, so the same detectors apply).
/// Noise is shot noise on the baseline photo+dark current.
class OpticalFrameSynthesizer {
 public:
  OpticalFrameSynthesizer(chip::ElectrodeArray array, OpticalPixel pixel);

  const chip::ElectrodeArray& array() const { return array_; }
  const OpticalPixel& pixel() const { return pixel_; }

  /// Noiseless ΔI image of the scene [A].
  Grid2 ideal_frame(const std::vector<FrameTarget>& targets) const;
  /// Single integration with shot noise.
  Grid2 noisy_frame(const std::vector<FrameTarget>& targets, Rng& rng) const;
  /// Mean of n frames (shot noise averages down by √n).
  Grid2 averaged_frame(const std::vector<FrameTarget>& targets, Rng& rng,
                       std::size_t n_frames) const;

  /// Per-frame current-referred noise σ [A].
  double noise_sigma() const;

 private:
  chip::ElectrodeArray array_;
  OpticalPixel pixel_;
};

}  // namespace biochip::sensor
