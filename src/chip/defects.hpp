#pragma once
/// \file defects.hpp
/// \brief Manufacturing-defect and yield modeling for the electrode array.
///
/// A classic consequence of the array architecture (and a reason the
/// "cheaper, better, faster" economics of §1 work): a defective pixel does
/// not kill the die. A cage site only needs its own pixel and the
/// surrounding ring functional, and a defective site can be side-stepped by
/// the CAD layer. This module quantifies that graceful degradation against
/// the classic Poisson die-yield model that would apply if every pixel had
/// to work.

#include <cstdint>
#include <vector>

#include "chip/electrode_array.hpp"
#include "common/rng.hpp"

namespace biochip::chip {

/// Per-pixel manufacturing state.
enum class PixelState : std::uint8_t {
  kOk = 0,
  kStuckBackground,  ///< latch stuck: always counter-phase (no cage here)
  kStuckCage,        ///< latch stuck: always in-phase (permanent local trap)
  kDead,             ///< open/short: electrode floating or grounded
};

/// Defect map over an array.
class DefectMap {
 public:
  explicit DefectMap(const ElectrodeArray& array);

  int cols() const { return cols_; }
  int rows() const { return rows_; }
  PixelState state(GridCoord c) const;
  /// Every pixel's state, row-major (row · cols + col).
  const std::vector<PixelState>& states() const { return states_; }
  void set_state(GridCoord c, PixelState s);
  /// Number of non-OK pixels.
  std::size_t defect_count() const;

 private:
  int cols_;
  int rows_;
  std::vector<PixelState> states_;
};

/// Sample a defect map with the given defect probability per pixel
/// (defect kind chosen uniformly among the three failure modes).
DefectMap sample_defects(const ElectrodeArray& array, double defect_probability,
                         Rng& rng);

/// A cage site is usable iff its own pixel and the full ring of neighbors
/// within `ring` pitches are OK (the cage needs its counter-phase wall).
bool site_usable(const ElectrodeArray& array, const DefectMap& defects, GridCoord site,
                 int ring = 1);

/// Usable fraction of the standard cage lattice under a defect map.
double usable_cage_fraction(const ElectrodeArray& array, const DefectMap& defects,
                            int spacing = 2, int ring = 1);

/// Row-major (row · cols + col) mask of sites a cage must not occupy under
/// the defect map: 1 where `site_usable` is false. Same semantics as
/// site_usable, so edge sites (no closed counter-phase wall) are blocked
/// too. Ready to drop into `cad::RouteConfig::blocked` — the seam that makes
/// the CAD layer side-step defective sites.
std::vector<std::uint8_t> blocked_site_mask(const ElectrodeArray& array,
                                            const DefectMap& defects, int ring = 1);

/// Poisson yield if the die required *every* pixel functional:
/// Y = exp(-p_defect · N_pixels). This is the classic memory-without-repair
/// bound the array architecture escapes.
double all_good_yield(const ElectrodeArray& array, double defect_probability);

/// Expected usable cage fraction (analytic): each site needs (2·ring+1)²
/// OK pixels ⇒ E[usable] = (1-p)^((2r+1)²).
double expected_usable_fraction(double defect_probability, int ring = 1);

}  // namespace biochip::chip
