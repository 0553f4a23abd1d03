#pragma once
/// \file simulation.hpp
/// \brief Coupled actuation ↔ particle-dynamics simulation.
///
/// Whole-array field solves per actuation step are intractable at 100k
/// electrodes, and unnecessary: a cage's near field is translation-invariant
/// across the uniform array. The engine therefore calibrates the harmonic
/// cage surrogate once (full local solve, see BiochipDevice::calibrate_cage)
/// and evaluates every active cage as a translated copy; outside all cages
/// the background field is laterally uniform (zero DEP drive, gravity only).
/// The surrogate-vs-solver error is quantified in `bench_field_solver` and
/// bounded on capture shells in tests/test_chip.cpp.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "chip/cage.hpp"
#include "chip/device.hpp"
#include "common/rng.hpp"
#include "field/analytic.hpp"
#include "physics/dynamics.hpp"
#include "physics/medium.hpp"

namespace biochip::core {

/// ∇E_rms² field assembled from translated copies of a calibrated unit cage.
///
/// Traps sit on the regular electrode pitch grid, so the nearest active cage
/// is found by rounding the query position to site coordinates and probing
/// the few sites whose centers can lie within the capture radius against a
/// flat hash set of active sites — O(1) per query, independent of how many
/// cages are live. That is what keeps whole-array episodes (thousands of
/// simultaneous cages, claim C1) linear in cage count.
class CageFieldModel {
 public:
  /// `unit`: calibrated cage (its center defines the per-site offset).
  /// `pitch`: electrode pitch; `capture_radius`: quadratic-region extent.
  CageFieldModel(const field::HarmonicCage& unit, double pitch, double capture_radius);

  const field::HarmonicCage& unit() const { return unit_; }
  double capture_radius() const { return capture_radius_; }

  /// Trap center (in chamber coordinates) for a cage parked at `site`.
  Vec3 trap_center(GridCoord site) const;

  /// Replace the active cage site list (one entry per live cage). When the
  /// new list has the same length as the current one and differs in only a
  /// few positions (the tow / parallel-transport pattern: one cage moves per
  /// hop, everyone else stays parked), the spatial index is updated
  /// incrementally — one erase + one insert per changed entry — instead of
  /// being rebuilt, so per-hop cost stops scaling with the live cage count.
  /// Any other change falls back to a full O(sites) rebuild.
  void set_sites(std::vector<GridCoord> sites);
  const std::vector<GridCoord>& sites() const { return sites_; }

  /// ∇E_rms² at p: the nearest active cage within the capture radius
  /// dominates; elsewhere the drive is zero (uniform background field).
  /// O(1): probes the spatial hash around p. Exact distance ties go to the
  /// smallest (row, col) site — the same deterministic rule on every path,
  /// so the hashed scan and the linear oracle agree even at midpoints
  /// exactly equidistant between trap centers.
  Vec3 grad_erms2(Vec3 p) const;

  /// Reference implementation: linear scan over the active site list. Same
  /// field as grad_erms2, including tie-breaking; kept as the equivalence
  /// oracle for tests and as the fallback when the capture radius spans more
  /// candidate sites than there are active cages.
  Vec3 grad_erms2_linear(Vec3 p) const;

  /// The trap basin p sits in. A trap's basin is the part of its capture
  /// ball where it is the nearest active trap; since every trap shares the
  /// unit cage's height, the walls between basins are vertical bisector
  /// planes, and each basin is convex.
  struct Basin {
    bool found = false;  ///< p lies within the capture radius of an active trap
    GridCoord site;      ///< the trap whose drive acts at p (grad_erms2's pick)
    Vec3 center;         ///< its center
    /// Smaller of the xy distances from p, and from the trap center, to the
    /// nearest bisector plane shared with another active trap. Exact when
    /// below the query's `margin`; otherwise only known to be >= margin
    /// (infinity when no other trap is near enough to matter).
    double wall_gap = 0.0;
  };

  /// Basin query behind the exact in-basin stepper: the same nearest-trap
  /// pick as grad_erms2 (so `drive(b, p)` equals grad_erms2(p) bitwise) plus
  /// the bisector gap, resolved down to `margin`. O(1): the hashed box scan
  /// of grad_erms2 widened by 2·margin, then one more pass over the sites
  /// that can bound the basin within `margin` of p.
  Basin basin(Vec3 p, double margin) const;
  /// How far p may move before it can enter any active trap's capture ball
  /// (so the drive stays exactly zero until then): the distance to the
  /// nearest ball, capped at one pitch. Only meaningful where grad_erms2 is
  /// zero; O(1), one hashed box scan.
  double ball_clearance(Vec3 p) const;
  /// ∇E_rms² at p of the trap a basin query picked (zero when none).
  Vec3 drive(const Basin& b, Vec3 p) const { return b.found ? drive_from(b.center, p) : Vec3{}; }

 private:
  /// Visit every active site whose center may lie within `reach` of p on
  /// both lateral axes (a superset: degenerate configurations visit the
  /// whole site list). Visiting order is unspecified.
  template <typename Visit>
  void for_each_site_near(Vec3 p, double reach, Visit&& visit) const;
  /// The nearest-trap pick of grad_erms2 (`wall_gap` left at 0).
  Basin nearest(Vec3 p) const;
  /// O(1) membership probe of the active-site hash set.
  bool site_active(GridCoord site) const;
  /// Drive field of the cage parked at `center`, evaluated at p.
  Vec3 drive_from(Vec3 center, Vec3 p) const;
  void rebuild_index();
  void insert_key(std::uint64_t key);
  void erase_key(std::uint64_t key);

  field::HarmonicCage unit_;
  double pitch_;
  double capture_radius_;
  std::vector<GridCoord> sites_;

  // Flat open-addressed hash multiset of active sites (power-of-two slots,
  // linear probing; load factor <= 0.5). Each slot carries the multiplicity
  // of its key (duplicate sites in the list are legal), and deletion uses
  // backward shifting so probe chains never need tombstones.
  std::vector<std::uint64_t> slot_key_;
  std::vector<std::uint32_t> slot_count_;
  std::vector<std::uint8_t> slot_used_;
  std::size_t slot_mask_ = 0;
};

/// Outcome of dragging one cage (with its trapped particle) along a path.
struct TowReport {
  bool retained = true;        ///< particle stayed within the capture radius
  double max_lag = 0.0;        ///< worst particle-to-trap distance [m]
  double elapsed = 0.0;        ///< wall-clock time of the manipulation [s]
  std::size_t steps = 0;       ///< cage steps executed
  Vec3 final_position;         ///< particle position at the end
};

/// Integration work of one `ManipulationEngine::relax` call.
struct RelaxWork {
  std::size_t exact_steps = 0;  ///< exact in-basin (Ornstein-Uhlenbeck) steps
  std::size_t em_substeps = 0;  ///< Euler-Maruyama substeps of length dt
};

/// Physics-in-the-loop cage tow: advance the cage one site at a time at
/// `site_period` per step, integrating the particle between steps.
class ManipulationEngine {
 public:
  ManipulationEngine(const chip::BiochipDevice& device, const physics::Medium& medium,
                     const field::HarmonicCage& unit_cage, double capture_radius);

  const CageFieldModel& field_model() const { return field_; }
  /// Mutable access for callers that manage the active cage set themselves
  /// (e.g. `control::EpisodeRuntime` pushing each tick's live trap sites).
  CageFieldModel& field_model() { return field_; }
  physics::OverdampedIntegrator& integrator() { return integrator_; }

  /// Tow a particle along a site path (adjacent sites). The cage dwells
  /// `site_period` seconds per hop; the particle is integrated with the
  /// engine's dt. Other active cages (field_model().sites()) stay static.
  TowReport tow(physics::ParticleBody& particle, const std::vector<GridCoord>& path,
                double site_period, Rng& rng);

  /// Let a free (untrapped) particle settle for `duration` seconds.
  void settle(physics::ParticleBody& particle, double duration, Rng& rng);

  /// Advance a body by `substeps`·dt against the current (static) trap set.
  /// While the body qualifies for the in-basin test (`exact_basin`) it takes
  /// ONE exact Ornstein-Uhlenbeck step for all the remaining time; until
  /// then it takes Euler-Maruyama substeps, re-testing before each one (a
  /// body may switch to the exact step mid-call, never back). Draws from
  /// `rng` only; const and safe to call concurrently on distinct bodies.
  RelaxWork relax(physics::ParticleBody& body, std::size_t substeps, Rng& rng) const;

  /// Margin of the in-basin test, in units of the body's transition spread
  /// (`CageRelaxation::spread`, the stationary standard deviation, which
  /// bounds the spread at every step length). An 8σ excursion has odds of
  /// ~1e-15, so the exact path leaves the basin about never; the margin is
  /// ~0.3–0.4 µm for paper-scale cells against a 30 µm capture radius.
  static constexpr double kExactMarginSpreads = 8.0;

 private:
  /// The in-basin test. True when the body's nearest active trap holds it
  /// (nDEP: both stiffnesses positive) and both the body and the trap's
  /// gravity-sagged equilibrium lie at least `margin` inside the basin: the
  /// capture ball, the bisector planes with every other active trap, and
  /// the chamber bounds shrunk by the body radius. The mean path of the
  /// exact step runs between those two points — laterally a straight
  /// segment toward the center, vertically monotone — and the basin is
  /// convex, so checking the endpoints covers the whole path.
  bool exact_basin(const physics::ParticleBody& body, const CageFieldModel::Basin& basin,
                   const physics::OverdampedIntegrator::CageRelaxation& unit,
                   double margin) const;

  CageFieldModel field_;
  physics::OverdampedIntegrator integrator_;
};

}  // namespace biochip::core
