#pragma once
/// \file dynamics.hpp
/// \brief Overdamped (Langevin) particle dynamics in the chamber.
///
/// At cell scale the particle Reynolds number is ~1e-5 and inertia decays in
/// microseconds, so dynamics are overdamped: velocity = force / drag. The
/// general integrator is Euler-Maruyama with an optional Brownian term whose
/// amplitude is consistent with the (wall-corrected) drag via
/// fluctuation-dissipation.
///
/// Inside one harmonic cage the force is linear, so the motion is an
/// Ornstein-Uhlenbeck process per axis and has an exact Gaussian transition
/// for any step length (`exact_step`). "Exact" is with respect to the
/// harmonic surrogate (field::HarmonicCage), not the solved field; the
/// surrogate's own error against the solved field is bounded in
/// tests/test_chip.cpp.

#include <concepts>
#include <vector>

#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "field/analytic.hpp"
#include "physics/brownian.hpp"
#include "physics/drag.hpp"
#include "physics/medium.hpp"

namespace biochip::physics {

/// Mobile body state for simulation. Plain data.
struct ParticleBody {
  Vec3 position;               ///< [m]
  double radius = 0.0;         ///< [m]
  double density = 0.0;        ///< [kg/m³]
  double dep_prefactor = 0.0;  ///< 2π ε_m R³ Re K [F·m]
  int id = 0;                  ///< caller-assigned identity
};

/// A callable returning ∇E_rms² at a position.
template <typename F>
concept FieldGradient = requires(F f, Vec3 p) {
  { f(p) } -> std::convertible_to<Vec3>;
};

/// Integrator configuration.
struct DynamicsOptions {
  double dt = 1e-3;             ///< step [s]
  bool brownian = true;         ///< include thermal kicks
  bool gravity = true;          ///< include buoyant weight
  bool wall_correction = true;  ///< Faxén drag enhancement near chip surface
  Aabb bounds;                  ///< chamber interior (particle centers clamped
                                ///< to bounds shrunk by the particle radius)
};

/// Overdamped integrator. Stateless apart from configuration; all randomness
/// flows through the caller's Rng.
class OverdampedIntegrator {
 public:
  OverdampedIntegrator(const Medium& medium, const DynamicsOptions& opts);

  const DynamicsOptions& options() const { return opts_; }
  const Medium& medium() const { return medium_; }

  /// Per-body constants of the Euler-Maruyama step. They depend only on the
  /// body (radius, density) and the options, so substep loops compute them
  /// once per body instead of once per substep.
  struct StepConstants {
    double gamma = 0.0;   ///< bulk Stokes drag 6πηR [N·s/m]
    double weight = 0.0;  ///< buoyant weight [N] (0 when gravity is off)
    double kick2 = 0.0;   ///< 2·kB·T·dt: Brownian variance times drag [J·s]
  };
  StepConstants step_constants(const ParticleBody& p) const;

  /// Advance one particle by one step under the given field gradient.
  template <FieldGradient GradFn>
  void step(ParticleBody& p, GradFn&& grad_erms2, Rng& rng) const {
    step(p, step_constants(p), grad_erms2, rng);
  }

  /// Same step with the body's constants precomputed (`step_constants(p)`).
  /// `grad_erms2` is evaluated exactly once, at the starting position.
  template <FieldGradient GradFn>
  void step(ParticleBody& p, const StepConstants& k, GradFn&& grad_erms2,
            Rng& rng) const {
    double gamma = k.gamma;
    if (opts_.wall_correction) {
      const double wall_gap = p.position.z - opts_.bounds.min.z;
      gamma *= faxen_wall_correction(p.radius, std::max(wall_gap, p.radius));
    }
    Vec3 force = static_cast<Vec3>(grad_erms2(p.position)) * p.dep_prefactor;
    if (opts_.gravity) force.z += k.weight;
    Vec3 dx = force * (opts_.dt / gamma);
    if (opts_.brownian) {
      const double s = std::sqrt(k.kick2 / gamma);
      dx += Vec3{s * rng.normal(), s * rng.normal(), s * rng.normal()};
    }
    p.position += dx;
    confine(p);
  }

  /// Ornstein-Uhlenbeck parameters of one body held in one harmonic cage.
  struct CageRelaxation {
    Vec3 equilibrium;     ///< mean resting point: cage center, sagged by gravity
    double k_r = 0.0;     ///< radial stiffness −prefactor·c_r [N/m]
    double k_z = 0.0;     ///< vertical stiffness −prefactor·c_z [N/m]
    /// sqrt(kB·T / min(k_r, k_z)): the largest per-axis standard deviation
    /// of the transition density, at any step length [m].
    double spread = 0.0;
    /// True when both stiffnesses restore (nDEP body in a closed cage).
    bool holds() const { return k_r > 0.0 && k_z > 0.0; }
  };
  CageRelaxation relaxation(const ParticleBody& p, const field::HarmonicCage& cage) const;

  /// Advance a body held by one cage (`relaxation(p, cage)`, which must
  /// hold) by `duration` seconds in one exact Gaussian step. Per axis the
  /// mean relaxes as e^{−kt/γ} toward the equilibrium and the variance is
  /// (kB·T/k)(1 − e^{−2kt/γ}); with Brownian motion off only the mean moves.
  /// The drag γ (Faxén-corrected when enabled) is frozen at the starting
  /// height. Draws three normals (x, y, z) when Brownian motion is on; the
  /// result is confined to the bounds like every Euler step.
  void exact_step(ParticleBody& p, const CageRelaxation& cage, double duration,
                  Rng& rng) const;

  /// Advance a population by `steps` steps (serial; one shared RNG stream).
  template <FieldGradient GradFn>
  void advance(std::vector<ParticleBody>& particles, GradFn&& grad_erms2, Rng& rng,
               std::size_t steps) const {
    for (std::size_t s = 0; s < steps; ++s)
      for (ParticleBody& p : particles) step(p, grad_erms2, rng);
  }

  /// Advance a population by `steps` steps with the particle loop fanned out
  /// over an executor (anything with `parallel_for(begin, end, chunk_fn)`,
  /// e.g. core::ThreadPool). Each particle integrates on its own
  /// counter-based child stream (Rng::fork), so the trajectory of every
  /// particle is independent of the executor's size and chunking — the same
  /// seed gives the same population on 1 thread or 16. Draws one split from
  /// `rng` so back-to-back calls use fresh streams. Note the streams differ
  /// from the serial overload's shared-stream draws by construction.
  template <FieldGradient GradFn, typename Executor>
  void advance(std::vector<ParticleBody>& particles, GradFn&& grad_erms2, Rng& rng,
               std::size_t steps, Executor& executor) const {
    const Rng base = rng.split();
    executor.parallel_for(0, particles.size(), [&](std::size_t b, std::size_t e) {
      for (std::size_t n = b; n < e; ++n) {
        Rng stream = base.fork(n);
        for (std::size_t s = 0; s < steps; ++s) step(particles[n], grad_erms2, stream);
      }
    });
  }

  /// Suggested stable time step for a trap of the given stiffness: the
  /// relaxation time γ/k divided by a safety factor.
  double suggested_dt(double trap_stiffness, double radius, double safety = 10.0) const;

 private:
  void confine(ParticleBody& p) const;

  Medium medium_;
  DynamicsOptions opts_;
};

}  // namespace biochip::physics
