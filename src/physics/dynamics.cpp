#include "physics/dynamics.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "physics/dep.hpp"

namespace biochip::physics {

OverdampedIntegrator::OverdampedIntegrator(const Medium& medium, const DynamicsOptions& opts)
    : medium_(medium), opts_(opts) {
  validate(medium);
  BIOCHIP_REQUIRE(opts.dt > 0.0, "time step must be positive");
  BIOCHIP_REQUIRE(opts.bounds.extent().x > 0.0 && opts.bounds.extent().y > 0.0 &&
                      opts.bounds.extent().z > 0.0,
                  "dynamics bounds must be a non-empty box");
}

OverdampedIntegrator::StepConstants OverdampedIntegrator::step_constants(
    const ParticleBody& p) const {
  StepConstants k;
  k.gamma = stokes_drag_coefficient(medium_, p.radius);
  if (opts_.gravity) k.weight = buoyant_weight(medium_, p.radius, p.density);
  k.kick2 = 2.0 * constants::kB * medium_.temperature * opts_.dt;
  return k;
}

OverdampedIntegrator::CageRelaxation OverdampedIntegrator::relaxation(
    const ParticleBody& p, const field::HarmonicCage& cage) const {
  CageRelaxation r;
  const TrapStiffness k = trap_stiffness(cage, p.dep_prefactor);
  r.k_r = k.radial;
  r.k_z = k.vertical;
  r.equilibrium = cage.center;
  if (!r.holds()) return r;
  // Force balance −k_z (z − z₀) + W = 0: the cell sags by W / k_z.
  if (opts_.gravity)
    r.equilibrium.z += buoyant_weight(medium_, p.radius, p.density) / r.k_z;
  r.spread = std::sqrt(constants::kB * medium_.temperature / std::min(r.k_r, r.k_z));
  return r;
}

void OverdampedIntegrator::exact_step(ParticleBody& p, const CageRelaxation& cage,
                                      double duration, Rng& rng) const {
  BIOCHIP_REQUIRE(cage.holds(), "exact stepping needs a restoring cage");
  BIOCHIP_REQUIRE(duration > 0.0, "step duration must be positive");
  double gamma = stokes_drag_coefficient(medium_, p.radius);
  if (opts_.wall_correction) {
    const double wall_gap = p.position.z - opts_.bounds.min.z;
    gamma *= faxen_wall_correction(p.radius, std::max(wall_gap, p.radius));
  }
  const double kt = constants::kB * medium_.temperature;
  // Per axis: x ← x_eq + (x − x_eq)·e^{−θh} + sqrt(kT/k · (1 − e^{−2θh}))·N.
  // expm1 keeps the variance accurate when θh is small.
  const auto axis = [&](double x, double x_eq, double k) {
    const double theta_h = k * duration / gamma;
    const double mean = x_eq + (x - x_eq) * std::exp(-theta_h);
    if (!opts_.brownian) return mean;
    return mean + std::sqrt(-kt / k * std::expm1(-2.0 * theta_h)) * rng.normal();
  };
  const Vec3 eq = cage.equilibrium;
  p.position.x = axis(p.position.x, eq.x, cage.k_r);
  p.position.y = axis(p.position.y, eq.y, cage.k_r);
  p.position.z = axis(p.position.z, eq.z, cage.k_z);
  confine(p);
}

void OverdampedIntegrator::confine(ParticleBody& p) const {
  // A rigid sphere cannot penetrate the chip surface, lid, or side walls:
  // clamp the center to the bounds shrunk by the radius (hard-contact model).
  const Aabb& b = opts_.bounds;
  const double r = p.radius;
  p.position.x = clamp(p.position.x, b.min.x + r, b.max.x - r);
  p.position.y = clamp(p.position.y, b.min.y + r, b.max.y - r);
  p.position.z = clamp(p.position.z, b.min.z + r, b.max.z - r);
}

double OverdampedIntegrator::suggested_dt(double trap_stiffness, double radius,
                                          double safety) const {
  BIOCHIP_REQUIRE(trap_stiffness > 0.0, "trap stiffness must be positive");
  BIOCHIP_REQUIRE(safety >= 1.0, "safety factor must be >= 1");
  const double gamma = stokes_drag_coefficient(medium_, radius);
  return gamma / trap_stiffness / safety;
}

}  // namespace biochip::physics
