// Tests for the physics substrate: media, dielectric spectra, DEP forces,
// hydrodynamics, Brownian motion, electro-thermal screens, overdamped
// dynamics, and levitation equilibria.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "core/threadpool.hpp"
#include "physics/brownian.hpp"
#include "physics/dep.hpp"
#include "physics/dielectrics.hpp"
#include "physics/drag.hpp"
#include "physics/dynamics.hpp"
#include "physics/levitation.hpp"
#include "physics/medium.hpp"
#include "physics/thermal.hpp"

namespace biochip::physics {
namespace {

using namespace biochip::units;

// ---------------------------------------------------------------- medium ----

TEST(Medium, PresetsAreValid) {
  for (const Medium& m : {dep_buffer(), physiological_saline(), deionized_water()})
    EXPECT_NO_THROW(validate(m));
}

TEST(Medium, ConductivityOrdering) {
  EXPECT_LT(deionized_water().conductivity, dep_buffer().conductivity);
  EXPECT_LT(dep_buffer().conductivity, physiological_saline().conductivity);
}

TEST(Medium, PermittivityIsAbsolute) {
  const Medium m = dep_buffer();
  EXPECT_NEAR(m.permittivity(), m.rel_permittivity * constants::epsilon0, 1e-20);
}

TEST(Medium, InvalidMediumThrows) {
  Medium m = dep_buffer();
  m.viscosity = 0.0;
  EXPECT_THROW(validate(m), ConfigError);
  m = dep_buffer();
  m.temperature = -1.0;
  EXPECT_THROW(validate(m), ConfigError);
}

// ----------------------------------------------------------- dielectrics ----

TEST(Dielectrics, CmFactorBounds) {
  // Re K is bounded in [-0.5, 1] for any passive particle/medium pair.
  const Medium medium = dep_buffer();
  const ParticleDielectric insulator{{2.5, 1e-6}, {}, 0.0, {}, 0.0};
  const ParticleDielectric conductor{{80.0, 5.0}, {}, 0.0, {}, 0.0};
  for (double f = 1e3; f <= 1e9; f *= 3.0) {
    for (const auto& p : {insulator, conductor}) {
      const double re = cm_factor(p, 5e-6, medium, f).real();
      EXPECT_GE(re, -0.5 - 1e-9);
      EXPECT_LE(re, 1.0 + 1e-9);
    }
  }
}

TEST(Dielectrics, ConductiveParticleLowFrequencyLimit) {
  // σ_p >> σ_m at low frequency → K → +1... (σp-σm)/(σp+2σm) actually.
  const Medium medium = dep_buffer();  // 30 mS/m
  const ParticleDielectric p{{60.0, 3.0}, {}, 0.0, {}, 0.0};
  const double k = cm_factor(p, 5e-6, medium, 1e3).real();
  const double expect = (3.0 - 0.03) / (3.0 + 2 * 0.03);
  EXPECT_NEAR(k, expect, 0.01);
}

TEST(Dielectrics, InsulatingBeadLowFrequencyIsNegative) {
  const Medium medium = dep_buffer();
  const ParticleDielectric p{{2.55, 1e-7}, {}, 0.0, {}, 0.0};
  EXPECT_LT(cm_factor(p, 5e-6, medium, 1e4).real(), -0.4);
}

TEST(Dielectrics, HighFrequencyLimitIsPermittivityContrast) {
  const Medium medium = dep_buffer();
  const ParticleDielectric p{{2.55, 1e-4}, {}, 0.0, {}, 0.0};
  const double k = cm_factor(p, 5e-6, medium, 5e8).real();
  const double expect = (2.55 - 78.5) / (2.55 + 2 * 78.5);
  EXPECT_NEAR(k, expect, 0.02);
}

TEST(Dielectrics, ShellModelReducesToCoreWhenShellMatches) {
  // Shell with identical properties to the core must be transparent.
  const DielectricMaterial mat{50.0, 0.1};
  const double omega = 2.0 * constants::pi * 1e6;
  const std::complex<double> shelled =
      shelled_sphere_permittivity(mat, mat, 5e-6, 50e-9, omega);
  const std::complex<double> plain = complex_permittivity(mat, omega);
  EXPECT_NEAR(shelled.real(), plain.real(), std::abs(plain.real()) * 1e-9);
  EXPECT_NEAR(shelled.imag(), plain.imag(), std::abs(plain.imag()) * 1e-9);
}

TEST(Dielectrics, ShellThicknessValidation) {
  const DielectricMaterial a{5.0, 1e-7}, b{60.0, 0.5};
  const double omega = 1e7;
  EXPECT_THROW(shelled_sphere_permittivity(a, b, 5e-6, 0.0, omega), PreconditionError);
  EXPECT_THROW(shelled_sphere_permittivity(a, b, 5e-6, 5e-6, omega), PreconditionError);
}

TEST(Dielectrics, ViableCellHasCrossoverInBuffer) {
  // Intact membrane: nDEP at low f, pDEP above the first crossover.
  const Medium medium = dep_buffer();
  const ParticleDielectric cell{
      {60.0, 0.50}, DielectricMaterial{6.0, 1e-7}, 7e-9, {}, 0.0};
  const double radius = 5e-6;
  EXPECT_LT(cm_factor(cell, radius, medium, 20e3).real(), 0.0);
  EXPECT_GT(cm_factor(cell, radius, medium, 2e6).real(), 0.0);
  const auto fx = crossover_frequency(cell, radius, medium);
  ASSERT_TRUE(fx.has_value());
  EXPECT_GT(*fx, 50e3);
  EXPECT_LT(*fx, 1e6);
}

TEST(Dielectrics, CrossoverScalesWithMediumConductivity) {
  // First crossover f_x ∝ σ_m for membrane-limited cells.
  const ParticleDielectric cell{
      {60.0, 0.50}, DielectricMaterial{6.0, 1e-7}, 7e-9, {}, 0.0};
  Medium lo = dep_buffer();
  lo.conductivity = 0.02;
  Medium hi = dep_buffer();
  hi.conductivity = 0.08;
  const auto f_lo = crossover_frequency(cell, 5e-6, lo);
  const auto f_hi = crossover_frequency(cell, 5e-6, hi);
  ASSERT_TRUE(f_lo && f_hi);
  EXPECT_NEAR(*f_hi / *f_lo, 4.0, 0.8);
}

TEST(Dielectrics, NoCrossoverInSalineForViableCell) {
  // In high-σ medium the cell is nDEP through the whole manipulation band.
  const Medium medium = physiological_saline();
  const ParticleDielectric cell{
      {60.0, 0.50}, DielectricMaterial{6.0, 1e-7}, 7e-9, {}, 0.0};
  const auto fx = crossover_frequency(cell, 5e-6, medium, 1e3, 5e6);
  EXPECT_FALSE(fx.has_value());
  EXPECT_LT(cm_factor(cell, 5e-6, medium, 100e3).real(), -0.3);
}

TEST(Dielectrics, SpectrumIsLogSpacedAndOrdered) {
  const Medium medium = dep_buffer();
  const ParticleDielectric p{{2.55, 2e-4}, {}, 0.0, {}, 0.0};
  const auto spec = cm_spectrum(p, 5e-6, medium, 1e4, 1e8, 9);
  ASSERT_EQ(spec.size(), 9u);
  EXPECT_NEAR(spec.front().frequency, 1e4, 1.0);
  EXPECT_NEAR(spec.back().frequency, 1e8, 1e4);
  for (std::size_t i = 1; i < spec.size(); ++i)
    EXPECT_GT(spec[i].frequency, spec[i - 1].frequency);
}

// ------------------------------------------------------------------- dep ----

TEST(Dep, PrefactorSignFollowsReK) {
  const Medium m = dep_buffer();
  EXPECT_GT(dep_prefactor(m, 5e-6, 0.5), 0.0);
  EXPECT_LT(dep_prefactor(m, 5e-6, -0.5), 0.0);
}

TEST(Dep, PrefactorScalesWithRadiusCubed) {
  const Medium m = dep_buffer();
  const double p1 = dep_prefactor(m, 5e-6, -0.4);
  const double p2 = dep_prefactor(m, 10e-6, -0.4);
  EXPECT_NEAR(p2 / p1, 8.0, 1e-9);
}

TEST(Dep, ForceIsPrefactorTimesGradient) {
  const Vec3 grad{1e12, -2e12, 0.5e12};
  const Vec3 f = dep_force(-2e-25, grad);
  EXPECT_DOUBLE_EQ(f.x, -2e-25 * 1e12);
  EXPECT_DOUBLE_EQ(f.y, 4e-13);
}

TEST(Dep, TrapStiffnessPositiveForNdepInMinimum) {
  const field::HarmonicCage cage{{0, 0, 20e-6}, 1e7, 1e19, 5e19};
  const TrapStiffness k = trap_stiffness(cage, -1.5e-25);
  EXPECT_GT(k.radial, 0.0);
  EXPECT_GT(k.vertical, 0.0);
  // pDEP particle in the same cage is anti-trapped.
  const TrapStiffness kp = trap_stiffness(cage, +1.5e-25);
  EXPECT_LT(kp.radial, 0.0);
}

TEST(Dep, HoldingForceZeroForAntiTrap) {
  const field::HarmonicCage cage{{0, 0, 20e-6}, 1e7, 1e19, 5e19};
  EXPECT_GT(holding_force(cage, -1e-25, 10e-6), 0.0);
  EXPECT_DOUBLE_EQ(holding_force(cage, +1e-25, 10e-6), 0.0);
}

TEST(Dep, MaxTowSpeedInPaperRange) {
  // Paper-scale cage and cell: the bound must land in (or above) the
  // 10-100 µm/s band the paper quotes for cell motion.
  const Medium m = dep_buffer();
  const field::HarmonicCage cage{{0, 0, 20e-6}, 5e7, 1.2e19, 1.2e20};
  const double prefactor = dep_prefactor(m, 5e-6, -0.27);
  const double vmax = max_tow_speed(cage, prefactor, 20e-6, m, 5e-6);
  EXPECT_GT(vmax, 10e-6);
  EXPECT_LT(vmax, 2000e-6);
}

// ------------------------------------------------------------------ drag ----

TEST(Drag, StokesCoefficient) {
  const Medium m = dep_buffer();
  EXPECT_NEAR(stokes_drag_coefficient(m, 5e-6),
              6.0 * constants::pi * m.viscosity * 5e-6, 1e-15);
}

TEST(Drag, FaxenCorrectionIncreasesNearWall) {
  EXPECT_NEAR(faxen_wall_correction(5e-6, 1.0), 1.0, 1e-5);  // far away
  const double near = faxen_wall_correction(5e-6, 6e-6);
  const double touching = faxen_wall_correction(5e-6, 5e-6);
  EXPECT_GT(near, 1.3);
  EXPECT_GT(touching, near);
  EXPECT_LT(touching, 25.0);  // guarded divergence
}

TEST(Drag, SedimentationSignAndMagnitude) {
  const Medium m = dep_buffer();
  // Cell slightly denser than buffer sinks at ~µm/s scale.
  const double v = sedimentation_velocity(m, 5e-6, 1070.0);
  EXPECT_LT(v, 0.0);
  EXPECT_GT(v, -20e-6);
  // Neutrally buoyant particle does not move.
  EXPECT_NEAR(sedimentation_velocity(m, 5e-6, m.density), 0.0, 1e-12);
}

TEST(Drag, ReynoldsIsTinyAtCellScale) {
  const Medium m = dep_buffer();
  EXPECT_LT(particle_reynolds(m, 10e-6, 100e-6), 1e-2);
}

// -------------------------------------------------------------- brownian ----

TEST(Brownian, StokesEinsteinDiffusion) {
  const Medium m = dep_buffer();
  const double d = diffusion_coefficient(m, 5e-6);
  // ~5e-14 m²/s for a 5 µm-radius sphere in water at 298 K.
  EXPECT_GT(d, 1e-14);
  EXPECT_LT(d, 1e-13);
}

TEST(Brownian, RmsStepScalesWithSqrtTime) {
  const Medium m = dep_buffer();
  EXPECT_NEAR(rms_step(m, 5e-6, 4.0) / rms_step(m, 5e-6, 1.0), 2.0, 1e-9);
}

TEST(Brownian, KickStatisticsMatchTheory) {
  const Medium m = dep_buffer();
  Rng rng(51);
  RunningStats x2;
  const double dt = 0.01;
  for (int i = 0; i < 30000; ++i) {
    const Vec3 k = brownian_kick(m, 5e-6, dt, rng);
    x2.add(k.x * k.x);
  }
  EXPECT_NEAR(x2.mean(), 2.0 * diffusion_coefficient(m, 5e-6) * dt,
              0.05 * 2.0 * diffusion_coefficient(m, 5e-6) * dt);
}

TEST(Brownian, EscapeRatioSmallForRealisticTrap) {
  // k ~ 1e-6 N/m, x_max ~ 10 µm → depth ~ 5e-17 J >> kT ~ 4e-21 J.
  const Medium m = dep_buffer();
  EXPECT_LT(thermal_escape_ratio(m, 1e-6, 10e-6), 1e-3);
  EXPECT_GT(thermal_escape_ratio(m, 0.0, 10e-6), 1e6);  // no trap
}

// --------------------------------------------------------------- thermal ----

TEST(Thermal, JouleRiseScalesWithSigmaAndV2) {
  const Medium lo = dep_buffer();
  Medium hi = lo;
  hi.conductivity = 2.0 * lo.conductivity;
  EXPECT_NEAR(joule_temperature_rise(hi, 3.3) / joule_temperature_rise(lo, 3.3), 2.0,
              1e-9);
  EXPECT_NEAR(joule_temperature_rise(lo, 6.6) / joule_temperature_rise(lo, 3.3), 4.0,
              1e-9);
}

TEST(Thermal, LowSigmaBufferStaysCool) {
  // The design point of the paper's chip: mK-scale heating at 3.3 V.
  EXPECT_LT(joule_temperature_rise(dep_buffer(), 3.3), 0.1);
  // Saline at the same drive heats ~50x more.
  EXPECT_GT(joule_temperature_rise(physiological_saline(), 3.3), 1.0);
}

TEST(Thermal, ChargeRelaxationFrequency) {
  const Medium m = dep_buffer();
  const double fc = charge_relaxation_frequency(m);
  EXPECT_NEAR(fc, m.conductivity / (2.0 * constants::pi * m.permittivity()), 1.0);
  EXPECT_GT(fc, 1e6);  // 30 mS/m → ~6.9 MHz
}

TEST(Thermal, AceoVelocityScaleReasonable) {
  const double u = aceo_velocity_scale(dep_buffer(), 1.0, 20e-6);
  EXPECT_GT(u, 1e-6);
  EXPECT_LT(u, 1.0);
}

// -------------------------------------------------------------- dynamics ----

class DynamicsTest : public ::testing::Test {
 protected:
  Medium medium_ = dep_buffer();
  DynamicsOptions opts_ = {
      .dt = 1e-3,
      .brownian = false,
      .gravity = false,
      .wall_correction = false,
      .bounds = {{0, 0, 0}, {1e-3, 1e-3, 1e-4}},
  };
};

TEST_F(DynamicsTest, RelaxationIntoHarmonicTrap) {
  // Overdamped relaxation: x(t) = x0 exp(-k t / γ).
  const field::HarmonicCage cage{{5e-4, 5e-4, 5e-5}, 0.0, 1e19, 1e19};
  const double prefactor = -1.5e-25;
  OverdampedIntegrator integ(medium_, opts_);
  ParticleBody p{{5e-4 + 10e-6, 5e-4, 5e-5}, 5e-6, medium_.density, prefactor, 0};
  Rng rng(1);
  const double gamma = stokes_drag_coefficient(medium_, p.radius);
  const double k = -prefactor * cage.c_r;
  const double steps = 200.0;
  std::vector<ParticleBody> swarm{p};
  integ.advance(swarm, [&](Vec3 q) { return cage.grad_erms2(q); }, rng,
                static_cast<std::size_t>(steps));
  p = swarm.front();
  const double expect =
      10e-6 * std::exp(-k * opts_.dt * steps / gamma);
  EXPECT_NEAR(p.position.x - 5e-4, expect, 0.15 * 10e-6);
}

TEST_F(DynamicsTest, ParallelAdvanceIsChunkingInvariant) {
  // The pooled advance fans particles out on counter-based streams, so the
  // same seed must give bit-identical trajectories for any pool size.
  const field::HarmonicCage cage{{5e-4, 5e-4, 5e-5}, 0.0, 1e19, 1e19};
  OverdampedIntegrator integ(medium_, opts_);
  auto make_swarm = [&] {
    std::vector<ParticleBody> swarm;
    for (int n = 0; n < 17; ++n)
      swarm.push_back({{5e-4 + 1e-6 * n, 5e-4 - 2e-6 * n, 5e-5}, 5e-6,
                       medium_.density + 50.0, -1.5e-25, n});
    return swarm;
  };
  auto grad = [&](Vec3 q) { return cage.grad_erms2(q); };

  std::vector<ParticleBody> one = make_swarm(), four = make_swarm();
  core::ThreadPool pool1(1), pool4(4);
  Rng rng1(77), rng4(77);
  integ.advance(one, grad, rng1, 50, pool1);
  integ.advance(four, grad, rng4, 50, pool4);
  for (std::size_t n = 0; n < one.size(); ++n) {
    EXPECT_EQ(one[n].position, four[n].position) << "particle " << n;
  }
  // Both overloads leave the caller's generator in the same state.
  EXPECT_EQ(rng1(), rng4());
}

TEST_F(DynamicsTest, GravityOnlySedimentation) {
  DynamicsOptions opts = opts_;
  opts.gravity = true;
  OverdampedIntegrator integ(medium_, opts);
  ParticleBody p{{5e-4, 5e-4, 5e-5}, 5e-6, 1070.0, 0.0, 0};
  Rng rng(2);
  const double z0 = p.position.z;
  for (int i = 0; i < 1000; ++i)
    integ.step(p, [](Vec3) { return Vec3{}; }, rng);
  const double v_expected = sedimentation_velocity(medium_, p.radius, p.density);
  EXPECT_NEAR((p.position.z - z0) / (1000 * opts.dt), v_expected,
              std::fabs(v_expected) * 0.05);
}

TEST_F(DynamicsTest, BoundsConfinement) {
  OverdampedIntegrator integ(medium_, opts_);
  // Huge downward force: particle must stop at radius above the floor.
  ParticleBody p{{5e-4, 5e-4, 5e-5}, 5e-6, 5000.0, -1e-20, 0};
  Rng rng(3);
  for (int i = 0; i < 100; ++i)
    integ.step(p, [](Vec3) { return Vec3{0.0, 0.0, 1e15}; }, rng);
  EXPECT_GE(p.position.z, p.radius - 1e-12);
}

TEST_F(DynamicsTest, BrownianMsdMatchesDiffusion) {
  DynamicsOptions opts = opts_;
  opts.brownian = true;
  OverdampedIntegrator integ(medium_, opts);
  Rng rng(4);
  RunningStats msd;
  const int kSteps = 100;
  for (int trial = 0; trial < 400; ++trial) {
    ParticleBody p{{5e-4, 5e-4, 5e-5}, 2e-6, medium_.density, 0.0, 0};
    const Vec3 start = p.position;
    for (int s = 0; s < kSteps; ++s)
      integ.step(p, [](Vec3) { return Vec3{}; }, rng);
    const Vec3 d = p.position - start;
    msd.add(d.x * d.x + d.y * d.y);  // xy only: z hits walls
  }
  const double d_coef = diffusion_coefficient(medium_, 2e-6);
  const double expect = 4.0 * d_coef * kSteps * opts.dt;
  EXPECT_NEAR(msd.mean(), expect, expect * 0.15);
}

TEST_F(DynamicsTest, SuggestedDtIsFractionOfRelaxation) {
  OverdampedIntegrator integ(medium_, opts_);
  const double gamma = stokes_drag_coefficient(medium_, 5e-6);
  const double k = 1e-6;
  EXPECT_NEAR(integ.suggested_dt(k, 5e-6, 10.0), gamma / k / 10.0, 1e-12);
}

TEST_F(DynamicsTest, InvalidOptionsThrow) {
  DynamicsOptions bad = opts_;
  bad.dt = 0.0;
  EXPECT_THROW(OverdampedIntegrator(medium_, bad), PreconditionError);
  DynamicsOptions empty = opts_;
  empty.bounds = {{0, 0, 0}, {0, 0, 0}};
  EXPECT_THROW(OverdampedIntegrator(medium_, empty), PreconditionError);
}

// FNV-1a over the bit patterns of a position (golden trajectory hashing).
std::uint64_t fnv_mix(std::uint64_t h, Vec3 p) {
  for (const double v : {p.x, p.y, p.z}) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xFFu;
      h *= 0x100000001B3ull;
    }
  }
  return h;
}

// The Euler-Maruyama step is the fallback of the exact in-basin stepper and
// must stay bitwise what it always was. 300 full-option substeps (Brownian,
// gravity, Faxén wall drag) are hashed for three regimes: a body held in a
// trap, a dense body resting on the floor (z clamp every substep) and a body
// pinned against a side wall (x clamp). The constants were recorded with the
// original per-substep implementation.
TEST_F(DynamicsTest, EulerMaruyamaStepMatchesGoldenTrajectories) {
  DynamicsOptions opts = opts_;
  opts.brownian = true;
  opts.gravity = true;
  opts.wall_correction = true;
  const OverdampedIntegrator integ(medium_, opts);
  const field::HarmonicCage cage{{5e-4, 5e-4, 2.1e-5}, 0.0, 1.2e19, 1.2e20};
  const auto in_trap = [&](Vec3 q) { return cage.grad_erms2(q); };
  const auto no_field = [](Vec3) { return Vec3{}; };
  const auto push_x = [](Vec3) { return Vec3{-1e15, 0.0, 0.0}; };

  const auto run = [&](ParticleBody p, auto&& grad, std::uint64_t seed) {
    Rng rng(seed);
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (int s = 0; s < 300; ++s) {
      integ.step(p, grad, rng);
      h = fnv_mix(h, p.position);
    }
    return h;
  };
  const std::uint64_t trapped =
      run({{5e-4 + 3e-6, 5e-4 - 2e-6, 2.0e-5}, 5e-6, 1070.0, -1.5e-25, 0}, in_trap, 11);
  const std::uint64_t floor =
      run({{5e-4, 5e-4, 5e-6}, 5e-6, 2500.0, 0.0, 1}, no_field, 12);
  const std::uint64_t wall =
      run({{6e-6, 5e-4, 5e-5}, 5e-6, 1070.0, 1.5e-25, 2}, push_x, 13);
  EXPECT_EQ(trapped, 0x7b9a42d655ae56b9ull) << std::hex << trapped;
  EXPECT_EQ(floor, 0x3c8a45acd9f63576ull) << std::hex << floor;
  EXPECT_EQ(wall, 0x4abbe0d6bde5050bull) << std::hex << wall;
}

// ---------------------------------------------------- exact in-basin step ----

// A paper-scale lymphocyte in a paper-scale cage (τ_r ≈ 53 ms, τ_z ≈ 5 ms,
// σ_r ≈ 0.05 µm), 21 µm above the floor of a 1 mm × 1 mm × 100 µm box.
class ExactStepTest : public ::testing::Test {
 protected:
  Medium medium_ = dep_buffer();
  field::HarmonicCage cage_{{5e-4, 5e-4, 2.1e-5}, 0.0, 1.2e19, 1.2e20};
  double prefactor_ = dep_prefactor(medium_, 5e-6, -0.27);

  DynamicsOptions options(bool wall_correction, double dt = 1e-3) const {
    return {.dt = dt,
            .brownian = true,
            .gravity = true,
            .wall_correction = wall_correction,
            .bounds = {{0, 0, 0}, {1e-3, 1e-3, 1e-4}}};
  }
  ParticleBody body(Vec3 at) const { return {at, 5e-6, 1070.0, prefactor_, 0}; }

  /// Per-axis statistics of the displacement from `ref` after `advance`
  /// runs on `n` fresh bodies, each on its own forked stream.
  template <typename Advance>
  std::array<RunningStats, 3> sample(std::size_t n, Vec3 start, Vec3 ref,
                                     std::uint64_t seed, Advance&& advance) const {
    std::array<RunningStats, 3> st;
    const Rng base(seed);
    for (std::size_t i = 0; i < n; ++i) {
      ParticleBody p = body(start);
      Rng rng = base.fork(i);
      advance(p, rng);
      const Vec3 d = p.position - ref;
      st[0].add(d.x);
      st[1].add(d.y);
      st[2].add(d.z);
    }
    return st;
  }
};

TEST_F(ExactStepTest, RelaxationParametersFollowTheCage) {
  const OverdampedIntegrator integ(medium_, options(true));
  const auto r = integ.relaxation(body({}), cage_);
  ASSERT_TRUE(r.holds());
  EXPECT_DOUBLE_EQ(r.k_r, -prefactor_ * cage_.c_r);
  EXPECT_DOUBLE_EQ(r.k_z, -prefactor_ * cage_.c_z);
  const double sag = buoyant_weight(medium_, 5e-6, 1070.0) / r.k_z;
  EXPECT_DOUBLE_EQ(r.equilibrium.z, cage_.center.z + sag);
  EXPECT_LT(r.equilibrium.z, cage_.center.z);  // a dense cell sags
  EXPECT_DOUBLE_EQ(r.spread, std::sqrt(constants::kB * medium_.temperature / r.k_r));
  // pDEP: the cage repels, nothing holds.
  ParticleBody pdep = body({});
  pdep.dep_prefactor = -prefactor_;
  EXPECT_FALSE(integ.relaxation(pdep, cage_).holds());
  Rng rng(1);
  EXPECT_THROW(integ.exact_step(pdep, integ.relaxation(pdep, cage_), 0.1, rng),
               PreconditionError);
}

// The exact step reproduces the analytic Ornstein-Uhlenbeck moments per
// axis at 5, 20, 100 and 400 ms. N = 4000 forked streams. Tolerances fixed
// from N before the first run: the sample mean of a Gaussian lies within
// 4·σ/sqrt(N) of the true mean, and the sample variance within
// 4·σ²·sqrt(2/(N-1)) of the true variance (6.3e-5 two-sided per check).
TEST_F(ExactStepTest, ExactStepMatchesAnalyticMoments) {
  const OverdampedIntegrator integ(medium_, options(true));
  const auto r = integ.relaxation(body({}), cage_);
  const Vec3 start = r.equilibrium + Vec3{3e-6, -2e-6, 1e-6};
  const double gamma = stokes_drag_coefficient(medium_, 5e-6) *
                       faxen_wall_correction(5e-6, start.z);  // frozen at the start
  const double kt = constants::kB * medium_.temperature;
  const std::size_t n = 4000;
  const double var_tol = 4.0 * std::sqrt(2.0 / static_cast<double>(n - 1));
  for (const double h : {5e-3, 20e-3, 100e-3, 400e-3}) {
    const auto st = sample(n, start, r.equilibrium, 42, [&](ParticleBody& p, Rng& rng) {
      integ.exact_step(p, r, h, rng);
    });
    const Vec3 offset = start - r.equilibrium;
    const double offsets[3] = {offset.x, offset.y, offset.z};
    const double ks[3] = {r.k_r, r.k_r, r.k_z};
    for (int a = 0; a < 3; ++a) {
      const double decay = std::exp(-ks[a] * h / gamma);
      const double var = kt / ks[a] * (1.0 - decay * decay);
      const double sd = std::sqrt(var);
      EXPECT_NEAR(st[a].mean(), offsets[a] * decay,
                  4.0 * sd / std::sqrt(static_cast<double>(n)))
          << "axis " << a << " h " << h;
      EXPECT_NEAR(st[a].variance() / var, 1.0, var_tol) << "axis " << a << " h " << h;
    }
  }
}

// Against a fine Euler-Maruyama reference (dt = τ_z/100, drag without the
// wall term so both integrate the same linear SDE), 2000 forked streams
// each. Tolerances fixed before the first run:
//  - means: 4·sqrt((s_a² + s_b²)/N) for two independent sample means, plus
//    the EM decay bias |x0|·|e^{−θh} − (1 − θ·dt)^n|, computed exactly;
//  - variances: a ratio within 4·sqrt(2/(N−1) + 2/(N−1)) of
//    1/(1 − θ·dt/2), the EM stationary-variance inflation at that dt, plus
//    the same inflation again as a transient allowance.
TEST_F(ExactStepTest, ExactStepMatchesFineEulerMaruyama) {
  const OverdampedIntegrator exact(medium_, options(false));
  const auto r = exact.relaxation(body({}), cage_);
  const double gamma = stokes_drag_coefficient(medium_, 5e-6);
  const double dt = gamma / r.k_z / 100.0;
  const OverdampedIntegrator em(medium_, options(false, dt));
  const Vec3 start = r.equilibrium + Vec3{3e-6, -2e-6, 1e-6};
  const Vec3 offset = start - r.equilibrium;
  const std::size_t n = 2000;
  const double var_stat = 4.0 * std::sqrt(4.0 / static_cast<double>(n - 1));
  const auto grad = [&](Vec3 q) { return cage_.grad_erms2(q); };
  for (const double h : {20e-3, 100e-3}) {
    const auto steps = static_cast<std::size_t>(std::llround(h / dt));
    const double h_em = static_cast<double>(steps) * dt;
    const auto a = sample(n, start, r.equilibrium, 7, [&](ParticleBody& p, Rng& rng) {
      exact.exact_step(p, r, h_em, rng);
    });
    const auto b = sample(n, start, r.equilibrium, 8, [&](ParticleBody& p, Rng& rng) {
      for (std::size_t s = 0; s < steps; ++s) em.step(p, grad, rng);
    });
    const double offsets[3] = {offset.x, offset.y, offset.z};
    const double ks[3] = {r.k_r, r.k_r, r.k_z};
    for (int ax = 0; ax < 3; ++ax) {
      const double theta_dt = ks[ax] * dt / gamma;
      const double decay_bias =
          std::fabs(offsets[ax]) *
          std::fabs(std::exp(-theta_dt * static_cast<double>(steps)) -
                    std::pow(1.0 - theta_dt, static_cast<double>(steps)));
      const double mean_tol =
          4.0 * std::sqrt((a[ax].variance() + b[ax].variance()) / static_cast<double>(n)) +
          decay_bias;
      EXPECT_NEAR(a[ax].mean(), b[ax].mean(), mean_tol) << "axis " << ax << " h " << h;
      const double inflation = 1.0 / (1.0 - 0.5 * theta_dt);
      EXPECT_NEAR(b[ax].variance() / a[ax].variance(), inflation,
                  var_stat + (inflation - 1.0))
          << "axis " << ax << " h " << h;
    }
  }
}

// Freezing the Faxén-corrected drag at the starting height is the one
// approximation of the exact step. Its bound: along the mean path the true
// drag stays between its values at the start and at the equilibrium, so the
// true mean decay factor lies between e^{−kh/γ} at those two drags. With
// a cell released 3 µm above its rest height (the wall term is ~13–15% at
// 21–24 µm), the exact step's mean z at 5 ms (~1 τ_z) must sit within that
// band of a fine EM run that re-evaluates the drag every substep, plus
// 4 standard errors and the EM decay bias. Measured: the gap is 0.07% of
// the offset and the band 0.7%.
TEST_F(ExactStepTest, FrozenWallDragErrorIsBounded) {
  const OverdampedIntegrator exact(medium_, options(true));
  const auto r = exact.relaxation(body({}), cage_);
  const double g0 = stokes_drag_coefficient(medium_, 5e-6);
  const double dt = g0 / r.k_z / 100.0;
  const OverdampedIntegrator em(medium_, options(true, dt));
  const Vec3 start = r.equilibrium + Vec3{0.0, 0.0, 3e-6};
  const std::size_t n = 2000;
  const double h = 5e-3;
  const auto steps = static_cast<std::size_t>(std::llround(h / dt));
  const double h_em = static_cast<double>(steps) * dt;
  const auto grad = [&](Vec3 q) { return cage_.grad_erms2(q); };
  const auto a = sample(n, start, r.equilibrium, 9, [&](ParticleBody& p, Rng& rng) {
    exact.exact_step(p, r, h_em, rng);
  });
  const auto b = sample(n, start, r.equilibrium, 10, [&](ParticleBody& p, Rng& rng) {
    for (std::size_t s = 0; s < steps; ++s) em.step(p, grad, rng);
  });
  const double g_start = g0 * faxen_wall_correction(5e-6, start.z);
  const double g_rest = g0 * faxen_wall_correction(5e-6, r.equilibrium.z);
  ASSERT_GT(g_rest, g_start);  // nearer the floor, more drag
  const double band = 3e-6 * (std::exp(-r.k_z * h_em / g_rest) -
                              std::exp(-r.k_z * h_em / g_start));
  const double theta_dt = r.k_z * dt / g_rest;
  const double decay_bias =
      3e-6 * std::fabs(std::exp(-theta_dt * static_cast<double>(steps)) -
                       std::pow(1.0 - theta_dt, static_cast<double>(steps)));
  const double stat =
      4.0 * std::sqrt((a[2].variance() + b[2].variance()) / static_cast<double>(n));
  const double gap = std::fabs(a[2].mean() - b[2].mean());
  EXPECT_LE(gap, band + decay_bias + stat)
      << "gap " << gap << " band " << band << " stat " << stat;
  // The band itself is small: freezing the drag moves the 5 ms mean by at
  // most 1% of the offset.
  EXPECT_LT(band / 3e-6, 0.01);
}

// ------------------------------------------------------------ levitation ----

TEST(Levitation, StableEquilibriumBelowCageCenter) {
  const Medium m = dep_buffer();
  const field::HarmonicCage cage{{0, 0, 21e-6}, 5e7, 1.2e19, 1.2e20};
  const double prefactor = dep_prefactor(m, 5e-6, -0.27);
  const LevitationResult lev = levitation_equilibrium(cage, prefactor, m, 5e-6, 1070.0);
  EXPECT_TRUE(lev.stable);
  EXPECT_LT(lev.height, cage.center.z);  // denser cell sags below the minimum
  EXPECT_GT(lev.height, 5e-6);           // but stays clear of the chip
  EXPECT_GT(lev.stiffness_z, 0.0);
  EXPECT_GT(lev.sag, 0.0);
}

TEST(Levitation, PdepParticleNotLevitated) {
  const Medium m = dep_buffer();
  const field::HarmonicCage cage{{0, 0, 21e-6}, 5e7, 1.2e19, 1.2e20};
  const LevitationResult lev =
      levitation_equilibrium(cage, +1.5e-25, m, 5e-6, 1070.0);
  EXPECT_FALSE(lev.stable);
}

TEST(Levitation, WeakCageDropsHeavyParticle) {
  const Medium m = dep_buffer();
  const field::HarmonicCage cage{{0, 0, 21e-6}, 5e7, 1.2e16, 1.2e16};  // 1000x weaker
  const double prefactor = dep_prefactor(m, 5e-6, -0.05);
  const LevitationResult lev = levitation_equilibrium(cage, prefactor, m, 5e-6, 2500.0);
  EXPECT_FALSE(lev.stable);  // sag exceeds the clearance
}

TEST(Levitation, BuoyantParticleRisesAboveCenter) {
  const Medium m = dep_buffer();  // density 1020
  const field::HarmonicCage cage{{0, 0, 21e-6}, 5e7, 1.2e19, 1.2e20};
  const double prefactor = dep_prefactor(m, 5e-6, -0.27);
  const LevitationResult lev = levitation_equilibrium(cage, prefactor, m, 5e-6, 950.0);
  EXPECT_TRUE(lev.stable);
  EXPECT_GT(lev.height, cage.center.z);
}

}  // namespace
}  // namespace biochip::physics
