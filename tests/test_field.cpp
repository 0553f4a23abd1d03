// Tests for the quasi-electrostatic field solver: analytic reference cases,
// multilevel acceleration, boundary construction, phasor solutions,
// superposition cache, and cage calibration.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string_view>

#include "common/error.hpp"
#include "common/units.hpp"
#include "field/analytic.hpp"
#include "field/basis_cache.hpp"
#include "field/boundary.hpp"
#include "field/phasor.hpp"
#include "field/solver.hpp"
#include "field/stencil_kernel.hpp"

namespace biochip::field {
namespace {

using namespace biochip::units;

// Fix both z-planes to constants: the exact solution is linear in z.
DirichletBc plate_bc(const Grid3& g, double v_bottom, double v_top) {
  DirichletBc bc = DirichletBc::all_free(g);
  for (std::size_t j = 0; j < g.ny(); ++j)
    for (std::size_t i = 0; i < g.nx(); ++i) {
      bc.fixed[g.index(i, j, 0)] = 1;
      bc.value[g.index(i, j, 0)] = v_bottom;
      bc.fixed[g.index(i, j, g.nz() - 1)] = 1;
      bc.value[g.index(i, j, g.nz() - 1)] = v_top;
    }
  return bc;
}

TEST(Solver, ParallelPlatesGiveLinearPotential) {
  Grid3 phi(9, 9, 17, 1e-6);
  const DirichletBc bc = plate_bc(phi, 0.0, 3.3);
  SolverOptions opts;
  opts.tolerance = 1e-9;
  const SolveStats stats = solve_laplace(phi, bc, opts);
  EXPECT_TRUE(stats.converged);
  const double gap = 16.0 * phi.spacing();
  for (std::size_t k = 0; k < phi.nz(); ++k) {
    const double z = static_cast<double>(k) * phi.spacing();
    const double expect = parallel_plate_potential(0.0, 3.3, gap, z);
    EXPECT_NEAR(phi.at(4, 4, k), expect, 1e-5) << "k=" << k;
  }
}

TEST(Solver, MultilevelMatchesPlainSor) {
  Grid3 a(17, 17, 17, 1e-6), b(17, 17, 17, 1e-6);
  DirichletBc bc = plate_bc(a, -1.0, 2.0);
  // Pin one bottom node differently to break the trivial symmetry.
  bc.value[a.index(8, 8, 0)] = 1.0;
  SolverOptions plain;
  plain.cycle = CycleType::sor;
  plain.tolerance = 1e-9;
  SolverOptions multi;
  multi.cycle = CycleType::vcycle;
  multi.tolerance = 1e-9;
  const SolveStats sa = solve_laplace(a, bc, plain);
  const SolveStats sb = solve_laplace(b, bc, multi);
  EXPECT_TRUE(sa.converged);
  EXPECT_TRUE(sb.converged);
  for (std::size_t n = 0; n < a.size(); ++n)
    EXPECT_NEAR(a.data()[n], b.data()[n], 1e-5);
  // The V-cycle should not need more fine-grid sweeps than plain SOR.
  EXPECT_LE(sb.sweeps, sa.sweeps);
}

TEST(Solver, ResidualDropsBelowTolerance) {
  Grid3 phi(17, 17, 9, 1e-6);
  DirichletBc bc = plate_bc(phi, 0.0, 1.0);
  SolverOptions opts;
  opts.tolerance = 1e-8;
  solve_laplace(phi, bc, opts);
  EXPECT_LT(laplacian_residual(phi, bc), 1e-6);
}

TEST(Solver, ParallelSweepsMatchSerialReference) {
  // Red-black coloring makes same-color nodes independent, so the
  // plane-parallel checked-free sweep must converge to the same residual as
  // the serial reference on an analytic boundary-value problem — and in
  // fact reproduce the serial iterates exactly, for any thread count.
  // Non-cubic grid + an asymmetric pin exercise the edge/mirror paths.
  Grid3 serial(33, 17, 25, 1e-6), parallel(33, 17, 25, 1e-6);
  DirichletBc bc = plate_bc(serial, -1.5, 3.3);
  bc.value[serial.index(5, 11, 0)] = 2.0;
  SolverOptions opts;
  opts.cycle = CycleType::sor;
  opts.tolerance = 1e-9;
  opts.threads = 1;
  const SolveStats ss = solve_laplace(serial, bc, opts);
  opts.threads = 4;
  const SolveStats sp = solve_laplace(parallel, bc, opts);
  EXPECT_TRUE(ss.converged);
  EXPECT_TRUE(sp.converged);
  EXPECT_EQ(ss.sweeps, sp.sweeps);
  EXPECT_LT(laplacian_residual(parallel, bc), 1e-7);
  EXPECT_EQ(laplacian_residual(parallel, bc), laplacian_residual(serial, bc));
  for (std::size_t n = 0; n < serial.size(); ++n)
    ASSERT_EQ(serial.data()[n], parallel.data()[n]) << "node " << n;
}

TEST(Solver, AutoThreadsAndMultilevelAgreeWithSerial) {
  // The auto-threaded (threads = 0) V-cycle must reproduce the serial
  // V-cycle and the analytic plate solution.
  Grid3 serial(17, 17, 17, 1e-6), parallel(17, 17, 17, 1e-6);
  const DirichletBc bc = plate_bc(serial, 0.0, 1.0);
  SolverOptions opts;
  opts.tolerance = 1e-9;
  opts.threads = 1;
  solve_laplace(serial, bc, opts);
  opts.threads = 0;  // one lane per hardware thread
  solve_laplace(parallel, bc, opts);
  const double gap = 16.0 * parallel.spacing();
  for (std::size_t k = 0; k < parallel.nz(); ++k)
    EXPECT_NEAR(parallel.at(8, 8, k),
                parallel_plate_potential(0.0, 1.0, gap,
                                         static_cast<double>(k) * parallel.spacing()),
                1e-5);
  for (std::size_t n = 0; n < serial.size(); ++n)
    ASSERT_EQ(serial.data()[n], parallel.data()[n]) << "node " << n;
}

TEST(Solver, MismatchedBcSizeThrows) {
  Grid3 phi(5, 5, 5, 1e-6);
  DirichletBc bc;  // wrong (empty) sizes
  EXPECT_THROW(solve_laplace(phi, bc), PreconditionError);
}

TEST(Solver, OptimalOmegaIncreasesWithGridSize) {
  EXPECT_GT(optimal_omega(64), optimal_omega(16));
  EXPECT_LT(optimal_omega(1024), 2.0);
  EXPECT_GE(optimal_omega(8), 1.0);
}

TEST(Solver, SolutionObeysMaximumPrinciple) {
  // Laplace solutions attain extrema on the boundary: interior must stay
  // within the prescribed range.
  Grid3 phi(17, 17, 9, 1e-6);
  DirichletBc bc = plate_bc(phi, -2.0, 5.0);
  SolverOptions opts;
  opts.tolerance = 1e-8;
  solve_laplace(phi, bc, opts);
  EXPECT_GE(phi.min(), -2.0 - 1e-6);
  EXPECT_LE(phi.max(), 5.0 + 1e-6);
}

TEST(Solver, FieldDecaysAboveStripeArray) {
  // ±V stripes of period 2·pitch: the dominant harmonic of the potential
  // decays like exp(-z/(λ/2π)). Sample low enough that the field is well
  // above the solver tolerance floor.
  const double pitch = 20.0_um;
  ChamberDomain domain{8.0 * pitch, 4.0 * pitch, 4.0 * pitch, pitch / 8.0};
  std::vector<ElectrodePatch> patches;
  for (int s = 0; s < 8; ++s) {
    const double x0 = s * pitch;
    patches.push_back({{{x0, 0.0}, {x0 + pitch, 4.0 * pitch}},
                       {(s % 2 == 0) ? 1.0 : -1.0, 0.0}});
  }
  SolverOptions opts;
  opts.tolerance = 1e-8;
  const PhasorSolution sol = solve_phasor(domain, patches, std::nullopt, opts);
  // Above the center of stripe 4, mid-domain in y.
  const double x = 4.5 * pitch, y = 2.0 * pitch;
  const double expected_decay = periodic_decay_length(2.0 * pitch);
  const double z1 = 10.0_um, z2 = 20.0_um;
  const double w1 = sol.erms2_at({x, y, z1});
  const double w2 = sol.erms2_at({x, y, z2});
  ASSERT_GT(w1, 0.0);
  ASSERT_GT(w2, 0.0);
  ASSERT_GT(w1, w2);
  // W = |E|² decays at twice the potential rate: ratio ≈ exp(-2Δz/λ_d).
  const double measured = std::log(w1 / w2) / (2.0 * (z2 - z1));
  EXPECT_NEAR(1.0 / measured, expected_decay, expected_decay * 0.30);
}

// ------------------------------------------------------------- multigrid ----

// The production-shaped cage workload lives in the library
// (cage_reference_bc, field/boundary.hpp) so the bench and these tests
// exercise the identical boundary condition.
DirichletBc cage_bc(const Grid3& g, double v) { return cage_reference_bc(g, v); }

// All-face homogeneous Dirichlet box with f = -3π² Π sin(πx_i): the exact
// solution is Π sin(πx_i).
struct SinePoisson {
  Grid3 f;
  DirichletBc bc;
  explicit SinePoisson(std::size_t n) : f(n, n, n, 1.0 / static_cast<double>(n - 1)) {
    bc = DirichletBc::all_free(f);
    const double h = f.spacing();
    for (std::size_t k = 0; k < n; ++k)
      for (std::size_t j = 0; j < n; ++j)
        for (std::size_t i = 0; i < n; ++i) {
          if (i == 0 || j == 0 || k == 0 || i == n - 1 || j == n - 1 || k == n - 1)
            bc.fixed[f.index(i, j, k)] = 1;
          f.at(i, j, k) = -3.0 * constants::pi * constants::pi * exact(i, j, k, h);
        }
  }
  static double exact(std::size_t i, std::size_t j, std::size_t k, double h) {
    return std::sin(constants::pi * static_cast<double>(i) * h) *
           std::sin(constants::pi * static_cast<double>(j) * h) *
           std::sin(constants::pi * static_cast<double>(k) * h);
  }
};

TEST(Multigrid, ContractionFactorRoughlyGridIndependent) {
  // Per-cycle residual contraction, measured between cycles 2 and 4 so the
  // initial transient is excluded. O(N) multigrid means the factor must not
  // degrade as the grid is refined — the defining property plain SOR
  // lacks.
  const auto contraction = [](std::size_t n) {
    SinePoisson prob(n);
    const auto residual_after = [&](std::size_t cycles) {
      Grid3 phi(n, n, n, prob.f.spacing());
      SolverOptions o;
      o.cycle = CycleType::vcycle;
      o.cycle_tolerance = 1e-300;  // never satisfied: run exactly max_cycles
      o.max_cycles = cycles;
      o.max_sweeps = 0;  // no SOR fallback work after the cycles
      return solve_poisson(phi, prob.f, prob.bc, o).final_residual;
    };
    return std::sqrt(residual_after(4) / residual_after(2));
  };
  const double rho33 = contraction(33);
  const double rho65 = contraction(65);
  EXPECT_LT(rho33, 0.25);
  EXPECT_LT(rho65, 0.25);
  EXPECT_NEAR(rho65, rho33, 0.10);
}

TEST(Multigrid, VcycleFmgAndSorAgreeOnCageBc) {
  Grid3 a(33, 33, 33, 1e-6), c(33, 33, 33, 1e-6), d(33, 33, 33, 1e-6);
  const DirichletBc bc = cage_bc(a, 3.3);
  SolverOptions plain;
  plain.cycle = CycleType::sor;
  plain.tolerance = 1e-8;
  SolverOptions vcycle;
  vcycle.cycle = CycleType::vcycle;
  vcycle.tolerance = 1e-8;
  SolverOptions fmg;
  fmg.cycle = CycleType::fmg;
  fmg.tolerance = 1e-8;
  EXPECT_TRUE(solve_laplace(a, bc, plain).converged);
  EXPECT_TRUE(solve_laplace(c, bc, vcycle).converged);
  EXPECT_TRUE(solve_laplace(d, bc, fmg).converged);
  for (std::size_t n = 0; n < a.size(); ++n) {
    EXPECT_NEAR(a.data()[n], c.data()[n], 1e-5) << "node " << n;
    EXPECT_NEAR(a.data()[n], d.data()[n], 1e-5) << "node " << n;
  }
}

TEST(Multigrid, PoissonRecoversAnalyticSolution) {
  // Both multilevel Poisson paths — the V-cycle and FMG (which restricts
  // the load down the chain for its nested-iteration start) — must recover
  // the analytic solution to the discretization floor.
  const std::size_t n = 33;
  SinePoisson prob(n);
  const double h = prob.f.spacing();
  for (const CycleType ct : {CycleType::vcycle, CycleType::fmg}) {
    Grid3 phi(n, n, n, h);
    SolverOptions o;
    o.cycle = ct;
    o.tolerance = 1e-9;
    const SolveStats s = solve_poisson(phi, prob.f, prob.bc, o);
    EXPECT_TRUE(s.converged);
    EXPECT_LE(s.cycles, 15u);
    double err = 0.0;
    for (std::size_t k = 0; k < n; ++k)
      for (std::size_t j = 0; j < n; ++j)
        for (std::size_t i = 0; i < n; ++i)
          err = std::max(err,
                         std::fabs(phi.at(i, j, k) - SinePoisson::exact(i, j, k, h)));
    // Second-order discretization: the error floor is O(h²).
    EXPECT_LT(err, 2.0 * h * h);
    EXPECT_GT(err, 0.0);
  }
}

TEST(Multigrid, PoissonZeroRhsMatchesLaplaceBitwise) {
  const std::size_t n = 17;
  Grid3 a(n, n, n, 1e-6), b(n, n, n, 1e-6);
  Grid3 zero(n, n, n, 1e-6);
  DirichletBc bc = cage_bc(a, 2.2);
  const SolveStats sl = solve_laplace(a, bc);
  const SolveStats sp = solve_poisson(b, zero, bc);
  EXPECT_EQ(sl.cycles, sp.cycles);
  for (std::size_t m = 0; m < a.size(); ++m)
    ASSERT_EQ(a.data()[m], b.data()[m]) << "node " << m;
}

TEST(Multigrid, SimdAndScalarPathsBitIdentical) {
  // The AVX2 row kernels use the same IEEE operations in the same order as
  // the scalar loop (no FMA contraction), so the full V-cycle must
  // reproduce the scalar solve bit for bit on both dispatch paths.
  Grid3 simd(33, 33, 33, 1e-6), scalar(33, 33, 33, 1e-6);
  DirichletBc bc = cage_bc(simd, 3.3);
  bc.value[simd.index(16, 16, 0)] = 1.1;  // break symmetry
  SolverOptions o;
  o.tolerance = 1e-8;
  stencil::force_scalar(false);
  solve_laplace(simd, bc, o);
  stencil::force_scalar(true);
  solve_laplace(scalar, bc, o);
  stencil::force_scalar(false);
  EXPECT_EQ(laplacian_residual(simd, bc), laplacian_residual(scalar, bc));
  for (std::size_t n = 0; n < simd.size(); ++n)
    ASSERT_EQ(simd.data()[n], scalar.data()[n]) << "node " << n;
}

TEST(Multigrid, WorkspaceReuseBitIdentical) {
  // A shared hierarchy (grids + restricted masks prepared once) must not
  // change any result: solves through a reused workspace reproduce solves
  // through fresh ones exactly, including after the drive values change.
  const std::size_t n = 17;
  const DirichletBc bc1 = cage_bc(Grid3(n, n, n, 1e-6), 3.3);
  DirichletBc bc2 = bc1;  // same mask, different values
  for (double& v : bc2.value) v *= -0.5;
  MultigridWorkspace shared;
  Grid3 a1(n, n, n, 1e-6), a2(n, n, n, 1e-6);
  solve_laplace(a1, bc1, {}, &shared);
  solve_laplace(a2, bc2, {}, &shared);  // reuses grids and masks
  Grid3 f1(n, n, n, 1e-6), f2(n, n, n, 1e-6);
  solve_laplace(f1, bc1);
  solve_laplace(f2, bc2);
  for (std::size_t m = 0; m < a1.size(); ++m) {
    ASSERT_EQ(a1.data()[m], f1.data()[m]) << "node " << m;
    ASSERT_EQ(a2.data()[m], f2.data()[m]) << "node " << m;
  }
}

TEST(Multigrid, ThinGapContractionGridIndependentWithoutFallback) {
  // The paper's calibration-patch geometry: 1-node electrode gaps that mask
  // injection erases on the first coarse level. With Galerkin (RAP) coarse
  // operators the V-cycle must converge WITHOUT any fallback at a
  // grid-independent contraction factor ≤ 0.15 (the injected-mask operator
  // stalled near the smoothing-only rate here and needed a fallback).
  const auto contraction = [](std::size_t n) {
    Grid3 g(n, n, n, 1e-6);
    const DirichletBc bc = cage_thin_gap_bc(g, 3.3, 1);
    const auto residual_after = [&](std::size_t cycles) {
      Grid3 phi(n, n, n, 1e-6);
      SolverOptions o;
      o.cycle = CycleType::vcycle;
      o.cycle_tolerance = 1e-300;  // never satisfied: run exactly max_cycles
      o.max_cycles = cycles;
      o.max_sweeps = 0;  // no fallback budget
      return solve_laplace(phi, bc, o).final_residual;
    };
    return std::sqrt(residual_after(4) / residual_after(2));
  };
  const double rho33 = contraction(33);
  const double rho65 = contraction(65);
  EXPECT_LT(rho33, 0.15);
  EXPECT_LT(rho65, 0.15);
  EXPECT_NEAR(rho65, rho33, 0.05);
  // Full solve: converges within the cycle budget, and every fine smoothing
  // sweep is a cycle sweep (pre+post per cycle) — no fallback tail ran.
  Grid3 phi(33, 33, 33, 1e-6);
  const DirichletBc bc = cage_thin_gap_bc(phi, 3.3, 1);
  SolverOptions o;
  o.cycle = CycleType::vcycle;
  o.tolerance = 1e-8;
  const SolveStats s = solve_laplace(phi, bc, o);
  EXPECT_TRUE(s.converged);
  EXPECT_LE(s.cycles, 10u);
  EXPECT_EQ(s.sweeps, s.cycles * (o.pre_smooth + o.post_smooth));
}

TEST(Multigrid, ThreeStrategiesAgreeOnThinGapBc) {
  // SOR, V-cycle and FMG agree on the hostile thin-gap geometry.
  const std::size_t n = 33;
  Grid3 a(n, n, n, 1e-6), c(n, n, n, 1e-6), d(n, n, n, 1e-6);
  const DirichletBc bc = cage_thin_gap_bc(a, 3.3, 1);
  SolverOptions plain;
  plain.cycle = CycleType::sor;
  plain.tolerance = 1e-8;
  SolverOptions vcycle;
  vcycle.cycle = CycleType::vcycle;
  vcycle.tolerance = 1e-8;
  SolverOptions fmg;
  fmg.cycle = CycleType::fmg;
  fmg.tolerance = 1e-8;
  EXPECT_TRUE(solve_laplace(a, bc, plain).converged);
  EXPECT_TRUE(solve_laplace(c, bc, vcycle).converged);
  EXPECT_TRUE(solve_laplace(d, bc, fmg).converged);
  for (std::size_t m = 0; m < a.size(); ++m) {
    EXPECT_NEAR(a.data()[m], c.data()[m], 1e-5) << "node " << m;
    EXPECT_NEAR(a.data()[m], d.data()[m], 1e-5) << "node " << m;
  }
}

TEST(Multigrid, FmgBeatsSorAndVcycleOnFineEquivalentWork) {
  // The FMG acceptance property: at the residual a tight plain-SOR solve
  // achieves, the nested-iteration start plus per-level V-cycles costs less
  // than both SOR and the plain V-cycle, on the thin-gap geometry.
  const std::size_t n = 33;
  Grid3 a(n, n, n, 1e-6), b(n, n, n, 1e-6), c(n, n, n, 1e-6);
  const DirichletBc bc = cage_thin_gap_bc(a, 3.3, 1);
  SolverOptions plain;
  plain.cycle = CycleType::sor;
  plain.tolerance = 1e-8;
  const SolveStats sa = solve_laplace(a, bc, plain);
  ASSERT_TRUE(sa.converged);
  const double match = laplacian_residual(a, bc);
  SolverOptions vcycle;
  vcycle.cycle = CycleType::vcycle;
  vcycle.cycle_tolerance = match;
  const SolveStats sb = solve_laplace(b, bc, vcycle);
  ASSERT_TRUE(sb.converged);
  SolverOptions fmg;
  fmg.cycle = CycleType::fmg;
  fmg.cycle_tolerance = match;
  const SolveStats sc = solve_laplace(c, bc, fmg);
  ASSERT_TRUE(sc.converged);
  EXPECT_LE(laplacian_residual(c, bc), match);
  EXPECT_LT(sc.fine_equiv_sweeps, sb.fine_equiv_sweeps);
  EXPECT_LT(sc.fine_equiv_sweeps, sa.fine_equiv_sweeps);
}

TEST(Multigrid, VarCoefficientKernelsBitIdenticalAcrossPaths) {
  // The thin-gap hierarchy smooths every coarse level with the 27-point
  // variable-coefficient kernels; SIMD vs scalar and serial vs threaded
  // must stay bit-identical there exactly as on the constant kernels.
  const std::size_t n = 33;
  Grid3 simd(n, n, n, 1e-6), scalar(n, n, n, 1e-6), threaded(n, n, n, 1e-6);
  DirichletBc bc = cage_thin_gap_bc(simd, 3.3, 1);
  bc.value[simd.index(16, 16, 0)] = 1.1;  // break symmetry
  for (const CycleType ct : {CycleType::vcycle, CycleType::fmg}) {
    SolverOptions o;
    o.cycle = ct;
    o.tolerance = 1e-8;
    stencil::force_scalar(false);
    solve_laplace(simd, bc, o);
    stencil::force_scalar(true);
    solve_laplace(scalar, bc, o);
    stencil::force_scalar(false);
    o.threads = 4;
    solve_laplace(threaded, bc, o);
    for (std::size_t m = 0; m < simd.size(); ++m) {
      ASSERT_EQ(simd.data()[m], scalar.data()[m]) << "node " << m;
      ASSERT_EQ(simd.data()[m], threaded.data()[m]) << "node " << m;
    }
  }
}

TEST(Multigrid, BroadcastSmootherBitIdenticalToVarOnUniformRows) {
  // The constant-stencil broadcast fast path (smooth_plane_var_bcast) must
  // reproduce smooth_plane_var bit for bit: the flagged rows' coefficients
  // are literal copies of the level's uniform interior stencil, so only the
  // memory traffic may differ — never a bit of the result.
  const std::size_t n = 33;
  Grid3 g(n, n, n, 1e-6);
  const DirichletBc bc = cage_bc(g, 3.3);
  MultigridWorkspace ws;
  ws.prepare(g, bc);
  ASSERT_FALSE(ws.levels().empty());

  bool any_uniform_row = false;
  for (MultigridWorkspace::Level& lev : ws.levels()) {
    const stencil::Dims dims{lev.e.nx(), lev.e.ny(), lev.e.nz()};
    std::size_t flagged = 0;
    for (const std::uint8_t u : lev.row_uniform) flagged += u;
    if (flagged > 0) any_uniform_row = true;

    // Deterministic non-trivial iterate and RHS.
    Grid3 a = lev.e;
    std::vector<double> rhs(lev.e.size());
    for (std::size_t m = 0; m < a.size(); ++m) {
      a.data()[m] = lev.fixed[m] ? 0.0 : 1e-3 * static_cast<double>(m % 89) - 0.04;
      rhs[m] = 2e-4 * static_cast<double>((m * 7) % 97) - 0.01;
    }
    Grid3 b = a;
    for (const bool scalar : {false, true}) {
      stencil::force_scalar(scalar);
      for (int color = 0; color < 2; ++color)
        for (std::size_t k = 0; k < dims.nz; ++k) {
          const double ua = stencil::smooth_plane_var(
              a.data().data(), lev.fixed.data(), lev.stencil.data(),
              lev.inv_diag.data(), rhs.data(), dims, 1.15, color, k);
          const double ub = stencil::smooth_plane_var_bcast(
              b.data().data(), lev.fixed.data(), lev.stencil.data(),
              lev.row_uniform.data(), lev.uniform_stencil.data(),
              lev.uniform_inv_diag, lev.inv_diag.data(), rhs.data(), dims, 1.15,
              color, k);
          ASSERT_EQ(ua, ub) << "color " << color << " plane " << k;
        }
      for (std::size_t m = 0; m < a.size(); ++m)
        ASSERT_EQ(a.data()[m], b.data()[m]) << "node " << m << " scalar=" << scalar;
    }
    stencil::force_scalar(false);
  }
  // The cage BC's coarse interior is translation-invariant away from the
  // electrodes: the fast path must actually trigger somewhere.
  EXPECT_TRUE(any_uniform_row);
}

TEST(Solver, AnisotropicAutoOmegaDoesNotRegress) {
  // Auto-omega derives the model-problem ω from per-axis dimensions; on an
  // elongated chamber grid the historical longest-side formula over-relaxes
  // the short axis. The per-axis choice must not need more sweeps.
  EXPECT_NEAR(optimal_omega(33, 33, 33), optimal_omega(33), 1e-12);
  EXPECT_LT(optimal_omega(65, 65, 9), optimal_omega(65));
  Grid3 a(65, 65, 9, 1e-6), b(65, 65, 9, 1e-6);
  const DirichletBc bc = plate_bc(a, 0.0, 3.3);
  SolverOptions auto_omega;
  auto_omega.cycle = CycleType::sor;
  auto_omega.tolerance = 1e-8;
  SolverOptions longest;
  longest.cycle = CycleType::sor;
  longest.tolerance = 1e-8;
  longest.omega = optimal_omega(65);  // the historical longest-side choice
  const SolveStats sa = solve_laplace(a, bc, auto_omega);
  const SolveStats sl = solve_laplace(b, bc, longest);
  EXPECT_TRUE(sa.converged);
  EXPECT_TRUE(sl.converged);
  EXPECT_LE(sa.sweeps, sl.sweeps);
}

TEST(Multigrid, VcycleBeatsSorOnFineEquivalentWork) {
  // The headline property: at matched achieved residual on the cage BC, the
  // V-cycle spends a small fraction of plain SOR's fine-grid-equivalent
  // sweeps (the bench records the exact ratio; here we assert a safe 2x).
  Grid3 a(33, 33, 33, 1e-6), b(33, 33, 33, 1e-6);
  const DirichletBc bc = cage_bc(a, 3.3);
  SolverOptions plain;
  plain.cycle = CycleType::sor;
  plain.tolerance = 1e-8;
  const SolveStats sc = solve_laplace(a, bc, plain);
  ASSERT_TRUE(sc.converged);
  SolverOptions vcycle;
  vcycle.cycle = CycleType::vcycle;
  vcycle.cycle_tolerance = laplacian_residual(a, bc);  // match SOR
  const SolveStats sv = solve_laplace(b, bc, vcycle);
  ASSERT_TRUE(sv.converged);
  EXPECT_LE(laplacian_residual(b, bc), laplacian_residual(a, bc));
  EXPECT_LT(sv.fine_equiv_sweeps * 2.0, sc.fine_equiv_sweeps);
}

TEST(Multigrid, CycleCapFinishesOnSor) {
  // A V-cycle that hits max_cycles hands its iterate to plain SOR, on
  // Laplace and Poisson problems alike: the solve still converges, runs fine
  // sweeps beyond the cycles' own, and lands on the plain SOR solution.
  const std::size_t n = 33;
  SolverOptions capped;
  capped.cycle = CycleType::vcycle;
  capped.max_cycles = 1;
  capped.tolerance = 1e-9;
  SolverOptions plain;
  plain.cycle = CycleType::sor;
  plain.tolerance = 1e-9;
  const auto expect_sor_tail = [&](const SolveStats& s, const Grid3& got,
                                   const Grid3& sor) {
    EXPECT_TRUE(s.converged);
    EXPECT_EQ(s.cycles, 1u);
    EXPECT_GT(s.sweeps, s.cycles * (capped.pre_smooth + capped.post_smooth));
    for (std::size_t m = 0; m < got.size(); ++m)
      ASSERT_NEAR(got.data()[m], sor.data()[m], 1e-5) << "node " << m;
  };
  {
    Grid3 a(n, n, n, 1e-6), b(n, n, n, 1e-6);
    const DirichletBc bc = cage_bc(a, 3.3);
    const SolveStats s = solve_laplace(a, bc, capped);
    ASSERT_TRUE(solve_laplace(b, bc, plain).converged);
    expect_sor_tail(s, a, b);
  }
  {
    SinePoisson prob(n);
    Grid3 a(n, n, n, prob.f.spacing()), b(n, n, n, prob.f.spacing());
    const SolveStats s = solve_poisson(a, prob.f, prob.bc, capped);
    ASSERT_TRUE(solve_poisson(b, prob.f, prob.bc, plain).converged);
    expect_sor_tail(s, a, b);
  }
}

TEST(Stencil, SimdLevelIsAvx2ByCpuidOrScalar) {
  // The dispatch is a fixed CPUID choice, never a timing: AVX2 when the CPU
  // has it, scalar otherwise, and scalar whenever a test forces it.
  stencil::force_scalar(true);
  EXPECT_EQ(stencil::simd_level(), 0);
  stencil::force_scalar(false);
  if (const char* level = std::getenv("BIOCHIP_SIMD_LEVEL")) {
    if (std::string_view(level) == "0") {
      EXPECT_EQ(stencil::simd_level(), 0);
    }
    GTEST_SKIP() << "BIOCHIP_SIMD_LEVEL=" << level << " overrides the CPUID choice";
  }
#if BIOCHIP_STENCIL_X86
  const int expected = __builtin_cpu_supports("avx2") ? 1 : 0;
#else
  const int expected = 0;
#endif
  EXPECT_EQ(stencil::simd_level(), expected);
}

// -------------------------------------------------------------- boundary ----

TEST(Boundary, NodesUnderElectrodeArePinned) {
  ChamberDomain domain{100.0_um, 100.0_um, 50.0_um, 10.0_um};
  std::vector<ElectrodePatch> patches{
      {{{20.0_um, 20.0_um}, {60.0_um, 60.0_um}}, {2.0, 1.0}}};
  const PhasorBc bc = build_boundary(domain, patches, std::nullopt);
  Grid3 probe = domain.make_grid();
  // Node at (40µm, 40µm, 0) lies inside the patch.
  const std::size_t inside = probe.index(4, 4, 0);
  EXPECT_EQ(bc.re.fixed[inside], 1);
  EXPECT_DOUBLE_EQ(bc.re.value[inside], 2.0);
  EXPECT_DOUBLE_EQ(bc.im.value[inside], 1.0);
  // Node at the far corner is free.
  const std::size_t outside = probe.index(9, 9, 0);
  EXPECT_EQ(bc.re.fixed[outside], 0);
}

TEST(Boundary, LidPinsTopPlane) {
  ChamberDomain domain{40.0_um, 40.0_um, 20.0_um, 10.0_um};
  std::vector<ElectrodePatch> patches{{{{0.0, 0.0}, {40.0_um, 40.0_um}}, {1.0, 0.0}}};
  const PhasorBc bc = build_boundary(domain, patches, std::complex<double>{-1.0, 0.0});
  Grid3 probe = domain.make_grid();
  for (std::size_t j = 0; j < probe.ny(); ++j)
    for (std::size_t i = 0; i < probe.nx(); ++i) {
      EXPECT_EQ(bc.re.fixed[probe.index(i, j, probe.nz() - 1)], 1);
      EXPECT_DOUBLE_EQ(bc.re.value[probe.index(i, j, probe.nz() - 1)], -1.0);
    }
}

TEST(Boundary, OverlappingElectrodesRejected) {
  ChamberDomain domain{100.0_um, 100.0_um, 50.0_um, 10.0_um};
  std::vector<ElectrodePatch> patches{
      {{{0.0, 0.0}, {50.0_um, 50.0_um}}, {1.0, 0.0}},
      {{{40.0_um, 40.0_um}, {90.0_um, 90.0_um}}, {-1.0, 0.0}}};
  EXPECT_THROW(build_boundary(domain, patches, std::nullopt), ConfigError);
}

TEST(Boundary, DomainNodeCounts) {
  ChamberDomain domain{100.0_um, 60.0_um, 40.0_um, 20.0_um};
  EXPECT_EQ(domain.nodes_x(), 6u);
  EXPECT_EQ(domain.nodes_y(), 4u);
  EXPECT_EQ(domain.nodes_z(), 3u);
}

// ---------------------------------------------------------------- phasor ----

TEST(Phasor, PureRealDriveHasZeroImaginaryPart) {
  ChamberDomain domain{80.0_um, 80.0_um, 40.0_um, 10.0_um};
  std::vector<ElectrodePatch> patches{
      {{{20.0_um, 20.0_um}, {60.0_um, 60.0_um}}, {1.0, 0.0}}};
  const PhasorSolution sol = solve_phasor(domain, patches, std::complex<double>{0.0, 0.0});
  EXPECT_NEAR(sol.phi_im().max(), 0.0, 1e-12);
  EXPECT_NEAR(sol.phi_im().min(), 0.0, 1e-12);
}

TEST(Phasor, QuadratureDriveSplitsAcrossParts) {
  ChamberDomain domain{80.0_um, 80.0_um, 40.0_um, 10.0_um};
  std::vector<ElectrodePatch> patches{
      {{{20.0_um, 20.0_um}, {60.0_um, 60.0_um}}, {0.0, 1.5}}};  // 90° drive
  const PhasorSolution sol = solve_phasor(domain, patches, std::complex<double>{0.0, 0.0});
  EXPECT_NEAR(sol.phi_re().max(), 0.0, 1e-12);
  EXPECT_GT(sol.phi_im().max(), 1.0);
}

TEST(Phasor, Erms2OfUniformFieldMatchesAnalytic) {
  // Whole bottom at +V, lid at -V: |E| = 2V/gap, E_rms² = |E|²/2.
  ChamberDomain domain{80.0_um, 80.0_um, 40.0_um, 5.0_um};
  std::vector<ElectrodePatch> patches{{{{0.0, 0.0}, {80.0_um, 80.0_um}}, {1.0, 0.0}}};
  SolverOptions opts;
  opts.tolerance = 1e-9;
  const PhasorSolution sol =
      solve_phasor(domain, patches, std::complex<double>{-1.0, 0.0}, opts);
  const double e_mag = 2.0 / 40.0_um;
  const double expect = 0.5 * e_mag * e_mag;
  EXPECT_NEAR(sol.erms2_at({40.0_um, 40.0_um, 20.0_um}), expect, expect * 0.01);
  EXPECT_NEAR(sol.erms_at({40.0_um, 40.0_um, 20.0_um}), e_mag / std::sqrt(2.0),
              e_mag * 0.01);
}

TEST(Phasor, MismatchedQuadratureGridsThrow) {
  Grid3 a(4, 4, 4, 1.0), b(5, 5, 5, 1.0);
  EXPECT_THROW(PhasorSolution(a, b), PreconditionError);
}

// ----------------------------------------------------------- basis cache ----

class BasisCacheTest : public ::testing::Test {
 protected:
  static constexpr double kPitch = 20.0e-6;
  ChamberDomain domain_{3 * kPitch, 3 * kPitch, 2 * kPitch, kPitch / 4.0};
  std::vector<Rect> footprints_ = [] {
    std::vector<Rect> f;
    for (int r = 0; r < 3; ++r)
      for (int c = 0; c < 3; ++c) {
        const double x0 = c * kPitch + 0.1 * kPitch;
        const double y0 = r * kPitch + 0.1 * kPitch;
        f.push_back({{x0, y0}, {x0 + 0.8 * kPitch, y0 + 0.8 * kPitch}});
      }
    return f;
  }();
};

TEST_F(BasisCacheTest, ComposeMatchesDirectSolve) {
  BasisCache cache(domain_, footprints_, /*lid_present=*/true);
  EXPECT_EQ(cache.solves_performed(), 10u);  // 9 electrodes + lid
  std::vector<std::complex<double>> drive(9, {-3.3, 0.0});
  drive[4] = {3.3, 0.0};  // center cage
  const PhasorSolution composed = cache.compose(drive, {3.3, 0.0});
  const PhasorSolution direct = cache.solve_direct(drive, {3.3, 0.0});
  double worst = 0.0;
  for (std::size_t n = 0; n < composed.phi_re().size(); ++n)
    worst = std::max(worst,
                     std::fabs(composed.phi_re().data()[n] - direct.phi_re().data()[n]));
  EXPECT_LT(worst, 5e-4 * 3.3);  // superposition exact up to solver tolerance
}

TEST_F(BasisCacheTest, LinearityInDriveAmplitude) {
  BasisCache cache(domain_, footprints_, true);
  std::vector<std::complex<double>> unit(9, {0.0, 0.0});
  unit[4] = {1.0, 0.0};
  std::vector<std::complex<double>> threex(9, {0.0, 0.0});
  threex[4] = {3.0, 0.0};
  const PhasorSolution a = cache.compose(unit, {0.0, 0.0});
  const PhasorSolution b = cache.compose(threex, {0.0, 0.0});
  // E_rms² scales as amplitude².
  const Vec3 p{1.5 * kPitch, 1.5 * kPitch, kPitch};
  EXPECT_NEAR(b.erms2_at(p), 9.0 * a.erms2_at(p), 9.0 * a.erms2_at(p) * 1e-6 + 1e-12);
}

TEST_F(BasisCacheTest, WrongDriveSizeThrows) {
  BasisCache cache(domain_, footprints_, false);
  std::vector<std::complex<double>> drive(4, {1.0, 0.0});
  EXPECT_THROW(cache.compose(drive), PreconditionError);
}

// -------------------------------------------------------------- analytic ----

TEST(Analytic, HarmonicCageFieldAndGradient) {
  HarmonicCage cage{{0, 0, 10e-6}, 100.0, 4.0e18, 8.0e18};
  EXPECT_DOUBLE_EQ(cage.erms2(cage.center), 100.0);
  const Vec3 p{1e-6, 0, 10e-6};
  EXPECT_NEAR(cage.erms2(p), 100.0 + 0.5 * 4.0e18 * 1e-12, 1e-3);
  const Vec3 g = cage.grad_erms2(p);
  EXPECT_NEAR(g.x, 4.0e18 * 1e-6, 1.0);
  EXPECT_DOUBLE_EQ(g.y, 0.0);
  EXPECT_DOUBLE_EQ(g.z, 0.0);
}

TEST(Analytic, MovedCageKeepsCurvatures) {
  HarmonicCage cage{{0, 0, 0}, 1.0, 2.0, 3.0};
  const HarmonicCage moved = cage.moved_to({5, 6, 7});
  EXPECT_EQ(moved.center, (Vec3{5, 6, 7}));
  EXPECT_DOUBLE_EQ(moved.c_r, 2.0);
  EXPECT_DOUBLE_EQ(moved.c_z, 3.0);
}

TEST(Analytic, CalibrationRecoversSyntheticQuadratic) {
  // Build a grid holding an exact quadratic bowl and calibrate against it.
  Grid3 re(33, 33, 33, 1e-6), im(33, 33, 33, 1e-6);
  // erms2_from_quadratures of a linear potential is constant; instead test
  // calibrate_cage through a hand-made PhasorSolution whose erms2 we control
  // is not possible without a solve, so validate on a synthetic solve:
  // a single in-phase electrode under counter-phase neighbours (as in the
  // device) must produce a closed cage — covered in test_chip. Here check
  // the error paths only.
  PhasorSolution sol(re, im);  // zero field everywhere
  const Aabb box{{5e-6, 5e-6, 5e-6}, {25e-6, 25e-6, 25e-6}};
  EXPECT_THROW(calibrate_cage(sol, box, 2e-6), NumericError);
}

TEST(Analytic, ParallelPlateHelperClamps) {
  EXPECT_DOUBLE_EQ(parallel_plate_potential(0.0, 10.0, 1e-4, 0.5e-4), 5.0);
  EXPECT_DOUBLE_EQ(parallel_plate_potential(0.0, 10.0, 1e-4, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(parallel_plate_potential(0.0, 10.0, 1e-4, 1.0), 10.0);
}

TEST(Analytic, DecayLengthFormula) {
  EXPECT_NEAR(periodic_decay_length(2.0 * constants::pi), 1.0, 1e-12);
  EXPECT_THROW(periodic_decay_length(0.0), PreconditionError);
}

}  // namespace
}  // namespace biochip::field
