// Experiment S-1 — field-solver engineering: SOR vs multigrid V-cycle vs
// FMG scaling (with fine-grid-equivalent work accounting), solver
// accuracy against the analytic parallel-plate solution, and the
// superposition-cache ablation that makes many-pattern simulation
// tractable (DESIGN.md §5).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <iostream>

#include "chip/device.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "field/analytic.hpp"
#include "field/basis_cache.hpp"
#include "field/boundary.hpp"
#include "field/incremental.hpp"
#include "field/phasor.hpp"
#include "field/solver.hpp"
#include "field/stencil_kernel.hpp"

using namespace biochip;
using namespace biochip::units;
using namespace biochip::field;

namespace {

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

// The cage-electrode workload shared with tests/test_field.cpp: see
// cage_reference_bc in field/boundary.hpp. Unlike the parallel-plate
// problem — whose solution is linear in z, so nested iteration interpolates
// it exactly and converges in one fine sweep — this is a genuinely 3D
// workload on which the multilevel strategies earn their keep;
// bm_multilevel / bm_fmg run on it for exactly that reason.
DirichletBc cage_bc(const Grid3& g, double v) { return cage_reference_bc(g, v); }

void print_solver_scaling() {
  print_banner(
      std::cout,
      "S-1: SOR vs V-cycle vs FMG (cage-electrode BC, matched residual)");
  Table t({"grid", "SOR fe-sweeps", "vcycle fe-sweeps", "fmg fe-sweeps", "fmg cycles",
           "residual [V]", "SOR/fmg"});
  for (std::size_t n : {17u, 33u, 65u}) {
    Grid3 a(n, n, n, 1e-6), c(n, n, n, 1e-6), d(n, n, n, 1e-6);
    const DirichletBc bc = cage_bc(a, 3.3);
    SolverOptions plain;
    plain.cycle = CycleType::sor;
    plain.tolerance = 1e-8;
    const SolveStats sa = solve_laplace(a, bc, plain);
    // The cycles target the residual a tight plain-SOR solve achieved, so
    // the work columns compare equal-quality solves.
    SolverOptions vcycle;
    vcycle.cycle = CycleType::vcycle;
    vcycle.cycle_tolerance = laplacian_residual(a, bc);
    const SolveStats sc = solve_laplace(c, bc, vcycle);
    SolverOptions fmg;
    fmg.cycle = CycleType::fmg;
    fmg.cycle_tolerance = vcycle.cycle_tolerance;
    const SolveStats sd = solve_laplace(d, bc, fmg);
    t.row()
        .cell(std::to_string(n) + "^3")
        .cell(sa.fine_equiv_sweeps, 1)
        .cell(sc.fine_equiv_sweeps, 1)
        .cell(sd.fine_equiv_sweeps, 1)
        .cell(std::to_string(sd.cycles))
        .cell(laplacian_residual(d, bc), 9)
        .cell(sa.fine_equiv_sweeps / sd.fine_equiv_sweeps, 2);
  }
  t.print(std::cout);
  std::cout << "\nShape check: SOR's fine-equivalent work grows with grid size\n"
               "(it only smooths on the fine grid); the V-cycle corrects\n"
               "fine-grid error on coarse grids, so its work per solve stays\n"
               "nearly flat; FMG prepends the nested-iteration start and cuts\n"
               "another cycle or two off the fine-level iteration.\n";

  print_banner(std::cout,
               "S-1: thin-gap (1-node) calibration patch — RAP coarse operators");
  Table tg({"grid", "vcycle rho/cycle", "SOR fe-sweeps", "vcycle fe-sweeps",
            "fmg fe-sweeps", "fallback sweeps"});
  for (std::size_t n : {33u, 65u}) {
    Grid3 a(n, n, n, 1e-6), b(n, n, n, 1e-6), c(n, n, n, 1e-6);
    const DirichletBc bc = cage_thin_gap_bc(a, 3.3, 1);
    const auto residual_after = [&](std::size_t cycles) {
      Grid3 phi(n, n, n, 1e-6);
      SolverOptions o;
      o.cycle = CycleType::vcycle;
      o.cycle_tolerance = 1e-300;
      o.max_cycles = cycles;
      o.max_sweeps = 0;
      return solve_laplace(phi, bc, o).final_residual;
    };
    const double rho = std::sqrt(residual_after(4) / residual_after(2));
    SolverOptions plain;
    plain.cycle = CycleType::sor;
    plain.tolerance = 1e-8;
    const SolveStats sa = solve_laplace(a, bc, plain);
    SolverOptions vcycle;
    vcycle.cycle = CycleType::vcycle;
    vcycle.cycle_tolerance = laplacian_residual(a, bc);
    const SolveStats sb = solve_laplace(b, bc, vcycle);
    SolverOptions fmg;
    fmg.cycle = CycleType::fmg;
    fmg.cycle_tolerance = vcycle.cycle_tolerance;
    const SolveStats sc = solve_laplace(c, bc, fmg);
    // Any sweep beyond the per-cycle budget would be fallback tail work;
    // with RAP coarse operators this column must read 0.
    const std::size_t fallback =
        sb.sweeps - sb.cycles * (vcycle.pre_smooth + vcycle.post_smooth);
    tg.row()
        .cell(std::to_string(n) + "^3")
        .cell(rho, 4)
        .cell(sa.fine_equiv_sweeps, 1)
        .cell(sb.fine_equiv_sweeps, 1)
        .cell(sc.fine_equiv_sweeps, 1)
        .cell(std::to_string(fallback));
  }
  tg.print(std::cout);
  std::cout << "\nShape check: before the Galerkin (RAP) coarse operators this BC\n"
               "stalled the cycle (injected coarse masks erase a 1-node gap) and\n"
               "needed a fallback; now the contraction is grid-independent\n"
               "and the fallback column is zero.\n";

  print_banner(std::cout, "S-1: plate-problem accuracy (V-cycle, tol 1e-6)");
  Table t2({"grid", "vcycle err vs analytic [V]"});
  for (std::size_t n : {17u, 33u, 65u}) {
    Grid3 c(n, n, n, 1e-6);
    const DirichletBc bc = plate_bc(c, 0.0, 3.3);
    SolverOptions vcycle;
    vcycle.cycle = CycleType::vcycle;
    solve_laplace(c, bc, vcycle);
    const double gap = static_cast<double>(n - 1) * 1e-6;
    double errc = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const double expect =
          parallel_plate_potential(0.0, 3.3, gap, static_cast<double>(k) * 1e-6);
      errc = std::max(errc, std::fabs(c.at(n / 2, n / 2, k) - expect));
    }
    t2.row().cell(std::to_string(n) + "^3").cell(errc, 6);
  }
  t2.print(std::cout);
}

void print_superposition_ablation() {
  print_banner(std::cout,
               "S-1 ablation: superposition cache vs direct solve (5x5 patch)");
  const double pitch = 20.0_um;
  ChamberDomain domain{5 * pitch, 5 * pitch, 5 * pitch, pitch / 4.0};
  std::vector<Rect> footprints;
  for (int r = 0; r < 5; ++r)
    for (int c = 0; c < 5; ++c) {
      const double x0 = c * pitch + 0.1 * pitch, y0 = r * pitch + 0.1 * pitch;
      footprints.push_back({{x0, y0}, {x0 + 0.8 * pitch, y0 + 0.8 * pitch}});
    }
  BasisCache cache(domain, footprints, true);

  // Time K pattern evaluations both ways.
  const int kPatterns = 16;
  auto make_drive = [&](int k) {
    std::vector<std::complex<double>> drive(25, {-3.3, 0.0});
    drive[static_cast<std::size_t>(k) % 25] = {3.3, 0.0};
    return drive;
  };

  const auto t0 = std::chrono::steady_clock::now();
  double acc = 0.0;
  for (int k = 0; k < kPatterns; ++k)
    acc += cache.compose(make_drive(k), {3.3, 0.0}).erms2_at({50.0_um, 50.0_um, 20.0_um});
  const auto t1 = std::chrono::steady_clock::now();
  for (int k = 0; k < kPatterns; ++k)
    acc +=
        cache.solve_direct(make_drive(k), {3.3, 0.0}).erms2_at({50.0_um, 50.0_um, 20.0_um});
  const auto t2 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(acc);

  const double t_compose =
      std::chrono::duration<double>(t1 - t0).count() / kPatterns;
  const double t_direct = std::chrono::duration<double>(t2 - t1).count() / kPatterns;
  Table t({"path", "per-pattern time [ms]", "speedup", "one-time cost"});
  t.row().cell("direct solve").cell(t_direct * 1e3, 2).cell(1.0, 1).cell("-");
  t.row()
      .cell("superposition cache")
      .cell(t_compose * 1e3, 2)
      .cell(t_direct / t_compose, 1)
      .cell(std::to_string(cache.solves_performed()) + " basis solves");
  t.print(std::cout);

  // Accuracy of the composed field vs direct.
  std::vector<std::complex<double>> drive = make_drive(12);
  const PhasorSolution composed = cache.compose(drive, {3.3, 0.0});
  const PhasorSolution direct = cache.solve_direct(drive, {3.3, 0.0});
  double worst = 0.0;
  for (std::size_t n = 0; n < composed.phi_re().size(); ++n)
    worst = std::max(worst, std::fabs(composed.phi_re().data()[n] -
                                      direct.phi_re().data()[n]));
  std::cout << "\nComposition error vs direct solve: " << si_format(worst, "V")
            << " (superposition is exact up to solver tolerance).\n";
}

void print_cage_convergence() {
  print_banner(std::cout, "S-1: cage calibration vs grid resolution (paper device)");
  const chip::BiochipDevice dev = chip::paper_device();
  Table t({"nodes/pitch", "cage z [um]", "c_r [V^2/m^4]", "c_z [V^2/m^4]"});
  MultigridWorkspace workspace;  // re-derived only when npp changes the shape
  for (int npp : {4, 6, 8, 10}) {
    const HarmonicCage cage = dev.calibrate_cage(5, npp, &workspace);
    t.row()
        .cell(npp)
        .cell(cage.center.z * 1e6, 2)
        .cell(cage.c_r, 3)
        .cell(cage.c_z, 3);
  }
  t.print(std::cout);
  std::cout << "\nShape check: calibrated curvatures settle to within ~10% by 6-8\n"
               "nodes/pitch — the default used throughout the framework.\n";
}

void bm_sor(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Grid3 g(n, n, n, 1e-6);
    const DirichletBc bc = plate_bc(g, 0.0, 3.3);
    SolverOptions opts;
    opts.cycle = CycleType::sor;
    SolveStats s = solve_laplace(g, bc, opts);
    benchmark::DoNotOptimize(s.sweeps);
  }
}

// Production multilevel path: the V-cycle on the cage-electrode BC. (The
// historical bm_multilevel measured nested iteration on the plate problem,
// which interpolation solves exactly — a degenerate case; see docs/perf.md
// for the trajectory discontinuity note.)
void bm_multilevel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  double fe = 0.0;
  for (auto _ : state) {
    Grid3 g(n, n, n, 1e-6);
    const DirichletBc bc = cage_bc(g, 3.3);
    SolverOptions opts;
    opts.cycle = CycleType::vcycle;
    SolveStats s = solve_laplace(g, bc, opts);
    fe = s.fine_equiv_sweeps;
    benchmark::DoNotOptimize(s.sweeps);
  }
  state.counters["fe_sweeps"] = fe;
}

// The production repeated-solve pattern (basis-cache builds, phasor
// quadrature pairs): the Galerkin hierarchy is prepared once in a shared
// MultigridWorkspace and reused, so the RAP build cost amortizes away.
// bm_multilevel measures the cold path (fresh workspace per solve).
void bm_vcycle_warm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  MultigridWorkspace workspace;
  double fe = 0.0;
  for (auto _ : state) {
    Grid3 g(n, n, n, 1e-6);
    const DirichletBc bc = cage_bc(g, 3.3);
    SolverOptions opts;
    opts.cycle = CycleType::vcycle;
    SolveStats s = solve_laplace(g, bc, opts, &workspace);
    fe = s.fine_equiv_sweeps;
    benchmark::DoNotOptimize(s.sweeps);
  }
  state.counters["fe_sweeps"] = fe;
  // Accuracy column: the warm-workspace solve against a cold oracle solve of
  // the same problem (fresh hierarchy each time). The shared-workspace path
  // is bit-identical to the cold path, so this must read 0.
  Grid3 warm(n, n, n, 1e-6), cold(n, n, n, 1e-6);
  const DirichletBc bc = cage_bc(warm, 3.3);
  SolverOptions opts;
  opts.cycle = CycleType::vcycle;
  solve_laplace(warm, bc, opts, &workspace);
  solve_laplace(cold, bc, opts);
  double worst = 0.0;
  for (std::size_t m = 0; m < warm.size(); ++m)
    worst = std::max(worst, std::fabs(warm.data()[m] - cold.data()[m]));
  state.counters["oracle_max_err"] = worst;
}

// Incremental dirty-region repair vs full-solve-per-tick on a 65^3-scale
// tile: 16x16 electrodes at 4 nodes/pitch under a 16-pitch-tall chamber
// (65x65x65 nodes). Each benchmark iteration is one closed-loop tick — a
// trapped cage hops to a lateral neighbour, its electrode drive follows, and
// the tracked potential is repaired. range(0) is the re-anchor period:
//   1  = full solve every tick (the baseline the speedup is measured against)
//   16 = production cadence (windowed corrections, periodic full re-anchor)
//   0  = pure windowed corrections, never re-anchored
// Counters carry the accuracy column for run_benches.sh: max-|dphi| of the
// final tracked state against a freshly solved full-grid oracle, plus the
// mean window volume fraction (the per-tick work ratio).
void bm_incremental(benchmark::State& state) {
  const auto period = static_cast<std::size_t>(state.range(0));
  const double pitch = 20.0_um;
  const std::size_t cols = 16, rows = 16;
  ChamberDomain domain{cols * pitch, rows * pitch, 16 * pitch, pitch / 4.0};
  std::vector<Rect> footprints;
  footprints.reserve(cols * rows);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) {
      const double x0 = static_cast<double>(c) * pitch + 0.1 * pitch;
      const double y0 = static_cast<double>(r) * pitch + 0.1 * pitch;
      footprints.push_back({{x0, y0}, {x0 + 0.8 * pitch, y0 + 0.8 * pitch}});
    }
  SolverOptions opts;
  opts.incremental.reanchor_period = period;
  IncrementalPotential tracker(domain, footprints, /*lid_present=*/false, pitch,
                               opts);

  // Prime with one trapped cage at the tile centre, then walk it around a
  // closed 4-hop loop (E, N, W, S) so every tick changes two drives.
  std::vector<double> drive(cols * rows, 0.0);
  std::size_t cage = (rows / 2) * cols + cols / 2;
  drive[cage] = 1.0;
  tracker.update(drive);
  const std::ptrdiff_t hop[4] = {+1, static_cast<std::ptrdiff_t>(cols), -1,
                                 -static_cast<std::ptrdiff_t>(cols)};
  int dir = 0;
  double fraction = 0.0, ticks = 0.0;
  for (auto _ : state) {
    drive[cage] = 0.0;
    cage = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(cage) + hop[dir]);
    dir = (dir + 1) & 3;
    drive[cage] = 1.0;
    const IncrementalPotential::UpdateReport rep = tracker.update(drive);
    fraction += rep.window_fraction;
    ticks += 1.0;
    benchmark::DoNotOptimize(rep.stats.sweeps);
  }
  const Grid3 oracle = tracker.oracle();
  double worst = 0.0;
  for (std::size_t m = 0; m < oracle.size(); ++m)
    worst = std::max(worst, std::fabs(tracker.potential().data()[m] -
                                      oracle.data()[m]));
  state.counters["oracle_max_err"] = worst;
  state.counters["window_fraction"] = ticks > 0.0 ? fraction / ticks : 0.0;
}

// Full multigrid on the same workload: nested-iteration start + per-level
// V-cycles over the Galerkin hierarchy.
void bm_fmg(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  double fe = 0.0;
  for (auto _ : state) {
    Grid3 g(n, n, n, 1e-6);
    const DirichletBc bc = cage_bc(g, 3.3);
    SolverOptions opts;
    opts.cycle = CycleType::fmg;
    SolveStats s = solve_laplace(g, bc, opts);
    fe = s.fine_equiv_sweeps;
    benchmark::DoNotOptimize(s.sweeps);
  }
  state.counters["fe_sweeps"] = fe;
}

// Thin-gap (1-node) calibration-patch BC: the geometry whose coarse masks
// lose the gap under injection. range(1) selects the strategy (1 = vcycle,
// 2 = fmg) so the JSON carries the work trajectory on the RAP-critical case.
void bm_thin_gap(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto strategy = static_cast<int>(state.range(1));
  double fe = 0.0;
  for (auto _ : state) {
    Grid3 g(n, n, n, 1e-6);
    const DirichletBc bc = cage_thin_gap_bc(g, 3.3, 1);
    SolverOptions opts;
    opts.cycle = strategy == 1 ? CycleType::vcycle : CycleType::fmg;
    SolveStats s = solve_laplace(g, bc, opts);
    fe = s.fine_equiv_sweeps;
    benchmark::DoNotOptimize(s.sweeps);
  }
  state.counters["fe_sweeps"] = fe;
}

// Coarse-level variable-coefficient smoothing sweep: range(1) selects the
// kernel (0 = per-node smooth_plane_var, 1 = the broadcast fast path that
// reads uniform rows' 27 coefficients from one cache line instead of 27
// grid-sized streams). Both are bit-identical by construction, so the delta
// is pure coefficient traffic — the cost that makes a var sweep ~3× the
// 27/7 flop model in measured wall time (docs/perf.md).
void bm_var_smooth(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Grid3 g(n, n, n, 1e-6);
  const DirichletBc bc = cage_bc(g, 3.3);
  MultigridWorkspace ws;
  ws.prepare(g, bc);
  MultigridWorkspace::Level& lev = ws.levels().front();
  const stencil::Dims dims{lev.e.nx(), lev.e.ny(), lev.e.nz()};
  std::vector<double> rhs(lev.e.size());
  for (std::size_t m = 0; m < rhs.size(); ++m)
    rhs[m] = 1e-4 * static_cast<double>(m % 53);
  for (std::size_t m = 0; m < lev.e.size(); ++m)
    lev.e.data()[m] = lev.fixed[m] ? 0.0 : 1e-3 * static_cast<double>(m % 89);
  const bool bcast = state.range(1) == 1;
  double uniform_rows = 0.0;
  for (const std::uint8_t u : lev.row_uniform) uniform_rows += u;
  for (auto _ : state) {
    double u = 0.0;
    for (int color = 0; color < 2; ++color)
      for (std::size_t k = 0; k < dims.nz; ++k) {
        u = bcast ? stencil::smooth_plane_var_bcast(
                        lev.e.data().data(), lev.fixed.data(), lev.stencil.data(),
                        lev.row_uniform.data(), lev.uniform_stencil.data(),
                        lev.uniform_inv_diag, lev.inv_diag.data(), rhs.data(), dims,
                        1.15, color, k)
                  : stencil::smooth_plane_var(lev.e.data().data(), lev.fixed.data(),
                                              lev.stencil.data(), lev.inv_diag.data(),
                                              rhs.data(), dims, 1.15, color, k);
      }
    benchmark::DoNotOptimize(u);
  }
  state.counters["uniform_rows"] = uniform_rows;
  state.counters["rows"] = static_cast<double>(dims.ny * dims.nz);
}

// Plane-parallel checked-free sweep: range(0) = grid nodes per side,
// range(1) = pool lanes. On a single-core host lanes > 1 only measure pool
// overhead; on multi-core hosts the sweep scales with the lane count.
void bm_sor_threads(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    Grid3 g(n, n, n, 1e-6);
    const DirichletBc bc = plate_bc(g, 0.0, 3.3);
    SolverOptions opts;
    opts.cycle = CycleType::sor;
    opts.threads = threads;
    SolveStats s = solve_laplace(g, bc, opts);
    benchmark::DoNotOptimize(s.sweeps);
  }
}

BENCHMARK(bm_sor)->Arg(17)->Arg(33)->Arg(65)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_multilevel)->Arg(17)->Arg(33)->Arg(65)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_vcycle_warm)->Arg(33)->Arg(65)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_incremental)->Arg(1)->Arg(16)->Arg(0)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_fmg)->Arg(17)->Arg(33)->Arg(65)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_thin_gap)
    ->Args({33, 1})
    ->Args({33, 2})
    ->Args({65, 1})
    ->Args({65, 2})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_var_smooth)
    ->Args({65, 0})
    ->Args({65, 1})
    ->Args({129, 0})
    ->Args({129, 1})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_sor_threads)
    ->Args({65, 1})
    ->Args({65, 2})
    ->Args({65, 4})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_solver_scaling();
  print_superposition_ablation();
  print_cage_convergence();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
