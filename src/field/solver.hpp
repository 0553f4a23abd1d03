#pragma once
/// \file solver.hpp
/// \brief Finite-difference Laplace/Poisson solver on a regular 3D grid.
///
/// Discretizes ∇²φ = f with a 7-point stencil. Boundary handling:
///  * nodes flagged in the Dirichlet mask hold their prescribed value
///    (electrode metal, lid plane);
///  * all other boundary faces are homogeneous Neumann (mirror symmetry),
///    which models the insulating chip passivation between electrodes and
///    the fluid-chamber side walls.
///
/// Three solution strategies are provided, selected by `CycleType`:
///  * red-black successive over-relaxation (CycleType::sor), the oracle the
///    cycles below are tested against;
///  * a true multigrid V-cycle (CycleType::vcycle, the production path):
///    pre-smoothing, residual restriction by full weighting, recursive
///    coarse-grid correction of the error equation ∇²e = r, trilinear
///    prolongation with correction and post-smoothing. Coarse-level
///    operators are Galerkin (RAP) products — 27-point variable-coefficient
///    stencils that keep sub-coarse-grid boundary features (1–2-node
///    electrode gaps) represented on every level, so the cycle contracts at
///    a grid-independent rate on every boundary geometry the chip model
///    produces. Solve cost is effectively linear in node count;
///  * full multigrid (CycleType::fmg): nested iteration through the same
///    Galerkin hierarchy — coarsest-level solve, prolongate, one or two
///    V-cycles per level — a cheap initial guess followed by the V-cycle's
///    O(N) error correction.
/// A grid with an even or shorter-than-5-node axis cannot be coarsened and
/// runs SOR whatever the strategy.
///
/// Every operator (smoothing, residual, restriction, prolongation) runs on
/// the shared plane-wise stencil kernel (`field/stencil_kernel.hpp`):
/// checked-free strided layout, AVX2-vectorized stride-1 row loops with a
/// bit-identical scalar fallback, and z-plane fan-out over the worker pool
/// that is bitwise-identical to serial execution for every thread count.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/grid.hpp"

namespace biochip::field {

/// Dirichlet boundary specification: `fixed[n] != 0` pins node n to `value[n]`.
struct DirichletBc {
  std::vector<std::uint8_t> fixed;  ///< one flag per grid node
  std::vector<double> value;        ///< prescribed potential per node [V]

  /// Construct an all-free BC sized for the given grid.
  static DirichletBc all_free(const Grid3& grid);
};

/// Solution strategy selector.
enum class CycleType {
  sor,     ///< plain red-black SOR on the fine grid (the oracle)
  vcycle,  ///< residual-restricting V-cycle (coarse-grid error correction)
  fmg,     ///< full multigrid: nested-iteration start + V-cycles per level
};

/// Axis-aligned, inclusive node-index box — the region of influence of a
/// localized boundary change, used by the dirty-region (windowed) solver
/// API. All helpers are value-returning and total: dilation saturates at the
/// lower grid corner, clamping never produces indices past the grid, and an
/// empty box (any hi < lo) stays empty through every operation.
struct GridBox {
  std::size_t i0 = 1, j0 = 1, k0 = 1;  ///< inclusive low corner
  std::size_t i1 = 0, j1 = 0, k1 = 0;  ///< inclusive high corner

  /// Canonical empty box (default-constructed state).
  static GridBox none() { return {}; }
  /// The whole grid as one box.
  static GridBox all(const Grid3& g) {
    return {0, 0, 0, g.nx() - 1, g.ny() - 1, g.nz() - 1};
  }

  bool empty() const { return i1 < i0 || j1 < j0 || k1 < k0; }
  std::size_t volume() const {
    return empty() ? 0 : (i1 - i0 + 1) * (j1 - j0 + 1) * (k1 - k0 + 1);
  }
  bool contains(std::size_t i, std::size_t j, std::size_t k) const {
    return !empty() && i0 <= i && i <= i1 && j0 <= j && j <= j1 && k0 <= k && k <= k1;
  }
  /// True when the boxes share at least one node.
  bool intersects(const GridBox& o) const {
    return !empty() && !o.empty() && i0 <= o.i1 && o.i0 <= i1 && j0 <= o.j1 &&
           o.j0 <= j1 && k0 <= o.k1 && o.k0 <= k1;
  }
  /// True when the boxes overlap or are stencil-coupled (within one node of
  /// each other on every axis) — the merge criterion for window clustering:
  /// adjacent windows exchange information through shared 7-point neighbors,
  /// so they must relax as one box.
  bool touches(const GridBox& o) const { return dilated(1).intersects(o); }
  /// Bounding-box union; merging with an empty box returns the other box.
  GridBox merged(const GridBox& o) const {
    if (empty()) return o;
    if (o.empty()) return *this;
    return {std::min(i0, o.i0), std::min(j0, o.j0), std::min(k0, o.k0),
            std::max(i1, o.i1), std::max(j1, o.j1), std::max(k1, o.k1)};
  }
  /// Grow by r nodes on every side (saturating at index 0; the caller clamps
  /// the high side against the grid).
  GridBox dilated(std::size_t r) const {
    if (empty()) return *this;
    return {i0 > r ? i0 - r : 0, j0 > r ? j0 - r : 0, k0 > r ? k0 - r : 0,
            i1 + r, j1 + r, k1 + r};
  }
  /// Intersect with the grid's index range [0, n-1] per axis; a box entirely
  /// outside the grid becomes empty.
  GridBox clamped(std::size_t nx, std::size_t ny, std::size_t nz) const {
    if (empty()) return none();
    GridBox b = *this;
    b.i1 = std::min(b.i1, nx - 1);
    b.j1 = std::min(b.j1, ny - 1);
    b.k1 = std::min(b.k1, nz - 1);
    return b.empty() ? none() : b;
  }
  bool operator==(const GridBox& o) const = default;
};

/// Policy block for incremental local field updates (the dirty-region path:
/// windowed corrections stitched into a cached global solution, re-anchored
/// by a periodic full solve — see `field/incremental.hpp` and docs/perf.md,
/// "Incremental field updates").
struct IncrementalOptions {
  /// Region-of-influence radius around a changed electrode, in electrode
  /// pitch lengths. The induced potential change decays like a dipole field
  /// past the electrode edge, so ~1.5 pitches bounds the neglected exterior
  /// correction at roughly the solver tolerance for chamber-scale drives.
  double window_radius_pitches = 1.5;
  /// Windowed-correction convergence target on the max node update [V].
  double tolerance = 1e-6;
  /// Hard sweep cap per windowed correction (windows are tiny, so this is a
  /// runaway guard, not a tuning knob).
  std::size_t max_sweeps = 512;
  /// Full-solve re-anchor cadence: every N-th update runs the complete FMG
  /// oracle instead of a windowed correction, discarding any accumulated
  /// exterior drift. 0 = never re-anchor.
  std::size_t reanchor_period = 64;
};

/// Solver configuration.
struct SolverOptions {
  double tolerance = 1e-6;       ///< max node update [V] at which to stop
  std::size_t max_sweeps = 20000;  ///< hard iteration cap per level
  double omega = 0.0;            ///< SOR factor; 0 = auto (optimal for plain SOR,
                                 ///< 1.15 for V-cycle smoothing sweeps)
  CycleType cycle = CycleType::vcycle;  ///< solution strategy
  std::size_t pre_smooth = 2;    ///< V-cycle smoothing sweeps before restriction
  std::size_t post_smooth = 2;   ///< V-cycle smoothing sweeps after correction
  std::size_t max_cycles = 60;   ///< V-cycle cap; past it the solve finishes on SOR
  std::size_t fmg_level_cycles = 1;  ///< FMG: V-cycles per level on the way up
  /// V-cycle convergence target on the residual norm max|Σnb/6 − φ −
  /// h²f/6| (the `laplacian_residual` units); 0 = use `tolerance`.
  double cycle_tolerance = 0.0;
  /// Sweep parallelism: 1 = serial (default), N > 1 = fan z-planes over N
  /// pool lanes, 0 = one lane per hardware thread. Every operator is
  /// plane-decomposed so the result is bitwise identical to the serial
  /// solve for every thread count.
  std::size_t threads = 1;
  /// Dirty-region policy consumed by `MultigridWorkspace::solve_window` and
  /// the incremental trackers built on it.
  IncrementalOptions incremental;
};

/// Convergence report.
struct SolveStats {
  std::size_t sweeps = 0;        ///< fine-grid smoothing sweeps executed
  std::size_t total_sweeps = 0;  ///< smoothing sweeps across all levels
  /// Work in fine-grid-sweep equivalents: every smoothing sweep, residual,
  /// restriction, prolongation and norm pass weighted by its level's node
  /// count relative to the finest grid. The honest cross-strategy cost
  /// metric (see docs/perf.md).
  double fine_equiv_sweeps = 0.0;
  std::size_t cycles = 0;        ///< V-cycles executed (0 for SOR)
  double final_update = 0.0;     ///< last max-update norm [V]
  double final_residual = 0.0;   ///< last residual norm [V] (V-cycle path)
  bool converged = false;
};

/// Cumulative solver work across every `solve_laplace` / `solve_poisson`
/// call that used one `MultigridWorkspace`. Sums of the per-call
/// `SolveStats` by construction, so they reconcile exactly with the
/// counters the benches accumulate themselves (tests/test_obs.cpp pins
/// this).
struct SolveAccounting {
  std::uint64_t solves = 0;  ///< full-grid solves (the oracle / re-anchor path)
  std::uint64_t cycles = 0;
  std::uint64_t total_sweeps = 0;
  double fine_equiv_sweeps = 0.0;
  double last_residual = 0.0;  ///< final_residual of the most recent solve
  /// Incremental (dirty-region) corrections routed through `solve_window`.
  std::uint64_t window_solves = 0;
  /// Summed window volume over fine-grid volume across window solves; the
  /// mean window fraction is `window_fraction_sum / window_solves`.
  double window_fraction_sum = 0.0;

  void account(const SolveStats& stats) {
    ++solves;
    cycles += stats.cycles;
    total_sweeps += stats.total_sweeps;
    fine_equiv_sweeps += stats.fine_equiv_sweeps;
    last_residual = stats.final_residual;
  }

  /// Windowed corrections do not count as full solves: they contribute their
  /// (box-weighted) sweep work plus the window-volume trajectory.
  void account_window(const SolveStats& stats, double volume_fraction) {
    ++window_solves;
    window_fraction_sum += volume_fraction;
    total_sweeps += stats.total_sweeps;
    fine_equiv_sweeps += stats.fine_equiv_sweeps;
    last_residual = stats.final_residual;
  }
};

/// Reusable multigrid hierarchy: coarse-level error grids, restricted
/// Dirichlet masks, Galerkin (RAP) coarse-operator stencils and residual
/// scratch, allocated once and shared across solves on the same grid shape
/// (e.g. the per-electrode basis solves of a BasisCache). `prepare` is cheap
/// when shape and mask are unchanged.
class MultigridWorkspace {
 public:
  struct Level {
    Grid3 e;                          ///< error grid (zeroed per cycle)
    std::vector<double> rhs;          ///< restricted residual (physical units)
    std::vector<double> res;          ///< this level's own residual scratch
    std::vector<std::uint8_t> fixed;  ///< restricted Dirichlet mask (e = 0 there)
    std::vector<std::uint8_t> plane_fixed;  ///< per-plane any-Dirichlet flags
    /// Galerkin coarse operator A_l = R·A_{l-1}·P as a 27-point stencil with
    /// per-node coefficients, structure-of-arrays: coefficient of offset m
    /// for node n at stencil[m * e.size() + n] (see stencil_kernel.hpp).
    std::vector<double> stencil;
    std::vector<double> inv_diag;  ///< 1/diagonal per node; 0 at fixed nodes
    /// Per-row ((k·ny + j)) flag: every interior node of the row holds the
    /// level's translation-invariant interior stencil (build_rap's per-node
    /// uniformity, chained level to level), so the smoother may broadcast
    /// `uniform_stencil` instead of streaming 27 coefficient planes.
    std::vector<std::uint8_t> row_uniform;
    std::array<double, 27> uniform_stencil{};  ///< interior constant (uniform_rap)
    double uniform_inv_diag = 0.0;  ///< 1/uniform_stencil[13]; 0 when degenerate
  };

  /// (Re)derive the hierarchy for `fine` + `bc`: reuses every allocation
  /// when the shape matches the previous call and skips mask restriction
  /// and the RAP rebuild when the fixed mask is byte-identical.
  void prepare(const Grid3& fine, const DirichletBc& bc);

  std::vector<Level>& levels() { return levels_; }
  std::vector<double>& fine_residual() { return fine_residual_; }
  std::vector<std::uint8_t>& fine_plane_fixed() { return fine_plane_fixed_; }
  std::vector<double>& plane_scratch() { return plane_scratch_; }

  /// Cumulative work of every solve routed through this workspace
  /// (solve_laplace / solve_poisson accumulate it on return).
  const SolveAccounting& accounting() const { return accounting_; }
  SolveAccounting& accounting() { return accounting_; }

  // ---- dirty-region API -------------------------------------------------
  // Windowed correction passes for incremental local field updates: when an
  // actuation change perturbs a few electrodes, the caller updates the
  // Dirichlet values, seeds `phi` with the cached global solution, and
  // relaxes only a region-of-influence box. Nodes outside the box are read
  // but never written (the box boundary freezes at the cached solution), so
  // the correction is exact inside the box up to the frozen-boundary error —
  // which the periodic full-solve re-anchor discards. Pure fine-grid
  // red-black SOR through the box-clamped scalar kernels of
  // `field/stencil_kernel.hpp`; no hierarchy required, so `prepare` need not
  // have run. Deterministic and bitwise-identical serial vs pooled for every
  // `opts.threads` (per-color plane fan-out of an odd/even-independent
  // stencil, plane-ordered max reduction).

  /// Relax the free nodes of `box` (clamped against the grid) toward the
  /// Laplace solution, keeping everything outside the box frozen. Dirichlet
  /// values inside the box are applied first. Converges on
  /// `opts.incremental.tolerance` (max node update) with the sweep cap
  /// `opts.incremental.max_sweeps`; `opts.omega` 0 selects the box-sized
  /// optimal SOR factor. An empty or fully-fixed box is a bitwise no-op that
  /// reports zero work. Accounts into `accounting()` as a window solve.
  SolveStats solve_window(Grid3& phi, const DirichletBc& bc, const GridBox& box,
                          const SolverOptions& opts = {});

  /// Max |(Σnb − h²·rhs)/6 − φ| over the free nodes of `box` (clamped) — the
  /// same update-units diagnostic norm as `laplacian_residual`, restricted
  /// to the window. Read-only; 0 for an empty or fully-fixed box.
  double window_residual(const Grid3& phi, const DirichletBc& bc,
                         const GridBox& box) const;

 private:
  std::vector<Level> levels_;
  std::vector<double> fine_residual_;
  std::vector<std::uint8_t> fine_plane_fixed_;
  std::vector<double> plane_scratch_;  ///< per-plane reduction slots (max nz)
  std::size_t fnx_ = 0, fny_ = 0, fnz_ = 0;
  double fspacing_ = 0.0;
  std::vector<std::uint8_t> mask_copy_;  ///< fingerprint of the last fine mask
  SolveAccounting accounting_;
};

/// Solve Laplace's equation in-place on `phi` subject to `bc`.
/// `phi` provides the initial guess for free nodes; Dirichlet nodes are
/// overwritten with their prescribed values before iterating.
/// `workspace` (optional) caches the multigrid hierarchy across solves on
/// the same grid shape.
/// Throws PreconditionError if `bc` sizes don't match the grid.
SolveStats solve_laplace(Grid3& phi, const DirichletBc& bc, const SolverOptions& opts = {},
                         MultigridWorkspace* workspace = nullptr);

/// Solve the Poisson problem ∇²φ = f (f per node, physical units 1/m² × V).
/// Same boundary handling and options as solve_laplace.
SolveStats solve_poisson(Grid3& phi, const Grid3& f, const DirichletBc& bc,
                         const SolverOptions& opts = {},
                         MultigridWorkspace* workspace = nullptr);

/// Compute the residual ‖∇²φ‖_inf over free nodes (diagnostic; h²-scaled).
/// Routed through the same stencil kernel as the smoother, so the
/// diagnostic and the solver agree on boundary handling by construction.
double laplacian_residual(const Grid3& phi, const DirichletBc& bc);

/// The SOR factor that is optimal for the model Poisson problem on an
/// n-node-per-side grid: ω* = 2 / (1 + sin(π/n)).
double optimal_omega(std::size_t n);

/// Anisotropic-grid generalization: the model-problem Jacobi spectral radius
/// is the per-axis mean ρ = (cos(π/nx) + cos(π/ny) + cos(π/nz))/3 and
/// ω* = 2 / (1 + sqrt(1 − ρ²)). Equal to optimal_omega(n) when nx=ny=nz=n;
/// strictly smaller on elongated grids (e.g. 129×129×9), where the
/// longest-side formula over-relaxes the short axis.
double optimal_omega(std::size_t nx, std::size_t ny, std::size_t nz);

}  // namespace biochip::field
