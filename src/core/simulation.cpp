#include "core/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace biochip::core {

CageFieldModel::CageFieldModel(const field::HarmonicCage& unit, double pitch,
                               double capture_radius)
    : unit_(unit), pitch_(pitch), capture_radius_(capture_radius) {
  BIOCHIP_REQUIRE(pitch > 0.0, "pitch must be positive");
  BIOCHIP_REQUIRE(capture_radius > 0.0, "capture radius must be positive");
  rebuild_index();
}

Vec3 CageFieldModel::trap_center(GridCoord site) const {
  // The calibrated unit cage sits over the center electrode of its patch;
  // translate its z (and intra-pitch xy offset) onto the requested site.
  const double cx = (static_cast<double>(site.col) + 0.5) * pitch_;
  const double cy = (static_cast<double>(site.row) + 0.5) * pitch_;
  return {cx, cy, unit_.center.z};
}

namespace {

inline std::uint64_t pack_site(GridCoord site) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(site.col)) << 32) |
         static_cast<std::uint32_t>(site.row);
}

// splitmix64 finalizer: spreads the packed (col,row) key over the table.
inline std::uint64_t hash_site(std::uint64_t key) {
  key ^= key >> 30;
  key *= 0xBF58476D1CE4E5B9ull;
  key ^= key >> 27;
  key *= 0x94D049BB133111EBull;
  return key ^ (key >> 31);
}

// Shared nearest-trap ordering for the hashed box scan and the linear-scan
// oracle: nearer wins, and an EXACT distance tie goes to the smaller
// (row, col). The two paths visit candidates in different orders (row-major
// box vs insertion order), so without an explicit tie rule a body exactly
// equidistant between two trap centers — the midpoint of every tow hop —
// could receive different drives on the two paths.
inline bool closer_site(double d2, GridCoord site, double best_d2, GridCoord best) {
  if (d2 != best_d2) return d2 < best_d2;
  if (site.row != best.row) return site.row < best.row;
  return site.col < best.col;
}

}  // namespace

void CageFieldModel::set_sites(std::vector<GridCoord> sites) {
  // Same-length positional diff: tow and parallel transport move one cage
  // per hop and keep everyone else parked, so the new vector matches the
  // old one except in a handful of slots. Applying erase+insert for just
  // those entries keeps the per-hop cost O(changed) instead of O(live
  // cages). The table never needs to grow here — same length means the same
  // multiset size, and capacity was sized for it at the last rebuild.
  if (!slot_key_.empty() && !sites.empty() && sites.size() == sites_.size()) {
    const std::size_t limit = std::max<std::size_t>(4, sites.size() / 8);
    std::size_t changed = 0;
    for (std::size_t n = 0; n < sites.size() && changed <= limit; ++n)
      changed += sites[n] == sites_[n] ? 0u : 1u;
    if (changed <= limit) {
      for (std::size_t n = 0; n < sites.size(); ++n) {
        if (sites[n] == sites_[n]) continue;
        erase_key(pack_site(sites_[n]));
        insert_key(pack_site(sites[n]));
      }
      sites_ = std::move(sites);
      return;
    }
  }
  sites_ = std::move(sites);
  rebuild_index();
}

void CageFieldModel::rebuild_index() {
  std::size_t capacity = 16;
  while (capacity < 2 * sites_.size()) capacity *= 2;
  slot_key_.assign(capacity, 0);
  slot_count_.assign(capacity, 0);
  slot_used_.assign(capacity, 0);
  slot_mask_ = capacity - 1;
  for (const GridCoord site : sites_) insert_key(pack_site(site));
}

void CageFieldModel::insert_key(std::uint64_t key) {
  std::size_t slot = hash_site(key) & slot_mask_;
  while (slot_used_[slot]) {
    if (slot_key_[slot] == key) {
      ++slot_count_[slot];  // duplicate site
      return;
    }
    slot = (slot + 1) & slot_mask_;
  }
  slot_used_[slot] = 1;
  slot_key_[slot] = key;
  slot_count_[slot] = 1;
}

void CageFieldModel::erase_key(std::uint64_t key) {
  std::size_t slot = hash_site(key) & slot_mask_;
  while (slot_used_[slot]) {
    if (slot_key_[slot] != key) {
      slot = (slot + 1) & slot_mask_;
      continue;
    }
    if (--slot_count_[slot] > 0) return;
    // Backward-shift deletion: walk the probe chain after the hole and move
    // back every entry whose home slot lies at or before the hole, so
    // lookups never need tombstones.
    std::size_t hole = slot;
    std::size_t next = (hole + 1) & slot_mask_;
    while (slot_used_[next]) {
      const std::size_t home = hash_site(slot_key_[next]) & slot_mask_;
      if (((next - home) & slot_mask_) >= ((next - hole) & slot_mask_)) {
        slot_key_[hole] = slot_key_[next];
        slot_count_[hole] = slot_count_[next];
        hole = next;
      }
      next = (next + 1) & slot_mask_;
    }
    slot_used_[hole] = 0;
    slot_count_[hole] = 0;
    return;
  }
  // The positional diff only erases keys it previously inserted, so a miss
  // here would be a bookkeeping bug; tolerate it silently in release.
}

bool CageFieldModel::site_active(GridCoord site) const {
  const std::uint64_t key = pack_site(site);
  std::size_t slot = hash_site(key) & slot_mask_;
  while (slot_used_[slot]) {
    if (slot_key_[slot] == key) return true;
    slot = (slot + 1) & slot_mask_;
  }
  return false;
}

Vec3 CageFieldModel::drive_from(Vec3 center, Vec3 p) const {
  return unit_.moved_to(center).grad_erms2(p);
}

template <typename Visit>
void CageFieldModel::for_each_site_near(Vec3 p, double reach, Visit&& visit) const {
  if (sites_.empty()) return;
  const auto visit_all = [&] {
    for (const GridCoord site : sites_) visit(site, trap_center(site));
  };
  // Candidate sites: those whose center (site + 0.5)·pitch lies within
  // `reach` of p on each axis — a constant-size box independent of the
  // active cage count.
  const double lo_c = (p.x - reach) / pitch_ - 0.5;
  const double hi_c = (p.x + reach) / pitch_ - 0.5;
  const double lo_r = (p.y - reach) / pitch_ - 0.5;
  const double hi_r = (p.y + reach) / pitch_ - 0.5;
  // Queries so far out (or reaches so large) that site indices leave the int
  // range cannot use the rounding trick; the scan handles them correctly.
  const double coord_limit = 2147483000.0;
  if (!(std::fabs(lo_c) < coord_limit && std::fabs(hi_c) < coord_limit &&
        std::fabs(lo_r) < coord_limit && std::fabs(hi_r) < coord_limit))
    return visit_all();
  const auto cmin = static_cast<std::int64_t>(std::ceil(lo_c));
  const auto cmax = static_cast<std::int64_t>(std::floor(hi_c));
  const auto rmin = static_cast<std::int64_t>(std::ceil(lo_r));
  const auto rmax = static_cast<std::int64_t>(std::floor(hi_r));
  if (cmax < cmin || rmax < rmin) return;

  // Degenerate configuration (reach spanning more candidate sites than there
  // are live cages): the scan is the cheaper probe.
  const std::uint64_t box_cells = static_cast<std::uint64_t>(cmax - cmin + 1) *
                                  static_cast<std::uint64_t>(rmax - rmin + 1);
  if (box_cells > sites_.size()) return visit_all();

  for (std::int64_t r = rmin; r <= rmax; ++r)
    for (std::int64_t c = cmin; c <= cmax; ++c) {
      const GridCoord site{static_cast<int>(c), static_cast<int>(r)};
      if (site_active(site)) visit(site, trap_center(site));
    }
}

CageFieldModel::Basin CageFieldModel::nearest(Vec3 p) const {
  // Nearest active trap wins; beyond the capture radius the background field
  // is laterally uniform and exerts no DEP drive.
  Basin b;
  const double cap2 = capture_radius_ * capture_radius_;
  const double dz = p.z - unit_.center.z;  // all traps share the cage height
  if (dz * dz > cap2) return b;
  double best_d2 = cap2;
  for_each_site_near(p, capture_radius_, [&](GridCoord site, Vec3 center) {
    const double d2 = (p - center).norm2();
    if (d2 > best_d2) return;
    if (b.found && !closer_site(d2, site, best_d2, b.site)) return;
    best_d2 = d2;
    b.site = site;
    b.center = center;
    b.found = true;
  });
  return b;
}

CageFieldModel::Basin CageFieldModel::basin(Vec3 p, double margin) const {
  Basin b = nearest(p);
  if (!b.found) return b;

  // Bisector gaps. For another trap j at lateral separation s from the
  // pick, p's distance to their bisector is (|p−c_j|² − |p−c_i|²) / (2s)
  // >= (|p−c_j| − |p−c_i|) / 2, so only traps with |p−c_j| < |p−c_i| +
  // 2·margin can bring the wall within `margin` of p; the same traps bound
  // the trap center's gap s/2 below margin.
  b.wall_gap = std::numeric_limits<double>::infinity();
  const double di = std::hypot(p.x - b.center.x, p.y - b.center.y);
  const double reach = di + 2.0 * margin;
  for_each_site_near(p, reach, [&](GridCoord site, Vec3 center) {
    if (site == b.site) return;
    const double dj2 = (p.x - center.x) * (p.x - center.x) +
                       (p.y - center.y) * (p.y - center.y);
    if (dj2 >= reach * reach) return;
    const double sep = std::hypot(center.x - b.center.x, center.y - b.center.y);
    const double gap = (dj2 - di * di) / (2.0 * sep);
    b.wall_gap = std::min({b.wall_gap, gap, 0.5 * sep});
  });
  return b;
}

double CageFieldModel::ball_clearance(Vec3 p) const {
  // Sites outside the scanned box lie farther than `reach` from p.
  const double reach = capture_radius_ + pitch_;
  double nearest = reach;
  for_each_site_near(p, reach, [&](GridCoord, Vec3 center) {
    nearest = std::min(nearest, (p - center).norm());
  });
  return nearest - capture_radius_;
}

Vec3 CageFieldModel::grad_erms2(Vec3 p) const { return drive(nearest(p), p); }

Vec3 CageFieldModel::grad_erms2_linear(Vec3 p) const {
  double best_d2 = capture_radius_ * capture_radius_;
  bool found = false;
  GridCoord best_site;
  Vec3 best_center;
  for (const GridCoord site : sites_) {
    const Vec3 center = trap_center(site);
    const double d2 = (p - center).norm2();
    if (d2 > best_d2) continue;
    if (found && !closer_site(d2, site, best_d2, best_site)) continue;
    best_d2 = d2;
    best_site = site;
    best_center = center;
    found = true;
  }
  return found ? drive_from(best_center, p) : Vec3{};
}

ManipulationEngine::ManipulationEngine(const chip::BiochipDevice& device,
                                       const physics::Medium& medium,
                                       const field::HarmonicCage& unit_cage,
                                       double capture_radius)
    : field_(unit_cage, device.array().pitch(), capture_radius),
      integrator_(medium,
                  physics::DynamicsOptions{
                      .dt = 1e-3,
                      .brownian = true,
                      .gravity = true,
                      .wall_correction = true,
                      .bounds = device.chamber_bounds(),
                  }) {}

TowReport ManipulationEngine::tow(physics::ParticleBody& particle,
                                  const std::vector<GridCoord>& path, double site_period,
                                  Rng& rng) {
  BIOCHIP_REQUIRE(!path.empty(), "tow path must be non-empty");
  BIOCHIP_REQUIRE(site_period > 0.0, "site period must be positive");
  for (std::size_t i = 1; i < path.size(); ++i)
    BIOCHIP_REQUIRE(manhattan(path[i], path[i - 1]) <= 1,
                    "tow path must step between adjacent sites");

  TowReport report;
  const double dt = integrator_.options().dt;
  const auto substeps =
      static_cast<std::size_t>(std::max(1.0, std::round(site_period / dt)));

  // The towed cage is prepended to the active set and updated per hop.
  std::vector<GridCoord> sites = field_.sites();
  sites.insert(sites.begin(), path.front());

  for (std::size_t hop = 0; hop < path.size(); ++hop) {
    sites.front() = path[hop];
    field_.set_sites(sites);
    const Vec3 trap = field_.trap_center(path[hop]);
    for (std::size_t s = 0; s < substeps; ++s) {
      integrator_.step(particle, [this](Vec3 p) { return field_.grad_erms2(p); }, rng);
      const double lag = (particle.position - trap).norm();
      report.max_lag = std::max(report.max_lag, lag);
    }
    report.elapsed += site_period;
    ++report.steps;
    if ((particle.position - trap).norm() > field_.capture_radius()) {
      report.retained = false;
      break;
    }
  }
  // Restore the caller's static cage set.
  sites.erase(sites.begin());
  field_.set_sites(sites);
  report.final_position = particle.position;
  return report;
}

void ManipulationEngine::settle(physics::ParticleBody& particle, double duration, Rng& rng) {
  BIOCHIP_REQUIRE(duration >= 0.0, "duration must be non-negative");
  const double dt = integrator_.options().dt;
  const auto steps = static_cast<std::size_t>(std::round(duration / dt));
  for (std::size_t s = 0; s < steps; ++s)
    integrator_.step(particle, [this](Vec3 p) { return field_.grad_erms2(p); }, rng);
}

RelaxWork ManipulationEngine::relax(physics::ParticleBody& body, std::size_t substeps,
                                   Rng& rng) const {
  RelaxWork work;
  const physics::OverdampedIntegrator::StepConstants k = integrator_.step_constants(body);
  // OU parameters in the unit cage; only the lateral equilibrium moves with
  // the trap (every trap shares the unit cage's height).
  const physics::OverdampedIntegrator::CageRelaxation unit =
      integrator_.relaxation(body, field_.unit());
  const double margin = kExactMarginSpreads * unit.spread;
  const double dt = integrator_.options().dt;
  // Outside every capture ball the drive is zero, and it stays zero while
  // the body has moved less than its clearance to the nearest ball: free
  // bodies skip the trap query until they have used the clearance up.
  double clearance = 0.0;
  for (std::size_t s = 0; s < substeps; ++s) {
    Vec3 drive;
    if (clearance <= 0.0) {
      const CageFieldModel::Basin basin = field_.basin(body.position, margin);
      if (exact_basin(body, basin, unit, margin)) {
        physics::OverdampedIntegrator::CageRelaxation cage = unit;
        cage.equilibrium.x = basin.center.x;
        cage.equilibrium.y = basin.center.y;
        integrator_.exact_step(body, cage, dt * static_cast<double>(substeps - s), rng);
        ++work.exact_steps;
        return work;
      }
      // The basin query made the grad_erms2 pick at this very position.
      drive = field_.drive(basin, body.position);
      if (!basin.found) clearance = field_.ball_clearance(body.position);
    }
    const Vec3 before = body.position;
    integrator_.step(body, k, [drive](Vec3) { return drive; }, rng);
    ++work.em_substeps;
    // A picometre of slack absorbs rounding in the distance bookkeeping.
    if (clearance > 0.0) clearance -= (body.position - before).norm() + 1e-12;
  }
  return work;
}

bool ManipulationEngine::exact_basin(
    const physics::ParticleBody& body, const CageFieldModel::Basin& basin,
    const physics::OverdampedIntegrator::CageRelaxation& unit, double margin) const {
  if (!unit.holds() || !basin.found || basin.wall_gap < margin) return false;
  // Capture ball: the lateral offset only shrinks along the mean path and
  // the vertical one moves monotonically from the start to the sag, so the
  // farthest point of the path is bounded by (start lateral, worse of the
  // two vertical offsets).
  const double room = field_.capture_radius() - margin;
  if (room <= 0.0) return false;
  const Vec3 d = body.position - basin.center;
  const double dz_eq = unit.equilibrium.z - basin.center.z;
  if (d.x * d.x + d.y * d.y + std::max(d.z * d.z, dz_eq * dz_eq) > room * room)
    return false;
  // Chamber bounds shrunk by radius + margin hold both endpoints.
  const Aabb& box = integrator_.options().bounds;
  const double inset = body.radius + margin;
  const auto inside = [&](Vec3 q) {
    return q.x >= box.min.x + inset && q.x <= box.max.x - inset &&
           q.y >= box.min.y + inset && q.y <= box.max.y - inset &&
           q.z >= box.min.z + inset && q.z <= box.max.z - inset;
  };
  return inside(body.position) &&
         inside({basin.center.x, basin.center.y, unit.equilibrium.z});
}

}  // namespace biochip::core
