#include "sensor/detect.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace biochip::sensor {

namespace {

// 8-connected flood fill collecting cluster pixels (values already flagged).
struct Cluster {
  double weight_sum = 0.0;
  Vec2 weighted_pos{};
  double peak = 0.0;
  int count = 0;
};

// Row-major indices n (= j·nx + i) of the pixels with sign·v <= -threshold.
// Almost every pixel fails the test, so this one tight pass replaces a
// per-pixel visit in the cluster loop.
std::vector<std::size_t> flagged_pixels(const std::vector<double>& values, double sign,
                                        double threshold) {
  std::vector<std::size_t> out;
  const double* v = values.data();
  const std::size_t size = values.size();
  const double limit = -threshold;
  for (std::size_t n = 0; n < size; ++n)
    if (sign * v[n] <= limit) out.push_back(n);
  return out;
}

std::vector<Detection> cluster_map(const Grid2& map, const chip::ElectrodeArray& array,
                                   double threshold, bool negative_signal) {
  const std::size_t nx = map.nx(), ny = map.ny();
  const double* values = map.data().data();
  // v >= threshold  <=>  -v <= -threshold (negation is exact), so one
  // compare serves both polarities.
  const double sign = negative_signal ? 1.0 : -1.0;
  auto flagged = [=](std::size_t n) { return sign * values[n] <= -threshold; };
  std::vector<std::uint8_t> visited(nx * ny, 0);
  std::vector<Detection> out;
  std::vector<std::pair<std::size_t, std::size_t>> stack;
  // Clusters grow from the flagged pixels in the order a row-major scan
  // meets them.
  for (const std::size_t n0 : flagged_pixels(map.data(), sign, threshold)) {
    if (visited[n0]) continue;
    Cluster cl;
    stack.clear();
    stack.emplace_back(n0 % nx, n0 / nx);
    visited[n0] = 1;
    while (!stack.empty()) {
      const auto [i, j] = stack.back();
      stack.pop_back();
      const double mag = std::fabs(values[j * nx + i]);
      const Vec2 ctr = array.center({static_cast<int>(i), static_cast<int>(j)});
      cl.weight_sum += mag;
      cl.weighted_pos += ctr * mag;
      cl.peak = std::max(cl.peak, mag);
      ++cl.count;
      for (int dj = -1; dj <= 1; ++dj)
        for (int di = -1; di <= 1; ++di) {
          if (di == 0 && dj == 0) continue;
          const std::ptrdiff_t ni = static_cast<std::ptrdiff_t>(i) + di;
          const std::ptrdiff_t nj = static_cast<std::ptrdiff_t>(j) + dj;
          if (ni < 0 || nj < 0 || ni >= static_cast<std::ptrdiff_t>(nx) ||
              nj >= static_cast<std::ptrdiff_t>(ny))
            continue;
          const std::size_t n = static_cast<std::size_t>(nj) * nx + static_cast<std::size_t>(ni);
          if (visited[n] || !flagged(n)) continue;
          visited[n] = 1;
          stack.emplace_back(static_cast<std::size_t>(ni), static_cast<std::size_t>(nj));
        }
    }
    Detection d;
    d.position = cl.weighted_pos / cl.weight_sum;
    d.score = cl.peak;
    d.pixel_count = cl.count;
    out.push_back(d);
  }
  return out;
}

// One pair of a greedy nearest-first matching.
struct GreedyPair {
  std::size_t point = 0;      // index into the reference points
  std::size_t detection = 0;  // index into the detections
  double distance = 0.0;      // |point - detection| [m]
};

// Greedy nearest-first matching of detections to reference points within
// `gate` (inclusive), shared by associate_detections and match_detections.
// Returns the taken pairs in the order taken (ascending distance).
std::vector<GreedyPair> greedy_nearest_pairs(const std::vector<Vec2>& points,
                                             const std::vector<Detection>& detections,
                                             double gate) {
  // Every gated pair once, sorted by (distance, point, detection). Walking
  // that order and taking each pair whose two ends are still free picks,
  // at every step, the nearest free pair with the lowest point and then
  // detection index at equal distance: the repeated full-scan greedy
  // choice, pair for pair and in the same order.
  std::vector<GreedyPair> candidates;
  for (std::size_t p = 0; p < points.size(); ++p)
    for (std::size_t d = 0; d < detections.size(); ++d) {
      const double dist = (points[p] - detections[d].position).norm();
      if (dist <= gate) candidates.push_back({p, d, dist});
    }
  std::sort(candidates.begin(), candidates.end(),
            [](const GreedyPair& a, const GreedyPair& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              if (a.point != b.point) return a.point < b.point;
              return a.detection < b.detection;
            });
  std::vector<std::uint8_t> point_used(points.size(), 0);
  std::vector<std::uint8_t> det_used(detections.size(), 0);
  std::vector<GreedyPair> taken;
  for (const GreedyPair& c : candidates) {
    if (point_used[c.point] || det_used[c.detection]) continue;
    point_used[c.point] = 1;
    det_used[c.detection] = 1;
    taken.push_back(c);
  }
  return taken;
}

}  // namespace

std::vector<Detection> detect_threshold(const Grid2& frame,
                                        const chip::ElectrodeArray& array,
                                        double threshold) {
  BIOCHIP_REQUIRE(threshold > 0.0, "threshold must be positive");
  return cluster_map(frame, array, threshold, /*negative_signal=*/true);
}

std::vector<double> matched_kernel(const CapacitivePixel& pixel,
                                   const chip::ElectrodeArray& array,
                                   double particle_radius, double z, int half_extent) {
  BIOCHIP_REQUIRE(half_extent >= 0, "half extent must be >= 0");
  const int n = 2 * half_extent + 1;
  std::vector<double> kernel(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  double energy = 0.0;
  for (int dj = -half_extent; dj <= half_extent; ++dj)
    for (int di = -half_extent; di <= half_extent; ++di) {
      const double lateral = std::hypot(static_cast<double>(di), static_cast<double>(dj)) *
                             array.pitch();
      const double v = pixel.delta_c(particle_radius, z, lateral);
      kernel[static_cast<std::size_t>((dj + half_extent) * n + (di + half_extent))] = v;
      energy += v * v;
    }
  BIOCHIP_REQUIRE(energy > 0.0, "kernel has no energy");
  const double inv = 1.0 / std::sqrt(energy);
  for (double& v : kernel) v *= inv;
  return kernel;
}

Grid2 correlate(const Grid2& frame, const std::vector<double>& kernel, int half_extent) {
  const int n = 2 * half_extent + 1;
  BIOCHIP_REQUIRE(kernel.size() == static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                  "kernel size does not match half extent");
  Grid2 out(frame.nx(), frame.ny(), frame.spacing());
  const std::ptrdiff_t nx = static_cast<std::ptrdiff_t>(frame.nx());
  const std::ptrdiff_t ny = static_cast<std::ptrdiff_t>(frame.ny());
  for (std::ptrdiff_t j = 0; j < ny; ++j)
    for (std::ptrdiff_t i = 0; i < nx; ++i) {
      double acc = 0.0;
      for (int dj = -half_extent; dj <= half_extent; ++dj)
        for (int di = -half_extent; di <= half_extent; ++di) {
          const std::ptrdiff_t si = i + di, sj = j + dj;
          if (si < 0 || sj < 0 || si >= nx || sj >= ny) continue;
          acc += frame.at(static_cast<std::size_t>(si), static_cast<std::size_t>(sj)) *
                 kernel[static_cast<std::size_t>((dj + half_extent) * n +
                                                 (di + half_extent))];
        }
      out.at(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) = acc;
    }
  return out;
}

std::vector<Detection> detect_matched(const Grid2& frame, const chip::ElectrodeArray& array,
                                      const CapacitivePixel& pixel, double particle_radius,
                                      double z, double threshold) {
  BIOCHIP_REQUIRE(threshold > 0.0, "threshold must be positive");
  constexpr int kHalf = 1;
  const std::vector<double> kernel = matched_kernel(pixel, array, particle_radius, z, kHalf);
  Grid2 corr = correlate(frame, kernel, kHalf);
  // Kernel entries are negative (ΔC), so particle sites correlate to
  // negative peaks; flip for positive-peak clustering.
  for (double& v : corr.data()) v = -v;
  return cluster_map(corr, array, threshold, /*negative_signal=*/false);
}

std::vector<int> associate_detections(const std::vector<Vec2>& expected,
                                      const std::vector<Detection>& detections,
                                      double gate) {
  BIOCHIP_REQUIRE(gate > 0.0, "association gate must be positive");
  std::vector<int> assignment(expected.size(), -1);
  for (const GreedyPair& p : greedy_nearest_pairs(expected, detections, gate))
    assignment[p.point] = static_cast<int>(p.detection);
  return assignment;
}

double MatchStats::recall() const {
  const int denom = true_positives + false_negatives;
  return denom > 0 ? static_cast<double>(true_positives) / denom : 0.0;
}

double MatchStats::precision() const {
  const int denom = true_positives + false_positives;
  return denom > 0 ? static_cast<double>(true_positives) / denom : 0.0;
}

MatchStats match_detections(const std::vector<Vec2>& truth,
                            const std::vector<Detection>& detections, double tolerance) {
  BIOCHIP_REQUIRE(tolerance > 0.0, "tolerance must be positive");
  MatchStats stats;
  // Pairs come nearest first, so the error sum keeps its ascending order.
  for (const GreedyPair& p : greedy_nearest_pairs(truth, detections, tolerance)) {
    ++stats.true_positives;
    stats.mean_localization_error += p.distance;
  }
  if (stats.true_positives > 0) stats.mean_localization_error /= stats.true_positives;
  stats.false_negatives = static_cast<int>(truth.size()) - stats.true_positives;
  stats.false_positives = static_cast<int>(detections.size()) - stats.true_positives;
  return stats;
}

}  // namespace biochip::sensor
