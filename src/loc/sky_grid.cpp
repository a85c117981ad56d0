#include "loc/sky_grid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/contract.hpp"
#include "core/telemetry.hpp"
#include "core/units.hpp"

namespace adapt::loc {

using core::Vec3;

SkyGrid::SkyGrid(double resolution_deg, double max_polar_deg)
    : resolution_deg_(resolution_deg), max_polar_deg_(max_polar_deg) {
  ADAPT_REQUIRE(resolution_deg > 0.0, "resolution must be positive");
  ADAPT_REQUIRE(max_polar_deg > 0.0 && max_polar_deg <= 180.0,
                "max polar out of range");
  n_polar_ = std::max(
      1, static_cast<int>(std::ceil(max_polar_deg / resolution_deg)));

  // Equal-angle rows; azimuth bins per row scale with sin(polar) so
  // pixels keep roughly equal solid angle (a poor man's equal-area
  // map — adequate for credible-region integrals at 1-degree scale).
  az_bins_.resize(static_cast<std::size_t>(n_polar_));
  row_offset_.resize(static_cast<std::size_t>(n_polar_));
  row_sa_deg2_.resize(static_cast<std::size_t>(n_polar_));
  row_cos_.resize(static_cast<std::size_t>(n_polar_));
  row_sin_.resize(static_cast<std::size_t>(n_polar_));
  constexpr double deg2_per_sr = 180.0 / core::kPi * 180.0 / core::kPi;
  total_ = 0;
  for (int row = 0; row < n_polar_; ++row) {
    const double polar_mid = core::deg_to_rad((row + 0.5) * resolution_deg);
    const int bins = std::max(
        1, static_cast<int>(std::ceil(360.0 / resolution_deg *
                                      std::sin(polar_mid))));
    const auto r = static_cast<std::size_t>(row);
    az_bins_[r] = bins;
    row_offset_[r] = total_;
    total_ += static_cast<std::size_t>(bins);
    const double t0 = core::deg_to_rad(static_cast<double>(row) *
                                       resolution_deg);
    const double t1 = core::deg_to_rad((static_cast<double>(row) + 1.0) *
                                       resolution_deg);
    const double band_sr = core::kTwoPi * (std::cos(t0) - std::cos(t1));
    row_sa_deg2_[r] = band_sr / static_cast<double>(bins) * deg2_per_sr;
    row_cos_[r] = std::cos(polar_mid);
    row_sin_[r] = std::sin(polar_mid);
  }
}

std::size_t SkyGrid::row_of(std::size_t index) const {
  const auto row_it =
      std::upper_bound(row_offset_.begin(), row_offset_.end(), index);
  return static_cast<std::size_t>(
             std::distance(row_offset_.begin(), row_it)) - 1;
}

double SkyGrid::row_polar_rad(std::size_t row) const {
  return core::deg_to_rad((static_cast<double>(row) + 0.5) * resolution_deg_);
}

Vec3 SkyGrid::pixel_center(std::size_t index) const {
  const std::size_t row = row_of(index);
  return pixel_center(row, index - row_offset_[row]);
}

Vec3 SkyGrid::pixel_center(std::size_t row, std::size_t az) const {
  const double polar = row_polar_rad(row);
  const double azimuth = core::kTwoPi * (static_cast<double>(az) + 0.5) /
                         static_cast<double>(az_bins_[row]);
  return core::from_spherical(polar, azimuth);
}

std::optional<std::size_t> SkyGrid::pixel_of(const Vec3& direction) const {
  const double polar_deg = core::rad_to_deg(core::polar_of(direction));
  // Negated comparison so a NaN polar angle (non-finite direction)
  // falls through to nullopt; the edge itself is *inside* the map.
  if (!(polar_deg <= max_polar_deg_ + kFovEdgeTolDeg)) return std::nullopt;
  const auto row = std::min(
      static_cast<std::size_t>(polar_deg / resolution_deg_),
      static_cast<std::size_t>(n_polar_ - 1));
  double az = core::azimuth_of(direction);
  if (az < 0.0) az += core::kTwoPi;
  if (!std::isfinite(az)) return std::nullopt;
  const auto bins = static_cast<double>(az_bins_[row]);
  auto az_bin = static_cast<std::size_t>(az / core::kTwoPi * bins);
  if (az_bin >= static_cast<std::size_t>(az_bins_[row]))
    az_bin = static_cast<std::size_t>(az_bins_[row]) - 1;
  return row_offset_[row] + az_bin;
}

bool normalize_log_posterior(const SkyGrid& grid,
                             std::span<const double> log_post,
                             std::vector<double>& probability) {
  ADAPT_REQUIRE(log_post.size() == grid.n_pixels(),
                "log posterior size mismatch");
  const std::size_t total = log_post.size();
  probability.assign(total, 0.0);

  // Max over *finite* entries only: a stray -inf (underflowed pixel)
  // or NaN must not poison the softmax shift.
  double max_log = -std::numeric_limits<double>::infinity();
  bool any_finite = false;
  for (const double v : log_post) {
    if (std::isfinite(v) && (!any_finite || v > max_log)) {
      max_log = v;
      any_finite = true;
    }
  }

  double norm = 0.0;
  if (any_finite) {
    grid.for_each_pixel([&](std::size_t row, std::size_t, std::size_t i) {
      const double v = log_post[i];
      const double sa = grid.row_pixel_solid_angle_deg2(row);
      const double mass = std::isfinite(v) ? std::exp(v - max_log) * sa : 0.0;
      probability[i] = mass;
      norm += mass;
    });
  }

  if (!(norm > 0.0) || !std::isfinite(norm)) {
    // Degenerate posterior: no pixel carries finite mass.  Return the
    // uniform solid-angle posterior (a correct statement of total
    // ignorance) instead of dividing by zero into a NaN map.
    static auto& degenerate =
        core::telemetry::counter("loc.skymap.degenerate");
    degenerate.add(1);
    double total_sa = 0.0;
    grid.for_each_pixel([&](std::size_t row, std::size_t, std::size_t) {
      total_sa += grid.row_pixel_solid_angle_deg2(row);
    });
    grid.for_each_pixel([&](std::size_t row, std::size_t, std::size_t i) {
      probability[i] = grid.row_pixel_solid_angle_deg2(row) / total_sa;
    });
    return false;
  }

  for (double& p : probability) p /= norm;
  return true;
}

namespace {

/// First chunk of the credible-region selection and its growth factor
/// per round: a compact region (the usual alert) is found within the
/// first chunk, a diffuse one in O(log n) rounds.
constexpr std::size_t kFirstChunk = 256;
constexpr std::size_t kChunkGrowth = 2;

}  // namespace

double credible_region_area(std::span<const double> density,
                            std::span<const double> mass,
                            std::span<const double> area, double content) {
  ADAPT_REQUIRE(mass.size() == density.size() && area.size() == density.size(),
                "credible region inputs differ in size");
  const std::size_t n = density.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Strict total order: higher density first, NaN after every number,
  // ties to the lower index — so selecting the next chunk with
  // nth_element picks exactly the pixels a full sort would put there.
  const auto before = [&](std::size_t a, std::size_t b) {
    const double da = density[a];
    const double db = density[b];
    if (da > db) return true;
    if (da < db) return false;
    const bool a_nan = std::isnan(da);
    if (a_nan != std::isnan(db)) return !a_nan;
    return a < b;
  };

  double taken_mass = 0.0;
  double taken_area = 0.0;
  std::size_t chunk = kFirstChunk;
  for (std::size_t begin = 0; begin < n; chunk *= kChunkGrowth) {
    const std::size_t end = n - begin > chunk ? begin + chunk : n;
    const auto first = order.begin() + static_cast<std::ptrdiff_t>(begin);
    const auto last = order.begin() + static_cast<std::ptrdiff_t>(end);
    if (end < n) std::nth_element(first, last, order.end(), before);
    std::sort(first, last, before);
    for (auto it = first; it != last; ++it) {
      taken_mass += mass[*it];
      taken_area += area[*it];
      if (taken_mass >= content) return taken_area;
    }
    begin = end;
  }
  return taken_area;
}

}  // namespace adapt::loc
