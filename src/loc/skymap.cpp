#include "loc/skymap.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "core/contract.hpp"
#include "core/parallel.hpp"
#include "core/units.hpp"
#include "loc/likelihood.hpp"

namespace adapt::loc {

using core::Vec3;

namespace {

/// Pixels per block of the sky-map kernel: the block's centres and
/// accumulators (8 KiB) stay in L1 while the rings stream past.
constexpr std::size_t kPixelBlock = 256;

}  // namespace

SkyMap SkyMap::compute(std::span<const recon::ComptonRing> rings,
                       const SkyMapConfig& config) {
  ADAPT_REQUIRE(config.resolution_deg > 0.0, "resolution must be positive");
  ADAPT_REQUIRE(config.max_polar_deg > 0.0 && config.max_polar_deg <= 180.0,
                "max polar out of range");
  ADAPT_REQUIRE(std::isfinite(config.truncation_sigma) &&
                    config.truncation_sigma > 0.0,
                "truncation sigma must be finite and positive");

  // Unusable rings (NaN axis, non-positive d_eta) would poison every
  // pixel identically; drop them up front like the point-estimate
  // localizer does so a single bad ring cannot degrade the whole map.
  std::vector<recon::ComptonRing> filtered_storage;
  const std::span<const recon::ComptonRing> usable =
      usable_rings(rings, filtered_storage);

  SkyMap map;
  map.config_ = config;
  map.grid_ = SkyGrid(config.resolution_deg, config.max_polar_deg);
  const std::size_t total = map.grid_.n_pixels();

  // Ring-outer kernel over structure-of-arrays copies: pixel centres
  // (row by row, no per-pixel row search) and the usable rings' axis,
  // eta and d_eta.  Each block of pixels keeps its accumulators hot
  // while every ring streams past once, and the inner loop runs
  // across pixels, so it vectorizes.  Per pixel it performs exactly
  // the operations of truncated_neg_log_likelihood in the same ring
  // order — dot product (x, y, z), minus eta, divided by d_eta,
  // squared, capped, halved, summed from 0 — so log_post is
  // bit-identical to -truncated_neg_log_likelihood(usable, centre)
  // (no FMA contraction: the build targets baseline x86-64).  Blocks
  // are independent, so the result does not depend on thread count.
  std::vector<double> px(total);
  std::vector<double> py(total);
  std::vector<double> pz(total);
  const SkyGrid& grid = map.grid_;
  grid.for_each_pixel([&](std::size_t row, std::size_t az, std::size_t i) {
    const Vec3 c = grid.pixel_center(row, az);
    px[i] = c.x;
    py[i] = c.y;
    pz[i] = c.z;
  });
  const std::size_t n_rings = usable.size();
  std::vector<double> ax(n_rings);
  std::vector<double> ay(n_rings);
  std::vector<double> az(n_rings);
  std::vector<double> eta(n_rings);
  std::vector<double> d_eta(n_rings);
  for (std::size_t r = 0; r < n_rings; ++r) {
    ax[r] = usable[r].axis.x;
    ay[r] = usable[r].axis.y;
    az[r] = usable[r].axis.z;
    eta[r] = usable[r].eta;
    d_eta[r] = usable[r].d_eta;
  }
  const double cap2 = config.truncation_sigma * config.truncation_sigma;

  std::vector<double> log_post(total);
  const std::size_t n_blocks = (total + kPixelBlock - 1) / kPixelBlock;
  core::parallel_for(n_blocks, [&](std::size_t block) {
    const std::size_t begin = block * kPixelBlock;
    const std::size_t len = std::min(kPixelBlock, total - begin);
    const double* x = px.data() + begin;
    const double* y = py.data() + begin;
    const double* z = pz.data() + begin;
    double nll[kPixelBlock] = {};
    for (std::size_t r = 0; r < n_rings; ++r) {
      const double rx = ax[r];
      const double ry = ay[r];
      const double rz = az[r];
      const double e = eta[r];
      const double de = d_eta[r];
      for (std::size_t p = 0; p < len; ++p) {
        const double res = (rx * x[p] + ry * y[p] + rz * z[p] - e) / de;
        const double r2 = res * res;
        nll[p] += 0.5 * (r2 < cap2 ? r2 : cap2);
      }
    }
    for (std::size_t p = 0; p < len; ++p) log_post[begin + p] = -nll[p];
  });
  map.degenerate_ = !normalize_log_posterior(grid, log_post, map.probability_);
  return map;
}

SkyMap SkyMap::from_log_posterior(const SkyGrid& grid,
                                  std::span<const double> log_post,
                                  const SkyMapConfig& config) {
  SkyMap map;
  map.config_ = config;
  map.grid_ = grid;
  map.degenerate_ =
      !normalize_log_posterior(map.grid_, log_post, map.probability_);
  return map;
}

Vec3 SkyMap::peak() const {
  ADAPT_REQUIRE(!probability_.empty(), "peak of an empty map");
  const auto it =
      std::max_element(probability_.begin(), probability_.end());
  return grid_.pixel_center(
      static_cast<std::size_t>(std::distance(probability_.begin(), it)));
}

double SkyMap::credible_region_area_deg2(double content) const {
  ADAPT_REQUIRE(std::isfinite(content) && content > 0.0 && content < 1.0,
                "credible content in (0, 1)");
  ADAPT_REQUIRE(!probability_.empty(), "credible region of an empty map");
  // Greedy density cut (sky_grid.hpp); the density is computed once
  // per pixel, row by row.
  std::vector<double> density(probability_.size());
  std::vector<double> area(probability_.size());
  grid_.for_each_pixel([&](std::size_t row, std::size_t, std::size_t i) {
    area[i] = grid_.row_pixel_solid_angle_deg2(row);
    density[i] = probability_[i] / area[i];
  });
  return credible_region_area(density, probability_, area, content);
}

double SkyMap::credible_radius_deg(double content) const {
  return std::sqrt(credible_region_area_deg2(content) / core::kPi);
}

double SkyMap::probability_at(const Vec3& direction) const {
  const auto pixel = grid_.pixel_of(direction);
  return pixel ? probability_[*pixel] : 0.0;
}

bool SkyMap::write_csv(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "polar_deg,azimuth_deg,probability\n";
  grid_.for_each_pixel([&](std::size_t row, std::size_t az, std::size_t i) {
    const Vec3 dir = grid_.pixel_center(row, az);
    f << core::rad_to_deg(core::polar_of(dir)) << ','
      << core::rad_to_deg(core::azimuth_of(dir)) << ',' << probability_[i]
      << '\n';
  });
  return static_cast<bool>(f);
}

}  // namespace adapt::loc
