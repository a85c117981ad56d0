// credible_region_area(): the greedy credible-region cut shared by the
// batch SkyMap and the IncrementalLocalizer.  Its chunked selection
// must reproduce, bit for bit, a full sort by (density desc, index
// asc) followed by the same accumulation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/rng.hpp"
#include "loc/sky_grid.hpp"
#include "loc/skymap.hpp"

namespace adapt::loc {
namespace {

/// The reference: full std::sort of every pixel, same index tie-break.
double full_sort_area(const std::vector<double>& density,
                      const std::vector<double>& mass,
                      const std::vector<double>& area, double content) {
  std::vector<std::size_t> order(density.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (density[a] != density[b]) return density[a] > density[b];
    return a < b;
  });
  double m = 0.0;
  double s = 0.0;
  for (const std::size_t i : order) {
    m += mass[i];
    s += area[i];
    if (m >= content) break;
  }
  return s;
}

struct Map {
  std::vector<double> density;
  std::vector<double> mass;
  std::vector<double> area;
};

/// Random map with normalized mass; `levels` > 0 quantizes the
/// densities onto that many values so ties are everywhere.
Map random_map(std::size_t n, core::Rng& rng, int levels = 0) {
  Map map;
  map.density.resize(n);
  map.mass.resize(n);
  map.area.resize(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    map.area[i] = rng.uniform(0.5, 2.0);
    double d = std::exp(rng.normal(0.0, 3.0));
    if (levels > 0)
      d = std::floor(rng.uniform() * static_cast<double>(levels));
    map.density[i] = d;
    map.mass[i] = d * map.area[i] + 1e-12;
    total += map.mass[i];
  }
  for (double& m : map.mass) m /= total;
  return map;
}

const double kContents[] = {1e-9, 0.05, 0.5, 0.68, 0.9, 0.99, 1.0 - 1e-9};

TEST(CredibleRegion, RandomMapsMatchFullSortBitForBit) {
  core::Rng rng(42);
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{7}, std::size_t{255}, std::size_t{256},
        std::size_t{257}, std::size_t{1000}, std::size_t{5183},
        std::size_t{20672}}) {
    for (int rep = 0; rep < 3; ++rep) {
      const Map map = random_map(n, rng);
      for (const double c : kContents) {
        EXPECT_EQ(credible_region_area(map.density, map.mass, map.area, c),
                  full_sort_area(map.density, map.mass, map.area, c))
            << "n=" << n << " content=" << c;
      }
    }
  }
}

TEST(CredibleRegion, HeavyTiesFollowIndexOrder) {
  // Few distinct densities: every chunk boundary falls inside a run of
  // equal keys, so only the index tie-break decides what is taken.
  core::Rng rng(7);
  for (const int levels : {1, 2, 5, 40}) {
    const Map map = random_map(20672, rng, levels);
    for (const double c : kContents) {
      EXPECT_EQ(credible_region_area(map.density, map.mass, map.area, c),
                full_sort_area(map.density, map.mass, map.area, c))
          << "levels=" << levels << " content=" << c;
    }
  }
}

TEST(CredibleRegion, MassShortOfContentTakesEveryPixel) {
  // Equal masses sum to the same value in any order; a content just
  // above that sum is never reached, so every pixel is taken.
  core::Rng rng(3);
  Map map = random_map(3001, rng);
  std::fill(map.mass.begin(), map.mass.end(), 1.0 / 3001.0);
  double sum = 0.0;
  for (const double m : map.mass) sum += m;
  const double content = std::nextafter(sum, 2.0);
  const double all = credible_region_area(map.density, map.mass, map.area,
                                          content);
  EXPECT_EQ(all, full_sort_area(map.density, map.mass, map.area, content));
  const double naive = std::accumulate(map.area.begin(), map.area.end(), 0.0);
  EXPECT_NEAR(all, naive, 1e-9 * naive);
}

TEST(CredibleRegion, ChunkBoundariesHitExactly) {
  // Unit areas and dyadic masses make the cumulative mass exact, so the
  // region is exactly `k` pixels; k sits on and around the chunk edges
  // (256, 256 + 512, ...).  Densities are a random permutation, so the
  // selection has to find the top k rather than read them in place.
  const std::size_t n = 4096;
  core::Rng rng(11);
  std::vector<double> density(n);
  std::iota(density.begin(), density.end(), 0.0);
  for (std::size_t i = n - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform() *
                                            static_cast<double>(i + 1));
    std::swap(density[i], density[std::min(j, i)]);
  }
  const std::vector<double> mass(n, 1.0 / static_cast<double>(n));
  const std::vector<double> area(n, 1.0);
  for (const std::size_t k :
       {std::size_t{1}, std::size_t{255}, std::size_t{256}, std::size_t{257},
        std::size_t{767}, std::size_t{768}, std::size_t{769},
        std::size_t{1792}, std::size_t{3840}, std::size_t{4095}}) {
    const double content = static_cast<double>(k) / static_cast<double>(n);
    const double got = credible_region_area(density, mass, area, content);
    EXPECT_EQ(got, static_cast<double>(k)) << "k=" << k;
    EXPECT_EQ(got, full_sort_area(density, mass, area, content));
  }
}

TEST(CredibleRegion, NaNDensityRanksLast) {
  const std::vector<double> density = {
      std::numeric_limits<double>::quiet_NaN(), 1.0,
      -std::numeric_limits<double>::infinity(), 2.0};
  const std::vector<double> mass = {0.25, 0.25, 0.25, 0.25};
  const std::vector<double> area = {1000.0, 10.0, 100.0, 1.0};
  EXPECT_EQ(credible_region_area(density, mass, area, 0.5), 11.0);
  EXPECT_EQ(credible_region_area(density, mass, area, 0.75), 111.0);
  EXPECT_EQ(credible_region_area(density, mass, area, 0.9), 1111.0);
}

TEST(CredibleRegion, MismatchedSpansRejected) {
  const std::vector<double> three(3, 1.0);
  const std::vector<double> two(2, 1.0);
  EXPECT_THROW(credible_region_area(three, two, three, 0.5),
               std::invalid_argument);
  EXPECT_THROW(credible_region_area(three, three, two, 0.5),
               std::invalid_argument);
}

TEST(CredibleRegion, DegenerateUniformMapIsIndexOrdered) {
  // Every density of the uniform fallback ties (up to rounding), so
  // the region is whichever equal-density pixels come first.  The
  // index tie-break pins it; an unordered sort left it unspecified.
  const SkyGrid grid(2.0, 90.0);
  const std::vector<double> log_post(
      grid.n_pixels(), -std::numeric_limits<double>::infinity());
  const SkyMap map = SkyMap::from_log_posterior(
      grid, log_post, SkyMapConfig{2.0, 3.0, 90.0});
  ASSERT_TRUE(map.degenerate());
  std::vector<double> density;
  std::vector<double> mass;
  std::vector<double> area;
  for (std::size_t i = 0; i < grid.n_pixels(); ++i) {
    const double p = map.probability_at(grid.pixel_center(i));
    mass.push_back(p);
    area.push_back(grid.pixel_solid_angle_deg2(i));
    density.push_back(p / area.back());
  }
  const double got = map.credible_region_area_deg2(0.68);
  EXPECT_EQ(got, full_sort_area(density, mass, area, 0.68));
  EXPECT_NEAR(got, 14027.68, 0.01);
}

}  // namespace
}  // namespace adapt::loc
