#include "loc/skymap.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>

#include "core/rng.hpp"
#include "core/units.hpp"
#include "loc/likelihood.hpp"

namespace adapt::loc {
namespace {

std::vector<recon::ComptonRing> rings_for(const core::Vec3& s, int n,
                                          double d_eta, core::Rng& rng,
                                          int n_background = 0) {
  std::vector<recon::ComptonRing> rings;
  for (int i = 0; i < n; ++i) {
    recon::ComptonRing r;
    r.axis = rng.isotropic_direction();
    r.eta = r.axis.dot(s) + rng.normal(0.0, d_eta);
    if (r.eta < -1.0 || r.eta > 1.0) {
      --i;
      continue;
    }
    r.d_eta = d_eta;
    rings.push_back(r);
  }
  for (int i = 0; i < n_background; ++i) {
    recon::ComptonRing r;
    r.axis = rng.isotropic_direction();
    r.eta = rng.uniform(-1.0, 1.0);
    r.d_eta = d_eta;
    rings.push_back(r);
  }
  return rings;
}

TEST(SkyMap, NormalizedToUnitMass) {
  core::Rng rng(1);
  const core::Vec3 s = core::from_spherical(0.5, 1.0);
  const auto rings = rings_for(s, 100, 0.05, rng);
  const SkyMap map = SkyMap::compute(rings);
  // probability_at sums are awkward to reach; verify via the CSV dump.
  const std::string path = "/tmp/adaptml_skymap_norm.csv";
  ASSERT_TRUE(map.write_csv(path));
  std::ifstream f(path);
  std::string header;
  std::getline(f, header);
  EXPECT_EQ(header, "polar_deg,azimuth_deg,probability");
  double total = 0.0;
  double polar;
  double azimuth;
  double prob;
  char comma;
  while (f >> polar >> comma >> azimuth >> comma >> prob) total += prob;
  EXPECT_NEAR(total, 1.0, 1e-6);
  std::remove(path.c_str());
}

TEST(SkyMap, PeakNearTrueSource) {
  core::Rng rng(2);
  const core::Vec3 s = core::from_spherical(core::deg_to_rad(35.0),
                                            core::deg_to_rad(120.0));
  const auto rings = rings_for(s, 200, 0.05, rng);
  const SkyMap map = SkyMap::compute(rings);
  EXPECT_LT(core::rad_to_deg(core::angle_between(map.peak(), s)), 2.5);
}

TEST(SkyMap, PeakSurvivesBackgroundContamination) {
  core::Rng rng(3);
  const core::Vec3 s = core::from_spherical(core::deg_to_rad(20.0), 0.4);
  const auto rings = rings_for(s, 120, 0.05, rng, 300);
  const SkyMap map = SkyMap::compute(rings);
  EXPECT_LT(core::rad_to_deg(core::angle_between(map.peak(), s)), 3.0);
}

TEST(SkyMap, CredibleRegionShrinksWithMoreRings) {
  const core::Vec3 s = core::from_spherical(0.7, -0.5);
  core::Rng rng1(4);
  core::Rng rng2(4);
  const SkyMap sparse = SkyMap::compute(rings_for(s, 40, 0.05, rng1));
  const SkyMap dense = SkyMap::compute(rings_for(s, 400, 0.05, rng2));
  EXPECT_LT(dense.credible_region_area_deg2(0.9),
            sparse.credible_region_area_deg2(0.9));
}

TEST(SkyMap, CredibleRegionGrowsWithContent) {
  core::Rng rng(5);
  const core::Vec3 s = core::from_spherical(0.6, 2.0);
  const SkyMap map = SkyMap::compute(rings_for(s, 100, 0.08, rng));
  EXPECT_LT(map.credible_region_area_deg2(0.5),
            map.credible_region_area_deg2(0.9));
  EXPECT_GT(map.credible_radius_deg(0.9), 0.0);
  EXPECT_THROW(map.credible_region_area_deg2(0.0), std::invalid_argument);
}

TEST(SkyMap, CredibleRegionCoversTruthAtStatedRate) {
  // Property: over repeated realizations, the 90% region should
  // contain the truth about 90% of the time (within small-sample
  // slack).  Use the pixel-density ordering membership test.
  int covered = 0;
  const int trials = 25;
  for (int t = 0; t < trials; ++t) {
    core::Rng rng(100 + t);
    const core::Vec3 s = core::from_spherical(0.5, 0.3 * t);
    const auto rings = rings_for(s, 150, 0.05, rng);
    const SkyMap map = SkyMap::compute(rings);
    // Membership: truth pixel's probability exceeds the density cut
    // that bounds the 90% region <=> the peak-ward set containing the
    // truth has mass < 0.9.  Approximate with the simpler check that
    // the truth lies within the credible radius of the peak.
    const double radius = map.credible_radius_deg(0.9);
    const double err = core::rad_to_deg(core::angle_between(map.peak(), s));
    if (err <= radius + map.config().resolution_deg) ++covered;
  }
  EXPECT_GE(covered, trials * 7 / 10);
}

TEST(SkyMap, ProbabilityAtFieldOfViewEdge) {
  core::Rng rng(6);
  const core::Vec3 s = core::from_spherical(0.4, 0.0);
  const SkyMap map = SkyMap::compute(rings_for(s, 80, 0.05, rng));
  // Below the horizon: exactly zero.
  EXPECT_DOUBLE_EQ(map.probability_at({0.0, 0.0, -1.0}), 0.0);
  // At the true source: positive.
  EXPECT_GT(map.probability_at(s), 0.0);
}

TEST(SkyMap, DegenerateLogPosteriorYieldsUniformNotNaN) {
  // Regression (zero-norm degenerate skymap): a posterior whose every
  // pixel underflowed to -inf used to normalize into a NaN map.  It
  // must instead come back flagged degenerate with the uniform
  // solid-angle posterior.
  const SkyGrid grid(2.0, 90.0);
  const std::vector<double> log_post(
      grid.n_pixels(), -std::numeric_limits<double>::infinity());
  const SkyMap map = SkyMap::from_log_posterior(
      grid, log_post, SkyMapConfig{2.0, 3.0, 90.0});
  EXPECT_TRUE(map.degenerate());
  const double p = map.probability_at(core::from_spherical(0.5, 1.0));
  EXPECT_TRUE(std::isfinite(p));
  EXPECT_GT(p, 0.0);
  // Credible queries stay well-defined on the uniform fallback.
  EXPECT_TRUE(std::isfinite(map.credible_radius_deg(0.68)));
  EXPECT_GT(map.credible_region_area_deg2(0.68), 1e4);
}

TEST(SkyMap, HealthyMapIsNotDegenerate) {
  core::Rng rng(8);
  const auto rings = rings_for(core::from_spherical(0.5, 0.5), 60, 0.05,
                               rng);
  const SkyMap map = SkyMap::compute(rings);
  EXPECT_FALSE(map.degenerate());
}

TEST(SkyMap, CredibleContentDomainEnforced) {
  core::Rng rng(9);
  const SkyMap map =
      SkyMap::compute(rings_for({0.0, 0.0, 1.0}, 40, 0.05, rng));
  EXPECT_THROW(map.credible_region_area_deg2(1.0), std::invalid_argument);
  EXPECT_THROW(map.credible_region_area_deg2(-0.1), std::invalid_argument);
  EXPECT_THROW(
      map.credible_region_area_deg2(std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
  EXPECT_THROW(map.credible_radius_deg(0.0), std::invalid_argument);
}

TEST(SkyMap, UnusableRingsFilteredNotFatal) {
  // A zero- or NaN-width ring in the stream must be skipped, exactly
  // as the point-estimate localizers skip it — not abort the map.
  core::Rng rng(10);
  const core::Vec3 s = core::from_spherical(0.5, 1.0);
  auto rings = rings_for(s, 60, 0.05, rng);
  const SkyMap clean = SkyMap::compute(rings);
  recon::ComptonRing bad;
  bad.axis = {0.0, 0.0, 1.0};
  bad.eta = 0.2;
  bad.d_eta = 0.0;
  rings.push_back(bad);
  bad.d_eta = std::numeric_limits<double>::quiet_NaN();
  rings.push_back(bad);
  const SkyMap mixed = SkyMap::compute(rings);
  EXPECT_DOUBLE_EQ(mixed.probability_at(s), clean.probability_at(s));
  EXPECT_DOUBLE_EQ(mixed.credible_radius_deg(0.68),
                   clean.credible_radius_deg(0.68));
}

TEST(SkyMap, ProbabilityAtExactFieldOfViewEdge) {
  // The horizon vector sits exactly at polar == max_polar_deg; it
  // belongs to the last row (regression: it used to fall out of the
  // map and read back 0).
  core::Rng rng(11);
  const SkyMap map =
      SkyMap::compute(rings_for({1.0, 0.0, 0.0}, 80, 0.05, rng));
  EXPECT_GT(map.probability_at({1.0, 0.0, 0.0}), 0.0);
}

TEST(SkyMap, ResolutionControlsPixelCount) {
  core::Rng rng(7);
  const auto rings = rings_for({0, 0, 1}, 50, 0.05, rng);
  SkyMapConfig coarse;
  coarse.resolution_deg = 4.0;
  SkyMapConfig fine;
  fine.resolution_deg = 1.0;
  const SkyMap a = SkyMap::compute(rings, coarse);
  const SkyMap b = SkyMap::compute(rings, fine);
  EXPECT_GT(b.n_pixels(), 10 * a.n_pixels());
  EXPECT_THROW(SkyMap::compute(rings, SkyMapConfig{0.0, 3.0, 90.0}),
               std::invalid_argument);
}

TEST(SkyMap, ComputeMatchesPerPixelLikelihoodBitForBit) {
  // The ring-outer kernel must reproduce, bit for bit, the posterior
  // built from -truncated_neg_log_likelihood evaluated pixel by pixel
  // on the usable rings — across resolutions (pixel counts that are
  // not multiples of the kernel's block or SIMD width), with unusable
  // rings mixed in, and with fewer rings than one SIMD width.
  core::Rng rng(12);
  const core::Vec3 s = core::from_spherical(0.6, 2.2);
  recon::ComptonRing nan_axis;
  nan_axis.axis = {std::numeric_limits<double>::quiet_NaN(), 0.0, 1.0};
  nan_axis.eta = 0.3;
  nan_axis.d_eta = 0.05;
  recon::ComptonRing zero_width = nan_axis;
  zero_width.axis = {0.0, 0.0, 1.0};
  zero_width.d_eta = 0.0;
  recon::ComptonRing negative_width = zero_width;
  negative_width.d_eta = -0.05;

  std::vector<std::vector<recon::ComptonRing>> ring_sets;
  ring_sets.push_back(rings_for(s, 1, 0.05, rng));
  ring_sets.push_back(rings_for(s, 3, 0.05, rng));
  auto contaminated = rings_for(s, 120, 0.04, rng, 200);
  contaminated.insert(contaminated.begin() + 5, nan_axis);
  contaminated.insert(contaminated.begin() + 60, zero_width);
  contaminated.push_back(negative_width);
  ring_sets.push_back(contaminated);
  ring_sets.push_back({zero_width, nan_axis});  // nothing usable

  for (const double res : {0.5, 1.0, 2.0}) {
    for (const double cap : {3.0, 1.5}) {
      const SkyMapConfig config{res, cap, 90.0};
      const SkyGrid grid(res, config.max_polar_deg);
      for (const auto& rings : ring_sets) {
        std::vector<recon::ComptonRing> usable;
        for (const auto& r : rings)
          if (ring_usable(r)) usable.push_back(r);
        std::vector<double> log_post(grid.n_pixels());
        for (std::size_t i = 0; i < grid.n_pixels(); ++i)
          log_post[i] = -truncated_neg_log_likelihood(
              usable, grid.pixel_center(i), cap);
        const SkyMap want = SkyMap::from_log_posterior(grid, log_post, config);
        const SkyMap got = SkyMap::compute(rings, config);
        ASSERT_EQ(got.n_pixels(), want.n_pixels());
        EXPECT_EQ(got.degenerate(), want.degenerate());
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < grid.n_pixels(); ++i) {
          const core::Vec3 c = grid.pixel_center(i);
          ASSERT_EQ(grid.pixel_of(c), i);
          if (got.probability_at(c) != want.probability_at(c)) ++mismatches;
        }
        EXPECT_EQ(mismatches, 0u)
            << "res=" << res << " cap=" << cap << " rings=" << rings.size();
        EXPECT_EQ(got.credible_region_area_deg2(0.68),
                  want.credible_region_area_deg2(0.68));
      }
    }
  }
}

}  // namespace
}  // namespace adapt::loc
