#include "loc/incremental.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "core/contract.hpp"
#include "core/telemetry.hpp"
#include "core/units.hpp"
#include "loc/likelihood.hpp"

namespace adapt::loc {

using core::Vec3;

namespace {

constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();

/// Candidate azimuth-bin ranges of one grid row for a ring band.
///
/// On the row at polar angle theta, the ring dot product is
///   c.s(phi) = m + s * cos(phi - phi0),
///   m = c_z cos(theta), s = hypot(c_x, c_y) sin(theta),
///   phi0 = atan2(c_y, c_x),
/// so |c.s - eta| <= w selects up to two azimuth arcs symmetric about
/// phi0.  The ranges returned are inclusive *unwrapped* bin intervals
/// (map with a positive modulo), conservative by at least one bin on
/// each end, and guaranteed duplicate-free mod bins; the caller applies
/// the exact per-pixel-center residual test, which is the same
/// condition the batch path evaluates, so over-inclusion costs only a
/// wasted test while under-inclusion cannot happen.
struct BinRanges {
  std::array<std::pair<long, long>, 2> r;
  int n = 0;
};

BinRanges band_bin_ranges(int bins, double m, double s, double phi0,
                          double eta, double w) {
  BinRanges out;
  const auto full = [&] {
    out.n = 1;
    out.r[0] = {0, bins - 1};
    return out;
  };
  if (s < 1e-12) {
    // Band is azimuth-independent on this row (ring axis on the polar
    // axis, or the zenith row itself).
    if (std::abs(m - eta) <= w + 1e-12) return full();
    return out;
  }
  const double lo = (eta - w - m) / s;
  const double hi = (eta + w - m) / s;
  if (lo > 1.0 || hi < -1.0) return out;  // band misses the row
  const double a_min = std::acos(std::clamp(hi, -1.0, 1.0));
  const double a_max = std::acos(std::clamp(lo, -1.0, 1.0));
  const double bin_w = core::kTwoPi / static_cast<double>(bins);
  const auto to_range = [&](double lo_phi, double hi_phi) {
    // Bin b centers at (b + 0.5) * bin_w; widen one bin each side.
    const long b0 = static_cast<long>(std::floor(lo_phi / bin_w - 0.5)) - 1;
    const long b1 = static_cast<long>(std::ceil(hi_phi / bin_w - 0.5)) + 1;
    return std::pair<long, long>{b0, b1};
  };
  const auto rp = to_range(phi0 + a_min, phi0 + a_max);
  const auto rm = to_range(phi0 - a_max, phi0 - a_min);
  const long len =
      (rp.second - rp.first + 1) + (rm.second - rm.first + 1);
  if (len >= bins) return full();
  if (rm.second + 1 >= rp.first) {
    // Arcs meet near delta-phi = 0 (band grazes its nearest approach).
    const std::pair<long, long> merged{rm.first, rp.second};
    if (merged.second - merged.first + 1 >= bins) return full();
    out.n = 1;
    out.r[0] = merged;
    return out;
  }
  if (rp.second + 1 >= rm.first + bins) {
    // Arcs meet across delta-phi = pi (band grazes its far point).
    const std::pair<long, long> merged{rp.first, rm.second + bins};
    if (merged.second - merged.first + 1 >= bins) return full();
    out.n = 1;
    out.r[0] = merged;
    return out;
  }
  out.n = 2;
  out.r[0] = rm;
  out.r[1] = rp;
  return out;
}

}  // namespace

IncrementalLocalizer::IncrementalLocalizer(const IncrementalConfig& config)
    : config_(config) {
  ADAPT_REQUIRE(config.resolution_deg > 0.0, "resolution must be positive");
  ADAPT_REQUIRE(config.max_polar_deg > 0.0 && config.max_polar_deg <= 180.0,
                "max polar out of range");
  ADAPT_REQUIRE(std::isfinite(config.truncation_sigma) &&
                    config.truncation_sigma > 0.0,
                "truncation sigma must be finite and positive");
  ADAPT_REQUIRE(config.coarse_factor >= 1, "coarse factor must be >= 1");
  ADAPT_REQUIRE(config.refine_mass_fraction > 0.0 &&
                    config.refine_mass_fraction <= 1.0,
                "refine mass fraction in (0, 1]");
  fine_ = SkyGrid(config.resolution_deg, config.max_polar_deg);
  coarse_ = SkyGrid(config.resolution_deg * config.coarse_factor,
                    config.max_polar_deg);
  coarse_excess_.assign(coarse_.n_pixels(), 0.0);
  coarse_refined_.assign(static_cast<std::size_t>(coarse_.n_rows()), 0);
  fine_excess_.resize(static_cast<std::size_t>(fine_.n_rows()));
}

void IncrementalLocalizer::accumulate_band(
    const SkyGrid& grid, std::size_t row, const recon::ComptonRing& ring,
    double cap2, std::vector<double>& excess, std::size_t base,
    std::size_t& touched) {
  const double w = config_.truncation_sigma * ring.d_eta;
  const int bins = grid.az_bins(row);
  // On this row the ring dot product is m + s * cos(phi - phi0); the
  // closed form lets each candidate pixel pay one cos() instead of a
  // full spherical-to-Cartesian conversion plus dot product.  It agrees
  // with the batch path's ring_residual to ~1 ulp, within the
  // documented equivalence tolerance (see incremental.hpp).
  const double m = ring.axis.z * grid.row_cos(row);
  const double s = std::hypot(ring.axis.x, ring.axis.y) * grid.row_sin(row);
  const double phi0 = std::atan2(ring.axis.y, ring.axis.x);
  const BinRanges ranges = band_bin_ranges(bins, m, s, phi0, ring.eta, w);
  const double bin_w = core::kTwoPi / static_cast<double>(bins);
  const long lbins = bins;
  for (int k = 0; k < ranges.n; ++k) {
    for (long b = ranges.r[static_cast<std::size_t>(k)].first;
         b <= ranges.r[static_cast<std::size_t>(k)].second; ++b) {
      const auto az =
          static_cast<std::size_t>(((b % lbins) + lbins) % lbins);
      const double phi_c = (static_cast<double>(az) + 0.5) * bin_w;
      // Same contribution rule as the batch likelihood: only residuals
      // strictly inside the cap add excess.
      const double r = (m + s * std::cos(phi_c - phi0) - ring.eta) /
                       ring.d_eta;
      const double r2 = r * r;
      if (r2 < cap2) excess[base + az] += 0.5 * (cap2 - r2);
      ++touched;
    }
  }
}

std::size_t IncrementalLocalizer::fine_rows_of(std::size_t coarse_row,
                                               std::size_t& first) const {
  const auto factor = static_cast<std::size_t>(config_.coarse_factor);
  first = coarse_row * factor;
  const auto n_fine = static_cast<std::size_t>(fine_.n_rows());
  const std::size_t end = std::min(first + factor, n_fine);
  return end > first ? end - first : 0;
}

std::size_t IncrementalLocalizer::add_ring(const recon::ComptonRing& ring) {
  namespace tm = core::telemetry;
  static tm::Counter& rings_ctr = tm::counter("loc.incremental.rings");
  static tm::Counter& rejected_ctr =
      tm::counter("loc.incremental.rings_rejected");
  static tm::Histogram& update_ms =
      tm::histogram("loc.incremental.update_ms");
  static tm::Histogram& touched_hist =
      tm::histogram("loc.incremental.pixels_touched");

  if (!ring_usable(ring)) {
    ++rings_rejected_;
    rejected_ctr.add();
    return 0;
  }
  const tm::ScopedTimer timer(update_ms);
  rings_.push_back(ring);
  const double cap2 = config_.truncation_sigma * config_.truncation_sigma;
  std::size_t touched = 0;

  for (std::size_t row = 0;
       row < static_cast<std::size_t>(coarse_.n_rows()); ++row) {
    accumulate_band(coarse_, row, ring, cap2, coarse_excess_,
                    coarse_.row_offset(row), touched);
  }
  for (std::size_t cr = 0;
       cr < static_cast<std::size_t>(coarse_.n_rows()); ++cr) {
    if (!coarse_refined_[cr]) continue;
    std::size_t first = 0;
    const std::size_t count = fine_rows_of(cr, first);
    for (std::size_t fr = first; fr < first + count; ++fr) {
      accumulate_band(fine_, fr, ring, cap2, fine_excess_[fr], 0, touched);
    }
  }

  pixels_touched_ += touched;
  posterior_dirty_ = true;
  rings_ctr.add();
  touched_hist.record(static_cast<double>(touched));
  return touched;
}

std::size_t IncrementalLocalizer::add_rings(
    std::span<const recon::ComptonRing> rings) {
  std::size_t touched = 0;
  for (const auto& ring : rings) touched += add_ring(ring);
  return touched;
}

void IncrementalLocalizer::refine_coarse_row(std::size_t coarse_row) {
  if (coarse_refined_[coarse_row]) return;
  namespace tm = core::telemetry;
  static tm::Counter& refined_ctr =
      tm::counter("loc.incremental.rows_refined");
  const double cap2 = config_.truncation_sigma * config_.truncation_sigma;
  std::size_t first = 0;
  const std::size_t count = fine_rows_of(coarse_row, first);
  for (std::size_t fr = first; fr < first + count; ++fr) {
    fine_excess_[fr].assign(static_cast<std::size_t>(fine_.az_bins(fr)),
                            0.0);
    // Replay in arrival order so the sums are bit-identical to the
    // ones a from-the-start refined row would have accumulated.
    std::size_t touched = 0;
    for (const auto& ring : rings_) {
      accumulate_band(fine_, fr, ring, cap2, fine_excess_[fr], 0, touched);
    }
    pixels_touched_ += touched;
    refined_ctr.add();
  }
  coarse_refined_[coarse_row] = 1;
  posterior_dirty_ = true;
}

void IncrementalLocalizer::ensure_posterior() {
  if (!posterior_dirty_) return;

  const auto n_coarse_rows = static_cast<std::size_t>(coarse_.n_rows());

  // Decide which coarse rows deserve full resolution: the smallest set
  // holding `refine_mass_fraction` of the coarse posterior mass
  // (refinement is monotone, so previously refined rows stay).
  if (config_.refine_all) {
    for (std::size_t cr = 0; cr < n_coarse_rows; ++cr)
      refine_coarse_row(cr);
  } else {
    std::vector<double> coarse_prob;
    normalize_log_posterior(coarse_, coarse_excess_, coarse_prob);
    std::vector<double> row_mass(n_coarse_rows, 0.0);
    for (std::size_t cr = 0; cr < n_coarse_rows; ++cr) {
      const std::size_t off = coarse_.row_offset(cr);
      const auto bins = static_cast<std::size_t>(coarse_.az_bins(cr));
      for (std::size_t b = 0; b < bins; ++b)
        row_mass[cr] += coarse_prob[off + b];
    }
    std::vector<std::size_t> order(n_coarse_rows);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                if (row_mass[a] != row_mass[b])
                  return row_mass[a] > row_mass[b];
                return a < b;  // deterministic tie-break
              });
    double mass = 0.0;
    for (const std::size_t cr : order) {
      refine_coarse_row(cr);
      mass += row_mass[cr];
      if (mass >= config_.refine_mass_fraction) break;
    }
  }

  // Assemble the mixed posterior: refined rows contribute their fine
  // pixels, unrefined rows their coarse pixels.
  mixed_value_.clear();
  mixed_sa_.clear();
  fine_row_off_.assign(static_cast<std::size_t>(fine_.n_rows()), kNpos);
  coarse_row_off_.assign(n_coarse_rows, kNpos);
  for (std::size_t cr = 0; cr < n_coarse_rows; ++cr) {
    if (coarse_refined_[cr]) {
      std::size_t first = 0;
      const std::size_t count = fine_rows_of(cr, first);
      for (std::size_t fr = first; fr < first + count; ++fr) {
        fine_row_off_[fr] = mixed_value_.size();
        const double sa = fine_.row_pixel_solid_angle_deg2(fr);
        for (const double v : fine_excess_[fr]) {
          mixed_value_.push_back(v);
          mixed_sa_.push_back(sa);
        }
      }
    } else {
      coarse_row_off_[cr] = mixed_value_.size();
      const std::size_t off = coarse_.row_offset(cr);
      const auto bins = static_cast<std::size_t>(coarse_.az_bins(cr));
      const double sa = coarse_.row_pixel_solid_angle_deg2(cr);
      for (std::size_t b = 0; b < bins; ++b) {
        mixed_value_.push_back(coarse_excess_[off + b]);
        mixed_sa_.push_back(sa);
      }
    }
  }

  // Stable softmax over the mixed entries with their solid-angle
  // weights; same degenerate semantics as normalize_log_posterior.
  const std::size_t total = mixed_value_.size();
  mixed_prob_.assign(total, 0.0);
  double max_v = -std::numeric_limits<double>::infinity();
  bool any_finite = false;
  for (const double v : mixed_value_) {
    if (std::isfinite(v) && (!any_finite || v > max_v)) {
      max_v = v;
      any_finite = true;
    }
  }
  double norm = 0.0;
  if (any_finite) {
    for (std::size_t i = 0; i < total; ++i) {
      const double v = mixed_value_[i];
      const double m =
          std::isfinite(v) ? std::exp(v - max_v) * mixed_sa_[i] : 0.0;
      mixed_prob_[i] = m;
      norm += m;
    }
  }
  if (!(norm > 0.0) || !std::isfinite(norm)) {
    static auto& degenerate_ctr =
        core::telemetry::counter("loc.skymap.degenerate");
    degenerate_ctr.add();
    double total_sa = 0.0;
    for (const double sa : mixed_sa_) total_sa += sa;
    for (std::size_t i = 0; i < total; ++i)
      mixed_prob_[i] = mixed_sa_[i] / total_sa;
    degenerate_ = true;
  } else {
    for (double& p : mixed_prob_) p /= norm;
    degenerate_ = false;
  }
  posterior_dirty_ = false;
}

Vec3 IncrementalLocalizer::peak() {
  ensure_posterior();
  // The peak lives in the refined set by construction (the refined
  // rows hold >= refine_mass_fraction of the posterior, and mass per
  // pixel peaks where density does at near-equal pixel areas).
  double best = -1.0;
  std::size_t best_row = kNpos;
  std::size_t best_az = 0;
  for (std::size_t fr = 0; fr < fine_row_off_.size(); ++fr) {
    const std::size_t off = fine_row_off_[fr];
    if (off == kNpos) continue;
    const auto bins = static_cast<std::size_t>(fine_.az_bins(fr));
    for (std::size_t b = 0; b < bins; ++b) {
      if (mixed_prob_[off + b] > best) {
        best = mixed_prob_[off + b];
        best_row = fr;
        best_az = b;
      }
    }
  }
  if (best_row != kNpos) return fine_.pixel_center(best_row, best_az);
  // No refined row (can only happen with refine_mass_fraction so small
  // the first row already covers it and zero-mass coarse posterior):
  // fall back to the coarse argmax.
  const auto it = std::max_element(mixed_prob_.begin(), mixed_prob_.end());
  const auto mi =
      static_cast<std::size_t>(std::distance(mixed_prob_.begin(), it));
  for (std::size_t cr = 0; cr < coarse_row_off_.size(); ++cr) {
    const std::size_t off = coarse_row_off_[cr];
    if (off == kNpos) continue;
    const auto bins = static_cast<std::size_t>(coarse_.az_bins(cr));
    if (mi >= off && mi < off + bins)
      return coarse_.pixel_center(cr, mi - off);
  }
  return Vec3{0.0, 0.0, 1.0};
}

double IncrementalLocalizer::credible_region_area_deg2(double content) {
  ADAPT_REQUIRE(std::isfinite(content) && content > 0.0 && content < 1.0,
                "credible content in (0, 1)");
  ensure_posterior();
  ADAPT_REQUIRE(!mixed_prob_.empty(), "credible region of an empty map");
  // Greedy density cut shared with the batch map (sky_grid.hpp):
  // posterior density is monotone in the excess value, so the value
  // is the density key.
  return credible_region_area(mixed_value_, mixed_prob_, mixed_sa_, content);
}

double IncrementalLocalizer::credible_radius_deg(double content) {
  return std::sqrt(credible_region_area_deg2(content) / core::kPi);
}

double IncrementalLocalizer::probability_at(const Vec3& direction) {
  ensure_posterior();
  const auto pixel = fine_.pixel_of(direction);
  if (!pixel) return 0.0;
  const std::size_t fr = fine_.row_of(*pixel);
  const std::size_t az = *pixel - fine_.row_offset(fr);
  if (fine_row_off_[fr] != kNpos)
    return mixed_prob_[fine_row_off_[fr] + az];
  // Unrefined row: approximate the fine pixel's mass by its share of
  // the coarse pixel under locally uniform density.
  const auto cpixel = coarse_.pixel_of(direction);
  if (!cpixel) return 0.0;
  const std::size_t cr = coarse_.row_of(*cpixel);
  const std::size_t caz = *cpixel - coarse_.row_offset(cr);
  if (coarse_row_off_[cr] == kNpos) return 0.0;
  return mixed_prob_[coarse_row_off_[cr] + caz] *
         fine_.row_pixel_solid_angle_deg2(fr) /
         coarse_.row_pixel_solid_angle_deg2(cr);
}

bool IncrementalLocalizer::degenerate() {
  ensure_posterior();
  return degenerate_;
}

SkyMap IncrementalLocalizer::snapshot() {
  for (std::size_t cr = 0;
       cr < static_cast<std::size_t>(coarse_.n_rows()); ++cr) {
    refine_coarse_row(cr);
  }
  std::vector<double> log_post(fine_.n_pixels());
  for (std::size_t fr = 0;
       fr < static_cast<std::size_t>(fine_.n_rows()); ++fr) {
    std::copy(fine_excess_[fr].begin(), fine_excess_[fr].end(),
              log_post.begin() +
                  static_cast<std::ptrdiff_t>(fine_.row_offset(fr)));
  }
  return SkyMap::from_log_posterior(
      fine_, log_post,
      SkyMapConfig{config_.resolution_deg, config_.truncation_sigma,
                   config_.max_polar_deg});
}

std::size_t IncrementalLocalizer::refined_fine_rows() const {
  std::size_t n = 0;
  for (const auto& row : fine_excess_)
    if (!row.empty()) ++n;
  return n;
}

}  // namespace adapt::loc
