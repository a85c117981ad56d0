#pragma once

/// \file sky_grid.hpp
/// Shared sky-pixelization geometry for the posterior localizers.
///
/// Both the batch SkyMap (full-grid recompute, skymap.hpp) and the
/// streaming IncrementalLocalizer (per-ring accumulator,
/// incremental.hpp) evaluate the ring likelihood on the same
/// equal-angle-row / sin-scaled-azimuth grid.  Pixel indexing, center
/// directions, solid angles, and — critically — the direction->pixel
/// mapping live here so the two paths cannot disagree about which
/// pixel a boundary direction belongs to.
///
/// Boundary contract of pixel_of():
///   - polar angle in [0, max_polar_deg] maps to a valid pixel; the
///     field-of-view edge itself (polar == max_polar_deg, e.g. a
///     horizon vector with z == 0) belongs to the last row.  A
///     floating-point slop of kFovEdgeTolDeg absorbs rad->deg rounding
///     at the edge.
///   - beyond the edge (or a non-finite direction): std::nullopt.
///   - azimuth is wrapped into [0, 2*pi); values landing exactly on
///     2*pi (atan2 rounding) clamp into the row's last bin, never out
///     of range.
///
/// normalize_log_posterior() turns per-pixel log-likelihoods into a
/// normalized posterior with solid-angle weights, with explicit
/// degenerate handling: when no pixel carries finite mass (all
/// log-likelihoods -inf/NaN, or the normalization sum is zero or
/// non-finite) it returns false, produces the *uniform* solid-angle
/// posterior instead of NaNs, and counts `loc.skymap.degenerate`.
///
/// credible_region_area() is the one greedy credible-region cut both
/// engines query (see its comment for the order and the cost).

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/vec3.hpp"

namespace adapt::loc {

/// Degrees of slop accepted past the field-of-view edge before a
/// direction stops mapping to a pixel (covers acos/rad_to_deg rounding
/// for directions mathematically on the edge).
inline constexpr double kFovEdgeTolDeg = 1e-9;

class SkyGrid {
 public:
  SkyGrid() = default;

  /// Equal-angle rows of `resolution_deg` pitch from the zenith down to
  /// `max_polar_deg`; azimuth bins per row scale with sin(polar) so
  /// pixels keep roughly equal solid angle.
  SkyGrid(double resolution_deg, double max_polar_deg);

  double resolution_deg() const { return resolution_deg_; }
  double max_polar_deg() const { return max_polar_deg_; }
  int n_rows() const { return n_polar_; }
  std::size_t n_pixels() const { return total_; }

  int az_bins(std::size_t row) const { return az_bins_[row]; }
  std::size_t row_offset(std::size_t row) const { return row_offset_[row]; }
  std::size_t row_of(std::size_t index) const;

  /// Polar angle [rad] of the row's pixel centers.
  double row_polar_rad(std::size_t row) const;

  /// Cached cos/sin of the row's center polar angle (hot in the
  /// incremental band updates, where every candidate pixel needs the
  /// ring dot product).
  double row_cos(std::size_t row) const { return row_cos_[row]; }
  double row_sin(std::size_t row) const { return row_sin_[row]; }

  core::Vec3 pixel_center(std::size_t index) const;
  core::Vec3 pixel_center(std::size_t row, std::size_t az) const;

  /// Call `fn(row, az, index)` for every pixel in index order.  Whole-
  /// map loops go through here so per-row data (solid angle, centre
  /// polar angle) is read once per row rather than found by a row_of()
  /// binary search per pixel.
  template <typename Fn>
  void for_each_pixel(Fn&& fn) const {
    std::size_t index = 0;
    for (std::size_t row = 0; row < az_bins_.size(); ++row) {
      const auto bins = static_cast<std::size_t>(az_bins_[row]);
      for (std::size_t az = 0; az < bins; ++az) fn(row, az, index++);
    }
  }

  /// Solid angle [deg^2] of one pixel in `row` (all pixels of a row
  /// are congruent).
  double row_pixel_solid_angle_deg2(std::size_t row) const {
    return row_sa_deg2_[row];
  }
  double pixel_solid_angle_deg2(std::size_t index) const {
    return row_sa_deg2_[row_of(index)];
  }

  /// Pixel containing `direction`, or nullopt outside the field of
  /// view (see the boundary contract in the file comment).
  std::optional<std::size_t> pixel_of(const core::Vec3& direction) const;

 private:
  double resolution_deg_ = 0.0;
  double max_polar_deg_ = 0.0;
  int n_polar_ = 0;
  std::size_t total_ = 0;
  std::vector<int> az_bins_;
  std::vector<std::size_t> row_offset_;
  std::vector<double> row_sa_deg2_;
  std::vector<double> row_cos_;
  std::vector<double> row_sin_;
};

/// Normalize per-pixel log-posterior values into probability masses
/// with solid-angle weights (stable softmax).  Returns true on a valid
/// posterior.  Returns false on a degenerate one — no pixel with
/// finite mass, or a zero/non-finite normalization sum — in which case
/// `probability` holds the uniform solid-angle posterior (never NaN)
/// and the `loc.skymap.degenerate` telemetry counter is bumped.
/// Non-finite individual log values contribute zero mass; they poison
/// neither their neighbours nor the normalization.
bool normalize_log_posterior(const SkyGrid& grid,
                             std::span<const double> log_post,
                             std::vector<double>& probability);

/// Area of the greedy credible region shared by both posterior
/// engines: pixels are taken in decreasing `density` (equal densities
/// in increasing pixel index; a NaN density ranks below -inf), their
/// `mass` accumulated until it reaches `content`, and the summed
/// `area` of the pixels taken is returned — every pixel's when the
/// mass never reaches `content`.  The result is bit-identical to a
/// full sort by that order, but only the chosen prefix is sorted: it
/// is selected in geometrically growing chunks (nth_element, then
/// sort of the chunk), so a compact region costs O(n).
double credible_region_area(std::span<const double> density,
                            std::span<const double> mass,
                            std::span<const double> area, double content);

}  // namespace adapt::loc
