#include "pipeline/alert.hpp"

#include <algorithm>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/require.hpp"
#include "core/units.hpp"

namespace adapt::pipeline {

namespace {

/// Fixes glibc malloc's mmap and trim thresholds, once per process.
/// Left dynamic, both follow the allocation history, and a window's
/// transient buffers (selected events, rings, network activations,
/// the sky map: several MiB) were in some processes released to the
/// kernel at the end of every window and faulted in again by the next
/// one (~1300 page faults per window), so the same windows ran 10-20%
/// slower in one process than in another.  The values are where
/// glibc's dynamic rule itself ends on 64-bit (mmap above 32 MiB, trim
/// past twice that); fixed, they keep window-sized buffers on the heap
/// for reuse.
void pin_heap_thresholds() {
#if defined(__GLIBC__)
  static const bool pinned = [] {
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);
    return true;
  }();
  (void)pinned;
#endif
}

}  // namespace

AlertPipeline::AlertPipeline(const AlertConfig& config)
    : config_(config), background_rate_hz_(config.trigger.background_rate_hz) {
  pin_heap_thresholds();
  ADAPT_REQUIRE(config.pre_margin_s >= 0.0 && config.post_margin_s >= 0.0,
                "selection margins must be >= 0");
  ADAPT_REQUIRE(config.credible_content > 0.0 &&
                    config.credible_content < 1.0,
                "credible content in (0, 1)");
}

void AlertPipeline::calibrate_background(
    std::span<const detector::MeasuredEvent> events, double exposure_s) {
  background_rate_hz_ =
      trigger::RateTrigger::estimate_background_rate(events, exposure_s);
}

Alert AlertPipeline::process_window(
    std::span<const detector::MeasuredEvent> events, double exposure_s,
    BackgroundNet* background_net, DEtaNet* deta_net,
    core::Rng& rng) const {
  Alert alert;

  // --- Detection -----------------------------------------------------
  trigger::TriggerConfig trigger_config = config_.trigger;
  trigger_config.background_rate_hz = background_rate_hz_;
  const trigger::RateTrigger rate_trigger(trigger_config);
  alert.detection = rate_trigger.scan(events, exposure_s);
  if (!alert.detection.triggered) return alert;

  // --- Event selection -------------------------------------------------
  const double t_lo = alert.detection.t_start - config_.pre_margin_s;
  const double t_hi = alert.detection.t_end + config_.post_margin_s;
  std::vector<detector::MeasuredEvent> selected;
  for (const auto& event : events) {
    if (event.time_s >= t_lo && event.time_s < t_hi)
      selected.push_back(event);
  }
  alert.events_selected = selected.size();

  // --- Reconstruction ----------------------------------------------------
  const recon::EventReconstructor reconstructor(config_.material,
                                                config_.reconstruction);
  const auto rings = reconstructor.reconstruct_all(selected);
  alert.rings_total = rings.size();
  if (rings.size() < config_.min_rings) return alert;

  // --- Localization (Fig. 6) ----------------------------------------------
  const MlLocalizer localizer(config_.localizer);
  const MlLocalizationResult result =
      localizer.run(rings, background_net, deta_net, rng);
  if (!result.valid) return alert;

  // --- Alert product ---------------------------------------------------
  alert.issued = true;
  alert.direction = result.direction;
  alert.polar_deg = core::rad_to_deg(core::polar_of(result.direction));
  alert.azimuth_deg = core::rad_to_deg(core::azimuth_of(result.direction));
  alert.rings_kept = result.rings_kept;
  alert.rejection_iterations = result.background_iterations;
  alert.sky_map = loc::SkyMap::compute(rings, config_.skymap);
  alert.credible_radius_deg =
      alert.sky_map->credible_radius_deg(config_.credible_content);
  return alert;
}

}  // namespace adapt::pipeline
