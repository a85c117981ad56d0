#pragma once

/// \file alert.hpp
/// The complete on-board alert pipeline, packaged as a library API:
/// detection (multi-timescale rate trigger) -> event selection around
/// the triggered window -> Compton-ring reconstruction -> ML-in-the-
/// loop localization (paper Fig. 6) -> posterior sky map with a
/// credible radius.  This is what a GCN-style alert broadcast needs;
/// examples/burst_alert.cpp drives it end to end.
///
/// Flight usage: calibrate_background() keeps the running background
/// rate up to date from quiet windows; process_window() turns each
/// exposure window into (at most) one Alert.

#include <optional>
#include <span>

#include "core/rng.hpp"
#include "detector/hit.hpp"
#include "detector/material.hpp"
#include "loc/skymap.hpp"
#include "pipeline/ml_localizer.hpp"
#include "recon/event_reconstruction.hpp"
#include "trigger/rate_trigger.hpp"

namespace adapt::pipeline {

struct AlertConfig {
  trigger::TriggerConfig trigger;
  double pre_margin_s = 0.05;   ///< Event selection before the window.
  double post_margin_s = 0.25;  ///< ...and after (pulse tail).
  detector::Material material = detector::Material::csi();
  recon::ReconstructionConfig reconstruction;
  MlLocalizerConfig localizer;
  loc::SkyMapConfig skymap;
  double credible_content = 0.9;  ///< Error-circle probability mass.
  std::size_t min_rings = 10;     ///< Withhold alerts below this.
};

/// The broadcast payload (plus bookkeeping for diagnostics).
struct Alert {
  bool issued = false;             ///< False: no trigger or too few rings.
  trigger::TriggerResult detection;
  core::Vec3 direction;            ///< Best-fit source direction.
  double polar_deg = 0.0;
  double azimuth_deg = 0.0;
  double credible_radius_deg = 0.0;
  std::size_t events_selected = 0;
  std::size_t rings_total = 0;
  std::size_t rings_kept = 0;
  int rejection_iterations = 0;
  std::optional<loc::SkyMap> sky_map;  ///< Present when issued.
};

class AlertPipeline {
 public:
  /// The first pipeline of a process also fixes the glibc allocator's
  /// mmap/trim thresholds, so window after window reuses the same heap
  /// instead of returning and re-faulting it (see alert.cpp).
  explicit AlertPipeline(const AlertConfig& config = {});

  /// Update the running background-rate estimate from a burst-free
  /// window (flight software calls this continuously).
  void calibrate_background(
      std::span<const detector::MeasuredEvent> events, double exposure_s);

  double background_rate_hz() const { return background_rate_hz_; }

  /// Process one exposure window: returns an un-issued Alert when the
  /// trigger stays quiet or localization is impossible.  Either
  /// network may be null (per MlLocalizer semantics).
  Alert process_window(std::span<const detector::MeasuredEvent> events,
                       double exposure_s, BackgroundNet* background_net,
                       DEtaNet* deta_net, core::Rng& rng) const;

  const AlertConfig& config() const { return config_; }

 private:
  AlertConfig config_;
  double background_rate_hz_;
};

}  // namespace adapt::pipeline
