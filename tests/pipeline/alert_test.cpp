#include "pipeline/alert.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <vector>

#include "core/units.hpp"
#include "sim/exposure.hpp"

namespace adapt::pipeline {
namespace {

class AlertTest : public ::testing::Test {
 protected:
  AlertTest()
      : geometry_(detector::GeometryConfig{}),
        simulator_(geometry_, detector::Material::csi()) {}

  /// A calibrated pipeline (background rate learned from a quiet
  /// window), ready to process burst windows.
  AlertPipeline calibrated_pipeline(core::Rng& rng,
                                    const AlertConfig& config = {}) {
    AlertPipeline pipeline(config);
    const auto quiet =
        simulator_.simulate_background_only(sim::BackgroundConfig{}, rng);
    pipeline.calibrate_background(quiet.events, 1.0);
    return pipeline;
  }

  detector::Geometry geometry_;
  sim::ExposureSimulator simulator_;
};

TEST_F(AlertTest, QuietWindowIssuesNoAlert) {
  core::Rng rng(1);
  AlertPipeline pipeline = calibrated_pipeline(rng);
  const auto quiet =
      simulator_.simulate_background_only(sim::BackgroundConfig{}, rng);
  const Alert alert =
      pipeline.process_window(quiet.events, 1.0, nullptr, nullptr, rng);
  EXPECT_FALSE(alert.issued);
  EXPECT_FALSE(alert.detection.triggered);
  EXPECT_FALSE(alert.sky_map.has_value());
}

TEST_F(AlertTest, BrightBurstProducesAccurateAlert) {
  core::Rng rng(2);
  AlertPipeline pipeline = calibrated_pipeline(rng);
  sim::GrbConfig grb;
  grb.fluence = 1.0;
  grb.polar_deg = 30.0;
  const auto burst = simulator_.simulate(grb, sim::BackgroundConfig{}, rng);

  const Alert alert =
      pipeline.process_window(burst.events, 1.0, nullptr, nullptr, rng);
  ASSERT_TRUE(alert.issued);
  EXPECT_GT(alert.detection.significance_sigma, 10.0);
  EXPECT_GT(alert.rings_total, 50u);
  ASSERT_TRUE(alert.sky_map.has_value());
  EXPECT_GT(alert.credible_radius_deg, 0.0);
  EXPECT_LT(alert.credible_radius_deg, 10.0);

  const double err = core::rad_to_deg(core::angle_between(
      alert.direction, burst.true_source_direction));
  EXPECT_LT(err, 5.0);
  EXPECT_NEAR(alert.polar_deg, 30.0, 5.0);
}

TEST_F(AlertTest, SelectionWindowCoversThePulse) {
  core::Rng rng(3);
  AlertPipeline pipeline = calibrated_pipeline(rng);
  sim::GrbConfig grb;  // Pulse onset 0.2 s, decay 0.15 s.
  const auto burst = simulator_.simulate(grb, sim::BackgroundConfig{}, rng);
  const Alert alert =
      pipeline.process_window(burst.events, 1.0, nullptr, nullptr, rng);
  ASSERT_TRUE(alert.issued);
  // The trigger window must overlap the simulated pulse, and the
  // selection must include a meaningful fraction of the window.
  EXPECT_LT(alert.detection.t_start, 0.6);
  EXPECT_GT(alert.detection.t_end, 0.2);
  EXPECT_GT(alert.events_selected, 1000u);
  EXPECT_LT(alert.events_selected, burst.events.size());
}

TEST_F(AlertTest, MinRingsGateWithholdsAlert) {
  core::Rng rng(4);
  AlertConfig config;
  config.min_rings = 100000;  // Impossible bar.
  AlertPipeline pipeline = calibrated_pipeline(rng, config);
  const auto burst =
      simulator_.simulate(sim::GrbConfig{}, sim::BackgroundConfig{}, rng);
  const Alert alert =
      pipeline.process_window(burst.events, 1.0, nullptr, nullptr, rng);
  EXPECT_TRUE(alert.detection.triggered);
  EXPECT_FALSE(alert.issued);
}

TEST_F(AlertTest, CalibrationUpdatesRate) {
  AlertPipeline pipeline{AlertConfig{}};
  const double before = pipeline.background_rate_hz();
  core::Rng rng(5);
  const auto quiet =
      simulator_.simulate_background_only(sim::BackgroundConfig{}, rng);
  pipeline.calibrate_background(quiet.events, 1.0);
  EXPECT_NE(pipeline.background_rate_hz(), before);
  EXPECT_GT(pipeline.background_rate_hz(), 1000.0);
}

TEST_F(AlertTest, RejectsBadConfig) {
  AlertConfig config;
  config.credible_content = 1.0;
  EXPECT_THROW(AlertPipeline{config}, std::invalid_argument);
  config = AlertConfig{};
  config.pre_margin_s = -1.0;
  EXPECT_THROW(AlertPipeline{config}, std::invalid_argument);
}

long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

// A window's transient buffers, freed at its end, must be reused by the
// next window rather than returned to the kernel and faulted in again
// (which made window latency depend on the allocator's history).  With
// glibc's dynamic thresholds, four 6 MiB buffers freed together exceed
// the trim threshold the first window set, and every window re-faults
// them.
TEST(AlertPipelineHeap, WindowBuffersStayOnTheHeap) {
#if !defined(__GLIBC__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the thresholds are glibc malloc's";
#else
  const AlertPipeline pipeline;
  constexpr std::size_t kBytes = std::size_t{6} << 20;
  long faults = 0;
  for (int window = 0; window < 3; ++window) {
    const long before = minor_faults();
    std::vector<std::vector<char>> buffers;
    for (int i = 0; i < 4; ++i) buffers.emplace_back(kBytes, 1);
    faults = minor_faults() - before;
  }
  // Fresh pages cost one fault each (4 * kBytes / 4096 = 6144).
  EXPECT_LT(faults, 256);
#endif
}

}  // namespace
}  // namespace adapt::pipeline
