// Additional edge-case coverage: unit formatting extremes, histogram
// rendering, and logger levels.
#include <gtest/gtest.h>

#include "core/log.hpp"
#include "core/stats.hpp"
#include "core/units.hpp"

namespace dynmo {
namespace {

TEST(UnitsExtra, FormatRateScales) {
  EXPECT_EQ(format_rate(5.0, "tok"), "5 tok/s");
  EXPECT_EQ(format_rate(5000.0, "tok"), "5k tok/s");
  EXPECT_EQ(format_rate(5e6, "tok"), "5M tok/s");
}

TEST(UnitsExtra, FormatSecondsExtremes) {
  EXPECT_EQ(format_seconds(1e-9), "1 ns");
  EXPECT_EQ(format_seconds(2.5e-6), "2.5 us");
  EXPECT_EQ(format_seconds(120.0), "120 s");
}

TEST(UnitsExtra, ConstantsConsistent) {
  EXPECT_DOUBLE_EQ(GiB, 1024.0 * 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(TFLOPS, 1e12);
  EXPECT_DOUBLE_EQ(ms, 1e-3);
}

TEST(Histogram, RendersBinsAndCounts) {
  const std::vector<double> xs = {0, 0, 0, 1, 1, 2};
  const auto h = ascii_histogram(xs, 3, 10);
  EXPECT_NE(h.find("3"), std::string::npos);
  EXPECT_NE(h.find("#"), std::string::npos);
  EXPECT_EQ(ascii_histogram({}, 3, 10), "(empty)");
}

TEST(LoggerExtra, LevelsGate) {
  auto& logger = Logger::instance();
  const auto prev = logger.level();
  logger.set_level(LogLevel::Error);
  EXPECT_FALSE(logger.enabled(LogLevel::Info));
  EXPECT_TRUE(logger.enabled(LogLevel::Error));
  logger.set_level(LogLevel::Trace);
  EXPECT_TRUE(logger.enabled(LogLevel::Debug));
  logger.set_level(prev);
}

}  // namespace
}  // namespace dynmo
