// Tests for the one tolerance policy (support/tolerance.hpp), in particular
// how infinities compare: +inf is approximately equal only to +inf, so an
// s_min or Delta_R of +inf never passes as "within tolerance" of a finite
// budget.
#include "support/tolerance.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace rbs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(ToleranceTest, InfinityIsNotNearAnyFiniteValue) {
  EXPECT_FALSE(approx_le(kInf, 2.0, kSpeedTol));
  EXPECT_FALSE(approx_eq(kInf, 1e300, kTimeTol));
  EXPECT_FALSE(approx_le(-1e300, -kInf, kTimeTol));
  EXPECT_TRUE(definitely_gt(kInf, 100.0, kTimeTol));
  EXPECT_TRUE(definitely_lt(2.0, kInf, kStrictTol));
  EXPECT_TRUE(definitely_lt(-kInf, 0.0, kSpeedTol));
  EXPECT_FALSE(approx_zero(kInf));
}

TEST(ToleranceTest, InfinitiesEqualOnlyThemselves) {
  EXPECT_TRUE(approx_eq(kInf, kInf));
  EXPECT_TRUE(approx_eq(-kInf, -kInf));
  EXPECT_FALSE(approx_eq(kInf, -kInf));
  EXPECT_FALSE(definitely_lt(kInf, kInf));
  EXPECT_FALSE(definitely_gt(kInf, kInf));
  // An infinite budget admits every non-NaN value, +inf included.
  for (const double x : {-kInf, -1.0, 0.0, 2.0, 1e300, kInf}) {
    EXPECT_TRUE(approx_le(x, kInf, kTimeTol)) << x;
    EXPECT_TRUE(approx_le(x, kInf, kSpeedTol)) << x;
  }
}

TEST(ToleranceTest, NaNEqualsNothing) {
  for (const double x : {0.0, 1.0, kInf, -kInf, kNaN}) {
    EXPECT_FALSE(approx_eq(kNaN, x)) << x;
    EXPECT_FALSE(approx_eq(x, kNaN)) << x;
    EXPECT_FALSE(approx_le(kNaN, x)) << x;
    EXPECT_FALSE(approx_le(x, kNaN)) << x;
    EXPECT_FALSE(definitely_lt(kNaN, x)) << x;
    EXPECT_FALSE(definitely_gt(x, kNaN)) << x;
  }
}

TEST(ToleranceTest, FiniteValuesKeepTheMixedAbsoluteRelativeTest) {
  EXPECT_TRUE(approx_eq(1.0, 1.0 + 1e-10, kSpeedTol));
  EXPECT_FALSE(approx_eq(1.0, 1.0 + 1e-8, kSpeedTol));
  EXPECT_TRUE(approx_le(1.0 + 1e-10, 1.0, kSpeedTol));
  EXPECT_TRUE(approx_eq(0.0, 5e-7, kTimeTol));        // absolute floor
  EXPECT_TRUE(approx_eq(1e6, 1e6 + 5e-4, kTimeTol));  // relative term
  EXPECT_FALSE(approx_eq(1e6, 1e6 + 5e-3, kTimeTol));
  EXPECT_TRUE(definitely_lt(1.0, 1.0 + 1e-8, kSpeedTol));
  EXPECT_FALSE(definitely_lt(1.0, 1.0 + 1e-10, kSpeedTol));
}

}  // namespace
}  // namespace rbs
