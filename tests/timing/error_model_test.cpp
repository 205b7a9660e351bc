#include "timing/error_model.hpp"

#include <gtest/gtest.h>

#include "timing/eds.hpp"

namespace tmemo {
namespace {

TEST(NoErrorModel, AlwaysZero) {
  const NoErrorModel m;
  for (FpuType u : kAllFpuTypes) {
    EXPECT_EQ(m.op_error_probability(u), 0.0);
    EdsSensorBank bank(u, 1);
    for (int i = 0; i < 100; ++i) EXPECT_FALSE(bank.observe(m).error);
  }
}

TEST(FixedRateErrorModel, ValidatesRate) {
  EXPECT_THROW(FixedRateErrorModel(-0.1), std::invalid_argument);
  EXPECT_THROW(FixedRateErrorModel(1.1), std::invalid_argument);
  EXPECT_NO_THROW(FixedRateErrorModel(0.0));
  EXPECT_NO_THROW(FixedRateErrorModel(1.0));
}

TEST(FixedRateErrorModel, UniformAcrossUnits) {
  const FixedRateErrorModel m(0.04);
  for (FpuType u : kAllFpuTypes) {
    EXPECT_EQ(m.op_error_probability(u), 0.04);
  }
}

TEST(FixedRateErrorModel, SampledRateMatchesConfigured) {
  const FixedRateErrorModel m(0.04);
  EdsSensorBank bank(FpuType::kAdd, 7);
  const int n = 200000;
  int errors = 0;
  for (int i = 0; i < n; ++i) {
    errors += bank.observe(m).error ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(errors) / n, 0.04, 0.004);
}

TEST(VoltageErrorModel, DeeperUnitsErrMore) {
  const VoltageErrorModel m(VoltageScaling{}, 0.81);
  // RECIP (16 stages) must see a strictly higher per-op error rate than
  // the 4-stage units at the same supply.
  EXPECT_GT(m.op_error_probability(FpuType::kRecip),
            m.op_error_probability(FpuType::kAdd));
  EXPECT_EQ(m.op_error_probability(FpuType::kAdd),
            m.op_error_probability(FpuType::kMulAdd));
}

TEST(VoltageErrorModel, NominalSupplyIsErrorFree) {
  const VoltageErrorModel m(VoltageScaling{}, 0.90);
  for (FpuType u : kAllFpuTypes) {
    EXPECT_LT(m.op_error_probability(u), 1e-6) << fpu_type_name(u);
  }
}

TEST(VoltageErrorModel, RejectsSubThresholdSupply) {
  EXPECT_THROW(VoltageErrorModel(VoltageScaling{}, 0.2),
               std::invalid_argument);
}

TEST(EdsSensorBank, NoErrorMeansNoObservation) {
  EdsSensorBank eds(FpuType::kAdd, 1);
  const NoErrorModel none;
  for (int i = 0; i < 100; ++i) {
    const EdsObservation obs = eds.observe(none);
    EXPECT_FALSE(obs.error);
    EXPECT_EQ(obs.errant_stage, -1);
    EXPECT_EQ(obs.propagation_cycles, 0);
  }
}

TEST(EdsSensorBank, ErrantStageWithinPipeline) {
  EdsSensorBank eds(FpuType::kRecip, 2);
  const FixedRateErrorModel always(1.0);
  bool saw_early = false, saw_late = false;
  for (int i = 0; i < 500; ++i) {
    const EdsObservation obs = eds.observe(always);
    ASSERT_TRUE(obs.error);
    ASSERT_GE(obs.errant_stage, 0);
    ASSERT_LT(obs.errant_stage, 16);
    ASSERT_EQ(obs.propagation_cycles, 16 - 1 - obs.errant_stage);
    saw_early = saw_early || obs.errant_stage < 4;
    saw_late = saw_late || obs.errant_stage >= 12;
  }
  // The errant stage is drawn uniformly: both ends must occur.
  EXPECT_TRUE(saw_early);
  EXPECT_TRUE(saw_late);
}

TEST(EdsSensorBank, ReseedReproducesStream) {
  EdsSensorBank eds(FpuType::kAdd, 42);
  const FixedRateErrorModel m(0.3);
  std::vector<bool> first;
  for (int i = 0; i < 200; ++i) first.push_back(eds.observe(m).error);
  eds.reseed(42);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(eds.observe(m).error, first[static_cast<std::size_t>(i)]);
  }
}

} // namespace
} // namespace tmemo
