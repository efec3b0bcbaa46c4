// Shape tests: the qualitative findings of the paper's §V must hold in the
// model at reduced problem sizes — who wins, which versions fail, which
// optimizations pay off. These are the invariants the reproduction is
// judged on (absolute numbers live in EXPERIMENTS.md at full sizes).
#include <map>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "harness/figures.h"

namespace malisim::harness {
namespace {

ExperimentConfig MidConfig(bool fp64) {
  // Sizes between "quick" and the defaults: big enough for the asymptotic
  // behaviours (bandwidth saturation, reuse) to show.
  ExperimentConfig config;
  config.fp64 = fp64;
  config.repetitions = 3;
  config.sizes.spmv_rows = 4096;
  config.sizes.vecop_n = 1 << 18;
  config.sizes.hist_n = 1 << 18;
  config.sizes.stencil_dim = 32;
  config.sizes.red_n = 1 << 18;
  config.sizes.amcd_chains = 128;
  config.sizes.amcd_atoms = 24;
  config.sizes.amcd_steps = 24;
  config.sizes.nbody_n = 512;
  config.sizes.conv_dim = 192;
  config.sizes.dmmm_n = 96;
  return config;
}

class PaperShapesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ExperimentRunner sp_runner(MidConfig(false));
    auto sp = sp_runner.RunAll();
    ASSERT_TRUE(sp.ok()) << sp.status().ToString();
    sp_ = new std::vector<BenchmarkResults>(*std::move(sp));
    ExperimentRunner dp_runner(MidConfig(true));
    auto dp = dp_runner.RunAll();
    ASSERT_TRUE(dp.ok()) << dp.status().ToString();
    dp_ = new std::vector<BenchmarkResults>(*std::move(dp));
  }
  static void TearDownTestSuite() {
    delete sp_;
    delete dp_;
    sp_ = nullptr;
    dp_ = nullptr;
  }

  static const BenchmarkResults& Sp(const std::string& name) {
    return Find(*sp_, name);
  }
  static const BenchmarkResults& Dp(const std::string& name) {
    return Find(*dp_, name);
  }
  static const BenchmarkResults& Find(const std::vector<BenchmarkResults>& all,
                                      const std::string& name) {
    for (const BenchmarkResults& r : all) {
      if (r.name == name) return r;
    }
    ADD_FAILURE() << "missing " << name;
    static BenchmarkResults empty;
    return empty;
  }

  static std::vector<BenchmarkResults>* sp_;
  static std::vector<BenchmarkResults>* dp_;
};

std::vector<BenchmarkResults>* PaperShapesTest::sp_ = nullptr;
std::vector<BenchmarkResults>* PaperShapesTest::dp_ = nullptr;

TEST_F(PaperShapesTest, EverythingAvailableValidates) {
  for (const auto* all : {sp_, dp_}) {
    for (const BenchmarkResults& r : *all) {
      for (hpc::Variant v : hpc::kAllVariants) {
        if (r.Get(v).available) {
          EXPECT_TRUE(r.Get(v).validated)
              << r.name << "/" << hpc::VariantName(v) << ": "
              << r.Get(v).note;
        }
      }
    }
  }
}

TEST_F(PaperShapesTest, OpenMPIsSublinearButHelps) {
  // Paper: 1.2x..1.9x on two cores.
  for (const BenchmarkResults& r : *sp_) {
    const double s = r.SpeedupVsSerial(hpc::Variant::kOpenMP);
    EXPECT_GT(s, 1.0) << r.name;
    EXPECT_LT(s, 2.01) << r.name;
  }
}

TEST_F(PaperShapesTest, OptimizedNeverSlowerThanNaiveGpu) {
  for (const auto* all : {sp_, dp_}) {
    for (const BenchmarkResults& r : *all) {
      if (!r.Get(hpc::Variant::kOpenCL).available ||
          !r.Get(hpc::Variant::kOpenCLOpt).available) {
        continue;
      }
      EXPECT_GE(r.SpeedupVsSerial(hpc::Variant::kOpenCLOpt),
                0.95 * r.SpeedupVsSerial(hpc::Variant::kOpenCL))
          << r.name;
    }
  }
}

TEST_F(PaperShapesTest, NaiveGpuPortsOfStreamingKernelsDisappoint) {
  // Paper §V-A: "porting code to OpenCL and running on the GPU, on its own,
  // does not guarantee significant performance improvement" — spmv and
  // vecop naive ports lose to (or barely beat) the OpenMP CPU version.
  for (const char* name : {"spmv", "vecop"}) {
    const BenchmarkResults& r = Sp(name);
    EXPECT_LT(r.SpeedupVsSerial(hpc::Variant::kOpenCL),
              r.SpeedupVsSerial(hpc::Variant::kOpenMP))
        << name;
  }
}

TEST_F(PaperShapesTest, ComputeBenchmarksGetBigGpuWins) {
  // Paper Fig. 2(a): nbody/2dcon/dmmm optimized reach order-of-magnitude
  // speedups.
  for (const char* name : {"nbody", "2dcon", "dmmm"}) {
    EXPECT_GT(Sp(name).SpeedupVsSerial(hpc::Variant::kOpenCLOpt), 6.0) << name;
  }
  // And spmv stays the laggard (paper: 1.25x).
  EXPECT_LT(Sp("spmv").SpeedupVsSerial(hpc::Variant::kOpenCLOpt), 2.0);
}

TEST_F(PaperShapesTest, VectorizationGapLargestForDmmmAnd2dcon) {
  // Paper §V-A: dmmm and 2dcon benefit most from the optimization stack.
  const double dmmm_gain =
      Sp("dmmm").SpeedupVsSerial(hpc::Variant::kOpenCLOpt) /
      Sp("dmmm").SpeedupVsSerial(hpc::Variant::kOpenCL);
  const double conv_gain =
      Sp("2dcon").SpeedupVsSerial(hpc::Variant::kOpenCLOpt) /
      Sp("2dcon").SpeedupVsSerial(hpc::Variant::kOpenCL);
  const double amcd_gain =
      Sp("amcd").SpeedupVsSerial(hpc::Variant::kOpenCLOpt) /
      Sp("amcd").SpeedupVsSerial(hpc::Variant::kOpenCL);
  EXPECT_GT(dmmm_gain, 2.0);
  EXPECT_GT(conv_gain, 2.0);
  // Paper: "amcd ... OpenCL Opt is only slightly faster".
  EXPECT_LT(amcd_gain, 1.5);
  EXPECT_GT(dmmm_gain, amcd_gain);
  EXPECT_GT(conv_gain, amcd_gain);
}

TEST_F(PaperShapesTest, AmcdGpuMissingInDoublePrecision) {
  const BenchmarkResults& r = Dp("amcd");
  EXPECT_TRUE(r.Get(hpc::Variant::kSerial).available);
  EXPECT_FALSE(r.Get(hpc::Variant::kOpenCL).available);
  EXPECT_FALSE(r.Get(hpc::Variant::kOpenCLOpt).available);
  EXPECT_NE(r.Get(hpc::Variant::kOpenCL).unavailable_reason.find("erratum"),
            std::string::npos);
}

TEST_F(PaperShapesTest, Fp64RegisterPressureNarrowsNbodyAndConvGaps) {
  // Paper Fig. 2(b): the optimized FP64 nbody/2dcon kernels fail with
  // CL_OUT_OF_RESOURCES and fall back, so the Opt/naive ratio shrinks
  // relative to single precision; dmmm keeps its full gap.
  auto gap = [](const BenchmarkResults& r) {
    return r.SpeedupVsSerial(hpc::Variant::kOpenCLOpt) /
           r.SpeedupVsSerial(hpc::Variant::kOpenCL);
  };
  EXPECT_LT(gap(Dp("nbody")), gap(Sp("nbody")));
  EXPECT_LT(gap(Dp("2dcon")), gap(Sp("2dcon")));
  EXPECT_NE(Dp("nbody").Get(hpc::Variant::kOpenCLOpt).note.find(
                "CL_OUT_OF_RESOURCES"),
            std::string::npos);
  EXPECT_GT(gap(Dp("dmmm")), 2.0);
}

TEST_F(PaperShapesTest, PowerVariesLittleBetweenClAndClOpt) {
  // Paper §V-D: "power consumption varies insignificantly between optimized
  // and non-optimized versions of the OpenCL benchmarks" (within ~40%
  // here; the figure shows hist/dmmm as the exceptions).
  for (const BenchmarkResults& r : *sp_) {
    if (!r.Get(hpc::Variant::kOpenCL).available ||
        !r.Get(hpc::Variant::kOpenCLOpt).available) {
      continue;
    }
    const double ratio = r.Get(hpc::Variant::kOpenCLOpt).power_mean_w /
                         r.Get(hpc::Variant::kOpenCL).power_mean_w;
    EXPECT_GT(ratio, 0.7) << r.name;
    EXPECT_LT(ratio, 1.45) << r.name;
  }
}

TEST_F(PaperShapesTest, OpenMPDrawsMorePowerThanSerial) {
  for (const BenchmarkResults& r : *sp_) {
    EXPECT_GT(r.PowerVsSerial(hpc::Variant::kOpenMP), 1.1) << r.name;
    EXPECT_LT(r.PowerVsSerial(hpc::Variant::kOpenMP), 1.6) << r.name;
  }
}

TEST_F(PaperShapesTest, OptimizedEnergyBeatsNaiveOpenCL) {
  // Paper §V-C: OpenCL Opt always beats the corresponding non-optimized
  // OpenCL version on energy. (The paper's stronger claim — Opt beats
  // *every* version for every benchmark — holds at the full problem sizes
  // used by `malisim-fig fig4`; at these reduced sizes the GPU's fixed
  // launch/dispatch overheads push the smallest memory-bound problems,
  // spmv and 3dstc, above the CPU versions.)
  for (const BenchmarkResults& r : *sp_) {
    const double opt = r.EnergyVsSerial(hpc::Variant::kOpenCLOpt);
    EXPECT_LE(opt, 1.05 * r.EnergyVsSerial(hpc::Variant::kOpenCL)) << r.name;
    if (r.name != "spmv" && r.name != "3dstc") {
      EXPECT_LT(opt, 1.0) << r.name;
      EXPECT_LE(opt, 1.10 * r.EnergyVsSerial(hpc::Variant::kOpenMP)) << r.name;
    }
  }
}

TEST_F(PaperShapesTest, HeadlineIsInPaperBallpark) {
  const Headline h = ComputeHeadline(*sp_, *dp_);
  // Paper: 8.7x at 32% energy. At reduced sizes we accept a wide band; the
  // full-size numbers in EXPERIMENTS.md land much closer.
  EXPECT_GT(h.avg_speedup, 3.0);
  EXPECT_LT(h.avg_speedup, 15.0);
  EXPECT_GT(h.avg_energy, 0.1);
  EXPECT_LT(h.avg_energy, 0.6);
}

}  // namespace
}  // namespace malisim::harness
