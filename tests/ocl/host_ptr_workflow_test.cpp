// End-to-end test of the paper's §III-A "bad" host-code style: malloc
// memory wrapped with CL_MEM_USE_HOST_PTR, moved with explicit
// Write/ReadBuffer copies around the kernel — functionally correct but
// paying for every copy (`malisim-fig ablation-memory-mapping` quantifies
// the cost; this test pins the semantics).
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "kir/builder.h"
#include "ocl/runtime.h"

namespace malisim::ocl {
namespace {

using kir::ArgKind;
using kir::KernelBuilder;
using kir::ScalarType;
using kir::Val;

kir::Program NegateKernel() {
  KernelBuilder kb("negate");
  auto in = kb.ArgBuffer("in", ScalarType::kF32, ArgKind::kBufferRO);
  auto out = kb.ArgBuffer("out", ScalarType::kF32, ArgKind::kBufferWO);
  Val gid = kb.GlobalId(0);
  kb.Store(out, gid, -kb.Load(in, gid));
  return *kb.Build();
}

TEST(HostPtrWorkflowTest, CopyStyleRoundTrip) {
  Context ctx;
  const std::uint64_t n = 256;
  // "Application" allocations, as plain host memory.
  std::vector<float> app_in(n), app_out(n, 0.0f);
  for (std::uint64_t i = 0; i < n; ++i) {
    app_in[i] = static_cast<float>(i) - 100.0f;
  }

  auto in = *ctx.CreateBuffer(kMemReadOnly | kMemUseHostPtr, n * 4,
                              app_in.data());
  auto out = *ctx.CreateBuffer(kMemWriteOnly | kMemUseHostPtr, n * 4,
                               app_out.data());

  // The app mutates its allocation after buffer creation: without an
  // explicit WriteBuffer the device shadow would be stale.
  app_in[0] = 999.0f;
  auto write = ctx.queue().EnqueueWriteBuffer(*in, app_in.data(), n * 4);
  ASSERT_TRUE(write.ok());
  EXPECT_GT(write->profile.dram_bytes, 0u);  // a real copy was paid for

  std::vector<kir::Program> kernels;
  kernels.push_back(NegateKernel());
  auto prog = ctx.CreateProgram(std::move(kernels));
  ASSERT_TRUE(prog->Build().ok());
  auto kernel = *ctx.CreateKernel(prog, "negate");
  ASSERT_TRUE(kernel->SetArgBuffer(0, in).ok());
  ASSERT_TRUE(kernel->SetArgBuffer(1, out).ok());
  const std::uint64_t global[1] = {n};
  ASSERT_TRUE(ctx.queue().EnqueueNDRange(*kernel, 1, global, nullptr).ok());

  // Results are NOT visible in the app allocation until ReadBuffer.
  EXPECT_EQ(app_out[0], 0.0f);
  ASSERT_TRUE(ctx.queue().EnqueueReadBuffer(*out, app_out.data(), n * 4).ok());
  EXPECT_EQ(app_out[0], -999.0f);
  for (std::uint64_t i = 1; i < n; ++i) {
    EXPECT_EQ(app_out[i], -(static_cast<float>(i) - 100.0f)) << i;
  }
}

TEST(HostPtrWorkflowTest, StaleShadowWithoutWrite) {
  // The §III-A pitfall in isolation: skipping the WriteBuffer leaves the
  // kernel reading the creation-time snapshot.
  Context ctx;
  std::vector<float> app(4, 1.0f);
  auto buf = *ctx.CreateBuffer(kMemReadOnly | kMemUseHostPtr, 16, app.data());
  app[0] = 7.0f;  // not propagated
  float shadow0;
  std::memcpy(&shadow0, buf->device_storage(), 4);
  EXPECT_EQ(shadow0, 1.0f);
}

}  // namespace
}  // namespace malisim::ocl
