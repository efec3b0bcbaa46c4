// The eight ablations of the paper's §III optimization techniques
// (DESIGN.md §5, A1-A8). Each runs its kernels through RunLaunch, one fresh
// tinycl context per launch, and prints a table plus the paper's
// expectation.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/table.h"
#include "kir/builder.h"
#include "ocl/runtime.h"

namespace malisim::bench {
namespace {

using BufferList = std::vector<std::shared_ptr<ocl::Buffer>>;

struct BufferSpec {
  std::uint64_t bytes = 0;
  std::uint32_t flags = ocl::kMemReadWrite | ocl::kMemAllocHostPtr;
  void* host = nullptr;
};

/// A kernel argument: a buffer by allocation index, or an i32 scalar.
struct Arg {
  int buffer = -1;
  std::int32_t value = 0;
};
Arg Buf(int index) { return {index, 0}; }
Arg I32(std::uint64_t value) { return {-1, static_cast<std::int32_t>(value)}; }

/// One kernel launch. Buffers are allocated in order on a fresh context,
/// so their sizes and order fix the simulated addresses the cache model
/// sees; `args` bind to slots 0, 1, ... in order.
struct Launch {
  std::vector<BufferSpec> buffers;
  std::vector<Arg> args;
  std::vector<std::uint64_t> global;
  std::vector<std::uint64_t> local;  // empty = the driver's pick (NULL)
  /// Host-side transfers around the build and the kernel (A1).
  std::function<void(ocl::Context&, const BufferList&)> before_build = {};
  std::function<void(ocl::Context&, const BufferList&)> after_launch = {};
};

/// Creates a context, allocates, builds `source`, binds, enqueues and
/// returns the kernel's event.
ocl::Event RunLaunch(const kir::Program& source, const Launch& launch) {
  ocl::Context ctx;
  BufferList buffers;
  for (const BufferSpec& spec : launch.buffers) {
    auto buffer = ctx.CreateBuffer(spec.flags, spec.bytes, spec.host);
    MALI_CHECK(buffer.ok());
    buffers.push_back(*buffer);
  }
  if (launch.before_build) launch.before_build(ctx, buffers);
  std::vector<kir::Program> kernels;
  kernels.push_back(source);
  auto prog = ctx.CreateProgram(std::move(kernels));
  MALI_CHECK(prog->Build().ok());
  auto kernel = ctx.CreateKernel(prog, source.name);
  MALI_CHECK(kernel.ok());
  for (std::uint32_t slot = 0; slot < launch.args.size(); ++slot) {
    const Arg& arg = launch.args[slot];
    MALI_CHECK((arg.buffer >= 0
                    ? (*kernel)->SetArgBuffer(
                          slot, buffers[static_cast<std::size_t>(arg.buffer)])
                    : (*kernel)->SetArgI32(slot, arg.value))
                   .ok());
  }
  auto event = ctx.queue().EnqueueNDRange(
      **kernel, static_cast<std::uint32_t>(launch.global.size()),
      launch.global.data(),
      launch.local.empty() ? nullptr : launch.local.data());
  MALI_CHECK(event.ok());
  if (launch.after_launch) launch.after_launch(ctx, buffers);
  return std::move(*event);
}

double LaunchMs(const kir::Program& source, const Launch& launch) {
  return RunLaunch(source, launch).seconds * 1e3;
}

// --- A1: §III-A "Memory allocation and mapping" ---------------------------
// On the Mali's unified memory, CL_MEM_ALLOC_HOST_PTR buffers accessed via
// clEnqueueMapBuffer/Unmap avoid all copies; wrapping malloc memory with
// CL_MEM_USE_HOST_PTR forces clEnqueueWrite/ReadBuffer. The same
// element-wise kernel runs under both host-code styles.

kir::Program ScaleKernel() {
  kir::KernelBuilder kb("scale");
  auto in = kb.ArgBuffer("in", kir::ScalarType::kF32, kir::ArgKind::kBufferRO);
  auto out = kb.ArgBuffer("out", kir::ScalarType::kF32, kir::ArgKind::kBufferWO);
  kir::Val gid = kb.GlobalId(0);
  kb.Store(out, gid, kb.Load(in, gid) * 2.0);
  return *kb.Build();
}

struct TransferResult {
  double transfer_in_sec = 0;
  double kernel_sec = 0;
  double transfer_out_sec = 0;
  double total() const { return transfer_in_sec + kernel_sec + transfer_out_sec; }
};

TransferResult RunCopyStyle(std::uint64_t n) {
  std::vector<float> host_in(n, 1.0f), host_out(n, 0.0f);
  const std::uint64_t bytes = n * 4;
  TransferResult r;
  // malloc-backed buffers: the GPU cannot address them, the driver keeps a
  // shadow and the app must copy explicitly.
  Launch launch{
      .buffers = {{bytes, ocl::kMemReadOnly | ocl::kMemUseHostPtr,
                   host_in.data()},
                  {bytes, ocl::kMemWriteOnly | ocl::kMemUseHostPtr,
                   host_out.data()}},
      .args = {Buf(0), Buf(1)},
      .global = {n},
      .local = {128}};
  launch.before_build = [&](ocl::Context& ctx, const BufferList& bufs) {
    auto write =
        ctx.queue().EnqueueWriteBuffer(*bufs[0], host_in.data(), bytes);
    MALI_CHECK(write.ok());
    r.transfer_in_sec = write->seconds;
  };
  launch.after_launch = [&](ocl::Context& ctx, const BufferList& bufs) {
    auto read =
        ctx.queue().EnqueueReadBuffer(*bufs[1], host_out.data(), bytes);
    MALI_CHECK(read.ok());
    r.transfer_out_sec = read->seconds;
  };
  r.kernel_sec = RunLaunch(ScaleKernel(), launch).seconds;
  return r;
}

TransferResult RunMapStyle(std::uint64_t n) {
  const std::uint64_t bytes = n * 4;
  TransferResult r;
  Launch launch{
      .buffers = {{bytes, ocl::kMemReadOnly | ocl::kMemAllocHostPtr},
                  {bytes, ocl::kMemWriteOnly | ocl::kMemAllocHostPtr}},
      .args = {Buf(0), Buf(1)},
      .global = {n},
      .local = {128}};
  launch.before_build = [&](ocl::Context& ctx, const BufferList& bufs) {
    ocl::Event map_event;
    auto mapped = ctx.queue().MapBuffer(*bufs[0], &map_event);
    MALI_CHECK(mapped.ok());
    for (std::uint64_t i = 0; i < n; ++i) static_cast<float*>(*mapped)[i] = 1.0f;
    MALI_CHECK(ctx.queue().UnmapBuffer(*bufs[0], *mapped).ok());
    r.transfer_in_sec = map_event.seconds;  // cache maintenance only
  };
  launch.after_launch = [&](ocl::Context& ctx, const BufferList& bufs) {
    ocl::Event unmap_event;
    auto mapped_out = ctx.queue().MapBuffer(*bufs[1], &unmap_event);
    MALI_CHECK(mapped_out.ok());
    MALI_CHECK(ctx.queue().UnmapBuffer(*bufs[1], *mapped_out).ok());
    r.transfer_out_sec = unmap_event.seconds;
  };
  r.kernel_sec = RunLaunch(ScaleKernel(), launch).seconds;
  return r;
}

// --- A2: §III-A "Load distribution": work-group size sweep ----------------
// Letting the driver pick the local size (local = NULL) is risky: "we
// noticed some performance degradation and we strongly suggest to manually
// tune the local work size parameter". The sweep runs a compute kernel and
// a stream kernel and ends with the driver's pick.

kir::Program ComputeKernel() {
  // Per-item polynomial loop: arithmetic-pipe bound.
  kir::KernelBuilder kb("poly");
  auto out = kb.ArgBuffer("out", kir::ScalarType::kF32, kir::ArgKind::kBufferWO);
  kir::Val gid = kb.GlobalId(0);
  kir::Val x = kb.Convert(gid, kir::ScalarType::kF32) * 1e-4;
  kir::Val acc = kb.Var(kir::F32(), "acc");
  kb.Assign(acc, x);
  kb.For("i", kb.ConstI(kir::I32(), 0), kb.ConstI(kir::I32(), 32), 1,
         [&](kir::Val) { kb.Assign(acc, kb.Fma(acc, x, x)); });
  kb.Store(out, gid, acc);
  return *kb.Build();
}

kir::Program StreamKernel() {
  kir::KernelBuilder kb("stream");
  auto in = kb.ArgBuffer("in", kir::ScalarType::kF32, kir::ArgKind::kBufferRO);
  auto out = kb.ArgBuffer("out", kir::ScalarType::kF32, kir::ArgKind::kBufferWO);
  kir::Val gid = kb.GlobalId(0);
  kb.Store(out, gid, kb.Load(in, gid) + 1.0);
  return *kb.Build();
}

// --- A3: §III-B "Vectorization" and "Vector Sizes" ------------------------
// "The best achievable performance is not bound to a particular vector
// size": wider types can improve scheduling but raise register pressure
// (lower occupancy). An element-wise multiply-add and a dot-product-style
// reduction run at widths 1/2/4/8/16.

kir::Program AxpyKernel(std::uint8_t lanes) {
  kir::KernelBuilder kb("axpy_v" + std::to_string(lanes));
  auto x = kb.ArgBuffer("x", kir::ScalarType::kF32, kir::ArgKind::kBufferRO,
                        true, true);
  auto y = kb.ArgBuffer("y", kir::ScalarType::kF32, kir::ArgKind::kBufferRW,
                        true, false);
  kir::Val gid = kb.GlobalId(0);
  kir::Val base =
      kb.Binary(kir::Opcode::kMul, gid, kb.ConstI(kir::I32(), lanes));
  kir::Val a = kb.ConstF(kir::F32(lanes), 1.5);
  kir::Val xv = kb.Load(x, base, 0, lanes);
  kir::Val yv = kb.Load(y, base, 0, lanes);
  kb.Store(y, base, kb.Fma(a, xv, yv));
  return *kb.Build();
}

/// Wide-accumulator dot-product chunk per work-item: register pressure
/// grows with the width (several live vectors).
kir::Program DotKernel(std::uint8_t lanes) {
  kir::KernelBuilder kb("dot_v" + std::to_string(lanes));
  auto x = kb.ArgBuffer("x", kir::ScalarType::kF32, kir::ArgKind::kBufferRO,
                        true, true);
  auto y = kb.ArgBuffer("y", kir::ScalarType::kF32, kir::ArgKind::kBufferRO,
                        true, true);
  auto out = kb.ArgBuffer("out", kir::ScalarType::kF32, kir::ArgKind::kBufferWO,
                          true, false);
  kir::Val n = kb.ArgScalar("n", kir::ScalarType::kI32);
  kir::Val gid = kb.GlobalId(0);
  kir::Val threads = kb.GlobalSize(0);
  kir::Val chunk = kb.Binary(kir::Opcode::kIDiv, n, threads);
  kir::Val start = kb.Binary(kir::Opcode::kMul, gid, chunk);
  kir::Val end = kb.Binary(kir::Opcode::kAdd, start, chunk);
  // Two accumulators of the sweep width, software-pipelined by 2.
  kir::Val acc0 = kb.Var(kir::F32(lanes), "acc0");
  kir::Val acc1 = kb.Var(kir::F32(lanes), "acc1");
  kb.Assign(acc0, kb.ConstF(kir::F32(lanes), 0.0));
  kb.Assign(acc1, kb.ConstF(kir::F32(lanes), 0.0));
  kb.For("i", start, end, 2 * lanes, [&](kir::Val i) {
    kir::Val i2 = kb.Binary(kir::Opcode::kAdd, i, kb.ConstI(kir::I32(), lanes));
    kb.Assign(acc0, kb.Fma(kb.Load(x, i, 0, lanes), kb.Load(y, i, 0, lanes), acc0));
    kb.Assign(acc1, kb.Fma(kb.Load(x, i2, 0, lanes), kb.Load(y, i2, 0, lanes), acc1));
  });
  kb.Store(out, gid, kb.VSum(acc0 + acc1));
  return *kb.Build();
}

// --- A4: §III-B "Loop Unrolling" ------------------------------------------
// Unrolling helps "on relatively long loops", but a trip count that is not
// a multiple of the factor pays for "the correct handling of the last
// iterations", and "code replication can also lead to performance
// degradation". The sweep covers a trip count that divides evenly and one
// that leaves a remainder.

kir::Program PolyKernel(int unroll, std::int64_t trip) {
  // Horner-style polynomial evaluation: one fma per iteration, no loads —
  // the loop-control overhead is the whole story, which is what unrolling
  // removes. (A load-heavy loop is LS-pipe bound and unrolling is moot.)
  kir::KernelBuilder kb("poly_u" + std::to_string(unroll) + "_t" +
                        std::to_string(trip));
  auto x = kb.ArgBuffer("x", kir::ScalarType::kF32, kir::ArgKind::kBufferRO,
                        true, true);
  auto out = kb.ArgBuffer("out", kir::ScalarType::kF32,
                          kir::ArgKind::kBufferWO, true, false);
  kir::Val gid = kb.GlobalId(0);
  kir::Val xv = kb.Load(x, gid);
  kir::Val c = kb.ConstF(kir::F32(), 0.9999);
  kir::Val acc = kb.Var(kir::F32(), "acc");
  kb.Assign(acc, xv);
  auto body = [&](kir::Val) { kb.Assign(acc, kb.Fma(acc, c, xv)); };
  kir::Val zero = kb.ConstI(kir::I32(), 0);
  kir::Val end = kb.ConstI(kir::I32(), trip);
  if (unroll > 1) {
    kb.ForUnrolled("i", zero, end, 1, unroll, body);
  } else {
    kb.For("i", zero, end, 1, body);
  }
  kb.Store(out, gid, acc);
  return *kb.Build();
}

// --- A5: §III-B "Directives and Type Qualifiers" --------------------------
// "The use of the const keyword allows the compiler to make more
// assumptions", and restrict lets it "assume that pointers point to
// different locations". The model grants the kernel compiler a scheduling
// bonus when the aliasing/constness guarantees are present.

/// The vector matrix multiply (the paper's dmmm Opt shape): four outputs
/// per work-item with a float4 accumulator, straight from global memory.
/// A5 varies its qualifiers; A8 runs it as the Mali idiom.
kir::Program Vec4MatMul(const std::string& name, bool use_restrict,
                        bool use_const) {
  kir::KernelBuilder kb(name);
  auto a = kb.ArgBuffer("a", kir::ScalarType::kF32, kir::ArgKind::kBufferRO,
                        use_restrict, use_const);
  auto b = kb.ArgBuffer("b", kir::ScalarType::kF32, kir::ArgKind::kBufferRO,
                        use_restrict, use_const);
  auto c = kb.ArgBuffer("c", kir::ScalarType::kF32, kir::ArgKind::kBufferWO,
                        use_restrict, false);
  kir::Val n = kb.ArgScalar("n", kir::ScalarType::kI32);
  kir::Val i = kb.GlobalId(1);
  kir::Val j4 = kb.Binary(kir::Opcode::kMul, kb.GlobalId(0),
                          kb.ConstI(kir::I32(), 4));
  kir::Val row = kb.Binary(kir::Opcode::kMul, i, n);
  kir::Val acc = kb.Var(kir::F32(4), "acc");
  kb.Assign(acc, kb.ConstF(kir::F32(4), 0.0));
  kb.For("k", kb.ConstI(kir::I32(), 0), n, 1, [&](kir::Val k) {
    kir::Val av = kb.Splat(kb.Load(a, kb.Binary(kir::Opcode::kAdd, row, k)), 4);
    kir::Val bv = kb.Load(
        b, kb.Binary(kir::Opcode::kAdd, kb.Binary(kir::Opcode::kMul, k, n), j4),
        0, 4);
    kb.Assign(acc, kb.Fma(av, bv, acc));
  });
  kb.Store(c, kb.Binary(kir::Opcode::kAdd, row, j4), acc);
  return *kb.Build();
}

kir::Program MatMulKernel(bool use_restrict, bool use_const) {
  std::string name = "dmmm";
  if (use_restrict) name += "_restrict";
  if (use_const) name += "_const";
  return Vec4MatMul(name, use_restrict, use_const);
}

// --- A6: §III-B "Data Organization": AOS vs SOA ---------------------------
// AOS "executes poorly in vector register"; SOA "would facilitate the
// application of vector instructions" (and nbody's optimized version gained
// little because it kept AOS). Per-point magnitudes of 3D vectors run as
// scalar AOS, vectorized AOS (vload4 + lane transpose — the gather tax) and
// vectorized SOA (three clean vload4s).

/// out[i] = rsqrt(x_i^2 + y_i^2 + z_i^2 + eps), points in AOS [x,y,z,w].
kir::Program AosScalar() {
  kir::KernelBuilder kb("aos_scalar");
  auto pts = kb.ArgBuffer("pts", kir::ScalarType::kF32, kir::ArgKind::kBufferRO,
                          true, true);
  auto out = kb.ArgBuffer("out", kir::ScalarType::kF32, kir::ArgKind::kBufferWO,
                          true, false);
  kir::Val gid = kb.GlobalId(0);
  kir::Val base = kb.Binary(kir::Opcode::kMul, gid, kb.ConstI(kir::I32(), 4));
  kir::Val x = kb.Load(pts, base, 0);
  kir::Val y = kb.Load(pts, base, 1);
  kir::Val z = kb.Load(pts, base, 2);
  kir::Val eps = kb.ConstF(kir::F32(), 1e-3);
  kir::Val r2 = kb.Fma(x, x, kb.Fma(y, y, kb.Fma(z, z, eps)));
  kb.Store(out, gid, kb.Rsqrt(r2));
  return *kb.Build();
}

/// Four points per work-item from AOS data: four vload4 of whole points
/// plus a 4x4 lane transpose (extract/insert) before the vector math.
kir::Program AosVector() {
  kir::KernelBuilder kb("aos_vector");
  auto pts = kb.ArgBuffer("pts", kir::ScalarType::kF32, kir::ArgKind::kBufferRO,
                          true, true);
  auto out = kb.ArgBuffer("out", kir::ScalarType::kF32, kir::ArgKind::kBufferWO,
                          true, false);
  kir::Val gid = kb.GlobalId(0);
  kir::Val base = kb.Binary(kir::Opcode::kMul, gid, kb.ConstI(kir::I32(), 16));
  kir::Val p0 = kb.Load(pts, base, 0, 4);
  kir::Val p1 = kb.Load(pts, base, 4, 4);
  kir::Val p2 = kb.Load(pts, base, 8, 4);
  kir::Val p3 = kb.Load(pts, base, 12, 4);
  kir::Val zero4 = kb.ConstF(kir::F32(4), 0.0);
  auto gather = [&](int lane) {
    kir::Val g = zero4;
    g = kb.Insert(g, 0, kb.Extract(p0, lane));
    g = kb.Insert(g, 1, kb.Extract(p1, lane));
    g = kb.Insert(g, 2, kb.Extract(p2, lane));
    g = kb.Insert(g, 3, kb.Extract(p3, lane));
    return g;
  };
  kir::Val x = gather(0), y = gather(1), z = gather(2);
  kir::Val eps = kb.ConstF(kir::F32(4), 1e-3);
  kir::Val r2 = kb.Fma(x, x, kb.Fma(y, y, kb.Fma(z, z, eps)));
  kir::Val out_base = kb.Binary(kir::Opcode::kMul, gid, kb.ConstI(kir::I32(), 4));
  kb.Store(out, out_base, kb.Rsqrt(r2));
  return *kb.Build();
}

/// Four points per work-item from SOA data: three contiguous vload4s.
kir::Program SoaVector() {
  kir::KernelBuilder kb("soa_vector");
  auto xs = kb.ArgBuffer("xs", kir::ScalarType::kF32, kir::ArgKind::kBufferRO,
                         true, true);
  auto ys = kb.ArgBuffer("ys", kir::ScalarType::kF32, kir::ArgKind::kBufferRO,
                         true, true);
  auto zs = kb.ArgBuffer("zs", kir::ScalarType::kF32, kir::ArgKind::kBufferRO,
                         true, true);
  auto out = kb.ArgBuffer("out", kir::ScalarType::kF32, kir::ArgKind::kBufferWO,
                          true, false);
  kir::Val gid = kb.GlobalId(0);
  kir::Val base = kb.Binary(kir::Opcode::kMul, gid, kb.ConstI(kir::I32(), 4));
  kir::Val x = kb.Load(xs, base, 0, 4);
  kir::Val y = kb.Load(ys, base, 0, 4);
  kir::Val z = kb.Load(zs, base, 0, 4);
  kir::Val eps = kb.ConstF(kir::F32(4), 1e-3);
  kir::Val r2 = kb.Fma(x, x, kb.Fma(y, y, kb.Fma(z, z, eps)));
  kb.Store(out, base, kb.Rsqrt(r2));
  return *kb.Build();
}

// --- A7: §III-A "Load distribution": global work size ---------------------
// The Mali OpenCL Developer Guide: "the optimal global work size can be
// calculated as the device maximum work-group size multiplied by the number
// of shader cores multiplied by a constant ... four or eight", and "must be
// in the order of several thousands". Fixed total work is spread over a
// varying number of work-items; the guide's points (256 x 4 x {4, 8}) are
// marked.

/// Fixed total work spread over a variable number of work-items, each
/// handling a contiguous chunk (KIR loop steps are immediates, so the
/// chunked distribution stands in for the usual grid-stride form).
kir::Program ChunkKernel() {
  kir::KernelBuilder kb("chunked_saxpy");
  auto x = kb.ArgBuffer("x", kir::ScalarType::kF32, kir::ArgKind::kBufferRO,
                        true, true);
  auto y = kb.ArgBuffer("y", kir::ScalarType::kF32, kir::ArgKind::kBufferRW,
                        true, false);
  kir::Val n = kb.ArgScalar("n", kir::ScalarType::kI32);
  kir::Val gid = kb.GlobalId(0);
  kir::Val threads = kb.GlobalSize(0);
  kir::Val one = kb.ConstI(kir::I32(), 1);
  kir::Val chunk = kb.Binary(
      kir::Opcode::kIDiv,
      kb.Binary(kir::Opcode::kSub, kb.Binary(kir::Opcode::kAdd, n, threads), one),
      threads);
  kir::Val start = kb.Binary(kir::Opcode::kMul, gid, chunk);
  kir::Val end = kb.Min(kb.Binary(kir::Opcode::kAdd, start, chunk), n);
  kir::Val a = kb.ConstF(kir::F32(), 1.5);
  kb.For("i", start, end, 1, [&](kir::Val i) {
    kb.Store(y, i, kb.Fma(a, kb.Load(x, i), kb.Load(y, i)));
  });
  return *kb.Build();
}

// --- A8: §III-B "Memory Spaces": local-memory tiling on Mali --------------
// Desktop GPUs map __local to on-chip memory, but "Mali GPUs have a unified
// memory system where local memory is physically mapped to the global
// memory. For this reason traditional code locality optimizations are not
// required". A matrix multiply runs three ways: the naive direct kernel,
// the desktop idiom (tiles of A and B staged in __local behind barriers)
// and the Mali idiom the paper recommends instead — register blocking with
// float4 vectors and no __local at all. __local staging recovers some of
// the naive kernel's cache misses, but the register/vector version beats
// it while being simpler.

constexpr int kTile = 16;  // work-group is kTile x kTile

/// Direct: C[i,j] accumulated straight from global A and B.
kir::Program DirectKernel() {
  kir::KernelBuilder kb("mm_direct");
  auto a = kb.ArgBuffer("a", kir::ScalarType::kF32, kir::ArgKind::kBufferRO,
                        true, true);
  auto b = kb.ArgBuffer("b", kir::ScalarType::kF32, kir::ArgKind::kBufferRO,
                        true, true);
  auto c = kb.ArgBuffer("c", kir::ScalarType::kF32, kir::ArgKind::kBufferWO,
                        true, false);
  kir::Val n = kb.ArgScalar("n", kir::ScalarType::kI32);
  kir::Val i = kb.GlobalId(1);
  kir::Val j = kb.GlobalId(0);
  kir::Val row = kb.Binary(kir::Opcode::kMul, i, n);
  kir::Val acc = kb.Var(kir::F32(), "acc");
  kb.Assign(acc, kb.ConstF(kir::F32(), 0.0));
  kb.For("k", kb.ConstI(kir::I32(), 0), n, 1, [&](kir::Val k) {
    kir::Val av = kb.Load(a, kb.Binary(kir::Opcode::kAdd, row, k));
    kir::Val bv = kb.Load(
        b, kb.Binary(kir::Opcode::kAdd, kb.Binary(kir::Opcode::kMul, k, n), j));
    kb.Assign(acc, kb.Fma(av, bv, acc));
  });
  kb.Store(c, kb.Binary(kir::Opcode::kAdd, row, j), acc);
  return *kb.Build();
}

/// Staged: the canonical CUDA/desktop-OpenCL tiled kernel, with __local
/// tiles for A and B refreshed every kTile steps behind barriers.
kir::Program TiledKernel() {
  kir::KernelBuilder kb("mm_local_tiled");
  auto a = kb.ArgBuffer("a", kir::ScalarType::kF32, kir::ArgKind::kBufferRO,
                        true, true);
  auto b = kb.ArgBuffer("b", kir::ScalarType::kF32, kir::ArgKind::kBufferRO,
                        true, true);
  auto c = kb.ArgBuffer("c", kir::ScalarType::kF32, kir::ArgKind::kBufferWO,
                        true, false);
  kir::Val n = kb.ArgScalar("n", kir::ScalarType::kI32);
  auto tile_a = kb.LocalArray("tile_a", kir::ScalarType::kF32, kTile * kTile);
  auto tile_b = kb.LocalArray("tile_b", kir::ScalarType::kF32, kTile * kTile);

  kir::Val li = kb.LocalId(1);
  kir::Val lj = kb.LocalId(0);
  kir::Val gi = kb.GlobalId(1);
  kir::Val gj = kb.GlobalId(0);
  kir::Val tiles = kb.Binary(kir::Opcode::kIDiv, n, kb.ConstI(kir::I32(), kTile));
  kir::Val tile_c = kb.ConstI(kir::I32(), kTile);
  kir::Val acc = kb.Var(kir::F32(), "acc");
  kb.Assign(acc, kb.ConstF(kir::F32(), 0.0));
  kir::Val local_idx =
      kb.Binary(kir::Opcode::kAdd, kb.Binary(kir::Opcode::kMul, li, tile_c), lj);

  kb.For("t", kb.ConstI(kir::I32(), 0), tiles, 1, [&](kir::Val t) {
    // Stage one kTile x kTile tile of A and of B.
    kir::Val kbase = kb.Binary(kir::Opcode::kMul, t, tile_c);
    kir::Val a_idx = kb.Binary(
        kir::Opcode::kAdd, kb.Binary(kir::Opcode::kMul, gi, n),
        kb.Binary(kir::Opcode::kAdd, kbase, lj));
    kir::Val b_idx = kb.Binary(
        kir::Opcode::kAdd,
        kb.Binary(kir::Opcode::kMul, kb.Binary(kir::Opcode::kAdd, kbase, li), n),
        gj);
    kb.Store(tile_a, local_idx, kb.Load(a, a_idx));
    kb.Store(tile_b, local_idx, kb.Load(b, b_idx));
    kb.Barrier();
    kb.For("k", kb.ConstI(kir::I32(), 0), tile_c, 1, [&](kir::Val k) {
      kir::Val av = kb.Load(
          tile_a, kb.Binary(kir::Opcode::kAdd,
                            kb.Binary(kir::Opcode::kMul, li, tile_c), k));
      kir::Val bv = kb.Load(
          tile_b, kb.Binary(kir::Opcode::kAdd,
                            kb.Binary(kir::Opcode::kMul, k, tile_c), lj));
      kb.Assign(acc, kb.Fma(av, bv, acc));
    });
    kb.Barrier();
  });
  kb.Store(c, kb.Binary(kir::Opcode::kAdd, kb.Binary(kir::Opcode::kMul, gi, n), gj),
           acc);
  return *kb.Build();
}

/// An n x n matrix multiply launch: a, b, c of n*n floats, then n.
Launch MatMulLaunch(std::uint64_t n, std::uint64_t global0) {
  const std::uint64_t bytes = n * n * 4;
  return {.buffers = {{bytes}, {bytes}, {bytes}},
          .args = {Buf(0), Buf(1), Buf(2), I32(n)},
          .global = {global0, n},
          .local = {kTile, kTile}};
}

}  // namespace

int AblationMemoryMapping(const BenchOptions& options, Sweeps&) {
  Table table({"elements", "style", "transfer-in (ms)", "kernel (ms)",
               "transfer-out (ms)", "total (ms)", "map speedup"});
  std::printf("== Ablation A1: §III-A memory allocation & mapping ==\n");
  for (std::uint64_t n : {1u << 16, 1u << 18, 1u << 20, 1u << 22}) {
    const TransferResult copy = RunCopyStyle(n);
    const TransferResult map = RunMapStyle(n);
    for (int style = 0; style < 2; ++style) {
      const TransferResult& r = style == 0 ? copy : map;
      table.BeginRow();
      table.AddCell(std::to_string(n));
      table.AddCell(style == 0 ? "USE_HOST_PTR + copy" : "ALLOC_HOST_PTR + map");
      table.AddNumber(r.transfer_in_sec * 1e3, 3);
      table.AddNumber(r.kernel_sec * 1e3, 3);
      table.AddNumber(r.transfer_out_sec * 1e3, 3);
      table.AddNumber(r.total() * 1e3, 3);
      if (style == 0) {
        table.AddCell("1.00");
      } else {
        table.AddNumber(copy.total() / map.total(), 2);
      }
    }
  }
  PrintTable(table, options.csv);
  std::printf(
      "paper expectation: the map path eliminates the copies entirely; the\n"
      "advantage grows with buffer size as the kernel cost is amortized.\n");
  return 0;
}

int AblationWorkgroupSize(const BenchOptions& options, Sweeps&) {
  const std::uint64_t n = 1 << 20;
  std::printf("== Ablation A2: §III-A work-group size tuning (n = %llu) ==\n",
              static_cast<unsigned long long>(n));
  const kir::Program compute = ComputeKernel();
  const kir::Program stream = StreamKernel();
  Table table({"local size", "compute kernel (ms)", "stream kernel (ms)"});
  // Both kernels get the same two buffers; poly binds only the second.
  auto add_row = [&](const std::string& label,
                     std::vector<std::uint64_t> local) {
    Launch launch{.buffers = {{n * 4}, {n * 4}},
                  .args = {Buf(1)},
                  .global = {n},
                  .local = std::move(local)};
    table.BeginRow();
    table.AddCell(label);
    table.AddNumber(LaunchMs(compute, launch), 3);
    launch.args = {Buf(0), Buf(1)};
    table.AddNumber(LaunchMs(stream, launch), 3);
  };
  for (std::uint64_t ls : {4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
    add_row(std::to_string(ls), {ls});
  }
  add_row("driver (NULL)", {});
  PrintTable(table, options.csv);
  std::printf(
      "paper expectation: small groups pay heavy Job-Manager dispatch; the\n"
      "driver's NULL pick (<=64) is measurably worse than a tuned 128-256.\n");
  return 0;
}

int AblationVectorSize(const BenchOptions& options, Sweeps&) {
  const std::uint64_t n = 1 << 20;
  std::printf("== Ablation A3: §III-B vector size sweep (n = %llu) ==\n",
              static_cast<unsigned long long>(n));
  Table table({"width", "axpy (ms)", "axpy threads/core", "dot (ms)",
               "dot threads/core"});
  // x and y hold n floats; the third buffer holds one partial per item.
  auto launch = [&](std::uint64_t items, std::vector<Arg> args) {
    return Launch{.buffers = {{n * 4}, {n * 4}, {items * 4 + 64}},
                  .args = std::move(args),
                  .global = {items},
                  .local = {128}};
  };
  for (std::uint8_t lanes : {1, 2, 4, 8, 16}) {
    const ocl::Event axpy =
        RunLaunch(AxpyKernel(lanes), launch(n / lanes, {Buf(0), Buf(1)}));
    const ocl::Event dot = RunLaunch(
        DotKernel(lanes), launch(1024, {Buf(0), Buf(1), Buf(2), I32(n)}));
    table.BeginRow();
    table.AddCell(lanes == 1 ? "scalar" : "float" + std::to_string(lanes));
    table.AddNumber(axpy.seconds * 1e3, 3);
    table.AddNumber(axpy.stats.Get("mali.threads_per_core"), 0);
    table.AddNumber(dot.seconds * 1e3, 3);
    table.AddNumber(dot.stats.Get("mali.threads_per_core"), 0);
  }
  PrintTable(table, options.csv);
  std::printf(
      "paper expectation: float4 matches the 128-bit pipes; wider types can\n"
      "win or lose depending on register pressure (threads/core drops).\n");
  return 0;
}

int AblationUnrolling(const BenchOptions& options, Sweeps&) {
  const std::uint64_t items = 65536;
  std::printf("== Ablation A4: §III-B loop unrolling (polynomial loop) ==\n");
  const Launch launch{.buffers = {{items * 4}, {items * 4}},
                      .args = {Buf(0), Buf(1)},
                      .global = {items},
                      .local = {128}};
  Table table({"unroll", "trip=256 (ms)", "trip=250, remainder (ms)"});
  for (int unroll : {1, 2, 4, 8, 16}) {
    table.BeginRow();
    table.AddCell(std::to_string(unroll));
    table.AddNumber(LaunchMs(PolyKernel(unroll, 256), launch), 3);
    table.AddNumber(LaunchMs(PolyKernel(unroll, 250), launch), 3);
  }
  PrintTable(table, options.csv);
  std::printf(
      "paper expectation: unrolling trims loop-control overhead; the\n"
      "non-multiple trip count pays a remainder-loop tax at high factors.\n");
  return 0;
}

int AblationQualifiers(const BenchOptions& options, Sweeps&) {
  const std::uint64_t n = 192;
  std::printf("== Ablation A5: §III-B const/restrict qualifiers (dmmm %llux%llu) ==\n",
              static_cast<unsigned long long>(n), static_cast<unsigned long long>(n));
  const Launch launch = MatMulLaunch(n, n / 4);
  const double base = LaunchMs(MatMulKernel(false, false), launch);
  Table table({"qualifiers", "time (ms)", "speedup"});
  struct Case {
    const char* label;
    bool restrict_q, const_q;
  };
  for (const Case c : {Case{"none", false, false},
                       Case{"const", false, true},
                       Case{"restrict", true, false},
                       Case{"const + restrict", true, true}}) {
    const double ms = LaunchMs(MatMulKernel(c.restrict_q, c.const_q), launch);
    table.BeginRow();
    table.AddCell(c.label);
    table.AddNumber(ms, 3);
    table.AddNumber(base / ms, 3);
  }
  PrintTable(table, options.csv);
  std::printf(
      "paper expectation: a modest but real gain once the compiler may\n"
      "assume no aliasing (restrict) and read-only inputs (const).\n");
  return 0;
}

int AblationDataLayout(const BenchOptions& options, Sweeps&) {
  const std::uint64_t n = 1 << 20;  // points
  std::printf("== Ablation A6: §III-B data organization, %llu 3D points ==\n",
              static_cast<unsigned long long>(n));
  const Launch aos{.buffers = {{n * 16}, {n * 16}},
                   .args = {Buf(0), Buf(1)},
                   .global = {n},
                   .local = {128}};
  Launch aos_vec = aos;
  aos_vec.global = {n / 4};
  const Launch soa{.buffers = {{n * 4}, {n * 4}, {n * 4}, {n * 4}},
                   .args = {Buf(0), Buf(1), Buf(2), Buf(3)},
                   .global = {n / 4},
                   .local = {128}};
  const double aos_s = LaunchMs(AosScalar(), aos);
  const double aos_v = LaunchMs(AosVector(), aos_vec);
  const double soa_v = LaunchMs(SoaVector(), soa);
  Table table({"layout / code", "time (ms)", "speedup"});
  table.AddRow({"AOS, scalar", FormatDouble(aos_s, 3), "1.000"});
  table.AddRow({"AOS, vectorized (transpose)", FormatDouble(aos_v, 3),
                FormatDouble(aos_s / aos_v, 3)});
  table.AddRow({"SOA, vectorized", FormatDouble(soa_v, 3),
                FormatDouble(aos_s / soa_v, 3)});
  PrintTable(table, options.csv);
  std::printf(
      "paper expectation: AOS 'executes poorly in vector register and\n"
      "requires significant loop unrolling'; SOA 'facilitates the\n"
      "application of vector instructions' — and explains nbody's small\n"
      "Opt gain (its AOS layout was kept).\n");
  return 0;
}

int AblationGlobalSize(const BenchOptions& options, Sweeps&) {
  const std::uint64_t n = 1 << 21;  // total elements (fixed work)
  const kir::Program kernel = ChunkKernel();
  std::printf(
      "== Ablation A7: §III-A global work size (fixed work: %llu elements) ==\n",
      static_cast<unsigned long long>(n));
  Table table({"work-items", "time (ms)", "note"});
  for (std::uint64_t items : {16u, 64u, 256u, 1024u, 4096u, 8192u, 16384u,
                              65536u}) {
    std::string note;
    if (items == 256 * 4 * 4) note = "guide: max_wg x cores x 4";
    if (items == 256 * 4 * 8) note = "guide: max_wg x cores x 8";
    table.BeginRow();
    table.AddCell(std::to_string(items));
    table.AddNumber(
        LaunchMs(kernel, {.buffers = {{n * 4}, {n * 4}},
                          .args = {Buf(0), Buf(1), I32(n)},
                          .global = {items},
                          .local = {std::min<std::uint64_t>(items, 256)}}),
        3);
    table.AddCell(note);
  }
  PrintTable(table, options.csv);
  std::printf(
      "paper expectation: utilization saturates once the launch is 'in the\n"
      "order of several thousands' of work-items; tiny launches starve the\n"
      "four cores and the latency-hiding thread pool.\n");
  return 0;
}

int AblationLocalMemory(const BenchOptions& options, Sweeps&) {
  std::printf("== Ablation A8: §III-B local-memory tiling on unified memory ==\n");
  Table table({"n", "naive direct (ms)", "__local tiled (ms)",
               "register/vec4 (ms)", "best idiom"});
  for (std::uint64_t n : {64u, 128u, 192u}) {
    const double direct = LaunchMs(DirectKernel(), MatMulLaunch(n, n));
    const double tiled = LaunchMs(TiledKernel(), MatMulLaunch(n, n));
    const double reg = LaunchMs(Vec4MatMul("mm_register_vec4", true, true),
                                MatMulLaunch(n, n / 4));
    table.BeginRow();
    table.AddCell(std::to_string(n));
    table.AddNumber(direct, 3);
    table.AddNumber(tiled, 3);
    table.AddNumber(reg, 3);
    table.AddCell(reg < tiled ? "register (no __local)" : "__local");
  }
  PrintTable(table, options.csv);
  std::printf(
      "paper expectation: on Mali, __local staging is not the lever it is\n"
      "on desktop GPUs (local memory IS global memory); the recommended\n"
      "register/vector idiom wins without any locality machinery —\n"
      "\"traditional code locality optimizations are not required\".\n");
  return 0;
}

}  // namespace malisim::bench
