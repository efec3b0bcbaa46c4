// Parameterized per-operation semantics sweep: every arithmetic opcode is
// executed through a tiny kernel for each (scalar type, lane count)
// combination and compared against the host computing the same expression.
// The edge-value cases at the end run under both the VM and the reference
// interpreter.
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "kir/builder.h"
#include "kir/interp.h"
#include "reference_interp.h"

namespace malisim::kir {
namespace {

using OpCase = std::tuple<Opcode, ScalarType, int /*lanes*/>;

/// Reference semantics for one lane.
double RefBinary(Opcode op, double a, double b) {
  switch (op) {
    case Opcode::kAdd: return a + b;
    case Opcode::kSub: return a - b;
    case Opcode::kMul: return a * b;
    case Opcode::kDiv: return a / b;
    case Opcode::kMin: return std::fmin(a, b);
    case Opcode::kMax: return std::fmax(a, b);
    default: ADD_FAILURE(); return 0.0;
  }
}

std::int64_t RefBinaryInt(Opcode op, std::int64_t a, std::int64_t b) {
  switch (op) {
    case Opcode::kAdd: return a + b;
    case Opcode::kSub: return a - b;
    case Opcode::kMul: return a * b;
    case Opcode::kDiv:
    case Opcode::kIDiv: return a / b;
    case Opcode::kIRem: return a % b;
    case Opcode::kMin: return std::min(a, b);
    case Opcode::kMax: return std::max(a, b);
    case Opcode::kAnd: return a & b;
    case Opcode::kOr: return a | b;
    case Opcode::kXor: return a ^ b;
    default: ADD_FAILURE(); return 0;
  }
}

class BinaryOpTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(BinaryOpTest, MatchesHostSemantics) {
  const auto [op, scalar, lanes] = GetParam();
  const Type type(scalar, static_cast<std::uint8_t>(lanes));
  const bool is_float = IsFloat(scalar);

  KernelBuilder kb("binop");
  auto a_buf = kb.ArgBuffer("a", scalar, ArgKind::kBufferRO);
  auto b_buf = kb.ArgBuffer("b", scalar, ArgKind::kBufferRO);
  auto out_buf = kb.ArgBuffer("out", scalar, ArgKind::kBufferWO);
  Val zero = kb.ConstI(I32(), 0);
  Val a = kb.Load(a_buf, zero, 0, static_cast<std::uint8_t>(lanes));
  Val b = kb.Load(b_buf, zero, 0, static_cast<std::uint8_t>(lanes));
  kb.Store(out_buf, zero, kb.Binary(op, a, b));
  Program p = *kb.Build();

  // Inputs: positive, mixed-sign, never zero (division cases).
  Xoshiro256 rng(static_cast<std::uint64_t>(op) * 131 +
                 static_cast<std::uint64_t>(scalar) * 17 +
                 static_cast<std::uint64_t>(lanes));
  std::vector<double> av(static_cast<std::size_t>(lanes)),
      bv(static_cast<std::size_t>(lanes));
  for (int l = 0; l < lanes; ++l) {
    av[static_cast<std::size_t>(l)] =
        is_float ? rng.NextDouble(-8, 8)
                 : static_cast<double>(static_cast<std::int64_t>(rng.NextBounded(200)) - 100);
    double b_raw = is_float ? rng.NextDouble(0.5, 9)
                            : static_cast<double>(rng.NextBounded(50) + 1);
    if (rng.NextDouble() < 0.5) b_raw = -b_raw;
    bv[static_cast<std::size_t>(l)] = b_raw;
  }

  // Type-erased storage.
  std::vector<std::byte> a_mem(static_cast<std::size_t>(lanes) * 8),
      b_mem(a_mem.size()), out_mem(a_mem.size());
  auto fill = [&](std::vector<std::byte>& mem, const std::vector<double>& vals) {
    for (int l = 0; l < lanes; ++l) {
      const double v = vals[static_cast<std::size_t>(l)];
      switch (scalar) {
        case ScalarType::kF32: {
          const float f = static_cast<float>(v);
          std::memcpy(mem.data() + l * 4, &f, 4);
          break;
        }
        case ScalarType::kF64:
          std::memcpy(mem.data() + l * 8, &v, 8);
          break;
        case ScalarType::kI32: {
          const std::int32_t i = static_cast<std::int32_t>(v);
          std::memcpy(mem.data() + l * 4, &i, 4);
          break;
        }
        case ScalarType::kI64: {
          const std::int64_t i = static_cast<std::int64_t>(v);
          std::memcpy(mem.data() + l * 8, &i, 8);
          break;
        }
      }
    }
  };
  fill(a_mem, av);
  fill(b_mem, bv);

  Bindings bindings;
  bindings.buffers = {{a_mem.data(), 0x1000, a_mem.size()},
                      {b_mem.data(), 0x2000, b_mem.size()},
                      {out_mem.data(), 0x3000, out_mem.size()}};
  auto run = RunProgram(p, LaunchConfig{}, std::move(bindings));
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  for (int l = 0; l < lanes; ++l) {
    switch (scalar) {
      case ScalarType::kF32: {
        float got;
        std::memcpy(&got, out_mem.data() + l * 4, 4);
        const float want = static_cast<float>(
            RefBinary(op, static_cast<double>(static_cast<float>(av[static_cast<std::size_t>(l)])),
                      static_cast<double>(static_cast<float>(bv[static_cast<std::size_t>(l)]))));
        EXPECT_NEAR(got, want, std::fabs(want) * 1e-6 + 1e-6) << "lane " << l;
        break;
      }
      case ScalarType::kF64: {
        double got;
        std::memcpy(&got, out_mem.data() + l * 8, 8);
        const double want =
            RefBinary(op, av[static_cast<std::size_t>(l)], bv[static_cast<std::size_t>(l)]);
        EXPECT_DOUBLE_EQ(got, want) << "lane " << l;
        break;
      }
      case ScalarType::kI32: {
        std::int32_t got;
        std::memcpy(&got, out_mem.data() + l * 4, 4);
        const std::int64_t want = RefBinaryInt(
            op, static_cast<std::int64_t>(av[static_cast<std::size_t>(l)]),
            static_cast<std::int64_t>(bv[static_cast<std::size_t>(l)]));
        EXPECT_EQ(got, static_cast<std::int32_t>(want)) << "lane " << l;
        break;
      }
      case ScalarType::kI64: {
        std::int64_t got;
        std::memcpy(&got, out_mem.data() + l * 8, 8);
        const std::int64_t want = RefBinaryInt(
            op, static_cast<std::int64_t>(av[static_cast<std::size_t>(l)]),
            static_cast<std::int64_t>(bv[static_cast<std::size_t>(l)]));
        EXPECT_EQ(got, want) << "lane " << l;
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FloatOps, BinaryOpTest,
    ::testing::Combine(::testing::Values(Opcode::kAdd, Opcode::kSub,
                                         Opcode::kMul, Opcode::kDiv,
                                         Opcode::kMin, Opcode::kMax),
                       ::testing::Values(ScalarType::kF32, ScalarType::kF64),
                       ::testing::Values(1, 2, 4, 8, 16)));

INSTANTIATE_TEST_SUITE_P(
    IntOps, BinaryOpTest,
    ::testing::Combine(::testing::Values(Opcode::kAdd, Opcode::kSub,
                                         Opcode::kMul, Opcode::kIDiv,
                                         Opcode::kIRem, Opcode::kMin,
                                         Opcode::kMax, Opcode::kAnd,
                                         Opcode::kOr, Opcode::kXor),
                       ::testing::Values(ScalarType::kI32, ScalarType::kI64),
                       ::testing::Values(1, 4, 16)));

// ---- unary float ops ----

using UnaryCase = std::tuple<Opcode, ScalarType, int>;

class UnaryOpTest : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryOpTest, MatchesHostSemantics) {
  const auto [op, scalar, lanes] = GetParam();
  KernelBuilder kb("unop");
  auto in_buf = kb.ArgBuffer("in", scalar, ArgKind::kBufferRO);
  auto out_buf = kb.ArgBuffer("out", scalar, ArgKind::kBufferWO);
  Val zero = kb.ConstI(I32(), 0);
  Val v = kb.Load(in_buf, zero, 0, static_cast<std::uint8_t>(lanes));
  kb.Store(out_buf, zero, kb.Unary(op, v));
  Program p = *kb.Build();

  auto ref = [op](double x) {
    switch (op) {
      case Opcode::kSqrt: return std::sqrt(x);
      case Opcode::kRsqrt: return 1.0 / std::sqrt(x);
      case Opcode::kExp: return std::exp(x);
      case Opcode::kLog: return std::log(x);
      case Opcode::kSin: return std::sin(x);
      case Opcode::kCos: return std::cos(x);
      case Opcode::kNeg: return -x;
      case Opcode::kAbs: return std::fabs(x);
      case Opcode::kFloor: return std::floor(x);
      default: ADD_FAILURE(); return 0.0;
    }
  };

  Xoshiro256 rng(static_cast<std::uint64_t>(op) * 7 + lanes);
  const bool fp64 = scalar == ScalarType::kF64;
  std::vector<double> xs(static_cast<std::size_t>(lanes));
  for (auto& x : xs) x = rng.NextDouble(0.1, 4.0);  // positive: sqrt/log safe

  std::vector<std::byte> in_mem(static_cast<std::size_t>(lanes) * 8),
      out_mem(in_mem.size());
  for (int l = 0; l < lanes; ++l) {
    if (fp64) {
      std::memcpy(in_mem.data() + l * 8, &xs[static_cast<std::size_t>(l)], 8);
    } else {
      const float f = static_cast<float>(xs[static_cast<std::size_t>(l)]);
      std::memcpy(in_mem.data() + l * 4, &f, 4);
    }
  }
  Bindings bindings;
  bindings.buffers = {{in_mem.data(), 0x1000, in_mem.size()},
                      {out_mem.data(), 0x2000, out_mem.size()}};
  ASSERT_TRUE(RunProgram(p, LaunchConfig{}, std::move(bindings)).ok());

  for (int l = 0; l < lanes; ++l) {
    if (fp64) {
      double got;
      std::memcpy(&got, out_mem.data() + l * 8, 8);
      EXPECT_NEAR(got, ref(xs[static_cast<std::size_t>(l)]), 1e-12);
    } else {
      float got;
      std::memcpy(&got, out_mem.data() + l * 4, 4);
      const double want =
          ref(static_cast<double>(static_cast<float>(xs[static_cast<std::size_t>(l)])));
      EXPECT_NEAR(got, want, std::fabs(want) * 1e-5 + 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FloatUnary, UnaryOpTest,
    ::testing::Combine(::testing::Values(Opcode::kSqrt, Opcode::kRsqrt,
                                         Opcode::kExp, Opcode::kLog,
                                         Opcode::kSin, Opcode::kCos,
                                         Opcode::kNeg, Opcode::kAbs,
                                         Opcode::kFloor),
                       ::testing::Values(ScalarType::kF32, ScalarType::kF64),
                       ::testing::Values(1, 4, 16)));

// ---- lane manipulation ----

class LaneOpTest : public ::testing::TestWithParam<int> {};

TEST_P(LaneOpTest, SlideSelectsWindow) {
  const int shift = GetParam();
  KernelBuilder kb("slide");
  auto out_buf = kb.ArgBuffer("out", ScalarType::kI32, ArgKind::kBufferWO);
  Val zero = kb.ConstI(I32(), 0);
  // a = [0,1,2,3], b = [4,5,6,7] built via inserts.
  Val a = kb.ConstI(I32(4), 0);
  Val b = kb.ConstI(I32(4), 0);
  for (int l = 0; l < 4; ++l) {
    a = kb.Insert(a, l, kb.ConstI(I32(), l));
    b = kb.Insert(b, l, kb.ConstI(I32(), 4 + l));
  }
  kb.Store(out_buf, zero, kb.Slide(a, b, shift));
  Program p = *kb.Build();

  std::vector<std::int32_t> out(4, -1);
  Bindings bindings;
  bindings.buffers = {{reinterpret_cast<std::byte*>(out.data()), 0x1000, 16}};
  ASSERT_TRUE(RunProgram(p, LaunchConfig{}, std::move(bindings)).ok());
  for (int l = 0; l < 4; ++l) {
    EXPECT_EQ(out[static_cast<std::size_t>(l)], l + shift);
  }
}

INSTANTIATE_TEST_SUITE_P(Shifts, LaneOpTest, ::testing::Values(0, 1, 2, 3, 4));

TEST(LaneOpsTest, VSumAddsAllLanes) {
  KernelBuilder kb("vsum");
  auto out_buf = kb.ArgBuffer("out", ScalarType::kF32, ArgKind::kBufferWO);
  Val v = kb.ConstF(F32(8), 1.5);
  kb.Store(out_buf, kb.ConstI(I32(), 0), kb.VSum(v));
  Program p = *kb.Build();
  float out = 0;
  Bindings bindings;
  bindings.buffers = {{reinterpret_cast<std::byte*>(&out), 0x1000, 4}};
  ASSERT_TRUE(RunProgram(p, LaunchConfig{}, std::move(bindings)).ok());
  EXPECT_FLOAT_EQ(out, 12.0f);
}

TEST(LaneOpsTest, SplatBroadcasts) {
  KernelBuilder kb("splat");
  auto out_buf = kb.ArgBuffer("out", ScalarType::kF64, ArgKind::kBufferWO);
  Val s = kb.ConstF(F64(), 2.25);
  kb.Store(out_buf, kb.ConstI(I32(), 0), kb.Splat(s, 4));
  Program p = *kb.Build();
  double out[4] = {};
  Bindings bindings;
  bindings.buffers = {{reinterpret_cast<std::byte*>(out), 0x1000, 32}};
  ASSERT_TRUE(RunProgram(p, LaunchConfig{}, std::move(bindings)).ok());
  for (double v : out) EXPECT_DOUBLE_EQ(v, 2.25);
}

TEST(LaneOpsTest, ShiftsAreLogical) {
  KernelBuilder kb("shift");
  auto out_buf = kb.ArgBuffer("out", ScalarType::kI32, ArgKind::kBufferWO);
  Val x = kb.ConstI(I32(), -16);
  kb.Store(out_buf, kb.ConstI(I32(), 0), kb.Shr(x, 1));
  kb.Store(out_buf, kb.ConstI(I32(), 1), kb.Shl(x, 1));
  Program p = *kb.Build();
  std::int32_t out[2] = {};
  Bindings bindings;
  bindings.buffers = {{reinterpret_cast<std::byte*>(out), 0x1000, 8}};
  ASSERT_TRUE(RunProgram(p, LaunchConfig{}, std::move(bindings)).ok());
  EXPECT_EQ(out[0], static_cast<std::int32_t>(static_cast<std::uint32_t>(-16) >> 1));
  EXPECT_EQ(out[1], -32);
}

TEST(LaneOpsTest, SelectPicksPerLane) {
  KernelBuilder kb("select");
  auto out_buf = kb.ArgBuffer("out", ScalarType::kF32, ArgKind::kBufferWO);
  Val a = kb.ConstF(F32(4), 0.0);
  for (int l = 0; l < 4; ++l) {
    a = kb.Insert(a, l, kb.ConstF(F32(), l));
  }
  Val threshold = kb.ConstF(F32(4), 1.5);
  Val mask = kb.CmpLt(a, threshold);
  Val low = kb.ConstF(F32(4), -1.0);
  kb.Store(out_buf, kb.ConstI(I32(), 0), kb.Select(mask, low, a));
  Program p = *kb.Build();
  float out[4] = {};
  Bindings bindings;
  bindings.buffers = {{reinterpret_cast<std::byte*>(out), 0x1000, 16}};
  ASSERT_TRUE(RunProgram(p, LaunchConfig{}, std::move(bindings)).ok());
  EXPECT_FLOAT_EQ(out[0], -1.0f);
  EXPECT_FLOAT_EQ(out[1], -1.0f);
  EXPECT_FLOAT_EQ(out[2], 2.0f);
  EXPECT_FLOAT_EQ(out[3], 3.0f);
}

TEST(LaneOpsTest, ConvertAllPairs) {
  // f64 -> i32 truncation, i32 -> f32, i64 -> f64, f32 -> i64.
  KernelBuilder kb("convert");
  auto out_i32 = kb.ArgBuffer("oi", ScalarType::kI32, ArgKind::kBufferWO);
  auto out_f32 = kb.ArgBuffer("of", ScalarType::kF32, ArgKind::kBufferWO);
  Val zero = kb.ConstI(I32(), 0);
  Val d = kb.ConstF(F64(), -2.75);
  kb.Store(out_i32, zero, kb.Convert(d, ScalarType::kI32));
  Val i = kb.ConstI(I32(), 7);
  kb.Store(out_f32, zero, kb.Convert(i, ScalarType::kF32));
  Program p = *kb.Build();
  std::int32_t oi = 0;
  float of = 0;
  Bindings bindings;
  bindings.buffers = {{reinterpret_cast<std::byte*>(&oi), 0x1000, 4},
                      {reinterpret_cast<std::byte*>(&of), 0x2000, 4}};
  ASSERT_TRUE(RunProgram(p, LaunchConfig{}, std::move(bindings)).ok());
  EXPECT_EQ(oi, -2);  // C truncation toward zero
  EXPECT_FLOAT_EQ(of, 7.0f);
}

TEST(IntegerWrapTest, AddAndMulWrapInTwosComplement) {
  // amcd's RNG seed, (chain + 1) * 0x9E3779B9, overflows i32: KIR integer
  // add/sub/mul/neg wrap like the hardware's, for scalars and vectors.
  KernelBuilder kb("wrap");
  auto o32 = kb.ArgBuffer("o32", ScalarType::kI32, ArgKind::kBufferWO);
  auto o64 = kb.ArgBuffer("o64", ScalarType::kI64, ArgKind::kBufferWO);
  auto v32 = kb.ArgBuffer("v32", ScalarType::kI32, ArgKind::kBufferWO);
  Val max32 = kb.ConstI(I32(), INT32_MAX);
  Val min32 = kb.ConstI(I32(), INT32_MIN);
  Val max64 = kb.ConstI(I64(), INT64_MAX);
  auto at = [&](int i) { return kb.ConstI(I32(), i); };
  kb.Store(o32, at(0), max32 + kb.ConstI(I32(), 1));
  kb.Store(o32, at(1), kb.ConstI(I32(), 3) * kb.ConstI(I32(), 0x9E3779B9LL));
  kb.Store(o32, at(2), min32 - kb.ConstI(I32(), 1));
  kb.Store(o32, at(3), kb.Unary(Opcode::kNeg, min32));
  kb.Store(o64, at(0), max64 + kb.ConstI(I64(), 1));
  kb.Store(o64, at(1), max64 * kb.ConstI(I64(), 3));
  kb.Store(v32, at(0),
           kb.ConstI(I32(4), INT32_MAX) * kb.ConstI(I32(4), 2));
  Program p = *kb.Build();

  std::int32_t out32[4] = {};
  std::int64_t out64[2] = {};
  std::int32_t vec32[4] = {};
  Bindings bindings;
  bindings.buffers = {{reinterpret_cast<std::byte*>(out32), 0x1000, 16},
                      {reinterpret_cast<std::byte*>(out64), 0x2000, 16},
                      {reinterpret_cast<std::byte*>(vec32), 0x3000, 16}};
  auto run = RunProgram(p, LaunchConfig{}, std::move(bindings));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(out32[0], INT32_MIN);
  EXPECT_EQ(out32[1], static_cast<std::int32_t>(3u * 0x9E3779B9u));
  EXPECT_EQ(out32[2], INT32_MAX);
  EXPECT_EQ(out32[3], INT32_MIN);
  EXPECT_EQ(out64[0], INT64_MIN);
  EXPECT_EQ(out64[1], INT64_MAX - 2);
  for (std::int32_t v : vec32) EXPECT_EQ(v, -2);
}

TEST(IntegerWrapTest, OverflowingDivisionIsAnError) {
  // MIN / -1 and MIN % -1 have no representable quotient and trap on the
  // host; KIR reports them like a zero divisor instead.
  for (const ScalarType t : {ScalarType::kI32, ScalarType::kI64}) {
    for (const Opcode op : {Opcode::kIDiv, Opcode::kIRem, Opcode::kDiv}) {
      KernelBuilder kb("div_overflow");
      auto out = kb.ArgBuffer("out", t, ArgKind::kBufferWO);
      const std::int64_t min =
          t == ScalarType::kI32 ? INT32_MIN : INT64_MIN;
      Val q = kb.Binary(op, kb.ConstI(Type(t, 1), min),
                        kb.ConstI(Type(t, 1), -1));
      kb.Store(out, kb.ConstI(I32(), 0), q);
      Program p = *kb.Build();
      std::int64_t result = 0;
      Bindings bindings;
      bindings.buffers = {{reinterpret_cast<std::byte*>(&result), 0x1000, 8}};
      auto run = RunProgram(p, LaunchConfig{}, std::move(bindings));
      ASSERT_FALSE(run.ok()) << ScalarTypeName(t) << " " << OpcodeName(op);
      EXPECT_EQ(run.status().code(), ErrorCode::kInvalidArgument);
      EXPECT_EQ(run.status().message(), "integer division overflow");
    }
  }
}

/// Runs `p`, which reads buffer 0 (`in`) and writes buffer 1 (`out_bytes`
/// long), over `items` work-items in groups of 8, under the VM (index 0)
/// and the reference interpreter (index 1); returns both output images.
template <typename In>
std::array<std::vector<std::byte>, 2> RunOnBothEngines(
    const Program& p, std::vector<In> in, std::size_t out_bytes,
    std::uint64_t items) {
  std::array<std::vector<std::byte>, 2> outs;
  LaunchConfig config;
  config.global_size = {items, 1, 1};
  config.local_size = {8, 1, 1};
  for (int engine = 0; engine < 2; ++engine) {
    std::vector<std::byte>& out = outs[static_cast<std::size_t>(engine)];
    out.assign(out_bytes, std::byte{0x5a});
    Bindings b;
    b.buffers = {{reinterpret_cast<std::byte*>(in.data()), 0x1000,
                  in.size() * sizeof(In)},
                 {out.data(), 0x8000, out.size()}};
    if (engine == 0) {
      const auto run = RunProgram(p, config, std::move(b));
      EXPECT_TRUE(run.ok()) << run.status().ToString();
    } else {
      StatusOr<ReferenceInterp> interp =
          ReferenceInterp::Create(&p, config, std::move(b));
      EXPECT_TRUE(interp.ok());
      WorkGroupRun run;
      EXPECT_TRUE(interp->RunAllGroups(nullptr, &run).ok());
    }
  }
  return outs;
}

template <typename T>
void ExpectAbsOfMinIsMin(ScalarType t) {
  KernelBuilder kb("abs_min");
  auto in = kb.ArgBuffer("in", t, ArgKind::kBufferRO);
  auto out = kb.ArgBuffer("out", t, ArgKind::kBufferWO);
  Val gid = kb.GlobalId(0);
  kb.Store(out, gid, kb.Abs(kb.Load(in, gid)));
  const Program p = *kb.Build();
  constexpr T kMin = std::numeric_limits<T>::min();
  constexpr T kMax = std::numeric_limits<T>::max();
  const std::vector<T> values = {kMin, -5, 7, kMax, -1, 0, kMin + 1, 42};
  const std::vector<T> want = {kMin, 5, 7, kMax, 1, 0, kMax, 42};
  std::vector<T> in_data = values;
  in_data.insert(in_data.end(), values.begin(), values.end());
  const auto outs =
      RunOnBothEngines(p, in_data, in_data.size() * sizeof(T), in_data.size());
  for (const std::vector<std::byte>& bytes : outs) {
    std::vector<T> got(in_data.size());
    std::memcpy(got.data(), bytes.data(), bytes.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i % want.size()]) << ScalarTypeName(t) << " " << i;
    }
  }
}

TEST(IntegerWrapTest, AbsOfMinIsMinOnBothEngines) {
  // OpenCL's abs returns the magnitude as unsigned: abs(MIN) has MIN's bit
  // pattern. std::abs(MIN) is signed overflow.
  ExpectAbsOfMinIsMin<std::int32_t>(ScalarType::kI32);
  ExpectAbsOfMinIsMin<std::int64_t>(ScalarType::kI64);
}

template <typename From, typename To>
void ExpectConvertSaturates(ScalarType from, ScalarType to) {
  KernelBuilder kb("convert_sat");
  auto in = kb.ArgBuffer("in", from, ArgKind::kBufferRO);
  auto out = kb.ArgBuffer("out", to, ArgKind::kBufferWO);
  Val gid = kb.GlobalId(0);
  kb.Store(out, gid, kb.Convert(kb.Load(in, gid), to));
  const Program p = *kb.Build();
  constexpr From kInf = std::numeric_limits<From>::infinity();
  constexpr To kMin = std::numeric_limits<To>::min();
  constexpr To kMax = std::numeric_limits<To>::max();
  const std::vector<From> values = {
      static_cast<From>(1e20), static_cast<From>(-1e20), kInf, -kInf,
      std::numeric_limits<From>::quiet_NaN(), static_cast<From>(3.75),
      static_cast<From>(-3.75), 0};
  const std::vector<To> want = {kMax, kMin, kMax, kMin, 0, 3, -3, 0};
  const auto outs =
      RunOnBothEngines(p, values, values.size() * sizeof(To), values.size());
  for (const std::vector<std::byte>& bytes : outs) {
    std::vector<To> got(values.size());
    std::memcpy(got.data(), bytes.data(), bytes.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << ScalarTypeName(from) << " -> "
                                 << ScalarTypeName(to) << " input "
                                 << static_cast<double>(values[i]);
    }
  }
}

TEST(ConvertTest, FloatToIntSaturatesAndNanIsZeroOnBothEngines) {
  // convert_<int>_sat / VCVT: out-of-range values clamp, NaN gives 0.
  ExpectConvertSaturates<float, std::int32_t>(ScalarType::kF32,
                                              ScalarType::kI32);
  ExpectConvertSaturates<float, std::int64_t>(ScalarType::kF32,
                                              ScalarType::kI64);
  ExpectConvertSaturates<double, std::int32_t>(ScalarType::kF64,
                                               ScalarType::kI32);
  ExpectConvertSaturates<double, std::int64_t>(ScalarType::kF64,
                                               ScalarType::kI64);
}

}  // namespace
}  // namespace malisim::kir
