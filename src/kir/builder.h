// Fluent builder for KIR programs.
//
// Benchmarks author their OpenCL kernels through this DSL; it plays the role
// OpenCL C source plays in the paper. Manual optimizations (vectorization,
// unrolling, SOA layout, qualifier hints) are expressed here, exactly as the
// paper's §III describes them as *source-level* transformations, while the
// device-side kernel compiler (src/mali) handles register allocation and
// resource limits.
//
//   KernelBuilder kb("vec_add");
//   auto x = kb.ArgBuffer("x", ScalarType::kF32, ArgKind::kBufferRO);
//   auto y = kb.ArgBuffer("y", ScalarType::kF32, ArgKind::kBufferRO);
//   auto out = kb.ArgBuffer("out", ScalarType::kF32, ArgKind::kBufferWO);
//   auto gid = kb.GlobalId(0);
//   kb.Store(out, gid, kb.Load(x, gid) + kb.Load(y, gid));
//   Program p = kb.Build().value();
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "kir/program.h"

namespace malisim::kir {

class KernelBuilder;

/// Handle to a virtual register. Cheap to copy. Arithmetic operators emit
/// instructions into the owning builder.
class Val {
 public:
  Val() = default;
  Val(KernelBuilder* kb, RegId reg, Type type) : kb_(kb), reg_(reg), type_(type) {}

  bool valid() const { return kb_ != nullptr; }
  RegId reg() const { return reg_; }
  Type type() const { return type_; }
  KernelBuilder* builder() const { return kb_; }

 private:
  KernelBuilder* kb_ = nullptr;
  RegId reg_ = kNoReg;
  Type type_;
};

/// Handle to a memory object (buffer argument or __local array).
struct BufferRef {
  KernelBuilder* kb = nullptr;
  std::uint8_t slot = 0;
  ScalarType elem = ScalarType::kF32;
};

class KernelBuilder {
 public:
  explicit KernelBuilder(std::string name);

  // --- declarations (must precede code emission for args) ---
  BufferRef ArgBuffer(const std::string& name, ScalarType elem,
                      ArgKind kind = ArgKind::kBufferRW,
                      bool is_restrict = false, bool is_const = false);
  /// Scalar kernel argument; materialized into a register at the top.
  Val ArgScalar(const std::string& name, ScalarType type);
  /// __local array shared by the work-group.
  BufferRef LocalArray(const std::string& name, ScalarType elem,
                       std::uint32_t elems);

  // --- constants and built-ins ---
  Val ConstI(Type type, std::int64_t value);
  Val ConstF(Type type, double value);
  Val GlobalId(int dim = 0);
  Val LocalId(int dim = 0);
  Val GroupId(int dim = 0);
  Val GlobalSize(int dim = 0);
  Val LocalSize(int dim = 0);
  Val NumGroups(int dim = 0);

  // --- mutable variables (loop-carried values) ---
  Val Var(Type type, const std::string& name);
  void Assign(Val var, Val value);

  // --- arithmetic ---
  Val Binary(Opcode op, Val a, Val b);
  Val Unary(Opcode op, Val a);
  Val Fma(Val a, Val b, Val c);
  Val Min(Val a, Val b) { return Binary(Opcode::kMin, a, b); }
  Val Max(Val a, Val b) { return Binary(Opcode::kMax, a, b); }
  Val Sqrt(Val a) { return Unary(Opcode::kSqrt, a); }
  Val Rsqrt(Val a) { return Unary(Opcode::kRsqrt, a); }
  Val Exp(Val a) { return Unary(Opcode::kExp, a); }
  Val Log(Val a) { return Unary(Opcode::kLog, a); }
  Val Sin(Val a) { return Unary(Opcode::kSin, a); }
  Val Cos(Val a) { return Unary(Opcode::kCos, a); }
  Val Abs(Val a) { return Unary(Opcode::kAbs, a); }
  Val Floor(Val a) { return Unary(Opcode::kFloor, a); }
  Val Shl(Val a, int amount);
  Val Shr(Val a, int amount);

  // --- lane manipulation ---
  Val Splat(Val scalar, std::uint8_t lanes);
  Val Extract(Val vec, int lane);
  Val Insert(Val vec, int lane, Val scalar);
  Val VSum(Val vec);
  /// Sliding window over two same-width vectors: result lane l is
  /// concat(a, b)[l + amount] — the NEON vext idiom optimized stencil /
  /// convolution kernels use to reuse one wide row load for several taps.
  Val Slide(Val a, Val b, int amount);
  Val Convert(Val v, ScalarType to);

  // --- comparison / select (masks are i32 with matching lanes) ---
  Val CmpLt(Val a, Val b) { return Compare(Opcode::kCmpLt, a, b); }
  Val CmpLe(Val a, Val b) { return Compare(Opcode::kCmpLe, a, b); }
  Val CmpEq(Val a, Val b) { return Compare(Opcode::kCmpEq, a, b); }
  Val CmpNe(Val a, Val b) { return Compare(Opcode::kCmpNe, a, b); }
  Val CmpGt(Val a, Val b) { return Compare(Opcode::kCmpLt, b, a); }
  Val CmpGe(Val a, Val b) { return Compare(Opcode::kCmpLe, b, a); }
  Val Select(Val cond, Val if_true, Val if_false);

  // --- memory ---
  /// Loads `lanes` consecutive `elem`-typed values starting at element index
  /// `index + offset`. lanes > 1 is an OpenCL vloadN.
  Val Load(BufferRef buf, Val index, std::int64_t offset = 0,
           std::uint8_t lanes = 1);
  void Store(BufferRef buf, Val index, Val value, std::int64_t offset = 0);
  void AtomicAdd(BufferRef buf, Val index, Val value, std::int64_t offset = 0);
  void Barrier();

  // --- control flow ---
  /// for (i32 i = start; i < end; i += step) body(i)
  void For(const std::string& var_name, Val start, Val end, std::int64_t step,
           const std::function<void(Val)>& body);
  void For(const std::string& var_name, std::int64_t start, Val end,
           std::int64_t step, const std::function<void(Val)>& body);
  /// For whose iterations are independent, like the loop an OpenMP
  /// `parallel for` splits: the same instructions as For, marked so the VM
  /// may run several iterations in lockstep. Build() rejects a body that
  /// breaks the contract (VerifyParallelLoop in program.h).
  void ParallelFor(const std::string& var_name, Val start, Val end,
                   std::int64_t step, const std::function<void(Val)>& body);
  /// Manually unrolled loop: the body is emitted `factor` times per main-loop
  /// iteration (i, i+step, ..., i+(factor-1)*step) followed by a remainder
  /// loop — the §III-B "loop unrolling" optimization, code replication and
  /// register-pressure growth included.
  void ForUnrolled(const std::string& var_name, Val start, Val end,
                   std::int64_t step, int factor,
                   const std::function<void(Val)>& body);
  void If(Val cond, const std::function<void()>& then_body,
          const std::function<void()>& else_body = nullptr);

  /// Finalizes and verifies. The builder must not be reused afterwards.
  StatusOr<Program> Build();

  /// Number of instructions emitted so far (used by tests).
  std::size_t code_size() const { return program_.code.size(); }

 private:
  friend class Val;
  Val Compare(Opcode op, Val a, Val b);
  RegId NewReg(Type type, const std::string& name = "");
  Instr& Emit(Opcode op);
  Val Builtin(Opcode op, int dim);
  void Loop(const std::string& var_name, Val start, Val end, std::int64_t step,
            bool parallel, const std::function<void(Val)>& body);
  void CheckOwned(Val v) const;

  Program program_;
  std::uint32_t num_scalar_args_ = 0;
  bool built_ = false;
};

// Operator sugar. Mixed Val/arithmetic-constant operands materialize a
// matching-typed constant.
Val operator+(Val a, Val b);
Val operator-(Val a, Val b);
Val operator*(Val a, Val b);
Val operator/(Val a, Val b);
Val operator+(Val a, double c);
Val operator-(Val a, double c);
Val operator*(Val a, double c);
Val operator/(Val a, double c);
Val operator+(double c, Val b);
Val operator*(double c, Val b);
Val operator-(double c, Val b);
Val operator-(Val a);
Val operator&(Val a, Val b);
Val operator|(Val a, Val b);
Val operator^(Val a, Val b);

}  // namespace malisim::kir
