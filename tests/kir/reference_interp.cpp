#include "reference_interp.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "kir/interp.h"

namespace malisim::kir {
namespace {

/// Applies `a OPR b` lane-wise to floats and the wrapping `IFN(a, b)` to
/// integers, for the instruction's scalar type.
#define MALI_BIN_ALL_TYPES(D, A, B, OPR, IFN)                              \
  switch (type.scalar) {                                                   \
    case ScalarType::kF32:                                                 \
      for (int l = 0; l < lanes; ++l) (D).f32[l] = (A).f32[l] OPR(B).f32[l]; \
      break;                                                               \
    case ScalarType::kF64:                                                 \
      for (int l = 0; l < lanes; ++l) (D).f64[l] = (A).f64[l] OPR(B).f64[l]; \
      break;                                                               \
    case ScalarType::kI32:                                                 \
      for (int l = 0; l < lanes; ++l) (D).i32[l] = IFN((A).i32[l], (B).i32[l]); \
      break;                                                               \
    case ScalarType::kI64:                                                 \
      for (int l = 0; l < lanes; ++l) (D).i64[l] = IFN((A).i64[l], (B).i64[l]); \
      break;                                                               \
  }

/// Applies a comparison lane-wise, producing an i32 mask.
#define MALI_CMP_ALL_TYPES(D, A, B, OPR, SRC_TYPE)                           \
  switch (SRC_TYPE) {                                                        \
    case ScalarType::kF32:                                                   \
      for (int l = 0; l < lanes; ++l) (D).i32[l] = (A).f32[l] OPR(B).f32[l]; \
      break;                                                                 \
    case ScalarType::kF64:                                                   \
      for (int l = 0; l < lanes; ++l) (D).i32[l] = (A).f64[l] OPR(B).f64[l]; \
      break;                                                                 \
    case ScalarType::kI32:                                                   \
      for (int l = 0; l < lanes; ++l) (D).i32[l] = (A).i32[l] OPR(B).i32[l]; \
      break;                                                                 \
    case ScalarType::kI64:                                                   \
      for (int l = 0; l < lanes; ++l) (D).i32[l] = (A).i64[l] OPR(B).i64[l]; \
      break;                                                                 \
  }

/// Applies a float unary function lane-wise.
#define MALI_UN_FLOAT(D, A, FN32, FN64)                          \
  switch (type.scalar) {                                         \
    case ScalarType::kF32:                                       \
      for (int l = 0; l < lanes; ++l) (D).f32[l] = FN32((A).f32[l]); \
      break;                                                     \
    case ScalarType::kF64:                                       \
      for (int l = 0; l < lanes; ++l) (D).f64[l] = FN64((A).f64[l]); \
      break;                                                     \
    default:                                                     \
      return InternalError("float-only op on integer register"); \
  }

}  // namespace

StatusOr<ReferenceInterp> ReferenceInterp::Create(const Program* program,
                                                  LaunchConfig config,
                                                  Bindings bindings) {
  MALI_CHECK(program != nullptr);
  MALI_RETURN_IF_ERROR(ValidateLaunch(*program, config, bindings));
  return ReferenceInterp(program, config, std::move(bindings));
}

ReferenceInterp::ReferenceInterp(const Program* program, LaunchConfig config,
                                 Bindings bindings)
    : p_(program), config_(config), bindings_(std::move(bindings)) {
  num_regs_ = static_cast<std::uint32_t>(p_->regs.size());

  // Slot table: buffer args first, then locals carved out of the scratch.
  std::size_t buf_idx = 0;
  for (const ArgDecl& arg : p_->args) {
    if (arg.kind == ArgKind::kScalar) continue;
    const BufferBinding& b = bindings_.buffers[buf_idx++];
    slots_.push_back({b.host, b.sim_addr, b.size_bytes, ScalarBytes(arg.elem)});
  }
  std::uint64_t local_off = 0;
  for (const LocalArrayDecl& local : p_->locals) {
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(local.elems) * ScalarBytes(local.elem);
    slots_.push_back({bindings_.local_scratch.host + local_off,
                      bindings_.local_scratch.sim_addr + local_off, bytes,
                      ScalarBytes(local.elem)});
    local_off += bytes;
  }

  // Pre-decode per-instruction metadata.
  decoded_.reserve(p_->code.size());
  for (const Instr& in : p_->code) {
    Decoded d;
    const OpClass cls = ClassifyOpcode(in.op);
    const Type t = in.type;
    d.lanes = t.lanes;
    d.hist_idx = OpHistogram::Index(cls, t.scalar, LaneIndex(t.lanes));
    if (in.op == Opcode::kLoad || in.op == Opcode::kStore ||
        in.op == Opcode::kAtomicAddI32) {
      d.access_bytes = ScalarBytes(t.scalar) * t.lanes;
    }
    decoded_.push_back(d);
  }

  const std::uint64_t threads =
      p_->has_barrier() ? config_.work_group_size() : 1;
  reg_arena_.resize(threads * num_regs_);
  if (p_->has_barrier()) {
    barrier_pcs_.resize(threads);
    barrier_weights_.resize(threads);
    barrier_ctxs_.reserve(threads);
  }
}

Status ReferenceInterp::RunGroup(const std::array<std::uint64_t, 3>& group_id,
                                 MemRecorder* recorder, WorkGroupRun* out) {
  MALI_CHECK(out != nullptr);
  const auto groups = config_.num_groups();
  for (int d = 0; d < 3; ++d) {
    if (group_id[d] >= groups[d]) {
      return OutOfRangeError("group id out of range");
    }
  }
  const std::uint64_t l0 = config_.local_size[0];
  const std::uint64_t l1 = config_.local_size[1];
  const std::uint64_t l2 = config_.local_size[2];
  const std::uint64_t wg = l0 * l1 * l2;

  auto make_ctx = [&](std::uint64_t t) {
    ThreadCtx ctx;
    const std::uint64_t lx = t % l0;
    const std::uint64_t ly = (t / l0) % l1;
    const std::uint64_t lz = t / (l0 * l1);
    const std::uint64_t local[3] = {lx, ly, lz};
    for (int d = 0; d < 3; ++d) {
      ctx.local_id[d] = static_cast<std::int32_t>(local[d]);
      ctx.group_id[d] = static_cast<std::int32_t>(group_id[d]);
      ctx.global_id[d] = static_cast<std::int32_t>(
          group_id[d] * config_.local_size[d] + local[d]);
    }
    return ctx;
  };

  if (!p_->has_barrier()) {
    // Fast path: one work-item at a time, one register set.
    RegValue* regs = reg_arena_.data();
    std::uint64_t max_item_weight = 0;
    const std::uint64_t group_start = steps_executed_;
    for (std::uint64_t t = 0; t < wg; ++t) {
      std::memset(static_cast<void*>(regs), 0, sizeof(RegValue) * num_regs_);
      const ThreadCtx ctx = make_ctx(t);
      const std::uint64_t item_start = steps_executed_;
      MALI_RETURN_IF_ERROR(RunStraight(ctx, regs, recorder, out));
      max_item_weight = std::max(max_item_weight, steps_executed_ - item_start);
      ++out->work_items;
    }
    out->item_weight_sum += steps_executed_ - group_start;
    out->weighted_group_cost += max_item_weight * wg;
    return Status::Ok();
  }

  // Barrier path: all work-items advance in run-to-barrier phases. The
  // per-item scratch vectors are executor members, sized at construction.
  std::memset(static_cast<void*>(reg_arena_.data()), 0,
              sizeof(RegValue) * reg_arena_.size());
  std::fill(barrier_pcs_.begin(), barrier_pcs_.end(), 0u);
  std::fill(barrier_weights_.begin(), barrier_weights_.end(),
            std::uint64_t{0});
  barrier_ctxs_.clear();
  for (std::uint64_t t = 0; t < wg; ++t) barrier_ctxs_.push_back(make_ctx(t));

  const std::uint64_t group_start = steps_executed_;
  bool done = false;
  while (!done) {
    std::uint64_t finished = 0;
    std::uint64_t at_barrier = 0;
    for (std::uint64_t t = 0; t < wg; ++t) {
      RegValue* regs = reg_arena_.data() + t * num_regs_;
      const std::uint64_t item_start = steps_executed_;
      StatusOr<StopReason> stop =
          RunToBarrier(barrier_ctxs_[t], regs, &barrier_pcs_[t], recorder,
                       out);
      barrier_weights_[t] += steps_executed_ - item_start;
      if (!stop.ok()) return stop.status();
      if (*stop == StopReason::kDone) {
        ++finished;
      } else {
        ++at_barrier;
      }
    }
    if (at_barrier > 0 && finished > 0) {
      return InvalidArgumentError(
          "barrier divergence in kernel '" + p_->name +
          "': not all work-items reach the same barrier");
    }
    if (at_barrier > 0) ++out->barriers_crossed;
    done = finished == wg;
  }
  out->work_items += wg;
  std::uint64_t max_item_weight = 0;
  for (std::uint64_t w : barrier_weights_) max_item_weight = std::max(max_item_weight, w);
  out->item_weight_sum += steps_executed_ - group_start;
  out->weighted_group_cost += max_item_weight * wg;
  return Status::Ok();
}

Status ReferenceInterp::RunAllGroups(MemRecorder* recorder,
                                     WorkGroupRun* out) {
  const auto groups = config_.num_groups();
  for (std::uint64_t gz = 0; gz < groups[2]; ++gz) {
    for (std::uint64_t gy = 0; gy < groups[1]; ++gy) {
      for (std::uint64_t gx = 0; gx < groups[0]; ++gx) {
        MALI_RETURN_IF_ERROR(RunGroup({gx, gy, gz}, recorder, out));
      }
    }
  }
  return Status::Ok();
}

Status ReferenceInterp::RunStraight(const ThreadCtx& ctx, RegValue* regs,
                                    MemRecorder* recorder, WorkGroupRun* out) {
  std::uint32_t pc = 0;
  const std::uint32_t end = static_cast<std::uint32_t>(p_->code.size());
  while (pc < end) {
    MALI_RETURN_IF_ERROR(Step(ctx, regs, &pc, recorder, out));
  }
  return Status::Ok();
}

StatusOr<ReferenceInterp::StopReason> ReferenceInterp::RunToBarrier(
    const ThreadCtx& ctx, RegValue* regs, std::uint32_t* pc,
    MemRecorder* recorder, WorkGroupRun* out) {
  const std::uint32_t end = static_cast<std::uint32_t>(p_->code.size());
  while (*pc < end) {
    if (p_->code[*pc].op == Opcode::kBarrier) {
      out->ops.AddAt(decoded_[*pc].hist_idx);
      if (opcode_tally_ != nullptr) {
        ++opcode_tally_[static_cast<std::size_t>(Opcode::kBarrier)];
      }
      ++*pc;
      return StopReason::kBarrier;
    }
    MALI_RETURN_IF_ERROR(Step(ctx, regs, pc, recorder, out));
  }
  return StopReason::kDone;
}

Status ReferenceInterp::Step(const ThreadCtx& ctx, RegValue* regs,
                             std::uint32_t* pc, MemRecorder* recorder,
                             WorkGroupRun* out) {
  const std::uint32_t i = *pc;
  const Instr& in = p_->code[i];
  const Decoded& dec = decoded_[i];
  const Type type = in.type;
  const int lanes = dec.lanes;
  out->ops.AddAt(dec.hist_idx);
  ++steps_executed_;
  if (opcode_tally_ != nullptr) {
    ++opcode_tally_[static_cast<std::size_t>(in.op)];
  }

  RegValue& D = regs[in.dst];
  const RegValue& A = regs[in.a];
  const RegValue& B = regs[in.b];
  const RegValue& C = regs[in.c];

  std::uint32_t next = i + 1;
  switch (in.op) {
    case Opcode::kConstI:
      switch (type.scalar) {
        case ScalarType::kF32:
          for (int l = 0; l < lanes; ++l) D.f32[l] = static_cast<float>(in.imm);
          break;
        case ScalarType::kF64:
          for (int l = 0; l < lanes; ++l) D.f64[l] = static_cast<double>(in.imm);
          break;
        case ScalarType::kI32:
          for (int l = 0; l < lanes; ++l) D.i32[l] = static_cast<std::int32_t>(in.imm);
          break;
        case ScalarType::kI64:
          for (int l = 0; l < lanes; ++l) D.i64[l] = in.imm;
          break;
      }
      break;
    case Opcode::kConstF:
      if (type.scalar == ScalarType::kF32) {
        for (int l = 0; l < lanes; ++l) D.f32[l] = static_cast<float>(in.fimm);
      } else {
        for (int l = 0; l < lanes; ++l) D.f64[l] = in.fimm;
      }
      break;
    case Opcode::kArg: {
      const ScalarValue& sv = bindings_.scalars[static_cast<std::size_t>(in.imm)];
      switch (type.scalar) {
        case ScalarType::kF32:
          D.f32[0] = static_cast<float>(sv.f);
          break;
        case ScalarType::kF64:
          D.f64[0] = sv.f;
          break;
        case ScalarType::kI32:
          D.i32[0] = static_cast<std::int32_t>(sv.i);
          break;
        case ScalarType::kI64:
          D.i64[0] = sv.i;
          break;
      }
      break;
    }
    case Opcode::kGlobalId:
      D.i32[0] = ctx.global_id[in.imm];
      break;
    case Opcode::kLocalId:
      D.i32[0] = ctx.local_id[in.imm];
      break;
    case Opcode::kGroupId:
      D.i32[0] = ctx.group_id[in.imm];
      break;
    case Opcode::kGlobalSize:
      D.i32[0] = static_cast<std::int32_t>(config_.global_size[in.imm]);
      break;
    case Opcode::kLocalSize:
      D.i32[0] = static_cast<std::int32_t>(config_.local_size[in.imm]);
      break;
    case Opcode::kNumGroups:
      D.i32[0] = static_cast<std::int32_t>(config_.num_groups()[in.imm]);
      break;
    case Opcode::kMov:
      D = A;
      break;
    case Opcode::kAdd:
      MALI_BIN_ALL_TYPES(D, A, B, +, WrapAdd)
      break;
    case Opcode::kSub:
      MALI_BIN_ALL_TYPES(D, A, B, -, WrapSub)
      break;
    case Opcode::kMul:
      MALI_BIN_ALL_TYPES(D, A, B, *, WrapMul)
      break;
    case Opcode::kDiv:
      switch (type.scalar) {
        case ScalarType::kF32:
          for (int l = 0; l < lanes; ++l) D.f32[l] = A.f32[l] / B.f32[l];
          break;
        case ScalarType::kF64:
          for (int l = 0; l < lanes; ++l) D.f64[l] = A.f64[l] / B.f64[l];
          break;
        case ScalarType::kI32:
          for (int l = 0; l < lanes; ++l) {
            if (B.i32[l] == 0) return InvalidArgumentError("integer division by zero");
            if (DivOverflows(A.i32[l], B.i32[l])) {
              return InvalidArgumentError("integer division overflow");
            }
            D.i32[l] = A.i32[l] / B.i32[l];
          }
          break;
        case ScalarType::kI64:
          for (int l = 0; l < lanes; ++l) {
            if (B.i64[l] == 0) return InvalidArgumentError("integer division by zero");
            if (DivOverflows(A.i64[l], B.i64[l])) {
              return InvalidArgumentError("integer division overflow");
            }
            D.i64[l] = A.i64[l] / B.i64[l];
          }
          break;
      }
      break;
    case Opcode::kIDiv:
    case Opcode::kIRem: {
      const bool is_rem = in.op == Opcode::kIRem;
      if (type.scalar == ScalarType::kI32) {
        for (int l = 0; l < lanes; ++l) {
          if (B.i32[l] == 0) return InvalidArgumentError("integer division by zero");
          if (DivOverflows(A.i32[l], B.i32[l])) {
            return InvalidArgumentError("integer division overflow");
          }
          D.i32[l] = is_rem ? A.i32[l] % B.i32[l] : A.i32[l] / B.i32[l];
        }
      } else {
        for (int l = 0; l < lanes; ++l) {
          if (B.i64[l] == 0) return InvalidArgumentError("integer division by zero");
          if (DivOverflows(A.i64[l], B.i64[l])) {
            return InvalidArgumentError("integer division overflow");
          }
          D.i64[l] = is_rem ? A.i64[l] % B.i64[l] : A.i64[l] / B.i64[l];
        }
      }
      break;
    }
    case Opcode::kMin:
      switch (type.scalar) {
        case ScalarType::kF32:
          for (int l = 0; l < lanes; ++l) D.f32[l] = std::fmin(A.f32[l], B.f32[l]);
          break;
        case ScalarType::kF64:
          for (int l = 0; l < lanes; ++l) D.f64[l] = std::fmin(A.f64[l], B.f64[l]);
          break;
        case ScalarType::kI32:
          for (int l = 0; l < lanes; ++l) D.i32[l] = std::min(A.i32[l], B.i32[l]);
          break;
        case ScalarType::kI64:
          for (int l = 0; l < lanes; ++l) D.i64[l] = std::min(A.i64[l], B.i64[l]);
          break;
      }
      break;
    case Opcode::kMax:
      switch (type.scalar) {
        case ScalarType::kF32:
          for (int l = 0; l < lanes; ++l) D.f32[l] = std::fmax(A.f32[l], B.f32[l]);
          break;
        case ScalarType::kF64:
          for (int l = 0; l < lanes; ++l) D.f64[l] = std::fmax(A.f64[l], B.f64[l]);
          break;
        case ScalarType::kI32:
          for (int l = 0; l < lanes; ++l) D.i32[l] = std::max(A.i32[l], B.i32[l]);
          break;
        case ScalarType::kI64:
          for (int l = 0; l < lanes; ++l) D.i64[l] = std::max(A.i64[l], B.i64[l]);
          break;
      }
      break;
    case Opcode::kFma:
      if (type.scalar == ScalarType::kF32) {
        for (int l = 0; l < lanes; ++l) D.f32[l] = A.f32[l] * B.f32[l] + C.f32[l];
      } else {
        for (int l = 0; l < lanes; ++l) D.f64[l] = A.f64[l] * B.f64[l] + C.f64[l];
      }
      break;
    case Opcode::kNeg:
      switch (type.scalar) {
        case ScalarType::kF32:
          for (int l = 0; l < lanes; ++l) D.f32[l] = -A.f32[l];
          break;
        case ScalarType::kF64:
          for (int l = 0; l < lanes; ++l) D.f64[l] = -A.f64[l];
          break;
        case ScalarType::kI32:
          for (int l = 0; l < lanes; ++l) D.i32[l] = WrapNeg(A.i32[l]);
          break;
        case ScalarType::kI64:
          for (int l = 0; l < lanes; ++l) D.i64[l] = WrapNeg(A.i64[l]);
          break;
      }
      break;
    case Opcode::kAbs:
      switch (type.scalar) {
        case ScalarType::kF32:
          for (int l = 0; l < lanes; ++l) D.f32[l] = std::fabs(A.f32[l]);
          break;
        case ScalarType::kF64:
          for (int l = 0; l < lanes; ++l) D.f64[l] = std::fabs(A.f64[l]);
          break;
        case ScalarType::kI32:
          for (int l = 0; l < lanes; ++l) D.i32[l] = WrapAbs(A.i32[l]);
          break;
        case ScalarType::kI64:
          for (int l = 0; l < lanes; ++l) D.i64[l] = WrapAbs(A.i64[l]);
          break;
      }
      break;
    case Opcode::kFloor:
      MALI_UN_FLOAT(D, A, std::floor, std::floor)
      break;
    case Opcode::kSqrt:
      MALI_UN_FLOAT(D, A, std::sqrt, std::sqrt)
      break;
    case Opcode::kRsqrt:
      MALI_UN_FLOAT(D, A, 1.0f / std::sqrt, 1.0 / std::sqrt)
      break;
    case Opcode::kExp:
      MALI_UN_FLOAT(D, A, std::exp, std::exp)
      break;
    case Opcode::kLog:
      MALI_UN_FLOAT(D, A, std::log, std::log)
      break;
    case Opcode::kSin:
      MALI_UN_FLOAT(D, A, std::sin, std::sin)
      break;
    case Opcode::kCos:
      MALI_UN_FLOAT(D, A, std::cos, std::cos)
      break;
    case Opcode::kAnd:
      if (type.scalar == ScalarType::kI32) {
        for (int l = 0; l < lanes; ++l) D.i32[l] = A.i32[l] & B.i32[l];
      } else {
        for (int l = 0; l < lanes; ++l) D.i64[l] = A.i64[l] & B.i64[l];
      }
      break;
    case Opcode::kOr:
      if (type.scalar == ScalarType::kI32) {
        for (int l = 0; l < lanes; ++l) D.i32[l] = A.i32[l] | B.i32[l];
      } else {
        for (int l = 0; l < lanes; ++l) D.i64[l] = A.i64[l] | B.i64[l];
      }
      break;
    case Opcode::kXor:
      if (type.scalar == ScalarType::kI32) {
        for (int l = 0; l < lanes; ++l) D.i32[l] = A.i32[l] ^ B.i32[l];
      } else {
        for (int l = 0; l < lanes; ++l) D.i64[l] = A.i64[l] ^ B.i64[l];
      }
      break;
    case Opcode::kNot:
      if (type.scalar == ScalarType::kI32) {
        for (int l = 0; l < lanes; ++l) D.i32[l] = ~A.i32[l];
      } else {
        for (int l = 0; l < lanes; ++l) D.i64[l] = ~A.i64[l];
      }
      break;
    case Opcode::kShl:
      if (type.scalar == ScalarType::kI32) {
        for (int l = 0; l < lanes; ++l) {
          D.i32[l] = static_cast<std::int32_t>(
              static_cast<std::uint32_t>(A.i32[l]) << in.imm);
        }
      } else {
        for (int l = 0; l < lanes; ++l) {
          D.i64[l] = static_cast<std::int64_t>(
              static_cast<std::uint64_t>(A.i64[l]) << in.imm);
        }
      }
      break;
    case Opcode::kShr:
      if (type.scalar == ScalarType::kI32) {
        for (int l = 0; l < lanes; ++l) {
          D.i32[l] = static_cast<std::int32_t>(
              static_cast<std::uint32_t>(A.i32[l]) >> in.imm);
        }
      } else {
        for (int l = 0; l < lanes; ++l) {
          D.i64[l] = static_cast<std::int64_t>(
              static_cast<std::uint64_t>(A.i64[l]) >> in.imm);
        }
      }
      break;
    case Opcode::kCmpLt:
      MALI_CMP_ALL_TYPES(D, A, B, <, p_->regs[in.a].type.scalar)
      break;
    case Opcode::kCmpLe:
      MALI_CMP_ALL_TYPES(D, A, B, <=, p_->regs[in.a].type.scalar)
      break;
    case Opcode::kCmpEq:
      MALI_CMP_ALL_TYPES(D, A, B, ==, p_->regs[in.a].type.scalar)
      break;
    case Opcode::kCmpNe:
      MALI_CMP_ALL_TYPES(D, A, B, !=, p_->regs[in.a].type.scalar)
      break;
    case Opcode::kSelect:
      switch (type.scalar) {
        case ScalarType::kF32:
          for (int l = 0; l < lanes; ++l) D.f32[l] = A.i32[l] ? B.f32[l] : C.f32[l];
          break;
        case ScalarType::kF64:
          for (int l = 0; l < lanes; ++l) D.f64[l] = A.i32[l] ? B.f64[l] : C.f64[l];
          break;
        case ScalarType::kI32:
          for (int l = 0; l < lanes; ++l) D.i32[l] = A.i32[l] ? B.i32[l] : C.i32[l];
          break;
        case ScalarType::kI64:
          for (int l = 0; l < lanes; ++l) D.i64[l] = A.i32[l] ? B.i64[l] : C.i64[l];
          break;
      }
      break;
    case Opcode::kConvert: {
      const ScalarType from = p_->regs[in.a].type.scalar;
      for (int l = 0; l < lanes; ++l) {
        double fv = 0.0;
        std::int64_t iv = 0;
        bool is_float_src = true;
        switch (from) {
          case ScalarType::kF32:
            fv = static_cast<double>(A.f32[l]);
            break;
          case ScalarType::kF64:
            fv = A.f64[l];
            break;
          case ScalarType::kI32:
            iv = A.i32[l];
            is_float_src = false;
            break;
          case ScalarType::kI64:
            iv = A.i64[l];
            is_float_src = false;
            break;
        }
        switch (type.scalar) {
          case ScalarType::kF32:
            D.f32[l] = is_float_src ? static_cast<float>(fv)
                                    : static_cast<float>(iv);
            break;
          case ScalarType::kF64:
            D.f64[l] = is_float_src ? fv : static_cast<double>(iv);
            break;
          case ScalarType::kI32:
            D.i32[l] = is_float_src ? SatConvert<std::int32_t>(fv)
                                    : static_cast<std::int32_t>(iv);
            break;
          case ScalarType::kI64:
            D.i64[l] = is_float_src ? SatConvert<std::int64_t>(fv) : iv;
            break;
        }
      }
      break;
    }
    case Opcode::kSplat:
      switch (type.scalar) {
        case ScalarType::kF32:
          for (int l = 0; l < lanes; ++l) D.f32[l] = A.f32[0];
          break;
        case ScalarType::kF64:
          for (int l = 0; l < lanes; ++l) D.f64[l] = A.f64[0];
          break;
        case ScalarType::kI32:
          for (int l = 0; l < lanes; ++l) D.i32[l] = A.i32[0];
          break;
        case ScalarType::kI64:
          for (int l = 0; l < lanes; ++l) D.i64[l] = A.i64[0];
          break;
      }
      break;
    case Opcode::kExtract:
      switch (type.scalar) {
        case ScalarType::kF32:
          D.f32[0] = A.f32[in.imm];
          break;
        case ScalarType::kF64:
          D.f64[0] = A.f64[in.imm];
          break;
        case ScalarType::kI32:
          D.i32[0] = A.i32[in.imm];
          break;
        case ScalarType::kI64:
          D.i64[0] = A.i64[in.imm];
          break;
      }
      break;
    case Opcode::kInsert:
      D = A;
      switch (type.scalar) {
        case ScalarType::kF32:
          D.f32[in.imm] = B.f32[0];
          break;
        case ScalarType::kF64:
          D.f64[in.imm] = B.f64[0];
          break;
        case ScalarType::kI32:
          D.i32[in.imm] = B.i32[0];
          break;
        case ScalarType::kI64:
          D.i64[in.imm] = B.i64[0];
          break;
      }
      break;
    case Opcode::kSlide: {
      // dst[l] = concat(a, b)[l + imm]; lanes beyond come from b.
      const int shift = static_cast<int>(in.imm);
      RegValue tmp;  // allow dst aliasing a or b
      switch (type.scalar) {
        case ScalarType::kF32:
          for (int l = 0; l < lanes; ++l) {
            const int s = l + shift;
            tmp.f32[l] = s < lanes ? A.f32[s] : B.f32[s - lanes];
          }
          for (int l = 0; l < lanes; ++l) D.f32[l] = tmp.f32[l];
          break;
        case ScalarType::kF64:
          for (int l = 0; l < lanes; ++l) {
            const int s = l + shift;
            tmp.f64[l] = s < lanes ? A.f64[s] : B.f64[s - lanes];
          }
          for (int l = 0; l < lanes; ++l) D.f64[l] = tmp.f64[l];
          break;
        case ScalarType::kI32:
          for (int l = 0; l < lanes; ++l) {
            const int s = l + shift;
            tmp.i32[l] = s < lanes ? A.i32[s] : B.i32[s - lanes];
          }
          for (int l = 0; l < lanes; ++l) D.i32[l] = tmp.i32[l];
          break;
        case ScalarType::kI64:
          for (int l = 0; l < lanes; ++l) {
            const int s = l + shift;
            tmp.i64[l] = s < lanes ? A.i64[s] : B.i64[s - lanes];
          }
          for (int l = 0; l < lanes; ++l) D.i64[l] = tmp.i64[l];
          break;
      }
      break;
    }
    case Opcode::kVSum: {
      const int src_lanes = p_->regs[in.a].type.lanes;
      switch (type.scalar) {
        case ScalarType::kF32: {
          float s = 0.0f;
          for (int l = 0; l < src_lanes; ++l) s += A.f32[l];
          D.f32[0] = s;
          break;
        }
        case ScalarType::kF64: {
          double s = 0.0;
          for (int l = 0; l < src_lanes; ++l) s += A.f64[l];
          D.f64[0] = s;
          break;
        }
        case ScalarType::kI32: {
          std::int32_t s = 0;
          for (int l = 0; l < src_lanes; ++l) s = WrapAdd(s, A.i32[l]);
          D.i32[0] = s;
          break;
        }
        case ScalarType::kI64: {
          std::int64_t s = 0;
          for (int l = 0; l < src_lanes; ++l) s = WrapAdd(s, A.i64[l]);
          D.i64[0] = s;
          break;
        }
      }
      break;
    }
    case Opcode::kLoad: {
      const Slot& slot = slots_[in.slot];
      const std::int64_t elem = static_cast<std::int64_t>(A.i32[0]) + in.imm;
      const std::uint64_t off = static_cast<std::uint64_t>(elem) * slot.elem_bytes;
      if (elem < 0 || off + dec.access_bytes > slot.size_bytes) {
        return OutOfRangeError("load out of bounds in kernel '" + p_->name +
                               "' (element " + std::to_string(elem) + ")");
      }
      std::memcpy(D.raw, slot.host + off, dec.access_bytes);
      if (recorder != nullptr) {
        recorder->Record(slot.sim_addr + off, dec.access_bytes,
                         MemEvent::kRead);
      }
      ++out->loads;
      out->load_bytes += dec.access_bytes;
      break;
    }
    case Opcode::kStore: {
      const Slot& slot = slots_[in.slot];
      const std::int64_t elem = static_cast<std::int64_t>(B.i32[0]) + in.imm;
      const std::uint64_t off = static_cast<std::uint64_t>(elem) * slot.elem_bytes;
      if (elem < 0 || off + dec.access_bytes > slot.size_bytes) {
        return OutOfRangeError("store out of bounds in kernel '" + p_->name +
                               "' (element " + std::to_string(elem) + ")");
      }
      std::memcpy(slot.host + off, A.raw, dec.access_bytes);
      if (recorder != nullptr) {
        recorder->Record(slot.sim_addr + off, dec.access_bytes,
                         MemEvent::kWrite);
      }
      ++out->stores;
      out->store_bytes += dec.access_bytes;
      break;
    }
    case Opcode::kAtomicAddI32: {
      const Slot& slot = slots_[in.slot];
      const std::int64_t elem = static_cast<std::int64_t>(B.i32[0]) + in.imm;
      const std::uint64_t off = static_cast<std::uint64_t>(elem) * slot.elem_bytes;
      if (elem < 0 || off + 4 > slot.size_bytes) {
        return OutOfRangeError("atomic out of bounds in kernel '" + p_->name +
                               "'");
      }
      std::int32_t old = 0;
      std::memcpy(&old, slot.host + off, 4);
      const std::int32_t sum = WrapAdd(old, A.i32[0]);
      std::memcpy(slot.host + off, &sum, 4);
      if (recorder != nullptr) {
        recorder->Record(slot.sim_addr + off, 4, MemEvent::kAtomic);
      }
      ++out->atomics;
      break;
    }
    case Opcode::kBarrier:
      // Only reachable on the no-barrier fast path if the program lied;
      // RunToBarrier intercepts barriers before Step on the barrier path.
      return InternalError("barrier reached outside phased execution");
    case Opcode::kLoopBegin: {
      D.i32[0] = A.i32[0];
      if (D.i32[0] >= B.i32[0]) next = in.match + 1;
      break;
    }
    case Opcode::kLoopEnd: {
      const Instr& begin = p_->code[in.match];
      RegValue& var = regs[begin.dst];
      var.i32[0] += static_cast<std::int32_t>(begin.imm);
      if (var.i32[0] < regs[begin.b].i32[0]) next = in.match + 1;
      break;
    }
    case Opcode::kIfBegin:
      if (A.i32[0] == 0) next = in.match + 1;
      break;
    case Opcode::kElse:
      next = in.match;  // jump to the matching endif (fall past it)
      break;
    case Opcode::kIfEnd:
      break;
    case Opcode::kNumOpcodes:
      return InternalError("invalid opcode");
  }
  *pc = next;
  return Status::Ok();
}

#undef MALI_BIN_ALL_TYPES
#undef MALI_CMP_ALL_TYPES
#undef MALI_UN_FLOAT

}  // namespace malisim::kir
