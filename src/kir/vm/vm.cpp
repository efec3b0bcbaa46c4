#include "kir/vm/vm.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

namespace malisim::kir::vm {

StatusOr<VmExecutor> VmExecutor::Create(
    const Program* program, std::shared_ptr<const CompiledProgram> code,
    LaunchConfig config, Bindings bindings) {
  MALI_CHECK(program != nullptr && code != nullptr);
  MALI_RETURN_IF_ERROR(ValidateLaunch(*program, config, bindings));
  if (code->source_len != program->code.size() ||
      code->name != program->name) {
    return InternalError("bytecode does not match program '" + program->name +
                         "'");
  }
  return VmExecutor(program, std::move(code), config, std::move(bindings));
}

VmExecutor::VmExecutor(const Program* program,
                       std::shared_ptr<const CompiledProgram> code,
                       LaunchConfig config, Bindings bindings)
    : p_(program),
      code_(std::move(code)),
      config_(config),
      bindings_(std::move(bindings)) {
  num_regs_ = code_->num_regs;

  // Slot table: buffer args first, then locals carved out of the scratch —
  // identical to the interpreter (the bytecode burned the element sizes).
  std::size_t buf_idx = 0;
  for (const ArgDecl& arg : p_->args) {
    if (arg.kind == ArgKind::kScalar) continue;
    const BufferBinding& b = bindings_.buffers[buf_idx++];
    slots_.push_back({b.host, b.sim_addr, b.size_bytes});
  }
  std::uint64_t local_off = 0;
  for (const LocalArrayDecl& local : p_->locals) {
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(local.elems) * ScalarBytes(local.elem);
    slots_.push_back({bindings_.local_scratch.host + local_off,
                      bindings_.local_scratch.sim_addr + local_off, bytes});
    local_off += bytes;
  }

  const auto groups = config_.num_groups();
  for (int d = 0; d < 3; ++d) {
    launch_v_[d] = static_cast<std::int32_t>(config_.global_size[d]);
    launch_v_[3 + d] = static_cast<std::int32_t>(config_.local_size[d]);
    launch_v_[6 + d] = static_cast<std::int32_t>(groups[d]);
  }

  vcount_.assign(code_->code.size(), 0);

  const std::uint64_t wg =
      code_->has_barrier ? config_.work_group_size() : 1;
  reg_arena_.resize(wg * num_regs_);
  if (code_->has_barrier) {
    barrier_pcs_.resize(wg);
    barrier_weights_.resize(wg);
    barrier_ctxs_.reserve(wg);
  }
}

VmExecutor::ItemCtx VmExecutor::MakeCtx(
    const std::array<std::uint64_t, 3>& group_id, std::uint64_t t) const {
  ItemCtx ctx;
  const std::uint64_t l0 = config_.local_size[0];
  const std::uint64_t l1 = config_.local_size[1];
  const std::uint64_t local[3] = {t % l0, (t / l0) % l1, t / (l0 * l1)};
  for (int d = 0; d < 3; ++d) {
    ctx.v[d] = static_cast<std::int32_t>(
        group_id[d] * config_.local_size[d] + local[d]);
    ctx.v[3 + d] = static_cast<std::int32_t>(local[d]);
    ctx.v[6 + d] = static_cast<std::int32_t>(group_id[d]);
  }
  return ctx;
}

Status VmExecutor::RunGroup(const std::array<std::uint64_t, 3>& group_id,
                            MemRecorder* recorder, WorkGroupRun* out) {
  MALI_CHECK(out != nullptr);
  const auto groups = config_.num_groups();
  for (int d = 0; d < 3; ++d) {
    if (group_id[d] >= groups[d]) {
      return OutOfRangeError("group id out of range");
    }
  }
  const Status st = code_->has_barrier
                        ? RunGroupPhased(group_id, recorder, out)
                        : RunGroupFast(group_id, recorder, out);
  // Flush on faults too: the interpreter counts every instruction it
  // reached (including the faulting one), and so do the deferred counts.
  FlushCounts(out);
  return st;
}

Status VmExecutor::RunAllGroups(MemRecorder* recorder, WorkGroupRun* out) {
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

Status VmExecutor::RunGroupFast(const std::array<std::uint64_t, 3>& group_id,
                                MemRecorder* recorder, WorkGroupRun* out) {
  const std::uint64_t wg = config_.work_group_size();
  RegValue* regs = reg_arena_.data();
  std::uint64_t max_item_weight = 0;
  const std::uint64_t group_start = steps_executed_;
  for (std::uint64_t t = 0; t < wg; ++t) {
    std::memset(static_cast<void*>(regs), 0, sizeof(RegValue) * num_regs_);
    const ItemCtx ctx = MakeCtx(group_id, t);
    const std::uint64_t item_start = steps_executed_;
    std::uint32_t pc = 0;
    StatusOr<StopReason> stop = RunItem(ctx, regs, &pc, recorder, out);
    if (!stop.ok()) return stop.status();
    if (*stop == StopReason::kBarrier) {
      return InternalError("barrier reached outside phased execution");
    }
    max_item_weight = std::max(max_item_weight, steps_executed_ - item_start);
    ++out->work_items;
  }
  out->item_weight_sum += steps_executed_ - group_start;
  out->weighted_group_cost += max_item_weight * wg;
  return Status::Ok();
}

Status VmExecutor::RunGroupPhased(const std::array<std::uint64_t, 3>& group_id,
                                  MemRecorder* recorder, WorkGroupRun* out) {
  const std::uint64_t wg = config_.work_group_size();
  std::memset(static_cast<void*>(reg_arena_.data()), 0,
              sizeof(RegValue) * reg_arena_.size());
  std::fill(barrier_pcs_.begin(), barrier_pcs_.end(), 0u);
  std::fill(barrier_weights_.begin(), barrier_weights_.end(),
            std::uint64_t{0});
  barrier_ctxs_.clear();
  for (std::uint64_t t = 0; t < wg; ++t) {
    barrier_ctxs_.push_back(MakeCtx(group_id, t));
  }

  const std::uint64_t group_start = steps_executed_;
  bool done = false;
  while (!done) {
    std::uint64_t finished = 0;
    std::uint64_t at_barrier = 0;
    for (std::uint64_t t = 0; t < wg; ++t) {
      RegValue* regs = reg_arena_.data() + t * num_regs_;
      const std::uint64_t item_start = steps_executed_;
      StatusOr<StopReason> stop =
          RunItem(barrier_ctxs_[t], regs, &barrier_pcs_[t], recorder, out);
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
  for (std::uint64_t w : barrier_weights_) {
    max_item_weight = std::max(max_item_weight, w);
  }
  out->item_weight_sum += steps_executed_ - group_start;
  out->weighted_group_cost += max_item_weight * wg;
  return Status::Ok();
}

StatusOr<VmExecutor::StopReason> VmExecutor::RunItem(const ItemCtx& ctx,
                                                     RegValue* regs,
                                                     std::uint32_t* pc,
                                                     MemRecorder* recorder,
                                                     WorkGroupRun* out) {
  if (recorder == nullptr) {
    return host_time_ != nullptr
               ? RunItemImpl<true, true>(ctx, regs, pc, recorder, out)
               : RunItemImpl<false, true>(ctx, regs, pc, recorder, out);
  }
  return host_time_ != nullptr
             ? RunItemImpl<true, false>(ctx, regs, pc, recorder, out)
             : RunItemImpl<false, false>(ctx, regs, pc, recorder, out);
}

namespace {

/// memcpy with the common access widths pinned to constants so the copies
/// inline to plain moves instead of a libc call with a runtime size.
inline void CopyBytes(void* dst, const void* src, std::uint32_t n) {
  switch (n) {
    case 4: std::memcpy(dst, src, 4); break;
    case 8: std::memcpy(dst, src, 8); break;
    case 16: std::memcpy(dst, src, 16); break;
    case 32: std::memcpy(dst, src, 32); break;
    case 64: std::memcpy(dst, src, 64); break;
    default: std::memcpy(dst, src, n); break;
  }
}

/// Lane loop with constant-trip fast paths. lanes==1 (scalar index math,
/// loop counters) and lanes==4 (the paper's preferred float4 width) are by
/// far the hottest shapes; pinning their trip counts lets the compiler
/// drop the loop entirely (1) or unroll + vectorize (4). `body` sees `l`.
/// Semantics are identical to the plain runtime-trip loop for every width.
#define MALISIM_VM_LANES(body)                                               \
  do {                                                                       \
    if (lanes == 1) {                                                        \
      const int l = 0;                                                       \
      body;                                                                  \
    } else if (lanes == 4) {                                                 \
      for (int l = 0; l < 4; ++l) { body; }                                  \
    } else {                                                                 \
      for (int l = 0; l < lanes; ++l) { body; }                              \
    }                                                                        \
  } while (0)

/// Lane-wise binary operator over all four scalar types; integers go
/// through the wrapping IFN (types.h), since signed overflow is UB.
#define MALISIM_VM_BIN(NAME, OPR, IFN)                                       \
  case VOp::NAME##F32:                                                       \
    MALISIM_VM_LANES(D.f32[l] = A.f32[l] OPR B.f32[l]);                      \
    break;                                                                   \
  case VOp::NAME##F64:                                                       \
    MALISIM_VM_LANES(D.f64[l] = A.f64[l] OPR B.f64[l]);                      \
    break;                                                                   \
  case VOp::NAME##I32:                                                       \
    MALISIM_VM_LANES(D.i32[l] = IFN(A.i32[l], B.i32[l]));                    \
    break;                                                                   \
  case VOp::NAME##I64:                                                       \
    MALISIM_VM_LANES(D.i64[l] = IFN(A.i64[l], B.i64[l]));                    \
    break;

/// Lane-wise binary function (min/max style, distinct float/int funcs).
#define MALISIM_VM_BIN_FN(NAME, FFN, IFN)                                    \
  case VOp::NAME##F32:                                                       \
    MALISIM_VM_LANES(D.f32[l] = FFN(A.f32[l], B.f32[l]));                    \
    break;                                                                   \
  case VOp::NAME##F64:                                                       \
    MALISIM_VM_LANES(D.f64[l] = FFN(A.f64[l], B.f64[l]));                    \
    break;                                                                   \
  case VOp::NAME##I32:                                                       \
    MALISIM_VM_LANES(D.i32[l] = IFN(A.i32[l], B.i32[l]));                    \
    break;                                                                   \
  case VOp::NAME##I64:                                                       \
    MALISIM_VM_LANES(D.i64[l] = IFN(A.i64[l], B.i64[l]));                    \
    break;

/// Lane-wise float unary function pair.
#define MALISIM_VM_UN_F(NAME, FN32, FN64)                                    \
  case VOp::NAME##F32:                                                       \
    MALISIM_VM_LANES(D.f32[l] = FN32(A.f32[l]));                             \
    break;                                                                   \
  case VOp::NAME##F64:                                                       \
    MALISIM_VM_LANES(D.f64[l] = FN64(A.f64[l]));                             \
    break;

/// Lane-wise integer bitwise binary operator pair.
#define MALISIM_VM_BIN_I(NAME, OPR)                                          \
  case VOp::NAME##I32:                                                       \
    MALISIM_VM_LANES(D.i32[l] = A.i32[l] OPR B.i32[l]);                      \
    break;                                                                   \
  case VOp::NAME##I64:                                                       \
    MALISIM_VM_LANES(D.i64[l] = A.i64[l] OPR B.i64[l]);                      \
    break;

/// Lane-wise comparison into an i32 mask, per source type.
#define MALISIM_VM_CMP(NAME, OPR)                                            \
  case VOp::NAME##F32:                                                       \
    MALISIM_VM_LANES(D.i32[l] = A.f32[l] OPR B.f32[l]);                      \
    break;                                                                   \
  case VOp::NAME##F64:                                                       \
    MALISIM_VM_LANES(D.i32[l] = A.f64[l] OPR B.f64[l]);                      \
    break;                                                                   \
  case VOp::NAME##I32:                                                       \
    MALISIM_VM_LANES(D.i32[l] = A.i32[l] OPR B.i32[l]);                      \
    break;                                                                   \
  case VOp::NAME##I64:                                                       \
    MALISIM_VM_LANES(D.i32[l] = A.i64[l] OPR B.i64[l]);                      \
    break;

/// Fused scalar compare-and-branch: jump when the condition is FALSE.
/// (Step weights come from the dispatch-time `steps += weight`.)
#define MALISIM_VM_CMPBR(NAME, OPR)                                          \
  case VOp::NAME##F32:                                                       \
    if (!(A.f32[0] OPR B.f32[0])) next = in.target;                          \
    break;                                                                   \
  case VOp::NAME##F64:                                                       \
    if (!(A.f64[0] OPR B.f64[0])) next = in.target;                          \
    break;                                                                   \
  case VOp::NAME##I32:                                                       \
    if (!(A.i32[0] OPR B.i32[0])) next = in.target;                          \
    break;                                                                   \
  case VOp::NAME##I64:                                                       \
    if (!(A.i64[0] OPR B.i64[0])) next = in.target;                          \
    break;

/// Lane-wise typed cases for splat/extract/insert/select/slide/vsum.
#define MALISIM_VM_TYPED_CASES(NAME, F32_BODY, F64_BODY, I32_BODY, I64_BODY) \
  case VOp::NAME##F32: F32_BODY break;                                       \
  case VOp::NAME##F64: F64_BODY break;                                       \
  case VOp::NAME##I32: I32_BODY break;                                       \
  case VOp::NAME##I64: I64_BODY break;

/// Fused arithmetic + loop back-edge: BODY, then the matching kLoopEnd's
/// counter step and conditional jump. Counter and bound register ids are
/// packed into access_bytes (bytecode.h).
#define MALISIM_VM_BACKEDGE(NAME, BODY)                                      \
  case VOp::NAME: {                                                          \
    BODY;                                                                    \
    RegValue& cnt = regs[in.access_bytes & 0xffff];                          \
    cnt.i32[0] += static_cast<std::int32_t>(in.imm);                         \
    if (cnt.i32[0] < regs[in.access_bytes >> 16].i32[0]) next = in.target;   \
    break;                                                                   \
  }

/// Fused load + consumer: a full kLoad (index register and load destination
/// packed into target, bytecode.h), then the consumer BODY over D/A/B/C.
#define MALISIM_VM_LOADOP(NAME, BODY)                                        \
  case VOp::NAME: {                                                          \
    const Slot& slot = slots[in.slot];                                       \
    const std::int64_t elem =                                                \
        static_cast<std::int64_t>(regs[in.target & 0xffff].i32[0]) + in.imm; \
    const std::uint64_t off = static_cast<std::uint64_t>(elem) << in.aux8;   \
    if (elem < 0 || off + in.access_bytes > slot.size_bytes) {               \
      MALISIM_VM_FAULT(OutOfRangeError(                                      \
          "load out of bounds in kernel '" + p_->name + "' (element " +      \
          std::to_string(elem) + ")"));                                      \
    }                                                                        \
    CopyBytes(regs[in.target >> 16].raw, slot.host + off, in.access_bytes);  \
    if constexpr (!kDiscard) {                                               \
      recorder->Record(slot.sim_addr + off, in.access_bytes,                 \
                       MemEvent::kRead);                                     \
    }                                                                        \
    BODY;                                                                    \
    break;                                                                   \
  }

/// The triple fusion: a zero-offset kLoad (byte count = lanes << aux8,
/// since load and consumer widths match by construction), the consumer
/// BODY, then the loop back-edge. imm packs step | branch-target << 32
/// (bytecode.h).
#define MALISIM_VM_LOADBACKEDGE(NAME, BODY)                                  \
  case VOp::NAME: {                                                          \
    const Slot& slot = slots[in.slot];                                       \
    const std::uint32_t bytes = static_cast<std::uint32_t>(in.lanes)         \
                                << in.aux8;                                  \
    const std::int64_t elem =                                                \
        static_cast<std::int64_t>(regs[in.target & 0xffff].i32[0]);          \
    const std::uint64_t off = static_cast<std::uint64_t>(elem) << in.aux8;   \
    if (elem < 0 || off + bytes > slot.size_bytes) {                         \
      MALISIM_VM_FAULT(OutOfRangeError(                                      \
          "load out of bounds in kernel '" + p_->name + "' (element " +      \
          std::to_string(elem) + ")"));                                      \
    }                                                                        \
    CopyBytes(regs[in.target >> 16].raw, slot.host + off, bytes);            \
    if constexpr (!kDiscard) {                                               \
      recorder->Record(slot.sim_addr + off, bytes, MemEvent::kRead);         \
    }                                                                        \
    BODY;                                                                    \
    RegValue& cnt = regs[in.access_bytes & 0xffff];                          \
    cnt.i32[0] += static_cast<std::int32_t>(in.imm);                         \
    if (cnt.i32[0] < regs[in.access_bytes >> 16].i32[0]) {                   \
      next = static_cast<std::uint32_t>(                                     \
          static_cast<std::uint64_t>(in.imm) >> 32);                         \
    }                                                                        \
    break;                                                                   \
  }

}  // namespace

template <bool kProf, bool kDiscard>
StatusOr<VmExecutor::StopReason> VmExecutor::RunItemImpl(
    const ItemCtx& ctx, RegValue* regs, std::uint32_t* pc,
    MemRecorder* recorder, WorkGroupRun* out) {
  (void)recorder;  // unused in the kDiscard specialization
  (void)out;   // all accounting is deferred to FlushCounts
  const CompiledProgram& cp = *code_;
  const VInstr* const code = cp.code.data();
  const std::uint32_t end = static_cast<std::uint32_t>(cp.code.size());
  std::uint64_t* const vcount = vcount_.data();
  // Hoisted member pointers: every store through `out` or the slot host
  // memory could alias `this` as far as the compiler knows, forcing the
  // vector data pointers to be reloaded each iteration. Const locals pin
  // them in registers for the whole item.
  const Slot* const slots = slots_.data();
  const RegValue* const cpool = cp.const_pool.data();
  const ScalarValue* const scalars = bindings_.scalars.data();
  std::uint64_t steps = 0;
  std::uint32_t vpc = *pc;

// Runtime fault: commit the step count and suspension point, then surface
// the error. The interpreter counts the faulting source step (count-before-
// execute) but never reaches the later steps of a fused pair, so the
// dispatch-time `steps += weight` is trimmed back to 1 for this
// instruction; FlushCounts likewise backs the unreached tally slots (and
// any memory-traffic counters) out via fault_vpc_.
#define MALISIM_VM_FAULT(expr)                                  \
  do {                                                          \
    steps_executed_ += steps - (in.weight - std::uint64_t{1});  \
    fault_vpc_ = vpc;                                           \
    *pc = vpc;                                                  \
    return (expr);                                              \
  } while (0)

  while (vpc < end) {
    const VInstr& in = code[vpc];
    ++vcount[vpc];
    steps += in.weight;
    if constexpr (kProf) {
      // Sampling stays in source terms: the tick records the live
      // instruction's *source* pc, so op/block attribution matches the
      // interpreter's (fused instructions attribute to their compare).
      if (--host_time_->countdown == 0) {
        HostTimeSinkTick(host_time_, *p_, cp.src_pc[vpc]);
      }
    }
    RegValue& D = regs[in.dst];
    const RegValue& A = regs[in.a];
    const RegValue& B = regs[in.b];
    const RegValue& C = regs[in.c];
    const int lanes = in.lanes;
    std::uint32_t next = vpc + 1;
    switch (in.op) {
      case VOp::kNop:
        break;
      case VOp::kConst:
        CopyBytes(D.raw, cpool[in.target].raw, in.access_bytes);
        break;
      case VOp::kCtx:
        D.i32[0] = ctx.v[in.imm];
        break;
      case VOp::kLaunch:
        D.i32[0] = launch_v_[in.imm];
        break;
      case VOp::kMov:
        D = A;
        break;
      case VOp::kCvt: {
        const ScalarType from = static_cast<ScalarType>(in.aux8 >> 2);
        const ScalarType to = static_cast<ScalarType>(in.aux8 & 3);
        for (int l = 0; l < lanes; ++l) {
          double fv = 0.0;
          std::int64_t iv = 0;
          bool is_float_src = true;
          switch (from) {
            case ScalarType::kF32: fv = static_cast<double>(A.f32[l]); break;
            case ScalarType::kF64: fv = A.f64[l]; break;
            case ScalarType::kI32: iv = A.i32[l]; is_float_src = false; break;
            case ScalarType::kI64: iv = A.i64[l]; is_float_src = false; break;
          }
          switch (to) {
            case ScalarType::kF32:
              D.f32[l] = is_float_src ? static_cast<float>(fv)
                                      : static_cast<float>(iv);
              break;
            case ScalarType::kF64:
              D.f64[l] = is_float_src ? fv : static_cast<double>(iv);
              break;
            case ScalarType::kI32:
              D.i32[l] = is_float_src ? static_cast<std::int32_t>(fv)
                                      : static_cast<std::int32_t>(iv);
              break;
            case ScalarType::kI64:
              D.i64[l] = is_float_src ? static_cast<std::int64_t>(fv) : iv;
              break;
          }
        }
        break;
      }
      case VOp::kArgF32:
        D.f32[0] =
            static_cast<float>(scalars[static_cast<std::size_t>(in.imm)].f);
        break;
      case VOp::kArgF64:
        D.f64[0] = scalars[static_cast<std::size_t>(in.imm)].f;
        break;
      case VOp::kArgI32:
        D.i32[0] = static_cast<std::int32_t>(
            scalars[static_cast<std::size_t>(in.imm)].i);
        break;
      case VOp::kArgI64:
        D.i64[0] = scalars[static_cast<std::size_t>(in.imm)].i;
        break;
      MALISIM_VM_BIN(kAdd, +, WrapAdd)
      MALISIM_VM_BIN(kSub, -, WrapSub)
      MALISIM_VM_BIN(kMul, *, WrapMul)
      case VOp::kDivF32:
        MALISIM_VM_LANES(D.f32[l] = A.f32[l] / B.f32[l]);
        break;
      case VOp::kDivF64:
        MALISIM_VM_LANES(D.f64[l] = A.f64[l] / B.f64[l]);
        break;
      case VOp::kDivI32:
      case VOp::kIDivI32:
        for (int l = 0; l < lanes; ++l) {
          if (B.i32[l] == 0) {
            MALISIM_VM_FAULT(InvalidArgumentError("integer division by zero"));
          }
          if (DivOverflows(A.i32[l], B.i32[l])) {
            MALISIM_VM_FAULT(InvalidArgumentError("integer division overflow"));
          }
          D.i32[l] = A.i32[l] / B.i32[l];
        }
        break;
      case VOp::kDivI64:
      case VOp::kIDivI64:
        for (int l = 0; l < lanes; ++l) {
          if (B.i64[l] == 0) {
            MALISIM_VM_FAULT(InvalidArgumentError("integer division by zero"));
          }
          if (DivOverflows(A.i64[l], B.i64[l])) {
            MALISIM_VM_FAULT(InvalidArgumentError("integer division overflow"));
          }
          D.i64[l] = A.i64[l] / B.i64[l];
        }
        break;
      case VOp::kIRemI32:
        for (int l = 0; l < lanes; ++l) {
          if (B.i32[l] == 0) {
            MALISIM_VM_FAULT(InvalidArgumentError("integer division by zero"));
          }
          if (DivOverflows(A.i32[l], B.i32[l])) {
            MALISIM_VM_FAULT(InvalidArgumentError("integer division overflow"));
          }
          D.i32[l] = A.i32[l] % B.i32[l];
        }
        break;
      case VOp::kIRemI64:
        for (int l = 0; l < lanes; ++l) {
          if (B.i64[l] == 0) {
            MALISIM_VM_FAULT(InvalidArgumentError("integer division by zero"));
          }
          if (DivOverflows(A.i64[l], B.i64[l])) {
            MALISIM_VM_FAULT(InvalidArgumentError("integer division overflow"));
          }
          D.i64[l] = A.i64[l] % B.i64[l];
        }
        break;
      MALISIM_VM_BIN_FN(kMin, std::fmin, std::min)
      MALISIM_VM_BIN_FN(kMax, std::fmax, std::max)
      case VOp::kFmaF32:
        MALISIM_VM_LANES(D.f32[l] = A.f32[l] * B.f32[l] + C.f32[l]);
        break;
      case VOp::kFmaF64:
        MALISIM_VM_LANES(D.f64[l] = A.f64[l] * B.f64[l] + C.f64[l]);
        break;
      case VOp::kNegF32:
        MALISIM_VM_LANES(D.f32[l] = -A.f32[l]);
        break;
      case VOp::kNegF64:
        MALISIM_VM_LANES(D.f64[l] = -A.f64[l]);
        break;
      case VOp::kNegI32:
        MALISIM_VM_LANES(D.i32[l] = WrapNeg(A.i32[l]));
        break;
      case VOp::kNegI64:
        MALISIM_VM_LANES(D.i64[l] = WrapNeg(A.i64[l]));
        break;
      case VOp::kAbsF32:
        MALISIM_VM_LANES(D.f32[l] = std::fabs(A.f32[l]));
        break;
      case VOp::kAbsF64:
        MALISIM_VM_LANES(D.f64[l] = std::fabs(A.f64[l]));
        break;
      case VOp::kAbsI32:
        MALISIM_VM_LANES(D.i32[l] = std::abs(A.i32[l]));
        break;
      case VOp::kAbsI64:
        MALISIM_VM_LANES(D.i64[l] = std::llabs(A.i64[l]));
        break;
      MALISIM_VM_UN_F(kFloor, std::floor, std::floor)
      MALISIM_VM_UN_F(kSqrt, std::sqrt, std::sqrt)
      MALISIM_VM_UN_F(kRsqrt, 1.0f / std::sqrt, 1.0 / std::sqrt)
      MALISIM_VM_UN_F(kExp, std::exp, std::exp)
      MALISIM_VM_UN_F(kLog, std::log, std::log)
      MALISIM_VM_UN_F(kSin, std::sin, std::sin)
      MALISIM_VM_UN_F(kCos, std::cos, std::cos)
      MALISIM_VM_BIN_I(kAnd, &)
      MALISIM_VM_BIN_I(kOr, |)
      MALISIM_VM_BIN_I(kXor, ^)
      case VOp::kNotI32:
        MALISIM_VM_LANES(D.i32[l] = ~A.i32[l]);
        break;
      case VOp::kNotI64:
        MALISIM_VM_LANES(D.i64[l] = ~A.i64[l]);
        break;
      case VOp::kShlI32:
        MALISIM_VM_LANES(D.i32[l] = static_cast<std::int32_t>(
                             static_cast<std::uint32_t>(A.i32[l]) << in.imm));
        break;
      case VOp::kShlI64:
        MALISIM_VM_LANES(D.i64[l] = static_cast<std::int64_t>(
                             static_cast<std::uint64_t>(A.i64[l]) << in.imm));
        break;
      case VOp::kShrI32:
        MALISIM_VM_LANES(D.i32[l] = static_cast<std::int32_t>(
                             static_cast<std::uint32_t>(A.i32[l]) >> in.imm));
        break;
      case VOp::kShrI64:
        MALISIM_VM_LANES(D.i64[l] = static_cast<std::int64_t>(
                             static_cast<std::uint64_t>(A.i64[l]) >> in.imm));
        break;
      MALISIM_VM_CMP(kCmpLt, <)
      MALISIM_VM_CMP(kCmpLe, <=)
      MALISIM_VM_CMP(kCmpEq, ==)
      MALISIM_VM_CMP(kCmpNe, !=)
      MALISIM_VM_CMPBR(kCmpBrLt, <)
      MALISIM_VM_CMPBR(kCmpBrLe, <=)
      MALISIM_VM_CMPBR(kCmpBrEq, ==)
      MALISIM_VM_CMPBR(kCmpBrNe, !=)
      MALISIM_VM_TYPED_CASES(kSelect,
          { MALISIM_VM_LANES(D.f32[l] = A.i32[l] ? B.f32[l] : C.f32[l]); },
          { MALISIM_VM_LANES(D.f64[l] = A.i32[l] ? B.f64[l] : C.f64[l]); },
          { MALISIM_VM_LANES(D.i32[l] = A.i32[l] ? B.i32[l] : C.i32[l]); },
          { MALISIM_VM_LANES(D.i64[l] = A.i32[l] ? B.i64[l] : C.i64[l]); })
      MALISIM_VM_TYPED_CASES(kSplat,
          { MALISIM_VM_LANES(D.f32[l] = A.f32[0]); },
          { MALISIM_VM_LANES(D.f64[l] = A.f64[0]); },
          { MALISIM_VM_LANES(D.i32[l] = A.i32[0]); },
          { MALISIM_VM_LANES(D.i64[l] = A.i64[0]); })
      MALISIM_VM_TYPED_CASES(kExtract,
          { D.f32[0] = A.f32[in.imm]; },
          { D.f64[0] = A.f64[in.imm]; },
          { D.i32[0] = A.i32[in.imm]; },
          { D.i64[0] = A.i64[in.imm]; })
      MALISIM_VM_TYPED_CASES(kInsert,
          { D = A; D.f32[in.imm] = B.f32[0]; },
          { D = A; D.f64[in.imm] = B.f64[0]; },
          { D = A; D.i32[in.imm] = B.i32[0]; },
          { D = A; D.i64[in.imm] = B.i64[0]; })
      case VOp::kSlideF32: {
        const int shift = static_cast<int>(in.imm);
        RegValue tmp;  // allow dst aliasing a or b
        for (int l = 0; l < lanes; ++l) {
          const int s = l + shift;
          tmp.f32[l] = s < lanes ? A.f32[s] : B.f32[s - lanes];
        }
        for (int l = 0; l < lanes; ++l) D.f32[l] = tmp.f32[l];
        break;
      }
      case VOp::kSlideF64: {
        const int shift = static_cast<int>(in.imm);
        RegValue tmp;
        for (int l = 0; l < lanes; ++l) {
          const int s = l + shift;
          tmp.f64[l] = s < lanes ? A.f64[s] : B.f64[s - lanes];
        }
        for (int l = 0; l < lanes; ++l) D.f64[l] = tmp.f64[l];
        break;
      }
      case VOp::kSlideI32: {
        const int shift = static_cast<int>(in.imm);
        RegValue tmp;
        for (int l = 0; l < lanes; ++l) {
          const int s = l + shift;
          tmp.i32[l] = s < lanes ? A.i32[s] : B.i32[s - lanes];
        }
        for (int l = 0; l < lanes; ++l) D.i32[l] = tmp.i32[l];
        break;
      }
      case VOp::kSlideI64: {
        const int shift = static_cast<int>(in.imm);
        RegValue tmp;
        for (int l = 0; l < lanes; ++l) {
          const int s = l + shift;
          tmp.i64[l] = s < lanes ? A.i64[s] : B.i64[s - lanes];
        }
        for (int l = 0; l < lanes; ++l) D.i64[l] = tmp.i64[l];
        break;
      }
      MALISIM_VM_TYPED_CASES(kVSum,
          { float s = 0.0f;
            for (int l = 0; l < in.aux8; ++l) s += A.f32[l];
            D.f32[0] = s; },
          { double s = 0.0;
            for (int l = 0; l < in.aux8; ++l) s += A.f64[l];
            D.f64[0] = s; },
          { std::int32_t s = 0;
            for (int l = 0; l < in.aux8; ++l) s = WrapAdd(s, A.i32[l]);
            D.i32[0] = s; },
          { std::int64_t s = 0;
            for (int l = 0; l < in.aux8; ++l) s = WrapAdd(s, A.i64[l]);
            D.i64[0] = s; })
      case VOp::kLoad: {
        const Slot& slot = slots[in.slot];
        const std::int64_t elem =
            static_cast<std::int64_t>(A.i32[0]) + in.imm;
        const std::uint64_t off = static_cast<std::uint64_t>(elem) << in.aux8;
        if (elem < 0 || off + in.access_bytes > slot.size_bytes) {
          MALISIM_VM_FAULT(OutOfRangeError(
              "load out of bounds in kernel '" + p_->name + "' (element " +
              std::to_string(elem) + ")"));
        }
        CopyBytes(D.raw, slot.host + off, in.access_bytes);
        if constexpr (!kDiscard) {
          recorder->Record(slot.sim_addr + off, in.access_bytes,
                           MemEvent::kRead);
        }
        break;
      }
      case VOp::kStore: {
        const Slot& slot = slots[in.slot];
        const std::int64_t elem =
            static_cast<std::int64_t>(B.i32[0]) + in.imm;
        const std::uint64_t off = static_cast<std::uint64_t>(elem) << in.aux8;
        if (elem < 0 || off + in.access_bytes > slot.size_bytes) {
          MALISIM_VM_FAULT(OutOfRangeError(
              "store out of bounds in kernel '" + p_->name + "' (element " +
              std::to_string(elem) + ")"));
        }
        CopyBytes(slot.host + off, A.raw, in.access_bytes);
        if constexpr (!kDiscard) {
          recorder->Record(slot.sim_addr + off, in.access_bytes,
                           MemEvent::kWrite);
        }
        break;
      }
      case VOp::kAtomicAddI32: {
        const Slot& slot = slots[in.slot];
        const std::int64_t elem =
            static_cast<std::int64_t>(B.i32[0]) + in.imm;
        const std::uint64_t off = static_cast<std::uint64_t>(elem) << in.aux8;
        if (elem < 0 || off + 4 > slot.size_bytes) {
          MALISIM_VM_FAULT(OutOfRangeError(
              "atomic out of bounds in kernel '" + p_->name + "'"));
        }
        // Real atomic RMW: work-groups may execute on concurrent host
        // threads and integer addition commutes, so the final image is
        // bit-identical for every interleaving. Alignment holds because
        // bindings are element-aligned.
        std::atomic_ref<std::int32_t>(
            *reinterpret_cast<std::int32_t*>(slot.host + off))
            .fetch_add(A.i32[0], std::memory_order_relaxed);
        if constexpr (!kDiscard) {
          recorder->Record(slot.sim_addr + off, 4, MemEvent::kAtomic);
        }
        break;
      }
      case VOp::kBarrier:
        // Counted in the deferred histogram/tally but not in step weights
        // (the interpreter's RunToBarrier intercepts barriers before Step;
        // the compiler gave barriers weight 0).
        steps_executed_ += steps;
        *pc = vpc + 1;
        return StopReason::kBarrier;
      case VOp::kLoopBegin:
        D.i32[0] = A.i32[0];
        if (D.i32[0] >= B.i32[0]) next = in.target;
        break;
      case VOp::kLoopEnd:
        D.i32[0] += static_cast<std::int32_t>(in.imm);
        if (D.i32[0] < B.i32[0]) next = in.target;
        break;
      case VOp::kJump:
        next = in.target;
        break;
      case VOp::kBrZero:
        if (A.i32[0] == 0) next = in.target;
        break;
      // Fused reduction back-edges: the arithmetic op, then the loop
      // counter step and conditional jump (register/field layout in
      // bytecode.h). Executing the halves in source order keeps every
      // register-aliasing corner identical to the unfused sequence.
      MALISIM_VM_BACKEDGE(kFmaLoopEndF32,
          MALISIM_VM_LANES(D.f32[l] = A.f32[l] * B.f32[l] + C.f32[l]))
      MALISIM_VM_BACKEDGE(kFmaLoopEndF64,
          MALISIM_VM_LANES(D.f64[l] = A.f64[l] * B.f64[l] + C.f64[l]))
      MALISIM_VM_BACKEDGE(kAddLoopEndF32,
          MALISIM_VM_LANES(D.f32[l] = A.f32[l] + B.f32[l]))
      MALISIM_VM_BACKEDGE(kAddLoopEndF64,
          MALISIM_VM_LANES(D.f64[l] = A.f64[l] + B.f64[l]))
      // Fused load+consumer: the load half executes exactly like kLoad
      // (writing its destination register and streaming the access), then
      // the consumer half reads the register file — D/A/B/C are references,
      // so any operand naming the loaded register sees the fresh value.
      MALISIM_VM_LOADOP(kLoadFmaF32,
          MALISIM_VM_LANES(D.f32[l] = A.f32[l] * B.f32[l] + C.f32[l]))
      MALISIM_VM_LOADOP(kLoadFmaF64,
          MALISIM_VM_LANES(D.f64[l] = A.f64[l] * B.f64[l] + C.f64[l]))
      MALISIM_VM_LOADOP(kLoadAddF32,
          MALISIM_VM_LANES(D.f32[l] = A.f32[l] + B.f32[l]))
      MALISIM_VM_LOADOP(kLoadAddF64,
          MALISIM_VM_LANES(D.f64[l] = A.f64[l] + B.f64[l]))
      MALISIM_VM_LOADOP(kLoadSubF32,
          MALISIM_VM_LANES(D.f32[l] = A.f32[l] - B.f32[l]))
      MALISIM_VM_LOADOP(kLoadSubF64,
          MALISIM_VM_LANES(D.f64[l] = A.f64[l] - B.f64[l]))
      MALISIM_VM_LOADOP(kLoadMulF32,
          MALISIM_VM_LANES(D.f32[l] = A.f32[l] * B.f32[l]))
      MALISIM_VM_LOADOP(kLoadMulF64,
          MALISIM_VM_LANES(D.f64[l] = A.f64[l] * B.f64[l]))
      MALISIM_VM_LOADOP(kLoadSplatF32,
          MALISIM_VM_LANES(D.f32[l] = A.f32[0]))
      MALISIM_VM_LOADOP(kLoadSplatF64,
          MALISIM_VM_LANES(D.f64[l] = A.f64[0]))
      MALISIM_VM_LOADBACKEDGE(kLoadFmaLoopEndF32,
          MALISIM_VM_LANES(D.f32[l] = A.f32[l] * B.f32[l] + C.f32[l]))
      MALISIM_VM_LOADBACKEDGE(kLoadFmaLoopEndF64,
          MALISIM_VM_LANES(D.f64[l] = A.f64[l] * B.f64[l] + C.f64[l]))
      case VOp::kNumVOps:
        MALISIM_VM_FAULT(InternalError("invalid vm opcode"));
      default:
        // Every VOp the compiler emits has a case above; telling the
        // compiler so removes the jump-table range check from the hot loop.
        __builtin_unreachable();
    }
    vpc = next;
  }
  steps_executed_ += steps;
  *pc = vpc;
  return StopReason::kDone;
#undef MALISIM_VM_FAULT
}

#undef MALISIM_VM_LANES
#undef MALISIM_VM_BACKEDGE
#undef MALISIM_VM_LOADOP
#undef MALISIM_VM_LOADBACKEDGE
#undef MALISIM_VM_BIN
#undef MALISIM_VM_BIN_FN
#undef MALISIM_VM_UN_F
#undef MALISIM_VM_BIN_I
#undef MALISIM_VM_CMP
#undef MALISIM_VM_CMPBR
#undef MALISIM_VM_TYPED_CASES

void VmExecutor::FlushCounts(WorkGroupRun* out) {
  const CompiledProgram& cp = *code_;
  for (std::size_t v = 0; v < vcount_.size(); ++v) {
    const std::uint64_t c = vcount_[v];
    if (c == 0) continue;
    vcount_[v] = 0;
    // Memory-traffic counters are deferred like the histogram: the hot loop
    // only bumps vcount, and the per-site totals expand here. The faulted
    // access (if any) is backed out below — the interpreter counts an
    // out-of-bounds access in the histogram (count-before-execute) but not
    // in loads/stores/bytes, and the deferred totals must match exactly.
    const VInstr& in = cp.code[v];
    switch (in.op) {
      case VOp::kLoad:
      case VOp::kLoadFmaF32:
      case VOp::kLoadFmaF64:
      case VOp::kLoadAddF32:
      case VOp::kLoadAddF64:
      case VOp::kLoadSubF32:
      case VOp::kLoadSubF64:
      case VOp::kLoadMulF32:
      case VOp::kLoadMulF64:
      case VOp::kLoadSplatF32:
      case VOp::kLoadSplatF64:
        out->loads += c;
        out->load_bytes += c * in.access_bytes;
        break;
      case VOp::kLoadFmaLoopEndF32:
      case VOp::kLoadFmaLoopEndF64:
        // access_bytes holds the loop registers here; the load width is
        // lanes << aux8 (bytecode.h).
        out->loads += c;
        out->load_bytes += c * (static_cast<std::uint64_t>(in.lanes) << in.aux8);
        break;
      case VOp::kStore:
        out->stores += c;
        out->store_bytes += c * in.access_bytes;
        break;
      case VOp::kAtomicAddI32:
        out->atomics += c;
        break;
      default:
        break;
    }
    for (std::uint32_t s = cp.tally_begin[v]; s < cp.tally_begin[v + 1];
         ++s) {
      const TallySlot& slot = cp.tally_slots[s];
      out->ops.AddAt(slot.hist_idx, c);
      if (opcode_tally_ != nullptr) {
        opcode_tally_[static_cast<std::size_t>(slot.op)] += c;
      }
    }
  }
  if (fault_vpc_ != kNoFault) {
    // A fused instruction only ever faults in its first source step (loads
    // and integer divides lead their pairs; the absorbed mov / back-edge /
    // consumer halves cannot fault). The interpreter therefore counted the
    // first source step only — back the unreached tally slots out, and the
    // traffic of a faulted access with them.
    const VInstr& in = cp.code[fault_vpc_];
    switch (in.op) {
      case VOp::kLoad:
      case VOp::kLoadFmaF32:
      case VOp::kLoadFmaF64:
      case VOp::kLoadAddF32:
      case VOp::kLoadAddF64:
      case VOp::kLoadSubF32:
      case VOp::kLoadSubF64:
      case VOp::kLoadMulF32:
      case VOp::kLoadMulF64:
      case VOp::kLoadSplatF32:
      case VOp::kLoadSplatF64:
        --out->loads;
        out->load_bytes -= in.access_bytes;
        break;
      case VOp::kLoadFmaLoopEndF32:
      case VOp::kLoadFmaLoopEndF64:
        --out->loads;
        out->load_bytes -= static_cast<std::uint64_t>(in.lanes) << in.aux8;
        break;
      case VOp::kStore:
        --out->stores;
        out->store_bytes -= in.access_bytes;
        break;
      case VOp::kAtomicAddI32:
        --out->atomics;
        break;
      default:  // arithmetic faults (division by zero) carry no traffic
        break;
    }
    for (std::uint32_t s = cp.tally_begin[fault_vpc_] + 1;
         s < cp.tally_begin[fault_vpc_ + 1]; ++s) {
      const TallySlot& slot = cp.tally_slots[s];
      out->ops.SubAt(slot.hist_idx);
      if (opcode_tally_ != nullptr) {
        --opcode_tally_[static_cast<std::size_t>(slot.op)];
      }
    }
    fault_vpc_ = kNoFault;
  }
}

}  // namespace malisim::kir::vm
