// Textual disassembly of KIR programs. The format round-trips through
// ParseProgram (kir/parse.h), so floating immediates print losslessly.
#include <cstdio>
#include <string>

#include "kir/program.h"

namespace malisim::kir {
namespace {

std::string RegName(const Program& p, RegId r) {
  if (r == kNoReg) return "_";
  const RegInfo& info = p.regs[r];
  std::string out = info.name.empty() ? "r" + std::to_string(r) : "%" + info.name;
  out += ":" + info.type.ToString();
  return out;
}

}  // namespace

std::string Type::ToString() const {
  std::string out = ScalarTypeName(scalar);
  if (lanes > 1) out += "x" + std::to_string(lanes);
  return out;
}

std::string ScalarTypeName(ScalarType t) {
  switch (t) {
    case ScalarType::kF32:
      return "f32";
    case ScalarType::kF64:
      return "f64";
    case ScalarType::kI32:
      return "i32";
    case ScalarType::kI64:
      return "i64";
  }
  return "?";
}

std::string ToText(const Program& p) {
  std::string out = "kernel " + p.name + "(";
  for (std::size_t i = 0; i < p.args.size(); ++i) {
    if (i > 0) out += ", ";
    const ArgDecl& arg = p.args[i];
    switch (arg.kind) {
      case ArgKind::kBufferRO:
        out += "in ";
        break;
      case ArgKind::kBufferWO:
        out += "out ";
        break;
      case ArgKind::kBufferRW:
        out += "inout ";
        break;
      case ArgKind::kScalar:
        break;
    }
    if (arg.is_const) out += "const ";
    out += ScalarTypeName(arg.elem);
    if (arg.kind != ArgKind::kScalar) out += "*";
    if (arg.is_restrict) out += " restrict";
    out += " " + arg.name;
  }
  out += ")\n";
  for (const LocalArrayDecl& local : p.locals) {
    out += "  local " + ScalarTypeName(local.elem) + " " + local.name + "[" +
           std::to_string(local.elems) + "]\n";
  }

  int indent = 1;
  for (std::size_t i = 0; i < p.code.size(); ++i) {
    const Instr& in = p.code[i];
    if (in.op == Opcode::kLoopEnd || in.op == Opcode::kIfEnd ||
        in.op == Opcode::kElse) {
      --indent;
    }
    out += std::string(static_cast<std::size_t>(indent) * 2, ' ');
    out += std::to_string(i) + ": " + std::string(OpcodeName(in.op));
    if (in.dst != kNoReg) out += " " + RegName(p, in.dst);
    if (in.a != kNoReg) out += (in.dst != kNoReg ? ", " : " ") + RegName(p, in.a);
    if (in.b != kNoReg) out += ", " + RegName(p, in.b);
    if (in.c != kNoReg) out += ", " + RegName(p, in.c);
    switch (in.op) {
      case Opcode::kConstF: {
        char buf[64];
        std::snprintf(buf, sizeof(buf), " %.17g", in.fimm);
        out += buf;
        break;
      }
      case Opcode::kConstI:
      case Opcode::kArg:
      case Opcode::kGlobalId:
      case Opcode::kLocalId:
      case Opcode::kGroupId:
      case Opcode::kGlobalSize:
      case Opcode::kLocalSize:
      case Opcode::kNumGroups:
      case Opcode::kShl:
      case Opcode::kShr:
      case Opcode::kExtract:
      case Opcode::kInsert:
      case Opcode::kSlide:
        out += " " + std::to_string(in.imm);
        break;
      case Opcode::kLoad:
      case Opcode::kStore:
      case Opcode::kAtomicAddI32:
        out += " slot=" + std::to_string(in.slot) +
               " off=" + std::to_string(in.imm);
        break;
      case Opcode::kLoopBegin:
        out += " step=" + std::to_string(in.imm);
        if (in.parallel) out += " parallel";
        break;
      default:
        break;
    }
    out += "\n";
    if (in.op == Opcode::kLoopBegin || in.op == Opcode::kIfBegin ||
        in.op == Opcode::kElse) {
      ++indent;
    }
  }
  return out;
}

}  // namespace malisim::kir
