#include "kir/parse.h"

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace malisim::kir {
namespace {

/// Operand shape of an opcode, mirroring what ToText() emits.
struct Signature {
  bool has_dst = false;
  int num_srcs = 0;
  enum class Extra { kNone, kImm, kFimm, kMem, kStep } extra = Extra::kNone;
};

Signature SignatureOf(Opcode op) {
  using E = Signature::Extra;
  switch (op) {
    case Opcode::kConstI:
      return {true, 0, E::kImm};
    case Opcode::kConstF:
      return {true, 0, E::kFimm};
    case Opcode::kArg:
    case Opcode::kGlobalId:
    case Opcode::kLocalId:
    case Opcode::kGroupId:
    case Opcode::kGlobalSize:
    case Opcode::kLocalSize:
    case Opcode::kNumGroups:
      return {true, 0, E::kImm};
    case Opcode::kMov:
    case Opcode::kNeg:
    case Opcode::kAbs:
    case Opcode::kFloor:
    case Opcode::kSqrt:
    case Opcode::kRsqrt:
    case Opcode::kExp:
    case Opcode::kLog:
    case Opcode::kSin:
    case Opcode::kCos:
    case Opcode::kNot:
    case Opcode::kSplat:
    case Opcode::kVSum:
    case Opcode::kConvert:
      return {true, 1, E::kNone};
    case Opcode::kExtract:
    case Opcode::kShl:
    case Opcode::kShr:
      return {true, 1, E::kImm};
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kDiv:
    case Opcode::kIDiv:
    case Opcode::kIRem:
    case Opcode::kMin:
    case Opcode::kMax:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kCmpLt:
    case Opcode::kCmpLe:
    case Opcode::kCmpEq:
    case Opcode::kCmpNe:
      return {true, 2, E::kNone};
    case Opcode::kInsert:
    case Opcode::kSlide:
      return {true, 2, E::kImm};
    case Opcode::kFma:
    case Opcode::kSelect:
      return {true, 3, E::kNone};
    case Opcode::kLoad:
      return {true, 1, E::kMem};
    case Opcode::kStore:
    case Opcode::kAtomicAddI32:
      return {false, 2, E::kMem};
    case Opcode::kLoopBegin:
      return {true, 2, E::kStep};
    case Opcode::kIfBegin:
      return {false, 1, E::kNone};
    case Opcode::kBarrier:
    case Opcode::kLoopEnd:
    case Opcode::kElse:
    case Opcode::kIfEnd:
    case Opcode::kNumOpcodes:
      return {false, 0, E::kNone};
  }
  return {};
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<Program> Run() {
    std::vector<std::string> lines = SplitLines();
    std::size_t i = 0;
    while (i < lines.size() && Trim(lines[i]).empty()) ++i;
    if (i == lines.size()) return Err(0, "empty input");
    MALI_RETURN_IF_ERROR(ParseHeader(Trim(lines[i]), i + 1));
    ++i;
    for (; i < lines.size(); ++i) {
      const std::string line = Trim(lines[i]);
      if (line.empty()) continue;
      if (line.rfind("local ", 0) == 0) {
        MALI_RETURN_IF_ERROR(ParseLocal(line, i + 1));
      } else {
        MALI_RETURN_IF_ERROR(ParseInstruction(line, i + 1));
      }
    }
    MALI_RETURN_IF_ERROR(program_.Finalize());
    MALI_RETURN_IF_ERROR(Verify(program_));
    return std::move(program_);
  }

 private:
  static Status Err(std::size_t line, const std::string& what) {
    return InvalidArgumentError("kir parse error at line " +
                                std::to_string(line) + ": " + what);
  }

  std::vector<std::string> SplitLines() const {
    std::vector<std::string> lines;
    std::string current;
    for (char ch : text_) {
      if (ch == '\n') {
        lines.push_back(current);
        current.clear();
      } else {
        current += ch;
      }
    }
    if (!current.empty()) lines.push_back(current);
    return lines;
  }

  static std::string Trim(const std::string& s) {
    std::size_t begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos) return "";
    std::size_t end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
  }

  static std::vector<std::string> SplitWs(const std::string& s) {
    std::vector<std::string> out;
    std::string current;
    for (char ch : s) {
      if (ch == ' ' || ch == '\t') {
        if (!current.empty()) {
          out.push_back(current);
          current.clear();
        }
      } else {
        current += ch;
      }
    }
    if (!current.empty()) out.push_back(current);
    return out;
  }

  static StatusOr<ScalarType> ParseScalarType(const std::string& token,
                                              std::size_t line) {
    if (token == "f32") return ScalarType::kF32;
    if (token == "f64") return ScalarType::kF64;
    if (token == "i32") return ScalarType::kI32;
    if (token == "i64") return ScalarType::kI64;
    return Err(line, "unknown scalar type '" + token + "'");
  }

  static StatusOr<Type> ParseType(const std::string& token, std::size_t line) {
    const std::size_t x = token.find('x');
    std::string scalar_part = token;
    std::uint8_t lanes = 1;
    if (x != std::string::npos) {
      scalar_part = token.substr(0, x);
      const long parsed = std::strtol(token.c_str() + x + 1, nullptr, 10);
      lanes = static_cast<std::uint8_t>(parsed);
      if (!IsValidLanes(lanes)) {
        return Err(line, "bad lane count in type '" + token + "'");
      }
    }
    StatusOr<ScalarType> scalar = ParseScalarType(scalar_part, line);
    if (!scalar.ok()) return scalar.status();
    return Type(*scalar, lanes);
  }

  Status ParseHeader(const std::string& line, std::size_t lineno) {
    if (line.rfind("kernel ", 0) != 0) {
      return Err(lineno, "expected 'kernel NAME(...)'");
    }
    const std::size_t open = line.find('(');
    const std::size_t close = line.rfind(')');
    if (open == std::string::npos || close == std::string::npos || close < open) {
      return Err(lineno, "malformed kernel signature");
    }
    program_.name = Trim(line.substr(7, open - 7));
    const std::string args = line.substr(open + 1, close - open - 1);

    // Split on commas (types never contain commas).
    std::vector<std::string> parts;
    std::string current;
    for (char ch : args) {
      if (ch == ',') {
        parts.push_back(Trim(current));
        current.clear();
      } else {
        current += ch;
      }
    }
    if (!Trim(current).empty()) parts.push_back(Trim(current));

    for (const std::string& part : parts) {
      if (part.empty()) return Err(lineno, "empty argument");
      MALI_RETURN_IF_ERROR(ParseArg(part, lineno));
    }
    return Status::Ok();
  }

  Status ParseArg(const std::string& part, std::size_t lineno) {
    std::vector<std::string> tokens = SplitWs(part);
    ArgDecl decl;
    std::size_t pos = 0;
    bool is_buffer = false;
    if (tokens[pos] == "in") {
      decl.kind = ArgKind::kBufferRO;
      is_buffer = true;
      ++pos;
    } else if (tokens[pos] == "out") {
      decl.kind = ArgKind::kBufferWO;
      is_buffer = true;
      ++pos;
    } else if (tokens[pos] == "inout") {
      decl.kind = ArgKind::kBufferRW;
      is_buffer = true;
      ++pos;
    }
    if (pos < tokens.size() && tokens[pos] == "const") {
      decl.is_const = true;
      ++pos;
    }
    if (pos >= tokens.size()) return Err(lineno, "truncated argument");
    std::string type_token = tokens[pos++];
    if (!type_token.empty() && type_token.back() == '*') {
      type_token.pop_back();
      is_buffer = true;
    } else if (is_buffer) {
      return Err(lineno, "buffer argument missing '*'");
    }
    StatusOr<ScalarType> elem = ParseScalarType(type_token, lineno);
    if (!elem.ok()) return elem.status();
    decl.elem = *elem;
    if (!is_buffer) decl.kind = ArgKind::kScalar;
    if (pos < tokens.size() && tokens[pos] == "restrict") {
      decl.is_restrict = true;
      ++pos;
    }
    if (pos >= tokens.size()) return Err(lineno, "argument missing a name");
    decl.name = tokens[pos++];
    if (pos != tokens.size()) return Err(lineno, "trailing tokens in argument");
    program_.args.push_back(decl);
    return Status::Ok();
  }

  Status ParseLocal(const std::string& line, std::size_t lineno) {
    // local TYPE NAME[N]
    std::vector<std::string> tokens = SplitWs(line);
    if (tokens.size() != 3) return Err(lineno, "malformed local declaration");
    StatusOr<ScalarType> elem = ParseScalarType(tokens[1], lineno);
    if (!elem.ok()) return elem.status();
    const std::string& decl = tokens[2];
    const std::size_t open = decl.find('[');
    if (open == std::string::npos || decl.back() != ']') {
      return Err(lineno, "local declaration needs NAME[count]");
    }
    LocalArrayDecl local;
    local.name = decl.substr(0, open);
    local.elem = *elem;
    local.elems = static_cast<std::uint32_t>(
        std::strtoul(decl.c_str() + open + 1, nullptr, 10));
    if (local.elems == 0) return Err(lineno, "zero-sized local array");
    program_.locals.push_back(local);
    return Status::Ok();
  }

  /// "r5:f32x4" or "%acc:f32" -> register id, creating it on first sight.
  StatusOr<RegId> ParseReg(std::string token, std::size_t lineno) {
    if (!token.empty() && token.back() == ',') token.pop_back();
    const std::size_t colon = token.rfind(':');
    if (colon == std::string::npos || colon == 0) {
      return Err(lineno, "malformed register '" + token + "'");
    }
    const std::string key = token.substr(0, colon);
    StatusOr<Type> type = ParseType(token.substr(colon + 1), lineno);
    if (!type.ok()) return type.status();

    auto it = regs_.find(key);
    if (it != regs_.end()) {
      if (program_.regs[it->second].type != *type) {
        return Err(lineno, "register '" + key + "' re-used at a different type");
      }
      return it->second;
    }
    if (program_.regs.size() >= 0xFFFF) return Err(lineno, "too many registers");
    std::string name = key[0] == '%' ? key.substr(1) : "";
    program_.regs.push_back({*type, name});
    const RegId id = static_cast<RegId>(program_.regs.size() - 1);
    regs_.emplace(key, id);
    return id;
  }

  Status ParseInstruction(std::string line, std::size_t lineno) {
    // Strip an optional leading "N:" index.
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos &&
        line.find_first_not_of("0123456789") == colon) {
      line = Trim(line.substr(colon + 1));
    }
    std::vector<std::string> tokens = SplitWs(line);
    if (tokens.empty()) return Err(lineno, "empty instruction");

    // Opcode lookup by printed name.
    Opcode op = Opcode::kNumOpcodes;
    for (int candidate = 0; candidate < kNumOpcodeValues; ++candidate) {
      if (OpcodeName(static_cast<Opcode>(candidate)) == tokens[0]) {
        op = static_cast<Opcode>(candidate);
        break;
      }
    }
    if (op == Opcode::kNumOpcodes) {
      return Err(lineno, "unknown opcode '" + tokens[0] + "'");
    }

    const Signature sig = SignatureOf(op);
    Instr instr;
    instr.op = op;
    std::size_t pos = 1;
    if (sig.has_dst) {
      if (pos >= tokens.size()) return Err(lineno, "missing destination");
      StatusOr<RegId> reg = ParseReg(tokens[pos++], lineno);
      if (!reg.ok()) return reg.status();
      instr.dst = *reg;
    }
    RegId* srcs[3] = {&instr.a, &instr.b, &instr.c};
    for (int s = 0; s < sig.num_srcs; ++s) {
      if (pos >= tokens.size()) return Err(lineno, "missing source operand");
      StatusOr<RegId> reg = ParseReg(tokens[pos++], lineno);
      if (!reg.ok()) return reg.status();
      *srcs[s] = *reg;
    }

    using E = Signature::Extra;
    switch (sig.extra) {
      case E::kNone:
        break;
      case E::kImm:
        if (pos >= tokens.size()) return Err(lineno, "missing immediate");
        instr.imm = std::strtoll(tokens[pos++].c_str(), nullptr, 10);
        break;
      case E::kFimm:
        if (pos >= tokens.size()) return Err(lineno, "missing float immediate");
        instr.fimm = std::strtod(tokens[pos++].c_str(), nullptr);
        break;
      case E::kMem: {
        for (const char* field : {"slot=", "off="}) {
          if (pos >= tokens.size() || tokens[pos].rfind(field, 0) != 0) {
            return Err(lineno, std::string("expected ") + field);
          }
          const long long value =
              std::strtoll(tokens[pos].c_str() + std::string(field).size(),
                           nullptr, 10);
          if (std::string(field) == "slot=") {
            instr.slot = static_cast<std::uint8_t>(value);
          } else {
            instr.imm = value;
          }
          ++pos;
        }
        break;
      }
      case E::kStep:
        if (pos >= tokens.size() || tokens[pos].rfind("step=", 0) != 0) {
          return Err(lineno, "loop missing step=");
        }
        instr.imm = std::strtoll(tokens[pos++].c_str() + 5, nullptr, 10);
        if (pos < tokens.size() && tokens[pos] == "parallel") {
          instr.parallel = true;
          ++pos;
        }
        break;
    }
    if (pos != tokens.size()) {
      return Err(lineno, "trailing tokens after '" + tokens[0] + "'");
    }

    // Reconstruct instr.type the way the builder sets it.
    if (instr.dst != kNoReg) {
      instr.type = program_.regs[instr.dst].type;
    } else if (op == Opcode::kStore || op == Opcode::kAtomicAddI32) {
      instr.type = program_.regs[instr.a].type;
    } else if (op == Opcode::kIfBegin) {
      instr.type = I32();
    }
    program_.code.push_back(instr);
    return Status::Ok();
  }

  std::string_view text_;
  Program program_;
  std::map<std::string, RegId> regs_;
};

}  // namespace

StatusOr<Program> ParseProgram(std::string_view text) {
  return Parser(text).Run();
}

}  // namespace malisim::kir
