#include "src/minnow/verifier.h"

#include <vector>

#include "src/minnow/elide.h"

namespace minnow {

namespace {

struct Effect {
  int pops = 0;
  int pushes = 0;
  bool terminal = false;  // control does not fall through
  bool branch = false;    // has a jump-target operand
};

// Returns false if the opcode itself is unknown.
bool StackEffect(const Program& program, const Insn& insn, Effect& effect, std::string& error) {
  switch (insn.op) {
    case Op::kNop:
      break;
    case Op::kConstInt:
    case Op::kConstNull:
    case Op::kLoadLocal:
    case Op::kLoadGlobal:
      effect.pushes = 1;
      break;
    case Op::kStoreLocal:
    case Op::kStoreGlobal:
    case Op::kPop:
      effect.pops = 1;
      break;
    case Op::kDup:
      effect.pops = 1;
      effect.pushes = 2;
      break;
    case Op::kNegI:
    case Op::kNotI:
    case Op::kNotU:
    case Op::kNotB:
    case Op::kCastU32:
    case Op::kCastByte:
    case Op::kArrayLen:
      effect.pops = 1;
      effect.pushes = 1;
      break;
    case Op::kAddI:
    case Op::kSubI:
    case Op::kMulI:
    case Op::kDivI:
    case Op::kModI:
    case Op::kAndI:
    case Op::kOrI:
    case Op::kXorI:
    case Op::kShlI:
    case Op::kShrI:
    case Op::kAddU:
    case Op::kSubU:
    case Op::kMulU:
    case Op::kDivU:
    case Op::kModU:
    case Op::kShlU:
    case Op::kShrU:
    case Op::kEqI:
    case Op::kNeI:
    case Op::kLtI:
    case Op::kLeI:
    case Op::kGtI:
    case Op::kGeI:
    case Op::kLtU:
    case Op::kLeU:
    case Op::kGtU:
    case Op::kGeU:
    case Op::kEqRef:
    case Op::kNeRef:
      effect.pops = 2;
      effect.pushes = 1;
      break;
    case Op::kJmp:
      effect.branch = true;
      effect.terminal = true;
      break;
    case Op::kJmpIfFalse:
    case Op::kJmpIfTrue:
      effect.pops = 1;
      effect.branch = true;
      break;
    case Op::kCall: {
      if (insn.operand < 0 ||
          static_cast<std::size_t>(insn.operand) >= program.functions.size()) {
        error = "call target out of range";
        return false;
      }
      const auto& callee = program.functions[static_cast<std::size_t>(insn.operand)];
      effect.pops = callee.num_params;
      effect.pushes = callee.returns_value ? 1 : 0;
      break;
    }
    case Op::kCallHost: {
      if (insn.operand < 0 ||
          static_cast<std::size_t>(insn.operand) >= program.host_imports.size()) {
        error = "host import index out of range";
        return false;
      }
      const auto& host = program.host_imports[static_cast<std::size_t>(insn.operand)];
      effect.pops = host.arity;
      effect.pushes = host.returns_value ? 1 : 0;
      break;
    }
    case Op::kRet:
      effect.pops = 1;
      effect.terminal = true;
      break;
    case Op::kRetVoid:
    case Op::kTrap:
      effect.terminal = true;
      break;
    case Op::kNewStruct:
      if (insn.operand < 0 || static_cast<std::size_t>(insn.operand) >= program.structs.size()) {
        error = "struct id out of range";
        return false;
      }
      effect.pushes = 1;
      break;
    case Op::kNewArray:
      effect.pops = 1;
      effect.pushes = 1;
      break;
    case Op::kLoadField:
      effect.pops = 1;
      effect.pushes = 1;
      break;
    case Op::kStoreField:
      effect.pops = 2;
      break;
    case Op::kLoadElem:
      effect.pops = 2;
      effect.pushes = 1;
      break;
    case Op::kStoreElem:
      effect.pops = 3;
      break;
    case Op::kLoadAddI:
    case Op::kAddConstI:
      effect.pops = 1;
      effect.pushes = 1;
      break;
    case Op::kConstStore:
      break;
    case Op::kBrEqI:
    case Op::kBrNeI:
    case Op::kBrLtI:
    case Op::kBrLeI:
    case Op::kBrGtI:
    case Op::kBrGeI:
    case Op::kBrEqRef:
    case Op::kBrNeRef:
      effect.pops = 2;
      effect.branch = true;
      break;
    case Op::kBrEqImmI:
    case Op::kBrNeImmI:
    case Op::kBrLtImmI:
    case Op::kBrLeImmI:
    case Op::kBrGtImmI:
    case Op::kBrGeImmI:
      effect.pops = 1;
      effect.branch = true;
      break;
    case Op::kLoadLocal2:
    case Op::kLoadConstI:
    case Op::kLoadGlobalLocal:
      effect.pushes = 2;
      break;
    case Op::kMoveLocal:
      break;
    case Op::kStoreLoad:
      effect.pops = 1;
      effect.pushes = 1;
      break;
    // Unchecked variants mirror their checked originals' stack shapes.
    case Op::kLoadElemNC:
      effect.pops = 2;
      effect.pushes = 1;
      break;
    case Op::kStoreElemNC:
      effect.pops = 3;
      break;
    case Op::kLoadFieldNC:
    case Op::kArrayLenNC:
      effect.pops = 1;
      effect.pushes = 1;
      break;
    case Op::kStoreFieldNC:
      effect.pops = 2;
      break;
    case Op::kDivNZ:
    case Op::kModNZ:
      effect.pops = 2;
      effect.pushes = 1;
      break;
    default:
      error = "unknown opcode";
      return false;
  }
  return true;
}

// Imm-branch operands pack immediate<<32 | target; everything else branches
// on the raw operand.
std::int64_t BranchTargetOf(const Insn& insn) {
  switch (insn.op) {
    case Op::kBrEqImmI:
    case Op::kBrNeImmI:
    case Op::kBrLtImmI:
    case Op::kBrLeImmI:
    case Op::kBrGtImmI:
    case Op::kBrGeImmI:
      return static_cast<std::int64_t>(ImmBranchTarget(insn.operand));
    default:
      return insn.operand;
  }
}

bool ValidElemKind(std::int64_t operand) {
  const auto kind = static_cast<TypeKind>(operand);
  return kind == TypeKind::kInt || kind == TypeKind::kU32 || kind == TypeKind::kByte ||
         kind == TypeKind::kBool;
}

// Operand range checks that don't affect stack shape.
bool CheckOperand(const Program& program, const FunctionCode& fn, const Insn& insn,
                  std::string& error) {
  switch (insn.op) {
    case Op::kLoadLocal:
    case Op::kStoreLocal:
    case Op::kLoadAddI:
      if (insn.operand < 0 || insn.operand >= fn.num_locals) {
        error = "local slot out of range";
        return false;
      }
      break;
    case Op::kConstStore:
    case Op::kLoadConstI:
      if (ConstStoreSlot(insn.operand) >= static_cast<std::uint32_t>(fn.num_locals)) {
        error = "local slot out of range";
        return false;
      }
      break;
    case Op::kLoadLocal2:
    case Op::kMoveLocal:
    case Op::kStoreLoad:
      if (SlotPairA(insn.operand) >= static_cast<std::uint32_t>(fn.num_locals) ||
          SlotPairB(insn.operand) >= static_cast<std::uint32_t>(fn.num_locals)) {
        error = "local slot out of range";
        return false;
      }
      break;
    case Op::kLoadGlobalLocal:
      if (SlotPairA(insn.operand) >= program.globals.size() ||
          SlotPairB(insn.operand) >= static_cast<std::uint32_t>(fn.num_locals)) {
        error = "global index out of range";
        return false;
      }
      break;
    case Op::kLoadGlobal:
    case Op::kStoreGlobal:
      if (insn.operand < 0 || static_cast<std::size_t>(insn.operand) >= program.globals.size()) {
        error = "global index out of range";
        return false;
      }
      break;
    case Op::kNewArray:
    case Op::kLoadElem:
    case Op::kStoreElem:
    case Op::kLoadElemNC:
    case Op::kStoreElemNC:
      if (!ValidElemKind(insn.operand)) {
        error = "invalid array element kind";
        return false;
      }
      break;
    case Op::kLoadField:
    case Op::kStoreField:
    case Op::kLoadFieldNC:
    case Op::kStoreFieldNC:
      // Field indices are checked against the receiver's layout at run time
      // (the verifier tracks no types); they must at least be non-negative
      // and within the largest layout.
      {
        int max_fields = 0;
        for (const auto& layout : program.structs) {
          if (layout.num_fields > max_fields) {
            max_fields = layout.num_fields;
          }
        }
        if (insn.operand < 0 || insn.operand >= max_fields) {
          error = "field index out of range for every struct layout";
          return false;
        }
      }
      break;
    default:
      break;
  }
  return true;
}

VerifyReport VerifyFunction(const Program& program, FunctionCode& fn, int fn_index) {
  auto fail = [&](std::size_t pc, const std::string& message) {
    VerifyReport report;
    report.ok = false;
    report.message = "fn '" + fn.name + "': " + message;
    report.function = fn_index;
    report.pc = pc;
    return report;
  };

  if (fn.num_params > fn.num_locals) {
    return fail(0, "params exceed locals");
  }
  if (fn.code.empty()) {
    return fail(0, "empty code");
  }

  const std::size_t n = fn.code.size();
  std::vector<int> depth_at(n, -1);
  std::vector<std::size_t> worklist;
  depth_at[0] = 0;
  worklist.push_back(0);
  int max_stack = 0;

  while (!worklist.empty()) {
    const std::size_t pc = worklist.back();
    worklist.pop_back();
    const Insn& insn = fn.code[pc];
    const int depth = depth_at[pc];

    std::string error;
    Effect effect;
    if (!StackEffect(program, insn, effect, error)) {
      return fail(pc, error);
    }
    if (!CheckOperand(program, fn, insn, error)) {
      return fail(pc, error);
    }
    if (depth < effect.pops) {
      return fail(pc, "stack underflow");
    }
    const int after = depth - effect.pops + effect.pushes;
    if (after > kMaxStack) {
      return fail(pc, "stack overflow (static)");
    }
    if (after > max_stack) {
      max_stack = after;
    }

    auto flow_to = [&](std::size_t target) -> bool {
      if (target >= n) {
        return false;
      }
      if (depth_at[target] == -1) {
        depth_at[target] = after;
        worklist.push_back(target);
      } else if (depth_at[target] != after) {
        return false;  // inconsistent merge depth — treated as range error below
      }
      return true;
    };

    if (effect.branch) {
      const std::int64_t target = BranchTargetOf(insn);
      if (target < 0 || static_cast<std::size_t>(target) >= n) {
        return fail(pc, "branch target out of range");
      }
      if (!flow_to(static_cast<std::size_t>(target))) {
        return fail(pc, "inconsistent stack depth at branch target");
      }
    }
    if (!effect.terminal) {
      if (pc + 1 >= n) {
        return fail(pc, "control falls off the end of the function");
      }
      if (!flow_to(pc + 1)) {
        return fail(pc, "inconsistent stack depth at fall-through");
      }
    }
  }

  fn.max_stack = max_stack;
  return VerifyReport{};
}

}  // namespace

bool HasUncheckedOps(const Program& program) {
  for (const auto& fn : program.functions) {
    for (const Insn& insn : fn.code) {
      if (IsUncheckedOp(insn.op)) {
        return true;
      }
    }
  }
  return false;
}

VerifyReport VerifyProgram(Program& program) {
  // Unchecked opcodes are only legal under a matching elision certificate:
  // the proof that made them safe is bound to this exact opcode stream.
  if (HasUncheckedOps(program) && !ElisionCertificateValid(program)) {
    VerifyReport report;
    report.ok = false;
    report.message = program.elision.attached
                         ? "unchecked opcodes with a stale elision certificate"
                         : "unchecked opcodes without an elision certificate";
    return report;
  }
  for (std::size_t i = 0; i < program.functions.size(); ++i) {
    VerifyReport report = VerifyFunction(program, program.functions[i], static_cast<int>(i));
    if (!report.ok) {
      return report;
    }
  }
  return VerifyReport{};
}

}  // namespace minnow
