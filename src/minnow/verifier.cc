#include "src/minnow/verifier.h"

#include <vector>

#include "src/minnow/elide.h"

namespace minnow {

namespace {

bool ValidElemKind(std::int64_t operand) {
  const auto kind = static_cast<TypeKind>(operand);
  return kind == TypeKind::kInt || kind == TypeKind::kU32 || kind == TypeKind::kByte ||
         kind == TypeKind::kBool;
}

// Operand range checks for one base instruction. A superinstruction is
// checked through its expansion, so each packed index is checked, and named,
// as the base op that uses it.
bool CheckOperand(const Program& program, const FunctionCode& fn, const Insn& insn,
                  std::string& error) {
  switch (insn.op) {
    case Op::kLoadLocal:
    case Op::kStoreLocal:
      if (insn.operand < 0 || insn.operand >= fn.num_locals) {
        error = "local slot out of range";
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
    case Op::kCall:
      if (insn.operand < 0 ||
          static_cast<std::size_t>(insn.operand) >= program.functions.size()) {
        error = "call target out of range";
        return false;
      }
      break;
    case Op::kCallHost:
      if (insn.operand < 0 ||
          static_cast<std::size_t>(insn.operand) >= program.host_imports.size()) {
        error = "host import index out of range";
        return false;
      }
      break;
    case Op::kNewStruct:
      if (insn.operand < 0 || static_cast<std::size_t>(insn.operand) >= program.structs.size()) {
        error = "struct id out of range";
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

    if (static_cast<std::size_t>(insn.op) >= kNumOps) {
      return fail(pc, "unknown opcode");
    }
    Insn ops[kMaxExpansion];
    const int count = Expand(insn, ops);
    for (int i = 0; i < count; ++i) {
      std::string error;
      if (!CheckOperand(program, fn, ops[i], error)) {
        return fail(pc, error);
      }
    }
    const Shape shape = ShapeOf(program, insn);
    if (depth < shape.pops) {
      return fail(pc, "stack underflow");
    }
    const int after = depth - shape.pops + shape.pushes;
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

    if (shape.branch) {
      const std::int64_t target = BranchTarget(insn);
      if (target < 0 || static_cast<std::size_t>(target) >= n) {
        return fail(pc, "branch target out of range");
      }
      if (!flow_to(static_cast<std::size_t>(target))) {
        return fail(pc, "inconsistent stack depth at branch target");
      }
    }
    if (!shape.terminal) {
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
