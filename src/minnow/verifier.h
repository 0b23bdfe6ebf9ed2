// Minnow load-time bytecode verifier.
//
// The kernel must not trust the compiler that produced a downloaded graft
// (paper §4.2-4.3): before a Program is executed, every function is checked
// by a linear dataflow pass that proves
//
//   * all jump targets land inside the function;
//   * the operand stack depth is consistent at every program point (the
//     same depth on every path into an instruction, no underflow, bounded
//     above by kMaxStack);
//   * every slot/global/function/host/struct/field/element-kind operand is
//     in range;
//   * control cannot fall off the end of a function.
//
// The pass also computes each function's max_stack so the interpreter can
// preallocate frames. Verification is O(code size) — each instruction is
// visited once with constant work, matching the paper's load-time-check
// model.

#ifndef GRAFTLAB_SRC_MINNOW_VERIFIER_H_
#define GRAFTLAB_SRC_MINNOW_VERIFIER_H_

#include <cstddef>
#include <string>

#include "src/minnow/bytecode.h"

namespace minnow {

inline constexpr int kMaxStack = 1024;

struct VerifyReport {
  bool ok = true;
  std::string message;
  int function = -1;   // offending function index when !ok
  std::size_t pc = 0;  // offending instruction when !ok
};

// True when any function carries an unchecked (`.nc`, `div.nz`) opcode —
// code that is only legal under a matching elision certificate.
bool HasUncheckedOps(const Program& program);

// Verifies every function and fills in FunctionCode::max_stack.
VerifyReport VerifyProgram(Program& program);

}  // namespace minnow

#endif  // GRAFTLAB_SRC_MINNOW_VERIFIER_H_
