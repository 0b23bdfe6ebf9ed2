// Minnow bytecode optimizer — an optional load-time pass.
//
// The paper's §4.3 draws "a flexible line between generating native code at
// load time and dynamically generating native code from interpreted code";
// this pass sits at the cheap end of that line: classic javac-style
// improvements on the stack bytecode itself, before either execution engine
// sees it.
//
//   * constant folding (binary and unary ops over ConstInt operands, with
//     trapping cases like division by zero deliberately left un-folded so
//     runtime semantics are preserved bit-for-bit);
//   * constant-condition branch folding (ConstInt + JmpIfX -> Jmp or fall
//     through);
//   * jump threading (a branch to an unconditional jump takes its target);
//   * unreachable-code elimination.
//
// The pass never changes observable behavior: optimized programs must pass
// the verifier and execute identically (differential-tested in
// tests/minnow_optimizer_test.cc). Fuel accounting changes — optimized code
// retires fewer instructions — which is the point.

#ifndef GRAFTLAB_SRC_MINNOW_OPTIMIZER_H_
#define GRAFTLAB_SRC_MINNOW_OPTIMIZER_H_

#include "src/minnow/bytecode.h"

namespace minnow {

struct OptimizeStats {
  std::size_t instructions_before = 0;
  std::size_t instructions_after = 0;
  std::size_t constants_folded = 0;
  std::size_t branches_folded = 0;
  std::size_t jumps_threaded = 0;
  std::size_t unreachable_removed = 0;
};

// Optimizes every function in place. The caller should re-run VerifyProgram
// afterwards (Program::max_stack may shrink).
OptimizeStats Optimize(Program& program);

struct FuseStats {
  std::size_t instructions_before = 0;
  std::size_t instructions_after = 0;
  std::size_t pairs_fused = 0;                 // LoadAddI / AddConstI / ConstStore
  std::size_t compare_branches_fused = 0;      // kBr*I / kBr*Ref
  std::size_t imm_compare_branches_fused = 0;  // kBr*ImmI triples
  std::size_t branches_inverted = 0;           // NotB + JmpIfX -> JmpIf!X
};

// Superinstruction fusion: collapses the adjacent-opcode pairs (and
// const+compare+branch triples) that dominate graft traces — the fusion set
// was chosen from the opcode-pair frequencies the VM profiler exports through
// graftd telemetry (see DESIGN.md). Fusion never crosses a jump target and
// preserves trap semantics exactly; only instruction (and therefore fuel)
// counts change. Fused programs pass the verifier and run on every dispatch
// mode, the JIT included. The caller should re-run VerifyProgram to refresh
// max_stack.
FuseStats FuseSuperinstructions(Program& program);

}  // namespace minnow

#endif  // GRAFTLAB_SRC_MINNOW_OPTIMIZER_H_
