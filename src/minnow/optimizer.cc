#include "src/minnow/optimizer.h"

#include <limits>
#include <vector>

namespace minnow {

namespace {

std::vector<bool> JumpTargets(const Program& program, const FunctionCode& fn) {
  std::vector<bool> targets(fn.code.size() + 1, false);
  for (const Insn& insn : fn.code) {
    if (ShapeOf(program, insn).branch) {
      targets[static_cast<std::size_t>(BranchTarget(insn))] = true;
    }
  }
  return targets;
}

// Removes instructions where keep[i] is false, remapping branch targets to
// the first kept instruction at or after the old target.
void Compact(const Program& program, FunctionCode& fn, const std::vector<bool>& keep) {
  std::vector<std::int64_t> remap(fn.code.size() + 1, 0);
  std::int64_t next = 0;
  for (std::size_t i = 0; i < fn.code.size(); ++i) {
    remap[i] = next;
    if (keep[i]) {
      ++next;
    }
  }
  remap[fn.code.size()] = next;

  std::vector<Insn> out;
  out.reserve(static_cast<std::size_t>(next));
  for (std::size_t i = 0; i < fn.code.size(); ++i) {
    if (!keep[i]) {
      continue;
    }
    Insn insn = fn.code[i];
    if (ShapeOf(program, insn).branch) {
      SetBranchTarget(insn, remap[static_cast<std::size_t>(BranchTarget(insn))]);
    }
    out.push_back(insn);
  }
  fn.code = std::move(out);
}

// Maps a comparison followed by kJmpIfTrue (or, when `inverted`, kJmpIfFalse)
// to the equivalent fused compare-and-branch opcode. Returns false for
// comparisons with no fused form (the unsigned family).
bool FusedCompareBranch(Op cmp, bool inverted, Op& out) {
  switch (cmp) {
    case Op::kEqI: out = inverted ? Op::kBrNeI : Op::kBrEqI; return true;
    case Op::kNeI: out = inverted ? Op::kBrEqI : Op::kBrNeI; return true;
    case Op::kLtI: out = inverted ? Op::kBrGeI : Op::kBrLtI; return true;
    case Op::kLeI: out = inverted ? Op::kBrGtI : Op::kBrLeI; return true;
    case Op::kGtI: out = inverted ? Op::kBrLeI : Op::kBrGtI; return true;
    case Op::kGeI: out = inverted ? Op::kBrLtI : Op::kBrGeI; return true;
    case Op::kEqRef: out = inverted ? Op::kBrNeRef : Op::kBrEqRef; return true;
    case Op::kNeRef: out = inverted ? Op::kBrEqRef : Op::kBrNeRef; return true;
    default: return false;
  }
}

// The imm forms only exist for the signed-integer comparisons.
bool FusedImmCompareBranch(Op cmp, bool inverted, Op& out) {
  switch (cmp) {
    case Op::kEqI: out = inverted ? Op::kBrNeImmI : Op::kBrEqImmI; return true;
    case Op::kNeI: out = inverted ? Op::kBrEqImmI : Op::kBrNeImmI; return true;
    case Op::kLtI: out = inverted ? Op::kBrGeImmI : Op::kBrLtImmI; return true;
    case Op::kLeI: out = inverted ? Op::kBrGtImmI : Op::kBrLeImmI; return true;
    case Op::kGtI: out = inverted ? Op::kBrLeImmI : Op::kBrGtImmI; return true;
    case Op::kGeI: out = inverted ? Op::kBrLtImmI : Op::kBrGeImmI; return true;
    default: return false;
  }
}

bool FitsInt32(std::int64_t v) {
  return v >= std::numeric_limits<std::int32_t>::min() &&
         v <= std::numeric_limits<std::int32_t>::max();
}

std::size_t FuseFunction(const Program& program, FunctionCode& fn, FuseStats& stats) {
  const auto targets = JumpTargets(program, fn);
  std::vector<bool> keep(fn.code.size(), true);
  std::size_t fused = 0;

  for (std::size_t i = 0; i + 1 < fn.code.size(); ++i) {
    if (!keep[i] || targets[i + 1]) {
      continue;
    }
    const Insn a = fn.code[i];
    const Insn b = fn.code[i + 1];

    // Triple: [Const c][int cmp][JmpIfX t] -> one pop-compare-branch, when the
    // constant and the target both fit the packed operand.
    if (i + 2 < fn.code.size() && !targets[i + 2] && a.op == Op::kConstInt && FitsInt32(a.operand)) {
      const Insn& c = fn.code[i + 2];
      Op fused_op;
      if ((c.op == Op::kJmpIfTrue || c.op == Op::kJmpIfFalse) &&
          c.operand <= std::numeric_limits<std::uint32_t>::max() &&
          FusedImmCompareBranch(b.op, c.op == Op::kJmpIfFalse, fused_op)) {
        fn.code[i + 2] = {fused_op, PackImmBranch(static_cast<std::int32_t>(a.operand),
                                                  static_cast<std::uint32_t>(c.operand))};
        keep[i] = false;
        keep[i + 1] = false;
        ++fused;
        ++stats.imm_compare_branches_fused;
        ++i;  // the pair scan must not reconsider the consumed comparison
        continue;
      }
    }

    // Pair: [cmp][JmpIfX t] -> fused compare-and-branch (sense-inverted for
    // JmpIfFalse so six opcodes cover both polarities).
    if (b.op == Op::kJmpIfTrue || b.op == Op::kJmpIfFalse) {
      Op fused_op;
      if (FusedCompareBranch(a.op, b.op == Op::kJmpIfFalse, fused_op)) {
        fn.code[i + 1] = {fused_op, b.operand};
        keep[i] = false;
        ++fused;
        ++stats.compare_branches_fused;
        continue;
      }
      // [NotB][JmpIfX] -> the opposite branch; no new opcode needed.
      if (a.op == Op::kNotB) {
        fn.code[i + 1] = {b.op == Op::kJmpIfFalse ? Op::kJmpIfTrue : Op::kJmpIfFalse, b.operand};
        keep[i] = false;
        ++fused;
        ++stats.branches_inverted;
        continue;
      }
    }

    // Pair: [LoadLocal s][AddI] -> LoadAddI s.
    if (a.op == Op::kLoadLocal && b.op == Op::kAddI) {
      fn.code[i + 1] = {Op::kLoadAddI, a.operand};
      keep[i] = false;
      ++fused;
      ++stats.pairs_fused;
      continue;
    }
    // Pair: [Const c][AddI] -> AddConstI c.
    if (a.op == Op::kConstInt && b.op == Op::kAddI) {
      fn.code[i + 1] = {Op::kAddConstI, a.operand};
      keep[i] = false;
      ++fused;
      ++stats.pairs_fused;
      continue;
    }
    // Pair: [Const c][StoreLocal s] -> ConstStore, when c fits 32 bits.
    if (a.op == Op::kConstInt && b.op == Op::kStoreLocal && FitsInt32(a.operand)) {
      fn.code[i + 1] = {Op::kConstStore, PackConstStore(static_cast<std::int32_t>(a.operand),
                                                        static_cast<std::uint32_t>(b.operand))};
      keep[i] = false;
      ++fused;
      ++stats.pairs_fused;
      continue;
    }
    // The remaining pairs are the hot-profile local/global traffic (see the
    // pair table in bench/ablate_minnow_exec). Each packs two u32 indices
    // into the operand.
    // Pair: [LoadLocal a][LoadLocal b] -> LoadLocal2.
    if (a.op == Op::kLoadLocal && b.op == Op::kLoadLocal) {
      fn.code[i + 1] = {Op::kLoadLocal2, PackSlotPair(static_cast<std::uint32_t>(a.operand),
                                                      static_cast<std::uint32_t>(b.operand))};
      keep[i] = false;
      ++fused;
      ++stats.pairs_fused;
      continue;
    }
    // Pair: [LoadLocal s][Const c] -> LoadConstI, when c fits 32 bits.
    // (When the constant starts a compare-branch triple this costs nothing:
    // the comparison still pair-fuses with the branch, so both paths retire
    // two dispatches.)
    if (a.op == Op::kLoadLocal && b.op == Op::kConstInt && FitsInt32(b.operand)) {
      fn.code[i + 1] = {Op::kLoadConstI, PackConstStore(static_cast<std::int32_t>(b.operand),
                                                        static_cast<std::uint32_t>(a.operand))};
      keep[i] = false;
      ++fused;
      ++stats.pairs_fused;
      continue;
    }
    // Pair: [LoadLocal src][StoreLocal dst] -> MoveLocal.
    if (a.op == Op::kLoadLocal && b.op == Op::kStoreLocal) {
      fn.code[i + 1] = {Op::kMoveLocal, PackSlotPair(static_cast<std::uint32_t>(a.operand),
                                                     static_cast<std::uint32_t>(b.operand))};
      keep[i] = false;
      ++fused;
      ++stats.pairs_fused;
      continue;
    }
    // Pair: [StoreLocal a][LoadLocal b] -> StoreLoad (b == a reloads the
    // just-stored value without touching the operand stack twice).
    if (a.op == Op::kStoreLocal && b.op == Op::kLoadLocal) {
      fn.code[i + 1] = {Op::kStoreLoad, PackSlotPair(static_cast<std::uint32_t>(a.operand),
                                                     static_cast<std::uint32_t>(b.operand))};
      keep[i] = false;
      ++fused;
      ++stats.pairs_fused;
      continue;
    }
    // Pair: [LoadGlobal g][LoadLocal s] -> LoadGlobalLocal.
    if (a.op == Op::kLoadGlobal && b.op == Op::kLoadLocal) {
      fn.code[i + 1] = {Op::kLoadGlobalLocal, PackSlotPair(static_cast<std::uint32_t>(a.operand),
                                                           static_cast<std::uint32_t>(b.operand))};
      keep[i] = false;
      ++fused;
      ++stats.pairs_fused;
      continue;
    }
  }

  if (fused > 0) {
    Compact(program, fn, keep);
  }
  return fused;
}

}  // namespace

FuseStats FuseSuperinstructions(Program& program) {
  FuseStats stats;
  for (auto& fn : program.functions) {
    stats.instructions_before += fn.code.size();
    // One round exposes no second-order fusions (no pattern starts with a
    // superinstruction), so a single pass per function is a fixpoint.
    FuseFunction(program, fn, stats);
    stats.instructions_after += fn.code.size();
  }
  return stats;
}

}  // namespace minnow
