#include "src/minnow/bytecode.h"

#include <algorithm>
#include <initializer_list>
#include <sstream>

namespace minnow {

const char* OpName(Op op) {
  switch (op) {
    case Op::kNop: return "nop";
    case Op::kConstInt: return "const.i";
    case Op::kConstNull: return "const.null";
    case Op::kLoadLocal: return "load.local";
    case Op::kStoreLocal: return "store.local";
    case Op::kLoadGlobal: return "load.global";
    case Op::kStoreGlobal: return "store.global";
    case Op::kPop: return "pop";
    case Op::kDup: return "dup";
    case Op::kAddI: return "add.i";
    case Op::kSubI: return "sub.i";
    case Op::kMulI: return "mul.i";
    case Op::kDivI: return "div.i";
    case Op::kModI: return "mod.i";
    case Op::kNegI: return "neg.i";
    case Op::kAndI: return "and.i";
    case Op::kOrI: return "or.i";
    case Op::kXorI: return "xor.i";
    case Op::kShlI: return "shl.i";
    case Op::kShrI: return "shr.i";
    case Op::kNotI: return "not.i";
    case Op::kAddU: return "add.u";
    case Op::kSubU: return "sub.u";
    case Op::kMulU: return "mul.u";
    case Op::kDivU: return "div.u";
    case Op::kModU: return "mod.u";
    case Op::kShlU: return "shl.u";
    case Op::kShrU: return "shr.u";
    case Op::kNotU: return "not.u";
    case Op::kEqI: return "eq.i";
    case Op::kNeI: return "ne.i";
    case Op::kLtI: return "lt.i";
    case Op::kLeI: return "le.i";
    case Op::kGtI: return "gt.i";
    case Op::kGeI: return "ge.i";
    case Op::kLtU: return "lt.u";
    case Op::kLeU: return "le.u";
    case Op::kGtU: return "gt.u";
    case Op::kGeU: return "ge.u";
    case Op::kEqRef: return "eq.ref";
    case Op::kNeRef: return "ne.ref";
    case Op::kNotB: return "not.b";
    case Op::kCastU32: return "cast.u32";
    case Op::kCastByte: return "cast.byte";
    case Op::kJmp: return "jmp";
    case Op::kJmpIfFalse: return "jmp.false";
    case Op::kJmpIfTrue: return "jmp.true";
    case Op::kCall: return "call";
    case Op::kCallHost: return "call.host";
    case Op::kRet: return "ret";
    case Op::kRetVoid: return "ret.void";
    case Op::kNewStruct: return "new.struct";
    case Op::kNewArray: return "new.array";
    case Op::kLoadField: return "load.field";
    case Op::kStoreField: return "store.field";
    case Op::kLoadElem: return "load.elem";
    case Op::kStoreElem: return "store.elem";
    case Op::kArrayLen: return "array.len";
    case Op::kTrap: return "trap";
    case Op::kLoadAddI: return "load+add.i";
    case Op::kAddConstI: return "add.const.i";
    case Op::kConstStore: return "const+store";
    case Op::kBrEqI: return "br.eq.i";
    case Op::kBrNeI: return "br.ne.i";
    case Op::kBrLtI: return "br.lt.i";
    case Op::kBrLeI: return "br.le.i";
    case Op::kBrGtI: return "br.gt.i";
    case Op::kBrGeI: return "br.ge.i";
    case Op::kBrEqRef: return "br.eq.ref";
    case Op::kBrNeRef: return "br.ne.ref";
    case Op::kBrEqImmI: return "br.eq.imm.i";
    case Op::kBrNeImmI: return "br.ne.imm.i";
    case Op::kBrLtImmI: return "br.lt.imm.i";
    case Op::kBrLeImmI: return "br.le.imm.i";
    case Op::kBrGtImmI: return "br.gt.imm.i";
    case Op::kBrGeImmI: return "br.ge.imm.i";
    case Op::kLoadLocal2: return "load.local2";
    case Op::kLoadConstI: return "load+const.i";
    case Op::kMoveLocal: return "move.local";
    case Op::kStoreLoad: return "store+load";
    case Op::kLoadGlobalLocal: return "load.global+local";
    case Op::kLoadElemNC: return "load.arr.nc";
    case Op::kStoreElemNC: return "store.arr.nc";
    case Op::kLoadFieldNC: return "deref.nc";
    case Op::kStoreFieldNC: return "deref.store.nc";
    case Op::kDivNZ: return "div.nz";
    case Op::kModNZ: return "mod.nz";
    case Op::kArrayLenNC: return "len.nc";
  }
  return "?";
}

Shape ShapeOf(const Program& program, const Insn& insn) {
  switch (insn.op) {
    case Op::kNop:
      return {};
    case Op::kConstInt:
    case Op::kConstNull:
    case Op::kLoadLocal:
    case Op::kLoadGlobal:
    case Op::kNewStruct:
      return {0, 1};
    case Op::kStoreLocal:
    case Op::kStoreGlobal:
    case Op::kPop:
      return {1, 0};
    case Op::kDup:
      return {1, 2};
    case Op::kNegI:
    case Op::kNotI:
    case Op::kNotU:
    case Op::kNotB:
    case Op::kCastU32:
    case Op::kCastByte:
    case Op::kNewArray:
    case Op::kLoadField:
    case Op::kLoadFieldNC:
    case Op::kArrayLen:
    case Op::kArrayLenNC:
      return {1, 1};
    case Op::kAddI:
    case Op::kSubI:
    case Op::kMulI:
    case Op::kDivI:
    case Op::kModI:
    case Op::kDivNZ:
    case Op::kModNZ:
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
    case Op::kLoadElem:
    case Op::kLoadElemNC:
      return {2, 1};
    case Op::kStoreField:
    case Op::kStoreFieldNC:
      return {2, 0};
    case Op::kStoreElem:
    case Op::kStoreElemNC:
      return {3, 0};
    case Op::kJmp:
      return {0, 0, true, true};
    case Op::kJmpIfFalse:
    case Op::kJmpIfTrue:
      return {1, 0, true, false};
    case Op::kCall:
      if (insn.operand < 0 || static_cast<std::size_t>(insn.operand) >= program.functions.size()) {
        return {};
      } else {
        const auto& callee = program.functions[static_cast<std::size_t>(insn.operand)];
        return {callee.num_params, callee.returns_value ? 1 : 0};
      }
    case Op::kCallHost:
      if (insn.operand < 0 ||
          static_cast<std::size_t>(insn.operand) >= program.host_imports.size()) {
        return {};
      } else {
        const auto& host = program.host_imports[static_cast<std::size_t>(insn.operand)];
        return {host.arity, host.returns_value ? 1 : 0};
      }
    case Op::kRet:
      return {1, 0, false, true};
    case Op::kRetVoid:
    case Op::kTrap:
      return {0, 0, false, true};
    case Op::kLoadAddI:
    case Op::kAddConstI:
    case Op::kConstStore:
    case Op::kBrEqI:
    case Op::kBrNeI:
    case Op::kBrLtI:
    case Op::kBrLeI:
    case Op::kBrGtI:
    case Op::kBrGeI:
    case Op::kBrEqRef:
    case Op::kBrNeRef:
    case Op::kBrEqImmI:
    case Op::kBrNeImmI:
    case Op::kBrLtImmI:
    case Op::kBrLeImmI:
    case Op::kBrGtImmI:
    case Op::kBrGeImmI:
    case Op::kLoadLocal2:
    case Op::kLoadConstI:
    case Op::kMoveLocal:
    case Op::kStoreLoad:
    case Op::kLoadGlobalLocal: {
      // Pops are the deepest the sequence reaches below its entry depth.
      Insn ops[kMaxExpansion];
      const int n = Expand(insn, ops);
      Shape shape;
      int depth = 0;
      for (int i = 0; i < n; ++i) {
        const Shape step = ShapeOf(program, ops[i]);
        depth -= step.pops;
        shape.pops = std::max(shape.pops, -depth);
        depth += step.pushes;
        shape.branch = step.branch;
        shape.terminal = step.terminal;
      }
      shape.pushes = depth + shape.pops;
      return shape;
    }
  }
  return {};  // a byte outside the opcode set; the verifier rejects it first
}

int Expand(const Insn& insn, Insn out[kMaxExpansion]) {
  const std::int64_t v = insn.operand;
  const auto seq = [out](std::initializer_list<Insn> ops) {
    std::copy(ops.begin(), ops.end(), out);
    return static_cast<int>(ops.size());
  };
  // cmp; jmp.true t, and the const-imm form in front of it.
  const auto br = [&seq, v](Op cmp) { return seq({{cmp, 0}, {Op::kJmpIfTrue, v}}); };
  const auto br_imm = [&seq, v](Op cmp) {
    return seq({{Op::kConstInt, ImmBranchValue(v)},
                {cmp, 0},
                {Op::kJmpIfTrue, static_cast<std::int64_t>(ImmBranchTarget(v))}});
  };
  switch (insn.op) {
    case Op::kLoadAddI:
      return seq({{Op::kLoadLocal, v}, {Op::kAddI, 0}});
    case Op::kAddConstI:
      return seq({{Op::kConstInt, v}, {Op::kAddI, 0}});
    case Op::kConstStore:
      return seq({{Op::kConstInt, ConstStoreValue(v)}, {Op::kStoreLocal, ConstStoreSlot(v)}});
    case Op::kBrEqI: return br(Op::kEqI);
    case Op::kBrNeI: return br(Op::kNeI);
    case Op::kBrLtI: return br(Op::kLtI);
    case Op::kBrLeI: return br(Op::kLeI);
    case Op::kBrGtI: return br(Op::kGtI);
    case Op::kBrGeI: return br(Op::kGeI);
    case Op::kBrEqRef: return br(Op::kEqRef);
    case Op::kBrNeRef: return br(Op::kNeRef);
    case Op::kBrEqImmI: return br_imm(Op::kEqI);
    case Op::kBrNeImmI: return br_imm(Op::kNeI);
    case Op::kBrLtImmI: return br_imm(Op::kLtI);
    case Op::kBrLeImmI: return br_imm(Op::kLeI);
    case Op::kBrGtImmI: return br_imm(Op::kGtI);
    case Op::kBrGeImmI: return br_imm(Op::kGeI);
    case Op::kLoadLocal2:
      return seq({{Op::kLoadLocal, SlotPairA(v)}, {Op::kLoadLocal, SlotPairB(v)}});
    case Op::kLoadConstI:
      return seq({{Op::kLoadLocal, ConstStoreSlot(v)}, {Op::kConstInt, ConstStoreValue(v)}});
    case Op::kMoveLocal:
      return seq({{Op::kLoadLocal, SlotPairA(v)}, {Op::kStoreLocal, SlotPairB(v)}});
    case Op::kStoreLoad:
      return seq({{Op::kStoreLocal, SlotPairA(v)}, {Op::kLoadLocal, SlotPairB(v)}});
    case Op::kLoadGlobalLocal:
      return seq({{Op::kLoadGlobal, SlotPairA(v)}, {Op::kLoadLocal, SlotPairB(v)}});
    case Op::kNop:
    case Op::kConstInt:
    case Op::kConstNull:
    case Op::kLoadLocal:
    case Op::kStoreLocal:
    case Op::kLoadGlobal:
    case Op::kStoreGlobal:
    case Op::kPop:
    case Op::kDup:
    case Op::kAddI:
    case Op::kSubI:
    case Op::kMulI:
    case Op::kDivI:
    case Op::kModI:
    case Op::kNegI:
    case Op::kAndI:
    case Op::kOrI:
    case Op::kXorI:
    case Op::kShlI:
    case Op::kShrI:
    case Op::kNotI:
    case Op::kAddU:
    case Op::kSubU:
    case Op::kMulU:
    case Op::kDivU:
    case Op::kModU:
    case Op::kShlU:
    case Op::kShrU:
    case Op::kNotU:
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
    case Op::kNotB:
    case Op::kCastU32:
    case Op::kCastByte:
    case Op::kJmp:
    case Op::kJmpIfFalse:
    case Op::kJmpIfTrue:
    case Op::kCall:
    case Op::kCallHost:
    case Op::kRet:
    case Op::kRetVoid:
    case Op::kNewStruct:
    case Op::kNewArray:
    case Op::kLoadField:
    case Op::kStoreField:
    case Op::kLoadElem:
    case Op::kStoreElem:
    case Op::kArrayLen:
    case Op::kTrap:
    case Op::kLoadElemNC:
    case Op::kStoreElemNC:
    case Op::kLoadFieldNC:
    case Op::kStoreFieldNC:
    case Op::kDivNZ:
    case Op::kModNZ:
    case Op::kArrayLenNC:
      break;
  }
  out[0] = insn;
  return 1;
}

std::int64_t BranchTarget(const Insn& insn) {
  Insn ops[kMaxExpansion];
  return ops[Expand(insn, ops) - 1].operand;
}

void SetBranchTarget(Insn& insn, std::int64_t target) {
  if (insn.op >= Op::kBrEqImmI && insn.op <= Op::kBrGeImmI) {
    insn.operand = PackImmBranch(ImmBranchValue(insn.operand), static_cast<std::uint32_t>(target));
  } else {
    insn.operand = target;
  }
}

std::string Disassemble(const FunctionCode& fn) {
  std::ostringstream out;
  out << "fn " << fn.name << " params=" << fn.num_params << " locals=" << fn.num_locals
      << " max_stack=" << fn.max_stack << "\n";
  for (std::size_t pc = 0; pc < fn.code.size(); ++pc) {
    out << "  " << pc << ": " << OpName(fn.code[pc].op);
    switch (fn.code[pc].op) {
      case Op::kConstInt:
      case Op::kLoadLocal:
      case Op::kStoreLocal:
      case Op::kLoadGlobal:
      case Op::kStoreGlobal:
      case Op::kJmp:
      case Op::kJmpIfFalse:
      case Op::kJmpIfTrue:
      case Op::kCall:
      case Op::kCallHost:
      case Op::kNewStruct:
      case Op::kNewArray:
      case Op::kLoadField:
      case Op::kStoreField:
      case Op::kLoadElem:
      case Op::kStoreElem:
      case Op::kLoadElemNC:
      case Op::kStoreElemNC:
      case Op::kLoadFieldNC:
      case Op::kStoreFieldNC:
      case Op::kTrap:
      case Op::kLoadAddI:
      case Op::kAddConstI:
      case Op::kBrEqI:
      case Op::kBrNeI:
      case Op::kBrLtI:
      case Op::kBrLeI:
      case Op::kBrGtI:
      case Op::kBrGeI:
      case Op::kBrEqRef:
      case Op::kBrNeRef:
        out << " " << fn.code[pc].operand;
        break;
      case Op::kConstStore:
        out << " " << ConstStoreValue(fn.code[pc].operand) << " -> local "
            << ConstStoreSlot(fn.code[pc].operand);
        break;
      case Op::kBrEqImmI:
      case Op::kBrNeImmI:
      case Op::kBrLtImmI:
      case Op::kBrLeImmI:
      case Op::kBrGtImmI:
      case Op::kBrGeImmI:
        out << " " << ImmBranchValue(fn.code[pc].operand) << " -> "
            << ImmBranchTarget(fn.code[pc].operand);
        break;
      case Op::kLoadConstI:
        out << " local " << ConstStoreSlot(fn.code[pc].operand) << ", "
            << ConstStoreValue(fn.code[pc].operand);
        break;
      case Op::kLoadLocal2:
      case Op::kMoveLocal:
      case Op::kStoreLoad:
      case Op::kLoadGlobalLocal:
        out << " " << SlotPairA(fn.code[pc].operand) << ", " << SlotPairB(fn.code[pc].operand);
        break;
      default:
        break;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace minnow
