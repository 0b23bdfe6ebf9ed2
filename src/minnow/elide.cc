#include "src/minnow/elide.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/minnow/verifier.h"

namespace minnow {

namespace {

constexpr std::int64_t kIntMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kIntMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kU32Max = 0xFFFFFFFFll;
constexpr std::int64_t kMaxArrayLen = 1 << 28;  // kNewArray traps above this
constexpr int kWidenAfter = 3;   // visits to a pc before widening kicks in
constexpr int kInvariantRounds = 10;

// --- interval arithmetic -------------------------------------------------
// The VM wraps on overflow, so a range is only propagated when the 128-bit
// computation proves no endpoint combination can wrap; otherwise TOP.

using i128 = __int128;

bool FitsI64(i128 v) { return v >= static_cast<i128>(kIntMin) && v <= static_cast<i128>(kIntMax); }

AbsVal RangeAdd(const AbsVal& a, const AbsVal& b) {
  const i128 lo = static_cast<i128>(a.lo) + b.lo;
  const i128 hi = static_cast<i128>(a.hi) + b.hi;
  if (!FitsI64(lo) || !FitsI64(hi)) {
    return AbsVal::Top();
  }
  return AbsVal::Range(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi));
}

AbsVal RangeSub(const AbsVal& a, const AbsVal& b) {
  const i128 lo = static_cast<i128>(a.lo) - b.hi;
  const i128 hi = static_cast<i128>(a.hi) - b.lo;
  if (!FitsI64(lo) || !FitsI64(hi)) {
    return AbsVal::Top();
  }
  return AbsVal::Range(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi));
}

AbsVal RangeMul(const AbsVal& a, const AbsVal& b) {
  const i128 p1 = static_cast<i128>(a.lo) * b.lo;
  const i128 p2 = static_cast<i128>(a.lo) * b.hi;
  const i128 p3 = static_cast<i128>(a.hi) * b.lo;
  const i128 p4 = static_cast<i128>(a.hi) * b.hi;
  const i128 lo = std::min(std::min(p1, p2), std::min(p3, p4));
  const i128 hi = std::max(std::max(p1, p2), std::max(p3, p4));
  if (!FitsI64(lo) || !FitsI64(hi)) {
    return AbsVal::Top();
  }
  return AbsVal::Range(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi));
}

AbsVal RangeNeg(const AbsVal& a) {
  if (a.lo == kIntMin) {
    return AbsVal::Top();  // -INT64_MIN wraps
  }
  return AbsVal::Range(-a.hi, -a.lo);
}

// Post-state of a division that fell through (divisor was nonzero and no
// INT64_MIN/-1). Only the easy nonnegative case is kept precise.
AbsVal RangeDiv(const AbsVal& a, const AbsVal& b) {
  if (a.lo >= 0 && b.lo >= 1) {
    return AbsVal::Range(0, a.hi);
  }
  return AbsVal::Top();
}

// a % b with C++ truncation: same sign as a, |a % b| <= min(|a|, |b| - 1).
AbsVal RangeMod(const AbsVal& a, const AbsVal& b) {
  std::int64_t m = kIntMax;
  if (b.lo != kIntMin) {
    m = std::max(std::abs(b.lo), b.hi == kIntMin ? kIntMax : std::abs(b.hi));
    m = m > 0 ? m - 1 : 0;
  }
  const std::int64_t lo = a.lo < 0 ? std::max(-m, a.lo) : 0;
  const std::int64_t hi = a.hi > 0 ? std::min(m, a.hi) : 0;
  return AbsVal::Range(lo, hi);
}

AbsVal RangeAnd(const AbsVal& a, const AbsVal& b) {
  // A nonnegative operand bounds the result on its own: every set bit of
  // (a & b) is a set bit of that operand, so 0 <= result <= it. This is the
  // classic mask idiom `x & (len - 1)` — x may be anything, including
  // negative.
  if (a.lo >= 0 || b.lo >= 0) {
    const std::int64_t hi = a.lo >= 0 ? (b.lo >= 0 ? std::min(a.hi, b.hi) : a.hi) : b.hi;
    return AbsVal::Range(0, hi);
  }
  return AbsVal::Top();
}

AbsVal RangeOrXor(const AbsVal& a, const AbsVal& b) {
  if (a.lo >= 0 && b.lo >= 0) {
    const std::uint64_t m = static_cast<std::uint64_t>(std::max(a.hi, b.hi));
    const int bits = std::bit_width(m);
    const std::int64_t hi =
        bits >= 63 ? kIntMax : static_cast<std::int64_t>((1ull << bits) - 1);
    return AbsVal::Range(0, hi);
  }
  return AbsVal::Top();
}

AbsVal RangeShrI(const AbsVal& a) {
  if (a.lo >= 0) {
    return AbsVal::Range(0, a.hi);  // shift count in [0,63], a >> 0 == a
  }
  return AbsVal::Top();
}

AbsVal RangeClamp(const AbsVal& a, std::int64_t lo, std::int64_t hi) {
  if (a.lo >= lo && a.hi <= hi) {
    return AbsVal::Range(a.lo, a.hi);  // cast is the identity on this range
  }
  return AbsVal::Range(lo, hi);
}

AbsVal ElemLoadRange(const AbsVal& array) {
  if (!array.elem_known) {
    return AbsVal::Top();
  }
  switch (array.elem) {
    case TypeKind::kBool:
      return AbsVal::Range(0, 1);
    case TypeKind::kByte:
      return AbsVal::Range(0, 255);
    case TypeKind::kU32:
      return AbsVal::Range(0, kU32Max);
    default:
      return AbsVal::Top();
  }
}

// --- abstract state ------------------------------------------------------

struct Origin {
  enum Kind : std::uint8_t { kNone, kLocal, kGlobal };
  Kind kind = kNone;
  std::uint32_t index = 0;

  friend bool operator==(const Origin& a, const Origin& b) {
    return a.kind == b.kind && (a.kind == kNone || a.index == b.index);
  }
};

// A comparison outcome still on the stack: which compare produced it and the
// operand facts at compare time, so a later conditional branch can refine
// the operands' origins along each edge.
struct Pred {
  bool valid = false;
  Op cmp = Op::kNop;
  Origin lhs_origin, rhs_origin;
  AbsVal lhs, rhs;

  friend bool operator==(const Pred& a, const Pred& b) {
    if (a.valid != b.valid) {
      return false;
    }
    if (!a.valid) {
      return true;
    }
    return a.cmp == b.cmp && a.lhs_origin == b.lhs_origin && a.rhs_origin == b.rhs_origin &&
           a.lhs == b.lhs && a.rhs == b.rhs;
  }
};

struct Slot {
  AbsVal v;
  Origin origin;
  Pred pred;

  friend bool operator==(const Slot& a, const Slot& b) {
    return a.v == b.v && a.origin == b.origin && a.pred == b.pred;
  }
};

struct State {
  std::vector<Slot> stack;
  std::vector<AbsVal> locals;
  std::vector<AbsVal> globals;

  friend bool operator==(const State& a, const State& b) {
    return a.stack == b.stack && a.locals == b.locals && a.globals == b.globals;
  }
};

Slot JoinSlot(const Slot& a, const Slot& b) {
  Slot out;
  out.v = Join(a.v, b.v);
  out.origin = a.origin == b.origin ? a.origin : Origin{};
  // Preds that compare the same operands survive a merge with their captured
  // facts joined (still an over-approximation of either path, so both edge
  // refinement and infeasibility pruning stay sound). This is what lets a
  // loop-head compare keep refining the counter after the back-edge join.
  if (a.pred.valid && b.pred.valid && a.pred.cmp == b.pred.cmp &&
      a.pred.lhs_origin == b.pred.lhs_origin && a.pred.rhs_origin == b.pred.rhs_origin) {
    out.pred = a.pred;
    out.pred.lhs = Join(a.pred.lhs, b.pred.lhs);
    out.pred.rhs = Join(a.pred.rhs, b.pred.rhs);
  } else if (a.pred == b.pred) {
    out.pred = a.pred;
  }
  return out;
}

// Join `from` into `into`; returns false on a stack-shape mismatch (cannot
// happen on verifier-accepted code, but the caller bails out defensively).
bool JoinState(State& into, const State& from) {
  if (into.stack.size() != from.stack.size() || into.locals.size() != from.locals.size() ||
      into.globals.size() != from.globals.size()) {
    return false;
  }
  for (std::size_t i = 0; i < into.stack.size(); ++i) {
    into.stack[i] = JoinSlot(into.stack[i], from.stack[i]);
  }
  for (std::size_t i = 0; i < into.locals.size(); ++i) {
    into.locals[i] = Join(into.locals[i], from.locals[i]);
  }
  for (std::size_t i = 0; i < into.globals.size(); ++i) {
    into.globals[i] = Join(into.globals[i], from.globals[i]);
  }
  return true;
}

void WidenState(const State& prev, State& next) {
  for (std::size_t i = 0; i < next.stack.size(); ++i) {
    next.stack[i].v = Widen(prev.stack[i].v, next.stack[i].v);
    // Captured pred facts widen alongside the values they were taken from,
    // so a pred surviving a loop join cannot keep creeping forever.
    if (next.stack[i].pred.valid && prev.stack[i].pred.valid) {
      next.stack[i].pred.lhs = Widen(prev.stack[i].pred.lhs, next.stack[i].pred.lhs);
      next.stack[i].pred.rhs = Widen(prev.stack[i].pred.rhs, next.stack[i].pred.rhs);
    }
  }
  for (std::size_t i = 0; i < next.locals.size(); ++i) {
    next.locals[i] = Widen(prev.locals[i], next.locals[i]);
  }
  for (std::size_t i = 0; i < next.globals.size(); ++i) {
    next.globals[i] = Widen(prev.globals[i], next.globals[i]);
  }
}

// --- refinement ----------------------------------------------------------

Op NegateCmp(Op op) {
  switch (op) {
    case Op::kEqI: return Op::kNeI;
    case Op::kNeI: return Op::kEqI;
    case Op::kLtI: return Op::kGeI;
    case Op::kLeI: return Op::kGtI;
    case Op::kGtI: return Op::kLeI;
    case Op::kGeI: return Op::kLtI;
    case Op::kLtU: return Op::kGeU;
    case Op::kLeU: return Op::kGtU;
    case Op::kGtU: return Op::kLeU;
    case Op::kGeU: return Op::kLtU;
    case Op::kEqRef: return Op::kNeRef;
    case Op::kNeRef: return Op::kEqRef;
    default: return Op::kNop;
  }
}

// Meet (intersection) of facts known about one and the same value; false if
// the intersection is empty (the edge is infeasible).
bool MeetVal(AbsVal& into, const AbsVal& fact) {
  into.lo = std::max(into.lo, fact.lo);
  into.hi = std::min(into.hi, fact.hi);
  if (into.lo > into.hi) {
    return false;
  }
  into.nonnull = into.nonnull || fact.nonnull || into.lo > 0 || into.hi < 0;
  if (into.nonnull && into.lo == 0 && into.hi == 0) {
    return false;  // proven nonzero yet proven zero
  }
  into.is_array = into.is_array || fact.is_array;
  if (fact.elem_known && !into.elem_known) {
    into.elem_known = true;
    into.elem = fact.elem;
  }
  into.len_lo = std::max(into.len_lo, fact.len_lo);
  return true;
}

// Writes a refined fact back to the value's origin slot, if it still has
// one. The origin is cleared whenever the local/global is reassigned, so a
// surviving origin means the slot still holds the compared value.
bool WriteBack(State& state, const Origin& origin, const AbsVal& fact) {
  switch (origin.kind) {
    case Origin::kLocal:
      return MeetVal(state.locals[origin.index], fact);
    case Origin::kGlobal:
      return MeetVal(state.globals[origin.index], fact);
    case Origin::kNone:
      return true;
  }
  return true;
}

// Derives the operand facts implied by `cmp(lhs, rhs) == true` and meets
// them into the edge state. Returns false when the edge is infeasible.
bool RefineCompare(State& state, Op cmp, const Origin& lhs_origin, const AbsVal& lhs,
                   const Origin& rhs_origin, const AbsVal& rhs) {
  // Unsigned compares refine like signed ones only when both sides are
  // proven nonnegative (the orders agree there).
  switch (cmp) {
    case Op::kLtU:
    case Op::kLeU:
    case Op::kGtU:
    case Op::kGeU:
      if (lhs.lo < 0 || rhs.lo < 0) {
        return true;
      }
      cmp = cmp == Op::kLtU   ? Op::kLtI
            : cmp == Op::kLeU ? Op::kLeI
            : cmp == Op::kGtU ? Op::kGtI
                              : Op::kGeI;
      break;
    default:
      break;
  }

  AbsVal lf = AbsVal::Top();  // fact derived for lhs
  AbsVal rf = AbsVal::Top();  // fact derived for rhs
  switch (cmp) {
    case Op::kEqI:
    case Op::kEqRef:
      // Equal values: each side inherits everything known about the other.
      lf = rhs;
      rf = lhs;
      if (cmp == Op::kEqRef) {
        // The slots hold identical bits, so the reference facts transfer
        // wholesale; MeetVal already handles that via lf/rf.
      }
      break;
    case Op::kNeI:
    case Op::kNeRef:
      if (cmp == Op::kNeRef) {
        if (rhs.lo == 0 && rhs.hi == 0) {
          lf.nonnull = true;
          lf.lo = lhs.lo == 0 ? 1 : lhs.lo;  // bits != 0; trim a touching endpoint
        }
        if (lhs.lo == 0 && lhs.hi == 0) {
          rf.nonnull = true;
          rf.lo = rhs.lo == 0 ? 1 : rhs.lo;
        }
      }
      // Singleton on one side trims a touching endpoint of the other.
      if (rhs.lo == rhs.hi) {
        if (lhs.lo == rhs.lo && lhs.hi == rhs.hi) {
          return false;  // both provably equal to the same constant
        }
        if (lhs.lo == rhs.lo && lhs.lo < kIntMax) {
          lf.lo = lhs.lo + 1;
        }
        if (lhs.hi == rhs.lo && lhs.hi > kIntMin) {
          lf.hi = lhs.hi - 1;
        }
      }
      if (lhs.lo == lhs.hi) {
        if (rhs.lo == lhs.lo && rhs.lo < kIntMax) {
          rf.lo = rhs.lo + 1;
        }
        if (rhs.hi == lhs.lo && rhs.hi > kIntMin) {
          rf.hi = rhs.hi - 1;
        }
      }
      break;
    case Op::kLtI:
      if (rhs.hi == kIntMin || lhs.lo == kIntMax) {
        return false;
      }
      lf.hi = rhs.hi - 1;
      rf.lo = lhs.lo + 1;
      break;
    case Op::kLeI:
      lf.hi = rhs.hi;
      rf.lo = lhs.lo;
      break;
    case Op::kGtI:
      if (rhs.lo == kIntMax || lhs.hi == kIntMin) {
        return false;
      }
      lf.lo = rhs.lo + 1;
      rf.hi = lhs.hi - 1;
      break;
    case Op::kGeI:
      lf.lo = rhs.lo;
      rf.hi = lhs.hi;
      break;
    default:
      return true;
  }

  // Check feasibility against the compare-time values, then write back.
  AbsVal lhs_now = lhs;
  AbsVal rhs_now = rhs;
  if (!MeetVal(lhs_now, lf) || !MeetVal(rhs_now, rf)) {
    return false;
  }
  return WriteBack(state, lhs_origin, lf) && WriteBack(state, rhs_origin, rf);
}

bool RefineByPred(State& state, const Pred& pred, bool truth) {
  if (!pred.valid) {
    return true;
  }
  const Op cmp = truth ? pred.cmp : NegateCmp(pred.cmp);
  if (cmp == Op::kNop) {
    return true;
  }
  return RefineCompare(state, cmp, pred.lhs_origin, pred.lhs, pred.rhs_origin, pred.rhs);
}

// --- per-function dataflow -----------------------------------------------

bool IsCandidate(Op op) {
  switch (op) {
    case Op::kLoadElem:
    case Op::kStoreElem:
    case Op::kLoadField:
    case Op::kStoreField:
    case Op::kDivI:
    case Op::kModI:
    case Op::kArrayLen:
      return true;
    default:
      return false;
  }
}

struct FnAnalysis {
  // Joined input state per pc; disengaged means unreachable.
  std::vector<std::optional<State>> in;
  // Join of the globals at every function exit (for the @init end state).
  std::vector<AbsVal> exit_globals;
  bool any_exit = false;
  bool ok = true;  // false => analysis bailed; retain everything in this fn
};

class Analyzer {
 public:
  Analyzer(const Program& program, const std::vector<AbsVal>& ginv, bool kill_globals_at_calls,
           std::vector<AbsVal>* store_accum)
      : program_(program),
        ginv_(ginv),
        kill_globals_at_calls_(kill_globals_at_calls),
        store_accum_(store_accum) {}

  FnAnalysis Run(const FunctionCode& fn, const std::vector<AbsVal>& entry_globals) {
    FnAnalysis out;
    const std::size_t n = fn.code.size();
    out.in.resize(n);
    out.exit_globals.assign(program_.globals.size(), AbsVal::Top());
    std::vector<int> visits(n, 0);

    State entry;
    entry.locals.assign(static_cast<std::size_t>(fn.num_locals), AbsVal::Top());
    // Params come from the host or any call site: TOP. Non-param locals are
    // nulled by PushFrame: exactly zero.
    for (int i = fn.num_params; i < fn.num_locals; ++i) {
      entry.locals[static_cast<std::size_t>(i)] = AbsVal::Null();
    }
    entry.globals = entry_globals;

    std::vector<std::size_t> worklist;
    out.in[0] = entry;
    worklist.push_back(0);

    while (!worklist.empty() && out.ok) {
      const std::size_t pc = worklist.back();
      worklist.pop_back();
      State state = *out.in[pc];
      Step(fn, pc, state, out, visits, worklist);
    }
    return out;
  }

 private:
  void FlowTo(FnAnalysis& out, std::vector<int>& visits, std::vector<std::size_t>& worklist,
              std::size_t from_pc, std::size_t target, const State& state) {
    if (target >= out.in.size()) {
      out.ok = false;
      return;
    }
    if (!out.in[target].has_value()) {
      out.in[target] = state;
      visits[target] = 1;
      worklist.push_back(target);
      return;
    }
    State joined = *out.in[target];
    const State before = joined;
    if (!JoinState(joined, state)) {
      out.ok = false;
      return;
    }
    // Widen only at back-edge targets (loop heads). Forward joins must stay
    // exact: the branch-refined body state arrives after the loop head has
    // already widened, and widening a forward join would blow that refinement
    // back to top. Termination still holds — every cycle passes through its
    // back-edge target, which widens, and the forward-only remainder of the
    // graph is a DAG that converges once its loop-head inputs stabilise.
    if (visits[target] >= kWidenAfter && target <= from_pc) {
      WidenState(before, joined);
    }
    if (!(joined == before)) {
      out.in[target] = std::move(joined);
      ++visits[target];
      worklist.push_back(target);
    }
  }

  void RecordExit(FnAnalysis& out, const State& state) {
    if (!out.any_exit) {
      out.exit_globals = state.globals;
      out.any_exit = true;
      return;
    }
    for (std::size_t g = 0; g < out.exit_globals.size(); ++g) {
      out.exit_globals[g] = Join(out.exit_globals[g], state.globals[g]);
    }
  }

  // Clears stale origins (and pred operand origins) after a write.
  static void KillOrigin(State& state, Origin::Kind kind, std::uint32_t index) {
    const Origin dead{kind, index};
    for (Slot& slot : state.stack) {
      if (slot.origin == dead) {
        slot.origin = Origin{};
      }
      if (slot.pred.valid) {
        if (slot.pred.lhs_origin == dead) {
          slot.pred.lhs_origin = Origin{};
        }
        if (slot.pred.rhs_origin == dead) {
          slot.pred.rhs_origin = Origin{};
        }
      }
    }
  }

  static void KillAllGlobalOrigins(State& state) {
    for (Slot& slot : state.stack) {
      if (slot.origin.kind == Origin::kGlobal) {
        slot.origin = Origin{};
      }
      if (slot.pred.valid) {
        if (slot.pred.lhs_origin.kind == Origin::kGlobal) {
          slot.pred.lhs_origin = Origin{};
        }
        if (slot.pred.rhs_origin.kind == Origin::kGlobal) {
          slot.pred.rhs_origin = Origin{};
        }
      }
    }
  }

  void KillGlobalsToInvariant(State& state) {
    state.globals = ginv_;
    KillAllGlobalOrigins(state);
  }

  // After a checked access fell through, its receiver was a valid array /
  // non-null object — meet that back into the receiver's origin.
  static void RefineReceiver(State& state, const Origin& origin, bool array,
                             std::int64_t len_lo_seen) {
    AbsVal fact = AbsVal::Top();
    fact.nonnull = true;
    if (array) {
      fact.is_array = true;
      fact.len_lo = len_lo_seen;
    }
    (void)WriteBack(state, origin, fact);  // infeasible here only on dead code
  }

  // Steps through the base ops of the instruction at pc (a superinstruction
  // is its expansion; only the last op can branch or leave).
  void Step(const FunctionCode& fn, std::size_t pc, State state, FnAnalysis& out,
            std::vector<int>& visits, std::vector<std::size_t>& worklist) {
    Insn ops[kMaxExpansion];
    const int n = Expand(fn.code[pc], ops);
    for (int i = 0; i < n; ++i) {
      if (!Transfer(ops[i], pc, state, out, visits, worklist)) {
        return;
      }
    }
    FlowTo(out, visits, worklist, pc, pc + 1, state);
  }

  // Applies one base op to `state`. Returns true when control falls through
  // to the next op; false when the op handled its own successors (branches,
  // returns, traps) or the analysis bailed.
  bool Transfer(const Insn& insn, std::size_t pc, State& state, FnAnalysis& out,
                std::vector<int>& visits, std::vector<std::size_t>& worklist) {
    auto push = [&state](Slot slot) { state.stack.push_back(std::move(slot)); };
    auto push_val = [&state](AbsVal v) {
      Slot slot;
      slot.v = v;
      state.stack.push_back(std::move(slot));
    };
    auto pop = [&state]() {
      Slot slot = std::move(state.stack.back());
      state.stack.pop_back();
      return slot;
    };
    auto bin_i = [&](AbsVal (*f)(const AbsVal&, const AbsVal&)) {
      const Slot b = pop();
      const Slot a = pop();
      push_val(f(a.v, b.v));
    };
    auto jump = [&](std::size_t target) { FlowTo(out, visits, worklist, pc, target, state); };

    switch (insn.op) {
      case Op::kNop:
        return true;
      case Op::kConstInt:
        push_val(AbsVal::Const(insn.operand));
        return true;
      case Op::kConstNull:
        push_val(AbsVal::Null());
        return true;
      case Op::kLoadLocal: {
        Slot slot;
        slot.v = state.locals[static_cast<std::size_t>(insn.operand)];
        slot.origin = Origin{Origin::kLocal, static_cast<std::uint32_t>(insn.operand)};
        push(std::move(slot));
        return true;
      }
      case Op::kStoreLocal: {
        const Slot v = pop();
        state.locals[static_cast<std::size_t>(insn.operand)] = v.v;
        KillOrigin(state, Origin::kLocal, static_cast<std::uint32_t>(insn.operand));
        return true;
      }
      case Op::kLoadGlobal: {
        Slot slot;
        slot.v = state.globals[static_cast<std::size_t>(insn.operand)];
        slot.origin = Origin{Origin::kGlobal, static_cast<std::uint32_t>(insn.operand)};
        push(std::move(slot));
        return true;
      }
      case Op::kStoreGlobal: {
        const Slot v = pop();
        const auto g = static_cast<std::size_t>(insn.operand);
        state.globals[g] = v.v;
        if (store_accum_ != nullptr) {
          (*store_accum_)[g] = Join((*store_accum_)[g], v.v);
        }
        KillOrigin(state, Origin::kGlobal, static_cast<std::uint32_t>(insn.operand));
        return true;
      }
      case Op::kPop:
        pop();
        return true;
      case Op::kDup:
        push(state.stack.back());
        return true;
      case Op::kAddI:
        bin_i(RangeAdd);
        return true;
      case Op::kSubI:
        bin_i(RangeSub);
        return true;
      case Op::kMulI:
        bin_i(RangeMul);
        return true;
      case Op::kDivI:
        bin_i(RangeDiv);
        return true;
      case Op::kModI:
        bin_i(RangeMod);
        return true;
      case Op::kNegI: {
        const Slot a = pop();
        push_val(RangeNeg(a.v));
        return true;
      }
      case Op::kAndI:
        bin_i(RangeAnd);
        return true;
      case Op::kOrI:
      case Op::kXorI:
        bin_i(RangeOrXor);
        return true;
      case Op::kShlI:
        pop();
        pop();
        push_val(AbsVal::Top());
        return true;
      case Op::kShrI: {
        pop();  // count
        const Slot a = pop();
        push_val(RangeShrI(a.v));
        return true;
      }
      case Op::kNotI: {
        const Slot a = pop();
        if (a.v.hi == kIntMax || a.v.lo == kIntMin) {
          push_val(AbsVal::Top());
        } else {
          push_val(AbsVal::Range(-a.v.hi - 1, -a.v.lo - 1));
        }
        return true;
      }
      case Op::kAddU:
      case Op::kSubU:
      case Op::kMulU:
      case Op::kDivU:
      case Op::kModU:
      case Op::kShlU:
      case Op::kShrU:
        pop();
        pop();
        push_val(AbsVal::Range(0, kU32Max));
        return true;
      case Op::kNotU:
        pop();
        push_val(AbsVal::Range(0, kU32Max));
        return true;
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
      case Op::kNeRef: {
        const Slot b = pop();
        const Slot a = pop();
        Slot res;
        res.v = AbsVal::Range(0, 1);
        res.pred.valid = true;
        res.pred.cmp = insn.op;
        res.pred.lhs_origin = a.origin;
        res.pred.rhs_origin = b.origin;
        res.pred.lhs = a.v;
        res.pred.rhs = b.v;
        push(std::move(res));
        return true;
      }
      case Op::kNotB: {
        Slot a = pop();
        Slot res;
        res.v = AbsVal::Range(0, 1);
        if (a.pred.valid && NegateCmp(a.pred.cmp) != Op::kNop) {
          res.pred = a.pred;
          res.pred.cmp = NegateCmp(a.pred.cmp);
        }
        push(std::move(res));
        return true;
      }
      case Op::kCastU32: {
        const Slot a = pop();
        push_val(RangeClamp(a.v, 0, kU32Max));
        return true;
      }
      case Op::kCastByte: {
        const Slot a = pop();
        push_val(RangeClamp(a.v, 0, 255));
        return true;
      }
      case Op::kJmp:
        jump(static_cast<std::size_t>(insn.operand));
        return false;
      case Op::kJmpIfFalse:
      case Op::kJmpIfTrue: {
        const Slot cond = pop();
        const bool taken_truth = insn.op == Op::kJmpIfTrue;
        const auto target = static_cast<std::size_t>(insn.operand);
        // Constant conditions prune an edge outright. kJmpIfFalse jumps when
        // the condition is false; kJmpIfTrue when it is true — `taken_truth`
        // picks the edge's destination, while the refinement always asserts
        // the edge's own truth value.
        if (!(cond.v.lo >= 1)) {  // condition can be false
          State edge = state;
          if (RefineByPred(edge, cond.pred, /*truth=*/false)) {
            FlowTo(out, visits, worklist, pc, taken_truth ? pc + 1 : target, edge);
          }
        }
        if (!(cond.v.lo == 0 && cond.v.hi == 0)) {  // condition can be true
          State edge = std::move(state);
          if (RefineByPred(edge, cond.pred, /*truth=*/true)) {
            FlowTo(out, visits, worklist, pc, taken_truth ? target : pc + 1, edge);
          }
        }
        return false;
      }
      case Op::kCall: {
        const auto& callee = program_.functions[static_cast<std::size_t>(insn.operand)];
        for (int i = 0; i < callee.num_params; ++i) {
          pop();
        }
        if (kill_globals_at_calls_) {
          KillGlobalsToInvariant(state);
        }
        if (callee.returns_value) {
          push_val(AbsVal::Top());
        }
        return true;
      }
      case Op::kCallHost: {
        const auto& host = program_.host_imports[static_cast<std::size_t>(insn.operand)];
        for (int i = 0; i < host.arity; ++i) {
          pop();
        }
        if (kill_globals_at_calls_) {
          KillGlobalsToInvariant(state);
        }
        if (host.returns_value) {
          push_val(AbsVal::Top());
        }
        return true;
      }
      case Op::kRet:
        pop();
        RecordExit(out, state);
        return false;
      case Op::kRetVoid:
        RecordExit(out, state);
        return false;
      case Op::kTrap:
        return false;
      case Op::kNewStruct: {
        AbsVal ref = AbsVal::Top();
        ref.nonnull = true;
        push_val(ref);
        return true;
      }
      case Op::kNewArray: {
        const Slot len = pop();
        AbsVal arr = AbsVal::Top();
        arr.nonnull = true;
        arr.is_array = true;
        arr.elem_known = true;
        arr.elem = static_cast<TypeKind>(insn.operand);
        arr.len_lo = std::min(std::max<std::int64_t>(0, len.v.lo), kMaxArrayLen);
        push_val(arr);
        return true;
      }
      case Op::kLoadField: {
        const Slot obj = pop();
        RefineReceiver(state, obj.origin, /*array=*/false, 0);
        push_val(AbsVal::Top());
        return true;
      }
      case Op::kStoreField: {
        pop();  // value
        const Slot obj = pop();
        RefineReceiver(state, obj.origin, /*array=*/false, 0);
        return true;
      }
      case Op::kLoadElem: {
        const Slot idx = pop();
        const Slot arr = pop();
        RefineReceiver(state, arr.origin, /*array=*/true,
                       idx.v.lo >= 0 ? std::min(idx.v.lo, kMaxArrayLen - 1) + 1 : 0);
        push_val(ElemLoadRange(arr.v));
        return true;
      }
      case Op::kStoreElem: {
        pop();  // value
        const Slot idx = pop();
        const Slot arr = pop();
        RefineReceiver(state, arr.origin, /*array=*/true,
                       idx.v.lo >= 0 ? std::min(idx.v.lo, kMaxArrayLen - 1) + 1 : 0);
        return true;
      }
      case Op::kArrayLen: {
        const Slot arr = pop();
        RefineReceiver(state, arr.origin, /*array=*/true, 0);
        push_val(AbsVal::Range(std::max<std::int64_t>(0, arr.v.len_lo), kMaxArrayLen));
        return true;
      }
      default:
        // Unchecked opcodes (or anything unknown) must never reach the
        // analyzer; the caller screens them out.
        out.ok = false;
        return false;
    }
  }

  const Program& program_;
  const std::vector<AbsVal>& ginv_;
  const bool kill_globals_at_calls_;
  std::vector<AbsVal>* store_accum_;
};

// --- decisions -----------------------------------------------------------

bool InBounds(const AbsVal& arr, const AbsVal& idx) {
  return arr.nonnull && arr.is_array && idx.lo >= 0 && arr.len_lo > 0 && idx.hi < arr.len_lo;
}

bool DivSafe(const AbsVal& dividend, const AbsVal& divisor) {
  if (!divisor.ExcludesZero()) {
    return false;
  }
  const bool excludes_minus_one = divisor.lo > -1 || divisor.hi < -1;
  return dividend.lo > kIntMin || excludes_minus_one;
}

// Decides one candidate site from its joined input state; returns the
// unchecked replacement opcode, or nullopt to retain the check.
std::optional<Op> Decide(const Insn& insn, const State& state) {
  const auto& stack = state.stack;
  const auto top = [&](std::size_t depth_from_top) -> const AbsVal& {
    return stack[stack.size() - 1 - depth_from_top].v;
  };
  switch (insn.op) {
    case Op::kLoadElem:
      if (InBounds(top(1), top(0))) {
        return Op::kLoadElemNC;
      }
      return std::nullopt;
    case Op::kStoreElem:
      if (InBounds(top(2), top(1))) {
        return Op::kStoreElemNC;
      }
      return std::nullopt;
    case Op::kLoadField:
      if (top(0).nonnull) {
        return Op::kLoadFieldNC;
      }
      return std::nullopt;
    case Op::kStoreField:
      if (top(1).nonnull) {
        return Op::kStoreFieldNC;
      }
      return std::nullopt;
    case Op::kDivI:
      if (DivSafe(top(1), top(0))) {
        return Op::kDivNZ;
      }
      return std::nullopt;
    case Op::kModI:
      if (DivSafe(top(1), top(0))) {
        return Op::kModNZ;
      }
      return std::nullopt;
    case Op::kArrayLen:
      if (top(0).nonnull && top(0).is_array) {
        return Op::kArrayLenNC;
      }
      return std::nullopt;
    default:
      return std::nullopt;
  }
}

bool ContainsOp(const FunctionCode& fn, Op op) {
  for (const Insn& insn : fn.code) {
    if (insn.op == op) {
      return true;
    }
  }
  return false;
}

void HashBytes(std::uint64_t& h, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
}

void HashU64(std::uint64_t& h, std::uint64_t v) { HashBytes(h, &v, sizeof(v)); }

}  // namespace

AbsVal Join(const AbsVal& a, const AbsVal& b) {
  AbsVal out;
  out.lo = std::min(a.lo, b.lo);
  out.hi = std::max(a.hi, b.hi);
  out.nonnull = a.nonnull && b.nonnull;
  out.is_array = a.is_array && b.is_array;
  out.elem_known = a.elem_known && b.elem_known && a.elem == b.elem;
  out.elem = out.elem_known ? a.elem : TypeKind::kVoid;
  out.len_lo = std::min(a.len_lo, b.len_lo);
  return out;
}

AbsVal Widen(const AbsVal& prev, const AbsVal& next) {
  AbsVal out = next;
  if (next.lo < prev.lo) {
    out.lo = kIntMin;
  }
  if (next.hi > prev.hi) {
    out.hi = kIntMax;
  }
  if (next.len_lo < prev.len_lo) {
    out.len_lo = 0;
  }
  return out;
}

std::uint64_t ElisionCodeHash(const Program& program) {
  std::uint64_t h = 1469598103934665603ull;
  HashU64(h, program.globals.size());
  HashU64(h, program.structs.size());
  for (const auto& layout : program.structs) {
    HashU64(h, static_cast<std::uint64_t>(layout.num_fields));
  }
  HashU64(h, program.functions.size());
  for (const auto& fn : program.functions) {
    HashBytes(h, fn.name.data(), fn.name.size());
    HashU64(h, static_cast<std::uint64_t>(fn.num_params));
    HashU64(h, static_cast<std::uint64_t>(fn.num_locals));
    HashU64(h, fn.returns_value ? 1 : 0);
    HashU64(h, fn.code.size());
    for (const Insn& insn : fn.code) {
      HashU64(h, static_cast<std::uint64_t>(insn.op));
      HashU64(h, static_cast<std::uint64_t>(insn.operand));
    }
  }
  return h;
}

bool ElisionCertificateValid(const Program& program) {
  return program.elision.attached && program.elision.code_hash == ElisionCodeHash(program);
}

ElideStats ElideChecks(Program& program) {
  if (program.elision.attached) {
    if (!ElisionCertificateValid(program)) {
      throw std::invalid_argument("elision certificate does not match the code");
    }
    ElideStats stats;  // idempotent: report the certified counts
    stats.checks_elided = program.elision.checks_elided;
    stats.checks_retained = program.elision.checks_retained;
    stats.elem_loads_elided = program.elision.elem_loads_elided;
    stats.elem_stores_elided = program.elision.elem_stores_elided;
    stats.field_accesses_elided = program.elision.field_accesses_elided;
    stats.divs_elided = program.elision.divs_elided;
    stats.array_lens_elided = program.elision.array_lens_elided;
    return stats;
  }
  if (HasUncheckedOps(program)) {
    throw std::invalid_argument("unchecked opcodes present without an elision certificate");
  }
  {
    const VerifyReport report = VerifyProgram(program);
    if (!report.ok) {
      throw std::invalid_argument("ElideChecks on unverifiable program: " + report.message);
    }
  }

  const std::size_t num_globals = program.globals.size();
  const int init_index = program.FindFunction("@init");

  // Globals start as zero/null before @init runs.
  std::vector<AbsVal> zeros(num_globals, AbsVal::Null());
  std::vector<AbsVal> tops(num_globals, AbsVal::Top());

  // If @init calls another function, code runs before initialization
  // finished, so no global invariant is safe.
  bool have_invariants = true;
  if (init_index >= 0 &&
      ContainsOp(program.functions[static_cast<std::size_t>(init_index)], Op::kCall)) {
    have_invariants = false;
  }

  // @init end state: globals after initialization (reentry during @init is
  // impossible for certified programs — the VM refuses Call before RunInit).
  std::vector<AbsVal> ginv = zeros;
  if (have_invariants && init_index >= 0) {
    Analyzer init_analyzer(program, tops, /*kill_globals_at_calls=*/false, nullptr);
    FnAnalysis init_out =
        init_analyzer.Run(program.functions[static_cast<std::size_t>(init_index)], zeros);
    if (!init_out.ok || !init_out.any_exit) {
      have_invariants = false;
    } else {
      ginv = init_out.exit_globals;
    }
  }
  if (!have_invariants) {
    ginv = tops;
  }

  // Fixpoint: the invariant must absorb every value any function (except
  // @init, whose effect is the end state above) ever stores to a global.
  if (have_invariants) {
    for (int round = 0; round < kInvariantRounds; ++round) {
      std::vector<AbsVal> accum = ginv;
      Analyzer analyzer(program, ginv, /*kill_globals_at_calls=*/true, &accum);
      for (std::size_t f = 0; f < program.functions.size(); ++f) {
        if (static_cast<int>(f) == init_index) {
          continue;
        }
        FnAnalysis result = analyzer.Run(program.functions[f], ginv);
        (void)result;
      }
      if (accum == ginv) {
        break;
      }
      if (round + 1 >= kWidenAfter) {
        for (std::size_t g = 0; g < num_globals; ++g) {
          accum[g] = Widen(ginv[g], accum[g]);
        }
      }
      ginv = std::move(accum);
      if (round == kInvariantRounds - 1) {
        ginv = tops;  // did not converge; fall back to no invariants
      }
    }
  }

  // Final pass under the converged invariant: decide and rewrite.
  ElideStats stats;
  Analyzer analyzer(program, ginv, /*kill_globals_at_calls=*/true, nullptr);
  Analyzer init_analyzer(program, tops, /*kill_globals_at_calls=*/false, nullptr);
  for (std::size_t f = 0; f < program.functions.size(); ++f) {
    FunctionCode& fn = program.functions[f];
    const bool is_init = static_cast<int>(f) == init_index;
    FnAnalysis result =
        is_init ? init_analyzer.Run(fn, zeros) : analyzer.Run(fn, ginv);
    for (std::size_t pc = 0; pc < fn.code.size(); ++pc) {
      Insn& insn = fn.code[pc];
      if (!IsCandidate(insn.op)) {
        continue;
      }
      std::optional<Op> replacement;
      if (result.ok && result.in[pc].has_value()) {
        replacement = Decide(insn, *result.in[pc]);
      }
      if (!replacement.has_value()) {
        ++stats.checks_retained;
        continue;
      }
      switch (insn.op) {
        case Op::kLoadElem:
          ++stats.elem_loads_elided;
          break;
        case Op::kStoreElem:
          ++stats.elem_stores_elided;
          break;
        case Op::kLoadField:
        case Op::kStoreField:
          ++stats.field_accesses_elided;
          break;
        case Op::kDivI:
        case Op::kModI:
          ++stats.divs_elided;
          break;
        default:
          ++stats.array_lens_elided;
          break;
      }
      ++stats.checks_elided;
      insn.op = *replacement;
    }
  }

  program.elision.attached = true;
  program.elision.checks_elided = stats.checks_elided;
  program.elision.checks_retained = stats.checks_retained;
  program.elision.elem_loads_elided = stats.elem_loads_elided;
  program.elision.elem_stores_elided = stats.elem_stores_elided;
  program.elision.field_accesses_elided = stats.field_accesses_elided;
  program.elision.divs_elided = stats.divs_elided;
  program.elision.array_lens_elided = stats.array_lens_elided;
  program.elision.code_hash = ElisionCodeHash(program);
  return stats;
}

std::string DumpElision(const Program& program) {
  std::ostringstream out;
  std::uint64_t elided = 0;
  std::uint64_t retained = 0;
  for (const auto& fn : program.functions) {
    bool any = false;
    for (const Insn& insn : fn.code) {
      if (IsCandidate(insn.op) || IsUncheckedOp(insn.op)) {
        any = true;
        break;
      }
    }
    if (!any) {
      continue;
    }
    out << "fn " << fn.name << "\n";
    for (std::size_t pc = 0; pc < fn.code.size(); ++pc) {
      const Insn& insn = fn.code[pc];
      if (IsUncheckedOp(insn.op)) {
        out << "  " << pc << ": " << OpName(insn.op) << " elided\n";
        ++elided;
      } else if (IsCandidate(insn.op)) {
        out << "  " << pc << ": " << OpName(insn.op) << " retained\n";
        ++retained;
      }
    }
  }
  out << "total elided=" << elided << " retained=" << retained << "\n";
  return out.str();
}

}  // namespace minnow
