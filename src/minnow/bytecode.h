// Minnow bytecode: the machine-independent format grafts are shipped in.
//
// A compact stack machine, in the mold of the JVM bytecode the paper's Java
// numbers come from. Every instruction is an opcode plus one signed 64-bit
// operand. The compiler guarantees type soundness; the load-time verifier
// (verifier.h) independently re-checks the structural properties the kernel
// must not take on faith (jump targets, stack discipline, slot and pool
// indices), mirroring how a kernel would treat downloaded code.
//
// The opcode set is defined once through GRAFTLAB_MINNOW_OPS so the enum, the
// name table, the interpreter's computed-goto label table, and the opcode
// profiler can never drift out of sync. Opcode semantics:
//
//   kNop
//   kConstInt      push operand
//   kConstNull     push null reference
//   kLoadLocal     push locals[operand]
//   kStoreLocal    locals[operand] = pop
//   kLoadGlobal    push globals[operand]
//   kStoreGlobal   globals[operand] = pop
//   kPop, kDup
//
//   Signed 64-bit integer arithmetic (b = pop, a = pop, push a OP b):
//   kAddI kSubI kMulI kDivI kModI kNegI kAndI kOrI kXorI kShlI kShrI kNotI
//   (kDivI/kModI trap on divide by zero and INT64_MIN / -1; shift counts
//   masked to 63; kShrI is an arithmetic shift.)
//
//   u32 arithmetic, result truncated modulo 2^32:
//   kAddU kSubU kMulU kDivU kModU kShlU kShrU kNotU
//   (shift counts masked to 31; kShrU is a logical shift.)
//
//   Comparisons (push bool): kEqI kNeI kLtI kLeI kGtI kGeI kLtU kLeU kGtU
//   kGeU kEqRef kNeRef; kNotB is logical not.
//
//   Narrowing casts: kCastU32, kCastByte.
//
//   Control flow (branch operands are absolute instruction indices):
//   kJmp kJmpIfFalse kJmpIfTrue
//   kCall          operand = function index; args on stack left-to-right
//   kCallHost      operand = host import index
//   kRet           return top of stack
//   kRetVoid
//
//   Heap:
//   kNewStruct     operand = struct id
//   kNewArray      operand = element TypeKind; length popped from stack
//   kLoadField     operand = field index; object popped
//   kStoreField    value = pop, object = pop
//   kLoadElem      index = pop, array = pop
//   kStoreElem     value = pop, index = pop, array = pop
//   kArrayLen      array popped
//
//   kTrap          unconditional trap; operand selects the message
//
// Superinstructions (emitted only by optimizer.h's FuseSuperinstructions,
// never by the compiler). Each one is defined by the base sequence Expand
// returns for it; the interpreter's fused handlers are a faster way to run
// that sequence, and the verifier, the elision pass and the JIT only ever
// see the sequence:
//
//   load+add.i s         load.local s; add.i
//   add.const.i c        const c; add.i
//   const+store c,s      const c; store.local s     (PackConstStore)
//   br.CMP.i t           CMP.i; jmp.true t          (CMP: eq ne lt le gt ge)
//   br.eq.ref/ne.ref t   eq.ref/ne.ref; jmp.true t
//   br.CMP.imm.i imm,t   const imm; CMP.i; jmp.true t  (PackImmBranch)
//   load.local2 a,b      load.local a; load.local b (PackSlotPair)
//   load+const.i c,s     load.local s; const c      (PackConstStore layout)
//   move.local a,b       load.local a; store.local b
//   store+load a,b       store.local a; load.local b
//   load.global+local g,s  load.global g; load.local s
//
// FuseSuperinstructions also folds not.b + jmp.false/true into the opposite
// base branch, which needs no opcode of its own.
//
// Unchecked variants (emitted only by elide.h's load-time check-elision
// pass, and only when its abstract interpreter has proven the elided
// runtime check can never fire; the verifier refuses them unless the
// program carries a matching elision certificate — see ElisionCertificate):
//
//   kLoadElemNC    kLoadElem without the null, array-kind, and bounds checks
//   kStoreElemNC   kStoreElem without the null, array-kind, and bounds checks
//   kLoadFieldNC   kLoadField without the null check (field-index check kept)
//   kStoreFieldNC  kStoreField without the null check (field-index check kept)
//   kDivNZ         kDivI without the zero-divisor and INT64_MIN/-1 checks
//   kModNZ         kModI without the zero-divisor and INT64_MIN/-1 checks
//   kArrayLenNC    kArrayLen without the null and array-kind checks

#ifndef GRAFTLAB_SRC_MINNOW_BYTECODE_H_
#define GRAFTLAB_SRC_MINNOW_BYTECODE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/minnow/types.h"

// X-macro over every opcode, in enum order. New opcodes go at the end so
// fused programs disassembled in old logs stay readable.
#define GRAFTLAB_MINNOW_OPS(X) \
  X(kNop)                      \
  X(kConstInt)                 \
  X(kConstNull)                \
  X(kLoadLocal)                \
  X(kStoreLocal)               \
  X(kLoadGlobal)               \
  X(kStoreGlobal)              \
  X(kPop)                      \
  X(kDup)                      \
  X(kAddI)                     \
  X(kSubI)                     \
  X(kMulI)                     \
  X(kDivI)                     \
  X(kModI)                     \
  X(kNegI)                     \
  X(kAndI)                     \
  X(kOrI)                      \
  X(kXorI)                     \
  X(kShlI)                     \
  X(kShrI)                     \
  X(kNotI)                     \
  X(kAddU)                     \
  X(kSubU)                     \
  X(kMulU)                     \
  X(kDivU)                     \
  X(kModU)                     \
  X(kShlU)                     \
  X(kShrU)                     \
  X(kNotU)                     \
  X(kEqI)                      \
  X(kNeI)                      \
  X(kLtI)                      \
  X(kLeI)                      \
  X(kGtI)                      \
  X(kGeI)                      \
  X(kLtU)                      \
  X(kLeU)                      \
  X(kGtU)                      \
  X(kGeU)                      \
  X(kEqRef)                    \
  X(kNeRef)                    \
  X(kNotB)                     \
  X(kCastU32)                  \
  X(kCastByte)                 \
  X(kJmp)                      \
  X(kJmpIfFalse)               \
  X(kJmpIfTrue)                \
  X(kCall)                     \
  X(kCallHost)                 \
  X(kRet)                      \
  X(kRetVoid)                  \
  X(kNewStruct)                \
  X(kNewArray)                 \
  X(kLoadField)                \
  X(kStoreField)               \
  X(kLoadElem)                 \
  X(kStoreElem)                \
  X(kArrayLen)                 \
  X(kTrap)                     \
  X(kLoadAddI)                 \
  X(kAddConstI)                \
  X(kConstStore)               \
  X(kBrEqI)                    \
  X(kBrNeI)                    \
  X(kBrLtI)                    \
  X(kBrLeI)                    \
  X(kBrGtI)                    \
  X(kBrGeI)                    \
  X(kBrEqRef)                  \
  X(kBrNeRef)                  \
  X(kBrEqImmI)                 \
  X(kBrNeImmI)                 \
  X(kBrLtImmI)                 \
  X(kBrLeImmI)                 \
  X(kBrGtImmI)                 \
  X(kBrGeImmI)                 \
  X(kLoadLocal2)               \
  X(kLoadConstI)               \
  X(kMoveLocal)                \
  X(kStoreLoad)                \
  X(kLoadGlobalLocal)          \
  X(kLoadElemNC)               \
  X(kStoreElemNC)              \
  X(kLoadFieldNC)              \
  X(kStoreFieldNC)             \
  X(kDivNZ)                    \
  X(kModNZ)                    \
  X(kArrayLenNC)

namespace minnow {

enum class Op : std::uint8_t {
#define GRAFTLAB_MINNOW_ENUM_ENTRY(name) name,
  GRAFTLAB_MINNOW_OPS(GRAFTLAB_MINNOW_ENUM_ENTRY)
#undef GRAFTLAB_MINNOW_ENUM_ENTRY
};

inline constexpr std::size_t kNumOps = 0
#define GRAFTLAB_MINNOW_COUNT_ENTRY(name) +1
    GRAFTLAB_MINNOW_OPS(GRAFTLAB_MINNOW_COUNT_ENTRY)
#undef GRAFTLAB_MINNOW_COUNT_ENTRY
    ;

// True for opcodes only FuseSuperinstructions may emit.
inline constexpr bool IsSuperinstruction(Op op) {
  return op >= Op::kLoadAddI && op <= Op::kLoadGlobalLocal;
}

// True for the unchecked opcode variants only the check-elision pass
// (elide.h) may emit. The verifier rejects them unless the program's
// elision certificate is attached and its code hash matches.
inline constexpr bool IsUncheckedOp(Op op) {
  return op >= Op::kLoadElemNC;
}

// kConstStore packs a 32-bit constant and a local slot into one operand.
inline constexpr std::int64_t PackConstStore(std::int32_t value, std::uint32_t slot) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(static_cast<std::uint32_t>(value)) << 32 |
                                   slot);
}
inline constexpr std::int32_t ConstStoreValue(std::int64_t operand) {
  return static_cast<std::int32_t>(static_cast<std::uint64_t>(operand) >> 32);
}
inline constexpr std::uint32_t ConstStoreSlot(std::int64_t operand) {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(operand));
}

// kBr*ImmI packs a 32-bit immediate and a branch target the same way.
inline constexpr std::int64_t PackImmBranch(std::int32_t imm, std::uint32_t target) {
  return PackConstStore(imm, target);
}
inline constexpr std::int32_t ImmBranchValue(std::int64_t operand) { return ConstStoreValue(operand); }
inline constexpr std::uint32_t ImmBranchTarget(std::int64_t operand) { return ConstStoreSlot(operand); }

// kLoadLocal2/kMoveLocal/kStoreLoad/kLoadGlobalLocal pack two u32 indices
// (slot/slot, src/dst, or global/slot) into one operand. kLoadConstI reuses
// the PackConstStore layout (const<<32 | slot).
inline constexpr std::int64_t PackSlotPair(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) << 32 | b);
}
inline constexpr std::uint32_t SlotPairA(std::int64_t operand) {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(operand) >> 32);
}
inline constexpr std::uint32_t SlotPairB(std::int64_t operand) {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(operand));
}

struct Insn {
  Op op = Op::kNop;
  std::int64_t operand = 0;
};

struct FunctionCode {
  std::string name;
  int num_params = 0;
  int num_locals = 0;  // including params
  bool returns_value = false;
  std::vector<Insn> code;
  int max_stack = 0;  // filled by the verifier
};

// A struct's runtime layout: slot count plus which slots hold references
// (the GC's field map).
struct StructLayout {
  std::string name;
  int num_fields = 0;
  std::vector<bool> field_is_ref;
};

// One imported host function.
struct HostImport {
  std::string name;
  int arity = 0;
  bool returns_value = false;
};

struct GlobalSlot {
  std::string name;
  bool is_ref = false;
};

// Proof-carrying stamp attached by the check-elision pass (elide.h). The
// pass only rewrites an access to its unchecked variant when its abstract
// interpreter has proven the elided check can never fire; the certificate
// binds that proof to the exact post-rewrite opcode stream via an FNV-1a
// hash, so the verifier can refuse unchecked opcodes that did not come out
// of the elision pass (or were edited after it ran), and the VM refuses a
// program whose code no longer matches its stamp.
struct ElisionCertificate {
  bool attached = false;
  std::uint64_t code_hash = 0;  // ElisionCodeHash over the rewritten program
  // Static rewrite counts, by category (each elided site is one opcode
  // replaced 1:1, so fuel and retired-instruction counts are unchanged).
  std::uint64_t checks_elided = 0;    // total sites rewritten
  std::uint64_t checks_retained = 0;  // candidate sites left checked
  std::uint64_t elem_loads_elided = 0;
  std::uint64_t elem_stores_elided = 0;
  std::uint64_t field_accesses_elided = 0;
  std::uint64_t divs_elided = 0;
  std::uint64_t array_lens_elided = 0;
};

struct ElideFacts;  // elide.h

// A compiled, shippable Minnow module.
struct Program {
  std::vector<StructLayout> structs;
  std::vector<GlobalSlot> globals;
  std::vector<FunctionCode> functions;
  std::vector<HostImport> host_imports;
  ElisionCertificate elision;
  // What ElideChecks proved at selected pcs (elide.h), for the JIT, which
  // uses a fact only behind a guard that deopts when it is false. Shared
  // and immutable, so copying a Program copies no facts; null when the
  // program never went through ElideChecks.
  std::shared_ptr<const ElideFacts> facts;

  // Index of a function by name, -1 if absent.
  int FindFunction(const std::string& name) const {
    for (std::size_t i = 0; i < functions.size(); ++i) {
      if (functions[i].name == name) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }
};

const char* OpName(Op op);

// --- The one description of the instruction set ---------------------------
//
// What an instruction does to the operand stack and to control: it pops
// `pops` operands, then pushes `pushes`; a `branch` may jump to
// BranchTarget(insn); a `terminal` never falls through. The verifier, the
// elision pass, the JIT and the fusion pass all read shapes from here.
struct Shape {
  int pops = 0;
  int pushes = 0;
  bool branch = false;
  bool terminal = false;
};

// The shape of `insn`. kCall and kCallHost take theirs from the function or
// host import `program` names; an index out of range has the empty shape
// (the verifier rejects it before any shape matters). A superinstruction's
// shape is the composition of its expansion.
Shape ShapeOf(const Program& program, const Insn& insn);

// Writes the base instructions `insn` stands for into `out` and returns how
// many: a superinstruction's sequence (only its last op can branch or end
// control), or `insn` itself. Allocates nothing.
inline constexpr int kMaxExpansion = 3;
int Expand(const Insn& insn, Insn out[kMaxExpansion]);

// Where a branching instruction (ShapeOf(...).branch) jumps, and rewriting
// that target in place (br.*.imm forms keep their packed immediate).
std::int64_t BranchTarget(const Insn& insn);
void SetBranchTarget(Insn& insn, std::int64_t target);

// Human-readable disassembly, for tests and debugging.
std::string Disassemble(const FunctionCode& fn);

}  // namespace minnow

#endif  // GRAFTLAB_SRC_MINNOW_BYTECODE_H_
