#include "src/minnow/jit.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <stdexcept>
#include <unordered_map>

#include "src/minnow/verifier.h"
#include "src/minnow/vm.h"

// The real backend needs x86-64 SysV, GNU-flavored toolchain bits, and mmap.
// Everything else builds this translation unit with Available() == false.
#if defined(GRAFTLAB_JIT) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__)) && defined(__linux__)
#define GRAFTLAB_JIT_X64 1
#else
#define GRAFTLAB_JIT_X64 0
#endif

#if GRAFTLAB_JIT_X64
#include <sys/mman.h>
#endif

namespace minnow {

#if GRAFTLAB_JIT_X64

namespace {

// ---------------------------------------------------------------------------
// Register file and instruction encoder. Just enough of x86-64 for the
// templates below — every emitter is a thin REX/ModRM/SIB wrapper, verified
// against the SDM encodings noted alongside.
// ---------------------------------------------------------------------------

enum Reg : std::uint8_t {
  RAX = 0, RCX = 1, RDX = 2, RBX = 3, RSP = 4, RBP = 5, RSI = 6, RDI = 7,
  R8 = 8, R9 = 9, R10 = 10, R11 = 11, R12 = 12, R13 = 13, R14 = 14, R15 = 15,
};

// Condition codes (the low nibble of 0F 8x / 0F 9x).
enum Cc : std::uint8_t {
  CC_O = 0x0, CC_B = 0x2, CC_AE = 0x3, CC_E = 0x4, CC_NE = 0x5, CC_BE = 0x6,
  CC_A = 0x7, CC_S = 0x8, CC_NS = 0x9, CC_L = 0xC, CC_GE = 0xD, CC_LE = 0xE,
  CC_G = 0xF,
};

// /digit values for the 0x81 and 0xF7 / 0xD3 groups.
enum AluDigit : std::uint8_t {
  ALU_ADD = 0, ALU_OR = 1, ALU_AND = 4, ALU_SUB = 5, ALU_XOR = 6, ALU_CMP = 7,
};
enum GrpDigit : std::uint8_t {
  GRP_NOT = 2, GRP_NEG = 3, GRP_DIV = 6, GRP_IDIV = 7,
  SH_SHL = 4, SH_SHR = 5, SH_SAR = 7,
};

class Asm {
 public:
  std::vector<std::uint8_t> code;

  std::size_t pos() const { return code.size(); }
  void U8(std::uint8_t b) { code.push_back(b); }
  void U32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) U8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) U8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void PatchU32(std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) code[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  // Patches a rel32 at `at` to land on `target` (offsets within this buffer).
  void PatchRel32(std::size_t at, std::size_t target) {
    PatchU32(at, static_cast<std::uint32_t>(static_cast<std::int64_t>(target) -
                                            (static_cast<std::int64_t>(at) + 4)));
  }
  void PatchRel8(std::size_t at, std::size_t target) {
    code[at] = static_cast<std::uint8_t>(static_cast<std::int64_t>(target) -
                                         (static_cast<std::int64_t>(at) + 1));
  }

  // `byte_reg` names an 8-bit register operand: spl/bpl/sil/dil need a
  // (possibly empty) REX prefix, or the encoding means ah/ch/dh/bh.
  void Rex(bool w, std::uint8_t reg, std::uint8_t index, std::uint8_t base,
           int byte_reg = -1) {
    const std::uint8_t rex = 0x40 | (w ? 8 : 0) | (((reg >> 3) & 1) << 2) |
                             (((index >> 3) & 1) << 1) | ((base >> 3) & 1);
    if (rex != 0x40 || (byte_reg >= 4 && byte_reg <= 7)) U8(rex);
  }

  // ModRM (+SIB) for [base + disp]. base==rsp/r12 forces a SIB byte;
  // base==rbp/r13 forces an explicit displacement even when zero.
  void Mem(std::uint8_t reg, std::uint8_t base, std::int32_t disp) {
    std::uint8_t mod;
    if (disp == 0 && (base & 7) != 5) {
      mod = 0;
    } else if (disp >= -128 && disp <= 127) {
      mod = 1;
    } else {
      mod = 2;
    }
    U8(static_cast<std::uint8_t>(mod << 6 | (reg & 7) << 3 | ((base & 7) == 4 ? 4 : (base & 7))));
    if ((base & 7) == 4) U8(0x24);  // SIB: no index, base in low bits
    if (mod == 1) U8(static_cast<std::uint8_t>(disp));
    if (mod == 2) U32(static_cast<std::uint32_t>(disp));
  }

  // ModRM+SIB for [base + index*2^scale + disp]. index must not be RSP.
  void MemSib(std::uint8_t reg, std::uint8_t base, std::uint8_t index, int scale,
              std::int32_t disp) {
    std::uint8_t mod;
    if (disp == 0 && (base & 7) != 5) {
      mod = 0;
    } else if (disp >= -128 && disp <= 127) {
      mod = 1;
    } else {
      mod = 2;
    }
    U8(static_cast<std::uint8_t>(mod << 6 | (reg & 7) << 3 | 4));
    U8(static_cast<std::uint8_t>(scale << 6 | (index & 7) << 3 | (base & 7)));
    if (mod == 1) U8(static_cast<std::uint8_t>(disp));
    if (mod == 2) U32(static_cast<std::uint32_t>(disp));
  }

  void ModReg(std::uint8_t reg, std::uint8_t rm) {
    U8(static_cast<std::uint8_t>(0xC0 | (reg & 7) << 3 | (rm & 7)));
  }

  // --- moves ---
  void MovRR(Reg dst, Reg src) { Rex(true, src, 0, dst); U8(0x89); ModReg(src, dst); }
  void MovRR32(Reg dst, Reg src) { Rex(false, src, 0, dst); U8(0x89); ModReg(src, dst); }
  void Load64(Reg dst, Reg base, std::int32_t disp) {
    Rex(true, dst, 0, base); U8(0x8B); Mem(dst, base, disp);
  }
  void Store64(Reg base, std::int32_t disp, Reg src) {
    Rex(true, src, 0, base); U8(0x89); Mem(src, base, disp);
  }
  void Load32(Reg dst, Reg base, std::int32_t disp) {  // zero-extends
    Rex(false, dst, 0, base); U8(0x8B); Mem(dst, base, disp);
  }
  void Store32(Reg base, std::int32_t disp, Reg src) {
    Rex(false, src, 0, base); U8(0x89); Mem(src, base, disp);
  }
  void Load8Zx(Reg dst, Reg base, std::int32_t disp) {  // movzx r32, byte [..]
    Rex(false, dst, 0, base); U8(0x0F); U8(0xB6); Mem(dst, base, disp);
  }
  void Load64Sib(Reg dst, Reg base, Reg index, int scale, std::int32_t disp) {
    Rex(true, dst, index, base); U8(0x8B); MemSib(dst, base, index, scale, disp);
  }
  void Store64Sib(Reg base, Reg index, int scale, std::int32_t disp, Reg src) {
    Rex(true, src, index, base); U8(0x89); MemSib(src, base, index, scale, disp);
  }
  void Load32Sib(Reg dst, Reg base, Reg index, int scale, std::int32_t disp) {
    Rex(false, dst, index, base); U8(0x8B); MemSib(dst, base, index, scale, disp);
  }
  void Store32Sib(Reg base, Reg index, int scale, std::int32_t disp, Reg src) {
    Rex(false, src, index, base); U8(0x89); MemSib(src, base, index, scale, disp);
  }
  void Load8ZxSib(Reg dst, Reg base, Reg index, int scale, std::int32_t disp) {
    Rex(false, dst, index, base); U8(0x0F); U8(0xB6); MemSib(dst, base, index, scale, disp);
  }
  void Store8Sib(Reg base, Reg index, int scale, std::int32_t disp, Reg src) {
    Rex(false, src, index, base, src); U8(0x88); MemSib(src, base, index, scale, disp);
  }
  void Store8(Reg base, std::int32_t disp, Reg src) {  // any byte register
    Rex(false, src, 0, base, src); U8(0x88); Mem(src, base, disp);
  }
  void MovImm64(Reg dst, std::uint64_t imm) {
    Rex(true, 0, 0, dst); U8(static_cast<std::uint8_t>(0xB8 | (dst & 7))); U64(imm);
  }
  void MovImm32Sx(Reg dst, std::int32_t imm) {  // mov r64, imm32 (sign-extends)
    Rex(true, 0, 0, dst); U8(0xC7); ModReg(0, dst); U32(static_cast<std::uint32_t>(imm));
  }
  void MovImm32(Reg dst, std::uint32_t imm) {  // mov r32, imm32 (zero-extends)
    Rex(false, 0, 0, dst); U8(static_cast<std::uint8_t>(0xB8 | (dst & 7))); U32(imm);
  }
  void StoreImm32Sx(Reg base, std::int32_t disp, std::int32_t imm) {  // mov qword [..], imm32
    Rex(true, 0, 0, base); U8(0xC7); Mem(0, base, disp); U32(static_cast<std::uint32_t>(imm));
  }
  // Loads an int64 with the shortest usable encoding.
  void MovImmAuto(Reg dst, std::int64_t imm) {
    if (imm >= INT32_MIN && imm <= INT32_MAX) {
      MovImm32Sx(dst, static_cast<std::int32_t>(imm));
    } else {
      MovImm64(dst, static_cast<std::uint64_t>(imm));
    }
  }

  // --- ALU, reg ← reg/mem forms (opcode 0x03-style: reg, r/m) ---
  void AddRM(Reg dst, Reg base, std::int32_t disp) { Rex(true, dst, 0, base); U8(0x03); Mem(dst, base, disp); }
  void SubRM(Reg dst, Reg base, std::int32_t disp) { Rex(true, dst, 0, base); U8(0x2B); Mem(dst, base, disp); }
  void ImulRM(Reg dst, Reg base, std::int32_t disp) { Rex(true, dst, 0, base); U8(0x0F); U8(0xAF); Mem(dst, base, disp); }
  void ImulRM32(Reg dst, Reg base, std::int32_t disp) { Rex(false, dst, 0, base); U8(0x0F); U8(0xAF); Mem(dst, base, disp); }
  void ImulImm(Reg dst, Reg src, std::int32_t imm) {  // imul r64, r/m64, imm32
    Rex(true, dst, 0, src); U8(0x69); ModReg(dst, src); U32(static_cast<std::uint32_t>(imm));
  }
  void AddRR(Reg dst, Reg src) { Rex(true, src, 0, dst); U8(0x01); ModReg(src, dst); }
  void SubRR(Reg dst, Reg src) { Rex(true, src, 0, dst); U8(0x29); ModReg(src, dst); }
  void XorRR32(Reg dst, Reg src) { Rex(false, src, 0, dst); U8(0x31); ModReg(src, dst); }
  void ImulRR(Reg dst, Reg src) { Rex(true, dst, 0, src); U8(0x0F); U8(0xAF); ModReg(dst, src); }
  // Generic two-operand ALU (add/or/and/sub/xor/cmp): the opcode byte is
  // digit*8 + 1 for r/m <- reg and digit*8 + 3 for reg <- r/m.
  void AluRR(AluDigit digit, Reg dst, Reg src, bool w = true) {
    Rex(w, src, 0, dst); U8(static_cast<std::uint8_t>(digit * 8 + 1)); ModReg(src, dst);
  }
  void AluRMem(AluDigit digit, Reg dst, Reg base, std::int32_t disp, bool w = true) {
    Rex(w, dst, 0, base); U8(static_cast<std::uint8_t>(digit * 8 + 3)); Mem(dst, base, disp);
  }
  void CmpMR(Reg base, std::int32_t disp, Reg src) {  // cmp qword [..], src
    Rex(true, src, 0, base); U8(0x39); Mem(src, base, disp);
  }
  void ImulRR32(Reg dst, Reg src) { Rex(false, dst, 0, src); U8(0x0F); U8(0xAF); ModReg(dst, src); }
  void ImulImm32(Reg dst, Reg src, std::int32_t imm) {
    Rex(false, dst, 0, src); U8(0x69); ModReg(dst, src); U32(static_cast<std::uint32_t>(imm));
  }
  void CmpRR(Reg a, Reg b) { Rex(true, b, 0, a); U8(0x39); ModReg(b, a); }  // cmp a, b
  void CmpRM(Reg a, Reg base, std::int32_t disp) { Rex(true, a, 0, base); U8(0x3B); Mem(a, base, disp); }
  void TestRR(Reg a, Reg b) { Rex(true, b, 0, a); U8(0x85); ModReg(b, a); }
  void TestRR32(Reg a, Reg b) { Rex(false, b, 0, a); U8(0x85); ModReg(b, a); }

  // --- ALU with immediate (0x83 imm8 short form when it fits, else 0x81) ---
  static bool ImmFits8(std::int32_t imm) { return imm >= -128 && imm <= 127; }
  void AluImm(AluDigit digit, Reg rm, std::int32_t imm) {
    Rex(true, 0, 0, rm);
    if (ImmFits8(imm)) { U8(0x83); ModReg(digit, rm); U8(static_cast<std::uint8_t>(imm)); }
    else { U8(0x81); ModReg(digit, rm); U32(static_cast<std::uint32_t>(imm)); }
  }
  void AluMemImm(AluDigit digit, Reg base, std::int32_t disp, std::int32_t imm) {
    Rex(true, 0, 0, base);
    if (ImmFits8(imm)) { U8(0x83); Mem(digit, base, disp); U8(static_cast<std::uint8_t>(imm)); }
    else { U8(0x81); Mem(digit, base, disp); U32(static_cast<std::uint32_t>(imm)); }
  }
  void AluImm32(AluDigit digit, Reg rm, std::int32_t imm) {  // 32-bit form
    Rex(false, 0, 0, rm);
    if (ImmFits8(imm)) { U8(0x83); ModReg(digit, rm); U8(static_cast<std::uint8_t>(imm)); }
    else { U8(0x81); ModReg(digit, rm); U32(static_cast<std::uint32_t>(imm)); }
  }
  void CmpMemImm(Reg base, std::int32_t disp, std::int32_t imm) {  // cmp qword [..], imm32
    AluMemImm(ALU_CMP, base, disp, imm);
  }
  void CmpMemImm8u(Reg base, std::int32_t disp, std::uint8_t imm) {  // cmp byte [..], imm8
    Rex(false, 0, 0, base); U8(0x80); Mem(7, base, disp); U8(imm);
  }
  void Cmp32MemImm(Reg base, std::int32_t disp, std::int32_t imm) {  // cmp dword [..], imm32
    Rex(false, 0, 0, base); U8(0x81); Mem(7, base, disp); U32(static_cast<std::uint32_t>(imm));
  }

  // --- unary groups ---
  void Grp(GrpDigit digit, Reg rm, bool w = true) {  // F7 group: not/neg/div/idiv
    Rex(w, 0, 0, rm); U8(0xF7); ModReg(digit, rm);
  }
  void ShiftCl(GrpDigit digit, Reg rm, bool w = true) {  // D3 group by cl
    Rex(w, 0, 0, rm); U8(0xD3); ModReg(digit, rm);
  }
  void ShiftImm(GrpDigit digit, Reg rm, std::uint8_t count, bool w = true) {  // C1 group
    Rex(w, 0, 0, rm); U8(0xC1); ModReg(digit, rm); U8(count);
  }
  void NotR32(Reg rm) { Rex(false, 0, 0, rm); U8(0xF7); ModReg(GRP_NOT, rm); }
  void DecR(Reg rm) { Rex(true, 0, 0, rm); U8(0xFF); ModReg(1, rm); }
  void Cqo() { U8(0x48); U8(0x99); }

  void Setcc(Cc cc, Reg rm8) {
    Rex(false, 0, 0, rm8, rm8); U8(0x0F); U8(static_cast<std::uint8_t>(0x90 | cc)); ModReg(0, rm8);
  }
  void MovzxR32R8(Reg dst, Reg src8) {
    Rex(false, dst, 0, src8, src8); U8(0x0F); U8(0xB6); ModReg(dst, src8);
  }

  void Lea(Reg dst, Reg base, std::int32_t disp) {
    Rex(true, dst, 0, base); U8(0x8D); Mem(dst, base, disp);
  }
  void LeaSib(Reg dst, Reg base, Reg index, int scale, std::int32_t disp) {
    Rex(true, dst, index, base); U8(0x8D); MemSib(dst, base, index, scale, disp);
  }

  // --- control flow ---
  // Emits jcc rel32 and returns the patch position of the rel32.
  std::size_t Jcc(Cc cc) {
    U8(0x0F); U8(static_cast<std::uint8_t>(0x80 | cc)); const std::size_t at = pos(); U32(0);
    return at;
  }
  std::size_t Jmp() { U8(0xE9); const std::size_t at = pos(); U32(0); return at; }
  // Short forward jumps for intra-template skips; patch with PatchRel8.
  std::size_t Jcc8(Cc cc) { U8(static_cast<std::uint8_t>(0x70 | cc)); const std::size_t at = pos(); U8(0); return at; }
  std::size_t Jmp8() { U8(0xEB); const std::size_t at = pos(); U8(0); return at; }

  void CallR(Reg r) { Rex(false, 0, 0, r); U8(0xFF); ModReg(2, r); }
  void CallMem(Reg base, std::int32_t disp) { Rex(false, 0, 0, base); U8(0xFF); Mem(2, base, disp); }
  void Push(Reg r) { Rex(false, 0, 0, r); U8(static_cast<std::uint8_t>(0x50 | (r & 7))); }
  void Pop(Reg r) { Rex(false, 0, 0, r); U8(static_cast<std::uint8_t>(0x58 | (r & 7))); }
  void Ret() { U8(0xC3); }
};

// ---------------------------------------------------------------------------
// Offsets baked into emitted code. ExecState and Frame are standard-layout;
// Object's header offsets are fixed constants (heap.h), checked there.
// ---------------------------------------------------------------------------

struct StateOffsets {
  std::int32_t stack, globals, frames, nframes, sp, fuel, retired, frame_limit;
};
constexpr StateOffsets S{
    offsetof(ExecState, stack),   offsetof(ExecState, globals), offsetof(ExecState, frames),
    offsetof(ExecState, nframes), offsetof(ExecState, sp),      offsetof(ExecState, fuel),
    offsetof(ExecState, retired), offsetof(ExecState, frame_limit)};

struct FrameOffsets {
  std::int32_t fn, pc, base, size;
};
constexpr FrameOffsets F{offsetof(Frame, fn), offsetof(Frame, pc), offsetof(Frame, base),
                         sizeof(Frame)};

namespace {

// ---------------------------------------------------------------------------
// Per-function compiler. Register roles:
//   r14 = ExecState* (the VM's own execution state, worked on in place)
//   r13 = locals base (stack + 8*frame->base). Every slot — caller local s,
//         operand depth d at s = num_locals + d, a spliced callee's locals
//         and operands above those — lives at [r13 + 8*s].
//   rbx = globals base
//   rbp = current Frame*
//   r15 = fuel counter; the retired ledger is derived from it (EmitPrologue)
//   r12, r8-r11 = pinned locals: up to five hot locals of a loop-carrying
//         function live in registers for the whole function
//   rax, rcx, rdx, rsi, rdi = scratch pool for the virtual operand stack
// There is no stack-pointer register: the verifier proves one operand depth
// per pc, so every operand address is static and sp_ is materialized only at
// side exits and helper calls (sp = frame->base + num_locals + depth).
// ---------------------------------------------------------------------------

constexpr Reg CTX = R14;
constexpr Reg LOCALS = R13;
constexpr Reg GLB = RBX;
constexpr Reg FRM = RBP;
// The live fuel counter. st->fuel is authoritative only at sync points
// (prologue/epilogue, call boundaries); in between, block accounting runs
// against the register so the common path is one sub and one taken-never
// branch. Unlimited runs (negative st->fuel) bias r15 to INT64_MAX — the
// subtracts still happen but can never exhaust, and every sync skips the
// store so the sentinel survives.
constexpr Reg FUEL = R15;
constexpr std::uint64_t kFuelUnlimitedBias = 0x7fffffffffffffffull;
constexpr Reg kPinRegs[] = {R12, R8, R9, R10, R11};
constexpr Reg kScratch[] = {RAX, RCX, RDX, RSI, RDI};
constexpr Reg kNoReg = RSP;  // "no register": rsp is never allocated

// Where one operand-stack value lives at compile time. kSlot means the
// interpreter's own slot holds it (memory is current); every other kind
// means the slot is stale and the value is elsewhere — the deopt map of an
// exit lists exactly those entries. `vn` is the value's number (see the
// value-numbering section of Compiler): two values with the same nonzero
// number hold the same bits, wherever each one lives.
struct Val {
  enum Kind : std::uint8_t { kSlot, kReg, kImm, kLocal, kCond };
  Kind kind = kSlot;
  Reg reg = kNoReg;      // kReg
  Cc cc = CC_E;          // kCond: the value is setcc(cc) of the live flags
  int slot = 0;          // kSlot: its own slot; kLocal: the caller local aliased
  std::int64_t imm = 0;  // kImm
  std::uint32_t vn = 0;  // 0: unnumbered

  static Val Slot(int s) { Val v; v.slot = s; return v; }
  static Val InReg(Reg r) { Val v; v.kind = kReg; v.reg = r; return v; }
  static Val Imm(std::int64_t i) { Val v; v.kind = kImm; v.imm = i; return v; }
  static Val Local(int s) { Val v; v.kind = kLocal; v.slot = s; return v; }
  static Val Cond(Cc c) { Val v; v.kind = kCond; v.cc = c; return v; }
  Val Numbered(std::uint32_t n) const { Val v = *this; v.vn = n; return v; }
};

constexpr std::uint64_t kU32Mask = 0xFFFFFFFFull;

bool FitsI32(std::int64_t v) { return v >= INT32_MIN && v <= INT32_MAX; }

// The condition that holds for (b, a) when `cc` holds for (a, b).
Cc Mirror(Cc cc) {
  switch (cc) {
    case CC_L: return CC_G;
    case CC_G: return CC_L;
    case CC_LE: return CC_GE;
    case CC_GE: return CC_LE;
    case CC_B: return CC_A;
    case CC_A: return CC_B;
    case CC_BE: return CC_AE;
    case CC_AE: return CC_BE;
    default: return cc;
  }
}

// log2(v) when v is a power of two in [1, 2^31], else -1.
int Log2Small(std::int64_t v) {
  for (int k = 0; k <= 31; ++k) {
    if (v == (std::int64_t{1} << k)) return k;
  }
  return -1;
}

bool IsBlockEnder(const Shape& e, Op op) {
  return e.branch || e.terminal || op == Op::kCall || op == Op::kCallHost;
}

// The control-flow facts the compiler needs about one function's code
// (the function being compiled, or a callee being spliced into it).
struct BlockMap {
  std::vector<int> depth;       // operand depth per pc; -1 = unreachable
  std::vector<char> leader;     // entry, branch targets, the insn after any ender
  std::vector<char> target;     // pc is some branch's target (a join)
  std::vector<int> blk_leader;  // pc -> its block's leader pc
  std::vector<int> blk_len;     // leader pc -> instruction count
  // Fuel plan (EmitBlockAccounting): check leaders are the entry, loop
  // heads, and the insn after a call; run[leader] is the longest
  // instruction count from that block's start to the next check leader.
  std::vector<char> check;
  std::vector<int> run;
};

struct Compiler {
  const Program& program;
  const FunctionCode& fn;
  const VmOptions& opts;
  void* const* entry_table;  // &entries_[0]; kCall sites load through it
  // Out-of-line helper entry points (private Jit members, so Impl passes
  // their addresses in rather than the compiler naming them).
  const void* help_call_host;
  const void* help_new_struct;
  const void* help_new_array;
  // The VM's stack size (fixed at construction, arena-backed, never
  // resized) — lets the prologue's stack-room check fold to an immediate.
  std::size_t stack_slots;

  Asm a{};
  BlockMap m_{};                   // the function being compiled
  std::vector<std::int64_t> pc_off{};  // pc -> native offset (-1 = not emitted)
  // Native offset -> bytecode pc, ascending (Jit::Resolve). Code spliced
  // from a callee resolves to the caller's kCall.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pc_map{};

  struct Fix {
    std::size_t at;
    std::size_t pc;
  };
  std::vector<Fix> fixes{};  // rel32 patches to bytecode-pc labels

  struct Exit {
    std::size_t at;      // rel32 patch position jumping to this stub
    std::uint32_t pc;    // faulting bytecode pc (reexec only)
    int depth;           // operand depth at the site (reexec sp commit)
    bool reexec;         // true: kDeopt + frame rebuild; false: exception passthrough
    std::int64_t give;   // fuel give-back: the charged run the exit did not execute
    // Exits raised inside a spliced (inlined) callee: the stub materializes
    // the frame the hot path skipped, so pc/depth above are callee-relative
    // and the interpreter resumes inside the callee as if kCall had pushed.
    const FunctionCode* inl_callee;
    std::int32_t inl_kk;      // callee base - caller base, in slots
    std::int32_t inl_ret_pc;  // caller pc after the kCall
    std::uint32_t caller_pc;  // bytecode pc the stub resolves to
    // The deopt map: every operand slot whose value is not in memory at the
    // exit, by depth (caller coordinates), and where it is instead.
    std::vector<std::pair<int, Val>> map;
  };
  std::vector<Exit> exits{};
  std::vector<std::size_t> epi_fixes{};  // rel32 patches to the epilogue
  std::size_t epilogue_off = 0;

  // --- the virtual operand stack ------------------------------------------
  //
  // vs_[d] says where operand depth d (caller coordinates; a spliced
  // callee's locals and operands sit above the call's arguments) lives
  // right now. Values reach their interpreter slots only when a block ends
  // (every branch and join flushes), before a helper or native call (the
  // conservative GC scan and reentrant hosts read slots), and in exit stubs,
  // which write back their own deopt map before committing sp/pc. Templates
  // pop operands into in_flight_ so exits raised mid-instruction still see
  // the pre-instruction stack — the interpreter re-executes it.
  std::vector<Val> vs_{};
  std::vector<Val> in_flight_{};
  std::uint32_t busy_ = 0;  // scratch registers holding a value
  bool falls_ = true;       // control can fall through into the next pc
  bool failed_ = false;     // a template could not be emitted: bail out
  // Pinned locals: pin_[s] holds caller local s for the whole function
  // (kNoReg: memory). Stored before every call and exit, reloaded after.
  std::vector<Reg> pin_{};
  std::vector<int> pinned_{};

  // --- leaf inlining (kCall) -----------------------------------------------
  //
  // A short leaf callee is spliced into the caller: its locals and operand
  // stack land exactly where its frame would have lived (local i -> caller
  // operand depth inl_local_base_ + i, operand j -> inl_op_bias_ + j), so
  // the templates and the virtual stack work unchanged in caller
  // coordinates — the arguments stay wherever the caller computed them. The
  // interpreter-identical depth, capacity, and stack-overflow checks run
  // first, but no frame is written on the hot path: an exit raised inside
  // the spliced region jumps to a stub that materializes the callee frame
  // (and the caller's resume pc) before deopting, so the interpreter picks
  // up at the exact callee instruction with the state a real call would
  // have produced.
  const FunctionCode* inl_fn_ = nullptr;  // non-null while splicing a callee
  BlockMap inl_{};                        // the callee being spliced
  std::vector<std::int64_t> inl_off_{};   // callee pc -> native offset
  std::vector<Fix> inl_fixes_{};          // intra-splice branches; target == n means "after the splice"
  int inl_local_base_ = -1;
  // Values a splice cannot change: the caller's operands below the
  // arguments and the callee locals it never writes. Constants and local
  // aliases among them, and up to two register values (frozen into rsi/rdi,
  // which the splice's templates then leave alone), keep their place
  // across the splice's joins and are never flushed; exits still write them
  // from their deopt maps. keep_[d].kind == kSlot: not kept.
  std::vector<Val> keep_{};
  std::uint32_t frozen_ = 0;
  int inl_op_bias_ = 0;
  std::int32_t inl_kk_ = 0;
  std::int32_t inl_ret_pc_ = 0;
  std::uint32_t cur_pc_ = 0;              // caller pc being compiled
  static constexpr std::size_t kInlineMaxInsns = 48;

  // Ops the splicer accepts: templates that touch only locals, globals, and
  // the operand stack, plus intra-function control flow and kRet/kRetVoid.
  // Exit-raising ops (division) are fine — their stubs materialize the
  // frame. Helper calls (allocation, calls, hosts) and object accesses stay
  // out.
  static bool InlinableOp(Op op) {
    switch (op) {
      case Op::kNop: case Op::kPop: case Op::kConstInt: case Op::kConstNull:
      case Op::kLoadLocal: case Op::kStoreLocal: case Op::kLoadGlobal:
      case Op::kStoreGlobal: case Op::kDup:
      case Op::kAddI: case Op::kSubI: case Op::kMulI: case Op::kAndI:
      case Op::kOrI: case Op::kXorI: case Op::kShlI: case Op::kShrI:
      case Op::kNegI: case Op::kNotI:
      case Op::kDivI: case Op::kModI: case Op::kDivNZ: case Op::kModNZ:
      case Op::kAddU: case Op::kSubU: case Op::kMulU: case Op::kShlU:
      case Op::kShrU: case Op::kNotU: case Op::kNotB:
      case Op::kDivU: case Op::kModU:
      case Op::kCastU32: case Op::kCastByte:
      case Op::kEqI: case Op::kNeI: case Op::kLtI: case Op::kLeI:
      case Op::kGtI: case Op::kGeI: case Op::kLtU: case Op::kLeU:
      case Op::kGtU: case Op::kGeU: case Op::kEqRef: case Op::kNeRef:
      case Op::kJmp: case Op::kJmpIfFalse: case Op::kJmpIfTrue:
      case Op::kRet: case Op::kRetVoid:
        return true;
      default:
        return false;
    }
  }
  // A superinstruction splices when every op of its expansion does.
  static bool Inlinable(const Insn& insn) {
    Insn ops[kMaxExpansion];
    const int n = Expand(insn, ops);
    return std::all_of(ops, ops + n, [](const Insn& op) { return InlinableOp(op.op); });
  }

  // Leaders (entry, branch targets, the insn after any ender), branch
  // targets, the block map, and the fuel-check plan, from a finished depth
  // analysis. False when reachable code has no leader (cannot happen for
  // verified code).
  bool MapBlocks(const FunctionCode& f, BlockMap& m) {
    const std::size_t n = f.code.size();
    const std::vector<int>& dep = m.depth;
    m.leader.assign(n, 0);
    m.target.assign(n, 0);
    std::vector<char>& check = m.check;
    check.assign(n, 0);
    m.leader[0] = check[0] = 1;
    for (std::size_t pc = 0; pc < n; ++pc) {
      if (dep[pc] < 0) continue;
      const Shape e = ShapeOf(program, f.code[pc]);
      const Op op = f.code[pc].op;
      if (IsBlockEnder(e, op) && pc + 1 < n) m.leader[pc + 1] = 1;
      if ((op == Op::kCall || op == Op::kCallHost) && pc + 1 < n) check[pc + 1] = 1;
      if (e.branch) {
        const auto to = static_cast<std::size_t>(BranchTarget(f.code[pc]));
        m.leader[to] = m.target[to] = 1;
        if (to <= pc) check[to] = 1;  // a loop head
      }
    }
    // Blocks: from each leader to its first ender (or the next leader, when
    // control falls through into one).
    m.blk_leader.assign(n, -1);
    m.blk_len.assign(n, 0);
    int lp = -1;
    for (std::size_t pc = 0; pc < n; ++pc) {
      if (dep[pc] < 0) {
        lp = -1;
        continue;
      }
      if (m.leader[pc]) lp = static_cast<int>(pc);
      if (lp < 0) return false;
      m.blk_leader[pc] = lp;
      m.blk_len[lp] = static_cast<int>(pc) - lp + 1;
      if (IsBlockEnder(ShapeOf(program, f.code[pc]), f.code[pc].op)) lp = -1;
    }
    // Every block that is not a check leader is reached from one through
    // forward edges alone, so runs are computed in reverse pc order.
    std::vector<int>& run = m.run;
    run.assign(n, 0);
    for (std::size_t pc = n; pc-- > 0;) {
      if (dep[pc] < 0 || !m.leader[pc]) continue;
      const std::size_t last = pc + static_cast<std::size_t>(m.blk_len[pc]) - 1;
      const Shape e = ShapeOf(program, f.code[last]);
      const auto next = [&](std::size_t q) {
        return q < n && q > last && dep[q] >= 0 && !check[q] ? run[q] : 0;
      };
      int tail = 0;
      if (!e.terminal) tail = next(last + 1);
      if (e.branch) {
        tail = std::max(tail, next(static_cast<std::size_t>(BranchTarget(f.code[last]))));
      }
      run[pc] = m.blk_len[pc] + tail;
    }
    return true;
  }

  // Operand depth per pc by forward propagation; false on any disagreement
  // with the verifier's stack discipline. `splice` additionally demands the
  // inlining whitelist and kRet/kRetVoid as the only terminals.
  bool Depths(const FunctionCode& f, std::vector<int>& dep, bool splice) {
    const std::size_t n = f.code.size();
    if (n == 0) return false;
    dep.assign(n, -1);
    std::vector<std::size_t> work;
    dep[0] = 0;
    work.push_back(0);
    while (!work.empty()) {
      const std::size_t pc = work.back();
      work.pop_back();
      const Insn& insn = f.code[pc];
      if (splice) {
        if (!Inlinable(insn)) return false;
        if (opts.jit_compile_filter && !opts.jit_compile_filter(insn.op)) return false;
      }
      const Shape e = ShapeOf(program, insn);
      if (splice && e.terminal && !e.branch && insn.op != Op::kRet && insn.op != Op::kRetVoid)
        return false;
      const int d = dep[pc];
      if (d < e.pops) return false;
      const int d2 = d - e.pops + e.pushes;
      if (d2 > f.max_stack || d2 > kMaxStack) return false;
      const auto propagate = [&](std::size_t q, int dq) {
        if (q >= n) return false;
        if (dep[q] == -1) {
          dep[q] = dq;
          work.push_back(q);
          return true;
        }
        return dep[q] == dq;
      };
      if (e.branch && !propagate(static_cast<std::size_t>(BranchTarget(insn)), d - e.pops))
        return false;
      if (!e.terminal && !propagate(pc + 1, d2)) return false;
    }
    return true;
  }

  bool Analyze() { return Depths(fn, m_.depth, false) && MapBlocks(fn, m_); }

  // True when `callee` is a splice candidate: short, every reachable insn
  // whitelisted (and not denied by the fuzzer's compile filter — those must
  // keep their forced-deopt seam), terminals only kRet/kRetVoid.
  bool PlanInline(const FunctionCode& callee, BlockMap& m) {
    return callee.code.size() <= kInlineMaxInsns && Depths(callee, m.depth, true) &&
           MapBlocks(callee, m);
  }

  // True when the instruction at pc branches backwards (closes a loop).
  bool IsBackEdge(std::size_t pc) const {
    return ShapeOf(program, fn.code[pc]).branch &&
           static_cast<std::size_t>(BranchTarget(fn.code[pc])) <= pc;
  }

  // --- pinned locals ---------------------------------------------------------
  //
  // Up to five locals live in registers for the whole function. A function
  // with loops ranks its locals by their static references inside loops (a
  // pc range closed by a back edge); a straight-line function by their
  // references anywhere. A local needs two references to earn a register.
  void ChoosePins() {
    const std::size_t n = fn.code.size();
    pin_.assign(static_cast<std::size_t>(fn.num_locals), kNoReg);
    std::vector<int> loop_edge(n + 1, 0);  // +1 at a loop head, -1 past its back edge
    bool loops = false;
    for (std::size_t pc = 0; pc < n; ++pc) {
      if (m_.depth[pc] >= 0 && IsBackEdge(pc)) {
        ++loop_edge[static_cast<std::size_t>(BranchTarget(fn.code[pc]))];
        --loop_edge[pc + 1];
        loops = true;
      }
    }
    std::vector<int> uses(pin_.size(), 0);
    int open = 0;
    for (std::size_t pc = 0; pc < n; ++pc) {
      open += loop_edge[pc];
      if ((loops && open <= 0) || m_.depth[pc] < 0) continue;
      Insn ops[kMaxExpansion];
      const int k = Expand(fn.code[pc], ops);
      for (int i = 0; i < k; ++i) {
        const std::int64_t s = ops[i].operand;
        if ((ops[i].op == Op::kLoadLocal || ops[i].op == Op::kStoreLocal) && s >= 0 &&
            s < fn.num_locals) {
          ++uses[static_cast<std::size_t>(s)];
        }
      }
    }
    std::vector<int> order;
    for (int s = 0; s < fn.num_locals; ++s) {
      if (uses[static_cast<std::size_t>(s)] >= 2) order.push_back(s);
    }
    std::stable_sort(order.begin(), order.end(), [&](int x, int y) {
      return uses[static_cast<std::size_t>(x)] > uses[static_cast<std::size_t>(y)];
    });
    for (std::size_t i = 0; i < order.size() && i < std::size(kPinRegs); ++i) {
      pin_[static_cast<std::size_t>(order[i])] = kPinRegs[i];
      pinned_.push_back(order[i]);
    }
  }
  Reg PinOf(int local) const { return pin_[static_cast<std::size_t>(local)]; }
  void StorePins() {
    for (const int s : pinned_) a.Store64(LOCALS, 8 * s, PinOf(s));
  }
  void LoadPins() {
    for (const int s : pinned_) a.Load64(PinOf(s), LOCALS, 8 * s);
  }

  // --- scratch registers -----------------------------------------------------
  static std::uint32_t Bit(Reg r) { return 1u << r; }
  int AbsSlot(std::size_t d) const { return fn.num_locals + static_cast<int>(d); }
  std::int32_t SlotDisp(std::size_t d) const { return 8 * AbsSlot(d); }

  // A free scratch register. With none free, the deepest register-held vs_
  // entry goes back to its slot (a plain store: flags survive).
  Reg Alloc() {
    for (const Reg r : kScratch) {
      if (((busy_ | frozen_) & Bit(r)) == 0) {
        busy_ |= Bit(r);
        return r;
      }
    }
    for (std::size_t d = 0; d < vs_.size(); ++d) {
      if (vs_[d].kind == Val::kReg && (frozen_ & Bit(vs_[d].reg)) == 0) {
        const Reg r = vs_[d].reg;
        a.Store64(LOCALS, SlotDisp(d), r);
        vs_[d] = Val::Slot(AbsSlot(d)).Numbered(vs_[d].vn);
        return r;  // stays busy: now the caller's
      }
    }
    failed_ = true;  // the template itself holds every register
    return RAX;
  }
  void Free(Reg r) { busy_ &= ~Bit(r); }
  void Release(const Val& v) {
    if (v.kind == Val::kReg) Free(v.reg);
  }
  // Claims one specific scratch register (division, shift counts). A vs_
  // value in it moves elsewhere; templates claim before popping operands,
  // so every holder is still on vs_.
  void Take(Reg r) {
    if ((busy_ & Bit(r)) == 0) {
      busy_ |= Bit(r);
      return;
    }
    for (Val& v : vs_) {
      if (v.kind == Val::kReg && v.reg == r) {
        const Reg n = Alloc();
        if (n != r) {  // n == r: Alloc spilled this very entry
          a.MovRR(n, r);
          v.reg = n;
        }
        return;
      }
    }
    failed_ = true;
  }

  // Emits r <- v (64 bits). Only moves, setcc and movzx: flags survive, so
  // this may run between a compare and its branch.
  void Load(Reg r, const Val& v) {
    switch (v.kind) {
      case Val::kReg:
        if (v.reg != r) a.MovRR(r, v.reg);
        break;
      case Val::kImm:
        a.MovImmAuto(r, v.imm);
        break;
      case Val::kCond:
        a.Setcc(v.cc, r);
        a.MovzxR32R8(r, r);
        break;
      case Val::kLocal:
        if (PinOf(v.slot) != kNoReg) {
          if (PinOf(v.slot) != r) a.MovRR(r, PinOf(v.slot));
          break;
        }
        a.Load64(r, LOCALS, 8 * v.slot);
        break;
      case Val::kSlot:
        a.Load64(r, LOCALS, 8 * v.slot);
        break;
    }
  }
  // A register holding v for reading: its own or a pinned local's, else a
  // fresh one (`temp` set: the caller frees it).
  Reg ReadReg(const Val& v, bool& temp) {
    temp = false;
    if (v.kind == Val::kReg) return v.reg;
    if (v.kind == Val::kLocal && PinOf(v.slot) != kNoReg) return PinOf(v.slot);
    temp = true;
    const Reg r = Alloc();
    Load(r, v);
    return r;
  }
  // A register the template may overwrite, holding in-flight operand i: the
  // operand's own register (DoneOps keeps it when it becomes the result) or
  // a fresh one.
  Reg TakeOp(std::size_t i) {
    if (in_flight_[i].kind == Val::kReg) return in_flight_[i].reg;
    const Reg r = Alloc();
    Load(r, in_flight_[i]);
    return r;
  }
  void Push(const Val& v) { vs_.push_back(v); }
  Val PopVal() {
    const Val v = vs_.back();
    vs_.pop_back();
    return v;
  }
  void Pops(std::size_t n) {
    in_flight_.assign(vs_.end() - static_cast<std::ptrdiff_t>(n), vs_.end());
    vs_.resize(vs_.size() - n);
  }
  void DoneOps(Reg keep = kNoReg) {
    for (const Val& v : in_flight_) {
      if (v.kind == Val::kReg && v.reg != keep) Free(v.reg);
    }
    in_flight_.clear();
  }

  // 64-bit store of v to [base + disp].
  void StoreVal(Reg base, std::int32_t disp, const Val& v) {
    if (v.kind == Val::kImm && FitsI32(v.imm)) {
      a.StoreImm32Sx(base, disp, static_cast<std::int32_t>(v.imm));
      return;
    }
    bool temp;
    const Reg r = ReadReg(v, temp);
    a.Store64(base, disp, r);
    if (temp) Free(r);
  }
  void FlushOne(std::size_t d) {
    const Val v = vs_[d];
    if (v.kind == Val::kSlot) return;
    StoreVal(LOCALS, SlotDisp(d), v);
    Release(v);
    vs_[d] = Val::Slot(AbsSlot(d)).Numbered(v.vn);
  }
  // Block end: every value to its interpreter slot. Moves only — flags
  // survive for a following jcc.
  void Flush() {
    for (std::size_t d = 0; d < vs_.size(); ++d) {
      if (!Kept(d)) FlushOne(d);
    }
  }
  bool Kept(std::size_t d) const { return d < keep_.size() && keep_[d].kind != Val::kSlot; }
  // Block entry at a join (or unreachable code): all values in memory but
  // a splice's kept values, which hold on every path.
  void ResetState(int n) {
    for (int d = 0; d < n; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      const Val v = Kept(ud) ? keep_[ud] : Val::Slot(AbsSlot(ud));
      if (ud < vs_.size()) {
        vs_[ud] = v;
      } else {
        vs_.push_back(v);
      }
    }
    vs_.resize(static_cast<std::size_t>(n));
    in_flight_.clear();
    busy_ = frozen_;
    ForgetValues();
  }

  // --- value numbering ------------------------------------------------------
  //
  // Within a block (everything is forgotten at a join), each value gets a
  // number from what computed it: a global load from {global, its store
  // generation, the call count}, a pure op from {op, operand numbers}, a
  // caller local from whatever was last written to it. A template about to
  // compute a number that some operand-stack entry already holds copies
  // that entry instead — a register move, or one load from its slot — so a
  // repeated global load, a repeated division (whose zero and overflow
  // checks ran the first time) or a repeated subexpression costs nothing.
  // A store to a global bumps its generation; every call, host call and
  // helper call bumps the call count, so no global value survives one.
  // Facts a check established about a value (non-null, element kind, field
  // count, an index in bounds, a division safe) are kept by number and
  // suppress the same check later in the block: object kind and length
  // never change, and the collector does not move objects. Reused values
  // are ordinary entries, so every exit's deopt map still writes them back.
  // The state is a handful of small flat vectors per block, copied at
  // every forward edge, so lookups are linear scans.
  enum VnKind : std::int64_t { kVnGlobal, kVnOp };
  struct Facts {
    bool nonnull = false;
    bool array = false;
    int elem = -1;            // proven element kind (TypeKind), -1 unknown
    std::int64_t fields = 0;  // a struct with at least this many fields
  };
  // What an operand is for numbering: a number, or a constant by value
  // (constants need no table). kNone: unnumbered.
  struct Ident {
    enum Tag : std::int64_t { kNone, kNumber, kConst };
    Tag tag;
    std::int64_t value;
    bool operator==(const Ident&) const = default;
  };
  static Ident IdOf(const Val& v) {
    if (v.kind == Val::kImm) return {Ident::kConst, v.imm};
    return {v.vn != 0 ? Ident::kNumber : Ident::kNone, v.vn};
  }
  // Checks passed over two operands: an index in bounds of an array, a
  // signed or an unsigned division.
  enum Proof : std::int64_t { kInBounds, kDivSafe, kDivUSafe };
  struct Proven {
    Ident x, y;
    Proof proof;
    bool operator==(const Proven&) const = default;
  };
  struct VnState {
    std::vector<std::pair<std::array<std::int64_t, 4>, std::uint32_t>> ids;
    std::vector<std::uint32_t> locals;  // caller local -> its value's number (0: none yet)
    std::vector<std::pair<std::uint32_t, Facts>> facts;
    std::vector<Proven> proven;
  };
  VnState vn_{};
  std::uint32_t next_vn_ = 1;
  std::vector<std::uint32_t> global_gen_{};  // global -> stores compiled so far
  std::int64_t calls_ = 0;                   // calls and helper calls compiled so far

  std::uint32_t Number(std::int64_t kind, std::int64_t x, std::int64_t y, std::int64_t z) {
    const std::array<std::int64_t, 4> key{kind, x, y, z};
    for (const auto& [k, n] : vn_.ids) {
      if (k == key) return n;
    }
    vn_.ids.emplace_back(key, next_vn_);
    return next_vn_++;
  }
  std::uint32_t Fresh() { return next_vn_++; }
  // The number of `op` over its operands (0 when one is unnumbered);
  // commutative ops sort their operands. The key's kind carries both
  // operands' tags, so a number and a constant never collide.
  std::uint32_t OpNumber(Op op, Ident x) {
    if (x.tag == Ident::kNone) return 0;
    return Number(kVnOp * 16 + x.tag, static_cast<std::int64_t>(op), x.value, 0);
  }
  std::uint32_t OpNumber(Op op, Ident x, Ident y, bool commutative) {
    if (x.tag == Ident::kNone || y.tag == Ident::kNone) return 0;
    if (commutative && std::pair(y.tag, y.value) < std::pair(x.tag, x.value)) std::swap(x, y);
    return Number(kVnOp * 16 + x.tag * 4 + y.tag, static_cast<std::int64_t>(op), x.value,
                  y.value);
  }
  // The depth of an entry below `limit` holding number n, or -1.
  int FindVn(std::uint32_t n, std::size_t limit) const {
    if (n == 0) return -1;
    for (std::size_t d = std::min(limit, vs_.size()); d-- > 0;) {
      if (vs_[d].vn == n && vs_[d].kind != Val::kCond) return static_cast<int>(d);
    }
    return -1;
  }
  // When an entry below the template's `pops` operands already holds
  // number n, the operands are consumed and a copy of that entry pushed.
  bool Reuse(std::uint32_t n, std::size_t pops) {
    const int d = FindVn(n, vs_.size() - pops);
    if (d < 0) return false;
    Pops(pops);
    DoneOps();
    Push(Copy(static_cast<std::size_t>(d)));
    return true;
  }
  // The facts about number n (null for an unnumbered value); the pointer
  // is good until the next call.
  Facts* FactsOf(std::uint32_t n) {
    if (n == 0) return nullptr;
    for (auto& [k, f] : vn_.facts) {
      if (k == n) return &f;
    }
    return &vn_.facts.emplace_back(n, Facts{}).second;
  }
  // True when `proof` already holds for {x, y}; records it either way (the
  // caller emits the check when it did not).
  bool Proved(Ident x, Ident y, Proof proof) {
    if (x.tag == Ident::kNone || y.tag == Ident::kNone) return false;
    const Proven key{x, y, proof};
    if (std::find(vn_.proven.begin(), vn_.proven.end(), key) != vn_.proven.end()) return true;
    vn_.proven.push_back(key);
    return false;
  }
  // What holds on both of two paths. Numbers are never reissued and the
  // generation and call counters only grow in compile order, so an entry
  // present in both states means the same value on both.
  static void Meet(VnState& into, const VnState& other) {
    std::erase_if(into.ids, [&](const auto& e) {
      return std::find(other.ids.begin(), other.ids.end(), e) == other.ids.end();
    });
    for (std::size_t s = 0; s < into.locals.size(); ++s) {
      if (into.locals[s] != other.locals[s]) into.locals[s] = 0;
    }
    std::erase_if(into.facts, [&](auto& e) {
      const auto it = std::find_if(other.facts.begin(), other.facts.end(),
                                   [&](const auto& o) { return o.first == e.first; });
      if (it == other.facts.end()) return true;
      Facts& f = e.second;
      f.nonnull = f.nonnull && it->second.nonnull;
      f.array = f.array && it->second.array;
      if (f.elem != it->second.elem) f.elem = -1;
      f.fields = std::min(f.fields, it->second.fields);
      return false;
    });
    std::erase_if(into.proven, [&](const Proven& e) {
      return std::find(other.proven.begin(), other.proven.end(), e) == other.proven.end();
    });
  }
  // A join whose predecessors all come before it (not a loop head) starts
  // from the meet of the states on its incoming edges; every other join
  // starts from nothing. Splices keep their joins to themselves.
  std::unordered_map<std::size_t, VnState> join_vn_{};
  std::vector<char> loop_head_{};
  // `last`: the block ends here (a fall-through into the join), so the
  // state may be moved rather than copied.
  void NoteEdge(std::size_t to, bool last = false) {
    if (inl_fn_ != nullptr || to <= cur_pc_) return;
    const auto it = join_vn_.find(to);
    if (it != join_vn_.end()) {
      Meet(it->second, vn_);
    } else if (last) {
      join_vn_.emplace(to, std::move(vn_));
      vn_.locals.assign(static_cast<std::size_t>(fn.num_locals), 0);
    } else {
      join_vn_.emplace(to, vn_);
    }
  }
  void JoinValues(std::size_t pc) {
    const auto it = join_vn_.find(pc);
    if (it == join_vn_.end()) return;
    if (!loop_head_[pc]) vn_ = std::move(it->second);
    join_vn_.erase(it);
  }
  void ForgetValues() {
    vn_.ids.clear();
    vn_.facts.clear();
    vn_.proven.clear();
    std::fill(vn_.locals.begin(), vn_.locals.end(), 0);
  }
  // Calls, host calls and helpers may write any global (a host through
  // reentry or SetGlobal).
  void ClobberGlobals() { ++calls_; }

  // --- locals and globals ----------------------------------------------------
  // A caller local reads as an alias (no code); a spliced callee's local is
  // an operand slot of the caller, so reading it copies that entry.
  Val ReadLocal(std::int64_t s) {
    if (inl_fn_ == nullptr) {
      std::uint32_t& n = vn_.locals[static_cast<std::size_t>(s)];
      if (n == 0) n = Fresh();
      return Val::Local(static_cast<int>(s)).Numbered(n);
    }
    return Copy(static_cast<std::size_t>(inl_local_base_ + s));
  }
  // A second value equal to vs_[d]: constants and aliases are shared,
  // registers and slots copied into a fresh register.
  Val Copy(std::size_t d) {
    if (vs_[d].kind != Val::kReg && vs_[d].kind != Val::kSlot) return vs_[d];
    const Reg r = Alloc();
    Load(r, vs_[d]);  // after Alloc: it may have spilled this very entry
    return Val::InReg(r).Numbered(vs_[d].vn);
  }
  // Takes ownership of v.
  void WriteLocal(std::int64_t s, Val v) {
    if (inl_fn_ != nullptr) {
      const std::size_t d = static_cast<std::size_t>(inl_local_base_ + s);
      if (v.kind == Val::kSlot || v.kind == Val::kCond) {  // a dying slot / the flags
        const Reg r = Alloc();
        Load(r, v);
        v = Val::InReg(r).Numbered(v.vn);
      }
      Release(vs_[d]);
      vs_[d] = v;
      return;
    }
    const int slot = static_cast<int>(s);
    for (std::size_t d = 0; d < vs_.size(); ++d) {  // aliases keep the old value
      if (vs_[d].kind == Val::kLocal && vs_[d].slot == slot) FlushOne(d);
    }
    if (PinOf(slot) != kNoReg) {
      Load(PinOf(slot), v);
    } else {
      StoreVal(LOCALS, 8 * slot, v);
    }
    Release(v);
    vn_.locals[static_cast<std::size_t>(slot)] = v.vn;
  }
  Val ReadGlobal(std::int64_t g) {
    const std::uint32_t n =
        Number(kVnGlobal, g, global_gen_[static_cast<std::size_t>(g)], calls_);
    const int d = FindVn(n, vs_.size());
    if (d >= 0) return Copy(static_cast<std::size_t>(d));
    const Reg r = Alloc();
    a.Load64(r, GLB, static_cast<std::int32_t>(8 * g));
    return Val::InReg(r).Numbered(n);
  }

  // --- side exits ----------------------------------------------------------
  // Every exit funnels through here so splice-mode exits pick up the frame
  // to materialize; pc and depth are callee-relative while inl_fn_ is set.
  // A re-executing exit snapshots the deopt map: the pre-instruction stack
  // is vs_ plus the operands the template has popped.
  void PushExit(std::size_t at, std::size_t pc, int d, bool reexec, std::int64_t give) {
    Exit e{at, static_cast<std::uint32_t>(pc), d, reexec, give, inl_fn_, inl_kk_,
           inl_ret_pc_, cur_pc_, {}};
    if (reexec) {
      const int bias = inl_fn_ != nullptr ? inl_op_bias_ : 0;
      if (vs_.size() + in_flight_.size() != static_cast<std::size_t>(bias + d)) failed_ = true;
      for (std::size_t i = 0; i < vs_.size() + in_flight_.size(); ++i) {
        const Val& v = i < vs_.size() ? vs_[i] : in_flight_[i - vs_.size()];
        if (v.kind == Val::kCond) failed_ = true;  // flags never outlive their insn
        if (v.kind != Val::kSlot) e.map.emplace_back(static_cast<int>(i), v);
      }
    }
    exits.push_back(std::move(e));
  }
  const BlockMap& Map() const { return inl_fn_ != nullptr ? inl_ : m_; }
  void AddExit(std::size_t at, std::size_t pc, bool reexec) {
    const BlockMap& m = Map();
    const int lp = m.blk_leader[pc];
    const std::int64_t e = static_cast<std::int64_t>(pc) - lp;
    const std::int64_t run = m.run[static_cast<std::size_t>(lp)];
    const std::int64_t give = reexec ? run - e : run - e - 1;
    PushExit(at, pc, m.depth[pc], reexec, give);
  }
  // Conditional/unconditional jumps into a deopt-and-reexecute stub: the
  // interpreter resumes at `pc` and re-runs the faulting instruction, so the
  // trap message and unwind path are the interpreter's own.
  void JccExit(Cc cc, std::size_t pc) { AddExit(a.Jcc(cc), pc, true); }
  void JmpExit(std::size_t pc) { AddExit(a.Jmp(), pc, true); }
  // Exception passthrough: a helper already captured the exception and left
  // its status in eax; the stub only fixes the ledgers.
  void JccExcExit(Cc cc, std::size_t pc) { AddExit(a.Jcc(cc), pc, false); }

  // --- branch targets ------------------------------------------------------
  // While splicing, branch targets are callee pcs resolved against the
  // splice's own offset table (a target equal to the callee length means
  // "after the splice" — where kRet lands).
  void JmpPc(std::size_t to) {
    NoteEdge(to);
    (inl_fn_ != nullptr ? inl_fixes_ : fixes).push_back({a.Jmp(), to});
  }
  void JccPc(Cc cc, std::size_t to) {
    NoteEdge(to);
    (inl_fn_ != nullptr ? inl_fixes_ : fixes).push_back({a.Jcc(cc), to});
  }

  // Commits st->sp = frame->base + num_locals + d.
  void CommitSp(int d) {
    a.Load64(RAX, FRM, F.base);
    const std::int32_t add = fn.num_locals + d;
    if (add != 0) a.AluImm(ALU_ADD, RAX, add);
    a.Store64(CTX, S.sp, RAX);
  }

  void SetFramePc(std::size_t pc) {
    a.StoreImm32Sx(FRM, F.pc, static_cast<std::int32_t>(pc));
  }

  void CallHelper(const void* helper) {
    a.MovImm64(RAX, reinterpret_cast<std::uint64_t>(helper));
    a.CallR(RAX);
  }

  // Fuel, against the fuel register, charged ahead. A check leader
  // compares fuel against the longest run to the next check leader and
  // deopts there, uncharged, if it could run out on the way — the
  // interpreter then meters insn by insn and throws "fuel exhausted" at the
  // exact instruction an interpreted run would, or finishes if the path
  // taken was shorter. Otherwise it charges that whole run at once. The
  // invariant: at the start of any block, r15 = exact fuel - run[block];
  // an edge to a successor with a shorter run gives the difference back
  // (Slack), and an exit gives back the run not executed. Calls and
  // returns end blocks whose run is their own length, so r15 is exact
  // wherever the ledgers are published. Unlimited runs carry the bias
  // constant, which no real program can exhaust. The retired ledger needs
  // no instruction of its own: it is derived from the same register.
  void EmitBlockAccounting(std::size_t lp) {
    const BlockMap& m = Map();
    if (!m.check[lp]) return;
    a.AluImm(ALU_CMP, FUEL, m.run[lp]);
    PushExit(a.Jcc(CC_L), lp, m.depth[lp], true, 0);
    a.AluImm(ALU_SUB, FUEL, m.run[lp]);
  }
  // The fuel given back on the edge from `from`'s block to leader `to`.
  std::int32_t Slack(std::size_t from, std::size_t to) const {
    const BlockMap& m = Map();
    const auto lp = static_cast<std::size_t>(m.blk_leader[from]);
    const int next = to < m.run.size() && !m.check[to] ? m.run[to] : 0;
    return m.run[lp] - m.blk_len[lp] - next;
  }
  void GiveFuel(std::int32_t n) {  // lea: the flags of a pending jcc survive
    if (n != 0) a.Lea(FUEL, FUEL, n);
  }

  // The retired ledger lives in r15 too: fuel and retired move in lockstep
  // (every charge and every give-back touches both by the same amount), so
  // the prologue parks base = st->retired + r15 in the frame's spare [rsp]
  // slot and retired = base - r15 anywhere. Published at the epilogue and
  // before calls; re-based after, since a callee or host moved both.
  void EmitRetiredPublish() {  // clobbers rcx and flags
    a.Load64(RCX, RSP, 0);
    a.SubRR(RCX, FUEL);
    a.Store64(CTX, S.retired, RCX);
  }
  void EmitRetiredRebase() {  // clobbers rcx and flags
    a.Load64(RCX, CTX, S.retired);
    a.AddRR(RCX, FUEL);
    a.Store64(RSP, 0, RCX);
  }
  // st->fuel <- r15 unless unlimited (the stored sentinel stays negative),
  // st->retired <- its derived value. Clobbers rax, rcx and flags.
  void EmitFuelSync() {
    EmitRetiredPublish();
    a.Load64(RAX, CTX, S.fuel);
    a.TestRR(RAX, RAX);
    const std::size_t unlimited = a.Jcc8(CC_S);
    a.Store64(CTX, S.fuel, FUEL);
    a.PatchRel8(unlimited, a.pos());
  }
  // r15 <- st->fuel (biased when unlimited), then re-base the ledger.
  // Touches only r15, rcx and flags, so call sites may run it before
  // testing a helper's status (eax) and result (rdx).
  void EmitFuelReload() {
    a.Load64(FUEL, CTX, S.fuel);
    a.TestRR(FUEL, FUEL);
    const std::size_t limited = a.Jcc8(CC_NS);
    a.MovImm64(FUEL, kFuelUnlimitedBias);
    a.PatchRel8(limited, a.pos());
    EmitRetiredRebase();
  }

  // The prologue pushes the function's own frame — the interpreter's
  // PushFrame, inlined with its checks folded: the depth limit and the
  // reentry slack are one compare against st->frame_limit, the stack room
  // one compare of sp against an immediate. A failed check leaves through
  // the no-frame stub before anything is written, and the caller (the
  // runner, or a native kCall site re-executing in the interpreter) gets
  // the interpreter's own trap. The arguments already sit below sp and
  // become the first locals; pinned locals are loaded (parameters) or
  // zeroed in their registers, the rest are nulled in memory.
  std::vector<std::size_t> no_frame_fixes_{};  // rel32 patches to the no-frame stub
  void EmitPrologue() {
    const int np = fn.num_params;
    const int nl = fn.num_locals;
    a.Push(RBP);
    a.Push(RBX);
    a.Push(R12);
    a.Push(R13);
    a.Push(R14);
    a.Push(R15);
    a.AluImm(ALU_SUB, RSP, 24);  // ledger base, splice flag; keeps rsp 16-aligned at calls
    a.MovRR(CTX, RDI);
    a.Load64(RAX, CTX, S.nframes);
    a.CmpRM(RAX, CTX, S.frame_limit);
    no_frame_fixes_.push_back(a.Jcc(CC_AE));  // call depth limit exceeded
    a.Load64(RCX, CTX, S.sp);
    // base + num_locals + max_stack > stack_slots, with base = sp - num_params.
    const std::int64_t room = static_cast<std::int64_t>(stack_slots) - nl - fn.max_stack + np;
    if (room < 0) {
      no_frame_fixes_.push_back(a.Jmp());
    } else if (FitsI32(room)) {
      a.AluImm(ALU_CMP, RCX, static_cast<std::int32_t>(room));
    } else {
      a.MovImm64(RDX, static_cast<std::uint64_t>(room));
      a.CmpRR(RCX, RDX);
    }
    no_frame_fixes_.push_back(a.Jcc(CC_A));  // VM stack overflow
    a.ImulImm(FRM, RAX, F.size);
    a.AddRM(FRM, CTX, S.frames);  // rbp = &frames[nframes]
    a.MovImm64(RDX, reinterpret_cast<std::uint64_t>(&fn));
    a.Store64(FRM, F.fn, RDX);
    a.StoreImm32Sx(FRM, F.pc, 0);
    if (np != 0) a.AluImm(ALU_SUB, RCX, np);
    a.Store64(FRM, F.base, RCX);  // rcx = base from here on
    a.Lea(RAX, RAX, 1);
    a.Store64(CTX, S.nframes, RAX);
    a.Load64(RDX, CTX, S.stack);
    a.LeaSib(LOCALS, RDX, RCX, 3, 0);  // r13 = stack + 8*base
    a.Load64(GLB, CTX, S.globals);
    if (std::any_of(fn.code.begin(), fn.code.end(),
                    [](const Insn& i) { return i.op == Op::kCall; })) {
      EmitSpliceFlag();
    }
    if (nl - np > 16) {
      a.XorRR32(RAX, RAX);
      a.Lea(RDI, LOCALS, 8 * np);
      a.MovImm32(RCX, static_cast<std::uint32_t>(nl - np));
      a.U8(0xF3);  // rep stosq
      a.U8(0x48);
      a.U8(0xAB);
    } else {
      for (int i = np; i < nl; ++i) {
        if (PinOf(i) == kNoReg) a.StoreImm32Sx(LOCALS, 8 * i, 0);
      }
    }
    for (const int s : pinned_) {
      if (s < np) {
        a.Load64(PinOf(s), LOCALS, 8 * s);
      } else {
        a.XorRR32(PinOf(s), PinOf(s));  // its slot is written before anyone reads it
      }
    }
    EmitFuelReload();
  }

  // A spliced call writes no frame, but the interpreter's PushFrame checks
  // (depth limit, reentry slack, stack room) must still hold. Their inputs
  // — nframes and frame->base — are fixed for the whole activation, so the
  // prologue evaluates them once against the tightest stack limit of any
  // splice site (patched in once every site is known) and parks the verdict
  // at [rsp+8]; each site tests it and re-executes its kCall in the
  // interpreter when it is clear, which traps exactly or, for a site with
  // a looser limit, simply performs the call. Runs with rax = nframes
  // (this frame included) and rcx = frame->base.
  std::size_t splice_limit_at_ = 0;
  std::int64_t splice_limit_ = INT32_MAX;
  void EmitSpliceFlag() {
    a.CmpRM(RAX, CTX, S.frame_limit);
    const std::size_t deep = a.Jcc8(CC_AE);
    a.U8(0x48);  // cmp rcx, imm32 (long form, patched once every site is known)
    a.U8(0x81);
    a.ModReg(ALU_CMP, RCX);
    splice_limit_at_ = a.pos();
    a.U32(0);
    const std::size_t high = a.Jcc8(CC_A);
    a.StoreImm32Sx(RSP, 8, 1);
    const std::size_t done = a.Jmp8();
    a.PatchRel8(deep, a.pos());
    a.PatchRel8(high, a.pos());
    a.StoreImm32Sx(RSP, 8, 0);
    a.PatchRel8(done, a.pos());
  }

  void EmitEpilogue() {
    epilogue_off = a.pos();
    // Every exit funnels through here, so one ledger sync covers them all.
    // rcx is dead on all paths; rax carries the exit status and rdx a
    // returned value, and both are preserved.
    EmitRetiredPublish();
    a.Load64(RCX, CTX, S.fuel);
    a.TestRR(RCX, RCX);
    const std::size_t unlimited = a.Jcc8(CC_S);
    a.Store64(CTX, S.fuel, FUEL);
    a.PatchRel8(unlimited, a.pos());
    const auto restore = [&] {
      a.AluImm(ALU_ADD, RSP, 24);
      a.Pop(R15);
      a.Pop(R14);
      a.Pop(R13);
      a.Pop(R12);
      a.Pop(RBX);
      a.Pop(RBP);
      a.Ret();
    };
    restore();
    // The prologue's frame checks failed: nothing was written, no ledger
    // moved.
    for (const std::size_t at : no_frame_fixes_) a.PatchRel32(at, a.pos());
    a.MovImm32(RAX, kJitNoFrame);
    restore();
  }

  void EmitStubs() {
    for (const Exit& e : exits) {
      a.PatchRel32(e.at, a.pos());
      pc_map.emplace_back(static_cast<std::uint32_t>(a.pos()), e.caller_pc);
      if (e.reexec) {
        // The deopt map: registers first (rax may hold one), then the
        // pinned locals, then constants and local aliases through rax.
        for (const auto& [d, v] : e.map) {
          if (v.kind == Val::kReg) a.Store64(LOCALS, SlotDisp(static_cast<std::size_t>(d)), v.reg);
        }
        StorePins();
        for (const auto& [d, v] : e.map) {
          if (v.kind == Val::kReg) continue;
          Load(RAX, v);
          a.Store64(LOCALS, SlotDisp(static_cast<std::size_t>(d)), RAX);
        }
      }
      if (e.reexec && e.inl_callee != nullptr) {
        // The exit fired inside a spliced callee whose frame was never
        // pushed. Materialize it now — fn/pc/base at frames[nframes], the
        // caller's resume pc, sp inside the callee — so the interpreter
        // resumes at callee pc `e.pc` exactly as if kCall had run. The
        // kCall-entry checks already proved frames[nframes] is in bounds,
        // and the splice region makes no calls, so nframes is unchanged.
        a.Load64(RAX, FRM, F.base);
        a.Lea(RDX, RAX, e.inl_kk);  // callee base (slot units)
        a.Load64(RCX, CTX, S.nframes);
        a.ImulImm(RSI, RCX, F.size);
        a.AddRM(RSI, CTX, S.frames);
        a.MovImm64(RDI, reinterpret_cast<std::uint64_t>(e.inl_callee));
        a.Store64(RSI, F.fn, RDI);
        a.StoreImm32Sx(RSI, F.pc, static_cast<std::int32_t>(e.pc));
        a.Store64(RSI, F.base, RDX);
        a.Lea(RCX, RCX, 1);
        a.Store64(CTX, S.nframes, RCX);
        a.StoreImm32Sx(FRM, F.pc, e.inl_ret_pc);
        a.Lea(RDX, RDX, e.inl_callee->num_locals + e.depth);
        a.Store64(CTX, S.sp, RDX);
      } else if (e.reexec) {
        CommitSp(e.depth);
        SetFramePc(e.pc);
      }
      if (e.give > 0) {
        // Adding to the biased constant is harmless on unlimited runs; the
        // epilogue sync drops the register either way.
        a.AluImm(ALU_ADD, FUEL, static_cast<std::int32_t>(e.give));
      }
      if (e.reexec) a.MovImm32(RAX, kJitDeopt);
      epi_fixes.push_back(a.Jmp());
    }
  }

  bool EmitInsn(std::size_t pc);  // jit_emit_x64.inc
  bool EmitOp(std::size_t pc, const Insn& insn);  // jit_emit_x64.inc
  bool EmitSplice(std::size_t pc, const FunctionCode& callee, BlockMap plan);  // jit_emit_x64.inc

  // Block entry bookkeeping shared by the function body and splices: a
  // join starts from memory (predecessors disagree on where values are), a
  // fall-through-only leader keeps the state it inherits.
  void EnterPc(bool is_leader, bool is_target, int d) {
    if (is_leader && is_target) {
      if (falls_) Flush();
      ResetState(d);
    } else if (!falls_) {
      ResetState(d);  // unreachable by fall-through: any consistent state
    }
    falls_ = true;
  }

  bool Compile() {
    if (!Analyze()) return false;
    ChoosePins();
    const std::size_t n = fn.code.size();
    vn_.locals.assign(static_cast<std::size_t>(fn.num_locals), 0);
    global_gen_.assign(program.globals.size(), 0);
    loop_head_.assign(n, 0);
    for (std::size_t pc = 0; pc < n; ++pc) {
      if (m_.depth[pc] >= 0 && IsBackEdge(pc)) {
        loop_head_[static_cast<std::size_t>(BranchTarget(fn.code[pc]))] = 1;
      }
    }
    pc_off.assign(n, -1);
    a.code.reserve(32 * n + 512);  // templates average well under this per insn
    pc_map.emplace_back(0, 0);
    EmitPrologue();
    for (std::size_t pc = 0; pc < n; ++pc) {
      if (m_.depth[pc] < 0) continue;
      if (m_.leader[pc] && falls_ && pc > 0) GiveFuel(Slack(cur_pc_, pc));
      const bool join = m_.leader[pc] && m_.target[pc];
      if (join && falls_) NoteEdge(pc, /*last=*/true);  // the fall-through edge
      cur_pc_ = static_cast<std::uint32_t>(pc);
      EnterPc(m_.leader[pc], m_.target[pc], m_.depth[pc]);
      if (join) JoinValues(pc);
      pc_off[pc] = static_cast<std::int64_t>(a.pos());
      pc_map.emplace_back(static_cast<std::uint32_t>(a.pos()), cur_pc_);
      if (m_.leader[pc]) EmitBlockAccounting(pc);
      if (opts.jit_compile_filter && !opts.jit_compile_filter(fn.code[pc].op)) {
        // Filter-denied op (the fuzzer's forced-deopt mode): hand the rest
        // of this function to the interpreter right here.
        JmpExit(pc);
        falls_ = false;
        continue;
      }
      if (!EmitInsn(pc) || failed_) return false;
    }
    EmitEpilogue();
    EmitStubs();
    for (const auto& fix : fixes) {
      if (pc_off[fix.pc] < 0) return false;
      a.PatchRel32(fix.at, static_cast<std::size_t>(pc_off[fix.pc]));
    }
    for (const std::size_t at : epi_fixes) {
      a.PatchRel32(at, epilogue_off);
    }
    if (splice_limit_at_ != 0) a.PatchU32(splice_limit_at_, static_cast<std::uint32_t>(splice_limit_));
    return !failed_;
  }
};

#include "src/minnow/jit_emit_x64.inc"

}  // namespace
}  // namespace

// ---------------------------------------------------------------------------
// Jit::Impl — the load-time driver. A member of Jit, so it sees VM's private
// Frame (Jit is a friend) and the jit's own private state.
// ---------------------------------------------------------------------------

struct Jit::Impl {
  static std::unique_ptr<Jit> Build(VM& vm) {
    Program& program = vm.program_;
    const VmOptions& opts = vm.options_;
    // Verify-then-compile: native code is emitted only for bytecode that
    // passed the load-time verifier in this exact form (the eBPF contract).
    // VerifyProgram also fills max_stack, which the depth analysis bounds
    // against.
    const VerifyReport report = VerifyProgram(program);
    if (!report.ok) {
      return nullptr;
    }

    std::unique_ptr<Jit> jit(new Jit());
    const std::size_t nfns = program.functions.size();
    jit->compiled_.assign(nfns, false);
    jit->names_.assign(nfns, nullptr);
    for (std::size_t i = 0; i < nfns; ++i) {
      jit->names_[i] = program.functions[i].name.c_str();
    }
    // Sized once, never resized: kCall sites bake &entries_[i] into code.
    jit->entries_.assign(nfns, nullptr);

    // Shared trampoline: an uncompiled callee pushes no frame, and the
    // calling kCall site re-executes in the interpreter, which runs it.
    Asm tramp;
    tramp.MovImm32(RAX, kJitNoFrame);
    tramp.Ret();

    const auto align16 = [](std::size_t n) { return (n + 15) & ~std::size_t{15}; };
    std::size_t total = align16(tramp.code.size());

    struct Unit {
      int fn;
      std::vector<std::uint8_t> code;
      std::vector<std::pair<std::uint32_t, std::uint32_t>> pcs;
    };
    std::vector<Unit> units;
    for (std::size_t fi = 0; fi < nfns; ++fi) {
      const FunctionCode& f = program.functions[fi];
      if (f.code.size() > opts.jit_max_fn_insns) {
        ++jit->stats_.bailouts;
        continue;
      }
      Compiler c{program,
                 f,
                 opts,
                 jit->entries_.data(),
                 reinterpret_cast<const void*>(&Jit::HelpCallHost),
                 reinterpret_cast<const void*>(&Jit::HelpNewStruct),
                 reinterpret_cast<const void*>(&Jit::HelpNewArray),
                 vm.stack_slots_};
      if (!c.Compile()) {
        ++jit->stats_.bailouts;
        continue;
      }
      const std::size_t sz = align16(c.a.code.size());
      if (total + sz > opts.jit_arena_max) {
        ++jit->stats_.bailouts;  // arena budget: the functions that fit stay native
        continue;
      }
      total += sz;
      units.push_back({static_cast<int>(fi), std::move(c.a.code), std::move(c.pc_map)});
    }
    if (units.empty()) {
      return nullptr;
    }

    // W^X: map writable, stitch, then flip to read+execute for good.
    void* mem = mmap(nullptr, total, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) {
      return nullptr;
    }
    auto* base = static_cast<std::uint8_t*>(mem);
    std::memcpy(base, tramp.code.data(), tramp.code.size());
    for (std::size_t i = 0; i < nfns; ++i) {
      jit->entries_[i] = base;  // trampoline until proven compiled
    }
    std::size_t off = align16(tramp.code.size());
    for (Unit& u : units) {
      std::memcpy(base + off, u.code.data(), u.code.size());
      jit->units_.push_back({reinterpret_cast<std::uintptr_t>(base + off), u.code.size(), u.fn,
                             std::move(u.pcs)});
      jit->entries_[static_cast<std::size_t>(u.fn)] = base + off;
      jit->compiled_[static_cast<std::size_t>(u.fn)] = true;
      ++jit->stats_.compiled_fns;
      jit->stats_.bytes += u.code.size();
      off += align16(u.code.size());
    }
    // Debugging seam: GRAFTLAB_JIT_DUMP=<path-prefix> writes each unit as a
    // raw code blob (objdump -D -b binary -m i386:x86-64 disassembles it)
    // and appends perf-map lines to <path-prefix>.map — with the prefix
    // /tmp/perf-<pid>, perf report names jitted code minnow:<function>.
    if (const char* dump = std::getenv("GRAFTLAB_JIT_DUMP")) {
      if (std::FILE* map = std::fopen((std::string(dump) + ".map").c_str(), "a")) {
        for (const UnitMap& u : jit->units_) {
          std::fprintf(map, "%lx %zx minnow:%s\n", static_cast<unsigned long>(u.start), u.size,
                       program.functions[static_cast<std::size_t>(u.fn)].name.c_str());
        }
        std::fclose(map);
      }
      std::size_t doff = align16(tramp.code.size());
      for (const Unit& u : units) {
        const std::string path =
            std::string(dump) + ".fn" + std::to_string(u.fn) + ".bin";
        if (std::FILE* f = std::fopen(path.c_str(), "wb")) {
          std::fwrite(base + doff, 1, u.code.size(), f);
          std::fclose(f);
          std::fprintf(stderr, "jit dump: fn %d (%zu insns, %zu bytes) -> %s\n", u.fn,
                       program.functions[static_cast<std::size_t>(u.fn)].code.size(),
                       u.code.size(), path.c_str());
        }
        doff += align16(u.code.size());
      }
    }
    if (mprotect(mem, total, PROT_READ | PROT_EXEC) != 0) {
      munmap(mem, total);
      return nullptr;
    }
    jit->arena_ = base;
    jit->arena_size_ = total;
    return jit;
  }
};

// ---------------------------------------------------------------------------
// Out-of-line helpers. Called from native code with the SysV ABI; every
// exception is captured here (native frames carry no unwind tables, so C++
// exceptions must never cross them) and rethrown by the runner.
// ---------------------------------------------------------------------------

// Native code committed sp (the conservative root scan reads it), the frame
// pc, and exact ledgers (fuel() / instructions_retired(), which a host may
// read or a reentrant Call extend) into the shared ExecState before calling
// any of these; they work on it directly.

JitResult Jit::HelpNewStruct(ExecState* st, std::uint64_t struct_idx) {
  VM& vm = *st->vm;
  try {
    const auto& layout = vm.program_.structs[struct_idx];
    vm.MaybeCollect(static_cast<std::size_t>(layout.num_fields) * 8 + 64);
    Object* object = vm.heap_.NewStruct(layout, static_cast<int>(struct_idx));
    return {0, reinterpret_cast<std::uint64_t>(object)};
  } catch (...) {
    vm.jit_pending_ = std::current_exception();
    return {kJitException, 0};
  }
}

JitResult Jit::HelpNewArray(ExecState* st, std::uint64_t elem, std::uint64_t length) {
  VM& vm = *st->vm;
  try {
    vm.MaybeCollect(static_cast<std::size_t>(length) * 8 + 64);
    Object* object =
        vm.heap_.NewArray(static_cast<TypeKind>(elem), static_cast<std::size_t>(length));
    return {0, reinterpret_cast<std::uint64_t>(object)};
  } catch (...) {
    vm.jit_pending_ = std::current_exception();
    return {kJitException, 0};
  }
}

JitResult Jit::HelpCallHost(ExecState* st, std::uint64_t import_idx) {
  VM& vm = *st->vm;
  const auto& import = vm.program_.host_imports[import_idx];
  const auto& host = vm.hosts_[import_idx];
  if (!host) {
    return {kJitDeopt, 0};  // unbound: deopt so the interpreter throws its trap
  }
  try {
    const Value ret =
        host(vm, std::span<const Value>(st->stack + st->sp, static_cast<std::size_t>(import.arity)));
    return {0, ret.bits};
  } catch (...) {
    vm.jit_pending_ = std::current_exception();
    return {kJitException, 0};
  }
}

// ---------------------------------------------------------------------------
// Public surface (x86-64 build).
// ---------------------------------------------------------------------------

bool Jit::Available() { return true; }

std::unique_ptr<Jit> Jit::Compile(VM& vm) { return Impl::Build(vm); }

Jit::~Jit() {
  if (arena_ != nullptr) {
    munmap(arena_, arena_size_);
  }
}

JitLocation Jit::Resolve(const void* native_pc) const {
  const auto at = reinterpret_cast<std::uintptr_t>(native_pc);
  const auto unit = std::upper_bound(
      units_.begin(), units_.end(), at,
      [](std::uintptr_t x, const UnitMap& u) { return x < u.start; });
  if (unit == units_.begin()) return {};
  const UnitMap& u = *(unit - 1);
  if (at >= u.start + u.size) return {};
  const auto off = static_cast<std::uint32_t>(at - u.start);
  const auto entry = std::upper_bound(
      u.pcs.begin(), u.pcs.end(), off,
      [](std::uint32_t x, const std::pair<std::uint32_t, std::uint32_t>& e) { return x < e.first; });
  return {u.fn, entry == u.pcs.begin() ? 0 : (entry - 1)->second};
}

const char* Jit::FunctionName(int fn) const {
  return fn >= 0 && static_cast<std::size_t>(fn) < names_.size()
             ? names_[static_cast<std::size_t>(fn)]
             : nullptr;
}

#else  // !GRAFTLAB_JIT_X64

// ---------------------------------------------------------------------------
// Portable fallback: the header compiles everywhere, Available() reports
// false, and VmOptions::dispatch = kJit falls back to the interpreter.
// ---------------------------------------------------------------------------

bool Jit::Available() { return false; }

std::unique_ptr<Jit> Jit::Compile(VM&) { return nullptr; }

Jit::~Jit() = default;

JitLocation Jit::Resolve(const void*) const { return {}; }

const char* Jit::FunctionName(int) const { return nullptr; }

JitResult Jit::HelpNewStruct(ExecState*, std::uint64_t) { return {kJitDeopt, 0}; }
JitResult Jit::HelpNewArray(ExecState*, std::uint64_t, std::uint64_t) { return {kJitDeopt, 0}; }
JitResult Jit::HelpCallHost(ExecState*, std::uint64_t) { return {kJitDeopt, 0}; }

#endif  // GRAFTLAB_JIT_X64

}  // namespace minnow
