// Unit tests for the check-elision verifier (src/minnow/elide.h).
//
// Three layers: the fact lattice itself (join at merges, widening at loop
// heads), the certificate handshake (VerifyProgram refuses unchecked
// opcodes whose proof is missing or stale; every VM, interpreted or jitted,
// refuses a stale one),
// and precision pinning — golden DumpElision listings for the three paper
// grafts, so a change that silently loses (or unsoundly gains) elisions
// fails loudly with a readable diff.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/grafts/minnow_grafts.h"
#include "src/minnow/bytecode.h"
#include "src/minnow/compiler.h"
#include "src/minnow/elide.h"
#include "src/minnow/sema.h"
#include "src/minnow/verifier.h"
#include "src/minnow/vm.h"

namespace {

using minnow::AbsVal;
using minnow::Compile;
using minnow::ElideChecks;
using minnow::ElisionCertificateValid;
using minnow::ElisionCodeHash;
using minnow::HostDecl;
using minnow::Join;
using minnow::Op;
using minnow::Program;
using minnow::Trap;
using minnow::Type;
using minnow::Value;
using minnow::VM;
using minnow::VmOptions;
using minnow::Widen;

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

// --- The lattice ---------------------------------------------------------

TEST(ElideLattice, JoinTakesTheRangeHull) {
  const AbsVal j = Join(AbsVal::Range(1, 5), AbsVal::Range(3, 9));
  EXPECT_EQ(j.lo, 1);
  EXPECT_EQ(j.hi, 9);
  EXPECT_TRUE(j.nonnull);  // both sides exclude zero
}

TEST(ElideLattice, JoinNullabilityIsAMeet) {
  // nonnull survives a merge only when *both* incoming paths prove it —
  // exactly the guard-plus-else-branch shape.
  const AbsVal null_side = AbsVal::Null();
  AbsVal obj = AbsVal::Top();
  obj.nonnull = true;
  EXPECT_FALSE(Join(obj, null_side).nonnull);
  EXPECT_TRUE(Join(obj, obj).nonnull);
}

TEST(ElideLattice, JoinArrayFactsDropToTheWeakerSide) {
  AbsVal a = AbsVal::Top();
  a.nonnull = true;
  a.is_array = true;
  a.len_lo = 8;
  AbsVal b = a;
  b.len_lo = 2;
  const AbsVal j = Join(a, b);
  EXPECT_TRUE(j.is_array);
  EXPECT_EQ(j.len_lo, 2);  // only the shorter bound is proven on both paths

  AbsVal scalar = AbsVal::Const(7);
  EXPECT_FALSE(Join(a, scalar).is_array);
}

TEST(ElideLattice, WidenBlowsGrowingBoundsToTheExtremes) {
  // prev = first loop-head state, next = Join(prev, one more iteration).
  const AbsVal prev = AbsVal::Range(0, 1);
  const AbsVal next = Join(prev, AbsVal::Range(0, 2));  // hi still growing
  const AbsVal w = Widen(prev, next);
  EXPECT_EQ(w.lo, 0);     // stable bound survives widening
  EXPECT_EQ(w.hi, kMax);  // growing bound is accelerated to the extreme
}

TEST(ElideLattice, WidenLeavesStableStatesAlone) {
  const AbsVal prev = AbsVal::Range(0, 10);
  const AbsVal w = Widen(prev, prev);
  EXPECT_EQ(w.lo, 0);
  EXPECT_EQ(w.hi, 10);
}

TEST(ElideLattice, WidenShrinkingLengthFallsToZero) {
  AbsVal prev = AbsVal::Top();
  prev.len_lo = 8;
  AbsVal next = prev;
  next.len_lo = 4;  // still shrinking: accelerate to the bottom
  EXPECT_EQ(Widen(prev, next).len_lo, 0);
}

// --- Loop-head behavior through the whole pipeline -----------------------

TEST(ElideAnalysis, ExactTripCountLoopElidesTheStore) {
  // i is widened at the loop head, then the `i < 4` branch refines the body
  // copy back to [0, 3] — provably in bounds of new int[4].
  const char* source =
      "fn f() -> int {\n"
      "  var a: int[] = new int[4];\n"
      "  var i: int = 0;\n"
      "  while (i < 4) { a[i] = i; i = i + 1; }\n"
      "  return a[3];\n"
      "}\n";
  Program program = Compile(source);
  const auto stats = ElideChecks(program);
  EXPECT_EQ(stats.elem_stores_elided, 1u);
  EXPECT_EQ(stats.elem_loads_elided, 1u);  // a[3] against len 4
  EXPECT_EQ(stats.checks_retained, 0u);

  VM vm(program);
  vm.RunInit();
  EXPECT_EQ(vm.Call("f", {}).AsInt(), 3);
}

TEST(ElideAnalysis, LoopBodyAssignmentReachesTheLoopExit) {
  // Regression: the loop writes v through the body, so the post-loop state
  // must be the join over *all* iterations (v becomes unbounded), not the
  // entry state (v == -1). Getting this wrong elided a division that
  // overflows on INT64_MIN / -1.
  const char* source =
      "fn f(x: int) -> int {\n"
      "  var v: int = -1;\n"
      "  var t: int = 0;\n"
      "  while (t < 1) { v = x; t = t + 1; }\n"
      "  return v % -1;\n"
      "}\n";
  Program program = Compile(source);
  const auto stats = ElideChecks(program);
  EXPECT_EQ(stats.divs_elided, 0u);
  EXPECT_EQ(stats.checks_retained, 1u);

  VM vm(program);
  vm.RunInit();
  EXPECT_THROW(vm.Call("f", {Value::Int(kMin)}), Trap);
  EXPECT_EQ(vm.Call("f", {Value::Int(7)}).AsInt(), 0);
}

TEST(ElideAnalysis, BranchGuardRefinesTheMergedValue) {
  // After the merge v is in [-1, INT64_MAX]: INT64_MIN is excluded, and the
  // constant divisor -1 excludes zero, so div.nz is provable.
  const char* source =
      "fn f(x: int) -> int {\n"
      "  var v: int = -1;\n"
      "  if (x > 0) { v = x; }\n"
      "  return v % -1;\n"
      "}\n";
  Program program = Compile(source);
  EXPECT_EQ(ElideChecks(program).divs_elided, 1u);

  VM vm(program);
  vm.RunInit();
  EXPECT_EQ(vm.Call("f", {Value::Int(kMin)}).AsInt(), 0);   // guard not taken: v == -1
  EXPECT_EQ(vm.Call("f", {Value::Int(kMax)}).AsInt(), 0);
}

// --- The certificate handshake -------------------------------------------

Program ElidedProbe() {
  // One provable element store so the rewrite emits an unchecked opcode.
  Program program = Compile(
      "fn f(x: int) -> int {\n"
      "  var a: int[] = new int[8];\n"
      "  a[x & 7] = x;\n"
      "  return a[x & 7];\n"
      "}\n");
  ElideChecks(program);
  return program;
}

TEST(ElideCertificate, RewriteAttachesAValidCertificate) {
  const Program program = ElidedProbe();
  EXPECT_TRUE(program.elision.attached);
  EXPECT_GE(program.elision.checks_elided, 2u);
  EXPECT_TRUE(ElisionCertificateValid(program));
  EXPECT_TRUE(minnow::VerifyProgram(const_cast<Program&>(program)).ok);
}

TEST(ElideCertificate, ElideChecksIsIdempotent) {
  Program program = ElidedProbe();
  const std::uint64_t hash = program.elision.code_hash;
  const auto again = ElideChecks(program);  // must not double-rewrite
  EXPECT_EQ(again.checks_elided, program.elision.checks_elided);
  EXPECT_EQ(program.elision.code_hash, hash);
  EXPECT_EQ(ElisionCodeHash(program), hash);
}

TEST(ElideCertificate, VerifierRefusesUncheckedOpsWithoutACertificate) {
  Program program = ElidedProbe();
  program.elision.attached = false;
  const auto report = minnow::VerifyProgram(program);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.message.find("without an elision certificate"), std::string::npos)
      << report.message;
  // The VM refuses the same program on both dispatch forms, so code that
  // skipped VerifyProgram cannot run its `.nc` sites unproven either.
  EXPECT_THROW(VM vm(program), std::invalid_argument);
  minnow::VmOptions jit;
  jit.dispatch = minnow::DispatchMode::kJit;
  EXPECT_THROW(VM vm(program, jit), std::invalid_argument);
}

TEST(ElideCertificate, VerifierRefusesAStaleCertificate) {
  Program program = ElidedProbe();
  // Mutate the code after certification: the FNV hash no longer matches.
  program.functions[0].code[0].operand ^= 1;
  EXPECT_FALSE(ElisionCertificateValid(program));
  const auto report = minnow::VerifyProgram(program);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.message.find("stale"), std::string::npos) << report.message;
  EXPECT_THROW(VM vm(program), std::invalid_argument);
  minnow::VmOptions jit;
  jit.dispatch = minnow::DispatchMode::kJit;
  EXPECT_THROW(VM vm(program, jit), std::invalid_argument);
}

TEST(ElideCertificate, CertifiedProgramRefusesCallBeforeRunInit) {
  Program program = ElidedProbe();
  VM vm(program);
  EXPECT_THROW(vm.Call("f", {Value::Int(1)}), Trap);  // proof assumes @init ran
  vm.RunInit();
  EXPECT_EQ(vm.Call("f", {Value::Int(1)}).AsInt(), 1);
}

TEST(ElideCertificate, CertifiedProgramRefusesHostSetGlobal) {
  Program program = Compile(
      "var g: int = 5;\n"
      "fn f() -> int { return g; }\n");
  ElideChecks(program);
  VM vm(program);
  vm.RunInit();
  EXPECT_THROW(vm.SetGlobal("g", Value::Int(9)), std::invalid_argument);
  EXPECT_EQ(vm.GetGlobal("g").AsInt(), 5);
}

TEST(ElideCertificate, VmOptionElidesAtLoadTime) {
  Program program = Compile(
      "fn f(x: int) -> int { var a: int[] = new int[4]; a[x & 3] = x; return a[x & 3]; }\n");
  VmOptions options;
  options.elide_checks = true;
  VM vm(program, options);
  EXPECT_TRUE(vm.program().elision.attached);
  EXPECT_GE(vm.program().elision.checks_elided, 2u);
  vm.RunInit();
  EXPECT_EQ(vm.Call("f", {Value::Int(6)}).AsInt(), 6);
}

// --- Fuel identity -------------------------------------------------------

TEST(ElideFuel, ElisionRetiresExactlyTheSameInstructionCount) {
  // The rewrite is strictly 1:1, so the supervisor's fuel ledger must be
  // bit-identical between the checked and elided builds.
  const char* source =
      "fn f(n: int) -> int {\n"
      "  var a: int[] = new int[8];\n"
      "  var i: int = 0;\n"
      "  while (i < n) { a[i & 7] = a[i & 7] + i; i = i + 1; }\n"
      "  return a[7];\n"
      "}\n";
  const Program compiled = Compile(source);

  Program checked = compiled;
  VM checked_vm(checked);
  checked_vm.RunInit();
  const std::int64_t checked_result = checked_vm.Call("f", {Value::Int(100)}).AsInt();

  Program elided = compiled;
  const auto stats = ElideChecks(elided);
  EXPECT_GT(stats.checks_elided, 0u);
  VM elided_vm(elided);
  elided_vm.RunInit();
  EXPECT_EQ(elided_vm.Call("f", {Value::Int(100)}).AsInt(), checked_result);
  EXPECT_EQ(elided_vm.instructions_retired(), checked_vm.instructions_retired());
}

// --- Golden precision pins for the three paper grafts --------------------
//
// These are golden files in test form: the exact per-site decisions of the
// elision pass over the real graft bytecode. A diff here means the pass got
// more conservative (a performance regression) or more aggressive (audit
// the soundness argument before re-pinning!).

Program CompileEviction() {
  HostDecl lru_page;
  lru_page.name = "lru_page";
  lru_page.params = {Type::Int()};
  lru_page.ret = Type::Int();
  return Compile(grafts::MinnowEvictionSource(), {lru_page});
}

TEST(ElideGolden, EvictionGraftDecisions) {
  Program program = CompileEviction();
  const auto stats = ElideChecks(program);
  EXPECT_EQ(stats.checks_elided, 9u);
  EXPECT_EQ(stats.checks_retained, 0u);
  EXPECT_EQ(stats.field_accesses_elided, 9u);
  // hot_remove pc 24 is `prev.next = cur.next` inside the else-arm of
  // `if (prev == null)` — the branch refinement proves prev non-null there.
  EXPECT_EQ(minnow::DumpElision(program),
            "fn hot_add\n"
            "  4: deref.store.nc elided\n"
            "  7: deref.store.nc elided\n"
            "fn hot_remove\n"
            "  9: deref.nc elided\n"
            "  18: deref.nc elided\n"
            "  23: deref.nc elided\n"
            "  24: deref.store.nc elided\n"
            "  29: deref.nc elided\n"
            "fn is_hot\n"
            "  7: deref.nc elided\n"
            "  14: deref.nc elided\n"
            "total elided=9 retained=0\n");
}

TEST(ElideGolden, Md5GraftDecisions) {
  Program program = Compile(grafts::MinnowMd5Source());
  const auto stats = ElideChecks(program);
  EXPECT_EQ(stats.checks_elided, 34u);
  EXPECT_EQ(stats.checks_retained, 13u);
  EXPECT_EQ(stats.elem_loads_elided, 15u);
  EXPECT_EQ(stats.elem_stores_elided, 16u);
  EXPECT_EQ(stats.divs_elided, 3u);  // the % 16 word-index modulos
  // The retained sites are the honest residue: set_const writes through a
  // host-visible global index, and md5_update indexes the message buffer with
  // values derived from the untracked byte-count globals.
  EXPECT_EQ(minnow::DumpElision(program),
            "fn set_const\n"
            "  4: store.elem retained\n"
            "  8: store.elem retained\n"
            "fn md5_init\n"
            "  4: store.arr.nc elided\n"
            "  9: store.arr.nc elided\n"
            "  14: store.arr.nc elided\n"
            "  19: store.arr.nc elided\n"
            "fn word_index\n"
            "  16: mod.nz elided\n"
            "  28: mod.nz elided\n"
            "  34: mod.nz elided\n"
            "fn rounds\n"
            "  2: load.arr.nc elided\n"
            "  6: load.arr.nc elided\n"
            "  10: load.arr.nc elided\n"
            "  14: load.arr.nc elided\n"
            "  83: load.elem retained\n"
            "  87: load.arr.nc elided\n"
            "  94: load.arr.nc elided\n"
            "  109: load.arr.nc elided\n"
            "  112: store.arr.nc elided\n"
            "  117: load.arr.nc elided\n"
            "  120: store.arr.nc elided\n"
            "  125: load.arr.nc elided\n"
            "  128: store.arr.nc elided\n"
            "  133: load.arr.nc elided\n"
            "  136: store.arr.nc elided\n"
            "fn decode_buffer\n"
            "  12: load.arr.nc elided\n"
            "  20: load.arr.nc elided\n"
            "  31: load.arr.nc elided\n"
            "  42: load.arr.nc elided\n"
            "  47: store.arr.nc elided\n"
            "fn md5_update\n"
            "  24: load.elem retained\n"
            "  25: store.elem retained\n"
            "  63: load.elem retained\n"
            "  73: load.elem retained\n"
            "  86: load.elem retained\n"
            "  99: load.elem retained\n"
            "  104: store.arr.nc elided\n"
            "  124: load.elem retained\n"
            "  125: store.elem retained\n"
            "fn md5_final\n"
            "  7: store.elem retained\n"
            "  23: store.arr.nc elided\n"
            "  40: store.elem retained\n"
            "  63: store.arr.nc elided\n"
            "  79: load.arr.nc elided\n"
            "  88: store.arr.nc elided\n"
            "  100: store.arr.nc elided\n"
            "  112: store.arr.nc elided\n"
            "  124: store.arr.nc elided\n"
            "total elided=34 retained=13\n");
}

TEST(ElideGolden, LogicalDiskGraftStaysFullyChecked) {
  // Expected conservatism: the ldisk arrays live in globals assigned by the
  // host-driven ld_init (a normal function, not @init), so the program-wide
  // invariant cannot prove them non-null or bound their lengths. Every
  // access stays checked — the honest answer, not a missed case.
  Program program = Compile(grafts::MinnowLogicalDiskSource());
  const auto stats = ElideChecks(program);
  EXPECT_EQ(stats.checks_elided, 0u);
  EXPECT_EQ(stats.checks_retained, 16u);
}

}  // namespace
