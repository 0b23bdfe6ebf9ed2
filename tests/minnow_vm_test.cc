// Minnow execution tests: interpreter semantics, traps, fuel, GC, host
// calls, and the load-time verifier's rejection of hostile bytecode.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "src/minnow/compiler.h"
#include "src/minnow/diag.h"
#include "src/minnow/jit.h"
#include "src/minnow/verifier.h"
#include "src/minnow/vm.h"

namespace {

using minnow::Compile;
using minnow::HostDecl;
using minnow::Program;
using minnow::Trap;
using minnow::Type;
using minnow::Value;
using minnow::VM;

std::int64_t RunInt(const std::string& source, const std::string& fn,
                    std::initializer_list<std::int64_t> args = {}) {
  VM vm(Compile(source));
  vm.RunInit();
  std::vector<Value> values;
  for (const std::int64_t a : args) {
    values.push_back(Value::Int(a));
  }
  return vm.Call(fn, values).AsInt();
}

TEST(Interp, Arithmetic) {
  EXPECT_EQ(RunInt("fn f() -> int { return 2 + 3 * 4 - 6 / 2; }", "f"), 11);
  EXPECT_EQ(RunInt("fn f() -> int { return 17 % 5; }", "f"), 2);
  EXPECT_EQ(RunInt("fn f() -> int { return -7 / 2; }", "f"), -3);
  EXPECT_EQ(RunInt("fn f() -> int { return (1 << 40) >> 35; }", "f"), 32);
  EXPECT_EQ(RunInt("fn f() -> int { return -1 >> 1; }", "f"), -1);  // arithmetic shift
  EXPECT_EQ(RunInt("fn f() -> int { return ~0; }", "f"), -1);
  EXPECT_EQ(RunInt("fn f() -> int { return 12 & 10; }", "f"), 8);
  EXPECT_EQ(RunInt("fn f() -> int { return 12 | 3; }", "f"), 15);
  EXPECT_EQ(RunInt("fn f() -> int { return 12 ^ 10; }", "f"), 6);
}

TEST(Interp, U32WrapsModulo32Bits) {
  EXPECT_EQ(RunInt("fn f() -> int { return int(u32(0xFFFFFFFF) + u32(2)); }", "f"), 1);
  EXPECT_EQ(RunInt("fn f() -> int { return int(u32(0x80000000) << 1); }", "f"), 0);
  EXPECT_EQ(RunInt("fn f() -> int { return int(u32(0x80000000) >> 31); }", "f"), 1);
  EXPECT_EQ(RunInt("fn f() -> int { return int(~u32(0)); }", "f"), 0xFFFFFFFF);
  // Unsigned comparison: 0x80000000 > 1 as u32.
  EXPECT_EQ(RunInt("fn f() -> int { if (u32(0x80000000) > u32(1)) { return 1; } return 0; }",
                   "f"),
            1);
}

TEST(Interp, ControlFlow) {
  EXPECT_EQ(RunInt(R"(
    fn f(n: int) -> int {
      var total: int = 0;
      for (var i: int = 1; i <= n; i = i + 1) {
        if (i % 2 == 0) { continue; }
        if (i > 7) { break; }
        total = total + i;
      }
      return total;
    })",
                   "f", {100}),
            1 + 3 + 5 + 7);

  EXPECT_EQ(RunInt(R"(
    fn f(a: int, b: int) -> int {
      if (a > 0 && b > 0) { return 1; }
      if (a > 0 || b > 0) { return 2; }
      return 3;
    })",
                   "f", {1, 0}),
            2);
}

TEST(Interp, ShortCircuitSkipsSideEffects) {
  // The right operand would trap (div by zero) if evaluated.
  EXPECT_EQ(RunInt("fn f(x: int) -> int { if (x == 0 || 10 / x > 2) { return 1; } return 0; }",
                   "f", {0}),
            1);
}

TEST(Interp, RecursionAndCalls) {
  EXPECT_EQ(RunInt(R"(
    fn fib(n: int) -> int {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    })",
                   "fib", {20}),
            6765);
}

TEST(Interp, StructsAndLinkedLists) {
  EXPECT_EQ(RunInt(R"(
    struct Node { value: int; next: Node; }
    fn f(n: int) -> int {
      var head: Node = null;
      for (var i: int = 0; i < n; i = i + 1) {
        var node: Node = new Node();
        node.value = i;
        node.next = head;
        head = node;
      }
      var total: int = 0;
      var cur: Node = head;
      while (cur != null) {
        total = total + cur.value;
        cur = cur.next;
      }
      return total;
    })",
                   "f", {100}),
            4950);
}

TEST(Interp, ArraysOfEachKind) {
  EXPECT_EQ(RunInt(R"(
    fn f() -> int {
      var a: int[] = new int[10];
      var w: u32[] = new u32[4];
      var b: byte[] = new byte[4];
      var flags: bool[] = new bool[2];
      a[3] = 42;
      w[1] = u32(0xFFFFFFFF) + u32(3);
      b[0] = 300;           // masked to 8 bits: 44
      flags[1] = a[3] > 0;
      var total: int = a[3] + int(w[1]) + b[0];
      if (flags[1]) { total = total + 1; }
      return total + a.len;
    })",
                   "f"),
            42 + 2 + 44 + 1 + 10);
}

TEST(Interp, GlobalsAndInit) {
  EXPECT_EQ(RunInt(R"(
    var table: int[] = new int[8];
    var scale: int = 3 * 7;
    fn f() -> int {
      table[2] = scale;
      return table[2];
    })",
                   "f"),
            21);
}

// --- Traps: the VM is the safety boundary ---

void ExpectTrap(const std::string& source, const std::string& fn,
                std::initializer_list<std::int64_t> args = {}) {
  VM vm(Compile(source));
  vm.RunInit();
  std::vector<Value> values;
  for (const std::int64_t a : args) {
    values.push_back(Value::Int(a));
  }
  EXPECT_THROW(vm.Call(fn, values), Trap) << source;
}

TEST(Traps, NullDereference) {
  ExpectTrap("struct S { x: int; } fn f() -> int { var s: S = null; return s.x; }", "f");
  ExpectTrap("fn f() -> int { var a: int[] = null; return a[0]; }", "f");
  ExpectTrap("fn f() -> int { var a: int[] = null; return a.len; }", "f");
}

TEST(Traps, ArrayBounds) {
  ExpectTrap("fn f() -> int { var a: int[] = new int[4]; return a[4]; }", "f");
  ExpectTrap("fn f() -> int { var a: int[] = new int[4]; return a[0 - 1]; }", "f");
  ExpectTrap("fn f() { var a: int[] = new int[4]; a[100] = 1; }", "f");
}

TEST(Traps, DivisionEdges) {
  ExpectTrap("fn f(x: int) -> int { return 10 / x; }", "f", {0});
  ExpectTrap("fn f(x: int) -> int { return 10 % x; }", "f", {0});
  ExpectTrap("fn f() -> u32 { return u32(1) / u32(0); }", "f");
  // INT64_MIN / -1 overflows.
  ExpectTrap("fn f(a: int, b: int) -> int { return a / b; }", "f",
             {std::numeric_limits<std::int64_t>::min(), -1});
}

TEST(Traps, BadArrayLength) {
  ExpectTrap("fn f(n: int) -> int { var a: int[] = new int[n]; return a.len; }", "f", {-5});
}

TEST(Traps, MissingReturnValue) {
  ExpectTrap("fn f(x: int) -> int { if (x > 0) { return 1; } }", "f", {-1});
}

TEST(Traps, CallDepthLimit) {
  ExpectTrap("fn f(n: int) -> int { return f(n + 1); }", "f", {0});
}

TEST(Traps, VmRemainsUsableAfterTrap) {
  VM vm(Compile("fn bad() -> int { var a: int[] = null; return a[0]; }"
                "fn good() -> int { return 7; }"));
  vm.RunInit();
  EXPECT_THROW(vm.Call("bad", {}), Trap);
  EXPECT_EQ(vm.Call("good", {}).AsInt(), 7);
  EXPECT_THROW(vm.Call("bad", {}), Trap);
  EXPECT_EQ(vm.Call("good", {}).AsInt(), 7);
}

TEST(Fuel, PreemptsRunawayGraft) {
  VM vm(Compile("fn spin() { while (true) { } }"));
  vm.RunInit();
  vm.SetFuel(100000);
  EXPECT_THROW(vm.Call("spin", {}), Trap);
  // Refueled, other work proceeds.
  vm.SetFuel(-1);
}

TEST(Fuel, SufficientFuelCompletes) {
  VM vm(Compile("fn f() -> int { var t: int = 0; "
                "for (var i: int = 0; i < 100; i = i + 1) { t = t + i; } return t; }"));
  vm.RunInit();
  vm.SetFuel(100000);
  EXPECT_EQ(vm.Call("f", {}).AsInt(), 4950);
}

TEST(Hosts, BindAndCall) {
  HostDecl host;
  host.name = "k_add";
  host.params = {Type::Int(), Type::Int()};
  host.ret = Type::Int();
  VM vm(Compile("fn f(a: int, b: int) -> int { return k_add(a, b) * 2; }", {host}));
  vm.BindHost("k_add", [](VM&, std::span<const Value> args) {
    return Value::Int(args[0].AsInt() + args[1].AsInt());
  });
  vm.RunInit();
  EXPECT_EQ(vm.Call("f", {Value::Int(3), Value::Int(4)}).AsInt(), 14);
}

TEST(Hosts, UnboundImportTraps) {
  HostDecl host;
  host.name = "k_missing";
  host.ret = Type::Int();
  VM vm(Compile("fn f() -> int { return k_missing(); }", {host}));
  vm.RunInit();
  EXPECT_THROW(vm.Call("f", {}), Trap);
}

TEST(Hosts, ByteArrayBridge) {
  HostDecl host;
  host.name = "k_fill";
  host.params = {Type::Array(minnow::TypeKind::kByte)};
  VM vm(Compile(R"(
    var buf: byte[] = new byte[16];
    fn f() -> int {
      k_fill(buf);
      var total: int = 0;
      for (var i: int = 0; i < buf.len; i = i + 1) { total = total + buf[i]; }
      return total;
    })",
                {host}));
  vm.BindHost("k_fill", [](VM&, std::span<const Value> args) {
    auto* array = reinterpret_cast<minnow::Object*>(args[0].bits);
    for (std::size_t i = 0; i < array->length(); ++i) {
      array->bytes()[i] = static_cast<std::uint8_t>(i);
    }
    return Value::Null();
  });
  vm.RunInit();
  EXPECT_EQ(vm.Call("f", {}).AsInt(), 120);  // 0+1+...+15
}

TEST(Gc, CollectsUnreachableGarbage) {
  VM vm(Compile(R"(
    struct Blob { data: int[]; }
    fn churn(n: int) -> int {
      var kept: Blob = null;
      for (var i: int = 0; i < n; i = i + 1) {
        var b: Blob = new Blob();
        b.data = new int[1000];
        b.data[0] = i;
        kept = b;       // previous blob becomes garbage
      }
      return kept.data[0];
    })"));
  vm.RunInit();
  EXPECT_EQ(vm.Call("churn", {Value::Int(2000)}).AsInt(), 1999);
  EXPECT_GT(vm.heap().collections(), 0u);
  // 2000 blobs x 8KB would be 16MB; the live heap must be far smaller.
  EXPECT_LT(vm.heap().allocated_bytes(), 4u << 20);
}

TEST(Gc, ReachableDataSurvivesCollection) {
  VM vm(Compile(R"(
    struct Node { value: int; next: Node; }
    var head: Node;
    fn build(n: int) {
      for (var i: int = 0; i < n; i = i + 1) {
        var node: Node = new Node();
        node.value = i;
        node.next = head;
        head = node;
      }
    }
    fn churn(n: int) {
      for (var i: int = 0; i < n; i = i + 1) {
        var junk: int[] = new int[1000];
        junk[0] = i;
      }
    }
    fn sum() -> int {
      var total: int = 0;
      var cur: Node = head;
      while (cur != null) { total = total + cur.value; cur = cur.next; }
      return total;
    })"));
  vm.RunInit();
  vm.Call("build", {Value::Int(500)});
  vm.Call("churn", {Value::Int(5000)});  // forces collections
  EXPECT_GT(vm.heap().collections(), 0u);
  EXPECT_EQ(vm.Call("sum", {}).AsInt(), 500 * 499 / 2);
}

TEST(Gc, HeapLimitTraps) {
  minnow::VmOptions options;
  options.heap_limit = 1u << 20;
  VM vm(Compile(R"(
    struct Node { data: int[]; next: Node; }
    var head: Node;
    fn hog() {
      while (true) {
        var n: Node = new Node();
        n.data = new int[4096];
        n.next = head;
        head = n;  // everything stays reachable: GC cannot help
      }
    })"),
        options);
  vm.RunInit();
  EXPECT_THROW(vm.Call("hog", {}), Trap);
}

// --- Verifier: hostile bytecode is rejected before execution ---

Program CompiledProbe() {
  return Compile("fn f(a: int, b: int) -> int { return a + b; }"
                 "fn g() -> int { return f(1, 2); }");
}

TEST(Verifier, AcceptsCompilerOutput) {
  Program program = CompiledProbe();
  const auto report = minnow::VerifyProgram(program);
  EXPECT_TRUE(report.ok) << report.message;
  EXPECT_GT(program.functions[0].max_stack, 0);
}

TEST(Verifier, RejectsJumpOutsideFunction) {
  Program program = CompiledProbe();
  program.functions[0].code[0] = {minnow::Op::kJmp, 10000};
  EXPECT_FALSE(minnow::VerifyProgram(program).ok);
}

TEST(Verifier, RejectsStackUnderflow) {
  Program program = CompiledProbe();
  program.functions[0].code.insert(program.functions[0].code.begin(),
                                   {minnow::Op::kPop, 0});
  EXPECT_FALSE(minnow::VerifyProgram(program).ok);
}

TEST(Verifier, RejectsBadLocalSlot) {
  Program program = CompiledProbe();
  program.functions[0].code[0] = {minnow::Op::kLoadLocal, 99};
  EXPECT_FALSE(minnow::VerifyProgram(program).ok);
}

TEST(Verifier, RejectsBadCallTarget) {
  Program program = CompiledProbe();
  program.functions[1].code[2] = {minnow::Op::kCall, 42};
  EXPECT_FALSE(minnow::VerifyProgram(program).ok);
}

TEST(Verifier, RejectsFallOffEnd) {
  Program program = CompiledProbe();
  program.functions[0].code.pop_back();  // drop the trailing trap/ret
  program.functions[0].code.pop_back();
  EXPECT_FALSE(minnow::VerifyProgram(program).ok);
}

TEST(Verifier, RejectsInconsistentMergeDepth) {
  // Hand-built: one path pushes, the other doesn't, converging on pc 3.
  Program program;
  minnow::FunctionCode fn;
  fn.name = "evil";
  fn.num_params = 0;
  fn.num_locals = 0;
  fn.returns_value = false;
  fn.code = {
      {minnow::Op::kConstInt, 1},     // 0: push
      {minnow::Op::kJmpIfTrue, 3},    // 1: pop, branch to 3 at depth 0
      {minnow::Op::kConstInt, 7},     // 2: push -> falls into 3 at depth 1
      {minnow::Op::kRetVoid, 0},      // 3: merge with conflicting depths
  };
  program.functions.push_back(std::move(fn));
  EXPECT_FALSE(minnow::VerifyProgram(program).ok);
}

// Nothing runs unverified: a VM refuses bytecode the verifier rejects on
// every dispatcher, not only when it compiles to native code. This program
// reaches pc 3 at depth 0 on the branch and depth 1 on the fall-through;
// an interpreter that skipped verification would run it and return 5.
TEST(Verifier, EveryDispatcherRefusesUnverifiableCode) {
  Program program;
  minnow::FunctionCode fn;
  fn.name = "f";
  fn.returns_value = true;
  fn.code = {
      {minnow::Op::kConstInt, 1},   // 0
      {minnow::Op::kJmpIfTrue, 3},  // 1: to 3 at depth 0
      {minnow::Op::kConstInt, 7},   // 2: falls into 3 at depth 1
      {minnow::Op::kConstInt, 5},   // 3: inconsistent stack depth
      {minnow::Op::kRet, 0},        // 4
  };
  program.functions.push_back(std::move(fn));
  for (const minnow::DispatchMode dispatch :
       {minnow::DispatchMode::kSwitch, minnow::DispatchMode::kThreaded,
        minnow::DispatchMode::kJit}) {
    minnow::VmOptions options;
    options.dispatch = dispatch;
    EXPECT_THROW(VM(program, options), std::invalid_argument)
        << "dispatch " << static_cast<int>(dispatch);
  }
}

TEST(Verifier, RejectsBadFieldAndStructIndices) {
  Program program = Compile("struct S { x: int; } fn f() -> int { var s: S = new S(); "
                            "s.x = 3; return s.x; }");
  Program broken = program;
  for (auto& insn : broken.functions[0].code) {
    if (insn.op == minnow::Op::kNewStruct) {
      insn.operand = 7;
    }
  }
  EXPECT_FALSE(minnow::VerifyProgram(broken).ok);

  Program broken2 = program;
  for (auto& insn : broken2.functions[0].code) {
    if (insn.op == minnow::Op::kLoadField) {
      insn.operand = 12;
    }
  }
  EXPECT_FALSE(minnow::VerifyProgram(broken2).ok);
}

// Hostile operands on every superinstruction. Each case runs the fused op at
// pc 2 of `f(a, b)` (two locals, one global, one host import) with a and b
// on the stack, so the valid operand verifies and only the planted field
// can fail.
enum class Packing {
  kSlot,        // operand is a local slot
  kImm,         // operand is a constant: nothing to range-check
  kConstSlot,   // const<<32 | slot
  kTarget,      // operand is a branch target
  kImmTarget,   // imm<<32 | target
  kSlotPair,    // slot<<32 | slot
  kGlobalSlot,  // global<<32 | slot
};

struct HostileCase {
  minnow::Op op;
  Packing packing;
};

constexpr HostileCase kHostileCases[] = {
    {minnow::Op::kLoadAddI, Packing::kSlot},
    {minnow::Op::kAddConstI, Packing::kImm},
    {minnow::Op::kConstStore, Packing::kConstSlot},
    {minnow::Op::kBrEqI, Packing::kTarget},
    {minnow::Op::kBrNeI, Packing::kTarget},
    {minnow::Op::kBrLtI, Packing::kTarget},
    {minnow::Op::kBrLeI, Packing::kTarget},
    {minnow::Op::kBrGtI, Packing::kTarget},
    {minnow::Op::kBrGeI, Packing::kTarget},
    {minnow::Op::kBrEqRef, Packing::kTarget},
    {minnow::Op::kBrNeRef, Packing::kTarget},
    {minnow::Op::kBrEqImmI, Packing::kImmTarget},
    {minnow::Op::kBrNeImmI, Packing::kImmTarget},
    {minnow::Op::kBrLtImmI, Packing::kImmTarget},
    {minnow::Op::kBrLeImmI, Packing::kImmTarget},
    {minnow::Op::kBrGtImmI, Packing::kImmTarget},
    {minnow::Op::kBrGeImmI, Packing::kImmTarget},
    {minnow::Op::kLoadLocal2, Packing::kSlotPair},
    {minnow::Op::kLoadConstI, Packing::kConstSlot},
    {minnow::Op::kMoveLocal, Packing::kSlotPair},
    {minnow::Op::kStoreLoad, Packing::kSlotPair},
    {minnow::Op::kLoadGlobalLocal, Packing::kGlobalSlot},
};

Program HostileProbe(minnow::Insn insn) {
  Program program;
  program.globals.push_back({"g", false});
  program.host_imports.push_back({"h", 0, false});
  minnow::FunctionCode fn;
  fn.name = "f";
  fn.num_params = 2;
  fn.num_locals = 2;
  fn.code = {
      {minnow::Op::kLoadLocal, 0},
      {minnow::Op::kLoadLocal, 1},
      insn,
      {minnow::Op::kRetVoid, 0},
  };
  program.functions.push_back(std::move(fn));
  return program;
}

void ExpectRejectedAtFusedOp(minnow::Insn insn, const std::string& message,
                             const std::string& label) {
  Program program = HostileProbe(insn);
  const auto report = minnow::VerifyProgram(program);
  ASSERT_FALSE(report.ok) << label;
  EXPECT_EQ(report.function, 0) << label;
  EXPECT_EQ(report.pc, 2u) << label;
  if (!message.empty()) {
    EXPECT_NE(report.message.find(message), std::string::npos) << label << ": " << report.message;
  }
}

TEST(Verifier, RejectsHostileSuperinstructions) {
  using minnow::PackConstStore;
  using minnow::PackImmBranch;
  using minnow::PackSlotPair;
  constexpr std::uint32_t kTail = 3;      // the kRetVoid: a valid target
  constexpr std::uint32_t kBadSlot = 2;   // == num_locals
  constexpr std::uint32_t kBadTarget = 4; // == code size
  int covered = 0;
  for (const HostileCase& c : kHostileCases) {
    ASSERT_TRUE(minnow::IsSuperinstruction(c.op));
    ++covered;
    const std::string name = minnow::OpName(c.op);
    minnow::Insn good{c.op, 0};
    std::vector<std::pair<minnow::Insn, std::string>> bad;
    switch (c.packing) {
      case Packing::kSlot:
        good.operand = 1;
        bad.push_back({{c.op, kBadSlot}, "local slot out of range"});
        bad.push_back({{c.op, -1}, "local slot out of range"});
        break;
      case Packing::kImm:
        good.operand = -7;
        break;
      case Packing::kConstSlot:
        good.operand = PackConstStore(-5, 1);
        bad.push_back({{c.op, PackConstStore(-5, kBadSlot)}, "local slot out of range"});
        bad.push_back({{c.op, PackConstStore(3, 0xFFFFFFFFu)}, "local slot out of range"});
        break;
      case Packing::kTarget:
        good.operand = kTail;
        bad.push_back({{c.op, kBadTarget}, "branch target out of range"});
        bad.push_back({{c.op, -1}, "branch target out of range"});
        bad.push_back({{c.op, std::int64_t{1} << 40}, "branch target out of range"});
        break;
      case Packing::kImmTarget:
        good.operand = PackImmBranch(-3, kTail);
        bad.push_back({{c.op, PackImmBranch(-3, kBadTarget)}, "branch target out of range"});
        bad.push_back({{c.op, PackImmBranch(9, 0xFFFFFFFFu)}, "branch target out of range"});
        break;
      case Packing::kSlotPair:
        good.operand = PackSlotPair(1, 0);
        bad.push_back({{c.op, PackSlotPair(kBadSlot, 0)}, "local slot out of range"});
        bad.push_back({{c.op, PackSlotPair(0, kBadSlot)}, "local slot out of range"});
        bad.push_back({{c.op, PackSlotPair(0xFFFFFFFFu, 1)}, "local slot out of range"});
        break;
      case Packing::kGlobalSlot:
        good.operand = PackSlotPair(0, 1);
        bad.push_back({{c.op, PackSlotPair(1, 1)}, "global index out of range"});
        // The local half's message is pinned by
        // Verifier.LoadGlobalLocalNamesTheBadIndex.
        bad.push_back({{c.op, PackSlotPair(0, kBadSlot)}, ""});
        break;
    }
    Program ok_program = HostileProbe(good);
    const auto ok_report = minnow::VerifyProgram(ok_program);
    EXPECT_TRUE(ok_report.ok) << name << ": " << ok_report.message;
    for (std::size_t i = 0; i < bad.size(); ++i) {
      ExpectRejectedAtFusedOp(bad[i].first, bad[i].second, name + " case " + std::to_string(i));
    }
  }
  int superinstructions = 0;
  for (std::size_t op = 0; op < minnow::kNumOps; ++op) {
    superinstructions += minnow::IsSuperinstruction(static_cast<minnow::Op>(op)) ? 1 : 0;
  }
  EXPECT_EQ(covered, superinstructions);

  // Opcode bytes past the table and an unbound host import index.
  for (const int byte : {static_cast<int>(minnow::kNumOps), 255}) {
    Program program = HostileProbe({static_cast<minnow::Op>(byte), 0});
    EXPECT_FALSE(minnow::VerifyProgram(program).ok) << "opcode byte " << byte;
  }
  ExpectRejectedAtFusedOp({minnow::Op::kCallHost, 1}, "host import index out of range",
                          "call.host 1");
  ExpectRejectedAtFusedOp({minnow::Op::kCallHost, -1}, "host import index out of range",
                          "call.host -1");
}

// load.global.local names the half that is out of range.
TEST(Verifier, LoadGlobalLocalNamesTheBadIndex) {
  ExpectRejectedAtFusedOp({minnow::Op::kLoadGlobalLocal, minnow::PackSlotPair(1, 0)},
                          "global index out of range", "bad global");
  ExpectRejectedAtFusedOp({minnow::Op::kLoadGlobalLocal, minnow::PackSlotPair(0, 2)},
                          "local slot out of range", "bad local");
}

// --- Superinstructions run exactly as their base sequences ---
//
// Each case is one superinstruction and the base ops it stands for. Both
// forms run inside the same harness on every dispatch form; the result (a
// hash over every local, the global and the operand stack left behind) and
// any trap must agree, and the fused run retires exactly n - 1 fewer
// instructions. Branch targets are patched in by the harness, and each
// case's sequence must be what bytecode.h's Expand returns.

struct ExpansionCase {
  minnow::Insn fused;
  std::vector<minnow::Insn> base;
  int delta;  // operand depth after minus before
};

std::vector<ExpansionCase> ExpansionCases() {
  using minnow::Op;
  using minnow::PackConstStore;
  using minnow::PackImmBranch;
  using minnow::PackSlotPair;
  std::vector<ExpansionCase> cases = {
      {{Op::kLoadAddI, 2}, {{Op::kLoadLocal, 2}, {Op::kAddI, 0}}, 0},
      {{Op::kAddConstI, 11}, {{Op::kConstInt, 11}, {Op::kAddI, 0}}, 0},
      {{Op::kConstStore, PackConstStore(-5, 3)}, {{Op::kConstInt, -5}, {Op::kStoreLocal, 3}}, 0},
      {{Op::kLoadLocal2, PackSlotPair(3, 2)}, {{Op::kLoadLocal, 3}, {Op::kLoadLocal, 2}}, 2},
      {{Op::kLoadConstI, PackConstStore(9, 2)}, {{Op::kLoadLocal, 2}, {Op::kConstInt, 9}}, 2},
      {{Op::kMoveLocal, PackSlotPair(2, 3)}, {{Op::kLoadLocal, 2}, {Op::kStoreLocal, 3}}, 0},
      {{Op::kStoreLoad, PackSlotPair(3, 3)}, {{Op::kStoreLocal, 3}, {Op::kLoadLocal, 3}}, 0},
      {{Op::kStoreLoad, PackSlotPair(2, 0)}, {{Op::kStoreLocal, 2}, {Op::kLoadLocal, 0}}, 0},
      {{Op::kLoadGlobalLocal, PackSlotPair(0, 2)}, {{Op::kLoadGlobal, 0}, {Op::kLoadLocal, 2}}, 2},
  };
  const std::pair<Op, Op> compare_branches[] = {
      {Op::kBrEqI, Op::kEqI}, {Op::kBrNeI, Op::kNeI},   {Op::kBrLtI, Op::kLtI},
      {Op::kBrLeI, Op::kLeI}, {Op::kBrGtI, Op::kGtI},   {Op::kBrGeI, Op::kGeI},
      {Op::kBrEqRef, Op::kEqRef}, {Op::kBrNeRef, Op::kNeRef},
  };
  for (const auto& [br, cmp] : compare_branches) {
    cases.push_back({{br, 0}, {{cmp, 0}, {Op::kJmpIfTrue, 0}}, -2});
  }
  const std::pair<Op, Op> imm_branches[] = {
      {Op::kBrEqImmI, Op::kEqI}, {Op::kBrNeImmI, Op::kNeI}, {Op::kBrLtImmI, Op::kLtI},
      {Op::kBrLeImmI, Op::kLeI}, {Op::kBrGtImmI, Op::kGtI}, {Op::kBrGeImmI, Op::kGeI},
  };
  for (const auto& [br, cmp] : imm_branches) {
    cases.push_back(
        {{br, PackImmBranch(3, 0)}, {{Op::kConstInt, 3}, {cmp, 0}, {Op::kJmpIfTrue, 0}}, -1});
  }
  return cases;
}

bool IsImmBranchOp(minnow::Op op) {
  return op >= minnow::Op::kBrEqImmI && op <= minnow::Op::kBrGeImmI;
}

constexpr std::size_t kHarnessPrelude = 14;  // `body` starts at this pc

// f(a, b): g = a + 7, l2 = 3a, l3 = b - 5, push a, b; then `body` (which
// leaves `delta` more operands); a branching body falls into `const 100`
// and takes `const 200`; then every operand goes to locals 4.. and the
// result hashes locals 0..7 and the global.
Program ExpansionHarness(const std::vector<minnow::Insn>& body, int delta) {
  using minnow::Op;
  std::vector<minnow::Insn> code = {
      {Op::kLoadLocal, 0},  {Op::kConstInt, 7},   {Op::kAddI, 0},    {Op::kStoreGlobal, 0},
      {Op::kLoadLocal, 0},  {Op::kConstInt, 3},   {Op::kMulI, 0},    {Op::kStoreLocal, 2},
      {Op::kLoadLocal, 1},  {Op::kConstInt, 5},   {Op::kSubI, 0},    {Op::kStoreLocal, 3},
      {Op::kLoadLocal, 0},  {Op::kLoadLocal, 1},
  };
  EXPECT_EQ(code.size(), kHarnessPrelude);
  int depth = 2 + delta;
  const Op last = body.back().op;
  const bool branches = last == Op::kJmpIfTrue || (last >= Op::kBrEqI && last <= Op::kBrGeImmI);
  const auto taken = static_cast<std::uint32_t>(code.size() + body.size() + 2);
  for (minnow::Insn insn : body) {
    if (insn.op == Op::kJmpIfTrue || (insn.op >= Op::kBrEqI && insn.op <= Op::kBrNeRef)) {
      insn.operand = taken;
    } else if (IsImmBranchOp(insn.op)) {
      insn.operand = minnow::PackImmBranch(minnow::ImmBranchValue(insn.operand), taken);
    }
    code.push_back(insn);
  }
  if (branches) {
    code.push_back({Op::kConstInt, 100});
    code.push_back({Op::kJmp, static_cast<std::int64_t>(taken + 1)});
    code.push_back({Op::kConstInt, 200});
    ++depth;
  }
  for (int i = 0; i < depth; ++i) {
    code.push_back({Op::kStoreLocal, 4 + i});
  }
  code.push_back({Op::kLoadGlobal, 0});
  for (int s = 0; s < 8; ++s) {
    code.push_back({Op::kConstInt, 1000003});
    code.push_back({Op::kMulI, 0});
    code.push_back({Op::kLoadLocal, s});
    code.push_back({Op::kAddI, 0});
  }
  code.push_back({Op::kRet, 0});

  Program program;
  program.globals.push_back({"g", false});
  minnow::FunctionCode fn;
  fn.name = "f";
  fn.num_params = 2;
  fn.num_locals = 8;
  fn.returns_value = true;
  fn.code = std::move(code);
  program.functions.push_back(std::move(fn));
  return program;
}

struct ExpansionRun {
  bool trapped = false;
  std::string trap;
  std::int64_t value = 0;
  std::uint64_t retired = 0;
  bool operator==(const ExpansionRun&) const = default;
};

ExpansionRun RunExpansion(const Program& program, minnow::DispatchMode dispatch,
                          std::int64_t a, std::int64_t b) {
  minnow::VmOptions options;
  options.dispatch = dispatch;
  VM vm(program, options);
  if (dispatch == minnow::DispatchMode::kJit && VM::JitDispatchAvailable()) {
    EXPECT_NE(vm.jit_stats(), nullptr);
    if (vm.jit_stats() != nullptr) {
      EXPECT_EQ(vm.jit_stats()->compiled_fns, 1u);
    }
  }
  vm.RunInit();
  ExpansionRun run;
  try {
    run.value = vm.Call("f", {Value::Int(a), Value::Int(b)}).AsInt();
  } catch (const Trap& trap) {
    run.trapped = true;
    run.trap = trap.what();
  }
  run.retired = vm.instructions_retired();
  return run;
}

TEST(Superinstructions, RunExactlyAsTheirBaseSequences) {
  const std::pair<std::int64_t, std::int64_t> args[] = {
      {1, 2}, {2, 1}, {5, 5}, {-7, 3}, {3, 3}, {0, -9},
  };
  int covered = 0;
  std::vector<bool> seen(minnow::kNumOps, false);
  for (const ExpansionCase& c : ExpansionCases()) {
    const std::string name = minnow::OpName(c.fused.op);
    if (!seen[static_cast<std::size_t>(c.fused.op)]) ++covered;
    seen[static_cast<std::size_t>(c.fused.op)] = true;
    Program fused = ExpansionHarness({c.fused}, c.delta);
    Program raw = ExpansionHarness(c.base, c.delta);
    const auto fused_report = minnow::VerifyProgram(fused);
    const auto raw_report = minnow::VerifyProgram(raw);
    ASSERT_TRUE(fused_report.ok) << name << ": " << fused_report.message;
    ASSERT_TRUE(raw_report.ok) << name << ": " << raw_report.message;
    // bytecode.h's definition: the expansion is exactly the base sequence
    // (the raw program's pcs after the body sit n - 1 further on), and the
    // shape is its composition.
    const minnow::Insn& at = fused.functions[0].code[kHarnessPrelude];
    minnow::Insn ops[minnow::kMaxExpansion];
    const int n = minnow::Expand(at, ops);
    ASSERT_EQ(static_cast<std::size_t>(n), c.base.size()) << name;
    for (int i = 0; i < n; ++i) {
      const minnow::Insn& want =
          raw.functions[0].code[kHarnessPrelude + static_cast<std::size_t>(i)];
      EXPECT_EQ(ops[i].op, want.op) << name << " op " << i;
      const std::int64_t shift = want.op == minnow::Op::kJmpIfTrue ? n - 1 : 0;
      EXPECT_EQ(ops[i].operand + shift, want.operand) << name << " op " << i;
    }
    const minnow::Shape shape = minnow::ShapeOf(fused, at);
    EXPECT_EQ(shape.pushes - shape.pops, c.delta) << name;
    EXPECT_EQ(shape.branch, ops[n - 1].op == minnow::Op::kJmpIfTrue) << name;
    for (const auto& [a, b] : args) {
      const ExpansionRun want = RunExpansion(raw, minnow::DispatchMode::kSwitch, a, b);
      for (const auto dispatch : {minnow::DispatchMode::kSwitch, minnow::DispatchMode::kThreaded,
                                  minnow::DispatchMode::kJit}) {
        const ExpansionRun got_raw = RunExpansion(raw, dispatch, a, b);
        ExpansionRun got_fused = RunExpansion(fused, dispatch, a, b);
        EXPECT_EQ(got_raw, want) << name << " raw, dispatch " << static_cast<int>(dispatch);
        got_fused.retired += c.base.size() - 1;
        EXPECT_EQ(got_fused, want) << name << " fused, dispatch " << static_cast<int>(dispatch)
                                   << " a=" << a << " b=" << b;
      }
    }
  }
  int superinstructions = 0;
  for (std::size_t op = 0; op < minnow::kNumOps; ++op) {
    superinstructions += minnow::IsSuperinstruction(static_cast<minnow::Op>(op)) ? 1 : 0;
  }
  EXPECT_EQ(covered, superinstructions);
}

TEST(Disassembler, ProducesReadableOutput) {
  const Program program = CompiledProbe();
  const std::string text = minnow::Disassemble(program.functions[0]);
  EXPECT_NE(text.find("fn f"), std::string::npos);
  EXPECT_NE(text.find("add.i"), std::string::npos);
  EXPECT_NE(text.find("ret"), std::string::npos);
}

}  // namespace
