// Minnow execution tests: interpreter semantics, traps, fuel, GC, host
// calls, and the load-time verifier's rejection of hostile bytecode.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/minnow/compiler.h"
#include "src/minnow/diag.h"
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

TEST(Disassembler, ProducesReadableOutput) {
  const Program program = CompiledProbe();
  const std::string text = minnow::Disassemble(program.functions[0]);
  EXPECT_NE(text.find("fn f"), std::string::npos);
  EXPECT_NE(text.find("add.i"), std::string::npos);
  EXPECT_NE(text.find("ret"), std::string::npos);
}

}  // namespace
