// Optimizer tests: the pass must shrink code, preserve verifiability, and —
// above all — never change observable behavior (differential execution
// against the unoptimized program, including trap preservation, and under
// the JIT).

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "src/minnow/compiler.h"
#include "src/minnow/diag.h"
#include "src/minnow/optimizer.h"
#include "src/minnow/verifier.h"
#include "src/minnow/vm.h"

namespace {

using minnow::Compile;
using minnow::Optimize;
using minnow::Program;
using minnow::Trap;
using minnow::Value;
using minnow::VM;

Program Optimized(const std::string& source) {
  Program program = Compile(source);
  Optimize(program);
  const auto report = minnow::VerifyProgram(program);
  EXPECT_TRUE(report.ok) << report.message;
  return program;
}

// Runs `fn(args)` on the interpreter for both the plain and the optimized
// program; the two outcomes must agree.
void Differential(const std::string& source, const std::string& fn,
                  const std::vector<std::int64_t>& args) {
  std::vector<Value> values;
  for (const std::int64_t a : args) {
    values.push_back(Value::Int(a));
  }

  auto outcome = [&](Program program) -> std::pair<bool, std::int64_t> {
    VM vm(std::move(program));
    vm.RunInit();
    try {
      return {false, vm.Call(fn, values).AsInt()};
    } catch (const Trap&) {
      return {true, 0};
    }
  };

  const auto plain = outcome(Compile(source));
  Program optimized_program = Compile(source);
  Optimize(optimized_program);
  ASSERT_TRUE(minnow::VerifyProgram(optimized_program).ok);
  const auto optimized = outcome(std::move(optimized_program));

  ASSERT_EQ(plain.first, optimized.first) << source;
  if (!plain.first) {
    ASSERT_EQ(plain.second, optimized.second) << source;
  }
}

TEST(Optimizer, FoldsConstantExpressions) {
  Program program = Compile("fn f() -> int { return 2 + 3 * 4 - (10 / 2); }");
  const std::size_t before = program.functions[0].code.size();
  const auto stats = Optimize(program);
  EXPECT_LT(program.functions[0].code.size(), before);
  EXPECT_GT(stats.constants_folded, 0u);
  // The whole body should reduce to [Const 9][Ret].
  EXPECT_LE(program.functions[0].code.size(), 2u);

  VM vm(std::move(program));
  vm.RunInit();
  EXPECT_EQ(vm.Call("f", {}).AsInt(), 9);
}

TEST(Optimizer, FoldsUnaryAndCasts) {
  Program program = Optimized("fn f() -> int { return int(~u32(0)) + -5 + byte(300); }");
  VM vm(std::move(program));
  vm.RunInit();
  EXPECT_EQ(vm.Call("f", {}).AsInt(), 0xFFFFFFFFll - 5 + 44);
}

TEST(Optimizer, DoesNotFoldTrappingDivision) {
  // 1/0 must still trap at runtime, not disappear or fold.
  Program program = Optimized("fn f() -> int { return 1 / 0; }");
  VM vm(std::move(program));
  vm.RunInit();
  EXPECT_THROW(vm.Call("f", {}), Trap);
}

TEST(Optimizer, FoldsConstantConditions) {
  Program program = Compile(R"(
    fn f() -> int {
      if (true) { return 1; } else { return 2; }
    })");
  const auto stats = Optimize(program);
  EXPECT_GT(stats.branches_folded + stats.unreachable_removed, 0u);
  VM vm(std::move(program));
  vm.RunInit();
  EXPECT_EQ(vm.Call("f", {}).AsInt(), 1);
}

TEST(Optimizer, RemovesUnreachableCode) {
  Program program = Compile(R"(
    fn f(x: int) -> int {
      return x;
      while (true) { x = x + 1; }
    })");
  const std::size_t before = program.functions[0].code.size();
  const auto stats = Optimize(program);
  EXPECT_GT(stats.unreachable_removed, 0u);
  EXPECT_LT(program.functions[0].code.size(), before);
  VM vm(std::move(program));
  vm.RunInit();
  EXPECT_EQ(vm.Call("f", {Value::Int(7)}).AsInt(), 7);
}

TEST(Optimizer, PreservesLoopsAndBranches) {
  Differential(R"(
    fn f(n: int) -> int {
      var total: int = 0;
      for (var i: int = 0; i < n; i = i + 1) {
        if (i % 3 == 0) { total = total + i * 2; }
        else { total = total - 1; }
      }
      return total;
    })",
               "f", {57});
}

TEST(Optimizer, PreservesTrapsExactly) {
  Differential("fn f(i: int) -> int { var a: int[] = new int[4]; return a[i + 2 * 2]; }", "f",
               {0});
  Differential("fn f(x: int) -> int { return (8 - 8) / x + 10 / (x - x); }", "f", {3});
  Differential("fn f(x: int) -> int { if (x > 0) { return 1; } }", "f", {-1});
}

TEST(Optimizer, PreservesDataStructuresAndCalls) {
  Differential(R"(
    struct Node { v: int; next: Node; }
    fn sum(head: Node) -> int {
      var total: int = 0;
      var cur: Node = head;
      while (cur != null) { total = total + cur.v; cur = cur.next; }
      return total;
    }
    fn f(n: int) -> int {
      var head: Node = null;
      for (var i: int = 0; i < n; i = i + 1) {
        var node: Node = new Node();
        node.v = i * (2 + 3);
        node.next = head;
        head = node;
      }
      return sum(head);
    })",
               "f", {40});
}

TEST(Optimizer, OptimizedCodeRunsOnTranslatedEngine) {
  Program program = Optimized(R"(
    fn f(n: int) -> int {
      var total: int = 0;
      for (var i: int = 0; i < n; i = i + 1) { total = total + (i ^ (1 + 2)); }
      return total;
    })");
  // Java/translated is the JIT: optimized bytecode must compile and agree
  // with the interpreter on the same program.
  minnow::VmOptions jit_options;
  jit_options.dispatch = minnow::DispatchMode::kJit;
  VM jit(program, jit_options);
  jit.RunInit();
  VM vm(std::move(program));
  vm.RunInit();
  EXPECT_EQ(jit.Call("f", {Value::Int(100)}).AsInt(), vm.Call("f", {Value::Int(100)}).AsInt());
}

TEST(Optimizer, ShrinksMd5GraftBytecode) {
  // A realistic program: the MD5 graft source has foldable address math.
  Program plain = Compile(R"(
    var x: u32[] = new u32[16];
    fn touch() -> int {
      x[2 * 4] = u32(0x12345678) + u32(1);
      return int(x[8]) + (64 - 16) / 4;
    })");
  Program optimized = plain;
  const auto stats = Optimize(optimized);
  EXPECT_LT(stats.instructions_after, stats.instructions_before);

  VM vm_plain(std::move(plain));
  vm_plain.RunInit();
  VM vm_optimized(std::move(optimized));
  vm_optimized.RunInit();
  EXPECT_EQ(vm_plain.Call("touch", {}).AsInt(), vm_optimized.Call("touch", {}).AsInt());
}

TEST(OptimizerProperty, RandomProgramsSurviveOptimization) {
  // A parameterized expression zoo: all constant subexpressions fold, all
  // behavior is preserved for many inputs.
  const char* source = R"(
    fn f(a: int, b: int) -> int {
      var x: int = a * (3 + 4) - b / (2 + 3);
      var y: u32 = u32(x) + u32(0xFF00) * u32(2);
      if (x > 100 - 50 || b < 0 - 10) { y = y ^ u32(1 << 4); }
      while (x > 0 && x % (5 - 3) == 0) { x = x / 2; }
      return x + int(y & u32(0xFFFF));
    })";
  std::mt19937_64 rng(8);
  for (int i = 0; i < 40; ++i) {
    Differential(source, "f",
                 {static_cast<std::int64_t>(rng() % 10000) - 5000,
                  static_cast<std::int64_t>(rng() % 10000) - 5000});
  }
}

TEST(Optimizer, InstructionCountDropsOnRetiredWork) {
  // Optimized code must retire fewer instructions for the same result.
  const char* source = R"(
    fn work() -> int {
      var total: int = 0;
      for (var i: int = 0; i < 1000; i = i + 1) {
        total = total + (2 + 3) * 4 - (6 / 3);  // constant-heavy body
      }
      return total;
    })";
  VM plain(Compile(source));
  plain.RunInit();
  const std::int64_t expect = plain.Call("work", {}).AsInt();
  const std::uint64_t plain_insns = plain.instructions_retired();

  Program optimized_program = Compile(source);
  Optimize(optimized_program);
  VM optimized(std::move(optimized_program));
  optimized.RunInit();
  EXPECT_EQ(optimized.Call("work", {}).AsInt(), expect);
  EXPECT_LT(optimized.instructions_retired(), plain_insns);
}

}  // namespace
