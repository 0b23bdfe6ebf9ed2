// Minnow JIT tests: native execution must be observationally identical to the
// interpreter — results, trap messages, fuel, and the retired-instruction
// ledger, bit for bit. Every test here runs the same program under an
// interpreter VM and a kJit VM and compares; in builds without JIT support
// (GRAFTLAB_JIT=OFF, non-x86-64) the kJit VM silently falls back to the
// interpreter and the comparisons become trivially true, so the suite is
// portable.
//
// The forced-deopt tests use VmOptions::jit_compile_filter to compile chosen
// opcodes as unconditional side exits, driving the deopt machinery through
// states a healthy program would rarely hit.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/grafts/minnow_grafts.h"
#include "src/minnow/compiler.h"
#include "src/minnow/diag.h"
#include "src/minnow/jit.h"
#include "src/minnow/optimizer.h"
#include "src/minnow/verifier.h"
#include "src/minnow/vm.h"

namespace {

using minnow::DispatchMode;
using minnow::HostDecl;
using minnow::Jit;
using minnow::JitStats;
using minnow::Program;
using minnow::Trap;
using minnow::Type;
using minnow::Value;
using minnow::VM;
using minnow::VmOptions;

VmOptions JitOpts() {
  VmOptions options;
  options.dispatch = DispatchMode::kJit;
  return options;
}

// Everything an extension's execution can make observable.
struct Outcome {
  bool trapped = false;
  std::string message;
  std::int64_t result = 0;
  std::uint64_t retired = 0;
  std::int64_t fuel = 0;

  bool operator==(const Outcome& other) const = default;
};

// `fuel_after_init` < -1 leaves the options' budget alone; otherwise the
// budget is set after RunInit so sweeps measure only the call under test.
Outcome RunOne(const Program& program, const VmOptions& options, const std::string& fn,
               std::initializer_list<std::int64_t> args = {},
               std::int64_t fuel_after_init = -2) {
  VM vm(program, options);
  vm.RunInit();
  if (fuel_after_init >= -1) {
    vm.SetFuel(fuel_after_init);
  }
  std::vector<Value> values;
  for (const std::int64_t a : args) {
    values.push_back(Value::Int(a));
  }
  Outcome out;
  try {
    out.result = vm.Call(fn, values).AsInt();
  } catch (const Trap& trap) {
    out.trapped = true;
    out.message = trap.what();
  }
  out.retired = vm.instructions_retired();
  out.fuel = vm.fuel();
  return out;
}

// Runs `fn` under the interpreter and under the JIT with identical options
// and asserts the outcomes match exactly. Returns the interpreter outcome
// for additional assertions.
Outcome ExpectSame(const std::string& source, const std::string& fn,
                   std::initializer_list<std::int64_t> args = {},
                   VmOptions options = VmOptions{}) {
  const Program program = minnow::Compile(source);
  options.dispatch = DispatchMode::kDefault;
  const Outcome interp = RunOne(program, options, fn, args);
  options.dispatch = DispatchMode::kJit;
  const Outcome jit = RunOne(program, options, fn, args);
  EXPECT_EQ(interp, jit) << "interp: trapped=" << interp.trapped << " '" << interp.message
                         << "' result=" << interp.result << " retired=" << interp.retired
                         << " fuel=" << interp.fuel << "\njit:    trapped=" << jit.trapped
                         << " '" << jit.message << "' result=" << jit.result
                         << " retired=" << jit.retired << " fuel=" << jit.fuel;
  return interp;
}

TEST(JitBasics, ReportsDispatchModeAndStats) {
  VM vm(minnow::Compile("fn f() -> int { return 41 + 1; }"), JitOpts());
  vm.RunInit();
  if (!VM::JitDispatchAvailable()) {
    EXPECT_NE(vm.dispatch(), DispatchMode::kJit);
    EXPECT_EQ(vm.jit_stats(), nullptr);
    return;
  }
  ASSERT_EQ(vm.dispatch(), DispatchMode::kJit);
  const JitStats* stats = vm.jit_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->compiled_fns, 0u);
  EXPECT_GT(stats->bytes, 0u);
  EXPECT_EQ(vm.Call("f", {}).AsInt(), 42);
  EXPECT_EQ(stats->deopts, 0u) << "straight-line arithmetic must not deopt";
}

TEST(JitBasics, Arithmetic) {
  ExpectSame("fn f() -> int { return 2 + 3 * 4 - 6 / 2; }", "f");
  ExpectSame("fn f() -> int { return 17 % 5; }", "f");
  ExpectSame("fn f() -> int { return -7 / 2; }", "f");
  ExpectSame("fn f() -> int { return (1 << 40) >> 35; }", "f");
  ExpectSame("fn f() -> int { return -1 >> 1; }", "f");
  ExpectSame("fn f() -> int { return ~0; }", "f");
  ExpectSame("fn f() -> int { return 12 & 10; }", "f");
  ExpectSame("fn f() -> int { return 12 | 3; }", "f");
  ExpectSame("fn f() -> int { return 12 ^ 10; }", "f");
  ExpectSame("fn f(a: int, b: int) -> int { return a * b + a - b; }", "f", {123456789, -97});
}

TEST(JitBasics, U32Semantics) {
  ExpectSame("fn f() -> int { return int(u32(0xFFFFFFFF) + u32(2)); }", "f");
  ExpectSame("fn f() -> int { return int(u32(0x80000000) << 1); }", "f");
  ExpectSame("fn f() -> int { return int(u32(0x80000000) >> 31); }", "f");
  ExpectSame("fn f() -> int { return int(u32(7) * u32(0x90000001)); }", "f");
  ExpectSame("fn f() -> int { return int(u32(100) / u32(7)) + int(u32(100) % u32(7)); }", "f");
  ExpectSame("fn f(n: int) -> int { return int(u32(n) >> 33); }", "f", {512});  // count &31
}

TEST(JitBasics, ComparisonsAndBools) {
  ExpectSame(R"(fn f(a: int, b: int) -> int {
    var n: int = 0;
    if (a < b) { n = n + 1; }
    if (a <= b) { n = n + 2; }
    if (a > b) { n = n + 4; }
    if (a >= b) { n = n + 8; }
    if (a == b) { n = n + 16; }
    if (a != b) { n = n + 32; }
    if (!(a == b)) { n = n + 64; }
    return n;
  })",
             "f", {-3, 7});
  ExpectSame("fn f(a: int, b: int) -> bool { return a < b && b < 100; }", "f", {1, 2});
}

TEST(JitBasics, LoopsAndLocals) {
  ExpectSame(R"(fn f(n: int) -> int {
    var total: int = 0;
    for (var i: int = 1; i <= n; i = i + 1) { total = total + i * i; }
    return total;
  })",
             "f", {1000});
  ExpectSame(R"(fn collatz(n: int) -> int {
    var steps: int = 0;
    while (n != 1) {
      if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
      steps = steps + 1;
    }
    return steps;
  })",
             "collatz", {27});
}

TEST(JitCalls, RecursionAndMultiFunction) {
  ExpectSame(R"(
    fn fib(n: int) -> int { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
    fn f(n: int) -> int { return fib(n); }
  )",
             "f", {18});
  ExpectSame(R"(
    fn square(x: int) -> int { return x * x; }
    fn cube(x: int) -> int { return square(x) * x; }
    fn f(n: int) -> int {
      var total: int = 0;
      for (var i: int = 0; i < n; i = i + 1) { total = total + cube(i) - square(i); }
      return total;
    }
  )",
             "f", {200});
}

TEST(JitCalls, DepthLimitTrapMatches) {
  const Outcome out = ExpectSame(
      "fn down(n: int) -> int { return down(n + 1); } fn f() -> int { return down(0); }", "f");
  EXPECT_TRUE(out.trapped);
  EXPECT_EQ(out.message, "call depth limit exceeded");
}

TEST(JitHeap, ArraysAllKinds) {
  ExpectSame(R"(fn f() -> int {
    var a: int[] = new int[10];
    var w: u32[] = new u32[4];
    var b: byte[] = new byte[4];
    var flags: bool[] = new bool[2];
    a[3] = 70000000000;
    w[1] = u32(0xFFFFFFFF);
    b[0] = byte(300);
    flags[1] = true;
    var total: int = a[3] + int(w[1]) + int(b[0]);
    if (flags[1]) { total = total + a.len + w.len + b.len + flags.len; }
    return total;
  })",
             "f");
}

TEST(JitHeap, StructsAndLinkedList) {
  ExpectSame(R"(
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
      while (cur != null) { total = total + cur.value; cur = cur.next; }
      return total;
    }
  )",
             "f", {500});
}

TEST(JitHeap, GcRunsUnderNativeCode) {
  // Allocation churn well past the first GC threshold; a wrong root set
  // (stale sp) would reclaim live objects and corrupt the sums.
  ExpectSame(R"(
    struct Blob { data: int[]; }
    fn f(n: int) -> int {
      var total: int = 0;
      for (var i: int = 0; i < n; i = i + 1) {
        var b: Blob = new Blob();
        b.data = new int[1000];
        b.data[999] = i;
        total = total + b.data[999];
      }
      return total;
    }
  )",
             "f", {2000});
}

TEST(JitHeap, HeapLimitTrapMatches) {
  VmOptions options;
  options.heap_limit = 1u << 20;
  const Outcome out = ExpectSame(R"(
    struct Keep { data: int[]; next: Keep; }
    fn f() -> int {
      var head: Keep = null;
      for (var i: int = 0; i < 64; i = i + 1) {
        var k: Keep = new Keep();
        k.data = new int[8192];
        k.next = head;
        head = k;
      }
      return 0;
    }
  )",
                                 "f", {}, options);
  EXPECT_TRUE(out.trapped);
  EXPECT_EQ(out.message, "extension heap limit exceeded");
}

TEST(JitTraps, MessagesMatchInterpreter) {
  struct Case {
    const char* source;
    std::int64_t arg;
    const char* message;
  };
  const Case cases[] = {
      {"fn f(d: int) -> int { return 1 / d; }", 0, "integer division by zero"},
      {"fn f(d: int) -> int { return 1 % d; }", 0, "integer modulo by zero"},
      {"fn f(d: int) -> int { return (0 - 9223372036854775807 - 1) / (0 - d); }", 1,
       "integer division overflow"},
      {"fn f(d: int) -> int { return int(u32(1) / u32(d - 1)); }", 1, "u32 division by zero"},
      {"fn f(d: int) -> int { var a: int[] = null; return a[d]; }", 0,
       "null dereference in array load"},
      {"fn f(d: int) -> int { var a: int[] = new int[4]; return a[d + 4]; }", 1,
       "array index 5 out of bounds [0, 4)"},
      {"fn f(d: int) -> int { var a: int[] = new int[4]; return a[0 - d]; }", 1,
       "array index -1 out of bounds [0, 4)"},
      {"fn f(d: int) -> int { var a: int[] = new int[d - 2]; return a.len; }", 1,
       "bad array length -1"},
      {"struct S { x: int; } fn f(d: int) -> int { var s: S = null; return s.x + d; }", 1,
       "null dereference in field load"},
  };
  for (const auto& [source, arg, message] : cases) {
    const Outcome out = ExpectSame(source, "f", {arg});
    EXPECT_TRUE(out.trapped) << source;
    EXPECT_EQ(out.message, message) << source;
  }
}

TEST(JitTraps, VmUsableAfterNativeTrap) {
  VM vm(minnow::Compile("fn bad(d: int) -> int { return 1 / d; }"
                        "fn good() -> int { return 7; }"),
        JitOpts());
  vm.RunInit();
  EXPECT_THROW(vm.Call("bad", {Value::Int(0)}), Trap);
  EXPECT_EQ(vm.Call("good", {}).AsInt(), 7);
  EXPECT_THROW(vm.Call("bad", {Value::Int(0)}), Trap);
  EXPECT_EQ(vm.Call("bad", {Value::Int(2)}).AsInt(), 0);
}

// The strongest equivalence check in the file: for every fuel budget from 0
// to "enough", the trap/no-trap decision, the result, the remaining fuel,
// and the retired count must be bit-identical between interpreter and JIT.
// This walks the fuel exit through every basic-block boundary and through
// mid-block exhaustion at every possible pc.
TEST(JitFuel, ExhaustionSweepIsBitIdentical) {
  const std::string source = R"(
    fn helper(x: int) -> int { return x * 2 + 1; }
    fn f(n: int) -> int {
      var a: int[] = new int[8];
      var total: int = 0;
      for (var i: int = 0; i < n; i = i + 1) {
        a[i % 8] = helper(i);
        total = total + a[i % 8];
      }
      return total;
    }
  )";
  const Program program = minnow::Compile(source);
  const VmOptions interp_opts;
  const VmOptions jit_opts = JitOpts();
  // First find the total cost, then sweep every budget below it.
  const Outcome full = RunOne(program, interp_opts, "f", {6});
  ASSERT_FALSE(full.trapped);
  for (std::int64_t fuel = 0; fuel <= static_cast<std::int64_t>(full.retired) + 1; ++fuel) {
    const Outcome interp = RunOne(program, interp_opts, "f", {6}, fuel);
    const Outcome jit = RunOne(program, jit_opts, "f", {6}, fuel);
    EXPECT_EQ(interp, jit) << "fuel budget " << fuel << ": interp(trapped=" << interp.trapped
                           << " result=" << interp.result << " retired=" << interp.retired
                           << " fuel=" << interp.fuel << ") jit(trapped=" << jit.trapped
                           << " result=" << jit.result << " retired=" << jit.retired
                           << " fuel=" << jit.fuel << ")";
    if (interp.trapped) {
      EXPECT_EQ(interp.message, "fuel exhausted: graft preempted");
    }
  }
}

TEST(JitHosts, CallHostFromNativeCode) {
  HostDecl host;
  host.name = "k_add";
  host.params = {Type::Int(), Type::Int()};
  host.ret = Type::Int();
  const Program program =
      minnow::Compile("fn f(a: int, b: int) -> int { return k_add(a, b) * 2; }", {host});
  for (const DispatchMode mode : {DispatchMode::kDefault, DispatchMode::kJit}) {
    VmOptions options;
    options.dispatch = mode;
    VM vm(program, options);
    vm.BindHost("k_add", [](VM&, std::span<const Value> args) {
      return Value::Int(args[0].AsInt() + args[1].AsInt());
    });
    vm.RunInit();
    EXPECT_EQ(vm.Call("f", {Value::Int(3), Value::Int(4)}).AsInt(), 14);
  }
}

TEST(JitHosts, HostSeesExactLedgersAndMaySetFuel) {
  HostDecl host;
  host.name = "k_probe";
  host.ret = Type::Int();
  const Program program = minnow::Compile(R"(
    fn f() -> int {
      var a: int = 1 + 2;
      var b: int = a * a;
      return k_probe() + b;
    })",
                                          {host});
  std::uint64_t seen_interp = 0;
  std::uint64_t seen_jit = 0;
  for (const DispatchMode mode : {DispatchMode::kDefault, DispatchMode::kJit}) {
    VmOptions options;
    options.dispatch = mode;
    options.fuel = 1000;
    VM vm(program, options);
    std::uint64_t* seen = mode == DispatchMode::kJit ? &seen_jit : &seen_interp;
    vm.BindHost("k_probe", [seen](VM& inner, std::span<const Value>) {
      *seen = inner.instructions_retired();
      inner.SetFuel(5000);  // the JIT must pick the new budget up
      return Value::Int(static_cast<std::int64_t>(inner.fuel()));
    });
    vm.RunInit();
    EXPECT_EQ(vm.Call("f", {}).AsInt(), 5009);
  }
  // A host observing mid-execution state is the sharpest ledger probe there
  // is: the batched block accounting must have charged exactly the retired
  // prefix at the call instruction.
  EXPECT_EQ(seen_interp, seen_jit);
}

TEST(JitHosts, ReentrantHostCallNests) {
  HostDecl host;
  host.name = "k_reenter";
  host.params = {Type::Int()};
  host.ret = Type::Int();
  const Program program = minnow::Compile(R"(
    fn leaf(x: int) -> int { return x * 3; }
    fn f(n: int) -> int { return k_reenter(n) + 1; }
  )",
                                          {host});
  for (const DispatchMode mode : {DispatchMode::kDefault, DispatchMode::kJit}) {
    VmOptions options;
    options.dispatch = mode;
    VM vm(program, options);
    vm.BindHost("k_reenter", [](VM& inner, std::span<const Value> args) {
      // Host reenters the VM while a native frame is live below it.
      return inner.Call("leaf", {Value::Int(args[0].AsInt() + 1)});
    });
    vm.RunInit();
    EXPECT_EQ(vm.Call("f", {Value::Int(5)}).AsInt(), 19);
  }
}

TEST(JitHosts, UnboundHostTrapMatchesInterpreter) {
  HostDecl host;
  host.name = "k_missing";
  host.ret = Type::Int();
  const Program program = minnow::Compile("fn f() -> int { return 1 + k_missing(); }", {host});
  std::string messages[2];
  int i = 0;
  for (const DispatchMode mode : {DispatchMode::kDefault, DispatchMode::kJit}) {
    VmOptions options;
    options.dispatch = mode;
    VM vm(program, options);
    vm.RunInit();
    try {
      vm.Call("f", {});
      FAIL() << "unbound host import must trap";
    } catch (const Trap& trap) {
      messages[i++] = trap.what();
    }
  }
  EXPECT_EQ(messages[0], messages[1]);
  EXPECT_NE(messages[0].find("k_missing"), std::string::npos);
}

TEST(JitElide, CertifiedProgramRunsNativelyWithoutChecks) {
  VmOptions options;
  options.elide_checks = true;
  ExpectSame(R"(
    var table: int[] = new int[64];
    fn f(n: int) -> int {
      var total: int = 0;
      for (var i: int = 0; i < table.len; i = i + 1) { table[i] = i * n; }
      for (var i: int = 0; i < table.len; i = i + 1) { total = total + table[i]; }
      return total;
    }
  )",
             "f", {3}, options);
}

TEST(JitElide, TrapInsideElidedProgramMatches) {
  // The elision pass proves the table accesses; the division stays checked.
  // A trap inside a certified program must carry the interpreter's message
  // and leave identical ledgers even when the trapping site is surrounded by
  // `.nc` code emitted with no checks at all.
  VmOptions options;
  options.elide_checks = true;
  const Outcome out = ExpectSame(R"(
    var table: int[] = new int[8];
    fn f(d: int) -> int {
      var total: int = 0;
      for (var i: int = 0; i < table.len; i = i + 1) { table[i] = i; }
      for (var i: int = 0; i < table.len; i = i + 1) { total = total + table[i] / d; }
      return total;
    }
  )",
                                 "f", {0}, options);
  EXPECT_TRUE(out.trapped);
  EXPECT_EQ(out.message, "integer division by zero");
}

TEST(JitElide, CallBeforeRunInitRefusedUnderJit) {
  VmOptions options = JitOpts();
  options.elide_checks = true;
  VM vm(minnow::Compile("var g: int[] = new int[4]; fn f() -> int { return g[0]; }"), options);
  try {
    vm.Call("f", {});
    FAIL() << "certified program must refuse Call before RunInit";
  } catch (const Trap& trap) {
    EXPECT_STREQ(trap.what(), "certified program called before RunInit");
  }
  vm.RunInit();
  EXPECT_EQ(vm.Call("f", {}).AsInt(), 0);
}

// --- forced deopt: jit_compile_filter turns chosen opcodes into side exits ---

TEST(JitDeopt, FilteredOpcodeDeoptsWithIdenticalState) {
  const std::string source = R"(
    fn f(n: int) -> int {
      var total: int = 0;
      for (var i: int = 0; i < n; i = i + 1) {
        if (i % 3 == 0) { total = total + i * i; } else { total = total - i; }
      }
      return total;
    }
  )";
  const Program program = minnow::Compile(source);
  const Outcome interp = RunOne(program, VmOptions{}, "f", {100});
  // Deny a different opcode each round so the deopt pc lands at many distinct
  // block offsets; results and ledgers must never move.
  const minnow::Op denied[] = {minnow::Op::kMulI, minnow::Op::kModI, minnow::Op::kAddI};
  for (const minnow::Op deny : denied) {
    VmOptions options = JitOpts();
    options.jit_compile_filter = [deny](minnow::Op op) { return op != deny; };
    VM vm(program, options);
    vm.RunInit();
    Outcome jit;
    jit.result = vm.Call("f", {Value::Int(100)}).AsInt();
    jit.retired = vm.instructions_retired();
    jit.fuel = vm.fuel();
    EXPECT_EQ(interp, jit) << "denied opcode " << minnow::OpName(deny);
    if (vm.dispatch() == DispatchMode::kJit) {
      EXPECT_GT(vm.jit_stats()->deopts, 0u)
          << "filter on " << minnow::OpName(deny) << " must force deopts";
    }
  }
}

TEST(JitDeopt, FuelSweepWithForcedDeopts) {
  // Deopts interleaved with fuel accounting: budgets must stay bit-exact
  // even when execution ping-pongs between native code and the interpreter.
  const std::string source = R"(
    fn f(n: int) -> int {
      var total: int = 0;
      for (var i: int = 1; i <= n; i = i + 1) { total = total + i * i; }
      return total;
    }
  )";
  const Program program = minnow::Compile(source);
  const VmOptions interp_opts;
  VmOptions jit_opts = JitOpts();
  jit_opts.jit_compile_filter = [](minnow::Op op) { return op != minnow::Op::kMulI; };
  const Outcome full = RunOne(program, interp_opts, "f", {5});
  for (std::int64_t fuel = 0; fuel <= static_cast<std::int64_t>(full.retired) + 1; ++fuel) {
    const Outcome interp = RunOne(program, interp_opts, "f", {5}, fuel);
    const Outcome jit = RunOne(program, jit_opts, "f", {5}, fuel);
    EXPECT_EQ(interp, jit) << "fuel budget " << fuel;
  }
}

TEST(JitDeopt, UncompiledCalleeFallsBackPerEntry) {
  // Filter out an opcode only `helper` uses: the helper fails to compile
  // entirely (bailout), while `f` compiles and must deopt at the call.
  const std::string source = R"(
    fn helper(x: int) -> int { return x % 7; }
    fn f(n: int) -> int {
      var total: int = 0;
      for (var i: int = 0; i < n; i = i + 1) { total = total + helper(i); }
      return total;
    }
  )";
  const Program program = minnow::Compile(source);
  const Outcome interp = RunOne(program, VmOptions{}, "f", {50});
  VmOptions options = JitOpts();
  options.jit_compile_filter = [](minnow::Op op) { return op != minnow::Op::kModI; };
  const Outcome jit = RunOne(program, options, "f", {50});
  EXPECT_EQ(interp, jit);
}

TEST(JitArena, BudgetBailsOutGracefully) {
  VmOptions options = JitOpts();
  options.jit_arena_max = 64;  // nothing fits alongside the trampoline
  VM vm(minnow::Compile("fn f() -> int { return 6 * 7; }"), options);
  vm.RunInit();
  EXPECT_EQ(vm.Call("f", {}).AsInt(), 42);
  EXPECT_NE(vm.dispatch(), DispatchMode::kJit) << "nothing compiled -> interpreter";
}

TEST(JitArena, FnSizeLimitBailsOut) {
  VmOptions options = JitOpts();
  options.jit_max_fn_insns = 1;
  VM vm(minnow::Compile("fn f(n: int) -> int { return n * n + 1; }"), options);
  vm.RunInit();
  EXPECT_EQ(vm.Call("f", {Value::Int(9)}).AsInt(), 82);
}

TEST(JitProfile, ProfilingVmStaysOnInterpreter) {
  VmOptions options = JitOpts();
  options.profile_opcodes = true;
  VM vm(minnow::Compile("fn f() -> int { return 1 + 2; }"), options);
  vm.RunInit();
  EXPECT_EQ(vm.Call("f", {}).AsInt(), 3);
  EXPECT_NE(vm.dispatch(), DispatchMode::kJit);
  EXPECT_FALSE(vm.OpcodeCounts().empty());
}

// --- register-resident state, rebuilt only when an exit fires ---
//
// These programs keep loop-carried locals pinned in registers, operands on
// the virtual stack, and the arguments of spliced callees unmaterialized,
// so every exit class must write back its own deopt map before the
// interpreter resumes. Results, trap messages (several quote operand
// values), and both ledgers must equal the interpreter's.

// md5-shaped: five hot locals, a spliced leaf callee, power-of-two modulo,
// a division whose divisor reaches zero when i == d, and an opcode (`~`)
// only the sixth iteration runs.
constexpr char kRegisterHeavy[] = R"(
  fn mix(x: int, k: int) -> int { if (k == 0) { return x; } return (x << k) ^ (x >> 3); }
  fn f(n: int, d: int) -> int {
    var a: int = 1;
    var b: int = 2;
    var c: int = 3;
    var e: int = 4;
    var t: int[] = new int[8];
    for (var i: int = 0; i < n; i = i + 1) {
      var s: int = a + mix(b ^ c, i % 4) + t[i % 8] * e;
      t[(i + a) & 7] = s / (d - i);
      if (i == 5) { c = ~c; }
      a = e;
      e = c;
      c = b;
      b = s;
    }
    return a + b + c + e;
  }
)";

TEST(JitTier2, CheckTrapsDeoptFromRegisterState) {
  ExpectSame(kRegisterHeavy, "f", {12, 100});
  const Outcome div = ExpectSame(kRegisterHeavy, "f", {40, 17});
  EXPECT_TRUE(div.trapped);
  EXPECT_EQ(div.message, "integer division by zero");
  // The trap message quotes the index the interpreter finds in the rebuilt
  // frame: a wrong write-back of the register-held operands shows up here.
  const Outcome bounds = ExpectSame(R"(fn f(n: int) -> int {
    var t: int[] = new int[16];
    var a: int = 3;
    var b: int = 5;
    for (var i: int = 0; i < n; i = i + 1) {
      a = a * 3 + b;
      b = b ^ i;
      t[(a ^ b) & 15] = i;
    }
    return t[a - a + n + b - b];
  })",
                                    "f", {40});
  EXPECT_TRUE(bounds.trapped);
  EXPECT_EQ(bounds.message, "array index 40 out of bounds [0, 16)");
  const Outcome null = ExpectSame(R"(
    struct S { x: int; }
    fn f(n: int) -> int {
      var s: S = new S();
      var k: int = 0;
      for (var i: int = 0; i < n; i = i + 1) {
        s.x = s.x + i;
        k = k + s.x;
        if (i == 5) { s = null; }
      }
      return k;
    })",
                                  "f", {9});
  EXPECT_TRUE(null.trapped);
  EXPECT_EQ(null.message, "null dereference in field load");
}

// Every budget from 0 to enough: the fuel exit fires at every block of the
// pinned loop and of the spliced callee, with the operand stack and the
// callee's arguments still in registers.
TEST(JitTier2, FuelExhaustionMidLoopIsBitIdentical) {
  const Program program = minnow::Compile(kRegisterHeavy);
  const Outcome full = RunOne(program, VmOptions{}, "f", {6, 100});
  ASSERT_FALSE(full.trapped);
  for (std::int64_t fuel = 0; fuel <= static_cast<std::int64_t>(full.retired) + 1; ++fuel) {
    const Outcome interp = RunOne(program, VmOptions{}, "f", {6, 100}, fuel);
    const Outcome jit = RunOne(program, JitOpts(), "f", {6, 100}, fuel);
    ASSERT_EQ(interp, jit) << "fuel budget " << fuel << ": interp retired=" << interp.retired
                           << " fuel=" << interp.fuel << " jit retired=" << jit.retired
                           << " fuel=" << jit.fuel;
  }
}

// A deopt the interpreter survives: a filter-denied opcode hands the rest
// of the run to the interpreter, which must find the pinned locals and the
// register-held operands in the frame. `~` first runs in the sixth
// iteration, after every pinned local has moved away from its slot.
TEST(JitTier2, ForcedDeoptFromPinnedLoopMatches) {
  const Program program = minnow::Compile(kRegisterHeavy);
  const Outcome interp = RunOne(program, VmOptions{}, "f", {12, 100});
  for (const minnow::Op deny : {minnow::Op::kNotI, minnow::Op::kMulI, minnow::Op::kDivI}) {
    VmOptions options = JitOpts();
    options.jit_compile_filter = [deny](minnow::Op op) { return op != deny; };
    EXPECT_EQ(interp, RunOne(program, options, "f", {12, 100})) << minnow::OpName(deny);
  }
}

TEST(JitTier2, HostExceptionLeavesExactLedgers) {
  HostDecl host;
  host.name = "k_check";
  host.params = {Type::Int()};
  host.ret = Type::Int();
  const Program program = minnow::Compile(R"(
    fn f(n: int) -> int {
      var a: int = 7;
      var b: int = 1;
      var total: int = 0;
      for (var i: int = 0; i < n; i = i + 1) {
        total = total + k_check(a * i + b) * a;
        a = a + b;
        b = b + 2;
      }
      return total;
    })",
                                          {host});
  Outcome outcomes[2];
  std::vector<std::uint64_t> seen[2];
  std::int64_t after[2] = {0, 0};
  int m = 0;
  for (const DispatchMode mode : {DispatchMode::kDefault, DispatchMode::kJit}) {
    VmOptions options;
    options.dispatch = mode;
    options.fuel = 1'000'000;
    VM vm(program, options);
    std::vector<std::uint64_t>* log = &seen[m];
    vm.BindHost("k_check", [log](VM& inner, std::span<const Value> args) {
      log->push_back(inner.instructions_retired());
      // The argument was computed from pinned locals: the message proves
      // it reached the host's span intact.
      if (args[0].AsInt() > 200) throw Trap("host refused " + std::to_string(args[0].AsInt()));
      return Value::Int(args[0].AsInt() % 5);
    });
    vm.RunInit();
    Outcome& out = outcomes[m++];
    try {
      out.result = vm.Call("f", {Value::Int(50)}).AsInt();
    } catch (const Trap& trap) {
      out.trapped = true;
      out.message = trap.what();
    }
    out.retired = vm.instructions_retired();
    out.fuel = vm.fuel();
    // The VM stays usable, and a short run after the exception agrees too.
    after[m - 1] = vm.Call("f", {Value::Int(3)}).AsInt();
  }
  EXPECT_EQ(after[0], after[1]);
  EXPECT_TRUE(outcomes[0].trapped);
  EXPECT_EQ(outcomes[0], outcomes[1]) << outcomes[0].message << " vs " << outcomes[1].message;
  EXPECT_EQ(seen[0], seen[1]);
}

TEST(JitTier2, ExitInsideSplicedCalleeResumesInTheCallee) {
  // `part` is spliced into the loop; its divisor reaches zero at i == 5, so
  // the trap fires inside the splice with its arguments and locals still in
  // registers. The stub must build the callee frame the hot path skipped.
  const std::string source = R"(
    fn part(x: int, d: int) -> int {
      var q: int = x / d;
      return q + x % d;
    }
    fn f(n: int) -> int {
      var acc: int = 0;
      for (var i: int = 0; i < n; i = i + 1) { acc = acc + part(acc + i, 5 - i); }
      return acc;
    })";
  const Outcome trap = ExpectSame(source, "f", {10});
  EXPECT_TRUE(trap.trapped);
  EXPECT_EQ(trap.message, "integer division by zero");
  const Program program = minnow::Compile(source);
  const Outcome full = RunOne(program, VmOptions{}, "f", {4});
  ASSERT_FALSE(full.trapped);
  for (std::int64_t fuel = 0; fuel <= static_cast<std::int64_t>(full.retired) + 1; ++fuel) {
    EXPECT_EQ(RunOne(program, VmOptions{}, "f", {4}, fuel), RunOne(program, JitOpts(), "f", {4}, fuel))
        << "fuel budget " << fuel;
  }
}

// A hand-built program whose element-kind operand disagrees with the array
// it meets at run time: the kind guard deopts and the interpreter, which
// switches on the runtime kind, produces the result.
TEST(JitTier2, ElementKindMismatchDeoptsAndMatches) {
  for (const minnow::TypeKind tag : {minnow::TypeKind::kU32, minnow::TypeKind::kInt}) {
    Program program = minnow::Compile(
        "fn f(a: int[], i: int) -> int { a[i + 1] = a[i] + 1; return a[i + 1] * 2 + a.len; }");
    for (auto& insn : program.functions[static_cast<std::size_t>(program.FindFunction("f"))].code) {
      if (insn.op == minnow::Op::kLoadElem || insn.op == minnow::Op::kStoreElem) {
        insn.operand = static_cast<std::int64_t>(tag);
      }
    }
    ASSERT_TRUE(minnow::VerifyProgram(program).ok);
    std::int64_t results[2];
    std::vector<std::int64_t> arrays[2];
    int m = 0;
    for (const DispatchMode mode : {DispatchMode::kDefault, DispatchMode::kJit}) {
      VmOptions options;
      options.dispatch = mode;
      VM vm(program, options);
      vm.RunInit();
      const std::int64_t init[] = {5, 70000000000, 9};
      minnow::Object* array = vm.NewIntArray(init);
      vm.Pin(array);
      results[m] = vm.Call("f", {Value::Ref(array), Value::Int(1)}).AsInt();
      arrays[m].assign(array->longs().begin(), array->longs().end());
      if (vm.dispatch() == DispatchMode::kJit) {
        if (tag == minnow::TypeKind::kInt) {
          EXPECT_EQ(vm.jit_stats()->deopts, 0u) << "matching kinds stay native";
        } else {
          EXPECT_GT(vm.jit_stats()->deopts, 0u) << "a mismatched kind must deopt";
        }
      }
      ++m;
    }
    EXPECT_EQ(results[0], results[1]);
    EXPECT_EQ(arrays[0], arrays[1]);
    EXPECT_EQ(arrays[0][2], 70000000001);
  }
}

// Flat objects: fields and elements sit at Object::kPayload in the object's
// own allocation, and native code addresses them there after its guards.
// The edges of the payload — the last field, the last element, empty and
// one-element arrays — must load, store and trap exactly as the
// interpreter does, with and without check elision (the .nc forms).
TEST(JitFlatObjects, LastFieldLoadsAndOnePastItTraps) {
  Program program = minnow::Compile(R"(
    struct A { x: int; }
    struct B { p: int; q: int; r: int; }
    fn last(k: int) -> int {
      var b: B = new B();
      b.r = k;
      b.p = b.r + 1;
      return b.r * 3 + b.p + b.q;
    }
    fn past(k: int) -> int {
      var a: A = new A();
      a.x = k;
      return a.x;
    }
  )");
  // Hand-built bytecode: `past` addresses A's field 1, one past its last
  // (index 1 is B's, so the verifier accepts it) — a run-time trap.
  for (auto& insn : program.functions[static_cast<std::size_t>(program.FindFunction("past"))].code) {
    if (insn.op == minnow::Op::kLoadField || insn.op == minnow::Op::kStoreField) {
      insn.operand = 1;
    }
  }
  ASSERT_TRUE(minnow::VerifyProgram(program).ok);
  for (const bool elide : {false, true}) {
    VmOptions options;
    options.elide_checks = elide;
    const Outcome interp = RunOne(program, options, "last", {7});
    options.dispatch = DispatchMode::kJit;
    EXPECT_EQ(RunOne(program, options, "last", {7}), interp) << "elide=" << elide;
    EXPECT_EQ(interp.result, 7 * 3 + 8);
    options.dispatch = DispatchMode::kDefault;
    const Outcome bad = RunOne(program, options, "past", {7});
    options.dispatch = DispatchMode::kJit;
    EXPECT_EQ(RunOne(program, options, "past", {7}), bad) << "elide=" << elide;
    EXPECT_TRUE(bad.trapped);
    EXPECT_EQ(bad.message, "bad field access");
  }
}

// One element kind's edge cases: `new T[n]`, write then read element i
// (through a register index and through a constant one), and the length.
std::string ElemEdgeSource(const std::string& type, const std::string& value) {
  // Element reads as an int (bools have no numeric cast).
  const std::string to_int = type == "bool" ? "num" : "int";
  return "fn num(x: bool) -> int { if (x) { return 1; } return 0; }\n"
         "fn f(n: int, i: int) -> int {\n"
         "  var a: " + type + "[] = new " + type + "[n];\n"
         "  a[i] = " + value + ";\n"
         "  var k: int = a.len;\n"
         "  if (n == 1) { a[0] = " + value + "; k = k + " + to_int + "(a[0]) * 0 + 100; }\n"
         "  if (n == 0) { k = k + " + to_int + "(a[0]); }\n"
         "  return k * 1000 + " + to_int + "(a[i]);\n"
         "}\n";
}

TEST(JitFlatObjects, LastElementOfEachKindAndOnePastItTrap) {
  const std::pair<const char*, const char*> kinds[] = {
      {"int", "70000000000 + i"}, {"u32", "u32(0xFFFFFFFF) - u32(i)"},
      {"byte", "byte(i + 200)"}, {"bool", "i >= 0"}};
  for (const auto& [type, value] : kinds) {
    const std::string source = ElemEdgeSource(type, value);
    for (const bool elide : {false, true}) {
      VmOptions options;
      options.elide_checks = elide;
      for (const std::int64_t n : {1, 2, 9}) {
        const Outcome last = ExpectSame(source, "f", {n, n - 1}, options);
        EXPECT_FALSE(last.trapped) << type << " n=" << n << ": " << last.message;
        const Outcome past = ExpectSame(source, "f", {n, n}, options);
        EXPECT_TRUE(past.trapped) << type << " n=" << n;
        EXPECT_EQ(past.message, "array index " + std::to_string(n) + " out of bounds [0, " +
                                    std::to_string(n) + ")");
        const Outcome negative = ExpectSame(source, "f", {n, -1}, options);
        EXPECT_EQ(negative.message, "array index -1 out of bounds [0, " + std::to_string(n) + ")");
      }
    }
  }
}

TEST(JitFlatObjects, ZeroAndOneLengthArrays) {
  for (const char* type : {"int", "u32", "byte", "bool"}) {
    const std::string source = ElemEdgeSource(type, "a[0]");
    for (const bool elide : {false, true}) {
      VmOptions options;
      options.elide_checks = elide;
      // Length 0: even index 0 is out of bounds (both the register-index
      // store and the constant-index load).
      const Outcome empty = ExpectSame(source, "f", {0, 0}, options);
      EXPECT_TRUE(empty.trapped) << type;
      EXPECT_EQ(empty.message, "array index 0 out of bounds [0, 0)") << type;
      // Length 1: index 0 is the first and the last element; the constant
      // a[0] path reads back the zero-initialized payload.
      const Outcome one = ExpectSame(source, "f", {1, 0}, options);
      EXPECT_FALSE(one.trapped) << type << ": " << one.message;
      EXPECT_EQ(one.result, 101 * 1000) << type;
      const Outcome one_past = ExpectSame(source, "f", {1, 1}, options);
      EXPECT_EQ(one_past.message, "array index 1 out of bounds [0, 1)") << type;
    }
  }
  // A zero-length array's length is read from the header without a payload.
  const Outcome len = ExpectSame(
      "fn f(n: int) -> int { var a: byte[] = new byte[n]; var b: int[] = new int[n]; "
      "return a.len + b.len + 5; }",
      "f", {0});
  EXPECT_EQ(len.result, 5);
}

// A host that reenters the VM and resets the budget mid-loop: the ledger
// derived from the fuel register must re-base on the way back.
TEST(JitTier2, ReentrantSetFuelLeavesExactRetired) {
  HostDecl host;
  host.name = "k_reenter";
  host.params = {Type::Int()};
  host.ret = Type::Int();
  const Program program = minnow::Compile(R"(
    fn leaf(x: int) -> int {
      var s: int = 0;
      for (var i: int = 0; i < x; i = i + 1) { s = s + i; }
      return s;
    }
    fn f(n: int) -> int {
      var a: int = 1;
      var total: int = 0;
      for (var i: int = 0; i < n; i = i + 1) {
        total = total + k_reenter(i + a) - a;
        a = a * 2 % 7;
      }
      return total;
    })",
                                          {host});
  Outcome outcomes[2];
  std::vector<std::uint64_t> seen[2];
  int m = 0;
  for (const DispatchMode mode : {DispatchMode::kDefault, DispatchMode::kJit}) {
    VmOptions options;
    options.dispatch = mode;
    options.fuel = 100'000;
    VM vm(program, options);
    std::vector<std::uint64_t>* log = &seen[m];
    vm.BindHost("k_reenter", [log](VM& inner, std::span<const Value> args) {
      const Value ret = inner.Call("leaf", {args[0]});
      log->push_back(inner.instructions_retired());
      inner.SetFuel(5000 + args[0].AsInt());
      return ret;
    });
    vm.RunInit();
    Outcome& out = outcomes[m++];
    out.result = vm.Call("f", {Value::Int(12)}).AsInt();
    out.retired = vm.instructions_retired();
    out.fuel = vm.fuel();
  }
  EXPECT_EQ(outcomes[0], outcomes[1]) << "retired " << outcomes[0].retired << " vs "
                                      << outcomes[1].retired << ", fuel " << outcomes[0].fuel
                                      << " vs " << outcomes[1].fuel;
  EXPECT_EQ(seen[0], seen[1]);
}

// --- address resolution: native PCs back to {function, bytecode pc} ---

// --- Entry path -----------------------------------------------------------
//
// A call into a compiled function enters native code on the VM's own
// execution state, and the native prologue pushes the frame itself. These
// cases hit every refusal and unwind on the way in or out, under the
// interpreter and under the JIT, and compare everything an observer can
// see — including the stack depth and frame count the VM is left at.

struct EntryOutcome {
  bool trapped = false;
  std::string message;
  std::int64_t result = 0;
  std::uint64_t retired = 0;
  std::int64_t fuel = 0;
  std::uint64_t sp = 0;
  std::uint64_t nframes = 0;

  bool operator==(const EntryOutcome& other) const = default;
};

std::ostream& operator<<(std::ostream& os, const EntryOutcome& o) {
  return os << "trapped=" << o.trapped << " '" << o.message << "' result=" << o.result
            << " retired=" << o.retired << " fuel=" << o.fuel << " sp=" << o.sp
            << " nframes=" << o.nframes;
}

// Builds a VM with `make(mode)` and runs `call` on it; a trap or a refused
// call (std::invalid_argument) is part of the outcome.
template <typename Make, typename Call>
EntryOutcome RunEntry(DispatchMode mode, const Make& make, const Call& call) {
  const std::unique_ptr<VM> vm = make(mode);
  EntryOutcome out;
  try {
    out.result = call(*vm);
  } catch (const std::exception& e) {
    out.trapped = true;
    out.message = e.what();
  }
  out.retired = vm->instructions_retired();
  out.fuel = vm->fuel();
  out.sp = vm->exec_state().sp;
  out.nframes = vm->exec_state().nframes;
  return out;
}

template <typename Make, typename Call>
EntryOutcome ExpectSameEntry(const Make& make, const Call& call) {
  const EntryOutcome interp = RunEntry(DispatchMode::kDefault, make, call);
  const EntryOutcome jit = RunEntry(DispatchMode::kJit, make, call);
  EXPECT_EQ(interp, jit) << "interp: " << interp << "\njit:    " << jit;
  EXPECT_EQ(interp.sp, 0u);
  EXPECT_EQ(interp.nframes, 0u);
  return interp;
}

// A VM factory over one program: options tweaked by `tune`, hosts bound by
// `bind`, RunInit run unless `init` is false.
auto Factory(Program program, std::function<void(VmOptions&)> tune = {},
             std::function<void(VM&)> bind = {}, bool init = true) {
  return [=](DispatchMode mode) {
    VmOptions options;
    options.dispatch = mode;
    options.fuel = 100000;
    if (tune) tune(options);
    auto vm = std::make_unique<VM>(program, options);
    if (bind) bind(*vm);
    if (init) vm->RunInit();
    return vm;
  };
}

TEST(JitEntry, ArityMismatchIsRefusedBeforeAnyState) {
  const auto make = Factory(minnow::Compile("fn f(a: int) -> int { return a + 1; }"));
  const EntryOutcome out = ExpectSameEntry(
      make, [](VM& vm) { return vm.Call("f", {Value::Int(1), Value::Int(2)}).AsInt(); });
  EXPECT_TRUE(out.trapped);
  EXPECT_NE(out.message.find("expects 1"), std::string::npos) << out.message;
}

TEST(JitEntry, CertifiedProgramCalledBeforeRunInitIsRefused) {
  const auto make = Factory(
      minnow::Compile("var a: int[] = new int[4];\nfn f(i: int) -> int { return a[i & 3]; }"),
      [](VmOptions& o) { o.elide_checks = true; }, {}, /*init=*/false);
  const EntryOutcome out =
      ExpectSameEntry(make, [](VM& vm) { return vm.Call("f", {Value::Int(1)}).AsInt(); });
  EXPECT_EQ(out.message, "certified program called before RunInit");
  // The same VM runs once RunInit has.
  ExpectSameEntry(make, [](VM& vm) {
    EXPECT_THROW(vm.Call("f", {Value::Int(1)}), Trap);
    vm.RunInit();
    return vm.Call("f", {Value::Int(6)}).AsInt();
  });
}

TEST(JitEntry, StackRoomExhaustedAtEntryTrapsLikeTheInterpreter) {
  const Program program = minnow::Compile(R"(
    fn big(a: int) -> int {
      var b: int = a + 1; var c: int = b * 2; var d: int = c - a; var e: int = d * d;
      return a + b + c + d + e;
    }
    fn small(a: int) -> int { return a + 1; }
    fn via(a: int) -> int { return small(a) + big(a); }
  )");
  // Every size from nothing fits to everything fits: each frame's boundary
  // slot is hit exactly.
  for (std::size_t slots = 1; slots <= 12; ++slots) {
    SCOPED_TRACE("stack_slots " + std::to_string(slots));
    const auto make = Factory(program, [slots](VmOptions& o) { o.stack_slots = slots; });
    // Entry straight into a function whose frame does not fit; entry whose
    // own frame fits but a callee's does not (the callee prologue refuses,
    // the caller re-executes the call in the interpreter); two arguments
    // into a one-slot stack.
    const EntryOutcome big =
        ExpectSameEntry(make, [](VM& vm) { return vm.Call("big", {Value::Int(3)}).AsInt(); });
    const EntryOutcome via =
        ExpectSameEntry(make, [](VM& vm) { return vm.Call("via", {Value::Int(3)}).AsInt(); });
    ExpectSameEntry(make, [](VM& vm) {
      try {
        vm.Call("via", {Value::Int(3)});
      } catch (const Trap&) {
      }
      return vm.Call("small", {Value::Int(3)}).AsInt();  // the VM is usable again
    });
    if (slots == 7) {  // big's frame fits alone, not on top of via's
      EXPECT_EQ(big.result, 45);
      EXPECT_EQ(via.message, "VM stack overflow");
      EXPECT_GT(via.retired, 0u);
    }
  }
  const Program two = minnow::Compile("fn f(a: int, b: int) -> int { return a + b; }");
  const EntryOutcome args = ExpectSameEntry(
      Factory(two, [](VmOptions& o) { o.stack_slots = 1; }),
      [](VM& vm) { return vm.Call("f", {Value::Int(1), Value::Int(2)}).AsInt(); });
  EXPECT_EQ(args.message, "VM stack overflow");
}

TEST(JitEntry, DepthLimitReachedThroughNestedHostReentry) {
  HostDecl host;
  host.name = "k_reenter";
  host.params = {Type::Int()};
  host.ret = Type::Int();
  const Program program = minnow::Compile(R"(
    fn f(n: int) -> int {
      if (n == 0) { return 0; }
      return k_reenter(n - 1) + 1;
    }
  )",
                                          {host});
  // Each reentry starts its own depth budget, so only the frame capacity
  // (max_call_depth plus the reentry slack) stops the nesting.
  const auto make = Factory(
      program, [](VmOptions& o) { o.max_call_depth = 3; },
      [](VM& vm) {
        vm.BindHost("k_reenter", [](VM& inner, std::span<const Value> args) {
          return inner.Call("f", {args[0]});
        });
      });
  const EntryOutcome deep =
      ExpectSameEntry(make, [](VM& vm) { return vm.Call("f", {Value::Int(500)}).AsInt(); });
  EXPECT_EQ(deep.message, "call depth limit exceeded");
  const EntryOutcome fits =
      ExpectSameEntry(make, [](VM& vm) { return vm.Call("f", {Value::Int(20)}).AsInt(); });
  EXPECT_EQ(fits.result, 20);
}

TEST(JitEntry, HostExceptionTwoFramesDeepThenACleanCall) {
  HostDecl host;
  host.name = "k_fail";
  host.params = {Type::Int()};
  host.ret = Type::Int();
  // inner and mid make calls, so neither is spliced: the exception crosses
  // two real native frames.
  const Program program = minnow::Compile(R"(
    fn inner(x: int) -> int { return k_fail(x) + 1; }
    fn mid(x: int) -> int { var y: int = x * 2; return inner(y) + y; }
    fn f(x: int) -> int { return mid(x) + 3; }
    fn ok(x: int) -> int { return mid(x - 100) + 1; }
  )",
                                          {host});
  const auto make = Factory(program, {}, [](VM& vm) {
    vm.BindHost("k_fail", [](VM&, std::span<const Value> args) -> Value {
      if (args[0].AsInt() > 0) throw std::runtime_error("disk on fire");
      return Value::Int(args[0].AsInt());
    });
  });
  const EntryOutcome out = ExpectSameEntry(make, [](VM& vm) {
    try {
      vm.Call("f", {Value::Int(5)});
      ADD_FAILURE() << "the host exception must propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "disk on fire");
    }
    EXPECT_EQ(vm.exec_state().sp, 0u);
    EXPECT_EQ(vm.exec_state().nframes, 0u);
    return vm.Call("ok", {Value::Int(10)}).AsInt();
  });
  EXPECT_FALSE(out.trapped);
  EXPECT_EQ(out.result, -180 + 1 - 180 + 1);
}

// --- Value numbering soundness --------------------------------------------
//
// Inside a block the JIT reuses a global load, a reference's checks and a
// pure op's result. Each case puts the thing that must end the reuse
// between two uses — inside one expression, so the first value is still on
// the operand stack when the second is computed — and compares with the
// interpreter.

TEST(JitValueNumbering, StoreGlobalBetweenTwoLoads) {
  const char* source = R"(
    var g: int = 7;
    fn bump() -> int { g = g + 5; return 1; }
    fn bump_called() -> int { return bump(); }
    fn f(x: int) -> int {
      var a: int = g / x;
      g = x + 100;
      return a * 1000 + g / x + g;
    }
    fn spliced(x: int) -> int { return g / x + (bump() + g / x); }
    fn called(x: int) -> int { return g * x + (bump_called() + g * x); }
  )";
  ExpectSame(source, "f", {3});
  ExpectSame(source, "spliced", {3});
  ExpectSame(source, "called", {3});
}

TEST(JitValueNumbering, ElementStoreBetweenTwoElementLoads) {
  const char* source = R"(
    var a: int[] = new int[4];
    fn f(i: int, v: int) -> int {
      a[i] = 9;
      var x: int = a[i];
      a[i] = v;
      return x * 10 + a[i] + a[i] / v;
    }
  )";
  ExpectSame(source, "f", {2, 5});
  ExpectSame(source, "f", {4, 5});  // the first access traps out of bounds
  ExpectSame(source, "f", {1, 0});  // the division traps
}

TEST(JitValueNumbering, ReentrantHostRewritesAGlobalBetweenTwoLoads) {
  HostDecl host;
  host.name = "k_poke";
  host.params = {Type::Int()};
  host.ret = Type::Int();
  const Program program = minnow::Compile(R"(
    var g: int = 3;
    fn set_g(v: int) { g = v; }
    fn f(x: int) -> int {
      var a: int = g;
      var b: int = g + (k_poke(x) + g);
      return a * 10000 + b * 10 + g;
    }
  )",
                                          {host});
  std::int64_t results[2];
  int i = 0;
  for (const DispatchMode mode : {DispatchMode::kDefault, DispatchMode::kJit}) {
    VmOptions options;
    options.dispatch = mode;
    VM vm(program, options);
    vm.BindHost("k_poke", [](VM& inner, std::span<const Value> args) {
      inner.Call("set_g", {Value::Int(args[0].AsInt() * 2)});
      return Value::Int(1);
    });
    vm.RunInit();
    results[i++] = vm.Call("f", {Value::Int(21)}).AsInt();
  }
  EXPECT_EQ(results[0], 3 * 10000 + (3 + 1 + 42) * 10 + 42);
  EXPECT_EQ(results[0], results[1]);
}

TEST(JitValueNumbering, AllocationBetweenTwoUsesOfAReusedReference) {
  // A small heap: every large allocation collects. The reference whose
  // checks were skipped the second time must still be the live object.
  const char* source = R"(
    struct Box { a: int; b: Box; }
    var keep: int[] = new int[8];
    fn f(n: int) -> int {
      var r: int[] = keep;
      r[1] = n;
      var box: Box = new Box();
      box.a = n + 1;
      var junk: int[] = new int[40000];
      junk[0] = r[1];
      var more: int[] = new int[40000];
      more[1] = box.a;
      return r[1] + keep[1] + box.a + junk[0] + more[1];
    }
  )";
  VmOptions options;
  options.heap_limit = 1u << 20;
  const Outcome out = ExpectSame(source, "f", {5}, options);
  EXPECT_EQ(out.result, 5 + 5 + 6 + 5 + 6);
}

TEST(JitValueNumbering, RepeatedDivisionWhoseFirstInstanceTraps) {
  const char* source = R"(
    fn f(x: int, y: int) -> int { return x / y + x / y; }
    fn g(x: int, y: int) -> int { return x / y + x % y + x / y; }
  )";
  VmOptions fuel;
  fuel.fuel = 1000;
  ExpectSame(source, "f", {7, 0}, fuel);
  ExpectSame(source, "f", {7, 2}, fuel);
  ExpectSame(source, "g", {7, 0}, fuel);
  ExpectSame(source, "g", {std::numeric_limits<std::int64_t>::min(), -1}, fuel);
  ExpectSame(source, "g", {-7, 3}, fuel);
}

TEST(JitResolve, PcsOutsideCompiledCodeResolveToNothing) {
  VM vm(minnow::Compile("fn f(n: int) -> int { return n * 2; }"), JitOpts());
  vm.RunInit();
  if (vm.jit() == nullptr) GTEST_SKIP() << "no JIT in this build";
  EXPECT_EQ(vm.jit()->Resolve(nullptr).fn, -1);
  int on_the_stack = 0;
  EXPECT_EQ(vm.jit()->Resolve(&on_the_stack).fn, -1);
}

#if defined(__x86_64__) && defined(__linux__)
std::atomic<int> g_prof_samples{0};
std::atomic<std::uintptr_t> g_prof_pcs[512];

void OnProfSignal(int, siginfo_t*, void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
  const int i = g_prof_samples.fetch_add(1, std::memory_order_relaxed);
  if (i < 512) {
    g_prof_pcs[i].store(static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]),
                        std::memory_order_relaxed);
  }
}

// The profiler's view: SIGPROF samples taken while md5 runs jitted land in
// the code arena, and Resolve names `rounds` and a pc inside its loop.
TEST(JitResolve, ProfilerSampleInsideRoundsLoopResolvesToRounds) {
  Program program = minnow::Compile(grafts::MinnowMd5Source());
  minnow::FuseSuperinstructions(program);
  ASSERT_TRUE(minnow::VerifyProgram(program).ok);
  VmOptions options = JitOpts();
  options.elide_checks = true;
  VM vm(program, options);
  vm.RunInit();
  if (vm.jit() == nullptr) GTEST_SKIP() << "no JIT in this build";
  vm.Call("md5_init", {});
  const int rounds = vm.program().FindFunction("rounds");
  ASSERT_GE(rounds, 0);
  // The loop: from the back edge's target to the back edge.
  std::size_t loop_lo = 0;
  std::size_t loop_hi = 0;
  const auto& code = vm.program().functions[static_cast<std::size_t>(rounds)].code;
  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    if (code[pc].op == minnow::Op::kJmp && static_cast<std::size_t>(code[pc].operand) < pc) {
      loop_lo = static_cast<std::size_t>(code[pc].operand);
      loop_hi = pc;
    }
  }
  ASSERT_LT(loop_lo, loop_hi);
  std::vector<std::uint8_t> bytes(64 * 1024, 0x5a);
  minnow::Object* buffer = vm.NewByteArray(bytes);
  vm.Pin(buffer);

  g_prof_samples.store(0);
  struct sigaction action {};
  struct sigaction previous {};
  action.sa_sigaction = OnProfSignal;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  ASSERT_EQ(sigaction(SIGPROF, &action, &previous), 0);
  itimerval timer{};
  timer.it_interval.tv_usec = 500;
  timer.it_value.tv_usec = 500;
  setitimer(ITIMER_PROF, &timer, nullptr);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (g_prof_samples.load() < 200 && std::chrono::steady_clock::now() < deadline) {
    vm.Call("md5_update", {Value::Ref(buffer), Value::Int(static_cast<std::int64_t>(bytes.size()))});
  }
  timer = itimerval{};
  setitimer(ITIMER_PROF, &timer, nullptr);
  sigaction(SIGPROF, &previous, nullptr);

  int in_arena = 0;
  int in_loop = 0;
  const int n = std::min(g_prof_samples.load(), 512);
  for (int i = 0; i < n; ++i) {
    const auto where = vm.jit()->Resolve(reinterpret_cast<const void*>(g_prof_pcs[i].load()));
    if (where.fn < 0) continue;
    ++in_arena;
    if (where.fn == rounds && where.pc >= loop_lo && where.pc <= loop_hi) ++in_loop;
  }
  EXPECT_GT(in_loop, 0) << n << " samples, " << in_arena << " in jitted code";
}
#endif

}  // namespace
