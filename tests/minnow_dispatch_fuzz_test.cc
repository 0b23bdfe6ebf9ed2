// Differential fuzzing of the Minnow execution configurations.
//
// A seeded generator emits random well-typed Minnow programs (integer
// arithmetic over edge-case constants, bounded loops, branches, and — for
// the elision corpus — arrays, nullable struct references, and guarded or
// unguarded dereferences), compiles each once, and runs the same bytecode
// through every configuration: {switch, threaded dispatch, jit} x
// {superinstruction fusion on/off} x {check elision on/off}, plus jit
// variants with a compile filter
// that turns common opcodes into forced deopts so every program ping-pongs
// between native code and the interpreter. Every configuration must produce
// the identical result — the same value, or the same trap message — as the
// reference (switch dispatch, raw bytecode, all checks retained). In builds
// without JIT support the jit configurations fall back to the interpreter
// and remain valid (if redundant) matrix entries. kDivI /
// kModI edge cases (division by zero, INT64_MIN / -1) get dedicated
// deterministic coverage, a directed section checks that the fusion pass
// actually emits each superinstruction, and an adversarial section pins
// down programs whose checks must NOT be elided (off-by-one loop bounds,
// nil reassignment behind a guard, joined arrays of different lengths,
// INT64_MIN / -1 behind a zero-only guard), asserted through the elision
// certificate's counters.
//
// The elision soak additionally asserts instructions_retired equality
// between the checked and elided runs of each configuration: the rewrite is
// strictly 1:1, so fuel accounting must be bit-identical.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/minnow/bytecode.h"
#include "src/minnow/compiler.h"
#include "src/minnow/elide.h"
#include "src/minnow/optimizer.h"
#include "src/minnow/verifier.h"
#include "src/minnow/vm.h"

namespace {

using minnow::Compile;
using minnow::DispatchMode;
using minnow::Op;
using minnow::Program;
using minnow::Trap;
using minnow::Value;
using minnow::VM;
using minnow::VmOptions;

// --- Execution matrix ---

struct Config {
  DispatchMode dispatch;
  bool fuse;
  bool elide = false;
  // kJit only: compile the add family as unconditional side exits, forcing a
  // deopt into the interpreter on virtually every program the generator can
  // emit — the deopt path gets fuzzed as hard as the fast path.
  bool jit_deopt = false;

  std::string Name() const {
    std::string name = dispatch == DispatchMode::kThreaded ? "threaded"
                       : dispatch == DispatchMode::kJit    ? "jit"
                                                           : "switch";
    if (jit_deopt) name += "+deopt";
    if (fuse) name += "+fuse";
    if (elide) name += "+elide";
    return name;
  }
};

std::vector<Config> AllConfigs() {
  std::vector<Config> configs;
  for (const DispatchMode dispatch :
       {DispatchMode::kSwitch, DispatchMode::kThreaded, DispatchMode::kJit}) {
    for (const bool fuse : {false, true}) {
      for (const bool elide : {false, true}) {
        configs.push_back({dispatch, fuse, elide});
        if (dispatch == DispatchMode::kJit) {
          configs.push_back({dispatch, fuse, elide, /*jit_deopt=*/true});
        }
      }
    }
  }
  return configs;
}

// Denies the opcodes a fused or raw add lowers to, so kJit+deopt configs
// side-exit constantly.
bool DenyAddFamily(Op op) {
  return op != Op::kAddI && op != Op::kLoadAddI && op != Op::kAddConstI;
}

// Result of one execution: a value, or the trap that stopped it. Trap
// *messages* are part of the contract — an engine that traps for a
// different reason is wrong even if it traps at the same instruction.
// `retired` carries the fuel-equivalence side of the contract: check
// elision is a 1:1 opcode rewrite, so checked and elided runs of the same
// {dispatch, fuse} configuration must retire the same count
// (AgreesWith ignores it; the elision soak compares it explicitly).
struct Outcome {
  bool trapped = false;
  std::int64_t value = 0;
  std::string trap;
  std::uint64_t retired = 0;
  std::int64_t fuel = -1;  // left over (RunConfig's `fuel` budget)

  bool AgreesWith(const Outcome& other) const {
    return trapped == other.trapped && value == other.value && trap == other.trap;
  }
  bool operator==(const Outcome& other) const { return AgreesWith(other); }
};

std::string Describe(const Outcome& outcome) {
  return outcome.trapped ? "trap: " + outcome.trap : "value: " + std::to_string(outcome.value);
}

Outcome RunConfig(const Program& compiled, const Config& config, const char* fn,
                  std::initializer_list<std::int64_t> args, std::int64_t fuel = -1) {
  Program program = compiled;  // each config transforms its own copy
  if (config.fuse) {
    minnow::FuseSuperinstructions(program);
    minnow::VerifyProgram(program);
  }
  VmOptions options;
  options.dispatch = config.dispatch;
  options.elide_checks = config.elide;
  if (config.jit_deopt) {
    options.jit_compile_filter = DenyAddFamily;
  }
  Outcome outcome;
  std::unique_ptr<VM> vm;
  try {
    vm = std::make_unique<VM>(program, options);
    vm->RunInit();
    vm->SetFuel(fuel);
    std::vector<Value> values;
    for (const std::int64_t a : args) {
      values.push_back(Value::Int(a));
    }
    outcome.value = vm->Call(fn, values).AsInt();
  } catch (const Trap& trap) {
    outcome.trapped = true;
    outcome.trap = trap.what();
  }
  if (vm != nullptr) {
    outcome.retired = vm->instructions_retired();
    outcome.fuel = vm->fuel();
  }
  return outcome;
}

// The fuel every configuration runs with: ten times what the reference
// run (switch dispatch, raw bytecode, unlimited fuel) retired. A miscompile
// that breaks a loop counter then ends in a fuel-exhaustion trap the
// reference does not raise — a divergence — instead of spinning forever.
std::int64_t Budget(const Outcome& reference) {
  return 10 * std::max<std::int64_t>(static_cast<std::int64_t>(reference.retired), 1);
}

// Runs `fn` under every configuration and asserts agreement with the
// reference configuration (switch dispatch, raw bytecode).
void ExpectAllConfigsAgree(const std::string& source, const char* fn,
                           std::initializer_list<std::int64_t> args,
                           const std::string& label) {
  const Program compiled = Compile(source);
  const Outcome reference =
      RunConfig(compiled, {DispatchMode::kSwitch, false}, fn, args);
  for (const Config& config : AllConfigs()) {
    const Outcome outcome = RunConfig(compiled, config, fn, args, Budget(reference));
    EXPECT_EQ(outcome, reference)
        << label << " [" << config.Name() << "]: got " << Describe(outcome)
        << ", reference " << Describe(reference) << "\nsource:\n"
        << source;
  }
}

// --- Random program generator ---
//
// Emits well-typed straight-line-plus-structured-control programs over int
// locals. All loops are bounded by construction (fresh counter, constant
// trip count), so the only traps a generated program can raise are the
// arithmetic ones — which is exactly what we want to differential-test.

class ProgramGen {
 public:
  // `heap` adds arrays, a nullable struct local, and (possibly unguarded,
  // possibly out-of-bounds) accesses to the mix — the shapes the check
  // eliding pass reasons about, including the ones it must refuse.
  // `repeats` adds two int globals and a global array, and straight-line
  // statements that compute the same global load, element load or
  // division twice — sometimes with a store to that global or element in
  // between — the shapes the JIT's value numbering reuses or must not.
  explicit ProgramGen(std::uint32_t seed, bool heap = false, bool repeats = false)
      : rng_(seed), heap_(heap), repeats_(repeats) {}

  std::string Generate() {
    visible_ = 3;  // the v0, v1, v2 parameters
    counters_ = 0;
    arrays_ = 0;
    boxes_ = 0;
    std::string body;
    // All mutable locals are declared up front at function scope (each
    // initializer sees only the variables before it), so the statement
    // generator never has to reason about Minnow's block scoping.
    const int extra_locals = 1 + static_cast<int>(rng_() % 3);
    for (int i = 0; i < extra_locals; ++i) {
      body += "  var v" + std::to_string(visible_) + ": int = " + Expr(2) + ";\n";
      ++visible_;
    }
    if (heap_) {
      // Power-of-two lengths: `idx & (len - 1)` is the provably-in-bounds
      // access form, while raw expression indices exercise the retained
      // (and trapping) paths.
      arrays_ = 1 + static_cast<int>(rng_() % 2);
      for (int i = 0; i < arrays_; ++i) {
        array_len_[i] = 1 << (rng_() % 4);  // 1, 2, 4, or 8
        body += "  var a" + std::to_string(i) + ": int[] = new int[" +
                std::to_string(array_len_[i]) + "];\n";
      }
      boxes_ = 1;
      body += rng_() % 2 == 0 ? "  var b0: Box = null;\n" : "  var b0: Box = new Box();\n";
    }
    const int statements = 2 + static_cast<int>(rng_() % 5);
    for (int i = 0; i < statements; ++i) {
      body += repeats_ && rng_() % 2 == 0 ? RepeatStatement() : Statement(2);
    }
    body += "  return " + Expr(3) + ";\n";
    std::string prologue = heap_ ? "struct Box { a: int; b: Box; }\n" : "";
    if (repeats_) {
      prologue += "var g0: int = " + std::to_string(Constant()) + ";\nvar g1: int = " +
                  std::to_string(Constant()) + ";\nvar ga: int[] = new int[4];\n";
    }
    return prologue + "fn f(v0: int, v1: int, v2: int) -> int {\n" + body + "}\n";
  }

 private:
  // Constants that stress packing and overflow paths: the int32 boundary
  // (imm-branch fusion packs 32-bit immediates), INT64 extremes (kDivI /
  // kModI overflow, negation), small values (common-case fusion).
  std::int64_t Constant() {
    static constexpr std::int64_t kPool[] = {
        0,
        1,
        -1,
        2,
        7,
        63,
        255,
        -128,
        1 << 15,
        std::numeric_limits<std::int32_t>::max(),
        std::numeric_limits<std::int32_t>::min(),
        static_cast<std::int64_t>(std::numeric_limits<std::int32_t>::max()) + 1,
        static_cast<std::int64_t>(std::numeric_limits<std::int32_t>::min()) - 1,
        std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min(),
    };
    return kPool[rng_() % (sizeof(kPool) / sizeof(kPool[0]))];
  }

  std::string Var() { return "v" + std::to_string(rng_() % visible_); }

  std::string Arr() { return "a" + std::to_string(rng_() % arrays_); }

  // An int-valued heap read: an array element (masked in-bounds or raw and
  // possibly trapping), an array length, or a struct field (possibly null).
  std::string HeapExpr(int depth) {
    switch (rng_() % 4) {
      case 0: {
        const int a = static_cast<int>(rng_() % arrays_);
        return "a" + std::to_string(a) + "[(" + Expr(depth) + " & " +
               std::to_string(array_len_[a] - 1) + ")]";
      }
      case 1:
        return Arr() + "[" + Expr(depth) + "]";
      case 2:
        return Arr() + ".len";
      default:
        return "b0.a";
    }
  }

  std::string Expr(int depth) {
    if (heap_ && arrays_ > 0 && depth > 0 && rng_() % 6 == 0) {
      return HeapExpr(depth - 1);
    }
    if (depth == 0 || rng_() % 4 == 0) {
      return rng_() % 2 == 0 ? Var() : std::to_string(Constant());
    }
    // Shifts use a small masked count so behavior is defined; division and
    // modulo stay in — their traps are part of the differential contract.
    static constexpr const char* kOps[] = {"+", "-", "*", "/", "%", "&", "|", "^"};
    const std::uint32_t pick = rng_() % 10;
    if (pick == 8) {
      return "(" + Expr(depth - 1) + " << " + std::to_string(rng_() % 8) + ")";
    }
    if (pick == 9) {
      return "(" + Expr(depth - 1) + " >> " + std::to_string(rng_() % 8) + ")";
    }
    return "(" + Expr(depth - 1) + " " + kOps[pick] + " " + Expr(depth - 1) + ")";
  }

  std::string Cond() {
    static constexpr const char* kCmps[] = {"==", "!=", "<", "<=", ">", ">="};
    return Expr(1) + " " + kCmps[rng_() % 6] + " " + Expr(1);
  }

  // Heap-mutating statements, including the adversarial shapes: unguarded
  // stores (null / out-of-bounds traps are part of the differential
  // contract), guarded dereferences the elider may prove, and guard-then-
  // reassign sequences it must not trust.
  std::string HeapStatement(int depth) {
    switch (rng_() % 6) {
      case 0: {  // masked (provably in-bounds) array store
        const int a = static_cast<int>(rng_() % arrays_);
        return "  a" + std::to_string(a) + "[(" + Expr(1) + " & " +
               std::to_string(array_len_[a] - 1) + ")] = " + Expr(depth) + ";\n";
      }
      case 1:  // raw-index store; may trap out of bounds
        return "  " + Arr() + "[" + Expr(1) + "] = " + Expr(depth) + ";\n";
      case 2:  // guarded field store
        return "  if (b0 != null) { b0.a = " + Expr(depth) + "; }\n";
      case 3:  // unguarded field store; may trap on null
        return "  b0.a = " + Expr(depth) + ";\n";
      case 4:
        return "  b0 = new Box();\n";
      default:  // guard, then sometimes reassign to null behind the guard
        return "  if (b0 != null) { b0.a = b0.a + 1;" +
               std::string(rng_() % 2 == 0 ? " b0 = b0.b;" : "") + " }\n";
    }
  }

  std::string Global() { return "g" + std::to_string(rng_() % 2); }

  // An element of the global array: masked in bounds, or a raw (possibly
  // trapping) index.
  std::string GlobalElem() {
    return rng_() % 3 == 0 ? "ga[" + Var() + "]" : "ga[(" + Var() + " & 3)]";
  }

  // A subexpression a repeat statement computes twice: global loads,
  // element loads and divisions (which may trap on zero or overflow).
  std::string RepeatExpr() {
    switch (rng_() % 6) {
      case 0: return "(" + Global() + " / " + Var() + ")";
      case 1: return "(" + Var() + " % " + Global() + ")";
      case 2: return "(" + Global() + " + " + Var() + ")";
      case 3: return "(" + Global() + " * " + Global() + ")";
      case 4: return GlobalElem();
      default: return "(" + GlobalElem() + " / " + Global() + ")";
    }
  }

  // Straight-line value-numbering shapes: the same expression twice in one
  // statement, and a global or element store between two reads of it.
  std::string RepeatStatement() {
    const std::string e = RepeatExpr();
    switch (rng_() % 5) {
      case 0:
        return "  " + Var() + " = " + e + " + " + e + ";\n";
      case 1:
        return "  " + Var() + " = (" + e + " - " + Var() + ") ^ (" + e + " - " + Var() + ");\n";
      case 2: {  // a global store between two reads
        const std::string v = Var();
        return "  " + v + " = " + e + ";\n  " + Global() + " = " + Expr(1) + ";\n  " + v +
               " = " + v + " - " + e + ";\n";
      }
      case 3: {  // an element store between two loads of that element
        const std::string v = Var();
        const std::string i = "(" + Var() + " & 3)";
        return "  " + v + " = ga[" + i + "] + " + e + ";\n  ga[" + i + "] = " + Expr(1) +
               ";\n  " + v + " = " + v + " * ga[" + i + "] + " + e + ";\n";
      }
      default:  // a repeated division over a repeated subexpression
        return "  " + Var() + " = " + Var() + " / " + e + " + " + Var() + " % " + e + ";\n";
    }
  }

  std::string Statement(int depth) {
    if (heap_ && arrays_ > 0 && rng_() % 3 == 0) {
      return HeapStatement(depth > 0 ? depth : 1);
    }
    const std::uint32_t pick = rng_() % (depth > 0 ? 5 : 3);
    switch (pick) {
      case 0:  // const into local (feeds kConstStore fusion)
        return "  " + Var() + " = " + std::to_string(Constant()) + ";\n";
      case 1:
        return "  " + Var() + " = " + Expr(2) + ";\n";
      case 2:  // feeds kLoadAddI / kAddConstI fusion
        return "  " + Var() + " = " + Var() + " + " + std::to_string(Constant()) + ";\n";
      case 3:  // branch (feeds compare+branch fusion, both senses)
        return "  if (" + Cond() + ") {\n  " + Statement(depth - 1) + "  } else {\n  " +
               Statement(depth - 1) + "  }\n";
      default: {  // bounded loop; the counter is private to the loop statement
        const std::string i = "t" + std::to_string(counters_++);
        const int trips = 1 + static_cast<int>(rng_() % 6);
        return "  var " + i + ": int = 0;\n  while (" + i + " < " + std::to_string(trips) +
               ") {\n  " + Statement(depth - 1) + "    " + i + " = " + i + " + 1;\n  }\n";
      }
    }
  }

  std::mt19937 rng_;
  bool heap_;
  bool repeats_;
  int visible_;
  int counters_;
  int arrays_ = 0;
  int boxes_ = 0;
  int array_len_[2] = {0, 0};
};

TEST(DispatchFuzz, RandomProgramsAgreeAcrossAllConfigurations) {
  // Fixed seed: this is a regression corpus, not an open-ended fuzzer. Each
  // program runs with several argument tuples so data-dependent paths (and
  // data-dependent traps) get exercised.
  constexpr int kPrograms = 60;
  const std::initializer_list<std::int64_t> arg_sets[] = {
      {0, 1, -1},
      {7, -3, 1000},
      {std::numeric_limits<std::int64_t>::min(), -1, 2},
      {std::numeric_limits<std::int64_t>::max(), 0,
       std::numeric_limits<std::int32_t>::min()},
  };
  for (int p = 0; p < kPrograms; ++p) {
    ProgramGen gen(0xC0FFEE + p);
    const std::string source = gen.Generate();
    int tuple = 0;
    for (const auto& args : arg_sets) {
      ExpectAllConfigsAgree(source, "f", args,
                            "program " + std::to_string(p) + " args#" + std::to_string(tuple++));
      if (HasFailure()) {
        return;  // first divergence is the actionable one; stop the corpus
      }
    }
  }
}

// The JIT charges fuel ahead per region and gives back slack on edges and
// exits; under any budget its ledgers must match the interpreter's on the
// same bytecode exactly — the trap point, the instructions retired, and the
// fuel left — including budgets that run out mid-region and forced deopts.
TEST(DispatchFuzz, JitFuelLedgerMatchesInterpreterUnderBudgets) {
  for (int p = 0; p < 40; ++p) {
    ProgramGen gen(0xF0E1 + p, /*heap=*/p % 2 == 1);
    const std::string source = gen.Generate();
    const Program compiled = Compile(source);
    for (const bool fuse : {false, true}) {
      for (const bool elide : {false, true}) {
        const Config interp{DispatchMode::kSwitch, fuse, elide};
        const std::int64_t full =
            static_cast<std::int64_t>(RunConfig(compiled, interp, "f", {7, -3, 1000}).retired);
        for (const std::int64_t budget : {std::int64_t{0}, std::int64_t{1}, full / 3, full / 2,
                                          full - 1, full, full + 1}) {
          const Outcome want = RunConfig(compiled, interp, "f", {7, -3, 1000}, budget);
          for (const bool deopt : {false, true}) {
            const Config jit{DispatchMode::kJit, fuse, elide, deopt};
            const Outcome got = RunConfig(compiled, jit, "f", {7, -3, 1000}, budget);
            EXPECT_TRUE(got == want && got.retired == want.retired && got.fuel == want.fuel)
                << "program " << p << " [" << jit.Name() << "] budget " << budget << ": got "
                << Describe(got) << " retired " << got.retired << " fuel " << got.fuel
                << ", interpreter " << Describe(want) << " retired " << want.retired << " fuel "
                << want.fuel << "\nsource:\n" << source;
            if (HasFailure()) return;
          }
        }
      }
    }
  }
}

// --- Directed arithmetic-trap edge cases ---

TEST(DispatchFuzz, DivisionEdgeCasesTrapIdentically) {
  const std::string div = "fn f(a: int, b: int) -> int { return a / b; }";
  const std::string mod = "fn f(a: int, b: int) -> int { return a % b; }";
  const std::int64_t int_min = std::numeric_limits<std::int64_t>::min();

  ExpectAllConfigsAgree(div, "f", {10, 0}, "div by zero");
  ExpectAllConfigsAgree(div, "f", {int_min, -1}, "div overflow");
  ExpectAllConfigsAgree(div, "f", {int_min, 1}, "div INT_MIN by one");
  ExpectAllConfigsAgree(div, "f", {-7, 2}, "div truncation sign");
  ExpectAllConfigsAgree(mod, "f", {10, 0}, "mod by zero");
  ExpectAllConfigsAgree(mod, "f", {int_min, -1}, "mod overflow");
  ExpectAllConfigsAgree(mod, "f", {-7, 2}, "mod sign");

  // The traps must be the *arithmetic* traps, not incidental agreement.
  const Outcome div0 =
      RunConfig(Compile(div), {DispatchMode::kThreaded, true}, "f", {1, 0});
  ASSERT_TRUE(div0.trapped);
  EXPECT_EQ(div0.trap, "integer division by zero");
  const Outcome overflow =
      RunConfig(Compile(div), {DispatchMode::kThreaded, true}, "f", {int_min, -1});
  ASSERT_TRUE(overflow.trapped);
  EXPECT_EQ(overflow.trap, "integer division overflow");

  // Constant divisors: the JIT lowers powers of two to shifts and masks
  // (checked and `.nz` forms, directly and inside a spliced callee) and
  // drops the checks a constant divisor makes dead; rounding toward zero
  // and the INT64_MIN edge must still match.
  const std::int64_t int_max = std::numeric_limits<std::int64_t>::max();
  for (const std::string k : {"1", "2", "16", "1048576", "2147483648", "3"}) {
    const std::string body = "return a / " + k + " + a % " + k + " * 3;";
    const std::string sources[] = {
        "fn f(a: int, b: int) -> int { " + body + " }",
        "fn g(a: int) -> int { " + body + " }\n" +
            "fn f(a: int, b: int) -> int { return g(a) ^ g(a + b); }",
        "fn f(a: int, b: int) -> int { return int(u32(a) / u32(" + k + ")) + int(u32(a) % u32(" +
            k + ")); }",
    };
    for (const std::string& source : sources) {
      for (const std::int64_t a : {std::int64_t{0}, std::int64_t{-1}, std::int64_t{7},
                                   std::int64_t{-17}, int_min, int_min + 1, int_max}) {
        ExpectAllConfigsAgree(source, "f", {a, 1}, "constant divisor " + k);
      }
    }
  }
}

TEST(DispatchFuzz, TrapsInsideLoopsAgreeMidIteration) {
  // The divisor hits zero on the fourth iteration: every configuration must
  // have committed the same number of iterations' worth of state (checked
  // implicitly by trapping rather than returning a wrong value).
  const std::string source = R"(
    fn f(n: int) -> int {
      var total: int = 0;
      var d: int = 3;
      var i: int = 0;
      while (i < n) {
        total = total + 100 / d;
        d = d - 1;
        i = i + 1;
      }
      return total;
    })";
  ExpectAllConfigsAgree(source, "f", {2}, "loop stops before zero divisor");
  ExpectAllConfigsAgree(source, "f", {10}, "loop traps on zero divisor");
}

// --- Directed superinstruction coverage ---
//
// Each source construct below is chosen so FuseSuperinstructions emits a
// specific superinstruction. The test asserts the opcode is actually present
// in the fused program (so fusion regressions can't silently pass) and that
// both dispatch loops execute it identically.

bool ProgramContains(const Program& program, Op op) {
  for (const auto& fn : program.functions) {
    for (const auto& insn : fn.code) {
      if (insn.op == op) {
        return true;
      }
    }
  }
  return false;
}

struct FusionCase {
  const char* label;
  Op op;
  const char* source;
  std::initializer_list<std::int64_t> args;
};

TEST(DispatchFuzz, EveryFusedOpcodeIsEmittedAndAgrees) {
  const std::int64_t max32 = std::numeric_limits<std::int32_t>::max();
  const FusionCase cases[] = {
      // The constant on the left keeps kLoadLocal2/kLoadConstI from claiming
      // the LoadLocal first.
      {"load+add.i", Op::kLoadAddI, "fn f(a: int) -> int { return 1 + a; }", {3}},
      {"add.const.i", Op::kAddConstI,
       "fn f(a: int) -> int { var x: int = a; x = x + a; return x + 5; }", {10}},
      {"const+store", Op::kConstStore,
       "fn f(a: int) -> int { var x: int = 41; return x + a; }", {1}},
      {"br.lt.i (JmpIfFalse inversion)", Op::kBrGeI,
       "fn f(a: int, b: int) -> int { if (a < b) { return 1; } return 0; }", {1, 2}},
      {"br.eq.ref", Op::kBrNeRef,
       "fn f(a: int) -> int { var xs: int[] = null; if (xs == null) { return a; } return 0; }",
       {9}},
      // The mask keeps the loop counter's LoadLocal from absorbing the
      // comparison constant, so the imm triple still forms.
      {"br.lt.imm.i triple", Op::kBrGeImmI,
       "fn f(a: int) -> int { var t: int = 0; var i: int = 0; while ((i & 1023) < 10)"
       " { t = t + a; i = i + 1; } return t; }",
       {3}},
      {"load.local2", Op::kLoadLocal2, "fn f(a: int, b: int) -> int { return a + b; }", {3, 4}},
      {"load+const.i", Op::kLoadConstI, "fn f(a: int) -> int { return a ^ 21; }", {9}},
      {"move.local", Op::kMoveLocal,
       "fn f(a: int) -> int { var x: int = a; return x * 2; }", {7}},
      {"store+load", Op::kStoreLoad,
       "fn f(a: int) -> int { var x: int = a + a; return x + 1; }", {6}},
      {"load.global+local", Op::kLoadGlobalLocal,
       "var g: int = 40;\nfn f(a: int) -> int { return g + a; }", {2}},
  };
  for (const FusionCase& c : cases) {
    Program program = Compile(c.source);
    minnow::FuseSuperinstructions(program);
    minnow::VerifyProgram(program);
    EXPECT_TRUE(ProgramContains(program, c.op)) << c.label;
    ExpectAllConfigsAgree(c.source, "f", c.args, c.label);
  }
  // Packed-operand round trip at the extremes the fusion pass may emit.
  ExpectAllConfigsAgree("fn f(a: int) -> int { var x: int = " + std::to_string(max32) +
                            "; return x + a; }",
                        "f", {-1}, "const+store int32 max");
  ExpectAllConfigsAgree("fn f(a: int) -> int { var x: int = -2147483648; return x + a; }", "f",
                        {1}, "const+store int32 min");
}

TEST(DispatchFuzz, FusionChangesFuelButNotResults) {
  // Fusion's one intended observable at the supervisor level: fewer
  // instructions retired for the same work.
  const std::string source =
      "fn f(n: int) -> int { var t: int = 0; var i: int = 0;"
      " while (i < n) { t = t + i; i = i + 1; } return t; }";
  const Program raw = Compile(source);
  Program fused = raw;
  const auto stats = minnow::FuseSuperinstructions(fused);
  minnow::VerifyProgram(fused);
  EXPECT_GT(stats.pairs_fused + stats.compare_branches_fused + stats.imm_compare_branches_fused,
            0u);
  EXPECT_LT(stats.instructions_after, stats.instructions_before);

  VM raw_vm(raw);
  VM fused_vm(fused);
  raw_vm.RunInit();
  fused_vm.RunInit();
  EXPECT_EQ(raw_vm.Call("f", {Value::Int(100)}).AsInt(),
            fused_vm.Call("f", {Value::Int(100)}).AsInt());
  EXPECT_LT(fused_vm.instructions_retired(), raw_vm.instructions_retired());
}

// --- Differential check-elision soak ---
//
// Every verifier-accepted generated program (now with arrays, nullable
// references, and guarded/unguarded/out-of-bounds accesses) runs checked
// and elided under {switch, threaded, jit} x {fuse on/off}. The contract
// is total: same value or same trap message, and — because elision
// replaces opcodes strictly 1:1 — the same instructions_retired count,
// which is the supervisor's fuel ledger.

TEST(ElisionFuzz, CheckedAndElidedAgreeOnResultsTrapsAndFuel) {
  int programs = 300;  // local default; CI sets GRAFTLAB_FUZZ_PROGRAMS=10000
  if (const char* env = std::getenv("GRAFTLAB_FUZZ_PROGRAMS")) {
    programs = std::atoi(env);
  }
  const std::initializer_list<std::int64_t> arg_sets[] = {
      {0, 1, -1},
      {7, -3, std::numeric_limits<std::int64_t>::min()},
  };
  for (int p = 0; p < programs; ++p) {
    ProgramGen gen(0xE11DE00 + p, /*heap=*/true);
    const std::string source = gen.Generate();
    if (std::getenv("GRAFTLAB_FUZZ_VERBOSE") != nullptr) {
      fprintf(stderr, "=== program %d ===\n%s", p, source.c_str());
      fflush(stderr);
    }
    const Program compiled = Compile(source);
    for (const DispatchMode dispatch :
         {DispatchMode::kSwitch, DispatchMode::kThreaded, DispatchMode::kJit}) {
      for (const bool fuse : {false, true}) {
        const Config checked{dispatch, fuse, false};
        const Config elided{dispatch, fuse, true};
        for (const auto& args : arg_sets) {
          const std::int64_t budget =
              Budget(RunConfig(compiled, {DispatchMode::kSwitch, false}, "f", args));
          const Outcome want = RunConfig(compiled, checked, "f", args, budget);
          const Outcome got = RunConfig(compiled, elided, "f", args, budget);
          ASSERT_TRUE(want.AgreesWith(got))
              << "program " << p << " [" << elided.Name() << "]: got " << Describe(got)
              << ", checked " << Describe(want) << "\nsource:\n"
              << source;
          ASSERT_EQ(want.retired, got.retired)
              << "program " << p << " [" << elided.Name()
              << "]: fuel ledger diverged\nsource:\n"
              << source;
        }
      }
    }
  }
}

// --- Adversarial must-not-elide cases ---
//
// Each case is a program whose safety check LOOKS removable but is not; the
// assertion is against the elision certificate's static counters (and the
// absence of the unchecked opcode), then against runtime behavior: the
// retained check must still fire, identically, in the elided build.

// Straight-line repeats — a global, an element or a quotient computed
// twice, with and without a store to it in between — under every
// configuration against the reference, fuel ledger included: the JIT reuses
// values and skips checks it already ran, and neither may change a result,
// a trap, or the instruction the trap lands on.
TEST(ValueNumberingFuzz, RepeatedLoadsAndDivisionsAgreeWithTheReference) {
  int programs = 300;  // local default; CI sets GRAFTLAB_FUZZ_PROGRAMS=10000
  if (const char* env = std::getenv("GRAFTLAB_FUZZ_PROGRAMS")) {
    programs = std::atoi(env);
  }
  const std::initializer_list<std::int64_t> arg_sets[] = {
      {0, 1, -1},
      {7, -3, std::numeric_limits<std::int64_t>::min()},
  };
  for (int p = 0; p < programs; ++p) {
    ProgramGen gen(0x7A1E0 + p, /*heap=*/p % 2 == 1, /*repeats=*/true);
    const std::string source = gen.Generate();
    const Program compiled = Compile(source);
    for (const auto& args : arg_sets) {
      const Outcome want = RunConfig(compiled, {DispatchMode::kSwitch, false}, "f", args);
      for (const bool fuse : {false, true}) {
        for (const bool elide : {false, true}) {
          const Config jit{DispatchMode::kJit, fuse, elide};
          const Config interp{DispatchMode::kSwitch, fuse, elide};
          const Outcome got = RunConfig(compiled, jit, "f", args, Budget(want));
          const Outcome same_code = RunConfig(compiled, interp, "f", args, Budget(want));
          ASSERT_TRUE(want.AgreesWith(got))
              << "program " << p << " [" << jit.Name() << "]: got " << Describe(got)
              << ", reference " << Describe(want) << "\nsource:\n"
              << source;
          ASSERT_EQ(same_code.retired, got.retired)
              << "program " << p << " [" << jit.Name() << "]: fuel ledger diverged\nsource:\n"
              << source;
        }
      }
    }
  }
}

void ExpectCheckedElidedAgree(const char* source, const char* fn,
                              std::initializer_list<std::int64_t> args, const char* label,
                              bool expect_trap) {
  const Program compiled = Compile(source);
  const Config checked{DispatchMode::kSwitch, false, false};
  const Config elided{DispatchMode::kSwitch, false, true};
  const std::int64_t budget = Budget(RunConfig(compiled, checked, fn, args));
  const Outcome want = RunConfig(compiled, checked, fn, args, budget);
  const Outcome got = RunConfig(compiled, elided, fn, args, budget);
  EXPECT_EQ(want.trapped, expect_trap) << label;
  EXPECT_TRUE(want.AgreesWith(got)) << label << ": got " << Describe(got) << ", checked "
                                    << Describe(want);
  EXPECT_EQ(want.retired, got.retired) << label;
}

TEST(ElisionAdversarial, OffByOneLoopBoundKeepsTheBoundsCheck) {
  const char* source =
      "fn f() -> int {\n"
      "  var a: int[] = new int[4];\n"
      "  var i: int = 0;\n"
      "  while (i <= 4) { a[i] = i; i = i + 1; }\n"
      "  return a[0];\n"
      "}\n";
  Program program = Compile(source);
  const auto stats = minnow::ElideChecks(program);
  EXPECT_FALSE(ProgramContains(program, Op::kStoreElemNC));
  EXPECT_EQ(stats.elem_stores_elided, 0u);
  EXPECT_EQ(program.elision.elem_stores_elided, 0u);
  EXPECT_GT(program.elision.checks_retained, 0u);
  ExpectCheckedElidedAgree(source, "f", {}, "off-by-one loop", /*expect_trap=*/true);
}

TEST(ElisionAdversarial, NilReassignmentAfterGuardKeepsTheNullCheck) {
  // The first b.a store is proven by the `b != null` guard; the reassignment
  // through b.b (which is null) must invalidate that fact before the second
  // store, whose check fires at run time.
  const char* source =
      "struct Box { a: int; b: Box; }\n"
      "fn f(c: int) -> int {\n"
      "  var b: Box = null;\n"
      "  if (c > 0) { b = new Box(); }\n"
      "  if (b != null) {\n"
      "    b.a = 1;\n"
      "    b = b.b;\n"
      "    b.a = 2;\n"
      "  }\n"
      "  return c;\n"
      "}\n";
  Program program = Compile(source);
  const auto stats = minnow::ElideChecks(program);
  EXPECT_GE(stats.field_accesses_elided, 1u);  // the guarded store (and load)
  EXPECT_TRUE(ProgramContains(program, Op::kStoreField));  // the post-reassignment store
  EXPECT_GT(program.elision.checks_retained, 0u);
  ExpectCheckedElidedAgree(source, "f", {1}, "guard then nil reassignment",
                           /*expect_trap=*/true);
  ExpectCheckedElidedAgree(source, "f", {0}, "guard not taken", /*expect_trap=*/false);
}

TEST(ElisionAdversarial, JoinedArraysOfDifferentLengthsKeepTheBoundsCheck) {
  // Minnow arrays are fixed-length, so the "resize" hazard appears as a
  // merge of references with different proven lengths: the join must keep
  // only the shorter bound, and index 5 against it stays checked.
  const char* source =
      "fn f(c: int) -> int {\n"
      "  var a: int[] = new int[2];\n"
      "  var b: int[] = new int[8];\n"
      "  var x: int[] = a;\n"
      "  if (c > 0) { x = b; }\n"
      "  x[5] = 1;\n"
      "  return x.len;\n"
      "}\n";
  Program program = Compile(source);
  const auto stats = minnow::ElideChecks(program);
  EXPECT_FALSE(ProgramContains(program, Op::kStoreElemNC));
  EXPECT_EQ(stats.elem_stores_elided, 0u);
  // Both facts survive the join, so the length read itself is provable.
  EXPECT_GE(stats.array_lens_elided, 1u);
  ExpectCheckedElidedAgree(source, "f", {0}, "short arm out of bounds", /*expect_trap=*/true);
  ExpectCheckedElidedAgree(source, "f", {1}, "long arm in bounds", /*expect_trap=*/false);
}

TEST(ElisionAdversarial, ZeroOnlyDivisorGuardKeepsTheDivisionCheck) {
  // `b != 0` rules out the zero divisor but NOT INT64_MIN / -1 — eliding on
  // that guard alone would turn a trap into undefined behavior.
  const char* guarded_nonzero =
      "fn f(a: int, b: int) -> int { if (b != 0) { return a / b; } return 0; }\n";
  Program program = Compile(guarded_nonzero);
  const auto stats = minnow::ElideChecks(program);
  EXPECT_FALSE(ProgramContains(program, Op::kDivNZ));
  EXPECT_EQ(stats.divs_elided, 0u);
  ExpectCheckedElidedAgree(guarded_nonzero, "f",
                           {std::numeric_limits<std::int64_t>::min(), -1},
                           "INT64_MIN / -1 behind != 0 guard", /*expect_trap=*/true);

  // A positive-divisor guard proves both halves, so the same division IS
  // elided — the contrast pins the decision to the right predicate.
  const char* guarded_positive =
      "fn f(a: int, b: int) -> int { if (b > 0) { return a / b; } return 0; }\n";
  Program positive = Compile(guarded_positive);
  const auto positive_stats = minnow::ElideChecks(positive);
  EXPECT_TRUE(ProgramContains(positive, Op::kDivNZ));
  EXPECT_GE(positive_stats.divs_elided, 1u);
  ExpectCheckedElidedAgree(guarded_positive, "f",
                           {std::numeric_limits<std::int64_t>::min(), 1},
                           "INT64_MIN / 1 behind > 0 guard", /*expect_trap=*/false);
}

}  // namespace
