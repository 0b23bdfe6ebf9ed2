// The Minnow baseline JIT: verify-then-compile, interpreter as the oracle.
//
// A load-time template JIT in the eBPF mold. Bytecode that has passed the
// verifier (and optionally the check-elision pass) is compiled function by
// function into an mmap'd W^X code arena: the arena is mapped writable while
// templates are stitched, then flipped to read+execute before the first
// instruction runs, so at no point is memory both writable and executable.
//
// Per-opcode templates reproduce the exact semantics of vm_dispatch.inc.
// Every slot keeps a static address — the verifier proves a unique operand
// depth per pc, so operand d of a function with L locals lives at
// [locals_base + 8*(L+d)] and no stack-pointer register exists in compiled
// code — but values reach those slots lazily. Within a basic block the
// compiler tracks where each operand lives (register, immediate, local
// alias, flags) and numbers values by what computed them, so a repeated
// global load, pure op or check is reused rather than redone; up to six
// locals live in registers for the whole function. Slots are written at
// block ends, before helper and native calls, and by exit stubs. Safety
// checks are inlined (null, element kind, bounds, divide); at sites the
// elision certificate proved safe the `.nc` opcode forms are emitted
// natively with no check instructions. The elision pass's other facts
// (Program::facts) remove checks only behind guards that deopt when a
// fact is false, hoisted to where a loop or the function is entered when
// their inputs cannot change inside it.
//
// Native code works on the VM's execution state in place (ExecState, in
// vm.h): entering it copies nothing, and each compiled function's prologue
// pushes its own frame with the interpreter's checks.
//
// Fuel is charged ahead per region: one compare at each loop head, call
// return, and entry covers the longest run to the next such point
// (spliced callees included), and the retired-instruction ledger is
// derived from the same register. Edges
// and side exits carry static corrections so the ledgers an observer can
// read (fuel(), instructions_retired()) are bit-identical to an
// interpreted run.
//
// Deoptimization is the safety net. Any condition the native code does not
// handle — a trap check firing, fuel too low for the next block, an opcode
// the compile filter denied, a callee that failed to compile — side-exits
// through a stub that first writes back its own deopt map (every value the
// frame memory lacks at that point), then reconstructs the interpreter
// frame (sp committed from the static depth, frame->pc set to the faulting
// instruction, ledgers corrected) and unwinds the whole native call chain
// back to the runner, which resumes the interpreter on the same frame
// stack — byte-identical to the frame an interpreted run would have there.
// Trapping instructions are re-executed by the interpreter so the trap
// message, the unwind path, and the ledgers come from the same code an
// interpreted run uses. Host calls and allocations run through helpers
// after native code commits sp and the ledgers; exceptions a helper observes are captured and
// rethrown from the runner (native frames carry no unwind tables, so C++
// exceptions must never cross them).
//
// Portability: x86-64 SysV only, behind the GRAFTLAB_JIT CMake option. Other
// targets (and GRAFTLAB_JIT=OFF builds) compile this header and jit.cc but
// Jit::Available() returns false and VmOptions::dispatch = kJit silently
// falls back to the interpreter, mirroring the kThreaded fallback.

#ifndef GRAFTLAB_SRC_MINNOW_JIT_H_
#define GRAFTLAB_SRC_MINNOW_JIT_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/minnow/bytecode.h"
#include "src/minnow/heap.h"

namespace minnow {

class VM;
struct ExecState;

// Counters exported through ExecutionProfile -> graftd telemetry -> obslab.
struct JitStats {
  std::uint64_t compiled_fns = 0;  // functions fully compiled to native code
  std::uint64_t bytes = 0;         // native bytes emitted into the arena
  std::uint64_t deopts = 0;        // runtime side exits to the interpreter
  std::uint64_t bailouts = 0;      // functions that stayed interpreted
};

// Where a native PC inside the code arena came from: the compiled function
// and the bytecode instruction its code was emitted for (code spliced from
// a callee resolves to the caller's kCall). fn == -1 outside compiled code.
struct JitLocation {
  int fn = -1;
  std::size_t pc = 0;
};

// Status codes native code returns to the runner (and between compiled
// frames), in rax; a returning function's value travels in rdx. Values are
// fixed: they are baked into emitted code. Helpers return 0 for "continue
// in native code".
enum : std::uint32_t {
  kJitFrameReturned = 1,  // the function returned; its value is JitResult::value
  kJitNoFrame = 2,        // the prologue's frame checks failed; nothing was pushed
  kJitDeopt = 3,          // interpreter must resume at frames[nframes-1]
  kJitException = 4,      // a helper captured an exception; runner rethrows
};

// What native code and helpers return: {status, value} in rax:rdx.
struct JitResult {
  std::uint64_t status;
  std::uint64_t value;
};

// Per-VM compiled code. Built once at load time by the VM constructor when
// VmOptions::dispatch resolves to kJit; immutable afterwards (the stats
// deopt counter aside).
class Jit {
 public:
  // True when this build can emit and run native code (x86-64 + mmap +
  // GRAFTLAB_JIT=ON). Everything else makes Compile() return null.
  static bool Available();

  // Compiles `vm`'s program, which the VM constructor has verified, per
  // vm's VmOptions (jit_* fields). Returns null — leaving the VM on the
  // interpreter — when unavailable or when nothing compiled.
  static std::unique_ptr<Jit> Compile(VM& vm);

  ~Jit();
  Jit(const Jit&) = delete;
  Jit& operator=(const Jit&) = delete;

  bool compiled(int fn_index) const {
    return fn_index >= 0 && static_cast<std::size_t>(fn_index) < compiled_.size() &&
           compiled_[static_cast<std::size_t>(fn_index)];
  }

  // Enters the compiled body of `fn_index` (which must be compiled) on the
  // VM's execution state in place. Its arguments are the top num_params
  // stack slots (sp already past them); the native prologue pushes the
  // frame itself, with the interpreter's depth, capacity and stack-room
  // checks, and returns kJitNoFrame without touching anything when one
  // fails. While native code runs, Current() names this Jit on the calling
  // thread (restored on return, so reentry nests).
  JitResult Enter(ExecState& st, int fn_index) const {
    const Jit* const outer = current_;
    current_ = this;
    const JitResult result =
        reinterpret_cast<JitResult (*)(ExecState*)>(entries_[static_cast<std::size_t>(fn_index)])(&st);
    current_ = outer;
    return result;
  }

  // The Jit whose native code the calling thread is running, or null. Safe
  // from a signal handler: one thread-local load.
  static const Jit* Current() { return current_; }

  // Maps a native PC (a profiler sample, a fault address) back to bytecode.
  // Safe from a signal handler: no allocation, no locks.
  JitLocation Resolve(const void* native_pc) const;
  // The name of compiled function `fn` (valid while the VM lives; signal-
  // safe). Null for a function this Jit does not know.
  const char* FunctionName(int fn) const;

  const JitStats& stats() const { return stats_; }
  void CountDeopt() { ++stats_.deopts; }

 private:
  Jit() = default;

  // Out-of-line work compiled code calls into (SysV: the ExecState in rdi,
  // operands in rsi/rdx). Results travel in rax:rdx — status 0 means
  // continue natively.
  static JitResult HelpNewStruct(ExecState* st, std::uint64_t struct_idx);
  static JitResult HelpNewArray(ExecState* st, std::uint64_t elem, std::uint64_t length);
  static JitResult HelpCallHost(ExecState* st, std::uint64_t import_idx);

  inline static thread_local constinit const Jit* current_ = nullptr;

  struct Impl;

  // Per compiled function, in arena order: its native extent and the
  // native-offset -> bytecode-pc table the compiler recorded (ascending).
  struct UnitMap {
    std::uintptr_t start;
    std::size_t size;
    int fn;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pcs;
  };
  std::vector<UnitMap> units_;
  std::vector<char> compiled_;
  // Per-function native entry (or the shared no-frame trampoline). kCall
  // sites load through this table, so compilation order never matters.
  std::vector<void*> entries_;
  std::vector<const char*> names_;  // by function index
  std::uint8_t* arena_ = nullptr;
  std::size_t arena_size_ = 0;
  JitStats stats_;
};

}  // namespace minnow

#endif  // GRAFTLAB_SRC_MINNOW_JIT_H_
