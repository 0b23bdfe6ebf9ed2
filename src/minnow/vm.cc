#include "src/minnow/vm.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "src/minnow/elide.h"
#include "src/minnow/jit.h"
#include "src/minnow/verifier.h"

// The computed-goto dispatcher needs GNU labels-as-values; the CMake option
// GRAFTLAB_THREADED_DISPATCH (on by default) injects the macro, and the
// compiler check keeps non-GNU builds on the portable switch loop.
#if defined(GRAFTLAB_THREADED_DISPATCH) && (defined(__GNUC__) || defined(__clang__))
#define GRAFTLAB_VM_COMPUTED_GOTO 1
#else
#define GRAFTLAB_VM_COMPUTED_GOTO 0
#endif

namespace minnow {

namespace {

constexpr std::uint64_t kU32Mask = 0xFFFFFFFFull;

Object* AsObject(Value v) { return reinterpret_cast<Object*>(v.bits); }

Object* RequireObject(Value v, const char* what) {
  Object* object = AsObject(v);
  if (object == nullptr) {
    throw Trap(std::string("null dereference in ") + what);
  }
  return object;
}

std::size_t CheckIndex(const Object* array, std::int64_t index) {
  const std::size_t length = array->length();
  if (index < 0 || static_cast<std::size_t>(index) >= length) {
    throw Trap("array index " + std::to_string(index) + " out of bounds [0, " +
               std::to_string(length) + ")");
  }
  return static_cast<std::size_t>(index);
}

// Opcode-body helpers, forced inline: the dispatch loops are large enough
// that GCC would otherwise call them out of line on every access.

// A struct's field slot: a non-struct or an index past its layout traps.
[[gnu::always_inline]] inline Value& FieldSlot(Object* object, std::int64_t operand) {
  const auto index = static_cast<std::size_t>(operand);
  if (object->kind() != Object::Kind::kStruct || index >= object->length()) {
    throw Trap("bad field access");
  }
  return object->fields()[index];
}

// Element access by the array's runtime kind (the index is already valid).
[[gnu::always_inline]] inline Value LoadElement(Object* array, std::size_t index) {
  switch (array->elem()) {
    case TypeKind::kInt: return Value::Int(array->longs()[index]);
    case TypeKind::kU32: return {array->words()[index]};
    default: return Value::Int(array->bytes()[index]);
  }
}

[[gnu::always_inline]] inline void StoreElement(Object* array, std::size_t index, Value value) {
  switch (array->elem()) {
    case TypeKind::kInt: array->longs()[index] = value.AsInt(); break;
    case TypeKind::kU32: array->words()[index] = value.AsU32(); break;
    case TypeKind::kBool: array->bytes()[index] = value.bits != 0 ? 1 : 0; break;
    default: array->bytes()[index] = static_cast<std::uint8_t>(value.bits); break;
  }
}

// Extra frame slots beyond max_call_depth: the per-entry depth limit is
// relative to the entry frame, so a host function that reenters the VM may
// legitimately stack a few more frames than one entry alone could.
constexpr std::size_t kReentrySlack = 64;

std::vector<std::pair<std::string, std::uint64_t>> SortedCounts(
    std::vector<std::pair<std::string, std::uint64_t>> counts) {
  std::sort(counts.begin(), counts.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  return counts;
}

}  // namespace

VM::VM(Program program, const VmOptions& options)
    : program_(std::move(program)),
      options_(options),
      heap_(options.heap_limit),
      arena_(options.stack_slots * sizeof(Value) +
             (options.max_call_depth + kReentrySlack) * sizeof(Frame) +
             (options.profile_opcodes ? (kNumOps + 2) * kNumOps * sizeof(std::uint64_t) : 0) +
             256),
      hosts_(program_.host_imports.size()),
      globals_(program_.globals.size()) {
  st_.vm = this;
  st_.stack = arena_.NewArray<Value>(options.stack_slots);
  st_.globals = globals_.data();
  st_.fuel = options.fuel;
  stack_slots_ = options.stack_slots;
  frame_capacity_ = options.max_call_depth + kReentrySlack;
  st_.frames = arena_.NewArray<Frame>(frame_capacity_);
  if (options.profile_opcodes) {
    op_counts_ = arena_.NewArray<std::uint64_t>(kNumOps);
    pair_counts_ = arena_.NewArray<std::uint64_t>((kNumOps + 1) * kNumOps);
  }
  threaded_ = options.dispatch != DispatchMode::kSwitch && ThreadedDispatchAvailable();
  if (options.elide_checks && !program_.elision.attached) {
    ElideChecks(program_);
  } else if (program_.elision.attached && !ElisionCertificateValid(program_)) {
    // A stamped program whose code no longer matches its proof is refused
    // outright — running it would execute unchecked accesses unproven.
    throw std::invalid_argument("elision certificate does not match the code");
  } else if (!program_.elision.attached && HasUncheckedOps(program_)) {
    // Unchecked opcodes with no proof at all (a Program that never went
    // through ElideChecks or VerifyProgram) are refused the same way: the
    // interpreter and the JIT would both run them without their checks.
    throw std::invalid_argument("unchecked opcodes without an elision certificate");
  }
  // Native compilation happens after elision so `.nc` sites the certificate
  // proved safe are emitted without check instructions. Profiling VMs stay on
  // the interpreter: native code does not feed the opcode/pair tables.
  if (options.dispatch == DispatchMode::kJit && !options.profile_opcodes &&
      Jit::Available()) {
    jit_ = Jit::Compile(*this);
  }
}

VM::~VM() = default;

bool VM::JitDispatchAvailable() { return Jit::Available(); }

const JitStats* VM::jit_stats() const {
  return jit_ != nullptr ? &jit_->stats() : nullptr;
}

bool VM::ThreadedDispatchAvailable() {
#if GRAFTLAB_VM_COMPUTED_GOTO
  return true;
#else
  return false;
#endif
}

void VM::BindHost(const std::string& name, HostFn fn) {
  for (std::size_t i = 0; i < program_.host_imports.size(); ++i) {
    if (program_.host_imports[i].name == name) {
      hosts_[i] = std::move(fn);
      return;
    }
  }
  throw std::invalid_argument("no host import named '" + name + "'");
}

void VM::RunInit() {
  const int init = program_.FindFunction("@init");
  if (init >= 0) {
    Execute(init, {});
  }
  init_ran_ = true;
}

int VM::FunctionIndex(const std::string& name) const {
  const int index = program_.FindFunction(name);
  if (index < 0) {
    throw std::invalid_argument("no function named '" + name + "'");
  }
  return index;
}

Value VM::CallIndex(int fn_index, std::span<const Value> args) {
  // The elision proof's global invariants assume initialized globals; a
  // certified program may not run anything before RunInit.
  if (fn_index < 0 || static_cast<std::size_t>(fn_index) >= program_.functions.size() ||
      static_cast<int>(args.size()) !=
          program_.functions[static_cast<std::size_t>(fn_index)].num_params ||
      (program_.elision.attached && !init_ran_)) [[unlikely]] {
    RefuseCall(fn_index, args.size());
  }
  return Execute(fn_index, args);
}

void VM::RefuseCall(int fn_index, std::size_t nargs) const {
  if (fn_index < 0 || static_cast<std::size_t>(fn_index) >= program_.functions.size()) {
    throw std::invalid_argument("function index out of range");
  }
  const auto& fn = program_.functions[static_cast<std::size_t>(fn_index)];
  if (static_cast<int>(nargs) != fn.num_params) {
    throw std::invalid_argument("'" + fn.name + "' expects " + std::to_string(fn.num_params) +
                                " arguments");
  }
  throw Trap("certified program called before RunInit");
}

void VM::MaybeCollect(std::size_t incoming_bytes) {
  if (heap_.ShouldCollect(incoming_bytes)) {
    heap_.Collect(*this);
  }
}

void VM::EnumerateRoots(Heap& heap) {
  // Precise: reference globals.
  for (std::size_t g = 0; g < globals_.size(); ++g) {
    if (program_.globals[g].is_ref) {
      void* candidate = reinterpret_cast<void*>(globals_[g].bits);
      if (candidate != nullptr && heap.IsObject(candidate)) {
        heap.Mark(static_cast<Object*>(candidate));
      }
    }
  }
  // Conservative: every live stack slot.
  for (std::size_t i = 0; i < st_.sp; ++i) {
    void* candidate = reinterpret_cast<void*>(st_.stack[i].bits);
    if (candidate != nullptr && heap.IsObject(candidate)) {
      heap.Mark(static_cast<Object*>(candidate));
    }
  }
  // Host pins.
  for (Object* object : pinned_) {
    heap.Mark(object);
  }
}

Object* VM::NewByteArray(std::span<const std::uint8_t> data) {
  MaybeCollect(data.size());
  Object* array = heap_.NewArray(TypeKind::kByte, data.size());
  std::memcpy(array->bytes().data(), data.data(), data.size());
  return array;
}

Object* VM::NewIntArray(std::span<const std::int64_t> data) {
  MaybeCollect(data.size() * 8);
  Object* array = heap_.NewArray(TypeKind::kInt, data.size());
  std::memcpy(array->longs().data(), data.data(), data.size() * sizeof(std::int64_t));
  return array;
}

Object* VM::NewU32Array(std::size_t length) {
  MaybeCollect(length * 4);
  return heap_.NewArray(TypeKind::kU32, length);
}

int VM::GlobalIndex(const std::string& name) const {
  for (std::size_t g = 0; g < globals_.size(); ++g) {
    if (program_.globals[g].name == name) {
      return static_cast<int>(g);
    }
  }
  throw std::invalid_argument("no global named '" + name + "'");
}

void VM::SetGlobal(const std::string& name, Value value) {
  // Host writes bypass the dataflow that established the elision proof's
  // global invariants, so certified programs refuse them.
  if (program_.elision.attached) {
    throw std::invalid_argument("SetGlobal on a certified (check-elided) program");
  }
  globals_[static_cast<std::size_t>(GlobalIndex(name))] = value;
}

std::vector<std::pair<std::string, std::uint64_t>> VM::OpcodeCounts() const {
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  if (op_counts_ == nullptr) {
    return counts;
  }
  for (std::size_t op = 0; op < kNumOps; ++op) {
    if (op_counts_[op] > 0) {
      counts.emplace_back(OpName(static_cast<Op>(op)), op_counts_[op]);
    }
  }
  return SortedCounts(std::move(counts));
}

std::vector<std::pair<std::string, std::uint64_t>> VM::OpcodePairCounts(std::size_t top_n) const {
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  if (pair_counts_ == nullptr) {
    return counts;
  }
  // Row kNumOps is the entry sentinel (no predecessor) — not a real pair.
  for (std::size_t prev = 0; prev < kNumOps; ++prev) {
    for (std::size_t cur = 0; cur < kNumOps; ++cur) {
      const std::uint64_t n = pair_counts_[prev * kNumOps + cur];
      if (n > 0) {
        counts.emplace_back(std::string(OpName(static_cast<Op>(prev))) + ">" +
                                OpName(static_cast<Op>(cur)),
                            n);
      }
    }
  }
  counts = SortedCounts(std::move(counts));
  if (counts.size() > top_n) {
    counts.resize(top_n);
  }
  return counts;
}

void VM::PushFrame(const FunctionCode& fn, std::size_t entry_frames) {
  if (st_.nframes - entry_frames >= options_.max_call_depth || st_.nframes == frame_capacity_) {
    throw Trap("call depth limit exceeded");
  }
  const std::size_t base = st_.sp - static_cast<std::size_t>(fn.num_params);
  const std::size_t needed =
      static_cast<std::size_t>(fn.num_locals) + static_cast<std::size_t>(fn.max_stack);
  if (base + needed > stack_slots_) {
    throw Trap("VM stack overflow");
  }
  // The args already sit at base..base+num_params; null the rest.
  for (std::size_t i = static_cast<std::size_t>(fn.num_params);
       i < static_cast<std::size_t>(fn.num_locals); ++i) {
    st_.stack[base + i] = Value::Null();
  }
  st_.sp = base + static_cast<std::size_t>(fn.num_locals);
  st_.frames[st_.nframes++] = Frame{&fn, 0, base};
}

Value VM::Execute(int fn_index, std::span<const Value> args) {
  const std::size_t entry_sp = st_.sp;
  const std::size_t entry_frames = st_.nframes;
  if (entry_sp + args.size() > stack_slots_) [[unlikely]] {
    throw Trap("VM stack overflow");  // nothing written yet
  }
  for (const Value& arg : args) {
    st_.stack[st_.sp++] = arg;
  }
  if (jit_ != nullptr && jit_->compiled(fn_index)) {
    // Native code pushes its own frame over the arguments. The depth limit
    // is relative to this entry; a host that reenters sets its own, and
    // this one comes back when it returns.
    const std::uint64_t outer_limit = st_.frame_limit;
    st_.frame_limit = std::min(entry_frames + options_.max_call_depth, frame_capacity_);
    const JitResult result = jit_->Enter(st_, fn_index);
    st_.frame_limit = outer_limit;
    if (result.status == kJitFrameReturned) [[likely]] {
      st_.sp = entry_sp;
      return Value{result.value};
    }
    return FinishJit(fn_index, result.status, entry_sp, entry_frames);
  }
  return Interpret(&program_.functions[static_cast<std::size_t>(fn_index)], entry_sp,
                   entry_frames);
}

Value VM::Interpret(const FunctionCode* callee, std::size_t entry_sp, std::size_t entry_frames) {
  try {
    if (callee != nullptr) {
      PushFrame(*callee, entry_frames);
    }
    return threaded_ ? RunThreaded(entry_frames) : RunSwitch(entry_frames);
  } catch (...) {
    // Unwind to the caller's state so the VM stays usable after a trap.
    st_.nframes = entry_frames;
    st_.sp = entry_sp;
    throw;
  }
}

Value VM::FinishJit(int fn_index, std::uint64_t status, std::size_t entry_sp,
                    std::size_t entry_frames) {
  if (status == kJitException) {
    st_.nframes = entry_frames;
    st_.sp = entry_sp;
    std::exception_ptr pending = std::move(jit_pending_);
    jit_pending_ = nullptr;
    std::rethrow_exception(pending);
  }
  if (status == kJitNoFrame) {
    // The prologue's frame checks failed before it wrote anything; the
    // interpreter's PushFrame raises the identical trap.
    return Interpret(&program_.functions[static_cast<std::size_t>(fn_index)], entry_sp,
                     entry_frames);
  }
  // kJitDeopt: native code reconstructed interpreter frame state (pc at the
  // instruction to re-execute, sp committed, ledgers corrected). Deopt is
  // wholesale — the rest of this entry runs interpreted, which keeps the
  // exit protocol trivial and the interpreter the single source of truth
  // for every slow path.
  jit_->CountDeopt();
  return Interpret(nullptr, entry_sp, entry_frames);
}

// Shared per-instruction bookkeeping: retire, charge fuel, profile. `ip` must
// already point at the fetched instruction.
#define GRAFTLAB_VM_PRELUDE()                                          \
  do {                                                                 \
    ++st_.retired;                                                     \
    if (st_.fuel >= 0 && st_.fuel-- == 0) {                            \
      throw Trap("fuel exhausted: graft preempted");                   \
    }                                                                  \
    if (op_counts_ != nullptr) {                                       \
      const auto cur = static_cast<std::size_t>(ip->op);               \
      ++op_counts_[cur];                                               \
      ++pair_counts_[prev_op * kNumOps + cur];                         \
      prev_op = cur;                                                   \
    }                                                                  \
  } while (0)

Value VM::RunSwitch(std::size_t entry_frames) {
  Frame* frame = &st_.frames[st_.nframes - 1];
  const Insn* code = frame->fn->code.data();
  std::size_t pc = frame->pc;
  Value* const stack = st_.stack;
  std::size_t sp = st_.sp;
  std::size_t prev_op = kNumOps;  // profile sentinel: no predecessor yet
  const Insn* ip;

  for (;;) {
    ip = &code[pc++];
    GRAFTLAB_VM_PRELUDE();
    switch (ip->op) {
#define GRAFTLAB_VM_OP(name) case Op::name:
#define GRAFTLAB_VM_END_OP break;
#include "src/minnow/vm_dispatch.inc"
#undef GRAFTLAB_VM_OP
#undef GRAFTLAB_VM_END_OP
    }
  }
}

// The threaded loop's indirect branches are sensitive to code alignment: a
// 48-byte shift of this function's start (from unrelated code growing ahead
// of it) measured 5-8% on interpreted md5. A fixed cache-line start keeps
// its layout independent of what precedes it in the binary.
[[gnu::aligned(64)]] Value VM::RunThreaded(std::size_t entry_frames) {
#if GRAFTLAB_VM_COMPUTED_GOTO
  // One label per opcode, generated from the same X-macro as the enum, so
  // the table cannot drift out of order.
  static const void* const kLabels[] = {
#define GRAFTLAB_MINNOW_LABEL_ENTRY(name) &&Lbl_##name,
      GRAFTLAB_MINNOW_OPS(GRAFTLAB_MINNOW_LABEL_ENTRY)
#undef GRAFTLAB_MINNOW_LABEL_ENTRY
  };
  static_assert(sizeof(kLabels) / sizeof(kLabels[0]) == kNumOps);

  Frame* frame = &st_.frames[st_.nframes - 1];
  const Insn* code = frame->fn->code.data();
  std::size_t pc = frame->pc;
  Value* const stack = st_.stack;
  std::size_t sp = st_.sp;
  std::size_t prev_op = kNumOps;
  const Insn* ip;

// The dispatch is replicated at the end of every opcode body (instead of
// jumping back to one shared site) so the branch predictor sees one indirect
// branch per opcode — the classic win of token threading over switch.
#define GRAFTLAB_VM_DISPATCH()                           \
  do {                                                   \
    ip = &code[pc++];                                    \
    GRAFTLAB_VM_PRELUDE();                               \
    goto* kLabels[static_cast<std::size_t>(ip->op)];     \
  } while (0)

  GRAFTLAB_VM_DISPATCH();

#define GRAFTLAB_VM_OP(name) Lbl_##name:
#define GRAFTLAB_VM_END_OP GRAFTLAB_VM_DISPATCH();
#include "src/minnow/vm_dispatch.inc"
#undef GRAFTLAB_VM_OP
#undef GRAFTLAB_VM_END_OP
#undef GRAFTLAB_VM_DISPATCH

  __builtin_unreachable();
#else
  return RunSwitch(entry_frames);
#endif
}

#undef GRAFTLAB_VM_PRELUDE

}  // namespace minnow
