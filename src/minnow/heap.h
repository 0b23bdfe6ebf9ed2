// Minnow's garbage-collected heap.
//
// Two object shapes: structs (64-bit slots with a per-class reference map)
// and scalar arrays (int/u32/bool/byte element storage). Collection is
// mark-and-sweep, triggered by allocation volume: roots are the globals'
// reference slots (precise), the VM's operand/local stack (scanned
// conservatively against the live-object set, as several real collectors of
// the paper's era did), and host-pinned handles.
//
// Modula-3's safety story in the paper leans on exactly this: no dangling
// pointers, no pointer forging. The heap enforces the first by never freeing
// a reachable object; the verifier and typed opcodes enforce the second.

#ifndef GRAFTLAB_SRC_MINNOW_HEAP_H_
#define GRAFTLAB_SRC_MINNOW_HEAP_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "src/minnow/bytecode.h"
#include "src/minnow/diag.h"
#include "src/minnow/types.h"

namespace minnow {

// One VM value: a 64-bit slot. References hold an Object*.
struct Value {
  std::uint64_t bits = 0;

  static Value Int(std::int64_t v) { return {static_cast<std::uint64_t>(v)}; }
  static Value Ref(void* p) { return {reinterpret_cast<std::uint64_t>(p)}; }
  static Value Null() { return {0}; }

  std::int64_t AsInt() const { return static_cast<std::int64_t>(bits); }
  std::uint32_t AsU32() const { return static_cast<std::uint32_t>(bits); }
  bool AsBool() const { return bits != 0; }
};

// A heap object: a 16-byte header and, in the same allocation at the fixed
// offset kPayload, its zero-initialized payload — `length` Value fields for
// a struct, `length` int64/u32/byte elements for an array. Both shapes are
// fixed-size after creation (a struct's field count is its layout's, and
// kNewArray picks an array's length), so one load from a fixed offset
// reaches any field or element; the JIT addresses [obj + kPayload +
// index << scale] directly. The header is immutable outside the heap.
class alignas(8) Object {
 public:
  enum class Kind : std::uint8_t { kStruct, kArray };

  // Header offsets, for code that addresses objects without C++ (jit.cc).
  static constexpr std::int32_t kKindOffset = 0;
  static constexpr std::int32_t kElemOffset = 2;
  static constexpr std::int32_t kLengthOffset = 8;
  static constexpr std::int32_t kPayload = 16;

  Kind kind() const { return kind_; }
  // Element kind of an array; kVoid for a struct.
  TypeKind elem() const { return elem_; }
  int struct_id() const { return struct_id_; }
  // Fields of a struct or elements of an array.
  std::uint32_t length() const { return length_; }

  std::span<Value> fields() { return Payload<Value>(); }
  std::span<std::int64_t> longs() { return Payload<std::int64_t>(); }    // kInt
  std::span<std::uint32_t> words() { return Payload<std::uint32_t>(); }  // kU32
  std::span<std::uint8_t> bytes() { return Payload<std::uint8_t>(); }    // kByte / kBool

  // Header plus payload: exactly what the allocation holds.
  std::size_t heap_bytes() const { return kPayload + std::size_t{length_} * SlotBytes(elem_); }

  // A header copy would have no payload behind it.
  Object(const Object&) = delete;
  Object& operator=(const Object&) = delete;

 private:
  friend class Heap;

  Object(Kind kind, TypeKind elem, int struct_id, std::uint32_t length)
      : kind_(kind), elem_(elem), struct_id_(struct_id), length_(length) {
    static_assert(offsetof(Object, kind_) == kKindOffset);
    static_assert(offsetof(Object, elem_) == kElemOffset);
    static_assert(offsetof(Object, length_) == kLengthOffset);
    static_assert(sizeof(Object) == kPayload);
  }

  // Payload bytes per field or element (a struct's fields are Values).
  static std::size_t SlotBytes(TypeKind elem) {
    switch (elem) {
      case TypeKind::kU32: return sizeof(std::uint32_t);
      case TypeKind::kByte:
      case TypeKind::kBool: return 1;
      default: return sizeof(Value);  // kInt elements, struct fields
    }
  }

  template <typename T>
  std::span<T> Payload() {
    return {reinterpret_cast<T*>(reinterpret_cast<char*>(this) + kPayload), length_};
  }

  Kind kind_;
  bool marked_ = false;
  TypeKind elem_;
  int struct_id_;
  std::uint32_t length_;
};

class Heap {
 public:
  // `limit_bytes` bounds total live+garbage heap; exceeding it after a
  // collection traps (the kernel caps extension memory).
  explicit Heap(std::size_t limit_bytes = 64u << 20) : limit_bytes_(limit_bytes) {}

  Object* NewStruct(const StructLayout& layout, int struct_id);
  Object* NewArray(TypeKind elem, std::size_t length);

  // True if `candidate` is a live object pointer (conservative root test).
  bool IsObject(const void* candidate) const {
    return objects_set_.contains(const_cast<void*>(candidate));
  }

  // Mark phase entry points.
  void Mark(Object* object);

  // Collects garbage. Root sets are supplied by the VM.
  struct RootProvider {
    virtual ~RootProvider() = default;
    virtual void EnumerateRoots(Heap& heap) = 0;
  };
  void Collect(RootProvider& roots);

  // Returns true if an allocation of `incoming` bytes should trigger GC.
  bool ShouldCollect(std::size_t incoming) const {
    return allocated_bytes_ + incoming > gc_threshold_;
  }

  std::size_t allocated_bytes() const { return allocated_bytes_; }
  std::size_t num_objects() const { return objects_.size(); }
  std::uint64_t collections() const { return collections_; }

 private:
  // Objects are calloc'd header+payload blocks (trivially destructible).
  struct FreeObject {
    void operator()(Object* object) const { std::free(object); }
  };
  using ObjectPtr = std::unique_ptr<Object, FreeObject>;

  Object* Allocate(Object::Kind kind, TypeKind elem, int struct_id, std::size_t length);

  std::size_t limit_bytes_;
  std::size_t gc_threshold_ = 1u << 20;
  std::size_t allocated_bytes_ = 0;
  std::uint64_t collections_ = 0;
  std::vector<ObjectPtr> objects_;
  std::unordered_set<void*> objects_set_;
  std::vector<Object*> mark_stack_;
};

}  // namespace minnow

#endif  // GRAFTLAB_SRC_MINNOW_HEAP_H_
