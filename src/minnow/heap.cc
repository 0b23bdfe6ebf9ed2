#include "src/minnow/heap.h"

#include <algorithm>
#include <limits>
#include <new>
#include <string>

namespace minnow {

Object* Heap::NewStruct(const StructLayout& layout, int struct_id) {
  return Allocate(Object::Kind::kStruct, TypeKind::kVoid, struct_id,
                  static_cast<std::size_t>(layout.num_fields));
}

Object* Heap::NewArray(TypeKind elem, std::size_t length) {
  switch (elem) {
    case TypeKind::kInt:
    case TypeKind::kU32:
    case TypeKind::kByte:
    case TypeKind::kBool:
      break;
    default:
      throw Trap("new array of unsupported element type");
  }
  if (length > std::numeric_limits<std::uint32_t>::max()) {
    throw Trap("array length " + std::to_string(length) + " does not fit the object header");
  }
  return Allocate(Object::Kind::kArray, elem, -1, length);
}

Object* Heap::Allocate(Object::Kind kind, TypeKind elem, int struct_id, std::size_t length) {
  const std::size_t bytes = Object::kPayload + length * Object::SlotBytes(elem);
  if (allocated_bytes_ + bytes > limit_bytes_) {
    throw Trap("extension heap limit exceeded");
  }
  void* block = std::calloc(1, bytes);  // zeroes the payload
  if (block == nullptr) {
    throw std::bad_alloc();
  }
  ObjectPtr object(new (block) Object(kind, elem, struct_id, static_cast<std::uint32_t>(length)));
  allocated_bytes_ += bytes;
  objects_set_.insert(object.get());
  objects_.push_back(std::move(object));
  return objects_.back().get();
}

void Heap::Mark(Object* object) {
  if (object == nullptr || object->marked_) {
    return;
  }
  object->marked_ = true;
  mark_stack_.push_back(object);
  while (!mark_stack_.empty()) {
    Object* current = mark_stack_.back();
    mark_stack_.pop_back();
    if (current->kind() == Object::Kind::kStruct) {
      // Struct fields may hold references; the conservative test against the
      // live-object set makes the field map unnecessary during marking (the
      // layout's map is still used for precise global roots).
      for (const Value& field : current->fields()) {
        void* candidate = reinterpret_cast<void*>(field.bits);
        if (candidate != nullptr && IsObject(candidate)) {
          Object* child = static_cast<Object*>(candidate);
          if (!child->marked_) {
            child->marked_ = true;
            mark_stack_.push_back(child);
          }
        }
      }
    }
  }
}

void Heap::Collect(RootProvider& roots) {
  ++collections_;
  for (const auto& object : objects_) {
    object->marked_ = false;
  }
  roots.EnumerateRoots(*this);

  std::size_t surviving = 0;
  std::vector<ObjectPtr> live;
  live.reserve(objects_.size());
  for (auto& object : objects_) {
    if (object->marked_) {
      surviving += object->heap_bytes();
      live.push_back(std::move(object));
    } else {
      objects_set_.erase(object.get());
    }
  }
  objects_ = std::move(live);
  allocated_bytes_ = surviving;
  // Next collection when the heap doubles, with a floor.
  gc_threshold_ = std::max<std::size_t>(surviving * 2, 1u << 20);
}

}  // namespace minnow
