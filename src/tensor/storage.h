// Storage for tensor data: a std::vector<float> whose allocator gives every
// large buffer its own anonymous page mapping and keeps freed mappings,
// pages still resident, in a per-thread cache.
//
// A training step allocates and frees the same few dozen large buffers
// every step. Left to malloc, those buffers go back to the kernel between
// steps (glibc trims its heap) and every page faults in again on the next
// step. Here a buffer of at least kMappedMinBytes is one mmap; freeing it
// hands the mapping to the freeing thread's cache, and the next allocation
// on that thread takes the smallest cached mapping that fits within the
// slack (kFitSlackNum / kFitSlackDen). Failing that it resizes one with
// mremap, so resident pages move without a copy or a fault: it grows the
// largest smaller mapping (only the growth faults), or, when every cached
// mapping is larger, shrinks the smallest (nothing faults). Either way it
// looks in the thread's own cache before other threads', and it maps
// fresh only when every cache is empty.
//
// The bound: mapped live + cached bytes never exceed the process's
// high-water mark of live mapped bytes. A release moves bytes from live to
// cached and leaves the sum alone; an allocation that would raise the sum
// past the mark (a fresh mapping or a growth) first unmaps cached
// mappings, the allocating thread's own before other threads'. Each
// mapping holds one buffer, so unmapping returns its pages at once, and
// the mapped buffers never hold more memory than the live ones alone once
// did.
//
// Under AddressSanitizer and off Linux the allocator is plain operator new,
// so the sanitizer still sees every use-after-free. DESIGN.md §15 records
// how the two constants were set.
//
// The allocator's construct() default-initializes: resize() and the sized
// constructor leave floats unwritten, and each Tensor factory fills what
// it promises (Tensor::Scratch fills only in poison mode).
#ifndef DAR_TENSOR_STORAGE_H_
#define DAR_TENSOR_STORAGE_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <vector>

namespace dar {
namespace storage {

/// Buffers of at least this many bytes are page mappings; smaller ones come
/// from operator new. At train_dar's shapes about 51 buffers a step reach
/// it, so the mapping count stays small.
inline constexpr size_t kMappedMinBytes = 64 * 1024;

/// A cached mapping serves a request when it holds at most
/// kFitSlackNum / kFitSlackDen times the mapping the request needs.
inline constexpr size_t kFitSlackNum = 5;
inline constexpr size_t kFitSlackDen = 4;

/// False under AddressSanitizer and off Linux, where every buffer comes
/// from operator new.
bool MappedStorageEnabled();

/// Allocates `bytes` bytes (a mapping from kMappedMinBytes on). Throws
/// std::bad_alloc when the kernel refuses, as operator new does.
void* Allocate(size_t bytes);

/// Frees what Allocate(`bytes`) returned; `bytes` must be the same value.
void Deallocate(void* p, size_t bytes) noexcept;

/// The allocator's accounting, read under its lock (one consistent
/// snapshot). Byte counts are mapping sizes, page-rounded.
struct Stats {
  int64_t live_bytes = 0;        // mappings held by live buffers
  int64_t cached_bytes = 0;      // mappings held by every thread's cache
  int64_t high_water_bytes = 0;  // the most live_bytes has ever been
  /// The calling thread's share of cached_bytes.
  int64_t thread_cached_bytes = 0;
  /// Mapped buffers by where they came from, since process start: a cached
  /// mapping as is, a cached mapping resized by mremap, a fresh mmap.
  int64_t from_cache = 0;
  int64_t resized = 0;
  int64_t mapped = 0;
};
Stats GetStats();

}  // namespace storage

/// The allocator of every tensor buffer. Stateless: any two compare equal,
/// so moving a buffer between tensors never copies.
template <class T>
class TensorAllocator {
 public:
  using value_type = T;
  using is_always_equal = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;

  TensorAllocator() noexcept = default;
  template <class U>
  TensorAllocator(const TensorAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    return static_cast<T*>(storage::Allocate(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) noexcept {
    storage::Deallocate(p, n * sizeof(T));
  }

  /// Default-initializes: no fill for a float. Construction from values
  /// falls back to std::allocator_traits' placement new.
  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }

  friend bool operator==(const TensorAllocator&, const TensorAllocator&) {
    return true;
  }
};

/// A tensor's elements.
using TensorData = std::vector<float, TensorAllocator<float>>;

}  // namespace dar

#endif  // DAR_TENSOR_STORAGE_H_
