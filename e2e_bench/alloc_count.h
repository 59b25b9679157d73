// Heap-allocation counting for the traced run.
//
// The traced binary links alloc_count.cc, which replaces the global
// operator new with a counting one; the end-to-end binary links
// alloc_off.cc instead, so its runs never pay for the counter.
#ifndef DAR_E2E_BENCH_ALLOC_COUNT_H_
#define DAR_E2E_BENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace dar {
namespace e2e {

/// True in the binary whose operator new counts.
bool AllocationCountingAvailable();

/// Starts or stops counting (off at process start).
void SetAllocationCounting(bool on);

/// operator new calls counted so far, over every thread.
int64_t AllocationCount();

}  // namespace e2e
}  // namespace dar

#endif  // DAR_E2E_BENCH_ALLOC_COUNT_H_
