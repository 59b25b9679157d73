#include "alloc_count.h"

namespace dar {
namespace e2e {

bool AllocationCountingAvailable() { return false; }
void SetAllocationCounting(bool) {}
int64_t AllocationCount() { return 0; }

}  // namespace e2e
}  // namespace dar
