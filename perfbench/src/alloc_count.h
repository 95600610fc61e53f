// Process-wide heap allocation counter. The benchmark replaces the global
// operator new (alloc_count.cpp); it counts only while enabled, so the
// untimed and untraced paths pay one relaxed load per allocation.
#pragma once

#include <cstdint>

namespace perfbench {

void set_alloc_counting(bool on);
/// Allocations counted so far, over every thread of the process.
std::uint64_t allocations();

}  // namespace perfbench
