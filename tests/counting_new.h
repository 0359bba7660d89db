// A counting global allocator for tests: linking counting_new.cc into a test
// binary replaces every form of operator new and delete, so a test can
// assert that a steady-state path allocates nothing.
#ifndef URSA_TESTS_COUNTING_NEW_H_
#define URSA_TESTS_COUNTING_NEW_H_

#include <cstdint>

namespace ursa::test {

// Heap cells handed out by operator new (any form) in this process so far.
uint64_t HeapAllocations();

}  // namespace ursa::test

#endif  // URSA_TESTS_COUNTING_NEW_H_
