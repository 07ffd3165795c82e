// Umbrella header for the Leap prefetching core.
//
// The core is substrate-independent: it consumes a stream of per-process
// remote page offsets and emits prefetch candidates. The simulated kernel
// data path (src/paging, src/runtime) and the benchmark harness build on
// top of it; nothing here depends on them. Leap's third component, eager
// cache eviction, is swap-cache bookkeeping and lives in Machine
// (src/runtime/machine.h).
#ifndef LEAP_SRC_CORE_LEAP_H_
#define LEAP_SRC_CORE_LEAP_H_

#include "src/core/access_history.h"
#include "src/core/leap_prefetcher.h"
#include "src/core/majority.h"
#include "src/core/params.h"
#include "src/core/prefetch_window.h"
#include "src/core/process_tracker.h"
#include "src/core/trend_detector.h"

#endif  // LEAP_SRC_CORE_LEAP_H_
