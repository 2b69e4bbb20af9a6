#ifndef UPSKILL_EXEC_BACKEND_REGISTRY_H_
#define UPSKILL_EXEC_BACKEND_REGISTRY_H_

// Forwards to exec/backend.h, which declares exec::CreateBackend. Kept
// only because bench/e2e/bench_e2e.cc includes this header; delete it
// once that file includes exec/backend.h.
#include "exec/backend.h"

#endif  // UPSKILL_EXEC_BACKEND_REGISTRY_H_
