#ifndef FEDAQP_CORE_FEDAQP_H_
#define FEDAQP_CORE_FEDAQP_H_

/// Umbrella header: everything an application needs to embed the private
/// federated AQP engine.

#include "attack/attack_runner.h"          // IWYU pragma: export
#include "baseline/local_sampling.h"       // IWYU pragma: export
#include "baseline/row_sampling.h"         // IWYU pragma: export
#include "common/math.h"                   // IWYU pragma: export
#include "core/federation.h"               // IWYU pragma: export
#include "dp/accountant.h"                 // IWYU pragma: export
#include "dp/budget.h"                     // IWYU pragma: export
#include "dp/composition.h"                // IWYU pragma: export
#include "exec/endpoint.h"                 // IWYU pragma: export
#include "exec/federation_client.h"        // IWYU pragma: export
#include "exec/in_process_endpoint.h"      // IWYU pragma: export
#include "exec/thread_pool.h"              // IWYU pragma: export
#include "storage/range_query.h"           // IWYU pragma: export
#include "storage/table.h"                 // IWYU pragma: export
#include "workload/datagen.h"              // IWYU pragma: export
#include "workload/query_gen.h"            // IWYU pragma: export
#include "workload/workload.h"             // IWYU pragma: export

#endif  // FEDAQP_CORE_FEDAQP_H_
