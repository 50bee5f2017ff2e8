// The four benchmark workloads.  Each runs one repetition: build a fresh
// bed (timed as setup), run the timed phases until all the workload's work
// has drained, read the per-layer counters, then verify (untimed).
#pragma once

#include "bed.h"

namespace perfbench {

/// Synchronized checkpoint burst, then restart reads while one disk per
/// RAID-5 group fails and rebuilds.  Payload path; meta idle, tier off.
RepResult RunCheckpointRebuild(const RepOptions& opt, SpanLog& log, int parent);

/// Cold resolves of per-host path slices over 8 metadata shards, creates in
/// per-host output directories, warm re-resolves.  No data bytes.
RepResult RunMetaStorm(const RepOptions& opt, SpanLog& log, int parent);

/// Zipf reads and rewrites over a working set 4x the aggregate DRAM with a
/// flash tier and QoS, then a drain through flash demotion.
RepResult RunTieredMixed(const RepOptions& opt, SpanLog& log, int parent);

/// Three sites: writes at home replicated sync (near) and async (far),
/// far-site WAN readers alongside, then the async queues drain.
RepResult RunGeoReplicate(const RepOptions& opt, SpanLog& log, int parent);

}  // namespace perfbench
