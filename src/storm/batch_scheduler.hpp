// Batch scheduling policies: strict FCFS and EASY backfilling.
//
// STORM "currently supports batch scheduling with and without
// backfilling" (Section 4). The policy is a pure function from queue
// state to the set of jobs to start this timeslice, which keeps it
// unit-testable independently of the dæmons.
#pragma once

#include <vector>

#include "storm/job.hpp"

namespace storm::core {

struct QueuedJobInfo {
  JobId id;
  int nodes;  // buddy-rounded node count
  sim::SimTime est_runtime;
};

struct RunningJobInfo {
  int nodes;
  sim::SimTime est_end;
};

enum class BatchPolicy {
  Fcfs,          // strict order; head-of-line blocking
  Easy,          // one reservation (for the blocked head), aggressive
                 // backfilling behind it
  Conservative,  // profile-based: every queued job gets a reservation;
                 // backfills may never delay any earlier job
};

/// Decide which queued jobs to start now.
///
/// FCFS: start jobs strictly in order while they fit; the first job
/// that does not fit blocks everything behind it.
///
/// EASY: the head job that does not fit gets a reservation at the
/// earliest time enough running jobs will have released nodes (using
/// user estimates); later jobs may start now iff they fit in the
/// currently free nodes AND either (a) they are estimated to finish
/// before the reservation, or (b) they use only nodes that will still
/// be spare once the head job starts.
///
/// Conservative: a reservation profile is built in queue order; a job
/// starts now iff its earliest reservation begins now, so no backfill
/// can ever push an earlier arrival later than its estimate implies.
std::vector<JobId> batch_pick(const std::vector<QueuedJobInfo>& queue,
                              std::vector<RunningJobInfo> running,
                              int free_nodes, int total_nodes,
                              sim::SimTime now, BatchPolicy policy);

}  // namespace storm::core
