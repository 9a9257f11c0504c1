#include "storm/batch_scheduler.hpp"

#include <gtest/gtest.h>

namespace storm::core {
namespace {

using sim::SimTime;
using namespace storm::sim::time_literals;

TEST(BatchPick, FcfsStartsInOrderWhileFitting) {
  const std::vector<QueuedJobInfo> q = {
      {1, 4, 100_sec}, {2, 4, 100_sec}, {3, 4, 100_sec}};
  auto r = batch_pick(q, {}, /*free=*/8, /*total=*/8, SimTime::zero(),
                      BatchPolicy::Fcfs);
  EXPECT_EQ(r, (std::vector<JobId>{1, 2}));
}

TEST(BatchPick, FcfsHeadOfLineBlocking) {
  // Head needs 8, only 4 free: FCFS starts nothing, even though job 2
  // would fit.
  const std::vector<QueuedJobInfo> q = {{1, 8, 100_sec}, {2, 2, 10_sec}};
  const std::vector<RunningJobInfo> running = {{4, 50_sec}};
  auto r = batch_pick(q, running, 4, 8, SimTime::zero(), BatchPolicy::Fcfs);
  EXPECT_TRUE(r.empty());
}

TEST(BatchPick, EasyBackfillsShortJob) {
  // Head (8 nodes) blocked until the running job ends at t=50. Job 2
  // (2 nodes, 10 s) finishes before the reservation: backfill it.
  const std::vector<QueuedJobInfo> q = {{1, 8, 100_sec}, {2, 2, 10_sec}};
  const std::vector<RunningJobInfo> running = {{4, 50_sec}};
  auto r = batch_pick(q, running, 4, 8, SimTime::zero(), BatchPolicy::Easy);
  EXPECT_EQ(r, (std::vector<JobId>{2}));
}

TEST(BatchPick, EasyRefusesBackfillThatDelaysReservation) {
  // Job 2 would run 100 s, past the t=50 reservation, and at the
  // shadow time the head needs every node: refuse.
  const std::vector<QueuedJobInfo> q = {{1, 8, 100_sec}, {2, 2, 100_sec}};
  const std::vector<RunningJobInfo> running = {{4, 50_sec}};
  auto r = batch_pick(q, running, 4, 8, SimTime::zero(), BatchPolicy::Easy);
  EXPECT_TRUE(r.empty());
}

TEST(BatchPick, EasyAllowsLongBackfillInSpareNodes) {
  // Head needs 4 at the shadow time, when 4+2=6 will be free: 2 spare.
  // Job 2 (2 nodes) fits in the spare set, so even a long job may
  // backfill.
  const std::vector<QueuedJobInfo> q = {{1, 4, 100_sec}, {2, 2, 1000_sec}};
  const std::vector<RunningJobInfo> running = {{4, 50_sec}, {2, 80_sec}};
  auto r = batch_pick(q, running, 2, 8, SimTime::zero(), BatchPolicy::Easy);
  EXPECT_EQ(r, (std::vector<JobId>{2}));
}

TEST(BatchPick, EasyBackfillUpdatesStateBetweenCandidates) {
  // Two backfill candidates of 2 nodes each, but only 2 free after the
  // head reservation logic: the second must be refused.
  const std::vector<QueuedJobInfo> q = {
      {1, 8, 100_sec}, {2, 2, 10_sec}, {3, 2, 10_sec}};
  const std::vector<RunningJobInfo> running = {{6, 50_sec}};
  auto r = batch_pick(q, running, 2, 8, SimTime::zero(), BatchPolicy::Easy);
  EXPECT_EQ(r, (std::vector<JobId>{2}));
}

TEST(BatchPick, EmptyQueue) {
  auto r = batch_pick({}, {}, 8, 8, SimTime::zero(), BatchPolicy::Easy);
  EXPECT_TRUE(r.empty());
}

TEST(BatchPick, EverythingFitsWithBackfillToo) {
  const std::vector<QueuedJobInfo> q = {{1, 2, 10_sec}, {2, 2, 10_sec}};
  auto r = batch_pick(q, {}, 8, 8, SimTime::zero(), BatchPolicy::Easy);
  EXPECT_EQ(r, (std::vector<JobId>{1, 2}));
}

TEST(BatchPick, ReservationAgainstMultipleRunningJobs) {
  // Head needs 6: free rises to 2+2=4 at t=30, 4+4=8 at t=60 -> shadow
  // t=60. A 25 s backfill candidate (2 nodes) finishes before that.
  const std::vector<QueuedJobInfo> q = {{1, 6, 100_sec}, {2, 2, 25_sec}};
  const std::vector<RunningJobInfo> running = {{2, 30_sec}, {4, 60_sec}};
  auto r = batch_pick(q, running, 2, 8, SimTime::zero(), BatchPolicy::Easy);
  EXPECT_EQ(r, (std::vector<JobId>{2}));
}

}  // namespace
}  // namespace storm::core
