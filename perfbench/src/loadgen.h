// Open-loop wire load generator for the served workload.
//
// Requests follow a Poisson schedule drawn from the seed alone and go out
// when due, whatever replies are outstanding. Each connection has its own
// thread that sends on schedule and stamps every response as it arrives
// (the thread sleeps in ppoll until the next send is due or bytes arrive).
// Latency is measured from a request's due time, so a server stall also
// charges the requests that queued behind it, and the generator's own
// lateness is reported beside it as a validity check.
//
// Every response is checked: its id must name a request sent on that
// connection and not yet answered, and its status must be a defined one.

#ifndef PERFBENCH_SRC_LOADGEN_H_
#define PERFBENCH_SRC_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "samples.h"

namespace perfbench {

struct LoadOptions {
  int port = 0;  // on 127.0.0.1
  int connections = 2;
  // Aggregate Poisson arrival rate over all connections.
  double rate_ops_per_sec = 1000.0;
  // Length of the arrival schedule; replies are awaited for up to
  // drain_ms afterwards.
  double seconds = 1.0;
  int drain_ms = 5000;
  uint64_t seed = 1;
  // Operation mix, parallel to the server's operation registry.
  std::vector<double> ratios;
};

struct LoadResult {
  std::string error;  // set when a connection failed outright

  int64_t sent = 0;
  int64_t ok = 0;
  int64_t op_failed = 0;
  int64_t rejected = 0;
  int64_t bad = 0;
  int64_t lost = 0;             // sent, never answered within the drain
  int64_t protocol_errors = 0;  // unknown/duplicate ids, undecodable frames
  // From the schedule's start to the last response.
  double elapsed_seconds = 0.0;

  Samples latency;   // due time -> response arrival; failures over limit
  Samples exec;      // the response's server_nanos (answered requests)
  Samples overhead;  // latency minus server_nanos (answered requests)
  Samples lateness;  // actual send time - due time

  // Committed answers: ok and op_failed both carry a committed result.
  int64_t committed() const { return ok + op_failed; }
  int64_t failures() const { return sent - committed(); }
  bool checks_passed() const { return error.empty() && protocol_errors == 0 && bad == 0; }
};

// Connects, runs the schedule to completion and returns the merged result.
LoadResult RunOpenLoop(const LoadOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LOADGEN_H_
