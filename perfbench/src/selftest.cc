// Self-tests of the benchmark's measurement code: exact quantiles, and the
// load generator against a fake server that stalls, refuses or answers
// twice. Exits non-zero when a check fails.

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.h"
#include "src/net/net.h"
#include "src/net/wire.h"

namespace perfbench {
namespace {

namespace net = sb7::net;

int failures = 0;

void Expect(bool condition, const std::string& what) {
  std::printf("%s %s\n", condition ? "ok  " : "FAIL", what.c_str());
  if (!condition) {
    ++failures;
  }
}

void TestQuantilesMatchSortedSamples() {
  Samples samples;
  std::vector<int64_t> raw;
  std::mt19937_64 gen(7);
  for (int i = 0; i < 10007; ++i) {
    const int64_t nanos = static_cast<int64_t>(gen() % 5'000'000);
    raw.push_back(nanos);
    samples.Add(nanos);
  }
  std::sort(raw.begin(), raw.end());
  bool all_match = true;
  for (double q : {0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    // Nearest rank: the ceil(q * n)-th smallest sample.
    size_t rank = static_cast<size_t>(q * static_cast<double>(raw.size()));
    if (static_cast<double>(rank) < q * static_cast<double>(raw.size())) {
      ++rank;
    }
    all_match = all_match && samples.QuantileMicros(q) == static_cast<double>(raw[rank - 1]) / 1e3;
  }
  Expect(all_match, "quantiles equal the nearest-rank values of the sorted raw samples");

  Samples small;
  for (int64_t us = 100; us >= 1; --us) {
    small.Add(us * 1000);
  }
  Expect(small.QuantileMicros(0.5) == 50.0 && small.QuantileMicros(0.99) == 99.0,
         "p50 and p99 of 1..100 us are 50 and 99 us, at microsecond resolution");
  Expect(small.TrimmedMeanMicros(1.0) == 50.5 && small.TrimmedMeanMicros(0.99) == 50.0,
         "the mean of 1..100 us is 50.5 us, and 50 us without the slowest 1 %");
}

void TestOverLimitSamplesMissEveryLimit() {
  Samples samples;
  for (int i = 0; i < 98; ++i) {
    samples.Add(10'000);
  }
  samples.AddOverLimit();
  samples.AddOverLimit();
  Expect(samples.count() == 100 && samples.QuantileMicros(0.5) == 10.0 &&
             samples.QuantileMicros(0.99) == kOverLimitMicros,
         "two failures in 100 requests put p99 over the limit");
  Expect(samples.TrimmedMeanMicros(0.99) == 10.0 && samples.TrimmedMeanMicros(1.0) == 10.0,
         "the mean leaves the failures out");
}

// A one-connection fake sb7-serve: handshakes, then answers each request
// after the behaviour chosen by the test.
struct FakeBehaviour {
  uint64_t stall_at = UINT64_MAX;  // request id before which it stalls
  int stall_ms = 0;
  uint64_t reject_every = 0;     // every Nth id is refused (0 = never)
  uint64_t duplicate_id = UINT64_MAX;  // answered twice
};

class FakeServer {
 public:
  explicit FakeServer(FakeBehaviour behaviour) : behaviour_(behaviour) {
    net::ListenResult listening = net::ListenTcp(0);
    port_ = listening.port;
    listen_fd_ = std::move(listening.fd);
    thread_ = std::thread([this]() { Serve(); });
  }
  ~FakeServer() { thread_.join(); }
  FakeServer(const FakeServer&) = delete;
  FakeServer& operator=(const FakeServer&) = delete;
  int port() const { return port_; }

 private:
  void Serve() {
    pollfd pfd{listen_fd_.get(), POLLIN, 0};
    if (net::PollRetry(&pfd, 1, 5000) <= 0) {
      return;
    }
    net::UniqueFd client(net::AcceptRetry(listen_fd_.get()));
    if (!client.valid()) {
      return;
    }
    std::string inbuf;
    std::string payload;
    char buffer[4096];
    for (;;) {
      const ssize_t n = net::ReadSome(client.get(), buffer, sizeof(buffer));
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        pollfd wait{client.get(), POLLIN, 0};
        net::PollRetry(&wait, 1, 100);
        continue;
      }
      if (n <= 0) {
        return;
      }
      inbuf.append(buffer, static_cast<size_t>(n));
      while (net::TryExtractFrame(&inbuf, &payload) == net::FrameStatus::kFrame) {
        std::string out;
        net::Hello hello;
        net::OpRequest request;
        if (net::DecodeHello(payload, &hello)) {
          net::HelloAck ack;
          ack.op_count = 45;
          net::AppendFrame(&out, net::EncodeHelloAck(ack));
        } else if (net::DecodeRequest(payload, &request)) {
          if (request.request_id == behaviour_.stall_at) {
            std::this_thread::sleep_for(std::chrono::milliseconds(behaviour_.stall_ms));
          }
          net::OpResponse response;
          response.request_id = request.request_id;
          response.server_nanos = 1000;
          if (behaviour_.reject_every != 0 && request.request_id % behaviour_.reject_every == 0) {
            response.status = net::Status::kRejected;
            response.server_nanos = 0;
          }
          net::AppendFrame(&out, net::EncodeResponse(response));
          if (request.request_id == behaviour_.duplicate_id) {
            net::AppendFrame(&out, net::EncodeResponse(response));
          }
        }
        if (!net::WriteAll(client.get(), out, 5000)) {
          return;
        }
      }
    }
  }

  const FakeBehaviour behaviour_;
  net::UniqueFd listen_fd_;
  int port_ = -1;
  std::thread thread_;
};

LoadResult DriveFake(FakeBehaviour behaviour, double rate, double seconds) {
  FakeServer server(behaviour);
  LoadOptions options;
  options.port = server.port();
  options.connections = 1;
  options.rate_ops_per_sec = rate;
  options.seconds = seconds;
  options.drain_ms = 2000;
  options.seed = 11;
  options.ratios.assign(45, 1.0 / 45);
  return RunOpenLoop(options);
}

void TestStallShowsInDueTimeLatency() {
  LoadResult healthy = DriveFake({}, 2000, 1.0);
  FakeBehaviour stalled;
  stalled.stall_at = 600;
  stalled.stall_ms = 300;
  LoadResult stall = DriveFake(stalled, 2000, 1.0);
  const double healthy_p99 = healthy.latency.QuantileMicros(0.99);
  const double stall_p99 = stall.latency.QuantileMicros(0.99);
  const double stall_late = stall.lateness.QuantileMicros(0.99);
  const double healthy_mean = healthy.latency.TrimmedMeanMicros(0.90);
  const double stall_mean = stall.latency.TrimmedMeanMicros(0.90);
  std::printf("     healthy p99 %.0f us, stalled p99 %.0f us, generator late p99 %.0f us\n",
              healthy_p99, stall_p99, stall_late);
  std::printf("     healthy mean of the fastest 90%% %.0f us, stalled %.0f us\n", healthy_mean,
              stall_mean);
  Expect(healthy.checks_passed() && stall.checks_passed() && stall.failures() == 0,
         "fake server runs answer every request exactly once");
  // Requests due during the 300 ms stall wait up to 300 ms; a send-time
  // clock would hide them because the generator kept sending on schedule.
  Expect(stall_p99 > 150'000 && healthy_p99 < 50'000,
         "a 300 ms server stall raises due-time p99 above 150 ms");
  Expect(stall_late < 50'000, "the generator kept its schedule through the stall");
  // About 600 of 2000 requests wait up to 300 ms; without the slowest
  // 200 the rest still average about 20 ms.
  Expect(stall_mean > 10'000 && healthy_mean < 3'000,
         "a 300 ms server stall raises the mean of the fastest 90 % above 10 ms");
}

void TestRefusalsCountOverTheLimit() {
  FakeBehaviour refusing;
  refusing.reject_every = 10;
  LoadResult r = DriveFake(refusing, 2000, 0.5);
  const int64_t expected = (r.sent + 9) / 10;
  Expect(r.rejected == expected && r.failures() == expected,
         "every refused request counts as a failure");
  Expect(r.latency.count() == r.sent && r.latency.QuantileMicros(0.99) == kOverLimitMicros,
         "10% refusals put the due-time p99 over the limit");
}

void TestDuplicateResponseFailsTheCheck() {
  FakeBehaviour duplicating;
  duplicating.duplicate_id = 5;
  const LoadResult r = DriveFake(duplicating, 1000, 0.2);
  Expect(r.protocol_errors == 1 && !r.checks_passed(),
         "a response answering an id twice fails the response check");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestQuantilesMatchSortedSamples();
  perfbench::TestOverLimitSamplesMissEveryLimit();
  perfbench::TestStallShowsInDueTimeLatency();
  perfbench::TestRefusalsCountOverTheLimit();
  perfbench::TestDuplicateResponseFailsTheCheck();
  std::printf("%s\n", perfbench::failures == 0 ? "all self-tests passed" : "self-tests FAILED");
  return perfbench::failures == 0 ? 0 : 1;
}
