#include "loadgen.h"

#include <poll.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <ctime>
#include <memory>
#include <thread>

#include "src/common/rng.h"
#include "src/common/timing.h"
#include "src/harness/workload.h"
#include "src/net/net.h"
#include "src/net/wire.h"

namespace perfbench {
namespace {

using sb7::NowNanos;
namespace net = sb7::net;

constexpr int kHandshakeTimeoutMs = 5000;

bool ReadFrameBlocking(int fd, std::string* payload) {
  unsigned char header[4];
  if (!net::ReadFull(fd, header, sizeof(header), kHandshakeTimeoutMs)) {
    return false;
  }
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(header[i]) << (8 * i);
  }
  if (length > net::kMaxFrameBytes) {
    return false;
  }
  payload->resize(length);
  return length == 0 || net::ReadFull(fd, payload->data(), length, kHandshakeTimeoutMs);
}

// Connects and completes the Hello handshake; the server must advertise
// exactly the operation count the mix was computed for.
net::UniqueFd Connect(const LoadOptions& options, std::string* error) {
  net::ConnectResult connected = net::ConnectTcp("127.0.0.1", options.port);
  if (!connected.ok()) {
    *error = "connect: " + connected.error;
    return {};
  }
  std::string frame;
  net::AppendFrame(&frame, net::EncodeHello(net::Hello{}));
  std::string payload;
  net::HelloAck ack;
  if (!net::WriteAll(connected.fd.get(), frame, kHandshakeTimeoutMs) ||
      !ReadFrameBlocking(connected.fd.get(), &payload) ||
      !net::DecodeHelloAck(payload, &ack)) {
    *error = "handshake failed";
    return {};
  }
  if (ack.op_count != options.ratios.size()) {
    *error = "server registry size differs from the mix";
    return {};
  }
  if (!net::SetNonBlocking(connected.fd.get())) {
    *error = "cannot make the socket non-blocking";
    return {};
  }
  return std::move(connected.fd);
}

class Connection {
 public:
  Connection(const LoadOptions& options, int fd, uint64_t seed)
      : options_(options),
        fd_(fd),
        rng_(seed),
        rate_(options.rate_ops_per_sec / options.connections) {}

  // Runs the schedule [start, start + seconds) and waits for the replies.
  void Run(int64_t start) {
    // The default 50 us timer slack would add to every send's lateness.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const int64_t end = start + static_cast<int64_t>(options_.seconds * 1e9);
    const int64_t drain_deadline = end + static_cast<int64_t>(options_.drain_ms) * 1'000'000;
    int64_t next_due = start + Gap();
    int64_t last_arrival = start;
    while (result_.error.empty()) {
      int64_t now = NowNanos();
      while (next_due < end && next_due <= now) {
        Send(next_due);
        next_due += Gap();
        now = NowNanos();
      }
      if (next_due >= end && outstanding_ == 0) {
        break;
      }
      if (now >= drain_deadline) {
        break;
      }
      const int64_t wake = next_due < end ? next_due : drain_deadline;
      const int64_t wait = wake > now ? wake - now : 0;
      timespec timeout{static_cast<time_t>(wait / 1'000'000'000),
                       static_cast<long>(wait % 1'000'000'000)};
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ppoll(&pfd, 1, &timeout, nullptr);
      if (ready < 0 && errno != EINTR) {
        result_.error = "ppoll failed";
      } else if (ready > 0) {
        if (Receive()) {
          last_arrival = NowNanos();
        }
      }
    }
    for (int64_t i = 0; i < outstanding_; ++i) {
      result_.latency.AddOverLimit();
    }
    result_.lost = outstanding_;
    result_.elapsed_seconds = static_cast<double>(last_arrival - start) / 1e9;
  }

  const LoadResult& result() const { return result_; }

 private:
  int64_t Gap() {
    return static_cast<int64_t>(-std::log1p(-rng_.NextDouble()) * 1e9 / rate_);
  }

  void Send(int64_t due) {
    net::OpRequest request;
    request.request_id = due_.size();
    request.op_index = static_cast<uint16_t>(sb7::SampleOperation(options_.ratios, rng_));
    std::string frame;
    net::AppendFrame(&frame, net::EncodeRequest(request));
    if (!net::WriteAll(fd_, frame, kHandshakeTimeoutMs)) {
      result_.error = "send failed";
      return;
    }
    result_.lateness.Add(NowNanos() - due);
    due_.push_back(due);
    answered_.push_back(false);
    ++outstanding_;
    ++result_.sent;
  }

  // Drains the socket; returns true when at least one byte arrived.
  bool Receive() {
    bool got = false;
    char buffer[16384];
    for (;;) {
      const ssize_t n = net::ReadSome(fd_, buffer, sizeof(buffer));
      if (n > 0) {
        // Stamped per read: the frames in this chunk arrived by now.
        const int64_t arrival = NowNanos();
        got = true;
        inbuf_.append(buffer, static_cast<size_t>(n));
        ConsumeFrames(arrival);
        continue;
      }
      if (n == 0) {
        result_.error = "server closed the connection";
      } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
        result_.error = "recv failed";
      }
      return got;
    }
  }

  void ConsumeFrames(int64_t arrival) {
    std::string payload;
    for (;;) {
      const net::FrameStatus status = net::TryExtractFrame(&inbuf_, &payload);
      if (status == net::FrameStatus::kNeedMore) {
        return;
      }
      net::OpResponse response;
      if (status == net::FrameStatus::kTooLarge || !net::DecodeResponse(payload, &response)) {
        ++result_.protocol_errors;
        if (status == net::FrameStatus::kTooLarge) {
          result_.error = "oversize frame";
          return;
        }
        continue;
      }
      Account(response, arrival);
    }
  }

  void Account(const net::OpResponse& response, int64_t arrival) {
    const uint64_t id = response.request_id;
    if (id >= due_.size() || answered_[id]) {
      ++result_.protocol_errors;
      return;
    }
    answered_[id] = true;
    --outstanding_;
    const int64_t latency = arrival - due_[id];
    switch (response.status) {
      case net::Status::kOk:
      case net::Status::kOpFailed:
        ++(response.status == net::Status::kOk ? result_.ok : result_.op_failed);
        result_.latency.Add(latency);
        result_.exec.Add(response.server_nanos);
        result_.overhead.Add(latency - static_cast<int64_t>(response.server_nanos));
        return;
      case net::Status::kRejected:
        ++result_.rejected;
        break;
      case net::Status::kBadRequest:
        ++result_.bad;
        break;
      default:
        ++result_.protocol_errors;
        break;
    }
    result_.latency.AddOverLimit();
  }

  const LoadOptions& options_;
  const int fd_;
  sb7::Rng rng_;
  const double rate_;
  LoadResult result_;
  std::string inbuf_;
  std::vector<int64_t> due_;  // indexed by request id
  std::vector<bool> answered_;
  int64_t outstanding_ = 0;
};

}  // namespace

LoadResult RunOpenLoop(const LoadOptions& options) {
  LoadResult merged;
  std::vector<net::UniqueFd> fds;
  for (int c = 0; c < options.connections; ++c) {
    fds.push_back(Connect(options, &merged.error));
    if (!merged.error.empty()) {
      return merged;
    }
  }
  std::vector<std::unique_ptr<Connection>> connections;
  sb7::Rng seeder(options.seed);
  for (const net::UniqueFd& fd : fds) {
    connections.push_back(std::make_unique<Connection>(options, fd.get(), seeder.Next()));
  }
  // One shared origin keeps the merged arrival process Poisson at the
  // aggregate rate.
  const int64_t start = NowNanos() + 1'000'000;
  std::vector<std::thread> threads;
  for (auto& connection : connections) {
    threads.emplace_back([&connection, start]() { connection->Run(start); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (const auto& connection : connections) {
    const LoadResult& r = connection->result();
    if (merged.error.empty()) {
      merged.error = r.error;
    }
    merged.sent += r.sent;
    merged.ok += r.ok;
    merged.op_failed += r.op_failed;
    merged.rejected += r.rejected;
    merged.bad += r.bad;
    merged.lost += r.lost;
    merged.protocol_errors += r.protocol_errors;
    merged.elapsed_seconds = std::max(merged.elapsed_seconds, r.elapsed_seconds);
    merged.latency.Merge(r.latency);
    merged.exec.Merge(r.exec);
    merged.overhead.Merge(r.overhead);
    merged.lateness.Merge(r.lateness);
  }
  return merged;
}

}  // namespace perfbench
