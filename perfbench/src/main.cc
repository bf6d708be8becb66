// sb7-perfbench: the measured processes of the repository benchmark.
//
// run.py starts one process per backend and measurement; each process owns
// exactly one BenchmarkRunner, as the stmbench7 and sb7-serve programs do.
//
//   run    builds the structure and runs the closed-loop mix in-process
//   serve  builds the structure and serves it over loopback TCP
//          (OpServer + IngressQueue + BenchmarkRunner) until a line or EOF
//          arrives on stdin
//   load   drives a serve process with the open-loop wire generator
//
// Every mode prints its measurements as one flat JSON object on the last
// line of stdout. `serve` first prints "READY <port>" once it accepts.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "loadgen.h"
#include "src/check/fingerprint.h"
#include "src/common/text.h"
#include "src/common/timing.h"
#include "src/core/invariants.h"
#include "src/ebr/ebr.h"
#include "src/harness/driver.h"
#include "src/harness/workload.h"
#include "src/mvstm/redo_log.h"
#include "src/net/server.h"

namespace perfbench {
namespace {

using sb7::NowNanos;
namespace net = sb7::net;

// A served run ends when run.py closes it; this deadline only bounds a
// server whose controller vanished.
constexpr double kServeDeadlineSeconds = 170.0;
constexpr size_t kIngressCapacity = 1024;
constexpr int64_t kSamplePeriodNanos = 1'000'000;
// Closed-loop workers and served executor workers.
constexpr int kThreads = 2;
// Generator connections, each with its own thread.
constexpr int kConnections = 2;

struct Args {
  std::string mode;
  std::string backend = "tl2";
  std::string scale = "small";
  double read_fraction = 0.6;
  double seconds = 1.0;
  uint64_t seed = 1;
  bool trace = false;
  // Deliberate damage applied before a correctness check, so the
  // self-tests can show that the check fails: "invariants" removes an
  // index entry, "fingerprint" truncates the redo log before recovery.
  std::string fault;
  // Served mvstm logs here with group durability; empty serves without a
  // log.
  std::string redo_log;
  int port = 0;
  double rate = 1000.0;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  if (argc < 2) {
    *error = "usage: sb7-perfbench run|serve|load [--flag value]...";
    return false;
  }
  args->mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      args->trace = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = flag + " needs a value";
      return false;
    }
    const std::string value = argv[++i];
    int64_t n = 0;
    bool ok = true;
    if (flag == "--backend") {
      args->backend = value;
    } else if (flag == "--scale") {
      args->scale = value;
    } else if (flag == "--read-fraction") {
      ok = sb7::ParseDouble(value, args->read_fraction) && args->read_fraction >= 0 &&
           args->read_fraction <= 1;
    } else if (flag == "--seconds") {
      ok = sb7::ParseDouble(value, args->seconds) && args->seconds > 0;
    } else if (flag == "--seed") {
      ok = sb7::ParseUint64(value, args->seed);
    } else if (flag == "--fault") {
      args->fault = value;
      ok = value == "invariants" || value == "fingerprint";
    } else if (flag == "--redo-log") {
      args->redo_log = value;
    } else if (flag == "--port") {
      ok = sb7::ParseInt64(value, n) && n > 0 && n <= 65535;
      args->port = static_cast<int>(n);
    } else if (flag == "--rate") {
      ok = sb7::ParseDouble(value, args->rate) && args->rate > 0;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (!ok) {
      *error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (args->mode != "run" && args->mode != "serve" && args->mode != "load") {
    *error = "unknown mode " + args->mode;
    return false;
  }
  return true;
}

// One flat JSON object, printed as a single line.
class JsonLine {
 public:
  void Add(const std::string& key, double value) {
    std::ostringstream text;
    text.precision(17);
    text << value;
    Put(key, text.str());
  }
  void Add(const std::string& key, int64_t value) { Put(key, std::to_string(value)); }
  void AddBool(const std::string& key, bool value) { Put(key, value ? "true" : "false"); }
  void Print() const { std::cout << "{" << body_.str() << "}" << std::endl; }

 private:
  void Put(const std::string& key, const std::string& value) {
    body_ << (first_ ? "" : ", ") << '"' << key << "\": " << value;
    first_ = false;
  }
  std::ostringstream body_;
  bool first_ = true;
};

double Seconds(int64_t nanos) { return static_cast<double>(nanos) / 1e9; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Background sampler for the traced run. It reads only the EBR pending
// count and epoch and the ingress queue's size; it never touches a
// transactional field or calls into reclamation, so it never registers with
// EBR and cannot hold the epoch back.
class Sampler {
 public:
  // The epoch advance rate is taken between two instants inside the run,
  // `window_begin` and `window_end` (steady-clock nanos): the workers'
  // start-up before it and the runner's final quiesce after it both move
  // the epoch without saying anything about the steady state.
  Sampler(const net::IngressQueue* queue, int64_t window_begin, int64_t window_end)
      : queue_(queue), window_{window_begin, window_end} {
    thread_ = std::thread([this]() {
      while (!stop_.load(std::memory_order_relaxed)) {
        Sample();
        std::this_thread::sleep_for(std::chrono::nanoseconds(kSamplePeriodNanos));
      }
    });
  }
  ~Sampler() { Stop(); }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) {
      thread_.join();
    }
  }
  // Valid after Stop().
  int64_t pending_peak() const { return pending_peak_; }
  int64_t queue_peak() const { return queue_peak_; }
  // 0 when the run ended before the window closed.
  double EpochAdvancesPerSecond() const {
    if (seen_at_[1] == 0) {
      return 0.0;
    }
    return static_cast<double>(epoch_[1] - epoch_[0]) / Seconds(seen_at_[1] - seen_at_[0]);
  }

 private:
  void Sample() {
    sb7::EbrDomain& ebr = sb7::EbrDomain::Global();
    pending_peak_ = std::max(pending_peak_, ebr.PendingCount());
    if (queue_ != nullptr) {
      queue_peak_ = std::max(queue_peak_, static_cast<int64_t>(queue_->size()));
    }
    const int64_t now = NowNanos();
    for (int i = 0; i < 2; ++i) {
      if (seen_at_[i] == 0 && now >= window_[i]) {
        epoch_[i] = ebr.global_epoch();
        seen_at_[i] = now;
      }
    }
  }

  const net::IngressQueue* const queue_;
  const int64_t window_[2];
  int64_t pending_peak_ = 0;
  int64_t queue_peak_ = 0;
  uint64_t epoch_[2] = {0, 0};
  int64_t seen_at_[2] = {0, 0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

sb7::BenchConfig MakeConfig(const Args& args) {
  sb7::BenchConfig config;
  config.strategy = args.backend;
  config.scale = args.scale;
  config.read_fraction = args.read_fraction;
  config.threads = kThreads;
  config.length_seconds = args.seconds;
  // The paper's short mix: long traversals off, as in Figure 4.
  config.long_traversals = false;
  config.seed = args.seed;
  config.trace = args.trace;
  return config;
}

// Runs the runner once and records the end-to-end counters and, on a
// traced run, the per-layer ledger entries it can see from outside.
void RunAndRecord(sb7::BenchmarkRunner& runner, const net::IngressQueue* queue,
                  const Args& args, JsonLine* out) {
  const bool trace = args.trace;
  sb7::EbrDomain& ebr = sb7::EbrDomain::Global();
  sb7::Stm* stm = runner.strategy().stm();
  const sb7::StmStats::View stm_begin = stm != nullptr ? stm->stats().Snapshot()
                                                        : sb7::StmStats::View{};
  std::unique_ptr<Sampler> sampler;
  if (trace) {
    // The middle half of the measured interval.
    const int64_t now = NowNanos();
    const auto at = [&](double share) {
      return now + static_cast<int64_t>(args.seconds * share * 1e9);
    };
    sampler = std::make_unique<Sampler>(queue, at(0.25), at(0.75));
  }
  const sb7::BenchResult result = runner.Run();
  const int64_t pending_end = ebr.PendingCount();
  if (sampler != nullptr) {
    sampler->Stop();
  }

  // Read before the checks, which build a second world on recovery.
  out->Add("rss_mb", PeakRssMb());
  out->Add("attempted", result.total_started);
  out->Add("elapsed_s", result.elapsed_seconds);
  out->Add("ops_s", Ratio(static_cast<double>(result.total_started), result.elapsed_seconds));
  // Exact mean time of a successful operation, over every operation.
  const auto& ops = runner.registry().all();
  int64_t sum_nanos = 0;
  int64_t count = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    sum_nanos += result.per_op[i].histogram.sum_nanos();
    count += result.per_op[i].histogram.total_count();
  }
  out->Add("lat_mean_us", Ratio(static_cast<double>(sum_nanos) / 1e3, static_cast<double>(count)));
  if (!trace) {
    return;
  }

  // Operation time by category: exact means of the successful runs.
  std::map<sb7::OpCategory, std::pair<int64_t, int64_t>> by_category;  // sum, count
  int64_t op_failed = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const sb7::OpMetrics& m = result.per_op[i];
    auto& slot = by_category[ops[i]->category()];
    slot.first += m.histogram.sum_nanos();
    slot.second += m.histogram.total_count();
    op_failed += m.failed;
  }
  auto mean_us = [](std::pair<int64_t, int64_t> slot) {
    return Ratio(static_cast<double>(slot.first) / 1e3, static_cast<double>(slot.second));
  };
  auto op_mean_us = [&](const std::string& name) {
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i]->name() == name) {
        return mean_us({result.per_op[i].histogram.sum_nanos(),
                        result.per_op[i].histogram.total_count()});
      }
    }
    return 0.0;
  };
  const double started = static_cast<double>(result.total_started);
  out->Add("ops.st_mean_us", mean_us(by_category[sb7::OpCategory::kShortTraversal]));
  out->Add("ops.op_mean_us", mean_us(by_category[sb7::OpCategory::kShortOperation]));
  out->Add("ops.sm_mean_us", mean_us(by_category[sb7::OpCategory::kStructureModification]));
  out->Add("ops.failed_frac", Ratio(static_cast<double>(op_failed), started));
  out->Add("containers.probe_mean_us", op_mean_us("OP1"));
  out->Add("containers.range_mean_us", op_mean_us("OP2"));

  const sb7::StmStats::View s = sb7::StmStats::View::Subtract(
      stm != nullptr ? stm->stats().Snapshot() : sb7::StmStats::View{}, stm_begin);
  // Useful work: committed attempts per attempt (starts count transactions,
  // not their retries).
  out->Add("stm.commit_ratio",
           Ratio(static_cast<double>(s.commits), static_cast<double>(s.commits + s.aborts)));
  out->Add("stm.aborts_kop.read_validation",
           Ratio(1e3 * static_cast<double>(s.aborts_read_validation), started));
  out->Add("stm.aborts_kop.write_lock",
           Ratio(1e3 * static_cast<double>(s.aborts_write_lock), started));
  out->Add("stm.reads_per_op", Ratio(static_cast<double>(s.reads), started));
  out->Add("stm.writes_per_op", Ratio(static_cast<double>(s.writes), started));
  out->Add("stm.validation_steps_per_op", Ratio(static_cast<double>(s.validation_steps), started));
  out->Add("stm.ro_aborts", s.ro_aborts);

  int64_t read = 0, validation = 0, commit = 0, backoff = 0;
  for (const sb7::trace::OpLatencyBreakdown& b : result.latency_by_op) {
    read += b.read_nanos;
    validation += b.validation_nanos;
    commit += b.commit_nanos;
    backoff += b.backoff_nanos;
  }
  const double split = static_cast<double>(read + validation + commit + backoff);
  out->Add("stm.read_share", Ratio(static_cast<double>(read), split));
  out->Add("stm.validation_share", Ratio(static_cast<double>(validation), split));
  out->Add("stm.commit_share", Ratio(static_cast<double>(commit), split));
  out->Add("stm.backoff_share", Ratio(static_cast<double>(backoff), split));

  out->Add("ebr.epoch_advances_per_s", sampler->EpochAdvancesPerSecond());
  out->Add("ebr.pending_peak", std::max(sampler->pending_peak(), pending_end));
  out->Add("ebr.pending_end", pending_end);
  out->Add("net.queue_peak", sampler->queue_peak());
}

// Structural invariants of the live structure after the run.
bool CheckStructure(sb7::BenchmarkRunner& runner, const Args& args) {
  if (args.fault == "invariants") {
    int64_t victim = -1;
    runner.data().atomic_part_id_index().ForEach([&victim](const int64_t& id, sb7::AtomicPart* const&) {
      victim = id;
      return false;
    });
    runner.data().atomic_part_id_index().Remove(victim);
  }
  const sb7::InvariantReport report = sb7::CheckInvariants(runner.data());
  for (const std::string& violation : report.violations) {
    std::cerr << "invariant violated: " << violation << "\n";
  }
  return report.ok();
}

int RunInProcess(const Args& args) {
  const sb7::BenchConfig config = MakeConfig(args);
  const int64_t t0 = NowNanos();
  sb7::BenchmarkRunner runner(config);
  JsonLine out;
  out.Add("build_s", Seconds(NowNanos() - t0));
  RunAndRecord(runner, nullptr, args, &out);
  out.AddBool("correct", CheckStructure(runner, args));
  out.Print();
  return 0;
}

// The live structure must fingerprint like the world rebuilt from the
// run's own redo log.
bool CheckRecovery(sb7::BenchmarkRunner& runner, const Args& args, JsonLine* out) {
  const sb7::redo::WriterStats& stats = runner.redo_writer()->stats();
  out->Add("log.groups", static_cast<int64_t>(stats.groups));
  out->Add("log.members", static_cast<int64_t>(stats.members));
  out->Add("log.bytes", static_cast<int64_t>(stats.bytes));
  out->Add("log.fsyncs", static_cast<int64_t>(stats.fsyncs));
  if (args.fault == "fingerprint") {
    if (truncate(args.redo_log.c_str(), static_cast<off_t>(stats.bytes / 2)) != 0) {
      return false;
    }
  }
  sb7::EbrDomain::Global().Quiesce();
  sb7::EbrDomain::Global().TryReclaim();
  const uint64_t live = sb7::DeepFingerprint(runner.data());
  const sb7::redo::ReplayResult replay = sb7::redo::RecoverFromLog(args.redo_log, "mvstm");
  const bool ok = replay.ok && replay.replayed && replay.summary.clean_close &&
                  replay.fingerprint == live;
  if (!ok) {
    std::cerr << "recovery check failed: " << replay.error << " "
              << replay.summary.detail << " live " << live << " recovered "
              << replay.fingerprint << "\n";
  }
  return ok;
}

int RunServe(const Args& args) {
  net::IngressQueue queue(kIngressCapacity);
  sb7::BenchConfig config = MakeConfig(args);
  config.length_seconds = kServeDeadlineSeconds;
  config.ingress = &queue;
  config.redo_log_path = args.redo_log;
  config.durability = args.redo_log.empty() ? "off" : "group";
  // The hook reads the server through an atomic: it is published after the
  // runner exists, and worker threads call the hook.
  std::atomic<net::OpServer*> server_ptr{nullptr};
  config.on_ingress_complete = [&server_ptr](const net::IngressRequest& request,
                                             net::Status status, int64_t nanos) {
    if (net::OpServer* server = server_ptr.load(std::memory_order_acquire)) {
      server->Complete(request, status, nanos);
    }
  };

  const int64_t t0 = NowNanos();
  sb7::BenchmarkRunner runner(config);
  const double build_s = Seconds(NowNanos() - t0);
  net::OpServer server(net::ServerOptions{}, &queue,
                       static_cast<uint16_t>(runner.registry().all().size()));
  server_ptr.store(&server, std::memory_order_release);
  std::string error;
  if (!server.Start(&error)) {
    std::cerr << "cannot listen: " << error << "\n";
    return 1;
  }
  JsonLine out;
  out.Add("build_s", build_s);
  out.Add("setup_s", Seconds(NowNanos() - t0));
  std::cout << "READY " << server.port() << std::endl;

  // Closing the queue ends the run once it drains.
  std::thread stopper([&queue]() {
    std::string line;
    std::getline(std::cin, line);
    queue.Close();
  });
  RunAndRecord(runner, &queue, args, &out);
  server.Stop();
  stopper.join();

  bool correct = CheckStructure(runner, args);
  if (runner.redo_writer() != nullptr) {
    correct = CheckRecovery(runner, args, &out) && correct;
  }
  out.AddBool("correct", correct);
  out.Print();
  return 0;
}

int RunLoad(const Args& args) {
  LoadOptions options;
  options.port = args.port;
  options.connections = kConnections;
  options.rate_ops_per_sec = args.rate;
  options.seconds = args.seconds;
  options.seed = args.seed;
  sb7::OperationRegistry registry;
  options.ratios = sb7::ComputeOperationRatios(registry, args.read_fraction,
                                               /*long_traversals_enabled=*/false,
                                               /*structure_mods_enabled=*/true, {});
  LoadResult r = RunOpenLoop(options);
  if (!r.error.empty()) {
    std::cerr << "load generator: " << r.error << "\n";
  }
  JsonLine out;
  out.AddBool("correct", r.checks_passed());
  out.Add("sent", r.sent);
  out.Add("committed", r.committed());
  out.Add("failures", r.failures());
  out.Add("rejected", r.rejected);
  out.Add("bad", r.bad);
  out.Add("lost", r.lost);
  out.Add("protocol_errors", r.protocol_errors);
  out.Add("elapsed_s", r.elapsed_seconds);
  out.Add("ops_s", Ratio(static_cast<double>(r.committed()), r.elapsed_seconds));
  out.Add("lat_samples", r.latency.count());
  // The slowest 10 % is left to lat_p99_us: stalls of the machine, seen in
  // the generator's own lateness, swing the plain mean by a quarter from
  // process to process.
  out.Add("lat_mean_us", r.latency.TrimmedMeanMicros(0.90));
  out.Add("lat_p50_us", r.latency.QuantileMicros(0.50));
  out.Add("lat_p99_us", r.latency.QuantileMicros(0.99));
  out.Add("exec_p50_us", r.exec.QuantileMicros(0.50));
  out.Add("exec_p99_us", r.exec.QuantileMicros(0.99));
  out.Add("overhead_p50_us", r.overhead.QuantileMicros(0.50));
  out.Add("overhead_p99_us", r.overhead.QuantileMicros(0.99));
  out.Add("gen_late_p99_us", r.lateness.QuantileMicros(0.99));
  out.Print();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string error;
  if (!perfbench::ParseArgs(argc, argv, &args, &error)) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }
  if (args.mode == "run") {
    return perfbench::RunInProcess(args);
  }
  if (args.mode == "serve") {
    return perfbench::RunServe(args);
  }
  return perfbench::RunLoad(args);
}
