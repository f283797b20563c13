// Serving workload: a loopback net::Server feeding a MultiStreamService with
// two topic streams, driven open loop by one blocking client per stream.
// Each tweet is due at a fixed point of the schedule (input order at the
// offered rate); its latency runs from that due time to the return of the
// execution cycle that processed it, so a stall also charges the tweets
// queued behind it.

#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "net/client.h"
#include "net/server.h"
#include "stream/multi_stream.h"
#include "util/file_io.h"

namespace emd {
namespace bench {
namespace {

const char* const kStreams[] = {"politics", "sports"};

// A tweet sent this much later than its due time counts as a generator
// failure: the load was no longer the offered one.
constexpr double kLateLimitMs = 250;

// Per-tweet timestamps in ms since the pass origin (-1 = never happened).
struct TweetTimes {
  std::vector<double> due, sent, acked, cycle_start, done;
  std::vector<int> processed;
  std::vector<int> rejected;  // RETRY_AFTER responses per tweet
  explicit TweetTimes(size_t n)
      : due(n, -1), sent(n, -1), acked(n, -1), cycle_start(n, -1),
        done(n, -1), processed(n, 0), rejected(n, 0) {}
};

// Runs one execution cycle on the service; the measured pass wraps the
// plain call with its timers.
using CycleFn =
    std::function<Status(MultiStreamService&, std::span<const AnnotatedTweet>)>;

// One running deployment: service + server on its own thread + the two
// connected clients. Tears everything down (drain, join) on destruction.
class Deployment {
 public:
  Deployment(const Models& models, LocalEmdSystem* system, CycleFn cycle)
      : service_(ServiceOptions()), cycle_(std::move(cycle)) {
    for (const char* name : kStreams) {
      Result<int> id = service_.RegisterStream(
          name, system, models.embedder(Local::kBertweet),
          models.classifier(Local::kBertweet));
      if (!id.ok()) status_ = id.status();
    }
    net::ServingPipeline pipeline;
    pipeline.process_batch = [this](std::span<const AnnotatedTweet> batch) {
      return cycle_(service_, batch);
    };
    pipeline.resolve_stream = [this](std::string_view name) {
      return service_.ResolveStream(name);
    };
    server_ = std::make_unique<net::Server>(std::move(pipeline));
    if (!status_.ok()) return;
    status_ = server_->Start();
    if (!status_.ok()) return;
    thread_ = std::thread([this] { serve_status_ = server_->Serve(); });
    for (const char* name : kStreams) {
      net::ClientOptions copt;
      copt.port = server_->port();
      copt.client_id = std::string("client-") + name;
      copt.stream = name;
      Result<net::BlockingClient> client = net::BlockingClient::Connect(copt);
      if (!client.ok()) {
        status_ = client.status();
        return;
      }
      clients_.push_back(std::move(client).value());
    }
  }

  ~Deployment() { Stop(); }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Closes the clients, drains the server and joins its thread.
  Status Stop() {
    for (net::BlockingClient& c : clients_) c.Close();
    clients_.clear();
    if (thread_.joinable()) {
      server_->RequestDrain();
      thread_.join();
    }
    return serve_status_;
  }

  const Status& status() const { return status_; }
  MultiStreamService& service() { return service_; }
  net::Server& server() { return *server_; }
  net::BlockingClient& client(int stream) { return clients_[stream]; }

 private:
  static MultiStreamOptions ServiceOptions() {
    MultiStreamOptions o;
    o.globalizer.mode = GlobalizerOptions::Mode::kFull;
    o.globalizer.num_threads = 1;  // serial pipeline: see README
    o.globalizer.matcher = ShardedGlobalState::MatcherKind::kInterned;
    return o;
  }

  MultiStreamService service_;
  CycleFn cycle_;
  std::unique_ptr<net::Server> server_;
  std::vector<net::BlockingClient> clients_;
  Status status_ = Status::OK();
  Status serve_status_ = Status::OK();
  std::thread thread_;  // last: joined before the members it uses go away
};

// Sends one stream's tweets on its connection at their due times. A
// rejected tweet is re-offered after the server's retry hint. Writes only
// the entries of its own stream's tweets in `times`; `rtt` gets every
// Submit round trip, rejected ones too.
void RunClient(net::BlockingClient* client, const Input& input, int stream,
               SteadyClock::time_point origin, TweetTimes* times,
               std::vector<double>* rtt, std::atomic<int>* transport_errors) {
  for (size_t i = 0; i < input.data.tweets.size(); ++i) {
    const AnnotatedTweet& tweet = input.data.tweets[i];
    if (tweet.stream_id != stream) continue;
    std::this_thread::sleep_until(
        origin + std::chrono::duration<double, std::milli>(times->due[i]));
    times->sent[i] = MsBetween(origin, SteadyClock::now());
    net::TweetFrame frame;
    frame.seq = i + 1;
    frame.tweet_id = tweet.tweet_id;
    frame.topic_id = tweet.topic_id;
    frame.text = tweet.text;
    for (int attempt = 0; attempt < 50; ++attempt) {
      const auto s0 = SteadyClock::now();
      Result<net::SubmitResult> res = client->Submit(frame);
      const auto s1 = SteadyClock::now();
      if (!res.ok()) {
        std::fprintf(stderr, "submit failed: %s\n",
                     res.status().ToString().c_str());
        transport_errors->fetch_add(1);
        return;
      }
      rtt->push_back(MsBetween(s0, s1));
      if (res->accepted) {
        times->acked[i] = MsBetween(origin, s1);
        break;
      }
      ++times->rejected[i];
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::max<uint32_t>(1, res->retry_after_ms)));
    }
  }
}

Pass RunPass(const WorkloadSpec& spec, const Input& input, const Models& models,
             bool trace, const std::string& scratch_dir) {
  Pass pass;
  const size_t n = input.data.tweets.size();
  std::optional<TracedSystem> traced;
  LocalEmdSystem* system = models.system(Local::kBertweet);
  if (trace) system = &traced.emplace(system);
  TweetTimes times(n);
  const auto origin = SteadyClock::now() + std::chrono::milliseconds(50);
  for (size_t i = 0; i < n; ++i) times.due[i] = 1e3 * i / spec.rate;
  const obs::MetricsSnapshot before = obs::Metrics().Snapshot();

  // Runs on the server thread; the main thread reads what it records only
  // after that thread is joined (Deployment::Stop).
  Deployment d(models, system, [&](MultiStreamService& service,
                                   std::span<const AnnotatedTweet> batch) {
    const auto t0 = SteadyClock::now();
    const Status st = service.ProcessBatch(batch);
    const auto t1 = SteadyClock::now();
    const double ms = MsBetween(t0, t1);
    pass.cycle_ms.push_back(ms);
    pass.batch_sizes.push_back(static_cast<double>(batch.size()));
    if (traced) {
      const TracedSystem::Window w = traced->Take(t0, t1);
      pass.partition_ok = pass.partition_ok && w.inside && w.ms <= ms;
      pass.emd_ms.push_back(w.ms);
      pass.global_ms.push_back(ms - w.ms);
    }
    for (const AnnotatedTweet& t : batch) {
      const size_t idx = static_cast<size_t>(t.tweet_id - 1);
      if (idx >= n) continue;
      times.cycle_start[idx] = MsBetween(origin, t0);
      if (st.ok()) {
        times.done[idx] = MsBetween(origin, t1);
        ++times.processed[idx];
      }
    }
    return st;
  });
  if (!d.status().ok()) {
    std::fprintf(stderr, "deployment failed: %s\n",
                 d.status().ToString().c_str());
    pass.failed = n;
    return pass;
  }

  std::vector<double> rtt_per_client[2];
  std::atomic<int> transport_errors{0};
  {
    std::vector<std::thread> clients;
    for (int s = 0; s < 2; ++s) {
      clients.emplace_back([&, s] {
        RunClient(&d.client(s), input, s, origin, &times, &rtt_per_client[s],
                  &transport_errors);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  size_t accepted = 0;
  for (size_t i = 0; i < n; ++i) accepted += times.acked[i] >= 0;
  // Accepted tweets still queued are flushed by the drain in Stop().
  const Status drained = d.Stop();
  if (!drained.ok()) {
    std::fprintf(stderr, "drain failed: %s\n", drained.ToString().c_str());
  }
  const net::ServerStats& stats = d.server().stats();
  if (stats.tweets_accepted != stats.tweets_processed + stats.tweets_dead_lettered ||
      stats.tweets_accepted != accepted) {
    pass.exactly_once = false;
  }

  double last_done = 0;
  std::vector<std::vector<TokenSpan>> predicted(n);
  for (size_t i = 0; i < n; ++i) {
    const bool ok = times.acked[i] >= 0 && times.processed[i] == 1;
    if (times.processed[i] != (times.acked[i] >= 0 ? 1 : 0)) {
      pass.exactly_once = false;
    }
    const double late = times.sent[i] - times.due[i];
    if (!ok || times.rejected[i] > 0 || late > kLateLimitMs) ++pass.failed;
    pass.rejections += static_cast<uint64_t>(times.rejected[i]);
    pass.late_ms.push_back(late);
    if (times.processed[i] > 0) {
      pass.latency_ms.push_back(times.done[i] - times.due[i]);
      pass.queue_wait_ms.push_back(times.cycle_start[i] - times.acked[i]);
      last_done = std::max(last_done, times.done[i]);
    }
  }
  pass.failed += static_cast<uint64_t>(transport_errors.load());
  for (auto& r : rtt_per_client) {
    pass.rtt_ms.insert(pass.rtt_ms.end(), r.begin(), r.end());
  }
  pass.seconds = (last_done - times.due[0]) / 1e3;

  // Emit every stream and map its output back to input positions.
  for (int s = 0; s < d.service().num_streams(); ++s) {
    Globalizer& g = d.service().stream(s);
    const auto f0 = SteadyClock::now();
    Result<GlobalizerOutput> out = g.Finalize();
    pass.finalize_ms.push_back(MsBetween(f0, SteadyClock::now()));
    if (!out.ok()) {
      pass.failed += g.processed_tweets();
      continue;
    }
    pass.failed += static_cast<uint64_t>(out->num_quarantined);
    for (size_t k = 0; k < out->mentions.size(); ++k) {
      const size_t idx = static_cast<size_t>(g.tweet_base().at(k).tweet_id - 1);
      if (idx < n) predicted[idx] = out->mentions[k];
      pass.mentions += out->mentions[k].size();
    }
  }
  pass.f1 = F1(input.data, predicted);

  pass.lanes = d.service().stream(0).last_local_lanes();
  if (trace) {
    const obs::MetricsSnapshot after = obs::Metrics().Snapshot();
    pass.scan_steps = CounterValue(after, "emd_extract_steps_total") -
                      CounterValue(before, "emd_extract_steps_total");
    pass.root_probes = CounterValue(after, "emd_extract_root_probes_total") -
                       CounterValue(before, "emd_extract_root_probes_total");
    ShardedGlobalState::ScanScratch scratch;
    std::vector<ExtractedMention> replay;
    const auto s0 = SteadyClock::now();
    for (const AnnotatedTweet& t : input.data.tweets) {
      d.service().stream(t.stream_id).global_state().ExtractInto(
          t.tokens, &scratch, &replay);
    }
    pass.scan_ms = MsBetween(s0, SteadyClock::now());
    const auto a0 = SteadyClock::now();
    size_t bytes = 0;
    for (int s = 0; s < d.service().num_streams(); ++s) {
      const Globalizer& g = d.service().stream(s);
      bytes += g.global_state().ApproxBytes() + g.tweet_base().ApproxBytes();
      pass.candidates += g.global_state().num_live_candidates();
      pass.gids += g.global_state().num_candidates();
    }
    pass.accounting_ms.push_back(MsBetween(a0, SteadyClock::now()));
    pass.state_mb = static_cast<double>(bytes) / (1024.0 * 1024.0);
    const std::string dir = scratch_dir + "/serve_ckpt";
    if (CreateDirs(dir).ok()) {
      const auto c0 = SteadyClock::now();
      const Status saved = d.service().SaveCheckpoints(dir);
      pass.checkpoint_ms = MsBetween(c0, SteadyClock::now());
      if (!saved.ok()) {
        std::fprintf(stderr, "checkpoint save failed: %s\n",
                     saved.ToString().c_str());
      }
      for (int s = 0; s < d.service().num_streams(); ++s) {
        std::remove((dir + "/stream-" + std::to_string(s) + ".ckpt").c_str());
      }
    }
  }
  return pass;
}

}  // namespace

Result<RunResult> RunServe(const WorkloadSpec& spec, Input& input,
                           const RunOptions& options) {
  // Set-up: model load, service construction, server start and both client
  // connects. The models of the latest set-up drive the next pass.
  std::optional<Models> models;
  auto setup = [&]() -> Result<double> {
    models.reset();
    const auto t0 = SteadyClock::now();
    Result<Models> loaded = LoadModels(options.models_dir, Local::kBertweet);
    if (!loaded.ok()) return loaded.status();
    models.emplace(std::move(loaded).value());
    Deployment d(*models, models->system(Local::kBertweet),
                 [](MultiStreamService& service,
                    std::span<const AnnotatedTweet> batch) {
                   return service.ProcessBatch(batch);
                 });
    if (!d.status().ok()) return d.status();
    return MsBetween(t0, SteadyClock::now());
  };

  Pass reference;
  std::vector<Pass> passes;
  auto pass = [&](bool warmup) {
    if (warmup) {
      Reorder(&input, /*corpus=*/true);
      reference = RunPass(spec, input, *models, false, options.scratch_dir);
      Reorder(&input, /*corpus=*/false);
      std::fprintf(stderr, "corpus-order pass: %.3f s, f1 %.6f, failed %llu\n",
                   reference.seconds, reference.f1,
                   static_cast<unsigned long long>(reference.failed));
      return;
    }
    passes.push_back(
        RunPass(spec, input, *models, options.trace, options.scratch_dir));
    std::fprintf(stderr, "pass %zu: %.3f s, f1 %.6f, failed %llu\n",
                 passes.size(), passes.back().seconds, passes.back().f1,
                 static_cast<unsigned long long>(passes.back().failed));
  };
  std::vector<double> setup_ms;
  EMD_RETURN_IF_ERROR(RepeatPasses(options, setup, pass, &setup_ms));
  return Summarise(spec, input, reference, passes, {}, setup_ms, options.trace,
                   net::ServerOptions{}.batch_size);
}

}  // namespace bench
}  // namespace emd
