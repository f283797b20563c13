// In-process workloads: the tweets of the input go through one Globalizer in
// fixed-size cycles, with periodic or final emits (Finalize).

#include <cstdio>
#include <optional>

#include "bench.h"
#include "core/globalizer.h"

namespace emd {
namespace bench {
namespace {

// The parallel probe: two pool workers (plus the waiting caller, three
// threads at most) over four shards.
constexpr int kProbeThreads = 2;
constexpr int kProbeShards = 4;

GlobalizerOptions PipelineOptions(int threads, int shards) {
  GlobalizerOptions o;
  o.mode = GlobalizerOptions::Mode::kFull;
  o.batch_size = kCycleTweets;
  o.num_threads = threads;
  o.shard_count = shards;
  // Pinned, so that an inherited EMD_MATCHER cannot change the workload.
  o.matcher = ShardedGlobalState::MatcherKind::kInterned;
  return o;
}

// Accounting walks every trie node; sampling it every few cycles keeps the
// traced run's length close to the untraced one on large states.
constexpr int kAccountingEvery = 4;

// One pass over the input from a fresh Globalizer. `trace` adds the
// per-layer measurements between cycles.
Pass RunPass(const WorkloadSpec& spec, const Input& input, const Models& models,
             bool trace, int threads, int shards,
             const std::string& scratch_dir) {
  Pass pass;
  std::optional<TracedSystem> traced;
  LocalEmdSystem* system = models.system(spec.local);
  if (trace) system = &traced.emplace(system);
  Globalizer g(system, models.embedder(spec.local),
               models.classifier(spec.local),
               PipelineOptions(threads, shards));
  const std::vector<AnnotatedTweet>& tweets = input.data.tweets;
  const size_t n = tweets.size();
  ShardedGlobalState::ScanScratch scratch;
  std::vector<ExtractedMention> replay;

  const auto pass_start = SteadyClock::now();
  size_t cycles_done = 0;
  for (size_t begin = 0; begin < n; begin += kCycleTweets) {
    const size_t len = std::min(kCycleTweets, n - begin);
    std::span<const AnnotatedTweet> batch(tweets.data() + begin, len);
    obs::MetricsSnapshot before;
    if (trace) before = obs::Metrics().Snapshot();

    const auto t0 = SteadyClock::now();
    const Status st = g.ProcessBatch(batch);
    const auto t1 = SteadyClock::now();
    ++cycles_done;
    if (!st.ok()) {
      std::fprintf(stderr, "ProcessBatch failed: %s\n", st.ToString().c_str());
      pass.failed += len;
      continue;
    }
    const double ms = MsBetween(t0, t1);
    pass.cycle_ms.push_back(ms);
    pass.latency_ms.insert(pass.latency_ms.end(), len, ms);

    if (trace) {
      // Everything below runs between cycles, outside the cycle timer.
      const TracedSystem::Window w = traced->Take(t0, t1);
      pass.partition_ok = pass.partition_ok && w.inside && w.ms <= ms;
      pass.emd_ms.push_back(w.ms);
      pass.global_ms.push_back(ms - w.ms);
      const obs::MetricsSnapshot after = obs::Metrics().Snapshot();
      pass.scan_steps += CounterValue(after, "emd_extract_steps_total") -
                         CounterValue(before, "emd_extract_steps_total");
      pass.root_probes += CounterValue(after, "emd_extract_root_probes_total") -
                          CounterValue(before, "emd_extract_root_probes_total");
      const auto s0 = SteadyClock::now();
      for (const AnnotatedTweet& t : batch) {
        g.global_state().ExtractInto(t.tokens, &scratch, &replay);
      }
      pass.scan_ms += MsBetween(s0, SteadyClock::now());
      if (cycles_done % kAccountingEvery == 0) {
        const auto a0 = SteadyClock::now();
        const size_t bytes =
            g.global_state().ApproxBytes() + g.tweet_base().ApproxBytes();
        pass.accounting_ms.push_back(MsBetween(a0, SteadyClock::now()));
        pass.state_mb = static_cast<double>(bytes) / (1024.0 * 1024.0);
      }
    }
    const bool last = begin + len >= n;
    if (spec.emit_every > 0 && !last &&
        cycles_done % static_cast<size_t>(spec.emit_every) == 0) {
      const auto f0 = SteadyClock::now();
      Result<GlobalizerOutput> emitted = g.Finalize();
      pass.finalize_ms.push_back(MsBetween(f0, SteadyClock::now()));
      if (!emitted.ok()) pass.failed += len;
    }
  }
  const auto f0 = SteadyClock::now();
  Result<GlobalizerOutput> out = g.Finalize();
  const auto pass_end = SteadyClock::now();
  pass.finalize_ms.push_back(MsBetween(f0, pass_end));
  pass.seconds = MsBetween(pass_start, pass_end) / 1e3;
  if (!out.ok()) {
    std::fprintf(stderr, "Finalize failed: %s\n", out.status().ToString().c_str());
    pass.failed = n;
    return pass;
  }
  pass.failed += static_cast<uint64_t>(out->num_quarantined);
  if (out->mentions.size() == n) {
    pass.digest = std::to_string(MentionDigest(out->mentions));
    pass.f1 = F1(input.data, out->mentions);
  }

  pass.lanes = g.last_local_lanes();
  if (trace) {
    for (const auto& m : out->mentions) pass.mentions += m.size();
    pass.candidates = g.global_state().num_live_candidates();
    pass.gids = g.global_state().num_candidates();
    const std::string path = scratch_dir + "/inprocess.ckpt";
    const auto c0 = SteadyClock::now();
    const Status saved = g.SaveCheckpoint(path);
    pass.checkpoint_ms = MsBetween(c0, SteadyClock::now());
    if (!saved.ok()) {
      std::fprintf(stderr, "checkpoint save failed: %s\n",
                   saved.ToString().c_str());
    }
    std::remove(path.c_str());
  }
  return pass;
}

}  // namespace

Result<RunResult> RunInProcess(const WorkloadSpec& spec, Input& input,
                               const RunOptions& options) {
  // Set-up: cached-model load plus pipeline construction. The models of the
  // latest set-up drive the next pass.
  std::optional<Models> models;
  auto setup = [&]() -> Result<double> {
    models.reset();
    const auto t0 = SteadyClock::now();
    Result<Models> loaded = LoadModels(options.models_dir, spec.local);
    if (!loaded.ok()) return loaded.status();
    models.emplace(std::move(loaded).value());
    Globalizer g(models->system(spec.local), models->embedder(spec.local),
                 models->classifier(spec.local), PipelineOptions(1, 1));
    return MsBetween(t0, SteadyClock::now());
  };

  auto log = [](const char* kind, size_t index, const Pass& p) {
    double cycle_sum = 0;
    for (double v : p.cycle_ms) cycle_sum += v;
    std::fprintf(stderr,
                 "%s %zu: %.3f s (cycles %.3f s, p50 %.3f ms, last emit "
                 "%.1f ms), f1 %.6f, digest %s\n",
                 kind, index, p.seconds, cycle_sum / 1e3,
                 Quantile(p.cycle_ms, 0.5), p.finalize_ms.back(), p.f1,
                 p.digest.c_str());
  };
  // Probe passes alternate with the serial ones, so both see the same host.
  const bool probe = options.trace && spec.parallel_probe;
  Pass reference;
  std::vector<Pass> passes, probes;
  auto pass = [&](bool warmup) {
    if (warmup) {
      // Reordered in place: a copy of a large input would show in
      // peak_rss_mb.
      Reorder(&input, /*corpus=*/true);
      reference = RunPass(spec, input, *models, false, 1, 1,
                          options.scratch_dir);
      Reorder(&input, /*corpus=*/false);
      log("corpus-order pass", 0, reference);
      return;
    }
    passes.push_back(RunPass(spec, input, *models, options.trace, 1, 1,
                             options.scratch_dir));
    log("pass", passes.size(), passes.back());
    if (probe) {
      probes.push_back(RunPass(spec, input, *models, false, kProbeThreads,
                               kProbeShards, options.scratch_dir));
      log("parallel pass", probes.size(), probes.back());
    }
  };
  std::vector<double> setup_ms;
  EMD_RETURN_IF_ERROR(RepeatPasses(options, setup, pass, &setup_ms));
  return Summarise(spec, input, reference, passes, probes, setup_ms,
                   options.trace, kCycleTweets);
}

}  // namespace bench
}  // namespace emd
