// Shared pieces of the end-to-end benchmark: workload table, generated input
// files, cached models, the traced local-system decorator and the result
// record every workload fills in.

#ifndef EMD_E2EBENCH_BENCH_H_
#define EMD_E2EBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/entity_classifier.h"
#include "core/phrase_embedder.h"
#include "emd/local_emd_system.h"
#include "emd/mini_bertweet.h"
#include "emd/np_chunker.h"
#include "emd/pos_tagger.h"
#include "obs/metrics.h"
#include "stream/annotated_tweet.h"
#include "util/result.h"
#include "util/status.h"

namespace emd {
namespace bench {

using SteadyClock = std::chrono::steady_clock;

inline double MsBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads. Each is a fixed tweet count per pass; a run repeats passes from
// fresh pipeline state, so the work in one pass never depends on host speed.

enum class Local { kBertweet, kNpChunker };

/// Tweets per ProcessBatch call of the in-process workloads.
constexpr size_t kCycleTweets = 64;

struct WorkloadSpec {
  std::string name;
  Local local = Local::kBertweet;
  int topics = 1;          // interleaved topic streams in the input
  int tweets = 0;          // per pass
  int emit_every = 0;      // Finalize every N cycles; 0 = once at the end
  // Traced runs interleave passes on 2 threads and 4 shards: the thread
  // pool and the shard-parallel merge, whose output must equal the serial.
  bool parallel_probe = false;
  bool serve = false;
  bool int8 = false;
  double rate = 0;         // serve: offered tweets/s over both connections
};

/// The workloads; `tweet_scale` shrinks every tweet count (smoke runs).
std::optional<WorkloadSpec> FindWorkload(const std::string& name,
                                         double tweet_scale);

// ---------------------------------------------------------------------------
// Input files: one tweet per line, re-tokenized on load.

struct Input {
  std::string workload;
  uint64_t seed = 0;
  std::string digest;  // FNV-1a 64 of the file bytes, hex
  Dataset data;        // tweets in stream order (stream_id / topic_id set)
  std::vector<int> corpus_index;  // per seed-order tweet: its corpus place
  size_t tokens = 0;
};

/// Writes the workload's tweets to `path` in the order `seed` gives them.
/// The tweets are the same for every seed (fixed generator seeds).
Status WriteInput(const WorkloadSpec& spec, uint64_t seed,
                  const std::string& path);
Result<Input> ReadInput(const std::string& path);
/// Moves the tweets, in place, from the seed's order into corpus order (the
/// same for every seed), or with `corpus` false back; tweet ids follow their
/// new positions.
void Reorder(Input* input, bool corpus);

// ---------------------------------------------------------------------------
// Cached models. Prepare trains them once; a timed run only loads, and fails
// when a file is missing or does not load.

struct Models {
  std::unique_ptr<MiniBertweetSystem> bertweet;
  std::unique_ptr<PhraseEmbedder> bertweet_embedder;
  std::unique_ptr<EntityClassifier> bertweet_classifier;
  std::unique_ptr<PosTagger> pos;
  std::unique_ptr<NpChunkerSystem> chunker;
  std::unique_ptr<EntityClassifier> chunker_classifier;

  LocalEmdSystem* system(Local kind) const;
  const PhraseEmbedder* embedder(Local kind) const;
  const EntityClassifier* classifier(Local kind) const;
};

Status PrepareModels(const std::string& dir);
Result<Models> LoadModels(const std::string& dir, Local kind);

// ---------------------------------------------------------------------------
// Tracing from the benchmark's side of the API: a forwarding LocalEmdSystem
// that records the wall interval of every Process / ProcessBatched call.

class TracedSystem : public LocalEmdSystem {
 public:
  explicit TracedSystem(LocalEmdSystem* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  bool is_deep() const override { return inner_->is_deep(); }
  bool concurrent_safe() const override { return inner_->concurrent_safe(); }
  int embedding_dim() const override { return inner_->embedding_dim(); }
  bool batch_capable() const override { return inner_->batch_capable(); }
  const char* process_failpoint() const override {
    return inner_->process_failpoint();
  }
  LocalEmdResult Process(const std::vector<Token>& tokens) override;
  void ProcessBatched(const std::vector<const std::vector<Token>*>& tweets,
                      ForwardArena* arena,
                      std::vector<LocalEmdResult>* results) override;

  /// Wall time covered by the calls recorded since the last Take (the union
  /// of their intervals, so concurrent lanes are not double counted), and
  /// whether every interval lay inside [begin, end].
  struct Window {
    double ms = 0;
    bool inside = true;
  };
  Window Take(SteadyClock::time_point begin, SteadyClock::time_point end);

 private:
  void Record(SteadyClock::time_point a, SteadyClock::time_point b);

  LocalEmdSystem* inner_;
  std::mutex mu_;
  std::vector<std::pair<SteadyClock::time_point, SteadyClock::time_point>>
      intervals_;  // guarded by mu_
};

// ---------------------------------------------------------------------------
// Results.

/// Order-sensitive digest of emitted mention spans.
uint64_t MentionDigest(const std::vector<std::vector<TokenSpan>>& mentions);

/// Value at quantile q (linear interpolation); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
double Median(const std::vector<double>& v);

/// Everything one pass measured. Each workload fills the fields of the
/// layers it runs; the rest stay empty and their metrics read 0.
struct Pass {
  double seconds = 0;  // wall time of the pass's work
  uint64_t failed = 0;
  std::string digest;  // mention digest (in-process workloads)
  double f1 = 0;
  int lanes = 0;       // Globalizer::last_local_lanes() at the end
  bool partition_ok = true;  // traced local calls lay inside their cycles
  bool exactly_once = true;  // serve: accepted tweets processed once
  std::vector<double> cycle_ms, latency_ms, finalize_ms;
  // Traced passes.
  std::vector<double> emd_ms, global_ms, accounting_ms;
  double scan_ms = 0, state_mb = 0, checkpoint_ms = 0;
  uint64_t scan_steps = 0, root_probes = 0;
  size_t mentions = 0;
  int candidates = 0, gids = 0;
  // Serve.
  std::vector<double> batch_sizes, rtt_ms, queue_wait_ms, late_ms;
  uint64_t rejections = 0;
};

/// All samples of one per-pass series, pass after pass.
std::vector<double> Concat(const std::vector<Pass>& passes,
                           std::vector<double> Pass::*series);

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> notes;  // why a run is not correct / what failed
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::string output_digest;    // mention digest (equal across passes)
  std::string parallel_digest;  // the same for the parallel probe passes
  double seed_order_f1 = 0;     // F1 of the measured passes (seed order)

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back(why);
  }
};

/// A run measures at least this many passes.
constexpr int kMinPasses = 3;
/// Set-up is repeated this many times before every measured pass, so its
/// samples spread over the whole run like the passes do.
constexpr int kSetupRepsPerPass = 3;

struct RunOptions {
  double seconds = 10;
  bool trace = false;
  std::string models_dir;
  std::string scratch_dir;  // checkpoint files
};

/// Drives a run: `setup` loads the models and builds the pipeline once and
/// returns its wall time in ms; `pass` runs one pass (`warmup` for the
/// untimed first one, which runs the input in corpus order and gives the
/// run's reported F1). After one set-up and the warm-up pass, a round of
/// kSetupRepsPerPass set-ups precedes every measured pass, until
/// `options.seconds` have passed and at least kMinPasses passes ran.
Status RepeatPasses(const RunOptions& options,
                    const std::function<Result<double>()>& setup,
                    const std::function<void(bool warmup)>& pass,
                    std::vector<double>* setup_ms);

/// Checks the passes and turns them into the run's result: the end-to-end
/// metrics, or with `trace` the per-layer ones. `reference` is the warm-up
/// pass over the corpus order; `probes` are the parallel passes that
/// alternate with `passes` (empty when none ran); `cycle_tweets` is the
/// workload's cycle size.
RunResult Summarise(const WorkloadSpec& spec, const Input& input,
                    const Pass& reference, const std::vector<Pass>& passes,
                    const std::vector<Pass>& probes,
                    const std::vector<double>& setup_ms, bool trace,
                    size_t cycle_tweets);

/// A non-OK result means the run could not be set up (a cached model is
/// missing or does not load); the caller prints no result for it. The
/// input is reordered for the corpus-order pass and left in seed order.
Result<RunResult> RunInProcess(const WorkloadSpec& spec, Input& input,
                               const RunOptions& options);
Result<RunResult> RunServe(const WorkloadSpec& spec, Input& input,
                           const RunOptions& options);

/// Value of an exported counter in a registry snapshot (0 when absent).
uint64_t CounterValue(const obs::MetricsSnapshot& snap, const std::string& name);

/// Kernel throughput at MiniBertweet's encoder shapes with `rows` rows
/// (fp32 matmul, or int8 qgemm when `int8`), in GFLOP/s.
double GemmGflops(int rows, bool int8);

double PeakRssMb();

/// Mention-level F1 of `predicted` against the input's gold spans.
double F1(const Dataset& data,
          const std::vector<std::vector<TokenSpan>>& predicted);

}  // namespace bench
}  // namespace emd

#endif  // EMD_E2EBENCH_BENCH_H_
