#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <cstdio>
#include <set>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "core/framework_kit.h"
#include "eval/metrics.h"
#include "nn/kernels/kernels.h"
#include "stream/tweet_generator.h"
#include "text/tweet_tokenizer.h"
#include "util/file_io.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace emd {
namespace bench {
namespace {

// The trained world: FrameworkKit at the examples' quarter scale. The input
// generator draws from the same entity catalog the models were trained on.
// The kit's own cache stays off: prepare saves every model itself.
FrameworkKitOptions KitOptions() {
  FrameworkKitOptions options;
  options.scale = 0.25;
  options.use_cache = false;
  return options;
}

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    WorkloadSpec topic;
    topic.name = "topic_stream_bertweet";
    topic.local = Local::kBertweet;
    topic.topics = 1;
    topic.tweets = 8192;
    topic.emit_every = 16;
    v.push_back(topic);

    WorkloadSpec fire;
    fire.name = "firehose_chunker";
    fire.local = Local::kNpChunker;
    fire.topics = 5;
    fire.tweets = 60000;
    fire.parallel_probe = true;
    v.push_back(fire);

    WorkloadSpec serve;
    serve.name = "serve_two_streams_int8";
    serve.local = Local::kBertweet;
    serve.topics = 2;
    serve.tweets = 12000;
    serve.serve = true;
    serve.int8 = true;
    serve.rate = 2400;
    v.push_back(serve);
    return v;
  }();
  return specs;
}

// Seed of the generated tweets (the run seed only orders them).
constexpr uint64_t kCorpusSeed = 1;

// Topic of each input stream: topic_stream uses one, serve two, the
// firehose all five.
Topic StreamTopic(const WorkloadSpec& spec, int stream) {
  if (spec.topics == 1) return Topic::kHealth;
  if (spec.topics == 2) return stream == 0 ? Topic::kPolitics : Topic::kSports;
  return static_cast<Topic>(stream);
}

}  // namespace

std::optional<WorkloadSpec> FindWorkload(const std::string& name,
                                         double tweet_scale) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name != name) continue;
    WorkloadSpec s = spec;
    s.tweets = std::max(static_cast<int>(kCycleTweets) * 2,
                        static_cast<int>(std::lround(s.tweets * tweet_scale)));
    return s;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Input files.
//
// Line 1: "# e2ebench-input workload=<name> seed=<n> tweets=<n>"
// Then one tweet per line:
//   <tweet_id> TAB <corpus_index> TAB <stream_id> TAB <topic_id> TAB <gold>
//   TAB <text>
// where <gold> is "begin:end:entity" triples joined by ',' ("-" for none).
// Tokens are not stored: the text re-tokenizes to exactly the generator's
// tokens (checked when the file is written).

Status WriteInput(const WorkloadSpec& spec, uint64_t seed,
                  const std::string& path) {
  // The tweets themselves come from fixed generator seeds, so every seed
  // runs the same entity pools and the same tweets; the seed only decides
  // their order. Accuracy is then a property of the code, not of the seed.
  FrameworkKit kit(KitOptions());
  const EntityCatalog& catalog = kit.catalog();
  std::vector<std::unique_ptr<TweetGenerator>> generators;
  for (int s = 0; s < spec.topics; ++s) {
    TweetGeneratorOptions gopt;
    gopt.seed = kCorpusSeed * 1000003ULL + static_cast<uint64_t>(s) * 7919 + 17;
    generators.push_back(std::make_unique<TweetGenerator>(
        &catalog, StreamTopic(spec, s), gopt));
  }
  // Serve alternates its two streams (one per connection); the firehose
  // interleaves five topics at random.
  Rng pick(kCorpusSeed * 31 + 5);
  // Each stream's tweets with their place in the corpus order.
  std::vector<int> stream_of(spec.tweets);
  std::vector<std::vector<std::pair<int, AnnotatedTweet>>> by_stream(spec.topics);
  for (int i = 0; i < spec.tweets; ++i) {
    stream_of[i] = spec.topics == 1 ? 0
                   : spec.serve     ? i % spec.topics
                                    : static_cast<int>(pick.NextU64(spec.topics));
    by_stream[stream_of[i]].emplace_back(i, generators[stream_of[i]]->Next());
  }
  // The seed's order: each stream's tweets are shuffled, and the firehose
  // also shuffles which topic comes next (serve keeps its alternation).
  Rng order(seed * 0x9E3779B97F4A7C15ULL + 1);
  if (!spec.serve) order.Shuffle(&stream_of);
  for (auto& tweets : by_stream) order.Shuffle(&tweets);

  TweetTokenizer tokenizer;
  std::ostringstream os;
  os << "# e2ebench-input workload=" << spec.name << " seed=" << seed
     << " tweets=" << spec.tweets << "\n";
  std::vector<size_t> next(spec.topics, 0);
  for (int i = 0; i < spec.tweets; ++i) {
    const int stream = stream_of[i];
    const auto& [corpus_index, tweet] = by_stream[stream][next[stream]++];
    if (tweet.text.find_first_of("\t\n") != std::string::npos) {
      return Status::Internal("generated tweet text holds a tab or newline");
    }
    if (tokenizer.Tokenize(tweet.text) != tweet.tokens) {
      return Status::Internal("generated tweet does not re-tokenize to its "
                              "own tokens: ", tweet.text);
    }
    os << (i + 1) << '\t' << corpus_index << '\t'
       << (spec.serve ? stream : 0) << '\t'
       << static_cast<int>(StreamTopic(spec, stream)) << '\t';
    if (tweet.gold.empty()) os << '-';
    for (size_t g = 0; g < tweet.gold.size(); ++g) {
      if (g > 0) os << ',';
      os << tweet.gold[g].span.begin << ':' << tweet.gold[g].span.end << ':'
         << tweet.gold[g].entity_id;
    }
    os << '\t' << tweet.text << '\n';
  }
  return WriteFileAtomic(path, os.str());
}

namespace {

Result<Input> ParseInput(const std::string& path) {
  Result<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  Input input;
  input.digest = Hex64(Fnv1a(*bytes));
  const std::vector<std::string> lines = SplitKeepEmpty(*bytes, '\n');
  if (lines.empty()) return Status::Corruption("empty input file ", path);
  {
    std::istringstream header(lines[0]);
    std::string hash, tag, field;
    header >> hash >> tag;
    if (hash != "#" || tag != "e2ebench-input") {
      return Status::Corruption("not an e2ebench input file: ", path);
    }
    while (header >> field) {
      const size_t eq = field.find('=');
      if (eq == std::string::npos) continue;
      const std::string key = field.substr(0, eq), value = field.substr(eq + 1);
      if (key == "workload") input.workload = value;
      if (key == "seed") input.seed = std::stoull(value);
    }
  }
  TweetTokenizer tokenizer;
  for (size_t l = 1; l < lines.size(); ++l) {
    if (lines[l].empty()) continue;
    std::vector<std::string> f = SplitKeepEmpty(lines[l], '\t');
    if (f.size() != 6) {
      return Status::Corruption("input line ", l + 1, " has ", f.size(),
                                " fields");
    }
    AnnotatedTweet tweet;
    tweet.tweet_id = std::stol(f[0]);
    tweet.stream_id = std::stoi(f[2]);
    tweet.topic_id = std::stoi(f[3]);
    tweet.text = f[5];
    tweet.tokens = tokenizer.Tokenize(tweet.text);
    if (f[4] != "-") {
      for (const std::string& g : Split(f[4], ",")) {
        const std::vector<std::string> p = Split(g, ":");
        if (p.size() != 3) return Status::Corruption("bad gold span ", g);
        GoldSpan span;
        span.span.begin = std::stoul(p[0]);
        span.span.end = std::stoul(p[1]);
        span.entity_id = std::stoi(p[2]);
        if (span.span.begin >= span.span.end ||
            span.span.end > tweet.tokens.size()) {
          return Status::Corruption("gold span out of range on line ", l + 1);
        }
        tweet.gold.push_back(span);
      }
    }
    input.tokens += tweet.tokens.size();
    input.data.tweets.push_back(std::move(tweet));
    input.corpus_index.push_back(std::stoi(f[1]));
  }
  const size_t n = input.data.tweets.size();
  if (n == 0) return Status::Corruption("no tweets in ", path);
  std::vector<int> sorted = input.corpus_index;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < n; ++i) {
    if (sorted[i] != static_cast<int>(i)) {
      return Status::Corruption("corpus indices of ", path,
                                " are not a permutation");
    }
  }
  return input;
}

}  // namespace

Result<Input> ReadInput(const std::string& path) {
  // Numeric fields are parsed with std::sto*, which throw on malformed text.
  try {
    return ParseInput(path);
  } catch (const std::exception& e) {
    return Status::Corruption("malformed input file ", path, ": ", e.what());
  }
}

void Reorder(Input* input, bool corpus) {
  std::vector<AnnotatedTweet>& tweets = input->data.tweets;
  std::vector<AnnotatedTweet> out(tweets.size());
  for (size_t i = 0; i < tweets.size(); ++i) {
    const size_t c = static_cast<size_t>(input->corpus_index[i]);
    if (corpus) {
      out[c] = std::move(tweets[i]);
    } else {
      out[i] = std::move(tweets[c]);
    }
  }
  for (size_t i = 0; i < out.size(); ++i) {
    out[i].tweet_id = static_cast<long>(i) + 1;
  }
  tweets.swap(out);
}

// ---------------------------------------------------------------------------
// Models.

namespace {

std::string ModelPath(const std::string& dir, const char* name) {
  return dir + "/" + name;
}

Status Require(const std::string& path) {
  if (!FileExists(path)) {
    return Status::NotFound("cached model ", path,
                            " is missing; run the prepare step first");
  }
  return Status::OK();
}

}  // namespace

LocalEmdSystem* Models::system(Local kind) const {
  return kind == Local::kBertweet ? static_cast<LocalEmdSystem*>(bertweet.get())
                                  : static_cast<LocalEmdSystem*>(chunker.get());
}
const PhraseEmbedder* Models::embedder(Local kind) const {
  return kind == Local::kBertweet ? bertweet_embedder.get() : nullptr;
}
const EntityClassifier* Models::classifier(Local kind) const {
  return kind == Local::kBertweet ? bertweet_classifier.get()
                                  : chunker_classifier.get();
}

Status PrepareModels(const std::string& dir) {
  EMD_RETURN_IF_ERROR(CreateDirs(dir));
  FrameworkKit kit(KitOptions());
  auto* bertweet =
      dynamic_cast<MiniBertweetSystem*>(kit.system(SystemKind::kBertweet));
  if (bertweet == nullptr) return Status::Internal("unexpected BERTweet type");
  EMD_RETURN_IF_ERROR(bertweet->Save(ModelPath(dir, "bertweet.model")));
  EMD_RETURN_IF_ERROR(kit.phrase_embedder(SystemKind::kBertweet)
                          ->Save(ModelPath(dir, "bertweet_embedder.model")));
  EMD_RETURN_IF_ERROR(kit.classifier(SystemKind::kBertweet)
                          ->Save(ModelPath(dir, "bertweet_classifier.model")));
  EMD_RETURN_IF_ERROR(kit.pos_tagger().Save(ModelPath(dir, "pos.model")));
  EMD_RETURN_IF_ERROR(kit.classifier(SystemKind::kNpChunker)
                          ->Save(ModelPath(dir, "chunker_classifier.model")));
  // The chunker's lexicon is the training world's vocabulary (as in
  // FrameworkKit); store it so a timed run never rebuilds the corpus.
  std::set<std::string> lexicon;
  for (const auto& tweet : kit.training_corpus().tweets) {
    for (const auto& tok : tweet.tokens) {
      if (tok.kind == TokenKind::kWord) lexicon.insert(ToLowerAscii(tok.text));
    }
  }
  std::string words;
  for (const std::string& w : lexicon) words += w + "\n";
  EMD_RETURN_IF_ERROR(
      WriteFileAtomic(ModelPath(dir, "chunker_lexicon.txt"), words));
  return WriteFileAtomic(ModelPath(dir, "READY"), "ok\n");
}

Result<Models> LoadModels(const std::string& dir, Local kind) {
  FrameworkKit kit(KitOptions());  // shapes only; never trains here
  Models m;
  if (kind == Local::kBertweet) {
    const SystemKind k = SystemKind::kBertweet;
    const std::string sys = ModelPath(dir, "bertweet.model");
    const std::string emb = ModelPath(dir, "bertweet_embedder.model");
    const std::string clf = ModelPath(dir, "bertweet_classifier.model");
    EMD_RETURN_IF_ERROR(Require(sys));
    EMD_RETURN_IF_ERROR(Require(emb));
    EMD_RETURN_IF_ERROR(Require(clf));
    m.bertweet = std::make_unique<MiniBertweetSystem>();
    EMD_RETURN_IF_ERROR(m.bertweet->Load(sys));
    m.bertweet_embedder = std::make_unique<PhraseEmbedder>(
        m.bertweet->embedding_dim(), kit.candidate_embedding_dim(k));
    EMD_RETURN_IF_ERROR(m.bertweet_embedder->Load(emb));
    EntityClassifierOptions copt;
    copt.input_dim = kit.classifier_input_dim(k);
    m.bertweet_classifier = std::make_unique<EntityClassifier>(copt);
    EMD_RETURN_IF_ERROR(m.bertweet_classifier->Load(clf));
    return m;
  }
  const std::string pos = ModelPath(dir, "pos.model");
  const std::string lex = ModelPath(dir, "chunker_lexicon.txt");
  const std::string clf = ModelPath(dir, "chunker_classifier.model");
  EMD_RETURN_IF_ERROR(Require(pos));
  EMD_RETURN_IF_ERROR(Require(lex));
  EMD_RETURN_IF_ERROR(Require(clf));
  m.pos = std::make_unique<PosTagger>();
  EMD_RETURN_IF_ERROR(m.pos->Load(pos));
  m.chunker = std::make_unique<NpChunkerSystem>(m.pos.get());
  Result<std::vector<std::string>> words = ReadLines(lex);
  if (!words.ok()) return words.status();
  for (const std::string& w : *words) {
    if (!w.empty()) m.chunker->AddLexiconWord(w);
  }
  EntityClassifierOptions copt;
  copt.input_dim = kit.classifier_input_dim(SystemKind::kNpChunker);
  m.chunker_classifier = std::make_unique<EntityClassifier>(copt);
  EMD_RETURN_IF_ERROR(m.chunker_classifier->Load(clf));
  return m;
}

// ---------------------------------------------------------------------------
// Tracing decorator.

LocalEmdResult TracedSystem::Process(const std::vector<Token>& tokens) {
  const auto a = SteadyClock::now();
  LocalEmdResult r = inner_->Process(tokens);
  Record(a, SteadyClock::now());
  return r;
}

void TracedSystem::ProcessBatched(
    const std::vector<const std::vector<Token>*>& tweets, ForwardArena* arena,
    std::vector<LocalEmdResult>* results) {
  const auto a = SteadyClock::now();
  inner_->ProcessBatched(tweets, arena, results);
  Record(a, SteadyClock::now());
}

void TracedSystem::Record(SteadyClock::time_point a, SteadyClock::time_point b) {
  std::lock_guard<std::mutex> lock(mu_);
  intervals_.emplace_back(a, b);
}

TracedSystem::Window TracedSystem::Take(SteadyClock::time_point begin,
                                        SteadyClock::time_point end) {
  std::vector<std::pair<SteadyClock::time_point, SteadyClock::time_point>> v;
  {
    std::lock_guard<std::mutex> lock(mu_);
    v.swap(intervals_);
  }
  Window w;
  std::sort(v.begin(), v.end());
  SteadyClock::time_point cur_a{}, cur_b{};
  bool open = false;
  for (const auto& [a, b] : v) {
    if (a < begin || b > end) w.inside = false;
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) w.ms += MsBetween(cur_a, cur_b);
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) w.ms += MsBetween(cur_a, cur_b);
  return w;
}

// ---------------------------------------------------------------------------
// Statistics and outputs.

uint64_t MentionDigest(const std::vector<std::vector<TokenSpan>>& mentions) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const auto& per_tweet : mentions) {
    mix(per_tweet.size() + 0x9E37);
    for (const TokenSpan& s : per_tweet) {
      mix(s.begin);
      mix(s.end + 0x100000);
    }
  }
  return h;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(v.size() - 1, lo + 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

uint64_t CounterValue(const obs::MetricsSnapshot& snap,
                      const std::string& name) {
  uint64_t total = 0;
  for (const auto& c : snap.counters) {
    if (c.name == name) total += c.value;
  }
  return total;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double F1(const Dataset& data,
          const std::vector<std::vector<TokenSpan>>& predicted) {
  return EvaluateMentions(data, predicted).f1;
}

std::vector<double> Concat(const std::vector<Pass>& passes,
                           std::vector<double> Pass::*series) {
  std::vector<double> all;
  for (const Pass& p : passes) {
    all.insert(all.end(), (p.*series).begin(), (p.*series).end());
  }
  return all;
}

Status RepeatPasses(const RunOptions& options,
                    const std::function<Result<double>()>& setup,
                    const std::function<void(bool warmup)>& pass,
                    std::vector<double>* setup_ms) {
  // The first set-up pays first-touch costs; it and the untimed warm-up
  // pass are not measured.
  EMD_RETURN_IF_ERROR(setup().status());
  pass(/*warmup=*/true);
  const auto start = SteadyClock::now();
  for (int done = 0; done < kMinPasses ||
                     MsBetween(start, SteadyClock::now()) < options.seconds * 1e3;
       ++done) {
    for (int rep = 0; rep < kSetupRepsPerPass; ++rep) {
      Result<double> ms = setup();
      if (!ms.ok()) return ms.status();
      setup_ms->push_back(*ms);
    }
    pass(/*warmup=*/false);
  }
  return Status::OK();
}

RunResult Summarise(const WorkloadSpec& spec, const Input& input,
                    const Pass& reference, const std::vector<Pass>& passes,
                    const std::vector<Pass>& probes,
                    const std::vector<double>& setup_ms, bool trace,
                    size_t cycle_tweets) {
  RunResult r;
  const size_t n = input.data.tweets.size();
  r.attempted = n;
  r.failed = reference.failed;
  if (!spec.serve && reference.digest.empty()) {
    r.Fail("the corpus-order pass emitted no output");
  }
  std::vector<double> tps, f1s;
  for (const Pass& p : passes) {
    r.attempted += n;
    r.failed += p.failed;
    tps.push_back(p.seconds > 0 ? static_cast<double>(n) / p.seconds : 0);
    f1s.push_back(p.f1);
    if (!p.partition_ok) r.Fail("emd intervals fall outside their cycle");
    if (!p.exactly_once) {
      r.Fail("an accepted tweet was not processed exactly once");
    }
    // In-process, a pass is a pure function of the input. (In serve, cycle
    // boundaries follow arrival timing.)
    if (!spec.serve && (p.digest.empty() || p.digest != passes[0].digest)) {
      r.Fail("mention output differs between passes of the same input");
    }
    if (!spec.serve && p.f1 != passes[0].f1) r.Fail("f1 differs between passes");
  }
  for (const Pass& p : probes) {
    r.attempted += n;
    r.failed += p.failed;
    if (p.digest != passes[0].digest) {
      r.Fail("parallel output differs from the serial output");
    }
  }
  r.output_digest = passes[0].digest;
  if (!probes.empty()) r.parallel_digest = probes[0].digest;
  // The reported F1 is the corpus-order pass's, so it does not depend on
  // the seed; the measured passes' F1 goes into the record.
  const double f1 = reference.f1;
  r.seed_order_f1 = Median(f1s);
  if (f1 < 0.2 || r.seed_order_f1 < 0.2) r.Fail("f1 below the 0.2 sanity floor");

  const std::vector<double> cycles = Concat(passes, &Pass::cycle_ms);
  const std::vector<double> lat = Concat(passes, &Pass::latency_ms);
  const double setup_s = Median(setup_ms) / 1e3;
  if (!trace) {
    r.Set("setup_s", setup_s, "s");
    r.Set("tweets_per_s", Median(tps), "1/s");
    r.Set("latency_p50_ms", Quantile(lat, 0.5), "ms");
    r.Set("f1", f1, "ratio");
    r.Set("peak_rss_mb", PeakRssMb(), "MB");
    return r;
  }

  std::vector<double> per(passes.size());
  auto med = [&](auto fn) {
    for (size_t i = 0; i < passes.size(); ++i) per[i] = fn(passes[i]);
    return Median(per);
  };
  auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  const std::vector<double> emd = Concat(passes, &Pass::emd_ms);
  const double tokens = static_cast<double>(input.tokens);
  size_t first_cycle_tokens = 0;
  for (size_t i = 0; i < std::min(cycle_tweets, n); ++i) {
    first_cycle_tokens += input.data.tweets[i].tokens.size();
  }

  r.Set("trace.setup_s", setup_s, "s");
  r.Set("trace.tweets_per_s", Median(tps), "1/s");
  r.Set("trace.cycle_p50_ms", Quantile(cycles, 0.5), "ms");
  r.Set("trace.cycle_p99_ms", Quantile(cycles, 0.99), "ms");
  r.Set("trace.latency_p99_ms", Quantile(lat, 0.99), "ms");
  r.Set("emd.local_ms_p50", Quantile(emd, 0.5), "ms");
  r.Set("emd.local_share", sum(emd) / sum(cycles), "ratio");
  r.Set("emd.us_per_token", sum(emd) * 1e3 / (tokens * passes.size()), "us");
  r.Set("nn.gemm_gflops",
        GemmGflops(static_cast<int>(first_cycle_tokens), spec.int8), "GFLOP/s");
  const std::vector<double> global = Concat(passes, &Pass::global_ms);
  r.Set("core.global_ms_p50", Quantile(global, 0.5), "ms");
  r.Set("core.global_ms_p99", Quantile(global, 0.99), "ms");
  r.Set("core.new_candidates_per_tweet",
        med([&](const Pass& p) { return static_cast<double>(p.gids) / n; }),
        "count");
  r.Set("core.mentions_per_tweet",
        med([&](const Pass& p) { return static_cast<double>(p.mentions) / n; }),
        "count");
  r.Set("core.candidates", med([](const Pass& p) { return p.candidates; }),
        "count");
  r.Set("core.scan_us_per_tweet",
        med([&](const Pass& p) { return p.scan_ms * 1e3 / n; }), "us");
  r.Set("core.scan_steps_per_token",
        med([&](const Pass& p) { return p.scan_steps / tokens; }), "count");
  r.Set("core.root_probes_per_token",
        med([&](const Pass& p) { return p.root_probes / tokens; }), "count");
  r.Set("core.accounting_ms",
        Quantile(Concat(passes, &Pass::accounting_ms), 0.5), "ms");
  r.Set("core.state_mb", med([](const Pass& p) { return p.state_mb; }), "MB");
  r.Set("core.finalize_ms_p50",
        Quantile(Concat(passes, &Pass::finalize_ms), 0.5), "ms");
  r.Set("core.finalize_ms_last",
        med([](const Pass& p) { return p.finalize_ms.back(); }), "ms");
  r.Set("core.checkpoint_save_ms",
        med([](const Pass& p) { return p.checkpoint_ms; }), "ms");

  // Serving layers; they read 0 on the in-process workloads.
  const std::vector<double> sizes = Concat(passes, &Pass::batch_sizes);
  const std::vector<double> rtt = Concat(passes, &Pass::rtt_ms);
  uint64_t rejections = 0;
  for (const Pass& p : passes) rejections += p.rejections;
  r.Set("stream.cycle_ms_p50", spec.serve ? Quantile(cycles, 0.5) : 0, "ms");
  r.Set("stream.cycle_ms_p99", spec.serve ? Quantile(cycles, 0.99) : 0, "ms");
  r.Set("stream.tweets_per_cycle", sizes.empty() ? 0 : sum(sizes) / sizes.size(),
        "count");
  r.Set("net.submit_rtt_ms_p50", Quantile(rtt, 0.5), "ms");
  r.Set("net.submit_rtt_ms_p99", Quantile(rtt, 0.99), "ms");
  r.Set("net.queue_wait_ms_p50",
        Quantile(Concat(passes, &Pass::queue_wait_ms), 0.5), "ms");
  r.Set("net.rejected_share",
        rtt.empty() ? 0 : static_cast<double>(rejections) / rtt.size(), "ratio");
  r.Set("net.generator_late_ms_p99", Quantile(Concat(passes, &Pass::late_ms), 0.99),
        "ms");

  // Thread scaling from the interleaved pairs: serial cycle time over
  // parallel cycle time (tracing work lies outside both). Only the probes
  // run the thread pool.
  std::vector<double> lanes, speedup;
  for (size_t i = 0; i < probes.size(); ++i) {
    lanes.push_back(probes[i].lanes);
    speedup.push_back(sum(passes[i].cycle_ms) / sum(probes[i].cycle_ms));
  }
  double pool_wait_p95 = 0;
  if (!probes.empty()) {
    for (const auto& h : obs::Metrics().Snapshot().histograms) {
      if (h.name == "thread_pool_queue_wait_seconds") pool_wait_p95 = h.p95 * 1e3;
    }
  }
  r.Set("util.lanes",
        probes.empty() ? med([](const Pass& p) { return p.lanes; })
                       : Median(lanes),
        "count");
  r.Set("util.parallel_speedup", Median(speedup), "ratio");
  r.Set("util.pool_queue_wait_ms_p95", pool_wait_p95, "ms");
  return r;
}

double GemmGflops(int rows, bool int8) {
  // MiniBertweet's encoder GEMMs per layer: four d×d projections and the
  // d→d_ff→d feed-forward pair (d = 64, d_ff = 128).
  const MiniBertweetOptions mb;
  const int d = mb.d_model, ff = mb.d_ff;
  const std::vector<std::pair<int, int>> shapes = {
      {d, d}, {d, d}, {d, d}, {d, d}, {d, ff}, {ff, d}};
  Rng rng(7);
  std::vector<float> a(static_cast<size_t>(rows) * ff), c(a.size());
  std::vector<float> w(static_cast<size_t>(ff) * ff);
  for (float& x : a) x = rng.NextFloat(-1.f, 1.f);
  for (float& x : w) x = rng.NextFloat(-1.f, 1.f);
  std::vector<int8_t> a8(a.size()), w8(w.size());
  std::vector<float> a_scales(rows), w_scales(ff);
  const kernels::QuantizedBackend& q = kernels::Int8Kernels();
  q.quantize_rows(w.data(), ff, ff, w8.data(), w_scales.data());
  const kernels::KernelBackend& k = kernels::Kernels();

  double flops_per_pass = 0;
  for (const auto& [kin, nout] : shapes) flops_per_pass += 2.0 * rows * kin * nout;
  std::vector<double> gflops;
  for (int rep = 0; rep < 15; ++rep) {
    const auto t0 = SteadyClock::now();
    for (const auto& [kin, nout] : shapes) {
      if (int8) {
        q.quantize_rows(a.data(), rows, kin, a8.data(), a_scales.data());
        q.qgemm(a8.data(), a_scales.data(), w8.data(), w_scales.data(),
                nullptr, c.data(), rows, kin, nout);
      } else {
        k.matmul(a.data(), w.data(), c.data(), rows, kin, nout);
      }
    }
    const double ms = MsBetween(t0, SteadyClock::now());
    gflops.push_back(flops_per_pass / (ms * 1e6));
  }
  return Median(gflops);
}

}  // namespace bench
}  // namespace emd
