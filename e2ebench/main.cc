// e2ebench — end-to-end benchmark of the EMD Globalizer on the real
// pipeline. Three subcommands, driven by run.py:
//
//   e2ebench prepare --models DIR
//       trains the models once (FrameworkKit) and stores them in DIR
//   e2ebench input --workload NAME --seed N --out FILE [--tweet-scale X]
//       writes the workload's generated input for one seed
//   e2ebench run --workload NAME --input FILE --models DIR --scratch DIR
//                --seconds S --trace 0|1 [--tweet-scale X] [--result FILE]
//       loads the cached models (never trains), runs passes of the fixed
//       input for S seconds (at least three) and prints the result as one
//       JSON object on the last line of stdout
//
// See README.md for the workloads and metrics.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>

#include "bench.h"
#include "util/file_io.h"
#include "util/logging.h"

namespace emd {
namespace bench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: e2ebench prepare --models DIR\n"
               "       e2ebench input --workload NAME --seed N --out FILE "
               "[--tweet-scale X]\n"
               "       e2ebench run --workload NAME --input FILE --models DIR "
               "--scratch DIR --seconds S --trace 0|1 [--tweet-scale X] "
               "[--result FILE]\n");
  return 2;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string MetricsJson(const RunResult& r) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, vu] : r.metrics) {
    os << (first ? "" : ", ") << Quote(name) << ": {\"value\": "
       << Number(vu.first) << ", \"unit\": " << Quote(vu.second) << "}";
    first = false;
  }
  os << "}";
  return os.str();
}

int Run(std::map<std::string, std::string>& args) {
  const double tweet_scale =
      args.count("tweet-scale") ? std::atof(args["tweet-scale"].c_str()) : 1.0;
  const std::optional<WorkloadSpec> spec =
      FindWorkload(args["workload"], tweet_scale);
  if (!spec) {
    std::fprintf(stderr, "unknown workload '%s'\n", args["workload"].c_str());
    return 2;
  }
  // The kernel backend is read once, at the first kernel call: pin it before
  // any model loads so an inherited EMD_BACKEND cannot change the workload.
  ::setenv("EMD_BACKEND", spec->int8 ? "int8" : "auto", 1);

  Result<Input> input = ReadInput(args["input"]);
  if (!input.ok()) {
    std::fprintf(stderr, "cannot read input: %s\n",
                 input.status().ToString().c_str());
    return 1;
  }
  if (input->workload != spec->name ||
      input->data.tweets.size() != static_cast<size_t>(spec->tweets)) {
    std::fprintf(stderr, "input %s was made for another workload or size\n",
                 args["input"].c_str());
    return 1;
  }

  RunOptions options;
  options.seconds = std::atof(args["seconds"].c_str());
  options.trace = args["trace"] == "1";
  options.models_dir = args["models"];
  options.scratch_dir = args["scratch"];
  if (options.seconds <= 0) return Usage();
  if (Status st = CreateDirs(options.scratch_dir); !st.ok()) {
    std::fprintf(stderr, "cannot create scratch dir: %s\n", st.ToString().c_str());
    return 1;
  }

  Result<RunResult> result = spec->serve ? RunServe(*spec, *input, options)
                                         : RunInProcess(*spec, *input, options);
  if (!result.ok()) {
    std::fprintf(stderr, "run failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  const RunResult& r = *result;
  for (const std::string& note : r.notes) {
    std::fprintf(stderr, "not correct: %s\n", note.c_str());
  }
  const std::string metrics = MetricsJson(r);
  if (args.count("result")) {
    std::ostringstream os;
    os << "{\"workload\": " << Quote(spec->name) << ", \"seed\": " << input->seed
       << ", \"input_digest\": " << Quote(input->digest)
       << ", \"output_digest\": " << Quote(r.output_digest)
       << ", \"parallel_output_digest\": " << Quote(r.parallel_digest)
       << ", \"seed_order_f1\": " << Number(r.seed_order_f1)
       << ", \"tweets_per_pass\": " << spec->tweets
       << ", \"trace\": " << (options.trace ? 1 : 0)
       << ", \"correct\": " << (r.correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": " << metrics << "}\n";
    if (Status st = WriteStringToFile(args["result"], os.str()); !st.ok()) {
      std::fprintf(stderr, "cannot write result: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::printf("input workload=%s seed=%llu digest=%s output_digest=%s\n",
              spec->name.c_str(), static_cast<unsigned long long>(input->seed),
              input->digest.c_str(), r.output_digest.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace emd

int main(int argc, char** argv) {
  using namespace emd::bench;
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) return Usage();
    args[argv[i] + 2] = argv[i + 1];
    ++i;
  }
  emd::SetLogLevel(emd::LogLevel::kWarn);

  if (cmd == "prepare") {
    if (!args.count("models")) return Usage();
    emd::SetLogLevel(emd::LogLevel::kInfo);  // training progress
    const emd::Status st = PrepareModels(args["models"]);
    if (!st.ok()) {
      std::fprintf(stderr, "prepare failed: %s\n", st.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (cmd == "input") {
    if (!args.count("workload") || !args.count("seed") || !args.count("out")) {
      return Usage();
    }
    const double scale =
        args.count("tweet-scale") ? std::atof(args["tweet-scale"].c_str()) : 1.0;
    const std::optional<WorkloadSpec> spec = FindWorkload(args["workload"], scale);
    if (!spec) return Usage();
    const emd::Status st =
        WriteInput(*spec, std::strtoull(args["seed"].c_str(), nullptr, 10),
                   args["out"]);
    if (!st.ok()) {
      std::fprintf(stderr, "input failed: %s\n", st.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (cmd == "run") {
    for (const char* required :
         {"workload", "input", "models", "scratch", "seconds", "trace"}) {
      if (!args.count(required)) return Usage();
    }
    return Run(args);
  }
  return Usage();
}
