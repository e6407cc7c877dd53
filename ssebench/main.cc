// ssebench: the repository's end-to-end benchmark driver.
//
//   ssebench --workload <s2_zipf_tcp|s2_ingest|s3_hot_churn> --seed <n>
//            --seconds <s> --trace <0|1> --work-dir <dir>
//            [--corrupt-one-reply] [--commit <id>]
//
// Prints a metadata line ({"meta": ...}) and, last, the result line
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 the per-layer ones. Exits 1 when
// the run is incorrect, 2 on bad arguments, 3 when the stack cannot be set
// up.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "phase.h"
#include "workloads.h"

namespace ssebench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"goodput_ops_s", "1/s"},
    {"search_trimmed_mean_us", "us"},
    {"update_trimmed_mean_us", "us"},
    {"peak_rss_mb", "MB"},
    {"index_bytes_per_posting", "B"},
    {"wire_bytes_per_op", "B"},
};

constexpr MetricSpec kPerLayer[] = {
    {"core.client.search_self_us", "us"},
    {"core.client.update_self_us", "us"},
    {"net.search_self_us", "us"},
    {"net.update_self_us", "us"},
    {"net.dispatch_wait_p50_us", "us"},
    {"net.frames_per_op", "count"},
    {"net.shed_ops", "count"},
    {"core.durable.update_self_us", "us"},
    {"storage.fsync_p50_us", "us"},
    {"storage.wal_syncs_per_update", "count"},
    {"storage.wal_bytes_per_update", "B"},
    {"engine.search_us", "us"},
    {"engine.update_us", "us"},
    {"engine.lock_wait_p50_us", "us"},
    {"engine.doc_fetches_per_search", "count"},
    {"core.scheme2.walk_steps_per_search", "count"},
    {"core.scheme2.segments_decrypted_per_search", "count"},
    {"core.scheme3.walk_steps_per_search", "count"},
    {"core.scheme3.entries_decrypted_per_search", "count"},
    {"index.comparisons_per_search", "count"},
    {"crypto.sha256_ns", "ns"},
    {"crypto.hash_chain_step_ns", "ns"},
    {"crypto.prf_eval_ns", "ns"},
    {"crypto.stream_cipher_create_ns", "ns"},
    {"crypto.stream_cipher_decrypt_ns", "ns"},
    {"obs.trace_overhead_pct", "%"},
};

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

template <typename Map, typename Fn>
std::string Object(const Map& map, Fn value) {
  std::string out = "{";
  for (const auto& [k, v] : map) {
    if (out.size() > 1) out += ", ";
    out += Quote(k) + ": " + value(v);
  }
  return out + "}";
}

std::string Strings(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const std::string& s : items) {
    if (out.size() > 1) out += ", ";
    out += Quote(s);
  }
  return out + "]";
}

std::string Numbers(const std::vector<double>& items) {
  std::string out = "[";
  for (double v : items) {
    if (out.size() > 1) out += ", ";
    out += Number(v);
  }
  return out + "]";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "ssebench: %s\nusage: ssebench --workload <s2_zipf_tcp|"
               "s2_ingest|s3_hot_churn> --seed <n> --seconds <s> --trace "
               "<0|1> --work-dir <dir> [--corrupt-one-reply] [--commit <id>]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions options;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--corrupt-one-reply") {
      options.corrupt = true;
    } else if (!has_value) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--work-dir") {
      options.work_dir = argv[++i];
    } else if (arg == "--commit") {
      commit = argv[++i];
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.work_dir.empty()) return Usage("--work-dir is required");
  if (options.seconds <= 0 || options.seconds > 120) {
    return Usage("--seconds must be in (0, 120]");
  }
  RunReport (*run)(const RunOptions&) = nullptr;
  if (options.workload == "s2_zipf_tcp") {
    run = RunS2ZipfTcp;
  } else if (options.workload == "s2_ingest") {
    run = RunS2Ingest;
  } else if (options.workload == "s3_hot_churn") {
    run = RunS3HotChurn;
  } else {
    return Usage("unknown workload");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);

  // Fixed crypto loops before and after the run; the pair also shows the
  // host's speed while the run was measured.
  const std::map<std::string, double> crypto_before = TimeCryptoPrimitives();
  RunReport report = run(options);
  const std::map<std::string, double> crypto_after = TimeCryptoPrimitives();
  for (const auto& [name, before] : crypto_before) {
    report.layer[name] = (before + crypto_after.at(name)) / 2;
  }

  const bool correct = report.failed == 0 && report.check_errors.empty() &&
                       report.attempted > 0;
  std::map<std::string, double> e2e;
  e2e["setup_s"] = Median(report.setup_s);
  e2e["goodput_ops_s"] = Median(report.slice_goodput);
  e2e["search_trimmed_mean_us"] = Median(report.slice_search_us);
  e2e["update_trimmed_mean_us"] = Median(report.slice_update_us);
  e2e["peak_rss_mb"] =
      report.peak_rss_mb > 0 ? report.peak_rss_mb : PeakRssMb();
  e2e["index_bytes_per_posting"] = report.index_bytes_per_posting;
  e2e["wire_bytes_per_op"] = report.wire_bytes_per_op;

  // Medians and tails with their sample counts: reported, not gated.
  std::map<std::string, double> latency = {
      {"search_p50_us", Median(report.search_us)},
      {"update_p50_us", Median(report.update_us)},
      {"search_p99_us", Quantile(report.search_us, 0.99)},
      {"search_samples", static_cast<double>(report.search_us.size())},
      {"update_p99_us", Quantile(report.update_us, 0.99)},
      {"update_samples", static_cast<double>(report.update_us.size())},
      {"timed_s", report.timed_s},
  };
  const auto num = [](double v) { return Number(v); };
  std::string meta = "{\"meta\": {";
  meta += "\"workload\": " + Quote(options.workload);
  meta += ", \"seed\": " + std::to_string(options.seed);
  meta += ", \"seconds\": " + Number(options.seconds);
  meta += ", \"trace\": " + std::string(options.trace ? "1" : "0");
  meta += ", \"online_cpus\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  meta += ", \"commit\": " + Quote(commit);
  meta += ", \"config\": " +
          Object(report.config, [](const std::string& v) { return Quote(v); });
  meta += ", \"phase_ops\": " +
          Object(report.phase_ops,
                 [](uint64_t v) { return std::to_string(v); });
  meta += ", \"setup_s_samples\": " + Numbers(report.setup_s);
  meta += ", \"setup_wall_s_samples\": " + Numbers(report.setup_wall_s);
  meta += ", \"host_adjusted_ops\": " +
          std::string(report.host_adjusted ? "true" : "false");
  meta += ", \"slice_goodput\": " + Numbers(report.slice_goodput);
  meta += ", \"slice_search_us\": " + Numbers(report.slice_search_us);
  meta += ", \"slice_update_us\": " + Numbers(report.slice_update_us);
  meta += ", \"crypto_before\": " + Object(crypto_before, num);
  meta += ", \"crypto_after\": " + Object(crypto_after, num);
  meta += ", \"end_to_end\": " + Object(e2e, num);
  meta += ", \"latency\": " + Object(latency, num);
  meta += ", \"exact\": " + Object(report.exact, num);
  meta += ", \"layer\": " + Object(report.layer, num);
  meta += ", \"info\": " + Object(report.info, num);
  meta += ", \"failed_ops\": " + Strings(report.errors);
  meta += ", \"failed_checks\": " + Strings(report.check_errors);
  meta += "}}";
  std::printf("%s\n", meta.c_str());

  std::string metrics = "{";
  auto add = [&](const MetricSpec& spec, double value) {
    if (metrics.size() > 1) metrics += ", ";
    metrics += Quote(spec.name) + ": {\"value\": " + Number(value) +
               ", \"unit\": " + Quote(spec.unit) + "}";
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) add(spec, report.layer[spec.name]);
  } else {
    for (const MetricSpec& spec : kEndToEnd) add(spec, e2e[spec.name]);
  }
  metrics += "}";
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ssebench

int main(int argc, char** argv) { return ssebench::Main(argc, argv); }
