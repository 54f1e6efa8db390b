// perfbench: the repository benchmark driver.
//
//   perfbench --workload <tenants_wide|narrow_chatty|fleet_poll>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints progress and host facts, then as its last line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Exits non-zero, after printing correct=false, when any
// self-verification fails.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "obs/trace.h"

namespace {

using perfbench::Args;
using perfbench::Metric;
using perfbench::Report;

/// The metrics each mode must report, in print order. BENCHMARK.json
/// lists the same names.
const char* const kEndToEnd[] = {
    "setup_s", "ship_kb_per_poll", "synopsis_kb", "peak_rss_mb",
};

const char* const kPerLayer[] = {
    "hash.ns_per_key",
    "stream.pack_ns",
    "core.observe_ns",
    "core.answer_us",
    "core.stderr_us",
    "core.fringe_fill",
    "core.delta_serialize_us.nips_ci",
    "core.delta_serialize_us.sliding",
    "core.delta_apply_us.nips_ci",
    "core.delta_apply_us.sliding",
    "query.where_ns",
    "query.apply_ns_per_tuple",
    "query.overhead_ratio",
    "query.answer_ex_us",
    "query.refold_ms",
    "query.live_synopses",
    "obs.wrap_ns",
    "obs.trace_overhead_frac",
    "cql.eval_us",
    "cql.evals",
    "util.seal_ns_per_kb",
    "net.decode_ns_per_tuple",
    "net.handle_us",
    "net.encode_us",
    "net.write_us",
    "net.queue_wait_us_p50.observe_batch",
    "net.queue_wait_us_p99.observe_batch",
    "net.queue_wait_us_p50.query",
    "net.queue_wait_us_p99.query",
    "net.apply_query_us",
    "net.wakeups_per_frame",
    "net.bytes_per_tuple",
    "net.frame_errors",
    "delta.wrap_us",
    "delta.unwrap_us",
    "delta.rle_ratio",
    "delta.resyncs",
    "unexplained_frac",
    "loadgen.late_p99_us",
    "loadgen.busy_frac",
    "answer_rel_err",
    "ingest_mtps",
    "cpu_ns_per_tuple",
    "poll_ms_p50",
    "query_p50_us",
    "query_p99_us",
    "poll_ms_p90",
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<tenants_wide|narrow_chatty|fleet_poll> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0)) Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  // End-to-end numbers come from untraced runs; the traced run switches
  // sampling on only around the part it traces.
  implistat::obs::Tracer::SetSampleEveryN(0);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("host %s\n", perfbench::HostFacts().c_str());
  std::fflush(stdout);

  Report report;
  if (args.workload == "tenants_wide") {
    report = perfbench::RunTenantsWide(args);
  } else if (args.workload == "narrow_chatty") {
    report = perfbench::RunNarrowChatty(args);
  } else if (args.workload == "fleet_poll") {
    report = perfbench::RunFleetPoll(args);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }

  std::vector<Metric> selected;
  auto pick = [&](const char* name) {
    for (const Metric& metric : report.metrics) {
      if (metric.name == name) {
        if (!std::isfinite(metric.value)) {
          report.Fail(std::string("metric ") + name + " is not finite");
        }
        selected.push_back(metric);
        return;
      }
    }
    report.Fail(std::string("metric ") + name + " was not measured");
  };
  if (report.correct) {
    if (args.trace) {
      for (const char* name : kPerLayer) pick(name);
    } else {
      for (const char* name : kEndToEnd) pick(name);
    }
  }
  // Every measured row as text; the JSON line carries the mode's rows.
  for (const Metric& metric : report.metrics) {
    std::printf("%-40s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  if (!report.correct) {
    std::printf("VERIFY FAILED: %s\n", report.error.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < selected.size() && report.correct; ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", selected[i].name.c_str(),
                selected[i].value, selected[i].unit.c_str());
  }
  std::printf("}}\n");
  return report.correct ? 0 : 1;
}
