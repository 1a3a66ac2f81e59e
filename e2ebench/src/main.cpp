// End-to-end benchmark: builds one workload's graph from a seed,
// repeats the workload's operations through the library's public facades
// for a fixed budget of operation time, validates every operation against
// the serial oracles, gates on determinism, and prints one JSON line of
// metrics as the last line of standard output.
//
//   e2ebench --workload graph500-bfs --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans around
// every public call, prints the per-layer metrics instead, and (with
// --trace-out FILE) writes the spans as Chrome trace-event JSON with the
// modeled cluster clock as a second track.  Exit status: 0 on success, 1
// when an output fails its oracle or a repetition is not bit-identical, 2
// on bad arguments or a cluster shape wider than the host.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "digest.hpp"
#include "graph/distributor.hpp"
#include "trace.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace {

using namespace e2ebench;

/// Setup repetitions per run; setup_s is their median.  Small graphs set
/// up in well under a second, where host noise is relatively larger, so
/// setup repeats until it has taken kSetupMinMs in total, within the
/// [kSetupMinReps, kSetupMaxReps] range.
constexpr int kSetupMinReps = 3;
constexpr int kSetupMaxReps = 9;
constexpr double kSetupMinMs = 4000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: e2ebench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\nworkloads:",
               error.c_str());
  for (const WorkloadConfig& c : workload_configs()) {
    std::fprintf(stderr, " %s", c.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

/// CPUs this process may run on (what `nproc` prints).
int host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

/// Peak resident set size (VmHWM) in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

/// p in [0, 100]; 0 for an empty input.
double percentile(std::vector<double> values, double p) {
  return values.empty() ? 0 : dsbfs::util::percentile(std::move(values), p);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50);
}

/// One timed facade call of the measurement window.
struct Sample {
  double host_ms = 0;
  double host_cpu_ms = 0;
  double replay_ms = 0;
  double teps_edges = 0;
  double queries = 0;
  bool traced = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string format_number(double v) {
  if (!std::isfinite(v)) v = 0;  // JSON has no NaN: a metric with no samples
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, double attempted, double failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + format_number(attempted);
  line += ", \"failed\": " + format_number(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            format_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// Everything the run shares between its phases.
struct RunContext {
  const Args& args;
  const WorkloadConfig& config;
  dsbfs::sim::ClusterSpec spec;
  int cpus = 0;
  Tracer tracer;
  std::uint64_t next_op = 0;
  std::vector<std::string> gate_failures;
};

struct SetupPhase {
  std::optional<Built> built;
  std::vector<SetupTiming> timings;
  // Traced runs only, one entry per setup: distribute_edges alone, and
  // build_distributed minus it (degrees, delegates, local CSR builds).
  std::vector<double> distribute_ms;
  std::vector<double> local_build_ms;

  double median_of(double SetupTiming::*field) const {
    std::vector<double> v;
    for (const SetupTiming& t : timings) v.push_back(t.*field);
    return median(std::move(v));
  }
};

/// Seed -> ready DistributedGraph, several times; every repetition must
/// build the identical graph.
SetupPhase run_setup(RunContext& ctx) {
  SetupPhase out;
  std::uint64_t first_graph = 0;
  double total_ms = 0;
  for (int r = 0;
       r < kSetupMaxReps && (r < kSetupMinReps || total_ms < kSetupMinMs);
       ++r) {
    out.built.reset();  // free the previous graph before building the next
    SetupTiming timing;
    const std::uint64_t op = ctx.next_op++;
    out.built.emplace(
        build_graph(ctx.config, ctx.args.seed, ctx.tracer, op, timing));
    out.timings.push_back(timing);
    total_ms += timing.total_ms;
    const std::uint64_t digest = graph_digest(out.built->graph);
    if (r == 0) {
      first_graph = digest;
    } else if (digest != first_graph) {
      ctx.gate_failures.push_back("setup " + std::to_string(r) +
                                  " built a different DistributedGraph");
    }
    if (ctx.args.trace) {
      // build_distributed calls distribute_edges internally; the traced run
      // calls it once more on the same inputs to split the build span.
      const Built& b = *out.built;
      Tracer::Span span = ctx.tracer.open("graph.distribute", op);
      const dsbfs::graph::DistributedEdges edges =
          dsbfs::graph::distribute_edges(b.edges, b.graph.degrees(),
                                         b.graph.delegates(), ctx.spec);
      const double ms = span.stop();
      out.distribute_ms.push_back(ms);
      out.local_build_ms.push_back(timing.build_ms - ms);
    }
  }
  return out;
}

struct Window {
  std::vector<OpOutcome> first;  // pass 0, one per operation
  std::vector<Sample> samples;   // every call
  double facade_ms = 0;
  double attempted = 0;
  double failed = 0;
  double peak_rss_mb = 0;
};

/// Pass 0 runs every operation once and validates it against its oracle;
/// later passes repeat the set until the facade calls have taken
/// `--seconds` in total, and each repetition must reproduce pass 0's
/// outputs, counters and modeled breakdown bit for bit.
Window run_window(RunContext& ctx, Workload& workload) {
  Window w;
  const double budget_ms = ctx.args.seconds * 1e3;
  for (int pass = 0; pass == 0 || w.facade_ms < budget_ms; ++pass) {
    // A traced run alternates traced and untraced passes so the tracing
    // overhead is measured inside one run.
    const bool traced = ctx.args.trace && pass % 2 == 0;
    ctx.tracer.set_paused(ctx.args.trace && !traced);
    for (std::size_t i = 0; i < workload.num_ops(); ++i) {
      if (pass > 0 && w.facade_ms >= budget_ms) break;
      OpOutcome o = workload.run_op(i, ctx.tracer, ctx.next_op++, pass == 0);
      // Peak memory of setup plus the first operation.  Later calls add
      // allocator retention from the calls before them, which varies from
      // run to run by up to a fifth.
      if (w.samples.empty()) w.peak_rss_mb = peak_rss_mb();
      w.facade_ms += o.host_ms;
      w.samples.push_back({o.host_ms, o.host_cpu_ms, o.replay_ms,
                           o.teps_edges, o.queries, traced});
      const std::string where =
          "op " + std::to_string(i) + " pass " + std::to_string(pass);
      if (!o.replay_matches) {
        ctx.gate_failures.push_back(where +
                                    ": PerfModel::replay of the returned "
                                    "counters differs from the facade's");
      }
      w.attempted += o.queries;
      if (pass == 0) {
        w.failed += o.failed;
        w.first.push_back(std::move(o));
        continue;
      }
      if (o.output_digest != w.first[i].output_digest) {
        w.failed += o.queries;
        ctx.gate_failures.push_back(where + ": outputs differ");
      }
      if (o.trace_digest != w.first[i].trace_digest) {
        ctx.gate_failures.push_back(
            where + ": counters or modeled breakdown differ");
      }
    }
  }
  ctx.tracer.set_paused(false);
  return w;
}

std::vector<Metric> end_to_end_metrics(const SetupPhase& setup,
                                       const Window& w) {
  // Host figures use process CPU time.  On a shared virtual machine the
  // wall clock also counts vCPU time the hypervisor steals, and one stolen
  // vCPU stalls every simulated GPU at the next barrier, so wall-clock
  // figures drift with the neighbours' load (see METRICS.md).  The wall
  // figures are reported per layer.
  std::vector<double> cpu_ms;
  double teps = 0, teps_cpu_ms = 0, queries = 0, total_cpu_ms = 0;
  for (const Sample& s : w.samples) {
    cpu_ms.push_back(s.host_cpu_ms);
    queries += s.queries;
    total_cpu_ms += s.host_cpu_ms;
    if (s.teps_edges > 0) {  // Graph500: discarded runs do not count
      teps += s.teps_edges;
      teps_cpu_ms += s.host_cpu_ms;
    }
  }
  std::vector<double> modeled_ms, latency_ms;
  dsbfs::util::Summary modeled_rate;
  double modeled_queries = 0, modeled_total_ms = 0;
  for (const OpOutcome& o : w.first) {
    modeled_ms.push_back(o.modeled_ms);
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    if (o.teps_edges > 0) modeled_rate.add(o.teps_edges / o.modeled_ms * 1e3);
    modeled_queries += o.queries;
    modeled_total_ms += o.modeled_ms;
  }
  const dsbfs::graph::DistributedGraph& graph = setup.built->graph;
  return {
      {"setup_s", setup.median_of(&SetupTiming::total_ms) / 1e3, "s"},
      {"peak_rss_mb", w.peak_rss_mb, "MB"},
      {"graph_bytes_per_edge",
       static_cast<double>(graph.total_subgraph_bytes()) /
           static_cast<double>(graph.num_edges()),
       "B/edge"},
      {"host_cpu_ms.p50", median(cpu_ms), "ms"},
      {"host_cpu_gteps", teps / teps_cpu_ms / 1e6, "GTEPS"},
      {"host_cpu_qps", queries / total_cpu_ms * 1e3, "1/s"},
      {"modeled_run_ms", median(modeled_ms), "ms"},
      {"modeled_gteps", modeled_rate.geomean() / 1e9, "GTEPS"},
      {"modeled_qps", modeled_queries / modeled_total_ms * 1e3, "1/s"},
      {"modeled_latency_ms.p50", percentile(latency_ms, 50), "ms"},
      {"modeled_latency_ms.p99", percentile(latency_ms, 99), "ms"},
  };
}

std::vector<Metric> per_layer_metrics(const RunContext& ctx,
                                      const SetupPhase& setup,
                                      const Window& w,
                                      const Workload& workload) {
  std::vector<double> traced_ms, untraced_ms, traced_cpu_ms, replay_ms;
  double teps = 0, teps_ms = 0, queries = 0;
  for (const Sample& s : w.samples) {
    (s.traced ? traced_ms : untraced_ms).push_back(s.host_ms);
    if (s.traced) traced_cpu_ms.push_back(s.host_cpu_ms);
    replay_ms.push_back(s.replay_ms);
    queries += s.queries;
    if (s.teps_edges > 0) {
      teps += s.teps_edges;
      teps_ms += s.host_ms;
    }
  }
  LayerCounts counts;
  double teps_edges = 0;
  std::vector<double> wait_ms, service_ms;
  for (const OpOutcome& o : w.first) {
    counts.add(o.counts);
    teps_edges += o.teps_edges;
    wait_ms.insert(wait_ms.end(), o.wait_ms.begin(), o.wait_ms.end());
    service_ms.insert(service_ms.end(), o.service_ms.begin(),
                      o.service_ms.end());
  }
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const dsbfs::graph::DistributedGraph& graph = setup.built->graph;
  const double build_ms = setup.median_of(&SetupTiming::build_ms);
  const double run_ms = median(traced_ms);
  const double replay = median(replay_ms);

  std::vector<Metric> m = {
      {"graph.generate_ms", setup.median_of(&SetupTiming::generate_ms), "ms"},
      {"graph.weights_ms", setup.median_of(&SetupTiming::weights_ms), "ms"},
      {"graph.threshold_sweep_ms", setup.median_of(&SetupTiming::sweep_ms),
       "ms"},
      {"graph.build_ms", build_ms, "ms"},
      {"graph.distribute_ms", median(setup.distribute_ms), "ms"},
      {"graph.local_build_ms", median(setup.local_build_ms), "ms"},
      {"graph.threshold", static_cast<double>(graph.threshold()), "count"},
      {"graph.delegates", static_cast<double>(graph.num_delegates()), "count"},
      {"graph.edges.nn", static_cast<double>(graph.enn()), "count"},
      {"graph.edges.nd", static_cast<double>(graph.end()), "count"},
      {"graph.edges.dn", static_cast<double>(graph.edn()), "count"},
      {"graph.edges.dd", static_cast<double>(graph.edd()), "count"},
      {"engine.run_ms", run_ms, "ms"},
      {"engine.self_ms", run_ms - replay, "ms"},
      {"engine.cpu_ms", median(traced_cpu_ms), "ms"},
      {"host.wall_gteps", teps_ms > 0 ? teps / teps_ms / 1e6 : 0, "GTEPS"},
      {"host.wall_qps", queries / w.facade_ms * 1e3, "1/s"},
      {"core.iterations", counts.iterations, "count"},
      {"core.edges_traversed", counts.edges_traversed, "count"},
      {"core.work_ratio", ratio(counts.edges_traversed, teps_edges), "ratio"},
      {"core.buckets_processed", counts.buckets_processed, "count"},
      {"core.light_relaxations", counts.light_relaxations, "count"},
      {"core.heavy_relaxations", counts.heavy_relaxations, "count"},
      {"comm.exchange_remote_bytes", counts.exchange_remote_bytes, "B"},
      {"comm.exchange_local_bytes", counts.exchange_local_bytes, "B"},
      {"comm.mask_reduce_bytes", counts.mask_reduce_bytes, "B"},
      {"comm.update_bytes_remote", counts.update_bytes_remote, "B"},
      {"comm.reduce_bytes", counts.reduce_bytes, "B"},
      {"comm.uniquify_ratio", ratio(counts.encode_bytes, counts.uniquify_bytes),
       "ratio"},
      {"comm.compressed_bin_share",
       ratio(counts.bins_compressed, counts.bins_compressed + counts.bins_raw),
       "ratio"},
      {"comm.encode_ratio", ratio(counts.wire_bytes, counts.encode_bytes),
       "ratio"},
      {"comm.retries", counts.retries, "count"},
      {"model.computation_ms", counts.computation_ms, "ms"},
      {"model.local_comm_ms", counts.local_comm_ms, "ms"},
      {"model.normal_exchange_ms", counts.normal_exchange_ms, "ms"},
      {"model.delegate_reduce_ms", counts.delegate_reduce_ms, "ms"},
      {"model.control_ms", counts.control_ms, "ms"},
  };
  // The multi-hop exchanges on this cluster shape use hop indices 0 (intra-
  // node gather), 1 (inter-node) and 2 (scatter); flat runs report zeros.
  counts.hops.resize(std::max<std::size_t>(counts.hops.size(), 3));
  for (std::size_t h = 0; h < counts.hops.size(); ++h) {
    const std::string hop = "model.hop" + std::to_string(h);
    m.push_back({hop + ".nic_ms", counts.hops[h].nic_ms, "ms"});
    m.push_back({hop + ".nvlink_ms", counts.hops[h].nvlink_ms, "ms"});
  }
  const std::vector<Metric> tail = {
      {"sim.replay_ms", replay, "ms"},
      {"serving.wait_ms.p50", percentile(wait_ms, 50), "ms"},
      {"serving.wait_ms.p99", percentile(wait_ms, 99), "ms"},
      {"serving.service_ms.p50", percentile(service_ms, 50), "ms"},
      {"serving.service_ms.p99", percentile(service_ms, 99), "ms"},
      {"serving.occupancy_ratio",
       counts.occupancy_ratio / static_cast<double>(w.first.size()), "ratio"},
      {"serving.recycled_share",
       ratio(counts.recycled_admissions, counts.admissions), "ratio"},
      {"serving.reseed_bytes", counts.reseed_bytes, "B"},
      {"validate.oracle_ms", workload.oracle_ms(), "ms"},
      {"validate.host_csr_ms", workload.host_csr_ms(), "ms"},
      {"validate.error_rate", ratio(w.failed, w.attempted), "ratio"},
      {"trace.overhead_ms",
       untraced_ms.empty() ? 0 : run_ms - median(untraced_ms), "ms"},
      {"trace.spans", static_cast<double>(ctx.tracer.records().size()),
       "count"},
      {"host.nproc", static_cast<double>(ctx.cpus), "count"},
      {"cluster.gpus", static_cast<double>(ctx.spec.total_gpus()), "count"},
  };
  m.insert(m.end(), tail.begin(), tail.end());
  return m;
}

/// Write the kept spans plus a modeled-clock track: pass 0's operations
/// back to back, each split at its ModeledBreakdown::iteration_end_ms.
void write_trace(RunContext& ctx, const Window& w) {
  double offset = 0;
  for (std::size_t i = 0; i < w.first.size(); ++i) {
    const OpOutcome& o = w.first[i];
    ctx.tracer.add_modeled(
        {"op " + std::to_string(i), offset, offset + o.modeled_ms, i});
    double prev = 0;
    for (std::size_t k = 0; k < o.iteration_end_ms.size(); ++k) {
      ctx.tracer.add_modeled({"iteration " + std::to_string(k), offset + prev,
                              offset + o.iteration_end_ms[k], i});
      prev = o.iteration_end_ms[k];
    }
    offset += o.modeled_ms;
  }
  const bool ok = ctx.tracer.write_chrome(
      ctx.args.trace_out,
      {{"workload", ctx.config.name},
       {"seed", std::to_string(ctx.args.seed)},
       {"cluster", kClusterShape},
       {"host_nproc", std::to_string(ctx.cpus)},
       {"simulated_gpus", std::to_string(ctx.spec.total_gpus())}});
  std::fprintf(stderr, "%s trace %s\n", ok ? "wrote" : "could not write",
               ctx.args.trace_out.c_str());
}

int run(const Args& args, const WorkloadConfig& config, int cpus) {
  RunContext ctx{.args = args,
                 .config = config,
                 .spec = dsbfs::sim::ClusterSpec::parse(kClusterShape),
                 .cpus = cpus,
                 .tracer = Tracer(args.trace),
                 .next_op = 0,
                 .gate_failures = {}};
  const SetupPhase setup = run_setup(ctx);
  const std::unique_ptr<Workload> workload =
      make_workload(config, *setup.built, args.seed, ctx.tracer);
  const Window w = run_window(ctx, *workload);

  const std::vector<Metric> metrics =
      args.trace ? per_layer_metrics(ctx, setup, w, *workload)
                 : end_to_end_metrics(setup, w);
  if (args.trace && !args.trace_out.empty()) write_trace(ctx, w);

  std::fprintf(stderr,
               "workload %s seed %llu: cluster %s (%d simulated GPUs, %d host "
               "CPUs), %zu ops, %zu calls in %.0f ms of facade time\n",
               config.name.c_str(), static_cast<unsigned long long>(args.seed),
               kClusterShape, ctx.spec.total_gpus(), cpus, workload->num_ops(),
               w.samples.size(), w.facade_ms);
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const std::string& f : ctx.gate_failures) {
    std::fprintf(stderr, "DETERMINISM GATE: %s\n", f.c_str());
  }
  if (w.failed > 0) {
    std::fprintf(stderr, "ORACLE: %.0f of %.0f operations failed validation\n",
                 w.failed, w.attempted);
  }
  const bool correct = w.failed == 0 && ctx.gate_failures.empty();
  print_result(correct, w.attempted, w.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadConfig* config = nullptr;
  for (const WorkloadConfig& c : workload_configs()) {
    if (c.name == args.workload) config = &c;
  }
  if (config == nullptr) usage("unknown workload " + args.workload);

  // Thread budget: every simulated GPU runs on its own host thread, so a
  // shape wider than the host would time the OS scheduler, not the code.
  const int cpus = host_cpus();
  const int gpus = dsbfs::sim::ClusterSpec::parse(kClusterShape).total_gpus();
  if (gpus > cpus) {
    std::fprintf(stderr,
                 "error: cluster %s needs %d simulated GPUs but only %d host "
                 "CPUs are available\n",
                 kClusterShape, gpus, cpus);
    return 2;
  }
  try {
    return run(args, *config, cpus);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
