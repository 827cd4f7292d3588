#include "cli_commands.h"

#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>

#include "backend/backend.h"
#include "boinc/simulation.h"
#include "churn/block_envelope.h"
#include "core/fit_pipeline.h"
#include "core/host_generator.h"
#include "core/prediction.h"
#include "core/validation.h"
#include "engine/checkpoint.h"
#include "engine/service_engine.h"
#include "model/factory.h"
#include "sim/bag_of_tasks.h"
#include "sim/baseline_models.h"
#include "store/adapters.h"
#include "store/snapshot.h"
#include "synth/population.h"
#include "trace/csv_io.h"
#include "util/checksum.h"
#include "util/csv.h"
#include "util/table.h"

namespace resmodel::cli {

namespace {

/// Digits-only u64 in [0, max]. std::stoull alone would wrap a negative
/// string ("-3") around to a huge accepted value; `max` rejects what the
/// caller's narrower field would wrap.
std::uint64_t parse_u64(
    const std::string& value, const char* what,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  const std::string bad = std::string("bad ") + what + ": '" + value + "'";
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument(bad);
  }
  std::uint64_t v = 0;
  try {
    v = std::stoull(value);
  } catch (const std::out_of_range&) {
    throw std::invalid_argument(bad);
  }
  if (v > max) {
    throw std::invalid_argument(bad + " (expected at most " +
                                std::to_string(max) + ")");
  }
  return v;
}

/// parse_u64 that also rejects 0.
std::size_t parse_count(
    const std::string& s, const char* what,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  const std::uint64_t v = parse_u64(s, what, max);
  if (v == 0) {
    throw std::invalid_argument(std::string("bad ") + what + ": '" + s +
                                "' (expected a positive count)");
  }
  return static_cast<std::size_t>(v);
}

/// Flags shared by the host-synthesis commands. Everything that is not a
/// recognized --flag stays positional.
struct SynthesisOptions {
  model::CorrelationKind correlation = model::CorrelationKind::kCholesky;
  std::string fit_trace_path;  ///< --trace=, only used by --correlation=empirical
  std::vector<std::string> positional;
};

SynthesisOptions parse_synthesis_options(
    const std::vector<std::string>& args) {
  SynthesisOptions opts;
  for (const std::string& arg : args) {
    if (arg.starts_with("--correlation=")) {
      const std::string value = arg.substr(14);
      const auto kind = model::parse_correlation_kind(value);
      if (!kind) {
        throw std::invalid_argument(
            "bad --correlation: '" + value + "' (expected " +
            model::correlation_kind_names() + ")");
      }
      opts.correlation = *kind;
    } else if (arg.starts_with("--trace=")) {
      opts.fit_trace_path = arg.substr(8);
    } else if (arg.starts_with("--")) {
      throw std::invalid_argument("unknown flag: '" + arg + "'");
    } else {
      opts.positional.push_back(arg);
    }
  }
  return opts;
}

/// Builds the generator for the chosen dependence structure. The empirical
/// model is fitted from `fit_trace` (already plausibility-filtered) over
/// snapshots spanning the trace's own window, so generating for dates
/// outside the trace — the extrapolation case — works.
core::HostGenerator make_generator(const core::ModelParams& params,
                                   const SynthesisOptions& opts,
                                   const trace::TraceStore* fit_trace) {
  return core::HostGenerator(
      params, model::make_correlation_model(opts.correlation,
                                            params.resource_correlation,
                                            fit_trace));
}

core::ModelParams load_model(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open model file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return core::ModelParams::deserialize(buffer.str());
}

void save_model(const core::ModelParams& params, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write model file: " + path);
  out << params.serialize();
}

void write_generated_csv(const core::GeneratedHostBatch& hosts,
                         const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write hosts file: " + path);
  out << "cores,memory_mb,whetstone_mips,dhrystone_mips,disk_avail_gb\n";
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    out << hosts.n_cores[i] << ',' << hosts.memory_mb[i] << ','
        << hosts.whetstone_mips[i] << ',' << hosts.dhrystone_mips[i] << ','
        << hosts.disk_avail_gb[i] << '\n';
  }
}

}  // namespace

std::string usage_text() {
  return "resmodel — correlated Internet end-host resource models "
         "(ICDCS'11 reproduction)\n"
         "usage:\n"
         "  resmodel synth    <out.csv> [active] [seed]\n"
         "  resmodel collect  <out.csv> [active] [seed]\n"
         "  resmodel fit      <trace.csv> <model.txt>\n"
         "  resmodel generate <model.txt> <YYYY-MM-DD> <count> <out.csv>\n"
         "                    [--correlation=cholesky|independent|empirical]\n"
         "                    [--trace=<trace.csv>]   (fit data for empirical)\n"
         "  resmodel predict  <model.txt> <year>\n"
         "  resmodel validate <model.txt> <trace.csv> <YYYY-MM-DD>\n"
         "                    [--correlation=cholesky|independent|empirical]\n"
         "                    [--trace=<fit.csv>]  (empirical fit source;\n"
         "                     defaults to the trace being validated)\n"
         "  resmodel sweep    <model.txt> <YYYY-MM-DD> <hosts> "
         "[tasks[,tasks...]]\n"
         "                    [--policies=rr,sw,pull,ect] [--threads=N]\n"
         "                    [--seed=N] [--availability] [--churn]\n"
         "                    [--interrupt=checkpoint,restart,abandon]\n"
         "                    [--churn-levels=N]   (churn ECT lookahead\n"
         "                     depth, 1.." +
         std::to_string(churn::kMaxLookaheadLevels) +
         "; implies --churn)\n"
         "                    [--avail-coupling=rho]   (rank-couples\n"
         "                     availability to host speed, rho in [-1,1])\n"
         "                    [--backend=" +
         backend::backend_names() +
         "]   (kernel arm for\n"
         "                     the dynamic policies; results are\n"
         "                     bit-identical across arms)\n"
         "                    [--replication=k/n]   (issue n replicas per\n"
         "                     task, validate on a k-of-n digest quorum)\n"
         "                    [--deadline-days=D] [--backoff=B] "
         "[--retries=N]\n"
         "                     (re-issue rounds: round r's window is\n"
         "                     D*B^r days, at most N re-issues)\n"
         "                    [--fault-mix=crash:p,straggler:p,corrupt:p]\n"
         "                     (per-host fault injection fractions)\n"
         "  resmodel serve    --clients=N --days=D [--shards=S]\n"
         "                    [--threads=T] [--seed=N] [--batch=N]\n"
         "                    [--mean-contact-days=D] [--availability]\n"
         "                    [--fault-mix=crash:p,straggler:p,corrupt:p]\n"
         "                    [--replication=k/n] [--deadline-days=D]\n"
         "                    (sharded virtual-time service engine over an\n"
         "                     N-client cohort; counters are deterministic\n"
         "                     and shard/thread-invariant — only the final\n"
         "                     'timing:' line varies between runs)\n"
         "                    [--checkpoint=PATH] "
         "[--checkpoint-every-days=D]\n"
         "                     (atomically publish the complete resumable\n"
         "                     engine state every D virtual days)\n"
         "                    [--stop-after-day=N]   (halt cleanly after\n"
         "                     day N's barrier — deterministic kill)\n"
         "                    [--checkpoint-fault="
         "enospc|eio|crash-byte|crash-commit[:BYTE]@EPOCH]\n"
         "                     (inject a store fault into the EPOCH'th\n"
         "                     checkpoint write; the previous published\n"
         "                     checkpoint survives untouched)\n"
         "  resmodel serve    --resume=PATH [--threads=T]\n"
         "                    [--checkpoint=PATH] [...]\n"
         "                    (continue a checkpointed run bit-identically\n"
         "                     to one never interrupted; population-shape\n"
         "                     flags conflict — config comes from the\n"
         "                     checkpoint's run header)\n"
         "  resmodel backends    print CPU SIMD features and what each\n"
         "                       requested backend resolves to\n"
         "  resmodel pack     <in.csv> <out.snap> [--shard=N]\n"
         "                    (trace or population csv, auto-detected, ->\n"
         "                     checksummed columnar snapshot)\n"
         "  resmodel pack     --generate <model.txt> <YYYY-MM-DD> <count>\n"
         "                    <out.snap> [--shard=N] [--seed=N]\n"
         "                    (synthesize straight to a sharded snapshot;\n"
         "                     bounded memory at any count)\n"
         "  resmodel unpack   <in.snap> [out.csv] [--digest-only] "
         "[--recover]\n"
         "                    (--digest-only: checksum walk + digest lines\n"
         "                     only; --recover: load what is intact,\n"
         "                     zero-fill and itemize damaged blocks)\n"
         "  resmodel verify   <in.snap> [--digests]\n"
         "                    (exit 0 = every block intact; damage is\n"
         "                     listed block by block)\n";
}

int cmd_backends(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err) {
  if (!args.empty()) {
    err << "backends: expected no arguments\n";
    return kUsage;
  }
  // cpu_feature_string reflects effective_cpu(), i.e. detection AFTER the
  // RESMODEL_SIMD cap — what dispatch actually sees, not raw CPUID.
  out << "cpu features: " << backend::cpu_feature_string()
      << " (RESMODEL_SIMD=off|avx2|avx512|native caps detection)\n";
  out << "crc32c: " << util::crc32c_arm()
      << " (snapshot and checkpoint checksum arm)\n";
  util::Table table({"Requested", "Resolves to"});
  for (const backend::Backend b :
       {backend::Backend::kAuto, backend::Backend::kScalar,
        backend::Backend::kBlocked, backend::Backend::kSimd}) {
    const backend::ResolvedBackend rb = backend::resolve(b);
    std::string resolved = backend::to_string(rb.arm);
    if (rb.arm == backend::Backend::kSimd) {
      resolved += " (" + backend::to_string(rb.simd) + ")";
    }
    table.add_row({backend::to_string(b), std::move(resolved)});
  }
  table.print(out);
  return kOk;
}

int cmd_synth(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  if (args.empty() || args.size() > 3) {
    err << "synth: expected <out.csv> [active] [seed]\n";
    return kUsage;
  }
  synth::PopulationConfig config;
  config.target_active_hosts = 4000;
  if (args.size() > 1) config.target_active_hosts = parse_count(args[1], "active");
  if (args.size() > 2) config.seed = parse_count(args[2], "seed");
  const trace::TraceStore store = synth::generate_population(config);
  trace::write_csv_file(store, args[0]);
  out << "wrote " << store.size() << " host records to " << args[0] << '\n';
  return kOk;
}

int cmd_collect(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  if (args.empty() || args.size() > 3) {
    err << "collect: expected <out.csv> [active] [seed]\n";
    return kUsage;
  }
  boinc::CollectionConfig config;
  config.population.target_active_hosts = 1000;
  if (args.size() > 1) {
    config.population.target_active_hosts = parse_count(args[1], "active");
  }
  if (args.size() > 2) config.population.seed = parse_count(args[2], "seed");
  config.allocate_final_utility = true;
  const boinc::CollectionResult result = boinc::run_collection(config);
  trace::write_csv_file(result.trace, args[0]);
  out << "collected " << result.trace.size() << " host records over "
      << result.total_contacts << " scheduler contacts; wrote " << args[0]
      << '\n';
  const auto apps = sim::paper_applications();
  if (result.final_allocation_hosts > 0) {
    out << "final-day utility allocation over "
        << result.final_allocation_hosts << " hosts:";
    for (std::size_t a = 0; a < apps.size(); ++a) {
      out << ' ' << apps[a].name << '='
          << result.final_allocation.hosts_assigned[a];
    }
    out << '\n';
  }
  return kOk;
}

int cmd_fit(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  if (args.size() != 2) {
    err << "fit: expected <trace.csv> <model.txt>\n";
    return kUsage;
  }
  const trace::TraceStore store = trace::read_csv_file(args[0]);
  const core::FitReport report = core::fit_model(store);
  save_model(report.params, args[1]);
  out << "fitted " << report.fitted_hosts << " hosts ("
      << report.discarded_hosts << " discarded by the plausibility rules)\n"
      << "1:2 core ratio law: a = " << report.core_ratios[0].law.a
      << ", b = " << report.core_ratios[0].law.b << '\n'
      << "model written to " << args[1] << '\n';
  return kOk;
}

int cmd_generate(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err) {
  const SynthesisOptions opts = parse_synthesis_options(args);
  if (opts.positional.size() != 4) {
    err << "generate: expected <model.txt> <YYYY-MM-DD> <count> <out.csv> "
           "[--correlation=" << model::correlation_kind_names()
        << "] [--trace=<trace.csv>]\n";
    return kUsage;
  }
  const core::ModelParams params = load_model(opts.positional[0]);
  const util::ModelDate date = util::ModelDate::parse(opts.positional[1]);
  const std::size_t count = parse_count(opts.positional[2], "count");

  trace::TraceStore fit_trace;
  const trace::TraceStore* fit_ptr = nullptr;
  if (opts.correlation == model::CorrelationKind::kEmpirical) {
    if (opts.fit_trace_path.empty()) {
      err << "generate: --correlation=empirical needs --trace=<trace.csv> "
             "to fit from\n";
      return kUsage;
    }
    fit_trace = trace::read_csv_file(opts.fit_trace_path);
    fit_trace.discard_implausible();
    fit_ptr = &fit_trace;
  } else if (!opts.fit_trace_path.empty()) {
    err << "generate: --trace only applies to --correlation=empirical\n";
    return kUsage;
  }
  const core::HostGenerator generator =
      make_generator(params, opts, fit_ptr);
  util::Rng rng(0x7e57ab1e);
  const core::GeneratedHostBatch hosts =
      generator.generate_batch(date, count, rng);
  write_generated_csv(hosts, opts.positional[3]);
  out << "generated " << hosts.size() << " hosts ("
      << generator.correlation().name() << " correlation) for "
      << date.to_string() << " -> " << opts.positional[3] << '\n';
  return kOk;
}

int cmd_predict(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  if (args.size() != 2) {
    err << "predict: expected <model.txt> <year>\n";
    return kUsage;
  }
  const core::ModelParams params = load_model(args[0]);
  const double year = std::stod(args[1]);
  const double t = year - 2006.0;

  util::Table table({"Quantity", "Prediction"});
  table.add_row({"Mean cores",
                 util::Table::num(core::predicted_mean_cores(params, t), 2)});
  table.add_row(
      {"Mean memory (GB)",
       util::Table::num(core::predicted_mean_memory_mb(params, t) / 1024.0,
                        2)});
  const auto dhry = core::predicted_dhrystone(params, t);
  const auto whet = core::predicted_whetstone(params, t);
  const auto disk = core::predicted_disk_gb(params, t);
  table.add_row({"Dhrystone MIPS (mean ± sd)",
                 util::Table::num(dhry.mean, 0) + " ± " +
                     util::Table::num(dhry.stddev, 0)});
  table.add_row({"Whetstone MIPS (mean ± sd)",
                 util::Table::num(whet.mean, 0) + " ± " +
                     util::Table::num(whet.stddev, 0)});
  table.add_row({"Avail disk GB (mean ± sd)",
                 util::Table::num(disk.mean, 1) + " ± " +
                     util::Table::num(disk.stddev, 1)});
  const auto fractions = core::predicted_core_fractions(params, {t});
  for (std::size_t v = 0; v < params.cores.values.size(); ++v) {
    table.add_row(
        {std::to_string(static_cast<int>(params.cores.values[v])) +
             "-core share",
         util::Table::pct(fractions[v][0])});
  }
  out << "Predicted composition for " << year << ":\n";
  table.print(out);
  return kOk;
}

int cmd_validate(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err) {
  const SynthesisOptions opts = parse_synthesis_options(args);
  if (opts.positional.size() != 3) {
    err << "validate: expected <model.txt> <trace.csv> <YYYY-MM-DD> "
           "[--correlation=" << model::correlation_kind_names() << "]\n";
    return kUsage;
  }
  const core::ModelParams params = load_model(opts.positional[0]);
  trace::TraceStore store = trace::read_csv_file(opts.positional[1]);
  store.discard_implausible();
  const util::ModelDate date = util::ModelDate::parse(opts.positional[2]);
  const trace::ResourceSnapshot actual = store.snapshot(date);
  if (actual.size() == 0) {
    err << "validate: no active hosts at " << date.to_string() << '\n';
    return kFailure;
  }
  // The empirical copula refits from the trace being validated unless an
  // explicit --trace= gives a separate (out-of-sample) fit source.
  trace::TraceStore separate_fit;
  const trace::TraceStore* fit_ptr = &store;
  if (!opts.fit_trace_path.empty()) {
    if (opts.correlation != model::CorrelationKind::kEmpirical) {
      err << "validate: --trace only applies to --correlation=empirical\n";
      return kUsage;
    }
    separate_fit = trace::read_csv_file(opts.fit_trace_path);
    separate_fit.discard_implausible();
    fit_ptr = &separate_fit;
  }
  const core::HostGenerator generator =
      make_generator(params, opts, fit_ptr);
  util::Rng rng(1);
  const core::GeneratedHostBatch generated =
      generator.generate_batch(date, actual.size(), rng);
  util::Table table(
      {"Resource", "mu actual", "mu gen", "mu diff", "sd diff", "KS"});
  for (const core::ResourceComparison& c :
       core::compare_resources(actual, generated)) {
    table.add_row({c.name, util::Table::num(c.mean_actual, 1),
                   util::Table::num(c.mean_generated, 1),
                   util::Table::pct(c.mean_diff_fraction),
                   util::Table::pct(c.stddev_diff_fraction),
                   util::Table::num(c.ks_statistic, 3)});
  }
  out << "Generated-vs-actual at " << date.to_string() << " ("
      << actual.size() << " hosts):\n";
  table.print(out);
  return kOk;
}

namespace {

/// "rr,sw,pull,ect" -> policy list (order preserved, duplicates allowed).
std::vector<sim::SchedulingPolicy> parse_policies(const std::string& spec) {
  std::vector<sim::SchedulingPolicy> policies;
  std::stringstream ss(spec);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (token == "rr") {
      policies.push_back(sim::SchedulingPolicy::kStaticRoundRobin);
    } else if (token == "sw") {
      policies.push_back(sim::SchedulingPolicy::kStaticSpeedWeighted);
    } else if (token == "pull") {
      policies.push_back(sim::SchedulingPolicy::kDynamicPull);
    } else if (token == "ect") {
      policies.push_back(sim::SchedulingPolicy::kDynamicEct);
    } else {
      throw std::invalid_argument("bad policy '" + token +
                                  "' (expected rr|sw|pull|ect)");
    }
  }
  if (policies.empty()) {
    throw std::invalid_argument("empty --policies list");
  }
  return policies;
}

std::vector<std::size_t> parse_task_counts(const std::string& spec) {
  std::vector<std::size_t> counts;
  std::stringstream ss(spec);
  std::string token;
  while (std::getline(ss, token, ',')) {
    counts.push_back(parse_count(token, "task count"));
  }
  if (counts.empty()) {
    throw std::invalid_argument("empty task-count list");
  }
  return counts;
}

/// "checkpoint,restart,abandon" -> churn policy list (order preserved).
std::vector<sim::SchedulingPolicy> parse_interruptions(
    const std::string& spec) {
  std::vector<sim::SchedulingPolicy> policies;
  std::stringstream ss(spec);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (token == "checkpoint") {
      policies.push_back(sim::SchedulingPolicy::kChurnEctCheckpoint);
    } else if (token == "restart") {
      policies.push_back(sim::SchedulingPolicy::kChurnEctRestart);
    } else if (token == "abandon") {
      policies.push_back(sim::SchedulingPolicy::kChurnEctAbandon);
    } else {
      throw std::invalid_argument(
          "bad interruption policy '" + token +
          "' (expected checkpoint|restart|abandon)");
    }
  }
  if (policies.empty()) {
    throw std::invalid_argument("empty --interrupt list");
  }
  return policies;
}

/// The whole of `value` as a double, or nullopt when it is not one —
/// non-numeric, trailing garbage, or out of double range (std::stod's
/// own invalid_argument/out_of_range carry no flag name, only "stod").
std::optional<double> parse_double(const std::string& value) {
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(value, &pos);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
  if (pos != value.size()) return std::nullopt;
  return v;
}

double parse_rho(const std::string& value) {
  const std::optional<double> rho = parse_double(value);
  if (!rho || !(*rho >= -1.0 && *rho <= 1.0)) {
    throw std::invalid_argument("bad --avail-coupling: '" + value +
                                "' (expected rho in [-1, 1])");
  }
  return *rho;
}

double parse_positive_double(const std::string& value, const char* what) {
  const std::optional<double> v = parse_double(value);
  if (!v || !(*v > 0.0)) {
    throw std::invalid_argument(std::string("bad ") + what + ": '" + value +
                                "' (expected a positive number)");
  }
  return *v;
}

/// "k/n" -> quorum k of n replicas (e.g. --replication=2/3).
void parse_replication(const std::string& spec, sim::ReplicationConfig& rep) {
  const std::size_t slash = spec.find('/');
  if (slash == std::string::npos) {
    throw std::invalid_argument("bad --replication: '" + spec +
                                "' (expected k/n, e.g. 2/3)");
  }
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  rep.quorum = static_cast<std::uint32_t>(
      parse_count(spec.substr(0, slash), "replication quorum", kMax));
  rep.replicas = static_cast<std::uint32_t>(
      parse_count(spec.substr(slash + 1), "replication count", kMax));
  rep.enabled = true;
}

/// "crash:0.05,straggler:0.03,corrupt:0.02" — any subset, any order.
sim::FaultMixConfig parse_fault_mix(const std::string& spec) {
  sim::FaultMixConfig mix;
  std::stringstream ss(spec);
  std::string token;
  while (std::getline(ss, token, ',')) {
    const std::size_t colon = token.find(':');
    if (colon == std::string::npos) {
      throw std::invalid_argument(
          "bad --fault-mix entry '" + token +
          "' (expected kind:fraction, kind in crash|straggler|corrupt)");
    }
    const std::string kind = token.substr(0, colon);
    const double fraction = parse_positive_double(token.substr(colon + 1),
                                                  "--fault-mix fraction");
    if (kind == "crash") {
      mix.crash_fraction = fraction;
    } else if (kind == "straggler") {
      mix.straggler_fraction = fraction;
    } else if (kind == "corrupt") {
      mix.corrupter_fraction = fraction;
    } else {
      throw std::invalid_argument("bad --fault-mix kind '" + kind +
                                  "' (expected crash|straggler|corrupt)");
    }
  }
  mix.validate();
  return mix;
}

}  // namespace

int cmd_sweep(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  sim::PolicySweepConfig sweep;
  sweep.policies = {
      sim::SchedulingPolicy::kStaticRoundRobin,
      sim::SchedulingPolicy::kStaticSpeedWeighted,
      sim::SchedulingPolicy::kDynamicPull,
      sim::SchedulingPolicy::kDynamicEct,
  };
  sweep.task_counts = {10000};
  bool churn = false;
  bool policies_explicit = false;
  // Default churn policy set when --churn is given without --interrupt.
  std::vector<sim::SchedulingPolicy> churn_policies = {
      sim::SchedulingPolicy::kChurnEctCheckpoint,
      sim::SchedulingPolicy::kChurnEctRestart,
      sim::SchedulingPolicy::kChurnEctAbandon,
  };
  std::vector<std::string> positional;
  for (const std::string& arg : args) {
    if (arg.starts_with("--policies=")) {
      sweep.policies = parse_policies(arg.substr(11));
      policies_explicit = true;
    } else if (arg.starts_with("--replication=")) {
      parse_replication(arg.substr(14), sweep.base.replication);
    } else if (arg.starts_with("--deadline-days=")) {
      sweep.base.replication.deadline_days =
          parse_positive_double(arg.substr(16), "--deadline-days");
      sweep.base.replication.enabled = true;
    } else if (arg.starts_with("--backoff=")) {
      sweep.base.replication.backoff =
          parse_positive_double(arg.substr(10), "--backoff");
      sweep.base.replication.enabled = true;
    } else if (arg.starts_with("--retries=")) {
      // 0 is legitimate (no re-issue).
      sweep.base.replication.max_retries =
          static_cast<std::uint32_t>(parse_u64(
              arg.substr(10), "--retries",
              std::numeric_limits<std::uint32_t>::max()));
      sweep.base.replication.enabled = true;
    } else if (arg.starts_with("--fault-mix=")) {
      sweep.base.fault_mix = parse_fault_mix(arg.substr(12));
    } else if (arg.starts_with("--threads=")) {
      sweep.threads = static_cast<int>(parse_count(
          arg.substr(10), "threads", std::numeric_limits<int>::max()));
    } else if (arg.starts_with("--seed=")) {
      // Unlike the count arguments, 0 is a legitimate seed.
      sweep.workload_seed = parse_u64(arg.substr(7), "seed");
    } else if (arg == "--availability") {
      sweep.base.model_availability = true;
    } else if (arg == "--churn") {
      churn = true;
    } else if (arg.starts_with("--interrupt=")) {
      churn_policies = parse_interruptions(arg.substr(12));
      churn = true;  // naming interruption policies implies --churn
    } else if (arg.starts_with("--churn-levels=")) {
      const std::size_t levels = parse_count(arg.substr(15), "churn levels");
      if (levels > churn::kMaxLookaheadLevels) {
        throw std::invalid_argument(
            "bad --churn-levels: '" + arg.substr(15) + "' (expected 1.." +
            std::to_string(churn::kMaxLookaheadLevels) + ")");
      }
      sweep.base.churn_lookahead_levels = levels;
      churn = true;  // a churn kernel knob implies --churn
    } else if (arg.starts_with("--avail-coupling=")) {
      sweep.base.availability_coupled = true;
      sweep.base.availability_coupling.speed_rho = parse_rho(arg.substr(17));
    } else if (arg.starts_with("--backend=")) {
      const std::string value = arg.substr(10);
      const auto backend = backend::parse_backend(value);
      if (!backend) {
        throw std::invalid_argument("bad --backend: '" + value +
                                    "' (expected " +
                                    backend::backend_names() + ")");
      }
      sweep.base.backend = *backend;
    } else if (arg.starts_with("--")) {
      err << "sweep: unknown flag: '" << arg << "'\n";
      return kUsage;
    } else {
      positional.push_back(arg);
    }
  }
  const bool replicated = sweep.base.replicated_run();
  if (replicated && !policies_explicit) {
    // Replication only composes with the dynamic-ECT family (static and
    // pull hand out work once and never watch deadlines); narrow the
    // default grid rather than erroring out of the default.
    sweep.policies = {sim::SchedulingPolicy::kDynamicEct};
  }
  if (churn) {
    sweep.policies.insert(sweep.policies.end(), churn_policies.begin(),
                          churn_policies.end());
  }
  if (sweep.base.availability_coupled && !sweep.base.model_availability &&
      !churn) {
    // Nothing would consume the coupling: derate is off and no churn
    // policy walks the timeline — refuse rather than print a header
    // claiming a coupled experiment ran.
    err << "sweep: --avail-coupling needs --availability or --churn "
           "(nothing models availability otherwise)\n";
    return kUsage;
  }
  if (positional.size() < 3 || positional.size() > 4) {
    err << "sweep: expected <model.txt> <YYYY-MM-DD> <hosts> "
           "[tasks[,tasks...]] [--policies=rr,sw,pull,ect] [--threads=N] "
           "[--seed=N] [--availability] [--churn] "
           "[--interrupt=checkpoint,restart,abandon] [--churn-levels=N] "
           "[--avail-coupling=rho] [--backend=" +
               backend::backend_names() +
           "] [--replication=k/n] [--deadline-days=D] [--backoff=B] "
           "[--retries=N] [--fault-mix=crash:p,straggler:p,corrupt:p]\n";
    return kUsage;
  }
  const core::ModelParams params = load_model(positional[0]);
  const util::ModelDate date = util::ModelDate::parse(positional[1]);
  const std::size_t host_count = parse_count(positional[2], "hosts");
  if (positional.size() > 3) {
    sweep.task_counts = parse_task_counts(positional[3]);
  }

  // The host-model axis: the published Cholesky dependence structure vs
  // the same marginal laws sampled independently — the paper's argument
  // that scheduling conclusions hinge on the joint model, as a grid.
  const sim::CorrelatedModel correlated(params);
  const sim::CorrelatedModel independent(
      params,
      model::make_correlation_model(model::CorrelationKind::kIndependent,
                                    params.resource_correlation),
      "Independent Model");
  util::Rng synth_rng(0x5eed5eed);
  std::vector<sim::SweepPopulation> populations;
  populations.push_back(
      {"Correlated", correlated.synthesize_soa(date, host_count, synth_rng)});
  populations.push_back(
      {"Independent", independent.synthesize_soa(date, host_count, synth_rng)});

  const sim::PolicySweepResult grid = sim::run_policy_sweep(populations, sweep);

  out << "Policy sweep over " << host_count << " hosts at " << date.to_string()
      << (sweep.base.model_availability ? " (availability-derated)" : "")
      << (sweep.base.availability_coupled
              ? " (speed-coupled availability, rho=" +
                    util::Table::num(
                        sweep.base.availability_coupling.speed_rho, 2) +
                    ")"
              : "")
      << ", makespan in days:\n";
  double wasted_cpu = 0.0;
  std::uint64_t interruptions = 0;
  for (std::size_t t = 0; t < sweep.task_counts.size(); ++t) {
    std::vector<std::string> header = {
        std::to_string(sweep.task_counts[t]) + " tasks"};
    for (const sim::SchedulingPolicy policy : sweep.policies) {
      header.push_back(to_string(policy));
    }
    util::Table table(std::move(header));
    for (std::size_t p = 0; p < populations.size(); ++p) {
      std::vector<std::string> cells = {populations[p].name};
      for (std::size_t pol = 0; pol < sweep.policies.size(); ++pol) {
        const sim::BagOfTasksResult& cell = grid.at(p, pol, t).result;
        cells.push_back(util::Table::num(cell.makespan_days, 1));
        wasted_cpu += cell.wasted_cpu_days;
        interruptions += cell.interruptions;
      }
      table.add_row(std::move(cells));
    }
    table.print(out);
  }
  if (churn) {
    out << "churn cells: " << interruptions << " interruptions, "
        << util::Table::num(wasted_cpu, 1) << " CPU-days of burned attempts "
           "across the grid\n";
  }
  if (replicated) {
    const sim::ReplicationConfig& rep = sweep.base.replication;
    out << "replication outcomes (" << rep.quorum << "-of-" << rep.replicas
        << " quorum";
    if (rep.has_deadline()) {
      out << ", deadline " << util::Table::num(rep.deadline_days, 1)
          << "d, backoff x" << util::Table::num(rep.backoff, 1) << ", "
          << rep.max_retries << " retries";
    }
    out << "):\n";
    util::Table table({"Population", "Policy", "Tasks", "Issued", "Valid",
                       "Invalid", "Missed", "Reissues", "Wasted cpu-d",
                       "p50/p90/p99 reissue-d"});
    for (std::size_t p = 0; p < populations.size(); ++p) {
      for (std::size_t pol = 0; pol < sweep.policies.size(); ++pol) {
        for (std::size_t t = 0; t < sweep.task_counts.size(); ++t) {
          const sim::ReplicationOutcome& o =
              grid.at(p, pol, t).result.replication;
          table.add_row(
              {populations[p].name, to_string(sweep.policies[pol]),
               std::to_string(sweep.task_counts[t]),
               std::to_string(o.tasks_issued),
               std::to_string(o.tasks_validated),
               std::to_string(o.tasks_invalid),
               std::to_string(o.tasks_missed_deadline),
               std::to_string(o.reissues),
               util::Table::num(o.wasted_replica_cpu_days, 1),
               util::Table::num(o.reissue_latency_p50_days, 2) + "/" +
                   util::Table::num(o.reissue_latency_p90_days, 2) + "/" +
                   util::Table::num(o.reissue_latency_p99_days, 2)});
        }
      }
    }
    table.print(out);
  }
  return kOk;
}

/// Parses a --checkpoint-fault spec: KIND[:BYTE]@EPOCH with KIND one of
/// enospc | eio | crash-byte | crash-commit. crash-commit is a kCrash
/// plan whose offset is never reached during appends, so the simulated
/// death fires at the rename — after the full tmp file was written,
/// before publication.
store::FaultPlan parse_checkpoint_fault(const std::string& text,
                                        std::uint64_t& epoch) {
  const std::size_t at = text.rfind('@');
  if (at == std::string::npos) {
    throw std::invalid_argument(
        "bad --checkpoint-fault: '" + text +
        "' (expected enospc|eio|crash-byte|crash-commit[:BYTE]@EPOCH)");
  }
  epoch = parse_count(text.substr(at + 1), "--checkpoint-fault epoch");
  std::string kind = text.substr(0, at);
  std::uint64_t at_byte = 65536;
  bool have_byte = false;
  const std::size_t colon = kind.find(':');
  if (colon != std::string::npos) {
    at_byte = parse_u64(kind.substr(colon + 1), "--checkpoint-fault byte");
    have_byte = true;
    kind = kind.substr(0, colon);
  }
  store::FaultPlan plan;
  plan.at_byte = at_byte;
  if (kind == "enospc") {
    plan.kind = store::FaultPlan::Kind::kNoSpace;
  } else if (kind == "eio") {
    plan.kind = store::FaultPlan::Kind::kIoError;
  } else if (kind == "crash-byte") {
    plan.kind = store::FaultPlan::Kind::kCrash;
  } else if (kind == "crash-commit") {
    plan.kind = store::FaultPlan::Kind::kCrash;
    if (!have_byte) plan.at_byte = ~std::uint64_t{0};
  } else {
    throw std::invalid_argument("bad --checkpoint-fault kind: '" + kind +
                                "'");
  }
  return plan;
}

int cmd_serve(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  engine::EngineConfig config;
  config.collection.client.mean_contact_interval_days = 2.0;
  bool have_clients = false;
  bool have_days = false;
  bool have_every = false;
  double deadline_days = 0.0;
  // Flags that shape the run (population, window, behaviour): all of
  // them conflict with --resume, whose configuration comes from the
  // checkpoint's run header.
  std::vector<std::string> shape_flags;

  for (const std::string& arg : args) {
    if (arg.starts_with("--clients=")) {
      config.cohort_clients = parse_count(arg.substr(10), "--clients");
      have_clients = true;
      shape_flags.push_back("--clients");
    } else if (arg.starts_with("--days=")) {
      config.cohort_horizon_days =
          parse_positive_double(arg.substr(7), "--days");
      have_days = true;
      shape_flags.push_back("--days");
    } else if (arg.starts_with("--shards=")) {
      // parse_count: zero and negative shard counts are usage errors.
      config.shards = static_cast<std::uint32_t>(
          std::min<std::size_t>(parse_count(arg.substr(9), "--shards"),
                                0xffffffffu));
      shape_flags.push_back("--shards");
    } else if (arg.starts_with("--threads=")) {
      config.threads = static_cast<int>(parse_u64(
          arg.substr(10), "--threads", std::numeric_limits<int>::max()));
    } else if (arg.starts_with("--seed=")) {
      config.collection.population.seed = parse_u64(arg.substr(7), "--seed");
      shape_flags.push_back("--seed");
    } else if (arg.starts_with("--batch=")) {
      config.batch_size = static_cast<std::uint32_t>(
          std::min<std::size_t>(parse_count(arg.substr(8), "--batch"),
                                0xffffffffu));
      shape_flags.push_back("--batch");
    } else if (arg.starts_with("--mean-contact-days=")) {
      config.collection.client.mean_contact_interval_days =
          parse_positive_double(arg.substr(20), "--mean-contact-days");
      shape_flags.push_back("--mean-contact-days");
    } else if (arg == "--availability") {
      config.collection.client.model_availability = true;
      shape_flags.push_back("--availability");
    } else if (arg.starts_with("--fault-mix=")) {
      config.collection.fault_mix = parse_fault_mix(arg.substr(12));
      shape_flags.push_back("--fault-mix");
    } else if (arg.starts_with("--replication=")) {
      parse_replication(arg.substr(14), config.replication);
      shape_flags.push_back("--replication");
    } else if (arg.starts_with("--deadline-days=")) {
      deadline_days =
          parse_positive_double(arg.substr(16), "--deadline-days");
      shape_flags.push_back("--deadline-days");
    } else if (arg.starts_with("--checkpoint=")) {
      config.checkpoint_path = arg.substr(13);
      if (config.checkpoint_path.empty()) {
        err << "serve: --checkpoint needs a path\n";
        return kUsage;
      }
    } else if (arg.starts_with("--checkpoint-every-days=")) {
      config.checkpoint_every_days = static_cast<std::uint32_t>(
          std::min<std::size_t>(
              parse_count(arg.substr(24), "--checkpoint-every-days"),
              0xffffffffu));
      have_every = true;
    } else if (arg.starts_with("--resume=")) {
      config.resume_path = arg.substr(9);
      if (config.resume_path.empty()) {
        err << "serve: --resume needs a path\n";
        return kUsage;
      }
    } else if (arg.starts_with("--stop-after-day=")) {
      config.stop_after_day = static_cast<std::int32_t>(
          std::min<std::uint64_t>(
              parse_u64(arg.substr(17), "--stop-after-day"), 0x7fffffffu));
    } else if (arg.starts_with("--checkpoint-fault=")) {
      config.checkpoint_fault = parse_checkpoint_fault(
          arg.substr(19), config.checkpoint_fault_epoch);
    } else {
      err << "serve: unknown argument: '" << arg << "'\n";
      return kUsage;
    }
  }
  const bool resuming = !config.resume_path.empty();
  if (resuming && !shape_flags.empty()) {
    err << "serve: --resume takes the run's configuration from the "
           "checkpoint header; remove";
    for (const std::string& flag : shape_flags) err << ' ' << flag;
    err << '\n';
    return kUsage;
  }
  if (!resuming && (!have_clients || !have_days)) {
    err << "serve: expected --clients=N --days=D [--shards=S] [--threads=T]"
           " [--seed=N] [--batch=N] [--mean-contact-days=D]"
           " [--availability] [--fault-mix=...] [--replication=k/n]"
           " [--deadline-days=D] [--checkpoint=PATH]"
           " [--checkpoint-every-days=D] [--stop-after-day=N]"
           " [--checkpoint-fault=KIND@EPOCH] | --resume=PATH\n";
    return kUsage;
  }
  if (have_every && config.checkpoint_path.empty()) {
    err << "serve: --checkpoint-every-days needs --checkpoint=PATH\n";
    return kUsage;
  }
  if (deadline_days > 0.0) {
    if (!config.replication.enabled) {
      err << "serve: --deadline-days needs --replication=k/n\n";
      return kUsage;
    }
    config.replication.deadline_days = deadline_days;
  }
  // Surface config errors as usage problems before any work happens.
  try {
    config.validate();
    config.collection.fault_mix.validate();
    config.collection.client.validate();
  } catch (const std::invalid_argument& e) {
    err << "serve: " << e.what() << '\n';
    return kUsage;
  }

  // The provenance the deterministic header line prints: the config for
  // a fresh run, the checkpoint's run header for a resumed one (so both
  // print byte-identical blocks — the CI kill-and-resume gate diffs
  // them).
  double display_days = config.cohort_horizon_days;
  std::uint32_t display_shards = config.shards;
  bool with_replication = config.replication.enabled;
  if (resuming) {
    const engine::CheckpointMeta meta =
        engine::read_checkpoint_meta(config.resume_path);
    display_days = meta.cohort_horizon_days;
    display_shards = meta.display_shards;
    with_replication = meta.replication.enabled;
  }

  const engine::EngineResult result = engine::run_service_engine(config);

  if (result.halted) {
    // The deterministic stand-in for a mid-run kill: report where the
    // run stopped and what survives, nothing else — partial counters
    // are noise the resume leg will finish properly.
    out << "halted: after day " << config.stop_after_day << ", "
        << result.checkpoints_written << " checkpoint(s) written\n";
    return kOk;
  }

  // Everything except the final "timing:" line is deterministic for a
  // fixed config — CI diffs runs after stripping that one line.
  out << "serve: " << result.hosts_created << " clients, "
      << util::Table::num(display_days, 1) << " virtual days, "
      << display_shards << " shard(s)\n";
  out << "contacts: " << result.total_contacts << '\n';
  out << "units: granted=" << result.total_units_granted
      << " reported=" << result.total_units_reported
      << " invalid=" << result.total_invalid_result_units
      << " lost=" << result.total_units_lost
      << " expired=" << result.total_units_expired
      << " in_flight=" << result.units_in_flight
      << " unaccounted=" << result.units_unaccounted() << '\n';
  out << "credit: " << util::Table::num(result.total_credit_granted, 1)
      << '\n';
  if (with_replication) {
    const engine::QuorumOutcome& q = result.quorum;
    out << "quorum tasks: issued=" << q.tasks_issued
        << " validated=" << q.tasks_validated
        << " invalid=" << q.tasks_invalid
        << " missed=" << q.tasks_missed_deadline
        << " pending=" << q.tasks_pending << '\n';
    out << "quorum replicas: issued=" << q.replicas_issued
        << " correct=" << q.replicas_correct
        << " corrupt=" << q.replicas_corrupt
        << " crashed=" << q.replicas_crashed
        << " missed=" << q.replicas_missed_deadline
        << " duplicate=" << q.replicas_duplicate_host
        << " in_flight=" << q.replicas_in_flight << '\n';
    if (!q.conserves_tasks() || !q.conserves_replicas()) {
      err << "serve: quorum accounting does not balance\n";
      return kFailure;
    }
  }
  if (!result.conserves_units()) {
    err << "serve: unit accounting does not balance\n";
    return kFailure;
  }
  // Batch count rides with timing: it depends on the shard split, not on
  // the simulated outcome, so it stays out of the deterministic block.
  out << "timing: " << util::Table::num(result.wall_seconds, 3) << " s, "
      << util::Table::num(result.requests_per_second, 0) << " requests/s, "
      << result.batches_drained << " batch(es)\n";
  return kOk;
}

namespace {

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

void print_digests(std::ostream& out,
                   const std::vector<store::ColumnSpec>& schema,
                   const std::vector<std::uint32_t>& digests,
                   const std::vector<bool>* intact = nullptr) {
  out << "column digests:\n";
  for (std::size_t i = 0; i < schema.size(); ++i) {
    out << "  " << schema[i].name << ' ';
    if (intact && !(*intact)[i]) {
      out << "LOST";
    } else {
      out << hex32(digests[i]);
    }
    out << '\n';
  }
}

/// The generated-population CSV round-trip format: all six SoA columns,
/// doubles printed with round-trip precision (unlike the analysis export
/// cmd_generate writes, which drops memory_per_core_mb and uses default
/// precision).
const std::vector<std::string> kPopulationCsvHeader = {
    "cores",          "memory_per_core_mb", "memory_mb",
    "whetstone_mips", "dhrystone_mips",     "disk_avail_gb"};

void write_population_rows(const core::GeneratedHostBatch& batch,
                           util::CsvWriter& writer) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    writer.write_row({
        util::CsvWriter::field(static_cast<long long>(batch.n_cores[i])),
        util::CsvWriter::field(batch.memory_per_core_mb[i]),
        util::CsvWriter::field(batch.memory_mb[i]),
        util::CsvWriter::field(batch.whetstone_mips[i]),
        util::CsvWriter::field(batch.dhrystone_mips[i]),
        util::CsvWriter::field(batch.disk_avail_gb[i]),
    });
  }
}

core::GeneratedHostBatch read_population_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open population csv: " + path);
  util::CsvReader reader(in);
  util::CsvRow row;
  if (!reader.read_row(row) || row != kPopulationCsvHeader) {
    throw std::runtime_error("population csv " + path +
                             ":1: missing or wrong header");
  }
  core::GeneratedHostBatch batch;
  std::size_t line = 1;
  while (reader.read_row(row)) {
    ++line;
    if (row.size() != kPopulationCsvHeader.size()) {
      throw std::runtime_error("population csv " + path + ":" +
                               std::to_string(line) + ": wrong field count");
    }
    const auto bad = [&](const char* what, const std::string& s) {
      return std::runtime_error("population csv " + path + ":" +
                                std::to_string(line) + ": bad " + what +
                                ": '" + s + "'");
    };
    const auto num = [&](const std::string& s, const char* what) {
      char* end = nullptr;
      const double v = std::strtod(s.c_str(), &end);
      if (end == s.c_str() || *end != '\0') throw bad(what, s);
      return v;
    };
    char* end = nullptr;
    const long long cores = std::strtoll(row[0].c_str(), &end, 10);
    if (end == row[0].c_str() || *end != '\0') throw bad("cores", row[0]);
    batch.n_cores.push_back(static_cast<int>(cores));
    batch.memory_per_core_mb.push_back(num(row[1], "memory_per_core_mb"));
    batch.memory_mb.push_back(num(row[2], "memory_mb"));
    batch.whetstone_mips.push_back(num(row[3], "whetstone_mips"));
    batch.dhrystone_mips.push_back(num(row[4], "dhrystone_mips"));
    batch.disk_avail_gb.push_back(num(row[5], "disk_avail_gb"));
  }
  return batch;
}

core::GeneratedHostBatch population_slice(const core::GeneratedHostBatch& b,
                                          std::size_t at, std::size_t len) {
  core::GeneratedHostBatch s;
  const auto cut = [&](auto& dst, const auto& src) {
    dst.assign(src.begin() + static_cast<std::ptrdiff_t>(at),
               src.begin() + static_cast<std::ptrdiff_t>(at + len));
  };
  cut(s.n_cores, b.n_cores);
  cut(s.memory_per_core_mb, b.memory_per_core_mb);
  cut(s.memory_mb, b.memory_mb);
  cut(s.whetstone_mips, b.whetstone_mips);
  cut(s.dhrystone_mips, b.dhrystone_mips);
  cut(s.disk_avail_gb, b.disk_avail_gb);
  return s;
}

/// Per-shard generation seed: a SplitMix64 step over (seed, shard) so
/// `pack --generate` shards are independent deterministic streams — the
/// output file is a pure function of (model, date, count, seed, shard
/// size), regardless of thread count.
std::uint64_t shard_seed(std::uint64_t seed, std::uint64_t shard) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (shard + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Peeks the header row to tell a trace CSV from a population CSV.
enum class CsvKind { kTrace, kPopulation, kUnknown };
CsvKind detect_csv_kind(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open csv: " + path);
  util::CsvReader reader(in);
  util::CsvRow row;
  if (!reader.read_row(row)) return CsvKind::kUnknown;
  if (row == trace::csv_header()) return CsvKind::kTrace;
  if (row == kPopulationCsvHeader) return CsvKind::kPopulation;
  return CsvKind::kUnknown;
}

void print_read_report(std::ostream& out, const store::SnapshotReader& reader,
                       const store::ReadReport& report) {
  out << "blocks: " << report.blocks_loaded << '/' << report.blocks_expected
      << " intact, footer "
      << (report.footer_intact ? "intact" : "lost (forward scan used)")
      << '\n';
  for (const store::LostBlock& lost : report.lost) {
    const auto& schema = reader.schema();
    const std::string name = lost.column < schema.size()
                                 ? schema[lost.column].name
                                 : "#" + std::to_string(lost.column);
    out << "lost block: column " << name << ", shard " << lost.shard << " ("
        << lost.rows << " rows): " << to_string(lost.reason) << '\n';
  }
  if (report.rows_lost > 0) {
    out << "rows lost (block-level): " << report.rows_lost << '\n';
  }
  if (report.tail_bytes_unscanned > 0) {
    out << "tail bytes unscanned: " << report.tail_bytes_unscanned << '\n';
  }
}

}  // namespace

int cmd_pack(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  bool generate = false;
  std::uint64_t shard = 0;
  std::uint64_t seed = 0x7e57ab1e;
  std::vector<std::string> positional;
  for (const std::string& arg : args) {
    if (arg == "--generate") {
      generate = true;
    } else if (arg.starts_with("--shard=")) {
      // parse_count (not parse_u64): --shard=0 used to silently mean
      // "auto"; an explicit zero or negative row count is now rejected.
      shard = parse_count(arg.substr(8), "--shard");
    } else if (arg.starts_with("--seed=")) {
      seed = parse_u64(arg.substr(7), "--seed");
    } else if (arg.starts_with("--")) {
      err << "pack: unknown flag: '" << arg << "'\n";
      return kUsage;
    } else {
      positional.push_back(arg);
    }
  }

  if (generate) {
    if (positional.size() != 4) {
      err << "pack: expected --generate <model.txt> <YYYY-MM-DD> <count> "
             "<out.snap> [--shard=N] [--seed=N]\n";
      return kUsage;
    }
    const core::ModelParams params = load_model(positional[0]);
    const util::ModelDate date = util::ModelDate::parse(positional[1]);
    const std::uint64_t count = parse_count(positional[2], "count");
    const std::string& out_path = positional[3];
    if (shard == 0) shard = 1u << 20;  // 1 Mi hosts/shard bounds RSS
    const core::HostGenerator generator(params);

    store::SnapshotWriter writer(out_path, store::kPopulationKind,
                                 store::population_schema());
    std::uint64_t written = 0;
    for (std::uint64_t s = 0; written < count; ++s) {
      const std::uint64_t n = std::min<std::uint64_t>(shard, count - written);
      const core::GeneratedHostBatch batch = generator.generate_batch_parallel(
          date, static_cast<std::size_t>(n), shard_seed(seed, s));
      store::append_population_shard(writer, batch);
      written += n;
    }
    writer.finish({{"source", "generated"},
                   {"model", positional[0]},
                   {"date", date.to_string()},
                   {"seed", std::to_string(seed)},
                   {"shard_rows", std::to_string(shard)}});
    out << "packed " << writer.rows_written() << " generated hosts in "
        << writer.shards_written() << " shard(s) -> " << out_path << '\n';
    print_digests(out, writer.schema(), writer.column_digests());
    return kOk;
  }

  if (positional.size() != 2) {
    err << "pack: expected <in.csv> <out.snap> [--shard=N], or --generate "
           "<model.txt> <YYYY-MM-DD> <count> <out.snap>\n";
    return kUsage;
  }
  const std::string& in_path = positional[0];
  const std::string& out_path = positional[1];
  const CsvKind kind = detect_csv_kind(in_path);
  if (kind == CsvKind::kUnknown) {
    err << "pack: " << in_path
        << " is neither a trace nor a population csv (unrecognized "
           "header)\n";
    return kFailure;
  }

  if (kind == CsvKind::kTrace) {
    const trace::TraceStore store = trace::read_csv_file(in_path);
    store::SnapshotWriter writer(out_path, store::kTraceKind,
                                 store::trace_schema());
    const std::span<const trace::HostRecord> hosts = store.hosts();
    const std::uint64_t step = shard == 0 ? std::max<std::uint64_t>(
                                                1, hosts.size())
                                          : shard;
    for (std::uint64_t at = 0; at < hosts.size(); at += step) {
      const std::uint64_t n = std::min<std::uint64_t>(step, hosts.size() - at);
      store::append_trace_shard(
          writer, hosts.subspan(static_cast<std::size_t>(at),
                                static_cast<std::size_t>(n)));
    }
    writer.finish({{"source", in_path}});
    out << "packed " << writer.rows_written() << " trace hosts in "
        << writer.shards_written() << " shard(s) -> " << out_path << '\n';
    print_digests(out, writer.schema(), writer.column_digests());
  } else {
    const core::GeneratedHostBatch batch = read_population_csv(in_path);
    store::SnapshotWriter writer(out_path, store::kPopulationKind,
                                 store::population_schema());
    const std::uint64_t step =
        shard == 0 ? std::max<std::uint64_t>(1, batch.size()) : shard;
    for (std::uint64_t at = 0; at < batch.size(); at += step) {
      const std::uint64_t n = std::min<std::uint64_t>(step, batch.size() - at);
      store::append_population_shard(
          writer, population_slice(batch, static_cast<std::size_t>(at),
                                   static_cast<std::size_t>(n)));
    }
    writer.finish({{"source", in_path}});
    out << "packed " << writer.rows_written() << " population hosts in "
        << writer.shards_written() << " shard(s) -> " << out_path << '\n';
    print_digests(out, writer.schema(), writer.column_digests());
  }
  return kOk;
}

int cmd_unpack(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err) {
  bool digest_only = false;
  bool recover = false;
  std::vector<std::string> positional;
  for (const std::string& arg : args) {
    if (arg == "--digest-only") {
      digest_only = true;
    } else if (arg == "--recover") {
      recover = true;
    } else if (arg.starts_with("--")) {
      err << "unpack: unknown flag: '" << arg << "'\n";
      return kUsage;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.empty() || positional.size() > 2 ||
      (digest_only && positional.size() != 1)) {
    err << "unpack: expected <in.snap> [out.csv] [--digest-only] "
           "[--recover]\n";
    return kUsage;
  }
  const std::string& in_path = positional[0];

  store::SnapshotReader reader(in_path);
  out << "kind: " << reader.kind() << '\n';

  if (digest_only) {
    // Checksum walk without materializing columns — the bounded-RSS
    // bit-identity check against pack's digest lines.
    const store::SnapshotReader::VerifyResult v = reader.verify();
    out << "rows: "
        << (reader.footer_intact() ? std::to_string(reader.rows())
                                   : std::string("unknown (footer lost)"))
        << '\n';
    print_read_report(out, reader, v.report);
    print_digests(out, reader.schema(), v.column_digests, &v.column_intact);
    return v.report.complete ? kOk : kFailure;
  }

  store::Snapshot snapshot;
  store::ReadReport report;
  if (recover) {
    snapshot = reader.read_recovering(report);
    print_read_report(out, reader, report);
  } else {
    snapshot = reader.read_all();
    report.blocks_expected = report.blocks_loaded = 0;
  }
  out << "rows: " << snapshot.rows << '\n';

  // Digests over what was actually materialized (zero-filled holes
  // digest as zero-filled — the report above itemizes them).
  {
    std::vector<std::uint32_t> digests(snapshot.columns.size(), 0);
    for (std::size_t i = 0; i < snapshot.columns.size(); ++i) {
      digests[i] = util::crc32c(snapshot.columns[i].data.data(),
                                snapshot.columns[i].data.size());
    }
    print_digests(out, reader.schema(), digests);
  }

  if (positional.size() == 2) {
    const std::string& csv_path = positional[1];
    if (snapshot.kind == store::kTraceKind) {
      trace::write_csv_file(store::unpack_trace(snapshot), csv_path);
    } else if (snapshot.kind == store::kPopulationKind) {
      const core::GeneratedHostBatch batch =
          store::unpack_population(snapshot);
      std::ofstream csv(csv_path);
      if (!csv) {
        throw std::runtime_error("cannot write population csv: " + csv_path);
      }
      util::CsvWriter writer(csv);
      writer.write_row(kPopulationCsvHeader);
      write_population_rows(batch, writer);
    } else {
      err << "unpack: unknown snapshot kind '" << snapshot.kind << "'\n";
      return kFailure;
    }
    out << "unpacked " << snapshot.rows << " rows -> " << csv_path << '\n';
  }
  return recover && !report.complete ? kFailure : kOk;
}

int cmd_verify(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err) {
  bool digests = false;
  std::vector<std::string> positional;
  for (const std::string& arg : args) {
    if (arg == "--digests") {
      digests = true;
    } else if (arg.starts_with("--")) {
      err << "verify: unknown flag: '" << arg << "'\n";
      return kUsage;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 1) {
    err << "verify: expected <in.snap> [--digests]\n";
    return kUsage;
  }
  store::SnapshotReader reader(positional[0]);
  const store::SnapshotReader::VerifyResult v = reader.verify();
  out << "kind: " << reader.kind() << '\n';
  if (reader.footer_intact()) {
    out << "rows: " << reader.rows() << " in " << reader.shard_count()
        << " shard(s)\n";
  } else {
    out << "rows: unknown (footer lost)\n";
  }
  print_read_report(out, reader, v.report);
  if (digests) {
    print_digests(out, reader.schema(), v.column_digests, &v.column_intact);
  }
  if (v.report.complete) {
    out << "verify: OK\n";
    return kOk;
  }
  err << "verify: DAMAGED (" << v.report.lost.size() << " lost block(s), "
      << v.report.rows_lost << " rows lost)\n";
  return kFailure;
}

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  if (args.empty()) {
    err << usage_text();
    return kUsage;
  }
  const std::string& command = args.front();
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  try {
    if (command == "synth") return cmd_synth(rest, out, err);
    if (command == "collect") return cmd_collect(rest, out, err);
    if (command == "fit") return cmd_fit(rest, out, err);
    if (command == "generate") return cmd_generate(rest, out, err);
    if (command == "predict") return cmd_predict(rest, out, err);
    if (command == "validate") return cmd_validate(rest, out, err);
    if (command == "sweep") return cmd_sweep(rest, out, err);
    if (command == "serve") return cmd_serve(rest, out, err);
    if (command == "backends") return cmd_backends(rest, out, err);
    if (command == "pack") return cmd_pack(rest, out, err);
    if (command == "unpack") return cmd_unpack(rest, out, err);
    if (command == "verify") return cmd_verify(rest, out, err);
  } catch (const std::exception& e) {
    err << command << ": " << e.what() << '\n';
    return kFailure;
  }
  err << "unknown command '" << command << "'\n" << usage_text();
  return kUsage;
}

}  // namespace resmodel::cli
