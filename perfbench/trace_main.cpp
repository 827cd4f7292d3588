// perfbench_trace: the benchmark's traced run. It replays a workload's
// `resmodel` commands through the library's public functions, taking
// spans and counts around each layer call, and prints each command's
// deterministic output block in the CLI's own format so that run.py can
// check it byte for byte against the untraced CLI run.
//
//   perfbench_trace --out=SPANS.json --run-id=ID CMD ARGS... [--next CMD ARGS...]
//
// CMD is serve, sweep, pack (--generate only), unpack (--digest-only
// only) or verify, with the flags the benchmark's workloads use. Each
// command's block starts with a line "@@ CMD".
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "boinc/simulation.h"
#include "core/host_generator.h"
#include "engine/checkpoint.h"
#include "engine/service_engine.h"
#include "model/factory.h"
#include "sim/bag_of_tasks.h"
#include "sim/baseline_models.h"
#include "store/adapters.h"
#include "store/snapshot.h"
#include "synth/population.h"
#include "tracer.h"
#include "util/table.h"

namespace {

using namespace resmodel;
using perfbench::Scope;
using perfbench::Tracer;

using Args = std::vector<std::string>;

std::uint64_t to_u64(const std::string& s) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument("bad number: '" + s + "'");
  }
  return std::stoull(s);
}

double to_double(const std::string& s) {
  std::size_t pos = 0;
  const double v = std::stod(s, &pos);
  if (pos != s.size()) throw std::invalid_argument("bad number: '" + s + "'");
  return v;
}

/// Value of "--name=value" or nullptr.
const char* flag_value(const std::string& arg, const char* name) {
  const std::string prefix = std::string(name) + "=";
  return arg.starts_with(prefix) ? arg.c_str() + prefix.size() : nullptr;
}

core::ModelParams load_model(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open model file: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return core::ModelParams::deserialize(text.str());
}

sim::FaultMixConfig parse_fault_mix(const std::string& spec) {
  sim::FaultMixConfig mix;
  std::stringstream ss(spec);
  std::string token;
  while (std::getline(ss, token, ',')) {
    const std::size_t colon = token.find(':');
    if (colon == std::string::npos) {
      throw std::invalid_argument("bad --fault-mix entry: " + token);
    }
    const std::string kind = token.substr(0, colon);
    const double fraction = to_double(token.substr(colon + 1));
    if (kind == "crash") {
      mix.crash_fraction = fraction;
    } else if (kind == "straggler") {
      mix.straggler_fraction = fraction;
    } else if (kind == "corrupt") {
      mix.corrupter_fraction = fraction;
    } else {
      throw std::invalid_argument("bad --fault-mix kind: " + kind);
    }
  }
  mix.validate();
  return mix;
}

// ---------------------------------------------------------------- serve

/// Mirrors the engine's private cohort build (every public call in the
/// same order with the same streams), split into its three phases.
std::vector<boinc::ArrivedClient> build_cohort(
    const engine::EngineConfig& config, Tracer& tracer) {
  config.collection.fault_mix.validate();
  config.collection.client.validate();
  const synth::PopulationConfig& pop = config.collection.population;
  const std::uint64_t n = config.cohort_clients;

  util::Rng master(pop.seed ^ 0xd1b54a32d192ed03ULL);
  const util::ModelDate hw_date = pop.sim_end;
  const std::uint64_t hw_seed = master.next();
  core::GeneratedHostBatch hw;
  {
    Scope span(tracer, "core.generate");
    const core::HostGenerator generator(pop.model);
    hw = generator.generate_batch_parallel(hw_date, n, hw_seed,
                                           config.threads);
  }
  std::vector<util::Rng> forks;
  {
    Scope span(tracer, "serve.fork_streams");
    forks.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) forks.push_back(master.fork());
  }

  const std::int32_t death_day =
      static_cast<std::int32_t>(std::floor(config.cohort_horizon_days));
  Scope span(tracer, "synth.finish_host");
  std::vector<boinc::ArrivedClient> clients(n);
  constexpr std::uint64_t kChunk = 4096;
  perfbench::parallel_for(
      (n + kChunk - 1) / kChunk, config.threads, [&](std::size_t chunk) {
        const std::uint64_t begin = chunk * kChunk;
        const std::uint64_t end = std::min(begin + kChunk, n);
        for (std::uint64_t i = begin; i < end; ++i) {
          util::Rng rng = forks[i];
          boinc::ArrivedClient& client = clients[i];
          client.spec =
              synth::finish_host(pop, hw.host(i), hw_date, i + 1, rng);
          client.spec.created_day = 0;
          client.spec.last_contact_day = death_day;
          if (config.collection.fault_mix.any()) {
            util::Rng fault_rng = rng.fork();
            const sim::FaultDraw draw =
                sim::sample_fault(config.collection.fault_mix, fault_rng);
            client.fault = draw.type;
            client.straggler_slowdown = draw.slowdown;
          }
          client.rng = rng.fork();
        }
      });
  return clients;
}

/// One parallel drain of every shard to `day_end`: a span per shard call
/// under `parent`, plus busy and barrier-idle time.
void drain_round(std::vector<engine::ClientShard>& shards, double day_end,
                 int threads, std::uint32_t parent, Tracer& tracer) {
  std::vector<double> busy(shards.size(), 0.0);
  const double t0 = tracer.now();
  perfbench::parallel_for(shards.size(), threads, [&](std::size_t s) {
    Scope call(tracer, "engine.drain_call", std::to_string(s), parent);
    shards[s].drain(day_end);
    busy[s] = call.elapsed();
  });
  const double wall = tracer.now() - t0;
  const std::size_t workers = std::min<std::size_t>(
      shards.size(), threads > 0 ? static_cast<std::size_t>(threads)
                                 : std::thread::hardware_concurrency());
  double total = 0.0;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    total += busy[s];
    tracer.add("engine.shard_busy_s." + std::to_string(s), busy[s]);
  }
  tracer.add("engine.drain_busy_s", total);
  tracer.add("engine.barrier_wait_s",
             std::max(0.0, static_cast<double>(workers) * wall - total));
}

/// `resmodel serve` (cohort mode, optional replication, checkpoint,
/// stop day and resume) rebuilt from the engine's public pieces with the
/// control flow of engine::run_service_engine.
int cmd_serve(const Args& args, Tracer& tracer, std::ostream& out) {
  engine::EngineConfig config;
  config.collection.client.mean_contact_interval_days = 2.0;
  double deadline_days = 0.0;
  for (const std::string& arg : args) {
    if (const char* v = flag_value(arg, "--clients")) {
      config.cohort_clients = to_u64(v);
    } else if (const char* v = flag_value(arg, "--days")) {
      config.cohort_horizon_days = to_double(v);
    } else if (const char* v = flag_value(arg, "--shards")) {
      config.shards = static_cast<std::uint32_t>(to_u64(v));
    } else if (const char* v = flag_value(arg, "--threads")) {
      config.threads = static_cast<int>(to_u64(v));
    } else if (const char* v = flag_value(arg, "--seed")) {
      config.collection.population.seed = to_u64(v);
    } else if (arg == "--availability") {
      config.collection.client.model_availability = true;
    } else if (const char* v = flag_value(arg, "--fault-mix")) {
      config.collection.fault_mix = parse_fault_mix(v);
    } else if (const char* v = flag_value(arg, "--replication")) {
      const std::string spec = v;
      const std::size_t slash = spec.find('/');
      if (slash == std::string::npos) {
        throw std::invalid_argument("bad --replication: " + spec);
      }
      config.replication.quorum =
          static_cast<std::uint32_t>(to_u64(spec.substr(0, slash)));
      config.replication.replicas =
          static_cast<std::uint32_t>(to_u64(spec.substr(slash + 1)));
      config.replication.enabled = true;
    } else if (const char* v = flag_value(arg, "--deadline-days")) {
      deadline_days = to_double(v);
    } else if (const char* v = flag_value(arg, "--checkpoint")) {
      config.checkpoint_path = v;
    } else if (const char* v = flag_value(arg, "--checkpoint-every-days")) {
      config.checkpoint_every_days = static_cast<std::uint32_t>(to_u64(v));
    } else if (const char* v = flag_value(arg, "--stop-after-day")) {
      config.stop_after_day = static_cast<std::int32_t>(to_u64(v));
    } else if (const char* v = flag_value(arg, "--resume")) {
      config.resume_path = v;
    } else {
      throw std::invalid_argument("serve: unsupported argument: " + arg);
    }
  }
  if (deadline_days > 0.0) config.replication.deadline_days = deadline_days;
  config.validate();
  const bool resuming = !config.resume_path.empty();
  const bool checkpointing = !config.checkpoint_path.empty();
  if (!resuming && config.cohort_clients == 0) {
    throw std::invalid_argument("serve: only cohort mode (--clients) is traced");
  }

  double display_days = config.cohort_horizon_days;
  std::uint32_t display_shards = config.shards;
  bool with_replication = config.replication.enabled;
  engine::CheckpointMeta meta;
  std::vector<engine::ClientShard> shards;
  std::unique_ptr<engine::QuorumCoordinator> coordinator;
  if (resuming) {
    {
      Scope span(tracer, "engine.read_meta");
      const engine::CheckpointMeta header =
          engine::read_checkpoint_meta(config.resume_path);
      display_days = header.cohort_horizon_days;
      display_shards = header.display_shards;
      with_replication = header.replication.enabled;
    }
    Scope span(tracer, "engine.resume_load");
    engine::CheckpointState state = engine::load_checkpoint(config.resume_path);
    meta = state.meta;
    shards = std::move(state.shards);
    coordinator = std::move(state.coordinator);
  } else {
    const std::uint64_t rss_before = perfbench::current_rss_bytes();
    std::vector<boinc::ArrivedClient> population =
        build_cohort(config, tracer);
    meta.params.client = config.collection.client;
    meta.params.server = config.collection.server;
    meta.params.limit_day = config.cohort_horizon_days;
    meta.params.batch_size = config.batch_size;
    meta.params.emit_day_records = config.replication.enabled;
    if (config.replication.enabled && config.replication.has_deadline()) {
      meta.params.server.report_deadline_days =
          config.replication.deadline_days;
    }
    meta.replication = config.replication;
    meta.first_day = 0;
    meta.resume_day = 0;
    meta.clients_total = population.size();
    meta.display_shards = config.shards;
    meta.cohort_clients = config.cohort_clients;
    meta.cohort_horizon_days = config.cohort_horizon_days;
    meta.seed = config.collection.population.seed;
    {
      Scope span(tracer, "engine.shard_build");
      const std::size_t n = population.size();
      const std::size_t n_shards =
          std::min<std::size_t>(config.shards, std::max<std::size_t>(n, 1));
      meta.n_shards = static_cast<std::uint32_t>(n_shards);
      shards.reserve(n_shards);
      const std::span<const boinc::ArrivedClient> all(population);
      for (std::size_t s = 0; s < n_shards; ++s) {
        const std::size_t begin = s * n / n_shards;
        const std::size_t end = (s + 1) * n / n_shards;
        shards.emplace_back(meta.params, all.subspan(begin, end - begin),
                            static_cast<std::uint32_t>(begin));
      }
      if (config.replication.enabled) {
        coordinator = std::make_unique<engine::QuorumCoordinator>(
            config.replication, n);
      }
    }
    tracer.add("engine.rss_growth_bytes",
               static_cast<double>(perfbench::current_rss_bytes()) -
                   static_cast<double>(rss_before));
    tracer.add("engine.clients_built", static_cast<double>(population.size()));
    Scope span(tracer, "serve.free_population");
    std::vector<boinc::ArrivedClient>().swap(population);
  }
  const std::uint64_t n = meta.clients_total;

  const bool day_stepped = meta.replication.enabled || checkpointing ||
                           config.stop_after_day >= 0;
  bool halted = false;
  std::uint64_t checkpoints_written = 0;
  engine::QuorumOutcome quorum;
  perfbench::TimingFileSystem fs(tracer);
  {
    Scope drain(tracer, "engine.drain", resuming ? "resume" : "");
    if (!day_stepped) {
      drain_round(shards, std::numeric_limits<double>::infinity(),
                  config.threads, drain.id(), tracer);
    } else {
      const std::int32_t last_day =
          static_cast<std::int32_t>(std::floor(meta.params.limit_day));
      for (std::int32_t day = meta.resume_day; day <= last_day; ++day) {
        Scope day_span(tracer, "engine.day", std::to_string(day));
        drain_round(shards, static_cast<double>(day) + 1.0, config.threads,
                    day_span.id(), tracer);
        if (coordinator) {
          std::vector<engine::DayRecord> records;
          {
            Scope span(tracer, "engine.barrier_merge");
            for (engine::ClientShard& shard : shards) {
              std::vector<engine::DayRecord> taken = shard.take_day_records();
              records.insert(records.end(), taken.begin(), taken.end());
            }
          }
          tracer.add("engine.day_records", static_cast<double>(records.size()));
          if (!records.empty()) {
            Scope span(tracer, "engine.quorum_apply");
            coordinator->apply_day(std::move(records));
          }
        }
        const bool stop_here =
            config.stop_after_day >= 0 && day >= config.stop_after_day;
        const bool cadence_hit =
            (day - meta.first_day + 1) %
                static_cast<std::int32_t>(config.checkpoint_every_days) ==
            0;
        if (checkpointing && (stop_here || (cadence_hit && day < last_day))) {
          meta.resume_day = day + 1;
          const std::uint64_t bytes_before = fs.bytes_appended();
          {
            Scope span(tracer, "engine.checkpoint_write", std::to_string(day));
            engine::write_checkpoint(config.checkpoint_path, meta, shards,
                                     coordinator.get(), &fs);
          }
          const std::uint64_t bytes = fs.bytes_appended() - bytes_before;
          tracer.add("engine.checkpoint_bytes", static_cast<double>(bytes));
          tracer.set("engine.checkpoint_last_bytes", static_cast<double>(bytes));
          tracer.add("engine.checkpoint_epochs", 1.0);
          ++checkpoints_written;
        }
        if (stop_here) {
          halted = true;
          break;
        }
      }
      if (!halted) {
        drain_round(shards, std::numeric_limits<double>::infinity(),
                    config.threads, drain.id(), tracer);
        if (coordinator) quorum = coordinator->finish();
      }
    }
  }
  tracer.set("engine.clients", static_cast<double>(n));

  if (halted) {
    out << "halted: after day " << config.stop_after_day << ", "
        << checkpoints_written << " checkpoint(s) written\n";
    Scope span(tracer, "serve.teardown");
    shards.clear();
    coordinator.reset();
    return 0;
  }

  engine::EngineResult result;
  {
    Scope span(tracer, "engine.fold");
    result.hosts_created = n;
    for (const engine::ClientShard& shard : shards) {
      const engine::ShardTotals& t = shard.totals();
      result.total_contacts += t.contacts;
      result.total_units_granted += t.units_granted;
      result.total_units_reported += t.units_reported;
      result.total_credit_granted += t.credit_granted;
      result.total_units_lost += t.units_lost;
      result.total_units_expired += t.units_expired;
      result.total_invalid_result_units += t.units_invalid;
      result.units_in_flight += shard.queued_units();
    }
    result.trace.reserve(n);
    for (const engine::ClientShard& shard : shards) {
      shard.append_trace(result.trace);
    }
    result.quorum = quorum;
  }
  tracer.add("engine.contacts", static_cast<double>(result.total_contacts));

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
      throw std::logic_error("serve: quorum accounting does not balance");
    }
  }
  if (!result.conserves_units()) {
    throw std::logic_error("serve: unit accounting does not balance");
  }
  Scope span(tracer, "serve.teardown");
  shards.clear();
  coordinator.reset();
  result = engine::EngineResult{};
  return 0;
}

// ---------------------------------------------------------------- sweep

/// Short metric key of a policy (rr, sw, pull, ect, checkpoint, ...).
std::string policy_key(sim::SchedulingPolicy p) {
  switch (p) {
    case sim::SchedulingPolicy::kStaticRoundRobin: return "rr";
    case sim::SchedulingPolicy::kStaticSpeedWeighted: return "sw";
    case sim::SchedulingPolicy::kDynamicPull: return "pull";
    case sim::SchedulingPolicy::kDynamicEct: return "ect";
    case sim::SchedulingPolicy::kChurnEctCheckpoint: return "checkpoint";
    case sim::SchedulingPolicy::kChurnEctAbandon: return "abandon";
    default: return "other";
  }
}

/// `resmodel sweep MODEL DATE HOSTS TASKS [--interrupt=...] [--threads=N]
/// [--seed=N]`. The grid's cells run on the same kind of pool as the
/// library's, one single-cell run_policy_sweep call per job, so each
/// cell gets its own span.
int cmd_sweep(const Args& args, Tracer& tracer, std::ostream& out) {
  sim::PolicySweepConfig sweep;
  sweep.policies = {sim::SchedulingPolicy::kStaticRoundRobin,
                    sim::SchedulingPolicy::kStaticSpeedWeighted,
                    sim::SchedulingPolicy::kDynamicPull,
                    sim::SchedulingPolicy::kDynamicEct};
  bool churn = false;
  std::vector<std::string> positional;
  for (const std::string& arg : args) {
    if (const char* v = flag_value(arg, "--interrupt")) {
      std::stringstream ss(v);
      std::string token;
      while (std::getline(ss, token, ',')) {
        if (token == "checkpoint") {
          sweep.policies.push_back(sim::SchedulingPolicy::kChurnEctCheckpoint);
        } else if (token == "abandon") {
          sweep.policies.push_back(sim::SchedulingPolicy::kChurnEctAbandon);
        } else {
          throw std::invalid_argument("bad interruption policy: " + token);
        }
      }
      churn = true;
    } else if (const char* v = flag_value(arg, "--threads")) {
      sweep.threads = static_cast<int>(to_u64(v));
    } else if (const char* v = flag_value(arg, "--seed")) {
      sweep.workload_seed = to_u64(v);
    } else if (arg.starts_with("--")) {
      throw std::invalid_argument("sweep: unsupported flag: " + arg);
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 4) {
    throw std::invalid_argument("sweep: expected MODEL DATE HOSTS TASKS");
  }
  const util::ModelDate date = util::ModelDate::parse(positional[1]);
  const std::size_t host_count = to_u64(positional[2]);
  sweep.task_counts = {static_cast<std::size_t>(to_u64(positional[3]))};

  core::ModelParams params;
  {
    Scope span(tracer, "sim.load_model");
    params = load_model(positional[0]);
  }
  std::optional<sim::CorrelatedModel> correlated;
  std::optional<sim::CorrelatedModel> independent;
  {
    Scope span(tracer, "sim.models");
    correlated.emplace(params);
    independent.emplace(
        params,
        model::make_correlation_model(model::CorrelationKind::kIndependent,
                                      params.resource_correlation),
        "Independent Model");
  }
  std::vector<sim::SweepPopulation> populations;
  {
    Scope span(tracer, "sim.synthesize");
    util::Rng synth_rng(0x5eed5eed);
    populations.push_back(
        {"Correlated", correlated->synthesize_soa(date, host_count, synth_rng)});
    populations.push_back(
        {"Independent",
         independent->synthesize_soa(date, host_count, synth_rng)});
  }

  const std::size_t n_policies = sweep.policies.size();
  std::vector<sim::BagOfTasksResult> cells(populations.size() * n_policies);
  {
    Scope grid(tracer, "sim.grid");
    perfbench::parallel_for(cells.size(), sweep.threads, [&](std::size_t c) {
      const std::size_t p = c / n_policies;
      const sim::SchedulingPolicy policy = sweep.policies[c % n_policies];
      Scope cell(tracer,
                 sim::is_churn_policy(policy) ? "churn.cell" : "sim.cell",
                 policy_key(policy) + "/" + populations[p].name, grid.id());
      sim::PolicySweepConfig one = sweep;
      one.policies = {policy};
      one.threads = 1;
      cells[c] = sim::run_policy_sweep(
                     std::span<const sim::SweepPopulation>(&populations[p], 1),
                     one)
                     .cells.at(0)
                     .result;
    });
  }

  Scope span(tracer, "sim.print");
  out << "Policy sweep over " << host_count << " hosts at "
      << date.to_string() << ", makespan in days:\n";
  std::vector<std::string> header = {std::to_string(sweep.task_counts[0]) +
                                     " tasks"};
  for (const sim::SchedulingPolicy policy : sweep.policies) {
    header.push_back(to_string(policy));
  }
  util::Table table(std::move(header));
  double wasted_cpu = 0.0;
  std::uint64_t interruptions = 0;
  for (std::size_t p = 0; p < populations.size(); ++p) {
    std::vector<std::string> row = {populations[p].name};
    for (std::size_t pol = 0; pol < n_policies; ++pol) {
      const sim::BagOfTasksResult& cell = cells[p * n_policies + pol];
      row.push_back(util::Table::num(cell.makespan_days, 1));
      wasted_cpu += cell.wasted_cpu_days;
      interruptions += cell.interruptions;
    }
    table.add_row(std::move(row));
  }
  table.print(out);
  if (churn) {
    out << "churn cells: " << interruptions << " interruptions, "
        << util::Table::num(wasted_cpu, 1)
        << " CPU-days of burned attempts across the grid\n";
  }
  tracer.add("churn.interruptions", static_cast<double>(interruptions));
  tracer.add("churn.wasted_cpu_days", wasted_cpu);
  tracer.add("sim.tasks", static_cast<double>(cells.size() *
                                              sweep.task_counts[0]));
  return 0;
}

// ------------------------------------------------- pack / unpack / verify

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

void print_digests(std::ostream& out,
                   const std::vector<store::ColumnSpec>& schema,
                   const std::vector<std::uint32_t>& digests) {
  out << "column digests:\n";
  for (std::size_t i = 0; i < schema.size(); ++i) {
    out << "  " << schema[i].name << ' ' << hex32(digests[i]) << '\n';
  }
}

/// Throws unless the walk found every block intact (the only case the
/// benchmark's workloads produce), then prints the CLI's blocks line.
void print_intact_report(std::ostream& out, const store::ReadReport& report) {
  if (!report.complete || !report.footer_intact) {
    throw std::runtime_error("snapshot is damaged: " +
                             std::to_string(report.lost.size()) +
                             " lost block(s)");
  }
  out << "blocks: " << report.blocks_loaded << '/' << report.blocks_expected
      << " intact, footer intact\n";
}

/// Per-shard seed of `resmodel pack --generate` (SplitMix64 over
/// (seed, shard)).
std::uint64_t shard_seed(std::uint64_t seed, std::uint64_t shard) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (shard + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int cmd_pack(const Args& args, Tracer& tracer, std::ostream& out) {
  bool generate = false;
  std::uint64_t shard = 1u << 20;
  std::uint64_t seed = 0x7e57ab1e;
  std::vector<std::string> positional;
  for (const std::string& arg : args) {
    if (arg == "--generate") {
      generate = true;
    } else if (const char* v = flag_value(arg, "--shard")) {
      shard = to_u64(v);
    } else if (const char* v = flag_value(arg, "--seed")) {
      seed = to_u64(v);
    } else if (arg.starts_with("--")) {
      throw std::invalid_argument("pack: unsupported flag: " + arg);
    } else {
      positional.push_back(arg);
    }
  }
  if (!generate || positional.size() != 4 || shard == 0) {
    throw std::invalid_argument(
        "pack: expected --generate MODEL DATE COUNT OUT [--shard=N] [--seed=N]");
  }
  const util::ModelDate date = util::ModelDate::parse(positional[1]);
  const std::uint64_t count = to_u64(positional[2]);
  const std::string& out_path = positional[3];
  std::unique_ptr<core::HostGenerator> generator;
  {
    Scope span(tracer, "pack.load_model");
    generator =
        std::make_unique<core::HostGenerator>(load_model(positional[0]));
  }
  perfbench::TimingFileSystem fs(tracer);
  std::unique_ptr<store::SnapshotWriter> writer;
  {
    Scope span(tracer, "store.open");
    store::WriterOptions opts;
    opts.fs = &fs;
    writer = std::make_unique<store::SnapshotWriter>(
        out_path, store::kPopulationKind, store::population_schema(), opts);
  }
  std::uint64_t written = 0;
  for (std::uint64_t s = 0; written < count; ++s) {
    const std::uint64_t n = std::min<std::uint64_t>(shard, count - written);
    core::GeneratedHostBatch batch;
    {
      Scope span(tracer, "core.generate", std::to_string(s));
      batch = generator->generate_batch_parallel(
          date, static_cast<std::size_t>(n), shard_seed(seed, s));
    }
    tracer.add("core.hosts", static_cast<double>(n));
    Scope span(tracer, "store.append_shard", std::to_string(s));
    store::append_population_shard(*writer, batch);
    written += n;
  }
  {
    Scope span(tracer, "store.finish");
    writer->finish({{"source", "generated"},
                    {"model", positional[0]},
                    {"date", date.to_string()},
                    {"seed", std::to_string(seed)},
                    {"shard_rows", std::to_string(shard)}});
  }
  out << "packed " << writer->rows_written() << " generated hosts in "
      << writer->shards_written() << " shard(s) -> " << out_path << '\n';
  print_digests(out, writer->schema(), writer->column_digests());
  return 0;
}

/// `unpack SNAP --digest-only` (span store.read) and `verify SNAP` (span
/// store.verify): the same checksum walk, read by two commands.
int cmd_walk(const std::string& cmd, const Args& args, Tracer& tracer,
             std::ostream& out) {
  const bool unpack = cmd == "unpack";
  if (args.empty() || args.size() > 2 ||
      (unpack && (args.size() != 2 || args[1] != "--digest-only")) ||
      (!unpack && args.size() != 1)) {
    throw std::invalid_argument(cmd + ": unsupported arguments");
  }
  const std::string& path = args[0];
  const std::string span_name = unpack ? "store.read" : "store.verify";
  std::unique_ptr<store::SnapshotReader> reader;
  {
    Scope span(tracer, span_name + "_open");
    reader = std::make_unique<store::SnapshotReader>(path);
  }
  store::SnapshotReader::VerifyResult v;
  {
    Scope span(tracer, span_name);
    v = reader->verify();
  }
  tracer.add(span_name + "_bytes",
             static_cast<double>(std::filesystem::file_size(path)));
  if (unpack) {
    out << "kind: " << reader->kind() << '\n';
    out << "rows: " << reader->rows() << '\n';
    print_intact_report(out, v.report);
    print_digests(out, reader->schema(), v.column_digests);
  } else {
    out << "kind: " << reader->kind() << '\n';
    out << "rows: " << reader->rows() << " in " << reader->shard_count()
        << " shard(s)\n";
    print_intact_report(out, v.report);
    out << "verify: OK\n";
  }
  return 0;
}

int run_command(const Args& command, Tracer& tracer) {
  const std::string& cmd = command.at(0);
  const Args args(command.begin() + 1, command.end());
  std::cout << "@@ " << cmd << '\n';
  if (cmd == "serve") return cmd_serve(args, tracer, std::cout);
  if (cmd == "sweep") return cmd_sweep(args, tracer, std::cout);
  if (cmd == "pack") return cmd_pack(args, tracer, std::cout);
  if (cmd == "unpack" || cmd == "verify") {
    return cmd_walk(cmd, args, tracer, std::cout);
  }
  throw std::invalid_argument("unsupported command: " + cmd);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string run_id = "run";
  std::vector<Args> commands;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (commands.empty() && arg.starts_with("--out=")) {
      out_path = arg.substr(6);
    } else if (commands.empty() && arg.starts_with("--run-id=")) {
      run_id = arg.substr(9);
    } else if (arg == "--next" || commands.empty()) {
      commands.emplace_back();
      if (arg != "--next") commands.back().push_back(arg);
    } else {
      commands.back().push_back(arg);
    }
  }
  if (out_path.empty() || commands.empty() || commands.back().empty()) {
    std::cerr << "usage: perfbench_trace --out=SPANS.json [--run-id=ID] CMD "
                 "ARGS... [--next CMD ARGS...]\n";
    return 2;
  }
  try {
    Tracer tracer(run_id);
    for (const Args& command : commands) {
      if (command.empty()) throw std::invalid_argument("empty command");
      if (const int rc = run_command(command, tracer); rc != 0) return rc;
    }
    std::cout.flush();
    tracer.write_json(out_path);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_trace: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
