// perfbench: the simulator benchmark program.
//
// Drives one workload through hostsim's public calls only — the Cluster
// constructor, build_workload / make_flow + app objects, Workload::start,
// Cluster::run_until, OpenLoopEngine::harvest, and
// Cluster::register_invariants + InvariantChecker::run — and prints one
// JSON object of metrics as its last stdout line.
//
// A run repeats whole simulations ("instances") of the workload at the
// run's seed while the median instance would still end within --seconds
// of host time (at least two), and reports medians over the instances.
// Every instance runs the invariant sweep and hashes its simulated
// statistics into a digest; the run fails its check if an invariant is
// violated or two same-seed instances disagree.  cluster64 also checks
// its serial digest against a 2-shard instance.
//
//   --trace 0  end-to-end metrics (setup_s, sim_ms_per_s, total_s,
//              peak_rss_mb, paper_err)
//   --trace 1  per-layer metrics: host-time spans recorded here around
//              each call into the simulator, plus the layers' public
//              counters read after the last instance
//
// See README.md in this directory for the metric definitions.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hostsim.h"

namespace {

using namespace hostsim;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// One "VmXXX:  123 kB" field of /proc/self/status, in MiB.
double proc_status_mib(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// --- Tracing ------------------------------------------------------------

/// Host-time spans around the benchmark's own calls into the simulator.
/// Kept in memory and written out when the run ends.  A null tracer (the
/// untraced mode) makes every Span a no-op.
class SpanTracer {
 public:
  struct Record {
    int id = 0;
    int parent = -1;
    int instance = -1;  ///< the simulation instance the span belongs to
    std::string name;
    double start = 0.0;  ///< seconds since the tracer was created
    double end = 0.0;
  };

  int open(std::string name, int instance) {
    Record r;
    r.id = static_cast<int>(records_.size());
    r.parent = stack_.empty() ? -1 : stack_.back();
    r.instance = instance;
    r.name = std::move(name);
    r.start = seconds_between(origin_, Clock::now());
    records_.push_back(std::move(r));
    stack_.push_back(records_.back().id);
    return records_.back().id;
  }

  void close(int id) {
    records_[static_cast<std::size_t>(id)].end =
        seconds_between(origin_, Clock::now());
    stack_.pop_back();
  }

  /// Duration minus the part of it covered by direct children.
  std::vector<double> self_times() const {
    std::vector<double> self(records_.size());
    for (const Record& r : records_) {
      self[static_cast<std::size_t>(r.id)] += r.end - r.start;
      if (r.parent >= 0) {
        self[static_cast<std::size_t>(r.parent)] -= r.end - r.start;
      }
    }
    return self;
  }

  void write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    const std::vector<double> self = self_times();
    for (const Record& r : records_) {
      char line[512];
      std::snprintf(line, sizeof line,
                    "{\"id\": %d, \"parent\": %d, \"instance\": %d, "
                    "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                    "\"self_s\": %.9f}\n",
                    r.id, r.parent, r.instance, r.name.c_str(), r.start,
                    r.end, self[static_cast<std::size_t>(r.id)]);
      out << line;
    }
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Record> records_;
  std::vector<int> stack_;
};

class Span {
 public:
  Span(SpanTracer* tracer, const char* name, int instance) : tracer_(tracer) {
    if (tracer_ != nullptr) id_ = tracer_->open(name, instance);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanTracer* tracer_;
  int id_ = -1;
};

// --- Digest -------------------------------------------------------------

/// FNV-1a over 64-bit words of simulated statistics.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add_signed(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Hashes every host's simulated state counters, the fabric's, and the
/// open-loop request lifecycles.  All of them are pure functions of the
/// simulated history, so they match across shard counts.
std::uint64_t digest_of(Cluster& cluster, const Workload& workload) {
  Digest d;
  d.add_signed(cluster.now());
  d.add(cluster.events_executed());
  for (int h = 0; h < cluster.num_hosts(); ++h) {
    Host& host = cluster.host(h);
    Stack& stack = host.stack();
    d.add_signed(stack.total_delivered_to_app());
    d.add_signed(stack.total_accepted_from_app());
    for (int c = 0; c < host.num_cores(); ++c) {
      Core& core = host.core(c);
      d.add_signed(core.busy_time());
      d.add(core.tasks_run());
      d.add(core.context_switches());
      for (std::size_t k = 0; k < kNumCpuCategories; ++k) {
        d.add_signed(core.account().get(static_cast<CpuCategory>(k)));
      }
    }
    d.add(host.nic().rx_frames());
    d.add(host.nic().ring_drops());
    d.add(host.nic().irqs());
    d.add(host.allocator().pages_created());
    d.add_signed(host.allocator().live_pages());
    d.add(host.allocator().remote_frees());
    const HostStats& st = stack.stats();
    d.add(st.acks_sent);
    d.add(st.acks_received);
    d.add(st.dup_acks);
    d.add(st.retransmits);
    d.add(st.rcv_queue_drops);
    d.add(st.copy_reads.hits());
    d.add(st.copy_reads.misses());
    const ChurnStats& churn = stack.churn();
    d.add(churn.syns_sent);
    d.add(churn.accepts);
    d.add(churn.time_wait_entered);
    d.add(churn.socket_table_peak);
  }
  if (Switch* fabric = cluster.fabric()) {
    d.add(fabric->forwarded());
    d.add(fabric->dropped());
    d.add(fabric->ecn_marked());
    d.add_signed(fabric->peak_queue_bytes());
  }
  if (workload.open_loop != nullptr) {
    for (const workload::RequestRecord& r : workload.open_loop->records()) {
      d.add_signed(r.arrival);
      d.add_signed(r.completion);
      d.add_signed(r.bytes);
    }
  }
  return d.value();
}

// --- Workloads ----------------------------------------------------------

struct Spec {
  std::string name;
  ExperimentConfig config;
  Nanos slice = kMillisecond;  ///< window timing granularity
  Nanos drain = 0;  ///< simulated time run after the window (open loop)
  bool neighbor_exchange = false;  ///< cluster64's flows, not a Pattern
  /// Shard count of the instance the serial digests are checked against;
  /// 1 = no sharded check.
  int check_shards = 1;
};

/// fig. 5 one-to-one at 24 flows: the fig05_one_to_one campaign's point.
Spec bulk_2host(bool quick) {
  Spec s;
  s.name = "bulk_2host";
  s.config.traffic.pattern = Pattern::one_to_one;
  s.config.traffic.flows = 24;
  s.config.warmup = (quick ? 5 : 25) * kMillisecond;
  s.config.duration = (quick ? 5 : 25) * kMillisecond;
  return s;
}

/// The workload_matrix campaign's 60k rps / log-normal / fan-out 4 point.
Spec rpc_openloop(bool quick) {
  Spec s;
  s.name = "rpc_openloop";
  ExperimentConfig& c = s.config;
  c.traffic.pattern = Pattern::open_loop;
  c.traffic.flows = 8;
  c.traffic.rpc_size = 4 * kKiB;
  c.topology.num_hosts = 5;
  c.topology.use_switch = true;
  c.topology.switch_buffer = 256 * kKiB;
  c.topology.switch_ecn_bytes = 64 * kKiB;
  c.warmup = (quick ? 5 : 10) * kMillisecond;
  c.duration = (quick ? 5 : 25) * kMillisecond;
  c.traffic.workload.enabled = true;
  c.traffic.workload.rate_rps = 60'000;
  c.traffic.workload.sizes = SizeDist::lognormal;
  c.traffic.workload.fan_out = 4;
  c.traffic.workload.churn_prob = 0.02;
  c.traffic.workload.slo = 500 * kMicrosecond;
  // Requests arriving late in the window get two SLOs to complete.
  s.drain = 2 * c.traffic.workload.slo;
  return s;
}

/// bench_engine's neighbor exchange: host i streams to i+1 and i+2.
Spec cluster64(bool quick) {
  Spec s;
  s.name = "cluster64";
  s.config.topology.num_hosts = quick ? 16 : 64;
  s.config.warmup = (quick ? 1 : 2) * kMillisecond;
  s.config.duration = (quick ? 2 : 5) * kMillisecond;
  s.slice = kMillisecond / 2;
  s.neighbor_exchange = true;
  s.check_shards = 2;
  return s;
}

std::optional<Spec> find_spec(const std::string& name, bool quick) {
  if (name == "bulk_2host") return bulk_2host(quick);
  if (name == "rpc_openloop") return rpc_openloop(quick);
  if (name == "cluster64") return cluster64(quick);
  return std::nullopt;
}

Workload build(const Spec& spec, Cluster& cluster) {
  if (!spec.neighbor_exchange) {
    return build_workload(cluster, spec.config.traffic);
  }
  Workload workload;
  const int hosts = cluster.num_hosts();
  for (int i = 0; i < hosts; ++i) {
    for (int hop = 1; hop <= 2; ++hop) {
      const int dst = (i + hop) % hosts;
      const int core = hop - 1;
      auto ends = cluster.make_flow(Cluster::FlowEndpoint{i, core},
                                    Cluster::FlowEndpoint{dst, core},
                                    /*explicit_irq_mapping=*/false);
      workload.long_senders.push_back(std::make_unique<LongFlowSender>(
          cluster.host(i).core(core), *ends.at_sender,
          spec.config.traffic.sender_chunk));
      workload.long_receivers.push_back(std::make_unique<LongFlowReceiver>(
          cluster.host(dst).core(core), *ends.at_receiver,
          spec.config.traffic.app_chunk));
    }
  }
  return workload;
}

// --- One simulation instance ---------------------------------------------

/// Per-layer counters of one instance (sim-domain unless noted).
using Layers = std::map<std::string, double>;

/// Every per-layer metric the traced mode prints, with its unit.  Host
/// time: the spans' durations; everything else is simulated-domain.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"bench.total_s", "s"},
    {"sim.events", "count"},
    {"sim.events_per_sim_ms", "1/ms"},
    {"sim.events_per_s", "1/s"},
    {"sim.slice_s_p50", "s"},
    {"sim.slice_s_max", "s"},
    {"sim.pending_peak", "count"},
    {"sim.warmup_s", "s"},
    {"sim.invariants_s", "s"},
    {"sim.shard_imbalance", "ratio"},
    {"sim.shard_speedup", "ratio"},
    {"core.cluster_build_s", "s"},
    {"core.cluster_build_rss_mb", "MiB"},
    {"core.workload_build_s", "s"},
    {"app.start_s", "s"},
    {"cpu.rx_cores", "cores"},
    {"cpu.tx_cores", "cores"},
    {"cpu.rx_copy_frac", "ratio"},
    {"cpu.tasks_run", "count"},
    {"cpu.context_switches", "count"},
    {"hw.nic.rx_frames", "count"},
    {"hw.nic.irqs", "count"},
    {"hw.nic.ring_drops", "count"},
    {"hw.nic.drop_ratio", "ratio"},
    {"hw.llc.rx_miss_rate", "ratio"},
    {"hw.switch.forwarded", "count"},
    {"hw.switch.drops", "count"},
    {"hw.switch.ecn_marks", "count"},
    {"hw.switch.peak_queue_kb", "KiB"},
    {"mem.pageset_miss", "ratio"},
    {"mem.pages_created", "count"},
    {"mem.live_pages", "count"},
    {"mem.remote_frees", "count"},
    {"net.mean_skb_kb", "KiB"},
    {"net.acks_received", "count"},
    {"net.retransmits", "count"},
    {"net.retransmit_ratio", "ratio"},
    {"net.rcv_queue_drops", "count"},
    {"net.syns_sent", "count"},
    {"net.accepts", "count"},
    {"net.listen_overflows", "count"},
    {"net.time_wait_peak", "count"},
    {"net.socket_table_peak", "count"},
    {"workload.offered", "count"},
    {"workload.completed", "count"},
    {"workload.completed_ratio", "ratio"},
    {"workload.goodput_gbps", "Gbps"},
    {"workload.latency_p50_us", "us"},
    {"workload.latency_p99_us", "us"},
    {"workload.queue_p99_us", "us"},
    {"workload.records", "count"},
};

struct Instance {
  double setup_s = 0.0;
  double window_s = 0.0;  ///< host seconds spent running the window
  double total_s = 0.0;
  std::uint64_t warmup_digest = 0;
  std::uint64_t digest = 0;
  std::size_t violations = 0;
  std::string violation_report;
  double tpc_gbps = 0.0;  ///< throughput per core (paper's definition)
  std::uint64_t offered = 0;
  std::uint64_t failed_requests = 0;
  int shards_run = 1;
  std::vector<double> slice_s;
  Layers layers;
};

struct HostSnap {
  std::vector<Nanos> busy;
  std::vector<CycleAccount> accounts;
  std::uint64_t pageset_hits = 0;
  std::uint64_t pageset_misses = 0;
  Bytes delivered = 0;
};

HostSnap snap(Host& host) {
  HostSnap s;
  for (int c = 0; c < host.num_cores(); ++c) {
    s.busy.push_back(host.core(c).busy_time());
    s.accounts.push_back(host.core(c).account());
  }
  s.pageset_hits = host.allocator().pageset_stats().hits();
  s.pageset_misses = host.allocator().pageset_stats().misses();
  s.delivered = host.stack().total_delivered_to_app();
  return s;
}

/// Cores busy over the window (sum) and the busiest single core.
double cores_used(Host& host, const HostSnap& before, Nanos window,
                  double* peak) {
  double used = 0.0;
  for (int c = 0; c < host.num_cores(); ++c) {
    const double util =
        static_cast<double>(host.core(c).busy_time() -
                            before.busy[static_cast<std::size_t>(c)]) /
        static_cast<double>(window);
    used += util;
    *peak = std::max(*peak, util);
  }
  return used;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Runs one whole simulation of `spec` at `shards`.  With `prefix_only`
/// it stops after the warmup (the sharded check of an untraced cluster64
/// run).  `layers` asks for the per-layer counters.
Instance run_instance(const Spec& spec, int shards, SpanTracer* tracer,
                      int index, bool prefix_only, bool layers) {
  Instance out;
  ExperimentConfig config = spec.config;
  config.shards = shards;
  const Nanos warmup = config.warmup;
  const Nanos window_end = warmup + config.duration;

  Span instance_span(tracer, "instance", index);
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<Cluster> cluster;
  Workload workload;
  {
    Span span(tracer, "cluster_build", index);
    const double rss_before = layers ? proc_status_mib("VmRSS") : 0.0;
    const Clock::time_point t = Clock::now();
    cluster = std::make_unique<Cluster>(config);
    out.layers["core.cluster_build_s"] = seconds_between(t, Clock::now());
    if (layers) {
      out.layers["core.cluster_build_rss_mb"] =
          proc_status_mib("VmRSS") - rss_before;
    }
  }
  {
    Span span(tracer, "workload_build", index);
    const Clock::time_point t = Clock::now();
    workload = build(spec, *cluster);
    out.layers["core.workload_build_s"] = seconds_between(t, Clock::now());
  }
  {
    Span span(tracer, "app_start", index);
    const Clock::time_point t = Clock::now();
    workload.start();
    out.layers["app.start_s"] = seconds_between(t, Clock::now());
  }
  out.setup_s = seconds_between(t0, Clock::now());
  out.shards_run = cluster->num_shards();
  {
    Span span(tracer, "warmup", index);
    const Clock::time_point t = Clock::now();
    cluster->run_until(warmup);
    out.layers["sim.warmup_s"] = seconds_between(t, Clock::now());
  }
  out.warmup_digest = digest_of(*cluster, workload);
  if (prefix_only) {
    out.digest = out.warmup_digest;
    return out;
  }

  Cluster& c = *cluster;
  const int num_hosts = c.num_hosts();
  std::vector<HostSnap> before;
  for (int h = 0; h < num_hosts; ++h) {
    before.push_back(snap(c.host(h)));
    c.host(h).stack().begin_measurement();
  }
  const std::uint64_t events_before = c.events_executed();
  std::size_t pending_peak = 0;
  {
    Span span(tracer, "window", index);
    for (Nanos at = warmup; at < window_end;) {
      const Nanos next = std::min(window_end, at + spec.slice);
      Span slice(tracer, "slice", index);
      const Clock::time_point t = Clock::now();
      c.run_until(next);
      out.slice_s.push_back(seconds_between(t, Clock::now()));
      pending_peak = std::max(pending_peak, c.events_pending());
      at = next;
    }
  }
  for (double s : out.slice_s) out.window_s += s;
  const std::uint64_t window_events = c.events_executed() - events_before;
  // Cores busy over the window, on the sending side (hosts 0..H-2) and
  // the receiving side (host H-1), with each side's busiest core.
  const Nanos window = config.duration;
  const int rx = num_hosts - 1;
  double tx_cores = 0.0, tx_peak = 0.0, rx_peak = 0.0;
  for (int h = 0; h < rx; ++h) {
    tx_cores += cores_used(c.host(h), before[static_cast<std::size_t>(h)],
                           window, &tx_peak);
  }
  const double rx_cores = cores_used(
      c.host(rx), before[static_cast<std::size_t>(rx)], window, &rx_peak);
  if (spec.drain > 0) {
    Span span(tracer, "drain", index);
    c.run_until(window_end + spec.drain);
  }

  Metrics metrics;
  {
    Span span(tracer, "harvest", index);
    if (workload.open_loop != nullptr) {
      workload.open_loop->harvest(warmup, window_end, metrics);
    }
    // Goodput: bytes of the requests and echoed responses that arrived
    // in the window and completed.  Stack::total_delivered_to_app() only
    // sums live sockets, so its window delta is wrong under churn.
    Bytes app_bytes = 0;
    if (workload.open_loop != nullptr) {
      for (const workload::RequestRecord& r : metrics.workload_records) {
        if (r.arrival < warmup || r.arrival >= window_end) continue;
        const Nanos slo = config.traffic.workload.slo;
        const bool late =
            r.completion >= 0 && r.completion - r.arrival > slo;
        if (r.completion >= 0) app_bytes += 2 * r.bytes;
        if (r.completion < 0 || late || r.redispatches > 0) {
          ++out.failed_requests;
        }
      }
      out.offered = metrics.workload.offered;
    } else {
      for (int h = 0; h < num_hosts; ++h) {
        app_bytes += c.host(h).stack().total_delivered_to_app() -
                     before[static_cast<std::size_t>(h)].delivered;
      }
    }
    // Throughput per core as the paper and Experiment::run define it:
    // app bytes over the window per core busy on the bottleneck side.
    const double gbps = to_gbps(app_bytes, window);
    out.tpc_gbps = ratio(gbps, tx_peak > rx_peak ? tx_cores : rx_cores);

    if (layers) {
      Layers& L = out.layers;
      const double events = static_cast<double>(window_events);
      L["sim.events"] = events;
      L["sim.events_per_sim_ms"] = events / (to_seconds(window) * 1e3);
      L["sim.events_per_s"] = ratio(events, out.window_s);
      L["sim.pending_peak"] = static_cast<double>(pending_peak);
      double max_exec = 0.0, sum_exec = 0.0;
      for (int s = 0; s < c.num_shards(); ++s) {
        const double e = static_cast<double>(c.shard_loop(s).executed());
        max_exec = std::max(max_exec, e);
        sum_exec += e;
      }
      L["sim.shard_imbalance"] = ratio(max_exec, sum_exec / c.num_shards());

      CycleAccount rx_cycles;
      std::uint64_t tasks = 0, switches = 0;
      for (int h = 0; h < num_hosts; ++h) {
        Host& host = c.host(h);
        for (int k = 0; k < host.num_cores(); ++k) {
          tasks += host.core(k).tasks_run();
          switches += host.core(k).context_switches();
          if (h == rx) {
            rx_cycles.merge(host.core(k).account().delta_since(
                before[static_cast<std::size_t>(h)]
                    .accounts[static_cast<std::size_t>(k)]));
          }
        }
      }
      L["cpu.rx_cores"] = rx_cores;
      L["cpu.tx_cores"] = tx_cores;
      L["cpu.rx_copy_frac"] = rx_cycles.fraction(CpuCategory::data_copy);
      L["cpu.tasks_run"] = static_cast<double>(tasks);
      L["cpu.context_switches"] = static_cast<double>(switches);

      double rx_frames = 0, irqs = 0, ring_drops = 0;
      double copy_hits = 0, copy_misses = 0, skb_bytes = 0, skbs = 0;
      double acks = 0, retransmits = 0, rcvq_drops = 0;
      double ps_hits = 0, ps_misses = 0, pages = 0, live = 0, remote = 0;
      double syns = 0, accepts = 0, overflows = 0, tw_peak = 0, table_peak = 0;
      for (int h = 0; h < num_hosts; ++h) {
        Host& host = c.host(h);
        const HostSnap& b = before[static_cast<std::size_t>(h)];
        rx_frames += static_cast<double>(host.nic().rx_frames());
        irqs += static_cast<double>(host.nic().irqs());
        ring_drops += static_cast<double>(host.nic().ring_drops());
        const HostStats& st = host.stack().stats();
        copy_hits += static_cast<double>(st.copy_reads.hits());
        copy_misses += static_cast<double>(st.copy_reads.misses());
        const Histogram& skb = st.skb_sizes.histogram();
        skb_bytes += skb.mean() * static_cast<double>(skb.count());
        skbs += static_cast<double>(skb.count());
        acks += static_cast<double>(st.acks_received);
        retransmits += static_cast<double>(st.retransmits);
        rcvq_drops += static_cast<double>(st.rcv_queue_drops);
        const HitRate& ps = host.allocator().pageset_stats();
        ps_hits += static_cast<double>(ps.hits() - b.pageset_hits);
        ps_misses += static_cast<double>(ps.misses() - b.pageset_misses);
        pages += static_cast<double>(host.allocator().pages_created());
        live += static_cast<double>(host.allocator().live_pages());
        remote += static_cast<double>(host.allocator().remote_frees());
        const ChurnStats& churn = host.stack().churn();
        syns += static_cast<double>(churn.syns_sent);
        accepts += static_cast<double>(churn.accepts);
        overflows += static_cast<double>(churn.listen_overflows);
        tw_peak = std::max(tw_peak, static_cast<double>(churn.time_wait_peak));
        table_peak =
            std::max(table_peak, static_cast<double>(churn.socket_table_peak));
      }
      L["hw.nic.rx_frames"] = rx_frames;
      L["hw.nic.irqs"] = irqs;
      L["hw.nic.ring_drops"] = ring_drops;
      L["hw.nic.drop_ratio"] = ratio(ring_drops, rx_frames);
      L["hw.llc.rx_miss_rate"] = ratio(copy_misses, copy_hits + copy_misses);
      Switch* fabric = c.fabric();
      L["hw.switch.forwarded"] =
          fabric ? static_cast<double>(fabric->forwarded()) : 0.0;
      L["hw.switch.drops"] =
          fabric ? static_cast<double>(fabric->dropped()) : 0.0;
      L["hw.switch.ecn_marks"] =
          fabric ? static_cast<double>(fabric->ecn_marked()) : 0.0;
      L["hw.switch.peak_queue_kb"] =
          fabric ? static_cast<double>(fabric->peak_queue_bytes()) / 1024.0
                 : 0.0;
      L["mem.pageset_miss"] = ratio(ps_misses, ps_hits + ps_misses);
      L["mem.pages_created"] = pages;
      L["mem.live_pages"] = live;
      L["mem.remote_frees"] = remote;
      L["net.mean_skb_kb"] = ratio(skb_bytes, skbs) / 1024.0;
      L["net.acks_received"] = acks;
      L["net.retransmits"] = retransmits;
      L["net.retransmit_ratio"] = ratio(retransmits, rx_frames);
      L["net.rcv_queue_drops"] = rcvq_drops;
      L["net.syns_sent"] = syns;
      L["net.accepts"] = accepts;
      L["net.listen_overflows"] = overflows;
      L["net.time_wait_peak"] = tw_peak;
      L["net.socket_table_peak"] = table_peak;
      const Metrics::WorkloadMetrics& w = metrics.workload;
      L["workload.offered"] = static_cast<double>(w.offered);
      L["workload.completed"] = static_cast<double>(w.completed);
      L["workload.completed_ratio"] = ratio(static_cast<double>(w.completed),
                                            static_cast<double>(w.offered));
      L["workload.latency_p50_us"] = static_cast<double>(w.latency_p50) / 1e3;
      L["workload.latency_p99_us"] = static_cast<double>(w.latency_p99) / 1e3;
      L["workload.queue_p99_us"] = static_cast<double>(w.queue_p99) / 1e3;
      L["workload.records"] =
          static_cast<double>(metrics.workload_records.size());
      L["workload.goodput_gbps"] = workload.open_loop != nullptr ? gbps : 0.0;
    }
  }
  {
    Span span(tracer, "invariants", index);
    const Clock::time_point t = Clock::now();
    InvariantChecker checker;
    c.register_invariants(checker);
    const std::vector<InvariantViolation> violations = checker.run();
    out.violations = violations.size();
    out.violation_report = InvariantChecker::format(violations);
    out.layers["sim.invariants_s"] = seconds_between(t, Clock::now());
  }
  out.total_s = seconds_between(t0, Clock::now());
  out.digest = digest_of(c, workload);
  {
    Span span(tracer, "teardown", index);
    workload = Workload{};
    cluster.reset();
  }
  return out;
}

// --- Run ----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload bulk_2host|rpc_openloop|cluster64"
               " --seed N --seconds S --trace 0|1 [--quick]"
               " [--spans-out FILE]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      a.quick = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("--seed wants a whole number");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("--seconds wants > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace wants 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

void print_metric(bool* first, const char* name, double value,
                  const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              *first ? "" : ", ", name, value, unit);
  *first = false;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  std::optional<Spec> found = find_spec(args.workload, args.quick);
  if (!found) usage(("unknown workload " + args.workload).c_str());
  Spec spec = *found;
  spec.config.seed = args.seed;

  SpanTracer tracer;
  SpanTracer* tr = args.trace ? &tracer : nullptr;
  bool correct = true;
  auto fail = [&correct](const std::string& why) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
    correct = false;
  };

  // cluster64: a sharded instance the serial ones must match — the whole
  // instance in traced mode (which also times it for sim.shard_speedup),
  // the warmup prefix otherwise.  It runs first, so it is also the
  // process's first cluster construction.
  std::optional<Instance> sharded;
  if (spec.check_shards > 1) {
    sharded = run_instance(spec, spec.check_shards, tr, -1,
                           /*prefix_only=*/!args.trace, args.trace);
  }

  // Start another instance while it is expected to end within the
  // budget, judged by the median instance so far (teardown included).
  std::vector<Instance> runs;
  std::vector<double> instance_wall;
  const Clock::time_point start = Clock::now();
  while (runs.size() < 2 ||
         seconds_between(start, Clock::now()) + median(instance_wall) <=
             args.seconds) {
    const Clock::time_point t = Clock::now();
    runs.push_back(run_instance(spec, 1, tr,
                                static_cast<int>(runs.size()),
                                /*prefix_only=*/false, args.trace));
    instance_wall.push_back(seconds_between(t, Clock::now()));
  }
  const double peak_rss_mb = proc_status_mib("VmHWM");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::fprintf(stderr,
                 "perfbench: instance %zu: setup %.4f s, window %.4f s, "
                 "total %.4f s\n",
                 i, runs[i].setup_s, runs[i].window_s, runs[i].total_s);
  }

  if (sharded && sharded->shards_run != spec.check_shards) {
    fail("the cluster ran " + std::to_string(sharded->shards_run) +
         " shard(s), not " + std::to_string(spec.check_shards));
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Instance& run : runs) {
    bool ok = true;
    if (run.violations != 0) {
      fail("invariant sweep:\n" + run.violation_report);
      ok = false;
    }
    if (run.digest != runs[0].digest) {
      fail("same-seed instances produced different digests");
      ok = false;
    }
    if (sharded && (sharded->digest != (args.trace ? run.digest
                                                   : run.warmup_digest))) {
      fail("sharded digest differs from the serial one");
      ok = false;
    }
    if (spec.config.traffic.workload.enabled) {
      attempted += run.offered;
      failed += ok ? run.failed_requests : run.offered;
    } else {
      attempted += 1;
      failed += ok ? 0 : 1;
    }
  }

  // The fidelity anchor: the fig. 5 24-flow point at this seed.
  double tpc = runs[0].tpc_gbps;
  if (spec.name != "bulk_2host") {
    Spec anchor = bulk_2host(args.quick);
    anchor.config.seed = args.seed;
    tpc = run_instance(anchor, 1, nullptr, -1, false, false).tpc_gbps;
  }
  const double paper_err =
      std::fabs(tpc - paper::kOneToOne24TpcGbps) / paper::kOneToOne24TpcGbps;

  auto collect = [&runs](double Instance::*field) {
    std::vector<double> v;
    for (const Instance& run : runs) v.push_back(run.*field);
    return v;
  };
  const double window_ms = to_seconds(spec.config.duration) * 1e3;
  std::vector<double> speeds;
  for (const Instance& run : runs) speeds.push_back(window_ms / run.window_s);

  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu instances, digest %016llx, "
               "throughput/core %.4f Gbps\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               runs.size(), static_cast<unsigned long long>(runs[0].digest),
               tpc);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  if (!args.trace) {
    print_metric(&first, "setup_s", median(collect(&Instance::setup_s)), "s");
    print_metric(&first, "sim_ms_per_s", median(speeds), "ms/s");
    print_metric(&first, "total_s", median(collect(&Instance::total_s)), "s");
    print_metric(&first, "peak_rss_mb", peak_rss_mb, "MiB");
    print_metric(&first, "paper_err", paper_err, "ratio");
  } else {
    // Host-time layer metrics: medians over the instances.  Sim-domain
    // counters: the last instance (every instance reads the same).
    Layers layers = runs.back().layers;
    for (const char* name :
         {"core.cluster_build_s", "core.workload_build_s", "app.start_s",
          "sim.warmup_s", "sim.invariants_s", "sim.events_per_s"}) {
      std::vector<double> v;
      for (const Instance& run : runs) v.push_back(run.layers.at(name));
      layers[name] = median(v);
    }
    layers["core.cluster_build_rss_mb"] =
        (sharded ? sharded->layers : runs[0].layers)
            .at("core.cluster_build_rss_mb");
    std::vector<double> slices;
    for (const Instance& run : runs) {
      slices.insert(slices.end(), run.slice_s.begin(), run.slice_s.end());
    }
    layers["sim.slice_s_p50"] = median(slices);
    layers["sim.slice_s_max"] = *std::max_element(slices.begin(), slices.end());
    // Serial instances report imbalance 1; the sharded one is the signal.
    if (sharded) {
      layers["sim.shard_imbalance"] = sharded->layers.at("sim.shard_imbalance");
      layers["sim.shard_speedup"] =
          median(collect(&Instance::window_s)) / sharded->window_s;
    } else {
      layers["sim.shard_speedup"] = 1.0;
    }
    layers["bench.total_s"] = median(collect(&Instance::total_s));
    for (const auto& [name, unit] : kLayerMetrics) {
      print_metric(&first, name, layers.at(name), unit);
    }
    if (!args.spans_out.empty()) tracer.write_jsonl(args.spans_out);
  }
  std::printf("}}\n");
  return 0;
}
