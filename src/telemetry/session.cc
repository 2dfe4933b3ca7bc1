#include "telemetry/session.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "xpsim/platform.h"

namespace xp::telemetry {

namespace {

// Sampler ring slots, and the cap on events one trace file holds.
constexpr std::size_t kRingCapacity = 1024;
constexpr std::size_t kMaxTraceEvents = std::size_t{1} << 20;

const char* persist_kind_name(hw::PersistEventKind k) {
  switch (k) {
    case hw::PersistEventKind::kWpqEntry: return "wpq_entry";
    case hw::PersistEventKind::kNtStoreDrain: return "ntstore_drain";
    case hw::PersistEventKind::kWriteback: return "writeback";
    case hw::PersistEventKind::kCoherenceFlush: return "coherence_flush";
    case hw::PersistEventKind::kSfence: return "sfence";
  }
  return "unknown";
}

const char* evict_kind_name(hw::EvictKind k) {
  switch (k) {
    case hw::EvictKind::kClean: return "evict_clean";
    case hw::EvictKind::kFull: return "evict_full";
    case hw::EvictKind::kPartial: return "evict_partial";
    case hw::EvictKind::kRewrite: return "evict_rewrite";
  }
  return "evict_unknown";
}

const char* read_path_kind_name(hw::ReadPathEventKind k) {
  switch (k) {
    case hw::ReadPathEventKind::kCombinedFetch: return "combined_fetches";
    case hw::ReadPathEventKind::kStagedServe: return "staged_serves";
    case hw::ReadPathEventKind::kCacheHitLine: return "cache_hit_lines";
    case hw::ReadPathEventKind::kCacheFillLine: return "cache_fill_lines";
    case hw::ReadPathEventKind::kCacheInvalidate: return "cache_invalidations";
  }
  return "read_path_unknown";
}

const char* resilience_kind_name(hw::ResilienceEventKind k) {
  switch (k) {
    case hw::ResilienceEventKind::kDegraded: return "shards_degraded";
    case hw::ResilienceEventKind::kQuarantined: return "shards_quarantined";
    case hw::ResilienceEventKind::kRebuilding: return "shards_rebuilding";
    case hw::ResilienceEventKind::kRecovered: return "shards_recovered";
    case hw::ResilienceEventKind::kFailoverRead: return "failover_reads";
    case hw::ResilienceEventKind::kRetry: return "op_retries";
    case hw::ResilienceEventKind::kUnavailable: return "ops_unavailable";
    case hw::ResilienceEventKind::kResilverKey: return "keys_resilvered";
  }
  return "resilience_unknown";
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

// Deterministic double formatting; non-finite values become null (JSON
// has no Infinity/NaN).
void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  out += buf;
}

void append_kv(std::string& out, const char* key, std::uint64_t v,
               bool* first) {
  if (!*first) out += ',';
  *first = false;
  out += '"';
  out += key;
  out += "\":";
  append_u64(out, v);
}

}  // namespace

const char* media_fault_kind_name(hw::MediaFaultKind k) {
  switch (k) {
    case hw::MediaFaultKind::kCorrected: return "ecc_corrected";
    case hw::MediaFaultKind::kPoisoned: return "poisoned";
    case hw::MediaFaultKind::kUncorrectable: return "uncorrectable";
    case hw::MediaFaultKind::kClearedByWrite: return "cleared_by_write";
    case hw::MediaFaultKind::kScrubFound: return "scrub_found";
  }
  return "media_fault_unknown";
}

std::string trace_path_from_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc)
      return argv[i + 1];
    if (std::strncmp(argv[i], "--trace=", 8) == 0) return argv[i] + 8;
  }
  if (const char* env = std::getenv("XP_TRACE"); env != nullptr && *env)
    return env;
  return {};
}

std::string trace_point_path(const std::string& base, std::size_t index) {
  if (base.empty()) return {};
  char suffix[32];
  std::snprintf(suffix, sizeof suffix, ".point%04llu",
                static_cast<unsigned long long>(index));
  const std::size_t dot = base.rfind('.');
  const std::size_t slash = base.rfind('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return base + suffix;
  }
  return base.substr(0, dot) + suffix + base.substr(dot);
}

Session::Session(hw::Platform& platform, Options opts)
    : platform_(platform),
      opts_(std::move(opts)),
      sampler_(platform,
               {.interval = opts_.sample_interval,
                .capacity = kRingCapacity}) {
  if (!opts_.trace_path.empty()) {
    trace_ = std::make_unique<TraceWriter>(kMaxTraceEvents);
    const hw::Timing& t = platform_.timing();
    for (unsigned s = 0; s < t.sockets; ++s) {
      char name[32];
      std::snprintf(name, sizeof name, "socket%u", s);
      trace_->name_process(s, name);
      for (unsigned ch = 0; ch < t.channels_per_socket; ++ch) {
        char tn[32];
        std::snprintf(tn, sizeof tn, "channel%u", ch);
        trace_->name_thread(s, ch, tn);
      }
    }
  }
  platform_.attach_telemetry(this);
}

Session::~Session() { finish(); }

void Session::persist_event(hw::PersistEventKind kind, sim::Time t,
                            std::uint64_t seq) {
  ++persist_counts_[static_cast<unsigned>(kind)];
  last_event_time_ = std::max(last_event_time_, t);
  if (trace_) {
    std::string args = "{\"seq\":";
    append_u64(args, seq);
    args += '}';
    trace_->instant(persist_kind_name(kind), "persist", t, 0, 0,
                    std::move(args));
  }
}

void Session::buffer_eviction(hw::EvictKind kind, sim::Time t, unsigned socket,
                              unsigned channel) {
  ++evict_counts_[static_cast<unsigned>(kind)];
  last_event_time_ = std::max(last_event_time_, t);
  if (trace_)
    trace_->instant(evict_kind_name(kind), "xpbuffer", t, socket, channel);
}

void Session::ait_miss(sim::Time t, unsigned socket, unsigned channel) {
  ++ait_misses_;
  last_event_time_ = std::max(last_event_time_, t);
  if (trace_) trace_->instant("ait_miss", "ait", t, socket, channel);
}

void Session::crash_fired(sim::Time t, std::uint64_t seq) {
  ++crash_points_;
  last_event_time_ = std::max(last_event_time_, t);
  if (trace_) {
    std::string args = "{\"persist_event\":";
    append_u64(args, seq);
    args += '}';
    trace_->instant("crash_point", "crashmc", t, 0, 0, std::move(args));
  }
}

void Session::media_fault(hw::MediaFaultKind kind, sim::Time t,
                          unsigned socket, unsigned channel,
                          std::uint64_t line_off) {
  ++media_fault_counts_[static_cast<unsigned>(kind)];
  last_event_time_ = std::max(last_event_time_, t);
  if (kind == hw::MediaFaultKind::kScrubFound) {
    // Keep the ARS bad-line list sorted and unique; repeated scrubs of a
    // still-poisoned namespace re-report the same lines.
    const auto it =
        std::lower_bound(ars_bad_lines_.begin(), ars_bad_lines_.end(),
                         line_off);
    if (it == ars_bad_lines_.end() || *it != line_off)
      ars_bad_lines_.insert(it, line_off);
  }
  if (trace_) {
    std::string args = "{\"line_off\":";
    append_u64(args, line_off);
    args += '}';
    trace_->instant(media_fault_kind_name(kind), "media_fault", t, socket,
                    channel, std::move(args));
  }
}

void Session::read_path(hw::ReadPathEventKind kind, sim::Time t,
                        std::uint64_t bytes) {
  ++read_path_counts_[static_cast<unsigned>(kind)];
  read_path_bytes_[static_cast<unsigned>(kind)] += bytes;
  last_event_time_ = std::max(last_event_time_, t);
  if (trace_) {
    std::string args = "{\"bytes\":";
    append_u64(args, bytes);
    args += '}';
    trace_->instant(read_path_kind_name(kind), "read_path", t, 0, 0,
                    std::move(args));
  }
}

void Session::resilience(hw::ResilienceEventKind kind, sim::Time t,
                         unsigned shard) {
  ++resilience_counts_[static_cast<unsigned>(kind)];
  last_event_time_ = std::max(last_event_time_, t);
  if (trace_) {
    // Op-level events carry the no-shard sentinel: emit no shard field
    // rather than a plausible-looking out-of-range index.
    std::string args = "{";
    if (shard != hw::kResilienceNoShard) {
      args += "\"shard\":";
      append_u64(args, shard);
    }
    args += '}';
    trace_->instant(resilience_kind_name(kind), "resilience", t, 0, 0,
                    std::move(args));
  }
}

void Session::sched_point(unsigned kind, unsigned /*thread*/) {
  // Untimed (schedule exploration does not advance simulated clocks), so
  // no last_event_time_ update and no trace event — the counters feed the
  // schedmc summary section only.
  if (kind < sched_point_counts_.size()) ++sched_point_counts_[kind];
}

void Session::run_complete(const char* name, sim::Time start, sim::Time end) {
  last_event_time_ = std::max(last_event_time_, end);
  sampler_.sample(end);  // close the final interval at the run boundary
  if (trace_)
    trace_->complete(name != nullptr ? name : "run", "run", start,
                     end > start ? end - start : 0, 0, 0);
}

bool Session::finish() {
  if (finished_) return true;
  finished_ = true;
  if (platform_.telemetry() == this) platform_.attach_telemetry(nullptr);
  // Make sure the timeline reaches the last observed event.
  const auto& samples = sampler_.samples();
  if (samples.empty() || samples.back().t < last_event_time_)
    sampler_.sample(last_event_time_);

  bool ok = true;
  if (trace_) {
    // Queue-depth and bandwidth counter tracks, derived from the sampled
    // timeline so the trace stays bounded.
    const auto& ss = sampler_.samples();
    const unsigned channels = sampler_.channels_per_socket();
    for (std::size_t i = 0; i < ss.size(); ++i) {
      for (unsigned d = 0; d < sampler_.dimms(); ++d) {
        const Sampler::DimmSample& ds = ss[i].dimms[d];
        std::string series = "{\"wpq\":";
        append_u64(series, ds.wpq_occupancy);
        series += ",\"rpq\":";
        append_u64(series, ds.rpq_occupancy);
        series += ",\"dirty_lines\":";
        append_u64(series, ds.buffer_dirty_lines);
        series += '}';
        trace_->counter("queues", ss[i].t, d / channels, d % channels,
                        std::move(series));
      }
      if (i > 0) {
        std::uint64_t dw = 0, dr = 0;
        for (unsigned d = 0; d < sampler_.dimms(); ++d) {
          dw += ss[i].dimms[d].imc_write_bytes -
                ss[i - 1].dimms[d].imc_write_bytes;
          dr += ss[i].dimms[d].imc_read_bytes -
                ss[i - 1].dimms[d].imc_read_bytes;
        }
        const sim::Time dt = ss[i].t - ss[i - 1].t;
        std::string series = "{\"write_gbps\":";
        append_double(series, sim::gbps(dw, dt));
        series += ",\"read_gbps\":";
        append_double(series, sim::gbps(dr, dt));
        series += '}';
        trace_->counter("imc_bandwidth", ss[i].t, 0, 0, std::move(series));
      }
    }
    ok = trace_->write_file(opts_.trace_path);
  }
  return ok;
}

std::string Session::summary_json() const {
  const Snapshot snap = Snapshot::capture(platform_);
  const hw::XpCounters total = snap.xp_total();
  const unsigned channels = sampler_.channels_per_socket();

  std::string out;
  out.reserve(4096);
  out += "{\"counters\":{";
  {
    bool first = true;
    append_kv(out, "imc_read_bytes", total.imc_read_bytes, &first);
    append_kv(out, "imc_write_bytes", total.imc_write_bytes, &first);
    append_kv(out, "media_read_bytes", total.media_read_bytes, &first);
    append_kv(out, "media_write_bytes", total.media_write_bytes, &first);
    append_kv(out, "buffer_hit_reads", total.buffer_hit_reads, &first);
    append_kv(out, "buffer_miss_reads", total.buffer_miss_reads, &first);
    append_kv(out, "evictions_clean", total.evictions_clean, &first);
    append_kv(out, "evictions_full", total.evictions_full, &first);
    append_kv(out, "evictions_partial", total.evictions_partial, &first);
    append_kv(out, "ait_misses", total.ait_misses, &first);
    append_kv(out, "wear_migrations", total.wear_migrations, &first);
  }
  out += "},\"ewr\":";
  append_double(out, total.ewr());
  out += ",\"err\":";
  append_double(out, total.err());

  out += ",\"persist_events\":{";
  {
    bool first = true;
    std::uint64_t sum = 0;
    for (unsigned k = 0; k < hw::kPersistEventKinds; ++k) {
      append_kv(out, persist_kind_name(static_cast<hw::PersistEventKind>(k)),
                persist_counts_[k], &first);
      sum += persist_counts_[k];
    }
    append_kv(out, "total", sum, &first);
  }
  out += "},\"buffer_evictions\":{";
  {
    bool first = true;
    append_kv(out, "clean",
              evict_counts_[static_cast<unsigned>(hw::EvictKind::kClean)],
              &first);
    append_kv(out, "full",
              evict_counts_[static_cast<unsigned>(hw::EvictKind::kFull)],
              &first);
    append_kv(out, "partial",
              evict_counts_[static_cast<unsigned>(hw::EvictKind::kPartial)],
              &first);
    append_kv(out, "rewrite",
              evict_counts_[static_cast<unsigned>(hw::EvictKind::kRewrite)],
              &first);
  }
  out += "},\"ait_misses\":";
  append_u64(out, ait_misses_);
  out += ",\"crash_points\":";
  append_u64(out, crash_points_);

  // Media error-model section — present only when the fault-injection
  // subsystem produced events, so fault-free summaries (and the checked-in
  // BENCH_sweep.json formats) are unchanged byte for byte.
  {
    std::uint64_t any = 0;
    for (const std::uint64_t c : media_fault_counts_) any += c;
    if (any != 0 || !ars_bad_lines_.empty()) {
      out += ",\"media_faults\":{";
      bool first = true;
      for (unsigned k = 0; k < hw::kMediaFaultKinds; ++k) {
        append_kv(out,
                  media_fault_kind_name(static_cast<hw::MediaFaultKind>(k)),
                  media_fault_counts_[k], &first);
      }
      out += ",\"ars_bad_lines\":[";
      for (std::size_t i = 0; i < ars_bad_lines_.size(); ++i) {
        if (i > 0) out += ',';
        append_u64(out, ars_bad_lines_[i]);
      }
      out += "]}";
    }
  }

  // Serving-layer resilience section — present only when the sharded
  // frontend took a health transition or a request-level resilience
  // outcome, so fault-free summaries are unchanged byte for byte.
  {
    std::uint64_t any = 0;
    for (const std::uint64_t c : resilience_counts_) any += c;
    if (any != 0) {
      out += ",\"resilience\":{";
      bool first = true;
      for (unsigned k = 0; k < hw::kResilienceEventKinds; ++k) {
        append_kv(out,
                  resilience_kind_name(static_cast<hw::ResilienceEventKind>(k)),
                  resilience_counts_[k], &first);
      }
      out += '}';
    }
  }

  // Software read-path section — present only when a store ran with read
  // combining or caching enabled, so default-configuration summaries are
  // unchanged byte for byte.
  {
    std::uint64_t any = 0;
    for (const std::uint64_t c : read_path_counts_) any += c;
    if (any != 0) {
      out += ",\"read_path\":{";
      bool first = true;
      for (unsigned k = 0; k < hw::kReadPathEventKinds; ++k) {
        append_kv(out,
                  read_path_kind_name(static_cast<hw::ReadPathEventKind>(k)),
                  read_path_counts_[k], &first);
      }
      append_kv(out, "combined_fetch_bytes",
                read_path_bytes_[static_cast<unsigned>(
                    hw::ReadPathEventKind::kCombinedFetch)],
                &first);
      append_kv(out, "staged_serve_bytes",
                read_path_bytes_[static_cast<unsigned>(
                    hw::ReadPathEventKind::kStagedServe)],
                &first);
      out += '}';
    }
  }

  // Schedule-exploration section — present only when a schedmc interleaver
  // drove the run, so ordinary summaries are unchanged byte for byte.
  {
    std::uint64_t any = 0;
    for (const std::uint64_t c : sched_point_counts_) any += c;
    if (any != 0) {
      out += ",\"schedmc\":{";
      bool first = true;
      for (unsigned k = 0; k < sim::kNumSchedPoints; ++k) {
        append_kv(out, sim::sched_point_name(static_cast<sim::SchedPoint>(k)),
                  sched_point_counts_[k], &first);
      }
      append_kv(out, "total", any, &first);
      out += '}';
    }
  }

  out += ",\"dimm_labels\":[";
  for (unsigned d = 0; d < sampler_.dimms(); ++d) {
    if (d > 0) out += ',';
    char buf[32];
    std::snprintf(buf, sizeof buf, "\"s%uc%u\"", d / channels, d % channels);
    out += buf;
  }
  out += "],\"sample_interval_us\":";
  append_double(out, sim::to_us(sampler_.interval()));
  out += ",\"decimations\":";
  append_u64(out, sampler_.decimations());

  // Interval timeline: entry k covers (sample[k-1], sample[k]]. Per-DIMM
  // interval EWR (null where no media writes happened), aggregate iMC
  // bandwidth, and per-DIMM gauges at interval end.
  out += ",\"timeline\":[";
  const auto& ss = sampler_.samples();
  for (std::size_t i = 1; i < ss.size(); ++i) {
    if (i > 1) out += ',';
    const sim::Time dt = ss[i].t - ss[i - 1].t;
    out += "{\"t_us\":";
    append_double(out, sim::to_us(ss[i].t));
    out += ",\"ewr\":[";
    std::uint64_t dw_total = 0, dr_total = 0;
    for (unsigned d = 0; d < sampler_.dimms(); ++d) {
      if (d > 0) out += ',';
      const std::uint64_t imc_w =
          ss[i].dimms[d].imc_write_bytes - ss[i - 1].dimms[d].imc_write_bytes;
      const std::uint64_t media_w = ss[i].dimms[d].media_write_bytes -
                                    ss[i - 1].dimms[d].media_write_bytes;
      dw_total += imc_w;
      dr_total +=
          ss[i].dimms[d].imc_read_bytes - ss[i - 1].dimms[d].imc_read_bytes;
      if (media_w == 0) {
        out += "null";
      } else {
        append_double(out, static_cast<double>(imc_w) /
                               static_cast<double>(media_w));
      }
    }
    // Per-DIMM interval ERR = media read bytes / iMC read bytes (null
    // where the DIMM served no interface reads this interval).
    out += "],\"err\":[";
    for (unsigned d = 0; d < sampler_.dimms(); ++d) {
      if (d > 0) out += ',';
      const std::uint64_t imc_r =
          ss[i].dimms[d].imc_read_bytes - ss[i - 1].dimms[d].imc_read_bytes;
      const std::uint64_t media_r = ss[i].dimms[d].media_read_bytes -
                                    ss[i - 1].dimms[d].media_read_bytes;
      if (imc_r == 0) {
        out += "null";
      } else {
        append_double(out, static_cast<double>(media_r) /
                               static_cast<double>(imc_r));
      }
    }
    out += "],\"write_gbps\":";
    append_double(out, sim::gbps(dw_total, dt));
    out += ",\"read_gbps\":";
    append_double(out, sim::gbps(dr_total, dt));
    out += ",\"wpq\":[";
    for (unsigned d = 0; d < sampler_.dimms(); ++d) {
      if (d > 0) out += ',';
      append_u64(out, ss[i].dimms[d].wpq_occupancy);
    }
    out += "],\"buffer_dirty\":[";
    for (unsigned d = 0; d < sampler_.dimms(); ++d) {
      if (d > 0) out += ',';
      append_u64(out, ss[i].dimms[d].buffer_dirty_lines);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace xp::telemetry
