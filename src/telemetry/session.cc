#include "telemetry/session.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <span>

#include "xpsim/platform.h"

namespace xp::telemetry {

namespace {

// Sampler ring slots, and the cap on events one trace file holds.
constexpr std::size_t kRingCapacity = 1024;
constexpr std::size_t kMaxTraceEvents = std::size_t{1} << 20;

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

// num / den, or null where den is zero.
void append_ratio(std::string& out, std::uint64_t num, std::uint64_t den) {
  if (den == 0) {
    out += "null";
    return;
  }
  append_double(out, static_cast<double>(num) / static_cast<double>(den));
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

// [e0,e1,...]: `element(i)` appends element i of n.
template <typename Element>
void append_list(std::string& out, std::size_t n, Element element) {
  out += '[';
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) out += ',';
    element(i);
  }
  out += ']';
}

// ,"key":v — an extra field of a count section.
std::string field(const char* key, std::uint64_t v) {
  return std::string(",\"") + key + "\":" + std::to_string(v);
}

std::uint64_t sum(std::span<const std::uint64_t> counts) {
  return std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
}

// The count section ,"section":{"<kind>":n,...<extra>}: one field per
// kind, then `extra` (pre-rendered ,"key":value fields). An `optional`
// section whose counts are all zero is left out, so fault-free,
// default-configuration summaries (such as the one fig09 prints, hashed
// in BENCH_figs.sha256) carry only the sections every run has.
void append_counts(std::string& out, const char* section,
                   std::span<const char* const> names,
                   std::span<const std::uint64_t> counts, bool optional,
                   const std::string& extra = {}) {
  if (optional && sum(counts) == 0) return;
  out += ",\"";
  out += section;
  out += "\":{";
  bool first = true;
  for (std::size_t k = 0; k < counts.size(); ++k)
    append_kv(out, names[k], counts[k], &first);
  out += extra;
  out += '}';
}

// One sample of the timeline and the interval it closes: its time, each
// DIMM's gauges at that time and byte-counter growth since the sample
// before, and that growth's iMC bytes summed over DIMMs. The first sample
// opens the timeline and closes nothing (dt 0, no growth).
struct Interval {
  sim::Time t = 0;
  sim::Time dt = 0;
  std::vector<Sampler::DimmSample> dimms;
  std::uint64_t imc_write_bytes = 0;
  std::uint64_t imc_read_bytes = 0;
};

// The one walk over the sampled timeline; finish()'s counter tracks and
// the summary timeline both read it.
std::vector<Interval> intervals(const Sampler& sampler) {
  const auto& ss = sampler.samples();
  std::vector<Interval> out(ss.size());
  for (std::size_t i = 0; i < ss.size(); ++i) {
    const Sampler::Sample& prev = ss[i > 0 ? i - 1 : 0];
    Interval& iv = out[i];
    iv.t = ss[i].t;
    iv.dt = ss[i].t - prev.t;
    iv.dimms = ss[i].dimms;
    for (std::size_t d = 0; d < iv.dimms.size(); ++d) {
      Sampler::DimmSample& g = iv.dimms[d];
      g.imc_read_bytes -= prev.dimms[d].imc_read_bytes;
      g.imc_write_bytes -= prev.dimms[d].imc_write_bytes;
      g.media_read_bytes -= prev.dimms[d].media_read_bytes;
      g.media_write_bytes -= prev.dimms[d].media_write_bytes;
      iv.imc_write_bytes += g.imc_write_bytes;
      iv.imc_read_bytes += g.imc_read_bytes;
    }
  }
  return out;
}

// "write_gbps":w,"read_gbps":r — the interval's iMC bandwidth.
void append_bandwidth(std::string& out, const Interval& iv) {
  out += "\"write_gbps\":";
  append_double(out, sim::gbps(iv.imc_write_bytes, iv.dt));
  out += ",\"read_gbps\":";
  append_double(out, sim::gbps(iv.imc_read_bytes, iv.dt));
}

// The summary timeline, one entry per interval the samples close (every
// entry of `ivs` but the first): per-DIMM EWR (null where no media writes
// happened) and ERR = media read bytes / iMC read bytes (null where the
// DIMM served no interface reads), aggregate iMC bandwidth, and per-DIMM
// gauges at interval end.
void append_timeline(std::string& out, const std::vector<Interval>& ivs) {
  append_list(out, ivs.empty() ? 0 : ivs.size() - 1, [&](std::size_t k) {
    const Interval& iv = ivs[k + 1];
    const auto per_dimm = [&](const char* key, auto value) {
      out += key;
      append_list(out, iv.dimms.size(),
                  [&](std::size_t d) { value(iv.dimms[d]); });
    };
    out += "{\"t_us\":";
    append_double(out, sim::to_us(iv.t));
    per_dimm(",\"ewr\":", [&](const Sampler::DimmSample& g) {
      append_ratio(out, g.imc_write_bytes, g.media_write_bytes);
    });
    per_dimm(",\"err\":", [&](const Sampler::DimmSample& g) {
      append_ratio(out, g.media_read_bytes, g.imc_read_bytes);
    });
    out += ',';
    append_bandwidth(out, iv);
    per_dimm(",\"wpq\":", [&](const Sampler::DimmSample& g) {
      append_u64(out, g.wpq_occupancy);
    });
    per_dimm(",\"buffer_dirty\":", [&](const Sampler::DimmSample& g) {
      append_u64(out, g.buffer_dirty_lines);
    });
    out += '}';
  });
}

}  // namespace

std::string trace_path_from_args(int argc, char** argv) {
  const char* path = nullptr;
  const char* source = "--trace";
  for (int i = 1; i < argc && path == nullptr; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0)
      path = i + 1 < argc ? argv[i + 1] : "";
    else if (std::strncmp(argv[i], "--trace=", 8) == 0)
      path = argv[i] + 8;
  }
  if (path == nullptr) {
    path = std::getenv("XP_TRACE");
    source = "XP_TRACE";
    if (path == nullptr || *path == '\0') return {};
  }
  // The trace is written when the run ends: refuse a path it cannot take
  // now, rather than lose the trace then.
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  std::error_code ec;
  if (*path != '\0' &&
      std::filesystem::is_directory(dir.empty() ? "." : dir, ec))
    return path;
  std::fprintf(stderr,
               "%s: invalid trace path '%s' from %s (want a file in an "
               "existing directory)\n",
               argv[0], path, source);
  std::exit(2);
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

void Session::event(std::uint64_t& count, const char* name,
                    const char* category, sim::Time t, unsigned pid,
                    unsigned tid, const char* arg_key, std::uint64_t arg) {
  ++count;
  last_event_time_ = std::max(last_event_time_, t);
  if (trace_)
    trace_->instant(name, category, t, pid, tid,
                    arg_key == nullptr ? std::string()
                                       : trace_args(arg_key, arg));
}

void Session::persist_event(hw::PersistEventKind kind, sim::Time t,
                            std::uint64_t seq) {
  const auto k = static_cast<unsigned>(kind);
  event(persist_counts_[k], hw::kPersistEventNames[k], "persist", t, 0, 0,
        "seq", seq);
}

void Session::buffer_eviction(hw::EvictKind kind, sim::Time t, unsigned socket,
                              unsigned channel) {
  const auto k = static_cast<unsigned>(kind);
  event(evict_counts_[k], hw::kEvictNames[k], "xpbuffer", t, socket, channel);
}

void Session::ait_miss(sim::Time t, unsigned socket, unsigned channel) {
  event(ait_misses_, "ait_miss", "ait", t, socket, channel);
}

void Session::crash_fired(sim::Time t, std::uint64_t seq) {
  event(crash_points_, "crash_point", "crashmc", t, 0, 0, "persist_event",
        seq);
}

void Session::media_fault(hw::MediaFaultKind kind, sim::Time t,
                          unsigned socket, unsigned channel,
                          std::uint64_t line_off) {
  if (kind == hw::MediaFaultKind::kScrubFound) {
    // Keep the ARS bad-line list sorted and unique; repeated scrubs of a
    // still-poisoned namespace re-report the same lines.
    const auto it =
        std::lower_bound(ars_bad_lines_.begin(), ars_bad_lines_.end(),
                         line_off);
    if (it == ars_bad_lines_.end() || *it != line_off)
      ars_bad_lines_.insert(it, line_off);
  }
  const auto k = static_cast<unsigned>(kind);
  event(media_fault_counts_[k], hw::kMediaFaultNames[k], "media_fault", t,
        socket, channel, "line_off", line_off);
}

void Session::read_path(hw::ReadPathEventKind kind, sim::Time t,
                        std::uint64_t bytes) {
  const auto k = static_cast<unsigned>(kind);
  read_path_bytes_[k] += bytes;
  event(read_path_counts_[k], hw::kReadPathEventNames[k], "read_path", t, 0,
        0, "bytes", bytes);
}

void Session::resilience(hw::ResilienceEventKind kind, sim::Time t,
                         unsigned shard) {
  // Op-level events carry the no-shard sentinel: trace an empty argument
  // object rather than a plausible-looking out-of-range index.
  const auto k = static_cast<unsigned>(kind);
  event(resilience_counts_[k], hw::kResilienceEventNames[k], "resilience", t,
        0, 0, shard == hw::kResilienceNoShard ? "" : "shard", shard);
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
  if (!trace_) return true;

  // Queue-depth and bandwidth counter tracks, derived from the sampled
  // timeline so the trace stays bounded. The first sample closes no
  // interval, so it has no bandwidth.
  const unsigned channels = sampler_.channels_per_socket();
  for (const Interval& iv : intervals(sampler_)) {
    for (unsigned d = 0; d < iv.dimms.size(); ++d) {
      const Sampler::DimmSample& g = iv.dimms[d];
      std::string series = "{";
      bool first = true;
      append_kv(series, "wpq", g.wpq_occupancy, &first);
      append_kv(series, "rpq", g.rpq_occupancy, &first);
      append_kv(series, "dirty_lines", g.buffer_dirty_lines, &first);
      series += '}';
      trace_->counter("queues", iv.t, d / channels, d % channels,
                      std::move(series));
    }
    if (iv.dt > 0) {
      std::string series = "{";
      append_bandwidth(series, iv);
      series += '}';
      trace_->counter("imc_bandwidth", iv.t, 0, 0, std::move(series));
    }
  }
  if (trace_->write_file(opts_.trace_path)) return true;
  std::fprintf(stderr, "telemetry: failed to write trace to %s\n",
               opts_.trace_path.c_str());
  return false;
}

std::string Session::summary_json() const {
  const hw::XpCounters total = Snapshot::capture(platform_).xp_total();
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

  // Per-kind event counts. Evictions are keyed by kind without their
  // trace names' "evict_" prefix.
  std::array<const char*, hw::kEvictKinds> evict_keys{};
  for (unsigned k = 0; k < hw::kEvictKinds; ++k)
    evict_keys[k] = hw::kEvictNames[k] + std::strlen("evict_");
  std::array<const char*, sim::kNumSchedPoints> sched_names{};
  for (unsigned k = 0; k < sim::kNumSchedPoints; ++k)
    sched_names[k] = sim::sched_point_name(static_cast<sim::SchedPoint>(k));
  std::string ars = ",\"ars_bad_lines\":";
  append_list(ars, ars_bad_lines_.size(),
              [&](std::size_t i) { append_u64(ars, ars_bad_lines_[i]); });

  append_counts(out, "persist_events", hw::kPersistEventNames,
                persist_counts_, false, field("total", sum(persist_counts_)));
  append_counts(out, "buffer_evictions", evict_keys, evict_counts_, false);
  out += ",\"ait_misses\":";
  append_u64(out, ait_misses_);
  out += ",\"crash_points\":";
  append_u64(out, crash_points_);
  append_counts(out, "media_faults", hw::kMediaFaultNames,
                media_fault_counts_, true, ars);
  append_counts(out, "resilience", hw::kResilienceEventNames,
                resilience_counts_, true);
  append_counts(
      out, "read_path", hw::kReadPathEventNames, read_path_counts_, true,
      field("combined_fetch_bytes",
            read_path_bytes(hw::ReadPathEventKind::kCombinedFetch)) +
          field("staged_serve_bytes",
                read_path_bytes(hw::ReadPathEventKind::kStagedServe)));
  append_counts(out, "schedmc", sched_names, sched_point_counts_, true,
                field("total", sum(sched_point_counts_)));

  out += ",\"dimm_labels\":";
  append_list(out, sampler_.dimms(), [&](std::size_t d) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "\"s%zuc%zu\"", d / channels,
                  d % channels);
    out += buf;
  });
  out += ",\"sample_interval_us\":";
  append_double(out, sim::to_us(sampler_.interval()));
  out += ",\"decimations\":";
  append_u64(out, sampler_.decimations());

  out += ",\"timeline\":";
  append_timeline(out, intervals(sampler_));
  out += '}';
  return out;
}

}  // namespace xp::telemetry
