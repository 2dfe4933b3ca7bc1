#include "telemetry/trace.h"

#include <cstdio>
#include <fstream>

namespace xp::telemetry {

namespace {

// ps -> trace microseconds with fixed six decimals (exact: 1 ps = 1e-6 us).
void append_ts(std::string& out, sim::Time t) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%llu.%06llu",
                static_cast<unsigned long long>(t / 1000000),
                static_cast<unsigned long long>(t % 1000000));
  out += buf;
}

void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
}

}  // namespace

std::string trace_args(const char* key, std::uint64_t value) {
  if (*key == '\0') return "{}";
  return std::string("{\"") + key + "\":" + std::to_string(value) + '}';
}

bool TraceWriter::push(Event e) {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return false;
  }
  events_.push_back(std::move(e));
  return true;
}

void TraceWriter::instant(const std::string& name, const char* category,
                          sim::Time t, unsigned pid, unsigned tid,
                          std::string args_json) {
  push(Event{'i', t, pid, tid, name, category, std::move(args_json)});
}

void TraceWriter::counter(const std::string& name, sim::Time t, unsigned pid,
                          unsigned tid, std::string series_json) {
  push(Event{'C', t, pid, tid, name, nullptr, std::move(series_json)});
}

void TraceWriter::complete(const std::string& name, const char* category,
                           sim::Time start, sim::Time dur, unsigned pid,
                           unsigned tid, std::string args_json) {
  push(Event{'X', start, pid, tid, name, category, std::move(args_json), dur});
}

void TraceWriter::name_process(unsigned pid, const std::string& name) {
  push(Event{'M', 0, pid, 0, "process_name", nullptr,
             "{\"name\":\"" + name + "\"}"});
}

void TraceWriter::name_thread(unsigned pid, unsigned tid,
                              const std::string& name) {
  push(Event{'M', 0, pid, tid, "thread_name", nullptr,
             "{\"name\":\"" + name + "\"}"});
}

std::string TraceWriter::to_json() const {
  std::string out;
  out.reserve(events_.size() * 96 + 64);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (const Event& e : events_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_escaped(out, e.name);
    out += '"';
    if (e.cat != nullptr) {
      out += ",\"cat\":\"";
      out += e.cat;
      out += '"';
    }
    out += ",\"ph\":\"";
    out += e.ph;
    out += '"';
    if (e.ph != 'M') {
      out += ",\"ts\":";
      append_ts(out, e.ts);
      if (e.ph == 'i') out += ",\"s\":\"t\"";  // thread-scoped instant
      if (e.ph == 'X') {
        out += ",\"dur\":";
        append_ts(out, e.dur);
      }
    }
    char ids[48];
    std::snprintf(ids, sizeof ids, ",\"pid\":%u,\"tid\":%u", e.pid, e.tid);
    out += ids;
    if (!e.args.empty()) {
      out += ",\"args\":";
      out += e.args;
    }
    out += '}';
  }
  if (dropped_ > 0) {
    if (!first) out += ',';
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"trace_truncated\",\"ph\":\"M\",\"pid\":0,"
                  "\"tid\":0,\"args\":{\"dropped_events\":%llu}}",
                  static_cast<unsigned long long>(dropped_));
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ns\"}\n";
  return out;
}

bool TraceWriter::write_file(const std::string& path) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  const std::string json = to_json();
  f.write(json.data(), static_cast<std::streamsize>(json.size()));
  return static_cast<bool>(f);
}

}  // namespace xp::telemetry
