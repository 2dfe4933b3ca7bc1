// Chrome-trace ("Trace Event Format") JSON writer.
//
// Collects instant/counter/metadata events in memory and writes a
// `{"traceEvents":[...]}` file loadable by chrome://tracing or Perfetto.
// Simulated picoseconds map to trace microseconds (ts = ps / 1e6),
// formatted with a fixed %.6f so output is byte-deterministic for a
// deterministic simulation.
//
// Event volume is bounded: past `max_events` further events are counted
// but dropped, and the drop count is recorded as a metadata event, so an
// adversarial workload cannot balloon the trace (or host memory) without
// the file saying so.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/simtime.h"

namespace xp::telemetry {

// An event's one-number argument object, {"key":value}; an empty key
// gives the empty object {}.
std::string trace_args(const char* key, std::uint64_t value);

class TraceWriter {
 public:
  explicit TraceWriter(std::size_t max_events = std::size_t{1} << 20)
      : max_events_(max_events) {}

  // ph:"i" instant event. `args_json` is either empty or a complete JSON
  // object ("{...}"); pid/tid convey (socket, channel) for device events.
  void instant(const std::string& name, const char* category, sim::Time t,
               unsigned pid, unsigned tid, std::string args_json = {});

  // ph:"C" counter event; `series_json` is the args object, one numeric
  // member per series ({"wpq":3,"rpq":1}).
  void counter(const std::string& name, sim::Time t, unsigned pid,
               unsigned tid, std::string series_json);

  // ph:"X" complete event spanning [start, start+dur].
  void complete(const std::string& name, const char* category,
                sim::Time start, sim::Time dur, unsigned pid, unsigned tid,
                std::string args_json = {});

  // ph:"M" process/thread naming metadata (ts-less).
  void name_process(unsigned pid, const std::string& name);
  void name_thread(unsigned pid, unsigned tid, const std::string& name);

  std::size_t events() const { return events_.size(); }
  std::uint64_t dropped() const { return dropped_; }

  // Serialize all events. Returns false (and leaves no partial file
  // behind its own fault — the stream is simply closed) on I/O failure.
  bool write_file(const std::string& path) const;
  std::string to_json() const;

 private:
  struct Event {
    char ph;            // 'i', 'C', 'X', 'M'
    sim::Time ts;       // ignored for 'M'
    unsigned pid, tid;
    std::string name;
    const char* cat;    // nullptr for no category
    std::string args;   // pre-rendered JSON object or empty
    sim::Time dur = 0;  // 'X' only
  };

  bool push(Event e);

  std::size_t max_events_;
  std::uint64_t dropped_ = 0;
  std::vector<Event> events_;
};

}  // namespace xp::telemetry
