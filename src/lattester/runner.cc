#include "lattester/runner.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "sim/scheduler.h"

namespace xp::lat {

namespace {

using hw::PmemNamespace;
using sim::ThreadCtx;
using sim::Time;

// Large application accesses are executed in chunks of at most this many
// bytes per scheduler step, so one thread's multi-KB access doesn't
// execute atomically ahead of other threads' earlier operations. Eight
// cache lines per step keeps cross-thread interleaving fine enough that
// shared-resource reservations stay close to global time order.
//
// With a single thread there is nothing to interleave against, so the
// whole access runs as one scheduler step — the simulator charges time
// per 64 B line regardless of how an access is split into calls, so the
// results are identical and the per-step scheduler dispatch disappears
// from multi-MB accesses (Fig 14's 16 MB writes are 32768 steps
// otherwise). The only call-pattern dependence is kStoreClwb's
// flush_every loop, which restarts at every chunk boundary; the merge is
// applied only when flush boundaries are unchanged by it (flush_every
// divides kStepChunk, or the flush-at-end mode).
constexpr std::size_t kStepChunk = 512;

// Source/sink buffers are sized once per thread and reused for every op.
// They are capped: the pattern written (b * 131 + i, truncated to a
// byte) has period 256, so indexing a capped buffer modulo its size
// yields byte-for-byte the bytes a full access-sized buffer would, as
// long as 256 divides the cap. Before the cap, a 16 MB-access sweep with
// 24 threads allocated and patterned 384 MB of host memory per point.
constexpr std::size_t kBufCap = 64 << 10;
static_assert(kBufCap % 256 == 0 && kStepChunk % 256 == 0);

struct ThreadState {
  std::uint64_t slice_start = 0;
  std::uint64_t slice_len = 0;
  std::uint64_t cursor = 0;
  std::uint64_t ops = 0;
  std::uint64_t ops_in_window = 0;
  std::uint64_t bytes_in_window = 0;
  sim::Histogram latency;
  std::vector<std::uint8_t> buf;

  // Current (possibly chunked) access.
  bool op_active = false;
  bool op_is_read = false;  // for kMixed
  std::uint64_t op_off = 0;
  std::size_t op_pos = 0;
  Time op_start = 0;
};

std::uint64_t pick_offset(const WorkloadSpec& spec, ThreadCtx& ctx,
                          ThreadState& st, const hw::Platform& platform) {
  const std::uint64_t acc = spec.access_size;
  if (spec.dimms_per_thread > 0) {
    // Fig 16: each thread only touches `dimms_per_thread` channels.
    const unsigned channels = platform.timing().channels_per_socket;
    const std::uint64_t chunk = platform.timing().interleave_chunk;
    const unsigned n = std::min(spec.dimms_per_thread, channels);
    const unsigned channel =
        (ctx.id() + static_cast<unsigned>(ctx.rng().uniform(n))) % channels;
    const std::uint64_t stripes = spec.region_size / (chunk * channels);
    const std::uint64_t stripe =
        ctx.rng().uniform(std::max<std::uint64_t>(stripes, 1));
    const std::uint64_t within =
        ctx.rng().uniform(std::max<std::uint64_t>(chunk / acc, 1)) * acc;
    return stripe * chunk * channels + channel * chunk + within;
  }
  if (spec.pattern == Pattern::kRand) {
    const std::uint64_t slots = std::max<std::uint64_t>(st.slice_len / acc, 1);
    return st.slice_start + ctx.rng().uniform(slots) * acc;
  }
  const std::uint64_t step =
      spec.pattern == Pattern::kStride ? std::max(spec.stride, acc) : acc;
  const std::uint64_t off = st.slice_start + st.cursor;
  st.cursor += step;
  if (st.cursor + acc > st.slice_len) st.cursor = 0;
  return off;
}

// Execute bytes [st.op_pos, st.op_pos + len) of the current access. The
// range may exceed the buffer cap; it is walked in buffer-window pieces,
// indexing the buffer modulo its size (see kBufCap for why the bytes
// match an uncapped buffer).
void access_chunk(const WorkloadSpec& spec, PmemNamespace& ns, ThreadCtx& ctx,
                  ThreadState& st, std::size_t len) {
  const bool final_chunk = st.op_pos + len >= spec.access_size;
  std::size_t pos = st.op_pos;
  std::size_t remaining = len;
  while (remaining > 0) {
    const std::size_t win = pos % st.buf.size();
    const std::size_t n = std::min(remaining, st.buf.size() - win);
    const std::uint64_t off = st.op_off + pos;
    auto data = std::span<const std::uint8_t>(st.buf.data() + win, n);
    auto out = std::span<std::uint8_t>(st.buf.data() + win, n);
    switch (spec.op) {
      case Op::kLoad:
        ns.load(ctx, off, out);
        break;
      case Op::kNtStore:
        ns.ntstore(ctx, off, data);
        break;
      case Op::kStoreClwb: {
        if (spec.flush_every == 0) {
          // Flush the whole access only after its last chunk (Fig 14's
          // "clwb(write size)" mode).
          ns.store(ctx, off, data);
        } else {
          const std::size_t step = spec.flush_every;
          for (std::size_t p = 0; p < n; p += step) {
            const std::size_t m = std::min(step, n - p);
            ns.store(ctx, off + p, data.subspan(p, m));
            ns.clwb(ctx, off + p, m);
          }
        }
        break;
      }
      case Op::kStore:
        ns.store(ctx, off, data);
        break;
      case Op::kMixed:
        if (st.op_is_read) {
          ns.load(ctx, off, out);
        } else {
          ns.ntstore(ctx, off, data);
        }
        break;
    }
    pos += n;
    remaining -= n;
  }
  if (spec.op == Op::kStoreClwb && spec.flush_every == 0 && final_chunk)
    ns.clwb(ctx, st.op_off, spec.access_size);
}

}  // namespace

Result run(hw::Platform& platform, hw::PmemNamespace& ns,
           const WorkloadSpec& spec) {
  const Time window_start = spec.warmup;
  const Time window_end = spec.warmup + spec.duration;

  auto states = std::make_unique<ThreadState[]>(spec.threads);
  const std::uint64_t acc = spec.access_size;
  for (unsigned i = 0; i < spec.threads; ++i) {
    ThreadState& st = states[i];
    if (spec.dimms_per_thread == 0) {
      std::uint64_t slice = spec.region_size / spec.threads;
      slice = std::max<std::uint64_t>(slice / acc * acc, acc);
      st.slice_start =
          std::min<std::uint64_t>(i * slice, spec.region_size - slice);
      st.slice_len = slice;
    } else {
      st.slice_start = 0;
      st.slice_len = spec.region_size;
    }
    st.buf.resize(std::max<std::size_t>(std::min<std::size_t>(acc, kBufCap),
                                        64));
    for (std::size_t b = 0; b < st.buf.size(); ++b)
      st.buf[b] = static_cast<std::uint8_t>(b * 131 + i);
    // Stagger sequential cursors so same-speed threads don't phase-lock
    // on the same interleave channel.
    if (spec.pattern != Pattern::kRand) {
      const std::uint64_t slots =
          std::max<std::uint64_t>(st.slice_len / acc, 1);
      st.cursor = ((i * 2654435761ULL) % slots) * acc;
      if (st.cursor + acc > st.slice_len) st.cursor = 0;
    }
  }

  // Each run is an independent measurement epoch: simulated threads start
  // at time 0, so stale reservations from a previous run must be cleared.
  platform.reset_timing();

  const hw::XpCounters before = ns.xp_counters();

  // Single thread: run each access as one scheduler step (see kStepChunk;
  // timing is unchanged, the dispatch overhead isn't). Guarded so the
  // kStoreClwb store/clwb call pattern stays exactly as chunked execution
  // would produce it.
  const bool whole_op_steps =
      spec.threads == 1 &&
      (spec.op != Op::kStoreClwb || spec.flush_every == 0 ||
       kStepChunk % spec.flush_every == 0);
  const std::size_t step_chunk = whole_op_steps ? spec.access_size
                                                : kStepChunk;

  sim::Scheduler sched;
  for (unsigned i = 0; i < spec.threads; ++i) {
    ThreadState* st = &states[i];
    ThreadCtx::Options opts;
    opts.id = i;
    opts.socket = spec.socket;
    opts.mlp = spec.mlp ? spec.mlp : platform.timing().default_mlp;
    opts.seed = spec.seed * 7919 + i;
    sched.spawn(opts, [&, st](ThreadCtx& ctx) -> bool {
      if (!st->op_active) {
        if (ctx.now() >= window_end) return false;
        if (spec.max_ops_per_thread != 0 &&
            st->ops >= spec.max_ops_per_thread)
          return false;
        st->op_off = pick_offset(spec, ctx, *st, platform);
        st->op_pos = 0;
        st->op_start = ctx.now();
        st->op_is_read = ctx.rng().uniform_double() < spec.read_fraction;
        st->op_active = true;
      }
      const std::size_t len =
          std::min(step_chunk, spec.access_size - st->op_pos);
      access_chunk(spec, ns, ctx, *st, len);
      st->op_pos += len;
      if (st->op_pos < spec.access_size) return true;

      // Access complete.
      st->op_active = false;
      if (spec.fence_each_op) {
        if (spec.op == Op::kLoad) {
          ns.mfence(ctx);
        } else {
          ns.sfence(ctx);
        }
      }
      const Time end = ctx.now();
      ++st->ops;
      if (st->op_start >= window_start && end <= window_end) {
        ++st->ops_in_window;
        st->bytes_in_window += spec.access_size;
        st->latency.record(end - st->op_start);
      }
      if (spec.delay_between_ops != 0) ctx.advance_by(spec.delay_between_ops);
      return true;
    });
  }
  sched.run();

  // Close the telemetry interval at the measurement-window boundary so
  // timeline samplers always get a final sample (no-op when no sink).
  if (hw::TelemetrySink* sink = platform.telemetry())
    sink->run_complete("lattester", window_start, window_end);

  Result r;
  r.window = spec.duration;
  for (unsigned i = 0; i < spec.threads; ++i) {
    r.ops += states[i].ops_in_window;
    r.bytes += states[i].bytes_in_window;
    r.latency.merge(states[i].latency);
  }
  r.bandwidth_gbps = sim::gbps(r.bytes, r.window);
  r.xp_delta = ns.xp_counters() - before;
  r.ewr = r.xp_delta.ewr();
  return r;
}

}  // namespace xp::lat
