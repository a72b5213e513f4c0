#include "obs/stream.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "obs/health.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"

namespace hbd::obs {

const std::array<std::string_view, kStreamPhases> kStreamPhaseNames = {
    "spreading",     "fft",       "influence",  "ifft",
    "interpolation", "realspace", "wave_sample"};

namespace {

std::size_t round_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

/// Writer-thread-only window aggregation state.
struct StreamWriter::Window {
  std::uint64_t index = 0;  // emitted windows so far
  std::uint64_t first = 0, last = 0;
  std::size_t steps = 0;
  double wall_sum = 0.0;
  double wall_min = std::numeric_limits<double>::infinity();
  double wall_max = 0.0;
  double phases[kStreamPhases] = {0, 0, 0, 0, 0, 0, 0};
  double krylov = 0.0;
  double ep = -1.0;
  double rebuild_fraction = -1.0;
  int rebuilds = 0;
  std::uint64_t rng_draws = 0;
  // Last active tier seen in the window (-1: none reported).
  double tier = -1.0;

  void add(const StreamRecord& r) {
    if (steps == 0) first = r.step;
    last = r.step;
    ++steps;
    wall_sum += r.wall_seconds;
    wall_min = std::min(wall_min, r.wall_seconds);
    wall_max = std::max(wall_max, r.wall_seconds);
    for (std::size_t p = 0; p < kStreamPhases; ++p)
      phases[p] += r.phase_seconds[p];
    krylov += r.krylov_iters;
    if (r.e_p >= 0.0) ep = r.e_p;
    if (r.rebuild_fraction >= 0.0) rebuild_fraction = r.rebuild_fraction;
    if (r.rebuilt) ++rebuilds;
    rng_draws = r.rng_draws;
    if (r.tier >= 0.0) tier = r.tier;
  }

  void clear() {
    ++index;
    steps = 0;
    wall_sum = 0.0;
    wall_min = std::numeric_limits<double>::infinity();
    wall_max = 0.0;
    for (double& p : phases) p = 0.0;
    krylov = 0.0;
    ep = -1.0;
    rebuild_fraction = -1.0;
    rebuilds = 0;
    tier = -1.0;
  }
};

std::unique_ptr<StreamWriter> StreamWriter::from_env() {
  if constexpr (!kEnabled) return nullptr;
  const char* path = std::getenv("HBD_STREAM");
  if (!path || !*path) return nullptr;
  Options opts;
  opts.path = path;
  if (const char* iv = std::getenv("HBD_STREAM_INTERVAL")) {
    const long v = std::atol(iv);
    if (v > 0) opts.interval = static_cast<std::size_t>(v);
  }
  // Format: explicit knob wins, else the file extension decides.
  opts.csv = opts.path.size() >= 4 &&
             opts.path.compare(opts.path.size() - 4, 4, ".csv") == 0;
  if (const char* fmt = std::getenv("HBD_STREAM_FORMAT")) {
    const std::string_view f(fmt);
    if (f == "csv") opts.csv = true;
    else if (f == "ndjson" || f == "json") opts.csv = false;
  }
  return std::make_unique<StreamWriter>(std::move(opts));
}

StreamWriter::StreamWriter(Options opts) : opts_(std::move(opts)) {
  opts_.interval = std::max<std::size_t>(1, opts_.interval);
  ring_.resize(round_pow2(std::max<std::size_t>(2, opts_.capacity)));
  mask_ = ring_.size() - 1;
  if (!opts_.path.empty()) {
    out_.open(opts_.path);
    ok_ = out_.is_open();
  }
  if (ok_) write_header();
  writer_ = std::thread([this] { run(); });
}

StreamWriter::~StreamWriter() { stop(); }

void StreamWriter::write_header() {
  if (opts_.csv) {
    out_ << "window,step_first,step_last,steps,wall_sum,wall_min,wall_max";
    for (const auto& name : kStreamPhaseNames) out_ << ",phase_" << name;
    out_ << ",krylov_iters,rebuilds,rebuild_fraction,e_p,rng_draws,dropped"
            ",tier\n";
  } else {
    JsonWriter w(out_);
    w.begin_object();
    w.field("schema", "hbd.stream.v1");
    w.field("kind", "header");
    w.field("interval", static_cast<double>(opts_.interval));
    w.key("manifest");
    run_manifest().write_json(w);
    w.end_object();
    out_ << "\n";
  }
  out_.flush();
}

bool StreamWriter::push(const StreamRecord& rec) {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  if (head - tail >= ring_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  ring_[static_cast<std::size_t>(head) & mask_] = rec;
  head_.store(head + 1, std::memory_order_release);
  pushed_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::size_t StreamWriter::drain(Window& w) {
  std::size_t consumed = 0;
  std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  while (tail != head) {
    w.add(ring_[static_cast<std::size_t>(tail) & mask_]);
    ++tail;
    ++consumed;
    tail_.store(tail, std::memory_order_release);
    if (w.steps >= opts_.interval) emit(w);
  }
  return consumed;
}

void StreamWriter::emit(Window& w) {
  if (ok_) {
    const std::uint64_t drops = dropped();
    if (opts_.csv) {
      char buf[64];
      auto num = [&](double v) {
        std::snprintf(buf, sizeof(buf), "%.10g", v);
        out_ << buf;
      };
      out_ << w.index << ',' << w.first << ',' << w.last << ',' << w.steps
           << ',';
      num(w.wall_sum); out_ << ',';
      num(w.wall_min); out_ << ',';
      num(w.wall_max);
      for (std::size_t p = 0; p < kStreamPhases; ++p) {
        out_ << ',';
        num(w.phases[p]);
      }
      out_ << ',';
      num(w.krylov);
      out_ << ',' << w.rebuilds << ',';
      num(w.rebuild_fraction); out_ << ',';
      num(w.ep);
      out_ << ',' << w.rng_draws << ',' << drops << ',';
      num(w.tier);
      out_ << "\n";
    } else {
      JsonWriter jw(out_);
      jw.begin_object();
      jw.field("schema", "hbd.stream.v1");
      jw.field("kind", "window");
      jw.field("window", static_cast<double>(w.index));
      jw.field("step_first", static_cast<double>(w.first));
      jw.field("step_last", static_cast<double>(w.last));
      jw.field("steps", static_cast<double>(w.steps));
      jw.key("wall");
      jw.begin_object();
      jw.field("sum", w.wall_sum);
      jw.field("min", w.wall_min);
      jw.field("max", w.wall_max);
      jw.end_object();
      jw.key("phases");
      jw.begin_object();
      for (std::size_t p = 0; p < kStreamPhases; ++p)
        jw.field(kStreamPhaseNames[p], w.phases[p]);
      jw.end_object();
      jw.field("krylov_iters", w.krylov);
      jw.field("rebuilds", static_cast<double>(w.rebuilds));
      jw.field("rebuild_fraction", w.rebuild_fraction);
      jw.field("e_p", w.ep);
      jw.field("rng_draws", static_cast<double>(w.rng_draws));
      jw.field("dropped", static_cast<double>(drops));
      jw.field("tier", w.tier);
      jw.end_object();
      out_ << "\n";
    }
    out_.flush();
  }
  windows_.fetch_add(1, std::memory_order_relaxed);
  // Live visibility of the stream's own health in /metrics.
  HBD_GAUGE_SET("stream.windows", windows_written());
  HBD_GAUGE_SET("stream.dropped", dropped());
  w.clear();
}

void StreamWriter::run() {
  Window w;
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_requested_) {
    lk.unlock();
    drain(w);
    lk.lock();
    if (stop_requested_) break;
    cv_.wait_for(lk, std::chrono::microseconds(opts_.poll_us));
  }
  lk.unlock();
  // Final drain + partial-window flush so short runs lose nothing.
  drain(w);
  if (w.steps > 0) emit(w);
}

void StreamWriter::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopped_) return;
    stop_requested_ = true;
    stopped_ = true;
  }
  cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  HBD_GAUGE_SET("stream.pushed", pushed());
  HBD_GAUGE_SET("stream.dropped", dropped());
  HBD_GAUGE_SET("stream.windows", windows_written());
}

}  // namespace hbd::obs
