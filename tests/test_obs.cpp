// Telemetry subsystem tests: span nesting, sharded counter merge under
// OpenMP, log-histogram percentile accuracy, exporter well-formedness,
// drift-audit accounting, trajectory invariance under tracing, and the
// <2%-of-step-time overhead budget.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "core/simulation.hpp"
#include "core/system.hpp"
#include "hybrid/perf_model.hpp"
#include "hybrid/scheduler.hpp"
#include "obs/drift.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace hbd {
namespace {

ParticleSystem test_suspension(std::size_t n, double phi = 0.1) {
  const double box =
      std::cbrt(4.0 / 3.0 * 3.14159265358979 * static_cast<double>(n) / phi);
  ParticleSystem sys;
  sys.box = box;
  sys.radius = 1.0;
  sys.positions.resize(n);
  Xoshiro256 rng(7);
  for (auto& p : sys.positions) {
    p.x = rng.next_double() * box;
    p.y = rng.next_double() * box;
    p.z = rng.next_double() * box;
  }
  return sys;
}

MatrixFreeBdSimulation make_sim(std::size_t n, std::uint64_t seed = 42) {
  BdConfig config;
  config.dt = 1e-4;
  config.lambda_rpy = 4;
  config.seed = seed;
  PmeParams pp;
  pp.mesh = 24;
  pp.order = 4;
  ParticleSystem sys = test_suspension(n);
  pp.rmax = std::min(4.0, 0.49 * sys.box);
  pp.xi = std::sqrt(std::log(1e3)) / pp.rmax;
  return MatrixFreeBdSimulation(std::move(sys), nullptr, config, pp,
                                /*krylov_tol=*/1e-2);
}

// ---- tracing ----------------------------------------------------------------

TEST(Trace, NestedSpansRecordDepthAndOrder) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  {
    obs::TraceScope outer("test.outer");
    {
      obs::TraceScope inner("test.inner");
      { obs::TraceScope leaf("test.leaf"); }
    }
    { obs::TraceScope second("test.second"); }
  }
  const std::vector<obs::TraceEvent> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 4u);

  std::map<std::string, obs::TraceEvent> by_name;
  for (const auto& e : events) by_name[e.name] = e;
  ASSERT_TRUE(by_name.count("test.outer"));
  const auto outer = by_name["test.outer"];
  const auto inner = by_name["test.inner"];
  const auto leaf = by_name["test.leaf"];
  const auto second = by_name["test.second"];

  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(leaf.depth, 2u);
  EXPECT_EQ(second.depth, 1u);

  // Children are contained in their parent's interval; siblings ordered.
  EXPECT_GE(inner.t0, outer.t0);
  EXPECT_LE(inner.t0 + inner.dur, outer.t0 + outer.dur + 1e-9);
  EXPECT_GE(leaf.t0, inner.t0);
  EXPECT_GE(second.t0, inner.t0 + inner.dur - 1e-9);

  // Completion order in the buffer is leaf-first; snapshot sorts by t0.
  EXPECT_LE(events.front().t0, events.back().t0);
  tracer.clear();
}

TEST(Trace, SummarizeComputesSelfTime) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  {
    obs::TraceScope outer("sum.outer");
    { obs::TraceScope inner("sum.inner"); }
  }
  const auto rows = tracer.summarize();
  double outer_total = 0.0, outer_self = 0.0, inner_total = 0.0;
  for (const auto& r : rows) {
    if (r.name == "sum.outer") {
      outer_total = r.total;
      outer_self = r.self;
    }
    if (r.name == "sum.inner") inner_total = r.total;
  }
  EXPECT_GT(outer_total, 0.0);
  EXPECT_GT(inner_total, 0.0);
  EXPECT_NEAR(outer_self, outer_total - inner_total, 1e-9);
  tracer.clear();
}

TEST(Trace, ChromeTraceIsValidJson) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  {
    obs::TraceScope a("json.a \"quoted\\name");
    { obs::TraceScope b("json.b"); }
  }
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  EXPECT_TRUE(obs::json_valid(out.str())) << out.str();
  EXPECT_NE(out.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.str().find("\"ph\":\"X\""), std::string::npos);
  tracer.clear();
}

TEST(Trace, DisabledTracerRecordsNothing) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(false);
  { obs::TraceScope a("off.a"); }
  EXPECT_TRUE(tracer.snapshot().empty());
  tracer.set_enabled(true);
}

TEST(Trace, RingOverwriteCountsDrops) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  const std::size_t cap = tracer.capacity_per_thread();
  for (std::size_t i = 0; i < cap + 100; ++i) {
    obs::TraceScope s("ring.span");
  }
  EXPECT_GE(tracer.recorded(), cap + 100);
  EXPECT_GE(tracer.dropped(), 100u);
  EXPECT_LE(tracer.snapshot().size(), cap);
  tracer.clear();
}

// ---- metrics ----------------------------------------------------------------

TEST(Metrics, CounterMergesAcrossOpenMpThreads) {
  obs::Counter counter;
  const int iters = 200000;
#pragma omp parallel for schedule(static)
  for (int i = 0; i < iters; ++i) counter.add(1);
  EXPECT_EQ(counter.value(), iters);
  counter.reset();
  EXPECT_EQ(counter.value(), 0);
}

TEST(Metrics, PhaseTimersAccumulateConcurrently) {
  PhaseTimers timers;
  const int iters = 10000;
#pragma omp parallel for schedule(static)
  for (int i = 0; i < iters; ++i) timers.add("phase", 0.5);
  if (obs::kEnabled) {
    EXPECT_EQ(timers.count("phase"), iters);
    EXPECT_NEAR(timers.total("phase"), 0.5 * iters, 1e-6 * iters);
  } else {
    EXPECT_EQ(timers.count("phase"), 0);
  }
}

TEST(Metrics, HistogramMomentsAreExact) {
  obs::Histogram h;
  double sum = 0.0;
  for (int i = 1; i <= 1000; ++i) {
    h.observe(static_cast<double>(i));
    sum += i;
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.sum(), sum, 1e-9 * sum);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_NEAR(h.mean(), sum / 1000.0, 1e-9 * sum);
}

TEST(Metrics, HistogramPercentilesWithinLogBucketError) {
  obs::Histogram h;
  // Uniform 1..1000: p50 ≈ 500, p90 ≈ 900, p99 ≈ 990.  Buckets are 2^(1/4)
  // wide (≈19%), so the geometric midpoint is within ~10% of the true value.
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  EXPECT_NEAR(h.percentile(0.50), 500.0, 0.12 * 500.0);
  EXPECT_NEAR(h.percentile(0.90), 900.0, 0.12 * 900.0);
  EXPECT_NEAR(h.percentile(0.99), 990.0, 0.12 * 990.0);
  EXPECT_LE(h.percentile(1.0), 1000.0);
  EXPECT_GE(h.percentile(0.0), 1.0);
}

TEST(Metrics, HistogramObserveUnderOpenMp) {
  obs::Histogram h;
  const int iters = 100000;
#pragma omp parallel for schedule(static)
  for (int i = 0; i < iters; ++i) h.observe(1.0 + (i % 7));
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(iters));
}

TEST(Metrics, RegistryExportsValidJsonAndCsv) {
  obs::Registry& reg = obs::Registry::global();
  reg.counter("test.counter").add(3);
  reg.gauge("test.gauge").set(2.5);
  reg.histogram("test.hist").observe(1.0);
  std::ostringstream json;
  reg.write_json(json);
  EXPECT_TRUE(obs::json_valid(json.str())) << json.str();
  EXPECT_NE(json.str().find("\"test.counter\""), std::string::npos);
  std::ostringstream csv;
  reg.write_csv(csv);
  EXPECT_NE(csv.str().find("counter,test.counter,value,"), std::string::npos);
  EXPECT_FALSE(reg.report().empty());
}

TEST(Metrics, BenchReportSchemaAndPercentiles) {
  obs::BenchReport report;
  report.name = "unit";
  report.n = 42;
  report.params = {{"mesh", 32.0}};
  for (int i = 1; i <= 10; ++i)
    report.samples.push_back({{"t", static_cast<double>(i)}});
  std::ostringstream out;
  obs::write_json(out, report);
  const std::string text = out.str();
  EXPECT_TRUE(obs::json_valid(text)) << text;
  EXPECT_NE(text.find("\"bench\":\"unit\""), std::string::npos);
  EXPECT_NE(text.find("\"params\""), std::string::npos);
  EXPECT_NE(text.find("\"samples\""), std::string::npos);
  EXPECT_NE(text.find("\"percentiles\""), std::string::npos);
  EXPECT_NE(text.find("\"p50\""), std::string::npos);
}

TEST(Metrics, JsonValidatorRejectsMalformed) {
  EXPECT_TRUE(obs::json_valid("{\"a\": [1, 2.5e3, null, true, \"s\"]}"));
  EXPECT_FALSE(obs::json_valid("{\"a\": }"));
  EXPECT_FALSE(obs::json_valid("{\"a\": 1,}"));
  EXPECT_FALSE(obs::json_valid("{} extra"));
  EXPECT_FALSE(obs::json_valid(""));
}

// ---- drift audit ------------------------------------------------------------

TEST(Drift, RecordsRatios) {
  obs::DriftAudit audit;
  // Hardware twice as slow as modeled in spreading, 4x in fft.
  for (int w = 0; w < 10; ++w) {
    audit.record("spreading", 2e-3, 1e-3);
    audit.record("fft", 4e-3, 1e-3);
    audit.record("ifft", 1e-3, 1e-3);
  }
  // A window without a prediction counts toward the totals only.
  audit.record("ifft", 1e-3, 0.0);
  EXPECT_EQ(audit.windows(), 11u);
  EXPECT_NEAR(audit.ratio("spreading"), 2.0, 1e-12);
  EXPECT_NEAR(audit.ratio("fft"), 4.0, 1e-12);
  EXPECT_NEAR(audit.ratio("ifft"), 1.0, 1e-12);
  EXPECT_EQ(audit.ratio("absent"), 0.0);
  EXPECT_FALSE(audit.report().empty());
}

TEST(Drift, JsonPhasesRoundTripThroughTheParser) {
  obs::DriftAudit audit;
  audit.record("realspace", 0.01, 0.008);
  audit.record("realspace", 0.03, 0.02);
  std::ostringstream os;
  audit.write_json(os);
  obs::JsonValue doc;
  ASSERT_TRUE(obs::json_parse(os.str(), doc)) << os.str();
  const obs::JsonValue* phases = doc.find("phases");
  ASSERT_NE(phases, nullptr);
  const obs::JsonValue* phase = phases->find("realspace");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->num_or("windows", 0.0), 2.0);
  EXPECT_NEAR(phase->num_or("measured_s", 0.0), 0.04, 1e-15);
  EXPECT_NEAR(phase->num_or("modeled_s", 0.0), 0.028, 1e-15);
  EXPECT_NEAR(phase->num_or("ratio_last", 0.0), 1.5, 1e-12);
  // Upper-middle element of the two ratios {1.25, 1.5}.
  EXPECT_NEAR(phase->num_or("ratio_median", 0.0), 1.5, 1e-12);
}

TEST(Drift, SimulationAuditsEveryRebuildWindow) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  MatrixFreeBdSimulation sim = make_sim(200);
  sim.step(9);  // λ = 4: rebuilds at steps 1, 5, 9 → 2 closed windows
  const obs::DriftAudit& audit = sim.observer().drift_audit();
  EXPECT_GE(audit.windows(), 2u);
  bool saw_fft = false, saw_real = false;
  for (const auto& phase : audit.phases()) {
    EXPECT_GT(phase.modeled_total, 0.0) << phase.name;
    EXPECT_GT(phase.measured_total, 0.0) << phase.name;
    EXPECT_GT(phase.ratio_median, 0.0) << phase.name;
    if (phase.name == "fft") saw_fft = true;
    if (phase.name == "realspace") saw_real = true;
  }
  EXPECT_TRUE(saw_fft);
  EXPECT_TRUE(saw_real);
}

// ---- measured rebuild interval feedback (ROADMAP item) ----------------------

TEST(RebuildInterval, EffectiveIntervalPrefersMeasurement) {
  NeighborList list(10.0, 2.0, 0.5);
  EXPECT_DOUBLE_EQ(effective_rebuild_interval(list, 256.0), 256.0);
  std::vector<Vec3> pos(32);
  Xoshiro256 rng(3);
  for (auto& p : pos) {
    p.x = rng.next_double() * 10.0;
    p.y = rng.next_double() * 10.0;
    p.z = rng.next_double() * 10.0;
  }
  list.update(pos);             // first build
  for (int i = 0; i < 7; ++i) list.update(pos);  // static → no rebuilds
  EXPECT_DOUBLE_EQ(effective_rebuild_interval(list, 256.0),
                   list.mean_rebuild_interval());
  EXPECT_DOUBLE_EQ(list.mean_rebuild_interval(), 8.0);
}

TEST(RebuildInterval, AmortizedOverheadShrinksAsIntervalGrows) {
  const PmePerfModel model(westmere_ep());
  const std::size_t n = 16000;
  const double nbr = 40.0;
  const double t8 = model.t_realspace_overhead(n, nbr, 16, 8.0);
  const double t64 = model.t_realspace_overhead(n, nbr, 16, 64.0);
  const double t512 = model.t_realspace_overhead(n, nbr, 16, 512.0);
  EXPECT_GT(t8, t64);
  EXPECT_GT(t64, t512);
  // The difference is exactly the rebuild term scaling with 1/interval.
  const double rebuild = model.t_neighbor_rebuild(n, nbr);
  EXPECT_NEAR(t8 - t64, rebuild * (1.0 / 8.0 - 1.0 / 64.0), 1e-12);

  // And the full step model inherits the monotonicity.
  const Device host{PmePerfModel(westmere_ep()), true};
  const BdStepModel short_int =
      model_bd_step(host, {}, n, 40.0, 6, 1e-3, 16, 5, 8.0);
  const BdStepModel long_int =
      model_bd_step(host, {}, n, 40.0, 6, 1e-3, 16, 5, 512.0);
  EXPECT_GT(short_int.cpu_only, long_int.cpu_only);
}

// ---- trajectory invariance and overhead -------------------------------------

TEST(Overhead, TracingDoesNotPerturbTrajectories) {
  std::vector<Vec3> pos_on, pos_off;
  obs::Tracer& tracer = obs::Tracer::global();
  {
    tracer.set_enabled(true);
    MatrixFreeBdSimulation sim = make_sim(128, /*seed=*/99);
    sim.step(10);
    pos_on = sim.system().positions;
  }
  {
    tracer.set_enabled(false);
    MatrixFreeBdSimulation sim = make_sim(128, /*seed=*/99);
    sim.step(10);
    pos_off = sim.system().positions;
  }
  tracer.set_enabled(true);
  tracer.clear();
  ASSERT_EQ(pos_on.size(), pos_off.size());
  for (std::size_t i = 0; i < pos_on.size(); ++i) {
    // Bitwise identity: telemetry must not touch the numerics.
    EXPECT_EQ(pos_on[i].x, pos_off[i].x) << i;
    EXPECT_EQ(pos_on[i].y, pos_off[i].y) << i;
    EXPECT_EQ(pos_on[i].z, pos_off[i].z) << i;
  }
}

TEST(Overhead, StepSpansCoverAtLeast90PercentOfStepTime) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  MatrixFreeBdSimulation sim = make_sim(300);
  sim.step(8);
  const auto events = tracer.snapshot();
  double step_total = 0.0, child_total = 0.0;
  for (const auto& e : events) {
    if (std::string_view(e.name) != "bd.step") continue;
    step_total += e.dur;
    for (const auto& c : events) {
      if (c.tid == e.tid && c.depth == e.depth + 1 && c.t0 >= e.t0 &&
          c.t0 + c.dur <= e.t0 + e.dur + 1e-9)
        child_total += c.dur;
    }
  }
  tracer.clear();
  ASSERT_GT(step_total, 0.0);
  // The per-step trace accounts for ≥90% of the step wall time.
  EXPECT_GE(child_total, 0.90 * step_total)
      << "covered " << 100.0 * child_total / step_total << "%";
}

TEST(Overhead, TelemetryCostUnderTwoPercentOfStepTime) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_enabled(true);

  // Per-event cost: one traced scope plus one counter add, measured hot.
  const int calib = 200000;
  Timer t;
  for (int i = 0; i < calib; ++i) {
    obs::TraceScope s("overhead.calib");
    HBD_COUNTER_ADD("overhead.calib", 1);
  }
  const double cost_per_event = t.seconds() / calib;
  tracer.clear();

  // Events per step are O(1) in n (fixed span taxonomy, λ-amortized
  // rebuilds), while the step itself scales with n — so a bound measured
  // here holds a fortiori at n = 16000.
  MatrixFreeBdSimulation sim = make_sim(400);
  sim.step(1);  // prime: first rebuild + allocations
  const std::uint64_t before = tracer.recorded();
  const std::size_t steps = 8;
  Timer wall;
  sim.step(steps);
  const double step_seconds = wall.seconds() / static_cast<double>(steps);
  const double spans_per_step =
      static_cast<double>(tracer.recorded() - before) /
      static_cast<double>(steps);
  tracer.clear();

  // Generous 3x multiplier: counters/histograms ride along with the spans.
  const double overhead = 3.0 * spans_per_step * cost_per_event;
  EXPECT_LT(overhead, 0.02 * step_seconds)
      << "spans/step=" << spans_per_step
      << " cost/event=" << cost_per_event * 1e9 << "ns"
      << " step=" << step_seconds * 1e3 << "ms";
}

}  // namespace
}  // namespace hbd
