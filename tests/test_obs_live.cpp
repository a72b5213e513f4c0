// Live telemetry tests (layers 5–6): hex bit-pattern codec, the JSON tree
// parser, streaming NDJSON windows and SPSC drop accounting, the Prometheus
// exposition endpoint (including a concurrent scrape against a stepping
// simulation — the TSan leg runs this binary), flight-ring wraparound,
// bundle round-trips, bitwise replay of an injected failure, and the
// stream/flight-enabled trajectory staying bitwise identical to a bare run.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/forces.hpp"
#include "core/replay.hpp"
#include "core/simulation.hpp"
#include "core/system.hpp"
#include "obs/exposition.hpp"
#include "obs/flight.hpp"
#include "obs/health.hpp"
#include "obs/json.hpp"
#include "obs/stream.hpp"
#include "obs/telemetry.hpp"

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

MatrixFreeBdSimulation make_sim(std::size_t n, std::uint64_t seed = 42,
                                bool with_forces = false) {
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
  std::shared_ptr<const ForceField> forces;
  if (with_forces)
    forces = std::make_shared<RepulsiveHarmonic>(sys.radius, 10.0);
  return MatrixFreeBdSimulation(std::move(sys), std::move(forces), config, pp,
                                /*krylov_tol=*/1e-2);
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

/// One-shot HTTP/1.0 GET against the loopback exposition server; returns the
/// full response (status line + headers + body), or "" on connect failure.
std::string http_get(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t sent =
        ::send(fd, request.data() + off, request.size() - off, 0);
    if (sent <= 0) break;
    off += static_cast<std::size_t>(sent);
  }
  std::string response;
  char buf[4096];
  ssize_t got;
  while ((got = ::recv(fd, buf, sizeof(buf), 0)) > 0)
    response.append(buf, static_cast<std::size_t>(got));
  ::close(fd);
  return response;
}

// ---- bitwise codec ----------------------------------------------------------

TEST(HexCodec, RoundTripsEveryBitPattern) {
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           -1.0,
                           1e-4,
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()};
  for (const double v : values) {
    const std::string hex = obs::hex_double(v);
    ASSERT_EQ(hex.size(), 18u) << hex;  // "0x" + 16 digits
    double back = 0.0;
    ASSERT_TRUE(obs::parse_hex_double(hex, back)) << hex;
    std::uint64_t a, b;
    std::memcpy(&a, &v, 8);
    std::memcpy(&b, &back, 8);
    EXPECT_EQ(a, b) << hex;  // bit-level, so NaN and -0.0 survive too
  }
  std::uint64_t u = 0;
  EXPECT_TRUE(obs::parse_hex_u64("0xdeadbeefcafe0123", u));
  EXPECT_EQ(u, 0xdeadbeefcafe0123ull);
  EXPECT_TRUE(obs::parse_hex_u64("ff", u));
  EXPECT_EQ(u, 0xffu);
  EXPECT_FALSE(obs::parse_hex_u64("", u));
  EXPECT_FALSE(obs::parse_hex_u64("0x", u));
  EXPECT_FALSE(obs::parse_hex_u64("xyz", u));
  EXPECT_FALSE(obs::parse_hex_u64("0x11112222333344445", u));  // 17 digits
}

TEST(HexCodec, HashIsBitwiseSensitive) {
  std::vector<double> a = {1.0, 2.0, 3.0};
  std::vector<double> b = a;
  const std::uint64_t ha = obs::hash_doubles(a);
  EXPECT_EQ(ha, obs::hash_doubles(b));
  b[1] = std::nextafter(b[1], 4.0);  // single-ulp perturbation
  EXPECT_NE(ha, obs::hash_doubles(b));
  EXPECT_NE(obs::hash_doubles({a.data(), 2}), ha);
}

// ---- JSON tree parser -------------------------------------------------------

TEST(JsonParse, ParsesNestedDocuments) {
  const std::string text =
      "{\"name\":\"run \\u00e9\\n\",\"n\":400,\"neg\":-1.5e-3,"
      "\"ok\":true,\"off\":false,\"nil\":null,"
      "\"list\":[1,2,[3]],\"obj\":{\"k\":\"v\"}}";
  obs::JsonValue doc;
  ASSERT_TRUE(obs::json_parse(text, doc));
  ASSERT_EQ(doc.type, obs::JsonValue::Type::Object);
  EXPECT_EQ(doc.str_or("name", ""), "run \xc3\xa9\n");
  EXPECT_EQ(doc.num_or("n", 0.0), 400.0);
  EXPECT_DOUBLE_EQ(doc.num_or("neg", 0.0), -1.5e-3);
  EXPECT_TRUE(doc.bool_or("ok", false));
  EXPECT_FALSE(doc.bool_or("off", true));
  const obs::JsonValue* nil = doc.find("nil");
  ASSERT_NE(nil, nullptr);
  EXPECT_EQ(nil->type, obs::JsonValue::Type::Null);
  const obs::JsonValue* list = doc.find("list");
  ASSERT_NE(list, nullptr);
  ASSERT_TRUE(list->is_array());
  ASSERT_EQ(list->items.size(), 3u);
  EXPECT_EQ(list->items[0].number, 1.0);
  ASSERT_TRUE(list->items[2].is_array());
  const obs::JsonValue* obj = doc.find("obj");
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->str_or("k", ""), "v");
  EXPECT_EQ(doc.find("absent"), nullptr);
}

TEST(JsonParse, RejectsMalformedInput) {
  obs::JsonValue doc;
  EXPECT_FALSE(obs::json_parse("", doc));
  EXPECT_FALSE(obs::json_parse("{", doc));
  EXPECT_FALSE(obs::json_parse("{\"a\":}", doc));
  EXPECT_FALSE(obs::json_parse("[1,2,]", doc));
  EXPECT_FALSE(obs::json_parse("{\"a\":1} trailing", doc));
  EXPECT_FALSE(obs::json_parse("\"unterminated", doc));
}

// ---- streaming (layer 5) ----------------------------------------------------

TEST(Stream, WindowsCarrySchemaHeaderAndAggregates) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  const std::string path = temp_path("stream_windows.ndjson");
  MatrixFreeBdSimulation sim = make_sim(64);
  obs::StreamWriter::Options opts;
  opts.path = path;
  opts.interval = 4;
  sim.observer().enable_stream(opts);
  const std::size_t steps = 11;  // 2 full windows + 1 partial
  sim.step(steps);
  ASSERT_NE(sim.observer().stream(), nullptr);
  sim.observer().stream()->stop();
  EXPECT_EQ(sim.observer().stream()->pushed(), steps);
  EXPECT_EQ(sim.observer().stream()->dropped(), 0u);
  EXPECT_EQ(sim.observer().stream()->windows_written(), 3u);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  obs::JsonValue header;
  ASSERT_TRUE(obs::json_parse(line, header)) << line;
  EXPECT_EQ(header.str_or("schema", ""), "hbd.stream.v1");
  EXPECT_EQ(header.str_or("kind", ""), "header");
  EXPECT_EQ(header.num_or("interval", 0.0), 4.0);
  const obs::JsonValue* manifest = header.find("manifest");
  ASSERT_NE(manifest, nullptr);
  EXPECT_FALSE(manifest->str_or("version", "").empty());

  std::size_t windows = 0, steps_seen = 0;
  std::uint64_t next_step = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    obs::JsonValue w;
    ASSERT_TRUE(obs::json_parse(line, w)) << line;
    EXPECT_EQ(w.str_or("schema", ""), "hbd.stream.v1");
    EXPECT_EQ(w.str_or("kind", ""), "window");
    EXPECT_EQ(w.num_or("window", -1.0), static_cast<double>(windows));
    const auto first = static_cast<std::uint64_t>(w.num_or("step_first", -1));
    const auto last = static_cast<std::uint64_t>(w.num_or("step_last", -1));
    const auto count = static_cast<std::size_t>(w.num_or("steps", 0.0));
    EXPECT_EQ(first, next_step);
    EXPECT_EQ(last - first + 1, count);
    next_step = last + 1;
    steps_seen += count;
    const obs::JsonValue* wall = w.find("wall");
    ASSERT_NE(wall, nullptr);
    EXPECT_GT(wall->num_or("sum", 0.0), 0.0);
    EXPECT_LE(wall->num_or("min", 0.0), wall->num_or("max", 0.0));
    const obs::JsonValue* phases = w.find("phases");
    ASSERT_NE(phases, nullptr);
    for (const auto& name : obs::kStreamPhaseNames)
      EXPECT_NE(phases->find(name), nullptr) << name;
    // Every window spans at least one mobility rebuild (interval == lambda).
    EXPECT_GE(w.num_or("rebuilds", -1.0), 1.0);
    EXPECT_GT(w.num_or("rng_draws", 0.0), 0.0);
    EXPECT_EQ(w.num_or("dropped", -1.0), 0.0);
    ++windows;
  }
  EXPECT_EQ(windows, 3u);
  EXPECT_EQ(steps_seen, steps);
  std::remove(path.c_str());
}

TEST(Stream, EnvWiredHeaderCarriesThisRunsManifest) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  const std::string path = temp_path("stream_env.ndjson");
  const std::string health = temp_path("health_env.json");
  std::remove(health.c_str());
  // An earlier driver published its own manifest; the env-wired stream of
  // the next one must not inherit it.
  { MatrixFreeBdSimulation earlier = make_sim(27); }
  ::setenv("HBD_STREAM", path.c_str(), 1);
  ::setenv("HBD_HEALTH", health.c_str(), 1);
  {
    MatrixFreeBdSimulation sim = make_sim(64);
    ASSERT_NE(sim.observer().stream(), nullptr);
    sim.observer().stream()->stop();
  }
  ASSERT_EQ(std::remove(health.c_str()), 0) << "a built driver reports";
  // A driver whose constructor throws writes no health report.
  {
    ParticleSystem sys = test_suspension(64);
    BdConfig config;
    config.lambda_rpy = 0;
    PmeParams pp;
    pp.rmax = std::min(4.0, 0.49 * sys.box);
    pp.xi = std::sqrt(std::log(1e3)) / pp.rmax;
    EXPECT_ANY_THROW(
        MatrixFreeBdSimulation(std::move(sys), nullptr, config, pp));
  }
  ::unsetenv("HBD_STREAM");
  ::unsetenv("HBD_HEALTH");
  EXPECT_FALSE(std::ifstream(health).is_open());

  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  obs::JsonValue header;
  ASSERT_TRUE(obs::json_parse(line, header)) << line;
  const obs::JsonValue* manifest = header.find("manifest");
  ASSERT_NE(manifest, nullptr);
  EXPECT_EQ(manifest->num_or("particles", 0.0), 64.0);
  EXPECT_EQ(manifest->num_or("seed", 0.0), 42.0);
  std::remove(path.c_str());
}

TEST(Stream, FullRingDropsInsteadOfBlocking) {
  const std::string path = temp_path("stream_drops.ndjson");
  obs::StreamWriter::Options opts;
  opts.path = path;
  opts.interval = 1;
  opts.capacity = 8;
  opts.poll_us = 500000;  // park the writer so pushes outrun the drain
  {
    obs::StreamWriter writer(opts);
    ASSERT_TRUE(writer.ok());
    // Let the writer finish its initial (empty) drain and enter the wait.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    obs::StreamRecord rec;
    for (std::uint64_t s = 0; s < 100; ++s) {
      rec.step = s;
      rec.wall_seconds = 1e-3;
      writer.push(rec);
    }
    EXPECT_EQ(writer.pushed() + writer.dropped(), 100u);
    EXPECT_GE(writer.pushed(), 8u);
    EXPECT_GT(writer.dropped(), 0u);
    writer.stop();  // drains the ring and flushes the partial window
    EXPECT_GE(writer.windows_written(), 8u);
  }
  std::remove(path.c_str());
}

TEST(Stream, CsvFormatEmitsHeaderAndRows) {
  const std::string path = temp_path("stream_rows.csv");
  obs::StreamWriter::Options opts;
  opts.path = path;
  opts.interval = 2;
  opts.csv = true;
  {
    obs::StreamWriter writer(opts);
    ASSERT_TRUE(writer.ok());
    obs::StreamRecord rec;
    for (std::uint64_t s = 0; s < 4; ++s) {
      rec.step = s;
      rec.wall_seconds = 1e-3;
      writer.push(rec);
    }
    writer.stop();
    EXPECT_EQ(writer.windows_written(), 2u);
  }
  std::ifstream in(path);
  std::string header, row;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_NE(header.find("window,step_first,step_last,steps"),
            std::string::npos);
  EXPECT_NE(header.find("phase_fft"), std::string::npos);
  EXPECT_NE(header.find("dropped"), std::string::npos);
  ASSERT_TRUE(std::getline(in, row));
  EXPECT_EQ(row.compare(0, 6, "0,0,1,"), 0) << row;
  std::remove(path.c_str());
}

// ---- exposition (layer 5, pull side) ----------------------------------------

TEST(Expo, SanitizesMetricNames) {
  EXPECT_EQ(obs::prometheus_name("bd.step.seconds"), "hbd_bd_step_seconds");
  EXPECT_EQ(obs::prometheus_name("obs.overhead_frac"),
            "hbd_obs_overhead_frac");
}

TEST(Expo, PrometheusTextCarriesTypedFamilies) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  obs::Registry& reg = obs::Registry::global();
  reg.counter("expo.test.count").add(3);
  reg.gauge("expo.test.level").set(1.5);
  reg.histogram("expo.test.lat").observe(2.0);
  const std::string text = obs::prometheus_text();
  EXPECT_NE(text.find("# TYPE hbd_expo_test_count_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("hbd_expo_test_count_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hbd_expo_test_level gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hbd_expo_test_lat summary"), std::string::npos);
  EXPECT_NE(text.find("hbd_expo_test_lat{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("hbd_expo_test_lat_count 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hbd_build_info gauge"), std::string::npos);
  EXPECT_NE(text.find("hbd_build_info{"), std::string::npos);
}

TEST(Expo, ServesMetricsHealthAndManifest) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  obs::MetricsServer server(0);  // ephemeral port
  ASSERT_TRUE(server.ok());
  ASSERT_GT(server.port(), 0);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("hbd_build_info"), std::string::npos);

  const std::string health = http_get(server.port(), "/health");
  EXPECT_NE(health.find("200"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string manifest = http_get(server.port(), "/manifest");
  EXPECT_NE(manifest.find("200"), std::string::npos);
  EXPECT_NE(manifest.find("version"), std::string::npos);

  const std::string missing = http_get(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  server.stop();
  EXPECT_GE(server.requests(), 4u);
}

TEST(Expo, ServesRequestsTrickledAcrossPartialSends) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  obs::MetricsServer server(0);
  ASSERT_TRUE(server.ok());
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // Fragment the request line mid-path and mid-version: a single-recv
  // server would parse a truncated path and 404.
  const char* pieces[] = {"GET /hea", "lth HT", "TP/1.0\r\n\r\n"};
  for (const char* piece : pieces) {
    ASSERT_GT(::send(fd, piece, std::strlen(piece), 0), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::string response;
  char buf[4096];
  ssize_t got;
  while ((got = ::recv(fd, buf, sizeof(buf), 0)) > 0)
    response.append(buf, static_cast<std::size_t>(got));
  ::close(fd);
  EXPECT_NE(response.find("200"), std::string::npos) << response;
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos) << response;
  server.stop();
}

TEST(Expo, ServesManySequentialConnections) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  obs::MetricsServer server(0);
  ASSERT_TRUE(server.ok());
  for (int i = 0; i < 12; ++i) {
    const std::string response =
        http_get(server.port(), i % 2 == 0 ? "/health" : "/metrics");
    ASSERT_NE(response.find("200"), std::string::npos)
        << "connection " << i << ": " << response;
  }
  server.stop();
  EXPECT_GE(server.requests(), 12u);
}

TEST(Expo, ServesConcurrentConnections) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  obs::MetricsServer server(0);
  ASSERT_TRUE(server.ok());
  constexpr int kThreads = 4, kRequests = 3;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    clients.emplace_back([&server, &ok_count] {
      for (int r = 0; r < kRequests; ++r) {
        const std::string response = http_get(server.port(), "/health");
        if (response.find("200") != std::string::npos)
          ok_count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::thread& c : clients) c.join();
  server.stop();
  // The accept loop serves one client at a time; concurrent connects queue
  // in the listen backlog and every request still completes.
  EXPECT_EQ(ok_count.load(), kThreads * kRequests);
  EXPECT_GE(server.requests(), static_cast<std::size_t>(kThreads * kRequests));
}

TEST(Expo, OversizedRequestLineGets414) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  obs::MetricsServer server(0);
  ASSERT_TRUE(server.ok());
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // 8 KB request "line" with no terminator: the server must cap its read
  // buffer and answer 414 instead of growing without bound.
  const std::string flood = "GET /" + std::string(8192, 'a');
  std::size_t off = 0;
  while (off < flood.size()) {
    const ssize_t sent =
        ::send(fd, flood.data() + off, flood.size() - off, 0);
    if (sent <= 0) break;
    off += static_cast<std::size_t>(sent);
  }
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  ssize_t got;
  while ((got = ::recv(fd, buf, sizeof(buf), 0)) > 0)
    response.append(buf, static_cast<std::size_t>(got));
  ::close(fd);
  EXPECT_NE(response.find("414"), std::string::npos) << response;
  server.stop();
}

TEST(Expo, PrometheusTextCarriesNativeHistogramBuckets) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  obs::Registry& reg = obs::Registry::global();
  reg.histogram("expo.test.native").observe(1.0);
  reg.histogram("expo.test.native").observe(4.0);
  const std::string text = obs::prometheus_text();
  EXPECT_NE(text.find("# TYPE hbd_expo_test_native_hist histogram"),
            std::string::npos);
  EXPECT_NE(text.find("hbd_expo_test_native_hist_bucket{le=\""),
            std::string::npos);
  EXPECT_NE(text.find("hbd_expo_test_native_hist_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("hbd_expo_test_native_hist_sum 5"), std::string::npos);
  EXPECT_NE(text.find("hbd_expo_test_native_hist_count 2"),
            std::string::npos);
  // Buckets are cumulative and end exactly at the total count.
  const std::size_t at = text.find("hbd_expo_test_native_hist_bucket");
  ASSERT_NE(at, std::string::npos);
}

TEST(Expo, ConcurrentScrapeDuringStepping) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  const std::string path = temp_path("stream_scrape.ndjson");
  obs::MetricsServer server(0);
  ASSERT_TRUE(server.ok());

  MatrixFreeBdSimulation sim = make_sim(64);
  obs::StreamWriter::Options opts;
  opts.path = path;
  opts.interval = 2;
  sim.observer().enable_stream(opts);
  sim.observer().enable_flight({/*path=*/"", /*depth=*/16});

  std::atomic<bool> done{false};
  std::thread stepper([&] {
    sim.step(8);
    done.store(true, std::memory_order_release);
  });
  std::size_t scrapes = 0;
  while (!done.load(std::memory_order_acquire)) {
    const std::string response = http_get(server.port(), "/metrics");
    ASSERT_NE(response.find("200"), std::string::npos);
    ++scrapes;
  }
  stepper.join();
  server.stop();
  EXPECT_GE(scrapes, 1u);
  // The scrape mid-run saw live step counters.
  const std::string final_text = obs::prometheus_text();
  EXPECT_NE(final_text.find("hbd_bd_steps_total"), std::string::npos);
  std::remove(path.c_str());
}

// ---- flight recorder (layer 6) ----------------------------------------------

TEST(Flight, RingWrapsKeepingNewestRecords) {
  obs::FlightRecorder recorder({/*path=*/"", /*depth=*/8});
  for (std::uint64_t s = 0; s < 20; ++s) {
    obs::FlightRecord rec;
    rec.step = s;
    rec.pos_hash = s * 1000;
    recorder.record(rec);
  }
  EXPECT_EQ(recorder.recorded(), 20u);
  const std::vector<obs::FlightRecord> ring = recorder.ring();
  ASSERT_EQ(ring.size(), 8u);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i].step, 12 + i);  // oldest → newest
    EXPECT_EQ(ring[i].pos_hash, (12 + i) * 1000);
  }
}

TEST(Flight, BundleRoundTripsBitwise) {
  const std::string path = temp_path("bundle_roundtrip.json");
  obs::FlightRecorder recorder({path, /*depth=*/8});

  obs::FlightSnapshot snap;
  snap.step = 5;
  snap.skin = 0.37;
  snap.positions = {1.0, -0.0, 1e-300, std::nextafter(2.0, 3.0), -7.25, 0.5};
  snap.rng_traj.s[0] = 0x0123456789abcdefull;
  snap.rng_traj.s[1] = ~0ull;
  snap.rng_traj.s[2] = 1;
  snap.rng_traj.s[3] = 0x8000000000000000ull;
  snap.rng_traj.cached_gaussian = -1.25;
  snap.rng_traj.has_cached = true;
  snap.rng_traj.draws = 1234;
  snap.rng_wave = snap.rng_traj;
  snap.rng_wave.draws = 99;
  recorder.snapshot(snap);

  obs::ReplayConfig cfg;
  cfg.strings.emplace_back("driver", "matrix_free");
  cfg.numbers.emplace_back("n", 2.0);
  recorder.set_replay(cfg);

  for (std::uint64_t s = 5; s < 8; ++s) {
    obs::FlightRecord rec;
    rec.step = s;
    rec.pos_hash = 0xabcd0000 + s;
    rec.force_hash = 0xef000000 + s;
    rec.rebuilt = s == 5;
    recorder.record(rec);
  }

  obs::FlightFailure failure;
  failure.phase = "positions";
  failure.what = "NaN at step 8";
  failure.step = 8;
  failure.index = 3;
  failure.value = std::numeric_limits<double>::quiet_NaN();
  recorder.set_failure(failure);
  EXPECT_TRUE(recorder.has_failure());
  ASSERT_TRUE(recorder.dump());

  const FlightBundle bundle = load_flight_bundle(path);
  EXPECT_EQ(bundle.snapshot_step, 5u);
  ASSERT_EQ(bundle.positions.size(), snap.positions.size());
  for (std::size_t i = 0; i < snap.positions.size(); ++i) {
    std::uint64_t a, b;
    std::memcpy(&a, &snap.positions[i], 8);
    std::memcpy(&b, &bundle.positions[i], 8);
    EXPECT_EQ(a, b) << "position " << i;
  }
  EXPECT_EQ(bundle.skin, 0.37);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(bundle.rng_traj.s[i], snap.rng_traj.s[i]);
  EXPECT_EQ(bundle.rng_traj.cached_gaussian, -1.25);
  EXPECT_TRUE(bundle.rng_traj.has_cached);
  EXPECT_EQ(bundle.rng_traj.draws, 1234u);
  EXPECT_EQ(bundle.rng_wave.draws, 99u);
  ASSERT_EQ(bundle.records.size(), 3u);
  EXPECT_EQ(bundle.records[0].step, 5u);
  EXPECT_EQ(bundle.records[0].pos_hash, 0xabcd0005u);
  EXPECT_TRUE(bundle.records[0].rebuilt);
  EXPECT_FALSE(bundle.records[2].rebuilt);
  EXPECT_TRUE(bundle.has_failure);
  EXPECT_EQ(bundle.failure_phase, "positions");
  EXPECT_EQ(bundle.failure_step, 8u);
  std::remove(path.c_str());
}

TEST(Flight, RngStateRoundTripResumesIdenticalStream) {
  Xoshiro256 rng(2024);
  for (int i = 0; i < 7; ++i) rng.next_gaussian();  // leaves a cached half
  const Xoshiro256::State saved = rng.state();
  std::vector<double> expected;
  for (int i = 0; i < 16; ++i) expected.push_back(rng.next_gaussian());

  Xoshiro256 resumed(1);  // unrelated seed, fully overwritten
  resumed.set_state(saved);
  EXPECT_EQ(resumed.draws(), saved.draws);
  for (int i = 0; i < 16; ++i) {
    const double v = resumed.next_gaussian();
    std::uint64_t a, b;
    std::memcpy(&a, &expected[static_cast<std::size_t>(i)], 8);
    std::memcpy(&b, &v, 8);
    ASSERT_EQ(a, b) << "draw " << i;
  }
}

TEST(Flight, InjectedFailureDumpsBundleAndReplaysBitwise) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  const std::string path = temp_path("bundle_inject.json");
  // The native PME tier (forcing it is a no-op) plus the two meshless
  // tiers, dense being the paper's Algorithm 1: every tier's bundle must
  // replay through the one driver.
  for (const MobilityTier tier :
       {MobilityTier::pme_krylov, MobilityTier::tea, MobilityTier::dense}) {
    SCOPED_TRACE(mobility_tier_name(tier));
    {
      MatrixFreeBdSimulation sim =
          make_sim(64, /*seed=*/9, /*with_forces=*/true);
      sim.set_tier(tier);
      sim.observer().enable_flight({path, /*depth=*/16});
      // Anchor at the step-8 rebuild, then crash.
      sim.observer().set_inject_step(11);
      EXPECT_THROW(sim.step(16), NumericalException);
      EXPECT_EQ(sim.steps_taken(), 11u);
      ASSERT_NE(sim.observer().flight(), nullptr);
      EXPECT_TRUE(sim.observer().flight()->has_failure());
    }
    const FlightBundle bundle = load_flight_bundle(path);
    EXPECT_EQ(bundle.snapshot_step, 8u);
    EXPECT_TRUE(bundle.has_failure);
    EXPECT_EQ(bundle.failure_phase, "inject");
    EXPECT_EQ(bundle.failure_step, 11u);
    ASSERT_FALSE(bundle.records.empty());
    EXPECT_EQ(bundle.records.back().step, 10u);

    const ReplayResult result = replay_flight_bundle(path);
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.steps_replayed, 3u);   // steps 8, 9, 10
    EXPECT_EQ(result.hashes_checked, 3u);   // each bitwise identical
    EXPECT_TRUE(result.failure_reproduced);
    std::remove(path.c_str());
  }
}

TEST(Flight, TamperedBundleFailsReplay) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  const std::string path = temp_path("bundle_tampered.json");
  {
    MatrixFreeBdSimulation sim = make_sim(64, /*seed=*/9, /*with_forces=*/true);
    sim.observer().enable_flight({path, /*depth=*/16});
    sim.observer().set_inject_step(11);
    EXPECT_THROW(sim.step(16), NumericalException);
  }
  // Flip the newest recorded position hash (records before the anchor are
  // legitimately skipped by replay): the bitwise check must catch it.
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  in.close();
  std::string text = buf.str();
  const std::size_t at = text.rfind("\"pos_hash\":\"0x");
  ASSERT_NE(at, std::string::npos);
  const std::size_t digit = at + std::string("\"pos_hash\":\"0x").size();
  text[digit] = text[digit] == '0' ? '1' : '0';
  std::ofstream out(path);
  out << text;
  out.close();

  const ReplayResult result = replay_flight_bundle(path);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("mismatch"), std::string::npos) << result.error;
  std::remove(path.c_str());
}

// ---- trajectory invariance + overhead budget --------------------------------

TEST(Flight, StreamAndFlightNeverPerturbTheTrajectory) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  const std::string path = temp_path("stream_invariance.ndjson");
  const std::size_t n = 64, steps = 10;
  for (std::size_t t = 0; t < kMobilityTierCount; ++t) {
    const MobilityTier tier = static_cast<MobilityTier>(t);
    SCOPED_TRACE(mobility_tier_name(tier));
    MatrixFreeBdSimulation bare = make_sim(n, /*seed=*/11);
    bare.set_tier(tier);
    bare.step(steps);

    MatrixFreeBdSimulation observed = make_sim(n, /*seed=*/11);
    observed.set_tier(tier);
    obs::StreamWriter::Options opts;
    opts.path = path;
    opts.interval = 3;
    observed.observer().enable_stream(opts);
    observed.observer().enable_flight({/*path=*/"", /*depth=*/32});
    observed.step(steps);

    const auto& a = bare.system().positions;
    const auto& b = observed.system().positions;
    ASSERT_EQ(a.size(), b.size());
    const std::uint64_t ha = obs::hash_doubles({&a[0].x, 3 * a.size()});
    const std::uint64_t hb = obs::hash_doubles({&b[0].x, 3 * b.size()});
    EXPECT_EQ(ha, hb) << "live telemetry must be observation-only";
    EXPECT_EQ(observed.observer().flight()->recorded(), steps);
  }
  std::remove(path.c_str());
}

TEST(Overhead, LiveTelemetryStaysUnderTwoPercentOfStepTime) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  const std::string path = temp_path("stream_budget.ndjson");
  MatrixFreeBdSimulation sim = make_sim(400);
  obs::StreamWriter::Options opts;
  opts.path = path;
  opts.interval = 4;
  sim.observer().enable_stream(opts);
  sim.observer().enable_flight({/*path=*/"", /*depth=*/64});
  obs::MetricsServer server(0);
  ASSERT_TRUE(server.ok());

  sim.step(1);  // prime (plans, first rebuild)
  sim.step(8);
  // on_step accounts for its own cost — hashes, stream push, flight
  // record — against the total stepped wall time.
  const double frac = obs::Registry::global().gauge("obs.overhead_frac").value();
  EXPECT_GT(frac, 0.0);
  EXPECT_LT(frac, 0.02) << "live telemetry hook burned " << frac * 100
                        << "% of step time";
  server.stop();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hbd
