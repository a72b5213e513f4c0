#include "core/replay.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "obs/flight.hpp"
#include "obs/health.hpp"

namespace hbd {

namespace {

using obs::JsonValue;

const JsonValue& require(const JsonValue& doc, std::string_view key) {
  const JsonValue* v = doc.find(key);
  if (!v) throw Error("flight bundle: missing \"" + std::string(key) + "\"");
  return *v;
}

double require_hex_double(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  double out = 0.0;
  if (!v || v->type != JsonValue::Type::String ||
      !obs::parse_hex_double(v->text, out))
    throw Error("flight bundle: bad hex double \"" + std::string(key) + "\"");
  return out;
}

std::uint64_t require_hex_u64(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  std::uint64_t out = 0;
  if (!v || v->type != JsonValue::Type::String ||
      !obs::parse_hex_u64(v->text, out))
    throw Error("flight bundle: bad hex u64 \"" + std::string(key) + "\"");
  return out;
}

Xoshiro256::State parse_rng_state(const JsonValue& obj) {
  Xoshiro256::State st;
  const JsonValue& words = require(obj, "s");
  if (!words.is_array() || words.items.size() != 4)
    throw Error("flight bundle: rng state needs 4 words");
  for (int i = 0; i < 4; ++i) {
    if (words.items[i].type != JsonValue::Type::String ||
        !obs::parse_hex_u64(words.items[i].text, st.s[i]))
      throw Error("flight bundle: bad rng word");
  }
  st.cached_gaussian = require_hex_double(obj, "cached_gaussian");
  st.has_cached = obj.bool_or("has_cached", false);
  st.draws = static_cast<std::uint64_t>(obj.num_or("draws", 0.0));
  return st;
}

}  // namespace

FlightBundle load_flight_bundle(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("flight bundle: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  FlightBundle b;
  if (!obs::json_parse(buf.str(), b.doc))
    throw Error("flight bundle: invalid JSON in " + path);
  if (b.doc.str_or("schema", "") != "hbd.flight.v1")
    throw Error("flight bundle: unknown schema in " + path);

  const JsonValue& snap = require(b.doc, "snapshot");
  b.snapshot_step = static_cast<std::uint64_t>(snap.num_or("step", 0.0));
  b.skin = require_hex_double(snap, "skin");
  b.rng_traj = parse_rng_state(require(snap, "rng_trajectory"));
  b.rng_wave = parse_rng_state(require(snap, "rng_wavespace"));
  const JsonValue& pos = require(snap, "positions");
  if (!pos.is_array() || pos.items.size() % 3 != 0)
    throw Error("flight bundle: positions must be a 3n array");
  b.positions.reserve(pos.items.size());
  for (const JsonValue& p : pos.items) {
    double v = 0.0;
    if (p.type != JsonValue::Type::String ||
        !obs::parse_hex_double(p.text, v))
      throw Error("flight bundle: bad position bit pattern");
    b.positions.push_back(v);
  }

  const JsonValue& records = require(b.doc, "records");
  if (!records.is_array())
    throw Error("flight bundle: records must be an array");
  for (const JsonValue& r : records.items) {
    FlightBundle::Record rec;
    rec.step = static_cast<std::uint64_t>(r.num_or("step", 0.0));
    rec.pos_hash = require_hex_u64(r, "pos_hash");
    rec.force_hash = require_hex_u64(r, "force_hash");
    rec.rebuilt = r.bool_or("rebuilt", false);
    b.records.push_back(rec);
  }

  if (const JsonValue* failure = b.doc.find("failure")) {
    b.has_failure = true;
    b.failure_phase = failure->str_or("phase", "");
    b.failure_what = failure->str_or("what", "");
    b.failure_step =
        static_cast<std::uint64_t>(failure->num_or("step", 0.0));
  }
  return b;
}

std::unique_ptr<MatrixFreeBdSimulation> simulation_from_bundle(
    const FlightBundle& bundle) {
  const JsonValue& replay = require(bundle.doc, "replay");
  const JsonValue& strings = require(replay, "strings");
  const JsonValue& numbers = require(replay, "numbers");
  if (strings.str_or("driver", "") != "matrix_free")
    throw Error("flight bundle: replay supports the matrix_free driver only");

  const std::size_t n =
      static_cast<std::size_t>(numbers.num_or("n", 0.0));
  if (n == 0 || bundle.positions.size() != 3 * n)
    throw Error("flight bundle: inconsistent particle count");

  ParticleSystem system;
  system.box = require_hex_double(strings, "box");
  system.radius = require_hex_double(strings, "radius");
  system.positions.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    system.positions[i].x = bundle.positions[3 * i];
    system.positions[i].y = bundle.positions[3 * i + 1];
    system.positions[i].z = bundle.positions[3 * i + 2];
  }

  BdConfig config;
  config.dt = require_hex_double(strings, "dt");
  config.kbt = require_hex_double(strings, "kbt");
  config.mu0 = require_hex_double(strings, "mu0");
  config.lambda_rpy =
      static_cast<std::size_t>(numbers.num_or("lambda_rpy", 16.0));
  config.seed = require_hex_u64(strings, "seed");

  PmeParams params;
  params.mesh = static_cast<std::size_t>(numbers.num_or("mesh", 32.0));
  params.order = static_cast<int>(numbers.num_or("order", 6.0));
  params.rmax = require_hex_double(strings, "rmax");
  params.xi = require_hex_double(strings, "xi");
  // The anchor's *live* skin, frozen: the cell decomposition (and with it
  // the force summation order) depends on it, so auto-tuning stays off.
  params.skin = require_hex_double(strings, "skin");
  params.auto_skin = false;
  params.precompute_interp = numbers.num_or("precompute_interp", 1.0) != 0.0;
  params.partial_rebuilds = numbers.num_or("partial_rebuilds", 0.0) != 0.0;
  const std::string precision = strings.str_or("precision", "fp64");
  params.precision = precision == "fp32" ? Precision::fp32 : Precision::fp64;
  const std::string storage = strings.str_or("storage", "full");
  params.storage = storage == "symmetric" ? NearFieldStorage::symmetric
                                          : NearFieldStorage::full;
  const std::string interp = strings.str_or("interp", "bspline");
  params.interp =
      interp == "lagrange" ? InterpKind::lagrange : InterpKind::bspline;
  const std::string brownian = strings.str_or("brownian", "krylov");
  params.brownian = brownian == "wavespace" ? BrownianMethod::wavespace
                                            : BrownianMethod::krylov;
  const std::string kernel = strings.str_or("kernel", "beenakker");
  params.kernel =
      kernel == "pse" ? EwaldKernel::pse : EwaldKernel::beenakker;

  std::shared_ptr<const ForceField> forces;
  const std::string force = strings.str_or("force", "none");
  if (force == "repulsive_harmonic") {
    forces = std::make_shared<RepulsiveHarmonic>(
        require_hex_double(strings, "force_radius"),
        require_hex_double(strings, "force_k"));
  } else if (force == "uniform") {
    forces = std::make_shared<UniformForce>(
        Vec3{require_hex_double(strings, "force_x"),
             require_hex_double(strings, "force_y"),
             require_hex_double(strings, "force_z")});
  } else if (force != "none") {
    throw Error("flight bundle: unsupported force field \"" + force + "\"");
  }

  const double krylov_tol = require_hex_double(strings, "krylov_tol");
  auto sim = std::make_unique<MatrixFreeBdSimulation>(
      std::move(system), std::move(forces), config, params, krylov_tol);
  // Pre-tier bundles carry no "tier" key; the ctor's native tier (implied
  // by brownian/kernel above) is already correct then.  A forced non-native
  // tier must be restored before stepping or the resampled block differs.
  const std::string tier = strings.str_or("tier", "");
  if (!tier.empty()) {
    const MobilityTier t = parse_mobility_tier(tier);
    if (t != sim->tier()) sim->set_tier(t);
  }
  sim->restore_flight(bundle.positions, bundle.rng_traj, bundle.rng_wave,
                      bundle.snapshot_step);
  if (bundle.has_failure && bundle.failure_phase == "inject")
    sim->observer().set_inject_step(bundle.failure_step);
  return sim;
}

ReplayResult replay_flight_bundle(const std::string& path) {
  ReplayResult result;
  FlightBundle bundle;
  try {
    bundle = load_flight_bundle(path);
  } catch (const Error& e) {
    result.error = e.what();
    return result;
  }

  std::unique_ptr<MatrixFreeBdSimulation> sim_ptr;
  try {
    sim_ptr = simulation_from_bundle(bundle);
  } catch (const Error& e) {
    result.error = e.what();
    return result;
  }
  MatrixFreeBdSimulation& sim = *sim_ptr;

  // Re-step through every recorded step at or after the anchor, comparing
  // the recorded position hash bitwise after each one.
  for (const FlightBundle::Record& rec : bundle.records) {
    if (rec.step < bundle.snapshot_step) continue;
    try {
      sim.step(1);
    } catch (const NumericalException& e) {
      result.error = "unexpected failure at step " +
                     std::to_string(sim.steps_taken()) + ": " + e.what();
      return result;
    }
    ++result.steps_replayed;
    const double* pos = &sim.system().positions[0].x;
    const std::uint64_t hash =
        obs::hash_doubles({pos, 3 * sim.system().size()});
    if (hash != rec.pos_hash) {
      result.error = "position hash mismatch at step " +
                     std::to_string(rec.step) + ": replayed " +
                     obs::hex_u64(hash) + " vs recorded " +
                     obs::hex_u64(rec.pos_hash);
      return result;
    }
    ++result.hashes_checked;
  }

  // The failing step itself: the recorded failure must recur, same phase,
  // same step.
  if (bundle.has_failure) {
    try {
      sim.step(1);
      result.error = "failure did not recur at step " +
                     std::to_string(bundle.failure_step);
      return result;
    } catch (const NumericalException& e) {
      if (e.context().phase != bundle.failure_phase ||
          static_cast<std::uint64_t>(e.context().step) !=
              bundle.failure_step) {
        result.error = std::string("different failure recurred: ") + e.what();
        return result;
      }
      result.failure_reproduced = true;
    }
  }

  result.ok = true;
  return result;
}

}  // namespace hbd
