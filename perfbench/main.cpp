// The repository benchmark (see perfbench/README.md).
//
//   perfbench --workload <stream_knee|episode_paper|field_track>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Each workload drives the library only through a public entry point and
// times those calls from outside with std::chrono::steady_clock:
//   stream_knee    core::ClosedLoopTransporter::execute_streaming
//   episode_paper  control::EpisodeRuntime::tick
//   field_track    field::IncrementalPotential::update
//
// A run repeats one deterministic repetition ("rep": set-up, then a fixed op
// sequence generated from --seed) until --seconds have passed. Every rep of a
// run must reproduce the same simulated outputs and work counts bitwise.
// --trace 0 times pooled, untraced reps only; --trace 1 cycles untraced
// pooled, traced pooled and serial reps and reports per-layer numbers from
// the traced ones. Human-readable tables go to stdout first; the last line is
// one JSON object that perfbench/run.py turns into the benchmark result.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cell/library.hpp"
#include "chip/device.hpp"
#include "control/engine.hpp"
#include "control/streaming.hpp"
#include "core/closed_loop.hpp"
#include "core/threadpool.hpp"
#include "field/incremental.hpp"
#include "fluidic/chamber_network.hpp"
#include "obs/obs.hpp"
#include "physics/medium.hpp"

using namespace biochip;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        Clock::now().time_since_epoch())
                                        .count());
}

constexpr double kSitePeriod = 0.4;  // [s] paper site period = one supervisory tick

// ------------------------------------------------------------ statistics ----

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// FNV-1a over raw bytes: a stable digest of simulated state for the
/// run-to-run identity checks (std::hash is not specified to be stable).
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof(v));
  }
};

/// Ordered (key, exact value) list compared with `==`: doubles are printed
/// with 17 significant digits, so equal text means bitwise-equal values.
struct Fingerprint {
  std::vector<std::pair<std::string, std::string>> items;

  void add(const std::string& key, std::uint64_t v) {
    items.emplace_back(key, std::to_string(v));
  }
  void add(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    items.emplace_back(key, buf);
  }
  void add_digest(const std::string& key, const Digest& d) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(d.h));
    items.emplace_back(key, buf);
  }
  bool operator==(const Fingerprint&) const = default;
};

// -------------------------------------------------------------- tracing ----

struct Interval {
  std::uint64_t begin;
  std::uint64_t end;
};

/// Length of the union of `spans` clipped to [lo, hi).
std::uint64_t covered_ns(std::vector<Interval> spans, std::uint64_t lo, std::uint64_t hi) {
  std::sort(spans.begin(), spans.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  std::uint64_t total = 0, cur_b = 0, cur_e = 0;
  bool open = false;
  for (Interval s : spans) {
    s.begin = std::max(s.begin, lo);
    s.end = std::min(s.end, hi);
    if (s.end <= s.begin) continue;
    if (open && s.begin <= cur_e) {
      cur_e = std::max(cur_e, s.end);
      continue;
    }
    if (open) total += cur_e - cur_b;
    cur_b = s.begin;
    cur_e = s.end;
    open = true;
  }
  if (open) total += cur_e - cur_b;
  return total;
}

/// Per-phase busy time of chamber-lane spans (lane >= 0), summed over lanes,
/// plus the per-span durations of one phase (for its percentiles). Chamber
/// lane spans are sequential leaves (`obs::PhaseTicker`), so their duration
/// is their self time.
struct LaneTotals {
  std::map<std::string, double> ns;  ///< phase name -> summed duration [ns]
  std::vector<double> plan_ms;       ///< each plan span [ms]

  double total_ns(const char* phase) const {
    const auto it = ns.find(phase);
    return it == ns.end() ? 0.0 : it->second;
  }
};

LaneTotals lane_totals(const std::vector<obs::TraceSpan>& spans) {
  LaneTotals out;
  for (const obs::TraceSpan& s : spans) {
    if (s.lane < 0) continue;
    out.ns[s.name] += static_cast<double>(s.dur_ns);
    if (std::strcmp(s.name, "plan") == 0)
      out.plan_ms.push_back(static_cast<double>(s.dur_ns) * 1e-6);
  }
  return out;
}

// ------------------------------------------------------------- results ----

struct Row {
  std::string name;
  double value;
  std::string unit;
  std::string better;
  std::string note;
};

/// Everything one rep produced.
struct RepResult {
  double setup_s = 0.0;
  double wall_s = 0.0;       ///< wall time of the timed op sequence
  std::size_t ops = 0;
  std::vector<double> op_ms;  ///< per-op latency (workloads timing single ops)
  Fingerprint sim;   ///< simulated outputs: equal across every rep, serial or pooled
  Fingerprint work;  ///< deterministic work counts, pool counters included
  /// Outputs of the once-per-run verification (field oracle checks): part of
  /// the run's fingerprint, but absent from reps that skip the checks.
  Fingerprint verify;
  std::vector<std::string> failures;  ///< failed output checks
  std::vector<Row> sim_rows;  ///< workload-specific end-to-end outputs (table only)
  std::map<std::string, double> layers;  ///< traced reps: per-layer metrics
  std::uint64_t spans_dropped = 0;
};

/// How one rep runs.
struct Mode {
  bool pooled = true;       ///< library pool on (else the serial reference path)
  bool traced = false;      ///< record trace spans, report per-layer metrics
  bool setup_only = false;  ///< stop after set-up (extra setup_s samples)
  bool verify = false;      ///< run the once-per-run oracle checks (field_track)
};

void check(RepResult& r, bool ok, const std::string& what) {
  if (!ok) r.failures.push_back(what);
}

/// Pool lanes of a pooled rep of `stream_knee` and `field_track`: half the
/// hardware threads. Those two fan out every tick or sweep and wait on a
/// barrier, so a lane stalled by another process on a shared host stalls the
/// whole op; leaving half the cores as slack keeps their timings steady.
std::size_t pooled_lanes() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency() / 2);
}

core::PoolStats pool_delta(const core::PoolStats& before) {
  return core::ThreadPool::global().stats().since(before);
}

// ------------------------------------------------------------- worlds ----

sensor::CapacitivePixel pixel_for(const chip::BiochipDevice& dev) {
  sensor::CapacitivePixel px;
  px.electrode_area = dev.array().footprint({0, 0}).area();
  px.chamber_height = dev.config().chamber_height;
  px.sense_voltage = dev.drive_amplitude();
  return px;
}

/// One chamber's chip state: device, cage controller, physics engine, imager,
/// self-test defect map and the cell bodies.
struct World {
  chip::BiochipDevice dev;
  physics::Medium medium = physics::dep_buffer();
  chip::CageController cages;
  core::ManipulationEngine engine;
  sensor::FrameSynthesizer imager;
  chip::DefectMap defects;
  std::vector<physics::ParticleBody> bodies;
  std::vector<std::pair<int, int>> cage_bodies;
  std::vector<control::CageGoal> goals;

  World(const chip::DeviceConfig& cfg, const field::HarmonicCage& cage,
        std::uint64_t imager_seed)
      : dev(cfg), cages(dev.array(), 2),
        engine(dev, medium, cage, 1.5 * cfg.pitch),
        imager(dev.array(), pixel_for(dev), medium.temperature, imager_seed),
        defects(dev.array()) {}

  physics::ParticleBody body(const cell::ParticleSpec& spec, Vec3 at, int id) const {
    return {at, spec.radius, spec.density,
            spec.dep_prefactor(medium, dev.config().drive_frequency), id};
  }

  /// Keep the 3x3 neighborhood of `site` defect-free (start and goal sites).
  void clear_around(GridCoord site) {
    for (int dr = -1; dr <= 1; ++dr)
      for (int dc = -1; dc <= 1; ++dc) {
        const GridCoord s{site.col + dc, site.row + dr};
        if (dev.array().contains(s)) defects.set_state(s, chip::PixelState::kOk);
      }
  }
};

chip::DeviceConfig paper_config(int side) {
  chip::DeviceConfig cfg = chip::paper_config_on_node(chip::paper_node());
  cfg.cols = side;
  cfg.rows = side;
  return cfg;
}

// ------------------------------------------------------- stream_knee ----
//
// One StreamingService over max(8, nproc) chambers of 20x20 sites, one inlet
// per chamber, Poisson arrivals at the knee of the service curve: the offered
// load matches the rate at which delivered cells/h saturate, so quotas stay
// full and about a quarter of arrivals are shed (2x overload sheds ~half).
// One op = one supervisory tick of the whole service.

constexpr int kStreamSide = 20;
constexpr int kStreamTicks = 3000;
constexpr double kStreamRate = 0.07;  // mean arrivals per inlet-tick

std::size_t stream_chambers() {
  return std::max<std::size_t>(8, std::thread::hardware_concurrency());
}

RepResult run_stream(std::uint64_t seed, Mode mode) {
  RepResult r;
  const std::size_t n = stream_chambers();
  const int side = kStreamSide;
  const Rng root(seed);

  // ---- set-up: device + cage calibration + worlds + network + service.
  const Clock::time_point t_setup = Clock::now();
  const chip::DeviceConfig cfg = paper_config(side);
  const field::HarmonicCage cage = chip::BiochipDevice(cfg).calibrate_cage(5, 6);
  fluidic::ChamberNetwork net;
  fluidic::Microchamber geo;
  geo.length = side * cfg.pitch;
  geo.width = side * cfg.pitch;
  geo.height = cfg.chamber_height;
  const GridCoord inlet{1, side / 2};
  const std::vector<GridCoord> goals = {
      {side - 4, 4}, {side - 4, side / 2}, {side - 4, side - 5}};
  std::vector<std::unique_ptr<World>> worlds;
  for (std::size_t c = 0; c < n; ++c) {
    net.add_chamber(geo, side, side);
    net.add_inlet(static_cast<int>(c), inlet);
    auto w = std::make_unique<World>(cfg, cage, root.fork(2).fork(c)());
    Rng defect_rng = root.fork(1).fork(c);
    w->defects = chip::sample_defects(w->dev.array(), 0.01, defect_rng);
    w->clear_around(inlet);
    for (const GridCoord g : goals) w->clear_around(g);
    worlds.push_back(std::move(w));
  }
  control::StreamingConfig scfg;
  scfg.ticks = kStreamTicks;
  scfg.arrival_rates.assign(n, kStreamRate);
  scfg.type_weights = {3.0, 1.0};
  scfg.body_prototypes = {worlds[0]->body(cell::viable_lymphocyte(), {}, 0),
                          worlds[0]->body(cell::polystyrene_bead(5e-6), {}, 0)};
  scfg.admission.queue_capacity = 4;
  scfg.admission.chamber_quota = 3;
  scfg.admission.degraded_quota = 1;
  scfg.service_deadline = 160;
  scfg.goal_sites.assign(n, goals);
  scfg.control.escape_rate = 1e-3;
  scfg.control.health.enabled = true;
  scfg.elide_idle_chambers = true;
  control::StreamingService service(net, scfg);
  std::vector<control::ChamberSetup> chambers;
  for (auto& w : worlds)
    chambers.push_back({&w->cages, &w->engine, &w->imager, &w->defects, &w->bodies,
                        w->cage_bodies, w->goals});
  r.setup_s = seconds_since(t_setup);
  if (mode.setup_only) return r;

  // ---- timed: the whole service horizon.
  obs::ObsConfig ocfg;
  ocfg.enabled = mode.traced;
  ocfg.timing = true;
  // Service lane (-1): 6 phase spans per tick; chamber lanes: 5 per busy tick.
  ocfg.trace_capacity = static_cast<std::size_t>(kStreamTicks) * (6 + 5 * n) + 1024;
  obs::Observer observer(ocfg);
  Rng stream_rng = root.fork(0);
  const core::PoolStats pool0 = core::ThreadPool::global().stats();
  const Clock::time_point t0 = Clock::now();
  const control::StreamingReport rep = core::ClosedLoopTransporter::execute_streaming(
      service, chambers, stream_rng, mode.pooled ? pooled_lanes() : 1,
      mode.traced ? &observer : nullptr);
  r.wall_s = seconds_since(t0);
  const core::PoolStats pool = pool_delta(pool0);
  r.ops = static_cast<std::size_t>(rep.ticks);

  // ---- output checks: the accounting closure tests/test_streaming.cpp pins.
  const control::AdmissionStats& a = rep.admission;
  std::uint64_t hist_total = 0;
  for (const std::uint64_t h : rep.latency_hist) hist_total += h;
  check(r, rep.ticks == kStreamTicks, "stream: ticks executed != horizon");
  check(r, a.offered == a.shed + a.admitted + rep.queued_end,
        "stream: offered != shed + admitted + queued_end");
  check(r, a.admitted == rep.delivered + rep.evicted + rep.in_flight_end,
        "stream: admitted != delivered + evicted + in_flight_end");
  check(r, hist_total == rep.delivered, "stream: latency histogram total != delivered");
  check(r, rep.delivered > 0, "stream: nothing delivered");

  std::uint64_t events = 0;
  for (const auto& per_chamber : rep.event_counts)
    for (const std::uint64_t k : per_chamber) events += k;
  const std::uint64_t replans = control::count_events(rep, control::EventKind::kRerouted);
  const double cells_per_hour = rep.cells_per_hour(kSitePeriod);
  const int p99_ticks = rep.latency_quantile(0.99);
  const double fail_frac =
      ratio(static_cast<double>(a.shed + rep.evicted), static_cast<double>(a.offered));

  Digest hist, ev, health;
  for (const std::uint64_t h : rep.latency_hist) hist.pod(h);
  for (const auto& per_chamber : rep.event_counts)
    for (const std::uint64_t k : per_chamber) ev.pod(k);
  for (const control::HealthState s : rep.health) health.pod(s);
  r.sim.add("offered", a.offered);
  r.sim.add("shed", a.shed);
  r.sim.add("deferrals", a.deferrals);
  r.sim.add("admitted", a.admitted);
  r.sim.add("queue_wait_ticks", a.queue_wait_ticks);
  r.sim.add("delivered", rep.delivered);
  r.sim.add("evicted", rep.evicted);
  r.sim.add("in_flight_end", static_cast<std::uint64_t>(rep.in_flight_end));
  r.sim.add("queued_end", static_cast<std::uint64_t>(rep.queued_end));
  r.sim.add("cells_per_hour", cells_per_hour);
  r.sim.add("cell_p99_ticks", static_cast<std::uint64_t>(p99_ticks));
  r.sim.add_digest("latency_hist", hist);
  r.sim.add_digest("event_counts", ev);
  r.sim.add_digest("health", health);
  r.sim.add("peak_in_flight", static_cast<std::uint64_t>(rep.peak_in_flight));
  r.sim.add("elided_chamber_ticks", static_cast<std::uint64_t>(rep.elided_chamber_ticks));

  const double pixels = static_cast<double>(side) * side;
  const double frames = static_cast<double>(rep.frames_sensed);
  r.work.add("frames", static_cast<std::uint64_t>(rep.frames_sensed));
  r.work.add("replans", replans);
  r.work.add("events", events);
  r.work.add("pool_jobs", pool.jobs);
  r.work.add("pool_chunks", pool.chunks);

  r.sim_rows = {
      {"fail_frac", fail_frac, "1", "lower", "sim: (shed + evicted) / offered"},
      {"cells_per_hour", cells_per_hour, "1/h", "higher", "sim time"},
      {"cell_p99_ticks", static_cast<double>(p99_ticks), "ticks", "lower", "sim time"},
  };

  if (mode.traced) {
    const std::vector<obs::TraceSpan> spans = observer.trace()->spans();
    r.spans_dropped = observer.trace()->dropped();
    const LaneTotals lanes = lane_totals(spans);
    const double ticks = static_cast<double>(rep.ticks);
    auto per_tick_us = [&](const char* phase) { return lanes.total_ns(phase) * 1e-3 / ticks; };
    // Service-lane `chambers` span minus the union of the chamber-lane spans
    // inside it = fan-out overhead (dispatch, barrier wait, idle lanes'
    // bookkeeping). Busy per chamber per tick for the imbalance ratio.
    std::map<int, std::vector<Interval>> lane_by_tick;
    std::map<int, std::vector<double>> busy_by_tick;
    for (const obs::TraceSpan& s : spans) {
      if (s.lane < 0) continue;
      lane_by_tick[s.tick].push_back({s.start_ns, s.start_ns + s.dur_ns});
      std::vector<double>& busy = busy_by_tick[s.tick];
      busy.resize(n, 0.0);
      busy[static_cast<std::size_t>(s.lane)] += static_cast<double>(s.dur_ns);
    }
    double fanout_self_ns = 0.0, driver_ns = 0.0;
    for (const obs::TraceSpan& s : spans) {
      if (s.lane >= 0) continue;
      if (std::strcmp(s.name, "chambers") == 0) {
        const auto it = lane_by_tick.find(s.tick);
        const std::uint64_t covered =
            it == lane_by_tick.end()
                ? 0
                : covered_ns(it->second, s.start_ns, s.start_ns + s.dur_ns);
        fanout_self_ns += static_cast<double>(s.dur_ns - covered);
      } else {
        driver_ns += static_cast<double>(s.dur_ns);  // leaf service-lane phases
      }
    }
    double max_sum = 0.0, mean_sum = 0.0;
    for (const auto& [tick, busy] : busy_by_tick) {
      double mx = 0.0, sum = 0.0;
      for (const double b : busy) {
        mx = std::max(mx, b);
        sum += b;
      }
      max_sum += mx;
      mean_sum += sum / static_cast<double>(n);
    }
    const double sense_ns = lanes.total_ns("sense");
    const double plan_ns = lanes.total_ns("plan");
    r.layers = {
        {"core.fanout_self_us_per_tick", fanout_self_ns * 1e-3 / ticks},
        {"core.lane_imbalance", ratio(max_sum, mean_sum)},
        {"physics.us_per_tick", per_tick_us("physics")},
        {"sensor.us_per_tick", per_tick_us("sense")},
        {"sensor.frames", frames},
        {"sensor.pixel_samples", frames * pixels},
        {"sensor.ns_per_pixel_sample", ratio(sense_ns, frames * pixels)},
        {"control.actuate_us_per_tick", per_tick_us("actuate")},
        {"control.track_us_per_tick", per_tick_us("track")},
        {"control.plan_us_per_tick", per_tick_us("plan")},
        {"control.plan_p99_ms", quantile(lanes.plan_ms, 0.99)},
        {"control.driver_us_per_tick", driver_ns * 1e-3 / ticks},
        {"control.admitted", static_cast<double>(a.admitted)},
        {"control.shed", static_cast<double>(a.shed)},
        {"control.evicted", static_cast<double>(rep.evicted)},
        {"control.events", static_cast<double>(events)},
        {"cad.replans", static_cast<double>(replans)},
        {"cad.ms_per_replan", ratio(plan_ns * 1e-6, static_cast<double>(replans))},
    };
  }
  if (mode.pooled) {
    r.layers["core.pool_jobs_per_op"] = ratio(static_cast<double>(pool.jobs), r.ops);
    r.layers["core.pool_chunks_per_op"] = ratio(static_cast<double>(pool.chunks), r.ops);
  }
  return r;
}

// ----------------------------------------------------- episode_paper ----
//
// One closed-loop episode on the paper's 320x320 array: a seeded crowd of
// cages, each towed a fixed Manhattan distance in a seeded direction. The
// benchmark calls EpisodeRuntime::tick itself. One op = one tick.

constexpr int kEpisodeCages = 128;
constexpr int kEpisodeTow = 80;      // Manhattan tow distance [pitches]
constexpr int kEpisodeSpacing = 5;    // min Chebyshev distance between endpoints

struct EpisodeLayout {
  std::vector<GridCoord> starts;
  std::vector<GridCoord> goals;
};

EpisodeLayout episode_layout(int side, Rng rng) {
  EpisodeLayout out;
  const auto far_from_all = [&](GridCoord s) {
    for (const auto* list : {&out.starts, &out.goals})
      for (const GridCoord o : *list)
        if (std::max(std::abs(o.col - s.col), std::abs(o.row - s.row)) < kEpisodeSpacing)
          return false;
    return true;
  };
  const int lo = 3, hi = side - 4;
  while (static_cast<int>(out.starts.size()) < kEpisodeCages) {
    const GridCoord s{static_cast<int>(rng.uniform_int(lo, hi)),
                      static_cast<int>(rng.uniform_int(lo, hi))};
    const int dc = static_cast<int>(rng.uniform_int(0, kEpisodeTow));
    const int sc = rng.bernoulli(0.5) ? 1 : -1;
    const int sr = rng.bernoulli(0.5) ? 1 : -1;
    const GridCoord g{s.col + sc * dc, s.row + sr * (kEpisodeTow - dc)};
    if (g.col < lo || g.col > hi || g.row < lo || g.row > hi) continue;
    if (!far_from_all(s)) continue;
    out.starts.push_back(s);
    if (!far_from_all(g)) {
      out.starts.pop_back();
      continue;
    }
    out.goals.push_back(g);
  }
  return out;
}

RepResult run_episode(std::uint64_t seed, Mode mode) {
  RepResult r;
  const Rng root(seed);

  // ---- set-up: paper device + calibration + world + initial plan.
  const Clock::time_point t_setup = Clock::now();
  const chip::DeviceConfig cfg = chip::paper_device().config();
  const int side = cfg.cols;
  const field::HarmonicCage cage = chip::BiochipDevice(cfg).calibrate_cage(5, 6);
  World w(cfg, cage, root.fork(2)());
  Rng defect_rng = root.fork(1);
  w.defects = chip::sample_defects(w.dev.array(), 0.01, defect_rng);
  const EpisodeLayout layout = episode_layout(side, root.fork(3));
  const cell::ParticleSpec spec = cell::viable_lymphocyte();
  for (std::size_t k = 0; k < layout.starts.size(); ++k) {
    w.clear_around(layout.starts[k]);
    w.clear_around(layout.goals[k]);
    const int id = w.cages.create(layout.starts[k]);
    w.bodies.push_back(w.body(spec, w.engine.field_model().trap_center(layout.starts[k]), id));
    w.cage_bodies.emplace_back(id, static_cast<int>(w.bodies.size()) - 1);
    w.goals.push_back({id, layout.goals[k]});
  }
  control::ControlConfig config;
  config.escape_rate = 0.003;
  control::ClosedLoopEngine engine(w.cages, w.engine, w.imager, w.defects, kSitePeriod,
                                   config);
  control::EpisodeRuntime rt(engine, w.goals, w.bodies, w.cage_bodies, root.fork(0),
                             mode.pooled ? &core::ThreadPool::global() : nullptr);
  r.setup_s = seconds_since(t_setup);
  check(r, rt.planned(), "episode: initial plan failed");
  if (mode.setup_only || !rt.planned()) return r;

  // ---- timed: one tick per op until delivered or out of budget.
  obs::TraceRecorder recorder(static_cast<std::size_t>(rt.budget()) * 5 + 64);
  if (mode.traced) rt.set_trace(&recorder, 0);
  const core::PoolStats pool0 = core::ThreadPool::global().stats();
  const Clock::time_point t0 = Clock::now();
  for (int t = 1; t <= rt.budget(); ++t) {
    const Clock::time_point a = Clock::now();
    rt.tick(t);
    r.op_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - a).count());
    if (rt.all_delivered()) break;
  }
  r.wall_s = seconds_since(t0);
  const core::PoolStats pool = pool_delta(pool0);
  const control::EpisodeReport rep = rt.finish();
  r.ops = r.op_ms.size();

  // ---- output checks.
  check(r, rep.ticks == static_cast<int>(r.ops), "episode: report ticks != ticks run");
  check(r, rep.delivered_ids.size() + rep.failed_ids.size() == w.goals.size(),
        "episode: a goal cage is neither delivered nor failed");
  check(r, !rep.delivered_ids.empty(), "episode: nothing delivered");

  Digest ids, events, bodies;
  for (const int id : rep.delivered_ids) ids.pod(id);
  ids.pod(-1);
  for (const int id : rep.failed_ids) ids.pod(id);
  for (const control::ControlEvent& e : rep.events) {
    events.pod(e.tick);
    events.pod(e.kind);
    events.pod(e.cage_id);
    events.pod(e.site.col);
    events.pod(e.site.row);
  }
  for (const physics::ParticleBody& b : w.bodies) bodies.pod(b.position);
  const double fail_frac = ratio(static_cast<double>(rep.failed_ids.size()),
                                 static_cast<double>(w.goals.size()));
  r.sim.add("ticks", static_cast<std::uint64_t>(rep.ticks));
  r.sim.add("delivered", static_cast<std::uint64_t>(rep.delivered_ids.size()));
  r.sim.add("failed", static_cast<std::uint64_t>(rep.failed_ids.size()));
  r.sim.add_digest("delivered_set", ids);
  r.sim.add_digest("events", events);
  r.sim.add_digest("final_bodies", bodies);

  const std::size_t substeps_per_tick = static_cast<std::size_t>(
      std::max(1.0, std::round(kSitePeriod / w.engine.integrator().options().dt)));
  const double body_ticks = static_cast<double>(w.bodies.size()) * rep.ticks;
  const double substeps = body_ticks * static_cast<double>(substeps_per_tick);
  const double frames = static_cast<double>(rep.frames_sensed);
  const double pixels = static_cast<double>(side) * side;
  r.work.add("frames", static_cast<std::uint64_t>(rep.frames_sensed));
  r.work.add("replans", static_cast<std::uint64_t>(rep.replans));
  r.work.add("events", static_cast<std::uint64_t>(rep.events.size()));
  r.work.add("body_ticks", static_cast<std::uint64_t>(body_ticks));
  r.work.add("pool_jobs", pool.jobs);
  r.work.add("pool_chunks", pool.chunks);

  r.sim_rows = {{"fail_frac", fail_frac, "1", "lower", "sim: failed goals / goals"},
                {"delivered", static_cast<double>(rep.delivered_ids.size()), "count",
                 "higher", "sim"},
                {"ticks", static_cast<double>(rep.ticks), "ticks", "lower", "sim time"}};

  if (mode.traced) {
    r.spans_dropped = recorder.dropped();
    const LaneTotals lanes = lane_totals(recorder.spans());
    const double ticks = static_cast<double>(rep.ticks);
    r.layers = {
        {"physics.us_per_tick", lanes.total_ns("physics") * 1e-3 / ticks},
        {"physics.body_ticks", body_ticks},
        {"physics.substeps", substeps},
        {"physics.ns_per_substep", ratio(lanes.total_ns("physics"), substeps)},
        {"sensor.us_per_tick", lanes.total_ns("sense") * 1e-3 / ticks},
        {"sensor.frames", frames},
        {"sensor.pixel_samples", frames * pixels},
        {"sensor.ns_per_pixel_sample", ratio(lanes.total_ns("sense"), frames * pixels)},
        {"control.actuate_us_per_tick", lanes.total_ns("actuate") * 1e-3 / ticks},
        {"control.track_us_per_tick", lanes.total_ns("track") * 1e-3 / ticks},
        {"control.plan_us_per_tick", lanes.total_ns("plan") * 1e-3 / ticks},
        {"control.plan_p99_ms", quantile(lanes.plan_ms, 0.99)},
        {"control.events", static_cast<double>(rep.events.size())},
        {"cad.replans", static_cast<double>(rep.replans)},
        {"cad.ms_per_replan",
         ratio(lanes.total_ns("plan") * 1e-6, static_cast<double>(rep.replans))},
    };
  }
  if (mode.pooled) {
    r.layers["core.pool_jobs_per_op"] = ratio(static_cast<double>(pool.jobs), r.ops);
    r.layers["core.pool_chunks_per_op"] = ratio(static_cast<double>(pool.chunks), r.ops);
  }
  return r;
}

// -------------------------------------------------------- field_track ----
//
// A seeded cage-hop sequence through IncrementalPotential::update on a 16x16
// electrode tile at 4 nodes/pitch and 16 pitches of height (65^3 nodes), with
// periodic full-FMG re-anchors and the solver fanned over pooled_lanes() pool
// lanes. One op = one update.

constexpr int kTile = 16;
constexpr int kTileNodesPerPitch = 4;
constexpr double kTilePitch = 20e-6;
constexpr std::size_t kFieldCages = 8;
constexpr std::size_t kFieldUpdates = 1024;
constexpr std::size_t kReanchorPeriod = 16;
constexpr double kOracleBudgetV = 0.08;  // tests/test_field_incremental.cpp budget
constexpr std::size_t kOracleChecks = 8;

/// Seeded cage-hop drive generator: every step either moves one cage to a
/// free lateral neighbor or flips its amplitude between 1.0 and 0.6 V, so
/// every update changes at least one electrode.
struct HopSequence {
  explicit HopSequence(Rng rng) : rng_(rng) {
    drive.assign(static_cast<std::size_t>(kTile) * kTile, 0.0);
    while (pos_.size() < kFieldCages) {
      const GridCoord s{static_cast<int>(rng_.uniform_int(0, kTile - 1)),
                        static_cast<int>(rng_.uniform_int(0, kTile - 1))};
      if (!occupied(s)) {
        pos_.push_back(s);
        amp_.push_back(1.0);
      }
    }
    write();
  }

  void step() {
    const auto who = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(pos_.size()) - 1));
    bool moved = false;
    if (!rng_.bernoulli(0.2)) {
      static constexpr int dc[4] = {1, -1, 0, 0};
      static constexpr int dr[4] = {0, 0, 1, -1};
      const auto first = static_cast<int>(rng_.uniform_int(0, 3));
      for (int k = 0; k < 4 && !moved; ++k) {
        const int d = (first + k) & 3;
        const GridCoord s{pos_[who].col + dc[d], pos_[who].row + dr[d]};
        if (s.col >= 0 && s.col < kTile && s.row >= 0 && s.row < kTile && !occupied(s)) {
          pos_[who] = s;
          moved = true;
        }
      }
    }
    if (!moved) amp_[who] = amp_[who] == 1.0 ? 0.6 : 1.0;
    write();
  }

  std::vector<double> drive;

 private:
  bool occupied(GridCoord s) const {
    return std::any_of(pos_.begin(), pos_.end(), [&](GridCoord p) { return p == s; });
  }
  void write() {
    std::fill(drive.begin(), drive.end(), 0.0);
    for (std::size_t k = 0; k < pos_.size(); ++k)
      drive[static_cast<std::size_t>(pos_[k].row) * kTile +
            static_cast<std::size_t>(pos_[k].col)] = amp_[k];
  }

  Rng rng_;
  std::vector<GridCoord> pos_;
  std::vector<double> amp_;
};

double max_abs_diff(const Grid3& a, const Grid3& b) {
  double worst = 0.0;
  for (std::size_t m = 0; m < a.size(); ++m)
    worst = std::max(worst, std::fabs(a.data()[m] - b.data()[m]));
  return worst;
}

RepResult run_field(std::uint64_t seed, Mode mode) {
  const bool oracle_checks = mode.verify;
  RepResult r;

  // ---- set-up: tile layout + tracker + the first full solve.
  const Clock::time_point t_setup = Clock::now();
  field::ChamberDomain domain;
  domain.spacing = kTilePitch / kTileNodesPerPitch;
  domain.width_x = kTile * kTilePitch;
  domain.width_y = kTile * kTilePitch;
  domain.height = kTile * kTilePitch;
  std::vector<Rect> footprints;
  for (int row = 0; row < kTile; ++row)
    for (int col = 0; col < kTile; ++col) {
      const double cx = (col + 0.5) * kTilePitch, cy = (row + 0.5) * kTilePitch;
      const double half = 0.4 * kTilePitch;
      footprints.push_back({{cx - half, cy - half}, {cx + half, cy + half}});
    }
  field::SolverOptions opts;
  opts.cycle = field::CycleType::fmg;
  opts.tolerance = 1e-8;
  // threads > 1 runs the sweeps on the solver's own pool of that many lanes;
  // its counters are not public, so this workload has no ThreadPool::stats()
  // deltas to report.
  opts.threads = mode.pooled ? pooled_lanes() : 1;
  opts.incremental.tolerance = 1e-8;
  opts.incremental.window_radius_pitches = 2.5;
  opts.incremental.reanchor_period = kReanchorPeriod;
  field::IncrementalPotential tracker(domain, footprints, /*lid_present=*/false,
                                      kTilePitch, opts);
  HopSequence hops(Rng(seed).fork(4));
  tracker.update(hops.drive);
  r.setup_s = seconds_since(t_setup);
  if (mode.setup_only) return r;

  // ---- timed: one update per op. Oracle checks run between ops, outside
  // the timed region: right before `kOracleChecks` evenly spread re-anchors
  // (the most drift a windowed state accumulates) and right after them.
  const std::size_t check_every =
      kFieldUpdates / kReanchorPeriod / kOracleChecks * kReanchorPeriod;
  obs::TraceRecorder recorder(kFieldUpdates + 16);
  const field::SolveAccounting acc0 = tracker.accounting();
  std::vector<double> window_ms, reanchor_ms;
  Digest reports;
  std::size_t checks = 0, over_budget = 0;
  double max_err = 0.0;
  double timed_s = 0.0;
  for (std::size_t k = 1; k <= kFieldUpdates; ++k) {
    hops.step();
    const std::uint64_t a = now_ns();
    const field::IncrementalPotential::UpdateReport u = tracker.update(hops.drive);
    const std::uint64_t b = now_ns();
    const double ms = static_cast<double>(b - a) * 1e-6;
    timed_s += ms * 1e-3;
    r.op_ms.push_back(ms);
    (u.reanchored ? reanchor_ms : window_ms).push_back(ms);
    if (mode.traced)
      recorder.record(u.reanchored ? "update.reanchor" : "update.window", a, b, -1,
                      static_cast<int>(k));
    reports.pod(u.reanchored);
    reports.pod(u.changed);
    reports.pod(u.windows);
    reports.pod(u.window_fraction);

    // Oracle comparisons: the windowed state right before a checked
    // re-anchor, and bitwise equality right after it.
    if (oracle_checks && check_every > 0 && (k + 1) % check_every == 0) {
      const double err = max_abs_diff(tracker.potential(), tracker.oracle());
      ++checks;
      over_budget += err > kOracleBudgetV ? 1 : 0;
      max_err = std::max(max_err, err);
    }
    if (oracle_checks && check_every > 0 && k % check_every == 0) {
      check(r, u.reanchored, "field: expected a re-anchor on the cadence");
      ++checks;
      if (max_abs_diff(tracker.potential(), tracker.oracle()) != 0.0) {
        ++over_budget;
        r.failures.push_back("field: state right after a re-anchor != oracle bitwise");
      }
    }
  }
  r.wall_s = timed_s;
  r.ops = kFieldUpdates;
  const field::SolveAccounting& acc = tracker.accounting();

  if (oracle_checks) {
    check(r, checks > 0, "field: no oracle checks ran");
    check(r, over_budget == 0, "field: windowed state over the 0.08 V oracle budget");
  }
  Digest phi;
  phi.bytes(tracker.potential().data().data(), tracker.potential().size() * sizeof(double));
  const double fe = acc.fine_equiv_sweeps - acc0.fine_equiv_sweeps;
  const std::uint64_t window_solves = acc.window_solves - acc0.window_solves;
  r.sim.add_digest("final_potential", phi);
  r.sim.add_digest("update_reports", reports);
  r.work.add("solves", acc.solves - acc0.solves);
  r.work.add("window_solves", window_solves);
  r.work.add("cycles", acc.cycles - acc0.cycles);
  r.work.add("total_sweeps", acc.total_sweeps - acc0.total_sweeps);
  r.work.add("fe_sweeps", fe);

  if (oracle_checks) {
    r.verify.add("oracle_max_err_v", max_err);
    r.verify.add("oracle_checks", static_cast<std::uint64_t>(checks));
    r.sim_rows = {{"fail_frac", ratio(static_cast<double>(over_budget), checks), "1",
                   "lower", "oracle checks over budget / checks"},
                  {"oracle_max_err_v", max_err, "V", "lower", "windowed vs full solve"},
                  {"oracle_checks", static_cast<double>(checks), "count", "", ""}};
  }

  if (mode.traced) {
    r.spans_dropped = recorder.dropped();
    const double nodes = static_cast<double>(tracker.potential().size());
    r.layers = {
        {"field.window_update_ms_p50", median(window_ms)},
        {"field.reanchor_ms_p50", median(reanchor_ms)},
        {"field.solves", static_cast<double>(acc.solves - acc0.solves)},
        {"field.window_solves", static_cast<double>(window_solves)},
        {"field.cycles", static_cast<double>(acc.cycles - acc0.cycles)},
        {"field.fe_sweeps", fe},
        {"field.window_fraction_mean",
         ratio(acc.window_fraction_sum - acc0.window_fraction_sum,
               static_cast<double>(window_solves))},
        {"field.ns_per_node_sweep", ratio(timed_s * 1e9, fe * nodes)},
    };
  }
  return r;
}

// --------------------------------------------------------------- main ----

/// The per-layer catalog: every workload prints every entry (0 where the
/// workload does not exercise that layer).
const std::vector<std::pair<std::string, std::string>>& layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      {"core.fanout_self_us_per_tick", "us"}, {"core.lane_imbalance", "ratio"},
      {"core.pool_jobs_per_op", "count"},     {"core.pool_chunks_per_op", "count"},
      {"core.parallel_speedup", "ratio"},     {"physics.us_per_tick", "us"},
      {"physics.body_ticks", "count"},        {"physics.substeps", "count"},
      {"physics.ns_per_substep", "ns"},       {"sensor.us_per_tick", "us"},
      {"sensor.frames", "count"},             {"sensor.pixel_samples", "count"},
      {"sensor.ns_per_pixel_sample", "ns"},   {"control.actuate_us_per_tick", "us"},
      {"control.track_us_per_tick", "us"},    {"control.plan_us_per_tick", "us"},
      {"control.plan_p99_ms", "ms"},          {"control.driver_us_per_tick", "us"},
      {"control.admitted", "count"},          {"control.shed", "count"},
      {"control.evicted", "count"},           {"control.events", "count"},
      {"cad.replans", "count"},               {"cad.ms_per_replan", "ms"},
      {"field.window_update_ms_p50", "ms"},   {"field.reanchor_ms_p50", "ms"},
      {"field.solves", "count"},              {"field.window_solves", "count"},
      {"field.cycles", "count"},              {"field.fe_sweeps", "count"},
      {"field.window_fraction_mean", "1"},    {"field.ns_per_node_sweep", "ns"},
      {"obs.trace_overhead_frac", "1"},       {"obs.spans_dropped", "count"},
  };
  return catalog;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, &end, 10);
      if (end == val || *end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val, &end);
      if (end == val || *end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      args.trace = std::strcmp(val, "1") == 0;
      if (!args.trace && std::strcmp(val, "0") != 0) return false;
    } else {
      return false;
    }
  }
  return args.workload == "stream_knee" || args.workload == "episode_paper" ||
         args.workload == "field_track";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// Peak resident set of this process image [MB]: VmHWM, which starts afresh
/// at exec (getrusage's ru_maxrss would carry over the launching process's
/// peak).
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  std::fclose(f);
  return kib / 1024.0;
}

/// Per-op median across reps: every rep runs the identical op sequence, so
/// op i's median over reps is its cost with transient host contention
/// filtered out.
std::vector<double> per_op_median(const std::vector<const RepResult*>& reps) {
  std::vector<double> out;
  if (reps.empty()) return out;
  std::size_t n = reps.front()->op_ms.size();
  for (const RepResult* r : reps) n = std::min(n, r->op_ms.size());
  out.resize(n);
  std::vector<double> col(reps.size());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < reps.size(); ++k) col[k] = reps[k]->op_ms[i];
    out[i] = median(col);
  }
  return out;
}

/// Median ops/s of a set of reps.
double median_rate(const std::vector<const RepResult*>& reps) {
  std::vector<double> walls;
  for (const RepResult* r : reps) walls.push_back(r->wall_s);
  return reps.empty() ? 0.0 : static_cast<double>(reps.front()->ops) / median(walls);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <stream_knee|episode_paper|field_track> "
                 "--seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }

  const auto run_rep = [&](Mode mode) -> RepResult {
    if (args.workload == "stream_knee") return run_stream(args.seed, mode);
    if (args.workload == "episode_paper") return run_episode(args.seed, mode);
    return run_field(args.seed, mode);
  };

  // Rep schedule. --trace 0: pooled untraced reps, at least 3 (per-op
  // medians). --trace 1: cycles of (untraced pooled, traced pooled, serial).
  std::vector<Mode> cycle = {Mode{true, false}};
  std::size_t min_reps = 3;
  if (args.trace) {
    cycle = {Mode{true, false}, Mode{true, true}, Mode{false, false}};
    min_reps = cycle.size();
  }
  constexpr std::size_t kMaxReps = 60;
  // setup_s is the median of at least kSetupSamples set-ups: every rep's own
  // plus set-up-only samples interleaved between the reps, so the set-up
  // samples spread over the whole run like the timed ops do.
  constexpr std::size_t kSetupSamples = 25;
  std::vector<RepResult> reps;
  std::vector<Mode> modes;
  std::vector<double> setups;
  const Clock::time_point start = Clock::now();
  const auto sample_setups_until = [&](double share) {
    while (static_cast<double>(setups.size()) < share * kSetupSamples)
      setups.push_back(run_rep(Mode{true, false, /*setup_only=*/true, false}).setup_s);
  };
  while (reps.size() < kMaxReps &&
         (reps.size() < min_reps || seconds_since(start) < args.seconds ||
          reps.size() % cycle.size() != 0)) {
    Mode mode = cycle[reps.size() % cycle.size()];
    mode.verify = reps.empty();
    reps.push_back(run_rep(mode));
    modes.push_back(mode);
    setups.push_back(reps.back().setup_s);
    sample_setups_until(std::min(1.0, seconds_since(start) / args.seconds));
  }
  sample_setups_until(1.0);

  // ---- identity checks across reps (in-process half of the determinism
  // contract; run.py compares across processes).
  std::vector<std::string> failures;
  for (std::size_t k = 0; k < reps.size(); ++k)
    for (const std::string& f : reps[k].failures)
      failures.push_back("rep " + std::to_string(k) + ": " + f);
  const RepResult& ref = reps.front();
  for (std::size_t k = 1; k < reps.size(); ++k) {
    if (!(reps[k].sim == ref.sim))
      failures.push_back("rep " + std::to_string(k) +
                         ": simulated outputs differ from rep 0 (serial vs pooled or "
                         "run to run)");
    if (modes[k].pooled && !(reps[k].work == ref.work))
      failures.push_back("rep " + std::to_string(k) + ": work counts differ from rep 0");
    if (reps[k].op_ms.size() != ref.op_ms.size())
      failures.push_back("rep " + std::to_string(k) + ": op count differs from rep 0");
  }

  auto select = [&](bool pooled, bool traced) {
    std::vector<const RepResult*> out;
    for (std::size_t k = 0; k < reps.size(); ++k)
      if (modes[k].pooled == pooled && modes[k].traced == traced) out.push_back(&reps[k]);
    return out;
  };
  const std::vector<const RepResult*> timed = select(true, false);
  std::size_t attempted = 0;
  for (const RepResult& r : reps) attempted += r.ops;

  // ---- end-to-end metrics (pooled, untraced reps).
  const std::vector<double> op_ms = per_op_median(timed);
  double op_total_ms = 0.0;
  for (const double v : op_ms) op_total_ms += v;
  const bool per_op = !op_ms.empty();
  const double ops_per_s =
      per_op ? 1e3 * static_cast<double>(op_ms.size()) / op_total_ms : median_rate(timed);
  std::vector<Row> e2e = {
      {"setup_s", median(setups), "s", "lower",
       "host; median of " + std::to_string(setups.size()) + " set-ups"},
      {"peak_rss_mb", peak_rss_mb(), "MB", "lower", "host; whole process"},
      {"ops_per_s", ops_per_s, "1/s", "higher",
       per_op ? "host; sum of per-op medians" : "host; median rep wall"},
  };
  if (per_op) {
    const std::size_t n = op_ms.size();
    e2e.push_back({"op_p50_ms", quantile(op_ms, 0.50), "ms", "lower",
                   "host; n=" + std::to_string(n)});
    e2e.push_back({"op_p99_ms", quantile(op_ms, 0.99), "ms", "lower",
                   "host; n=" + std::to_string(n) + ", " +
                       std::to_string(static_cast<std::size_t>(0.01 * n)) + " beyond"});
  }
  for (const Row& row : ref.sim_rows) e2e.push_back(row);

  // ---- per-layer metrics (traced reps; pool counters from any pooled rep).
  std::map<std::string, double> layers;
  for (const auto& [name, unit] : layer_catalog()) layers[name] = 0.0;
  if (args.trace) {
    const std::vector<const RepResult*> traced = select(true, true);
    std::map<std::string, std::vector<double>> samples;
    std::uint64_t dropped = 0;
    for (const RepResult* r : traced) {
      for (const auto& [name, v] : r->layers) samples[name].push_back(v);
      dropped += r->spans_dropped;
    }
    for (const auto& [name, v] : samples) layers[name] = median(v);
    const double untraced_rate = median_rate(timed);
    layers["core.parallel_speedup"] = ratio(untraced_rate, median_rate(select(false, false)));
    layers["obs.trace_overhead_frac"] = 1.0 - ratio(median_rate(traced), untraced_rate);
    layers["obs.spans_dropped"] = static_cast<double>(dropped);
    if (dropped != 0) failures.push_back("trace ring dropped spans");
  }

  // ---- human-readable tables.
  std::printf("workload %s  seed %llu  reps %zu  pool threads %zu  lanes %zu  elapsed %.1f s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              reps.size(), core::ThreadPool::global().size(), pooled_lanes(),
              seconds_since(start));
  std::printf("\nend-to-end%s\n", args.trace ? " (from the untraced pooled reps)" : "");
  for (const Row& row : e2e)
    std::printf("  %-18s %14.6g %-6s %-7s %s\n", row.name.c_str(), row.value,
                row.unit.c_str(), row.better.c_str(), row.note.c_str());
  std::printf("\nrep walls [s]:");
  for (const RepResult* r : timed) std::printf(" %.4g", r->wall_s);
  std::printf("\nwork counts (identical for every rep of this seed)\n");
  for (const auto& [k, v] : ref.work.items) std::printf("  %-22s %s\n", k.c_str(), v.c_str());
  std::printf("\nsimulated outputs (identical for every rep of this seed)\n");
  for (const Fingerprint* fp : {&ref.sim, &ref.verify})
    for (const auto& [k, v] : fp->items) std::printf("  %-22s %s\n", k.c_str(), v.c_str());
  if (args.trace) {
    std::printf("\nper-layer (traced reps)\n");
    for (const auto& [name, unit] : layer_catalog())
      std::printf("  %-30s %14.6g %s\n", name.c_str(), layers[name], unit.c_str());
  }
  for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());

  // ---- machine-readable last line.
  std::string json = "{\"workload\":\"" + args.workload + "\",\"attempted\":" +
                     std::to_string(attempted) + ",\"failures\":[";
  for (std::size_t k = 0; k < failures.size(); ++k)
    json += (k ? ",\"" : "\"") + json_escape(failures[k]) + "\"";
  json += "],\"end_to_end\":{";
  for (std::size_t k = 0; k < e2e.size(); ++k)
    json += (k ? ",\"" : "\"") + e2e[k].name + "\":{\"value\":" + json_number(e2e[k].value) +
            ",\"unit\":\"" + e2e[k].unit + "\"}";
  json += "},\"per_layer\":{";
  bool first = true;
  for (const auto& [name, unit] : layer_catalog()) {
    json += (first ? "\"" : ",\"") + name + "\":{\"value\":" + json_number(layers[name]) +
            ",\"unit\":\"" + unit + "\"}";
    first = false;
  }
  json += "},\"fingerprint\":{";
  first = true;
  for (const Fingerprint* fp : {&ref.sim, &ref.work, &ref.verify})
    for (const auto& [k, v] : fp->items) {
      json += (first ? "\"" : ",\"") + k + "\":\"" + v + "\"";
      first = false;
    }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failures.empty() ? 0 : 1;
}
