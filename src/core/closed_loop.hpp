#pragma once
/// \file closed_loop.hpp
/// \brief `ClosedLoopTransporter` — the one multi-cage transport path:
/// plan with the CAD router, execute with the cage controller, integrate
/// every body with physics.
///
/// Each actuation step is a full supervisory tick of the control engine:
/// sense the scene, track per-cage occupancy, re-plan around
/// losses/defects/congestion, then actuate. With
/// `ControlConfig::closed_loop = false` the same episode runs open loop —
/// the committed plan executes blind, with the same physics and fault
/// injection (`LabOnChipPlatform::move_cells` runs this mode). Episodes fan
/// out over the shared worker pool on counter-based `Rng::fork` streams, so
/// every trajectory and every event log is bitwise identical for any worker
/// count.

#include <utility>
#include <vector>

#include "chip/cage.hpp"
#include "chip/defects.hpp"
#include "common/rng.hpp"
#include "control/engine.hpp"
#include "control/orchestrator.hpp"
#include "control/streaming.hpp"
#include "core/simulation.hpp"
#include "physics/dynamics.hpp"
#include "sensor/frame.hpp"

namespace biochip::core {

class ThreadPool;

class ClosedLoopTransporter {
 public:
  /// All references must outlive the transporter; `defects` is the chip's
  /// self-test map (drives fault injection, sensing artifacts and the
  /// defect-aware routing mask alike).
  ClosedLoopTransporter(chip::CageController& cages, ManipulationEngine& engine,
                        const sensor::FrameSynthesizer& imager,
                        const chip::DefectMap& defects, double site_period,
                        control::ControlConfig config = {});

  const control::ControlConfig& config() const { return engine_.config(); }

  /// Run one closed-loop episode, fanning the per-body physics over the
  /// global worker pool.
  control::EpisodeReport execute(const std::vector<control::CageGoal>& goals,
                                 std::vector<physics::ParticleBody>& bodies,
                                 const std::vector<std::pair<int, int>>& cage_bodies,
                                 Rng& rng);

  /// One independent closed-loop episode for the pooled fan-out. Episodes
  /// must not share transporters (i.e. controllers/engines/defect maps) or
  /// body arrays: each one mutates its own chip state.
  struct Episode {
    ClosedLoopTransporter* transporter = nullptr;
    std::vector<control::CageGoal> goals;
    std::vector<physics::ParticleBody>* bodies = nullptr;
    std::vector<std::pair<int, int>> cage_bodies;
  };

  /// Execute many independent episodes concurrently over the shared worker
  /// pool. Episode n runs on `rng.split().fork(n)`; inside the fan-out each
  /// episode's body loop runs serially (nested parallel_for on one pool
  /// would deadlock), so results are bitwise identical for any `max_parts`
  /// (pass 1 for the serial reference).
  static std::vector<control::EpisodeReport> execute_episodes(
      std::vector<Episode>& episodes, Rng& rng, std::size_t max_parts = 0);

  /// Run one multi-chamber orchestrated episode: per-chamber supervisory
  /// ticks fan out across the global worker pool (the chamber-level sibling
  /// of the per-body and per-episode fan-outs above), with the orchestrator
  /// arbitrating cross-chamber transfers between ticks. Bitwise identical
  /// for any `max_parts` (1 = serial reference). `obs` (optional) attaches
  /// the telemetry layer for this run; callers own `Observer::finalize`.
  static control::OrchestratorReport execute_orchestrated(
      control::Orchestrator& orchestrator,
      std::vector<control::ChamberSetup>& chambers,
      const std::vector<control::TransferGoal>& transfers, Rng& rng,
      std::size_t max_parts = 0, obs::Observer* obs = nullptr);

  /// Run the open-system streaming mode (continuous arrivals + admission
  /// control, `control::StreamingService`) over the global worker pool.
  /// Bitwise identical for any `max_parts` (1 = serial reference). `obs`
  /// (optional) attaches the telemetry layer for this run; callers own
  /// `Observer::finalize`.
  static control::StreamingReport execute_streaming(
      control::StreamingService& service,
      std::vector<control::ChamberSetup>& chambers, Rng& rng,
      std::size_t max_parts = 0, obs::Observer* obs = nullptr);

 private:
  control::ClosedLoopEngine engine_;
};

}  // namespace biochip::core
