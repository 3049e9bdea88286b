// N-body gravitational simulation — the paper's first real-world
// application. The physics (all-pairs forces, leapfrog integration,
// energy diagnostics) is implemented for real; the distributed execution
// profile follows the paper: after every step the bodies are exchanged
// with an all-to-all implemented as gather + broadcast, with the message
// size swept independently of the body count in Figure 9(c).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "apps/cg.hpp"  // DistributedProfile
#include "support/rng.hpp"

namespace netconst::apps {

struct Body {
  double x = 0.0, y = 0.0, z = 0.0;
  double vx = 0.0, vy = 0.0, vz = 0.0;
  double mass = 1.0;
};

class NBodySimulation {
 public:
  /// `softening` regularizes close encounters (Plummer softening).
  NBodySimulation(std::vector<Body> bodies, double gravitational_constant = 1.0,
                  double softening = 1e-3);

  const std::vector<Body>& bodies() const { return bodies_; }

  /// One leapfrog (kick-drift-kick) step of size dt.
  void step(double dt);
  void run(std::size_t steps, double dt);

  /// Diagnostics: total energy (kinetic + potential) and momentum —
  /// conserved quantities the tests check.
  double total_energy() const;
  std::array<double, 3> total_momentum() const;

 private:
  void compute_accelerations();

  std::vector<Body> bodies_;
  std::vector<std::array<double, 3>> acceleration_;
  double g_;
  double softening2_;
};

/// Random Plummer-ish cluster of `count` bodies.
std::vector<Body> random_bodies(std::size_t count, Rng& rng);

/// Distributed profile of N-body on `instances` VMs: `steps` rounds,
/// each exchanging `message_bytes` per member (the paper sweeps this
/// from 1 KB to 1 MB) and computing bodies^2 pair interactions split
/// across instances.
DistributedProfile nbody_profile(std::size_t bodies, std::size_t steps,
                                 std::uint64_t message_bytes,
                                 std::size_t instances,
                                 double flop_rate = 2e9);

}  // namespace netconst::apps
