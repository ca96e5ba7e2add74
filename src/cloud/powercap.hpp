#pragma once
// Power-capped datacenter co-simulation: the energy model (tech DVFS
// curves, cloud::ServerPower, energy::PowerBudget) wired INTO the DES
// cluster instead of beside it.  "Energy first" (section 2.2): the power
// cap is the primary constraint, and the interesting question is what a
// capped cluster gives up -- interactive p99, goodput, or neither --
// depending on how the governor spends the budget.
//
// Model.  Every leaf is a server drawing
//     idle_w + (peak_w - idle_w) * u * power_ratio(p-state)
// where the p-state comes from a shared DVFS curve: speed = f(v)/f(vnom)
// divides service times, power_ratio = power(v)/power(vnom) scales the
// dynamic (above-idle) draw.  The datacenter cap is
// cap_fraction * leaves * peak_w of IT power, tracked against an
// energy::PowerBudget.
//
// Enforcement is an *energy contract* on accounting windows of window_s:
// each window owns a dynamic-energy budget (cap - idle floor) * window_s,
// and a job's whole dynamic energy -- pdyn * effective_service -- is
// charged to the window in which it STARTS, through a hard start gate on
// each des::Resource.  A start that would overdraw the window is refused
// and the leaf stalls until the boundary replenishes the budget.  Charged
// window energy therefore never exceeds the cap by construction (the one
// exception, a single job bigger than a whole window's budget, is counted
// in `overruns` and asserted zero by bench_power).  Utilization-based
// accounting cannot make that guarantee: work admitted in one window
// spills its watts into the next.
//
// Policies (PowercapPolicy):
//   kUniform    -- naive static throttle: every leaf pinned at the
//                  fastest p-state whose WORST-CASE draw fits the cap.
//                  Safe, oblivious, and the baseline the adaptive
//                  policies must beat on goodput-per-joule.
//   kPace       -- per-leaf DVFS pacing: each window picks the slowest
//                  p-state keeping that leaf's EWMA-projected utilization
//                  under a pace target.  Spends headroom on lower V.
//   kRaceToIdle -- all leaves at vnom; the window gate alone enforces the
//                  cap (run flat out, then stall).  Race-to-idle emerges
//                  from the contract with no per-leaf control at all.
//   kGovernor   -- race-to-idle speeds plus cap-aware admission at the
//                  root: the budget is converted into a sustainable query
//                  rate and excess queries are shed BEFORE they queue,
//                  so the cluster degrades by saying no, not by slowing
//                  down mid-flight (the metastable-collapse antidote).
//                  The rate is CLOSED-LOOP (AIMD): any window in which
//                  the energy gate had to backstop admission -- retry
//                  storms multiply the true joules per admitted query,
//                  so the static estimate over-admits exactly when it
//                  matters -- halves the rate; a clean window grows it
//                  1.25x back toward the static ceiling.
//
// Determinism: the runtime draws no random numbers, adapts only at
// deterministic window boundaries from deterministic inputs, and with
// enabled == false touches nothing -- results stay byte-identical with
// pre-powercap builds, and across thread-pool sizes as always.

#include <cstdint>
#include <memory>
#include <vector>

#include "cloud/power.hpp"
#include "des/resource.hpp"
#include "energy/budget.hpp"
#include "tech/dvfs.hpp"

namespace arch21::cloud {

/// One p-state of the leaf ladder: a legal supply with its speed
/// (f(v)/f(vnom), the factor service times divide by) and full-load
/// power ratio (power(v)/power(vnom), the factor the dynamic server draw
/// scales by).
struct Pstate {
  double v = 0;
  double speed = 0;
  double power_ratio = 0;
};

/// `n >= 2` evenly spaced supplies from the model's floor to vnom,
/// ascending in speed; back() is exactly {vnom, 1, 1} so the nominal
/// p-state carries no floating-point residue (des::Resource::set_speed(1)
/// must divide service times exactly).  Throws std::invalid_argument for
/// n < 2.
std::vector<Pstate> pstate_ladder(const tech::DvfsModel& dvfs, unsigned n);

/// Highest-speed ladder index whose worst-case server draw
/// idle_w + (peak_w - idle_w) * power_ratio fits `cap_w_per_server`; 0
/// (the floor) when nothing fits.  This IS the kUniform policy.
std::size_t capped_pstate(const std::vector<Pstate>& ladder, double idle_w,
                          double peak_w, double cap_w_per_server);

/// How the powercap runtime spends the budget (see file comment).
enum class PowercapPolicy : std::uint8_t {
  kUniform,
  kPace,
  kRaceToIdle,
  kGovernor,
};

/// Power-capping configuration carried by ClusterConfig.  Defaults model
/// a 40%-proportional server (ServerPower) on the default DVFS curve.
struct PowercapConfig {
  bool enabled = false;
  /// Per-leaf power model; peak_w is the per-leaf draw the cap fraction
  /// is quoted against.
  ServerPower server;
  /// Shared per-leaf DVFS curve (leaves are homogeneous).
  tech::DvfsModel::Params dvfs;
  /// IT-power cap as a fraction of leaves * server.peak_w.  Must satisfy
  /// cap_fraction * peak_w > idle_w -- a cap below the idle floor can
  /// never be met by throttling (the floor burns it standing still).
  double cap_fraction = 1.0;
  /// Accounting/adaptation window (seconds of simulated time).
  double window_s = 0.5;
  PowercapPolicy policy = PowercapPolicy::kGovernor;
  /// P-state ladder size (floor..vnom inclusive).
  unsigned pstates = 8;
  /// kPace: utilization ceiling the paced p-state aims for.
  double pace_target = 0.70;
  /// kGovernor: fraction of the sustainable query rate admitted as the
  /// AIMD ceiling (<= 1 leaves headroom for service-time variance, so a
  /// healthy cluster almost never trips the gate and the rate sits at
  /// the ceiling).
  double admit_margin = 0.85;

  /// Throws std::invalid_argument naming the offending field (only when
  /// enabled; a disabled config is never inspected).
  void validate() const;
};

/// Per-run power telemetry folded into ClusterResult.
struct PowercapStats {
  std::uint64_t shed_queries = 0;  ///< refused by cap-aware admission
  std::uint64_t gate_stalls = 0;   ///< leaf stalls on an exhausted window
  std::uint64_t overruns = 0;      ///< single-job-bigger-than-window starts
  double energy_j = 0;             ///< charged energy over all windows
  double peak_window_w = 0;        ///< max charged window power
  std::vector<double> energy_j_per_window;
};

/// The per-trial powercap engine the cluster engine embeds on its
/// single-kernel (zero-latency) transport.  Owns the p-state
/// ladder, the per-leaf operating points, the window energy contract and
/// the cap-aware admission bucket; the cluster wires its leaves in via
/// attach() and calls on_window() at each boundary.
class PowercapRuntime {
 public:
  /// `background_dyn_frac`: expected busy fraction per leaf from
  /// background load (rate * mean size), used to discount the admissible
  /// query rate.  Throws what PowercapConfig::validate() throws.
  PowercapRuntime(const PowercapConfig& cfg, unsigned leaves,
                  double leaf_service_ms, double background_dyn_frac);

  double cap_w() const noexcept { return budget_.cap(); }
  double window_ms() const noexcept { return window_ms_; }
  /// Dynamic (above idle floor) energy budget of one window, joules.
  double window_budget_j() const noexcept { return window_budget_j_; }
  const std::vector<Pstate>& ladder() const noexcept { return ladder_; }
  const PowercapStats& stats() const noexcept { return stats_; }

  /// Set initial speeds and install the start gates.  `leaves` must
  /// outlive this runtime; detach() clears the gates again.
  void attach(const std::vector<std::unique_ptr<des::Resource>>& leaves);
  /// Remove the gates (end of the accounting horizon: the post-horizon
  /// drain runs unconstrained and uncharged).
  void detach();

  /// Cap-aware admission (kGovernor only; other policies always admit):
  /// a token bucket refilled at the sustainable query rate the window
  /// budget implies.  Counts refusals in stats().shed_queries.
  bool admit(double now_ms);

  /// Window boundary: close the window's energy accounting, let the
  /// policy move p-states, replenish the contract and un-stall the
  /// leaves.  Call exactly once per boundary, in simulation time order.
  void on_window(double now_ms);

  /// Fold the leaves' stall counters into stats() -- call once after the
  /// simulation ends (stalls live in des::Resource until then).
  void finish();

 private:
  bool gate(unsigned leaf, double effective_service_ms);
  void set_pstate(unsigned leaf, std::size_t p);
  void set_admit_rate(double qps);
  void adapt(double now_ms);

  PowercapConfig cfg_;
  unsigned leaves_n_;
  std::vector<Pstate> ladder_;
  energy::PowerBudget budget_;     ///< cap vs idle floor + window draw
  double idle_w_total_ = 0;
  double window_ms_ = 0;
  double window_budget_j_ = 0;     ///< dynamic joules per window
  double window_spent_j_ = 0;
  double last_window_ms_ = 0;      ///< start of the open window
  std::vector<des::Resource*> res_;
  std::vector<std::size_t> leaf_pstate_;
  std::vector<double> leaf_pdyn_w_;     ///< full-load dynamic W at p-state
  std::vector<double> leaf_busy_prev_;  ///< busy_time at last boundary
  std::vector<double> leaf_demand_ewma_;  ///< EWMA demand, NOMINAL units
  // kGovernor admission bucket (queries).  The rate is AIMD-controlled
  // in [max/64, max]: halved after any window the energy gate bound,
  // grown 1.25x after a clean one (see set_admit_rate / on_window).
  double admit_rate_max_ = 0;      ///< static ceiling from the budget
  double admit_rate_qps_ = 0;
  double admit_burst_ = 0;
  double admit_tokens_ = 0;
  double admit_last_ms_ = 0;
  std::uint64_t stalls_seen_ = 0;  ///< gate-stall total at last boundary
  PowercapStats stats_;
};

}  // namespace arch21::cloud
