// Tests for the power-capped co-simulation layer (E33) and the latent
// bugs it activated: DVFS bracket validation and power-fit feasibility,
// PowerBudget NaN/drift handling, ladder assessment of non-positive
// efficiency, Facility::size_for's u > 1 hole, des::Resource p-state
// speed + start-gate semantics, the cloud powercap runtime, and the
// power-capped intent governor.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cloud/cluster.hpp"
#include "cloud/power.hpp"
#include "cloud/powercap.hpp"
#include "cloud/resilience.hpp"
#include "core/governor.hpp"
#include "des/resource.hpp"
#include "des/simulator.hpp"
#include "energy/budget.hpp"
#include "energy/ladder.hpp"
#include "tech/dvfs.hpp"
#include "util/thread_pool.hpp"
#include "golden_digest.hpp"

namespace {

using namespace arch21;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// --- tech::DvfsModel bracket validation + power fit ------------------------

TEST(DvfsValidation, RejectsVminOutsideOpenBracket) {
  tech::DvfsModel::Params p;
  p.vmin = p.vnom;  // floor == vnom: empty operating range
  EXPECT_THROW(tech::DvfsModel m(p), std::invalid_argument);
  p.vmin = p.vnom + 0.1;
  EXPECT_THROW(tech::DvfsModel m(p), std::invalid_argument);
  p.vmin = p.vth;  // f(vth) = 0: a "legal" supply that cannot clock
  EXPECT_THROW(tech::DvfsModel m(p), std::invalid_argument);
  p.vmin = p.vth - 0.05;
  EXPECT_THROW(tech::DvfsModel m(p), std::invalid_argument);
  p.vmin = kNan;
  EXPECT_THROW(tech::DvfsModel m(p), std::invalid_argument);
  p.vmin = -0.5;
  EXPECT_THROW(tech::DvfsModel m(p), std::invalid_argument);
  p.vmin = 0.5;  // strictly inside (vth, vnom): fine
  EXPECT_NO_THROW(tech::DvfsModel m(p));
}

TEST(DvfsValidation, RejectsDefaultedFloorAboveVnom) {
  tech::DvfsModel::Params p;
  p.vmin = 0;  // defaulted floor = vth + 50 mV ...
  p.vnom = p.vth + 0.02;  // ... which would sit above vnom
  EXPECT_THROW(tech::DvfsModel m(p), std::invalid_argument);
}

TEST(DvfsPowerFit, GenerousBudgetIsNominalAndFeasible) {
  tech::DvfsModel m(tech::DvfsModel::Params{});
  const double pnom = m.power(m.params().vnom);
  const auto fit = m.fit_voltage_for_power(pnom * 2);
  EXPECT_TRUE(fit.feasible);
  EXPECT_DOUBLE_EQ(fit.v, m.params().vnom);
  EXPECT_DOUBLE_EQ(m.voltage_for_power(pnom * 2), fit.v);
}

TEST(DvfsPowerFit, ImpossibleBudgetReportsInfeasibleAtFloor) {
  tech::DvfsModel::Params p;
  p.vmin = 0.5;
  tech::DvfsModel m(p);
  const double floor_w = m.power(0.5);
  const auto fit = m.fit_voltage_for_power(floor_w * 0.5);
  EXPECT_FALSE(fit.feasible);
  EXPECT_DOUBLE_EQ(fit.v, 0.5);  // clamped to the floor, and says so
  // The convenience form silently clamps -- same v, no feasibility bit.
  EXPECT_DOUBLE_EQ(m.voltage_for_power(floor_w * 0.5), 0.5);
}

TEST(DvfsPowerFit, MidBudgetBindsAndRoundTrips) {
  tech::DvfsModel m(tech::DvfsModel::Params{});
  const double pnom = m.power(m.params().vnom);
  const double budget = pnom * 0.5;
  const auto fit = m.fit_voltage_for_power(budget);
  ASSERT_TRUE(fit.feasible);
  EXPECT_LT(fit.v, m.params().vnom);
  // The fit fits ...
  EXPECT_LE(m.power(fit.v), budget * (1 + 1e-9));
  // ... and is the HIGHEST such supply: a nudge up breaks the budget.
  EXPECT_GT(m.power(fit.v + 0.02), budget);
}

TEST(DvfsProperties, FrequencyAndPowerMonotoneOnSweep) {
  tech::DvfsModel m(tech::DvfsModel::Params{});
  const auto pts = m.sweep(40);
  ASSERT_EQ(pts.size(), 40u);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GT(pts[i].v, pts[i - 1].v);
    EXPECT_GE(pts[i].f_hz, pts[i - 1].f_hz);
    EXPECT_GE(pts[i].power_w, pts[i - 1].power_w);
  }
  EXPECT_DOUBLE_EQ(pts.back().v, m.params().vnom);
}

TEST(DvfsProperties, EnergyPerOpIsUnimodalWithInteriorValley) {
  tech::DvfsModel m(tech::DvfsModel::Params{});
  const auto pts = m.sweep(60);
  // Unimodal: once energy/op starts rising with V it never falls again.
  bool rising = false;
  int direction_changes = 0;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    const bool up = pts[i].e_op_j > pts[i - 1].e_op_j;
    if (up && !rising) {
      rising = true;
      ++direction_changes;
    }
    if (!up && rising) ++direction_changes;  // would be a second valley
  }
  EXPECT_LE(direction_changes, 1);
  const double vstar = m.min_energy_voltage();
  EXPECT_GT(vstar, pts.front().v);
  EXPECT_LT(vstar, m.params().vnom);
  EXPECT_LE(m.energy_per_op(vstar),
            m.energy_per_op(m.params().vnom));
}

// --- energy::PowerBudget / energy::assess ----------------------------------

TEST(PowerBudget, RejectsNanNegativeAndInfiniteDraws) {
  energy::PowerBudget b("rack", 100);
  EXPECT_THROW(b.add("nan", kNan), std::invalid_argument);
  EXPECT_THROW(b.add("neg", -1), std::invalid_argument);
  EXPECT_THROW(b.add("inf", kInf), std::invalid_argument);
  EXPECT_DOUBLE_EQ(b.total(), 0);  // nothing was recorded
  EXPECT_TRUE(b.add("ok", 40));
  EXPECT_DOUBLE_EQ(b.total(), 40);
}

TEST(PowerBudget, RejectsNonPositiveOrNonFiniteCap) {
  EXPECT_THROW(energy::PowerBudget("b", 0), std::invalid_argument);
  EXPECT_THROW(energy::PowerBudget("b", -5), std::invalid_argument);
  EXPECT_THROW(energy::PowerBudget("b", kNan), std::invalid_argument);
}

TEST(PowerBudget, RemoveRecomputesSoChurnNeverDrifts) {
  energy::PowerBudget b("window", 1000);
  b.add("floor", 0.1);
  // 0.3 has no exact binary representation; a decrement-based remove
  // would accumulate error across this churn.  remove() recomputes from
  // the surviving parts, so the total stays exactly the floor's bits.
  for (int i = 0; i < 10'000; ++i) {
    b.add("dyn", 0.3);
    b.remove("dyn");
  }
  EXPECT_EQ(b.total(), 0.1);  // bitwise, not near
}

TEST(EnergyLadder, NonPositiveEfficiencyNeverMeetsARung) {
  const auto& rung = energy::ladder()[0];
  for (double bad : {0.0, -1.0, kNan, -kInf}) {
    const auto a = energy::assess(rung, bad);
    EXPECT_FALSE(a.met);
    EXPECT_GE(a.gap, 1e300);
  }
  EXPECT_TRUE(energy::assess(rung, 1e12).met);
}

// --- cloud::Facility::size_for ---------------------------------------------

TEST(FacilitySizing, RejectsUtilizationOutsideUnitInterval) {
  cloud::ServerPower srv;
  EXPECT_THROW(cloud::Facility::size_for(srv, 1.5, 1e12, 1.2),
               std::invalid_argument);
  EXPECT_THROW(cloud::Facility::size_for(srv, 1.5, 1e12, 0),
               std::invalid_argument);
  EXPECT_THROW(cloud::Facility::size_for(srv, 1.5, 1e12, -0.5),
               std::invalid_argument);
  EXPECT_THROW(cloud::Facility::size_for(srv, 1.5, 1e12, kNan),
               std::invalid_argument);
  const auto s = cloud::Facility::size_for(srv, 1.5, 1e12, 1.0);
  EXPECT_GT(s.servers, 0u);
  // At u = 1 exactly, sizing counts the full per-server throughput.
  const auto s2 = cloud::Facility::size_for(srv, 1.5, 1e12, 0.5);
  EXPECT_GT(s2.servers, s.servers);
}

// --- des::Resource: p-state speed + start gate -----------------------------

TEST(ResourceSpeed, RejectsNonPositiveOrNonFinite) {
  des::Simulator sim;
  des::Resource r(sim, 1);
  EXPECT_THROW(r.set_speed(0), std::invalid_argument);
  EXPECT_THROW(r.set_speed(-1), std::invalid_argument);
  EXPECT_THROW(r.set_speed(kNan), std::invalid_argument);
  EXPECT_THROW(r.set_speed(kInf), std::invalid_argument);
  EXPECT_NO_THROW(r.set_speed(0.25));
  EXPECT_DOUBLE_EQ(r.speed(), 0.25);
}

TEST(ResourceSpeed, ScalesServiceTimeOfNewStarts) {
  des::Simulator sim;
  des::Resource r(sim, 1);
  r.set_speed(0.5);
  double done_at = -1;
  r.request(1.0, [&](des::Time, des::Time) { done_at = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(done_at, 2.0);  // 1.0 of work at half speed
}

TEST(ResourceSpeed, InFlightJobsKeepTheirRate) {
  des::Simulator sim;
  des::Resource r(sim, 1);
  double done_at = -1;
  r.request(1.0, [&](des::Time, des::Time) { done_at = sim.now(); });
  sim.schedule(0.25, [&] { r.set_speed(0.1); });  // mid-service downclock
  sim.run();
  EXPECT_DOUBLE_EQ(done_at, 1.0);  // unchanged: started at speed 1
}

TEST(ResourceSpeed, UnitSpeedIsBitExact) {
  des::Simulator sim;
  des::Resource r(sim, 1);
  r.set_speed(1.0);
  double done_at = -1;
  r.request(0.3, [&](des::Time, des::Time) { done_at = sim.now(); });
  sim.run();
  EXPECT_EQ(done_at, 0.3);  // IEEE: x / 1.0 == x, bitwise
}

TEST(ResourceGate, RefusalStallsStationUntilRelease) {
  des::Simulator sim;
  des::Resource r(sim, 1);
  bool open = false;
  int asks = 0;
  r.set_start_gate([&](des::Time) {
    ++asks;
    return open;
  });
  double done_at = -1;
  r.request(1.0, [&](des::Time, des::Time) { done_at = sim.now(); });
  sim.run();
  EXPECT_TRUE(r.gate_stalled());
  EXPECT_EQ(r.gate_stalls(), 1u);
  EXPECT_EQ(asks, 1);  // a stalled station does not re-ask per event
  EXPECT_EQ(done_at, -1);
  EXPECT_EQ(r.queue_length(), 1u);  // refused job kept its place
  open = true;
  sim.schedule(5.0, [&] { r.release_gate(); });
  sim.run();
  EXPECT_FALSE(r.gate_stalled());
  EXPECT_DOUBLE_EQ(done_at, 6.0);  // released at t=5 + 1.0 service
}

TEST(ResourceGate, SeesEffectiveServiceAfterSpeedScaling) {
  des::Simulator sim;
  des::Resource r(sim, 1);
  r.set_speed(0.5);
  double seen = -1;
  r.set_start_gate([&](des::Time eff) {
    seen = eff;
    return true;
  });
  r.request(1.0, nullptr);
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 2.0);  // 1.0 requested / 0.5 speed
}

TEST(ResourceGate, StalledJobsStillOccupyBoundedCapacity) {
  des::Simulator sim;
  des::QueuePolicy q;
  q.capacity = 1;
  des::Resource r(sim, 1, q);
  r.set_start_gate([](des::Time) { return false; });
  // Server free, gate refusing: the job waits, filling the ONE slot.
  EXPECT_TRUE(r.request(1.0, nullptr));
  EXPECT_TRUE(r.gate_stalled());
  EXPECT_FALSE(r.request(1.0, nullptr));  // full: rejected at the door
  EXPECT_FALSE(r.request(1.0, nullptr));
  EXPECT_EQ(r.rejected(), 2u);
  EXPECT_EQ(r.queue_length(), 1u);
}

TEST(ResourceGate, DetachUnstallsAndRestoresLegacyBehavior) {
  des::Simulator sim;
  des::Resource r(sim, 1);
  r.set_start_gate([](des::Time) { return false; });
  double done_at = -1;
  r.request(1.0, [&](des::Time, des::Time) { done_at = sim.now(); });
  sim.run();
  EXPECT_TRUE(r.gate_stalled());
  r.set_start_gate(nullptr);  // detach releases and starts pending work
  sim.run();
  EXPECT_DOUBLE_EQ(done_at, 1.0);
}

// --- cloud powercap: ladder, config, runtime -------------------------------

TEST(PstateLadder, AscendsAndPinsNominalExactly) {
  tech::DvfsModel dvfs((tech::DvfsModel::Params()));
  const auto ladder = cloud::pstate_ladder(dvfs, 8);
  ASSERT_EQ(ladder.size(), 8u);
  EXPECT_EQ(ladder.back().v, dvfs.params().vnom);
  EXPECT_EQ(ladder.back().speed, 1.0);        // bitwise: exact-divide rule
  EXPECT_EQ(ladder.back().power_ratio, 1.0);
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_GT(ladder[i].speed, ladder[i - 1].speed);
    EXPECT_GT(ladder[i].power_ratio, ladder[i - 1].power_ratio);
  }
  EXPECT_THROW(cloud::pstate_ladder(dvfs, 1), std::invalid_argument);
}

TEST(PstateLadder, CappedPstateHonorsWorstCaseDraw) {
  tech::DvfsModel dvfs((tech::DvfsModel::Params()));
  const auto ladder = cloud::pstate_ladder(dvfs, 8);
  const double idle = 120, peak = 300;
  EXPECT_EQ(cloud::capped_pstate(ladder, idle, peak, peak),
            ladder.size() - 1);  // full budget: run nominal
  EXPECT_EQ(cloud::capped_pstate(ladder, idle, peak, idle + 1e-6), 0u);
  const std::size_t p = cloud::capped_pstate(ladder, idle, peak, 0.6 * peak);
  EXPECT_LT(p, ladder.size() - 1);
  EXPECT_LE(idle + (peak - idle) * ladder[p].power_ratio, 0.6 * peak);
  if (p + 1 < ladder.size()) {
    EXPECT_GT(idle + (peak - idle) * ladder[p + 1].power_ratio, 0.6 * peak);
  }
}

TEST(PowercapConfig, ValidatesOnlyWhenEnabled) {
  cloud::PowercapConfig cfg;
  cfg.cap_fraction = -3;  // garbage, but disabled: never inspected
  EXPECT_NO_THROW(cfg.validate());
  cfg.enabled = true;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.cap_fraction = 1.0;
  EXPECT_NO_THROW(cfg.validate());
  cfg.cap_fraction = 0.2;  // 0.2 * 300 W < 120 W idle floor
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.cap_fraction = 0.6;
  cfg.window_s = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.window_s = 0.5;
  cfg.pstates = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.pstates = 8;
  cfg.pace_target = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.pace_target = 0.7;
  cfg.admit_margin = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.admit_margin = 0.85;
  cfg.dvfs.vmin = cfg.dvfs.vnom + 1;  // malformed DVFS curve propagates
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(PowercapRuntime, WindowBudgetIsCapMinusIdleFloor) {
  cloud::PowercapConfig cfg;
  cfg.enabled = true;
  cfg.cap_fraction = 0.6;
  cfg.window_s = 0.5;
  cloud::PowercapRuntime rt(cfg, 20, 3.0, 0.06);
  EXPECT_DOUBLE_EQ(rt.cap_w(), 0.6 * 20 * 300);
  EXPECT_DOUBLE_EQ(rt.window_budget_j(), (3600.0 - 20 * 120) * 0.5);
  EXPECT_DOUBLE_EQ(rt.window_ms(), 500.0);
}

TEST(PowercapRuntime, UniformPolicyPinsLeavesAtCappedPstate) {
  cloud::PowercapConfig cfg;
  cfg.enabled = true;
  cfg.cap_fraction = 0.6;
  cfg.policy = cloud::PowercapPolicy::kUniform;
  cloud::PowercapRuntime rt(cfg, 2, 3.0, 0.0);
  des::Simulator sim;
  std::vector<std::unique_ptr<des::Resource>> leaves;
  leaves.push_back(std::make_unique<des::Resource>(sim, 1));
  leaves.push_back(std::make_unique<des::Resource>(sim, 1));
  rt.attach(leaves);
  const std::size_t p = cloud::capped_pstate(
      rt.ladder(), cfg.server.idle_w, cfg.server.peak_w,
      rt.cap_w() / 2);
  for (const auto& l : leaves) {
    EXPECT_DOUBLE_EQ(l->speed(), rt.ladder()[p].speed);
    EXPECT_LT(l->speed(), 1.0);  // a 60% cap really throttles
  }
  rt.detach();
}

TEST(PowercapRuntime, GovernorAdmissionPacesAndCountsShed) {
  cloud::PowercapConfig cfg;
  cfg.enabled = true;
  cfg.cap_fraction = 0.6;
  cfg.policy = cloud::PowercapPolicy::kGovernor;
  cloud::PowercapRuntime rt(cfg, 20, 3.0, 0.06);
  // The bucket starts with one token (no inrush): first query passes,
  // an immediate second at t=0 is shed.
  EXPECT_TRUE(rt.admit(0.0));
  EXPECT_FALSE(rt.admit(0.0));
  EXPECT_EQ(rt.stats().shed_queries, 1u);
  // A second's worth of refill admits roughly the sustainable rate.
  unsigned admitted = 0;
  for (int q = 0; q < 400; ++q) {
    if (rt.admit(1000.0)) ++admitted;
  }
  EXPECT_GT(admitted, 10u);
  EXPECT_LT(admitted, 200u);  // well under the 400 offered
}

TEST(PowercapRuntime, NonGovernorPoliciesAlwaysAdmit) {
  for (auto pol : {cloud::PowercapPolicy::kUniform,
                   cloud::PowercapPolicy::kPace,
                   cloud::PowercapPolicy::kRaceToIdle}) {
    cloud::PowercapConfig cfg;
    cfg.enabled = true;
    cfg.policy = pol;
    cloud::PowercapRuntime rt(cfg, 4, 3.0, 0.0);
    for (int q = 0; q < 100; ++q) EXPECT_TRUE(rt.admit(0.0));
    EXPECT_EQ(rt.stats().shed_queries, 0u);
  }
}

TEST(PowercapRuntime, OversizedJobCountsAsOverrun) {
  cloud::PowercapConfig cfg;
  cfg.enabled = true;
  cfg.cap_fraction = 0.6;
  cfg.window_s = 0.001;  // 1 ms window: one 3 ms job overruns it
  cloud::PowercapRuntime rt(cfg, 1, 3.0, 0.0);
  des::Simulator sim;
  std::vector<std::unique_ptr<des::Resource>> leaves;
  leaves.push_back(std::make_unique<des::Resource>(sim, 1));
  rt.attach(leaves);
  leaves[0]->request(3.0, nullptr);
  sim.run();
  EXPECT_EQ(rt.stats().overruns, 1u);  // admitted at a fresh window, counted
  rt.detach();
}

TEST(PowercapRuntime, WindowAccountingChargesIdleFloorWhenQuiet) {
  cloud::PowercapConfig cfg;
  cfg.enabled = true;
  cfg.cap_fraction = 0.6;
  cfg.window_s = 0.5;
  cloud::PowercapRuntime rt(cfg, 2, 3.0, 0.0);
  rt.on_window(500.0);  // one idle window
  ASSERT_EQ(rt.stats().energy_j_per_window.size(), 1u);
  EXPECT_DOUBLE_EQ(rt.stats().energy_j_per_window[0], 2 * 120 * 0.5);
  EXPECT_DOUBLE_EQ(rt.stats().peak_window_w, 2 * 120.0);
}

// --- cluster integration ---------------------------------------------------

cloud::ClusterConfig small_capped_config(cloud::PowercapPolicy pol) {
  cloud::ClusterConfig cfg;
  cfg.leaves = 4;
  cfg.query_rate_hz = 60;
  cfg.leaf_service_ms = 3.0;
  cfg.duration_s = 4;
  cfg.seed = 2014;
  cfg.goodput_window_s = 1.0;
  cfg.powercap.enabled = true;
  cfg.powercap.cap_fraction = 0.6;
  cfg.powercap.policy = pol;
  return cfg;
}

TEST(ClusterPowercap, RequiresZeroNetworkLatency) {
  auto cfg = small_capped_config(cloud::PowercapPolicy::kGovernor);
  cfg.net_latency_ms = 0.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.net_latency_ms = 0;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ClusterPowercap, DisabledConfigIsUnmetered) {
  cloud::ClusterConfig cfg;
  cfg.leaves = 4;
  cfg.query_rate_hz = 40;
  cfg.duration_s = 2;
  const auto r = cloud::simulate_cluster(cfg);
  EXPECT_EQ(r.energy_j, 0);
  EXPECT_EQ(r.power_cap_w, 0);
  EXPECT_EQ(r.power_shed_queries, 0u);
  EXPECT_EQ(r.power_gate_stalls, 0u);
  EXPECT_TRUE(r.energy_j_per_window.empty());
  EXPECT_EQ(r.goodput_per_joule(), 0);  // no meter, no figure of merit
}

TEST(ClusterPowercap, CappedRunEnforcesContractAndMetersEnergy) {
  for (auto pol : {cloud::PowercapPolicy::kUniform,
                   cloud::PowercapPolicy::kPace,
                   cloud::PowercapPolicy::kRaceToIdle,
                   cloud::PowercapPolicy::kGovernor}) {
    const auto cfg = small_capped_config(pol);
    const auto r = cloud::simulate_cluster(cfg);
    EXPECT_DOUBLE_EQ(r.power_cap_w, 0.6 * 4 * 300);
    EXPECT_DOUBLE_EQ(r.power_window_s, 0.5);
    EXPECT_GT(r.energy_j, 0);
    EXPECT_GT(r.peak_window_w, 0);
    // The headline contract: no accounting window over the cap, ever.
    EXPECT_LE(r.peak_window_w, r.power_cap_w * (1 + 1e-9));
    EXPECT_EQ(r.power_overruns, 0u);
    // duration / window boundaries, the last possibly past the horizon.
    EXPECT_EQ(r.energy_j_per_window.size(), 8u);
    EXPECT_GT(r.goodput_per_joule(), 0);
  }
}

TEST(ClusterPowercap, MergeSumsEnergyAndMaxesPeak) {
  const auto cfg = small_capped_config(cloud::PowercapPolicy::kGovernor);
  auto a = cloud::simulate_cluster(cfg);
  auto cfg2 = cfg;
  cfg2.seed = 7;
  const auto b = cloud::simulate_cluster(cfg2);
  const double esum = a.energy_j + b.energy_j;
  const double pmax = std::max(a.peak_window_w, b.peak_window_w);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.energy_j, esum);
  EXPECT_DOUBLE_EQ(a.peak_window_w, pmax);
  EXPECT_EQ(a.trials, 2u);
}

TEST(ClusterPowercap, MergeRejectsMismatchedCaps) {
  const auto cfg = small_capped_config(cloud::PowercapPolicy::kGovernor);
  auto a = cloud::simulate_cluster(cfg);
  auto cfg2 = cfg;
  cfg2.powercap.cap_fraction = 0.8;
  const auto b = cloud::simulate_cluster(cfg2);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(ClusterPowercap, TrialsAreBitIdenticalAcrossPoolSizes) {
  const auto cfg = small_capped_config(cloud::PowercapPolicy::kGovernor);
  ThreadPool p1(1), p2(2);
  const auto r1 = cloud::run_cluster_trials(cfg, 3, &p1);
  const auto r2 = cloud::run_cluster_trials(cfg, 3, &p2);
  EXPECT_EQ(r1.queries, r2.queries);
  EXPECT_EQ(r1.ok_queries, r2.ok_queries);
  EXPECT_EQ(r1.power_shed_queries, r2.power_shed_queries);
  EXPECT_EQ(r1.power_gate_stalls, r2.power_gate_stalls);
  EXPECT_EQ(r1.energy_j, r2.energy_j);  // bitwise
  EXPECT_EQ(r1.peak_window_w, r2.peak_window_w);
  EXPECT_EQ(r1.energy_j_per_window, r2.energy_j_per_window);
}

TEST(PowerScenarios, LadderNamesAndUncappedReference) {
  cloud::ClusterConfig base;
  base.leaves = 4;
  base.query_rate_hz = 40;
  base.duration_s = 3;
  base.goodput_window_s = 1.0;
  base.faults.burst_leaves = 2;
  base.faults.burst_start_s = 1;
  base.faults.burst_duration_s = 0.5;
  const auto ladder = cloud::power_scenarios(base, 1);
  ASSERT_EQ(ladder.size(), 9u);
  EXPECT_EQ(ladder[0].name, "uncapped");
  EXPECT_FALSE(ladder[0].config.powercap.enabled);
  EXPECT_EQ(ladder[0].result.power_cap_w, 0);
  EXPECT_EQ(ladder[1].name, "cap 60% uniform");
  EXPECT_EQ(ladder[4].name, "cap 60% governor");
  EXPECT_EQ(ladder.back().name, "cap 100% governor");
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_TRUE(ladder[i].config.powercap.enabled);
    EXPECT_LE(ladder[i].result.peak_window_w,
              ladder[i].result.power_cap_w * (1 + 1e-9));
  }
}

// --- core::govern_capped ---------------------------------------------------

TEST(GovernCapped, GenerousCapChangesNothing) {
  tech::DvfsModel dvfs((tech::DvfsModel::Params()));
  std::array<std::uint64_t, isa::kNumIntents> mix{};
  mix.fill(1'000'000);
  const auto plain = core::govern(mix, dvfs);
  const auto capped =
      core::govern_capped(mix, dvfs, dvfs.power(dvfs.params().vnom) * 2);
  EXPECT_TRUE(capped.feasible);
  EXPECT_FALSE(capped.clamped);
  EXPECT_DOUBLE_EQ(capped.cap_v, dvfs.params().vnom);
  for (std::size_t i = 0; i < mix.size(); ++i) {
    EXPECT_DOUBLE_EQ(capped.base.chosen_v[i], plain.chosen_v[i]);
  }
  EXPECT_DOUBLE_EQ(capped.base.hinted.energy_j, plain.hinted.energy_j);
}

TEST(GovernCapped, TightCapClampsAndSlowsThePerfPhase) {
  tech::DvfsModel dvfs((tech::DvfsModel::Params()));
  std::array<std::uint64_t, isa::kNumIntents> mix{};
  mix.fill(1'000'000);
  const double cap = dvfs.power(dvfs.params().vnom) * 0.4;
  const auto capped = core::govern_capped(mix, dvfs, cap);
  EXPECT_TRUE(capped.feasible);
  EXPECT_TRUE(capped.clamped);
  EXPECT_LT(capped.cap_v, dvfs.params().vnom);
  for (double v : capped.base.chosen_v) EXPECT_LE(v, capped.cap_v + 1e-12);
  // The capped schedule cannot hold the nominal-speed deadline.
  EXPECT_GT(capped.base.perf_time_hinted, capped.base.perf_time_nominal);
}

TEST(GovernCapped, InfeasibleCapIsReportedNotSwallowed) {
  tech::DvfsModel::Params p;
  p.vmin = 0.5;
  tech::DvfsModel dvfs(p);
  std::array<std::uint64_t, isa::kNumIntents> mix{};
  mix.fill(1'000);
  const auto capped = core::govern_capped(mix, dvfs, dvfs.power(0.5) * 0.5);
  EXPECT_FALSE(capped.feasible);
  EXPECT_DOUBLE_EQ(capped.cap_v, 0.5);  // pinned to the floor, flagged
}

// --- golden pin --------------------------------------------------------------

// The E33 governor rung (cap-aware shedding admission over the naive
// unbudgeted-retry client) after a crash burst, pinned to the digest
// recorded before the client-policy core was shared across engines
// (tests/golden_digest.hpp).  Window edges fall on the burst edges.
TEST(GoldenDigest, GovernorRung) {
  cloud::ClusterConfig base;
  base.leaves = 12;
  base.query_rate_hz = 120;
  base.leaf_service_ms = 3.0;
  base.background_rate_hz = 30;
  base.background_ms = 2.0;
  base.duration_s = 6;
  base.seed = 2014;
  base.goodput_window_s = 0.5;
  base.faults.burst_leaves = 7;
  base.faults.burst_start_s = 2;
  base.faults.burst_duration_s = 1;
  cloud::PowerLadderPolicies knobs;
  knobs.overload.timeout_ms = 25;
  knobs.overload.sojourn_target_ms = 25;
  const auto r = cloud::simulate_cluster(cloud::power_rung_config(
      base, knobs, 0.6, cloud::PowercapPolicy::kGovernor));
  EXPECT_GT(r.power_shed_queries, 0u);
  EXPECT_GT(r.retries, 0u);
  EXPECT_EQ(r.power_overruns, 0u);
  EXPECT_EQ(golden::digest(r), 0xda5c6a8fa4676e99ULL);
}

}  // namespace
