//! Cluster-wide power accounting and energy integration.
//!
//! The RJMS "keeping the state of each resource internally can deduce the
//! power consumption of the whole cluster" (paper Section IV-A). The
//! [`ClusterPowerAccountant`] does exactly that: it mirrors every node's
//! [`PowerState`] and maintains the instantaneous cluster power in O(1) per
//! state change, including the shared-equipment power of partially powered
//! chassis/racks and the *power bonus* when a whole group goes dark.
//!
//! The [`EnergyIntegrator`] turns the resulting piecewise-constant power
//! signal into exact energy (the signal only changes at simulation events, so
//! rectangle integration is exact, not an approximation).

use crate::profile::NodePowerProfile;
use crate::state::PowerState;
use crate::topology::{NodeId, Topology};
use crate::units::{Joules, Watts};
use std::cell::Cell;

/// A timestamped power reading, used to build power time series for the
/// paper's Figures 6 and 7.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// Simulation time in seconds.
    pub time: u64,
    /// Total cluster power at that instant.
    pub power: Watts,
}

/// Frequency-independent summary of "run these idle nodes busy", built by
/// [`idle_busy_probe`](ClusterPowerAccountant::idle_busy_probe) and then
/// evaluated at any number of frequencies in O(1) each via
/// [`delta`](BusyProbe::delta): the online scheduler's ladder walk
/// (Algorithm 2) probes every permitted step for every pending job.
///
/// Idle nodes are powered, so starting them wakes no dark group: the count
/// and the summed idle draw are all the delta needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusyProbe {
    /// Number of candidate nodes (each would draw the busy wattage).
    count: usize,
    /// The candidates' summed idle draw.
    sum_old: Watts,
}

impl BusyProbe {
    /// Cluster power *delta* if the probed nodes all ran at a busy draw of
    /// `busy_watts`: add this to the accountant's current power to get the
    /// hypothetical total.
    #[inline]
    pub fn delta(&self, busy_watts: Watts) -> Watts {
        busy_watts * self.count as f64 - self.sum_old
    }
}

/// Incremental power accounting over every node of a cluster.
#[derive(Debug, Clone)]
pub struct ClusterPowerAccountant {
    topology: Topology,
    profile: NodePowerProfile,
    states: Vec<PowerState>,
    /// For every level and every group of that level: number of nodes of the
    /// group that are powered on. When the count reaches zero the group's
    /// shared equipment stops being charged.
    on_counts: Vec<Vec<usize>>,
    /// Current total power (node power + shared equipment of live groups).
    current: Watts,
    /// Exact energy integrator fed on every state change.
    integrator: EnergyIntegrator,
    /// One sample per state change, for time-series plots and peaks.
    samples: Vec<PowerSample>,
    /// `idle_sums[k]`: the draw of `k` idle nodes, summed by a left fold
    /// from zero. Keep the fold: it is the `f64` every replay has decided
    /// on, which the golden fingerprints pin, and on a profile with
    /// non-integer watts `idle × k` can differ from it in the last bit.
    idle_sums: Vec<Watts>,
    /// [`idle_busy_probe`](Self::idle_busy_probe) calls so far.
    probes: Cell<u64>,
}

impl ClusterPowerAccountant {
    /// Create an accountant with every node idle at time 0.
    pub fn new(topology: &Topology, profile: &NodePowerProfile) -> Self {
        let n = topology.total_nodes();
        let states = vec![PowerState::Idle; n];
        let on_counts: Vec<Vec<usize>> = (0..topology.depth())
            .map(|level| vec![topology.nodes_per_group(level); topology.group_count(level)])
            .collect();
        let node_power = profile.idle_watts() * n as f64;
        let overhead = topology.total_overhead();
        let current = node_power + overhead;
        ClusterPowerAccountant {
            topology: topology.clone(),
            profile: profile.clone(),
            states,
            on_counts,
            current,
            integrator: EnergyIntegrator::new(0),
            samples: vec![PowerSample {
                time: 0,
                power: current,
            }],
            idle_sums: std::iter::successors(Some(Watts::ZERO), |&sum| {
                Some(sum + profile.idle_watts())
            })
            .take(n + 1)
            .collect(),
            probes: Cell::new(0),
        }
    }

    /// The topology the accountant was built for.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The node power profile in use.
    pub fn profile(&self) -> &NodePowerProfile {
        &self.profile
    }

    /// Current state of a node.
    #[inline]
    pub fn state(&self, node: NodeId) -> PowerState {
        self.states[node]
    }

    /// Instantaneous cluster power (nodes + shared equipment of groups with
    /// at least one powered node).
    #[inline]
    pub fn current_power(&self) -> Watts {
        self.current
    }

    /// Number of nodes currently powered off.
    pub fn off_count(&self) -> usize {
        self.states.iter().filter(|s| s.is_off()).count()
    }

    /// Number of nodes currently idle.
    pub fn idle_count(&self) -> usize {
        self.states
            .iter()
            .filter(|s| matches!(s, PowerState::Idle))
            .count()
    }

    /// Number of nodes currently busy.
    pub fn busy_count(&self) -> usize {
        self.states.iter().filter(|s| s.is_busy()).count()
    }

    /// Change the state of `node` at simulation time `time`, updating power
    /// and energy accounting. Returns the new cluster power.
    pub fn set_state(&mut self, node: NodeId, new: PowerState, time: u64) -> Watts {
        let old = self.states[node];
        if old == new {
            return self.current;
        }
        // Energy accrued at the previous power level up to `time`.
        self.integrator.advance(time, self.current);

        // Node contribution.
        self.current -= self.profile.watts(old);
        self.current += self.profile.watts(new);

        // Group overhead contributions. When a group goes completely dark its
        // shared equipment powers off and — for the chassis level on Curie —
        // the residual BMC power of its nodes disappears too (Fig. 2).
        match (old.is_on(), new.is_on()) {
            (true, false) => {
                for level in 0..self.topology.depth() {
                    let g = self.topology.group_of(level, node);
                    let count = &mut self.on_counts[level][g];
                    *count -= 1;
                    if *count == 0 {
                        self.current -= self.topology.group_completion_bonus(level, &self.profile);
                    }
                }
            }
            (false, true) => {
                for level in 0..self.topology.depth() {
                    let g = self.topology.group_of(level, node);
                    let count = &mut self.on_counts[level][g];
                    if *count == 0 {
                        self.current += self.topology.group_completion_bonus(level, &self.profile);
                    }
                    *count += 1;
                }
            }
            _ => {}
        }

        self.states[node] = new;
        self.samples.push(PowerSample {
            time,
            power: self.current,
        });
        self.current
    }

    /// Hypothetical cluster power if the given nodes were moved to `state`:
    /// "temporarily alter the states of the candidate nodes, compute the
    /// resultant consumption" (paper Section V), literally. The change is
    /// committed on a copy at the integrator's last time. Counts no probe.
    ///
    /// The exact reference, O(nodes + samples); the scheduler asks
    /// [`idle_busy_probe`](Self::idle_busy_probe), which gives the same
    /// `f64` for idle candidates on the Curie profile.
    pub fn power_if(&self, nodes: &[NodeId], state: PowerState) -> Watts {
        let mut copy = self.clone();
        let now = self.integrator.last_time();
        for &node in nodes {
            copy.set_state(node, state, now);
        }
        copy.current_power()
    }

    /// The scheduler's power probe: what [`power_if`](Self::power_if)
    /// answers for any `count` idle nodes going busy, as a delta from
    /// [`current_power`](Self::current_power) that costs O(1) per ladder
    /// step, without naming the nodes. Idle nodes are powered, so no dark
    /// group comes back and only the count and their summed draw matter.
    /// Counts as one probe.
    ///
    /// # Panics
    /// Panics if `count` exceeds the number of nodes.
    pub fn idle_busy_probe(&self, count: usize) -> BusyProbe {
        self.probes.set(self.probes.get() + 1);
        BusyProbe {
            count,
            sum_old: self.idle_sums[count],
        }
    }

    /// Advance the energy integrator to `time` without changing any state
    /// (used at the end of a replay interval).
    pub fn advance_time(&mut self, time: u64) {
        self.integrator.advance(time, self.current);
    }

    /// Total energy consumed since construction up to the last `set_state` /
    /// `advance_time` call.
    pub fn energy(&self) -> Joules {
        self.integrator.total()
    }

    /// The recorded power samples: the initial level at time 0, then one per
    /// state change.
    pub fn samples(&self) -> &[PowerSample] {
        &self.samples
    }

    /// Lifetime count of [`idle_busy_probe`](Self::idle_busy_probe) calls.
    /// A plain `Cell` bump, free enough to stay always-on; observability
    /// layers read the deltas.
    pub fn probe_counts(&self) -> u64 {
        self.probes.get()
    }

    /// Consistency check: recompute the power from scratch and compare with
    /// the incrementally maintained value. Used by tests and debug assertions.
    pub fn recompute_power(&self) -> Watts {
        let mut total: Watts = self.states.iter().map(|&s| self.profile.watts(s)).sum();
        for level in 0..self.topology.depth() {
            let overhead = self.topology.levels()[level].overhead;
            let completion = self.topology.group_completion_bonus(level, &self.profile);
            for g in 0..self.topology.group_count(level) {
                let any_on = self
                    .topology
                    .nodes_of_group(level, g)
                    .any(|n| self.states[n].is_on());
                if any_on {
                    total += overhead;
                } else {
                    // The group is completely dark: everything its completion
                    // bonus covers beyond the shared equipment (the node
                    // standby power already summed above) is not drawn.
                    total -= completion - overhead;
                }
            }
        }
        total
    }
}

/// Exact integrator of a piecewise-constant power signal.
///
/// Call [`advance`](EnergyIntegrator::advance) with the power level that was
/// held *since the previous call* whenever the power changes or whenever an
/// energy reading is needed.
#[derive(Debug, Clone, Default)]
pub struct EnergyIntegrator {
    last_time: u64,
    total: Joules,
}

impl EnergyIntegrator {
    /// Start integrating at `start_time`.
    pub fn new(start_time: u64) -> Self {
        EnergyIntegrator {
            last_time: start_time,
            total: Joules::ZERO,
        }
    }

    /// Account for `power` having been drawn from the last recorded time up
    /// to `time`. Times may repeat (zero-length segments add no energy) but
    /// must never go backwards.
    pub fn advance(&mut self, time: u64, power: Watts) {
        debug_assert!(
            time >= self.last_time,
            "energy integration time went backwards: {} -> {}",
            self.last_time,
            time
        );
        if time > self.last_time {
            self.total += power.over_seconds(time - self.last_time);
            self.last_time = time;
        }
    }

    /// The time of the last `advance` call.
    pub fn last_time(&self) -> u64 {
        self.last_time
    }

    /// Total integrated energy.
    pub fn total(&self) -> Joules {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::Frequency;

    fn curie_accountant() -> ClusterPowerAccountant {
        ClusterPowerAccountant::new(&Topology::curie_scaled(2), &NodePowerProfile::curie())
    }

    #[test]
    fn initial_power_is_all_idle_plus_overhead() {
        let acct = curie_accountant();
        let topo = acct.topology().clone();
        let expected = Watts(117.0) * topo.total_nodes() as f64 + topo.total_overhead();
        assert!(acct.current_power().approx_eq(expected, 1e-6));
        assert_eq!(acct.idle_count(), topo.total_nodes());
        assert_eq!(acct.off_count(), 0);
        assert_eq!(acct.busy_count(), 0);
    }

    #[test]
    fn busy_transition_changes_power() {
        let mut acct = curie_accountant();
        let before = acct.current_power();
        acct.set_state(0, PowerState::Busy(Frequency::from_ghz(2.7)), 10);
        let after = acct.current_power();
        assert!(after.approx_eq(before + Watts(358.0 - 117.0), 1e-9));
        assert_eq!(acct.busy_count(), 1);
        // No-op transition keeps power identical.
        acct.set_state(0, PowerState::Busy(Frequency::from_ghz(2.7)), 20);
        assert!(acct.current_power().approx_eq(after, 1e-9));
    }

    #[test]
    fn chassis_bonus_applies_when_fully_off() {
        let mut acct = curie_accountant();
        let topo = acct.topology().clone();
        let before = acct.current_power();
        // Switch off 17 of the 18 nodes of chassis 0: only per-node savings.
        for node in 0..17 {
            acct.set_state(node, PowerState::Off, 0);
        }
        let partial = acct.current_power();
        assert!(partial.approx_eq(before - Watts((117.0 - 14.0) * 17.0), 1e-6));
        // Switching the 18th removes the chassis equipment and the residual
        // BMC power of the whole chassis (the 500 W completion bonus).
        acct.set_state(17, PowerState::Off, 0);
        let full = acct.current_power();
        assert!(full.approx_eq(partial - Watts(117.0 - 14.0) - Watts(500.0), 1e-6));
        assert_eq!(acct.off_count(), 18);
        // Powering one back restores the chassis overhead and the BMCs.
        acct.set_state(17, PowerState::Idle, 0);
        assert!(acct
            .current_power()
            .approx_eq(full + Watts(117.0 - 14.0) + Watts(500.0), 1e-6));
        let _ = topo;
    }

    #[test]
    fn rack_bonus_applies_when_whole_rack_off() {
        let mut acct = curie_accountant();
        let before = acct.current_power();
        for node in 0..90 {
            acct.set_state(node, PowerState::Off, 0);
        }
        let after = acct.current_power();
        // 90 nodes * (117-14) + 5 chassis completion bonuses + rack equipment:
        // switching a whole rack off from idle recovers the full Fig. 2
        // accumulated saving minus the busy-vs-idle difference.
        let expected_drop = Watts(90.0 * 103.0 + 5.0 * 500.0 + 900.0);
        assert!(after.approx_eq(before - expected_drop, 1e-6));
    }

    #[test]
    fn incremental_matches_recompute() {
        let mut acct = curie_accountant();
        let n = acct.topology().total_nodes();
        // A deterministic pseudo-random walk over states.
        let mut x: u64 = 12345;
        for step in 0..2000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let node = (x >> 33) as usize % n;
            let state = match (x >> 10) % 4 {
                0 => PowerState::Off,
                1 => PowerState::Idle,
                2 => PowerState::Busy(Frequency::from_ghz(2.0)),
                _ => PowerState::Busy(Frequency::from_ghz(2.7)),
            };
            acct.set_state(node, state, step);
        }
        assert!(acct.current_power().approx_eq(acct.recompute_power(), 1e-6));
    }

    #[test]
    fn power_if_matches_committed_change() {
        let mut acct = curie_accountant();
        let nodes: Vec<NodeId> = (0..30).collect();
        let hypothetical = acct.power_if(&nodes, PowerState::Busy(Frequency::from_ghz(2.2)));
        for &n in &nodes {
            acct.set_state(n, PowerState::Busy(Frequency::from_ghz(2.2)), 0);
        }
        assert!(hypothetical.approx_eq(acct.current_power(), 1e-6));
    }

    #[test]
    fn power_if_accounts_for_group_switching() {
        let mut acct = curie_accountant();
        // Switch 17 nodes of chassis 0 off for real.
        for node in 0..17 {
            acct.set_state(node, PowerState::Off, 0);
        }
        // Hypothetically switching the last one off must include the bonus.
        let hyp = acct.power_if(&[17], PowerState::Off);
        acct.set_state(17, PowerState::Off, 0);
        assert!(hyp.approx_eq(acct.current_power(), 1e-6));
        // And hypothetically powering a node of that dark chassis back on
        // must re-add the chassis overhead.
        let hyp_on = acct.power_if(&[3], PowerState::Idle);
        acct.set_state(3, PowerState::Idle, 0);
        assert!(hyp_on.approx_eq(acct.current_power(), 1e-6));
    }

    #[test]
    fn busy_delta_is_exactly_power_if() {
        let mut acct = curie_accountant();
        // A mixed state: some nodes off (chassis 0 fully dark), some busy.
        for node in 0..18 {
            acct.set_state(node, PowerState::Off, 0);
        }
        for node in 20..40 {
            acct.set_state(node, PowerState::Busy(Frequency::from_ghz(2.0)), 0);
        }
        // Idle candidates beside the dark chassis and the busy nodes.
        let nodes: Vec<NodeId> = (18..20).chain(40..58).collect();
        let probe = acct.idle_busy_probe(nodes.len());
        for f in [1.2, 2.0, 2.7] {
            let freq = Frequency::from_ghz(f);
            let via_probe = acct.current_power() + probe.delta(acct.profile().busy_watts(freq));
            let via_power_if = acct.power_if(&nodes, PowerState::Busy(freq));
            assert_eq!(
                via_probe.as_watts().to_bits(),
                via_power_if.as_watts().to_bits(),
                "idle probe and power_if disagree at {freq}"
            );
        }
    }

    #[test]
    fn busy_probe_is_reusable_across_frequencies() {
        let mut acct = curie_accountant();
        for node in 0..18 {
            acct.set_state(node, PowerState::Off, 0);
        }
        let nodes: Vec<NodeId> = (18..43).collect();
        let probe = acct.idle_busy_probe(nodes.len());
        for f in [1.2, 1.8, 2.2, 2.7] {
            let freq = Frequency::from_ghz(f);
            let hyp = acct.current_power() + probe.delta(acct.profile().busy_watts(freq));
            // Committing the change must land on the probed value.
            let committed = acct.power_if(&nodes, PowerState::Busy(freq));
            assert!(
                hyp.approx_eq(committed, 1e-6),
                "probe at {freq}: {hyp} vs committed {committed}"
            );
        }
    }

    #[test]
    fn busy_probe_counts_each_dark_group_once() {
        let mut acct = curie_accountant();
        // Whole first rack off: rack equipment and its 5 chassis dark.
        for node in 0..90 {
            acct.set_state(node, PowerState::Off, 0);
        }
        // Two candidates in the same dark chassis: its 500 W completion
        // bonus (and the rack's 900 W) must re-enter exactly once.
        let freq = Frequency::from_ghz(2.7);
        let probed = acct.power_if(&[0, 1], PowerState::Busy(freq));
        let busy = acct.profile().busy_watts(freq);
        let expected = (busy - Watts(14.0)) * 2.0 + Watts(500.0) + Watts(900.0);
        let delta = probed - acct.current_power();
        assert!(
            delta.approx_eq(expected, 1e-6),
            "delta {delta} != expected {expected}"
        );
        // Probing again sees the same, uncommitted state.
        assert_eq!(acct.power_if(&[0, 1], PowerState::Busy(freq)), probed);
    }

    #[test]
    fn idle_busy_probe_is_busy_probe_over_idle_nodes() {
        // Non-integer watts: the probe's rearranged sum may differ from
        // committing node by node in the last bits, never by more.
        let profile = NodePowerProfile::new(
            Watts(13.7),
            Watts(117.3),
            [
                (Frequency::from_ghz(1.2), Watts(191.9)),
                (Frequency::from_ghz(2.7), Watts(357.1)),
            ],
        )
        .unwrap();
        let mut acct = ClusterPowerAccountant::new(&Topology::curie_scaled(2), &profile);
        for node in 0..18 {
            acct.set_state(node, PowerState::Off, 0);
        }
        acct.set_state(30, PowerState::Busy(Frequency::from_ghz(2.7)), 0);
        let idle: Vec<NodeId> = (18..180).filter(|&n| n != 30).collect();
        for count in [0, 1, 7, 90, idle.len()] {
            for freq in [Frequency::from_ghz(1.2), Frequency::from_ghz(2.7)] {
                let probed = acct.current_power()
                    + acct.idle_busy_probe(count).delta(profile.busy_watts(freq));
                let committed = acct.power_if(&idle[..count], PowerState::Busy(freq));
                assert!(
                    probed.approx_eq(committed, 1e-6),
                    "{count} idle nodes at {freq}: {probed} vs {committed}"
                );
            }
        }
    }

    #[test]
    fn only_idle_busy_probe_counts() {
        let acct = curie_accountant();
        assert_eq!(acct.probe_counts(), 0);
        let nodes: Vec<NodeId> = (0..10).collect();
        // The exact reference is no probe, whatever the target …
        acct.power_if(&nodes, PowerState::Busy(Frequency::from_ghz(2.0)));
        acct.power_if(&nodes, PowerState::Off);
        acct.power_if(&nodes, PowerState::Idle);
        assert_eq!(acct.probe_counts(), 0);
        // … while every scheduler probe is one.
        acct.idle_busy_probe(nodes.len());
        acct.idle_busy_probe(0);
        assert_eq!(acct.probe_counts(), 2);
    }

    #[test]
    fn power_if_leaves_the_accountant_untouched() {
        let mut acct = curie_accountant();
        for node in 0..18 {
            acct.set_state(node, PowerState::Off, 100);
        }
        acct.set_state(20, PowerState::Busy(Frequency::from_ghz(2.7)), 250);
        acct.idle_busy_probe(3);
        let before = acct.clone();
        let nodes: Vec<NodeId> = (0..40).collect();
        for state in [
            PowerState::Off,
            PowerState::Idle,
            PowerState::Busy(Frequency::from_ghz(1.2)),
        ] {
            acct.power_if(&nodes, state);
        }
        assert_eq!(acct.current_power(), before.current_power());
        assert_eq!(acct.energy(), before.energy());
        assert_eq!(acct.samples(), before.samples());
        assert_eq!(acct.probe_counts(), before.probe_counts());
        // The integrator did not move either: both accrue the same energy.
        let mut later = before.clone();
        acct.advance_time(400);
        later.advance_time(400);
        assert_eq!(acct.energy(), later.energy());
    }

    #[test]
    fn energy_integration_is_exact() {
        let topo = Topology::flat(2);
        let profile = NodePowerProfile::curie();
        let mut acct = ClusterPowerAccountant::new(&topo, &profile);
        // Two idle nodes for 100 s: 2*117*100 J.
        acct.set_state(0, PowerState::Busy(Frequency::from_ghz(2.7)), 100);
        // One busy + one idle for 50 s: (358+117)*50 J.
        acct.set_state(0, PowerState::Idle, 150);
        // Both idle again for 50 s.
        acct.advance_time(200);
        let expected = 2.0 * 117.0 * 100.0 + (358.0 + 117.0) * 50.0 + 2.0 * 117.0 * 50.0;
        assert!(acct.energy().approx_eq(Joules(expected), 1e-6));
    }

    #[test]
    fn every_state_change_records_a_sample() {
        let mut acct = curie_accountant();
        assert_eq!(acct.samples().len(), 1);
        acct.set_state(0, PowerState::Off, 5);
        assert_eq!(acct.samples().len(), 2);
        // A transition to the state a node already holds changes nothing.
        acct.set_state(0, PowerState::Off, 6);
        assert_eq!(acct.samples().len(), 2);
        acct.set_state(1, PowerState::Off, 6);
        acct.set_state(2, PowerState::Off, 7);
        assert_eq!(acct.samples().len(), 4);
        assert_eq!(acct.samples()[2].time, 6);
        assert_eq!(acct.samples()[3].power, acct.current_power());
    }

    #[test]
    fn integrator_zero_length_segments() {
        let mut i = EnergyIntegrator::new(10);
        i.advance(10, Watts(100.0));
        assert_eq!(i.total(), Joules::ZERO);
        i.advance(20, Watts(100.0));
        assert!(i.total().approx_eq(Joules(1000.0), 1e-9));
        i.advance(20, Watts(500.0));
        assert!(i.total().approx_eq(Joules(1000.0), 1e-9));
        assert_eq!(i.last_time(), 20);
    }
}
