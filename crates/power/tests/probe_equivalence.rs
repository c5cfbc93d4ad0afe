//! Property tests proving the allocation-free probe paths are *exactly* the
//! committed accounting: `power_if` must agree bit-for-bit with applying the
//! same transition via `set_state` on a clone, and the busy fast path
//! (`current + power_delta_if_busy`) must agree bit-for-bit with `power_if`.
//!
//! Bit-for-bit is achievable (not just approximate) because the Curie profile
//! tables carry exact integer watt values at every ladder step, so all the
//! power arithmetic stays on integer-valued f64s where addition order cannot
//! change the result. The strategies therefore sample frequencies from the
//! ladder only; off-ladder frequencies interpolate and are covered separately
//! with a tolerance.

use apc_power::prelude::*;
use proptest::prelude::*;

/// The three topology shapes the simulator exercises: the grouped Curie tree
/// at two scales, and a flat machine with no shared-equipment levels at all
/// (the degenerate case for the group-delta bookkeeping).
fn arbitrary_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![
        Just(Topology::curie_scaled(1)),
        Just(Topology::curie_scaled(2)),
        Just(Topology::flat(37)),
    ]
}

fn arbitrary_state() -> impl Strategy<Value = PowerState> {
    prop_oneof![
        Just(PowerState::Off),
        Just(PowerState::Idle),
        (0usize..8).prop_map(|i| PowerState::Busy(FrequencyLadder::curie().steps()[i])),
    ]
}

/// Build an accountant over `topo` and drive it through a random sequence of
/// committed transitions so probes run against a non-trivial mixed state.
fn populated(topo: &Topology, changes: Vec<(usize, PowerState)>) -> ClusterPowerAccountant {
    let profile = NodePowerProfile::curie();
    let mut acct = ClusterPowerAccountant::new(topo, &profile);
    let n = topo.total_nodes();
    for (i, (node, state)) in changes.into_iter().enumerate() {
        acct.set_state(node % n, state, i as u64);
    }
    acct
}

/// Reference implementation: commit the transition on a clone and read the
/// resulting total. This routes through `set_state`, the independently
/// verified incremental path (`accountant_incremental_matches_recompute`).
fn committed_power(acct: &ClusterPowerAccountant, nodes: &[usize], state: PowerState) -> Watts {
    let mut clone = acct.clone();
    // Any stamp past the populated history works; the probes ignore time.
    for &node in nodes {
        clone.set_state(node, state, 1_000_000);
    }
    clone.current_power()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `power_if` equals committing the same transition, bit-for-bit, for
    /// every target state (Off / Idle / Busy at each ladder step), on every
    /// topology shape, with duplicate candidates allowed.
    #[test]
    fn power_if_is_bitwise_equal_to_committing(
        topo in arbitrary_topology(),
        changes in proptest::collection::vec((0usize..1000, arbitrary_state()), 0..120),
        candidates in proptest::collection::vec(0usize..1000, 1..40),
        target in arbitrary_state(),
    ) {
        let acct = populated(&topo, changes);
        let n = topo.total_nodes();
        let mut nodes: Vec<usize> = candidates.into_iter().map(|c| c % n).collect();
        // Committing is only equivalent for distinct candidates (the probe
        // answers "what if these nodes were in `target`", which is idempotent
        // per node), so dedup before comparing against the committed clone.
        nodes.sort_unstable();
        nodes.dedup();

        let probed = acct.power_if(&nodes, target);
        let committed = committed_power(&acct, &nodes, target);
        prop_assert_eq!(
            probed.as_watts().to_bits(),
            committed.as_watts().to_bits(),
            "power_if {} != committed {} for target {:?} on {} nodes",
            probed, committed, target, nodes.len()
        );
        // And the probe must not have perturbed the accountant itself.
        prop_assert_eq!(
            acct.current_power().as_watts().to_bits(),
            acct.recompute_power().as_watts().to_bits()
        );
    }

    /// The busy fast path: `current_power() + power_delta_if_busy(nodes, f)`
    /// equals `power_if(nodes, Busy(f))` bit-for-bit at every ladder
    /// frequency, and one `busy_probe` re-evaluated across the whole ladder
    /// agrees at every step.
    #[test]
    fn busy_delta_is_bitwise_equal_to_power_if(
        topo in arbitrary_topology(),
        changes in proptest::collection::vec((0usize..1000, arbitrary_state()), 0..120),
        candidates in proptest::collection::vec(0usize..1000, 1..40),
        freq_idx in 0usize..8,
    ) {
        let acct = populated(&topo, changes);
        let n = topo.total_nodes();
        let mut nodes: Vec<usize> = candidates.into_iter().map(|c| c % n).collect();
        nodes.sort_unstable();
        nodes.dedup();

        let ladder = FrequencyLadder::curie();
        let f = ladder.steps()[freq_idx];
        let fast = acct.current_power() + acct.power_delta_if_busy(&nodes, f);
        let full = acct.power_if(&nodes, PowerState::Busy(f));
        prop_assert_eq!(fast.as_watts().to_bits(), full.as_watts().to_bits());

        // One probe, the whole ladder: this is exactly the scheduler's walk.
        let probe = acct.busy_probe(&nodes);
        let profile = NodePowerProfile::curie();
        for &step in ladder.steps() {
            let walked = acct.current_power() + probe.delta(profile.busy_watts(step));
            let reference = committed_power(&acct, &nodes, PowerState::Busy(step));
            prop_assert_eq!(
                walked.as_watts().to_bits(),
                reference.as_watts().to_bits(),
                "ladder walk at {} diverged: {} != {}",
                step, walked, reference
            );
        }
    }

    /// Off-ladder frequencies interpolate between table entries and may land
    /// on non-integer watts, so exact bit equality is not guaranteed there —
    /// but the fast path must still match `power_if` to float tolerance.
    #[test]
    fn busy_delta_matches_power_if_off_ladder(
        changes in proptest::collection::vec((0usize..1000, arbitrary_state()), 0..80),
        candidates in proptest::collection::vec(0usize..1000, 1..20),
        mhz in 1200u32..2700,
    ) {
        let topo = Topology::curie_scaled(1);
        let acct = populated(&topo, changes);
        let n = topo.total_nodes();
        let nodes: Vec<usize> = candidates.into_iter().map(|c| c % n).collect();
        let f = Frequency::from_mhz(mhz);
        let fast = acct.current_power() + acct.power_delta_if_busy(&nodes, f);
        let full = acct.power_if(&nodes, PowerState::Busy(f));
        prop_assert!(fast.approx_eq(full, 1e-6), "{fast} != {full} at {f}");
    }

    /// The count-only probe over idle nodes is `busy_probe` over any that
    /// many idle nodes, to the bit, on the Curie profile and on one with
    /// non-integer watts where the summation order would show.
    #[test]
    fn idle_busy_probe_is_bitwise_equal_to_busy_probe_on_idle_nodes(
        topo in arbitrary_topology(),
        changes in proptest::collection::vec((0usize..1000, arbitrary_state()), 0..120),
        take in 0usize..1000,
        fractional in 0usize..2,
    ) {
        let profile = if fractional == 1 {
            let busy = FrequencyLadder::curie()
                .steps()
                .iter()
                .enumerate()
                .map(|(i, &f)| (f, Watts(190.7 + 23.3 * i as f64)))
                .collect::<Vec<_>>();
            NodePowerProfile::new(Watts(13.9), Watts(117.1), busy).unwrap()
        } else {
            NodePowerProfile::curie()
        };
        let mut acct = ClusterPowerAccountant::new(&topo, &profile);
        let n = topo.total_nodes();
        for (i, (node, state)) in changes.into_iter().enumerate() {
            acct.set_state(node % n, state, i as u64);
        }
        let idle: Vec<usize> = (0..n)
            .filter(|&node| acct.state(node) == PowerState::Idle)
            .collect();
        let count = take % (idle.len() + 1);
        prop_assert_eq!(acct.idle_busy_probe(count), acct.busy_probe(&idle[..count]));
    }
}
