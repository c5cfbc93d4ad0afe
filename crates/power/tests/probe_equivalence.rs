//! Property tests proving the scheduler's power probe is *exactly* the
//! committed accounting: for idle candidates,
//! `current_power() + idle_busy_probe(count).delta(busy)` must agree
//! bit-for-bit with `power_if`, which commits the same transition via
//! `set_state` on a copy and reads its total.
//!
//! Bit-for-bit is achievable (not just approximate) because the Curie profile
//! tables carry exact integer watt values at every ladder step, so all the
//! power arithmetic stays on integer-valued f64s where addition order cannot
//! change the result. The strategies therefore sample frequencies from the
//! ladder only; off-ladder frequencies interpolate and are covered separately
//! with a tolerance, as is a profile with non-integer watts. On that profile
//! the count-only probe is still checked to the bit against the draws of the
//! idle nodes it stands for.

use apc_power::prelude::*;
use proptest::prelude::*;

/// The three topology shapes the simulator exercises: the grouped Curie tree
/// at two scales, and a flat machine with no shared-equipment levels at all
/// (the degenerate case for the group bookkeeping).
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
fn populated(
    topo: &Topology,
    profile: &NodePowerProfile,
    changes: Vec<(usize, PowerState)>,
) -> ClusterPowerAccountant {
    let mut acct = ClusterPowerAccountant::new(topo, profile);
    let n = topo.total_nodes();
    for (i, (node, state)) in changes.into_iter().enumerate() {
        acct.set_state(node % n, state, i as u64);
    }
    acct
}

/// The distinct idle nodes among `candidates` (taken modulo the node
/// count), in first-pick order: what the scheduler's node selector hands a
/// started job.
fn idle_candidates(acct: &ClusterPowerAccountant, candidates: Vec<usize>) -> Vec<usize> {
    let n = acct.topology().total_nodes();
    let mut nodes: Vec<usize> = Vec::new();
    for node in candidates.into_iter().map(|c| c % n) {
        if acct.state(node) == PowerState::Idle && !nodes.contains(&node) {
            nodes.push(node);
        }
    }
    nodes
}

/// A profile with non-integer watts at every ladder step, where summation
/// order shows in the last bits.
fn fractional_profile() -> NodePowerProfile {
    let busy = FrequencyLadder::curie()
        .steps()
        .iter()
        .enumerate()
        .map(|(i, &f)| (f, Watts(190.7 + 23.3 * i as f64)))
        .collect::<Vec<_>>();
    NodePowerProfile::new(Watts(13.9), Watts(117.1), busy).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The scheduler's walk: one `idle_busy_probe` re-evaluated across the
    /// whole ladder equals `power_if(nodes, Busy(f))` bit-for-bit at every
    /// step, on every topology shape, for any idle candidates.
    #[test]
    fn busy_delta_is_bitwise_equal_to_power_if(
        topo in arbitrary_topology(),
        changes in proptest::collection::vec((0usize..1000, arbitrary_state()), 0..120),
        candidates in proptest::collection::vec(0usize..1000, 0..60),
    ) {
        let profile = NodePowerProfile::curie();
        let acct = populated(&topo, &profile, changes);
        let nodes = idle_candidates(&acct, candidates);
        let probe = acct.idle_busy_probe(nodes.len());
        for &step in FrequencyLadder::curie().steps() {
            let walked = acct.current_power() + probe.delta(profile.busy_watts(step));
            let reference = acct.power_if(&nodes, PowerState::Busy(step));
            prop_assert_eq!(
                walked.as_watts().to_bits(),
                reference.as_watts().to_bits(),
                "ladder walk at {} over {} idle nodes diverged: {} != {}",
                step, nodes.len(), walked, reference
            );
        }
    }

    /// Off-ladder frequencies interpolate between table entries, and a
    /// non-integer profile rounds, so exact bit equality is not guaranteed
    /// there — but the idle probe must still match `power_if` to float
    /// tolerance.
    #[test]
    fn busy_delta_matches_power_if_off_ladder(
        changes in proptest::collection::vec((0usize..1000, arbitrary_state()), 0..80),
        candidates in proptest::collection::vec(0usize..1000, 1..20),
        mhz in 1200u32..2700,
        fractional in 0usize..2,
    ) {
        let topo = Topology::curie_scaled(1);
        let profile = if fractional == 1 {
            fractional_profile()
        } else {
            NodePowerProfile::curie()
        };
        let acct = populated(&topo, &profile, changes);
        let nodes = idle_candidates(&acct, candidates);
        let f = Frequency::from_mhz(mhz);
        let fast = acct.current_power() + acct.idle_busy_probe(nodes.len()).delta(profile.busy_watts(f));
        let full = acct.power_if(&nodes, PowerState::Busy(f));
        prop_assert!(fast.approx_eq(full, 1e-6), "{fast} != {full} at {f}");
    }

    /// The count-only probe over idle nodes is the busy probe of any that
    /// many named idle nodes (their count and their current draws summed
    /// left to right) at every ladder step, to the bit, on the Curie profile
    /// and on one with non-integer watts where the summation order would
    /// show.
    #[test]
    fn idle_busy_probe_is_bitwise_equal_to_busy_probe_on_idle_nodes(
        topo in arbitrary_topology(),
        changes in proptest::collection::vec((0usize..1000, arbitrary_state()), 0..120),
        take in 0usize..1000,
        fractional in 0usize..2,
    ) {
        let profile = if fractional == 1 {
            fractional_profile()
        } else {
            NodePowerProfile::curie()
        };
        let acct = populated(&topo, &profile, changes);
        let idle: Vec<usize> = (0..topo.total_nodes())
            .filter(|&node| acct.state(node) == PowerState::Idle)
            .collect();
        let count = take % (idle.len() + 1);
        let named_sum = idle[..count]
            .iter()
            .fold(Watts::ZERO, |sum, &node| sum + profile.watts(acct.state(node)));
        let probe = acct.idle_busy_probe(count);
        for &step in FrequencyLadder::curie().steps() {
            let busy = profile.busy_watts(step);
            let named = busy * count as f64 - named_sum;
            prop_assert_eq!(
                probe.delta(busy).as_watts().to_bits(),
                named.as_watts().to_bits(),
                "idle probe over {} nodes at {} diverged: {} != {}",
                count, step, probe.delta(busy), named
            );
        }
    }
}
