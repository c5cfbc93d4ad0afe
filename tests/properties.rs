//! Property-based tests on the core data structures and invariants.

use adaptive_powercap::prelude::*;
use apc_power::tradeoff::DecisionRule;
use proptest::prelude::*;

fn arbitrary_state() -> impl Strategy<Value = PowerState> {
    prop_oneof![
        Just(PowerState::Off),
        Just(PowerState::Idle),
        (0usize..8).prop_map(|i| PowerState::Busy(FrequencyLadder::curie().steps()[i])),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The incrementally maintained cluster power always matches a from-scratch
    /// recomputation, whatever the sequence of state changes.
    #[test]
    fn accountant_incremental_matches_recompute(
        changes in proptest::collection::vec((0usize..90, arbitrary_state()), 1..200)
    ) {
        let topo = Topology::curie_scaled(1);
        let profile = NodePowerProfile::curie();
        let mut acct = ClusterPowerAccountant::new(&topo, &profile);
        for (i, (node, state)) in changes.into_iter().enumerate() {
            acct.set_state(node, state, i as u64);
        }
        prop_assert!(acct.current_power().approx_eq(acct.recompute_power(), 1e-6));
    }

    /// Energy integration is non-negative and bounded by the maximum cluster
    /// power times elapsed time.
    #[test]
    fn energy_is_bounded_by_max_power(
        changes in proptest::collection::vec((0usize..90, arbitrary_state()), 1..100),
        horizon in 1u64..10_000
    ) {
        let topo = Topology::curie_scaled(1);
        let profile = NodePowerProfile::curie();
        let mut acct = ClusterPowerAccountant::new(&topo, &profile);
        let n = changes.len() as u64;
        for (i, (node, state)) in changes.into_iter().enumerate() {
            let t = (i as u64) * horizon / n.max(1);
            acct.set_state(node, state, t);
        }
        acct.advance_time(horizon);
        let max_energy = topo.max_cluster_power(&profile).over_seconds(horizon);
        prop_assert!(acct.energy().as_joules() >= 0.0);
        prop_assert!(acct.energy().as_joules() <= max_energy.as_joules() + 1e-6);
    }

    /// Whatever the cap, the Section III decision keeps the planned
    /// configuration's power at or below the cap (when the cap is feasible)
    /// and the work within [0, N].
    #[test]
    fn tradeoff_decisions_respect_the_cap(lambda in 0.02f64..1.2, rule in prop_oneof![
        Just(DecisionRule::PaperRho), Just(DecisionRule::WorkMaximizing)
    ]) {
        let model = PowercapTradeoff::curie_default().with_rule(rule);
        let cap = model.max_power() * lambda;
        let d = model.decide(cap);
        prop_assert!(d.work >= -1e-9 && d.work <= 5040.0 + 1e-9);
        prop_assert!(d.n_off >= -1e-9 && d.n_dvfs >= -1e-9);
        prop_assert!(d.n_off + d.n_dvfs <= 5040.0 + 1e-6);
        if cap >= model.absolute_floor() {
            let planned = model.power_of(d.n_off, d.n_dvfs);
            prop_assert!(
                planned.as_watts() <= cap.as_watts().max(model.max_power().as_watts() * 0.0) + 1e-3
                || d.mechanism == Mechanism::Uncapped,
                "planned {planned} exceeds cap {cap}"
            );
        }
    }

    /// The grouped shutdown planner always reaches a feasible reduction and
    /// never selects more nodes than the plain per-node arithmetic requires.
    #[test]
    fn shutdown_planner_is_sound(kw in 0.1f64..60.0) {
        let topo = Topology::curie_scaled(2);
        let profile = NodePowerProfile::curie();
        let planner = GroupedShutdownPlanner::new(&topo, &profile);
        let request = Watts(kw * 1000.0);
        let plan = planner.plan_unrestricted(request);
        prop_assert!(plan.satisfied());
        let plain_nodes = (request.as_watts() / profile.shutdown_saving().as_watts()).ceil() as usize;
        prop_assert!(plan.node_count() <= plain_nodes.max(1));
        // Node ids are unique and within range.
        let mut nodes = plan.nodes.clone();
        nodes.dedup();
        prop_assert_eq!(nodes.len(), plan.nodes.len());
        prop_assert!(plan.nodes.iter().all(|&n| n < topo.total_nodes()));
    }

    /// DVFS degradation: the factor is always within [1, degmin] and runtime
    /// stretching is monotone in the frequency.
    #[test]
    fn degradation_factor_is_bounded_and_monotone(mhz in 1000u32..3000, runtime in 1u64..100_000) {
        let model = DegradationModel::paper_default();
        let f = Frequency::from_mhz(mhz);
        let factor = model.factor(f);
        prop_assert!(factor >= 1.0 - 1e-12);
        prop_assert!(factor <= model.degmin() + 1e-12);
        let stretched = model.stretch_runtime(runtime, f);
        prop_assert!(stretched >= runtime);
        prop_assert!(stretched <= (runtime as f64 * model.degmin()).ceil() as u64 + 1);
        // Monotone: a slower frequency never shortens the runtime.
        let slower = Frequency::from_mhz(mhz.saturating_sub(200).max(100));
        prop_assert!(model.stretch_runtime(runtime, slower) >= stretched);
    }

    /// The frequency ladder's floor/ceil/next operations are consistent.
    #[test]
    fn ladder_lookups_are_consistent(mhz in 1000u32..3000) {
        let ladder = FrequencyLadder::curie();
        let f = Frequency::from_mhz(mhz);
        if let Some(fl) = ladder.floor(f) {
            prop_assert!(fl <= f);
            prop_assert!(ladder.contains(fl));
        }
        if let Some(ce) = ladder.ceil(f) {
            prop_assert!(ce >= f);
            prop_assert!(ladder.contains(ce));
        }
        for step in ladder.steps() {
            if let Some(lower) = ladder.next_lower(*step) {
                prop_assert!(lower < *step);
                prop_assert_eq!(ladder.next_higher(lower), Some(*step));
            }
        }
    }

    /// Synthetic traces are well-formed for any seed: positive runtimes,
    /// walltimes at least as long as runtimes, core counts within the
    /// machine, submissions inside the interval.
    #[test]
    fn synthetic_traces_are_well_formed(seed in 0u64..500) {
        let platform = Platform::curie_scaled(1);
        let trace = CurieTraceGenerator::new(seed)
            .load_factor(0.4)
            .backlog_factor(0.2)
            .generate_for(&platform);
        prop_assert!(!trace.is_empty());
        for job in &trace.jobs {
            prop_assert!(job.run_time > 0);
            prop_assert!(job.requested_time >= job.run_time);
            prop_assert!(job.cores >= 1);
            prop_assert!(u64::from(job.cores) <= platform.total_cores());
            prop_assert!(job.submit_time < trace.duration);
        }
        // Jobs are ordered by submission time after Trace::new.
        for w in trace.jobs.windows(2) {
            prop_assert!(w[0].submit_time <= w[1].submit_time);
        }
    }

    /// The online scheduler never returns a frequency outside the policy's
    /// allowed ladder, and never starts a job that would break the cap.
    #[test]
    fn online_choice_is_always_legal(
        cap_fraction in 0.2f64..1.0,
        node_count in 1usize..60,
        policy_idx in 0usize..3,
    ) {
        use adaptive_powercap::core::online::{FrequencyChoice, OnlineScheduler};
        use apc_rjms::reservation::ReservationKind;
        use apc_rjms::time::TimeWindow;

        let policy = [PowercapPolicy::Shut, PowercapPolicy::Dvfs, PowercapPolicy::Mix][policy_idx];
        let cluster = Cluster::new(Platform::curie_scaled(1));
        let cap = cluster.platform().max_power() * cap_fraction;
        let mut book = apc_rjms::reservation::ReservationBook::new();
        book.add(TimeWindow::new(0, 1_000_000), ReservationKind::PowerCap { cap });
        let nodes: Vec<usize> = (0..node_count).collect();
        let job = Job::new(0, JobSubmission::new(0, 0, (node_count * 16) as u32, 3600, 600));
        let scheduler = OnlineScheduler::new(policy, cluster.platform());
        match scheduler.choose(&cluster, &book, &job, node_count, 0) {
            FrequencyChoice::Start(f) => {
                let allowed = policy.allowed_ladder(&cluster.platform().ladder);
                prop_assert!(allowed.contains(f), "{policy}: {f} not allowed");
                prop_assert!(cluster.power_if_busy(&nodes, f) <= cap);
            }
            FrequencyChoice::Postpone => {
                // Even the lowest allowed frequency breaks the cap.
                let allowed = policy.allowed_ladder(&cluster.platform().ladder);
                prop_assert!(cluster.power_if_busy(&nodes, allowed.min()) > cap);
            }
        }
    }
}

proptest! {
    // Enough cases that the power floor, the ladder walk and full-speed
    // starts all occur for every capped policy.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Decide-before-place is exact: the count-based decision (power floor
    /// included) equals the node-list ladder walk over the nodes the
    /// selector then picks, on cluster states reached through the public
    /// `Cluster` API and on random reservation books, for every policy, with
    /// the Curie profile and with non-integer watts.
    #[test]
    fn count_decision_equals_the_placed_ladder_walk(
        ops in proptest::collection::vec((0usize..6, 0usize..180, 1usize..24, 0usize..8), 0..48),
        book_entries in proptest::collection::vec(
            ((0usize..5, 0u64..30_000), (1u64..30_000, 0usize..180), (1usize..40, -0.05f64..0.25)),
            0..6,
        ),
        setup in (0usize..4, 0usize..2),
        request in (1usize..90, 1u64..40_000, 0u64..20_000),
    ) {
        use adaptive_powercap::core::online::OnlineScheduler;
        use apc_rjms::mask::NodeMask;
        use apc_rjms::reservation::{ReservationBook, ReservationKind};
        use apc_rjms::select::NodeSelector;
        use apc_rjms::time::TimeWindow;

        let ((policy_idx, fractional), (needed, walltime, now)) = (setup, request);
        let policy = [
            PowercapPolicy::None,
            PowercapPolicy::Shut,
            PowercapPolicy::Dvfs,
            PowercapPolicy::Mix,
        ][policy_idx];
        let mut platform = Platform::curie_scaled(2);
        if fractional == 1 {
            let ladder = FrequencyLadder::curie();
            let busy = ladder
                .steps()
                .iter()
                .enumerate()
                .map(|(i, &f)| (f, Watts(190.7 + 23.3 * i as f64)));
            platform.profile = NodePowerProfile::new(Watts(13.9), Watts(117.1), busy).unwrap();
        }
        let n = platform.total_nodes();
        let mut cluster = Cluster::new(platform);
        let ladder = cluster.platform().ladder.clone();
        let range = |start: usize, len: usize| (start..start + len).map(|i| i % n).collect::<Vec<_>>();
        let mut jobs: Vec<Vec<usize>> = Vec::new();
        for (t, (op, node, len, freq)) in ops.into_iter().enumerate() {
            let t = t as u64;
            match op {
                0 => {
                    let free = cluster.free_count();
                    let nodes: Vec<usize> = cluster
                        .available_nodes()
                        .skip(node % free.max(1))
                        .take(len)
                        .collect();
                    cluster.allocate(jobs.len(), &nodes, ladder.steps()[freq], t);
                    jobs.push(nodes);
                }
                1 if !jobs.is_empty() => {
                    let nodes = jobs.swap_remove(node % jobs.len());
                    cluster.release(&nodes, t);
                }
                // An outage or a switch-off going down, and coming back.
                2 => drop(cluster.power_off(&range(node, len), t)),
                3 => cluster.power_on(&range(node, len), t),
                4 => cluster.drain(&range(node, len)),
                _ => cluster.undrain(&range(node, len)),
            }
        }
        // Caps from just below the current draw to well above it, so the
        // floor, the ladder walk and a start at full speed all occur; caps
        // right at the job's draw at one ladder step; and caps that only a
        // stretched walltime reaches.
        let (current, max_power) = (cluster.current_power(), cluster.platform().max_power());
        let profile = cluster.platform().profile.clone();
        let mut book = ReservationBook::new();
        for ((kind, start), (duration, node), (len, headroom)) in book_entries {
            let mut window = TimeWindow::new(start, start + duration);
            let step = profile.busy_watts(ladder.steps()[node % ladder.len()]);
            let kind = match kind {
                0 => ReservationKind::PowerCap { cap: current + max_power * headroom },
                1 => ReservationKind::PowerCap {
                    cap: current + (step - profile.idle_watts()) * needed as f64,
                },
                2 => {
                    let tail_start = now + walltime + start % (walltime / 2 + 1);
                    window = TimeWindow::new(tail_start, tail_start + duration);
                    ReservationKind::PowerCap { cap: current + max_power * headroom }
                }
                3 => ReservationKind::SwitchOff { nodes: range(node, len) },
                _ => ReservationKind::Maintenance { nodes: range(node, len) },
            };
            book.add(window, kind);
        }

        let job = Job::new(0, JobSubmission::new(0, now, (needed * 16) as u32, walltime, walltime));
        let mut blocked = NodeMask::default();
        book.collect_blocked_within(now, now.saturating_add(walltime), &mut blocked);
        let selector = NodeSelector::default();
        if selector.available_count(&cluster, &blocked) >= needed {
            let selected = selector.select(&cluster, needed, &blocked).unwrap();
            prop_assert!(selected
                .iter()
                .all(|&node| cluster.accountant().state(node) == PowerState::Idle));
            let scheduler = OnlineScheduler::new(policy, cluster.platform());
            let decided = scheduler.choose(&cluster, &book, &job, needed, now);
            let walked = placed_ladder_walk(policy, &cluster, &book, &job, &selected, now);
            prop_assert_eq!(decided, walked);
        }
    }

    /// The keyed priority sort orders the queue exactly as the comparator
    /// sort that recomputes both priorities on every comparison.
    #[test]
    fn keyed_sort_equals_the_comparator_sort(
        queue in proptest::collection::vec((0usize..5, 0u64..40, 1u32..5), 1..120),
        usage in proptest::collection::vec((0usize..5, 0.0f64..4.0e7), 0..5),
        clock in (40u64..2_000_000, 0usize..120),
    ) {
        let (now, rotate) = clock;
        let jobs: Vec<Job> = queue
            .iter()
            .enumerate()
            // Few distinct sizes, users and submit times: many exact ties.
            .map(|(id, &(user, submit, size))| {
                Job::new(id, JobSubmission::new(user, submit, size * 64, 3600, 600))
            })
            .collect();
        let mut fairshare = FairShareTracker::default();
        for (user, core_seconds) in usage {
            fairshare.seed_usage(user, core_seconds);
        }
        let priority = MultifactorPriority::default();
        let total_cores = 2880;
        let mut pending: Vec<usize> = (0..jobs.len()).collect();
        pending.rotate_left(rotate % jobs.len());
        pending.reverse();

        let mut expected = pending.clone();
        expected.sort_by(|&a, &b| {
            let pa = priority.priority(&jobs[a], now, total_cores, &fairshare);
            let pb = priority.priority(&jobs[b], now, total_cores, &fairshare);
            pb.partial_cmp(&pa)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(jobs[a].submission.submit_time.cmp(&jobs[b].submission.submit_time))
                .then(a.cmp(&b))
        });
        let mut keys = Vec::new();
        priority.sort_pending(&jobs, &mut pending, now, total_cores, &fairshare, &mut keys);
        prop_assert_eq!(pending, expected);
    }
}

/// The node-list reference for the count-based decision: Algorithm 2's
/// ladder walk, probing `Cluster::power_if_busy` on the picked nodes at
/// every step over the step's stretched window.
fn placed_ladder_walk(
    policy: PowercapPolicy,
    cluster: &Cluster,
    book: &apc_rjms::reservation::ReservationBook,
    job: &Job,
    nodes: &[usize],
    now: u64,
) -> adaptive_powercap::core::online::FrequencyChoice {
    use adaptive_powercap::core::online::FrequencyChoice;
    let ladder = &cluster.platform().ladder;
    if !policy.enforces_cap() {
        return FrequencyChoice::Start(ladder.max());
    }
    let degradation = policy.degradation(ladder);
    for f in policy.allowed_ladder(ladder).steps_descending() {
        let stretched = degradation.stretch_runtime(job.submission.walltime, f);
        let Some(cap) = book.cap_within(now, now.saturating_add(stretched.max(1))) else {
            return FrequencyChoice::Start(ladder.max());
        };
        if cluster.power_if_busy(nodes, f) <= cap {
            return FrequencyChoice::Start(f);
        }
    }
    FrequencyChoice::Postpone
}
