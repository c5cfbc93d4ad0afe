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
        use adaptive_powercap::core::online::OnlineScheduler;
        use apc_rjms::reservation::ReservationKind;
        use apc_rjms::time::TimeWindow;

        let policy = [PowercapPolicy::Shut, PowercapPolicy::Dvfs, PowercapPolicy::Mix][policy_idx];
        let cluster = Cluster::new(Platform::curie_scaled(1));
        let cap = cluster.platform().max_power() * cap_fraction;
        let mut book = apc_rjms::reservation::ReservationBook::new();
        book.add(TimeWindow::new(0, 1_000_000), ReservationKind::PowerCap { cap });
        let nodes: Vec<usize> = (0..node_count).collect();
        let scheduler = OnlineScheduler::new(policy, cluster.platform());
        match scheduler.choose(&cluster, &book, node_count, 3600, 0) {
            StartDecision::Start { frequency: f } => {
                let allowed = policy.allowed_ladder(&cluster.platform().ladder);
                prop_assert!(allowed.contains(f), "{policy}: {f} not allowed");
                prop_assert!(cluster.accountant().power_if(&nodes, PowerState::Busy(f)) <= cap);
            }
            StartDecision::Postpone => {
                // Even the lowest allowed frequency breaks the cap.
                let allowed = policy.allowed_ladder(&cluster.platform().ladder);
                prop_assert!(
                    cluster.accountant().power_if(&nodes, PowerState::Busy(allowed.min())) > cap
                );
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
        ops in proptest::collection::vec((0usize..4, 0usize..180, 1usize..24, 0usize..8), 0..48),
        book_entries in proptest::collection::vec(
            ((0usize..4, 0u64..30_000), (1u64..30_000, 0usize..180), (1usize..40, -0.05f64..0.25)),
            0..6,
        ),
        setup in (0usize..4, 0usize..2),
        request in (1usize..90, 1u64..40_000, 0u64..20_000),
    ) {
        use adaptive_powercap::core::online::OnlineScheduler;
        use apc_rjms::mask::NodeMask;
        use apc_rjms::reservation::{ReservationBook, ReservationKind};
        use apc_rjms::select;
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
        let mut holds: Vec<Vec<usize>> = Vec::new();
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
                    cluster.release_mask(&nodes.into_iter().collect(), t);
                }
                // An outage or a switch-off going down, and one placed
                // earlier coming back.
                2 => {
                    drop(cluster.hold_off(&range(node, len), t));
                    holds.push(range(node, len));
                }
                3 if !holds.is_empty() => {
                    let nodes = holds.swap_remove(node % holds.len());
                    drop(cluster.release_hold(&nodes, t));
                }
                _ => {}
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
                _ => ReservationKind::SwitchOff { nodes: range(node, len) },
            };
            book.add(window, kind);
        }

        let mut blocked = NodeMask::default();
        book.collect_blocked_within(now, now.saturating_add(walltime), &mut blocked);
        if select::available_count(&cluster, &blocked) >= needed {
            let selected = select::select(&cluster, needed, &blocked).unwrap();
            prop_assert!(selected
                .iter()
                .all(|&node| cluster.accountant().state(node) == PowerState::Idle));
            let scheduler = OnlineScheduler::new(policy, cluster.platform());
            let decided = scheduler.choose(&cluster, &book, needed, walltime, now);
            let walk = |slack| {
                placed_ladder_walk(policy, &cluster, &book, walltime, &selected, now, slack)
            };
            if fractional == 0 {
                prop_assert_eq!(decided, walk(Watts::ZERO));
            } else {
                // Non-integer watts round differently when the probe sums
                // the idle draws than when `power_if` commits node by node,
                // so the two may split only on a cap within rounding of a
                // step's draw: the decision lies between the walks that
                // give the cap a microwatt less and more.
                let speed = |decision| match decision {
                    StartDecision::Start { frequency } => Some(frequency),
                    StartDecision::Postpone => None,
                };
                let (low, high) = (walk(Watts(-1e-6)), walk(Watts(1e-6)));
                prop_assert!(
                    speed(low) <= speed(decided) && speed(decided) <= speed(high),
                    "{decided:?} outside [{low:?}, {high:?}]"
                );
            }
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
        let priority = MultifactorPriority;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Postponing is monotone in the node count and the walltime: whatever
    /// `choose` postpones, it also postpones for a job at least as wide
    /// and as long, on random 1–3-rack clusters with busy and switched-off
    /// nodes and 0–3 caps. The controller's skip rule rests on this.
    #[test]
    fn postponing_is_monotone_in_width_and_walltime(
        ops in proptest::collection::vec((0usize..2, 0usize..270, 1usize..24, 0usize..8), 0..24),
        caps in proptest::collection::vec(((0u64..20_000, 1u64..40_000), -0.05f64..0.3), 0..4),
        setup in (1usize..4, 0usize..3, 0u64..20_000),
        request in ((0usize..270, 0usize..270), (1u64..40_000, 0u64..40_000)),
    ) {
        use adaptive_powercap::core::online::OnlineScheduler;
        use apc_rjms::reservation::{ReservationBook, ReservationKind};
        use apc_rjms::time::TimeWindow;

        let (racks, policy_idx, now) = setup;
        let policy = [PowercapPolicy::Shut, PowercapPolicy::Dvfs, PowercapPolicy::Mix][policy_idx];
        let mut cluster = Cluster::new(Platform::curie_scaled(racks));
        let ladder = cluster.platform().ladder.clone();
        let n = cluster.platform().total_nodes();
        for (t, (op, node, len, freq)) in ops.into_iter().enumerate() {
            let nodes: Vec<usize> = if op == 0 {
                let free = cluster.free_count();
                cluster.available_nodes().skip(node % free.max(1)).take(len).collect()
            } else {
                (node..node + len).map(|i| i % n).collect()
            };
            if op == 0 {
                cluster.allocate(t, &nodes, ladder.steps()[freq], t as u64);
            } else {
                drop(cluster.hold_off(&nodes, t as u64));
            }
        }
        let (current, max_power) = (cluster.current_power(), cluster.platform().max_power());
        let mut book = ReservationBook::new();
        for ((start, duration), headroom) in caps {
            book.add(
                TimeWindow::new(start, start + duration),
                ReservationKind::PowerCap { cap: current + max_power * headroom },
            );
        }
        let free = cluster.free_count();
        let ((a, b), (walltime, extra)) = request;
        let (a, b) = (a % (free + 1), b % (free + 1));
        let (narrow, wide) = (a.min(b), a.max(b));
        let scheduler = OnlineScheduler::new(policy, cluster.platform());
        let small = scheduler.choose(&cluster, &book, narrow, walltime, now);
        let large = scheduler.choose(&cluster, &book, wide, walltime + extra, now);
        if small == StartDecision::Postpone {
            prop_assert_eq!(
                large,
                StartDecision::Postpone,
                "{}: ({}, {}) postponed, ({}, {}) not",
                policy,
                narrow,
                walltime,
                wide,
                walltime + extra
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random controller runs under a powercap hook: submissions (some wider
    /// than the platform), cap windows, a node outage, with and without
    /// killing on a violated cap. Every pass the skip rule ends is checked
    /// in debug builds to start nothing (the controller runs it anyway),
    /// and each run must skip at least once so that check is not vacuous.
    #[test]
    fn skipped_passes_start_nothing_in_random_runs(
        jobs in proptest::collection::vec(((0u64..30_000, 1usize..200), (60u64..12_000, 1u64..5), 0usize..6), 1..60),
        windows in proptest::collection::vec((0u64..8_000, 600u64..15_000, 0.2f64..0.9), 0..3),
        outage in (0usize..180, 0u64..40_000, 1u64..10_000),
        setup in (1usize..3, 0usize..3, 0usize..2),
    ) {
        use adaptive_powercap::core::config::PowercapConfig;
        use adaptive_powercap::core::hook::PowercapHook;
        use adaptive_powercap::obs::{Registry, SpanRecorder};
        use apc_rjms::time::TimeWindow;

        let (racks, policy_idx, kill) = setup;
        let policy = [PowercapPolicy::Shut, PowercapPolicy::Dvfs, PowercapPolicy::Mix][policy_idx];
        let platform = Platform::curie_scaled(racks);
        let total = platform.total_nodes();
        let mut config = PowercapConfig::for_policy(policy);
        config.kill_on_cap_violation = kill == 1;
        let hook = PowercapHook::new(config, &platform);
        let mut c = Controller::with_hook(platform, Box::new(hook));
        let registry = Registry::new();
        c.set_obs(ControllerObs::new(&registry, SpanRecorder::disabled()));
        let mut start = 0;
        for (gap, duration, fraction) in windows {
            start += gap;
            let cap = c.cluster().platform().power_fraction(fraction);
            c.add_powercap_reservation(TimeWindow::new(start, start + duration), cap);
            start += duration;
        }
        let (node, down, duration) = outage;
        c.inject_node_outage(node % total, down, down + duration);
        // One job wider than the platform waits for the whole run, so the
        // passes after the last start see a queue nothing fits.
        c.submit(JobSubmission::new(0, 0, (total as u32 + 1) * 16, 3600, 600));
        for ((submit, nodes), (walltime, quarters), user) in jobs {
            let runtime = (walltime * quarters / 4).max(1);
            c.submit(JobSubmission::new(user, submit, nodes as u32 * 16, walltime, runtime));
        }
        c.set_horizon(200_000);
        let report = c.run();
        prop_assert!(report.pending_jobs >= 1, "the wide job never starts");
        let snap = registry.snapshot();
        let skipped = snap.counter("rjms.schedule_pass.skipped").unwrap_or(0);
        let idle = snap.counter("rjms.schedule_pass.idle").unwrap_or(0);
        prop_assert!(skipped >= 1, "no pass was skipped");
        prop_assert!(skipped <= idle, "{skipped} skipped > {idle} idle");
    }
}

/// A cap-schedule field: anywhere in `u64`, or small enough that several
/// segments can chain without overlapping.
fn schedule_field() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..=u64::MAX, 0u64..100_000]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Cap-schedule files are parsed totally: any 1–4 `START DURATION
    /// FRACTION` lines give `Ok` exactly when every segment is valid and
    /// the segments are sorted and disjoint, and an error never panics and
    /// names its line or segment.
    #[test]
    fn cap_schedule_parsing_is_total(
        lines in proptest::collection::vec((schedule_field(), schedule_field(), 0.0f64..1.5), 1..5)
    ) {
        let text: Vec<String> = lines.iter().map(|(s, d, f)| format!("{s} {d} {f}")).collect();
        let parsed = CapSchedule::parse(&text.join("\n"));
        let valid = lines
            .iter()
            .all(|&(s, d, f)| d > 0 && f > 0.0 && f <= 1.0 && s.checked_add(d).is_some())
            && lines.windows(2).all(|w| w[0].0 + w[0].1 <= w[1].0);
        match parsed {
            Ok(schedule) => {
                prop_assert!(valid, "accepted {text:?}");
                let segments = schedule.segments();
                prop_assert_eq!(segments.len(), lines.len());
                for s in segments {
                    prop_assert!(s.start.checked_add(s.duration).is_some());
                }
                for w in segments.windows(2) {
                    prop_assert!(w[0].end() <= w[1].start, "{text:?}");
                }
                prop_assert_eq!(schedule.end(), segments.last().unwrap().end());
            }
            Err(err) => {
                prop_assert!(!valid, "rejected {text:?}: {err}");
                prop_assert!(err.contains("line") || err.contains("segment"), "{err}");
            }
        }
    }
}

/// A valid cap-schedule file: chained segments, some with a trailing
/// comment, a comment line or a blank line before them.
fn schedule_file() -> impl Strategy<Value = String> {
    proptest::collection::vec((0u64..100_000, 1u64..100_000, 1u32..=1000, 0usize..4), 1..5)
        .prop_map(|segments| {
            let mut text = String::new();
            let mut end = 0;
            for (gap, duration, permille, decor) in segments {
                let start = end + gap;
                end = start + duration;
                match decor {
                    1 => text.push_str("# tariff\n"),
                    2 => text.push('\n'),
                    _ => {}
                }
                text.push_str(&format!("{start} {duration} {}", permille as f64 / 1000.0));
                if decor == 3 {
                    text.push_str("  # note");
                }
                text.push('\n');
            }
            text
        })
}

/// `bytes` with one edit at `at`: a byte flipped (0), the text cut there
/// (1), a line duplicated (2) or a line dropped (3).
fn mutate_schedule(bytes: &mut Vec<u8>, kind: usize, at: usize, mask: u8) {
    if kind == 1 {
        bytes.truncate(at % (bytes.len() + 1));
        return;
    }
    if bytes.is_empty() {
        return;
    }
    if kind == 0 {
        let i = at % bytes.len();
        bytes[i] ^= mask.max(1);
        return;
    }
    let mut lines: Vec<Vec<u8>> = bytes
        .split_inclusive(|&b| b == b'\n')
        .map(<[u8]>::to_vec)
        .collect();
    let i = at % lines.len();
    if kind == 2 {
        let line = lines[i].clone();
        lines.insert(i, line);
    } else {
        lines.remove(i);
    }
    *bytes = lines.concat();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Cap-schedule parsing is total over arbitrary text and over valid
    /// files with bytes flipped, cut at any byte, lines duplicated or
    /// dropped: it never panics, every error is the empty-schedule error
    /// or names a line of the input, and every schedule it accepts passes
    /// `CapSchedule::new`'s checks.
    #[test]
    fn cap_schedule_files_parse_totally(
        file in schedule_file(),
        edits in proptest::collection::vec((0usize..4, 0usize..10_000, 0u8..=255), 0..4),
        random in proptest::collection::vec((0usize..2, 0u8..=255), 0..160),
        whole in 0usize..4,
    ) {
        const ALPHABET: &[u8] = b"0123456789 .#\n\t\r-+eEx";
        let bytes = if whole == 0 {
            random
                .iter()
                .map(|&(pick, b)| if pick == 0 { b } else { ALPHABET[b as usize % ALPHABET.len()] })
                .collect()
        } else {
            let mut bytes = file.into_bytes();
            for &(kind, at, mask) in &edits {
                mutate_schedule(&mut bytes, kind, at, mask);
            }
            bytes
        };
        let text = String::from_utf8_lossy(&bytes);
        match CapSchedule::parse(&text) {
            Ok(schedule) => {
                prop_assert_eq!(CapSchedule::new(schedule.segments().to_vec()), Ok(schedule));
            }
            Err(err) if err == "cap schedule needs at least one segment" => {}
            Err(err) => {
                let line = err
                    .strip_prefix("line ")
                    .and_then(|rest| rest.split_once(':'))
                    .and_then(|(n, _)| n.parse::<usize>().ok());
                prop_assert!(
                    line.is_some_and(|n| (1..=text.lines().count()).contains(&n)),
                    "{err:?} names no line of {text:?}"
                );
            }
        }
    }
}

/// Tokens an SWF field may hold in a mutated line: in range, at and past
/// the `u32`/`u64` ends, non-finite, fractional and not numbers at all.
const SWF_TOKENS: &str = "0 -1 7 99.9 -0.5 4294967295 4294967296 5000000000 \
    18446744073709551615 18446744073709551616 1.9e19 1e30 -1e30 NaN inf -inf x 1e 0x10 +3";

/// Whether `token` is a value that field `field` (1-based) of a job line
/// cannot hold: not a finite number, or past its target type once
/// truncated (a negative job number included).
fn swf_field_is_bad(field: usize, token: &str) -> bool {
    let end = match field {
        5 | 8 => u32::MAX as f64 + 1.0,
        _ => u64::MAX as f64 + 1.0,
    };
    match token.parse::<f64>() {
        Ok(v) => !v.is_finite() || v.trunc() >= end || (field == 1 && v.trunc() < 0.0),
        Err(_) => true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// SWF parsing is total: mutated documents (fields replaced by edge
    /// tokens, dropped or duplicated, comment lines between) never panic,
    /// and an error names a line that holds the fault: fewer than 18
    /// fields, or a named field the parser reads that cannot fill its
    /// `TraceJob` field.
    #[test]
    fn swf_parsing_is_total(
        lines in proptest::collection::vec(
            (0usize..4, proptest::collection::vec((0usize..3, 0usize..19, 0usize..20), 0..4)),
            1..5,
        )
    ) {
        let base = [
            "1 0 10 120 512 -1 -1 512 1440000 -1 1 7 1 1 1 1 -1 -1",
            "4 90 2 45 -1 -1 -1 32 7200 -1 1 9 1 1 1 1 -1 -1",
            "3 60 0 -1 16 -1 -1 16 3600 -1 0 3 1 1 1 1 -1 -1",
        ];
        let tokens: Vec<&str> = SWF_TOKENS.split_whitespace().collect();
        let mut doc: Vec<String> = Vec::new();
        for (kind, edits) in &lines {
            if *kind == 3 {
                doc.push("; comment".to_string());
                continue;
            }
            let mut fields: Vec<&str> = base[*kind].split(' ').collect();
            for &(op, at, token) in edits {
                let at = at % (fields.len() + 1);
                match op {
                    0 if at < fields.len() => fields[at] = tokens[token],
                    1 if at < fields.len() => drop(fields.remove(at)),
                    _ => fields.insert(at, tokens[token]),
                }
            }
            doc.push(fields.join(" "));
        }
        let text = doc.join("\n");
        match apc_workload::swf::parse_swf(&text) {
            Ok(trace) => {
                for job in &trace.jobs {
                    prop_assert!(job.cores >= 1 && job.run_time >= 1 && job.requested_time >= 1);
                }
                prop_assert!(trace.len() <= doc.len());
            }
            Err(err) => {
                use apc_workload::swf::SwfError;
                let (line, message) = match err {
                    SwfError::TooFewFields { line, found } => {
                        prop_assert_eq!(doc[line - 1].split_whitespace().count(), found);
                        prop_assert!(found < 18, "{text:?}");
                        (line, format!("{err}"))
                    }
                    SwfError::BadField { line, field } => {
                        let fields: Vec<&str> = doc[line - 1].split_whitespace().collect();
                        prop_assert!([1, 2, 4, 5, 8, 9, 12].contains(&field), "{err}");
                        prop_assert!(swf_field_is_bad(field, fields[field - 1]), "{text:?}: {err}");
                        prop_assert!(format!("{err}").contains(&format!("field {field}")));
                        (line, format!("{err}"))
                    }
                };
                prop_assert!(message.contains(&format!("line {line}")), "{message}");
                prop_assert!(!doc[line - 1].starts_with(';'));
            }
        }
    }
}

/// Pieces a fault-plan string is built from: every part of the syntax,
/// counts, durations and seeds at and past their bounds, suffix values a
/// float parser reads in odd ways, and junk.
const FAULT_FRAGMENTS: &[&str] = &[
    "3",
    "600",
    "7",
    "0",
    "1",
    "1048576",
    "1048577",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "+2",
    "x",
    "@",
    ":",
    "=",
    "weibull",
    "weibull=0.7",
    "weibull=1e-300",
    "weibull=1e300",
    "weibull=0",
    "weibull=NaN",
    "weibull=inf",
    "chassis",
    "none",
    " ",
    ".",
    "1.5",
    "\u{e9}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Fault-plan strings are parsed totally. Arbitrary concatenations of
    /// [`FAULT_FRAGMENTS`] (base 3) and mutations of three valid plans
    /// (fragments replaced, dropped or inserted) never panic; an error
    /// quotes its input; an accepted plan has a count in
    /// `1..=MAX_FAULT_COUNT` and a duration of at least 1, and round-trips
    /// through its label. The outages of every accepted plan of at most
    /// 4 096 draws, on one rack over a 5-hour horizon, hit a node of the
    /// platform, fail inside the horizon and recover after they fail.
    #[test]
    fn fault_plan_parsing_is_total(
        base in 0usize..4,
        edits in proptest::collection::vec((0usize..3, 0usize..12, 0usize..FAULT_FRAGMENTS.len()), 0..6),
    ) {
        use apc_replay::scenario::MAX_FAULT_COUNT;
        let bases: [&[&str]; 4] = [
            &["3", "x", "600", "@", "7"],
            &["2", "x", "300", "@", "11", ":", "chassis", ":", "weibull=1.5"],
            &["1", "x", "18446744073709551615", "@", "18446744073709551615", ":", "weibull=0.7"],
            &[],
        ];
        let mut pieces: Vec<&str> = bases[base].to_vec();
        for &(op, at, fragment) in &edits {
            let at = at % (pieces.len() + 1);
            match op {
                0 if at < pieces.len() => pieces[at] = FAULT_FRAGMENTS[fragment],
                1 if at < pieces.len() => drop(pieces.remove(at)),
                _ => pieces.insert(at, FAULT_FRAGMENTS[fragment]),
            }
        }
        let text = pieces.concat();
        match FaultPlan::parse(&text) {
            Ok(plan) => {
                prop_assert!((1..=MAX_FAULT_COUNT).contains(&plan.count), "{text:?}");
                prop_assert!(plan.outage_duration >= 1, "{text:?}");
                prop_assert_eq!(FaultPlan::parse(&plan.label()), Ok(plan), "{:?}", text);
                if plan.count <= 4096 {
                    let platform = Platform::curie_scaled(1);
                    let total = platform.total_nodes();
                    let per_chassis = platform.topology.nodes_per_group(0);
                    let horizon = 5 * apc_rjms::time::HOUR;
                    let events = plan.events(total, per_chassis, horizon);
                    let width = if plan.chassis { per_chassis } else { 1 };
                    prop_assert_eq!(events.len(), plan.count * width, "{:?}", text);
                    for (node, down, up) in events {
                        prop_assert!(node < total, "{text:?}: node {node}");
                        prop_assert!(down < horizon, "{text:?}: down {down}");
                        prop_assert!(down < up, "{text:?}: {down} >= {up}");
                    }
                }
            }
            Err(err) => prop_assert!(err.contains(&format!("{text:?}")), "{err}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The stored peak is the largest level the cluster held in the window:
    /// the max of `at(t)` over `start` and every change time in
    /// `[start, end)`, however many changes share one instant.
    #[test]
    fn peak_within_is_the_largest_level_held(
        steps in proptest::collection::vec((0u64..3, 0u32..1000), 0..40),
        window in (0u64..50, 0u64..50),
    ) {
        let mut time = 0;
        let samples: Vec<apc_power::PowerSample> = steps
            .iter()
            .map(|&(dt, watts)| {
                time += dt;
                apc_power::PowerSample { time, power: Watts(watts as f64) }
            })
            .collect();
        let series = apc_replay::metrics::PowerSeries::from_samples(&samples);
        let (start, end) = (window.0, window.0 + window.1);
        let reference = samples
            .iter()
            .filter(|s| s.time >= start && s.time < end)
            .map(|s| series.at(s.time))
            .fold(series.at(start), Watts::max);
        prop_assert_eq!(series.peak_within(start, end), reference, "[{}, {})", start, end);
    }
}

/// The node-list reference for the count-based decision: Algorithm 2's
/// ladder walk, probing the accountant's `power_if` on the picked nodes at
/// every step over the step's stretched window, against each cap plus
/// `slack`.
fn placed_ladder_walk(
    policy: PowercapPolicy,
    cluster: &Cluster,
    book: &apc_rjms::reservation::ReservationBook,
    walltime: u64,
    nodes: &[usize],
    now: u64,
    slack: Watts,
) -> StartDecision {
    let ladder = &cluster.platform().ladder;
    let start = |frequency| StartDecision::Start { frequency };
    if !policy.enforces_cap() {
        return start(ladder.max());
    }
    let degradation = policy.degradation(ladder);
    for f in policy.allowed_ladder(ladder).steps_descending() {
        let stretched = degradation.stretch_runtime(walltime, f);
        let Some(cap) = book.cap_within(now, now.saturating_add(stretched.max(1))) else {
            return start(ladder.max());
        };
        if cluster.accountant().power_if(nodes, PowerState::Busy(f)) <= cap + slack {
            return start(f);
        }
    }
    StartDecision::Postpone
}
