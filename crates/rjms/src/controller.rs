//! The controller: the simulator's `slurmctld`.
//!
//! The controller owns the cluster state, the pending queue, the event queue,
//! the reservation book and the scheduling hook. It advances the simulation
//! clock by consuming events (submissions, completions, reservation windows)
//! and runs a scheduling pass — priority sort, FCFS + EASY backfilling over
//! at most 200 pending jobs, hook authorisation, contiguous node selection —
//! after every event batch. The cluster records a power sample on every node
//! state change, for the replay's power series and peaks.
//!
//! Because the simulation is a pure discrete-event system, the cluster state
//! only changes at events, so running the scheduler exactly once per event
//! timestamp is both sufficient and deterministic. Power and caps change
//! only at events too, so no pass is missed without a periodic tick, and
//! there is none: between events only the age and fair-share factors move,
//! and a reordering they cause waits for the next event.
//!
//! A job's blocked nodes are those of the node-carrying reservations whose
//! window overlaps `[now, now + walltime)`: the ones that end after `now`
//! and start before `now + walltime`. Sorted by start, those form a prefix
//! of the reservations still to end, so a pass builds at most one blocked
//! set per prefix length, on first use, and every job of that prefix reuses
//! it. The set survives the pass's job starts; only its availability count
//! is taken afresh after a start. Any number of reservations is told apart.
//!
//! A pass that provably starts nothing ends right after the fair-share
//! decay, before the priority sort: when no pending job fits the free
//! nodes, or when the hook's
//! [`authorize_start`](crate::hook::SchedulingHook::authorize_start)
//! postpones a job as narrow as the narrowest and as short as the shortest
//! fitting job. Such a pass changes nothing else, and the next pass sorts
//! the queue afresh. It still counts in
//! [`schedule_passes`](Controller::schedule_passes) and is still published to
//! the observability handles. Debug builds run it to the end and assert that
//! it started nothing, so every debug replay cross-checks the rule.

use apc_power::{Frequency, Joules, PowerState, Watts};

use crate::backfill::{can_backfill, shadow_reservation, ShadowReservation, BACKFILL_DEPTH};
use crate::cluster::{Cluster, Platform};
use crate::event::{Event, EventQueue};
use crate::hook::{NullHook, SchedulingHook, StartDecision};
use crate::job::{Job, JobId, JobState, JobSubmission};
use crate::log::{SimEventKind, SimLog};
use crate::mask::NodeMask;
use crate::obs::{ControllerObs, PassMeasurements};
use crate::priority::{FairShareTracker, MultifactorPriority};
use crate::reservation::{ReservationBook, ReservationId, ReservationKind};
use crate::select::{self, SelectScratch};
use crate::time::{SimTime, TimeWindow};

/// Aggregate results of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// End of the simulated interval.
    pub horizon: SimTime,
    /// Jobs that were started during the interval.
    pub launched_jobs: usize,
    /// Jobs that ran to completion.
    pub completed_jobs: usize,
    /// Jobs killed by the controller.
    pub killed_jobs: usize,
    /// Jobs still pending at the end of the interval.
    pub pending_jobs: usize,
    /// Useful work delivered inside the interval, in core-seconds.
    pub work_core_seconds: f64,
    /// Total energy consumed by the cluster over the interval.
    pub energy: Joules,
    /// Mean queue wait time of started jobs, in seconds.
    pub mean_wait_seconds: f64,
}

impl SimulationReport {
    /// Work expressed in core-hours.
    pub fn work_core_hours(&self) -> f64 {
        self.work_core_seconds / 3600.0
    }
}

/// One prefix's blocked set: the nodes of the first `k` node-carrying
/// reservations by start, plus the availability count given that set.
#[derive(Debug, Default)]
struct BlockedEntry {
    blocked: NodeMask,
    /// `(starts, count)` once `blocked` holds this pass's set: the selectable
    /// nodes outside it, counted after the pass's `starts`-th job start. A
    /// later start makes the count stale, not the set.
    count: Option<(u64, usize)>,
}

/// The blocked sets of one pass, one per prefix length (see the module
/// docs). Both buffers only grow: entries past the pass's prefixes keep
/// their node sets for later passes.
#[derive(Debug, Default)]
struct BlockedSets {
    /// `(window.start, id)` of the node-carrying reservations that end after
    /// the pass's `now`, sorted.
    blocking: Vec<(SimTime, ReservationId)>,
    /// `cache[k]` is the set of the prefix `blocking[..k]`.
    cache: Vec<BlockedEntry>,
}

impl BlockedSets {
    /// Take the census of the reservations that can block a job starting at
    /// `now`, and forget the previous pass's sets.
    fn begin(&mut self, reservations: &ReservationBook, now: SimTime) {
        self.blocking.clear();
        self.blocking.extend(
            reservations
                .all()
                .iter()
                .filter(|r| r.blocked_nodes().is_some() && r.window.end > now)
                .map(|r| (r.window.start, r.id)),
        );
        self.blocking.sort_unstable();
        let prefixes = self.blocking.len() + 1;
        if self.cache.len() < prefixes {
            self.cache.resize_with(prefixes, BlockedEntry::default);
        }
        for entry in &mut self.cache[..prefixes] {
            entry.count = None;
        }
    }

    /// The nodes blocked for a job of `walltime` seconds starting at `now`,
    /// and the selectable nodes outside them after `m.started` starts. The
    /// set is built on its prefix's first use in the pass (a cache miss) and
    /// reused after (a hit).
    fn resolve(
        &mut self,
        reservations: &ReservationBook,
        cluster: &Cluster,
        now: SimTime,
        walltime: SimTime,
        m: &mut PassMeasurements,
    ) -> (&NodeMask, usize) {
        let end = now.saturating_add(walltime);
        let k = self.blocking.partition_point(|&(start, _)| start < end);
        let entry = &mut self.cache[k];
        if entry.count.is_some() {
            m.cache_hits += 1;
        } else {
            m.cache_misses += 1;
            let prefix = self.blocking[..k].iter();
            let nodes = prefix.filter_map(|&(_, id)| reservations.get(id)?.blocked_nodes());
            entry.blocked.clear();
            entry.blocked.extend(nodes.flatten().copied());
        }
        let count = match entry.count {
            Some((starts, count)) if starts == m.started => count,
            _ => select::available_count(cluster, &entry.blocked),
        };
        entry.count = Some((m.started, count));
        (&entry.blocked, count)
    }
}

/// Reusable buffers for `schedule_pass`. Taken out of the controller for
/// the duration of a pass (so the borrow checker sees disjoint borrows) and
/// put back afterwards: in the steady state a pass performs no heap
/// allocation for node sets — every `Vec` and [`NodeMask`] here has reached
/// its high-water capacity and is merely cleared.
#[derive(Debug, Default)]
struct ScheduleScratch {
    /// `(priority, submit time, id)` of every pending job, computed once
    /// per pass by the priority sort.
    priority_keys: Vec<(f64, SimTime, JobId)>,
    /// Snapshot of the priority-sorted pending queue for this pass.
    order: Vec<JobId>,
    /// `(walltime_end, node_count)` of running jobs, for the shadow
    /// reservation (sorted in place by `shadow_reservation`).
    releases: Vec<(SimTime, usize)>,
    /// The node selection of the job currently being examined.
    selected: Vec<usize>,
    /// The same selection as a mask (what the started job keeps).
    selected_mask: NodeMask,
    /// Per-chassis counts for the node selection.
    select: SelectScratch,
    /// The pass's blocked sets.
    blocked_sets: BlockedSets,
}

impl ScheduleScratch {
    /// Sum of buffer capacities — a monotone proxy for "did this pass
    /// allocate". Units are mixed (elements and words); only growth
    /// matters.
    fn footprint(&self) -> usize {
        let sets = &self.blocked_sets;
        let set_words: usize = sets.cache.iter().map(|e| e.blocked.word_capacity()).sum();
        self.priority_keys.capacity()
            + self.order.capacity()
            + self.releases.capacity()
            + self.selected.capacity()
            + self.selected_mask.word_capacity()
            + self.select.footprint()
            + sets.blocking.capacity()
            + sets.cache.capacity()
            + set_words
    }
}

/// The central resource and job management daemon.
pub struct Controller {
    cluster: Cluster,
    jobs: Vec<Job>,
    pending: Vec<JobId>,
    running: Vec<JobId>,
    events: EventQueue,
    reservations: ReservationBook,
    hook: Box<dyn SchedulingHook>,
    fairshare: FairShareTracker,
    log: SimLog,
    now: SimTime,
    horizon: Option<SimTime>,
    finished: bool,
    events_processed: u64,
    sched_passes: u64,
    scratch: ScheduleScratch,
    scratch_growth_passes: u64,
    obs: ControllerObs,
}

impl Controller {
    /// Create a controller over `platform` with the default (power-unaware)
    /// hook.
    pub fn new(platform: Platform) -> Self {
        Controller::with_hook(platform, Box::new(NullHook))
    }

    /// Create a controller with an explicit scheduling hook (the powercap
    /// logic of `apc-core`).
    pub fn with_hook(platform: Platform, hook: Box<dyn SchedulingHook>) -> Self {
        Controller {
            cluster: Cluster::new(platform),
            jobs: Vec::new(),
            pending: Vec::new(),
            running: Vec::new(),
            events: EventQueue::new(),
            reservations: ReservationBook::new(),
            hook,
            fairshare: FairShareTracker::default(),
            log: SimLog::new(),
            now: 0,
            horizon: None,
            finished: false,
            events_processed: 0,
            sched_passes: 0,
            scratch: ScheduleScratch::default(),
            scratch_growth_passes: 0,
            obs: ControllerObs::disabled(),
        }
    }

    /// Attach observability handles (schedule-pass histograms, blocked-set
    /// cache counters, the probe counter, per-pass spans). Disabled by
    /// default; never affects scheduling decisions or any simulation output.
    pub fn set_obs(&mut self, obs: ControllerObs) {
        self.obs = obs;
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The cluster state.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// All jobs known to the controller.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// One job.
    pub fn job(&self, id: JobId) -> &Job {
        &self.jobs[id]
    }

    /// The simulation log.
    pub fn log(&self) -> &SimLog {
        &self.log
    }

    /// The reservation book.
    pub fn reservations(&self) -> &ReservationBook {
        &self.reservations
    }

    /// Number of running jobs.
    pub fn running_count(&self) -> usize {
        self.running.len()
    }

    /// Total events consumed by the simulation loop so far (throughput
    /// counter for the perf-baseline tooling).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of scheduling passes run so far (one per event batch).
    pub fn schedule_passes(&self) -> u64 {
        self.sched_passes
    }

    /// Number of scheduling passes whose scratch buffers had to grow.
    /// After warm-up this stays flat: the steady state performs no per-pass
    /// heap allocation for node sets (asserted by
    /// `steady_state_scheduling_stops_allocating`).
    pub fn scratch_growth_passes(&self) -> u64 {
        self.scratch_growth_passes
    }

    /// Take the simulation log out of the controller (leaving an empty
    /// one) — lets the replay harness hand the log to its outcome without
    /// cloning every event.
    pub fn take_log(&mut self) -> SimLog {
        std::mem::replace(&mut self.log, SimLog::new())
    }

    /// Seed historical fair-share usage (phase ii of the replay methodology).
    pub fn seed_fairshare(&mut self, user: usize, core_seconds: f64) {
        self.fairshare.seed_usage(user, core_seconds);
    }

    // ------------------------------------------------------------------
    // Submission API
    // ------------------------------------------------------------------

    /// Submit a job. If its submit time is in the past it is queued
    /// immediately at the current time.
    pub fn submit(&mut self, submission: JobSubmission) -> JobId {
        let id = self.jobs.len();
        let at = submission.submit_time.max(self.now);
        self.jobs.push(Job::new(id, submission));
        self.events.push(at, Event::JobSubmit(id));
        id
    }

    /// Submit a whole batch of jobs (a workload trace).
    pub fn submit_all(&mut self, submissions: impl IntoIterator<Item = JobSubmission>) {
        for s in submissions {
            self.submit(s);
        }
    }

    /// Create a powercap reservation: during `window` the cluster power must
    /// stay below `cap`. The offline part of the scheduling hook is invoked
    /// immediately (the paper's Algorithm 1) and its switch-off plan, if any,
    /// is registered as a switch-off reservation on the same window.
    ///
    /// Returns the powercap reservation id and the optional switch-off
    /// reservation id.
    pub fn add_powercap_reservation(
        &mut self,
        window: TimeWindow,
        cap: Watts,
    ) -> (ReservationId, Option<ReservationId>) {
        let plan =
            self.hook
                .plan_powercap(&self.cluster, &self.reservations, window, cap, self.now);
        let cap_id = self
            .reservations
            .add(window, ReservationKind::PowerCap { cap });
        self.events
            .push(window.start, Event::ReservationStart(cap_id));
        self.events.push(window.end, Event::ReservationEnd(cap_id));
        let off_id = if plan.switch_off_nodes.is_empty() {
            None
        } else {
            let id = self.reservations.add(
                window,
                ReservationKind::SwitchOff {
                    nodes: plan.switch_off_nodes,
                },
            );
            self.events.push(window.start, Event::ReservationStart(id));
            self.events.push(window.end, Event::ReservationEnd(id));
            Some(id)
        };
        (cap_id, off_id)
    }

    /// Inject a node outage (fault injection): the node fails at `down` —
    /// powering off immediately and killing whatever job occupies it — and
    /// recovers at `up`, rejoining the idle pool once no switch-off window
    /// or other outage still holds it. Outages are ordinary events, so
    /// replays with the same plan are fully deterministic.
    pub fn inject_node_outage(&mut self, node: usize, down: SimTime, up: SimTime) {
        assert!(
            node < self.cluster.total_nodes(),
            "outage on node {node} outside the platform"
        );
        assert!(down < up, "outage must recover after it fails");
        self.events.push(down, Event::NodeDown(node));
        self.events.push(up, Event::NodeUp(node));
    }

    /// Define the end of the simulated interval. Events after the horizon are
    /// not processed and the final report covers `[0, horizon)`.
    pub fn set_horizon(&mut self, horizon: SimTime) {
        self.horizon = Some(horizon);
        self.events.push(horizon, Event::EndOfSimulation);
    }

    // ------------------------------------------------------------------
    // Simulation loop
    // ------------------------------------------------------------------

    /// Run the simulation until the horizon (or until no event remains).
    /// Returns the final report.
    pub fn run(&mut self) -> SimulationReport {
        while !self.finished {
            let Some((time, event)) = self.events.pop() else {
                break;
            };
            if let Some(h) = self.horizon {
                if time > h {
                    self.now = h;
                    break;
                }
            }
            debug_assert!(time >= self.now, "event time went backwards");
            self.now = time;
            self.process_event(event);
            // Process every event sharing this timestamp before scheduling.
            while self.events.peek_time() == Some(self.now) {
                let (_, e) = self.events.pop().expect("peeked");
                self.process_event(e);
                if self.finished {
                    break;
                }
            }
            if !self.finished {
                self.schedule_pass();
            }
        }
        let horizon = self.horizon.unwrap_or(self.now);
        self.now = self.now.max(horizon);
        self.cluster.advance_time(self.now);
        self.report()
    }

    fn process_event(&mut self, event: Event) {
        self.events_processed += 1;
        match event {
            Event::JobSubmit(id) => {
                let job = &self.jobs[id];
                self.log.push(
                    self.now,
                    SimEventKind::JobSubmitted {
                        job: id,
                        cores: job.cores(),
                    },
                );
                self.pending.push(id);
            }
            Event::JobEnd(id) => self.handle_job_end(id),
            Event::ReservationStart(id) => self.handle_reservation_start(id),
            Event::ReservationEnd(id) => self.handle_reservation_end(id),
            Event::NodeDown(node) => self.handle_node_down(node),
            Event::NodeUp(node) => self.release_hold(&[node]),
            Event::EndOfSimulation => {
                self.finished = true;
            }
        }
    }

    /// A node fails: hold it off (a free node switches off now, a busy one
    /// when its job releases it) and kill the occupying job, if any. The
    /// kill exercises the same release path as the powercap "extreme
    /// actions".
    fn handle_node_down(&mut self, node: usize) {
        let victim = self.cluster.node(node).job;
        self.hold_off(&[node]);
        if let Some(job) = victim {
            // The kill releases the held node, which powers off there;
            // `kill_job` logs both the kill and the power-off.
            self.kill_job(job);
        }
    }

    /// Place one hold on `nodes`, logging the nodes powered off now.
    fn hold_off(&mut self, nodes: &[usize]) {
        let switched = self.cluster.hold_off(nodes, self.now);
        if !switched.is_empty() {
            self.log
                .push(self.now, SimEventKind::NodesPoweredOff { nodes: switched });
        }
    }

    /// Take one hold off `nodes` (a recovery, a switch-off end), logging
    /// the nodes powered on now: those that no other hold keeps off and no
    /// job still runs on. They rejoin the idle pool at the next pass.
    fn release_hold(&mut self, nodes: &[usize]) {
        let switched = self.cluster.release_hold(nodes, self.now);
        if !switched.is_empty() {
            self.log
                .push(self.now, SimEventKind::NodesPoweredOn { nodes: switched });
        }
    }

    fn handle_job_end(&mut self, id: JobId) {
        if self.jobs[id].state != JobState::Running {
            return; // Stale event (job was killed earlier).
        }
        let expected = self.jobs[id].expected_end().unwrap_or(self.now);
        let walltime_end = self.jobs[id].walltime_end().unwrap_or(self.now);
        if self.now < expected.min(walltime_end) {
            return; // Stale event from a superseded schedule.
        }
        let cores = self.jobs[id].cores();
        let frequency = self.jobs[id]
            .frequency
            .expect("running job has a frequency");
        let powering_off = self.release_job_nodes(id);
        self.jobs[id].state = JobState::Completed;
        self.jobs[id].end_time = Some(self.now);
        self.running.retain(|&j| j != id);
        self.log.push(
            self.now,
            SimEventKind::JobCompleted {
                job: id,
                cores,
                frequency,
            },
        );
        if !powering_off.is_empty() {
            self.log.push(
                self.now,
                SimEventKind::NodesPoweredOff {
                    nodes: powering_off,
                },
            );
        }
    }

    fn handle_reservation_start(&mut self, id: ReservationId) {
        let reservation = self
            .reservations
            .get(id)
            .expect("reservation ids are controller-assigned")
            .clone();
        match reservation.kind {
            ReservationKind::SwitchOff { ref nodes } => self.hold_off(nodes),
            ReservationKind::PowerCap { cap } => {
                self.log.push(
                    self.now,
                    SimEventKind::CapActivated {
                        reservation: id,
                        cap,
                    },
                );
                if self.cluster.current_power() > cap {
                    let running: Vec<&Job> = self.running.iter().map(|&j| &self.jobs[j]).collect();
                    let kills = self
                        .hook
                        .on_cap_start(&self.cluster, &running, cap, self.now);
                    for job in kills {
                        self.kill_job(job);
                    }
                }
            }
        }
    }

    fn handle_reservation_end(&mut self, id: ReservationId) {
        let reservation = self
            .reservations
            .get(id)
            .expect("reservation ids are controller-assigned")
            .clone();
        match reservation.kind {
            ReservationKind::SwitchOff { ref nodes } => self.release_hold(nodes),
            ReservationKind::PowerCap { .. } => {
                self.log
                    .push(self.now, SimEventKind::CapDeactivated { reservation: id });
            }
        }
    }

    /// Kill a running job immediately (powercap "extreme actions").
    pub fn kill_job(&mut self, id: JobId) {
        if self.jobs[id].state != JobState::Running {
            return;
        }
        let cores = self.jobs[id].cores();
        let frequency = self.jobs[id]
            .frequency
            .expect("running job has a frequency");
        let powering_off = self.release_job_nodes(id);
        self.jobs[id].state = JobState::Killed;
        self.jobs[id].end_time = Some(self.now);
        self.running.retain(|&j| j != id);
        self.log.push(
            self.now,
            SimEventKind::JobKilled {
                job: id,
                cores,
                frequency,
            },
        );
        if !powering_off.is_empty() {
            self.log.push(
                self.now,
                SimEventKind::NodesPoweredOff {
                    nodes: powering_off,
                },
            );
        }
    }

    /// Release a finishing (completed or killed) job's nodes back to the
    /// cluster. The node set is taken out of the job for the release and
    /// handed back afterwards — no clone, the job keeps it for inspection.
    /// Returns the nodes that power off with the release (held by a
    /// switch-off window or an outage), for the caller's event log.
    /// (`Vec::new` does not allocate — the common unheld case is free.)
    fn release_job_nodes(&mut self, id: JobId) -> Vec<usize> {
        let nodes = std::mem::take(&mut self.jobs[id].nodes);
        let powering_off = self.cluster.release_mask(&nodes, self.now);
        self.jobs[id].nodes = nodes;
        powering_off
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    /// Whether the pass at `now` provably starts no job, whatever the
    /// priority order: no pending job fits the free nodes, or the hook
    /// postpones a job as narrow as the narrowest and as short as the
    /// shortest job that fits. A job can start only on `needed <= free`
    /// nodes, and the cluster does not change before a pass's first
    /// start, so when postponing is monotone in width and walltime (the
    /// [`authorize_start`](SchedulingHook::authorize_start) contract) every
    /// fitting job is postponed too.
    fn pass_starts_nothing(&self) -> bool {
        let free = self.cluster.free_count();
        let cores_per_node = self.cluster.platform().cores_per_node;
        let smallest_fitting = self
            .pending
            .iter()
            .map(|&id| &self.jobs[id])
            .map(|job| (job.nodes_needed(cores_per_node), job.submission.walltime))
            .filter(|&(needed, _)| needed <= free)
            .reduce(|(n, w), (needed, walltime)| (n.min(needed), w.min(walltime)));
        smallest_fitting.is_none_or(|(node_count, walltime)| {
            self.hook.authorize_start(
                &self.cluster,
                &self.reservations,
                node_count,
                walltime,
                self.now,
            ) == StartDecision::Postpone
        })
    }

    fn schedule_pass(&mut self) {
        self.sched_passes += 1;
        if self.pending.is_empty() {
            return;
        }
        // Observability: reads the clock only when handles are attached and
        // publishes once per pass — plain-local accumulation in the loop
        // keeps the uninstrumented hot path untouched.
        let pass = self.obs.pass_begin();
        self.fairshare.decay_to(self.now);
        let mut measurements = PassMeasurements {
            queue_depth: self.pending.len(),
            skipped: self.pass_starts_nothing(),
            ..PassMeasurements::default()
        };
        // A skipped pass changes nothing but the decay above, and the next
        // pass sorts the queue afresh. Debug builds run it anyway and check
        // below that it started nothing.
        if measurements.skipped && !cfg!(debug_assertions) {
            self.obs
                .pass_end(pass, measurements, self.cluster.accountant().probe_counts());
            return;
        }
        // Take the scratch buffers out of `self` for the pass so their
        // borrows are disjoint from the controller's own fields; they go
        // back (with their grown capacities) at the end.
        let mut scratch = std::mem::take(&mut self.scratch);
        let footprint_before = scratch.footprint();

        let total_cores = self.cluster.platform().total_cores();
        let cores_per_node = self.cluster.platform().cores_per_node;
        MultifactorPriority.sort_pending(
            &self.jobs,
            &mut self.pending,
            self.now,
            total_cores,
            &self.fairshare,
            &mut scratch.priority_keys,
        );

        let mut shadow: Option<ShadowReservation> = None;
        let mut any_started = false;

        let ScheduleScratch {
            priority_keys: _,
            order,
            releases,
            selected,
            selected_mask,
            select,
            blocked_sets,
        } = &mut scratch;
        order.clear();
        order.extend_from_slice(&self.pending);
        blocked_sets.begin(&self.reservations, self.now);

        for &job_id in order.iter().take(BACKFILL_DEPTH) {
            if self.cluster.free_count() == 0 {
                break;
            }
            let needed = self.jobs[job_id].nodes_needed(cores_per_node);
            let walltime = self.jobs[job_id].submission.walltime;
            let (blocked, available) = blocked_sets.resolve(
                &self.reservations,
                &self.cluster,
                self.now,
                walltime,
                &mut measurements,
            );

            if let Some(sh) = &shadow {
                // A higher-priority job holds a node reservation: only
                // non-delaying candidates may jump ahead.
                if !can_backfill(needed, walltime, available, self.now, sh) {
                    continue;
                }
            }

            if needed > available {
                if shadow.is_none() {
                    // The head job is blocked by node availability: compute
                    // its shadow reservation from running jobs' walltimes;
                    // later candidates may only backfill around it.
                    releases.clear();
                    for &j in &self.running {
                        let job = &self.jobs[j];
                        releases.push((job.walltime_end().unwrap_or(self.now), job.nodes.len()));
                    }
                    shadow = shadow_reservation(needed, available, releases, self.now);
                }
                continue;
            }

            // Decide before placing: `needed` selectable nodes exist and all
            // of them are idle, so the power decision does not depend on
            // which ones are picked — nodes are selected only for a start.
            let decision = self.hook.authorize_start(
                &self.cluster,
                &self.reservations,
                needed,
                walltime,
                self.now,
            );
            match decision {
                StartDecision::Start { frequency } => {
                    if !select::select_into(&self.cluster, needed, blocked, select, selected) {
                        continue;
                    }
                    debug_assert!(
                        selected
                            .iter()
                            .all(|&n| self.cluster.accountant().state(n) == PowerState::Idle),
                        "a selectable node is not idle"
                    );
                    selected_mask.clear();
                    selected_mask.extend(selected.iter().copied());
                    self.start_job(job_id, selected, selected_mask, frequency);
                    any_started = true;
                    // Node availability changed: the start count makes every
                    // cached availability count stale (the blocked sets
                    // themselves are unaffected).
                    measurements.started += 1;
                }
                StartDecision::Postpone => {
                    // Power-blocked, not node-blocked: no node reservation is
                    // held, lower-priority (typically smaller or slower) jobs
                    // may still be attempted.
                    continue;
                }
            }
        }

        debug_assert!(
            !measurements.skipped || !any_started,
            "a pass the skip rule ends started a job at t={}",
            self.now
        );
        if any_started {
            // O(P) membership check by job state — started jobs left the
            // Pending state in `start_job`, so no started-set scan is
            // needed.
            let jobs = &self.jobs;
            self.pending.retain(|&id| jobs[id].is_pending());
        }

        if scratch.footprint() > footprint_before {
            self.scratch_growth_passes += 1;
        }
        self.scratch = scratch;
        self.obs
            .pass_end(pass, measurements, self.cluster.accountant().probe_counts());
    }

    fn start_job(
        &mut self,
        id: JobId,
        nodes: &[usize],
        node_mask: &NodeMask,
        frequency: Frequency,
    ) {
        let factor = self.hook.runtime_factor(&self.jobs[id], frequency);
        let cores = self.jobs[id].cores();
        let user = self.jobs[id].submission.user;
        let actual = self.jobs[id].submission.actual_runtime;
        let walltime = self.jobs[id].submission.walltime;
        let stretched_runtime = ((actual as f64) * factor).ceil() as SimTime;
        let stretched_walltime = ((walltime as f64) * factor).ceil() as SimTime;

        self.cluster.allocate(id, nodes, frequency, self.now);

        let job = &mut self.jobs[id];
        job.state = JobState::Running;
        job.start_time = Some(self.now);
        job.frequency = Some(frequency);
        job.stretched_runtime = Some(stretched_runtime);
        job.stretched_walltime = Some(stretched_walltime);
        let node_count = nodes.len();
        job.nodes = node_mask.clone();

        let end = self.now + stretched_runtime.min(stretched_walltime).max(1);
        self.events.push(end, Event::JobEnd(id));
        self.running.push(id);
        self.fairshare
            .record_usage(user, cores as f64 * stretched_runtime as f64, self.now);
        self.log.push(
            self.now,
            SimEventKind::JobStarted {
                job: id,
                cores,
                nodes: node_count,
                frequency,
            },
        );
    }

    // ------------------------------------------------------------------
    // Reporting
    // ------------------------------------------------------------------

    /// Build the aggregate report for the interval `[0, now]`.
    pub fn report(&self) -> SimulationReport {
        let horizon = self.horizon.unwrap_or(self.now);
        let launched = self.jobs.iter().filter(|j| j.start_time.is_some()).count();
        let completed = self
            .jobs
            .iter()
            .filter(|j| j.state == JobState::Completed)
            .count();
        let killed = self
            .jobs
            .iter()
            .filter(|j| j.state == JobState::Killed)
            .count();
        let work: f64 = self.jobs.iter().map(|j| j.work_within(0, horizon)).sum();
        let waits: Vec<f64> = self
            .jobs
            .iter()
            .filter(|j| j.start_time.is_some())
            .map(|j| j.wait_time(horizon) as f64)
            .collect();
        let mean_wait = if waits.is_empty() {
            0.0
        } else {
            waits.iter().sum::<f64>() / waits.len() as f64
        };
        SimulationReport {
            horizon,
            launched_jobs: launched,
            completed_jobs: completed,
            killed_jobs: killed,
            pending_jobs: self.pending.len(),
            work_core_seconds: work,
            energy: self.cluster.energy(),
            mean_wait_seconds: mean_wait,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::OfflinePlan;
    use crate::time::HOUR;
    use apc_power::Frequency;

    fn platform() -> Platform {
        Platform::curie_scaled(1) // 90 nodes, 1440 cores
    }

    fn controller() -> Controller {
        Controller::new(platform())
    }

    fn job(
        user: usize,
        submit: SimTime,
        cores: u32,
        walltime: SimTime,
        runtime: SimTime,
    ) -> JobSubmission {
        JobSubmission::new(user, submit, cores, walltime, runtime)
    }

    /// Register a switch-off reservation on `nodes` over `window`.
    fn switch_off(c: &mut Controller, window: TimeWindow, nodes: Vec<usize>) {
        let id = c
            .reservations
            .add(window, ReservationKind::SwitchOff { nodes });
        c.events.push(window.start, Event::ReservationStart(id));
        c.events.push(window.end, Event::ReservationEnd(id));
    }

    /// A fresh controller prepared by `setup`, run to `horizon`.
    fn run_to(horizon: SimTime, setup: impl Fn(&mut Controller)) -> Controller {
        let mut c = controller();
        setup(&mut c);
        c.set_horizon(horizon);
        c.run();
        c
    }

    /// The `NodesPoweredOn` events of the log, as `(time, nodes)`.
    fn powered_on(c: &Controller) -> Vec<(SimTime, Vec<usize>)> {
        c.log()
            .events()
            .iter()
            .filter_map(|e| match &e.kind {
                SimEventKind::NodesPoweredOn { nodes } => Some((e.time, nodes.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn single_job_runs_to_completion() {
        let mut c = controller();
        c.submit(job(0, 10, 32, 3600, 600));
        c.set_horizon(2 * HOUR);
        let report = c.run();
        assert_eq!(report.launched_jobs, 1);
        assert_eq!(report.completed_jobs, 1);
        assert_eq!(report.killed_jobs, 0);
        assert_eq!(report.pending_jobs, 0);
        let j = c.job(0);
        assert_eq!(j.start_time, Some(10));
        assert_eq!(j.end_time, Some(610));
        assert_eq!(j.frequency, Some(Frequency::from_ghz(2.7)));
        assert_eq!(j.nodes.len(), 2);
        // Work = 600 s * 32 cores.
        assert!((report.work_core_seconds - 600.0 * 32.0).abs() < 1e-9);
        assert!(report.energy.as_joules() > 0.0);
    }

    #[test]
    fn fcfs_order_without_contention() {
        let mut c = controller();
        for i in 0..5 {
            c.submit(job(i, 100 + i as SimTime, 160, 3600, 1000));
        }
        c.set_horizon(HOUR);
        let report = c.run();
        assert_eq!(report.launched_jobs, 5);
        // Every job starts at its submission time (10 nodes each, 50 < 90).
        for i in 0..5 {
            assert_eq!(c.job(i).start_time, Some(100 + i as SimTime));
        }
    }

    #[test]
    fn jobs_queue_when_cluster_is_full() {
        let mut c = controller();
        // Two jobs of 60 nodes each cannot run together on 90 nodes.
        c.submit(job(0, 0, 960, 2 * HOUR, 1000));
        c.submit(job(1, 0, 960, 2 * HOUR, 1000));
        c.set_horizon(4 * HOUR);
        let report = c.run();
        assert_eq!(report.launched_jobs, 2);
        assert_eq!(c.job(0).start_time, Some(0));
        // The second starts when the first completes (runtime 1000), not at
        // its walltime.
        assert_eq!(c.job(1).start_time, Some(1000));
        let _ = report;
    }

    #[test]
    fn easy_backfilling_lets_small_jobs_jump_ahead() {
        let mut c = controller();
        // Job 0 occupies 80 nodes for 1000 s.
        c.submit(job(0, 0, 1280, 2000, 1000));
        // Job 1 (head of queue at t=1) needs 90 nodes: must wait for job 0.
        c.submit(job(1, 1, 1440, 2000, 500));
        // Job 2 needs 5 nodes for 500 s (walltime 900 <= shadow time 2000):
        // it can backfill into the 10 idle nodes.
        c.submit(job(2, 2, 80, 900, 500));
        c.set_horizon(2 * HOUR);
        c.run();
        assert_eq!(c.job(2).start_time, Some(2), "small job backfills");
        assert!(
            c.job(1).start_time.unwrap() >= 1000,
            "head job waits for nodes"
        );
    }

    #[test]
    fn backfilling_respects_the_shadow_reservation() {
        let mut c = controller();
        // Job 0: 80 nodes, actual runtime 1000 s, walltime 1200 s.
        c.submit(job(0, 0, 1280, 1200, 1000));
        // Job 1: 90 nodes -> waits; its shadow time is t=1200 (walltime end).
        c.submit(job(1, 1, 1440, 2000, 500));
        // Job 2: 10 nodes but walltime 5000 s > shadow time and it would eat
        // into the head job's nodes -> must NOT backfill.
        c.submit(job(2, 2, 160, 5000, 4000));
        c.set_horizon(4 * HOUR);
        c.run();
        let start2 = c.job(2).start_time.unwrap();
        assert!(
            start2 >= c.job(1).start_time.unwrap(),
            "the long wide job must not delay the reserved head job"
        );
    }

    #[test]
    fn walltime_overrun_is_cut_short() {
        let mut c = controller();
        // Actual runtime exceeds the requested walltime: the controller stops
        // the job at its (stretched) walltime.
        c.submit(job(0, 0, 16, 100, 500));
        c.set_horizon(HOUR);
        c.run();
        assert_eq!(c.job(0).end_time, Some(100));
    }

    #[test]
    fn switch_off_reservation_powers_nodes_down_and_back_up() {
        let mut c = controller();
        switch_off(&mut c, TimeWindow::new(1000, 2000), (0..18).collect());
        c.set_horizon(3000);
        c.run();
        // After the window the nodes are available again.
        assert_eq!(c.cluster().powered_off_count(), 0);
        assert_eq!(c.cluster().free_count(), 90);
        // Power-off and power-on events were logged.
        assert_eq!(
            c.log()
                .count_matching(|e| matches!(e.kind, SimEventKind::NodesPoweredOff { .. })),
            1
        );
        assert_eq!(
            c.log()
                .count_matching(|e| matches!(e.kind, SimEventKind::NodesPoweredOn { .. })),
            1
        );
    }

    #[test]
    fn switch_off_reservation_excludes_nodes_from_scheduling() {
        let mut c = controller();
        switch_off(&mut c, TimeWindow::new(500, 4000), (0..45).collect());
        // A 60-node job submitted at t=0 with a walltime overlapping the
        // window cannot use the reserved nodes, so it has to wait until the
        // reservation ends.
        c.submit(job(0, 0, 960, 2 * HOUR, 600));
        c.set_horizon(3 * HOUR);
        c.run();
        assert!(c.job(0).start_time.unwrap() >= 4000);
    }

    #[test]
    fn kill_job_releases_nodes_and_logs() {
        let mut c = controller();
        c.submit(job(0, 0, 160, 3600, 3000));
        c.set_horizon(100);
        // Run the submission event only.
        c.run();
        assert_eq!(c.running_count(), 1);
        c.kill_job(0);
        assert_eq!(c.running_count(), 0);
        assert_eq!(c.job(0).state, JobState::Killed);
        assert_eq!(c.cluster().free_count(), 90);
        assert_eq!(
            c.log()
                .count_matching(|e| matches!(e.kind, SimEventKind::JobKilled { .. })),
            1
        );
        // Killing twice is a no-op.
        c.kill_job(0);
        assert_eq!(
            c.log()
                .count_matching(|e| matches!(e.kind, SimEventKind::JobKilled { .. })),
            1
        );
    }

    #[test]
    fn node_outage_kills_the_occupying_job_and_recovers() {
        let mut c = controller();
        // One job on 2 nodes (32 cores), running [0, 3000).
        c.submit(job(0, 0, 32, 3600, 3000));
        // The job lands on nodes 0-1; fail node 0 mid-run.
        c.inject_node_outage(0, 500, 1500);
        c.set_horizon(HOUR);
        let report = c.run();
        assert_eq!(report.killed_jobs, 1, "the occupying job is killed");
        assert_eq!(c.job(0).state, JobState::Killed);
        assert_eq!(c.job(0).end_time, Some(500));
        // After recovery the whole cluster is schedulable again.
        assert_eq!(c.cluster().powered_off_count(), 0);
        assert_eq!(c.cluster().free_count(), 90);
        assert_eq!(
            c.log()
                .count_matching(|e| matches!(e.kind, SimEventKind::JobKilled { .. })),
            1
        );
        assert_eq!(
            c.log()
                .count_matching(|e| matches!(e.kind, SimEventKind::NodesPoweredOn { .. })),
            1
        );
    }

    #[test]
    fn node_outage_on_a_free_node_just_removes_capacity() {
        let mut c = controller();
        c.inject_node_outage(5, 100, 900);
        // A 90-node job submitted during the outage must wait for recovery.
        c.submit(job(0, 200, 1440, 3600, 600));
        c.set_horizon(HOUR);
        let report = c.run();
        assert_eq!(report.killed_jobs, 0);
        assert_eq!(c.job(0).start_time, Some(900));
        assert_eq!(c.cluster().free_count(), 90);
        assert_eq!(
            c.log()
                .count_matching(|e| matches!(e.kind, SimEventKind::NodesPoweredOff { .. })),
            1
        );
    }

    /// An outage that recovers inside a switch-off window leaves its node
    /// off and unavailable until the window ends: the window still holds it.
    #[test]
    fn an_outage_recovering_inside_a_window_stays_off_until_the_window_ends() {
        let setup = |c: &mut Controller| {
            switch_off(c, TimeWindow::new(1000, 5000), (0..18).collect());
            c.inject_node_outage(5, 500, 2000);
        };
        let c = run_to(3000, setup);
        assert!(c.cluster().node(5).is_off());
        assert!(!c.cluster().node(5).is_available());
        assert_eq!(c.cluster().powered_off_count(), 18);
        assert!(powered_on(&c).is_empty(), "the recovery powered a node on");
        let c = run_to(6000, setup);
        assert_eq!(powered_on(&c), vec![(5000, (0..18).collect())]);
        assert_eq!(c.cluster().free_count(), 90);
    }

    /// A switch-off window that ends during an outage powers its other
    /// nodes on and leaves the failed node off until it recovers.
    #[test]
    fn a_window_ending_during_an_outage_leaves_the_node_off_until_it_recovers() {
        let setup = |c: &mut Controller| {
            switch_off(c, TimeWindow::new(1000, 2000), (0..18).collect());
            c.inject_node_outage(5, 1500, 4000);
        };
        let c = run_to(3000, setup);
        assert!(c.cluster().node(5).is_off());
        assert_eq!(c.cluster().free_count(), 89);
        let c = run_to(5000, setup);
        let others: Vec<usize> = (0..18).filter(|&n| n != 5).collect();
        assert_eq!(powered_on(&c), vec![(2000, others), (4000, vec![5])]);
        assert_eq!(c.cluster().free_count(), 90);
    }

    /// Two outages that overlap on one node end at the later recovery.
    #[test]
    fn overlapping_outages_end_at_the_later_recovery() {
        let setup = |c: &mut Controller| {
            c.inject_node_outage(5, 100, 1000);
            c.inject_node_outage(5, 500, 2000);
        };
        let c = run_to(1500, setup);
        assert!(c.cluster().node(5).is_off());
        assert_eq!(c.cluster().free_count(), 89);
        let c = run_to(3000, setup);
        assert_eq!(powered_on(&c), vec![(2000, vec![5])]);
        assert_eq!(c.cluster().free_count(), 90);
    }

    /// Stretches every job tenfold, so a job outruns the walltime its
    /// blocked set was checked against.
    struct Stretch;

    impl SchedulingHook for Stretch {
        fn runtime_factor(&self, _: &Job, _: Frequency) -> f64 {
            10.0
        }
    }

    /// A switch-off window that ends while a job still runs on some of its
    /// nodes logs no power-on for them, and they go idle, not off, when
    /// the job releases them.
    #[test]
    fn a_window_ending_on_a_busy_node_logs_no_power_on_for_it() {
        let mut c = Controller::with_hook(platform(), Box::new(Stretch));
        // Walltime 300 s clears the window, the stretched run is [0, 3000).
        c.submit(job(0, 0, 32, 300, 300));
        switch_off(&mut c, TimeWindow::new(1000, 2000), (0..90).collect());
        c.set_horizon(4000);
        c.run();
        let busy: Vec<usize> = c.job(0).nodes.iter().collect();
        assert_eq!(busy.len(), 2);
        assert_eq!(c.job(0).end_time, Some(3000));
        let idle: Vec<usize> = (0..90).filter(|n| !busy.contains(n)).collect();
        assert_eq!(powered_on(&c), vec![(2000, idle)]);
        let offs = c
            .log()
            .count_matching(|e| matches!(e.kind, SimEventKind::NodesPoweredOff { .. }));
        assert_eq!(offs, 1, "the job's release powered its nodes off");
        assert_eq!(c.cluster().powered_off_count(), 0);
        assert_eq!(c.cluster().free_count(), 90);
    }

    #[test]
    fn outages_are_deterministic_events() {
        let build = || {
            let mut c = controller();
            for i in 0..30 {
                c.submit(job(
                    i % 4,
                    (i as SimTime * 17) % 600,
                    32 + (i as u32 % 5) * 96,
                    3600,
                    400 + (i as SimTime % 7) * 100,
                ));
            }
            c.inject_node_outage(3, 300, 2000);
            c.inject_node_outage(40, 700, 1500);
            c.set_horizon(2 * HOUR);
            c.run();
            c.jobs()
                .iter()
                .map(|j| (j.id, j.start_time, j.end_time, j.state))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn report_counts_are_consistent() {
        let mut c = controller();
        for i in 0..20 {
            c.submit(job(i % 4, i as SimTime * 30, 64, 1800, 900));
        }
        c.set_horizon(2 * HOUR);
        let report = c.run();
        assert_eq!(report.launched_jobs, 20);
        assert_eq!(
            report.completed_jobs + report.killed_jobs + report.pending_jobs,
            20
        );
        assert!(report.mean_wait_seconds >= 0.0);
        assert!(report.work_core_hours() > 0.0);
        assert_eq!(report.horizon, 2 * HOUR);
    }

    #[test]
    fn determinism_same_inputs_same_schedule() {
        let build = || {
            let mut c = controller();
            for i in 0..50 {
                c.submit(job(
                    i % 7,
                    (i as SimTime * 13) % 900,
                    32 + (i as u32 % 5) * 160,
                    3600,
                    300 + i as SimTime * 7,
                ));
            }
            c.set_horizon(3 * HOUR);
            c.run();
            c.jobs()
                .iter()
                .map(|j| (j.id, j.start_time, j.end_time))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    /// A hook whose offline phase switches off one node per powercap
    /// window, the next node each time.
    #[derive(Default)]
    struct OneNodePerWindow {
        next: usize,
    }

    impl SchedulingHook for OneNodePerWindow {
        fn plan_powercap(
            &mut self,
            _: &Cluster,
            _: &ReservationBook,
            _: TimeWindow,
            _: Watts,
            _: SimTime,
        ) -> OfflinePlan {
            self.next += 1;
            OfflinePlan {
                switch_off_nodes: vec![self.next - 1],
            }
        }
    }

    /// A 2-rack controller with 129 powercap windows over `[1000, 10 000)`,
    /// each switching off one node of its own: 129 node-carrying
    /// reservations.
    fn with_129_switch_offs() -> Controller {
        let platform = Platform::curie_scaled(2);
        let cap = platform.max_power();
        let mut c = Controller::with_hook(platform, Box::new(OneNodePerWindow::default()));
        for _ in 0..129 {
            c.add_powercap_reservation(TimeWindow::new(1000, 10_000), cap);
        }
        c
    }

    /// Regression for the signature-cache overflow: the seed capped the
    /// census at 128 node-carrying reservations, so a 129th reservation's
    /// nodes silently became schedulable. The prefix blocked sets have no
    /// such limit.
    #[test]
    fn reservation_129_still_blocks_its_nodes() {
        // 180 nodes, 129 blocked ⇒ 51 selectable inside the window. A job
        // needing 52 nodes must wait for the window to end; with the seed's
        // truncation, node 128 looked free and the job started at t = 0.
        let mut c = with_129_switch_offs();
        c.submit(job(0, 0, 52 * 16, 5000, 4000));
        c.set_horizon(20_000);
        c.run();
        assert!(
            c.job(0).start_time.unwrap() >= 10_000,
            "the 129th reservation's node must not be schedulable (started at {:?})",
            c.job(0).start_time
        );
        // Sanity: a job that fits next to all 129 blocked nodes does start
        // immediately.
        let mut c = with_129_switch_offs();
        c.submit(job(0, 0, 51 * 16, 5000, 4000));
        c.set_horizon(20_000);
        c.run();
        assert_eq!(c.job(0).start_time, Some(0));
    }

    /// The pass's prefix blocked sets equal the exact per-job masks of
    /// `collect_blocked_within`, availability counts included, before and
    /// after starts within one pass. The books hold up to 200 switch-off
    /// reservations (well past 128) and up to 19 power caps, with
    /// windows that are past, live, future and zero-width, that end exactly
    /// at `now` and that start exactly at a job's `now + walltime`;
    /// walltimes include 0 and values that saturate. The pass builds one set
    /// (a cache miss) per distinct set of overlapping reservations and
    /// reuses it for every other job (a hit).
    #[test]
    fn prefix_blocked_sets_equal_exact_per_job_masks() {
        let mut state = 0x5eed_u64;
        let mut next = move |bound: u64| {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound.max(1)
        };
        let platform = Platform::curie_scaled(2); // 180 nodes
        let fmax = platform.ladder.max();
        // One set of buffers for every case, as the controller keeps it.
        let mut sets = BlockedSets::default();
        let (mut select, mut selected) = (SelectScratch::default(), Vec::new());
        let mut exact = NodeMask::default();
        let mut wide_books = 0;
        for case in 0..300 {
            let now = next(50_000);
            let walltimes: Vec<SimTime> = (0..1 + next(40))
                .map(|_| match next(8) {
                    0 => 0,
                    1 => SimTime::MAX - next(4),
                    2 => (SimTime::MAX - now)
                        .saturating_sub(2)
                        .saturating_add(next(5)),
                    _ => 1 + next(20_000),
                })
                .collect();
            let mut book = ReservationBook::new();
            let node_carrying = next(201);
            wide_books += usize::from(node_carrying > 128);
            for i in 0..node_carrying + next(20) {
                let walltime = walltimes[next(walltimes.len() as u64) as usize];
                let start = match next(5) {
                    0 => next(now + 1),
                    1 => now.saturating_add(walltime),
                    _ => now + next(20_000),
                };
                let end = match next(4) {
                    0 => start,
                    1 => now.max(start),
                    _ => start.saturating_add(next(20_000)),
                };
                let nodes: Vec<usize> = (0..next(6)).map(|_| next(180) as usize).collect();
                // The kind draw is unused, but dropping it would shift
                // every later draw and so every book.
                let kind = match (i < node_carrying, next(2)) {
                    (false, _) => ReservationKind::PowerCap { cap: Watts(1.0) },
                    (true, _) => ReservationKind::SwitchOff { nodes },
                };
                book.add(TimeWindow::new(start, end), kind);
            }
            let mut cluster = Cluster::new(platform.clone());
            let down: Vec<usize> = (0..next(20)).map(|_| next(180) as usize).collect();
            drop(cluster.hold_off(&down, 0));

            sets.begin(&book, now);
            let mut m = PassMeasurements::default();
            let mut signatures = Vec::new();
            for (job, &walltime) in walltimes.iter().enumerate() {
                let end = now.saturating_add(walltime);
                exact.clear();
                book.collect_blocked_within(now, end, &mut exact);
                let exact_count = select::available_count(&cluster, &exact);
                let (blocked, available) = sets.resolve(&book, &cluster, now, walltime, &mut m);
                assert!(
                    *blocked == exact && available == exact_count,
                    "case {case}, job {job}: walltime {walltime} at t={now} resolved \
                     {available} selectable outside {:?}, exactly {exact_count} outside {:?}",
                    blocked.iter().collect::<Vec<_>>(),
                    exact.iter().collect::<Vec<_>>()
                );
                let signature: Vec<ReservationId> = book
                    .all()
                    .iter()
                    .filter(|r| r.blocked_nodes().is_some() && r.overlaps(now, end))
                    .map(|r| r.id)
                    .collect();
                if !signatures.contains(&signature) {
                    signatures.push(signature);
                }
                // Start a job on some of the selectable nodes, as the pass
                // does: every later count must see the smaller pool.
                if available > 0 && next(2) == 0 {
                    let needed = 1 + next(available.min(12) as u64) as usize;
                    assert!(select::select_into(
                        &cluster,
                        needed,
                        blocked,
                        &mut select,
                        &mut selected
                    ));
                    cluster.allocate(job, &selected, fmax, now);
                    m.started += 1;
                }
            }
            assert_eq!(m.cache_misses, signatures.len() as u64, "case {case}");
            assert_eq!(m.cache_hits + m.cache_misses, walltimes.len() as u64);
        }
        assert!(
            wide_books > 0,
            "no book held more than 128 node-carrying reservations"
        );
    }

    /// The scheduling hot path must stop allocating once its scratch
    /// buffers reach their steady-state sizes: a long, busy replay may grow
    /// them in early passes but the overwhelming majority of passes reuse
    /// them untouched.
    #[test]
    fn steady_state_scheduling_stops_allocating() {
        let mut c = controller();
        // A switch-off reservation keeps the blocked-set machinery engaged.
        switch_off(&mut c, TimeWindow::new(HOUR, 3 * HOUR), (0..18).collect());
        // A steady stream of jobs that keeps a deep pending queue.
        for i in 0..400 {
            c.submit(job(
                i % 5,
                (i as SimTime * 13) % (2 * HOUR),
                32 + (i as u32 % 7) * 80,
                3600,
                300 + (i as SimTime % 11) * 120,
            ));
        }
        c.set_horizon(8 * HOUR);
        c.run();
        let passes = c.schedule_passes();
        let grew = c.scratch_growth_passes();
        assert!(passes > 100, "expected a long run, got {passes} passes");
        assert!(
            grew * 10 <= passes,
            "scratch buffers grew in {grew} of {passes} passes — the steady \
             state is supposed to be allocation-free"
        );
    }

    /// Attaching observability must populate the registry without changing
    /// a single scheduling decision.
    #[test]
    fn observability_populates_metrics_without_changing_the_schedule() {
        let run = |instrument: bool| {
            let registry = if instrument {
                apc_obs::Registry::new()
            } else {
                apc_obs::Registry::disabled()
            };
            let spans = if instrument {
                apc_obs::SpanRecorder::new()
            } else {
                apc_obs::SpanRecorder::disabled()
            };
            let mut c = controller();
            c.set_obs(ControllerObs::new(&registry, spans.clone()));
            switch_off(&mut c, TimeWindow::new(HOUR, 2 * HOUR), (0..18).collect());
            for i in 0..60 {
                c.submit(job(
                    i % 4,
                    (i as SimTime * 37) % HOUR,
                    32 + (i as u32 % 5) * 96,
                    3600,
                    200 + (i as SimTime % 9) * 100,
                ));
            }
            c.set_horizon(4 * HOUR);
            c.run();
            let schedule: Vec<_> = c
                .jobs()
                .iter()
                .map(|j| (j.id, j.start_time, j.end_time))
                .collect();
            (schedule, registry.snapshot(), spans.take_events())
        };
        let (plain, empty_snapshot, no_events) = run(false);
        let (instrumented, snapshot, events) = run(true);
        assert_eq!(plain, instrumented, "observability changed the schedule");
        assert!(empty_snapshot.entries.is_empty());
        assert!(no_events.is_empty());
        let depth = snapshot
            .histogram("rjms.schedule_pass.queue_depth")
            .expect("pass histogram registered");
        assert!(depth.count > 0, "non-empty passes were recorded");
        let hits = snapshot.counter("rjms.blocked_cache.hits").unwrap();
        let misses = snapshot.counter("rjms.blocked_cache.misses").unwrap();
        assert!(
            hits > misses,
            "jobs share blocked-set prefixes, hits ({hits}) should dominate misses ({misses})"
        );
        assert!(snapshot.counter("rjms.probe.fast").unwrap() > 0 || hits + misses > 0);
        assert!(!events.is_empty(), "per-pass spans were recorded");
        assert!(events.iter().all(|e| e.name == "schedule_pass"));
    }

    #[test]
    fn powercap_reservation_with_null_hook_logs_cap_events() {
        let mut c = controller();
        let (cap_id, off_id) =
            c.add_powercap_reservation(TimeWindow::new(1000, 2000), Watts(10_000.0));
        assert_eq!(cap_id, 0);
        assert!(off_id.is_none(), "the null hook plans no switch-off");
        c.set_horizon(3000);
        c.run();
        assert_eq!(
            c.log()
                .count_matching(|e| matches!(e.kind, SimEventKind::CapActivated { .. })),
            1
        );
        assert_eq!(
            c.log()
                .count_matching(|e| matches!(e.kind, SimEventKind::CapDeactivated { .. })),
            1
        );
    }
}
