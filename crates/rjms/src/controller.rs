//! The controller: the simulator's `slurmctld`.
//!
//! The controller owns the cluster state, the pending queue, the event queue,
//! the reservation book and the scheduling hook. It advances the simulation
//! clock by consuming events (submissions, completions, reservation windows)
//! and runs a scheduling pass — priority sort, FCFS + EASY backfilling,
//! hook authorisation, node selection — after every event batch.
//!
//! Because the simulation is a pure discrete-event system, the cluster state
//! only changes at events, so running the scheduler exactly once per event
//! timestamp is both sufficient and deterministic.

use apc_power::{Frequency, Joules, PowerState, Watts};

use crate::backfill::{can_backfill, shadow_reservation, ShadowReservation};
use crate::cluster::{Cluster, Platform};
use crate::config::ControllerConfig;
use crate::event::{Event, EventQueue};
use crate::hook::{NullHook, SchedulingHook, StartDecision};
use crate::job::{Job, JobId, JobState, JobSubmission};
use crate::log::{SimEventKind, SimLog};
use crate::mask::NodeMask;
use crate::obs::{ControllerObs, PassMeasurements};
use crate::priority::{FairShareTracker, MultifactorPriority};
use crate::reservation::{ReservationBook, ReservationId, ReservationKind};
use crate::select::{NodeSelector, SelectScratch};
use crate::time::{SimTime, TimeWindow};

/// Width of the blocked-set signature: the number of node-carrying
/// reservations that can be distinguished by one bit each. Passes seeing
/// more fall back to exact per-job blocked-set computation (no silent
/// truncation — see `schedule_pass`).
const SIGNATURE_BITS: usize = 128;

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

/// One cached blocked-set: the nodes blocked by a specific combination of
/// overlapping reservations (identified by its bit signature) plus the
/// availability count given that set. The node set only depends on the
/// reservation book, so it survives job starts within a pass; the *count*
/// depends on cluster availability and is invalidated (recomputed lazily)
/// whenever a job start changes it.
#[derive(Debug, Default)]
struct BlockedEntry {
    signature: u128,
    blocked: NodeMask,
    count: usize,
    count_valid: bool,
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
    /// Per-chassis counts for the contiguous selection policy.
    select: SelectScratch,
    /// Census of node-carrying reservations: `(signature bit, window, id)`.
    node_res: Vec<(u128, TimeWindow, ReservationId)>,
    /// Blocked-set cache, keyed by signature; `cache[..cache_live]` are the
    /// entries of the current pass (dead entries keep their buffers).
    cache: Vec<BlockedEntry>,
    cache_live: usize,
    /// Exact per-job blocked set, used when the census overflows the
    /// signature width.
    exact_blocked: NodeMask,
}

impl ScheduleScratch {
    /// Sum of buffer capacities — a monotone proxy for "did this pass
    /// allocate". Units are mixed (elements and words); only growth
    /// matters.
    fn footprint(&self) -> usize {
        self.priority_keys.capacity()
            + self.order.capacity()
            + self.releases.capacity()
            + self.selected.capacity()
            + self.selected_mask.word_capacity()
            + self.select.footprint()
            + self.node_res.capacity()
            + self.cache.capacity()
            + self
                .cache
                .iter()
                .map(|e| e.blocked.word_capacity())
                .sum::<usize>()
            + self.exact_blocked.word_capacity()
    }
}

/// The central resource and job management daemon.
pub struct Controller {
    cluster: Cluster,
    config: ControllerConfig,
    jobs: Vec<Job>,
    pending: Vec<JobId>,
    running: Vec<JobId>,
    events: EventQueue,
    reservations: ReservationBook,
    hook: Box<dyn SchedulingHook>,
    priority: MultifactorPriority,
    fairshare: FairShareTracker,
    selector: NodeSelector,
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
    pub fn new(platform: Platform, config: ControllerConfig) -> Self {
        Controller::with_hook(platform, config, Box::new(NullHook))
    }

    /// Create a controller with an explicit scheduling hook (the powercap
    /// logic of `apc-core`).
    pub fn with_hook(
        platform: Platform,
        config: ControllerConfig,
        hook: Box<dyn SchedulingHook>,
    ) -> Self {
        let mut cluster = Cluster::new(platform);
        cluster.record_power_samples(config.record_power_samples);
        Controller {
            cluster,
            config,
            jobs: Vec::new(),
            pending: Vec::new(),
            running: Vec::new(),
            events: EventQueue::new(),
            reservations: ReservationBook::new(),
            hook,
            priority: MultifactorPriority::new(config.params.priority),
            fairshare: FairShareTracker::default(),
            selector: NodeSelector::new(config.selection),
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
    /// cache counters, probe-path counters, per-pass spans). Disabled by
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

    /// Number of jobs waiting in the queue.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
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

    /// Create a maintenance reservation draining `nodes` during `window`.
    pub fn add_maintenance_reservation(
        &mut self,
        window: TimeWindow,
        nodes: Vec<usize>,
    ) -> ReservationId {
        let id = self
            .reservations
            .add(window, ReservationKind::Maintenance { nodes });
        self.events.push(window.start, Event::ReservationStart(id));
        self.events.push(window.end, Event::ReservationEnd(id));
        id
    }

    /// Inject a node outage (fault injection): the node fails at `down` —
    /// powering off immediately and killing whatever job occupies it — and
    /// recovers at `up`, rejoining the idle pool. Outages are ordinary
    /// events, so replays with the same plan are fully deterministic.
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
            Event::ScheduleTick => {}
            Event::NodeDown(node) => self.handle_node_down(node),
            Event::NodeUp(node) => self.handle_node_up(node),
            Event::EndOfSimulation => {
                self.finished = true;
            }
        }
    }

    /// A node fails: power it off (free nodes switch immediately; an
    /// allocated node is drained and powers off when its job releases it)
    /// and kill the occupying job, if any. The kill exercises the same
    /// release path as the powercap "extreme actions".
    fn handle_node_down(&mut self, node: usize) {
        let victim = match self.cluster.node(node).alloc {
            crate::node::AllocationState::Allocated(job) => Some(job),
            _ => None,
        };
        let switched = self.cluster.power_off(&[node], self.now);
        if !switched.is_empty() {
            self.log
                .push(self.now, SimEventKind::NodesPoweredOff { nodes: switched });
        }
        if let Some(job) = victim {
            // The kill releases the drained node, which powers off there;
            // `kill_job` logs both the kill and the power-off.
            self.kill_job(job);
        }
    }

    /// A failed node recovers: power it back on and clear its drain mark so
    /// it rejoins the idle pool at the next scheduling pass.
    fn handle_node_up(&mut self, node: usize) {
        let was_off = self.cluster.node(node).is_off();
        self.cluster.power_on(&[node], self.now);
        if was_off {
            self.log
                .push(self.now, SimEventKind::NodesPoweredOn { nodes: vec![node] });
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
            ReservationKind::SwitchOff { ref nodes } => {
                let switched = self.cluster.power_off(nodes, self.now);
                if !switched.is_empty() {
                    self.log
                        .push(self.now, SimEventKind::NodesPoweredOff { nodes: switched });
                }
            }
            ReservationKind::Maintenance { ref nodes } => {
                self.cluster.drain(nodes);
            }
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
            ReservationKind::SwitchOff { ref nodes } => {
                self.cluster.power_on(nodes, self.now);
                self.log.push(
                    self.now,
                    SimEventKind::NodesPoweredOn {
                        nodes: nodes.clone(),
                    },
                );
            }
            ReservationKind::Maintenance { ref nodes } => {
                self.cluster.undrain(nodes);
            }
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
    /// Returns the nodes that power off with the release (drained by an
    /// active switch-off reservation), for the caller's event log.
    /// (`Vec::new` does not allocate — the common no-drain case is free.)
    fn release_job_nodes(&mut self, id: JobId) -> Vec<usize> {
        let nodes = std::mem::take(&mut self.jobs[id].nodes);
        let mut powering_off: Vec<usize> = Vec::new();
        for n in nodes.iter() {
            if self.cluster.node(n).drained {
                powering_off.push(n);
            }
        }
        self.cluster.release_mask(&nodes, self.now);
        self.jobs[id].nodes = nodes;
        powering_off
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    fn schedule_pass(&mut self) {
        self.sched_passes += 1;
        if self.pending.is_empty() {
            return;
        }
        // Observability: reads the clock only when handles are attached and
        // publishes once per pass — plain-local accumulation in the loop
        // keeps the uninstrumented hot path untouched.
        let pass = self.obs.pass_begin();
        let mut measurements = PassMeasurements {
            queue_depth: self.pending.len(),
            ..PassMeasurements::default()
        };
        // Take the scratch buffers out of `self` for the pass so their
        // borrows are disjoint from the controller's own fields; they go
        // back (with their grown capacities) at the end.
        let mut scratch = std::mem::take(&mut self.scratch);
        let footprint_before = scratch.footprint();

        self.fairshare.decay_to(self.now);
        let total_cores = self.cluster.platform().total_cores();
        let cores_per_node = self.cluster.platform().cores_per_node;
        self.priority.sort_pending(
            &self.jobs,
            &mut self.pending,
            self.now,
            total_cores,
            &self.fairshare,
            &mut scratch.priority_keys,
        );

        let backfill_cfg = self.config.params.backfill;
        let depth = if backfill_cfg.enabled {
            backfill_cfg.depth
        } else {
            1
        };
        let mut shadow: Option<ShadowReservation> = None;
        let mut any_started = false;

        // The blocked-node set of a job only depends on which node-carrying
        // reservations overlap its prospective window. With a handful of
        // reservations and thousands of pending jobs, most jobs share the
        // same overlap signature, so the (potentially large) node sets are
        // built once per signature and per pass instead of once per job —
        // and survive job starts, which only invalidate the availability
        // *counts*. Should the census ever exceed the signature width, the
        // pass falls back to exact per-job computation instead of silently
        // ignoring the overflow (reservation #129 blocks nodes too).
        let ScheduleScratch {
            priority_keys: _,
            order,
            releases,
            selected,
            selected_mask,
            select,
            node_res,
            cache,
            cache_live,
            exact_blocked,
        } = &mut scratch;
        order.clear();
        order.extend_from_slice(&self.pending);
        node_res.clear();
        let mut node_res_total = 0usize;
        for r in self.reservations.all() {
            if r.blocked_nodes().is_some() {
                if node_res_total < SIGNATURE_BITS {
                    node_res.push((1u128 << node_res_total, r.window, r.id));
                }
                node_res_total += 1;
            }
        }
        let exact_mode = node_res_total > SIGNATURE_BITS;
        *cache_live = 0;

        for (examined, &job_id) in order.iter().enumerate() {
            if examined >= depth {
                break;
            }
            if self.cluster.free_count() == 0 {
                break;
            }
            let needed = self.jobs[job_id].nodes_needed(cores_per_node);
            let walltime = self.jobs[job_id].submission.walltime;
            let window_end = self.now.saturating_add(walltime);

            // Resolve the blocked set + availability for this job's window:
            // through the signature cache normally, exactly per job when the
            // reservation census overflows the signature.
            let cache_index = if exact_mode {
                exact_blocked.clear();
                self.reservations
                    .collect_blocked_within(self.now, window_end, exact_blocked);
                None
            } else {
                let signature: u128 = node_res
                    .iter()
                    .filter(|(_, window, _)| window.overlaps(self.now, window_end))
                    .map(|(bit, _, _)| bit)
                    .sum();
                let index = (0..*cache_live).find(|&i| cache[i].signature == signature);
                let index = match index {
                    Some(i) => {
                        measurements.cache_hits += 1;
                        i
                    }
                    None => {
                        measurements.cache_misses += 1;
                        let i = *cache_live;
                        if i == cache.len() {
                            cache.push(BlockedEntry::default());
                        }
                        let entry = &mut cache[i];
                        entry.signature = signature;
                        entry.blocked.clear();
                        entry.count_valid = false;
                        for (bit, _, id) in node_res.iter() {
                            if signature & bit != 0 {
                                let reservation =
                                    self.reservations.get(*id).expect("censused reservation");
                                if let Some(nodes) = reservation.blocked_nodes() {
                                    entry.blocked.extend(nodes.iter().copied());
                                }
                            }
                        }
                        *cache_live += 1;
                        i
                    }
                };
                if !cache[index].count_valid {
                    cache[index].count = self
                        .selector
                        .available_count(&self.cluster, &cache[index].blocked);
                    cache[index].count_valid = true;
                }
                Some(index)
            };
            let available = match cache_index {
                Some(i) => cache[i].count,
                None => self.selector.available_count(&self.cluster, exact_blocked),
            };

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
                    // its shadow reservation from running jobs' walltimes and
                    // keep examining candidates only if backfilling is on.
                    releases.clear();
                    for &j in &self.running {
                        let job = &self.jobs[j];
                        releases.push((job.walltime_end().unwrap_or(self.now), job.nodes.len()));
                    }
                    shadow = shadow_reservation(needed, available, releases, self.now);
                    if !backfill_cfg.enabled {
                        break;
                    }
                }
                continue;
            }

            // Decide before placing: `needed` selectable nodes exist and all
            // of them are idle, so the power decision does not depend on
            // which ones are picked — nodes are selected only for a start.
            let decision = self.hook.authorize_start(
                &self.cluster,
                &self.reservations,
                &self.jobs[job_id],
                needed,
                self.now,
            );
            match decision {
                StartDecision::Start { frequency } => {
                    let blocked: &NodeMask = match cache_index {
                        Some(i) => &cache[i].blocked,
                        None => exact_blocked,
                    };
                    if !self
                        .selector
                        .select_into(&self.cluster, needed, blocked, select, selected)
                    {
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
                    measurements.started += 1;
                    // Node availability changed: invalidate the cached
                    // counts (the blocked sets themselves are unaffected) so
                    // the remaining candidates see up-to-date numbers.
                    for entry in &mut cache[..*cache_live] {
                        entry.count_valid = false;
                    }
                }
                StartDecision::Postpone => {
                    // Power-blocked, not node-blocked: no node reservation is
                    // held, lower-priority (typically smaller or slower) jobs
                    // may still be attempted.
                    continue;
                }
            }
        }

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
        let factor = self.hook.runtime_factor_for(&self.jobs[id], frequency);
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
    use crate::time::HOUR;
    use apc_power::Frequency;

    fn platform() -> Platform {
        Platform::curie_scaled(1) // 90 nodes, 1440 cores
    }

    fn controller() -> Controller {
        Controller::new(platform(), ControllerConfig::default())
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
    fn disabled_backfill_is_strict_fcfs() {
        let params = crate::config::SchedulerParameters {
            backfill: crate::backfill::BackfillConfig {
                enabled: false,
                depth: 0,
            },
            ..Default::default()
        };
        let cfg = ControllerConfig::default().with_params(params);
        let mut c = Controller::new(platform(), cfg);
        c.submit(job(0, 0, 1280, 2000, 1000));
        c.submit(job(1, 1, 1440, 2000, 500)); // blocks
        c.submit(job(2, 2, 80, 900, 500)); // would backfill, must not
        c.set_horizon(2 * HOUR);
        c.run();
        assert!(c.job(2).start_time.unwrap() >= 1000);
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
        let window = TimeWindow::new(1000, 2000);
        let nodes: Vec<usize> = (0..18).collect();
        let id = c.reservations.add(
            window,
            ReservationKind::SwitchOff {
                nodes: nodes.clone(),
            },
        );
        c.events.push(window.start, Event::ReservationStart(id));
        c.events.push(window.end, Event::ReservationEnd(id));
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
        let window = TimeWindow::new(500, 4000);
        let nodes: Vec<usize> = (0..45).collect();
        let id = c
            .reservations
            .add(window, ReservationKind::SwitchOff { nodes });
        c.events.push(window.start, Event::ReservationStart(id));
        c.events.push(window.end, Event::ReservationEnd(id));
        // A 60-node job submitted at t=0 with a walltime overlapping the
        // window cannot use the reserved nodes, so it has to wait until the
        // reservation ends.
        c.submit(job(0, 0, 960, 2 * HOUR, 600));
        c.set_horizon(3 * HOUR);
        c.run();
        assert!(c.job(0).start_time.unwrap() >= 4000);
    }

    #[test]
    fn maintenance_reservation_drains_without_power_off() {
        let mut c = controller();
        let id = c.add_maintenance_reservation(TimeWindow::new(0, 1000), (0..90).collect());
        assert_eq!(id, 0);
        c.submit(job(0, 10, 16, 3600, 60));
        c.set_horizon(HOUR);
        c.run();
        // The job could only start after the maintenance window.
        assert!(c.job(0).start_time.unwrap() >= 1000);
        assert_eq!(c.cluster().powered_off_count(), 0);
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

    /// Regression for the signature-cache overflow: the seed capped the
    /// census at 128 node-carrying reservations, so a 129th reservation's
    /// nodes silently became schedulable. Past the cap the controller now
    /// computes every job's blocked set exactly.
    #[test]
    fn reservation_129_still_blocks_its_nodes() {
        let mut c = Controller::new(Platform::curie_scaled(2), ControllerConfig::default());
        // 129 maintenance reservations, one node each, on a future window
        // that overlaps the job's execution.
        for node in 0..129 {
            c.add_maintenance_reservation(TimeWindow::new(1000, 10_000), vec![node]);
        }
        // 180 nodes, 129 blocked ⇒ 51 selectable inside the window. A job
        // needing 52 nodes must wait for the window to end; with the seed's
        // truncation, node 128 looked free and the job started at t = 0.
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
        let mut c = Controller::new(Platform::curie_scaled(2), ControllerConfig::default());
        for node in 0..129 {
            c.add_maintenance_reservation(TimeWindow::new(1000, 10_000), vec![node]);
        }
        c.submit(job(0, 0, 51 * 16, 5000, 4000));
        c.set_horizon(20_000);
        c.run();
        assert_eq!(c.job(0).start_time, Some(0));
    }

    /// The scheduling hot path must stop allocating once its scratch
    /// buffers reach their steady-state sizes: a long, busy replay may grow
    /// them in early passes but the overwhelming majority of passes reuse
    /// them untouched.
    #[test]
    fn steady_state_scheduling_stops_allocating() {
        let mut c = controller();
        // A switch-off reservation keeps the blocked-set machinery engaged.
        let window = TimeWindow::new(HOUR, 3 * HOUR);
        let id = c.reservations.add(
            window,
            ReservationKind::SwitchOff {
                nodes: (0..18).collect(),
            },
        );
        c.events.push(window.start, Event::ReservationStart(id));
        c.events.push(window.end, Event::ReservationEnd(id));
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
            let window = TimeWindow::new(HOUR, 2 * HOUR);
            let id = c.reservations.add(
                window,
                ReservationKind::SwitchOff {
                    nodes: (0..18).collect(),
                },
            );
            c.events.push(window.start, Event::ReservationStart(id));
            c.events.push(window.end, Event::ReservationEnd(id));
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
            "jobs share overlap signatures, hits ({hits}) should dominate misses ({misses})"
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
