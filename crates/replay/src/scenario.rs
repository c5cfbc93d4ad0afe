//! Powercap scenarios.
//!
//! The paper's evaluation replays each workload interval under "three
//! powercap scenarios reserving respectively 80 %, 60 % and 40 % of the
//! available power budget for one hour in the middle of the replayed
//! interval", plus a no-powercap baseline, for each of the SHUT / DVFS / MIX
//! policies.

use apc_core::PowercapPolicy;
use apc_power::bonus::GroupingStrategy;
use apc_power::tradeoff::DecisionRule;
use apc_power::Watts;
use apc_rjms::cluster::Platform;
use apc_rjms::time::{SimTime, TimeWindow, HOUR};
use serde::{Deserialize, Serialize};

/// One segment of a cap schedule: a window plus its own cap fraction, so
/// tariff-shaped day/night caps or trace-driven (carbon-intensity /
/// spot-price style) profiles are expressible.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapSegment {
    /// Start of the segment, seconds into the interval.
    pub start: SimTime,
    /// Duration of the segment, in seconds.
    pub duration: SimTime,
    /// Cap level during the segment, as a fraction of maximum cluster
    /// power, in `(0, 1]`.
    pub fraction: f64,
}

impl CapSegment {
    /// A segment capping `[start, start + duration)` at `fraction`.
    pub fn new(start: SimTime, duration: SimTime, fraction: f64) -> Self {
        CapSegment {
            start,
            duration,
            fraction,
        }
    }

    /// The segment's window as a half-open [`TimeWindow`].
    pub fn time_window(&self) -> TimeWindow {
        TimeWindow::with_duration(self.start, self.duration)
    }

    /// End of the segment (exclusive).
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }
}

/// The one cap model: a sequence of non-overlapping [`CapSegment`]s, each
/// registered as one powercap reservation at its own level, in segment
/// order.
///
/// Two constructors fill it. [`new`](Self::new) and [`parse`](Self::parse)
/// take explicit segments in chronological order (a schedule file).
/// [`uniform`](Self::uniform) caps a set of windows at one shared level —
/// the paper's "one hour at 60 %" and every `--caps × --windows` cell — and
/// records that level, which is what labels such a scenario `60%/MIX`
/// rather than `SCHED/MIX`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapSchedule {
    segments: Vec<CapSegment>,
    /// The shared fraction of a [`uniform`](Self::uniform) schedule; `None`
    /// for one given segment by segment.
    level: Option<f64>,
}

impl CapSchedule {
    /// Build a schedule from explicit segments. Segments must be non-empty,
    /// sorted by start, pairwise non-overlapping, with positive durations
    /// and fractions in `(0, 1]`.
    pub fn new(segments: Vec<CapSegment>) -> Result<Self, String> {
        if segments.is_empty() {
            return Err("cap schedule needs at least one segment".to_string());
        }
        for (i, s) in segments.iter().enumerate() {
            if s.duration == 0 {
                return Err(format!("segment {i} has zero duration"));
            }
            if !(s.fraction > 0.0 && s.fraction <= 1.0) {
                return Err(format!(
                    "segment {i} fraction {} outside (0, 1]",
                    s.fraction
                ));
            }
            if i > 0 && s.start < segments[i - 1].end() {
                return Err(format!(
                    "segment {i} starting at {} overlaps the previous one ending at {}",
                    s.start,
                    segments[i - 1].end()
                ));
            }
        }
        Ok(CapSchedule {
            segments,
            level: None,
        })
    }

    /// Every window capped at the same `fraction`, kept in the order
    /// written. That order is the reservation registration order, and it
    /// can change a replay: two adjacent windows registered late-first
    /// schedule differently from the same windows registered early-first.
    /// The windows must be pairwise disjoint; the campaign spec's window
    /// placement rejects overlaps before it builds one.
    pub fn uniform(windows: &[TimeWindow], fraction: f64) -> Self {
        debug_assert!(
            windows
                .iter()
                .enumerate()
                .all(|(i, a)| windows[..i].iter().all(|b| !a.overlaps_window(b))),
            "uniform cap windows overlap"
        );
        CapSchedule {
            segments: windows
                .iter()
                .map(|w| CapSegment::new(w.start, w.duration(), fraction))
                .collect(),
            level: Some(fraction),
        }
    }

    /// Parse the schedule-file format: one segment per line as
    /// `START DURATION FRACTION` (whitespace-separated, seconds and a
    /// fraction in `(0, 1]`), with `#` comments and blank lines ignored.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut segments = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() != 3 {
                return Err(format!(
                    "line {}: expected `START DURATION FRACTION`, got {:?}",
                    lineno + 1,
                    line
                ));
            }
            let start: SimTime = fields[0]
                .parse()
                .map_err(|_| format!("line {}: bad start {:?}", lineno + 1, fields[0]))?;
            let duration: SimTime = fields[1]
                .parse()
                .map_err(|_| format!("line {}: bad duration {:?}", lineno + 1, fields[1]))?;
            let fraction: f64 = fields[2]
                .parse()
                .map_err(|_| format!("line {}: bad fraction {:?}", lineno + 1, fields[2]))?;
            segments.push(CapSegment::new(start, duration, fraction));
        }
        CapSchedule::new(segments)
    }

    /// The segments, in registration order.
    pub fn segments(&self) -> &[CapSegment] {
        &self.segments
    }

    /// The shared fraction of a [`uniform`](Self::uniform) schedule, or
    /// `None` for a schedule given segment by segment.
    pub(crate) fn level(&self) -> Option<f64> {
        self.level
    }

    /// End of the latest segment.
    pub fn end(&self) -> SimTime {
        self.segments.iter().map(CapSegment::end).max().unwrap_or(0)
    }

    /// The time part of the label: `start+duration` pairs joined with `|`,
    /// in segment order — the `window` result column.
    pub fn window_label(&self) -> String {
        self.segments
            .iter()
            .map(|s| format!("{}+{}", s.start, s.duration))
            .collect::<Vec<_>>()
            .join("|")
    }

    /// A compact, CSV-safe label carrying the fractions too:
    /// `start+duration@percent` pairs joined with `|`
    /// (e.g. `"0+28800@80|28800+57600@40"`).
    pub fn label(&self) -> String {
        self.segments
            .iter()
            .map(|s| format!("{}+{}@{}", s.start, s.duration, s.fraction * 100.0))
            .collect::<Vec<_>>()
            .join("|")
    }
}

/// A seeded node fault plan: `count` node outages of `outage_duration`
/// seconds each, with failure nodes and instants drawn deterministically
/// from `seed`. Injected into the controller's event stream, a failure
/// powers the node off and kills whatever job occupies it (exercising the
/// existing kill/requeue semantics); the recovery powers it back on.
///
/// Two realism variants compose with the base plan (and each other),
/// expressed as label suffixes so legacy plans keep their exact syntax,
/// labels, fingerprints and event streams:
///
/// * `:weibull=K` — failure instants follow Weibull(shape `K`)
///   inter-failure times instead of the uniform draw. `K < 1` models the
///   bursty infant-mortality clustering real HPC failure traces show;
///   `K = 1` is exponential; `K > 1` spreads failures out (wear-out).
/// * `:chassis` — each drawn failure takes down the whole chassis of the
///   drawn node (shared power/cooling equipment failure), not just the one
///   node: one event becomes `nodes_per_chassis` simultaneous outages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Number of injected outages.
    pub count: usize,
    /// Length of each outage, in seconds (at least 1).
    pub outage_duration: SimTime,
    /// Seed for the deterministic draw of nodes and failure instants.
    pub seed: u64,
    /// Weibull shape parameter for inter-failure times, stored as raw `f64`
    /// bits so the plan stays `Copy + Eq + Hash`. `None` keeps the legacy
    /// uniform draw (and its exact event stream).
    weibull_shape_bits: Option<u64>,
    /// Chassis-correlated outages: each failure downs the drawn node's
    /// whole chassis.
    pub chassis: bool,
}

impl FaultPlan {
    /// A plan of `count` outages of `outage_duration` seconds from `seed`.
    pub fn new(count: usize, outage_duration: SimTime, seed: u64) -> Self {
        FaultPlan {
            count,
            outage_duration: outage_duration.max(1),
            seed,
            weibull_shape_bits: None,
            chassis: false,
        }
    }

    /// Use Weibull(shape `k`) inter-failure times (builder style). `k` must
    /// be finite and positive; [`parse`](Self::parse) validates the CLI
    /// syntax the same way.
    pub fn with_weibull(mut self, k: f64) -> Self {
        debug_assert!(k.is_finite() && k > 0.0, "weibull shape must be > 0");
        self.weibull_shape_bits = Some(k.to_bits());
        self
    }

    /// Make each outage take down the drawn node's whole chassis
    /// (builder style).
    pub fn with_chassis(mut self) -> Self {
        self.chassis = true;
        self
    }

    /// The Weibull shape parameter, when this plan uses Weibull
    /// inter-failure times.
    pub fn weibull_shape(&self) -> Option<f64> {
        self.weibull_shape_bits.map(f64::from_bits)
    }

    /// Parse the CLI syntax `COUNTxDURATION@SEED` (e.g. `3x600@7`), with
    /// optional `:weibull=K` and `:chassis` suffixes in any order
    /// (e.g. `3x600@7:weibull=0.7:chassis`).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let err = || {
            format!(
                "fault plan {spec:?} is not COUNTxDURATION@SEED with optional \
                 :weibull=K / :chassis suffixes (e.g. 3x600@7:weibull=0.7)"
            )
        };
        let mut parts = spec.split(':');
        let base = parts.next().ok_or_else(err)?;
        let (head, seed) = base.split_once('@').ok_or_else(err)?;
        let (count, duration) = head.split_once('x').ok_or_else(err)?;
        let count: usize = count.parse().map_err(|_| err())?;
        let duration: SimTime = duration.parse().map_err(|_| err())?;
        let seed: u64 = seed.parse().map_err(|_| err())?;
        if count == 0 || duration == 0 {
            return Err(err());
        }
        let mut plan = FaultPlan::new(count, duration, seed);
        for suffix in parts {
            match suffix.split_once('=') {
                None if suffix == "chassis" => plan.chassis = true,
                Some(("weibull", k)) => {
                    let k: f64 = k.parse().map_err(|_| err())?;
                    if !(k.is_finite() && k > 0.0) {
                        return Err(format!(
                            "fault plan {spec:?}: weibull shape must be a positive \
                             finite number, got {k}"
                        ));
                    }
                    plan.weibull_shape_bits = Some(k.to_bits());
                }
                _ => return Err(err()),
            }
        }
        Ok(plan)
    }

    /// The CSV-safe label, round-tripping [`parse`](Self::parse):
    /// `"3x600@7"`, `"3x600@7:weibull=0.7"`, `"3x600@7:chassis"`,
    /// `"3x600@7:weibull=0.7:chassis"` (suffixes in canonical order).
    pub fn label(&self) -> String {
        let mut label = format!("{}x{}@{}", self.count, self.outage_duration, self.seed);
        if let Some(k) = self.weibull_shape() {
            label.push_str(&format!(":weibull={k}"));
        }
        if self.chassis {
            label.push_str(":chassis");
        }
        label
    }

    /// The concrete `(node, down, up)` outages for a platform of
    /// `total_nodes` nodes over `[0, horizon)`, sorted by failure time.
    /// Purely a function of the plan, the platform shape and the horizon —
    /// replays with the same plan are bit-identical. Outages may
    /// occasionally hit the same node; the controller treats the overlap as
    /// one longer outage ending at the first recovery.
    ///
    /// `nodes_per_chassis` only matters for [`chassis`](Self::chassis)
    /// plans: each drawn event then expands to one outage per node of the
    /// drawn node's chassis (pass 1 for flat topologies; the draw sequence
    /// itself never depends on it, so plain and chassis plans with the same
    /// base draw the same failure nodes and instants).
    pub fn events(
        &self,
        total_nodes: usize,
        nodes_per_chassis: usize,
        horizon: SimTime,
    ) -> Vec<(usize, SimTime, SimTime)> {
        if total_nodes == 0 || horizon == 0 {
            return Vec::new();
        }
        let mut state = self.seed ^ 0x5851_f42d_4c95_7f2d;
        let mut draw = move || {
            // SplitMix64: the standard avalanche of a Weyl sequence.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        // Draw interleaving matches the legacy path exactly — node then
        // instant per event — so the `weibull`/`chassis` variants reuse the
        // same node choices a plain plan with this seed makes.
        let raw: Vec<(usize, u64)> = (0..self.count)
            .map(|_| ((draw() % total_nodes as u64) as usize, draw()))
            .collect();
        let downs: Vec<SimTime> = match self.weibull_shape() {
            // Legacy: instants uniform over the horizon.
            None => raw.iter().map(|&(_, t)| t % horizon).collect(),
            // Weibull(k) inter-failure times via inversion,
            // T_i = (-ln U_i)^(1/k), normalised so the cumulative arrivals
            // span [0, horizon) — no gamma function needed, and the result
            // is still a pure function of the seed. One extra draw closes
            // the last gap so arrival `count` never lands on the horizon.
            Some(k) => {
                let uniform = |t: u64| {
                    // 53 uniform bits, clamped away from 0 so ln stays finite.
                    (((t >> 11) as f64) / (1u64 << 53) as f64).max(f64::MIN_POSITIVE)
                };
                let tail_gap = (-uniform(draw()).ln()).powf(1.0 / k);
                let gaps: Vec<f64> = raw
                    .iter()
                    .map(|&(_, t)| (-uniform(t).ln()).powf(1.0 / k))
                    .collect();
                let total: f64 = gaps.iter().sum::<f64>() + tail_gap;
                let mut cumulative = 0.0;
                gaps.iter()
                    .map(|gap| {
                        cumulative += gap;
                        (((cumulative / total) * horizon as f64) as SimTime).min(horizon - 1)
                    })
                    .collect()
            }
        };
        let per_chassis = nodes_per_chassis.max(1);
        let mut outages: Vec<(usize, SimTime, SimTime)> = Vec::new();
        for (&(node, _), &down) in raw.iter().zip(&downs) {
            let up = down + self.outage_duration;
            if self.chassis {
                let chassis = node / per_chassis;
                let start = chassis * per_chassis;
                let end = (start + per_chassis).min(total_nodes);
                outages.extend((start..end).map(|n| (n, down, up)));
            } else {
                outages.push((node, down, up));
            }
        }
        outages.sort_unstable();
        outages
    }
}

/// One experimental scenario: a policy plus an optional cap schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// The powercap policy.
    pub policy: PowercapPolicy,
    /// The powercap: one reservation per segment, at the segment's own
    /// fraction. `None` is the uncapped baseline (the "100 %" rows).
    pub cap: Option<CapSchedule>,
    /// A seeded node fault plan injected into the replay. `None` (the
    /// default everywhere) keeps the fault-free path bit-identical.
    pub faults: Option<FaultPlan>,
    /// Switch-off grouping strategy (ablation knob).
    pub grouping: GroupingStrategy,
    /// DVFS-vs-shutdown decision rule (ablation knob).
    pub decision_rule: DecisionRule,
    /// Kill running jobs when the cap is violated at activation.
    pub kill_on_violation: bool,
    /// Stretch each job with its own application-class degradation instead of
    /// the policy-wide common value (the paper's future-work extension).
    pub per_application_degradation: bool,
}

impl Scenario {
    /// The paper's standard scenario: `policy` with a 1-hour cap of
    /// `cap_fraction` placed in the middle of an interval of
    /// `interval_duration` seconds. Intervals shorter than an hour get a
    /// window clamped to the whole interval — the window never overruns the
    /// interval end.
    pub fn paper(policy: PowercapPolicy, cap_fraction: f64, interval_duration: SimTime) -> Self {
        let window_duration = HOUR.min(interval_duration);
        let window_start = (interval_duration - window_duration) / 2;
        let window = TimeWindow::with_duration(window_start, window_duration);
        Scenario::scheduled(policy, CapSchedule::uniform(&[window], cap_fraction))
    }

    /// The uncapped baseline ("100 %/None").
    pub fn baseline() -> Self {
        Scenario {
            policy: PowercapPolicy::None,
            cap: None,
            faults: None,
            grouping: GroupingStrategy::Grouped,
            decision_rule: DecisionRule::PaperRho,
            kill_on_violation: false,
            per_application_degradation: false,
        }
    }

    /// A scenario capped by `schedule` under `policy`.
    pub fn scheduled(policy: PowercapPolicy, schedule: CapSchedule) -> Self {
        Scenario {
            policy,
            cap: Some(schedule),
            ..Scenario::baseline()
        }
    }

    /// Attach a fault plan (builder style).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Override the grouping strategy (builder style).
    pub fn with_grouping(mut self, grouping: GroupingStrategy) -> Self {
        self.grouping = grouping;
        self
    }

    /// Override the decision rule (builder style).
    pub fn with_decision_rule(mut self, rule: DecisionRule) -> Self {
        self.decision_rule = rule;
        self
    }

    /// Enable "extreme actions" (builder style).
    pub fn with_kill_on_violation(mut self) -> Self {
        self.kill_on_violation = true;
        self
    }

    /// Enable application-aware DVFS degradation (builder style).
    pub fn with_per_application_degradation(mut self) -> Self {
        self.per_application_degradation = true;
        self
    }

    /// The first powercap window, if the scenario has any — the common case
    /// for paper-style single-window scenarios.
    pub fn window(&self) -> Option<TimeWindow> {
        self.windows().next()
    }

    /// Every powercap window of the scenario, in registration order (none
    /// for the baseline).
    pub fn windows(&self) -> impl Iterator<Item = TimeWindow> + '_ {
        self.segments().iter().map(CapSegment::time_window)
    }

    /// The powercap reservations the scenario makes on `platform`: each
    /// segment's window with its absolute cap, in registration order. Every
    /// replay path registers exactly these.
    pub fn reservations<'a>(
        &'a self,
        platform: &'a Platform,
    ) -> impl Iterator<Item = (TimeWindow, Watts)> + 'a {
        self.segments()
            .iter()
            .map(|s| (s.time_window(), platform.power_fraction(s.fraction)))
    }

    fn segments(&self) -> &[CapSegment] {
        self.cap.as_ref().map_or(&[], CapSchedule::segments)
    }

    /// A compact, CSV-safe label of the cap windows: `start+duration` pairs
    /// joined with `|` in registration order (e.g. `"7200+3600"`,
    /// `"16200+1800|0+1800"`), or `"-"` for the uncapped baseline. Used as
    /// the `window` result column and as part of the across-seed summary
    /// grouping key, so window sweeps never collapse into one group.
    pub fn window_label(&self) -> String {
        match &self.cap {
            Some(schedule) => schedule.window_label(),
            None => "-".to_string(),
        }
    }

    /// The cap-schedule label (`start+duration@percent` pairs joined with
    /// `|`) of a schedule given segment by segment, or `"-"` for uniform
    /// caps and the baseline — the value of the `schedule` result column.
    pub fn schedule_label(&self) -> String {
        match &self.cap {
            Some(schedule) if schedule.level().is_none() => schedule.label(),
            _ => "-".to_string(),
        }
    }

    /// The fault-plan label (`COUNTxDURATION@SEED`), or `"-"` for fault-free
    /// scenarios — the value of the `faults` result column.
    pub fn fault_label(&self) -> String {
        match &self.faults {
            Some(plan) => plan.label(),
            None => "-".to_string(),
        }
    }

    /// The cap level as a percentage of maximum power: the uniform level,
    /// or 100 for the baseline and for schedules given segment by segment
    /// — the value of the `cap_percent` result column.
    pub fn cap_percent(&self) -> f64 {
        self.cap
            .as_ref()
            .and_then(CapSchedule::level)
            .map_or(100.0, |f| f * 100.0)
    }

    /// A short label like "40%/MIX" (the row labels of Fig. 8). Scenarios
    /// capped segment by segment render as "SCHED/MIX" — the per-segment
    /// levels live in [`schedule_label`](Self::schedule_label).
    pub fn label(&self) -> String {
        match self.cap.as_ref().map(CapSchedule::level) {
            None => "100%/None".to_string(),
            Some(Some(f)) => format!("{:.0}%/{}", f * 100.0, self.policy),
            Some(None) => format!("SCHED/{}", self.policy),
        }
    }

    /// The full grid of the paper's Fig. 8 for one interval: 100 %/None plus
    /// {80, 60, 40 %} × {SHUT, DVFS, MIX}.
    pub fn paper_grid(interval_duration: SimTime) -> Vec<Scenario> {
        let mut grid = vec![Scenario::baseline()];
        for fraction in [0.80, 0.60, 0.40] {
            for policy in [
                PowercapPolicy::Shut,
                PowercapPolicy::Dvfs,
                PowercapPolicy::Mix,
            ] {
                grid.push(Scenario::paper(policy, fraction, interval_duration));
            }
        }
        grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenario_centres_the_window() {
        let s = Scenario::paper(PowercapPolicy::Shut, 0.6, 5 * HOUR);
        let w = s.window().unwrap();
        assert_eq!(w.duration(), HOUR);
        assert_eq!(w.start, 2 * HOUR);
        assert_eq!(s.label(), "60%/SHUT");
        assert_eq!(s.window_label(), "7200+3600");
        assert_eq!(s.cap_percent(), 60.0);
        assert_eq!(s.schedule_label(), "-");
        let platform = Platform::curie_scaled(1);
        let reservations: Vec<_> = s.reservations(&platform).collect();
        assert_eq!(reservations.len(), 1);
        assert_eq!(reservations[0].0, w);
        assert!(reservations[0]
            .1
            .approx_eq(platform.max_power() * 0.6, 1e-6));
    }

    #[test]
    fn paper_window_never_overruns_a_short_interval() {
        // Regression: intervals shorter than the 1 h window used to keep the
        // full HOUR duration — `saturating_sub` pinned the start to 0 but the
        // window end still overran the interval. The duration must clamp.
        for interval in [1, 600, 1800, HOUR - 1] {
            let s = Scenario::paper(PowercapPolicy::Shut, 0.6, interval);
            let w = s.window().unwrap();
            assert_eq!(w.start, 0, "interval {interval}");
            assert_eq!(w.duration(), interval, "interval {interval}");
            assert!(
                w.end <= interval,
                "window end {} overruns {interval}",
                w.end
            );
        }
        // Exactly one hour: the window is the whole interval.
        let s = Scenario::paper(PowercapPolicy::Shut, 0.6, HOUR);
        let w = s.window().unwrap();
        assert_eq!((w.start, w.duration()), (0, HOUR));
        // Longer intervals keep the centred 1-hour placement.
        let s = Scenario::paper(PowercapPolicy::Shut, 0.6, 3 * HOUR);
        let w = s.window().unwrap();
        assert_eq!((w.start, w.duration()), (HOUR, HOUR));
    }

    #[test]
    fn multi_window_scenarios_expose_every_window() {
        let s = Scenario::scheduled(
            PowercapPolicy::Mix,
            CapSchedule::uniform(
                &[TimeWindow::new(0, 1800), TimeWindow::new(16_200, 18_000)],
                0.6,
            ),
        );
        let windows: Vec<TimeWindow> = s.windows().collect();
        assert_eq!(windows.len(), 2);
        assert_eq!((windows[0].start, windows[0].end), (0, 1800));
        assert_eq!((windows[1].start, windows[1].end), (16_200, 18_000));
        assert_eq!(s.window().unwrap().start, 0, "window() is the first one");
        assert_eq!(s.window_label(), "0+1800|16200+1800");
        // The baseline has no windows, no reservations and the "-" label.
        let platform = Platform::curie_scaled(1);
        assert!(Scenario::baseline().windows().next().is_none());
        assert!(Scenario::baseline()
            .reservations(&platform)
            .next()
            .is_none());
        assert_eq!(Scenario::baseline().window_label(), "-");
    }

    #[test]
    fn baseline_has_no_window() {
        let s = Scenario::baseline();
        assert!(s.window().is_none());
        assert_eq!(s.cap_percent(), 100.0);
        assert_eq!(s.label(), "100%/None");
    }

    #[test]
    fn grid_matches_fig8_rows() {
        let grid = Scenario::paper_grid(5 * HOUR);
        assert_eq!(grid.len(), 10);
        assert_eq!(grid[0].label(), "100%/None");
        let labels: Vec<String> = grid.iter().map(Scenario::label).collect();
        assert!(labels.contains(&"40%/MIX".to_string()));
        assert!(labels.contains(&"80%/DVFS".to_string()));
        assert!(labels.contains(&"60%/SHUT".to_string()));
    }

    #[test]
    fn schedule_validation_and_labels() {
        let schedule = CapSchedule::new(vec![
            CapSegment::new(0, 28_800, 0.8),
            CapSegment::new(28_800, 57_600, 0.4),
        ])
        .unwrap();
        assert_eq!(schedule.segments().len(), 2);
        assert_eq!(schedule.end(), 86_400);
        assert_eq!(schedule.level(), None);
        assert_eq!(schedule.window_label(), "0+28800|28800+57600");
        assert_eq!(schedule.label(), "0+28800@80|28800+57600@40");
        // Invalid shapes are rejected.
        assert!(CapSchedule::new(vec![]).is_err());
        assert!(CapSchedule::new(vec![CapSegment::new(0, 0, 0.5)]).is_err());
        assert!(CapSchedule::new(vec![CapSegment::new(0, 10, 1.5)]).is_err());
        assert!(CapSchedule::new(vec![CapSegment::new(0, 10, 0.0)]).is_err());
        assert!(CapSchedule::new(vec![
            CapSegment::new(0, 100, 0.5),
            CapSegment::new(50, 100, 0.5),
        ])
        .is_err());
    }

    #[test]
    fn schedule_from_windows_matches_the_legacy_label() {
        // A uniform schedule keeps its windows in written order, late-first
        // here, and labels like the window list it came from.
        let windows = [TimeWindow::new(16_200, 18_000), TimeWindow::new(0, 1800)];
        let uniform = Scenario::scheduled(PowercapPolicy::Mix, CapSchedule::uniform(&windows, 0.6));
        assert_eq!(uniform.cap.as_ref().unwrap().level(), Some(0.6));
        assert_eq!(uniform.label(), "60%/MIX");
        assert_eq!(uniform.window_label(), "16200+1800|0+1800");
        assert_eq!(uniform.cap_percent(), 60.0);
        assert_eq!(uniform.schedule_label(), "-");
        assert_eq!(uniform.windows().collect::<Vec<_>>(), windows);
        assert_eq!(uniform.cap.as_ref().unwrap().end(), 18_000);
        // The same segments given one by one form a segment schedule:
        // labelled by its segments, not by a level.
        let segments = CapSchedule::new(vec![
            CapSegment::new(0, 1800, 0.6),
            CapSegment::new(16_200, 1800, 0.6),
        ])
        .unwrap();
        let scheduled = Scenario::scheduled(PowercapPolicy::Mix, segments);
        assert_eq!(scheduled.label(), "SCHED/MIX");
        assert_eq!(scheduled.window_label(), "0+1800|16200+1800");
        assert_eq!(scheduled.cap_percent(), 100.0);
        assert_eq!(scheduled.schedule_label(), "0+1800@60|16200+1800@60");
    }

    #[test]
    fn schedule_file_parsing() {
        let text = "\
# tariff-style day/night profile
0     28800 0.8   # night: generous
28800 57600 0.4   # day: tight

";
        let schedule = CapSchedule::parse(text).unwrap();
        assert_eq!(schedule.segments().len(), 2);
        assert_eq!(schedule.segments()[1].fraction, 0.4);
        assert!(CapSchedule::parse("not a schedule").is_err());
        assert!(CapSchedule::parse("0 10").is_err());
        assert!(CapSchedule::parse("0 10 2.0").is_err());
        assert!(CapSchedule::parse("").is_err());
    }

    #[test]
    fn fault_plan_parse_label_and_events() {
        let plan = FaultPlan::parse("3x600@7").unwrap();
        assert_eq!(plan, FaultPlan::new(3, 600, 7));
        assert_eq!(plan.label(), "3x600@7");
        assert!(FaultPlan::parse("3x600").is_err());
        assert!(FaultPlan::parse("0x600@7").is_err());
        assert!(FaultPlan::parse("3x0@7").is_err());
        assert!(FaultPlan::parse("axb@c").is_err());
        let events = plan.events(180, 18, 18_000);
        assert_eq!(events.len(), 3);
        for &(node, down, up) in &events {
            assert!(node < 180);
            assert!(down < 18_000);
            assert_eq!(up, down + 600);
        }
        // Deterministic: same plan, same events; different seed, different.
        assert_eq!(events, plan.events(180, 18, 18_000));
        assert_ne!(events, FaultPlan::new(3, 600, 8).events(180, 18, 18_000));
        assert!(events.windows(2).all(|w| w[0] <= w[1]), "sorted");
        // Degenerate platforms produce no events.
        assert!(plan.events(0, 18, 18_000).is_empty());
        assert!(plan.events(180, 18, 0).is_empty());
    }

    #[test]
    fn weibull_suffix_parses_labels_and_reshapes_instants() {
        let plan = FaultPlan::parse("5x600@7:weibull=0.7").unwrap();
        assert_eq!(plan.weibull_shape(), Some(0.7));
        assert!(!plan.chassis);
        assert_eq!(plan.label(), "5x600@7:weibull=0.7");
        assert_eq!(FaultPlan::parse(&plan.label()).unwrap(), plan);
        // Same seed, same nodes hit — only the instants move.
        let base = FaultPlan::parse("5x600@7").unwrap();
        let weibull = plan.events(180, 18, 18_000);
        let uniform = base.events(180, 18, 18_000);
        assert_eq!(weibull.len(), 5);
        let nodes = |evs: &[(usize, SimTime, SimTime)]| {
            let mut n: Vec<usize> = evs.iter().map(|e| e.0).collect();
            n.sort_unstable();
            n
        };
        assert_eq!(nodes(&weibull), nodes(&uniform));
        assert_ne!(weibull, uniform, "instants are redistributed");
        for &(_, down, _) in &weibull {
            assert!(down < 18_000);
        }
        // Deterministic, and the shape matters.
        assert_eq!(weibull, plan.events(180, 18, 18_000));
        assert_ne!(
            weibull,
            FaultPlan::parse("5x600@7:weibull=2.5")
                .unwrap()
                .events(180, 18, 18_000)
        );
        // Bad shapes are rejected.
        assert!(FaultPlan::parse("5x600@7:weibull=0").is_err());
        assert!(FaultPlan::parse("5x600@7:weibull=-1").is_err());
        assert!(FaultPlan::parse("5x600@7:weibull=nope").is_err());
        assert!(FaultPlan::parse("5x600@7:bogus").is_err());
    }

    #[test]
    fn chassis_suffix_downs_whole_chassis_groups() {
        let plan = FaultPlan::parse("2x300@11:chassis").unwrap();
        assert!(plan.chassis);
        assert_eq!(plan.label(), "2x300@11:chassis");
        assert_eq!(FaultPlan::parse(&plan.label()).unwrap(), plan);
        let events = plan.events(90, 18, 18_000);
        // 2 drawn failures x 18 nodes per chassis (chassis may collide,
        // giving overlapping outages on the same nodes — still 36 events).
        assert_eq!(events.len(), 36);
        // Every event's node set covers whole chassis: group instants and
        // check each (down, up) pair hits a full aligned 18-node range.
        let base = FaultPlan::parse("2x300@11").unwrap().events(90, 18, 18_000);
        let drawn_chassis: std::collections::BTreeSet<usize> =
            base.iter().map(|&(n, _, _)| n / 18).collect();
        let hit_nodes: std::collections::BTreeSet<usize> =
            events.iter().map(|&(n, _, _)| n).collect();
        let expect: std::collections::BTreeSet<usize> = drawn_chassis
            .iter()
            .flat_map(|c| (c * 18)..(c * 18 + 18))
            .collect();
        assert_eq!(hit_nodes, expect);
        // Both suffixes compose, in either parse order, canonical label out.
        let both = FaultPlan::parse("2x300@11:chassis:weibull=1.5").unwrap();
        assert_eq!(both.label(), "2x300@11:weibull=1.5:chassis");
        assert_eq!(FaultPlan::parse(&both.label()).unwrap(), both);
        assert_eq!(both, base_plan_with_both());
        // A flat topology (nodes_per_chassis = 1) degrades to single nodes.
        assert_eq!(plan.events(90, 1, 18_000).len(), 2);
    }

    fn base_plan_with_both() -> FaultPlan {
        FaultPlan::new(2, 300, 11).with_weibull(1.5).with_chassis()
    }

    #[test]
    fn scenario_fault_labels() {
        let s = Scenario::baseline().with_faults(FaultPlan::new(2, 300, 11));
        assert_eq!(s.fault_label(), "2x300@11");
        assert_eq!(Scenario::baseline().fault_label(), "-");
    }

    #[test]
    fn builders() {
        let s = Scenario::scheduled(
            PowercapPolicy::Mix,
            CapSchedule::uniform(&[TimeWindow::with_duration(1000, 2000)], 0.4),
        )
        .with_grouping(GroupingStrategy::Scattered)
        .with_decision_rule(DecisionRule::WorkMaximizing)
        .with_kill_on_violation()
        .with_per_application_degradation();
        assert_eq!(s.window().unwrap().start, 1000);
        assert_eq!(s.window().unwrap().duration(), 2000);
        assert_eq!(s.grouping, GroupingStrategy::Scattered);
        assert_eq!(s.decision_rule, DecisionRule::WorkMaximizing);
        assert!(s.kill_on_violation);
        assert!(s.per_application_degradation);
    }
}
