//! A 24-hour operational scenario (the paper's Fig. 6): the grid operator
//! announces that only 40 % of the usual power will be available between
//! 11:30 and 12:30, and the site runs the MIX policy.
//!
//! The example prints the core-state and power time series around the cap
//! window, showing how the scheduler prepares for the window (jobs launched
//! at 2.0 GHz in advance, a grouped switch-off reservation) and how
//! utilisation recovers afterwards.
//!
//! Run with:
//! ```text
//! cargo run --release --example powercap_day
//! ```

use adaptive_powercap::prelude::*;
use adaptive_powercap::replay::figures::render_timeseries;

pub fn main() {
    let platform = Platform::curie_scaled(4);
    let trace = CurieTraceGenerator::new(7)
        .interval(IntervalKind::Day24h)
        .generate_for(&platform);
    println!(
        "Replaying a 24 h day on {} nodes with a 40 % powercap from 11:30 to 12:30 (MIX policy)\n",
        platform.total_nodes()
    );

    let harness = ReplayHarness::new(platform, trace);
    let duration = harness.trace().duration;
    let scenario = Scenario::paper(PowercapPolicy::Mix, 0.40, duration);
    let outcome = harness.run(&scenario);

    // Half-hourly time series, like the stacked plots of Fig. 6.
    println!("{}", render_timeseries(&outcome, duration, 1800));
    println!("{}", outcome.summary());

    // How many nodes did the offline phase switch off, and what did the
    // grouped selection save thanks to the power bonus?
    let powered_off: usize = outcome
        .log
        .events()
        .iter()
        .filter_map(|e| match &e.kind {
            SimEventKind::NodesPoweredOff { nodes } => Some(nodes.len()),
            _ => None,
        })
        .sum();
    println!("nodes switched off over the day (cumulative transitions): {powered_off}");
    for (window, cap) in scenario.reservations(harness.platform()) {
        println!(
            "peak power inside the window: {} (cap {})",
            outcome.power.peak_within(window.start, window.end),
            cap
        );
    }
}
