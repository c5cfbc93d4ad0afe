//! Quickstart: replay a synthetic Curie interval under a 60 % powercap with
//! each policy and compare the outcomes.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use adaptive_powercap::prelude::*;

pub fn main() {
    // A Curie-like machine scaled to 4 racks (360 nodes) so the example runs
    // in a few seconds; pass `--full` logic lives in the experiments binary.
    let platform = Platform::curie_scaled(4);
    println!(
        "Platform: {} nodes, {} cores, max power {}",
        platform.total_nodes(),
        platform.total_cores(),
        platform.max_power()
    );

    // A 5-hour median workload interval, calibrated to the statistics the
    // paper reports for the 2012 Curie production trace.
    let trace = CurieTraceGenerator::new(2012)
        .interval(IntervalKind::MedianJob)
        .generate_for(&platform);
    let stats = TraceStats::compute(&trace, platform.total_cores());
    println!("Workload: {}\n", stats.summary());

    let harness = ReplayHarness::new(platform, trace);
    let duration = harness.trace().duration;

    // The paper's scenario: a one-hour reservation of 60 % of the total power
    // in the middle of the interval, under each policy.
    println!("--- 60 % powercap for one hour, per policy ---");
    let baseline = harness.run(&Scenario::baseline());
    println!("{}", baseline.summary());
    for policy in [
        PowercapPolicy::Shut,
        PowercapPolicy::Dvfs,
        PowercapPolicy::Mix,
    ] {
        let scenario = Scenario::paper(policy, 0.60, duration);
        let outcome = harness.run(&scenario);
        println!("{}", outcome.summary());
        for (window, cap) in scenario.reservations(harness.platform()) {
            let peak = outcome.power.peak_within(window.start, window.end);
            println!(
                "    peak power during the cap window: {} (cap {})",
                peak, cap
            );
        }
    }
}
