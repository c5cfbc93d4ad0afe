//! Small helpers shared by every workload: seed derivation, percentiles,
//! digests, and the process/host facts the report prints.

use std::path::Path;

/// SplitMix64 finaliser: derives independent sub-seeds from the run seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over `bytes`, continuing from `hash`.
pub fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The FNV-1a offset basis.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Linear-interpolated percentile (`q` in `[0, 1]`) of unsorted samples;
/// 0 for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when there is no base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of the regular files under `path` (recursively); 0 if absent.
pub fn tree_bytes(path: &Path) -> u64 {
    let Ok(meta) = std::fs::metadata(path) else {
        return 0;
    };
    if meta.is_file() {
        return meta.len();
    }
    std::fs::read_dir(path)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| tree_bytes(&e.path()))
                .sum()
        })
        .unwrap_or(0)
}

/// Commit the file system's pending metadata in `dir` (the removals that
/// ended the previous unit of work) before the next set-up is timed, so
/// the set-up's own fsyncs wait only for its own writes.
pub fn settle(dir: &Path) -> Result<(), String> {
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| format!("cannot sync {}: {e}", dir.display()))
}

/// Median duration, in ms, of one calibration block on the recording host
/// (see `README.md`) while it ran at its usual speed.
pub const CAL_REF_MS: f64 = 2.6;

/// One block of work owned by the benchmark, not the program: sort random
/// integers, then fold formatted keys into a hash map. Its duration tracks
/// the host's current speed; returns milliseconds.
fn calibration_block(salt: u64) -> f64 {
    let t = std::time::Instant::now();
    let mut v: Vec<u64> = (0..40_000).map(|i| mix(i ^ salt)).collect();
    v.sort_unstable();
    let mut keys: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
    for (i, x) in v.iter().enumerate().take(20_000) {
        *keys.entry(format!("k{}", x % 4099)).or_default() += i as u64;
    }
    std::hint::black_box(keys.len());
    t.elapsed().as_secs_f64() * 1e3
}

/// Calibration samples taken between units of work (campaign rounds,
/// passes over a query mix, set-ups), each turned into the host-speed
/// factor of the unit just measured.
///
/// On this shared host whole minutes run up to 1.7x slower than others.
/// Timed on the same vCPU as the work, the calibration block slows with
/// the program (over 120 s pinned: replay time varied with a coefficient
/// of variation of 0.22, its ratio to the calibration time of 0.07), so a
/// duration multiplied by its factor — *reference* time — stays steady
/// where wall time does not.
#[derive(Debug, Default)]
pub struct Calibration {
    previous: Vec<f64>,
    /// Every factor handed out, for the report.
    pub factors: Vec<f64>,
}

impl Calibration {
    /// Time five calibration blocks now and return the factor for the unit
    /// of work since the previous call: [`CAL_REF_MS`] over the median of
    /// the blocks that bracket it (the previous five and these five).
    pub fn factor(&mut self) -> f64 {
        let now: Vec<f64> = (0..5)
            .map(|i| calibration_block(self.factors.len() as u64 * 5 + i))
            .collect();
        let mut bracket = std::mem::replace(&mut self.previous, now.clone());
        bracket.extend(now);
        let f = CAL_REF_MS / percentile(&bracket, 0.5);
        self.factors.push(f);
        f
    }
}

/// Pin this process (and the threads it starts later) to the host's last
/// CPU with `taskset`; returns the CPU, or `None` when pinning failed.
///
/// The two vCPUs of the recording host run at different speeds that drift
/// independently (one timed loop: 15-22 ms on cpu0, 21-22 ms on cpu1), so
/// unpinned runs are bimodal by which vCPU the executor's worker thread
/// lands on, and a calibration block timed on another vCPU says nothing
/// about it. Pinned, the worker, the coordinator and the calibration share
/// one vCPU.
pub fn pin_to_last_cpu() -> Option<usize> {
    let cpu = std::thread::available_parallelism().map_or(1, |n| n.get()) - 1;
    let status = std::process::Command::new("taskset")
        .args([
            "-a",
            "-cp",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status();
    matches!(status, Ok(s) if s.success()).then_some(cpu)
}

/// CPU model, core count and last-level cache size of this host.
pub fn host_fingerprint() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':').map(|(_, v)| v.trim().to_string()))
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let llc = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!("{model}, nproc={nproc}, llc={llc}")
}
