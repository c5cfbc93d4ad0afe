//! Standard Workload Format (SWF) reader and writer.
//!
//! The Parallel Workloads Archive distributes the Curie trace the paper uses
//! (`CEA-Curie-2011-2.1-cln.swf`) in SWF: one line per job, 18
//! whitespace-separated integer fields, `;` comment lines. When that file is
//! available it can be parsed here and replayed instead of the synthetic
//! trace; the synthetic generator remains the default so the repository is
//! self-contained.
//!
//! Field mapping used (1-based SWF indices):
//!
//! | SWF field | meaning | [`TraceJob`] field |
//! |---|---|---|
//! | 1 | job number | `id` |
//! | 2 | submit time | `submit_time` |
//! | 4 | run time | `run_time` |
//! | 5 | allocated processors | `cores` |
//! | 8 | requested processors (fallback when field 5 is −1) | `cores` |
//! | 9 | requested time | `requested_time` |
//! | 12 | user id | `user` |

use crate::trace::{Trace, TraceJob};

/// Errors produced while parsing an SWF document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwfError {
    /// A data line had fewer than the 18 mandatory fields.
    TooFewFields {
        /// 1-based line number.
        line: usize,
        /// Number of fields found.
        found: usize,
    },
    /// A field is not a finite number, or does not fit the [`TraceJob`]
    /// field it fills (after truncation toward zero).
    BadField {
        /// 1-based line number.
        line: usize,
        /// 1-based field index.
        field: usize,
    },
}

impl std::fmt::Display for SwfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwfError::TooFewFields { line, found } => {
                write!(f, "line {line}: expected 18 fields, found {found}")
            }
            SwfError::BadField { line, field } => {
                write!(f, "line {line}: field {field} is not a number in range")
            }
        }
    }
}

impl std::error::Error for SwfError {}

/// Parse an SWF document into a [`Trace`].
///
/// Jobs with non-positive runtime or zero processors are skipped (the
/// convention for cancelled jobs in the archive). The trace duration is the
/// latest submission time observed.
///
/// Fractional values are truncated toward zero. A field that is not a
/// finite number, a negative job number, or a value too large for the
/// [`TraceJob`] field it fills is a [`SwfError::BadField`] naming its line
/// and field. Other negative values keep their SWF meaning of "unknown":
/// a negative submit time or user id reads as 0, and a negative run time
/// or processor count marks the job as cancelled.
pub fn parse_swf(input: &str) -> Result<Trace, SwfError> {
    let mut jobs = Vec::new();
    let mut max_submit = 0u64;
    for (idx, raw) in input.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 18 {
            return Err(SwfError::TooFewFields {
                line: line_no,
                found: fields.len(),
            });
        }
        let bad = |field: usize| SwfError::BadField {
            line: line_no,
            field,
        };
        // Field `i`, truncated toward zero, refused unless it is finite
        // and below `end` (one past the largest value its target holds).
        // The casts below are exact: every value is in `[0, end)` by then.
        let num = |i: usize, end: f64| match fields[i - 1].parse::<f64>() {
            Ok(v) if v.is_finite() && v.trunc() < end => Ok(v.trunc()),
            _ => Err(bad(i)),
        };
        const USIZE_END: f64 = usize::MAX as f64 + 1.0;
        const U64_END: f64 = u64::MAX as f64 + 1.0;
        const U32_END: f64 = u32::MAX as f64 + 1.0;
        let id = num(1, USIZE_END)?;
        if id < 0.0 {
            return Err(bad(1));
        }
        let id = id as usize;
        let submit = num(2, U64_END)?.max(0.0) as u64;
        let run_time = num(4, U64_END)?;
        let mut cores = num(5, U32_END)?;
        if cores <= 0.0 {
            cores = num(8, U32_END)?;
        }
        let requested_time = num(9, U64_END)?;
        let user = num(12, USIZE_END)?.max(0.0) as usize;
        if run_time <= 0.0 || cores <= 0.0 {
            continue;
        }
        let run_time = run_time as u64;
        max_submit = max_submit.max(submit);
        jobs.push(TraceJob {
            id,
            submit_time: submit,
            run_time,
            cores: cores as u32,
            requested_time: if requested_time > 0.0 {
                requested_time as u64
            } else {
                run_time
            },
            user,
            app_class: (id % 4) as u8,
        });
    }
    Ok(Trace::new(jobs, max_submit))
}

/// Read and parse an SWF file, rejecting traces with no replayable jobs.
///
/// This is the shared front door for `--swf PATH` flags: it folds the I/O
/// error, the parse error and the empty-trace case into one human-readable
/// message naming the offending file.
pub fn load_swf_file(path: &str) -> Result<Trace, String> {
    let raw =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read SWF file {path}: {e}"))?;
    let trace = parse_swf(&raw).map_err(|e| format!("cannot parse SWF file {path}: {e}"))?;
    if trace.is_empty() {
        return Err(format!("SWF file {path} contains no replayable jobs"));
    }
    Ok(trace)
}

/// Serialise a trace back to SWF (unknown fields are written as `-1`).
pub fn write_swf(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str("; SWF written by apc-workload\n");
    out.push_str(&format!("; MaxJobs: {}\n", trace.len()));
    for j in &trace.jobs {
        // 18 fields:  1 id, 2 submit, 3 wait, 4 run, 5 procs, 6 cpu, 7 mem,
        // 8 req procs, 9 req time, 10 req mem, 11 status, 12 user, 13 group,
        // 14 exe, 15 queue, 16 partition, 17 prev job, 18 think time.
        out.push_str(&format!(
            "{} {} -1 {} {} -1 -1 {} {} -1 1 {} -1 -1 -1 -1 -1 -1\n",
            j.id + 1,
            j.submit_time,
            j.run_time,
            j.cores,
            j.cores,
            j.requested_time,
            j.user,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
; Sample SWF extract
; UnixStartTime: 0
1 0 10 120 512 -1 -1 512 1440000 -1 1 7 1 1 1 1 -1 -1
2 30 5 60 16 -1 -1 16 86400 -1 1 3 1 1 1 1 -1 -1
3 60 0 -1 16 -1 -1 16 3600 -1 0 3 1 1 1 1 -1 -1
4 90 2 45 -1 -1 -1 32 7200 -1 1 9 1 1 1 1 -1 -1
";

    #[test]
    fn parses_jobs_and_skips_cancelled() {
        let t = parse_swf(SAMPLE).unwrap();
        // Job 3 has run_time -1 and is skipped.
        assert_eq!(t.len(), 3);
        let first = &t.jobs[0];
        assert_eq!(first.submit_time, 0);
        assert_eq!(first.run_time, 120);
        assert_eq!(first.cores, 512);
        assert_eq!(first.requested_time, 1_440_000);
        assert_eq!(first.user, 7);
        // Job 4 falls back to requested processors (field 8).
        let last = &t.jobs[2];
        assert_eq!(last.cores, 32);
    }

    #[test]
    fn comment_and_blank_lines_are_ignored() {
        let t = parse_swf("; just a comment\n\n;another\n").unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn errors_are_reported_with_line_numbers() {
        let err = parse_swf("1 2 3\n").unwrap_err();
        assert_eq!(err, SwfError::TooFewFields { line: 1, found: 3 });
        let bad = "1 0 10 x 512 -1 -1 512 1000 -1 1 7 1 1 1 1 -1 -1\n";
        let err = parse_swf(bad).unwrap_err();
        assert_eq!(err, SwfError::BadField { line: 1, field: 4 });
        assert!(format!("{err}").contains("field 4"));
    }

    /// Values the casts used to misread: wrapped into `u32`, saturated
    /// into `i64`, or read as 0 and dropped like a cancelled job.
    #[test]
    fn out_of_range_and_non_finite_fields_are_refused() {
        let line = |fields: &[(usize, &str)]| {
            let mut f = vec!["1", "0", "-1", "120", "16", "-1", "-1", "16", "3600"];
            f.extend(["-1", "1", "7", "1", "1", "1", "1", "-1", "-1"]);
            for &(i, v) in fields {
                f[i - 1] = v;
            }
            format!("; header\n{}\n", f.join(" "))
        };
        let cases: [(&[(usize, &str)], usize); 10] = [
            (&[(5, "5000000000")], 5),
            (&[(5, "NaN"), (8, "NaN")], 5),
            (&[(5, "-1"), (8, "NaN")], 8),
            (&[(5, "-1"), (8, "4294967296")], 8),
            (&[(4, "1e30")], 4),
            (&[(4, "inf")], 4),
            (&[(9, "-inf")], 9),
            (&[(2, "1.9e19")], 2),
            (&[(12, "1e20")], 12),
            (&[(1, "-1")], 1),
        ];
        for (fields, field) in cases {
            let err = parse_swf(&line(fields)).unwrap_err();
            assert_eq!(err, SwfError::BadField { line: 2, field }, "{fields:?}");
            assert!(format!("{err}").contains(&format!("line 2: field {field}")));
        }
        // The largest values that fit still parse, and fractions truncate.
        let t = parse_swf(&line(&[(5, "4294967295.9"), (2, "-5")])).unwrap();
        assert_eq!(t.jobs[0].cores, u32::MAX);
        assert_eq!(t.jobs[0].submit_time, 0);
        let t = parse_swf(&line(&[(4, "1e19"), (12, "-3")])).unwrap();
        assert_eq!(t.jobs[0].run_time, 10_000_000_000_000_000_000);
        assert_eq!(t.jobs[0].user, 0);
    }

    #[test]
    fn round_trip_through_writer() {
        let original = parse_swf(SAMPLE).unwrap();
        let written = write_swf(&original);
        let reparsed = parse_swf(&written).unwrap();
        assert_eq!(reparsed.len(), original.len());
        for (a, b) in original.jobs.iter().zip(reparsed.jobs.iter()) {
            assert_eq!(a.submit_time, b.submit_time);
            assert_eq!(a.run_time, b.run_time);
            assert_eq!(a.cores, b.cores);
            assert_eq!(a.requested_time, b.requested_time);
            assert_eq!(a.user, b.user);
        }
    }

    #[test]
    fn fractional_fields_are_accepted() {
        // Some archive traces carry fractional seconds; they are truncated.
        let line = "1 10.5 -1 99.9 16 -1 -1 16 3600 -1 1 2 1 1 1 1 -1 -1\n";
        let t = parse_swf(line).unwrap();
        assert_eq!(t.jobs[0].submit_time, 10);
        assert_eq!(t.jobs[0].run_time, 99);
    }
}
