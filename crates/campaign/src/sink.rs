//! Result sinks: CSV and JSON renderers plus directory writers.
//!
//! The executor streams every row into the partitioned
//! [`ResultStore`](crate::store::ResultStore); [`CsvSink`] and
//! [`JsonSink`] render the index-sorted rows it reads back, and the
//! summaries folded from them, into `cells.*`/`summary.*`.
//!
//! The renderers are hand-rolled (the workspace has no serialization
//! dependency), which makes the byte layout fully explicit — a requirement
//! for the campaign's "byte-identical across thread counts" guarantee.
//! Each file is a list of [`Column`]s from the one table next to
//! [`CellRow`], printed by one field writer per format: floats at six
//! decimals, and non-finite values (an empty interval's mean wait, say) as
//! empty CSV fields and JSON `null`s. The `schedule`/`faults` columns
//! appear only when a row of the file carries a cap-schedule or
//! fault-plan label.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::agg::{CellRow, Column, Field, MetricSummary, SummaryRow, SUMMARY_KEY, SUMMARY_METRICS};

/// Decimal places used for every floating-point column.
const FLOAT_PRECISION: usize = 6;

/// The statistics of each summary metric, in render order.
const STATS: [&str; 4] = ["mean", "min", "max", "stddev"];

fn stats(m: &MetricSummary) -> [f64; 4] {
    [m.mean, m.min, m.max, m.stddev]
}

/// A field as every rendered file prints it: floats at six decimals, and
/// an empty CSV field or a JSON `null` for a non-finite float or an absent
/// seed.
pub(crate) fn fixed(field: Field, json: bool) -> String {
    match field {
        Field::Int(v) => v.to_string(),
        Field::Seed(Some(s)) => s.to_string(),
        Field::Float(v) if v.is_finite() => format!("{v:.FLOAT_PRECISION$}"),
        Field::Seed(None) | Field::Float(_) if json => "null".to_string(),
        Field::Seed(None) | Field::Float(_) => String::new(),
        Field::Label(s) if json => json_string(s),
        Field::Label(s) => csv_field(s),
    }
}

/// `columns` without the optional labels unless `labelled`.
pub(crate) fn shown(columns: &[Column], labelled: bool) -> Vec<Column> {
    columns
        .iter()
        .copied()
        .filter(|c| labelled || !c.is_optional_label())
        .collect()
}

/// The names of `columns`, as header fields.
pub(crate) fn header(columns: &[Column]) -> Vec<String> {
    columns.iter().map(|c| c.name().to_string()).collect()
}

/// A CSV file: the header line, then one line per row.
pub(crate) fn csv(header: Vec<String>, rows: impl Iterator<Item = Vec<String>>) -> String {
    let mut out = header.join(",");
    out.push('\n');
    for fields in rows {
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

/// A JSON array of one object per row, one line each.
fn json<'a>(rows: impl ExactSizeIterator<Item = Vec<(&'a str, String)>>) -> String {
    let n = rows.len();
    let mut out = String::from("[\n");
    for (i, fields) in rows.enumerate() {
        let fields: Vec<String> = fields
            .iter()
            .map(|(key, value)| format!("\"{key}\": {value}"))
            .collect();
        let comma = if i + 1 == n { "" } else { "," };
        out.push_str(&format!("  {{{}}}{comma}\n", fields.join(", ")));
    }
    out.push_str("]\n");
    out
}

/// Quote a CSV field if it contains a separator, quote or newline.
pub(crate) fn csv_field(raw: &str) -> String {
    if raw.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", raw.replace('"', "\"\""))
    } else {
        raw.to_string()
    }
}

/// Split one CSV line into fields, undoing [`csv_field`] quoting.
///
/// Rejects malformed quoting (an unterminated quoted field or a stray quote
/// mid-field) — the store loader uses that to detect rows torn by a crash.
pub(crate) fn split_csv_line(line: &str) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    loop {
        match chars.peek() {
            Some('"') => {
                chars.next();
                loop {
                    match chars.next() {
                        Some('"') if chars.peek() == Some(&'"') => {
                            chars.next();
                            field.push('"');
                        }
                        Some('"') => break,
                        Some(c) => field.push(c),
                        None => return Err("unterminated quoted CSV field".into()),
                    }
                }
                match chars.next() {
                    None => {
                        fields.push(std::mem::take(&mut field));
                        return Ok(fields);
                    }
                    Some(',') => fields.push(std::mem::take(&mut field)),
                    Some(c) => return Err(format!("unexpected '{c}' after closing quote")),
                }
            }
            _ => match chars.next() {
                None => {
                    fields.push(field);
                    return Ok(fields);
                }
                Some(',') => fields.push(std::mem::take(&mut field)),
                Some('"') => return Err("stray quote inside unquoted CSV field".into()),
                Some(c) => field.push(c),
            },
        }
    }
}

/// Escape a JSON string (the labels here are ASCII, but stay correct).
fn json_string(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 2);
    out.push('"');
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `cells.*` columns: the whole table, labels only when a row carries
/// them.
fn cell_columns(rows: &[CellRow]) -> Vec<Column> {
    shown(&Column::ALL, rows.iter().any(CellRow::is_labelled))
}

/// The `summary.*` key columns, labels only when a group carries them.
fn summary_key(summaries: &[SummaryRow]) -> Vec<Column> {
    shown(&SUMMARY_KEY, summaries.iter().any(SummaryRow::is_labelled))
}

/// Render the per-cell rows as CSV (with header and trailing newline).
pub fn render_cells_csv(rows: &[CellRow]) -> String {
    let columns = cell_columns(rows);
    csv(
        header(&columns),
        rows.iter()
            .map(|r| columns.iter().map(|&c| fixed(r.field(c), false)).collect()),
    )
}

/// Render the across-seed summaries as CSV (with header and trailing
/// newline).
pub fn render_summary_csv(summaries: &[SummaryRow]) -> String {
    let key = summary_key(summaries);
    let mut names = header(&key);
    names.push("replications".into());
    for m in SUMMARY_METRICS {
        names.extend(STATS.map(|stat| format!("{}_{stat}", m.name())));
    }
    csv(
        names,
        summaries.iter().map(|s| {
            let mut fields: Vec<String> =
                key.iter().map(|&c| fixed(s.key_field(c), false)).collect();
            fields.push(s.replications.to_string());
            for m in SUMMARY_METRICS {
                fields.extend(stats(s.metric(m)).map(|v| fixed(Field::Float(v), false)));
            }
            fields
        }),
    )
}

/// Render the per-cell rows as a JSON array (pretty, two-space indent).
pub fn render_cells_json(rows: &[CellRow]) -> String {
    let columns = cell_columns(rows);
    json(rows.iter().map(|r| {
        columns
            .iter()
            .map(|&c| (c.name(), fixed(r.field(c), true)))
            .collect()
    }))
}

/// Render the across-seed summaries as a JSON array.
pub fn render_summary_json(summaries: &[SummaryRow]) -> String {
    let key = summary_key(summaries);
    json(summaries.iter().map(|s| {
        let mut fields: Vec<(&str, String)> = key
            .iter()
            .map(|&c| (c.name(), fixed(s.key_field(c), true)))
            .collect();
        fields.push(("replications", s.replications.to_string()));
        for m in SUMMARY_METRICS {
            let values = STATS
                .iter()
                .zip(stats(s.metric(m)))
                .map(|(stat, v)| format!("\"{stat}\": {}", fixed(Field::Float(v), true)));
            fields.push((
                m.name(),
                format!("{{{}}}", values.collect::<Vec<_>>().join(", ")),
            ));
        }
        fields
    }))
}

/// Render the across-seed summaries as the aligned table `campaign` and
/// `campaign report` print on stdout.
///
/// Racks, workload, load, scenario and window always show. Grouping and
/// decision rule show when the groups hold more than one value of them,
/// and schedule and faults when a group carries a label (the rule of the
/// other renders), each as wide as its widest value. A table of one
/// grouping, one rule and no labels keeps the bytes it had before those
/// columns existed. Labels print with their control characters escaped (a
/// newline as `\n`), so every group stays on one line.
pub fn render_summary_table(summaries: &[SummaryRow]) -> String {
    let text = |s: &SummaryRow, c| match s.key_field(c) {
        Field::Int(v) => v.to_string(),
        Field::Float(v) if v.is_nan() => "-".to_string(),
        Field::Float(v) => format!("{v:.2}"),
        Field::Label(l) => {
            let mut cell = String::new();
            for ch in l.chars() {
                if ch.is_control() {
                    cell.extend(ch.escape_default());
                } else {
                    cell.push(ch);
                }
            }
            cell
        }
        Field::Seed(_) => unreachable!("the seed is not a summary key column"),
    };
    let shown = |c: Column| match c {
        Column::Grouping | Column::DecisionRule => summaries
            .iter()
            .any(|s| !s.key_field(c).same_bits(summaries[0].key_field(c))),
        _ => summaries.iter().any(SummaryRow::is_labelled),
    };
    let mut columns = vec![
        (Column::Racks, 6),
        (Column::Workload, 11),
        (Column::LoadFactor, 5),
        (Column::Scenario, 12),
        (Column::Window, 20),
    ];
    let mut out = String::from("racks  workload    load  scenario     window               ");
    for c in [
        Column::Grouping,
        Column::DecisionRule,
        Column::Schedule,
        Column::Faults,
    ] {
        if shown(c) {
            let widths = summaries.iter().map(|s| text(s, c).chars().count());
            let width = widths.fold(c.name().len(), usize::max);
            out.push_str(&format!("{:<width$} ", c.name()));
            columns.push((c, width));
        }
    }
    out.push_str("n   launched (mean±sd)   energy   work     wait(s)\n");
    for s in summaries {
        for &(c, width) in &columns {
            out.push_str(&format!("{:<width$} ", text(s, c)));
        }
        let launched = s.metric(Column::LaunchedJobs);
        out.push_str(&format!(
            "{:>3} {:>10.1} ±{:<7.1} {:>7.3} {:>7.3} {:>9.0}\n",
            s.replications,
            launched.mean,
            launched.stddev,
            s.metric(Column::EnergyNormalized).mean,
            s.metric(Column::WorkNormalized).mean,
            s.metric(Column::MeanWaitSeconds).mean,
        ));
    }
    out
}

fn write_into(dir: &Path, name: &str, content: &str) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(name);
    fs::write(&path, content)?;
    Ok(path)
}

/// Writes `cells.csv` and `summary.csv` into a results directory.
#[derive(Debug, Clone)]
pub struct CsvSink {
    dir: PathBuf,
}

impl CsvSink {
    /// A CSV sink rooted at `dir` (created on first write).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CsvSink { dir: dir.into() }
    }

    /// Render the rows and summaries; returns the paths written.
    pub fn write(
        &mut self,
        rows: &[CellRow],
        summaries: &[SummaryRow],
    ) -> io::Result<Vec<PathBuf>> {
        Ok(vec![
            write_into(&self.dir, "cells.csv", &render_cells_csv(rows))?,
            write_into(&self.dir, "summary.csv", &render_summary_csv(summaries))?,
        ])
    }
}

/// Writes `cells.json` and `summary.json` into a results directory.
#[derive(Debug, Clone)]
pub struct JsonSink {
    dir: PathBuf,
}

impl JsonSink {
    /// A JSON sink rooted at `dir` (created on first write).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        JsonSink { dir: dir.into() }
    }

    /// Render the rows and summaries; returns the paths written.
    pub fn write(
        &mut self,
        rows: &[CellRow],
        summaries: &[SummaryRow],
    ) -> io::Result<Vec<PathBuf>> {
        Ok(vec![
            write_into(&self.dir, "cells.json", &render_cells_json(rows))?,
            write_into(&self.dir, "summary.json", &render_summary_json(summaries))?,
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<CellRow> {
        vec![CellRow {
            index: 0,
            racks: 1,
            workload: "medianjob".into(),
            seed: Some(7),
            load_factor: 1.8,
            scenario: "60%/SHUT".into(),
            window: "7200+3600".into(),
            policy: "shut".into(),
            cap_percent: 60.0,
            grouping: "grouped".into(),
            decision_rule: "paper-rho".into(),
            schedule: "-".into(),
            faults: "-".into(),
            launched_jobs: 12,
            completed_jobs: 10,
            killed_jobs: 0,
            pending_jobs: 2,
            work_core_seconds: 123.456789,
            energy_joules: 9.875,
            energy_normalized: 0.5,
            launched_jobs_normalized: 0.25,
            work_normalized: 0.125,
            mean_wait_seconds: f64::NAN,
            peak_power_watts: 1000.0,
        }]
    }

    #[test]
    fn csv_has_header_and_one_line_per_row() {
        let csv = render_cells_csv(&rows());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("index,racks,workload,seed,load_factor,scenario,window"));
        assert!(lines[1].starts_with("0,1,medianjob,7,1.800000,60%/SHUT,7200+3600,shut,60.000000"));
        assert!(lines[1].contains("123.456789"));
        // NaN mean wait renders as an empty field, keeping the column count.
        assert_eq!(lines[1].split(',').count(), lines[0].split(',').count());
        assert!(lines[1].contains(",,"));
    }

    #[test]
    fn csv_quotes_separator_carrying_fields() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn csv_split_undoes_csv_field_quoting() {
        for raw in ["plain", "a,b", "say \"hi\"", "", "trail,", "\"x\",y\nz"] {
            let line = format!("{},{},end", csv_field(raw), csv_field(raw));
            let fields = split_csv_line(&line).unwrap();
            assert_eq!(fields, [raw, raw, "end"], "round-trip of {raw:?}");
        }
        assert_eq!(split_csv_line("a,,c").unwrap(), ["a", "", "c"]);
        assert_eq!(split_csv_line("").unwrap(), [""]);
        assert!(split_csv_line("\"unterminated").is_err());
        assert!(split_csv_line("\"x\"tail,y").is_err());
        assert!(split_csv_line("mid\"quote").is_err());
    }

    #[test]
    fn json_is_well_formed_and_null_for_nan() {
        let json = render_cells_json(&rows());
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains("\"mean_wait_seconds\": null"));
        assert!(json.contains("\"scenario\": \"60%/SHUT\""));
        // Balanced braces and a single object.
        assert_eq!(json.matches('{').count(), 1);
        assert_eq!(json.matches('}').count(), 1);
    }

    #[test]
    fn json_escapes_control_characters() {
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_string("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_string("a\nb"), "\"a\\nb\"");
        assert_eq!(json_string("a\u{1}b"), "\"a\\u0001b\"");
    }

    #[test]
    fn summary_renderers_cover_every_metric_block() {
        // Three seeds of one group, launching 8, 10 and 12 jobs.
        let rows: Vec<CellRow> = [8, 10, 12]
            .into_iter()
            .enumerate()
            .map(|(i, launched)| CellRow {
                index: i,
                seed: Some(7 + i as u64),
                launched_jobs: launched,
                ..rows()[0].clone()
            })
            .collect();
        let summaries = crate::agg::summarize(&rows);
        assert_eq!(summaries.len(), 1);
        let csv = render_summary_csv(&summaries);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0].split(',').count(), lines[1].split(',').count());
        assert!(lines[1].starts_with(
            "1,medianjob,1.800000,60%/SHUT,7200+3600,60.000000,grouped,paper-rho,3,10.000000"
        ));
        let json = render_summary_json(&summaries);
        assert!(json.contains("\"launched_jobs\": {\"mean\": 10.000000"));
        assert!(json.contains("\"replications\": 3"));
    }

    #[test]
    fn label_columns_appear_only_for_labelled_rows() {
        // A label-free render keeps the pre-refactor header and column
        // count exactly.
        let legacy = render_cells_csv(&rows());
        assert!(legacy.starts_with(
            "index,racks,workload,seed,load_factor,scenario,window,\
                                    policy,cap_percent,grouping,decision_rule,launched_jobs,"
        ));
        assert!(!legacy.contains("schedule"));
        // One labelled row switches both header and rows to the extended
        // layout, with "-" filled for label-free rows.
        let mut labelled = rows();
        labelled.push({
            let mut r = labelled[0].clone();
            r.index = 1;
            r.scenario = "SCHED/SHUT".into();
            r.schedule = "0+7200@80".into();
            r.faults = "3x600@7".into();
            r
        });
        let csv = render_cells_csv(&labelled);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with(
            "index,racks,workload,seed,load_factor,scenario,window,\
                                      policy,cap_percent,grouping,decision_rule,schedule,faults,\
                                      launched_jobs,"
        ));
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), lines[0].split(',').count());
        }
        assert!(lines[1].contains(",paper-rho,-,-,"));
        assert!(lines[2].contains(",paper-rho,0+7200@80,3x600@7,"));
        // JSON mirrors the conditional keys.
        let json = render_cells_json(&labelled);
        assert!(json.contains("\"schedule\": \"0+7200@80\""));
        assert!(json.contains("\"faults\": \"-\""));
        assert!(!render_cells_json(&rows()).contains("\"schedule\""));
        // Summaries follow the same rule.
        let summaries = crate::agg::summarize(&labelled);
        let sum_csv = render_summary_csv(&summaries);
        assert!(sum_csv.starts_with(
            "racks,workload,load_factor,scenario,window,cap_percent,\
                                     grouping,decision_rule,schedule,faults,replications,"
        ));
        assert!(sum_csv.contains(",0+7200@80,3x600@7,"));
        assert!(render_summary_json(&summaries).contains("\"schedule\": \"0+7200@80\""));
    }

    #[test]
    fn summary_table_escapes_control_characters_in_labels() {
        let labelled = |index, workload: &str, schedule: &str, faults: &str| CellRow {
            index,
            workload: workload.into(),
            schedule: schedule.into(),
            faults: faults.into(),
            ..rows()[0].clone()
        };
        let table = render_summary_table(&crate::agg::summarize(&[
            labelled(0, "multi\nline", "-", "-"),
            labelled(1, "cr\rlf", "a\tb", "-"),
            labelled(2, "medianjob", "-", "3x600@7\r\n"),
        ]));
        let lines: Vec<&str> = table.split('\n').filter(|l| !l.is_empty()).collect();
        assert_eq!(lines.len(), 1 + 3, "{table}");
        assert!(!table.contains(['\r', '\t']), "{table:?}");
        assert!(lines[1].starts_with("1      multi\\nline "), "{table}");
        assert!(
            lines[2].contains(" cr\\rlf ") && lines[2].contains(" a\\tb "),
            "{table}"
        );
        assert!(lines[3].contains(" 3x600@7\\r\\n "), "{table}");
        // The columns after the labels line up: every group's line is as
        // wide as the others.
        let widths: Vec<usize> = lines[1..].iter().map(|l| l.chars().count()).collect();
        assert!(widths.iter().all(|&w| w == widths[0]), "{table}");
    }

    #[test]
    fn summary_table_shows_the_axes_that_split_groups() {
        // One grouping, one rule and no labels: the table's first layout.
        let table = render_summary_table(&crate::agg::summarize(&rows()));
        assert_eq!(
            table,
            "racks  workload    load  scenario     window               n   \
             launched (mean±sd)   energy   work     wait(s)\n\
             1      medianjob   1.80  60%/SHUT     7200+3600              1       12.0 ±0.0    \
             \x20  0.500   0.125       NaN\n"
        );
        // A second grouping adds its column; the one rule adds none.
        let mut split = rows();
        split.push(CellRow {
            index: 1,
            grouping: "scattered".into(),
            ..rows()[0].clone()
        });
        let table = render_summary_table(&crate::agg::summarize(&split));
        assert!(
            table.starts_with(
                "racks  workload    load  scenario     window               grouping  n   "
            ),
            "{table}"
        );
        assert!(
            table.contains(" 7200+3600            scattered   1 "),
            "{table}"
        );
        // A second rule adds its column, and a label the schedule and
        // fault columns.
        split[1].decision_rule = "work-max".into();
        split[1].faults = "3x600@7".into();
        let table = render_summary_table(&crate::agg::summarize(&split));
        assert!(
            table.starts_with(
                "racks  workload    load  scenario     window               \
                 grouping  decision_rule schedule faults  n   "
            ),
            "{table}"
        );
        assert!(
            table.contains(" grouped   paper-rho     -        -         1 "),
            "{table}"
        );
        assert!(
            table.contains(" scattered work-max      -        3x600@7   1 "),
            "{table}"
        );
    }

    #[test]
    fn sinks_write_into_the_results_directory() {
        let dir =
            std::env::temp_dir().join(format!("apc-campaign-sink-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let rows = rows();
        let summaries = crate::agg::summarize(&rows);
        let mut csv = CsvSink::new(&dir);
        let mut json = JsonSink::new(&dir);
        let mut written = csv.write(&rows, &summaries).unwrap();
        written.extend(json.write(&rows, &summaries).unwrap());
        assert_eq!(written.len(), 4);
        for path in &written {
            assert!(path.exists(), "{path:?} missing");
            assert!(!fs::read_to_string(path).unwrap().is_empty());
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
