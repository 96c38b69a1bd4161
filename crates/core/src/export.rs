//! CSV export of evaluation results, so Fig. 14/15-style matrices and the
//! load sweeps can be re-plotted outside the CLI (`repro export --csv DIR`).
//!
//! Every cell type converts into one borrowed [`Row`], and `columns` is
//! the one ordered list of output columns: each declares its header beside
//! its value in a row. A new output quantity is one field of [`Row`] and
//! one column there. [`csv`] writes rows under that list.
//!
//! Per-class latency distributions serialize as five columns each
//! (`<class>_count, <class>_p50_us, <class>_p95_us, <class>_p99_us,
//! <class>_p999_us`); an empty class leaves its quantile columns blank
//! rather than fabricating a `0.0` tail, mirroring the CLI's `—` cells.

use crate::experiment::{
    ArrayCellStats, DeviceTail, Load, MatrixCell, OperatingPoint, QdSweepCell, RateSweepCell,
    RunReport,
};
use rr_sim::array::RedundancyStats;
use rr_sim::metrics::{GcStalls, LatencySummary};

/// One evaluation cell of any shape, borrowed: its coordinates, its
/// measured values, its per-queue slices and its array statistics. A
/// quantity the cell's shape does not measure is `None`.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Whether the workload is read-dominant; the matrix only.
    pub read_dominant: Option<bool>,
    /// Operating point.
    pub point: OperatingPoint,
    /// Mechanism name.
    pub mechanism: &'a str,
    /// The load the cell replayed under.
    pub load: Load,
    /// Host submission queues; the load sweeps only.
    pub queues: Option<u32>,
    /// Average response time over all requests, µs.
    pub avg_response_us: f64,
    /// Average response time normalized to Baseline; the matrix only.
    pub normalized: Option<f64>,
    /// Average retry steps per read; the matrix only.
    pub avg_retry_steps: Option<f64>,
    /// Throughput in thousands of IOPS; the load sweeps only.
    pub kiops: Option<f64>,
    /// Discrete simulator events the cell processed.
    pub events: u64,
    /// Read latency distribution (µs).
    pub reads: &'a LatencySummary,
    /// Write latency distribution (µs); the load sweeps only.
    pub writes: Option<&'a LatencySummary>,
    /// Latency of reads that needed ≥ 1 retry step (µs); the load sweeps
    /// only.
    pub retried_reads: Option<&'a LatencySummary>,
    /// Per-queue read latency distributions (empty in the matrix).
    pub per_queue_reads: &'a [LatencySummary],
    /// Per-queue GC-stall attribution (empty in the matrix).
    pub per_queue_gc: &'a [GcStalls],
    /// Array-level statistics when the cell ran on `devices > 1`.
    pub array: Option<&'a ArrayCellStats>,
}

impl<'a> From<&'a MatrixCell> for Row<'a> {
    fn from(c: &'a MatrixCell) -> Self {
        Row {
            workload: &c.workload,
            read_dominant: Some(c.read_dominant),
            point: c.point,
            mechanism: &c.mechanism,
            load: Load::Open,
            queues: None,
            avg_response_us: c.avg_response_us,
            normalized: Some(c.normalized),
            avg_retry_steps: Some(c.avg_retry_steps),
            kiops: None,
            events: c.events,
            reads: &c.read_latency,
            writes: None,
            retried_reads: None,
            per_queue_reads: &[],
            per_queue_gc: &[],
            array: c.array.as_ref(),
        }
    }
}

/// `From` for the two load sweeps' cells, which share every field but the
/// load's.
macro_rules! sweep_row {
    ($cell:ty, $load:ident, $field:ident) => {
        impl<'a> From<&'a $cell> for Row<'a> {
            fn from(c: &'a $cell) -> Self {
                Row {
                    workload: &c.workload,
                    read_dominant: None,
                    point: c.point,
                    mechanism: &c.mechanism,
                    load: Load::$load(c.$field),
                    queues: Some(c.queues),
                    avg_response_us: c.avg_response_us,
                    normalized: None,
                    avg_retry_steps: None,
                    kiops: Some(c.kiops),
                    events: c.events,
                    reads: &c.reads,
                    writes: Some(&c.writes),
                    retried_reads: Some(&c.retried_reads),
                    per_queue_reads: &c.per_queue_reads,
                    per_queue_gc: &c.per_queue_gc,
                    array: c.array.as_ref(),
                }
            }
        }
    };
}

sweep_row!(QdSweepCell, Qd, queue_depth);
sweep_row!(RateSweepCell, Rate, rate);

impl Row<'_> {
    /// The cell's redundancy attribution, when it ran with one.
    pub fn redundancy(&self) -> Option<&RedundancyStats> {
        self.array.and_then(|a| a.redundancy.as_ref())
    }
}

impl RunReport {
    /// Every cell as a [`Row`]: the matrix, then the QD sweep, then the rate
    /// sweep, each in cell order.
    pub fn rows(&self) -> Vec<Row<'_>> {
        let matrix = self.matrix.iter().map(Row::from);
        let qd = self.qd.iter().map(Row::from);
        matrix
            .chain(qd)
            .chain(self.rate.iter().map(Row::from))
            .collect()
    }
}

/// A column's value in a row; `None` leaves the cell blank.
type Value = Box<dyn Fn(&Row) -> Option<String>>;

/// One output column: its CSV header beside its value in a row.
struct Column {
    header: String,
    value: Value,
}

fn col(header: impl Into<String>, value: impl Fn(&Row) -> Option<String> + 'static) -> Column {
    Column {
        header: header.into(),
        value: Box::new(value),
    }
}

fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// The five columns of one latency class: its count, then its p50, p95,
/// p99 and p99.9 (µs), blank when the class is empty.
fn latency(
    class: &str,
    summary: for<'a> fn(&Row<'a>) -> Option<&'a LatencySummary>,
) -> [Column; 5] {
    let quantile = |name: &str, q: fn(&LatencySummary) -> Option<f64>| {
        col(format!("{class}_{name}"), move |r| {
            summary(r).and_then(q).map(f3)
        })
    };
    [
        col(format!("{class}_count"), move |r| {
            summary(r).map(|s| s.count.to_string())
        }),
        quantile("p50_us", |s| s.p50),
        quantile("p95_us", |s| s.p95),
        quantile("p99_us", |s| s.p99),
        quantile("p999_us", |s| s.p999),
    ]
}

/// The output columns of `rows`, in order; each column is declared once,
/// here. The first row's load picks the shape: the matrix, or a load sweep
/// keyed by `queue_depth` or `rate`. A sweep's per-queue group spans the
/// widest cell's queues. The array group (sized to the widest array) and
/// the redundancy group appear only when some row ran on an array or with
/// redundancy, so exports without them keep the earlier byte layout.
fn columns(rows: &[Row]) -> Vec<Column> {
    let Some(first) = rows.first() else {
        return Vec::new();
    };
    let workload = col("workload", |r| Some(r.workload.to_string()));
    let mechanism = col("mechanism", |r| Some(r.mechanism.to_string()));
    let pec = col("pec", |r| Some(r.point.pec.to_string()));
    let retention = col("retention_months", |r| {
        Some(r.point.retention_months.to_string())
    });
    let avg = col("avg_response_us", |r| Some(f3(r.avg_response_us)));
    let events = col("events", |r| Some(r.events.to_string()));
    let mut cols = if first.load == Load::Open {
        let mut cols = vec![
            workload,
            col("read_dominant", |r| r.read_dominant.map(|d| d.to_string())),
            pec,
            retention,
            mechanism,
            avg,
            col("normalized", |r| r.normalized.map(|v| format!("{v:.6}"))),
            col("avg_retry_steps", |r| r.avg_retry_steps.map(f3)),
            events,
        ];
        cols.extend(latency("read", |r| Some(r.reads)));
        cols
    } else {
        let load = match first.load {
            Load::Qd(_) => "queue_depth",
            _ => "rate",
        };
        let mut cols = vec![
            workload,
            mechanism,
            col(load, |r| r.load.level()),
            col("queues", |r| r.queues.map(|q| q.to_string())),
            pec,
            retention,
            avg,
            col("kiops", |r| r.kiops.map(f3)),
            events,
        ];
        cols.extend(latency("reads", |r| Some(r.reads)));
        cols.extend(latency("writes", |r| r.writes));
        cols.extend(latency("retried_reads", |r| r.retried_reads));
        let queues = rows.iter().filter_map(|r| r.queues).max().unwrap_or(1);
        cols.extend((0..queues as usize).map(|q| {
            col(format!("q{q}_reads_p99_us"), move |r| {
                r.per_queue_reads.get(q).and_then(|s| s.p99).map(f3)
            })
        }));
        for q in 0..queues as usize {
            let gc = |name: &str, value: fn(&GcStalls) -> String| {
                col(format!("q{q}_{name}"), move |r| {
                    r.per_queue_gc.get(q).map(value)
                })
            };
            cols.push(gc("gc_stalls", |g| g.stalls().to_string()));
            cols.push(gc("gc_stall_us", |g| f3(g.stall_us)));
        }
        cols
    };
    let width = rows
        .iter()
        .filter_map(|r| r.array)
        .map(|a| a.per_device.len())
        .max();
    if let Some(width) = width {
        let array = |header: &str, value: fn(&ArrayCellStats) -> Option<String>| {
            col(header, move |r| r.array.and_then(value))
        };
        cols.extend([
            array("devices", |a| Some(a.devices.to_string())),
            array("placement", |a| Some(a.placement.clone())),
            array("array_amp_p99", |a| a.amplification_p99.map(f3)),
            array("array_amp_p999", |a| a.amplification_p999.map(f3)),
            array("array_best_read_p999_us", |a| a.best_read_p999.map(f3)),
            array("array_median_read_p999_us", |a| a.median_read_p999.map(f3)),
            array("array_slowest_device", |a| {
                a.slowest_device.map(|d| d.to_string())
            }),
        ]);
        for d in 0..width {
            let device = |name: &str, value: fn(&DeviceTail) -> Option<String>| {
                col(format!("d{d}_{name}"), move |r| {
                    r.array.and_then(|a| a.per_device.get(d)).and_then(value)
                })
            };
            cols.extend([
                device("reads_p99_us", |t| t.reads.p99.map(f3)),
                device("reads_p999_us", |t| t.reads.p999.map(f3)),
                device("gc_stalls", |t| Some(t.gc.stalls().to_string())),
                device("gc_stall_us", |t| Some(f3(t.gc.stall_us))),
            ]);
        }
    }
    if rows.iter().any(|r| r.redundancy().is_some()) {
        let redundancy = |header: &str, value: fn(&RedundancyStats) -> Option<String>| {
            col(header, move |r| r.redundancy().and_then(value))
        };
        cols.extend([
            redundancy("redundancy", |s| Some(s.scheme.clone())),
            redundancy("failed_device", |s| s.failed_device.map(|d| d.to_string())),
            redundancy("wait_for_k_count", |s| Some(s.wait_for_k.count.to_string())),
            redundancy("wait_for_k_p50_us", |s| s.wait_for_k.p50.map(f3)),
            redundancy("wait_for_k_p99_us", |s| s.wait_for_k.p99.map(f3)),
            redundancy("wait_for_k_p999_us", |s| s.wait_for_k.p999.map(f3)),
            redundancy("rescued_reads", |s| Some(s.rescued_reads.to_string())),
            redundancy("rescued_saved_us", |s| Some(f3(s.rescued_saved_us))),
            redundancy("rebuild_reads", |s| {
                Some(s.rebuild_reads.iter().sum::<u64>().to_string())
            }),
        ]);
    }
    cols
}

/// `rows` as CSV under their `columns`: a header line, then one line per
/// row. Every row should share the first row's shape; no rows give an
/// empty string.
pub fn csv(rows: &[Row]) -> String {
    let cols = columns(rows);
    let line = |cells: Vec<String>| cells.join(",") + "\n";
    let mut out = String::new();
    if !cols.is_empty() {
        out += &line(cols.iter().map(|c| c.header.clone()).collect());
    }
    for r in rows {
        out += &line(
            cols.iter()
                .map(|c| (c.value)(r).unwrap_or_default())
                .collect(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run, ArraySetup, Mechanism, QueueSetup, RunSpec};
    use rr_sim::array::{PlacementPolicy, Redundancy};
    use rr_sim::config::{ArbPolicy, SsdConfig};
    use rr_sim::request::{HostRequest, IoOp};
    use rr_util::time::SimTime;
    use rr_workloads::trace::Trace;

    /// A workload of 40 single-page requests of one kind.
    fn trace(name: &str, op: IoOp) -> Trace {
        let requests = (0..40)
            .map(|i| HostRequest::new(SimTime::from_us(300 * i), op, i * 3, 1))
            .collect();
        Trace::new(name, requests, 1_000)
    }

    /// The CSV of one shape's cells.
    fn csv_of<'a, T>(cells: &'a [T]) -> String
    where
        Row<'a>: From<&'a T>,
    {
        csv(&cells.iter().map(Row::from).collect::<Vec<_>>())
    }

    fn tiny_trace(reads: usize) -> Trace {
        let requests = (0..reads)
            .map(|i| {
                let op = if i % 5 == 0 { IoOp::Write } else { IoOp::Read };
                HostRequest::new(
                    SimTime::from_us(300 * i as u64),
                    op,
                    (i as u64 * 7) % 2000,
                    1,
                )
            })
            .collect();
        Trace::new("t", requests, 4_000)
    }

    #[test]
    fn matrix_csv_has_one_row_per_cell_and_stable_columns() {
        let base = SsdConfig::scaled_for_tests();
        let traces = [(tiny_trace(40), true)];
        let spec = RunSpec::matrix(
            &base,
            &traces,
            &[OperatingPoint::new(2000.0, 6.0)],
            &[Mechanism::Baseline, Mechanism::PnAr2],
        );
        let cells = run(&spec, None).expect("valid spec").matrix;
        let csv = csv_of(&cells);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + cells.len());
        let cols = lines[0].split(',').count();
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
        }
        assert!(lines[0].starts_with("workload,read_dominant,pec"));
        assert!(lines[1].contains("Baseline"));
    }

    #[test]
    fn sweep_csvs_blank_out_empty_classes() {
        let base = SsdConfig::scaled_for_tests();
        // Read-only trace: the writes class must be blank, not 0.0.
        let requests = (0..30)
            .map(|i| HostRequest::new(SimTime::ZERO, IoOp::Read, i * 3, 1))
            .collect();
        let trace = Trace::new("ro", requests, 1_000);
        let point = OperatingPoint::new(0.0, 0.0);
        let traces = [trace];
        let spec = RunSpec::qd_sweep(&base, &traces, point, &[2], &[Mechanism::Baseline]);
        let qd = run(&spec, None).expect("valid spec").qd;
        let csv = csv_of(&qd);
        let row = csv.lines().nth(1).expect("one data row");
        // Five consecutive blank columns: writes count is 0 and the four
        // write quantiles are empty.
        assert!(row.contains(",0,,,,"), "writes class not blanked: {row}");
        let spec = RunSpec::rate_sweep(&base, &traces, point, &[2.0], &[Mechanism::Baseline]);
        let rate = run(&spec, None).expect("valid spec").rate;
        let csv = csv_of(&rate);
        assert_eq!(csv.lines().count(), 2);
        assert!(csv
            .lines()
            .nth(1)
            .expect("row")
            .starts_with("ro,Baseline,2,1,"));
    }

    #[test]
    fn array_sweeps_append_columns_and_legacy_stays_byte_identical() {
        let base = SsdConfig::scaled_for_tests();
        let traces = [tiny_trace(60)];
        let point = OperatingPoint::new(1000.0, 6.0);
        let spec = RunSpec::qd_sweep(&base, &traces, point, &[4], &[Mechanism::Baseline]);
        let legacy = run(&spec, None).expect("valid spec").qd;
        // Cells without array stats export the exact pre-array byte layout.
        let legacy_csv = csv_of(&legacy);
        assert!(!legacy_csv.contains("devices"), "{legacy_csv}");
        let spec = spec.with_array(ArraySetup::new(2, PlacementPolicy::RoundRobin));
        let cells = run(&spec, None).expect("valid spec").qd;
        let csv = csv_of(&cells);
        let header = csv.lines().next().expect("header");
        assert!(
            header.contains(",devices,placement,array_amp_p99"),
            "{header}"
        );
        assert!(header.contains("d1_gc_stall_us"), "{header}");
        let row = csv.lines().nth(1).expect("one data row");
        assert_eq!(
            row.split(',').count(),
            header.split(',').count(),
            "ragged row: {row}"
        );
        assert!(row.contains(",2,rr,"), "array summary missing: {row}");
    }

    #[test]
    fn sweep_csvs_carry_per_queue_p99_columns() {
        let base = SsdConfig::scaled_for_tests();
        let requests = (0..40)
            .map(|i| HostRequest::new(SimTime::ZERO, IoOp::Read, i * 3, 1))
            .collect();
        let traces = [Trace::new("mq", requests, 1_000)];
        let point = OperatingPoint::new(0.0, 0.0);
        let spec = RunSpec::qd_sweep(&base, &traces, point, &[4], &[Mechanism::Baseline])
            .with_front(QueueSetup::multi(2, ArbPolicy::WeightedRoundRobin));
        let cells = run(&spec, None).expect("valid spec").qd;
        let csv = csv_of(&cells);
        let header = csv.lines().next().expect("header");
        assert!(header.contains("queues"), "{header}");
        assert!(
            header.contains("q0_reads_p99_us,q1_reads_p99_us"),
            "{header}"
        );
        assert!(
            header.ends_with("q0_gc_stalls,q0_gc_stall_us,q1_gc_stalls,q1_gc_stall_us"),
            "{header}"
        );
        let row = csv.lines().nth(1).expect("one data row");
        let cols: Vec<&str> = row.split(',').collect();
        assert_eq!(cols.len(), header.split(',').count(), "ragged row: {row}");
        // Both queues completed reads, so both p99 columns are populated,
        // and the GC-stall columns parse as (count, µs) pairs.
        let tail = &cols[cols.len() - 6..];
        assert!(
            tail[0].parse::<f64>().is_ok() && tail[1].parse::<f64>().is_ok(),
            "per-queue p99 columns populated: {tail:?}"
        );
        assert!(
            tail[2].parse::<u64>().is_ok() && tail[3].parse::<f64>().is_ok(),
            "per-queue GC-stall columns populated: {tail:?}"
        );
    }

    /// Every shape × {single queue, two queues, 2-device array, replicate:2
    /// array}: the header and every row have one width, the groups match
    /// the setup, and an empty class stays blank rather than `0.0`.
    #[test]
    fn every_shape_and_setup_writes_a_rectangular_csv_with_only_its_groups() {
        let base = SsdConfig::scaled_for_tests();
        // A read-only and a write-only workload, so every shape has an
        // empty latency class.
        let (ro, wo) = (trace("ro", IoOp::Read), trace("wo", IoOp::Write));
        let matrix_traces = [(ro.clone(), true), (wo.clone(), false)];
        let sweep_traces = [ro, wo];
        let point = OperatingPoint::new(2000.0, 6.0);
        let mechanisms = [Mechanism::Baseline, Mechanism::PnAr2];
        let shapes = [
            RunSpec::matrix(&base, &matrix_traces, &[point], &mechanisms),
            RunSpec::qd_sweep(&base, &sweep_traces, point, &[4], &mechanisms),
            RunSpec::rate_sweep(&base, &sweep_traces, point, &[2.0], &mechanisms),
        ];
        let array = ArraySetup::new(2, PlacementPolicy::RoundRobin);
        let replicated = array.with_redundancy(Redundancy::Replicate { r: 2 });
        let two_queues = QueueSetup::multi(2, ArbPolicy::WeightedRoundRobin);
        let setups = [
            (None, None),
            (Some(two_queues), None),
            (None, Some(array)),
            (None, Some(replicated)),
        ];
        for shape in &shapes {
            for (front, array) in &setups {
                let mut spec = shape.clone();
                if let Some(front) = front {
                    spec = spec.with_front(front.clone());
                }
                if let Some(array) = *array {
                    spec = spec.with_array(array);
                }
                let queues = front.as_ref().map_or(1, |f| f.queues as usize);
                let on_array = array.is_some();
                let redundant = array.is_some_and(|a| a.redundancy != Redundancy::None);
                let report = run(&spec, None).expect("valid spec");
                let rows = report.rows();
                let text = csv(&rows);
                let lines: Vec<Vec<&str>> = text.lines().map(|l| l.split(',').collect()).collect();
                let header = &lines[0];
                let case = format!("{spec}: {}", header.join(","));
                assert_eq!(lines.len(), 1 + rows.len(), "{case}");
                let matrix = header[1] == "read_dominant";
                let width = if matrix { 14 } else { 24 + 3 * queues }
                    + if on_array { 7 + 4 * 2 } else { 0 }
                    + if redundant { 9 } else { 0 };
                assert_eq!(header.len(), width, "{case}");
                assert_eq!(header.contains(&"devices"), on_array, "{case}");
                assert_eq!(header.contains(&"redundancy"), redundant, "{case}");
                assert_eq!(
                    header.contains(&"q1_reads_p99_us"),
                    !matrix && queues == 2,
                    "{case}"
                );
                let mut empty_classes = 0;
                for line in &lines[1..] {
                    assert_eq!(line.len(), width, "ragged row {line:?} in {case}");
                    for (i, h) in header.iter().enumerate() {
                        let Some(class) = h.strip_suffix("_count") else {
                            continue;
                        };
                        if line[i] == "0" {
                            empty_classes += 1;
                            let quantile = format!("{class}_p");
                            for (j, q) in header.iter().enumerate() {
                                if q.starts_with(&quantile) {
                                    assert_eq!(line[j], "", "{q} in {case}");
                                }
                            }
                        }
                    }
                }
                assert!(empty_classes > 0, "no empty class in {case}");
            }
        }
    }
}
