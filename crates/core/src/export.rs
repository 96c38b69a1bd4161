//! CSV export of evaluation results, so Fig. 14/15-style matrices and the
//! load sweeps can be re-plotted outside the CLI (`repro export --csv DIR`).
//!
//! Per-class latency distributions serialize as five columns each
//! (`<class>_count, <class>_p50_us, <class>_p95_us, <class>_p99_us,
//! <class>_p999_us`); an empty class leaves its quantile columns blank
//! rather than fabricating a `0.0` tail, mirroring the CLI's `—` cells.

use crate::experiment::{ArrayCellStats, MatrixCell, QdSweepCell, RateSweepCell};
use rr_sim::metrics::{GcStalls, LatencySummary};
use std::fmt::Write as _;

fn opt(v: Option<f64>) -> String {
    v.map(|x| format!("{x:.3}")).unwrap_or_default()
}

/// The five per-class columns of one [`LatencySummary`].
fn latency_cols(s: &LatencySummary) -> String {
    format!(
        "{},{},{},{},{}",
        s.count,
        opt(s.p50),
        opt(s.p95),
        opt(s.p99),
        opt(s.p999)
    )
}

/// Header fragment matching [`latency_cols`] for a class prefix.
fn latency_header(class: &str) -> String {
    format!("{class}_count,{class}_p50_us,{class}_p95_us,{class}_p99_us,{class}_p999_us")
}

/// Header fragment for the per-host-queue read p99 columns, one per queue up
/// to the widest cell in the sweep (leading comma included).
fn per_queue_header(max_queues: usize) -> String {
    (0..max_queues)
        .map(|i| format!(",q{i}_reads_p99_us"))
        .collect()
}

/// The per-queue read p99 columns of one cell, blank-padded to `max_queues`
/// (leading comma included).
fn per_queue_cols(per_queue_reads: &[LatencySummary], max_queues: usize) -> String {
    (0..max_queues)
        .map(|i| format!(",{}", opt(per_queue_reads.get(i).and_then(|s| s.p99))))
        .collect()
}

/// Header fragment for the per-host-queue GC-stall columns (stall-event
/// count + total attributed stall µs per queue; leading comma included).
fn per_queue_gc_header(max_queues: usize) -> String {
    (0..max_queues)
        .map(|i| format!(",q{i}_gc_stalls,q{i}_gc_stall_us"))
        .collect()
}

/// The per-queue GC-stall columns of one cell, blank-padded to `max_queues`
/// (leading comma included) — a queue the cell does not have stays
/// distinguishable from one that measured zero stalls, mirroring
/// [`per_queue_cols`].
fn per_queue_gc_cols(per_queue_gc: &[GcStalls], max_queues: usize) -> String {
    (0..max_queues)
        .map(|i| match per_queue_gc.get(i) {
            Some(gc) => format!(",{},{:.3}", gc.stalls(), gc.stall_us),
            None => ",,".to_string(),
        })
        .collect()
}

/// How many array columns an export needs: `None` when no cell ran on an
/// array (legacy exports stay byte-identical), otherwise the widest device
/// count, so mixed exports blank-pad narrower cells.
fn array_width<'a>(arrays: impl Iterator<Item = Option<&'a ArrayCellStats>>) -> Option<usize> {
    arrays.flatten().map(|a| a.per_device.len()).max()
}

/// Header fragment for the array columns (leading comma included): the
/// array summary (device count, placement, tail amplification, slowest
/// device) followed by per-device read-tail and GC-stall columns. Empty
/// when `width` is `None` — exports without array cells keep the
/// pre-array byte layout.
fn array_header(width: Option<usize>) -> String {
    let Some(width) = width else {
        return String::new();
    };
    let mut h = String::from(
        ",devices,placement,array_amp_p99,array_amp_p999,\
         array_best_read_p999_us,array_median_read_p999_us,array_slowest_device",
    );
    for d in 0..width {
        write!(
            h,
            ",d{d}_reads_p99_us,d{d}_reads_p999_us,d{d}_gc_stalls,d{d}_gc_stall_us"
        )
        .expect("writing to a String cannot fail");
    }
    h
}

/// The array columns of one cell, blank for single-device cells in a mixed
/// export and blank-padded to `width` devices (leading comma included).
fn array_cols(array: Option<&ArrayCellStats>, width: Option<usize>) -> String {
    let Some(width) = width else {
        return String::new();
    };
    let mut s = match array {
        Some(a) => format!(
            ",{},{},{},{},{},{},{}",
            a.devices,
            a.placement,
            opt(a.amplification_p99),
            opt(a.amplification_p999),
            opt(a.best_read_p999),
            opt(a.median_read_p999),
            a.slowest_device.map(|d| d.to_string()).unwrap_or_default()
        ),
        None => ",,,,,,,".to_string(),
    };
    for d in 0..width {
        match array.and_then(|a| a.per_device.get(d)) {
            Some(t) => write!(
                s,
                ",{},{},{},{:.3}",
                opt(t.reads.p99),
                opt(t.reads.p999),
                t.gc.stalls(),
                t.gc.stall_us
            )
            .expect("writing to a String cannot fail"),
            None => s.push_str(",,,,"),
        }
    }
    s
}

/// Whether an export needs the redundancy columns: only when at least one
/// cell ran under `--redundancy`/`--fail-device`, so plain array (and
/// legacy) exports keep their byte layout.
fn redundancy_on<'a>(arrays: impl Iterator<Item = Option<&'a ArrayCellStats>>) -> bool {
    arrays.flatten().any(|a| a.redundancy.is_some())
}

/// Header fragment for the redundancy columns (leading comma included):
/// scheme, failed device, the wait-for-k completion tail, straggler
/// rescues, and the total rebuild-read fan-in. Empty when `on` is false.
fn redundancy_header(on: bool) -> String {
    if !on {
        return String::new();
    }
    ",redundancy,failed_device,wait_for_k_count,wait_for_k_p50_us,\
     wait_for_k_p99_us,wait_for_k_p999_us,rescued_reads,rescued_saved_us,\
     rebuild_reads"
        .to_string()
}

/// The redundancy columns of one cell, blank for non-redundant cells in a
/// mixed export (leading comma included).
fn redundancy_cols(array: Option<&ArrayCellStats>, on: bool) -> String {
    if !on {
        return String::new();
    }
    match array.and_then(|a| a.redundancy.as_ref()) {
        Some(r) => format!(
            ",{},{},{},{},{},{},{},{:.3},{}",
            r.scheme,
            r.failed_device.map(|d| d.to_string()).unwrap_or_default(),
            r.wait_for_k.count,
            opt(r.wait_for_k.p50),
            opt(r.wait_for_k.p99),
            opt(r.wait_for_k.p999),
            r.rescued_reads,
            r.rescued_saved_us,
            r.rebuild_reads.iter().sum::<u64>()
        ),
        None => ",,,,,,,,,".to_string(),
    }
}

/// Fig. 14/15-style matrix cells as CSV. Array runs (`--devices N`) append
/// the array summary and per-device columns; single-device exports keep the
/// pre-array byte layout.
pub fn matrix_csv(cells: &[MatrixCell]) -> String {
    let width = array_width(cells.iter().map(|c| c.array.as_ref()));
    let redundant = redundancy_on(cells.iter().map(|c| c.array.as_ref()));
    let mut out = format!(
        "workload,read_dominant,pec,retention_months,mechanism,\
         avg_response_us,normalized,avg_retry_steps,events,{}{}{}\n",
        latency_header("read"),
        array_header(width),
        redundancy_header(redundant)
    );
    for c in cells {
        writeln!(
            out,
            "{},{},{},{},{},{:.3},{:.6},{:.3},{},{}{}{}",
            c.workload,
            c.read_dominant,
            c.point.pec,
            c.point.retention_months,
            c.mechanism,
            c.avg_response_us,
            c.normalized,
            c.avg_retry_steps,
            c.events,
            latency_cols(&c.read_latency),
            array_cols(c.array.as_ref(), width),
            redundancy_cols(c.array.as_ref(), redundant)
        )
        .expect("writing to a String cannot fail");
    }
    out
}

/// Closed-loop queue-depth sweep cells as CSV. Multi-queue sweeps append
/// one `q{i}_reads_p99_us` column per host submission queue (blank-padded
/// when cells differ in queue count), followed by the per-queue
/// `q{i}_gc_stalls` / `q{i}_gc_stall_us` GC-attribution columns.
pub fn qd_sweep_csv(cells: &[QdSweepCell]) -> String {
    let max_queues = cells.iter().map(|c| c.queues as usize).max().unwrap_or(1);
    let width = array_width(cells.iter().map(|c| c.array.as_ref()));
    let redundant = redundancy_on(cells.iter().map(|c| c.array.as_ref()));
    let mut out = format!(
        "workload,mechanism,queue_depth,queues,pec,retention_months,\
         avg_response_us,kiops,events,{},{},{}{}{}{}{}\n",
        latency_header("reads"),
        latency_header("writes"),
        latency_header("retried_reads"),
        per_queue_header(max_queues),
        per_queue_gc_header(max_queues),
        array_header(width),
        redundancy_header(redundant)
    );
    for c in cells {
        writeln!(
            out,
            "{},{},{},{},{},{},{:.3},{:.3},{},{},{},{}{}{}{}{}",
            c.workload,
            c.mechanism,
            c.queue_depth,
            c.queues,
            c.point.pec,
            c.point.retention_months,
            c.avg_response_us,
            c.kiops,
            c.events,
            latency_cols(&c.reads),
            latency_cols(&c.writes),
            latency_cols(&c.retried_reads),
            per_queue_cols(&c.per_queue_reads, max_queues),
            per_queue_gc_cols(&c.per_queue_gc, max_queues),
            array_cols(c.array.as_ref(), width),
            redundancy_cols(c.array.as_ref(), redundant)
        )
        .expect("writing to a String cannot fail");
    }
    out
}

/// Open-loop rate sweep cells as CSV. Multi-queue sweeps append one
/// `q{i}_reads_p99_us` column per host submission queue (blank-padded when
/// cells differ in queue count), followed by the per-queue
/// `q{i}_gc_stalls` / `q{i}_gc_stall_us` GC-attribution columns.
pub fn rate_sweep_csv(cells: &[RateSweepCell]) -> String {
    let max_queues = cells.iter().map(|c| c.queues as usize).max().unwrap_or(1);
    let width = array_width(cells.iter().map(|c| c.array.as_ref()));
    let redundant = redundancy_on(cells.iter().map(|c| c.array.as_ref()));
    let mut out = format!(
        "workload,mechanism,rate,queues,pec,retention_months,\
         avg_response_us,kiops,events,{},{},{}{}{}{}{}\n",
        latency_header("reads"),
        latency_header("writes"),
        latency_header("retried_reads"),
        per_queue_header(max_queues),
        per_queue_gc_header(max_queues),
        array_header(width),
        redundancy_header(redundant)
    );
    for c in cells {
        writeln!(
            out,
            "{},{},{},{},{},{},{:.3},{:.3},{},{},{},{}{}{}{}{}",
            c.workload,
            c.mechanism,
            c.rate,
            c.queues,
            c.point.pec,
            c.point.retention_months,
            c.avg_response_us,
            c.kiops,
            c.events,
            latency_cols(&c.reads),
            latency_cols(&c.writes),
            latency_cols(&c.retried_reads),
            per_queue_cols(&c.per_queue_reads, max_queues),
            per_queue_gc_cols(&c.per_queue_gc, max_queues),
            array_cols(c.array.as_ref(), width),
            redundancy_cols(c.array.as_ref(), redundant)
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run, Mechanism, OperatingPoint, RunSpec};
    use rr_sim::config::SsdConfig;
    use rr_sim::request::{HostRequest, IoOp};
    use rr_util::time::SimTime;
    use rr_workloads::trace::Trace;

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
        let csv = matrix_csv(&cells);
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
        let csv = qd_sweep_csv(&qd);
        let row = csv.lines().nth(1).expect("one data row");
        // Five consecutive blank columns: writes count is 0 and the four
        // write quantiles are empty.
        assert!(row.contains(",0,,,,"), "writes class not blanked: {row}");
        let spec = RunSpec::rate_sweep(&base, &traces, point, &[2.0], &[Mechanism::Baseline]);
        let rate = run(&spec, None).expect("valid spec").rate;
        let csv = rate_sweep_csv(&rate);
        assert_eq!(csv.lines().count(), 2);
        assert!(csv
            .lines()
            .nth(1)
            .expect("row")
            .starts_with("ro,Baseline,2,1,"));
    }

    #[test]
    fn array_sweeps_append_columns_and_legacy_stays_byte_identical() {
        use crate::experiment::ArraySetup;
        use rr_sim::array::PlacementPolicy;

        let base = SsdConfig::scaled_for_tests();
        let traces = [tiny_trace(60)];
        let point = OperatingPoint::new(1000.0, 6.0);
        let spec = RunSpec::qd_sweep(&base, &traces, point, &[4], &[Mechanism::Baseline]);
        let legacy = run(&spec, None).expect("valid spec").qd;
        // Cells without array stats export the exact pre-array byte layout.
        let legacy_csv = qd_sweep_csv(&legacy);
        assert!(!legacy_csv.contains("devices"), "{legacy_csv}");
        let spec = spec.with_array(ArraySetup::new(2, PlacementPolicy::RoundRobin));
        let cells = run(&spec, None).expect("valid spec").qd;
        let csv = qd_sweep_csv(&cells);
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
        use crate::experiment::QueueSetup;
        use rr_sim::config::ArbPolicy;

        let base = SsdConfig::scaled_for_tests();
        let requests = (0..40)
            .map(|i| HostRequest::new(SimTime::ZERO, IoOp::Read, i * 3, 1))
            .collect();
        let traces = [Trace::new("mq", requests, 1_000)];
        let point = OperatingPoint::new(0.0, 0.0);
        let spec = RunSpec::qd_sweep(&base, &traces, point, &[4], &[Mechanism::Baseline])
            .with_front(QueueSetup::multi(2, ArbPolicy::WeightedRoundRobin));
        let cells = run(&spec, None).expect("valid spec").qd;
        let csv = qd_sweep_csv(&cells);
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
}
