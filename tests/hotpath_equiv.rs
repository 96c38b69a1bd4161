//! Hot-path equivalence suite: the paths that exist only for speed — one
//! arena carried across runs, warm starts from a device image, the matrix
//! and sweep runners — must be **semantics-neutral**. They may only change
//! wall-clock: a run's [`ssd_readretry::sim::metrics::SimReport`] must be
//! bit-identical to a fresh, cold, per-cell run, across workload families,
//! replay modes, and queue depths.

use ssd_readretry::core::experiment::{
    prepared_config, run_matrix_parallel_from, run_qd_sweep_queued_from,
};
use ssd_readretry::prelude::*;
use ssd_readretry::sim::metrics::SimReport;
use ssd_readretry::sim::replay::ReplayMode as Mode;

fn base_cfg() -> SsdConfig {
    SsdConfig::scaled_for_tests().with_seed(0xE9_BEEF)
}

fn workloads() -> Vec<Trace> {
    vec![
        MsrcWorkload::Mds1.synthesize(300, 11),
        YcsbWorkload::C.synthesize(300, 11),
    ]
}

/// The trace and mechanism a runner cell names.
fn cell_inputs<'t>(
    traces: &'t [Trace],
    mechanisms: &[Mechanism],
    workload: &str,
    mechanism: &str,
) -> (&'t Trace, Mechanism) {
    let trace = traces
        .iter()
        .find(|t| t.name == workload)
        .expect("cell names a known trace");
    let mechanism = mechanisms
        .iter()
        .copied()
        .find(|m| m.name() == mechanism)
        .expect("cell names a known mechanism");
    (trace, mechanism)
}

/// A cell's cold reference: a fresh [`Ssd::new`], built and preconditioned
/// from scratch (no image, no arena, no `Ftl::restore`), replaying `trace`
/// behind `queues`.
fn cold_start(
    base: &SsdConfig,
    point: OperatingPoint,
    mechanism: Mechanism,
    trace: &Trace,
    queues: &HostQueueConfig,
) -> SimReport {
    Ssd::new(
        prepared_config(base, point, mechanism.is_ideal()),
        mechanism.make_controller(&ReadTimingParamTable::default()),
        trace.footprint_pages,
    )
    .expect("valid configuration")
    .run_with_queues(&trace.requests, queues)
}

/// Asserts that every cell of a QD sweep over `traces` × `mechanisms` equals
/// its cold start behind the cell's front end, `front(queue_depth)`.
fn assert_qd_cells_match_cold_starts(
    cells: &[QdSweepCell],
    base: &SsdConfig,
    traces: &[Trace],
    mechanisms: &[Mechanism],
    front: impl Fn(u32) -> HostQueueConfig,
    what: &str,
) {
    for cell in cells {
        let (trace, mechanism) = cell_inputs(traces, mechanisms, &cell.workload, &cell.mechanism);
        let queues = front(cell.queue_depth);
        let r = cold_start(base, cell.point, mechanism, trace, &queues);
        let cold = QdSweepCell {
            workload: trace.name.clone(),
            mechanism: mechanism.name().to_string(),
            queue_depth: cell.queue_depth,
            point: cell.point,
            reads: r.read_latency,
            writes: r.write_latency,
            retried_reads: r.retried_read_latency,
            avg_response_us: r.avg_response_us(),
            kiops: r.kiops(),
            events: r.events_processed,
            queues: queues.queue_count() as u32,
            per_queue_reads: r.per_queue.iter().map(|q| q.reads).collect(),
            per_queue_gc: r.per_queue.iter().map(|q| q.gc).collect(),
            array: None,
        };
        assert_eq!(
            *cell, cold,
            "{what}: {} on {} at QD {} diverged from its cold start",
            cell.mechanism, cell.workload, cell.queue_depth
        );
    }
}

/// Asserts that every cell of a single-queue rate sweep over `traces` ×
/// `mechanisms` equals its cold start at the cell's rate.
fn assert_rate_cells_match_cold_starts(
    cells: &[RateSweepCell],
    base: &SsdConfig,
    traces: &[Trace],
    mechanisms: &[Mechanism],
    what: &str,
) {
    for cell in cells {
        let (trace, mechanism) = cell_inputs(traces, mechanisms, &cell.workload, &cell.mechanism);
        let queues = HostQueueConfig::single(Mode::open_loop_rate(cell.rate));
        let r = cold_start(base, cell.point, mechanism, trace, &queues);
        let cold = RateSweepCell {
            workload: trace.name.clone(),
            mechanism: mechanism.name().to_string(),
            rate: cell.rate,
            point: cell.point,
            reads: r.read_latency,
            writes: r.write_latency,
            retried_reads: r.retried_read_latency,
            avg_response_us: r.avg_response_us(),
            kiops: r.kiops(),
            events: r.events_processed,
            queues: 1,
            per_queue_reads: r.per_queue.iter().map(|q| q.reads).collect(),
            per_queue_gc: r.per_queue.iter().map(|q| q.gc).collect(),
            array: None,
        };
        assert_eq!(
            *cell, cold,
            "{what}: {} on {} at rate {} diverged from its cold start",
            cell.mechanism, cell.workload, cell.rate
        );
    }
}

/// Asserts that every cell of an open-loop matrix over `traces` ×
/// `mechanisms` equals its cold start, normalized to the cold start of
/// `Baseline` at the same (workload, point).
fn assert_matrix_cells_match_cold_starts(
    cells: &[MatrixCell],
    base: &SsdConfig,
    traces: &[(Trace, bool)],
    mechanisms: &[Mechanism],
    what: &str,
) {
    let plain: Vec<Trace> = traces.iter().map(|(t, _)| t.clone()).collect();
    let open = HostQueueConfig::single(Mode::OpenLoop);
    for cell in cells {
        let (trace, mechanism) = cell_inputs(&plain, mechanisms, &cell.workload, &cell.mechanism);
        let r = cold_start(base, cell.point, mechanism, trace, &open);
        let baseline = cold_start(base, cell.point, Mechanism::Baseline, trace, &open);
        let base_rt = baseline.avg_response_us();
        let cold = MatrixCell {
            workload: trace.name.clone(),
            read_dominant: traces.iter().any(|(t, rd)| *rd && t.name == trace.name),
            point: cell.point,
            mechanism: mechanism.name().to_string(),
            avg_response_us: r.avg_response_us(),
            normalized: if base_rt > 0.0 {
                r.avg_response_us() / base_rt
            } else {
                1.0
            },
            avg_retry_steps: r.avg_retry_steps(),
            read_latency: r.read_latency,
            events: r.events_processed,
            array: None,
        };
        assert_eq!(
            *cell, cold,
            "{what}: {} on {} at {} diverged from its cold start",
            cell.mechanism, cell.workload, cell.point
        );
    }
}

#[test]
fn arena_reuse_across_cells_matches_fresh_construction() {
    // One arena carried across different traces, footprints, mechanisms and
    // operating points — exactly what a matrix worker does — must produce
    // the same reports as building a fresh simulator per cell. The arena
    // also keeps every page's drawn process variation, keyed by seed and
    // geometry, so the cells replay under seed A, then B, then A again, and
    // last under A on the GC-stress geometry, where the same PPN names
    // another page: a memo kept across either change diverges.
    let rpt = ReadTimingParamTable::default();
    let mut arena = SimArena::new();
    let seed_a = base_cfg();
    let seed_b = base_cfg().with_seed(0xB0_5EED);
    let mut gc_stress = base_cfg();
    gc_stress.chip.blocks_per_plane = 16;
    gc_stress.chip.pages_per_block = 12;
    let cells: Vec<(Trace, Mechanism, OperatingPoint, Mode)> = vec![
        (
            MsrcWorkload::Mds1.synthesize(250, 5),
            Mechanism::Baseline,
            OperatingPoint::new(2000.0, 12.0),
            Mode::OpenLoop,
        ),
        (
            YcsbWorkload::C.synthesize(180, 5),
            Mechanism::PnAr2,
            OperatingPoint::new(1000.0, 6.0),
            Mode::closed_loop(8),
        ),
        (
            MsrcWorkload::Stg0.synthesize(220, 6),
            Mechanism::Pr2,
            OperatingPoint::new(2000.0, 6.0),
            Mode::open_loop_rate(2.0),
        ),
        (
            ssd_readretry::workloads::synth::gc_stress_trace(gc_stress.max_lpns(), 400),
            Mechanism::PnAr2,
            OperatingPoint::new(2000.0, 12.0),
            Mode::closed_loop(8),
        ),
    ];
    // The GC-stress trace again last: both geometries put plane 0's k-th
    // LPN at PPN k, which is block 0, page k on the test geometry but block
    // k / 12, page k % 12 on the GC-stress one.
    let runs = [&seed_a, &seed_b, &seed_a]
        .into_iter()
        .flat_map(|cfg| cells.iter().map(move |cell| (cfg, cell)))
        .chain([(&gc_stress, &cells[3])]);
    for (cfg, (trace, mechanism, point, mode)) in runs {
        let base =
            cfg.clone()
                .with_condition(ssd_readretry::flash::calibration::OperatingCondition::new(
                    point.pec,
                    point.retention_months,
                    30.0,
                ));
        let pooled = Ssd::run_pooled_queued_from(
            &mut arena,
            base.clone(),
            mechanism.make_controller(&rpt),
            trace.footprint_pages,
            &trace.requests,
            &HostQueueConfig::single(*mode),
            None,
        )
        .expect("valid configuration");
        let fresh = Ssd::new(base, mechanism.make_controller(&rpt), trace.footprint_pages)
            .expect("valid configuration")
            .run_with_queues(&trace.requests, &HostQueueConfig::single(*mode));
        assert_eq!(
            pooled,
            fresh,
            "arena run diverged for {} on {} under seed {:#x}, {} pages per block",
            mechanism.name(),
            trace.name,
            cfg.seed,
            cfg.chip.pages_per_block
        );
        // The lone per-queue entry of a single-queue front end mirrors the
        // aggregate classes.
        assert_eq!(fresh.per_queue.len(), 1);
        assert_eq!(fresh.per_queue[0].reads, fresh.read_latency);
        assert_eq!(fresh.per_queue[0].writes, fresh.write_latency);
        assert_eq!(fresh.per_queue[0].completed, fresh.requests_completed);
    }
}

#[test]
fn matrix_runner_matches_per_cell_fresh_runs() {
    // `run`'s shared-arena, shared-Arc-config matrix path must report
    // exactly what independent run_one calls report.
    let base = base_cfg();
    let traces = vec![
        (MsrcWorkload::Mds1.synthesize(200, 3), true),
        (YcsbWorkload::C.synthesize(150, 3), true),
    ];
    let points = [
        OperatingPoint::new(1000.0, 6.0),
        OperatingPoint::new(2000.0, 12.0),
    ];
    let mechanisms = [Mechanism::Baseline, Mechanism::PnAr2, Mechanism::NoRR];
    let spec = RunSpec::matrix(&base, &traces, &points, &mechanisms);
    let cells = run(&spec, None).expect("valid spec").matrix;
    let rpt = ReadTimingParamTable::default();
    for c in &cells {
        let (trace, _) = traces
            .iter()
            .find(|(t, _)| t.name == c.workload)
            .expect("cell names a known trace");
        let mechanism = mechanisms
            .iter()
            .copied()
            .find(|m| m.name() == c.mechanism)
            .expect("cell names a known mechanism");
        let report = run_one(&base, mechanism, c.point, trace, &rpt);
        assert_eq!(c.avg_response_us, report.avg_response_us());
        assert_eq!(c.read_latency, report.read_latency);
        assert_eq!(c.events, report.events_processed);
        assert!(c.events > 0, "a simulated cell must process events");
    }
}

#[test]
fn warm_started_qd_sweep_is_bit_identical_to_the_cold_start() {
    // The warm-start contract: forking a preconditioned device image across
    // sweep cells may only change wall-clock — every cell must match a
    // device built and preconditioned from scratch bit for bit, serial and
    // work-stealing alike.
    let base = base_cfg();
    let traces = workloads();
    let point = OperatingPoint::new(2000.0, 6.0);
    let mechanisms = [Mechanism::Baseline, Mechanism::PnAr2];
    let setup = QueueSetup::single();
    let depths = [1u32, 8];
    let bank = ImageBank::preconditioned(&base, traces.iter().map(|t| t.footprint_pages))
        .expect("valid configuration");
    let spec = RunSpec::qd_sweep(&base, &traces, point, &depths, &mechanisms);
    let unbanked = run(&spec, None).expect("valid spec").qd;
    assert_eq!(
        unbanked.len(),
        traces.len() * depths.len() * mechanisms.len()
    );
    assert_qd_cells_match_cold_starts(
        &unbanked,
        &base,
        &traces,
        &mechanisms,
        |qd| HostQueueConfig::single(Mode::closed_loop(qd)),
        "QD sweep without a bank",
    );
    for jobs in [1, 2] {
        let warm = run_qd_sweep_queued_from(
            &base,
            &traces,
            point,
            &depths,
            &mechanisms,
            &setup,
            jobs,
            &bank,
        )
        .expect("bank covers the sweep");
        assert_eq!(
            unbanked, warm,
            "warm-started QD sweep diverged at jobs = {jobs}"
        );
    }
}

#[test]
fn warm_started_rate_sweep_is_bit_identical_to_the_cold_start() {
    let base = base_cfg();
    let traces = workloads();
    let point = OperatingPoint::new(2000.0, 6.0);
    let mechanisms = [Mechanism::Baseline, Mechanism::PnAr2];
    let rates = [1.0, 2.0];
    let bank = ImageBank::preconditioned(&base, traces.iter().map(|t| t.footprint_pages))
        .expect("valid configuration");
    let spec = RunSpec::rate_sweep(&base, &traces, point, &rates, &mechanisms);
    let unbanked = run(&spec, None).expect("valid spec").rate;
    assert_eq!(
        unbanked.len(),
        traces.len() * rates.len() * mechanisms.len()
    );
    assert_rate_cells_match_cold_starts(
        &unbanked,
        &base,
        &traces,
        &mechanisms,
        "rate sweep without a bank",
    );
    for jobs in [1, 2] {
        let warm = run(&spec.clone().with_jobs(jobs), Some(&bank))
            .expect("bank covers the sweep")
            .rate;
        assert_eq!(
            unbanked, warm,
            "warm-started rate sweep diverged at jobs = {jobs}"
        );
    }
}

#[test]
fn warm_started_matrix_is_bit_identical_to_the_cold_start() {
    let base = base_cfg();
    let traces = vec![
        (MsrcWorkload::Mds1.synthesize(200, 3), true),
        (YcsbWorkload::C.synthesize(150, 3), true),
    ];
    let points = [
        OperatingPoint::new(1000.0, 6.0),
        OperatingPoint::new(2000.0, 12.0),
    ];
    let mechanisms = [Mechanism::Baseline, Mechanism::PnAr2, Mechanism::NoRR];
    let bank = ImageBank::preconditioned(&base, traces.iter().map(|(t, _)| t.footprint_pages))
        .expect("valid configuration");
    let spec = RunSpec::matrix(&base, &traces, &points, &mechanisms);
    let unbanked = run(&spec, None).expect("valid spec").matrix;
    assert_eq!(
        unbanked.len(),
        traces.len() * points.len() * mechanisms.len()
    );
    assert_matrix_cells_match_cold_starts(
        &unbanked,
        &base,
        &traces,
        &mechanisms,
        "matrix without a bank",
    );
    for jobs in [1, 2] {
        let warm = run_matrix_parallel_from(&base, &traces, &points, &mechanisms, jobs, &bank)
            .expect("bank covers the matrix");
        assert_eq!(
            unbanked, warm,
            "warm-started matrix diverged at jobs = {jobs}"
        );
    }
}

#[test]
fn warm_started_gc_stress_multi_queue_sweep_matches_the_cold_start() {
    // The acceptance case of the device-image work: the GC-stress sweep
    // under a 2-queue WRR front end, forked from an aged image, must match
    // a device built and preconditioned from scratch while actually
    // exercising garbage collection, whose erases touch the restored tables.
    let mut base = base_cfg().with_gc_policy(GcPolicy::ReadPreempt { budget: 2 });
    base.chip.blocks_per_plane = 16;
    base.chip.pages_per_block = 12;
    let trace = ssd_readretry::workloads::synth::gc_stress_trace(base.max_lpns(), 2_000);
    let traces = vec![trace];
    let point = OperatingPoint::new(2000.0, 6.0);
    let mechanisms = [Mechanism::Baseline, Mechanism::PnAr2];
    let setup = QueueSetup {
        queues: 2,
        arb: ssd_readretry::sim::config::ArbPolicy::WeightedRoundRobin,
        burst: 1,
        weights: Some(vec![2, 1]),
        window: None,
    };
    let bank = ImageBank::preconditioned(&base, traces.iter().map(|t| t.footprint_pages))
        .expect("valid configuration");
    let spec = RunSpec::qd_sweep(&base, &traces, point, &[16], &mechanisms).with_front(setup);
    // The runner's front end: the 2-queue setup gets the swept depth as
    // its admission window.
    let front = |qd| {
        HostQueueConfig::uniform(2, Mode::closed_loop(qd))
            .with_arb(ArbPolicy::WeightedRoundRobin)
            .with_weights(&[2, 1])
            .with_window(qd)
    };
    for jobs in [1, 2] {
        let warm = run(&spec.clone().with_jobs(jobs), Some(&bank)).expect("bank covers the sweep");
        assert!(warm.gc_pages_moved > 0, "stress cells must garbage-collect");
        assert_eq!(warm.qd.len(), mechanisms.len());
        assert_qd_cells_match_cold_starts(
            &warm.qd,
            &base,
            &traces,
            &mechanisms,
            front,
            &format!("GC-stress sweep at jobs = {jobs}"),
        );
    }
}

#[test]
fn mismatched_banks_are_rejected_with_a_typed_error() {
    // A bank lacking a footprint must be refused up front — never silently
    // replaced by a cold start. A bank preconditioned under other model
    // inputs is no mismatch: an image holds only FTL tables, which neither
    // the seed nor the outlier rate touches, so it replays exactly like the
    // bank the run would precondition itself, and like per-cell cold runs.
    let base = base_cfg();
    let traces = workloads();
    let point = OperatingPoint::new(2000.0, 6.0);
    let mechanisms = [Mechanism::Baseline, Mechanism::PnAr2];
    let spec = RunSpec::qd_sweep(&base, &traces, point, &[4], &mechanisms);
    let missing_footprint =
        ImageBank::preconditioned(&base, [traces[0].footprint_pages + 1]).expect("valid");
    assert!(run(&spec, Some(&missing_footprint)).is_err());
    let mut other = base.clone().with_seed(0xD1FF);
    other.outlier_rate = 0.5;
    let other_bank = ImageBank::preconditioned(&other, traces.iter().map(|t| t.footprint_pages))
        .expect("valid configuration");
    let borrowed = run(&spec, Some(&other_bank))
        .expect("the bank covers every footprint")
        .qd;
    let own = run(&spec, None).expect("valid spec").qd;
    assert_eq!(own, borrowed, "another seed's bank changed the sweep");
    assert_qd_cells_match_cold_starts(
        &borrowed,
        &base,
        &traces,
        &mechanisms,
        |qd| HostQueueConfig::single(Mode::closed_loop(qd)),
        "QD sweep from another seed's bank",
    );
}

#[test]
fn events_processed_is_deterministic_and_nonzero() {
    let rpt = ReadTimingParamTable::default();
    let trace = MsrcWorkload::Mds1.synthesize(150, 2);
    let point = OperatingPoint::new(2000.0, 6.0);
    let a = run_one(&base_cfg(), Mechanism::Baseline, point, &trace, &rpt);
    let b = run_one(&base_cfg(), Mechanism::Baseline, point, &trace, &rpt);
    assert_eq!(a.events_processed, b.events_processed);
    // Every request needs at least an arrival event plus flash work.
    assert!(a.events_processed > a.requests_completed);
    assert_eq!(a.event_kinds.total(), a.events_processed);
    assert_eq!(a.event_kinds.arrive, a.requests_completed);
}
