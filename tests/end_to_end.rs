//! End-to-end integration: workloads → SSD simulator → mechanism reports,
//! checked against the paper's latency equations and orderings.

use ssd_readretry::core::experiment::prepared_config;
use ssd_readretry::prelude::*;
use ssd_readretry::sim::readflow::{Actions, ReadContext, RetryController};
use std::cell::Cell;
use std::rc::Rc;

fn base_cfg() -> SsdConfig {
    SsdConfig::scaled_for_tests()
}

fn single_read_trace() -> Trace {
    Trace::new(
        "one-read",
        vec![HostRequest::new(SimTime::ZERO, IoOp::Read, 1234, 1)],
        10_000,
    )
}

/// Ground truth for one page: its required retry steps and tR, derived the
/// same way the simulator derives them.
fn oracle(cfg: &SsdConfig, point: OperatingPoint, lpn: u64) -> (u32, f64, f64) {
    use ssd_readretry::flash::calibration::OperatingCondition;
    use ssd_readretry::flash::error_model::{ErrorModel, PageId};
    use ssd_readretry::sim::ftl::Ftl;
    let mut ftl = Ftl::new(cfg, 10_000).unwrap();
    ftl.precondition();
    let loc = ftl.locate(ftl.translate(lpn).unwrap());
    let model = ErrorModel::new(cfg.seed);
    let cond = OperatingCondition::new(point.pec, point.retention_months, 30.0);
    let n_rr = model.required_step_index(PageId::new(loc.block_global, loc.page_in_block), cond);
    let kind = cfg.chip.page_kind(loc.page_in_block);
    let t_r = cfg.timings.sense.t_r(kind).as_us_f64();
    let rpt = ReadTimingParamTable::default();
    let rho = rpt.rho(cond);
    (n_rr, t_r, rho)
}

#[test]
fn isolated_read_latencies_match_eq2_through_eq5() {
    let cfg = base_cfg();
    let point = OperatingPoint::new(2000.0, 12.0);
    let trace = single_read_trace();
    let rpt = ReadTimingParamTable::default();
    let (n_rr, t_r, rho) = oracle(&cfg, point, 1234);
    assert!(n_rr > 8, "the test page must need deep retry, got {n_rr}");
    let n = n_rr as f64;
    let (t_dma, t_ecc, t_set) = (16.0, 20.0, 1.0);

    // Eq. 2 + Eq. 3: Baseline = (N+1)(tR + tDMA + tECC).
    let baseline = run_one(&cfg, Mechanism::Baseline, point, &trace, &rpt);
    let expect = (n + 1.0) * (t_r + t_dma + t_ecc);
    assert!(
        (baseline.avg_response_us() - expect).abs() < 1.0,
        "baseline {} vs Eq.3 {expect}",
        baseline.avg_response_us()
    );

    // Eq. 4: PR2 = (N+1)·tR + tDMA + tECC (pipelined; transfers hidden).
    let pr2 = run_one(&cfg, Mechanism::Pr2, point, &trace, &rpt);
    let expect = (n + 1.0) * t_r + t_dma + t_ecc;
    assert!(
        (pr2.avg_response_us() - expect).abs() < 1.0,
        "PR2 {} vs Eq.4 {expect}",
        pr2.avg_response_us()
    );
    assert_eq!(pr2.resets, 1, "one speculative step must be RESET");

    // AR2 (sequential): tR+tDMA+tECC + tSET + N·(ρ·tR + tDMA + tECC).
    let ar2 = run_one(&cfg, Mechanism::Ar2, point, &trace, &rpt);
    let expect = (t_r + t_dma + t_ecc) + t_set + n * (rho * t_r + t_dma + t_ecc);
    assert!(
        (ar2.avg_response_us() - expect).abs() < 2.0,
        "AR2 {} vs expectation {expect}",
        ar2.avg_response_us()
    );
    assert!(ar2.set_features >= 2, "install + rollback SET FEATURE");

    // Eq. 5: PnAR2 = tR+tDMA+tECC + tSET + ρ·N·tR + tDMA + tECC.
    let pnar2 = run_one(&cfg, Mechanism::PnAr2, point, &trace, &rpt);
    let expect = (t_r + t_dma + t_ecc) + t_set + rho * n * t_r + t_dma + t_ecc;
    assert!(
        (pnar2.avg_response_us() - expect).abs() < 2.0,
        "PnAR2 {} vs Eq.5 {expect}",
        pnar2.avg_response_us()
    );

    // NoRR: tR + tDMA + tECC.
    let norr = run_one(&cfg, Mechanism::NoRR, point, &trace, &rpt);
    let expect = t_r + t_dma + t_ecc;
    assert!(
        (norr.avg_response_us() - expect).abs() < 1.0,
        "NoRR {} vs Eq.2 {expect}",
        norr.avg_response_us()
    );

    // Event economy, by kind: one `Arrive`, one live `DieDone` per die job,
    // and one `EccDone` per decode that ends a walk. A transfer is booked
    // with its decode, so it costs no event of its own. The engine walks
    // the table: a failed decode that ends the only thing a read has in
    // flight is folded into the next die op, booked when its sense
    // completes to start at the decode's end, and a pipelined walk awaits
    // no failed decode of a step whose next sense is already running. So
    // every read awaits only step N's decode. The sensing a RESET kills
    // pops a stale `DieDone`.
    let decodes = n_rr as u64 + 1;
    for (r, ecc_done, stale) in [
        (&baseline, 1, 0),
        (&ar2, 1, 0),
        (&pr2, 1, 1),
        (&pnar2, 1, 1),
        (&norr, 1, 0),
    ] {
        let k = r.event_kinds;
        let die_jobs = r.senses + r.set_features + r.resets;
        assert_eq!(k.arrive, 1, "{}", r.mechanism);
        assert_eq!(k.die_done + k.stale_die_done, die_jobs, "{}", r.mechanism);
        assert_eq!(k.stale_die_done, stale, "{}", r.mechanism);
        assert_eq!(k.data_loaded, 0, "{}", r.mechanism);
        assert_eq!(k.ecc_done, ecc_done, "{}", r.mechanism);
        assert_eq!(k.total(), r.events_processed, "{}", r.mechanism);
    }
    assert_eq!(baseline.events_processed, 1 + decodes + 1, "Baseline");
    assert_eq!(norr.events_processed, 3, "NoRR: Arrive, DieDone, EccDone");
    // PR²: N + 2 senses (one killed), one RESET, one decode awaited.
    assert_eq!(pr2.events_processed, 1 + (decodes + 1) + 1 + 1, "PR2");
}

/// Counts the protocol calls a controller hears.
struct Counting {
    inner: Box<dyn RetryController + Send>,
    calls: Rc<Cell<u32>>,
}

impl RetryController for Counting {
    fn on_start(&mut self, ctx: &ReadContext) -> Actions {
        self.calls.set(self.calls.get() + 1);
        self.inner.on_start(ctx)
    }

    fn on_walk_end(&mut self, ctx: &ReadContext, decoded: Option<u32>) -> Actions {
        self.calls.set(self.calls.get() + 1);
        self.inner.on_walk_end(ctx, decoded)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[test]
fn controller_calls_per_read_do_not_grow_with_retry_depth() {
    use ssd_readretry::flash::calibration::OperatingCondition;
    use ssd_readretry::flash::error_model::{ErrorModel, PageId};
    use ssd_readretry::sim::ftl::Ftl;
    // The engine walks the retry table: a controller hears a read's start
    // and each walk's end, never a step. AR² and PnAR² hear one more walk
    // end once the default-timing initial read fails, whatever the depth.
    let cfg = base_cfg();
    let rpt = ReadTimingParamTable::default();
    let mut ftl = Ftl::new(&cfg, 10_000).unwrap();
    ftl.precondition();
    let model = ErrorModel::new(cfg.seed);
    let find = |depth: u32| {
        let points = [(0.0, 0.0), (1000.0, 2.0), (2000.0, 1.0), (2000.0, 12.0)];
        points
            .iter()
            .flat_map(|&point| (0..10_000).map(move |lpn| (point, lpn)))
            .find(|&((pec, months), lpn)| {
                let loc = ftl.locate(ftl.translate(lpn).unwrap());
                let page = PageId::new(loc.block_global, loc.page_in_block);
                let cond = OperatingCondition::new(pec, months, 30.0);
                model.required_step_index(page, cond) == depth
            })
            .map(|((pec, months), lpn)| (OperatingPoint::new(pec, months), lpn))
            .unwrap_or_else(|| panic!("no page needs {depth} retry steps"))
    };
    for (mechanism, want) in [
        (Mechanism::Baseline, [2, 2, 2]),
        (Mechanism::Ar2, [2, 3, 3]),
        (Mechanism::PnAr2, [2, 3, 3]),
    ] {
        let calls = [0, 5, 20].map(|depth| {
            let (point, lpn) = find(depth);
            let count = Rc::new(Cell::new(0));
            let controller = Counting {
                inner: mechanism.make_controller(&rpt),
                calls: count.clone(),
            };
            let report = Ssd::new(
                prepared_config(&cfg, point, false),
                Box::new(controller),
                10_000,
            )
            .unwrap()
            .run(&[HostRequest::new(SimTime::ZERO, IoOp::Read, lpn, 1)]);
            assert_eq!(report.read_failures, 0, "{mechanism:?} at depth {depth}");
            if mechanism == Mechanism::Baseline {
                assert_eq!(report.retry_steps.mean(), depth as f64);
            }
            count.get()
        });
        assert_eq!(calls, want, "{mechanism:?} at depths 0, 5 and 20");
    }
}

#[test]
fn mechanism_ordering_under_load() {
    // With queueing and mixed read/write traffic, the Fig. 14 ordering must
    // still hold: NoRR < PnAR2 < min(PR2, AR2) ≤ max(PR2, AR2) < Baseline.
    let cfg = base_cfg();
    let point = OperatingPoint::new(2000.0, 6.0);
    let trace = MsrcWorkload::Usr1.synthesize(3_000, 5);
    let rpt = ReadTimingParamTable::default();
    let rt = |m| run_one(&cfg, m, point, &trace, &rpt).avg_response_us();
    let baseline = rt(Mechanism::Baseline);
    let pr2 = rt(Mechanism::Pr2);
    let ar2 = rt(Mechanism::Ar2);
    let pnar2 = rt(Mechanism::PnAr2);
    let norr = rt(Mechanism::NoRR);
    assert!(pr2 < baseline);
    assert!(ar2 < baseline);
    assert!(pnar2 < pr2 && pnar2 < ar2, "combining both must win");
    assert!(norr < pnar2, "the ideal bound is unbeatable");
}

#[test]
fn fresh_ssd_makes_mechanisms_nearly_equal() {
    // With no P/E cycling and no retention, reads need no retry: all
    // mechanisms collapse to (nearly) the same response time. PR2's
    // speculative sensing costs it a small RESET overhead per read.
    let cfg = base_cfg();
    let point = OperatingPoint::new(0.0, 0.0);
    let trace = MsrcWorkload::Mds1.synthesize(1_500, 3);
    let rpt = ReadTimingParamTable::default();
    let baseline = run_one(&cfg, Mechanism::Baseline, point, &trace, &rpt);
    let pnar2 = run_one(&cfg, Mechanism::PnAr2, point, &trace, &rpt);
    assert_eq!(baseline.avg_retry_steps(), 0.0);
    let ratio = pnar2.avg_response_us() / baseline.avg_response_us();
    assert!(
        (0.95..=1.10).contains(&ratio),
        "fresh-SSD ratio should be ≈ 1, got {ratio}"
    );
}

#[test]
fn pso_composition_beats_pso_alone() {
    // §7.3: PR2/AR2 complement retry-count reduction.
    let cfg = base_cfg();
    let point = OperatingPoint::new(2000.0, 12.0);
    let trace = YcsbWorkload::C.synthesize(2_500, 9);
    let rpt = ReadTimingParamTable::default();
    let baseline = run_one(&cfg, Mechanism::Baseline, point, &trace, &rpt);
    let pso = run_one(&cfg, Mechanism::Pso, point, &trace, &rpt);
    let combo = run_one(&cfg, Mechanism::PsoPnAr2, point, &trace, &rpt);
    assert!(pso.avg_response_us() < 0.6 * baseline.avg_response_us());
    assert!(combo.avg_response_us() < 0.9 * pso.avg_response_us());
    // PSO cannot go below its guard: ~3+ steps per cold read.
    assert!(pso.avg_retry_steps() >= 3.0);
}

#[test]
fn reports_are_deterministic() {
    let cfg = base_cfg();
    let point = OperatingPoint::new(1000.0, 6.0);
    let trace = YcsbWorkload::A.synthesize(1_000, 4);
    let rpt = ReadTimingParamTable::default();
    let a = run_one(&cfg, Mechanism::PnAr2, point, &trace, &rpt);
    let b = run_one(&cfg, Mechanism::PnAr2, point, &trace, &rpt);
    assert_eq!(a.avg_response_us(), b.avg_response_us());
    assert_eq!(a.senses, b.senses);
    assert_eq!(a.resets, b.resets);
    assert_eq!(a.set_features, b.set_features);
}

#[test]
fn no_read_failures_under_normal_operation() {
    // §6.2: without injected outliers, reduced-tPRE retry never exhausts the
    // table, and no mechanism senses a page at a reduction the RPT does not
    // mark safe for it.
    let cfg = base_cfg();
    let rpt = ReadTimingParamTable::default();
    let trace = MsrcWorkload::Prn1.synthesize(1_000, 8);
    for point in [
        OperatingPoint::new(1000.0, 6.0),
        OperatingPoint::new(2000.0, 12.0),
    ] {
        for m in [
            Mechanism::Baseline,
            Mechanism::Pr2,
            Mechanism::Ar2,
            Mechanism::PnAr2,
            Mechanism::NoRR,
            Mechanism::Pso,
            Mechanism::PsoPnAr2,
            Mechanism::EagerPnAr2,
            Mechanism::RegularAr2,
        ] {
            let r = run_one(&cfg, m, point, &trace, &rpt);
            assert_eq!(r.read_failures, 0, "{} at {point:?}", m.name());
        }
    }
}
