//! One function per regenerated table/figure.

use crate::positive;
use crate::render::{pct, print_table, shade, us_opt};
use rr_charact::figures::{self, TimingParam};
use rr_charact::platform::TestPlatform;
use rr_core::experiment::{
    reduction_vs, run, ArrayCellStats, ArraySetup, Load, MatrixCell, Mechanism, OperatingPoint,
    QueueSetup, RunContext, RunReport, RunSpec, Shape,
};
use rr_core::export::Row;
use rr_core::rpt::ReadTimingParamTable;
use rr_flash::calibration::ECC_CAPABILITY_PER_KIB;
use rr_flash::timing::NandTimings;
use rr_sim::config::{ArbPolicy, SsdConfig};
use rr_sim::gc::GcPolicy;
use rr_sim::metrics::{EventCounts, HighWater};
use rr_sim::snapshot::ImageBank;
use rr_workloads::msrc::MsrcWorkload;
use rr_workloads::trace::Trace;
use rr_workloads::ycsb::YcsbWorkload;
use std::time::{Duration, Instant};

/// Shared CLI options.
#[derive(Debug, PartialEq)]
pub struct Options {
    /// Smaller populations / traces.
    pub quick: bool,
    /// Deterministic seed.
    pub seed: u64,
    /// Worker threads for the evaluation matrices (1 = serial; any value
    /// produces identical results).
    pub jobs: usize,
    /// Closed-loop queue depths for `sweep-qd`.
    pub queue_depths: Vec<u32>,
    /// Open-loop arrival-rate multipliers for `sweep-rate`.
    pub rates: Vec<f64>,
    /// The host front end of the load sweeps and `serve` (`--queues`,
    /// `--arb`, `--burst`, `--weights`, `--window`).
    pub front: QueueSetup,
    /// Garbage-collection policy for the load sweeps and their exports
    /// (`GcPolicy::Greedy` = the pre-policy default behavior).
    pub gc_policy: GcPolicy,
    /// Run the load sweeps on the GC-stress workload (shrunken geometry +
    /// write-heavy hot-range trace filling the usable space) instead of the
    /// MSRC/YCSB set, so garbage collection actually contends with host
    /// traffic and the GC policies become distinguishable.
    pub gc_stress: bool,
    /// The device array every replaying command runs on (`--devices`,
    /// `--placement`, `--redundancy`, `--fail-device` with `--fail-at-us`);
    /// one device is the classic single-device stack.
    pub array: ArraySetup,
    /// Output directory for `export` CSVs.
    pub csv_dir: Option<String>,
}

/// The options of a command line that gives no flags.
impl Default for Options {
    fn default() -> Self {
        Self {
            quick: false,
            seed: 0x5EED_2021,
            jobs: 1,
            queue_depths: vec![1, 4, 16],
            rates: vec![0.5, 1.0, 2.0, 4.0],
            front: QueueSetup::single(),
            gc_policy: GcPolicy::Greedy,
            gc_stress: false,
            array: ArraySetup::single(),
            csv_dir: None,
        }
    }
}

impl Options {
    fn chips(&self) -> usize {
        if self.quick {
            16
        } else {
            160
        }
    }

    fn pages_per_chip(&self) -> usize {
        if self.quick {
            64
        } else {
            256
        }
    }

    fn trace_len(&self) -> usize {
        if self.quick {
            2_000
        } else {
            5_000
        }
    }

    fn platform(&self) -> TestPlatform {
        TestPlatform::new(self.chips(), self.seed)
    }

    /// The simulator configuration every command starts from: the scaled
    /// test geometry and the CLI seed.
    fn sim_base(&self) -> SsdConfig {
        SsdConfig::scaled_for_tests().with_seed(self.seed)
    }
}

/// The evaluation grids the replaying commands run.
#[derive(Debug, Clone, Copy)]
pub enum Grid {
    /// The Fig. 14/15 matrix of one mechanism set over the MSRC/YCSB suite.
    Matrix(&'static [Mechanism]),
    /// The closed-loop sweep over `--queue-depth`.
    Qd,
    /// The open-loop sweep over `--rate`.
    Rate,
}

/// The configuration and workloads a grid's [`RunSpec`] borrows.
struct Inputs {
    base: SsdConfig,
    traces: Vec<(Trace, bool)>,
}

/// The mechanisms both load sweeps compare.
const SWEEP_MECHANISMS: [Mechanism; 2] = [Mechanism::Baseline, Mechanism::PnAr2];

impl Options {
    /// The configuration and workloads of `grid`: the MSRC/YCSB evaluation
    /// suite for matrices; for the sweeps, one MSRC and one YCSB workload
    /// (`--quick` keeps one), or the GC-stress pair under `--gc-stress`.
    fn inputs(&self, grid: Grid) -> Inputs {
        let (base, traces) = match grid {
            Grid::Matrix(_) => (
                self.sim_base(),
                all_traces(self)
                    .into_iter()
                    .map(|(t, rd, ..)| (t, rd))
                    .collect(),
            ),
            Grid::Qd | Grid::Rate if self.gc_stress => {
                let base = gc_stress_base(self);
                let trace = rr_workloads::synth::gc_stress_trace(base.max_lpns(), self.trace_len());
                (base, vec![(trace, false)])
            }
            Grid::Qd | Grid::Rate => {
                let mut traces = vec![(
                    MsrcWorkload::Mds1.synthesize(self.trace_len(), self.seed),
                    false,
                )];
                if !self.quick {
                    traces.push((
                        YcsbWorkload::C.synthesize(self.trace_len(), self.seed),
                        false,
                    ));
                }
                (self.sim_base().with_gc_policy(self.gc_policy), traces)
            }
        };
        Inputs { base, traces }
    }

    /// The one spec builder behind every replaying command: `grid` over
    /// `inputs` under this flag set. Matrices run at (2K, 6 mo) under
    /// `--quick` and over the full evaluation grid otherwise, behind the
    /// single-queue front end; the sweeps run at the (2K, 6 mo) highlight
    /// point behind the `--queues` front end.
    fn spec<'a>(&self, grid: Grid, inputs: &'a Inputs) -> RunSpec<'a> {
        let point = OperatingPoint::new(2000.0, 6.0);
        let shape = match grid {
            Grid::Matrix(_) if self.quick => Shape::Matrix {
                points: vec![point],
            },
            Grid::Matrix(_) => Shape::Matrix {
                points: OperatingPoint::evaluation_grid(),
            },
            Grid::Qd => Shape::QdSweep {
                point,
                depths: self.queue_depths.clone(),
            },
            Grid::Rate => Shape::RateSweep {
                point,
                rates: self.rates.clone(),
            },
        };
        // Matrices read no front-end flags, not even under `all`, which
        // hands them to its sweeps.
        let (mechanisms, front) = match grid {
            Grid::Matrix(mechanisms) => (mechanisms, QueueSetup::single()),
            Grid::Qd | Grid::Rate => (&SWEEP_MECHANISMS[..], self.front.clone()),
        };
        RunSpec {
            base: &inputs.base,
            workloads: inputs.traces.iter().map(|(t, rd)| (t, *rd)).collect(),
            mechanisms: mechanisms.to_vec(),
            shape,
            front,
            array: self.array,
            jobs: self.jobs,
        }
    }

    /// Runs `grid` warm-started from a bank preconditioned once for its
    /// workloads and reports the precondition/replay wall-clock split on
    /// stderr. `None` (error already reported) when a footprint does not
    /// fit the device or the spec is rejected.
    fn run(&self, cmd: &str, grid: Grid) -> Option<RunReport> {
        let inputs = self.inputs(grid);
        let t0 = Instant::now();
        let bank = obtain_bank(cmd, &inputs)?;
        let precondition = t0.elapsed();
        let t0 = Instant::now();
        match run(&self.spec(grid, &inputs), Some(&bank)) {
            Ok(report) => {
                eprint_timing(cmd, precondition, t0.elapsed());
                Some(report)
            }
            Err(e) => {
                eprintln!("{cmd}: {e}");
                None
            }
        }
    }
}

fn heading(title: &str, paper: &str) {
    println!("\n## {title}");
    println!("_Paper reference: {paper}_\n");
}

/// Table 1: NAND timing parameters.
pub fn table1(_opts: &Options) -> bool {
    heading("Table 1 — NAND flash timing parameters", "§7.1, Table 1");
    let t = NandTimings::table1();
    let rows = vec![
        vec![
            "tR (avg)".into(),
            format!("{}", t.sense.t_r_avg()),
            "90 µs".into(),
        ],
        vec!["tPRE".into(), format!("{}", t.sense.t_pre), "24 µs".into()],
        vec!["tEVAL".into(), format!("{}", t.sense.t_eval), "5 µs".into()],
        vec![
            "tDISCH".into(),
            format!("{}", t.sense.t_disch),
            "10 µs".into(),
        ],
        vec!["tPROG".into(), format!("{}", t.t_prog), "700 µs".into()],
        vec!["tBERS".into(), format!("{}", t.t_bers), "5 ms".into()],
        vec!["tSET".into(), format!("{}", t.t_set), "1 µs".into()],
        vec![
            "tRST (read)".into(),
            format!("{}", t.t_rst_read),
            "5 µs".into(),
        ],
        vec![
            "tDMA (16 KiB)".into(),
            format!("{}", t.t_dma),
            "16 µs".into(),
        ],
        vec!["tECC".into(), format!("{}", t.t_ecc), "20 µs".into()],
    ];
    print_table(&["Parameter", "This repo", "Paper"], &rows);
    true
}

fn all_traces(opts: &Options) -> Vec<(Trace, bool, f64, f64)> {
    let mut out = Vec::new();
    for w in MsrcWorkload::ALL {
        let (rr, cr) = w.table2_ratios();
        out.push((
            w.synthesize(opts.trace_len(), opts.seed),
            w.read_dominant(),
            rr,
            cr,
        ));
    }
    for w in YcsbWorkload::ALL {
        let (rr, cr) = w.table2_ratios();
        out.push((
            w.synthesize(opts.trace_len(), opts.seed),
            w.read_dominant(),
            rr,
            cr,
        ));
    }
    out
}

/// Table 2: workload read/cold ratios, measured on the synthesized traces.
pub fn table2(opts: &Options) -> bool {
    heading(
        "Table 2 — I/O characteristics of the evaluated workloads",
        "§7.1, Table 2",
    );
    let mut rows = Vec::new();
    for (trace, _, paper_rr, paper_cr) in all_traces(opts) {
        let s = trace.stats();
        rows.push(vec![
            trace.name.clone(),
            format!("{:.2}", s.read_ratio),
            format!("{paper_rr:.2}"),
            format!("{:.2}", s.cold_ratio),
            format!("{paper_cr:.2}"),
            s.requests.to_string(),
        ]);
    }
    print_table(
        &[
            "Workload",
            "read ratio",
            "(paper)",
            "cold ratio",
            "(paper)",
            "requests",
        ],
        &rows,
    );
    true
}

/// Fig. 4b: RBER collapse in the last retry steps.
pub fn fig4b(opts: &Options) -> bool {
    heading(
        "Fig. 4b — RBER reduction in the last retry steps",
        "§2.4: pages needing N = 16 and N = 21 steps; errors collapse only at the final step",
    );
    let platform = opts.platform();
    let series = figures::fig4b(&platform, 2000.0, 12.0, &[16, 21], 3);
    for s in series {
        println!("page requiring N = {} retry steps:", s.total_steps);
        let rows: Vec<Vec<String>> = s
            .errors_by_distance
            .iter()
            .map(|&(d, e)| {
                vec![
                    if d == 0 {
                        "N (final)".into()
                    } else {
                        format!("N-{d}")
                    },
                    e.to_string(),
                    if e <= ECC_CAPABILITY_PER_KIB {
                        "corrected ✓".into()
                    } else {
                        "fail".into()
                    },
                ]
            })
            .collect();
        print_table(&["step", "errors/KiB", "vs. 72-bit capability"], &rows);
    }
    true
}

/// Fig. 5: retry-step probability map.
pub fn fig5(opts: &Options) -> bool {
    heading(
        "Fig. 5 — read-retry characteristics vs. (P/E cycles, retention age)",
        "§3.1: 54.4 % ≥ 7 steps at (0, 6 mo); ≥ 8 steps at (1K, 3 mo); mean 19.9 at (2K, 12 mo)",
    );
    let platform = opts.platform();
    let cells = figures::fig5(&platform, opts.pages_per_chip());
    let mut rows = Vec::new();
    for c in &cells {
        rows.push(vec![
            format!("{}", c.pec as u64),
            format!("{}", c.months as u64),
            format!("{:.1}", c.mean),
            c.min.to_string(),
            c.max.to_string(),
            pct(c.hist.fraction_at_least(7)),
        ]);
    }
    print_table(
        &[
            "P/E cycles",
            "months",
            "mean steps",
            "min",
            "max",
            "P(≥7 steps)",
        ],
        &rows,
    );
    // The probability heat map itself, one panel per P/E count.
    for &pec in &figures::PEC_SWEEP {
        println!(
            "\nP(#retry steps) at {} P/E cycles (rows: steps 0-25, cols: months):",
            pec as u64
        );
        print!("      ");
        for &m in &figures::RETENTION_SWEEP {
            print!("{:>4}mo", m as u64);
        }
        println!();
        for steps in (0..=25).rev() {
            print!("  {steps:>3} ");
            for &m in &figures::RETENTION_SWEEP {
                let cell = cells
                    .iter()
                    .find(|c| c.pec == pec && c.months == m)
                    .expect("cell in sweep");
                print!("  {} ", shade(cell.hist.probability(steps)));
            }
            println!();
        }
    }
    true
}

/// Fig. 7: ECC-capability margin in the final retry step.
pub fn fig7(opts: &Options) -> bool {
    heading(
        "Fig. 7 — M_ERR (max errors/KiB) in the final retry step",
        "§5.1: M_ERR(0,3)=15, M_ERR(1K,12)=30, M_ERR(2K,12)=35 @85 °C; +3 @55 °C, +5 @30 °C; 44.4 % margin left at worst",
    );
    let mut platform = opts.platform();
    let cells = figures::fig7(&mut platform, opts.pages_per_chip());
    let mut rows = Vec::new();
    for c in &cells {
        if c.months == 0.0 || c.months == 3.0 || c.months == 6.0 || c.months == 12.0 {
            rows.push(vec![
                format!("{} °C", c.temp_c),
                format!("{}", c.pec as u64),
                format!("{}", c.months as u64),
                c.m_err.to_string(),
                c.margin.to_string(),
                pct(c.margin as f64 / ECC_CAPABILITY_PER_KIB as f64),
            ]);
        }
    }
    print_table(
        &[
            "temp",
            "P/E cycles",
            "months",
            "M_ERR",
            "margin",
            "margin %",
        ],
        &rows,
    );
    true
}

/// Fig. 8: ΔM_ERR per individually reduced timing parameter.
pub fn fig8(opts: &Options) -> bool {
    heading(
        "Fig. 8 — ΔM_ERR vs. individual timing-parameter reduction (85 °C)",
        "§5.2.1: safe 47 %/10 %/27 % at (2K,12); tEVAL 20 % costs ~30 errors even fresh",
    );
    let mut platform = opts.platform();
    let series = figures::fig8(&mut platform, opts.pages_per_chip());
    for param in [TimingParam::Pre, TimingParam::Eval, TimingParam::Disch] {
        println!("\nΔ{}:", param.name());
        let mut rows = Vec::new();
        for s in series.iter().filter(|s| s.param == param) {
            let mut row = vec![format!("({}, {} mo)", s.pec as u64, s.months as u64)];
            for &(x, d) in &s.points {
                row.push(format!("{}→{d:+}", pct(x)));
            }
            rows.push(row);
        }
        let width = rows.first().map(|r| r.len()).unwrap_or(1);
        let mut header = vec!["condition".into()];
        header.extend((1..width).map(|i| format!("point {i}")));
        print_table(&header, &rows);
    }
    true
}

/// Fig. 9: joint (ΔtPRE, ΔtDISCH) reduction.
pub fn fig9(opts: &Options) -> bool {
    heading(
        "Fig. 9 — M_ERR under joint tPRE+tDISCH reduction",
        "§5.2.2: joint reduction is super-additive; ⟨54 %, 20 %⟩ at (1K,0) blows past the capability",
    );
    let mut platform = opts.platform();
    let cells = figures::fig9(&mut platform, opts.pages_per_chip() / 2);
    for (pec, months) in [
        (1000.0, 0.0),
        (2000.0, 0.0),
        (0.0, 12.0),
        (1000.0, 12.0),
        (2000.0, 12.0),
    ] {
        println!(
            "\ncondition (PEC = {}, t_RET = {} mo): M_ERR matrix",
            pec as u64, months as u64
        );
        let disch_levels: Vec<f64> = {
            let mut v: Vec<f64> = cells
                .iter()
                .filter(|c| c.pec == pec && c.months == months)
                .map(|c| c.d_disch)
                .collect();
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            v.dedup();
            v
        };
        let mut header = vec!["ΔtPRE \\ ΔtDISCH".to_string()];
        header.extend(disch_levels.iter().map(|d| pct(*d)));
        let pre_levels = [0.0, 0.14, 0.27, 0.4, 0.47, 0.54];
        let mut rows = Vec::new();
        for &dp in &pre_levels {
            let mut row = vec![pct(dp)];
            for &dd in &disch_levels {
                let m = cells
                    .iter()
                    .find(|c| {
                        c.pec == pec && c.months == months && c.d_pre == dp && c.d_disch == dd
                    })
                    .map(|c| c.m_err)
                    .unwrap_or(0);
                row.push(if m > ECC_CAPABILITY_PER_KIB {
                    format!("{m}!")
                } else {
                    m.to_string()
                });
            }
            rows.push(row);
        }
        print_table(&header, &rows);
        println!("('!' marks values beyond the 72-bit ECC capability)");
    }
    true
}

/// Fig. 10: temperature effect on tPRE reduction.
pub fn fig10(opts: &Options) -> bool {
    heading(
        "Fig. 10 — temperature-induced extra errors under tPRE reduction",
        "§5.2.3: at most ~7 extra errors at (2K, 12 mo); lower temperature ⇒ more errors",
    );
    let mut platform = opts.platform();
    let cells = figures::fig10(&mut platform, opts.pages_per_chip() / 2);
    let mut rows = Vec::new();
    for c in cells.iter().filter(|c| c.d_pre > 0.0) {
        rows.push(vec![
            format!("{} °C", c.temp_c),
            format!("{}", c.pec as u64),
            format!("{}", c.months as u64),
            pct(c.d_pre),
            format!("{:+}", c.extra_errors),
        ]);
    }
    print_table(
        &[
            "temp",
            "P/E cycles",
            "months",
            "ΔtPRE",
            "extra errors vs 85 °C",
        ],
        &rows,
    );
    true
}

/// Fig. 11: minimum safe tPRE per condition.
pub fn fig11(opts: &Options) -> bool {
    heading(
        "Fig. 11 — minimum tPRE for safe tRETRY reduction (14-bit margin)",
        "§5.2.3: between 40 % (2K, 12 mo) and 54 % (fresh) reduction is safe under any condition",
    );
    let mut platform = opts.platform();
    let cells = figures::fig11(&mut platform, opts.pages_per_chip());
    let mut rows = Vec::new();
    for c in &cells {
        rows.push(vec![
            format!("{}", c.pec as u64),
            format!("{}", c.months as u64),
            pct(c.safe_reduction),
            c.m_err_at_reduction.to_string(),
            format!("{}", ECC_CAPABILITY_PER_KIB - c.m_err_at_reduction),
        ]);
    }
    print_table(
        &[
            "P/E cycles",
            "months",
            "max safe ΔtPRE",
            "M_ERR @ reduction",
            "remaining margin",
        ],
        &rows,
    );
    true
}

/// The derived Read-timing Parameter Table (Fig. 13's table).
pub fn rpt(_opts: &Options) -> bool {
    heading(
        "RPT — Read-timing Parameter Table (AR²'s lookup table)",
        "§6.2: ~36 entries, 144 bytes per chip; reduced tPRE per (PEC, retention) bucket",
    );
    let table = ReadTimingParamTable::default();
    let mut rows = Vec::new();
    for r in table.rows() {
        // The table's open-ended buckets use `f64::MAX` as their sentinel.
        let pec = if r.pec_max < f64::MAX {
            format!("< {}", r.pec_max as u64)
        } else {
            "≥ 2000".into()
        };
        let ret = if r.retention_months_max < f64::MAX {
            format!("< {:.2} mo", r.retention_months_max)
        } else {
            "≥ 12 mo".into()
        };
        let t_pre_us = 24.0 * (1.0 - r.pre_reduction);
        rows.push(vec![
            pec,
            ret,
            pct(r.pre_reduction),
            format!("{t_pre_us:.1} µs"),
        ]);
    }
    print_table(&["PEC", "t_RET", "ΔtPRE", "tPRE"], &rows);
    println!(
        "table size: {} bytes (paper estimates 144 B)",
        table.storage_bytes()
    );
    true
}

/// Milliseconds of a measured phase, for the stderr timing split.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The stderr wall-clock split the replaying commands report: device aging
/// (`precondition`) vs the replay itself. Timing stays on stderr so stdout
/// remains byte-comparable across runs.
fn eprint_timing(cmd: &str, precondition: Duration, replay: Duration) {
    eprintln!(
        "{cmd}: precondition {:.1} ms, replay {:.1} ms",
        ms(precondition),
        ms(replay)
    );
}

/// The warm-start bank a command forks across its cells: one image per
/// distinct footprint of `inputs`, preconditioned in-process. `None` (with
/// the error on stderr) when a footprint does not fit the device.
fn obtain_bank(cmd: &str, inputs: &Inputs) -> Option<ImageBank> {
    let footprints = inputs.traces.iter().map(|(t, _)| t.footprint_pages);
    ImageBank::preconditioned(&inputs.base, footprints)
        .map_err(|e| eprintln!("{cmd}: {e}"))
        .ok()
}

fn print_matrix(cells: &[MatrixCell], mechanisms: &[Mechanism]) {
    let mut keys: Vec<(String, f64, f64)> = cells
        .iter()
        .map(|c| (c.workload.clone(), c.point.pec, c.point.retention_months))
        .collect();
    keys.dedup();
    let mut header = vec!["workload".into(), "PEC".into(), "t_RET".into()];
    header.extend(mechanisms.iter().map(|m| m.name().to_string()));
    let mut rows = Vec::new();
    let mut p99_rows = Vec::new();
    for (w, pec, months) in keys {
        let key = vec![
            w.clone(),
            format!("{}", pec as u64),
            format!("{} mo", months as u64),
        ];
        let mut row = key.clone();
        let mut p99_row = key;
        for m in mechanisms {
            let cell = cells
                .iter()
                .find(|c| {
                    c.workload == w
                        && c.point.pec == pec
                        && c.point.retention_months == months
                        && c.mechanism == m.name()
                })
                .expect("matrix is complete");
            row.push(format!("{:.3}", cell.normalized));
            p99_row.push(us_opt(cell.read_latency.p99));
        }
        rows.push(row);
        p99_rows.push(p99_row);
    }
    print_table(&header, &rows);
    println!("\nread p99 (µs; — = no reads in the workload):");
    print_table(&header, &p99_rows);
}

/// Fig. 14: normalized response time of the five SSD configurations.
pub fn fig14(opts: &Options) -> bool {
    heading(
        "Fig. 14 — normalized response time (Baseline / PR2 / AR2 / PnAR2 / NoRR)",
        "§7.2: PR2 ≤38.3 % (avg 17.7 %), AR2 ≤18.1 % (avg 11.9 %), PnAR2 ≤51.8 % (avg 28.9 %; 35.2 % @ (2K, 6 mo))",
    );
    let grid = Grid::Matrix(&Mechanism::FIG14);
    let Some(report) = opts.run("fig14", grid) else {
        return false;
    };
    let cells = &report.matrix;
    print_matrix(cells, &Mechanism::FIG14);
    if opts.array.is_array() {
        let rows = report.rows();
        print_array_tails(&rows);
        print_redundancy(&rows);
    }
    println!();
    for m in ["PR2", "AR2", "PnAR2"] {
        let s = reduction_vs(cells, m, "Baseline", false);
        println!(
            "{m} vs Baseline: avg {} / max {} response-time reduction",
            pct(s.mean),
            pct(s.max)
        );
    }
    let norr = reduction_vs(cells, "NoRR", "Baseline", false);
    println!(
        "ideal NoRR bound: avg {} / max {}",
        pct(norr.mean),
        pct(norr.max)
    );
    true
}

/// Fig. 15: PSO and PSO+PnAR2.
pub fn fig15(opts: &Options) -> bool {
    heading(
        "Fig. 15 — our techniques on top of the PSO state of the art",
        "§7.3: PSO+PnAR2 reduces response time vs PSO by up to 31.5 % (avg 17 %) on read-dominant workloads",
    );
    let Some(report) = opts.run("fig15", Grid::Matrix(&Mechanism::FIG15)) else {
        return false;
    };
    let cells = report.matrix;
    print_matrix(&cells, &Mechanism::FIG15);
    println!();
    let s = reduction_vs(&cells, "PSO+PnAR2", "PSO", true);
    println!(
        "PSO+PnAR2 vs PSO (read-dominant): avg {} / max {} response-time reduction",
        pct(s.mean),
        pct(s.max)
    );
    let s_all = reduction_vs(&cells, "PSO+PnAR2", "PSO", false);
    println!(
        "PSO+PnAR2 vs PSO (all workloads): avg {} / max {}",
        pct(s_all.mean),
        pct(s_all.max)
    );
    true
}

/// The `--gc-stress` SSD: the test-scaled geometry shrunk further (16
/// blocks/plane × 12 pages/block) so the stress trace's footprint fills the
/// usable space and garbage collection runs continuously during the sweep.
/// The synthesized MSRC/YCSB footprints stay proportional to their touched
/// pages, so the stock sweeps never trigger GC — this mode exists to make
/// GC-vs-host contention (and the `--gc-policy` knob) observable.
fn gc_stress_base(opts: &Options) -> SsdConfig {
    let mut cfg = opts.sim_base().with_gc_policy(opts.gc_policy);
    cfg.chip.blocks_per_plane = 16;
    cfg.chip.pages_per_block = 12;
    cfg
}

/// A row's run label in the CLI tables: `workload @ (PEC, t_RET mo) /
/// mechanism` in the matrix, `workload / mechanism / QD=d` or `rate=r` in
/// a load sweep.
fn label(r: &Row) -> String {
    match r.load {
        Load::Open => format!(
            "{} @ ({}, {} mo) / {}",
            r.workload, r.point.pec as u64, r.point.retention_months as u64, r.mechanism
        ),
        Load::Qd(qd) => format!("{} / {} / QD={qd}", r.workload, r.mechanism),
        Load::Rate(rate) => format!("{} / {} / rate={rate}", r.workload, r.mechanism),
    }
}

/// The load sweeps: `sweep-qd` (closed-loop replay at each `--queue-depth`)
/// and `sweep-rate` (open-loop replay at each `--rate` multiplier — the
/// hockey-stick sibling), reporting full per-class latency distributions
/// and throughput.
pub fn sweep(opts: &Options, grid: Grid) -> bool {
    let qd = matches!(grid, Grid::Qd);
    let (cmd, column) = if qd {
        heading(
            "QD sweep — closed-loop tail latency vs. queue depth",
            "load as a first-class knob: fio-style --iodepth sweep of the §7.1 SSD at the (2K, 6 mo) highlight point",
        );
        ("sweep-qd", "QD")
    } else {
        heading(
            "Rate sweep — open-loop tail latency vs. offered load",
            "arrival-rate multiplier over the trace's native timing; latency turns up sharply past device saturation",
        );
        ("sweep-rate", "rate ×")
    };
    let Some(report) = opts.run(cmd, grid) else {
        return false;
    };
    let rows = report.rows();

    println!("latency distributions (µs; — = class empty in this run):");
    let mut table = Vec::new();
    for r in &rows {
        let classes = [
            ("reads", Some(r.reads)),
            ("writes", r.writes),
            ("retried reads", r.retried_reads),
        ];
        for (class, s) in classes {
            let Some(s) = s else { continue };
            table.push(vec![
                label(r),
                class.to_string(),
                s.count.to_string(),
                us_opt(s.p50),
                us_opt(s.p95),
                us_opt(s.p99),
                us_opt(s.p999),
            ]);
        }
    }
    print_table(&["run", "class", "n", "p50", "p95", "p99", "p99.9"], &table);

    println!("\nthroughput and means:");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.to_string(),
                r.mechanism.to_string(),
                r.load.level().unwrap_or_default(),
                format!("{:.1}", r.avg_response_us),
                r.kiops.map_or_else(|| "—".into(), |k| format!("{k:.2}")),
            ]
        })
        .collect();
    print_table(
        &["workload", "mechanism", column, "avg resp (µs)", "kIOPS"],
        &table,
    );
    if opts.front.queues > 1 && !opts.array.is_array() {
        print_per_queue_reads(&opts.front, &rows);
    }
    if opts.gc_policy != GcPolicy::Greedy && !opts.array.is_array() {
        print_per_queue_gc(opts.gc_policy, &rows);
    }
    if opts.array.is_array() {
        print_array_tails(&rows);
        print_redundancy(&rows);
    }
    if qd {
        println!(
            "\n(closed-loop: trace timestamps ignored, QD requests kept outstanding;\n\
             QD=1 is the serial-device reference — deeper queues trade latency for\n\
             throughput via multi-die interleaving under channel contention)"
        );
    } else {
        println!(
            "\n(open-loop: trace timestamps divided by the rate multiplier; rates past\n\
             the device's saturation point produce the latency hockey-stick that\n\
             closed-loop QD sweeps cannot show)"
        );
    }
    true
}

/// The per-queue read-latency table of a multi-queue sweep: one row per
/// (cell, submission queue), so WRR weight skew is visible per queue.
fn print_per_queue_reads(setup: &QueueSetup, cells: &[Row]) {
    let weights = setup.resolved_weights();
    println!(
        "\nper-queue read latency (µs; {} arbitration, weights {:?}, burst {}):",
        match setup.arb {
            ArbPolicy::RoundRobin => "RR",
            ArbPolicy::WeightedRoundRobin => "WRR",
        },
        weights,
        setup.burst,
    );
    let mut rows = Vec::new();
    for r in cells {
        for (q, s) in r.per_queue_reads.iter().enumerate() {
            rows.push(vec![
                label(r),
                format!("q{q} (w={})", weights.get(q).copied().unwrap_or(1)),
                s.count.to_string(),
                us_opt(s.p50),
                us_opt(s.p95),
                us_opt(s.p99),
                us_opt(s.p999),
            ]);
        }
    }
    print_table(&["run", "queue", "n", "p50", "p95", "p99", "p99.9"], &rows);
}

/// The per-queue GC-stall attribution table of a sweep run under a
/// non-default GC policy: who absorbed GC interference, and how much.
fn print_per_queue_gc(policy: GcPolicy, cells: &[Row]) {
    println!(
        "\nper-queue GC stalls ({} policy; stall µs = suspension latency per \
         (forced) suspension + residual busy time per wait):",
        policy.name()
    );
    let mut rows = Vec::new();
    for r in cells {
        for (q, gc) in r.per_queue_gc.iter().enumerate() {
            rows.push(vec![
                label(r),
                format!("q{q}"),
                gc.suspensions.to_string(),
                gc.preemptions.to_string(),
                gc.waits.to_string(),
                gc.deferrals.to_string(),
                format!("{:.1}", gc.stall_us),
            ]);
        }
    }
    print_table(
        &[
            "run",
            "queue",
            "suspensions",
            "preemptions",
            "waits",
            "deferrals",
            "stall µs",
        ],
        &rows,
    );
}

/// The array tail tables of a `--devices N` run: one per-device read-tail
/// and GC-attribution row per (cell, device), then the array-level
/// amplification summary (array tail vs. best/median device, slowest-device
/// attribution) that makes one device's GC storm visible in array p99.9.
fn print_array_tails(rows: &[Row]) {
    let cells: Vec<(String, &ArrayCellStats)> = rows
        .iter()
        .filter_map(|r| r.array.map(|a| (label(r), a)))
        .collect();
    let Some((_, first)) = cells.first() else {
        return;
    };
    println!(
        "\nper-device read tails ({} device(s), {} placement):",
        first.devices, first.placement
    );
    let mut rows = Vec::new();
    for (prefix, a) in &cells {
        for (d, tail) in a.per_device.iter().enumerate() {
            rows.push(vec![
                prefix.clone(),
                format!("d{d}"),
                tail.reads.count.to_string(),
                us_opt(tail.reads.p99),
                us_opt(tail.reads.p999),
                tail.gc.stalls().to_string(),
                format!("{:.1}", tail.gc.stall_us),
            ]);
        }
    }
    print_table(
        &[
            "run",
            "device",
            "reads",
            "p99",
            "p99.9",
            "gc stalls",
            "gc stall µs",
        ],
        &rows,
    );
    println!("\narray tail amplification (array p99/p99.9 ÷ median device):");
    let amp = |v: Option<f64>| v.map_or_else(|| "—".into(), |v| format!("{v:.2}x"));
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|(prefix, a)| {
            vec![
                prefix.clone(),
                amp(a.amplification_p99),
                amp(a.amplification_p999),
                us_opt(a.best_read_p999),
                us_opt(a.median_read_p999),
                a.slowest_device
                    .map_or_else(|| "—".into(), |d| format!("d{d}")),
            ]
        })
        .collect();
    print_table(
        &[
            "run",
            "amp p99",
            "amp p99.9",
            "best p99.9",
            "median p99.9",
            "slowest",
        ],
        &rows,
    );
}

/// The redundancy tables of a `--redundancy`/`--fail-device` run: the
/// wait-for-k completion tail, straggler rescues (reads that would have
/// waited on the slowest device's GC window), and the per-device fan-out /
/// rebuild-read counts that show survivors absorbing reconstruction traffic.
/// Prints nothing when no cell carries redundancy stats, so the plain array
/// path's stdout stays byte-identical.
fn print_redundancy(rows: &[Row]) {
    let cells: Vec<(String, &rr_sim::array::RedundancyStats)> = rows
        .iter()
        .filter_map(|r| r.redundancy().map(|s| (label(r), s)))
        .collect();
    if cells.is_empty() {
        return;
    }
    println!("\nredundancy: wait-for-k completion tail and straggler rescues:");
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|(prefix, r)| {
            vec![
                prefix.clone(),
                r.scheme.clone(),
                r.wait_for_k.count.to_string(),
                us_opt(r.wait_for_k.p50),
                us_opt(r.wait_for_k.p99),
                us_opt(r.wait_for_k.p999),
                r.rescued_reads.to_string(),
                format!("{:.1}", r.rescued_saved_us),
                r.failed_device
                    .map_or_else(|| "—".into(), |d| format!("d{d}")),
            ]
        })
        .collect();
    print_table(
        &[
            "run",
            "scheme",
            "reads",
            "p50",
            "p99",
            "p99.9",
            "rescued",
            "saved µs",
            "failed",
        ],
        &rows,
    );
    println!("\nredundancy: per-device fan-out and rebuild reads:");
    let mut rows = Vec::new();
    for (prefix, r) in &cells {
        for d in 0..r.fanout_reads.len() {
            rows.push(vec![
                prefix.clone(),
                format!("d{d}"),
                r.fanout_reads[d].to_string(),
                r.fanout_writes[d].to_string(),
                r.rebuild_reads[d].to_string(),
            ]);
        }
    }
    print_table(
        &[
            "run",
            "device",
            "read copies",
            "write copies",
            "rebuild reads",
        ],
        &rows,
    );
}

/// The perf regression gate fails a run below this fraction of the trailing
/// median requests/sec.
const PERF_GATE_RATIO: f64 = 0.7;
/// Comparable archived runs required before the gate engages.
const PERF_GATE_MIN_RUNS: usize = 3;
/// The gate's trailing window (most recent comparable runs).
const PERF_GATE_TRAILING: usize = 10;
/// Append-only requests/sec archive, one JSON object per line.
const PERF_HISTORY_FILE: &str = "BENCH_history.jsonl";

/// Extracts `"key": <number>` from a single-line JSON object. The workspace
/// has no serde, so the history file sticks to one object per line and is
/// parsed by key lookup.
fn json_f64_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = line[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || ".-+eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts `"key": "value"` from a single-line JSON object (values never
/// contain escapes here — they are joined numeric lists).
fn json_str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

/// One parsed `BENCH_history.jsonl` record: the run's canonical spec (the
/// comparability key) plus the measured throughput in simulated host
/// requests per second of wall-clock.
struct PerfRecord {
    spec: String,
    requests_per_sec: f64,
}

/// Parses the requests/sec archive, skipping lines without a `spec` key
/// (archived before runs were keyed by their spec), lines without a
/// `requests_per_sec` (archived when the gate compared events/sec) and
/// malformed or truncated lines (e.g. an interrupted CI append) with a
/// single stderr warning — one bad record must not wedge every subsequent
/// gated run.
fn parse_perf_history(history: &str) -> Vec<PerfRecord> {
    let mut records = Vec::new();
    let mut skipped = 0usize;
    for line in history.lines().filter(|l| !l.trim().is_empty()) {
        let spec = json_str_field(line, "spec");
        let requests_per_sec = json_f64_field(line, "requests_per_sec").filter(|r| r.is_finite());
        match (spec, requests_per_sec) {
            (Some(spec), Some(requests_per_sec)) => records.push(PerfRecord {
                spec: spec.to_string(),
                requests_per_sec,
            }),
            _ => skipped += 1,
        }
    }
    if skipped > 0 {
        eprintln!(
            "warning: skipped {skipped} line(s) of {PERF_HISTORY_FILE} without a spec key or a \
             finite requests_per_sec — unkeyed, events/sec-only, corrupt or truncated records \
             never gate"
        );
    }
    records
}

/// The archived requests/sec [`perf_gate`] compares a run of `spec` with:
/// the last [`PERF_GATE_TRAILING`] runs under the same spec key, oldest
/// first.
fn comparable_runs(records: &[PerfRecord], spec: &str) -> Vec<f64> {
    let prior: Vec<f64> = records
        .iter()
        .filter(|r| r.spec == spec)
        .map(|r| r.requests_per_sec)
        .collect();
    prior[prior.len().saturating_sub(PERF_GATE_TRAILING)..].to_vec()
}

/// The ROADMAP's perf trajectory gate. The canonical spec lives in the
/// README's "Perf regression gate" subsection; in code terms: this run's
/// overall simulated host requests/sec is compared against the median of
/// the last [`PERF_GATE_TRAILING`] (10) *comparable* archived runs in
/// [`PERF_HISTORY_FILE`], where comparable means the same `spec` key — the
/// canonical display of the run's three [`RunSpec`]s, so runs that differ
/// in any axis (`--quick`, `--jobs`, `--seed`, the load lists, devices,
/// placement, redundancy, failure) never gate each other. Returns
/// `false` — failing `repro perf` and therefore CI — when throughput drops
/// below [`PERF_GATE_RATIO`] (0.7×) of that median; skips gracefully while
/// fewer than [`PERF_GATE_MIN_RUNS`] (3) comparable runs exist. Only runs
/// that pass (or skip) the gate are archived — appending regressed runs
/// would let repeated re-runs drag the median down until a real regression
/// passes. Requests, not events, measure the work: an engine change that
/// needs fewer events per request is a speed-up, not a regression. The
/// archive line also records events/sec as a diagnostic.
fn perf_gate(spec: &str, requests_per_sec: f64, events_per_sec: f64) -> bool {
    let history = std::fs::read_to_string(PERF_HISTORY_FILE).unwrap_or_default();
    let mut recent = comparable_runs(&parse_perf_history(&history), spec);
    let ok = if recent.len() < PERF_GATE_MIN_RUNS {
        println!(
            "perf gate: {} comparable archived run(s) (< {PERF_GATE_MIN_RUNS}) — \
             recorded {requests_per_sec:.0} requests/sec, gate skipped",
            recent.len()
        );
        true
    } else {
        recent.sort_by(|a, b| a.partial_cmp(b).expect("finite requests/sec"));
        let mid = recent.len() / 2;
        let median = if recent.len() % 2 == 1 {
            recent[mid]
        } else {
            (recent[mid - 1] + recent[mid]) / 2.0
        };
        let floor = PERF_GATE_RATIO * median;
        if requests_per_sec < floor {
            eprintln!(
                "perf gate: {requests_per_sec:.0} requests/sec is below {PERF_GATE_RATIO}× the \
                 trailing median of {} runs ({median:.0} → floor {floor:.0}) — perf \
                 regression (run not archived)",
                recent.len()
            );
            false
        } else {
            println!(
                "perf gate: {requests_per_sec:.0} requests/sec vs trailing median {median:.0} \
                 over {} run(s) — ok (floor {floor:.0})",
                recent.len()
            );
            true
        }
    };
    if ok {
        let line = format!(
            "{{\"spec\": \"{spec}\", \"requests_per_sec\": {requests_per_sec:.1}, \
             \"events_per_sec\": {events_per_sec:.1}}}\n"
        );
        let append = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(PERF_HISTORY_FILE)
            .and_then(|mut archive| std::io::Write::write_all(&mut archive, line.as_bytes()));
        if let Err(e) = append {
            eprintln!("perf: cannot append to {PERF_HISTORY_FILE}: {e}");
            return false;
        }
    }
    ok
}

/// One measured workload of `repro perf`.
struct PerfRow {
    name: &'static str,
    cells: usize,
    requests: u64,
    events: EventCounts,
    high_water: HighWater,
    gc_pages_moved: u64,
    wall_s: f64,
}

impl PerfRow {
    fn requests_per_sec(&self) -> f64 {
        self.requests as f64 / self.wall_s.max(1e-9)
    }

    fn events_per_sec(&self) -> f64 {
        self.events.total() as f64 / self.wall_s.max(1e-9)
    }
}

/// Measures simulator throughput (simulated host requests/sec, with
/// events/sec as a diagnostic) over the evaluation matrix and
/// both load sweeps, prints a summary, and writes `BENCH_sim.json` so the
/// numbers accumulate as a tracked artifact. Every run is also appended to
/// the `BENCH_history.jsonl` archive and checked against the trailing median
/// of comparable runs (see [`perf_gate`]). Returns `false` (CLI failure) if
/// a spec is rejected, any workload processed zero events, or the regression
/// gate trips.
pub fn perf(opts: &Options) -> bool {
    heading(
        "Perf — simulator hot-path throughput",
        "requests/sec over the Fig. 14 matrix and the QD/rate sweeps; written to BENCH_sim.json",
    );
    let mut rows = Vec::new();
    let mut specs = Vec::new();
    for (name, grid) in [
        ("matrix", Grid::Matrix(&Mechanism::FIG14)),
        ("sweep-qd", Grid::Qd),
        ("sweep-rate", Grid::Rate),
    ] {
        let t0 = Instant::now();
        let inputs = opts.inputs(grid);
        let spec = opts.spec(grid, &inputs);
        let report = match run(&spec, None) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("perf: {e}");
                return false;
            }
        };
        rows.push(PerfRow {
            name,
            cells: report.cells(),
            requests: (opts.trace_len() * report.cells()) as u64,
            events: report.event_kinds,
            high_water: report.high_water,
            gc_pages_moved: report.gc_pages_moved,
            wall_s: t0.elapsed().as_secs_f64(),
        });
        specs.push(spec.to_string());
    }
    let spec = specs.join(" | ");

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.cells.to_string(),
                r.events.total().to_string(),
                format!("{:.3}", r.wall_s),
                format!("{:.0}", r.requests_per_sec()),
                format!("{:.0}", r.events_per_sec()),
            ]
        })
        .collect();
    print_table(
        &[
            "workload",
            "cells",
            "events",
            "wall (s)",
            "requests/sec",
            "events/sec",
        ],
        &table,
    );

    // Hand-rolled JSON: the workspace has no serde.
    let mut json = String::from("{\n  \"bench\": \"sim_throughput\",\n");
    json.push_str(&format!("  \"spec\": \"{spec}\",\n"));
    json.push_str(&format!("  \"quick\": {},\n", opts.quick));
    json.push_str(&format!("  \"jobs\": {},\n", opts.jobs));
    json.push_str(&format!("  \"seed\": {},\n", opts.seed));
    json.push_str(&format!("  \"devices\": {},\n", opts.array.devices));
    json.push_str(&format!(
        "  \"placement\": \"{}\",\n",
        opts.array.placement.name()
    ));
    json.push_str(&format!(
        "  \"redundancy\": \"{}\",\n",
        opts.array.redundancy.name()
    ));
    let fail = opts.array.failure.map_or_else(
        || "none".to_string(),
        |f| format!("d{}@{}", f.device, f.at.as_us()),
    );
    json.push_str(&format!("  \"fail\": \"{fail}\",\n"));
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let k = &r.events;
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"cells\": {}, \"requests\": {}, \"events\": {}, \
             \"events_by_kind\": {{\"arrive\": {}, \"die_done\": {}, \"stale_die_done\": {}, \
             \"data_loaded\": {}, \"ecc_done\": {}}}, \
             \"high_water\": {{\"events\": {}, \"txns\": {}}}, \"gc_pages_moved\": {}, \
             \"wall_s\": {:.6}, \"requests_per_sec\": {:.1}, \"events_per_sec\": {:.1}}}{}\n",
            r.name,
            r.cells,
            r.requests,
            k.total(),
            k.arrive,
            k.die_done,
            k.stale_die_done,
            k.data_loaded,
            k.ecc_done,
            r.high_water.events,
            r.high_water.txns,
            r.gc_pages_moved,
            r.wall_s,
            r.requests_per_sec(),
            r.events_per_sec(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write("BENCH_sim.json", &json) {
        eprintln!("perf: cannot write BENCH_sim.json: {e}");
        return false;
    }
    println!("\nwrote BENCH_sim.json");

    let ok = rows.iter().all(|r| r.events.total() > 0);
    if !ok {
        eprintln!("perf: a workload processed zero events — the simulator did no work");
    }
    let total_requests: u64 = rows.iter().map(|r| r.requests).sum();
    let total_events: u64 = rows.iter().map(|r| r.events.total()).sum();
    let total_wall = rows.iter().map(|r| r.wall_s).sum::<f64>().max(1e-9);
    // A zero-events run is broken, not slow: fail before the gate so the
    // archive never absorbs its depressed requests/sec as a baseline.
    ok && perf_gate(
        &spec,
        total_requests as f64 / total_wall,
        total_events as f64 / total_wall,
    )
}

/// §8 extensions: Eager-PnAR2 (speculative retry start) and AR2-Regular
/// (reduced-timing regular reads), against PnAR2 and the NoRR bound.
pub fn extensions(opts: &Options) -> bool {
    heading(
        "Extensions — the paper's §8 'Discussion' mechanisms",
        "§8: speculative retry start + regular-read latency reduction",
    );
    let mechanisms = [
        Mechanism::Baseline,
        Mechanism::PnAr2,
        Mechanism::EagerPnAr2,
        Mechanism::RegularAr2,
        Mechanism::NoRR,
    ];
    let base = opts.sim_base();
    let traces: Vec<(Trace, bool)> = vec![
        (
            MsrcWorkload::Mds1.synthesize(opts.trace_len(), opts.seed),
            true,
        ),
        (
            MsrcWorkload::Stg0.synthesize(opts.trace_len(), opts.seed),
            false,
        ),
        (
            YcsbWorkload::C.synthesize(opts.trace_len(), opts.seed),
            true,
        ),
    ];
    let points = [
        OperatingPoint::new(2000.0, 12.0),
        OperatingPoint::new(1000.0, 0.0),
    ];
    let spec = RunSpec::matrix(&base, &traces, &points, &mechanisms).with_jobs(opts.jobs);
    let cells = match run(&spec, None) {
        Ok(report) => report.matrix,
        Err(e) => {
            eprintln!("extensions: {e}");
            return false;
        }
    };
    print_matrix(&cells, &mechanisms);
    println!();
    for m in ["Eager-PnAR2", "AR2-Regular"] {
        let s = reduction_vs(&cells, m, "PnAR2", false);
        println!("{m} vs PnAR2: avg {} / max {}", pct(s.mean), pct(s.max));
    }
    println!(
        "\nEager-PnAR2 helps most on aged data (skips the doomed default read);\n\
         AR2-Regular helps most on fresh/hot data (no-retry reads sense ~25 % faster)."
    );
    true
}

/// Ablations of the design choices DESIGN.md calls out.
pub fn ablation(opts: &Options) -> bool {
    use rr_core::experiment::{prepared_config, run_one};
    use rr_core::mechanisms::ReadRetryController;
    use rr_core::pso::PsoPredictor;
    use rr_sim::ssd::Ssd;

    heading(
        "Ablation 1 — adaptive (RPT) vs. fixed tPRE reduction",
        "§6.2: AR2 'carefully decides the tPRE reduction amount depending on the current operating conditions'",
    );
    let base = opts.sim_base();
    let trace = MsrcWorkload::Mds1.synthesize(opts.trace_len() / 2, opts.seed);
    let mut rows = Vec::new();
    for point in [
        OperatingPoint::new(0.0, 1.0),
        OperatingPoint::new(2000.0, 12.0),
    ] {
        let baseline = run_one(
            &base,
            Mechanism::Baseline,
            point,
            &trace,
            &ReadTimingParamTable::default(),
        );
        let cfg = prepared_config(&base, point, false);
        let mut row_for = |label: &str, rpt: &ReadTimingParamTable| {
            let ssd = Ssd::new(
                cfg.clone(),
                Mechanism::PnAr2.make_controller(rpt),
                trace.footprint_pages,
            )
            .expect("valid config");
            let report = ssd.run(&trace.requests);
            rows.push(vec![
                format!(
                    "({}, {} mo)",
                    point.pec as u64, point.retention_months as u64
                ),
                label.to_string(),
                format!("{:.1}", report.avg_response_us()),
                format!(
                    "{:.3}",
                    report.avg_response_us() / baseline.avg_response_us()
                ),
                report.read_failures.to_string(),
            ]);
        };
        row_for("adaptive RPT", &ReadTimingParamTable::default());
        row_for("fixed 40%", &ReadTimingParamTable::fixed(0.40));
        row_for("fixed 54%", &ReadTimingParamTable::fixed(0.54));
    }
    print_table(
        &[
            "condition",
            "tPRE policy",
            "avg resp (µs)",
            "vs Baseline",
            "read failures",
        ],
        &rows,
    );
    println!(
        "(fixed 54 % blows the margin on aged blocks and pays the §6.2 default-timing\n\
         fallback walk; fixed 40 % wastes margin on fresh blocks — adaptivity wins both)"
    );

    heading(
        "Ablation 2 — PSO guard band",
        "§3.1/[84]: the ~3-step guard is why PSO 'cannot completely avoid read-retry'",
    );
    let point = OperatingPoint::new(2000.0, 12.0);
    let cfg = prepared_config(&base, point, false);
    let mut rows = Vec::new();
    for guard in [1u32, 3, 5, 8] {
        let controller = ReadRetryController::pso(PsoPredictor::with_guard(guard));
        let ssd = Ssd::new(cfg.clone(), Box::new(controller), trace.footprint_pages)
            .expect("valid config");
        let report = ssd.run(&trace.requests);
        rows.push(vec![
            guard.to_string(),
            format!("{:.2}", report.avg_retry_steps()),
            format!("{:.1}", report.avg_response_us()),
            report.read_failures.to_string(),
        ]);
    }
    print_table(
        &[
            "guard steps",
            "avg retry steps",
            "avg resp (µs)",
            "read failures",
        ],
        &rows,
    );
    println!(
        "(a small guard cuts steps but risks overshooting V_OPT and paying the\n\
         full-walk fallback; the paper's ~3-step guard balances the two)"
    );
    true
}

/// Writes every characterization figure's data as CSV files (default
/// directory `figures-csv/`, override with `--csv DIR`). With `--csv`, the
/// evaluation results — matrix cells and both load sweeps, with full
/// per-class latency distributions — are exported too, so every figure can
/// be regenerated outside the CLI. Returns `false` (CLI failure) when the
/// output directory or a CSV cannot be written — e.g. a read-only CWD.
pub fn export(opts: &Options) -> bool {
    use rr_charact::export as csv;
    let dir_name = opts.csv_dir.as_deref().unwrap_or("figures-csv");
    let dir = std::path::Path::new(dir_name);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("export: cannot create {}: {e}", dir.display());
        return false;
    }
    let mut platform = opts.platform();
    let pages = opts.pages_per_chip();
    let mut ok = true;
    let mut write = |name: &str, content: String| {
        let path = dir.join(name);
        match std::fs::write(&path, content) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("export: cannot write {}: {e}", path.display());
                ok = false;
            }
        }
    };
    if opts.csv_dir.is_some() {
        use rr_core::export as eval_csv;
        let Some(matrix) = opts.run("export", Grid::Matrix(&Mechanism::FIG14)) else {
            return false;
        };
        write("matrix.csv", eval_csv::csv(&matrix.rows()));
        let Some(qd) = opts.run("export", Grid::Qd) else {
            return false;
        };
        write("sweep_qd.csv", eval_csv::csv(&qd.rows()));
        let Some(rate) = opts.run("export", Grid::Rate) else {
            return false;
        };
        write("sweep_rate.csv", eval_csv::csv(&rate.rows()));
    }
    write(
        "fig4b.csv",
        csv::fig4b_csv(&figures::fig4b(&platform, 2000.0, 12.0, &[16, 21], 3)),
    );
    write("fig5.csv", csv::fig5_csv(&figures::fig5(&platform, pages)));
    write(
        "fig7.csv",
        csv::fig7_csv(&figures::fig7(&mut platform, pages)),
    );
    write(
        "fig8.csv",
        csv::fig8_csv(&figures::fig8(&mut platform, pages / 2)),
    );
    write(
        "fig9.csv",
        csv::fig9_csv(&figures::fig9(&mut platform, pages / 2)),
    );
    write(
        "fig10.csv",
        csv::fig10_csv(&figures::fig10(&mut platform, pages / 2)),
    );
    write(
        "fig11.csv",
        csv::fig11_csv(&figures::fig11(&mut platform, pages)),
    );
    ok
}

/// Parses a serve-protocol mechanism name (the figure names of
/// [`Mechanism::name`], case-insensitive).
fn parse_mechanism(s: &str) -> Option<Mechanism> {
    SERVE_MECHANISMS
        .into_iter()
        .find(|m| m.name().eq_ignore_ascii_case(s))
}

/// Every mechanism `repro serve` accepts by name.
const SERVE_MECHANISMS: [Mechanism; 9] = [
    Mechanism::Baseline,
    Mechanism::Pr2,
    Mechanism::Ar2,
    Mechanism::PnAr2,
    Mechanism::NoRR,
    Mechanism::Pso,
    Mechanism::PsoPnAr2,
    Mechanism::EagerPnAr2,
    Mechanism::RegularAr2,
];

/// One parsed `serve` query line: `<workload> <mechanism> <qd> [devices]`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Query {
    /// Index into the served workloads.
    workload: usize,
    mechanism: Mechanism,
    qd: u32,
    /// The optional fourth field; `None` falls back to `--devices`.
    devices: Option<u32>,
}

/// Parses one `serve` query against the served workload names. `Err` holds
/// the reason the reply's `err` line gives; no input panics.
fn parse_query(line: &str, workloads: &[&str]) -> Result<Query, String> {
    let parts: Vec<&str> = line.split_whitespace().collect();
    let (workload, mechanism, qd, devices) = match parts[..] {
        [w, m, q] => (w, m, q, None),
        [w, m, q, d] => (w, m, q, Some(d)),
        _ => return Err("expected '<workload> <mechanism> <qd> [devices]'".into()),
    };
    let Some(workload) = workloads.iter().position(|&w| w == workload) else {
        return Err(format!(
            "unknown workload {workload} (have {})",
            workloads.join(",")
        ));
    };
    let Some(mechanism) = parse_mechanism(mechanism) else {
        let names: Vec<&str> = SERVE_MECHANISMS.iter().map(Mechanism::name).collect();
        return Err(format!(
            "unknown mechanism {mechanism} (have {})",
            names.join(",")
        ));
    };
    let qd = positive(qd).ok_or("qd must be an integer >= 1")?;
    let devices = devices
        .map(|d| positive(d).ok_or("devices must be an integer >= 1"))
        .transpose()?;
    Ok(Query {
        workload,
        mechanism,
        qd,
        devices,
    })
}

/// `repro serve`: preconditions a device-image bank once, then
/// answers replay queries line-by-line from stdin until EOF or `quit`.
///
/// Protocol, one line per query: `<workload> <mechanism> <qd> [devices]`
/// (e.g. `mds_1 PnAR2 16`) replays that workload closed-loop at the given
/// queue depth under the (2K P/E, 6 mo) highlight point, warm-started from
/// the workload's aged image. Replies on stdout: a single `ready ...` line
/// at startup, then `ok workload=.. mechanism=.. qd=.. reads=..
/// read_p99_us=.. avg_us=.. kiops=.. events=..` (or `err <reason>`) per
/// query — stdout stays deterministic; per-query wall clock goes to stderr.
/// The optional fourth field replays the query on an N-device array (the
/// `--placement` routing; omitted = the CLI's `--devices`); single-device
/// replies stay byte-identical to the pre-array protocol, array replies
/// insert `devices=N` after `qd=`. Each query is a one-cell QD-sweep
/// [`RunSpec`] run on one [`RunContext`] kept across queries, so answers
/// after startup restore the image into warm buffers and cost milliseconds.
pub fn serve(opts: &Options) -> bool {
    use std::io::BufRead;
    let inputs = opts.inputs(Grid::Qd);
    let t0 = Instant::now();
    let Some(bank) = obtain_bank("serve", &inputs) else {
        return false;
    };
    let mut ctx = RunContext::new();
    // A zero-cell spec checks the bank against every served workload.
    let mut spec = opts.spec(Grid::Qd, &inputs);
    spec.jobs = 1;
    spec.shape = Shape::QdSweep {
        point: OperatingPoint::new(2000.0, 6.0),
        depths: Vec::new(),
    };
    if let Err(e) = ctx.run(&spec, Some(&bank)) {
        eprintln!("serve: {e}");
        return false;
    }
    let names: Vec<&str> = inputs.traces.iter().map(|(t, _)| t.name.as_str()).collect();
    let mechanisms: Vec<&str> = SERVE_MECHANISMS.iter().map(Mechanism::name).collect();
    eprintln!(
        "serve: image bank ready in {:.1} ms; protocol: '<workload> <mechanism> <qd> [devices]' \
         per line, 'quit' to exit",
        ms(t0.elapsed())
    );
    println!(
        "ready workloads={} mechanisms={}",
        names.join(","),
        mechanisms.join(",")
    );
    let workloads = std::mem::take(&mut spec.workloads);
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "quit" || line == "exit" {
            break;
        }
        let q = match parse_query(line, &names) {
            Ok(q) => q,
            Err(reason) => {
                println!("err {reason}");
                continue;
            }
        };
        spec.workloads = vec![workloads[q.workload]];
        spec.mechanisms = vec![q.mechanism];
        spec.shape = Shape::QdSweep {
            point: OperatingPoint::new(2000.0, 6.0),
            depths: vec![q.qd],
        };
        spec.array.devices = q.devices.unwrap_or(opts.array.devices);
        let t0 = Instant::now();
        let report = match ctx.run(&spec, Some(&bank)) {
            Ok(report) => report,
            Err(e) => {
                println!("err {e}");
                continue;
            }
        };
        let rows = report.rows();
        let row = rows.first().expect("a one-cell spec yields one cell");
        let devices = row
            .array
            .map_or_else(String::new, |a| format!(" devices={}", a.devices));
        let qd = row.load.level().unwrap_or_default();
        eprintln!(
            "serve: {} {} qd={qd}{devices} in {:.1} ms",
            row.workload,
            row.mechanism,
            ms(t0.elapsed())
        );
        let dash = |v: Option<f64>, digits: usize| {
            v.map_or_else(|| "-".into(), |v| format!("{v:.digits$}"))
        };
        println!(
            "ok workload={} mechanism={} qd={qd}{devices} reads={} read_p99_us={} avg_us={:.1} \
             kiops={} events={}",
            row.workload,
            row.mechanism,
            row.reads.count,
            dash(row.reads.p99, 1),
            row.avg_response_us,
            dash(row.kiops, 2),
            row.events,
        );
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn runs_without_a_spec_key_are_skipped() {
        let history = "\
{\"quick\": true, \"jobs\": 2, \"seed\": 1, \"qd\": \"1,4,16\", \"rates\": \"1\", \"requests_per_sec\": 100.0}
{\"spec\": \"qd-sweep devices=1\", \"requests_per_sec\": 200.0, \"events_per_sec\": 9000.0}
{\"spec\": \"qd-sweep devices=1\", \"events_per_sec\": 7000000.0}
{\"spec\": \"qd-sweep devices=1\", \"requests_per_sec\":
";
        let records = parse_perf_history(history);
        assert_eq!(records.len(), 1, "only the keyed requests/sec line parses");
        assert_eq!(records[0].spec, "qd-sweep devices=1");
        assert_eq!(records[0].requests_per_sec, 200.0);
    }

    #[test]
    fn specs_differing_only_in_redundancy_never_share_a_group() {
        let plain = "matrix devices=4 placement=hash redundancy=none fail=none jobs=1";
        let replicated = "matrix devices=4 placement=hash redundancy=replicate:2 fail=none jobs=1";
        let history = format!(
            "{{\"spec\": \"{plain}\", \"requests_per_sec\": 100.0}}\n\
             {{\"spec\": \"{replicated}\", \"requests_per_sec\": 10.0}}\n\
             {{\"spec\": \"{plain}\", \"requests_per_sec\": 110.0}}\n"
        );
        let records = parse_perf_history(&history);
        assert_eq!(comparable_runs(&records, plain), [100.0, 110.0]);
        assert_eq!(comparable_runs(&records, replicated), [10.0]);
    }

    /// Tokens a `serve` query line is built from: valid and mixed-case
    /// names, garbage, and numbers on both sides of the `u32` range.
    const VOCABULARY: [&str; 16] = [
        "mds_1",
        "MDS_1",
        "PnAR2",
        "pnar2",
        "BASELINE",
        "pso+pnar2",
        "bogus",
        "é",
        "quit",
        "0",
        "-1",
        "1",
        "8",
        "4294967295",
        "4294967296",
        "8.5",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Any line of vocabulary tokens parses without panicking, and
        /// parses `Ok` exactly when it is a well-formed 3- or 4-field query.
        #[test]
        fn serve_query_lines_never_panic(
            tokens in prop::collection::vec(prop::sample::select(VOCABULARY.to_vec()), 0..7)
        ) {
            let count = |s: &str| s.parse::<u32>().is_ok_and(|v| v >= 1);
            let mechanism = |s: &str| {
                ["PnAR2", "pnar2", "BASELINE", "pso+pnar2"].contains(&s)
            };
            let well_formed = matches!(tokens.len(), 3 | 4)
                && tokens[0] == "mds_1"
                && mechanism(tokens[1])
                && count(tokens[2])
                && tokens.get(3).is_none_or(|d| count(d));
            let parsed = parse_query(&tokens.join(" "), &["mds_1"]);
            prop_assert_eq!(parsed.is_ok(), well_formed);
        }
    }
}
