//! Array-scale simulation: N replica devices behind a placement layer.
//!
//! Production traffic does not hit one SSD — it hits dozens behind a
//! striping/replication layer, where the classic "p99 of the slowest of N"
//! effect interacts with per-device GC storms. This module makes the fleet a
//! first-class axis: a [`DeviceSet`] instantiates N devices (sharing one
//! `Arc<SsdConfig>` and forking one warm [`DeviceImage`] across all of them),
//! a [`PlacementPolicy`] routes every request of a single trace to
//! exactly one device *ahead of* the host-queue front end, each device runs
//! the existing single-device engine unchanged, and the per-device
//! [`SimReport`]s merge into an [`ArrayReport`] carrying per-device
//! distributions plus array-level tail amplification.
//!
//! On top of placement sits [`Redundancy`]: `replicate(r)` and `ec(k, n)`
//! fan each logical request out to a replica/stripe set (anchored at the
//! placement's primary device) and complete it at the wait-for-k order
//! statistic of its copies' responses — the first of `r` for replicated
//! reads, the k-th for EC reconstruction. [`route_redundant`] also models a
//! mid-run device loss ([`FailurePlan`]): later requests route around the
//! dead device and deterministic rebuild reads land on the survivors,
//! flowing through the same event cores so rebuild interference shows up in
//! per-queue [`GcStalls`] and the tail tables. `Redundancy::None` is the
//! size-1 route set: each request goes to its placement's primary device
//! through the same routing, device runs and merge as every other scheme.
//!
//! # Semantics
//!
//! * Devices are **full-footprint replicas**: every device restores the same
//!   image and serves the same logical address space, so any placement is
//!   admissible and placements can be compared on identical state.
//! * Routing preserves arrival times and per-device arrival order; each
//!   device's sub-trace then replays under the run's own front-end
//!   configuration (so a closed-loop sweep keeps `qd` requests outstanding
//!   *per device*).
//! * Array-level quantiles are **exact**: the merge collects every logical
//!   request's raw response latency from its copies and re-summarizes,
//!   rather than approximating from per-device summaries.
//! * Everything is deterministic: results are bit-identical across reruns,
//!   `--jobs` and device-worker counts, because devices are independent and
//!   merged in fixed device order.

use crate::config::{ConfigError, SsdConfig};
use crate::hostq::HostQueueConfig;
use crate::metrics::{EventCounts, GcStalls, HighWater, LatencySummary, SimReport};
use crate::readflow::RetryController;
use crate::request::{HostRequest, IoOp};
use crate::snapshot::DeviceImage;
use crate::ssd::{SimArena, Ssd};
use rr_util::stats::{OnlineStats, Percentiles};
use rr_util::time::SimTime;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The built-in placement policies, as selected by `--placement`: each
/// routes every request of a trace to one device of an array.
///
/// Routing is a pure function of `(index, request, devices, footprint)`, so
/// it is deterministic and reproducible across reruns and worker counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Exact round-robin striping: request `i` lands on device `i mod N`.
    /// Perfectly balanced per-request, blind to address locality.
    #[default]
    RoundRobin,
    /// LPN-hash placement: a request lands on `splitmix64(lpn) mod N`, so
    /// every access to one logical page consistently hits the same device
    /// (the consistent-hashing analogue of a key-value fleet).
    LpnHash,
    /// Hot/cold tiering: the hot quarter of the address space (`lpn <
    /// footprint/4`) stripes round-robin over the first `⌈N/2⌉` devices, the
    /// cold remainder hashes over the rest. With fewer than two devices the
    /// cold tier is empty and everything lands on the hot tier.
    HotCold,
}

impl PlacementPolicy {
    /// Parses a `--placement` value (`rr`, `hash`, `tier`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "rr" => Some(Self::RoundRobin),
            "hash" => Some(Self::LpnHash),
            "tier" => Some(Self::HotCold),
            _ => None,
        }
    }

    /// The policy's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Self::RoundRobin => "rr",
            Self::LpnHash => "hash",
            Self::HotCold => "tier",
        }
    }

    /// The device (in `0..devices`) that serves request `req`, the
    /// `index`-th request of the trace (0-based, arrival order).
    /// `footprint` is the trace's logical footprint in pages.
    pub fn route(self, index: usize, req: &HostRequest, devices: u32, footprint: u64) -> u32 {
        match self {
            Self::RoundRobin => (index % devices as usize) as u32,
            Self::LpnHash => (splitmix64(req.lpn) % devices as u64) as u32,
            Self::HotCold => {
                let hot = devices.div_ceil(2);
                let cold = devices - hot;
                if cold == 0 || req.lpn < footprint / 4 {
                    (index % hot as usize) as u32
                } else {
                    hot + (splitmix64(req.lpn) % cold as u64) as u32
                }
            }
        }
    }
}

/// SplitMix64: a full-avalanche mix of one `u64`, used so LPN-hash routing
/// does not alias with the FTL's own striding.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---- redundancy ------------------------------------------------------------

/// How logical requests fan out across the array's devices.
///
/// * `None` — every request goes to exactly one device, the placement's
///   primary (a size-1 route set).
/// * `Replicate { r }` — every request is copied to `r` devices; a read
///   completes at the **first** response (read hedging), a write waits for
///   all `r` copies (durability).
/// * `Ec { k, n }` — requests stripe over an `n`-device span; a read fans to
///   `k` stripe members and completes at the **k-th** (last) response (the
///   reconstruction fan-in), a write updates all its targeted members.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Redundancy {
    /// Placement-only routing, one device per request.
    #[default]
    None,
    /// `r`-way replication.
    Replicate {
        /// Copies per request (≥ 2 to be meaningful).
        r: u32,
    },
    /// `k`-of-`n` erasure coding.
    Ec {
        /// Responses a read needs (data shards touched).
        k: u32,
        /// Stripe span in devices.
        n: u32,
    },
}

impl Redundancy {
    /// Parses a `--redundancy` value: `none`, `replicate:R` (R ≥ 2) or
    /// `ec:K:N` (1 ≤ K < N).
    pub fn parse(s: &str) -> Option<Self> {
        if s == "none" {
            return Some(Self::None);
        }
        if let Some(r) = s.strip_prefix("replicate:") {
            let r: u32 = r.parse().ok()?;
            return (r >= 2).then_some(Self::Replicate { r });
        }
        if let Some(kn) = s.strip_prefix("ec:") {
            let (k, n) = kn.split_once(':')?;
            let (k, n): (u32, u32) = (k.parse().ok()?, n.parse().ok()?);
            return (k >= 1 && k < n).then_some(Self::Ec { k, n });
        }
        None
    }

    /// The scheme's CLI name (`none`, `replicate:2`, `ec:2:3`, ...).
    pub fn name(self) -> String {
        match self {
            Self::None => "none".to_string(),
            Self::Replicate { r } => format!("replicate:{r}"),
            Self::Ec { k, n } => format!("ec:{k}:{n}"),
        }
    }

    /// Whether the scheme fans requests out at all.
    pub fn is_redundant(self) -> bool {
        !matches!(self, Self::None)
    }

    /// The replica/stripe set request `req` (the `index`-th of the trace)
    /// fans out to: the placement's primary device plus its successors
    /// (mod `devices`) within the scheme's stripe span, skipping a `failed`
    /// device. The set is a pure function of its arguments — stable across
    /// calls, never larger than the stripe span (`r`, `n`, or 1), never
    /// repeating a device — and degrades deterministically when the failed
    /// device would have been a member: the surviving members keep their
    /// order and the next in-span successor (if any) fills in.
    pub fn route_set(
        self,
        index: usize,
        req: &HostRequest,
        devices: u32,
        footprint: u64,
        placement: PlacementPolicy,
        failed: Option<u32>,
    ) -> Vec<u32> {
        let mut set = Vec::new();
        self.route_set_into(index, req, devices, footprint, placement, failed, &mut set);
        set
    }

    /// [`Self::route_set`] written into `set` (cleared first), so routing a
    /// whole trace reuses one buffer.
    #[allow(clippy::too_many_arguments)]
    fn route_set_into(
        self,
        index: usize,
        req: &HostRequest,
        devices: u32,
        footprint: u64,
        placement: PlacementPolicy,
        failed: Option<u32>,
        set: &mut Vec<u32>,
    ) {
        assert!(devices > 0, "cannot route across zero devices");
        let primary = placement.route(index, req, devices, footprint);
        let (span, width) = match self {
            Self::None => (1, 1),
            Self::Replicate { r } => (devices, r.min(devices)),
            Self::Ec { k, n } => {
                let span = n.min(devices);
                let width = if req.op == IoOp::Read {
                    k.min(span)
                } else {
                    span
                };
                (span, width)
            }
        };
        set.clear();
        set.extend(
            (0..span)
                .map(|j| (primary + j) % devices)
                .filter(|&d| Some(d) != failed)
                .take(width as usize),
        );
        if set.is_empty() {
            // Degenerate single-device array with that device failed: route
            // to the primary anyway so the request is not lost.
            set.push(primary);
        }
    }

    /// How many of a request's `set_len` copies must respond before the
    /// logical request completes: 1 for replicated reads (first copy wins),
    /// all of them otherwise (EC reconstruction fan-in; write durability).
    pub fn wait_for(self, op: IoOp, set_len: usize) -> u32 {
        match self {
            Self::Replicate { .. } if op == IoOp::Read => 1,
            _ => set_len as u32,
        }
    }
}

/// A mid-run device loss: requests arriving at or after `at` route around
/// device `device`, and deterministic rebuild reads are injected across the
/// survivors (see [`route_redundant`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailurePlan {
    /// The device that fails.
    pub device: u32,
    /// Trace time of the failure.
    pub at: SimTime,
}

/// Simulated gap between consecutive rebuild reads injected after a device
/// loss, in µs — a steady background reconstruction stream rather than a
/// single burst.
pub const REBUILD_INTERVAL_US: u64 = 25;

/// Cap on lost logical pages whose reconstruction is injected into the run
/// (the rebuild window that overlaps the trace horizon; a full-device
/// rebuild takes far longer than any trace).
pub const REBUILD_PAGE_CAP: u64 = 2048;

/// Salt decorrelating rebuild-source selection from page placement.
const REBUILD_SALT: u64 = 0xC0DE_D00D_5EED_CAFE;

/// A trace routed under a redundancy scheme (and optional device loss):
/// per-device request streams plus the bookkeeping that lets the merge
/// reassemble each logical request from its copies' responses.
#[derive(Debug, Clone)]
pub struct RedundantRouting {
    /// Per-device request streams (logical copies interleaved with rebuild
    /// reads), each in arrival order.
    device_requests: Vec<Vec<HostRequest>>,
    /// The `(device, position-in-device-stream)` of every issued copy,
    /// logical request by logical request, each in route-set order: one
    /// flat vector, not one per request.
    copies: Vec<(u32, u32)>,
    /// Where each logical request's copies start in `copies`, plus the
    /// total at the end: request `i` owns `copy_start[i]..copy_start[i + 1]`.
    copy_start: Vec<u32>,
    /// Responses to wait for per logical request (the k in wait-for-k).
    wait_for: Vec<u32>,
    /// Whether each logical request is a read.
    is_read: Vec<bool>,
    /// Rebuild reads injected per device.
    rebuild_reads: Vec<u64>,
    /// The scheme the routing was computed under.
    scheme: Redundancy,
    /// The failed device, when the failure fell inside the trace horizon.
    failed: Option<u32>,
    /// Whether the merge attaches [`RedundancyStats`]: the scheme fans out,
    /// or a failure plan was given — even one beyond the trace horizon that
    /// the routing dropped.
    stats: bool,
}

impl RedundantRouting {
    /// Per-device request streams, in device order.
    pub fn device_requests(&self) -> &[Vec<HostRequest>] {
        &self.device_requests
    }

    /// Number of logical requests routed.
    pub fn logical_len(&self) -> usize {
        self.copy_start.len() - 1
    }

    /// The `(device, position)` copies of logical request `i`.
    pub fn copies_of(&self, i: usize) -> &[(u32, u32)] {
        &self.copies[self.copy_start[i] as usize..self.copy_start[i + 1] as usize]
    }

    /// How many of logical request `i`'s copies must respond before it
    /// completes (see [`Redundancy::wait_for`]).
    pub fn wait_for(&self, i: usize) -> u32 {
        self.wait_for[i]
    }

    /// Rebuild reads injected per device (all zero without a failure).
    pub fn rebuild_reads(&self) -> &[u64] {
        &self.rebuild_reads
    }

    /// The failed device, when the failure fell inside the trace horizon.
    pub fn failed_device(&self) -> Option<u32> {
        self.failed
    }
}

/// Routes a trace across `devices` array members under `redundancy` (and an
/// optional mid-run `failure`), producing the per-device request streams
/// and the copy map the merge needs.
///
/// Semantics:
///
/// * Each logical request fans out to [`Redundancy::route_set`]; copies keep
///   the request's arrival time, so per-device streams stay arrival-sorted.
/// * A failure **at or before the trace horizon** (the last request's
///   arrival) makes requests arriving from `failure.at` on route around the
///   failed device, and injects rebuild reads: the failed device's share of
///   the footprint (`splitmix64(lpn) % devices == failed`, capped at
///   [`REBUILD_PAGE_CAP`] pages) is re-read from survivors — one
///   deterministic source per page under `none`/`replicate`, `k` cyclic
///   sources per page under `ec:k:n` (reconstruction fan-in) — spaced
///   [`REBUILD_INTERVAL_US`] apart from `failure.at`.
/// * A failure **beyond the trace horizon** (or on an empty trace, an
///   out-of-range device, or a single-device array) is dropped entirely:
///   the routing is structurally identical to an unfailed one.
/// * Requests already issued before `failure.at` complete normally — the
///   loss is fail-stop for *routing*, modelling a controller that stops
///   sending new I/O to the dead device while in-flight I/O drains.
pub fn route_redundant(
    requests: &[HostRequest],
    devices: u32,
    placement: PlacementPolicy,
    footprint: u64,
    redundancy: Redundancy,
    failure: Option<FailurePlan>,
) -> RedundantRouting {
    assert!(devices > 0, "cannot route across zero devices");
    let stats = redundancy.is_redundant() || failure.is_some();
    let failure = failure.filter(|f| {
        f.device < devices && devices > 1 && requests.last().is_some_and(|r| f.at <= r.arrival)
    });
    // Rebuild schedule: (arrival, sources, lpn), arrival-sorted by
    // construction.
    let mut rebuild: Vec<(SimTime, Vec<u32>, u64)> = Vec::new();
    if let Some(f) = failure {
        let survivors: Vec<u32> = (0..devices).filter(|&d| d != f.device).collect();
        let sources_per_page = match redundancy {
            Redundancy::Ec { k, .. } => (k as usize).clamp(1, survivors.len()),
            _ => 1,
        };
        let mut injected = 0u64;
        for lpn in 0..footprint {
            if injected >= REBUILD_PAGE_CAP {
                break;
            }
            if splitmix64(lpn) % devices as u64 != f.device as u64 {
                continue;
            }
            let arrival = f.at + SimTime::from_us(injected * REBUILD_INTERVAL_US);
            let start = (splitmix64(lpn ^ REBUILD_SALT) % survivors.len() as u64) as usize;
            let sources = (0..sources_per_page)
                .map(|j| survivors[(start + j) % survivors.len()])
                .collect();
            rebuild.push((arrival, sources, lpn));
            injected += 1;
        }
    }
    let mut device_requests: Vec<Vec<HostRequest>> = vec![Vec::new(); devices as usize];
    let mut rebuild_reads = vec![0u64; devices as usize];
    let mut copies = Vec::with_capacity(requests.len());
    let mut copy_start = Vec::with_capacity(requests.len() + 1);
    copy_start.push(0u32);
    let mut set = Vec::new();
    let mut wait_for = Vec::with_capacity(requests.len());
    let mut is_read = Vec::with_capacity(requests.len());
    let mut next_rebuild = 0usize;
    let flush_rebuild = |upto: Option<SimTime>,
                         next_rebuild: &mut usize,
                         device_requests: &mut Vec<Vec<HostRequest>>,
                         rebuild_reads: &mut Vec<u64>| {
        while *next_rebuild < rebuild.len() && upto.is_none_or(|t| rebuild[*next_rebuild].0 < t) {
            let (at, sources, lpn) = &rebuild[*next_rebuild];
            for &d in sources {
                device_requests[d as usize].push(HostRequest::new(*at, IoOp::Read, *lpn, 1));
                rebuild_reads[d as usize] += 1;
            }
            *next_rebuild += 1;
        }
    };
    for (i, r) in requests.iter().enumerate() {
        // Rebuild reads interleave by arrival time (ties: the logical
        // request first, matching `Trace::new`'s stable sort).
        flush_rebuild(
            Some(r.arrival),
            &mut next_rebuild,
            &mut device_requests,
            &mut rebuild_reads,
        );
        let active_fail = failure.filter(|f| r.arrival >= f.at).map(|f| f.device);
        redundancy.route_set_into(i, r, devices, footprint, placement, active_fail, &mut set);
        wait_for.push(redundancy.wait_for(r.op, set.len()));
        is_read.push(r.op == IoOp::Read);
        for &d in &set {
            copies.push((d, device_requests[d as usize].len() as u32));
            device_requests[d as usize].push(*r);
        }
        copy_start.push(u32::try_from(copies.len()).expect("fewer than 2^32 copies"));
    }
    flush_rebuild(
        None,
        &mut next_rebuild,
        &mut device_requests,
        &mut rebuild_reads,
    );
    RedundantRouting {
        device_requests,
        copies,
        copy_start,
        wait_for,
        is_read,
        rebuild_reads,
        scheme: redundancy,
        failed: failure.map(|f| f.device),
        stats,
    }
}

/// Redundancy attribution of one array run: the wait-for-k latency class,
/// which reads the scheme rescued from the slowest device, and the
/// per-device fan-out and rebuild counters.
#[derive(Debug, Clone, PartialEq)]
pub struct RedundancyStats {
    /// Scheme name (`replicate:2`, `ec:2:3`, ...).
    pub scheme: String,
    /// The logical read latency distribution — each read's k-th (or
    /// 1st-of-r) copy response, the wait-for-k latency.
    pub wait_for_k: LatencySummary,
    /// Replicated reads whose copy on the slowest device (worst read p99.9)
    /// was strictly slower than the copy that completed them — reads the
    /// scheme rescued from that device's GC window. EC reads wait for their
    /// whole fan-out, so they never rescue.
    pub rescued_reads: u64,
    /// Total latency those rescued reads avoided, µs (slowest-device copy
    /// minus completing copy, summed).
    pub rescued_saved_us: f64,
    /// Read copies issued per device (fan-out attribution).
    pub fanout_reads: Vec<u64>,
    /// Write copies issued per device.
    pub fanout_writes: Vec<u64>,
    /// Rebuild reads injected per device (all zero without a failure).
    pub rebuild_reads: Vec<u64>,
    /// The failed device, when a failure fell inside the trace horizon.
    pub failed_device: Option<u32>,
}

/// Merged results of one array run: the per-device [`SimReport`]s (device
/// `i` at index `i`) plus exact array-level latency classes and the
/// tail-amplification quantities.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayReport {
    /// Per-device reports, in device order.
    pub devices: Vec<SimReport>,
    /// Exact array-level read latency distribution (all devices' samples).
    pub read_latency: LatencySummary,
    /// Exact array-level write latency distribution.
    pub write_latency: LatencySummary,
    /// Exact array-level distribution of retried reads.
    pub retried_read_latency: LatencySummary,
    /// Response-time statistics over all host requests of all devices.
    pub response_us: OnlineStats,
    /// Response-time statistics over host reads of all devices.
    pub read_response_us: OnlineStats,
    /// Host requests completed across the array.
    pub requests_completed: u64,
    /// Discrete events processed across the array, by kind.
    pub event_kinds: EventCounts,
    /// The highest marks any device's run reached.
    pub high_water: HighWater,
    /// Array makespan: the *slowest* device's makespan (devices run
    /// concurrently in wall-clock terms).
    pub makespan: SimTime,
    /// Redundancy attribution, when the scheme fans requests out or a
    /// failure plan was given (see [`RedundancyStats`]); `None` otherwise.
    pub redundancy: Option<RedundancyStats>,
}

impl ArrayReport {
    /// Merges per-device results (in device order) of a routed run: the
    /// array's latency classes are computed over **logical** requests — each
    /// one the wait-for-k order statistic of its copies' response latencies
    /// — rather than over the per-device copy populations, and
    /// `requests_completed` counts logical requests (per-device completions
    /// exceed it by the fan-out plus any rebuild reads). `per_device` pairs
    /// each device's report with its per-request `(response µs, retried)`
    /// samples, indexed by position in the device's stream.
    ///
    /// Copies replay as independent requests under each device's own front
    /// end, so the order statistic combines per-copy response latencies
    /// (submission-relative) — the standard fork-join approximation of a
    /// hedged read.
    fn merge(per_device: Vec<(SimReport, Vec<(f64, bool)>)>, routing: &RedundantRouting) -> Self {
        let (devices, samples): (Vec<SimReport>, Vec<Vec<(f64, bool)>>) =
            per_device.into_iter().unzip();
        let mut event_kinds = EventCounts::default();
        let mut high_water = HighWater::default();
        let mut makespan = SimTime::ZERO;
        for report in &devices {
            event_kinds += report.event_kinds;
            high_water.merge(report.high_water);
            makespan = makespan.max(report.makespan);
        }
        // The rescue attribution target: the device with the worst read
        // p99.9.
        let slowest = slowest_device(&devices);
        // Each logical request's latency is stored once: a read in
        // `first_try` or `retried`, whose union is the read class.
        let mut first_try = Percentiles::new();
        let mut retried = Percentiles::new();
        let mut writes = Percentiles::new();
        let mut response_us = OnlineStats::new();
        let mut read_response_us = OnlineStats::new();
        let mut fanout_reads = vec![0u64; devices.len()];
        let mut fanout_writes = vec![0u64; devices.len()];
        let mut rescued_reads = 0u64;
        let mut rescued_saved_us = 0.0;
        let mut scratch: Vec<(f64, bool, u32)> = Vec::new();
        for i in 0..routing.logical_len() {
            scratch.clear();
            for &(d, pos) in routing.copies_of(i) {
                let (us, was_retried) = samples[d as usize][pos as usize];
                scratch.push((us, was_retried, d));
            }
            // Stable by latency: ties keep route-set order, so the merge is
            // deterministic.
            scratch.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("latencies are finite"));
            let w = (routing.wait_for[i] as usize).clamp(1, scratch.len());
            let completed = scratch[w - 1].0;
            let retried_any = scratch[..w].iter().any(|c| c.1);
            response_us.push(completed);
            if routing.is_read[i] {
                read_response_us.push(completed);
                if retried_any {
                    retried.push(completed);
                } else {
                    first_try.push(completed);
                }
                for c in &scratch {
                    fanout_reads[c.2 as usize] += 1;
                }
                if w < scratch.len() {
                    if let Some(slow) = slowest {
                        let worst_on_slow = scratch[w..]
                            .iter()
                            .filter(|c| c.2 == slow)
                            .map(|c| c.0)
                            .fold(f64::NEG_INFINITY, f64::max);
                        if worst_on_slow > completed {
                            rescued_reads += 1;
                            rescued_saved_us += worst_on_slow - completed;
                        }
                    }
                }
            } else {
                writes.push(completed);
                for c in &scratch {
                    fanout_writes[c.2 as usize] += 1;
                }
            }
        }
        let retried_read_latency = retried.summary();
        let mut reads = first_try;
        reads.append(&retried);
        // Every logical read is its own wait-for-k completion, so the read
        // class is the wait-for-k class.
        let read_latency = reads.summary();
        let redundancy = routing.stats.then(|| RedundancyStats {
            scheme: routing.scheme.name(),
            wait_for_k: read_latency,
            rescued_reads,
            rescued_saved_us,
            fanout_reads,
            fanout_writes,
            rebuild_reads: routing.rebuild_reads.clone(),
            failed_device: routing.failed,
        });
        Self {
            devices,
            read_latency,
            write_latency: writes.summary(),
            retried_read_latency,
            response_us,
            read_response_us,
            requests_completed: routing.logical_len() as u64,
            event_kinds,
            high_water,
            makespan,
            redundancy,
        }
    }

    /// Number of devices in the array.
    pub fn device_count(&self) -> u32 {
        self.devices.len() as u32
    }

    /// Average response time in µs over all requests of all devices.
    pub fn avg_response_us(&self) -> f64 {
        self.response_us.mean()
    }

    /// Array throughput in kIOPS: total completions over the slowest
    /// device's makespan (devices serve concurrently).
    pub fn kiops(&self) -> f64 {
        let us = self.makespan.as_us_f64();
        if us <= 0.0 {
            0.0
        } else {
            self.requests_completed as f64 / us * 1_000.0
        }
    }

    /// Total GC stalls attributed to device `device` (summed over its host
    /// queues) — the quantity that explains which device's GC storm drives
    /// the array tail.
    pub fn device_gc(&self, device: usize) -> GcStalls {
        let mut total = GcStalls::default();
        for q in &self.devices[device].per_queue {
            total.suspensions += q.gc.suspensions;
            total.preemptions += q.gc.preemptions;
            total.waits += q.gc.waits;
            total.deferrals += q.gc.deferrals;
            total.stall_us += q.gc.stall_us;
        }
        total
    }

    /// The device with the worst read p99.9 (lowest index on ties), or
    /// `None` when no device completed a read — the array-tail culprit.
    pub fn slowest_device(&self) -> Option<u32> {
        slowest_device(&self.devices)
    }

    /// Best (lowest) per-device read quantile: `q99` selects p99, otherwise
    /// p99.9.
    fn best_device_read(&self, q99: bool) -> Option<f64> {
        self.devices
            .iter()
            .filter_map(|d| {
                if q99 {
                    d.read_latency.p99
                } else {
                    d.read_latency.p999
                }
            })
            .min_by(|a, b| a.partial_cmp(b).expect("latencies are finite"))
    }

    /// Median per-device read quantile (lower-middle on even counts, so the
    /// value is always an actual device's quantile).
    fn median_device_read(&self, q99: bool) -> Option<f64> {
        let mut qs: Vec<f64> = self
            .devices
            .iter()
            .filter_map(|d| {
                if q99 {
                    d.read_latency.p99
                } else {
                    d.read_latency.p999
                }
            })
            .collect();
        if qs.is_empty() {
            return None;
        }
        qs.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        Some(qs[(qs.len() - 1) / 2])
    }

    /// Best per-device read p99 (the fastest device's tail).
    pub fn best_device_read_p99(&self) -> Option<f64> {
        self.best_device_read(true)
    }

    /// Best per-device read p99.9.
    pub fn best_device_read_p999(&self) -> Option<f64> {
        self.best_device_read(false)
    }

    /// Median per-device read p99.
    pub fn median_device_read_p99(&self) -> Option<f64> {
        self.median_device_read(true)
    }

    /// Median per-device read p99.9.
    pub fn median_device_read_p999(&self) -> Option<f64> {
        self.median_device_read(false)
    }

    /// Array-tail amplification at p99: the array-level read p99 over the
    /// *best* device's read p99 (≥ 1 by construction when every device saw
    /// reads and requests route to single devices — the fleet can only be
    /// as fast as its fastest member). Under redundancy the numerator is
    /// the **post-redundancy** wait-for-k tail, so replication can push the
    /// ratio *below* 1: hedged reads beat even the best single device.
    pub fn amplification_p99(&self) -> Option<f64> {
        match (self.read_latency.p99, self.best_device_read_p99()) {
            (Some(array), Some(best)) if best > 0.0 => Some(array / best),
            _ => None,
        }
    }

    /// Array-tail amplification at p99.9 (array read p99.9 over the best
    /// device's read p99.9).
    pub fn amplification_p999(&self) -> Option<f64> {
        match (self.read_latency.p999, self.best_device_read_p999()) {
            (Some(array), Some(best)) if best > 0.0 => Some(array / best),
            _ => None,
        }
    }
}

/// The device with the worst read p99.9 among `devices` (lowest index on
/// ties), or `None` when none completed a read.
fn slowest_device(devices: &[SimReport]) -> Option<u32> {
    let mut worst: Option<(u32, f64)> = None;
    for (i, d) in devices.iter().enumerate() {
        if let Some(p) = d.read_latency.p999 {
            if worst.is_none_or(|(_, w)| p > w) {
                worst = Some((i as u32, p));
            }
        }
    }
    worst.map(|(i, _)| i)
}

/// How many device threads an array run should use when an experiment runs
/// `jobs` cells concurrently: the machine's available parallelism split
/// across the cell workers, clamped to `[1, devices]`. It sizes the device
/// pool of each batch (see [`run_array_cells`]), so a run holds at most
/// `jobs × worker_budget(devices, jobs)` simulating threads.
pub fn worker_budget(devices: u32, jobs: usize) -> usize {
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (avail / jobs.max(1)).clamp(1, devices.max(1) as usize)
}

/// Maps `groups` through `f` across `workers` (one thread per worker
/// context, and never more threads than groups), returning results **in
/// input order**. Each worker's context is reused across the groups it
/// claims instead of reallocated per group; each group moves into the
/// call that takes it.
///
/// Workers claim groups from a shared index in input order, so callers
/// that want the longest jobs started first put them first. Each result
/// lands in a slot keyed by its input position, so the output is
/// bit-identical to a serial `groups.into_iter().map(..)` regardless of
/// thread count or scheduling — provided `f` itself is a pure function of
/// its input (no shared mutable state observable in the result). Array runs
/// and experiment grids both guarantee this by seeding each simulator from
/// the configuration alone and by the arena's reset-to-pristine contract.
///
/// # Panics
///
/// Panics if `workers` is empty while `groups` is not.
pub fn parallel_ordered<T: Send, R: Send, C: Send>(
    groups: Vec<T>,
    workers: &mut [C],
    f: impl Fn(&mut C, T) -> R + Sync,
) -> Vec<R> {
    let used = workers.len().min(groups.len().max(1));
    if let [c] = &mut workers[..used] {
        return groups.into_iter().map(|g| f(c, g)).collect();
    }
    let next = AtomicUsize::new(0);
    let groups: Vec<Mutex<Option<T>>> = groups.into_iter().map(|g| Mutex::new(Some(g))).collect();
    let slots: Vec<Mutex<Option<R>>> = groups.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for c in workers[..used].iter_mut() {
            let (next, groups, slots, f) = (&next, &groups, &slots, &f);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(g) = groups.get(i) else {
                    break;
                };
                let g = g
                    .lock()
                    .expect("no worker panicked holding the group lock")
                    .take()
                    .expect("each group is claimed once");
                let r = f(c, g);
                *slots[i]
                    .lock()
                    .expect("no worker panicked holding the slot lock") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panicked holding the slot lock")
                .expect("every slot below the group count was filled")
        })
        .collect()
}

/// One cell of an array batch (see [`run_array_cells`]): a routed trace that
/// every device replays under one configuration, retry controller and
/// front end.
pub struct ArrayCell<'a> {
    /// The configuration every device of the cell runs.
    pub cfg: &'a Arc<SsdConfig>,
    /// Builds one device's retry controller.
    pub make_controller: &'a (dyn Fn() -> Box<dyn RetryController + Send> + Sync),
    /// The trace's logical footprint, pages.
    pub lpn_count: u64,
    /// The routed trace (see [`route_redundant`]).
    pub routing: &'a RedundantRouting,
    /// Every device's front end.
    pub queues: &'a HostQueueConfig,
    /// The per-device warm-start fork from
    /// [`crate::snapshot::ImageBank::fork_for_array`]; `None` cold-starts
    /// every device.
    pub images: Option<&'a [&'a DeviceImage]>,
}

/// Replays a batch of array cells on one pool of device workers (one
/// [`SimArena`] each) and merges every cell into its [`ArrayReport`], in
/// cell order.
///
/// Every (cell, device) replay is one job. Jobs start longest device stream
/// first (ties by cell, then device), so the pool never waits on a long
/// stream that started last, and one cell's short streams fill the gaps
/// its long ones leave. The per-cell merges then run across the same
/// workers. Each replay is seeded from its configuration alone and each
/// merge is a pure function of its device results, so the reports are
/// bit-identical for any worker count and any way of batching the cells.
/// Only this batch's per-request samples are alive at once.
///
/// # Errors
///
/// A typed [`ConfigError`] when a cell's image fork does not hold one slot
/// per routed device, and on any configuration/footprint/image error of a
/// device run (the first in (cell, device) order).
///
/// # Panics
///
/// Panics if `arenas` is empty while some cell routes to a device.
pub fn run_array_cells(
    arenas: &mut [SimArena],
    cells: &[ArrayCell<'_>],
) -> Result<Vec<ArrayReport>, ConfigError> {
    let mut jobs = Vec::new();
    for (c, cell) in cells.iter().enumerate() {
        let devices = cell.routing.device_requests.len();
        if let Some(images) = cell.images.filter(|images| images.len() != devices) {
            return Err(ConfigError::new(format!(
                "the routed trace has {devices} slices but the image fork has {} slots",
                images.len()
            )));
        }
        jobs.extend((0..devices).map(|d| (c, d)));
    }
    let stream = |&(c, d): &(usize, usize)| &cells[c].routing.device_requests[d];
    jobs.sort_by_key(|job| (std::cmp::Reverse(stream(job).len()), *job));
    let replays = parallel_ordered(jobs.clone(), arenas, |arena, job| {
        let cell = &cells[job.0];
        Ssd::run_pooled_queued_collected_from(
            arena,
            Arc::clone(cell.cfg),
            (cell.make_controller)(),
            cell.lpn_count,
            stream(&job),
            cell.queues,
            cell.images.map(|images| images[job.1]),
        )
    });
    let mut per_cell: Vec<Vec<_>> = cells
        .iter()
        .map(|cell| vec![None; cell.routing.device_requests.len()])
        .collect();
    for ((c, d), replay) in jobs.into_iter().zip(replays) {
        per_cell[c][d] = Some(replay);
    }
    let per_cell = per_cell
        .into_iter()
        .map(|devices| {
            devices
                .into_iter()
                .map(|replay| replay.expect("every job ran"))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(ConfigError::new)?;
    let merges = per_cell.into_iter().zip(cells).collect();
    Ok(parallel_ordered(merges, arenas, |_, (per_device, cell)| {
        ArrayReport::merge(per_device, cell.routing)
    }))
}

/// An array's retained simulation state: one [`SimArena`] per device
/// *worker*, not per device, reused run after run (queries after cells).
/// Each worker restores one device's warm image at a time into its arena,
/// so memory grows with the worker count while the device count only sets
/// how many sub-traces a run takes.
#[derive(Debug)]
pub struct DeviceSet {
    devices: u32,
    arenas: Vec<SimArena>,
}

impl DeviceSet {
    /// Creates a device set of `devices` slots.
    ///
    /// # Errors
    ///
    /// A typed [`ConfigError`] when `devices` is zero.
    pub fn new(devices: u32) -> Result<Self, ConfigError> {
        if devices == 0 {
            return Err(ConfigError::new(
                "an array needs at least one device (devices = 0)",
            ));
        }
        Ok(Self {
            devices,
            arenas: Vec::new(),
        })
    }

    /// Number of device slots.
    pub fn devices(&self) -> u32 {
        self.devices
    }

    /// Runs a routed trace (see [`route_redundant`]) across the array: every
    /// device replays its copy/rebuild stream with per-request tracking on,
    /// and the merge reassembles each logical request at its wait-for-k
    /// order statistic into an [`ArrayReport`] (carrying
    /// [`RedundancyStats`] when the routing asks for them).
    ///
    /// This is the one-cell batch of [`run_array_cells`]: its devices start
    /// longest stream first. `images` is the per-device warm-start fork
    /// from [`crate::snapshot::ImageBank::fork_for_array`] (`None`
    /// cold-starts every device); `device_workers` bounds how many devices
    /// simulate concurrently. Results are invariant to `device_workers`.
    ///
    /// `shard_workers` must be 0, the serial engine: the channel-sharded
    /// engine it once selected was removed. The parameter stays only because
    /// `perfbench/src/adapter.rs`'s layer-by-layer run passes the literal 0.
    ///
    /// # Errors
    ///
    /// A typed [`ConfigError`] when `shard_workers` is nonzero, on a
    /// device-count mismatch between this set and the routing or the image
    /// fork, and on any configuration/footprint/image error of a device run.
    #[allow(clippy::too_many_arguments)]
    pub fn run_redundant_from(
        &mut self,
        cfg: &Arc<SsdConfig>,
        make_controller: &(dyn Fn() -> Box<dyn RetryController + Send> + Sync),
        lpn_count: u64,
        routing: &RedundantRouting,
        queues: &HostQueueConfig,
        images: Option<&[&DeviceImage]>,
        shard_workers: usize,
        device_workers: usize,
    ) -> Result<ArrayReport, ConfigError> {
        if shard_workers != 0 {
            return Err(ConfigError::new(format!(
                "shard_workers = {shard_workers}: the channel-sharded engine was removed; pass 0"
            )));
        }
        let n = self.devices as usize;
        let slices = routing.device_requests.len();
        if slices != n {
            return Err(ConfigError::new(format!(
                "device set holds {n} devices but the routed trace has {slices} slices"
            )));
        }
        let workers = device_workers.clamp(1, n);
        if self.arenas.len() < workers {
            self.arenas.resize_with(workers, SimArena::new);
        }
        let cell = ArrayCell {
            cfg,
            make_controller,
            lpn_count,
            routing,
            queues,
            images,
        };
        let mut reports = run_array_cells(&mut self.arenas[..workers], &[cell])?;
        Ok(reports.pop().expect("one report per cell"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_util::time::SimTime;

    fn reqs(n: usize) -> Vec<HostRequest> {
        (0..n)
            .map(|i| {
                HostRequest::new(
                    SimTime::from_us(10 * i as u64),
                    crate::request::IoOp::Read,
                    (i as u64 * 37) % 1000,
                    1,
                )
            })
            .collect()
    }

    /// The device each request's size-1 `none` route set lands on.
    fn primaries(r: &[HostRequest], devices: u32, policy: PlacementPolicy) -> Vec<u32> {
        let routing = route_redundant(r, devices, policy, 1000, Redundancy::None, None);
        (0..routing.logical_len())
            .map(|i| match routing.copies_of(i) {
                [(d, _)] => *d,
                copies => panic!("request {i} has {} copies under none", copies.len()),
            })
            .collect()
    }

    #[test]
    fn stripe_is_exact_round_robin() {
        let r = reqs(64);
        let routed = primaries(&r, 4, PlacementPolicy::RoundRobin);
        for (i, d) in routed.iter().enumerate() {
            assert_eq!(*d, (i % 4) as u32);
        }
    }

    #[test]
    fn every_placement_routes_to_exactly_one_valid_device() {
        let r = reqs(200);
        for policy in [
            PlacementPolicy::RoundRobin,
            PlacementPolicy::LpnHash,
            PlacementPolicy::HotCold,
        ] {
            for devices in [1, 2, 3, 5] {
                let routed = primaries(&r, devices, policy);
                assert_eq!(routed.len(), r.len());
                assert!(routed.iter().all(|&d| d < devices));
            }
        }
    }

    #[test]
    fn hash_is_stable_and_lpn_consistent() {
        let r = reqs(200);
        let a = primaries(&r, 3, PlacementPolicy::LpnHash);
        let b = primaries(&r, 3, PlacementPolicy::LpnHash);
        assert_eq!(a, b);
        // Same LPN → same device, independent of request index.
        for (i, x) in r.iter().enumerate() {
            for (j, y) in r.iter().enumerate() {
                if x.lpn == y.lpn {
                    assert_eq!(a[i], a[j], "requests {i} and {j} share lpn {}", x.lpn);
                }
            }
        }
    }

    #[test]
    fn tier_splits_hot_and_cold_address_ranges() {
        let hot = HostRequest::new(SimTime::ZERO, crate::request::IoOp::Read, 10, 1);
        let cold = HostRequest::new(SimTime::ZERO, crate::request::IoOp::Read, 900, 1);
        for devices in [2u32, 3, 4, 5] {
            let hot_set = devices.div_ceil(2);
            for index in 0..8 {
                let d = PlacementPolicy::HotCold.route(index, &hot, devices, 1000);
                assert!(d < hot_set, "hot lpn on cold device {d} of {devices}");
                let d = PlacementPolicy::HotCold.route(index, &cold, devices, 1000);
                assert!(d >= hot_set, "cold lpn on hot device {d} of {devices}");
            }
        }
    }

    #[test]
    fn placement_policy_parses_cli_names() {
        assert_eq!(
            PlacementPolicy::parse("rr"),
            Some(PlacementPolicy::RoundRobin)
        );
        assert_eq!(
            PlacementPolicy::parse("hash"),
            Some(PlacementPolicy::LpnHash)
        );
        assert_eq!(
            PlacementPolicy::parse("tier"),
            Some(PlacementPolicy::HotCold)
        );
        assert_eq!(PlacementPolicy::parse("zipf"), None);
        assert_eq!(PlacementPolicy::RoundRobin.name(), "rr");
        assert_eq!(PlacementPolicy::default(), PlacementPolicy::RoundRobin);
    }

    #[test]
    fn redundancy_parses_cli_names() {
        assert_eq!(Redundancy::parse("none"), Some(Redundancy::None));
        assert_eq!(
            Redundancy::parse("replicate:2"),
            Some(Redundancy::Replicate { r: 2 })
        );
        assert_eq!(
            Redundancy::parse("ec:2:3"),
            Some(Redundancy::Ec { k: 2, n: 3 })
        );
        for bad in [
            "replicate:1",
            "ec:3:3",
            "ec:0:2",
            "mirror",
            "",
            "replicate:x",
        ] {
            assert_eq!(Redundancy::parse(bad), None, "{bad:?} must be rejected");
        }
        for good in ["none", "replicate:2", "ec:2:3"] {
            assert_eq!(
                Redundancy::parse(good).map(Redundancy::name),
                Some(good.into())
            );
        }
        assert_eq!(Redundancy::default(), Redundancy::None);
    }

    #[test]
    fn device_set_rejects_zero_devices_and_slice_mismatch() {
        assert!(DeviceSet::new(0).is_err());
        let mut set = DeviceSet::new(2).unwrap();
        let cfg = Arc::new(SsdConfig::scaled_for_tests());
        let routing = route_redundant(
            &reqs(4),
            1,
            PlacementPolicy::RoundRobin,
            1000,
            Redundancy::None,
            None,
        );
        let err = set
            .run_redundant_from(
                &cfg,
                &|| Box::new(crate::readflow::BaselineController::new()),
                1000,
                &routing,
                &HostQueueConfig::single(crate::replay::ReplayMode::OpenLoop),
                None,
                0,
                1,
            )
            .unwrap_err();
        assert!(err.to_string().contains("2 devices"), "{err}");
    }
}
