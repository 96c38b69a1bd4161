//! NVMe-style multi-queue host front end: per-core submission queues with
//! device-side round-robin / weighted-round-robin arbitration.
//!
//! The single load generator of [`crate::replay`] models *one* host thread. Real
//! NVMe hosts run one submission/completion queue pair per core, and the
//! device controller fetches commands from those queues under an arbitration
//! policy — which means requests can queue up *host-side* before the device
//! ever sees them, and that waiting is part of the latency the host observes.
//! This module adds that layer:
//!
//! * [`HostQueueConfig`] — the queue topology: N queues, each replaying its
//!   stripe of the trace under its own [`ReplayMode`] (open-loop,
//!   rate-scaled, or closed-loop per queue) with an arbitration weight;
//! * a device-side [`Arbiter`] (see [`crate::scheduler`]) — round-robin or
//!   weighted-round-robin with a configurable burst size;
//! * an optional device **admission window** — the maximum number of
//!   requests the device keeps in flight across all queues. A finite window
//!   is what makes arbitration bite: submissions beyond it wait in their
//!   submission queue, and that wait shows up in the per-queue tail
//!   distributions ([`crate::metrics::SimReport::per_queue`]).
//!
//! Requests are striped round-robin over the queues (request *i* → queue
//! *i mod N*), preserving trace order within each queue; same-tick admissions
//! therefore drain each queue's backlog in trace order, and the arbiter's
//! deterministic rotation fixes the cross-queue order, so runs are
//! bit-reproducible regardless of worker threads.
//!
//! A single-queue round-robin configuration with no window degenerates to
//! exactly the plain [`ReplayMode`] replay — `tests/hotpath_equiv.rs` asserts
//! the reports are bit-identical.
//!
//! # Example
//!
//! ```
//! use rr_sim::config::{ArbPolicy, SsdConfig};
//! use rr_sim::hostq::HostQueueConfig;
//! use rr_sim::readflow::BaselineController;
//! use rr_sim::replay::ReplayMode;
//! use rr_sim::request::{HostRequest, IoOp};
//! use rr_sim::ssd::Ssd;
//! use rr_util::time::SimTime;
//!
//! let cfg = SsdConfig::scaled_for_tests();
//! let trace: Vec<_> = (0..16)
//!     .map(|i| HostRequest::new(SimTime::ZERO, IoOp::Read, i * 11, 1))
//!     .collect();
//! // Two closed-loop queues, WRR 3:1, at most 4 requests in the device.
//! let queues = HostQueueConfig::uniform(2, ReplayMode::closed_loop(4))
//!     .with_arb(ArbPolicy::WeightedRoundRobin)
//!     .with_weights(&[3, 1])
//!     .with_window(4);
//! let ssd = Ssd::new(cfg, Box::new(BaselineController::new()), 1_000).unwrap();
//! let report = ssd.run_with_queues(&trace, &queues);
//! assert_eq!(report.requests_completed, 16);
//! assert_eq!(report.per_queue.len(), 2);
//! assert_eq!(report.per_queue[0].completed, 8);
//! ```

use crate::config::{ArbPolicy, ConfigError};
use crate::replay::{LoadGenerator, ReplayMode};
use crate::request::{HostRequest, ReqId};
use crate::scheduler::Arbiter;
use rr_util::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One submission/completion queue pair of the host front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueSpec {
    /// How this queue's stripe of the trace is replayed.
    pub mode: ReplayMode,
    /// Weighted-round-robin weight (≥ 1; ignored under plain round-robin).
    pub weight: u32,
}

impl QueueSpec {
    /// A weight-1 queue replaying under `mode`.
    pub fn new(mode: ReplayMode) -> Self {
        Self { mode, weight: 1 }
    }
}

/// Topology and arbitration knobs of the multi-queue host front end.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostQueueConfig {
    /// The submission queues; request *i* of the trace goes to queue
    /// *i mod N*.
    pub queues: Vec<QueueSpec>,
    /// How the device drains the queues.
    pub arb: ArbPolicy,
    /// Consecutive commands fetched from one queue per arbitration credit
    /// (≥ 1); weighted queues get `weight × burst` per turn.
    pub burst: u32,
    /// Device-wide cap on in-flight requests (`None` = unbounded). Finite
    /// windows make submissions wait host-side, which is what surfaces
    /// host queueing in the per-queue tails.
    pub window: Option<u32>,
}

impl HostQueueConfig {
    /// The degenerate single-queue front end: one queue, round-robin, no
    /// window — bit-identical to replaying `mode` directly.
    pub fn single(mode: ReplayMode) -> Self {
        Self {
            queues: vec![QueueSpec::new(mode)],
            arb: ArbPolicy::RoundRobin,
            burst: 1,
            window: None,
        }
    }

    /// `n` identical weight-1 queues all replaying under `mode`, round-robin,
    /// no window. Adjust with the `with_*` builders.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn uniform(n: u32, mode: ReplayMode) -> Self {
        assert!(n >= 1, "at least one host queue is required");
        Self {
            queues: vec![QueueSpec::new(mode); n as usize],
            ..Self::single(mode)
        }
    }

    /// Sets the arbitration policy (builder-style).
    pub fn with_arb(mut self, arb: ArbPolicy) -> Self {
        self.arb = arb;
        self
    }

    /// Sets the arbitration burst size (builder-style).
    pub fn with_burst(mut self, burst: u32) -> Self {
        self.burst = burst;
        self
    }

    /// Sets the device admission window (builder-style).
    pub fn with_window(mut self, window: u32) -> Self {
        self.window = Some(window);
        self
    }

    /// Sets per-queue weights (builder-style; lengths must match).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the queue count.
    pub fn with_weights(mut self, weights: &[u32]) -> Self {
        assert_eq!(
            weights.len(),
            self.queues.len(),
            "one weight per host queue"
        );
        for (q, &w) in self.queues.iter_mut().zip(weights) {
            q.weight = w;
        }
        self
    }

    /// Number of submission queues.
    pub fn queue_count(&self) -> usize {
        self.queues.len()
    }

    /// Validates the front-end configuration.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency: no queues, an invalid per-queue
    /// replay mode, a zero burst/weight, or a zero window.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.queues.is_empty() {
            return Err(ConfigError::new("at least one host queue is required"));
        }
        // Queue indices travel as u16 through requests and metrics.
        if self.queues.len() > u16::MAX as usize {
            return Err(ConfigError::new(format!(
                "at most {} host queues are supported, got {}",
                u16::MAX,
                self.queues.len()
            )));
        }
        for (i, q) in self.queues.iter().enumerate() {
            q.mode
                .validate()
                .map_err(|e| ConfigError::new(format!("host queue {i}: {e}")))?;
            if q.weight < 1 {
                return Err(ConfigError::new(format!(
                    "host queue {i}: weight must be at least 1"
                )));
            }
        }
        if self.burst < 1 {
            return Err(ConfigError::new("arbitration burst must be at least 1"));
        }
        if self.window == Some(0) {
            return Err(ConfigError::new(
                "device admission window must be at least 1 (or unbounded)",
            ));
        }
        Ok(())
    }
}

/// One host queue at run time: its load generator plus the submission queue
/// holding submitted-but-not-yet-admitted requests.
#[derive(Debug)]
struct SqState {
    generator: LoadGenerator,
    sq: VecDeque<ReqId>,
}

/// The multi-queue host front end driving one replay: per-queue generators
/// feeding per-queue submission queues, drained through the device-side
/// [`Arbiter`] under the admission window.
///
/// The front end shares the simulator's one event heap, transaction slab,
/// and arena — queues are striped views of the single trace, never clones of
/// the simulation state.
#[derive(Debug)]
pub(crate) struct FrontEnd {
    queues: Vec<SqState>,
    arb: Arbiter,
    window: Option<u32>,
    in_flight: u32,
}

impl FrontEnd {
    /// A front end with nothing to admit (the simulator's pre-run state).
    pub(crate) fn idle() -> Self {
        Self {
            queues: vec![SqState {
                generator: LoadGenerator::idle(),
                sq: VecDeque::new(),
            }],
            arb: Arbiter::new(ArbPolicy::RoundRobin, 1, vec![1]),
            window: None,
            in_flight: 0,
        }
    }

    /// Builds the front end for `cfg` over `trace` and returns the
    /// submissions to schedule immediately, each as
    /// `(queue, submission time, request)` — per-queue initial windows in
    /// queue order, exactly what each queue's [`LoadGenerator`] hands out.
    pub(crate) fn start(
        cfg: &HostQueueConfig,
        trace: &[HostRequest],
    ) -> (Self, Vec<(u16, SimTime, HostRequest)>) {
        let n = cfg.queues.len();
        let mut queues = Vec::with_capacity(n);
        let mut initial = Vec::new();
        let mut start_queue = |q: usize, stripe: &[HostRequest]| {
            let (generator, first) = LoadGenerator::start(cfg.queues[q].mode, stripe);
            initial.extend(first.into_iter().map(|(at, r)| (q as u16, at, r)));
            queues.push(SqState {
                generator,
                sq: VecDeque::new(),
            });
        };
        if n == 1 {
            // The default single-queue path feeds the generator straight
            // from the trace slice — no stripe copy on the hot path.
            start_queue(0, trace);
        } else {
            let mut stripes: Vec<Vec<HostRequest>> =
                vec![Vec::with_capacity(trace.len() / n + 1); n];
            for (i, &r) in trace.iter().enumerate() {
                stripes[i % n].push(r);
            }
            for (q, stripe) in stripes.iter().enumerate() {
                start_queue(q, stripe);
            }
        }
        let weights = cfg.queues.iter().map(|q| q.weight).collect();
        (
            Self {
                queues,
                arb: Arbiter::new(cfg.arb, cfg.burst, weights),
                window: cfg.window,
                in_flight: 0,
            },
            initial,
        )
    }

    /// A submission of `queue` was processed; returns the queue's next
    /// open-loop arrival to schedule (its timestamps are non-decreasing).
    pub(crate) fn next_arrival(&mut self, queue: u16) -> Option<(SimTime, HostRequest)> {
        self.queues[queue as usize].generator.next_arrival()
    }

    /// Parks a submitted request in its queue's submission queue until the
    /// arbiter admits it.
    pub(crate) fn enqueue(&mut self, queue: u16, req: ReqId) {
        self.queues[queue as usize].sq.push_back(req);
    }

    /// Admits the next request if the window has room and any submission
    /// queue has work, consulting the arbiter for the queue order.
    pub(crate) fn try_admit(&mut self) -> Option<ReqId> {
        if let Some(w) = self.window {
            if self.in_flight >= w {
                return None;
            }
        }
        let Self { queues, arb, .. } = self;
        let picked = arb.pick(|q| !queues[q].sq.is_empty())?;
        let req = queues[picked]
            .sq
            .pop_front()
            .expect("arbiter picked a backlogged queue");
        self.in_flight += 1;
        Some(req)
    }

    /// A request of `queue` completed: frees its window slot and returns the
    /// queue's next closed-loop submission, if any.
    pub(crate) fn complete(&mut self, queue: u16) -> Option<HostRequest> {
        debug_assert!(self.in_flight > 0, "completion without an admission");
        self.in_flight -= 1;
        self.queues[queue as usize].generator.on_completion()
    }

    /// Requests the generators have not yet handed out.
    pub(crate) fn pending_submissions(&self) -> usize {
        self.queues.iter().map(|q| q.generator.pending_len()).sum()
    }

    /// Requests parked in submission queues awaiting admission.
    pub(crate) fn parked(&self) -> usize {
        self.queues.iter().map(|q| q.sq.len()).sum()
    }

    /// Requests admitted to the device and not yet completed.
    pub(crate) fn in_flight(&self) -> u32 {
        self.in_flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::IoOp;

    fn trace(n: u64) -> Vec<HostRequest> {
        (0..n)
            .map(|i| HostRequest::new(SimTime::from_us(100 * i), IoOp::Read, i, 1))
            .collect()
    }

    #[test]
    fn validation_rejects_bad_topologies() {
        let ok = HostQueueConfig::uniform(2, ReplayMode::closed_loop(4));
        assert!(ok.validate().is_ok());
        let empty = HostQueueConfig {
            queues: vec![],
            ..HostQueueConfig::single(ReplayMode::OpenLoop)
        };
        assert!(empty.validate().is_err());
        let zero_burst = HostQueueConfig::single(ReplayMode::OpenLoop).with_burst(0);
        assert!(zero_burst.validate().is_err());
        let zero_window = HostQueueConfig::single(ReplayMode::OpenLoop).with_window(0);
        assert!(zero_window.validate().is_err());
        let mut zero_weight = HostQueueConfig::uniform(2, ReplayMode::OpenLoop);
        zero_weight.queues[1].weight = 0;
        assert!(zero_weight.validate().is_err());
        let bad_mode = HostQueueConfig::single(ReplayMode::ClosedLoop { queue_depth: 0 });
        assert!(bad_mode.validate().is_err());
        // Queue indices travel as u16: counts beyond u16::MAX are rejected.
        let too_many = HostQueueConfig {
            queues: vec![QueueSpec::new(ReplayMode::OpenLoop); u16::MAX as usize + 1],
            ..HostQueueConfig::single(ReplayMode::OpenLoop)
        };
        assert!(too_many.validate().is_err());
    }

    #[test]
    fn striping_preserves_per_queue_trace_order() {
        let t = trace(6);
        let cfg = HostQueueConfig::uniform(2, ReplayMode::closed_loop(8));
        let (front, initial) = FrontEnd::start(&cfg, &t);
        assert_eq!(front.queues.len(), 2);
        // Queue 0 gets requests 0, 2, 4; queue 1 gets 1, 3, 5 — submitted
        // per queue in trace order, all at t = 0 (closed loop).
        let q0: Vec<u64> = initial
            .iter()
            .filter(|&&(q, _, _)| q == 0)
            .map(|&(_, _, r)| r.lpn)
            .collect();
        let q1: Vec<u64> = initial
            .iter()
            .filter(|&&(q, _, _)| q == 1)
            .map(|&(_, _, r)| r.lpn)
            .collect();
        assert_eq!(q0, vec![0, 2, 4]);
        assert_eq!(q1, vec![1, 3, 5]);
        assert!(initial.iter().all(|&(_, at, _)| at == SimTime::ZERO));
    }

    #[test]
    fn window_caps_admissions_until_completions() {
        let t = trace(6);
        let cfg = HostQueueConfig::uniform(2, ReplayMode::closed_loop(8)).with_window(2);
        let (mut front, initial) = FrontEnd::start(&cfg, &t);
        for (i, &(q, _, _)) in initial.iter().enumerate() {
            front.enqueue(q, ReqId(i as u32));
        }
        assert_eq!(front.parked(), 6);
        // Only two admissions fit the window; RR alternates queues 0, 1.
        assert!(front.try_admit().is_some());
        assert!(front.try_admit().is_some());
        assert_eq!(front.try_admit(), None);
        assert_eq!(front.in_flight(), 2);
        assert_eq!(front.parked(), 4);
        // A completion frees one slot.
        assert_eq!(front.complete(0), None); // trace fits the per-queue QD
        assert!(front.try_admit().is_some());
        assert_eq!(front.try_admit(), None);
    }

    #[test]
    fn open_loop_queues_feed_arrivals_lazily_per_queue() {
        let t = trace(4);
        let cfg = HostQueueConfig::uniform(2, ReplayMode::OpenLoop);
        let (mut front, initial) = FrontEnd::start(&cfg, &t);
        // One eagerly scheduled arrival per queue.
        assert_eq!(initial.len(), 2);
        // Queue 0's next is request 2 (t = 200 µs); queue 1's is request 3.
        assert_eq!(front.next_arrival(0), Some((SimTime::from_us(200), t[2])));
        assert_eq!(front.next_arrival(1), Some((SimTime::from_us(300), t[3])));
        assert_eq!(front.next_arrival(0), None);
        assert_eq!(front.pending_submissions(), 0);
    }
}
