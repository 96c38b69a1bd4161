//! Die- and channel-level command scheduling state machines.
//!
//! This module holds the per-resource state the SSD orchestrator
//! ([`crate::ssd::Ssd`]) schedules over:
//!
//! * `DieState` (crate-private) — one flash die: the currently executing
//!   `DieJob`, three priority queues (P0 retry continuations, P1 first
//!   sensings, P2 programs/erases), program/erase suspension, and the die's
//!   installed sensing phases;
//! * `ChannelState` (crate-private) — one channel: a DMA bus (tDMA per
//!   page) and a dedicated ECC decoder (tECC per page), both first come,
//!   first served, so sensing on one die can overlap a transfer and a decode
//!   of other pages (Fig. 6). Neither server is ever preempted or cancelled,
//!   so the channel is two free-at times and a page's landing and decode-end
//!   times are fixed when it is booked;
//! * `Event` (crate-private) — the discrete-event vocabulary connecting
//!   them.
//!
//! Die-level scheduling priorities (enforced by `Ssd::pump_die`):
//!
//! 1. **P0** — continuations of in-flight read-retry operations (retry
//!    sensings, `SET FEATURE`, pipelined `CACHE READ`s). A read owns its die
//!    for the duration of its retry operation, as prior work assumes
//!    (paper footnote 10).
//! 2. **P1** — first sensings of host/GC reads.
//! 3. resume of a suspended program/erase;
//! 4. **P2** — programs and erases (suspendable; GC ops jump ahead when a
//!    plane runs critically low on free blocks).
//!
//! Generation counters (`gen`) make stale completion events cancellable: any
//! state change that invalidates the in-flight `DieDone` (suspension, RESET)
//! bumps the counter, and the handler drops events whose `gen` mismatches.

use crate::config::ArbPolicy;
use crate::request::{ReqId, TxnId};
use rr_flash::calibration::Reductions;
use rr_flash::error_model::reductions_of;
use rr_flash::timing::SensePhases;
use rr_util::time::SimTime;
use std::collections::VecDeque;

/// The device-side host-queue arbiter: decides which submission queue the
/// controller fetches its next command from (NVMe §4.13-style round-robin /
/// weighted-round-robin).
///
/// The arbiter is a pure turn-taking state machine — it holds no queue
/// contents, only the rotation cursor and the credits left in the current
/// queue's turn — so the multi-queue front end ([`crate::hostq`]) can consult
/// it against whatever backlog predicate the admission path has. Turns are
/// credit-based: queue `q` may fetch up to `burst` (round-robin) or
/// `weight_q × burst` (weighted) consecutive commands before the cursor
/// rotates; a queue with no fetchable command forfeits the rest of its turn
/// (work-conserving), and a queue is never skipped while it still has both
/// credits and work — which bounds starvation to one full rotation.
///
/// # Example
///
/// ```
/// use rr_sim::config::ArbPolicy;
/// use rr_sim::scheduler::Arbiter;
///
/// // Weights 3:1, burst 1: the drain pattern is q0 q0 q0 q1 …
/// let mut arb = Arbiter::new(ArbPolicy::WeightedRoundRobin, 1, vec![3, 1]);
/// let picks: Vec<usize> = (0..8).map(|_| arb.pick(|_| true).unwrap()).collect();
/// assert_eq!(picks, vec![0, 0, 0, 1, 0, 0, 0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct Arbiter {
    policy: ArbPolicy,
    burst: u32,
    weights: Vec<u32>,
    current: usize,
    credits: u32,
}

impl Arbiter {
    /// Creates an arbiter over `weights.len()` queues. Weights are ignored
    /// under plain round-robin.
    ///
    /// # Panics
    ///
    /// Panics if there are no queues, `burst` is zero, or any weight is zero.
    pub fn new(policy: ArbPolicy, burst: u32, weights: Vec<u32>) -> Self {
        assert!(!weights.is_empty(), "arbiter needs at least one queue");
        assert!(burst >= 1, "arbitration burst must be at least 1");
        assert!(
            weights.iter().all(|&w| w >= 1),
            "arbitration weights must be at least 1"
        );
        let mut arb = Self {
            policy,
            burst,
            weights,
            current: 0,
            credits: 0,
        };
        arb.credits = arb.allowance(0);
        arb
    }

    /// Number of queues under arbitration.
    pub fn queues(&self) -> usize {
        self.weights.len()
    }

    /// Commands queue `q` may fetch per turn.
    fn allowance(&self, q: usize) -> u32 {
        match self.policy {
            ArbPolicy::RoundRobin => self.burst,
            ArbPolicy::WeightedRoundRobin => self.weights[q].saturating_mul(self.burst),
        }
    }

    /// Picks the queue to fetch the next command from, given which queues
    /// currently have a fetchable command, and consumes one credit from it.
    /// Returns `None` when no queue has work.
    pub fn pick(&mut self, has_work: impl Fn(usize) -> bool) -> Option<usize> {
        let n = self.queues();
        // `n + 1` visits: the current queue may start with zero credits left
        // in its turn, in which case the full rotation must come back around
        // to it with a fresh allowance.
        for _ in 0..=n {
            if self.credits > 0 && has_work(self.current) {
                self.credits -= 1;
                return Some(self.current);
            }
            self.current = (self.current + 1) % n;
            self.credits = self.allowance(self.current);
        }
        None
    }
}

/// Simulator events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// A host request is admitted to the device.
    Arrive(ReqId),
    /// The die's current operation finishes (stale if `gen` mismatches).
    DieDone { die: u32, gen: u64 },
    /// A write's data has crossed the channel; programming starts.
    DataLoaded { txn: TxnId },
    /// The ECC decoder finishes read step `step` of `txn`; `decodes` is the
    /// verdict the error model gave when the step's sensing started. The
    /// failed last step of a walk whose end the controller answered when
    /// its sense completed delivers that answer.
    EccDone {
        txn: TxnId,
        step: u32,
        decodes: bool,
    },
}

/// Operations a read flow queues on its die (P0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueuedOp {
    Sense { step: u32 },
    SetFeature { phases: Option<SensePhases> },
}

/// What a die is currently executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DieJob {
    /// Sensing of retry step `step`; `decodes` is the ECC verdict on the
    /// data it leaves, settled under the phases installed when it started.
    Sense {
        txn: TxnId,
        step: u32,
        decodes: bool,
    },
    SetFeature {
        txn: TxnId,
    },
    Reset {
        txn: TxnId,
    },
    /// Write waiting for its data transfer (busy_until = MAX) or programming.
    Program {
        txn: TxnId,
        data_loaded: bool,
    },
    Erase {
        txn: TxnId,
    },
    Suspending,
}

/// One flash die: current job, priority queues, suspension state.
#[derive(Debug)]
pub(crate) struct DieState {
    pub(crate) busy_until: SimTime,
    pub(crate) gen: u64,
    pub(crate) job: Option<DieJob>,
    /// The read transaction whose retry operation currently holds this die.
    ///
    /// A read-retry operation owns its die from dispatch until completion
    /// (incl. trailing RESET / SET FEATURE rollback): prior work models retry
    /// steps of one page as sequential on the die (paper footnote 10), and
    /// exclusive ownership is also what keeps one read's `SET FEATURE` from
    /// contaminating another read's sensing on the same die.
    pub(crate) owner: Option<TxnId>,
    pub(crate) p0: VecDeque<(TxnId, QueuedOp)>,
    pub(crate) p1: VecDeque<TxnId>,
    pub(crate) p2: VecDeque<TxnId>,
    pub(crate) suspended: Option<(DieJob, SimTime)>,
    /// The installed sensing phases; only `install` changes them, so
    /// `reductions` always matches.
    phases: SensePhases,
    /// `phases` as the error model's [`reductions_of`] Table 1, resolved once
    /// per install instead of on every sense.
    reductions: Reductions,
    /// The phases and reductions the last install replaced. AR² and PnAR²
    /// flip a die between its default and one reduced timing, so a flip
    /// back reuses them instead of resolving `reductions_of` again.
    previous: (SensePhases, Reductions),
}

impl DieState {
    pub(crate) fn new(phases: SensePhases) -> Self {
        let reductions = reductions_of(&phases);
        Self {
            busy_until: SimTime::ZERO,
            gen: 0,
            job: None,
            owner: None,
            p0: VecDeque::new(),
            p1: VecDeque::new(),
            p2: VecDeque::new(),
            suspended: None,
            phases,
            reductions,
            previous: (phases, reductions),
        }
    }

    /// The installed sensing phases.
    pub(crate) fn phases(&self) -> SensePhases {
        self.phases
    }

    /// The installed phases' reduction fractions vs Table 1.
    pub(crate) fn reductions(&self) -> &Reductions {
        &self.reductions
    }

    /// Applies a `SET FEATURE`: installs `phases`, or rolls back to
    /// `default` when `phases` is `None`.
    pub(crate) fn set_feature(&mut self, phases: Option<SensePhases>, default: SensePhases) {
        self.install(phases.unwrap_or(default));
    }

    fn install(&mut self, phases: SensePhases) {
        if phases == self.phases {
            return;
        }
        let reductions = if phases == self.previous.0 {
            self.previous.1
        } else {
            reductions_of(&phases)
        };
        self.previous = (self.phases, self.reductions);
        self.phases = phases;
        self.reductions = reductions;
    }

    /// Returns the die to its pristine state while keeping queue allocations —
    /// the arena path reuses one `DieState` set across simulation runs.
    pub(crate) fn reset(&mut self, phases: SensePhases) {
        self.busy_until = SimTime::ZERO;
        self.gen = 0;
        self.job = None;
        self.owner = None;
        self.p0.clear();
        self.p1.clear();
        self.p2.clear();
        self.suspended = None;
        self.install(phases);
    }

    /// A die is busy until its completion event has been *handled* (the job
    /// cleared) — treating `now >= busy_until` as idle would let a
    /// same-timestamp event clobber a job whose `DieDone` hasn't fired yet.
    pub(crate) fn idle(&self) -> bool {
        self.job.is_none()
    }

    /// Starts `job`, running until `until`; returns the generation the
    /// caller must attach to the completion event.
    pub(crate) fn begin(&mut self, job: DieJob, until: SimTime) -> u64 {
        self.job = Some(job);
        self.gen += 1;
        self.busy_until = until;
        self.gen
    }

    /// Suspends the in-flight program/erase if doing so buys more than
    /// `min_benefit` of read latency (§7.2). On success the die runs a
    /// [`DieJob::Suspending`] job for `t_suspend` and the caller schedules
    /// its completion with the returned generation.
    pub(crate) fn try_suspend(
        &mut self,
        now: SimTime,
        min_benefit: SimTime,
        t_suspend: SimTime,
    ) -> Option<u64> {
        let suspendable = matches!(
            self.job,
            Some(DieJob::Program {
                data_loaded: true,
                ..
            }) | Some(DieJob::Erase { .. })
        );
        if !suspendable || self.suspended.is_some() || self.busy_until == SimTime::MAX {
            return None;
        }
        let remaining = self.busy_until.saturating_sub(now);
        if remaining <= min_benefit {
            return None;
        }
        let job = self.job.take().expect("checked suspendable");
        self.suspended = Some((job, remaining));
        Some(self.begin(DieJob::Suspending, now + t_suspend))
    }

    /// Resumes the suspended program/erase, if any; returns the generation
    /// for its (re-scheduled) completion event.
    pub(crate) fn resume(&mut self, now: SimTime) -> Option<u64> {
        let (job, remaining) = self.suspended.take()?;
        Some(self.begin(job, now + remaining))
    }
}

/// One channel: a DMA bus and an ECC decoder, each a first-come,
/// first-served server with a fixed service time.
///
/// Transfers from all dies behind the channel share the bus, so a single
/// 1 Gb/s bus (tDMA per page) serializes data movement even when the dies
/// sense in parallel — exactly the contention that makes multi-die tail
/// latency a channel-scheduling problem. Nothing preempts or cancels a
/// transfer or a decode (a RESET stops a sensing, not a transfer; stale
/// pipelined decodes still run), so each server is fully described by the
/// time it next falls idle, and booking a page computes its completion times
/// at once. Reads are decoded in the order they land, which is booking
/// order.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ChannelState {
    bus_free: SimTime,
    ecc_free: SimTime,
}

impl ChannelState {
    /// Books one page on the bus at `now`; returns when it lands.
    pub(crate) fn book_transfer(&mut self, now: SimTime, t_dma: SimTime) -> SimTime {
        self.bus_free = now.max(self.bus_free) + t_dma;
        self.bus_free
    }

    /// Books one read page at `now`: the bus moves it to the controller, then
    /// the decoder corrects it. Returns when the decode ends.
    pub(crate) fn book_read(&mut self, now: SimTime, t_dma: SimTime, t_ecc: SimTime) -> SimTime {
        let landed = self.book_transfer(now, t_dma);
        self.ecc_free = landed.max(self.ecc_free) + t_ecc;
        self.ecc_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rr_flash::timing::NandTimings;

    fn die() -> DieState {
        DieState::new(NandTimings::table1().sense)
    }

    #[test]
    fn begin_bumps_generation_and_sets_job() {
        let mut d = die();
        assert!(d.idle());
        let g1 = d.begin(DieJob::Erase { txn: TxnId(1) }, SimTime::from_us(10));
        assert_eq!(g1, 1);
        assert!(!d.idle());
        assert_eq!(d.busy_until, SimTime::from_us(10));
        d.job = None;
        let g2 = d.begin(DieJob::Suspending, SimTime::from_us(20));
        assert_eq!(g2, 2);
    }

    #[test]
    fn suspension_only_pays_when_benefit_exceeds_threshold() {
        let min_benefit = SimTime::from_us(100);
        let t_suspend = SimTime::from_us(20);
        let mut d = die();
        // An erase with 5 ms left: worth suspending.
        d.begin(DieJob::Erase { txn: TxnId(0) }, SimTime::from_us(5_000));
        let gen = d.try_suspend(SimTime::ZERO, min_benefit, t_suspend);
        assert!(gen.is_some());
        assert!(matches!(d.job, Some(DieJob::Suspending)));
        assert!(d.suspended.is_some());
        // Already suspended: a second attempt is refused.
        assert!(d
            .try_suspend(SimTime::ZERO, min_benefit, t_suspend)
            .is_none());
        // Resume restores the remaining time.
        d.job = None;
        let now = SimTime::from_us(20);
        assert!(d.resume(now).is_some());
        assert_eq!(d.busy_until, now + SimTime::from_us(5_000));
    }

    #[test]
    fn nearly_finished_program_is_not_suspended() {
        let mut d = die();
        d.begin(
            DieJob::Program {
                txn: TxnId(0),
                data_loaded: true,
            },
            SimTime::from_us(50),
        );
        // Only 50 µs left < 100 µs threshold: not worth the suspend cost.
        let gen = d.try_suspend(SimTime::ZERO, SimTime::from_us(100), SimTime::from_us(20));
        assert!(gen.is_none());
        assert!(d.suspended.is_none());
    }

    #[test]
    fn program_awaiting_data_is_not_suspendable() {
        let mut d = die();
        d.begin(
            DieJob::Program {
                txn: TxnId(0),
                data_loaded: false,
            },
            SimTime::MAX,
        );
        assert!(d
            .try_suspend(SimTime::ZERO, SimTime::from_us(100), SimTime::from_us(20))
            .is_none());
    }

    #[test]
    fn die_reset_returns_pristine_state() {
        let mut d = die();
        d.begin(DieJob::Erase { txn: TxnId(1) }, SimTime::from_us(10));
        d.p1.push_back(TxnId(2));
        d.p2.push_back(TxnId(3));
        d.owner = Some(TxnId(2));
        d.reset(NandTimings::table1().sense);
        assert!(d.idle());
        assert_eq!(d.gen, 0);
        assert!(d.owner.is_none());
        assert!(d.p0.is_empty() && d.p1.is_empty() && d.p2.is_empty());
        assert!(d.suspended.is_none());
    }

    #[test]
    fn cached_reductions_follow_every_phase_change() {
        let table1 = NandTimings::table1().sense;
        let reduced = table1.with_reduction(0.47, 0.10, 0.27);
        let other = table1.with_reduction(0.40, 0.0, 0.0);
        let other_default = table1.with_reduction(0.10, 0.0, 0.0);
        let mut d = die();
        assert!(d.reductions().is_none());
        // Installs, flips back to the cached pair, a third set that evicts
        // the older cached pair, repeated installs and rollbacks.
        let steps = [
            Some(reduced),
            None,
            Some(reduced),
            Some(other),
            None,
            Some(other),
            Some(other),
            Some(reduced),
            None,
            None,
        ];
        for (i, &phases) in steps.iter().enumerate() {
            d.set_feature(phases, table1);
            assert_eq!(d.phases(), phases.unwrap_or(table1), "step {i}");
            assert_eq!(*d.reductions(), reductions_of(&d.phases()), "step {i}");
            assert_eq!(d.reductions().is_none(), phases.is_none(), "step {i}");
        }
        // Reset installs the run's default, which need not be Table 1; the
        // reductions a reused die carries into the next run follow it, and
        // so do its installs and rollbacks under that default.
        d.set_feature(Some(reduced), table1);
        d.reset(other_default);
        assert_eq!(d.phases(), other_default);
        assert_eq!(*d.reductions(), reductions_of(&other_default));
        let fresh = DieState::new(other_default);
        assert_eq!(fresh.reductions(), d.reductions());
        for phases in [Some(reduced), None, Some(table1), None, Some(other), None] {
            d.set_feature(phases, other_default);
            assert_eq!(d.phases(), phases.unwrap_or(other_default));
            assert_eq!(*d.reductions(), reductions_of(&d.phases()));
        }
    }

    #[test]
    fn arbiter_round_robin_alternates_with_burst() {
        let mut arb = Arbiter::new(ArbPolicy::RoundRobin, 2, vec![1, 1]);
        let picks: Vec<usize> = (0..8).map(|_| arb.pick(|_| true).unwrap()).collect();
        assert_eq!(picks, vec![0, 0, 1, 1, 0, 0, 1, 1]);
    }

    #[test]
    fn arbiter_wrr_delivers_the_weight_ratio_while_backlogged() {
        let mut arb = Arbiter::new(ArbPolicy::WeightedRoundRobin, 1, vec![3, 1]);
        let mut counts = [0u32; 2];
        for _ in 0..400 {
            counts[arb.pick(|_| true).expect("both queues backlogged")] += 1;
        }
        // Exactly 3:1 over whole rounds.
        assert_eq!(counts, [300, 100]);
    }

    #[test]
    fn arbiter_idle_queue_forfeits_and_recovers_its_turn() {
        let mut arb = Arbiter::new(ArbPolicy::WeightedRoundRobin, 1, vec![3, 1]);
        // Only q1 has work: q0's turns are forfeited, q1 is served every pick.
        for _ in 0..5 {
            assert_eq!(arb.pick(|q| q == 1), Some(1));
        }
        // q0 comes back: it gets a fresh allowance on its next turn.
        let picks: Vec<usize> = (0..4).map(|_| arb.pick(|_| true).unwrap()).collect();
        assert_eq!(picks.iter().filter(|&&q| q == 0).count(), 3);
        // Nothing to fetch anywhere: no pick, and the arbiter stays usable.
        assert_eq!(arb.pick(|_| false), None);
        assert!(arb.pick(|_| true).is_some());
    }

    #[test]
    fn arbiter_single_queue_always_picks_it() {
        let mut arb = Arbiter::new(ArbPolicy::RoundRobin, 1, vec![1]);
        for _ in 0..10 {
            assert_eq!(arb.pick(|_| true), Some(0));
        }
        assert_eq!(arb.queues(), 1);
    }

    fn ns(t: u64) -> SimTime {
        SimTime::from_ns(t)
    }

    #[test]
    fn channel_books_bus_and_decoder_in_closed_form() {
        let (dma, ecc) = (ns(16), ns(20));
        let mut ch = ChannelState::default();
        // Back-to-back on the bus: the second page lands one tDMA later.
        assert_eq!(ch.book_read(ns(0), dma, ecc), ns(36));
        assert_eq!(ch.bus_free, ns(16));
        assert_eq!(ch.book_read(ns(0), dma, ecc), ns(56));
        assert_eq!(ch.bus_free, ns(32));
        // tECC > tDMA: the decoder backlog grows by 4 ns per page.
        assert_eq!(ch.book_read(ns(0), dma, ecc), ns(76));
        assert_eq!(ch.bus_free, ns(48));
        // A write between two reads holds the bus but not the decoder.
        assert_eq!(ch.book_read(ns(100), dma, ecc), ns(136));
        assert_eq!(ch.book_transfer(ns(100), dma), ns(132));
        assert_eq!(ch.book_read(ns(100), dma, ecc), ns(168));
        assert_eq!(ch.bus_free, ns(148));
        // Both servers idle again: no backlog carries over.
        assert_eq!(ch.book_read(ns(1_000), dma, ecc), ns(1_036));
    }

    /// Event-stepped FIFO tandem: a bus feeding a decoder, advanced one
    /// arrival or completion at a time. `jobs` are `(booking time, is_read)`
    /// in booking order; returns each job's landing time and, for reads,
    /// its decode-end time.
    fn tandem_reference(jobs: &[(u64, bool)], dma: u64, ecc: u64) -> Vec<(u64, Option<u64>)> {
        let mut out = vec![(0, None); jobs.len()];
        let (mut bus_q, mut ecc_q) = (VecDeque::new(), VecDeque::new());
        // The job each server is working on, and when it finishes.
        let mut bus: Option<(usize, u64)> = None;
        let mut dec: Option<(usize, u64)> = None;
        let mut next = 0;
        loop {
            let arrival = jobs.get(next).map(|j| j.0);
            let ends = [arrival, bus.map(|b| b.1), dec.map(|d| d.1)];
            let Some(now) = ends.into_iter().flatten().min() else {
                return out;
            };
            if let Some((i, _)) = bus.filter(|b| b.1 == now) {
                bus = None;
                out[i].0 = now;
                if jobs[i].1 {
                    ecc_q.push_back(i);
                }
            } else if let Some((i, _)) = dec.filter(|d| d.1 == now) {
                dec = None;
                out[i].1 = Some(now);
            } else {
                bus_q.push_back(next);
                next += 1;
            }
            if bus.is_none() {
                bus = bus_q.pop_front().map(|i| (i, now + dma));
            }
            if dec.is_none() {
                dec = ecc_q.pop_front().map(|i| (i, now + ecc));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Booking in closed form gives every page the landing and
        /// decode-end times the event-stepped FIFO tandem gives it.
        #[test]
        fn closed_form_booking_matches_an_event_stepped_fifo(
            steps in prop::collection::vec((0u64..60, any::<bool>()), 1..64),
            dma in 1u64..40,
            ecc in 1u64..40,
        ) {
            let mut now = 0;
            let jobs: Vec<(u64, bool)> = steps
                .iter()
                .map(|&(gap, read)| {
                    now += gap;
                    (now, read)
                })
                .collect();
            let want = tandem_reference(&jobs, dma, ecc);
            let mut ch = ChannelState::default();
            for (&(at, read), &(landed, done)) in jobs.iter().zip(&want) {
                if read {
                    let got = ch.book_read(ns(at), ns(dma), ns(ecc));
                    prop_assert_eq!(ch.bus_free, ns(landed));
                    prop_assert_eq!(Some(got), done.map(ns));
                } else {
                    prop_assert_eq!(ch.book_transfer(ns(at), ns(dma)), ns(landed));
                    prop_assert_eq!(done, None);
                }
            }
        }
    }
}
