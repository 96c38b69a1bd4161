//! The read-retry policy interface and the regular (baseline) mechanism.
//!
//! The simulator is generic over *how* a read-retry operation is conducted —
//! exactly the degree of freedom the paper's PR²/AR² exploit. A
//! [`RetryController`] is a state machine driven by flash events; it responds
//! with [`ReadAction`]s that the simulator executes against the die.
//!
//! The simulator itself moves every completed sense of a live read over the
//! channel to the ECC decoder, so no action names a transfer. The decoder's
//! pass/fail verdict arrives as [`RetryController::on_decode_done`], unless
//! it is a failure the read's pipeline has already sensed past. A failure
//! may arrive early, as soon as its sense completes (see the trait's
//! contract).
//!
//! This crate ships the [`BaselineController`] (the regular read-retry of
//! Fig. 12(a), used by all prior work the paper compares against); the
//! `rr-core` crate implements PR², AR², PnAR², the §8 variants and PSO on
//! the same interface, as one controller.

use crate::request::TxnId;
use rr_flash::calibration::OperatingCondition;
use rr_flash::timing::SensePhases;

/// What the controller wants the simulator to do next for one read.
///
/// Die-occupying actions (`Sense`, `SetFeature`, `Reset`) are executed in
/// order, each starting when the die becomes free; `Complete*` finish the
/// transaction immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadAction {
    /// Sense the page at retry-table index `step` (a `PAGE READ` for the
    /// first sensing, a `CACHE READ` for pipelined follow-ups — the
    /// distinction is timing-neutral; both take tR).
    Sense {
        /// Retry-table index to sense with.
        step: u32,
    },
    /// Issue `SET FEATURE`: `Some` installs reduced sensing phases, `None`
    /// restores the default (AR² steps ② and ④).
    SetFeature {
        /// The phases to install, or `None` to restore defaults.
        phases: Option<SensePhases>,
    },
    /// Issue `RESET`, killing any in-flight sensing on the die (PR² uses this
    /// to cancel the speculatively started extra step).
    Reset,
    /// The read is done: data of `step` decoded successfully.
    CompleteSuccess {
        /// The step whose decode succeeded.
        step: u32,
    },
    /// The read failed: the retry table is exhausted (§2.4 "read failure").
    CompleteFailure,
}

/// A short list of [`ReadAction`]s, stored inline.
///
/// Controllers emit at most one action per flash event on the hot path and
/// never more than three (a pipelined read's success: `Reset`,
/// `CompleteSuccess`, `SetFeature` rollback), so the list lives in the
/// value itself and never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Actions {
    items: [ReadAction; Self::CAPACITY],
    len: u8,
}

impl Default for Actions {
    fn default() -> Self {
        Self::new()
    }
}

impl Actions {
    /// The most actions one controller response may hold.
    pub const CAPACITY: usize = 3;

    /// The placeholder filling unused slots (never observed by iteration,
    /// which is bounded by the length).
    const FILL: ReadAction = ReadAction::CompleteFailure;

    /// An empty action list.
    pub const fn new() -> Self {
        Self {
            items: [Self::FILL; Self::CAPACITY],
            len: 0,
        }
    }

    /// A single-action list.
    pub fn one(a: ReadAction) -> Self {
        let mut s = Self::new();
        s.push(a);
        s
    }

    /// Appends an action.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds [`Actions::CAPACITY`] actions.
    pub fn push(&mut self, a: ReadAction) {
        assert!(
            (self.len as usize) < Self::CAPACITY,
            "a controller response holds at most {} actions",
            Self::CAPACITY
        );
        self.items[self.len as usize] = a;
        self.len += 1;
    }

    /// Number of actions.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the actions in push order.
    pub fn iter(&self) -> impl Iterator<Item = ReadAction> + '_ {
        self.items[..self.len as usize].iter().copied()
    }

    /// Collects into a `Vec` (test/diagnostic convenience).
    pub fn to_vec(&self) -> Vec<ReadAction> {
        self.iter().collect()
    }
}

impl IntoIterator for Actions {
    type Item = ReadAction;
    type IntoIter = std::iter::Take<std::array::IntoIter<ReadAction, { Actions::CAPACITY }>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().take(self.len as usize)
    }
}

/// Dense per-transaction state storage keyed by [`TxnId`].
///
/// Transaction ids are small, dense slab indices (the simulator's
/// transaction pool recycles them), so a flat vector with `Option` slots
/// replaces the hashing a `HashMap<TxnId, T>` would pay on every flash
/// event. The table grows to the highest id ever inserted and keeps its
/// allocation for the whole run.
#[derive(Debug, Clone)]
pub struct TxnTable<T> {
    slots: Vec<Option<T>>,
}

impl<T> Default for TxnTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TxnTable<T> {
    /// An empty table.
    pub const fn new() -> Self {
        Self { slots: Vec::new() }
    }

    /// Inserts state for `id`, returning any previous state.
    pub fn insert(&mut self, id: TxnId, value: T) -> Option<T> {
        let idx = id.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        self.slots[idx].replace(value)
    }

    /// The state for `id`, if present.
    pub fn get(&self, id: TxnId) -> Option<&T> {
        self.slots.get(id.0 as usize).and_then(Option::as_ref)
    }

    /// Mutable state for `id`, if present.
    pub fn get_mut(&mut self, id: TxnId) -> Option<&mut T> {
        self.slots.get_mut(id.0 as usize).and_then(Option::as_mut)
    }

    /// Removes and returns the state for `id`.
    pub fn remove(&mut self, id: TxnId) -> Option<T> {
        self.slots.get_mut(id.0 as usize).and_then(Option::take)
    }
}

/// Immutable facts about a read the controller may use.
///
/// Deliberately *excludes* the ground-truth required retry step — mechanisms
/// must discover it through ECC outcomes, as real firmware does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadContext {
    /// Transaction id.
    pub txn: TxnId,
    /// Global die index the page lives on (PSO clusters by die).
    pub die: u32,
    /// Operating condition of the *block* (P/E cycles, the data's retention
    /// age, temperature) — all of which a real controller tracks (§6.2
    /// footnote 12: wear leveling and refresh already need them).
    pub condition: OperatingCondition,
    /// Whether the page holds cold (preconditioned, long-retention) data.
    pub cold: bool,
    /// Highest retry-table index available.
    pub max_step: u32,
}

/// A read-retry mechanism: a deterministic state machine over flash events.
///
/// One controller instance serves *all* reads of a simulation run (so
/// mechanisms can keep cross-read state, e.g. PSO's per-die V_REF cache);
/// per-read state is keyed by [`TxnId`].
///
/// # Contract
///
/// When [`RetryController::on_sense_done`] for `step` answers with a
/// `Sense`, a failed [`RetryController::on_decode_done`] for that `step`
/// must answer nothing and change no state. The simulator relies on it: it
/// books such a step's transfer and decode but never reports the failed
/// verdict, so a pipelined walk hears only of the decodes that can end it.
///
/// When `on_sense_done` for `step` answers nothing, the decode fails, and
/// the read has nothing else in flight (no other decode awaited), the
/// simulator may deliver the failed `on_decode_done` as soon as the sense
/// completes, before the events of other reads that fall between the
/// sense's end and the decode's. A die op it answers starts when the
/// decode ends, as it would have; any other answer is executed then. So
/// such an answer must not read or write state that other reads share
/// (PSO's predictor, a per-die install set): it must be the same whatever
/// other reads do in between.
///
/// A `Reset` goes out only in the same answer as the `CompleteSuccess` that
/// ends its read, so no controller hears of its completion.
pub trait RetryController {
    /// A read transaction reached the front of its die queue; the die is
    /// free. Must emit at least one die action.
    fn on_start(&mut self, ctx: &ReadContext) -> Actions;

    /// Sensing for `step` completed; the simulator has already queued the
    /// data's transfer and decode. A pipelined walk answers with the next
    /// `Sense`, a sequential one with nothing.
    fn on_sense_done(&mut self, ctx: &ReadContext, step: u32) -> Actions;

    /// ECC decode for `step` completed; `success` is whether all errors were
    /// corrected. Not called for a failed decode of a step whose
    /// `on_sense_done` answered with a `Sense`, and possibly called for a
    /// failed decode as soon as its sense completes (see the trait's
    /// contract).
    fn on_decode_done(&mut self, ctx: &ReadContext, step: u32, success: bool) -> Actions;

    /// A `SET FEATURE` issued by this read completed.
    fn on_feature_applied(&mut self, ctx: &ReadContext) -> Actions;

    /// The transaction is fully finished (after `Complete*`); drop any
    /// per-transaction state. Mechanisms with cross-read state (PSO) update
    /// their caches here via the recorded outcome.
    fn on_end(&mut self, ctx: &ReadContext, successful_step: Option<u32>);

    /// A short display name for reports ("Baseline", "PR2", ...).
    fn name(&self) -> &str;
}

/// The regular read-retry mechanism (Fig. 12(a)): strictly sequential
/// sense → transfer → decode → (on failure) next retry step, with default
/// timing parameters throughout.
///
/// It keeps no per-read state: every decision follows from the event.
#[derive(Debug, Default)]
pub struct BaselineController;

impl BaselineController {
    /// Creates the baseline controller.
    pub fn new() -> Self {
        Self
    }
}

impl RetryController for BaselineController {
    fn on_start(&mut self, _ctx: &ReadContext) -> Actions {
        Actions::one(ReadAction::Sense { step: 0 })
    }

    fn on_sense_done(&mut self, _ctx: &ReadContext, _step: u32) -> Actions {
        Actions::new()
    }

    fn on_decode_done(&mut self, ctx: &ReadContext, step: u32, success: bool) -> Actions {
        if success {
            Actions::one(ReadAction::CompleteSuccess { step })
        } else if step < ctx.max_step {
            Actions::one(ReadAction::Sense { step: step + 1 })
        } else {
            Actions::one(ReadAction::CompleteFailure)
        }
    }

    fn on_feature_applied(&mut self, _ctx: &ReadContext) -> Actions {
        unreachable!("baseline never issues SET FEATURE")
    }

    fn on_end(&mut self, _ctx: &ReadContext, _successful_step: Option<u32>) {}

    fn name(&self) -> &str {
        "Baseline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(max_step: u32) -> ReadContext {
        ReadContext {
            txn: TxnId(1),
            die: 0,
            condition: OperatingCondition::new(1000.0, 6.0, 30.0),
            cold: true,
            max_step,
        }
    }

    #[test]
    fn baseline_walks_steps_sequentially() {
        let mut b = BaselineController::new();
        let c = ctx(40);
        assert_eq!(b.on_start(&c).to_vec(), vec![ReadAction::Sense { step: 0 }]);
        // Nothing is sensed ahead of a decode.
        assert_eq!(b.on_sense_done(&c, 0).to_vec(), vec![]);
        // Fail at step 0 → sense step 1.
        assert_eq!(
            b.on_decode_done(&c, 0, false).to_vec(),
            vec![ReadAction::Sense { step: 1 }]
        );
        assert_eq!(b.on_sense_done(&c, 1).to_vec(), vec![]);
        // Success at step 1 → complete.
        assert_eq!(
            b.on_decode_done(&c, 1, true).to_vec(),
            vec![ReadAction::CompleteSuccess { step: 1 }]
        );
        b.on_end(&c, Some(1));
    }

    #[test]
    fn baseline_fails_when_table_exhausted() {
        let mut b = BaselineController::new();
        let c = ctx(2);
        b.on_start(&c);
        assert_eq!(
            b.on_decode_done(&c, 2, false).to_vec(),
            vec![ReadAction::CompleteFailure]
        );
    }

    #[test]
    fn actions_keep_push_order_up_to_capacity() {
        let mut a = Actions::new();
        assert!(a.is_empty());
        for step in 0..Actions::CAPACITY as u32 {
            a.push(ReadAction::Sense { step });
        }
        assert_eq!(a.len(), Actions::CAPACITY);
        assert_eq!(
            a.to_vec(),
            (0..Actions::CAPACITY as u32)
                .map(|step| ReadAction::Sense { step })
                .collect::<Vec<_>>()
        );
        assert_eq!(a.into_iter().collect::<Vec<_>>(), a.to_vec());
        assert_eq!(
            Actions::one(ReadAction::Reset).to_vec(),
            vec![ReadAction::Reset]
        );
    }

    #[test]
    #[should_panic(expected = "at most 3 actions")]
    fn actions_push_past_capacity_panics() {
        let mut a = Actions::new();
        for step in 0..=Actions::CAPACITY as u32 {
            a.push(ReadAction::Sense { step });
        }
    }

    #[test]
    fn txn_table_insert_get_remove() {
        let mut t: TxnTable<u32> = TxnTable::new();
        assert_eq!(t.get(TxnId(3)), None);
        assert_eq!(t.insert(TxnId(3), 30), None);
        assert_eq!(t.insert(TxnId(0), 1), None);
        assert_eq!(t.get(TxnId(3)), Some(&30));
        *t.get_mut(TxnId(3)).unwrap() += 1;
        assert_eq!(t.insert(TxnId(3), 99), Some(31));
        assert_eq!(t.remove(TxnId(3)), Some(99));
        assert_eq!(t.remove(TxnId(3)), None);
        assert_eq!(t.get(TxnId(100)), None);
    }
}
