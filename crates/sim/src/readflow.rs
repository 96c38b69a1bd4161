//! The read-retry policy interface and the regular (baseline) mechanism.
//!
//! The simulator is generic over *how* a read-retry operation is conducted —
//! exactly the degree of freedom the paper's PR²/AR² exploit. A
//! [`RetryController`] decides only at a read's walk boundaries: where a
//! walk over the retry table starts and ends, whether it is pipelined, when
//! `SET FEATURE` changes the die's timing, and what follows a walk's end.
//! It answers with [`ReadAction`]s that the simulator executes against the
//! die.
//!
//! The simulator walks the table itself. It senses each step of a
//! [`ReadAction::Walk`], moves every completed sense of a live read over the
//! channel to the ECC decoder, and stops at the first step that decodes or
//! after the walk's last step; only then does the controller hear of the
//! read again, through [`RetryController::on_walk_end`]. A pipelined walk
//! that ends on a decoded step has its speculative next sense killed with
//! `RESET` by the simulator.
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
/// Die-occupying actions (`Walk`, `SetFeature`) are executed in order, each
/// starting when the die becomes free; `Complete*` finish the transaction
/// immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadAction {
    /// Walk the retry table from entry `from` to entry `to` (inclusive),
    /// stopping at the first step that decodes. A sequential walk senses
    /// the next entry once a step's decode fails (Fig. 12(a)); a pipelined
    /// one senses it with `CACHE READ` as soon as a step's sensing ends
    /// (PR², Fig. 12(b)). A one-step walk (`from == to`) is a single read.
    Walk {
        /// The first retry-table index to sense.
        from: u32,
        /// The last retry-table index to sense.
        to: u32,
        /// Whether each step is sensed while the previous one decodes.
        pipelined: bool,
    },
    /// Issue `SET FEATURE`: `Some` installs reduced sensing phases, `None`
    /// restores the default (AR² steps ② and ④).
    SetFeature {
        /// The phases to install, or `None` to restore defaults.
        phases: Option<SensePhases>,
    },
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
/// A controller answers at most two actions (a timing change and the walk
/// under it, or a success and its timing rollback), so the list lives in
/// the value itself and never allocates.
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
    pub const CAPACITY: usize = 2;

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

    /// A two-action list, in that order.
    pub fn two(a: ReadAction, b: ReadAction) -> Self {
        Self {
            items: [a, b],
            len: 2,
        }
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

/// A read-retry mechanism: a deterministic state machine over a read's walk
/// boundaries.
///
/// One controller instance serves *all* reads of a simulation run (so
/// mechanisms can keep cross-read state, e.g. PSO's per-die V_REF cache);
/// per-read state is keyed by [`TxnId`]. A read's controller calls are one
/// `on_start` and one `on_walk_end` per walk, whatever the walks' lengths.
///
/// # Contract
///
/// When a walk ends exhausted, the read is a host read, and it has nothing
/// else in flight (no other decode awaited, nothing queued on its die), the
/// simulator may call `on_walk_end` as soon as the walk's last sense
/// completes, before the events of other reads that fall between the
/// sense's end and its decode's. An answer that holds only die actions
/// starts when the decode ends, as it would have; any other answer is
/// executed then. So such an answer must not read or write state that other
/// reads share (PSO's predictor, a per-die install set): it must be the same
/// whatever other reads do in between.
pub trait RetryController {
    /// A read transaction reached the front of its die queue; the die is
    /// free. Must answer with a `Walk`, after a `SetFeature` or alone.
    fn on_start(&mut self, ctx: &ReadContext) -> Actions;

    /// The read's walk ended: `decoded` is the step whose decode succeeded,
    /// or `None` when the walk's last step failed too. An answer that
    /// completes the read ends it: the controller drops the read's state
    /// (mechanisms with cross-read state, like PSO, learn from the outcome
    /// here) and hears of it no more.
    fn on_walk_end(&mut self, ctx: &ReadContext, decoded: Option<u32>) -> Actions;

    /// A short display name for reports ("Baseline", "PR2", ...).
    fn name(&self) -> &str;
}

/// The regular read-retry mechanism (Fig. 12(a)): strictly sequential
/// sense → transfer → decode → (on failure) next retry step, with default
/// timing parameters throughout.
///
/// It keeps no per-read state: one sequential walk over the whole table.
#[derive(Debug, Default)]
pub struct BaselineController;

impl BaselineController {
    /// Creates the baseline controller.
    pub fn new() -> Self {
        Self
    }
}

impl RetryController for BaselineController {
    fn on_start(&mut self, ctx: &ReadContext) -> Actions {
        Actions::one(ReadAction::Walk {
            from: 0,
            to: ctx.max_step,
            pipelined: false,
        })
    }

    fn on_walk_end(&mut self, _ctx: &ReadContext, decoded: Option<u32>) -> Actions {
        Actions::one(match decoded {
            Some(step) => ReadAction::CompleteSuccess { step },
            None => ReadAction::CompleteFailure,
        })
    }

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
        // One sequential walk over the whole table.
        assert_eq!(
            b.on_start(&c).to_vec(),
            vec![ReadAction::Walk {
                from: 0,
                to: 40,
                pipelined: false
            }]
        );
        // The walk ended on a decoded step → complete.
        assert_eq!(
            b.on_walk_end(&c, Some(1)).to_vec(),
            vec![ReadAction::CompleteSuccess { step: 1 }]
        );
    }

    #[test]
    fn baseline_fails_when_table_exhausted() {
        let mut b = BaselineController::new();
        let c = ctx(2);
        b.on_start(&c);
        assert_eq!(
            b.on_walk_end(&c, None).to_vec(),
            vec![ReadAction::CompleteFailure]
        );
    }

    #[test]
    fn actions_keep_push_order_up_to_capacity() {
        let walk = |from| ReadAction::Walk {
            from,
            to: 40,
            pipelined: true,
        };
        let mut a = Actions::new();
        assert!(a.is_empty());
        for from in 0..Actions::CAPACITY as u32 {
            a.push(walk(from));
        }
        assert_eq!(a.len(), Actions::CAPACITY);
        assert_eq!(
            a.to_vec(),
            (0..Actions::CAPACITY as u32).map(walk).collect::<Vec<_>>()
        );
        assert_eq!(a.into_iter().collect::<Vec<_>>(), a.to_vec());
        assert_eq!(Actions::two(walk(0), walk(1)), a);
        assert_eq!(
            Actions::one(ReadAction::CompleteFailure).to_vec(),
            vec![ReadAction::CompleteFailure]
        );
    }

    #[test]
    #[should_panic(expected = "at most 2 actions")]
    fn actions_push_past_capacity_panics() {
        let mut a = Actions::new();
        for _ in 0..=Actions::CAPACITY {
            a.push(ReadAction::CompleteFailure);
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
