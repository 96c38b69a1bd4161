//! The manufacturer-provided read-retry V_REF table (§2.4).
//!
//! Vendors profile their chips and ship an ordered list of V_REF adjustment
//! sets; a read-retry operation walks the list until ECC succeeds or the list
//! is exhausted (a *read failure*, §7 footnote 13). The table is constructed
//! so the final entries sit substantially close to V_OPT (Fig. 4).
//!
//! The error model abstracts each entry as an index; this module carries the
//! index semantics.

/// An ordered read-retry table.
///
/// Index 0 is the initial read with default V_REF; indices `1..=max_steps`
/// are the retry entries.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryTable {
    max_steps: u32,
}

impl RetryTable {
    /// The table assumed for the paper's 48-layer TLC generation: up to 40
    /// retry entries (Fig. 5 tops out around 25 used steps).
    pub const fn asplos21() -> Self {
        Self { max_steps: 40 }
    }

    /// Creates a table of `max_steps` retry entries.
    ///
    /// # Panics
    ///
    /// Panics if `max_steps` is zero.
    pub fn new(max_steps: u32) -> Self {
        assert!(max_steps > 0, "a retry table needs at least one entry");
        Self { max_steps }
    }

    /// Number of retry entries after the initial read.
    pub const fn max_steps(&self) -> u32 {
        self.max_steps
    }

    /// Whether `step` is within the table (`0..=max_steps`).
    pub const fn contains(&self, step: u32) -> bool {
        step <= self.max_steps
    }

    /// Iterates all step indices including the initial read.
    pub fn steps(&self) -> impl Iterator<Item = u32> {
        0..=self.max_steps
    }
}

impl Default for RetryTable {
    fn default() -> Self {
        Self::asplos21()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_table_covers_fig5_range() {
        let t = RetryTable::asplos21();
        // Fig. 5 shows up to ~25 steps at (2K, 12 mo); the table must cover it.
        assert!(t.max_steps() >= 25);
        assert!(t.contains(0));
        assert!(t.contains(25));
        assert!(!t.contains(41));
    }

    #[test]
    fn steps_iterator_is_inclusive() {
        let t = RetryTable::new(3);
        assert_eq!(t.steps().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_rejected() {
        RetryTable::new(0);
    }
}
