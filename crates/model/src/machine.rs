//! Machine model: the multiprocessor configuration of Figure 4-1.
//!
//! The paper's target machine is a set of processors, each with local
//! memory and a cache for globally shared data, connected to shared memory
//! modules over a backplane bus. The scheduling results depend only on
//! preemption and queueing semantics, so the simulator models the hardware
//! as a handful of constant overheads; they default to zero to reproduce
//! the paper's idealized examples.

use crate::time::Dur;
use std::fmt;

/// Hardware cost parameters for a shared-memory multiprocessor
/// (Figure 4-1).
///
/// All costs default to zero — the paper's worked examples assume
/// zero-overhead primitives. Set them to study protocol overhead
/// sensitivity.
///
/// # Example
///
/// ```
/// use mpcp_model::Machine;
///
/// let m = Machine::new()
///     .with_lock_overhead(2)
///     .with_unlock_overhead(1)
///     .with_bus_delay(1);
/// assert_eq!(m.lock_cost(false).ticks(), 2);
/// println!("{}", m.diagram(4));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Machine {
    lock_overhead: Dur,
    unlock_overhead: Dur,
    bus_delay: Dur,
    shared_modules: u32,
}

impl Machine {
    /// A machine with all overheads zero (the paper's idealization).
    pub fn new() -> Self {
        Machine {
            shared_modules: 1,
            ..Machine::default()
        }
    }

    /// Sets the `P()` overhead.
    pub fn with_lock_overhead(mut self, ticks: u64) -> Self {
        self.lock_overhead = Dur::new(ticks);
        self
    }

    /// Sets the `V()` overhead.
    pub fn with_unlock_overhead(mut self, ticks: u64) -> Self {
        self.unlock_overhead = Dur::new(ticks);
        self
    }

    /// Sets the global-semaphore bus delay.
    pub fn with_bus_delay(mut self, ticks: u64) -> Self {
        self.bus_delay = Dur::new(ticks);
        self
    }

    /// Sets the number of shared memory modules.
    pub fn with_shared_modules(mut self, n: u32) -> Self {
        self.shared_modules = n.max(1);
        self
    }

    /// Total processor cost of locking a semaphore (`global` selects
    /// whether the bus delay applies).
    pub fn lock_cost(&self, global: bool) -> Dur {
        if global {
            self.lock_overhead + self.bus_delay
        } else {
            self.lock_overhead
        }
    }

    /// Total processor cost of unlocking a semaphore.
    pub fn unlock_cost(&self, global: bool) -> Dur {
        if global {
            self.unlock_overhead + self.bus_delay
        } else {
            self.unlock_overhead
        }
    }

    /// Renders the Figure 4-1 block diagram for `processors` processors as
    /// ASCII art.
    pub fn diagram(&self, processors: usize) -> String {
        let mut out = String::new();
        let cell = |s: &str| format!("| {s:^11} |");
        let mut row1 = String::new();
        let mut row2 = String::new();
        let mut row3 = String::new();
        let mut border = String::new();
        for i in 0..processors {
            border.push_str("+-------------+ ");
            row1.push_str(&cell(&format!("CPU {i}")));
            row1.push(' ');
            row2.push_str(&cell("local mem"));
            row2.push(' ');
            row3.push_str(&cell("cache"));
            row3.push(' ');
        }
        out.push_str(&border);
        out.push('\n');
        for r in [row1, row2, row3] {
            out.push_str(&r);
            out.push('\n');
        }
        out.push_str(&border);
        out.push('\n');
        let width = border.len().saturating_sub(1).max(20);
        out.push_str(&format!("{:=^width$}\n", " backplane bus "));
        for m in 0..self.shared_modules {
            out.push_str(&format!(
                "{:^width$}\n",
                format!("[ shared memory module {m} ]")
            ));
        }
        out
    }
}

impl fmt::Display for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "machine(lock={}, unlock={}, bus={}, modules={})",
            self.lock_overhead, self.unlock_overhead, self.bus_delay, self.shared_modules
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_zero_cost() {
        let m = Machine::new();
        assert_eq!(m.lock_cost(true), Dur::ZERO);
        assert_eq!(m.unlock_cost(false), Dur::ZERO);
        assert!(m.to_string().ends_with("modules=1)"));
    }

    #[test]
    fn costs_compose() {
        let m = Machine::new()
            .with_lock_overhead(2)
            .with_unlock_overhead(1)
            .with_bus_delay(3);
        assert_eq!(m.lock_cost(false), Dur::new(2));
        assert_eq!(m.lock_cost(true), Dur::new(5));
        assert_eq!(m.unlock_cost(true), Dur::new(4));
    }

    #[test]
    fn diagram_mentions_all_parts() {
        let d = Machine::new().with_shared_modules(2).diagram(3);
        assert!(d.contains("CPU 0"));
        assert!(d.contains("CPU 2"));
        assert!(d.contains("backplane bus"));
        assert!(d.contains("shared memory module 1"));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Machine::new().to_string().is_empty());
    }
}
