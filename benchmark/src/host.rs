//! Two scheduling knobs the `serve-*` workloads need from the host, and
//! the crate's only `unsafe`: CPU pinning and the timer slack.
//!
//! **Pinning.** The sandbox's second vCPU is not reliably a second
//! core: after it has idled, two busy threads ran at the speed of one
//! for over a second before the host spread them (a `jobs = 2` sweep
//! pass took 0.23-0.34 s five times, then 0.12 s), and the same
//! `serve-cached` run read 17.7k or 25k requests/s depending on where
//! the server's threads and the load generator happened to sit. A
//! measurement that needs two CPUs at once therefore has two modes 40 %
//! apart. While a serve child is up, the child and the load generator
//! are both pinned to the *same* CPU (the last allowed one): the three
//! threads then share one core by time slicing, which is slower than
//! the best case but is the same on every run and needs nothing from
//! the second vCPU. Sweeps are never pinned: their parallel pass needs
//! every CPU, and its speed-up is reported as information only.
//!
//! **Timer slack.** The open-loop sender sleeps until each due instant
//! (it cannot spin: it shares its CPU with the server). The default
//! 50 us slack would make every request that late, so the sender asks
//! for 1 us.

#![allow(unsafe_code)]

use std::ffi::{c_int, c_ulong};

/// Words of the mask passed to the kernel: room for 1024 CPUs, the size
/// of glibc's `cpu_set_t`.
const WORDS: usize = 16;

type Mask = [u64; WORDS];

/// `PR_SET_TIMERSLACK` from `<linux/prctl.h>`.
const PR_SET_TIMERSLACK: c_int = 29;

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
}

fn allowed() -> Option<Mask> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 is the calling thread. The call writes at
    // most that many bytes and retains no pointer.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

fn apply(mask: &Mask) -> bool {
    // SAFETY: `mask` is a live buffer of exactly the byte length
    // passed, only read by the call; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

/// Index of the highest CPU in `mask`.
fn last_cpu(mask: &Mask) -> Option<usize> {
    let word = mask.iter().rposition(|&w| w != 0)?;
    Some(word * 64 + 63 - mask[word].leading_zeros() as usize)
}

fn only(cpu: usize) -> Option<Mask> {
    let mut mask = [0u64; WORDS];
    *mask.get_mut(cpu / 64)? = 1 << (cpu % 64);
    Some(mask)
}

/// Pins the calling thread, and every thread it spawns afterwards, to
/// one CPU. Returns whether it took.
pub fn pin_to(cpu: usize) -> bool {
    only(cpu).is_some_and(|mask| apply(&mask))
}

/// While alive, the calling thread (and every thread or process it
/// starts) stays on one CPU; dropping it restores the mask it found.
pub struct Pinned {
    original: Mask,
    cpu: usize,
}

impl Pinned {
    /// Pins the caller to the last CPU it is allowed on. `None`, and
    /// nothing changed, when the host refuses.
    pub fn to_last_cpu() -> Option<Pinned> {
        let original = allowed()?;
        let cpu = last_cpu(&original)?;
        pin_to(cpu).then_some(Pinned { original, cpu })
    }

    /// The CPU, to be passed to [`pin_to`] in the child.
    pub fn cpu(&self) -> usize {
        self.cpu
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        apply(&self.original);
    }
}

/// Asks for 1 us timer slack on the calling thread, so `thread::sleep`
/// wakes when asked and not up to 50 us later. Best effort.
pub fn precise_sleeps() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long (nanoseconds)
    // and touches only the calling thread's scheduling state; no memory
    // is passed.
    unsafe { prctl(PR_SET_TIMERSLACK, 1000 as c_ulong) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_last_cpu_is_the_highest_set_bit() {
        let mut mask = [0u64; WORDS];
        assert_eq!(last_cpu(&mask), None);
        mask[0] = 0b1011;
        assert_eq!(last_cpu(&mask), Some(3));
        mask[2] = 1;
        assert_eq!(last_cpu(&mask), Some(128));
        assert_eq!(only(130).unwrap()[2], 0b100);
        assert!(only(WORDS * 64).is_none());
    }

    #[test]
    fn pinning_is_undone_when_the_guard_is_dropped() {
        let before = allowed().expect("sched_getaffinity works on Linux");
        assert!(before.iter().any(|&w| w != 0));
        if let Some(pinned) = Pinned::to_last_cpu() {
            assert_eq!(allowed().unwrap(), only(pinned.cpu()).unwrap());
        }
        assert_eq!(allowed().unwrap(), before);
        assert!(!pin_to(WORDS * 64), "a CPU beyond the mask is refused");
    }

    #[test]
    fn a_precise_sleep_overshoots_by_well_under_the_default_slack() {
        std::thread::spawn(|| {
            precise_sleeps();
            let mut over = Vec::new();
            for _ in 0..50 {
                let asked = std::time::Duration::from_micros(200);
                let t = std::time::Instant::now();
                std::thread::sleep(asked);
                over.push((t.elapsed() - asked).as_nanos() as u64);
            }
            let p50 = crate::stats::percentile_u64(&mut over, 0.5);
            assert!(p50 < 45_000.0, "median overshoot {p50} ns");
        })
        .join()
        .unwrap();
    }
}
