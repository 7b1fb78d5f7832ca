//! Allocation budget of the step loop under the *shipped* policies.
//!
//! `crates/sim/tests/alloc_free.rs` proves the engine's own loop
//! allocation-free, but it drives a test double whose queues are
//! pre-sized. This test counts what a sweep arm really pays: one warm,
//! recycled `Simulator<Box<dyn Protocol>>` (as `mpcp_sweep`'s workspace
//! keeps), a seeded 4×3 `taskgen` system, each of the seven online
//! policies freshly built per run, trace recording off and the
//! streaming monitor attached with the policy's own spec — the oracle's
//! fast pass. What is left inside the loop belongs to per-run state that
//! starts empty: `ObservedBlocking`'s two maps, the policies' wait
//! queues and `SavedStack` growing to their high-water marks, and
//! PIP/direct-PCP's `blocked_on` map. A critical section itself costs
//! no allocation (before the flat `SavedStack`, each cost a `Vec` and
//! two hash-map operations: 613–626 allocations over this run).

use mpcp_dga::horizon_capped;
use mpcp_protocols::ProtocolKind;
use mpcp_sim::{Monitor, Protocol, SimConfig, Simulator};
use mpcp_taskgen::{generate, WorkloadConfig};
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator, counting every allocation and
/// reallocation.
struct CountingAlloc;

// SAFETY: pure pass-through to the system allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const ONLINE: [ProtocolKind; 7] = [
    ProtocolKind::Mpcp,
    ProtocolKind::Dpcp,
    ProtocolKind::Pip,
    ProtocolKind::NonPreemptive,
    ProtocolKind::Raw,
    ProtocolKind::Msrp,
    ProtocolKind::Fmlp,
];

/// Allocations allowed inside one run's step loop.
const BUDGET: u64 = 32;

#[test]
fn step_loop_stays_within_the_allocation_budget_under_every_online_policy() {
    let system = generate(
        &WorkloadConfig::default()
            .processors(4)
            .tasks_per_processor(3)
            .resources(1, 2)
            .sections(0, 2)
            .utilization(0.55),
        1000,
    );
    let config = SimConfig {
        record_trace: false,
        ..SimConfig::until(horizon_capped(&system, 20_000).ticks())
    };
    // Runs one arm the way the oracle's fast pass does and returns
    // (steps, allocations inside the step loop).
    let mut sim: Simulator<Box<dyn Protocol>> =
        Simulator::with_config(&system, ONLINE[0].build(), config.clone());
    let mut arm = |kind: ProtocolKind| {
        sim.reset(&system, kind.build(), config.clone());
        sim.set_monitor(Monitor::new(&system, kind.monitor_spec()));
        let before = ALLOCS.load(Ordering::Relaxed);
        let mut steps = 0u64;
        while sim.step() {
            steps += 1;
        }
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert!(sim.monitor().is_some_and(Monitor::is_clean), "{kind}");
        (steps, allocs)
    };
    // Warm pass: every engine buffer reaches its high-water mark.
    for kind in ONLINE {
        arm(kind);
    }
    for kind in ONLINE {
        let (steps, allocs) = arm(kind);
        println!("{kind}: {allocs} allocations in {steps} steps");
        assert!(steps > 1000, "{kind}: run too short to mean anything");
        assert!(
            allocs <= BUDGET,
            "{kind}: {allocs} allocations in the step loop (budget {BUDGET})"
        );
    }
}
