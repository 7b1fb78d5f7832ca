//! The §3.2 Dhall-effect demonstration: why the protocol assumes static
//! binding. Global (dynamic-binding) scheduling misses a deadline at
//! arbitrarily low utilization; static binding schedules the same task
//! set.
//!
//! Run with `cargo run --example dhall_effect`.

use mpcp::model::Time;
use mpcp::protocols::ProtocolKind;
use mpcp::sim::{task_symbol, SimConfig, Simulator};
use mpcp_bench::experiments::{e7_dhall, global_fp};
use mpcp_bench::paper::dhall_system;

fn main() {
    print!("{}", e7_dhall());

    // Show the schedules side by side for m = 2, one column per tick.
    let (misses, slices) = global_fp(&dhall_system(2, false), 24);
    println!("\ndynamic binding (m=2): {misses} deadline miss(es)");
    for p in 0..2 {
        let mut row = ['.'; 24];
        for s in slices.iter().filter(|s| s.processor.index() == p) {
            let start = s.start.ticks() as usize;
            let sym = task_symbol(s.job.expect("a busy slice").task);
            row[start..start + s.dur.ticks() as usize].fill(sym);
        }
        println!("  P{p} |{}|", row.iter().collect::<String>());
    }

    let sys = dhall_system(2, true);
    let mut sim = Simulator::with_config(&sys, ProtocolKind::Raw.build(), SimConfig::until(24));
    sim.run();
    println!("\nstatic binding (m=2): {} deadline miss(es)", sim.misses());
    println!("{}", sim.trace().gantt(&sys, Time::ZERO, Time::new(24), 1));
}
