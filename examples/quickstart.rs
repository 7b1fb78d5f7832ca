//! Quickstart: model a small two-processor system, compute the protocol
//! tables and blocking bounds, check schedulability, and simulate it.
//!
//! Run with `cargo run --example quickstart`.

use mpcp::analysis::{self, Analysis, BlockingConfig};
use mpcp::core::{CeilingTable, GcsPriorities};
use mpcp::model::{Body, System, TaskDef, Time};
use mpcp::protocols::Mpcp;
use mpcp::sim::Simulator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A sensor-fusion-style system: two processors, a shared track table
    // in global memory, and a local display buffer on P0.
    let mut b = System::builder();
    let p = b.add_processors(2);
    let tracks = b.add_resource("track_table"); // global
    let display = b.add_resource("display_buf"); // local to P0

    b.add_task(
        TaskDef::new("radar", p[0]).period(40).body(
            Body::builder()
                .compute(3)
                .critical(tracks, |c| c.compute(2))
                .critical(display, |c| c.compute(1))
                .build(),
        ),
    );
    b.add_task(
        TaskDef::new("display", p[0]).period(120).body(
            Body::builder()
                .critical(display, |c| c.compute(2))
                .compute(6)
                .build(),
        ),
    );
    b.add_task(
        TaskDef::new("fusion", p[1]).period(60).body(
            Body::builder()
                .compute(5)
                .critical(tracks, |c| c.compute(3))
                .compute(2)
                .build(),
        ),
    );
    let system = b.build()?;

    println!("== protocol tables ==");
    println!("{}", analysis::report::ceiling_table(&system));
    let ceilings = CeilingTable::compute(&system);
    let gcs = GcsPriorities::compute(&system);
    println!(
        "track_table ceiling: {} (global band)",
        ceilings.ceiling(tracks)
    );
    println!(
        "radar's gcs priority: {}",
        gcs.of(system.tasks()[0].id(), tracks).unwrap()
    );

    println!("\n== blocking bounds (§5.1) ==");
    let bounds = Analysis::Mpcp.bounds(&system, BlockingConfig::paper())?;
    println!("{}", analysis::report::blocking_table(&system, &bounds));

    println!("== Theorem 3 ==");
    println!("{}", analysis::report::sched_table(&system, &bounds));

    println!("== simulation (first 120 ticks) ==");
    let mut sim = Simulator::new(&system, Mpcp::new());
    sim.run_until(120);
    println!(
        "{}",
        sim.trace().gantt(&system, Time::ZERO, Time::new(120), 2)
    );
    println!("{}", sim.metrics());
    assert_eq!(sim.misses(), 0);
    Ok(())
}
