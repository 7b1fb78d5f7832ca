//! The threaded runtime (§5.4): priority-ordered lock hand-off with
//! `MpcpMutex`, and a full model system executed on real OS threads with
//! user-space priority scheduling.
//!
//! Run with `cargo run --example runtime_locks`.

use mpcp::model::Priority;
use mpcp::protocols::ProtocolKind;
use mpcp::runtime::{MpcpMutex, Runtime};
use mpcp::sim::Monitor;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // --- Standalone lock: priority-ordered hand-off ---------------------
    let shared = Arc::new(MpcpMutex::with_spin(Vec::<u32>::new(), 0));
    let holder = shared.lock(Priority::task(100));
    println!("holder takes the lock; three waiters queue (priorities 1, 3, 2)");
    let mut handles = Vec::new();
    for pri in [1u32, 3, 2] {
        let worker = Arc::clone(&shared);
        handles.push(std::thread::spawn(move || {
            worker.lock(Priority::task(pri)).push(pri);
        }));
        while shared.queue_len() < handles.len() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    drop(holder);
    for h in handles {
        h.join().unwrap();
    }
    let order = shared.lock(Priority::task(0)).clone();
    println!("service order by priority: {order:?} (expected [3, 2, 1])");
    assert_eq!(order, vec![3, 2, 1]);

    // --- Full runtime: Example 3 on real threads ------------------------
    println!("\nrunning the Example 3 system on OS threads...");
    let (system, _) = mpcp_bench::paper::example3();
    let trace = Runtime::new(&system).run_all_once();
    // Times are the host's logical clock: one tick per protocol call.
    print!("{}", trace.event_log());
    let mut monitor = Monitor::new(&system, ProtocolKind::Mpcp.monitor_spec());
    monitor.replay(&trace);
    match monitor.error() {
        None => println!("monitor verdict: clean under MPCP's checks"),
        Some(e) => panic!("monitor verdict: {e}"),
    }
}
