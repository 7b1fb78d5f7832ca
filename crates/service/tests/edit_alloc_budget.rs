//! Allocation budget of an incremental edit.
//!
//! An `add-task` / `remove-task` of a compute-only task recomputes one
//! task and one processor, whatever the session's size; this test keeps
//! everything *around* that row proportionate too. On the benchmark's
//! session shape — 8 processors × 40 tasks, persisted, the sampled
//! audit at its default rate — it runs edits through the function a
//! pool worker calls ([`ServerHandle::execute`]) under a counting
//! allocator. Before versions of a session shared what an edit left
//! alone, one edit cost ~9 900 allocations: the candidate spec, system,
//! derived facts, dependency graph, verdict rows and reply were each
//! rebuilt for all 320 tasks.

use mpcp_service::proto::AdmissionProtocol;
use mpcp_service::{
    analyze, spawn, Request, SegSpec, ServerConfig, ServerHandle, SystemSpec, TaskSpec,
};
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

/// Allocations allowed per edit.
const BUDGET: u64 = 2_000;

const SESSION: &str = "edits";

/// A compute-only task: the edit whose dirty set is one task and one
/// processor.
fn plain(name: &str) -> TaskSpec {
    TaskSpec {
        name: name.to_owned(),
        processor: 0,
        period: 10_000,
        deadline: None,
        offset: 0,
        priority: None,
        body: vec![SegSpec::Compute(50)],
    }
}

/// The benchmark's `serve-edits` family — the first system at or after
/// seed 1000 admitted both as it is and with the incoming task — with
/// one more compute-only task at the front of the task list and one in
/// the middle.
fn session_spec() -> SystemSpec {
    let family = WorkloadConfig::default()
        .processors(8)
        .tasks_per_processor(40)
        .utilization(0.1)
        .resources(1, 3)
        .sections(1, 4)
        .global_access(0.7)
        .section_len(0.01, 0.05)
        .clusters(2);
    (1000..1256)
        .map(|seed| {
            let mut spec = SystemSpec::from_system(&generate(&family, seed));
            spec.tasks.insert(spec.tasks.len() / 2, plain("middle"));
            spec.tasks.insert(0, plain("front"));
            spec
        })
        .find(|spec| {
            let mut grown = spec.clone();
            grown.tasks.push(plain("incoming"));
            analyze(spec, None).admitted && analyze(&grown, None).admitted
        })
        .expect("an admitted edit session within 256 seeds")
}

/// Runs `request`, which must be served incrementally, and returns how
/// many allocations it took.
fn counted(server: &ServerHandle, request: &Request) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let reply = server.execute(request);
    let spent = ALLOCS.load(Ordering::Relaxed) - before;
    let reply = String::from_utf8(reply).unwrap();
    assert!(
        reply.contains(r#""cache":"delta""#),
        "{}",
        &reply[..200.min(reply.len())]
    );
    spent
}

#[test]
fn an_edit_of_a_320_task_session_stays_within_the_allocation_budget() {
    let dir = std::env::temp_dir().join(format!("mpcp-alloc-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = spawn(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        shards: 1,
        audit_every: 64,
        persist_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("bind test server");
    let reply = server.execute(&Request::Submit {
        session: SESSION.to_owned(),
        system: session_spec(),
        allocate: None,
        protocol: AdmissionProtocol::Mpcp,
    });
    assert!(String::from_utf8(reply)
        .unwrap()
        .contains(r#""verdict":"admit""#));

    let add = |task: TaskSpec| Request::AddTask {
        session: SESSION.to_owned(),
        task,
    };
    let remove = |task: &str| Request::RemoveTask {
        session: SESSION.to_owned(),
        task: task.to_owned(),
    };
    let (add_incoming, remove_incoming) = (add(plain("incoming")), remove("incoming"));
    // The first edit builds the session's engine and fills its row
    // cache; it is also the first of the 64 the audit samples.
    counted(&server, &add_incoming);
    counted(&server, &remove_incoming);

    // Sixty-four edits, so exactly one of them pays for a sampled
    // audit — a full analysis of the candidate — as one in 64 does live.
    let mut window = Vec::new();
    for _ in 0..32 {
        window.push(counted(&server, &add_incoming));
        window.push(counted(&server, &remove_incoming));
    }
    let mean = window.iter().sum::<u64>() / window.len() as u64;
    window.sort_unstable();
    println!(
        "allocations per edit: mean {mean}, median {}, audited {}",
        window[window.len() / 2],
        window[window.len() - 1]
    );
    assert!(mean <= BUDGET, "{mean} allocations per edit on average");
    assert!(window[window.len() - 2] <= BUDGET, "{window:?}");

    // A removal from the middle or the front shifts the id of every
    // later task; what versions share must not depend on ids, or these
    // edits rebuild half the session and all of it. The task then
    // returns at the end of the list.
    for name in ["middle", "front"] {
        let removal = counted(&server, &remove(name));
        let back = counted(&server, &add(plain(name)));
        println!("{name}: removal {removal}, re-add {back}");
        assert!(removal <= BUDGET && back <= BUDGET, "{name}");
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
