//! Allocation budgets of an incremental edit, of decoding a submit line
//! and of answering one from the cache, and what a cached verdict keeps.
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

use mpcp_service::json::{field_words, Doc, Value};
use mpcp_service::proto::{AdmissionProtocol, AllocDirective};
use mpcp_service::session::analyze_with;
use mpcp_service::{
    analyze, spawn, AnalysisCache, Request, SegSpec, ServerConfig, ServerHandle, SystemSpec,
    TaskSpec,
};
use mpcp_taskgen::{generate, WorkloadConfig};
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

/// What this thread allocated: allocations and reallocations made, and
/// the blocks and bytes it holds (allocated minus freed).
#[derive(Debug, Clone, Copy)]
struct Counts {
    allocs: u64,
    blocks: i64,
    bytes: i64,
}

thread_local! {
    /// This thread's counts. A test counts its own work —
    /// [`ServerHandle::execute`] runs on the calling thread — and not
    /// the test harness's or another test's, which run beside it.
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts { allocs: 0, blocks: 0, bytes: 0 })
    };
}

fn counts() -> Counts {
    COUNTS.with(Cell::get)
}

fn allocs() -> u64 {
    counts().allocs
}

fn count(allocs: u64, blocks: i64, bytes: isize) {
    // `try_with`: a thread may allocate while its locals are torn down.
    let _ = COUNTS.try_with(|c| {
        let n = c.get();
        c.set(Counts {
            allocs: n.allocs + allocs,
            blocks: n.blocks + blocks,
            bytes: n.bytes + bytes as i64,
        });
    });
}

/// Forwards to the system allocator, counting every allocation,
/// reallocation and free.
struct CountingAlloc;

// SAFETY: pure pass-through to the system allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, 1, layout.size() as isize);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -1, -(layout.size() as isize));
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, 0, new_size as isize - layout.size() as isize);
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
/// many allocations it took (the copy it runs is made outside the
/// count).
fn counted(server: &ServerHandle, request: &Request) -> u64 {
    let request = request.clone();
    let before = allocs();
    let reply = server.execute(request);
    let spent = allocs() - before;
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
    let reply = server.execute(Request::Submit {
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

/// Allocations allowed to parse one request line onto its tape.
const PARSE_BUDGET: u64 = 4;

/// Allocations allowed to parse and decode a submit line beyond those of
/// a clone of the system it carries.
const DECODE_OVERHEAD: u64 = 4;

/// Decoding a submit line allocates what the request holds and little
/// else. On 64 benchmark-shaped submit lines (the `serve-*` family: 4
/// processors × 4 tasks, ~2 KB each), the tape takes at most
/// [`PARSE_BUDGET`] allocations, and tape plus [`Request::from_json`] at
/// most [`DECODE_OVERHEAD`] more than cloning the decoded [`SystemSpec`]
/// (~60). Before the parser wrote a tape, `json::parse` built a `Value`
/// tree of ~296 allocations per such line, and parse plus decode made
/// ~365 (means over these 64 lines).
#[test]
fn decoding_a_submit_line_allocates_little_more_than_the_request() {
    let (mut parsed, mut decoded, mut cloned) = (0, 0, 0);
    for (i, (spec, line)) in submit_lines().iter().enumerate() {
        let before = allocs();
        let doc = Doc::parse(line).unwrap();
        let parse = allocs() - before;
        let request = Request::from_json(doc.root()).unwrap();
        drop(doc);
        let decode = allocs() - before;
        let Request::Submit { system, .. } = &request else {
            panic!("{request:?}")
        };
        assert_eq!(system, spec);
        let before = allocs();
        let copy = system.clone();
        let clone = allocs() - before;
        drop(copy);

        assert!(
            parse <= PARSE_BUDGET,
            "line {i}: {parse} allocations to parse"
        );
        assert!(
            decode <= clone + DECODE_OVERHEAD,
            "line {i}: {decode} allocations to parse and decode, {clone} to clone"
        );
        (parsed, decoded, cloned) = (parsed + parse, decoded + decode, cloned + clone);
    }
    println!(
        "allocations per submit line: parse {:.2}, parse + decode {:.2}, clone {:.2}",
        parsed as f64 / 64.0,
        decoded as f64 / 64.0,
        cloned as f64 / 64.0
    );
}

/// The 64 benchmark-shaped submit lines (the `serve-*` family: 4
/// processors × 4 tasks, ~2 KB each) with the systems they carry.
fn submit_lines() -> Vec<(SystemSpec, String)> {
    let family = WorkloadConfig::default()
        .processors(4)
        .tasks_per_processor(4)
        .utilization(0.4)
        .resources(1, 2)
        .sections(0, 2);
    (0..64u64)
        .map(|i| {
            let spec = SystemSpec::from_system(&generate(&family, 7 + i));
            let line = Value::obj([
                ("op", Value::str("submit")),
                ("session", Value::str(format!("s{}", i % 16))),
                ("system", spec.to_json()),
            ])
            .encode();
            assert!((1_000..4_000).contains(&line.len()), "{} B", line.len());
            (spec, line)
        })
        .collect()
}

/// Allocations an admitted cache hit may take beyond the parse and
/// decode of its line.
const HIT_OVERHEAD: u64 = 8;

/// A cache hit allocates what its request holds and little else. Each
/// of the 64 submit lines is sent twice through the function a pool
/// worker calls; for each admitted hit, parse + decode +
/// [`ServerHandle::execute`] take at most [`HIT_OVERHEAD`] allocations
/// more than parse + decode alone: the session keeps the decoded spec,
/// the key encodes nothing and the reply is one buffer.
#[test]
fn a_cache_hit_allocates_what_its_request_holds() {
    let server = spawn(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        shards: 1,
        ..ServerConfig::default()
    })
    .expect("bind test server");
    let (mut hits, mut decoded, mut spent) = (0, 0, 0);
    for (i, (_, line)) in submit_lines().iter().enumerate() {
        for tag in [r#""cache":"miss""#, r#""cache":"hit""#] {
            let before = allocs();
            let doc = Doc::parse(line).unwrap();
            let request = Request::from_json(doc.root()).unwrap();
            drop(doc);
            let decode = allocs() - before;
            let reply = String::from_utf8(server.execute(request)).unwrap();
            let total = allocs() - before;
            assert!(reply.contains(tag), "line {i}: {}", &reply[..80]);
            if tag.contains("hit") && reply.contains(r#""verdict":"admit""#) {
                assert!(
                    total <= decode + HIT_OVERHEAD,
                    "line {i}: {total} allocations for a hit, {decode} to parse and decode"
                );
                (hits, decoded, spent) = (hits + 1, decoded + decode, spent + total);
            }
        }
    }
    assert!(hits >= 32, "only {hits} of 64 lines admitted");
    println!(
        "allocations per admitted hit ({hits}): parse + decode {:.1}, with execute {:.1}",
        decoded as f64 / f64::from(hits),
        spent as f64 / f64::from(hits)
    );
    server.shutdown();
}

/// Blocks a cache entry may keep: the shared entry, its field words, its
/// reply tail, and a share of the map's growth.
const BLOCKS_PER_ENTRY: i64 = 4;

/// Bytes a cache entry may keep beyond its field words and reply tail:
/// the shared entry itself and a share of the map's growth.
const BYTES_PER_ENTRY: i64 = 256;

/// Mean bytes of an entry's packed field words.
const WORD_BYTES_PER_ENTRY: i64 = 600;

/// A cached verdict keeps its reply and its submission's packed field
/// words, not its analysis. The 64 benchmark-shaped submissions each
/// miss an [`AnalysisCache`] once; what the thread still holds afterwards
/// is, per entry (means over the 64, so the map's growth is amortised),
/// at most [`BLOCKS_PER_ENTRY`] blocks and words + tail +
/// [`BYTES_PER_ENTRY`] bytes, and the words at most
/// [`WORD_BYTES_PER_ENTRY`]. An entry that kept the whole
/// `AdmissionResult` held ~95 blocks and ~5.9 KB before its reply tail
/// was rendered into it, and its words took ~2.5 KB as `u64`s before they
/// were packed.
#[test]
fn a_cached_miss_keeps_its_reply_and_words() {
    let protocol = AdmissionProtocol::Mpcp;
    let specs: Vec<SystemSpec> = submit_lines().into_iter().map(|(spec, _)| spec).collect();
    let keys: Vec<u64> = (specs.iter())
        .map(|s| AnalysisCache::key(s, None, protocol))
        .collect();
    let words: usize = (specs.iter())
        .map(|s| field_words(&(s, None::<AllocDirective>, protocol)).len())
        .sum();
    // Whatever the analysis sets up on first use is not an entry's.
    drop(analyze_with(&specs[0], None, protocol));
    let cache = AnalysisCache::new(4096);
    let (before, mut tails) = (counts(), 0);
    for (spec, key) in specs.iter().zip(keys) {
        let (entry, hit) = cache.get_or_compute(key, spec, (None, protocol));
        assert!(!hit);
        tails += entry.suffix.len();
    }
    let after = counts();
    assert_eq!(cache.stats().entries, 64);
    let n = specs.len() as i64;
    let (blocks, bytes) = (after.blocks - before.blocks, after.bytes - before.bytes);
    let (words, tails) = (words as i64, tails as i64);
    println!(
        "kept per cached miss: {:.1} blocks, {:.0} B (words {:.0} B, tail {:.0} B)",
        blocks as f64 / n as f64,
        bytes as f64 / n as f64,
        words as f64 / n as f64,
        tails as f64 / n as f64
    );
    assert!(
        blocks <= n * BLOCKS_PER_ENTRY,
        "{blocks} blocks kept by {n} entries"
    );
    assert!(
        bytes <= words + tails + n * BYTES_PER_ENTRY,
        "{bytes} B kept by {n} entries, of which words {words} B and tails {tails} B"
    );
    assert!(
        words <= n * WORD_BYTES_PER_ENTRY,
        "{words} B of field words for {n} entries"
    );
}

/// Mean allocations of one miss through [`AnalysisCache::get_or_compute`].
const MISS_BUDGET: u64 = 232;

/// A miss allocates for its analysis and its entry, and for nothing the
/// reply does not show. Each of the 64 submissions misses once; the mean
/// is at most [`MISS_BUDGET`] allocations. A miss that converted the
/// built system back to a spec, rendered its rows from per-task verdicts
/// and built the lint table afresh made 333.4; one whose field words grew
/// their byte vector from empty made 236.0.
#[test]
fn a_miss_allocates_for_its_analysis() {
    let protocol = AdmissionProtocol::Mpcp;
    let specs: Vec<SystemSpec> = submit_lines().into_iter().map(|(spec, _)| spec).collect();
    drop(analyze_with(&specs[0], None, protocol));
    let cache = AnalysisCache::new(4096);
    let mut spent = Vec::new();
    for spec in &specs {
        let key = AnalysisCache::key(spec, None, protocol);
        let before = allocs();
        let (_, hit) = cache.get_or_compute(key, spec, (None, protocol));
        spent.push(allocs() - before);
        assert!(!hit);
    }
    let mean = spent.iter().sum::<u64>() as f64 / spent.len() as f64;
    spent.sort_unstable();
    println!(
        "allocations per miss: mean {mean:.1}, min {}, max {}",
        spent[0],
        spent[spent.len() - 1]
    );
    assert!(mean <= MISS_BUDGET as f64, "{mean:.1} allocations per miss");
}
