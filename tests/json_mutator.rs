//! A seeded mutator over request lines, for the wire parser and the
//! request decoder.
//!
//! Valid `submit`, `add-task` and `remove-task` lines have bytes
//! flipped, inserted, deleted, duplicated and cut, a few edits per
//! mutant, with a fixed seed and budget. For each mutant:
//!
//! - nothing panics;
//! - `json::parse` and `Doc::parse` agree: the same error, or a tape
//!   whose accessors read exactly what the `Value` tree holds;
//! - `Request::from_json` gives the same result from the `Value` as
//!   from the tape.
//!
//! A failing mutant is written to `tests/fixtures/json_mutants/` and
//! then fails the test; every file there is replayed first on each run,
//! so a fixed failure stays fixed.

use mpcp::service::json::{self, fnv1a, Doc, JsonRef, Node, Value};
use mpcp::service::{Request, SystemSpec};
use mpcp::taskgen::{generate, Rng, WorkloadConfig};
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;

const MUTANTS: usize = 20_000;
const SEED: u64 = 0x6a73_6f6e_6d75_7400;
const FIXTURES: &str = "tests/fixtures/json_mutants";

/// Valid request lines to mutate: submissions of a few sizes, one of the
/// benchmark's shape, and single-task edits.
fn originals() -> Vec<String> {
    let family = |procs, tasks| {
        WorkloadConfig::default()
            .processors(procs)
            .tasks_per_processor(tasks)
            .utilization(0.4)
            .resources(1, 2)
            .sections(0, 2)
    };
    let mut lines = Vec::new();
    for (seed, (procs, tasks)) in [(1, (1, 1)), (2, (2, 2)), (3, (2, 3)), (4, (4, 4))] {
        let spec = SystemSpec::from_system(&generate(&family(procs, tasks), seed));
        lines.push(format!(
            r#"{{"op":"submit","session":"s{seed}","system":{}}}"#,
            spec.to_json().encode()
        ));
        let task = spec.to_json().get("tasks").and_then(Value::as_arr).unwrap()[0].encode();
        lines.push(format!(
            r#"{{"op":"add-task","session":"s{seed}","task":{task}}}"#
        ));
        lines.push(format!(
            r#"{{"op":"remove-task","session":"s{seed}","task":"{}"}}"#,
            spec.tasks[0].name
        ));
    }
    lines.push(
        r#"{"op":"submit","session":"a","system":{},"allocate":{"processors":2,"heuristic":"wfd"},"protocol":"dpcp"}"#
            .to_owned(),
    );
    lines
}

/// Bytes worth inserting: the grammar's punctuation, escape starts,
/// number parts, literals and keys the decoder reads.
const FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "\"",
    ":",
    ",",
    "\\",
    "u",
    "D800",
    "DC00",
    "00e9",
    "0",
    "9",
    "-",
    "+",
    "e",
    ".",
    "1e400",
    "null",
    "true",
    " ",
    "\n",
    "\"op\":",
    "\"body\":[",
    "{\"compute\":1}",
    "\"critical\":0",
    "é",
    "😀",
];

fn mutate(rng: &mut Rng, line: &str) -> Vec<u8> {
    let mut b = line.as_bytes().to_vec();
    for _ in 0..rng.range_usize(1, 3) {
        let at = rng.range_usize(0, b.len());
        match rng.range_usize(0, 5) {
            0 if at < b.len() => b[at] ^= 1 << rng.range_u64(0, 7),
            1 => {
                let byte = rng.range_u64(0, 255) as u8;
                b.insert(at, byte);
            }
            2 => {
                let frag = rng.choice(FRAGMENTS).as_bytes();
                b.splice(at..at, frag.iter().copied());
            }
            3 => {
                let end = (at + rng.range_usize(1, 16)).min(b.len());
                b.drain(at..end);
            }
            4 => {
                let end = (at + rng.range_usize(1, 64)).min(b.len());
                let copy = b[at..end].to_vec();
                let to = rng.range_usize(0, b.len());
                b.splice(to..to, copy);
            }
            _ => b.truncate(at),
        }
    }
    b
}

/// Whether the tape's accessors read exactly what `value` holds.
fn agrees(node: Node<'_>, value: &Value) -> bool {
    let bits = |n: Option<f64>| n.map(f64::to_bits);
    let scalars = node.as_str() == value.as_str()
        && bits(node.as_f64()) == bits(value.as_f64())
        && node.as_u64() == value.as_u64()
        && node.as_bool() == value.as_bool();
    let items = match (node.items(), value.as_arr()) {
        (None, None) => true,
        (Some(items), Some(values)) => {
            items.len() == values.len() && items.zip(values).all(|(n, v)| agrees(n, v))
        }
        _ => false,
    };
    let fields = match value {
        Value::Obj(pairs) => pairs
            .iter()
            .all(|(k, _)| match (node.get(k), value.get(k)) {
                (Some(n), Some(v)) => agrees(n, v),
                _ => false,
            }),
        _ => node.get("op").is_none(),
    };
    scalars && items && fields && node.to_value() == *value
}

/// `None` if the checks hold for `line`, else what failed.
fn check(line: &str) -> Option<String> {
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        let tree = json::parse(line);
        let tape = Doc::parse(line);
        match (&tree, &tape) {
            (Err(a), Err(b)) if a == b => None,
            (Ok(value), Ok(doc)) if agrees(doc.root(), value) => {
                let (a, b) = (Request::from_json(value), Request::from_json(doc.root()));
                (a != b).then(|| format!("decoders differ: {a:?} vs {b:?}"))
            }
            _ => Some(format!(
                "parsers differ: {tree:?} vs {:?}",
                tape.as_ref().map(|d| d.root().to_value())
            )),
        }
    }));
    caught.unwrap_or_else(|_| Some("panicked".to_owned()))
}

/// Saves `line` as a fixture and fails.
fn fail(line: &str, why: &str) -> ! {
    std::fs::create_dir_all(FIXTURES).unwrap();
    let path = Path::new(FIXTURES).join(format!("{:016x}.txt", fnv1a(line.as_bytes())));
    std::fs::write(&path, line).unwrap();
    panic!("{why}\n  input saved to {}", path.display());
}

#[test]
fn mutated_request_lines_parse_and_decode_alike_on_tree_and_tape() {
    if let Ok(dir) = std::fs::read_dir(FIXTURES) {
        for file in dir {
            let line = std::fs::read_to_string(file.unwrap().path()).unwrap();
            if let Some(why) = check(&line) {
                panic!("fixture {line:?}: {why}");
            }
        }
    }
    let originals = originals();
    for line in &originals {
        assert_eq!(check(line), None, "{line}");
        assert!(Request::from_json(Doc::parse(line).unwrap().root()).is_ok());
    }
    let mut rng = Rng::new(SEED);
    let (mut parsed, mut decoded) = (0, 0);
    for _ in 0..MUTANTS {
        let original = rng.choice(&originals);
        let bytes = mutate(&mut rng, original);
        let line = String::from_utf8_lossy(&bytes);
        if let Some(why) = check(&line) {
            fail(&line, &why);
        }
        if let Ok(doc) = Doc::parse(&line) {
            parsed += 1;
            decoded += usize::from(Request::from_json(doc.root()).is_ok());
        }
    }
    println!("{MUTANTS} mutants: {parsed} parse, {decoded} decode to a request");
    // The mix reaches past the parser into the decoder.
    assert!(
        parsed > MUTANTS / 20 && decoded > MUTANTS / 50,
        "{parsed} {decoded}"
    );
}
