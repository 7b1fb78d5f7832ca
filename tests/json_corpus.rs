//! The wire parser and request decoder, byte for byte, over a fixed
//! corpus: every request line the service tests send, benchmark-shaped
//! submissions, one of them cut at every byte length, reordered,
//! duplicated and unknown keys, escaped names, odd numbers, deep
//! nesting and trailing bytes.
//!
//! Each input becomes one line of `tests/golden/json_corpus.txt`:
//! its label, `encode(parse(s))` or the displayed `ParseError`
//! (message and byte offset), and `Request::from_json`'s `Debug` or its
//! `(ErrorCode, message)`, which decoding the line's tape must equal.
//! Results longer than 200 bytes are recorded as their length and
//! FNV-1a hash. Regenerate with `UPDATE_GOLDEN=1 cargo test --test
//! json_corpus`; a line that moves is a behaviour change, not noise.

use mpcp::service::json::{self, fnv1a, Doc};
use mpcp::service::{Request, SystemSpec};
use mpcp::taskgen::{generate, WorkloadConfig};

const GOLDEN: &str = "tests/golden/json_corpus.txt";

/// The benchmark's submission family (4 processors × 4 tasks).
fn submission_family() -> WorkloadConfig {
    WorkloadConfig::default()
        .processors(4)
        .tasks_per_processor(4)
        .utilization(0.4)
        .resources(1, 2)
        .sections(0, 2)
}

/// A submit line as the benchmark writes it: session `s{i % 16}`, the
/// system generated from seed `7 + i`.
fn bench_line(i: u64) -> String {
    let spec = SystemSpec::from_system(&generate(&submission_family(), 7 + i));
    format!(
        r#"{{"op":"submit","session":"s{}","system":{}}}"#,
        i % 16,
        spec.to_json().encode()
    )
}

const LIGHT: &str = concat!(
    r#"{"processors":["P0","P1"],"resources":["SG"],"tasks":["#,
    r#"{"name":"a","processor":0,"period":100,"body":[{"compute":10},{"critical":0,"body":[{"compute":2}]}]},"#,
    r#"{"name":"b","processor":1,"period":200,"body":[{"compute":20},{"critical":0,"body":[{"compute":5}]}]}"#,
    r#"]}"#
);

/// Request lines of `tests/service_e2e.rs` and `proto.rs`'s tests, and
/// the lines their `Value`-built requests encode to.
fn service_lines() -> Vec<String> {
    let submit = |session: &str, system: &str| {
        format!(r#"{{"op":"submit","session":"{session}","system":{system}}}"#)
    };
    let overloaded = concat!(
        r#"{"processors":["P0"],"resources":[],"tasks":["#,
        r#"{"name":"x","processor":0,"period":50,"body":[{"compute":40}]},"#,
        r#"{"name":"y","processor":0,"period":100,"body":[{"compute":60}]}]}"#
    );
    let add = |session: &str, name: &str| {
        format!(
            r#"{{"op":"add-task","session":"{session}","task":{{"name":"{name}","processor":1,"period":400,"body":[{{"compute":4}}]}}}}"#
        )
    };
    let mut lines = vec![
        submit("s", LIGHT),
        submit("bad", overloaded),
        submit("grow", LIGHT),
        r#"{"op":"add-task","session":"grow","task":{"name":"hog","processor":0,"period":50,"body":[{"compute":50}]}}"#.to_owned(),
        add("grow", "c"),
        add("keep", "c"),
        add("seen", "c"),
        add("seen", "d"),
        "{not json at all".to_owned(),
        "garbage line".to_owned(),
        "{\"op\":".to_owned(),
        "{\"session\":\"sturdy\",\"op\":\"subm".to_owned(),
        r#"{"op":"warp"}"#.to_owned(),
        r#"{"op":"submit","session":"s"}"#.to_owned(),
        r#"{"op":"submit","session":"s","system":{"tasks":[{"name":"t"}]}}"#.to_owned(),
        r#"{"op":"add-task","session":"nope","task":{"name":"t","processor":0,"period":10}}"#
            .to_owned(),
        r#"{"op":"ping"}"#.to_owned(),
        r#"{"op":"ping","delay_ms":5}"#.to_owned(),
        r#"{"op":"ping","delay_ms":500}"#.to_owned(),
        r#"{"op":"submit","session":"s","system":{"processors":["P0"],"tasks":[]}}"#.to_owned(),
        r#"{"op":"add-task","session":"s","task":{"name":"t","processor":0,"period":10}}"#
            .to_owned(),
        r#"{"op":"remove-task","session":"s","task":"t"}"#.to_owned(),
        r#"{"op":"query"}"#.to_owned(),
        r#"{"op":"query","session":"s"}"#.to_owned(),
        r#"{"op":"query","session":"bad"}"#.to_owned(),
        r#"{"op":"shutdown"}"#.to_owned(),
        r#"{"op":"submit","session":"s","system":{},"allocate":{"processors":4,"heuristic":"ffd"}}"#
            .to_owned(),
        r#"{"op":"submit","session":"s","system":{}}"#.to_owned(),
        r#"{"no_op":1}"#.to_owned(),
        r#"{"op":"submit","system":{}}"#.to_owned(),
        r#"{"op":"remove-task","session":"s"}"#.to_owned(),
        r#"{"op":"submit","session":"s","system":{},"allocate":{"heuristic":"ffd"}}"#.to_owned(),
    ];
    for protocol in ["mpcp", "dpcp", "msrp", "fmlp", "pcp"] {
        lines.push(format!(
            r#"{{"op":"submit","session":"s","system":{{}},"protocol":"{protocol}"}}"#
        ));
        lines.push(format!(
            r#"{{"op":"submit","session":"d","protocol":"{protocol}","system":{LIGHT}}}"#
        ));
    }
    lines
}

/// Hand-written edge cases: key order, duplicate and unknown keys,
/// escapes, numbers, nesting, trailing bytes and malformed input.
fn edge_lines() -> Vec<String> {
    let task = |name: &str| {
        format!(
            r#"{{"op":"add-task","session":"s","task":{{"name":"{name}","processor":0,"period":10,"body":[{{"compute":1}}]}}}}"#
        )
    };
    // A task with `key` set to `value`, in place of the default where
    // the key is `processor` or `period`.
    let field = |key: &str, value: &str| {
        let pick = |k: &str, default: &str| if k == key { value } else { default }.to_owned();
        let extra = match key {
            "processor" | "period" => String::new(),
            _ => format!(r#","{key}":{value}"#),
        };
        format!(
            r#"{{"op":"add-task","session":"s","task":{{"name":"t","processor":{},"period":{}{extra}}}}}"#,
            pick("processor", "0"),
            pick("period", "10")
        )
    };
    let mut lines: Vec<String> = [
        // Key order, duplicates, unknown keys.
        r#"{"session":"s","system":{"processors":["P0"],"tasks":[]},"op":"submit"}"#,
        r#"{"task":"t","session":"s","op":"remove-task"}"#,
        r#"{"op":"ping","op":"shutdown"}"#,
        r#"{"op":"remove-task","session":"a","session":"b","task":"t","task":"u"}"#,
        r#"{"op":"submit","session":"s","system":{"processors":["P0"]},"system":{"processors":["P1"]}}"#,
        r#"{"op":"ping","extra":[1,{"x":null,"y":[true,false]}],"delay_ms":3}"#,
        r#"{"op":"query","session":7}"#,
        r#"{"op":"ping","delay_ms":-1}"#,
        r#"{"op":"ping","delay_ms":"5"}"#,
        r#"{"op":5}"#,
        r#"[{"op":"ping"}]"#,
        r#""ping""#,
        r#"{"op":"submit","session":"s","system":[]}"#,
        r#"{"op":"submit","session":"s","system":{"processors":"P0"}}"#,
        r#"{"op":"submit","session":"s","system":{"processors":[0]}}"#,
        r#"{"op":"submit","session":"s","system":{"tasks":{}}}"#,
        r#"{"op":"submit","session":"s","system":{},"allocate":{"processors":2,"heuristic":"best"}}"#,
        r#"{"op":"submit","session":"s","system":{},"allocate":{"processors":2}}"#,
        r#"{"op":"submit","session":"s","system":{},"protocol":7}"#,
        r#"{"op":"add-task","session":"s","task":"t"}"#,
        r#"{"op":"add-task","session":"s"}"#,
        r#"{"op":"remove-task","session":"s","task":{"name":"t"}}"#,
        r#"{"op":"add-task","session":"s","task":{"name":"t","processor":0,"period":10,"body":[{"x":1}]}}"#,
        r#"{"op":"add-task","session":"s","task":{"name":"t","processor":0,"period":10,"body":[{"critical":0,"body":{}}]}}"#,
        r#"{"op":"add-task","session":"s","task":{"name":"t","processor":0,"period":10,"body":[{"critical":0}]}}"#,
        r#"{"op":"add-task","session":"s","task":{"name":"t","processor":0,"period":10,"body":[{"compute":1,"suspend":2}]}}"#,
        r#"{"op":"add-task","session":"s","task":{"name":"t","processor":0,"period":10,"body":[{"suspend":2,"critical":0}]}}"#,
        r#"{"op":"add-task","session":"s","task":{"name":"t","processor":0,"period":10,"body":[{"critical":-1,"body":[]}]}}"#,
        r#"{"op":"add-task","session":"s","task":{"name":7,"processor":0,"period":10}}"#,
        r#"{"op":"add-task","session":"s","task":{"name":"t","period":10}}"#,
        r#"{"op":"add-task","session":"s","task":{"name":"t","processor":0}}"#,
        // Whitespace and trailing bytes.
        " \t\r\n{ \"op\" : \"ping\" , \"delay_ms\" : 2 } \n",
        r#"{"op":"ping"} x"#,
        r#"{"op":"ping"}{}"#,
        r#"{"op":"ping"},"#,
        r#"{"op":"ping"}]"#,
        "{\"op\":\"ping\"}\u{0}",
        // Malformed.
        "",
        " ",
        "{",
        "}",
        "[1,",
        "[1,]",
        r#"{"a"}"#,
        r#"{"a":}"#,
        r#"{"a":1,}"#,
        r#"{,}"#,
        r#"{"a" 1}"#,
        r#"{"a":1 "b":2}"#,
        "{1:2}",
        "{]",
        "[}",
        "tru",
        "nul",
        "nulll",
        "True",
        "1 2",
        "01",
        "-",
        "-a",
        "1.",
        ".5",
        "1e",
        "1e+",
        "+1",
        "0x10",
        r#""unterminated"#,
        "\"tab\there\"",
        "\"nl\nhere\"",
        r#""bad \x escape""#,
        r#""\"#,
        // Escapes, alone and in names.
        r#""a\"b\\c\/d\b\f\n\r\t""#,
        r#""\u00e9é""#,
        r#""\ud83d\ude00""#,
        r#""\uD83D\uDE00""#,
        r#""\u0000""#,
        r#""\u001f""#,
        r#""\u12""#,
        r#""\uzzzz""#,
        r#""\u-041""#,
        r#""\u+041""#,
        r#""\uD800""#,
        r#""\uD800x""#,
        r#""\uDC00""#,
        r#""\uD800\uE000""#,
        r#""\uD800\u0041""#,
        r#""\uD800\uD800""#,
        r#""\uDBFF\uDFFF""#,
        "\"é😀\"",
        r#"{"op":"remove-task","session":"s","task":"\u+041"}"#,
        r#"{"op":"remove-task","session":"s","task":"\uD800\uE000"}"#,
        r#"{"op":"remove-task","session":"s","task":"\uD800\u0041"}"#,
        r#"{"op":"remove-task","session":"s\u0041","task":"t"}"#,
        r#"{"op":"ping"}"#,
        // Scalars and numbers.
        "null",
        "true",
        "false",
        "0",
        "-0",
        "42",
        "-1.5e2",
        "1E+2",
        "1e-2",
        "123456789012345",
        "1234567890123456",
        "9007199254740993",
        "1e400",
        "-1e400",
        "0.1",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    for name in [
        r#"a\"b"#,
        r#"a\\b"#,
        r#"\u00e9"#,
        r#"\ud83d\ude00"#,
        "é",
        "😀",
        r#"\/"#,
        "",
    ] {
        lines.push(task(name));
    }
    for (key, value) in [
        ("period", "10.0"),
        ("period", "1e1"),
        ("period", "1.5"),
        ("period", "-10"),
        ("period", "1E+2"),
        ("period", "9007199254740992"),
        ("period", "9007199254740993"),
        ("processor", "0.0"),
        ("processor", "-0"),
        ("processor", "1e400"),
        ("deadline", "8"),
        ("deadline", "8.5"),
        ("deadline", "null"),
        ("offset", "3"),
        ("offset", "-3"),
        ("offset", "3e0"),
        ("priority", "2"),
        ("priority", "4294967295"),
        ("priority", "4294967296"),
        ("priority", "2.5"),
        (
            "body",
            r#"[{"compute":1.0},{"suspend":2e0},{"critical":0.0,"body":[]}]"#,
        ),
        ("body", r#"[{"compute":-1}]"#),
        ("body", r#"[{"compute":0.5}]"#),
        ("body", r#""x""#),
    ] {
        lines.push(field(key, value));
    }
    for depth in [128, 129, 130] {
        lines.push("[".repeat(depth) + &"]".repeat(depth));
        lines.push(format!(
            r#"{{"op":"ping","x":{}{}}}"#,
            "{\"a\":".repeat(depth - 1),
            "1".to_owned() + &"}".repeat(depth - 1)
        ));
    }
    lines
}

/// A result as recorded: itself, or its length and hash if long.
fn short(s: String) -> String {
    if s.len() <= 200 {
        s
    } else {
        format!("#{}:{:016x}", s.len(), fnv1a(s.as_bytes()))
    }
}

/// The golden line of one input. The server decodes from the tape, not
/// the tree: both must give the recorded request.
fn describe(label: &str, input: &str) -> String {
    let (parsed, request) = match json::parse(input) {
        Ok(v) => {
            let request = Request::from_json(&v);
            let doc = Doc::parse(input).expect("the tree parsed");
            assert_eq!(Request::from_json(doc.root()), request, "{label}");
            let request = match request {
                Ok(r) => format!("{r:?}"),
                Err((code, msg)) => format!("{code:?}: {msg}"),
            };
            (v.encode(), request)
        }
        Err(e) => (format!("error: {e}"), "-".to_owned()),
    };
    format!("{label}\t{}\t{}", short(parsed), short(request))
}

fn corpus() -> String {
    let mut out = String::new();
    let mut push = |label: String, input: &str| {
        out.push_str(&describe(&label, input));
        out.push('\n');
    };
    for line in service_lines().iter().chain(&edge_lines()) {
        let label = if line.len() <= 100 {
            format!("{line:?}")
        } else {
            format!("#{}:{:016x}", line.len(), fnv1a(line.as_bytes()))
        };
        push(label, line);
    }
    let bench: Vec<String> = (0..64).map(bench_line).collect();
    for (i, line) in bench.iter().enumerate() {
        push(format!("bench[{i}] {} B", line.len()), line);
    }
    let cut = &bench[0];
    for n in 0..=cut.len() {
        push(format!("cut[{n}]"), &cut[..n]);
    }
    out
}

#[test]
fn the_corpus_reproduces_the_golden_byte_for_byte() {
    let got = corpus();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &got).unwrap();
    }
    let want = std::fs::read_to_string(GOLDEN).expect("golden file");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
