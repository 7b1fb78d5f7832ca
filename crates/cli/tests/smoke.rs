//! End-to-end smoke tests of the `mpcp` binary: argument hardening and
//! a short serve → loadgen round trip over a real socket.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn mpcp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mpcp"))
}

const COMMANDS: [&str; 13] = [
    "exp", "trace", "sim", "dga", "analyze", "allocate", "lint", "verify", "audit", "serve",
    "loadgen", "sweep", "shootout",
];

#[test]
fn no_arguments_prints_usage() {
    let out = mpcp().output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in COMMANDS {
        assert!(text.contains(&format!("mpcp {cmd} ")), "usage misses {cmd}");
        let section = format!("\n{cmd} options:\n");
        assert_eq!(text.matches(&section).count(), 1, "{section:?}");
    }
    let ids = mpcp_bench::experiments::IDS.join(" ");
    assert!(text.contains(&format!("experiments: {ids} all")), "{text}");
    assert_eq!(mpcp().arg("help").output().unwrap().stdout, out.stdout);
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = mpcp().arg("warp").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"), "{err}");
    for cmd in COMMANDS {
        assert!(err.contains(&format!("mpcp {cmd} ")), "usage misses {cmd}");
    }
}

/// An invocation the command table does not describe is refused: the
/// error names the command and the offending word, the flags the
/// command does accept follow, and nothing runs.
#[test]
fn misuse_fails_naming_the_command_and_the_flag() {
    for (args, complaint) in [
        (&["sim", "--seed"][..], "flag --seed requires a value"),
        (&["analyze", "--procs"][..], "flag --procs requires a value"),
        (
            &["loadgen", "--requests"][..],
            "flag --requests requires a value",
        ),
        (
            &["sim", "--seed", "--until", "10"][..],
            "flag --seed requires a value",
        ),
        (&["sweep", "--scenaros", "3"][..], "unknown flag --scenaros"),
        (
            &["sweep", "--seed", "abc"][..],
            "--seed takes a non-negative integer, not \"abc\"",
        ),
        (
            &["sim", "--until", "50x"][..],
            "--until takes a non-negative integer, not \"50x\"",
        ),
        (
            &["sim", "--procs", "two"][..],
            "--procs takes a non-negative integer, not \"two\"",
        ),
        (
            &["sim", "--util", "half"][..],
            "--util takes a number, not \"half\"",
        ),
        (
            &["sim", "--frobnicate", "1"][..],
            "unknown flag --frobnicate",
        ),
        (&["sim", "stray"][..], "unexpected argument \"stray\""),
        (
            &["lint", "--json", "yes"][..],
            "unexpected argument \"yes\"",
        ),
        // A `serve` flag: known to the table, not to this command.
        (&["analyze", "--queue", "8"][..], "unknown flag --queue"),
        (&["exp"][..], "missing <id>"),
        (&["exp", "e1", "e2"][..], "unexpected argument \"e2\""),
    ] {
        let out = mpcp().args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} ran");
        let err = String::from_utf8_lossy(&out.stderr);
        let first = format!("mpcp {}: {complaint}\nmpcp {} accepts: ", args[0], args[0]);
        assert!(err.starts_with(&first), "{args:?}: {err}");
    }
    let out = mpcp().args(["trace", "--seed", "1"]).output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("mpcp trace accepts: --until N, --csv (see"),
        "{err}"
    );
}

/// `--no-blocking-check` was parsed, documented and read by nothing: the
/// model checker's blocking cross-check follows the protocol's oracle
/// arm. The switch is gone from the usage text and from the table,
/// so passing it — bare or with a value — is an error, not a silent
/// no-op.
#[test]
fn removed_no_blocking_check_flag_is_not_advertised() {
    let usage = mpcp().output().unwrap();
    let text = String::from_utf8_lossy(&usage.stdout);
    assert!(!text.contains("no-blocking-check"), "{text}");
    for tail in [
        &["--no-blocking-check"][..],
        &["--no-blocking-check", "1"][..],
    ] {
        let out = mpcp()
            .args(["verify", "--example", "3"])
            .args(tail)
            .output()
            .unwrap();
        assert!(!out.status.success());
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag --no-blocking-check"), "{err}");
    }
}

/// `mpcp audit` certifies every analysis in one run: one summary line
/// each, in table order, the paper's example 3 edited 35 times apiece
/// without a divergence.
#[test]
fn audit_certifies_every_analysis() {
    let out = mpcp().args(["audit", "--example", "3"]).output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), mpcp_analysis::Analysis::ALL.len(), "{text}");
    for (line, analysis) in lines.iter().zip(mpcp_analysis::Analysis::ALL) {
        let want = format!("audit example 3 under {analysis}: 35 edits, 0 divergence(s);");
        assert!(line.starts_with(&want), "{line}");
    }
}

/// Reading a flag the command did not declare panics (the value could
/// not have been given, checked or documented), so one small run of
/// every command that needs no server shows each reads only its own.
#[test]
fn every_command_reads_only_the_flags_it_declares() {
    for args in [
        &["exp", "e3"][..],
        &["trace", "--csv"][..],
        &["sim", "--gantt", "--until", "2000"][..],
        &["dga", "--procs", "2", "--tasks", "2"][..],
        &["analyze"][..],
        &["allocate"][..],
        &["lint", "--example", "1"][..],
        &["verify", "--example", "3", "--max-offset", "0"][..],
        &["audit", "--example", "3", "--steps", "1"][..],
        &["sweep", "--scenarios", "4", "--csv"][..],
        &["shootout", "--scenarios", "4", "--json"][..],
    ] {
        let out = mpcp().args(args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(matches!(out.status.code(), Some(0 | 1)), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn boolean_flags_do_not_need_values() {
    let out = mpcp()
        .args(["lint", "--example", "3", "--json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.trim_start().starts_with('{'), "expected JSON: {text}");

    // `--open` is valueless too; followed by another flag it must parse
    // (the connect to a dead port then fails, which is fine — the
    // regression is the parser demanding a value for it).
    let out = mpcp()
        .args([
            "loadgen",
            "--open",
            "--rate",
            "100",
            "--addr",
            "127.0.0.1:1",
        ])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.starts_with("loadgen: "),
        "--open rejected, or it swallowed --rate: {err}"
    );
}

/// `mpcp dga` output is a contract: the graph table, the per-resource
/// chains (the list scheduler's tie-break order) and the pinned slots,
/// byte for byte. The golden is the output of the original quadratic
/// list scheduler.
#[test]
fn dga_output_matches_golden() {
    let out = mpcp()
        .args([
            "dga",
            "--seed",
            "3",
            "--procs",
            "2",
            "--tasks",
            "2",
            "--gsections",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/dga_seed3_2x2_g2.txt"
        );
        std::fs::write(path, &text).unwrap();
        return;
    }
    let golden = include_str!("golden/dga_seed3_2x2_g2.txt");
    assert!(
        text == golden,
        "mpcp dga output drifted from tests/golden/dga_seed3_2x2_g2.txt at line {}",
        text.lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(text.lines().count().min(golden.lines().count()))
            + 1
    );
}

/// Kills the child even when an assertion panics mid-test.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_loadgen_round_trip() {
    let mut server = KillOnDrop(
        mpcp()
            .args(["serve", "--port", "0", "--workers", "2", "--queue", "16"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    let stdout = server.0.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("server prints a listening banner")
        .unwrap();
    let addr = banner
        .strip_prefix("mpcp-service listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_owned();

    let out = mpcp()
        .args([
            "loadgen",
            "--addr",
            &addr,
            "--requests",
            "40",
            "--connections",
            "2",
            "--unique",
            "4",
            "--procs",
            "2",
            "--tasks",
            "2",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "loadgen failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("\"requests\":40"), "{report}");
    assert!(report.contains("\"cache\""), "{report}");

    // Orderly shutdown over the wire; the server process must exit 0.
    let mut conn = std::net::TcpStream::connect(&addr).unwrap();
    conn.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    let mut reply = String::new();
    BufReader::new(conn.try_clone().unwrap())
        .read_line(&mut reply)
        .unwrap();
    assert!(reply.contains("\"ok\":true"), "{reply}");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(status) = server.0.try_wait().unwrap() {
            assert!(status.success(), "server exited {status:?}");
            break;
        }
        assert!(std::time::Instant::now() < deadline, "server did not exit");
        std::thread::sleep(Duration::from_millis(50));
    }
}
