//! End-to-end smoke tests of the `mpcp` binary: argument hardening and
//! a short serve → loadgen round trip over a real socket.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn mpcp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mpcp"))
}

#[test]
fn no_arguments_prints_usage() {
    let out = mpcp().output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in ["exp", "trace", "lint", "verify", "serve", "loadgen"] {
        assert!(text.contains(&format!("mpcp {cmd}")), "usage misses {cmd}");
    }
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = mpcp().arg("warp").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"), "{err}");
    for cmd in ["exp", "trace", "lint", "verify", "serve", "loadgen"] {
        assert!(err.contains(&format!("mpcp {cmd}")), "usage misses {cmd}");
    }
}

#[test]
fn missing_flag_value_fails_with_usage() {
    for args in [
        &["sim", "--seed"][..],
        &["analyze", "--procs"][..],
        &["loadgen", "--requests"][..],
        &["sim", "--seed", "--until", "10"][..],
    ] {
        let out = mpcp().args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("requires a value"), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }
}

/// `--no-blocking-check` was parsed, documented and read by nothing: the
/// model checker's blocking cross-check follows the protocol's invariant
/// profile. The switch is gone from the usage text and from the flags
/// that stand alone, so passing it is an error, not a silent no-op.
#[test]
fn removed_no_blocking_check_flag_is_not_advertised() {
    let usage = mpcp().output().unwrap();
    let text = String::from_utf8_lossy(&usage.stdout);
    assert!(!text.contains("no-blocking-check"), "{text}");
    let out = mpcp()
        .args(["verify", "--example", "3", "--no-blocking-check"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("requires a value"), "{err}");
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
        !err.contains("requires a value"),
        "--open rejected as a value flag: {err}"
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
