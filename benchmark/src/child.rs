//! The process under test. The harness re-executes its own binary as
//! `serve-child` or `sweep-child`, so CPU time and peak memory read
//! from `/proc/<pid>` belong to the program and never to the load
//! generator, and no `mpcp` binary has to exist.

use crate::spec::{self, Kind};
use mpcp_service::json::Value;
use mpcp_service::{spawn, ServerConfig};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{ChildStdin, ChildStdout, Command, Stdio};

/// Linux reports process times in `USER_HZ` ticks, fixed at 100.
const TICK_NS: u64 = 10_000_000;

/// The kernel clock a child's CPU time is read from. Chosen once, when
/// the child starts, and never switched: the two count differently
/// (ticks include threads that have exited), so the difference of one
/// reading from each means nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CpuClock {
    /// The live threads' `schedstat` run time, in nanoseconds.
    Schedstat,
    /// `utime + stime` of `/proc/<pid>/stat`, in 10 ms ticks, where the
    /// kernel keeps no `schedstat`.
    Ticks,
}

/// A running child with line-oriented pipes both ways.
pub struct Child {
    proc: std::process::Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    clock: CpuClock,
}

fn unreadable(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("unreadable {what}"))
}

/// Sum of the run time of `pid`'s live threads.
fn schedstat_ns(pid: u32) -> io::Result<u64> {
    let mut total = 0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let stat = std::fs::read_to_string(task?.path().join("schedstat"))?;
        total += stat
            .split_ascii_whitespace()
            .next()
            .and_then(|ns| ns.parse::<u64>().ok())
            .ok_or_else(|| unreadable("schedstat"))?;
    }
    Ok(total)
}

impl Child {
    pub fn start(args: &[&str]) -> io::Result<Child> {
        let mut proc = Command::new(std::env::current_exe()?)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = proc.stdin.take();
        let stdout = BufReader::new(proc.stdout.take().expect("stdout was piped"));
        let clock = match schedstat_ns(proc.id()) {
            Ok(_) => CpuClock::Schedstat,
            Err(_) => CpuClock::Ticks,
        };
        Ok(Child {
            proc,
            stdin,
            stdout,
            clock,
        })
    }

    /// One line the child printed, without its newline.
    pub fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "child exited without answering",
            ));
        }
        Ok(line.trim_end().to_owned())
    }

    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        let stdin = self.stdin.as_mut().expect("child stdin is open");
        stdin.write_all(line.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()
    }

    /// CPU time the process has used so far, in nanoseconds, on the
    /// clock chosen at start. `schedstat` is exact across a stretch in
    /// which no thread exits, which holds for both children's timed
    /// stretches (the server's threads live as long as it does, a
    /// `jobs = 1` sweep runs on the main thread). A reading that fails,
    /// say because a thread exited between the directory listing and
    /// the read, is an error and never a reading from the other clock;
    /// callers count it as a failed check.
    pub fn cpu_ns(&self) -> io::Result<u64> {
        let pid = self.proc.id();
        match self.clock {
            CpuClock::Schedstat => schedstat_ns(pid),
            CpuClock::Ticks => {
                let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
                parse_stat_cpu_ticks(&stat)
                    .map(|ticks| ticks * TICK_NS)
                    .ok_or_else(|| unreadable("/proc stat"))
            }
        }
    }

    /// Peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.proc.id()))?;
        parse_status_hwm_kb(&status)
            .map(|kb| kb as f64 / 1024.0)
            .ok_or_else(|| unreadable("VmHWM in /proc status"))
    }

    /// Closes the child's stdin, which both children take as the order
    /// to finish, and waits for it.
    pub fn stop(mut self) -> io::Result<()> {
        drop(self.stdin.take());
        let status = self.proc.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("child exited with {status}")))
        }
    }
}

impl Drop for Child {
    /// An error path must not leave a server behind: kill and reap.
    /// After [`Child::stop`] both calls are no-ops.
    fn drop(&mut self) {
        let _ = self.proc.kill();
        let _ = self.proc.wait();
    }
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name
/// may contain spaces and parentheses, so fields are counted from the
/// last `)`.
fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

fn parse_status_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// `serve-child <cpu|-> [persist-dir]`: the admission server as every
/// `serve-*` workload runs it, pinned to `cpu` when one is given (see
/// [`crate::host`]). One worker and one shard: the server shares that
/// one CPU with the load generator. The cache is large enough that no
/// workload evicts.
pub fn serve_child(cpu: Option<usize>, persist_dir: Option<&Path>) -> io::Result<()> {
    if let Some(cpu) = cpu {
        crate::host::pin_to(cpu);
    }
    let server = spawn(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        shards: 1,
        cache_capacity: 65_536,
        persist_dir: persist_dir.map(PathBuf::from),
        ..ServerConfig::default()
    })?;
    println!("{}", server.local_addr());
    // Serve until the harness closes our stdin.
    let mut sink = String::new();
    while io::stdin().lock().read_line(&mut sink)? != 0 {
        sink.clear();
    }
    server.shutdown();
    Ok(())
}

/// `sweep-child <workload> <seed>`: answers each `pass <jobs> <slice>`
/// line with one JSON line summarising that `mpcp_sweep::run`.
pub fn sweep_child(workload: &str, seed: u64) -> io::Result<()> {
    let Some(Kind::Sweep(sweep)) = spec::workload(workload).map(|w| w.kind) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{workload:?} is not a sweep workload"),
        ));
    };
    let mut line = String::new();
    let stdout = io::stdout();
    loop {
        line.clear();
        if io::stdin().lock().read_line(&mut line)? == 0 {
            return Ok(());
        }
        let mut words = line.split_ascii_whitespace();
        let (Some("pass"), Some(Ok(jobs)), Some(Ok(slice))) = (
            words.next(),
            words.next().map(str::parse::<usize>),
            words.next().map(str::parse::<usize>),
        ) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "expected `pass <jobs> <slice>`",
            ));
        };
        let report = mpcp_sweep::run(&sweep.config(seed, jobs, slice));
        let arms = report
            .protocols
            .iter()
            .map(|name| {
                let points = report.curves.iter().filter(|c| &c.protocol == name);
                let no_miss: u64 = points.clone().map(|c| c.no_miss).sum();
                let accepted: u64 = points.filter_map(|c| c.analysis_accepted).sum();
                (
                    name.clone(),
                    Value::obj([
                        ("no_miss", Value::from(no_miss)),
                        ("accepted", Value::from(accepted)),
                    ]),
                )
            })
            .collect();
        let answer = Value::obj([
            ("hash", Value::str(format!("{:016x}", report.hash()))),
            ("scenarios", Value::from(report.scenarios)),
            ("violations", Value::from(report.violations.len())),
            ("arms", Value::Obj(arms)),
        ]);
        let mut out = stdout.lock();
        writeln!(out, "{}", answer.encode())?;
        out.flush()?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_a_hostile_command_name() {
        let stat = "4242 (mpcp) bench) x) S 1 4242 4242 0 -1 4194304 150 0 0 0 \
                    37 5 0 0 20 0 3 0 1234 1000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(42));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn status_hwm_is_read_in_kilobytes() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_status_hwm_kb(status), Some(5120));
        assert_eq!(parse_status_hwm_kb("Name:\tx\n"), None);
    }
}
