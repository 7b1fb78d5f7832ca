//! Untraced end-to-end measurement: one *repeat* is set-up (generate
//! inputs, start the child, prime, warm up), one timed stretch against
//! the child process, and the correctness checks on what it answered.
//! `run` takes the median of [`REPEATS`](crate::spec::REPEATS) repeats;
//! `trace` takes a single repeat as the untraced reference its layer
//! rows are compared with.

use crate::child::Child;
use crate::host::Pinned;
use crate::inputs::{self, Stream};
use crate::loadgen::{self, Burst, Conn, Rung, ADMIT, DELTA, HIT, MISS, OK};
use crate::spec::{
    rate_metric, ClosedSpec, EditsSpec, Kind, OpenSpec, SweepSpec, Workload, PINNED_SEED,
    RATE_STATS, REPEATS, RUN_SECONDS, UNGATED,
};
use crate::stats::{median, percentile_sorted, percentile_u64, Summary};
use mpcp_service::json::{self, Value};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Index of each gated metric in [`Repeat::e2e`], in
/// [`END_TO_END`](crate::spec::END_TO_END) order.
pub const SETUP_S: usize = 0;
pub const OPS_PER_S: usize = 1;
pub const CPU_US_PER_OP: usize = 2;
pub const LATENCY_P50_US: usize = 3;
pub const PEAK_RSS_MB: usize = 4;
/// Computed and printed like the gated five, but ungated: see
/// [`UNGATED`](crate::spec::UNGATED).
pub const LATENCY_P90_US: usize = 5;

/// Tallies operations and checks; every failed check is a failed
/// operation, so `failed / attempted` is the ledger's failed share.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the human reading the ledger.
    pub problems: Vec<String>,
}

impl Checker {
    pub fn ops(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.note(format!("{failed} of {attempted} {what}"));
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(what());
        }
    }

    fn note(&mut self, problem: String) {
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Child CPU nanoseconds between two readings of its clock. A
    /// reading that failed, or a clock that ran backwards, is a failed
    /// check and counts no time.
    pub fn cpu_between(&mut self, from: Option<u64>, to: Option<u64>) -> u64 {
        let spent = from.zip(to).and_then(|(from, to)| to.checked_sub(from));
        self.check(spent.is_some(), || {
            format!("the child's CPU clock failed or ran backwards: {from:?} then {to:?}")
        });
        spent.unwrap_or(0)
    }
}

/// Latency distribution of one open-loop rung.
#[derive(Debug, Clone, Default)]
pub struct RungSummary {
    pub rate: u64,
    pub requests: usize,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub max_us: f64,
    pub lateness_p50_us: f64,
    pub lateness_p99_us: f64,
    pub backlog_mid: usize,
    pub backlog_end: usize,
    pub failed: usize,
}

impl RungSummary {
    /// A rung holds when its p90 meets the limit, nothing failed, and
    /// the backlog when the last request went out is no larger than at
    /// half-way plus what the latency limit itself allows in flight.
    pub fn holds(&self, p90_limit_us: f64) -> bool {
        let in_flight_allowance = (self.rate as f64 * p90_limit_us / 1e6) as usize;
        self.failed == 0
            && self.p90_us <= p90_limit_us
            && self.backlog_end <= self.backlog_mid + in_flight_allowance
    }

    /// The latency percentile named by one of [`RATE_STATS`].
    pub fn stat(&self, stat: &str) -> f64 {
        match stat {
            "p50" => self.p50_us,
            "p90" => self.p90_us,
            "p99" => self.p99_us,
            _ => panic!("{stat} is not a reported percentile"),
        }
    }
}

/// Highest rate of the ladder that holds, with every lower rate
/// holding too; 0 when the first rung already fails.
pub fn max_rate_ok(rungs: &[RungSummary], p90_limit_us: f64) -> u64 {
    rungs
        .iter()
        .take_while(|r| r.holds(p90_limit_us))
        .map(|r| r.rate)
        .last()
        .unwrap_or(0)
}

/// Everything one repeat observed beyond the gated numbers.
#[derive(Debug, Clone, Default)]
pub struct Detail {
    /// Sweeps: the report hash of slice 0.
    pub report_hash: String,
    /// Sweeps: per-arm `no_miss`/`accepted` totals of slice 0.
    pub arms: Option<Value>,
    /// Sweeps: slice 0 at `jobs = 1` over the median of its last three
    /// passes at `jobs = min(nproc, 4)`.
    pub parallel_speedup: f64,
    pub parallel_jobs: usize,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub shed: u64,
    pub admitted: u64,
    pub rungs: Vec<RungSummary>,
    pub wakeup_floor_us: f64,
}

/// One segment of a repeat's timed stretch. Segment `k` is the same
/// operations in every repeat (a slice of the scenario stream, a block
/// of the request stream, a rung of the ladder), so its measurements
/// can be compared across repeats one to one.
#[derive(Debug, Clone, Default)]
pub struct Segment {
    pub ops: u64,
    pub wall_s: f64,
    /// Child CPU time spent while the segment ran.
    pub cpu_ns: u64,
    /// `(p50, p90)` latency samples in microseconds: one pair for a
    /// closed-loop block, a sweep slice and the gated open-loop rung,
    /// none for the other rungs.
    pub latency_us: Vec<(f64, f64)>,
}

/// One repeat's result.
#[derive(Debug, Clone)]
pub struct Repeat {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub segments: Vec<Segment>,
    pub detail: Detail,
}

impl Repeat {
    /// Timed operations (scenarios or requests).
    pub fn ops(&self) -> u64 {
        self.segments.iter().map(|s| s.ops).sum()
    }

    pub fn timed_s(&self) -> f64 {
        self.segments.iter().map(|s| s.wall_s).sum()
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        let cpu_ns: u64 = self.segments.iter().map(|s| s.cpu_ns).sum();
        cpu_ns as f64 / 1e3 / self.ops() as f64
    }
}

/// What a repeat is asked to do beyond the timed stretch.
#[derive(Debug, Clone, Copy)]
pub struct Extras {
    /// Sweeps: passes over slice 0 at `jobs = min(nproc, 4)` after the
    /// sequential ones, beyond the one every repeat makes as the
    /// worker-count check and for `parallel_speedup`.
    pub parallel_passes: usize,
    /// Serve: closed-loop `ping` round trips after the timed stretch,
    /// for `service.wakeup_floor_us`.
    pub pings: usize,
}

impl Extras {
    /// The driver form: the gated metrics need neither.
    pub const NONE: Extras = Extras {
        parallel_passes: 0,
        pings: 0,
    };

    /// Extra parallel passes `run` and `trace` ask for, six in all, of
    /// which the last three count: the sandbox's second vCPU needs over
    /// a second of demand before it is a second core (see
    /// [`crate::host`]), so the first passes run at the speed of one.
    pub const WARM_PARALLEL_PASSES: usize = 5;
}

/// One ungated figure `run` reports beside the gated ones.
pub struct Info {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
}

/// The whole untraced run of one workload: `repeats` repeats.
pub struct Measured {
    pub checker: Checker,
    pub repeats: Vec<Repeat>,
    kind: Kind,
}

impl Measured {
    /// The five gated metrics, in [`END_TO_END`](crate::spec::END_TO_END)
    /// order, then the ungated p90 latency. Each segment's wall time, CPU time and latency samples
    /// are first reduced to their **median over the repeats**, so a
    /// stall that hits one repeat's copy of a segment is outvoted by
    /// the other copies; throughput and CPU per operation are then
    /// totals over those medians, latencies the median sample.
    pub fn robust(&self) -> [f64; 6] {
        self.robust_of(&self.repeats)
    }

    fn robust_of(&self, repeats: &[Repeat]) -> [f64; 6] {
        let across =
            |f: &dyn Fn(&Repeat) -> f64| median(&repeats.iter().map(f).collect::<Vec<_>>());
        let first = &repeats[0].segments;
        let (mut ops, mut wall_s, mut cpu_ns) = (0u64, 0.0, 0.0);
        let (mut p50s, mut p90s) = (Vec::new(), Vec::new());
        for (k, segment) in first.iter().enumerate() {
            ops += segment.ops;
            wall_s += across(&|r| r.segments[k].wall_s);
            cpu_ns += across(&|r| r.segments[k].cpu_ns as f64);
            for j in 0..segment.latency_us.len() {
                p50s.push(across(&|r| r.segments[k].latency_us[j].0));
                p90s.push(across(&|r| r.segments[k].latency_us[j].1));
            }
        }
        p90s.sort_by(f64::total_cmp);
        // Sweeps: a pass's wall time is its latency, so the p90 is
        // taken over the slices; elsewhere every segment has its own
        // p90 and the median segment is reported.
        let tail = if matches!(self.kind, Kind::Sweep(_)) {
            0.9
        } else {
            0.5
        };
        let mut out = [0.0; 6];
        out[SETUP_S] = across(&|r| r.setup_s);
        out[OPS_PER_S] = ops as f64 / wall_s;
        out[CPU_US_PER_OP] = cpu_ns / 1e3 / ops as f64;
        out[LATENCY_P50_US] = median(&p50s);
        out[LATENCY_P90_US] = percentile_sorted(&p90s, tail);
        out[PEAK_RSS_MB] = across(&|r| r.peak_rss_mb);
        out
    }

    /// Each repeat's own reading of the six metrics, for the ledger's
    /// min-max range.
    pub fn per_repeat(&self) -> Vec<[f64; 6]> {
        self.repeats
            .iter()
            .map(|r| self.robust_of(std::slice::from_ref(r)))
            .collect()
    }

    /// What the ledger prints per metric: the robust value as the
    /// median, the repeats' own readings as the range.
    pub fn summaries(&self) -> [Summary; 6] {
        let robust = self.robust();
        let each = self.per_repeat();
        std::array::from_fn(|i| {
            let range = Summary::of(&each.iter().map(|e| e[i]).collect::<Vec<_>>());
            Summary {
                median: robust[i],
                ..range
            }
        })
    }

    pub fn timed_s(&self) -> f64 {
        self.repeats.iter().map(Repeat::timed_s).sum()
    }

    fn over_repeats(&self, f: impl Fn(&Repeat) -> f64) -> Summary {
        Summary::of(&self.repeats.iter().map(f).collect::<Vec<_>>())
    }

    /// The ungated figures, each over all repeats: the demoted p90
    /// latency for every workload, the parallel speed-up of a sweep,
    /// and for the rate ladder the highest rate that held and the
    /// latencies at the reported rates.
    pub fn info(&self) -> Vec<Info> {
        let info = |name: &str, unit, summary| Info {
            name: name.to_owned(),
            unit,
            summary,
        };
        let mut out = vec![info(UNGATED.0, UNGATED.1, self.summaries()[LATENCY_P90_US])];
        match self.kind {
            Kind::Sweep(_) => out.push(info(
                "parallel_speedup",
                "ratio",
                self.over_repeats(|r| r.detail.parallel_speedup),
            )),
            Kind::Open(o) => {
                out.push(info(
                    "max_rate_ok",
                    "1/s",
                    self.over_repeats(|r| max_rate_ok(&r.detail.rungs, o.p90_limit_us) as f64),
                ));
                for (k, rate) in o.rates.iter().enumerate() {
                    if !o.reported_rates.contains(rate) {
                        continue;
                    }
                    for stat in RATE_STATS {
                        let summary = self.over_repeats(|r| r.detail.rungs[k].stat(stat));
                        out.push(info(&rate_metric(stat, *rate), "us", summary));
                    }
                }
            }
            Kind::Closed(_) | Kind::Edits(_) => {}
        }
        out
    }

    /// The rate ladder over all repeats: per rung the median of each
    /// latency and lateness figure, the largest maximum and backlogs,
    /// and the failures of every repeat together.
    pub fn ladder(&self) -> Vec<RungSummary> {
        let rungs = |k: usize| self.repeats.iter().map(move |r| &r.detail.rungs[k]);
        let first = &self.repeats[0].detail.rungs;
        (0..first.len())
            .map(|k| {
                let mid = |f: fn(&RungSummary) -> f64| median(&rungs(k).map(f).collect::<Vec<_>>());
                let most = |f: fn(&RungSummary) -> usize| rungs(k).map(f).max().unwrap_or(0);
                RungSummary {
                    rate: first[k].rate,
                    requests: first[k].requests,
                    p50_us: mid(|r| r.p50_us),
                    p90_us: mid(|r| r.p90_us),
                    p99_us: mid(|r| r.p99_us),
                    max_us: rungs(k).map(|r| r.max_us).fold(0.0, f64::max),
                    lateness_p50_us: mid(|r| r.lateness_p50_us),
                    lateness_p99_us: mid(|r| r.lateness_p99_us),
                    backlog_mid: most(|r| r.backlog_mid),
                    backlog_end: most(|r| r.backlog_end),
                    failed: rungs(k).map(|r| r.failed).sum(),
                }
            })
            .collect()
    }
}

/// What every repeat of one invocation is asked, and what it may keep
/// for the next one.
struct Ask<'a> {
    w: &'a Workload,
    seed: u64,
    /// Seconds of budget per repeat.
    budget: f64,
    extras: Extras,
    /// Whether the totals pinned for the pinned seed at the full budget
    /// apply.
    check_pins: bool,
    /// Offline verdicts of the request stream: the stream is the same
    /// in every repeat, so the first repeat's are kept.
    expected: Option<Vec<bool>>,
}

impl Ask<'_> {
    fn expected_verdicts(&mut self, stream: &Stream) -> &[bool] {
        self.expected
            .get_or_insert_with(|| stream.expected_verdicts())
    }
}

pub fn parallel_jobs() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(4)
}

/// Directory for everything a run writes: `benchmark/out` of the
/// checkout the harness was built in, whatever the working directory,
/// because the benchmark may touch nothing outside its checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory under [`out_dir`], removed when dropped, so an
/// error path leaves nothing behind either.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create(name: &str) -> io::Result<TempDir> {
        let dir = out_dir().join(format!("tmp-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn measure(
    w: &Workload,
    seed: u64,
    seconds: f64,
    repeats: usize,
    extras: Extras,
) -> io::Result<Measured> {
    let mut checker = Checker::default();
    let mut ask = Ask {
        w,
        seed,
        budget: seconds / repeats as f64,
        extras,
        check_pins: seed == PINNED_SEED && seconds == RUN_SECONDS as f64 && repeats == REPEATS,
        expected: None,
    };
    let mut done = Vec::with_capacity(repeats);
    let mut hashes = Vec::new();
    for _ in 0..repeats {
        let repeat = match w.kind {
            Kind::Sweep(s) => sweep_repeat(&ask, &s, &mut hashes, &mut checker)?,
            Kind::Closed(c) => closed_repeat(&mut ask, &c, &mut checker)?,
            Kind::Edits(e) => edits_repeat(&ask, &e, &mut checker)?,
            Kind::Open(o) => open_repeat(&mut ask, &o, &mut checker)?,
        };
        done.push(repeat);
    }
    if let (Kind::Sweep(_), true) = (w.kind, seed == PINNED_SEED) {
        check_sweep_pins(w, &done[0].detail, &mut checker);
    }
    Ok(Measured {
        checker,
        repeats: done,
        kind: w.kind,
    })
}

// ---------------------------------------------------------------- sweeps

struct Pass {
    hash: String,
    scenarios: u64,
    violations: u64,
    arms: Value,
}

fn pass(child: &mut Child, jobs: usize, slice: usize) -> io::Result<(Pass, f64)> {
    let started = Instant::now();
    child.send_line(&format!("pass {jobs} {slice}"))?;
    let line = child.read_line()?;
    let wall_s = started.elapsed().as_secs_f64();
    let v = json::parse(&line).map_err(|e| io::Error::other(format!("sweep child: {e}")))?;
    let field = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(u64::MAX);
    Ok((
        Pass {
            hash: v
                .get("hash")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_owned(),
            scenarios: field("scenarios"),
            violations: field("violations"),
            arms: v.get("arms").cloned().unwrap_or(Value::Null),
        },
        wall_s,
    ))
}

/// `hashes[k]` is the report hash slice `k` gave the first time it was
/// evaluated in this invocation; every later pass over that slice, in
/// any repeat and at any worker count, must give the same.
fn sweep_repeat(
    ask: &Ask<'_>,
    s: &SweepSpec,
    hashes: &mut Vec<String>,
    checker: &mut Checker,
) -> io::Result<Repeat> {
    let jobs = parallel_jobs();
    let p = s.pass_scenarios as u64;
    let mut check_pass = |slice: usize, pass: &Pass, checker: &mut Checker| {
        checker.ops(
            p,
            pass.violations.min(p),
            "scenarios with an oracle violation",
        );
        checker.check(pass.scenarios == p, || {
            format!("a pass evaluated {} scenarios, not {p}", pass.scenarios)
        });
        if hashes.len() == slice {
            hashes.push(pass.hash.clone());
        }
        checker.check(pass.hash == hashes[slice], || {
            format!(
                "slice {slice}: report hash {} differs from the first pass's {}",
                pass.hash, hashes[slice]
            )
        });
    };

    let setup = Instant::now();
    let mut child = Child::start(&["sweep-child", ask.w.name, &ask.seed.to_string()])?;
    let (warm, _) = pass(&mut child, 1, 0)?;
    let setup_s = setup.elapsed().as_secs_f64();
    check_pass(0, &warm, checker);

    let slices = s.slices(ask.budget);
    let mut segments = Vec::with_capacity(slices);
    for slice in 0..slices {
        let cpu_before = child.cpu_ns().ok();
        let (pass, wall_s) = pass(&mut child, 1, slice)?;
        // A sweep's results exist when `run` returns, so a pass's wall
        // time is the latency of every scenario in it.
        segments.push(Segment {
            ops: p,
            wall_s,
            cpu_ns: checker.cpu_between(cpu_before, child.cpu_ns().ok()),
            latency_us: vec![(wall_s * 1e6, wall_s * 1e6)],
        });
        check_pass(slice, &pass, checker);
    }

    // Peak memory belongs to the timed `jobs: 1` stretch, so it is
    // read before the workers of the parallel passes exist.
    let peak_rss_mb = child.peak_rss_mb()?;

    // Slice 0 again at the parallel worker count: the report must not
    // depend on it.
    let mut parallel_s = Vec::new();
    for _ in 0..1 + ask.extras.parallel_passes {
        let (pass, wall_s) = pass(&mut child, jobs, 0)?;
        parallel_s.push(wall_s);
        check_pass(0, &pass, checker);
    }
    // Why the last three: see `Extras::WARM_PARALLEL_PASSES`.
    let awake = &parallel_s[parallel_s.len().saturating_sub(3)..];
    child.stop()?;

    Ok(Repeat {
        setup_s,
        peak_rss_mb,
        detail: Detail {
            report_hash: warm.hash,
            arms: Some(warm.arms),
            parallel_speedup: segments[0].wall_s / median(awake),
            parallel_jobs: jobs,
            ..Detail::default()
        },
        segments,
    })
}

fn check_sweep_pins(w: &Workload, detail: &Detail, checker: &mut Checker) {
    let pinned = w.pinned();
    if let Some(hash) = pinned.get("report_hash").and_then(Value::as_str) {
        checker.check(detail.report_hash == hash, || {
            format!(
                "report hash {} is not the pinned {hash}",
                detail.report_hash
            )
        });
    }
    let Some(Value::Obj(arms)) = pinned.get("arms") else {
        return;
    };
    for (arm, want) in arms {
        for key in ["no_miss", "accepted"] {
            let want = want.get(key).and_then(Value::as_u64);
            let got = detail
                .arms
                .as_ref()
                .and_then(|a| a.get(arm))
                .and_then(|a| a.get(key))
                .and_then(Value::as_u64);
            checker.check(got == want, || {
                format!("arm {arm}: {key} is {got:?}, pinned {want:?}")
            });
        }
    }
}

// ----------------------------------------------------------------- serve

/// A serve child with one connection to it, both on one CPU (see
/// [`crate::host`]). Fields drop in order, so the pinning is undone
/// last.
struct Server {
    conn: Conn,
    child: Child,
    _pinned: Option<Pinned>,
}

fn start_server(persist: Option<&str>) -> io::Result<Server> {
    let pinned = Pinned::to_last_cpu();
    let cpu = pinned
        .as_ref()
        .map_or("-".to_owned(), |p| p.cpu().to_string());
    let mut args = vec!["serve-child", cpu.as_str()];
    args.extend(persist);
    let mut child = Child::start(&args)?;
    let addr: SocketAddr = child
        .read_line()?
        .parse()
        .map_err(|e| io::Error::other(format!("serve child printed no address: {e}")))?;
    let conn = Conn::connect(addr)?;
    Ok(Server {
        conn,
        child,
        _pinned: pinned,
    })
}

/// Cache and shedding counters from the server's own `query` op.
struct Counters {
    hits: u64,
    misses: u64,
    shed: u64,
    session_tasks: Option<u64>,
}

fn query(conn: &mut Conn, session: Option<&str>) -> io::Result<Counters> {
    let request = match session {
        Some(s) => format!("{{\"op\":\"query\",\"session\":\"{s}\"}}"),
        None => "{\"op\":\"query\"}".to_owned(),
    };
    let reply = conn.request(&request)?;
    let v = json::parse(&reply).map_err(|e| io::Error::other(format!("query reply: {e}")))?;
    let at = |a: &str, b: &str| v.get(a).and_then(|x| x.get(b)).and_then(Value::as_u64);
    Ok(Counters {
        hits: at("cache", "hits").unwrap_or(0),
        misses: at("cache", "misses").unwrap_or(0),
        shed: at("server", "overloaded").unwrap_or(0)
            + at("server", "deadline_misses").unwrap_or(0),
        session_tasks: at("session", "tasks"),
    })
}

/// Median closed-loop `ping` round trip: reactor to pool to reactor
/// with no work in between.
fn wakeup_floor_us(conn: &mut Conn, pings: usize) -> io::Result<f64> {
    let mut ns = Vec::with_capacity(pings);
    for _ in 0..pings {
        let started = Instant::now();
        conn.request("{\"op\":\"ping\"}")?;
        ns.push(started.elapsed().as_nanos() as u64);
    }
    Ok(percentile_u64(&mut ns, 0.5) / 1e3)
}

/// Counts replies that are missing, not `ok`, or whose verdict differs
/// from the offline analysis of the same input.
fn wrong_replies(burst: &Burst, order: &[u32], expected: &[bool]) -> u64 {
    let missing = order.len() - burst.flags.len();
    let wrong = burst
        .flags
        .iter()
        .zip(order)
        .filter(|(&f, &i)| f & OK == 0 || (f & ADMIT != 0) != expected[i as usize])
        .count();
    (missing + wrong) as u64
}

/// Cuts a burst at its marks into segments.
fn segments_of(burst: &mut Burst, checker: &mut Checker) -> Vec<Segment> {
    let marks = std::mem::take(&mut burst.marks);
    marks
        .windows(2)
        .map(|pair| {
            let (from, to) = (pair[0], pair[1]);
            let latencies = &mut burst.latency_ns[from.replies..to.replies];
            Segment {
                ops: (to.replies - from.replies) as u64,
                wall_s: (to.at_ns - from.at_ns) as f64 / 1e9,
                cpu_ns: checker.cpu_between(from.probe, to.probe),
                latency_us: vec![(
                    percentile_u64(latencies, 0.5) / 1e3,
                    percentile_u64(latencies, 0.9) / 1e3,
                )],
            }
        })
        .collect()
}

/// Blocks a closed-loop repeat's timed stretch is cut into.
const SEGMENTS: usize = 10;

/// The number of admitted timed submissions is pinned for the pinned
/// seed and budget: it changes only if the inputs or the analysis do.
fn check_admitted_pin(w: &Workload, admitted: u64, checker: &mut Checker) {
    let want = w.pinned().get("admitted").and_then(Value::as_u64);
    if let Some(want) = want {
        checker.check(admitted == want, || {
            format!("{admitted} timed submissions admitted, pinned {want}")
        });
    }
}

/// Timed requests per repeat of a closed-loop workload.
pub fn closed_requests(c: &ClosedSpec, budget: f64) -> (usize, usize) {
    let timed = ((c.requests_per_second * budget).round() as usize).max(c.window);
    // A twentieth of the timed stretch, so set-up time is made of work
    // and not of process start-up jitter; at least a few laps of a
    // cycled stream, so every timed request finds its system cached.
    let warm = (timed / 20).max(c.unique * 4).max(c.window);
    (warm, timed)
}

fn closed_repeat(ask: &mut Ask<'_>, c: &ClosedSpec, checker: &mut Checker) -> io::Result<Repeat> {
    let (warm, timed) = closed_requests(c, ask.budget);
    let setup = Instant::now();
    let stream = inputs::closed_stream(ask.seed, warm + timed, c.unique);
    let mut server = start_server(None)?;
    let Server { conn, child, .. } = &mut server;
    let cpu = || child.cpu_ns().ok();
    let warm_order = &stream.order[..warm];
    let warm_burst = loadgen::closed_loop(conn, &stream.lines, warm_order, c.window, warm, &cpu)?;
    let setup_s = setup.elapsed().as_secs_f64();

    let order = &stream.order[warm..];
    let block = timed.div_ceil(SEGMENTS);
    let mut burst = loadgen::closed_loop(conn, &stream.lines, order, c.window, block, &cpu)?;
    let counters = query(&mut server.conn, None)?;
    let wakeup_floor_us = wakeup_floor_us(&mut server.conn, ask.extras.pings)?;
    let rss = server.child.peak_rss_mb()?;
    drop(server.conn);
    server.child.stop()?;

    // Offline verdicts are computed after the clock has stopped.
    let expected = ask.expected_verdicts(&stream);
    checker.ops(
        warm as u64,
        wrong_replies(&warm_burst, &stream.order[..warm], expected),
        "warm-up replies missing, not ok, or unlike the offline verdict",
    );
    checker.ops(
        timed as u64,
        wrong_replies(&burst, order, expected),
        "replies missing, not ok, or unlike the offline verdict",
    );
    let total = (warm + timed) as u64;
    let distinct = stream.lines.len() as u64;
    checker.check(counters.misses == distinct, || {
        format!(
            "{} cache misses for {distinct} distinct systems",
            counters.misses
        )
    });
    checker.check(counters.hits == total - distinct, || {
        format!(
            "{} cache hits, expected requests - distinct = {}",
            counters.hits,
            total - distinct
        )
    });
    let want = if c.unique == 0 { MISS } else { HIT };
    let unlike = burst.flags.iter().filter(|&&f| f & want == 0).count();
    checker.check(unlike == 0, || {
        format!(
            "{unlike} timed replies were not cache {}",
            if want == HIT { "hits" } else { "misses" }
        )
    });
    checker.check(counters.shed == 0, || {
        format!("{} requests shed", counters.shed)
    });
    let admitted = burst.flags.iter().filter(|&&f| f & ADMIT != 0).count() as u64;
    if ask.check_pins {
        check_admitted_pin(ask.w, admitted, checker);
    }

    Ok(Repeat {
        setup_s,
        peak_rss_mb: rss,
        segments: segments_of(&mut burst, checker),
        detail: Detail {
            bytes_in: stream.bytes_in(order),
            bytes_out: burst.bytes_out,
            cache_hits: counters.hits,
            cache_misses: counters.misses,
            shed: counters.shed,
            admitted,
            wakeup_floor_us,
            ..Detail::default()
        },
    })
}

/// Timed edits per repeat: an even number, so the session ends where
/// it started.
pub fn edit_requests(e: &EditsSpec, budget: f64) -> usize {
    (((e.requests_per_second * budget / 2.0).round() as usize).max(1)) * 2
}

/// Warm-up edits before the clock starts.
const EDIT_WARMUP: usize = 20;

fn edits_repeat(ask: &Ask<'_>, e: &EditsSpec, checker: &mut Checker) -> io::Result<Repeat> {
    let timed = edit_requests(e, ask.budget);
    let setup = Instant::now();
    let edits = inputs::edit_session(e, ask.seed);
    let dir = TempDir::create("edits")?;
    let mut server = start_server(Some(&dir.path().to_string_lossy()))?;
    let primed = loadgen::classify(&server.conn.request(&edits.submit_line)?);
    let lines = [edits.add_line.clone(), edits.remove_line.clone()];
    let order: Vec<u32> = (0..(EDIT_WARMUP + timed) as u32).map(|j| j % 2).collect();
    let Server { conn, child, .. } = &mut server;
    let cpu = || child.cpu_ns().ok();
    let warm_burst =
        loadgen::closed_loop(conn, &lines, &order[..EDIT_WARMUP], 1, EDIT_WARMUP, &cpu)?;
    let setup_s = setup.elapsed().as_secs_f64();

    // Blocks hold whole add/remove pairs.
    let block = timed.div_ceil(2 * SEGMENTS) * 2;
    let mut burst = loadgen::closed_loop(conn, &lines, &order[EDIT_WARMUP..], 1, block, &cpu)?;
    let counters = query(&mut server.conn, Some("edits"))?;
    let wakeup_floor_us = wakeup_floor_us(&mut server.conn, ask.extras.pings)?;
    let rss = server.child.peak_rss_mb()?;
    drop(server.conn);
    server.child.stop()?;
    drop(dir);

    checker.check(primed & OK != 0 && primed & ADMIT != 0, || {
        "the session submission was not admitted".to_owned()
    });
    // Both the grown and the shrunk session are admitted offline (the
    // session was chosen that way), so every edit must answer `admit`,
    // served by the incremental engine.
    let good = OK | ADMIT | DELTA;
    for (b, n, what) in [
        (&warm_burst, EDIT_WARMUP, "warm-up edits"),
        (&burst, timed, "edits"),
    ] {
        let bad = n - b.flags.iter().filter(|&&f| f & good == good).count();
        checker.ops(
            n as u64,
            bad as u64,
            &format!("{what} missing, not ok, not admitted or not served as a delta"),
        );
    }
    let tasks = edits.session.tasks.len() as u64;
    checker.check(counters.session_tasks == Some(tasks), || {
        format!(
            "the session ends with {:?} tasks, started with {tasks}",
            counters.session_tasks
        )
    });
    checker.check(counters.shed == 0, || {
        format!("{} requests shed", counters.shed)
    });

    Ok(Repeat {
        setup_s,
        peak_rss_mb: rss,
        segments: segments_of(&mut burst, checker),
        detail: Detail {
            bytes_in: (timed / 2 * (lines[0].len() + lines[1].len() + 2)) as u64,
            bytes_out: burst.bytes_out,
            shed: counters.shed,
            admitted: timed as u64,
            wakeup_floor_us,
            ..Detail::default()
        },
    })
}

/// Requests per rung for a repeat's budget. Rungs share the time
/// evenly, except that the gated rung runs twice as long: its p90 is a
/// gated metric and needs the samples.
pub fn rung_requests(o: &OpenSpec, budget: f64) -> Vec<usize> {
    let weight = |r: u64| if r == o.gated_rate { 2.0 } else { 1.0 };
    let share_s = budget / o.rates.iter().map(|&r| weight(r)).sum::<f64>();
    o.rates
        .iter()
        .map(|&r| ((r as f64 * share_s * weight(r)).round() as usize).max(20))
        .collect()
}

/// One segment per rung; only the gated rung carries a latency sample
/// (its p50 and p90 over the whole rung).
fn rung_segment(rung: &Rung, gated: bool, checker: &mut Checker) -> Segment {
    let marks = &rung.burst.marks;
    let probe = |mark: Option<&loadgen::Mark>| mark.and_then(|m| m.probe);
    let cpu_ns = checker.cpu_between(probe(marks.first()), probe(marks.last()));
    let mut latency_us = Vec::new();
    if gated {
        let mut all = rung.burst.latency_ns.clone();
        latency_us.push((
            percentile_u64(&mut all, 0.5) / 1e3,
            percentile_u64(&mut all, 0.9) / 1e3,
        ));
    }
    Segment {
        ops: rung.requests as u64,
        wall_s: rung.burst.wall_s,
        cpu_ns,
        latency_us,
    }
}

fn summarize(mut rung: Rung, order: &[u32], expected: &[bool], hot_set: usize) -> RungSummary {
    let mut failed = wrong_replies(&rung.burst, order, expected) as usize;
    // A repeat from the hot set must be a hit, a fresh system a miss.
    failed += rung
        .burst
        .flags
        .iter()
        .zip(order)
        .filter(|(&f, &i)| f & if (i as usize) < hot_set { HIT } else { MISS } == 0)
        .count();
    let lat = &mut rung.burst.latency_ns;
    RungSummary {
        rate: rung.rate,
        requests: rung.requests,
        p50_us: percentile_u64(lat, 0.5) / 1e3,
        p90_us: percentile_u64(lat, 0.9) / 1e3,
        p99_us: percentile_u64(lat, 0.99) / 1e3,
        max_us: percentile_u64(lat, 1.0) / 1e3,
        lateness_p50_us: percentile_u64(&mut rung.lateness_ns, 0.5) / 1e3,
        lateness_p99_us: percentile_u64(&mut rung.lateness_ns, 0.99) / 1e3,
        backlog_mid: rung.backlog_mid,
        backlog_end: rung.backlog_end,
        failed,
    }
}

fn open_repeat(ask: &mut Ask<'_>, o: &OpenSpec, checker: &mut Checker) -> io::Result<Repeat> {
    let counts = rung_requests(o, ask.budget);
    let total: usize = counts.iter().sum();
    let setup = Instant::now();
    let stream = inputs::open_stream(o, ask.seed, total);
    let mut server = start_server(None)?;
    let Server { conn, child, .. } = &mut server;
    let cpu = || child.cpu_ns().ok();
    // Sending the hot set once makes every later repeat of it a hit.
    let hot = &stream.order[..o.hot_set];
    let warm_burst = loadgen::closed_loop(conn, &stream.lines, hot, 8, o.hot_set, &cpu)?;
    let setup_s = setup.elapsed().as_secs_f64();

    let mut rungs = Vec::with_capacity(counts.len());
    let mut offset = o.hot_set;
    for (&rate, &n) in o.rates.iter().zip(&counts) {
        let order = &stream.order[offset..offset + n];
        rungs.push((
            loadgen::open_rung(conn, &stream.lines, order, rate, &cpu)?,
            order,
        ));
        offset += n;
    }
    let counters = query(&mut server.conn, None)?;
    let wakeup_floor_us = wakeup_floor_us(&mut server.conn, ask.extras.pings)?;
    let rss = server.child.peak_rss_mb()?;
    drop(server.conn);
    server.child.stop()?;

    let expected = ask.expected_verdicts(&stream);
    checker.ops(
        o.hot_set as u64,
        wrong_replies(&warm_burst, hot, expected),
        "hot-set replies missing, not ok, or unlike the offline verdict",
    );
    let segments = rungs
        .iter()
        .map(|(rung, _)| rung_segment(rung, rung.rate == o.gated_rate, checker))
        .collect();
    let bytes_out = rungs.iter().map(|(r, _)| r.burst.bytes_out).sum();
    let admitted = rungs
        .iter()
        .flat_map(|(r, _)| &r.burst.flags)
        .filter(|&&f| f & ADMIT != 0)
        .count() as u64;
    let summaries: Vec<RungSummary> = rungs
        .into_iter()
        .map(|(rung, order)| summarize(rung, order, expected, o.hot_set))
        .collect();
    for s in &summaries {
        let what = format!(
            "replies at {} req/s missing, not ok, unlike the offline verdict or the expected cache outcome",
            s.rate
        );
        checker.ops(s.requests as u64, s.failed as u64, &what);
    }
    checker.check(counters.shed == 0, || {
        format!("{} requests shed", counters.shed)
    });
    if ask.check_pins {
        check_admitted_pin(ask.w, admitted, checker);
    }

    Ok(Repeat {
        setup_s,
        peak_rss_mb: rss,
        segments,
        detail: Detail {
            bytes_in: stream.bytes_in(&stream.order[o.hot_set..]),
            bytes_out,
            cache_hits: counters.hits,
            cache_misses: counters.misses,
            shed: counters.shed,
            admitted,
            rungs: summaries,
            wakeup_floor_us,
            ..Detail::default()
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: u64, p90_us: f64, mid: usize, end: usize, failed: usize) -> RungSummary {
        RungSummary {
            rate,
            p90_us,
            backlog_mid: mid,
            backlog_end: end,
            failed,
            ..RungSummary::default()
        }
    }

    #[test]
    fn max_rate_is_the_last_rung_of_the_unbroken_run_that_holds() {
        let limit = 2000.0;
        let ladder = [
            rung(1000, 600.0, 1, 2, 0),
            rung(2000, 900.0, 2, 3, 0),
            rung(3000, 2500.0, 3, 3, 0), // p90 over the limit
            rung(4000, 1000.0, 3, 3, 0), // holds, but after a failure
        ];
        assert_eq!(max_rate_ok(&ladder, limit), 2000);
        assert_eq!(max_rate_ok(&ladder[..1], limit), 1000);
        assert_eq!(max_rate_ok(&[rung(1000, 600.0, 1, 1, 1)], limit), 0);
    }

    #[test]
    fn a_growing_backlog_fails_a_rung_even_with_a_good_p90() {
        // At 1000 req/s a 2 ms limit allows two requests in flight.
        assert!(rung(1000, 500.0, 4, 6, 0).holds(2000.0));
        assert!(!rung(1000, 500.0, 4, 7, 0).holds(2000.0));
    }

    #[test]
    fn wrong_replies_counts_missing_failed_and_mismatched() {
        let burst = Burst {
            flags: vec![OK | ADMIT, OK | ADMIT, 0, OK],
            ..Burst::default()
        };
        // Five were sent; expectations: admit, reject, admit, reject.
        let order = [0, 1, 0, 1, 0];
        assert_eq!(wrong_replies(&burst, &order, &[true, false]), 1 + 1 + 1);
    }

    #[test]
    fn checker_counts_failed_checks_as_failed_operations() {
        let mut c = Checker::default();
        c.ops(100, 0, "x");
        c.check(true, || unreachable!());
        assert!(c.correct());
        c.check(false, || "broken".to_owned());
        c.ops(10, 2, "bad replies");
        assert_eq!((c.attempted, c.failed), (112, 3));
        assert_eq!(c.problems, ["broken", "2 of 10 bad replies"]);
    }

    fn repeat(walls: [f64; 2], p90: f64) -> Repeat {
        Repeat {
            setup_s: 1.0,
            peak_rss_mb: 8.0,
            segments: walls
                .iter()
                .map(|&wall_s| Segment {
                    ops: 100,
                    wall_s,
                    cpu_ns: (wall_s * 5e8) as u64,
                    latency_us: vec![(wall_s * 1e3, p90)],
                })
                .collect(),
            detail: Detail::default(),
        }
    }

    #[test]
    fn a_stall_in_one_repeat_of_a_segment_is_outvoted() {
        // Three repeats of two segments; the second repeat stalls in
        // segment 0 and the third in segment 1. Totals per repeat would
        // read 200 ops in 2.0, 2.9 and 3.0 s; segment medians read 2.0.
        let m = Measured {
            checker: Checker::default(),
            repeats: vec![
                repeat([1.0, 1.0], 40.0),
                repeat([1.9, 1.0], 90.0),
                repeat([1.0, 2.0], 40.0),
            ],
            kind: crate::spec::WORKLOADS[3].kind,
        };
        let v = m.robust();
        assert_eq!(v[OPS_PER_S], 100.0);
        assert_eq!(v[CPU_US_PER_OP], 5000.0);
        assert_eq!(v[LATENCY_P50_US], 1000.0);
        assert_eq!(v[LATENCY_P90_US], 40.0);
        assert_eq!((v[SETUP_S], v[PEAK_RSS_MB]), (1.0, 8.0));
        let each = m.per_repeat();
        assert_eq!(each[0][OPS_PER_S], 100.0);
        assert!((each[1][OPS_PER_S] - 200.0 / 2.9).abs() < 1e-9);
    }

    #[test]
    fn a_failed_or_backward_cpu_reading_is_a_failed_check_and_no_time() {
        let mut c = Checker::default();
        assert_eq!(c.cpu_between(Some(100), Some(350)), 250);
        assert!(c.correct());
        assert_eq!(c.cpu_between(Some(350), Some(100)), 0);
        assert_eq!(c.cpu_between(None, Some(100)), 0);
        assert_eq!(c.cpu_between(Some(100), None), 0);
        assert_eq!((c.attempted, c.failed), (4, 3));
    }

    #[test]
    fn ungated_figures_are_taken_over_every_repeat() {
        let Kind::Open(o) = crate::spec::WORKLOADS[6].kind else {
            panic!("serve-open last")
        };
        // Three repeats of the ladder; the 3000 rung's p90 breaks the
        // limit in the last one only.
        let ladder = |p90_at_3000: f64| Repeat {
            detail: Detail {
                rungs: o
                    .rates
                    .iter()
                    .map(|&rate| RungSummary {
                        p50_us: rate as f64 / 10.0,
                        p90_us: if rate == 3000 { p90_at_3000 } else { 500.0 },
                        max_us: p90_at_3000,
                        ..rung(rate, 0.0, 2, 2, 0)
                    })
                    .collect(),
                ..Detail::default()
            },
            ..repeat([1.0, 1.0], 40.0)
        };
        let m = Measured {
            checker: Checker::default(),
            repeats: vec![ladder(700.0), ladder(900.0), ladder(2600.0)],
            kind: Kind::Open(o),
        };
        let info = m.info();
        let get = |name: &str| info.iter().find(|i| i.name == name).unwrap().summary;
        assert_eq!(get("latency_p90_us.r3000").median, 900.0);
        assert_eq!(get("latency_p90_us.r3000").max, 2600.0);
        assert_eq!(get("latency_p50_us.r1000").median, 100.0);
        assert_eq!(get("latency_p90_us").n, 3);
        let held = get("max_rate_ok");
        assert_eq!((held.min, held.median, held.max), (2000.0, 4000.0, 4000.0));
        assert!(info.iter().all(|i| !i.name.contains("r2000")));
        let l = m.ladder();
        assert_eq!(l.len(), o.rates.len());
        assert_eq!((l[2].rate, l[2].p90_us, l[2].max_us), (3000, 900.0, 2600.0));
        assert_eq!((l[2].backlog_end, l[2].failed), (2, 0));
    }

    #[test]
    fn a_temp_dir_is_gone_once_dropped() {
        let dir = TempDir::create("unit-test").unwrap();
        let path = dir.path().to_owned();
        assert!(path.starts_with(out_dir()) && path.is_dir());
        std::fs::write(path.join("journal.ndjson"), "x").unwrap();
        drop(dir);
        assert!(!path.exists());
    }

    #[test]
    fn segments_follow_the_marks() {
        use crate::loadgen::Mark;
        let mark = |replies, at_ns, probe| Mark {
            replies,
            at_ns,
            probe: Some(probe),
        };
        let mut burst = Burst {
            latency_ns: vec![1000, 3000, 2000, 9000, 9000],
            flags: vec![OK; 5],
            marks: vec![
                mark(0, 0, 100),
                mark(3, 3_000_000, 400),
                mark(5, 4_000_000, 450),
            ],
            ..Burst::default()
        };
        let mut checker = Checker::default();
        let s = segments_of(&mut burst, &mut checker);
        assert!(checker.correct());
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].ops, s[0].cpu_ns, s[0].wall_s), (3, 300, 0.003));
        assert_eq!(s[0].latency_us, [(2.0, 2.8)]);
        assert_eq!((s[1].ops, s[1].cpu_ns, s[1].wall_s), (2, 50, 0.001));
    }

    #[test]
    fn request_counts_follow_the_budget() {
        let c = ClosedSpec {
            window: 32,
            unique: 0,
            requests_per_second: 4800.0,
        };
        assert_eq!(closed_requests(&c, 10.0 / 3.0), (800, 16000));
        let cached = ClosedSpec { unique: 8, ..c };
        assert_eq!(closed_requests(&cached, 0.001), (32, 32));
        let e = EditsSpec {
            processors: 8,
            tasks_per_processor: 40,
            requests_per_second: 200.0,
        };
        assert_eq!(edit_requests(&e, 10.0 / 3.0) % 2, 0);
        let o = OpenSpec {
            rates: &[1000, 2000],
            gated_rate: 2000,
            reported_rates: &[1000],
            hot_set: 4,
            p90_limit_us: 2000.0,
        };
        // Three shares of 2/3 s: one for 1000 req/s, two for the gated rung.
        assert_eq!(rung_requests(&o, 2.0), [667, 2667]);
    }
}
