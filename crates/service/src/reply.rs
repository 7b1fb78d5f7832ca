//! Admission replies, written straight into one string.
//!
//! A reply names every task of the system, so a tree of keyed values
//! per row costs more than the analysis of a small edit. Both ways of
//! producing one go through the same writer here — `write_body`, one
//! loop over a [`BoundSet`]'s rows — so they cannot drift apart:
//!
//! - the full path renders an [`Admission`] once (`admission_suffix`,
//!   kept by the cache entry in the analysis' place) and prepends the
//!   per-request fields (`admission_line`);
//! - an incremental edit *assembles* its reply (`RowCache::assemble`):
//!   a row's bytes are a pure function of the eight values it shows, the
//!   session keeps each task's values and rendered row, and only rows
//!   whose values moved — the edited processor's, for a compute-only
//!   task — are rendered again.

use crate::json;
use crate::session::{Admission, AdmissionResult};
use mpcp_analysis::BoundSet;
use mpcp_model::{Processor, System, Task};
use std::collections::HashMap;
use std::sync::Arc;

// Infallible: every sink below is a `String`.
fn num(n: f64, out: &mut String) {
    let _ = json::write_num(n, out);
}

fn text(s: &str, out: &mut String) {
    let _ = json::write_str(s, out);
}

fn flag(b: bool) -> &'static str {
    if b {
        "true"
    } else {
        "false"
    }
}

fn list<T>(items: &[T], out: &mut String, mut each: impl FnMut(&T, &mut String)) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(item, out);
    }
    out.push(']');
}

/// The request-dependent fields every admission reply starts with
/// (`ok`, `op`, `session`, `cache`). Consumers read fields by name, so
/// putting them first is a pure serving optimization: a cache hit
/// appends a memoized suffix instead of re-encoding it.
fn write_prefix(op: &str, session: &str, cache: &str, out: &mut String) {
    out.push_str("{\"ok\":true,\"op\":\"");
    out.push_str(op);
    out.push_str("\",\"session\":");
    text(session, out);
    out.push_str(",\"cache\":\"");
    out.push_str(cache);
    out.push_str("\",");
}

/// From `"verdict"` through the opening bracket of `"tasks"`.
fn write_head(r: &AdmissionResult, out: &mut String) {
    out.push_str("\"verdict\":\"");
    out.push_str(if r.admitted { "admit" } else { "reject" });
    out.push_str("\",\"schedulable\":");
    out.push_str(flag(r.schedulable));
    out.push_str(",\"lint\":{\"errors\":");
    num(r.lint_errors as f64, out);
    out.push_str(",\"warnings\":");
    num(r.lint_warnings as f64, out);
    out.push_str("},\"reasons\":");
    list(&r.reasons, out, |r, out| text(r, out));
    out.push_str(",\"tasks\":[");
}

/// What a `tasks[]` row shows besides the task's and the processor's
/// name.
#[derive(Debug, Clone, Copy)]
struct RowValues {
    period: u64,
    wcet: u64,
    blocking: u64,
    demand: f64,
    bound: f64,
    ok: bool,
}

impl RowValues {
    /// For comparing as a memo must — floats by bit pattern, not by
    /// `==`, which conflates `0.0` with `-0.0`.
    fn bits(&self) -> [u64; 6] {
        let ok = u64::from(self.ok);
        let (demand, bound) = (self.demand.to_bits(), self.bound.to_bits());
        [self.period, self.wcet, self.blocking, demand, bound, ok]
    }
}

/// The one row writer.
fn write_row(name: &str, processor: &str, v: &RowValues, out: &mut String) {
    out.push_str("{\"name\":");
    text(name, out);
    out.push_str(",\"processor\":");
    text(processor, out);
    out.push_str(",\"period\":");
    num(v.period as f64, out);
    out.push_str(",\"wcet\":");
    num(v.wcet as f64, out);
    out.push_str(",\"blocking\":");
    num(v.blocking as f64, out);
    out.push_str(",\"demand\":");
    num(v.demand, out);
    out.push_str(",\"bound\":");
    num(v.bound, out);
    out.push_str(",\"ok\":");
    out.push_str(flag(v.ok));
    out.push('}');
}

/// Assembles an admission response from the per-request prefix and a
/// result-dependent `suffix` rendered by [`admission_suffix`].
pub(crate) fn admission_line(op: &str, session: &str, cache: &str, suffix: &str) -> String {
    let mut out = String::with_capacity(40 + session.len() + suffix.len());
    write_prefix(op, session, cache, &mut out);
    out.push_str(suffix);
    out
}

/// Renders the result-dependent tail of an admission response —
/// everything from `"verdict"` through the closing brace — byte for
/// byte what encoding [`analyze_with`](crate::session::analyze_with)'s
/// fields as a [`json::Value::Obj`] and dropping its opening brace
/// would give (asserted by test).
pub(crate) fn admission_suffix(a: &Admission) -> String {
    let rows = a.rows.as_ref().map(|(set, system)| (set, system));
    let tasks = rows.map_or(0, |(set, _)| set.per_task().len());
    let mut suffix = String::with_capacity(128 + 160 * tasks);
    write_body(&a.head, rows, &mut suffix, |t, p, values, out| {
        write_row(t.name(), p.name(), values, out);
    });
    suffix
}

/// The one body writer: `head`, then each row of `rows` through `row`
/// (which writes it, or a memo of it), then the allocation summary.
fn write_body(
    head: &AdmissionResult,
    rows: Option<(&BoundSet, &System)>,
    out: &mut String,
    mut row: impl FnMut(&Task, &Processor, &RowValues, &mut String),
) {
    write_head(head, out);
    if let Some((set, system)) = rows {
        for (i, b) in set.per_task().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let t = system.task(b.task);
            let values = RowValues {
                period: t.period().ticks(),
                wcet: t.wcet().ticks(),
                blocking: b.blocking.ticks(),
                demand: b.demand,
                bound: b.bound,
                ok: b.ok,
            };
            row(t, system.processor(b.processor), &values, out);
        }
    }
    out.push(']');
    if let Some(a) = &head.allocation {
        out.push_str(",\"allocation\":{\"heuristic\":");
        text(a.heuristic, out);
        out.push_str(",\"per_processor_utilization\":");
        list(&a.per_processor_utilization, out, |u, out| num(*u, out));
        out.push_str(",\"global_resources\":");
        num(a.global_resources as f64, out);
        out.push('}');
    }
    out.push('}');
}

/// The rendered `tasks[]` rows of a session's incremental replies, by
/// task name. A memo, not state: an entry is used only while what it
/// was rendered from — the processor, by index (a commit that can
/// replace the processor table clears the memo), and the row's values —
/// equals what is to be shown, so a stale or missing entry costs a
/// render and nothing else. Filled by the first edit, never by `submit`:
/// a server holds thousands of sessions that are never edited.
#[derive(Debug, Default)]
pub struct RowCache {
    rows: HashMap<Arc<str>, (usize, [u64; 6], String)>,
    /// Rows rendered since the session was created.
    pub rendered: u64,
    /// Rows taken from the memo since the session was created.
    pub reused: u64,
}

impl RowCache {
    /// The reply to an incremental edit whose candidate `system` got the
    /// verdict `head` with the rows `bounds`, assembled in one buffer —
    /// byte for byte `admission_line(op, session, "delta",
    /// admission_suffix(a))` for the [`Admission`] `a` of the same
    /// system.
    pub(crate) fn assemble(
        &mut self,
        (op, session): (&str, &str),
        head: &AdmissionResult,
        bounds: Option<&BoundSet>,
        system: &System,
    ) -> String {
        let mut out = String::with_capacity(256 + 160 * system.tasks().len());
        write_prefix(op, session, "delta", &mut out);
        let rows = bounds.map(|set| (set, system));
        write_body(head, rows, &mut out, |t, p, values, out| {
            let key = (p.id().index(), values.bits());
            match self.rows.get(t.name()) {
                Some((at, bits, bytes)) if (*at, *bits) == key => {
                    out.push_str(bytes);
                    self.reused += 1;
                }
                _ => {
                    let start = out.len();
                    write_row(t.name(), p.name(), values, out);
                    let entry = (key.0, key.1, out[start..].to_owned());
                    self.rows.insert(Arc::clone(t.shared_name()), entry);
                    self.rendered += 1;
                }
            }
        });
        out
    }

    /// Drops the row of a task that left the session (or never joined).
    pub(crate) fn forget(&mut self, name: &str) {
        self.rows.remove(name);
    }

    /// Drops every row: the session's spec was replaced.
    pub(crate) fn clear(&mut self) {
        self.rows = HashMap::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use crate::proto::{AdmissionProtocol, AllocDirective};
    use crate::session::{admit, analyze_with, AllocSummary, TaskVerdict};
    use crate::wire::SystemSpec;

    /// One row as a [`Value`] tree.
    fn reference_row(t: &TaskVerdict) -> Value {
        Value::obj([
            ("name", Value::str(t.name.clone())),
            ("processor", Value::str(t.processor.clone())),
            ("period", Value::from(t.period)),
            ("wcet", Value::from(t.wcet)),
            ("blocking", Value::from(t.blocking)),
            ("demand", Value::from(t.demand)),
            ("bound", Value::from(t.bound)),
            ("ok", Value::Bool(t.ok)),
        ])
    }

    /// The suffix as a [`Value`] tree, encoded, minus its opening brace:
    /// the writer the streaming one replaced, and the reference the
    /// rendering of an [`Admission`] is held to.
    fn reference_suffix(result: &AdmissionResult) -> String {
        let mut pairs: Vec<(String, Value)> = vec![
            (
                "verdict".into(),
                Value::str(if result.admitted { "admit" } else { "reject" }),
            ),
            ("schedulable".into(), Value::Bool(result.schedulable)),
            (
                "lint".into(),
                Value::obj([
                    ("errors", Value::from(result.lint_errors)),
                    ("warnings", Value::from(result.lint_warnings)),
                ]),
            ),
            (
                "reasons".into(),
                Value::Arr(result.reasons.iter().map(Value::str).collect()),
            ),
            (
                "tasks".into(),
                Value::Arr(result.tasks.iter().map(reference_row).collect()),
            ),
        ];
        if let Some(a) = &result.allocation {
            pairs.push((
                "allocation".into(),
                Value::obj([
                    ("heuristic", Value::str(a.heuristic)),
                    (
                        "per_processor_utilization",
                        Value::Arr(
                            a.per_processor_utilization
                                .iter()
                                .map(|u| Value::Num(*u))
                                .collect(),
                        ),
                    ),
                    ("global_resources", Value::from(a.global_resources)),
                ]),
            ));
        }
        Value::Obj(pairs).encode()[1..].to_owned()
    }

    /// The writers, on values no analysis gives: the head and the
    /// allocation summary through [`write_body`] with no rows, and each
    /// row through [`write_row`].
    #[test]
    fn streamed_suffix_equals_the_value_tree_encoding() {
        // xorshift: seeded, dependency-free.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let names = [
            "plain",
            "quo\"te",
            "back\\slash",
            "tab\tnew\nline",
            "ctl\u{1}\u{1f}",
            "unicode-é-日本",
            "",
        ];
        let floats = [
            0.0,
            1.0,
            -3.0,
            0.75,
            0.1 + 0.2,
            0.828_427_124_746_190_1,
            9.007_199_254_740_992e15,
            1.0e21,
            1.5e-9,
            f64::NAN,
            f64::INFINITY,
        ];
        for case in 0..200 {
            let n_tasks = if case == 0 { 0 } else { next() % 6 };
            let tasks = (0..n_tasks)
                .map(|_| TaskVerdict {
                    name: names[next() as usize % names.len()].to_owned(),
                    processor: names[next() as usize % names.len()].to_owned(),
                    period: next() % 100_000,
                    wcet: next() % 1_000,
                    blocking: next() >> (next() % 64),
                    demand: floats[next() as usize % floats.len()],
                    bound: floats[next() as usize % floats.len()],
                    ok: next() % 2 == 0,
                })
                .collect();
            let allocation = (next() % 3 == 0).then(|| AllocSummary {
                heuristic: "first-fit-decreasing",
                per_processor_utilization: (0..next() % 4)
                    .map(|_| floats[next() as usize % floats.len()])
                    .collect(),
                global_resources: next() as usize % 9,
            });
            let result = AdmissionResult {
                admitted: next() % 2 == 0,
                schedulable: next() % 2 == 0,
                lint_errors: next() as usize % 4,
                lint_warnings: next() as usize % 4,
                reasons: (0..next() % 3)
                    .map(|_| names[next() as usize % names.len()].to_owned())
                    .collect(),
                tasks,
                allocation,
                analyzed: SystemSpec::default(),
            };
            let head = AdmissionResult {
                tasks: Vec::new(),
                ..result.clone()
            };
            let mut out = String::new();
            write_body(&head, None, &mut out, |_, _, _, _| unreachable!());
            assert_eq!(out, reference_suffix(&head), "case {case}: {head:?}");
            for t in &result.tasks {
                let values = RowValues {
                    period: t.period,
                    wcet: t.wcet,
                    blocking: t.blocking,
                    demand: t.demand,
                    bound: t.bound,
                    ok: t.ok,
                };
                let mut out = String::new();
                write_row(&t.name, &t.processor, &values, &mut out);
                assert_eq!(out, reference_row(t).encode(), "case {case}: {t:?}");
            }
        }
    }

    /// An admission's suffix is the reference encoding of the result
    /// [`analyze_with`] makes of it: under every protocol, allocated or
    /// not, admitted and rejected, with names that need escaping, for an
    /// empty and an invalid system.
    #[test]
    fn a_suffix_is_the_value_tree_encoding_of_its_result() {
        let mut specs = vec![SystemSpec::default()];
        for seed in 0..24u64 {
            let family = mpcp_taskgen::WorkloadConfig::default()
                .processors(3)
                .tasks_per_processor(3)
                .utilization(0.3 + 0.1 * (seed % 6) as f64)
                .resources(1, 2)
                .sections(0, 2);
            let mut spec = SystemSpec::from_system(&mpcp_taskgen::generate(&family, seed));
            if seed % 3 == 0 {
                spec.processors[0] = "quo\"te-é".into();
                spec.tasks[0].name = "tab\t日本".into();
            }
            specs.push(spec);
        }
        let mut invalid = specs[1].clone();
        invalid.tasks[0].period = 0;
        specs.push(invalid);
        let allocate = AllocDirective {
            processors: 2,
            heuristic: mpcp_alloc::Heuristic::FirstFitDecreasing,
        };
        let mut verdicts = [0; 2];
        for spec in &specs {
            for protocol in AdmissionProtocol::ALL {
                for allocate in [None, Some(allocate)] {
                    let result = analyze_with(spec, allocate, protocol);
                    let suffix = admission_suffix(&admit(spec, allocate, protocol));
                    assert_eq!(suffix, reference_suffix(&result), "{spec:?}");
                    verdicts[usize::from(result.admitted)] += 1;
                }
            }
        }
        assert!(
            verdicts.iter().all(|&n| n > 20),
            "rejected / admitted: {verdicts:?}"
        );
    }
}
