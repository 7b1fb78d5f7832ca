//! Greedy counterexample shrinking.
//!
//! When the oracle flags a scenario, the raw system is usually too big
//! to debug (a dozen tasks, long bodies, co-prime periods). The
//! shrinker minimizes it while preserving the violation *class* (the
//! [`ViolationKind::code`](crate::ViolationKind::code)): it repeatedly
//! tries to drop whole tasks, halve compute segments, shorten critical
//! sections, remove self-suspensions and coarsen periods, keeping every
//! edit after which the oracle still reports the same code. The result
//! is emitted as a ready-to-paste `tests/` fixture via
//! [`fixture_snippet`].

use crate::config::SweepConfig;
use crate::oracle::{evaluate_system_in, Workspace};
use mpcp_model::{Body, Segment, System, Task, TaskDef};

/// Result of a shrink: the minimized system and the oracle evaluations
/// it cost.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// The smallest system still exhibiting the violation class.
    pub system: System,
    /// Oracle evaluations spent.
    pub evals: usize,
}

/// `system` with task `i`'s definition replaced by `edit`'s result
/// (`None` drops the task). `None` if the edited system fails
/// validation — dropping the only task, say.
fn with_task(
    system: &System,
    i: usize,
    edit: impl Fn(&Task, TaskDef) -> Option<TaskDef>,
) -> Option<System> {
    let defs = system.tasks().iter().enumerate().filter_map(|(j, t)| {
        if j == i {
            edit(t, t.to_def())
        } else {
            Some(t.to_def())
        }
    });
    system.with_tasks(defs).ok()
}

fn map_computes(segments: &[Segment], in_cs: bool, f: &impl Fn(u64, bool) -> u64) -> Vec<Segment> {
    segments
        .iter()
        .map(|s| match s {
            Segment::Compute(d) => Segment::Compute(f(d.ticks(), in_cs).into()),
            Segment::Suspend(d) => Segment::Suspend(*d),
            Segment::Critical(r, nested) => Segment::Critical(*r, map_computes(nested, true, f)),
        })
        .collect()
}

fn without_suspends(segments: &[Segment]) -> Vec<Segment> {
    segments
        .iter()
        .filter(|s| !matches!(s, Segment::Suspend(_)))
        .map(|s| match s {
            Segment::Critical(r, nested) => Segment::Critical(*r, without_suspends(nested)),
            other => other.clone(),
        })
        .collect()
}

/// Shrinks `system` while the oracle keeps reporting a violation whose
/// code equals `code`, within `cfg.max_shrink_evals` re-evaluations.
pub fn shrink(system: &System, cfg: &SweepConfig, code: &str) -> Shrunk {
    let mut evals = 0usize;
    let mut ws = Workspace::default();
    let mut persists = |candidate: &System, evals: &mut usize| {
        *evals += 1;
        let (_, outcomes) = evaluate_system_in(&mut ws, candidate, cfg);
        outcomes
            .iter()
            .flat_map(|p| p.violations.iter())
            .any(|v| v.code() == code)
    };

    let mut cur = system.clone();
    let mut changed = true;
    while changed && evals < cfg.max_shrink_evals {
        changed = false;

        // Pass 1: drop whole tasks.
        let mut i = 0;
        while i < cur.tasks().len() && cur.tasks().len() > 1 && evals < cfg.max_shrink_evals {
            match with_task(&cur, i, |_, _| None) {
                Some(cand) if persists(&cand, &mut evals) => {
                    cur = cand;
                    changed = true;
                    // Same index now names the next task; rescan it.
                }
                _ => i += 1,
            }
        }

        // Passes 2-4: per-task body/period simplifications.
        type BodyEdit = fn(&[Segment]) -> Vec<Segment>;
        let body_edits: [BodyEdit; 3] = [
            // Halve plain compute segments.
            |segs| {
                map_computes(segs, false, &|d, in_cs| {
                    if in_cs {
                        d
                    } else {
                        (d / 2).max(1)
                    }
                })
            },
            // Halve critical-section computes.
            |segs| {
                map_computes(segs, false, &|d, in_cs| {
                    if in_cs {
                        (d / 2).max(1)
                    } else {
                        d
                    }
                })
            },
            // Drop self-suspensions.
            |segs| without_suspends(segs),
        ];
        for edit in body_edits {
            for i in 0..cur.tasks().len() {
                if evals >= cfg.max_shrink_evals {
                    break;
                }
                let new_segments = edit(cur.tasks()[i].body().segments());
                if new_segments == cur.tasks()[i].body().segments() {
                    continue;
                }
                let body = Body::from_segments(new_segments);
                if let Some(cand) = with_task(&cur, i, |_, def| Some(def.body(body.clone()))) {
                    if persists(&cand, &mut evals) {
                        cur = cand;
                        changed = true;
                    }
                }
            }
        }

        // Pass 5: coarsen periods to multiples of 100.
        for i in 0..cur.tasks().len() {
            if evals >= cfg.max_shrink_evals {
                break;
            }
            let task = &cur.tasks()[i];
            let p = task.period().ticks();
            let coarse = p.div_ceil(100) * 100;
            if coarse == p {
                continue;
            }
            let cand = with_task(&cur, i, |t, def| {
                let def = def.period(coarse);
                // An implicit deadline follows its period.
                Some(if t.deadline() == t.period() {
                    def.deadline(coarse)
                } else {
                    def
                })
            });
            if let Some(cand) = cand {
                if persists(&cand, &mut evals) {
                    cur = cand;
                    changed = true;
                }
            }
        }
    }
    Shrunk { system: cur, evals }
}

fn render_segments(segments: &[Segment], out: &mut String) {
    for s in segments {
        match s {
            Segment::Compute(d) => out.push_str(&format!(".compute({})", d.ticks())),
            Segment::Suspend(d) => out.push_str(&format!(".suspend({})", d.ticks())),
            Segment::Critical(r, nested) => {
                out.push_str(&format!(".critical(r[{}], |c| c", r.index()));
                render_segments(nested, out);
                out.push(')');
            }
        }
    }
}

/// Renders `system` as a self-contained `fn <name>() -> System` fixture
/// ready to paste into a `tests/` file.
pub fn fixture_snippet(system: &System, name: &str, comment: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("/// {comment}\n"));
    out.push_str(&format!("fn {name}() -> System {{\n"));
    out.push_str("    let mut b = System::builder();\n");
    out.push_str(&format!(
        "    let p = b.add_processors({});\n",
        system.processors().len()
    ));
    if system.resources().is_empty() {
        out.push_str("    let r: Vec<ResourceId> = Vec::new();\n");
    } else {
        out.push_str("    let r = [");
        for (i, res) in system.resources().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("b.add_resource(\"{}\")", res.name()));
        }
        out.push_str("];\n");
    }
    for task in system.tasks() {
        out.push_str(&format!(
            "    b.add_task(\n        TaskDef::new(\"{}\", p[{}])\n            .period({})\n",
            task.name(),
            task.processor().index(),
            task.period().ticks()
        ));
        if task.deadline() != task.period() {
            out.push_str(&format!(
                "            .deadline({})\n",
                task.deadline().ticks()
            ));
        }
        if task.offset().ticks() != 0 {
            out.push_str(&format!("            .offset({})\n", task.offset().ticks()));
        }
        out.push_str(&format!(
            "            .priority({})\n",
            task.priority().level()
        ));
        let mut body = String::new();
        render_segments(task.body().segments(), &mut body);
        out.push_str(&format!(
            "            .body(Body::builder(){body}.build()),\n    );\n"
        ));
    }
    out.push_str("    b.build().unwrap()\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcp_model::Body;
    use mpcp_protocols::ProtocolKind;

    /// A system whose MPCP measured response can never violate anything
    /// — shrinking an always-false predicate returns it unchanged after
    /// at most the eval budget.
    #[test]
    fn shrink_without_persisting_violation_is_identity() {
        let mut b = System::builder();
        let p = b.add_processors(1);
        b.add_task(
            TaskDef::new("t", p[0])
                .period(10)
                .priority(1)
                .body(Body::builder().compute(2).build()),
        );
        let sys = b.build().unwrap();
        let cfg = SweepConfig {
            protocols: vec![ProtocolKind::Mpcp],
            max_shrink_evals: 10,
            ..SweepConfig::default()
        };
        let out = shrink(&sys, &cfg, "mpcp/blocking-bound");
        assert_eq!(out.system, sys);
    }

    /// Shrinking with a structurally-satisfiable predicate (here: "the
    /// system has a global section") minimizes hard.
    #[test]
    fn fixture_snippet_round_trips_structure() {
        let mut b = System::builder();
        let p = b.add_processors(2);
        let s = b.add_resource("SG0");
        b.add_task(
            TaskDef::new("a", p[0]).period(100).priority(2).body(
                Body::builder()
                    .compute(3)
                    .critical(s, |c| c.compute(2).suspend(1))
                    .build(),
            ),
        );
        b.add_task(
            TaskDef::new("b", p[1])
                .period(200)
                .deadline(150)
                .offset(5)
                .priority(1)
                .body(Body::builder().compute(7).build()),
        );
        let sys = b.build().unwrap();
        let snip = fixture_snippet(&sys, "shrunk_case", "demo");
        assert!(snip.contains("fn shrunk_case() -> System"));
        assert!(snip.contains(".critical(r[0], |c| c.compute(2).suspend(1))"));
        assert!(snip.contains(".deadline(150)"));
        assert!(snip.contains(".offset(5)"));
        assert!(snip.contains("add_processors(2)"));
    }
}
