//! Seeded input generation: the same `--seed` gives byte-identical
//! request streams and sweep configurations, and the program under
//! test only ever sees these generated inputs.

use crate::spec::{submission_family, EditsSpec, OpenSpec};
use mpcp_service::json::Value;
use mpcp_service::{analyze, SegSpec, SystemSpec, TaskSpec};
use mpcp_taskgen::{generate, Rng, WorkloadConfig};

/// Session names cycle through this many slots, so the session map
/// stays small however many requests a run sends.
const SESSION_SLOTS: usize = 16;

/// A request stream: request `j` sends `lines[order[j]]`. `specs[i]`
/// is the system `lines[i]` submits, kept for the offline verdict.
pub struct Stream {
    pub lines: Vec<String>,
    pub specs: Vec<SystemSpec>,
    pub order: Vec<u32>,
}

impl Stream {
    /// Offline verdict of every distinct line: what the server must
    /// answer, computed by calling the analysis directly.
    pub fn expected_verdicts(&self) -> Vec<bool> {
        self.specs
            .iter()
            .map(|s| analyze(s, None).admitted)
            .collect()
    }

    /// Request bytes `order` puts on the wire, newlines included.
    pub fn bytes_in(&self, order: &[u32]) -> u64 {
        order
            .iter()
            .map(|&i| self.lines[i as usize].len() as u64 + 1)
            .sum()
    }
}

fn submit_line(slot: usize, spec: &SystemSpec) -> String {
    Value::obj([
        ("op", Value::str("submit")),
        ("session", Value::str(format!("s{}", slot % SESSION_SLOTS))),
        ("system", spec.to_json()),
    ])
    .encode()
}

/// Submission `i` of the stream seeded `seed`.
pub fn submission(seed: u64, i: u64) -> (String, SystemSpec) {
    let spec = SystemSpec::from_system(&generate(&submission_family(), seed.wrapping_add(i)));
    (submit_line(i as usize, &spec), spec)
}

/// `requests` closed-loop submissions over `unique` distinct systems
/// (`0`: all distinct).
pub fn closed_stream(seed: u64, requests: usize, unique: usize) -> Stream {
    let distinct = if unique == 0 { requests } else { unique };
    let (lines, specs) = (0..distinct as u64).map(|i| submission(seed, i)).unzip();
    Stream {
        lines,
        specs,
        order: (0..requests).map(|j| (j % distinct) as u32).collect(),
    }
}

/// The open-loop mix: each request is, by a seeded coin, a repeat from
/// the hot set or a system never sent before. The hot set is sent once
/// up front (the first `hot_set` requests) so its repeats are hits.
pub fn open_stream(spec: &OpenSpec, seed: u64, requests: usize) -> Stream {
    let mut rng = Rng::new(seed ^ 0x6f70_656e);
    let mut order: Vec<u32> = (0..spec.hot_set as u32).collect();
    let mut fresh = spec.hot_set as u32;
    for _ in 0..requests {
        if rng.chance(0.5) {
            order.push(rng.range_usize(0, spec.hot_set - 1) as u32);
        } else {
            order.push(fresh);
            fresh += 1;
        }
    }
    let (lines, specs) = (0..u64::from(fresh)).map(|i| submission(seed, i)).unzip();
    Stream {
        lines,
        specs,
        order,
    }
}

/// The large session `serve-edits` edits, with the three request lines
/// it needs.
pub struct EditSession {
    pub session: SystemSpec,
    pub submit_line: String,
    pub add_line: String,
    pub remove_line: String,
}

/// The cheap common edit: a compute-only task on the first processor,
/// whose dirty set is one processor and not the cluster.
fn incoming_task() -> TaskSpec {
    TaskSpec {
        name: "incoming".to_owned(),
        processor: 0,
        period: 10_000,
        deadline: None,
        offset: 0,
        priority: None,
        body: vec![SegSpec::Compute(50)],
    }
}

/// Utilization 0.1 per processor: with 40 tasks a processor, Theorem 3
/// rejects every system of this family at 0.3 and admits about half of
/// them here, so the seed search below ends after a few systems.
fn edits_family(spec: &EditsSpec) -> WorkloadConfig {
    WorkloadConfig::default()
        .processors(spec.processors)
        .tasks_per_processor(spec.tasks_per_processor)
        .utilization(0.1)
        .resources(1, 3)
        .sections(1, 4)
        .global_access(0.7)
        .section_len(0.01, 0.05)
        .clusters(2)
}

/// The first system at or after `seed` that is admitted both as it is
/// and with the incoming task: an edit stream on a rejected session
/// would only measure error replies.
pub fn edit_session(spec: &EditsSpec, seed: u64) -> EditSession {
    let family = edits_family(spec);
    let task = incoming_task();
    for s in seed..seed.saturating_add(256) {
        let session = SystemSpec::from_system(&generate(&family, s));
        let mut with_task = session.clone();
        with_task.tasks.push(task.clone());
        if !(analyze(&session, None).admitted && analyze(&with_task, None).admitted) {
            continue;
        }
        let task_json = with_task.to_json();
        let task_json = task_json
            .get("tasks")
            .and_then(Value::as_arr)
            .and_then(<[Value]>::last)
            .expect("the task just pushed")
            .clone();
        return EditSession {
            submit_line: Value::obj([
                ("op", Value::str("submit")),
                ("session", Value::str("edits")),
                ("system", session.to_json()),
            ])
            .encode(),
            add_line: Value::obj([
                ("op", Value::str("add-task")),
                ("session", Value::str("edits")),
                ("task", task_json),
            ])
            .encode(),
            remove_line: Value::obj([
                ("op", Value::str("remove-task")),
                ("session", Value::str("edits")),
                ("task", Value::str(task.name.clone())),
            ])
            .encode(),
            session,
        };
    }
    panic!("no admitted edit session within 256 seeds of {seed}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Kind, WORKLOADS};

    #[test]
    fn same_seed_same_bytes_and_other_seed_other_bytes() {
        let a = closed_stream(7, 40, 0);
        let b = closed_stream(7, 40, 0);
        assert_eq!(a.lines, b.lines);
        assert_ne!(a.lines, closed_stream(8, 40, 0).lines);
        let mut distinct = a.lines.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), 40, "an uncached stream never repeats");
    }

    #[test]
    fn cached_stream_cycles_its_systems() {
        let s = closed_stream(7, 20, 8);
        assert_eq!(s.lines.len(), 8);
        assert_eq!(s.order[..10], [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]);
    }

    #[test]
    fn open_stream_sends_the_hot_set_first_and_fresh_systems_once() {
        let Kind::Open(spec) = WORKLOADS[6].kind else {
            panic!("serve-open last")
        };
        let s = open_stream(&spec, 3, 400);
        assert_eq!(s.order.len(), spec.hot_set + 400);
        let mut seen = vec![0u32; s.lines.len()];
        for &i in &s.order {
            seen[i as usize] += 1;
        }
        assert!(seen[spec.hot_set..].iter().all(|&n| n == 1));
        assert!(seen[..spec.hot_set].iter().all(|&n| n >= 1));
        let repeats = 400 - (s.lines.len() - spec.hot_set);
        assert!((120..=280).contains(&repeats), "{repeats} of 400 repeat");
    }
}
