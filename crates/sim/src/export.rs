//! CSV export of traces, for plotting outside Rust.
//!
//! The format is deliberately simple: a header row, comma separation, no
//! quoting (all fields are numeric or identifier-shaped).

use crate::event::EventKind;
use crate::trace::{Band, Trace};
use std::fmt::Write as _;

/// Events as CSV: `time,job,kind,resource,other_job`.
pub fn events_csv(trace: &Trace) -> String {
    let mut out = String::from("time,job,kind,resource,other_job\n");
    for e in trace.events() {
        let (kind, resource, other): (&str, String, String) = match e.kind {
            EventKind::Released => ("released", String::new(), String::new()),
            EventKind::Started { processor } => ("started", processor.to_string(), String::new()),
            EventKind::Preempted { processor, by } => {
                ("preempted", processor.to_string(), by.to_string())
            }
            EventKind::Completed { response } => ("completed", String::new(), response.to_string()),
            EventKind::DeadlineMiss => ("deadline_miss", String::new(), String::new()),
            EventKind::LockRequested { resource } => {
                ("lock_requested", resource.to_string(), String::new())
            }
            EventKind::LockGranted { resource } => {
                ("lock_granted", resource.to_string(), String::new())
            }
            EventKind::LockBlocked { resource, holder } => (
                "lock_blocked",
                resource.to_string(),
                holder.map(|h| h.to_string()).unwrap_or_default(),
            ),
            EventKind::Unlocked { resource } => ("unlocked", resource.to_string(), String::new()),
            EventKind::HandedOff { resource, to } => {
                ("handed_off", resource.to_string(), to.to_string())
            }
            EventKind::SelfSuspended { until } => {
                ("self_suspended", String::new(), until.ticks().to_string())
            }
            EventKind::Woken => ("woken", String::new(), String::new()),
            EventKind::PriorityChanged { from, to } => {
                ("priority_changed", from.to_string(), to.to_string())
            }
            EventKind::Migrated { from, to } => ("migrated", from.to_string(), to.to_string()),
        };
        let _ = writeln!(
            out,
            "{},{},{kind},{resource},{other}",
            e.time.ticks(),
            e.job
        );
    }
    out
}

/// Occupancy slices as CSV: `processor,job,start,dur,band`.
pub fn slices_csv(trace: &Trace) -> String {
    let mut out = String::from("processor,job,start,dur,band\n");
    for s in trace.slices() {
        let band = match s.band {
            Band::Normal => "normal",
            Band::LocalCs => "local_cs",
            Band::GlobalCs => "global_cs",
        };
        let _ = writeln!(
            out,
            "{},{},{},{},{band}",
            s.processor,
            s.job.map(|j| j.to_string()).unwrap_or_default(),
            s.start.ticks(),
            s.dur.ticks(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LockResult, Protocol, Simulator};
    use mpcp_model::{Body, System, TaskDef};

    struct Grant;
    impl Protocol for Grant {
        fn name(&self) -> &'static str {
            "grant"
        }
        fn init(&mut self, _: &System) {}
        fn on_lock(
            &mut self,
            _: &mut crate::Ctx<'_>,
            _: mpcp_model::JobId,
            _: mpcp_model::ResourceId,
        ) -> LockResult {
            LockResult::Granted
        }
        fn on_unlock(
            &mut self,
            _: &mut crate::Ctx<'_>,
            _: mpcp_model::JobId,
            _: mpcp_model::ResourceId,
        ) {
        }
    }

    fn run() -> Simulator<Grant> {
        let mut b = System::builder();
        let p = b.add_processor("P0");
        let s = b.add_resource("S");
        b.add_task(
            TaskDef::new("t", p).period(10).body(
                Body::builder()
                    .compute(1)
                    .critical(s, |c| c.compute(1))
                    .build(),
            ),
        );
        let sys = b.build().unwrap();
        let mut sim = Simulator::new(&sys, Grant);
        sim.run_until(30);
        sim
    }

    #[test]
    fn events_csv_has_header_and_rows() {
        let sim = run();
        let csv = events_csv(sim.trace());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time,job,kind,resource,other_job");
        assert!(lines.len() > 5);
        assert!(lines.iter().any(|l| l.contains("lock_granted")));
        assert!(lines.iter().all(|l| l.split(',').count() == 5));
    }

    #[test]
    fn slices_csv_round_trips_busy_time() {
        let sim = run();
        let csv = slices_csv(sim.trace());
        let busy: u64 = csv
            .lines()
            .skip(1)
            .filter(|l| !l.split(',').nth(1).unwrap().is_empty())
            .map(|l| l.split(',').nth(3).unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(busy, 6); // 3 jobs × 2 ticks
    }
}
