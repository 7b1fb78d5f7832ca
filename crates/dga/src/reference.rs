//! Test-only reference oracle: the quadratic list scheduler that
//! [`list_schedule`](crate::schedule::list_schedule) replaced, kept as
//! it was so the differential tests compare against the old behaviour
//! and not against a paraphrase of it.

use crate::graph::DependencyGraph;
use mpcp_model::JobId;
use std::collections::HashMap;

/// Rescans every vertex for every vertex appended: Θ(n²).
pub(crate) fn list_schedule_reference(
    graph: &DependencyGraph,
    resources: usize,
) -> Vec<Vec<JobId>> {
    let vertices = graph.vertices();
    let n = vertices.len();
    let mut next: HashMap<JobId, usize> = HashMap::new();
    let mut done = vec![false; n];
    let mut orders = vec![Vec::new(); resources];
    for _ in 0..n {
        let pick = (0..n)
            .filter(|&i| {
                let v = &vertices[i];
                !done[i] && v.sec_idx == next.get(&v.job).copied().unwrap_or(0)
            })
            .min_by_key(|&i| {
                let v = &vertices[i];
                (
                    v.est,
                    std::cmp::Reverse(v.duration),
                    v.job.task.index(),
                    v.job.instance,
                )
            })
            .expect("availability gating always leaves a selectable vertex");
        let v = &vertices[pick];
        done[pick] = true;
        *next.entry(v.job).or_insert(0) += 1;
        orders[v.resource.index()].push(v.job);
    }
    orders
}
