//! Deadlock avoidance for nested global critical sections (§5.1 remark:
//! "if nested global critical sections are used, explicit partial
//! ordering of global resources must be used to prevent deadlocks").
//!
//! This module checks that a partial order exists: the directed graph
//! with an edge `outer → inner` for every nesting a task performs on
//! global resources must be acyclic. A cycle means two jobs can acquire
//! the involved semaphores in opposite orders and deadlock.

use mpcp_model::{ResourceId, System};

/// The nesting digraph over global resources: `(outer, inner)` edges,
/// deduplicated, in id order.
fn global_nesting_edges(system: &System) -> Vec<(ResourceId, ResourceId)> {
    let info = system.info();
    let mut edges = Vec::new();
    for tu in info.all_task_use() {
        for cs in &tu.sections {
            if cs.enclosing.is_empty() || !info.scope(cs.resource).is_global() {
                continue;
            }
            for outer in &cs.enclosing {
                if info.scope(*outer).is_global() {
                    edges.push((*outer, cs.resource));
                }
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Returns a cycle in the global nesting order if one exists (a witness
/// that two jobs can deadlock), or `None` when a valid partial order
/// exists.
pub fn lock_order_cycle(system: &System) -> Option<Vec<ResourceId>> {
    let edges = global_nesting_edges(system);
    let n = system.resources().len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (a, b) in &edges {
        adj[a.index()].push(b.index());
    }
    // Iterative DFS with colors; reconstruct the cycle from the stack.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; n];
    let mut parent = vec![usize::MAX; n];
    for start in 0..n {
        if color[start] != Color::White {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        color[start] = Color::Gray;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next < adj[node].len() {
                let child = adj[node][*next];
                *next += 1;
                match color[child] {
                    Color::White => {
                        color[child] = Color::Gray;
                        parent[child] = node;
                        stack.push((child, 0));
                    }
                    Color::Gray => {
                        // Found a cycle: walk back from node to child.
                        let mut cycle = vec![ResourceId::from_index(child as u32)];
                        let mut cur = node;
                        while cur != child {
                            cycle.push(ResourceId::from_index(cur as u32));
                            cur = parent[cur];
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    Color::Black => {}
                }
            } else {
                color[node] = Color::Black;
                stack.pop();
            }
        }
    }
    None
}

/// Validates that the system's nested global sections admit a partial
/// order (no deadlock is possible from lock ordering alone).
///
/// # Errors
///
/// Returns [`AnalysisError::CyclicLockOrder`](crate::AnalysisError) with
/// a witness cycle.
pub fn validate_lock_ordering(system: &System) -> Result<(), crate::AnalysisError> {
    match lock_order_cycle(system) {
        None => Ok(()),
        Some(cycle) => Err(crate::AnalysisError::CyclicLockOrder { cycle }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcp_model::{Body, TaskDef};

    /// Two tasks nesting A-inside-B and B-inside-A: the classic deadlock
    /// order.
    fn cyclic_system() -> System {
        let mut b = System::builder();
        let p = b.add_processors(2);
        let sa = b.add_resource("SA");
        let sb = b.add_resource("SB");
        b.add_task(
            TaskDef::new("x", p[0]).period(100).priority(2).body(
                Body::builder()
                    .critical(sa, |c| c.critical(sb, |c| c.compute(1)))
                    .build(),
            ),
        );
        b.add_task(
            TaskDef::new("y", p[1]).period(200).priority(1).body(
                Body::builder()
                    .critical(sb, |c| c.critical(sa, |c| c.compute(1)))
                    .build(),
            ),
        );
        b.build().unwrap()
    }

    fn ordered_system() -> System {
        let mut b = System::builder();
        let p = b.add_processors(2);
        let sa = b.add_resource("SA");
        let sb = b.add_resource("SB");
        for (i, proc) in p.iter().enumerate() {
            b.add_task(
                TaskDef::new(format!("t{i}"), *proc)
                    .period(100 + i as u64)
                    .priority(2 - i as u32)
                    .body(
                        Body::builder()
                            .critical(sa, |c| c.critical(sb, |c| c.compute(1)))
                            .build(),
                    ),
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn cycle_is_detected_with_witness() {
        let sys = cyclic_system();
        let cycle = lock_order_cycle(&sys).expect("cycle exists");
        assert!(cycle.len() >= 2);
        assert!(validate_lock_ordering(&sys).is_err());
        let edges = global_nesting_edges(&sys);
        assert_eq!(edges.len(), 2);
    }

    #[test]
    fn consistent_order_passes() {
        let sys = ordered_system();
        assert_eq!(lock_order_cycle(&sys), None);
        validate_lock_ordering(&sys).unwrap();
    }

    #[test]
    fn collapsing_removes_the_cycle() {
        let sys = cyclic_system();
        let (collapsed, groups) = crate::collapse_nested_globals(&sys);
        assert_eq!(groups.len(), 1);
        validate_lock_ordering(&collapsed).unwrap();
        assert!(global_nesting_edges(&collapsed).is_empty());
    }

    #[test]
    fn flat_systems_trivially_pass() {
        let mut b = System::builder();
        let p = b.add_processors(2);
        let s = b.add_resource("S");
        b.add_task(
            TaskDef::new("a", p[0])
                .period(10)
                .priority(2)
                .body(Body::builder().critical(s, |c| c.compute(1)).build()),
        );
        b.add_task(
            TaskDef::new("b", p[1])
                .period(20)
                .priority(1)
                .body(Body::builder().critical(s, |c| c.compute(1)).build()),
        );
        let sys = b.build().unwrap();
        validate_lock_ordering(&sys).unwrap();
        assert!(global_nesting_edges(&sys).is_empty());
    }
}
