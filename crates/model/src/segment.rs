//! Job bodies: sequences of computation, self-suspension and critical
//! sections.
//!
//! A job is modelled as a sequence of [`Segment`]s executed in order. A
//! critical section holds a resource for the duration of its nested
//! segments (`P(S) … V(S)` in the paper's notation). Nesting is allowed by
//! the model; protocol-level restrictions (e.g. the base protocol's
//! assumption that global critical sections do not nest, §4.2) are enforced
//! by the analysis and protocol crates, not here.

use crate::ids::ResourceId;
use crate::time::Dur;
use std::sync::Arc;

/// One step of a job body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Segment {
    /// Execute on the processor for the given duration.
    Compute(Dur),
    /// Self-suspend (release the processor) for the given duration, e.g.
    /// for I/O. Suspensions interact with blocking via Theorem 1.
    Suspend(Dur),
    /// Lock the resource, run the nested segments, unlock the resource.
    Critical(ResourceId, Vec<Segment>),
}

impl Segment {
    /// Processor demand of this segment, including nested segments.
    /// Suspensions contribute nothing.
    pub fn compute_demand(&self) -> Dur {
        match self {
            Segment::Compute(d) => *d,
            Segment::Suspend(_) => Dur::ZERO,
            Segment::Critical(_, body) => body.iter().map(Segment::compute_demand).sum(),
        }
    }
}

/// An entire job body.
///
/// Construct with [`Body::builder`]:
///
/// ```
/// use mpcp_model::{Body, ResourceId};
///
/// let s = ResourceId::from_index(0);
/// let body = Body::builder()
///     .compute(4)
///     .critical(s, |c| c.compute(2))
///     .compute(1)
///     .build();
/// assert_eq!(body.wcet().ticks(), 7);
/// ```
///
/// The top-level segments sit behind an [`Arc`]: a clone is a handle on
/// the same allocation, which is how successive versions of an edited
/// system share the bodies that did not change
/// ([`Body::is_same_allocation`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Body {
    segments: Arc<[Segment]>,
}

/// A critical section found in a body, with derived facts used by the
/// ceiling and blocking analyses.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CriticalSection {
    /// The resource guarding the section.
    pub resource: ResourceId,
    /// Processor demand while the resource is held (nested sections
    /// included).
    pub duration: Dur,
    /// Nesting depth: 0 for an outermost section.
    pub depth: usize,
    /// Resources of sections nested (at any depth) inside this one.
    pub nested: Vec<ResourceId>,
    /// Resources of the enclosing sections, outermost first. Empty for an
    /// outermost section.
    pub enclosing: Vec<ResourceId>,
}

impl CriticalSection {
    /// Whether this section is outermost (not nested in another section).
    pub fn is_outermost(&self) -> bool {
        self.depth == 0
    }
}

impl Body {
    /// Creates an empty body (a task that does nothing).
    pub fn new() -> Self {
        Body::default()
    }

    /// Starts building a body.
    pub fn builder() -> BodyBuilder {
        BodyBuilder {
            segments: Vec::new(),
        }
    }

    /// Creates a body from raw segments. Collecting an iterator of known
    /// length straight into an `Arc<[Segment]>` costs one allocation; a
    /// `Vec` is copied over.
    pub fn from_segments(segments: impl Into<Arc<[Segment]>>) -> Self {
        Body {
            segments: segments.into(),
        }
    }

    /// Whether `self` and `other` are handles on one allocation — then
    /// they are equal, and whatever was derived from one holds for the
    /// other.
    pub fn is_same_allocation(&self, other: &Body) -> bool {
        Arc::ptr_eq(&self.segments, &other.segments)
    }

    /// The top-level segments in execution order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Worst-case execution time `C_i`: total processor demand, excluding
    /// suspensions.
    pub fn wcet(&self) -> Dur {
        self.segments.iter().map(Segment::compute_demand).sum()
    }

    /// Total self-suspension time.
    pub fn total_suspension(&self) -> Dur {
        fn rec(segs: &[Segment]) -> Dur {
            segs.iter()
                .map(|s| match s {
                    Segment::Suspend(d) => *d,
                    Segment::Critical(_, b) => rec(b),
                    Segment::Compute(_) => Dur::ZERO,
                })
                .sum()
        }
        rec(&self.segments)
    }

    /// Number of explicit [`Segment::Suspend`] steps.
    pub fn suspension_count(&self) -> usize {
        fn rec(segs: &[Segment]) -> usize {
            segs.iter()
                .map(|s| match s {
                    Segment::Suspend(_) => 1,
                    Segment::Critical(_, b) => rec(b),
                    Segment::Compute(_) => 0,
                })
                .sum()
        }
        rec(&self.segments)
    }

    /// All critical sections in the body, in lock order (outer before
    /// inner).
    pub fn critical_sections(&self) -> Vec<CriticalSection> {
        fn rec(
            segs: &[Segment],
            depth: usize,
            enclosing: &mut Vec<ResourceId>,
            out: &mut Vec<CriticalSection>,
        ) {
            for seg in segs {
                if let Segment::Critical(res, body) = seg {
                    let duration = seg.compute_demand();
                    let mut nested = Vec::new();
                    collect_resources(body, &mut nested);
                    out.push(CriticalSection {
                        resource: *res,
                        duration,
                        depth,
                        nested,
                        enclosing: enclosing.clone(),
                    });
                    enclosing.push(*res);
                    rec(body, depth + 1, enclosing, out);
                    enclosing.pop();
                }
            }
        }
        fn collect_resources(segs: &[Segment], out: &mut Vec<ResourceId>) {
            for seg in segs {
                if let Segment::Critical(res, body) = seg {
                    out.push(*res);
                    collect_resources(body, out);
                }
            }
        }
        let mut out = Vec::new();
        rec(&self.segments, 0, &mut Vec::new(), &mut out);
        out
    }

    /// Critical sections guarding `resource`.
    pub fn sections_of(&self, resource: ResourceId) -> Vec<CriticalSection> {
        self.critical_sections()
            .into_iter()
            .filter(|cs| cs.resource == resource)
            .collect()
    }

    /// Distinct resources accessed anywhere in the body, in first-use
    /// order.
    pub fn resources_used(&self) -> Vec<ResourceId> {
        let mut seen = Vec::new();
        for cs in self.critical_sections() {
            if !seen.contains(&cs.resource) {
                seen.push(cs.resource);
            }
        }
        seen
    }

    /// Whether any critical section nests another critical section.
    pub fn has_nested_sections(&self) -> bool {
        self.critical_sections().iter().any(|cs| cs.depth > 0)
    }

    /// Whether a critical section on `r` (transitively) encloses another
    /// section on the same `r` — a self-deadlock the paper assumes away
    /// (§3.1).
    pub fn has_self_nesting(&self) -> bool {
        self.fault(usize::MAX) == Some(BodyFault::SelfNesting)
    }

    /// What [`SystemBuilder::build`](crate::SystemBuilder::build) refuses
    /// a body for, given the size of the resource table: the first
    /// section (in lock order) on a resource outside it, or else any
    /// self-nesting. One walk over the segments, no allocation — the
    /// enclosing sections are a list through the recursion's own frames.
    pub(crate) fn fault(&self, resources: usize) -> Option<BodyFault> {
        struct Held<'a> {
            resource: ResourceId,
            outer: Option<&'a Held<'a>>,
        }
        fn walk(
            segs: &[Segment],
            held: Option<&Held<'_>>,
            resources: usize,
            self_nesting: &mut bool,
        ) -> Result<(), ResourceId> {
            for seg in segs {
                if let Segment::Critical(res, body) = seg {
                    if res.index() >= resources {
                        return Err(*res);
                    }
                    let mut outer = held;
                    while let Some(h) = outer {
                        *self_nesting |= h.resource == *res;
                        outer = h.outer;
                    }
                    let inner = Held {
                        resource: *res,
                        outer: held,
                    };
                    walk(body, Some(&inner), resources, self_nesting)?;
                }
            }
            Ok(())
        }
        let mut self_nesting = false;
        match walk(&self.segments, None, resources, &mut self_nesting) {
            Err(unknown) => Some(BodyFault::UnknownResource(unknown)),
            Ok(()) => self_nesting.then_some(BodyFault::SelfNesting),
        }
    }
}

/// See [`Body::fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BodyFault {
    UnknownResource(ResourceId),
    SelfNesting,
}

/// Incremental builder for [`Body`]; see [`Body::builder`].
#[derive(Debug)]
pub struct BodyBuilder {
    segments: Vec<Segment>,
}

impl BodyBuilder {
    /// Appends a computation segment of `ticks` ticks.
    pub fn compute(mut self, ticks: u64) -> Self {
        self.segments.push(Segment::Compute(Dur::new(ticks)));
        self
    }

    /// Appends a self-suspension of `ticks` ticks.
    pub fn suspend(mut self, ticks: u64) -> Self {
        self.segments.push(Segment::Suspend(Dur::new(ticks)));
        self
    }

    /// Appends a critical section on `resource` whose contents are built by
    /// `f`.
    pub fn critical(mut self, resource: ResourceId, f: impl FnOnce(Self) -> Self) -> Self {
        let inner = f(BodyBuilder {
            segments: Vec::new(),
        });
        self.segments
            .push(Segment::Critical(resource, inner.segments));
        self
    }

    /// Finishes the body.
    pub fn build(self) -> Body {
        Body::from_segments(self.segments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> ResourceId {
        ResourceId::from_index(i)
    }

    fn sample() -> Body {
        // compute 4, P(S0){ compute 2, P(S1){ compute 1 } }, suspend 3, compute 5
        Body::builder()
            .compute(4)
            .critical(r(0), |c| c.compute(2).critical(r(1), |c| c.compute(1)))
            .suspend(3)
            .compute(5)
            .build()
    }

    #[test]
    fn wcet_excludes_suspension() {
        assert_eq!(sample().wcet(), Dur::new(12));
        assert_eq!(sample().total_suspension(), Dur::new(3));
        assert_eq!(sample().suspension_count(), 1);
    }

    #[test]
    fn critical_sections_are_enumerated_in_lock_order() {
        let cs = sample().critical_sections();
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].resource, r(0));
        assert_eq!(cs[0].duration, Dur::new(3)); // 2 + nested 1
        assert_eq!(cs[0].depth, 0);
        assert_eq!(cs[0].nested, vec![r(1)]);
        assert!(cs[0].enclosing.is_empty());
        assert!(cs[0].is_outermost());

        assert_eq!(cs[1].resource, r(1));
        assert_eq!(cs[1].duration, Dur::new(1));
        assert_eq!(cs[1].depth, 1);
        assert_eq!(cs[1].enclosing, vec![r(0)]);
        assert!(!cs[1].is_outermost());
    }

    #[test]
    fn resource_queries() {
        let b = sample();
        assert_eq!(b.resources_used(), vec![r(0), r(1)]);
        assert!(b.has_nested_sections());
        assert!(!b.has_self_nesting());
        assert_eq!(b.sections_of(r(1)).len(), 1);
        assert!(b.sections_of(r(9)).is_empty());
    }

    #[test]
    fn self_nesting_detected() {
        let b = Body::builder()
            .critical(r(0), |c| c.critical(r(1), |c| c.critical(r(0), |c| c)))
            .build();
        assert!(b.has_self_nesting());
    }

    #[test]
    fn empty_body_is_benign() {
        let b = Body::new();
        assert_eq!(b.wcet(), Dur::ZERO);
        assert!(b.critical_sections().is_empty());
        assert!(!b.has_nested_sections());
    }

    #[test]
    fn from_segments_round_trips() {
        let segs = vec![Segment::Compute(Dur::new(2))];
        let b = Body::from_segments(segs.clone());
        assert_eq!(b.segments(), &segs[..]);
    }
}
