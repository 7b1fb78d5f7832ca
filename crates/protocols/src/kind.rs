//! Protocol registry for experiment harnesses: per [`ProtocolKind`], the
//! simulator policy ([`ProtocolKind::build`]), the admission analysis
//! ([`ProtocolKind::analysis`]) and the trace invariants it promises
//! ([`ProtocolKind::monitor_spec`]). Consumers iterate this table
//! instead of matching on the kind.

use crate::{DirectPcp, Dpcp, FmlpPlus, Mpcp, Msrp, NonPreemptiveCs, Pip, RawSemaphores};
use mpcp_analysis::Analysis;
use mpcp_dga::DgaReplay;
use mpcp_model::System;
use mpcp_sim::{MonitorSpec, Protocol};
use std::fmt;
use std::str::FromStr;

/// Every protocol in the crate, for sweeping experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ProtocolKind {
    /// The paper's shared-memory protocol.
    Mpcp,
    /// The message-based baseline of reference \[8\].
    Dpcp,
    /// Plain priority inheritance.
    Pip,
    /// FIFO semaphores without inheritance.
    Raw,
    /// Non-preemptive critical sections.
    NonPreemptive,
    /// Uniprocessor PCP applied directly (the §3.3 strawman).
    DirectPcp,
    /// MSRP-style non-preemptive FIFO spin locks (Gai et al.).
    Msrp,
    /// FMLP+-style suspension-based FIFO queue locks with
    /// priority-boosted critical sections (Block/Brandenburg).
    Fmlp,
    /// Offline dependency-graph scheduling of critical sections
    /// (Chen et al.) replayed by [`mpcp_dga::DgaReplay`] — the one
    /// non-work-conserving, non-online competitor.
    Dga,
}

impl ProtocolKind {
    /// All protocols, MPCP first. `Dga` stays last: report curves and
    /// fixture comments index protocols positionally.
    pub const ALL: [ProtocolKind; 9] = [
        ProtocolKind::Mpcp,
        ProtocolKind::Dpcp,
        ProtocolKind::Pip,
        ProtocolKind::Raw,
        ProtocolKind::NonPreemptive,
        ProtocolKind::DirectPcp,
        ProtocolKind::Msrp,
        ProtocolKind::Fmlp,
        ProtocolKind::Dga,
    ];

    /// The canonical name, matching
    /// [`Protocol::name`](mpcp_sim::Protocol::name).
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Mpcp => "mpcp",
            ProtocolKind::Dpcp => "dpcp",
            ProtocolKind::Pip => "pip",
            ProtocolKind::Raw => "raw",
            ProtocolKind::NonPreemptive => "nonpreemptive",
            ProtocolKind::DirectPcp => "direct-pcp",
            ProtocolKind::Msrp => "msrp",
            ProtocolKind::Fmlp => "fmlp",
            ProtocolKind::Dga => "dga",
        }
    }

    /// Instantiates a fresh protocol object.
    pub fn build(self) -> Box<dyn Protocol> {
        match self {
            ProtocolKind::Mpcp => Box::new(Mpcp::new()),
            ProtocolKind::Dpcp => Box::new(Dpcp::new()),
            ProtocolKind::Pip => Box::new(Pip::new()),
            ProtocolKind::Raw => Box::new(RawSemaphores::new()),
            ProtocolKind::NonPreemptive => Box::new(NonPreemptiveCs::new()),
            ProtocolKind::DirectPcp => Box::new(DirectPcp::new()),
            ProtocolKind::Msrp => Box::new(Msrp::new()),
            ProtocolKind::Fmlp => Box::new(FmlpPlus::new()),
            ProtocolKind::Dga => Box::new(DgaReplay::new()),
        }
    }

    /// The blocking analysis and schedulability test that admits
    /// systems for this protocol, or `None` when the repo has none (the
    /// strawman baselines) or acceptance is not a bound at all (DGA:
    /// feasibility of the constructed schedule).
    pub fn analysis(self) -> Option<Analysis> {
        match self {
            ProtocolKind::Mpcp => Some(Analysis::Mpcp),
            ProtocolKind::Dpcp => Some(Analysis::Dpcp),
            ProtocolKind::Msrp => Some(Analysis::Msrp),
            ProtocolKind::Fmlp => Some(Analysis::Fmlp),
            _ => None,
        }
    }

    /// Whether `system` is inside this protocol's model. Offline
    /// dependency-graph scheduling needs outermost-only sections; every
    /// other protocol takes any valid system.
    pub fn applicable(self, system: &System) -> bool {
        self != ProtocolKind::Dga || !system.has_nested_sections()
    }

    /// The [`MonitorSpec`] appropriate for traces of this protocol —
    /// the one invariant table: the sweep oracle's arm runs it, for
    /// each scenario and for each model-checker variant alike.
    ///
    /// Priority-ordered hand-offs are off for the raw FIFO baseline
    /// (FIFO queues legitimately invert priority — that is the paper's
    /// point), for DGA (grants follow the offline chain order, which
    /// need not respect priority; the schedule conformance check
    /// supersedes the hand-off rule there), and for the FIFO-queue
    /// protocols MSRP and FMLP+ (FIFO order is their design — the spin
    /// and boost checks cover them instead). Theorem 2's gcs discipline
    /// and the blocking-accounting oracle only apply to MPCP itself.
    /// The priority floor holds wherever priorities are only ever
    /// *raised*: MPCP's gcs band, MSRP's spin boost and FMLP+'s section
    /// boost.
    pub fn monitor_spec(self) -> MonitorSpec {
        MonitorSpec {
            handoffs: !matches!(
                self,
                ProtocolKind::Raw | ProtocolKind::Dga | ProtocolKind::Msrp | ProtocolKind::Fmlp
            ),
            gcs_discipline: self == ProtocolKind::Mpcp,
            priority_floor: matches!(
                self,
                ProtocolKind::Mpcp | ProtocolKind::Msrp | ProtocolKind::Fmlp
            ),
            observed_blocking: self == ProtocolKind::Mpcp,
            spin_occupancy: self == ProtocolKind::Msrp,
            boost_while_holding: matches!(self, ProtocolKind::Msrp | ProtocolKind::Fmlp),
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown protocol name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseProtocolError(String);

impl fmt::Display for ParseProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown protocol {:?}", self.0)
    }
}

impl std::error::Error for ParseProtocolError {}

impl FromStr for ProtocolKind {
    type Err = ParseProtocolError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ProtocolKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| ParseProtocolError(s.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for k in ProtocolKind::ALL {
            assert_eq!(k.name().parse::<ProtocolKind>().unwrap(), k);
            assert_eq!(k.build().name(), k.name());
            assert_eq!(k.to_string(), k.name());
        }
    }

    #[test]
    fn analyses_share_their_protocols_name() {
        for k in ProtocolKind::ALL {
            if let Some(a) = k.analysis() {
                assert_eq!(a.name(), k.name());
            }
        }
        let covered: Vec<_> = ProtocolKind::ALL
            .into_iter()
            .filter_map(ProtocolKind::analysis)
            .collect();
        assert_eq!(covered, Analysis::ALL);
    }

    #[test]
    fn only_dga_refuses_nested_sections() {
        use mpcp_model::{Body, TaskDef};
        let system = |nested: bool| {
            let mut b = System::builder();
            let p = b.add_processor("P0");
            let (sa, sb) = (b.add_resource("SA"), b.add_resource("SB"));
            let body = Body::builder().critical(sa, |c| {
                let c = c.compute(1);
                if nested {
                    c.critical(sb, |c| c.compute(1))
                } else {
                    c
                }
            });
            b.add_task(TaskDef::new("t", p).period(100).body(body.build()));
            b.build().unwrap()
        };
        for k in ProtocolKind::ALL {
            assert!(k.applicable(&system(false)), "{k}");
            assert_eq!(k.applicable(&system(true)), k != ProtocolKind::Dga, "{k}");
        }
    }

    #[test]
    fn unknown_name_errors() {
        let e = "bogus".parse::<ProtocolKind>().unwrap_err();
        assert!(e.to_string().contains("bogus"));
    }
}
