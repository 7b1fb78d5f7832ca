//! The request/response protocol: newline-delimited JSON over TCP.
//!
//! Every request is one JSON object on one line with an `"op"` field;
//! every response is one JSON object on one line with an `"ok"` field.
//! Failures are *structured*: `{"ok":false,"code":"...","error":"..."}`
//! with a stable [`ErrorCode`], never a dropped connection or a hang —
//! including overload ([`ErrorCode::Overloaded`]) and per-request
//! deadline misses ([`ErrorCode::Deadline`]).

use crate::json::{JsonRef, Value};
use crate::wire::{self, SystemSpec, TaskSpec};
use mpcp_alloc::Heuristic;
use std::fmt;

/// Stable machine-readable error codes of the wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line was not valid JSON.
    Parse,
    /// The request was valid JSON but not a valid request.
    BadRequest,
    /// The submitted system failed model validation.
    InvalidSystem,
    /// The named session does not exist.
    UnknownSession,
    /// The named task does not exist in the session.
    UnknownTask,
    /// The request queue is full; the server shed the request.
    Overloaded,
    /// The request missed its processing deadline.
    Deadline,
    /// The server is shutting down.
    ShuttingDown,
    /// A sampled audit caught the incremental analysis diverging from a
    /// full recompute; the request was not committed.
    AuditDivergence,
}

impl ErrorCode {
    /// The wire name of the code.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::InvalidSystem => "invalid-system",
            ErrorCode::UnknownSession => "unknown-session",
            ErrorCode::UnknownTask => "unknown-task",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Deadline => "deadline",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::AuditDivergence => "audit-divergence",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which analysis admits a submission: the analysis contract's own
/// selector, so the wire accepts exactly the names in
/// [`Analysis::ALL`](mpcp_analysis::Analysis::ALL) (`"mpcp"`, the
/// default, `"dpcp"`, `"msrp"`, `"fmlp"`). Sessions remember the
/// protocol they were submitted under, so `add-task`/`remove-task`
/// re-admission uses the same analysis.
pub use mpcp_analysis::Analysis as AdmissionProtocol;

/// An optional allocation directive attached to `submit`: rebind the
/// submitted tasks onto `processors` processors with `heuristic` before
/// running admission analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocDirective {
    /// Target processor count.
    pub processors: usize,
    /// Bin-packing heuristic.
    pub heuristic: Heuristic,
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness / queueing probe. `delay_ms` busy-holds a worker, which
    /// makes queueing and overload behavior measurable (and testable).
    Ping {
        /// Milliseconds the worker sleeps before answering.
        delay_ms: u64,
    },
    /// Full-system admission: analyze and, if admitted, (re)create the
    /// named session with this system.
    Submit {
        /// Session to create or replace.
        session: String,
        /// The submitted system.
        system: SystemSpec,
        /// Optional allocation step before analysis.
        allocate: Option<AllocDirective>,
        /// Which analysis admits the system (default MPCP).
        protocol: AdmissionProtocol,
    },
    /// Incremental admission: add one task to a live session; commits
    /// only if the grown system is still admitted.
    AddTask {
        /// Target session.
        session: String,
        /// The new task.
        task: TaskSpec,
    },
    /// Withdraw a task from a live session (always committed; removal
    /// only shrinks demand).
    RemoveTask {
        /// Target session.
        session: String,
        /// Name of the task to remove.
        task: String,
    },
    /// Server and session introspection, including cache statistics.
    Query {
        /// Optionally narrow to one session.
        session: Option<String>,
    },
    /// Orderly shutdown.
    Shutdown,
}

impl Request {
    /// Parses a request from a JSON value: a `&`[`Value`] or, as the
    /// server reads it, a [`Node`](crate::json::Node) of the line's tape.
    ///
    /// # Errors
    ///
    /// `(ErrorCode::BadRequest, reason)` for unknown ops or missing
    /// fields.
    pub fn from_json<'v, V: JsonRef<'v>>(v: V) -> Result<Request, (ErrorCode, String)> {
        let bad = |m: &str| (ErrorCode::BadRequest, m.to_owned());
        let op = v
            .get("op")
            .and_then(V::as_str)
            .ok_or_else(|| bad("request needs a string \"op\""))?;
        match op {
            "ping" => Ok(Request::Ping {
                delay_ms: v.get("delay_ms").and_then(V::as_u64).unwrap_or(0),
            }),
            "submit" => {
                let session = required_session(v)?;
                let system = v
                    .get("system")
                    .ok_or_else(|| bad("submit needs a \"system\""))?;
                let system =
                    SystemSpec::from_json(system).map_err(|e| (ErrorCode::BadRequest, e.0))?;
                let allocate = match v.get("allocate") {
                    None => None,
                    Some(a) => Some(parse_alloc(a)?),
                };
                let protocol = match v.get("protocol").and_then(V::as_str) {
                    None => AdmissionProtocol::default(),
                    Some(p) => p
                        .parse()
                        .map_err(|e: mpcp_analysis::ParseAnalysisError| bad(&e.to_string()))?,
                };
                Ok(Request::Submit {
                    session,
                    system,
                    allocate,
                    protocol,
                })
            }
            "add-task" => {
                let session = required_session(v)?;
                let task = v
                    .get("task")
                    .ok_or_else(|| bad("add-task needs a \"task\""))?;
                let task = wire::task_from_json(task).map_err(|e| (ErrorCode::BadRequest, e.0))?;
                Ok(Request::AddTask { session, task })
            }
            "remove-task" => {
                let session = required_session(v)?;
                let task = v
                    .get("task")
                    .and_then(V::as_str)
                    .ok_or_else(|| bad("remove-task needs a task name in \"task\""))?
                    .to_owned();
                Ok(Request::RemoveTask { session, task })
            }
            "query" => Ok(Request::Query {
                session: v.get("session").and_then(V::as_str).map(str::to_owned),
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(bad(&format!(
                "unknown op {other:?}; expected ping|submit|add-task|remove-task|query|shutdown"
            ))),
        }
    }
}

fn required_session<'v, V: JsonRef<'v>>(v: V) -> Result<String, (ErrorCode, String)> {
    v.get("session")
        .and_then(V::as_str)
        .map(str::to_owned)
        .ok_or_else(|| {
            (
                ErrorCode::BadRequest,
                "request needs a string \"session\"".to_owned(),
            )
        })
}

fn parse_alloc<'v, V: JsonRef<'v>>(v: V) -> Result<AllocDirective, (ErrorCode, String)> {
    let bad = |m: String| (ErrorCode::BadRequest, m);
    let processors = v
        .get("processors")
        .and_then(V::as_u64)
        .ok_or_else(|| bad("\"allocate\" needs a \"processors\" count".into()))?
        as usize;
    let heuristic = match v.get("heuristic").and_then(V::as_str).unwrap_or("affinity") {
        "ffd" => Heuristic::FirstFitDecreasing,
        "bfd" => Heuristic::BestFitDecreasing,
        "wfd" => Heuristic::WorstFitDecreasing,
        "affinity" => Heuristic::ResourceAffinity,
        other => {
            return Err(bad(format!(
                "unknown heuristic {other:?}; expected ffd|bfd|wfd|affinity"
            )))
        }
    };
    Ok(AllocDirective {
        processors,
        heuristic,
    })
}

/// Builds the standard error response line (without trailing newline).
pub fn error_response(code: ErrorCode, message: &str) -> Value {
    Value::obj([
        ("ok", Value::Bool(false)),
        ("code", Value::str(code.name())),
        ("error", Value::str(message)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn parses_every_op() {
        let reqs = [
            r#"{"op":"ping"}"#,
            r#"{"op":"ping","delay_ms":5}"#,
            r#"{"op":"submit","session":"s","system":{"processors":["P0"],"tasks":[]}}"#,
            r#"{"op":"add-task","session":"s","task":{"name":"t","processor":0,"period":10}}"#,
            r#"{"op":"remove-task","session":"s","task":"t"}"#,
            r#"{"op":"query"}"#,
            r#"{"op":"query","session":"s"}"#,
            r#"{"op":"shutdown"}"#,
        ];
        for r in reqs {
            let v = json::parse(r).unwrap();
            Request::from_json(&v).unwrap_or_else(|e| panic!("{r}: {e:?}"));
        }
    }

    #[test]
    fn submit_with_allocation_directive() {
        let v = json::parse(
            r#"{"op":"submit","session":"s","system":{},"allocate":{"processors":4,"heuristic":"ffd"}}"#,
        )
        .unwrap();
        match Request::from_json(&v).unwrap() {
            Request::Submit {
                allocate: Some(a), ..
            } => {
                assert_eq!(a.processors, 4);
                assert_eq!(a.heuristic, Heuristic::FirstFitDecreasing);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn submit_with_protocol_selection() {
        for want in AdmissionProtocol::ALL {
            let v = json::parse(&format!(
                r#"{{"op":"submit","session":"s","system":{{}},"protocol":"{want}"}}"#
            ))
            .unwrap();
            match Request::from_json(&v).unwrap() {
                Request::Submit { protocol, .. } => assert_eq!(protocol, want),
                other => panic!("{other:?}"),
            }
        }
        // Absent field: MPCP, the original behaviour.
        let v = json::parse(r#"{"op":"submit","session":"s","system":{}}"#).unwrap();
        match Request::from_json(&v).unwrap() {
            Request::Submit { protocol, .. } => assert_eq!(protocol, AdmissionProtocol::Mpcp),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_requests_name_the_problem() {
        for (text, needle) in [
            (r#"{"no_op":1}"#, "op"),
            (r#"{"op":"warp"}"#, "unknown op"),
            (
                r#"{"op":"submit","session":"s","system":{},"protocol":"pcp"}"#,
                "expected mpcp|dpcp|msrp|fmlp",
            ),
            (r#"{"op":"submit","session":"s"}"#, "system"),
            (r#"{"op":"submit","system":{}}"#, "session"),
            (r#"{"op":"remove-task","session":"s"}"#, "task"),
            (
                r#"{"op":"submit","session":"s","system":{},"allocate":{"heuristic":"ffd"}}"#,
                "processors",
            ),
        ] {
            let v = json::parse(text).unwrap();
            let (code, msg) = Request::from_json(&v).unwrap_err();
            assert_eq!(code, ErrorCode::BadRequest, "{text}");
            assert!(msg.contains(needle), "{text}: {msg}");
        }
    }

    #[test]
    fn error_response_shape() {
        let v = error_response(ErrorCode::Overloaded, "queue full");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("code").and_then(Value::as_str), Some("overloaded"));
        assert_eq!(v.get("error").and_then(Value::as_str), Some("queue full"));
    }
}
