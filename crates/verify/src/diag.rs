//! Structured diagnostics shared by the lint pass and the model checker.
//!
//! A [`Diagnostic`] names what went wrong ([`Diagnostic::code`],
//! [`Diagnostic::message`]), where ([`Diagnostic::tasks`],
//! [`Diagnostic::resources`], [`Diagnostic::processor`]) and, when the
//! tool can tell, how to fix it ([`Diagnostic::hint`]). A [`Report`]
//! collects diagnostics and renders them for humans or as JSON; both
//! renderings are stable so they can be snapshot-tested.

use std::fmt::{self, Write as _};

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The configuration is legal but suspicious or sub-optimal.
    Warning,
    /// The configuration violates a protocol rule or cannot be scheduled.
    Error,
}

impl Severity {
    /// Lower-case name, as used in rendered output.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding: a rule violation or a suspicious configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code, e.g. `V001`.
    pub code: &'static str,
    /// Name of the lint (or checker invariant) that produced this.
    pub lint: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// Human-readable description of the problem.
    pub message: String,
    /// Names of the tasks involved, if any.
    pub tasks: Vec<String>,
    /// Names of the resources involved, if any.
    pub resources: Vec<String>,
    /// Name of the processor involved, if any.
    pub processor: Option<String>,
    /// Suggested fix, if the tool can propose one.
    pub hint: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic with no locations and no hint attached.
    pub fn new(
        code: &'static str,
        lint: &'static str,
        severity: Severity,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            lint,
            severity,
            message: message.into(),
            tasks: Vec::new(),
            resources: Vec::new(),
            processor: None,
            hint: None,
        }
    }

    /// Attaches task names.
    #[must_use]
    pub fn with_tasks(mut self, tasks: impl IntoIterator<Item = String>) -> Self {
        self.tasks.extend(tasks);
        self
    }

    /// Attaches resource names.
    #[must_use]
    pub fn with_resources(mut self, resources: impl IntoIterator<Item = String>) -> Self {
        self.resources.extend(resources);
        self
    }

    /// Attaches a processor name.
    #[must_use]
    pub fn on_processor(mut self, processor: impl Into<String>) -> Self {
        self.processor = Some(processor.into());
        self
    }

    /// Attaches a fix hint.
    #[must_use]
    pub fn with_hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = Some(hint.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        let mut at: Vec<&str> = Vec::new();
        at.extend(self.tasks.iter().map(String::as_str));
        at.extend(self.resources.iter().map(String::as_str));
        if let Some(p) = &self.processor {
            at.push(p);
        }
        if !at.is_empty() {
            write!(f, "  [{}]", at.join(", "))?;
        }
        if let Some(h) = &self.hint {
            write!(f, "\n    hint: {h}")?;
        }
        Ok(())
    }
}

/// An ordered collection of diagnostics with stable renderings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Creates an empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Wraps an existing list of diagnostics.
    pub fn from_diagnostics(diagnostics: Vec<Diagnostic>) -> Self {
        Report { diagnostics }
    }

    /// Appends a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// All diagnostics, in the order they were produced.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of diagnostics.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// Whether the report is empty.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether any diagnostic is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Count of diagnostics at the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Human-readable rendering: one diagnostic per line (hints
    /// indented below), followed by a summary line.
    pub fn render_human(&self) -> String {
        if self.is_empty() {
            return "no findings\n".to_string();
        }
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        let e = self.count(Severity::Error);
        let w = self.count(Severity::Warning);
        out.push_str(&format!(
            "{e} error{}, {w} warning{}\n",
            if e == 1 { "" } else { "s" },
            if w == 1 { "" } else { "s" },
        ));
        out
    }

    /// JSON rendering with stable key order; suitable for golden tests
    /// and machine consumption. Pretty-printed, two-space indent.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(64 + 320 * self.diagnostics.len());
        self.write_json(&mut out, "");
        out.push('\n');
        out
    }

    /// [`Report::render_json`] without its final newline, appended to
    /// `out` with `indent` after every line break, so an enclosing
    /// document can embed it without re-indenting.
    pub(crate) fn write_json(&self, out: &mut String, indent: &str) {
        let nl = |out: &mut String, text: &str| {
            out.push('\n');
            out.push_str(indent);
            out.push_str(text);
        };
        let key = |out: &mut String, key: &str| {
            nl(out, "      \"");
            out.push_str(key);
            out.push_str("\": ");
        };
        out.push('{');
        nl(out, "  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            out.push_str(if i > 0 { "," } else { "" });
            nl(out, "    {");
            let strings = [
                ("code", d.code),
                ("lint", d.lint),
                ("severity", d.severity.name()),
                ("message", d.message.as_str()),
            ];
            for (k, v) in strings {
                key(out, k);
                write_json_str(out, v);
                out.push(',');
            }
            for (k, items) in [("tasks", &d.tasks), ("resources", &d.resources)] {
                key(out, k);
                out.push('[');
                for (j, item) in items.iter().enumerate() {
                    out.push_str(if j > 0 { ", " } else { "" });
                    write_json_str(out, item);
                }
                out.push_str("],");
            }
            for (k, v, end) in [("processor", &d.processor, ","), ("hint", &d.hint, "")] {
                key(out, k);
                match v {
                    Some(v) => write_json_str(out, v),
                    None => out.push_str("null"),
                }
                out.push_str(end);
            }
            nl(out, "    }");
        }
        if !self.diagnostics.is_empty() {
            nl(out, "  ");
        }
        let (errors, warnings) = (self.count(Severity::Error), self.count(Severity::Warning));
        // Writing to a String cannot fail.
        let _ = write!(out, "],\n{indent}  \"errors\": {errors},");
        let _ = write!(out, "\n{indent}  \"warnings\": {warnings}\n{indent}}}");
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_human())
    }
}

/// Appends `s` to `out` as a JSON string literal, escaped by the
/// workspace's one JSON writer.
pub(crate) fn write_json_str(out: &mut String, s: &str) {
    let _ = mpcp_json::write_str(s, out); // writing to a String cannot fail
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic::new("V999", "sample-lint", Severity::Error, "it \"broke\"")
            .with_tasks(["tau1".into()])
            .with_resources(["SG0".into(), "SG1".into()])
            .on_processor("P1")
            .with_hint("turn it off and on")
    }

    #[test]
    fn human_rendering_includes_locations_and_hint() {
        let mut r = Report::new();
        r.push(sample());
        let text = r.render_human();
        assert!(text.contains("error[V999]"));
        assert!(text.contains("tau1"));
        assert!(text.contains("SG0"));
        assert!(text.contains("hint: turn it off and on"));
        assert!(text.contains("1 error, 0 warnings"));
    }

    #[test]
    fn json_rendering_escapes_and_counts() {
        let mut r = Report::new();
        r.push(sample());
        let json = r.render_json();
        assert!(json.contains(r#""message": "it \"broke\"""#));
        assert!(json.contains(r#""errors": 1"#));
        assert!(json.contains(r#""tasks": ["tau1"]"#));
    }

    /// Pinned bytes: the renderer escapes through `mpcp_json::write_str`
    /// and must keep producing what its own escape table did.
    #[test]
    fn json_rendering_of_awkward_characters_is_unchanged() {
        let mut r = Report::new();
        r.push(
            Diagnostic::new("V998", "awkward", Severity::Warning, "q\" b\\ n\n c\u{1} é")
                .with_tasks(["t\t1".into(), "t2".into()])
                .on_processor("P\r"),
        );
        let json = r.render_json();
        assert_eq!(
            json,
            concat!(
                "{\n  \"diagnostics\": [\n    {\n",
                "      \"code\": \"V998\",\n",
                "      \"lint\": \"awkward\",\n",
                "      \"severity\": \"warning\",\n",
                "      \"message\": \"q\\\" b\\\\ n\\n c\\u0001 é\",\n",
                "      \"tasks\": [\"t\\t1\", \"t2\"],\n",
                "      \"resources\": [],\n",
                "      \"processor\": \"P\\r\",\n",
                "      \"hint\": null\n",
                "    }\n  ],\n",
                "  \"errors\": 0,\n  \"warnings\": 1\n}\n",
            )
        );
        // And the parser reads back exactly what went in.
        let v = mpcp_json::parse(&json).unwrap();
        let d = &v
            .get("diagnostics")
            .and_then(mpcp_json::Value::as_arr)
            .unwrap()[0];
        assert_eq!(
            d.get("message").and_then(mpcp_json::Value::as_str),
            Some("q\" b\\ n\n c\u{1} é")
        );
    }

    #[test]
    fn empty_report_has_no_errors() {
        let r = Report::new();
        assert!(!r.has_errors());
        assert!(r.is_empty());
        assert_eq!(r.render_human(), "no findings\n");
        assert!(r.render_json().contains("\"diagnostics\": []"));
    }
}
