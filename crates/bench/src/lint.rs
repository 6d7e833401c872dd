//! Shared implementation of the `stencil-lint` binary: build every
//! scheme's program for one configuration, run the static analyzer
//! (optionally including the region-dataflow pass), and dedup the
//! resulting diagnostics for terminal display.
//!
//! The dedup collapses the per-instance diagnostics the analyzer emits —
//! one per unfolded task — into one line per `(scheme, task kind, check)`
//! with an instance count and a representative witness, so a shrunken
//! halo in a 20-iteration run reads as one finding, not two hundred.

use analyze::{analyze_program, Analysis, AnalyzeConfig, DataflowMode, Diagnostic};
use ca_stencil::{build_base, build_base_dtd, build_ca, build_ca_shrunk, StencilConfig};
use runtime::Program;
use std::collections::BTreeMap;

/// What the lint run should check beyond the structural passes.
#[derive(Debug, Clone, Copy)]
pub struct LintOptions {
    /// Run the region-dataflow pass (halo coverage + dead transfers).
    pub dataflow: bool,
    /// Use steady-state (periodic) verification instead of a full unfold
    /// sweep when the dataflow pass runs.
    pub steady_state: bool,
    /// Execution lanes per node for the critical-path bound.
    pub lanes: u32,
    /// Replace the CA scheme with the deliberately broken variant whose
    /// deep South strips are one row short ([`build_ca_shrunk`]) — the
    /// lint is then *expected* to fail, which CI inverts into a check
    /// that the coverage proof actually has teeth.
    pub mutate_ca: bool,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            dataflow: false,
            steady_state: false,
            lanes: 1,
            mutate_ca: false,
        }
    }
}

/// One deduplicated diagnostic line.
#[derive(Debug, Clone)]
pub struct DedupedDiagnostic {
    /// The check that fired (`"uncovered-read"`, `"write-race"`, ...).
    pub check: &'static str,
    /// Trace kind of the offending tasks, when the check attributes one.
    pub kind: Option<u32>,
    /// How many task instances hit the same `(kind, check)` pair.
    pub count: usize,
    /// Full text of one representative instance.
    pub example: String,
}

/// The lint result for one scheme.
#[derive(Debug)]
pub struct SchemeLint {
    /// Scheme name (`base`/`ca`/`dtd`, or `ca*` for the mutant).
    pub name: &'static str,
    /// The full static analysis, including the dataflow report when the
    /// pass was enabled.
    pub analysis: Analysis,
    /// Diagnostics collapsed per `(task kind, check)`.
    pub deduped: Vec<DedupedDiagnostic>,
}

impl SchemeLint {
    /// True when no diagnostic fired.
    pub fn is_clean(&self) -> bool {
        self.analysis.is_clean()
    }
}

fn check_name(d: &Diagnostic) -> &'static str {
    match d {
        Diagnostic::Structural(_) => "structural",
        Diagnostic::Deadlock { .. } => "deadlock",
        Diagnostic::WriteRace { .. } => "write-race",
        Diagnostic::UncoveredRead { .. } => "uncovered-read",
    }
}

fn diag_kind(d: &Diagnostic) -> Option<u32> {
    match d {
        Diagnostic::UncoveredRead { kind, .. } => Some(*kind),
        _ => None,
    }
}

/// Collapse diagnostics to one entry per `(task kind, check)`, keeping
/// the first instance as the representative witness. Ordering is stable:
/// by check name, then kind.
pub fn dedup(diags: &[Diagnostic]) -> Vec<DedupedDiagnostic> {
    let mut groups: BTreeMap<(&'static str, Option<u32>), (usize, String)> = BTreeMap::new();
    for d in diags {
        let entry = groups
            .entry((check_name(d), diag_kind(d)))
            .or_insert_with(|| (0, d.to_string()));
        entry.0 += 1;
    }
    groups
        .into_iter()
        .map(|((check, kind), (count, example))| DedupedDiagnostic {
            check,
            kind,
            count,
            example,
        })
        .collect()
}

/// Build every scheme's program as `(name, program)` pairs: base, CA
/// (or its mutant) and the DTD front-end.
pub fn build_schemes(cfg: &StencilConfig, opts: &LintOptions) -> Vec<(&'static str, Program)> {
    let ca = if opts.mutate_ca {
        ("ca*", build_ca_shrunk(cfg).program)
    } else {
        ("ca", build_ca(cfg, false).program)
    };
    vec![
        ("base", build_base(cfg, false).program),
        ca,
        ("dtd", build_base_dtd(cfg)),
    ]
}

/// Run the analyzer over every scheme and dedup the diagnostics.
pub fn lint_schemes(cfg: &StencilConfig, opts: &LintOptions) -> Vec<SchemeLint> {
    let schemes = build_schemes(cfg, opts);
    let mut acfg = AnalyzeConfig::new().with_lanes(opts.lanes);
    if opts.dataflow {
        acfg = acfg.with_dataflow(if opts.steady_state {
            DataflowMode::SteadyState
        } else {
            DataflowMode::Full
        });
    }
    schemes
        .into_iter()
        .map(|(name, program)| {
            let analysis = analyze_program(&program, &acfg);
            let deduped = dedup(&analysis.diagnostics);
            SchemeLint {
                name,
                analysis,
                deduped,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime::Rect;

    fn uncovered(task: &str, kind: u32) -> Diagnostic {
        Diagnostic::UncoveredRead {
            task: task.into(),
            kind,
            space: 0,
            cells: 32,
            witness: Rect::new(-1, 0, 1, 32),
        }
    }

    #[test]
    fn dedup_groups_by_kind_and_check() {
        let diags = vec![
            uncovered("ca(0,0,4,0)", 1),
            uncovered("ca(1,0,4,0)", 1),
            uncovered("ca(1,1,8,0)", 0),
            Diagnostic::WriteRace {
                first: "a".into(),
                second: "b".into(),
                space: 3,
            },
        ];
        let out = dedup(&diags);
        assert_eq!(out.len(), 3);
        let boundary = out
            .iter()
            .find(|d| d.kind == Some(1))
            .expect("boundary group");
        assert_eq!(boundary.count, 2);
        assert!(boundary.example.contains("ca(0,0,4,0)"));
        assert_eq!(
            out.iter().find(|d| d.check == "write-race").unwrap().count,
            1
        );
    }
}
