//! Profile-guided parallelization advice.
//!
//! Automates the workflow the paper describes in §IV-B2: "look for large
//! constructs with few violating static RAW dependences and try to
//! parallelize those constructs. Use the WAW and WAR profiles as hints for
//! where to insert variable privatization and thread synchronization."

use crate::extract::ExtractConfig;
use alchemist_core::{ConstructKind, DepKind, ProfileReport};
use alchemist_vm::{Module, Pc};
use std::collections::BTreeSet;

/// One suggested parallelization target.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Head of the construct to mark.
    pub head: Pc,
    /// Human-readable label.
    pub label: String,
    /// Construct kind.
    pub kind: ConstructKind,
    /// Share of the run spent in the construct.
    pub norm_size: f64,
    /// Violating static RAW edges (0 means directly spawnable).
    pub violating_raw: usize,
    /// Global variables involved in violating WAR/WAW edges — the
    /// privatization worklist.
    pub privatize: Vec<String>,
}

impl Candidate {
    /// The extraction config that simulates this candidate: its head
    /// marked, every name on its privatization worklist privatized.
    pub fn extract_config(&self) -> ExtractConfig {
        self.privatize
            .iter()
            .fold(ExtractConfig::default().mark(self.head), |cfg, v| {
                cfg.privatize(v)
            })
    }
}

/// Ranks parallelization candidates from a profile report.
///
/// A construct qualifies when it is a loop or method, it accounts for at
/// least `min_share` of the run, and it has at most `max_violating_raw`
/// violating RAW edges. Candidates are returned largest first.
pub fn suggest_candidates(
    report: &ProfileReport,
    module: &Module,
    min_share: f64,
    max_violating_raw: usize,
) -> Vec<Candidate> {
    report
        .ranked()
        .iter()
        .filter(|c| {
            matches!(c.kind, ConstructKind::Loop | ConstructKind::Method)
                && c.norm_size >= min_share
                && c.violating_raw <= max_violating_raw
                // `main` itself is never a useful spawn target.
                && c.label != "Method main"
        })
        .map(|c| {
            let mut privatize = BTreeSet::new();
            for e in &c.edges {
                if matches!(e.kind, DepKind::War | DepKind::Waw) && e.violating {
                    if let Some(name) = var_name_at(module, e) {
                        privatize.insert(name);
                    }
                }
            }
            Candidate {
                head: c.head,
                label: c.label.clone(),
                kind: c.kind,
                norm_size: c.norm_size,
                violating_raw: c.violating_raw,
                privatize: privatize.into_iter().collect(),
            }
        })
        .collect()
}

fn var_name_at(module: &Module, e: &alchemist_core::EdgeReport) -> Option<String> {
    module
        .globals
        .iter()
        .find(|g| g.offset <= e.var_addr && e.var_addr < g.offset + g.words)
        .map(|g| g.name.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use alchemist_core::{profile_module, ProfileConfig, ProfileReport};
    use alchemist_vm::{compile_source, ExecConfig};

    fn report(src: &str) -> (ProfileReport, Module) {
        let m = compile_source(src).unwrap();
        let (profile, ..) =
            profile_module(&m, &ExecConfig::default(), ProfileConfig::default()).unwrap();
        let r = ProfileReport::new(&profile, &m);
        (r, m)
    }

    #[test]
    fn independent_worker_is_suggested() {
        let (r, m) = report(
            "int out[16];
             void work(int i) {
                 int j; int acc = 0;
                 for (j = 0; j < 100; j++) acc += j * i;
                 out[i] = acc;
             }
             int main() { int i; for (i = 0; i < 16; i++) work(i); return out[3]; }",
        );
        let cands = suggest_candidates(&r, &m, 0.05, 0);
        assert!(
            cands.iter().any(|c| c.label == "Method work"),
            "work should be suggested: {cands:?}"
        );
        assert!(!cands.iter().any(|c| c.label == "Method main"));
    }

    #[test]
    fn privatization_hints_name_the_conflicting_global() {
        // `counter` follows the paper's `last_flags` pattern: written on
        // entry and reset on exit, so the reset of call i and the write of
        // call i+1 form a short-distance (violating) WAW.
        let (r, m) = report(
            "int counter;
             int sink;
             void work(int i) {
                 int j;
                 counter = counter + 1;
                 for (j = 0; j < 60; j++) sink = sink ^ (i + j);
                 counter = 0;
             }
             int main() { int i; for (i = 0; i < 8; i++) work(i); return counter; }",
        );
        // Allow RAW violations so `work` qualifies despite the counter chain.
        let cands = suggest_candidates(&r, &m, 0.05, 100);
        let work = cands.iter().find(|c| c.label == "Method work").unwrap();
        assert!(
            work.privatize.iter().any(|v| v == "counter"),
            "counter must appear in the privatization worklist: {:?}",
            work.privatize
        );
        let cfg = work.extract_config();
        assert_eq!(cfg.marked, [work.head].into_iter().collect());
        assert_eq!(cfg.privatized, work.privatize.iter().cloned().collect());
        assert!(!cfg.respect_war_waw);
    }

    #[test]
    fn share_threshold_filters_small_constructs() {
        let (r, m) = report(
            "int g;
             void tiny() { g++; }
             int main() {
                 int i; int acc = 0;
                 tiny();
                 for (i = 0; i < 5000; i++) acc += i;
                 return g + acc;
             }",
        );
        let cands = suggest_candidates(&r, &m, 0.5, 100);
        assert!(
            !cands.iter().any(|c| c.label == "Method tiny"),
            "tiny is far below the share threshold"
        );
    }
}
