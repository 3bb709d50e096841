//! Determinism auditor: a static scan for the bit-reproducibility
//! invariant of the kernel layer.
//!
//! The kernel layer's contract (see `adec-tensor`) is that every reduction
//! walks its inner dimension ascending with a single accumulator, so the
//! packed kernels match the naive references bit for bit and recorded
//! trajectories do not shift. [`audit_reduction_source`] scans
//! `kernels.rs`/`matrix.rs` for reduction loops that violate that
//! discipline — a `.rev()`/descending-range iteration feeding a `+=`
//! accumulation reassociates the float sum and silently shifts
//! trajectories (`det.reduction-order`).
//!
//! Findings use the shared [`Diagnostic`] vocabulary, so `adec --check
//! --deep` renders them next to tape and arch findings.

use crate::diagnostics::{rule_info, Diagnostic, Report};
use crate::lint::mask_source;
use std::path::Path;

fn registry_hint(rule: &str) -> String {
    rule_info(rule).map(|r| r.hint.to_string()).unwrap_or_default()
}

/// Window (in lines) after a descending iteration within which a `+=`
/// accumulation is attributed to that loop.
const REDUCTION_WINDOW: usize = 6;

/// Whether a masked source line contains a `lint:allow(reduction-order)`
/// escape hatch. Mirrors the lint module's allow syntax so the two scans
/// read uniformly.
fn allows_reduction_order(line: &str) -> bool {
    line.contains("lint:allow(reduction-order)")
}

/// Statically scans one source file for reduction loops that violate the
/// ascending-index single-accumulator discipline: a `for` iterating a
/// reversed range (`.rev()`) or stepping downward, with a float `+=`
/// accumulation inside the loop window. Comments and string literals are
/// masked first, and a `// lint:allow(reduction-order)` on the flagged
/// line (or the line before) suppresses the finding.
pub fn audit_reduction_source(rel: &str, src: &str) -> Vec<Diagnostic> {
    let masked = mask_source(src);
    let lines: Vec<&str> = masked.lines().collect();
    // Allow hatches live in comments, which masking blanks out — read them
    // from the raw source, exactly as the lint pass does.
    let raw_lines: Vec<&str> = src.lines().collect();
    let allowed = |idx: usize| -> bool {
        raw_lines.get(idx).is_some_and(|l| allows_reduction_order(l))
            || (idx > 0 && raw_lines.get(idx - 1).is_some_and(|l| allows_reduction_order(l)))
    };
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let descending = line.contains("for ") && line.contains(".rev()");
        if !descending {
            continue;
        }
        if allowed(i) {
            continue;
        }
        for offset in 1..=REDUCTION_WINDOW {
            let Some(body) = lines.get(i + offset) else { break };
            if body.contains("+=") && !allowed(i + offset) {
                out.push(
                    Diagnostic::error(
                        "det.reduction-order",
                        format!("{rel}:{}", i + 1),
                        format!(
                            "descending iteration accumulates with `+=` on line {}; \
                             reductions must walk ascending with a single accumulator",
                            i + offset + 1
                        ),
                    )
                    .with_hint(registry_hint("det.reduction-order")),
                );
                break;
            }
        }
    }
    out
}

/// Scans the kernel-discipline source files (`kernels.rs`, `matrix.rs`)
/// under `root` for reduction-order violations. Files that do not exist
/// are skipped silently: the analyzer also runs from installed binaries
/// where no checkout is present.
pub fn audit_reduction_workspace(root: &Path) -> Report {
    let mut report = Report::new();
    for rel in ["crates/tensor/src/kernels.rs", "crates/tensor/src/matrix.rs"] {
        if let Ok(src) = std::fs::read_to_string(root.join(rel)) {
            for d in audit_reduction_source(rel, &src) {
                report.push(d);
            }
        }
    }
    report
}

#[cfg(test)]
// Test code: unwraps are the assertions themselves here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn descending_reduction_is_caught_with_correct_rule_id() {
        let src = "\
pub fn dot_rev(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for k in (0..a.len()).rev() {
        acc += a[k] * b[k];
    }
    acc
}
";
        let findings = audit_reduction_source("fixtures/bad_kernel.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "det.reduction-order");
        assert!(findings[0].location.contains("bad_kernel.rs:3"));
        assert!(findings[0].hint.is_some());
    }

    #[test]
    fn allow_escape_hatch_suppresses_the_scan() {
        let src = "\
fn walk_back(xs: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    // lint:allow(reduction-order) -- order-insensitive integer walk
    for k in (0..xs.len()).rev() {
        acc += 1.0;
    }
    acc
}
";
        assert!(audit_reduction_source("x.rs", src).is_empty());
    }

    #[test]
    fn reversed_loop_without_accumulation_is_fine() {
        let src = "\
fn drain(xs: &mut Vec<f32>) {
    for k in (0..xs.len()).rev() {
        xs.remove(k);
    }
}
";
        assert!(audit_reduction_source("x.rs", src).is_empty());
    }

    #[test]
    fn shipped_kernel_sources_scan_clean() {
        // The workspace root is two levels up from this crate.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = audit_reduction_workspace(&root);
        assert!(report.is_empty(), "{report}");
    }
}
