//! Workspace static-analysis suite for the ADEC reproduction.
//!
//! Five passes, one diagnostics vocabulary:
//!
//! 1. **Architecture/shape checking** ([`arch`]): a declarative
//!    [`ArchSpec`] of layer chains, couplings, and the cluster head is
//!    validated before training — dimension chaining, encoder/decoder
//!    mirror symmetry, discriminator output width, centroid shape, and
//!    parameter bindings all produce structured [`Diagnostic`]s with rule
//!    ids and fix hints instead of a mid-epoch shape panic.
//! 2. **Source linting** ([`lint`]): a comment/string-masking scanner over
//!    the workspace's own `.rs` files bans `unwrap`/`expect`/`panic!` in
//!    library code, float `==`, narrowing `as` casts in kernel crates,
//!    assert-less kernel entry points, and silent tape detaches, with a
//!    `// lint:allow(rule)` escape hatch and a ratcheting [`Baseline`].
//! 3. **Tape dataflow analysis** ([`tape`]): the runtime autodiff graph is
//!    exported as [`adec_nn::TapeIr`] and abstract-interpreted — shape
//!    propagation per op, gradient connectivity against a per-phase
//!    [`PhaseManifest`] of must-update / intentionally-frozen parameters,
//!    dead-node and double-bind detection, and a NaN-propagation lattice.
//! 4. **Determinism auditing** ([`det`]): a static scan rejects kernel
//!    reduction loops that abandon the ascending-index single-accumulator
//!    discipline.
//! 5. **Kernel invariants**: the `debug_assert_finite!`/`debug_assert_dims!`
//!    macros live in `adec-tensor` (so kernels can use them without a
//!    dependency cycle); this crate's lint rules enforce their presence.
//!
//! Every rule id any pass can emit is registered in [`RULES`] with a
//! severity, summary, and fix hint; [`rule_info`] looks one up.

// Indexing here is over line vectors, spec layers, and IR node vectors
// whose bounds are established by construction; the tensor crates carry
// the hot-path invariant layer this lint suite itself enforces.
#![allow(clippy::indexing_slicing)]
#![warn(missing_docs)]

pub mod arch;
pub mod det;
pub mod diagnostics;
pub mod lint;
pub mod tape;

pub use arch::{ActKind, ArchSpec, ChainRole, ChainSpec, ClusterHeadSpec, Coupling, LayerSpec};
pub use det::{audit_reduction_source, audit_reduction_workspace};
pub use diagnostics::{rule_info, Diagnostic, Report, RuleInfo, Severity, RULES};
pub use lint::{collect_rs_files, lint_source, lint_workspace, Baseline};
pub use tape::{analyze_tape, ParamRole, PhaseManifest};
