//! Adaptive plan execution: runtime access relevance, cost-ordered
//! accesses, and disjunct subsumption.
//!
//! Naive execution runs every access of every plan in static order.
//! Benedikt–Gottlob–Senellart ("Determining Relevance of Accesses at
//! Runtime") show that many of those accesses provably cannot contribute
//! new answers given the data already fetched, and Martinenghi's
//! undecidability result bounds what *static* pruning can ever do — so
//! this crate prunes at runtime, where the per-call accounting (tuples
//! matched, truncation, latency) that [`rbqa_access::AccessBackend`]
//! surfaces is available as a signal.
//!
//! The crate holds no interpreter of its own. [`AdaptiveWindow`] is an
//! [`rbqa_access::ExecPolicy`]: the one plan interpreter,
//! [`rbqa_access::execute_with_policy`], asks it the three decisions in
//! which adaptive and naive execution differ. All three are sound (the
//! adaptive policy returns exactly the naive policy's rows, it just
//! performs fewer backend calls):
//!
//! * **Relevance oracle** (replay): before each binding-level access, a
//!   window-scoped cache of `(method, binding) → response` answers
//!   repeated accesses without a backend call. Within one execution
//!   window the backend is idempotent by construction (one selection
//!   cache, one seeded latency/fault stream per window — see
//!   `ServiceSimulator::run_plans_exec_results`), so replaying the cached
//!   response is exactly what the backend would have returned. This
//!   dedups both repeated bindings inside one access command and shared
//!   accesses across a union's disjuncts. Empty binding sets skip the
//!   access entirely.
//! * **Cost model + reordering** ([`window::MethodStats`],
//!   [`graph::DependencyGraph`]): per-method EWMAs of observed latency and
//!   fan-out (tuples fetched per call) rank *commutable* access commands —
//!   plan steps with no temp-table data dependency between them, computed
//!   from a small dependency graph over the [`rbqa_access::Plan`] —
//!   cheapest-and-most-selective first. Reordering independent commands is
//!   semantics-preserving: middleware is pure monotone algebra over named
//!   temp tables and window-idempotent accesses commute.
//! * **Disjunct subsumption short-circuit**: a union disjunct whose plan
//!   is structurally identical to one already executed in this window is
//!   not executed at all — its rows are provably the same, hence subsumed
//!   by what the earlier disjunct emitted. The window tracks emitted rows
//!   so the check degrades gracefully to the cache-hit path for disjuncts
//!   that overlap without being identical.
//!
//! [`AdaptiveMode`] is the declarative switch threaded through
//! `ExecOptions` (`option exec.adaptive on|validate|off` on the wire):
//! `Validate` runs the interpreter under both policies side by side and
//! fails with the structured
//! [`rbqa_access::plan::PlanError::AdaptiveMismatch`] discrepancy if their
//! rows differ.

pub mod graph;
pub mod window;

pub use graph::DependencyGraph;
pub use window::{AdaptiveWindow, MethodStats};

/// Declarative adaptive-execution mode, carried by `ExecOptions` and
/// fingerprinted through its `code()` (the segment appends only when
/// non-default, keeping historical fingerprints byte-identical).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdaptiveMode {
    /// Naive execution (the historical behaviour, and the default).
    #[default]
    Off,
    /// Adaptive execution: relevance pruning, cost-ordered accesses,
    /// disjunct short-circuiting.
    On,
    /// Run adaptive and naive side by side (two independent backend
    /// windows); fail with a structured discrepancy if their rows differ.
    Validate,
}

impl AdaptiveMode {
    /// The canonical fingerprint segment, or `None` for the default mode.
    pub fn code(&self) -> Option<&'static str> {
        match self {
            AdaptiveMode::Off => None,
            AdaptiveMode::On => Some("adaptive"),
            AdaptiveMode::Validate => Some("adaptive:validate"),
        }
    }
}
