use std::sync::OnceLock;

use lph_graphs::{CertificateList, IdAssignment, LabeledGraph};
use lph_machine::{
    run_local_routed, run_tm_compiled_routed, run_tm_routed, CompiledTm, DistributedTm, ExecLimits,
    LocalAlgorithm, LocalOutcome, MachineError, Routing, TmBackend,
};

use crate::game::GameSpec;

/// Anything that can act as the judging machine of a certificate game:
/// implemented by [`Arbiter`] and by the Lemma 8 combinator
/// [`crate::restrictor::PermissiveArbiter`].
pub trait Arbitrating {
    /// The game parameters the machine is designed for.
    fn spec(&self) -> &GameSpec;

    /// Whether the machine accepts `(G, id, κ̄)` by unanimity.
    ///
    /// # Errors
    ///
    /// Propagates execution errors.
    fn accepts(
        &self,
        g: &LabeledGraph,
        id: &IdAssignment,
        certs: &CertificateList,
        limits: &ExecLimits,
    ) -> Result<bool, MachineError>;

    /// The full per-node outcome of one execution on a prepared
    /// [`Routing`] of `(G, id)`, if this implementation can report one.
    /// The CNF game backend (`crate::backend`) needs per-node verdicts
    /// and round counts to build local acceptance tables, and replays each
    /// ball under many certificate lists on one routing; implementations
    /// that only expose the global conjunction keep the default `Ok(None)`
    /// and are decided exhaustively.
    ///
    /// # Errors
    ///
    /// Propagates execution errors.
    fn outcome(
        &self,
        routing: &Routing<'_>,
        certs: &CertificateList,
        limits: &ExecLimits,
    ) -> Result<Option<LocalOutcome>, MachineError> {
        let _ = (routing, certs, limits);
        Ok(None)
    }
}

/// The implementation backing an arbiter: an honest Turing-machine table or
/// a metered closure algorithm (see `DESIGN.md` for the equivalence).
pub enum ArbiterKind {
    /// A raw distributed Turing machine.
    Tm(DistributedTm),
    /// A closure-based local algorithm with step metering.
    Local(Box<dyn LocalAlgorithm + Send + Sync>),
}

impl std::fmt::Debug for ArbiterKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArbiterKind::Tm(tm) => write!(f, "Tm({} states)", tm.state_count()),
            ArbiterKind::Local(_) => write!(f, "Local(..)"),
        }
    }
}

/// A named local-polynomial machine together with the parameters of the
/// game it arbitrates: a `Σℓ^LP`- or `Πℓ^LP`-arbiter (Section 4).
#[derive(Debug)]
pub struct Arbiter {
    name: String,
    spec: GameSpec,
    kind: ArbiterKind,
    exec_backend: TmBackend,
    /// Lazily compiled bytecode program for `ArbiterKind::Tm` under a
    /// compiling [`TmBackend`]; shared across the many replays a game
    /// search performs.
    compiled: OnceLock<CompiledTm>,
}

impl Arbiter {
    /// Wraps a closure algorithm.
    pub fn from_local(
        name: impl Into<String>,
        spec: GameSpec,
        alg: impl LocalAlgorithm + Send + Sync + 'static,
    ) -> Self {
        Arbiter {
            name: name.into(),
            spec,
            kind: ArbiterKind::Local(Box::new(alg)),
            exec_backend: TmBackend::default(),
            compiled: OnceLock::new(),
        }
    }

    /// Wraps a distributed Turing machine.
    pub fn from_tm(name: impl Into<String>, spec: GameSpec, tm: DistributedTm) -> Self {
        Arbiter {
            name: name.into(),
            spec,
            kind: ArbiterKind::Tm(tm),
            exec_backend: TmBackend::default(),
            compiled: OnceLock::new(),
        }
    }

    /// Selects the execution engine for `ArbiterKind::Tm` arbiters (no
    /// effect on `Local` ones). The default is [`TmBackend::Auto`]; the
    /// interpreter remains reachable for differential testing.
    #[must_use]
    pub fn with_exec_backend(mut self, backend: TmBackend) -> Self {
        self.exec_backend = backend;
        self
    }

    /// The configured execution engine.
    pub fn exec_backend(&self) -> TmBackend {
        self.exec_backend
    }

    /// The arbiter's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The game parameters.
    pub fn spec(&self) -> &GameSpec {
        &self.spec
    }

    /// The backing implementation.
    pub fn kind(&self) -> &ArbiterKind {
        &self.kind
    }

    /// Executes the arbiter on `(G, id, κ̄)`.
    ///
    /// # Errors
    ///
    /// Propagates execution errors ([`MachineError`]).
    pub fn run(
        &self,
        g: &LabeledGraph,
        id: &IdAssignment,
        certs: &CertificateList,
        limits: &ExecLimits,
    ) -> Result<LocalOutcome, MachineError> {
        self.run_routed(&Routing::new(g, id)?, certs, limits)
    }

    fn run_routed(
        &self,
        routing: &Routing<'_>,
        certs: &CertificateList,
        limits: &ExecLimits,
    ) -> Result<LocalOutcome, MachineError> {
        match &self.kind {
            ArbiterKind::Local(alg) => run_local_routed(alg.as_ref(), routing, certs, limits),
            ArbiterKind::Tm(tm) => {
                let out = match self.exec_backend {
                    TmBackend::Interpreted => run_tm_routed(tm, routing, certs, limits)?,
                    TmBackend::Compiled | TmBackend::Auto => {
                        let ct = self.compiled.get_or_init(|| CompiledTm::compile(tm));
                        run_tm_compiled_routed(ct, routing, certs, limits)?
                    }
                };
                Ok(LocalOutcome {
                    rounds: out.rounds,
                    outputs: out.result_labels,
                    verdicts: out.verdicts,
                    accepted: out.accepted,
                    metrics: out.metrics,
                })
            }
        }
    }

    /// Whether the arbiter accepts `(G, id, κ̄)` by unanimity.
    ///
    /// # Errors
    ///
    /// Propagates execution errors.
    pub fn accepts(
        &self,
        g: &LabeledGraph,
        id: &IdAssignment,
        certs: &CertificateList,
        limits: &ExecLimits,
    ) -> Result<bool, MachineError> {
        Ok(self.run(g, id, certs, limits)?.accepted)
    }
}

impl Arbitrating for Arbiter {
    fn spec(&self) -> &GameSpec {
        Arbiter::spec(self)
    }

    fn accepts(
        &self,
        g: &LabeledGraph,
        id: &IdAssignment,
        certs: &CertificateList,
        limits: &ExecLimits,
    ) -> Result<bool, MachineError> {
        Arbiter::accepts(self, g, id, certs, limits)
    }

    fn outcome(
        &self,
        routing: &Routing<'_>,
        certs: &CertificateList,
        limits: &ExecLimits,
    ) -> Result<Option<LocalOutcome>, MachineError> {
        self.run_routed(routing, certs, limits).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::Player;
    use lph_graphs::{generators, PolyBound};
    use lph_machine::machines;

    fn spec0() -> GameSpec {
        GameSpec {
            ell: 0,
            first: Player::Eve,
            r_id: 1,
            r: 1,
            bound: PolyBound::linear(0, 1),
        }
    }

    #[test]
    fn tm_backed_arbiter_runs() {
        let arb = Arbiter::from_tm("all-selected", spec0(), machines::all_selected_decider());
        let g = generators::cycle(4);
        let id = IdAssignment::small(&g, 1);
        assert!(arb
            .accepts(&g, &id, &CertificateList::new(), &ExecLimits::default())
            .unwrap());
        assert_eq!(arb.name(), "all-selected");
        assert_eq!(arb.spec().ell, 0);
    }

    #[test]
    fn exec_backends_agree_on_tm_arbiters() {
        let g = generators::labeled_cycle(&["1", "0", "1"]);
        let id = IdAssignment::small(&g, 1);
        let mk = || Arbiter::from_tm("coloring", spec0(), machines::proper_coloring_verifier());
        let interp = mk()
            .with_exec_backend(TmBackend::Interpreted)
            .run(&g, &id, &CertificateList::new(), &ExecLimits::default())
            .unwrap();
        for backend in [TmBackend::Compiled, TmBackend::Auto] {
            let out = mk()
                .with_exec_backend(backend)
                .run(&g, &id, &CertificateList::new(), &ExecLimits::default())
                .unwrap();
            assert_eq!(interp.accepted, out.accepted);
            assert_eq!(interp.verdicts, out.verdicts);
            assert_eq!(interp.outputs, out.outputs);
            assert_eq!(interp.metrics.per_node, out.metrics.per_node);
        }
    }

    #[test]
    fn local_backed_arbiter_runs() {
        use lph_machine::{NodeCtx, NodeInput, NodeProgram, RoundAction};
        struct AcceptAll;
        impl LocalAlgorithm for AcceptAll {
            fn spawn(&self, _input: NodeInput) -> Box<dyn NodeProgram> {
                Box::new(
                    |ctx: &mut NodeCtx, _r: usize, _inbox: &[lph_graphs::BitString]| {
                        ctx.charge(1);
                        RoundAction::accept()
                    },
                )
            }
        }
        let arb = Arbiter::from_local("yes", spec0(), AcceptAll);
        let g = generators::path(3);
        let id = IdAssignment::global(&g);
        assert!(arb
            .accepts(&g, &id, &CertificateList::new(), &ExecLimits::default())
            .unwrap());
    }
}
