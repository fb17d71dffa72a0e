use lph_graphs::{BitString, CertificateList, IdAssignment, LabeledGraph};

use crate::metrics::{ExecMetrics, RoundStats};
use crate::{ExecLimits, MachineError, Routing};

/// The information a node receives at spawn time: exactly the initial
/// internal-tape content of a distributed Turing machine
/// (`λ(u) # id(u) # κ̄(u)`), pre-parsed, plus its degree (observable from
/// the round-1 receiving tape `#^d`).
#[derive(Debug, Clone)]
pub struct NodeInput {
    /// The node's label `λ(u)`.
    pub label: BitString,
    /// The node's identifier `id(u)`.
    pub id: BitString,
    /// The node's certificates `κ₁(u), …, κℓ(u)`.
    pub certificates: Vec<BitString>,
    /// The node's degree.
    pub degree: usize,
}

/// What a node does at the end of a round.
#[derive(Debug, Clone)]
pub enum RoundAction {
    /// Keep running; send the given messages (aligned with the neighbors in
    /// ascending identifier order; missing entries default to the empty
    /// string, extras are dropped — mirroring the sending-tape semantics).
    Send(Vec<BitString>),
    /// Halt with the given output label (the node's contribution to the
    /// result graph). A halted node sends only empty messages, like a
    /// machine that reaches `q_stop` with an empty sending tape.
    Halt(BitString),
}

impl RoundAction {
    /// Convenience: halt accepting (output label `1`).
    pub fn accept() -> Self {
        RoundAction::Halt(BitString::from_bits01("1"))
    }

    /// Convenience: halt rejecting (output label `0`).
    pub fn reject() -> Self {
        RoundAction::Halt(BitString::from_bits01("0"))
    }

    /// Convenience: halt with verdict from a boolean.
    pub fn verdict(accept: bool) -> Self {
        if accept {
            Self::accept()
        } else {
            Self::reject()
        }
    }
}

/// Step-metering context handed to a node each round.
///
/// Implementations of [`LocalAlgorithm`] must call [`NodeCtx::charge`] in
/// proportion to the work they do; the harness enforces the per-round step
/// limit against the charged total, which is how the polynomial-step-time
/// discipline of local-polynomial machines is kept honest for closure-based
/// algorithms.
#[derive(Debug)]
pub struct NodeCtx {
    steps: usize,
}

impl NodeCtx {
    fn new() -> Self {
        NodeCtx { steps: 0 }
    }

    /// Records `n` computation steps.
    pub fn charge(&mut self, n: usize) {
        self.steps = self.steps.saturating_add(n);
    }

    /// The steps charged so far this round.
    pub fn charged(&self) -> usize {
        self.steps
    }
}

/// A per-node program spawned by a [`LocalAlgorithm`]; holds the node's
/// persistent state across rounds.
pub trait NodeProgram {
    /// Executes one round: receives the inbox (messages from the neighbors
    /// in ascending identifier order; round 1 delivers empty strings) and
    /// returns the action.
    fn round(&mut self, ctx: &mut NodeCtx, round: usize, inbox: &[BitString]) -> RoundAction;
}

impl<F> NodeProgram for F
where
    F: FnMut(&mut NodeCtx, usize, &[BitString]) -> RoundAction,
{
    fn round(&mut self, ctx: &mut NodeCtx, round: usize, inbox: &[BitString]) -> RoundAction {
        self(ctx, round, inbox)
    }
}

/// A synchronous distributed algorithm in closure form: the higher-level
/// counterpart of [`crate::DistributedTm`], running under the same LOCAL
/// semantics and step accounting (see `DESIGN.md` for the equivalence
/// argument).
pub trait LocalAlgorithm {
    /// Creates the per-node program for a node with the given input.
    fn spawn(&self, input: NodeInput) -> Box<dyn NodeProgram>;
}

impl<F> LocalAlgorithm for F
where
    F: Fn(NodeInput) -> Box<dyn NodeProgram>,
{
    fn spawn(&self, input: NodeInput) -> Box<dyn NodeProgram> {
        self(input)
    }
}

/// The outcome of running a [`LocalAlgorithm`]; mirrors
/// [`crate::TmOutcome`].
#[derive(Debug, Clone)]
pub struct LocalOutcome {
    /// Number of rounds until every node halted.
    pub rounds: usize,
    /// Per-node output labels.
    pub outputs: Vec<BitString>,
    /// Per-node verdicts (`output == "1"`).
    pub verdicts: Vec<bool>,
    /// Acceptance by unanimity.
    pub accepted: bool,
    /// Per-node, per-round charged-step metrics (space is reported as 0).
    pub metrics: ExecMetrics,
}

/// Executes a [`LocalAlgorithm`] on `(G, id, κ̄)` with the same message
/// routing as [`crate::run_tm`].
///
/// # Errors
///
/// Returns [`MachineError::IdsNotLocallyUnique`],
/// [`MachineError::StepLimitExceeded`], or
/// [`MachineError::RoundLimitExceeded`] under the same conditions as the
/// Turing-machine engine.
pub fn run_local(
    alg: &dyn LocalAlgorithm,
    g: &LabeledGraph,
    id: &IdAssignment,
    certs: &CertificateList,
    limits: &ExecLimits,
) -> Result<LocalOutcome, MachineError> {
    run_local_routed(alg, &Routing::new(g, id)?, certs, limits)
}

/// [`run_local`] on a prepared [`Routing`], for callers that replay one
/// `(G, id)` under many certificate lists.
///
/// # Errors
///
/// [`MachineError::StepLimitExceeded`] or
/// [`MachineError::RoundLimitExceeded`], as for [`run_local`].
pub fn run_local_routed(
    alg: &dyn LocalAlgorithm,
    routing: &Routing<'_>,
    certs: &CertificateList,
    limits: &ExecLimits,
) -> Result<LocalOutcome, MachineError> {
    let (g, id) = (routing.graph(), routing.ids());
    let n = g.node_count();
    let mut programs: Vec<Box<dyn NodeProgram>> = g
        .nodes()
        .map(|u| {
            alg.spawn(NodeInput {
                label: g.label(u).clone(),
                id: id.id(u).clone(),
                certificates: certs.iter().map(|k| k.cert(u).clone()).collect(),
                degree: g.degree(u),
            })
        })
        .collect();
    let mut outputs: Vec<Option<BitString>> = vec![None; n];
    let mut outboxes: Vec<Vec<BitString>> = g
        .nodes()
        .map(|u| vec![BitString::new(); g.degree(u)])
        .collect();
    let mut metrics = ExecMetrics::new(n);

    for round in 1..=limits.max_rounds {
        let inboxes: Vec<Vec<BitString>> = g
            .nodes()
            .map(|u| {
                routing
                    .ports(u)
                    .iter()
                    .map(|&(v, slot)| outboxes[v.0][slot].clone())
                    .collect()
            })
            .collect();

        let mut all_halted = true;
        for u in g.nodes() {
            if outputs[u.0].is_some() {
                outboxes[u.0] = vec![BitString::new(); g.degree(u)];
                metrics.record(u.0, RoundStats::default());
                continue;
            }
            let mut ctx = NodeCtx::new();
            let inbox_len: usize = inboxes[u.0].iter().map(|m| m.len() + 1).sum();
            let action = programs[u.0].round(&mut ctx, round, &inboxes[u.0]);
            if ctx.charged() > limits.max_steps_per_round {
                return Err(MachineError::StepLimitExceeded {
                    node: u.0,
                    round,
                    limit: limits.max_steps_per_round,
                });
            }
            metrics.record(
                u.0,
                RoundStats {
                    steps: ctx.charged(),
                    space: 0,
                    input_rcv_len: inbox_len,
                    input_int_len: 0,
                },
            );
            match action {
                RoundAction::Send(mut msgs) => {
                    msgs.resize(g.degree(u), BitString::new());
                    outboxes[u.0] = msgs;
                    all_halted = false;
                }
                RoundAction::Halt(output) => {
                    outputs[u.0] = Some(output);
                    outboxes[u.0] = vec![BitString::new(); g.degree(u)];
                }
            }
        }

        if all_halted {
            let outputs: Vec<BitString> = outputs
                .into_iter()
                .map(|o| o.expect("all halted"))
                .collect();
            let verdicts: Vec<bool> = outputs.iter().map(|l| l.as_bools() == [true]).collect();
            let accepted = verdicts.iter().all(|&v| v);
            return Ok(LocalOutcome {
                rounds: round,
                outputs,
                verdicts,
                accepted,
                metrics,
            });
        }
    }
    Err(MachineError::RoundLimitExceeded {
        limit: limits.max_rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lph_graphs::generators;

    /// Algorithm: round 1 broadcast own id; round 2 accept iff own id is the
    /// local minimum among the closed neighborhood.
    struct LocalMinimum;

    impl LocalAlgorithm for LocalMinimum {
        fn spawn(&self, input: NodeInput) -> Box<dyn NodeProgram> {
            let my_id = input.id.clone();
            Box::new(
                move |ctx: &mut NodeCtx, round: usize, inbox: &[BitString]| {
                    ctx.charge(1 + inbox.iter().map(BitString::len).sum::<usize>());
                    match round {
                        1 => RoundAction::Send(vec![my_id.clone(); inbox.len()]),
                        _ => RoundAction::verdict(inbox.iter().all(|m| my_id < *m)),
                    }
                },
            )
        }
    }

    #[test]
    fn local_minimum_accepts_only_at_unique_minimum() {
        let g = generators::path(4);
        let id = IdAssignment::global(&g);
        let out = run_local(
            &LocalMinimum,
            &g,
            &id,
            &CertificateList::new(),
            &ExecLimits::default(),
        )
        .unwrap();
        assert_eq!(out.rounds, 2);
        // Node 0 has id 00, the global minimum; its neighbors are larger.
        assert!(out.verdicts[0]);
        // Node 1 has a smaller neighbor, so it rejects.
        assert!(!out.verdicts[1]);
        assert!(!out.accepted);
    }

    #[test]
    fn messages_are_routed_symmetrically() {
        // Each node sends a distinct message to each neighbor; every node
        // accepts iff the k-th received message equals the sender's id.
        struct SendOwnId;
        impl LocalAlgorithm for SendOwnId {
            fn spawn(&self, input: NodeInput) -> Box<dyn NodeProgram> {
                let my_id = input.id.clone();
                Box::new(
                    move |ctx: &mut NodeCtx, round: usize, inbox: &[BitString]| {
                        ctx.charge(1);
                        match round {
                            1 => RoundAction::Send(vec![my_id.clone(); inbox.len()]),
                            _ => {
                                // In a cycle with global ids, the two inbox slots
                                // must be the two distinct neighbor ids, sorted.
                                let sorted = inbox.windows(2).all(|w| w[0] < w[1]);
                                RoundAction::verdict(sorted && !inbox.is_empty())
                            }
                        }
                    },
                )
            }
        }
        let g = generators::cycle(5);
        let id = IdAssignment::global(&g);
        let out = run_local(
            &SendOwnId,
            &g,
            &id,
            &CertificateList::new(),
            &ExecLimits::default(),
        )
        .unwrap();
        assert!(out.accepted, "inbox must arrive in ascending id order");
    }

    #[test]
    fn charge_overflow_is_an_error() {
        struct Expensive;
        impl LocalAlgorithm for Expensive {
            fn spawn(&self, _input: NodeInput) -> Box<dyn NodeProgram> {
                Box::new(|ctx: &mut NodeCtx, _round: usize, _inbox: &[BitString]| {
                    ctx.charge(10_000);
                    RoundAction::accept()
                })
            }
        }
        let g = generators::path(2);
        let id = IdAssignment::global(&g);
        let limits = ExecLimits {
            max_rounds: 4,
            max_steps_per_round: 100,
        };
        let err = run_local(&Expensive, &g, &id, &CertificateList::new(), &limits).unwrap_err();
        assert!(matches!(err, MachineError::StepLimitExceeded { .. }));
    }

    #[test]
    fn never_halting_algorithm_hits_round_limit() {
        struct Forever;
        impl LocalAlgorithm for Forever {
            fn spawn(&self, input: NodeInput) -> Box<dyn NodeProgram> {
                let d = input.degree;
                Box::new(
                    move |ctx: &mut NodeCtx, _round: usize, _inbox: &[BitString]| {
                        ctx.charge(1);
                        RoundAction::Send(vec![BitString::new(); d])
                    },
                )
            }
        }
        let g = generators::path(2);
        let id = IdAssignment::global(&g);
        let limits = ExecLimits {
            max_rounds: 3,
            max_steps_per_round: 100,
        };
        let err = run_local(&Forever, &g, &id, &CertificateList::new(), &limits).unwrap_err();
        assert_eq!(err, MachineError::RoundLimitExceeded { limit: 3 });
    }

    #[test]
    fn certificates_reach_the_nodes() {
        use lph_graphs::CertificateAssignment;
        struct CertIsOne;
        impl LocalAlgorithm for CertIsOne {
            fn spawn(&self, input: NodeInput) -> Box<dyn NodeProgram> {
                let ok = input.certificates.len() == 1
                    && input.certificates[0] == BitString::from_bits01("1");
                Box::new(
                    move |ctx: &mut NodeCtx, _round: usize, _inbox: &[BitString]| {
                        ctx.charge(1);
                        RoundAction::verdict(ok)
                    },
                )
            }
        }
        let g = generators::path(3);
        let id = IdAssignment::global(&g);
        let yes = CertificateList::from_assignments(vec![CertificateAssignment::uniform(
            &g,
            BitString::from_bits01("1"),
        )]);
        let out = run_local(&CertIsOne, &g, &id, &yes, &ExecLimits::default()).unwrap();
        assert!(out.accepted);
        let no = CertificateList::new();
        let out = run_local(&CertIsOne, &g, &id, &no, &ExecLimits::default()).unwrap();
        assert!(!out.accepted);
    }

    #[test]
    fn halted_nodes_send_empty_messages() {
        // Node halts in round 1; its neighbor checks in round 2 that the
        // received message is empty.
        struct Asymmetric;
        impl LocalAlgorithm for Asymmetric {
            fn spawn(&self, input: NodeInput) -> Box<dyn NodeProgram> {
                let halt_now = input.label == BitString::from_bits01("0");
                Box::new(
                    move |ctx: &mut NodeCtx, round: usize, inbox: &[BitString]| {
                        ctx.charge(1);
                        if halt_now {
                            return RoundAction::accept();
                        }
                        match round {
                            1 => RoundAction::Send(vec![BitString::from_bits01("1"); inbox.len()]),
                            _ => RoundAction::verdict(inbox.iter().all(BitString::is_empty)),
                        }
                    },
                )
            }
        }
        let g = generators::labeled_path(&["0", "1"]);
        let id = IdAssignment::global(&g);
        let out = run_local(
            &Asymmetric,
            &g,
            &id,
            &CertificateList::new(),
            &ExecLimits::default(),
        )
        .unwrap();
        assert!(out.accepted);
        assert_eq!(out.rounds, 2);
    }
}
