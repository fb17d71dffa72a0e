use lph_graphs::{BitString, CertificateList, IdAssignment, LabeledGraph};

use crate::metrics::{ExecMetrics, RoundStats};
use crate::tape::{bits_to_syms, content_bits, split_messages, Tape};
use crate::tm::{DistributedTm, StateId, Sym};
use crate::{MachineError, Routing};

/// Safety limits for executions. The paper's machines always terminate; the
/// limits turn authoring bugs into errors instead of hangs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecLimits {
    /// Maximum number of communication rounds before aborting.
    pub max_rounds: usize,
    /// Maximum number of computation steps per node per round.
    pub max_steps_per_round: usize,
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits {
            max_rounds: 64,
            max_steps_per_round: 1_000_000,
        }
    }
}

/// The outcome of executing a [`DistributedTm`] on a graph: the result
/// graph's labels, the per-node verdicts, the unanimity decision, and the
/// step/space metrics (Section 4).
#[derive(Debug, Clone)]
pub struct TmOutcome {
    /// Number of rounds until all nodes reached `q_stop`.
    pub rounds: usize,
    /// The labeling of the result graph `M(G, id, κ̄)`: the bit string on
    /// each node's internal tape (non-bit symbols ignored).
    pub result_labels: Vec<BitString>,
    /// Per-node verdicts: `true` iff the node's result label is exactly `1`.
    pub verdicts: Vec<bool>,
    /// Acceptance by unanimity: `true` iff every node accepts.
    pub accepted: bool,
    /// Per-node, per-round step and space statistics.
    pub metrics: ExecMetrics,
}

struct NodeState {
    state: StateId,
    int: Tape,
    /// Messages produced in the last round, aligned with the node's
    /// neighbors in ascending identifier order.
    outbox: Vec<BitString>,
    /// Cumulative space high-water marks of receiving/sending tapes from
    /// completed rounds (those tapes are reset each round).
    rcv_snd_space: usize,
}

/// Executes a distributed Turing machine `M` on `(G, id, κ̄)` following the
/// three-phase round semantics of Section 4.
///
/// # Errors
///
/// * [`MachineError::IdsNotLocallyUnique`] if `id` is not 1-locally unique;
/// * [`MachineError::MissingTransition`] / [`MachineError::HeadOffTape`] /
///   [`MachineError::OverwroteLeftEnd`] for authoring bugs in `M`;
/// * [`MachineError::StepLimitExceeded`] / [`MachineError::RoundLimitExceeded`]
///   if the configured [`ExecLimits`] are hit.
pub fn run_tm(
    tm: &DistributedTm,
    g: &LabeledGraph,
    id: &IdAssignment,
    certs: &CertificateList,
    limits: &ExecLimits,
) -> Result<TmOutcome, MachineError> {
    run_tm_routed(tm, &Routing::new(g, id)?, certs, limits)
}

/// [`run_tm`] on a prepared [`Routing`], for callers that replay one
/// `(G, id)` under many certificate lists.
///
/// # Errors
///
/// Those of [`run_tm`] other than [`MachineError::IdsNotLocallyUnique`],
/// which [`Routing::new`] reports.
pub fn run_tm_routed(
    tm: &DistributedTm,
    routing: &Routing<'_>,
    certs: &CertificateList,
    limits: &ExecLimits,
) -> Result<TmOutcome, MachineError> {
    let _span = lph_trace::span("machine/run_tm");
    let (g, id) = (routing.graph(), routing.ids());
    let n = g.node_count();
    let mut nodes: Vec<NodeState> = g
        .nodes()
        .map(|u| {
            // Internal tape starts as λ(u) # id(u) # κ̄(u).
            let mut content = bits_to_syms(g.label(u));
            content.push(Sym::Sep);
            content.extend(bits_to_syms(id.id(u)));
            content.push(Sym::Sep);
            for c in certs.node_string(u) {
                content.push(match c {
                    lph_graphs::CertSymbol::Zero => Sym::Zero,
                    lph_graphs::CertSymbol::One => Sym::One,
                    lph_graphs::CertSymbol::Sep => Sym::Sep,
                });
            }
            NodeState {
                state: tm.start(),
                int: Tape::with_content(&content),
                outbox: vec![BitString::new(); g.degree(u)],
                rcv_snd_space: 0,
            }
        })
        .collect();

    let mut metrics = ExecMetrics::new(n);
    for round in 1..=limits.max_rounds {
        // Phase 1: assemble receiving tapes from last round's outboxes.
        let inboxes: Vec<Vec<BitString>> = g
            .nodes()
            .map(|u| {
                routing
                    .ports(u)
                    .iter()
                    .map(|&(v, slot)| nodes[v.0].outbox[slot].clone())
                    .collect()
            })
            .collect();

        let mut all_stopped = true;
        for u in g.nodes() {
            let node = &mut nodes[u.0];
            let mut rcv_content = Vec::new();
            for msg in &inboxes[u.0] {
                rcv_content.extend(bits_to_syms(msg));
                rcv_content.push(Sym::Sep);
            }
            let mut rcv = Tape::with_content(&rcv_content);
            let mut snd = Tape::empty();

            if node.state == tm.stop() {
                // Already halted: remains in q_stop, sends empty messages.
                node.outbox = vec![BitString::new(); g.degree(u)];
                metrics.record(
                    u.0,
                    RoundStats {
                        steps: 0,
                        space: node.rcv_snd_space + node.int.touched(),
                        input_rcv_len: rcv_content.len(),
                        input_int_len: node.int.content().len(),
                    },
                );
                continue;
            }

            // Phase 2: local computation.
            node.state = tm.start();
            node.int.rewind();
            let input_int_len = node.int.content().len();
            let mut steps = 0usize;
            while node.state != tm.pause() && node.state != tm.stop() {
                let scanned = [rcv.read(), node.int.read(), snd.read()];
                let t = tm.step(node.state, scanned)?;
                rcv.write(t.write[0], 0)?;
                node.int.write(t.write[1], 1)?;
                snd.write(t.write[2], 2)?;
                rcv.shift(t.moves[0], 0)?;
                node.int.shift(t.moves[1], 1)?;
                snd.shift(t.moves[2], 2)?;
                node.state = t.next;
                steps += 1;
                if steps > limits.max_steps_per_round {
                    return Err(MachineError::StepLimitExceeded {
                        node: u.0,
                        round,
                        limit: limits.max_steps_per_round,
                    });
                }
            }
            node.rcv_snd_space = node.rcv_snd_space.max(rcv.touched() + snd.touched());
            let space = rcv.touched() + node.int.touched() + snd.touched();
            if lph_trace::enabled() {
                lph_trace::observe("machine/round_steps", steps as u64);
                lph_trace::observe("machine/round_space", space as u64);
            }
            metrics.record(
                u.0,
                RoundStats {
                    steps,
                    space,
                    input_rcv_len: rcv_content.len(),
                    input_int_len,
                },
            );

            // Phase 3: extract messages from the sending tape.
            node.outbox = split_messages(&snd.content(), g.degree(u));
            if node.state != tm.stop() {
                all_stopped = false;
            }
        }

        if all_stopped {
            let result_labels: Vec<BitString> = nodes
                .iter()
                .map(|s| content_bits(&s.int.content()))
                .collect();
            let verdicts: Vec<bool> = result_labels
                .iter()
                .map(|l| l.as_bools() == [true])
                .collect();
            let accepted = verdicts.iter().all(|&v| v);
            if lph_trace::enabled() {
                lph_trace::add("machine/runs", 1);
                lph_trace::add("machine/rounds", round as u64);
                lph_trace::add("machine/steps", metrics.total_steps() as u64);
            }
            return Ok(TmOutcome {
                rounds: round,
                result_labels,
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
    use crate::tm::{Move, Pat, TmBuilder, WriteOp};
    use lph_graphs::generators;

    /// A machine that halts immediately, leaving its input tape as verdict
    /// material (so the verdict depends on the raw λ#id#κ̄ bits).
    fn halt_machine() -> DistributedTm {
        let mut b = TmBuilder::new();
        b.rule(
            b.start(),
            [Pat::Any; 3],
            b.stop(),
            [WriteOp::Keep; 3],
            [Move::S; 3],
        );
        b.build()
    }

    /// A machine that never halts (always pauses), to exercise the round
    /// limit.
    fn spin_machine() -> DistributedTm {
        let mut b = TmBuilder::new();
        b.rule(
            b.start(),
            [Pat::Any; 3],
            b.pause(),
            [WriteOp::Keep; 3],
            [Move::S; 3],
        );
        b.build()
    }

    #[test]
    fn halting_machine_terminates_in_one_round() {
        let g = generators::path(3);
        let id = IdAssignment::global(&g);
        let out = run_tm(
            &halt_machine(),
            &g,
            &id,
            &CertificateList::new(),
            &ExecLimits::default(),
        )
        .unwrap();
        assert_eq!(out.rounds, 1);
        // Verdict string is label ++ id bits (all separators ignored):
        // label "1" plus 2 id bits — not equal to "1", so nodes reject.
        assert!(!out.accepted);
    }

    #[test]
    fn spin_machine_hits_round_limit() {
        let g = generators::path(2);
        let id = IdAssignment::global(&g);
        let limits = ExecLimits {
            max_rounds: 5,
            max_steps_per_round: 100,
        };
        let err = run_tm(&spin_machine(), &g, &id, &CertificateList::new(), &limits).unwrap_err();
        assert_eq!(err, MachineError::RoundLimitExceeded { limit: 5 });
    }

    #[test]
    fn non_locally_unique_ids_are_rejected() {
        // Every engine refuses them through the shared routing.
        use crate::{run_local, run_tm_compiled, CompiledTm, NodeCtx, NodeInput, NodeProgram};
        use crate::{RoundAction, Routing};
        fn accept_all(_input: NodeInput) -> Box<dyn NodeProgram> {
            Box::new(|ctx: &mut NodeCtx, _round: usize, _inbox: &[BitString]| {
                ctx.charge(1);
                RoundAction::accept()
            })
        }
        let g = generators::path(2);
        let id = IdAssignment::from_vec(&g, vec![BitString::new(), BitString::new()]).unwrap();
        let (certs, limits) = (CertificateList::new(), ExecLimits::default());
        let err = MachineError::IdsNotLocallyUnique;
        assert_eq!(Routing::new(&g, &id).unwrap_err(), err);
        let tm = halt_machine();
        assert_eq!(run_tm(&tm, &g, &id, &certs, &limits).unwrap_err(), err);
        let ct = CompiledTm::compile(&tm);
        assert_eq!(
            run_tm_compiled(&ct, &g, &id, &certs, &limits).unwrap_err(),
            err
        );
        assert_eq!(
            run_local(&accept_all, &g, &id, &certs, &limits).unwrap_err(),
            err
        );
    }

    #[test]
    fn step_limit_catches_runaway_loops() {
        // A machine that moves its internal head right forever.
        let mut b = TmBuilder::new();
        let run = b.state("run");
        b.rule(
            b.start(),
            [Pat::Any; 3],
            run,
            [WriteOp::Keep; 3],
            [Move::S; 3],
        );
        b.rule(
            run,
            [Pat::Any; 3],
            run,
            [WriteOp::Keep; 3],
            [Move::S, Move::R, Move::S],
        );
        let tm = b.build();
        let g = generators::path(1);
        let id = IdAssignment::global(&g);
        let limits = ExecLimits {
            max_rounds: 2,
            max_steps_per_round: 50,
        };
        let err = run_tm(&tm, &g, &id, &CertificateList::new(), &limits).unwrap_err();
        assert!(matches!(
            err,
            MachineError::StepLimitExceeded { limit: 50, .. }
        ));
    }

    #[test]
    fn metrics_are_recorded_per_round() {
        let g = generators::path(2);
        let id = IdAssignment::global(&g);
        let out = run_tm(
            &halt_machine(),
            &g,
            &id,
            &CertificateList::new(),
            &ExecLimits::default(),
        )
        .unwrap();
        assert_eq!(out.metrics.per_node.len(), 2);
        assert_eq!(out.metrics.per_node[0].len(), 1);
        // The halting transition is one step.
        assert_eq!(out.metrics.per_node[0][0].steps, 1);
    }
}
