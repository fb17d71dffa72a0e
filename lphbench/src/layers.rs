//! The traced in-process replay: the per-layer breakdown.
//!
//! A request is replayed through the same public calls, in the same
//! order, that `Engine::process_request` makes, each wrapped in a timer
//! named after its layer. Inside the calls that reach the game, SAT,
//! machine and reduction layers, the program's own `lph-trace` spans
//! (recorded since the last reset) give the sub-phase times, and the
//! wrapping timer keeps only its *self* time: its wall minus the spans it
//! contains. The lint walk is replayed the same way through the phases of
//! `lph_analysis::run_deep`.

use std::collections::BTreeMap;
use std::time::Instant;

use lph_analysis::contract::{self, ArbiterArtifact, ReductionArtifact};
use lph_analysis::json::{diagnostics_to_json, Json};
use lph_analysis::{dtm, flow, formula, sort_diagnostics, Corpus, Diagnostic, RuleConfig};
use lph_core::decide_game_backend;
use lph_graphs::IdAssignment;
use lph_runtime::par_flat_map;
use lph_serve::cache::{bucket_key, IsoCache};
use lph_serve::proto::{
    error_line, graph_json, ok_line, parse_request, LintTarget, Payload, Query,
};
use lph_serve::{arbiter_entries, find_arbiter, find_reduction, reduction_entries, EngineConfig};

/// Layers whose self times partition the traced wall time.
pub const SELF_LAYERS: [&str; 23] = [
    "proto.parse_us",
    "proto.emit_us",
    "registry.lookup_us",
    "admission.admit_us",
    "cache.key_us",
    "cache.lookup_us",
    "cache.insert_us",
    "game.self_us",
    "sat.solve_us",
    "sat.check_us",
    "machine.run_us",
    "reduction.apply_us",
    "analysis.corpus_build_us",
    "analysis.dtm_us",
    "analysis.formula_us",
    "analysis.arbiter_contract_us",
    "analysis.reduction_contract_us",
    "analysis.flow_machine_us",
    "analysis.flow_sentence_us",
    "analysis.flow_reduction_us",
    "analysis.flow_bytecode_us",
    "analysis.flow_plan_us",
    "analysis.proofcheck_us",
];

/// Accumulated layer times (ns) and counts over one traced pass.
#[derive(Default)]
pub struct Acc {
    /// Totals by metric name: nanoseconds for `*_us`, plain counts else.
    pub totals: BTreeMap<&'static str, f64>,
    /// Membership requests that reached admission, and how many it shed.
    pub admissions: u64,
    /// Membership requests shed by admission.
    pub sheds: u64,
    /// Cache lookups and hits.
    pub lookups: u64,
    /// Cache lookups that hit.
    pub hits: u64,
}

impl Acc {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.totals.entry(key).or_insert(0.0) += v;
    }

    /// The accumulated total under `key` (0 when never recorded).
    pub fn get(&self, key: &str) -> f64 {
        self.totals.get(key).copied().unwrap_or(0.0)
    }

    fn timed<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let r = f();
        self.add(key, t.elapsed().as_nanos() as f64);
        r
    }

    /// Times a call that reaches instrumented layers, and splits its wall
    /// time between `outer` and the program spans recorded inside it.
    fn spanned<T>(&mut self, outer: &'static str, f: impl FnOnce() -> T) -> T {
        lph_trace::reset();
        let t = Instant::now();
        let r = f();
        let wall = t.elapsed().as_nanos() as f64;
        let snap = lph_trace::snapshot();
        let span = |name: &str| {
            snap.spans
                .iter()
                .find(|s| s.name == name)
                .map_or(0.0, |s| s.total_ns as f64)
        };
        let count = |name: &str| snap.counter(name).unwrap_or(0) as f64;
        let machine = span("machine/run_tm") + span("machine/run_tm_compiled");
        let (solve, check) = (span("sat/solve"), span("sat/proof/check"));
        let (cdcl, compile) = (span("game/cdcl"), span("game/cdcl_compile"));
        let reduction = span("reduction/apply");
        self.add("machine.run_us", machine);
        self.add("sat.solve_us", solve);
        self.add("sat.check_us", check);
        self.add("reduction.apply_us", reduction);
        self.add("game.tables_us", compile);
        self.add(
            "game.encode_replay_us",
            (cdcl - compile - solve - check).max(0.0),
        );
        self.add("game.table_runs", count("game/table_runs"));
        self.add("game.cnf_clauses", count("game/cnf_clauses"));
        self.add("sat.conflicts", count("sat/conflicts"));
        self.add("sat.proof_propagations", count("sat/proof/propagations"));
        self.add("machine.steps", count("machine/steps"));
        let leaves = machine + solve + check + reduction;
        if outer == "game.self_us" {
            self.add("game.decide_us", wall);
            self.add("game.self_us", wall - leaves);
        } else {
            // Games decided inside an analysis call (the SAT001–003 proof
            // re-decisions) run under `analysis/proofcheck` spans.
            let game = (cdcl - solve - check).max(0.0);
            let proofcheck = (span("analysis/proofcheck") - cdcl).max(0.0);
            self.add("game.decide_us", cdcl);
            self.add("game.self_us", game);
            self.add("analysis.proofcheck_us", proofcheck);
            self.add(outer, wall - leaves - game - proofcheck);
        }
        r
    }

    /// Sum of the layer self times, in ns.
    pub fn self_sum(&self) -> f64 {
        SELF_LAYERS.iter().map(|k| self.get(k)).sum()
    }
}

/// Replays request lines through the serve layers, one public call at a
/// time, against its own iso-class cache.
pub struct Replay {
    config: EngineConfig,
    cache: IsoCache,
    /// The accumulated layer times.
    pub acc: Acc,
}

impl Default for Replay {
    fn default() -> Self {
        Replay {
            config: EngineConfig::default(),
            cache: IsoCache::new(),
            acc: Acc::default(),
        }
    }
}

impl Replay {
    /// Iso-classes in the replay's cache.
    pub fn cached_classes(&self) -> usize {
        self.cache.len()
    }

    fn emit(&mut self, f: impl FnOnce() -> String) -> String {
        self.acc.timed("proto.emit_us", f)
    }

    fn unknown(&mut self, id: &str, what: &str, key: &str) -> String {
        self.emit(|| {
            error_line(
                Some(id),
                "unknown_artifact",
                &format!("no registered {what} with key {key:?} (see the \"list\" query)"),
                &[],
            )
        })
    }

    /// Processes one request line into its response line.
    pub fn line(&mut self, line: &str) -> String {
        let parsed = self.acc.timed("proto.parse_us", || parse_request(line));
        let req = match parsed {
            Ok(req) => req,
            Err((id, e)) => {
                return self.emit(|| error_line(id.as_deref(), e.code, &e.detail, &[]));
            }
        };
        let id = req.id.as_str();
        let acc = &mut self.acc;
        let (config, cache) = (&self.config, &self.cache);
        match &req.query {
            Query::Membership {
                arbiter,
                graph,
                level,
                backend,
                exec,
            } => {
                let Some(entry) = acc.timed("registry.lookup_us", || find_arbiter(arbiter)) else {
                    return self.unknown(id, "arbiter", arbiter);
                };
                if let Some(l) = level {
                    if *l != entry.level {
                        return acc.timed("proto.emit_us", || {
                            error_line(
                                Some(id),
                                "unsupported_level",
                                &format!(
                                    "{} arbitrates a {} game at level {}, not level {l}",
                                    entry.key, entry.claimed_class, entry.level
                                ),
                                &[],
                            )
                        });
                    }
                }
                acc.admissions += 1;
                let admitted = acc.timed("admission.admit_us", || {
                    config
                        .admission
                        .admit_membership(&entry, graph.node_count(), *exec)
                });
                if let Err(rej) = admitted {
                    acc.sheds += 1;
                    return acc.timed("proto.emit_us", || {
                        error_line(Some(id), rej.code, &rej.detail, &rej.extra_fields())
                    });
                }
                let key = acc.timed("cache.key_us", || {
                    bucket_key(
                        &format!(
                            "membership|{}|{}|{}",
                            entry.key,
                            backend.as_str(),
                            exec.as_str()
                        ),
                        graph,
                    )
                });
                if config.cache {
                    acc.lookups += 1;
                    let hit = acc.timed("cache.lookup_us", || cache.lookup(&key, graph));
                    if let Some(payload) = hit {
                        acc.hits += 1;
                        return acc.timed("proto.emit_us", || ok_line(id, &payload));
                    }
                }
                let result = acc.spanned("game.self_us", || {
                    let a = (entry.factory)().with_exec_backend(*exec);
                    let ids = IdAssignment::global(graph);
                    decide_game_backend(&a, graph, &ids, &config.limits, *backend)
                });
                let result = match result {
                    Ok(r) => r,
                    Err(e) => {
                        return acc.timed("proto.emit_us", || {
                            error_line(
                                Some(id),
                                "engine_error",
                                &format!("game decision failed: {e}"),
                                &[],
                            )
                        });
                    }
                };
                let payload: Payload = acc.timed("proto.emit_us", || {
                    vec![
                        ("kind".to_owned(), Json::Str("membership".to_owned())),
                        ("arbiter".to_owned(), Json::Str(entry.key.to_owned())),
                        ("nodes".to_owned(), Json::Num(graph.node_count() as f64)),
                        ("level".to_owned(), Json::Num(entry.level as f64)),
                        ("eve_wins".to_owned(), Json::Bool(result.eve_wins)),
                        (
                            "witness".to_owned(),
                            Json::Bool(result.winning_first_move.is_some()),
                        ),
                        (
                            "refutation".to_owned(),
                            Json::Str(
                                match &result.refutation {
                                    None => "none",
                                    Some(ev) if ev.is_checked() => "checked",
                                    Some(_) => "unchecked",
                                }
                                .to_owned(),
                            ),
                        ),
                    ]
                });
                if config.cache {
                    acc.timed("cache.insert_us", || {
                        cache.insert(key, graph.clone(), payload.clone());
                    });
                }
                acc.timed("proto.emit_us", || ok_line(id, &payload))
            }
            Query::Lint {
                target_kind,
                key,
                graph,
                deep,
            } => {
                let admitted = acc.timed("admission.admit_us", || {
                    config.admission.admit_nodes(graph.node_count())
                });
                if let Err(rej) = admitted {
                    return acc.timed("proto.emit_us", || {
                        error_line(Some(id), rej.code, &rej.detail, &rej.extra_fields())
                    });
                }
                let (target, mut diags) = match target_kind {
                    LintTarget::Arbiter => {
                        let Some(entry) = acc.timed("registry.lookup_us", || find_arbiter(key))
                        else {
                            return self.unknown(id, "arbiter", key);
                        };
                        let diags = acc.spanned("analysis.arbiter_contract_us", || {
                            let artifact = ArbiterArtifact::new(
                                (entry.factory)(),
                                entry.claimed_class,
                                entry.declared_rounds,
                            )
                            .with_probes(vec![graph.clone()]);
                            contract::check_arbiter(&artifact)
                        });
                        (format!("arbiter:{}", entry.key), diags)
                    }
                    LintTarget::Reduction => {
                        let Some(entry) = acc.timed("registry.lookup_us", || find_reduction(key))
                        else {
                            return self.unknown(id, "reduction", key);
                        };
                        let artifact =
                            ReductionArtifact::new((entry.factory)(), vec![graph.clone()]);
                        let mut diags = acc.spanned("analysis.reduction_contract_us", || {
                            contract::check_reduction(&artifact)
                        });
                        if *deep {
                            acc.spanned("analysis.flow_reduction_us", || {
                                diags.extend(flow::reduction::check_domain(&artifact));
                                diags.extend(flow::reduction::check_cluster_size(&artifact));
                                diags.extend(flow::reduction::check_output_size(&artifact));
                                diags.extend(flow::reduction::check_reduction_flow(&artifact));
                            });
                        }
                        (format!("reduction:{}", entry.key), diags)
                    }
                };
                acc.timed("proto.emit_us", || {
                    sort_diagnostics(&mut diags);
                    let payload: Payload = vec![
                        ("kind".to_owned(), Json::Str("lint".to_owned())),
                        ("target".to_owned(), Json::Str(target)),
                        ("failures".to_owned(), Json::Num(diags.len() as f64)),
                        ("diagnostics".to_owned(), diagnostics_to_json(&diags)),
                    ];
                    ok_line(id, &payload)
                })
            }
            Query::Reduction { reduction, graph } => {
                let Some(entry) = acc.timed("registry.lookup_us", || find_reduction(reduction))
                else {
                    return self.unknown(id, "reduction", reduction);
                };
                let admitted = acc.timed("admission.admit_us", || {
                    config.admission.admit_nodes(graph.node_count())
                });
                if let Err(rej) = admitted {
                    return acc.timed("proto.emit_us", || {
                        error_line(Some(id), rej.code, &rej.detail, &rej.extra_fields())
                    });
                }
                let applied = acc.spanned("reduction.apply_us", || {
                    let red = (entry.factory)();
                    if red.requires_incident_edges() && !flow::reduction_domain_ok(graph) {
                        return None;
                    }
                    let ids = IdAssignment::global(graph);
                    Some(lph_reductions::apply(red.as_ref(), graph, &ids))
                });
                acc.timed("proto.emit_us", || match applied {
                    None => error_line(
                        Some(id),
                        "bad_graph",
                        &format!("{} requires every node to have an incident edge", entry.key),
                        &[],
                    ),
                    Some(Err(e)) => error_line(
                        Some(id),
                        "engine_error",
                        &format!("reduction failed: {e}"),
                        &[],
                    ),
                    Some(Ok((out, _clusters))) => {
                        let payload: Payload = vec![
                            ("kind".to_owned(), Json::Str("reduction".to_owned())),
                            ("reduction".to_owned(), Json::Str(entry.key.to_owned())),
                            ("nodes".to_owned(), Json::Num(out.node_count() as f64)),
                            ("edges".to_owned(), Json::Num(out.edge_count() as f64)),
                            ("output".to_owned(), graph_json(&out)),
                        ];
                        ok_line(id, &payload)
                    }
                })
            }
            Query::List => {
                let (arbiters, reductions) = acc.timed("registry.lookup_us", || {
                    (arbiter_entries(), reduction_entries())
                });
                acc.timed("proto.emit_us", || {
                    let arbiters = arbiters
                        .iter()
                        .map(|e| {
                            Json::Obj(vec![
                                ("key".to_owned(), Json::Str(e.key.to_owned())),
                                ("class".to_owned(), Json::Str(e.claimed_class.to_owned())),
                                ("level".to_owned(), Json::Num(e.level as f64)),
                                ("rounds".to_owned(), Json::Num(e.declared_rounds as f64)),
                                (
                                    "certified_steps".to_owned(),
                                    e.certified_steps
                                        .as_ref()
                                        .map_or(Json::Null, |p| Json::Str(p.to_string())),
                                ),
                                (
                                    "bytecode_certified_steps".to_owned(),
                                    e.bytecode_certified_steps
                                        .as_ref()
                                        .map_or(Json::Null, |p| Json::Str(p.to_string())),
                                ),
                            ])
                        })
                        .collect();
                    let reductions = reductions
                        .iter()
                        .map(|e| {
                            let red = (e.factory)();
                            Json::Obj(vec![
                                ("key".to_owned(), Json::Str(e.key.to_owned())),
                                ("name".to_owned(), Json::Str(red.name().to_owned())),
                                ("radius".to_owned(), Json::Num(red.radius() as f64)),
                            ])
                        })
                        .collect();
                    let payload: Payload = vec![
                        ("kind".to_owned(), Json::Str("list".to_owned())),
                        ("arbiters".to_owned(), Json::Arr(arbiters)),
                        ("reductions".to_owned(), Json::Arr(reductions)),
                    ];
                    ok_line(id, &payload)
                })
            }
        }
    }
}

/// One lint walk replayed phase by phase: what
/// `lph_analysis::run_builtin_deep` does, through the same public calls.
pub fn walk(acc: &mut Acc, config: &RuleConfig) -> Vec<Diagnostic> {
    let corpus: Corpus = acc.timed("analysis.corpus_build_us", lph_analysis::builtin);
    let c = &corpus;
    let mut diags = acc.spanned("analysis.dtm_us", || par_flat_map(&c.dtms, dtm::check_all));
    diags.extend(acc.spanned("analysis.formula_us", || {
        par_flat_map(&c.sentences, formula::check_all)
    }));
    diags.extend(acc.spanned("analysis.arbiter_contract_us", || {
        par_flat_map(&c.arbiters, contract::check_arbiter)
    }));
    diags.extend(acc.spanned("analysis.reduction_contract_us", || {
        let mut d = par_flat_map(&c.reductions, contract::check_reduction);
        d.extend(par_flat_map(&c.cluster_maps, contract::check_cluster_map));
        d
    }));
    diags.extend(acc.spanned("analysis.flow_machine_us", || {
        par_flat_map(&c.dtms, flow::machine::check_machine)
    }));
    diags.extend(acc.spanned("analysis.flow_sentence_us", || {
        par_flat_map(&c.sentences, flow::sentence::check_sentence)
    }));
    diags.extend(acc.spanned("analysis.flow_reduction_us", || {
        par_flat_map(&c.reductions, flow::reduction::check_reduction_flow)
    }));
    diags.extend(acc.spanned("analysis.flow_bytecode_us", || {
        par_flat_map(&c.dtms, flow::bytecode::check_bytecode)
    }));
    diags.extend(acc.spanned("analysis.flow_plan_us", || {
        par_flat_map(&c.sentences, flow::plan::check_plan)
    }));
    let mut diags = config.apply(diags);
    sort_diagnostics(&mut diags);
    diags
}
