//! The query engine: decodes request lines, runs the queries, and emits
//! response lines.
//!
//! One [`Engine`] is shared by every connection (and by the in-process
//! benchmarks); it is `Sync` — the registry is one shared, immutable
//! table whose factories build per-request artifacts, the iso-cache
//! locks internally, and game decisions are pure. Batches go through
//! [`lph_runtime::par_map`], whose order guarantee *is* the protocol's
//! ordering guarantee: response `i` of a batch answers request `i`,
//! whatever the worker interleaving. A one-line batch runs on the
//! calling thread without resolving the pool width.

use lph_analysis::contract::{self, ArbiterArtifact, ReductionArtifact};
use lph_analysis::json::{diagnostics_to_json, Json};
use lph_analysis::{flow, sort_diagnostics};
use lph_core::{decide_game_backend, GameLimits};
use lph_graphs::IdAssignment;
use lph_runtime::par_map;

use crate::admission::Admission;
use crate::cache::{bucket_key, IsoCache};
use crate::proto::{
    error_line, graph_json, ok_line, parse_request, LintTarget, Payload, Query, Request,
};
use crate::registry::{arbiter_entries, find_arbiter, find_reduction, reduction_entries};

/// Engine configuration; every field has a serving-friendly default.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Admission-control budgets.
    pub admission: Admission,
    /// Whether the iso-class verdict cache is consulted and filled.
    pub cache: bool,
    /// Bound on cached iso-class representatives (`None` = unbounded);
    /// past it the least-recently-used class is evicted.
    pub cache_cap: Option<usize>,
    /// Limits for one game decision.
    pub limits: GameLimits,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            admission: Admission::default(),
            cache: true,
            cache_cap: None,
            limits: GameLimits::default(),
        }
    }
}

/// The shared query engine.
pub struct Engine {
    config: EngineConfig,
    cache: IsoCache,
}

impl Engine {
    /// An engine with the given configuration and an empty cache.
    pub fn new(config: EngineConfig) -> Self {
        let cache = match config.cache_cap {
            Some(cap) => IsoCache::with_cap(cap),
            None => IsoCache::new(),
        };
        Engine { config, cache }
    }

    /// The configuration the engine runs with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of iso-class representatives currently cached.
    pub fn cached_classes(&self) -> usize {
        self.cache.len()
    }

    /// Processes one request line into one response line (no trailing
    /// newline).
    pub fn process_line(&self, line: &str) -> String {
        lph_trace::add("serve/requests", 1);
        let req = match parse_request(line) {
            Ok(req) => req,
            Err((id, e)) => return error_line(id.as_deref(), e.code, &e.detail, &[]),
        };
        self.process_request(&req)
    }

    /// Processes a batch of request lines; response `i` answers line `i`.
    pub fn process_batch(&self, lines: &[String]) -> Vec<String> {
        lph_trace::add("serve/batches", 1);
        lph_trace::observe("serve/batch_len", lines.len() as u64);
        par_map(lines, |l| self.process_line(l))
    }

    fn process_request(&self, req: &Request) -> String {
        let id = req.id.as_str();
        match &req.query {
            Query::Membership {
                arbiter,
                graph,
                level,
                backend,
                exec,
            } => {
                let Some(entry) = find_arbiter(arbiter) else {
                    return unknown_artifact(id, "arbiter", arbiter);
                };
                if let Some(l) = level {
                    if *l != entry.level {
                        return error_line(
                            Some(id),
                            "unsupported_level",
                            &format!(
                                "{} arbitrates a {} game at level {}, not level {l}",
                                entry.key, entry.claimed_class, entry.level
                            ),
                            &[],
                        );
                    }
                }
                if let Err(rej) =
                    self.config
                        .admission
                        .admit_membership(entry, graph.node_count(), *exec)
                {
                    return error_line(Some(id), rej.code, &rej.detail, &rej.extra_fields());
                }
                let key = bucket_key(
                    &format!(
                        "membership|{}|{}|{}",
                        entry.key,
                        backend.as_str(),
                        exec.as_str()
                    ),
                    graph,
                );
                if self.config.cache {
                    if let Some(payload) = self.cache.lookup(&key, graph) {
                        return ok_line(id, &payload);
                    }
                }
                let a = (entry.factory)().with_exec_backend(*exec);
                let ids = IdAssignment::global(graph);
                let result =
                    match decide_game_backend(&a, graph, &ids, &self.config.limits, *backend) {
                        Ok(r) => r,
                        Err(e) => {
                            return error_line(
                                Some(id),
                                "engine_error",
                                &format!("game decision failed: {e}"),
                                &[],
                            );
                        }
                    };
                // Only iso-invariant facts go on the wire: the verdict,
                // witness *existence*, and the refutation evidence tag —
                // never the certificate or run count, which depend on the
                // concrete node numbering.
                let payload: Payload = vec![
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
                ];
                if self.config.cache {
                    self.cache.insert(key, graph.clone(), payload.clone());
                }
                ok_line(id, &payload)
            }
            Query::Lint {
                target_kind,
                key,
                graph,
                deep,
            } => {
                if let Err(rej) = self.config.admission.admit_nodes(graph.node_count()) {
                    return error_line(Some(id), rej.code, &rej.detail, &rej.extra_fields());
                }
                let (target, mut diags) = match target_kind {
                    LintTarget::Arbiter => {
                        let Some(entry) = find_arbiter(key) else {
                            return unknown_artifact(id, "arbiter", key);
                        };
                        let artifact = ArbiterArtifact::new(
                            (entry.factory)(),
                            entry.claimed_class,
                            entry.declared_rounds,
                        )
                        .with_probes(vec![graph.clone()]);
                        (
                            format!("arbiter:{}", entry.key),
                            contract::check_arbiter(&artifact),
                        )
                    }
                    LintTarget::Reduction => {
                        let Some(entry) = find_reduction(key) else {
                            return unknown_artifact(id, "reduction", key);
                        };
                        let artifact =
                            ReductionArtifact::new((entry.factory)(), vec![graph.clone()]);
                        let mut diags = contract::check_reduction(&artifact);
                        if *deep {
                            diags.extend(flow::reduction::check_reduction_flow(&artifact));
                        }
                        (format!("reduction:{}", entry.key), diags)
                    }
                };
                sort_diagnostics(&mut diags);
                let payload: Payload = vec![
                    ("kind".to_owned(), Json::Str("lint".to_owned())),
                    ("target".to_owned(), Json::Str(target)),
                    ("failures".to_owned(), Json::Num(diags.len() as f64)),
                    ("diagnostics".to_owned(), diagnostics_to_json(&diags)),
                ];
                ok_line(id, &payload)
            }
            Query::Reduction { reduction, graph } => {
                let Some(entry) = find_reduction(reduction) else {
                    return unknown_artifact(id, "reduction", reduction);
                };
                if let Err(rej) = self.config.admission.admit_nodes(graph.node_count()) {
                    return error_line(Some(id), rej.code, &rej.detail, &rej.extra_fields());
                }
                let red = (entry.factory)();
                if red.requires_incident_edges() && !flow::reduction_domain_ok(graph) {
                    return error_line(
                        Some(id),
                        "bad_graph",
                        &format!("{} requires every node to have an incident edge", entry.key),
                        &[],
                    );
                }
                let ids = IdAssignment::global(graph);
                let (out, _clusters) = match lph_reductions::apply(red.as_ref(), graph, &ids) {
                    Ok(pair) => pair,
                    Err(e) => {
                        return error_line(
                            Some(id),
                            "engine_error",
                            &format!("reduction failed: {e}"),
                            &[],
                        );
                    }
                };
                let payload: Payload = vec![
                    ("kind".to_owned(), Json::Str("reduction".to_owned())),
                    ("reduction".to_owned(), Json::Str(entry.key.to_owned())),
                    ("nodes".to_owned(), Json::Num(out.node_count() as f64)),
                    ("edges".to_owned(), Json::Num(out.edge_count() as f64)),
                    ("output".to_owned(), graph_json(&out)),
                ];
                ok_line(id, &payload)
            }
            Query::List => {
                let arbiters = arbiter_entries()
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
                let reductions = reduction_entries()
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
            }
        }
    }
}

fn unknown_artifact(id: &str, what: &str, key: &str) -> String {
    error_line(
        Some(id),
        "unknown_artifact",
        &format!("no registered {what} with key {key:?} (see the \"list\" query)"),
        &[],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lph_analysis::validate_serve_response;

    fn engine() -> Engine {
        Engine::new(EngineConfig::default())
    }

    fn check(line: &str) -> Json {
        let v = Json::parse(line).expect("response parses");
        validate_serve_response(&v).expect("response validates");
        v
    }

    #[test]
    fn membership_verdicts_match_the_deciders() {
        let e = engine();
        let yes = check(&e.process_line(
            r#"{"id":"y","kind":"membership","arbiter":"eulerian_decider","graph":{"family":"cycle","n":6}}"#,
        ));
        assert_eq!(yes.get("eve_wins"), Some(&Json::Bool(true)));
        // complete(4) has odd-degree nodes: not Eulerian.
        let no = check(&e.process_line(
            r#"{"id":"n","kind":"membership","arbiter":"eulerian_decider","graph":{"family":"complete","n":4}}"#,
        ));
        assert_eq!(no.get("eve_wins"), Some(&Json::Bool(false)));
    }

    #[test]
    fn level_mismatch_is_unsupported_level() {
        let e = engine();
        let v = check(&e.process_line(
            r#"{"id":"a","kind":"membership","arbiter":"eulerian_decider","graph":{"family":"cycle","n":4},"level":3}"#,
        ));
        let code = v.get("error").and_then(|x| x.get("code")).unwrap();
        assert_eq!(code, &Json::Str("unsupported_level".to_owned()));
    }

    #[test]
    fn lint_of_a_clean_probe_is_clean_and_a_bad_probe_is_not() {
        let e = engine();
        let clean = check(&e.process_line(
            r#"{"id":"a","kind":"lint","target":"reduction:all_selected_to_eulerian","graph":{"family":"cycle","n":4},"deep":true}"#,
        ));
        assert_eq!(clean.get("failures"), Some(&Json::Num(0.0)));
        // An unselected node makes the metered-rounds probe fine but the
        // deep domain check still passes; use an arbiter whose claim a
        // probe can't break instead — the registry is lint-clean, so
        // lint over any valid probe stays structural.
        let arb = check(&e.process_line(
            r#"{"id":"b","kind":"lint","target":"arbiter:two_colorable_verifier","graph":{"family":"cycle","n":4}}"#,
        ));
        assert_eq!(arb.get("failures"), Some(&Json::Num(0.0)));
    }

    #[test]
    fn deep_reduction_lint_reports_each_finding_once() {
        // path(1) has an isolated node, outside the gadget domain: the
        // flow tier's RED003 fires, alongside the contract tier's RED001.
        let v = check(&engine().process_line(
            r#"{"id":"a","kind":"lint","target":"reduction:all_selected_to_eulerian","graph":{"family":"path","n":1},"deep":true}"#,
        ));
        let diags = v.get("diagnostics").and_then(Json::as_arr).unwrap();
        assert_eq!(v.get("failures"), Some(&Json::Num(diags.len() as f64)));
        let code = |d: &Json| d.get("code").and_then(Json::as_str).unwrap().to_owned();
        assert_eq!(diags.iter().filter(|d| code(d) == "RED003").count(), 1);
        for d in diags {
            let copies = diags.iter().filter(|other| *other == d).count();
            assert_eq!(copies, 1, "{} reported {copies} times", code(d));
        }
    }

    #[test]
    fn reduction_output_round_trips_and_errors_are_structured() {
        let e = engine();
        let v = check(&e.process_line(
            r#"{"id":"a","kind":"reduction","reduction":"all_selected_to_eulerian","graph":{"family":"cycle","n":3}}"#,
        ));
        let out = v.get("output").unwrap();
        crate::proto::parse_graph(out).expect("output graph is well-formed");
        // path(1) has an isolated node: outside the gadget domain.
        let err = check(&e.process_line(
            r#"{"id":"b","kind":"reduction","reduction":"all_selected_to_hamiltonian","graph":{"family":"path","n":1}}"#,
        ));
        let code = err.get("error").and_then(|x| x.get("code")).unwrap();
        assert_eq!(code, &Json::Str("bad_graph".to_owned()));
    }

    #[test]
    fn list_enumerates_the_registry() {
        let v = check(&engine().process_line(r#"{"id":"a","kind":"list"}"#));
        assert_eq!(
            v.get("arbiters").and_then(Json::as_arr).unwrap().len(),
            arbiter_entries().len()
        );
        assert_eq!(
            v.get("reductions").and_then(Json::as_arr).unwrap().len(),
            reduction_entries().len()
        );
    }

    #[test]
    fn compiled_exec_agrees_with_interpreted_and_is_priced_from_bytecode() {
        let e = engine();
        // The verdict is exec-tier-invariant (the differential suite
        // pins the VM to the interpreter); only the pricing differs.
        for exec in ["interpreted", "compiled"] {
            let v = check(&e.process_line(&format!(
                r#"{{"id":"x","kind":"membership","arbiter":"eulerian_decider","graph":{{"family":"cycle","n":6}},"exec":"{exec}"}}"#
            )));
            assert_eq!(v.get("eve_wins"), Some(&Json::Bool(true)), "{exec}");
        }
        // Pinning the compiled tier prices from the bytecode-derived
        // bound: over budget, the detail quotes it.
        let tight = Engine::new(EngineConfig {
            admission: crate::admission::Admission {
                max_cost: 10,
                max_nodes: 512,
            },
            ..EngineConfig::default()
        });
        let v = check(&tight.process_line(
            r#"{"id":"s","kind":"membership","arbiter":"eulerian_decider","graph":{"family":"cycle","n":6},"exec":"compiled"}"#,
        ));
        let err = v.get("error").unwrap();
        assert_eq!(err.get("code"), Some(&Json::Str("over_budget".to_owned())));
        let detail = err.get("detail").and_then(Json::as_str).unwrap();
        assert!(detail.contains("bytecode-certified"), "{detail}");
        assert!(err.get("bound").is_some());
    }

    #[test]
    fn bad_exec_value_is_a_parse_error() {
        let v = check(&engine().process_line(
            r#"{"id":"a","kind":"membership","arbiter":"eulerian_decider","graph":{"family":"cycle","n":4},"exec":"jit"}"#,
        ));
        let code = v.get("error").and_then(|x| x.get("code")).unwrap();
        assert_eq!(code, &Json::Str("parse_error".to_owned()));
    }

    #[test]
    fn cache_cap_bounds_cached_classes() {
        let e = Engine::new(EngineConfig {
            cache_cap: Some(2),
            ..EngineConfig::default()
        });
        for n in 3..8 {
            e.process_line(&format!(
                r#"{{"id":"q","kind":"membership","arbiter":"all_selected_decider","graph":{{"family":"cycle","n":{n}}}}}"#
            ));
        }
        assert_eq!(e.cached_classes(), 2);
        // The most recent class is still a hit: byte-identical replay.
        let a = e.process_line(
            r#"{"id":"h1","kind":"membership","arbiter":"all_selected_decider","graph":{"family":"cycle","n":7}}"#,
        );
        let b = e.process_line(
            r#"{"id":"h1","kind":"membership","arbiter":"all_selected_decider","graph":{"family":"cycle","n":7}}"#,
        );
        assert_eq!(a, b);
        assert_eq!(e.cached_classes(), 2);
    }

    #[test]
    fn batch_responses_line_up_with_requests() {
        let e = engine();
        let lines: Vec<String> = (3..9)
            .map(|n| {
                format!(
                    r#"{{"id":"q{n}","kind":"membership","arbiter":"all_selected_decider","graph":{{"family":"cycle","n":{n}}}}}"#
                )
            })
            .collect();
        let out = e.process_batch(&lines);
        assert_eq!(out.len(), lines.len());
        for (i, line) in out.iter().enumerate() {
            let v = check(line);
            assert_eq!(v.get("id"), Some(&Json::Str(format!("q{}", i + 3))));
        }
    }
}
