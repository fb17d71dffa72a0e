//! Protocol edge cases from the `lph-serve/1` spec, driven through the
//! public engine/server API exactly as a client on the wire would. Tests
//! that read the global `serve/` and `pool/` trace counters live in
//! `counters.rs`, a binary of their own, so nothing here can run engine
//! work while they record.

use lph_analysis::json::Json;
use lph_analysis::validate_serve_response;
use lph_serve::admission::certified_cost;
use lph_serve::{registry, serve_connection, Admission, Engine, EngineConfig, ServerConfig};

fn default_engine() -> Engine {
    Engine::new(EngineConfig::default())
}

fn roundtrip(engine: &Engine, input: &str) -> Vec<String> {
    let mut out = Vec::new();
    serve_connection(engine, &ServerConfig::default(), input.as_bytes(), &mut out)
        .expect("in-memory transport");
    String::from_utf8(out)
        .expect("responses are UTF-8")
        .lines()
        .map(str::to_owned)
        .collect()
}

fn parse_checked(line: &str) -> Json {
    let v = Json::parse(line).expect("response line parses");
    validate_serve_response(&v).expect("response validates against lph-serve/1");
    v
}

#[test]
fn every_response_kind_validates_against_the_schema() {
    let engine = default_engine();
    let input = concat!(
        r#"{"id":"m","kind":"membership","arbiter":"two_colorable_verifier","graph":{"family":"cycle","n":4}}"#,
        "\n",
        r#"{"id":"l","kind":"lint","target":"reduction:all_selected_to_eulerian","graph":{"family":"cycle","n":3},"deep":true}"#,
        "\n",
        r#"{"id":"r","kind":"reduction","reduction":"all_selected_to_eulerian","graph":{"family":"cycle","n":3}}"#,
        "\n",
        r#"{"id":"ls","kind":"list"}"#,
        "\n",
        r#"{"id":"e1","kind":"membership","arbiter":"missing","graph":{"family":"cycle","n":3}}"#,
        "\n",
        r#"{"id":"e2","kind":"membership","arbiter":"eulerian_decider","graph":{"family":"cycle","n":3},"level":2}"#,
        "\n",
        "this is not json\n",
    );
    let out = roundtrip(&engine, input);
    assert_eq!(out.len(), 7);
    for line in &out {
        parse_checked(line);
    }
    let codes: Vec<_> = out
        .iter()
        .map(|l| {
            parse_checked(l)
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str)
                .map(str::to_owned)
        })
        .collect();
    assert_eq!(
        codes,
        vec![
            None,
            None,
            None,
            None,
            Some("unknown_artifact".to_owned()),
            Some("unsupported_level".to_owned()),
            Some("parse_error".to_owned()),
        ]
    );
}

#[test]
fn interleaved_batch_responses_map_back_to_request_ids() {
    // A pipelined burst large enough to actually fan out over the pool,
    // with per-request distinguishable answers: each id names the cycle
    // length whose node count the response must echo.
    let engine = default_engine();
    let input: String = (3..35)
        .map(|n| {
            format!(
                "{{\"id\":\"c{n}\",\"kind\":\"membership\",\"arbiter\":\"all_selected_decider\",\"graph\":{{\"family\":\"cycle\",\"n\":{n}}}}}\n"
            )
        })
        .collect();
    let out = roundtrip(&engine, &input);
    assert_eq!(out.len(), 32);
    for (i, line) in out.iter().enumerate() {
        let v = parse_checked(line);
        let n = i + 3;
        assert_eq!(
            v.get("id").and_then(Json::as_str),
            Some(format!("c{n}").as_str()),
            "response {i} answers request {i}"
        );
        assert_eq!(
            v.get("nodes"),
            Some(&Json::Num(n as f64)),
            "payload belongs to the id's instance"
        );
    }
}

#[test]
fn over_budget_fires_exactly_where_the_certified_polynomial_says() {
    let entry = registry::find_arbiter("eulerian_decider").expect("registered");
    let steps = entry.certified_steps.clone().expect("TM-backed, certified");
    // Find the first cycle size the budget cannot cover.
    let budget = certified_cost(&steps, entry.declared_rounds, 12);
    let first_over = (3..64)
        .find(|&n| certified_cost(&steps, entry.declared_rounds, n) > budget)
        .expect("polynomial grows");
    let engine = Engine::new(EngineConfig {
        admission: Admission {
            max_cost: budget,
            max_nodes: 512,
        },
        ..EngineConfig::default()
    });
    // Largest admissible size: answered.
    let ok = engine.process_line(&format!(
        "{{\"id\":\"in\",\"kind\":\"membership\",\"arbiter\":\"eulerian_decider\",\"graph\":{{\"family\":\"cycle\",\"n\":{}}}}}",
        first_over - 1
    ));
    let v = parse_checked(&ok);
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{ok}");
    // One node more: shed, with the price and budget on the wire.
    let rejected = engine.process_line(&format!(
        "{{\"id\":\"out\",\"kind\":\"membership\",\"arbiter\":\"eulerian_decider\",\"graph\":{{\"family\":\"cycle\",\"n\":{first_over}}}}}"
    ));
    let v = parse_checked(&rejected);
    let err = v.get("error").expect("error object");
    assert_eq!(err.get("code").and_then(Json::as_str), Some("over_budget"));
    let expected_cost = certified_cost(&steps, entry.declared_rounds, first_over);
    assert_eq!(err.get("cost"), Some(&Json::Num(expected_cost as f64)));
    assert_eq!(err.get("budget"), Some(&Json::Num(budget as f64)));
    assert_eq!(
        err.get("bound").and_then(Json::as_str),
        Some(steps.to_string().as_str()),
        "the certified polynomial itself is quoted"
    );
}

#[test]
fn cache_hits_are_byte_identical_across_isomorphic_instances() {
    let engine = default_engine();
    // Two isomorphic presentations of the same labeled cycle (rotated),
    // plus the original again.
    let cold = engine.process_line(
        r#"{"id":"q","kind":"membership","arbiter":"two_colorable_verifier","graph":{"labels":["1","1","1","1"],"edges":[[0,1],[1,2],[2,3],[3,0]]}}"#,
    );
    assert_eq!(engine.cached_classes(), 1);
    let repeat = engine.process_line(
        r#"{"id":"q","kind":"membership","arbiter":"two_colorable_verifier","graph":{"labels":["1","1","1","1"],"edges":[[0,1],[1,2],[2,3],[3,0]]}}"#,
    );
    assert_eq!(cold, repeat, "same request replays the same bytes");
    // Isomorphic but differently wired: edge list permuted and renamed.
    let iso = engine.process_line(
        r#"{"id":"q","kind":"membership","arbiter":"two_colorable_verifier","graph":{"labels":["1","1","1","1"],"edges":[[2,0],[0,3],[3,1],[1,2]]}}"#,
    );
    assert_eq!(cold, iso, "iso-class hit replays the same bytes");
    assert_eq!(engine.cached_classes(), 1, "no second representative");
    // A different backend is a different verdict space: no aliasing.
    let exhaustive = engine.process_line(
        r#"{"id":"q","kind":"membership","arbiter":"two_colorable_verifier","graph":{"labels":["1","1","1","1"],"edges":[[0,1],[1,2],[2,3],[3,0]]},"backend":"exhaustive"}"#,
    );
    assert_eq!(engine.cached_classes(), 2);
    let v = parse_checked(&exhaustive);
    assert_eq!(v.get("eve_wins"), Some(&Json::Bool(true)));
}

#[test]
fn cache_off_recomputes_but_answers_identically() {
    let cached = default_engine();
    let uncached = Engine::new(EngineConfig {
        cache: false,
        ..EngineConfig::default()
    });
    let req = r#"{"id":"q","kind":"membership","arbiter":"two_colorable_verifier","graph":{"family":"cycle","n":5}}"#;
    let a = cached.process_line(req);
    let b = uncached.process_line(req);
    let c = uncached.process_line(req);
    assert_eq!(a, b);
    assert_eq!(b, c);
    assert_eq!(uncached.cached_classes(), 0);
    // Odd cycle: not 2-colorable, and the CDCL refutation is checked.
    let v = parse_checked(&a);
    assert_eq!(v.get("eve_wins"), Some(&Json::Bool(false)));
    assert_eq!(
        v.get("refutation").and_then(Json::as_str),
        Some("checked"),
        "{a}"
    );
}

#[test]
fn node_cap_rejects_even_uncertified_traffic() {
    let engine = Engine::new(EngineConfig {
        admission: Admission {
            max_cost: u64::MAX,
            max_nodes: 10,
        },
        ..EngineConfig::default()
    });
    let line = engine.process_line(
        r#"{"id":"big","kind":"membership","arbiter":"three_colorable_verifier","graph":{"family":"cycle","n":11}}"#,
    );
    let v = parse_checked(&line);
    let err = v.get("error").expect("error object");
    assert_eq!(err.get("code").and_then(Json::as_str), Some("over_budget"));
    assert_eq!(err.get("cost"), Some(&Json::Num(11.0)));
    assert_eq!(err.get("budget"), Some(&Json::Num(10.0)));
    assert!(err.get("bound").is_none(), "no certificate was involved");
}
