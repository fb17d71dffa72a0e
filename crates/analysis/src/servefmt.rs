//! Structural validation of `lph-serve/1` wire documents — the
//! newline-delimited JSON protocol of the `lph-serve` query service — on
//! the workspace's own [`Json`] type.
//!
//! Like [`crate::tracefmt`], this module is the schema authority: the
//! serve crate emits and parses lines, and this validator re-checks the
//! shapes from first principles so tooling (tests, `bench-gate`-style
//! validators, transcript replays) can reject drift without depending on
//! the serve crate. One JSON object per line; request shapes:
//!
//! ```json
//! {"id":"r1","kind":"membership","arbiter":"eulerian_decider",
//!  "graph":{"family":"cycle","n":6},"level":0,"backend":"auto",
//!  "exec":"compiled"}
//! {"id":"r2","kind":"lint","target":"arbiter:two_colorable_verifier",
//!  "graph":{"labels":["1","1","1"],"edges":[[0,1],[1,2],[2,0]]}}
//! {"id":"r3","kind":"reduction","reduction":"all_selected_to_eulerian",
//!  "graph":{"family":"cycle","n":3}}
//! {"id":"r4","kind":"list"}
//! ```
//!
//! Response lines echo the request `id` (or `null` when the request line
//! was unparseable) and are either `"ok":true` with kind-specific payload
//! fields or `"ok":false` with an `"error"` object whose `"code"` is one
//! of [`SERVE_ERROR_CODES`]. `PROTOCOL.md` is the human-readable spec;
//! its transcripts are replayed against a live server by the `serve` CI
//! stage.

use crate::json::Json;

/// The wire-protocol schema name/version.
pub const SERVE_SCHEMA: &str = "lph-serve/1";

/// The request kinds of the protocol.
pub const SERVE_KINDS: [&str; 4] = ["membership", "lint", "reduction", "list"];

/// Every structured error code a response may carry.
pub const SERVE_ERROR_CODES: [&str; 6] = [
    "parse_error",
    "unknown_artifact",
    "bad_graph",
    "unsupported_level",
    "over_budget",
    "engine_error",
];

fn as_obj<'a>(v: &'a Json, what: &str) -> Result<&'a [(String, Json)], String> {
    match v {
        Json::Obj(pairs) => Ok(pairs),
        _ => Err(format!("{what} must be a JSON object")),
    }
}

fn str_field<'a>(v: &'a Json, key: &str, what: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or(format!("{what} needs a string field {key:?}"))
}

fn uint_field(v: &Json, key: &str, what: &str) -> Result<u64, String> {
    match v.get(key) {
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
        _ => Err(format!("{what} needs a nonnegative integer field {key:?}")),
    }
}

/// Validates a `"graph"` value: either an explicit graph
/// (`{"labels":[..],"edges":[[u,v],..]}`, labels as `0`/`1` strings) or a
/// generator family (`{"family":"cycle","n":6}`).
pub fn validate_serve_graph(v: &Json) -> Result<(), String> {
    as_obj(v, "graph")?;
    if v.get("family").is_some() {
        let fam = str_field(v, "family", "family graph")?;
        if !["cycle", "path", "complete", "star", "one_unselected_cycle"].contains(&fam) {
            return Err(format!("unknown graph family {fam:?}"));
        }
        uint_field(v, "n", "family graph")?;
        return Ok(());
    }
    let labels = v
        .get("labels")
        .and_then(Json::as_arr)
        .ok_or("explicit graph needs a \"labels\" array")?;
    for l in labels {
        let s = l.as_str().ok_or("labels must be strings")?;
        if !s.chars().all(|c| c == '0' || c == '1') {
            return Err(format!("label {s:?} is not a 0/1 bit string"));
        }
    }
    let edges = v
        .get("edges")
        .and_then(Json::as_arr)
        .ok_or("explicit graph needs an \"edges\" array")?;
    for e in edges {
        let pair = e.as_arr().ok_or("edges must be [u,v] pairs")?;
        if pair.len() != 2 {
            return Err("edges must be [u,v] pairs".into());
        }
        for end in pair {
            match end {
                Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => {}
                _ => return Err("edge endpoints must be nonnegative integers".into()),
            }
        }
    }
    Ok(())
}

/// Validates one request line against the `lph-serve/1` schema.
///
/// # Errors
///
/// Returns a description of the first structural mismatch.
pub fn validate_serve_request(v: &Json) -> Result<(), String> {
    as_obj(v, "request")?;
    str_field(v, "id", "request")?;
    let kind = str_field(v, "kind", "request")?;
    if !SERVE_KINDS.contains(&kind) {
        return Err(format!("unknown request kind {kind:?}"));
    }
    match kind {
        "membership" => {
            str_field(v, "arbiter", "membership request")?;
            validate_serve_graph(v.get("graph").ok_or("membership request needs a graph")?)?;
            if v.get("level").is_some() {
                uint_field(v, "level", "membership request")?;
            }
            if let Some(b) = v.get("backend") {
                let b = b.as_str().ok_or("backend must be a string")?;
                if !["auto", "cdcl", "exhaustive"].contains(&b) {
                    return Err(format!("unknown backend {b:?}"));
                }
            }
            if let Some(e) = v.get("exec") {
                let e = e.as_str().ok_or("exec must be a string")?;
                if !["auto", "interpreted", "compiled"].contains(&e) {
                    return Err(format!("unknown exec backend {e:?}"));
                }
            }
        }
        "lint" => {
            let target = str_field(v, "target", "lint request")?;
            if !target.starts_with("arbiter:") && !target.starts_with("reduction:") {
                return Err(format!(
                    "lint target {target:?} must be \"arbiter:NAME\" or \"reduction:NAME\""
                ));
            }
            validate_serve_graph(v.get("graph").ok_or("lint request needs a graph")?)?;
            if let Some(d) = v.get("deep") {
                if !matches!(d, Json::Bool(_)) {
                    return Err("lint \"deep\" must be a boolean".into());
                }
            }
        }
        "reduction" => {
            str_field(v, "reduction", "reduction request")?;
            validate_serve_graph(v.get("graph").ok_or("reduction request needs a graph")?)?;
        }
        _ => {} // "list" carries no payload.
    }
    Ok(())
}

/// Validates one response line against the `lph-serve/1` schema.
///
/// # Errors
///
/// Returns a description of the first structural mismatch.
pub fn validate_serve_response(v: &Json) -> Result<(), String> {
    as_obj(v, "response")?;
    match v.get("id") {
        Some(Json::Str(_) | Json::Null) => {}
        _ => return Err("response needs an \"id\" that is a string or null".into()),
    }
    match v.get("ok") {
        Some(Json::Bool(true)) => {
            let kind = str_field(v, "kind", "ok response")?;
            if !SERVE_KINDS.contains(&kind) {
                return Err(format!("unknown response kind {kind:?}"));
            }
            match kind {
                "membership" => {
                    if !matches!(v.get("eve_wins"), Some(Json::Bool(_))) {
                        return Err("membership response needs boolean \"eve_wins\"".into());
                    }
                    uint_field(v, "nodes", "membership response")?;
                    let refutation = str_field(v, "refutation", "membership response")?;
                    if !["none", "checked", "unchecked"].contains(&refutation) {
                        return Err(format!("unknown refutation tag {refutation:?}"));
                    }
                }
                "lint" => {
                    uint_field(v, "failures", "lint response")?;
                    v.get("diagnostics")
                        .and_then(Json::as_arr)
                        .ok_or("lint response needs a \"diagnostics\" array")?;
                }
                "reduction" => {
                    uint_field(v, "nodes", "reduction response")?;
                    uint_field(v, "edges", "reduction response")?;
                    validate_serve_graph(
                        v.get("output").ok_or("reduction response needs output")?,
                    )?;
                }
                _ => {
                    v.get("arbiters")
                        .and_then(Json::as_arr)
                        .ok_or("list response needs an \"arbiters\" array")?;
                    v.get("reductions")
                        .and_then(Json::as_arr)
                        .ok_or("list response needs a \"reductions\" array")?;
                }
            }
        }
        Some(Json::Bool(false)) => {
            let err = v
                .get("error")
                .ok_or("error response needs an error object")?;
            as_obj(err, "error")?;
            let code = str_field(err, "code", "error")?;
            if !SERVE_ERROR_CODES.contains(&code) {
                return Err(format!("unknown error code {code:?}"));
            }
            str_field(err, "detail", "error")?;
            if code == "over_budget" {
                // The structured rejection: the certified cost and the
                // configured budget must both be machine-readable.
                uint_field(err, "cost", "over_budget error")?;
                uint_field(err, "budget", "over_budget error")?;
            }
        }
        _ => return Err("response needs a boolean \"ok\"".into()),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Json {
        Json::parse(text).expect("test document parses")
    }

    #[test]
    fn accepts_canonical_requests() {
        for line in [
            r#"{"id":"a","kind":"membership","arbiter":"eulerian_decider","graph":{"family":"cycle","n":6}}"#,
            r#"{"id":"b","kind":"membership","arbiter":"x","graph":{"labels":["1","1"],"edges":[[0,1]]},"level":1,"backend":"cdcl"}"#,
            r#"{"id":"b2","kind":"membership","arbiter":"x","graph":{"family":"cycle","n":4},"exec":"compiled"}"#,
            r#"{"id":"c","kind":"lint","target":"arbiter:two_colorable_verifier","graph":{"family":"path","n":3},"deep":true}"#,
            r#"{"id":"d","kind":"reduction","reduction":"all_selected_to_eulerian","graph":{"family":"cycle","n":3}}"#,
            r#"{"id":"e","kind":"list"}"#,
        ] {
            validate_serve_request(&parse(line)).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_requests() {
        for (line, needle) in [
            (r#"{"kind":"list"}"#, "id"),
            (r#"{"id":"a","kind":"frobnicate"}"#, "kind"),
            (
                r#"{"id":"a","kind":"membership","graph":{"family":"cycle","n":3}}"#,
                "arbiter",
            ),
            (
                r#"{"id":"a","kind":"membership","arbiter":"x","graph":{"family":"moebius","n":3}}"#,
                "family",
            ),
            (
                r#"{"id":"a","kind":"membership","arbiter":"x","graph":{"labels":["2"],"edges":[]}}"#,
                "bit string",
            ),
            (
                r#"{"id":"a","kind":"lint","target":"x","graph":{"family":"cycle","n":3}}"#,
                "target",
            ),
            (
                r#"{"id":"a","kind":"membership","arbiter":"x","graph":{"labels":["1","1"],"edges":[[0]]}}"#,
                "pairs",
            ),
            (
                r#"{"id":"a","kind":"membership","arbiter":"x","graph":{"family":"cycle","n":3},"exec":"jit"}"#,
                "exec",
            ),
        ] {
            let err = validate_serve_request(&parse(line)).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn accepts_canonical_responses() {
        for line in [
            r#"{"id":"a","ok":true,"kind":"membership","arbiter":"x","nodes":6,"level":0,"eve_wins":true,"witness":false,"refutation":"none"}"#,
            r#"{"id":"b","ok":true,"kind":"lint","target":"arbiter:x","failures":0,"diagnostics":[]}"#,
            r#"{"id":"c","ok":true,"kind":"reduction","reduction":"x","nodes":2,"edges":1,"output":{"labels":["1","1"],"edges":[[0,1]]}}"#,
            r#"{"id":"d","ok":true,"kind":"list","arbiters":[],"reductions":[]}"#,
            r#"{"id":null,"ok":false,"error":{"code":"parse_error","detail":"bad json"}}"#,
            r#"{"id":"e","ok":false,"error":{"code":"over_budget","detail":"x","cost":900,"budget":100}}"#,
        ] {
            validate_serve_response(&parse(line)).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_responses() {
        for (line, needle) in [
            (r#"{"id":"a","ok":true,"kind":"nope"}"#, "kind"),
            (
                r#"{"id":"a","ok":false,"error":{"code":"oops","detail":"d"}}"#,
                "code",
            ),
            (
                // over_budget without the structured cost/budget fields.
                r#"{"id":"a","ok":false,"error":{"code":"over_budget","detail":"d"}}"#,
                "cost",
            ),
            (
                r#"{"id":7,"ok":true,"kind":"list","arbiters":[],"reductions":[]}"#,
                "id",
            ),
            (
                r#"{"id":"a","ok":true,"kind":"membership","nodes":3,"refutation":"maybe","eve_wins":true}"#,
                "refutation",
            ),
        ] {
            let err = validate_serve_response(&parse(line)).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }
}
