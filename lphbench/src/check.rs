//! The correctness oracle: every response line is validated against the
//! `lph-serve/1` schema and against the answer its request was built with.

use lph_analysis::json::Json;
use lph_analysis::{validate_serve_response, Diagnostic};

use crate::gen::Expect;

fn num(v: &Json, key: &str) -> Option<usize> {
    match v.get(key) {
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as usize),
        _ => None,
    }
}

/// Checks one response line for request `id`.
///
/// # Errors
///
/// Describes the first way the line is malformed, invalid, or wrong.
pub fn check_response(line: &str, id: &str, expect: &Expect) -> Result<(), String> {
    let v = Json::parse(line).map_err(|e| format!("malformed response line: {e}"))?;
    validate_serve_response(&v).map_err(|e| format!("invalid response: {e}"))?;
    if v.get("id").and_then(Json::as_str) != Some(id) {
        return Err(format!("response id does not match request {id}"));
    }
    let ok = matches!(v.get("ok"), Some(Json::Bool(true)));
    let code = v
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str);
    let right = match expect {
        Expect::Shed => code == Some("over_budget"),
        _ if !ok => false,
        Expect::Verdict(b) => v.get("eve_wins") == Some(&Json::Bool(*b)),
        Expect::List {
            arbiters,
            reductions,
        } => {
            let len = |k: &str| v.get(k).and_then(Json::as_arr).map(<[Json]>::len);
            len("arbiters") == Some(*arbiters) && len("reductions") == Some(*reductions)
        }
        Expect::LintClean => num(&v, "failures") == Some(0),
        Expect::Reduction { nodes, edges } => {
            num(&v, "nodes") == Some(*nodes) && num(&v, "edges") == Some(*edges)
        }
    };
    if right {
        Ok(())
    } else {
        let shown: String = line.chars().take(240).collect();
        Err(format!(
            "wrong answer to {id}: expected {expect:?}, got {shown}"
        ))
    }
}

/// Checks one lint walk: no failure-severity diagnostics, and the same
/// diagnostics as the reference walk.
///
/// # Errors
///
/// Names the first failing diagnostic or the divergence.
pub fn check_walk(diags: &[Diagnostic], reference: &[Diagnostic]) -> Result<(), String> {
    if let Some(d) = diags.iter().find(|d| d.severity.is_failure()) {
        return Err(format!(
            "walk reports {} {} on {}: {}",
            d.severity.as_str(),
            d.code,
            d.artifact,
            d.message
        ));
    }
    if diags != reference {
        return Err(format!(
            "walk diagnostics differ from the first walk ({} vs {})",
            diags.len(),
            reference.len()
        ));
    }
    Ok(())
}
