//! Admission control: load shedding priced by the flow tier's certified
//! step polynomials.
//!
//! The analyzer's machine-flow tier proves, per TM-backed arbiter, a
//! Lemma 10 bound `steps(n)` on one arbiter execution round at instance
//! size `n` — a *certificate*, not a measurement. Admission turns that
//! certificate into policy: a membership request is priced at
//!
//! ```text
//! cost(n) = n · rounds · steps(n)
//! ```
//!
//! (`n` nodes each metered for `rounds` rounds of at most `steps(n)` head
//! steps), and a request whose price exceeds the configured budget is
//! rejected up front with a structured `over_budget` error carrying the
//! price, the budget, and the polynomial that produced it — before any
//! game search runs.
//!
//! What is certified versus modeled is spelled out in `DESIGN.md`: the
//! polynomial is machine-checked; the multiplication by `n · rounds` and
//! the use of node count as the size parameter are (conservative)
//! modeling choices; Local-algorithm arbiters have no certificate at all
//! and are admitted subject only to the node cap, with the
//! `serve/admitted_uncertified` counter recording how much traffic runs
//! on trust.
//!
//! Requests that pin the compiled execution tier (`"exec":"compiled"`)
//! are priced one level deeper, through the same path: the polynomial
//! comes from [`lph_analysis::analyze_bytecode`] — re-derived from the
//! `CompiledTm` bytecode that will actually run, not from the source
//! table. Every registered artifact passed the translation validators
//! (`VM001`–`VM004`) when the registry was built, so admission never
//! sees unverified bytecode.

use lph_analysis::json::Json;
use lph_graphs::PolyBound;
use lph_machine::TmBackend;

use crate::registry::ArbiterEntry;

/// Admission-control configuration.
#[derive(Debug, Clone)]
pub struct Admission {
    /// Budget on the certified price of one membership request.
    pub max_cost: u64,
    /// Hard cap on instance node count, certified or not.
    pub max_nodes: usize,
}

/// Defaults: generous enough for every transcript and test instance in
/// the repo, tight enough that the certified price binds *before* the
/// node cap for the TM-backed deciders (their `cn² + dn` price crosses
/// one million near n ≈ 190, under the 512-node cap) — so the default
/// configuration actually exercises certificate-priced shedding.
impl Default for Admission {
    fn default() -> Self {
        Admission {
            max_cost: 1_000_000,
            max_nodes: 512,
        }
    }
}

/// A refused request: the structured payload of an `over_budget`
/// response.
#[derive(Debug)]
pub struct Rejection {
    /// The wire error code (always `"over_budget"`).
    pub code: &'static str,
    /// Human-readable reason.
    pub detail: String,
    /// The derived price (or the node count, for node-cap rejections).
    pub cost: u64,
    /// The budget the price exceeded.
    pub budget: u64,
    /// The certified polynomial behind the price, displayed, when one
    /// was used.
    pub bound: Option<String>,
}

impl Rejection {
    /// The extra fields spliced into the `"error"` object.
    pub fn extra_fields(&self) -> Vec<(String, Json)> {
        let mut extra = vec![
            ("cost".to_owned(), Json::Num(self.cost as f64)),
            ("budget".to_owned(), Json::Num(self.budget as f64)),
        ];
        if let Some(b) = &self.bound {
            extra.push(("bound".to_owned(), Json::Str(b.clone())));
        }
        extra
    }

    fn over_budget(detail: String, cost: u64, budget: u64, bound: Option<String>) -> Self {
        Rejection {
            code: "over_budget",
            detail,
            cost,
            budget,
            bound,
        }
    }
}

/// The certified price of one membership request at instance size `n`.
pub fn certified_cost(steps: &PolyBound, rounds: usize, n: usize) -> u64 {
    (n as u64)
        .saturating_mul(rounds as u64)
        .saturating_mul(steps.eval(n) as u64)
}

impl Admission {
    /// Prices a membership request and decides admission.
    ///
    /// Requests pinning [`TmBackend::Compiled`] are priced from the
    /// bytecode-certified bound; `Auto` and `Interpreted` requests from
    /// the interpreter-tier bound (`VM004` pins the two bounds to agree).
    ///
    /// # Errors
    ///
    /// A [`Rejection`] when the node cap or the certified budget is
    /// exceeded. On admission, returns whether the price was certified
    /// (TM-backed arbiter with a proved step bound) or the request ran on
    /// trust.
    pub fn admit_membership(
        &self,
        entry: &ArbiterEntry,
        n: usize,
        exec: TmBackend,
    ) -> Result<bool, Rejection> {
        self.admit_nodes(n)?;
        let (steps, tier) = if exec == TmBackend::Compiled {
            (&entry.bytecode_certified_steps, "bytecode-certified")
        } else {
            (&entry.certified_steps, "certified")
        };
        let Some(steps) = steps else {
            // Local arbiters have no machine and so no certificate; the
            // exec pin is inert and they are admitted on trust.
            lph_trace::add("serve/admitted_uncertified", 1);
            return Ok(false);
        };
        let cost = certified_cost(steps, entry.declared_rounds, n);
        if cost > self.max_cost {
            lph_trace::add("serve/rejected_over_budget", 1);
            return Err(Rejection::over_budget(
                format!(
                    "{tier} bound {steps} prices {} at n={n} nodes x {} rounds = {cost} steps, over budget {}",
                    entry.key, entry.declared_rounds, self.max_cost
                ),
                cost,
                self.max_cost,
                Some(steps.to_string()),
            ));
        }
        lph_trace::add("serve/admitted_certified", 1);
        Ok(true)
    }

    /// The node-cap check alone (used for lint and reduction requests,
    /// which carry no certified price).
    ///
    /// # Errors
    ///
    /// A [`Rejection`] when the instance exceeds the node cap.
    pub fn admit_nodes(&self, n: usize) -> Result<(), Rejection> {
        if n > self.max_nodes {
            lph_trace::add("serve/rejected_over_budget", 1);
            return Err(Rejection::over_budget(
                format!(
                    "instance has {n} nodes, over the node cap {}",
                    self.max_nodes
                ),
                n as u64,
                self.max_nodes as u64,
                None,
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::find_arbiter;

    #[test]
    fn budget_boundary_is_exact() {
        let entry = find_arbiter("eulerian_decider").unwrap();
        let steps = entry.certified_steps.clone().unwrap();
        let n = 10;
        let cost = certified_cost(&steps, entry.declared_rounds, n);
        let at = Admission {
            max_cost: cost,
            max_nodes: 512,
        };
        assert!(at.admit_membership(entry, n, TmBackend::Auto).unwrap());
        let below = Admission {
            max_cost: cost - 1,
            max_nodes: 512,
        };
        let rej = below
            .admit_membership(entry, n, TmBackend::Auto)
            .unwrap_err();
        assert_eq!(rej.code, "over_budget");
        assert_eq!(rej.cost, cost);
        assert_eq!(rej.budget, cost - 1);
        assert!(rej.bound.is_some());
    }

    #[test]
    fn uncertified_arbiters_pass_on_trust_under_the_node_cap() {
        let entry = find_arbiter("two_colorable_verifier").unwrap();
        let adm = Admission {
            max_cost: 1, // would shed any certified request
            max_nodes: 16,
        };
        assert!(!adm.admit_membership(entry, 5, TmBackend::Auto).unwrap());
        let rej = adm
            .admit_membership(entry, 17, TmBackend::Auto)
            .unwrap_err();
        assert_eq!((rej.cost, rej.budget), (17, 16));
        assert!(rej.bound.is_none());
    }

    #[test]
    fn compiled_exec_is_priced_from_the_bytecode_bound() {
        let entry = find_arbiter("eulerian_decider").unwrap();
        let steps = entry.bytecode_certified_steps.clone().unwrap();
        let n = 10;
        let cost = certified_cost(&steps, entry.declared_rounds, n);
        let below = Admission {
            max_cost: cost - 1,
            max_nodes: 512,
        };
        let rej = below
            .admit_membership(entry, n, TmBackend::Compiled)
            .unwrap_err();
        assert_eq!(rej.code, "over_budget");
        assert_eq!(rej.cost, cost);
        assert!(rej.detail.contains("bytecode-certified"), "{}", rej.detail);
        let at = Admission {
            max_cost: cost,
            max_nodes: 512,
        };
        assert!(at.admit_membership(entry, n, TmBackend::Compiled).unwrap());
    }
}
