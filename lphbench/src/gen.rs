//! Seeded request streams and the answers they must get.
//!
//! Every request is built together with the verdict (or error code, or
//! payload shape) that a correct server returns for it, from facts about
//! the generated instance alone: 3-coloring of a cycle always exists, a
//! cycle is 2-colorable exactly when its length is even, K₄ is not
//! 3-colorable, a graph is all-selected exactly when every label is `1`,
//! and every cycle is Eulerian. The server is never consulted to build an
//! expectation.
//!
//! Mixes are *stratified*: requests are drawn in blocks of 20 with a fixed
//! composition, shuffled within the block, and instance sizes are dealt
//! from shuffled decks. Two seeds therefore give different streams with
//! the same cost profile, which keeps run-to-run spread low.

use std::collections::HashSet;

use lph_graphs::generators::XorShift;

/// Number of iso-classes in the `serve_hot` working set.
pub const HOT_CLASSES: usize = 32;
/// Requests per pipelined flight on `serve_hot`.
pub const HOT_FLIGHT: usize = 16;
/// Requests per block; every block has the same composition.
pub const BLOCK: usize = 20;

/// What a correct response to a request looks like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// A membership verdict (`eve_wins`).
    Verdict(bool),
    /// A structured `over_budget` refusal.
    Shed,
    /// A `list` answer with this many arbiters and reductions.
    List {
        /// Registered arbiters.
        arbiters: usize,
        /// Registered reductions.
        reductions: usize,
    },
    /// A lint answer with zero diagnostics.
    LintClean,
    /// A reduction answer whose output graph has this size.
    Reduction {
        /// Output nodes.
        nodes: usize,
        /// Output edges.
        edges: usize,
    },
}

/// One request line with its expected answer and its mix category.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    /// The request id (also inside `line`).
    pub id: String,
    /// The wire line, without the trailing newline.
    pub line: String,
    /// The expected answer.
    pub expect: Expect,
    /// Mix category, for the share self-tests.
    pub kind: &'static str,
}

/// Registry sizes the `list` oracle checks against.
#[derive(Debug, Clone, Copy)]
pub struct Registry {
    /// Registered arbiters.
    pub arbiters: usize,
    /// Registered reductions.
    pub reductions: usize,
}

impl Registry {
    /// Reads the sizes from the serve registry.
    pub fn current() -> Self {
        Registry {
            arbiters: lph_serve::arbiter_entries().len(),
            reductions: lph_serve::reduction_entries().len(),
        }
    }
}

/// Deals items from a multiset in shuffled order, reshuffling when empty.
struct Deck<T: Clone> {
    items: Vec<T>,
    pending: Vec<T>,
}

impl<T: Clone> Deck<T> {
    fn new(items: Vec<T>) -> Self {
        Deck {
            items,
            pending: Vec::new(),
        }
    }

    fn draw(&mut self, rng: &mut XorShift) -> T {
        if self.pending.is_empty() {
            self.pending = self.items.clone();
            shuffle(&mut self.pending, rng);
        }
        self.pending.pop().expect("deck is nonempty")
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut XorShift) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

fn mix(seed: u64, salt: u64) -> u64 {
    // SplitMix64 finalizer: distinct, well-spread XorShift seeds.
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An instance before it is put on the wire.
#[derive(Debug, Clone)]
struct Inst {
    labels: Vec<String>,
    edges: Vec<(usize, usize)>,
}

fn cycle(labels: Vec<String>) -> Inst {
    let n = labels.len();
    Inst {
        labels,
        edges: (0..n).map(|i| (i, (i + 1) % n)).collect(),
    }
}

fn k4(labels: Vec<String>) -> Inst {
    Inst {
        labels,
        edges: vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    }
}

fn bits(rng: &mut XorShift, n: usize, zero_per_mille: usize) -> Vec<u8> {
    (0..n)
        .map(|_| u8::from(rng.below(1000) >= zero_per_mille))
        .collect()
}

fn label_strings(labels: &[u8]) -> Vec<String> {
    labels.iter().map(|&b| b.to_string()).collect()
}

/// The lexicographically least label sequence over all rotations and
/// reflections: two labeled cycles are isomorphic exactly when their
/// canonical sequences are equal.
fn cycle_canon(labels: &[u8]) -> Vec<u8> {
    let n = labels.len();
    let at = |start: usize, rev: bool, k: usize| {
        if rev {
            labels[(start + n - k) % n]
        } else {
            labels[(start + k) % n]
        }
    };
    let (mut best_start, mut best_rev) = (0, false);
    for start in 0..n {
        for rev in [false, true] {
            let less = (0..n)
                .map(|k| at(start, rev, k).cmp(&at(best_start, best_rev, k)))
                .find(|o| o.is_ne())
                .is_some_and(std::cmp::Ordering::is_lt);
            if less {
                (best_start, best_rev) = (start, rev);
            }
        }
    }
    (0..n).map(|k| at(best_start, best_rev, k)).collect()
}

/// How node indices are assigned on the wire.
#[derive(Clone, Copy)]
enum Numbering {
    /// A fresh uniformly random permutation.
    Random,
    /// A random rotation and reflection: a cycle's nodes stay numbered
    /// in traversal order.
    Traversal,
}

/// Puts an instance on the wire as explicit labels and edges, renumbered
/// by `numbering`, with edges in random order and orientation.
fn graph_json(inst: &Inst, numbering: Numbering, rng: &mut XorShift) -> String {
    let n = inst.labels.len();
    let perm: Vec<usize> = match numbering {
        Numbering::Random => {
            let mut p: Vec<usize> = (0..n).collect();
            shuffle(&mut p, rng);
            p
        }
        Numbering::Traversal => {
            let (start, reflect) = (rng.below(n), rng.bool());
            (0..n)
                .map(|u| {
                    if reflect {
                        (start + n - u) % n
                    } else {
                        (start + u) % n
                    }
                })
                .collect()
        }
    };
    let mut labels = vec![""; n];
    for (u, l) in inst.labels.iter().enumerate() {
        labels[perm[u]] = l;
    }
    let mut edges: Vec<(usize, usize)> = inst
        .edges
        .iter()
        .map(|&(u, v)| {
            if rng.bool() {
                (perm[u], perm[v])
            } else {
                (perm[v], perm[u])
            }
        })
        .collect();
    shuffle(&mut edges, rng);
    let mut out = String::with_capacity(16 + 4 * n + 12 * edges.len());
    out.push_str("{\"labels\":[");
    for (i, l) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(l);
        out.push('"');
    }
    out.push_str("],\"edges\":[");
    for (i, (u, v)) in edges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{u},{v}]"));
    }
    out.push_str("]}");
    out
}

fn membership(id: &str, arbiter: &str, graph: &str) -> String {
    format!(
        "{{\"id\":\"{id}\",\"kind\":\"membership\",\"arbiter\":\"{arbiter}\",\"graph\":{graph}}}"
    )
}

/// One class of the hot working set: an arbiter and an instance.
#[derive(Debug, Clone)]
struct HotClass {
    arbiter: &'static str,
    inst: Inst,
    verdict: bool,
}

/// The `serve_hot` working set: [`HOT_CLASSES`] pairwise non-isomorphic
/// (arbiter, labeled cycle) classes, all small enough to decide in
/// milliseconds during warm-up.
fn hot_classes(seed: u64) -> Vec<HotClass> {
    let mut rng = XorShift::new(mix(seed, 1));
    // (arbiter, count, smallest n, largest n)
    let plan: [(&'static str, usize, usize, usize); 5] = [
        ("all_selected_decider", 8, 6, 12),
        ("eulerian_decider", 6, 6, 12),
        ("three_colorable_verifier", 6, 5, 8),
        ("two_colorable_verifier", 6, 5, 10),
        ("all_selected_pi1", 6, 5, 10),
    ];
    let mut seen: HashSet<(&'static str, Vec<u8>)> = HashSet::new();
    let mut classes = Vec::with_capacity(HOT_CLASSES);
    for (arbiter, count, lo, hi) in plan {
        let mut made = 0;
        while made < count {
            let n = lo + rng.below(hi - lo + 1);
            // Half of the selection-property classes are all-selected.
            let selection = arbiter.starts_with("all_selected");
            let labels = if selection && made % 2 == 0 {
                vec![1; n]
            } else {
                bits(&mut rng, n, 300)
            };
            if !seen.insert((arbiter, cycle_canon(&labels))) {
                continue;
            }
            let verdict = match arbiter {
                "two_colorable_verifier" => n.is_multiple_of(2),
                _ if selection => labels.iter().all(|&b| b == 1),
                _ => true,
            };
            classes.push(HotClass {
                arbiter,
                inst: cycle(label_strings(&labels)),
                verdict,
            });
            made += 1;
        }
    }
    classes
}

/// The requests that load the hot working set into the cache: one per
/// class, ids `w0`, `w1`, ….
pub fn hot_warmup(seed: u64) -> Vec<Req> {
    let mut rng = XorShift::new(mix(seed, 2));
    hot_classes(seed)
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let id = format!("w{i}");
            Req {
                line: membership(
                    &id,
                    c.arbiter,
                    &graph_json(&c.inst, Numbering::Random, &mut rng),
                ),
                id,
                expect: Expect::Verdict(c.verdict),
                kind: "member",
            }
        })
        .collect()
}

/// Reductions of the hot mix, applied to all-selected cycles.
const HOT_REDUCTIONS: [&str; 2] = ["all_selected_to_eulerian", "all_selected_to_hamiltonian"];
/// Lint targets of the hot mix; every registered artifact is lint-clean.
const HOT_LINTS: [(&str, bool); 3] = [
    ("reduction:all_selected_to_eulerian", true),
    ("arbiter:two_colorable_verifier", false),
    ("arbiter:eulerian_decider", false),
];

/// The `serve_hot` request stream of one connection.
///
/// Per block of 20: 16 membership requests over the working set, one
/// `eulerian_decider` request on C₂₅₆ that admission must shed, one
/// `list`, one `lint` and one `reduction`.
pub struct HotStream {
    rng: XorShift,
    classes: Vec<HotClass>,
    class_deck: Deck<usize>,
    block: Vec<&'static str>,
    registry: Registry,
    reduction_sizes: Vec<Vec<(usize, usize)>>,
    conn: usize,
    next: usize,
}

impl HotStream {
    /// The stream of connection `conn` under `seed`.
    pub fn new(seed: u64, conn: usize, registry: Registry) -> Self {
        let classes = hot_classes(seed);
        let class_deck = Deck::new((0..classes.len()).collect());
        HotStream {
            rng: XorShift::new(mix(seed, 100 + conn as u64)),
            classes,
            class_deck,
            block: Vec::new(),
            registry,
            reduction_sizes: HOT_REDUCTIONS.iter().map(|r| reduction_sizes(r)).collect(),
            conn,
            next: 0,
        }
    }

    /// The next request of the stream.
    pub fn next_req(&mut self) -> Req {
        if self.block.is_empty() {
            let mut block = vec!["member"; BLOCK - 4];
            block.extend(["shed", "list", "lint", "reduction"]);
            shuffle(&mut block, &mut self.rng);
            self.block = block;
        }
        let kind = self.block.pop().expect("block is nonempty");
        let id = format!("h{}.{}", self.conn, self.next);
        self.next += 1;
        let rng = &mut self.rng;
        let (line, expect) = match kind {
            "member" => {
                let c = &self.classes[self.class_deck.draw(rng)];
                (
                    membership(&id, c.arbiter, &graph_json(&c.inst, Numbering::Random, rng)),
                    Expect::Verdict(c.verdict),
                )
            }
            "shed" => {
                let inst = cycle(label_strings(&bits(rng, 256, 500)));
                (
                    membership(
                        &id,
                        "eulerian_decider",
                        &graph_json(&inst, Numbering::Random, rng),
                    ),
                    Expect::Shed,
                )
            }
            "list" => (
                format!("{{\"id\":\"{id}\",\"kind\":\"list\"}}"),
                Expect::List {
                    arbiters: self.registry.arbiters,
                    reductions: self.registry.reductions,
                },
            ),
            "lint" => {
                let (target, deep) = HOT_LINTS[rng.below(HOT_LINTS.len())];
                let n = 4 + rng.below(5);
                let inst = cycle(label_strings(&bits(rng, n, 300)));
                (
                    format!(
                        "{{\"id\":\"{id}\",\"kind\":\"lint\",\"target\":\"{target}\",\"graph\":{},\"deep\":{deep}}}",
                        graph_json(&inst, Numbering::Random, rng)
                    ),
                    Expect::LintClean,
                )
            }
            _ => {
                let r = rng.below(HOT_REDUCTIONS.len());
                let n = 3 + rng.below(REDUCTION_MAX_N - 2);
                // The gadget reductions act on all-selected instances.
                let inst = cycle(vec!["1".to_owned(); n]);
                let (nodes, edges) = self.reduction_sizes[r][n - 3];
                (
                    format!(
                        "{{\"id\":\"{id}\",\"kind\":\"reduction\",\"reduction\":\"{}\",\"graph\":{}}}",
                        HOT_REDUCTIONS[r],
                        graph_json(&inst, Numbering::Random, rng)
                    ),
                    Expect::Reduction { nodes, edges },
                )
            }
        };
        Req {
            id,
            line,
            expect,
            kind,
        }
    }
}

const REDUCTION_MAX_N: usize = 8;

/// Output sizes of a reduction on all-selected cycles of length
/// `3..=REDUCTION_MAX_N`, computed once with the reduction itself (sizes
/// are invariant under node renaming, so every permuted request of the
/// same length expects the same size).
fn reduction_sizes(key: &str) -> Vec<(usize, usize)> {
    let entry = lph_serve::find_reduction(key).expect("registered reduction");
    let red = (entry.factory)();
    (3..=REDUCTION_MAX_N)
        .map(|n| {
            let g = lph_graphs::generators::cycle(n);
            let ids = lph_graphs::IdAssignment::global(&g);
            let (out, _) =
                lph_reductions::apply(red.as_ref(), &g, &ids).expect("reduction applies");
            (out.node_count(), out.edge_count())
        })
        .collect()
}

/// The `serve_cold` source: one global sequence of requests whose
/// instances are pairwise non-isomorphic per arbiter, so every request is
/// a cache miss followed by an insert. Connection `c` of `k` takes
/// elements `c, c + k, c + 2k, …`.
///
/// Per block of 20: five 3-coloring requests on labeled cycles of length
/// 12–40 (always SAT), five 2-coloring requests on cycles of length
/// 15–61 (UNSAT on odd lengths), one 3-coloring request on a labeled K₄
/// (UNSAT), four `all_selected_pi1` requests on cycles of length 20–60
/// (one in four all-selected), and five Σ₀ TM requests on cycles of
/// length 32–170 (three `all_selected_decider`, one in three of them
/// all-selected; two `eulerian_decider`).
pub struct ColdSource {
    rng: XorShift,
    made: Vec<Req>,
    block: Vec<&'static str>,
    seen: HashSet<(&'static str, Vec<u8>)>,
    three_n: Deck<usize>,
    two_n: Deck<usize>,
    pi1_n: Deck<usize>,
    pi1_true: Deck<bool>,
    sigma0: Deck<u8>,
    sigma0_n: Deck<usize>,
    /// All-selected cycle lengths not yet used, per selection arbiter.
    pi1_all_ones: Vec<usize>,
    decider_all_ones: Vec<usize>,
    /// Length of the last all-selected Π₁ cycle beyond the deck.
    pi1_long: usize,
}

impl ColdSource {
    /// The source under `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = XorShift::new(mix(seed, 3));
        let mut pi1_all_ones: Vec<usize> = (20..=60).collect();
        shuffle(&mut pi1_all_ones, &mut rng);
        let mut decider_all_ones: Vec<usize> = (32..=170).collect();
        shuffle(&mut decider_all_ones, &mut rng);
        ColdSource {
            rng,
            made: Vec::new(),
            block: Vec::new(),
            seen: HashSet::new(),
            three_n: Deck::new((12..=40).collect()),
            two_n: Deck::new((15..=61).collect()),
            pi1_n: Deck::new((20..=60).collect()),
            pi1_true: Deck::new(vec![true, false, false, false]),
            sigma0: Deck::new(vec![0, 1, 1, 2, 2]),
            sigma0_n: Deck::new((32..=170).collect()),
            pi1_all_ones,
            decider_all_ones,
            pi1_long: 60,
        }
    }

    /// Element `i` of the global sequence (generated on first use).
    pub fn get(&mut self, i: usize) -> Req {
        while self.made.len() <= i {
            let r = self.make(self.made.len());
            self.made.push(r);
        }
        self.made[i].clone()
    }

    /// Draws labels for `arbiter` until the instance is a new class.
    fn fresh_cycle(&mut self, arbiter: &'static str, n: usize, zero_per_mille: usize) -> Vec<u8> {
        loop {
            let labels = bits(&mut self.rng, n, zero_per_mille);
            if self.seen.insert((arbiter, cycle_canon(&labels))) {
                return labels;
            }
        }
    }

    fn make(&mut self, index: usize) -> Req {
        if self.block.is_empty() {
            let mut block = Vec::with_capacity(BLOCK);
            for (kind, count) in [
                ("3col", 5),
                ("2col", 5),
                ("k4", 1),
                ("pi1", 4),
                ("sigma0", 5),
            ] {
                block.extend(std::iter::repeat_n(kind, count));
            }
            shuffle(&mut block, &mut self.rng);
            self.block = block;
        }
        let kind = self.block.pop().expect("block is nonempty");
        let id = format!("c{index}");
        let (arbiter, inst, verdict) = match kind {
            "3col" => {
                let n = self.three_n.draw(&mut self.rng);
                let labels = self.fresh_cycle("three_colorable_verifier", n, 500);
                (
                    "three_colorable_verifier",
                    cycle(label_strings(&labels)),
                    true,
                )
            }
            "2col" => {
                let n = self.two_n.draw(&mut self.rng);
                let labels = self.fresh_cycle("two_colorable_verifier", n, 500);
                (
                    "two_colorable_verifier",
                    cycle(label_strings(&labels)),
                    n.is_multiple_of(2),
                )
            }
            "k4" => loop {
                // K₄ classes are label multisets over 4-bit labels.
                let mut labels: Vec<u8> = (0..4).map(|_| self.rng.below(16) as u8).collect();
                labels.sort_unstable();
                if self.seen.insert(("k4", labels.clone())) {
                    let strings = labels.iter().map(|l| format!("{l:04b}")).collect();
                    break ("three_colorable_verifier", k4(strings), false);
                }
            },
            "pi1" => {
                let labels = if self.pi1_true.draw(&mut self.rng) {
                    // Past the 41 all-selected cycles of length 20–60,
                    // longer all-selected cycles keep the true share.
                    let n = self.pi1_all_ones.pop().unwrap_or_else(|| {
                        self.pi1_long += 1;
                        self.pi1_long
                    });
                    vec![1; n]
                } else {
                    let n = self.pi1_n.draw(&mut self.rng);
                    self.fresh_unselected("all_selected_pi1", n)
                };
                let verdict = labels.iter().all(|&b| b == 1);
                ("all_selected_pi1", cycle(label_strings(&labels)), verdict)
            }
            _ => {
                let n = self.sigma0_n.draw(&mut self.rng);
                match self.sigma0.draw(&mut self.rng) {
                    0 => {
                        let labels = match self.decider_all_ones.pop() {
                            Some(n) => vec![1; n],
                            // All 139 all-selected cycles are used up.
                            None => self.fresh_unselected("all_selected_decider", n),
                        };
                        let verdict = labels.iter().all(|&b| b == 1);
                        (
                            "all_selected_decider",
                            cycle(label_strings(&labels)),
                            verdict,
                        )
                    }
                    1 => {
                        let labels = self.fresh_unselected("all_selected_decider", n);
                        ("all_selected_decider", cycle(label_strings(&labels)), false)
                    }
                    _ => {
                        let labels = self.fresh_cycle("eulerian_decider", n, 500);
                        ("eulerian_decider", cycle(label_strings(&labels)), true)
                    }
                }
            }
        };
        // Traversal numbering: the cache's exact isomorphism check backtracks
        // in node-index order, and on randomly renumbered same-bucket cycles
        // a *negative* check grows exponentially with n (see README.md).
        let line = membership(
            &id,
            arbiter,
            &graph_json(&inst, Numbering::Traversal, &mut self.rng),
        );
        Req {
            id,
            line,
            expect: Expect::Verdict(verdict),
            kind,
        }
    }

    /// A new class with at least one unselected node.
    fn fresh_unselected(&mut self, arbiter: &'static str, n: usize) -> Vec<u8> {
        loop {
            let mut labels = bits(&mut self.rng, n, 100);
            let at = self.rng.below(n);
            labels[at] = 0;
            if self.seen.insert((arbiter, cycle_canon(&labels))) {
                return labels;
            }
        }
    }
}
