//! Seeded input generators. Every input is a pure function of the run's
//! `--seed` and the coordinates of the item it describes (pass number,
//! connection and slot, edit number), so a run replays exactly; the
//! program under test only ever sees the generated inputs.

use pumpkin_pi::pumpkin_kernel::term::Term;
use pumpkin_pi::pumpkin_stdlib::list::list_lit;
use pumpkin_pi::pumpkin_stdlib::nat::nat_lit;
use pumpkin_pi::pumpkin_testkit::Rng;
use pumpkin_pi::pumpkin_wire::{term_to_envelope, LiftSpec, Value};

/// Mixes the run seed with a stream tag and two coordinates into one
/// generator seed (splitmix64 finisher), so streams are independent of
/// one another and of thread interleaving.
pub fn stream_seed(seed: u64, tag: u64, a: u64, b: u64) -> u64 {
    let mut z = seed ^ tag.rotate_left(48) ^ a.rotate_left(24) ^ b;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const TAG_CORPUS: u64 = 1;
const TAG_MODULE: u64 = 2;
const TAG_EDITS: u64 = 3;
const TAG_DAEMON: u64 = 4;

// ---------------------------------------------------------------------
// paper_corpus

/// One case study of the paper's evaluation, or a synthetic item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Item {
    /// §2/§6.1: the 13-constant swap list module, plus decompiling
    /// `New.rev_app_distr` and re-proving it.
    SwapModule,
    /// §6.1: the four REPLICA variants.
    Replica,
    /// §6.1.3: configure a 30-constructor enum permutation.
    Enum30,
    /// §6.2: the zip development across `list ≃ Σ(n). vector n`.
    OrnamentZip,
    /// §6.3: the manual nat → N configuration.
    BinaryNat,
    /// §6.4: records and back.
    Galois,
    /// §3.1.1: factoring constructors out to `bool`.
    Factor,
    /// A rotation of an `n`-constructor enum.
    SynthEnum { n: usize, rot: usize },
    /// An `app_assoc` instance over three `Old.list` literals of `len`
    /// elements each.
    SynthAppAssoc { len: usize },
}

/// One pass of `paper_corpus`: the order of its items and the list the
/// transport check uses.
#[derive(Clone, Debug, PartialEq)]
pub struct CorpusPass {
    pub order: Vec<Item>,
    pub transport_xs: Vec<u64>,
}

/// The plan for pass `pass`. Sizes are drawn from narrow ranges so that
/// passes of different seeds cost about the same.
pub fn corpus_pass(seed: u64, pass: u64) -> CorpusPass {
    let mut rng = Rng::new(stream_seed(seed, TAG_CORPUS, pass, 0));
    let n = rng.range(24, 33) as usize;
    let rot = 1 + rng.index(n - 1);
    let len = rng.range(8, 17) as usize;
    let items = [
        Item::SwapModule,
        Item::Replica,
        Item::Enum30,
        Item::OrnamentZip,
        Item::BinaryNat,
        Item::Galois,
        Item::Factor,
        Item::SynthEnum { n, rot },
        Item::SynthAppAssoc { len },
    ];
    let perm = rng.permutation(items.len());
    let order = perm.iter().map(|&i| items[i]).collect();
    let transport_xs = (0..rng.range(4, 12)).map(|_| rng.below(20)).collect();
    CorpusPass {
        order,
        transport_xs,
    }
}

/// The vernacular for [`Item::SynthAppAssoc`]: a statement of
/// `app_assoc` at three literal lists, proved by instantiating it.
pub fn app_assoc_source(len: usize) -> String {
    let lit = |off: usize| {
        let mut t = "Old.nil nat".to_string();
        for i in (0..len).rev() {
            t = format!("Old.cons nat {} ({t})", numeral((off + i) as u64 % 5));
        }
        format!("({t})")
    };
    let (l, m, n) = (lit(0), lit(1), lit(2));
    format!(
        "Definition Old.assoc_inst : eq (Old.list nat) (Old.app nat {l} (Old.app nat {m} {n})) \
         (Old.app nat (Old.app nat {l} {m}) {n}) := Old.app_assoc nat {l} {m} {n}.\n"
    )
}

fn numeral(k: u64) -> String {
    let mut s = "O".to_string();
    for _ in 0..k {
        s = format!("(S {s})");
    }
    s
}

// ---------------------------------------------------------------------
// edit_loop

/// One definition of the generated module: `Old.w{i}` appends its
/// dependencies' lists in front of a one-element list holding `k`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Def {
    pub layer: usize,
    pub deps: Vec<usize>,
    pub k: u64,
}

/// A generated module of `Old.*` definitions over `Old.list`. Layers
/// increase with the index and every dependency points to a lower layer,
/// so the dependency graph is acyclic and every definition is well typed
/// by construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Module {
    pub defs: Vec<Def>,
}

/// The number of definitions in the `edit_loop` module.
pub const MODULE_SIZE: usize = 200;

/// The most dependencies one definition has.
pub const MAX_FAN_IN: u64 = 3;

/// Generates the module: a DAG of `n` definitions whose depth (layers)
/// and per-definition fan-in (1 to [`MAX_FAN_IN`]) are drawn from the
/// seed.
pub fn module(seed: u64, n: usize) -> Module {
    let mut rng = Rng::new(stream_seed(seed, TAG_MODULE, n as u64, 0));
    let depth = rng.range(6, 10) as usize;
    let layer_of = |i: usize| i * depth / n;
    let mut defs: Vec<Def> = Vec::with_capacity(n);
    for i in 0..n {
        let layer = layer_of(i);
        let mut deps = Vec::new();
        if layer > 0 {
            // One edge from the previous layer keeps the depth; the rest
            // may reach any lower layer.
            let prev: Vec<usize> = (0..i).filter(|&j| layer_of(j) == layer - 1).collect();
            deps.push(*rng.pick(&prev));
            let below = (0..i).filter(|&j| layer_of(j) < layer).count();
            for _ in 1..rng.range(1, MAX_FAN_IN + 1) {
                let d = rng.index(below);
                if !deps.contains(&d) {
                    deps.push(d);
                }
            }
        }
        defs.push(Def {
            layer,
            deps,
            k: rng.below(5),
        });
    }
    Module { defs }
}

impl Module {
    pub fn name(i: usize) -> String {
        format!("Old.w{i}")
    }

    /// The module as vernacular.
    pub fn source(&self) -> String {
        let mut src = String::new();
        for (i, d) in self.defs.iter().enumerate() {
            let mut body = format!("Old.cons nat {} (Old.nil nat)", numeral(d.k));
            for &dep in d.deps.iter().rev() {
                body = format!("Old.app nat {} ({body})", Module::name(dep));
            }
            src.push_str(&format!(
                "Definition {} : Old.list nat := {body}.\n",
                Module::name(i)
            ));
        }
        src
    }

    /// Definitions nothing depends on.
    pub fn leaves(&self) -> Vec<usize> {
        let mut used = vec![false; self.defs.len()];
        for d in &self.defs {
            for &x in &d.deps {
                used[x] = true;
            }
        }
        (0..self.defs.len()).filter(|&i| !used[i]).collect()
    }

    /// How many definitions (transitively) depend on `i`, `i` included.
    #[cfg(test)]
    pub fn closure(&self, i: usize) -> usize {
        let mut hit = vec![false; self.defs.len()];
        hit[i] = true;
        for j in i + 1..self.defs.len() {
            hit[j] = self.defs[j].deps.iter().any(|&d| hit[d]);
        }
        hit.iter().filter(|&&h| h).count()
    }
}

/// The kinds of edit `edit_loop` makes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditKind {
    /// Change the element of a definition nothing depends on: the
    /// invalidation closure is about one constant.
    Leaf,
    /// Change the element of a layer-0 definition: a large closure.
    Root,
    /// Point one dependency of a definition at another lower-layer
    /// definition.
    Rewire,
}

/// The seeded edit sequence over a module.
pub struct Edits {
    rng: Rng,
}

impl Edits {
    pub fn new(seed: u64) -> Edits {
        Edits {
            rng: Rng::new(stream_seed(seed, TAG_EDITS, 0, 0)),
        }
    }

    /// Applies the next edit to `m` and says which kind it was. The mix
    /// is fixed: 94% leaf, 3% root, 3% rewire. Root and rewire edits
    /// write a large closure to the persist cache, whose cost swings with
    /// the host's disk; keeping them under 10% keeps the 90th percentile
    /// inside the leaf edits, and their cost shows in throughput.
    pub fn apply_next(&mut self, m: &mut Module) -> (EditKind, usize) {
        let rng = &mut self.rng;
        let roll = rng.below(100);
        if roll >= 97 {
            let candidates: Vec<usize> = (0..m.defs.len())
                .filter(|&i| m.defs[i].layer >= 2 && !m.defs[i].deps.is_empty())
                .collect();
            let i = *rng.pick(&candidates);
            let slot = rng.index(m.defs[i].deps.len());
            let layer = m.defs[i].layer;
            let fresh: Vec<usize> = (0..i)
                .filter(|&j| m.defs[j].layer < layer && !m.defs[i].deps.contains(&j))
                .collect();
            if !fresh.is_empty() {
                m.defs[i].deps[slot] = *rng.pick(&fresh);
                return (EditKind::Rewire, i);
            }
        }
        let (kind, i) = if (94..97).contains(&roll) {
            let roots: Vec<usize> = (0..m.defs.len())
                .filter(|&i| m.defs[i].layer == 0)
                .collect();
            (EditKind::Root, *rng.pick(&roots))
        } else {
            (EditKind::Leaf, *rng.pick(&m.leaves()))
        };
        m.defs[i].k = (m.defs[i].k + 1 + rng.below(4)) % 5;
        (kind, i)
    }
}

// ---------------------------------------------------------------------
// daemon_mix

/// What the benchmark expects back for one request.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// `repair` / `repair_module`: every requested name is repaired, and
    /// every repaired pair renames the `Old.` prefix to `New.`.
    Repaired(Vec<String>),
    /// `repair_batch`: one successful item per name, each as above.
    Batch(Vec<String>),
    /// `explain`: the explanation names the expected target.
    Explain(String),
    /// `eval`: the normal form is this numeral.
    Eval(u64),
    /// `repair_auto` over a broken module: `auto_exhausted`.
    Exhausted,
}

/// One request of the `daemon_mix` stream.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    pub method: &'static str,
    pub params: Value,
    pub expect: Expect,
    /// Whether a repeat of the same request must get the same reply bytes
    /// (all but incremental requests, whose reply depends on the worker's
    /// snapshot, and cold auto searches, which vary with the cache).
    pub deterministic: bool,
}

/// The `Old.list` constants requests draw from.
pub const LIST_POOL: &[&str] = pumpkin_pi::pumpkin_stdlib::swap::OLD_MODULE_CONSTANTS;
/// The `Old.Term` constants requests draw from.
pub const TERM_POOL: &[&str] = pumpkin_pi::case_studies::REPLICA_CONSTANTS;

/// The clash ids of the broken-module pool: repeats hit the daemon's
/// failure cache.
pub const AUTO_POOL: u64 = 6;

/// Request `slot` of connection `conn`. The mix, per 1000 requests:
/// 330 `repair`, 180 `repair_module` with 2–4 names, 100 incremental
/// `repair_module`, 30 `repair_batch` of a whole module, 60 `explain`,
/// 250 `eval`, 50 `repair_auto` (of which one in 25 uses a fresh clash id
/// and pays a cold search). Requests alternate between the two lifting
/// specs `Old.list → New.list` and `Old.Term → New.Term`.
pub fn daemon_request(seed: u64, conn: u64, slot: u64) -> Request {
    let mut rng = Rng::new(stream_seed(seed, TAG_DAEMON, conn, slot));
    let term_spec = rng.chance(3, 10);
    let (spec, pool) = if term_spec {
        (
            LiftSpec::swap("Old.Term", "New.Term", "Old.", "New."),
            TERM_POOL,
        )
    } else {
        (
            LiftSpec::swap("Old.list", "New.list", "Old.", "New."),
            LIST_POOL,
        )
    };
    let roll = rng.below(1000);
    let base = |extra: Vec<(String, Value)>| {
        let mut p = vec![
            ("lifting".to_string(), spec.to_value()),
            ("deterministic".to_string(), Value::Bool(true)),
        ];
        p.extend(extra);
        Value::Obj(p)
    };
    let some_names = |rng: &mut Rng| -> Vec<String> {
        let count = rng.range(2, 5) as usize;
        let start = rng.index(pool.len());
        (0..count)
            .map(|k| pool[(start + k) % pool.len()].to_string())
            .collect()
    };
    let strs = |names: &[String]| Value::Arr(names.iter().map(Value::str).collect());
    match roll {
        0..=329 => {
            let name = rng.pick(pool).to_string();
            Request {
                method: "repair",
                params: base(vec![("name".into(), Value::str(&name))]),
                expect: Expect::Repaired(vec![name]),
                deterministic: true,
            }
        }
        330..=509 => {
            let names = some_names(&mut rng);
            Request {
                method: "repair_module",
                params: base(vec![("names".into(), strs(&names))]),
                expect: Expect::Repaired(names),
                deterministic: true,
            }
        }
        510..=609 => {
            let names = some_names(&mut rng);
            Request {
                method: "repair_module",
                params: base(vec![
                    ("names".into(), strs(&names)),
                    ("incremental".into(), Value::Bool(true)),
                ]),
                expect: Expect::Repaired(names),
                deterministic: false,
            }
        }
        610..=639 => {
            let names: Vec<String> = pool.iter().map(|s| s.to_string()).collect();
            // Items inherit the batch's lifting spec but not its flags.
            let items = names
                .iter()
                .map(|n| {
                    Value::Obj(vec![
                        ("name".into(), Value::str(n)),
                        ("deterministic".into(), Value::Bool(true)),
                    ])
                })
                .collect();
            Request {
                method: "repair_batch",
                params: base(vec![("batch".into(), Value::Arr(items))]),
                expect: Expect::Batch(names),
                deterministic: true,
            }
        }
        640..=699 => {
            let name = rng.pick(pool).to_string();
            let to = name.replacen("Old.", "New.", 1);
            Request {
                method: "explain",
                params: base(vec![("name".into(), Value::str(&name))]),
                expect: Expect::Explain(to),
                deterministic: true,
            }
        }
        700..=949 => {
            let (term, value) = eval_term(&mut rng);
            Request {
                method: "eval",
                params: Value::Obj(vec![("term".into(), term_to_envelope(&term))]),
                expect: Expect::Eval(value),
                deterministic: true,
            }
        }
        _ => {
            let fresh = rng.chance(1, 25);
            let id = if fresh {
                format!("f{}_{conn}_{slot}", seed % 1_000_000)
            } else {
                rng.below(AUTO_POOL).to_string()
            };
            Request {
                method: "repair_auto",
                params: auto_params(&id),
                expect: Expect::Exhausted,
                deterministic: false,
            }
        }
    }
}

/// A closed term whose normal form the benchmark knows without asking
/// the kernel: the length of a literal list, or a sum of numerals.
fn eval_term(rng: &mut Rng) -> (Term, u64) {
    if rng.bool() {
        let len = rng.range(1, 12);
        let elems: Vec<Term> = (0..len).map(|_| nat_lit(rng.below(4))).collect();
        let l = list_lit("Old.list", Term::ind("nat"), &elems);
        (
            Term::app(Term::const_("Old.length"), [Term::ind("nat"), l]),
            len,
        )
    } else {
        let (a, b) = (rng.below(30), rng.below(30));
        (
            Term::app(Term::const_("add"), [nat_lit(a), nat_lit(b)]),
            a + b,
        )
    }
}

/// `repair_auto` over a broken module: the `Old.` constant's repaired
/// name collides with the `New.` constant the module already defines, so
/// every candidate fails and the daemon answers `auto_exhausted`.
fn auto_params(id: &str) -> Value {
    let source = format!(
        "Definition New.bench_clash_{id} : nat := O.\n\
         Definition Old.bench_clash_{id} : forall (T : Type 1), Old.list T -> Old.list T := \
         fun (T : Type 1) (l : Old.list T) => l.\n"
    );
    Value::Obj(vec![
        (
            "lifting".into(),
            LiftSpec::swap("Old.list", "New.list", "Old.", "New.").to_value(),
        ),
        ("deterministic".into(), Value::Bool(true)),
        ("source".into(), Value::str(&source)),
        ("budget".into(), Value::UInt(2)),
        ("minimize".into(), Value::Bool(false)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        for seed in [0u64, 1, 0xdead_beef] {
            assert_eq!(corpus_pass(seed, 3), corpus_pass(seed, 3));
            assert_eq!(module(seed, 60).source(), module(seed, 60).source());
            let (mut a, mut b) = (module(seed, 60), module(seed, 60));
            let (mut ea, mut eb) = (Edits::new(seed), Edits::new(seed));
            for _ in 0..40 {
                assert_eq!(ea.apply_next(&mut a), eb.apply_next(&mut b));
                assert_eq!(a.source(), b.source());
            }
            for (c, s) in [(0, 0), (1, 17), (0, 999)] {
                let (x, y) = (daemon_request(seed, c, s), daemon_request(seed, c, s));
                assert_eq!(x.method, y.method);
                assert_eq!(x.params.to_string(), y.params.to_string());
                assert_eq!(x.expect, y.expect);
            }
        }
    }

    #[test]
    fn seeds_and_coordinates_decorrelate() {
        let sources: Vec<String> = (0..8).map(|s| module(s, 60).source()).collect();
        for i in 0..sources.len() {
            for j in i + 1..sources.len() {
                assert_ne!(sources[i], sources[j], "seeds {i} and {j}");
            }
        }
        let orders: std::collections::HashSet<String> = (0..8)
            .map(|p| format!("{:?}", corpus_pass(5, p).order))
            .collect();
        assert!(orders.len() > 4, "{orders:?}");
        let reqs: std::collections::HashSet<String> = (0..64)
            .map(|s| daemon_request(5, 0, s).params.to_string())
            .collect();
        assert!(reqs.len() > 32);
        let other: Vec<String> = (0..64)
            .map(|s| daemon_request(6, 0, s).params.to_string())
            .collect();
        let same = (0..64)
            .filter(|&s| daemon_request(5, 0, s).params.to_string() == other[s as usize])
            .count();
        assert!(same < 32, "{same} of 64 requests equal across seeds");
    }

    #[test]
    fn modules_are_layered_dags_with_the_planned_edit_mix() {
        for seed in 0..20 {
            let mut m = module(seed, MODULE_SIZE);
            for (i, d) in m.defs.iter().enumerate() {
                assert!(d.deps.iter().all(|&x| x < i && m.defs[x].layer < d.layer));
                assert_eq!(d.layer == 0, d.deps.is_empty());
            }
            assert!(!m.leaves().is_empty());
            let mut edits = Edits::new(seed);
            let mut kinds = [0usize; 3];
            for _ in 0..400 {
                let before = m.source();
                let (kind, i) = edits.apply_next(&mut m);
                assert_ne!(before, m.source(), "edit of {i} changed nothing");
                kinds[kind as usize] += 1;
                if kind == EditKind::Leaf {
                    assert_eq!(m.closure(i), 1);
                }
            }
            assert!((350..400).contains(&kinds[0]), "{kinds:?}");
            assert!((2..30).contains(&kinds[1]), "{kinds:?}");
            assert!((2..30).contains(&kinds[2]), "{kinds:?}");
        }
    }
}
