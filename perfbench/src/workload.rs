//! The three workloads and their seeded command traces.
//!
//! A trace is a pure function of `(workload, seed, seconds)`: the step counts
//! are fixed per second of run time, the order, tenants and words come from
//! one seeded generator, and the residency each `LOAD` causes is predicted by
//! an LRU model of the server's registry. Nothing depends on a clock, so two
//! runs at one seed send byte-identical command streams and do the same work.
//!
//! Every mutation is sent as an `APPEND`/`RETRACT` pair on the same facts, so
//! each cycle ends in the loaded state and the next one starts where the
//! first did.

use cqa_core::query::PathQuery;
use cqa_db::codec::{family_to_text, to_text};
use cqa_db::fact::Fact;
use cqa_db::family::InstanceFamily;
use cqa_db::instance::DatabaseInstance;
use cqa_server::registry::ResidencyLimits;

/// Requests (deltas) per tenant family.
const REQUESTS: usize = 8;
/// Share of each request that is private (delta layer width / prefix width).
const DELTA_RATIO: f64 = 0.1;
/// Mutations prepared per tenant; a cycle picks one of them.
const MUTATION_POOL: usize = 8;
/// Facts per mutation: each adds a conflicting second edge to a prefix block.
const MUTATION_FACTS: usize = 8;
/// Zipf exponent of the tenant draw.
const SKEW: f64 = 1.0;

/// One workload: the tenant population, the residency caps the server runs
/// with, and the mix of steps its trace is made of.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub tenants: usize,
    /// The layered-generator word that shapes every tenant's prefix.
    pub family_word: &'static str,
    /// Vertices per layer of the prefix.
    pub width: usize,
    pub max_tenants: usize,
    pub max_facts: usize,
    /// Words (and weights) of read queries and of the query after a reload.
    pub read_words: &'static [(&'static str, u32)],
    /// Words (and weights) of the queries inside a mutation cycle.
    pub cycle_words: &'static [(&'static str, u32)],
    /// Queries per read step (a churn "visit" asks two).
    pub queries_per_read: usize,
    /// Step counts per second of `--seconds`.
    pub reads_per_s: f64,
    pub cycles_per_s: f64,
    pub reloads_per_s: f64,
}

pub const WORKLOADS: [Spec; 3] = [
    // Reads and mutation cycles on four resident ~5k-fact tenants: the
    // differential repair, `registry::mutate_delta` and the wire do the work.
    Spec {
        name: "resident_mutate",
        tenants: 4,
        family_word: "RXRY",
        width: 1000,
        max_tenants: 64,
        max_facts: 8 << 20,
        read_words: &[("RRX", 1), ("RXRY", 3)],
        cycle_words: &[("RRX", 1), ("RXRY", 3)],
        queries_per_read: 1,
        reads_per_s: 500.0,
        cycles_per_s: 100.0,
        reloads_per_s: 11.0,
    },
    // Twelve ~2k-fact tenants over a four-tenant cache: loads, cold
    // derivations and evictions dominate.
    Spec {
        name: "tenant_churn",
        tenants: 12,
        family_word: "RXRY",
        width: 400,
        max_tenants: 4,
        max_facts: usize::MAX / 2,
        read_words: &[("RRX", 1), ("RXRY", 3)],
        cycle_words: &[("RRX", 1), ("RXRY", 3)],
        queries_per_read: 2,
        reads_per_s: 190.0,
        cycles_per_s: 20.0,
        reloads_per_s: 0.0,
    },
    // All four tetrachotomy routes on four resident ~1.3k-fact tenants; the
    // non-Datalog routes materialize `prefix ∪ delta` per request and bypass
    // the resident base and maintenance.
    Spec {
        name: "route_mix",
        tenants: 4,
        family_word: "RXRYRY",
        width: 180,
        max_tenants: 64,
        max_facts: 8 << 20,
        read_words: &[("RXRX", 1), ("RXRY", 3), ("RXRYRY", 3), ("RXRXRYRY", 3)],
        cycle_words: &[("RXRX", 1), ("RXRYRY", 4), ("RXRXRYRY", 2)],
        queries_per_read: 1,
        reads_per_s: 290.0,
        cycles_per_s: 8.0,
        reloads_per_s: 11.0,
    },
];

impl Spec {
    pub fn limits(&self) -> ResidencyLimits {
        ResidencyLimits {
            max_tenants: self.max_tenants,
            max_facts: self.max_facts,
        }
    }
}

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: a tiny, fully specified generator, so a trace never depends
/// on another crate's sampling details.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An index drawn with the given cumulative weights.
    fn pick(&mut self, cumulative: &[f64]) -> usize {
        let total = *cumulative.last().expect("nonempty weights");
        let draw = self.unit() * total;
        cumulative
            .partition_point(|&c| c <= draw)
            .min(cumulative.len() - 1)
    }
}

fn cumulative(weights: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut total = 0.0;
    weights
        .map(|w| {
            total += w;
            total
        })
        .collect()
}

/// A tenant as the benchmark holds it: the family as loaded, its prepared
/// mutations, and every frame the client sends for it, rendered once.
#[derive(Debug)]
pub struct Tenant {
    pub name: String,
    pub family: InstanceFamily,
    /// `(request, facts)` per prepared mutation; the facts are in neither the
    /// prefix nor that request's delta, so `RETRACT` restores the delta.
    pub mutations: Vec<(usize, DatabaseInstance)>,
    pub load_frame: Vec<u8>,
    /// One `QUERY` frame per word of [`Trace::words`].
    pub query_frames: Vec<Vec<u8>>,
    pub append_frames: Vec<Vec<u8>>,
    pub retract_frames: Vec<Vec<u8>>,
}

/// What a command measures, for the latency classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    Load,
    Mutate,
    /// A `QUERY` against a family unchanged since that tenant's last query of
    /// that word.
    Query,
    /// The first `QUERY` after an `APPEND`/`RETRACT` to the tenant.
    Requery,
    /// The first `QUERY` after a `LOAD` of the tenant.
    Cold,
    /// A later first-of-its-word `QUERY` after a `LOAD`: derivation work like
    /// `Cold`, kept apart so each latency class stays one cluster.
    ColdOther,
}

impl Class {
    pub fn as_str(self) -> &'static str {
        match self {
            Class::Load => "load",
            Class::Mutate => "mutate",
            Class::Query => "query",
            Class::Requery => "requery",
            Class::Cold => "cold_query",
            Class::ColdOther => "cold_other",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Load { tenant: usize },
    Query { tenant: usize, word: usize },
    Append { tenant: usize, mutation: usize },
    Retract { tenant: usize, mutation: usize },
}

/// One trace command with everything the checks need to know about it.
#[derive(Debug, Clone, Copy)]
pub struct Cmd {
    pub op: Op,
    pub class: Class,
    /// `LOAD`: tenants the registry must evict for it (the `evicted=` field).
    pub evicts: usize,
    /// `QUERY`: the mutation applied to the tenant when it is asked, if any.
    pub state: Option<usize>,
}

/// A workload instance: tenants, words, and the warm-up and timed commands.
#[derive(Debug)]
pub struct Trace {
    pub spec: &'static Spec,
    pub words: Vec<String>,
    pub queries: Vec<PathQuery>,
    pub tenants: Vec<Tenant>,
    /// Untimed: every tenant loaded, then every word asked on it.
    pub warmup: Vec<Cmd>,
    pub timed: Vec<Cmd>,
    /// Tenants resident at the end of the trace, per the LRU model.
    pub resident_at_end: Vec<usize>,
}

/// The server registry's LRU residency, replayed on the command stream.
#[derive(Debug)]
struct Model {
    last_used: Vec<Option<u64>>,
    clock: u64,
    max_tenants: usize,
    /// Per tenant: which words were asked since its last load.
    asked: Vec<Vec<bool>>,
    /// Per tenant: an `APPEND`/`RETRACT` arrived since its last query.
    mutated: Vec<bool>,
    /// Per tenant: the mutation currently appended, if any.
    applied: Vec<Option<usize>>,
}

impl Model {
    fn new(tenants: usize, words: usize, max_tenants: usize) -> Model {
        Model {
            last_used: vec![None; tenants],
            clock: 0,
            max_tenants,
            asked: vec![vec![false; words]; tenants],
            mutated: vec![false; tenants],
            applied: vec![None; tenants],
        }
    }

    fn resident(&self, t: usize) -> bool {
        self.last_used[t].is_some()
    }

    fn touch(&mut self, t: usize) {
        self.clock += 1;
        self.last_used[t] = Some(self.clock);
    }

    fn load(&mut self, t: usize) -> Cmd {
        self.touch(t);
        self.asked[t].iter_mut().for_each(|a| *a = false);
        self.mutated[t] = false;
        self.applied[t] = None;
        let mut evicts = 0;
        while self.last_used.iter().flatten().count() > self.max_tenants {
            let victim = (0..self.last_used.len())
                .filter(|&v| v != t)
                .filter_map(|v| self.last_used[v].map(|used| (used, v)))
                .min()
                .map(|(_, v)| v)
                .expect("a victim besides the loaded tenant");
            self.last_used[victim] = None;
            evicts += 1;
        }
        Cmd {
            op: Op::Load { tenant: t },
            class: Class::Load,
            evicts,
            state: None,
        }
    }

    fn query(&mut self, t: usize, word: usize) -> Cmd {
        assert!(self.resident(t), "trace queries only resident tenants");
        self.touch(t);
        let class = if !self.asked[t].iter().any(|&a| a) {
            Class::Cold
        } else if !self.asked[t][word] {
            Class::ColdOther
        } else if self.mutated[t] {
            Class::Requery
        } else {
            Class::Query
        };
        self.asked[t][word] = true;
        self.mutated[t] = false;
        Cmd {
            op: Op::Query { tenant: t, word },
            class,
            evicts: 0,
            state: self.applied[t],
        }
    }

    fn mutate(&mut self, op: Op) -> Cmd {
        let (Op::Append { tenant, mutation } | Op::Retract { tenant, mutation }) = op else {
            unreachable!("mutate takes APPEND/RETRACT")
        };
        self.touch(tenant);
        self.mutated[tenant] = true;
        self.applied[tenant] = matches!(op, Op::Append { .. }).then_some(mutation);
        Cmd {
            op,
            class: Class::Mutate,
            evicts: 0,
            state: None,
        }
    }
}

/// Adds a conflicting second edge to `MUTATION_FACTS` prefix blocks: each
/// fact reuses a prefix fact's key with the value of another fact of the same
/// relation, and is in neither the prefix nor the request's delta.
fn mutation(family: &InstanceFamily, request: usize, rng: &mut Rng) -> DatabaseInstance {
    let prefix = family.prefix().facts();
    let delta = &family.deltas()[request];
    let mut out = DatabaseInstance::new();
    while out.len() < MUTATION_FACTS {
        let block = prefix[rng.below(prefix.len())];
        let other = prefix[rng.below(prefix.len())];
        let fact = Fact::new(block.rel, block.key, other.value);
        if other.rel != block.rel
            || family.prefix().contains(&fact)
            || delta.contains(&fact)
            || out.contains(&fact)
        {
            continue;
        }
        out.insert(fact);
    }
    out
}

fn frame(line: String, payload: Option<&str>) -> Vec<u8> {
    let mut frame = line.into_bytes();
    frame.push(b'\n');
    if let Some(payload) = payload {
        frame.extend_from_slice(payload.as_bytes());
    }
    frame
}

impl Trace {
    /// Builds the workload's tenants and trace for one seed and run length.
    pub fn generate(spec: &'static Spec, seed: u64, seconds: u64) -> Trace {
        let mut words: Vec<String> = Vec::new();
        for (word, _) in spec.read_words.iter().chain(spec.cycle_words) {
            if !words.iter().any(|w| w == word) {
                words.push((*word).to_owned());
            }
        }
        let queries: Vec<PathQuery> = words
            .iter()
            .map(|w| PathQuery::parse(w).expect("valid query word"))
            .collect();
        let family_word = PathQuery::parse(spec.family_word).expect("valid family word");
        let mut rng = Rng::new(seed ^ 0xBE7C_4A11_0000_0000);
        let tenants: Vec<Tenant> = (0..spec.tenants)
            .map(|t| {
                let name = format!("t{t:02}");
                let family = cqa_workloads::random::shared_prefix_families(
                    family_word.word(),
                    spec.width,
                    REQUESTS,
                    DELTA_RATIO,
                    rng.next_u64(),
                );
                let mutations: Vec<(usize, DatabaseInstance)> = (0..MUTATION_POOL)
                    .map(|m| {
                        let request = m % REQUESTS;
                        (request, mutation(&family, request, &mut rng))
                    })
                    .collect();
                let text = family_to_text(&family);
                let load_frame = frame(format!("LOAD {name} {}", text.len()), Some(&text));
                let query_frames = words
                    .iter()
                    .map(|w| frame(format!("QUERY {name} {w}"), None))
                    .collect();
                let mutation_frames = |verb: &str| -> Vec<Vec<u8>> {
                    mutations
                        .iter()
                        .map(|(request, facts)| {
                            let text = to_text(facts);
                            frame(
                                format!("{verb} {name} {request} {}", text.len()),
                                Some(&text),
                            )
                        })
                        .collect()
                };
                let append_frames = mutation_frames("APPEND");
                let retract_frames = mutation_frames("RETRACT");
                Tenant {
                    name,
                    family,
                    mutations,
                    load_frame,
                    query_frames,
                    append_frames,
                    retract_frames,
                }
            })
            .collect();

        let index = |word: &str| words.iter().position(|w| w == word).expect("known word");
        let read_words: Vec<usize> = spec.read_words.iter().map(|(w, _)| index(w)).collect();
        let read_weights = cumulative(spec.read_words.iter().map(|(_, w)| f64::from(*w)));
        let cycle_words: Vec<usize> = spec.cycle_words.iter().map(|(w, _)| index(w)).collect();
        let cycle_weights = cumulative(spec.cycle_words.iter().map(|(_, w)| f64::from(*w)));
        let tenant_weights =
            cumulative((0..spec.tenants).map(|t| 1.0 / ((t + 1) as f64).powf(SKEW)));

        let mut model = Model::new(spec.tenants, words.len(), spec.max_tenants);
        let mut warmup = Vec::new();
        for t in 0..spec.tenants {
            warmup.push(model.load(t));
            for w in 0..words.len() {
                warmup.push(model.query(t, w));
            }
        }

        // A fixed multiset of steps in a seeded order: the step counts, and
        // so the class sizes, depend on the run length alone.
        #[derive(Clone, Copy)]
        enum Step {
            Read,
            Cycle,
            Reload,
        }
        let count = |per_s: f64| (per_s * seconds as f64).round() as usize;
        let mut steps: Vec<Step> = std::iter::repeat_n(Step::Read, count(spec.reads_per_s))
            .chain(std::iter::repeat_n(Step::Cycle, count(spec.cycles_per_s)))
            .chain(std::iter::repeat_n(Step::Reload, count(spec.reloads_per_s)))
            .collect();
        for i in (1..steps.len()).rev() {
            steps.swap(i, rng.below(i + 1));
        }
        let mut timed = Vec::new();
        for step in steps {
            let t = rng.pick(&tenant_weights);
            match step {
                Step::Reload => timed.push(model.load(t)),
                _ if !model.resident(t) => timed.push(model.load(t)),
                _ => {}
            }
            match step {
                Step::Read => {
                    for _ in 0..spec.queries_per_read {
                        let w = read_words[rng.pick(&read_weights)];
                        timed.push(model.query(t, w));
                    }
                }
                Step::Reload => {
                    let w = read_words[rng.pick(&read_weights)];
                    timed.push(model.query(t, w));
                }
                Step::Cycle => {
                    let mutation = rng.below(MUTATION_POOL);
                    let w = cycle_words[rng.pick(&cycle_weights)];
                    timed.push(model.mutate(Op::Append {
                        tenant: t,
                        mutation,
                    }));
                    timed.push(model.query(t, w));
                    timed.push(model.mutate(Op::Retract {
                        tenant: t,
                        mutation,
                    }));
                    timed.push(model.query(t, w));
                }
            }
        }
        // A closing sweep asks every word on every resident tenant, so the
        // maintained state measured at the end never depends on which tenant
        // the last steps happened to touch.
        let resident_at_end: Vec<usize> =
            (0..spec.tenants).filter(|&t| model.resident(t)).collect();
        for &t in &resident_at_end {
            for w in 0..words.len() {
                timed.push(model.query(t, w));
            }
        }
        Trace {
            spec,
            words,
            queries,
            tenants,
            warmup,
            timed,
            resident_at_end,
        }
    }

    /// FNV-1a over every frame of the warm-up and the timed trace: two runs
    /// share counts to compare only if they sent the same bytes.
    pub fn digest(&self) -> u64 {
        crate::check::fnv1a(
            self.warmup
                .iter()
                .chain(&self.timed)
                .map(|cmd| self.frame(cmd.op)),
        )
    }

    /// The text frame one command sends.
    pub fn frame(&self, op: Op) -> &[u8] {
        match op {
            Op::Load { tenant } => &self.tenants[tenant].load_frame,
            Op::Query { tenant, word } => &self.tenants[tenant].query_frames[word],
            Op::Append { tenant, mutation } => &self.tenants[tenant].append_frames[mutation],
            Op::Retract { tenant, mutation } => &self.tenants[tenant].retract_frames[mutation],
        }
    }

    /// The delta size an `APPEND`/`RETRACT` reply must report.
    pub fn delta_facts_after(&self, op: Op) -> usize {
        match op {
            Op::Append { tenant, mutation } | Op::Retract { tenant, mutation } => {
                let (request, facts) = &self.tenants[tenant].mutations[mutation];
                let base = self.tenants[tenant].family.deltas()[*request].len();
                if matches!(op, Op::Append { .. }) {
                    base + facts.len()
                } else {
                    base
                }
            }
            _ => 0,
        }
    }
}
