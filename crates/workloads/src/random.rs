//! Parameterized synthetic generators of inconsistent database instances.
//!
//! The generators are seeded and deterministic, so benchmark and test runs
//! are reproducible. Two families are provided:
//!
//! * [`RandomInstanceConfig`] — uniformly random binary facts over a bounded
//!   domain with a tunable conflict rate;
//! * [`LayeredConfig`] — layered (DAG-like) instances in which paths flow
//!   from layer to layer, designed so that path queries of interesting length
//!   are sometimes certain and sometimes not.

use cqa_core::symbol::RelName;
use cqa_db::fact::Constant;
use cqa_db::instance::DatabaseInstance;
use rand::rngs::StdRng;
use rand::Rng as _;
use rand::RngExt as _;
use rand::SeedableRng;

/// Configuration of the uniform random generator.
#[derive(Debug, Clone)]
pub struct RandomInstanceConfig {
    /// Relation names to draw facts from.
    pub relations: Vec<RelName>,
    /// Size of the constant domain.
    pub domain_size: usize,
    /// Number of facts to draw (duplicates are merged).
    pub num_facts: usize,
    /// RNG seed.
    pub seed: u64,
}

impl RandomInstanceConfig {
    /// A configuration over single-letter relation names.
    pub fn new(
        letters: &str,
        domain_size: usize,
        num_facts: usize,
        seed: u64,
    ) -> RandomInstanceConfig {
        RandomInstanceConfig {
            relations: letters
                .chars()
                .map(|c| RelName::new(&c.to_string()))
                .collect(),
            domain_size,
            num_facts,
            seed,
        }
    }

    /// Generates the instance.
    pub fn generate(&self) -> DatabaseInstance {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut db = DatabaseInstance::new();
        for _ in 0..self.num_facts {
            let rel = self.relations[rng.random_range(0..self.relations.len())];
            let a = rng.random_range(0..self.domain_size);
            let b = rng.random_range(0..self.domain_size);
            db.insert(cqa_db::fact::Fact::new(
                rel,
                Constant::numbered(a),
                Constant::numbered(b),
            ));
        }
        db
    }
}

/// Configuration of the layered generator.
#[derive(Debug, Clone)]
pub struct LayeredConfig {
    /// Relation names, cycled per layer: the edge between layer `i` and
    /// `i + 1` uses `relations[i % relations.len()]`.
    pub relations: Vec<RelName>,
    /// Number of layers of vertices (= path length supported).
    pub layers: usize,
    /// Vertices per layer.
    pub width: usize,
    /// Probability that a vertex has a *second*, conflicting outgoing edge.
    pub conflict_probability: f64,
    /// Probability that a vertex has no outgoing edge at all (a dead end).
    pub dead_end_probability: f64,
    /// RNG seed.
    pub seed: u64,
}

impl LayeredConfig {
    /// A sensible default layered workload for a query word: one layer per
    /// atom plus one, cycling through the query's relation names in order.
    pub fn for_word(word: &cqa_core::word::Word, width: usize, seed: u64) -> LayeredConfig {
        LayeredConfig {
            relations: word.iter().collect(),
            layers: word.len() + 1,
            width,
            conflict_probability: 0.3,
            dead_end_probability: 0.05,
            seed,
        }
    }

    /// Generates the instance.
    pub fn generate(&self) -> DatabaseInstance {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut db = DatabaseInstance::new();
        let vertex = |layer: usize, i: usize| Constant::new(&format!("L{layer}_{i}"));
        for layer in 0..self.layers.saturating_sub(1) {
            let rel = self.relations[layer % self.relations.len()];
            for i in 0..self.width {
                if rng.random_bool(self.dead_end_probability) {
                    continue;
                }
                let to = rng.random_range(0..self.width);
                db.insert(cqa_db::fact::Fact::new(
                    rel,
                    vertex(layer, i),
                    vertex(layer + 1, to),
                ));
                if rng.random_bool(self.conflict_probability) {
                    let other = rng.random_range(0..self.width);
                    db.insert(cqa_db::fact::Fact::new(
                        rel,
                        vertex(layer, i),
                        vertex(layer + 1, other),
                    ));
                }
            }
        }
        db
    }
}

/// A scaling series: the same layered workload at geometrically increasing
/// widths, used by the benchmark harness.
pub fn scaling_series(
    word: &cqa_core::word::Word,
    widths: &[usize],
    seed: u64,
) -> Vec<(usize, DatabaseInstance)> {
    widths
        .iter()
        .map(|&w| {
            let config = LayeredConfig::for_word(word, w, seed ^ (w as u64));
            (w, config.generate())
        })
        .collect()
}

/// A repeated-query certain-answer workload: `per_query` layered instances
/// for each query word, interleaved round-robin the way a batching service
/// front-end would receive them. This is the input shape
/// `cqa_solver::session::CertaintySession::certain_batch` amortizes (one
/// classification / compiled program / automaton per distinct query), and
/// what the `session_batch` bench replays.
pub fn repeated_query_requests(
    words: &[&str],
    per_query: usize,
    width: usize,
    seed: u64,
) -> Vec<(cqa_core::query::PathQuery, DatabaseInstance)> {
    let queries: Vec<cqa_core::query::PathQuery> = words
        .iter()
        .map(|w| cqa_core::query::PathQuery::parse(w).expect("valid query word"))
        .collect();
    let mut out = Vec::with_capacity(queries.len() * per_query);
    for round in 0..per_query {
        for query in &queries {
            let config = LayeredConfig::for_word(
                query.word(),
                width,
                seed ^ ((round as u64) << 16) ^ (query.word().len() as u64),
            );
            out.push((query.clone(), config.generate()));
        }
    }
    out
}

/// A shared-prefix family workload: one layered prefix instance plus
/// `instances` per-request delta instances over the *same* vertex space, so
/// deltas genuinely interact with the prefix (extra — possibly conflicting —
/// outgoing edges, new dead-end escapes), not just sit beside it.
///
/// `delta_ratio` controls how much of each request is private: the delta
/// layer width is `⌈width * delta_ratio⌉` (at least 1), so a ratio of `0.1`
/// yields requests whose facts are ~90% shared prefix. This is the input
/// shape `cqa_solver::session::CertaintySession::certain_batch_family`
/// amortizes (prefix loaded and index-committed once, O(delta) overlay per
/// request), and what the `session_cow` bench replays against fresh-load.
pub fn shared_prefix_families(
    word: &cqa_core::word::Word,
    width: usize,
    instances: usize,
    delta_ratio: f64,
    seed: u64,
) -> cqa_db::family::InstanceFamily {
    let prefix = LayeredConfig::for_word(word, width, seed).generate();
    let delta_width = ((width as f64 * delta_ratio).ceil() as usize).clamp(1, width.max(1));
    let deltas = (0..instances)
        .map(|i| {
            // Delta vertices reuse the prefix's `L{layer}_{j}` names for
            // j < delta_width, so delta edges extend (and conflict with)
            // prefix blocks rather than forming a disjoint component.
            let config = LayeredConfig {
                conflict_probability: 0.4,
                dead_end_probability: 0.1,
                seed: seed ^ 0x5EED_FA31 ^ ((i as u64 + 1) << 20),
                ..LayeredConfig::for_word(word, delta_width, 0)
            };
            config.generate()
        })
        .collect();
    cqa_db::family::InstanceFamily::with_deltas(prefix, deltas)
}

/// One request of a multi-tenant serving stream: which tenant's family it
/// addresses and what query it asks. Produced by [`tenant_request_stream`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantRequest {
    /// Index of the tenant (into whatever tenant list the driver loaded).
    pub tenant: usize,
    /// The path query to decide against every request of that tenant's
    /// family.
    pub query: cqa_core::query::PathQuery,
}

/// A seeded multi-tenant request stream: `requests` draws of
/// `(tenant, query)`, with tenants drawn from a Zipf-ish distribution
/// (weight of tenant `t` proportional to `1 / (t + 1)^skew`) and queries
/// drawn uniformly from `words`. `skew = 0.0` is uniform across tenants;
/// larger skews concentrate traffic on the low-numbered (hot) tenants,
/// which is what makes LRU residency caches earn their keep. This is the
/// input shape `cqa-server`'s dispatch loop serves, and what the loopback
/// load driver replays.
pub fn tenant_request_stream(
    tenants: usize,
    words: &[&str],
    requests: usize,
    skew: f64,
    seed: u64,
) -> Vec<TenantRequest> {
    assert!(tenants > 0, "need at least one tenant");
    assert!(!words.is_empty(), "need at least one query word");
    let queries: Vec<cqa_core::query::PathQuery> = words
        .iter()
        .map(|w| cqa_core::query::PathQuery::parse(w).expect("valid query word"))
        .collect();
    // Cumulative Zipf weights over the tenant indexes.
    let mut cumulative = Vec::with_capacity(tenants);
    let mut total = 0.0f64;
    for t in 0..tenants {
        total += 1.0 / ((t + 1) as f64).powf(skew);
        cumulative.push(total);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut unit = move || (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    (0..requests)
        .map(|_| {
            let draw = unit() * total;
            let tenant = cumulative.partition_point(|&c| c <= draw).min(tenants - 1);
            let query = queries[(unit() * queries.len() as f64) as usize % queries.len()].clone();
            TenantRequest { tenant, query }
        })
        .collect()
}

/// Generates a batch of small random instances suitable for cross-checking a
/// solver against the naive oracle (repair count capped).
pub fn oracle_batch(
    letters: &str,
    count: usize,
    seed: u64,
    max_repairs: u128,
) -> Vec<DatabaseInstance> {
    let mut out = Vec::new();
    let mut s = seed;
    while out.len() < count {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let config = RandomInstanceConfig::new(letters, 5, 6 + (s % 8) as usize, s);
        let db = config.generate();
        if db.repair_count() <= max_repairs {
            out.push(db);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_core::word::Word;

    #[test]
    fn random_generation_is_deterministic_per_seed() {
        let a = RandomInstanceConfig::new("RX", 6, 20, 42).generate();
        let b = RandomInstanceConfig::new("RX", 6, 20, 42).generate();
        let c = RandomInstanceConfig::new("RX", 6, 20, 43).generate();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn layered_instances_respect_layer_structure() {
        let word = Word::from_letters("RRX");
        let db = LayeredConfig::for_word(&word, 10, 7).generate();
        // Every fact goes from layer i to layer i+1 and uses the layer's
        // relation name.
        for fact in db.facts() {
            let key = fact.key.as_str();
            let value = fact.value.as_str();
            let key_layer: usize = key[1..key.find('_').unwrap()].parse().unwrap();
            let value_layer: usize = value[1..value.find('_').unwrap()].parse().unwrap();
            assert_eq!(value_layer, key_layer + 1);
            assert_eq!(fact.rel, word[key_layer % word.len()]);
        }
    }

    #[test]
    fn scaling_series_grows_with_width() {
        let word = Word::from_letters("RRX");
        let series = scaling_series(&word, &[4, 16, 64], 3);
        assert_eq!(series.len(), 3);
        assert!(series[0].1.len() < series[2].1.len());
    }

    #[test]
    fn repeated_query_requests_interleave_round_robin() {
        let requests = repeated_query_requests(&["RRX", "RXRY"], 3, 4, 9);
        assert_eq!(requests.len(), 6);
        // Round-robin: queries alternate, and each (query, round) pair is a
        // deterministic instance.
        assert_eq!(requests[0].0, requests[2].0);
        assert_eq!(requests[1].0, requests[3].0);
        assert_ne!(requests[0].0, requests[1].0);
        let again = repeated_query_requests(&["RRX", "RXRY"], 3, 4, 9);
        assert_eq!(requests[4].1, again[4].1);
        // Distinct rounds draw distinct instances.
        assert_ne!(requests[0].1, requests[2].1);
    }

    #[test]
    fn shared_prefix_families_are_deterministic_and_mostly_shared() {
        let word = Word::from_letters("RRX");
        let family = shared_prefix_families(&word, 20, 5, 0.1, 0x0FA7);
        assert_eq!(family.len(), 5);
        assert!(!family.prefix().is_empty());
        let again = shared_prefix_families(&word, 20, 5, 0.1, 0x0FA7);
        assert_eq!(family, again);
        assert_ne!(family, shared_prefix_families(&word, 20, 5, 0.1, 0x0FA8));
        // Deltas are distinct per request and small relative to the prefix.
        assert_ne!(family.deltas()[0], family.deltas()[1]);
        assert!(
            family.shared_fraction() > 0.8,
            "ratio 0.1 should share most facts, got {}",
            family.shared_fraction()
        );
        // Delta vertices live in the prefix's vertex space, so at least one
        // delta fact shares a block key with (or duplicates) prefix facts.
        let delta_keys: std::collections::BTreeSet<_> = family
            .deltas()
            .iter()
            .flat_map(|d| d.facts().iter().map(|f| f.key))
            .collect();
        assert!(family
            .prefix()
            .facts()
            .iter()
            .any(|f| delta_keys.contains(&f.key)));
        // A fatter delta ratio shares less.
        let fat = shared_prefix_families(&word, 20, 5, 1.0, 0x0FA7);
        assert!(fat.shared_fraction() < family.shared_fraction());
    }

    #[test]
    fn tenant_streams_are_deterministic_and_cover_tenants_and_words() {
        let stream = tenant_request_stream(4, &["RRX", "RXRY"], 400, 0.0, 0x7E4A);
        assert_eq!(stream.len(), 400);
        assert_eq!(
            stream,
            tenant_request_stream(4, &["RRX", "RXRY"], 400, 0.0, 0x7E4A)
        );
        assert_ne!(
            stream,
            tenant_request_stream(4, &["RRX", "RXRY"], 400, 0.0, 0x7E4B)
        );
        // Uniform skew touches every tenant and every word.
        for t in 0..4 {
            assert!(stream.iter().any(|r| r.tenant == t), "tenant {t} never hit");
        }
        let distinct: std::collections::BTreeSet<_> =
            stream.iter().map(|r| r.query.word().clone()).collect();
        assert_eq!(distinct.len(), 2);
        assert!(stream.iter().all(|r| r.tenant < 4));
    }

    #[test]
    fn tenant_skew_concentrates_traffic_on_hot_tenants() {
        let hot_share = |skew: f64| -> f64 {
            let stream = tenant_request_stream(8, &["RRX"], 2000, skew, 0xC01D);
            stream.iter().filter(|r| r.tenant == 0).count() as f64 / 2000.0
        };
        let uniform = hot_share(0.0);
        let skewed = hot_share(1.5);
        assert!(
            (uniform - 1.0 / 8.0).abs() < 0.05,
            "uniform share was {uniform}"
        );
        // With skew 1.5 over 8 tenants, tenant 0's weight is ~52%.
        assert!(skewed > 0.4, "skewed share was {skewed}");
    }

    #[test]
    fn oracle_batches_respect_the_repair_cap() {
        for db in oracle_batch("RX", 10, 99, 1 << 10) {
            assert!(db.repair_count() <= 1 << 10);
        }
    }

    #[test]
    fn conflict_probability_one_forces_inconsistency() {
        let config = LayeredConfig {
            relations: vec![RelName::new("R")],
            layers: 3,
            width: 8,
            conflict_probability: 1.0,
            dead_end_probability: 0.0,
            seed: 1,
        };
        let db = config.generate();
        // With width 8 and forced double edges, some block almost surely has
        // two facts; at the very least the instance is nonempty.
        assert!(!db.is_empty());
        assert!(db.repair_count() >= 1);
    }
}
