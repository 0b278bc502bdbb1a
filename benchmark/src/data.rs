//! Inputs and the gold oracle: the `scale_qa` graph with its mined
//! dictionary, the two question pools, and the upsert batches. Everything
//! is a pure function of the seed and read through the store's public API.

use crate::stats::Rng;
use ganswer::datagen::scaleqa::{scale_qa, ScaleQaConfig};
use ganswer::paraphrase::miner::{mine, MinerConfig};
use ganswer::paraphrase::ParaphraseDict;
use ganswer::rdf::{Store, TermId, Triple};
use std::collections::HashSet;

/// The seven phrased predicates of `scale_qa` with their one-hop question
/// templates (`scaleqa.rs` keeps its copy private).
const ONE_HOP: &[(&str, &str)] = &[
    ("dbo:spouse", "Who is married to {}?"),
    ("dbo:starring", "Who starred in {}?"),
    ("dbo:director", "Who directed {}?"),
    ("dbo:birthPlace", "Who was born in {}?"),
    ("dbo:foundedBy", "Who founded {}?"),
    ("dbo:developer", "Who developed {}?"),
    ("dbo:creator", "Who created {}?"),
];

/// The predicates upsert batches write: phrased (so the linker, schema and
/// literal indexes all see them) but never asked about by `pool-2hop`, so
/// the reader's gold stays valid while the writer runs.
const UPSERT_PREDICATES: &[&str] = &["dbo:starring", "dbo:director"];

/// Size of the generated graph.
#[derive(Clone, Copy, Debug)]
pub struct KgSpec {
    pub entities: usize,
    pub edges_per_predicate: usize,
    pub noise_predicates: usize,
    pub noise_edges: usize,
}

impl KgSpec {
    /// `kg-1m`: 1,199,970 triples.
    pub const KG_1M: KgSpec = KgSpec {
        entities: 50_000,
        edges_per_predicate: 150_000,
        noise_predicates: 10,
        noise_edges: 15_000,
    };
}

/// The graph and the dictionary mined from it.
pub struct Kg {
    pub store: Store,
    pub dict: ParaphraseDict,
    pub entities: usize,
}

pub fn generate(spec: KgSpec, seed: u64) -> Kg {
    let qa = scale_qa(&ScaleQaConfig {
        entities: spec.entities,
        edges_per_predicate: spec.edges_per_predicate,
        noise_predicates: spec.noise_predicates,
        noise_edges: spec.noise_edges,
        questions: 0,
        two_hop_fraction: 0.0,
        seed,
    });
    let dict = mine(&qa.store, &qa.phrases, &MinerConfig { theta: 2, ..Default::default() });
    Kg { store: qa.store, dict, entities: spec.entities }
}

/// One question with its gold answers (sorted, distinct entity labels).
#[derive(Clone, Debug, PartialEq)]
pub struct Question {
    pub text: String,
    pub gold: Vec<String>,
}

impl Question {
    /// Whether `answers` is exactly the gold set, in any order.
    pub fn is_answered_by<'a>(&self, answers: impl IntoIterator<Item = &'a str>) -> bool {
        let mut got: Vec<&str> = answers.into_iter().collect();
        got.sort_unstable();
        got.dedup();
        got.len() == self.gold.len() && got.iter().zip(&self.gold).all(|(g, w)| g == w)
    }
}

fn entity_iri(i: usize) -> String {
    format!("dbr:E{i}")
}

fn labels(store: &Store, ids: impl Iterator<Item = TermId>) -> Vec<String> {
    let mut out: Vec<String> = ids.map(|id| store.term(id).label().into_owned()).collect();
    out.sort();
    out.dedup();
    out
}

/// Orientation-free neighbours of `e` over predicate `p` (Definition 3).
fn neighbours(store: &Store, e: TermId, p: TermId) -> impl Iterator<Item = TermId> + '_ {
    store.objects(e, p).chain(store.subjects(p, e))
}

/// `pool-1hop`: `n` distinct (template, anchor) questions with non-empty
/// gold.
pub fn pool_1hop(kg: &Kg, n: usize, rng: &mut Rng) -> Vec<Question> {
    let preds: Vec<TermId> = ONE_HOP.iter().map(|(p, _)| kg.store.expect_iri(p)).collect();
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(n);
    // Far more (template, anchor) pairs exist than are asked for; the cap
    // only keeps a degenerate tiny graph from looping forever.
    for _ in 0..n.saturating_mul(64) {
        if pool.len() == n {
            break;
        }
        let (t, e) = (rng.below(ONE_HOP.len()), rng.below(kg.entities));
        if !seen.insert((t, e)) {
            continue;
        }
        let Some(anchor) = kg.store.iri(&entity_iri(e)) else { continue };
        let gold = labels(&kg.store, neighbours(&kg.store, anchor, preds[t]));
        if gold.is_empty() {
            continue;
        }
        let text = ONE_HOP[t].1.replace("{}", &kg.store.term(anchor).label());
        pool.push(Question { text, gold });
    }
    pool
}

/// `pool-2hop`: "Who is married to a person that was born in {place}?"
/// over `n` distinct places. Gold is every `x` spouse-adjacent to some `y`
/// birth-adjacent to the place, as `scaleqa.rs` computes it.
pub fn pool_2hop(kg: &Kg, n: usize, rng: &mut Rng) -> Vec<Question> {
    let spouse = kg.store.expect_iri("dbo:spouse");
    let birth = kg.store.expect_iri("dbo:birthPlace");
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(n);
    for _ in 0..n.saturating_mul(64) {
        if pool.len() == n {
            break;
        }
        let e = rng.below(kg.entities);
        if !seen.insert(e) {
            continue;
        }
        let Some(place) = kg.store.iri(&entity_iri(e)) else { continue };
        let gold = labels(
            &kg.store,
            neighbours(&kg.store, place, birth).flat_map(|y| neighbours(&kg.store, y, spouse)),
        );
        if gold.is_empty() {
            continue;
        }
        let text = format!(
            "Who is married to a person that was born in {}?",
            kg.store.term(place).label()
        );
        pool.push(Question { text, gold });
    }
    pool
}

/// One upsert request: its N-Triples body ([`BATCH_ADDS`] new statements,
/// then the deletes) and what the server must report having done with it.
#[derive(Clone, Debug)]
pub struct UpsertBatch {
    pub body: String,
    pub deletes: usize,
    /// The batch whose triples this one deletes, if any.
    pub deletes_batch: Option<usize>,
}

/// Lines added per batch.
pub const BATCH_ADDS: usize = 8;
/// Every `DELETE_EVERY`-th batch also deletes the batch sent this many
/// batches earlier.
pub const DELETE_EVERY: usize = 4;

/// Generates the writer's batches: fresh edges between existing entities,
/// absent from the base store and never repeated within a run.
pub struct UpsertGen<'a> {
    kg: &'a Kg,
    rng: Rng,
    used: HashSet<(usize, usize, usize)>,
    sent: Vec<Vec<String>>,
}

impl<'a> UpsertGen<'a> {
    pub fn new(kg: &'a Kg, rng: Rng) -> Self {
        UpsertGen { kg, rng, used: HashSet::new(), sent: Vec::new() }
    }

    fn fresh_statement(&mut self) -> String {
        loop {
            let p = self.rng.below(UPSERT_PREDICATES.len());
            let (s, o) = (self.rng.below(self.kg.entities), self.rng.below(self.kg.entities));
            if s == o || !self.used.insert((p, s, o)) {
                continue;
            }
            let store = &self.kg.store;
            let (Some(si), Some(oi)) = (store.iri(&entity_iri(s)), store.iri(&entity_iri(o)))
            else {
                continue;
            };
            let pi = store.expect_iri(UPSERT_PREDICATES[p]);
            if store.contains(Triple { s: si, p: pi, o: oi }) {
                continue;
            }
            return format!("<{}> <{}> <{}> .", entity_iri(s), UPSERT_PREDICATES[p], entity_iri(o));
        }
    }

    /// The next batch in sequence.
    pub fn next_batch(&mut self) -> UpsertBatch {
        let index = self.sent.len();
        let adds: Vec<String> = (0..BATCH_ADDS).map(|_| self.fresh_statement()).collect();
        let mut body = adds.join("\n");
        body.push('\n');
        let deletes_batch = (index % DELETE_EVERY == DELETE_EVERY - 1 && index >= DELETE_EVERY)
            .then(|| index - DELETE_EVERY);
        let mut deletes = 0;
        if let Some(victim) = deletes_batch {
            for line in &self.sent[victim] {
                body.push_str("- ");
                body.push_str(line);
                body.push('\n');
                deletes += 1;
            }
        }
        self.sent.push(adds);
        UpsertBatch { body, deletes, deletes_batch }
    }

    /// One body re-sending every statement of the given batches: after a
    /// crash each line must come back as a no-op.
    pub fn resend_body(&self, batches: impl Iterator<Item = usize>) -> (String, usize) {
        let mut body = String::new();
        let mut lines = 0;
        for b in batches {
            for line in &self.sent[b] {
                body.push_str(line);
                body.push('\n');
                lines += 1;
            }
        }
        (body, lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganswer::rdf::ntriples::parse_delta;
    use ganswer::rdf::DeltaOp;

    const SMALL: KgSpec =
        KgSpec { entities: 500, edges_per_predicate: 1_500, noise_predicates: 4, noise_edges: 150 };

    #[test]
    fn pools_are_distinct_nonempty_and_deterministic() {
        let kg = generate(SMALL, 11);
        for build in [pool_1hop, pool_2hop] {
            let pool = build(&kg, 200, &mut Rng::new(5));
            assert_eq!(pool.len(), 200);
            let texts: HashSet<&str> = pool.iter().map(|q| q.text.as_str()).collect();
            assert_eq!(texts.len(), 200, "questions repeat");
            for q in &pool {
                assert!(!q.gold.is_empty(), "{q:?}");
                assert!(q.gold.windows(2).all(|w| w[0] < w[1]), "gold not sorted/distinct: {q:?}");
            }
            assert_eq!(pool, build(&generate(SMALL, 11), 200, &mut Rng::new(5)));
            assert_ne!(pool, build(&kg, 200, &mut Rng::new(6)));
        }
    }

    #[test]
    fn gold_is_what_the_pipeline_answers() {
        use ganswer::core::pipeline::{GAnswer, GAnswerConfig};
        let kg = generate(SMALL, 11);
        let system = GAnswer::new(&kg.store, kg.dict.clone(), GAnswerConfig::default());
        let mut rng = Rng::new(5);
        let pools = [pool_1hop(&kg, 60, &mut rng), pool_2hop(&kg, 60, &mut rng)];
        for q in pools.iter().flatten() {
            let r = system.answer(&q.text);
            assert!(q.is_answered_by(r.texts()), "{} → {:?}, gold {:?}", q.text, r.texts(), q.gold);
        }
    }

    #[test]
    fn answer_check_is_exact_set_equality() {
        let q = Question { text: String::new(), gold: vec!["E1".into(), "E2".into()] };
        assert!(q.is_answered_by(["E2", "E1"]));
        assert!(q.is_answered_by(["E1", "E2", "E1"]));
        assert!(!q.is_answered_by(["E1"]));
        assert!(!q.is_answered_by(["E1", "E2", "E3"]));
        assert!(!q.is_answered_by([]));
    }

    #[test]
    fn upsert_batches_are_fresh_unique_and_delete_batch_minus_four() {
        let kg = generate(SMALL, 11);
        let mut gen = UpsertGen::new(&kg, Rng::new(9));
        let mut all_adds = HashSet::new();
        let mut bodies = Vec::new();
        for i in 0..24 {
            let batch = gen.next_batch();
            let delta = parse_delta(&batch.body).expect("body is valid N-Triples");
            let mut adds = Vec::new();
            let mut dels = Vec::new();
            for op in &delta.ops {
                match op {
                    DeltaOp::Upsert(s, p, o) => adds.push((s.clone(), p.clone(), o.clone())),
                    DeltaOp::Delete(s, p, o) => dels.push((s.clone(), p.clone(), o.clone())),
                }
            }
            assert_eq!(adds.len(), BATCH_ADDS);
            assert_eq!(batch.deletes, dels.len());
            for (s, p, o) in &adds {
                let ids = [s, p, o].map(|t| kg.store.lookup_term(t).expect("existing term"));
                let t = Triple { s: ids[0], p: ids[1], o: ids[2] };
                assert!(!kg.store.contains(t), "batch {i} re-adds a base triple");
                assert!(all_adds.insert((s.clone(), p.clone(), o.clone())), "batch {i} repeats");
            }
            if i % 4 == 3 && i >= 4 {
                assert_eq!(batch.deletes_batch, Some(i - 4));
                assert_eq!(dels, bodies[i - 4], "batch {i} must delete batch {}", i - 4);
            } else {
                assert_eq!(batch.deletes_batch, None);
                assert!(dels.is_empty());
            }
            bodies.push(adds);
        }
        let (body, lines) = gen.resend_body([0usize, 5].into_iter());
        assert_eq!(lines, 2 * BATCH_ADDS);
        assert_eq!(parse_delta(&body).unwrap().len(), lines);
        // Applied to the base store the first batch adds exactly its lines,
        // and sending it again changes nothing.
        let first = parse_delta(&UpsertGen::new(&kg, Rng::new(9)).next_batch().body).unwrap();
        let (once, stats) = kg.store.apply_delta(first.clone());
        assert_eq!((stats.added, stats.noops), (BATCH_ADDS, 0));
        assert_eq!(once.apply_delta(first).1.noops, BATCH_ADDS);
    }
}
