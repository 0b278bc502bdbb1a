//! The per-layer ledger (`--trace 1`): the workload's operations run
//! in-process, one at a time, with an `Instant` span around each call into
//! a crate's public functions. A child that cannot be timed from outside
//! its parent is a *replayed* call on the same input, recorded with the
//! parent's span as its cause; self time is the parent minus its children.
//! Spans stay in memory and are written to `benchmark/out/` at the end.
//!
//! Layers a workload never enters report 0: that is the "predicted
//! unchanged" column of the README, measured.

use crate::client::{self, Session};
use crate::data::{Question, UpsertGen, BATCH_ADDS};
use crate::stats::{self, percentile, Rng, Zipf};
use crate::workloads::{self, metric, Ctx, Inputs, Metric, Outcome, Workload};
use ganswer::core::answer::answers_from_matches;
use ganswer::core::cache::{config_fingerprint, AnswerCache, AnswerCacheStats, CacheKey};
use ganswer::core::concurrency::Concurrency;
use ganswer::core::mapping::LiteralIndex;
use ganswer::core::pipeline::{GAnswer, GAnswerConfig};
use ganswer::core::sparql_gen::sparql_of_matches;
use ganswer::fault::FaultPlan;
use ganswer::linker::Linker;
use ganswer::nlp::parser::DependencyParser;
use ganswer::obs::Obs;
use ganswer::paraphrase::ParaphraseDict;
use ganswer::rdf::ntriples::parse_delta;
use ganswer::rdf::schema::Schema;
use ganswer::rdf::{GroupWal, Store, Wal};
use ganswer::server::json::{self, Json};
use ganswer::server::{http, Engine, Registry, Server, ServerConfig};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed call.
struct Span {
    name: &'static str,
    /// The operation (request) this span belongs to.
    op: u32,
    /// Index of the span that caused this one.
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    next_op: u32,
}

impl Recorder {
    fn new() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new(), next_op: 0 }
    }

    fn new_op(&mut self) -> u32 {
        self.next_op += 1;
        self.next_op
    }

    /// Time `f`, record the span, return its index and `f`'s value.
    fn time<T>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start = Instant::now();
        let value = std::hint::black_box(f());
        let end = Instant::now();
        (self.push(name, op, parent, start, end), value)
    }

    fn push(
        &mut self,
        name: &'static str,
        op: u32,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span { name, op, parent, start_ns: ns(start), end_ns: ns(end) });
        self.spans.len() - 1
    }

    fn us(&self, span: usize) -> f64 {
        (self.spans[span].end_ns - self.spans[span].start_ns) as f64 / 1e3
    }

    /// Sorted durations of every span with this name, in µs.
    fn durations_us(&self, name: &str) -> Vec<f64> {
        let mut v: Vec<f64> = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.us(i))
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median duration of the spans with this name (0 if there are none:
    /// the workload never entered the layer).
    fn p50_us(&self, name: &str) -> f64 {
        percentile(&self.durations_us(name), 50.0)
    }

    /// Per operation, the total time of its spans with this name (a
    /// question with two mentions has two `linker.link` spans).
    fn per_op_us(&self, name: &str) -> BTreeMap<u32, f64> {
        let mut by_op = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.name == name) {
            *by_op.entry(s.op).or_insert(0.0) += self.us(i);
        }
        by_op
    }

    fn write_json(&self, path: &std::path::Path) -> Result<(), String> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push_str("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}{}\n",
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" },
            ));
        }
        out.push_str("]\n");
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    stats::median(&mut values.collect::<Vec<_>>())
}

/// The pipeline assembled the way `ganswer --serve` assembles it, plus the
/// free-standing copies of its private parts that the replays call.
struct Pipeline {
    store: Arc<Store>,
    system: GAnswer<'static>,
    parser: DependencyParser,
    linker: Linker,
    /// An answer cache of the serving default's size, filled by the traced
    /// asks as the server's would be.
    cache: AnswerCache,
}

/// Set-up layers, each timed [`workloads::SETUP_BOOTS`] times on the
/// generated files: what a boot, a recovery and (for the three derived
/// indexes) every upsert's re-assembly pay.
fn trace_setup(
    rec: &mut Recorder,
    ctx: &Ctx,
    inputs: &Inputs,
    obs: &Obs,
) -> Result<Pipeline, String> {
    let bytes = std::fs::read(&inputs.snapshot).map_err(|e| e.to_string())?;
    let text = std::fs::read_to_string(&inputs.dict).map_err(|e| e.to_string())?;
    let config = GAnswerConfig {
        concurrency: Concurrency::with_threads(ctx.threads),
        ..GAnswerConfig::default()
    };
    let mut built = None;
    for _ in 0..workloads::SETUP_BOOTS {
        let op = rec.new_op();
        let store =
            rec.time("rdf.snapshot_read", op, None, || ganswer::rdf::read_snapshot(&bytes)).1;
        let store = Arc::new(store.map_err(|e| e.to_string())?);
        let dict = rec
            .time("paraphrase.dict_load", op, None, || ParaphraseDict::from_text(&text, &store))
            .1?;
        let (assemble, system) = rec.time("core.assemble", op, None, || {
            GAnswer::shared(Arc::clone(&store), dict, config.clone(), obs.clone())
        });
        // The three derived indexes `GAnswer::shared` builds, replayed.
        let schema = rec.time("rdf.schema", op, Some(assemble), || Schema::new(&store)).1;
        let linker =
            rec.time("linker.build", op, Some(assemble), || Linker::new(&store, &schema)).1;
        rec.time("core.literals", op, Some(assemble), || LiteralIndex::new(&store));
        built = Some((store, system, linker));
    }
    let (store, system, mut linker) = built.expect("SETUP_BOOTS > 0");
    linker.set_max_candidates(config.max_link_candidates);
    let (parser, cache) = (DependencyParser::new(), AnswerCache::with_capacity(1024));
    Ok(Pipeline { store, system, parser, linker, cache })
}

/// Work counters of the traced asks, per answer.
#[derive(Default)]
struct AskCounts {
    asks: u64,
    failed: u64,
    ta_rounds: u64,
    ta_probes: u64,
    ta_pruned: u64,
    rdf_edges: u64,
    first_failure: Option<String>,
}

/// The traced asks. `GAnswer::answer` runs first for every question;
/// its stages are then replayed in one pass per stage, so that each replay
/// finds the processor's caches as cold as the original call did (a
/// replay right after its parent would run warm and understate the stage).
fn trace_asks(rec: &mut Recorder, p: &Pipeline, questions: &[Question], counts: &mut AskCounts) {
    let answered: Vec<_> = questions
        .iter()
        .map(|q| {
            let op = rec.new_op();
            let (span, response) = rec.time("core.answer", op, None, || p.system.answer(&q.text));
            counts.asks += 1;
            if !q.is_answered_by(response.texts()) {
                counts.failed += 1;
                counts
                    .first_failure
                    .get_or_insert_with(|| format!("{:?} → {:?}", q.text, response.texts()));
            }
            (q, op, span, response)
        })
        .collect();
    let understood: Vec<_> = answered
        .iter()
        .map(|(q, op, answer, _)| {
            rec.time("core.understand", *op, Some(*answer), || p.system.understand(&q.text))
        })
        .collect();
    for ((q, op, ..), (understand, _)) in answered.iter().zip(&understood) {
        rec.time("nlp.parse", *op, Some(*understand), || p.parser.parse(&q.text));
    }
    let mapped: Vec<_> = answered
        .iter()
        .zip(&understood)
        .map(|((_, op, answer, _), (_, u))| {
            let u = u.as_ref()?;
            let (span, mapped) = rec.time("core.map", *op, Some(*answer), || p.system.map(&u.sqg));
            Some((span, mapped.ok()?))
        })
        .collect();
    for (((_, op, ..), (_, u)), m) in answered.iter().zip(&understood).zip(&mapped) {
        let (Some(u), Some((map, _))) = (u, m) else { continue };
        for v in u.sqg.vertices.iter().filter(|v| !v.is_wh && !v.is_target) {
            rec.time("linker.link", *op, Some(*map), || p.linker.link(&v.text));
        }
    }
    let store = p.system.store();
    let matched: Vec<_> = answered
        .iter()
        .zip(&mapped)
        .map(|((_, op, answer, _), m)| {
            let (_, mapped) = m.as_ref()?;
            let before = store.metrics().snapshot();
            let (_, (matches, ta)) =
                rec.time("core.topk", *op, Some(*answer), || p.system.evaluate(mapped));
            let after = store.metrics().snapshot();
            counts.ta_rounds += ta.rounds as u64;
            counts.ta_probes += ta.probes as u64;
            counts.ta_pruned += ta.pruned_candidates as u64;
            counts.rdf_edges += (after.spo_lookups - before.spo_lookups)
                + (after.pos_lookups - before.pos_lookups)
                + (after.osp_lookups - before.osp_lookups)
                + (after.bfs_expansions - before.bfs_expansions);
            Some(matches)
        })
        .collect();
    // What `answer` does with the matches: the answer list of the
    // best-scoring group and one SPARQL query per match.
    for (((_, op, answer, _), m), matches) in answered.iter().zip(&mapped).zip(&matched) {
        let (Some((_, mapped)), Some(matches)) = (m, matches) else { continue };
        let target = mapped.sqg.target().unwrap_or(0);
        rec.time("core.render", *op, Some(*answer), || {
            let best = matches.first().map_or(f64::NEG_INFINITY, |m| m.score);
            let tied: Vec<_> = matches.iter().filter(|m| m.score >= best - 1e-9).cloned().collect();
            (
                answers_from_matches(store, &tied, target),
                sparql_of_matches(store, mapped, matches, target),
            )
        });
    }
    // The answer cache in front of the pipeline: the miss and the insert
    // that follows it.
    let fingerprint = config_fingerprint(&p.system.config);
    for (q, op, _, response) in answered {
        let key = CacheKey::new(&q.text, None, fingerprint);
        let response = Arc::new(response);
        rec.time("core.cache", op, None, || {
            let miss = p.cache.lookup(&key, 1);
            (miss, p.cache.insert(key.clone(), 1, response))
        });
    }
}

/// What the in-process server phase observed from the client side.
#[derive(Default)]
struct ServerSide {
    newconn_rt_us: Vec<f64>,
    keepalive_rt_us: Vec<f64>,
    keepalive_ttfb_us: Vec<f64>,
    newconn_ttfb_us: Vec<f64>,
    write_stall_us: Vec<f64>,
    /// Whether the workload itself talks keep-alive: the unattributed time
    /// is taken from the round trips in the workload's own mode.
    keep_alive: bool,
    unattributed_us: Vec<f64>,
    /// The in-process tenant's answer-cache counters at the end.
    cache: Option<AnswerCacheStats>,
    asks: u64,
    failed: u64,
    first_failure: Option<String>,
}

/// The in-process equivalent of `ganswer --serve`: an upsertable engine in
/// a one-tenant registry behind `Server::bind_registry`.
struct Served {
    registry: Arc<Registry>,
    engine: Arc<Engine>,
    server: Server<'static>,
}

fn upsertable_engine(p: &Pipeline, obs: &Obs) -> Engine {
    let (store, dict, config) =
        (Arc::clone(&p.store), p.system.dict().clone(), p.system.config.clone());
    let initial = GAnswer::shared(Arc::clone(&store), dict.clone(), config.clone(), obs.clone());
    let rebuild = {
        let (dict, config, obs) = (dict.clone(), config.clone(), obs.clone());
        move || Ok(GAnswer::shared(Arc::clone(&store), dict.clone(), config.clone(), obs.clone()))
    };
    let obs = obs.clone();
    let assemble = move |store: Store| {
        Ok(GAnswer::shared(Arc::new(store), dict.clone(), config.clone(), obs.clone()))
    };
    Engine::with_assemble(initial, rebuild, assemble)
}

fn serve(ctx: &Ctx, p: &Pipeline, obs: &Obs, durable: bool) -> Result<Served, String> {
    let mut engine = upsertable_engine(p, obs).compact_after(workloads::COMPACT_OPS);
    if durable {
        engine = engine.with_durable(&ctx.dir.join("ledger-durable"), FaultPlan::none())?;
    }
    let engine = Arc::new(engine);
    let config =
        ServerConfig { workers: ctx.threads, cache_capacity: 1024, ..ServerConfig::default() };
    let registry =
        Registry::new("default", Arc::clone(&engine), config.cache_capacity, obs.clone())
            .map_err(|e| e.to_string())?;
    let registry = Arc::new(registry);
    let server = Server::bind_registry("127.0.0.1:0", Arc::clone(&registry), config)
        .map_err(|e| format!("bind: {e}"))?;
    Ok(Served { registry, engine, server })
}

/// One traced round trip. Records the client's span and, replayed on the
/// same bytes, what the server's HTTP and JSON layers do with them.
fn trace_round_trip(
    rec: &mut Recorder,
    side: &mut ServerSide,
    session: &mut Session,
    q: &Question,
    keep_alive: bool,
) {
    let op = rec.new_op();
    // `Connection: close` makes the server end the connection, so the
    // session opens a new one for every such request.
    let request = client::answer_request(&q.text, keep_alive);
    let start = Instant::now();
    side.asks += 1;
    let response = match session.round_trip(&request) {
        Ok(r) if workloads::check_answer(&r, q).is_ok() => r,
        other => {
            side.failed += 1;
            let why = other.map_or_else(|e| e.to_string(), |r| format!("status {}", r.status));
            side.first_failure.get_or_insert(format!("{:?}: {why}", q.text));
            return;
        }
    };
    let name = if keep_alive { "client.keepalive_round_trip" } else { "client.newconn_round_trip" };
    let rt = rec.push(name, op, None, start, response.done);
    let us = |from: Instant, to: Instant| to.saturating_duration_since(from).as_secs_f64() * 1e6;
    let (rt_us, ttfb_us) = (us(start, response.done), us(start, response.first_byte));
    if keep_alive {
        side.keepalive_rt_us.push(rt_us);
        side.keepalive_ttfb_us.push(ttfb_us);
        side.write_stall_us.push(us(response.first_byte, response.done));
    } else {
        side.newconn_rt_us.push(rt_us);
        side.newconn_ttfb_us.push(ttfb_us);
    }
    // The server's own public account of the request, from its response.
    let Ok(body) = response.json() else { return };
    let timing = |k: &str| match body.get("timings_ms").and_then(|t| t.get(k)) {
        Some(Json::Num(ms)) => *ms * 1e3,
        _ => 0.0,
    };
    if !response.cache_hit && keep_alive == side.keep_alive {
        side.unattributed_us.push(rt_us - timing("total") - timing("queue_wait"));
    }

    // Replays: parse the request as the worker does, render and write the
    // response as the worker does.
    let head_end = request.windows(4).position(|w| w == b"\r\n\r\n").map_or(0, |i| i + 4);
    let request_body = &request[head_end..];
    rec.time("server.http", op, Some(rt), || {
        let parsed =
            http::read_request(&mut std::io::Cursor::new(&request), &http::Limits::default());
        let mut wire = Vec::with_capacity(response.body.len() + 256);
        let extra = [("X-Cache", "miss"), ("X-Request-Id", "0000000000000000")];
        let written = http::write_response_conn(
            &mut wire,
            200,
            "application/json",
            &response.body,
            &extra,
            keep_alive,
        );
        (parsed.is_ok(), written.is_ok(), wire.len())
    });
    rec.time("server.json", op, Some(rt), || {
        let parsed = std::str::from_utf8(request_body).map(json::parse);
        (parsed.is_ok(), body.to_string().len())
    });
}

/// What the traced upserts observed.
#[derive(Default)]
struct UpsertSide {
    attempted: u64,
    failed: u64,
    user_bytes: u64,
    wal_bytes: u64,
    /// Checkpoints the durable engine took, and its fsyncs per acked upsert.
    checkpoints: f64,
    fsyncs_per_ack: f64,
    first_failure: Option<String>,
}

/// One traced upsert: `Engine::upsert` through the registry, with its
/// children replayed on the same body (the three derived indexes are the
/// set-up spans: same functions, same-sized input).
fn trace_upsert(
    rec: &mut Recorder,
    side: &mut UpsertSide,
    registry: &Registry,
    scratch_wal: Option<&GroupWal>,
    gen: &mut UpsertGen<'_>,
    name: &'static str,
) {
    let op = rec.new_op();
    let batch = gen.next_batch();
    let (_, delta) = rec.time("rdf.parse_delta", op, None, || parse_delta(&batch.body));
    let Ok(delta) = delta else {
        side.failed += 1;
        return;
    };
    let before = registry.default_tenant().engine().load();
    let replay = delta.clone();
    let (upsert, outcome) = rec.time(name, op, None, || registry.upsert(None, delta));
    side.attempted += 1;
    match outcome {
        Ok(o) if o.stats.added == BATCH_ADDS && o.stats.deleted == batch.deletes => {}
        other => {
            side.failed += 1;
            side.first_failure.get_or_insert(format!("upsert {op}: {other:?}"));
        }
    }
    if let Some(wal) = scratch_wal {
        let bytes = wal.bytes();
        rec.time("rdf.wal", op, Some(upsert), || wal.append(u64::from(op) + 1, &replay).is_ok());
        side.wal_bytes += wal.bytes() - bytes;
        side.user_bytes += batch.body.len() as u64;
    }
    rec.time("rdf.apply_delta", op, Some(upsert), || before.value.store().apply_delta(replay));
}

/// Up to `max_ops` operations, stopping early when `budget` is spent.
fn budgeted(max_ops: usize, budget: Duration) -> impl Iterator<Item = usize> {
    let end = Instant::now() + budget;
    (0..max_ops).take_while(move |_| Instant::now() < end)
}

pub fn run(ctx: &Ctx, inputs: &Inputs, workload: Workload) -> Result<Outcome, String> {
    let mut rec = Recorder::new();
    let mut out = Outcome::default();
    let obs = Obs::new();
    let seconds = |share: f64| Duration::from_secs_f64(ctx.seconds * share);
    // The issue's sizes, scaled down with the window for smoke runs.
    let scale = |n: usize| if ctx.seconds < 10.0 { n / 10 } else { n };
    let pool = inputs.pool(workload);

    let pipeline = trace_setup(&mut rec, ctx, inputs, &obs)?;

    // The pipeline, as every workload runs it.
    let mut counts = AskCounts::default();
    trace_asks(&mut rec, &pipeline, &pool[..scale(2000)], &mut counts);
    out.attempted += counts.asks;
    out.failed += counts.failed;
    if let Some(why) = counts.first_failure.take() {
        out.problems.push(format!("traced asks: {} failed, first: {why}", counts.failed));
    }

    // The serving layers, for the workloads that have a server.
    let mut side =
        ServerSide { keep_alive: workload != Workload::Ask1hopNewconn, ..ServerSide::default() };
    let mut upserts = UpsertSide::default();
    if workload != Workload::Lib2hop {
        let mixed = workload == Workload::MixedUpsertZipf;
        let served = serve(ctx, &pipeline, &obs, mixed)?;
        let addr = served.server.local_addr().map_err(|e| e.to_string())?;
        let shutdown = served.server.shutdown_handle();
        // The log the `rdf.wal` replays append to.
        let scratch = Wal::create(&ctx.dir.join("ledger-scratch.wal"), 1, FaultPlan::none())
            .map_err(|e| e.to_string())?;
        let scratch = GroupWal::new(scratch);
        std::thread::scope(|scope| {
            let running = scope.spawn(|| served.server.run());
            // Questions the traced asks above did not touch, so nothing
            // here is answered from the cache by accident.
            let fresh = &pool[pool.len() / 2..];
            let mut session = Session::new(addr);
            if mixed {
                let zipf = Zipf::new(fresh.len(), workloads::ZIPF_S);
                let mut rng = Rng::new(ctx.seed ^ 0x5244);
                let mut gen = UpsertGen::new(&inputs.kg, Rng::new(ctx.seed ^ 0x5755));
                for _ in budgeted(scale(50), seconds(0.5)) {
                    for _ in 0..4 {
                        let q = &fresh[zipf.sample(&mut rng)];
                        trace_round_trip(&mut rec, &mut side, &mut session, q, true);
                    }
                    let (reg, wal) = (&served.registry, Some(&scratch));
                    trace_upsert(&mut rec, &mut upserts, reg, wal, &mut gen, "registry.upsert");
                }
            } else {
                for i in budgeted(scale(300), seconds(0.15)) {
                    trace_round_trip(&mut rec, &mut side, &mut session, &fresh[2 * i], true);
                }
            }
            let mut session = Session::new(addr);
            for i in budgeted(scale(300), seconds(0.15)) {
                trace_round_trip(&mut rec, &mut side, &mut session, &fresh[2 * i + 1], false);
            }
            shutdown.store(true, Ordering::SeqCst);
            running.join().expect("in-process server panicked");
        });
        side.cache = served.registry.default_tenant().cache().map(AnswerCache::stats);
        if let Some(d) = served.engine.durable_status() {
            upserts.checkpoints = d.checkpoints as f64;
            upserts.fsyncs_per_ack = d.group_syncs as f64 / d.group_commits.max(1) as f64;
        }
        if mixed {
            // The same upsert without a log, then a fold of the overlay
            // those upserts left.
            let mem = Registry::new(
                "default",
                Arc::new(upsertable_engine(&pipeline, &obs)),
                0,
                obs.clone(),
            )
            .map_err(|e| e.to_string())?;
            let mut gen = UpsertGen::new(&inputs.kg, Rng::new(ctx.seed ^ 0x4d45));
            for _ in budgeted(scale(50).min(10), seconds(0.1)) {
                trace_upsert(&mut rec, &mut upserts, &mem, None, &mut gen, "registry.upsert_mem");
            }
            let pinned = mem.default_tenant().engine().load();
            let op = rec.new_op();
            rec.time("rdf.compact", op, None, || pinned.value.store().compact());
        }
    }
    out.attempted += side.asks + upserts.attempted;
    out.failed += side.failed + upserts.failed;
    for (what, why) in [
        ("traced round trips", side.first_failure.take()),
        ("traced upserts", upserts.first_failure.take()),
    ] {
        if let Some(why) = why {
            out.problems.push(format!("{what}: first failure: {why}"));
        }
    }

    let trace_file = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
        "trace-{}-{}.json",
        workload.name(),
        ctx.seed
    ));
    rec.write_json(&trace_file)?;

    out.declared = ledger_metrics(&rec, &counts, &side, &upserts);
    check_layers(&mut out, workload, &rec, &side);
    out.reported.push(metric("spans", rec.spans.len() as f64, "count"));
    out.reported.push(metric("traced_asks", counts.asks as f64, "count"));
    out.reported.push(metric("traced_round_trips", side.asks as f64, "count"));
    out.reported.push(metric("traced_upserts", upserts.attempted as f64, "count"));
    out.reported.push(metric(
        "client.newconn_round_trip_us",
        median_of(side.newconn_rt_us.iter().copied()),
        "us",
    ));
    out.reported.push(metric(
        "client.keepalive_round_trip_us",
        median_of(side.keepalive_rt_us.iter().copied()),
        "us",
    ));
    Ok(out)
}

/// Per operation, `parent − Σ children` over the named spans; the median.
fn self_us(rec: &Recorder, parent: &str, children: &[&str]) -> f64 {
    let mut own = rec.per_op_us(parent);
    for child in children {
        for (op, us) in rec.per_op_us(child) {
            if let Some(total) = own.get_mut(&op) {
                *total -= us;
            }
        }
    }
    median_of(own.into_values())
}

fn ledger_metrics(
    rec: &Recorder,
    counts: &AskCounts,
    side: &ServerSide,
    upserts: &UpsertSide,
) -> Vec<Metric> {
    let cache = side.cache;
    let p50 = |name: &str| rec.p50_us(name);
    let med = |v: &[f64]| median_of(v.iter().copied());
    let per_answer = |n: u64| n as f64 / counts.asks.max(1) as f64;
    let answer = p50("core.answer");
    let has_server = !side.keepalive_rt_us.is_empty() && !side.newconn_rt_us.is_empty();
    // A layer is the difference of two medians only when both exist.
    let when = |cond: bool, v: f64| if cond { v } else { 0.0 };
    let assemble_children = p50("rdf.schema") + p50("linker.build") + p50("core.literals");
    let upsert = p50("registry.upsert");
    vec![
        metric(
            "server.accept_us",
            when(has_server, med(&side.newconn_ttfb_us) - med(&side.keepalive_ttfb_us)),
            "us",
        ),
        metric("server.overhead_us", when(has_server, med(&side.keepalive_rt_us) - answer), "us"),
        metric("server.write_stall_us", med(&side.write_stall_us), "us"),
        metric("server.unattributed_us", med(&side.unattributed_us), "us"),
        metric("server.http_us", p50("server.http"), "us"),
        metric("server.json_us", p50("server.json"), "us"),
        metric("core.cache_us", p50("core.cache"), "us"),
        metric("cache_hit_rate", cache.map_or(0.0, |c| c.hit_rate()), "ratio"),
        metric("cache_stale", cache.map_or(0.0, |c| c.stale as f64), "count"),
        metric("nlp.parse_us", p50("nlp.parse"), "us"),
        metric("core.understand_us", p50("core.understand"), "us"),
        metric("linker.link_us", median_of(rec.per_op_us("linker.link").into_values()), "us"),
        metric("core.map_us", p50("core.map"), "us"),
        metric("core.topk_us", p50("core.topk"), "us"),
        metric("core.render_us", p50("core.render"), "us"),
        metric("ta_rounds", per_answer(counts.ta_rounds), "count"),
        metric("ta_probes", per_answer(counts.ta_probes), "count"),
        metric("ta_pruned", per_answer(counts.ta_pruned), "count"),
        metric("rdf_edges", per_answer(counts.rdf_edges), "count"),
        metric("core.answer_us", answer, "us"),
        metric(
            "core.answer.self_us",
            self_us(
                rec,
                "core.answer",
                &["core.understand", "core.map", "core.topk", "core.render"],
            ),
            "us",
        ),
        metric("rdf.parse_delta_us", p50("rdf.parse_delta"), "us"),
        metric("rdf.wal_us", p50("rdf.wal"), "us"),
        metric("fsyncs_per_ack", upserts.fsyncs_per_ack, "ratio"),
        metric(
            "wal_bytes_per_user_byte",
            upserts.wal_bytes as f64 / upserts.user_bytes.max(1) as f64,
            "ratio",
        ),
        metric("rdf.apply_delta_us", p50("rdf.apply_delta"), "us"),
        metric("registry.upsert_us", upsert, "us"),
        metric("registry.upsert_mem_us", p50("registry.upsert_mem"), "us"),
        metric(
            "registry.upsert.self_us",
            when(
                upsert > 0.0,
                upsert - p50("rdf.wal") - p50("rdf.apply_delta") - assemble_children,
            ),
            "us",
        ),
        metric("rdf.compact_us", p50("rdf.compact"), "us"),
        metric("checkpoints", upserts.checkpoints, "count"),
        metric("rdf.schema_us", p50("rdf.schema"), "us"),
        metric("linker.build_us", p50("linker.build"), "us"),
        metric("core.literals_us", p50("core.literals"), "us"),
        metric("rdf.snapshot_read_us", p50("rdf.snapshot_read"), "us"),
        metric("paraphrase.dict_load_us", p50("paraphrase.dict_load"), "us"),
        metric("core.assemble_us", p50("core.assemble"), "us"),
    ]
}

/// The ledger's own proof that the workloads stress different layers.
fn check_layers(out: &mut Outcome, workload: Workload, rec: &Recorder, side: &ServerSide) {
    let p50 = |name: &str| rec.p50_us(name);
    let answer = p50("core.answer");
    let stages = p50("core.understand") + p50("core.map") + p50("core.topk") + p50("core.render");
    // 15%, or the few microseconds of per-call bookkeeping `answer` adds
    // around its stages, which are a larger share of a one-hop answer.
    out.require((stages - answer).abs() <= (0.15 * answer).max(10.0), || {
        format!(
            "understand + map + topk + render = {stages:.1} us, not within 15% of core.answer \
             {answer:.1} us"
        )
    });
    if workload.asks_one_hop() {
        let rt = median_of(side.newconn_rt_us.iter().copied());
        out.require(answer <= 0.05 * rt, || {
            format!(
                "pool-1hop: core.answer {answer:.1} us is over 5% of the new-connection round \
                 trip {rt:.1} us"
            )
        });
    } else {
        let topk = p50("core.topk");
        out.require(topk >= 0.70 * answer, || {
            format!("pool-2hop: core.topk {topk:.1} us is under 70% of core.answer {answer:.1} us")
        });
    }
    if workload == Workload::MixedUpsertZipf {
        for row in [
            "rdf.parse_delta",
            "rdf.wal",
            "rdf.apply_delta",
            "registry.upsert",
            "registry.upsert_mem",
            "rdf.compact",
        ] {
            out.require(!rec.durations_us(row).is_empty(), || {
                format!("no {row} span was recorded")
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_parent_minus_children_per_operation() {
        let mut rec = Recorder::new();
        let t = rec.origin;
        let at = |us: u64| t + Duration::from_micros(us);
        for (op, parent_us, child_us) in
            [(1, 100, [30, 20]), (2, 200, [50, 50]), (3, 300, [100, 80])]
        {
            let p = rec.push("parent", op, None, at(0), at(parent_us));
            rec.push("child", op, Some(p), at(0), at(child_us[0]));
            rec.push("child", op, Some(p), at(0), at(child_us[1]));
        }
        assert_eq!(rec.p50_us("parent"), 200.0);
        assert_eq!(rec.p50_us("absent"), 0.0);
        assert_eq!(rec.per_op_us("child")[&3], 180.0);
        // 100-50, 200-100, 300-180 → median 100.
        assert_eq!(self_us(&rec, "parent", &["child"]), 100.0);
    }

    #[test]
    fn trace_file_is_json_with_the_documented_fields() {
        let mut rec = Recorder::new();
        let op = rec.new_op();
        let (p, v) = rec.time("core.answer", op, None, || 7);
        rec.time("core.topk", op, Some(p), || ());
        assert_eq!(v, 7);
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&out).unwrap();
        let path = out.join(format!("ledger-test-{}.json", std::process::id()));
        rec.write_json(&path).unwrap();
        let parsed = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let Json::Arr(spans) = parsed else { panic!("not an array") };
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("name").and_then(Json::as_str), Some("core.topk"));
        assert_eq!(spans[1].get("parent").and_then(Json::as_uint), Some(0));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert!(
            spans[1].get("start_ns").and_then(Json::as_uint)
                >= spans[0].get("start_ns").and_then(Json::as_uint)
        );
        assert!(spans[0].get("op").is_some() && spans[0].get("end_ns").is_some());
    }
}
