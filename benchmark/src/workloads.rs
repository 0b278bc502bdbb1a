//! The four workloads, measured as a client sees them (tracing off). Each
//! builds its inputs from the seed, drives the real `ganswer --serve`
//! binary over loopback (or, for `lib-2hop`, the library in a worker
//! process), checks every output against the gold oracle and reconciles its
//! tally with the server's own counters.

use crate::client::{self, Conn, Response, ServerProc, Session};
use crate::data::{self, Kg, KgSpec, Question, UpsertGen};
use crate::stats::{self, percentile, samples_beyond, OpenLoop, Rng, Zipf};
use ganswer::server::json::Json;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Ask1hopNewconn,
    Ask2hopKeepalive,
    MixedUpsertZipf,
    Lib2hop,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Ask1hopNewconn,
        Workload::Ask2hopKeepalive,
        Workload::MixedUpsertZipf,
        Workload::Lib2hop,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ask1hopNewconn => "ask-1hop-newconn",
            Workload::Ask2hopKeepalive => "ask-2hop-keepalive",
            Workload::MixedUpsertZipf => "mixed-upsert-zipf",
            Workload::Lib2hop => "lib-2hop",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload asks `pool-1hop` (the others ask `pool-2hop`).
    pub fn asks_one_hop(self) -> bool {
        self == Workload::Ask1hopNewconn
    }
}

/// The seed of the graph and of the dictionary mined from it. `--seed`
/// draws the questions, the reader's Zipf picks and the upsert batches, but
/// the data is pinned: the miner's accidental low-confidence two-hop
/// paraphrases differ from seed to seed and move the cost of a two-hop
/// question between 0.17 and 1.3 ms, which would make every latency a
/// property of the seed instead of the code.
pub const DATA_SEED: u64 = 11;
/// Questions per pool: eight times the answer cache's default capacity, so
/// a cycled pool can never hit.
pub const POOL_SIZE: usize = 8192;
/// Open-loop arrival rate of `ask-1hop-newconn`, requests per second.
pub const NEWCONN_RATE: f64 = 120.0;
/// Reader popularity skew in `mixed-upsert-zipf`.
pub const ZIPF_S: f64 = 1.1;
/// `--compact-ops` for the durable server: with ~6 net overlay ops per
/// batch a compaction/checkpoint cycle completes every ~16 upserts.
pub const COMPACT_OPS: usize = 96;
/// Server boots (library loads) whose median is `setup_s`.
pub const SETUP_BOOTS: usize = 3;

/// Everything one run needs to know about where and how big.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// `min(nproc, 4)`: server workers, and the cap on generator threads.
    pub threads: usize,
    /// Scratch directory of this run (under `benchmark/out/`).
    pub dir: PathBuf,
    /// The release `ganswer` binary.
    pub server_bin: PathBuf,
}

/// The generated inputs, in memory and on disk.
pub struct Inputs {
    pub kg: Kg,
    pub snapshot: PathBuf,
    pub dict: PathBuf,
    pub pool_1hop: Vec<Question>,
    pub pool_2hop: Vec<Question>,
}

impl Inputs {
    pub fn generate(ctx: &Ctx) -> Result<Inputs, String> {
        let kg = data::generate(KgSpec::KG_1M, DATA_SEED);
        let mut rng = Rng::new(ctx.seed);
        let pool_1hop = data::pool_1hop(&kg, POOL_SIZE, &mut rng);
        let pool_2hop = data::pool_2hop(&kg, POOL_SIZE, &mut rng);
        let (snapshot, dict) = (ctx.dir.join("kg.snap"), ctx.dir.join("kg.tsv"));
        ganswer::rdf::write_snapshot_file(&kg.store, &snapshot)
            .map_err(|e| format!("{}: {e}", snapshot.display()))?;
        std::fs::write(&dict, kg.dict.to_text(&kg.store))
            .map_err(|e| format!("{}: {e}", dict.display()))?;
        Ok(Inputs { kg, snapshot, dict, pool_1hop, pool_2hop })
    }

    pub fn pool(&self, workload: Workload) -> &[Question] {
        if workload.asks_one_hop() {
            &self.pool_1hop
        } else {
            &self.pool_2hop
        }
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run measured and whether it may be trusted.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Violated invariants (tally mismatch, cache hits on a cycled pool,
    /// too few checkpoints, …). Any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// The metrics `BENCHMARK.json` declares for this mode, in its order:
    /// the gated end-to-end ones, or (traced) the per-layer ones.
    pub declared: Vec<Metric>,
    /// Everything else worth reading: the issue's per-operation names,
    /// sub-window medians, server-side counters.
    pub reported: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn require(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

/// One timed operation: when it completed (offset into the window) and how
/// long the client waited for it.
#[derive(Clone, Copy)]
struct Sample {
    at: Duration,
    latency: Duration,
}

/// A client's count of what it sent and what came back.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Requests that got an HTTP response of any status: what the server's
    /// own request counter must agree with.
    responses: u64,
    shed: u64,
    timeouts: u64,
    cache_hits: u64,
    samples: Vec<Sample>,
    lateness: Vec<Duration>,
    first_failure: Option<String>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.responses += other.responses;
        self.shed += other.shed;
        self.timeouts += other.timeouts;
        self.cache_hits += other.cache_hits;
        self.samples.extend(other.samples);
        self.lateness.extend(other.lateness);
        self.first_failure = self.first_failure.take().or(other.first_failure);
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    /// Book one `/answer` exchange; `latency` is what the client waited.
    fn book_answer(
        &mut self,
        result: std::io::Result<Response>,
        question: &Question,
        window_start: Instant,
        latency_from: Instant,
    ) -> Option<Response> {
        self.attempted += 1;
        let response = match result {
            Ok(r) => r,
            Err(e) => {
                self.fail(format!("I/O: {e}"));
                return None;
            }
        };
        self.responses += 1;
        self.shed += u64::from(response.status == 503);
        self.timeouts += u64::from(response.status == 504);
        self.cache_hits += u64::from(response.cache_hit);
        match check_answer(&response, question) {
            Ok(()) => self.samples.push(Sample {
                at: response.done.saturating_duration_since(window_start),
                latency: response.done.saturating_duration_since(latency_from),
            }),
            Err(why) => self.fail(format!("{:?}: {why}", question.text)),
        }
        Some(response)
    }
}

/// A `200` whose answer texts are exactly the gold set.
pub fn check_answer(response: &Response, question: &Question) -> Result<(), String> {
    if response.status != 200 {
        return Err(format!("status {}", response.status));
    }
    let body = response.json()?;
    let Some(Json::Arr(answers)) = body.get("answers") else {
        return Err("no \"answers\" array".into());
    };
    let texts = answers.iter().filter_map(|a| a.get("text").and_then(Json::as_str));
    if question.is_answered_by(texts) {
        Ok(())
    } else {
        Err(format!("answers differ from gold {:?}", question.gold))
    }
}

/// Summary of one operation type's samples over a window.
struct LatencySummary {
    count: usize,
    p50_ms: f64,
    tail_ms: f64,
    tail_beyond: usize,
    per_s: f64,
    /// Median of each fifth of the window, so drift inside a run is visible.
    sub_p50_ms: [f64; 5],
}

fn summarize(samples: &[Sample], window: Duration, tail_p: f64) -> LatencySummary {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut all: Vec<f64> = samples.iter().map(|s| ms(s.latency)).collect();
    all.sort_by(f64::total_cmp);
    let mut sub_p50_ms = [0.0; 5];
    for (i, slot) in sub_p50_ms.iter_mut().enumerate() {
        let (lo, hi) = (window.mul_f64(i as f64 / 5.0), window.mul_f64((i + 1) as f64 / 5.0));
        let mut part: Vec<f64> =
            samples.iter().filter(|s| s.at >= lo && s.at < hi).map(|s| ms(s.latency)).collect();
        *slot = stats::median(&mut part);
    }
    LatencySummary {
        count: all.len(),
        p50_ms: percentile(&all, 50.0),
        tail_ms: percentile(&all, tail_p),
        tail_beyond: samples_beyond(all.len(), tail_p),
        // Over the time the operations actually took to complete, which
        // overruns the window by the last request in flight.
        per_s: all.len() as f64
            / samples.iter().map(|s| s.at).max().unwrap_or(window).as_secs_f64(),
        sub_p50_ms,
    }
}

impl LatencySummary {
    /// The issue's per-operation names (`answer_*` / `upsert_*`).
    fn report(&self, names: [&'static str; 5], out: &mut Vec<Metric>) {
        let [p50, tail, per_s, samples, sub] = names;
        out.push(metric(p50, self.p50_ms, "ms"));
        out.push(metric(tail, self.tail_ms, "ms"));
        out.push(metric(per_s, self.per_s, "1/s"));
        out.push(metric(samples, self.count as f64, "count"));
        out.push(metric("tail_samples_beyond", self.tail_beyond as f64, "count"));
        for v in self.sub_p50_ms {
            out.push(metric(sub, v, "ms"));
        }
    }

    /// The uniform names the driver gates on: the workload's gated
    /// operation is `/answer` everywhere except `mixed-upsert-zipf`, where
    /// it is the durable upsert.
    fn gate(&self, out: &mut Vec<Metric>) {
        out.push(metric("latency_p50_ms", self.p50_ms, "ms"));
        out.push(metric("latency_tail_ms", self.tail_ms, "ms"));
        out.push(metric("throughput_per_s", self.per_s, "1/s"));
    }
}

const ANSWER_NAMES: [&str; 5] =
    ["answer_p50_ms", "answer_p99_ms", "answer_qps", "answer_samples", "answer_sub_p50_ms"];
const UPSERT_NAMES: [&str; 5] =
    ["upsert_p50_ms", "upsert_p90_ms", "upsert_per_s", "upsert_samples", "upsert_sub_p50_ms"];

/// The server's own account, scraped before and after a window.
struct Scrape {
    metrics: String,
    stores: Json,
}

impl Scrape {
    fn take(addr: SocketAddr) -> Result<Scrape, String> {
        let stores = client::get_ok(addr, "/admin/stores")?;
        Ok(Scrape {
            metrics: client::get_ok(addr, "/metrics")?,
            stores: ganswer::server::json::parse(&stores)?,
        })
    }

    fn counter(&self, series: &str) -> f64 {
        client::metric(&self.metrics, series)
    }

    /// A numeric field of the default store's `/admin/stores` row, e.g.
    /// `["cache", "hits"]`; 0 when the section is `null` (no WAL, no
    /// overlay).
    fn store_field(&self, path: &[&str]) -> f64 {
        let Some(Json::Arr(rows)) = self.stores.get("stores") else { return 0.0 };
        let row = rows.iter().find(|r| r.get("name").and_then(Json::as_str) == Some("default"));
        let leaf = path.iter().fold(row, |v, key| v.and_then(|v| v.get(key)));
        match leaf {
            Some(Json::Num(n)) => *n,
            _ => 0.0,
        }
    }
}

const ANSWER_REQUESTS: &str = "gqa_server_requests_total{endpoint=\"answer\"}";
const ADMIN_REQUESTS: &str = "gqa_server_requests_total{endpoint=\"admin\"}";
const REQUEST_DURATION: &str = "gqa_server_request_duration_seconds";

/// Server-side deltas over the window, printed beside the client's numbers
/// and reconciled with the client's tally.
fn reconcile(
    out: &mut Outcome,
    addr: SocketAddr,
    before: &Scrape,
    answers: &Tally,
    upserts: Option<&Tally>,
) -> Result<Scrape, String> {
    // The server books a request after flushing its response, so the last
    // few may not be counted the instant the client has read them.
    let expected_answers = answers.responses as f64;
    let mut after = Scrape::take(addr)?;
    let mut scrapes = 1.0;
    while scrapes < 100.0
        && after.counter(ANSWER_REQUESTS) - before.counter(ANSWER_REQUESTS) < expected_answers
    {
        std::thread::sleep(Duration::from_millis(10));
        after = Scrape::take(addr)?;
        scrapes += 1.0;
    }
    let delta = |series: &str| after.counter(series) - before.counter(series);
    let seen_answers = delta(ANSWER_REQUESTS);
    out.require(seen_answers == expected_answers, || {
        format!("server counted {seen_answers} /answer requests, client {expected_answers}")
    });
    let (shed, timeouts) = (delta("gqa_server_shed_total"), delta("gqa_server_timeouts_total"));
    let client_shed = (answers.shed + upserts.map_or(0, |u| u.shed)) as f64;
    let client_timeouts = (answers.timeouts + upserts.map_or(0, |u| u.timeouts)) as f64;
    out.require(shed == client_shed, || format!("server shed {shed}, client saw {client_shed}"));
    out.require(timeouts == client_timeouts, || {
        format!("server timed out {timeouts}, client saw {client_timeouts}")
    });
    out.reported.push(metric("server_answer_requests", seen_answers, "count"));
    out.reported.push(metric("server_shed", shed, "count"));
    out.reported.push(metric("server_timeouts", timeouts, "count"));
    if let Some(upserts) = upserts {
        // A scrape's GET /admin/stores is an admin request too, booked
        // before the same scrape's GET /metrics reads the counter: the
        // one in `before` cancels out, the ones since do not.
        let (admin, sent) = (delta(ADMIN_REQUESTS), upserts.responses as f64 + scrapes);
        out.require(admin == sent, || {
            format!("server counted {admin} admin requests, the writer and the scrapes sent {sent}")
        });
    }
    let (h0, h1) = (
        client::histogram(&before.metrics, REQUEST_DURATION),
        client::histogram(&after.metrics, REQUEST_DURATION),
    );
    if let Some(p50) = client::histogram_quantile(&h0, &h1, 0.5) {
        // All routes share this histogram; on the ask workloads every
        // observation in the window but the scrapes is an /answer.
        out.reported.push(metric("server_seen_p50_ms", p50 * 1e3, "ms"));
    }
    for (name, path) in [
        ("cache_hits", &["cache", "hits"][..]),
        ("cache_misses", &["cache", "misses"]),
        ("cache_stale", &["cache", "stale"]),
        ("cache_evictions", &["cache", "evictions"]),
        ("wal_group_syncs", &["wal", "group_syncs"]),
        ("wal_group_commits", &["wal", "group_commits"]),
        ("wal_checkpoints", &["wal", "checkpoints"]),
    ] {
        let d = after.store_field(path) - before.store_field(path);
        out.reported.push(metric(name, d, "count"));
    }
    Ok(after)
}

fn server_args(inputs: &Inputs, ctx: &Ctx, durable: Option<&Path>) -> Vec<String> {
    let mut args = vec![
        "--data".to_owned(),
        inputs.snapshot.display().to_string(),
        "--dict".to_owned(),
        inputs.dict.display().to_string(),
        "--threads".to_owned(),
        ctx.threads.to_string(),
    ];
    if let Some(dir) = durable {
        args.extend([
            "--durable".to_owned(),
            dir.display().to_string(),
            "--compact-ops".to_owned(),
            COMPACT_OPS.to_string(),
        ]);
    }
    args
}

/// Boot the server `SETUP_BOOTS` times (each durable boot on a directory of
/// its own), keep the last one running, and report the median
/// spawn-to-healthy time.
fn boot_for_setup(
    ctx: &Ctx,
    inputs: &Inputs,
    durable: bool,
) -> Result<(ServerProc, Vec<String>, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..SETUP_BOOTS {
        if let Some((server, _)) = kept.take() {
            ServerProc::stop(server);
        }
        let dir = ctx.dir.join(format!("durable-{i}"));
        let args = server_args(inputs, ctx, durable.then_some(dir.as_path()));
        let (server, took) =
            ServerProc::boot(&ctx.server_bin, &args, &ctx.dir.join(format!("server-{i}.log")))?;
        times.push(took.as_secs_f64());
        kept = Some((server, args));
    }
    let (server, args) = kept.expect("SETUP_BOOTS > 0");
    Ok((server, args, stats::median(&mut times)))
}

fn window(ctx: &Ctx) -> Duration {
    Duration::from_secs_f64(ctx.seconds)
}

fn sleep_until(t: Instant) {
    std::thread::sleep(t.saturating_duration_since(Instant::now()));
}

/// A closed-loop `/answer` client on one persistent connection.
fn keepalive_reader(
    addr: SocketAddr,
    pool: &[Question],
    mut next: impl FnMut() -> usize,
    start: Instant,
    end: Instant,
) -> Tally {
    let mut tally = Tally::default();
    let mut session = Session::new(addr);
    sleep_until(start);
    while Instant::now() < end {
        let question = &pool[next() % pool.len()];
        let request = client::answer_request(&question.text, true);
        let sent = Instant::now();
        tally.book_answer(session.round_trip(&request), question, start, sent);
    }
    tally
}

/// `ask-1hop-newconn`: an open loop at [`NEWCONN_RATE`], one fresh TCP
/// connection and `Connection: close` per request, latency from the due
/// time.
fn run_newconn(ctx: &Ctx, inputs: &Inputs, addr: SocketAddr, start: Instant) -> Tally {
    let schedule = OpenLoop { rate_per_s: NEWCONN_RATE, senders: ctx.threads };
    let pool = &inputs.pool_1hop;
    let window = window(ctx);
    let mut total = Tally::default();
    std::thread::scope(|scope| {
        let senders: Vec<_> = (0..schedule.senders)
            .map(|j| {
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    for i in schedule.owned_by(j) {
                        let due = schedule.due(i);
                        if due >= window {
                            break;
                        }
                        sleep_until(start + due);
                        let question = &pool[i as usize % pool.len()];
                        let request = client::answer_request(&question.text, false);
                        let sent = start.elapsed();
                        let result = Conn::open(addr).and_then(|mut c| c.round_trip(&request));
                        if let Some(r) = tally.book_answer(result, question, start, start + due) {
                            let done = r.done.saturating_duration_since(start);
                            tally.lateness.push(OpenLoop::account(due, sent, done).lateness);
                        }
                    }
                    tally
                })
            })
            .collect();
        for s in senders {
            total.merge(s.join().expect("sender thread panicked"));
        }
    });
    total
}

/// What the writer knows about a batch the server acknowledged.
struct Acked {
    batch: usize,
    epoch: u64,
    deletes_batch: Option<usize>,
}

/// `mixed-upsert-zipf`'s writer: closed loop, one persistent connection,
/// one batch in flight.
fn run_writer(
    addr: SocketAddr,
    gen: &mut UpsertGen<'_>,
    start: Instant,
    end: Instant,
) -> (Tally, Vec<Acked>, u64) {
    let mut tally = Tally::default();
    let mut acked = Vec::new();
    let mut user_bytes = 0u64;
    let mut session = Session::new(addr);
    let mut batch_no = 0usize;
    sleep_until(start);
    while Instant::now() < end {
        let batch = gen.next_batch();
        let request =
            client::request_bytes("POST", "/admin/stores/default/upsert", &batch.body, true);
        tally.attempted += 1;
        let sent = Instant::now();
        match session.round_trip(&request) {
            Err(e) => tally.fail(format!("upsert {batch_no}: I/O: {e}")),
            Ok(r) => {
                tally.responses += 1;
                tally.shed += u64::from(r.status == 503);
                tally.timeouts += u64::from(r.status == 504);
                let field = |body: &Json, k: &str| body.get(k).and_then(Json::as_uint);
                match r.json() {
                    Ok(body)
                        if r.status == 200
                            && field(&body, "added") == Some(data::BATCH_ADDS as u64)
                            && field(&body, "deleted") == Some(batch.deletes as u64)
                            && field(&body, "noops") == Some(0) =>
                    {
                        user_bytes += batch.body.len() as u64;
                        tally.samples.push(Sample {
                            at: r.done.saturating_duration_since(start),
                            latency: r.done.saturating_duration_since(sent),
                        });
                        acked.push(Acked {
                            batch: batch_no,
                            epoch: field(&body, "epoch").unwrap_or(0),
                            deletes_batch: batch.deletes_batch,
                        });
                    }
                    other => tally.fail(format!(
                        "upsert {batch_no}: status {}, body {:?}, sent {} adds {} deletes",
                        r.status,
                        other.map(|b| b.to_string()),
                        data::BATCH_ADDS,
                        batch.deletes
                    )),
                }
            }
        }
        batch_no += 1;
    }
    (tally, acked, user_bytes)
}

fn note_failures(out: &mut Outcome, what: &str, tally: &Tally) {
    out.attempted += tally.attempted;
    out.failed += tally.failed;
    if let Some(why) = &tally.first_failure {
        out.problems
            .push(format!("{what}: {} of {} failed, first: {why}", tally.failed, tally.attempted));
    }
}

/// `ask-1hop-newconn` and `ask-2hop-keepalive`.
fn run_ask(ctx: &Ctx, inputs: &Inputs, workload: Workload) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (server, _, setup_s) = boot_for_setup(ctx, inputs, false)?;
    let before = Scrape::take(server.addr)?;
    let start = Instant::now() + Duration::from_millis(20);
    let tally = if workload == Workload::Ask1hopNewconn {
        run_newconn(ctx, inputs, server.addr, start)
    } else {
        let (end, pool, clients) = (start + window(ctx), &inputs.pool_2hop, ctx.threads);
        let mut total = Tally::default();
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..clients)
                .map(|c| {
                    // Client c asks questions c, c + clients, …: distinct
                    // across clients, so nothing is ever asked twice.
                    let mut asked = (c..).step_by(clients);
                    let next = move || asked.next().expect("unbounded");
                    scope.spawn(move || keepalive_reader(server.addr, pool, next, start, end))
                })
                .collect();
            for r in readers {
                total.merge(r.join().expect("reader thread panicked"));
            }
        });
        total
    };
    let after = reconcile(&mut out, server.addr, &before, &tally, None)?;
    note_failures(&mut out, "answers", &tally);
    // A cycled pool is 8x the cache: a hit means the workload is not
    // measuring what it claims to.
    let server_hits =
        after.store_field(&["cache", "hits"]) - before.store_field(&["cache", "hits"]);
    out.require(tally.cache_hits == 0 && server_hits == 0.0, || {
        format!(
            "cycled pool hit the answer cache ({} client, {server_hits} server)",
            tally.cache_hits
        )
    });
    let summary = summarize(&tally.samples, window(ctx), 99.0);
    out.declared.push(metric("setup_s", setup_s, "s"));
    summary.gate(&mut out.declared);
    out.declared.push(metric("rss_mb", server.vm_hwm_mb()?, "MB"));
    summary.report(ANSWER_NAMES, &mut out.reported);
    if !tally.lateness.is_empty() {
        let mut late: Vec<f64> = tally.lateness.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        late.sort_by(f64::total_cmp);
        out.reported.push(metric("generator_lateness_p50_ms", percentile(&late, 50.0), "ms"));
        out.reported.push(metric("generator_lateness_p99_ms", percentile(&late, 99.0), "ms"));
        out.reported.push(metric("generator_lateness_max_ms", percentile(&late, 100.0), "ms"));
    }
    server.stop();
    Ok(out)
}

/// `mixed-upsert-zipf`: one writer and one Zipf reader against a durable
/// server, then `kill -9`, recovery, and a check that no acked write was
/// lost.
fn run_mixed(ctx: &Ctx, inputs: &Inputs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (server, args, setup_s) = boot_for_setup(ctx, inputs, true)?;
    let addr = server.addr;
    let before = Scrape::take(addr)?;
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + window(ctx);
    let mut gen = UpsertGen::new(&inputs.kg, Rng::new(ctx.seed ^ 0x5755));
    let zipf = Zipf::new(inputs.pool_2hop.len(), ZIPF_S);
    let mut reader_rng = Rng::new(ctx.seed ^ 0x5244);
    let (reads, (writes, acked, user_bytes)) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let next = || zipf.sample(&mut reader_rng);
            keepalive_reader(addr, &inputs.pool_2hop, next, start, end)
        });
        let writer = scope.spawn(|| run_writer(addr, &mut gen, start, end));
        (
            reader.join().expect("reader thread panicked"),
            writer.join().expect("writer thread panicked"),
        )
    });
    let after = reconcile(&mut out, addr, &before, &reads, Some(&writes))?;
    note_failures(&mut out, "answers", &reads);
    note_failures(&mut out, "upserts", &writes);
    let delta = |path: &[&str]| after.store_field(path) - before.store_field(path);
    let server_hits = delta(&["cache", "hits"]);
    out.require(server_hits == reads.cache_hits as f64, || {
        format!("server counted {server_hits} cache hits, reader saw {}", reads.cache_hits)
    });
    out.require(delta(&["wal", "group_commits"]) == acked.len() as f64, || {
        format!(
            "{} group commits for {} acked upserts",
            delta(&["wal", "group_commits"]),
            acked.len()
        )
    });
    // Enough net overlay ops for n compactions must have produced n - 1
    // checkpoints (the last may still be folding); full-length windows
    // reach three.
    let net_ops = data::BATCH_ADDS * acked.iter().filter(|a| a.deletes_batch.is_none()).count();
    let due = (net_ops / COMPACT_OPS).saturating_sub(1).min(3) as f64;
    let checkpoints = delta(&["wal", "checkpoints"]);
    out.require(checkpoints >= due, || {
        format!(
            "{checkpoints} checkpoints after {net_ops} net overlay ops, expected at least {due}"
        )
    });
    if user_bytes > 0 {
        // Bytes appended to the log over the window, whichever generation
        // they landed in: the current log plus what rotations retired.
        out.reported.push(metric("wal_bytes_now", after.store_field(&["wal", "wal_bytes"]), "B"));
        out.reported.push(metric("upsert_user_bytes", user_bytes as f64, "B"));
        out.reported.push(metric(
            "fsyncs_per_ack",
            delta(&["wal", "group_syncs"]) / acked.len().max(1) as f64,
            "ratio",
        ));
    }
    out.reported.push(metric("overlay_adds_now", after.store_field(&["overlay", "adds"]), "count"));
    out.reported.push(metric("overlay_dels_now", after.store_field(&["overlay", "dels"]), "count"));
    out.reported.push(metric(
        "cache_hit_rate",
        reads.cache_hits as f64 / reads.responses.max(1) as f64,
        "ratio",
    ));
    let rss_mb = server.vm_hwm_mb()?;

    // The crash: SIGKILL, reboot on the same directory, and every batch
    // that was acked and never deleted must already be there.
    server.kill9();
    let (server, recover) =
        ServerProc::boot(&ctx.server_bin, &args, &ctx.dir.join("server-recovered.log"))?;
    let health = ganswer::server::json::parse(&client::get_ok(server.addr, "/healthz")?)?;
    let epoch = ["stores", "default", "epoch"]
        .iter()
        .try_fold(&health, |v, k| v.get(k))
        .and_then(Json::as_uint)
        .unwrap_or(0);
    let last_acked = acked.iter().map(|a| a.epoch).max().unwrap_or(0);
    out.require(epoch >= last_acked, || {
        format!("recovered at epoch {epoch}, below the last acked epoch {last_acked}")
    });
    let deleted: Vec<usize> = acked.iter().filter_map(|a| a.deletes_batch).collect();
    let survivors = acked.iter().map(|a| a.batch).filter(|b| !deleted.contains(b));
    let (body, lines) = gen.resend_body(survivors);
    if lines > 0 {
        let r = client::one_shot(server.addr, "POST", "/admin/stores/default/upsert", &body)?;
        let body = r.json()?;
        let field = |k: &str| body.get(k).and_then(Json::as_uint).unwrap_or(u64::MAX);
        out.attempted += 1;
        if r.status != 200 || field("added") != 0 || field("noops") != lines as u64 {
            out.failed += 1;
            out.problems.push(format!(
                "after the crash {lines} acked triples were re-sent: status {}, {} had been lost, \
                 {} were no-ops",
                r.status,
                field("added"),
                field("noops")
            ));
        }
        out.reported.push(metric("recovered_noops", field("noops") as f64, "count"));
    }
    server.stop();

    let upserts = summarize(&writes.samples, window(ctx), 90.0);
    let answers = summarize(&reads.samples, window(ctx), 99.0);
    out.declared.push(metric("setup_s", setup_s, "s"));
    upserts.gate(&mut out.declared);
    out.declared.push(metric("rss_mb", rss_mb, "MB"));
    upserts.report(UPSERT_NAMES, &mut out.reported);
    answers.report(ANSWER_NAMES, &mut out.reported);
    out.reported.push(metric("recover_s", recover.as_secs_f64(), "s"));
    Ok(out)
}

/// `lib-2hop`: the library path, in a worker process of this same binary
/// so that it sees only the generated files and its peak memory is the
/// library's, not the generator's.
fn run_lib(ctx: &Ctx, inputs: &Inputs) -> Result<Outcome, String> {
    let pool_file = ctx.dir.join("pool-2hop.tsv");
    let mut text = String::new();
    for q in &inputs.pool_2hop {
        text.push_str(&q.text);
        for g in &q.gold {
            text.push('\t');
            text.push_str(g);
        }
        text.push('\n');
    }
    std::fs::write(&pool_file, text).map_err(|e| format!("{}: {e}", pool_file.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .arg("--lib-worker")
        .args([&inputs.snapshot, &inputs.dict, &pool_file])
        .args([ctx.seconds.to_string(), ctx.threads.to_string()])
        .output()
        .map_err(|e| format!("spawn lib worker: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "lib worker failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    lib_worker_parse(&String::from_utf8_lossy(&output.stdout))
}

/// The worker half of `lib-2hop`: load the generated files `SETUP_BOOTS`
/// times, warm up for a tenth of the window, then answer `pool-2hop` in a
/// closed loop from one caller thread. Prints `name value unit` lines.
pub fn lib_worker(args: &[String]) -> Result<(), String> {
    use ganswer::core::concurrency::Concurrency;
    use ganswer::core::pipeline::{GAnswer, GAnswerConfig};
    use ganswer::paraphrase::ParaphraseDict;
    let [snapshot, dict, pool, seconds, threads] = args else {
        return Err("usage: --lib-worker SNAPSHOT DICT POOL SECONDS THREADS".into());
    };
    let seconds: f64 = seconds.parse().map_err(|e| format!("seconds: {e}"))?;
    let threads: usize = threads.parse().map_err(|e| format!("threads: {e}"))?;
    let pool: Vec<Question> = std::fs::read_to_string(pool)
        .map_err(|e| format!("{pool}: {e}"))?
        .lines()
        .map(|l| {
            let mut fields = l.split('\t').map(str::to_owned);
            Question { text: fields.next().unwrap_or_default(), gold: fields.collect() }
        })
        .collect();
    let config = GAnswerConfig {
        concurrency: Concurrency::with_threads(threads),
        ..GAnswerConfig::default()
    };
    let load = || -> Result<GAnswer<'static>, String> {
        let bytes = std::fs::read(snapshot).map_err(|e| format!("{snapshot}: {e}"))?;
        let store = ganswer::rdf::read_snapshot(&bytes).map_err(|e| e.to_string())?;
        let text = std::fs::read_to_string(dict).map_err(|e| format!("{dict}: {e}"))?;
        let dict = ParaphraseDict::from_text(&text, &store)?;
        Ok(GAnswer::shared(
            std::sync::Arc::new(store),
            dict,
            config.clone(),
            ganswer::obs::Obs::disabled(),
        ))
    };
    let mut loads = Vec::new();
    let mut system = None;
    for _ in 0..SETUP_BOOTS {
        drop(system.take());
        let t0 = Instant::now();
        system = Some(load()?);
        loads.push(t0.elapsed().as_secs_f64());
    }
    let system = system.expect("SETUP_BOOTS > 0");
    let mut next = 0usize;
    let warm_until = Instant::now() + Duration::from_secs_f64(seconds / 10.0);
    while Instant::now() < warm_until {
        std::hint::black_box(system.answer(&pool[next % pool.len()].text));
        next += 1;
    }
    let window = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut tally = Tally::default();
    while start.elapsed() < window {
        let question = &pool[next % pool.len()];
        next += 1;
        tally.attempted += 1;
        let t0 = Instant::now();
        let response = system.answer(&question.text);
        let latency = t0.elapsed();
        if question.is_answered_by(response.texts()) {
            tally.samples.push(Sample { at: start.elapsed(), latency });
        } else {
            tally.fail(format!(
                "{:?} → {:?}, gold {:?}",
                question.text,
                response.texts(),
                question.gold
            ));
        }
    }
    let s = summarize(&tally.samples, window, 99.0);
    println!("setup_s {}", stats::median(&mut loads));
    println!("p50_ms {}\ntail_ms {}\nper_s {}", s.p50_ms, s.tail_ms, s.per_s);
    println!("count {}\nbeyond {}", s.count, s.tail_beyond);
    println!("sub {}", s.sub_p50_ms.map(|v| v.to_string()).join(" "));
    println!("rss_mb {}", client::vm_hwm_mb("self")?);
    println!("attempted {}\nfailed {}", tally.attempted, tally.failed);
    if let Some(why) = tally.first_failure {
        println!("failure {why}");
    }
    Ok(())
}

fn lib_worker_parse(stdout: &str) -> Result<Outcome, String> {
    let field = |name: &str| -> Result<&str, String> {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
            .ok_or_else(|| format!("lib worker printed no {name:?}"))
    };
    let num = |name: &str| -> Result<f64, String> {
        field(name)?.parse::<f64>().map_err(|e| format!("lib worker {name}: {e}"))
    };
    let mut sub_p50_ms = [0.0; 5];
    for (slot, v) in sub_p50_ms.iter_mut().zip(field("sub")?.split(' ')) {
        *slot = v.parse().map_err(|e| format!("lib worker sub: {e}"))?;
    }
    let summary = LatencySummary {
        count: num("count")? as usize,
        p50_ms: num("p50_ms")?,
        tail_ms: num("tail_ms")?,
        tail_beyond: num("beyond")? as usize,
        per_s: num("per_s")?,
        sub_p50_ms,
    };
    let mut out = Outcome {
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        ..Outcome::default()
    };
    if let Ok(why) = field("failure") {
        out.problems
            .push(format!("answers: {} of {} failed, first: {why}", out.failed, out.attempted));
    }
    out.declared.push(metric("setup_s", num("setup_s")?, "s"));
    summary.gate(&mut out.declared);
    out.declared.push(metric("rss_mb", num("rss_mb")?, "MB"));
    summary.report(ANSWER_NAMES, &mut out.reported);
    Ok(out)
}

/// Run one workload with tracing off.
pub fn run(ctx: &Ctx, inputs: &Inputs, workload: Workload) -> Result<Outcome, String> {
    let mut out = match workload {
        Workload::Ask1hopNewconn | Workload::Ask2hopKeepalive => run_ask(ctx, inputs, workload)?,
        Workload::MixedUpsertZipf => run_mixed(ctx, inputs)?,
        Workload::Lib2hop => run_lib(ctx, inputs)?,
    };
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    out.reported.push(metric("error_rate", error_rate, "ratio"));
    Ok(out)
}
