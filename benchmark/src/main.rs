//! The gated benchmark of ganswer-rs. See `benchmark/README.md`.
//!
//! ```text
//! gqa-benchmark --workload NAME --seed N --seconds S --trace 0|1   # one run, as the gate runs it
//! gqa-benchmark [--seed N] [--seconds S] [--quick] [--repeat N]    # every workload, then every ledger
//! ```

mod client;
mod data;
mod ledger;
mod stats;
mod workloads;

use ganswer::server::json::{self, Json};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Ctx, Inputs, Metric, Outcome, Workload};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    repeat: usize,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args =
        Args { workload: None, seed: 11, seconds: None, trace: false, quick: false, repeat: 1 };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = || Workload::ALL.map(Workload::name).join(", ");
                args.workload = Some(
                    Workload::parse(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}; known: {}", known()))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s}: expected 1 to 600"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--quick" => args.quick = true,
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat 0: expected at least 1".into());
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The repository root: the benchmark package sits directly inside it.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark/ has a parent")
}

/// `BENCHMARK.json`: the one place that names the gated metrics, their
/// bounds and the window length.
struct Spec {
    run_seconds: f64,
    /// `(name, bound, higher_is_better)` per end-to-end metric.
    end_to_end: Vec<(String, f64, bool)>,
    per_layer: Vec<String>,
}

impl Spec {
    fn load() -> Result<Spec, String> {
        let path = repo_root().join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let spec = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let list = |key: &str| match spec.get(key) {
            Some(Json::Arr(items)) => Ok(items.clone()),
            _ => Err(format!("BENCHMARK.json: no {key:?} list")),
        };
        let name = |m: &Json| m.get("name").and_then(Json::as_str).map(str::to_owned);
        let end_to_end = list("end_to_end")?
            .iter()
            .map(|m| {
                let bound = match m.get("bound") {
                    Some(Json::Num(b)) => Some(*b),
                    _ => None,
                };
                let higher = m.get("better").and_then(Json::as_str) == Some("higher");
                Some((name(m)?, bound?, higher))
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("BENCHMARK.json: malformed end_to_end entry")?;
        let per_layer = list("per_layer")?
            .iter()
            .map(name)
            .collect::<Option<Vec<_>>>()
            .ok_or("BENCHMARK.json: malformed per_layer entry")?;
        let run_seconds = match spec.get("run_seconds") {
            Some(Json::Num(s)) => *s,
            _ => return Err("BENCHMARK.json: no run_seconds".into()),
        };
        Ok(Spec { run_seconds, end_to_end, per_layer })
    }
}

/// Build (or find up to date) the release `ganswer` binary next to this
/// executable, so both come out of the same target directory.
fn server_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or_else(|| format!("{}: not inside a cargo target directory", exe.display()))?;
    let status = std::process::Command::new(env!("CARGO"))
        .args(["build", "--release", "--offline", "--quiet", "--bin", "ganswer"])
        .arg("--manifest-path")
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build --release --bin ganswer failed: {status}"));
    }
    let bin = target.join("release").join("ganswer");
    if !bin.is_file() {
        return Err(format!("{}: not built", bin.display()));
    }
    Ok(bin)
}

/// A scratch directory under `benchmark/out/`, removed when dropped unless
/// the run failed (then the server logs in it are the evidence).
struct RunDir {
    path: PathBuf,
    keep: bool,
}

impl RunDir {
    fn create(label: &str) -> Result<RunDir, String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("run-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(RunDir { path, keep: false })
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        if !self.keep {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

fn print_metrics(workload: Workload, kind: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{:<20} {kind:<10} {:<28} {:>14.4} {}", workload.name(), m.name, m.value, m.unit);
    }
}

fn result_json(outcome: &Outcome) -> String {
    let metrics = outcome
        .declared
        .iter()
        .map(|m| {
            let value =
                json::obj(vec![("value", Json::Num(m.value)), ("unit", Json::Str(m.unit.into()))]);
            (m.name, value)
        })
        .collect();
    json::obj(vec![
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", json::obj(metrics)),
    ])
    .to_string()
}

/// One workload, one mode: generate, run, print, and hand back the outcome.
fn run_one(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: &Path,
) -> Result<Outcome, String> {
    let mut dir = RunDir::create(&format!("{}-{seed}-{}", workload.name(), u8::from(trace)))?;
    let threads = std::thread::available_parallelism().map_or(1, usize::from).min(4);
    let ctx =
        Ctx { seed, seconds, threads, dir: dir.path.clone(), server_bin: server_bin.to_owned() };
    println!(
        "# {} seed {seed} seconds {seconds} trace {} threads {threads}",
        workload.name(),
        u8::from(trace)
    );
    let run = || -> Result<Outcome, String> {
        let inputs = Inputs::generate(&ctx)?;
        if trace {
            ledger::run(&ctx, &inputs, workload)
        } else {
            workloads::run(&ctx, &inputs, workload)
        }
    };
    let outcome = run().inspect_err(|_| dir.keep = true)?;
    print_metrics(workload, if trace { "per_layer" } else { "end_to_end" }, &outcome.declared);
    print_metrics(workload, "reported", &outcome.reported);
    println!(
        "{:<20} attempted {} failed {} correct {}",
        workload.name(),
        outcome.attempted,
        outcome.failed,
        outcome.correct()
    );
    for p in &outcome.problems {
        println!("{:<20} PROBLEM {p}", workload.name());
    }
    dir.keep = !outcome.correct();
    Ok(outcome)
}

/// Every workload with tracing off, then every workload's ledger: one
/// `(workload, traced, outcome)` per run.
fn run_all(
    seed: u64,
    seconds: f64,
    server_bin: &Path,
) -> Result<Vec<(Workload, bool, Outcome)>, String> {
    let mut outcomes = Vec::new();
    for trace in [false, true] {
        for workload in Workload::ALL {
            outcomes.push((workload, trace, run_one(workload, seed, seconds, trace, server_bin)?));
        }
    }
    Ok(outcomes)
}

/// `--repeat N`: the whole benchmark N times on consecutive seeds, then
/// min/median/max per gated metric and workload, judged against the bounds
/// in `BENCHMARK.json`: a metric whose values span more than its bound is
/// too noisy to gate, and the two halves of the runs must agree within it.
fn repeat(args: &Args, spec: &Spec, seconds: f64, server_bin: &Path) -> Result<bool, String> {
    let mut runs = Vec::new();
    for i in 0..args.repeat {
        runs.extend(run_all(args.seed + i as u64, seconds, server_bin)?);
    }
    let mut ok = runs.iter().all(|(.., outcome)| outcome.correct());
    println!(
        "\n# {} runs, seeds {}..{}",
        args.repeat,
        args.seed,
        args.seed + args.repeat as u64 - 1
    );
    println!(
        "{:<20} {:<18} {:>12} {:>12} {:>12} {:>8} {:>8}  verdict",
        "workload", "metric", "min", "median", "max", "span", "bound"
    );
    for workload in Workload::ALL {
        for (name, bound, higher) in &spec.end_to_end {
            let mut values: Vec<f64> = runs
                .iter()
                .filter(|(w, traced, _)| *w == workload && !traced)
                .flat_map(|(.., outcome)| outcome.declared.iter().filter(|m| m.name == name))
                .map(|m| m.value)
                .collect();
            if values.is_empty() {
                return Err(format!("{} reported no {name}", workload.name()));
            }
            let half = values.len() / 2;
            let (first, second) = values.split_at_mut(half);
            let halves = (!first.is_empty()).then(|| (stats::median(first), stats::median(second)));
            let median = stats::median(&mut values);
            let (min, max) = (values[0], values[values.len() - 1]);
            let span = (max - min) / median;
            let mut verdict = if span > *bound { "NOISY: report, do not gate" } else { "ok" };
            if let Some((a, b)) = halves {
                let worse = if *higher { (a - b) / a } else { (b - a) / a };
                if !args.quick && worse > *bound {
                    verdict = "FAIL: halves disagree";
                    ok = false;
                }
            }
            println!(
                "{:<20} {name:<18} {min:>12.4} {median:>12.4} {max:>12.4} {span:>8.3} {bound:>8.2}  {verdict}",
                workload.name()
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--lib-worker") {
        let rest: Vec<String> = argv.skip(1).collect();
        return match workloads::lib_worker(&rest) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let run = || -> Result<bool, String> {
        let args = parse_args(argv)?;
        let spec = Spec::load()?;
        let seconds = args.seconds.unwrap_or(if args.quick { 3.0 } else { spec.run_seconds });
        let server_bin = server_binary()?;
        let Some(workload) = args.workload else {
            if args.repeat > 1 {
                return repeat(&args, &spec, seconds, &server_bin);
            }
            let outcomes = run_all(args.seed, seconds, &server_bin)?;
            return Ok(outcomes.iter().all(|(.., outcome)| outcome.correct()));
        };
        let outcome = run_one(workload, args.seed, seconds, args.trace, &server_bin)?;
        // The gate reads the last line; it must carry exactly the metrics
        // BENCHMARK.json declares for this mode.
        let declared: Vec<&str> = if args.trace {
            spec.per_layer.iter().map(String::as_str).collect()
        } else {
            spec.end_to_end.iter().map(|(n, ..)| n.as_str()).collect()
        };
        let printed: Vec<&str> = outcome.declared.iter().map(|m| m.name).collect();
        if printed != declared {
            return Err(format!(
                "BENCHMARK.json declares {declared:?}, the run produced {printed:?}"
            ));
        }
        println!("{}", result_json(&outcome));
        Ok(true)
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
