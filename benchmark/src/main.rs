//! The repository's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! flash-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! runs one workload in this process, checks its outputs, prints every
//! metric as `name value unit`, and ends with one JSON object on the
//! last line of standard output. Without `--workload` it runs all four,
//! each in a process of its own so that peak memory is per workload.

mod arrivals;
mod churn;
mod gen;
mod layer_report;
mod query_mix;
mod snapshot;
mod stats;
mod sut;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = ["snapshot_k20", "churn_trace", "arrivals_k6", "query_mix"];

/// End-to-end metrics, the same names on every workload (`README.md`
/// says what each one measures where).
pub const END_TO_END: [(&str, &str); 6] = [
    ("wait_p50_ms", "ms"),
    ("wait_tail_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics of the traced run, with how each is measured; a
/// layer a workload bypasses reports 0.
#[rustfmt::skip]
pub const PER_LAYER: [(&str, &str, &str); 34] = [
    ("parse_ms", "ms", "spans around header load and route streaming"),
    ("rules_parsed", "count", "rules the route parser produced"),
    ("interned_matches", "count", "new entries of the match table"),
    ("intern_hits", "count", "intern calls answered by the table"),
    ("route_ms", "ms", "spans around BlockRouter::route"),
    ("wait_ms", "ms", "pool pass: sum of epoch latency - slowest shard's cpu"),
    ("partial_epochs", "count", "pool pass: epochs released incomplete or never"),
    ("flush_ms", "ms", "spans around submit + flush"),
    ("bulk_load_ms", "ms", "spans around bulk_load"),
    ("map_ms", "ms", "ModelManager::timings() deltas"),
    ("reduce_ms", "ms", "ModelManager::timings() deltas"),
    ("apply_ms", "ms", "ModelManager::timings() deltas"),
    ("atomic_overwrites", "count", "map-phase outputs"),
    ("compact_overwrites", "count", "after both reduces"),
    ("classes", "count", "equivalence classes at the end"),
    ("probe_share", "share", "classes probed / (probed + pruned)"),
    ("memo_hit_share", "share", "match memo hits / lookups"),
    ("bdd_ops", "count", "top-level predicate operations"),
    ("bdd_cache_hit_share", "share", "computed-cache hits / lookups"),
    ("bdd_cache_evictions", "count", "computed-cache evictions"),
    ("gc_pause_ms", "ms", "sum of collection pauses"),
    ("peak_live_nodes", "count", "summed over engines"),
    ("loop_ms", "ms", "spans around LoopVerifier::on_model_update"),
    ("regex_ms", "ms", "spans around RegexVerifier::on_model_update"),
    ("blocks_until_verdict", "count", "pool pass: mean block index of an epoch's last verdict"),
    ("publish_ms", "ms", "spans around publish_snapshot"),
    ("classes_per_snapshot", "count", "mean classes per published snapshot"),
    ("exec_us_reach", "us", "median span around query::execute"),
    ("exec_us_waypoint", "us", "median span around query::execute"),
    ("exec_us_what_if", "us", "median span around query::execute"),
    ("queue_us", "us", "pool pass: median query latency - median execute span"),
    ("replay_wall_ms", "ms", "the traced single-thread replay"),
    ("layers_share", "share", "sum of the layers' self times / replay wall"),
    ("trace_overhead_share", "share", "(traced - untraced replay wall) / untraced"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where datasets and trace files go: `out/` beside `Cargo.toml`.
    pub out_dir: PathBuf,
}

/// What one workload measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the outputs are wrong; empty when every check passed.
    pub errors: Vec<String>,
    /// `(name, value, how it was measured)`; units come from the tables
    /// above.
    pub metrics: Vec<(&'static str, f64, String)>,
    /// Further `name value unit` lines that are not gated.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, how: impl Into<String>) {
        self.metrics.push((name, value, how.into()));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Runs `build` at least three times and on until two seconds are spent
/// or a thousand runs are made (a set-up of a millisecond needs that many
/// for a steady median), tearing each result but the last down. Returns
/// the last result with the median build time in seconds.
pub fn timed_setup<T>(mut build: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (T, f64) {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let built = build();
        times.push(t0.elapsed().as_secs_f64());
        let enough = times.len() >= 3 && started.elapsed().as_secs_f64() >= 2.0;
        if enough || times.len() == 1000 {
            return (built, stats::Sample::new(times).median());
        }
        teardown(built);
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: flash-benchmark [--workload <{}>] [--seed <u64>] [--seconds <n>] [--trace <0|1>]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 15.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                WORKLOADS.contains(&value.as_str())
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| seconds = v).is_ok() && seconds > 0.0,
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            eprintln!("bad argument: {flag} {value}");
            return usage();
        }
    }
    let Some(workload) = workload else {
        return run_all(&argv);
    };

    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| "benchmark".into());
    let args = Args {
        workload,
        seed,
        seconds,
        trace,
        out_dir: PathBuf::from(manifest_dir).join("out"),
    };
    let mut outcome = match args.workload.as_str() {
        "snapshot_k20" => snapshot::run(&args),
        "churn_trace" => churn::run(&args),
        "arrivals_k6" => arrivals::run(&args),
        _ => query_mix::run(&args),
    };
    if !args.trace {
        let rss = stats::peak_rss_mib().unwrap_or(f64::NAN);
        outcome.metric("peak_rss_mib", rss, "VmHWM at exit");
    }
    report(&args, outcome)
}

/// Each workload in a fresh process, with the arguments given.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let mut code = ExitCode::SUCCESS;
    for w in WORKLOADS {
        println!("== {w}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", w])
            .args(argv)
            .status();
        if !status.is_ok_and(|s| s.success()) {
            code = ExitCode::FAILURE;
        }
    }
    code
}

fn report(args: &Args, outcome: Outcome) -> ExitCode {
    let per_layer = PER_LAYER.map(|(name, unit, _)| (name, unit));
    let wanted: &[(&str, &str)] = if args.trace { &per_layer } else { &END_TO_END };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for line in &outcome.notes {
        println!("{line}");
    }
    let mut errors = outcome.errors;
    let mut json = Vec::new();
    for (name, unit) in wanted {
        match outcome.metrics.iter().find(|(n, _, _)| n == name) {
            Some((_, value, how)) if value.is_finite() => {
                let value = value + 0.0; // an empty sum is -0
                println!("{name} {value} {unit}  ({how})");
                json.push(format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                ));
            }
            _ => errors.push(format!("metric {name} was not measured")),
        }
    }
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "failed_share {failed_share} share  ({} of {})",
        outcome.failed, outcome.attempted
    );
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        errors.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        json.join(", ")
    );
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
