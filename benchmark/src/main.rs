//! The repository benchmark: curated-class serving reads, durable commits
//! and crash recovery over the BSBM store, with a traced per-layer split.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <read-curated|write-durable|restart> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every metric is printed by name with its
//! unit; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones (and writes the
//! recorded spans under `.bench_trace/`). Scratch files live under
//! `.bench_tmp/` and are removed before exit.

mod fixture;
mod summary;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use workloads::{Tally, Workload};

const USAGE: &str = "usage: parambench-perf --workload <read-curated|write-durable|restart> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Every environment knob the program reads. Each one selects a different
/// program (a stress mode, another execution or load path, another scale),
/// so the benchmark refuses to report numbers while any is set.
const KNOBS: [&str; 8] = [
    parambench_sparql::serve::WAL_STRESS_ENV,
    parambench_rdf::store::OVERLAY_STRESS_ENV,
    parambench_rdf::snapshot::SNAPSHOT_FREEZE_ENV,
    parambench_rdf::snapshot::SNAPSHOT_MMAP_ENV,
    parambench_rdf::snapshot::SNAPSHOT_VERIFY_ENV,
    parambench_sparql::exec::MEM_BUDGET_ENV,
    parambench_sparql::exec::ORDER_EXEC_ENV,
    "PARAMBENCH_TRIPLES",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |key: &str| -> Result<String, String> {
        let i = args.iter().position(|a| a == key).ok_or_else(|| format!("missing {key}"))?;
        args.get(i + 1).cloned().ok_or_else(|| format!("{key} needs a value"))
    };
    let workload = get("--workload")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "bad --seconds".to_string())?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must lie in (0, 120]".into());
    }
    Ok(Args {
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed".to_string())?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    })
}

/// The checkout's git revision, read from `.git` without running git.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(name) => std::fs::read_to_string(Path::new(".git").join(name)).unwrap_or_default(),
        None => head,
    };
    match rev.trim() {
        "" => "unknown (not a git checkout)".into(),
        rev => rev.to_string(),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    workloads::retain_freed_memory();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let knobs: Vec<(&str, Option<String>)> =
        KNOBS.iter().map(|k| (*k, std::env::var(k).ok().filter(|v| !v.is_empty()))).collect();
    let set: Vec<String> =
        knobs.iter().filter_map(|(k, v)| v.as_ref().map(|v| format!("{k}={v}"))).collect();
    if !set.is_empty() {
        eprintln!(
            "error: refusing to report reference numbers with program knobs set ({}): \
             they measure a different program",
            set.join(", ")
        );
        return ExitCode::from(3);
    }

    let name = args.workload.name();
    let work = PathBuf::from(".bench_tmp").join(format!("{name}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: creating {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let tally = Tally::default();
    let result = workloads::run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        fixture::SCALE,
        &work,
        &tally,
    );
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_tmp");
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut provenance = vec![
        ("workload".to_string(), name.to_string()),
        ("nproc".into(), parambench_sparql::available_parallelism().to_string()),
        ("git_revision".into(), git_revision()),
        ("trace".into(), args.trace.to_string()),
    ];
    provenance.extend(out.provenance);
    for (k, v) in &knobs {
        provenance.push((format!("env.{k}"), v.clone().unwrap_or_else(|| "unset".into())));
    }
    for (k, v) in &provenance {
        println!("provenance {k}: {v}");
    }
    for line in &out.notes {
        println!("{line}");
    }
    if args.trace {
        let dir = Path::new(".bench_trace");
        let path = dir.join(format!("{name}-seed{}.tsv", args.seed));
        match std::fs::create_dir_all(dir).and_then(|_| trace::write_tsv(&out.spans, &path)) {
            Ok(()) => println!("spans: {} written to {}", out.spans.len(), path.display()),
            Err(e) => eprintln!("warning: writing {}: {e}", path.display()),
        }
    }

    let (attempted, failed) = (tally.attempted(), tally.failed());
    let mut fields = Vec::new();
    for m in &out.metrics {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        println!("metric {} {value} {}", m.name, m.unit);
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(&m.name),
            json_str(m.unit)
        ));
    }
    println!(
        "failed_frac {} ({failed} failed of {attempted} attempted)",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
