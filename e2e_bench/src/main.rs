//! End-to-end benchmark of the paper's sliding-median query on the local
//! engine and of a wordcount on the multi-process shuffle.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload median_plain --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One client runs one job at a time (a closed loop): the input is
//! generated from `--seed`, the reference answer is digested in a
//! subprocess, one warm-up job runs, and then jobs run back to back for
//! `--seconds`. Every job's answer is checked against the reference.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` alternates
//! untraced and traced jobs and reports the per-layer metrics. The last
//! line of standard output is the JSON result; the lines before it
//! repeat every metric with its unit and the run's provenance.
//! `--size` overrides the workload's grid side or record count.

mod digest;
mod metrics;
mod procfs;
mod workload;

use digest::Digest;
use metrics::{Metric, Samples, END_TO_END, FAILED_RATIO, PER_LAYER};
use scihadoop_mapreduce::{obs, MrError, Recorder};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{JobRun, Workload};

/// Input generations per run: at least `SETUP_MIN_REPS` and at least
/// `SETUP_MIN_SECONDS` of them; `setup_s` is their median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 1.0;
/// Timed `dataset_splits` calls per traced run.
const SPLITS_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Option<usize>,
    /// Print the reference digest and exit (the subprocess mode).
    reference: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        size: None,
        reference: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--reference" {
            parsed.reference = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--size" => parsed.size = Some(number()? as usize),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    // Worker processes of the distributed job re-execute this binary.
    match scihadoop_mapreduce::dist::worker_env() {
        Ok(Some(env)) => std::process::exit(scihadoop_bench::dist_worker(&env)),
        Ok(None) => {}
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            return ExitCode::from(2);
        }
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::parse(&args.workload, args.size) else {
        eprintln!(
            "e2e_bench: unknown workload {:?}; expected one of {:?}",
            args.workload,
            workload::NAMES
        );
        return ExitCode::from(2);
    };
    if args.reference {
        let digest = workload.reference(&workload.generate(args.seed));
        println!("{}", digest.to_line());
        return ExitCode::SUCCESS;
    }

    // The distributed runtime puts its Unix socket and shuffle spill
    // files in `std::env::temp_dir()`. A relative per-process directory
    // keeps them inside the working directory and the socket path short.
    let tmp = PathBuf::from(".e2e_bench_tmp").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("e2e_bench: create {tmp:?}: {e}");
        return ExitCode::from(2);
    }
    std::env::set_var("TMPDIR", &tmp);
    let code = measure(&args, workload);
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".e2e_bench_tmp");
    code
}

fn measure(args: &Args, workload: Workload) -> ExitCode {
    let mut setup = Vec::new();
    let mut input = None;
    while setup.len() < SETUP_MIN_REPS || setup.iter().sum::<f64>() < SETUP_MIN_SECONDS {
        drop(input.take()); // only one copy of the input lives at a time
        let t0 = Instant::now();
        let generated = workload.generate(args.seed);
        setup.push(t0.elapsed().as_secs_f64());
        input = Some(generated);
    }
    let input = input.expect("at least one generation");
    let reference = match reference_digest(args, &workload) {
        Ok(digest) => digest,
        Err(e) => {
            eprintln!("e2e_bench: reference answer: {e}");
            return ExitCode::from(2);
        }
    };
    let splits_s: Vec<f64> = match args.trace {
        true => (0..SPLITS_REPS)
            .filter_map(|_| workload.time_splits(&input))
            .collect(),
        false => Vec::new(),
    };

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut checked = |outcome: Result<JobRun, MrError>| -> Option<JobRun> {
        attempted += 1;
        match outcome {
            Ok(job) if job.digest == reference => Some(job),
            Ok(_) => {
                failed += 1;
                eprintln!("e2e_bench: job {attempted}: answer differs from the reference");
                None
            }
            Err(e) => {
                failed += 1;
                eprintln!("e2e_bench: job {attempted}: {e}");
                None
            }
        }
    };

    checked(workload.run(&input, None));
    let mut samples = Samples::default();
    let min_jobs = if args.trace { 2 } else { 1 };
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut jobs = 0;
    while jobs < min_jobs || Instant::now() < deadline {
        let recorder = (args.trace && jobs % 2 == 1).then(Recorder::new);
        let outcome = workload.run(&input, recorder.as_ref());
        jobs += 1;
        let Some(job) = checked(outcome) else {
            continue;
        };
        match &recorder {
            None => {
                metrics::push_end_to_end(&job, workload.input_records(), &mut samples);
                metrics::push_layers(&job, &mut samples);
            }
            Some(recorder) => metrics::push_trace(&job, &recorder.finish(), &mut samples),
        }
    }

    let wall_s = samples.median("wall_s");
    let failed_ratio = failed as f64 / attempted as f64;
    let value = |name: &str| -> f64 {
        match name {
            "records_per_s" if wall_s > 0.0 => workload.input_records() as f64 / wall_s,
            "peak_rss_mib" => procfs::peak_rss_mib(),
            "setup_s" | "grid.generate_s" => metrics::median(&setup),
            "queries.splits_s" => metrics::median(&splits_s),
            "job.failed_ratio" | "failed_ratio" => failed_ratio,
            "trace.overhead_pct" if wall_s > 0.0 => {
                100.0 * (samples.median("trace.wall_s") / wall_s - 1.0)
            }
            other => samples.median(other),
        }
    };

    println!(
        "# {} seed={} size={} input_records={}: {} untraced and {} traced jobs timed \
         after 1 warm-up; timings are medians over jobs",
        args.workload,
        args.seed,
        workload.size(),
        workload.input_records(),
        samples.values("wall_s").len(),
        samples.values("trace.wall_s").len(),
    );
    println!("# provenance {}", provenance(args, &workload));
    let per_job: Vec<String> = samples
        .values("wall_s")
        .iter()
        .map(|w| format!("{w:.4}"))
        .collect();
    println!("# wall_s per job: {} s", per_job.join(" "));
    let print = |m: &Metric| {
        println!(
            "{} {} {}  # {} is better; {}",
            m.name,
            value(m.name),
            m.unit,
            m.better,
            m.note
        )
    };
    END_TO_END.iter().chain([&FAILED_RATIO]).for_each(print);
    if args.trace {
        PER_LAYER.iter().for_each(print);
        println!(
            "# attribution: reduce-side merge CPU {:.4} s by the MergeNanos counter, {:.4} s \
             inside Merge spans (map-side spill merges record there too); wall_s {:.4} s = \
             map wall {:.4} + reduce wall {:.4} + unattributed {:.4}",
            value("sort.merge_cpu_s"),
            value("trace.merge.cpu_s"),
            wall_s,
            value("runner.map_wall_s"),
            value("runner.reduce_wall_s"),
            value("job.unattributed_s"),
        );
    }

    let reported: &[Metric] = if args.trace { PER_LAYER } else { &END_TO_END };
    let fields: Vec<String> = reported
        .iter()
        .map(|m| {
            let v = value(m.name);
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(m.name),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Compute the reference digest in a subprocess, so the reference's
/// million-entry map never counts toward this process's peak memory.
fn reference_digest(args: &Args, workload: &Workload) -> Result<Digest, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--reference", "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--size", &workload.size().to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("reference subprocess {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .last()
        .and_then(Digest::parse_line)
        .ok_or_else(|| format!("unparsable reference output {stdout:?}"))
}

/// Where and how this run was made, as one JSON object.
fn provenance(args: &Args, workload: &Workload) -> String {
    // Only ask git inside a checkout's root: a benchmark copied out of
    // the repository must not report some enclosing repository's commit.
    let git_commit = std::path::Path::new(".git")
        .exists()
        .then(|| {
            Command::new("git")
                .args(["rev-parse", "HEAD"])
                .stderr(Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        })
        .flatten()
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let clocksource =
        std::fs::read_to_string("/sys/devices/system/clocksource/clocksource0/current_clocksource")
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let fields = [
        ("host_cpus", obs::host_cpus().to_string()),
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("size", workload.size().to_string()),
        ("input_records", workload.input_records().to_string()),
        ("run_seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("git_commit", json_str(&git_commit)),
        ("rustc", json_str(env!("E2E_BENCH_RUSTC"))),
        ("cpu_clock", json_str(obs::clock_name())),
        ("wall_clocksource", json_str(&clocksource)),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload median_agg --seed 5 --seconds 3 --trace 1 --size 8").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace, a.size),
            ("median_agg", 5, 3, true, Some(8))
        );
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--bogus 1").is_err());
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
