//! `amrio-perfbench`: the repository's end-to-end benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload o2k-hdf5-amr64 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process, one job in flight (a closed loop with a single client);
//! while a job runs, the only other threads are its rank threads. Every
//! untraced job is timed and checked against its traced replica (see
//! `replica.rs`). With `--trace 0` the command prints the end-to-end
//! metrics; with `--trace 1` a replica follows every job and it prints
//! the per-layer metrics. Host times are scaled to a reference host
//! speed (see `refspeed.rs`). The last line of standard output is one
//! JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod job;
mod refspeed;
mod replica;
mod stats;
mod workload;

use job::{Prepared, RunFacts};
use stats::{median, peak_rss_mib, quartiles, reset_peak_rss};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::{exit, Command, Stdio};
use std::time::Instant;
use workload::{Kind, Workload, WORKLOADS};

/// Workload seed used when `--seed` is not given. A second seed,
/// 7700417, was held out while the benchmark was written: a claimed
/// gain must also hold on it.
const DEFAULT_SEED: u64 = 20_021_002;
/// Set-ups per run, each in a fresh process; `setup_s` is their median.
const SETUP_PROCS: usize = 3;
/// Kernel runs right after each set-up; their median scales it.
const SETUP_READINGS: usize = 3;
/// Where `--trace 1` writes its spans, relative to the working directory.
const SPAN_DIR: &str = ".perfbench_out";

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 6] = [
    ("run_ref_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("virt_write_s", "s"),
    ("virt_read_s", "s"),
    ("virt_makespan_s", "s"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload does
/// not exercise reports 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("simt.ordered_ops", "count"),
    ("simt.host_us_per_op", "us"),
    ("simt.wakeups", "count"),
    ("simt.handoffs", "count"),
    ("simt.lock_acquisitions", "count"),
    ("simt.copied_bytes", "B"),
    ("mpi.collectives", "count"),
    ("mpi.sends", "count"),
    ("mpi.p2p_bytes", "B"),
    ("net.messages", "count"),
    ("net.inter_node_bytes", "B"),
    ("enzo.write_checkpoint_s", "s"),
    ("enzo.read_checkpoint_s", "s"),
    ("enzo.init_s", "s"),
    ("enzo.refine_s", "s"),
    ("enzo.evolve_s", "s"),
    ("enzo.digest_s", "s"),
    ("enzo.grids", "count"),
    ("enzo.virt_compute_s", "s"),
    ("disk.requests", "count"),
    ("disk.server_requests", "count"),
    ("disk.token_steals", "count"),
    ("disk.meta_ops", "count"),
    ("disk.bytes_written", "B"),
    ("disk.bytes_read", "B"),
    ("disk.req_bytes_p50", "B"),
    ("disk.virt_active_write_s", "s"),
    ("disk.virt_active_read_s", "s"),
    ("disk.image_digest_s", "s"),
    ("check.violations", "count"),
    ("check.overhead_s", "s"),
    ("recover.scan_s", "s"),
    ("recover.crashes", "count"),
    ("recover.torn_generations", "count"),
    ("recover.committed_generations", "count"),
    ("tune.probe_s", "s"),
    ("plan.plan_s", "s"),
    ("verify.verify_s", "s"),
    ("tune.search_s", "s"),
    ("tune.candidates", "count"),
    ("tune.pruned", "count"),
    ("tune.predict_error", "ratio"),
    ("tune.tuned_over_default", "ratio"),
    ("trace.overhead_s", "s"),
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set up, print one `setup` line and exit: one of the fresh
    /// processes that `setup_s` samples.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        let bit = || match value.as_str() {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(bad()),
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = bit()?,
            "--setup-only" => setup_only = bit()?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        setup_only,
    })
}

/// Jobs attempted and failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, failure: Option<&str>) {
        self.attempted += 1;
        if let Some(msg) = failure {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}: {msg}");
        }
    }
}

/// Build and validate every job's spec, platform and strategy, then run
/// one untimed warm-up job on a seed outside the timed set. Returns the
/// jobs and the warm-up job's failure, if any.
fn setup(a: &Args) -> (Vec<Prepared>, Option<String>) {
    let (jobs, warmup) = a.workload.jobs(a.seed);
    let prepared: Vec<Prepared> = jobs
        .into_iter()
        .map(Prepared::new)
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| {
            eprintln!("perfbench: {e}");
            exit(1)
        });
    let warm = Prepared::new(warmup).map_or_else(Some, |p| job::run(a.workload.kind, &p).failure);
    (prepared, warm)
}

/// One set-up: seconds from the start of `main` to the first timed job,
/// and the median of `SETUP_READINGS` kernel runs right after it.
struct SetupSample {
    span_s: f64,
    kernel_s: f64,
}

impl SetupSample {
    fn measure(a: &Args, t_start: Instant) -> SetupSample {
        let span_s = t_start.elapsed().as_secs_f64();
        let readings: Vec<f64> = (0..SETUP_READINGS)
            .map(|_| refspeed::measure(a.workload.nranks))
            .collect();
        SetupSample {
            span_s,
            kernel_s: median(&readings),
        }
    }
}

/// Set up again in `SETUP_PROCS - 1` fresh processes of this program,
/// so that every sample pays the first-time costs of a cold process.
/// Each child's warm-up job counts as a job attempted.
fn setup_in_children(a: &Args, tally: &mut Tally) -> Vec<SetupSample> {
    let exe = std::env::current_exe().expect("path of this program");
    let seed = a.seed.to_string();
    let mut samples = Vec::new();
    for k in 1..SETUP_PROCS {
        let report = Command::new(&exe)
            .args(["--workload", a.workload.name, "--seed", &seed])
            .args(["--setup-only", "1"])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())
            .and_then(|o| match o.status.success() {
                true => parse_setup_line(&String::from_utf8_lossy(&o.stdout)),
                false => Err(format!("exited with {}", o.status)),
            });
        let what = format!("warm-up job of set-up process {k}");
        match report {
            Ok((sample, warm_failed)) => {
                tally.record(&what, warm_failed.then_some("the warm-up job failed"));
                samples.push(sample);
            }
            Err(e) => tally.record(&what, Some(&e)),
        }
    }
    samples
}

/// Parse a child's `setup <span_s> <kernel_s> <warm-up failed: 0|1>` line.
fn parse_setup_line(text: &str) -> Result<(SetupSample, bool), String> {
    let bad = || format!("bad set-up report: {text:?}");
    let fields: Vec<&str> = text
        .trim()
        .strip_prefix("setup ")
        .ok_or_else(bad)?
        .split(' ')
        .collect();
    let num = |i: usize| -> Result<f64, String> {
        fields.get(i).and_then(|v| v.parse().ok()).ok_or_else(bad)
    };
    let sample = SetupSample {
        span_s: num(0)?,
        kernel_s: num(1)?,
    };
    match fields.get(2) {
        Some(&"0") => Ok((sample, false)),
        Some(&"1") => Ok((sample, true)),
        _ => Err(bad()),
    }
}

/// Why `traced` does not reproduce `untraced` exactly, if it does not.
fn mismatch(untraced: &[RunFacts], traced: &replica::Traced) -> Option<String> {
    if let Some(f) = &traced.failure {
        return Some(format!("replica: {f}"));
    }
    (untraced != traced.runs.as_slice()).then(|| {
        format!(
            "replica differs: untraced {untraced:?} traced {:?}",
            traced.runs
        )
    })
}

/// Wall time of the crash job with the checker off (same crash instant).
fn check_off_wall(p: &Prepared, expect: &[RunFacts]) -> Result<f64, String> {
    let mut spec = p.job.spec.clone();
    spec.check = amrio_check::CheckMode::Off;
    let exp = amrio_enzo::Experiment::from_spec(&spec).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let report = exp.run().report;
    let wall = t0.elapsed().as_secs_f64();
    job::require(
        Some(report.image_digest) == expect.last().map(|r| r.image_digest),
        "check-off image differs from the strict image",
    )?;
    Ok(wall)
}

/// What the job loop collected.
struct Collected {
    /// Wall time of every untraced (timed) job.
    walls: Vec<f64>,
    /// The reference kernel's runs after the timed jobs.
    kernel_s: Vec<f64>,
    /// The process's peak resident set during every timed job, in MiB.
    peak_rss: Vec<f64>,
    /// Each timed job's distinct-job index and the first check it missed.
    outcomes: Vec<(usize, Option<String>)>,
    /// The first successful outcome of each distinct job.
    first: Vec<Option<Vec<RunFacts>>>,
    /// Whether each distinct job's replica failed to reproduce it.
    replica_failed: Vec<bool>,
    /// Every traced replica run, with the index of the job it follows.
    traced: Vec<(usize, replica::Traced)>,
    /// Crash jobs re-run with the checker off (`--trace 1` only).
    check_off_walls: Vec<f64>,
}

impl Collected {
    /// Run `p`'s traced replica and check it against `untraced`.
    fn replicate(&mut self, i: usize, j: usize, kind: Kind, p: &Prepared, untraced: &[RunFacts]) {
        let traced = replica::run(kind, &p.job);
        if let Some(msg) = mismatch(untraced, &traced) {
            eprintln!(
                "perfbench: replica of job {j} (seed {}): {msg}",
                p.job.spec.seed
            );
            self.replica_failed[j] = true;
        }
        self.traced.push((i, traced));
    }
}

/// The closed loop: untraced jobs cycle through the distinct jobs until
/// their wall times add up to `--seconds` and each has run once. The
/// reference kernel runs after every job. With `--trace 1` a traced
/// replica follows that. Every job is checked: its own checks and
/// a repeat against the seed's first outcome. Replica checks of a
/// `--trace 0` run come later, in `replicate_firsts`.
fn job_loop(a: &Args, prepared: &[Prepared]) -> Collected {
    let n = prepared.len();
    let kind = a.workload.kind;
    let mut c = Collected {
        walls: Vec::new(),
        kernel_s: Vec::new(),
        peak_rss: Vec::new(),
        outcomes: Vec::new(),
        first: vec![None; n],
        replica_failed: vec![false; n],
        traced: Vec::new(),
        check_off_walls: Vec::new(),
    };
    let mut timed_s = 0.0;
    while c.walls.len() < n || timed_s < a.seconds {
        let i = c.walls.len();
        let (j, p) = (i % n, &prepared[i % n]);
        reset_peak_rss();
        let o = job::run(kind, p);
        c.peak_rss.push(peak_rss_mib());
        refspeed::sample_after(a.workload.nranks, o.wall_s, &mut c.kernel_s);
        timed_s += o.wall_s;
        c.walls.push(o.wall_s);
        let mut failure = o.failure;
        match &c.first[j] {
            Some(runs) if failure.is_none() && *runs != o.runs => {
                failure = Some("a repeat of this job differs".into());
            }
            None if failure.is_none() => c.first[j] = Some(o.runs.clone()),
            _ => {}
        }
        if a.trace {
            c.replicate(i, j, kind, p, &o.runs);
            if kind == Kind::Crash && failure.is_none() {
                match check_off_wall(p, &o.runs) {
                    Ok(w) => c.check_off_walls.push(w),
                    Err(e) => failure = Some(e),
                }
            }
        }
        c.outcomes.push((j, failure));
    }
    c
}

/// Replay each distinct job's first successful outcome as a traced
/// replica (`--trace 0`). They run after the timed loop so that they
/// are not in the host metrics.
fn replicate_firsts(a: &Args, prepared: &[Prepared], c: &mut Collected) {
    for (j, p) in prepared.iter().enumerate() {
        if let Some(runs) = c.first[j].clone() {
            c.replicate(j, j, a.workload.kind, p, &runs);
        }
    }
}

/// Count every timed job: a job fails on its own checks, or when its
/// seed's replica did not reproduce it.
fn tally_jobs(c: &Collected, prepared: &[Prepared], tally: &mut Tally) {
    for (i, (j, failure)) in c.outcomes.iter().enumerate() {
        let replica = c.replica_failed[*j].then_some("this seed's replica check failed");
        let what = format!("job {i} (seed {})", prepared[*j].job.spec.seed);
        tally.record(&what, failure.as_deref().or(replica));
    }
}

fn print_steadiness(name: &str, samples: &[f64]) {
    let (q1, q2, q3) = quartiles(samples);
    let spread = if q2 != 0.0 { (q3 - q1) / q2 } else { 0.0 };
    println!(
        "steadiness {name:<16} n={:<3} q1={q1:.6} median={q2:.6} q3={q3:.6} iqr/median={:.2}%",
        samples.len(),
        spread * 100.0
    );
}

/// The end-to-end metrics of a `--trace 0` run. Job wall times are
/// scaled by the median of the run's kernel readings, so phases shorter
/// than a run cost no more than one reading's noise; each set-up by its
/// own readings. The raw times are shown in the steadiness view.
fn end_to_end(setups: &[SetupSample], c: Collected) -> BTreeMap<&'static str, f64> {
    let reported: Vec<RunFacts> = c
        .first
        .iter()
        .flatten()
        .filter_map(|runs| runs.last().copied())
        .collect();
    let virt = |f: fn(&RunFacts) -> f64| -> Vec<f64> { reported.iter().map(f).collect() };
    let setup_spans: Vec<f64> = setups.iter().map(|s| s.span_s).collect();
    print_steadiness("raw job wall", &c.walls);
    print_steadiness("raw kernel", &c.kernel_s);
    print_steadiness("raw setup", &setup_spans);
    let kernel_s = median(&c.kernel_s);
    let samples: [(&str, Vec<f64>); 6] = [
        (
            "run_ref_s",
            c.walls
                .iter()
                .map(|&w| refspeed::scale(w, kernel_s))
                .collect(),
        ),
        (
            "setup_s",
            setups
                .iter()
                .map(|s| refspeed::scale(s.span_s, s.kernel_s))
                .collect(),
        ),
        ("peak_rss_mb", c.peak_rss),
        ("virt_write_s", virt(|r| r.write_s)),
        ("virt_read_s", virt(|r| r.read_s)),
        ("virt_makespan_s", virt(|r| r.makespan_s)),
    ];
    let mut out = BTreeMap::new();
    for (name, v) in samples {
        if v.is_empty() {
            out.insert(name, 0.0);
            continue;
        }
        print_steadiness(name, &v);
        out.insert(name, median(&v));
    }
    out
}

/// The per-layer metrics of a `--trace 1` run: medians over the traced
/// jobs, plus the tracing and checker overheads.
fn per_layer(c: &Collected) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (name, _) in PER_LAYER {
        let v: Vec<f64> = c
            .traced
            .iter()
            .map(|(_, t)| t.metrics.get(name).copied().unwrap_or(0.0))
            .collect();
        out.insert(name, median(&v));
    }
    let traced_walls: Vec<f64> = c.traced.iter().map(|(_, t)| t.wall_s).collect();
    print_steadiness("untraced_wall_s", &c.walls);
    print_steadiness("traced_wall_s", &traced_walls);
    let untraced = median(&c.walls);
    out.insert("trace.overhead_s", median(&traced_walls) - untraced);
    if !c.check_off_walls.is_empty() {
        out.insert("check.overhead_s", untraced - median(&c.check_off_walls));
    }
    out
}

/// Write every span as CSV: one row per span, ids global to the run.
fn write_spans(
    a: &Args,
    t_start: Instant,
    jobs: &[(usize, replica::Traced)],
) -> std::io::Result<()> {
    std::fs::create_dir_all(SPAN_DIR)?;
    let path = format!("{SPAN_DIR}/spans-{}-seed{}.csv", a.workload.name, a.seed);
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "job,span,parent,rank,layer,start_ns,end_ns")?;
    let mut base = 0;
    for (job, traced) in jobs {
        let spans = &traced.spans;
        for (k, s) in spans.iter().enumerate() {
            let ns = |t: Instant| t.duration_since(t_start).as_nanos();
            let opt = |v: Option<usize>| v.map_or(String::new(), |x| x.to_string());
            writeln!(
                f,
                "{job},{},{},{},{},{},{}",
                base + k,
                opt(s.parent.map(|p| base + p)),
                opt(s.rank),
                s.layer,
                ns(s.start),
                ns(s.end)
            )?;
        }
        base += spans.len();
    }
    f.flush()?;
    eprintln!("perfbench: wrote {path}");
    Ok(())
}

fn main() {
    let t_start = Instant::now();
    let a = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "usage: --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
            names.join("|")
        );
        exit(2)
    });
    let (prepared, warm_failure) = setup(&a);
    let mut setups = vec![SetupSample::measure(&a, t_start)];
    if a.setup_only {
        let s = &setups[0];
        let failed = u8::from(warm_failure.is_some());
        println!("setup {} {} {failed}", s.span_s, s.kernel_s);
        return;
    }
    let mut tally = Tally::default();
    tally.record("warm-up job", warm_failure.as_deref());
    let mut collected = job_loop(&a, &prepared);
    if !a.trace {
        replicate_firsts(&a, &prepared, &mut collected);
    }
    tally_jobs(&collected, &prepared, &mut tally);
    let (metrics, units): (_, &[(&str, &str)]) = if a.trace {
        if let Err(e) = write_spans(&a, t_start, &collected.traced) {
            eprintln!("perfbench: could not write spans: {e}");
        }
        (per_layer(&collected), &PER_LAYER)
    } else {
        setups.extend(setup_in_children(&a, &mut tally));
        (end_to_end(&setups, collected), &END_TO_END)
    };
    let body: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            let v = metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}
