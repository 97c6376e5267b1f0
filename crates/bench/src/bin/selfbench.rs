//! `selfbench` — host-side wall-clock and copy-ledger self-benchmark.
//!
//! Unlike every other `amrio-bench` binary (which reports *virtual*
//! seconds), this one measures the **host**: how long the simulator
//! itself takes to run a checkpoint/restart cell, how many bytes the
//! data path memcpy'd while doing it (the `amrio-simt` copy ledger),
//! and how hard the virtual-time scheduler worked (wakeups, grant
//! handoffs, index updates, lock acquisitions). Each cell runs `REPS`
//! times and reports the median wall-clock (plus the min) so a single
//! noisy rep can't fake a regression. `scripts/bench.sh` runs the full
//! matrix and `scripts/ci.sh` runs `--smoke` (fails on a >25%
//! wall-clock regression against the committed `BENCH_selfbench.json`
//! baseline) and `--scale-smoke` (the 16- and 256-rank rank-sweep
//! cells: the 256-rank one against a generous absolute budget, and its
//! host µs per ordered op against the 16-rank one's, guarding
//! high-rank-count scaling).
//!
//! Matrix: three backends (hdf4-serial, mpiio-optimized, hdf5-parallel)
//! × small/large problem × 4/16 ranks × strict-checker on/off, all on
//! the IBM SP-2/GPFS platform model, plus a rank sweep (4→1024 ranks,
//! mpiio-optimized, small problem) that pins executor scaling. The
//! smoke subset is the three small/4-rank/checker-off cells.
//!
//! Usage: `selfbench [--smoke | --scale-smoke] [--out PATH]
//! [--embed-before PATH]`. `--embed-before` splices a previous run's
//! JSON verbatim under the `"before"` key, so the committed file
//! carries the before/after pair.

use amrio_bench::{crash_sweep, default_cfg, EVOLVE_CYCLES};
use amrio_check::CheckMode;
use amrio_enzo::{
    Experiment, Hdf4Serial, Hdf5Parallel, IoStrategy, MpiIoOptimized, Platform, ProblemSize,
    RunReport,
};
use amrio_plan::{plan, Backend, PlanInput};
use amrio_serve::json::{self, Json};
use amrio_serve::wire::hex_digest;
use amrio_simt::{copied_bytes, reset_copied_bytes};
use amrio_tune::search;
use std::time::Instant;

/// Wall-clock repetitions per cell; the median is the headline number.
const REPS: usize = 3;

/// Absolute wall-clock budget for the `--scale-smoke` 256-rank cell.
/// Deliberately ~10x the measured median on the CI host: this gate
/// exists to catch the executor falling off a scaling cliff (e.g. a
/// return to O(nranks) scans or broadcast wakeup storms), not to police
/// noise.
const SCALE_SMOKE_BUDGET_MS: f64 = 20_000.0;

/// Repetitions per `--scale-smoke` cell; the median is gated.
const SCALE_SMOKE_REPS: usize = 5;

/// Ceiling on host µs per ordered op at 256 ranks over the same at 16
/// ranks. Flat per-op cost gives 1.0; the move-only `alltoallv` with
/// allocation-free empty payloads measured ~1.7, the clone-filled P×P
/// matrix it replaced ~2.6.
const SCALE_SMOKE_MAX_RATIO: f64 = 2.2;

struct CellResult {
    backend: &'static str,
    problem: &'static str,
    root_n: u64,
    nranks: usize,
    checker: &'static str,
    smoke: bool,
    wall_ms: f64,
    wall_ms_min: f64,
    copied_bytes: u64,
    report: RunReport,
}

fn strategy_for(name: &str) -> Box<dyn IoStrategy> {
    match name {
        "hdf4-serial" => Box::new(Hdf4Serial),
        "mpiio-optimized" => Box::new(MpiIoOptimized),
        "hdf5-parallel" => Box::new(Hdf5Parallel::default()),
        other => panic!("unknown backend {other}"),
    }
}

/// Median of a small sample (averages the middle pair for even n).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

fn run_cell(
    backend: &'static str,
    problem: &'static str,
    root_n: u64,
    nranks: usize,
    strict: bool,
    smoke: bool,
    reps: usize,
) -> CellResult {
    let platform = Platform::ibm_sp2(nranks);
    let cfg = default_cfg(ProblemSize::Custom(root_n), nranks);
    let strategy = strategy_for(backend);
    let mut walls = Vec::with_capacity(reps);
    let mut last: Option<(u64, RunReport)> = None;
    for _ in 0..reps {
        reset_copied_bytes();
        let t0 = Instant::now();
        let mut exp = Experiment::new(&platform, &cfg, &*strategy).cycles(EVOLVE_CYCLES);
        if strict {
            exp = exp.check(CheckMode::Strict);
        }
        let report = exp.run().report;
        walls.push(t0.elapsed().as_secs_f64() * 1e3);
        let copied = copied_bytes();
        assert!(
            report.verified,
            "{backend} {problem} x{nranks} failed restart verification"
        );
        if let Some((prev_copied, prev)) = &last {
            assert_eq!(
                (*prev_copied, prev.image_digest),
                (copied, report.image_digest),
                "{backend} {problem} x{nranks}: reps diverged"
            );
        }
        last = Some((copied, report));
    }
    let (copied, report) = last.expect("reps >= 1");
    let wall_ms_min = walls.iter().copied().fold(f64::INFINITY, f64::min);
    CellResult {
        backend,
        problem,
        root_n,
        nranks,
        checker: if strict { "strict" } else { "off" },
        smoke,
        wall_ms: median(&mut walls),
        wall_ms_min,
        copied_bytes: copied,
        report,
    }
}

/// Executor scaling sweep: one checkpoint/restart cell per rank count,
/// mpiio-optimized on the small problem with the checker off, so the
/// wall-clock trend isolates the scheduler (grant lookups, wakeups)
/// rather than the data path. Skipped under `--smoke`.
const SWEEP_RANKS: [usize; 5] = [4, 16, 64, 256, 1024];

fn rank_sweep() -> Vec<CellResult> {
    SWEEP_RANKS
        .iter()
        .map(|&nranks| run_cell("mpiio-optimized", "small", 16, nranks, false, false, REPS))
        .collect()
}

/// Round to `digits` decimal places so the shortest-round-trip float
/// encoding stays as readable as the old fixed-precision format.
fn rounded(x: f64, digits: i32) -> Json {
    let scale = 10f64.powi(digits);
    Json::F64((x * scale).round() / scale)
}

/// One cell object (shared by `"cells"` and `"rank_sweep"`).
fn cell_json(c: &CellResult) -> Json {
    let r = &c.report;
    let s = &r.sched;
    Json::Obj(vec![
        ("backend".into(), Json::str(c.backend)),
        ("problem".into(), Json::str(c.problem)),
        ("root_n".into(), Json::U64(c.root_n)),
        ("nranks".into(), Json::U64(c.nranks as u64)),
        ("checker".into(), Json::str(c.checker)),
        ("smoke".into(), Json::Bool(c.smoke)),
        ("wall_ms".into(), rounded(c.wall_ms, 3)),
        ("wall_ms_min".into(), rounded(c.wall_ms_min, 3)),
        ("copied_bytes".into(), Json::U64(c.copied_bytes)),
        ("bytes_written".into(), Json::U64(r.bytes_written)),
        ("bytes_read".into(), Json::U64(r.bytes_read)),
        ("write_s".into(), rounded(r.write_time, 6)),
        ("read_s".into(), rounded(r.read_time, 6)),
        ("verified".into(), Json::Bool(r.verified)),
        ("image_digest".into(), Json::Str(hex_digest(r.image_digest))),
        ("ordered_ops".into(), Json::U64(r.ordered_ops)),
        (
            "sched".into(),
            Json::Obj(vec![
                ("wakeups".into(), Json::U64(s.wakeups)),
                ("handoffs".into(), Json::U64(s.handoffs)),
                ("index_updates".into(), Json::U64(s.index_updates)),
                ("lock_acquisitions".into(), Json::U64(s.lock_acquisitions)),
            ]),
        ),
    ])
}

fn eprint_cell(c: &CellResult) {
    eprintln!(
        "{:<16} {:<5} x{:<4} checker={:<6} {:>9.1} ms (min {:>8.1})  {:>12} B copied  \
         {:>8} ordered  {:>8} wakeups  digest {:#018x}",
        c.backend,
        c.problem,
        c.nranks,
        c.checker,
        c.wall_ms,
        c.wall_ms_min,
        c.copied_bytes,
        c.report.ordered_ops,
        c.report.sched.wakeups,
        c.report.image_digest
    );
}

/// Host-side cost of the static tuner on the smoke cell: how long the
/// full hint-space search takes on this machine, what it picked, and
/// the executed outcome of shipping its advisory.
struct TuneSummary {
    candidates: usize,
    search_wall_ms: f64,
    best: String,
    predicted_total_s: f64,
    tuned_total_s: f64,
    baseline_total_s: f64,
    digest_ok: bool,
}

fn tune_summary() -> TuneSummary {
    let nranks = 4;
    let platform = Platform::origin2000(nranks);
    let cfg = default_cfg(ProblemSize::Custom(16), nranks);
    let probe = Experiment::new(&platform, &cfg, &MpiIoOptimized)
        .cycles(EVOLVE_CYCLES)
        .probe()
        .run()
        .probe
        .expect("probe requested");
    let p = plan(&PlanInput::from_probe(&probe, &platform.fs), Backend::MpiIo);
    let t0 = Instant::now();
    let outcome = search(&p, &platform.fs, &platform.net);
    let search_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let best = outcome.best();
    let baseline = Experiment::new(&platform, &cfg, &MpiIoOptimized)
        .cycles(EVOLVE_CYCLES)
        .run()
        .report;
    let tuned = Experiment::new(&platform, &cfg, &MpiIoOptimized)
        .cycles(EVOLVE_CYCLES)
        .advisory(best.cfg.advisory())
        .run()
        .report;
    TuneSummary {
        candidates: outcome.candidates.len(),
        search_wall_ms,
        best: best.cfg.label.clone(),
        predicted_total_s: best.cost.total_s(),
        tuned_total_s: tuned.write_time + tuned.read_time,
        baseline_total_s: baseline.write_time + baseline.read_time,
        digest_ok: tuned.image_digest == baseline.image_digest,
    }
}

/// Host-side cost of the crash-consistency sweep on the smoke cell: a
/// reduced crash-point fuzz (the `crash` binary's protocol) plus its
/// aggregate outcome — every cell must recover to the crash-free bytes.
struct CrashSummary {
    points: usize,
    fired: usize,
    resumed_from_commit: usize,
    torn_generations: u64,
    all_recovered: bool,
    wall_ms: f64,
}

/// Host-side cost of the static verifier on the smoke cell: the full
/// happens-before analysis over the three shipped backends plus one
/// seeded mutation corpus, against the strict simulation it replaces.
struct VerifySummary {
    presets: usize,
    presets_safe: usize,
    corpus_cases: usize,
    corpus_flagged: usize,
    false_negatives: usize,
    analysis_wall_ms: f64,
    sim_wall_ms: f64,
}

fn verify_summary() -> VerifySummary {
    use amrio_verify::mutate::corpus;
    use amrio_verify::{replay, runtime_kind, verify, Verdict, VerifyInput};

    let nranks = 4;
    let platform = Platform::origin2000(nranks);
    let cfg = default_cfg(ProblemSize::Custom(16), nranks);
    let probe = Experiment::new(&platform, &cfg, &MpiIoOptimized)
        .cycles(EVOLVE_CYCLES)
        .probe()
        .run()
        .probe
        .expect("probe requested");
    let input = PlanInput::from_probe(&probe, &platform.fs);

    let mut presets_safe = 0;
    let mut analysis_s = 0.0f64;
    let t_sim = Instant::now();
    for name in ["hdf4-serial", "mpiio-optimized", "hdf5-parallel"] {
        let strategy = strategy_for(name);
        let _ = Experiment::new(&platform, &cfg, &*strategy)
            .cycles(EVOLVE_CYCLES)
            .check(CheckMode::Strict)
            .run();
    }
    let sim_wall_ms = t_sim.elapsed().as_secs_f64() * 1e3;
    for backend in [
        Backend::Hdf4,
        Backend::MpiIo,
        Backend::Hdf5(amrio_hdf5::OverheadModel::default()),
    ] {
        let p = plan(&input, backend);
        let t0 = Instant::now();
        let report = verify(&VerifyInput::plain(&p, &input.hints, &platform.fs));
        analysis_s += t0.elapsed().as_secs_f64();
        if report.verdict() == Verdict::Safe {
            presets_safe += 1;
        }
    }

    let cases = corpus(&input, 42);
    let corpus_cases = cases.len();
    let mut corpus_flagged = 0;
    let mut false_negatives = 0;
    for case in cases {
        let t0 = Instant::now();
        let report = verify(&VerifyInput {
            plan: &case.plan,
            hints: &case.hints,
            fs: &platform.fs,
            faults: case.faults.as_ref(),
            retry: case.retry,
            commit: case.commit,
        });
        analysis_s += t0.elapsed().as_secs_f64();
        if report.verdict() == case.expect_verdict {
            corpus_flagged += 1;
        }
        if case.replay_flags {
            let kinds = report.kinds();
            let runtime = replay(&case.plan, &case.hints, &platform.fs, CheckMode::Log);
            let covered = !runtime.is_clean()
                && runtime
                    .violations
                    .iter()
                    .all(|v| runtime_kind(v).is_some_and(|k| kinds.contains(&k)));
            if !covered {
                false_negatives += 1;
            }
        }
    }

    VerifySummary {
        presets: 3,
        presets_safe,
        corpus_cases,
        corpus_flagged,
        false_negatives,
        analysis_wall_ms: analysis_s * 1e3,
        sim_wall_ms,
    }
}

fn crash_summary() -> CrashSummary {
    let nranks = 4;
    let platform = Platform::ibm_sp2(nranks);
    let cfg = default_cfg(ProblemSize::Custom(16), nranks);
    let t0 = Instant::now();
    let (_clean, cells) = crash_sweep(&platform, &cfg, &MpiIoOptimized, 6, 0x0c0a_57a1_c0de_cafe);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    CrashSummary {
        points: cells.len(),
        fired: cells.iter().filter(|c| c.fired).count(),
        resumed_from_commit: cells
            .iter()
            .filter(|c| c.resumed_generation.is_some())
            .count(),
        torn_generations: cells.iter().map(|c| c.torn_generations).sum(),
        all_recovered: cells
            .iter()
            .all(|c| c.verified && c.check_clean && c.image_match && c.resume_verified),
        wall_ms,
    }
}

/// Host µs per ordered op: the median wall-clock spread over the
/// engine's ordered operations, comparable across rank counts.
fn us_per_op(c: &CellResult) -> f64 {
    c.wall_ms * 1e3 / c.report.ordered_ops as f64
}

/// `--scale-smoke`: the rank-sweep row at 16 and 256 ranks. The
/// 256-rank cell must finish inside an absolute budget (a scheduler
/// regression back to O(nranks) scans or broadcast wakeups blows it at
/// once; honest noise does not), and its host µs per ordered op must
/// stay within [`SCALE_SMOKE_MAX_RATIO`] of the 16-rank cell's, which
/// catches work that grows with P² per collective.
fn scale_smoke() {
    let [c16, c256] = [16, 256].map(|n| {
        run_cell(
            "mpiio-optimized",
            "small",
            16,
            n,
            false,
            false,
            SCALE_SMOKE_REPS,
        )
    });
    for c in [&c16, &c256] {
        eprint_cell(c);
    }
    let (us16, us256) = (us_per_op(&c16), us_per_op(&c256));
    let ratio = us256 / us16;
    eprintln!(
        "scale-smoke: host us/op {us16:.1} at 16 ranks, {us256:.1} at 256 ranks \
         (ratio {ratio:.2}, limit {SCALE_SMOKE_MAX_RATIO:.1}); \
         256-rank cell median {:.1} ms (budget {SCALE_SMOKE_BUDGET_MS:.0} ms)",
        c256.wall_ms
    );
    assert!(
        c256.wall_ms <= SCALE_SMOKE_BUDGET_MS,
        "scale smoke failed: 256-rank cell took {:.1} ms, budget {SCALE_SMOKE_BUDGET_MS:.0} ms",
        c256.wall_ms
    );
    assert!(
        ratio <= SCALE_SMOKE_MAX_RATIO,
        "scale smoke failed: host us/op at 256 ranks is {ratio:.2}x that at 16 ranks, \
         limit {SCALE_SMOKE_MAX_RATIO:.1}x"
    );
}

fn main() {
    let mut smoke_only = false;
    let mut scale_only = false;
    let mut out_path = String::from("BENCH_selfbench.json");
    let mut embed_before: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke_only = true,
            "--scale-smoke" => scale_only = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--embed-before" => embed_before = Some(args.next().expect("--embed-before needs a path")),
            other => panic!("unknown argument {other} (usage: selfbench [--smoke | --scale-smoke] [--out PATH] [--embed-before PATH])"),
        }
    }

    if scale_only {
        scale_smoke();
        return;
    }

    const BACKENDS: [&str; 3] = ["hdf4-serial", "mpiio-optimized", "hdf5-parallel"];
    const PROBLEMS: [(&str, u64); 2] = [("small", 16), ("large", 32)];
    const RANKS: [usize; 2] = [4, 16];

    let mut cells = Vec::new();
    for backend in BACKENDS {
        for (problem, root_n) in PROBLEMS {
            for nranks in RANKS {
                for strict in [false, true] {
                    let smoke = problem == "small" && nranks == 4 && !strict;
                    if smoke_only && !smoke {
                        continue;
                    }
                    let c = run_cell(backend, problem, root_n, nranks, strict, smoke, REPS);
                    eprint_cell(&c);
                    cells.push(c);
                }
            }
        }
    }

    let smoke_total: f64 = cells.iter().filter(|c| c.smoke).map(|c| c.wall_ms).sum();
    let mut doc: Vec<(String, Json)> = vec![
        ("schema".into(), Json::str("amrio-selfbench-v2")),
        ("platform".into(), Json::str("ibm_sp2")),
        ("evolve_cycles".into(), Json::U64(EVOLVE_CYCLES as u64)),
        ("reps".into(), Json::U64(REPS as u64)),
        ("smoke_total_wall_ms".into(), rounded(smoke_total, 3)),
        (
            "cells".into(),
            Json::Arr(cells.iter().map(cell_json).collect()),
        ),
    ];

    if !smoke_only {
        let sweep = rank_sweep();
        for c in &sweep {
            eprint_cell(c);
        }
        doc.push((
            "rank_sweep".into(),
            Json::Arr(sweep.iter().map(cell_json).collect()),
        ));
    }

    let t = tune_summary();
    eprintln!(
        "tune: searched {} candidates in {:.1} ms; best = {} (predicted {:.4}s, executed {:.4}s vs baseline {:.4}s, digest_ok {})",
        t.candidates, t.search_wall_ms, t.best, t.predicted_total_s, t.tuned_total_s,
        t.baseline_total_s, t.digest_ok
    );
    doc.push((
        "tune".into(),
        Json::Obj(vec![
            ("cell".into(), Json::str("origin2000/small/x4")),
            ("candidates".into(), Json::U64(t.candidates as u64)),
            ("search_wall_ms".into(), rounded(t.search_wall_ms, 3)),
            ("best".into(), Json::Str(t.best.clone())),
            ("predicted_total_s".into(), rounded(t.predicted_total_s, 6)),
            ("tuned_total_s".into(), rounded(t.tuned_total_s, 6)),
            ("baseline_total_s".into(), rounded(t.baseline_total_s, 6)),
            ("digest_ok".into(), Json::Bool(t.digest_ok)),
        ]),
    ));

    let cs = crash_summary();
    eprintln!(
        "crash: {} seeded crash points in {:.1} ms; {} fired, {} resumed from a committed generation, {} torn generations, all_recovered {}",
        cs.points, cs.wall_ms, cs.fired, cs.resumed_from_commit, cs.torn_generations,
        cs.all_recovered
    );
    doc.push((
        "crash_sweep".into(),
        Json::Obj(vec![
            ("cell".into(), Json::str("ibm_sp2/small/x4")),
            ("points".into(), Json::U64(cs.points as u64)),
            ("fired".into(), Json::U64(cs.fired as u64)),
            (
                "resumed_from_commit".into(),
                Json::U64(cs.resumed_from_commit as u64),
            ),
            ("torn_generations".into(), Json::U64(cs.torn_generations)),
            ("all_recovered".into(), Json::Bool(cs.all_recovered)),
            ("wall_ms".into(), rounded(cs.wall_ms, 3)),
        ]),
    ));

    let vs = verify_summary();
    eprintln!(
        "verify: {}/{} presets Safe, {}/{} corpus cases flagged, {} false negatives; static {:.2} ms vs strict sim {:.1} ms ({:.0}x)",
        vs.presets_safe, vs.presets, vs.corpus_flagged, vs.corpus_cases, vs.false_negatives,
        vs.analysis_wall_ms, vs.sim_wall_ms,
        vs.sim_wall_ms / vs.analysis_wall_ms.max(1e-9)
    );
    doc.push((
        "verify".into(),
        Json::Obj(vec![
            ("cell".into(), Json::str("origin2000/small/x4")),
            ("presets".into(), Json::U64(vs.presets as u64)),
            ("presets_safe".into(), Json::U64(vs.presets_safe as u64)),
            ("corpus_cases".into(), Json::U64(vs.corpus_cases as u64)),
            ("corpus_flagged".into(), Json::U64(vs.corpus_flagged as u64)),
            (
                "false_negatives".into(),
                Json::U64(vs.false_negatives as u64),
            ),
            ("analysis_wall_ms".into(), rounded(vs.analysis_wall_ms, 3)),
            ("sim_wall_ms".into(), rounded(vs.sim_wall_ms, 3)),
            (
                "speedup".into(),
                rounded(vs.sim_wall_ms / vs.analysis_wall_ms.max(1e-9), 1),
            ),
        ]),
    ));

    if let Some(path) = embed_before {
        let before =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("--embed-before {path}: {e}"));
        let parsed = json::parse(&before)
            .unwrap_or_else(|e| panic!("--embed-before {path}: not valid JSON: {e}"));
        doc.push(("before".into(), parsed));
    }

    let out = Json::Obj(doc).pretty();
    std::fs::write(&out_path, &out).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("(wrote {out_path}; smoke_total_wall_ms = {smoke_total:.1})");
}
