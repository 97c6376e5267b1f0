//! The traced replica: each job re-driven through the layers' public
//! functions, exactly as `Experiment::run` drives them, with host
//! `Instant` spans around every call and the layers' public counters
//! read afterwards. It adds no collective and no virtual time, so it
//! must reproduce the untraced job's image digest, virtual times and
//! ordered-op count bit for bit; `main` checks that for every job.

use crate::job::{panic_message, require, RunFacts};
use crate::stats::median;
use crate::workload::{Job, Kind};
use amrio_check::{CheckMode, Checker, Violation};
use amrio_disk::{Crashed, IoEvent, Pfs};
use amrio_enzo::driver::timed;
use amrio_enzo::evolve::{evolve_step, rebuild_refinement};
use amrio_enzo::{global_digest, ExperimentSpec, SimState};
use amrio_mpi::{Comm, World};
use amrio_mpiio::{Mode, MpiIo};
use amrio_plan::{plan, Backend, PlanInput};
use amrio_recover::{manifest_path, scan, Manifest};
use amrio_simt::{SimDur, SimReport};
use amrio_tune::{candidate_space, search_verified};
use amrio_verify::{verify, Verdict, VerifyInput};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One host span. `rank` is `None` for spans on the driving thread;
/// `parent` indexes the job's span list.
pub struct Span {
    pub rank: Option<usize>,
    pub layer: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
}

/// What one traced job produced.
pub struct Traced {
    pub wall_s: f64,
    pub runs: Vec<RunFacts>,
    /// Per-layer metrics of this job, keyed by metric name.
    pub metrics: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
    pub failure: Option<String>,
}

/// Rank-side span as recorded inside a world run, with the virtual time
/// the call consumed on that rank.
struct RankSpan {
    rank: usize,
    layer: &'static str,
    start: Instant,
    end: Instant,
    virt: SimDur,
}

/// Shared sinks of one world run: rank spans, and rank 0's timed
/// checkpoint phases as virtual windows `(is_write, from_ns, to_ns)`.
#[derive(Default)]
struct WorldTrace {
    spans: Mutex<Vec<RankSpan>>,
    phases: Mutex<Vec<(bool, u64, u64)>>,
}

struct RankTracer<'a, 'c> {
    comm: &'a Comm<'c>,
    sink: &'a WorldTrace,
}

impl RankTracer<'_, '_> {
    fn span<R>(&self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let (start, v0) = (Instant::now(), self.comm.now());
        let r = f();
        let span = RankSpan {
            rank: self.comm.rank(),
            layer,
            start,
            end: Instant::now(),
            virt: self.comm.now() - v0,
        };
        self.sink.spans.lock().expect("span sink").push(span);
        r
    }

    /// Record the timed phase that just ended (`timed` leaves every rank
    /// at the phase's closing barrier, so `now - d` is its start).
    fn phase(&self, write: bool, d: SimDur) {
        if self.comm.rank() == 0 {
            let end = self.comm.now().0;
            let window = (write, end - d.0, end);
            self.sink.phases.lock().expect("phase sink").push(window);
        }
    }
}

/// Spans and counters of one job.
#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    metrics: BTreeMap<String, f64>,
    req_lens: Vec<f64>,
}

impl Recorder {
    fn begin(&mut self, layer: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.spans.push(Span {
            rank: None,
            layer,
            start: now,
            end: now,
            parent,
        });
        self.spans.len() - 1
    }

    /// Close span `id` and add its duration to the `<layer>_s` metric.
    fn end(&mut self, id: usize) {
        let span = &mut self.spans[id];
        span.end = Instant::now();
        let (layer, d) = (span.layer, span.end.duration_since(span.start));
        self.add(&format!("{layer}_s"), d.as_secs_f64());
    }

    fn add(&mut self, key: &str, v: f64) {
        *self.metrics.entry(key.to_string()).or_default() += v;
    }

    /// Adopt a world run's rank spans under `parent`, and add each rank
    /// layer's host time (per rank summed, then the maximum over ranks)
    /// plus the virtual time init, refine and evolve consumed.
    fn adopt(&mut self, parent: usize, world: WorldTrace) {
        let spans = world.spans.into_inner().expect("span sink");
        let mut host: BTreeMap<(&str, usize), f64> = BTreeMap::new();
        let mut compute: BTreeMap<usize, f64> = BTreeMap::new();
        for s in &spans {
            *host.entry((s.layer, s.rank)).or_default() +=
                s.end.duration_since(s.start).as_secs_f64();
            if matches!(s.layer, "enzo.init" | "enzo.refine" | "enzo.evolve") {
                *compute.entry(s.rank).or_default() += s.virt.as_secs_f64();
            }
        }
        let mut per_layer: BTreeMap<&str, f64> = BTreeMap::new();
        for ((layer, _), t) in host {
            let m = per_layer.entry(layer).or_default();
            *m = m.max(t);
        }
        for (layer, t) in per_layer {
            self.add(&format!("{layer}_s"), t);
        }
        self.add(
            "enzo.virt_compute_s",
            compute.values().copied().fold(0.0, f64::max),
        );
        self.spans.extend(spans.into_iter().map(|s| Span {
            rank: Some(s.rank),
            layer: s.layer,
            start: s.start,
            end: s.end,
            parent: Some(parent),
        }));
    }

    /// Message and engine counters of one world run (`report` is `None`
    /// for an incarnation a crash cut short).
    fn account_world<T>(&mut self, world: &World, report: Option<&SimReport<T>>) {
        let s = world.stats();
        self.add("mpi.collectives", s.collectives as f64);
        self.add("mpi.sends", s.sends as f64);
        self.add("mpi.p2p_bytes", s.p2p_bytes as f64);
        self.add("net.messages", world.net_messages() as f64);
        self.add("net.inter_node_bytes", world.net_inter_node_bytes() as f64);
        if let Some(r) = report {
            self.add("simt.ordered_ops", r.ordered_ops as f64);
            self.add("simt.wakeups", r.sched.wakeups as f64);
            self.add("simt.handoffs", r.sched.handoffs as f64);
            self.add("simt.lock_acquisitions", r.sched.lock_acquisitions as f64);
        }
    }

    /// Disk counters of a final file-system image, and the union of its
    /// request intervals inside each timed phase.
    fn account_fs(&mut self, fs: &Pfs, phases: &[(bool, u64, u64)]) {
        let st = fs.stats;
        self.add("disk.requests", (st.reads + st.writes) as f64);
        self.add("disk.server_requests", st.server_requests as f64);
        self.add("disk.token_steals", st.token_steals as f64);
        self.add("disk.meta_ops", st.meta_ops as f64);
        self.add("disk.bytes_written", st.bytes_written as f64);
        self.add("disk.bytes_read", st.bytes_read as f64);
        let events = &fs.trace.events;
        self.req_lens.extend(events.iter().map(|e| e.len as f64));
        for &(write, from, to) in phases {
            let key = if write {
                "disk.virt_active_write_s"
            } else {
                "disk.virt_active_read_s"
            };
            self.add(key, busy_secs(events, from, to));
        }
    }

    fn image_digest(&mut self, io: &MpiIo, parent: usize) -> u64 {
        let id = self.begin("disk.image_digest", Some(parent));
        let digest = io.fs().lock().image_digest();
        self.end(id);
        digest
    }
}

/// Length of the union of the intervals of requests that start inside
/// `[from, to)`, in virtual seconds.
fn busy_secs(events: &[IoEvent], from: u64, to: u64) -> f64 {
    let mut iv: Vec<(u64, u64)> = events
        .iter()
        .filter(|e| (from..to).contains(&e.start.0))
        .map(|e| (e.start.0, e.end.0))
        .collect();
    iv.sort_unstable();
    let (mut total, mut cur) = (0u64, None::<(u64, u64)>);
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    SimDur(total).as_secs_f64()
}

/// Run `job` as a traced replica.
pub fn run(kind: Kind, job: &Job) -> Traced {
    let mut rec = Recorder::default();
    amrio_simt::reset_copied_bytes();
    let root = rec.begin("job", None);
    let result = catch_unwind(AssertUnwindSafe(|| match kind {
        Kind::Single => single(&job.spec, &mut rec, root).map(|(f, _)| vec![f]),
        Kind::Crash => crash(&job.spec, &mut rec, root).map(|f| vec![f]),
        Kind::Tune => tune(&job.spec, &mut rec, root),
    }));
    rec.end(root);
    let wall_s = rec.spans[root]
        .end
        .duration_since(rec.spans[root].start)
        .as_secs_f64();
    rec.add("simt.copied_bytes", amrio_simt::copied_bytes() as f64);
    let (runs, failure) = match result {
        Ok(Ok(runs)) => (runs, None),
        Ok(Err(msg)) => (Vec::new(), Some(msg)),
        Err(payload) => (
            Vec::new(),
            Some(format!("panic: {}", panic_message(&*payload))),
        ),
    };
    let ops = rec.metrics.get("simt.ordered_ops").copied().unwrap_or(0.0);
    if ops > 0.0 {
        rec.add("simt.host_us_per_op", wall_s * 1e6 / ops);
    }
    if !rec.req_lens.is_empty() {
        let p50 = median(&rec.req_lens);
        rec.add("disk.req_bytes_p50", p50);
    }
    Traced {
        wall_s,
        runs,
        metrics: rec.metrics,
        spans: rec.spans,
        failure,
    }
}

/// State at the checkpoint, as the probe run's `RunProbe` carries it.
struct Dump {
    hierarchy: amrio_amr::Hierarchy,
    time: f64,
    cycle: u64,
}

/// The single-dump path of `Experiment::run`: init, refine, evolve,
/// refine, timed write, digest, timed read, digest.
fn single(
    spec: &ExperimentSpec,
    rec: &mut Recorder,
    parent: usize,
) -> Result<(RunFacts, Dump), String> {
    let platform = spec.platform.build(spec.nranks);
    let cfg = spec.sim_config();
    let strategy = spec.strategy.build();
    let mode = match (spec.check, spec.probe) {
        (CheckMode::Off, true) => Some(CheckMode::Log),
        (CheckMode::Off, false) => None,
        (m, _) => Some(m),
    };
    let checker = mode.map(|m| Arc::new(Checker::new(m, cfg.nranks)));
    let mut world = World::new(cfg.nranks, platform.net.clone());
    let mut io = MpiIo::new(platform.fs.clone());
    if let Some(r) = spec.retry {
        io.set_retry_policy(r.to_policy());
    }
    if let Some(a) = spec.advisory {
        io.set_advisory(a);
    }
    if let Some(ck) = &checker {
        if spec.probe {
            ck.record_collectives();
        }
        world = world.with_checker(Arc::clone(ck));
        io.attach_checker(ck);
    }
    io.fs().lock().trace.enable();

    let trace = WorldTrace::default();
    let run_id = rec.begin("simt.run", Some(parent));
    let report = world.run(|comm| {
        let t = RankTracer { comm, sink: &trace };
        let mut st = t.span("enzo.init", || SimState::init(comm, cfg.clone()));
        t.span("enzo.refine", || rebuild_refinement(comm, &mut st));
        for _ in 0..spec.cycles {
            t.span("enzo.evolve", || evolve_step(comm, &mut st, 1.0));
        }
        t.span("enzo.refine", || rebuild_refinement(comm, &mut st));
        let (w, ()) = timed(comm, || {
            t.span("enzo.write_checkpoint", || {
                strategy.write_checkpoint(comm, &io, &st, 0)
            })
        });
        t.phase(true, w);
        let d0 = t.span("enzo.digest", || global_digest(comm, &st));
        let (r, st2) = timed(comm, || {
            t.span("enzo.read_checkpoint", || {
                strategy.read_checkpoint(comm, &io, &st.cfg, 0)
            })
        });
        t.phase(false, r);
        let d1 = t.span("enzo.digest", || global_digest(comm, &st2));
        let dump = (comm.rank() == 0).then(|| Dump {
            hierarchy: st.hierarchy.clone(),
            time: st.time,
            cycle: st.cycle,
        });
        (w, r, d0 == d1, dump)
    });
    rec.end(run_id);
    let phases = trace.phases.lock().expect("phase sink").clone();
    rec.adopt(run_id, trace);
    rec.account_world(&world, Some(&report));
    let image_digest = rec.image_digest(&io, parent);
    rec.account_fs(&io.fs().lock(), &phases);
    if let Some(ck) = &checker {
        rec.add("check.violations", ck.finalize().len() as f64);
    }
    let makespan = report.makespan.0;
    let ordered_ops = report.ordered_ops;
    let (w, r, verified, dump) = report.results.into_iter().next().expect("rank 0");
    let dump = dump.expect("rank 0 returns the dump state");
    rec.add("enzo.grids", dump.hierarchy.grids.len() as f64);
    require(verified, "replica restart state differs from dump")?;
    let facts = RunFacts {
        image_digest,
        write_s: w.as_secs_f64(),
        read_s: r.as_secs_f64(),
        makespan_s: SimDur(makespan).as_secs_f64(),
        ordered_ops,
    };
    Ok((facts, dump))
}

/// A probe run, the static plan, the verifier over the candidate space,
/// the verified search, and the advised run.
fn tune(spec: &ExperimentSpec, rec: &mut Recorder, root: usize) -> Result<Vec<RunFacts>, String> {
    let platform = spec.platform.build(spec.nranks);
    let id = rec.begin("tune.probe", Some(root));
    let (probe, dump) = single(spec, rec, id)?;
    rec.end(id);

    let id = rec.begin("plan.plan", Some(root));
    let input = PlanInput::new(
        dump.hierarchy,
        dump.time,
        dump.cycle,
        spec.nranks,
        &platform.fs,
    );
    let access = plan(&input, Backend::MpiIo);
    rec.end(id);

    // `search_verified` runs this same admission check internally; it is
    // repeated here on its own so the verifier's share of a job shows.
    let id = rec.begin("verify.verify", Some(root));
    let refuted = candidate_space(access.nranks)
        .iter()
        .filter(|c| {
            let input = VerifyInput::plain(&access, &c.hints, &platform.fs);
            verify(&input).verdict() == Verdict::Violation
        })
        .count();
    rec.end(id);

    let id = rec.begin("tune.search", Some(root));
    let searched = search_verified(&access, &platform.fs, &platform.net);
    rec.end(id);
    require(
        refuted == searched.pruned.len(),
        "verifier and search disagree on pruned candidates",
    )?;
    let best = searched
        .outcome
        .candidates
        .first()
        .ok_or("search admitted no candidate")?;
    rec.add("tune.candidates", searched.outcome.candidates.len() as f64);
    rec.add("tune.pruned", searched.pruned.len() as f64);

    let mut advised_spec = spec.clone();
    advised_spec.probe = false;
    advised_spec.advisory = Some(best.cfg.advisory());
    let id = rec.begin("tune.advised", Some(root));
    let (advised, _) = single(&advised_spec, rec, id)?;
    rec.end(id);

    let actual = advised.write_s + advised.read_s;
    rec.add(
        "tune.predict_error",
        (best.cost.total_s() - actual).abs() / actual,
    );
    rec.add(
        "tune.tuned_over_default",
        actual / (probe.write_s + probe.read_s),
    );
    require(
        advised.image_digest == probe.image_digest,
        "replica advised image differs from the probe image",
    )?;
    Ok(vec![probe, advised])
}

/// What one incarnation of the generational loop returns from rank 0.
struct GenResult {
    grids: usize,
    w: SimDur,
    r: SimDur,
    verified: bool,
    resume_verified: bool,
}

/// The generational path of `Experiment::run` with its crash loop:
/// dump and commit a generation every `dump_every` cycles; when the
/// armed crash fires, salvage the image, scan it, and resume from the
/// newest committed generation.
fn crash(spec: &ExperimentSpec, rec: &mut Recorder, root: usize) -> Result<RunFacts, String> {
    let platform = spec.platform.build(spec.nranks);
    let cfg = spec.sim_config();
    let strategy = spec.strategy.build();
    let cycles = spec.cycles as u64;
    let k = spec.dump_every.unwrap_or(spec.cycles).max(1) as u64;
    let plan = Arc::new(
        spec.faults
            .as_ref()
            .ok_or("crash job without a fault plan")?
            .to_plan(platform.fs.nservers)
            .map_err(|e| format!("fault plan: {e}"))?,
    );
    amrio_fault::silence_crash_panics();

    let mut crashes = 0u64;
    let mut resume: Option<Manifest> = None;
    let mut salvaged: Option<Arc<amrio_simt::sync::Mutex<Pfs>>> = None;
    let mut violations: Vec<Violation> = Vec::new();

    let (report, io, checker, phases) = loop {
        let checker =
            (spec.check != CheckMode::Off).then(|| Arc::new(Checker::new(spec.check, cfg.nranks)));
        let mut world = World::new(cfg.nranks, platform.net.clone());
        let io = match salvaged.take() {
            Some(fs) => MpiIo::from_fs(fs),
            None => MpiIo::new(platform.fs.clone()),
        };
        if crashes == 0 {
            world = world.with_faults(Arc::clone(&plan));
            io.attach_faults(Arc::clone(&plan));
        }
        if let Some(ck) = &checker {
            world = world.with_checker(Arc::clone(ck));
            io.attach_checker(ck);
        }
        io.fs().lock().trace.enable();

        let resume_man = resume.clone();
        let next_gen = resume_man.as_ref().map(|m| m.generation + 1).unwrap_or(0);
        let trace = WorldTrace::default();
        let run_id = rec.begin("simt.run", Some(root));
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            world.run(|comm| {
                let t = RankTracer { comm, sink: &trace };
                let (resume_verified, mut st) = match &resume_man {
                    Some(man) => {
                        let st = t.span("enzo.read_checkpoint", || {
                            strategy.read_checkpoint(comm, &io, &cfg, man.generation)
                        });
                        let d = t.span("enzo.digest", || global_digest(comm, &st));
                        (d == man.state_digest, st)
                    }
                    None => {
                        let mut st = t.span("enzo.init", || SimState::init(comm, cfg.clone()));
                        t.span("enzo.refine", || rebuild_refinement(comm, &mut st));
                        (true, st)
                    }
                };
                let mut gen = next_gen;
                if st.cycle >= cycles && next_gen > 0 {
                    let d0 = t.span("enzo.digest", || global_digest(comm, &st));
                    let (r, st2) = timed(comm, || {
                        t.span("enzo.read_checkpoint", || {
                            strategy.read_checkpoint(comm, &io, &cfg, next_gen - 1)
                        })
                    });
                    t.phase(false, r);
                    let d1 = t.span("enzo.digest", || global_digest(comm, &st2));
                    return GenResult {
                        grids: st2.hierarchy.grids.len(),
                        w: SimDur::ZERO,
                        r,
                        verified: d0 == d1,
                        resume_verified,
                    };
                }
                loop {
                    let todo = cycles.saturating_sub(st.cycle).min(k);
                    if todo > 0 {
                        for _ in 0..todo {
                            t.span("enzo.evolve", || evolve_step(comm, &mut st, 1.0));
                        }
                        t.span("enzo.refine", || rebuild_refinement(comm, &mut st));
                    }
                    let (w, ()) = timed(comm, || {
                        t.span("enzo.write_checkpoint", || {
                            strategy.write_checkpoint(comm, &io, &st, gen)
                        })
                    });
                    t.phase(true, w);
                    let d0 = t.span("enzo.digest", || global_digest(comm, &st));
                    t.span("recover.commit", || commit(comm, &io, gen, &st, d0));
                    let (r, st2) = timed(comm, || {
                        t.span("enzo.read_checkpoint", || {
                            strategy.read_checkpoint(comm, &io, &cfg, gen)
                        })
                    });
                    t.phase(false, r);
                    let d1 = t.span("enzo.digest", || global_digest(comm, &st2));
                    st = st2;
                    gen += 1;
                    if st.cycle >= cycles {
                        return GenResult {
                            grids: st.hierarchy.grids.len(),
                            w,
                            r,
                            verified: d0 == d1,
                            resume_verified,
                        };
                    }
                }
            })
        }));
        rec.end(run_id);
        let phases = trace.phases.lock().expect("phase sink").clone();
        rec.adopt(run_id, trace);
        match attempt {
            Ok(report) => {
                rec.account_world(&world, Some(&report));
                for _ in 0..crashes {
                    plan.note_recovery();
                }
                break (report, io, checker, phases);
            }
            Err(payload) => {
                if payload.downcast_ref::<Crashed>().is_none() {
                    resume_unwind(payload);
                }
                rec.account_world::<()>(&world, None);
                crashes += 1;
                require(crashes <= 8, "crash-restart loop did not converge")?;
                plan.note_crash();
                if let Some(ck) = &checker {
                    violations.extend(ck.finalize_truncated().violations);
                }
                let mut fs = io.fs().lock().clone();
                fs.clear_faults();
                fs.trace.events.clear();
                let id = rec.begin("recover.scan", Some(root));
                let found = scan(&fs);
                rec.end(id);
                rec.add("recover.torn_generations", found.damaged() as f64);
                plan.note_torn_generations(found.damaged());
                resume = found.latest_committed().and_then(|g| g.manifest.clone());
                salvaged = Some(Arc::new(amrio_simt::sync::Mutex::new(fs)));
            }
        }
    };

    let makespan = report.makespan.0;
    let ordered_ops = report.ordered_ops;
    let res = report.results.into_iter().next().expect("rank 0");
    let image_digest = rec.image_digest(&io, root);
    if let Some(ck) = &checker {
        violations.extend(ck.finalize().violations);
    }
    rec.account_fs(&io.fs().lock(), &phases);
    rec.add("check.violations", violations.len() as f64);
    rec.add("recover.crashes", crashes as f64);
    rec.add("enzo.grids", res.grids as f64);
    // A check the untraced job cannot make (it never sees the image):
    // the final image must hold the last generation committed. It runs
    // inside the traced job, so it counts toward tracing overhead.
    let found = scan(&io.fs().lock());
    let committed = found
        .generations
        .iter()
        .filter(|g| g.status == amrio_recover::GenStatus::Committed)
        .count();
    rec.add("recover.committed_generations", committed as f64);
    let last = cycles.div_ceil(k) as u32 - 1;
    require(
        found.latest_committed().map(|g| g.generation) == Some(last),
        "the last generation is not committed",
    )?;
    require(crashes > 0, "replica crash did not fire")?;
    require(res.verified, "replica restart state differs from dump")?;
    require(
        res.resume_verified,
        "replica resume differs from its manifest",
    )?;
    require(violations.is_empty(), "replica checker found violations")?;
    Ok(RunFacts {
        image_digest,
        write_s: res.w.as_secs_f64(),
        read_s: res.r.as_secs_f64(),
        makespan_s: SimDur(makespan).as_secs_f64(),
        ordered_ops,
    })
}

/// Publish generation `gen` as `Experiment::run` does: rank 0 captures
/// the manifest host-side and writes it in one request; all ranks then
/// meet at a barrier.
fn commit(comm: &Comm, io: &MpiIo, gen: u32, st: &SimState, state_digest: u64) {
    if comm.rank() == 0 {
        let bytes = {
            let fs = io.fs();
            let fs = fs.lock();
            Manifest::capture(&fs, gen, st.cycle, st.time, state_digest).encode()
        };
        let file = io.open_single(comm, &manifest_path(gen), Mode::Create);
        file.write_at(0, &bytes);
    }
    comm.barrier();
}
