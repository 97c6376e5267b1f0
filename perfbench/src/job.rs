//! Untraced jobs: what a user of the library runs, timed on the host
//! and checked for correctness.

use crate::workload::{Job, Kind};
use amrio_enzo::{Experiment, RunOutcome, RunReport, SpecExperiment};
use amrio_plan::{plan, Backend, PlanInput};
use amrio_tune::search_verified;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The parts of one world run that the traced replica must reproduce
/// bit for bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunFacts {
    pub image_digest: u64,
    pub write_s: f64,
    pub read_s: f64,
    pub makespan_s: f64,
    pub ordered_ops: u64,
}

impl RunFacts {
    pub fn of(r: &RunReport) -> RunFacts {
        RunFacts {
            image_digest: r.image_digest,
            write_s: r.write_time,
            read_s: r.read_time,
            makespan_s: r.makespan,
            ordered_ops: r.ordered_ops,
        }
    }
}

/// A job's result: its host wall time, the facts of every world run it
/// made (for a `Tune` job the probe run, then the advised run), and the
/// first correctness check it missed, if any.
pub struct JobOutcome {
    pub wall_s: f64,
    pub runs: Vec<RunFacts>,
    pub failure: Option<String>,
}

/// A job built during set-up: the validated experiment, ready to run.
pub struct Prepared {
    pub job: Job,
    pub exp: SpecExperiment,
}

impl Prepared {
    pub fn new(job: Job) -> Result<Prepared, String> {
        let exp = Experiment::from_spec(&job.spec).map_err(|e| format!("spec: {e}"))?;
        Ok(Prepared { job, exp })
    }
}

/// Run one job with tracing off. A panic inside the job is a failure,
/// not an abort.
pub fn run(kind: Kind, p: &Prepared) -> JobOutcome {
    let mut runs = Vec::new();
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| body(kind, p, &mut runs)));
    let wall_s = t0.elapsed().as_secs_f64();
    let failure = match result {
        Ok(Ok(())) => None,
        Ok(Err(msg)) => Some(msg),
        Err(payload) => Some(format!("panic: {}", panic_message(&*payload))),
    };
    JobOutcome {
        wall_s,
        runs,
        failure,
    }
}

pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

fn body(kind: Kind, p: &Prepared, runs: &mut Vec<RunFacts>) -> Result<(), String> {
    let outcome = p.exp.run();
    runs.push(RunFacts::of(&outcome.report));
    require(outcome.report.verified, "restart state differs from dump")?;
    match kind {
        Kind::Single => Ok(()),
        Kind::Crash => check_crash(&outcome),
        Kind::Tune => {
            let probe = outcome
                .probe
                .as_ref()
                .ok_or("probe run returned no probe")?;
            let fs = &p.exp.platform().fs;
            let access = plan(&PlanInput::from_probe(probe, fs), Backend::MpiIo);
            let searched = search_verified(&access, fs, &p.exp.platform().net);
            let best = searched
                .outcome
                .candidates
                .first()
                .ok_or("search admitted no candidate")?;
            let mut spec = p.job.spec.clone();
            spec.probe = false;
            spec.advisory = Some(best.cfg.advisory());
            let advised = Experiment::from_spec(&spec)
                .map_err(|e| format!("advised spec: {e}"))?
                .run();
            runs.push(RunFacts::of(&advised.report));
            require(advised.report.verified, "advised restart differs from dump")?;
            require(
                advised.report.image_digest == outcome.report.image_digest,
                "advised image differs from the probe image",
            )
        }
    }
}

fn check_crash(o: &RunOutcome) -> Result<(), String> {
    let check = o.check.as_ref().ok_or("strict checker report missing")?;
    require(
        check.is_clean(),
        &format!("checker found {} violations", check.len()),
    )?;
    let rec = o.recovery.as_ref().ok_or("the seeded crash did not fire")?;
    require(
        rec.resume_verified,
        "resumed state differs from its manifest",
    )?;
    require(
        rec.resumed_generation.is_some(),
        "recovery found no committed generation",
    )
}

pub fn require(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_string())
    }
}
