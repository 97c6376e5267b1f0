//! The benchmark's workloads and the jobs each one runs.
//!
//! A workload is a fixed experiment shape; a job is one run of it on a
//! spec seed (and, for the crash workload, a crash instant) drawn from
//! the workload seed with splitmix64. See `perfbench/README.md` for why
//! each workload was chosen and which layers it stresses.

use crate::stats::splitmix64;
use amrio_check::CheckMode;
use amrio_enzo::{ExperimentSpec, FaultEntry, FaultSpec, PlatformId, StrategyId};

/// How a job drives the library.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One `Experiment` run: init, refine, evolve, timed write, timed
    /// read, verification.
    Single,
    /// A generational strict-checked run with one seeded whole-machine
    /// crash, recovered by restart-from-latest.
    Crash,
    /// A probe run, `amrio_plan::plan`, `amrio_tune::search_verified`,
    /// then the run with the winning advisory installed.
    Tune,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub platform: PlatformId,
    pub strategy: StrategyId,
    pub root_n: u64,
    pub nranks: usize,
    pub cycles: u32,
    /// Distinct job seeds per run. Timed jobs cycle through them, and
    /// the virtual metrics are medians over them.
    pub job_seeds: usize,
}

/// Crash instants are drawn uniformly from this virtual-time window (in
/// seconds). On `pvfs-hdf4-gens-crash` it lay after generation 2 had
/// committed and before generation 3 started writing for each spec seed
/// probed, so the crash lands between dumps and recovery resumes from a
/// committed generation.
const CRASH_WINDOW_S: (f64, f64) = (6.6, 7.6);

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sp2-mpiio-p256",
        kind: Kind::Single,
        platform: PlatformId::IbmSp2,
        strategy: StrategyId::MpiIoOptimized,
        root_n: 16,
        nranks: 256,
        cycles: 2,
        job_seeds: 3,
    },
    Workload {
        name: "o2k-hdf5-amr64",
        kind: Kind::Single,
        platform: PlatformId::Origin2000,
        strategy: StrategyId::Hdf5Parallel,
        root_n: 64,
        nranks: 8,
        cycles: 2,
        job_seeds: 5,
    },
    Workload {
        name: "pvfs-hdf4-gens-crash",
        kind: Kind::Crash,
        platform: PlatformId::ChibaPvfs,
        strategy: StrategyId::Hdf4Serial,
        root_n: 32,
        nranks: 8,
        cycles: 4,
        job_seeds: 10,
    },
    Workload {
        name: "o2k-tune-amr32",
        kind: Kind::Tune,
        platform: PlatformId::Origin2000,
        strategy: StrategyId::MpiIoOptimized,
        root_n: 32,
        nranks: 8,
        cycles: 2,
        job_seeds: 4,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One job's inputs.
#[derive(Clone, Debug)]
pub struct Job {
    /// The spec as the job runs it: for `Tune` jobs, the probe run.
    pub spec: ExperimentSpec,
}

impl Workload {
    /// The run's distinct jobs followed by the warm-up job, whose seed
    /// lies outside the timed set. All are drawn from one splitmix64
    /// stream over `seed`.
    pub fn jobs(&self, seed: u64) -> (Vec<Job>, Job) {
        let mut state = seed;
        let jobs: Vec<Job> = (0..self.job_seeds).map(|_| self.job(&mut state)).collect();
        let warmup = self.job(&mut state);
        assert!(
            jobs.iter().all(|j| j.spec.seed != warmup.spec.seed),
            "warm-up seed collides with a timed seed"
        );
        (jobs, warmup)
    }

    fn job(&self, state: &mut u64) -> Job {
        let mut spec = ExperimentSpec::new(self.platform, self.strategy, self.root_n, self.nranks);
        spec.cycles = self.cycles;
        spec.seed = splitmix64(state);
        match self.kind {
            Kind::Single => {}
            Kind::Crash => {
                let u = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
                let (lo, hi) = CRASH_WINDOW_S;
                let at_ns = ((lo + (hi - lo) * u) * 1e9) as u64;
                spec.dump_every = Some(1);
                spec.check = CheckMode::Strict;
                spec.faults = Some(FaultSpec {
                    server_count: None,
                    entries: vec![FaultEntry::Crash { at_ns }],
                });
            }
            Kind::Tune => spec.probe = true,
        }
        Job { spec }
    }
}
