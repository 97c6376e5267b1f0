//! Golden-bytes equivalence: the final file-system image of a
//! checkpoint dump must stay byte-identical across data-path changes.
//!
//! The digest constants were captured from the pre-zero-copy
//! implementation (scalar writes, payload-cloning collectives, domain
//! assembly in two-phase I/O) on the same configuration the selfbench
//! smoke cells use: IBM SP-2/GPFS platform, 16^3 root grid, 4 ranks,
//! 2 evolution cycles. Any refactor that changes *what* lands on disk —
//! not just how it gets there — fails here. `RunReport::image_digest`
//! is an FNV-1a hash over every file's path, length, and content.

use amrio::enzo::spec::{ExperimentSpec, PlatformId, StrategyId};
use amrio::enzo::{
    Experiment, Hdf4Serial, Hdf5Parallel, IoStrategy, MpiIoOptimized, Platform, ProblemSize,
    SimConfig,
};

const EVOLVE_CYCLES: u32 = 2;
const NRANKS: usize = 4;
const ROOT_N: u64 = 16;

fn image_digest(strategy: &dyn IoStrategy) -> u64 {
    let platform = Platform::ibm_sp2(NRANKS);
    let cfg = SimConfig::new(ProblemSize::Custom(ROOT_N), NRANKS);
    let r = Experiment::new(&platform, &cfg, strategy)
        .cycles(EVOLVE_CYCLES)
        .run()
        .report;
    assert!(r.verified, "restart verification failed");
    r.image_digest
}

#[test]
fn hdf4_serial_image_matches_seed() {
    assert_eq!(image_digest(&Hdf4Serial), 0x33c1060cccaba736);
}

#[test]
fn mpiio_optimized_image_matches_seed() {
    assert_eq!(image_digest(&MpiIoOptimized), 0xe775d975bcc484a4);
}

#[test]
fn hdf5_parallel_image_matches_seed() {
    assert_eq!(image_digest(&Hdf5Parallel::default()), 0x48f25b415df8973e);
}

/// A 64-rank pin where `alltoallv` exchanges are mostly empty slots:
/// image digest, the exact bits of the three virtual times, and the
/// ordered-op count. Any change to what an exchange delivers or to the
/// order in which its pairs are priced moves one of them. Captured
/// while `alltoallv` still cloned every payload into a pre-filled P×P
/// matrix.
#[test]
fn mpiio_optimized_64_ranks_match_seed() {
    let mut spec = ExperimentSpec::new(PlatformId::IbmSp2, StrategyId::MpiIoOptimized, 16, 64);
    spec.cycles = 2;
    spec.seed = 1000;
    let r = Experiment::from_spec(&spec)
        .expect("valid spec")
        .run()
        .report;
    assert!(r.verified, "restart verification failed");
    assert_eq!(r.image_digest, 0xc6e45bc841c7c17f);
    // 1.41946495 s, 3.058239771 s and 4.500412036 s.
    assert_eq!(r.write_time.to_bits(), 0x3ff6b620e12117a8);
    assert_eq!(r.read_time.to_bits(), 0x4008774669be2c18);
    assert_eq!(r.makespan.to_bits(), 0x4012006c03449440);
    assert_eq!(r.ordered_ops, 7258);
}
