//! The host's current speed, read from a fixed reference kernel.
//!
//! A shared host changes speed in phases that last from seconds to
//! minutes, and every host time follows them. The benchmark runs this
//! kernel next to its timed spans and scales host times to the speed at
//! which one kernel run takes `NOMINAL_S`.
//!
//! The kernel does what dominates the simulator's host cost: it hands
//! control from thread to thread. As many threads as the workload has
//! ranks pass a turn around a ring under one mutex, each waking only
//! the next on its own condition variable, as the engine wakes the rank
//! it grants next. See `perfbench/README.md` for how it was chosen.

use std::sync::{Condvar, Mutex};
use std::thread;
use std::time::Instant;

/// One kernel run's time at the reference speed: about the median of an
/// 8-thread run on the 2-vCPU Intel Xeon virtual machine the benchmark
/// was written on.
pub const NOMINAL_S: f64 = 0.025;

/// Turns passed around the ring per kernel run.
const HANDOFFS: usize = 3200;
/// Kernel time spent after a timed span, as a share of the span.
const SHARE: f64 = 0.05;

/// `span_s` seconds of host time, scaled to the reference speed, given
/// the kernel's time `kernel_s` measured next to it.
pub fn scale(span_s: f64, kernel_s: f64) -> f64 {
    span_s * NOMINAL_S / kernel_s
}

/// Kernel runs on a ring of `ring` threads after a span of `span_s`
/// seconds: at least one, and as many as fit in `SHARE` of the span, so
/// that a run's long jobs weigh as much as its short ones.
pub fn sample_after(ring: usize, span_s: f64, readings: &mut Vec<f64>) {
    let mut spent = 0.0;
    while spent == 0.0 || spent < SHARE * span_s {
        let k = measure(ring);
        readings.push(k);
        spent += k;
    }
}

/// One kernel run on a ring of `ring` threads, in seconds.
pub fn measure(ring: usize) -> f64 {
    let turn = Mutex::new(0usize);
    let wake: Vec<Condvar> = (0..ring).map(|_| Condvar::new()).collect();
    let t0 = Instant::now();
    thread::scope(|s| {
        for me in 0..ring {
            let (turn, wake) = (&turn, &wake);
            s.spawn(move || {
                let mut t = turn.lock().expect("kernel turn");
                for _ in 0..HANDOFFS.div_ceil(ring) {
                    while *t % ring != me {
                        t = wake[me].wait(t).expect("kernel turn");
                    }
                    *t += 1;
                    wake[(me + 1) % ring].notify_one();
                }
            });
        }
    });
    t0.elapsed().as_secs_f64()
}
