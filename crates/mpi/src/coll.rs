//! Collective operations, priced by simulating their message patterns on
//! the shared network inside a rendezvous (see crate docs).
//!
//! Patterns follow the classic MPICH algorithms of the era: binomial trees
//! for broadcast/reduce, dissemination for barrier, rooted flat trees for
//! gatherv/scatterv (the root drains/injects messages serially — exactly
//! the bottleneck that hurts the HDF4 processor-0 design), and pairwise
//! exchange rounds for alltoallv.

use crate::Comm;
use amrio_check::{CollDesc, CollKind};
use amrio_net::Net;
use amrio_simt::{Bytes, Rank, SimDur, SimTime};

/// Reduction operators over `f64` vectors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Max,
    Min,
}

impl ReduceOp {
    pub fn name(self) -> &'static str {
        match self {
            ReduceOp::Sum => "sum",
            ReduceOp::Max => "max",
            ReduceOp::Min => "min",
        }
    }

    fn apply(self, acc: &mut [f64], v: &[f64]) {
        assert_eq!(acc.len(), v.len(), "reduce length mismatch");
        for (a, b) in acc.iter_mut().zip(v) {
            *a = match self {
                ReduceOp::Sum => *a + *b,
                ReduceOp::Max => a.max(*b),
                ReduceOp::Min => a.min(*b),
            };
        }
    }
}

fn unpack_cost(net: &Net, bytes: u64) -> SimDur {
    SimDur::transfer(bytes, net.config().intra.bandwidth)
}

/// Simulate a binomial broadcast of `bytes` from `root`; updates per-rank
/// clocks in place.
fn binomial_bcast_times(net: &mut Net, clocks: &mut [SimTime], root: Rank, bytes: u64) {
    let n = clocks.len();
    let rel = |r: usize| (r + n - root) % n;
    let abs = |r: usize| (r + root) % n;
    let mut have: Vec<bool> = (0..n).map(|r| rel(r) == 0).collect();
    let mut k = 1;
    while k < n {
        for relsrc in 0..k.min(n) {
            let reldst = relsrc + k;
            if reldst >= n {
                continue;
            }
            let (src, dst) = (abs(relsrc), abs(reldst));
            // A broken tree schedule silently corrupts every downstream
            // timing figure, so this invariant stays on in release builds.
            assert!(
                have[src] && !have[dst],
                "binomial bcast schedule broken at round k={k}: \
                 src rank {src} (has payload: {}) -> dst rank {dst} (has payload: {}), \
                 root {root}, {n} ranks",
                have[src],
                have[dst]
            );
            let x = net.transfer(src, dst, bytes, clocks[src]);
            clocks[src] = x.sender_free;
            clocks[dst] = clocks[dst].max(x.arrival) + unpack_cost(net, bytes);
            have[dst] = true;
        }
        k *= 2;
    }
}

/// Simulate a binomial reduce of `bytes` towards `root`.
fn binomial_reduce_times(net: &mut Net, clocks: &mut [SimTime], root: Rank, bytes: u64) {
    let n = clocks.len();
    let abs = |r: usize| (r + root) % n;
    let mut k = 1;
    while k < n {
        let mut rel = 0;
        while rel < n {
            let relsrc = rel + k;
            if relsrc < n {
                let (src, dst) = (abs(relsrc), abs(rel));
                let x = net.transfer(src, dst, bytes, clocks[src]);
                clocks[src] = x.sender_free;
                clocks[dst] = clocks[dst].max(x.arrival) + unpack_cost(net, bytes);
            }
            rel += 2 * k;
        }
        k *= 2;
    }
}

impl<'a> Comm<'a> {
    /// Synchronize all ranks; every rank leaves at the same instant.
    ///
    /// A barrier is also the MPI-IO *sync point*: with a checker
    /// attached, it closes the current file-consistency epoch.
    pub fn barrier(&self) {
        let desc = CollDesc {
            kind: CollKind::Barrier,
            root: None,
            op: None,
            bytes: 0,
            uniform_bytes: true,
        };
        self.rendezvous(desc, (), |net, inputs| {
            let mut clocks: Vec<SimTime> = inputs.iter().map(|(t, _)| *t).collect();
            // Reduce-then-broadcast with empty payloads.
            binomial_reduce_times(net, &mut clocks, 0, 8);
            binomial_bcast_times(net, &mut clocks, 0, 8);
            let release = clocks.iter().copied().max().unwrap_or(SimTime::ZERO);
            clocks.iter().map(|_| (release, ())).collect()
        });
        if let Some(ck) = self.checker() {
            // All ranks leave at the same release instant, so every rank
            // reports the same boundary and the checker dedupes.
            ck.sync_point(self.now());
        }
    }

    /// Broadcast `data` from `root`; every rank returns the payload.
    /// Every rank's result shares the root's buffer (no payload copies).
    pub fn bcast(&self, root: Rank, data: impl Into<Bytes>) -> Bytes {
        let me = self.rank();
        let input = if me == root {
            data.into()
        } else {
            Bytes::new()
        };
        let desc = CollDesc {
            kind: CollKind::Bcast,
            root: Some(root),
            op: None,
            bytes: input.len() as u64,
            uniform_bytes: false,
        };
        self.rendezvous(desc, input, move |net, inputs| {
            let mut clocks: Vec<SimTime> = inputs.iter().map(|(t, _)| *t).collect();
            let payload: Bytes = inputs
                .into_iter()
                .enumerate()
                .find(|(r, _)| *r == root)
                .map(|(_, (_, d))| d)
                .expect("root present");
            binomial_bcast_times(net, &mut clocks, root, payload.len() as u64);
            clocks.iter().map(|ct| (*ct, payload.clone())).collect()
        })
    }

    /// Gather variable-size payloads at `root`; returns per-rank data at
    /// the root (indexed by rank) and an empty vec elsewhere.
    ///
    /// The root drains the messages serially (flat tree), which is what
    /// makes processor-0 collection scale poorly with P.
    pub fn gatherv(&self, root: Rank, data: impl Into<Bytes>) -> Vec<Bytes> {
        let data = data.into();
        let desc = CollDesc {
            kind: CollKind::Gatherv,
            root: Some(root),
            op: None,
            bytes: data.len() as u64,
            uniform_bytes: false,
        };
        self.rendezvous(desc, data, move |net, inputs| {
            let n = inputs.len();
            let mut clocks: Vec<SimTime> = inputs.iter().map(|(t, _)| *t).collect();
            let payloads: Vec<Bytes> = inputs.into_iter().map(|(_, d)| d).collect();
            let mut root_clock = clocks[root];
            for src in 0..n {
                if src == root {
                    continue;
                }
                let bytes = payloads[src].len() as u64;
                let x = net.transfer(src, root, bytes, clocks[src]);
                clocks[src] = x.sender_free;
                root_clock = root_clock.max(x.arrival) + unpack_cost(net, bytes);
            }
            clocks[root] = root_clock;
            (0..n)
                .map(|r| {
                    let out = if r == root {
                        payloads.clone()
                    } else {
                        Vec::new()
                    };
                    (clocks[r], out)
                })
                .collect()
        })
    }

    /// Scatter per-rank payloads from `root` (which supplies a vec indexed
    /// by rank; other ranks pass anything, conventionally empty).
    pub fn scatterv<B: Into<Bytes>>(&self, root: Rank, data: Vec<B>) -> Bytes {
        let me = self.rank();
        let input: Vec<Bytes> = if me == root {
            data.into_iter().map(Into::into).collect()
        } else {
            Vec::new()
        };
        let desc = CollDesc {
            kind: CollKind::Scatterv,
            root: Some(root),
            op: None,
            bytes: input.iter().map(|p| p.len() as u64).sum(),
            uniform_bytes: false,
        };
        self.rendezvous(desc, input, move |net, inputs| {
            let n = inputs.len();
            let mut clocks: Vec<SimTime> = inputs.iter().map(|(t, _)| *t).collect();
            let parts: Vec<Bytes> = inputs
                .into_iter()
                .enumerate()
                .find(|(r, _)| *r == root)
                .map(|(_, (_, d))| d)
                .expect("root present");
            assert_eq!(parts.len(), n, "scatterv needs one payload per rank");
            let mut outs: Vec<Option<Bytes>> = (0..n).map(|_| None).collect();
            for (dst, part) in parts.into_iter().enumerate() {
                if dst == root {
                    outs[dst] = Some(part);
                    continue;
                }
                let bytes = part.len() as u64;
                let x = net.transfer(root, dst, bytes, clocks[root]);
                clocks[root] = x.sender_free;
                clocks[dst] = clocks[dst].max(x.arrival) + unpack_cost(net, bytes);
                outs[dst] = Some(part);
            }
            clocks
                .iter()
                .zip(outs)
                .map(|(ct, o)| (*ct, o.expect("payload for every rank")))
                .collect()
        })
    }

    /// Allreduce over `f64` vectors (binomial reduce + binomial bcast).
    pub fn allreduce_f64(&self, vals: &[f64], op: ReduceOp) -> Vec<f64> {
        let input = vals.to_vec();
        let desc = CollDesc {
            kind: CollKind::Allreduce,
            root: None,
            op: Some(op.name()),
            bytes: (input.len() * 8) as u64,
            uniform_bytes: true,
        };
        self.rendezvous(desc, input, move |net, inputs| {
            let n = inputs.len();
            let mut clocks: Vec<SimTime> = inputs.iter().map(|(t, _)| *t).collect();
            let bytes = (inputs[0].1.len() * 8) as u64;
            let mut acc = inputs[0].1.clone();
            for (_, v) in inputs.iter().skip(1) {
                op.apply(&mut acc, v);
            }
            binomial_reduce_times(net, &mut clocks, 0, bytes);
            binomial_bcast_times(net, &mut clocks, 0, bytes);
            (0..n).map(|r| (clocks[r], acc.clone())).collect()
        })
    }

    /// Allreduce of a single u64 (implemented over f64; exact for values
    /// below 2^53, which covers all sizes/counters the app exchanges).
    pub fn allreduce_u64(&self, val: u64, op: ReduceOp) -> u64 {
        assert!(val < (1 << 53), "u64 allreduce exact range exceeded");
        self.allreduce_f64(&[val as f64], op)[0] as u64
    }

    /// All-gather variable-size payloads; everyone returns all payloads
    /// indexed by rank. Implemented as gather-to-0 plus broadcast.
    pub fn allgatherv(&self, data: impl Into<Bytes>) -> Vec<Bytes> {
        let data = data.into();
        let desc = CollDesc {
            kind: CollKind::Allgatherv,
            root: None,
            op: None,
            bytes: data.len() as u64,
            uniform_bytes: false,
        };
        self.rendezvous(desc, data, move |net, inputs| {
            let n = inputs.len();
            let mut clocks: Vec<SimTime> = inputs.iter().map(|(t, _)| *t).collect();
            let payloads: Vec<Bytes> = inputs.into_iter().map(|(_, d)| d).collect();
            let mut root_clock = clocks[0];
            for src in 1..n {
                let bytes = payloads[src].len() as u64;
                let x = net.transfer(src, 0, bytes, clocks[src]);
                clocks[src] = x.sender_free;
                root_clock = root_clock.max(x.arrival) + unpack_cost(net, bytes);
            }
            clocks[0] = root_clock;
            let total: u64 = payloads.iter().map(|p| p.len() as u64).sum();
            binomial_bcast_times(net, &mut clocks, 0, total);
            (0..n).map(|r| (clocks[r], payloads.clone())).collect()
        })
    }

    /// Personalized all-to-all: `data[dst]` goes to rank `dst`; returns a
    /// vec indexed by source rank. Pairwise-exchange rounds: in round k,
    /// rank i sends to (i+k) mod P and receives from (i-k) mod P.
    /// Payloads are moved, not cloned, from sender to receiver.
    pub fn alltoallv<B: Into<Bytes>>(&self, data: Vec<B>) -> Vec<Bytes> {
        assert_eq!(data.len(), self.size(), "one payload per destination");
        let data: Vec<Bytes> = data.into_iter().map(Into::into).collect();
        let desc = CollDesc {
            kind: CollKind::Alltoallv,
            root: None,
            op: None,
            bytes: data.iter().map(|p| p.len() as u64).sum(),
            uniform_bytes: false,
        };
        self.rendezvous(desc, data, move |net, inputs| {
            let n = inputs.len();
            let (mut clocks, mut payloads): (Vec<SimTime>, Vec<Vec<Bytes>>) =
                inputs.into_iter().unzip();
            // Everyone starts the exchange together (implicit sync).
            let start = clocks.iter().copied().max().unwrap_or(SimTime::ZERO);
            clocks.fill(start);
            // Local hand-offs first.
            for i in 0..n {
                clocks[i] += unpack_cost(net, payloads[i][i].len() as u64);
            }
            // Every pair is priced, zero-byte ones included: they still
            // pay latency and hold adapters on port-limited fabrics.
            let mut arrivals: Vec<(usize, SimTime, u64)> = Vec::with_capacity(n);
            for k in 1..n {
                // Pre-compute arrivals for this round, then merge.
                for i in 0..n {
                    let dst = (i + k) % n;
                    let bytes = payloads[i][dst].len() as u64;
                    let x = net.transfer(i, dst, bytes, clocks[i]);
                    clocks[i] = x.sender_free;
                    arrivals.push((dst, x.arrival, bytes));
                }
                for (dst, arr, bytes) in arrivals.drain(..) {
                    clocks[dst] = clocks[dst].max(arr) + unpack_cost(net, bytes);
                }
            }
            // Move each payload into its destination's row (indexed by
            // source); the vacated slots are allocation-free empties.
            clocks
                .into_iter()
                .enumerate()
                .map(|(dst, ct)| {
                    let row = payloads
                        .iter_mut()
                        .map(|from_src| std::mem::take(&mut from_src[dst]))
                        .collect();
                    (ct, row)
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::World;
    use amrio_net::NetConfig;
    use amrio_simt::SimTime;

    use super::ReduceOp;

    #[test]
    fn barrier_synchronizes_clocks() {
        let w = World::new(8, NetConfig::ccnuma(8));
        let r = w.run(|c| {
            c.compute(amrio_simt::SimDur::from_micros(c.rank() as u64 * 100));
            c.barrier();
            c.now()
        });
        let t0 = r.results[0];
        assert!(r.results.iter().all(|t| *t == t0), "{:?}", r.results);
        assert!(t0 > SimTime(700_000), "barrier must wait for slowest rank");
    }

    #[test]
    fn bcast_delivers_payload_everywhere() {
        let w = World::new(5, NetConfig::fast_ethernet(5));
        let r = w.run(|c| {
            let data = if c.rank() == 2 {
                vec![9u8; 1000]
            } else {
                vec![]
            };
            c.bcast(2, data)
        });
        for d in &r.results {
            assert_eq!(d, &vec![9u8; 1000]);
        }
    }

    #[test]
    fn gatherv_collects_by_rank_and_serializes_at_root() {
        let w = World::new(6, NetConfig::fast_ethernet(6));
        let r = w.run(|c| {
            let mine = vec![c.rank() as u8; 100_000];
            let all = c.gatherv(0, mine);
            (c.now(), all)
        });
        let (t_root, all) = &r.results[0];
        for (i, d) in all.iter().enumerate() {
            assert_eq!(d, &vec![i as u8; 100_000]);
        }
        // Root's NIC receives 5 x 100 KB at 11.5 MB/s: >= ~43 ms.
        assert!(t_root.as_secs_f64() > 0.04, "{t_root:?}");
        // Non-roots return no data and finish earlier than the root.
        assert!(r.results[3].1.is_empty());
    }

    #[test]
    fn scatterv_routes_each_part() {
        let w = World::new(4, NetConfig::ccnuma(4));
        let r = w.run(|c| {
            let parts = if c.rank() == 1 {
                (0..4).map(|i| vec![i as u8; 10 + i]).collect()
            } else {
                Vec::new()
            };
            c.scatterv(1, parts)
        });
        for (i, d) in r.results.iter().enumerate() {
            assert_eq!(d, &vec![i as u8; 10 + i]);
        }
    }

    #[test]
    fn allreduce_computes_and_matches() {
        let w = World::new(7, NetConfig::smp_cluster(7, 4));
        let r = w.run(|c| {
            let v = [c.rank() as f64, 1.0];
            c.allreduce_f64(&v, ReduceOp::Sum)
        });
        for v in &r.results {
            assert_eq!(v, &vec![21.0, 7.0]);
        }
    }

    #[test]
    fn allreduce_minmax() {
        let w = World::new(5, NetConfig::ccnuma(5));
        let r = w.run(|c| {
            let hi = c.allreduce_f64(&[c.rank() as f64], ReduceOp::Max)[0];
            let lo = c.allreduce_f64(&[c.rank() as f64], ReduceOp::Min)[0];
            (hi, lo)
        });
        assert!(r.results.iter().all(|&(h, l)| h == 4.0 && l == 0.0));
    }

    #[test]
    fn alltoallv_redistributes() {
        let w = World::new(4, NetConfig::fast_ethernet(4));
        let r = w.run(|c| {
            let me = c.rank() as u8;
            let data: Vec<Vec<u8>> = (0..4).map(|dst| vec![me * 16 + dst as u8; 3]).collect();
            c.alltoallv(data)
        });
        for (dst, per_src) in r.results.iter().enumerate() {
            for (src, d) in per_src.iter().enumerate() {
                assert_eq!(d, &vec![(src * 16 + dst) as u8; 3], "src {src} dst {dst}");
            }
        }
    }

    /// Payload rank `src` sends to rank `dst` in the mixed exchange:
    /// empty for roughly a third of the pairs (the diagonal included for
    /// every third rank), otherwise a few hundred bytes to tens of KB.
    fn mixed_payload(src: usize, dst: usize) -> Vec<u8> {
        if (src * 5 + dst * 3).is_multiple_of(3) {
            Vec::new()
        } else {
            vec![(src * 16 + dst) as u8; 300 + (src * 7919 + dst * 104_729) % 40_000]
        }
    }

    /// A 9-rank exchange on a 4-way SMP cluster with a mix of empty and
    /// non-empty payloads, entered at staggered clocks. The exit clocks
    /// are pinned bit-for-bit, so any change in which pairs are priced,
    /// or in what order, shows here.
    #[test]
    fn alltoallv_mixed_empty_payloads_pin_data_and_clocks() {
        let w = World::new(9, NetConfig::smp_cluster(9, 4));
        let r = w.run(|c| {
            let me = c.rank();
            c.compute(amrio_simt::SimDur::from_micros((me as u64 * 53) % 17));
            let data: Vec<Vec<u8>> = (0..9).map(|dst| mixed_payload(me, dst)).collect();
            let got = c.alltoallv(data);
            (c.now(), got)
        });
        for (dst, (_, per_src)) in r.results.iter().enumerate() {
            assert_eq!(per_src.len(), 9);
            for (src, d) in per_src.iter().enumerate() {
                assert_eq!(d, &mixed_payload(src, dst), "src {src} dst {dst}");
            }
        }
        let clocks: Vec<u64> = r.results.iter().map(|(t, _)| t.0).collect();
        assert_eq!(
            clocks,
            [
                4_881_361, 4_512_092, 4_882_596, 5_144_936, 5_104_556, 4_917_878, 4_928_146,
                5_447_770, 5_333_882
            ]
        );
    }

    #[test]
    fn allgatherv_gives_everyone_everything() {
        let w = World::new(3, NetConfig::ccnuma(3));
        let r = w.run(|c| c.allgatherv(vec![c.rank() as u8; c.rank() + 1]));
        for per in &r.results {
            assert_eq!(per.len(), 3);
            for (i, d) in per.iter().enumerate() {
                assert_eq!(d, &vec![i as u8; i + 1]);
            }
        }
    }

    #[test]
    fn gather_root_cost_grows_with_ranks() {
        // Flat-tree gather at the root should take longer with more ranks
        // for the same total volume per rank (the HDF4 pathology).
        let time_for = |n: usize| {
            let w = World::new(n, NetConfig::ccnuma(n));
            let r = w.run(|c| {
                c.gatherv(0, vec![1u8; 500_000]);
                c.now()
            });
            r.results[0]
        };
        let t4 = time_for(4);
        let t16 = time_for(16);
        assert!(t16 > t4, "t16={t16:?} t4={t4:?}");
    }

    #[test]
    fn collectives_are_deterministic() {
        let go = || {
            let w = World::new(9, NetConfig::smp_cluster(9, 4));
            let r = w.run(|c| {
                c.compute(amrio_simt::SimDur::from_micros((c.rank() as u64 * 37) % 11));
                let all = c.allgatherv(vec![c.rank() as u8; 64]);
                c.barrier();
                let x = c.allreduce_f64(&[all.len() as f64], ReduceOp::Sum)[0];
                (c.now(), x)
            });
            (r.makespan, r.results)
        };
        assert_eq!(go(), go());
    }
}
