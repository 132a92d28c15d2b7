//! Microbenchmarks of the simulator's hot paths: cache accesses,
//! directory protocol transitions, workload reference generation, and
//! end-to-end simulation throughput.
//!
//! Hand-rolled harness (no external benchmarking crate, so the workspace
//! builds hermetically): each benchmark is timed over a fixed operation
//! count after a short warm-up, reporting ns/op and Mops/s. Set
//! `CSIM_BENCH_QUICK=1` to cut iteration counts by 10x.
//!
//! One result is a gate, not a reading: the struct-of-arrays [`Cache`]
//! is timed against [`ReferenceCache`], the implementation it replaced,
//! and the bench exits non-zero if the ratio drops below 1.0x. The ratio
//! compares two kernels on the same host in the same process, so it
//! holds on any machine. End-to-end simulator speed is measured by
//! `perfbench/` (see its README.md), not here.

use std::hint::black_box;
use std::time::Instant;

use csim_cache::{Cache, ReferenceCache};
use csim_coherence::Directory;
use csim_config::{CacheGeometry, SystemConfig};
use csim_core::Simulation;
use csim_trace::{ReferenceStream, SimRng};
use csim_workload::{OltpParams, OltpWorkload};

fn iterations(base: u64) -> u64 {
    if std::env::var("CSIM_BENCH_QUICK").is_ok_and(|v| v != "0") {
        (base / 10).max(1)
    } else {
        base
    }
}

/// Times `f` over `n` calls (after `n / 10` warm-up calls) and prints one
/// result line.
fn bench(name: &str, n: u64, mut f: impl FnMut()) {
    for _ in 0..n / 10 {
        f();
    }
    let start = Instant::now();
    for _ in 0..n {
        f();
    }
    report(name, n, start.elapsed().as_secs_f64());
}

fn report(name: &str, n: u64, secs: f64) {
    let ns_per_op = secs * 1e9 / n as f64;
    println!("{name:<32} {n:>10} ops  {ns_per_op:>9.1} ns/op  {:>8.2} Mops/s", 1e3 / ns_per_op);
}

fn bench_cache() {
    let geom = CacheGeometry::new(2 << 20, 8, 64).expect("valid geometry");

    let mut cache = Cache::new(geom);
    cache.insert(42, false);
    bench("cache/l2_hit", iterations(10_000_000), || {
        black_box(cache.access(black_box(42), false));
    });

    let mut cache = Cache::new(geom);
    let mut line = 0u64;
    bench("cache/l2_miss_insert_evict", iterations(10_000_000), || {
        line = line.wrapping_add(4096); // new set each time
        if !cache.access(line, false).is_hit() {
            black_box(cache.insert(line, false));
        }
    });
}

/// Seconds for `ops` calls of one cache kernel under a deterministic
/// access/insert stream. Generic over the kernel so the SoA and
/// reference caches run literally the same loop. `inline(never)` pins
/// each instantiation to its own codegen context: inlined next to the
/// other kernel's copy of the loop, the optimizer was able to specialize
/// the reference kernel against the rest of the run and deflate its
/// timed work.
#[inline(never)]
fn time_cache_kernel(ops: u64, line_mask: u64, mut access: impl FnMut(u64, bool)) -> f64 {
    let mut rng = SimRng::seed_from_u64(0xCAFE);
    let start = Instant::now();
    for _ in 0..ops {
        let r = rng.next_u64();
        access(r >> 32 & line_mask, r & 1 == 0);
    }
    start.elapsed().as_secs_f64()
}

/// Times the SoA [`Cache`] against [`ReferenceCache`] on the default
/// configuration's 8 MB direct-mapped L2, the largest slot array the
/// simulator probes, and returns the SoA kernel's speedup (best rep of
/// each).
fn bench_cache_kernel() -> f64 {
    const OPS: u64 = 4_000_000;
    const REPS: usize = 5;
    let geometry = CacheGeometry::new(8 << 20, 1, 64).expect("valid geometry");
    // 2x the cache's line capacity: hits, misses and evictions all stay
    // frequent, so both the probe and the insert/evict paths weigh in.
    let line_mask = 2 * geometry.lines() - 1;
    let mut soa = Cache::new(geometry);
    let mut reference = ReferenceCache::new(geometry);
    // Interleave the two kernels rep by rep: host frequency and cache
    // state drift over a run, and back-to-back blocks would hand the
    // second kernel a warmer machine than the first.
    let (mut best_soa, mut best_reference) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        best_soa = best_soa.min(time_cache_kernel(OPS, line_mask, |line, write| {
            if !soa.access(line, write).is_hit() {
                soa.insert(line, write);
            }
        }));
        best_reference = best_reference.min(time_cache_kernel(OPS, line_mask, |line, write| {
            if !reference.access(line, write).is_hit() {
                reference.insert(line, write);
            }
        }));
    }
    // Both counter blocks are read AFTER timing, and compared. This is a
    // differential check on the timed work, and also an optimization
    // barrier: with the caches dropped unread, the compiler is free to
    // strip the statistics accounting out of whichever kernel it can
    // fully analyze (it did, for the reference's simpler loop).
    assert_eq!(soa.stats(), reference.stats(), "the two kernels must do identical logical work");
    report("cache/kernel_soa_8M1w", OPS, best_soa);
    report("cache/kernel_reference_8M1w", OPS, best_reference);
    let speedup = best_reference / best_soa;
    println!("{:<32} {speedup:>10.2}x (gate: >= 1.00x)", "cache/kernel_speedup");
    speedup
}

fn bench_directory() {
    let mut dir = Directory::new(8, 64, 8192);
    let mut line = 0u64;
    bench("directory/read_miss_cold", iterations(2_000_000), || {
        black_box(dir.read_miss(line, (line % 8) as u8));
        line += 1;
    });

    let mut dir = Directory::new(8, 64, 8192);
    let mut node = 0u8;
    dir.write_miss(7, 0);
    bench("directory/migratory_write", iterations(5_000_000), || {
        node = (node + 1) % 8;
        black_box(dir.write_miss(7, node));
    });
}

fn bench_workload() {
    let mut nodes = OltpWorkload::build(OltpParams::default(), 1).expect("default params valid");
    let stream = &mut nodes[0];
    bench("workload/next_ref", iterations(10_000_000), || {
        black_box(stream.next_ref());
    });
}

fn bench_simulation() {
    let cfg = SystemConfig::paper_base_uni();
    let mut sim = Simulation::with_oltp(&cfg, OltpParams::default()).expect("default params valid");
    sim.warm_up(200_000);
    bench("simulation/uni_10k_refs", iterations(50), || {
        black_box(sim.run(10_000));
    });

    let cfg = SystemConfig::paper_base_mp8();
    let mut sim = Simulation::with_oltp(&cfg, OltpParams::default()).expect("default params valid");
    sim.warm_up(100_000);
    bench("simulation/mp8_10k_refs_per_node", iterations(20), || {
        black_box(sim.run(10_000));
    });
}

fn main() {
    println!("{:<32} {:>10}      {:>9}        {:>8}", "benchmark", "ops", "time", "rate");
    bench_cache();
    let kernel_speedup = bench_cache_kernel();
    bench_directory();
    bench_workload();
    bench_simulation();
    // The SoA kernel must never lose to the implementation it replaced:
    // that would mean the optimized probe regressed into net overhead.
    if kernel_speedup < 1.0 {
        eprintln!("FAIL: SoA cache kernel slower than ReferenceCache ({kernel_speedup:.2}x)");
        std::process::exit(1);
    }
}
