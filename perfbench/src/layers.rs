//! Outside-in layer drivers: the reference-stream adapters the traced
//! run wraps around each workload stream, and the replay drivers that
//! time the cache and directory layers on a captured stream.
//!
//! Nothing here reaches inside the simulator. The adapters implement
//! the public `ReferenceStream` trait and are handed to
//! `Simulation::try_new`; the replays call the public `Cache` and
//! `Directory` APIs directly.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use csim_cache::Cache;
use csim_coherence::Directory;
use csim_config::{SystemConfig, LINE_SIZE, PAGE_SIZE};
use csim_trace::{MemRef, ReferenceStream, PACKED_ACCESS_SHIFT, PACKED_ADDR_MASK};

use crate::host::now;

/// Wraps a stream and accumulates the host nanoseconds spent inside it
/// (reference generation plus the burst copy) into a shared counter.
/// A burst hands out up to 512 references, so the two clock reads per
/// call stay a small fraction of the work they bracket
/// (`bench.trace_overhead` measures exactly that fraction).
pub struct TimedStream<S> {
    inner: S,
    nanos: Rc<Cell<u64>>,
}

impl<S> TimedStream<S> {
    /// Wraps `inner`, adding its time to `nanos`.
    pub fn new(inner: S, nanos: Rc<Cell<u64>>) -> Self {
        TimedStream { inner, nanos }
    }
}

impl<S: ReferenceStream> ReferenceStream for TimedStream<S> {
    fn next_ref(&mut self) -> MemRef {
        let t0 = now();
        let r = self.inner.next_ref();
        self.nanos
            .set(self.nanos.get() + t0.elapsed().as_nanos() as u64);
        r
    }

    fn next_burst(&mut self, out: &mut [u64]) -> usize {
        let t0 = now();
        let n = self.inner.next_burst(out);
        self.nanos
            .set(self.nanos.get() + t0.elapsed().as_nanos() as u64);
        n
    }
}

/// Wraps a stream and records the first `cap` packed words it hands
/// out, exactly as the simulator consumed them.
pub struct CaptureStream<S> {
    inner: S,
    words: Rc<RefCell<Vec<u64>>>,
    cap: usize,
}

impl<S> CaptureStream<S> {
    /// Wraps `inner`, appending its words to `words` until `cap`.
    pub fn new(inner: S, words: Rc<RefCell<Vec<u64>>>, cap: usize) -> Self {
        CaptureStream { inner, words, cap }
    }
}

impl<S: ReferenceStream> ReferenceStream for CaptureStream<S> {
    fn next_ref(&mut self) -> MemRef {
        let r = self.inner.next_ref();
        let mut words = self.words.borrow_mut();
        if words.len() < self.cap {
            words.push(r.pack());
        }
        r
    }

    fn next_burst(&mut self, out: &mut [u64]) -> usize {
        let n = self.inner.next_burst(out);
        let mut words = self.words.borrow_mut();
        let take = n.min(self.cap.saturating_sub(words.len()));
        words.extend_from_slice(&out[..take]);
        n
    }
}

/// One directory transaction of the replayed L2-miss stream.
#[derive(Clone, Copy)]
enum DirOp {
    Read(u64, u8),
    Write(u64, u8),
    Writeback(u64, u8),
}

/// One L1 miss heading into a node's L2.
#[derive(Clone, Copy)]
struct L2Op {
    node: u8,
    line: u64,
    write: bool,
}

/// Host cost of each replayed layer: nanoseconds per operation and the
/// operation counts they were measured over.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayTimes {
    /// Host ns per L1 probe (access, plus insert on a miss).
    pub l1_ns: f64,
    /// L1 probes timed.
    pub l1_ops: u64,
    /// Host ns per L2 probe (access, plus insert on a miss).
    pub l2_ns: f64,
    /// L2 probes timed.
    pub l2_ops: u64,
    /// Host ns per directory transaction.
    pub dir_ns: f64,
    /// Directory transactions timed.
    pub dir_ops: u64,
}

/// The cache and directory state a replay drives: one L1I/L1D pair per
/// stream and one L2 per node, at the configuration's geometries.
struct Replayer {
    l1i: Vec<Cache>,
    l1d: Vec<Cache>,
    l2: Vec<Cache>,
    dir: Directory,
    cores_per_node: usize,
}

impl Replayer {
    fn new(cfg: &SystemConfig) -> Self {
        let streams = cfg.total_cores();
        Replayer {
            l1i: (0..streams).map(|_| Cache::new(cfg.l1i())).collect(),
            l1d: (0..streams).map(|_| Cache::new(cfg.l1d())).collect(),
            l2: (0..cfg.n_nodes())
                .map(|_| Cache::new(cfg.l2().geometry))
                .collect(),
            dir: Directory::new(cfg.n_nodes() as u8, LINE_SIZE, PAGE_SIZE),
            cores_per_node: cfg.cores_per_node(),
        }
    }

    /// Probes the L1s with rounds `range` of the captured streams, one
    /// reference per stream per round (the simulator's interleaving),
    /// and collects the misses.
    fn l1_pass(&mut self, streams: &[Vec<u64>], range: std::ops::Range<usize>) -> Vec<L2Op> {
        let mut misses = Vec::new();
        for i in range {
            for (s, words) in streams.iter().enumerate() {
                let word = words[i];
                let line = (word & PACKED_ADDR_MASK) / LINE_SIZE;
                let class = word >> PACKED_ACCESS_SHIFT & 0x3;
                let write = class == 2;
                let l1 = if class == 0 {
                    &mut self.l1i[s]
                } else {
                    &mut self.l1d[s]
                };
                if !l1.access(line, write).is_hit() {
                    l1.insert(line, write);
                    let node = (s / self.cores_per_node) as u8;
                    misses.push(L2Op { node, line, write });
                }
            }
        }
        misses
    }

    /// Probes the node L2s with the L1 misses and collects the
    /// directory transactions their misses and dirty evictions cause.
    fn l2_pass(&mut self, ops: &[L2Op]) -> Vec<DirOp> {
        let mut dir_ops = Vec::new();
        for op in ops {
            let l2 = &mut self.l2[usize::from(op.node)];
            if l2.access(op.line, op.write).is_hit() {
                continue;
            }
            if let Some(victim) = l2.insert(op.line, op.write) {
                if victim.dirty {
                    dir_ops.push(DirOp::Writeback(victim.line, op.node));
                }
            }
            dir_ops.push(if op.write {
                DirOp::Write(op.line, op.node)
            } else {
                DirOp::Read(op.line, op.node)
            });
        }
        dir_ops
    }

    /// Applies the transactions to the directory and returns a tally of
    /// cold misses and refused writebacks, which keeps the work
    /// observable to the optimizer. The replay keeps no remote caches in
    /// step with the directory's invalidations, so a writeback can name a
    /// node the directory no longer records as the owner; the directory
    /// refuses it, and the refusal is part of the timed work rather than
    /// a failure.
    fn dir_pass(&mut self, ops: &[DirOp]) -> u64 {
        let mut tally = 0;
        for &op in ops {
            tally += match op {
                DirOp::Read(line, node) => u64::from(self.dir.read_miss(line, node).cold),
                DirOp::Write(line, node) => u64::from(self.dir.write_miss(line, node).cold),
                DirOp::Writeback(line, node) => u64::from(self.dir.writeback(line, node).is_err()),
            };
        }
        tally
    }
}

/// Replays captured per-stream words through the cache and directory
/// layers at `cfg`'s geometries. The first `warm` rounds fill the
/// caches untimed; the remaining rounds are timed layer by layer.
pub fn replay(cfg: &SystemConfig, streams: &[Vec<u64>], warm: usize) -> ReplayTimes {
    let rounds = streams.iter().map(Vec::len).min().unwrap_or(0);
    let warm = warm.min(rounds);
    let mut r = Replayer::new(cfg);
    let l2_ops = r.l1_pass(streams, 0..warm);
    let dir_ops = r.l2_pass(&l2_ops);
    std::hint::black_box(r.dir_pass(&dir_ops));

    let t0 = now();
    let l2_ops = r.l1_pass(streams, warm..rounds);
    let l1_s = crate::host::since(t0);
    let t0 = now();
    let dir_ops = r.l2_pass(&l2_ops);
    let l2_s = crate::host::since(t0);
    let t0 = now();
    std::hint::black_box(r.dir_pass(&dir_ops));
    let dir_s = crate::host::since(t0);

    let l1_ops = ((rounds - warm) * streams.len()) as u64;
    let per = |secs: f64, ops: usize| {
        if ops == 0 {
            0.0
        } else {
            secs * 1e9 / ops as f64
        }
    };
    ReplayTimes {
        l1_ns: per(l1_s, l1_ops as usize),
        l1_ops,
        l2_ns: per(l2_s, l2_ops.len()),
        l2_ops: l2_ops.len() as u64,
        dir_ns: per(dir_s, dir_ops.len()),
        dir_ops: dir_ops.len() as u64,
    }
}
