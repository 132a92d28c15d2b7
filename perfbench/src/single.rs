//! The single-configuration workloads: one simulated machine, built,
//! warmed and measured over and over for the run's time budget.
//!
//! One *rep* is the whole life of a simulation: `Simulation::with_oltp`
//! (the set-up), a fixed warm-up, then a fixed number of measured chunks
//! of `run(chunk)`. Every rep of a run does identical simulated work, so
//! every rep must export the same report bytes; the run's timings are
//! medians over reps (set-up, rep wall, rep throughput) and percentiles
//! over all measured chunks.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use csim_config::{IntegrationLevel, SystemConfig};
use csim_core::{run_report_json, SimReport, Simulation};
use csim_fault::{FaultInjector, FaultPlan};
use csim_obs::{ObsConfig, Observer, RunManifest};
use csim_prof::HostSampler;
use csim_trace::hostprof::Region;
use csim_trace::ReferenceStream;
use csim_workload::{NodeWorkload, OltpParams, OltpWorkload};

use crate::host::{now, since};
use crate::layers::{replay, CaptureStream, ReplayTimes, TimedStream};
use crate::stats::fnv1a;

/// The fault plan of the observed workload: the repository's fault-storm
/// example (2% NACKs, a quarter-bandwidth link window over per-node refs
/// 100k-500k, a memory-controller brown-out over 600k-800k).
const FAULT_STORM: &str = include_str!("../../examples/fault_storm.toml");

/// The instrumentation a simulation carries. Each hook is read-only with
/// respect to the simulated machine except the fault injector, which is
/// part of the simulated machine (it adds NACKs and slow links).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hooks {
    /// The runtime coherence sanitizer (`--sanitize`).
    pub sanitize: bool,
    /// Per-class latency histograms (`--histograms`).
    pub histograms: bool,
    /// Epoch samples every 10k refs per node (`--epoch 10000`).
    pub epoch: bool,
    /// Cycle attribution (`--prof`).
    pub attribution: bool,
    /// The fault-storm injector (`--fault-plan examples/fault_storm.toml`).
    pub fault: bool,
}

impl Hooks {
    /// No hook: the simulator as `csim` runs it without flags.
    pub const NONE: Hooks = Hooks {
        sanitize: false,
        histograms: false,
        epoch: false,
        attribution: false,
        fault: false,
    };

    /// Every hook on: the debugging/CI configuration.
    pub const ALL: Hooks = Hooks {
        sanitize: true,
        histograms: true,
        epoch: true,
        attribution: true,
        fault: true,
    };

    /// Wires the hooks into a freshly built simulation, before its first
    /// reference (the sanitizer must see every transition from reset).
    fn apply<S: ReferenceStream>(self, sim: &mut Simulation<S>, seed: u64) -> Result<(), String> {
        if self.histograms || self.epoch {
            sim.set_observer(Observer::new(ObsConfig {
                histograms: self.histograms,
                epoch: self.epoch.then_some(10_000),
                trace: None,
            }));
        }
        if self.attribution {
            sim.set_attribution(true);
        }
        if self.fault {
            let plan = FaultPlan::from_toml_str(FAULT_STORM).map_err(|e| e.to_string())?;
            sim.set_fault_injector(FaultInjector::new(plan, seed).map_err(|e| e.to_string())?);
        }
        if self.sanitize {
            sim.set_sanitize(true);
        }
        Ok(())
    }
}

/// One single-configuration workload: the machine, its hooks, and the
/// shape of a rep.
#[derive(Clone, Copy, Debug)]
pub struct Single {
    /// Workload name (the `--workload` value).
    pub name: &'static str,
    /// Processor chips.
    pub nodes: usize,
    /// Integration level.
    pub integration: IntegrationLevel,
    /// L2 capacity in bytes.
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_assoc: u32,
    /// Instrumentation of the measured configuration.
    pub hooks: Hooks,
    /// Warm-up references per node.
    pub warm: u64,
    /// References per node in one measured chunk.
    pub chunk: u64,
    /// Measured chunks per rep.
    pub chunks: usize,
}

impl Single {
    /// The simulated machine.
    pub fn config(&self) -> SystemConfig {
        let mut b = SystemConfig::builder();
        b.nodes(self.nodes)
            .cores_per_node(1)
            .integration(self.integration);
        if self.integration.l2_on_chip() {
            b.l2_sram(self.l2_bytes, self.l2_assoc);
        } else {
            b.l2_off_chip(self.l2_bytes, self.l2_assoc);
        }
        b.build()
            .expect("the benchmark's machine configurations are valid")
    }

    /// Simulated references (all nodes) measured in one rep.
    pub fn measured_refs(&self) -> u64 {
        self.chunk * self.chunks as u64 * self.nodes as u64
    }

    /// The manifest stamped into the digested run report: the workload
    /// and its seed, never anything host-dependent.
    fn manifest(&self, cfg: &SystemConfig, seed: u64, hooks: Hooks) -> RunManifest {
        RunManifest {
            tool: "csim-perfbench".to_string(),
            version: "perfbench/v1".to_string(),
            config_summary: cfg.summary(),
            config: vec![
                ("workload".to_string(), self.name.to_string()),
                ("hooks".to_string(), format!("{hooks:?}")),
                ("warm_refs_per_node".to_string(), self.warm.to_string()),
                ("chunk_refs_per_node".to_string(), self.chunk.to_string()),
                ("chunks".to_string(), self.chunks.to_string()),
            ],
            seeds: vec![("workload".to_string(), seed), ("fault".to_string(), seed)],
        }
    }
}

/// Workload parameters for a benchmark seed: the paper's OLTP mix, with
/// the seed as the master RNG seed.
fn params(seed: u64) -> OltpParams {
    OltpParams {
        seed,
        ..OltpParams::default()
    }
}

/// What one rep measured and produced.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Construction (workload build + simulator allocation + hooks).
    pub setup_s: f64,
    /// Set-up, warm-up and measurement.
    pub wall_s: f64,
    /// The measured phase alone.
    pub meas_s: f64,
    /// Host seconds per measured chunk.
    pub chunk_s: Vec<f64>,
    /// The report of the last chunk (counters cover the whole measured
    /// phase).
    pub report: SimReport,
    /// FNV-1a of the deterministic run-report bytes.
    pub digest: u64,
    /// Directory transitions the sanitizer cross-checked, when on.
    pub sanitizer_checks: Option<u64>,
    /// `verify_coherence` (and the sanitizer audit), run after timing.
    pub verify_s: f64,
}

/// Runs the measured chunks and returns the last report with the
/// per-chunk and total measured seconds.
fn measure<S: ReferenceStream>(
    sim: &mut Simulation<S>,
    spec: &Single,
) -> (SimReport, Vec<f64>, f64) {
    let mut chunk_s = Vec::with_capacity(spec.chunks);
    let t_meas = now();
    let mut report = None;
    for _ in 0..spec.chunks {
        let t = now();
        report = Some(sim.run(spec.chunk));
        chunk_s.push(since(t));
    }
    let meas_s = since(t_meas);
    (
        report.expect("a rep measures at least one chunk"),
        chunk_s,
        meas_s,
    )
}

/// The post-timing audit of a rep: machine-wide coherence invariants and
/// the sanitizer's verdict. Returns the seconds it took.
fn audit<S: ReferenceStream>(sim: &Simulation<S>) -> Result<f64, String> {
    let t = now();
    sim.verify_coherence()
        .map_err(|e| format!("coherence violation: {e}"))?;
    sim.verify_sanitizer()
        .map_err(|e| format!("sanitizer: {e}"))?;
    Ok(since(t))
}

/// The deterministic run-report bytes of a finished rep.
fn report_bytes<S: ReferenceStream>(
    spec: &Single,
    cfg: &SystemConfig,
    seed: u64,
    hooks: Hooks,
    sim: &Simulation<S>,
    report: &SimReport,
) -> String {
    let manifest = spec.manifest(cfg, seed, hooks);
    run_report_json(report, sim.observer(), &manifest, None).to_string()
}

/// One plain rep, exactly as a user runs the simulator: `with_oltp`,
/// hooks, warm-up, measured chunks.
pub fn plain_rep(spec: &Single, seed: u64, hooks: Hooks) -> Result<Rep, String> {
    let cfg = spec.config();
    let t0 = now();
    let mut sim = Simulation::with_oltp(&cfg, params(seed)).map_err(|e| e.to_string())?;
    hooks.apply(&mut sim, seed)?;
    let setup_s = since(t0);
    sim.warm_up(spec.warm);
    let (report, chunk_s, meas_s) = measure(&mut sim, spec);
    let wall_s = since(t0);
    let verify_s = audit(&sim)?;
    let digest = fnv1a(report_bytes(spec, &cfg, seed, hooks, &sim, &report).as_bytes());
    let sanitizer_checks = sim.sanitizer_checks();
    Ok(Rep {
        setup_s,
        wall_s,
        meas_s,
        chunk_s,
        report,
        digest,
        sanitizer_checks,
        verify_s,
    })
}

/// A rep through the timing adapter: the workload streams are built
/// separately (`workload.build_s`), wrapped in [`TimedStream`], and
/// handed to `Simulation::try_new` (`core.alloc_s`).
#[derive(Clone, Debug)]
pub struct TracedRep {
    /// The rep itself (its digest must equal a plain rep's).
    pub rep: Rep,
    /// `OltpWorkload::build`.
    pub build_s: f64,
    /// `Simulation::try_new`.
    pub alloc_s: f64,
    /// Host seconds inside the workload streams during the measured
    /// phase.
    pub refill_s: f64,
}

/// Builds the streams for `cfg`, wraps each with `wrap`, and simulates
/// them through `try_new`. `try_new` knows nothing of the workload's
/// shared commit counter, so the transaction count `with_oltp` would
/// report is restored from the streams' shared state; everything else
/// in the report comes from the simulator untouched.
fn wrapped_rep<W: ReferenceStream>(
    spec: &Single,
    seed: u64,
    hooks: Hooks,
    mut wrap: impl FnMut(NodeWorkload) -> W,
    mut after_warm: impl FnMut(),
) -> Result<TracedRep, String> {
    let cfg = spec.config();
    let t0 = now();
    let streams =
        OltpWorkload::build(params(seed), cfg.total_cores()).map_err(|e| e.to_string())?;
    let build_s = since(t0);
    let shared = streams
        .first()
        .map(NodeWorkload::shared_handle)
        .ok_or("no streams")?;
    let wrapped: Vec<W> = streams.into_iter().map(&mut wrap).collect();
    let t1 = now();
    let mut sim = Simulation::try_new(&cfg, wrapped).map_err(|e| e.to_string())?;
    let alloc_s = since(t1);
    hooks.apply(&mut sim, seed)?;
    let setup_s = since(t0);
    sim.warm_up(spec.warm);
    let txn_base = shared.transactions_completed();
    after_warm();
    let (mut report, chunk_s, meas_s) = measure(&mut sim, spec);
    let wall_s = since(t0);
    report.transactions = shared.transactions_completed() - txn_base;
    let verify_s = audit(&sim)?;
    let digest = fnv1a(report_bytes(spec, &cfg, seed, hooks, &sim, &report).as_bytes());
    let sanitizer_checks = sim.sanitizer_checks();
    let rep = Rep {
        setup_s,
        wall_s,
        meas_s,
        chunk_s,
        report,
        digest,
        sanitizer_checks,
        verify_s,
    };
    Ok(TracedRep {
        rep,
        build_s,
        alloc_s,
        refill_s: 0.0,
    })
}

/// One rep with every stream behind a [`TimedStream`].
pub fn timed_rep(spec: &Single, seed: u64, hooks: Hooks) -> Result<TracedRep, String> {
    let nanos = Rc::new(Cell::new(0u64));
    let mut traced = wrapped_rep(
        spec,
        seed,
        hooks,
        |s| TimedStream::new(s, Rc::clone(&nanos)),
        || nanos.set(0),
    )?;
    traced.refill_s = nanos.get() as f64 * 1e-9;
    Ok(traced)
}

/// One rep that captures the first `cap` words of every stream, then
/// replays them through the cache and directory layers (the first
/// `spec.warm` rounds untimed).
pub fn capture_and_replay(
    spec: &Single,
    seed: u64,
    cap: usize,
) -> Result<(Rep, ReplayTimes), String> {
    let cfg = spec.config();
    let mut bufs: Vec<Rc<RefCell<Vec<u64>>>> = Vec::new();
    let traced = wrapped_rep(
        spec,
        seed,
        spec.hooks,
        |s| {
            let buf = Rc::new(RefCell::new(Vec::with_capacity(cap)));
            bufs.push(Rc::clone(&buf));
            CaptureStream::new(s, buf, cap)
        },
        || {},
    )?;
    let streams: Vec<Vec<u64>> = bufs.into_iter().map(|b| b.take()).collect();
    let times = replay(&cfg, &streams, spec.warm as usize);
    Ok((traced.rep, times))
}

/// Shares of host-sampler ticks in the simulator's advance loop and in
/// the workload's burst refill over one plain rep's warm-up and
/// measurement (the simulator's own `hostprof` regions).
pub fn sampled_shares(spec: &Single, seed: u64) -> Result<(f64, f64), String> {
    let cfg = spec.config();
    let mut sim = Simulation::with_oltp(&cfg, params(seed)).map_err(|e| e.to_string())?;
    spec.hooks.apply(&mut sim, seed)?;
    let sampler = HostSampler::start(5_000);
    sim.warm_up(spec.warm);
    let _ = measure(&mut sim, spec);
    let regions = sampler.stop();
    Ok((
        regions.share(Region::Advance),
        regions.share(Region::BurstRefill),
    ))
}

/// The dispatch oracle check: a short prefix of the workload run with
/// batched dispatch and with the single-step oracle must export the same
/// report bytes. Runs for any seed.
pub fn dispatch_oracle_check(spec: &Single, seed: u64) -> Result<(), String> {
    let short = Single {
        warm: 10_000,
        chunk: 10_000,
        chunks: 2,
        ..*spec
    };
    let cfg = short.config();
    let mut digests = [0u64; 2];
    for (slot, batched) in digests.iter_mut().zip([true, false]) {
        let mut sim = Simulation::with_oltp(&cfg, params(seed)).map_err(|e| e.to_string())?;
        short.hooks.apply(&mut sim, seed)?;
        sim.set_batched_dispatch(batched);
        sim.warm_up(short.warm);
        let (report, _, _) = measure(&mut sim, &short);
        audit(&sim)?;
        *slot = fnv1a(report_bytes(&short, &cfg, seed, short.hooks, &sim, &report).as_bytes());
    }
    if digests[0] != digests[1] {
        return Err(format!(
            "batched dispatch digest {:016x} differs from the single-step oracle's {:016x}",
            digests[0], digests[1]
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(hooks: Hooks, nodes: usize) -> Single {
        Single {
            name: "test",
            nodes,
            integration: IntegrationLevel::FullyIntegrated,
            l2_bytes: 2 << 20,
            l2_assoc: 8,
            hooks,
            warm: 5_000,
            chunk: 100_000,
            chunks: 3,
        }
    }

    #[test]
    fn wrapping_the_streams_leaves_the_report_byte_identical() {
        for (hooks, nodes) in [(Hooks::NONE, 1), (Hooks::NONE, 4), (Hooks::ALL, 2)] {
            let spec = tiny(hooks, nodes);
            let plain = plain_rep(&spec, 7, hooks).unwrap();
            let timed = timed_rep(&spec, 7, hooks).unwrap();
            let (captured, _) = capture_and_replay(&spec, 7, 8_000).unwrap();
            assert_eq!(
                plain.report, timed.rep.report,
                "timed adapter changed the report"
            );
            assert_eq!(
                plain.digest, timed.rep.digest,
                "timed adapter changed the bytes"
            );
            assert_eq!(
                plain.digest, captured.digest,
                "capture adapter changed the bytes"
            );
            assert!(
                plain.report.transactions > 0,
                "the rep must commit transactions"
            );
        }
    }

    #[test]
    fn digests_are_stable_across_reps_and_sensitive_to_the_seed() {
        let spec = tiny(Hooks::NONE, 2);
        let a = plain_rep(&spec, 3, Hooks::NONE).unwrap();
        let b = plain_rep(&spec, 3, Hooks::NONE).unwrap();
        let c = plain_rep(&spec, 4, Hooks::NONE).unwrap();
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
    }

    #[test]
    fn the_oracle_check_passes_with_every_hook_on() {
        dispatch_oracle_check(&tiny(Hooks::ALL, 2), 5).unwrap();
    }

    #[test]
    fn replay_times_every_layer() {
        let spec = tiny(Hooks::NONE, 2);
        let (_, times) = capture_and_replay(&spec, 9, 20_000).unwrap();
        assert_eq!(times.l1_ops, 2 * 15_000);
        assert!(times.l2_ops <= times.l1_ops && times.dir_ops <= 2 * times.l2_ops);
        assert!(times.l2_ops > 0 && times.dir_ops > 0);
        assert!(times.l1_ns > 0.0 && times.l2_ns > 0.0 && times.dir_ns > 0.0);
    }
}
