//! The `sweep-fig10` workload: a Figure-10-shaped grid through the
//! crash-safe sweep engine on `nproc` workers.
//!
//! One *iteration* is the whole grid, as three plans: every integration
//! level on one node, every level on eight nodes, and the 8-node fully
//! integrated machine with the remote access cache (the plan format
//! makes the RAC a plan-wide switch). Splitting the node axis keeps the
//! pairing of points on the two workers the same in every iteration:
//! with one mixed plan, whether an 8-node point shared the host with
//! another 8-node point or with a uniprocessor point was down to
//! scheduling, and the point-time p90 followed it. Each plan is parsed
//! from TOML, run with a fresh checkpoint log and per-point timing, and
//! its merged report exported. Every iteration must export the same
//! bytes.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Mutex;

use csim_core::{run_report_json, SimReport, Simulation};
use csim_obs::{version_string, RunManifest};
use csim_prof::HostSampler;
use csim_sweep::{
    run_sweep_cfg, run_sweep_with, RunOutcome, RunSpec, RunSummary, SweepConfig, SweepError,
    SweepOutcome, SweepPlan,
};
use csim_trace::hostprof::Region;
use csim_workload::{NodeWorkload, OltpParams, OltpWorkload};

use crate::host::{now, since};
use crate::layers::TimedStream;
use crate::stats::fnv1a;

/// Warm-up and measured references per node of every grid point.
const WARM: u64 = 30_000;
const MEAS: u64 = 70_000;

/// The plans of one iteration, parsed from TOML like a user's plan
/// file. The benchmark seed is the workload seed of every point.
fn plans(seed: u64) -> Result<Vec<SweepPlan>, String> {
    let all_levels = r#"["cons", "base", "l2", "l2mc", "all"]"#;
    [
        ("uni", all_levels, 1, false),
        ("mp8", all_levels, 8, false),
        ("mp8-rac", r#"["all"]"#, 8, true),
    ]
    .into_iter()
    .map(|(name, levels, nodes, rac)| {
        let text = format!(
            "[sweep]\nname = \"perfbench-fig10-{name}\"\nwarm = {WARM}\nmeas = {MEAS}\nrac = {rac}\n\n\
             [grid]\nintegration = {levels}\nnodes = [{nodes}]\nseeds = [{seed}]\n"
        );
        SweepPlan::from_toml_str(&text).map_err(|e| e.to_string())
    })
    .collect()
}

/// Simulated references (all nodes, warm-up included) of one iteration.
pub fn iteration_refs(seed: u64) -> u64 {
    plans(seed).map_or(0, |ps| {
        ps.iter()
            .flat_map(SweepPlan::expand)
            .map(|s| (s.warm + s.meas) * s.nodes as u64)
            .sum()
    })
}

/// Grid points of one iteration.
pub fn iteration_points(seed: u64) -> u64 {
    plans(seed).map_or(0, |ps| ps.iter().map(|p| p.expand().len() as u64).sum())
}

/// What one iteration measured and produced.
#[derive(Clone, Debug, Default)]
pub struct Iteration {
    /// The whole iteration: parsing, the sweeps, the exports.
    pub wall_s: f64,
    /// Everything outside point execution and export: plan parsing and
    /// validation, checkpoint-log creation, worker spawn and join, and
    /// result assembly.
    pub setup_s: f64,
    /// Wall milliseconds of every executed point.
    pub point_ms: Vec<f64>,
    /// Points that ended as a `PointFailure`.
    pub failures: usize,
    /// FNV-1a over the merged reports' bytes.
    pub digest: u64,
    /// Serializing the merged reports.
    pub export_s: f64,
    /// Bytes the checkpoint logs hold afterwards.
    pub checkpoint_bytes: u64,
    /// Summed wall seconds of the `run_sweep_*` calls.
    pub sweep_s: f64,
}

/// How a point is executed: by the engine's own executor, or by the
/// benchmark's traced replica of it.
type Runner<'a> = dyn Fn(&SweepPlan, &SweepConfig) -> Result<SweepOutcome, SweepError> + 'a;

/// Runs one iteration with `jobs` workers and checkpoint logs under
/// `work_dir`.
fn iteration(
    seed: u64,
    jobs: usize,
    work_dir: &Path,
    runner: &Runner<'_>,
) -> Result<Iteration, String> {
    let mut it = Iteration::default();
    let mut bytes = Vec::new();
    let mut logs: Vec<PathBuf> = Vec::new();
    let mut point_span_s = 0.0;
    let t0 = now();
    let plans = plans(seed)?;
    for (i, plan) in plans.iter().enumerate() {
        let log = work_dir.join(format!("sweep-{i}.ckpt"));
        // A fresh log per run: a leftover would make the engine resume.
        let _ = std::fs::remove_file(&log);
        let cfg = SweepConfig {
            jobs,
            checkpoint: Some(log.to_string_lossy().into_owned()),
            time_points: true,
            ..SweepConfig::default()
        };
        let t_call = now();
        let out = runner(plan, &cfg).map_err(|e| e.to_string())?;
        it.sweep_s += since(t_call);
        let timing = out
            .timing
            .as_ref()
            .ok_or("the sweep returned no point timing")?;
        let first = timing
            .points
            .iter()
            .map(|p| p.start_millis)
            .fold(f64::INFINITY, f64::min);
        let last = timing
            .points
            .iter()
            .map(|p| p.start_millis + p.millis)
            .fold(0.0, f64::max);
        point_span_s += (last - first).max(0.0) / 1000.0;
        it.point_ms.extend(timing.points.iter().map(|p| p.millis));
        it.failures += out.failures().count();
        let t_export = now();
        let doc = out.to_json().to_string();
        it.export_s += since(t_export);
        bytes.extend_from_slice(doc.as_bytes());
        logs.push(log);
    }
    it.wall_s = since(t0);
    it.setup_s = (it.wall_s - point_span_s - it.export_s).max(0.0);
    it.digest = fnv1a(&bytes);
    for log in &logs {
        it.checkpoint_bytes += std::fs::metadata(log).map_or(0, |m| m.len());
        let _ = std::fs::remove_file(log);
    }
    Ok(it)
}

/// One iteration through the engine's own point executor.
pub fn engine_iteration(seed: u64, jobs: usize, work_dir: &Path) -> Result<Iteration, String> {
    iteration(seed, jobs, work_dir, &|plan, cfg| run_sweep_cfg(plan, cfg))
}

/// Host-sampler shares of the advance loop and the burst refill over
/// one engine iteration (both workers' region stripes).
pub fn sampled_shares(seed: u64, jobs: usize, work_dir: &Path) -> Result<(f64, f64), String> {
    let sampler = HostSampler::start(5_000);
    let result = engine_iteration(seed, jobs, work_dir);
    let regions = sampler.stop();
    result?;
    Ok((
        regions.share(Region::Advance),
        regions.share(Region::BurstRefill),
    ))
}

/// What the traced replica executor observed at one point.
#[derive(Clone, Debug)]
pub struct PointTrace {
    /// `OltpWorkload::build`.
    pub build_s: f64,
    /// `Simulation::try_new`.
    pub alloc_s: f64,
    /// Config, workload build, and simulator allocation together.
    pub setup_s: f64,
    /// Host seconds inside the workload streams while measuring.
    pub refill_s: f64,
    /// The measured `run`.
    pub meas_s: f64,
    /// The point's report.
    pub report: SimReport,
}

/// The engine's point executor, repeated outside the engine with timing
/// around each layer call: the same config, workload, warm-up,
/// measurement, and report document, built from the same public calls.
/// Its documents must match the engine's byte for byte (the traced run
/// checks the digests). `try_new` does not see the workload's shared
/// commit counter, so the transaction count is restored from it.
fn traced_execute(
    index: usize,
    spec: &RunSpec,
    log: &Mutex<Vec<PointTrace>>,
) -> Result<RunOutcome, SweepError> {
    let run_err = |message: String| SweepError::Run {
        label: spec.label(),
        message,
    };
    let t0 = now();
    let cfg = spec.build_config()?;
    let params = OltpParams {
        seed: spec.seed,
        ..OltpParams::default()
    };
    let t_build = now();
    let streams =
        OltpWorkload::build(params, cfg.total_cores()).map_err(|e| run_err(e.to_string()))?;
    let build_s = since(t_build);
    let shared = streams
        .first()
        .map(NodeWorkload::shared_handle)
        .ok_or_else(|| run_err("no streams".to_string()))?;
    let nanos = Rc::new(Cell::new(0u64));
    let wrapped: Vec<_> = streams
        .into_iter()
        .map(|s| TimedStream::new(s, Rc::clone(&nanos)))
        .collect();
    let t_alloc = now();
    let mut sim = Simulation::try_new(&cfg, wrapped).map_err(|e| run_err(e.to_string()))?;
    let alloc_s = since(t_alloc);
    let setup_s = since(t0);
    sim.warm_up(spec.warm);
    let txn_base = shared.transactions_completed();
    nanos.set(0);
    let t_meas = now();
    let mut report = sim.run(spec.meas);
    let meas_s = since(t_meas);
    report.transactions = shared.transactions_completed() - txn_base;
    let manifest = RunManifest {
        tool: "csim-sweep".to_string(),
        version: version_string(env!("CARGO_PKG_VERSION")),
        config_summary: cfg.summary(),
        config: vec![
            ("label".to_string(), spec.label()),
            ("nodes".to_string(), spec.nodes.to_string()),
            ("cores_per_node".to_string(), spec.cores.to_string()),
            ("integration".to_string(), format!("{:?}", spec.integration)),
            ("l2_bytes".to_string(), spec.l2_bytes.to_string()),
            ("l2_assoc".to_string(), spec.l2_assoc.to_string()),
            ("l2_dram".to_string(), spec.dram.to_string()),
            ("rac".to_string(), spec.rac.to_string()),
            (
                "replicate_instructions".to_string(),
                spec.replicate.to_string(),
            ),
            ("out_of_order".to_string(), spec.ooo.to_string()),
            ("warm_refs_per_node".to_string(), spec.warm.to_string()),
            ("meas_refs_per_node".to_string(), spec.meas.to_string()),
        ],
        seeds: vec![("workload".to_string(), spec.seed)],
    };
    let doc = run_report_json(&report, sim.observer(), &manifest, None);
    let summary = RunSummary {
        cpi: report.breakdown.cpi(),
        mpki: report.mpki(),
        l2_misses: report.misses.total(),
        transactions: report.transactions,
    };
    let trace = PointTrace {
        build_s,
        alloc_s,
        setup_s,
        refill_s: nanos.get() as f64 * 1e-9,
        meas_s,
        report,
    };
    log.lock()
        .map_err(|_| run_err("trace log poisoned".to_string()))?
        .push(trace);
    Ok(RunOutcome {
        index,
        label: spec.label(),
        seed: spec.seed,
        summary,
        doc,
    })
}

/// One iteration through the traced replica executor, with the
/// per-point traces it collected.
pub fn traced_iteration(
    seed: u64,
    jobs: usize,
    work_dir: &Path,
) -> Result<(Iteration, Vec<PointTrace>), String> {
    let log = Mutex::new(Vec::new());
    let exec = |index: usize, spec: &RunSpec| traced_execute(index, spec, &log);
    let it = iteration(seed, jobs, work_dir, &|plan, cfg| {
        run_sweep_with(plan, cfg, &exec)
    })?;
    let traces = log
        .into_inner()
        .map_err(|_| "trace log poisoned".to_string())?;
    Ok((it, traces))
}

/// The dispatch oracle check for the sweep: the grid's two extreme
/// machines (uniprocessor conservative base, 8-node fully integrated
/// with RAC), on a short prefix, batched vs single-step.
pub fn dispatch_oracle_check(seed: u64) -> Result<(), String> {
    let plans = plans(seed)?;
    let extremes = [plans[0].expand().remove(0), plans[2].expand().remove(0)];
    for spec in extremes {
        let cfg = spec.build_config().map_err(|e| e.to_string())?;
        let mut reports = Vec::new();
        for batched in [true, false] {
            let params = OltpParams {
                seed,
                ..OltpParams::default()
            };
            let mut sim = Simulation::with_oltp(&cfg, params).map_err(|e| e.to_string())?;
            sim.set_batched_dispatch(batched);
            sim.warm_up(10_000);
            reports.push(sim.run(20_000));
            sim.verify_coherence()
                .map_err(|e| format!("coherence violation: {e}"))?;
        }
        if reports[0] != reports[1] {
            return Err(format!(
                "{}: batched dispatch differs from the single-step oracle",
                spec.label()
            ));
        }
    }
    Ok(())
}
