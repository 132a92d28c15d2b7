//! Bit-identity contract of the batched reference dispatch.
//!
//! The simulator's default hot path gathers references from each stream
//! in 512-deep packed columns ([`ReferenceStream::next_burst`]) instead of
//! one virtual `next_ref` call per reference. The contract is that this
//! is *pure mechanism*: every counter of every report — misses,
//! breakdowns, histograms, epoch series, fault statistics — must be
//! bit-identical to the retained single-step oracle path
//! ([`Simulation::set_batched_dispatch`]).
//!
//! The drives here are adversarial about burst boundaries on purpose:
//! run lengths that are not multiples of the 512-word column, epochs
//! that close mid-burst, a fault storm whose injector reads the logical
//! clock between references, and a multi-node machine whose streams must
//! stay strictly round-interleaved. The one-stream machine is driven both
//! on and off the whole-column lane (the lane is taken only with no
//! epochs, no injector and no event trace).
//!
//! [`ReferenceStream::next_burst`]: oltp_chip_integration::trace::ReferenceStream::next_burst
//! [`Simulation::set_batched_dispatch`]: oltp_chip_integration::sim::Simulation::set_batched_dispatch

use oltp_chip_integration::config::SystemConfig;
use oltp_chip_integration::fault::{FaultInjector, FaultPlan};
use oltp_chip_integration::obs::{ObsConfig, Observer, TraceConfig};
use oltp_chip_integration::sim::Simulation;
use oltp_chip_integration::trace::{
    Access, ExecMode, MemRef, PACKED_ACCESS_SHIFT, PACKED_ADDR_MASK, PACKED_MODE_BIT,
};
use oltp_chip_integration::workload::{NodeWorkload, OltpParams};

/// Builds the batched/single-step pair for one configuration and drives
/// both through the same chunk schedule, comparing the full report (and
/// the observer's JSON, which carries histograms/epochs/trace) after
/// every chunk.
fn assert_dispatch_identity(
    cfg: &SystemConfig,
    seed: u64,
    obs: Option<ObsConfig>,
    fault_plan: Option<&FaultPlan>,
    warm: u64,
    chunks: &[u64],
) {
    let params = OltpParams { seed, ..OltpParams::default() };
    let mut batched = Simulation::with_oltp(cfg, params.clone()).expect("valid workload");
    let mut oracle = Simulation::with_oltp(cfg, params).expect("valid workload");
    oracle.set_batched_dispatch(false);
    for sim in [&mut batched, &mut oracle] {
        if let Some(obs) = &obs {
            sim.set_observer(Observer::new(obs.clone()));
        }
        if let Some(plan) = fault_plan {
            sim.set_fault_injector(
                FaultInjector::new(plan.clone(), 5).expect("valid fault plan"),
            );
        }
    }
    batched.warm_up(warm);
    oracle.warm_up(warm);
    for (i, &chunk) in chunks.iter().enumerate() {
        let a = batched.run(chunk);
        let b = oracle.run(chunk);
        assert_eq!(a, b, "batched report diverges from single-step at chunk {i} ({chunk} refs)");
        let oa = batched.observer().to_json().to_string();
        let ob = oracle.observer().to_json().to_string();
        assert_eq!(oa, ob, "observer output diverges at chunk {i} ({chunk} refs)");
        assert_eq!(
            batched.fault_stats(),
            oracle.fault_stats(),
            "fault statistics diverge at chunk {i}"
        );
    }
}

#[test]
fn batched_dispatch_matches_single_step_on_non_multiple_lengths() {
    // Uniprocessor — the whole-column lane with the deferred refs_run
    // flush. Every length is coprime with the 512-word column so chunks
    // start and end mid-burst; 511 and 513 straddle the column edge.
    let cfg = SystemConfig::paper_base_uni();
    let chunks = [1, 63, 65, 511, 513, 4_097, 33_333];
    assert_dispatch_identity(&cfg, 11, None, None, 10_001, &chunks);
}

#[test]
fn batched_dispatch_matches_single_step_multi_node() {
    // 4 nodes sharing nothing but the directory: rounds must stay
    // strictly interleaved (stream 0..n per round) across column refills.
    let cfg = SystemConfig::paper_fully_integrated(4);
    assert_dispatch_identity(&cfg, 23, None, None, 5_003, &[127, 8_191, 20_011]);
}

#[test]
fn batched_dispatch_matches_single_step_with_epochs_spanning_bursts() {
    // An epoch length coprime with the column depth forces epoch closes
    // in the middle of gathered bursts; histograms exercise per-class
    // latency recording on both paths. The uniprocessor drive keeps the
    // one-stream machine off the whole-column lane.
    let obs = ObsConfig { histograms: true, epoch: Some(777), trace: None };
    let mp8 = SystemConfig::paper_base_mp8();
    assert_dispatch_identity(&mp8, 7, Some(obs.clone()), None, 4_001, &[10_007, 31_337]);
    let uni = SystemConfig::paper_base_uni();
    assert_dispatch_identity(&uni, 7, Some(obs), None, 4_001, &[10_007, 31_337]);
}

#[test]
fn batched_dispatch_matches_single_step_with_event_trace() {
    // An enabled event trace timestamps events with the logical clock
    // (`refs_run`), which disables the deferred flush — both paths must
    // agree event-for-event.
    let cfg = SystemConfig::paper_base_uni();
    let obs = ObsConfig {
        histograms: false,
        epoch: None,
        trace: Some(TraceConfig::default()),
    };
    assert_dispatch_identity(&cfg, 3, Some(obs), None, 2_001, &[9_973]);
}

#[test]
fn batched_dispatch_matches_single_step_under_fault_storm() {
    // The injector reads the logical clock between references (NACK
    // windows, retry backoff), so the fault path is the strictest test
    // of per-round `refs_run` advancement. The uniprocessor drive keeps
    // the one-stream machine off the whole-column lane and runs into the
    // plan's memory-controller brown-out, whose start the injector reads
    // off the logical clock in the middle of a column.
    let plan = FaultPlan::from_toml_str(include_str!("../examples/fault_storm.toml"))
        .expect("the example fault plan parses");
    let two = SystemConfig::paper_fully_integrated(2);
    assert_dispatch_identity(&two, 17, None, Some(&plan), 5_000, &[15_013, 7_919]);
    let uni = SystemConfig::paper_base_uni();
    assert_dispatch_identity(&uni, 17, None, Some(&plan), 5_000, &[15_013, 7_919, 600_007]);
}

#[test]
fn packed_word_layout_is_pinned() {
    // The packed-word layout is shared between the workload's burst
    // buffer and the dispatch fast lane; pin the bit positions so a
    // drive-by change shows up as a test diff, not a silent decode skew.
    let r = MemRef::new(0x1234_5678_9abc, Access::Store, ExecMode::Kernel);
    let w = r.pack();
    assert_eq!(w & PACKED_ADDR_MASK, 0x1234_5678_9abc);
    assert_eq!(w >> PACKED_ACCESS_SHIFT & 0x3, 2, "Store encodes as 2");
    assert_ne!(w & PACKED_MODE_BIT, 0, "kernel mode is the top bit");
    assert_eq!(
        MemRef::unpack(w & !PACKED_MODE_BIT).mode,
        ExecMode::User,
        "clearing the mode bit yields a user-mode reference"
    );
    assert_eq!(MemRef::unpack(w), r);
}

#[test]
fn next_burst_is_a_view_of_the_same_stream() {
    // Interleaving burst and single-reference pulls from the workload
    // generator must see one stream, not two: pull a prefix through
    // `next_burst` on one clone and `next_ref` on the other.
    use oltp_chip_integration::trace::ReferenceStream;
    use oltp_chip_integration::workload::OltpWorkload;

    let build = || -> Vec<NodeWorkload> {
        OltpWorkload::build(OltpParams { seed: 99, ..OltpParams::default() }, 1)
            .expect("valid workload")
    };
    let mut by_burst = build().remove(0);
    let mut by_ref = build().remove(0);
    let mut col = [0u64; 61]; // deliberately not the simulator's 512
    let mut got = Vec::new();
    while got.len() < 50_000 {
        let n = by_burst.next_burst(&mut col);
        got.extend(col[..n].iter().map(|&w| MemRef::unpack(w)));
        // A single-step pull in between must not desynchronize.
        got.push(by_burst.next_ref());
    }
    for (i, r) in got.iter().enumerate() {
        assert_eq!(*r, by_ref.next_ref(), "reference {i} diverges");
    }
}
