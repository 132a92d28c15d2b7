//! Property test of the runtime sanitizer: random protocol traffic on
//! 1–8 nodes over a small line pool — read and write misses, accepted
//! and refused writebacks and RAC moves, live and stale sharer drops —
//! is applied to a live `Directory` and fed to a `Sanitizer`. A correct
//! directory must check clean transition by transition and pass the full
//! audit, and a single tampered line must be the line the audit names.

use csim_check::Sanitizer;
use csim_coherence::{Directory, LineState, NodeId, NodeSet};
use csim_trace::SimRng;

const SEEDS: u64 = 64;
const OPS_PER_SEED: usize = 400;

/// How often each kind of transition was fed, over all seeds.
#[derive(Default)]
struct Coverage {
    cold_misses: u64,
    accepted_owner_ops: u64,
    refused_owner_ops: u64,
    live_drops: u64,
    stale_drops: u64,
}

fn owner(state: LineState) -> Option<NodeId> {
    match state {
        LineState::Modified { owner, .. } => Some(owner),
        _ => None,
    }
}

/// Every valid state of a line on `nodes` nodes except `current`, for
/// the tamper step.
fn other_states(nodes: u8, current: LineState) -> Vec<LineState> {
    let mut states = vec![LineState::Uncached];
    for n in 0..nodes {
        states.push(LineState::Shared(NodeSet::single(n)));
        states.push(LineState::Modified { owner: n, in_rac: false });
        states.push(LineState::Modified { owner: n, in_rac: true });
    }
    if nodes > 1 {
        states.push(LineState::Shared([0u8, nodes - 1].into_iter().collect()));
    }
    states.retain(|&s| s != current);
    states
}

/// Drives one seed's traffic; returns the directory, the sanitizer and
/// the number of transitions fed to it.
fn drive(rng: &mut SimRng, cov: &mut Coverage) -> (Directory, Sanitizer, u64) {
    let nodes = rng.gen_range(1..9) as u8;
    let pool = rng.gen_range_usize(1..17);
    // Spread the pool over pages so the lines have different homes.
    let lines: Vec<u64> = (0..pool as u64).map(|k| k * 61 + 3).collect();
    let mut dir = Directory::new(nodes, 64, 8192);
    let mut sz = Sanitizer::new();
    let mut fed = 0u64;
    for _ in 0..OPS_PER_SEED {
        let line = lines[rng.gen_range_usize(0..pool)];
        let mut node = rng.gen_range(0..u64::from(nodes)) as NodeId;
        let cur_owner = owner(dir.state(line));
        match rng.gen_range(0..6) {
            op @ (0 | 1) => {
                // The simulator never misses on a line its node owns.
                if cur_owner == Some(node) {
                    continue;
                }
                if op == 0 {
                    let r = dir.read_miss(line, node);
                    cov.cold_misses += u64::from(r.cold);
                    sz.on_read_miss(&dir, line, node, &r);
                } else {
                    let w = dir.write_miss(line, node);
                    cov.cold_misses += u64::from(w.cold);
                    sz.on_write_miss(&dir, line, node, &w);
                }
            }
            op @ 2..=4 => {
                // Mostly the owner, so both accepted and refused moves
                // are common.
                if rng.gen_bool(0.7) {
                    node = cur_owner.unwrap_or(node);
                }
                let result = match op {
                    2 => {
                        let r = dir.writeback(line, node);
                        sz.on_writeback(&dir, line, node, r);
                        r
                    }
                    3 => {
                        let r = dir.owner_moved_to_rac(line, node);
                        sz.on_rac_park(&dir, line, node, r);
                        r
                    }
                    _ => {
                        let r = dir.owner_refetched_from_rac(line, node);
                        sz.on_rac_refetch(&dir, line, node, r);
                        r
                    }
                };
                if result.is_ok() {
                    cov.accepted_owner_ops += 1;
                } else {
                    cov.refused_owner_ops += 1;
                }
            }
            _ => {
                let removed = dir.drop_sharer(line, node);
                sz.on_drop_sharer(&dir, line, node, removed);
                if removed {
                    cov.live_drops += 1;
                } else {
                    cov.stale_drops += 1;
                }
            }
        }
        fed += 1;
    }
    (dir, sz, fed)
}

#[test]
fn random_traffic_checks_clean_and_the_audit_names_a_tampered_line() {
    let mut cov = Coverage::default();
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let (mut dir, sz, fed) = drive(&mut rng, &mut cov);
        assert_eq!(sz.first_divergence(), None, "seed {seed}");
        assert_eq!(sz.checks(), fed, "seed {seed}: one check per transition fed");
        sz.verify_shadow(&dir).unwrap_or_else(|e| panic!("seed {seed}: {e}"));

        let tracked: Vec<(u64, LineState)> = dir.iter().collect();
        assert!(!tracked.is_empty(), "seed {seed}: no line was ever referenced");
        let (line, state) = tracked[rng.gen_range_usize(0..tracked.len())];
        let others = other_states(dir.n_nodes(), state);
        let tampered = others[rng.gen_range_usize(0..others.len())];
        dir.seed_state(line, tampered).unwrap();
        let err = sz.verify_shadow(&dir).unwrap_err();
        assert_eq!(err.op, "verify_shadow", "seed {seed}");
        assert_eq!(err.line, line, "seed {seed}: {err}");
    }
    assert!(cov.cold_misses > 0, "no cold misses");
    assert!(cov.accepted_owner_ops > 0, "no accepted writeback/RAC moves");
    assert!(cov.refused_owner_ops > 0, "no refused writeback/RAC moves");
    assert!(cov.live_drops > 0, "no live sharer drops");
    assert!(cov.stale_drops > 0, "no stale sharer drops");
}
