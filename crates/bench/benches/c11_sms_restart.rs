//! **C11 — SMS cold-restart: checkpoint + WAL tail vs full-history
//! replay** (§5.2.1, metastore durability).
//!
//! A rescheduled SMS task rebuilds its metastore from Colossus before it
//! can serve. This bench grows the commit history over a bounded, churny
//! keyspace (metadata keys are overwritten and deleted as fragments come
//! and go, so the *state* stays small while the *history* grows) and
//! times [`MetaStore::recover`] for two durability regimes:
//!
//! - **checkpointed**: the checkpoint daemon ran before the crash — the
//!   snapshot covers all but the last `TAIL` commits, so recovery loads
//!   the checkpoint and replays exactly the tail;
//! - **full replay**: no checkpoint ever published — recovery replays
//!   the entire history from the WAL.
//!
//! The claim under test: checkpointed restart cost is bounded by the
//! tail length, not the history length — the recovery report's
//! `commits_replayed` equals `TAIL` at every history size (exact,
//! deterministic), and the measured wall clock stays flat while the
//! full-replay arm grows with the history.
//!
//! Emits `BENCH_sms_restart.json` at the repo root. `VORTEX_BENCH_ITERS`
//! overrides the largest history size (CI smoke uses a small value; the
//! flatness/speedup assertions arm only on full-length runs).
#![allow(clippy::print_stdout)] // prints results/tables by design

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vortex_colossus::Colossus;
use vortex_common::ids::ClusterId;
use vortex_common::latency::WriteProfile;
use vortex_common::runtime::Runtime;
use vortex_common::truetime::{SimClock, TrueTime};
use vortex_metastore::MetaStore;

/// Keyspace the commit churn cycles over: bounded, like real table /
/// stream / fragment metadata under steady grooming.
const KEYS: usize = 256;
/// Commits after the last checkpoint — the WAL tail a crashed SMS
/// leaves behind. Fixed across history sizes: the whole point is that
/// restart cost tracks this, not the history.
const TAIL: usize = 200;
/// Timed recovery repetitions per point (median reported).
const RECOVER_REPS: usize = 5;

fn tt() -> TrueTime {
    TrueTime::simulated(SimClock::new(1_000), 10, 0)
}

fn mem_cluster(seed: u64) -> Arc<Colossus> {
    Colossus::new_mem(ClusterId::from_raw(0x5DB), WriteProfile::instant(), seed)
}

/// One metadata-churn commit: overwrite a key from the bounded
/// keyspace, occasionally deleting instead (fragment GC'd).
fn churn_commit(store: &Arc<MetaStore>, rng: &mut StdRng, i: usize) {
    let key = format!("t/0001/f/{:04x}", rng.gen_range(0..KEYS));
    let mut txn = store.begin();
    if i % 7 == 3 {
        txn.delete(&key);
    } else {
        txn.put(&key, format!("frag-meta-{i:08}").into_bytes());
    }
    txn.commit().unwrap();
}

/// Builds a durable store with `history` commits of churn, checkpoints
/// (or not), then lays down `TAIL` more commits — the pre-crash state.
fn build(seed: u64, history: usize, checkpoint: bool) -> Arc<Colossus> {
    let cluster = mem_cluster(seed);
    let (store, _) = MetaStore::recover(tt(), &cluster, Runtime::new()).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..history {
        churn_commit(&store, &mut rng, i);
    }
    if checkpoint {
        // What the checkpoint daemon does: prune MVCC versions nobody
        // can read anymore, then publish.
        store.gc_versions(store.now());
        store.checkpoint().unwrap();
    }
    for i in 0..TAIL {
        churn_commit(&store, &mut rng, history + i);
    }
    cluster
}

struct PointResult {
    arm: &'static str,
    history: usize,
    recover_us: u64,
    commits_replayed: usize,
    wal_epochs_replayed: usize,
    checkpoint_version: Option<u64>,
}

/// Median wall-clock of `RECOVER_REPS` cold recoveries from `cluster`,
/// plus the (identical every time) recovery report.
fn time_recovery(arm: &'static str, history: usize, cluster: &Arc<Colossus>) -> PointResult {
    let mut times: Vec<u64> = (0..RECOVER_REPS)
        .map(|_| {
            // lint:allow(L001, bench measures real recovery wall-clock, not simulated time)
            let start = Instant::now();
            let (_store, _rep) = MetaStore::recover(tt(), cluster, Runtime::new()).unwrap();
            start.elapsed().as_micros() as u64
        })
        .collect();
    times.sort_unstable();
    let (_, rep) = MetaStore::recover(tt(), cluster, Runtime::new()).unwrap();
    PointResult {
        arm,
        history,
        recover_us: times[times.len() / 2],
        commits_replayed: rep.commits_replayed,
        wal_epochs_replayed: rep.wal_epochs_replayed,
        checkpoint_version: rep.checkpoint_version,
    }
}

fn main() {
    let iters: usize = std::env::var("VORTEX_BENCH_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8_000);
    let histories = [iters / 16, iters / 4, iters];
    println!(
        "\n=== C11: SMS cold-restart, checkpoint+tail vs full-history replay (tail {TAIL}) ==="
    );
    println!(
        "{:>12} | {:>8} | {:>11} | {:>9} | {:>7} | {:>10}",
        "arm", "history", "recover ms", "replayed", "epochs", "checkpoint"
    );

    let mut points: Vec<PointResult> = Vec::new();
    for (hi, &history) in histories.iter().enumerate() {
        let cluster = build(0xC11 + hi as u64, history, true);
        let p = time_recovery("checkpointed", history, &cluster);
        assert_eq!(
            p.commits_replayed,
            TAIL.min(history + TAIL),
            "checkpointed recovery was not tail-bounded at history {history}"
        );
        assert!(p.checkpoint_version.is_some());
        print_point(&p);
        points.push(p);

        let cluster = build(0xF0C11 + hi as u64, history, false);
        let p = time_recovery("full_replay", history, &cluster);
        assert_eq!(
            p.commits_replayed,
            history + TAIL,
            "full replay skipped commits at history {history}"
        );
        print_point(&p);
        points.push(p);
    }

    let ckpt: Vec<&PointResult> = points.iter().filter(|p| p.arm == "checkpointed").collect();
    let full: Vec<&PointResult> = points.iter().filter(|p| p.arm == "full_replay").collect();
    // lint:allow(L002, both arms push one point per history entry above)
    let (ckpt_small, ckpt_big) = (ckpt.first().unwrap(), ckpt.last().unwrap());
    // lint:allow(L002, both arms push one point per history entry above)
    let full_big = full.last().unwrap();
    let speedup = full_big.recover_us as f64 / ckpt_big.recover_us.max(1) as f64;
    let growth = ckpt_big.recover_us as f64 / ckpt_small.recover_us.max(1) as f64;
    println!(
        "\nat history {}: checkpointed {:.2} ms vs full replay {:.2} ms -> {speedup:.1}x; \
         checkpointed growth over {}x history: {growth:.2}x",
        ckpt_big.history,
        ckpt_big.recover_us as f64 / 1000.0,
        full_big.recover_us as f64 / 1000.0,
        ckpt_big.history / ckpt_small.history.max(1),
    );

    // Full-run acceptance: restart is bounded by the tail — flat-ish in
    // history (generous 5x margin for timer noise on ~ms measurements)
    // and clearly ahead of full replay at the largest history. The
    // `commits_replayed == TAIL` assertions above are exact at every
    // size, smoke runs included.
    let full_run = iters >= 4_000;
    if full_run {
        assert!(
            speedup >= 2.0,
            "checkpointed restart only {speedup:.2}x faster than full replay at history {}",
            ckpt_big.history
        );
        assert!(
            growth <= 5.0,
            "checkpointed restart grew {growth:.2}x over a {}x history increase",
            ckpt_big.history / ckpt_small.history.max(1)
        );
        println!("sms_restart: recovery bounded by WAL tail, not history ✓");
    } else {
        println!("(smoke run: timing assertions skipped at {iters} iters)");
    }

    // ---- BENCH_sms_restart.json (repo root) ----
    let mut rows_json = String::new();
    for (i, p) in points.iter().enumerate() {
        rows_json.push_str(&format!(
            concat!(
                "    {{\"arm\": \"{}\", \"history\": {}, \"tail\": {}, ",
                "\"recover_us\": {}, \"commits_replayed\": {}, ",
                "\"wal_epochs_replayed\": {}, \"checkpoint_version\": {}}}{}\n"
            ),
            p.arm,
            p.history,
            TAIL,
            p.recover_us,
            p.commits_replayed,
            p.wal_epochs_replayed,
            p.checkpoint_version
                .map(|v| v.to_string())
                .unwrap_or_else(|| "null".into()),
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"c11_sms_restart\",\n  \"iters\": {},\n",
            "  \"keys\": {}, \"tail\": {},\n  \"points\": [\n{}  ],\n",
            "  \"summary\": {{\"speedup_at_max_history\": {:.2}, ",
            "\"checkpointed_growth\": {:.2}}}\n}}\n"
        ),
        iters, KEYS, TAIL, rows_json, speedup, growth,
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sms_restart.json");
    std::fs::write(&out, json).expect("write BENCH_sms_restart.json");
    println!("wrote {}", out.display());
}

fn print_point(p: &PointResult) {
    println!(
        "{:>12} | {:>8} | {:>11.2} | {:>9} | {:>7} | {:>10}",
        p.arm,
        p.history,
        p.recover_us as f64 / 1000.0,
        p.commits_replayed,
        p.wal_epochs_replayed,
        p.checkpoint_version
            .map(|v| format!("v{v}"))
            .unwrap_or_else(|| "-".into()),
    );
}
