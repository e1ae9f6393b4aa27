//! Hand-off gate for the worker pool. A pool round trip costs more than
//! the control-plane work a tick could move with it, so a serve tick may
//! hand work to the pool at most once, and that once in at most
//! `workers` jobs: admission, drain and defrag run on the stepping thread,
//! and the execution phase ships one batch of machine epochs per worker.
//!
//! The gate counts pool submissions through a `ConcProbe`, so it holds on
//! any host, however few cores it has and however noisy its clock.

use std::sync::{Arc, Mutex};
use vnpu_bench::figs::parallel_tick::fleet_config;
use vnpu_conc::sites::Site;
use vnpu_conc::{ConcMode, ConcProbe};
use vnpu_serve::ServeRuntime;

/// Records the job count of every pool submission; ignores locks.
#[derive(Debug, Default)]
struct SubmitCounter {
    batches: Mutex<Vec<usize>>,
}

impl SubmitCounter {
    fn take(&self) -> Vec<usize> {
        std::mem::take(&mut *self.batches.lock().unwrap())
    }
}

impl ConcProbe for SubmitCounter {
    fn on_acquired(&self, _site: &'static Site, _shard: u32, _tag: Option<u64>) {}

    fn on_release(&self, _site: &'static Site, _shard: u32) {}

    fn on_submit(&self, jobs: usize) {
        self.batches.lock().unwrap().push(jobs);
    }
}

#[test]
fn parallel_tick_hands_off_at_most_one_batch_per_worker_per_tick() {
    const WORKERS: usize = 2;
    const TICKS: u64 = 80;
    let probe = Arc::new(SubmitCounter::default());
    let mut cfg = fleet_config(true, WORKERS);
    cfg.conc = ConcMode {
        probe: Some(probe.clone()),
        ..ConcMode::default()
    };
    let mut rt = ServeRuntime::new(cfg);
    let mut executed_ticks = 0u64;
    let mut widest = 0usize;
    while rt.tick_index() < TICKS {
        let tick = rt.tick_index();
        let events = rt.step().expect("fleet tick completes");
        let batches = probe.take();
        let executed = events.executed_chips > 0;
        executed_ticks += u64::from(executed);
        assert!(
            batches.len() <= usize::from(executed),
            "tick {tick}: {} pool submissions ({batches:?}) with {} chips executed",
            batches.len(),
            events.executed_chips
        );
        for &jobs in &batches {
            assert!(
                jobs <= WORKERS,
                "tick {tick}: a submission of {jobs} jobs on {WORKERS} workers"
            );
            widest = widest.max(jobs);
        }
    }
    // Not vacuous: the fleet ran epochs and the pool fanned them out.
    assert!(
        executed_ticks > TICKS / 2,
        "only {executed_ticks} ticks executed"
    );
    assert_eq!(widest, WORKERS, "no tick used every worker");
}
