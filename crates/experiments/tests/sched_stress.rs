//! Race and robustness tests for the grain scheduler.
//!
//! Two properties the pipeline's determinism contract rests on:
//!
//! 1. a worker panicking mid-grain propagates to the caller — no
//!    deadlock, and the scheduler is immediately usable again
//!    afterwards;
//! 2. hammering the shared claim cursor with every worker-count shape
//!    produces bit-identical output — scheduling is invisible in the
//!    results.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use mct_experiments::sched::run_grains;

/// A deterministic, unevenly-priced grain: a few thousand logistic-map
/// iterations whose count varies by index, so some grains are ~100x
/// slower than others and workers claim uneven shares of the batch.
fn chaotic_grain(idx: usize) -> f64 {
    let iters = 100 + (idx * 7919) % 10_000;
    let mut x = 0.2 + (idx as f64) * 1e-6;
    for _ in 0..iters {
        x = 3.9 * x * (1.0 - x);
    }
    x
}

#[test]
fn worker_panic_mid_grain_propagates_and_scheduler_survives() {
    let items: Vec<usize> = (0..256).collect();
    for round in 0..3 {
        let panic_at = 64 * round + 17;
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_grains(&items, 8, |&x| {
                assert!(x != panic_at, "injected failure at {panic_at}");
                chaotic_grain(x)
            })
        }));
        assert!(
            result.is_err(),
            "round {round}: panic must reach the caller"
        );

        // The scheduler holds no global locks across calls: a fresh run
        // right after the panic must complete and agree with serial.
        let serial: Vec<f64> = items.iter().map(|&x| chaotic_grain(x)).collect();
        let recovered = run_grains(&items, 8, |&x| chaotic_grain(x));
        assert_eq!(
            recovered.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "round {round}: post-panic run must be bit-identical to serial"
        );
    }
}

#[test]
fn panic_in_every_position_never_deadlocks() {
    // Panic at the first grains claimed, mid-batch, and at the last
    // grain: all must propagate rather than hang the join.
    let items: Vec<usize> = (0..64).collect();
    for &panic_at in &[0usize, 1, 31, 62, 63] {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_grains(&items, 4, |&x| {
                assert!(x != panic_at, "injected failure");
                chaotic_grain(x)
            })
        }));
        assert!(result.is_err(), "panic at {panic_at} must propagate");
    }
}

#[test]
fn claim_hammer_is_bit_identical_across_worker_counts() {
    // 512 unevenly priced grains, repeated rounds: the output must be
    // byte-for-byte the single-threaded answer no matter how many
    // workers raced for the cursor.
    let n = 512usize;
    let items: Vec<usize> = (0..n).collect();
    let serial: Vec<u64> = items.iter().map(|&x| chaotic_grain(x).to_bits()).collect();

    for &workers in &[1usize, 2, 8, 16] {
        for round in 0..4 {
            let got = run_grains(&items, workers, |&x| chaotic_grain(x));
            let bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                bits, serial,
                "workers={workers} round={round}: scheduling leaked into results"
            );
        }
    }
}

#[test]
fn claim_hammer_under_a_blocked_grain_stays_deterministic() {
    // Grain 0 blocks its worker until everyone else finishes, so the
    // rest of the batch runs on the other workers — the most lopsided
    // schedule possible. Results must still be bit-identical to serial.
    let n = 256usize;
    let items: Vec<usize> = (0..n).collect();
    let serial: Vec<u64> = items.iter().map(|&x| chaotic_grain(x).to_bits()).collect();

    for &workers in &[2usize, 8, 16] {
        let done = AtomicUsize::new(0);
        let got = run_grains(&items, workers, |&x| {
            if x == 0 {
                while done.load(Ordering::SeqCst) < n - 1 {
                    std::thread::yield_now();
                }
            }
            let r = chaotic_grain(x);
            done.fetch_add(1, Ordering::SeqCst);
            r
        });
        let bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            bits, serial,
            "workers={workers}: a blocked grain reordered output"
        );
    }
}
