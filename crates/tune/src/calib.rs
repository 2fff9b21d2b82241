//! Calibration of the cost model against the machine the process runs on.
//!
//! Constants come from two layers, the second refining the first:
//!
//! 1. **Builtin** — compiled-in constants: the values `bench_distributed`
//!    recorded on an AVX-512 x86-64 host (the `"calibration"` block of
//!    `BENCH_distributed.json`).
//! 2. **Probed** — cheap one-shot online microprobes run on *this* host:
//!    a timed [`dot`](treesvd_matrix::ops::dot) burst (streaming flop
//!    rate), a timed [`gram_block`](treesvd_matrix::ops::gram_block)
//!    burst (panel flop rate), a timed buffer copy (link word rate), a
//!    timed [`BufferPool`](treesvd_comm::BufferPool) round-trip (message
//!    rate), and the sysfs L2 probe. The whole battery is sub-millisecond
//!    and runs **at most once per process** ([`std::sync::OnceLock`]);
//!    every warm path reads the memoized copy.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use treesvd_comm::{loopback_channel, BufferPool};
use treesvd_matrix::ops::{dot, gram_block};
use treesvd_net::CostModel;

/// Where a [`Calibration`]'s constants came from (the strongest layer
/// that contributed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalibSource {
    /// Compiled-in constants only.
    Builtin,
    /// Builtin refined by this process's one-shot microprobes.
    Probed,
}

/// Calibrated machine constants, all in nanoseconds (and bytes for the
/// cache size).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Time per streamed floating-point operation (long cache-missing
    /// column traversals — the Hestenes rotation regime).
    pub flop_ns: f64,
    /// Time per flop in cache-blocked panel kernels (Gram build, panel
    /// product) — the rate that makes the Gram kernel win.
    pub panel_flop_ns: f64,
    /// Time to move one 8-byte word over the in-process "link" (a payload
    /// copy).
    pub word_ns: f64,
    /// Fixed per-message cost: one pool lease + channel round-trip (the
    /// zero-copy transport's whole price).
    pub msg_ns: f64,
    /// L2 cache size in bytes (sysfs probe / `TREESVD_L2` / fallback).
    pub l2_bytes: usize,
    /// Provenance of the constants.
    pub source: CalibSource,
}

impl Calibration {
    /// Compiled-in constants, as `bench_distributed` recorded them on an
    /// AVX-512 x86-64 host: ~5 GF/s streaming, ~28 GF/s panel, ~0.2 ns
    /// per copied word, ~0.15 µs per message, 2 MiB of L2.
    /// [`Calibration::probed`] re-measures every constant.
    #[must_use]
    pub fn builtin() -> Self {
        Self {
            flop_ns: 0.189159,
            panel_flop_ns: 0.035919,
            word_ns: 0.206261,
            msg_ns: 149.2,
            l2_bytes: 2 * 1024 * 1024,
            source: CalibSource::Builtin,
        }
    }

    /// The builtin constants refined by this process's microprobes.
    /// Prefer [`global`], which memoizes the result.
    #[must_use]
    pub fn probed() -> Self {
        let mut c = Self::builtin();
        c.flop_ns = probe_stream_flop_ns().unwrap_or(c.flop_ns);
        c.panel_flop_ns = probe_panel_flop_ns().unwrap_or(c.panel_flop_ns);
        c.word_ns = probe_word_ns().unwrap_or(c.word_ns);
        c.msg_ns = probe_msg_ns().unwrap_or(c.msg_ns);
        c.l2_bytes = treesvd_matrix::cache::l2_bytes();
        c.source = CalibSource::Probed;
        c
    }

    /// The [`CostModel`] these constants induce, in nanoseconds: `alpha` =
    /// per-message cost, `beta` = per-word link cost, `gamma`/`gamma_panel`
    /// = the two flop rates. The per-hop term is a share of the message
    /// cost (in-process "hops" are queue
    /// handoffs, not switches).
    #[must_use]
    pub fn cost_model(&self) -> CostModel {
        CostModel {
            alpha: self.msg_ns,
            beta: self.word_ns,
            hop: self.msg_ns / 8.0,
            gamma: self.flop_ns,
            gamma_panel: self.panel_flop_ns,
        }
    }
}

/// The process-wide calibration: builtin constants refined by the
/// one-shot probe battery. First call pays the (sub-millisecond) probes;
/// every later call is a memoized copy — see [`probe_runs`].
#[must_use]
pub fn global() -> Calibration {
    static CAL: OnceLock<Calibration> = OnceLock::new();
    *CAL.get_or_init(|| {
        PROBE_RUNS.fetch_add(1, Ordering::Relaxed);
        Calibration::probed()
    })
}

static PROBE_RUNS: AtomicU64 = AtomicU64::new(0);

/// How many times this process has run the probe battery (0 or 1 by
/// construction; the smoke gate asserts it never exceeds 1 across
/// repeated tuning calls).
#[must_use]
pub fn probe_runs() -> u64 {
    PROBE_RUNS.load(Ordering::Relaxed)
}

/// Median-of-samples timer: run `f` once to warm, then `samples` timed
/// repetitions, returning the median duration in ns (None when the clock
/// read zero — a broken/coarse clock must not poison the calibration).
fn timed_median_ns(samples: usize, mut f: impl FnMut()) -> Option<f64> {
    f();
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    let med = times[samples / 2];
    (med > 0.0).then_some(med)
}

/// Streaming flop rate: a burst of full-length `dot`s over vectors sized
/// well past L1 (256 KiB working set), ~0.1 ms total.
fn probe_stream_flop_ns() -> Option<f64> {
    let len = 16 * 1024;
    let x: Vec<f64> = (0..len).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect();
    let y: Vec<f64> = (0..len).map(|i| 0.5 - (i % 5) as f64 * 0.0625).collect();
    let reps = 8;
    let ns = timed_median_ns(5, || {
        let mut acc = 0.0;
        for _ in 0..reps {
            acc += dot(std::hint::black_box(&x), std::hint::black_box(&y));
        }
        std::hint::black_box(acc);
    })?;
    Some(ns / (2 * len * reps) as f64)
}

/// Panel flop rate: a burst of in-cache `gram_block` builds (m=256,
/// c=8 ⇒ a 16-column union, the blocked driver's sweet spot).
fn probe_panel_flop_ns() -> Option<f64> {
    let m = 256;
    let c = 8;
    let x: Vec<f64> = (0..m * c).map(|i| 1.0 + (i % 9) as f64 * 0.0625).collect();
    let y: Vec<f64> = (0..m * c).map(|i| 0.75 - (i % 11) as f64 * 0.03125).collect();
    let k = 2 * c;
    let mut g = vec![0.0; k * k];
    let reps = 4;
    let ns = timed_median_ns(5, || {
        for _ in 0..reps {
            gram_block(std::hint::black_box(&x), std::hint::black_box(&y), m, &mut g);
        }
        std::hint::black_box(&g);
    })?;
    Some(ns / (k * k * m * reps) as f64)
}

/// Link word rate: timed payload copies (the zero-copy transport moves
/// pointers instead, but the cost model still prices a copied word).
fn probe_word_ns() -> Option<f64> {
    let words = 8 * 1024;
    let src = vec![1.5f64; words];
    let mut dst = vec![0.0f64; words];
    let reps = 16;
    let ns = timed_median_ns(5, || {
        for _ in 0..reps {
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&mut dst);
        }
    })?;
    Some(ns / (words * reps) as f64)
}

/// Per-message cost: a pool lease + one channel round-trip (the
/// transport's loopback hop), the zero-copy path's whole fixed price.
fn probe_msg_ns() -> Option<f64> {
    let mut pool = BufferPool::new();
    let (tx, rx) = loopback_channel();
    let reps = 64;
    let ns = timed_median_ns(5, || {
        for _ in 0..reps {
            let mut buf = pool.take(128);
            buf.extend_from_slice(&[1.0; 4]);
            tx.send(buf).unwrap();
            drop(rx.recv().unwrap());
        }
    })?;
    Some(ns / reps as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_constants_are_ordered() {
        let c = Calibration::builtin();
        assert!(c.panel_flop_ns < c.flop_ns, "panel flops must be cheaper");
        assert!(c.msg_ns > c.word_ns);
    }

    #[test]
    fn probes_produce_positive_finite_rates() {
        let c = Calibration::probed();
        for v in [c.flop_ns, c.panel_flop_ns, c.word_ns, c.msg_ns] {
            assert!(v.is_finite() && v > 0.0, "bad calibration constant: {v}");
        }
        assert!(c.l2_bytes >= 4096);
        assert_eq!(c.source, CalibSource::Probed);
    }

    #[test]
    fn global_is_memoized() {
        let a = global();
        let runs = probe_runs();
        assert!(runs <= 1);
        let b = global();
        assert_eq!(a, b);
        assert_eq!(probe_runs(), runs, "second read must not re-probe");
    }

    #[test]
    fn cost_model_mapping_keeps_the_ordering_invariants() {
        let m = Calibration::builtin().cost_model();
        assert!(m.gamma_panel < m.gamma);
        assert!(m.alpha > m.beta);
    }
}
