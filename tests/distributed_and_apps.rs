//! Integration across the execution paths and application layer: the
//! simulated machine, the distributed message-passing machine, and the
//! blocked undersized-machine driver must all agree — and the apps built
//! on top must be internally consistent whichever path produced the SVD.

use std::time::Duration;
use treesvd_apps::{lstsq, pca, pseudoinverse, ridge, symmetric_eigen};
use treesvd_core::{
    blocked_svd, BlockedOptions, FaultPlan, FaultPolicy, HestenesSvd, OrderingKind, SvdError,
    SvdOptions,
};
use treesvd_matrix::{checks, generate, Matrix};

/// Run `f` on its own thread and fail loudly if it does not finish in
/// `limit` — the recovery layer's contract is "bitwise or a clean error,
/// never a hang", and only a watchdog can observe the third outcome.
fn with_watchdog<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit).expect("distributed run hung past the watchdog")
}

#[test]
fn three_execution_paths_agree() {
    let a = generate::with_singular_values(24, &[9.0, 7.0, 5.0, 3.0, 2.0, 1.0, 0.5, 0.25], 50);
    let solver = HestenesSvd::new(SvdOptions::default());
    let sim = solver.compute(&a).unwrap();
    let dist = solver.compute_distributed(&a).unwrap();
    let blocked = blocked_svd(&a, &BlockedOptions::for_processors(2)).unwrap();

    // simulated and distributed are bitwise identical
    assert_eq!(sim.svd.sigma, dist.svd.sigma);
    // blocked agrees to rounding
    assert!(checks::spectrum_distance(&blocked.svd.sigma, &sim.svd.sigma) < 1e-9);
    for run in [&sim.svd, &dist.svd, &blocked.svd] {
        assert!(run.residual(&a) < 1e-10);
        assert!(run.orthogonality() < 1e-10);
    }
}

#[test]
fn distributed_path_for_every_ordering_kind() {
    let a = generate::random_uniform(20, 16, 51);
    let reference = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
    for kind in OrderingKind::ALL {
        let run = HestenesSvd::with_ordering(kind).compute_distributed(&a).unwrap();
        assert!(checks::spectrum_distance(&run.svd.sigma, &reference.svd.sigma) < 1e-9, "{kind}");
    }
}

#[test]
fn chaos_recovery_is_bitwise_across_orderings_and_world_sizes() {
    // random (seeded) fault plans × three orderings × P ∈ {2, 4, 8}: every
    // absorbable plan must reproduce the fault-free run bitwise
    let mut total_injected = 0u64;
    for kind in [OrderingKind::NewRing, OrderingKind::FatTree, OrderingKind::Hybrid] {
        for (n, seed) in [(4usize, 101u64), (8, 102), (16, 103)] {
            if kind == OrderingKind::Hybrid && n < 8 {
                continue; // the hybrid ordering needs at least two groups of 4
            }
            let a = generate::random_uniform(24, n, seed);
            let clean = HestenesSvd::with_ordering(kind).compute_distributed(&a).unwrap();
            let opts = SvdOptions::default()
                .with_ordering(kind)
                .with_chaos(seed ^ (n as u64) << 32)
                .with_recv_timeout(Duration::from_millis(10));
            let chaotic = with_watchdog(Duration::from_secs(120), move || {
                HestenesSvd::new(opts).compute_distributed(&a)
            })
            .unwrap();
            assert_eq!(clean.svd.sigma, chaotic.svd.sigma, "{kind} n={n}");
            assert_eq!(clean.svd.u, chaotic.svd.u, "{kind} n={n}");
            assert_eq!(clean.svd.v, chaotic.svd.v, "{kind} n={n}");
            let health = chaotic.health.expect("distributed runs report health");
            total_injected += health.faults.injected();
        }
    }
    assert!(total_injected > 0, "nine chaos plans injected nothing — the suite is vacuous");
}

#[test]
fn unabsorbable_fault_fails_fast_with_a_clean_error_not_a_hang() {
    // both directions of the rank 0 ↔ 1 link are poisoned and the ladder
    // is disabled: no retry budget can absorb that, so the run must
    // surface `SvdError::Unrecoverable` well inside the watchdog window
    let a = generate::random_uniform(16, 8, 104);
    let plan = FaultPlan::default().with_poisoned_link(0, 1).with_poisoned_link(1, 0);
    let policy = FaultPolicy {
        recv_timeout: Duration::from_millis(5),
        max_retries: 1,
        degrade: false,
        ..FaultPolicy::chaos()
    };
    let mut opts = SvdOptions::default().with_fault_policy(policy);
    opts.chaos = Some(plan);
    let err = with_watchdog(Duration::from_secs(60), move || {
        HestenesSvd::new(opts).compute_distributed(&a)
    })
    .expect_err("a fully poisoned link with no fallback cannot succeed");
    assert!(matches!(err, SvdError::Unrecoverable(_)), "{err:?}");
    let msg = err.to_string();
    for needle in ["unrecoverable", "rank", "sweep"] {
        assert!(msg.contains(needle), "diagnostic {msg:?} misses {needle:?}");
    }
}

#[test]
fn degradation_ladder_rescues_the_same_unabsorbable_fault() {
    // the identical poisoned-link plan, but with the ladder armed: the
    // supervisor must walk down to a rung that avoids the dead link (the
    // sequential fallback at worst) and still match the oracle bitwise
    let a = generate::random_uniform(16, 8, 104);
    let clean = HestenesSvd::new(SvdOptions::default()).compute_distributed(&a).unwrap();
    let plan = FaultPlan::default().with_poisoned_link(0, 1).with_poisoned_link(1, 0);
    let policy = FaultPolicy {
        recv_timeout: Duration::from_millis(5),
        max_retries: 1,
        max_restarts: 0,
        ..FaultPolicy::chaos()
    };
    let mut opts = SvdOptions::default().with_fault_policy(policy);
    opts.chaos = Some(plan);
    let rescued = with_watchdog(Duration::from_secs(120), move || {
        HestenesSvd::new(opts).compute_distributed(&a)
    })
    .unwrap();
    assert_eq!(clean.svd.sigma, rescued.svd.sigma);
    assert_eq!(clean.svd.u, rescued.svd.u);
    assert_eq!(clean.svd.v, rescued.svd.v);
    let health = rescued.health.expect("distributed runs report health");
    assert!(health.degraded(), "the ladder must have been used");
    assert!(!health.fallbacks.is_empty(), "at least one rung must have been abandoned");
}

#[test]
fn lstsq_normal_equations_consistency() {
    // the least-squares solution must satisfy Aᵀ(Ax − b) = 0
    let a = generate::random_uniform(20, 6, 53);
    let b: Vec<f64> = (0..20).map(|i| (i as f64).sin()).collect();
    let sol = lstsq(&a, &b, None).unwrap();
    let mut residual = b.clone();
    for (j, &xj) in sol.x.iter().enumerate() {
        treesvd_matrix::ops::axpy(-xj, a.col(j), &mut residual);
    }
    for j in 0..6 {
        let g = treesvd_matrix::ops::dot(a.col(j), &residual);
        assert!(g.abs() < 1e-9, "gradient component {j} = {g}");
    }
}

#[test]
fn ridge_interpolates_between_lstsq_and_zero() {
    let a = generate::with_singular_values(16, &[5.0, 1.0, 0.2], 54);
    let b: Vec<f64> = (0..16).map(|i| 1.0 / (i + 1) as f64).collect();
    let x_small = ridge(&a, &b, 1e-9).unwrap();
    let plain = lstsq(&a, &b, None).unwrap();
    for (x, y) in x_small.iter().zip(plain.x.iter()) {
        assert!((x - y).abs() < 1e-6);
    }
    let x_huge = ridge(&a, &b, 1e6).unwrap();
    assert!(treesvd_matrix::ops::norm2(&x_huge) < 1e-9);
}

#[test]
fn pinv_solves_like_lstsq() {
    let a = generate::random_uniform(14, 5, 55);
    let b: Vec<f64> = (0..14).map(|i| (i % 3) as f64).collect();
    let sol = lstsq(&a, &b, None).unwrap();
    let p = pseudoinverse(&a, None).unwrap();
    let mut x2 = vec![0.0; 5];
    for (j, &bj) in b.iter().enumerate() {
        treesvd_matrix::ops::axpy(bj, p.col(j), &mut x2);
    }
    for (x, y) in sol.x.iter().zip(x2.iter()) {
        assert!((x - y).abs() < 1e-9);
    }
}

#[test]
fn eigen_of_gram_matrix_matches_singular_values() {
    // eig(AᵀA) = σ² — ties the eigensolver to the SVD it is built on
    let sigma = [3.0, 2.0, 1.0];
    let a = generate::with_singular_values(10, &sigma, 56);
    let gram = a.transpose().matmul(&a).unwrap();
    // symmetrize exactly against rounding
    let n = gram.cols();
    let sym = Matrix::from_fn(n, n, |i, j| 0.5 * (gram.get(i, j) + gram.get(j, i))).unwrap();
    let eig = symmetric_eigen(&sym).unwrap();
    for (l, s) in eig.lambda.iter().zip(sigma.iter()) {
        assert!((l - s * s).abs() < 1e-9, "{l} vs {}", s * s);
    }
}

#[test]
fn pca_on_svd_consistent_variance() {
    // total PCA variance equals the per-feature variance sum
    let data = generate::random_uniform(40, 6, 57);
    let model = pca(&data).unwrap();
    let m = data.rows();
    let mut total_var = 0.0;
    for j in 0..6 {
        let col = data.col(j);
        let mean: f64 = col.iter().sum::<f64>() / m as f64;
        total_var += col.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (m - 1) as f64;
    }
    let pca_total: f64 = model.explained_variance.iter().sum();
    assert!((total_var - pca_total).abs() < 1e-9 * total_var);
}
