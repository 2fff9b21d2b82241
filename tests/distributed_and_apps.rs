//! Integration across the execution paths and application layer: the
//! simulated machine, the distributed message-passing machine, and the
//! blocked undersized-machine driver must all agree — and the apps built
//! on top must be internally consistent whichever path produced the SVD.

use treesvd_apps::{lstsq, pca, pseudoinverse, ridge, symmetric_eigen};
use treesvd_core::{blocked_svd, BlockedOptions, HestenesSvd, OrderingKind, SvdOptions};
use treesvd_matrix::{checks, generate, Matrix};

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
