//! Gamma and Dirichlet sampling.
//!
//! The synthetic corpus generator draws document–topic proportions
//! `θ_d ~ Dirichlet(α)` and topic–word distributions `φ_k ~ Dirichlet(β)`,
//! exactly as the LDA generative model assumes. A Dirichlet draw is a
//! normalised vector of independent Gamma draws, so all we need is a Gamma
//! sampler: we implement Marsaglia & Tsang's squeeze method (2000), which is
//! what `rand_distr` uses internally, to avoid an extra dependency.

use rand::Rng;

/// Draws one sample from `Gamma(shape, 1.0)`.
///
/// Uses Marsaglia–Tsang for `shape >= 1` and the standard boosting identity
/// `Gamma(a) = Gamma(a + 1) · U^{1/a}` for `shape < 1`.
///
/// # Panics
///
/// Panics if `shape` is not finite and positive.
pub(crate) fn sample_gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    assert!(
        shape.is_finite() && shape > 0.0,
        "gamma shape must be positive and finite, got {shape}"
    );
    if shape < 1.0 {
        // Boost: sample Gamma(shape + 1) and multiply by U^(1/shape).
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        return sample_gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Standard normal via Box-Muller (avoids needing rand_distr).
        let x = standard_normal(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v = v * v * v;
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let x2 = x * x;
        if u < 1.0 - 0.0331 * x2 * x2 {
            return d * v;
        }
        if u.ln() < 0.5 * x2 + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

/// Draws a standard normal variate using the Box–Muller transform.
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws from a symmetric `Dirichlet(alpha, …, alpha)` over `dim` categories.
///
/// # Panics
///
/// Panics if `dim == 0` or `alpha <= 0`.
pub(crate) fn sample_symmetric_dirichlet<R: Rng + ?Sized>(
    rng: &mut R,
    dim: usize,
    alpha: f64,
) -> Vec<f64> {
    assert!(dim > 0, "dirichlet dimension must be positive");
    sample_dirichlet(rng, &vec![alpha; dim])
}

/// Draws from `Dirichlet(alphas)`.
///
/// # Panics
///
/// Panics if `alphas` is empty or contains a non-positive entry.
pub(crate) fn sample_dirichlet<R: Rng + ?Sized>(rng: &mut R, alphas: &[f64]) -> Vec<f64> {
    assert!(
        !alphas.is_empty(),
        "dirichlet needs at least one concentration"
    );
    let mut draws: Vec<f64> = alphas.iter().map(|&a| sample_gamma(rng, a)).collect();
    let sum: f64 = draws.iter().sum();
    if sum <= 0.0 || !sum.is_finite() {
        // Extremely small concentrations can underflow; fall back to a
        // one-hot draw, which is the correct limit of a sparse Dirichlet.
        let hot = rng.gen_range(0..draws.len());
        for (i, d) in draws.iter_mut().enumerate() {
            *d = if i == hot { 1.0 } else { 0.0 };
        }
        return draws;
    }
    for d in &mut draws {
        *d /= sum;
    }
    draws
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gamma_mean_matches_shape() {
        let mut rng = StdRng::seed_from_u64(7);
        for &shape in &[0.3, 1.0, 2.5, 10.0] {
            let n = 20_000;
            let mean: f64 = (0..n).map(|_| sample_gamma(&mut rng, shape)).sum::<f64>() / n as f64;
            // Gamma(shape, 1) has mean = shape; allow 5% relative error.
            assert!(
                (mean - shape).abs() < 0.05 * shape.max(1.0),
                "shape {shape}: mean {mean}"
            );
        }
    }

    #[test]
    fn gamma_is_positive() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(sample_gamma(&mut rng, 0.05) > 0.0);
            assert!(sample_gamma(&mut rng, 5.0) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "shape must be positive")]
    fn gamma_rejects_nonpositive_shape() {
        sample_gamma(&mut rand::thread_rng(), 0.0);
    }

    #[test]
    fn dirichlet_sums_to_one_and_is_nonnegative() {
        let mut rng = StdRng::seed_from_u64(3);
        for &alpha in &[0.01, 0.1, 1.0, 50.0] {
            let v = sample_symmetric_dirichlet(&mut rng, 20, alpha);
            let sum: f64 = v.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "alpha {alpha} sum {sum}");
            assert!(v.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn dirichlet_concentration_controls_sparsity() {
        let mut rng = StdRng::seed_from_u64(11);
        // With a tiny alpha most mass concentrates on few entries; with a huge
        // alpha the distribution is near uniform. Compare max components.
        let sparse: f64 = (0..200)
            .map(|_| {
                sample_symmetric_dirichlet(&mut rng, 50, 0.01)
                    .into_iter()
                    .fold(0.0, f64::max)
            })
            .sum::<f64>()
            / 200.0;
        let flat: f64 = (0..200)
            .map(|_| {
                sample_symmetric_dirichlet(&mut rng, 50, 100.0)
                    .into_iter()
                    .fold(0.0, f64::max)
            })
            .sum::<f64>()
            / 200.0;
        assert!(sparse > 0.5, "sparse max component {sparse}");
        assert!(flat < 0.1, "flat max component {flat}");
    }

    #[test]
    fn asymmetric_dirichlet_follows_weights() {
        let mut rng = StdRng::seed_from_u64(5);
        let alphas = [10.0, 1.0, 1.0];
        let n = 5000;
        let mut mean = [0.0f64; 3];
        for _ in 0..n {
            let v = sample_dirichlet(&mut rng, &alphas);
            for i in 0..3 {
                mean[i] += v[i] / n as f64;
            }
        }
        // Expected means are alpha_i / sum = 10/12, 1/12, 1/12.
        assert!((mean[0] - 10.0 / 12.0).abs() < 0.02);
        assert!((mean[1] - 1.0 / 12.0).abs() < 0.02);
    }

    #[test]
    fn normal_has_zero_mean_unit_variance() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
