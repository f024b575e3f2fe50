//! Statistics utilities: sampling, logistic model, calibration, summary
//! statistics and Welch's t-test.

use rng::SplitMix64;

/// The logistic function.
pub(crate) fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Draw one standard-normal sample (Box-Muller).
pub fn normal(rng: &mut SplitMix64) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Calibrate an item difficulty `d` by bisection so that the cohort's mean
/// passing probability `mean_i sigmoid(a_i - d)` equals `target`.
///
/// `target` is clamped to `[0.01, 0.99]`; abilities may be any reals.
pub(crate) fn calibrate_difficulty(abilities: &[f64], target: f64) -> f64 {
    assert!(!abilities.is_empty(), "need at least one student");
    let target = target.clamp(0.01, 0.99);
    let rate =
        |d: f64| abilities.iter().map(|a| sigmoid(a - d)).sum::<f64>() / abilities.len() as f64;
    let (mut lo, mut hi) = (-20.0, 20.0);
    for _ in 0..80 {
        let mid = (lo + hi) / 2.0;
        if rate(mid) > target {
            // Too easy: raise difficulty.
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo + hi) / 2.0
}

/// Sample mean (0.0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Unbiased sample standard deviation (0.0 for fewer than 2 points).
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Welch's t statistic and degrees of freedom for two samples.
pub fn welch_t(a: &[f64], b: &[f64]) -> (f64, f64) {
    let (ma, mb) = (mean(a), mean(b));
    let (va, vb) = (stddev(a).powi(2), stddev(b).powi(2));
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let se2 = va / na + vb / nb;
    if se2 == 0.0 {
        return (0.0, (na + nb - 2.0).max(1.0));
    }
    let t = (ma - mb) / se2.sqrt();
    let df = se2.powi(2)
        / ((va / na).powi(2) / (na - 1.0).max(1.0) + (vb / nb).powi(2) / (nb - 1.0).max(1.0));
    (t, df.max(1.0))
}

/// Draw a Likert response on `[lo, hi]` whose population mean is `mu`:
/// a normal around `mu` (sd `sigma`), rounded and clamped to the scale.
pub(crate) fn likert(rng: &mut SplitMix64, mu: f64, sigma: f64, lo: i32, hi: i32) -> i32 {
    let x = mu + sigma * normal(rng);
    (x.round() as i32).clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_shape() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(10.0) > 0.999);
        assert!(sigmoid(-10.0) < 0.001);
    }

    #[test]
    fn normal_moments() {
        let mut rng = SplitMix64::seed_from_u64(1);
        let xs: Vec<f64> = (0..20_000).map(|_| normal(&mut rng)).collect();
        assert!(mean(&xs).abs() < 0.03, "mean {}", mean(&xs));
        assert!((stddev(&xs) - 1.0).abs() < 0.03, "sd {}", stddev(&xs));
    }

    #[test]
    fn calibration_hits_target() {
        let mut rng = SplitMix64::seed_from_u64(7);
        let abilities: Vec<f64> = (0..19).map(|_| normal(&mut rng)).collect();
        for target in [0.39, 0.5, 0.67, 0.17, 0.8] {
            let d = calibrate_difficulty(&abilities, target);
            let achieved: f64 =
                abilities.iter().map(|a| sigmoid(a - d)).sum::<f64>() / abilities.len() as f64;
            assert!(
                (achieved - target).abs() < 1e-6,
                "target {target} achieved {achieved}"
            );
        }
    }

    #[test]
    fn calibration_extremes_clamped() {
        let abilities = vec![0.0; 5];
        let d_easy = calibrate_difficulty(&abilities, 1.5);
        let d_hard = calibrate_difficulty(&abilities, -0.5);
        assert!(d_easy < d_hard);
    }

    #[test]
    fn welch_detects_difference() {
        let a: Vec<f64> = (0..30).map(|i| 1.0 + (i % 3) as f64 * 0.1).collect();
        let b: Vec<f64> = (0..30).map(|i| 2.0 + (i % 3) as f64 * 0.1).collect();
        let (t, df) = welch_t(&a, &b);
        assert!(t < -10.0, "t {t}");
        assert!(df > 10.0);
        let (t0, _) = welch_t(&a, &a.clone());
        assert_eq!(t0, 0.0);
    }

    #[test]
    fn likert_respects_scale() {
        let mut rng = SplitMix64::seed_from_u64(3);
        for _ in 0..1000 {
            let v = likert(&mut rng, 2.0, 1.0, 1, 4);
            assert!((1..=4).contains(&v));
        }
        // Mean tracks mu when far from the boundaries.
        let xs: Vec<f64> = (0..5000)
            .map(|_| likert(&mut rng, 3.0, 0.8, 1, 5) as f64)
            .collect();
        assert!((mean(&xs) - 3.0).abs() < 0.1, "{}", mean(&xs));
    }

    #[test]
    fn summary_stats_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(stddev(&[1.0]), 0.0);
        assert!(
            (stddev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - (32.0f64 / 7.0).sqrt()).abs()
                < 1e-12
        );
    }
}
