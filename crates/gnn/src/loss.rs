//! Softmax cross-entropy (negative log-likelihood) over node logits.

use crate::tensor::Matrix;

/// Row-wise softmax probabilities.
pub fn softmax(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    if out.cols() > 0 {
        for r in 0..out.rows() {
            softmax_row(out.row_mut(r));
        }
    }
    out
}

/// Turns one row of logits into probabilities, in place.
fn softmax_row(row: &mut [f32]) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in row.iter_mut() {
        *v /= sum;
    }
}

/// Mean negative log-likelihood of `targets` under `logits`; the gradient
/// w.r.t. the logits, scaled by `weight`, is written to `grad` (reusing
/// its allocation).
///
/// # Panics
///
/// Panics if `targets.len() != logits.rows()` or a target is out of range.
pub fn nll_loss(logits: &Matrix, targets: &[u32], weight: f32, grad: &mut Matrix) -> f32 {
    assert_eq!(targets.len(), logits.rows(), "one target per node");
    let n = logits.rows().max(1) as f32;
    grad.copy_from(logits);
    let mut loss = 0.0f64;
    for (r, &t) in targets.iter().enumerate() {
        let t = t as usize;
        assert!(t < logits.cols(), "target {t} out of range");
        let row = grad.row_mut(r);
        softmax_row(row);
        loss -= (row[t].max(1e-12) as f64).ln();
        row[t] -= 1.0;
        for v in row.iter_mut() {
            *v *= weight / n;
        }
    }
    (loss / n as f64) as f32 * weight
}

/// Fraction of rows whose argmax equals the target.
pub fn accuracy(logits: &Matrix, targets: &[u32]) -> f64 {
    if targets.is_empty() {
        return 1.0;
    }
    let correct = targets
        .iter()
        .enumerate()
        .filter(|&(r, &t)| argmax(logits.row(r)) == t as usize)
        .count();
    correct as f64 / targets.len() as f64
}

/// Index of the maximum element (first on ties).
pub fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let p = softmax(&logits);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        // softmax is monotone: ordering preserved
        assert!(p.get(0, 2) > p.get(0, 1) && p.get(0, 1) > p.get(0, 0));
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = Matrix::from_vec(1, 2, vec![1000.0, 1001.0]);
        let p = softmax(&a);
        assert!(p.get(0, 1) > p.get(0, 0));
        assert!(p.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn nll_gradient_direction() {
        let logits = Matrix::from_vec(1, 3, vec![0.0, 0.0, 0.0]);
        let mut grad = Matrix::default();
        let loss = nll_loss(&logits, &[1], 1.0, &mut grad);
        assert!((loss - (3.0f32).ln()).abs() < 1e-5);
        // Gradient pushes up the target (negative) and down the others.
        assert!(grad.get(0, 1) < 0.0);
        assert!(grad.get(0, 0) > 0.0 && grad.get(0, 2) > 0.0);
        // Gradient rows sum to ~0.
        let s: f32 = grad.row(0).iter().sum();
        assert!(s.abs() < 1e-6);
    }

    #[test]
    fn nll_weight_scales_gradient() {
        let logits = Matrix::from_vec(1, 2, vec![0.3, -0.2]);
        let (mut g1, mut g2) = (Matrix::default(), Matrix::default());
        let l1 = nll_loss(&logits, &[0], 1.0, &mut g1);
        let l2 = nll_loss(&logits, &[0], 0.5, &mut g2);
        assert!((l1 * 0.5 - l2).abs() < 1e-6);
        assert!((g1.get(0, 0) * 0.5 - g2.get(0, 0)).abs() < 1e-7);
    }

    /// Finite-difference check of d(loss)/d(logit).
    #[test]
    fn nll_gradcheck() {
        let logits = Matrix::from_vec(2, 3, vec![0.1, -0.4, 0.8, 0.0, 0.2, -0.1]);
        let targets = [2u32, 0u32];
        let (mut grad, mut unused) = (Matrix::default(), Matrix::default());
        nll_loss(&logits, &targets, 1.0, &mut grad);
        let eps = 1e-3;
        for (r, c) in [(0usize, 0usize), (0, 2), (1, 1)] {
            let mut plus = logits.clone();
            plus.set(r, c, logits.get(r, c) + eps);
            let lp = nll_loss(&plus, &targets, 1.0, &mut unused);
            let mut minus = logits.clone();
            minus.set(r, c, logits.get(r, c) - eps);
            let lm = nll_loss(&minus, &targets, 1.0, &mut unused);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad.get(r, c);
            assert!(
                (numeric - analytic).abs() < 1e-3,
                "({r},{c}): numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn accuracy_counts() {
        let logits = Matrix::from_vec(3, 2, vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4]);
        assert!((accuracy(&logits, &[0, 1, 0]) - 1.0).abs() < 1e-9);
        assert!((accuracy(&logits, &[1, 1, 0]) - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(accuracy(&logits, &[]), 1.0);
    }
}
