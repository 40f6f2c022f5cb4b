//! The Adam optimiser (Kingma & Ba) over flat parameter slices.

/// Adam state: first/second moment estimates per parameter tensor.
#[derive(Clone, Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates an optimiser with the given learning rate and default betas
    /// `(0.9, 0.999)`.
    pub fn new(lr: f32) -> Adam {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update step. `tensors` is handed an `update(parameters,
    /// gradients)` callback and calls it once per parameter tensor, in the
    /// same order on every step.
    ///
    /// Moment buffers are allocated on the first step; the number and
    /// shapes of tensors must stay identical across steps.
    ///
    /// # Panics
    ///
    /// Panics if the tensor list changes shape between steps.
    pub fn step(&mut self, tensors: impl FnOnce(&mut dyn FnMut(&mut [f32], &[f32]))) {
        self.t += 1;
        let Adam {
            lr,
            beta1,
            beta2,
            eps,
            t,
            ref mut m,
            ref mut v,
        } = *self;
        let bc1 = 1.0 - beta1.powi(t);
        let bc2 = 1.0 - beta2.powi(t);
        let mut i = 0;
        tensors(&mut |param, grad| {
            if t == 1 {
                m.push(vec![0.0; param.len()]);
                v.push(vec![0.0; param.len()]);
            }
            assert!(i < m.len(), "parameter tensor count changed");
            assert_eq!(param.len(), grad.len());
            assert_eq!(param.len(), m[i].len(), "tensor {i} changed size");
            let moments = m[i].iter_mut().zip(v[i].iter_mut());
            for ((p, &g), (m, v)) in param.iter_mut().zip(grad).zip(moments) {
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                let m_hat = *m / bc1;
                let v_hat = *v / bc2;
                *p -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            i += 1;
        });
        assert_eq!(i, m.len(), "parameter tensor count changed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adam must descend a simple quadratic: f(x) = (x - 3)^2.
    #[test]
    fn minimises_quadratic() {
        let mut x = vec![0.0f32];
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            let grad = vec![2.0 * (x[0] - 3.0)];
            opt.step(|update| update(&mut x, &grad));
        }
        assert!((x[0] - 3.0).abs() < 0.05, "x = {}", x[0]);
    }

    /// Two tensors with different shapes update independently.
    #[test]
    fn multi_tensor_updates() {
        let mut a = vec![1.0f32, -1.0];
        let mut b = vec![5.0f32];
        let mut opt = Adam::new(0.05);
        for _ in 0..800 {
            let ga: Vec<f32> = a.iter().map(|x| 2.0 * x).collect(); // min at 0
            let gb: Vec<f32> = b.iter().map(|x| 2.0 * (x - 2.0)).collect(); // min at 2
            opt.step(|update| {
                update(&mut a, &ga);
                update(&mut b, &gb);
            });
        }
        assert!(a.iter().all(|x| x.abs() < 0.05), "{a:?}");
        assert!((b[0] - 2.0).abs() < 0.05, "{b:?}");
    }

    #[test]
    fn first_step_magnitude_close_to_lr() {
        // With bias correction, the first step has magnitude ~lr.
        let mut x = vec![0.0f32];
        let mut opt = Adam::new(0.01);
        opt.step(|update| update(&mut x, &[1.0]));
        assert!((x[0] + 0.01).abs() < 1e-4, "{}", x[0]);
    }
}
