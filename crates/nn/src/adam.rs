//! The Adam optimizer.

/// First-moment decay β₁.
const BETA1: f32 = 0.9;
/// Second-moment decay β₂.
const BETA2: f32 = 0.999;
/// Denominator fuzz ε.
const EPSILON: f32 = 1e-8;

/// Adam optimizer state over a fixed set of parameter slots.
///
/// Moment buffers are allocated lazily on the first [`Adam::step`] call; the
/// slot structure (count and lengths) must stay identical across calls.
#[derive(Debug, Clone)]
pub(crate) struct Adam {
    learning_rate: f32,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    t: u64,
}

impl Adam {
    /// Creates an optimizer with step size `learning_rate`.
    pub(crate) fn new(learning_rate: f32) -> Self {
        Adam {
            learning_rate,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }

    /// Applies one Adam update to every `(param, grad)` slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot structure changes between calls.
    pub(crate) fn step(&mut self, slots: &mut [(&mut [f32], &[f32])]) {
        if self.m.is_empty() {
            self.m = slots.iter().map(|(p, _)| vec![0.0; p.len()]).collect();
            self.v = slots.iter().map(|(p, _)| vec![0.0; p.len()]).collect();
        }
        assert_eq!(self.m.len(), slots.len(), "slot count changed");
        self.t += 1;
        let lr = self.learning_rate;
        let bc1 = 1.0 - BETA1.powi(self.t as i32);
        let bc2 = 1.0 - BETA2.powi(self.t as i32);
        for (slot, (m, v)) in slots
            .iter_mut()
            .zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            let (params, grads) = slot;
            assert_eq!(params.len(), m.len(), "slot length changed");
            assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
            // Zipped slices, no indexing: without bounds checks in the body
            // LLVM emits vector div/sqrt. The per-element operation
            // sequence is part of the trained weights' bits — divide by the
            // bias corrections (no reciprocal), no `mul_add`.
            let moments = m.iter_mut().zip(v.iter_mut());
            for ((p, &g), (m, v)) in params.iter_mut().zip(grads.iter()).zip(moments) {
                *m = BETA1 * *m + (1.0 - BETA1) * g;
                *v = BETA2 * *v + (1.0 - BETA2) * g * g;
                let m_hat = *m / bc1;
                let v_hat = *v / bc2;
                *p -= lr * m_hat / (v_hat.sqrt() + EPSILON);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(x) = (x - 3)^2 with Adam.
    #[test]
    fn converges_on_quadratic() {
        let mut adam = Adam::new(0.1);
        let mut x = vec![0.0f32];
        for _ in 0..500 {
            let g = vec![2.0 * (x[0] - 3.0)];
            let mut slots = [(x.as_mut_slice(), g.as_slice())];
            adam.step(&mut slots);
        }
        assert!((x[0] - 3.0).abs() < 0.05, "x = {}", x[0]);
        assert_eq!(adam.t, 500);
    }

    #[test]
    fn handles_multiple_slots() {
        let mut adam = Adam::new(0.2);
        let mut a = vec![5.0f32, -5.0];
        let mut b = vec![1.0f32];
        for _ in 0..400 {
            let ga: Vec<f32> = a.iter().map(|&x| 2.0 * x).collect();
            let gb: Vec<f32> = b.iter().map(|&x| 2.0 * x).collect();
            let mut slots = [
                (a.as_mut_slice(), ga.as_slice()),
                (b.as_mut_slice(), gb.as_slice()),
            ];
            adam.step(&mut slots);
        }
        assert!(a.iter().all(|x| x.abs() < 0.05));
        assert!(b.iter().all(|x| x.abs() < 0.05));
    }

    #[test]
    fn first_step_moves_by_about_learning_rate() {
        // With bias correction, the first Adam step is ~lr in the gradient
        // direction regardless of gradient magnitude.
        let mut adam = Adam::new(0.01);
        let mut x = vec![1.0f32];
        let g = vec![1234.0f32];
        let mut slots = [(x.as_mut_slice(), g.as_slice())];
        adam.step(&mut slots);
        assert!((x[0] - (1.0 - 0.01)).abs() < 1e-4, "x = {}", x[0]);
    }

    #[test]
    fn zero_gradient_is_noop_at_start() {
        let mut adam = Adam::new(1e-2);
        let mut x = vec![2.5f32];
        let g = vec![0.0f32];
        let mut slots = [(x.as_mut_slice(), g.as_slice())];
        adam.step(&mut slots);
        assert_eq!(x[0], 2.5);
    }

    #[test]
    #[should_panic(expected = "slot count changed")]
    fn slot_count_change_panics() {
        let mut adam = Adam::new(1e-2);
        let mut x = vec![1.0f32];
        let g = vec![1.0f32];
        adam.step(&mut [(x.as_mut_slice(), g.as_slice())]);
        let mut y = vec![1.0f32];
        adam.step(&mut [
            (x.as_mut_slice(), g.as_slice()),
            (y.as_mut_slice(), g.as_slice()),
        ]);
    }
}
