//! The dense projection from the top LSTM layer onto signature logits.

use rand::Rng;
use rand_chacha::ChaCha12Rng;

use icsad_simd::{gemm_panels_acc_f32, PanelsF32};

use crate::tensor::{axpy, gemm_panels_acc, matvec_acc, outer_dense_acc, Tensor2, Weights};

/// A fully connected layer `y = W x + b`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    pub(crate) w: Weights,
    pub(crate) b: Vec<f32>,
}

/// Gradients mirroring a [`Dense`] layer.
#[derive(Debug, Clone)]
pub struct DenseGrad {
    pub(crate) w: Tensor2,
    pub(crate) b: Vec<f32>,
}

impl Dense {
    /// Creates a layer with uniform Xavier-style initialization.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(input_dim: usize, output_dim: usize, rng: &mut ChaCha12Rng) -> Self {
        assert!(
            input_dim > 0 && output_dim > 0,
            "dense dims must be positive"
        );
        let scale = (6.0 / (input_dim + output_dim) as f32).sqrt();
        let data = (0..input_dim * output_dim)
            .map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * scale)
            .collect();
        Dense {
            w: Weights::new(Tensor2::from_vec(input_dim, output_dim, data)),
            b: vec![0.0; output_dim],
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.w.cols()
    }

    /// Number of learnable parameters.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Zero gradients shaped like this layer.
    pub(crate) fn zero_grad(&self) -> DenseGrad {
        DenseGrad {
            w: Tensor2::zeros(self.w.rows(), self.w.cols()),
            b: vec![0.0; self.b.len()],
        }
    }

    /// Computes `out = W x + b`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn forward(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(out.len(), self.b.len(), "dense output length mismatch");
        out.copy_from_slice(&self.b);
        matvec_acc(&self.w, x, out);
    }

    /// Batched projection: computes `out[b] = W x[b] + b` for every lane of
    /// a `batch x input_dim` block into a `batch x output_dim` block, as one
    /// register-blocked matrix–matrix product (the projection input is a
    /// dense hidden activation) over the weights' panel-major copy
    /// ([`crate::tensor::Weights::panels`], packed on first use). Results
    /// compare equal to per-lane [`Dense::forward`]. Inference and the
    /// training forward pass both call this.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn forward_batch(&self, batch: usize, x: &[f32], out: &mut [f32]) {
        let n = self.b.len();
        assert_eq!(out.len(), batch * n, "dense batch output mismatch");
        for row in out.chunks_exact_mut(n) {
            row.copy_from_slice(&self.b);
        }
        gemm_panels_acc(batch, x, &self.w, out);
    }

    /// Accumulates parameter gradients and writes the input gradient for a
    /// whole batch of rows at once.
    ///
    /// `x` is the `batch x input_dim` activation block, `dy` the
    /// `batch x output_dim` logits-gradient block, `wt` the panels of
    /// `self.w` transposed (see [`crate::model::BackwardPack`]), and `dx`
    /// receives `dY Wᵀ` (overwritten, not accumulated). Parameter
    /// gradients run as single batched kernels — `dW += Xᵀ dY` (dense: `x`
    /// is a hidden activation, transposed into the pooled `xt`) and the
    /// bias row-sum — streaming the weight matrix once per batch.
    #[allow(clippy::too_many_arguments, reason = "operands, sinks and scratch")]
    pub(crate) fn backward_batch(
        &self,
        batch: usize,
        x: &[f32],
        dy: &[f32],
        wt: &PanelsF32,
        grad: &mut DenseGrad,
        dx: &mut [f32],
        xt: &mut Vec<f32>,
    ) {
        outer_dense_acc(batch, x, dy, &mut grad.w, xt);
        // a = 1.0 keeps fused and plain accumulation bitwise identical.
        for row in dy.chunks_exact(self.b.len()) {
            axpy(1.0, row, &mut grad.b);
        }
        dx.fill(0.0);
        gemm_panels_acc_f32(batch, dy, wt, dx);
    }
}

impl DenseGrad {
    pub(crate) fn add_assign(&mut self, other: &DenseGrad) {
        self.w.add_assign(&other.w);
        for (a, b) in self.b.iter_mut().zip(other.b.iter()) {
            *a += b;
        }
    }

    pub(crate) fn zero(&mut self) {
        self.w.zero();
        self.b.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand_chacha::rand_core::SeedableRng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(2)
    }

    #[test]
    fn forward_matches_manual() {
        let mut d = Dense::new(2, 3, &mut rng());
        d.w = Weights::new(Tensor2::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        d.b = vec![0.5, 0.5, 0.5];
        let mut out = vec![0.0; 3];
        d.forward(&[1.0, 2.0], &mut out);
        assert_eq!(out, vec![9.5, 12.5, 15.5]);
    }

    #[test]
    fn gradient_check() {
        let mut d = Dense::new(3, 2, &mut rng());
        let x = vec![0.3f32, -0.7, 1.1];
        // Loss = 0.5 |y|^2  =>  dy = y.
        let loss = |d: &Dense| {
            let mut y = vec![0.0; 2];
            d.forward(&x, &mut y);
            0.5 * y.iter().map(|v| v * v).sum::<f32>()
        };
        let mut y = vec![0.0; 2];
        d.forward(&x, &mut y);
        let mut grad = d.zero_grad();
        let mut dx = vec![0.0; 3];
        let wt = PanelsF32::pack_transposed(d.w.as_slice(), 3, 2);
        d.backward_batch(1, &x, &y, &wt, &mut grad, &mut dx, &mut Vec::new());

        let eps = 1e-2f32;
        for idx in 0..d.w.len() {
            let orig = d.w.as_slice()[idx];
            d.w.as_mut_slice()[idx] = orig + eps;
            let lp = loss(&d);
            d.w.as_mut_slice()[idx] = orig - eps;
            let lm = loss(&d);
            d.w.as_mut_slice()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad.w.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 1e-2 * (1.0 + numeric.abs()),
                "w[{idx}]: {numeric} vs {analytic}"
            );
        }
        // Input gradient by finite differences.
        for i in 0..3 {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let lossx = |xv: &[f32]| {
                let mut y = vec![0.0; 2];
                d.forward(xv, &mut y);
                0.5 * y.iter().map(|v| v * v).sum::<f32>()
            };
            let numeric = (lossx(&xp) - lossx(&xm)) / (2.0 * eps);
            assert!(
                (numeric - dx[i]).abs() < 1e-2 * (1.0 + numeric.abs()),
                "dx[{i}]: {numeric} vs {}",
                dx[i]
            );
        }
    }

    #[test]
    fn param_count() {
        let d = Dense::new(4, 7, &mut rng());
        assert_eq!(d.param_count(), 4 * 7 + 7);
    }

    #[test]
    fn forward_batch_matches_per_lane_forward_bitwise() {
        let d = Dense::new(37, 11, &mut rng());
        let lanes = 5usize;
        let xs: Vec<f32> = (0..lanes * 37)
            .map(|i| match i % 3 {
                0 => 0.0,
                1 => 1.0,
                _ => ((i * 31 % 97) as f32 - 48.0) / 11.0,
            })
            .collect();
        let mut batched = vec![0.0f32; lanes * 11];
        d.forward_batch(lanes, &xs, &mut batched);
        let mut single = vec![0.0f32; 11];
        for lane in 0..lanes {
            d.forward(&xs[lane * 37..(lane + 1) * 37], &mut single);
            assert_eq!(
                &batched[lane * 11..(lane + 1) * 11],
                single.as_slice(),
                "lane {lane}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "dims must be positive")]
    fn zero_dims_panic() {
        Dense::new(0, 1, &mut rng());
    }
}
