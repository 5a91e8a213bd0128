//! The dense projection from the top LSTM layer onto signature logits.

use rand::Rng;
use rand_chacha::ChaCha12Rng;

use icsad_simd::gemm_panels_bias_f32;

use crate::tensor::{Tensor2, Weights};

/// A fully connected layer `y = W x + b`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Dense {
    pub(crate) w: Weights,
    pub(crate) b: Vec<f32>,
}

/// Gradients mirroring a [`Dense`] layer.
#[derive(Debug, Clone)]
pub(crate) struct DenseGrad {
    pub(crate) w: Tensor2,
    pub(crate) b: Vec<f32>,
}

impl Dense {
    /// Creates a layer with uniform Xavier-style initialization.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub(crate) fn new(input_dim: usize, output_dim: usize, rng: &mut ChaCha12Rng) -> Self {
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

    /// Number of learnable parameters.
    pub(crate) fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Zero gradients shaped like this layer.
    pub(crate) fn zero_grad(&self) -> DenseGrad {
        DenseGrad {
            w: Tensor2::zeros(self.w.rows(), self.w.cols()),
            b: vec![0.0; self.b.len()],
        }
    }

    /// Batched projection: computes `out[b] = W x[b] + b` for every lane of
    /// a `batch x input_dim` block into a `batch x output_dim` block, as one
    /// register-blocked matrix–matrix product (the projection input is a
    /// dense hidden activation) over the weights' panel-major copy
    /// ([`crate::tensor::Weights::panels`], packed on first use), its
    /// accumulators started from the bias. Inference calls it; training's
    /// head is one fused pass ([`icsad_simd::softmax_head_f32`]) whose
    /// logits run the same chain — the bias, then ascending `k`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub(crate) fn forward_batch(&self, batch: usize, x: &[f32], out: &mut [f32]) {
        let n = self.b.len();
        assert_eq!(out.len(), batch * n, "dense batch output mismatch");
        gemm_panels_bias_f32(batch, x, self.w.panels(), &self.b, out);
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
impl Dense {
    /// The head's per-record reference: `out = W x + b` for one row, by the
    /// scalar loop [`crate::tensor::reference_row`] started from the bias —
    /// not the panel product [`Dense::forward_batch`] runs, so the two
    /// check each other.
    pub(crate) fn forward(&self, x: &[f32], out: &mut [f32]) {
        out.copy_from_slice(&crate::tensor::reference_row(x, &self.w, &self.b));
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
    fn param_count() {
        let d = Dense::new(4, 7, &mut rng());
        assert_eq!(d.param_count(), 4 * 7 + 7);
    }

    #[test]
    fn forward_batch_matches_per_lane_forward_bitwise() {
        let mut d = Dense::new(37, 11, &mut rng());
        // A bias that is not zero, and an output block that is not zero,
        // so a product that drops the bias shows.
        d.b = (0..11).map(|j| j as f32 * 0.25 - 1.0).collect();
        let lanes = 5usize;
        let xs: Vec<f32> = (0..lanes * 37)
            .map(|i| match i % 3 {
                0 => 0.0,
                1 => 1.0,
                _ => ((i * 31 % 97) as f32 - 48.0) / 11.0,
            })
            .collect();
        let mut batched = vec![f32::NAN; lanes * 11];
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
