//! SIMD ≡ scalar bitwise-parity suite.
//!
//! Every kernel is driven through every backend this CPU supports, at odd
//! batch sizes and remainder-heavy widths (`1 ..= 3×16 + 1` spans one to
//! three vectors of the widest backend, ± ragged tails), and the results
//! are compared **bitwise** against the scalar backend under the same FMA
//! policy. This is the contract the whole numeric stack leans on: the
//! dispatcher may pick any backend at startup without changing a single
//! decision bit.

use icsad_simd::{
    col_sum_acc_f32_with, gemm_dense_acc_f32_with, gemm_panels_acc_f32, gemm_panels_acc_f32_with,
    gemm_panels_bias_f32_with, lstm_backward_rows_f32_with, lstm_cell_f32_with, lstm_rows_f32_with,
    onehot_bias_f32_with, onehot_outer_acc_f32_with, outer_dense_acc_f32_with,
    rank_panels_f32_with, softmax_head_f32_with, supported_selections, Backend, Buckets, HeadGrads,
    HeadScratch, PanelsF32, Selection,
};
use proptest::prelude::*;

/// Interprets selector bytes as a value stream with exact zeros and ones
/// mixed in.
fn mix(selectors: &[u8], raw: &[f32]) -> Vec<f32> {
    selectors
        .iter()
        .zip(raw.iter())
        .map(|(&s, &r)| match s % 5 {
            0 => 0.0,
            1 => 1.0,
            _ => r,
        })
        .collect()
}

/// The non-scalar selections to check, each paired with its scalar
/// reference (same FMA policy).
fn pairs() -> Vec<(Selection, Selection)> {
    supported_selections()
        .into_iter()
        .filter(|sel| sel.backend != Backend::Scalar)
        .map(|sel| {
            (
                sel,
                Selection {
                    backend: Backend::Scalar,
                    fma: sel.fma,
                },
            )
        })
        .collect()
}

/// Every element of `got` equals `want` in all 32 bits, except that two
/// NaNs match whatever their sign and payload. When a chain adds a NaN
/// operand to the default NaN of `inf·0`, which one survives depends on
/// the operand order of the `fadd`, which LLVM may commute: Rust leaves
/// the sign and payload of such a result unspecified (RFC 3514), and an
/// optimized build does differ from a debug build there.
fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        if g.is_nan() && w.is_nan() {
            continue;
        }
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {i} diverges ({g} vs {w})"
        );
    }
}

/// Runs the gate-and-cell kernel over `z` (`rows × 4hd`) from cells `c0`
/// and returns its outputs: the activated `z`, `c`, `h` and `tanh(c)`.
fn gate_rows(sel: Selection, hd: usize, z: &[f32], c0: &[f32]) -> [Vec<f32>; 4] {
    let mut z = z.to_vec();
    let mut c = c0.to_vec();
    let mut h = vec![0.0f32; c0.len()];
    let mut tc = vec![0.0f32; c0.len()];
    lstm_rows_f32_with(sel, hd, &mut z, &mut c, &mut h, Some(&mut tc));
    [z, c, h, tc]
}

proptest! {
    #[test]
    fn gemm_dense_acc_matches_scalar_bitwise(
        batch in 1usize..=13,
        k_dim in 1usize..=49,
        n in 1usize..=49,
        sx in proptest::collection::vec(0u8..=255, batch * k_dim),
        rx in proptest::collection::vec(-8f32..8.0, batch * k_dim),
        sw in proptest::collection::vec(0u8..=255, k_dim * n),
        rw in proptest::collection::vec(-8f32..8.0, k_dim * n),
        y0 in proptest::collection::vec(-4f32..4.0, batch * n),
    ) {
        let x = mix(&sx, &rx);
        let w = mix(&sw, &rw);
        for (sel, scalar) in pairs() {
            let mut got = y0.clone();
            gemm_dense_acc_f32_with(sel, batch, &x, k_dim, &w, n, &mut got);
            let mut want = y0.clone();
            gemm_dense_acc_f32_with(scalar, batch, &x, k_dim, &w, n, &mut want);
            assert_bits_eq(&got, &want, sel.label());
        }
    }

    /// The gate-and-cell kernel's activated `z` (sigmoid on `i`, `f`, `o`,
    /// tanh on `g`), cells, hidden rows and cached `tanh(c)`, with the
    /// non-finite specials of the NaN-propagation contract spliced in.
    #[test]
    fn activations_match_scalar_bitwise(
        hd in 1usize..=49,
        rows in 1usize..=3,
        raw in proptest::collection::vec(-90f32..90.0, 3 * 4 * 49),
        special in proptest::collection::vec(0u8..=255, 3 * 4 * 49),
        c0 in proptest::collection::vec(-2f32..2.0, 3 * 49),
    ) {
        let len = rows * 4 * hd;
        let z: Vec<f32> = raw[..len]
            .iter()
            .zip(&special[..len])
            .map(|(&r, &s)| match s % 11 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                _ => r,
            })
            .collect();
        let c0 = &c0[..rows * hd];
        for (sel, scalar) in pairs() {
            let got = gate_rows(sel, hd, &z, c0);
            let want = gate_rows(scalar, hd, &z, c0);
            for (g, w) in got.iter().zip(want.iter()) {
                assert_bits_eq(g, w, sel.label());
            }
        }
    }

    #[test]
    fn lstm_cell_matches_scalar_bitwise(
        hd in 1usize..=49,
        gates in proptest::collection::vec(-1f32..1.0, 4 * hd),
        c0 in proptest::collection::vec(-2f32..2.0, hd),
    ) {
        let (i_g, rest) = gates.split_at(hd);
        let (f_g, rest) = rest.split_at(hd);
        let (o_g, g_g) = rest.split_at(hd);
        for (sel, scalar) in pairs() {
            let mut c_got = c0.clone();
            let mut h_got = vec![0.0f32; hd];
            let mut tc_got = vec![0.0f32; hd];
            lstm_cell_f32_with(sel, i_g, f_g, o_g, g_g, &mut c_got, &mut h_got, Some(&mut tc_got));
            let mut c_want = c0.clone();
            let mut h_want = vec![0.0f32; hd];
            let mut tc_want = vec![0.0f32; hd];
            lstm_cell_f32_with(
                scalar, i_g, f_g, o_g, g_g, &mut c_want, &mut h_want, Some(&mut tc_want),
            );
            assert_bits_eq(&c_got, &c_want, sel.label());
            assert_bits_eq(&h_got, &h_want, sel.label());
            assert_bits_eq(&tc_got, &tc_want, sel.label());
            // The no-tc variant computes the same cell and hidden state.
            let mut c_no = c0.clone();
            let mut h_no = vec![0.0f32; hd];
            lstm_cell_f32_with(sel, i_g, f_g, o_g, g_g, &mut c_no, &mut h_no, None);
            assert_bits_eq(&c_no, &c_got, "no-tc cell");
            assert_bits_eq(&h_no, &h_got, "no-tc hidden");
        }
    }
}

/// The satellite fix this layer exists for: on FMA hardware, a binary
/// compiled *without* `target-feature=+fma` must not diverge between the
/// scalar path and the FMA vector backends. The fused scalar policy goes
/// through `mul_add` (libm on such builds) and must reproduce the hardware
/// FMA bit-for-bit — while the two *policies* genuinely differ, which is
/// exactly why the policy has to travel with the dispatched backend
/// instead of with `cfg!(target_feature = "fma")`.
#[test]
fn fma_policy_is_explicit_and_scalar_reproduces_it() {
    // acc + x*x where the square needs the extra rounding: (1+2^-12)² =
    // 1 + 2^-11 + 2^-24, whose tail is beyond the f32 mantissa; a fused
    // accumulate with acc = 2^-25 rounds differently from mul-then-add.
    let x = [1.0f32 + 2f32.powi(-12)];
    let acc0 = 2f32.powi(-25);

    let scalar_plain = Selection {
        backend: Backend::Scalar,
        fma: false,
    };
    let scalar_fused = Selection {
        backend: Backend::Scalar,
        fma: true,
    };
    // One `fmac` step of the dense product: `acc0 + x·x`.
    let step = |sel| -> f32 {
        let mut y = [acc0];
        gemm_dense_acc_f32_with(sel, 1, &x, 1, &x, 1, &mut y);
        y[0]
    };
    let (plain, fused) = (step(scalar_plain), step(scalar_fused));
    assert_eq!(plain.to_bits(), (acc0 + x[0] * x[0]).to_bits());
    assert_eq!(fused.to_bits(), x[0].mul_add(x[0], acc0).to_bits());
    assert_ne!(
        plain.to_bits(),
        fused.to_bits(),
        "the two FMA policies must be distinguishable on this input"
    );

    // Every supported backend agrees with the scalar run of its policy —
    // in particular avx2+fma / avx512+fma against mul_add-based scalar.
    for (sel, scalar) in pairs() {
        assert_eq!(
            step(sel).to_bits(),
            step(scalar).to_bits(),
            "{}",
            sel.label()
        );
    }
}

/// Shapes for the panel-gemm grid: column counts on both sides of the
/// 32-column panel and of every backend's register tile (169 and 379 are
/// the ledger workloads' head widths), batch sizes on both sides of the
/// 4-row and the 8-row (AVX-512) tile — 12, 13 and 17 mix 8-row, 4-row
/// and single-row tiles in one call — and depths from a single `k` to the
/// paper's 256. Interpreted runs keep one shape per code path.
#[cfg(not(miri))]
const GRID: (&[usize], &[usize], &[usize]) = (
    &[1, 8, 31, 32, 33, 49, 169, 379],
    &[1, 3, 4, 5, 7, 8, 9, 12, 13, 17, 96],
    &[1, 8, 49, 256],
);
#[cfg(miri)]
const GRID: (&[usize], &[usize], &[usize]) = (&[1, 33, 49], &[1, 5], &[1, 8]);

/// Deterministic operand values with exact zeros and ones mixed in.
fn operand(len: usize, salt: u32) -> Vec<f32> {
    let mut state = salt.wrapping_mul(0x9E37_79B9) | 1;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            match state >> 29 {
                0 => 0.0,
                1 => 1.0,
                _ => ((state >> 8) as f32 / (1u32 << 24) as f32 - 0.5) * 4.0,
            }
        })
        .collect()
}

/// `y0 + xᵀ·W` the way the contract states it — one ascending-`k` chain
/// per output element under the given FMA policy — sharing no code with
/// the kernels.
fn reference_gemm(
    fma: bool,
    batch: usize,
    x: &[f32],
    k_dim: usize,
    w: &[f32],
    n: usize,
    y0: &[f32],
) -> Vec<f32> {
    let mut y = y0.to_vec();
    for b in 0..batch {
        for j in 0..n {
            let mut acc = y[b * n + j];
            for k in 0..k_dim {
                let (xv, wv) = (x[b * k_dim + k], w[k * n + j]);
                acc = if fma {
                    xv.mul_add(wv, acc)
                } else {
                    acc + xv * wv
                };
            }
            y[b * n + j] = acc;
        }
    }
    y
}

/// Pre-packed ≡ per-call-pack ≡ scalar, bitwise, on every supported
/// selection over the whole shape grid.
#[test]
fn panel_gemm_entries_agree_with_the_reference_bitwise() {
    let (ns, batches, ks) = GRID;
    for &n in ns {
        for &k_dim in ks {
            let w = operand(k_dim * n, 1);
            let panels = PanelsF32::pack(&w, k_dim, n);
            for &batch in batches {
                let x = operand(batch * k_dim, 2);
                let y0 = operand(batch * n, 3);
                let want =
                    [false, true].map(|fma| reference_gemm(fma, batch, &x, k_dim, &w, n, &y0));
                for sel in supported_selections() {
                    let what = format!("{} {batch}x{k_dim}x{n}", sel.label());
                    let want = &want[usize::from(sel.fma)];
                    let mut got = y0.clone();
                    gemm_panels_acc_f32_with(sel, batch, &x, &panels, &mut got);
                    assert_bits_eq(&got, want, &format!("pre-packed {what}"));
                    let mut got = y0.clone();
                    gemm_dense_acc_f32_with(sel, batch, &x, k_dim, &w, n, &mut got);
                    assert_bits_eq(&got, want, &format!("per-call pack {what}"));
                }
            }
        }
    }
}

/// The panel layout does not depend on the dispatched backend: panels
/// packed once (under whatever selection is current) serve every backend
/// `force` can install afterwards. The only test in this binary that
/// touches the process-wide selection; every other one passes its
/// selection explicitly.
#[test]
fn panels_packed_once_serve_every_forced_backend() {
    let (batch, k_dim, n) = (5, 49, 169);
    let w = operand(k_dim * n, 4);
    let x = operand(batch * k_dim, 5);
    let panels = PanelsF32::pack(&w, k_dim, n);
    let y0 = operand(batch * n, 3);
    for sel in supported_selections() {
        assert_eq!(icsad_simd::force(sel), sel);
        let mut got = y0.clone();
        gemm_panels_acc_f32(batch, &x, &panels, &mut got);
        let want = reference_gemm(sel.fma, batch, &x, k_dim, &w, n, &y0);
        assert_bits_eq(&got, &want, sel.label());
    }
    icsad_simd::reset();
}

/// Padded columns never reach `y`. Row by row, each output row sits in a
/// wider buffer whose bytes past the row's `n` valid columns are poisoned,
/// the kernel is handed exactly the row, and the poison must survive — on
/// ragged widths the register tile is wider than what it may store. In one
/// call over the whole batch the rows are contiguous, so a padding lane
/// stored past row `b` would overwrite row `b + 1`'s first columns and
/// fail the value check. 13 rows run an 8-row tile (AVX-512), a 4-row
/// tile and a single row; 5 rows a 4-row tile and a single row.
#[test]
fn padded_columns_never_reach_y() {
    const POISON: u32 = 0x7fc0_dead;
    let k_dim = 8;
    for batch in [5usize, 13] {
        for n in [1usize, 9, 31, 33, 49] {
            let stride = n + 32;
            let w = operand(k_dim * n, 6);
            let x = operand(batch * k_dim, 7);
            let panels = PanelsF32::pack(&w, k_dim, n);
            for sel in supported_selections() {
                let what = format!("{} {batch}x{k_dim}x{n}", sel.label());
                let y0 = operand(batch * n, 3);
                let want = reference_gemm(sel.fma, batch, &x, k_dim, &w, n, &y0);
                for pre_packed in [true, false] {
                    let gemm = |rows: usize, x: &[f32], y: &mut [f32]| {
                        if pre_packed {
                            gemm_panels_acc_f32_with(sel, rows, x, &panels, y);
                        } else {
                            gemm_dense_acc_f32_with(sel, rows, x, k_dim, &w, n, y);
                        }
                    };
                    let mut buf = vec![f32::from_bits(POISON); batch * stride];
                    for b in 0..batch {
                        let row = &mut buf[b * stride..b * stride + n];
                        row.copy_from_slice(&y0[b * n..(b + 1) * n]);
                        gemm(1, &x[b * k_dim..(b + 1) * k_dim], row);
                    }
                    for b in 0..batch {
                        let (row, pad) = buf[b * stride..(b + 1) * stride].split_at(n);
                        assert_bits_eq(row, &want[b * n..(b + 1) * n], &what);
                        assert!(
                            pad.iter().all(|v| v.to_bits() == POISON),
                            "{what} row {b}: padding leaked into y"
                        );
                    }
                    let mut got = y0.clone();
                    gemm(batch, &x, &mut got);
                    assert_bits_eq(&got, &want, &format!("one call {what}"));
                }
            }
        }
    }
}

/// Row-major transpose of a `rows × cols` matrix.
fn transposed(w: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut wt = vec![0.0f32; w.len()];
    for (i, row) in w.chunks_exact(cols).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            wt[j * rows + i] = v;
        }
    }
    wt
}

/// The BPTT data-gradient operand: panels of `Wᵀ` packed straight from the
/// row-major `W` are the panels of an explicitly transposed copy, and
/// `dX += dY·Wᵀ` over them is the reference chain on every selection.
#[test]
fn transposed_panels_match_an_explicit_transpose_bitwise() {
    let (ns, batches, ks) = GRID;
    // `W` is `in_dim × n`; the backward operand `Wᵀ` is `n × in_dim`.
    for &in_dim in ns {
        for &n in ks {
            let w = operand(in_dim * n, 8);
            let wt = transposed(&w, in_dim, n);
            let panels = PanelsF32::pack_transposed(&w, in_dim, n);
            assert_eq!(panels, PanelsF32::pack(&wt, n, in_dim), "{in_dim}x{n}");
            for &batch in batches {
                let dy = operand(batch * n, 9);
                let dx0 = operand(batch * in_dim, 3);
                let want =
                    [false, true].map(|fma| reference_gemm(fma, batch, &dy, n, &wt, in_dim, &dx0));
                for sel in supported_selections() {
                    let mut got = dx0.clone();
                    gemm_panels_acc_f32_with(sel, batch, &dy, &panels, &mut got);
                    let what = format!("{} {batch}x{n}x{in_dim}", sel.label());
                    assert_bits_eq(&got, &want[usize::from(sel.fma)], &what);
                }
            }
        }
    }
}

/// Shapes for the weight-gradient grid `dW (k_dim × n) += Xᵀ·dY` over
/// `batch` rows: the ledger models' input and hidden widths, gate widths on
/// both sides of a panel, and batch sizes from one row to a whole 8-lane ×
/// 32-step gradient task.
#[cfg(not(miri))]
const OUTER_GRID: (&[usize], &[usize], &[usize]) = (
    &[1, 8, 169, 256],
    &[8, 31, 32, 33, 169, 379, 1024],
    &[1, 3, 8, 256],
);
#[cfg(miri)]
const OUTER_GRID: (&[usize], &[usize], &[usize]) = (&[1, 5], &[8, 33], &[1, 3]);

/// The BPTT weight gradient for dense activations: `outer_dense_acc_f32`,
/// reading `X`'s rows where they lie, equals the dense gemm over an
/// explicit `Xᵀ` with `dY` as its per-call-packed operand and an
/// independent ascending-`b` chain, bitwise, on every selection. The
/// rows come once as one block, and once scattered through a larger block
/// in reverse order with every third row a shared zero row — the shape of
/// the recurrent gradient's previous hidden rows — each through a pack
/// buffer left dirty by the call before.
#[test]
fn dense_outer_product_matches_the_reference_bitwise() {
    let (ks, ns, batches) = OUTER_GRID;
    let mut pack = vec![f32::NAN; 7];
    for &k_dim in ks {
        let zero = vec![0.0f32; k_dim];
        for &n in ns {
            let dw0 = operand(k_dim * n, 10);
            for &batch in batches {
                let x = operand(batch * k_dim, 11);
                // Row `b` of `x` sits at row `batch - b` of `block`, and
                // every third row is the zero row instead.
                let block = operand((batch + 1) * k_dim, 11);
                let rows = |b: usize| match b % 3 {
                    2 => &zero[..],
                    _ => &block[(batch - b) * k_dim..(batch - b + 1) * k_dim],
                };
                let scattered: Vec<f32> = (0..batch).flat_map(rows).copied().collect();
                let dy = operand(batch * n, 12);
                let reference = |x: &[f32]| {
                    let xt = transposed(x, batch, k_dim);
                    [false, true].map(|fma| reference_gemm(fma, k_dim, &xt, batch, &dy, n, &dw0))
                };
                let (want, want_scattered) = (reference(&x), reference(&scattered));
                let xt = transposed(&x, batch, k_dim);
                for sel in supported_selections() {
                    let what = format!("{} {k_dim}x{n} over {batch}", sel.label());
                    let want = &want[usize::from(sel.fma)];
                    let mut rows_in_place = dw0.clone();
                    let x_rows = x.chunks_exact(k_dim);
                    outer_dense_acc_f32_with(
                        sel,
                        x_rows,
                        k_dim,
                        &dy,
                        n,
                        &mut rows_in_place,
                        &mut pack,
                    );
                    assert_bits_eq(&rows_in_place, want, &format!("rows {what}"));
                    let mut from_block = dw0.clone();
                    let x_rows = (0..batch).map(rows);
                    outer_dense_acc_f32_with(
                        sel,
                        x_rows,
                        k_dim,
                        &dy,
                        n,
                        &mut from_block,
                        &mut pack,
                    );
                    let want_scattered = &want_scattered[usize::from(sel.fma)];
                    assert_bits_eq(&from_block, want_scattered, &format!("scattered {what}"));
                    let mut dense = dw0.clone();
                    gemm_dense_acc_f32_with(sel, k_dim, &xt, batch, &dy, n, &mut dense);
                    assert_bits_eq(&dense, want, &format!("dense {what}"));
                }
            }
        }
    }
}

/// Special values for the deterministic sweeps: NaN, ±inf, ±0, the
/// smallest and the largest-magnitude negative subnormal, ±90 (where
/// `exp` clamps) and a few ordinary values.
const SPECIALS: [f32; 12] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    0.0,
    -0.0,
    f32::from_bits(1),
    -f32::from_bits(0x007f_ffff),
    90.0,
    -90.0,
    1.0,
    0.5,
    -3.25,
];

/// Deterministic values: a third are [`SPECIALS`], placed so that every
/// special reaches every lane and tail position over the swept lengths;
/// the rest are [`operand`]'s.
fn sweep(len: usize, salt: usize) -> Vec<f32> {
    let ordinary = operand(len, salt as u32);
    (0..len)
        .map(|i| match (i * 7 + salt) % 36 {
            s if s < SPECIALS.len() => SPECIALS[s],
            _ => ordinary[i],
        })
        .collect()
}

/// Every remainder class of every backend, with no randomness: lengths
/// 1..=48 for `lstm_cell_f32`, and the gate-and-cell kernel at hidden
/// 1..=17 over 1..=40 rows — the widths whose rows go two to a vector (4
/// on AVX2, 8 on AVX-512) among every other narrow one, with an odd last
/// row left alone — and at hidden 18..=40 over 1..=5 rows, bitwise
/// against the scalar lane of the same FMA policy on every supported
/// selection, with NaN, ±inf, −0 and the `exp` clamps among the inputs. The scalar gate kernel is in turn the composition it claims to
/// be: per-element `math::sigmoid`/`math::tanh`, then `lstm_cell_f32` row
/// by row.
#[test]
fn every_tail_length_matches_scalar_bitwise() {
    #[cfg(not(miri))]
    let (lens, hds, narrow_hd, narrow_rows, rows_max) = (1..=48, 1..=40, 17, 40, 5);
    #[cfg(miri)]
    let (lens, hds, narrow_hd, narrow_rows, rows_max) = (1..=9, 1..=9, 9, 4, 2);
    for sel in supported_selections() {
        let scalar = Selection {
            backend: Backend::Scalar,
            fma: sel.fma,
        };
        for len in lens.clone() {
            let gates = sweep(4 * len, 3);
            let g: Vec<&[f32]> = gates.chunks_exact(len).collect();
            let c0 = sweep(len, 4);
            let run = |sel| {
                let (mut c, mut h, mut tc) = (c0.clone(), vec![0.0; len], vec![0.0; len]);
                lstm_cell_f32_with(sel, g[0], g[1], g[2], g[3], &mut c, &mut h, Some(&mut tc));
                [c, h, tc]
            };
            for (gv, wv) in run(sel).iter().zip(run(scalar).iter()) {
                assert_bits_eq(gv, wv, &format!("cell {} hd {len}", sel.label()));
            }
        }
        for hd in hds.clone() {
            let rows_max = if hd <= narrow_hd {
                narrow_rows
            } else {
                rows_max
            };
            for rows in 1..=rows_max {
                let z = sweep(rows * 4 * hd, 5 + hd + rows);
                let c0 = sweep(rows * hd, 6);
                let got = gate_rows(sel, hd, &z, &c0);
                let want = gate_rows(scalar, hd, &z, &c0);
                for (gv, wv) in got.iter().zip(want.iter()) {
                    let what = format!("gates {} hd {hd} rows {rows}", sel.label());
                    assert_bits_eq(gv, wv, &what);
                }
            }
        }
    }
    for hd in hds {
        let rows = 3;
        let z = sweep(rows * 4 * hd, 7 + hd);
        let c0 = sweep(rows * hd, 8);
        for fma in [false, true] {
            let scalar = Selection {
                backend: Backend::Scalar,
                fma,
            };
            let [za, c, h, tc] = gate_rows(scalar, hd, &z, &c0);
            let mut want_z = z.clone();
            let (mut want_c, mut want_h) = (c0.clone(), vec![0.0; rows * hd]);
            let mut want_tc = vec![0.0; rows * hd];
            for r in 0..rows {
                let zr = &mut want_z[r * 4 * hd..(r + 1) * 4 * hd];
                let (sig, g) = zr.split_at_mut(3 * hd);
                sig.iter_mut()
                    .for_each(|v| *v = icsad_simd::math::sigmoid(*v));
                g.iter_mut().for_each(|v| *v = icsad_simd::math::tanh(*v));
                let gates: Vec<&[f32]> = zr.chunks_exact(hd).collect();
                let row = r * hd..(r + 1) * hd;
                lstm_cell_f32_with(
                    scalar,
                    gates[0],
                    gates[1],
                    gates[2],
                    gates[3],
                    &mut want_c[row.clone()],
                    &mut want_h[row.clone()],
                    Some(&mut want_tc[row]),
                );
            }
            let what = format!("composition {} hd {hd}", scalar.label());
            assert_bits_eq(&za, &want_z, &what);
            assert_bits_eq(&c, &want_c, &what);
            assert_bits_eq(&h, &want_h, &what);
            assert_bits_eq(&tc, &want_tc, &what);
        }
    }
}

/// Largest depth, head width and batch the fused-rank property draws:
/// depths past the paper's 256, widths past the ledger's 379-class head
/// with every ragged last panel, and batches that mix 8-row (AVX-512),
/// 4-row and single-row tiles. Interpreted runs keep small shapes.
#[cfg(not(miri))]
const RANK_MAX: (usize, usize, usize) = (300, 400, 20);
#[cfg(miri)]
const RANK_MAX: (usize, usize, usize) = (9, 40, 13);

/// The rank a scan of written logits gives target `t`: `1 +` the columns
/// with a higher logit, plus the tied ones at a lower column.
fn scan_rank(logits: &[f32], t: usize) -> u32 {
    let lt = logits[t];
    let above = logits
        .iter()
        .enumerate()
        .filter(|&(j, &l)| l > lt || (l == lt && j < t))
        .count();
    1 + above as u32
}

/// [`operand`]'s values with `-0.0` in place of every exact zero at an
/// odd index and, when `nan_every > 0`, a NaN at every `nan_every`-th.
fn signed_operand(len: usize, salt: u32, nan_every: usize) -> Vec<f32> {
    let mut v = operand(len, salt);
    for (i, e) in v.iter_mut().enumerate() {
        if nan_every > 0 && i % nan_every == nan_every - 1 {
            *e = f32::NAN;
        } else if *e == 0.0 && i % 2 == 1 {
            *e = -0.0;
        }
    }
    v
}

proptest! {
    /// The fused head-and-rank pass equals ranking the logits the panel
    /// gemm writes into a block started from the bias, on every supported
    /// selection. Ties are forced: the tie column's weights and bias are
    /// copied into a column on each side of it, and every third row
    /// targets it; an all-zero column with a `+0` bias and one with a `-0`
    /// bias tie each other. NaNs sit in the weights (a NaN logit column
    /// never counts), in the bias, and in one row of `x` on some cases (a
    /// NaN target logit ranks 1).
    #[test]
    fn fused_rank_equals_the_rank_of_the_gemm_logits(
        k_dim in 1usize..=RANK_MAX.0,
        n in 1usize..=RANK_MAX.1,
        batch in 1usize..=RANK_MAX.2,
        salt in 0u32..=u32::MAX,
        tie in 0usize..=RANK_MAX.1,
    ) {
        let mut w = signed_operand(k_dim * n, salt, 997);
        let mut bias = signed_operand(n, salt ^ 1, 61);
        let x_nan = if salt % 4 == 0 { k_dim * batch } else { 0 };
        let x = signed_operand(batch * k_dim, salt ^ 2, x_nan);
        let column = |w: &mut [f32], from: usize, to: usize| {
            for k in 0..k_dim {
                w[k * n + to] = w[k * n + from];
            }
        };
        for (z, sign) in [(0, 0.0), (n - 1, -0.0)] {
            for k in 0..k_dim {
                w[k * n + z] = 0.0;
            }
            bias[z] = sign;
        }
        let c = tie % n;
        for j in [c / 2, (c + n) / 2] {
            column(&mut w, c, j);
            bias[j] = bias[c];
        }
        let targets: Vec<usize> = (0..batch)
            .map(|b| match b % 3 {
                0 => c,
                1 => (salt as usize).wrapping_add(b * 7919) % n,
                _ => [0, n - 1][b % 2],
            })
            .collect();
        let panels = PanelsF32::pack(&w, k_dim, n);
        for sel in supported_selections() {
            let mut logits: Vec<f32> = (0..batch).flat_map(|_| bias.iter().copied()).collect();
            gemm_panels_acc_f32_with(sel, batch, &x, &panels, &mut logits);
            let want: Vec<u32> = logits
                .chunks_exact(n)
                .zip(&targets)
                .map(|(row, &t)| scan_rank(row, t))
                .collect();
            let mut got = vec![0u32; batch];
            rank_panels_f32_with(sel, batch, &x, &panels, &bias, &targets, &mut got);
            prop_assert_eq!(got, want, "{} {}x{}x{} tie {}", sel.label(), batch, k_dim, n, c);
        }
    }
}

/// The per-row loss loop, sharing no code with the kernels: max by
/// `f32::max`, `expf(x − max)` summed left to right, a divide per entry
/// (rows with a non-finite max, or a NaN sum, keep what they hold), the
/// target's rank scan, then `p·scale` and `− scale` at the target. Returns
/// the gradient row, `p_t` and the top-1 bit.
fn reference_xent(logits: &[f32], t: usize, scale: f32) -> (Vec<f32>, f32, bool) {
    let mut p = logits.to_vec();
    let max = p.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    if max.is_finite() {
        let mut sum = 0.0f32;
        for x in p.iter_mut() {
            *x = icsad_simd::math::expf(*x - max);
            sum += *x;
        }
        if sum > 0.0 {
            for x in p.iter_mut() {
                *x /= sum;
            }
        }
    }
    let pt = p[t];
    let top1 = !p
        .iter()
        .enumerate()
        .any(|(j, &pj)| pj > pt || (pj == pt && j < t));
    let mut d: Vec<f32> = p.iter().map(|&pj| pj * scale).collect();
    d[t] -= scale;
    (d, pt, top1)
}

/// What a softmax head pass leaves: `dh`, `dW`, `db`, `p_t` and the top-1
/// bits.
#[derive(Debug)]
struct HeadOut {
    dh: Vec<f32>,
    dw: Vec<f32>,
    db: Vec<f32>,
    p: Vec<f32>,
    top1: Vec<bool>,
}

/// One softmax head's operands: `rows` inputs of `k_dim`, the `k_dim × n`
/// weights and bias, a target per row, the loss scale and the gradients
/// the pass adds to.
struct HeadCase {
    k_dim: usize,
    h: Vec<f32>,
    w: Vec<f32>,
    bias: Vec<f32>,
    targets: Vec<usize>,
    scale: f32,
    dw0: Vec<f32>,
    db0: Vec<f32>,
}

impl HeadCase {
    /// A case by `kind`. Weight row 0 is positive, so a row whose first
    /// input is `±inf` has only `±inf` logits; columns `a` and `b` are
    /// copies with a bias of 50, so every row ties there at the top. Row
    /// `r` is, by `r % 6`: ordinary, targeting a drawn column; targeting
    /// the right and the left of the tie (not top-1 and top-1); a NaN first
    /// input (all logits NaN); `+inf` (the max is `+inf`); `−inf` (every
    /// logit `−inf`). Kind 0 scales the weights so that the logits lie tens
    /// apart (`exp` underflows) and starts from nonzero gradients; kind 1
    /// puts a NaN in one column's bias (every row's sum is NaN), kind 2 a
    /// `+inf`; both use `scale = 1` and start from zero.
    fn new(k_dim: usize, n: usize, rows: usize, kind: u32) -> HeadCase {
        let salt = kind * 7 + (k_dim * 31 + n * 17 + rows) as u32;
        let mut w: Vec<f32> = operand(k_dim * n, salt).iter().map(|v| v * 8.0).collect();
        for v in &mut w[..n] {
            *v = 1.0 + v.abs();
        }
        let mut bias = operand(n, salt + 1);
        let (a, b) = (n / 3, 2 * n / 3);
        for row in w.chunks_exact_mut(n) {
            row[b] = row[a];
        }
        bias[a] = 50.0;
        bias[b] = 50.0;
        match kind {
            1 => bias[(a + 1) % n] = f32::NAN,
            2 => bias[(b + 1) % n] = f32::INFINITY,
            _ => {}
        }
        let mut h = operand(rows * k_dim, salt + 2);
        let mut targets = Vec::with_capacity(rows);
        for (r, x) in h.chunks_exact_mut(k_dim).enumerate() {
            let drawn = (r * 7919 + salt as usize) % n;
            let t = match r % 6 {
                1 => b,
                2 => a,
                3 => {
                    x[0] = f32::NAN;
                    drawn
                }
                4 => {
                    x[0] = f32::INFINITY;
                    drawn
                }
                5 => {
                    x[0] = f32::NEG_INFINITY;
                    drawn
                }
                _ => drawn,
            };
            targets.push(t);
        }
        let (scale, dw0, db0) = if kind == 0 {
            (0.1, operand(k_dim * n, salt + 3), operand(n, salt + 4))
        } else {
            (1.0, vec![0.0; k_dim * n], vec![0.0; n])
        };
        HeadCase {
            k_dim,
            h,
            w,
            bias,
            targets,
            scale,
            dw0,
            db0,
        }
    }

    /// The unfused passes under `sel`: the panel gemm's logits from the
    /// bias, the per-row loop ([`reference_xent`]), then `dW += hᵀ·d` by
    /// the dense gemm over `hᵀ`, `db` by the column sum and `dh = d·Wᵀ` by
    /// the gemm over `Wᵀ`'s panels from zero.
    fn unfused(&self, sel: Selection) -> HeadOut {
        let (k_dim, n, rows) = (self.k_dim, self.bias.len(), self.targets.len());
        let mut logits = vec![0.0; rows * n];
        let panels = PanelsF32::pack(&self.w, k_dim, n);
        gemm_panels_bias_f32_with(sel, rows, &self.h, &panels, &self.bias, &mut logits);
        let (mut d, mut p, mut top1) = (Vec::new(), Vec::new(), Vec::new());
        for (row, &t) in logits.chunks_exact(n).zip(&self.targets) {
            let (dr, pt, hit) = reference_xent(row, t, self.scale);
            d.extend_from_slice(&dr);
            p.push(pt);
            top1.push(hit);
        }
        let mut dw = self.dw0.clone();
        let ht = transposed(&self.h, rows, k_dim);
        gemm_dense_acc_f32_with(sel, k_dim, &ht, rows, &d, n, &mut dw);
        let mut db = self.db0.clone();
        col_sum_acc_f32_with(sel, &d, &mut db);
        let mut dh = vec![0.0; rows * k_dim];
        let wt = PanelsF32::pack_transposed(&self.w, k_dim, n);
        gemm_panels_acc_f32_with(sel, rows, &d, &wt, &mut dh);
        HeadOut {
            dh,
            dw,
            db,
            p,
            top1,
        }
    }

    /// The fused pass under `sel`, through `scratch`.
    fn fused(&self, sel: Selection, scratch: &mut HeadScratch) -> HeadOut {
        let rows = self.targets.len();
        let mut out = HeadOut {
            dh: vec![f32::NAN; rows * self.k_dim],
            dw: self.dw0.clone(),
            db: self.db0.clone(),
            p: vec![f32::NAN; rows],
            top1: vec![false; rows],
        };
        let grads = HeadGrads {
            dh: &mut out.dh,
            dw: &mut out.dw,
            db: &mut out.db,
            p_target: &mut out.p,
            top1: &mut out.top1,
        };
        softmax_head_f32_with(
            sel,
            &self.h,
            self.k_dim,
            &self.w,
            &self.bias,
            &self.targets,
            self.scale,
            grads,
            scratch,
        );
        out
    }
}

/// Shapes of the softmax head: head widths around one and two column
/// blocks and the `wire-small` head (379), input widths from one `k` to
/// the paper's 256 (13 leaves a remainder after every vector and block),
/// and row counts that fill a group of 16 or 32 lanes, leave one over, or
/// leave most lanes spare. Interpreted runs keep a few.
#[cfg(not(miri))]
const HEAD_GRID: (&[usize], &[usize], &[usize]) = (
    &[1, 7, 16, 17, 33, 379],
    &[1, 8, 13, 64, 256],
    &[1, 3, 15, 16, 17, 40],
);
#[cfg(miri)]
const HEAD_GRID: (&[usize], &[usize], &[usize]) = (&[1, 7], &[1, 3], &[1, 3]);

/// The fused softmax head on every supported selection equals the unfused
/// passes it replaces ([`HeadCase::unfused`], run under the scalar
/// selection of the same FMA policy), bitwise: `dh`, `dW`, `db`, `p_t`
/// and the top-1 bits, for every row kind of [`HeadCase::new`] over
/// [`HEAD_GRID`], and its other case kinds at the narrower inputs. One scratch per selection serves
/// every shape, so buffers left by a larger call are reused. An empty
/// batch is a no-op.
#[test]
fn fused_softmax_head_equals_the_unfused_passes_bitwise() {
    let (ns, ks, row_counts) = HEAD_GRID;
    let sels = supported_selections();
    let mut scratch: Vec<HeadScratch> = sels.iter().map(|_| HeadScratch::default()).collect();
    for &n in ns {
        for &k_dim in ks {
            for &rows in row_counts {
                // The NaN and `+inf` columns change no product: narrow
                // inputs cover them.
                let kinds = if k_dim <= 13 { 0..3 } else { 0..1 };
                for kind in kinds {
                    let case = HeadCase::new(k_dim, n, rows, kind);
                    let want = [false, true].map(|fma| {
                        case.unfused(Selection {
                            backend: Backend::Scalar,
                            fma,
                        })
                    });
                    for (&sel, scratch) in sels.iter().zip(&mut scratch) {
                        let what = format!("{} {rows}x{k_dim}x{n} kind {kind}", sel.label());
                        let (got, want) = (case.fused(sel, scratch), &want[usize::from(sel.fma)]);
                        assert_bits_eq(&got.dh, &want.dh, &format!("dh {what}"));
                        assert_bits_eq(&got.dw, &want.dw, &format!("dw {what}"));
                        assert_bits_eq(&got.db, &want.db, &format!("db {what}"));
                        assert_bits_eq(&got.p, &want.p, &format!("p_t {what}"));
                        assert_eq!(got.top1, want.top1, "top1 {what}");
                    }
                }
            }
        }
    }
    let mut empty = HeadCase::new(3, 5, 1, 0);
    empty.h.clear();
    empty.targets.clear();
    for (&sel, scratch) in sels.iter().zip(&mut scratch) {
        let out = empty.fused(sel, scratch);
        assert_eq!((out.dw, out.db), (empty.dw0.clone(), empty.db0.clone()));
    }
}

/// The per-element gate calculus of one BPTT timestep as the layer's
/// backward ran it before the kernel, verbatim: per row and element, one
/// plain op at a time, `c_prev` taken as `0.0` at `t = 0`.
#[allow(clippy::too_many_arguments, reason = "the kernel's operands")]
fn reference_gate_grad(
    hd: usize,
    z: &[f32],
    tc: &[f32],
    c_prev: Option<&[f32]>,
    d_out: &[f32],
    dh: &[f32],
    dc: &mut [f32],
    dz: &mut [f32],
) {
    let sig_d = |s: f32| s * (1.0 - s);
    let tanh_d = |t: f32| 1.0 - t * t;
    for r in 0..tc.len() / hd {
        let gates = &z[r * 4 * hd..(r + 1) * 4 * hd];
        let (i_gate, rest) = gates.split_at(hd);
        let (f_gate, rest) = rest.split_at(hd);
        let (o_gate, g_gate) = rest.split_at(hd);
        let row = r * hd..(r + 1) * hd;
        let (tc, d_out_r, dh_r) = (&tc[row.clone()], &d_out[row.clone()], &dh[row.clone()]);
        let c_prev = c_prev.map(|c| &c[row.clone()]);
        let dc_r = &mut dc[row];
        let dzr = &mut dz[r * 4 * hd..(r + 1) * 4 * hd];
        for j in 0..hd {
            let dh = d_out_r[j] + dh_r[j];
            let d_o = dh * tc[j];
            let dc = dh * o_gate[j] * tanh_d(tc[j]) + dc_r[j];
            let d_i = dc * g_gate[j];
            let d_g = dc * i_gate[j];
            let d_f = dc * c_prev.map_or(0.0, |c| c[j]);
            dzr[j] = d_i * sig_d(i_gate[j]);
            dzr[hd + j] = d_f * sig_d(f_gate[j]);
            dzr[2 * hd + j] = d_o * sig_d(o_gate[j]);
            dzr[3 * hd + j] = d_g * tanh_d(g_gate[j]);
            dc_r[j] = dc * f_gate[j];
        }
    }
}

/// The dispatched gate-gradient kernel equals the scalar loop it replaces
/// ([`reference_gate_grad`]) bitwise — `dz` and the carried `dc` — on
/// every selection, under both FMA policies (the kernel fuses nothing), at
/// hidden widths around each backend's vector and half vector and the
/// paper's 256, for one and several rows, with and without `c_prev` (`t =
/// 0`), on operands that include NaN, ±inf, ±0 and subnormals.
#[test]
fn gate_gradient_kernel_matches_the_scalar_loop_bitwise() {
    #[cfg(not(miri))]
    let (hds, rows_max): (&[usize], usize) = (&[1, 7, 8, 15, 16, 17, 33, 256], 3);
    #[cfg(miri)]
    let (hds, rows_max): (&[usize], usize) = (&[1, 17], 2);
    for &hd in hds {
        for rows in 1..=rows_max {
            let len = rows * hd;
            let z = sweep(4 * len, 31 + hd);
            let (tc, c_prev, d_out) = (sweep(len, 32), sweep(len, 33), sweep(len, 34));
            let (dh, dc0) = (sweep(len, 35), sweep(len, 36));
            for c_prev in [None, Some(&c_prev[..])] {
                let mut want_dc = dc0.clone();
                let mut want_dz = vec![f32::NAN; 4 * len];
                reference_gate_grad(hd, &z, &tc, c_prev, &d_out, &dh, &mut want_dc, &mut want_dz);
                for sel in supported_selections() {
                    let t0 = if c_prev.is_some() { "t > 0" } else { "t = 0" };
                    let what = format!("gate grad {} hd {hd} rows {rows} {t0}", sel.label());
                    let mut dc = dc0.clone();
                    let mut dz = vec![0.0f32; 4 * len];
                    lstm_backward_rows_f32_with(
                        sel, hd, &z, &tc, c_prev, &d_out, &dh, &mut dc, &mut dz,
                    );
                    assert_bits_eq(&dz, &want_dz, &format!("dz {what}"));
                    assert_bits_eq(&dc, &want_dc, &format!("dc {what}"));
                }
            }
        }
    }
}

/// The bias-started panel product equals copying the bias into every
/// output row and then accumulating, bitwise, on every selection — and
/// overwrites whatever the output held — over the gemm grid, and with no
/// input at all (`k_dim = 0`).
#[test]
fn bias_started_gemm_equals_copy_then_accumulate_bitwise() {
    let copied = |bias: &[f32], batch: usize| -> Vec<f32> {
        (0..batch).flat_map(|_| bias.iter().copied()).collect()
    };
    let (ns, batches, ks) = GRID;
    for &n in ns {
        let bias = sweep(n, 43);
        for k_dim in ks.iter().copied().chain([0]) {
            let w = operand(k_dim * n, 44);
            let panels = PanelsF32::pack(&w, k_dim, n);
            for &batch in batches {
                let x = operand(batch * k_dim, 45);
                for sel in supported_selections() {
                    let what = format!("{} {batch}x{k_dim}x{n}", sel.label());
                    let mut want = copied(&bias, batch);
                    gemm_panels_acc_f32_with(sel, batch, &x, &panels, &mut want);
                    let mut got = vec![f32::NAN; batch * n];
                    gemm_panels_bias_f32_with(sel, batch, &x, &panels, &bias, &mut got);
                    assert_bits_eq(&got, &want, &format!("panels {what}"));
                }
            }
        }
    }
}

/// The bias-gradient column sum equals adding the rows into `out` one
/// after another, one plain add per element, bitwise, on every selection:
/// widths through every column chunk, half vector and single-column tail,
/// and the ledger models' heads; blocks of zero to many rows; values that
/// include the specials.
#[test]
fn column_sum_equals_the_per_row_add_loop_bitwise() {
    #[cfg(not(miri))]
    let (ns, rows_set): (Vec<usize>, &[usize]) = (
        (1..=70).chain([169, 379, 1024]).collect(),
        &[0, 1, 2, 5, 31],
    );
    #[cfg(miri)]
    let (ns, rows_set): (Vec<usize>, &[usize]) = (vec![1, 7, 17, 33], &[0, 3]);
    for &n in &ns {
        let out0 = sweep(n, 51);
        for &rows in rows_set {
            let x = sweep(rows * n, 52 + n);
            let mut want = out0.clone();
            for row in x.chunks_exact(n) {
                for (o, &v) in want.iter_mut().zip(row) {
                    *o += v;
                }
            }
            for sel in supported_selections() {
                let mut got = out0.clone();
                col_sum_acc_f32_with(sel, &x, &mut got);
                let what = format!("col_sum {} n {n} rows {rows}", sel.label());
                assert_bits_eq(&got, &want, &what);
            }
        }
    }
}

/// Every dense, bias-started and one-hot entry is a no-op on an empty
/// batch, at widths past one panel and past one sub-tile of every backend.
#[test]
fn empty_batches_are_no_ops_at_every_width() {
    let k_dim = 3;
    for n in [1usize, 17, 33, 65, 379] {
        let w = operand(k_dim * n, 61);
        let panels = PanelsF32::pack(&w, k_dim, n);
        let bias = operand(n, 62);
        for sel in supported_selections() {
            gemm_panels_acc_f32_with(sel, 0, &[], &panels, &mut []);
            gemm_panels_bias_f32_with(sel, 0, &[], &panels, &bias, &mut []);
            gemm_dense_acc_f32_with(sel, 0, &[], k_dim, &w, n, &mut []);
            onehot_bias_f32_with(sel, std::iter::empty(), &w, n, &bias, &mut []);
            let mut dw = w.clone();
            let rows = std::iter::empty();
            onehot_outer_acc_f32_with(sel, rows, k_dim, &[], n, &mut dw, &mut Buckets::default());
            assert_bits_eq(&dw, &w, "an empty gradient adds nothing");
        }
    }
}

/// The one-hot projection's scalar reference: per index row, the bias,
/// then each listed weight row in order, one plain add per element.
fn reference_onehot_bias(rows: &[&[u32]], w: &[f32], n: usize, bias: &[f32]) -> Vec<f32> {
    let mut z = Vec::new();
    for ks in rows {
        let mut row = bias.to_vec();
        for &k in *ks {
            for (zj, &wkj) in row.iter_mut().zip(&w[k as usize * n..]) {
                *zj += wkj;
            }
        }
        z.extend(row);
    }
    z
}

/// The one-hot weight gradient's scalar reference: `dw0`, then for each
/// index row in order each listed row of `dw` plus that row of `dy`, one
/// plain add per element.
fn reference_onehot_outer(rows: &[&[u32]], dy: &[f32], n: usize, dw0: &[f32]) -> Vec<f32> {
    let mut dw = dw0.to_vec();
    for (ks, dy_row) in rows.iter().zip(dy.chunks_exact(n)) {
        for &k in *ks {
            for (dj, &g) in dw[k as usize * n..].iter_mut().zip(dy_row) {
                *dj += g;
            }
        }
    }
    dw
}

/// Checks both one-hot kernels against their scalar references on every
/// supported selection, reading `block`'s rows in the order `order` lists
/// them — scattered, out of order and repeated, the way the trainer's row
/// map reads a sequence block.
fn check_onehot_kernels(block: &[Vec<u32>], order: &[usize], k_dim: usize, n: usize, salt: usize) {
    let rows: Vec<&[u32]> = order.iter().map(|&r| &block[r][..]).collect();
    let read = || order.iter().map(|&r| &block[r][..]);
    let w = sweep(k_dim * n, salt);
    let bias = sweep(n, salt + 1);
    let dy = sweep(rows.len() * n, salt + 2);
    let dw0 = sweep(k_dim * n, salt + 3);
    let want_z = reference_onehot_bias(&rows, &w, n, &bias);
    let want_dw = reference_onehot_outer(&rows, &dy, n, &dw0);
    let mut buckets = Buckets::default();
    for sel in supported_selections() {
        let what = format!("{} {} rows of {k_dim} into {n}", sel.label(), rows.len());
        let mut z = vec![f32::NAN; rows.len() * n];
        onehot_bias_f32_with(sel, read(), &w, n, &bias, &mut z);
        assert_bits_eq(&z, &want_z, &format!("projection {what}"));
        let mut dw = dw0.clone();
        onehot_outer_acc_f32_with(sel, read(), k_dim, &dy, n, &mut dw, &mut buckets);
        assert_bits_eq(&dw, &want_dw, &format!("weight gradient {what}"));
    }
}

/// Index rows of `k_dim` inputs with every count of ones from none to all
/// of them, the last input alone and with others, the rest spread by a
/// stride: the ascending rows a one-hot block holds.
fn index_block(k_dim: usize) -> Vec<Vec<u32>> {
    let k = k_dim as u32;
    let mut block: Vec<Vec<u32>> = (0..=k)
        .map(|count| {
            (0..k)
                .filter(|&i| (i * 7 + count) % (k + 1) < count)
                .collect()
        })
        .collect();
    block.push((0..k).collect());
    block.push(vec![k - 1]);
    block.push((0..k).step_by(3).chain([k - 1]).collect::<Vec<u32>>());
    block.iter_mut().for_each(|row| row.dedup());
    block
}

/// The one-hot projection and its weight gradient equal the scalar loops
/// (the bias or `dw`, ascending index, plain add) bit for bit, on every
/// supported selection and so under both FMA policies: output widths 1 to
/// 49 — every 4-, 2- and 1-vector column chunk and scalar tail of every
/// backend — inputs up to the ledger's 74-wide one-hot row, rows with 0 to
/// `k_dim` ones including the last input, read scattered and out of order.
#[test]
fn onehot_kernels_match_the_scalar_reference_bitwise() {
    #[cfg(not(miri))]
    let (ks, ns): (&[usize], Vec<usize>) = (&[1, 2, 5, 17, 33, 74], (1..=49).collect());
    #[cfg(miri)]
    let (ks, ns): (&[usize], Vec<usize>) = (&[1, 5], vec![1, 7, 17, 33]);
    for &k_dim in ks {
        let block = index_block(k_dim);
        let last = block.len() - 1;
        // Every row, then backwards with each third one read twice.
        let order: Vec<usize> = (0..=last)
            .chain(
                (0..=last)
                    .rev()
                    .flat_map(|r| std::iter::repeat_n(r, 1 + usize::from(r % 3 == 0))),
            )
            .collect();
        for &n in &ns {
            check_onehot_kernels(&block, &order, k_dim, n, k_dim * 64 + n);
        }
    }
}

#[test]
#[should_panic(expected = "onehot_bias: index out of range")]
fn an_index_past_the_weights_panics() {
    let (w, bias) = (vec![0.0f32; 6], vec![0.0f32; 2]);
    let rows = [&[0u32, 3][..]];
    onehot_bias_f32_with(
        supported_selections()[0],
        rows.into_iter(),
        &w,
        2,
        &bias,
        &mut [0.0; 2],
    );
}
