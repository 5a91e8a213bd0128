//! Generic kernels and the per-backend `#[target_feature]` entry
//! points.
//!
//! Every kernel is written once, generically over [`Lanes`], and vectorizes
//! **only along the independent output dimension** (`j`, the output column
//! — or the element index for the pointwise kernels). The contraction
//! dimension `k` is always walked sequentially in ascending order, and the
//! per-element operation sequence is fixed by the lane trait, so for a
//! given FMA policy every backend produces bitwise-identical results —
//! including the scalar fallback, which is just the `WIDTH = 1`
//! instantiation of the same code. Remainder columns (`n mod WIDTH`) of
//! the streaming kernels run the element-level ops of the *same* policy;
//! the dense gemm has no remainder path at all — it reads zero-padded
//! weight panels ([`PANEL`]) and runs full vector chains everywhere.

use crate::lanes::Lanes;
use crate::math;

/// Lanes of the batch dimension processed per register tile in the dense
/// gemm (4 output rows share each loaded weight vector).
const LANE_TILE: usize = 4;

/// Rows of the `k` dimension kept cache-resident per block of the sparse
/// gemm: a `KB × n` weight block is re-walked by every batch row before
/// the sweep moves on (the same blocking both scalar predecessors used).
const K_BLOCK: usize = 64;

/// `y[b] += x[b]ᵀ·W` for every batch row, skipping zero entries of `x`
/// (and taking an exact plain-add path for ones, which rounds identically
/// under both FMA policies). This is the one-hot / sparse kernel; with
/// `batch == 1` it is the per-record `matvec_acc`.
///
/// The `k` loop is blocked ([`K_BLOCK`]) so a block of weight rows stays
/// cache-resident across all batch rows; blocks ascend, and `k` ascends
/// within each block, so every output element still sees one ascending-`k`
/// chain — bitwise identical to the unblocked loop.
#[inline(always)]
pub(crate) fn gemm_sparse_f32<L: Lanes>(
    batch: usize,
    x: &[f32],
    k_dim: usize,
    w: &[f32],
    n: usize,
    y: &mut [f32],
) {
    debug_assert_eq!(x.len(), batch * k_dim);
    debug_assert_eq!(w.len(), k_dim * n);
    debug_assert_eq!(y.len(), batch * n);
    let mut kb = 0;
    while kb < k_dim {
        let kend = (kb + K_BLOCK).min(k_dim);
        for b in 0..batch {
            let x_row = &x[b * k_dim..(b + 1) * k_dim];
            let y_row = &mut y[b * n..(b + 1) * n];
            for (ko, &xi) in x_row[kb..kend].iter().enumerate() {
                if xi == 0.0 {
                    continue;
                }
                let k = kb + ko;
                let w_row = &w[k * n..(k + 1) * n];
                if xi == 1.0 {
                    // 1.0 * w rounds to w exactly: the plain add equals the
                    // fmac under either policy.
                    let mut j = 0;
                    while j + L::WIDTH <= n {
                        L::load(&y_row[j..])
                            .add(L::load(&w_row[j..]))
                            .store(&mut y_row[j..]);
                        j += L::WIDTH;
                    }
                    while j < n {
                        // Read `y` before `w`, like the vector loop: `+=`
                        // bounds-checks in the other order, which grew this
                        // kernel's code and read ≈ 4 % lower on
                        // `storm-churn` `pkg_s`.
                        let yj = y_row[j];
                        y_row[j] = yj + w_row[j];
                        j += 1;
                    }
                } else {
                    let xv = L::splat(xi);
                    let mut j = 0;
                    while j + L::WIDTH <= n {
                        L::load(&y_row[j..])
                            .fmac(xv, L::load(&w_row[j..]))
                            .store(&mut y_row[j..]);
                        j += L::WIDTH;
                    }
                    while j < n {
                        y_row[j] = L::fmac_e(y_row[j], xi, w_row[j]);
                        j += 1;
                    }
                }
            }
        }
        kb = kend;
    }
}

/// Columns per weight panel — the one layout the dense gemm reads.
///
/// A `k × n` weight matrix is stored **panel-major**: `⌈n / 32⌉` panels,
/// each `k` rows of 32 consecutive columns, the last panel zero-padded to
/// full width:
///
/// ```text
///   row-major W (k × n)              panel-major ([⌈n/32⌉][k][32])
///   ┌──────────────────────┐         panel 0      panel 1     … last
///   │ w00 w01 …        w0n │         ┌────────┐   ┌────────┐   ┌─────┬───┐
///   │ w10 w11 …        w1n │   ⇒     │ 32 col │   │ 32 col │   │valid│ 0 │
///   │  ⋮                ⋮  │         │ k rows │   │ k rows │   │     │ 0 │
///   └──────────────────────┘         └────────┘   └────────┘   └─────┴───┘
/// ```
///
/// 32 columns is two AVX-512 `f32` vectors — one 4-row × 2-vector register
/// tile — and a whole number of narrower tiles everywhere else (two 2×8
/// tiles on AVX2, four 2×4 on SSE2, the 32-wide element-array tile on
/// scalar). Fixing the width for every backend makes the layout
/// independent of the dispatched [`crate::Selection`]: panels packed once
/// stay valid under any later [`crate::force`].
pub(crate) const PANEL: usize = 32;

/// Element count of the panel-major copy of a `k_dim × n` matrix.
fn panels_len(k_dim: usize, n: usize) -> usize {
    n.div_ceil(PANEL) * k_dim * PANEL
}

/// Fills one `k_dim × PANEL` panel with columns `j0 .. j0 + valid` of the
/// weight operand, zeroing the padding columns. `w_tile(k, j0, dst)`
/// copies `W[k][j0 .. j0 + dst.len()]` — a plain row slice for a
/// row-major operand ([`row_major_tile`]), a strided read when the operand
/// is the transpose of the stored matrix ([`transposed_tile`]).
#[inline(always)]
fn fill_panel(
    panel: &mut [f32],
    j0: usize,
    valid: usize,
    w_tile: &impl Fn(usize, usize, &mut [f32]),
) {
    for (k, row) in panel.chunks_exact_mut(PANEL).enumerate() {
        let (cols, pad) = row.split_at_mut(valid);
        w_tile(k, j0, cols);
        pad.fill(0.0);
    }
}

/// The `w_tile` of a row-major `k_dim × n` weight matrix.
#[inline(always)]
fn row_major_tile(w: &[f32], n: usize) -> impl Fn(usize, usize, &mut [f32]) + '_ {
    move |k, j0, dst| dst.copy_from_slice(&w[k * n + j0..k * n + j0 + dst.len()])
}

/// The `w_tile` of `Aᵀ` for a row-major `n × k_dim` matrix `a`: operand
/// element `[k][j]` is `a[j][k]`, read with a stride of one row of `a`.
#[inline(always)]
fn transposed_tile(a: &[f32], k_dim: usize) -> impl Fn(usize, usize, &mut [f32]) + '_ {
    move |k, j0, dst| {
        for (jj, d) in dst.iter_mut().enumerate() {
            *d = a[(j0 + jj) * k_dim + k];
        }
    }
}

/// Packs a `k_dim × n` weight operand panel-major (see [`PANEL`]), reading
/// it through `w_tile`.
fn pack_panels(k_dim: usize, n: usize, w_tile: &impl Fn(usize, usize, &mut [f32])) -> Vec<f32> {
    let mut out = vec![0.0; panels_len(k_dim, n)];
    if k_dim > 0 {
        for (p, panel) in out.chunks_exact_mut(k_dim * PANEL).enumerate() {
            let j0 = p * PANEL;
            fill_panel(panel, j0, PANEL.min(n - j0), w_tile);
        }
    }
    out
}

/// Packs a row-major `k_dim × n` weight matrix panel-major.
pub(crate) fn pack_panels_f32(k_dim: usize, w: &[f32], n: usize) -> Vec<f32> {
    debug_assert_eq!(w.len(), k_dim * n);
    pack_panels(k_dim, n, &row_major_tile(w, n))
}

/// Packs the **transpose** of a row-major `rows × cols` matrix panel-major
/// — the `cols × rows` operand of `dX += dY·Wᵀ` — straight from `w`'s
/// rows, without materializing `Wᵀ`.
pub(crate) fn pack_panels_transposed_f32(rows: usize, w: &[f32], cols: usize) -> Vec<f32> {
    debug_assert_eq!(w.len(), rows * cols);
    pack_panels(cols, rows, &transposed_tile(w, cols))
}

/// Dense gemm over pre-packed panels: `y[b] += x[b]ᵀ·W` without the zero
/// skip, `W` given panel-major (see [`PANEL`]). The entry for weights: they
/// were packed once, so a call streams them straight from the panels and
/// copies nothing.
#[inline(always)]
pub(crate) fn gemm_panels_f32<L: Lanes>(
    batch: usize,
    x: &[f32],
    k_dim: usize,
    n: usize,
    y: &mut [f32],
    panels: &[f32],
) {
    debug_assert_eq!(x.len(), batch * k_dim);
    debug_assert_eq!(y.len(), batch * n);
    debug_assert_eq!(panels.len(), panels_len(k_dim, n));
    if k_dim == 0 {
        return;
    }
    for (p, panel) in panels.chunks_exact(k_dim * PANEL).enumerate() {
        let j0 = p * PANEL;
        panel_tile::<L>(batch, x, k_dim, n, y, j0, PANEL.min(n - j0), panel);
    }
}

/// Dense gemm that packs per call: `y[b] += x[b]ᵀ·W` for a row-major
/// operand that is new on every call (the gate gradients of the dense
/// weight-gradient product). Each panel is packed into the thread's
/// reusable `pack` buffer — streaming the weights once per call — and
/// handed to the same [`panel_tile`] the pre-packed entry runs, so the two
/// entries cannot drift apart.
#[inline(always)]
pub(crate) fn gemm_dense_f32<L: Lanes>(
    batch: usize,
    x: &[f32],
    k_dim: usize,
    w: &[f32],
    n: usize,
    y: &mut [f32],
    pack: &mut Vec<f32>,
) {
    debug_assert_eq!(x.len(), batch * k_dim);
    debug_assert_eq!(w.len(), k_dim * n);
    debug_assert_eq!(y.len(), batch * n);
    let w_tile = row_major_tile(w, n);
    if pack.len() < k_dim * PANEL {
        pack.resize(k_dim * PANEL, 0.0);
    }
    let panel = &mut pack[..k_dim * PANEL];
    let mut j0 = 0;
    while j0 < n {
        let valid = PANEL.min(n - j0);
        fill_panel(panel, j0, valid, &w_tile);
        panel_tile::<L>(batch, x, k_dim, n, y, j0, valid, panel);
        j0 += PANEL;
    }
}

/// Loads the two-vector accumulator pair of one output row from `yr`. A
/// ragged sub-tile (`cols < 2·WIDTH`) is staged through a zero-padded
/// stack buffer, so the padding lanes start at zero and never read `y`.
#[inline(always)]
fn load_pair<L: Lanes>(yr: &[f32], cols: usize) -> [L; 2] {
    if cols == 2 * L::WIDTH {
        [L::load(yr), L::load(&yr[L::WIDTH..])]
    } else {
        let mut buf = [0.0; PANEL];
        buf[..cols].copy_from_slice(&yr[..cols]);
        [L::load(&buf), L::load(&buf[L::WIDTH..])]
    }
}

/// Stores an accumulator pair back to `yr`, only its `cols` valid columns:
/// the padding lanes of a ragged sub-tile die in the stack buffer.
#[inline(always)]
fn store_pair<L: Lanes>(acc: [L; 2], yr: &mut [f32], cols: usize) {
    if cols == 2 * L::WIDTH {
        acc[0].store(yr);
        acc[1].store(&mut yr[L::WIDTH..]);
    } else {
        let mut buf = [0.0; PANEL];
        acc[0].store(&mut buf);
        acc[1].store(&mut buf[L::WIDTH..]);
        yr[..cols].copy_from_slice(&buf[..cols]);
    }
}

/// The one dense-gemm tile routine: accumulates columns
/// `j0 .. j0 + valid` of `y` over one `k_dim × PANEL` weight panel.
///
/// A 4-row × 2-vector register tile holds the outputs across the whole
/// `k` loop, so each weight vector is loaded once per four batch rows and
/// `y` is loaded and stored once per tile instead of once per `k`. A
/// ragged panel (`valid < PANEL`) runs the *same* vector chains over its
/// zero-padded rows and stores only the valid columns — there is no
/// per-element tail. Per output element the op sequence is therefore
/// always "ascending `k`, this lane type's `fmac`", which keeps SIMD ≡
/// scalar and batched ≡ per-record bitwise.
///
/// Do not widen the row tile. Tried for issue 14 on the 2-vCPU
/// `avx512+fma` reference host: a 12-row × 2-vector tile over a transposed
/// `x` pack gave +0–7 % on the 96×256×1024 product, −20 % at batch 16 and
/// −9 % on the ledger's `train_targets_s`; [`LANE_TILE`] stays 4.
#[inline(always)]
#[allow(clippy::too_many_arguments, reason = "a tile's shape and operands")]
fn panel_tile<L: Lanes>(
    batch: usize,
    x: &[f32],
    k_dim: usize,
    n: usize,
    y: &mut [f32],
    j0: usize,
    valid: usize,
    panel: &[f32],
) {
    debug_assert_eq!(panel.len(), k_dim * PANEL);
    debug_assert!(0 < valid && valid <= PANEL && j0 + valid <= n);
    if L::WIDTH == 1 {
        return panel_tile_scalar::<L>(batch, x, k_dim, n, y, j0, valid, panel);
    }
    let sub = 2 * L::WIDTH;
    let mut s = 0;
    // Sub-tiles that lie wholly in the padding are skipped.
    while s < valid {
        // Hoists the per-`k` slice checks out of the loops below.
        assert!(s + sub <= PANEL, "register tile wider than a panel");
        let cols = sub.min(valid - s);
        let mut b0 = 0;
        // Quads of batch rows take the register-tiled fast path.
        while b0 + LANE_TILE <= batch {
            let (x01, x23) = x[b0 * k_dim..(b0 + 4) * k_dim].split_at(2 * k_dim);
            let (x0, x1) = x01.split_at(k_dim);
            let (x2, x3) = x23.split_at(k_dim);
            let mut acc = [[L::splat(0.0); 2]; LANE_TILE];
            for (bi, row) in acc.iter_mut().enumerate() {
                *row = load_pair::<L>(&y[(b0 + bi) * n + j0 + s..], cols);
            }
            let lanes = x0.iter().zip(x1.iter()).zip(x2.iter()).zip(x3.iter());
            for ((((&a0, &a1), &a2), &a3), wr) in lanes.zip(panel.chunks_exact(PANEL)) {
                let wr = &wr[s..s + sub];
                let w0 = L::load(wr);
                let w1 = L::load(&wr[L::WIDTH..]);
                let v0 = L::splat(a0);
                acc[0][0] = acc[0][0].fmac(v0, w0);
                acc[0][1] = acc[0][1].fmac(v0, w1);
                let v1 = L::splat(a1);
                acc[1][0] = acc[1][0].fmac(v1, w0);
                acc[1][1] = acc[1][1].fmac(v1, w1);
                let v2 = L::splat(a2);
                acc[2][0] = acc[2][0].fmac(v2, w0);
                acc[2][1] = acc[2][1].fmac(v2, w1);
                let v3 = L::splat(a3);
                acc[3][0] = acc[3][0].fmac(v3, w0);
                acc[3][1] = acc[3][1].fmac(v3, w1);
            }
            for (bi, row) in acc.iter().enumerate() {
                store_pair::<L>(*row, &mut y[(b0 + bi) * n + j0 + s..], cols);
            }
            b0 += LANE_TILE;
        }
        // Leftover batch rows, one at a time on the same sub-tile.
        for b in b0..batch {
            let x_row = &x[b * k_dim..(b + 1) * k_dim];
            let [mut a0, mut a1] = load_pair::<L>(&y[b * n + j0 + s..], cols);
            for (&xv, wr) in x_row.iter().zip(panel.chunks_exact(PANEL)) {
                let wr = &wr[s..s + sub];
                let v = L::splat(xv);
                a0 = a0.fmac(v, L::load(wr));
                a1 = a1.fmac(v, L::load(&wr[L::WIDTH..]));
            }
            store_pair::<L>([a0, a1], &mut y[b * n + j0 + s..], cols);
        }
        s += sub;
    }
}

/// [`panel_tile`] for the scalar backend: [`PANEL`]-wide element-array
/// accumulators instead of two one-element "vectors". Per output element
/// the `k` order and `fmac` policy are identical to the vector tiles, so
/// results stay bitwise equal — this shape exists so non-SIMD targets (and
/// the force-scalar CI job) amortize the `x` re-streaming across a whole
/// panel and hand LLVM's auto-vectorizer a fixed-width inner loop.
#[inline(always)]
#[allow(clippy::too_many_arguments, reason = "a tile's shape and operands")]
fn panel_tile_scalar<L: Lanes>(
    batch: usize,
    x: &[f32],
    k_dim: usize,
    n: usize,
    y: &mut [f32],
    j0: usize,
    valid: usize,
    panel: &[f32],
) {
    const LT: usize = LANE_TILE;
    let mut b0 = 0;
    while b0 + LT <= batch {
        let (x01, x23) = x[b0 * k_dim..(b0 + 4) * k_dim].split_at(2 * k_dim);
        let (x0, x1) = x01.split_at(k_dim);
        let (x2, x3) = x23.split_at(k_dim);
        // Padding columns start at zero and are never stored.
        let mut acc = [[0.0; PANEL]; LT];
        for (bi, row) in acc.iter_mut().enumerate() {
            let at = (b0 + bi) * n + j0;
            row[..valid].copy_from_slice(&y[at..at + valid]);
        }
        let lanes = x0.iter().zip(x1.iter()).zip(x2.iter()).zip(x3.iter());
        for ((((&a0, &a1), &a2), &a3), wr) in lanes.zip(panel.chunks_exact(PANEL)) {
            #[expect(
                clippy::expect_used,
                reason = "`chunks_exact(PANEL)` yields slices of exactly PANEL elements"
            )]
            let ws: &[f32; PANEL] = wr.try_into().expect("weight panel row");
            for (a, &wj) in acc[0].iter_mut().zip(ws.iter()) {
                *a = L::fmac_e(*a, a0, wj);
            }
            for (a, &wj) in acc[1].iter_mut().zip(ws.iter()) {
                *a = L::fmac_e(*a, a1, wj);
            }
            for (a, &wj) in acc[2].iter_mut().zip(ws.iter()) {
                *a = L::fmac_e(*a, a2, wj);
            }
            for (a, &wj) in acc[3].iter_mut().zip(ws.iter()) {
                *a = L::fmac_e(*a, a3, wj);
            }
        }
        for (bi, row) in acc.iter().enumerate() {
            let at = (b0 + bi) * n + j0;
            y[at..at + valid].copy_from_slice(&row[..valid]);
        }
        b0 += LT;
    }
    for b in b0..batch {
        let x_row = &x[b * k_dim..(b + 1) * k_dim];
        let at = b * n + j0;
        let mut acc = [0.0; PANEL];
        acc[..valid].copy_from_slice(&y[at..at + valid]);
        for (&xv, wr) in x_row.iter().zip(panel.chunks_exact(PANEL)) {
            #[expect(
                clippy::expect_used,
                reason = "`chunks_exact(PANEL)` yields slices of exactly PANEL elements"
            )]
            let ws: &[f32; PANEL] = wr.try_into().expect("weight panel row");
            for (a, &wj) in acc.iter_mut().zip(ws.iter()) {
                *a = L::fmac_e(*a, xv, wj);
            }
        }
        y[at..at + valid].copy_from_slice(&acc[..valid]);
    }
}

/// `dw[i][j] += Σ_b x[b][i]·dy[b][j]` — the batched outer-product gradient
/// accumulation `dW += Xᵀ·dY` (with `batch == 1` it is the rank-1
/// `outer_acc` the scalar backward used per timestep). Implemented by
/// packing the transpose of `x` and running [`gemm_sparse_f32`] over it:
/// per output element the `b` contributions accumulate in ascending order,
/// zero entries of `x` are skipped and exact ones take the plain-add path,
/// so SIMD ≡ scalar stays bitwise per FMA policy under exactly the sparse
/// gemm's contract — and one-hot training inputs stay nearly free.
#[inline(always)]
pub(crate) fn outer_acc_f32<L: Lanes>(
    batch: usize,
    x: &[f32],
    k_dim: usize,
    dy: &[f32],
    n: usize,
    dw: &mut [f32],
    pack: &mut Vec<f32>,
) {
    debug_assert_eq!(x.len(), batch * k_dim);
    debug_assert_eq!(dy.len(), batch * n);
    debug_assert_eq!(dw.len(), k_dim * n);
    if pack.len() < k_dim * batch {
        pack.resize(k_dim * batch, 0.0);
    }
    let xt = &mut pack[..k_dim * batch];
    for (b, x_row) in x.chunks_exact(k_dim).enumerate() {
        for (i, &xi) in x_row.iter().enumerate() {
            xt[i * batch + b] = xi;
        }
    }
    gemm_sparse_f32::<L>(k_dim, xt, batch, dy, n, dw)
}

/// `y += a * x` under the lane type's FMA policy.
#[inline(always)]
pub(crate) fn axpy_f32<L: Lanes>(a: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    let av = L::splat(a);
    let n = y.len();
    let mut j = 0;
    while j + L::WIDTH <= n {
        L::load(&y[j..])
            .fmac(av, L::load(&x[j..]))
            .store(&mut y[j..]);
        j += L::WIDTH;
    }
    while j < n {
        y[j] = L::fmac_e(y[j], a, x[j]);
        j += 1;
    }
}

/// In-place lanewise sigmoid (remainder elements run the scalar
/// instantiation of the same math, which is bitwise identical).
#[inline(always)]
pub(crate) fn sigmoid_f32<L: Lanes>(xs: &mut [f32]) {
    let n = xs.len();
    let mut j = 0;
    while j + L::WIDTH <= n {
        math::sigmoid_lanes::<L>(L::load(&xs[j..])).store(&mut xs[j..]);
        j += L::WIDTH;
    }
    for v in &mut xs[j..] {
        *v = math::sigmoid(*v);
    }
}

/// In-place lanewise tanh.
#[inline(always)]
pub(crate) fn tanh_f32<L: Lanes>(xs: &mut [f32]) {
    let n = xs.len();
    let mut j = 0;
    while j + L::WIDTH <= n {
        math::tanh_lanes::<L>(L::load(&xs[j..])).store(&mut xs[j..]);
        j += L::WIDTH;
    }
    for v in &mut xs[j..] {
        *v = math::tanh(*v);
    }
}

/// The LSTM memory-cell update `c = f⊙c + i⊙g; h = o⊙tanh(c)`, with the
/// cell products kept as plain mul/add (never contracted — matching the
/// historical scalar cell loop). Optionally writes `tanh(c)` to `tc` (the
/// training path caches it for backprop).
#[inline(always)]
pub(crate) fn lstm_cell_f32<L: Lanes>(
    i_g: &[f32],
    f_g: &[f32],
    o_g: &[f32],
    g_g: &[f32],
    c: &mut [f32],
    h: &mut [f32],
    mut tc: Option<&mut [f32]>,
) {
    let hd = c.len();
    debug_assert!(
        i_g.len() == hd && f_g.len() == hd && o_g.len() == hd && g_g.len() == hd && h.len() == hd
    );
    if let Some(tc) = tc.as_deref() {
        debug_assert_eq!(tc.len(), hd);
    }
    let mut j = 0;
    while j + L::WIDTH <= hd {
        let cv = L::load(&f_g[j..])
            .mul(L::load(&c[j..]))
            .add(L::load(&i_g[j..]).mul(L::load(&g_g[j..])));
        cv.store(&mut c[j..]);
        let t = math::tanh_lanes::<L>(cv);
        if let Some(tc) = tc.as_deref_mut() {
            t.store(&mut tc[j..]);
        }
        L::load(&o_g[j..]).mul(t).store(&mut h[j..]);
        j += L::WIDTH;
    }
    while j < hd {
        let cv = f_g[j] * c[j] + i_g[j] * g_g[j];
        c[j] = cv;
        let t = math::tanh(cv);
        if let Some(tc) = tc.as_deref_mut() {
            tc[j] = t;
        }
        h[j] = o_g[j] * t;
        j += 1;
    }
}

/// The x86 entry points: one module per backend, each compiled with that
/// backend's target features so the intrinsics (and the generic kernels,
/// which are `#[inline(always)]`) codegen with the right instruction set
/// even in portable builds.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
pub(crate) mod x86_entries {
    #![allow(unsafe_code, reason = "the `#[target_feature]` kernel entry points")]
    // SAFETY throughout this module: every `pub(crate) unsafe fn` below has
    // the single safety requirement that the CPU supports the module's
    // target features; the dispatcher in `lib.rs` only routes here after
    // `is_x86_feature_detected!` confirmed them.

    use crate::x86::*;

    macro_rules! backend_entries {
        ($mod_name:ident, $feat:literal, $f32ty:ty) => {
            pub(crate) mod $mod_name {
                use super::*;

                // SAFETY: module contract — `$feat` confirmed before dispatch.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn gemm_sparse_f32(
                    batch: usize,
                    x: &[f32],
                    k_dim: usize,
                    w: &[f32],
                    n: usize,
                    y: &mut [f32],
                ) {
                    super::super::gemm_sparse_f32::<$f32ty>(batch, x, k_dim, w, n, y)
                }

                // SAFETY: module contract — `$feat` confirmed before dispatch.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn gemm_dense_f32(
                    batch: usize,
                    x: &[f32],
                    k_dim: usize,
                    w: &[f32],
                    n: usize,
                    y: &mut [f32],
                    pack: &mut Vec<f32>,
                ) {
                    super::super::gemm_dense_f32::<$f32ty>(batch, x, k_dim, w, n, y, pack)
                }

                // SAFETY: module contract — `$feat` confirmed before dispatch.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn gemm_panels_f32(
                    batch: usize,
                    x: &[f32],
                    k_dim: usize,
                    n: usize,
                    y: &mut [f32],
                    panels: &[f32],
                ) {
                    super::super::gemm_panels_f32::<$f32ty>(batch, x, k_dim, n, y, panels)
                }

                // SAFETY: module contract — `$feat` confirmed before dispatch.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn outer_acc_f32(
                    batch: usize,
                    x: &[f32],
                    k_dim: usize,
                    dy: &[f32],
                    n: usize,
                    dw: &mut [f32],
                    pack: &mut Vec<f32>,
                ) {
                    super::super::outer_acc_f32::<$f32ty>(batch, x, k_dim, dy, n, dw, pack)
                }

                // SAFETY: module contract — `$feat` confirmed before dispatch.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn axpy_f32(a: f32, x: &[f32], y: &mut [f32]) {
                    super::super::axpy_f32::<$f32ty>(a, x, y)
                }

                // SAFETY: module contract — `$feat` confirmed before dispatch.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn sigmoid_f32(xs: &mut [f32]) {
                    super::super::sigmoid_f32::<$f32ty>(xs)
                }

                // SAFETY: module contract — `$feat` confirmed before dispatch.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn tanh_f32(xs: &mut [f32]) {
                    super::super::tanh_f32::<$f32ty>(xs)
                }

                // SAFETY: module contract — `$feat` confirmed before dispatch.
                #[target_feature(enable = $feat)]
                #[allow(clippy::too_many_arguments, reason = "mirrors `lstm_cell_f32_with`")]
                pub(crate) unsafe fn lstm_cell_f32(
                    i_g: &[f32],
                    f_g: &[f32],
                    o_g: &[f32],
                    g_g: &[f32],
                    c: &mut [f32],
                    h: &mut [f32],
                    tc: Option<&mut [f32]>,
                ) {
                    super::super::lstm_cell_f32::<$f32ty>(i_g, f_g, o_g, g_g, c, h, tc)
                }
            }
        };
    }

    backend_entries!(sse2_plain, "sse2", Sse2F32<false>);
    backend_entries!(sse2_fma, "sse2,fma", Sse2F32<true>);
    backend_entries!(avx2, "avx2,fma", Avx2F32);
    backend_entries!(avx512, "avx512f,fma", Avx512F32);
}
