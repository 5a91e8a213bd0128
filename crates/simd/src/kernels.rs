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
//! instantiation of the same code. The streaming kernels finish their
//! remainder (`n mod WIDTH`) with at most one half-width vector
//! ([`Lanes::Half`]) and run only what is left after it as element-level
//! ops of the *same* policy — on AVX-512 an 8-wide gradient row is one
//! AVX2 vector, not eight scalar ops — and the gate-and-cell pass runs
//! rows half a vector wide two to a full vector. The one-hot kernels hold
//! column chunks in registers across an index row's list of weight rows;
//! the dense gemm has no remainder path at all — it reads zero-padded weight panels
//! ([`PANEL`]) and runs full vector chains everywhere.

use crate::lanes::{Lanes, Pair, ScalarLane};
use crate::{math, Buckets, HeadGrads, HeadScratch};

/// Batch rows per register tile of the dense gemm on SSE2 and AVX2, and
/// per element-array tile on scalar: 4 output rows share each loaded weight
/// vector. 4 rows × 2 vectors is 8 accumulators, plus 2 weight vectors and
/// a broadcast — 11 of the 16 vector registers those backends have, where
/// [`WIDE_TILE`] rows would spill.
const LANE_TILE: usize = 4;

/// Batch rows per register tile on AVX-512, which has 32 vector registers:
/// 16 accumulators + 2 weight vectors + 1 broadcast = 19. Batches run 8-row
/// tiles first, then at most one [`LANE_TILE`], then single rows.
const WIDE_TILE: usize = 8;

/// `z[r] = bias + Σ_{k ∈ rows[r]} W[k]` for every index row: the one-hot
/// projection of the LSTM's stack input, each row given as the ascending
/// indices of its ones, `W` row-major with `n` columns. Each row is
/// [`add_rows`] started from the bias: one plain add per listed weight row
/// and element, in the order the row lists them — the chain of the dense
/// product over the row's ones, whose `1.0·w` rounds to `w` under either
/// FMA policy, with its zeros left out.
#[inline(always)]
pub(crate) fn onehot_bias_f32<'a, L: Lanes>(
    rows: impl Iterator<Item = &'a [u32]> + Clone,
    w: &[f32],
    n: usize,
    bias: &[f32],
    z: &mut [f32],
) {
    debug_assert_eq!(bias.len(), n);
    for (ks, z_row) in rows.zip(z.chunks_exact_mut(n)) {
        add_rows::<L>(ks, w, Some(bias), z_row);
    }
}

/// `y = start + Σ_{k ∈ ks} w[k]` over rows `ks` of a row-major `w` of
/// `y.len()` columns, one plain add per listed row and element in list
/// order; without `start` the chains start from `y` itself. Column chunks
/// of 4, 2 and 1 vectors each hold their outputs in registers across the
/// whole list; the columns left after them run element by element.
#[inline(always)]
fn add_rows<L: Lanes>(ks: &[u32], w: &[f32], start: Option<&[f32]>, y: &mut [f32]) {
    let n = y.len();
    let mut j = 0;
    while j + 4 * L::WIDTH <= n {
        j = add_rows_chunk::<L, 4>(ks, w, start, y, j);
    }
    if j + 2 * L::WIDTH <= n {
        j = add_rows_chunk::<L, 2>(ks, w, start, y, j);
    }
    if j + L::WIDTH <= n {
        j = add_rows_chunk::<L, 1>(ks, w, start, y, j);
    }
    for (jj, yj) in y.iter_mut().enumerate().skip(j) {
        let mut acc = start.map_or(*yj, |s| s[jj]);
        for &k in ks {
            acc += w[k as usize * n + jj];
        }
        *yj = acc;
    }
}

/// Columns `j .. j + C·WIDTH` of [`add_rows`]: `C` accumulators loaded
/// once (from `start`, or else from `y`), one add per listed row, one
/// store; returns the next column.
#[inline(always)]
fn add_rows_chunk<L: Lanes, const C: usize>(
    ks: &[u32],
    w: &[f32],
    start: Option<&[f32]>,
    y: &mut [f32],
    j: usize,
) -> usize {
    let n = y.len();
    let width = C * L::WIDTH;
    let mut acc = [L::splat(0.0); C];
    for (c, a) in acc.iter_mut().enumerate() {
        let at = j + c * L::WIDTH;
        // A branch, not a select of the source slice: the select cost
        // the inference product ≈ 7 % in an in-process A/B.
        *a = match start {
            Some(start) => L::load(&start[at..]),
            None => L::load(&y[at..]),
        };
    }
    for &k in ks {
        let at = k as usize * n + j;
        let wr = &w[at..at + width];
        for (c, a) in acc.iter_mut().enumerate() {
            *a = a.add(L::load(&wr[c * L::WIDTH..]));
        }
    }
    for (c, a) in acc.iter().enumerate() {
        a.store(&mut y[j + c * L::WIDTH..]);
    }
    j + width
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
/// 32 columns is two AVX-512 `f32` vectors — the width of one register
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
/// copies nothing. With `bias`, the accumulators start from it instead of
/// from `y`: `y[b] = bias + x[b]ᵀ·W`.
#[inline(always)]
pub(crate) fn gemm_panels_f32<L: Lanes>(
    batch: usize,
    x: &[f32],
    k_dim: usize,
    n: usize,
    bias: Option<&[f32]>,
    y: &mut [f32],
    panels: &[f32],
) {
    debug_assert_eq!(x.len(), batch * k_dim);
    debug_assert_eq!(y.len(), batch * n);
    debug_assert_eq!(panels.len(), panels_len(k_dim, n));
    debug_assert!(bias.is_none_or(|b| b.len() == n));
    if k_dim == 0 {
        if let (Some(bias), true) = (bias, n > 0) {
            y.chunks_exact_mut(n)
                .for_each(|row| row.copy_from_slice(bias));
        }
        return;
    }
    for (p, panel) in panels.chunks_exact(k_dim * PANEL).enumerate() {
        let j0 = p * PANEL;
        panel_tile::<L>(batch, x, k_dim, n, bias, y, j0, PANEL.min(n - j0), panel);
    }
}

/// Dense gemm over a row-major operand that is new on every call: `y[b] +=
/// x[b]ᵀ·W` (the gate gradients of the dense weight-gradient product).
/// When the `batch` rows fit one register tile on a vector backend, every
/// full panel is read in place, its row `k` being the [`PANEL`] columns of
/// `W[k]` from `j0` on; otherwise, and for the ragged last panel, each
/// panel is packed into the thread's reusable `pack` buffer first. Both
/// run the same tiles as the pre-packed entry ([`panel_tile_rows`]), so
/// the entries cannot drift apart.
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
    if k_dim == 0 {
        return;
    }
    let w_tile = row_major_tile(w, n);
    if pack.len() < k_dim * PANEL {
        pack.resize(k_dim * PANEL, 0.0);
    }
    let panel = &mut pack[..k_dim * PANEL];
    // Rows that fit one register tile stream each panel once, so packing
    // it would copy it to read it once; more rows re-read the panel per
    // tile, from the pack's contiguous rows rather than at a stride of `n`.
    let in_place = L::WIDTH > 1 && batch <= if L::WIDTH == 16 { WIDE_TILE } else { LANE_TILE };
    let mut j0 = 0;
    while j0 < n {
        let valid = PANEL.min(n - j0);
        if valid == PANEL && in_place {
            // A full panel is read in place: row `k` is `W[k][j0 ..]`.
            let rows = w[j0..].chunks(n).map(|row| &row[..PANEL]);
            panel_tile_rows::<L, _>(batch, x, k_dim, n, None, y, j0, valid, rows);
        } else {
            fill_panel(panel, j0, valid, &w_tile);
            panel_tile::<L>(batch, x, k_dim, n, None, y, j0, valid, panel);
        }
        j0 += PANEL;
    }
}

/// `dw += Xᵀ·dY` for dense rows of `x` read in place: contraction row `b`
/// of the product is `x_rows`' `b`-th row (`k_dim` wide) and row `b` of
/// `dy` (`batch × n`), and `dw` is `k_dim × n`, row-major. Per element
/// `dw[i][j]` the chain continues from its value and takes one `fmac` per
/// row, ascending `b`, of `x_b[i]·dy[b][j]` — the chain of
/// [`gemm_dense_f32`] over `Xᵀ` as its lanes and `dY` as its weights, with
/// no transposed copy of `x`.
///
/// `dY` is new on every call, so it is the operand read in panels
/// ([`PANEL`] columns): in place when `dw`'s rows fit one register tile,
/// which then streams each panel once, else packed into `pack` (grown to
/// `batch × PANEL`) and re-read by every tile of rows. The register tiles
/// are those of the dense gemm — 8, 4, then 1 output rows × 1 or 2 vectors
/// ([`outer_dense_tile`]), with a broadcast of `x_b[i]` where the gemm
/// broadcasts `x[i][b]`.
#[inline(always)]
pub(crate) fn outer_dense_f32<'a, L: Lanes>(
    x_rows: impl Iterator<Item = &'a [f32]> + Clone,
    k_dim: usize,
    dy: &[f32],
    n: usize,
    dw: &mut [f32],
    pack: &mut Vec<f32>,
) {
    let batch = dy.len() / n;
    debug_assert_eq!(dw.len(), k_dim * n);
    if batch == 0 || k_dim == 0 {
        return;
    }
    let w_tile = row_major_tile(dy, n);
    if pack.len() < batch * PANEL {
        pack.resize(batch * PANEL, 0.0);
    }
    let panel = &mut pack[..batch * PANEL];
    let in_place = L::WIDTH > 1 && k_dim <= if L::WIDTH == 16 { WIDE_TILE } else { LANE_TILE };
    let mut j0 = 0;
    while j0 < n {
        let valid = PANEL.min(n - j0);
        if valid == PANEL && in_place {
            let rows = dy[j0..].chunks(n).map(|row| &row[..PANEL]);
            outer_dense_panel::<L>(x_rows.clone(), k_dim, dw, n, j0, valid, rows);
        } else {
            fill_panel(panel, j0, valid, &w_tile);
            let rows = panel.chunks_exact(PANEL);
            outer_dense_panel::<L>(x_rows.clone(), k_dim, dw, n, j0, valid, rows);
        }
        j0 += PANEL;
    }
}

/// Columns `j0 .. j0 + valid` of [`outer_dense_f32`] over one panel of
/// `dY`, given as its `batch` rows. Vector backends run [`outer_dense_tile`]s
/// of 2 vectors (1 where one covers a ragged sub-tile) down `dw`'s rows:
/// [`WIDE_TILE`] at a time on AVX-512, then [`LANE_TILE`], then single rows.
/// The scalar backend holds a [`PANEL`]-wide element array per row instead.
#[inline(always)]
#[allow(clippy::too_many_arguments, reason = "a tile's shape and operands")]
fn outer_dense_panel<'a, 'w, L: Lanes>(
    x_rows: impl Iterator<Item = &'a [f32]> + Clone,
    k_dim: usize,
    dw: &mut [f32],
    n: usize,
    j0: usize,
    valid: usize,
    rows: impl Iterator<Item = &'w [f32]> + Clone,
) {
    if L::WIDTH == 1 {
        for i in 0..k_dim {
            let at = i * n + j0;
            let mut acc = [0.0; PANEL];
            acc[..valid].copy_from_slice(&dw[at..at + valid]);
            for (x, wr) in x_rows.clone().zip(rows.clone()) {
                let xv = x[i];
                for (a, &wj) in acc.iter_mut().zip(&wr[..PANEL]) {
                    *a = L::fmac_e(*a, xv, wj);
                }
            }
            dw[at..at + valid].copy_from_slice(&acc[..valid]);
        }
        return;
    }
    let sub = 2 * L::WIDTH;
    let mut s = 0;
    while s < valid {
        let (at, cols) = (j0 + s, sub.min(valid - s));
        let (x, rows) = (x_rows.clone(), rows.clone());
        if cols <= L::WIDTH {
            outer_dense_rows::<L, 1>(x, k_dim, dw, n, at, cols, rows, s);
        } else {
            outer_dense_rows::<L, 2>(x, k_dim, dw, n, at, cols, rows, s);
        }
        s += sub;
    }
}

/// One sub-tile of [`outer_dense_panel`] (columns `at .. at + cols` of
/// `dw`, `s ..` of the panel) down all `k_dim` rows of `dw`.
#[inline(always)]
#[allow(clippy::too_many_arguments, reason = "a tile's shape and operands")]
fn outer_dense_rows<'a, 'w, L: Lanes, const V: usize>(
    x_rows: impl Iterator<Item = &'a [f32]> + Clone,
    k_dim: usize,
    dw: &mut [f32],
    n: usize,
    at: usize,
    cols: usize,
    rows: impl Iterator<Item = &'w [f32]> + Clone,
    s: usize,
) {
    let mut i0 = 0;
    // Only AVX-512 (16 lanes) has the 32 registers an 8-row tile needs.
    while L::WIDTH == 16 && i0 + WIDE_TILE <= k_dim {
        let (x, w, y) = (x_rows.clone(), rows.clone(), &mut dw[i0 * n + at..]);
        outer_dense_tile::<L, WIDE_TILE, V>(x, i0, y, n, cols, w, s);
        i0 += WIDE_TILE;
    }
    while i0 + LANE_TILE <= k_dim {
        let (x, w, y) = (x_rows.clone(), rows.clone(), &mut dw[i0 * n + at..]);
        outer_dense_tile::<L, LANE_TILE, V>(x, i0, y, n, cols, w, s);
        i0 += LANE_TILE;
    }
    for i in i0..k_dim {
        let (x, w, y) = (x_rows.clone(), rows.clone(), &mut dw[i * n + at..]);
        outer_dense_tile::<L, 1, V>(x, i, y, n, cols, w, s);
    }
}

/// `R` rows × `V` vectors of [`outer_dense_f32`]: rows `i0 .. i0 + R` of
/// `dw` (from `y[0]`, `n` apart), columns `s .. s + cols` of the panel. The
/// accumulators are loaded once, take one `fmac` per contraction row `b`
/// — the weight vectors of `dY`'s row `b` against `x_b[i0 + r]` broadcast —
/// and are stored once.
#[inline(always)]
#[allow(clippy::too_many_arguments, reason = "a tile's shape and operands")]
fn outer_dense_tile<'a, 'w, L: Lanes, const R: usize, const V: usize>(
    x_rows: impl Iterator<Item = &'a [f32]>,
    i0: usize,
    y: &mut [f32],
    n: usize,
    cols: usize,
    rows: impl Iterator<Item = &'w [f32]>,
    s: usize,
) {
    let sub = V * L::WIDTH;
    // Hoists the per-row slice checks out of the loop below.
    assert!(s + sub <= PANEL, "register tile wider than a panel");
    let mut acc = load_rows::<L, R, V>(y, n, cols);
    for (x, wr) in x_rows.zip(rows) {
        let xs = &x[i0..i0 + R];
        let wr = &wr[s..s + sub];
        let w: [L; V] = core::array::from_fn(|v| L::load(&wr[v * L::WIDTH..]));
        for (a, &xi) in acc.iter_mut().zip(xs) {
            let xv = L::splat(xi);
            for (av, &wv) in a.iter_mut().zip(&w) {
                *av = av.fmac(xv, wv);
            }
        }
    }
    store_rows::<L, R, V>(acc, y, n, cols);
}

/// Loads the `V`-vector accumulators of `R` output rows, `n` apart in
/// `y`. A ragged sub-tile (`cols < V·WIDTH`) is staged through a
/// zero-padded stack buffer, so the padding lanes start at zero and never
/// read `y`; every row is copied in before the first accumulator is
/// loaded, so the copies spill no live register.
#[inline(always)]
fn load_rows<L: Lanes, const R: usize, const V: usize>(
    y: &[f32],
    n: usize,
    cols: usize,
) -> [[L; V]; R] {
    if cols == V * L::WIDTH {
        core::array::from_fn(|r| core::array::from_fn(|v| L::load(&y[r * n + v * L::WIDTH..])))
    } else {
        let mut buf = [[0.0; PANEL]; R];
        for (r, row) in buf.iter_mut().enumerate() {
            row[..cols].copy_from_slice(&y[r * n..r * n + cols]);
        }
        core::array::from_fn(|r| core::array::from_fn(|v| L::load(&buf[r][v * L::WIDTH..])))
    }
}

/// Stores `R` rows of `V`-vector accumulators back to `y`, only their
/// `cols` valid columns: the padding lanes of a ragged sub-tile die in a
/// stack buffer, which takes every row before the first copy out.
#[inline(always)]
fn store_rows<L: Lanes, const R: usize, const V: usize>(
    acc: [[L; V]; R],
    y: &mut [f32],
    n: usize,
    cols: usize,
) {
    if cols == V * L::WIDTH {
        for (r, a) in acc.into_iter().enumerate() {
            for (v, av) in a.into_iter().enumerate() {
                av.store(&mut y[r * n + v * L::WIDTH..]);
            }
        }
    } else {
        let mut buf = [[0.0; PANEL]; R];
        for (row, a) in buf.iter_mut().zip(acc) {
            for (v, av) in a.into_iter().enumerate() {
                av.store(&mut row[v * L::WIDTH..]);
            }
        }
        for (r, row) in buf.iter().enumerate() {
            y[r * n..r * n + cols].copy_from_slice(&row[..cols]);
        }
    }
}

/// The one dense-gemm tile routine: accumulates columns
/// `j0 .. j0 + valid` of `y` over one `k_dim × PANEL` weight panel, the
/// accumulators started from `bias` (its entries for those columns) if
/// given, else loaded from `y`.
///
/// Each 2-vector sub-tile of the panel runs [`row_tile`]s down the batch
/// ([`sub_tile`]); a ragged one that one vector covers — the 8 gate
/// columns of a 1×8 model's `dX = dZ·Wᵀ` on AVX-512 — runs 1-vector
/// tiles, half the `fmac`s. A ragged panel (`valid < PANEL`) runs the
/// *same* vector chains over its zero-padded rows and stores only the
/// valid columns — there is no per-element tail. Per output element the op sequence is therefore
/// always "start value, then ascending `k`, this lane type's `fmac`",
/// whatever the tile height, which keeps SIMD ≡ scalar and batched ≡
/// per-record bitwise.
///
/// History of the row count, on the 2-vCPU `avx512+fma` reference host.
/// An earlier 12-row × 2-vector tile over a *transposed `x` pack* gave
/// +0–7 % on the 96×256×1024 product, but −20 % at batch 16 and −9 % on
/// the ledger's `train_targets_s`, so the tile stayed at 4 rows. The
/// 8-row tile reads each `x` row in place and packs nothing, which is what
/// differs: the 96×256×1024 product went from 112 to 127 GFLOP/s, and a
/// whole 2×256 round ran 1.05–1.11× at 96 lanes, 1.17–1.19× at 16 and
/// 1.20–1.28× at 8 (the trainer's per-timestep products), level at one
/// lane.
#[inline(always)]
#[allow(clippy::too_many_arguments, reason = "a tile's shape and operands")]
fn panel_tile<L: Lanes>(
    batch: usize,
    x: &[f32],
    k_dim: usize,
    n: usize,
    bias: Option<&[f32]>,
    y: &mut [f32],
    j0: usize,
    valid: usize,
    panel: &[f32],
) {
    debug_assert_eq!(panel.len(), k_dim * PANEL);
    debug_assert!(0 < valid && valid <= PANEL && j0 + valid <= n);
    if L::WIDTH == 1 {
        return panel_tile_scalar::<L>(batch, x, k_dim, n, bias, y, j0, valid, panel);
    }
    let rows = panel.chunks_exact(PANEL);
    panel_tile_rows::<L, _>(batch, x, k_dim, n, bias, y, j0, valid, rows);
}

/// [`panel_tile`] on a vector backend, over a panel given as its `k_dim`
/// weight rows, each at least [`PANEL`] wide: the rows of a packed panel,
/// or the panel's columns of a row-major operand read in place.
#[inline(always)]
#[allow(clippy::too_many_arguments, reason = "a tile's shape and operands")]
fn panel_tile_rows<'a, L: Lanes, I: Iterator<Item = &'a [f32]> + Clone>(
    batch: usize,
    x: &[f32],
    k_dim: usize,
    n: usize,
    bias: Option<&[f32]>,
    y: &mut [f32],
    j0: usize,
    valid: usize,
    rows: I,
) {
    let sub = 2 * L::WIDTH;
    let mut s = 0;
    // Sub-tiles that lie wholly in the padding are skipped.
    while s < valid {
        let tile = SubTile {
            k_dim,
            n,
            at: j0 + s,
            cols: sub.min(valid - s),
            rows: rows.clone(),
            s,
        };
        if tile.cols <= L::WIDTH {
            tile.run::<L, 1>(batch, x, bias, y);
        } else {
            tile.run::<L, 2>(batch, x, bias, y);
        }
        s += sub;
    }
}

/// Columns `s .. s + cols` of one `k_dim × PANEL` weight panel, given as
/// its weight rows, which are columns `at .. at + cols` of an `n`-column
/// product.
struct SubTile<I> {
    k_dim: usize,
    n: usize,
    at: usize,
    cols: usize,
    rows: I,
    s: usize,
}

impl<'a, I: Iterator<Item = &'a [f32]> + Clone> SubTile<I> {
    /// Runs [`row_tile`]s of `V` vectors down the batch: [`WIDE_TILE`]
    /// rows at a time on AVX-512 (the only backend with 32 vector
    /// registers), then [`LANE_TILE`] rows, then single rows.
    #[inline(always)]
    fn run<L: Lanes, const V: usize>(
        &self,
        batch: usize,
        x: &[f32],
        bias: Option<&[f32]>,
        y: &mut [f32],
    ) {
        let (k_dim, n, at, cols) = (self.k_dim, self.n, self.at, self.cols);
        let start = bias.map(|b| load_rows::<L, 1, V>(&b[at..], 0, cols)[0]);
        let (rows, s) = (&self.rows, self.s);
        let mut b0 = 0;
        // Only AVX-512 (16 lanes) has the 32 registers an 8-row tile needs.
        while L::WIDTH == 16 && b0 + WIDE_TILE <= batch {
            let (xs, ys) = (&x[b0 * k_dim..], &mut y[b0 * n + at..]);
            row_tile::<L, WIDE_TILE, V>(xs, k_dim, ys, n, cols, rows.clone(), s, start);
            b0 += WIDE_TILE;
        }
        while b0 + LANE_TILE <= batch {
            let (xs, ys) = (&x[b0 * k_dim..], &mut y[b0 * n + at..]);
            row_tile::<L, LANE_TILE, V>(xs, k_dim, ys, n, cols, rows.clone(), s, start);
            b0 += LANE_TILE;
        }
        for b in b0..batch {
            let (xs, ys) = (&x[b * k_dim..], &mut y[b * n + at..]);
            row_tile::<L, 1, V>(xs, k_dim, ys, n, cols, rows.clone(), s, start);
        }
    }
}

/// `R` batch rows × `V` vectors of the dense gemm: columns `s .. s +
/// cols` of one `k_dim × PANEL` panel, given as its `k_dim` weight rows,
/// for the first `R` rows of `x` (each `k_dim` long, read in place), whose
/// outputs start at `y[0]` with a row stride of `n`. The `V·R` accumulators start from `start` (the bias of
/// those columns) or else are loaded from `y` once, run one ascending-`k`
/// `fmac` chain each — every loaded weight vector serves all `R` rows —
/// and are stored once.
#[inline(always)]
#[allow(clippy::too_many_arguments, reason = "a tile's shape and operands")]
fn row_tile<'a, L: Lanes, const R: usize, const V: usize>(
    x: &[f32],
    k_dim: usize,
    y: &mut [f32],
    n: usize,
    cols: usize,
    rows: impl Iterator<Item = &'a [f32]>,
    s: usize,
    start: Option<[L; V]>,
) {
    let sub = V * L::WIDTH;
    // Hoists the per-`k` slice checks out of the loop below.
    assert!(s + sub <= PANEL, "register tile wider than a panel");
    let xs: [&[f32]; R] = core::array::from_fn(|r| &x[r * k_dim..][..k_dim]);
    let mut acc = match start {
        Some(start) => [start; R],
        None => load_rows::<L, R, V>(y, n, cols),
    };
    for (k, wr) in rows.enumerate() {
        let wr = &wr[s..s + sub];
        let mut w = [L::splat(0.0); V];
        for (v, wv) in w.iter_mut().enumerate() {
            *wv = L::load(&wr[v * L::WIDTH..]);
        }
        for (a, xr) in acc.iter_mut().zip(xs) {
            let xv = L::splat(xr[k]);
            for (av, &wv) in a.iter_mut().zip(&w) {
                *av = av.fmac(xv, wv);
            }
        }
    }
    store_rows::<L, R, V>(acc, y, n, cols);
}

/// [`panel_tile`] for the scalar backend: [`PANEL`]-wide element-array
/// accumulators instead of two one-element "vectors". Per output element
/// the start value, `k` order and `fmac` policy are identical to the
/// vector tiles, so results stay bitwise equal — this shape exists so
/// non-SIMD targets (and the force-scalar CI job) amortize the `x`
/// re-streaming across a whole panel and hand LLVM's auto-vectorizer a
/// fixed-width inner loop.
#[inline(always)]
#[allow(clippy::too_many_arguments, reason = "a tile's shape and operands")]
fn panel_tile_scalar<L: Lanes>(
    batch: usize,
    x: &[f32],
    k_dim: usize,
    n: usize,
    bias: Option<&[f32]>,
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
            row[..valid].copy_from_slice(bias.map_or(&y[at..at + valid], |b| &b[j0..j0 + valid]));
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
        acc[..valid].copy_from_slice(bias.map_or(&y[at..at + valid], |b| &b[j0..j0 + valid]));
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

/// Rows per block of [`rank_panels_f32`]: a block's target logits live in
/// a stack array while every panel passes over the block's rows, so up to
/// this many rows stream the weights once.
const RANK_BLOCK: usize = 128;

/// The 1-based rank of each row's target column among the logits of a
/// dense head, without storing the logits: row `b`'s logits are `l =
/// bias + x[b]ᵀ·W` (`W` panel-major, `n` columns) and, for `t =
/// targets[b]`, `ranks[b]` becomes `1 + #{j : l_j > l_t} + #{j < t : l_j
/// == l_t}` under ordered compares — the rank a scan of the written logits
/// gives, ties broken by lower column.
///
/// Per block of up to [`RANK_BLOCK`] rows, each row's `l_t` comes first
/// ([`target_logits`]): one element chain, `L::fmac_e` from `bias[t]` in
/// ascending `k` — the operation sequence every lane of the gemm runs for
/// its column, so `l_t` has the bits the tile computes for column `t`.
/// Then every panel runs the register tiles of [`panel_tile`] (8, 4, then
/// 1 rows) with two changes ([`rank_panel`]): the accumulators start from
/// the bias instead of a loaded `y` block, and the tile ends in a
/// compare-and-popcount epilogue that masks off the padding columns
/// instead of a store. Per logit the op sequence is the gemm's, so the
/// count equals ranking [`gemm_panels_f32`]'s output started from the bias.
#[inline(always)]
#[allow(clippy::too_many_arguments, reason = "a head's shape and operands")]
pub(crate) fn rank_panels_f32<L: Lanes>(
    batch: usize,
    x: &[f32],
    k_dim: usize,
    n: usize,
    panels: &[f32],
    bias: &[f32],
    targets: &[usize],
    ranks: &mut [u32],
) {
    debug_assert!(k_dim > 0 && x.len() == batch * k_dim);
    debug_assert_eq!(panels.len(), panels_len(k_dim, n));
    debug_assert!(bias.len() == n && targets.len() == batch && ranks.len() == batch);
    let mut lt = [0.0; RANK_BLOCK];
    let mut b0 = 0;
    while b0 < batch {
        let rows = RANK_BLOCK.min(batch - b0);
        let x = &x[b0 * k_dim..(b0 + rows) * k_dim];
        let targets = &targets[b0..b0 + rows];
        let ranks = &mut ranks[b0..b0 + rows];
        let lt = &mut lt[..rows];
        target_logits::<L>(x, k_dim, panels, bias, targets, lt);
        ranks.fill(1);
        for (p, panel) in panels.chunks_exact(k_dim * PANEL).enumerate() {
            let j0 = p * PANEL;
            let valid = PANEL.min(n - j0);
            rank_panel::<L>(x, j0, valid, panel, bias, lt, targets, ranks);
        }
        b0 += rows;
    }
}

/// Each row's target logit `l_t = bias[t] + x·W[.., t]`, read from the
/// target's panel column with a stride of one panel row. Rows go in tiles
/// of 8, 4 and 1, whose chains run interleaved ([`target_chains`]).
#[inline(always)]
fn target_logits<L: Lanes>(
    x: &[f32],
    k_dim: usize,
    panels: &[f32],
    bias: &[f32],
    targets: &[usize],
    out: &mut [f32],
) {
    let rows = targets.len();
    let mut b0 = 0;
    while b0 + WIDE_TILE <= rows {
        target_chains::<L, WIDE_TILE>(b0, x, k_dim, panels, bias, targets, out);
        b0 += WIDE_TILE;
    }
    if b0 + LANE_TILE <= rows {
        target_chains::<L, LANE_TILE>(b0, x, k_dim, panels, bias, targets, out);
        b0 += LANE_TILE;
    }
    for b in b0..rows {
        target_chains::<L, 1>(b, x, k_dim, panels, bias, targets, out);
    }
}

/// The target-logit chains of rows `b0 .. b0 + R`, advanced together one
/// `k` at a time so their latencies overlap.
#[inline(always)]
fn target_chains<L: Lanes, const R: usize>(
    b0: usize,
    x: &[f32],
    k_dim: usize,
    panels: &[f32],
    bias: &[f32],
    targets: &[usize],
    out: &mut [f32],
) {
    let targets = &targets[b0..b0 + R];
    let xs: [&[f32]; R] = core::array::from_fn(|r| &x[(b0 + r) * k_dim..][..k_dim]);
    // Column `t` of the weights: element `k` sits `k` panel rows in.
    let ws: [&[f32]; R] = core::array::from_fn(|r| {
        let t = targets[r];
        &panels[(t / PANEL) * k_dim * PANEL + t % PANEL..][..(k_dim - 1) * PANEL + 1]
    });
    let mut acc: [f32; R] = core::array::from_fn(|r| bias[targets[r]]);
    for k in 0..k_dim {
        for ((a, xr), wr) in acc.iter_mut().zip(xs).zip(ws) {
            *a = L::fmac_e(*a, xr[k], wr[k * PANEL]);
        }
    }
    out[b0..b0 + R].copy_from_slice(&acc);
}

/// [`rank_panels_f32`]'s pass over one `k_dim × PANEL` panel: adds to
/// each row's rank the valid columns `j0 .. j0 + valid` that rank above
/// its target. The tile walk of [`panel_tile`]: 2-vector sub-tiles, each
/// down the rows in tiles of 8 (AVX-512), 4 and 1.
#[inline(always)]
#[allow(clippy::too_many_arguments, reason = "a tile's shape and operands")]
fn rank_panel<L: Lanes>(
    x: &[f32],
    j0: usize,
    valid: usize,
    panel: &[f32],
    bias: &[f32],
    lt: &[f32],
    targets: &[usize],
    ranks: &mut [u32],
) {
    debug_assert!(0 < valid && valid <= PANEL && j0 + valid <= bias.len());
    let rows = targets.len();
    if L::WIDTH == 1 {
        let tile = ScalarRankTile {
            panel,
            j0,
            valid,
            bias,
            lt,
            targets,
        };
        let mut b0 = 0;
        while b0 + LANE_TILE <= rows {
            tile.run::<L, LANE_TILE>(b0, x, ranks);
            b0 += LANE_TILE;
        }
        for b in b0..rows {
            tile.run::<L, 1>(b, x, ranks);
        }
        return;
    }
    let sub = 2 * L::WIDTH;
    let mut s = 0;
    // Sub-tiles that lie wholly in the padding are skipped.
    while s < valid {
        let cols = sub.min(valid - s);
        let col = j0 + s;
        let [start] = load_rows::<L, 1, 2>(&bias[col..], 0, cols);
        let tile = RankTile {
            panel,
            s,
            start,
            col,
            cols,
            lt,
            targets,
        };
        let mut b0 = 0;
        // Only AVX-512 (16 lanes) has the 32 registers an 8-row tile needs.
        while L::WIDTH == 16 && b0 + WIDE_TILE <= rows {
            tile.run::<WIDE_TILE>(b0, x, ranks);
            b0 += WIDE_TILE;
        }
        while b0 + LANE_TILE <= rows {
            tile.run::<LANE_TILE>(b0, x, ranks);
            b0 += LANE_TILE;
        }
        for b in b0..rows {
            tile.run::<1>(b, x, ranks);
        }
        s += sub;
    }
}

/// One 2-vector sub-tile of a panel as [`rank_panel`] runs it: columns
/// `s .. s + cols` of `panel`, which are head columns `col .. col + cols`,
/// with the bias of those columns in `start`, for rows whose target
/// columns and logits are `targets` and `lt`.
struct RankTile<'a, L: Lanes> {
    panel: &'a [f32],
    s: usize,
    start: [L; 2],
    col: usize,
    cols: usize,
    lt: &'a [f32],
    targets: &'a [usize],
}

impl<L: Lanes> RankTile<'_, L> {
    /// Rows `b0 .. b0 + R` of `x` (each `k_dim` long, read in place)
    /// through the sub-tile: the `2·R` accumulators start from the bias
    /// and run [`row_tile`]'s ascending-`k` `fmac` chains, then each row
    /// adds to its rank the popcount of the valid columns above its target
    /// logit plus the tied ones left of its target.
    #[inline(always)]
    fn run<const R: usize>(&self, b0: usize, x: &[f32], ranks: &mut [u32]) {
        let sub = 2 * L::WIDTH;
        // Hoists the per-`k` slice checks out of the loop below.
        assert!(self.s + sub <= PANEL, "register tile wider than a panel");
        let k_dim = self.panel.len() / PANEL;
        let xs: [&[f32]; R] = core::array::from_fn(|r| &x[(b0 + r) * k_dim..][..k_dim]);
        let mut acc = [self.start; R];
        for (k, wr) in self.panel.chunks_exact(PANEL).enumerate() {
            let wr = &wr[self.s..self.s + sub];
            let w0 = L::load(wr);
            let w1 = L::load(&wr[L::WIDTH..]);
            for (a, xr) in acc.iter_mut().zip(xs) {
                let v = L::splat(xr[k]);
                a[0] = a[0].fmac(v, w0);
                a[1] = a[1].fmac(v, w1);
            }
        }
        let valid = low_bits(self.cols);
        let rows = b0..b0 + R;
        let (lt, targets) = (&self.lt[rows.clone()], &self.targets[rows.clone()]);
        for (((rank, [a0, a1]), &lt), &t) in ranks[rows].iter_mut().zip(acc).zip(lt).zip(targets) {
            let lt = L::splat(lt);
            let above = a0.gt_mask(lt) | a1.gt_mask(lt) << L::WIDTH;
            let tied = a0.eq_mask(lt) | a1.eq_mask(lt) << L::WIDTH;
            // Columns `col + c` left of the target: `c < t - col`.
            let left = low_bits(t.saturating_sub(self.col));
            *rank += (above & valid).count_ones() + (tied & valid & left).count_ones();
        }
    }
}

/// A mask of the low `m` bits (all 32 from `m = 32` on).
#[inline(always)]
fn low_bits(m: usize) -> u32 {
    if m >= 32 {
        u32::MAX
    } else {
        (1 << m) - 1
    }
}

/// [`RankTile`] for the scalar backend, over a whole panel: columns `j0 ..
/// j0 + valid` of the head, in [`PANEL`]-wide element-array accumulators
/// as [`panel_tile_scalar`] runs them.
struct ScalarRankTile<'a> {
    panel: &'a [f32],
    j0: usize,
    valid: usize,
    bias: &'a [f32],
    lt: &'a [f32],
    targets: &'a [usize],
}

impl ScalarRankTile<'_> {
    /// Rows `b0 .. b0 + R` of `x` through the panel: the accumulators
    /// start from the bias and run the ascending-`k` element chains, then
    /// each valid column is compared with the row's target logit.
    #[inline(always)]
    fn run<L: Lanes, const R: usize>(&self, b0: usize, x: &[f32], ranks: &mut [u32]) {
        let k_dim = self.panel.len() / PANEL;
        let xs: [&[f32]; R] = core::array::from_fn(|r| &x[(b0 + r) * k_dim..][..k_dim]);
        // Padding columns start at zero and are never counted.
        let mut start = [0.0; PANEL];
        start[..self.valid].copy_from_slice(&self.bias[self.j0..self.j0 + self.valid]);
        let mut acc = [start; R];
        for (k, wr) in self.panel.chunks_exact(PANEL).enumerate() {
            #[expect(
                clippy::expect_used,
                reason = "`chunks_exact(PANEL)` yields slices of exactly PANEL elements"
            )]
            let ws: &[f32; PANEL] = wr.try_into().expect("weight panel row");
            for (a, xr) in acc.iter_mut().zip(xs) {
                let xv = xr[k];
                for (aj, &wj) in a.iter_mut().zip(ws.iter()) {
                    *aj = L::fmac_e(*aj, xv, wj);
                }
            }
        }
        let rows = b0..b0 + R;
        let (lt, targets) = (&self.lt[rows.clone()], &self.targets[rows.clone()]);
        for (((rank, a), &lt), &t) in ranks[rows].iter_mut().zip(&acc).zip(lt).zip(targets) {
            let count = a[..self.valid]
                .iter()
                .enumerate()
                .filter(|&(c, &l)| l > lt || (l == lt && self.j0 + c < t))
                .count();
            *rank += count as u32;
        }
    }
}

/// `dw[k] += Σ_{b : k ∈ rows[b]} dy[b]` — the weight gradient `dW += Xᵀ·dY`
/// of a one-hot input given as index rows — for a row-major `dw` of `k_dim`
/// rows and `n` columns.
///
/// A counting sort puts every listed index into its input feature's
/// bucket: one pass over the rows counts the entries per feature, a second
/// writes each entry's row at its bucket's cursor, so every bucket lists
/// its rows in ascending `b`. Then each feature's `dW` row adds its bucket
/// of `dY` rows in registers ([`add_rows`]), loaded and stored once. Per
/// output element the `b` contributions therefore run in ascending order,
/// one plain add each — the dense product's chain over the ones of `X`,
/// with its zeros left out — and a feature costs one pass over the `dY`
/// rows that list it, with no transpose.
#[inline(always)]
pub(crate) fn onehot_outer_acc_f32<'a, L: Lanes>(
    rows: impl Iterator<Item = &'a [u32]> + Clone,
    k_dim: usize,
    dy: &[f32],
    n: usize,
    dw: &mut [f32],
    buckets: &mut Buckets,
) {
    debug_assert_eq!(dw.len(), k_dim * n);
    let Buckets { ends, rows: listed } = buckets;
    // Counts land one slot up, so the prefix sum leaves `ends[k]` at the
    // start of bucket `k`; the placement pass then walks it to its end.
    ends.clear();
    ends.resize(k_dim + 1, 0);
    for ks in rows.clone() {
        for &k in ks {
            ends[k as usize + 1] += 1;
        }
    }
    for k in 0..k_dim {
        ends[k + 1] += ends[k];
    }
    let entries = ends[k_dim];
    if listed.len() < entries {
        listed.resize(entries, 0);
    }
    for (b, ks) in (0u32..).zip(rows) {
        for &k in ks {
            let at = ends[k as usize];
            listed[at] = b;
            ends[k as usize] = at + 1;
        }
    }
    let mut begin = 0;
    for (&end, dw_row) in ends[..k_dim].iter().zip(dw.chunks_exact_mut(n)) {
        if begin < end {
            add_rows::<L>(&listed[begin..end], dy, None, dw_row);
        }
        begin = end;
    }
}

/// `out[j] += Σ_r x[r][j]` over the rows of a row-major block of `out.len()`
/// columns — a bias gradient. Per column the rows add in ascending order,
/// one plain add each (`out[j] + x[r][j]`), which rounds identically fused
/// or not. Column chunks of 4, 2 and 1
/// vectors, then one `Half` vector, then single columns, each hold their
/// sums in registers across all rows and store once.
#[inline(always)]
pub(crate) fn col_sum_f32<L: Lanes>(x: &[f32], out: &mut [f32]) {
    let n = out.len();
    debug_assert!(n > 0 && x.len().is_multiple_of(n));
    let mut j = 0;
    while j + 4 * L::WIDTH <= n {
        j = col_chunk::<L, 4>(x, out, j);
    }
    if j + 2 * L::WIDTH <= n {
        j = col_chunk::<L, 2>(x, out, j);
    }
    if j + L::WIDTH <= n {
        j = col_chunk::<L, 1>(x, out, j);
    }
    if j + L::Half::WIDTH <= n {
        j = col_chunk::<L::Half, 1>(x, out, j);
    }
    while j < n {
        j = col_chunk::<ScalarLane<false>, 1>(x, out, j);
    }
}

/// Columns `j .. j + C·V::WIDTH` of [`col_sum_f32`]; returns the next
/// column.
#[inline(always)]
fn col_chunk<V: Lanes, const C: usize>(x: &[f32], out: &mut [f32], j: usize) -> usize {
    let n = out.len();
    let mut acc = [V::splat(0.0); C];
    for (c, a) in acc.iter_mut().enumerate() {
        *a = V::load(&out[j + c * V::WIDTH..]);
    }
    for row in x.chunks_exact(n) {
        for (c, a) in acc.iter_mut().enumerate() {
            *a = a.add(V::load(&row[j + c * V::WIDTH..]));
        }
    }
    for (c, a) in acc.iter().enumerate() {
        a.store(&mut out[j + c * V::WIDTH..]);
    }
    j + C * V::WIDTH
}

/// The per-element gate calculus of one BPTT timestep, for a block of
/// rows: row `r` of the activated gates `z` (`[i, f, o, g]`, `4hd` wide),
/// of `tanh(c_t)` in `tc`, of the previous cell `c_prev` (zero at `t = 0`,
/// `None`), of the loss gradient `d_out` and of the recurrent gradient
/// `dh`, all `hd` wide, give per element
///
/// ```text
/// dh' = d_out + dh          dc' = dh'·o·(1 − tc·tc) + dc
/// dz  = [dc'·g·i(1 − i), dc'·c_prev·f(1 − f), dh'·tc·o(1 − o), dc'·i·(1 − g·g)]
/// dc  = dc'·f
/// ```
///
/// written to row `r` of `dz` and, in place, of `dc`. Each product and sum
/// is one plain IEEE op in the order written, left to right, never fused,
/// on every backend and under either FMA policy — the scalar loop's ops.
#[inline(always)]
#[allow(
    clippy::too_many_arguments,
    reason = "the taped operands and two sinks"
)]
pub(crate) fn lstm_backward_rows_f32<L: Lanes>(
    hd: usize,
    z: &[f32],
    tc: &[f32],
    c_prev: Option<&[f32]>,
    d_out: &[f32],
    dh: &[f32],
    dc: &mut [f32],
    dz: &mut [f32],
) {
    debug_assert!(hd > 0 && tc.len().is_multiple_of(hd));
    debug_assert!(z.len() == 4 * tc.len() && dz.len() == z.len());
    debug_assert!(d_out.len() == tc.len() && dh.len() == tc.len() && dc.len() == tc.len());
    let rows = z
        .chunks_exact(4 * hd)
        .zip(dz.chunks_exact_mut(4 * hd))
        .zip(dc.chunks_exact_mut(hd))
        .enumerate();
    for (r, ((zr, dzr), dcr)) in rows {
        let row = r * hd..(r + 1) * hd;
        let grad = GateGrad {
            z: zr,
            tc: &tc[row.clone()],
            c_prev: c_prev.map(|c| &c[row.clone()]),
            d_out: &d_out[row.clone()],
            dh: &dh[row],
        };
        let j = grad.vectors::<L>(dcr, dzr, 0);
        let j = grad.vectors::<L::Half>(dcr, dzr, j);
        grad.vectors::<ScalarLane<false>>(dcr, dzr, j);
    }
}

/// One row's operands of [`lstm_backward_rows_f32`].
struct GateGrad<'a> {
    z: &'a [f32],
    tc: &'a [f32],
    c_prev: Option<&'a [f32]>,
    d_out: &'a [f32],
    dh: &'a [f32],
}

impl GateGrad<'_> {
    /// The row's elements over the whole `V` vectors from `j` on; returns
    /// where they end.
    #[inline(always)]
    fn vectors<V: Lanes>(&self, dc: &mut [f32], dz: &mut [f32], mut j: usize) -> usize {
        let hd = self.tc.len();
        let z = self.z;
        while j + V::WIDTH <= hd {
            let (i, f) = (V::load(&z[j..]), V::load(&z[hd + j..]));
            let (o, g) = (V::load(&z[2 * hd + j..]), V::load(&z[3 * hd + j..]));
            let tc = V::load(&self.tc[j..]);
            let c_prev = match self.c_prev {
                Some(c) => V::load(&c[j..]),
                None => V::splat(0.0),
            };
            let dh = V::load(&self.d_out[j..]).add(V::load(&self.dh[j..]));
            let d_o = dh.mul(tc);
            let dcv = dh.mul(o).mul(tanh_deriv(tc)).add(V::load(&dc[j..]));
            let (d_i, d_g, d_f) = (dcv.mul(g), dcv.mul(i), dcv.mul(c_prev));
            d_i.mul(sigmoid_deriv(i)).store(&mut dz[j..]);
            d_f.mul(sigmoid_deriv(f)).store(&mut dz[hd + j..]);
            d_o.mul(sigmoid_deriv(o)).store(&mut dz[2 * hd + j..]);
            d_g.mul(tanh_deriv(g)).store(&mut dz[3 * hd + j..]);
            dcv.mul(f).store(&mut dc[j..]);
            j += V::WIDTH;
        }
        j
    }
}

/// The sigmoid's derivative through its output `s`: `s·(1 − s)`.
#[inline(always)]
fn sigmoid_deriv<V: Lanes>(s: V) -> V {
    s.mul(V::splat(1.0).sub(s))
}

/// tanh's derivative through its output `t`: `1 − t·t`.
#[inline(always)]
fn tanh_deriv<V: Lanes>(t: V) -> V {
    V::splat(1.0).sub(t.mul(t))
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
    let gates = [i_g, f_g, o_g, g_g];
    let j = cell_vectors::<L>(gates, c, h, &mut tc, 0);
    let j = cell_vectors::<L::Half>(gates, c, h, &mut tc, j);
    cell_vectors::<ScalarLane<false>>(gates, c, h, &mut tc, j);
}

/// One LSTM timestep's gates and cells for `n` rows, in one pass: row `r`
/// of the `n × 4hd` pre-activation block `z` is `[i, f, o, g]`; sigmoid
/// activates `i`, `f` and `o` and tanh activates `g`, stored back to `z`
/// (the training tape keeps the activated gates), then the cell update
/// advances row `r` of `c` and writes row `r` of `h` (and of `tc`, if
/// given) — rows of `hd`.
///
/// Where a row is half a vector wide (`hd == L::Half::WIDTH` on a backend
/// whose vector is two halves, `2 · Half::WIDTH == WIDTH`: AVX-512 at
/// `hd = 8`, AVX2 at `hd = 4`), rows go two at a time ([`row_pair`]) and
/// every transcendental runs on a full vector. Other rows run whole `L` vectors,
/// then at most one `L::Half` vector, then single elements
/// ([`CellRow::finish`]). An element runs the same ops whichever vector
/// carries it, so the bits are the per-element scalar loop's on every
/// backend.
#[inline(always)]
pub(crate) fn lstm_rows_f32<L: Lanes>(
    hd: usize,
    z: &mut [f32],
    c: &mut [f32],
    h: &mut [f32],
    mut tc: Option<&mut [f32]>,
) {
    debug_assert!(hd > 0 && z.len() == 4 * c.len() && h.len() == c.len());
    let mut paired = 0;
    if 2 * L::Half::WIDTH == L::WIDTH && hd == L::Half::WIDTH {
        let w = L::WIDTH;
        let mut tcs = tc.as_deref_mut().map(|tc| tc.chunks_exact_mut(w));
        let pairs = z
            .chunks_exact_mut(4 * w)
            .zip(c.chunks_exact_mut(w))
            .zip(h.chunks_exact_mut(w));
        for ((z, c), h) in pairs {
            row_pair::<L>(z, c, h, tcs.as_mut().and_then(Iterator::next));
            paired += 2;
        }
    }
    let mut tcs = tc.map(|tc| tc[paired * hd..].chunks_exact_mut(hd));
    let rows = z[paired * 4 * hd..]
        .chunks_exact_mut(4 * hd)
        .zip(c[paired * hd..].chunks_exact_mut(hd))
        .zip(h[paired * hd..].chunks_exact_mut(hd));
    for ((z, c), h) in rows {
        let tc = tcs.as_mut().and_then(Iterator::next);
        CellRow { z, c, h, tc }.finish::<L>();
    }
}

/// Two rows of [`lstm_rows_f32`] half a vector wide each: `z` holds their
/// gate blocks, four vectors `[i₀ f₀] [o₀ g₀] [i₁ f₁] [o₁ g₁]`, and `c`,
/// `h` and `tc` one vector `[row 0, row 1]` each. The `[i f]` vectors
/// activate as they are; [`zip_halves`] regroups the rest in registers
/// into `[o₀ o₁]` and `[g₀ g₁]`, then `[i₀ i₁]` and `[f₀ f₁]` for the cell
/// update, which runs on the cell vector as it lies, and back into the
/// gate layout for the stores.
#[inline(always)]
fn row_pair<L: Lanes>(z: &mut [f32], c: &mut [f32], h: &mut [f32], tc: Option<&mut [f32]>) {
    let w = L::WIDTH;
    let [if0, og0, if1, og1] = [0, 1, 2, 3].map(|k| L::load(&z[k * w..]));
    let (if0, if1) = (math::sigmoid_lanes(if0), math::sigmoid_lanes(if1));
    let (o, g) = zip_halves(og0, og1);
    let (o, g) = (math::sigmoid_lanes(o), math::tanh_lanes(g));
    let (i, f) = zip_halves(if0, if1);
    let (cv, t, hv) = cell(i, f, o, g, L::load(c));
    let (og0, og1) = zip_halves(o, g);
    if0.store(z);
    og0.store(&mut z[w..]);
    if1.store(&mut z[2 * w..]);
    og1.store(&mut z[3 * w..]);
    cv.store(c);
    if let Some(tc) = tc {
        t.store(tc);
    }
    hv.store(h);
}

/// `([a_lo b_lo], [a_hi b_hi])` from the halves of `a` and `b`
/// ([`Lanes::split`], [`Lanes::join`]); applied twice it gives `a` and `b`
/// back.
#[inline(always)]
fn zip_halves<L: Lanes>(a: L, b: L) -> (L, L) {
    let ((a_lo, a_hi), (b_lo, b_hi)) = (a.split(), b.split());
    (L::join(a_lo, b_lo), L::join(a_hi, b_hi))
}

/// One row of [`lstm_rows_f32`]: its gate block (`4hd`, `[i, f, o, g]`)
/// and its cell, hidden and (optional) `tanh(c)` rows (`hd` each).
struct CellRow<'a> {
    z: &'a mut [f32],
    c: &'a mut [f32],
    h: &'a mut [f32],
    tc: Option<&'a mut [f32]>,
}

impl CellRow<'_> {
    /// The whole `V` vectors of elements `j ..`, gates first and then
    /// cells; returns where they end. One loop per vector's chain of three
    /// sigmoids and a tanh, the cell and its tanh would be too long for
    /// the scheduler to overlap the next vector's: over 8 and 16 rows at
    /// `hd = 256` it ran ≈ 30 % slower than these two loops, whose chains
    /// are one activation, or one cell and its tanh, long (AVX-512,
    /// 2-vCPU Xeon).
    #[inline(always)]
    fn vectors<V: Lanes>(&mut self, j0: usize) -> usize {
        let hd = self.c.len();
        let mut j = j0;
        while j + V::WIDTH <= hd {
            let z = &mut self.z[j..];
            let [zi, zf, zo, zg] = [0, 1, 2, 3].map(|g| V::load(&z[g * hd..]));
            math::sigmoid_lanes::<V>(zi).store(z);
            math::sigmoid_lanes::<V>(zf).store(&mut z[hd..]);
            math::sigmoid_lanes::<V>(zo).store(&mut z[2 * hd..]);
            math::tanh_lanes::<V>(zg).store(&mut z[3 * hd..]);
            j += V::WIDTH;
        }
        let mut j = j0;
        while j + V::WIDTH <= hd {
            let z = &self.z[j..];
            let [i, f, o, g] = [0, 1, 2, 3].map(|g| V::load(&z[g * hd..]));
            let (c, t, h) = cell(i, f, o, g, V::load(&self.c[j..]));
            c.store(&mut self.c[j..]);
            if let Some(tc) = self.tc.as_deref_mut() {
                t.store(&mut tc[j..]);
            }
            h.store(&mut self.h[j..]);
            j += V::WIDTH;
        }
        j
    }

    /// The row: whole `L` vectors, at most one `L::Half` vector, then
    /// single elements.
    #[inline(always)]
    fn finish<L: Lanes>(&mut self) {
        let j = self.vectors::<L>(0);
        let j = self.vectors::<L::Half>(j);
        self.vectors::<ScalarLane<false>>(j);
    }
}

/// The cell update from activated gates: `c' = f·c + i·g` (two products
/// and an add, never fused), `t = tanh(c')` and `h = o·t`, as `(c', t, h)`.
#[inline(always)]
fn cell<V: Lanes>(i: V, f: V, o: V, g: V, c: V) -> (V, V, V) {
    let c = f.mul(c).add(i.mul(g));
    let t = math::tanh_lanes::<V>(c);
    (c, t, o.mul(t))
}

/// [`lstm_cell_f32`] over the whole `V` vectors from `j` on; `gates` is
/// `[i, f, o, g]`.
#[inline(always)]
fn cell_vectors<V: Lanes>(
    [i_g, f_g, o_g, g_g]: [&[f32]; 4],
    c: &mut [f32],
    h: &mut [f32],
    tc: &mut Option<&mut [f32]>,
    mut j: usize,
) -> usize {
    while j + V::WIDTH <= c.len() {
        let [i, f, o, g] = [i_g, f_g, o_g, g_g].map(|gate| V::load(&gate[j..]));
        let (cv, t, hv) = cell(i, f, o, g, V::load(&c[j..]));
        cv.store(&mut c[j..]);
        if let Some(tc) = tc.as_deref_mut() {
            t.store(&mut tc[j..]);
        }
        hv.store(&mut h[j..]);
        j += V::WIDTH;
    }
    j
}

/// Rows in a group of [`softmax_head_f32`] on the widest backend, a
/// [`Pair`] of AVX-512's 16 lanes: the size of the stack arrays that hold
/// one value per row of a group.
const MAX_GROUP: usize = 32;

/// The softmax head of a training minibatch in one pass, with its
/// gradients. Row `r` of `h` (`k_dim` wide) has target `t = targets[r]`,
/// logits `x_j = bias[j] + Σ_k h[r][k]·w[k][j]` (`w` row-major,
/// `k_dim × n`), softmax `p` and loss gradient `d_j = p_j·scale`, `d_t =
/// p_t·scale − scale`. The pass writes `p_target[r] = p_t`, `top1[r]` (no
/// `p_j > p_t`, no `p_j == p_t` left of `t`) and `dh[r][k] = Σ_j
/// d_j·w[k][j]`, and adds `h[r][k]·d_j` to `dw[k][j]` and `d_j` to `db[j]`.
///
/// Rows go in groups of one [`Pair`] of `L`, a row per lane; the spare
/// lanes of a short last group run zero rows and keep nothing. A group's
/// logits, then `e`, then `d` live in `tile` a column per `Pair`, so each
/// per-row chain runs down the lanes, and every broadcast weight feeds two
/// vectors:
///
/// 1. column `j`'s logits start from `bias[j]` and take one `fmac` per `k`,
///    ascending, over `h` transposed into `ht` ([`logit_block`]); the row
///    maximum (NaN skipped) is a lanewise [`Lanes::max`];
/// 2. `e = expf(x − m)` ([`math::expf_lanes`]) joins the row's sum, one
///    ascending chain from `0.0`; a row whose maximum is not finite keeps
///    its logits as `e`;
/// 3. `p = e / s` is a true divide — by `1.0`, which is exact, where the
///    maximum is not finite or the sum is not `> 0`;
/// 4. `dh[r][k]` is one ascending-`j` chain from `0.0` over row `k` of
///    `w` ([`dh_block`]);
/// 5. `dw` and `db` accumulate in `grad`: `dw` transposed, each column `j`
///    followed by `db[j]` — the weight of a constant-`1` input, whose
///    `fmac` rounds as the plain add — in `L` vectors along `k`, each
///    element one chain over the rows in ascending order, continued across
///    groups ([`grad_block`]).
///
/// Every output element runs the op sequence of the unfused passes —
/// the panel gemm started from the bias, the per-row loss loop, `dX +=
/// dY·Wᵀ` from zero, `dW += Xᵀ·dY` and the column sum — on every backend.
#[inline(always)]
#[allow(clippy::too_many_arguments, reason = "mirrors `softmax_head_f32_with`")]
pub(crate) fn softmax_head_f32<L: Lanes>(
    h: &[f32],
    k_dim: usize,
    w: &[f32],
    bias: &[f32],
    targets: &[usize],
    scale: f32,
    out: HeadGrads<'_>,
    scratch: &mut HeadScratch,
) {
    let (n, rows, g) = (bias.len(), targets.len(), Pair::<L>::WIDTH);
    debug_assert!(g <= MAX_GROUP && k_dim > 0 && h.len() == rows * k_dim);
    debug_assert_eq!(w.len(), k_dim * n);
    if rows == 0 {
        return;
    }
    let HeadGrads {
        dh,
        dw,
        db,
        p_target,
        top1,
    } = out;
    // A gradient row: `dW`'s column, `db`, zeros up to whole vectors.
    let kp = (k_dim + 1).next_multiple_of(L::WIDTH);
    let HeadScratch { tile, ht, hp, grad } = scratch;
    let tile = sized(tile, n * g);
    let ht = sized(ht, k_dim * g);
    let hp = sized(hp, g * kp);
    let grad = sized(grad, n * kp);
    transpose(dw, n, k_dim, n, grad, kp);
    for (row, &b) in grad.chunks_exact_mut(kp).zip(db.iter()) {
        row[k_dim] = b;
        row[k_dim + 1..].fill(0.0);
    }
    let mut r0 = 0;
    while r0 < rows {
        let live = g.min(rows - r0);
        let hs = &h[r0 * k_dim..(r0 + live) * k_dim];
        if live < g {
            ht.fill(0.0);
        }
        transpose(hs, k_dim, live, k_dim, ht, g);
        for (hp_row, h_row) in hp.chunks_exact_mut(kp).zip(hs.chunks_exact(k_dim)) {
            hp_row[..k_dim].copy_from_slice(h_row);
            hp_row[k_dim] = 1.0;
            hp_row[k_dim + 1..].fill(0.0);
        }
        let targets = &targets[r0..r0 + live];
        let m = logits::<L>(ht, w, bias, tile);
        let (p_t, hits) = softmax_rows::<Pair<L>>(m, targets, scale, tile);
        p_target[r0..r0 + live].copy_from_slice(&p_t[..live]);
        for (l, hit) in top1[r0..r0 + live].iter_mut().enumerate() {
            *hit = hits & (1 << l) != 0;
        }
        let dh_rows_out = &mut dh[r0 * k_dim..(r0 + live) * k_dim];
        dh_rows::<L>(tile, w, k_dim, live, dh_rows_out);
        grad_rows::<L>(tile, hp, kp, live, grad);
        r0 += live;
    }
    transpose(grad, kp, n, k_dim, dw, n);
    for (b, row) in db.iter_mut().zip(grad.chunks_exact(kp)) {
        *b = row[k_dim];
    }
}

/// The front `len` elements of `buf`, grown (never shrunk) to hold them.
fn sized(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// `dst[c·dst_stride + r] = src[r·src_stride + c]` for `r < rows`, `c <
/// cols`: a transpose, eight source rows at a time, so it reads eight
/// sequential streams and writes runs of eight.
fn transpose(
    src: &[f32],
    src_stride: usize,
    rows: usize,
    cols: usize,
    dst: &mut [f32],
    dst_stride: usize,
) {
    let mut r0 = 0;
    while r0 < rows {
        let r1 = rows.min(r0 + 8);
        let srcs: [&[f32]; 8] = core::array::from_fn(|i| {
            let r = (r0 + i).min(r1 - 1);
            &src[r * src_stride..r * src_stride + cols]
        });
        for (c, d) in dst.chunks_mut(dst_stride).take(cols).enumerate() {
            for (d, s) in d[r0..r1].iter_mut().zip(srcs) {
                *d = s[c];
            }
        }
        r0 = r1;
    }
}

/// Columns per register block of [`logit_block`] and [`dh_block`]: 8
/// accumulator [`Pair`]s fill half of AVX-512's 32 registers; the other
/// backends have 16 and take 4.
fn pair_block<L: Lanes>() -> usize {
    if L::WIDTH == 16 {
        8
    } else {
        4
    }
}

/// Step 1 of [`softmax_head_f32`]: every column of the group's logits into
/// `tile`, in blocks of [`pair_block`] columns, then 2 and 1; returns the
/// lanewise maximum (NaN skipped, `−inf` if there is none).
#[inline(always)]
fn logits<L: Lanes>(ht: &[f32], w: &[f32], bias: &[f32], tile: &mut [f32]) -> Pair<L> {
    let n = bias.len();
    let mut m = Pair::<L>::splat(f32::NEG_INFINITY);
    let mut j = 0;
    while pair_block::<L>() == 8 && j + 8 <= n {
        j = logit_block::<L, 8>(ht, w, bias, tile, j, &mut m);
    }
    while j + 4 <= n {
        j = logit_block::<L, 4>(ht, w, bias, tile, j, &mut m);
    }
    if j + 2 <= n {
        j = logit_block::<L, 2>(ht, w, bias, tile, j, &mut m);
    }
    if j < n {
        logit_block::<L, 1>(ht, w, bias, tile, j, &mut m);
    }
    m
}

/// Columns `j .. j + C` of [`logits`]: each accumulator starts from its
/// bias and takes one `fmac` per row of `ht` (a `k` of every lane's row),
/// ascending; returns the next column.
#[inline(always)]
fn logit_block<L: Lanes, const C: usize>(
    ht: &[f32],
    w: &[f32],
    bias: &[f32],
    tile: &mut [f32],
    j: usize,
    m: &mut Pair<L>,
) -> usize {
    let (n, g) = (bias.len(), Pair::<L>::WIDTH);
    let mut acc: [Pair<L>; C] = core::array::from_fn(|c| Pair::splat(bias[j + c]));
    for (k, hk) in ht.chunks_exact(g).enumerate() {
        let hk = Pair::<L>::load(hk);
        let wk = &w[k * n + j..k * n + j + C];
        for (a, &wkj) in acc.iter_mut().zip(wk) {
            *a = a.fmac(hk, Pair::splat(wkj));
        }
    }
    for (c, a) in acc.into_iter().enumerate() {
        a.store(&mut tile[(j + c) * g..]);
        // `max` keeps `m` where the logit is NaN.
        *m = a.max(*m);
    }
    j + C
}

/// Steps 2 and 3 of [`softmax_head_f32`]: turns the group's logits in
/// `tile` into the gradient `d`, given the lanewise maxima `m` and the
/// live lanes' `targets`. Returns each live lane's `p_t` and a mask of the
/// lanes whose target is top-1.
#[inline(always)]
fn softmax_rows<V: Lanes>(
    m: V,
    targets: &[usize],
    scale: f32,
    tile: &mut [f32],
) -> ([f32; MAX_GROUP], u32) {
    let g = V::WIDTH;
    let (zero, one, inf) = (V::splat(0.0), V::splat(1.0), V::splat(f32::INFINITY));
    let magnitude = m.abs();
    let mut s = zero;
    for col in tile.chunks_exact_mut(g) {
        let x = V::load(col);
        let e = V::select_lt(magnitude, inf, math::expf_lanes::<V>(x.sub(m)), x);
        s = s.add(e);
        e.store(col);
    }
    let div = V::select_lt(magnitude, inf, V::select_lt(zero, s, s, one), one);
    let (mut divs, mut p_t, mut t_at) = ([0.0; MAX_GROUP], [0.0; MAX_GROUP], [0.0; MAX_GROUP]);
    div.store(&mut divs);
    for (l, &t) in targets.iter().enumerate() {
        p_t[l] = tile[t * g + l] / divs[l];
        // Exact: the entry point keeps `n` below 2^24.
        t_at[l] = t as f32;
    }
    let (p_tv, t_v, scale_v) = (V::load(&p_t), V::load(&t_at), V::splat(scale));
    let (mut j_v, mut beaten) = (zero, 0u32);
    for col in tile.chunks_exact_mut(g) {
        let p = V::load(col).div(div);
        // Ties count only left of the target: lanes with `t > j`.
        beaten |= p.gt_mask(p_tv) | (p.eq_mask(p_tv) & t_v.gt_mask(j_v));
        p.mul(scale_v).store(col);
        j_v = j_v.add(one);
    }
    for (l, &t) in targets.iter().enumerate() {
        tile[t * g + l] = p_t[l] * scale - scale;
    }
    (p_t, !beaten)
}

/// Step 4 of [`softmax_head_f32`]: the live rows of `dh`, in blocks of
/// [`pair_block`] of its columns `k`, then 2 and 1.
#[inline(always)]
fn dh_rows<L: Lanes>(tile: &[f32], w: &[f32], k_dim: usize, live: usize, dh: &mut [f32]) {
    let mut k = 0;
    while pair_block::<L>() == 8 && k + 8 <= k_dim {
        k = dh_block::<L, 8>(tile, w, k_dim, live, dh, k);
    }
    while k + 4 <= k_dim {
        k = dh_block::<L, 4>(tile, w, k_dim, live, dh, k);
    }
    if k + 2 <= k_dim {
        k = dh_block::<L, 2>(tile, w, k_dim, live, dh, k);
    }
    if k < k_dim {
        dh_block::<L, 1>(tile, w, k_dim, live, dh, k);
    }
}

/// Columns `k .. k + C` of [`dh_rows`]: per column one accumulator from
/// `0.0`, one `fmac` per gradient column `j` of `tile` with `w[k][j]`,
/// ascending; then each live lane's value goes to its row. Returns the
/// next column.
#[inline(always)]
fn dh_block<L: Lanes, const C: usize>(
    tile: &[f32],
    w: &[f32],
    k_dim: usize,
    live: usize,
    dh: &mut [f32],
    k: usize,
) -> usize {
    let g = Pair::<L>::WIDTH;
    let n = tile.len() / g;
    let ws: [&[f32]; C] = core::array::from_fn(|c| &w[(k + c) * n..(k + c + 1) * n]);
    let mut acc = [Pair::<L>::splat(0.0); C];
    for (j, col) in tile.chunks_exact(g).enumerate() {
        let d = Pair::<L>::load(col);
        for (a, wc) in acc.iter_mut().zip(ws) {
            *a = a.fmac(d, Pair::splat(wc[j]));
        }
    }
    let mut lanes = [0.0; MAX_GROUP];
    for (c, a) in acc.into_iter().enumerate() {
        a.store(&mut lanes);
        for (row, &v) in dh.chunks_exact_mut(k_dim).zip(&lanes[..live]) {
            row[k + c] = v;
        }
    }
    k + C
}

/// Step 5 of [`softmax_head_f32`]: the live rows' contributions to every
/// gradient row of `grad` (`kp` wide), a [`Pair`] of `L` vectors of `k`
/// at a time while two remain — each broadcast `d_j` then feeds both —
/// and a single `L` vector for the last.
#[inline(always)]
fn grad_rows<L: Lanes>(tile: &[f32], hp: &[f32], kp: usize, live: usize, grad: &mut [f32]) {
    let mut kv = 0;
    while kv + Pair::<L>::WIDTH <= kp {
        if pair_block::<L>() == 8 {
            grad_columns::<L, Pair<L>, 8>(tile, hp, kp, live, grad, kv);
        } else {
            grad_columns::<L, Pair<L>, 4>(tile, hp, kp, live, grad, kv);
        }
        kv += Pair::<L>::WIDTH;
    }
    if kv < kp {
        grad_columns::<L, L, 8>(tile, hp, kp, live, grad, kv);
    }
}

/// The `V` vector of `k` from `kv` on of every gradient row, in blocks of
/// `C` rows, then 4, 2 and 1.
#[inline(always)]
fn grad_columns<L: Lanes, V: Lanes, const C: usize>(
    tile: &[f32],
    hp: &[f32],
    kp: usize,
    live: usize,
    grad: &mut [f32],
    kv: usize,
) {
    let n = tile.len() / Pair::<L>::WIDTH;
    let mut j = 0;
    while j + C <= n {
        j = grad_block::<L, V, C>(tile, hp, kp, live, grad, j, kv);
    }
    if C > 4 && j + 4 <= n {
        j = grad_block::<L, V, 4>(tile, hp, kp, live, grad, j, kv);
    }
    if j + 2 <= n {
        j = grad_block::<L, V, 2>(tile, hp, kp, live, grad, j, kv);
    }
    if j < n {
        grad_block::<L, V, 1>(tile, hp, kp, live, grad, j, kv);
    }
}

/// Gradient rows `j .. j + C` of [`grad_columns`]: `C` accumulators
/// loaded from `grad`, one `fmac` of lane row `l`'s augmented input
/// (`hp`) with its `d_j` per live row, ascending, one store. Returns the
/// next row.
#[inline(always)]
fn grad_block<L: Lanes, V: Lanes, const C: usize>(
    tile: &[f32],
    hp: &[f32],
    kp: usize,
    live: usize,
    grad: &mut [f32],
    j: usize,
    kv: usize,
) -> usize {
    let g = Pair::<L>::WIDTH;
    let ds: [&[f32]; C] = core::array::from_fn(|c| &tile[(j + c) * g..(j + c) * g + live]);
    let mut acc: [V; C] = core::array::from_fn(|c| V::load(&grad[(j + c) * kp + kv..]));
    for (l, h_row) in hp.chunks_exact(kp).take(live).enumerate() {
        let hv = V::load(&h_row[kv..]);
        for (a, d) in acc.iter_mut().zip(ds) {
            *a = a.fmac(hv, V::splat(d[l]));
        }
    }
    for (c, a) in acc.into_iter().enumerate() {
        a.store(&mut grad[(j + c) * kp + kv..]);
    }
    j + C
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
    use crate::{Buckets, HeadGrads, HeadScratch};

    macro_rules! backend_entries {
        ($mod_name:ident, $feat:literal, $f32ty:ty) => {
            pub(crate) mod $mod_name {
                use super::*;

                // SAFETY: module contract — `$feat` confirmed before dispatch.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn onehot_bias_f32<'a>(
                    rows: impl Iterator<Item = &'a [u32]> + Clone,
                    w: &[f32],
                    n: usize,
                    bias: &[f32],
                    z: &mut [f32],
                ) {
                    super::super::onehot_bias_f32::<$f32ty>(rows, w, n, bias, z)
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
                #[allow(clippy::too_many_arguments, reason = "mirrors `gemm_panels_f32`")]
                pub(crate) unsafe fn gemm_panels_f32(
                    batch: usize,
                    x: &[f32],
                    k_dim: usize,
                    n: usize,
                    bias: Option<&[f32]>,
                    y: &mut [f32],
                    panels: &[f32],
                ) {
                    super::super::gemm_panels_f32::<$f32ty>(batch, x, k_dim, n, bias, y, panels)
                }

                // SAFETY: module contract — `$feat` confirmed before dispatch.
                #[target_feature(enable = $feat)]
                #[allow(clippy::too_many_arguments, reason = "mirrors `rank_panels_f32_with`")]
                pub(crate) unsafe fn rank_panels_f32(
                    batch: usize,
                    x: &[f32],
                    k_dim: usize,
                    n: usize,
                    panels: &[f32],
                    bias: &[f32],
                    targets: &[usize],
                    ranks: &mut [u32],
                ) {
                    super::super::rank_panels_f32::<$f32ty>(
                        batch, x, k_dim, n, panels, bias, targets, ranks,
                    )
                }

                // SAFETY: module contract — `$feat` confirmed before dispatch.
                #[target_feature(enable = $feat)]
                #[allow(clippy::too_many_arguments, reason = "mirrors `softmax_head_f32_with`")]
                pub(crate) unsafe fn softmax_head_f32(
                    h: &[f32],
                    k_dim: usize,
                    w: &[f32],
                    bias: &[f32],
                    targets: &[usize],
                    scale: f32,
                    out: HeadGrads<'_>,
                    scratch: &mut HeadScratch,
                ) {
                    super::super::softmax_head_f32::<$f32ty>(
                        h, k_dim, w, bias, targets, scale, out, scratch,
                    )
                }

                // SAFETY: module contract — `$feat` confirmed before dispatch.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn onehot_outer_acc_f32<'a>(
                    rows: impl Iterator<Item = &'a [u32]> + Clone,
                    k_dim: usize,
                    dy: &[f32],
                    n: usize,
                    dw: &mut [f32],
                    buckets: &mut Buckets,
                ) {
                    super::super::onehot_outer_acc_f32::<$f32ty>(rows, k_dim, dy, n, dw, buckets)
                }

                // SAFETY: module contract — `$feat` confirmed before dispatch.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn outer_dense_f32<'a>(
                    x_rows: impl Iterator<Item = &'a [f32]> + Clone,
                    k_dim: usize,
                    dy: &[f32],
                    n: usize,
                    dw: &mut [f32],
                    pack: &mut Vec<f32>,
                ) {
                    super::super::outer_dense_f32::<$f32ty>(x_rows, k_dim, dy, n, dw, pack)
                }

                // SAFETY: module contract — `$feat` confirmed before dispatch.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn col_sum_f32(x: &[f32], out: &mut [f32]) {
                    super::super::col_sum_f32::<$f32ty>(x, out)
                }

                // SAFETY: module contract — `$feat` confirmed before dispatch.
                #[target_feature(enable = $feat)]
                #[allow(
                    clippy::too_many_arguments,
                    reason = "mirrors `lstm_backward_rows_f32`"
                )]
                pub(crate) unsafe fn lstm_backward_rows_f32(
                    hd: usize,
                    z: &[f32],
                    tc: &[f32],
                    c_prev: Option<&[f32]>,
                    d_out: &[f32],
                    dh: &[f32],
                    dc: &mut [f32],
                    dz: &mut [f32],
                ) {
                    super::super::lstm_backward_rows_f32::<$f32ty>(
                        hd, z, tc, c_prev, d_out, dh, dc, dz,
                    )
                }

                // SAFETY: module contract — `$feat` confirmed before dispatch.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn lstm_rows_f32(
                    hd: usize,
                    z: &mut [f32],
                    c: &mut [f32],
                    h: &mut [f32],
                    tc: Option<&mut [f32]>,
                ) {
                    super::super::lstm_rows_f32::<$f32ty>(hd, z, c, h, tc)
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
    backend_entries!(avx512, "avx512f,avx2,fma", Avx512F32);
}
