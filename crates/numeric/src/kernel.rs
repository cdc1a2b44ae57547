//! Register-blocked scoring microkernels with fused narrow-type decode.
//!
//! The serving scorer's innermost operation is an `f`-long inner product
//! per user×item pair. A sequential `f32` reduction is a dependency chain
//! the compiler must preserve (FP addition is not associative), so it can
//! never be vectorized. The kernels here break the chain the way every
//! SIMD dot product does — [`LANES`] independent accumulators, one per
//! vector lane — but make the resulting evaluation order an explicit,
//! documented contract instead of an implementation accident:
//!
//! * element `i` is accumulated into lane `i % LANES`, walking the input
//!   left to right in [`LANES`]-element chunks; remainder elements feed
//!   lanes `0..len % LANES` in order;
//! * the lanes are combined by the fixed pairwise tree of
//!   [`reduce_lanes`]: `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`;
//! * products are **not** contracted into FMAs — `mul` then `add`, so the
//!   bit pattern is identical on every host regardless of target features.
//!
//! Every kernel in this module — and every scoring surface wired to it —
//! follows that one order, which is what lets blocked, sharded,
//! approximate and naive-reference paths stay bit-identical to each other
//! while still vectorizing.
//!
//! The narrow-type variants ([`dot_f16`], [`dot_i8_scaled`]) fuse the
//! decode into the accumulation loop: the f16→f32 widen (resp. int8
//! dequant) happens in registers between the load and the multiply, so a
//! quantized scan never materializes an `f32` scratch copy — the byte
//! savings of the narrow format convert into time instead of being spent
//! on an extra store/load pass. This mirrors the paper's FP16 pipeline
//! (half-width loads feeding full-width arithmetic) and the
//! decode-in-the-kernel structure of low-precision GEMMs.
//!
//! [`score_tile`] adds the second classic GEMM trick, register tiling
//! over users: each Θ row is loaded (and, for f16, decoded) once per
//! [`TILE_USERS`] users instead of once per user, quartering the Θ
//! traffic of a batched scan.
//!
//! # The Gram kernel
//!
//! [`syrk_packed`] is the training side's kernel: the rank-k update of a
//! packed symmetric `A_u` behind `get_hermitian`. It needs no lane order,
//! because it has no reduction: every element of `A_u` is its own
//! accumulator, receiving one `mul` then `add` per staged vector in the
//! vectors' order, exactly as a loop of rank-1 updates does. Register
//! blocking — a [`GRAM_ROWS`]` × `[`LANES`] tile of `A_u` held in
//! registers while the whole staged batch streams through it — changes
//! only the loop nest, so the result is bit-identical to the rank-1 loop
//! whatever the tile. The tile is a host constant; the paper's `T × T`
//! register tile is device geometry that only the GPU cost model prices.
//!
//! # The k-means distance kernel
//!
//! [`sq_dists_transposed`] is the publish side's kernel: the assign step
//! of the k-means behind every centroid index. It has no reduction
//! either. Each lane is one (row, centroid) pair's own accumulator and
//! runs the scalar `d += e·e` chain in ascending `j`, against centroids
//! stored transposed so that [`LANES`] centroids sit side by side, and
//! the distances are the scalar loop's bits.
//!
//! # Vector-width multiversioning
//!
//! The lane order fixes *what* is computed, not how wide the machine
//! computes it: eight independent `f32` accumulators vectorize equally
//! well at SSE2 (two 128-bit registers) and AVX2 (one 256-bit register),
//! and IEEE lane arithmetic is width-independent — the bits cannot
//! change. On x86-64 each public kernel therefore dispatches, via the
//! cached `is_x86_feature_detected!` probe, to an AVX2 compilation of
//! the *same* portable body when the host supports it. FMA contraction
//! stays off in both versions (Rust never contracts `mul` + `add`
//! without explicit fast-math), so this is purely a throughput switch —
//! the property tests cover both compilations on AVX2 hosts.

use crate::f16::F16;

/// Independent accumulator lanes per dot product. Eight `f32` lanes fill
/// one 256-bit vector register; the fixed lane order below is part of the
/// crate's determinism contract, not a tuning knob.
pub const LANES: usize = 8;

/// Users scored per register tile in [`score_tile`]: small enough that
/// `TILE_USERS` accumulator arrays plus one Θ chunk stay in registers,
/// large enough to amortize each Θ load across several users.
pub const TILE_USERS: usize = 4;

/// Combine the [`LANES`] accumulators in the documented fixed order:
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`.
///
/// Every kernel in this module reduces through this exact tree, so two
/// kernels that accumulate the same products always produce the same
/// bits.
#[inline]
pub fn reduce_lanes(acc: [f32; LANES]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Inner product with [`LANES`] independent accumulators: element `i`
/// lands in lane `i % LANES`, lanes combine via [`reduce_lanes`].
///
/// This is the scalar-argument form of the scoring microkernel; all
/// serving reference paths (`score_one`, the approximate member scan, the
/// centroid probe) route through it so the blocked/tiled paths can be
/// bit-identical to them by construction.
///
/// Panics if the slices differ in length.
#[inline]
pub fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 requirement was just probed on this host.
        return unsafe { avx2::dot_lanes(a, b) };
    }
    dot_lanes_impl(a, b)
}

#[inline(always)]
fn dot_lanes_impl(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot_lanes: length mismatch");
    let mut acc = [0.0f32; LANES];
    let full = a.len() / LANES * LANES;
    let mut i = 0;
    while i < full {
        let ca = &a[i..i + LANES];
        let cb = &b[i..i + LANES];
        for l in 0..LANES {
            acc[l] += ca[l] * cb[l];
        }
        i += LANES;
    }
    for (l, (&x, &y)) in a[full..].iter().zip(&b[full..]).enumerate() {
        acc[l] += x * y;
    }
    reduce_lanes(acc)
}

/// Widen one binary16 value to `f32`, branch-light and vectorizable.
///
/// Bit-identical to [`F16::to_f32`] for **every** 16-bit pattern
/// (exhaustively test-enforced), but built from shifts, masks and one
/// exact multiply instead of a leading-zeros normalization loop, so the
/// compiler can keep it inside a SIMD decode: the magnitude bits shifted
/// into f32 position read as `value × 2⁻¹¹²` for normals *and*
/// subnormals, and multiplying by `2¹¹²` (exactly representable) rescales
/// without rounding. Infinities and NaNs take the saturated-exponent
/// fixup instead.
#[inline]
pub fn decode_f16(h: F16) -> f32 {
    let bits = h.to_bits() as u32;
    let mag = (bits & 0x7FFF) << 13;
    let sign = (bits & 0x8000) << 16;
    // 2^112 is exact in f32, and the product never overflows or rounds:
    // this maps normals and subnormals alike.
    let finite = f32::from_bits(mag) * f32::from_bits(0x7780_0000);
    // Inf/NaN: rebase the saturated exponent to f32's, payload kept.
    let special = f32::from_bits(mag + 0x7000_0000);
    // Both arms are computed unconditionally so the decode is a branch-
    // free select — inside the tile loops this is what lets the
    // autovectorizer keep the widen in SIMD instead of bailing to a
    // scalar loop with control flow.
    let val = if bits & 0x7C00 == 0x7C00 {
        special
    } else {
        finite
    };
    f32::from_bits(val.to_bits() | sign)
}

/// Inner product of an `f32` vector against an `F16` row, with the widen
/// fused into the accumulation loop — no scratch pass.
///
/// Bit-identical to widening `b` with [`F16::to_f32`] first and calling
/// [`dot_lanes`] (the decode is exact and the lane order is the same).
///
/// Panics if the slices differ in length.
#[inline]
pub fn dot_f16(a: &[f32], b: &[F16]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 requirement was just probed on this host.
        return unsafe { avx2::dot_f16(a, b) };
    }
    dot_f16_impl(a, b)
}

#[inline(always)]
fn dot_f16_impl(a: &[f32], b: &[F16]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot_f16: length mismatch");
    let mut acc = [0.0f32; LANES];
    let full = a.len() / LANES * LANES;
    let mut i = 0;
    while i < full {
        let ca = &a[i..i + LANES];
        let cb = &b[i..i + LANES];
        for l in 0..LANES {
            acc[l] += ca[l] * decode_f16(cb[l]);
        }
        i += LANES;
    }
    for (l, (&x, &h)) in a[full..].iter().zip(&b[full..]).enumerate() {
        acc[l] += x * decode_f16(h);
    }
    reduce_lanes(acc)
}

/// Inner product of an `f32` vector against an int8 row with one scale:
/// the weights are widened to `f32` in the accumulation loop (fused
/// dequant, one byte read per weight) and the scale is applied **once**
/// to the reduced sum — the same factoring as a blockwise-quantized
/// scan.
///
/// Bit-identical to widening `q` element-wise to `f32` (no scale),
/// calling [`dot_lanes`], and multiplying the result by `scale` once.
///
/// Panics if the slices differ in length.
#[inline]
pub fn dot_i8_scaled(a: &[f32], q: &[i8], scale: f32) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 requirement was just probed on this host.
        return unsafe { avx2::dot_i8_scaled(a, q, scale) };
    }
    dot_i8_scaled_impl(a, q, scale)
}

#[inline(always)]
fn dot_i8_scaled_impl(a: &[f32], q: &[i8], scale: f32) -> f32 {
    assert_eq!(a.len(), q.len(), "dot_i8_scaled: length mismatch");
    let mut acc = [0.0f32; LANES];
    let full = a.len() / LANES * LANES;
    let mut i = 0;
    while i < full {
        let ca = &a[i..i + LANES];
        let cq = &q[i..i + LANES];
        for l in 0..LANES {
            acc[l] += ca[l] * cq[l] as f32;
        }
        i += LANES;
    }
    for (l, (&x, &w)) in a[full..].iter().zip(&q[full..]).enumerate() {
        acc[l] += x * w as f32;
    }
    reduce_lanes(acc) * scale
}

/// Score an `n_users × n_items` tile: `out[u * n_items + v] =
/// users_row(u) · theta_row(v)`, register-tiled so each Θ chunk is loaded
/// once per [`TILE_USERS`] users.
///
/// `users` is `n_users` contiguous `f`-long rows; `theta` is `n_items`
/// contiguous `f`-long rows. Every entry is bit-identical to
/// [`dot_lanes`] on the corresponding row pair — the tile walks `f` in
/// the same chunk order with a private lane array per user, so the
/// per-pair evaluation order is unchanged; tiling only reorders work
/// *across* independent pairs.
///
/// Panics if the slice lengths are inconsistent with the given shape or
/// `out` is shorter than `n_users * n_items`.
pub fn score_tile(
    users: &[f32],
    n_users: usize,
    theta: &[f32],
    n_items: usize,
    f: usize,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 requirement was just probed on this host.
        return unsafe { avx2::score_tile(users, n_users, theta, n_items, f, out) };
    }
    score_tile_impl(users, n_users, theta, n_items, f, out)
}

#[inline(always)]
fn score_tile_impl(
    users: &[f32],
    n_users: usize,
    theta: &[f32],
    n_items: usize,
    f: usize,
    out: &mut [f32],
) {
    assert_eq!(users.len(), n_users * f, "score_tile: bad user slice");
    assert_eq!(theta.len(), n_items * f, "score_tile: bad theta slice");
    assert!(
        out.len() >= n_users * n_items,
        "score_tile: out too short ({} < {})",
        out.len(),
        n_users * n_items
    );
    let full = f / LANES * LANES;
    let mut u0 = 0;
    while u0 + TILE_USERS <= n_users {
        let x0 = &users[u0 * f..(u0 + 1) * f];
        let x1 = &users[(u0 + 1) * f..(u0 + 2) * f];
        let x2 = &users[(u0 + 2) * f..(u0 + 3) * f];
        let x3 = &users[(u0 + 3) * f..(u0 + 4) * f];
        for v in 0..n_items {
            let tv = &theta[v * f..(v + 1) * f];
            let mut acc = [[0.0f32; LANES]; TILE_USERS];
            let mut i = 0;
            while i < full {
                let t = &tv[i..i + LANES];
                let c0 = &x0[i..i + LANES];
                let c1 = &x1[i..i + LANES];
                let c2 = &x2[i..i + LANES];
                let c3 = &x3[i..i + LANES];
                for l in 0..LANES {
                    let tl = t[l];
                    acc[0][l] += c0[l] * tl;
                    acc[1][l] += c1[l] * tl;
                    acc[2][l] += c2[l] * tl;
                    acc[3][l] += c3[l] * tl;
                }
                i += LANES;
            }
            for (l, j) in (full..f).enumerate() {
                let tl = tv[j];
                acc[0][l] += x0[j] * tl;
                acc[1][l] += x1[j] * tl;
                acc[2][l] += x2[j] * tl;
                acc[3][l] += x3[j] * tl;
            }
            out[u0 * n_items + v] = reduce_lanes(acc[0]);
            out[(u0 + 1) * n_items + v] = reduce_lanes(acc[1]);
            out[(u0 + 2) * n_items + v] = reduce_lanes(acc[2]);
            out[(u0 + 3) * n_items + v] = reduce_lanes(acc[3]);
        }
        u0 += TILE_USERS;
    }
    for u in u0..n_users {
        let xu = &users[u * f..(u + 1) * f];
        for v in 0..n_items {
            out[u * n_items + v] = dot_lanes_impl(xu, &theta[v * f..(v + 1) * f]);
        }
    }
}

/// [`score_tile`] against an `F16` Θ-block with the widen fused into the
/// tile loop: each Θ chunk is decoded **once** per [`TILE_USERS`] users —
/// the decode cost is amortized exactly like the load — and no `f32`
/// scratch copy of the block ever exists.
///
/// Every entry is bit-identical to [`dot_f16`] on the corresponding row
/// pair (and therefore to widen-then-[`dot_lanes`]).
///
/// Panics if the slice lengths are inconsistent with the given shape or
/// `out` is shorter than `n_users * n_items`.
pub fn score_tile_f16(
    users: &[f32],
    n_users: usize,
    theta: &[F16],
    n_items: usize,
    f: usize,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 requirement was just probed on this host.
        return unsafe { avx2::score_tile_f16(users, n_users, theta, n_items, f, out) };
    }
    score_tile_f16_impl(users, n_users, theta, n_items, f, out)
}

#[inline(always)]
fn score_tile_f16_impl(
    users: &[f32],
    n_users: usize,
    theta: &[F16],
    n_items: usize,
    f: usize,
    out: &mut [f32],
) {
    assert_eq!(users.len(), n_users * f, "score_tile_f16: bad user slice");
    assert_eq!(theta.len(), n_items * f, "score_tile_f16: bad theta slice");
    assert!(
        out.len() >= n_users * n_items,
        "score_tile_f16: out too short ({} < {})",
        out.len(),
        n_users * n_items
    );
    let full = f / LANES * LANES;
    let mut u0 = 0;
    while u0 + TILE_USERS <= n_users {
        let x0 = &users[u0 * f..(u0 + 1) * f];
        let x1 = &users[(u0 + 1) * f..(u0 + 2) * f];
        let x2 = &users[(u0 + 2) * f..(u0 + 3) * f];
        let x3 = &users[(u0 + 3) * f..(u0 + 4) * f];
        for v in 0..n_items {
            let tv = &theta[v * f..(v + 1) * f];
            let mut acc = [[0.0f32; LANES]; TILE_USERS];
            let mut i = 0;
            while i < full {
                let t = &tv[i..i + LANES];
                let c0 = &x0[i..i + LANES];
                let c1 = &x1[i..i + LANES];
                let c2 = &x2[i..i + LANES];
                let c3 = &x3[i..i + LANES];
                for l in 0..LANES {
                    let tl = decode_f16(t[l]);
                    acc[0][l] += c0[l] * tl;
                    acc[1][l] += c1[l] * tl;
                    acc[2][l] += c2[l] * tl;
                    acc[3][l] += c3[l] * tl;
                }
                i += LANES;
            }
            for (l, j) in (full..f).enumerate() {
                let tl = decode_f16(tv[j]);
                acc[0][l] += x0[j] * tl;
                acc[1][l] += x1[j] * tl;
                acc[2][l] += x2[j] * tl;
                acc[3][l] += x3[j] * tl;
            }
            out[u0 * n_items + v] = reduce_lanes(acc[0]);
            out[(u0 + 1) * n_items + v] = reduce_lanes(acc[1]);
            out[(u0 + 2) * n_items + v] = reduce_lanes(acc[2]);
            out[(u0 + 3) * n_items + v] = reduce_lanes(acc[3]);
        }
        u0 += TILE_USERS;
    }
    for u in u0..n_users {
        let xu = &users[u * f..(u + 1) * f];
        for v in 0..n_items {
            out[u * n_items + v] = dot_f16_impl(xu, &theta[v * f..(v + 1) * f]);
        }
    }
}

/// Rows of `A` held in one [`syrk_packed`] register tile. With [`LANES`]
/// columns that is four 8-lane accumulators; every staged vector is
/// streamed through the tile before it is stored back.
pub const GRAM_ROWS: usize = 4;

/// Symmetric rank-k update of a packed lower triangle — the Gram kernel
/// of `get_hermitian`: for every `i ≥ j` and every staged vector `θ` in
/// order, `acc[i(i+1)/2 + j] += θ[i] * θ[j]`.
///
/// `acc` is the packed lower triangle of an `f × f` matrix (row `i`
/// holds columns `0..=i`). `staged` holds the batch's vectors at row
/// stride `ld`, which must be at least `f` rounded up to [`LANES`]: the
/// diagonal tiles read whole [`LANES`]-wide column chunks, and the
/// padding lanes they read are multiplied but never stored, so their
/// contents do not matter.
///
/// The triangle is walked in [`GRAM_ROWS`]` × `[`LANES`] register tiles
/// (the tile on the diagonal stores only its lower part), and each tile
/// is loaded once, updated by every staged vector, then stored once.
/// That is only a change of loop nest: each element still receives one
/// `mul` then `add` per staged vector, in the vectors' order, so the
/// result is bit-identical to one rank-1 update per vector.
///
/// Panics if `acc` is not `f(f+1)/2` long, `ld` is too small, or
/// `staged` is not a whole number of rows.
pub fn syrk_packed(acc: &mut [f32], f: usize, staged: &[f32], ld: usize) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 requirement was just probed on this host.
        return unsafe { avx2::syrk_packed(acc, f, staged, ld) };
    }
    syrk_packed_impl(acc, f, staged, ld)
}

#[inline(always)]
fn syrk_packed_impl(acc: &mut [f32], f: usize, staged: &[f32], ld: usize) {
    assert_eq!(acc.len(), f * (f + 1) / 2, "syrk_packed: bad packed length");
    if f == 0 {
        return;
    }
    assert!(
        ld >= f.next_multiple_of(LANES),
        "syrk_packed: stride {ld} is shorter than the padded row"
    );
    assert_eq!(staged.len() % ld, 0, "syrk_packed: partial staged row");
    let mut i0 = 0;
    while i0 + GRAM_ROWS <= f {
        gram_row_block::<GRAM_ROWS>(acc, staged, ld, i0);
        i0 += GRAM_ROWS;
    }
    match f - i0 {
        1 => gram_row_block::<1>(acc, staged, ld, i0),
        2 => gram_row_block::<2>(acc, staged, ld, i0),
        3 => gram_row_block::<3>(acc, staged, ld, i0),
        _ => {}
    }
}

/// Rows `i0..i0 + R` of the triangle: the full tiles left of the
/// diagonal, then the diagonal tile. `i0` is a multiple of
/// [`GRAM_ROWS`], so the diagonal tile starts at `i0` rounded down to
/// [`LANES`] and row `r` keeps `(i0 % LANES) + r + 1 ≤ LANES` of its
/// columns.
#[inline(always)]
fn gram_row_block<const R: usize>(acc: &mut [f32], staged: &[f32], ld: usize, i0: usize) {
    let diag = i0 / LANES * LANES;
    let mut j0 = 0;
    while j0 < diag {
        gram_tile::<R>(acc, staged, ld, i0, j0, [LANES; R]);
        j0 += LANES;
    }
    let mut width = [0; R];
    for (r, w) in width.iter_mut().enumerate() {
        *w = i0 + r + 1 - diag;
    }
    gram_tile::<R>(acc, staged, ld, i0, diag, width);
}

/// One register tile: rows `i0..i0 + R`, columns `j0..j0 + LANES`, of
/// which row `r` loads and stores only its first `width[r]` columns.
#[inline(always)]
fn gram_tile<const R: usize>(
    acc: &mut [f32],
    staged: &[f32],
    ld: usize,
    i0: usize,
    j0: usize,
    width: [usize; R],
) {
    let mut t = [[0.0f32; LANES]; R];
    for r in 0..R {
        let base = (i0 + r) * (i0 + r + 1) / 2 + j0;
        t[r][..width[r]].copy_from_slice(&acc[base..base + width[r]]);
    }
    assert!(
        i0 + R <= ld && j0 + LANES <= ld,
        "gram tile outside the row"
    );
    for theta in staged.chunks_exact(ld) {
        let tj = &theta[j0..j0 + LANES];
        for r in 0..R {
            let ti = theta[i0 + r];
            for l in 0..LANES {
                t[r][l] += ti * tj[l];
            }
        }
    }
    for r in 0..R {
        let base = (i0 + r) * (i0 + r + 1) / 2 + j0;
        acc[base..base + width[r]].copy_from_slice(&t[r][..width[r]]);
    }
}

/// Centroid chunks of [`LANES`] held in one [`sq_dists_transposed`]
/// register tile: four independent accumulator vectors, enough to hide
/// the `add` latency of each lane's chain behind the other three.
pub const DIST_CHUNKS: usize = 4;

/// Squared Euclidean distances from one row to every centroid of a
/// transposed centroid block — the assign step of k-means:
/// `out[c] = Σ_j (row[j] − cen_t[j·k_pad + c])²`.
///
/// `cen_t` is `f × k_pad` (`f = row.len()`): line `j` holds element `j`
/// of every centroid, one centroid per column, and `k_pad` is a multiple
/// of [`LANES`]. Padding columns are computed like the rest; their
/// contents do not matter, and callers must not read their outputs.
///
/// Each output is its own accumulator, one centroid per lane, so there is
/// no reduction tree: lane `c` starts from `0.0` and, for `j` ascending,
/// computes `e = row[j] − cen_t[j·k_pad + c]` then `d += e·e` as a `mul`
/// followed by an `add`. That is exactly the scalar loop over one
/// (row, centroid) pair, so every distance is bit-identical to it,
/// non-finite values included. The kernel walks the columns in
/// [`DIST_CHUNKS`]` × `[`LANES`] register tiles, each held in registers
/// while the whole row streams through it; the tile changes only which
/// independent chains run side by side.
///
/// Panics if `k_pad` is not a positive multiple of [`LANES`], `cen_t` is
/// not `f × k_pad` long, or `out` is not `k_pad` long.
pub fn sq_dists_transposed(row: &[f32], cen_t: &[f32], k_pad: usize, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 requirement was just probed on this host.
        return unsafe { avx2::sq_dists_transposed(row, cen_t, k_pad, out) };
    }
    sq_dists_transposed_impl(row, cen_t, k_pad, out)
}

/// Signature shared by the compilations of [`sq_dists_transposed`].
pub type SqDistsFn = fn(&[f32], &[f32], usize, &mut [f32]);

/// Every compilation of [`sq_dists_transposed`] this host can run, by
/// name: the portable body, and its AVX2 compilation where the host has
/// AVX2. Tests iterate it to pin each compilation to a reference; code
/// outside tests calls [`sq_dists_transposed`].
#[doc(hidden)]
pub fn sq_dists_compilations() -> Vec<(&'static str, SqDistsFn)> {
    let mut all: Vec<(&'static str, SqDistsFn)> = vec![("portable", sq_dists_transposed_impl)];
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        all.push(("avx2", |row, cen_t, k_pad, out| {
            // SAFETY: this entry is only listed after the AVX2 probe above.
            unsafe { avx2::sq_dists_transposed(row, cen_t, k_pad, out) }
        }));
    }
    all
}

#[inline(always)]
fn sq_dists_transposed_impl(row: &[f32], cen_t: &[f32], k_pad: usize, out: &mut [f32]) {
    assert!(
        k_pad > 0 && k_pad.is_multiple_of(LANES),
        "sq_dists_transposed: k_pad {k_pad} is not a positive multiple of {LANES}"
    );
    assert_eq!(
        cen_t.len(),
        row.len() * k_pad,
        "sq_dists_transposed: bad centroid block"
    );
    assert_eq!(out.len(), k_pad, "sq_dists_transposed: bad output length");
    let mut c0 = 0;
    while c0 + DIST_CHUNKS * LANES <= k_pad {
        dist_tile::<DIST_CHUNKS>(row, cen_t, k_pad, c0, out);
        c0 += DIST_CHUNKS * LANES;
    }
    match (k_pad - c0) / LANES {
        1 => dist_tile::<1>(row, cen_t, k_pad, c0, out),
        2 => dist_tile::<2>(row, cen_t, k_pad, c0, out),
        3 => dist_tile::<3>(row, cen_t, k_pad, c0, out),
        _ => {}
    }
}

/// Columns `c0..c0 + B·LANES`: `B` accumulator vectors, one `sub`, `mul`
/// and `add` per lane per row element, in ascending `j`.
#[inline(always)]
fn dist_tile<const B: usize>(row: &[f32], cen_t: &[f32], k_pad: usize, c0: usize, out: &mut [f32]) {
    let mut acc = [[0.0f32; LANES]; B];
    for (&x, line) in row.iter().zip(cen_t.chunks_exact(k_pad)) {
        let cols = &line[c0..c0 + B * LANES];
        for (a, c) in acc.iter_mut().zip(cols.chunks_exact(LANES)) {
            for l in 0..LANES {
                let e = x - c[l];
                a[l] += e * e;
            }
        }
    }
    for (a, o) in acc
        .iter()
        .zip(out[c0..c0 + B * LANES].chunks_exact_mut(LANES))
    {
        o.copy_from_slice(a);
    }
}

/// AVX2 compilations of the portable kernel bodies. Each function simply
/// inlines the matching `*_impl` under `#[target_feature(enable =
/// "avx2")]`, so the evaluation order — and therefore every bit of the
/// result — is identical to the portable build; only the vector width
/// the autovectorizer may use changes. Callers must have verified AVX2
/// support (the public wrappers probe `is_x86_feature_detected!`).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use core::arch::x86_64::*;

    /// Decode [`LANES`] consecutive binary16 values starting at `p` into
    /// one 8-lane `f32` vector — the exact vector transcription of
    /// [`decode_f16`], lane by lane: zero-extend, shift the magnitude
    /// into f32 position, rescale finite values by the exact `2¹¹²`
    /// multiply, rebase saturated exponents by the integer add, select,
    /// restore the sign. Every lane is bit-identical to the scalar
    /// decode for every 16-bit pattern (NaN payloads included, which a
    /// hardware `vcvtph2ps` would quietize).
    ///
    /// Caller must guarantee `p..p+LANES` is readable.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn decode8(p: *const F16) -> __m256 {
        let h = _mm_loadu_si128(p as *const __m128i);
        let bits = _mm256_cvtepu16_epi32(h);
        // (bits & 0x7FFF) << 13 == (bits << 13) & (0x7FFF << 13).
        let mag = _mm256_and_si256(
            _mm256_slli_epi32::<13>(bits),
            _mm256_set1_epi32(0x0FFF_E000),
        );
        // (bits & 0x8000) << 16 == (bits << 16) & 0x8000_0000.
        let sign = _mm256_and_si256(_mm256_slli_epi32::<16>(bits), _mm256_set1_epi32(i32::MIN));
        let finite = _mm256_mul_ps(
            _mm256_castsi256_ps(mag),
            _mm256_set1_ps(f32::from_bits(0x7780_0000)),
        );
        let special = _mm256_castsi256_ps(_mm256_add_epi32(mag, _mm256_set1_epi32(0x7000_0000)));
        let saturated = _mm256_cmpeq_epi32(
            _mm256_and_si256(bits, _mm256_set1_epi32(0x7C00)),
            _mm256_set1_epi32(0x7C00),
        );
        let val = _mm256_blendv_ps(finite, special, _mm256_castsi256_ps(saturated));
        _mm256_castsi256_ps(_mm256_or_si256(_mm256_castps_si256(val), sign))
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
        dot_lanes_impl(a, b)
    }

    /// Explicit-vector [`dot_f16`]: one accumulator vector whose lane
    /// `l` is exactly `acc[l]` of the portable loop, fed by [`decode8`];
    /// the remainder and reduction reuse the scalar code verbatim.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_f16(a: &[f32], b: &[F16]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot_f16: length mismatch");
        let full = a.len() / LANES * LANES;
        let mut vacc = _mm256_setzero_ps();
        let mut i = 0;
        while i < full {
            let x = _mm256_loadu_ps(a.as_ptr().add(i));
            let t = decode8(b.as_ptr().add(i));
            vacc = _mm256_add_ps(vacc, _mm256_mul_ps(x, t));
            i += LANES;
        }
        let mut acc = [0.0f32; LANES];
        _mm256_storeu_ps(acc.as_mut_ptr(), vacc);
        for (l, (&x, &h)) in a[full..].iter().zip(&b[full..]).enumerate() {
            acc[l] += x * decode_f16(h);
        }
        reduce_lanes(acc)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn syrk_packed(acc: &mut [f32], f: usize, staged: &[f32], ld: usize) {
        syrk_packed_impl(acc, f, staged, ld)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sq_dists_transposed(row: &[f32], cen_t: &[f32], k_pad: usize, out: &mut [f32]) {
        sq_dists_transposed_impl(row, cen_t, k_pad, out)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i8_scaled(a: &[f32], q: &[i8], scale: f32) -> f32 {
        dot_i8_scaled_impl(a, q, scale)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn score_tile(
        users: &[f32],
        n_users: usize,
        theta: &[f32],
        n_items: usize,
        f: usize,
        out: &mut [f32],
    ) {
        score_tile_impl(users, n_users, theta, n_items, f, out)
    }

    /// Explicit-vector [`score_tile_f16`]: each Θ chunk is decoded once
    /// by [`decode8`] and multiplied into [`TILE_USERS`] accumulator
    /// vectors whose lane `l` is exactly `acc[u][l]` of the portable
    /// loop; remainder users, remainder features, and the reduction
    /// reuse the scalar code verbatim.
    #[target_feature(enable = "avx2")]
    pub unsafe fn score_tile_f16(
        users: &[f32],
        n_users: usize,
        theta: &[F16],
        n_items: usize,
        f: usize,
        out: &mut [f32],
    ) {
        assert_eq!(users.len(), n_users * f, "score_tile_f16: bad user slice");
        assert_eq!(theta.len(), n_items * f, "score_tile_f16: bad theta slice");
        assert!(
            out.len() >= n_users * n_items,
            "score_tile_f16: out too short ({} < {})",
            out.len(),
            n_users * n_items
        );
        let full = f / LANES * LANES;
        let mut u0 = 0;
        while u0 + TILE_USERS <= n_users {
            let xs: [&[f32]; TILE_USERS] = [
                &users[u0 * f..(u0 + 1) * f],
                &users[(u0 + 1) * f..(u0 + 2) * f],
                &users[(u0 + 2) * f..(u0 + 3) * f],
                &users[(u0 + 3) * f..(u0 + 4) * f],
            ];
            for v in 0..n_items {
                let tv = &theta[v * f..(v + 1) * f];
                let mut vacc = [_mm256_setzero_ps(); TILE_USERS];
                let mut i = 0;
                while i < full {
                    let t = decode8(tv.as_ptr().add(i));
                    for (k, a) in vacc.iter_mut().enumerate() {
                        let x = _mm256_loadu_ps(xs[k].as_ptr().add(i));
                        *a = _mm256_add_ps(*a, _mm256_mul_ps(x, t));
                    }
                    i += LANES;
                }
                let mut acc = [[0.0f32; LANES]; TILE_USERS];
                for (k, va) in vacc.iter().enumerate() {
                    _mm256_storeu_ps(acc[k].as_mut_ptr(), *va);
                }
                for (l, j) in (full..f).enumerate() {
                    let tl = decode_f16(tv[j]);
                    for (k, xk) in xs.iter().enumerate() {
                        acc[k][l] += xk[j] * tl;
                    }
                }
                for (k, lanes) in acc.iter().enumerate() {
                    out[(u0 + k) * n_items + v] = reduce_lanes(*lanes);
                }
            }
            u0 += TILE_USERS;
        }
        for u in u0..n_users {
            let xu = &users[u * f..(u + 1) * f];
            for v in 0..n_items {
                out[u * n_items + v] = dot_f16(xu, &theta[v * f..(v + 1) * f]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lane-order contract, spelled out element by element with no
    /// shared code: element `i` into lane `i % LANES`, then the fixed
    /// pairwise reduction tree.
    fn reference_dot(a: &[f32], b: &[f32]) -> f32 {
        let mut lanes = [0.0f32; LANES];
        for i in 0..a.len() {
            lanes[i % LANES] += a[i] * b[i];
        }
        ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
    }

    fn vecs(len: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        // Awkward magnitudes so any reassociation shows up in the bits.
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32 - 0.5) * 3.7
        };
        let a: Vec<f32> = (0..len).map(|_| next()).collect();
        let b: Vec<f32> = (0..len).map(|_| next()).collect();
        (a, b)
    }

    #[test]
    fn dot_lanes_is_bit_identical_to_the_spelled_out_order() {
        for len in 0..=4 * LANES + 3 {
            let (a, b) = vecs(len, len as u64 + 1);
            assert_eq!(
                dot_lanes(&a, &b).to_bits(),
                reference_dot(&a, &b).to_bits(),
                "len {len}"
            );
        }
    }

    #[test]
    fn score_tile_is_bit_identical_to_dot_lanes_per_pair() {
        // Cover full tiles, a remainder user, and f remainders.
        for (n_users, n_items, f) in [(1, 3, 5), (4, 7, 8), (6, 5, 19), (9, 4, 35), (3, 1, 1)] {
            let (users, _) = vecs(n_users * f, 42 + f as u64);
            let (theta, _) = vecs(n_items * f, 99 + n_items as u64);
            let mut out = vec![0.0f32; n_users * n_items];
            score_tile(&users, n_users, &theta, n_items, f, &mut out);
            for u in 0..n_users {
                for v in 0..n_items {
                    let want = dot_lanes(&users[u * f..(u + 1) * f], &theta[v * f..(v + 1) * f]);
                    assert_eq!(
                        out[u * n_items + v].to_bits(),
                        want.to_bits(),
                        "u={u} v={v} f={f}"
                    );
                }
            }
        }
    }

    #[test]
    fn decode_f16_matches_to_f32_on_every_bit_pattern() {
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            let slow = h.to_f32();
            let fast = decode_f16(h);
            assert_eq!(
                fast.to_bits(),
                slow.to_bits(),
                "pattern {bits:#06x}: fast {fast} vs slow {slow}"
            );
        }
    }

    #[test]
    fn dot_f16_equals_widen_then_dot_lanes_exactly() {
        for len in 0..=4 * LANES + 3 {
            let (a, raw) = vecs(len, 1000 + len as u64);
            let b: Vec<F16> = raw.iter().map(|&x| F16::from_f32(x)).collect();
            let widened: Vec<f32> = b.iter().map(|h| h.to_f32()).collect();
            assert_eq!(
                dot_f16(&a, &b).to_bits(),
                dot_lanes(&a, &widened).to_bits(),
                "len {len}"
            );
        }
    }

    #[test]
    fn score_tile_f16_is_bit_identical_to_dot_f16_per_pair() {
        for (n_users, n_items, f) in [(4, 6, 8), (5, 3, 13), (2, 4, 40)] {
            let (users, _) = vecs(n_users * f, 7 + f as u64);
            let (raw, _) = vecs(n_items * f, 11 + n_items as u64);
            let theta: Vec<F16> = raw.iter().map(|&x| F16::from_f32(x)).collect();
            let mut out = vec![0.0f32; n_users * n_items];
            score_tile_f16(&users, n_users, &theta, n_items, f, &mut out);
            for u in 0..n_users {
                for v in 0..n_items {
                    let want = dot_f16(&users[u * f..(u + 1) * f], &theta[v * f..(v + 1) * f]);
                    assert_eq!(
                        out[u * n_items + v].to_bits(),
                        want.to_bits(),
                        "u={u} v={v} f={f}"
                    );
                }
            }
        }
    }

    /// Exhaustively pin the dispatched `dot_f16` (the AVX2 `decode8`
    /// path on hosts that have it) to widen-then-`dot_lanes` over every
    /// 16-bit pattern, eight consecutive patterns per chunk — this is
    /// the vector decode's equivalent of the scalar exhaustive test,
    /// covering subnormals, infinities, and NaN payloads.
    #[test]
    fn dot_f16_matches_widen_on_every_bit_pattern_chunkwise() {
        let ones = [1.0f32; LANES];
        let mut base = 0u32;
        while base <= u16::MAX as u32 {
            let chunk: Vec<F16> = (0..LANES)
                .map(|i| F16::from_bits((base + i as u32) as u16))
                .collect();
            let widened: Vec<f32> = chunk.iter().map(|h| h.to_f32()).collect();
            assert_eq!(
                dot_f16(&ones, &chunk).to_bits(),
                dot_lanes(&ones, &widened).to_bits(),
                "base {base:#06x}"
            );
            base += LANES as u32;
        }
    }

    #[test]
    fn dot_i8_scaled_equals_dequantize_then_dot_lanes_exactly() {
        for len in 0..=4 * LANES + 3 {
            let (a, raw) = vecs(len, 5000 + len as u64);
            let q: Vec<i8> = raw.iter().map(|&x| (x * 30.0) as i8).collect();
            let widened: Vec<f32> = q.iter().map(|&w| w as f32).collect();
            let scale = 0.037f32;
            assert_eq!(
                dot_i8_scaled(&a, &q, scale).to_bits(),
                (dot_lanes(&a, &widened) * scale).to_bits(),
                "len {len}"
            );
        }
    }

    /// One rank-1 update per staged vector, element by element in packed
    /// order — the loop `syrk_packed` replaces.
    fn reference_syrk(acc: &mut [f32], f: usize, staged: &[f32], ld: usize) {
        for theta in staged.chunks_exact(ld) {
            for i in 0..f {
                for j in 0..=i {
                    acc[i * (i + 1) / 2 + j] += theta[i] * theta[j];
                }
            }
        }
    }

    /// A staged batch whose padding lanes hold NaN: they are read by the
    /// diagonal tiles but must never reach a stored element. Rows 1 and 3
    /// repeat row 0, as a row with duplicate columns stages them.
    fn staged_batch(f: usize, n: usize, seed: u64) -> (Vec<f32>, usize) {
        let ld = f.next_multiple_of(LANES);
        let (vals, _) = vecs(n * f, seed);
        let mut staged = vec![f32::NAN; n * ld];
        for k in 0..n {
            let src = if k == 1 || k == 3 { 0 } else { k };
            staged[k * ld..k * ld + f].copy_from_slice(&vals[src * f..(src + 1) * f]);
        }
        (staged, ld)
    }

    /// Both compilations of the Gram kernel against the rank-1 loop, on
    /// odd and lane-multiple `f`, batch sizes from one vector to a full
    /// BIN, and a non-zero starting triangle (a second batch continuing
    /// the first).
    #[test]
    fn syrk_packed_is_bit_identical_to_rank1_updates() {
        type Syrk = fn(&mut [f32], usize, &[f32], usize);
        let mut kernels: Vec<(&str, Syrk)> = vec![("portable", |acc, f, staged, ld| {
            syrk_packed_impl(acc, f, staged, ld)
        })];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            kernels.push(("avx2", |acc, f, staged, ld| {
                // SAFETY: the AVX2 requirement was just probed on this host.
                unsafe { avx2::syrk_packed(acc, f, staged, ld) }
            }));
        }
        for (name, kernel) in kernels {
            for f in [1usize, 3, 7, 8, 9, 15, 16, 17, 24, 100, 128] {
                for n in [1usize, 5, 32] {
                    let (start, _) = vecs(f * (f + 1) / 2, 3 + f as u64);
                    let (staged, ld) = staged_batch(f, n.max(4), 17 * f as u64 + n as u64);
                    let staged = &staged[..n * ld];
                    let mut got = start.clone();
                    kernel(&mut got, f, staged, ld);
                    let mut want = start;
                    reference_syrk(&mut want, f, staged, ld);
                    let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                    let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "{name}: f={f} n={n}");
                }
            }
        }
    }

    #[test]
    fn syrk_packed_accepts_a_wider_stride_and_an_empty_batch() {
        let f = 10;
        let ld = 24;
        let (vals, _) = vecs(2 * ld, 8);
        let mut got = vec![0.0f32; f * (f + 1) / 2];
        syrk_packed(&mut got, f, &vals, ld);
        let mut want = vec![0.0f32; f * (f + 1) / 2];
        reference_syrk(&mut want, f, &vals, ld);
        assert_eq!(got, want);
        syrk_packed(&mut got, f, &[], ld);
        assert_eq!(got, want, "an empty batch leaves A untouched");
        syrk_packed(&mut [], 0, &[], 0);
    }

    #[test]
    #[should_panic(expected = "shorter than the padded row")]
    fn syrk_packed_rejects_an_unpadded_stride() {
        let mut acc = vec![0.0f32; 55];
        syrk_packed(&mut acc, 10, &[0.0; 10], 10);
    }

    /// Every compilation of the distance kernel against one spelled-out
    /// scalar chain per (row, centroid) pair: `f` from empty to past
    /// several chunks, `k` from one lane to past a full register tile, a
    /// finite row (where any reordering shows in the bits), a row with
    /// +∞ against a last centroid holding +∞ (∞ − ∞ is NaN in that lane
    /// only), a row with NaN, and NaN in every padding column, whose
    /// outputs are not compared.
    #[test]
    fn sq_dists_transposed_is_bit_identical_to_the_scalar_chain() {
        for (name, sq_dists) in sq_dists_compilations() {
            for f in [0usize, 1, 3, 7, 8, 9, 17, 100] {
                for k in [1usize, 3, 8, 9, 31, 32, 33, 64, 70] {
                    let k_pad = k.next_multiple_of(LANES);
                    let (finite, cen) = vecs(f * k.max(2), (31 * f + k) as u64);
                    let finite = &finite[..f];
                    let mut cen_t = vec![f32::NAN; f * k_pad];
                    for c in 0..k {
                        for j in 0..f {
                            cen_t[j * k_pad + c] = cen[c * f + j];
                        }
                    }
                    let mut rows = vec![finite.to_vec()];
                    if f > 0 {
                        let mut inf = finite.to_vec();
                        inf[0] = f32::INFINITY;
                        cen_t[k - 1] = f32::INFINITY; // line 0, last centroid
                        let mut nan = finite.to_vec();
                        nan[f / 2] = f32::NAN;
                        rows.extend([inf, nan]);
                    }
                    for row in &rows {
                        let mut got = vec![0.0f32; k_pad];
                        sq_dists(row, &cen_t, k_pad, &mut got);
                        for c in 0..k {
                            let mut d = 0.0f32;
                            for j in 0..f {
                                let e = row[j] - cen_t[j * k_pad + c];
                                d += e * e;
                            }
                            assert_eq!(got[c].to_bits(), d.to_bits(), "{name}: f={f} k={k} c={c}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a positive multiple")]
    fn sq_dists_transposed_rejects_an_unpadded_block() {
        sq_dists_transposed(&[1.0], &[0.0; 7], 7, &mut [0.0; 7]);
    }

    #[test]
    fn empty_and_zero_length_inputs_are_zero() {
        assert_eq!(dot_lanes(&[], &[]), 0.0);
        assert_eq!(dot_f16(&[], &[]), 0.0);
        assert_eq!(dot_i8_scaled(&[], &[], 2.0), 0.0);
        let mut out = [0.0f32; 0];
        score_tile(&[], 0, &[], 0, 7, &mut out);
    }

    #[test]
    fn decode_f16_specials() {
        assert_eq!(decode_f16(F16::ZERO).to_bits(), 0.0f32.to_bits());
        assert_eq!(
            decode_f16(F16::from_bits(0x8000)).to_bits(),
            (-0.0f32).to_bits()
        );
        assert_eq!(decode_f16(F16::INFINITY), f32::INFINITY);
        assert_eq!(decode_f16(F16::NEG_INFINITY), f32::NEG_INFINITY);
        assert!(decode_f16(F16::NAN).is_nan());
        assert_eq!(decode_f16(F16::MIN_SUBNORMAL), 2.0f32.powi(-24));
        assert_eq!(decode_f16(F16::MAX), 65504.0);
    }
}
