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
//!   [`reduce_lanes`]: `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)) + 0.0`,
//!   whose last `+ 0.0` turns a `−0.0` sum into `+0.0`, so no score is
//!   ever `−0.0`;
//! * each lane step is one IEEE fused multiply-add, `acc = fma(a, b, acc)`:
//!   the product is never rounded on its own. A fused multiply-add
//!   rounds once, correctly, so the bit pattern is identical on every
//!   host — a hardware `vfmadd`, an autovectorized `llvm.fma` and libm's
//!   `fmaf` all return the same bits.
//!
//! Every kernel in this module — and every scoring surface wired to it —
//! follows that one order, which is what lets blocked, sharded,
//! approximate and naive-reference paths stay bit-identical to each other
//! while still vectorizing.
//!
//! The narrow-type variant [`dot_i8_scaled`] fuses the int8 dequant into
//! the accumulation loop: the widen happens in registers between the
//! load and the multiply, so a quantized scan never materializes an
//! `f32` scratch copy — the byte savings of the narrow format convert
//! into time instead of being spent on an extra store/load pass, the
//! decode-in-the-kernel structure of low-precision GEMMs.
//!
//! [`score_tile`] adds the second classic GEMM trick, register tiling:
//! the AVX2 compilation holds a [`TILE_USERS`]` × 2` tile — four users
//! by two Θ rows, eight accumulator vectors — in registers, so each
//! Θ chunk is loaded once per four users and each user chunk once per
//! two Θ rows. Every accumulator vector is exactly one pair's lane
//! array, so the tile keeps the lane order, and two more arguments keep
//! the bits:
//!
//! * **The masked tail.** The last `f % LANES` elements are read with
//!   one masked load of the user row and of the Θ row under the same
//!   mask; the masked-off lanes read `+0.0` on both sides, so their
//!   lanes compute `fma(+0.0, +0.0, acc)`, which is `acc` for every
//!   `acc` except `−0.0`, NaN and ±∞ included. A lane accumulator
//!   starts at `+0.0` but can still become `−0.0`: a fused step rounds
//!   a negative product too small for `f32` (`−2⁻⁸⁰·2⁻⁸⁰`) to `−0.0`.
//!   Then a dead tail lane reads `+0.0` where the portable body's
//!   untouched lane reads `−0.0` — and a sum of zeros differs only in
//!   its sign, which the reduction's final `+ 0.0` erases.
//! * **The `hadd` tree.** Four pairs reduce at once:
//!   `hadd(hadd(a, b), hadd(c, d))` puts `(l0+l1)+(l2+l3)` of each pair
//!   in the low 128 bits and `(l4+l5)+(l6+l7)` in the high 128 bits, and
//!   one add of the two halves finishes [`reduce_lanes`]' tree
//!   `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`. The only difference is
//!   that `hadd` adds each pair of lanes in the other operand order,
//!   which IEEE addition does not see, apart from which payload a NaN
//!   result carries when both addends are NaN (the order does not pin
//!   that either in the portable body, which the compiler may commute).
//!
//! Remainder users and a trailing odd Θ row run narrower tiles of the
//! same code (`1 × 4` and `4 × 1`), so a single-user scan is tiled too.
//! The portable body keeps the plain four-user loop as the reference.
//!
//! [`score_tile_prefetch`] streams Θ the way the paper stages the next
//! feature vectors while the FMA pipes work on the current ones: the
//! caller names the block it will score next, and the AVX2 and AVX-512
//! tiles spread one `_MM_HINT_T1` prefetch of that whole block evenly
//! over the current block's register tiles. A prefetch loads nothing
//! into a register, so it cannot change a bit of the result.
//!
//! # The pair tile
//!
//! A 512-bit register holds sixteen `f32` lanes, two lane arrays. The
//! AVX-512 compilation of [`score_tile_prefetch`] gives each half to a
//! different user against the same Θ row, so every half is still
//! exactly one pair's lane array:
//!
//! * **Packed users.** Each call packs its users pairwise, once: chunk
//!   `c` of pair `p` is `[x₂ₚ chunk c | x₂ₚ₊₁ chunk c]`, sixteen floats,
//!   with the `f % LANES` tail zero-padded. An odd last user, who would
//!   fill half of every register, runs the AVX2 `1 × 4` tiles instead.
//! * **Broadcast Θ.** Each Θ chunk is loaded once and broadcast into
//!   both halves (`vbroadcastf32x8`); the tail chunk is a masked 256-bit
//!   load, then the same broadcast. The masked-off lanes read `+0.0` on
//!   both sides, as in the AVX2 tail, and the argument above carries
//!   over unchanged.
//! * **The tile.** Four user pairs by four Θ rows: sixteen accumulators
//!   (thirty-two user×row pairs) fed by eight loads per sixteen fused
//!   multiply-adds. One to three pairs left over run a narrower tile of
//!   the same code, and a Θ row left over a `P × 1` tile.
//! * **The permute tree.** `_mm512_permutex2var_ps` gathers the even
//!   and the odd lanes of two registers, and one add of the two is one
//!   level of [`reduce_lanes`]' tree, left operand first. Three levels
//!   give `l0+l1, …`, then `(l0+l1)+(l2+l3)` and `(l4+l5)+(l6+l7)`,
//!   then their sum, and a last `+ 0.0` — the tree
//!   `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)) + 0.0` in its own operand
//!   order, so every score keeps the bits of [`dot_lanes`]. The third
//!   level's indices also put the sums in user-major order, so each
//!   user's four scores are stored together.
//!
//! # The Gram kernel
//!
//! [`syrk_packed`] is the training side's kernel: the rank-k update of a
//! packed symmetric `A_u` behind `get_hermitian`. It needs no lane order,
//! because it has no reduction: every element of `A_u` is its own
//! accumulator, receiving one `mul` then `add` per staged vector in the
//! vectors' order, exactly as a loop of rank-1 updates does. Register
//! blocking — a tile of `A_u` held in registers while the whole staged
//! batch streams through it — changes only the loop nest, so the result
//! is bit-identical to the rank-1 loop whatever the tile. The portable
//! and AVX2 tile is [`GRAM_ROWS`]` × `[`LANES`]; the AVX-512 tile is
//! [`GRAM_ROWS_WIDE`]` × 16`, one 512-bit accumulator per row, whose
//! diagonal tile loads and stores under per-row masks. Per staged
//! vector its inner loop is one column load, eight multiplies by a
//! broadcast row value and eight adds, so the arithmetic bounds it: the
//! `8 × 16` tile ran at 48–57 GFLOP/s against 39–43 for the `4 × 8`
//! AVX2 tile on the same host. The tiles are host constants; the
//! paper's `T × T` register tile is device geometry that only the GPU
//! cost model prices.
//!
//! # The lane-batched CG
//!
//! [`crate::cg::cg_solve_lanes`] solves [`CG_LANES`] rows' systems at
//! once, the way cuMF_ALS batches every row's CG on the device. It uses
//! the trick that makes the two kernels above bit-identical: the lanes
//! hold independent problems, not pieces of one. Sixteen `A_u` are
//! interleaved element by element ([`widen_interleave`] widens a group's
//! FP16 copies and transposes sixteen-by-sixteen blocks in registers),
//! so one 512-bit load brings the same packed element of every system,
//! and each lane runs exactly the operations `cg_solve_in` runs on its
//! own system — the matvec's scatter and `mul`-then-`add` chain, the
//! `f64` dot chains, `axpy`, `xpby` — with no operation across lanes.
//! Early exits differ per lane, so a mask freezes each lane's `x`,
//! residual and iteration count at its own exit while the others go on.
//! The driver is written once over a small lane-arithmetic trait, and
//! its portable, AVX2 and AVX-512 compilations instantiate it; the
//! matvec runs four rows side by side so four `acc` chains overlap. On
//! the FP16 default solver at f = 100 a row's solve fell from about
//! 24–39 µs alone to about 7 µs in a group of sixteen
//! (`bench_solvers`). The trainer's sweeps use it; fold-in, the
//! implicit trainer and the direct solvers keep the per-row path.
//!
//! # The k-means distance kernel
//!
//! [`sq_dists_transposed`] is the publish side's kernel: the assign step
//! of the k-means behind every centroid index. It has no reduction
//! either. Each lane is one (row, centroid) pair's own accumulator and
//! runs the scalar `d += e·e` chain in ascending `j`, against centroids
//! stored transposed so that [`LANES`] centroids sit side by side, and
//! the distances are the scalar loop's bits. Each call takes a group of
//! rows. The AVX-512 compilation holds a [`DIST_ROWS`]` × 32` tile — four
//! rows by thirty-two centroids, eight 512-bit accumulators — while the
//! centroid lines stream through it, so each centroid load serves four
//! rows and each broadcast row element two registers. Four rows per call
//! is what made the 512-bit tile pay: with one row, each lane's chain is
//! `add`-latency-bound, so at the publish path's `k = 32` two 512-bit
//! chains were no faster than four 256-bit ones, and the argmin that
//! reads the distances back right after the store stalled on it. With
//! eight independent chains the tile is bound by its three rounded
//! operations per element on the two 512-bit ports, read-back included.
//! The portable and AVX2 compilations stay one row per tile.
//!
//! # The int8 quantizer
//!
//! [`quantize_i8`] builds the approximate scan's int8 copy one row block
//! at a time: the block's largest finite magnitude, then each element
//! divided by the scale, rounded half away from zero, clamped and
//! converted. Rust's `as i8` saturates and maps NaN to 0, which no vector
//! conversion does, so the autovectorizer leaves one scalar conversion
//! per element; the AVX2 compilation rounds with a truncate, an exact
//! subtraction and a masked `± 1`, clamps, and zeroes NaN lanes before
//! one vector conversion, and every weight keeps its bits. AVX-512 hosts
//! run it too: a 512-bit form saved at most 1 ms per two-shard publish,
//! inside that publish's run-to-run spread.
//!
//! The Gram, CG and k-means kernels keep a `mul` then an `add` per step:
//! their bits pin the training RMSE and the centroid index, which the
//! scoring contract does not touch.
//!
//! # Vector-width multiversioning
//!
//! The lane order fixes *what* is computed, not how wide the machine
//! computes it: eight independent `f32` accumulators vectorize equally
//! well at SSE2 (two 128-bit registers) and AVX2 (one 256-bit register),
//! and IEEE lane arithmetic is width-independent — the bits cannot
//! change. The host is probed once: [`isa`] caches which of the
//! [`Isa`] levels it runs (portable, AVX2, AVX2 + FMA, AVX-512 with
//! `avx512f`, `avx512dq` and `avx512vl`). Each kernel has one
//! compilations table, listing every compilation with the level it
//! needs; its public entry point runs the last entry the host can run,
//! and its tests iterate every entry the host can run
//! ([`score_tile_compilations`], [`syrk_compilations`],
//! [`sq_dists_compilations`], [`quantize_i8_compilations`],
//! [`widen_interleave_compilations`],
//! [`crate::cg::cg_lanes_compilations`],
//! [`crate::f16::narrow_slice_compilations`]). A compilation is the
//! *same* portable body under `#[target_feature]`, or an intrinsic
//! transcription of it where the autovectorizer fell short (the scoring
//! tile reached about a fifth of the host's peak that way). The scoring
//! kernels' compilations are built with `avx2,fma`, so their `mul_add`
//! is one `vfmadd`; on a host without FMA the portable body's `mul_add`
//! calls libm's `fmaf`, which returns the same bits. The scoring tile's
//! AVX-512 compilation, the pair tile above, needs `avx512dq` too: it
//! keeps the 256-bit broadcast one instruction (without it in the
//! feature list the intrinsic is an out-of-line call). The Gram, CG and
//! k-means compilations name `mul` and `add`, and Rust never contracts
//! them without explicit fast-math. Either way this is purely a
//! throughput switch — the property tests cover every compilation the
//! host can run.

use crate::cg::CG_LANES;
use crate::f16::F16;

/// The instruction sets this module's compilations are built for, in
/// increasing order: each needs everything the ones before it do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// Any host: the portable bodies.
    Portable,
    /// `avx2`: the Gram, k-means, int8-quantizer, lane-CG and
    /// FP16-narrowing compilations.
    Avx2,
    /// `avx2` and `fma`: the scoring kernels' compilations.
    Avx2Fma,
    /// `avx2`, `fma`, `avx512f`, `avx512dq` and `avx512vl`: the pair tile,
    /// the 8 × 16 Gram tile, the 4 × 32 k-means tile, the int8
    /// quantizer, the FP16 widen-and-interleave and the 16-lane CG.
    Avx512,
}

/// What this host runs, probed once and cached: every public kernel
/// dispatches on it, and every compilations table is filtered by it.
#[inline]
pub fn isa() -> Isa {
    static PROBED: std::sync::OnceLock<Isa> = std::sync::OnceLock::new();
    *PROBED.get_or_init(probe)
}

#[cold]
fn probe() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        if !has!("avx2") {
            return Isa::Portable;
        }
        if !has!("fma") {
            return Isa::Avx2;
        }
        if has!("avx512f") && has!("avx512dq") && has!("avx512vl") {
            return Isa::Avx512;
        }
        Isa::Avx2Fma
    }
    #[cfg(not(target_arch = "x86_64"))]
    Isa::Portable
}

/// One compilation of a kernel: its name, the instruction set it needs,
/// and its entry point.
pub(crate) type Compilation<F> = (&'static str, Isa, F);

/// The entries of a kernel's compilations table this host can run, in
/// table order (portable first). Tests iterate them.
pub(crate) fn runnable<F: Copy>(table: &[Compilation<F>]) -> Vec<(&'static str, F)> {
    let host = isa();
    table
        .iter()
        .filter(|c| c.1 <= host)
        .map(|c| (c.0, c.2))
        .collect()
}

/// The compilation of `table` a public entry point runs on this host:
/// the last one it can run.
#[inline]
pub(crate) fn best<F: Copy>(table: &[Compilation<F>]) -> Compilation<F> {
    let host = isa();
    *table
        .iter()
        .rev()
        .find(|c| c.1 <= host)
        .expect("every table starts with the portable body")
}

/// Independent accumulator lanes per dot product. Eight `f32` lanes fill
/// one 256-bit vector register; the fixed lane order below is part of the
/// crate's determinism contract, not a tuning knob.
pub const LANES: usize = 8;

/// Users scored per register tile in [`score_tile`]'s portable and AVX2
/// compilations. The AVX2 compilation pairs them with two Θ rows:
/// `TILE_USERS × 2 = 8` accumulator vectors plus the two Θ chunks and
/// one user chunk fit the sixteen vector registers, each Θ load is
/// shared by four users and each user load by two Θ rows, and eight
/// independent `add` chains cover the FMA latency. The AVX-512 pair tile
/// holds twice as many users (four pairs) by four Θ rows in its
/// thirty-two registers.
pub const TILE_USERS: usize = 4;

/// Combine the [`LANES`] accumulators in the documented fixed order:
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`, then `+ 0.0`, which turns
/// a `−0.0` sum into `+0.0` and leaves every other value as it is.
///
/// Every kernel in this module reduces through this exact tree, so two
/// kernels that accumulate the same products always produce the same
/// bits. The `+ 0.0` makes that hold for the sign of a zero too: a
/// fused step can round a tiny negative product to a `−0.0` lane, and
/// the masked tail's dead lanes then hold `+0.0` where the portable
/// body's hold `−0.0`.
#[inline]
pub fn reduce_lanes(acc: [f32; LANES]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + 0.0
}

/// Inner product with [`LANES`] independent accumulators: element `i`
/// lands in lane `i % LANES` through one fused multiply-add, lanes
/// combine via [`reduce_lanes`].
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
    if isa() >= Isa::Avx2Fma {
        // SAFETY: the AVX2 and FMA requirements were just probed on this host.
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
            acc[l] = ca[l].mul_add(cb[l], acc[l]);
        }
        i += LANES;
    }
    for (l, (&x, &y)) in a[full..].iter().zip(&b[full..]).enumerate() {
        acc[l] = x.mul_add(y, acc[l]);
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
    // free select — inside `widen_slice`'s loop this is what lets the
    // autovectorizer keep the widen in SIMD instead of bailing to a
    // scalar loop with control flow.
    let val = if bits & 0x7C00 == 0x7C00 {
        special
    } else {
        finite
    };
    f32::from_bits(val.to_bits() | sign)
}

/// Widen [`CG_LANES`] binary16 blocks and interleave them — the load of
/// a group's FP16 Gram matrices into [`crate::cg::cg_solve_lanes`]: with
/// `n = src.len() / CG_LANES`, block `l` is `src[l·n..(l+1)·n]`, and
/// `dst[k · CG_LANES + l] = decode_f16(src[l·n + k])`.
///
/// Each value goes through [`decode_f16`]'s operations (the AVX-512
/// compilation transcribes them sixteen values at a time, then
/// transposes sixteen-by-sixteen blocks in registers), so every output
/// is [`F16::to_f32`] of its input, for every bit pattern.
///
/// Panics if `src` is not [`CG_LANES`] blocks of one length or `dst` is
/// not as long as `src`.
pub fn widen_interleave(src: &[F16], dst: &mut [f32]) {
    (best(WIDEN_INTERLEAVE).2)(src, dst)
}

/// Signature shared by the compilations of [`widen_interleave`].
pub type WidenInterleaveFn = fn(&[F16], &mut [f32]);

/// The compilations of [`widen_interleave`], portable body first.
static WIDEN_INTERLEAVE: &[Compilation<WidenInterleaveFn>] = &[
    ("portable", Isa::Portable, widen_interleave_impl),
    #[cfg(target_arch = "x86_64")]
    ("avx512", Isa::Avx512, |src, dst| {
        // SAFETY: `best` and `runnable` only hand out an entry on a host
        // that has the instruction set listed beside it.
        unsafe { avx512::widen_interleave(src, dst) }
    }),
];

/// Every compilation of [`widen_interleave`] this host can run, by name,
/// portable body first. Tests iterate it.
#[doc(hidden)]
pub fn widen_interleave_compilations() -> Vec<(&'static str, WidenInterleaveFn)> {
    runnable(WIDEN_INTERLEAVE)
}

/// The block length of a [`widen_interleave`] call, after its checks.
#[inline(always)]
fn widen_interleave_checks(src: &[F16], dst: &[f32]) -> usize {
    assert!(
        src.len().is_multiple_of(CG_LANES),
        "widen_interleave: {} values is not {CG_LANES} blocks",
        src.len()
    );
    assert_eq!(dst.len(), src.len(), "widen_interleave: length mismatch");
    src.len() / CG_LANES
}

#[inline(always)]
fn widen_interleave_impl(src: &[F16], dst: &mut [f32]) {
    let n = widen_interleave_checks(src, dst);
    for (k, d) in dst.chunks_exact_mut(CG_LANES).enumerate() {
        for (l, v) in d.iter_mut().enumerate() {
            *v = decode_f16(src[l * n + k]);
        }
    }
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
    if isa() >= Isa::Avx2Fma {
        // SAFETY: the AVX2 and FMA requirements were just probed on this host.
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
            acc[l] = ca[l].mul_add(cq[l] as f32, acc[l]);
        }
        i += LANES;
    }
    for (l, (&x, &w)) in a[full..].iter().zip(&q[full..]).enumerate() {
        acc[l] = x.mul_add(w as f32, acc[l]);
    }
    reduce_lanes(acc) * scale
}

/// Score an `n_users × n_items` tile: `out[u * n_items + v] =
/// users_row(u) · theta_row(v)`, register-tiled so each Θ chunk is loaded
/// once per [`TILE_USERS`] users (and, in the AVX2 compilation, each
/// user chunk once per two Θ rows; in the AVX-512 pair tile, each Θ
/// chunk once per eight users and each packed user pair once per four
/// Θ rows).
///
/// `users` is `n_users` contiguous `f`-long rows; `theta` is `n_items`
/// contiguous `f`-long rows. Every entry is bit-identical to
/// [`dot_lanes`] on the corresponding row pair — the tile walks `f` in
/// the same chunk order with a private lane array per pair, so the
/// per-pair evaluation order is unchanged; tiling only reorders work
/// *across* independent pairs. Entries of `out` past
/// `n_users * n_items` are not written.
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
    score_tile_prefetch(users, n_users, theta, n_items, f, out, &[])
}

/// [`score_tile`] that also requests `next` — the Θ block the caller
/// scores after this one — into L2 while this tile computes. After each
/// register tile the AVX2 compilation issues `_MM_HINT_T1` prefetches
/// for `⌈lines(next) / tiles⌉` of `next`'s cache lines, so the whole
/// block is requested once, spread evenly over this call; the AVX-512
/// pair tile does the same. The portable body ignores `next`.
///
/// `next` is only a hint: it may have any length (empty on the last
/// block), and a prefetch loads nothing into a register, so the output
/// is bit-identical to [`score_tile`]'s. The AVX-512 pair tile steps
/// the same prefetch after each of its register tiles.
///
/// Panics as [`score_tile`] does.
pub fn score_tile_prefetch(
    users: &[f32],
    n_users: usize,
    theta: &[f32],
    n_items: usize,
    f: usize,
    out: &mut [f32],
    next: &[f32],
) {
    (best(SCORE_TILE).2)(users, n_users, theta, n_items, f, out, next)
}

#[inline(always)]
fn score_tile_impl(
    users: &[f32],
    n_users: usize,
    theta: &[f32],
    n_items: usize,
    f: usize,
    out: &mut [f32],
    _next: &[f32],
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
                    acc[0][l] = c0[l].mul_add(tl, acc[0][l]);
                    acc[1][l] = c1[l].mul_add(tl, acc[1][l]);
                    acc[2][l] = c2[l].mul_add(tl, acc[2][l]);
                    acc[3][l] = c3[l].mul_add(tl, acc[3][l]);
                }
                i += LANES;
            }
            for (l, j) in (full..f).enumerate() {
                let tl = tv[j];
                acc[0][l] = x0[j].mul_add(tl, acc[0][l]);
                acc[1][l] = x1[j].mul_add(tl, acc[1][l]);
                acc[2][l] = x2[j].mul_add(tl, acc[2][l]);
                acc[3][l] = x3[j].mul_add(tl, acc[3][l]);
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

/// Signature shared by the compilations of [`score_tile_prefetch`].
pub type ScoreTileFn = fn(&[f32], usize, &[f32], usize, usize, &mut [f32], &[f32]);

/// The compilations of [`score_tile_prefetch`], in the order the
/// public entry points prefer them, last first: the portable body, the
/// explicit AVX2 + FMA tile, and the AVX-512 pair tile.
static SCORE_TILE: &[Compilation<ScoreTileFn>] = &[
    ("portable", Isa::Portable, score_tile_impl),
    #[cfg(target_arch = "x86_64")]
    (
        "avx2+fma",
        Isa::Avx2Fma,
        |users, n_users, theta, n_items, f, out, next| {
            // SAFETY: `best` and `runnable` only hand out an entry on a host
            // that has the instruction set listed beside it.
            unsafe { avx2::score_tile(users, n_users, theta, n_items, f, out, next) }
        },
    ),
    #[cfg(target_arch = "x86_64")]
    (
        "avx512",
        Isa::Avx512,
        |users, n_users, theta, n_items, f, out, next| {
            // SAFETY: as above.
            unsafe { avx512::score_tile(users, n_users, theta, n_items, f, out, next) }
        },
    ),
];

/// Every compilation of [`score_tile_prefetch`] this host can run, by
/// name, portable body first. Tests iterate it to pin each compilation
/// to [`dot_lanes`]; code outside tests calls [`score_tile`] or
/// [`score_tile_prefetch`].
#[doc(hidden)]
pub fn score_tile_compilations() -> Vec<(&'static str, ScoreTileFn)> {
    runnable(SCORE_TILE)
}

/// The name, as [`score_tile_compilations`] lists it, of the compilation
/// [`score_tile`] and [`score_tile_prefetch`] run on this host: the last
/// one listed. Benchmarks report it beside their throughput rows.
#[doc(hidden)]
pub fn score_tile_compilation() -> &'static str {
    best(SCORE_TILE).0
}

/// Rows of `A` held in one register tile of [`syrk_packed`]'s portable
/// and AVX2 compilations. With [`LANES`] columns that is four 8-lane
/// accumulators; every staged vector is streamed through the tile
/// before it is stored back. The AVX-512 compilation holds
/// [`GRAM_ROWS_WIDE`] rows of sixteen columns.
pub const GRAM_ROWS: usize = 4;

/// Rows of `A` held in one tile of [`syrk_packed`]'s AVX-512
/// compilation: eight rows of sixteen columns, one 512-bit accumulator
/// per row. Each staged vector costs one column load, eight broadcasts
/// and sixteen `mul`/`add`s per tile, and the eight independent `add`
/// chains cover the adder's latency.
pub const GRAM_ROWS_WIDE: usize = 8;

/// Symmetric rank-k update of a packed lower triangle — the Gram kernel
/// of `get_hermitian`: for every `i ≥ j` and every staged vector `θ` in
/// order, `acc[i(i+1)/2 + j] += θ[i] * θ[j]`.
///
/// `acc` is the packed lower triangle of an `f × f` matrix (row `i`
/// holds columns `0..=i`). `staged` holds the batch's vectors at row
/// stride `ld`, which must be at least `f` rounded up to [`LANES`]: the
/// diagonal tiles read whole [`LANES`]-wide column chunks, and the
/// padding lanes they read are multiplied but never stored, so their
/// contents do not matter. (The AVX-512 compilation's sixteen-wide
/// diagonal chunk reads under a mask, so the same stride serves it.)
///
/// The triangle is walked in [`GRAM_ROWS`]` × `[`LANES`] register tiles
/// ([`GRAM_ROWS_WIDE`]` × 16` in the AVX-512 compilation; the tile on
/// the diagonal stores only its lower part), and each tile is loaded
/// once, updated by every staged vector, then stored once. That is only
/// a change of loop nest: each element still receives one `mul` then
/// `add` per staged vector, in the vectors' order, so the result is
/// bit-identical to one rank-1 update per vector.
///
/// Panics if `acc` is not `f(f+1)/2` long, `ld` is too small, or
/// `staged` is not a whole number of rows.
pub fn syrk_packed(acc: &mut [f32], f: usize, staged: &[f32], ld: usize) {
    (best(SYRK).2)(acc, f, staged, ld)
}

/// Signature shared by the compilations of [`syrk_packed`].
pub type SyrkFn = fn(&mut [f32], usize, &[f32], usize);

/// The compilations of [`syrk_packed`], portable body first: the
/// portable `4 × 8` tile, its AVX2 compilation, and the AVX-512
/// `8 × 16` tile.
static SYRK: &[Compilation<SyrkFn>] = &[
    ("portable", Isa::Portable, syrk_packed_impl),
    #[cfg(target_arch = "x86_64")]
    ("avx2", Isa::Avx2, |acc, f, staged, ld| {
        // SAFETY: `best` and `runnable` only hand out an entry on a host
        // that has the instruction set listed beside it.
        unsafe { avx2::syrk_packed(acc, f, staged, ld) }
    }),
    #[cfg(target_arch = "x86_64")]
    ("avx512", Isa::Avx512, |acc, f, staged, ld| {
        // SAFETY: as above.
        unsafe { avx512::syrk_packed(acc, f, staged, ld) }
    }),
];

/// Every compilation of [`syrk_packed`] this host can run, by name,
/// portable body first. Tests iterate it to pin each compilation to the
/// rank-1 loop; code outside tests calls [`syrk_packed`].
#[doc(hidden)]
pub fn syrk_compilations() -> Vec<(&'static str, SyrkFn)> {
    runnable(SYRK)
}

/// The name, as [`syrk_compilations`] lists it, of the compilation
/// [`syrk_packed`] runs on this host. Benchmarks report it.
#[doc(hidden)]
pub fn syrk_compilation() -> &'static str {
    best(SYRK).0
}

/// The argument checks every compilation of [`syrk_packed`] makes;
/// `false` when there is nothing to do (`f = 0`).
#[inline(always)]
fn syrk_checks(acc: &[f32], f: usize, staged: &[f32], ld: usize) -> bool {
    assert_eq!(acc.len(), f * (f + 1) / 2, "syrk_packed: bad packed length");
    if f == 0 {
        return false;
    }
    assert!(
        ld >= f.next_multiple_of(LANES),
        "syrk_packed: stride {ld} is shorter than the padded row"
    );
    assert_eq!(staged.len() % ld, 0, "syrk_packed: partial staged row");
    true
}

#[inline(always)]
fn syrk_packed_impl(acc: &mut [f32], f: usize, staged: &[f32], ld: usize) {
    if !syrk_checks(acc, f, staged, ld) {
        return;
    }
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

/// Centroid chunks of [`LANES`] held in one register tile of
/// [`sq_dists_transposed`]'s portable and AVX2 compilations: four
/// independent accumulator vectors, enough to hide the `add` latency of
/// each lane's chain behind the other three.
pub const DIST_CHUNKS: usize = 4;

/// Rows held in one register tile of [`sq_dists_transposed`]'s AVX-512
/// compilation: four rows by thirty-two centroids, eight 512-bit
/// accumulators. One row alone gives a 512-bit register too few
/// independent chains at `k = 32`; four rows per call made the wide tile
/// pay, the argmin's read-back of the distances included. Callers pass
/// rows in groups of this many.
pub const DIST_ROWS: usize = 4;

/// Squared Euclidean distances from each of `n_rows` rows to every
/// centroid of a transposed centroid block — the assign step of k-means:
/// `out[r·k_pad + c] = Σ_j (rows[r·f + j] − cen_t[j·k_pad + c])²`.
///
/// `cen_t` is `f × k_pad`: line `j` holds element `j` of every centroid,
/// one centroid per column, and `k_pad` is a multiple of [`LANES`].
/// `rows` is `n_rows` contiguous `f`-long rows and `out` is `n_rows`
/// lines of `k_pad`. Padding columns are computed like the rest; their
/// contents do not matter, and callers must not read their outputs.
///
/// Each output is its own accumulator, one centroid per lane, so there is
/// no reduction tree: lane `c` of row `r` starts from `0.0` and, for `j`
/// ascending, computes `e = row[j] − cen_t[j·k_pad + c]` then `d += e·e`
/// as a `mul` followed by an `add`. That is exactly the scalar loop over
/// one (row, centroid) pair, so every distance is bit-identical to it,
/// non-finite values included. The portable and AVX2 compilations walk
/// one row at a time in [`DIST_CHUNKS`]` × `[`LANES`] register tiles; the
/// AVX-512 compilation walks [`DIST_ROWS`]` × 32` tiles. Each tile is held
/// in registers while its rows stream through it, and changes only which
/// independent chains run side by side.
///
/// Panics if `k_pad` is not a positive multiple of [`LANES`], `cen_t` is
/// not a whole number of `k_pad`-long lines, `rows` is not `n_rows` rows
/// of that many elements, or `out` is not `n_rows × k_pad` long.
pub fn sq_dists_transposed(
    rows: &[f32],
    n_rows: usize,
    cen_t: &[f32],
    k_pad: usize,
    out: &mut [f32],
) {
    (best(SQ_DISTS).2)(rows, n_rows, cen_t, k_pad, out)
}

/// Signature shared by the compilations of [`sq_dists_transposed`].
pub type SqDistsFn = fn(&[f32], usize, &[f32], usize, &mut [f32]);

/// The compilations of [`sq_dists_transposed`], portable body first:
/// the portable one-row [`DIST_CHUNKS`]` × `[`LANES`] tile, its AVX2
/// compilation, and the AVX-512 [`DIST_ROWS`]` × 32` tile. The AVX2
/// compilation stays one row per tile: four chains of three rounded
/// operations per element already fill its 256-bit ports, so more rows
/// per tile give it no more throughput.
static SQ_DISTS: &[Compilation<SqDistsFn>] = &[
    ("portable", Isa::Portable, sq_dists_transposed_impl),
    #[cfg(target_arch = "x86_64")]
    ("avx2", Isa::Avx2, |rows, n_rows, cen_t, k_pad, out| {
        // SAFETY: `best` and `runnable` only hand out an entry on a host
        // that has the instruction set listed beside it.
        unsafe { avx2::sq_dists_transposed(rows, n_rows, cen_t, k_pad, out) }
    }),
    #[cfg(target_arch = "x86_64")]
    ("avx512", Isa::Avx512, |rows, n_rows, cen_t, k_pad, out| {
        // SAFETY: as above.
        unsafe { avx512::sq_dists_transposed(rows, n_rows, cen_t, k_pad, out) }
    }),
];

/// Every compilation of [`sq_dists_transposed`] this host can run, by
/// name, portable body first. Tests iterate it to pin each compilation
/// to a reference; code outside tests calls [`sq_dists_transposed`].
#[doc(hidden)]
pub fn sq_dists_compilations() -> Vec<(&'static str, SqDistsFn)> {
    runnable(SQ_DISTS)
}

/// The name, as [`sq_dists_compilations`] lists it, of the compilation
/// [`sq_dists_transposed`] runs on this host. Benchmarks report it.
#[doc(hidden)]
pub fn sq_dists_compilation() -> &'static str {
    best(SQ_DISTS).0
}

/// The argument checks every compilation of [`sq_dists_transposed`]
/// makes; returns the row length `f`.
#[inline(always)]
fn sq_dists_checks(rows: &[f32], n_rows: usize, cen_t: &[f32], k_pad: usize, out: &[f32]) -> usize {
    assert!(
        k_pad > 0 && k_pad.is_multiple_of(LANES),
        "sq_dists_transposed: k_pad {k_pad} is not a positive multiple of {LANES}"
    );
    assert!(
        cen_t.len().is_multiple_of(k_pad),
        "sq_dists_transposed: bad centroid block"
    );
    let f = cen_t.len() / k_pad;
    assert_eq!(rows.len(), n_rows * f, "sq_dists_transposed: bad row block");
    assert_eq!(
        out.len(),
        n_rows * k_pad,
        "sq_dists_transposed: bad output length"
    );
    f
}

#[inline(always)]
fn sq_dists_transposed_impl(
    rows: &[f32],
    n_rows: usize,
    cen_t: &[f32],
    k_pad: usize,
    out: &mut [f32],
) {
    let f = sq_dists_checks(rows, n_rows, cen_t, k_pad, out);
    for (r, out) in out.chunks_exact_mut(k_pad).enumerate() {
        let row = &rows[r * f..(r + 1) * f];
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
}

/// Columns `c0..c0 + B·LANES` of one row: `B` accumulator vectors, one
/// `sub`, `mul` and `add` per lane per row element, in ascending `j`.
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

/// Quantize one block to int8 with one scale, the publish-time copy
/// behind the approximate scan's shortlist: returns
/// `scale = max|v| / 127` over the block's finite elements and writes
/// `dst[i] = round(src[i] / scale)` clamped to `[−127, 127]`, rounding
/// half away from zero (`f32::round`). NaN becomes `0` and ±∞ becomes
/// `±127`, so a non-finite element neither sets the scale nor zeroes its
/// block-mates. A block with no finite non-zero element gets scale `0`
/// and all-zero weights.
///
/// Every compilation divides by `scale` (no reciprocal) and rounds and
/// clamps explicitly, so each weight is the scalar expression's, bit
/// for bit; the maximum is exact in any order.
///
/// Panics if the slices differ in length.
pub fn quantize_i8(src: &[f32], dst: &mut [i8]) -> f32 {
    (best(QUANTIZE_I8).2)(src, dst)
}

/// Signature shared by the compilations of [`quantize_i8`].
pub type QuantizeI8Fn = fn(&[f32], &mut [i8]) -> f32;

/// The compilations of [`quantize_i8`], portable body first. The
/// autovectorizer leaves the portable body one scalar `vcvttss2si` per
/// element (Rust's `as i8` saturates and maps NaN to 0, which no vector
/// conversion does), so the AVX2 compilation rounds, clamps and zeroes
/// NaN lanes in registers before one vector conversion.
static QUANTIZE_I8: &[Compilation<QuantizeI8Fn>] = &[
    ("portable", Isa::Portable, quantize_i8_impl),
    #[cfg(target_arch = "x86_64")]
    ("avx2", Isa::Avx2, |src, dst| {
        // SAFETY: `best` and `runnable` only hand out an entry on a host
        // that has the instruction set listed beside it.
        unsafe { avx2::quantize_i8(src, dst) }
    }),
];

/// Every compilation of [`quantize_i8`] this host can run, by name,
/// portable body first. Tests iterate it; code outside tests calls
/// [`quantize_i8`].
#[doc(hidden)]
pub fn quantize_i8_compilations() -> Vec<(&'static str, QuantizeI8Fn)> {
    runnable(QUANTIZE_I8)
}

/// The name, as [`quantize_i8_compilations`] lists it, of the
/// compilation [`quantize_i8`] runs on this host. Benchmarks report it.
#[doc(hidden)]
pub fn quantize_i8_compilation() -> &'static str {
    best(QUANTIZE_I8).0
}

/// The largest `|v|` over the finite elements of `vals`, and `init`.
#[inline(always)]
fn max_abs_finite(init: f32, vals: &[f32]) -> f32 {
    vals.iter()
        .filter(|v| v.is_finite())
        .fold(init, |m, v| m.max(v.abs()))
}

/// One weight of [`quantize_i8`]: `as i8` saturates and maps NaN to 0.
#[inline(always)]
fn quantize_one(v: f32, scale: f32) -> i8 {
    (v / scale).round().clamp(-127.0, 127.0) as i8
}

#[inline(always)]
fn quantize_i8_impl(src: &[f32], dst: &mut [i8]) -> f32 {
    assert_eq!(src.len(), dst.len(), "quantize_i8: length mismatch");
    let max_abs = max_abs_finite(0.0, src);
    if max_abs == 0.0 {
        dst.fill(0);
        return 0.0;
    }
    let scale = max_abs / 127.0;
    for (q, &v) in dst.iter_mut().zip(src) {
        *q = quantize_one(v, scale);
    }
    scale
}

/// AVX2 compilations of the portable kernel bodies. Most functions
/// simply inline the matching `*_impl` under `#[target_feature]`, so the
/// evaluation order — and therefore every bit of the result — is
/// identical to the portable build; only the vector width the
/// autovectorizer may use, and whether `mul_add` is an instruction or a
/// libm call, change. `score_tile` is written in intrinsics instead, one
/// vector per portable lane array, under the same order, and so is
/// `quantize_i8`, one lane per element. The scoring kernels enable
/// `avx2,fma`, the Gram, k-means and int8 kernels `avx2` alone. Callers
/// must have verified those features (the public wrappers dispatch on
/// [`isa`]).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use core::arch::x86_64::*;

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
        dot_lanes_impl(a, b)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn syrk_packed(acc: &mut [f32], f: usize, staged: &[f32], ld: usize) {
        syrk_packed_impl(acc, f, staged, ld)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sq_dists_transposed(
        rows: &[f32],
        n_rows: usize,
        cen_t: &[f32],
        k_pad: usize,
        out: &mut [f32],
    ) {
        sq_dists_transposed_impl(rows, n_rows, cen_t, k_pad, out)
    }

    /// The AVX2 [`super::quantize_i8`]: the finite maximum and the
    /// weights eight lanes at a time, the last `len % 8` elements through
    /// the portable expressions.
    ///
    /// # Safety
    ///
    /// The host must support `avx2`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn quantize_i8(src: &[f32], dst: &mut [i8]) -> f32 {
        assert_eq!(src.len(), dst.len(), "quantize_i8: length mismatch");
        let full = src.len() / LANES * LANES;
        // `i + LANES <= full <= len` for every load and store below.
        let sign = _mm256_set1_ps(-0.0);
        let inf = _mm256_set1_ps(f32::INFINITY);
        let mut m = _mm256_setzero_ps();
        for i in (0..full).step_by(LANES) {
            let a = _mm256_andnot_ps(sign, _mm256_loadu_ps(src.as_ptr().add(i)));
            let finite = _mm256_cmp_ps::<_CMP_LT_OQ>(a, inf);
            m = _mm256_max_ps(m, _mm256_and_ps(a, finite));
        }
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), m);
        let max_abs = max_abs_finite(max_abs_finite(0.0, &lanes), &src[full..]);
        if max_abs == 0.0 {
            dst.fill(0);
            return 0.0;
        }
        let scale = max_abs / 127.0;
        let s = _mm256_set1_ps(scale);
        for i in (0..full).step_by(LANES) {
            let w = to_i32(_mm256_div_ps(_mm256_loadu_ps(src.as_ptr().add(i)), s));
            let w16 = _mm_packs_epi32(_mm256_castsi256_si128(w), _mm256_extracti128_si256::<1>(w));
            _mm_storel_epi64(dst.as_mut_ptr().add(i).cast(), _mm_packs_epi16(w16, w16));
        }
        for (q, &v) in dst[full..].iter_mut().zip(&src[full..]) {
            *q = quantize_one(v, scale);
        }
        scale
    }

    /// `f32::round` of each lane — half away from zero, the sign of a
    /// zero kept: `t = trunc(q)`, and `t + copysign(1, q)` where
    /// `|q − t| ≥ 0.5`. `q − t` is exact, and so is `t ± 1` whenever it
    /// is taken (`|q| < 2²³`, since larger floats are integers).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) unsafe fn round_half_away(q: __m256) -> __m256 {
        let sign = _mm256_set1_ps(-0.0);
        let t = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(q);
        let frac = _mm256_andnot_ps(sign, _mm256_sub_ps(q, t));
        let up = _mm256_cmp_ps::<_CMP_GE_OQ>(frac, _mm256_set1_ps(0.5));
        let one = _mm256_or_ps(_mm256_set1_ps(1.0), _mm256_and_ps(q, sign));
        _mm256_blendv_ps(t, _mm256_add_ps(t, one), up)
    }

    /// [`super::quantize_one`]'s `round().clamp(−127, 127) as i8` of
    /// each lane, as `i32`: rounded, clamped, and NaN lanes zeroed before
    /// a conversion that is then exact.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn to_i32(q: __m256) -> __m256i {
        let r = round_half_away(q);
        let r = _mm256_min_ps(
            _mm256_max_ps(r, _mm256_set1_ps(-127.0)),
            _mm256_set1_ps(127.0),
        );
        let ordered = _mm256_cmp_ps::<_CMP_ORD_Q>(q, q);
        _mm256_cvttps_epi32(_mm256_and_ps(r, ordered))
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_i8_scaled(a: &[f32], q: &[i8], scale: f32) -> f32 {
        dot_i8_scaled_impl(a, q, scale)
    }

    /// The explicit-vector [`super::score_tile_prefetch`]: users in
    /// [`TILE_USERS`]` × `[`TILE_ITEMS`] tiles, then each remainder user
    /// in `1 × 4` tiles, with a share of `next` prefetched after each.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn score_tile(
        users: &[f32],
        n_users: usize,
        theta: &[f32],
        n_items: usize,
        f: usize,
        out: &mut [f32],
        next: &[f32],
    ) {
        assert_eq!(users.len(), n_users * f, "score_tile: bad user slice");
        assert_eq!(theta.len(), n_items * f, "score_tile: bad theta slice");
        assert!(
            out.len() >= n_users * n_items,
            "score_tile: out too short ({} < {})",
            out.len(),
            n_users * n_items
        );
        let tail = _mm256_cmpgt_epi32(
            _mm256_set1_epi32((f % LANES) as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        let per_row = |v: usize| n_items / v + n_items % v;
        let tiles = n_users / TILE_USERS * per_row(TILE_ITEMS) + n_users % TILE_USERS * per_row(4);
        let mut prefetch = Prefetch::new(next, tiles);
        let mut u0 = 0;
        while u0 + TILE_USERS <= n_users {
            tile_rows::<TILE_USERS, TILE_ITEMS>(
                users,
                u0,
                theta,
                n_items,
                f,
                tail,
                out,
                &mut prefetch,
            );
            u0 += TILE_USERS;
        }
        for u in u0..n_users {
            tile_rows::<1, 4>(users, u, theta, n_items, f, tail, out, &mut prefetch);
        }
    }

    /// Bytes per cache line.
    const LINE: usize = 64;

    /// The cache lines of one slice, requested a fixed number per step
    /// until all have been.
    pub(super) struct Prefetch {
        /// The slice's first cache line (its start rounded down to
        /// [`LINE`]); only ever an argument to `_mm_prefetch`, which
        /// never faults.
        first: *const u8,
        lines: usize,
        issued: usize,
        per_step: usize,
    }

    impl Prefetch {
        /// Spread `next`'s cache lines evenly over `steps` steps.
        pub(super) fn new(next: &[f32], steps: usize) -> Prefetch {
            let start = next.as_ptr().cast::<u8>();
            let skew = start as usize % LINE;
            let lines = if next.is_empty() {
                0
            } else {
                (skew + std::mem::size_of_val(next)).div_ceil(LINE)
            };
            Prefetch {
                first: start.wrapping_sub(skew),
                lines,
                issued: 0,
                per_step: lines.div_ceil(steps.max(1)),
            }
        }

        /// Request the next `per_step` lines, or what is left of them.
        #[inline(always)]
        pub(super) fn step(&mut self) {
            let stop = self.lines.min(self.issued + self.per_step);
            while self.issued < stop {
                let line = self.first.wrapping_add(self.issued * LINE);
                // SAFETY: a prefetch is a hint that never faults and
                // writes nothing, whatever the address.
                unsafe { _mm_prefetch::<_MM_HINT_T1>(line.cast::<i8>()) };
                self.issued += 1;
            }
        }
    }

    /// Θ rows per register tile; with [`TILE_USERS`] users that is eight
    /// accumulator vectors.
    const TILE_ITEMS: usize = 2;

    /// Reduce four accumulator vectors at once: lane `k` of the result
    /// is [`reduce_lanes`] of the `k`-th argument. The inner `hadd`s
    /// form `l0+l1`, `l2+l3`, … of each argument, the outer one
    /// `(l0+l1)+(l2+l3)` in the low half and `(l4+l5)+(l6+l7)` in the
    /// high half, the next add joins the halves — the same tree — and
    /// the last adds `+0.0`, as [`reduce_lanes`] does.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn reduce4(a: __m256, b: __m256, c: __m256, d: __m256) -> __m128 {
        let q = _mm256_hadd_ps(_mm256_hadd_ps(a, b), _mm256_hadd_ps(c, d));
        let sum = _mm_add_ps(_mm256_castps256_ps128(q), _mm256_extractf128_ps::<1>(q));
        _mm_add_ps(sum, _mm_setzero_ps())
    }

    /// Users `u0..u0 + U` against every Θ row: `U × V` tiles, then one
    /// `U × 1` tile per Θ row left over, each followed by one prefetch
    /// step.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    pub(super) unsafe fn tile_rows<const U: usize, const V: usize>(
        users: &[f32],
        u0: usize,
        theta: &[f32],
        n_items: usize,
        f: usize,
        tail: __m256i,
        out: &mut [f32],
        prefetch: &mut Prefetch,
    ) {
        let xs: [&[f32]; U] = std::array::from_fn(|u| &users[(u0 + u) * f..][..f]);
        let mut v0 = 0;
        while v0 + V <= n_items {
            tile::<U, V>(xs, theta, v0, n_items, f, tail, out, u0);
            prefetch.step();
            v0 += V;
        }
        for v in v0..n_items {
            tile::<U, 1>(xs, theta, v, n_items, f, tail, out, u0);
            prefetch.step();
        }
    }

    /// One `U × V` register tile: users `xs` (rows `u0..u0 + U`) against
    /// Θ rows `v0..v0 + V`. Accumulator `acc[u][v]` is the portable
    /// loop's lane array of that pair — one fused multiply-add per full
    /// chunk in ascending order, then the masked tail — and the pairs
    /// reduce four at a time through [`reduce4`].
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn tile<const U: usize, const V: usize>(
        xs: [&[f32]; U],
        theta: &[f32],
        v0: usize,
        n_items: usize,
        f: usize,
        tail: __m256i,
        out: &mut [f32],
        u0: usize,
    ) {
        const { assert!(U * V <= 8, "a tile holds at most eight accumulators") };
        let ts: [&[f32]; V] = std::array::from_fn(|v| &theta[(v0 + v) * f..][..f]);
        // Every row of `xs` and `ts` is exactly `f` long: the full-chunk
        // loads read `i..i + LANES` with `i + LANES <= full <= f`, and the
        // masked tail touches only the `f - full` lanes `tail` selects.
        let full = f / LANES * LANES;
        let mut acc = [[_mm256_setzero_ps(); V]; U];
        let mut t = [_mm256_setzero_ps(); V];
        let mut i = 0;
        while i < full {
            for (tv, row) in t.iter_mut().zip(ts) {
                *tv = _mm256_loadu_ps(row.as_ptr().add(i));
            }
            for (au, xu) in acc.iter_mut().zip(xs) {
                let x = _mm256_loadu_ps(xu.as_ptr().add(i));
                for (a, &tv) in au.iter_mut().zip(&t) {
                    *a = _mm256_fmadd_ps(x, tv, *a);
                }
            }
            i += LANES;
        }
        if full < f {
            for (tv, row) in t.iter_mut().zip(ts) {
                *tv = _mm256_maskload_ps(row.as_ptr().add(full), tail);
            }
            for (au, xu) in acc.iter_mut().zip(xs) {
                let x = _mm256_maskload_ps(xu.as_ptr().add(full), tail);
                for (a, &tv) in au.iter_mut().zip(&t) {
                    *a = _mm256_fmadd_ps(x, tv, *a);
                }
            }
        }
        let mut flat = [_mm256_setzero_ps(); 8];
        for (u, au) in acc.iter().enumerate() {
            flat[u * V..(u + 1) * V].copy_from_slice(au);
        }
        let mut sums = [0.0f32; 8];
        _mm_storeu_ps(
            sums.as_mut_ptr(),
            reduce4(flat[0], flat[1], flat[2], flat[3]),
        );
        if U * V > 4 {
            _mm_storeu_ps(
                sums.as_mut_ptr().add(4),
                reduce4(flat[4], flat[5], flat[6], flat[7]),
            );
        }
        for u in 0..U {
            let row = (u0 + u) * n_items + v0;
            out[row..row + V].copy_from_slice(&sums[u * V..(u + 1) * V]);
        }
    }
}

/// The AVX-512 compilations: the pair tile of [`score_tile_prefetch`]
/// (the module doc's "pair tile"), the `8 × 16` tile of [`syrk_packed`],
/// the `4 × 32` tile of [`sq_dists_transposed`] and the transposing
/// [`widen_interleave`]. In the pair tile two users share each 512-bit
/// accumulator, one per 256-bit half, so every
/// half is exactly one pair's lane array, as in the AVX2 tile; in the
/// Gram and distance tiles every lane is its own chain, as in their
/// portable bodies. Callers
/// must have verified `avx512f`, `avx512dq` and `avx512vl` (the public
/// wrappers dispatch on [`isa`](super::isa)).
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::avx2::{self, Prefetch};
    use super::{
        decode_f16, sq_dists_checks, syrk_checks, widen_interleave_checks, DIST_ROWS,
        GRAM_ROWS_WIDE, LANES,
    };
    use crate::f16::F16;
    use core::arch::x86_64::*;

    /// Floats in one 512-bit register.
    const WIDE: usize = 2 * LANES;

    /// The `8 × 16` compilation of [`super::syrk_packed`]: rows in
    /// blocks of [`GRAM_ROWS_WIDE`] (one to seven left over run a
    /// narrower block of the same code), each block's sixteen-column
    /// tiles left of the diagonal, then its diagonal tile.
    ///
    /// # Safety
    ///
    /// The host must support `avx512f`, `avx512dq`, `avx512vl`, `avx2`
    /// and `fma`.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2,fma")]
    pub unsafe fn syrk_packed(acc: &mut [f32], f: usize, staged: &[f32], ld: usize) {
        if !syrk_checks(acc, f, staged, ld) {
            return;
        }
        let mut i0 = 0;
        while i0 + GRAM_ROWS_WIDE <= f {
            gram_rows::<GRAM_ROWS_WIDE>(acc, staged, ld, i0);
            i0 += GRAM_ROWS_WIDE;
        }
        match f - i0 {
            1 => gram_rows::<1>(acc, staged, ld, i0),
            2 => gram_rows::<2>(acc, staged, ld, i0),
            3 => gram_rows::<3>(acc, staged, ld, i0),
            4 => gram_rows::<4>(acc, staged, ld, i0),
            5 => gram_rows::<5>(acc, staged, ld, i0),
            6 => gram_rows::<6>(acc, staged, ld, i0),
            7 => gram_rows::<7>(acc, staged, ld, i0),
            _ => {}
        }
    }

    /// Rows `i0..i0 + R` of the triangle: the full tiles left of the
    /// diagonal, then the diagonal tile, which starts at `i0` rounded
    /// down to [`WIDE`] and in which row `r` keeps its first
    /// `i0 + r + 1 − diag ≤ WIDE` columns. `i0` is a multiple of
    /// [`GRAM_ROWS_WIDE`], so a block never straddles two diagonal
    /// chunks.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2,fma")]
    #[inline]
    unsafe fn gram_rows<const R: usize>(acc: &mut [f32], staged: &[f32], ld: usize, i0: usize) {
        let diag = i0 / WIDE * WIDE;
        let mut j0 = 0;
        while j0 < diag {
            gram_tile::<R>(acc, staged, ld, i0, j0, [u16::MAX; R]);
            j0 += WIDE;
        }
        let keep = std::array::from_fn(|r| ((1u32 << (i0 + r + 1 - diag)) - 1) as u16);
        gram_tile::<R>(acc, staged, ld, i0, diag, keep);
    }

    /// One register tile: rows `i0..i0 + R`, columns `j0..j0 + WIDE`,
    /// of which row `r` loads and stores the lanes of `keep[r]` (a
    /// prefix). Each staged vector's column chunk is read under the
    /// widest row's mask, so the diagonal tile never reads past column
    /// `i0 + R − 1 < f ≤ ld`; the lanes it does not store are
    /// multiplied but dropped, as in the portable tile.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2,fma")]
    #[inline]
    unsafe fn gram_tile<const R: usize>(
        acc: &mut [f32],
        staged: &[f32],
        ld: usize,
        i0: usize,
        j0: usize,
        keep: [__mmask16; R],
    ) {
        let base: [usize; R] = std::array::from_fn(|r| (i0 + r) * (i0 + r + 1) / 2 + j0);
        // Row `i0 + r` holds columns `0..=i0 + r` at `base[r] - j0`, and
        // `keep[r]` selects at most `i0 + r + 1 - j0` lanes of it; the
        // column chunk's lanes under `keep[R - 1]` end at `i0 + R <= f`.
        assert!(i0 + R <= ld && base[R - 1] + (keep[R - 1].count_ones() as usize) <= acc.len());
        let cols = keep[R - 1];
        let mut t: [__m512; R] =
            std::array::from_fn(|r| _mm512_maskz_loadu_ps(keep[r], acc.as_ptr().add(base[r])));
        for theta in staged.chunks_exact(ld) {
            let tj = _mm512_maskz_loadu_ps(cols, theta.as_ptr().add(j0));
            for (r, tr) in t.iter_mut().enumerate() {
                let ti = _mm512_set1_ps(*theta.get_unchecked(i0 + r));
                *tr = _mm512_add_ps(*tr, _mm512_mul_ps(ti, tj));
            }
        }
        for (r, &tr) in t.iter().enumerate() {
            _mm512_mask_storeu_ps(acc.as_mut_ptr().add(base[r]), keep[r], tr);
        }
    }

    /// The [`DIST_ROWS`]` × 32` compilation of
    /// [`super::sq_dists_transposed`]: rows in groups of [`DIST_ROWS`]
    /// (one to three left over run a narrower group of the same code),
    /// each group's centroids in tiles of two registers, then the last
    /// 8, 16 or 24 columns in one or two registers whose last one loads
    /// and stores under a mask.
    ///
    /// # Safety
    ///
    /// The host must support `avx512f`, `avx512dq`, `avx512vl`, `avx2`
    /// and `fma`.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2,fma")]
    pub unsafe fn sq_dists_transposed(
        rows: &[f32],
        n_rows: usize,
        cen_t: &[f32],
        k_pad: usize,
        out: &mut [f32],
    ) {
        let f = sq_dists_checks(rows, n_rows, cen_t, k_pad, out);
        let mut r0 = 0;
        while r0 + DIST_ROWS <= n_rows {
            dist_rows::<DIST_ROWS>(rows, r0, f, cen_t, k_pad, out);
            r0 += DIST_ROWS;
        }
        match n_rows - r0 {
            1 => dist_rows::<1>(rows, r0, f, cen_t, k_pad, out),
            2 => dist_rows::<2>(rows, r0, f, cen_t, k_pad, out),
            3 => dist_rows::<3>(rows, r0, f, cen_t, k_pad, out),
            _ => {}
        }
    }

    /// Rows `r0..r0 + R` against every centroid: `R × 32` tiles, then
    /// one tile for the 8, 16 or 24 columns left over (`k_pad` is a
    /// multiple of [`LANES`]).
    #[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2,fma")]
    #[inline]
    unsafe fn dist_rows<const R: usize>(
        rows: &[f32],
        r0: usize,
        f: usize,
        cen_t: &[f32],
        k_pad: usize,
        out: &mut [f32],
    ) {
        let xs: [&[f32]; R] = std::array::from_fn(|r| &rows[(r0 + r) * f..][..f]);
        let mut c0 = 0;
        while c0 + 2 * WIDE <= k_pad {
            dist_tile::<R, 2>(xs, cen_t, k_pad, c0, [u16::MAX; 2], out, r0);
            c0 += 2 * WIDE;
        }
        match k_pad - c0 {
            8 => dist_tile::<R, 1>(xs, cen_t, k_pad, c0, [0x00FF], out, r0),
            16 => dist_tile::<R, 1>(xs, cen_t, k_pad, c0, [u16::MAX], out, r0),
            24 => dist_tile::<R, 2>(xs, cen_t, k_pad, c0, [u16::MAX, 0x00FF], out, r0),
            _ => {}
        }
    }

    /// One `R × W` register tile: rows `xs` (rows `r0..r0 + R`) against
    /// columns `c0..c0 + 16·W`, of which register `w` loads and stores
    /// the lanes of `keep[w]` (a prefix). Accumulator `acc[r][w]` holds
    /// sixteen (row, centroid) chains, each the scalar loop's: from
    /// `0.0`, `j` ascending, `e = x − c` then `d = d + e·e`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2,fma")]
    #[inline]
    unsafe fn dist_tile<const R: usize, const W: usize>(
        xs: [&[f32]; R],
        cen_t: &[f32],
        k_pad: usize,
        c0: usize,
        keep: [__mmask16; W],
        out: &mut [f32],
        r0: usize,
    ) {
        let f = cen_t.len() / k_pad;
        // Every row of `xs` is `f` long; line `j < f` of `cen_t` holds
        // `k_pad` floats, of which register `w` reads the lanes of
        // `keep[w]` from `c0 + 16w`, all below `k_pad` (the caller's
        // split); `out` line `r0 + r < n_rows` is `k_pad` long and is
        // written under the same masks.
        assert!(c0 + WIDE * (W - 1) + keep[W - 1].count_ones() as usize <= k_pad);
        assert!((r0 + R) * k_pad <= out.len());
        let mut acc = [[_mm512_setzero_ps(); W]; R];
        for j in 0..f {
            let line = cen_t.as_ptr().add(j * k_pad + c0);
            let c: [__m512; W] =
                std::array::from_fn(|w| _mm512_maskz_loadu_ps(keep[w], line.add(WIDE * w)));
            for (ar, x) in acc.iter_mut().zip(xs) {
                let x = _mm512_set1_ps(x[j]);
                for (a, &cw) in ar.iter_mut().zip(&c) {
                    let e = _mm512_sub_ps(x, cw);
                    *a = _mm512_add_ps(*a, _mm512_mul_ps(e, e));
                }
            }
        }
        for (r, ar) in acc.iter().enumerate() {
            let line = out.as_mut_ptr().add((r0 + r) * k_pad + c0);
            for (w, &a) in ar.iter().enumerate() {
                _mm512_mask_storeu_ps(line.add(WIDE * w), keep[w], a);
            }
        }
    }

    /// The AVX-512 [`super::widen_interleave`]: sixteen values of each
    /// block at a time, each decoded as [`super::decode_f16`] decodes
    /// it, the sixteen-by-sixteen block transposed in registers and
    /// stored as sixteen interleaved elements; the last `n % 16`
    /// elements run the portable loop.
    ///
    /// # Safety
    ///
    /// The host must support `avx512f`, `avx512dq`, `avx512vl`, `avx2`
    /// and `fma`.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2,fma")]
    pub unsafe fn widen_interleave(src: &[F16], dst: &mut [f32]) {
        let n = widen_interleave_checks(src, dst);
        let full = n / WIDE * WIDE;
        for k0 in (0..full).step_by(WIDE) {
            // Block `l`'s values `k0..k0 + 16` lie in `src`, and their
            // sixteen interleaved elements in `dst` (both checked above).
            let rows: [__m512; WIDE] = std::array::from_fn(|l| {
                let h = _mm256_loadu_si256(src.as_ptr().add(l * n + k0).cast());
                decode16(_mm512_cvtepu16_epi32(h))
            });
            for (c, col) in transpose16(rows).into_iter().enumerate() {
                _mm512_storeu_ps(dst.as_mut_ptr().add((k0 + c) * WIDE), col);
            }
        }
        for k in full..n {
            for l in 0..WIDE {
                dst[k * WIDE + l] = decode_f16(src[l * n + k]);
            }
        }
    }

    /// [`super::decode_f16`] of sixteen zero-extended binary16 patterns,
    /// operation for operation: the magnitude shifted into place and
    /// multiplied by `2¹¹²`, or rebased when the exponent is saturated,
    /// then the sign.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2,fma")]
    #[inline]
    unsafe fn decode16(bits: __m512i) -> __m512 {
        let mag = _mm512_slli_epi32::<13>(_mm512_and_si512(bits, _mm512_set1_epi32(0x7FFF)));
        let sign = _mm512_slli_epi32::<16>(_mm512_and_si512(bits, _mm512_set1_epi32(0x8000)));
        let scale = _mm512_set1_ps(f32::from_bits(0x7780_0000));
        let finite = _mm512_mul_ps(_mm512_castsi512_ps(mag), scale);
        let special = _mm512_castsi512_ps(_mm512_add_epi32(mag, _mm512_set1_epi32(0x7000_0000)));
        let saturated = _mm512_cmpeq_epi32_mask(
            _mm512_and_si512(bits, _mm512_set1_epi32(0x7C00)),
            _mm512_set1_epi32(0x7C00),
        );
        let val = _mm512_mask_blend_ps(saturated, finite, special);
        _mm512_castsi512_ps(_mm512_or_si512(_mm512_castps_si512(val), sign))
    }

    /// Transpose sixteen registers: lane `l` of output `k` is lane `k`
    /// of input `l`. Two unpack levels transpose each 128-bit quarter's
    /// four-by-four blocks, and two 128-bit shuffle levels move the
    /// blocks; no lane's value changes.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2,fma")]
    #[inline]
    unsafe fn transpose16(r: [__m512; WIDE]) -> [__m512; WIDE] {
        // t[2m], t[2m + 1]: rows 2m, 2m + 1 interleaved, low and high
        // pairs of each quarter.
        let t: [__m512; WIDE] = std::array::from_fn(|i| {
            let (a, b) = (r[i & !1], r[i | 1]);
            if i % 2 == 0 {
                _mm512_unpacklo_ps(a, b)
            } else {
                _mm512_unpackhi_ps(a, b)
            }
        });
        // u[4g + c]: quarter q holds rows 4g..4g + 4 of column 4q + c.
        let u: [__m512; WIDE] = std::array::from_fn(|i| {
            let (g, c) = (i / 4, i % 4);
            let a = _mm512_castps_pd(t[4 * g + c / 2]);
            let b = _mm512_castps_pd(t[4 * g + 2 + c / 2]);
            _mm512_castpd_ps(if c % 2 == 0 {
                _mm512_unpacklo_pd(a, b)
            } else {
                _mm512_unpackhi_pd(a, b)
            })
        });
        // Column 4q + c is quarter q of u[c], u[4 + c], u[8 + c] and
        // u[12 + c], in that order: a four-by-four transpose of quarters.
        let mut out = [_mm512_setzero_ps(); WIDE];
        for c in 0..4 {
            let x0 = _mm512_shuffle_f32x4::<0x44>(u[c], u[4 + c]);
            let x1 = _mm512_shuffle_f32x4::<0xEE>(u[c], u[4 + c]);
            let x2 = _mm512_shuffle_f32x4::<0x44>(u[8 + c], u[12 + c]);
            let x3 = _mm512_shuffle_f32x4::<0xEE>(u[8 + c], u[12 + c]);
            out[c] = _mm512_shuffle_f32x4::<0x88>(x0, x2);
            out[4 + c] = _mm512_shuffle_f32x4::<0xDD>(x0, x2);
            out[8 + c] = _mm512_shuffle_f32x4::<0x88>(x1, x3);
            out[12 + c] = _mm512_shuffle_f32x4::<0xDD>(x1, x3);
        }
        out
    }

    /// Floats per packed chunk: one [`LANES`]-chunk of each user of a
    /// pair, side by side.
    const PAIR: usize = 2 * LANES;

    /// User pairs per register tile.
    const TILE_PAIRS: usize = 4;

    /// Θ rows per register tile; with [`TILE_PAIRS`] pairs that is
    /// sixteen accumulators, thirty-two user×row pairs.
    const TILE_ITEMS: usize = 4;

    /// The explicit-vector [`super::score_tile_prefetch`]: the users
    /// packed pairwise once, then pairs in [`TILE_PAIRS`]` × `[`TILE_ITEMS`]
    /// tiles and the remaining one to three pairs in a narrower tile of
    /// the same code, with a share of `next` prefetched after each. An
    /// odd last user runs the AVX2 `1 × 4` tiles: alone it would fill
    /// half of every register, and the AVX2 tile is as fast without the
    /// packing.
    ///
    /// # Safety
    ///
    /// The host must support `avx512f`, `avx512dq`, `avx512vl`, `avx2`
    /// and `fma`. Every slice access is bounds-checked or, for the
    /// unaligned and masked loads, inside a slice whose length the
    /// assertions above pin.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2,fma")]
    pub unsafe fn score_tile(
        users: &[f32],
        n_users: usize,
        theta: &[f32],
        n_items: usize,
        f: usize,
        out: &mut [f32],
        next: &[f32],
    ) {
        assert_eq!(users.len(), n_users * f, "score_tile: bad user slice");
        assert_eq!(theta.len(), n_items * f, "score_tile: bad theta slice");
        assert!(
            out.len() >= n_users * n_items,
            "score_tile: out too short ({} < {})",
            out.len(),
            n_users * n_items
        );
        let n_pairs = n_users / 2;
        let packed = pack_pairs(users, n_pairs, f);
        let per_row = |v: usize| n_items / v + n_items % v;
        let tiles = n_pairs.div_ceil(TILE_PAIRS) * per_row(TILE_ITEMS) + n_users % 2 * per_row(4);
        let mut prefetch = Prefetch::new(next, tiles);
        let rows = Rows {
            packed: &packed,
            theta,
            n_items,
            f,
        };
        let mut p0 = 0;
        while p0 + TILE_PAIRS <= n_pairs {
            pair_rows::<TILE_PAIRS>(&rows, p0, out, &mut prefetch);
            p0 += TILE_PAIRS;
        }
        match n_pairs - p0 {
            1 => pair_rows::<1>(&rows, p0, out, &mut prefetch),
            2 => pair_rows::<2>(&rows, p0, out, &mut prefetch),
            3 => pair_rows::<3>(&rows, p0, out, &mut prefetch),
            _ => {}
        }
        if n_users % 2 == 1 {
            let tail = _mm256_cmpgt_epi32(
                _mm256_set1_epi32((f % LANES) as i32),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            );
            let u = n_users - 1;
            avx2::tile_rows::<1, 4>(users, u, theta, n_items, f, tail, out, &mut prefetch);
        }
    }

    /// The first `2 · n_pairs` of the `f`-long rows in `users`, users
    /// `2p` and `2p + 1` as `⌈f / LANES⌉` chunks of [`PAIR`] floats,
    /// chunk `c` being `[x_2p chunk c | x_2p+1 chunk c]`, the tail chunk
    /// zero-padded.
    fn pack_pairs(users: &[f32], n_pairs: usize, f: usize) -> Vec<f32> {
        let chunks = f.div_ceil(LANES);
        let mut packed = vec![0.0f32; n_pairs * chunks * PAIR];
        for u in 0..2 * n_pairs {
            let (p, h) = (u / 2, u % 2);
            for (c, xc) in users[u * f..(u + 1) * f].chunks(LANES).enumerate() {
                let at = (p * chunks + c) * PAIR + h * LANES;
                packed[at..at + xc.len()].copy_from_slice(xc);
            }
        }
        packed
    }

    /// What every tile of one call reads.
    struct Rows<'a> {
        packed: &'a [f32],
        theta: &'a [f32],
        n_items: usize,
        f: usize,
    }

    /// Pairs `p0..p0 + P` against every Θ row: `P × TILE_ITEMS` tiles,
    /// then one `P × 1` tile per Θ row left over, each followed by one
    /// prefetch step.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2,fma")]
    #[inline]
    unsafe fn pair_rows<const P: usize>(
        rows: &Rows<'_>,
        p0: usize,
        out: &mut [f32],
        prefetch: &mut Prefetch,
    ) {
        let mut v0 = 0;
        while v0 + TILE_ITEMS <= rows.n_items {
            tile::<P, TILE_ITEMS>(rows, p0, v0, out);
            prefetch.step();
            v0 += TILE_ITEMS;
        }
        for v in v0..rows.n_items {
            tile::<P, 1>(rows, p0, v, out);
            prefetch.step();
        }
    }

    /// `_mm512_permutex2var_ps` indices picking the even and the odd
    /// lanes of `a ++ b`.
    const EVEN: [i32; 16] = [0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30];
    const ODD: [i32; 16] = [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31];

    /// The last permute of the reduction, for a tile `V` rows wide: its
    /// `a ++ b` holds accumulators `k = 0..8` of the group, half `h`'s
    /// two partial sums at `4k + 2h` (left subtree) and `4k + 2h + 1`
    /// (right subtree), and output lane `(k / V)·2V + h·V + k % V` takes
    /// them, so the sums come out user-major, `V` rows per user. `odd`
    /// picks the right subtree.
    const fn last_level(v: usize, odd: bool) -> [i32; 16] {
        let mut idx = [0; 16];
        let mut k = 0;
        while k < 8 {
            let mut h = 0;
            while h < 2 {
                idx[(k / v) * 2 * v + h * v + k % v] = (4 * k + 2 * h + odd as usize) as i32;
                h += 1;
            }
            k += 1;
        }
        idx
    }

    /// Even lanes plus odd lanes of `a ++ b`: each adjacent pair of
    /// partial sums becomes one, left operand first.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn fold(a: __m512, b: __m512, even: __m512i, odd: __m512i) -> __m512 {
        _mm512_add_ps(
            _mm512_permutex2var_ps(a, even, b),
            _mm512_permutex2var_ps(a, odd, b),
        )
    }

    /// One fused multiply-add of packed chunk `c` of each pair in `xs`
    /// with each broadcast Θ chunk in `t`.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2,fma")]
    #[inline]
    unsafe fn fma_chunk<const P: usize, const V: usize>(
        acc: &mut [[__m512; V]; P],
        xs: [&[f32]; P],
        c: usize,
        t: &[__m512; V],
    ) {
        for (ap, xp) in acc.iter_mut().zip(xs) {
            let x = _mm512_loadu_ps(xp.as_ptr().add(c * PAIR));
            for (a, &tv) in ap.iter_mut().zip(t) {
                *a = _mm512_fmadd_ps(x, tv, *a);
            }
        }
    }

    /// One `P × V` register tile: user pairs `p0..p0 + P` against Θ rows
    /// `v0..v0 + V`. Accumulator `acc[p][v]` holds two portable lane
    /// arrays, user `2p` in its low half and `2p + 1` in its high half —
    /// one fused multiply-add per full chunk in ascending order, then the
    /// masked tail — and the reduction folds them [`reduce_lanes`]' way.
    ///
    /// [`reduce_lanes`]: super::reduce_lanes
    #[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2,fma")]
    #[inline]
    unsafe fn tile<const P: usize, const V: usize>(
        rows: &Rows<'_>,
        p0: usize,
        v0: usize,
        out: &mut [f32],
    ) {
        const {
            assert!(P * V <= 16, "a tile holds at most sixteen accumulators");
            assert!(8 % V == 0, "the last fold's indices need V to divide 8");
        };
        let f = rows.f;
        let chunks = f.div_ceil(LANES);
        let xs: [&[f32]; P] =
            std::array::from_fn(|p| &rows.packed[(p0 + p) * chunks * PAIR..][..chunks * PAIR]);
        let ts: [&[f32]; V] = std::array::from_fn(|v| &rows.theta[(v0 + v) * f..][..f]);
        // Every packed pair is `chunks * PAIR` long and every Θ row `f`
        // long: chunk `c` reads `c * PAIR..(c + 1) * PAIR` of the pair and
        // `c * LANES..(c + 1) * LANES <= full` of the row, and the masked
        // tail touches only the `f - full` lanes `tail` selects.
        let full = f / LANES * LANES;
        let tail: __mmask8 = (1u8 << (f % LANES)) - 1;
        let mut acc = [[_mm512_setzero_ps(); V]; P];
        let mut t = [_mm512_setzero_ps(); V];
        for c in 0..full / LANES {
            for (tv, row) in t.iter_mut().zip(ts) {
                *tv = _mm512_broadcast_f32x8(_mm256_loadu_ps(row.as_ptr().add(c * LANES)));
            }
            fma_chunk(&mut acc, xs, c, &t);
        }
        if full < f {
            for (tv, row) in t.iter_mut().zip(ts) {
                *tv = _mm512_broadcast_f32x8(_mm256_maskz_loadu_ps(tail, row.as_ptr().add(full)));
            }
            fma_chunk(&mut acc, xs, full / LANES, &t);
        }
        // Three folds: `l0+l1, …` (level one), `(l0+l1)+(l2+l3)` and
        // `(l4+l5)+(l6+l7)` (level two), their sum (level three), then
        // `+ 0.0` — the tree of `reduce_lanes`, operands in its order.
        let n = P * V;
        let zero = _mm512_setzero_ps();
        let mut flat = [zero; 16];
        for (p, ap) in acc.iter().enumerate() {
            flat[p * V..(p + 1) * V].copy_from_slice(ap);
        }
        let even = _mm512_loadu_epi32(EVEN.as_ptr());
        let odd = _mm512_loadu_epi32(ODD.as_ptr());
        let mut l1 = [zero; 8];
        for (m, l) in l1.iter_mut().enumerate().take(n.div_ceil(2)) {
            *l = fold(flat[2 * m], flat[2 * m + 1], even, odd);
        }
        let mut l2 = [zero; 4];
        for (m, l) in l2.iter_mut().enumerate().take(n.div_ceil(4)) {
            *l = fold(l1[2 * m], l1[2 * m + 1], even, odd);
        }
        let left = _mm512_loadu_epi32(const { last_level(V, false) }.as_ptr());
        let right = _mm512_loadu_epi32(const { last_level(V, true) }.as_ptr());
        let mut sums = [0.0f32; 32];
        for r in 0..n.div_ceil(8) {
            let s = fold(l2[2 * r], l2[2 * r + 1], left, right);
            _mm512_storeu_ps(sums.as_mut_ptr().add(16 * r), _mm512_add_ps(s, zero));
        }
        for u in 0..2 * P {
            let row = (2 * p0 + u) * rows.n_items + v0;
            out[row..row + V].copy_from_slice(&sums[u * V..(u + 1) * V]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The lane-order contract, spelled out element by element with no
    /// shared code: element `i` fused into lane `i % LANES`, then the
    /// fixed pairwise reduction tree and `+ 0.0`.
    fn reference_dot(a: &[f32], b: &[f32]) -> f32 {
        let mut lanes = [0.0f32; LANES];
        for i in 0..a.len() {
            lanes[i % LANES] = a[i].mul_add(b[i], lanes[i % LANES]);
        }
        ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
            + 0.0
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

    /// `len` operand elements with awkward magnitudes; with `specials`,
    /// about one in six is NaN, ±∞, −0.0, an f32 subnormal or a value
    /// that narrows to an f16 subnormal.
    fn operand(len: usize, seed: u64, specials: bool) -> Vec<f32> {
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..len)
            .map(|_| {
                let r = next();
                if specials && r % 6 == 0 {
                    let all = [
                        f32::NAN,
                        f32::INFINITY,
                        f32::NEG_INFINITY,
                        -0.0,
                        1.0e-40,
                        3.0e-6,
                    ];
                    all[(r >> 8) as usize % all.len()]
                } else {
                    ((r >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 3.7
                }
            })
            .collect()
    }

    /// Equal bits, or both NaN. Which payload a NaN sum carries when
    /// both addends are NaN depends on the operand order, which IEEE
    /// 754 leaves open and no compilation — the portable one included,
    /// whose `fadd` the compiler may commute — pins.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every compilation of the scoring tile against the per-pair
        /// dots: every shape up to 19 × 13 — one to three user pairs, a
        /// full eight-user group of the AVX-512 tile plus every user
        /// remainder, and every row remainder of the four-row tiles —,
        /// `f` below, at and past the lane width, with and without a
        /// masked tail, special values, and an `out` longer than the
        /// tile whose tail must stay as it was. No output is `−0.0`: the reduction ends
        /// with `+ 0.0`, which is what lets the scorer drain a
        /// prior-less tile row without a `+ 0.0` pass of its own. A
        /// `next` block to prefetch — a full one, a shorter one, or one
        /// that starts mid-line — leaves every bit as `next = &[]` does.
        #[test]
        fn every_score_tile_compilation_matches_the_per_pair_dots(
            n_users in 0usize..=19,
            n_items in 0usize..=13,
            f in prop::sample::select(vec![1usize, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 24, 100, 101]),
            seed in any::<u64>(),
            specials in any::<bool>(),
        ) {
            let users = operand(n_users * f, seed, specials);
            let theta = operand(n_items * f, seed.rotate_left(32) ^ 0x9E37_79B9, specials);
            let following = operand((n_items + 1) * f, !seed, specials);
            let len = n_users * n_items;
            let sentinel = f32::from_bits(0x7FA1_2345);
            for (name, tile) in score_tile_compilations() {
                let mut out = vec![sentinel; len + 3];
                tile(&users, n_users, &theta, n_items, f, &mut out, &[]);
                for u in 0..n_users {
                    let x = &users[u * f..(u + 1) * f];
                    for v in 0..n_items {
                        let got = out[u * n_items + v];
                        let want = dot_lanes(x, &theta[v * f..(v + 1) * f]);
                        prop_assert!(same(got, want), "{} u={} v={}: {} vs {}", name, u, v, got, want);
                        prop_assert!(got != 0.0 || got.is_sign_positive(), "{} u={} v={}: -0.0", name, u, v);
                    }
                }
                prop_assert!(out[len..].iter().all(|t| t.to_bits() == sentinel.to_bits()), "{} wrote past the tile", name);
                let plain: Vec<u32> = out.iter().map(|t| t.to_bits()).collect();
                let block = &following[..n_items * f];
                for next in [block, &block[..block.len() / 2], &following[1..]] {
                    let mut out = vec![sentinel; len + 3];
                    tile(&users, n_users, &theta, n_items, f, &mut out, next);
                    let bits: Vec<u32> = out.iter().map(|t| t.to_bits()).collect();
                    prop_assert_eq!(&bits, &plain, "{} with {} floats of next", name, next.len());
                }
            }
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

    /// Every entry of [`syrk_compilations`] against the rank-1 loop:
    /// `f` on both sides of the eight- and sixteen-column chunks and of
    /// the four- and eight-row blocks, and 0, 1 and 33 staged vectors
    /// (33 is a full BIN and one more, with repeated rows and NaN
    /// padding lanes), from a non-zero starting triangle.
    #[test]
    fn every_syrk_compilation_matches_rank1_updates() {
        let names: Vec<&str> = syrk_compilations().iter().map(|c| c.0).collect();
        assert_eq!(names.last(), Some(&syrk_compilation()));
        for (name, kernel) in syrk_compilations() {
            for f in [1usize, 7, 8, 15, 16, 17, 100] {
                for n in [0usize, 1, 33] {
                    let (start, _) = vecs(f * (f + 1) / 2, 5 + f as u64);
                    let (staged, ld) = staged_batch(f, n.max(4), 31 * f as u64 + n as u64);
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
    /// several chunks; `k` from one lane to past two full 32-column
    /// tiles, with every 8-, 16- and 24-column tail; one to nine rows
    /// per call, so every leftover of the four-row tile; finite rows
    /// (where any reordering shows in the bits) side by side with a row
    /// holding +∞ against a last centroid holding +∞ (∞ − ∞ is NaN in
    /// that lane only), a row with NaN and a row with −∞; and NaN in
    /// every padding column, whose outputs are not compared.
    #[test]
    fn sq_dists_transposed_is_bit_identical_to_the_scalar_chain() {
        for (name, sq_dists) in sq_dists_compilations() {
            for f in [0usize, 1, 3, 7, 8, 9, 17, 100] {
                for k in [1usize, 3, 7, 8, 9, 16, 17, 31, 32, 33, 41, 57, 64, 70] {
                    let k_pad = k.next_multiple_of(LANES);
                    let (cen, _) = vecs(f * k, (31 * f + k) as u64);
                    let mut cen_t = vec![f32::NAN; f * k_pad];
                    for c in 0..k {
                        for j in 0..f {
                            cen_t[j * k_pad + c] = cen[c * f + j];
                        }
                    }
                    if f > 0 {
                        cen_t[k - 1] = f32::INFINITY; // line 0, last centroid
                    }
                    for n_rows in 1..=9 {
                        let (mut rows, _) = vecs(n_rows * f, (7 * f + 3 * k + n_rows) as u64);
                        for (r, row) in rows.chunks_exact_mut(f.max(1)).enumerate() {
                            match r % 4 {
                                1 => row[0] = f32::INFINITY,
                                2 => row[f / 2] = f32::NAN,
                                3 => row[f - 1] = f32::NEG_INFINITY,
                                _ => {}
                            }
                        }
                        let mut got = vec![0.0f32; n_rows * k_pad];
                        sq_dists(&rows, n_rows, &cen_t, k_pad, &mut got);
                        for r in 0..n_rows {
                            let row = &rows[r * f..(r + 1) * f];
                            for c in 0..k {
                                let mut d = 0.0f32;
                                for j in 0..f {
                                    let e = row[j] - cen_t[j * k_pad + c];
                                    d += e * e;
                                }
                                assert_eq!(
                                    got[r * k_pad + c].to_bits(),
                                    d.to_bits(),
                                    "{name}: f={f} k={k} rows={n_rows} r={r} c={c}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a positive multiple")]
    fn sq_dists_transposed_rejects_an_unpadded_block() {
        sq_dists_transposed(&[1.0], 1, &[0.0; 7], 7, &mut [0.0; 7]);
    }

    /// Every compilation of [`quantize_i8`] against the portable body —
    /// the scalar `round().clamp() as i8` — on blocks whose quotients
    /// land exactly on halves (scale 1: ±k.5 and ±126.5), on ±127.5, on
    /// NaN, ±∞, ±0.0 and subnormals (a subnormal-only block's scale
    /// underflows to 0), on all-zero and non-finite-only blocks, and on
    /// random blocks with special values, each at every length that
    /// leaves a short last chunk of 8 or 16 lanes.
    #[test]
    fn every_quantize_i8_compilation_matches_the_scalar_body() {
        let halves: Vec<f32> = [127.0f32, -127.0]
            .into_iter()
            .chain((0..127).flat_map(|k| [k as f32 + 0.5, -(k as f32) - 0.5]))
            .collect();
        let quarter: Vec<f32> = halves.iter().map(|v| v * 0.5).collect();
        let blocks = [
            halves,
            quarter,
            vec![127.5, -127.5, 126.5, -126.5, 0.5, -0.5, 2.5, -2.5, 1.0e-40],
            vec![
                f32::NAN,
                3.0,
                f32::INFINITY,
                -0.0,
                f32::NEG_INFINITY,
                1.0e-40,
                -2.5,
                0.0,
                -1.0e-45,
                f32::NAN,
                -3.0,
            ],
            vec![1.0e-45, -1.0e-45, 2.0e-45, 0.0, -0.0, 1.0e-40, -3.0e-39],
            vec![0.0; 40],
            vec![-0.0; 40],
            vec![f32::NAN, f32::INFINITY, 0.0, f32::NEG_INFINITY, -0.0],
            operand(300, 7, true),
            operand(300, 8, false),
        ];
        for (name, quantize) in quantize_i8_compilations() {
            for block in &blocks {
                for len in [0usize, 1, 5, 7, 8, 9, 15, 16, 17, 31, 33, block.len()] {
                    let src = &block[..len.min(block.len())];
                    let mut want = vec![99i8; src.len()];
                    let want_scale = quantize_i8_impl(src, &mut want);
                    let mut got = vec![99i8; src.len()];
                    let scale = quantize(src, &mut got);
                    assert_eq!(scale.to_bits(), want_scale.to_bits(), "{name}: {src:?}");
                    assert_eq!(got, want, "{name}: {src:?}");
                }
            }
            let mut q = [0i8; 5];
            quantize(
                &[f32::NAN, 1.0, f32::INFINITY, -0.5, f32::NEG_INFINITY],
                &mut q,
            );
            assert_eq!(q, [0, 127, 127, -64, -127], "{name}");
        }
    }

    /// Every `step`-th `f32` bit pattern through the AVX2 compilation's
    /// vector round (the only one; AVX-512 hosts run it too), against
    /// `f32::round`: the same bits, or NaN for NaN.
    fn sweep_round_half_away(step: usize) {
        #[cfg(target_arch = "x86_64")]
        if isa() >= Isa::Avx2 {
            use core::arch::x86_64::*;
            let mut bits = (0..=u32::MAX).step_by(step);
            loop {
                let mut v = [0.0f32; LANES];
                let mut filled = 0;
                for (x, b) in v.iter_mut().zip(&mut bits) {
                    *x = f32::from_bits(b);
                    filled += 1;
                }
                let mut got = [0.0f32; LANES];
                // SAFETY: AVX2 was probed above; both arrays hold one
                // 256-bit vector.
                unsafe {
                    let r = avx2::round_half_away(_mm256_loadu_ps(v.as_ptr()));
                    _mm256_storeu_ps(got.as_mut_ptr(), r);
                }
                for (&x, &r) in v.iter().zip(&got).take(filled) {
                    let want = x.round();
                    assert!(
                        r.to_bits() == want.to_bits() || (r.is_nan() && want.is_nan()),
                        "round({x:e} = {:#010x}) = {r:e}, want {want:e}",
                        x.to_bits()
                    );
                }
                if filled < LANES {
                    break;
                }
            }
        }
    }

    #[test]
    fn vector_round_half_away_matches_f32_round_on_a_sample() {
        sweep_round_half_away(65_521);
    }

    /// All 2³² patterns; about 27 s in release on a 2-vCPU Xeon VM, so
    /// CI runs it with the other exhaustive sweeps.
    #[test]
    #[ignore]
    fn vector_round_half_away_matches_f32_round_on_every_f32() {
        sweep_round_half_away(1);
    }

    type DotFn = fn(&[f32], &[f32]) -> f32;

    /// Every compilation of [`dot_lanes`] this host can run, portable
    /// body included.
    fn dot_lanes_compilations() -> Vec<(&'static str, DotFn)> {
        let mut all: Vec<(&'static str, DotFn)> = vec![("portable", dot_lanes_impl)];
        #[cfg(target_arch = "x86_64")]
        if isa() >= Isa::Avx2Fma {
            // SAFETY: only listed after the AVX2 and FMA probes.
            all.push(("avx2+fma", |a, b| unsafe { avx2::dot_lanes(a, b) }));
        }
        all
    }

    /// Every product `−0.0`, or a negative product too small for `f32`
    /// (`−2⁻⁸⁰ · 2⁻⁸⁰`), which a fused step rounds to a `−0.0` lane:
    /// every compilation of the tile and of [`dot_lanes`] still outputs
    /// `+0.0`, at every `f` (full chunks, masked tail, or both) and on
    /// every tile shape, although the masked tail leaves its dead lanes
    /// at `+0.0` where the portable body's stay `−0.0`. The random
    /// proptest rarely makes every product of a lane-multiple row zero;
    /// these cases do.
    #[test]
    fn all_negative_zero_products_score_positive_zero() {
        let tiny = 2f32.powi(-80);
        for (x, t) in [(1.5f32, -0.0f32), (-tiny, tiny)] {
            for f in [1usize, 7, 8, 9, 16, 17] {
                for (name, dot) in dot_lanes_compilations() {
                    let s = dot(&vec![x; f], &vec![t; f]);
                    assert_eq!(s.to_bits(), 0, "dot_lanes {name}: {x}·{t} f={f}: {s}");
                }
                for (name, tile) in score_tile_compilations() {
                    for (n_users, n_items) in [(1, 1), (1, 5), (4, 2), (5, 3), (8, 4), (9, 5)] {
                        let users = vec![x; n_users * f];
                        let theta = vec![t; n_items * f];
                        let mut out = vec![f32::NAN; n_users * n_items];
                        tile(&users, n_users, &theta, n_items, f, &mut out, &[]);
                        for (i, s) in out.iter().enumerate() {
                            assert_eq!(
                                s.to_bits(),
                                0,
                                "{name}: {x}·{t} f={f} {n_users}x{n_items} out[{i}] = {s}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Lane 0 takes `−r·1` and then `y·w`, where `r` is `y·w` rounded
    /// to `f32`: fused, the second step leaves the exact rounding error
    /// `y·w − r ≠ 0`; as a `mul` then an `add` it leaves `r − r = 0`.
    /// Element `y·w` sits at index `LANES`, so `len = LANES + 1` puts it
    /// in the masked tail and the longer lengths in a full chunk. Every
    /// compilation of each scoring kernel runs it, portable bodies
    /// included: one that computes `mul` then `add` fails here.
    #[test]
    fn lane_contract_fuses_each_multiply_add() {
        fn pair(y: f32, w: f32, len: usize) -> (Vec<f32>, Vec<f32>) {
            let (mut a, mut b) = (vec![0.0f32; len], vec![0.0f32; len]);
            (a[0], b[0]) = (-(y * w), 1.0);
            (a[LANES], b[LANES]) = (y, w);
            (a, b)
        }
        // x·x with x = 1 + 2⁻¹² is 1 + 2⁻¹¹ + 2⁻²⁴, a tie that rounds to
        // 1 + 2⁻¹¹; y·3 with y = 1 + 2⁻²³ is 3 + 1.5 ulp, which rounds up
        // to 3 + 2 ulp.
        let x = 1.0 + 2f32.powi(-12);
        let y = 1.0 + 2f32.powi(-23);
        assert_eq!(-(x * x), -(1.0 + 2f32.powi(-11)));
        type DotI8 = fn(&[f32], &[i8], f32) -> f32;
        let dots = dot_lanes_compilations();
        let mut i8_dots: Vec<(&str, DotI8)> = vec![("portable", dot_i8_scaled_impl)];
        #[cfg(target_arch = "x86_64")]
        if isa() >= Isa::Avx2Fma {
            // SAFETY: only listed after the AVX2 and FMA probes.
            i8_dots.push(("avx2+fma", |a, q, s| unsafe {
                avx2::dot_i8_scaled(a, q, s)
            }));
        }
        for len in [LANES + 1, 2 * LANES, 2 * LANES + 3] {
            let (a, b) = pair(x, x, len);
            let want = 2f32.powi(-24);
            assert_eq!(reference_dot(&a, &b), want, "reference, len {len}");
            for (name, dot) in &dots {
                assert_eq!(dot(&a, &b), want, "dot_lanes {name}, len {len}");
            }
            for (name, tile) in score_tile_compilations() {
                for (n_users, n_items) in [(1, 1), (1, 5), (4, 2), (5, 3), (8, 4), (9, 5)] {
                    let users: Vec<f32> = a.iter().copied().cycle().take(n_users * len).collect();
                    let theta: Vec<f32> = b.iter().copied().cycle().take(n_items * len).collect();
                    let mut out = vec![0.0f32; n_users * n_items];
                    tile(&users, n_users, &theta, n_items, len, &mut out, &[]);
                    assert!(
                        out.iter().all(|&s| s == want),
                        "score_tile {name}: len {len} {n_users}x{n_items}: {out:?}"
                    );
                }
            }
            let (a, w) = pair(y, 3.0, len);
            let q: Vec<i8> = w.iter().map(|&w| w as i8).collect();
            let want = -2f32.powi(-23);
            for (name, dot) in &i8_dots {
                assert_eq!(dot(&a, &q, 1.0), want, "dot_i8_scaled {name}, len {len}");
            }
        }
    }

    #[test]
    fn empty_and_zero_length_inputs_are_zero() {
        assert_eq!(dot_lanes(&[], &[]), 0.0);
        assert_eq!(dot_i8_scaled(&[], &[], 2.0), 0.0);
        let mut out = [0.0f32; 0];
        score_tile(&[], 0, &[], 0, 7, &mut out);
    }

    /// Every compilation of [`widen_interleave`] puts `F16::to_f32` of
    /// each input in its interleaved place, for all 65536 patterns
    /// (sixteen blocks of 4096, signaling NaNs included) and for block
    /// lengths on both sides of the sixteen-value register block.
    #[test]
    fn every_widen_interleave_compilation_is_exact_and_interleaved() {
        for (name, widen) in widen_interleave_compilations() {
            for n in [0usize, 1, 15, 16, 17, 33, 4096] {
                let src: Vec<F16> = (0..CG_LANES * n)
                    .map(|i| {
                        F16::from_bits(if n == 4096 {
                            i as u16
                        } else {
                            (i * 7919) as u16
                        })
                    })
                    .collect();
                let mut dst = vec![f32::NAN; src.len()];
                widen(&src, &mut dst);
                for l in 0..CG_LANES {
                    for k in 0..n {
                        let h = src[l * n + k];
                        let got = dst[k * CG_LANES + l];
                        assert_eq!(got.to_bits(), h.to_f32().to_bits(), "{name}: n={n} {h:?}");
                    }
                }
            }
        }
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
