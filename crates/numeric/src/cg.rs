//! The truncated conjugate-gradient solver — Algorithm 1 of the paper.
//!
//! ```text
//! procedure CGSOLVE(A, x, b, fs, ε)
//!     r = b − A·x;  p = r;  rsold = rᵀr
//!     for j = 1..fs:
//!         ap = A·p;  α = rsold / (pᵀ·ap)
//!         x = x + αp;  r = r − α·ap
//!         rsnew = rᵀr
//!         if √rsnew < ε: break
//!         p = r + (rsnew/rsold)·p
//!         rsold = rsnew
//!     return x
//! ```
//!
//! With `fs = f` iterations this reproduces the exact solution of an SPD
//! system (CG's finite-termination property); the paper's approximation runs
//! `fs ≪ f` (empirically `fs = 6` at `f = 100`), cutting the solve from
//! `O(f³)` to `O(fs·f²)` without hurting the outer ALS convergence.
//!
//! The solver is generic over [`MatVec`] (packed symmetric or dense). An
//! FP16-stored Gram matrix (Solution 4) is solved through its exact FP32
//! widening: the device's halved read traffic is priced by the cost model,
//! not mirrored by the host arithmetic.
//!
//! [`cg_solve_lanes`] is the batched form: [`CG_LANES`] systems
//! interleaved element by element, one per SIMD lane, each lane running
//! exactly [`cg_solve_in`]'s operations on its own system — the host
//! analog of cuMF solving every row's system in one device batch.
//!
//! Note: the paper's listing updates `r` as `r − α·p`; the correct CG
//! recurrence — and what any working implementation, including the authors'
//! released CUDA code, computes — is `r − α·(A·p)`. We implement the correct
//! recurrence and note the typo here.

use crate::dense::{axpy, dot_f64, xpby};
use crate::kernel::{best, runnable, Compilation, Isa};
use crate::sym::{packed_len, SymPacked};

/// Anything that can apply a symmetric linear operator: `y = A·x`.
pub trait MatVec {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;
    /// Compute `y = A·x`.
    fn matvec(&self, x: &[f32], y: &mut [f32]);
}

impl MatVec for SymPacked {
    fn dim(&self) -> usize {
        self.dim()
    }
    fn matvec(&self, x: &[f32], y: &mut [f32]) {
        SymPacked::matvec(self, x, y)
    }
}

impl MatVec for crate::dense::DenseMatrix {
    fn dim(&self) -> usize {
        debug_assert_eq!(self.rows(), self.cols());
        self.rows()
    }
    fn matvec(&self, x: &[f32], y: &mut [f32]) {
        crate::dense::DenseMatrix::matvec(self, x, y)
    }
}

/// What a CG run did: how many iterations it spent and the final residual.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CgOutcome {
    /// Number of `A·p` products performed.
    pub iterations: usize,
    /// `‖b − A·x‖₂` implied by the final recurrence (√rsnew).
    pub residual_norm: f32,
    /// Whether the ε tolerance was reached before the iteration cap.
    pub converged: bool,
}

/// The three work vectors of one CG solve (`r`, `p`, `A·p`), kept so a
/// caller solving one system per row allocates them once. Resized to the
/// system's dimension on use; their contents never carry between solves.
#[derive(Clone, Debug, Default)]
pub struct CgScratch {
    r: Vec<f32>,
    p: Vec<f32>,
    ap: Vec<f32>,
}

/// Solve `A x = b` approximately, warm-starting from the incoming `x`.
///
/// * `max_iters` — the paper's `fs` (6 for f=100 in their evaluation);
/// * `tolerance` — the paper's `ε`, compared against `√(rᵀr)`.
///
/// ALS warm-starts each solve from the previous sweep's `x_u`, which is a
/// large part of why so few CG steps suffice.
pub fn cg_solve(
    a: &impl MatVec,
    x: &mut [f32],
    b: &[f32],
    max_iters: usize,
    tolerance: f32,
) -> CgOutcome {
    cg_solve_in(
        a,
        x,
        b,
        max_iters,
        tolerance,
        None,
        &mut CgScratch::default(),
    )
}

/// [`cg_solve`] on caller-owned work vectors, with an optional
/// residual-trajectory trace: when `trace` is `Some`, the residual norm
/// `√(rᵀr)` is appended once before the first iteration and once per
/// iteration. The arithmetic is identical with or without a trace —
/// tracing only observes values the solver computes anyway — and with
/// fresh or reused `scratch`.
pub fn cg_solve_in(
    a: &impl MatVec,
    x: &mut [f32],
    b: &[f32],
    max_iters: usize,
    tolerance: f32,
    mut trace: Option<&mut Vec<f64>>,
    scratch: &mut CgScratch,
) -> CgOutcome {
    let dim = a.dim();
    assert_eq!(x.len(), dim, "cg_solve: x length");
    assert_eq!(b.len(), dim, "cg_solve: b length");

    let CgScratch { r, p, ap } = scratch;
    for v in [&mut *r, &mut *p, &mut *ap] {
        v.resize(dim, 0.0);
    }

    // r = b − A·x
    a.matvec(x, ap);
    for i in 0..dim {
        r[i] = b[i] - ap[i];
    }
    p.copy_from_slice(r);
    let mut rsold = dot_f64(r, r);
    if let Some(t) = trace.as_deref_mut() {
        t.push(rsold.sqrt());
    }

    if (rsold.sqrt() as f32) < tolerance {
        return CgOutcome {
            iterations: 0,
            residual_norm: rsold.sqrt() as f32,
            converged: true,
        };
    }

    let mut iterations = 0;
    let mut converged = false;
    let mut rsnew = rsold;

    for _ in 0..max_iters {
        a.matvec(p, ap);
        iterations += 1;
        let pap = dot_f64(p, ap);
        if pap <= 0.0 {
            // Loss of positive-definiteness in finite precision; stop rather
            // than take a step in a bad direction.
            break;
        }
        let alpha = (rsold / pap) as f32;
        axpy(alpha, p, x);
        axpy(-alpha, ap, r);
        rsnew = dot_f64(r, r);
        if let Some(t) = trace.as_deref_mut() {
            t.push(rsnew.sqrt());
        }
        if (rsnew.sqrt() as f32) < tolerance {
            converged = true;
            break;
        }
        xpby(r, (rsnew / rsold) as f32, p);
        rsold = rsnew;
    }

    CgOutcome {
        iterations,
        residual_norm: rsnew.sqrt() as f32,
        converged,
    }
}

/// Systems in one lane-batched solve ([`cg_solve_lanes`]): one per `f32`
/// lane of a 512-bit register.
pub const CG_LANES: usize = 16;

/// One value of each of the [`CG_LANES`] systems: element `i` of every
/// interleaved vector, or packed element `k` of every matrix.
type Lanes = [f32; CG_LANES];

/// The work vectors of a lane-batched solve (`r`, `p`, `A·p`),
/// interleaved like its `x`. Resized on use; their contents never carry
/// between solves.
#[derive(Clone, Debug, Default)]
pub struct CgLaneScratch {
    r: Vec<Lanes>,
    p: Vec<Lanes>,
    ap: Vec<Lanes>,
}

/// Signature shared by the compilations of [`cg_solve_lanes`].
pub type CgLanesFn =
    fn(&[f32], &mut [f32], &[f32], usize, usize, f32, &mut CgLaneScratch) -> [CgOutcome; CG_LANES];

/// [`cg_solve_in`] on [`CG_LANES`] independent systems at once, one per
/// SIMD lane — cuMF's batched solver on the host. Systems `0..live`
/// are solved; the other lanes are ignored, their `x` left as it is
/// and their outcome zero.
///
/// The systems are interleaved element by element: `a` holds packed
/// element `k` (the [`SymPacked`] layout) of system `l` at
/// `k · CG_LANES + l`, and `x` and `b` element `i` of system `l` at
/// `i · CG_LANES + l`.
///
/// Each lane performs exactly the operations [`cg_solve_in`] performs
/// on its system, in the same order: the matvec's scatter `y[j] +=
/// a·x_i` and its `mul`-then-`add` chain, the `f64` dot chains, `axpy`,
/// `xpby`, `(rsold / pap) as f32`, the same comparisons. Every one of
/// them is an IEEE operation on one lane, which no vector width
/// changes. A lane stops at its own exit — tolerance before the first
/// iteration, `pAp ≤ 0`, tolerance, or the iteration cap — and from
/// then on a mask keeps its `x`, its residual and its iteration count,
/// while the batch runs until its last lane stops. So each system gets
/// the bits and the [`CgOutcome`] a [`cg_solve_in`] of its own gives
/// it, whatever its neighbours hold, NaN and ±∞ included.
///
/// Panics if `x` is not a whole number of [`CG_LANES`]-lane elements,
/// or `a` and `b` do not match its dimension, or `live > CG_LANES`.
#[allow(clippy::too_many_arguments)]
pub fn cg_solve_lanes(
    a: &[f32],
    x: &mut [f32],
    b: &[f32],
    live: usize,
    max_iters: usize,
    tolerance: f32,
    scratch: &mut CgLaneScratch,
) -> [CgOutcome; CG_LANES] {
    (best(CG_LANES_TABLE).2)(a, x, b, live, max_iters, tolerance, scratch)
}

/// The compilations of [`cg_solve_lanes`], portable body first: the
/// portable body, and the same body compiled for AVX2 (two 256-bit
/// registers per lane group) and for AVX-512 (one 512-bit register).
static CG_LANES_TABLE: &[Compilation<CgLanesFn>] = &[
    ("portable", Isa::Portable, cg_lanes_impl),
    #[cfg(target_arch = "x86_64")]
    (
        "avx2",
        Isa::Avx2,
        |a, x, b, live, max_iters, tolerance, scratch| {
            // SAFETY: `best` and `runnable` only hand out an entry on a host
            // that has the instruction set listed beside it.
            unsafe { x86::cg_lanes_avx2(a, x, b, live, max_iters, tolerance, scratch) }
        },
    ),
    #[cfg(target_arch = "x86_64")]
    (
        "avx512",
        Isa::Avx512,
        |a, x, b, live, max_iters, tolerance, scratch| {
            // SAFETY: as above.
            unsafe { x86::cg_lanes_avx512(a, x, b, live, max_iters, tolerance, scratch) }
        },
    ),
];

/// Every compilation of [`cg_solve_lanes`] this host can run, by name,
/// portable body first. Tests iterate it; code outside tests calls
/// [`cg_solve_lanes`].
#[doc(hidden)]
pub fn cg_lanes_compilations() -> Vec<(&'static str, CgLanesFn)> {
    runnable(CG_LANES_TABLE)
}

/// The x86-64 compilations: the portable body's lane loops in AVX2,
/// and the same driver over one 512-bit register per lane group.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use core::arch::x86_64::*;

    #[target_feature(enable = "avx2")]
    pub unsafe fn cg_lanes_avx2(
        a: &[f32],
        x: &mut [f32],
        b: &[f32],
        live: usize,
        max_iters: usize,
        tolerance: f32,
        scratch: &mut CgLaneScratch,
    ) -> [CgOutcome; CG_LANES] {
        cg_lanes::<Portable>(a, x, b, live, max_iters, tolerance, scratch)
    }

    #[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2,fma")]
    pub unsafe fn cg_lanes_avx512(
        a: &[f32],
        x: &mut [f32],
        b: &[f32],
        live: usize,
        max_iters: usize,
        tolerance: f32,
        scratch: &mut CgLaneScratch,
    ) -> [CgOutcome; CG_LANES] {
        cg_lanes::<Avx512>(a, x, b, live, max_iters, tolerance, scratch)
    }

    /// One 512-bit register per lane group, two for its `f64` widening.
    /// Only called inside [`cg_lanes_avx512`], whose features every
    /// intrinsic here needs.
    struct Avx512;

    impl LaneMath for Avx512 {
        type V = __m512;
        type D = [__m512d; 2];
        #[inline(always)]
        unsafe fn load(p: &Lanes) -> __m512 {
            _mm512_loadu_ps(p.as_ptr())
        }
        #[inline(always)]
        unsafe fn store(p: &mut Lanes, v: __m512) {
            _mm512_storeu_ps(p.as_mut_ptr(), v)
        }
        #[inline(always)]
        unsafe fn zero() -> __m512 {
            _mm512_setzero_ps()
        }
        #[inline(always)]
        unsafe fn add(a: __m512, b: __m512) -> __m512 {
            _mm512_add_ps(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: __m512, b: __m512) -> __m512 {
            _mm512_sub_ps(a, b)
        }
        #[inline(always)]
        unsafe fn mul(a: __m512, b: __m512) -> __m512 {
            _mm512_mul_ps(a, b)
        }
        #[inline(always)]
        unsafe fn select(mask: u16, a: __m512, b: __m512) -> __m512 {
            _mm512_mask_blend_ps(mask, a, b)
        }
        #[inline(always)]
        unsafe fn zero_d() -> [__m512d; 2] {
            [_mm512_setzero_pd(); 2]
        }
        #[inline(always)]
        unsafe fn add_product_d(acc: [__m512d; 2], a: __m512, b: __m512) -> [__m512d; 2] {
            let lo = |v: __m512| _mm512_cvtps_pd(_mm512_castps512_ps256(v));
            let hi = |v: __m512| _mm512_cvtps_pd(_mm512_extractf32x8_ps::<1>(v));
            [
                _mm512_add_pd(acc[0], _mm512_mul_pd(lo(a), lo(b))),
                _mm512_add_pd(acc[1], _mm512_mul_pd(hi(a), hi(b))),
            ]
        }
        #[inline(always)]
        unsafe fn lanes_d(d: [__m512d; 2]) -> [f64; CG_LANES] {
            let mut out = [0.0; CG_LANES];
            _mm512_storeu_pd(out.as_mut_ptr(), d[0]);
            _mm512_storeu_pd(out.as_mut_ptr().add(CG_LANES / 2), d[1]);
            out
        }
    }
}

/// The arithmetic the lane-batched CG is written in: [`CG_LANES`] `f32`
/// lanes and their `f64` widenings, every operation one IEEE operation
/// per lane. [`cg_lanes`] is written once over it; each compilation
/// picks a representation.
///
/// Implementations are `unsafe` to call because a SIMD one needs its
/// compilation's target features.
trait LaneMath {
    type V: Copy;
    type D: Copy;
    unsafe fn load(p: &Lanes) -> Self::V;
    unsafe fn store(p: &mut Lanes, v: Self::V);
    unsafe fn zero() -> Self::V;
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn sub(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn mul(a: Self::V, b: Self::V) -> Self::V;
    /// Lane `l` of `b` where bit `l` of `mask` is set, else of `a`.
    unsafe fn select(mask: u16, a: Self::V, b: Self::V) -> Self::V;
    unsafe fn zero_d() -> Self::D;
    /// `acc + (a as f64)·(b as f64)` in every lane.
    unsafe fn add_product_d(acc: Self::D, a: Self::V, b: Self::V) -> Self::D;
    unsafe fn lanes_d(d: Self::D) -> [f64; CG_LANES];
}

/// Plain arrays, one loop per operation.
struct Portable;

impl LaneMath for Portable {
    type V = Lanes;
    type D = [f64; CG_LANES];
    #[inline(always)]
    unsafe fn load(p: &Lanes) -> Lanes {
        *p
    }
    #[inline(always)]
    unsafe fn store(p: &mut Lanes, v: Lanes) {
        *p = v
    }
    #[inline(always)]
    unsafe fn zero() -> Lanes {
        [0.0; CG_LANES]
    }
    #[inline(always)]
    unsafe fn add(a: Lanes, b: Lanes) -> Lanes {
        std::array::from_fn(|l| a[l] + b[l])
    }
    #[inline(always)]
    unsafe fn sub(a: Lanes, b: Lanes) -> Lanes {
        std::array::from_fn(|l| a[l] - b[l])
    }
    #[inline(always)]
    unsafe fn mul(a: Lanes, b: Lanes) -> Lanes {
        std::array::from_fn(|l| a[l] * b[l])
    }
    #[inline(always)]
    unsafe fn select(mask: u16, a: Lanes, b: Lanes) -> Lanes {
        std::array::from_fn(|l| if mask >> l & 1 == 1 { b[l] } else { a[l] })
    }
    #[inline(always)]
    unsafe fn zero_d() -> [f64; CG_LANES] {
        [0.0; CG_LANES]
    }
    #[inline(always)]
    unsafe fn add_product_d(acc: [f64; CG_LANES], a: Lanes, b: Lanes) -> [f64; CG_LANES] {
        std::array::from_fn(|l| acc[l] + a[l] as f64 * b[l] as f64)
    }
    #[inline(always)]
    unsafe fn lanes_d(d: [f64; CG_LANES]) -> [f64; CG_LANES] {
        d
    }
}

#[inline(always)]
fn cg_lanes_impl(
    a: &[f32],
    x: &mut [f32],
    b: &[f32],
    live: usize,
    max_iters: usize,
    tolerance: f32,
    scratch: &mut CgLaneScratch,
) -> [CgOutcome; CG_LANES] {
    // SAFETY: the portable arithmetic needs no target feature.
    unsafe { cg_lanes::<Portable>(a, x, b, live, max_iters, tolerance, scratch) }
}

/// The lane-batched solve, written once over [`LaneMath`]: the steps of
/// [`cg_solve_in`] on every lane, with a lane's exits tracked in the
/// `active` bits.
///
/// # Safety
///
/// The host must support the target features `S` is compiled for.
#[inline(always)]
unsafe fn cg_lanes<S: LaneMath>(
    a: &[f32],
    x: &mut [f32],
    b: &[f32],
    live: usize,
    max_iters: usize,
    tolerance: f32,
    scratch: &mut CgLaneScratch,
) -> [CgOutcome; CG_LANES] {
    assert!(live <= CG_LANES, "cg_solve_lanes: {live} systems");
    let (x, rest) = x.as_chunks_mut::<CG_LANES>();
    assert!(rest.is_empty(), "cg_solve_lanes: partial x element");
    let dim = x.len();
    let (a, a_rest) = a.as_chunks::<CG_LANES>();
    let (b, b_rest) = b.as_chunks::<CG_LANES>();
    assert!(
        a_rest.is_empty() && a.len() == packed_len(dim),
        "cg_solve_lanes: a length"
    );
    assert!(
        b_rest.is_empty() && b.len() == dim,
        "cg_solve_lanes: b length"
    );
    let CgLaneScratch { r, p, ap } = scratch;
    for v in [&mut *r, &mut *p, &mut *ap] {
        v.resize(dim, [0.0; CG_LANES]);
    }

    // r = b − A·x
    matvec_lanes::<S>(a, x, ap);
    for ((ri, bi), api) in r.iter_mut().zip(b).zip(ap.iter()) {
        S::store(ri, S::sub(S::load(bi), S::load(api)));
    }
    p.copy_from_slice(r);
    let mut rsold = dot_f64_lanes::<S>(r, r);
    let mut rsnew = rsold;
    let mut iterations = [0usize; CG_LANES];
    let mut converged = [false; CG_LANES];
    // Bit `l` set: lane `l` still steps.
    let mut active = 0u16;
    for l in 0..live {
        converged[l] = (rsold[l].sqrt() as f32) < tolerance;
        active |= (!converged[l] as u16) << l;
    }

    for _ in 0..max_iters {
        if active == 0 {
            break;
        }
        matvec_lanes::<S>(a, p, ap);
        let pap = dot_f64_lanes::<S>(p, ap);
        let mut alpha = [0.0f32; CG_LANES];
        for l in 0..CG_LANES {
            if active >> l & 1 == 1 {
                iterations[l] += 1;
                // Loss of positive-definiteness stops the lane before
                // its step, as in `cg_solve_in`.
                if pap[l] <= 0.0 {
                    active &= !(1 << l);
                } else {
                    alpha[l] = (rsold[l] / pap[l]) as f32;
                }
            }
        }
        // x = x + α·p where the lane steps; a stopped lane keeps its
        // bits (a zero step would turn a −0.0 into +0.0). A stopped
        // lane's `r`, `p` and `A·p` are never read again.
        let (alpha_v, neg_alpha) = (S::load(&alpha), S::load(&alpha.map(|v| -v)));
        for (xi, pi) in x.iter_mut().zip(p.iter()) {
            let xv = S::load(xi);
            let stepped = S::add(xv, S::mul(alpha_v, S::load(pi)));
            S::store(xi, S::select(active, xv, stepped));
        }
        for (ri, api) in r.iter_mut().zip(ap.iter()) {
            S::store(ri, S::add(S::load(ri), S::mul(neg_alpha, S::load(api))));
        }
        let rs = dot_f64_lanes::<S>(r, r);
        let mut beta = [0.0f32; CG_LANES];
        for l in 0..CG_LANES {
            if active >> l & 1 == 1 {
                rsnew[l] = rs[l];
                if (rs[l].sqrt() as f32) < tolerance {
                    converged[l] = true;
                    active &= !(1 << l);
                } else {
                    beta[l] = (rs[l] / rsold[l]) as f32;
                    rsold[l] = rs[l];
                }
            }
        }
        // p = r + β·p
        let beta_v = S::load(&beta);
        for (pi, ri) in p.iter_mut().zip(r.iter()) {
            S::store(pi, S::add(S::load(ri), S::mul(beta_v, S::load(pi))));
        }
    }

    std::array::from_fn(|l| CgOutcome {
        iterations: iterations[l],
        residual_norm: if l < live {
            rsnew[l].sqrt() as f32
        } else {
            0.0
        },
        converged: converged[l],
    })
}

/// Rows of `A` one pass of [`matvec_lanes`] runs side by side.
const MATVEC_ROWS: usize = 4;

/// `y = A·x` for every lane: [`SymPacked::matvec`]'s operations on each
/// lane's system. Row `i` scatters `y[j] += a_ij·x_i` and chains
/// `acc += a_ij·x_j` for `j < i`, then sets `y[i] += acc + a_ii·x_i`;
/// every `y[j]` and every `acc` sees the operations of the two-pass
/// loop in its order. Rows run [`MATVEC_ROWS`] at a time, so that many
/// `acc` chains overlap (see [`matvec_rows`]).
///
/// # Safety
///
/// As [`cg_lanes`].
#[inline(always)]
unsafe fn matvec_lanes<S: LaneMath>(a: &[Lanes], x: &[Lanes], y: &mut [Lanes]) {
    let dim = x.len();
    for yi in y.iter_mut() {
        S::store(yi, S::zero());
    }
    let mut i0 = 0;
    while i0 + MATVEC_ROWS <= dim {
        matvec_rows::<S, MATVEC_ROWS>(a, x, y, i0);
        i0 += MATVEC_ROWS;
    }
    for i in i0..dim {
        matvec_rows::<S, 1>(a, x, y, i);
    }
}

/// Rows `i0..i0 + R` of [`matvec_lanes`]. The columns left of the
/// block update each `y[j]` with the rows in order, row `i0` first; in
/// the corner, row `i0 + r` adds its elements `j = i0..i0 + r` only
/// after rows `i0..i0 + r` have set those `y[j]`, then sets its own
/// `y[i0 + r]`. That is each `y[j]`'s and each `acc`'s order in the
/// row-by-row loop.
///
/// # Safety
///
/// As [`cg_lanes`].
#[inline(always)]
unsafe fn matvec_rows<S: LaneMath, const R: usize>(
    a: &[Lanes],
    x: &[Lanes],
    y: &mut [Lanes],
    i0: usize,
) {
    let rows: [&[Lanes]; R] = std::array::from_fn(|r| {
        let base = (i0 + r) * (i0 + r + 1) / 2;
        &a[base..base + i0 + r + 1]
    });
    let xr: [S::V; R] = std::array::from_fn(|r| S::load(&x[i0 + r]));
    let mut acc = [S::zero(); R];
    for (j, (yj, xj)) in y[..i0].iter_mut().zip(&x[..i0]).enumerate() {
        let xj = S::load(xj);
        let mut yv = S::load(yj);
        for r in 0..R {
            let arj = S::load(&rows[r][j]);
            yv = S::add(yv, S::mul(arj, xr[r]));
            acc[r] = S::add(acc[r], S::mul(arj, xj));
        }
        S::store(yj, yv);
    }
    for r in 0..R {
        for j in i0..i0 + r {
            let arj = S::load(&rows[r][j]);
            let yv = S::add(S::load(&y[j]), S::mul(arj, xr[r]));
            S::store(&mut y[j], yv);
            acc[r] = S::add(acc[r], S::mul(arj, S::load(&x[j])));
        }
        // y[i] += acc + a_ii·x_i
        let i = i0 + r;
        let diag = S::add(acc[r], S::mul(S::load(&rows[r][i]), xr[r]));
        let yv = S::add(S::load(&y[i]), diag);
        S::store(&mut y[i], yv);
    }
}

/// [`dot_f64`] of every lane.
///
/// # Safety
///
/// As [`cg_lanes`].
#[inline(always)]
unsafe fn dot_f64_lanes<S: LaneMath>(a: &[Lanes], b: &[Lanes]) -> [f64; CG_LANES] {
    let mut acc = S::zero_d();
    for (ai, bi) in a.iter().zip(b) {
        acc = S::add_product_d(acc, S::load(ai), S::load(bi));
    }
    S::lanes_d(acc)
}

/// FMA count of `iters` CG iterations at dimension `f` — the `O(fs·f²)` cost
/// the simulator charges for the approximate solver.
pub fn cg_flops(f: usize, iters: usize) -> u64 {
    let f = f as u64;
    // per iteration: one symmetric matvec (f²) + ~5 vector ops (5f).
    (iters as u64) * (f * f + 5 * f) + f * f // + initial residual matvec
}

/// Bytes read from the system matrix per CG iteration when `A` is stored
/// packed with `bytes_per_elem` (4 for FP32, 2 for FP16) — the memory-bound
/// quantity of Observation 4.
pub fn cg_matrix_bytes_per_iter(f: usize, bytes_per_elem: u64) -> u64 {
    (crate::sym::packed_len(f) as u64) * bytes_per_elem
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::cholesky_solve;
    use crate::sym::SymPacked;

    fn spd(dim: usize, seed: u64) -> SymPacked {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u32 << 24) as f32 - 0.5
        };
        let mut a = SymPacked::zeros(dim);
        for _ in 0..dim + 3 {
            let v: Vec<f32> = (0..dim).map(|_| next()).collect();
            a.syr(&v);
        }
        a.add_diagonal(1.0);
        a
    }

    #[test]
    fn exact_after_dim_iterations() {
        // CG's finite-termination property: fs = f reproduces the direct solve.
        for seed in 1..6 {
            let a = spd(8, seed);
            let b: Vec<f32> = (0..8).map(|i| (i as f32) * 0.25 - 1.0).collect();
            let direct = cholesky_solve(&a, &b).unwrap();
            let mut x = vec![0.0; 8];
            let out = cg_solve(&a, &mut x, &b, 16, 1e-7);
            assert!(out.converged, "seed {seed} should converge");
            for i in 0..8 {
                assert!(
                    (x[i] - direct[i]).abs() < 1e-3,
                    "seed {seed} i {i}: {} vs {}",
                    x[i],
                    direct[i]
                );
            }
        }
    }

    #[test]
    fn truncated_cg_reduces_residual_monotonically() {
        let a = spd(12, 7);
        let b: Vec<f32> = (0..12).map(|i| ((i * 7 % 5) as f32) - 2.0).collect();
        let mut prev = f32::INFINITY;
        for fs in 1..8 {
            let mut x = vec![0.0; 12];
            let out = cg_solve(&a, &mut x, &b, fs, 0.0);
            assert!(
                out.residual_norm <= prev + 1e-4,
                "fs={fs}: {} > {}",
                out.residual_norm,
                prev
            );
            prev = out.residual_norm;
        }
    }

    #[test]
    fn warm_start_converges_in_zero_iterations() {
        let a = spd(6, 3);
        let b = [1.0, 0.5, -0.5, 2.0, 0.0, -1.0];
        let mut x = cholesky_solve(&a, &b).unwrap();
        let out = cg_solve(&a, &mut x, &b, 10, 1e-3);
        assert!(out.converged);
        assert!(
            out.iterations <= 1,
            "warm start took {} iterations",
            out.iterations
        );
    }

    #[test]
    fn identity_converges_in_one_iteration() {
        let mut a = SymPacked::zeros(5);
        a.add_diagonal(1.0);
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut x = vec![0.0; 5];
        let out = cg_solve(&a, &mut x, &b, 10, 1e-6);
        assert_eq!(out.iterations, 1);
        assert_eq!(x, b.to_vec());
    }

    #[test]
    fn fp16_storage_still_converges() {
        let a = spd(10, 11);
        let h = a.to_f16();
        let b: Vec<f32> = (0..10).map(|i| (i as f32 - 5.0) * 0.1).collect();
        let exact = cholesky_solve(&a, &b).unwrap();
        let mut x = vec![0.0; 10];
        cg_solve(&h.to_f32(), &mut x, &b, 20, 1e-4);
        // FP16 matrix perturbs A by ≤2⁻¹¹ relatively; solution error stays small.
        for i in 0..10 {
            assert!(
                (x[i] - exact[i]).abs() < 0.02,
                "i {i}: {} vs {}",
                x[i],
                exact[i]
            );
        }
    }

    #[test]
    fn traced_solve_matches_untraced_and_records_residuals() {
        let a = spd(12, 8);
        let b: Vec<f32> = (0..12).map(|i| (i as f32) * 0.3 - 1.5).collect();
        let mut x_plain = vec![0.0; 12];
        let mut x_traced = vec![0.0; 12];
        let mut residuals = Vec::new();
        let plain = cg_solve(&a, &mut x_plain, &b, 6, 0.0);
        let mut scratch = CgScratch::default();
        let traced = cg_solve_in(
            &a,
            &mut x_traced,
            &b,
            6,
            0.0,
            Some(&mut residuals),
            &mut scratch,
        );
        assert_eq!(x_plain, x_traced, "tracing must not change arithmetic");
        assert_eq!(plain, traced);
        // One entry before iteration 1 plus one per iteration.
        assert_eq!(residuals.len(), plain.iterations + 1);
        assert!(residuals.last().unwrap() < residuals.first().unwrap());
        assert!((residuals.last().unwrap() - plain.residual_norm as f64).abs() < 1e-3);
    }

    #[test]
    fn respects_iteration_cap() {
        let a = spd(30, 5);
        let b = vec![1.0; 30];
        let mut x = vec![0.0; 30];
        let out = cg_solve(&a, &mut x, &b, 3, 0.0);
        assert_eq!(out.iterations, 3);
        assert!(!out.converged);
    }

    /// Interleave `systems` (padded with zero systems) into the lane
    /// layout of [`cg_solve_lanes`].
    fn interleave(systems: &[(SymPacked, Vec<f32>, Vec<f32>)], dim: usize) -> [Vec<f32>; 3] {
        let mut lanes = [
            vec![0.0; packed_len(dim) * CG_LANES],
            vec![0.0; dim * CG_LANES],
            vec![0.0; dim * CG_LANES],
        ];
        for (l, (a, x, b)) in systems.iter().enumerate() {
            for (k, &v) in a.as_slice().iter().enumerate() {
                lanes[0][k * CG_LANES + l] = v;
            }
            for i in 0..dim {
                lanes[1][i * CG_LANES + l] = x[i];
                lanes[2][i * CG_LANES + l] = b[i];
            }
        }
        lanes
    }

    /// The systems of one lane group, cycling through every way a lane
    /// can stop: a warm start at the solution (0 iterations), the zero
    /// matrix (`pAp = 0` at iteration 1), a negative-definite matrix
    /// (`pAp < 0`), a loose tolerance met early, the iteration cap, a
    /// NaN in `A` and a +∞ in `b`; plus −0.0 in warm starts, which a
    /// stopped lane must keep.
    fn lane_systems(dim: usize, count: usize, seed: u64) -> Vec<(SymPacked, Vec<f32>, Vec<f32>)> {
        (0..count)
            .map(|l| {
                let s = seed * 31 + l as u64;
                let mut a = spd(dim, s);
                let mut b: Vec<f32> = (0..dim).map(|i| ((i + l) % 7) as f32 * 0.3 - 0.9).collect();
                let mut x = vec![0.0f32; dim];
                match l % 8 {
                    0 => {
                        // b = A·x: the residual is exactly zero, and the
                        // −0.0 must survive the lane's 0 iterations.
                        x = (0..dim).map(|i| i as f32 * 0.25).collect();
                        x[0] = -0.0;
                        a.matvec(&x, &mut b);
                    }
                    1 => a = SymPacked::zeros(dim),
                    2 => a.as_mut_slice().iter_mut().for_each(|v| *v = -v.abs()),
                    3 => b.iter_mut().for_each(|v| *v *= 1e-2),
                    5 => a.as_mut_slice()[dim / 2] = f32::NAN,
                    6 => b[0] = f32::INFINITY,
                    7 => x[dim - 1] = -0.0,
                    _ => {}
                }
                (a, x, b)
            })
            .collect()
    }

    /// Every compilation of the lane-batched CG against one
    /// `cg_solve_in` per system, bit for bit (a NaN only as a NaN: which
    /// one, the operand order of an add of two NaNs decides, and the
    /// compiler may commute it), with the same outcome:
    /// groups of 1 to 16 systems, lanes stopping at every exit, NaN and
    /// ±∞ beside finite systems, a tolerance of zero (every finite lane
    /// runs to the cap) and one that most lanes meet.
    #[test]
    fn every_lane_compilation_matches_cg_solve_in_per_system() {
        // Bits, except that every NaN is one key.
        let key = |x: f32| if x.is_nan() { u32::MAX } else { x.to_bits() };
        for (name, solve) in cg_lanes_compilations() {
            for dim in [1usize, 7, 19] {
                for live in 1..=CG_LANES {
                    for (fs, tol) in [(6, 1e-3f32), (4, 0.0), (40, 1e-5)] {
                        let systems = lane_systems(dim, live, (dim * 100 + live) as u64);
                        let [a, mut x, b] = interleave(&systems, dim);
                        let untouched = x.clone();
                        let mut scratch = CgLaneScratch::default();
                        let out = solve(&a, &mut x, &b, live, fs, tol, &mut scratch);
                        for (l, (sa, sx, sb)) in systems.iter().enumerate() {
                            let mut want = sx.clone();
                            let outcome = cg_solve(sa, &mut want, sb, fs, tol);
                            let got: Vec<f32> = (0..dim).map(|i| x[i * CG_LANES + l]).collect();
                            let at = format!("{name}: dim {dim} live {live} fs {fs} lane {l}");
                            let keys = |v: &[f32]| v.iter().map(|&x| key(x)).collect::<Vec<_>>();
                            assert_eq!(keys(&got), keys(&want), "{at}");
                            assert_eq!(out[l].iterations, outcome.iterations, "{at}");
                            assert_eq!(out[l].converged, outcome.converged, "{at}");
                            assert_eq!(
                                key(out[l].residual_norm),
                                key(outcome.residual_norm),
                                "{at}"
                            );
                        }
                        for i in 0..dim {
                            for l in live..CG_LANES {
                                let k = i * CG_LANES + l;
                                assert_eq!(
                                    x[k].to_bits(),
                                    untouched[k].to_bits(),
                                    "{name}: idle lane {l}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The exits the lane test relies on do occur: with the systems of
    /// [`lane_systems`], lanes stop at 0 iterations, at `pAp ≤ 0`
    /// before converging, at the tolerance and at the cap.
    #[test]
    fn lane_systems_reach_every_exit() {
        let systems = lane_systems(7, CG_LANES, 3);
        let outcomes: Vec<CgOutcome> = systems
            .iter()
            .map(|(a, x, b)| cg_solve(a, &mut x.clone(), b, 6, 1e-3))
            .collect();
        assert_eq!((outcomes[0].iterations, outcomes[0].converged), (0, true));
        assert_eq!((outcomes[1].iterations, outcomes[1].converged), (1, false));
        assert!(!outcomes[2].converged && outcomes[2].iterations < 6);
        assert!(
            outcomes[3].converged && outcomes[3].iterations > 0,
            "{:?}",
            outcomes[3]
        );
        assert!(outcomes.iter().any(|o| !o.converged && o.iterations == 6));
    }

    #[test]
    fn flops_model_is_quadratic_per_iteration() {
        // 6 CG iterations at f=100 ≈ 6·10⁴ FMAs ≪ LU's ~6.7·10⁵.
        assert!(cg_flops(100, 6) < crate::lu::lu_flops(100) / 4);
        assert_eq!(
            cg_matrix_bytes_per_iter(100, 2) * 2,
            cg_matrix_bytes_per_iter(100, 4)
        );
    }
}
