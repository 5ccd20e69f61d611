//! Matrix–matrix multiplication kernels.
//!
//! Several kernels are provided, all producing **bit-for-bit identical**
//! results (every kernel accumulates each output element over the inner
//! dimension in ascending order, so the float addition sequence per element
//! is the same — the property the proptest suite pins down):
//!
//! * [`Matrix::matmul`] — the straightforward triple loop with the `i-k-j`
//!   ordering so the innermost loop walks both operands contiguously.
//! * [`Matrix::matmul_packed`] — the register-blocked micro-kernel:
//!   [`PACK_MR`] rows of the left operand are packed transposed into a
//!   contiguous panel, then each rhs row is streamed **once per panel**
//!   instead of once per output row. Fastest at `n ≥ 64`.
//! * [`Matrix::matmul_auto_into`] — size dispatch over the two kernels
//!   above, with row chunks of the packed engine on the `rayon`-shim
//!   work-sharing pool for products above [`parallel_flop_threshold`].
//!
//! The `*_into` **workspace variants** ([`Matrix::matmul_into`],
//! [`Matrix::matmul_t_into`], [`Matrix::t_matmul_into`],
//! [`Matrix::matmul_packed_into`]) write into a caller-owned output matrix
//! (reshaped via [`Matrix::resize_zeroed`], which reuses its allocation), so
//! steady-state hot loops — the OS-ELM RLS update above all — perform zero
//! matrix heap allocations.
//!
//! Narrow shapes — the `Ñ → 2` output layer of a CartPole Q-network, where
//! one side of the product is 1 or 2 wide — take dedicated paths inside the
//! same `*_into` entry points: [`Matrix::matmul_into`] for `n ≤ 2` output
//! columns, [`Matrix::t_matmul_into`] for `n = 2` and
//! [`Matrix::matmul_t_into`] for an inner dimension `k = 2`. Each keeps its
//! accumulators in registers instead of running a 2-element inner loop, and
//! each still starts every element from `T::zero()` and adds its terms in
//! ascending `p`, so they are bit-for-bit identical for every [`Scalar`].
//!
//! The FPGA datapath simulator in `elmrl-fpga` does **not** use these kernels;
//! it sequences scalar MACs explicitly to count cycles.

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Row-panel height of the packed micro-kernel: how many output rows share
/// one streamed pass over the rhs. 8 spreads each rhs read over eight
/// accumulator rows (eight independent FMA chains) while a panel's packed
/// k-slice (`PACK_MR × PACK_KC` elements) still fits in L1; measured against
/// 4 and 16 at n ∈ {64 … 1024}.
pub const PACK_MR: usize = 8;

/// Depth (inner-dimension extent) of one packed k-block. 256 keeps the
/// packed panel slice (`PACK_MR × PACK_KC` f64 = 16 KiB) in L1 across the
/// whole j-sweep of that block.
pub const PACK_KC: usize = 256;

/// Width of one output column block. 256 caps the live output tile at
/// `PACK_MR × PACK_NC` f64 = 16 KiB so accumulator rows stay cache-hot
/// while the rhs block (`PACK_KC × PACK_NC` = 512 KiB) streams from L2.
pub const PACK_NC: usize = 256;

/// Default for [`parallel_flop_threshold`]: below this many multiply–adds
/// [`Matrix::matmul_auto_into`] runs a sequential kernel inline — fork/join
/// overhead dwarfs the work. 64³ ≈ 262k MACs ≈ the smallest product where
/// a second worker pays for itself on the bench host (see BENCH_PR9.json).
pub const DEFAULT_PARALLEL_FLOP_THRESHOLD: usize = 64 * 64 * 64;

/// Cached override for the parallel short-circuit threshold; 0 = unset
/// (resolve `ELMRL_PAR_THRESHOLD`, then the default, on first use).
static PAR_THRESHOLD: AtomicUsize = AtomicUsize::new(0);

/// The minimum product size (in multiply–adds) routed to the work-sharing
/// pool by [`Matrix::matmul_auto_into`].
///
/// Resolution order: the last [`set_parallel_flop_threshold`] call, else the
/// `ELMRL_PAR_THRESHOLD` environment variable, else
/// [`DEFAULT_PARALLEL_FLOP_THRESHOLD`]. Exposed for bench sweeps.
pub fn parallel_flop_threshold() -> usize {
    match PAR_THRESHOLD.load(Ordering::Relaxed) {
        0 => {
            let v = std::env::var("ELMRL_PAR_THRESHOLD")
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&v| v > 0)
                .unwrap_or(DEFAULT_PARALLEL_FLOP_THRESHOLD);
            PAR_THRESHOLD.store(v, Ordering::Relaxed);
            v
        }
        v => v,
    }
}

/// Override the parallel short-circuit threshold (in multiply–adds) for this
/// process; pass 0 to reset to the environment/default resolution. Changing
/// the threshold only moves work between the sequential and parallel kernels
/// — both produce bit-identical results, so artefacts never depend on it.
pub fn set_parallel_flop_threshold(threshold: usize) {
    PAR_THRESHOLD.store(threshold, Ordering::Relaxed);
}

/// Below this many multiply–adds (or below [`PACK_MR`] output columns) the
/// auto-dispatched kernels fall back to the naive loop: the packed panel
/// write-out costs more than it saves on tiny products.
const PACK_FLOP_THRESHOLD: usize = 8 * 8 * 8;

/// Compute output rows `i0..i1` of `a · rhs` into `out_rows` (the caller's
/// already-zeroed row slice of length `(i1 - i0) · rhs.cols()`).
///
/// This is the one packed engine behind [`Matrix::matmul_packed_into`] and
/// the parallel row-chunk dispatch: [`PACK_MR`]-row panels of `a` are packed
/// transposed, the inner dimension is tiled by [`PACK_KC`] and the output
/// columns by [`PACK_NC`]. For every output element the `k` terms are still
/// accumulated in ascending order (k-blocks ascend, `p` ascends within a
/// block), so the result is bit-for-bit identical to the naive kernel no
/// matter how the tiles fall.
fn packed_gemm_rows<T: Scalar>(
    a: &Matrix<T>,
    i0: usize,
    i1: usize,
    rhs: &Matrix<T>,
    pack: &mut Vec<T>,
    out_rows: &mut [T],
) {
    let (k, n) = (a.cols(), rhs.cols());
    debug_assert_eq!(out_rows.len(), (i1 - i0) * n);
    pack.clear();
    pack.resize(PACK_MR * PACK_KC.min(k.max(1)), T::zero());
    for ib in (i0..i1).step_by(PACK_MR) {
        let h = PACK_MR.min(i1 - ib);
        let panel = &mut out_rows[(ib - i0) * n..(ib - i0 + h) * n];
        for p0 in (0..k).step_by(PACK_KC) {
            let p_end = (p0 + PACK_KC).min(k);
            // Pack this panel's k-slice transposed: pack[(p-p0)·MR + r] =
            // A[ib+r, p], so the p-loop below reads one contiguous group.
            for (r, a_row) in (ib..ib + h).map(|i| a.row(i)).enumerate() {
                for (p, &v) in a_row.iter().enumerate().take(p_end).skip(p0) {
                    pack[(p - p0) * PACK_MR + r] = v;
                }
            }
            for j0 in (0..n).step_by(PACK_NC) {
                let j_end = (j0 + PACK_NC).min(n);
                for p in p0..p_end {
                    let b_row = &rhs.row(p)[j0..j_end];
                    let group = &pack[(p - p0) * PACK_MR..(p - p0) * PACK_MR + h];
                    for (r, &a_rp) in group.iter().enumerate() {
                        let o_row = &mut panel[r * n + j0..r * n + j_end];
                        for (o, &b) in o_row.iter_mut().zip(b_row) {
                            *o += a_rp * b;
                        }
                    }
                }
            }
        }
    }
}

/// `out[i] = Σ_p a[i, p] · x[p]` — the `n = 1` case of the naive kernel
/// (every ELM output layer `H·β` in the simplified output model). Each row
/// keeps its own accumulator, starts from `T::zero()` and adds its terms in
/// ascending `p`: exactly the per-element operation sequence of the `i-k-j`
/// loop, so it is bit-for-bit identical for every [`Scalar`] (saturating
/// fixed point included). Four rows are in flight at once so the four
/// independent add chains overlap instead of serialising on add latency.
fn matvec_rows<T: Scalar>(a: &Matrix<T>, x: &[T], out: &mut [T]) {
    let k = x.len();
    let done = out.len() - out.len() % 4;
    let mut quads = out.chunks_exact_mut(4);
    for (q, o) in (&mut quads).enumerate() {
        let i = 4 * q;
        let (r0, r1, r2, r3) = (
            &a.row(i)[..k],
            &a.row(i + 1)[..k],
            &a.row(i + 2)[..k],
            &a.row(i + 3)[..k],
        );
        let (mut s0, mut s1, mut s2, mut s3) = (T::zero(), T::zero(), T::zero(), T::zero());
        for p in 0..k {
            let x_p = x[p];
            s0 += r0[p] * x_p;
            s1 += r1[p] * x_p;
            s2 += r2[p] * x_p;
            s3 += r3[p] * x_p;
        }
        o.copy_from_slice(&[s0, s1, s2, s3]);
    }
    for (r, o) in quads.into_remainder().iter_mut().enumerate() {
        let mut acc = T::zero();
        for (&a_p, &x_p) in a.row(done + r).iter().zip(x) {
            acc += a_p * x_p;
        }
        *o = acc;
    }
}

/// Width of the narrow paths: the `|A| = 2` output layer of the CartPole
/// Q-networks. Wider outputs take the generic loops.
const NARROW: usize = 2;

/// `out = a · b` for a `b` of [`NARROW`] columns. Two rows of `a` are in
/// flight at once, each with [`NARROW`] accumulators that start from
/// `T::zero()` and take their terms in ascending `p` — the per-element
/// sequence of the `i-k-j` loop, without its 2-long inner loop.
fn narrow_matmul_rows<T: Scalar>(a: &Matrix<T>, b: &[T], out: &mut [T]) {
    const N: usize = NARROW;
    let k = a.cols();
    let b = &b[..k * N];
    let m = out.len() / N;
    let mut pairs = out.chunks_exact_mut(2 * N);
    for (q, o) in (&mut pairs).enumerate() {
        let (r0, r1) = (&a.row(2 * q)[..k], &a.row(2 * q + 1)[..k]);
        let (mut s0, mut s1) = ([T::zero(); N], [T::zero(); N]);
        for ((&x0, &x1), b_row) in r0.iter().zip(r1).zip(b.chunks_exact(N)) {
            for j in 0..N {
                s0[j] += x0 * b_row[j];
                s1[j] += x1 * b_row[j];
            }
        }
        o[..N].copy_from_slice(&s0);
        o[N..].copy_from_slice(&s1);
    }
    let tail = pairs.into_remainder();
    if !tail.is_empty() {
        let mut s = [T::zero(); N];
        for (&x, b_row) in a.row(m - 1)[..k].iter().zip(b.chunks_exact(N)) {
            for j in 0..N {
                s[j] += x * b_row[j];
            }
        }
        tail.copy_from_slice(&s);
    }
}

/// `out = aᵀ · b` for a `b` of [`NARROW`] columns (`a` is `k × m`). Four
/// output rows (columns of `a`) are in flight at once, reading one
/// contiguous 4-wide segment of each `a` row per `p`; every accumulator
/// starts from `T::zero()` and adds its terms in ascending `p`, as the
/// `p-i-j` loop does.
fn narrow_t_matmul_rows<T: Scalar>(a: &Matrix<T>, b: &[T], out: &mut [T]) {
    const N: usize = NARROW;
    let (k, m) = (a.rows(), a.cols());
    let b = &b[..k * N];
    let mut quads = out.chunks_exact_mut(4 * N);
    for (q, o) in (&mut quads).enumerate() {
        let i = 4 * q;
        let mut s = [[T::zero(); N]; 4];
        for (p, b_row) in b.chunks_exact(N).enumerate() {
            let seg = &a.row(p)[i..i + 4];
            for r in 0..4 {
                for j in 0..N {
                    s[r][j] += seg[r] * b_row[j];
                }
            }
        }
        for (o_row, s_row) in o.chunks_exact_mut(N).zip(&s) {
            o_row.copy_from_slice(s_row);
        }
    }
    let done = m - m % 4;
    for (r, o_row) in quads.into_remainder().chunks_exact_mut(N).enumerate() {
        let mut s = [T::zero(); N];
        for (p, b_row) in b.chunks_exact(N).enumerate() {
            let x = a.row(p)[done + r];
            for j in 0..N {
                s[j] += x * b_row[j];
            }
        }
        o_row.copy_from_slice(&s);
    }
}

/// `out = a · bᵀ` for an inner dimension of [`NARROW`] (`a` is `m × 2`,
/// `b` is `n × 2`): each row of `a` is held in registers while the 2-term
/// dot products against the rows of `b` run unrolled, each from `T::zero()`
/// in ascending `p`.
fn narrow_matmul_t_rows<T: Scalar>(a: &Matrix<T>, b: &[T], out: &mut [T]) {
    const K: usize = NARROW;
    let n = b.len() / K;
    if n == 0 {
        return;
    }
    for (i, o_row) in out.chunks_exact_mut(n).enumerate() {
        let mut x = [T::zero(); K];
        x.copy_from_slice(&a.row(i)[..K]);
        for (o, b_row) in o_row.iter_mut().zip(b.chunks_exact(K)) {
            let mut acc = T::zero();
            for p in 0..K {
                acc += x[p] * b_row[p];
            }
            *o = acc;
        }
    }
}

impl<T: Scalar> Matrix<T> {
    /// Naive `i-k-j` matrix product. Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix<T>) -> Matrix<T> {
        let mut out = Matrix::zeros(self.rows(), rhs.cols());
        self.matmul_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul`] into a caller-owned output (reshaped and zeroed,
    /// reusing its allocation). Bit-for-bit identical to `matmul`. A
    /// single-column `rhs` takes a row-dot-product path, and a two-column
    /// `rhs` a register-accumulator path, both with the same per-element
    /// operation sequence.
    pub fn matmul_into(&self, rhs: &Matrix<T>, out: &mut Matrix<T>) {
        assert_eq!(
            self.cols(),
            rhs.rows(),
            "matmul: inner dimensions differ ({}x{} * {}x{})",
            self.rows(),
            self.cols(),
            rhs.rows(),
            rhs.cols()
        );
        let (m, k, n) = (self.rows(), self.cols(), rhs.cols());
        out.resize_zeroed(m, n);
        let (b, o) = (rhs.as_slice(), out.as_mut_slice());
        match n {
            1 => return matvec_rows(self, b, o),
            NARROW => return narrow_matmul_rows(self, b, o),
            _ => {}
        }
        for i in 0..m {
            let a_row = self.row(i);
            for (p, &a_ip) in a_row.iter().enumerate().take(k) {
                let b_row = rhs.row(p);
                let o_row = out.row_mut(i);
                for j in 0..n {
                    o_row[j] += a_ip * b_row[j];
                }
            }
        }
    }

    /// Register-blocked micro-kernel: packs [`PACK_MR`]-row panels of `self`
    /// **transposed** into a contiguous scratch buffer, then updates the
    /// whole panel while each rhs row is hot in L1, with the inner dimension
    /// tiled by [`PACK_KC`] and the output columns by [`PACK_NC`]. Each rhs
    /// row is read once per panel instead of once per output row, which is
    /// what makes this the fastest kernel from `n ≈ 16` up through
    /// `n = 1024`. Bit-for-bit identical to [`Matrix::matmul`] (per-element
    /// accumulation stays in ascending inner order).
    pub fn matmul_packed(&self, rhs: &Matrix<T>) -> Matrix<T> {
        let mut pack = Vec::new();
        let mut out = Matrix::zeros(self.rows(), rhs.cols());
        self.matmul_packed_into(rhs, &mut pack, &mut out);
        out
    }

    /// [`Matrix::matmul_packed`] with caller-owned pack buffer and output —
    /// the fully allocation-free form once both have reached steady size.
    pub fn matmul_packed_into(&self, rhs: &Matrix<T>, pack: &mut Vec<T>, out: &mut Matrix<T>) {
        assert_eq!(
            self.cols(),
            rhs.rows(),
            "matmul_packed: inner dimensions differ ({}x{} * {}x{})",
            self.rows(),
            self.cols(),
            rhs.rows(),
            rhs.cols()
        );
        let (m, n) = (self.rows(), rhs.cols());
        out.resize_zeroed(m, n);
        packed_gemm_rows(self, 0, m, rhs, pack, out.as_mut_slice());
    }

    /// Size-dispatched product into a caller-owned output: naive loop for
    /// tiny shapes, the packed engine in the mid range, and — when
    /// the product clears [`parallel_flop_threshold`] **and** the pool has
    /// more than one worker — row-chunks of the same engine on the
    /// work-sharing pool. All three branches are bit-for-bit identical, so
    /// the dispatch (and the thread count) can never change a result byte.
    ///
    /// The parallel branch allocates per-chunk pack buffers; the sequential
    /// branches are allocation-free at steady state, and small products
    /// (everything the per-step RL hot loop issues at paper-scale sizes)
    /// always take a sequential branch.
    pub fn matmul_auto_into(&self, rhs: &Matrix<T>, pack: &mut Vec<T>, out: &mut Matrix<T>) {
        assert_eq!(
            self.cols(),
            rhs.rows(),
            "matmul_auto: inner dimensions differ ({}x{} * {}x{})",
            self.rows(),
            self.cols(),
            rhs.rows(),
            rhs.cols()
        );
        let (m, k, n) = (self.rows(), self.cols(), rhs.cols());
        let flops = m * k * n;
        if flops < PACK_FLOP_THRESHOLD || n < PACK_MR {
            self.matmul_into(rhs, out);
            return;
        }
        if flops < parallel_flop_threshold() || rayon::current_num_threads() <= 1 || m < 2 {
            self.matmul_packed_into(rhs, pack, out);
            return;
        }
        out.resize_zeroed(m, n);
        let rows_per = m
            .div_ceil(rayon::current_num_threads() * 2)
            .next_multiple_of(PACK_MR);
        let chunks: Vec<(usize, &mut [T])> = out
            .as_mut_slice()
            .chunks_mut(rows_per * n)
            .enumerate()
            .collect();
        chunks.into_par_iter().for_each(|(ci, chunk)| {
            let i0 = ci * rows_per;
            let rows = chunk.len() / n;
            let mut local_pack = Vec::new();
            packed_gemm_rows(self, i0, i0 + rows, rhs, &mut local_pack, chunk);
        });
    }

    /// `selfᵀ · rhs` without materialising the transpose (a common OS-ELM
    /// pattern, e.g. `Hᵀ·H` and `Hᵀ·t`).
    pub fn t_matmul(&self, rhs: &Matrix<T>) -> Matrix<T> {
        let mut out = Matrix::zeros(self.cols(), rhs.cols());
        self.t_matmul_into(rhs, &mut out);
        out
    }

    /// [`Matrix::t_matmul`] into a caller-owned output (reshaped and zeroed,
    /// reusing its allocation). Bit-for-bit identical to `t_matmul`; a
    /// two-column `rhs` takes a register-accumulator path with the same
    /// per-element operation sequence.
    pub fn t_matmul_into(&self, rhs: &Matrix<T>, out: &mut Matrix<T>) {
        assert_eq!(
            self.rows(),
            rhs.rows(),
            "t_matmul: row counts differ ({} vs {})",
            self.rows(),
            rhs.rows()
        );
        let (k, m, n) = (self.rows(), self.cols(), rhs.cols());
        out.resize_zeroed(m, n);
        let (b, o) = (rhs.as_slice(), out.as_mut_slice());
        if n == NARROW {
            return narrow_t_matmul_rows(self, b, o);
        }
        for p in 0..k {
            let a_row = self.row(p);
            let b_row = rhs.row(p);
            for (i, &a_pi) in a_row.iter().enumerate().take(m) {
                let o_row = out.row_mut(i);
                for j in 0..n {
                    o_row[j] += a_pi * b_row[j];
                }
            }
        }
    }

    /// `self · rhsᵀ` without materialising the transpose.
    pub fn matmul_t(&self, rhs: &Matrix<T>) -> Matrix<T> {
        let mut out = Matrix::zeros(self.rows(), rhs.rows());
        self.matmul_t_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul_t`] into a caller-owned output (reshaped and zeroed,
    /// reusing its allocation). Bit-for-bit identical to `matmul_t`; an
    /// inner dimension of 2 takes an unrolled path with the same
    /// per-element operation sequence.
    pub fn matmul_t_into(&self, rhs: &Matrix<T>, out: &mut Matrix<T>) {
        assert_eq!(
            self.cols(),
            rhs.cols(),
            "matmul_t: column counts differ ({} vs {})",
            self.cols(),
            rhs.cols()
        );
        let (m, k, n) = (self.rows(), self.cols(), rhs.rows());
        out.resize_zeroed(m, n);
        let (b, o) = (rhs.as_slice(), out.as_mut_slice());
        if k == NARROW {
            return narrow_matmul_t_rows(self, b, o);
        }
        for i in 0..m {
            let a_row = self.row(i);
            let o_row = out.row_mut(i);
            for (j, o) in o_row.iter_mut().enumerate().take(n) {
                let b_row = rhs.row(j);
                let mut acc = T::zero();
                for p in 0..k {
                    acc += a_row[p] * b_row[p];
                }
                *o = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::uniform_matrix;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn approx_eq(a: &Matrix<f64>, b: &Matrix<f64>, tol: f64) -> bool {
        a.shape() == b.shape() && a.max_abs_diff(b) < tol
    }

    #[test]
    fn small_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        let expected = Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]);
        assert_eq!(c, expected);
        // operator form delegates to matmul
        assert_eq!(&a * &b, expected);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = SmallRng::seed_from_u64(7);
        let a = uniform_matrix::<f64, _>(5, 5, -1.0, 1.0, &mut rng);
        let i = Matrix::identity(5);
        assert!(approx_eq(&a.matmul(&i), &a, 1e-12));
        assert!(approx_eq(&i.matmul(&a), &a, 1e-12));
    }

    #[test]
    fn rectangular_shapes() {
        let a = Matrix::<f64>::ones(2, 3);
        let b = Matrix::<f64>::ones(3, 4);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 4));
        assert_eq!(c[(1, 3)], 3.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn mismatched_inner_dims_panic() {
        let a = Matrix::<f64>::ones(2, 3);
        let b = Matrix::<f64>::ones(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transposed_kernels_agree() {
        let mut rng = SmallRng::seed_from_u64(3);
        let a = uniform_matrix::<f64, _>(6, 4, -1.0, 1.0, &mut rng);
        let b = uniform_matrix::<f64, _>(6, 5, -1.0, 1.0, &mut rng);
        assert!(approx_eq(&a.t_matmul(&b), &a.transpose().matmul(&b), 1e-12));
        let c = uniform_matrix::<f64, _>(7, 4, -1.0, 1.0, &mut rng);
        assert!(approx_eq(&a.matmul_t(&c), &a.matmul(&c.transpose()), 1e-12));
    }

    #[test]
    fn packed_kernel_is_bit_identical_to_naive() {
        let mut rng = SmallRng::seed_from_u64(77);
        // Remainders on every tile edge: panel height (PACK_MR = 8),
        // k-blocks (PACK_KC = 256) and column blocks (PACK_NC = 256).
        for (m, k, n) in [
            (1, 6, 4),
            (3, 5, 7),
            (4, 4, 4),
            (5, 64, 9),
            (9, 7, 65),
            (7, 8, 8),
            (8, 9, 7),
            (17, 255, 3),
            (2, 256, 5),
            (3, 257, 4),
            (2, 300, 259),
            (10, 513, 2),
        ] {
            let a = uniform_matrix::<f64, _>(m, k, -2.0, 2.0, &mut rng);
            let b = uniform_matrix::<f64, _>(k, n, -2.0, 2.0, &mut rng);
            // Exact equality, not approximate: same accumulation order.
            assert_eq!(a.matmul(&b), a.matmul_packed(&b), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn auto_dispatch_is_bit_identical_across_all_branches() {
        let mut rng = SmallRng::seed_from_u64(81);
        let mut pack = Vec::new();
        let mut out = Matrix::zeros(1, 1);
        // Tiny (naive branch), mid (packed branch), large (parallel branch
        // once the threshold is forced down and threads up).
        for (m, k, n) in [(2, 3, 2), (24, 40, 33), (40, 64, 48)] {
            let a = uniform_matrix::<f64, _>(m, k, -1.0, 1.0, &mut rng);
            let b = uniform_matrix::<f64, _>(k, n, -1.0, 1.0, &mut rng);
            let expected = a.matmul(&b);
            a.matmul_auto_into(&b, &mut pack, &mut out);
            assert_eq!(out, expected, "sequential dispatch {m}x{k}x{n}");

            set_parallel_flop_threshold(1);
            rayon::set_num_threads(4);
            a.matmul_auto_into(&b, &mut pack, &mut out);
            rayon::set_num_threads(1);
            set_parallel_flop_threshold(0);
            assert_eq!(out, expected, "parallel dispatch {m}x{k}x{n}");
        }
    }

    #[test]
    fn into_variants_match_and_reuse_buffers() {
        let mut rng = SmallRng::seed_from_u64(78);
        let mut out = Matrix::<f64>::zeros(1, 1);
        let mut pack = Vec::new();
        // Shrinking and growing shapes through the same scratch buffers.
        for (m, k, n) in [(8, 6, 7), (3, 9, 2), (12, 12, 12)] {
            let a = uniform_matrix::<f64, _>(m, k, -1.0, 1.0, &mut rng);
            let b = uniform_matrix::<f64, _>(k, n, -1.0, 1.0, &mut rng);
            let expected = a.matmul(&b);
            a.matmul_into(&b, &mut out);
            assert_eq!(out, expected);
            a.matmul_packed_into(&b, &mut pack, &mut out);
            assert_eq!(out, expected);

            let c = uniform_matrix::<f64, _>(m, k, -1.0, 1.0, &mut rng);
            a.matmul_t_into(&c, &mut out);
            assert_eq!(out, a.matmul_t(&c));
            let d = uniform_matrix::<f64, _>(m, n, -1.0, 1.0, &mut rng);
            a.t_matmul_into(&d, &mut out);
            assert_eq!(out, a.t_matmul(&d));
        }
    }
}
