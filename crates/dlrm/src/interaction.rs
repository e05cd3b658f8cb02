//! The dot-product feature interaction.
//!
//! The bottom-MLP output and the `S` embedding-bag outputs give `f = S+1`
//! feature vectors of length `E` per sample. The interaction emits the
//! bottom output itself (E values) concatenated with the strictly-lower
//! triangle of the `f×f` Gram matrix (`f(f−1)/2` pairwise dots) — "a self
//! dot product ... which translates to a batched matrix-matrix
//! multiplication as a key kernel" (Section II).
//!
//! # Kernel
//!
//! The kernel works feature-major with samples as SIMD lanes. Samples are
//! taken in blocks of 16 (`LANES`); within a block every feature vector is an
//! `E`-row tile whose row `k` holds element `k` of the block's samples, so
//! one vector multiply and one vector add advance `LANES` per-sample dot
//! products by one `k`. Each lane performs exactly the operations of the
//! scalar per-sample loop: a dot seeded with `-0.0` (where `f32: Sum`
//! starts) that adds its products in ascending `k`, a separate multiply and
//! add (Rust never contracts them into an FMA), and backward updates in
//! `(i, j)` pair order that skip a zero output gradient. The result is
//! therefore bit-identical to that loop at every batch size, lane position,
//! thread count and ISA tier; `tests/interaction_equivalence.rs` keeps the
//! scalar loop as the oracle. Blocks are independent and run in parallel on
//! the execution's pool.

use crate::layers::Execution;
use dlrm_kernels::gemm::micro::{detect_isa, Isa};
use dlrm_tensor::Matrix;
use std::ops::Range;

/// Samples per lane block: one AVX-512 vector of `f32`.
const LANES: usize = 16;

/// One tile row: element `k` of a feature vector for each sample of a
/// block. Cache-line aligned, so every row is one aligned vector load.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Row([f32; LANES]);

const ZERO_ROW: Row = Row([0.0; LANES]);

/// The interaction operator with its saved forward inputs.
pub struct Interaction {
    /// Embedding dimension `E`.
    pub emb_dim: usize,
    /// Execution of the last forward; backward runs on it too.
    exec: Execution,
    /// Batch size `N` of the last forward.
    batch: usize,
    /// Saved feature vectors, one buffer per feature (index 0 is the
    /// bottom output), each holding the `E`-row tiles of every block in
    /// block order. Reused across steps; reallocated only when the batch
    /// grows.
    saved: Vec<Vec<Row>>,
    /// Backward gradient tiles, one `f·E`-row buffer per pool thread.
    grad_tiles: Vec<Vec<Row>>,
}

/// Number of output features for `f` vectors of dim `e`.
pub fn output_dim(num_vectors: usize, e: usize) -> usize {
    e + num_vectors * (num_vectors - 1) / 2
}

impl Interaction {
    /// New interaction for embedding dimension `e`.
    pub fn new(e: usize) -> Self {
        Interaction {
            emb_dim: e,
            exec: Execution::Reference,
            batch: 0,
            saved: Vec::new(),
            grad_tiles: Vec::new(),
        }
    }

    /// Forward: `bottom` is `E×N` (MLP convention), `tables` are `N×E`
    /// (embedding convention). Returns `D×N` for the top MLP.
    pub fn forward(&mut self, exec: &Execution, bottom: &Matrix, tables: &[Matrix]) -> Matrix {
        let e = self.emb_dim;
        let n = bottom.cols();
        assert_eq!(bottom.rows(), e, "bottom output must have E features");
        for t in tables {
            assert_eq!(t.shape(), (n, e), "table output shape");
        }
        let f = tables.len() + 1;
        let blocks = n.div_ceil(LANES);
        self.exec = exec.clone();
        self.batch = n;
        self.saved.resize_with(f, Vec::new);
        for buf in &mut self.saved {
            buf.resize(blocks * e, ZERO_ROW);
        }

        let mut out = Matrix::zeros(output_dim(f, e), n);
        let job = Forward {
            e,
            n,
            bottom: bottom.as_slice(),
            tables,
            saved: self.saved.iter_mut().map(|b| Shared::new(b)).collect(),
            out: Shared::new(out.as_mut_slice()),
        };
        run_blocks(exec, blocks, &job);
        out
    }

    /// Backward: returns `(d_bottom: E×N, d_tables: Vec<N×E>)`.
    pub fn backward(&mut self, dout: &Matrix) -> (Matrix, Vec<Matrix>) {
        let (e, n, f) = (self.emb_dim, self.batch, self.saved.len());
        assert!(f >= 1, "backward before forward");
        assert_eq!(dout.shape(), (output_dim(f, e), n), "dout shape");
        let threads = self.exec.pool().map_or(1, |p| p.num_threads());
        self.grad_tiles.resize_with(threads, Vec::new);
        for buf in &mut self.grad_tiles {
            buf.resize(f * e, ZERO_ROW);
        }

        let mut d_bottom = Matrix::zeros(e, n);
        let mut d_tables: Vec<Matrix> = (1..f).map(|_| Matrix::zeros(n, e)).collect();
        let job = Backward {
            e,
            n,
            dout: dout.as_slice(),
            saved: &self.saved,
            grads: self.grad_tiles.iter_mut().map(|b| Shared::new(b)).collect(),
            d_bottom: Shared::new(d_bottom.as_mut_slice()),
            d_tables: d_tables
                .iter_mut()
                .map(|t| Shared::new(t.as_mut_slice()))
                .collect(),
        };
        run_blocks(&self.exec, n.div_ceil(LANES), &job);
        (d_bottom, d_tables)
    }

    /// Bytes of iteration-persistent buffers (saved features and gradient
    /// tiles). Constant after the first step of a fixed batch shape.
    pub fn scratch_bytes(&self) -> usize {
        let rows: usize = self
            .saved
            .iter()
            .chain(&self.grad_tiles)
            .map(Vec::capacity)
            .sum();
        rows * std::mem::size_of::<Row>()
    }
}

/// Work over a range of lane blocks, run by one pool thread.
trait Blocks: Sync {
    /// Runs blocks `blocks` on pool thread `tid` with lane vectors `V`.
    ///
    /// # Safety
    /// The CPU must support `V`'s instruction set.
    unsafe fn run<V: Lanes>(&self, tid: usize, blocks: Range<usize>);
}

/// Runs `job` over `0..blocks` on the execution's pool, with the widest
/// lane vectors [`detect_isa`] allows.
fn run_blocks<J: Blocks>(exec: &Execution, blocks: usize, job: &J) {
    let isa = detect_isa();
    // SAFETY: `detect_isa` reports a tier only when the CPU supports it
    // (or when a caller forced it, as for every other kernel tier).
    let go = |tid: usize, range: Range<usize>| unsafe {
        match isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => run_avx512(job, tid, range),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => run_avx2(job, tid, range),
            _ => job.run::<[f32; LANES]>(tid, range),
        }
    };
    match exec.pool() {
        None => go(0, 0..blocks),
        Some(pool) => pool.parallel_for(blocks, go),
    }
}

/// # Safety
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn run_avx512<J: Blocks>(job: &J, tid: usize, blocks: Range<usize>) {
    job.run::<simd::Avx512>(tid, blocks)
}

/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_avx2<J: Blocks>(job: &J, tid: usize, blocks: Range<usize>) {
    job.run::<simd::Avx2>(tid, blocks)
}

/// `LANES` floats, one per sample of a block, at one SIMD tier. Every
/// operation is lane-wise with IEEE single rounding, so all tiers give the
/// same bits. Methods are `#[inline(always)]`: they compile into the
/// caller's target-feature context.
trait Lanes: Copy {
    /// # Safety (every method)
    /// The CPU must support the tier's instruction set.
    unsafe fn splat(x: f32) -> Self;
    unsafe fn load(src: &[f32; LANES]) -> Self;
    unsafe fn store(self, dst: &mut [f32; LANES]);
    /// `self + a·b`: a rounded multiply, then a rounded add (no FMA).
    unsafe fn add_product(self, a: Self, b: Self) -> Self;
    /// [`Lanes::add_product`] where `a != 0.0`, `self` where `a == 0.0`.
    unsafe fn add_product_unless_zero(self, a: Self, b: Self) -> Self;
}

impl Lanes for [f32; LANES] {
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        [x; LANES]
    }
    #[inline(always)]
    unsafe fn load(src: &[f32; LANES]) -> Self {
        *src
    }
    #[inline(always)]
    unsafe fn store(self, dst: &mut [f32; LANES]) {
        *dst = self;
    }
    #[inline(always)]
    unsafe fn add_product(self, a: Self, b: Self) -> Self {
        std::array::from_fn(|l| self[l] + a[l] * b[l])
    }
    #[inline(always)]
    unsafe fn add_product_unless_zero(self, a: Self, b: Self) -> Self {
        std::array::from_fn(|l| {
            if a[l] == 0.0 {
                self[l]
            } else {
                self[l] + a[l] * b[l]
            }
        })
    }
}

#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{Lanes, LANES};
    use std::arch::x86_64::*;

    /// One 16-wide AVX-512 vector.
    #[derive(Clone, Copy)]
    pub(super) struct Avx512(__m512);

    impl Lanes for Avx512 {
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            Avx512(_mm512_set1_ps(x))
        }
        #[inline(always)]
        unsafe fn load(src: &[f32; LANES]) -> Self {
            Avx512(_mm512_loadu_ps(src.as_ptr()))
        }
        #[inline(always)]
        unsafe fn store(self, dst: &mut [f32; LANES]) {
            _mm512_storeu_ps(dst.as_mut_ptr(), self.0)
        }
        #[inline(always)]
        unsafe fn add_product(self, a: Self, b: Self) -> Self {
            Avx512(_mm512_add_ps(self.0, _mm512_mul_ps(a.0, b.0)))
        }
        #[inline(always)]
        unsafe fn add_product_unless_zero(self, a: Self, b: Self) -> Self {
            // NEQ_UQ is true for NaN, like `!(a == 0.0)`.
            let live = _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(a.0, _mm512_setzero_ps());
            Avx512(_mm512_mask_add_ps(
                self.0,
                live,
                self.0,
                _mm512_mul_ps(a.0, b.0),
            ))
        }
    }

    /// Two 8-wide AVX2 vectors.
    #[derive(Clone, Copy)]
    pub(super) struct Avx2([__m256; 2]);

    impl Lanes for Avx2 {
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            Avx2([_mm256_set1_ps(x); 2])
        }
        #[inline(always)]
        unsafe fn load(src: &[f32; LANES]) -> Self {
            let p = src.as_ptr();
            Avx2([_mm256_loadu_ps(p), _mm256_loadu_ps(p.add(8))])
        }
        #[inline(always)]
        unsafe fn store(self, dst: &mut [f32; LANES]) {
            let p = dst.as_mut_ptr();
            _mm256_storeu_ps(p, self.0[0]);
            _mm256_storeu_ps(p.add(8), self.0[1]);
        }
        #[inline(always)]
        unsafe fn add_product(self, a: Self, b: Self) -> Self {
            Avx2(std::array::from_fn(|h| {
                _mm256_add_ps(self.0[h], _mm256_mul_ps(a.0[h], b.0[h]))
            }))
        }
        #[inline(always)]
        unsafe fn add_product_unless_zero(self, a: Self, b: Self) -> Self {
            Avx2(std::array::from_fn(|h| {
                let sum = _mm256_add_ps(self.0[h], _mm256_mul_ps(a.0[h], b.0[h]));
                // NEQ_UQ is true for NaN, like `!(a == 0.0)`.
                let live = _mm256_cmp_ps::<_CMP_NEQ_UQ>(a.0[h], _mm256_setzero_ps());
                _mm256_blendv_ps(self.0[h], sum, live)
            }))
        }
    }
}

/// A buffer that pool threads write in disjoint regions.
struct Shared<T> {
    ptr: *mut T,
    len: usize,
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Shared<T> {}

// SAFETY: a `Shared` is only a pointer and a length; every access goes
// through the unsafe `region`/`region_mut`, whose callers guarantee that
// no region written by one thread overlaps a region another thread uses.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Shared<T> {
    fn new(buf: &mut [T]) -> Self {
        Shared {
            ptr: buf.as_mut_ptr(),
            len: buf.len(),
        }
    }

    /// Elements `start..start + len`, read-only.
    ///
    /// # Safety
    /// The buffer must outlive `'a`, and nothing may write the region
    /// while the returned slice lives.
    unsafe fn region<'a>(self, start: usize, len: usize) -> &'a [T] {
        assert!(start + len <= self.len, "interaction region out of bounds");
        std::slice::from_raw_parts(self.ptr.add(start), len)
    }

    /// Elements `start..start + len`, writable.
    ///
    /// # Safety
    /// The buffer must outlive `'a`, and no other reference may use the
    /// region while the returned slice lives.
    unsafe fn region_mut<'a>(self, start: usize, len: usize) -> &'a mut [T] {
        assert!(start + len <= self.len, "interaction region out of bounds");
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }
}

/// One forward call: blocks pack their samples' features into the saved
/// tiles, then write their columns of the output.
struct Forward<'a> {
    e: usize,
    n: usize,
    /// `E×N` bottom output.
    bottom: &'a [f32],
    /// `N×E` table outputs.
    tables: &'a [Matrix],
    /// Per-feature saved tiles.
    saved: Vec<Shared<Row>>,
    /// `D×N` output.
    out: Shared<f32>,
}

impl Blocks for Forward<'_> {
    #[inline(always)]
    unsafe fn run<V: Lanes>(&self, _tid: usize, blocks: Range<usize>) {
        for b in blocks {
            self.block::<V>(b);
        }
    }
}

impl Forward<'_> {
    /// # Safety
    /// The CPU must support `V`'s instruction set.
    #[inline(always)]
    unsafe fn block<V: Lanes>(&self, b: usize) {
        let (e, n) = (self.e, self.n);
        let s0 = b * LANES;
        let m = LANES.min(n - s0);
        // SAFETY (every region below): block `b` owns rows `b·E..(b+1)·E`
        // of each saved buffer and columns `s0..s0+m` of the output, and
        // blocks are split disjointly across threads. The saved buffers
        // and the output outlive the call. The pair loop only reads tiles
        // that the packing above has finished writing.
        let tile0 = unsafe { self.saved[0].region_mut(b * e, e) };
        for (k, row) in tile0.iter_mut().enumerate() {
            let src = &self.bottom[k * n + s0..][..m];
            *row = ZERO_ROW;
            row.0[..m].copy_from_slice(src);
            unsafe { self.out.region_mut(k * n + s0, m) }.copy_from_slice(src);
        }
        for (t, table) in self.tables.iter().enumerate() {
            let tile = unsafe { self.saved[t + 1].region_mut(b * e, e) };
            tile.fill(ZERO_ROW);
            let samples = &table.as_slice()[s0 * e..][..m * e];
            for l in 0..m {
                for (row, &x) in tile.iter_mut().zip(&samples[l * e..][..e]) {
                    row.0[l] = x;
                }
            }
        }

        let tile = |i: usize| unsafe { self.saved[i].region(b * e, e) };
        let mut row = e;
        for i in 1..self.saved.len() {
            let ti = tile(i);
            for j in 0..i {
                let acc = dot::<V>(ti, tile(j));
                unsafe { self.out.region_mut(row * n + s0, m) }.copy_from_slice(&acc[..m]);
                row += 1;
            }
        }
    }
}

/// Per-lane dot of tiles `a` and `b`: seeded with `-0.0`, products added
/// in ascending `k`.
///
/// # Safety
/// The CPU must support `V`'s instruction set.
#[inline(always)]
unsafe fn dot<V: Lanes>(a: &[Row], b: &[Row]) -> [f32; LANES] {
    let mut acc = V::splat(-0.0);
    for (ak, bk) in a.iter().zip(b) {
        acc = acc.add_product(V::load(&ak.0), V::load(&bk.0));
    }
    let mut lanes = [0.0; LANES];
    acc.store(&mut lanes);
    lanes
}

/// One backward call: blocks accumulate their samples' gradients in their
/// thread's tiles, then write their columns of `d_bottom` and rows of each
/// `d_tables[t]`.
struct Backward<'a> {
    e: usize,
    n: usize,
    /// `D×N` output gradient.
    dout: &'a [f32],
    /// Per-feature saved tiles from the forward.
    saved: &'a [Vec<Row>],
    /// Per-thread gradient tiles.
    grads: Vec<Shared<Row>>,
    /// `E×N` bottom gradient.
    d_bottom: Shared<f32>,
    /// `N×E` table gradients.
    d_tables: Vec<Shared<f32>>,
}

impl Blocks for Backward<'_> {
    #[inline(always)]
    unsafe fn run<V: Lanes>(&self, tid: usize, blocks: Range<usize>) {
        let grads = self.grads[tid];
        // SAFETY: pool thread ids are distinct, so thread `tid` alone uses
        // buffer `tid`, which outlives the call.
        let grads = unsafe { grads.region_mut(0, grads.len) };
        for b in blocks {
            self.block::<V>(grads, b);
        }
    }
}

impl Backward<'_> {
    /// # Safety
    /// The CPU must support `V`'s instruction set.
    #[inline(always)]
    unsafe fn block<V: Lanes>(&self, grads: &mut [Row], b: usize) {
        let (e, n) = (self.e, self.n);
        let s0 = b * LANES;
        let m = LANES.min(n - s0);
        let f = self.saved.len();
        let tile = |i: usize| &self.saved[i][b * e..][..e];
        let lanes = |row: usize| {
            let mut g = [0.0f32; LANES];
            g[..m].copy_from_slice(&self.dout[row * n + s0..][..m]);
            g
        };

        grads.fill(ZERO_ROW);
        // Passthrough, added first: dT_0 = 0.0 + dout.
        for (k, g) in grads[..e].iter_mut().enumerate() {
            for (g, d) in g.0.iter_mut().zip(lanes(k)) {
                *g += d;
            }
        }
        let mut row = e;
        for i in 1..f {
            let (lower, upper) = grads.split_at_mut(i * e);
            let gi = &mut upper[..e];
            let ti = tile(i);
            for j in 0..i {
                scatter::<V>(lanes(row), ti, gi, tile(j), &mut lower[j * e..][..e]);
                row += 1;
            }
        }

        // SAFETY (both regions): block `b` owns columns `s0..s0+m` of
        // `d_bottom` and rows `s0..s0+m` of each `d_tables[t]`; blocks are
        // split disjointly across threads and the matrices outlive the call.
        for (k, g) in grads[..e].iter().enumerate() {
            unsafe { self.d_bottom.region_mut(k * n + s0, m) }.copy_from_slice(&g.0[..m]);
        }
        for (t, d_table) in self.d_tables.iter().enumerate() {
            let dst = unsafe { d_table.region_mut(s0 * e, m * e) };
            let gt = &grads[(t + 1) * e..][..e];
            for l in 0..m {
                for (d, g) in dst[l * e..][..e].iter_mut().zip(gt) {
                    *d = g.0[l];
                }
            }
        }
    }
}

/// Backward of pair `(i, j)`: per lane, `dT_i += g·T_j` and
/// `dT_j += g·T_i`, skipped where `g == 0`.
///
/// # Safety
/// The CPU must support `V`'s instruction set.
#[inline(always)]
unsafe fn scatter<V: Lanes>(
    g: [f32; LANES],
    ti: &[Row],
    gi: &mut [Row],
    tj: &[Row],
    gj: &mut [Row],
) {
    let g = V::load(&g);
    for (((ti, gi), tj), gj) in ti.iter().zip(gi).zip(tj).zip(gj) {
        let (ti, tj) = (V::load(&ti.0), V::load(&tj.0));
        V::load(&gi.0)
            .add_product_unless_zero(g, tj)
            .store(&mut gi.0);
        V::load(&gj.0)
            .add_product_unless_zero(g, ti)
            .store(&mut gj.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_tensor::assert_allclose;
    use dlrm_tensor::init::{seeded_rng, uniform};

    #[test]
    fn output_dim_formula() {
        assert_eq!(output_dim(9, 64), 64 + 36); // Small config: S=8
        assert_eq!(output_dim(1, 4), 4); // no tables: passthrough only
    }

    #[test]
    fn forward_known_values() {
        let mut inter = Interaction::new(2);
        // One sample; bottom = [1, 2]; one table vector [3, 4].
        let bottom = Matrix::from_slice(2, 1, &[1.0, 2.0]);
        let table = Matrix::from_slice(1, 2, &[3.0, 4.0]);
        let out = inter.forward(&Execution::Reference, &bottom, &[table]);
        assert_eq!(out.shape(), (3, 1));
        assert_eq!(out.as_slice(), &[1.0, 2.0, 11.0]); // dot = 3 + 8
    }

    #[test]
    fn parallel_matches_serial() {
        let mut rng = seeded_rng(1, 0);
        let (e, n, s) = (8, 13, 5);
        let bottom = uniform(e, n, -1.0, 1.0, &mut rng);
        let tables: Vec<Matrix> = (0..s).map(|_| uniform(n, e, -1.0, 1.0, &mut rng)).collect();

        let mut serial = Interaction::new(e);
        let y1 = serial.forward(&Execution::Reference, &bottom, &tables);
        let mut parallel = Interaction::new(e);
        let y2 = parallel.forward(&Execution::optimized(4), &bottom, &tables);
        assert_eq!(y1.as_slice(), y2.as_slice());
    }

    #[test]
    fn gradient_check() {
        let mut rng = seeded_rng(2, 0);
        let (e, n) = (3, 4);
        let bottom = uniform(e, n, -1.0, 1.0, &mut rng);
        let tables: Vec<Matrix> = (0..2).map(|_| uniform(n, e, -1.0, 1.0, &mut rng)).collect();

        let mut inter = Interaction::new(e);
        let out = inter.forward(&Execution::Reference, &bottom, &tables);
        // Loss = sum of outputs; dOut = ones.
        let dout = Matrix::from_fn(out.rows(), out.cols(), |_, _| 1.0);
        let (d_bottom, d_tables) = inter.backward(&dout);

        let h = 1e-3f32;
        let loss = |b: &Matrix, ts: &[Matrix]| -> f64 {
            let mut i2 = Interaction::new(e);
            i2.forward(&Execution::Reference, b, ts).sum()
        };
        // Check a few bottom entries.
        for (r, c) in [(0usize, 0usize), (2, 3)] {
            let mut b2 = bottom.clone();
            b2[(r, c)] += h;
            let lp = loss(&b2, &tables);
            b2[(r, c)] -= 2.0 * h;
            let lm = loss(&b2, &tables);
            let fd = ((lp - lm) / (2.0 * h as f64)) as f32;
            assert!(
                (d_bottom[(r, c)] - fd).abs() < 2e-2,
                "d_bottom[{r}][{c}] {} vs {}",
                d_bottom[(r, c)],
                fd
            );
        }
        // Check a table entry.
        let mut t2 = tables.to_vec();
        let orig = t2[1][(2, 1)];
        t2[1][(2, 1)] = orig + h;
        let lp = loss(&bottom, &t2);
        t2[1][(2, 1)] = orig - h;
        let lm = loss(&bottom, &t2);
        let fd = ((lp - lm) / (2.0 * h as f64)) as f32;
        assert!(
            (d_tables[1][(2, 1)] - fd).abs() < 2e-2,
            "d_table {} vs {}",
            d_tables[1][(2, 1)],
            fd
        );
    }

    #[test]
    fn scratch_is_reused_across_steps() {
        let mut rng = seeded_rng(4, 0);
        let (e, n) = (8, 40);
        let bottom = uniform(e, n, -1.0, 1.0, &mut rng);
        let tables: Vec<Matrix> = (0..3).map(|_| uniform(n, e, -1.0, 1.0, &mut rng)).collect();
        let exec = Execution::optimized(2);
        let mut inter = Interaction::new(e);
        let out = inter.forward(&exec, &bottom, &tables);
        inter.backward(&out);
        let bytes = inter.scratch_bytes();
        assert!(bytes > 0);
        for _ in 0..3 {
            let out = inter.forward(&exec, &bottom, &tables);
            inter.backward(&out);
            assert_eq!(inter.scratch_bytes(), bytes, "steady batch reallocated");
        }
        // A smaller batch fits in the existing buffers.
        let small = Matrix::from_fn(e, 7, |r, c| bottom[(r, c)]);
        let small_tables: Vec<Matrix> = tables
            .iter()
            .map(|t| Matrix::from_fn(7, e, |r, c| t[(r, c)]))
            .collect();
        let out = inter.forward(&exec, &small, &small_tables);
        inter.backward(&out);
        assert_eq!(inter.scratch_bytes(), bytes, "smaller batch reallocated");
    }

    #[test]
    fn backward_passthrough_only_when_no_tables() {
        let mut rng = seeded_rng(3, 0);
        let bottom = uniform(4, 3, -1.0, 1.0, &mut rng);
        let mut inter = Interaction::new(4);
        let out = inter.forward(&Execution::Reference, &bottom, &[]);
        assert_eq!(out.as_slice(), bottom.as_slice());
        let dout = uniform(4, 3, -1.0, 1.0, &mut rng);
        let (d_bottom, d_tables) = inter.backward(&dout);
        assert!(d_tables.is_empty());
        assert_allclose(d_bottom.as_slice(), dout.as_slice(), 1e-6, "passthrough");
    }
}
