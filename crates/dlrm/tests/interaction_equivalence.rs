//! Bitwise wall for the interaction kernel.
//!
//! `reference_forward` / `reference_backward` are the scalar per-sample
//! loops the lane-blocked kernel replaced, kept verbatim as the oracle.
//! The kernel must reproduce them bit for bit (output, `d_bottom` and every
//! `d_tables[t]`) over a grid of shapes, batch sizes, executions and forced
//! ISA tiers, on inputs holding signed zeros, subnormals and an infinity.
//! The training, distributed, serving and sharded-serving paths all call
//! this one operator, so this wall is what keeps their results unchanged.
//!
//! Kept in its own test binary: the ISA override is process-global. The
//! other tests here stay valid under any tier, since every tier is exact.

use dlrm::interaction::{output_dim, Interaction};
use dlrm::layers::Execution;
use dlrm_kernels::embedding::rowops::available_isas;
use dlrm_kernels::gemm::micro::set_isa_override;
use dlrm_tensor::init::{seeded_rng, uniform};
use dlrm_tensor::Matrix;

/// The scalar forward: returns the `D×N` output and the saved `N×E`
/// feature vectors (index 0 is the transposed bottom output).
fn reference_forward(e: usize, bottom: &Matrix, tables: &[Matrix]) -> (Matrix, Vec<Matrix>) {
    let n = bottom.cols();
    let f = tables.len() + 1;
    let d = output_dim(f, e);

    // Gather all vectors as N×E (bottom transposed once).
    let mut vecs = Vec::with_capacity(f);
    vecs.push(bottom.transposed());
    for t in tables {
        vecs.push(t.clone());
    }

    let mut out = Matrix::zeros(d, n);
    let compute_sample = |out_col: &mut dyn FnMut(usize, f32), s: usize| {
        // Passthrough of the bottom vector.
        #[allow(clippy::needless_range_loop)] // k maps output row -> feature
        for k in 0..e {
            out_col(k, vecs[0][(s, k)]);
        }
        // Lower-triangular pairwise dots.
        let mut row = e;
        #[allow(clippy::needless_range_loop)] // (i, j) are pair indices
        for i in 1..f {
            let vi = vecs[i].row(s);
            for j in 0..i {
                let vj = vecs[j].row(s);
                let dot: f32 = vi.iter().zip(vj).map(|(&a, &b)| a * b).sum();
                out_col(row, dot);
                row += 1;
            }
        }
    };
    for s in 0..n {
        compute_sample(&mut |r, v| out[(r, s)] = v, s);
    }
    (out, vecs)
}

/// The scalar backward over the saved vectors of [`reference_forward`]:
/// returns `(d_bottom: E×N, d_tables: Vec<N×E>)`.
fn reference_backward(e: usize, saved: &[Matrix], dout: &Matrix) -> (Matrix, Vec<Matrix>) {
    let f = saved.len();
    let n = saved[0].rows();

    // Accumulate gradients as N×E per vector.
    let mut grads: Vec<Matrix> = (0..f).map(|_| Matrix::zeros(n, e)).collect();
    for s in 0..n {
        // Passthrough part.
        for k in 0..e {
            grads[0][(s, k)] += dout[(k, s)];
        }
        // Pairwise dots: d(vi·vj) flows vj into vi and vi into vj.
        let mut row = e;
        for i in 1..f {
            for j in 0..i {
                let g = dout[(row, s)];
                row += 1;
                if g == 0.0 {
                    continue;
                }
                for k in 0..e {
                    let vik = saved[i][(s, k)];
                    let vjk = saved[j][(s, k)];
                    grads[i][(s, k)] += g * vjk;
                    grads[j][(s, k)] += g * vik;
                }
            }
        }
    }
    let d_bottom = grads.remove(0).transposed(); // back to E×N
    (d_bottom, grads)
}

/// Random interaction inputs for `s` tables: uniform values with
/// subnormals, signed zeros and (for `n > 2`) one infinity mixed in. Where
/// `n > 1`, sample 1's bottom vector is `+0.0` and its first table vector
/// `-0.0`, so every product of that pair is `-0.0` and the dot's `-0.0`
/// seed decides the sign of the result.
fn inputs(e: usize, s: usize, n: usize, seed: u64) -> (Matrix, Vec<Matrix>) {
    let mut rng = seeded_rng(seed, 0x1A7E);
    let mut bottom = uniform(e, n, -1.0, 1.0, &mut rng);
    let mut tables: Vec<Matrix> = (0..s).map(|_| uniform(n, e, -1.0, 1.0, &mut rng)).collect();
    for t in &mut tables {
        for (i, x) in t.as_mut_slice().iter_mut().enumerate() {
            match i % 29 {
                3 => *x = f32::from_bits(0x0000_0321), // subnormal
                17 => *x = -0.0,
                _ => {}
            }
        }
    }
    if n > 1 && s > 0 {
        for k in 0..e {
            bottom[(k, 1)] = 0.0;
            tables[0][(1, k)] = -0.0;
        }
    }
    if n > 2 && s > 1 {
        tables[1][(2, 0)] = f32::INFINITY;
    }
    (bottom, tables)
}

/// An output gradient with `+0.0`, `-0.0` and subnormal entries spread
/// through uniform values.
fn special_dout(d: usize, n: usize, seed: u64) -> Matrix {
    let mut rng = seeded_rng(seed, 0xD0);
    let mut dout = uniform(d, n, -1.0, 1.0, &mut rng);
    for (i, x) in dout.as_mut_slice().iter_mut().enumerate() {
        match i % 7 {
            1 => *x = 0.0,
            3 => *x = -0.0,
            5 if i % 3 == 0 => *x = -f32::from_bits(0x0000_4000), // subnormal
            _ => {}
        }
    }
    dout
}

fn assert_bits(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {i} is {g:e}, the scalar loop gives {w:e}"
        );
    }
}

#[test]
fn kernel_is_bit_identical_to_the_scalar_loops() {
    let shapes = [(128, 26), (64, 8), (3, 2), (17, 5), (129, 3), (4, 0)];
    let batches = [1, 7, 33, 255, 256];
    let mut execs = vec![("reference", Execution::Reference)];
    for t in 1..=4 {
        execs.push(("pool", Execution::optimized(t)));
    }
    for (e, s) in shapes {
        for n in batches {
            let seed = (e * 1000 + s * 10 + n) as u64;
            let (bottom, tables) = inputs(e, s, n, seed);
            let (want_out, saved) = reference_forward(e, &bottom, &tables);
            let dout = special_dout(want_out.rows(), n, seed);
            let (want_db, want_dt) = reference_backward(e, &saved, &dout);
            for isa in available_isas() {
                set_isa_override(Some(isa));
                for (name, exec) in &execs {
                    let threads = exec.pool().map_or(0, |p| p.num_threads());
                    let at = format!("E={e} S={s} N={n} {isa:?} {name}({threads})");
                    let mut inter = Interaction::new(e);
                    let out = inter.forward(exec, &bottom, &tables);
                    assert_bits(&out, &want_out, &format!("{at}: output"));
                    let (db, dt) = inter.backward(&dout);
                    assert_bits(&db, &want_db, &format!("{at}: d_bottom"));
                    assert_eq!(dt.len(), s, "{at}: table count");
                    for (t, (got, want)) in dt.iter().zip(&want_dt).enumerate() {
                        assert_bits(got, want, &format!("{at}: d_tables[{t}]"));
                    }
                }
            }
        }
    }
    set_isa_override(None);
}

/// Reusing one operator across shapes (growing, shrinking, more and fewer
/// tables) must not leak state from earlier calls into later results.
#[test]
fn reused_operator_matches_across_shape_changes() {
    let e = 9;
    let exec = Execution::optimized(3);
    let mut inter = Interaction::new(e);
    for (step, (s, n)) in [(4, 40), (4, 5), (6, 17), (1, 64), (3, 40)]
        .into_iter()
        .enumerate()
    {
        let seed = 500 + step as u64;
        let (bottom, tables) = inputs(e, s, n, seed);
        let (want_out, saved) = reference_forward(e, &bottom, &tables);
        let dout = special_dout(want_out.rows(), n, seed);
        let (want_db, want_dt) = reference_backward(e, &saved, &dout);
        let at = format!("step {step} S={s} N={n}");
        assert_bits(&inter.forward(&exec, &bottom, &tables), &want_out, &at);
        let (db, dt) = inter.backward(&dout);
        assert_bits(&db, &want_db, &format!("{at}: d_bottom"));
        for (got, want) in dt.iter().zip(&want_dt) {
            assert_bits(got, want, &format!("{at}: d_tables"));
        }
    }
}

/// Copies sample `from` of (`bottom`, `tables`, `dout`) into sample `to`
/// of the destination set.
fn copy_sample(
    src: (&Matrix, &[Matrix], &Matrix),
    from: usize,
    dst: (&mut Matrix, &mut [Matrix], &mut Matrix),
    to: usize,
) {
    for k in 0..src.0.rows() {
        dst.0[(k, to)] = src.0[(k, from)];
    }
    for (d, s) in dst.1.iter_mut().zip(src.1) {
        d.row_mut(to).copy_from_slice(s.row(from));
    }
    for r in 0..src.2.rows() {
        dst.2[(r, to)] = src.2[(r, from)];
    }
}

/// Runs forward + backward and returns sample `s`'s output column,
/// `d_bottom` column and `d_tables` rows, as bits.
fn sample_result(
    exec: &Execution,
    e: usize,
    (bottom, tables, dout): (&Matrix, &[Matrix], &Matrix),
    s: usize,
) -> Vec<u32> {
    let mut inter = Interaction::new(e);
    let out = inter.forward(exec, bottom, tables);
    let (db, dt) = inter.backward(dout);
    let mut bits: Vec<u32> = (0..out.rows()).map(|r| out[(r, s)].to_bits()).collect();
    bits.extend((0..e).map(|k| db[(k, s)].to_bits()));
    for t in &dt {
        bits.extend(t.row(s).iter().map(|x| x.to_bits()));
    }
    bits
}

/// A sample's output and gradients must not depend on the batch it rides
/// in: computed in a batch of 37, alone, and at a different lane and
/// thread position inside another batch, they are bit-equal. Serving
/// relies on this, comparing engine-batched logits to a batch-1 forward.
#[test]
fn sample_results_do_not_depend_on_batch_composition() {
    let (e, s, n) = (33, 6, 37);
    let exec = Execution::optimized(3);
    let (bottom, tables) = inputs(e, s, n, 71);
    let dout = special_dout(output_dim(s + 1, e), n, 71);
    let batch = (&bottom, &tables[..], &dout);

    let (m, filler_seed) = (21, 72);
    let (fill_bottom, fill_tables) = inputs(e, s, m, filler_seed);
    let fill_dout = special_dout(dout.rows(), m, filler_seed);
    for i in 0..n {
        let in_batch = sample_result(&exec, e, batch, i);

        let (mut b1, mut t1) = (Matrix::zeros(e, 1), vec![Matrix::zeros(1, e); s]);
        let mut d1 = Matrix::zeros(dout.rows(), 1);
        copy_sample(batch, i, (&mut b1, &mut t1, &mut d1), 0);
        let alone = sample_result(&Execution::Reference, e, (&b1, &t1, &d1), 0);
        assert_eq!(in_batch, alone, "sample {i}: batch of {n} vs alone");

        let at = (i * 7 + 5) % m;
        let (mut b2, mut t2, mut d2) =
            (fill_bottom.clone(), fill_tables.clone(), fill_dout.clone());
        copy_sample(batch, i, (&mut b2, &mut t2, &mut d2), at);
        let moved = sample_result(&Execution::optimized(2), e, (&b2, &t2, &d2), at);
        assert_eq!(in_batch, moved, "sample {i}: position {i} vs {at} of {m}");
    }
}

/// Finite differences on the pool path, at a batch that is not a whole
/// number of lane blocks: the loss `Σ W ⊙ out` has gradient `dout = W`.
#[test]
fn pool_gradients_match_finite_differences() {
    let (e, s, n) = (5, 3, 19);
    let exec = Execution::optimized(2);
    let mut rng = seeded_rng(91, 0);
    let bottom = uniform(e, n, -1.0, 1.0, &mut rng);
    let tables: Vec<Matrix> = (0..s).map(|_| uniform(n, e, -1.0, 1.0, &mut rng)).collect();
    let w = uniform(output_dim(s + 1, e), n, -1.0, 1.0, &mut rng);

    let loss = |b: &Matrix, ts: &[Matrix]| -> f64 {
        let out = Interaction::new(e).forward(&exec, b, ts);
        out.as_slice()
            .iter()
            .zip(w.as_slice())
            .map(|(&o, &w)| o as f64 * w as f64)
            .sum()
    };
    let mut inter = Interaction::new(e);
    inter.forward(&exec, &bottom, &tables);
    let (d_bottom, d_tables) = inter.backward(&w);

    let h = 1e-2f32;
    let check = |analytic: f32, lp: f64, lm: f64, at: &str| {
        let numeric = (lp - lm) / (2.0 * h as f64);
        assert!(
            (analytic as f64 - numeric).abs() < 2e-3 * (1.0 + numeric.abs()),
            "{at}: analytic {analytic} vs finite difference {numeric}"
        );
    };
    for k in 0..e {
        for c in 0..n {
            let mut b = bottom.clone();
            b[(k, c)] += h;
            let lp = loss(&b, &tables);
            b[(k, c)] -= 2.0 * h;
            let lm = loss(&b, &tables);
            check(d_bottom[(k, c)], lp, lm, &format!("d_bottom[{k}][{c}]"));
        }
    }
    for t in 0..s {
        for r in 0..n {
            for k in 0..e {
                let mut ts = tables.clone();
                ts[t][(r, k)] += h;
                let lp = loss(&bottom, &ts);
                ts[t][(r, k)] -= 2.0 * h;
                let lm = loss(&bottom, &ts);
                check(
                    d_tables[t][(r, k)],
                    lp,
                    lm,
                    &format!("d_tables[{t}][{r}][{k}]"),
                );
            }
        }
    }
}
