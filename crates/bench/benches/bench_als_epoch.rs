//! Where a train-als epoch goes: one ALS epoch of the perfbench
//! `train-als` workload (the Netflix replica at its default size, f = 100,
//! the paper's CG fs = 6 FP16 solver), timed whole and then split into
//! its three kernels over both sweeps — `hermitian_row`, `bias_row` and
//! the solve — with "rest" the epoch's time outside them (the cost
//! model, the factor swap, allocation).
//!
//! Each trial builds a fresh trainer, runs one untimed epoch, then times
//! the second epoch (`AlsTrainer::run_epoch`) and replays it sweep by
//! sweep from the same factors, timing each kernel per row. The solve is
//! replayed twice: row by row (`solve_row_with`) and in the trainer's
//! groups of sixteen (`SolveBatch`); both replays must land on the
//! trainer's factor bits. "rest" subtracts the batched solve, the path
//! the trainer runs. Wall-clock, single thread; the table gives every
//! trial, then the median and the min–max spread of each column.
//!
//! ```sh
//! cargo bench -p cumf-bench --bench bench_als_epoch
//! ```

use cumf_als::kernels::bias::bias_row;
use cumf_als::kernels::hermitian::{hermitian_row, HermitianShape};
use cumf_als::kernels::solve::{solve_row_with, SolveBatch, SolveScratch};
use cumf_als::{AlsConfig, AlsTrainer, SolverKind};
use cumf_datasets::{MfDataset, SizeClass};
use cumf_gpu_sim::GpuSpec;
use cumf_numeric::dense::DenseMatrix;
use cumf_numeric::sym::SymPacked;
use cumf_sparse::CsrMatrix;
use std::time::Instant;

const F: usize = 100;
const TRIALS: usize = 5;
const SEED: u64 = 1;

/// Seconds spent in each kernel over one sweep.
#[derive(Clone, Copy, Default)]
struct Split {
    hermitian: f64,
    bias: f64,
    solve: f64,
}

/// One sweep of `r` against `features`, warm-started from `old`:
/// hermitian and bias per row, and the solve row by row (`batched` off)
/// or in `SolveBatch` groups, each kernel timed on its own.
fn sweep(
    r: &CsrMatrix,
    features: &DenseMatrix,
    old: &DenseMatrix,
    cfg: &AlsConfig,
    batched: bool,
) -> (DenseMatrix, Split) {
    let shape = HermitianShape {
        f: F,
        bin: cfg.bin,
        tile: cfg.tile,
    };
    let mut out = DenseMatrix::zeros(r.rows(), F);
    let mut split = Split::default();
    let (mut a, mut staging, mut b) = (SymPacked::zeros(F), Vec::new(), vec![0.0f32; F]);
    let mut scratch = SolveScratch::new(F);
    let mut batch = SolveBatch::new(&cfg.solver, F);
    let drain = |batch: &mut SolveBatch, out: &mut DenseMatrix| {
        batch.solve(|u, x, _| out.row_mut(u).copy_from_slice(x));
    };
    for u in 0..r.rows() {
        let cols = r.row_cols(u);
        if cols.is_empty() {
            continue;
        }
        let t0 = Instant::now();
        hermitian_row(cols, features, cfg.lambda, &shape, &mut staging, &mut a);
        let t1 = Instant::now();
        bias_row(cols, r.row_values(u), features, &mut b);
        let t2 = Instant::now();
        if batched {
            if batch.is_full() {
                drain(&mut batch, &mut out);
            }
            batch.push(u, &a, &b, old.row(u));
        } else {
            let x = out.row_mut(u);
            x.copy_from_slice(old.row(u));
            solve_row_with(&cfg.solver, &a, x, &b, &mut scratch);
        }
        let t3 = Instant::now();
        split.hermitian += (t1 - t0).as_secs_f64();
        split.bias += (t2 - t1).as_secs_f64();
        split.solve += (t3 - t2).as_secs_f64();
    }
    let t = Instant::now();
    drain(&mut batch, &mut out);
    split.solve += t.elapsed().as_secs_f64();
    (out, split)
}

/// Both sweeps of one epoch from `(x, theta)`; the new factors and the
/// summed split.
fn epoch(
    data: &MfDataset,
    cfg: &AlsConfig,
    x: &DenseMatrix,
    theta: &DenseMatrix,
    batched: bool,
) -> (DenseMatrix, DenseMatrix, Split) {
    let (x2, sx) = sweep(&data.r, theta, x, cfg, batched);
    let (theta2, st) = sweep(&data.rt, &x2, theta, cfg, batched);
    let split = Split {
        hermitian: sx.hermitian + st.hermitian,
        bias: sx.bias + st.bias,
        solve: sx.solve + st.solve,
    };
    (x2, theta2, split)
}

fn main() {
    let data = MfDataset::netflix(SizeClass::Default, SEED);
    let cfg = AlsConfig {
        f: F,
        iterations: 2,
        rmse_target: None,
        solver: SolverKind::cumf_default(),
        ..AlsConfig::for_profile(&data.profile)
    };
    println!(
        "train-als epoch attribution: {}x{} ({} ratings), f={F}, seed {SEED}, epoch 2 of a fresh trainer (ms)",
        data.m(),
        data.n(),
        data.train_nnz()
    );
    let header = ["epoch", "hermitian", "bias", "solve", "rest", "solve/row"];
    println!(
        "{:>6} {}",
        "trial",
        header.map(|h| format!("{h:>10}")).join(" ")
    );
    let mut rows: Vec<[f64; 6]> = Vec::new();
    for trial in 1..=TRIALS {
        let mut t = AlsTrainer::new(&data, cfg.clone(), GpuSpec::maxwell_titan_x(), 1);
        t.run_epoch();
        let (x, theta) = (t.x.clone(), t.theta.clone());
        let t0 = Instant::now();
        t.run_epoch();
        let total = t0.elapsed().as_secs_f64();
        let (bx, bt, batched) = epoch(&data, &cfg, &x, &theta, true);
        let (px, pt, per_row) = epoch(&data, &cfg, &x, &theta, false);
        let bits = |m: &DenseMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (replay, trained) in [(&bx, &t.x), (&bt, &t.theta), (&px, &t.x), (&pt, &t.theta)] {
            assert!(
                bits(replay) == bits(trained),
                "a replay left the trainer's bits"
            );
        }
        let rest = total - batched.hermitian - batched.bias - batched.solve;
        let row = [
            total,
            batched.hermitian,
            batched.bias,
            batched.solve,
            rest,
            per_row.solve,
        ]
        .map(|s| s * 1e3);
        println!("{trial:>6} {}", row.map(|v| format!("{v:>10.1}")).join(" "));
        rows.push(row);
    }
    let column = |c: usize| {
        let mut v: Vec<f64> = rows.iter().map(|r| r[c]).collect();
        v.sort_by(f64::total_cmp);
        (v[v.len() / 2], v[0], v[v.len() - 1])
    };
    let stats: Vec<_> = (0..header.len()).map(column).collect();
    println!(
        "{:>6} {}",
        "median",
        stats
            .iter()
            .map(|s| format!("{:>10.1}", s.0))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "{:>6} {}",
        "spread",
        stats
            .iter()
            .map(|s| format!("{:>10}", format!("{:.0}..{:.0}", s.1, s.2)))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "(solve: the trainer's groups of sixteen; solve/row: the same solves one row at a time)"
    );
}
