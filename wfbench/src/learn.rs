//! `learn` — Fig. 4 at scale: for each MNAR missingness level, widen
//! `employer_rating` to its domain interval over the full letters encoding,
//! fit Zorro, bound the worst-case test loss, answer certain-KNN queries in
//! batches and sample a possible-worlds ensemble.
//!
//! A round is one batch of `QUERY_BATCH` certain-prediction queries against
//! the level's symbolic training set.

use crate::trace::span;
use crate::{peak_rss_mb, Ctx, Ctxt, Outcome};
use nde::api::{zorro_config, KNN_K, TEXT_DIMS};
use nde::scenario::load_recommendation_letters;
use nde_data::generate::hiring::LABEL_COLUMN;
use nde_data::inject::{inject_missing, Missingness};
use nde_ml::dataset::LabelEncoder;
use nde_ml::encode::TableEncoder;
use nde_ml::linalg::Matrix;
use nde_ml::metrics::mean_squared_error;
use nde_ml::models::knn::KnnClassifier;
use nde_uncertain::certain_knn::{CertainKnnIndex, CertainOutcome};
use nde_uncertain::symbolic::{column_bounds_from_observed, SymbolicMatrix};
use nde_uncertain::worlds::sample_worlds_par;
use nde_uncertain::zorro::{train_concrete_gd, ZorroConfig, ZorroRegressor};

const APPLICANTS: usize = 2000;
/// Missingness levels of the sweep. One seed for all levels makes the
/// missing sets nested, so the bound must grow with the level.
const LEVELS: [f64; 5] = [0.05, 0.10, 0.15, 0.20, 0.25];
const MNAR_SKEW: f64 = 4.0;
const FEATURE: &str = "employer_rating";
const WORLDS: usize = 8;
const QUERY_BATCH: usize = 40;
/// A world counts as a robust prediction at this share.
const ROBUST_SHARE: f64 = 0.9;

fn zorro(ctx: &Ctx, threads: usize) -> ZorroConfig {
    zorro_config()
        .with_threads(threads)
        .with_pool(ctx.pool.clone())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // ---- set-up: data, MNAR masks for every level, fitted encoders ----
    let (scenario, masks) = span("data.generate", || -> Result<_, String> {
        let scenario = load_recommendation_letters(APPLICANTS, ctx.seed);
        let masks = LEVELS
            .iter()
            .map(|&level| {
                let mut scratch = scenario.train.clone();
                inject_missing(
                    &mut scratch,
                    FEATURE,
                    level,
                    Missingness::Mnar { skew: MNAR_SKEW },
                    ctx.seed ^ 0x4d,
                )
                .map(|r| r.affected)
            })
            .collect::<Result<Vec<_>, _>>()
            .ctx("inject missing")?;
        Ok((scenario, masks))
    })?;
    let enc = span("ml.encode", || -> Result<_, String> {
        let mut encoder = TableEncoder::for_letters(TEXT_DIMS);
        encoder.fit(&scenario.train).ctx("fit encoder")?;
        let labels = LabelEncoder::fit(&scenario.train, LABEL_COLUMN).ctx("fit labels")?;
        let column = encoder
            .feature_names()
            .ctx("feature names")?
            .iter()
            .position(|n| n.starts_with(FEATURE))
            .ok_or("employer_rating is encoded")?;
        let x = encoder.transform(&scenario.train).ctx("encode train")?;
        let tx = encoder.transform(&scenario.test).ctx("encode test")?;
        let y = labels
            .encode_column(&scenario.train, LABEL_COLUMN)
            .ctx("labels")?;
        let ty = labels
            .encode_column(&scenario.test, LABEL_COLUMN)
            .ctx("labels")?;
        let positive = labels
            .classes()
            .iter()
            .position(|c| c == "positive")
            .ok_or("a positive class")?;
        let target = |y: &[usize]| -> Vec<f64> {
            y.iter()
                .map(|&c| if c == positive { 1.0 } else { -1.0 })
                .collect()
        };
        let bounds = column_bounds_from_observed(&x);
        let batches: Vec<Matrix> = (0..tx.rows())
            .step_by(QUERY_BATCH)
            .map(|s| tx.take_rows(&(s..(s + QUERY_BATCH).min(tx.rows())).collect::<Vec<_>>()))
            .collect();
        Ok(Encoded {
            column,
            reg_y: target(&y),
            reg_ty: target(&ty),
            n_classes: labels.n_classes(),
            x,
            tx,
            y,
            bounds,
            batches,
        })
    })?;
    let t_setup = ctx.elapsed_s();
    out.setup_s = t_setup;
    let pool_before = ctx.pool_stats();

    // ---- the sweep ----
    let mut bounds_per_level = Vec::with_capacity(LEVELS.len());
    let mut first = None;
    for (li, mask) in masks.iter().enumerate() {
        let cells: Vec<(usize, usize)> = mask.iter().map(|&r| (r, enc.column)).collect();
        let sym = span("uncertain.encode_symbolic", || {
            SymbolicMatrix::from_matrix_with_missing(&enc.x, &cells, &enc.bounds)
        })
        .ctx("symbolic encoding")?;
        let mut model = ZorroRegressor::new(zorro(ctx, ctx.threads));
        span("uncertain.zorro_fit", || model.fit(&sym, &enc.reg_y)).ctx("zorro fit")?;
        let bound = span("uncertain.bound", || {
            model.max_worst_case_loss(&enc.tx, &enc.reg_ty)
        })
        .ctx("worst-case loss")?;
        out.attempted += 1;
        if li == 0 {
            out.first_answer_s = ctx.elapsed_s() - t_setup;
        }
        bounds_per_level.push(bound);
        out.answers.push(bound);
        if ctx.short {
            return Ok(out);
        }

        let index = span("uncertain.certain_knn", || {
            CertainKnnIndex::new(&sym, &enc.y)
        })
        .ctx("certain-KNN index")?;
        let mut outcomes: Vec<CertainOutcome> = Vec::with_capacity(enc.tx.rows());
        for batch in &enc.batches {
            let t = std::time::Instant::now();
            let (_, o) = span("uncertain.certain_knn", || {
                index.coverage(batch, ctx.threads)
            })
            .ctx("certain-KNN queries")?;
            out.rounds_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.round_paths.push(format!("level-{li}"));
            out.attempted += 1;
            outcomes.extend(o);
        }
        let certain = outcomes.iter().filter(|o| o.is_certain()).count();
        let fraction = certain as f64 / outcomes.len().max(1) as f64;
        out.answers.push(fraction);
        crate::trace::count("uncertain.certain_queries", outcomes.len() as f64);
        crate::trace::count("uncertain.certain_found", certain as f64);

        let ensemble = span("uncertain.worlds", || {
            sample_worlds_par(
                &KnnClassifier::new(KNN_K),
                &sym,
                &enc.y,
                enc.n_classes,
                &enc.tx,
                WORLDS,
                ctx.seed,
                ctx.threads,
            )
        })
        .ctx("possible worlds")?;
        out.attempted += 1;
        out.answers.push(ensemble.coverage(ROBUST_SHARE));
        crate::trace::count("uncertain.worlds", WORLDS as f64);
        if li == 0 {
            first = Some((sym, model, outcomes));
        }
    }
    out.workflow_s = ctx.elapsed_s() - t_setup;
    out.peak_rss_mb = peak_rss_mb();
    let pool_after = ctx.pool_stats();
    out.count(
        "data.pool_jobs",
        (pool_after.jobs - pool_before.jobs) as f64,
    );
    out.count(
        "data.pool_chunks",
        (pool_after.chunks - pool_before.chunks) as f64,
    );
    out.count(
        "data.pool_parks",
        (pool_after.parks - pool_before.parks) as f64,
    );

    if !ctx.gate {
        return Ok(out);
    }
    // ---- gate (untimed) ----
    for (li, mask) in masks.iter().enumerate() {
        let cells: Vec<(usize, usize)> = mask.iter().map(|&r| (r, enc.column)).collect();
        let sym = SymbolicMatrix::from_matrix_with_missing(&enc.x, &cells, &enc.bounds)
            .ctx("symbolic encoding")?;
        let w = train_concrete_gd(&sym.midpoint_world(), &enc.reg_y, &zorro_config())
            .ctx("midpoint GD")?;
        let preds: Vec<f64> = enc
            .tx
            .iter_rows()
            .map(|row| row.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>() + w[row.len()])
            .collect();
        let baseline = mean_squared_error(&enc.reg_ty, &preds).ctx("baseline mse")?;
        let bound = bounds_per_level[li];
        out.check(bound >= baseline, || {
            format!("level {li}: bound {bound} below the midpoint-imputed GD loss {baseline}")
        });
    }
    out.check(bounds_per_level.windows(2).all(|w| w[1] >= w[0]), || {
        format!("bounds not monotone in missingness: {bounds_per_level:?}")
    });
    let (sym, model, outcomes) = first.ok_or("at least one level")?;
    let mut single = ZorroRegressor::new(zorro(ctx, 1));
    single.fit(&sym, &enc.reg_y).ctx("1-thread zorro fit")?;
    let same_weights = match (single.weight_intervals(), model.weight_intervals()) {
        (Some(a), Some(b)) => {
            a.len() == b.len()
                && a.iter().zip(b).all(|(p, q)| {
                    p.lo.to_bits() == q.lo.to_bits() && p.hi.to_bits() == q.hi.to_bits()
                })
        }
        _ => false,
    };
    let single_bound = single
        .max_worst_case_loss(&enc.tx, &enc.reg_ty)
        .ctx("1-thread worst-case loss")?;
    out.check(
        same_weights && single_bound.to_bits() == bounds_per_level[0].to_bits(),
        || "Zorro weights or bound differ between 1 and N threads".into(),
    );
    let single_outcomes = CertainKnnIndex::new(&sym, &enc.y)
        .and_then(|i| i.classify_batch(&enc.tx, 1))
        .ctx("1-thread certain-KNN")?;
    out.check(single_outcomes == outcomes, || {
        "certain-KNN outcomes differ between 1 and N threads".into()
    });
    Ok(out)
}

struct Encoded {
    /// Column of the encoded matrix holding `employer_rating`.
    column: usize,
    x: Matrix,
    tx: Matrix,
    /// Class labels (certain-KNN, worlds) and ±1 targets (Zorro).
    y: Vec<usize>,
    reg_y: Vec<f64>,
    reg_ty: Vec<f64>,
    n_classes: usize,
    bounds: Vec<nde_uncertain::Interval>,
    /// The test split cut into query batches.
    batches: Vec<Matrix>,
}
