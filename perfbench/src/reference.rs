//! An independent f64 HIRE forward, and the answer and sampler checks built
//! on it.
//!
//! The reference reads only `FrozenModel::parameters()` (a flat list in
//! `HireModel::parameters()` order), the model configuration, the dataset
//! schema and the `PredictionContext`. It shares no code with the serving
//! forward: every product, softmax and layer norm is a plain f64 loop.

use hire_core::HireConfig;
use hire_data::{Dataset, PredictionContext};
use hire_graph::BipartiteGraph;
use hire_serve::{FrozenModel, RatingQuery, ServedBy};
use hire_tensor::NdArray;

/// Largest |served − reference| accepted for a full-precision answer, in
/// rating units (the scale is 1–5). The f32 forward rounds each of a few
/// thousand products per output; observed gaps are below 1e-5.
pub const MODEL_TOLERANCE: f64 = 1e-3;

/// `LayerNorm` epsilon of the model.
const LN_EPS: f64 = 1e-5;

/// Row-major f64 matrix.
struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    fn of(a: &NdArray) -> Mat {
        let dims = a.dims();
        let cols = *dims.last().expect("parameter of rank >= 1");
        Mat {
            rows: a.numel() / cols,
            cols,
            data: a.as_slice().iter().map(|&v| v as f64).collect(),
        }
    }

    fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }
}

/// `x [t, d] · w [d, k]`.
fn matmul(x: &[f64], t: usize, w: &Mat) -> Vec<f64> {
    let d = w.rows;
    let mut out = vec![0.0; t * w.cols];
    for r in 0..t {
        for j in 0..d {
            let a = x[r * d + j];
            for (o, &b) in out[r * w.cols..(r + 1) * w.cols].iter_mut().zip(w.row(j)) {
                *o += a * b;
            }
        }
    }
    out
}

struct Attention {
    w_q: Mat,
    w_k: Mat,
    w_v: Mat,
    w_o: Mat,
}

impl Attention {
    /// Multi-head self-attention over `t` tokens of width `d`.
    fn forward(&self, x: &[f64], t: usize, heads: usize, dk: usize) -> Vec<f64> {
        let (q, k, v) = (
            matmul(x, t, &self.w_q),
            matmul(x, t, &self.w_k),
            matmul(x, t, &self.w_v),
        );
        let inner = heads * dk;
        let scale = 1.0 / (dk as f64).sqrt();
        let mut fused = vec![0.0; t * inner];
        let mut scores = vec![0.0; t];
        for h in 0..heads {
            let off = h * dk;
            for i in 0..t {
                for (j, s) in scores.iter_mut().enumerate() {
                    *s = (0..dk)
                        .map(|c| q[i * inner + off + c] * k[j * inner + off + c])
                        .sum::<f64>()
                        * scale;
                }
                let top = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let total: f64 = scores
                    .iter_mut()
                    .map(|s| {
                        *s = (*s - top).exp();
                        *s
                    })
                    .sum();
                for (j, s) in scores.iter().enumerate() {
                    let a = s / total;
                    for c in 0..dk {
                        fused[i * inner + off + c] += a * v[j * inner + off + c];
                    }
                }
            }
        }
        matmul(&fused, t, &self.w_o)
    }
}

struct Norm {
    gamma: Vec<f64>,
    beta: Vec<f64>,
}

impl Norm {
    fn apply(&self, row: &mut [f64]) {
        let w = row.len() as f64;
        let mean = row.iter().sum::<f64>() / w;
        let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / w;
        let istd = 1.0 / (var + LN_EPS).sqrt();
        for ((v, g), b) in row.iter_mut().zip(&self.gamma).zip(&self.beta) {
            *v = (*v - mean) * istd * g + b;
        }
    }
}

struct Block {
    mbu: Option<Attention>,
    mbi: Option<Attention>,
    mba: Option<Attention>,
    norms: [Option<Norm>; 3],
}

/// The HIRE forward in f64, rebuilt from a frozen model's parameters.
pub struct Reference {
    user_emb: Vec<Mat>,
    item_emb: Vec<Mat>,
    rating_emb: Mat,
    blocks: Vec<Block>,
    dec_w: Vec<f64>,
    dec_b: f64,
    config: HireConfig,
    user_id_only: bool,
    item_id_only: bool,
    min_rating: f64,
    max_rating: f64,
    levels: usize,
}

/// Attention weights `[w_q, w_k, w_v, w_o]` and layer norm `(gamma, beta)`
/// of one HIM layer, each present when the configuration enables it.
pub type LayerParams<T> = (Option<[T; 4]>, Option<(T, T)>);

/// A frozen model's flat parameter list split by role, in
/// `HireModel::parameters()` order, each parameter converted by the caller.
pub struct Layout<T> {
    pub user_emb: Vec<T>,
    pub item_emb: Vec<T>,
    pub rating_emb: T,
    /// Per block: MBU, MBI and MBA.
    pub blocks: Vec<[LayerParams<T>; 3]>,
    pub dec_w: T,
    pub dec_b: T,
}

impl<T> Layout<T> {
    pub fn of(model: &FrozenModel, dataset: &Dataset, mut conv: impl FnMut(NdArray) -> T) -> Self {
        let config = model.config();
        let mut params = model.parameters().into_iter();
        let mut next = || conv(params.next().expect("parameter list too short"));
        let tables = |id_only: bool, attrs: usize| if id_only { 1 } else { attrs };
        let (us, is) = (&dataset.user_schema, &dataset.item_schema);
        let user_emb = (0..tables(us.is_id_only(), us.num_attributes()))
            .map(|_| next())
            .collect();
        let item_emb = (0..tables(is.is_id_only(), is.num_attributes()))
            .map(|_| next())
            .collect();
        let rating_emb = next();
        let enabled = [config.enable_mbu, config.enable_mbi, config.enable_mba];
        let blocks = (0..config.num_blocks)
            .map(|_| {
                let attn = enabled.map(|on| on.then(|| [next(), next(), next(), next()]));
                let norms = enabled.map(|on| (on && config.layer_norm).then(|| (next(), next())));
                let [a0, a1, a2] = attn;
                let [n0, n1, n2] = norms;
                [(a0, n0), (a1, n1), (a2, n2)]
            })
            .collect();
        let (dec_w, dec_b) = (next(), next());
        assert!(params.next().is_none(), "parameter list too long");
        Layout {
            user_emb,
            item_emb,
            rating_emb,
            blocks,
            dec_w,
            dec_b,
        }
    }
}

impl Reference {
    pub fn new(model: &FrozenModel, dataset: &Dataset) -> Reference {
        let config = model.config().clone();
        let p = Layout::of(model, dataset, |a| Mat::of(&a));
        let blocks = p
            .blocks
            .into_iter()
            .map(|layers| {
                let [mbu, mbi, mba] = layers.map(|(attn, norm)| {
                    let attn = attn.map(|[w_q, w_k, w_v, w_o]| Attention { w_q, w_k, w_v, w_o });
                    let norm = norm.map(|(g, b)| Norm {
                        gamma: g.data,
                        beta: b.data,
                    });
                    (attn, norm)
                });
                Block {
                    mbu: mbu.0,
                    mbi: mbi.0,
                    mba: mba.0,
                    norms: [mbu.1, mbi.1, mba.1],
                }
            })
            .collect();
        let (user_emb, item_emb, rating_emb) = (p.user_emb, p.item_emb, p.rating_emb);
        let (dec_w, dec_b) = (p.dec_w.data, p.dec_b.data[0]);
        Reference {
            user_emb,
            item_emb,
            rating_emb,
            blocks,
            dec_w,
            dec_b,
            config,
            user_id_only: dataset.user_schema.is_id_only(),
            item_id_only: dataset.item_schema.is_id_only(),
            min_rating: dataset.min_rating as f64,
            max_rating: dataset.max_rating() as f64,
            levels: dataset.rating_levels,
        }
    }

    /// Attribute channels `h` (user tables + item tables + rating).
    fn channels(&self) -> usize {
        self.user_emb.len() + self.item_emb.len() + 1
    }

    /// Predicted rating matrix `[n * m]` for `ctx`.
    pub fn forward(&self, ctx: &PredictionContext, dataset: &Dataset) -> Vec<f64> {
        let (n, m) = (ctx.n(), ctx.m());
        let f = self.config.attr_dim;
        let h = self.channels();
        let e = h * f;
        let (heads, dk) = (self.config.heads, self.config.head_dim);

        // Encode: per cell, user attribute embeddings, item attribute
        // embeddings, then the rating embedding of a visible cell (zeros
        // for a hidden one).
        let mut x = vec![0.0; n * m * e];
        for r in 0..n {
            let u = ctx.users[r];
            for c in 0..m {
                let i = ctx.items[c];
                let cell = &mut x[(r * m + c) * e..(r * m + c + 1) * e];
                let mut slot = 0;
                for (k, table) in self.user_emb.iter().enumerate() {
                    let code = if self.user_id_only {
                        u
                    } else {
                        dataset.user_attrs[u][k]
                    };
                    cell[slot..slot + f].copy_from_slice(table.row(code));
                    slot += f;
                }
                for (k, table) in self.item_emb.iter().enumerate() {
                    let code = if self.item_id_only {
                        i
                    } else {
                        dataset.item_attrs[i][k]
                    };
                    cell[slot..slot + f].copy_from_slice(table.row(code));
                    slot += f;
                }
                let flat = r * m + c;
                if ctx.input_mask.as_slice()[flat] == 1.0 {
                    let value = ctx.ratings.as_slice()[flat] as f64;
                    let code = ((value - self.min_rating).round() as usize).min(self.levels - 1);
                    cell[slot..slot + f].copy_from_slice(self.rating_emb.row(code));
                }
            }
        }

        let post = |x: &mut [f64], y: &[f64], norm: &Option<Norm>, residual: bool| {
            for (a, b) in x.iter_mut().zip(y) {
                *a = if residual { *a + b } else { *b };
            }
            if let Some(norm) = norm {
                x.chunks_mut(e).for_each(|row| norm.apply(row));
            }
        };
        for block in &self.blocks {
            if let Some(attn) = &block.mbu {
                // Tokens are the users of one item column.
                let mut y = vec![0.0; n * m * e];
                for c in 0..m {
                    let col: Vec<f64> = (0..n)
                        .flat_map(|r| x[(r * m + c) * e..(r * m + c + 1) * e].to_vec())
                        .collect();
                    let out = attn.forward(&col, n, heads, dk);
                    for r in 0..n {
                        y[(r * m + c) * e..(r * m + c + 1) * e]
                            .copy_from_slice(&out[r * e..(r + 1) * e]);
                    }
                }
                post(&mut x, &y, &block.norms[0], self.config.residual);
            }
            if let Some(attn) = &block.mbi {
                // Tokens are the items of one user row.
                let y: Vec<f64> = (0..n)
                    .flat_map(|r| attn.forward(&x[r * m * e..(r + 1) * m * e], m, heads, dk))
                    .collect();
                post(&mut x, &y, &block.norms[1], self.config.residual);
            }
            if let Some(attn) = &block.mba {
                // Tokens are the attribute channels of one cell.
                let y: Vec<f64> = x
                    .chunks(e)
                    .flat_map(|cell| attn.forward(cell, h, heads, dk))
                    .collect();
                post(&mut x, &y, &block.norms[2], self.config.residual);
            }
        }

        x.chunks(e)
            .map(|cell| {
                let z = cell
                    .iter()
                    .zip(&self.dec_w)
                    .map(|(a, b)| a * b)
                    .sum::<f64>()
                    + self.dec_b;
                self.max_rating / (1.0 + (-z).exp())
            })
            .collect()
    }
}

/// Checks the sampler's contract for the context serving `query`: the query
/// pair is in the block, the block is within the `n × m` budget, and every
/// visible input cell is an edge of `graph` carrying that value. Returns
/// the query's `(row, col)`.
pub fn check_context(
    ctx: &PredictionContext,
    query: &RatingQuery,
    graph: &BipartiteGraph,
    config: &HireConfig,
) -> Result<(usize, usize), String> {
    if ctx.n() > config.context_users || ctx.m() > config.context_items {
        return Err(format!(
            "context {}x{} exceeds the {}x{} budget",
            ctx.n(),
            ctx.m(),
            config.context_users,
            config.context_items
        ));
    }
    let (row, col) = match (ctx.user_row(query.user), ctx.item_col(query.item)) {
        (Some(r), Some(c)) => (r, c),
        _ => return Err(format!("query {query:?} missing from its context")),
    };
    let m = ctx.m();
    for (flat, &visible) in ctx.input_mask.as_slice().iter().enumerate() {
        if visible != 1.0 {
            continue;
        }
        let (u, i) = (ctx.users[flat / m], ctx.items[flat % m]);
        let value = ctx.ratings.as_slice()[flat];
        if graph.rating(u, i) != Some(value) {
            return Err(format!(
                "input cell ({u}, {i}) = {value} is not an edge of the live graph ({:?})",
                graph.rating(u, i)
            ));
        }
    }
    Ok((row, col))
}

/// Checks one served answer against the reference forward of its context.
///
/// - model-tier answers agree with the reference within [`MODEL_TOLERANCE`];
/// - quantized answers stay within `quant_bound` of it;
/// - memoized answers equal a fresh frozen forward bit for bit.
#[allow(clippy::too_many_arguments)]
pub fn check_answer(
    reference: &Reference,
    model: &FrozenModel,
    dataset: &Dataset,
    graph: &BipartiteGraph,
    ctx: &PredictionContext,
    query: &RatingQuery,
    rating: f32,
    served_by: ServedBy,
    quant_bound: f32,
) -> Result<(), String> {
    let (row, col) = check_context(ctx, query, graph, model.config())?;
    let expected = reference.forward(ctx, dataset)[row * ctx.m() + col];
    let gap = (rating as f64 - expected).abs();
    let allowed = match served_by {
        ServedBy::Model => MODEL_TOLERANCE,
        ServedBy::Quantized => quant_bound as f64 + MODEL_TOLERANCE,
        ServedBy::Cache => {
            let fresh = model
                .forward_nograd(ctx, dataset)
                .map_err(|e| format!("fresh forward failed: {e}"))?
                .at(&[row, col]);
            if fresh.to_bits() != rating.to_bits() {
                return Err(format!(
                    "memoized answer {rating} differs from a fresh forward {fresh} for {query:?}"
                ));
            }
            MODEL_TOLERANCE
        }
        other => return Err(format!("{query:?} answered by the {} tier", other.label())),
    };
    if gap > allowed {
        return Err(format!(
            "{query:?} served {rating} by {} but the reference gives {expected:.6} (allowed {allowed})",
            served_by.label()
        ));
    }
    Ok(())
}
