//! The traced run's per-layer measurements.
//!
//! All timing here is done from the benchmark's own code around calls into
//! each layer's public functions: a timing `Predictor` wrapper around the
//! engine for the server and engine layers, and direct calls for the
//! sampler, the forwards, the HIM layers and MHSA stages, the graph commit
//! and the training step's parts. The program itself carries no timers.

use crate::fixture::{self, Training};
use crate::load::{median, ms, ReadOutcome};
use crate::reference::Layout;
use hire_core::HireConfig;
use hire_data::{training_context, Dataset, PredictionContext};
use hire_graph::{BipartiteGraph, NeighborhoodSampler, Rating};
use hire_nn::{mhsa_forward, MhsaWeights, Module};
use hire_optim::{clip_grad_norm, Lamb, Lookahead, Optimizer};
use hire_serve::{Answer, FrozenModel, Predictor, RatingQuery, ServeEngine, ServeError};
use hire_tensor::{linalg, NdArray};
use rand::seq::SliceRandom;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One `predict_batch_tagged` call seen by [`TimedEngine`].
struct Call {
    end: Instant,
    took: Duration,
    queries: Vec<RatingQuery>,
}

/// A `Predictor` that forwards to the engine and records every batch call.
pub struct TimedEngine {
    inner: Arc<ServeEngine>,
    calls: Mutex<Vec<Call>>,
}

impl TimedEngine {
    pub fn new(inner: Arc<ServeEngine>) -> TimedEngine {
        TimedEngine {
            inner,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Server-layer metrics of the calls recorded while `outcomes` ran:
    /// queue wait is each answer's latency minus the engine time of the
    /// batch that answered it.
    pub fn server_metrics(&self, outcomes: &[ReadOutcome], out: &mut Metrics) {
        let calls = self.calls.lock().expect("timing log lock");
        let mut by_query: HashMap<RatingQuery, Vec<(Instant, Duration)>> = HashMap::new();
        for call in calls.iter() {
            for q in &call.queries {
                by_query.entry(*q).or_default().push((call.end, call.took));
            }
        }
        let mut waits = Vec::new();
        for o in outcomes {
            let (Ok(p), Some(latency)) = (&o.result, o.latency_ms()) else {
                continue;
            };
            let answered = o.submitted + p.latency;
            // The answering batch is the latest one with this query that
            // ended before the answer was sent (calls are logged in end
            // order per query).
            let Some(batches) = by_query.get(&o.query) else {
                continue;
            };
            let k = batches.partition_point(|&(end, _)| end <= answered);
            if k > 0 {
                waits.push((latency - ms(batches[k - 1].1)).max(0.0));
            }
        }
        let waits = crate::load::sorted(waits);
        out.put(
            "server.queue_wait_p50_ms",
            crate::load::percentile(&waits, 50.0),
            "ms",
        );
        out.put(
            "server.queue_wait_p99_ms",
            crate::load::percentile(&waits, 99.0),
            "ms",
        );
        let sizes: Vec<f64> = calls.iter().map(|c| c.queries.len() as f64).collect();
        out.put(
            "server.batch_size_mean",
            sizes.iter().sum::<f64>() / sizes.len().max(1) as f64,
            "count",
        );
        out.put("server.engine_calls", calls.len() as f64, "count");
        let took: Vec<f64> = calls.iter().map(|c| ms(c.took)).collect();
        out.put("engine.batch_p50_ms", median(&took), "ms");
    }
}

impl Predictor for TimedEngine {
    fn predict_batch(&self, queries: &[RatingQuery]) -> Result<Vec<f32>, ServeError> {
        self.inner.predict_batch(queries)
    }

    fn predict_batch_tagged(
        &self,
        queries: &[RatingQuery],
        deadline: Option<Instant>,
    ) -> Result<Vec<Answer>, ServeError> {
        let start = Instant::now();
        let result = self.inner.predict_batch_tagged(queries, deadline);
        let end = Instant::now();
        self.calls.lock().expect("timing log lock").push(Call {
            end,
            took: end - start,
            queries: queries.to_vec(),
        });
        result
    }
}

/// Named metric values with their units, printed in name order.
#[derive(Default)]
pub struct Metrics(pub std::collections::BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, (value, unit));
    }
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = std::hint::black_box(f());
    (value, ms(start.elapsed()))
}

/// `context_for` on queries that miss the cache; returns the contexts.
pub fn sampling(
    engine: &ServeEngine,
    queries: &[RatingQuery],
    out: &mut Metrics,
) -> Vec<Arc<PredictionContext>> {
    let mut times = Vec::new();
    let ctxs = queries
        .iter()
        .map(|q| {
            let (ctx, t) = time(|| engine.context_for(q).expect("sample a context"));
            times.push(t);
            ctx
        })
        .collect();
    out.put("sample.ctx_ms", median(&times), "ms");
    ctxs
}

/// Multiply-adds ×2 of the matrix products in one MHSA call.
fn mhsa_flops(batch: usize, tokens: usize, dim: usize, config: &HireConfig) -> f64 {
    let inner = (config.heads * config.head_dim) as f64;
    let (b, t, d) = (batch as f64, tokens as f64, dim as f64);
    let dk = config.head_dim as f64;
    let heads = config.heads as f64;
    2.0 * b * t * d * inner * 4.0 + 2.0 * b * heads * t * t * dk * 2.0
}

/// Matrix-product FLOPs of one forward over an `n × m` context with `h`
/// attribute channels (element-wise work is not counted).
fn forward_flops(config: &HireConfig, h: usize, n: usize, m: usize) -> f64 {
    let f = config.attr_dim;
    let e = h * f;
    let block =
        mhsa_flops(m, n, e, config) + mhsa_flops(n, m, e, config) + mhsa_flops(n * m, h, f, config);
    block * config.num_blocks as f64 + 2.0 * (n * m * e) as f64
}

/// Frozen, quantized and batched forward costs per context.
pub fn forwards(
    engine: &ServeEngine,
    ds: &Dataset,
    ctxs: &[Arc<PredictionContext>],
    out: &mut Metrics,
) {
    let slot = engine.current_model();
    let model = slot.model();
    let b1: Vec<f64> = ctxs
        .iter()
        .map(|c| time(|| model.forward_nograd(c, ds).expect("b1 forward")).1)
        .collect();
    let b8: Vec<f64> = ctxs
        .chunks_exact(8)
        .map(|chunk| {
            let refs: Vec<&PredictionContext> = chunk.iter().map(|c| &**c).collect();
            time(|| model.forward_nograd_batch(&refs, ds).expect("b8 forward")).1 / 8.0
        })
        .collect();
    let quant = slot.quantized().expect("engine builds the quantized rung");
    let q1: Vec<f64> = ctxs
        .iter()
        .map(|c| time(|| quant.forward_nograd(c, ds).expect("quantized forward")).1)
        .collect();
    let b1_ms = median(&b1);
    out.put("forward.b1_ms_per_ctx", b1_ms, "ms");
    out.put("forward.b8_ms_per_ctx", median(&b8), "ms");
    out.put("forward.quant_b1_ms_per_ctx", median(&q1), "ms");
    let flops: Vec<f64> = ctxs
        .iter()
        .map(|c| forward_flops(model.config(), model.num_attrs(), c.n(), c.m()))
        .collect();
    out.put("forward.gflops", median(&flops) / (b1_ms * 1e6), "GFLOP/s");
}

/// One attention layer's weights and its layer norm's (gamma, beta).
type Layer = (Option<MhsaWeights>, Option<(NdArray, NdArray)>);

/// The frozen weights rebuilt from `FrozenModel::parameters()` so each HIM
/// layer can be called on its own.
struct Staged {
    user_emb: Vec<NdArray>,
    item_emb: Vec<NdArray>,
    rating_emb: NdArray,
    /// Per block: MBU, MBI and MBA.
    blocks: Vec<[Layer; 3]>,
    dec_w: NdArray,
    dec_b: NdArray,
    alpha: f32,
    min_rating: f32,
    levels: usize,
    config: HireConfig,
}

impl Staged {
    fn new(model: &FrozenModel, ds: &Dataset) -> Staged {
        let config = model.config().clone();
        let p = Layout::of(model, ds, |a| a);
        let blocks = p
            .blocks
            .into_iter()
            .map(|layers| {
                layers.map(|(attn, norm)| {
                    let attn = attn.map(|[w_q, w_k, w_v, w_o]| MhsaWeights {
                        w_q,
                        w_k,
                        w_v,
                        w_o,
                        heads: config.heads,
                        head_dim: config.head_dim,
                    });
                    (attn, norm)
                })
            })
            .collect();
        Staged {
            user_emb: p.user_emb,
            item_emb: p.item_emb,
            rating_emb: p.rating_emb,
            blocks,
            dec_w: p.dec_w,
            dec_b: p.dec_b,
            alpha: ds.max_rating(),
            min_rating: ds.min_rating,
            levels: ds.rating_levels,
            config,
        }
    }

    fn channels(&self) -> usize {
        self.user_emb.len() + self.item_emb.len() + 1
    }

    /// The encoded context `[1, n, m, e]` (untimed input of the layers).
    fn encode(&self, ctx: &PredictionContext, ds: &Dataset) -> NdArray {
        let (n, m, f) = (ctx.n(), ctx.m(), self.config.attr_dim);
        let e = self.channels() * f;
        let mut x = vec![0.0f32; n * m * e];
        for (flat, cell) in x.chunks_mut(e).enumerate() {
            let (u, i) = (ctx.users[flat / m], ctx.items[flat % m]);
            let mut rows: Vec<&[f32]> = Vec::new();
            for (k, t) in self.user_emb.iter().enumerate() {
                let code = if ds.user_schema.is_id_only() {
                    u
                } else {
                    ds.user_attrs[u][k]
                };
                rows.push(&t.as_slice()[code * f..(code + 1) * f]);
            }
            for (k, t) in self.item_emb.iter().enumerate() {
                let code = if ds.item_schema.is_id_only() {
                    i
                } else {
                    ds.item_attrs[i][k]
                };
                rows.push(&t.as_slice()[code * f..(code + 1) * f]);
            }
            for (slot, row) in cell.chunks_mut(f).zip(rows) {
                slot.copy_from_slice(row);
            }
            if ctx.input_mask.as_slice()[flat] == 1.0 {
                let value = ctx.ratings.as_slice()[flat];
                let code = ((value - self.min_rating).round() as usize).min(self.levels - 1);
                cell[e - f..]
                    .copy_from_slice(&self.rating_emb.as_slice()[code * f..(code + 1) * f]);
            }
        }
        NdArray::from_vec(vec![1, n, m, e], x)
    }
}

/// Residual add and layer norm after one attention layer.
fn post(x: &NdArray, y: &NdArray, norm: &Option<(NdArray, NdArray)>, residual: bool) -> NdArray {
    let z = if residual {
        linalg::broadcast_zip(x, y, |a, b| a + b)
    } else {
        y.clone()
    };
    match norm {
        Some((g, b)) => linalg::layer_norm_last_nd(&z, g, b, 1e-5),
        None => z,
    }
}

/// HIM layer times per context, and the MHSA stages on the MBA shape.
pub fn him(model: &FrozenModel, ds: &Dataset, ctxs: &[Arc<PredictionContext>], out: &mut Metrics) {
    let staged = Staged::new(model, ds);
    let h = staged.channels();
    let f = staged.config.attr_dim;
    let residual = staged.config.residual;
    let mut layer: [Vec<f64>; 5] = Default::default();
    let mut stage: [Vec<f64>; 6] = Default::default();
    for ctx in ctxs {
        let (n, m) = (ctx.n(), ctx.m());
        let e = h * f;
        let mut x = staged.encode(ctx, ds);
        let input = x.clone();
        let mut t = [0.0; 5];
        for block in &staged.blocks {
            if let (Some(w), norm) = &block[0] {
                let (y, dt) = time(|| {
                    let per_item = linalg::permute(&x, &[0, 2, 1, 3]).reshaped(vec![m, n, e]);
                    let y = mhsa_forward(&per_item, w);
                    linalg::permute(&y.reshaped(vec![1, m, n, e]), &[0, 2, 1, 3])
                });
                t[0] += dt;
                let (z, dt) = time(|| post(&x, &y, norm, residual));
                t[3] += dt;
                x = z;
            }
            if let (Some(w), norm) = &block[1] {
                let (y, dt) =
                    time(|| mhsa_forward(&x.reshape([n, m, e]), w).reshaped(vec![1, n, m, e]));
                t[1] += dt;
                let (z, dt) = time(|| post(&x, &y, norm, residual));
                t[3] += dt;
                x = z;
            }
            if let (Some(w), norm) = &block[2] {
                let (y, dt) =
                    time(|| mhsa_forward(&x.reshape([n * m, h, f]), w).reshaped(vec![1, n, m, e]));
                t[2] += dt;
                let (z, dt) = time(|| post(&x, &y, norm, residual));
                t[3] += dt;
                x = z;
            }
        }
        let (_, dt) = time(|| {
            let y = linalg::linear_nd(&x, &staged.dec_w);
            let alpha = staged.alpha;
            linalg::broadcast_zip(&y, &staged.dec_b, |a, b| a + b)
                .map(|v| alpha / (1.0 + (-v).exp()))
        });
        t[4] += dt;
        for (acc, v) in layer.iter_mut().zip(t) {
            acc.push(v);
        }

        // The MHSA of the first MBA layer, stage by stage.
        if let (Some(w), _) = &staged.blocks[0][2] {
            let (b, tokens, l, dk) = (n * m, h, w.heads, w.head_dim);
            let x3 = input.reshape([b, tokens, f]);
            let split = |p: NdArray| {
                linalg::permute(&p.reshaped([b, tokens, l, dk]), &[0, 2, 1, 3]).reshaped([
                    b * l,
                    tokens,
                    dk,
                ])
            };
            let ((q, k, v), proj) = time(|| {
                (
                    linalg::linear_nd(&x3, &w.w_q),
                    linalg::linear_nd(&x3, &w.w_k),
                    linalg::linear_nd(&x3, &w.w_v),
                )
            });
            let ((q, k, v), split_ms) = time(|| (split(q), split(k), split(v)));
            let scale = 1.0 / (dk as f32).sqrt();
            let (scores, scores_ms) =
                time(|| linalg::bmm(&q, &linalg::transpose_last2(&k)).map(|s| s * scale));
            let (attn, softmax_ms) = time(|| linalg::softmax_last(&scores));
            let (av, av_ms) = time(|| linalg::bmm(&attn, &v));
            let (fused, merge_ms) = time(|| {
                linalg::permute(&av.reshaped([b, l, tokens, dk]), &[0, 2, 1, 3]).reshaped([
                    b,
                    tokens,
                    l * dk,
                ])
            });
            let (_, out_ms) = time(|| linalg::linear_nd(&fused, &w.w_o));
            for (acc, v) in stage.iter_mut().zip([
                proj,
                split_ms + merge_ms,
                scores_ms,
                softmax_ms,
                av_ms,
                out_ms,
            ]) {
                acc.push(v);
            }
        }
    }
    for (name, values) in [
        "him.mbu_ms",
        "him.mbi_ms",
        "him.mba_ms",
        "him.post_ms",
        "him.decode_ms",
    ]
    .into_iter()
    .zip(&layer)
    {
        out.put(name, median(values), "ms");
    }
    for (name, values) in [
        "mhsa.proj_ms",
        "mhsa.permute_ms",
        "mhsa.scores_ms",
        "mhsa.softmax_ms",
        "mhsa.av_ms",
        "mhsa.out_ms",
    ]
    .into_iter()
    .zip(&stage)
    {
        out.put(name, median(values), "ms");
    }
}

/// `BipartiteGraph::with_extra_edges` with one new edge on `graph`.
pub fn graph_commit(graph: &BipartiteGraph, edges: &[Rating], out: &mut Metrics) {
    let times: Vec<f64> = edges
        .iter()
        .map(|e| time(|| graph.with_extra_edges(std::slice::from_ref(e))).1)
        .collect();
    out.put("graph.commit_ms", median(&times), "ms");
}

/// The parts of `hire_core::train`'s step, called one by one: context
/// sampling, the taped forward and loss, backward with clipping, and the
/// LAMB + Lookahead update.
pub fn train_step_parts(t: &Training, steps: usize, seed: u64, out: &mut Metrics) {
    let params = t.model.parameters();
    let mut optimizer = Lookahead::paper_default(Lamb::paper_default(params.clone()));
    let edges: Vec<Rating> = t.train_graph.edges().collect();
    let mut rng = fixture::rng(seed, 40);
    let batch = hire_core::TrainConfig::fast().batch_size;
    let c = &t.config;
    let (mut sample, mut forward, mut backward, mut optim) = (vec![], vec![], vec![], vec![]);
    for _ in 0..steps {
        optimizer.zero_grad();
        let mut total: Option<hire_tensor::Tensor> = None;
        for _ in 0..batch {
            let seed_edge = *edges.choose(&mut rng).expect("training edges");
            let (ctx, dt) = time(|| {
                training_context(
                    &t.train_graph,
                    &NeighborhoodSampler,
                    seed_edge,
                    c.context_users,
                    c.context_items,
                    c.input_ratio,
                    &mut rng,
                )
                .expect("training context")
            });
            sample.push(dt);
            let (loss, dt) = time(|| t.model.context_loss(&ctx, &t.ds));
            forward.push(dt);
            total = Some(match total {
                None => loss,
                Some(acc) => acc.add(&loss),
            });
        }
        let loss = total
            .expect("non-empty batch")
            .mul_scalar(1.0 / batch as f32);
        backward.push(
            time(|| {
                loss.backward();
                clip_grad_norm(&params, 1.0)
            })
            .1,
        );
        optim.push(time(|| optimizer.step(1e-3)).1);
    }
    out.put("train.sample_ms_per_ctx", median(&sample), "ms");
    out.put("train.forward_ms_per_ctx", median(&forward), "ms");
    out.put("train.backward_ms_per_step", median(&backward), "ms");
    out.put("train.optim_ms_per_step", median(&optim), "ms");
}
