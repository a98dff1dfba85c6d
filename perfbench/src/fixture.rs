//! Inputs and set-up shared by the workloads. Everything is derived from the
//! benchmark seed; the program under test only ever sees the generated
//! inputs.

use hire_core::{HireConfig, HireModel};
use hire_data::{ColdStartScenario, ColdStartSplit, Dataset, SyntheticConfig};
use hire_graph::{BipartiteGraph, Rating};
use hire_serve::{EngineConfig, FrozenModel, Predictor, RatingQuery, ServeEngine};
use hire_wal::{Wal, WalOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Hot-set size: small enough that every hot context stays in the
/// 4096-entry context cache.
pub const HOT_PAIRS: usize = 64;
/// Zipf exponent over the hot set's ranks.
pub const ZIPF_S: f64 = 1.1;
/// Share of users held out as cold in the training split.
pub const COLD_USER_FRAC: f32 = 0.2;
/// Share of a cold user's ratings revealed as support.
pub const SUPPORT_RATIO: f32 = 0.1;

/// Independent random streams derived from the benchmark seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The `movielens_like` graph: 600 users × 400 items, ~48k ratings.
pub fn dataset(seed: u64) -> Arc<Dataset> {
    Arc::new(SyntheticConfig::movielens_like().generate(seed))
}

/// Sampler over hot-set ranks with weight `1 / rank^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(s);
                total
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= total);
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

pub fn uniform_queries(ds: &Dataset, count: usize, rng: &mut impl Rng) -> Vec<RatingQuery> {
    (0..count)
        .map(|_| RatingQuery {
            user: rng.gen_range(0..ds.num_users),
            item: rng.gen_range(0..ds.num_items),
        })
        .collect()
}

pub fn zipf_queries(hot: &[RatingQuery], count: usize, rng: &mut impl Rng) -> Vec<RatingQuery> {
    let zipf = Zipf::new(hot.len(), ZIPF_S);
    (0..count).map(|_| hot[zipf.sample(rng)]).collect()
}

/// `count` distinct inserts that are not yet edges of `graph`, over the
/// given users and items, with ratings drawn from the dataset's scale.
pub fn fresh_edges(
    graph: &BipartiteGraph,
    ds: &Dataset,
    users: &[usize],
    items: &[usize],
    count: usize,
    rng: &mut impl Rng,
) -> Vec<Rating> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let (u, i) = (
            users[rng.gen_range(0..users.len())],
            items[rng.gen_range(0..items.len())],
        );
        if graph.rating(u, i).is_none() && seen.insert((u, i)) {
            let level = rng.gen_range(0..ds.rating_levels);
            out.push(Rating::new(u, i, ds.min_rating + level as f32));
        }
    }
    out
}

/// A serving engine over the full graph with a group-commit WAL attached.
pub struct Serving {
    pub ds: Arc<Dataset>,
    pub config: HireConfig,
    pub frozen: FrozenModel,
    pub base_graph: Arc<BipartiteGraph>,
    pub engine: Arc<ServeEngine>,
    pub wal_dir: PathBuf,
    pub hot: Vec<RatingQuery>,
}

pub fn engine_config(config: &HireConfig, seed: u64) -> EngineConfig {
    EngineConfig {
        seed,
        ..EngineConfig::from_model_config(config)
    }
}

/// Generates the data, initialises and freezes a `fast` model, builds the
/// engine and its WAL in `wal_dir`, and, with `warm`, memoizes the hot set.
pub fn serving(seed: u64, wal_dir: &Path, warm: bool) -> Serving {
    let ds = dataset(seed);
    let config = HireConfig::fast();
    let model = HireModel::new(&ds, &config, &mut rng(seed, 1));
    let frozen = FrozenModel::from_model(&model, &ds).expect("freeze an initialised model");
    let base_graph = Arc::new(ds.graph());
    let _ = std::fs::remove_dir_all(wal_dir);
    std::fs::create_dir_all(wal_dir).expect("create the WAL directory");
    let (wal, _) = Wal::open(wal_dir, WalOptions::default()).expect("open a fresh WAL");
    let engine = Arc::new(
        ServeEngine::with_shared_graph(
            frozen.clone(),
            Arc::clone(&ds),
            Arc::clone(&base_graph),
            engine_config(&config, seed),
        )
        .with_wal(Arc::new(wal)),
    );
    let hot = uniform_queries(&ds, HOT_PAIRS, &mut rng(seed, 2));
    if warm {
        engine.predict_batch(&hot).expect("warm the hot set");
    }
    Serving {
        ds,
        config,
        frozen,
        base_graph,
        engine,
        wal_dir: wal_dir.to_path_buf(),
        hot,
    }
}

/// A user-cold split of the graph and a fresh `fast` model to train on it.
pub struct Training {
    pub ds: Arc<Dataset>,
    pub config: HireConfig,
    pub split: ColdStartSplit,
    pub train_graph: BipartiteGraph,
    pub model: HireModel,
}

pub fn training(seed: u64) -> Training {
    let ds = dataset(seed);
    let config = HireConfig::fast();
    let split = ColdStartSplit::new(
        &ds,
        ColdStartScenario::UserCold,
        COLD_USER_FRAC,
        SUPPORT_RATIO,
        seed,
    );
    let train_graph = split.train_graph(&ds);
    let model = HireModel::new(&ds, &config, &mut rng(seed, 3));
    Training {
        ds,
        config,
        split,
        train_graph,
        model,
    }
}
