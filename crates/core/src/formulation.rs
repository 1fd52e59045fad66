//! Translation of a [`MeasurementTask`] into a solver problem.
//!
//! The objective stores its per-OD sparse routing rows in CSR (compressed
//! sparse row) form — one flat `(variable, fraction)` array plus row offsets
//! — and evaluates value/gradient/curvature either serially or fanned out
//! across a persistent [`EvalPool`]. Chunk partials are merged in chunk
//! order, so results are deterministic for a fixed worker count. A fused
//! single-pass kernel ([`PlacementObjective::eval_fused`]) produces value,
//! gradient, and both directional derivatives from one CSR sweep. Under the
//! approximate rate model a line search costs one sweep in all: it records
//! each row's `(ρ_k, r_k·s)` at `t = 0`, and every Newton probe is answered
//! from those scalars ([`Objective::prepare_line`]).

use crate::pool::{ChunkOut, ChunkTask};
use crate::{CoreError, EvalPool, MeasurementTask, PoolError, SreUtility, Utility};
use nws_linalg::Vector;
use nws_obs::Recorder;
use nws_solver::{BoxLinearProblem, LineProbe, Objective, TrialPoints};
use nws_topo::LinkId;
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How the effective sampling rate `ρ_k(p)` is modelled inside the objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RateModel {
    /// The paper's working approximation `ρ_k = Σ_i r_{k,i}·p_i` (eq. (7)) —
    /// linear, keeps the objective strictly concave, and accurate in the
    /// low-rate/few-monitors regime the solution lives in (§IV-B).
    #[default]
    Approximate,
    /// The exact union probability `ρ_k = 1 − Π_i (1 − p_i)^{r_{k,i}}`
    /// (eq. (1)). Exact for unique paths (binary `r`); under ECMP the
    /// fractional exponent is a geometric-interpolation approximation.
    ///
    /// Note: composed with the utility this is *not* guaranteed concave over
    /// the whole box, so KKT certification only attests stationarity; in the
    /// low-rate regime the curvature from `M''` dominates and the solver
    /// behaves identically. Provided for the §V-B validation ablation.
    Exact,
}

/// How a [`PlacementObjective`] fans evaluation out across threads.
///
/// Evaluation is embarrassingly parallel over OD rows: each worker reduces a
/// contiguous chunk of rows into a private partial (a scalar for value and
/// curvature, a scratch gradient buffer for gradients) and the partials are
/// merged in chunk order. The fan-out runs on a persistent [`EvalPool`] —
/// workers are spawned once when the config is attached
/// ([`PlacementObjective::with_parallel`]) and parked between calls, so an
/// evaluation pays only a channel handoff. Two cutoffs keep small work on
/// the serial path: `min_ods_per_thread` bounds the chunk count by available
/// rows, and `min_nnz_parallel` routes whole instances below a CSR-size
/// floor (e.g. GEANT, Abilene) straight to the serial kernels, where even a
/// single handoff would cost more than the row sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads: `1` forces the serial path (the default), `0` uses
    /// one worker per available core, any other value is taken literally
    /// (but never more pool workers than cores — oversubscribing CPU-bound
    /// row sweeps only adds scheduler churn).
    pub threads: usize,
    /// Minimum OD rows per worker; the effective worker count is capped at
    /// `num_ods / min_ods_per_thread` so handoff overhead never dominates
    /// small tasks.
    pub min_ods_per_thread: usize,
    /// Auto-serial cutoff: instances with fewer CSR entries than this never
    /// use the pool at all. At the default, a serial sweep costs on the
    /// order of a channel handoff, so parallelism cannot win below it.
    pub min_nnz_parallel: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            threads: 1,
            min_ods_per_thread: 256,
            min_nnz_parallel: 4096,
        }
    }
}

impl ParallelConfig {
    /// A config with the given worker count (`0` = auto) and the default
    /// serial-fallback thresholds.
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig {
            threads,
            ..ParallelConfig::default()
        }
    }

    /// The worker count this config requests for a task of `num_ods` rows
    /// (before the core-count cap applied when the pool is resolved).
    pub fn workers_for(&self, num_ods: usize) -> usize {
        let requested = match self.threads {
            0 => available_cores(),
            t => t,
        };
        let by_work = num_ods / self.min_ods_per_thread.max(1);
        requested.min(by_work).max(1)
    }
}

fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A reusable pool of gradient scratch buffers, shared across evaluations so
/// the per-chunk partials do not reallocate every solver iteration.
#[derive(Debug, Default)]
struct ScratchPool {
    buffers: Mutex<Vec<Vec<f64>>>,
}

impl ScratchPool {
    /// Pops a pooled buffer (or allocates one) and zeroes it to `len`.
    fn take(&self, len: usize) -> Vec<f64> {
        let mut buf = self
            .buffers
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_default();
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Returns a buffer to the pool.
    fn put(&self, buf: Vec<f64>) {
        self.buffers
            .lock()
            .expect("scratch pool poisoned")
            .push(buf);
    }
}

/// Mapping between the task's candidate links and dense variable indices.
#[derive(Debug, Clone)]
pub struct ReducedIndex {
    links: Vec<LinkId>,
    /// The variable of each topology link, indexed by link id (`None` off
    /// the candidate set).
    pos: Vec<Option<usize>>,
}

impl ReducedIndex {
    /// Builds the index over the task's candidate links.
    pub fn new(task: &MeasurementTask) -> Self {
        let links = task.candidate_links().to_vec();
        let mut pos = vec![None; task.topology().num_links()];
        for (v, &l) in links.iter().enumerate() {
            pos[l.index()] = Some(v);
        }
        ReducedIndex { links, pos }
    }

    /// Number of optimization variables.
    pub fn dim(&self) -> usize {
        self.links.len()
    }

    /// The link of variable `v`.
    pub fn link(&self, v: usize) -> LinkId {
        self.links[v]
    }

    /// The variable of `link`, if it is a candidate.
    pub fn var(&self, link: LinkId) -> Option<usize> {
        self.pos.get(link.index()).copied().flatten()
    }

    /// Expands a reduced rate vector to a full per-topology-link vector
    /// (zero on non-candidate links).
    pub fn expand(&self, reduced: &Vector, num_links: usize) -> Vec<f64> {
        let mut full = vec![0.0; num_links];
        for (v, &l) in self.links.iter().enumerate() {
            full[l.index()] = reduced[v];
        }
        full
    }
}

/// Result of a fused single-pass evaluation
/// ([`PlacementObjective::eval_fused`]): objective value plus the first and
/// second directional derivatives along the probe direction (zero when no
/// direction was given).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedEval {
    /// Objective value `f(p)`.
    pub value: f64,
    /// First directional derivative `∇f(p)·s` (`0.0` without a direction).
    pub derivative: f64,
    /// Second directional derivative `sᵀ∇²f(p)s` (`0.0` without a direction).
    pub curvature: f64,
}

/// The immutable evaluation data of a [`PlacementObjective`] — utilities,
/// weights, CSR rows, rate model — shared by reference with pool workers
/// (`Arc`), so chunk tasks are `'static` without copying the matrix.
struct ObjectiveCore<U> {
    utilities: Vec<U>,
    /// Per-OD nonnegative weights (1 for the paper's formulation; composite
    /// multi-task problems weight their sub-tasks).
    weights: Vec<f64>,
    /// CSR row offsets: OD `k`'s entries span
    /// `row_entries[row_offsets[k]..row_offsets[k + 1]]`.
    row_offsets: Vec<usize>,
    /// Flattened `(variable, r_{k,i})` pairs of all ODs, grouped by OD.
    row_entries: Vec<(usize, f64)>,
    rate_model: RateModel,
    dim: usize,
}

impl<U: Utility> ObjectiveCore<U> {
    fn num_ods(&self) -> usize {
        self.row_offsets.len() - 1
    }

    fn row(&self, k: usize) -> &[(usize, f64)] {
        &self.row_entries[self.row_offsets[k]..self.row_offsets[k + 1]]
    }

    fn effective_rate(&self, k: usize, p: &Vector) -> f64 {
        self.rate_under(self.rate_model, k, p)
    }

    /// OD `k`'s effective rate at `p` under `model`, whatever this core's
    /// own model: both read the same row.
    fn rate_under(&self, model: RateModel, k: usize, p: &Vector) -> f64 {
        match model {
            RateModel::Approximate => self
                .row(k)
                .iter()
                .map(|&(v, r)| r * p[v])
                .sum::<f64>()
                .clamp(0.0, 1.0),
            RateModel::Exact => {
                let miss: f64 = self
                    .row(k)
                    .iter()
                    .map(|&(v, r)| (1.0 - p[v]).powf(r))
                    .product();
                (1.0 - miss).clamp(0.0, 1.0)
            }
        }
    }

    /// Objective value restricted to the OD rows in `ks`.
    fn value_over(&self, ks: Range<usize>, p: &Vector) -> f64 {
        ks.map(|k| self.weights[k] * self.utilities[k].value(self.effective_rate(k, p)))
            .sum()
    }

    /// Adds the gradient contributions of the OD rows in `ks` onto `out`.
    fn accumulate_gradient_over(&self, ks: Range<usize>, p: &Vector, out: &mut [f64]) {
        for k in ks {
            let rho = self.effective_rate(k, p);
            let m1 = self.weights[k] * self.utilities[k].d1(rho);
            match self.rate_model {
                RateModel::Approximate => {
                    for &(v, r) in self.row(k) {
                        out[v] += m1 * r;
                    }
                }
                RateModel::Exact => {
                    // ∂ρ/∂p_v = r·(1−ρ)/(1−p_v)
                    let miss = 1.0 - rho;
                    for &(v, r) in self.row(k) {
                        let denom = (1.0 - p[v]).max(1e-12);
                        out[v] += m1 * r * miss / denom;
                    }
                }
            }
        }
    }

    /// Second directional derivative restricted to the OD rows in `ks`.
    fn curvature_over(&self, ks: Range<usize>, p: &Vector, s: &Vector) -> f64 {
        let mut total = 0.0;
        for k in ks {
            let rho = self.effective_rate(k, p);
            let w = self.weights[k];
            let (m1, m2) = (w * self.utilities[k].d1(rho), w * self.utilities[k].d2(rho));
            match self.rate_model {
                RateModel::Approximate => {
                    let drho: f64 = self.row(k).iter().map(|&(v, r)| r * s[v]).sum();
                    total += m2 * drho * drho;
                }
                RateModel::Exact => {
                    // With m(t) = Π(1−p_v−t·s_v)^r = 1−ρ(t):
                    //   ρ'  = m·σ₁,   ρ'' = m·(σ₂ − σ₁²)
                    // where σ₁ = Σ r·s_v/(1−p_v), σ₂ = Σ r·s_v²/(1−p_v)².
                    let miss = 1.0 - rho;
                    let mut s1 = 0.0;
                    let mut s2 = 0.0;
                    for &(v, r) in self.row(k) {
                        let q = (1.0 - p[v]).max(1e-12);
                        s1 += r * s[v] / q;
                        s2 += r * s[v] * s[v] / (q * q);
                    }
                    let drho = miss * s1;
                    let ddrho = miss * (s2 - s1 * s1);
                    total += m2 * drho * drho + m1 * ddrho;
                }
            }
        }
        total
    }

    /// First directional derivative restricted to the OD rows in `ks`.
    /// Algebraically identical to contracting the row's gradient with `s`,
    /// but without materializing a gradient vector.
    fn dir_derivative_over(&self, ks: Range<usize>, p: &Vector, s: &Vector) -> f64 {
        ks.map(|k| {
            let rho = self.effective_rate(k, p);
            let m1 = self.weights[k] * self.utilities[k].d1(rho);
            match self.rate_model {
                RateModel::Approximate => {
                    m1 * self.row(k).iter().map(|&(v, r)| r * s[v]).sum::<f64>()
                }
                RateModel::Exact => {
                    let miss = 1.0 - rho;
                    m1 * miss
                        * self
                            .row(k)
                            .iter()
                            .map(|&(v, r)| r * s[v] / (1.0 - p[v]).max(1e-12))
                            .sum::<f64>()
                }
            }
        })
        .sum()
    }

    /// Fused single-pass kernel over the OD rows in `ks`: value, `φ'(0)` and
    /// `φ''(0)` along `s` (when given), and the gradient accumulated into
    /// `grad` (when given) — with `ρ_k`, `M'`, `M''` computed **once** per
    /// row instead of once per kernel. Returns `(value, derivative,
    /// curvature)`.
    ///
    /// Memory-traffic argument: for nnz-dominated instances each of the four
    /// separate kernels streams the whole CSR entry array through the cache;
    /// the fused kernel streams it once and amortizes the utility-derivative
    /// evaluations, so a Newton line-search probe (`φ'` + `φ''`) costs one
    /// sweep instead of two, and the solver's per-iteration value+gradient
    /// costs one instead of two.
    fn fused_over(
        &self,
        ks: Range<usize>,
        p: &Vector,
        s: Option<&Vector>,
        mut grad: Option<&mut [f64]>,
    ) -> (f64, f64, f64) {
        let (mut value, mut derivative, mut curvature) = (0.0_f64, 0.0_f64, 0.0_f64);
        for k in ks {
            let rho = self.effective_rate(k, p);
            let w = self.weights[k];
            let u = &self.utilities[k];
            value += w * u.value(rho);
            let m1 = w * u.d1(rho);
            let m2 = w * u.d2(rho);
            match self.rate_model {
                RateModel::Approximate => {
                    let mut drho = 0.0;
                    for &(v, r) in self.row(k) {
                        if let Some(g) = grad.as_deref_mut() {
                            g[v] += m1 * r;
                        }
                        if let Some(s) = s {
                            drho += r * s[v];
                        }
                    }
                    derivative += m1 * drho;
                    curvature += m2 * drho * drho;
                }
                RateModel::Exact => {
                    let miss = 1.0 - rho;
                    let (mut s1, mut s2) = (0.0_f64, 0.0_f64);
                    for &(v, r) in self.row(k) {
                        let q = (1.0 - p[v]).max(1e-12);
                        if let Some(g) = grad.as_deref_mut() {
                            g[v] += m1 * r * miss / q;
                        }
                        if let Some(s) = s {
                            s1 += r * s[v] / q;
                            s2 += r * s[v] * s[v] / (q * q);
                        }
                    }
                    let drho = miss * s1;
                    let ddrho = miss * (s2 - s1 * s1);
                    derivative += m1 * drho;
                    curvature += m2 * drho * drho + m1 * ddrho;
                }
            }
        }
        (value, derivative, curvature)
    }

    /// The line-preparation sweep over the OD rows in `ks`: each row's
    /// unclamped approximate rate `Σ r·p_v` and its slope `Σ r·s_v` along
    /// `s`, both from one pass over the row, written as a pair per row
    /// into `out` (row `ks.start` first).
    fn line_over(&self, ks: Range<usize>, p: &Vector, s: &Vector, out: &mut [f64]) {
        for (k, pair) in ks.zip(out.chunks_exact_mut(2)) {
            let (mut rho, mut slope) = (0.0_f64, 0.0_f64);
            for &(v, r) in self.row(k) {
                rho += r * p[v];
                slope += r * s[v];
            }
            pair[0] = rho;
            pair[1] = slope;
        }
    }

    /// `(φ'(t), φ''(t))` of the approximate model along a prepared line:
    /// `ρ_k(p + t·s) = ρ_k(p) + t·(r_k·s)`, so each row needs only its
    /// pair from [`ObjectiveCore::line_over`] — no trial point, no row walk.
    fn line_derivatives(&self, rows: &[f64], t: f64) -> (f64, f64) {
        let (mut derivative, mut curvature) = (0.0_f64, 0.0_f64);
        for (k, pair) in rows.chunks_exact(2).enumerate() {
            let (rho0, slope) = (pair[0], pair[1]);
            let rho = (rho0 + t * slope).clamp(0.0, 1.0);
            let w = self.weights[k];
            let u = &self.utilities[k];
            derivative += w * u.d1(rho) * slope;
            curvature += w * u.d2(rho) * slope * slope;
        }
        (derivative, curvature)
    }
}

/// The approximate model restricted to one search line
/// ([`PlacementObjective`]'s [`Objective::prepare_line`]): the per-row
/// `(ρ_k(p), r_k·s)` pairs of one sweep at `t = 0` answer every probe.
struct PreparedLine<'a, U> {
    core: &'a ObjectiveCore<U>,
    rows: Vec<f64>,
}

impl<U: Utility> LineProbe for PreparedLine<'_, U> {
    fn derivatives(&mut self, t: f64) -> (f64, f64) {
        self.core.line_derivatives(&self.rows, t)
    }
}

/// Which kernel a pooled chunk task runs.
#[derive(Debug, Clone, Copy)]
enum KernelKind {
    Value,
    DirDerivative,
    Curvature,
    Gradient,
    Fused { grad: bool },
    Line,
}

/// The paper's objective `Σ_k w_k·M_k(ρ_k(p))` over the reduced variables,
/// generic over the per-OD utility type (the paper's [`SreUtility`] by
/// default; any [`Utility`] works — §VI anticipates anomaly-detection and
/// performance-analysis utilities).
pub struct PlacementObjective<U: Utility = SreUtility> {
    core: Arc<ObjectiveCore<U>>,
    parallel: ParallelConfig,
    scratch: ScratchPool,
    /// Resolved worker pool; `None` means every evaluation is serial. Set by
    /// [`PlacementObjective::with_parallel`] (auto, capped at the core
    /// count) or [`PlacementObjective::with_pool`] (explicit).
    pool: Option<EvalPool>,
    /// Whether `pool` was attached explicitly (and must survive later
    /// `with_parallel` calls).
    pool_forced: bool,
    /// The most recent pool failure, kept for diagnosis: the infallible
    /// [`Objective`] surface reports pool errors as NaN results (which the
    /// solver turns into a typed `NonFiniteObjective` error) and parks the
    /// underlying cause here.
    last_pool_error: Mutex<Option<PoolError>>,
    /// Observability sink (disabled by default — a single branch per
    /// evaluation). See [`PlacementObjective::with_recorder`].
    recorder: Recorder,
}

impl PlacementObjective<SreUtility> {
    /// Builds the paper's objective for `task` under the given rate model.
    pub fn new(task: &MeasurementTask, index: &ReducedIndex, rate_model: RateModel) -> Self {
        let utilities: Vec<SreUtility> = task
            .ods()
            .iter()
            .map(|o| SreUtility::new(o.inv_mean_size))
            .collect();
        let rows = task_rows(task, index);
        let weights = vec![1.0; utilities.len()];
        PlacementObjective::from_parts(utilities, weights, rows, rate_model, index.dim())
    }
}

/// The sparse `(variable, r_{k,i})` rows of a task against an index.
pub(crate) fn task_rows(task: &MeasurementTask, index: &ReducedIndex) -> Vec<Vec<(usize, f64)>> {
    let routing = task.routing();
    (0..routing.num_ods())
        .map(|k| {
            routing
                .row(k)
                .iter()
                .filter_map(|&(l, r)| index.var(l).map(|v| (v, r)))
                .collect()
        })
        .collect()
}

impl<U: Utility> PlacementObjective<U> {
    /// Builds an objective from explicit parts: per-OD utilities, weights,
    /// sparse routing rows and the variable count. Used by composite
    /// multi-task problems and custom measurement tasks.
    ///
    /// # Panics
    /// Panics if lengths disagree, a weight is negative, or a row references
    /// a variable ≥ `dim`.
    pub fn from_parts(
        utilities: Vec<U>,
        weights: Vec<f64>,
        rows: Vec<Vec<(usize, f64)>>,
        rate_model: RateModel,
        dim: usize,
    ) -> Self {
        assert_eq!(
            utilities.len(),
            rows.len(),
            "utilities/rows length mismatch"
        );
        assert_eq!(
            utilities.len(),
            weights.len(),
            "utilities/weights length mismatch"
        );
        assert!(weights.iter().all(|&w| w >= 0.0), "weights must be ≥ 0");
        for row in &rows {
            for &(v, r) in row {
                assert!(v < dim, "row references variable {v} ≥ dim {dim}");
                assert!(
                    (0.0..=1.0).contains(&r),
                    "routing fraction {r} out of [0,1]"
                );
            }
        }
        // Flatten to CSR: one contiguous entry array plus row offsets.
        let mut row_offsets = Vec::with_capacity(rows.len() + 1);
        let mut row_entries = Vec::with_capacity(rows.iter().map(Vec::len).sum());
        row_offsets.push(0);
        for row in rows {
            row_entries.extend(row);
            row_offsets.push(row_entries.len());
        }
        PlacementObjective {
            core: Arc::new(ObjectiveCore {
                utilities,
                weights,
                row_offsets,
                row_entries,
                rate_model,
                dim,
            }),
            parallel: ParallelConfig::default(),
            scratch: ScratchPool::default(),
            pool: None,
            pool_forced: false,
            last_pool_error: Mutex::new(None),
            recorder: Recorder::disabled(),
        }
    }

    /// Sets the evaluation fan-out configuration (builder style; the default
    /// is serial) and resolves the worker pool for it: when the config
    /// requests more than one worker for this instance — after the
    /// `min_nnz_parallel` cutoff and a cap at the machine's core count — a
    /// process-wide [`EvalPool`] of that size is attached (created on first
    /// use, shared across objectives). Threads are therefore created once
    /// per configuration, not once per evaluation.
    pub fn with_parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        if !self.pool_forced {
            self.pool = self.auto_pool();
        }
        self
    }

    /// Attaches an explicit worker pool (builder style), bypassing the
    /// core-count cap of [`PlacementObjective::with_parallel`] — the hook
    /// tests and benchmarks use to exercise real multi-worker fan-out on
    /// any machine. The `min_ods_per_thread` / `min_nnz_parallel` cutoffs
    /// of the current [`ParallelConfig`] still apply per call.
    pub fn with_pool(mut self, pool: EvalPool) -> Self {
        self.pool = Some(pool);
        self.pool_forced = true;
        self
    }

    /// The pool serving this instance's parallel path, if any.
    pub fn pool(&self) -> Option<&EvalPool> {
        self.pool.as_ref()
    }

    /// The most recent worker-pool failure, if any. The [`Objective`]
    /// methods are infallible, so a pool failure (worker panic,
    /// disconnected channel) yields NaN results — which the solver reports
    /// as [`nws_solver::SolverError::NonFiniteObjective`] — and the typed
    /// cause is retained here.
    pub fn last_pool_error(&self) -> Option<PoolError> {
        self.last_pool_error
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// Resolves the shared pool the current config warrants for this
    /// instance, or `None` for the serial path.
    fn auto_pool(&self) -> Option<EvalPool> {
        if self.core.row_entries.len() < self.parallel.min_nnz_parallel {
            return None;
        }
        let workers = self
            .parallel
            .workers_for(self.core.num_ods())
            .min(available_cores());
        (workers > 1).then(|| EvalPool::global(workers))
    }

    /// Attaches an observability recorder (builder style; the default is the
    /// disabled no-op sink). With a live recorder, every evaluation bumps
    /// `eval_calls_total` (fused-kernel calls and line preparations
    /// additionally `eval_fused_calls_total`), and the parallel fan-out
    /// records the worker count (`eval_workers` gauge), chunk totals
    /// (`eval_chunks_total`, `pool_tasks_dispatched_total`), worker
    /// park/wake cycles (`pool_wake_cycles_total`) and per-chunk wall time
    /// (`eval_chunk_ms` histogram) — the utilization signal: even chunk
    /// times mean the fan-out is balanced.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The current evaluation fan-out configuration.
    pub fn parallel_config(&self) -> ParallelConfig {
        self.parallel
    }

    /// Number of OD rows.
    pub fn num_ods(&self) -> usize {
        self.core.num_ods()
    }

    /// Total `(variable, fraction)` entries across all rows.
    pub fn nnz(&self) -> usize {
        self.core.row_entries.len()
    }

    /// Number of optimization variables.
    pub fn dim(&self) -> usize {
        self.core.dim
    }

    /// The per-OD utilities.
    pub fn utilities(&self) -> &[U] {
        &self.core.utilities
    }

    /// The per-OD weights.
    pub fn weights(&self) -> &[f64] {
        &self.core.weights
    }

    /// The sparse routing row of OD `k`: `(variable, r_{k,i})` pairs over
    /// the candidate links it traverses.
    pub fn row(&self, k: usize) -> &[(usize, f64)] {
        self.core.row(k)
    }

    /// Effective sampling rate of OD `k` at rates `p` under this objective's
    /// rate model, clamped into `[0, 1]`.
    pub fn effective_rate(&self, k: usize, p: &Vector) -> f64 {
        self.core.effective_rate(k, p)
    }

    /// All per-OD effective rates at `p`.
    pub fn effective_rates(&self, p: &Vector) -> Vec<f64> {
        self.effective_rates_under(self.core.rate_model, p)
    }

    /// All per-OD effective rates at `p` under `model`, which need not be
    /// this objective's own: both models read the same rows, so one
    /// objective reports a plan's approximate and exact rates alike.
    pub fn effective_rates_under(&self, model: RateModel, p: &Vector) -> Vec<f64> {
        (0..self.num_ods())
            .map(|k| self.core.rate_under(model, k, p))
            .collect()
    }
}

impl<U: Utility + Send + Sync + 'static> PlacementObjective<U> {
    /// The per-call fan-out plan: the pool plus the chunk ranges, or `None`
    /// when this evaluation should run serially (no pool attached, instance
    /// below the `min_nnz_parallel` cutoff, or too few rows per worker).
    fn plan(&self) -> Option<(&EvalPool, Vec<Range<usize>>)> {
        let pool = self.pool.as_ref()?;
        let n = self.core.num_ods();
        if self.core.row_entries.len() < self.parallel.min_nnz_parallel {
            return None;
        }
        let by_work = (n / self.parallel.min_ods_per_thread.max(1)).max(1);
        let chunks = pool.threads().min(by_work).min(n.max(1));
        if chunks <= 1 {
            return None;
        }
        let chunk = n.div_ceil(chunks);
        let num_chunks = n.div_ceil(chunk);
        let ranges = (0..num_chunks)
            .map(|w| w * chunk..((w + 1) * chunk).min(n))
            .collect();
        Some((pool, ranges))
    }

    /// Builds the `'static` chunk task for one evaluation: an `Arc` of the
    /// shared core plus owned copies of the O(dim) inputs `p`/`s` — cheap
    /// next to the O(nnz) row sweep, and what keeps the engine free of
    /// `unsafe` lifetime plumbing under `forbid(unsafe_code)`.
    fn chunk_task(&self, kind: KernelKind, p: &Vector, s: Option<&Vector>) -> ChunkTask {
        let core = Arc::clone(&self.core);
        let p = p.clone();
        let s = s.cloned();
        let rec = self.recorder.clone();
        let enabled = rec.is_enabled();
        Arc::new(move |range: Range<usize>, scratch: &mut [f64]| {
            let t0 = enabled.then(Instant::now);
            let out = match kind {
                KernelKind::Value => ChunkOut {
                    value: core.value_over(range, &p),
                    ..ChunkOut::default()
                },
                KernelKind::DirDerivative => ChunkOut {
                    derivative: core.dir_derivative_over(range, &p, s.as_ref().expect("direction")),
                    ..ChunkOut::default()
                },
                KernelKind::Curvature => ChunkOut {
                    curvature: core.curvature_over(range, &p, s.as_ref().expect("direction")),
                    ..ChunkOut::default()
                },
                KernelKind::Gradient => {
                    core.accumulate_gradient_over(range, &p, scratch);
                    ChunkOut {
                        grad_in_scratch: true,
                        ..ChunkOut::default()
                    }
                }
                KernelKind::Line => {
                    core.line_over(range, &p, s.as_ref().expect("direction"), scratch);
                    ChunkOut::default()
                }
                KernelKind::Fused { grad } => {
                    let gslice = if grad { Some(&mut *scratch) } else { None };
                    let (value, derivative, curvature) =
                        core.fused_over(range, &p, s.as_ref(), gslice);
                    ChunkOut {
                        value,
                        derivative,
                        curvature,
                        grad_in_scratch: grad,
                    }
                }
            };
            if let Some(t0) = t0 {
                rec.observe("eval_chunk_ms", t0.elapsed().as_secs_f64() * 1e3);
            }
            out
        })
    }

    /// Records the fan-out shape of one parallel evaluation.
    fn record_fanout(&self, num_chunks: usize) {
        self.recorder.gauge_set("eval_workers", num_chunks as f64);
        self.recorder
            .counter_add("eval_chunks_total", num_chunks as u64);
        self.recorder
            .counter_add("pool_tasks_dispatched_total", num_chunks as u64);
    }

    /// Dispatches chunk tasks to the pool, recording wake cycles. The wake
    /// delta is read off the shared pool's counters, so concurrent
    /// dispatchers may inflate each other's attribution slightly — the
    /// totals stay exact.
    fn run_pooled(
        &self,
        pool: &EvalPool,
        ranges: &[Range<usize>],
        task: ChunkTask,
        scratch_for: impl FnMut(usize) -> Vec<f64>,
    ) -> Result<Vec<(ChunkOut, Vec<f64>)>, PoolError> {
        self.record_fanout(ranges.len());
        let wakes_before = self.recorder.is_enabled().then(|| pool.stats().wakes);
        let result = pool.run(ranges, task, scratch_for);
        if let Some(before) = wakes_before {
            self.recorder.counter_add(
                "pool_wake_cycles_total",
                pool.stats().wakes.saturating_sub(before),
            );
        }
        result
    }

    /// Registers a pool failure and returns the NaN the infallible
    /// [`Objective`] surface reports (the solver converts it into a typed
    /// [`nws_solver::SolverError::NonFiniteObjective`]).
    fn poison(&self, err: PoolError) -> f64 {
        self.recorder.counter_add("eval_pool_errors_total", 1);
        *self
            .last_pool_error
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(err);
        f64::NAN
    }

    /// Reduces one scalar kernel over all OD rows, fanning out to the pool
    /// when the plan warrants it. Chunk partials are summed in chunk order,
    /// so the result is deterministic for a fixed worker count.
    fn eval_scalar(&self, kind: KernelKind, p: &Vector, s: Option<&Vector>) -> f64 {
        self.recorder.counter_add("eval_calls_total", 1);
        let n = self.core.num_ods();
        let Some((pool, ranges)) = self.plan() else {
            return match kind {
                KernelKind::Value => self.core.value_over(0..n, p),
                KernelKind::DirDerivative => {
                    self.core
                        .dir_derivative_over(0..n, p, s.expect("direction"))
                }
                KernelKind::Curvature => self.core.curvature_over(0..n, p, s.expect("direction")),
                KernelKind::Gradient | KernelKind::Fused { .. } | KernelKind::Line => {
                    unreachable!("scalar kernels only")
                }
            };
        };
        match self.run_pooled(pool, &ranges, self.chunk_task(kind, p, s), |_| Vec::new()) {
            Ok(outs) => outs
                .iter()
                .map(|(o, _)| match kind {
                    KernelKind::Value => o.value,
                    KernelKind::DirDerivative => o.derivative,
                    KernelKind::Curvature => o.curvature,
                    KernelKind::Gradient | KernelKind::Fused { .. } | KernelKind::Line => {
                        unreachable!("scalar kernels only")
                    }
                })
                .sum(),
            Err(err) => self.poison(err),
        }
    }

    /// Writes the full gradient into `out` (length `dim`), reusing pooled
    /// per-chunk scratch buffers in the parallel path.
    fn gradient_into_slice(&self, p: &Vector, out: &mut [f64]) {
        self.recorder.counter_add("eval_calls_total", 1);
        out.fill(0.0);
        let n = self.core.num_ods();
        let Some((pool, ranges)) = self.plan() else {
            self.core.accumulate_gradient_over(0..n, p, out);
            return;
        };
        let dim = self.core.dim;
        let task = self.chunk_task(KernelKind::Gradient, p, None);
        match self.run_pooled(pool, &ranges, task, |_| self.scratch.take(dim)) {
            Ok(outs) => {
                // Merge in chunk order — deterministic for a fixed worker count.
                for (_, buf) in outs {
                    for (o, b) in out.iter_mut().zip(&buf) {
                        *o += b;
                    }
                    self.scratch.put(buf);
                }
            }
            Err(err) => {
                self.poison(err);
                out.fill(f64::NAN);
            }
        }
    }

    /// Fused single-CSR-pass evaluation: the objective value, the first and
    /// second directional derivatives along `s` (when given), and the full
    /// gradient written into `grad` (when given) — all from **one** sweep
    /// over the rows, with `ρ_k` and the utility derivatives computed once
    /// per row. The exact rate model's line-search probes and the solve
    /// loop's value+gradient iterations go through it.
    pub fn eval_fused(
        &self,
        p: &Vector,
        s: Option<&Vector>,
        mut grad: Option<&mut Vector>,
    ) -> FusedEval {
        self.recorder.counter_add("eval_calls_total", 1);
        self.recorder.counter_add("eval_fused_calls_total", 1);
        let n = self.core.num_ods();
        let dim = self.core.dim;
        if let Some(g) = grad.as_mut() {
            if g.len() != dim {
                **g = Vector::zeros(dim);
            } else {
                g.as_mut_slice().fill(0.0);
            }
        }
        let Some((pool, ranges)) = self.plan() else {
            let gslice = grad.map(|g| &mut g.as_mut_slice()[..]);
            let (value, derivative, curvature) = self.core.fused_over(0..n, p, s, gslice);
            return FusedEval {
                value,
                derivative,
                curvature,
            };
        };
        let want_grad = grad.is_some();
        let task = self.chunk_task(KernelKind::Fused { grad: want_grad }, p, s);
        let scratch_len = if want_grad { dim } else { 0 };
        match self.run_pooled(pool, &ranges, task, |_| self.scratch.take(scratch_len)) {
            Ok(outs) => {
                let (mut value, mut derivative, mut curvature) = (0.0, 0.0, 0.0);
                for (out, buf) in outs {
                    value += out.value;
                    derivative += out.derivative;
                    curvature += out.curvature;
                    if out.grad_in_scratch {
                        if let Some(g) = grad.as_mut() {
                            for (o, b) in g.as_mut_slice().iter_mut().zip(&buf) {
                                *o += b;
                            }
                        }
                    }
                    self.scratch.put(buf);
                }
                FusedEval {
                    value,
                    derivative,
                    curvature,
                }
            }
            Err(err) => {
                let nan = self.poison(err);
                if let Some(g) = grad.as_mut() {
                    g.as_mut_slice().fill(nan);
                }
                FusedEval {
                    value: nan,
                    derivative: nan,
                    curvature: nan,
                }
            }
        }
    }

    /// The line-preparation sweep of the approximate model: every row's
    /// `(ρ_k(p), r_k·s)` pair ([`ObjectiveCore::line_over`]), fanned out
    /// like any other evaluation and counted as one fused call. A pool
    /// failure yields NaN pairs.
    fn line_rows(&self, p: &Vector, s: &Vector) -> Vec<f64> {
        self.recorder.counter_add("eval_calls_total", 1);
        self.recorder.counter_add("eval_fused_calls_total", 1);
        let n = self.core.num_ods();
        let mut rows = vec![0.0; 2 * n];
        let Some((pool, ranges)) = self.plan() else {
            self.core.line_over(0..n, p, s, &mut rows);
            return rows;
        };
        let task = self.chunk_task(KernelKind::Line, p, Some(s));
        match self.run_pooled(pool, &ranges, task, |slot| {
            self.scratch.take(2 * ranges[slot].len())
        }) {
            Ok(outs) => {
                for (range, (_, buf)) in ranges.iter().zip(outs) {
                    rows[2 * range.start..2 * range.end].copy_from_slice(&buf);
                    self.scratch.put(buf);
                }
            }
            Err(err) => rows.fill(self.poison(err)),
        }
        rows
    }
}

impl<U: Utility + Send + Sync + 'static> Objective for PlacementObjective<U> {
    fn value(&self, p: &Vector) -> f64 {
        self.eval_scalar(KernelKind::Value, p, None)
    }

    fn gradient(&self, p: &Vector) -> Vector {
        let mut g = Vector::zeros(self.core.dim);
        self.gradient_into_slice(p, g.as_mut_slice());
        g
    }

    fn curvature_along(&self, p: &Vector, s: &Vector) -> f64 {
        self.eval_scalar(KernelKind::Curvature, p, Some(s))
    }

    fn gradient_into(&self, p: &Vector, out: &mut Vector) {
        if out.len() != self.core.dim {
            *out = Vector::zeros(self.core.dim);
        }
        self.gradient_into_slice(p, out.as_mut_slice());
    }

    fn directional_derivative(&self, p: &Vector, s: &Vector) -> f64 {
        self.eval_scalar(KernelKind::DirDerivative, p, Some(s))
    }

    fn derivatives_along(&self, p: &Vector, s: &Vector) -> (f64, f64) {
        let fused = self.eval_fused(p, Some(s), None);
        (fused.derivative, fused.curvature)
    }

    fn value_and_gradient_into(&self, p: &Vector, out: &mut Vector) -> f64 {
        self.eval_fused(p, None, Some(out)).value
    }

    /// The approximate model's rates are linear in `p`, so one sweep at
    /// `t = 0` prepares the whole line; the exact model probes trial
    /// points.
    fn prepare_line<'a>(&'a self, p: &'a Vector, s: &'a Vector) -> Box<dyn LineProbe + 'a> {
        match self.core.rate_model {
            RateModel::Approximate => Box::new(PreparedLine {
                core: &self.core,
                rows: self.line_rows(p, s),
            }),
            RateModel::Exact => Box::new(TrialPoints::new(self, p, s)),
        }
    }
}

/// Builds the reduced [`BoxLinearProblem`] (bounds `α`, loads `U`, capacity
/// `θ`) for `task`.
///
/// # Errors
/// Propagates [`nws_solver::SolverError`] — notably `Infeasible` when
/// `θ > Σ α_i·U_i` over the candidate links, i.e. the capacity exceeds what
/// the candidate monitors could ever sample.
pub fn build_problem(
    task: &MeasurementTask,
    index: &ReducedIndex,
) -> Result<BoxLinearProblem, CoreError> {
    let upper: Vector = (0..index.dim())
        .map(|v| task.alpha()[index.link(v).index()])
        .collect();
    let loads: Vector = (0..index.dim())
        .map(|v| task.link_loads()[index.link(v).index()])
        .collect();
    Ok(BoxLinearProblem::new(upper, loads, task.theta())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_routing::OdPair;
    use nws_topo::geant;

    fn small_task() -> MeasurementTask {
        let topo = geant();
        let janet = topo.require_node("JANET").unwrap();
        let nl = topo.require_node("NL").unwrap();
        let lu = topo.require_node("LU").unwrap();
        MeasurementTask::builder(topo)
            .track("JANET-NL", OdPair::new(janet, nl), 9e6)
            .track("JANET-LU", OdPair::new(janet, lu), 6e3)
            .theta(50_000.0)
            .build()
            .unwrap()
    }

    /// A config that disables both auto-serial cutoffs, so an explicitly
    /// attached pool is actually exercised on toy instances.
    fn force_parallel(threads: usize) -> ParallelConfig {
        ParallelConfig {
            threads,
            min_ods_per_thread: 1,
            min_nnz_parallel: 0,
        }
    }

    #[test]
    fn reduced_index_roundtrip() {
        let task = small_task();
        let idx = ReducedIndex::new(&task);
        assert_eq!(idx.dim(), task.candidate_links().len());
        for v in 0..idx.dim() {
            assert_eq!(idx.var(idx.link(v)), Some(v));
        }
        // Access link is not in the index.
        let access = nws_topo::janet_access_link(task.topology());
        assert_eq!(idx.var(access), None);

        let reduced: Vector = (0..idx.dim()).map(|v| v as f64 + 1.0).collect();
        let full = idx.expand(&reduced, task.topology().num_links());
        assert_eq!(full.len(), task.topology().num_links());
        for v in 0..idx.dim() {
            assert_eq!(full[idx.link(v).index()], v as f64 + 1.0);
        }
        assert_eq!(full[access.index()], 0.0);
    }

    #[test]
    fn effective_rates_models_agree_at_low_rates() {
        let task = small_task();
        let idx = ReducedIndex::new(&task);
        let approx = PlacementObjective::new(&task, &idx, RateModel::Approximate);
        let exact = PlacementObjective::new(&task, &idx, RateModel::Exact);
        let p = Vector::filled(idx.dim(), 1e-3);
        for k in 0..2 {
            let ra = approx.effective_rate(k, &p);
            let re = exact.effective_rate(k, &p);
            // Union bound, modulo one-ulp float noise on single-link paths.
            assert!(ra >= re - 1e-12, "union bound: {ra} < {re}");
            assert!((ra - re) / re < 1e-2, "k={k}: {ra} vs {re}");
        }
    }

    #[test]
    fn gradient_matches_finite_differences_both_models() {
        let task = small_task();
        let idx = ReducedIndex::new(&task);
        for model in [RateModel::Approximate, RateModel::Exact] {
            let obj = PlacementObjective::new(&task, &idx, model);
            let p: Vector = (0..idx.dim()).map(|v| 1e-3 * (v as f64 + 1.0)).collect();
            let g = obj.gradient(&p);
            for v in 0..idx.dim() {
                let h = 1e-9;
                let mut pp = p.clone();
                pp[v] += h;
                let mut pm = p.clone();
                pm[v] -= h;
                let fd = (obj.value(&pp) - obj.value(&pm)) / (2.0 * h);
                assert!(
                    (fd - g[v]).abs() <= 1e-4 * g[v].abs().max(1.0),
                    "{model:?} var {v}: fd {fd} vs g {}",
                    g[v]
                );
            }
        }
    }

    #[test]
    fn curvature_matches_finite_differences_both_models() {
        let task = small_task();
        let idx = ReducedIndex::new(&task);
        for model in [RateModel::Approximate, RateModel::Exact] {
            let obj = PlacementObjective::new(&task, &idx, model);
            let p: Vector = (0..idx.dim()).map(|v| 2e-3 * (v as f64 + 1.0)).collect();
            let s: Vector = (0..idx.dim())
                .map(|v| if v % 2 == 0 { 1e-3 } else { -5e-4 })
                .collect();
            let c = obj.curvature_along(&p, &s);
            let h = 1e-3;
            let at = |t: f64| {
                let mut x = p.clone();
                x.axpy(t, &s);
                obj.value(&x)
            };
            let fd = (at(h) - 2.0 * at(0.0) + at(-h)) / (h * h);
            assert!(
                (fd - c).abs() <= 1e-3 * c.abs().max(1e-9),
                "{model:?}: fd {fd} vs curvature {c}"
            );
        }
    }

    #[test]
    fn curvature_negative_in_operating_regime() {
        let task = small_task();
        let idx = ReducedIndex::new(&task);
        for model in [RateModel::Approximate, RateModel::Exact] {
            let obj = PlacementObjective::new(&task, &idx, model);
            let p = Vector::filled(idx.dim(), 5e-3);
            let s = Vector::filled(idx.dim(), 1.0);
            assert!(obj.curvature_along(&p, &s) < 0.0, "{model:?}");
        }
    }

    #[test]
    fn workers_capped_by_row_count() {
        let cfg = ParallelConfig {
            threads: 8,
            min_ods_per_thread: 10,
            ..ParallelConfig::default()
        };
        assert_eq!(cfg.workers_for(5), 1, "too little work: serial");
        assert_eq!(cfg.workers_for(25), 2);
        assert_eq!(cfg.workers_for(10_000), 8);
        assert_eq!(ParallelConfig::default().workers_for(1_000_000), 1);
        assert!(ParallelConfig::with_threads(0).workers_for(1 << 20) >= 1);
    }

    #[test]
    fn nnz_cutoff_keeps_tiny_instances_serial() {
        let task = small_task();
        let idx = ReducedIndex::new(&task);
        // Defaults: GEANT-sized nnz sits far below `min_nnz_parallel`, so
        // even an 8-thread request resolves to the serial path.
        let obj = PlacementObjective::new(&task, &idx, RateModel::Approximate)
            .with_parallel(ParallelConfig::with_threads(8));
        assert!(obj.nnz() < ParallelConfig::default().min_nnz_parallel);
        assert!(obj.pool().is_none(), "tiny instance must stay serial");
        // An explicitly attached pool still respects the per-call cutoff:
        // with the default config it is never actually used.
        let forced = PlacementObjective::new(&task, &idx, RateModel::Approximate)
            .with_pool(EvalPool::new(2));
        let p = Vector::filled(idx.dim(), 1e-3);
        let dispatches_before = forced.pool().unwrap().stats().dispatches;
        forced.value(&p);
        assert_eq!(forced.pool().unwrap().stats().dispatches, dispatches_before);
    }

    #[test]
    fn parallel_evaluation_matches_serial() {
        let task = small_task();
        let idx = ReducedIndex::new(&task);
        let p: Vector = (0..idx.dim()).map(|v| 2e-3 * (v as f64 + 1.0)).collect();
        let s: Vector = (0..idx.dim())
            .map(|v| if v % 2 == 0 { 1.0 } else { -0.5 })
            .collect();
        for model in [RateModel::Approximate, RateModel::Exact] {
            let serial = PlacementObjective::new(&task, &idx, model);
            for threads in [2, 4, 8] {
                let par = PlacementObjective::new(&task, &idx, model)
                    .with_parallel(force_parallel(threads))
                    .with_pool(EvalPool::new(threads));
                let (v0, v1) = (serial.value(&p), par.value(&p));
                assert!(
                    (v0 - v1).abs() <= 1e-12 * v0.abs().max(1.0),
                    "{model:?} x{threads}: value {v0} vs {v1}"
                );
                let (g0, g1) = (serial.gradient(&p), par.gradient(&p));
                for v in 0..idx.dim() {
                    assert!(
                        (g0[v] - g1[v]).abs() <= 1e-12 * g0[v].abs().max(1.0),
                        "{model:?} x{threads} var {v}: {} vs {}",
                        g0[v],
                        g1[v]
                    );
                }
                let (c0, c1) = (serial.curvature_along(&p, &s), par.curvature_along(&p, &s));
                assert!(
                    (c0 - c1).abs() <= 1e-12 * c0.abs().max(1.0),
                    "{model:?} x{threads}: curvature {c0} vs {c1}"
                );
            }
        }
    }

    #[test]
    fn fused_kernel_matches_separate_kernels() {
        let task = small_task();
        let idx = ReducedIndex::new(&task);
        let p: Vector = (0..idx.dim()).map(|v| 2e-3 * (v as f64 + 1.0)).collect();
        let s: Vector = (0..idx.dim())
            .map(|v| if v % 3 == 0 { 1.0 } else { -0.4 })
            .collect();
        for model in [RateModel::Approximate, RateModel::Exact] {
            for threads in [1, 4] {
                let obj = if threads == 1 {
                    PlacementObjective::new(&task, &idx, model)
                } else {
                    PlacementObjective::new(&task, &idx, model)
                        .with_parallel(force_parallel(threads))
                        .with_pool(EvalPool::new(threads))
                };
                let mut grad = Vector::zeros(idx.dim());
                let fused = obj.eval_fused(&p, Some(&s), Some(&mut grad));
                let tol = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0);
                assert!(
                    tol(fused.value, obj.value(&p)),
                    "{model:?} x{threads} value"
                );
                assert!(
                    tol(fused.derivative, obj.directional_derivative(&p, &s)),
                    "{model:?} x{threads} derivative: {} vs {}",
                    fused.derivative,
                    obj.directional_derivative(&p, &s)
                );
                assert!(
                    tol(fused.curvature, obj.curvature_along(&p, &s)),
                    "{model:?} x{threads} curvature"
                );
                let g = obj.gradient(&p);
                for v in 0..idx.dim() {
                    assert!(tol(grad[v], g[v]), "{model:?} x{threads} grad var {v}");
                }
                // Trait-level fused entry points agree too.
                let (d, c) = obj.derivatives_along(&p, &s);
                assert!(tol(d, fused.derivative) && tol(c, fused.curvature));
                let mut g2 = Vector::zeros(idx.dim());
                let v2 = obj.value_and_gradient_into(&p, &mut g2);
                assert!(tol(v2, fused.value));
                assert_eq!(g2, obj.gradient(&p));
            }
        }
    }

    /// One random OD term: sparse row, weight, SRE utility constant.
    type OdSpec = (Vec<(usize, f64)>, f64, f64);

    /// A random objective plus a point `p` in the box `[0, 0.6]^dim`, a
    /// direction `s` and a step fraction. One extra OD spans every variable
    /// at `r = 1` and the first two rates start above 0.51, so its
    /// approximate rate starts clamped at 1; random rows may cross 1 along
    /// the line too.
    fn line_case(
    ) -> impl proptest::strategy::Strategy<Value = (usize, Vec<OdSpec>, Vec<f64>, Vec<f64>, f64)>
    {
        use proptest::prelude::*;
        (2usize..16).prop_flat_map(|dim| {
            (
                Just(dim),
                prop::collection::vec(
                    (
                        prop::collection::vec((0..dim, 0.05f64..1.0), 1..6),
                        0.1f64..2.0,
                        1e-6f64..1e-2,
                    ),
                    1..24,
                ),
                prop::collection::vec(0.0f64..0.6, dim..=dim),
                prop::collection::vec(-1.0f64..1.0, dim..=dim),
                0.0f64..1.0,
            )
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The prepared line answers every probe like the trial point
        /// `p + t·s` does, and preparing the approximate model's line costs
        /// one fused sweep (the exact model's trial points one per probe).
        #[test]
        fn prepared_line_matches_trial_point_probes(
            (dim, mut ods, mut p, s, frac) in line_case()
        ) {
            ods.push(((0..dim).map(|v| (v, 1.0)).collect(), 1.0, 1e-3));
            p[0] = 0.51 + 0.04 * frac;
            p[1] = 0.55 - 0.04 * frac;
            let alpha = 0.6;
            let t_max = (0..dim)
                .filter_map(|v| match s[v] {
                    x if x > 0.0 => Some((alpha - p[v]) / x),
                    x if x < 0.0 => Some(-p[v] / x),
                    _ => None,
                })
                .fold(10.0, f64::min);
            let (p, s) = (Vector::from(p), Vector::from(s));
            let mut ts = vec![frac * t_max];
            ts.extend((0..=5).map(|i| t_max * i as f64 / 5.0));
            for model in [RateModel::Approximate, RateModel::Exact] {
                for pooled in [false, true] {
                    let rec = Recorder::enabled();
                    let obj = PlacementObjective::from_parts(
                        ods.iter().map(|&(_, _, c)| SreUtility::new(c)).collect(),
                        ods.iter().map(|&(_, w, _)| w).collect(),
                        ods.iter().map(|(row, _, _)| row.clone()).collect(),
                        model,
                        dim,
                    )
                    .with_recorder(rec.clone());
                    let obj = if pooled {
                        obj.with_parallel(force_parallel(2)).with_pool(EvalPool::new(2))
                    } else {
                        obj
                    };
                    let fused = || rec.snapshot().counter("eval_fused_calls_total").unwrap_or(0);
                    let (sweep, per_probe) = match model {
                        RateModel::Approximate => (1, 0),
                        RateModel::Exact => (0, 1),
                    };
                    let before = fused();
                    let mut line = obj.prepare_line(&p, &s);
                    proptest::prop_assert_eq!(fused() - before, sweep, "{:?} preparation", model);
                    for &t in &ts {
                        let before = fused();
                        let (d, c) = line.derivatives(t);
                        proptest::prop_assert_eq!(fused() - before, per_probe, "{:?} probe", model);
                        let mut x = p.clone();
                        x.axpy(t, &s);
                        let (d_ref, c_ref) = obj.derivatives_along(&x, &s);
                        let close = |a: f64, b: f64| (a - b).abs() <= 1e-10 * a.abs().max(b.abs());
                        proptest::prop_assert!(
                            close(d, d_ref) && close(c, c_ref),
                            "{:?} pooled={} t={}: ({}, {}) vs ({}, {})",
                            model, pooled, t, d, c, d_ref, c_ref
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gradient_into_reuses_buffer_and_matches() {
        let task = small_task();
        let idx = ReducedIndex::new(&task);
        for model in [RateModel::Approximate, RateModel::Exact] {
            let obj = PlacementObjective::new(&task, &idx, model)
                .with_parallel(force_parallel(4))
                .with_pool(EvalPool::new(4));
            let mut out = Vector::zeros(idx.dim());
            for step in 1..4 {
                let p = Vector::filled(idx.dim(), 1e-3 * step as f64);
                obj.gradient_into(&p, &mut out);
                assert_eq!(out, obj.gradient(&p), "{model:?} step {step}");
            }
            // Wrong-size buffers are resized rather than rejected.
            let mut small = Vector::zeros(1);
            let p = Vector::filled(idx.dim(), 1e-3);
            obj.gradient_into(&p, &mut small);
            assert_eq!(small.len(), idx.dim());
        }
    }

    #[test]
    fn directional_derivative_matches_gradient_contraction() {
        let task = small_task();
        let idx = ReducedIndex::new(&task);
        let p: Vector = (0..idx.dim()).map(|v| 1e-3 * (v as f64 + 1.0)).collect();
        let s: Vector = (0..idx.dim()).map(|v| (v as f64) - 3.0).collect();
        for model in [RateModel::Approximate, RateModel::Exact] {
            let obj = PlacementObjective::new(&task, &idx, model);
            let direct = obj.directional_derivative(&p, &s);
            let contracted = obj.gradient(&p).dot(&s);
            assert!(
                (direct - contracted).abs() <= 1e-10 * contracted.abs().max(1.0),
                "{model:?}: {direct} vs {contracted}"
            );
        }
    }

    #[test]
    fn csr_rows_match_task_traversals() {
        let task = small_task();
        let idx = ReducedIndex::new(&task);
        let obj = PlacementObjective::new(&task, &idx, RateModel::Approximate);
        assert_eq!(obj.num_ods(), task.ods().len());
        assert_eq!(obj.dim(), idx.dim());
        let total: usize = (0..obj.num_ods()).map(|k| obj.row(k).len()).sum();
        assert_eq!(obj.nnz(), total);
        for k in 0..obj.num_ods() {
            for &(v, r) in obj.row(k) {
                let link = idx.link(v);
                assert!(task.routing().traverses(k, link));
                assert_eq!(r, task.routing().entry(k, link));
            }
        }
    }

    #[test]
    fn problem_construction_and_infeasibility() {
        let task = small_task();
        let idx = ReducedIndex::new(&task);
        let pb = build_problem(&task, &idx).unwrap();
        assert_eq!(pb.dim(), idx.dim());
        assert_eq!(pb.eq_rhs(), 50_000.0);

        // θ larger than all candidate loads combined → infeasible.
        let total: f64 = task
            .candidate_links()
            .iter()
            .map(|l| task.link_loads()[l.index()])
            .sum();
        let too_big = task.with_theta(total * 1.01).unwrap();
        let err = build_problem(&too_big, &ReducedIndex::new(&too_big)).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Solver(nws_solver::SolverError::Infeasible { .. })
        ));
    }
}
