//! Translation of a [`MeasurementTask`] into a solver problem.
//!
//! The objective stores its per-OD sparse routing rows in CSR (compressed
//! sparse row) form — one flat `(variable, fraction)` array plus row offsets
//! — and evaluates them with one kernel: a single sweep over the rows
//! produces the value, the gradient and both directional derivatives
//! ([`PlacementObjective::eval_fused`]), and every other evaluation is the
//! same sweep with the parts it does not need left out. Under the
//! approximate rate model a line search costs one sweep in all: it records
//! each row's `(ρ_k, r_k·s)` at `t = 0`, and every Newton probe is answered
//! from those scalars ([`Objective::prepare_line`]). The same model's
//! curvature `−∇²f = Rᵀ·D·R` is prepared by one sweep that records each
//! row's `D_k` ([`Objective::prepare_curvature`]).

use crate::{CoreError, MeasurementTask, SreUtility, Utility};
use nws_linalg::Vector;
use nws_obs::Recorder;
use nws_solver::{BoxLinearProblem, CurvatureProbe, LineProbe, Objective, TrialPoints};
use nws_topo::LinkId;

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
/// weights, CSR rows, rate model — which a prepared line borrows.
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

    /// The objective's one evaluation kernel, a single sweep over the OD
    /// rows: the value, `φ'(0)` and `φ''(0)` along `s` (when given), and the
    /// gradient accumulated into `grad` (when given), with `ρ_k`, `M'` and
    /// `M''` computed once per row. Returns `(value, derivative,
    /// curvature)`.
    ///
    /// Every evaluation goes through it, from the solve loop's
    /// value+gradient to a single `value` or `curvature_along`. It is
    /// inlined into each caller, so each call shape compiles to its own
    /// loop: with `s` or `grad` absent that part of the sweep is dropped,
    /// and so are the utility terms whose result the caller discards.
    #[inline(always)]
    fn fused_over(
        &self,
        p: &Vector,
        s: Option<&Vector>,
        mut grad: Option<&mut [f64]>,
    ) -> (f64, f64, f64) {
        let (mut value, mut derivative, mut curvature) = (0.0_f64, 0.0_f64, 0.0_f64);
        for k in 0..self.num_ods() {
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
                    // ∂ρ/∂p_v = r·(1−ρ)/(1−p_v). With m(t) = Π(1−p_v−t·s_v)^r
                    // = 1−ρ(t): ρ' = m·σ₁ and ρ'' = m·(σ₂ − σ₁²), where
                    // σ₁ = Σ r·s_v/(1−p_v) and σ₂ = Σ r·s_v²/(1−p_v)².
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

    /// The line-preparation sweep: each row's unclamped approximate rate
    /// `Σ r·p_v` and its slope `Σ r·s_v` along `s`, both from one pass over
    /// the row, as a pair per row (row 0 first).
    fn line_over(&self, p: &Vector, s: &Vector) -> Vec<f64> {
        let mut rows = Vec::with_capacity(2 * self.num_ods());
        for k in 0..self.num_ods() {
            let (mut rho, mut slope) = (0.0_f64, 0.0_f64);
            for &(v, r) in self.row(k) {
                rho += r * p[v];
                slope += r * s[v];
            }
            rows.extend([rho, slope]);
        }
        rows
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

/// The approximate model's curvature at one point
/// ([`PlacementObjective`]'s [`Objective::prepare_curvature`]):
/// `−∇²f(p) = Rᵀ·D·R` with `D_k = −w_k·M″_k(ρ_k(p)) ≥ 0`, so a product
/// and the diagonal each cost one pass over the rows.
struct PreparedCurvature<'a, U> {
    core: &'a ObjectiveCore<U>,
    /// `D_k` per OD row.
    d: Vec<f64>,
}

impl<U: Utility> CurvatureProbe for PreparedCurvature<'_, U> {
    fn apply(&self, v: &Vector, out: &mut Vector) {
        out.as_mut_slice().fill(0.0);
        for (k, &dk) in self.d.iter().enumerate() {
            let row = self.core.row(k);
            let rv: f64 = row.iter().map(|&(i, r)| r * v[i]).sum();
            if rv != 0.0 {
                let scaled = dk * rv;
                for &(i, r) in row {
                    out[i] += scaled * r;
                }
            }
        }
    }

    fn diagonal(&self) -> Vector {
        let mut diag = Vector::zeros(self.core.dim);
        for (k, &dk) in self.d.iter().enumerate() {
            for &(i, r) in self.core.row(k) {
                diag[i] += dk * r * r;
            }
        }
        diag
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

/// The paper's objective `Σ_k w_k·M_k(ρ_k(p))` over the reduced variables,
/// generic over the per-OD utility type (the paper's [`SreUtility`] by
/// default; any [`Utility`] works — §VI anticipates anomaly-detection and
/// performance-analysis utilities).
pub struct PlacementObjective<U: Utility = SreUtility> {
    core: ObjectiveCore<U>,
    /// Observability sink (disabled by default — a single branch per
    /// evaluation). See [`PlacementObjective::with_recorder`].
    recorder: Recorder,
}

impl PlacementObjective<SreUtility> {
    /// Builds the paper's objective for `task` under the given rate model.
    ///
    /// The CSR arrays are filled straight from the task's routing rows,
    /// with no per-OD row and none of [`PlacementObjective::from_parts`]'s
    /// checks: a task's routing fractions lie in `(0, 1]` and `index` maps
    /// its links to variables below `index.dim()` by construction.
    pub fn new(task: &MeasurementTask, index: &ReducedIndex, rate_model: RateModel) -> Self {
        let utilities: Vec<SreUtility> = task
            .ods()
            .iter()
            .map(|o| SreUtility::new(o.inv_mean_size))
            .collect();
        let routing = task.routing();
        let mut row_offsets = Vec::with_capacity(routing.num_ods() + 1);
        let mut row_entries =
            Vec::with_capacity((0..routing.num_ods()).map(|k| routing.row(k).len()).sum());
        row_offsets.push(0);
        for k in 0..routing.num_ods() {
            row_entries.extend(
                routing
                    .row(k)
                    .iter()
                    .filter_map(|&(l, r)| index.var(l).map(|v| (v, r))),
            );
            row_offsets.push(row_entries.len());
        }
        PlacementObjective {
            core: ObjectiveCore {
                weights: vec![1.0; utilities.len()],
                utilities,
                row_offsets,
                row_entries,
                rate_model,
                dim: index.dim(),
            },
            recorder: Recorder::disabled(),
        }
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
            core: ObjectiveCore {
                utilities,
                weights,
                row_offsets,
                row_entries,
                rate_model,
                dim,
            },
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches an observability recorder (builder style; the default is the
    /// disabled no-op sink). With a live recorder, every evaluation bumps
    /// `eval_calls_total`, and fused-kernel calls and line preparations
    /// additionally `eval_fused_calls_total`.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
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
        grad: Option<&mut Vector>,
    ) -> FusedEval {
        self.recorder.counter_add("eval_calls_total", 1);
        self.recorder.counter_add("eval_fused_calls_total", 1);
        let grad = grad.map(|g| self.zeroed(g));
        let (value, derivative, curvature) = self.core.fused_over(p, s, grad);
        FusedEval {
            value,
            derivative,
            curvature,
        }
    }

    /// `out` as `dim` zeros, its buffer reused when the length fits.
    fn zeroed<'g>(&self, out: &'g mut Vector) -> &'g mut [f64] {
        if out.len() == self.core.dim {
            out.as_mut_slice().fill(0.0);
        } else {
            *out = Vector::zeros(self.core.dim);
        }
        out.as_mut_slice()
    }

    /// The line-preparation sweep of the approximate model: every row's
    /// `(ρ_k(p), r_k·s)` pair ([`ObjectiveCore::line_over`]), counted as one
    /// fused call.
    fn line_rows(&self, p: &Vector, s: &Vector) -> Vec<f64> {
        self.recorder.counter_add("eval_calls_total", 1);
        self.recorder.counter_add("eval_fused_calls_total", 1);
        self.core.line_over(p, s)
    }
}

// Each evaluation is one sweep of `ObjectiveCore::fused_over` and counts one
// `eval_calls_total`; only `eval_fused` and line preparation also count as
// fused calls.
impl<U: Utility> Objective for PlacementObjective<U> {
    fn value(&self, p: &Vector) -> f64 {
        self.recorder.counter_add("eval_calls_total", 1);
        self.core.fused_over(p, None, None).0
    }

    fn gradient(&self, p: &Vector) -> Vector {
        let mut g = Vector::zeros(self.core.dim);
        self.gradient_into(p, &mut g);
        g
    }

    fn curvature_along(&self, p: &Vector, s: &Vector) -> f64 {
        self.recorder.counter_add("eval_calls_total", 1);
        self.core.fused_over(p, Some(s), None).2
    }

    fn gradient_into(&self, p: &Vector, out: &mut Vector) {
        self.recorder.counter_add("eval_calls_total", 1);
        self.core.fused_over(p, None, Some(self.zeroed(out)));
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

    /// Under the approximate model one sweep caches every row's
    /// `D_k = −w_k·M″_k(ρ_k)`, counted as one evaluation (not a fused
    /// one). The exact model's curvature has no such form: `None`.
    fn prepare_curvature<'a>(&'a self, p: &'a Vector) -> Option<Box<dyn CurvatureProbe + 'a>> {
        if self.core.rate_model != RateModel::Approximate {
            return None;
        }
        self.recorder.counter_add("eval_calls_total", 1);
        let core = &self.core;
        let d = (0..core.num_ods())
            .map(|k| -core.weights[k] * core.utilities[k].d2(core.effective_rate(k, p)))
            .collect();
        Some(Box::new(PreparedCurvature { core, d }))
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
                let rec = Recorder::enabled();
                let obj = PlacementObjective::from_parts(
                    ods.iter().map(|&(_, _, c)| SreUtility::new(c)).collect(),
                    ods.iter().map(|&(_, w, _)| w).collect(),
                    ods.iter().map(|(row, _, _)| row.clone()).collect(),
                    model,
                    dim,
                )
                .with_recorder(rec.clone());
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
                        "{:?} t={}: ({}, {}) vs ({}, {})",
                        model, t, d, c, d_ref, c_ref
                    );
                }
            }
        }
    }

    /// Every entry point is a call shape of the one kernel: `value`,
    /// `gradient`, `curvature_along` and the fused entry points keep
    /// different outputs of the same sweep, so they agree bit for bit.
    #[test]
    fn fused_kernel_matches_separate_kernels() {
        let task = small_task();
        let idx = ReducedIndex::new(&task);
        let p: Vector = (0..idx.dim()).map(|v| 2e-3 * (v as f64 + 1.0)).collect();
        let s: Vector = (0..idx.dim())
            .map(|v| if v % 3 == 0 { 1.0 } else { -0.4 })
            .collect();
        for model in [RateModel::Approximate, RateModel::Exact] {
            let obj = PlacementObjective::new(&task, &idx, model);
            let mut grad = Vector::zeros(idx.dim());
            let fused = obj.eval_fused(&p, Some(&s), Some(&mut grad));
            assert_eq!(fused.value, obj.value(&p), "{model:?} value");
            assert_eq!(
                fused.curvature,
                obj.curvature_along(&p, &s),
                "{model:?} curvature"
            );
            assert_eq!(grad, obj.gradient(&p), "{model:?} gradient");
            assert_eq!(
                obj.derivatives_along(&p, &s),
                (fused.derivative, fused.curvature),
                "{model:?} derivatives_along"
            );
            let mut g2 = Vector::zeros(idx.dim());
            let v2 = obj.value_and_gradient_into(&p, &mut g2);
            assert_eq!(v2, fused.value, "{model:?} value_and_gradient_into");
            assert_eq!(g2, grad, "{model:?} value_and_gradient_into");
        }
    }

    #[test]
    fn gradient_into_reuses_buffer_and_matches() {
        let task = small_task();
        let idx = ReducedIndex::new(&task);
        for model in [RateModel::Approximate, RateModel::Exact] {
            let obj = PlacementObjective::new(&task, &idx, model);
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
    fn derivatives_along_matches_gradient_contraction() {
        let task = small_task();
        let idx = ReducedIndex::new(&task);
        let p: Vector = (0..idx.dim()).map(|v| 1e-3 * (v as f64 + 1.0)).collect();
        let s: Vector = (0..idx.dim()).map(|v| (v as f64) - 3.0).collect();
        for model in [RateModel::Approximate, RateModel::Exact] {
            let obj = PlacementObjective::new(&task, &idx, model);
            let (direct, curvature) = obj.derivatives_along(&p, &s);
            assert_eq!(curvature, obj.curvature_along(&p, &s), "{model:?}");
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
    fn direct_build_matches_from_parts() {
        for task in [small_task(), crate::scenarios::ring_task(24, 30, 1)] {
            let idx = ReducedIndex::new(&task);
            let direct = PlacementObjective::new(&task, &idx, RateModel::Exact);
            let parts = PlacementObjective::from_parts(
                direct.utilities().to_vec(),
                vec![1.0; task.ods().len()],
                task_rows(&task, &idx),
                RateModel::Exact,
                idx.dim(),
            );
            assert_eq!(direct.core.row_offsets, parts.core.row_offsets);
            assert_eq!(direct.core.row_entries, parts.core.row_entries);
            assert_eq!(direct.weights(), parts.weights());
            assert_eq!(direct.dim(), parts.dim());
            for (od, u) in task.ods().iter().zip(direct.utilities()) {
                assert_eq!(*u, SreUtility::new(od.inv_mean_size));
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
