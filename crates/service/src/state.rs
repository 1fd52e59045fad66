//! Mutable network state owned by the daemon, with transactional event
//! application, warm-started re-solves, and snapshot/rollback.
//!
//! The state is a *specification* (base topology, failed fibres by endpoint
//! names, OD set, background loads, θ, α) from which the current
//! [`MeasurementTask`] is rebuilt after every event. Keeping the spec — not
//! the built task — as the source of truth is what makes link failures
//! composable with every other event. There is one link-id space: an epoch
//! routes on the base topology with its failed fibres cut
//! ([`Topology::without_links`]), whose cut links keep their ids, so
//! sampling rates, background loads and warm starts carry across epochs
//! as they are.
//!
//! The expensive part of a rebuild — the cut topology, every SPF
//! and the ECMP routing matrix — depends only on the failed fibres and the
//! ordered OD endpoints, and traffic moves far more often than routing
//! does. So a one-entry memo, shared by every clone of the state, keeps
//! the routing of the last re-solved epoch, and a rebuild whose two keys
//! equal the memo's *by value* reuses it and derives only the
//! demand-dependent part (link loads, `c_k`, θ/α checks, candidate set)
//! through [`TaskBuilder::build_with_routing`], the assembly step of
//! every task build. Any other rebuild routes from scratch. Matching by
//! value means nothing ever invalidates the memo: a rollback, a restore
//! or a rejected transaction just misses it.
//!
//! [`TaskBuilder::build_with_routing`]: nws_core::TaskBuilder::build_with_routing

use crate::json::{obj, Json};
use crate::protocol::Request;
use crate::ServiceError;
use nws_core::{
    evaluate_accuracy, evaluate_rates, solve_placement, solve_placement_observed,
    solve_placement_warm_observed, summarize, MeasurementTask, PlacementConfig,
    ACTIVATION_THRESHOLD,
};
use nws_obs::Recorder;
use nws_routing::{OdPair, RoutingMatrix};
use nws_topo::{LinkId, Topology};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One tracked OD pair, by node *names* so it survives topology epochs.
#[derive(Debug, Clone, PartialEq)]
pub struct OdSpec {
    /// Display name (unique within the task).
    pub name: String,
    /// Origin node name.
    pub src: String,
    /// Destination node name.
    pub dst: String,
    /// Ground-truth size in packets per interval.
    pub size: f64,
}

/// The currently installed sampling configuration. Its rates are indexed
/// by the base topology's link ids, which every epoch shares; a link that
/// was down when the installing solve ran carries rate 0.
#[derive(Debug, Clone)]
pub struct Installed {
    /// Sampling rate per base-topology link.
    pub rates_base: Vec<f64>,
    /// Objective of the installing solve.
    pub objective: f64,
    /// Budget multiplier λ of the installing solve.
    pub lambda: f64,
    /// Number of activated monitors.
    pub active_monitors: usize,
    /// Whether the installing solve was KKT-certified.
    pub kkt: bool,
}

/// Cold-solve comparison attached to a re-solve when shadow mode is on.
#[derive(Debug, Clone)]
pub struct ColdComparison {
    /// Iterations the cold solve needed.
    pub iterations: usize,
    /// Cold solve wall time in milliseconds.
    pub wall_ms: f64,
    /// Cold solve objective (agreement check against the warm solve).
    pub objective: f64,
}

/// Diagnostics of one event-triggered re-solve.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// Whether the solve was warm-started from the previous configuration.
    pub warm_started: bool,
    /// Iterations used.
    pub iterations: usize,
    /// Active-set releases during the solve.
    pub constraint_releases: usize,
    /// Whether the KKT conditions were certified.
    pub kkt: bool,
    /// Objective at the new configuration.
    pub objective: f64,
    /// Change versus the previously installed configuration (`None` on the
    /// first solve).
    pub objective_delta: Option<f64>,
    /// Budget multiplier λ.
    pub lambda: f64,
    /// Wall time of the (warm) solve in milliseconds.
    pub wall_ms: f64,
    /// Number of activated monitors.
    pub active_monitors: usize,
    /// Shadow cold solve, when requested.
    pub cold: Option<ColdComparison>,
    /// Whether the *answer being served* is uncertified: the solve (after
    /// any escalation) ran out of budget before the KKT check passed.
    pub degraded: bool,
    /// Which escalation step produced the served answer: `None` for the
    /// plain (usually warm) solve, `"cold"` when the warm attempt came back
    /// degraded and a from-scratch retry certified, `"last_good"` when even
    /// the retry stayed degraded and the previously installed rates were
    /// kept in force instead.
    pub fallback: Option<&'static str>,
}

/// Deterministic fault injection for the solver path, mirroring what
/// [`nws_store::FaultPlan`](../../store) does for the I/O path. Shared
/// across [`ServiceState`] clones (the counter is an `Arc`), so a panic
/// scheduled for the Nth re-solve fires exactly once even though
/// [`ServiceState::apply_event`] runs each solve on a discarded copy.
#[derive(Debug, Clone, Default)]
pub struct SolverChaos {
    /// Iteration cap injected into every solve — the deterministic
    /// stand-in for a wall-clock deadline (wall time varies run to run;
    /// an iteration count does not), forcing the degraded path on demand.
    max_iters: Option<usize>,
    /// Panic on the Nth `resolve` call (0-based), exercising the daemon's
    /// `catch_unwind` isolation.
    panic_on_resolve: Option<u64>,
    resolves: Arc<AtomicU64>,
}

impl SolverChaos {
    /// A chaos plan that injects nothing.
    pub fn new() -> Self {
        SolverChaos::default()
    }

    /// Caps every solve at `n` iterations.
    pub fn with_max_iters(mut self, n: usize) -> Self {
        self.max_iters = Some(n);
        self
    }

    /// Panics on the `n`th (0-based) re-solve.
    pub fn with_panic_on_resolve(mut self, n: u64) -> Self {
        self.panic_on_resolve = Some(n);
        self
    }

    /// Consumes one resolve slot, panicking if this is the scheduled one.
    fn on_resolve(&self) {
        let call = self.resolves.fetch_add(1, Ordering::Relaxed);
        if self.panic_on_resolve == Some(call) {
            panic!("injected chaos panic on resolve #{call}");
        }
    }
}

/// Everything `rollback` restores — the event-mutable spec plus the
/// installed configuration at snapshot time.
#[derive(Debug, Clone)]
struct SnapshotData {
    failed: Vec<(String, String)>,
    ods: Vec<OdSpec>,
    theta: f64,
    installed: Option<Installed>,
}

/// The routing of one epoch: everything that depends only on the failed
/// fibres and the ordered OD endpoints (its two keys, kept beside it).
#[derive(Debug)]
struct RoutingEpoch {
    failed: Vec<(String, String)>,
    /// `(src, dst)` node names per tracked OD, in tracking order.
    endpoints: Vec<(String, String)>,
    /// The base topology with the failed fibres cut, shared with every
    /// task built over this epoch (the base itself while no fibre is down).
    topo: Arc<Topology>,
    /// The failed fibres' links, both directions each.
    cut: Vec<LinkId>,
    routing: RoutingMatrix,
}

impl RoutingEpoch {
    /// Whether this is `state`'s routing: both keys equal by value.
    fn routes(&self, state: &ServiceState) -> bool {
        self.failed == state.failed
            && self.endpoints.len() == state.ods.len()
            && self
                .endpoints
                .iter()
                .zip(&state.ods)
                .all(|((src, dst), od)| *src == od.src && *dst == od.dst)
    }
}

/// One-entry memo of the last re-solved epoch's routing, shared by every
/// clone of a state. Entries match by value ([`RoutingEpoch::routes`]),
/// so it needs no invalidation: a state whose keys differ from the
/// entry's, whichever clone stored it, misses and routes from scratch.
#[derive(Debug, Clone, Default)]
struct EpochMemo(Arc<Mutex<Option<Arc<RoutingEpoch>>>>);

impl EpochMemo {
    fn lookup(&self, state: &ServiceState) -> Option<Arc<RoutingEpoch>> {
        let entry = self
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        entry.filter(|epoch| epoch.routes(state))
    }

    fn store(&self, epoch: Arc<RoutingEpoch>) {
        *self.0.lock().unwrap_or_else(PoisonError::into_inner) = Some(epoch);
    }
}

/// The daemon's mutable network state.
#[derive(Debug, Clone)]
pub struct ServiceState {
    /// The base topology, shared by every clone of the state.
    base: Arc<Topology>,
    /// Failed fibres as canonically ordered endpoint-name pairs.
    failed: Vec<(String, String)>,
    ods: Vec<OdSpec>,
    /// Background (non-tracked) load per base-topology link. Background on
    /// a failed link is zeroed for the epoch, not rerouted — tracked
    /// traffic, which the objective actually sees, *is* rerouted via the
    /// rebuilt routing matrix.
    background_base: Vec<f64>,
    theta: f64,
    alpha: f64,
    config: PlacementConfig,
    installed: Option<Installed>,
    snapshots: Vec<SnapshotData>,
    /// Wall-clock budget per solve attempt; `None` = run to convergence.
    /// Not persisted — it is a serving policy, not recoverable state.
    solve_deadline: Option<Duration>,
    /// Fault-injection plan for the chaos harness (inert by default).
    chaos: SolverChaos,
    /// Observability sink threaded into every re-solve (disabled by
    /// default; the daemon installs its own via [`ServiceState::set_recorder`]).
    recorder: Recorder,
    /// Routing of the last re-solved epoch (see the module docs).
    memo: EpochMemo,
}

fn canonical_pair(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_string(), b.to_string())
    } else {
        (b.to_string(), a.to_string())
    }
}

/// `fail_link`'s rules for the fibre between the nodes named `a` and `b`
/// while the fibres in `failed` are down: both nodes exist, the fibre
/// exists and it is not failed yet. Returns its canonical pair.
fn fibre_to_fail(
    base: &Topology,
    failed: &[(String, String)],
    a: &str,
    b: &str,
) -> Result<(String, String), String> {
    let node = |name: &str| {
        base.node_by_name(name)
            .ok_or_else(|| format!("unknown node '{name}'"))
    };
    if base.bidirectional_pair(node(a)?, node(b)?).is_empty() {
        return Err(format!("no fibre between '{a}' and '{b}'"));
    }
    let pair = canonical_pair(a, b);
    if failed.contains(&pair) {
        return Err(format!("fibre {a}–{b} is already failed"));
    }
    Ok(pair)
}

impl ServiceState {
    /// Builds the state from an already-validated measurement task.
    ///
    /// The task's per-link α is assumed uniform (the only shape
    /// [`MeasurementTask`]'s builder produces); candidate-set restrictions
    /// are not carried over.
    pub fn from_task(task: &MeasurementTask, config: PlacementConfig) -> Self {
        let topo = task.topology();
        let sizes: Vec<f64> = task.ods().iter().map(|o| o.size).collect();
        let tracked = task.routing().link_loads(&sizes);
        let background_base: Vec<f64> = task
            .link_loads()
            .iter()
            .zip(&tracked)
            .map(|(total, t)| (total - t).max(0.0))
            .collect();
        let ods = task
            .ods()
            .iter()
            .map(|o| OdSpec {
                name: o.name.clone(),
                src: topo.node(o.od.src).name().to_string(),
                dst: topo.node(o.od.dst).name().to_string(),
                size: o.size,
            })
            .collect();
        ServiceState {
            base: Arc::new(topo.clone()),
            failed: Vec::new(),
            ods,
            background_base,
            theta: task.theta(),
            alpha: task.alpha().first().copied().unwrap_or(1.0),
            config,
            installed: None,
            snapshots: Vec::new(),
            solve_deadline: None,
            chaos: SolverChaos::default(),
            recorder: Recorder::disabled(),
            memo: EpochMemo::default(),
        }
    }

    /// Sets the wall-clock budget for each subsequent solve attempt. A
    /// deadline-interrupted solve still returns a feasible rate vector
    /// (the solver's anytime contract); [`ServiceState::resolve`] then
    /// escalates rather than serving it blindly.
    pub fn set_solve_deadline(&mut self, deadline: Option<Duration>) {
        self.solve_deadline = deadline;
    }

    /// Installs a fault-injection plan (chaos harness only).
    pub fn set_chaos(&mut self, chaos: SolverChaos) {
        self.chaos = chaos;
    }

    /// Installs an observability sink: subsequent re-solves record solver
    /// phase spans and evaluation and rebuild counters into it. The
    /// daemon, not the state, records each served re-solve's latency.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The currently installed configuration, if any solve has run.
    pub fn installed(&self) -> Option<&Installed> {
        self.installed.as_ref()
    }

    /// Current sampling budget θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Currently failed fibres (canonical endpoint-name pairs).
    pub fn failed_fibres(&self) -> &[(String, String)] {
        &self.failed
    }

    /// Tracked OD specifications.
    pub fn ods(&self) -> &[OdSpec] {
        &self.ods
    }

    /// Snapshot-stack depth.
    pub fn snapshot_depth(&self) -> usize {
        self.snapshots.len()
    }

    /// The base topology's fibres as canonically ordered endpoint-name
    /// pairs, deduplicated across directions — the universe of
    /// `fail_link`/`restore_link` targets. Order follows link ids, so the
    /// list is deterministic for a given topology.
    pub fn fibres(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = Vec::new();
        for id in self.base.link_ids() {
            let link = self.base.link(id);
            let pair = canonical_pair(
                self.base.node(link.src()).name(),
                self.base.node(link.dst()).name(),
            );
            if !out.contains(&pair) {
                out.push(pair);
            }
        }
        out
    }

    /// Adopts `other`'s installed configuration without re-solving — the
    /// predictive-serving primitive: solve a *forecast* copy of the state
    /// (same base topology, demands set to predictions) and put those
    /// rates in force on the real state. The spec of `self` is untouched.
    ///
    /// # Errors
    /// [`ServiceError::State`] when `other` has nothing installed or its
    /// base topology has a different link count.
    pub fn install_from(&mut self, other: &ServiceState) -> Result<(), ServiceError> {
        let inst = other
            .installed
            .as_ref()
            .ok_or_else(|| ServiceError::State("source state has nothing installed".into()))?;
        if inst.rates_base.len() != self.base.num_links() {
            return Err(ServiceError::State(format!(
                "installed rate vector has {} entries, base topology has {} links",
                inst.rates_base.len(),
                self.base.num_links()
            )));
        }
        self.installed = Some(inst.clone());
        Ok(())
    }

    fn failed_link_ids(&self) -> Result<Vec<LinkId>, ServiceError> {
        let mut ids = Vec::new();
        for (a, b) in &self.failed {
            let na = self.require_node(a)?;
            let nb = self.require_node(b)?;
            ids.extend(self.base.bidirectional_pair(na, nb));
        }
        Ok(ids)
    }

    fn require_node(&self, name: &str) -> Result<nws_topo::NodeId, ServiceError> {
        self.base
            .node_by_name(name)
            .ok_or_else(|| ServiceError::State(format!("unknown node '{name}'")))
    }

    /// Routes the current spec from scratch: the cut topology and the
    /// ECMP routing matrix on it.
    fn route(&self) -> Result<RoutingEpoch, ServiceError> {
        self.recorder.counter_add("state_routing_builds_total", 1);
        let cut = self.failed_link_ids()?;
        let topo = if cut.is_empty() {
            Arc::clone(&self.base)
        } else {
            Arc::new(self.base.without_links(&cut))
        };
        let mut pairs = Vec::with_capacity(self.ods.len());
        for od in &self.ods {
            pairs.push(OdPair {
                src: self.require_node(&od.src)?,
                dst: self.require_node(&od.dst)?,
            });
        }
        let routing = RoutingMatrix::build(&topo, &pairs);
        Ok(RoutingEpoch {
            failed: self.failed.clone(),
            endpoints: self
                .ods
                .iter()
                .map(|od| (od.src.clone(), od.dst.clone()))
                .collect(),
            topo,
            cut,
            routing,
        })
    }

    /// Rebuilds the current epoch's task over the memoised routing when
    /// it is this spec's, over a fresh one otherwise.
    fn rebuild(&self) -> Result<(MeasurementTask, Arc<RoutingEpoch>), ServiceError> {
        // Counted so tests (and operators) can verify that a batched event
        // costs one epoch rebuild, not one per entry.
        self.recorder.counter_add("state_epoch_rebuilds_total", 1);
        let epoch = match self.memo.lookup(self) {
            Some(epoch) => epoch,
            None => Arc::new(self.route()?),
        };
        let mut background = self.background_base.clone();
        for l in &epoch.cut {
            background[l.index()] = 0.0;
        }
        let mut builder = MeasurementTask::builder(Arc::clone(&epoch.topo));
        for (od, &pair) in self.ods.iter().zip(epoch.routing.ods()) {
            builder = builder.track(od.name.clone(), pair, od.size);
        }
        let task = builder
            .background_loads(&background)
            .theta(self.theta)
            .alpha(self.alpha)
            .build_with_routing(epoch.routing.clone())?;
        Ok((task, epoch))
    }

    /// The current epoch's task and the installed rates as the network
    /// would run them: a plan that overspends θ
    /// on the current loads (traffic grew since it was solved, or θ
    /// shrank) is scaled uniformly down to θ, since the routers cap
    /// sampling at the budget. A certified plan spends θ to rounding and
    /// comes back unscaled.
    fn installed_now(&self) -> Result<(MeasurementTask, Vec<f64>), ServiceError> {
        let inst = self
            .installed
            .as_ref()
            .ok_or_else(|| ServiceError::State("no configuration installed yet".into()))?;
        let (task, _) = self.rebuild()?;
        let mut rates = inst.rates_base.clone();
        let spend: f64 = rates
            .iter()
            .zip(task.link_loads())
            .map(|(p, u)| p * u)
            .sum();
        if spend > task.theta() * (1.0 + 1e-9) {
            let c = task.theta() / spend;
            rates.iter_mut().for_each(|p| *p *= c);
        }
        Ok((task, rates))
    }

    /// The per-attempt solver config: the shared [`PlacementConfig`] with
    /// this solve's wall-clock deadline stamped in and its iteration cap
    /// lowered to the chaos cap, if any.
    fn budgeted_config(&self) -> PlacementConfig {
        let mut config = self.config;
        config.solver.deadline = self.solve_deadline.map(|d| Instant::now() + d);
        if let Some(cap) = self.chaos.max_iters {
            config.solver.max_iterations = config.solver.max_iterations.min(cap);
        }
        config
    }

    /// Re-optimizes the placement for the current spec, warm-starting from
    /// the installed configuration when one exists. With `shadow`, also
    /// runs a from-scratch cold solve for iteration/latency comparison (the
    /// installed result is always the warm one).
    ///
    /// When a solve deadline is set and an attempt comes back *degraded*
    /// (budget ran out before KKT certification), this escalates:
    ///
    /// 1. warm attempt degraded → retry cold with a fresh deadline;
    /// 2. retry still degraded, but a configuration is installed → keep
    ///    the last-good rates in force (the spec mutation still lands);
    /// 3. nothing installed yet (startup) → install the degraded result —
    ///    it is feasible (in the box, within budget), just uncertified.
    ///
    /// The returned report carries [`SolveReport::degraded`] and
    /// [`SolveReport::fallback`] so callers can count and expose this.
    ///
    /// # Errors
    /// [`ServiceError::State`] for spec problems (unroutable OD, unknown
    /// node), [`ServiceError::Core`] for solver failures (e.g. θ infeasible
    /// after failures shrank the candidate set).
    pub fn resolve(&mut self, shadow: bool) -> Result<SolveReport, ServiceError> {
        self.chaos.on_resolve();
        let (task, epoch) = self.rebuild()?;
        self.memo.store(Arc::clone(&epoch));
        let prev_objective = self.installed.as_ref().map(|i| i.objective);
        let warm_started = self.installed.is_some();

        let t0 = Instant::now();
        let mut sol = match &self.installed {
            Some(inst) => solve_placement_warm_observed(
                &task,
                &self.budgeted_config(),
                &inst.rates_base,
                &self.recorder,
            )?,
            None => solve_placement_observed(&task, &self.budgeted_config(), &self.recorder)?,
        };
        let mut fallback = None;
        if sol.degraded.is_some() && warm_started {
            // Escalation step 1: the warm start may simply have been a bad
            // starting basin for the budget; a cold solve gets a fresh
            // deadline before we give up on certifying this epoch.
            self.recorder.counter_add("daemon_solve_escalations", 1);
            let cold_try =
                solve_placement_observed(&task, &self.budgeted_config(), &self.recorder)?;
            if cold_try.degraded.is_none() {
                sol = cold_try;
                fallback = Some("cold");
            }
        }
        let degraded = sol.degraded.is_some();
        let keep_last_good = degraded && self.installed.is_some();
        if keep_last_good {
            // Escalation step 2: serve the previously certified rates.
            fallback = Some("last_good");
        }
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

        let cold = if shadow && warm_started {
            // The shadow solve is a benchmarking artifact: keep it out of
            // the solver/eval metrics so they describe installing solves.
            let t1 = Instant::now();
            let c = solve_placement(&task, &self.config)?;
            Some(ColdComparison {
                iterations: c.diagnostics.iterations,
                wall_ms: t1.elapsed().as_secs_f64() * 1e3,
                objective: c.objective,
            })
        } else {
            None
        };

        if !keep_last_good {
            self.installed = Some(Installed {
                rates_base: sol.rates,
                objective: sol.objective,
                lambda: sol.lambda,
                active_monitors: sol.active_monitors.len(),
                kkt: sol.kkt_verified,
            });
        }
        Ok(SolveReport {
            warm_started,
            iterations: sol.diagnostics.iterations,
            constraint_releases: sol.diagnostics.constraint_releases,
            kkt: sol.kkt_verified,
            objective: sol.objective,
            objective_delta: prev_objective.map(|o| sol.objective - o),
            lambda: sol.lambda,
            wall_ms,
            active_monitors: sol.active_monitors.len(),
            cold,
            degraded,
            fallback,
        })
    }

    /// Applies a mutating request transactionally: the mutation and its
    /// re-solve run on a copy, which replaces `self` only on success — a
    /// rejected event (unroutable OD, infeasible θ) leaves the installed
    /// configuration untouched.
    ///
    /// # Errors
    /// [`ServiceError::State`] when `req` is not a mutating command or the
    /// mutation is invalid; solve errors as in [`ServiceState::resolve`].
    pub fn apply_event(
        &mut self,
        req: &Request,
        shadow: bool,
    ) -> Result<SolveReport, ServiceError> {
        let mut next = self.clone();
        next.mutate(req)?;
        let report = next.resolve(shadow)?;
        *self = next;
        Ok(report)
    }

    /// Applies a mutating request to the *spec only* — no re-solve, the
    /// installed configuration (if any) stays in force until the caller
    /// decides to [`ServiceState::resolve`]. This is the scenario
    /// replayer's entry point: a replay tick applies its demand batch and
    /// link events through here and then re-solves (or not) according to
    /// its budget policy. Each request is all-or-nothing; a rejected
    /// request leaves the spec untouched.
    ///
    /// # Errors
    /// [`ServiceError::State`] when `req` is not a mutating command or the
    /// mutation is invalid.
    pub fn mutate_spec(&mut self, req: &Request) -> Result<(), ServiceError> {
        self.mutate(req)
    }

    /// Validates that the current spec still builds a measurement task
    /// (every OD routable on the survivor graph, all nodes known) without
    /// solving. Used by the trace generator to discover which fibres can
    /// flap without stranding a tracked OD.
    ///
    /// # Errors
    /// [`ServiceError::State`] describing the first spec violation.
    pub fn check_spec(&self) -> Result<(), ServiceError> {
        self.rebuild().map(|_| ())
    }

    /// Evaluates the *installed* rates against the *current* spec's task:
    /// the objective and per-OD utilities the network actually delivers
    /// right now, which lag the optimum whenever the spec has moved since
    /// the installing solve. A plan that overspends θ on the current loads
    /// is evaluated scaled uniformly down to θ, as the routers would run
    /// it. Returns `(objective, per-OD utilities)` in
    /// tracked-OD order. This is the delivered side of the replay oracle
    /// comparison; the oracle side is a fresh [`ServiceState::resolve`] on
    /// the same spec.
    ///
    /// # Errors
    /// [`ServiceError::State`] when no configuration is installed or the
    /// epoch's task cannot be rebuilt.
    pub fn evaluate_installed(&self) -> Result<(f64, Vec<f64>), ServiceError> {
        let (task, rates_now) = self.installed_now()?;
        let sol = evaluate_rates(&task, &rates_now);
        Ok((sol.objective, sol.utilities))
    }

    fn mutate(&mut self, req: &Request) -> Result<(), ServiceError> {
        let bad = |msg: String| Err(ServiceError::State(msg));
        match req {
            Request::UpdateDemand { od, size } => {
                if !(size.is_finite() && *size > 1.0) {
                    return bad(format!("size must exceed 1 packet/interval, got {size}"));
                }
                match self.ods.iter_mut().find(|o| o.name == *od) {
                    Some(spec) => {
                        spec.size = *size;
                        Ok(())
                    }
                    None => bad(format!("unknown OD '{od}'")),
                }
            }
            Request::UpdateDemands { updates } => {
                // All-or-nothing even when mutating `self` directly (the
                // replayer's spec-only path): validate every entry before
                // touching any size.
                if updates.is_empty() {
                    return bad("'updates' must be a non-empty batch".into());
                }
                let mut index: HashMap<&str, usize> = HashMap::with_capacity(self.ods.len());
                for (i, o) in self.ods.iter().enumerate() {
                    index.entry(o.name.as_str()).or_insert(i);
                }
                let mut seen = vec![false; self.ods.len()];
                let mut targets = Vec::with_capacity(updates.len());
                for (od, size) in updates {
                    if !(size.is_finite() && *size > 1.0) {
                        return bad(format!(
                            "size for '{od}' must exceed 1 packet/interval, got {size}"
                        ));
                    }
                    let i = match index.get(od.as_str()) {
                        Some(&i) => i,
                        None => return bad(format!("unknown OD '{od}'")),
                    };
                    if std::mem::replace(&mut seen[i], true) {
                        return bad(format!("duplicate OD '{od}' in batch"));
                    }
                    targets.push(i);
                }
                for (i, (_, size)) in targets.into_iter().zip(updates) {
                    self.ods[i].size = *size;
                }
                Ok(())
            }
            Request::FailLink { a, b } => {
                let pair =
                    fibre_to_fail(&self.base, &self.failed, a, b).map_err(ServiceError::State)?;
                self.failed.push(pair);
                Ok(())
            }
            Request::RestoreLink { a, b } => {
                let pair = canonical_pair(a, b);
                match self.failed.iter().position(|p| *p == pair) {
                    Some(i) => {
                        self.failed.remove(i);
                        Ok(())
                    }
                    None => bad(format!("fibre {a}–{b} is not failed")),
                }
            }
            Request::AddOd {
                name,
                src,
                dst,
                size,
            } => {
                if self.ods.iter().any(|o| o.name == *name) {
                    return bad(format!("OD '{name}' already tracked"));
                }
                if !(size.is_finite() && *size > 1.0) {
                    return bad(format!("size must exceed 1 packet/interval, got {size}"));
                }
                self.require_node(src)?;
                self.require_node(dst)?;
                if src == dst {
                    return bad("OD origin and destination coincide".into());
                }
                self.ods.push(OdSpec {
                    name: name.clone(),
                    src: src.clone(),
                    dst: dst.clone(),
                    size: *size,
                });
                Ok(())
            }
            Request::RemoveOd { name } => match self.ods.iter().position(|o| o.name == *name) {
                Some(_) if self.ods.len() == 1 => bad("cannot remove the last tracked OD".into()),
                Some(i) => {
                    self.ods.remove(i);
                    Ok(())
                }
                None => bad(format!("unknown OD '{name}'")),
            },
            Request::SetTheta { theta } => {
                if !(theta.is_finite() && *theta > 0.0) {
                    return bad(format!("theta must be positive and finite, got {theta}"));
                }
                self.theta = *theta;
                Ok(())
            }
            other => bad(format!("'{}' is not a mutating command", other.name())),
        }
    }

    /// Pushes the current spec + installed configuration onto the snapshot
    /// stack; returns the new depth.
    pub fn snapshot(&mut self) -> usize {
        self.snapshots.push(SnapshotData {
            failed: self.failed.clone(),
            ods: self.ods.clone(),
            theta: self.theta,
            installed: self.installed.clone(),
        });
        self.snapshots.len()
    }

    /// Pops the snapshot stack and reinstalls that state — no re-solve, the
    /// snapshotted rate vector simply comes back into force. Returns the
    /// remaining depth and the restored objective (if a configuration was
    /// installed at snapshot time).
    ///
    /// # Errors
    /// [`ServiceError::State`] when the stack is empty.
    pub fn rollback(&mut self) -> Result<(usize, Option<f64>), ServiceError> {
        let snap = self
            .snapshots
            .pop()
            .ok_or_else(|| ServiceError::State("snapshot stack is empty".into()))?;
        self.failed = snap.failed;
        self.ods = snap.ods;
        self.theta = snap.theta;
        self.installed = snap.installed;
        Ok((
            self.snapshots.len(),
            self.installed.as_ref().map(|i| i.objective),
        ))
    }

    /// The activated monitors of the installed configuration as
    /// `(link label, rate)` pairs in base-topology link order.
    ///
    /// # Errors
    /// [`ServiceError::State`] when no configuration is installed.
    pub fn active_rates(&self) -> Result<Vec<(String, f64)>, ServiceError> {
        let inst = self
            .installed
            .as_ref()
            .ok_or_else(|| ServiceError::State("no configuration installed yet".into()))?;
        Ok(inst
            .rates_base
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p > ACTIVATION_THRESHOLD)
            .map(|(i, &p)| (self.base.link_label(LinkId::from_index(i)), p))
            .collect())
    }

    /// Monte-Carlo accuracy of the installed configuration against the
    /// current epoch's task, scaled down to θ like
    /// [`ServiceState::evaluate_installed`]: `(mean, worst, best)` over
    /// ODs.
    ///
    /// # Errors
    /// [`ServiceError::State`] when no configuration is installed or the
    /// epoch's task cannot be rebuilt.
    pub fn accuracy(&self, runs: usize, seed: u64) -> Result<(f64, f64, f64), ServiceError> {
        let (task, rates_now) = self.installed_now()?;
        let sol = evaluate_rates(&task, &rates_now);
        let summary = summarize(&evaluate_accuracy(&task, &sol, runs, seed));
        Ok((summary.mean, summary.worst, summary.best))
    }

    /// The recoverable state as one JSON document (schema version 1): θ,
    /// failed fibres, OD specs, the installed configuration, and the
    /// snapshot stack. The base topology, background loads, α, and solver
    /// config are *not* included — they are derived from the serving task
    /// and must match at [`ServiceState::restore_persisted`] time.
    ///
    /// Encoding uses shortest-roundtrip `f64` formatting, so a persist →
    /// restore cycle reproduces every rate, objective, and θ bit-exactly.
    pub fn persisted(&self) -> Json {
        obj(vec![
            ("version", Json::UInt(1)),
            ("theta", Json::Num(self.theta)),
            ("failed", failed_to_json(&self.failed)),
            ("ods", ods_to_json(&self.ods)),
            ("installed", installed_to_json(self.installed.as_ref())),
            (
                "stack",
                Json::Arr(
                    self.snapshots
                        .iter()
                        .map(|s| {
                            obj(vec![
                                ("failed", failed_to_json(&s.failed)),
                                ("ods", ods_to_json(&s.ods)),
                                ("theta", Json::Num(s.theta)),
                                ("installed", installed_to_json(s.installed.as_ref())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Restores the recoverable state from a [`ServiceState::persisted`]
    /// document, validating it against the *current* base topology (node
    /// names must exist, each failed fibre must pass `fail_link`'s checks,
    /// rate vectors must match the link count, sizes and θ must satisfy the
    /// protocol bounds). On error `self` is unchanged.
    ///
    /// # Errors
    /// [`ServiceError::State`] describing the first schema violation.
    pub fn restore_persisted(&mut self, doc: &Json) -> Result<(), ServiceError> {
        let bad = |msg: String| ServiceError::State(format!("persisted state: {msg}"));
        match doc.get("version").and_then(Json::as_u64) {
            Some(1) => {}
            other => {
                return Err(bad(format!(
                    "unsupported schema version {other:?} (expected 1)"
                )))
            }
        }
        let theta = theta_from_json(doc).map_err(&bad)?;
        let failed = failed_from_json(doc, &self.base).map_err(&bad)?;
        let ods = ods_from_json(doc, &self.base).map_err(&bad)?;
        let installed = installed_from_json(doc, self.base.num_links()).map_err(&bad)?;
        let stack = doc
            .get("stack")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing 'stack' array".into()))?;
        let mut snapshots = Vec::with_capacity(stack.len());
        for (i, frame) in stack.iter().enumerate() {
            let framed = |msg: String| bad(format!("stack[{i}]: {msg}"));
            snapshots.push(SnapshotData {
                failed: failed_from_json(frame, &self.base).map_err(&framed)?,
                ods: ods_from_json(frame, &self.base).map_err(&framed)?,
                theta: theta_from_json(frame).map_err(&framed)?,
                installed: installed_from_json(frame, self.base.num_links()).map_err(&framed)?,
            });
        }
        self.theta = theta;
        self.failed = failed;
        self.ods = ods;
        self.installed = installed;
        self.snapshots = snapshots;
        Ok(())
    }
}

fn failed_to_json(failed: &[(String, String)]) -> Json {
    Json::Arr(
        failed
            .iter()
            .map(|(a, b)| Json::Arr(vec![Json::Str(a.clone()), Json::Str(b.clone())]))
            .collect(),
    )
}

fn ods_to_json(ods: &[OdSpec]) -> Json {
    Json::Arr(
        ods.iter()
            .map(|o| {
                obj(vec![
                    ("name", Json::Str(o.name.clone())),
                    ("src", Json::Str(o.src.clone())),
                    ("dst", Json::Str(o.dst.clone())),
                    ("size", Json::Num(o.size)),
                ])
            })
            .collect(),
    )
}

fn installed_to_json(inst: Option<&Installed>) -> Json {
    match inst {
        None => Json::Null,
        Some(i) => obj(vec![
            (
                "rates",
                Json::Arr(i.rates_base.iter().map(|&r| Json::Num(r)).collect()),
            ),
            ("objective", Json::Num(i.objective)),
            ("lambda", Json::Num(i.lambda)),
            ("active_monitors", Json::UInt(i.active_monitors as u64)),
            ("kkt", Json::Bool(i.kkt)),
        ]),
    }
}

fn theta_from_json(v: &Json) -> Result<f64, String> {
    let theta = v
        .get("theta")
        .and_then(Json::as_f64)
        .ok_or("missing or non-numeric 'theta'")?;
    if !(theta.is_finite() && theta > 0.0) {
        return Err(format!("theta must be positive and finite, got {theta}"));
    }
    Ok(theta)
}

fn failed_from_json(v: &Json, base: &Topology) -> Result<Vec<(String, String)>, String> {
    let arr = v
        .get("failed")
        .and_then(Json::as_arr)
        .ok_or("missing 'failed' array")?;
    let mut out = Vec::with_capacity(arr.len());
    for pair in arr {
        let p = pair
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or("each failed fibre must be a 2-element array")?;
        let (a, b) = match (p[0].as_str(), p[1].as_str()) {
            (Some(a), Some(b)) => (a, b),
            _ => return Err("fibre endpoints must be strings".into()),
        };
        let pair = fibre_to_fail(base, &out, a, b)?;
        out.push(pair);
    }
    Ok(out)
}

fn ods_from_json(v: &Json, base: &Topology) -> Result<Vec<OdSpec>, String> {
    let arr = v
        .get("ods")
        .and_then(Json::as_arr)
        .ok_or("missing 'ods' array")?;
    if arr.is_empty() {
        return Err("OD set must not be empty".into());
    }
    let mut out: Vec<OdSpec> = Vec::with_capacity(arr.len());
    let mut names: HashSet<&str> = HashSet::with_capacity(arr.len());
    for od in arr {
        let field = |key: &str| {
            od.get(key)
                .and_then(Json::as_str)
                .ok_or(format!("OD entry missing string '{key}'"))
        };
        let name = field("name")?;
        let src = field("src")?;
        let dst = field("dst")?;
        let size = od
            .get("size")
            .and_then(Json::as_f64)
            .ok_or("OD entry missing numeric 'size'")?;
        if !(size.is_finite() && size > 1.0) {
            return Err(format!("OD '{name}' size must exceed 1 packet, got {size}"));
        }
        for node in [src, dst] {
            if base.node_by_name(node).is_none() {
                return Err(format!("unknown node '{node}' in OD '{name}'"));
            }
        }
        if !names.insert(name) {
            return Err(format!("duplicate OD name '{name}'"));
        }
        out.push(OdSpec {
            name: name.to_string(),
            src: src.to_string(),
            dst: dst.to_string(),
            size,
        });
    }
    Ok(out)
}

fn installed_from_json(v: &Json, num_links: usize) -> Result<Option<Installed>, String> {
    let inst = match v.get("installed") {
        None => return Err("missing 'installed' field".into()),
        Some(Json::Null) => return Ok(None),
        Some(inst) => inst,
    };
    let rates = inst
        .get("rates")
        .and_then(Json::as_arr)
        .ok_or("installed configuration missing 'rates' array")?;
    if rates.len() != num_links {
        return Err(format!(
            "installed rate vector has {} entries, topology has {num_links} links",
            rates.len()
        ));
    }
    let mut rates_base = Vec::with_capacity(rates.len());
    for r in rates {
        let r = r.as_f64().ok_or("non-numeric sampling rate")?;
        if !(r.is_finite() && (0.0..=1.0).contains(&r)) {
            return Err(format!("sampling rate {r} outside [0, 1]"));
        }
        rates_base.push(r);
    }
    let num = |key: &str| {
        inst.get(key)
            .and_then(Json::as_f64)
            .filter(|x| x.is_finite())
            .ok_or(format!("installed configuration missing finite '{key}'"))
    };
    Ok(Some(Installed {
        rates_base,
        objective: num("objective")?,
        lambda: num("lambda")?,
        active_monitors: inst
            .get("active_monitors")
            .and_then(Json::as_u64)
            .ok_or("installed configuration missing integer 'active_monitors'")?
            as usize,
        kkt: inst
            .get("kkt")
            .and_then(Json::as_bool)
            .ok_or("installed configuration missing boolean 'kkt'")?,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_core::scenarios::janet_task;
    use nws_core::solve_placement_warm;

    fn fresh() -> ServiceState {
        let mut s = ServiceState::from_task(&janet_task(), PlacementConfig::default());
        s.resolve(false).unwrap();
        s
    }

    #[test]
    fn from_task_extracts_spec() {
        let task = janet_task();
        let s = ServiceState::from_task(&task, PlacementConfig::default());
        assert_eq!(s.ods().len(), 20);
        assert_eq!(s.theta(), task.theta());
        assert_eq!(s.ods()[0].name, "JANET-NL");
        assert_eq!(s.ods()[0].src, "JANET");
        assert!(s.installed().is_none());
        // The rebuilt task matches the original.
        let (rebuilt, _) = s.rebuild().unwrap();
        assert_eq!(rebuilt.ods().len(), task.ods().len());
        for (a, b) in rebuilt.link_loads().iter().zip(task.link_loads()) {
            assert!((a - b).abs() < 1e-6 * b.max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn first_resolve_is_cold_then_warm() {
        let mut s = ServiceState::from_task(&janet_task(), PlacementConfig::default());
        let first = s.resolve(false).unwrap();
        assert!(!first.warm_started);
        assert!(first.kkt);
        assert!(first.objective_delta.is_none());
        let again = s.resolve(true).unwrap();
        assert!(again.warm_started);
        assert!(again.kkt);
        // Re-solving an unchanged spec from its own optimum is near-free.
        let cold = again.cold.expect("shadow requested");
        assert!(again.iterations <= cold.iterations);
        assert!((again.objective - cold.objective).abs() < 1e-8);
    }

    #[test]
    fn demand_update_triggers_warm_resolve() {
        let mut s = fresh();
        let before = s.installed().unwrap().objective;
        let report = s
            .apply_event(
                &Request::UpdateDemand {
                    od: "JANET-NL".into(),
                    size: 30_000.0 * 300.0 * 1.2,
                },
                true,
            )
            .unwrap();
        assert!(report.warm_started);
        assert!(report.kkt);
        assert!(report.objective_delta.unwrap().abs() > 0.0);
        assert_ne!(s.installed().unwrap().objective, before);
        let cold = report.cold.unwrap();
        assert!((report.objective - cold.objective).abs() < 1e-6);
    }

    #[test]
    fn batched_demand_update_is_one_rebuild_and_one_warm_resolve() {
        // Regression for the per-event rebuild audit: N queued
        // `update_demand` lines cost N epoch rebuilds (one per re-solve),
        // while one `update_demands` batch of N entries must cost exactly
        // one. Counted through the obs recorder the daemon installs.
        let updates: Vec<(String, f64)> = (1..=5)
            .map(|i| {
                (
                    format!("JANET-{}", ["NL", "DE", "FR", "IT", "ES"][i - 1]),
                    1e6 * i as f64,
                )
            })
            .collect();

        let rebuilds_during = |f: &dyn Fn(&mut ServiceState)| {
            let recorder = Recorder::enabled();
            let mut s = fresh();
            s.set_recorder(recorder.clone());
            let count = |r: &Recorder| {
                r.snapshot()
                    .counter("state_epoch_rebuilds_total")
                    .unwrap_or(0)
            };
            let before = count(&recorder);
            f(&mut s);
            (count(&recorder) - before, s)
        };

        let (batched_rebuilds, s_batched) = rebuilds_during(&|s| {
            let report = s
                .apply_event(
                    &Request::UpdateDemands {
                        updates: updates.clone(),
                    },
                    false,
                )
                .unwrap();
            assert!(report.warm_started);
            assert!(report.kkt);
        });
        assert_eq!(batched_rebuilds, 1, "one batch = one epoch rebuild");

        let (sequential_rebuilds, s_seq) = rebuilds_during(&|s| {
            for (od, size) in &updates {
                s.apply_event(
                    &Request::UpdateDemand {
                        od: od.clone(),
                        size: *size,
                    },
                    false,
                )
                .unwrap();
            }
        });
        assert_eq!(sequential_rebuilds, updates.len() as u64);

        // Both roads end at the same spec and (near-)identical optimum.
        assert_eq!(s_batched.ods(), s_seq.ods());
        let (ob, os) = (
            s_batched.installed().unwrap().objective,
            s_seq.installed().unwrap().objective,
        );
        assert!((ob - os).abs() < 1e-6 * os.abs().max(1.0), "{ob} vs {os}");
    }

    #[test]
    fn mixed_demand_batch_rejected_atomically() {
        let mut s = fresh();
        let size_before: Vec<f64> = s.ods().iter().map(|o| o.size).collect();
        let obj_before = s.installed().unwrap().objective;
        for updates in [
            // Unknown OD after a valid entry.
            vec![("JANET-NL".to_string(), 2e6), ("NOPE".to_string(), 2e6)],
            // Invalid size after a valid entry.
            vec![("JANET-NL".to_string(), 2e6), ("JANET-DE".to_string(), 0.5)],
            // Duplicate within the batch.
            vec![("JANET-NL".to_string(), 2e6), ("JANET-NL".to_string(), 3e6)],
            // Empty batch.
            vec![],
        ] {
            assert!(
                s.apply_event(
                    &Request::UpdateDemands {
                        updates: updates.clone()
                    },
                    false
                )
                .is_err(),
                "accepted {updates:?}"
            );
            let now: Vec<f64> = s.ods().iter().map(|o| o.size).collect();
            assert_eq!(now, size_before, "partial batch applied");
            assert_eq!(s.installed().unwrap().objective, obj_before);
        }
    }

    #[test]
    fn mutate_spec_defers_the_resolve() {
        let mut s = fresh();
        let obj = s.installed().unwrap().objective;
        s.mutate_spec(&Request::UpdateDemands {
            updates: vec![("JANET-NL".into(), 3e6)],
        })
        .unwrap();
        // Spec moved, installed configuration untouched…
        assert_eq!(s.ods()[0].size, 3e6);
        assert_eq!(s.installed().unwrap().objective, obj);
        // …and the delivered objective is now evaluated against the *new*
        // task, so it no longer matches the stale installing solve.
        let (delivered, utilities) = s.evaluate_installed().unwrap();
        assert_eq!(utilities.len(), s.ods().len());
        assert!((delivered - obj).abs() > 1e-9);
        // An explicit resolve catches the spec up again.
        let report = s.resolve(false).unwrap();
        assert!(report.warm_started && report.kkt);
        let (delivered, _) = s.evaluate_installed().unwrap();
        assert!((delivered - report.objective).abs() < 1e-9);
    }

    #[test]
    fn a_plan_over_theta_is_scored_scaled_down_to_theta() {
        let mut s = fresh();
        let theta = s.theta();
        s.mutate_spec(&Request::SetTheta { theta: theta / 2.0 })
            .unwrap();
        // No re-solve: the installed plan now spends twice the budget, and
        // the network runs it at half rate.
        let (task, _) = s.rebuild().unwrap();
        let halved: Vec<f64> = s
            .installed()
            .unwrap()
            .rates_base
            .iter()
            .map(|p| p / 2.0)
            .collect();
        let expected = evaluate_rates(&task, &halved);
        let (delivered, utilities) = s.evaluate_installed().unwrap();
        assert!(
            (delivered - expected.objective).abs() <= 1e-12 * expected.objective,
            "delivered {delivered} vs halved plan {}",
            expected.objective
        );
        for (a, b) in utilities.iter().zip(&expected.utilities) {
            assert!((a - b).abs() <= 1e-12, "utility {a} vs {b}");
        }
        let summary = summarize(&evaluate_accuracy(&task, &expected, 40, 7));
        let (mean, worst, best) = s.accuracy(40, 7).unwrap();
        for (a, b) in [
            (mean, summary.mean),
            (worst, summary.worst),
            (best, summary.best),
        ] {
            assert!((a - b).abs() <= 1e-12, "accuracy {a} vs {b}");
        }
    }

    #[test]
    fn fail_and_restore_roundtrip() {
        let mut s = fresh();
        let base_obj = s.installed().unwrap().objective;
        let fail = Request::FailLink {
            a: "FR".into(),
            b: "LU".into(),
        };
        let report = s.apply_event(&fail, false).unwrap();
        assert!(report.kkt);
        assert_eq!(s.failed_fibres().len(), 1);
        // Double-failure rejected, state untouched.
        assert!(s.apply_event(&fail, false).is_err());
        assert_eq!(s.failed_fibres().len(), 1);
        let restore = Request::RestoreLink {
            a: "LU".into(), // endpoint order must not matter
            b: "FR".into(),
        };
        let report = s.apply_event(&restore, false).unwrap();
        assert!(report.kkt);
        assert!(s.failed_fibres().is_empty());
        assert!((s.installed().unwrap().objective - base_obj).abs() < 1e-6);
    }

    /// The renumbering model of a cut, kept as a reference: the survivors
    /// of `cut` in a fresh topology with consecutive link ids, and each
    /// base link's id there (`None` for cut links).
    fn compacted(base: &Topology, cut: &[LinkId]) -> (Topology, Vec<Option<LinkId>>) {
        let mut b = nws_topo::TopologyBuilder::new();
        for n in base.node_ids() {
            let node = base.node(n);
            if node.is_external() {
                b.external_node(node.name());
            } else {
                b.node(node.name());
            }
        }
        let ids = base
            .link_ids()
            .map(|l| {
                let k = base.link(l);
                (!cut.contains(&l)).then(|| {
                    b.link(
                        k.src(),
                        k.dst(),
                        k.capacity_mbps(),
                        k.igp_weight(),
                        k.kind(),
                    )
                })
            })
            .collect();
        (b.build().unwrap(), ids)
    }

    #[test]
    fn a_cut_fibre_keeps_its_link_ids_through_fail_resolve_restore() {
        let mut s = fresh();
        let (pre_task, _) = s.rebuild().unwrap();
        let pre_rates = s.installed().unwrap().rates_base.clone();
        let fr = s.base.require_node("FR").unwrap();
        let lu = s.base.require_node("LU").unwrap();
        let cut = s.base.bidirectional_pair(fr, lu);
        assert!(
            cut.iter().any(|l| pre_rates[l.index()] > 0.0),
            "FR-LU is monitored"
        );

        let report = s
            .apply_event(
                &Request::FailLink {
                    a: "FR".into(),
                    b: "LU".into(),
                },
                false,
            )
            .unwrap();
        let (task, _) = s.rebuild().unwrap();
        let rates = s.installed().unwrap().rates_base.clone();
        assert_eq!(rates.len(), s.base.num_links());
        for &l in &cut {
            assert_eq!(rates[l.index()], 0.0);
            assert_eq!(task.link_loads()[l.index()], 0.0);
        }

        // The reference renumbers: the same spec on the compacted survivor
        // topology, background and warm start carried across by link id.
        let (survivors, ids) = compacted(&s.base, &cut);
        let carry = |v: &[f64]| {
            let mut out = vec![0.0; survivors.num_links()];
            for (l, id) in ids.iter().enumerate() {
                if let Some(id) = id {
                    out[id.index()] = v[l];
                }
            }
            out
        };
        let mut builder = MeasurementTask::builder(survivors.clone());
        for od in s.ods() {
            let pair = OdPair::new(
                survivors.require_node(&od.src).unwrap(),
                survivors.require_node(&od.dst).unwrap(),
            );
            builder = builder.track(od.name.clone(), pair, od.size);
        }
        let reference = builder
            .background_loads(&carry(&s.background_base))
            .theta(s.theta)
            .alpha(s.alpha)
            .build()
            .unwrap();
        let want = solve_placement_warm(&reference, &s.config, &carry(&pre_rates)).unwrap();
        assert_eq!(report.objective.to_bits(), want.objective.to_bits());
        assert_eq!(report.iterations, want.diagnostics.iterations);
        for l in s.base.link_ids() {
            let expected = ids[l.index()].map_or(0.0, |id| want.rates[id.index()]);
            assert_eq!(
                rates[l.index()].to_bits(),
                expected.to_bits(),
                "{}",
                s.base.link_label(l)
            );
        }

        // Restoring puts the base task back, load for load, and re-solves
        // it warm from the cut epoch's plan.
        s.apply_event(
            &Request::RestoreLink {
                a: "LU".into(),
                b: "FR".into(),
            },
            false,
        )
        .unwrap();
        let (restored, _) = s.rebuild().unwrap();
        for (a, b) in restored.link_loads().iter().zip(pre_task.link_loads()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let want = solve_placement_warm(&pre_task, &s.config, &rates).unwrap();
        for (a, b) in s.installed().unwrap().rates_base.iter().zip(&want.rates) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn failed_event_leaves_state_intact() {
        let mut s = fresh();
        let obj = s.installed().unwrap().objective;
        // Unknown OD.
        assert!(s
            .apply_event(
                &Request::UpdateDemand {
                    od: "NOPE".into(),
                    size: 1e6
                },
                false
            )
            .is_err());
        // θ infeasible (beyond total candidate load): solver rejects, the
        // transaction rolls back.
        assert!(s
            .apply_event(&Request::SetTheta { theta: 1e18 }, false)
            .is_err());
        assert_eq!(s.installed().unwrap().objective, obj);
        assert_eq!(s.theta(), janet_task().theta());
    }

    #[test]
    fn add_remove_od() {
        let mut s = fresh();
        let add = Request::AddOd {
            name: "UK-DE".into(),
            src: "UK".into(),
            dst: "DE".into(),
            size: 5_000.0,
        };
        let report = s.apply_event(&add, false).unwrap();
        assert!(report.kkt);
        assert_eq!(s.ods().len(), 21);
        // Duplicate name rejected.
        assert!(s.apply_event(&add, false).is_err());
        let report = s
            .apply_event(
                &Request::RemoveOd {
                    name: "UK-DE".into(),
                },
                false,
            )
            .unwrap();
        assert!(report.kkt);
        assert_eq!(s.ods().len(), 20);
    }

    #[test]
    fn snapshot_rollback_restores_spec_and_solution() {
        let mut s = fresh();
        let obj0 = s.installed().unwrap().objective;
        assert_eq!(s.snapshot(), 1);
        s.apply_event(&Request::SetTheta { theta: 50_000.0 }, false)
            .unwrap();
        s.apply_event(
            &Request::FailLink {
                a: "FR".into(),
                b: "LU".into(),
            },
            false,
        )
        .unwrap();
        assert_ne!(s.installed().unwrap().objective, obj0);
        let (depth, restored) = s.rollback().unwrap();
        assert_eq!(depth, 0);
        assert_eq!(restored, Some(obj0));
        assert_eq!(s.theta(), janet_task().theta());
        assert!(s.failed_fibres().is_empty());
        assert!(s.rollback().is_err());
    }

    #[test]
    fn queries_report_installed_configuration() {
        let s = fresh();
        let rates = s.active_rates().unwrap();
        assert!(!rates.is_empty());
        assert!(rates.iter().all(|&(_, p)| p > 0.0 && p <= 1.0));
        let (mean, worst, best) = s.accuracy(5, 1).unwrap();
        assert!(worst <= mean && mean <= best);
        assert!(best <= 1.0 + 1e-9);
    }

    #[test]
    fn non_mutating_command_rejected_as_event() {
        let mut s = fresh();
        assert!(s.apply_event(&Request::Ping, false).is_err());
    }

    #[test]
    fn exhausted_budget_keeps_last_good_rates_but_lands_the_mutation() {
        let mut s = fresh();
        let rates_before = s.installed().unwrap().rates_base.clone();
        let obj_before = s.installed().unwrap().objective;
        // A zero-iteration cap degrades both the warm attempt and the cold
        // escalation deterministically.
        s.set_chaos(SolverChaos::new().with_max_iters(0));
        let report = s
            .apply_event(&Request::SetTheta { theta: 50_000.0 }, false)
            .unwrap();
        assert!(report.degraded);
        assert!(!report.kkt);
        assert_eq!(report.fallback, Some("last_good"));
        // The spec mutation landed; the served rates did not move.
        assert_eq!(s.theta(), 50_000.0);
        let inst = s.installed().unwrap();
        assert!(inst.kkt, "last-good configuration stays certified");
        assert_eq!(inst.objective, obj_before);
        for (a, b) in inst.rates_base.iter().zip(&rates_before) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Lifting the cap re-certifies on the next event.
        s.set_chaos(SolverChaos::new());
        let report = s
            .apply_event(&Request::SetTheta { theta: 60_000.0 }, false)
            .unwrap();
        assert!(!report.degraded);
        assert!(report.kkt);
        assert_eq!(report.fallback, None);
        assert!(s.installed().unwrap().kkt);
    }

    #[test]
    fn degraded_startup_installs_best_effort_rates() {
        // With nothing installed there is no last-good to fall back on:
        // the feasible-but-uncertified point is served rather than nothing.
        let mut s = ServiceState::from_task(&janet_task(), PlacementConfig::default());
        s.set_chaos(SolverChaos::new().with_max_iters(0));
        let report = s.resolve(false).unwrap();
        assert!(report.degraded);
        assert_eq!(report.fallback, None);
        let inst = s.installed().expect("best-effort rates installed");
        assert!(!inst.kkt);
        assert!(inst.rates_base.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn budget_below_the_snap_tolerance_installs_a_degraded_plan() {
        let task = nws_core::scenarios::janet_task_with(1e-6, nws_core::scenarios::BACKGROUND_SEED)
            .unwrap();
        let mut s = ServiceState::from_task(&task, PlacementConfig::default());
        let report = s.resolve(false).unwrap();
        assert!(report.degraded);
        assert!(!report.kkt);
        let inst = s.installed().expect("best-effort rates installed");
        assert!(
            !inst.kkt,
            "a plan that never certified is served as degraded"
        );
    }

    #[test]
    fn chaos_panic_fires_exactly_once_across_clones() {
        let mut s = fresh();
        s.set_chaos(SolverChaos::new().with_panic_on_resolve(0));
        // The first resolve after arming panics…
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = s.resolve(false);
        }));
        assert!(panicked.is_err());
        // …and the shared counter means a clone cannot re-trigger it, so
        // the daemon's retry of the *next* event succeeds.
        let report = s
            .apply_event(&Request::SetTheta { theta: 70_000.0 }, false)
            .unwrap();
        assert!(report.kkt);
    }

    #[test]
    fn persisted_roundtrip_is_bit_exact() {
        let mut s = fresh();
        s.snapshot();
        s.apply_event(&Request::SetTheta { theta: 90_000.0 }, false)
            .unwrap();
        s.apply_event(
            &Request::FailLink {
                a: "FR".into(),
                b: "LU".into(),
            },
            false,
        )
        .unwrap();
        let doc = s.persisted();

        let mut restored = ServiceState::from_task(&janet_task(), PlacementConfig::default());
        restored.restore_persisted(&doc).unwrap();
        // The document re-encodes identically after a restore…
        assert_eq!(restored.persisted().encode(), doc.encode());
        // …and the rate vector survives the JSON round trip bit-for-bit.
        let original = &s.installed().unwrap().rates_base;
        let recovered = &restored.installed().unwrap().rates_base;
        assert_eq!(original.len(), recovered.len());
        for (a, b) in original.iter().zip(recovered) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(restored.theta(), 90_000.0);
        assert_eq!(restored.failed_fibres().len(), 1);
        assert_eq!(restored.snapshot_depth(), 1);
        // The restored snapshot stack is live: rollback reinstates the
        // pre-mutation objective.
        let obj0 = doc.get("stack").unwrap().as_arr().unwrap()[0]
            .get("installed")
            .unwrap()
            .get("objective")
            .unwrap()
            .as_f64()
            .unwrap();
        let (_, rolled) = restored.rollback().unwrap();
        assert_eq!(rolled, Some(obj0));
    }

    #[test]
    fn restore_rejects_malformed_documents() {
        let base = fresh();
        let good = base.persisted();
        let mut s = ServiceState::from_task(&janet_task(), PlacementConfig::default());
        type Pairs = Vec<(String, Json)>;
        let corrupt = |edit: &dyn Fn(&mut Pairs)| {
            let mut doc = good.clone();
            if let Json::Obj(pairs) = &mut doc {
                edit(pairs);
            }
            doc
        };
        let fibres = |list: &[(&str, &str)]| {
            Json::Arr(
                list.iter()
                    .map(|(a, b)| {
                        Json::Arr(vec![Json::Str(a.to_string()), Json::Str(b.to_string())])
                    })
                    .collect(),
            )
        };
        let set_failed = |p: &mut Pairs, list: &[(&str, &str)]| {
            p.iter_mut().find(|(k, _)| k == "failed").unwrap().1 = fibres(list);
        };
        // A snapshot frame: the good document's own spec with `failed`.
        let frame = |list: &[(&str, &str)]| {
            let mut frame = good.clone();
            if let Json::Obj(pairs) = &mut frame {
                pairs.retain(|(k, _)| ["ods", "theta", "installed"].contains(&k.as_str()));
                pairs.push(("failed".into(), fibres(list)));
            }
            frame
        };
        let cases: Vec<Json> = vec![
            corrupt(&|p| p.retain(|(k, _)| k != "version")),
            corrupt(&|p| p[0].1 = Json::UInt(2)), // version 2
            corrupt(&|p| p.iter_mut().find(|(k, _)| k == "theta").unwrap().1 = Json::Num(-1.0)),
            corrupt(&|p| p.iter_mut().find(|(k, _)| k == "ods").unwrap().1 = Json::Arr(vec![])),
            corrupt(&|p| set_failed(p, &[("NOPE", "UK")])),
            corrupt(&|p| {
                // Rate vector of the wrong length.
                p.iter_mut().find(|(k, _)| k == "installed").unwrap().1 = obj(vec![
                    ("rates", Json::Arr(vec![Json::Num(0.5)])),
                    ("objective", Json::Num(1.0)),
                    ("lambda", Json::Num(1.0)),
                    ("active_monitors", Json::UInt(1)),
                    ("kkt", Json::Bool(true)),
                ])
            }),
        ];
        for doc in cases {
            assert!(
                s.restore_persisted(&doc).is_err(),
                "accepted {}",
                doc.encode()
            );
            // A failed restore leaves the state untouched.
            assert!(s.installed().is_none());
        }
        // Cuts `fail_link` rejects are rejected with its messages, at the
        // top level and in every stack frame.
        let set_stack = |frames: Vec<Json>| {
            corrupt(&move |p| {
                p.iter_mut().find(|(k, _)| k == "stack").unwrap().1 = Json::Arr(frames.clone())
            })
        };
        for (doc, message) in [
            (
                corrupt(&|p| set_failed(p, &[("UK", "FR"), ("FR", "UK")])),
                "fibre FR–UK is already failed",
            ),
            (
                corrupt(&|p| set_failed(p, &[("IE", "SK")])),
                "no fibre between 'IE' and 'SK'",
            ),
            (
                set_stack(vec![frame(&[("FR", "LU")]), frame(&[("IE", "SK")])]),
                "stack[1]: no fibre between 'IE' and 'SK'",
            ),
            (
                set_stack(vec![frame(&[("LU", "FR"), ("FR", "LU")])]),
                "stack[0]: fibre FR–LU is already failed",
            ),
        ] {
            let err = s.restore_persisted(&doc).unwrap_err();
            assert_eq!(err.to_string(), format!("persisted state: {message}"));
            assert!(s.installed().is_none());
        }
        // The pristine document still restores, and so does a valid stack.
        assert!(s.restore_persisted(&good).is_ok());
        let stacked = set_stack(vec![frame(&[("FR", "LU"), ("UK", "SE")])]);
        assert!(s.restore_persisted(&stacked).is_ok());
        assert_eq!(s.snapshot_depth(), 1);
    }

    #[test]
    fn disconnecting_an_untracked_node_degrades_gracefully() {
        // IE is single-homed to UK in GEANT and no janet OD targets it:
        // failing UK–IE must re-solve fine on the survivor graph…
        let mut s = fresh();
        let fail_ie = Request::FailLink {
            a: "UK".into(),
            b: "IE".into(),
        };
        let report = s.apply_event(&fail_ie, false).unwrap();
        assert!(report.kkt);
        // …but an OD into the disconnected island is rejected cleanly.
        let od_to_island = Request::AddOd {
            name: "JANET-IE".into(),
            src: "JANET".into(),
            dst: "IE".into(),
            size: 5_000.0,
        };
        assert!(s.apply_event(&od_to_island, false).is_err());
        assert_eq!(s.ods().len(), 20);
        assert_eq!(s.failed_fibres().len(), 1);

        // Conversely: with the OD tracked first, the failure that would
        // strand it is rejected and the state stays whole.
        s.apply_event(
            &Request::RestoreLink {
                a: "UK".into(),
                b: "IE".into(),
            },
            false,
        )
        .unwrap();
        s.apply_event(&od_to_island, false).unwrap();
        assert_eq!(s.ods().len(), 21);
        assert!(s.apply_event(&fail_ie, false).is_err());
        assert!(s.failed_fibres().is_empty());
        assert!(s.installed().is_some());
    }
}
