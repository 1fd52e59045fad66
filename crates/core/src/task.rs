//! Measurement-task definition.

use crate::CoreError;
use nws_routing::{OdPair, RoutingMatrix};
use nws_topo::{LinkId, Topology};

/// One OD pair the operator wants to track, with its ground-truth size.
#[derive(Debug, Clone)]
pub struct TrackedOd {
    /// Display name, e.g. `"JANET-NL"`.
    pub name: String,
    /// The pair itself.
    pub od: OdPair,
    /// Ground-truth size in packets per measurement interval (`S_k`).
    pub size: f64,
    /// `c_k = E[1/S_k]` driving the utility; defaults to `1/size`.
    pub inv_mean_size: f64,
}

/// A fully specified instance of the paper's placement problem:
/// topology, tracked OD set `F`, routing matrix `R`, link loads `U`,
/// capacity `θ` and per-link rate caps `α` (paper §III).
///
/// Built through [`TaskBuilder`]; immutable afterwards.
#[derive(Debug, Clone)]
pub struct MeasurementTask {
    topo: Topology,
    ods: Vec<TrackedOd>,
    routing: RoutingMatrix,
    link_loads: Vec<f64>,
    theta: f64,
    alpha: Vec<f64>,
    candidate_links: Vec<LinkId>,
}

/// Incremental construction of a [`MeasurementTask`].
#[derive(Debug)]
pub struct TaskBuilder {
    topo: Topology,
    ods: Vec<TrackedOd>,
    background_loads: Vec<f64>,
    theta: f64,
    alpha_uniform: f64,
    restriction: Option<Vec<LinkId>>,
}

impl MeasurementTask {
    /// Starts building a task over `topo`.
    pub fn builder(topo: Topology) -> TaskBuilder {
        let n_links = topo.num_links();
        TaskBuilder {
            topo,
            ods: Vec::new(),
            background_loads: vec![0.0; n_links],
            theta: 0.0,
            alpha_uniform: 1.0,
            restriction: None,
        }
    }

    /// The topology the task is defined over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The tracked OD pairs (the set `F`).
    pub fn ods(&self) -> &[TrackedOd] {
        &self.ods
    }

    /// The routing matrix `R` of the tracked pairs.
    pub fn routing(&self) -> &RoutingMatrix {
        &self.routing
    }

    /// Total per-link loads `U_i` in packets per interval (background plus
    /// tracked traffic).
    pub fn link_loads(&self) -> &[f64] {
        &self.link_loads
    }

    /// The system sampling capacity `θ` (max sampled packets per interval).
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Per-link maximum sampling rates `α_i`.
    pub fn alpha(&self) -> &[f64] {
        &self.alpha
    }

    /// Links eligible to host a monitor for this task: monitorable
    /// (backbone) links that carry at least one tracked OD and have positive
    /// load, intersected with any user restriction — the set `L` of §III.
    pub fn candidate_links(&self) -> &[LinkId] {
        &self.candidate_links
    }

    /// Returns a copy of this task with a different capacity `θ` — the
    /// parameter swept by the paper's Figure 2.
    ///
    /// # Errors
    /// [`CoreError::InvalidTask`] if `new_theta` is not positive and finite.
    pub fn with_theta(&self, new_theta: f64) -> Result<MeasurementTask, CoreError> {
        if !(new_theta.is_finite() && new_theta > 0.0) {
            return Err(CoreError::InvalidTask(format!(
                "theta must be positive and finite, got {new_theta}"
            )));
        }
        let mut t = self.clone();
        t.theta = new_theta;
        Ok(t)
    }

    /// Returns a copy restricted to candidate links within `allowed` — used
    /// by the paper's "UK links only" comparison (§V-C).
    ///
    /// # Errors
    /// [`CoreError::InvalidTask`] if the intersection is empty.
    pub fn restricted_to(&self, allowed: &[LinkId]) -> Result<MeasurementTask, CoreError> {
        let filtered: Vec<LinkId> = self
            .candidate_links
            .iter()
            .copied()
            .filter(|l| allowed.contains(l))
            .collect();
        if filtered.is_empty() {
            return Err(CoreError::InvalidTask(
                "link restriction leaves no candidate monitors".into(),
            ));
        }
        let mut t = self.clone();
        t.candidate_links = filtered;
        Ok(t)
    }
}

impl TaskBuilder {
    /// Adds a tracked OD pair with ground-truth `size` packets/interval and
    /// the default `c = 1/size`.
    pub fn track(mut self, name: impl Into<String>, od: OdPair, size: f64) -> Self {
        let name = name.into();
        self.ods.push(TrackedOd {
            name,
            od,
            size,
            inv_mean_size: 1.0 / size,
        });
        self
    }

    /// Adds a tracked OD pair with an explicit `c = E[1/S]` (when the OD size
    /// fluctuates across intervals, `E[1/S] ≠ 1/E[S]`).
    pub fn track_with_c(
        mut self,
        name: impl Into<String>,
        od: OdPair,
        size: f64,
        inv_mean_size: f64,
    ) -> Self {
        self.ods.push(TrackedOd {
            name: name.into(),
            od,
            size,
            inv_mean_size,
        });
        self
    }

    /// Adds background load (packets per interval per link), e.g. from
    /// [`nws_traffic::demand::DemandMatrix::link_loads`].
    ///
    /// # Panics
    /// Panics if the vector length does not match the topology.
    pub fn background_loads(mut self, loads: &[f64]) -> Self {
        assert_eq!(
            loads.len(),
            self.background_loads.len(),
            "background load vector length mismatch"
        );
        for (acc, &l) in self.background_loads.iter_mut().zip(loads) {
            *acc += l;
        }
        self
    }

    /// Sets the sampling capacity `θ` in packets per interval.
    pub fn theta(mut self, theta: f64) -> Self {
        self.theta = theta;
        self
    }

    /// Sets a uniform per-link maximum sampling rate `α` (default 1.0 — no
    /// cap, as in the paper's Table I experiment).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha_uniform = alpha;
        self
    }

    /// Restricts candidate monitors to the given links (on top of the
    /// built-in monitorability and coverage filters).
    pub fn restrict_links(mut self, links: Vec<LinkId>) -> Self {
        self.restriction = Some(links);
        self
    }

    /// Validates and assembles the task: the routing step (shortest-path
    /// routing with even ECMP splitting of the tracked pairs), then
    /// [`TaskBuilder::build_with_routing`].
    ///
    /// # Errors
    /// [`CoreError::InvalidTask`] for empty OD sets, non-positive sizes or
    /// `c ∉ (0,1)`, bad `θ`/`α`, unroutable OD pairs, or an empty candidate
    /// monitor set.
    pub fn build(self) -> Result<MeasurementTask, CoreError> {
        let pairs: Vec<OdPair> = self.ods.iter().map(|o| o.od).collect();
        let routing = RoutingMatrix::build(&self.topo, &pairs);
        self.build_with_routing(routing)
    }

    /// The assembly step of [`TaskBuilder::build`]: validates and assembles
    /// the task around a routing matrix the caller already has. Routing
    /// depends only on the topology and the tracked pairs' endpoints, so a
    /// caller whose demands, `θ` or `α` move over fixed routes can route
    /// once and derive every later task (link loads, `c`, candidate set)
    /// from the same matrix, with the same checks and results as `build`.
    ///
    /// # Errors
    /// As [`TaskBuilder::build`], plus [`CoreError::InvalidTask`] when
    /// `routing`'s rows are not the tracked pairs in order or its columns
    /// are not the topology's links.
    pub fn build_with_routing(self, routing: RoutingMatrix) -> Result<MeasurementTask, CoreError> {
        if self.ods.is_empty() {
            return Err(CoreError::InvalidTask("no tracked OD pairs".into()));
        }
        if !(self.theta.is_finite() && self.theta > 0.0) {
            return Err(CoreError::InvalidTask(format!(
                "theta must be positive and finite, got {}",
                self.theta
            )));
        }
        if !(self.alpha_uniform.is_finite()
            && self.alpha_uniform > 0.0
            && self.alpha_uniform <= 1.0)
        {
            return Err(CoreError::InvalidTask(format!(
                "alpha must be in (0,1], got {}",
                self.alpha_uniform
            )));
        }
        for od in &self.ods {
            if !(od.size.is_finite() && od.size > 1.0) {
                return Err(CoreError::InvalidTask(format!(
                    "OD {} size must exceed 1 packet/interval, got {}",
                    od.name, od.size
                )));
            }
            if !(od.inv_mean_size.is_finite() && od.inv_mean_size > 0.0 && od.inv_mean_size < 1.0) {
                return Err(CoreError::InvalidTask(format!(
                    "OD {} has E[1/S] = {} outside (0,1)",
                    od.name, od.inv_mean_size
                )));
            }
        }

        if routing.num_links() != self.topo.num_links()
            || !routing.ods().iter().eq(self.ods.iter().map(|o| &o.od))
        {
            return Err(CoreError::InvalidTask(
                "routing matrix does not match the tracked pairs and topology".into(),
            ));
        }
        for (k, od) in self.ods.iter().enumerate() {
            if routing.row(k).is_empty() {
                return Err(CoreError::InvalidTask(format!(
                    "OD {} is unroutable (no path)",
                    od.name
                )));
            }
        }

        // Total loads: background + the tracked traffic itself.
        let sizes: Vec<f64> = self.ods.iter().map(|o| o.size).collect();
        let tracked_loads = routing.link_loads(&sizes);
        let link_loads: Vec<f64> = self
            .background_loads
            .iter()
            .zip(&tracked_loads)
            .map(|(b, t)| b + t)
            .collect();

        // Candidate set L: monitorable, covered by F, positive load, within
        // restriction.
        let candidate_links: Vec<LinkId> = routing
            .covered_links()
            .into_iter()
            .filter(|&l| self.topo.link(l).monitorable())
            .filter(|&l| link_loads[l.index()] > 0.0)
            .filter(|&l| self.restriction.as_ref().is_none_or(|r| r.contains(&l)))
            .collect();
        if candidate_links.is_empty() {
            return Err(CoreError::InvalidTask(
                "no candidate monitor links (check monitorability/restriction)".into(),
            ));
        }

        let alpha = vec![self.alpha_uniform; self.topo.num_links()];
        Ok(MeasurementTask {
            topo: self.topo,
            ods: self.ods,
            routing,
            link_loads,
            theta: self.theta,
            alpha,
            candidate_links,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_topo::geant;

    fn janet_pair(topo: &Topology, dst: &str) -> OdPair {
        OdPair::new(
            topo.require_node("JANET").unwrap(),
            topo.require_node(dst).unwrap(),
        )
    }

    #[test]
    fn build_small_task() {
        let topo = geant();
        let nl = janet_pair(&topo, "NL");
        let lu = janet_pair(&topo, "LU");
        let task = MeasurementTask::builder(topo)
            .track("JANET-NL", nl, 9e6)
            .track("JANET-LU", lu, 6000.0)
            .theta(100_000.0)
            .build()
            .unwrap();
        assert_eq!(task.ods().len(), 2);
        assert_eq!(task.theta(), 100_000.0);
        // Candidates: UK-NL, UK-FR, FR-LU (access link excluded).
        assert_eq!(task.candidate_links().len(), 3);
        for &l in task.candidate_links() {
            assert!(task.topology().link(l).monitorable());
        }
        // Loads include the tracked traffic itself.
        let uk = task.topology().require_node("UK").unwrap();
        let nl_node = task.topology().require_node("NL").unwrap();
        let uk_nl = task.topology().link_between(uk, nl_node).unwrap();
        assert!(task.link_loads()[uk_nl.index()] >= 9e6);
    }

    #[test]
    fn background_adds_to_loads() {
        let topo = geant();
        let nl = janet_pair(&topo, "NL");
        let n_links = topo.num_links();
        let bg = vec![1000.0; n_links];
        let task = MeasurementTask::builder(topo)
            .track("JANET-NL", nl, 9e6)
            .background_loads(&bg)
            .theta(1e4)
            .build()
            .unwrap();
        for &l in task.candidate_links() {
            assert!(task.link_loads()[l.index()] >= 1000.0);
        }
    }

    #[test]
    fn c_defaults_to_inverse_size() {
        let topo = geant();
        let nl = janet_pair(&topo, "NL");
        let task = MeasurementTask::builder(topo)
            .track("JANET-NL", nl, 10_000.0)
            .theta(100.0)
            .build()
            .unwrap();
        assert!((task.ods()[0].inv_mean_size - 1e-4).abs() < 1e-18);
    }

    #[test]
    fn empty_od_set_rejected() {
        let err = MeasurementTask::builder(geant())
            .theta(10.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidTask(_)));
    }

    #[test]
    fn bad_theta_rejected() {
        let topo = geant();
        let nl = janet_pair(&topo, "NL");
        let err = MeasurementTask::builder(topo)
            .track("x", nl, 1000.0)
            .theta(0.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidTask(_)));
    }

    #[test]
    fn bad_alpha_rejected() {
        let topo = geant();
        let nl = janet_pair(&topo, "NL");
        let err = MeasurementTask::builder(topo)
            .track("x", nl, 1000.0)
            .theta(10.0)
            .alpha(1.5)
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidTask(_)));
    }

    #[test]
    fn tiny_size_rejected() {
        let topo = geant();
        let nl = janet_pair(&topo, "NL");
        let err = MeasurementTask::builder(topo)
            .track("x", nl, 0.5)
            .theta(10.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidTask(_)));
    }

    #[test]
    fn restriction_applied_and_validated() {
        let topo = geant();
        let uk = topo.require_node("UK").unwrap();
        let nl_node = topo.require_node("NL").unwrap();
        let uk_nl = topo.link_between(uk, nl_node).unwrap();
        let nl = janet_pair(&topo, "NL");
        let lu = janet_pair(&topo, "LU");

        let task = MeasurementTask::builder(topo)
            .track("JANET-NL", nl, 9e6)
            .track("JANET-LU", lu, 6000.0)
            .theta(1e4)
            .restrict_links(vec![uk_nl])
            .build()
            .unwrap();
        assert_eq!(task.candidate_links(), &[uk_nl]);

        // restricted_to on an already-built task.
        let err = task.restricted_to(&[]).unwrap_err();
        assert!(matches!(err, CoreError::InvalidTask(_)));
    }

    #[test]
    fn build_with_routing_matches_build_and_checks_the_matrix() {
        let topo = geant();
        let nl = janet_pair(&topo, "NL");
        let lu = janet_pair(&topo, "LU");
        let builder = |sizes: [f64; 2]| {
            MeasurementTask::builder(topo.clone())
                .track("JANET-NL", nl, sizes[0])
                .track("JANET-LU", lu, sizes[1])
                .background_loads(&vec![500.0; topo.num_links()])
                .theta(1e4)
        };
        let routed = builder([9e6, 6000.0]).build().unwrap();
        // The same routes under other demands: identical to a full build.
        let reused = builder([2e6, 7000.0])
            .build_with_routing(routed.routing().clone())
            .unwrap();
        let rebuilt = builder([2e6, 7000.0]).build().unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(reused.link_loads()), bits(rebuilt.link_loads()));
        assert_eq!(reused.candidate_links(), rebuilt.candidate_links());
        for (a, b) in reused.ods().iter().zip(rebuilt.ods()) {
            assert_eq!(a.inv_mean_size.to_bits(), b.inv_mean_size.to_bits());
        }
        // A matrix routed for other pairs is rejected, not trusted.
        let other = RoutingMatrix::build(&topo, &[lu, nl]);
        let err = builder([2e6, 7000.0])
            .build_with_routing(other)
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidTask(_)));
    }

    #[test]
    fn with_theta_copies() {
        let topo = geant();
        let nl = janet_pair(&topo, "NL");
        let task = MeasurementTask::builder(topo)
            .track("x", nl, 1e6)
            .theta(100.0)
            .build()
            .unwrap();
        let t2 = task.with_theta(500.0).unwrap();
        assert_eq!(t2.theta(), 500.0);
        assert_eq!(task.theta(), 100.0);
        assert!(task.with_theta(-1.0).is_err());
    }
}
