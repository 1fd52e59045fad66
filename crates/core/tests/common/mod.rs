//! Task transformations shared by the integration tests.

use nws_core::MeasurementTask;

/// Rebuilds `base` with each OD size scaled by its multiplier,
/// keeping background, θ, and α unchanged.
pub fn perturbed_task(base: &MeasurementTask, mults: &[f64]) -> MeasurementTask {
    let sizes: Vec<f64> = base.ods().iter().map(|o| o.size).collect();
    let tracked = base.routing().link_loads(&sizes);
    let background: Vec<f64> = base
        .link_loads()
        .iter()
        .zip(&tracked)
        .map(|(total, t)| (total - t).max(0.0))
        .collect();
    let mut builder = MeasurementTask::builder(base.topology().clone());
    for (od, m) in base.ods().iter().zip(mults) {
        builder = builder.track(od.name.clone(), od.od, od.size * m);
    }
    builder
        .background_loads(&background)
        .theta(base.theta())
        .alpha(base.alpha()[0])
        .build()
        .expect("perturbed task stays valid")
}
