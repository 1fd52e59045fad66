//! Seeded day-long trace generation: diurnal demand with staggered peaks,
//! multiplicative per-OD noise, flash crowds with exponential decay, and
//! link flaps on fibres proven safe to fail.
//!
//! Everything is drawn from one `StdRng` in a fixed order, so a given
//! `(base state, config)` pair always produces the identical trace — the
//! replay acceptance gate depends on this.

use crate::trace::{LinkEvent, Trace, TraceHeader, TraceTick};
use nws_service::{Request, ServiceState};
use nws_traffic::dist::LogNormal;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Demands below this floor are clamped up so every generated size passes
/// the protocol's `size > 1` packet bound with margin.
const MIN_SIZE: f64 = 1.5;

/// Shape of the generated day.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Number of ticks (measurement intervals) to generate.
    pub ticks: u64,
    /// Diurnal period in ticks (48 ticks of 30 min = one day).
    pub period: u64,
    /// Peak-to-trough demand ratio of the sinusoid (≥ 1; 1 = flat).
    pub diurnal_swing: f64,
    /// Coefficient of variation of the per-(tick, OD) lognormal noise.
    pub noise_cv: f64,
    /// Fraction of the period the OD peaks are staggered across (time
    /// zones): OD `k` of `n` peaks `phase_spread·k/n` periods later.
    pub phase_spread: f64,
    /// Number of flash-crowd surges to inject.
    pub flash_crowds: u64,
    /// Demand multiplier at the instant a flash crowd starts (≥ 1).
    pub flash_magnitude: f64,
    /// Exponential decay rate of a surge per tick (factor
    /// `1 + (m−1)·e^{−decay·Δt}`).
    pub flash_decay: f64,
    /// Number of link flaps (`fail_link` … `restore_link`) to inject.
    pub link_flaps: u64,
    /// Ticks between a flap's fail and restore events.
    pub flap_duration: u64,
    /// RNG seed; same seed → byte-identical trace.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            ticks: 48,
            period: 48,
            diurnal_swing: 3.0,
            noise_cv: 0.05,
            phase_spread: 0.25,
            flash_crowds: 2,
            flash_magnitude: 4.0,
            flash_decay: 0.5,
            link_flaps: 1,
            flap_duration: 6,
            seed: 42,
        }
    }
}

/// One scheduled flash crowd.
struct Flash {
    start: u64,
    ods: Vec<usize>,
}

/// One scheduled link flap (fail at `start`, restore at `start + duration`).
struct Flap {
    fibre: (String, String),
    start: u64,
    end: u64,
}

/// Fibres whose solo failure leaves every tracked OD routable *and* the
/// placement solvable — the safe targets for generated flaps. Each
/// candidate is proven by failing it on a scratch copy and re-solving.
pub fn flappable_fibres(base: &ServiceState) -> Vec<(String, String)> {
    base.fibres()
        .into_iter()
        .filter(|(a, b)| {
            let mut probe = base.clone();
            probe
                .mutate_spec(&Request::FailLink {
                    a: a.clone(),
                    b: b.clone(),
                })
                .is_ok()
                && probe.resolve(false).is_ok()
        })
        .collect()
}

/// Generates a trace for `base`'s OD set under `cfg`. Flash crowds and
/// link flaps are placed randomly but deterministically; flaps only land
/// on [`flappable_fibres`] and never overlap in time, so a replayer can
/// apply the stream without ever hitting an unsolvable epoch. If fewer
/// safe slots exist than requested, the surplus flaps are dropped.
///
/// # Panics
/// Panics on a degenerate config (`ticks`/`period` of 0, swing < 1).
pub fn generate_trace(base: &ServiceState, cfg: &GeneratorConfig) -> Trace {
    assert!(cfg.ticks > 0, "need at least one tick");
    assert!(cfg.period > 0, "period must be positive");
    assert!(cfg.diurnal_swing >= 1.0, "diurnal swing must be ≥ 1");
    assert!(cfg.flash_magnitude >= 1.0, "flash magnitude must be ≥ 1");
    assert!(cfg.flap_duration > 0, "flap duration must be positive");

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let noise = LogNormal::from_mean_cv(1.0, cfg.noise_cv.max(0.0));
    let ods: Vec<(String, f64)> = base
        .ods()
        .iter()
        .map(|o| (o.name.clone(), o.size))
        .collect();
    let n = ods.len();

    // Schedule flash crowds: random start, a random non-empty OD subset.
    let mut flashes: Vec<Flash> = Vec::new();
    for _ in 0..cfg.flash_crowds {
        let start = rng.random_range(1..cfg.ticks.max(2));
        let mut members: Vec<usize> = (0..n).filter(|_| rng.random_bool(0.25)).collect();
        if members.is_empty() {
            members.push(rng.random_range(0..n));
        }
        flashes.push(Flash {
            start,
            ods: members,
        });
    }

    // Schedule link flaps on provably safe fibres, non-overlapping in time
    // (concurrent failures are not individually proven safe).
    let mut flaps: Vec<Flap> = Vec::new();
    if cfg.link_flaps > 0 && cfg.ticks > cfg.flap_duration + 1 {
        let candidates = flappable_fibres(base);
        if !candidates.is_empty() {
            let mut attempts = 0;
            while (flaps.len() as u64) < cfg.link_flaps && attempts < 64 {
                attempts += 1;
                let fibre = candidates[rng.random_range(0..candidates.len())].clone();
                let start = rng.random_range(1..cfg.ticks - cfg.flap_duration);
                let end = start + cfg.flap_duration;
                let clear = flaps.iter().all(|f| end + 1 < f.start || start > f.end + 1);
                if clear {
                    flaps.push(Flap { fibre, start, end });
                }
            }
        }
    }

    let diurnal = |phase: f64| -> f64 {
        1.0 + (cfg.diurnal_swing - 1.0) * 0.5 * (1.0 - (2.0 * std::f64::consts::PI * phase).cos())
    };

    let mut ticks = Vec::with_capacity(cfg.ticks as usize);
    for t in 0..cfg.ticks {
        let phase = (t % cfg.period) as f64 / cfg.period as f64;
        let demands: Vec<(String, f64)> = ods
            .iter()
            .enumerate()
            .map(|(k, (name, size))| {
                let offset = cfg.phase_spread * k as f64 / n.max(1) as f64;
                let mut factor = diurnal(phase + offset);
                for flash in &flashes {
                    if t >= flash.start && flash.ods.contains(&k) {
                        let dt = (t - flash.start) as f64;
                        factor *= 1.0 + (cfg.flash_magnitude - 1.0) * (-cfg.flash_decay * dt).exp();
                    }
                }
                let sample = size * factor * noise.sample(&mut rng);
                (name.clone(), sample.max(MIN_SIZE))
            })
            .collect();
        let mut events = Vec::new();
        for flap in &flaps {
            let (a, b) = flap.fibre.clone();
            if flap.start == t {
                events.push(LinkEvent::Fail { a, b });
            } else if flap.end == t {
                events.push(LinkEvent::Restore { a, b });
            }
        }
        ticks.push(TraceTick { t, demands, events });
    }

    Trace {
        header: TraceHeader {
            seed: cfg.seed,
            ticks: cfg.ticks,
            ods,
        },
        ticks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_core::scenarios::janet_task;
    use nws_core::PlacementConfig;

    fn base() -> ServiceState {
        ServiceState::from_task(&janet_task(), PlacementConfig::default())
    }

    #[test]
    fn same_seed_same_trace() {
        let s = base();
        let cfg = GeneratorConfig::default();
        let a = generate_trace(&s, &cfg);
        let b = generate_trace(&s, &cfg);
        assert_eq!(a.encode(), b.encode(), "generation must be deterministic");
        let other = generate_trace(
            &s,
            &GeneratorConfig {
                seed: 43,
                ..cfg.clone()
            },
        );
        assert_ne!(a.encode(), other.encode());
    }

    #[test]
    fn trace_shape_matches_config() {
        let s = base();
        let cfg = GeneratorConfig::default();
        let trace = generate_trace(&s, &cfg);
        assert_eq!(trace.ticks.len() as u64, cfg.ticks);
        assert_eq!(trace.header.ods.len(), s.ods().len());
        for tick in &trace.ticks {
            assert_eq!(tick.demands.len(), s.ods().len());
            for (_, size) in &tick.demands {
                assert!(size.is_finite() && *size > 1.0);
            }
        }
        // Fail/restore events are paired and ordered.
        let fails: Vec<&TraceTick> = trace
            .ticks
            .iter()
            .filter(|t| t.events.iter().any(|e| matches!(e, LinkEvent::Fail { .. })))
            .collect();
        let restores: Vec<&TraceTick> = trace
            .ticks
            .iter()
            .filter(|t| {
                t.events
                    .iter()
                    .any(|e| matches!(e, LinkEvent::Restore { .. }))
            })
            .collect();
        assert_eq!(fails.len(), restores.len());
        assert_eq!(fails.len() as u64, cfg.link_flaps);
        for (f, r) in fails.iter().zip(&restores) {
            assert_eq!(r.t - f.t, cfg.flap_duration);
        }
    }

    #[test]
    fn flash_crowds_surge_and_decay() {
        let s = base();
        let cfg = GeneratorConfig {
            noise_cv: 0.0,
            flash_crowds: 1,
            flash_magnitude: 10.0,
            link_flaps: 0,
            ..GeneratorConfig::default()
        };
        let trace = generate_trace(&s, &cfg);
        // Without noise, the only difference from a flash-free day is the
        // surge itself: per-OD ratios against the flash-free baseline jump
        // at the surge start and decay back towards 1.
        let calm = generate_trace(
            &s,
            &GeneratorConfig {
                flash_crowds: 0,
                ..cfg.clone()
            },
        );
        let ratios: Vec<f64> = trace
            .ticks
            .iter()
            .zip(&calm.ticks)
            .map(|(a, b)| {
                a.demands
                    .iter()
                    .zip(&b.demands)
                    .map(|((_, x), (_, y))| x / y)
                    .fold(1.0_f64, f64::max)
            })
            .collect();
        let peak = ratios.iter().fold(1.0_f64, |m, &r| m.max(r));
        assert!(
            peak > cfg.flash_magnitude * 0.8,
            "no surge visible: peak ratio {peak}"
        );
        // After the peak, the surge decays monotonically back under 2×.
        let peak_at = ratios.iter().position(|&r| r == peak).unwrap();
        if peak_at + 6 < ratios.len() {
            assert!(ratios[peak_at + 6] < peak / 2.0, "surge failed to decay");
        }
    }

    #[test]
    fn noiseless_series_spans_size_to_swing_times_size() {
        let s = base();
        let cfg = GeneratorConfig {
            ticks: 8,
            period: 8,
            diurnal_swing: 3.0,
            noise_cv: 0.0,
            phase_spread: 0.0,
            flash_crowds: 0,
            link_flaps: 0,
            ..GeneratorConfig::default()
        };
        let trace = generate_trace(&s, &cfg);
        for (k, (name, size)) in trace.header.ods.iter().enumerate() {
            let series: Vec<f64> = trace.ticks.iter().map(|t| t.demands[k].1 / size).collect();
            let lo = series.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = series.iter().cloned().fold(0.0, f64::max);
            assert!((lo - 1.0).abs() < 0.01, "{name}: trough {lo}");
            assert!(
                (hi - cfg.diurnal_swing).abs() < 0.01 * cfg.diurnal_swing,
                "{name}: peak {hi}"
            );
        }
    }

    #[test]
    fn flappable_fibres_exclude_stranding_cuts() {
        let s = base();
        let safe = flappable_fibres(&s);
        assert!(!safe.is_empty(), "GEANT must have safe fibres");
        // FR–LU is the session fixtures' known-safe failure.
        assert!(safe.contains(&("FR".to_string(), "LU".to_string())));
        // Every safe fibre really does re-solve when failed.
        for (a, b) in safe.iter().take(3) {
            let mut probe = s.clone();
            probe
                .mutate_spec(&Request::FailLink {
                    a: a.clone(),
                    b: b.clone(),
                })
                .unwrap();
            probe.resolve(false).unwrap();
        }
    }
}
