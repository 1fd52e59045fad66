//! Latency sample storage, percentiles, and the machine context recorded
//! with every result.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// A latency buffer allocated and written once before the timed phase, so
/// the benchmark's own memory does not grow with the speed of the program
/// under test (`peak_rss_mb` stays comparable between runs). Samples are
/// whole nanoseconds, kept in arrival order.
pub struct Samples {
    buf: Vec<u32>,
    len: usize,
    dropped: u64,
}

impl Samples {
    /// A buffer of `cap` samples; every page is written here, not during
    /// the timed phase.
    pub fn with_capacity(cap: usize) -> Self {
        let mut buf = vec![u32::MAX; cap.max(1)];
        black_box(&mut buf);
        Samples {
            buf,
            len: 0,
            dropped: 0,
        }
    }

    /// Records one latency (saturating at about 4.3 s); samples past the
    /// capacity are counted, not kept.
    pub fn push(&mut self, d: Duration) {
        if self.len < self.buf.len() {
            self.buf[self.len] = u32::try_from(d.as_nanos()).unwrap_or(u32::MAX);
            self.len += 1;
        } else {
            self.dropped += 1;
        }
    }

    /// Samples kept.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no sample was kept.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Samples that did not fit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Arithmetic mean of the kept samples in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let sum: u64 = self.buf[..self.len].iter().map(|&v| u64::from(v)).sum();
        sum as f64 / self.len as f64 / 1e6
    }

    /// Nearest-rank percentile `q` in milliseconds, with the number of
    /// samples that lie beyond it; `None` when empty. Sorts a copy, so the
    /// samples keep their arrival order.
    pub fn percentile_ms(&self, q: f64) -> Option<(f64, usize)> {
        let mut sorted = self.buf[..self.len].to_vec();
        sorted.sort_unstable();
        percentile_sorted(&sorted, q).map(|(v, beyond)| (f64::from(v) / 1e6, beyond))
    }
}

/// Nearest-rank percentile of sorted `values`: `(value, samples beyond)`.
pub fn percentile_sorted<T: Copy>(values: &[T], q: f64) -> Option<(T, usize)> {
    if values.is_empty() {
        return None;
    }
    let n = values.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some((values[rank - 1], n - rank))
}

/// Median of unsorted values (the mean of the two middle ones when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Iterations of the calibration loop: a fixed integer workload that
/// depends on nothing in the repository, so its time tracks the host only.
const CALIBRATION_STEPS: u64 = 8_000_000;

/// Times the fixed CPU calibration loop five times; returns the median in
/// milliseconds. A change in this number between runs is host drift, not
/// a program change.
pub fn calibrate_ms() -> f64 {
    let mut times = Vec::with_capacity(5);
    for round in 0..5u64 {
        let t0 = Instant::now();
        let mut x = black_box(0x9e37_79b9_7f4a_7c15u64 ^ round);
        for _ in 0..CALIBRATION_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
        }
        black_box(x);
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    median(&times)
}

/// Words in the speed probe's buffer: 384 KiB of `f64`, more than a
/// core's L1 data cache and less than its L2.
const PROBE_WORDS: usize = 48 * 1024;

/// The speed probe's time on the reference core, in microseconds. On a
/// shared 2-vCPU VM the probe took 57–60 µs while the host left the core
/// alone and 90–125 µs while other tenants shared it; 100 µs puts the
/// reference near the busier state, where that VM spent most of its time.
pub const REFERENCE_PROBE_US: f64 = 100.0;

/// How strongly an operation's time follows the probe's: when the probe
/// takes `k` times as long, a backbone replay tick takes about `k^0.75`
/// times as long. Fitted on a shared 2-vCPU VM, where regressions of log
/// tick time on log probe time gave 0.66 and 0.73 across the half-second
/// windows of two sets of runs, and 0.80 across ten 30-second runs; with
/// an exponent of 1 the scaled tick times of fast stretches came out about
/// 10% above those of slow ones. Every workload uses the same exponent.
pub const PROBE_ELASTICITY: f64 = 0.75;

/// A fixed floating-point kernel that streams over a 384 KiB buffer, timed
/// on the thread that times the operations it corrects (for the serving
/// workloads the client's thread, whose core need not be the daemon's).
///
/// On a shared host the speed of a core swings by up to 1.8× within
/// seconds, as other tenants come and go on the same core, and a whole run
/// can fall in a fast or a slow stretch. An integer loop in registers does
/// not see these swings; code that streams through the caches does, the
/// solver included. The probe is sampled beside the operations, and each
/// operation's time is scaled by ([`REFERENCE_PROBE_US`] / probe
/// time)^[`PROBE_ELASTICITY`], which gives its time on a core on which the
/// probe takes the reference time. The probe depends on nothing in the
/// repository, and its buffer is warmed before it is timed, so what the
/// program under test leaves in the caches does not change it.
pub struct SpeedProbe {
    buf: Vec<f64>,
    scale: f64,
}

impl Default for SpeedProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl SpeedProbe {
    /// A probe, sampled once.
    pub fn new() -> Self {
        let mut probe = SpeedProbe {
            buf: vec![1.0; PROBE_WORDS],
            scale: 1.0,
        };
        probe.sample();
        probe
    }

    fn pass(&mut self) -> f64 {
        let mut sum = 0.0;
        for (i, x) in self.buf.iter_mut().enumerate() {
            *x = *x * 0.999_999 + i as f64 * 1e-9;
            sum += *x;
        }
        black_box(sum)
    }

    /// Warms the buffer with one pass, times two more, and keeps the
    /// faster (an interrupt in one of them does not count). Returns the
    /// new scale.
    pub fn sample(&mut self) -> f64 {
        self.pass();
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let t0 = Instant::now();
            self.pass();
            best = best.min(t0.elapsed().as_secs_f64() * 1e6);
        }
        self.scale = (REFERENCE_PROBE_US / best).powf(PROBE_ELASTICITY);
        self.scale
    }

    /// The factor from time on this core to time on the reference core,
    /// as of the last sample.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

/// The quantile of the window rates reported as a stream's rate (see
/// [`Timings::window_rates`]).
///
/// On a shared 2-vCPU VM the host takes CPU time away from the benchmark
/// in bursts (the `steal` column of `/proc/stat` read 0.4% to 38% of the
/// VM's CPU time across 30-second runs of backbone_mixed), and the speed
/// probe cannot see it: the probe keeps the faster of two 60 µs passes,
/// which a burst seldom covers both of. A closed-loop reader beside a
/// writer's solves keeps both vCPUs busy and loses the most. Over ten
/// seeds in such a stretch the whole-phase read rate spread 43% (distance
/// between the quartiles over the median), the median window 34%, and the
/// 90th-percentile window 7%. Windows hit by a burst are slow; the fastest
/// tenth are those the host left alone, and each still holds its share of
/// the program's own work (a 256-read window spans a writer period, so
/// about one solve), so a program change moves them as it moves every
/// window. Only streams whose windows hold the same mix of work are
/// windowed: replay ticks differ with the trace's diurnal cycle and flash
/// crowds, and a quantile would pick each seed's easiest stretch.
pub const RATE_QUANTILE: f64 = 0.9;

/// The timing of one stream of operations on one thread: the latencies,
/// and the stream's wall time stretch by stretch, as measured and at
/// reference speed. The stream's [`SpeedProbe`] is sampled every `every`
/// operations, outside the timed intervals; the wall time at reference
/// speed scales each stretch between two samples by the scale measured at
/// its start and leaves the probe's own time out. Stretch records are
/// allocated up front, like the latency buffers.
pub struct Timings {
    /// Latencies as measured.
    pub raw: Samples,
    /// Latencies at reference speed.
    pub scaled: Samples,
    probe: SpeedProbe,
    every: usize,
    ops: usize,
    stretch: Instant,
    stretch_first_op: usize,
    /// Per closed stretch: operations, seconds as measured, seconds at
    /// reference speed.
    stretches: Vec<(usize, f64, f64)>,
    windowed: bool,
}

impl Timings {
    /// Buffers for `cap` operations; samples the probe now and every
    /// `every` operations.
    pub fn new(cap: usize, every: usize) -> Self {
        let every = every.max(1);
        Timings {
            raw: Samples::with_capacity(cap),
            scaled: Samples::with_capacity(cap),
            probe: SpeedProbe::new(),
            every,
            ops: 0,
            stretch: Instant::now(),
            stretch_first_op: 0,
            stretches: Vec::with_capacity(cap / every + 2),
            windowed: false,
        }
    }

    /// Reports the stream's rate window by window (see
    /// [`Timings::window_rates`]) rather than over the whole phase.
    pub fn windowed(mut self) -> Self {
        self.windowed = true;
        self
    }

    /// Called before each operation: starts the stream's wall time at the
    /// first, and samples the probe when one is due.
    pub fn before_op(&mut self) {
        if self.ops == 0 {
            self.stretch = Instant::now();
        } else if self.ops.is_multiple_of(self.every) {
            self.close_stretch();
            self.probe.sample();
            self.stretch = Instant::now();
        }
        self.ops += 1;
    }

    fn close_stretch(&mut self) {
        let s = self.stretch.elapsed().as_secs_f64();
        let n = self.ops - self.stretch_first_op;
        if n > 0 {
            self.stretches.push((n, s, s * self.probe.scale()));
        }
        self.stretch_first_op = self.ops;
    }

    /// Records one operation's latency.
    pub fn push(&mut self, d: Duration) {
        self.raw.push(d);
        self.scaled.push(d.mul_f64(self.probe.scale()));
    }

    /// Ends the stream's wall time.
    pub fn finish(&mut self) {
        self.close_stretch();
        self.stretch = Instant::now();
    }

    /// The stream's wall time in seconds, `(as measured, at reference
    /// speed)`, both without the probe's own time.
    pub fn wall_s(&self) -> (f64, f64) {
        self.stretches
            .iter()
            .fold((0.0, 0.0), |(w, s), &(_, sw, ss)| (w + sw, s + ss))
    }

    /// For a windowed stream, its rate window by window, in operations per
    /// second: `(at reference speed, as measured)`, each sorted; `None`
    /// otherwise. A window is one stretch between probe samples; a short
    /// last stretch is left out unless it is the only one.
    pub fn window_rates(&self) -> Option<(Vec<f64>, Vec<f64>)> {
        if !self.windowed {
            return None;
        }
        let mut windows: Vec<_> = self
            .stretches
            .iter()
            .filter(|s| s.0 == self.every)
            .collect();
        if windows.is_empty() {
            windows = self.stretches.iter().collect();
        }
        let mut scaled: Vec<f64> = windows.iter().map(|&&(n, _, s)| n as f64 / s).collect();
        let mut raw: Vec<f64> = windows.iter().map(|&&(n, w, _)| n as f64 / w).collect();
        scaled.sort_by(f64::total_cmp);
        raw.sort_by(f64::total_cmp);
        Some((scaled, raw))
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User + system CPU time of this process so far, in milliseconds, from
/// `/proc/self/stat` (clock ticks of 10 ms).
pub fn cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 10.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), Some((50.0, 50)));
        assert_eq!(percentile_sorted(&v, 0.99), Some((99.0, 1)));
        assert_eq!(percentile_sorted::<f64>(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn timings_scale_by_the_probe() {
        let mut t = Timings::new(4, 2);
        t.before_op();
        t.push(Duration::from_millis(2));
        t.finish();
        let scale = t.probe.scale();
        assert!(scale > 0.0 && scale.is_finite());
        assert_eq!(t.raw.percentile_ms(1.0).map(|p| p.0), Some(2.0));
        let scaled = t.scaled.percentile_ms(1.0).expect("one sample").0;
        assert!((scaled - 2.0 * scale).abs() < 1e-6);
        let (wall, scaled_wall) = t.wall_s();
        assert!((scaled_wall - wall * scale).abs() < 1e-9);
        assert!(t.window_rates().is_none());
    }

    #[test]
    fn windows_are_full_stretches() {
        let mut t = Timings::new(100, 8).windowed();
        for _ in 0..100 {
            t.before_op();
            t.push(Duration::from_micros(1));
        }
        t.finish();
        assert_eq!(t.stretches.len(), 13);
        assert_eq!(t.stretches.iter().map(|s| s.0).sum::<usize>(), 100);
        // Twelve windows of 8; the last 4 operations are left out.
        let (rates, raw) = t.window_rates().expect("windowed");
        assert_eq!((rates.len(), raw.len()), (12, 12));
        assert!(rates.windows(2).all(|w| w[0] <= w[1]));
        // A stream shorter than one window is one window.
        let mut short = Timings::new(4, 8).windowed();
        short.before_op();
        short.push(Duration::from_micros(1));
        short.finish();
        let (wall, scaled_wall) = short.wall_s();
        let (rates, raw) = short.window_rates().expect("windowed");
        assert!((rates[0] - 1.0 / scaled_wall).abs() < 1e-6 * rates[0]);
        assert!((raw[0] - 1.0 / wall).abs() < 1e-6 * raw[0]);
    }

    #[test]
    fn samples_keep_capacity_and_order() {
        let mut s = Samples::with_capacity(2);
        s.push(Duration::from_micros(3));
        s.push(Duration::from_micros(1));
        s.push(Duration::from_micros(2));
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 1);
        assert_eq!(s.percentile_ms(0.5), Some((0.001, 1)));
        assert_eq!(s.percentile_ms(1.0), Some((0.003, 0)));
        assert!((s.mean_ms() - 0.002).abs() < 1e-12);
    }
}
