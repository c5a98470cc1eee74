//! Sampling wall-power meter.
//!
//! Models a WattsUp-PRO-class instrument: it samples a [`PowerSource`] at
//! a fixed rate and integrates energy trapezoidally. The paper notes that
//! workloads shorter than ~5 s are "run multiple times" with the average
//! power recorded; [`PowerMeter::measure_repeated`] reproduces that
//! procedure.

/// Anything whose instantaneous power can be sampled.
pub trait PowerSource {
    /// Instantaneous power in watts at time `t` (seconds).
    fn power_w(&self, t: f64) -> f64;
}

impl<F: Fn(f64) -> f64> PowerSource for F {
    fn power_w(&self, t: f64) -> f64 {
        self(t)
    }
}

/// One completed measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Integrated energy in joules over the window.
    pub energy_j: f64,
    /// Average power in watts.
    pub avg_power_w: f64,
    /// Duration of the window in seconds.
    pub duration_s: f64,
    /// Raw samples `(t, watts)`.
    pub samples: Vec<(f64, f64)>,
}

/// The meter.
#[derive(Debug, Clone)]
pub struct PowerMeter {
    sample_hz: f64,
}

impl PowerMeter {
    /// A meter sampling at `sample_hz` (the WattsUp samples at 1 Hz).
    pub fn new(sample_hz: f64) -> Self {
        assert!(sample_hz > 0.0, "sample rate must be positive");
        PowerMeter { sample_hz }
    }

    /// The classic wall meter: 1 Hz.
    pub fn watts_up_pro() -> Self {
        PowerMeter::new(1.0)
    }

    /// Sample `source` over `[t0, t1]` and integrate.
    ///
    /// The endpoints are always sampled so that short windows still
    /// produce a finite trapezoid.
    pub fn measure<S: PowerSource + ?Sized>(&self, source: &S, t0: f64, t1: f64) -> Measurement {
        assert!(t1 >= t0, "window must be non-negative");
        let dt = 1.0 / self.sample_hz;
        let mut samples = Vec::new();
        let mut t = t0;
        while t < t1 {
            samples.push((t, source.power_w(t)));
            t += dt;
        }
        samples.push((t1, source.power_w(t1)));

        let mut energy = 0.0;
        for w in samples.windows(2) {
            let (ta, pa) = w[0];
            let (tb, pb) = w[1];
            energy += 0.5 * (pa + pb) * (tb - ta);
        }
        let duration = t1 - t0;
        Measurement {
            energy_j: energy,
            avg_power_w: if duration > 0.0 {
                energy / duration
            } else {
                source.power_w(t0)
            },
            duration_s: duration,
            samples,
        }
    }

    /// Like [`PowerMeter::measure`], but also appends the samples to a
    /// telemetry time series (exported as Chrome counter events), so the
    /// power trace lines up with the spans of the run that produced it.
    pub fn measure_into<S: PowerSource + ?Sized>(
        &self,
        source: &S,
        t0: f64,
        t1: f64,
        sink: &ewc_telemetry::TelemetrySink,
        series: &str,
    ) -> Measurement {
        let m = self.measure(source, t0, t1);
        if let Some(mut rec) = sink.lock() {
            rec.series_extend(series, &m.samples);
        }
        m
    }

    /// Measure a short workload by replaying it `repeats` times
    /// back-to-back (the source is assumed periodic with period
    /// `t1 − t0`) and averaging, as the paper does for sub-5-second
    /// workloads. Returns the per-iteration measurement.
    pub fn measure_repeated<S: PowerSource + ?Sized>(
        &self,
        source: &S,
        t0: f64,
        t1: f64,
        repeats: u32,
    ) -> Measurement {
        assert!(repeats > 0, "need at least one repeat");
        let period = t1 - t0;
        let mut total_energy = 0.0;
        let mut all_samples = Vec::new();
        for r in 0..repeats {
            // Sample phase-shifted within the period so quantisation
            // noise averages out.
            let phase = period * f64::from(r) / f64::from(repeats) / self.sample_hz.max(1.0);
            let m = self.measure(
                &|t: f64| source.power_w(t0 + (t - t0 + phase) % period.max(1e-12)),
                t0,
                t1,
            );
            total_energy += m.energy_j;
            if r == 0 {
                all_samples = m.samples;
            }
        }
        let energy = total_energy / f64::from(repeats);
        Measurement {
            energy_j: energy,
            avg_power_w: if period > 0.0 {
                energy / period
            } else {
                source.power_w(t0)
            },
            duration_s: period,
            samples: all_samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_source_exact() {
        let m = PowerMeter::new(10.0);
        let meas = m.measure(&|_t: f64| 100.0, 0.0, 2.0);
        assert!((meas.energy_j - 200.0).abs() < 1e-9);
        assert!((meas.avg_power_w - 100.0).abs() < 1e-9);
    }

    #[test]
    fn linear_ramp_integrates_exactly_with_trapezoids() {
        let m = PowerMeter::new(100.0);
        let meas = m.measure(&|t: f64| 50.0 + 10.0 * t, 0.0, 4.0);
        // ∫(50 + 10t) dt over [0,4] = 200 + 80 = 280.
        assert!((meas.energy_j - 280.0).abs() < 1e-6);
    }

    #[test]
    fn coarse_sampling_still_covers_endpoints() {
        let m = PowerMeter::watts_up_pro();
        let meas = m.measure(&|_t: f64| 42.0, 0.0, 0.25);
        assert!((meas.energy_j - 10.5).abs() < 1e-9);
        assert_eq!(meas.samples.len(), 2);
    }

    #[test]
    fn repeated_measurement_approximates_true_average() {
        // A spiky periodic source a 1 Hz meter would alias badly.
        let src = |t: f64| {
            if (t * 10.0).fract() < 0.5 {
                200.0
            } else {
                100.0
            }
        };
        let m = PowerMeter::watts_up_pro();
        let meas = m.measure_repeated(&src, 0.0, 3.0, 16);
        // True average power = 150 W → 450 J per period.
        assert!(
            (meas.avg_power_w - 150.0).abs() < 15.0,
            "avg {}",
            meas.avg_power_w
        );
    }

    #[test]
    #[should_panic(expected = "sample rate")]
    fn zero_rate_rejected() {
        let _ = PowerMeter::new(0.0);
    }

    #[test]
    fn zero_window_reports_instant_power() {
        let m = PowerMeter::new(1.0);
        let meas = m.measure(&|_t: f64| 77.0, 1.0, 1.0);
        assert_eq!(meas.avg_power_w, 77.0);
        assert_eq!(meas.energy_j, 0.0);
    }
}
