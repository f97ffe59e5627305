//! Sampled waveforms and their measurements.

/// A sampled signal `(t_k, v_k)` with non-decreasing time stamps.
///
/// # Example
/// ```
/// use nanosim_core::waveform::Waveform;
/// let w = Waveform::from_samples(vec![0.0, 1.0, 2.0], vec![0.0, 2.0, 1.0]);
/// assert_eq!(w.value_at(0.5), 1.0); // linear interpolation
/// assert_eq!(w.peak().unwrap().1, 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Waveform {
    times: Vec<f64>,
    values: Vec<f64>,
}

impl Waveform {
    /// Builds a waveform from parallel sample vectors.
    ///
    /// # Panics
    /// Panics if lengths differ, the waveform is empty, or times decrease.
    pub fn from_samples(times: Vec<f64>, values: Vec<f64>) -> Self {
        assert_eq!(times.len(), values.len(), "times/values length mismatch");
        assert!(!times.is_empty(), "waveform needs at least one sample");
        assert!(
            times.windows(2).all(|w| w[1] >= w[0]),
            "time stamps must be non-decreasing"
        );
        Waveform { times, values }
    }

    /// Builds a waveform over a monotone sweep axis, reversing a
    /// descending sweep so the samples run in ascending axis order.
    pub(crate) fn from_sweep(axis: &[f64], values: &[f64]) -> Self {
        let (mut axis, mut values) = (axis.to_vec(), values.to_vec());
        if axis.first() > axis.last() {
            axis.reverse();
            values.reverse();
        }
        Waveform::from_samples(axis, values)
    }

    /// Sample times.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the waveform has no samples (never true for constructed
    /// waveforms; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Last sampled value.
    pub fn final_value(&self) -> f64 {
        *self.values.last().expect("nonempty")
    }

    /// Linear interpolation at `t`, clamped to the sampled range; NaN
    /// when `t` is NaN.
    pub fn value_at(&self, t: f64) -> f64 {
        let ts = &self.times;
        if t.is_nan() {
            return f64::NAN;
        }
        if t <= ts[0] {
            return self.values[0];
        }
        let n = ts.len();
        if t >= ts[n - 1] {
            return self.values[n - 1];
        }
        let mut i = match ts.binary_search_by(|x| x.partial_cmp(&t).expect("NaN time")) {
            Ok(i) => return self.values[i],
            Err(i) => i,
        };
        if i == 0 {
            i = 1;
        }
        let (t0, t1) = (ts[i - 1], ts[i]);
        let (v0, v1) = (self.values[i - 1], self.values[i]);
        if t1 == t0 {
            v1
        } else {
            v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        }
    }

    /// Global maximum as `(time, value)`.
    pub fn peak(&self) -> Option<(f64, f64)> {
        self.times
            .iter()
            .zip(self.values.iter())
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN value"))
            .map(|(&t, &v)| (t, v))
    }

    /// Global minimum as `(time, value)`.
    pub fn trough(&self) -> Option<(f64, f64)> {
        self.times
            .iter()
            .zip(self.values.iter())
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("NaN value"))
            .map(|(&t, &v)| (t, v))
    }

    /// First time the signal crosses `level` in the given direction,
    /// linearly interpolated.
    pub fn crossing_time(&self, level: f64, rising: bool) -> Option<f64> {
        for i in 1..self.times.len() {
            let (v0, v1) = (self.values[i - 1], self.values[i]);
            let crossed = if rising {
                v0 < level && v1 >= level
            } else {
                v0 > level && v1 <= level
            };
            if crossed {
                let (t0, t1) = (self.times[i - 1], self.times[i]);
                if v1 == v0 {
                    return Some(t1);
                }
                return Some(t0 + (t1 - t0) * (level - v0) / (v1 - v0));
            }
        }
        None
    }

    /// 10%–90% rise time between `lo` and `hi` reference levels.
    pub fn rise_time(&self, lo: f64, hi: f64) -> Option<f64> {
        let t10 = self.crossing_time(lo + 0.1 * (hi - lo), true)?;
        let t90 = self.crossing_time(lo + 0.9 * (hi - lo), true)?;
        (t90 >= t10).then_some(t90 - t10)
    }

    /// Overshoot beyond `target` relative to the swing from `start` to
    /// `target`, as a fraction (0.05 = 5% overshoot). Returns `None` when
    /// the swing is zero.
    pub fn overshoot(&self, start: f64, target: f64) -> Option<f64> {
        let swing = target - start;
        if swing == 0.0 {
            return None;
        }
        let extreme = if swing > 0.0 {
            self.peak()?.1
        } else {
            self.trough()?.1
        };
        Some(((extreme - target) / swing).max(0.0))
    }

    /// Estimates the period of a repetitive signal from successive rising
    /// crossings of `level`; `None` with fewer than two crossings.
    pub fn period(&self, level: f64) -> Option<f64> {
        let mut crossings = Vec::new();
        for i in 1..self.times.len() {
            let (v0, v1) = (self.values[i - 1], self.values[i]);
            if v0 < level && v1 >= level {
                let (t0, t1) = (self.times[i - 1], self.times[i]);
                let t = if v1 == v0 {
                    t1
                } else {
                    t0 + (t1 - t0) * (level - v0) / (v1 - v0)
                };
                crossings.push(t);
            }
        }
        if crossings.len() < 2 {
            return None;
        }
        let spans: Vec<f64> = crossings.windows(2).map(|w| w[1] - w[0]).collect();
        Some(spans.iter().sum::<f64>() / spans.len() as f64)
    }

    /// Root-mean-square difference against another waveform, sampled at this
    /// waveform's time points (the other is interpolated).
    pub fn rms_difference(&self, other: &Waveform) -> f64 {
        let n = self.times.len();
        let sum: f64 = self
            .times
            .iter()
            .zip(self.values.iter())
            .map(|(&t, &v)| {
                let d = v - other.value_at(t);
                d * d
            })
            .sum();
        (sum / n as f64).sqrt()
    }

    /// Renders a fixed-size ASCII plot (rows x cols) of the waveform —
    /// enough to eyeball the figures in a terminal.
    pub fn ascii_plot(&self, rows: usize, cols: usize) -> String {
        let rows = rows.max(2);
        let cols = cols.max(2);
        let t0 = self.times[0];
        let t1 = *self.times.last().expect("nonempty");
        let (vmin, vmax) = self
            .values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        let vspan = if vmax > vmin { vmax - vmin } else { 1.0 };
        let mut grid = vec![vec![b' '; cols]; rows];
        for col in 0..cols {
            let t = if t1 > t0 {
                t0 + (t1 - t0) * col as f64 / (cols - 1) as f64
            } else {
                t0
            };
            let v = self.value_at(t);
            let row = ((vmax - v) / vspan * (rows - 1) as f64).round() as usize;
            grid[row.min(rows - 1)][col] = b'*';
        }
        let mut out = String::new();
        out.push_str(&format!("{vmax:>12.4e} +\n"));
        for row in grid {
            out.push_str("             |");
            out.push_str(std::str::from_utf8(&row).expect("ascii"));
            out.push('\n');
        }
        out.push_str(&format!(
            "{vmin:>12.4e} +{}\n              {:<.4e} .. {:.4e} s\n",
            "-".repeat(cols),
            t0,
            t1
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Waveform {
        Waveform::from_samples(vec![0.0, 1.0, 2.0, 3.0], vec![0.0, 1.0, 4.0, 2.0])
    }

    #[test]
    fn interpolation_and_clamping() {
        let w = ramp();
        assert_eq!(w.value_at(-1.0), 0.0);
        assert_eq!(w.value_at(0.5), 0.5);
        assert_eq!(w.value_at(1.5), 2.5);
        assert_eq!(w.value_at(10.0), 2.0);
        assert_eq!(w.value_at(1.0), 1.0);
        assert_eq!(w.len(), 4);
        assert!(!w.is_empty());
    }

    #[test]
    fn peak_and_trough() {
        let w = ramp();
        assert_eq!(w.peak(), Some((2.0, 4.0)));
        assert_eq!(w.trough(), Some((0.0, 0.0)));
        assert_eq!(w.final_value(), 2.0);
    }

    #[test]
    fn crossing_detection() {
        let w = ramp();
        assert_eq!(w.crossing_time(0.5, true), Some(0.5));
        // Falling crossing of 3.0 happens between t=2 (v=4) and t=3 (v=2).
        assert_eq!(w.crossing_time(3.0, false), Some(2.5));
        assert_eq!(w.crossing_time(10.0, true), None);
    }

    #[test]
    fn rise_time_of_linear_ramp() {
        let w = Waveform::from_samples(vec![0.0, 1.0], vec![0.0, 1.0]);
        let rt = w.rise_time(0.0, 1.0).unwrap();
        assert!((rt - 0.8).abs() < 1e-12);
    }

    #[test]
    fn overshoot_measurement() {
        // Step to 1.0 that rings up to 1.25.
        let w = Waveform::from_samples(
            vec![0.0, 1.0, 2.0, 3.0, 4.0],
            vec![0.0, 1.25, 0.9, 1.05, 1.0],
        );
        let os = w.overshoot(0.0, 1.0).unwrap();
        assert!((os - 0.25).abs() < 1e-12);
        // No overshoot when the peak stays below the target.
        let w2 = Waveform::from_samples(vec![0.0, 1.0], vec![0.0, 0.9]);
        assert_eq!(w2.overshoot(0.0, 1.0), Some(0.0));
        // Falling step uses the trough.
        let w3 = Waveform::from_samples(vec![0.0, 1.0, 2.0], vec![1.0, -0.2, 0.0]);
        let os3 = w3.overshoot(1.0, 0.0).unwrap();
        assert!((os3 - 0.2).abs() < 1e-12);
        assert_eq!(w3.overshoot(0.5, 0.5), None);
    }

    #[test]
    fn period_of_square_wave() {
        // 2 s period square wave sampled densely.
        let times: Vec<f64> = (0..100).map(|i| i as f64 * 0.1).collect();
        let values: Vec<f64> = times
            .iter()
            .map(|t| if (t % 2.0) < 1.0 { 1.0 } else { 0.0 })
            .collect();
        let w = Waveform::from_samples(times, values);
        let p = w.period(0.5).unwrap();
        assert!((p - 2.0).abs() < 0.05, "period {p}");
        // A monotone ramp has at most one crossing -> None.
        let ramp = Waveform::from_samples(vec![0.0, 1.0], vec![0.0, 1.0]);
        assert_eq!(ramp.period(0.5), None);
    }

    #[test]
    fn rms_difference_zero_for_self() {
        let w = ramp();
        assert_eq!(w.rms_difference(&w), 0.0);
        let shifted = Waveform::from_samples(
            w.times().to_vec(),
            w.values().iter().map(|v| v + 1.0).collect(),
        );
        assert!((w.rms_difference(&shifted) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_unsorted_times() {
        Waveform::from_samples(vec![1.0, 0.0], vec![0.0, 0.0]);
    }

    #[test]
    fn ascii_plot_contains_markers() {
        let p = ramp().ascii_plot(8, 40);
        assert!(p.contains('*'));
        assert!(p.lines().count() >= 10);
    }
}
