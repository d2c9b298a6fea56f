//! Collecting a run's metrics and printing them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::reference::Reference;
use crate::stats::{windowed_p99, Fastest, Samples};
use crate::workloads::SetUpTimes;
use crate::trace::Profile;
use crate::Ctx;

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted in the measured window.
    pub attempted: u64,
    /// Ops that failed, were refused, were lost or answered wrongly.
    pub failed: u64,
    /// Correctness gates that did not hold, and wrong answers.
    pub errors: Vec<String>,
    values: BTreeMap<String, f64>,
    notes: Vec<(String, f64, &'static str, usize)>,
}

impl Report {
    /// Sets one metric of the final JSON line.
    pub fn set(&mut self, name: &str, value: f64) {
        let previous = self.values.insert(name.to_owned(), value);
        assert!(previous.is_none(), "metric `{name}` set twice");
    }

    /// Records a named metric for the printed report, with its unit
    /// and sample count.
    pub fn note(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.notes.push((name.to_owned(), value, unit, samples));
    }

    /// Records a wrong answer or failed gate; the run is then incorrect.
    pub fn wrong(&mut self, message: String) {
        if self.errors.len() < 20 {
            self.errors.push(message);
        } else if self.errors.len() == 20 {
            self.errors.push("(further errors elided)".to_owned());
        }
    }

    /// Checks one correctness gate.
    pub fn gate(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.wrong(format!("gate failed: {}", what()));
        }
    }

    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Sets the set-up time, the median of the set-ups made at
    /// reference speed, and notes the wall-clock median beside it.
    pub fn setup(&mut self, setups: &SetUpTimes) {
        let (wall, scaled) = (
            Samples::new(setups.wall.clone()),
            Samples::new(setups.scaled.clone()),
        );
        self.note("setup_s.wall", wall.median(), "s", wall.len());
        self.note("setup_s", scaled.median(), "s", scaled.len());
        self.set("setup_s", scaled.median());
    }

    /// Sets the throughput and the op latency metric, at reference
    /// speed, from the fastest time of each input of a run that cycles a
    /// fixed set of inputs. Notes them, and under the workload's own
    /// names their wall-clock values and the median and p99 of every op
    /// (`op_ms`, in the order they ran).
    pub fn end_to_end_fastest(
        &mut self,
        names: [&str; 5],
        unit: &'static str,
        fastest: &Fastest,
        op_ms: &[f64],
        work: f64,
        reference: &Reference,
    ) {
        let [rate, p50, op_p50, op_p99, total] = names;
        let inputs = fastest.len();
        self.note(rate, fastest.rate(), unit, inputs);
        self.note(p50, fastest.median_ms(), "ms", inputs);
        self.note(op_p50, Samples::new(op_ms.to_vec()).median(), "ms", op_ms.len());
        self.note(op_p99, windowed_p99(op_ms), "ms", op_ms.len());
        self.note(total, work, "count", op_ms.len());
        self.note("reference.kernel_ms", reference.best_ms(), "ms", reference.samples());
        let scale = reference.scale();
        self.note("throughput_per_s", fastest.rate() / scale, unit, inputs);
        self.note("p50_ms", fastest.median_ms() * scale, "ms", inputs);
        self.set("throughput_per_s", fastest.rate() / scale);
        self.set("p50_ms", fastest.median_ms() * scale);
    }

    /// Sets every timed layer's median self time, p99 and count from a
    /// trace profile (zero for layers this workload does not run), plus
    /// coverage and the tracing overhead between alternating traced and
    /// untraced ops.
    pub fn layers(&mut self, ctx: &Ctx, profile: &Profile, untraced_op_us: &Samples) {
        let empty = Samples::default();
        for name in ctx.spec.layer_times() {
            let samples = profile.layers.get(name.as_str()).unwrap_or(&empty);
            self.note(&name, samples.median(), "us", samples.len());
            self.set(&name, samples.median());
            self.set(&format!("{name}.p99"), samples.p99());
            self.set(&format!("{name}.n"), samples.len() as f64);
        }
        let traced = profile.ops.median();
        let untraced = untraced_op_us.median();
        let overhead = if untraced > 0.0 {
            (traced - untraced) / untraced
        } else {
            0.0
        };
        self.note(
            "trace.coverage",
            profile.coverage,
            "ratio",
            profile.ops.len(),
        );
        self.note(
            "trace.overhead_share",
            overhead,
            "ratio",
            untraced_op_us.len(),
        );
        self.set("trace.coverage", profile.coverage);
        self.set("trace.overhead_share", overhead);
    }

    /// Sets a counter metric and notes it.
    pub fn count(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.note(name, value, unit, samples);
        self.set(name, value);
    }

    /// Prints the report and the final JSON line.
    pub fn emit(mut self, ctx: &Ctx) -> Result<(), String> {
        let peak_rss_mb = peak_rss_mb()?;
        self.note("peak_rss_mb", peak_rss_mb, "MB", 1);
        self.note(
            "fail_share",
            self.fail_share(),
            "ratio",
            self.attempted as usize,
        );
        self.set("ok_share", 1.0 - self.fail_share());
        let declared = if ctx.trace {
            ctx.spec.per_layer()
        } else {
            ctx.spec.end_to_end()
        };
        for (name, value, unit, samples) in &self.notes {
            println!("{name} = {value} {unit} (n={samples})");
        }
        for error in &self.errors {
            eprintln!("{error}");
        }
        let mut metrics = String::new();
        for decl in &declared {
            // A layer this workload does not run reads 0 (timed layers
            // are already set to 0 with a count of 0).
            let value = match self.values.remove(&decl.name) {
                Some(value) => value,
                None if ctx.trace => 0.0,
                None => return Err(format!("metric `{}` was not measured", decl.name)),
            };
            if !value.is_finite() {
                return Err(format!("metric `{}` is not finite: {value}", decl.name));
            }
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            write!(
                metrics,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                decl.name, decl.unit
            )
            .expect("writing to a String cannot fail");
        }
        // What is left must belong to the other mode's list.
        let other = if ctx.trace {
            ctx.spec.end_to_end()
        } else {
            ctx.spec.per_layer()
        };
        if let Some(extra) = self
            .values
            .keys()
            .find(|name| !other.iter().any(|decl| &decl.name == *name))
        {
            return Err(format!("metric `{extra}` is not declared in spec.json"));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        Ok(())
    }
}

/// The process's peak resident set (VmHWM), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}
