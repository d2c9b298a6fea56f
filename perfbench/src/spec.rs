//! The benchmark's own description, `spec.json`: workload parameters,
//! the metric list and what each layer metric is measured at. The
//! binary reads its parameters and metric names from it, so the file
//! cannot drift from what runs.

use twca_api::Json;

/// The parsed `spec.json`.
#[derive(Debug, Clone)]
pub struct Spec(Json);

/// One metric the final JSON line carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub better: String,
}

pub const SPEC_TEXT: &str = include_str!("../spec.json");

impl Spec {
    pub fn load() -> Spec {
        Spec(Json::parse(SPEC_TEXT).expect("spec.json is valid JSON"))
    }

    fn section(&self, name: &str) -> &Json {
        self.0
            .get(name)
            .unwrap_or_else(|| panic!("spec.json has no `{name}` section"))
    }

    /// An integer parameter of a workload section.
    pub fn param(&self, workload: &str, key: &str) -> u64 {
        self.section(workload)
            .get(key)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("spec.json: `{workload}.{key}` is not a whole number"))
    }

    /// A list-of-integers parameter of a workload section.
    pub fn list(&self, workload: &str, key: &str) -> Vec<u64> {
        self.section(workload)
            .get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("spec.json: `{workload}.{key}` is not a list"))
            .iter()
            .map(|v| v.as_u64().expect("list items are whole numbers"))
            .collect()
    }

    /// How many times a run sets itself up (`setup_s` is the median).
    pub fn setup_repeats(&self) -> usize {
        self.0
            .get("setup_repeats")
            .and_then(Json::as_u64)
            .expect("spec.json: setup_repeats") as usize
    }

    fn decls(&self, section: &str) -> impl Iterator<Item = &Json> {
        self.section(section)
            .as_array()
            .unwrap_or_else(|| panic!("spec.json: `{section}` is not a list"))
            .iter()
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("spec.json: metric entry without `{key}`"))
    }

    /// The end-to-end metrics, in declaration order.
    pub fn end_to_end(&self) -> Vec<MetricDecl> {
        self.decls("end_to_end")
            .map(|e| MetricDecl {
                name: Self::field(e, "name").to_owned(),
                unit: Self::field(e, "unit").to_owned(),
                better: Self::field(e, "better").to_owned(),
            })
            .collect()
    }

    /// The per-layer metrics: each timed layer expands to its median
    /// self time, its p99 and its span count; then the counters.
    pub fn per_layer(&self) -> Vec<MetricDecl> {
        let mut out = Vec::new();
        for entry in self.decls("per_layer_times") {
            let name = Self::field(entry, "name");
            for (suffix, unit, better) in [
                ("", "us", "lower"),
                (".p99", "us", "lower"),
                (".n", "count", "higher"),
            ] {
                out.push(MetricDecl {
                    name: format!("{name}{suffix}"),
                    unit: unit.to_owned(),
                    better: better.to_owned(),
                });
            }
        }
        for entry in self.decls("per_layer_counts") {
            out.push(MetricDecl {
                name: Self::field(entry, "name").to_owned(),
                unit: Self::field(entry, "unit").to_owned(),
                better: Self::field(entry, "better").to_owned(),
            });
        }
        out
    }

    /// Names of the timed layers.
    pub fn layer_times(&self) -> Vec<String> {
        self.decls("per_layer_times")
            .map(|e| Self::field(e, "name").to_owned())
            .collect()
    }

    /// `(name, why)` of every workload.
    pub fn workloads(&self) -> Vec<(String, String)> {
        self.decls("workloads")
            .map(|e| {
                (
                    Self::field(e, "name").to_owned(),
                    Self::field(e, "why").to_owned(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The `"key": "value"` string pairs of a JSON text, in order; enough
    /// to read BENCHMARK.json, whose numbers the wire parser rejects.
    fn string_members<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
        let needle = format!("\"{key}\":");
        text.match_indices(&needle)
            .map(|(at, _)| {
                let rest = text[at + needle.len()..].trim_start();
                let rest = rest.strip_prefix('"').expect("a string value");
                &rest[..rest.find('"').expect("a closed string")]
            })
            .collect()
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let spec = Spec::load();
        let mut names: Vec<String> = spec
            .end_to_end()
            .into_iter()
            .chain(spec.per_layer())
            .map(|m| m.name)
            .collect();
        for name in &names {
            assert!(valid_name(name), "bad metric name `{name}`");
        }
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "a metric name is used twice");
        assert!(count <= 16 + 128);
    }

    #[test]
    fn benchmark_json_declares_exactly_the_spec_metrics_and_workloads() {
        let spec = Spec::load();
        let declared: Vec<&str> = string_members(BENCHMARK_JSON, "name");
        let units: Vec<&str> = string_members(BENCHMARK_JSON, "unit");
        let betters: Vec<&str> = string_members(BENCHMARK_JSON, "better");
        let whys: Vec<&str> = string_members(BENCHMARK_JSON, "why");
        let workloads = spec.workloads();
        let metrics: Vec<MetricDecl> = spec
            .end_to_end()
            .into_iter()
            .chain(spec.per_layer())
            .collect();
        assert_eq!(declared.len(), workloads.len() + metrics.len());
        for ((name, why), (got_name, got_why)) in workloads.iter().zip(declared.iter().zip(&whys)) {
            assert_eq!(name, got_name);
            assert_eq!(why, got_why);
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        let declared_metrics = &declared[workloads.len()..];
        for (i, metric) in metrics.iter().enumerate() {
            assert_eq!(metric.name, declared_metrics[i]);
            assert_eq!(metric.unit, units[i]);
            assert_eq!(metric.better, betters[i]);
        }
    }
}
