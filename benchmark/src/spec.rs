//! The benchmark's contract, read from the repository's `BENCHMARK.json`:
//! workload names, and each metric's unit, better direction and bound.
//! The binary prints exactly the metrics listed there, in that order.

use serde_json::Value;

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// Member `key` of a JSON object (`null` when absent or not an object).
pub fn get<'v>(v: &'v Value, key: &str) -> &'v Value {
    match v {
        Value::Object(fields) => Value::field(fields, key),
        _ => &Value::NULL,
    }
}

pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Number(n) => Some(n.as_f64()),
        _ => None,
    }
}

pub fn as_array(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        _ => &[],
    }
}

pub fn as_str(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        _ => "",
    }
}

fn metrics(doc: &Value, key: &str) -> Vec<Metric> {
    as_array(get(doc, key))
        .iter()
        .map(|m| Metric {
            name: as_str(get(m, "name")).to_owned(),
            unit: as_str(get(m, "unit")).to_owned(),
            lower_is_better: as_str(get(m, "better")) == "lower",
            bound: as_f64(get(m, "bound")),
        })
        .collect()
}

/// The contract compiled into this binary.
pub fn spec() -> Spec {
    let doc: Value =
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    Spec {
        run_seconds: as_f64(get(&doc, "run_seconds")).expect("run_seconds"),
        workloads: as_array(get(&doc, "workloads"))
            .iter()
            .map(|w| as_str(get(w, "name")).to_owned())
            .collect(),
        end_to_end: metrics(&doc, "end_to_end"),
        per_layer: metrics(&doc, "per_layer"),
    }
}
