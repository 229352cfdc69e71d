//! The `fault_plan/v1` JSON file format.
//!
//! Fault plans are authored by hand (CI, experiments). The document is
//! read with the workspace's one JSON parser ([`hypersio_types::json`]),
//! so malformed input fails with a positional message and never panics;
//! this module maps the parsed value onto a [`FaultPlan`] with one
//! message per mistyped or out-of-range field.
//!
//! ```json
//! {
//!   "schema": "fault_plan/v1",
//!   "seed": 42,
//!   "fault_rate": 0.01,
//!   "pri_latency_us": 10.0,
//!   "backoff": {"base_slots": 1, "cap_slots": 64, "max_retries": 8},
//!   "storm_period_us": 100.0,
//!   "storms": [{"at_us": 50.0, "did": 3}, {"at_us": 75.0, "global": true}],
//!   "churns": [{"at_us": 60.0, "did": 1}]
//! }
//! ```
//!
//! Every field except `schema` is optional and defaults to the
//! [`FaultPlan::none`] value.

use hypersio_types::json::{self, Json};
use hypersio_types::{Did, SimDuration, SimTime};

use super::{BackoffPolicy, ChurnEvent, FaultPlan, StormEvent};

fn num(val: &Json, context: &str) -> Result<f64, String> {
    val.as_num()
        .ok_or_else(|| format!("{context}: expected a number, got {}", val.type_name()))
}

fn u64_field(val: &Json, context: &str) -> Result<u64, String> {
    let n = num(val, context)?;
    val.as_u64()
        .ok_or_else(|| format!("{context}: expected a non-negative integer below 2^64, got {n}"))
}

fn time_us(val: &Json, context: &str) -> Result<u64, String> {
    let n = num(val, context)?;
    if n < 0.0 {
        return Err(format!("{context}: time must be non-negative, got {n}"));
    }
    Ok((n * 1e6) as u64) // µs → ps
}

impl FaultPlan {
    /// Parses a `fault_plan/v1` JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed JSON, a missing or
    /// wrong `schema` tag, mistyped fields, or values that fail
    /// [`FaultPlan::validate`].
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        match doc.get("schema").and_then(Json::as_str) {
            Some("fault_plan/v1") => {}
            Some(s) => return Err(format!("unknown schema '{s}'")),
            None => return Err("missing string field 'schema'".to_string()),
        }
        let mut plan = FaultPlan::none();
        if let Some(v) = doc.get("seed") {
            plan.seed = u64_field(v, "seed")?;
        }
        if let Some(v) = doc.get("fault_rate") {
            plan.fault_rate = num(v, "fault_rate")?;
        }
        if let Some(v) = doc.get("pri_latency_us") {
            plan.pri_latency = SimDuration::from_ps(time_us(v, "pri_latency_us")?);
        }
        if let Some(v) = doc.get("storm_period_us") {
            plan.storm_period = Some(SimDuration::from_ps(time_us(v, "storm_period_us")?));
        }
        if let Some(v) = doc.get("backoff") {
            plan.backoff = backoff(v)?;
        }
        if let Some(v) = doc.get("storms") {
            let items = v
                .as_arr()
                .ok_or_else(|| format!("storms: expected an array, got {}", v.type_name()))?;
            for (i, item) in items.iter().enumerate() {
                plan.storms.push(storm(item, i)?);
            }
        }
        if let Some(v) = doc.get("churns") {
            let items = v
                .as_arr()
                .ok_or_else(|| format!("churns: expected an array, got {}", v.type_name()))?;
            for (i, item) in items.iter().enumerate() {
                plan.churns.push(churn(item, i)?);
            }
        }
        plan.validate()?;
        Ok(plan)
    }
}

fn backoff(val: &Json) -> Result<BackoffPolicy, String> {
    let mut b = BackoffPolicy::default();
    if val.as_obj().is_none() {
        return Err(format!(
            "backoff: expected an object, got {}",
            val.type_name()
        ));
    }
    if let Some(v) = val.get("base_slots") {
        b.base_slots = u64_field(v, "backoff.base_slots")?;
    }
    if let Some(v) = val.get("cap_slots") {
        b.cap_slots = u64_field(v, "backoff.cap_slots")?;
    }
    if let Some(v) = val.get("max_retries") {
        let n = u64_field(v, "backoff.max_retries")?;
        b.max_retries = u32::try_from(n)
            .map_err(|_| format!("backoff.max_retries: {n} exceeds the u32 range"))?;
    }
    Ok(b)
}

fn storm(val: &Json, index: usize) -> Result<StormEvent, String> {
    let context = format!("storms[{index}]");
    let at = val
        .get("at_us")
        .ok_or_else(|| format!("{context}: missing field 'at_us'"))
        .and_then(|v| time_us(v, &format!("{context}.at_us")))?;
    let global = matches!(val.get("global"), Some(Json::Bool(true)));
    let did = match (global, val.get("did")) {
        (true, Some(_)) => {
            return Err(format!(
                "{context}: 'global' and 'did' are mutually exclusive"
            ));
        }
        (true, None) => None,
        (false, Some(v)) => {
            let n = u64_field(v, &format!("{context}.did"))?;
            let did = u32::try_from(n)
                .map_err(|_| format!("{context}.did: {n} exceeds the u32 range"))?;
            Some(Did::new(did))
        }
        (false, None) => {
            return Err(format!("{context}: needs either 'did' or 'global': true"));
        }
    };
    Ok(StormEvent {
        at: SimTime::from_ps(at),
        did,
    })
}

fn churn(val: &Json, index: usize) -> Result<ChurnEvent, String> {
    let context = format!("churns[{index}]");
    let at = val
        .get("at_us")
        .ok_or_else(|| format!("{context}: missing field 'at_us'"))
        .and_then(|v| time_us(v, &format!("{context}.at_us")))?;
    let n = val
        .get("did")
        .ok_or_else(|| format!("{context}: missing field 'did'"))
        .and_then(|v| u64_field(v, &format!("{context}.did")))?;
    let did = u32::try_from(n).map_err(|_| format!("{context}.did: {n} exceeds the u32 range"))?;
    Ok(ChurnEvent {
        at: SimTime::from_ps(at),
        did: Did::new(did),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
        "schema": "fault_plan/v1",
        "seed": 42,
        "fault_rate": 0.01,
        "pri_latency_us": 10.5,
        "backoff": {"base_slots": 2, "cap_slots": 32, "max_retries": 6},
        "storm_period_us": 100,
        "storms": [{"at_us": 50, "did": 3}, {"at_us": 75, "global": true}],
        "churns": [{"at_us": 60, "did": 1}]
    }"#;

    #[test]
    fn full_plan_round_trips() {
        let plan = FaultPlan::from_json(GOOD).expect("plan parses");
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.fault_rate, 0.01);
        assert_eq!(plan.pri_latency.as_ps(), 10_500_000);
        assert_eq!(plan.storm_period, Some(SimDuration::from_us(100)));
        assert_eq!(plan.backoff.base_slots, 2);
        assert_eq!(plan.backoff.cap_slots, 32);
        assert_eq!(plan.backoff.max_retries, 6);
        assert_eq!(plan.storms.len(), 2);
        assert_eq!(plan.storms[0].did, Some(Did::new(3)));
        assert_eq!(plan.storms[0].at, SimTime::from_ps(50_000_000));
        assert_eq!(plan.storms[1].did, None);
        assert_eq!(
            plan.churns,
            vec![ChurnEvent {
                at: SimTime::from_ps(60_000_000),
                did: Did::new(1),
            }]
        );
        assert!(!plan.is_none());
    }

    #[test]
    fn minimal_plan_defaults_everything() {
        let plan = FaultPlan::from_json(r#"{"schema": "fault_plan/v1"}"#).expect("parses");
        assert_eq!(plan, FaultPlan::none());
    }

    #[test]
    fn rejects_malformed_json() {
        for bad in [
            "",
            "{",
            "{}trailing",
            r#"{"schema": "fault_plan/v1", }"#,
            r#"{"schema": "fault_plan/v1" "seed": 1}"#,
            r#"{"schema": 7}"#,
            // A duplicate key is an error, not "first (or last) one wins".
            r#"{"schema": "fault_plan/v1", "seed": 1, "seed": 2}"#,
        ] {
            let err = FaultPlan::from_json(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad:?} must fail with a message");
        }
    }

    #[test]
    fn rejects_wrong_or_missing_schema() {
        assert!(FaultPlan::from_json("{}").unwrap_err().contains("schema"));
        assert!(FaultPlan::from_json(r#"{"schema": "fault_plan/v2"}"#)
            .unwrap_err()
            .contains("unknown schema"));
    }

    #[test]
    fn rejects_mistyped_and_out_of_range_fields() {
        let err = FaultPlan::from_json(r#"{"schema": "fault_plan/v1", "seed": "x"}"#).unwrap_err();
        assert!(err.contains("seed"), "{err}");
        let err = FaultPlan::from_json(r#"{"schema": "fault_plan/v1", "seed": 1.5}"#).unwrap_err();
        assert!(err.contains("integer"), "{err}");
        // 2^64 is one past u64::MAX, not a saturated u64::MAX.
        let err =
            FaultPlan::from_json(r#"{"schema": "fault_plan/v1", "seed": 18446744073709551616}"#)
                .unwrap_err();
        assert!(err.contains("seed"), "{err}");
        let err =
            FaultPlan::from_json(r#"{"schema": "fault_plan/v1", "fault_rate": 2.0}"#).unwrap_err();
        assert!(err.contains("fault_rate"), "{err}");
        let err = FaultPlan::from_json(r#"{"schema": "fault_plan/v1", "pri_latency_us": -1}"#)
            .unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
        let err = FaultPlan::from_json(r#"{"schema": "fault_plan/v1", "storm_period_us": 0}"#)
            .unwrap_err();
        assert!(err.contains("storm_period"), "{err}");
    }

    #[test]
    fn rejects_bad_storm_and_churn_entries() {
        let err = FaultPlan::from_json(r#"{"schema": "fault_plan/v1", "storms": [{"at_us": 1}]}"#)
            .unwrap_err();
        assert!(err.contains("'did' or 'global'"), "{err}");
        let err = FaultPlan::from_json(
            r#"{"schema": "fault_plan/v1", "storms": [{"at_us": 1, "did": 0, "global": true}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = FaultPlan::from_json(r#"{"schema": "fault_plan/v1", "storms": [{"did": 0}]}"#)
            .unwrap_err();
        assert!(err.contains("at_us"), "{err}");
        let err = FaultPlan::from_json(r#"{"schema": "fault_plan/v1", "churns": [{"at_us": 1}]}"#)
            .unwrap_err();
        assert!(err.contains("churns[0]"), "{err}");
        let err = FaultPlan::from_json(r#"{"schema": "fault_plan/v1", "churns": 3}"#).unwrap_err();
        assert!(err.contains("array"), "{err}");
    }

    #[test]
    fn string_escapes_and_unicode_survive() {
        // Schema comparison exercises the string reader; escapes must not
        // corrupt adjacent characters.
        let err = FaultPlan::from_json(r#"{"schema": "fault "}"#).unwrap_err();
        assert!(!err.is_empty());
        let err = FaultPlan::from_json("{\"schema\": \"plan-\u{00e9}\"}").unwrap_err();
        assert!(err.contains("plan-\u{00e9}"), "{err}");
        let plan = FaultPlan::from_json(r#"{"schema": "fault_plan\u002fv1"}"#);
        assert_eq!(plan, Ok(FaultPlan::none()), "\\u escapes decode");
        for bad in [r#""\u00"}"#, r#""\u+02f"}"#, r#""\ud800"}"#] {
            let err = FaultPlan::from_json(&format!(r#"{{"schema": {bad}"#)).unwrap_err();
            assert!(err.contains("\\u escape"), "{bad}: {err}");
        }
    }
}
