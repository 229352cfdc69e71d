//! The `fault_plan/v1` JSON file format.
//!
//! Fault plans are authored by hand (CI, experiments), so the loader is a
//! self-contained minimal JSON reader with positional error messages — no
//! dependency on the bench crate's validator (which sits *above* this
//! crate) and no panics on malformed input.
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

use hypersio_types::{Did, SimDuration, SimTime};

use super::{BackoffPolicy, ChurnEvent, FaultPlan, StormEvent};

/// A parsed JSON value (only what the plan format and the checkpoint
/// header need).
pub(crate) enum Val {
    Num(f64),
    Str(String),
    Bool(bool),
    Null,
    Arr(Vec<Val>),
    Obj(Vec<(String, Val)>),
}

impl Val {
    pub(crate) fn get<'a>(&'a self, key: &str) -> Option<&'a Val> {
        match self {
            Val::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Val::Num(_) => "number",
            Val::Str(_) => "string",
            Val::Bool(_) => "boolean",
            Val::Null => "null",
            Val::Arr(_) => "array",
            Val::Obj(_) => "object",
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Val, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Val::Str(self.string()?)),
            Some(b't') => self.literal("true", Val::Bool(true)),
            Some(b'f') => self.literal("false", Val::Bool(false)),
            Some(b'n') => self.literal("null", Val::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(&format!("unexpected character '{}'", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, val: Val) -> Result<Val, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(val)
        } else {
            Err(self.err(&format!("expected '{text}'")))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let code = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|hex| std::str::from_utf8(hex).ok())
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("unsupported \\u escape"))?;
                            out.push(code);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unsupported string escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control byte in string")),
                Some(_) => {
                    // Multi-byte UTF-8 passes through untouched; the input
                    // is a &str, so the bytes are valid.
                    let start = self.pos;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
                    {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect(
                        "slicing a str on byte values < 0x80 keeps UTF-8 boundaries intact",
                    ));
                }
            }
        }
    }

    fn number(&mut self) -> Result<Val, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Val::Num)
            .ok_or_else(|| self.err("malformed number"))
    }

    fn object(&mut self) -> Result<Val, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Val::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Val::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Val, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Val::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Val::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
}

/// Parses one JSON document, with a positional message on malformed
/// input.
pub(crate) fn parse(text: &str) -> Result<Val, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let val = p.value()?;
    if p.peek().is_some() {
        return Err(p.err("trailing content after document"));
    }
    Ok(val)
}

fn num(val: &Val, context: &str) -> Result<f64, String> {
    match val {
        Val::Num(n) => Ok(*n),
        other => Err(format!(
            "{context}: expected a number, got {}",
            other.type_name()
        )),
    }
}

pub(crate) fn u64_field(val: &Val, context: &str) -> Result<u64, String> {
    let n = num(val, context)?;
    if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
        return Err(format!(
            "{context}: expected a non-negative integer, got {n}"
        ));
    }
    Ok(n as u64)
}

fn time_us(val: &Val, context: &str) -> Result<u64, String> {
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
        let doc = parse(text)?;
        match doc.get("schema") {
            Some(Val::Str(s)) if s == "fault_plan/v1" => {}
            Some(Val::Str(s)) => return Err(format!("unknown schema '{s}'")),
            _ => return Err("missing string field 'schema'".to_string()),
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
            let Val::Arr(items) = v else {
                return Err(format!("storms: expected an array, got {}", v.type_name()));
            };
            for (i, item) in items.iter().enumerate() {
                plan.storms.push(storm(item, i)?);
            }
        }
        if let Some(v) = doc.get("churns") {
            let Val::Arr(items) = v else {
                return Err(format!("churns: expected an array, got {}", v.type_name()));
            };
            for (i, item) in items.iter().enumerate() {
                plan.churns.push(churn(item, i)?);
            }
        }
        plan.validate()?;
        Ok(plan)
    }
}

fn backoff(val: &Val) -> Result<BackoffPolicy, String> {
    let mut b = BackoffPolicy::default();
    if !matches!(val, Val::Obj(_)) {
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

fn storm(val: &Val, index: usize) -> Result<StormEvent, String> {
    let context = format!("storms[{index}]");
    let at = val
        .get("at_us")
        .ok_or_else(|| format!("{context}: missing field 'at_us'"))
        .and_then(|v| time_us(v, &format!("{context}.at_us")))?;
    let global = matches!(val.get("global"), Some(Val::Bool(true)));
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

fn churn(val: &Val, index: usize) -> Result<ChurnEvent, String> {
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
