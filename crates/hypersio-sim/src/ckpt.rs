//! The `hypersio-checkpoint/v2` on-disk run-checkpoint format.
//!
//! A checkpoint is one textual JSON header line followed by a binary
//! little-endian `u64`-word body:
//!
//! ```text
//! {"schema":"hypersio-checkpoint/v2","config":"HyperTRIO","tenants":128,
//!  "fingerprint":"0x...","words":N,"crc":"0x..."}\n
//! <N words x 8 bytes, little-endian>
//! ```
//!
//! The body is the pipeline's full mutable state in pipeline order
//! ([`Simulation::snapshot_words`]); everything re-derivable (page tables,
//! SID map, fault schedule, walk memo) is rebuilt at construction, so a
//! checkpoint stays small and resume stays bit-exact (`DESIGN.md` §16).
//! Three layers reject a bad file, each with a typed [`CheckpointError`]:
//! the header (schema, run identity fingerprint), an FNV-1a-64 checksum
//! over the body bytes, and the word-level decoder's own shape validation.
//! Corrupt input can produce an error but never a panic and never a
//! silently wrong resume.
//!
//! Checkpoints are same-build resume files, so only the current schema is
//! read: v2 changed the page-table pool section (residents in recency
//! order, no touch ticks), and a v1 file is refused as a header error.

use std::fmt;

use hypersio_cache::WordReader;
use hypersio_types::json::{self, escape, Json};

use crate::model::Simulation;

/// Schema tag of the checkpoint header line.
pub const CHECKPOINT_SCHEMA: &str = "hypersio-checkpoint/v2";

/// Why a checkpoint file could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The header line is missing, not valid UTF-8/JSON, or carries an
    /// unknown schema tag.
    Header(String),
    /// The header parsed but names a different run (configuration,
    /// tenant count, or parameter fingerprint mismatch).
    RunMismatch(String),
    /// The body is not exactly the header's word count.
    Truncated {
        /// Words promised by the header.
        expected_words: u64,
        /// Whole words actually present.
        actual_words: u64,
    },
    /// The body bytes fail the header's checksum.
    Checksum {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually read.
        actual: u64,
    },
    /// The body words do not decode into this run's state shape.
    Corrupt,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Header(msg) => write!(f, "bad checkpoint header: {msg}"),
            CheckpointError::RunMismatch(msg) => {
                write!(f, "checkpoint belongs to a different run: {msg}")
            }
            CheckpointError::Truncated {
                expected_words,
                actual_words,
            } => write!(
                f,
                "checkpoint body truncated: header promises {expected_words} words, \
                 found {actual_words}"
            ),
            CheckpointError::Checksum { expected, actual } => write!(
                f,
                "checkpoint body checksum mismatch: header says {expected:#018x}, \
                 body hashes to {actual:#018x}"
            ),
            CheckpointError::Corrupt => {
                write!(f, "checkpoint body does not decode into this run's state")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// FNV-1a 64-bit over `bytes` (the body integrity checksum — fast, no
/// dependencies, and byte-order independent because the body is already
/// canonical little-endian).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The header field `key`, or a [`CheckpointError::Header`] naming it.
fn field<'a>(header: &'a Json, key: &str) -> Result<&'a Json, CheckpointError> {
    header
        .get(key)
        .ok_or_else(|| CheckpointError::Header(format!("missing field {key:?}")))
}

/// A string header field.
fn str_field<'a>(header: &'a Json, key: &str) -> Result<&'a str, CheckpointError> {
    field(header, key)?
        .as_str()
        .ok_or_else(|| CheckpointError::Header(format!("field {key:?} is not a string")))
}

/// A non-negative integer header field.
fn u64_field(header: &Json, key: &str) -> Result<u64, CheckpointError> {
    field(header, key)?.as_u64().ok_or_else(|| {
        CheckpointError::Header(format!("field {key:?} is not a non-negative integer"))
    })
}

/// A `"0x..."` hexadecimal header field.
fn hex_field(header: &Json, key: &str) -> Result<u64, CheckpointError> {
    str_field(header, key)?
        .strip_prefix("0x")
        .and_then(|digits| u64::from_str_radix(digits, 16).ok())
        .ok_or_else(|| CheckpointError::Header(format!("field {key:?} is not 0x-hex")))
}

impl Simulation {
    /// A 64-bit identity fingerprint of this run's immutable inputs
    /// (architecture, parameters, trace shape). Two runs with the same
    /// fingerprint rebuild the same re-derivable state, which is what
    /// makes a checkpoint portable between them.
    fn fingerprint(&self) -> u64 {
        let trace = self.trace();
        let identity = format!(
            "{:?}\n{:?}\n{}\n{}\n{:?}\n{:?}",
            self.config(),
            self.params(),
            trace.tenants(),
            trace.seed(),
            trace.interleaving(),
            trace.did_layout(),
        );
        fnv1a64(identity.as_bytes())
    }

    /// Encodes this run's full mutable state as a `hypersio-checkpoint/v2`
    /// file image. Only meaningful at a batch-frame boundary — which is
    /// the only place the run loop ([`Simulation::run_controlled`]) calls
    /// it.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut words = Vec::new();
        self.snapshot_words(&mut words);
        let mut body = Vec::with_capacity(words.len() * 8);
        for w in &words {
            body.extend_from_slice(&w.to_le_bytes());
        }
        let header = format!(
            concat!(
                r#"{{"schema":"{}","config":"{}","tenants":{},"#,
                r#""fingerprint":"{:#018x}","words":{},"crc":"{:#018x}"}}"#,
                "\n"
            ),
            CHECKPOINT_SCHEMA,
            escape(&self.config().name),
            self.trace().tenants(),
            self.fingerprint(),
            words.len(),
            fnv1a64(&body),
        );
        let mut out = header.into_bytes();
        out.extend_from_slice(&body);
        out
    }

    /// Restores a checkpoint into this simulation, which must be freshly
    /// constructed from the same configuration, parameters, and trace as
    /// the run that wrote it.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] describing the first validation layer
    /// the bytes failed. After an error the simulation's state is
    /// unspecified and must be discarded (reconstruct before retrying) —
    /// but the error path never panics and a `Ok(())` never resumes into
    /// a state that diverges from the original run.
    pub fn resume_from_bytes(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let newline = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| CheckpointError::Header("no header line".into()))?;
        let header = std::str::from_utf8(&bytes[..newline])
            .map_err(|_| CheckpointError::Header("header is not UTF-8".into()))?;
        let doc = json::parse(header).map_err(|e| CheckpointError::Header(e.to_string()))?;
        let schema = str_field(&doc, "schema")?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(CheckpointError::Header(format!(
                "unknown schema {schema:?} (expected {CHECKPOINT_SCHEMA:?})"
            )));
        }
        let config = str_field(&doc, "config")?;
        if config != self.config().name {
            return Err(CheckpointError::RunMismatch(format!(
                "config {:?} vs this run's {:?}",
                config,
                self.config().name
            )));
        }
        let tenants = u64_field(&doc, "tenants")?;
        if tenants != self.trace().tenants() as u64 {
            return Err(CheckpointError::RunMismatch(format!(
                "{} tenants vs this run's {}",
                tenants,
                self.trace().tenants()
            )));
        }
        let fingerprint = hex_field(&doc, "fingerprint")?;
        if fingerprint != self.fingerprint() {
            return Err(CheckpointError::RunMismatch(
                "parameter fingerprint differs (different seed, latencies, \
                 fault plan, or architecture)"
                    .into(),
            ));
        }
        let expected_words = u64_field(&doc, "words")?;
        let crc = hex_field(&doc, "crc")?;

        let body = &bytes[newline + 1..];
        let actual_words = (body.len() / 8) as u64;
        if !body.len().is_multiple_of(8) || actual_words != expected_words {
            return Err(CheckpointError::Truncated {
                expected_words,
                actual_words,
            });
        }
        let actual_crc = fnv1a64(body);
        if actual_crc != crc {
            return Err(CheckpointError::Checksum {
                expected: crc,
                actual: actual_crc,
            });
        }
        let words: Vec<u64> = body
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
            .collect();
        let mut reader = WordReader::new(&words);
        self.restore_words(&mut reader)
            .ok_or(CheckpointError::Corrupt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SimParams;
    use hypersio_trace::{HyperTraceBuilder, WorkloadKind};
    use hypertrio_core::TranslationConfig;

    fn sim(tenants: u32, seed: u64) -> Simulation {
        let trace = HyperTraceBuilder::new(WorkloadKind::Iperf3, tenants)
            .scale(2000)
            .seed(seed)
            .build();
        Simulation::new(TranslationConfig::hypertrio(), SimParams::paper(), trace)
    }

    #[test]
    fn fresh_checkpoint_round_trips() {
        let bytes = sim(8, 3).checkpoint_bytes();
        let mut back = sim(8, 3);
        back.resume_from_bytes(&bytes).expect("round trip");
        // And the restored run reproduces the original's report exactly.
        assert_eq!(back.run(), sim(8, 3).run());
    }

    #[test]
    fn header_is_one_json_line_with_the_schema() {
        let bytes = sim(4, 0).checkpoint_bytes();
        let newline = bytes.iter().position(|&b| b == b'\n').unwrap();
        let header = std::str::from_utf8(&bytes[..newline]).unwrap();
        assert!(header.starts_with(&format!("{{\"schema\":\"{CHECKPOINT_SCHEMA}\"")));
        assert!(header.contains("\"config\":\"HyperTRIO\""));
        assert!(header.contains("\"tenants\":4"));
        assert!(header.ends_with('}'));
    }

    #[test]
    fn wrong_config_is_a_run_mismatch() {
        let bytes = sim(8, 3).checkpoint_bytes();
        let trace = HyperTraceBuilder::new(WorkloadKind::Iperf3, 8)
            .scale(2000)
            .seed(3)
            .build();
        let mut base = Simulation::new(TranslationConfig::base(), SimParams::paper(), trace);
        assert!(matches!(
            base.resume_from_bytes(&bytes),
            Err(CheckpointError::RunMismatch(_))
        ));
    }

    #[test]
    fn wrong_seed_is_a_run_mismatch() {
        let bytes = sim(8, 3).checkpoint_bytes();
        assert!(matches!(
            sim(8, 4).resume_from_bytes(&bytes),
            Err(CheckpointError::RunMismatch(_))
        ));
    }

    #[test]
    fn wrong_tenant_count_is_a_run_mismatch() {
        let bytes = sim(8, 3).checkpoint_bytes();
        assert!(matches!(
            sim(9, 3).resume_from_bytes(&bytes),
            Err(CheckpointError::RunMismatch(_))
        ));
    }

    #[test]
    fn truncated_body_is_typed() {
        let bytes = sim(8, 3).checkpoint_bytes();
        let cut = &bytes[..bytes.len() - 9];
        assert!(matches!(
            sim(8, 3).resume_from_bytes(cut),
            Err(CheckpointError::Truncated { .. })
        ));
    }

    #[test]
    fn flipped_body_bit_fails_the_checksum() {
        let mut bytes = sim(8, 3).checkpoint_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            sim(8, 3).resume_from_bytes(&bytes),
            Err(CheckpointError::Checksum { .. })
        ));
    }

    #[test]
    fn garbage_and_empty_inputs_are_header_errors() {
        for garbage in [&b""[..], b"not a checkpoint", &[0xff; 64][..]] {
            assert!(matches!(
                sim(2, 0).resume_from_bytes(garbage),
                Err(CheckpointError::Header(_))
            ));
        }
        // A fault-plan JSON file is valid JSON but the wrong schema.
        let plan = b"{\"schema\":\"fault_plan/v1\",\"fault_rate\":0.1}\n";
        assert!(matches!(
            sim(2, 0).resume_from_bytes(plan),
            Err(CheckpointError::Header(_))
        ));
    }

    #[test]
    fn a_v1_checkpoint_is_a_header_error() {
        let bytes = sim(8, 3).checkpoint_bytes();
        let newline = bytes.iter().position(|&b| b == b'\n').unwrap();
        let header = std::str::from_utf8(&bytes[..newline]).unwrap();
        let mut v1 = header
            .replace(CHECKPOINT_SCHEMA, "hypersio-checkpoint/v1")
            .into_bytes();
        v1.extend_from_slice(&bytes[newline..]);
        assert!(matches!(
            sim(8, 3).resume_from_bytes(&v1),
            Err(CheckpointError::Header(msg)) if msg.contains("hypersio-checkpoint/v1")
        ));
    }

    #[test]
    fn config_names_needing_json_escapes_round_trip() {
        for name in ["a\"b", "back\\slash", "tab\tnew\nline\u{1}"] {
            let named = |seed| {
                let trace = HyperTraceBuilder::new(WorkloadKind::Iperf3, 8)
                    .scale(2000)
                    .seed(seed)
                    .build();
                let config = TranslationConfig::hypertrio().with_name(name);
                Simulation::new(config, SimParams::paper(), trace)
            };
            let bytes = named(3).checkpoint_bytes();
            let mut back = named(3);
            assert_eq!(back.resume_from_bytes(&bytes), Ok(()), "{name:?}");
            assert_eq!(back.run(), named(3).run(), "{name:?}");
        }
    }

    #[test]
    fn fnv_vector() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
