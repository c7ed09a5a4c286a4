//! The BMac YAML configuration file (paper §3.5).
//!
//! "A YAML based configuration file is used to define both static and
//! configurable parameters of BMac. For example, it contains identity
//! information (certificates, roles, etc.) of various nodes of the
//! Fabric network, and chaincode endorsement policies." A script parses
//! it to generate encoded ids and the `ends_policy_evaluator`.
//!
//! This module implements a YAML *subset* parser (nested maps by 2-space
//! indentation, `- ` list items, string/int/bool scalars, `#` comments)
//! sufficient for the configuration schema, with no external
//! dependencies:
//!
//! ```yaml
//! network:
//!   orgs: 2
//! chaincodes:
//!   - name: smallbank
//!     policy: 2-outof-2 orgs
//! architecture:
//!   tx_validators: 8
//!   engines_per_vscc: 2
//!   db_capacity: 8192
//! ```
//!
//! Every key is optional except a chaincode's `name` and `policy`; a key
//! outside this schema is rejected rather than skipped, so a misspelt
//! one cannot silently leave its default in place.

use std::collections::BTreeMap;
use std::fmt;

use fabric_policy::{parse as parse_policy, Policy};

/// A parsed YAML-subset value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Scalar (kept as the raw string; typed accessors convert).
    Scalar(String),
    /// Mapping with insertion-ordered keys.
    Map(BTreeMap<String, Value>),
    /// Sequence.
    List(Vec<Value>),
}

impl Value {
    /// The value as a string scalar.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Scalar(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_str()?.parse().ok()
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self.as_str()? {
            "true" | "yes" | "on" => Some(true),
            "false" | "no" | "off" => Some(false),
            _ => None,
        }
    }

    /// Map lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(m) => m.get(key),
            _ => None,
        }
    }

    /// List items.
    pub fn items(&self) -> &[Value] {
        match self {
            Value::List(v) => v,
            _ => &[],
        }
    }
}

/// Errors from parsing the configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// YAML-subset syntax problem.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Description.
        message: String,
    },
    /// A required key is missing.
    Missing(&'static str),
    /// A value failed typed conversion.
    BadValue(&'static str, String),
    /// An endorsement policy failed to parse.
    BadPolicy(String),
    /// A key outside the schema, by its full path (`architecture.tx_validator`).
    UnknownKey(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Syntax { line, message } => {
                write!(f, "config syntax error on line {line}: {message}")
            }
            ConfigError::Missing(key) => write!(f, "missing required config key: {key}"),
            ConfigError::BadValue(key, got) => {
                write!(f, "invalid value for {key}: {got:?}")
            }
            ConfigError::BadPolicy(e) => write!(f, "invalid endorsement policy: {e}"),
            ConfigError::UnknownKey(key) => write!(f, "unknown config key: {key}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Parses the YAML subset into a [`Value`] tree.
///
/// # Errors
///
/// [`ConfigError::Syntax`] with the offending line.
pub fn parse_yaml(input: &str) -> Result<Value, ConfigError> {
    // Tokenize into (indent, content, line_no), dropping blanks/comments.
    let mut lines = Vec::new();
    for (i, raw) in input.lines().enumerate() {
        let without_comment = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        if without_comment.trim().is_empty() {
            continue;
        }
        let indent = without_comment.len() - without_comment.trim_start().len();
        if indent % 2 != 0 {
            return Err(ConfigError::Syntax {
                line: i + 1,
                message: "indentation must be multiples of two spaces".into(),
            });
        }
        lines.push((indent, without_comment.trim().to_string(), i + 1));
    }
    let mut pos = 0;
    let v = parse_block(&lines, &mut pos, 0)?;
    if pos != lines.len() {
        return Err(ConfigError::Syntax {
            line: lines[pos].2,
            message: "unexpected dedent/content".into(),
        });
    }
    Ok(v)
}

fn parse_block(
    lines: &[(usize, String, usize)],
    pos: &mut usize,
    indent: usize,
) -> Result<Value, ConfigError> {
    if *pos >= lines.len() {
        return Ok(Value::Map(BTreeMap::new()));
    }
    let is_list = lines[*pos].1.starts_with("- ") || lines[*pos].1 == "-";
    if is_list {
        let mut out = Vec::new();
        while *pos < lines.len() && lines[*pos].0 == indent && lines[*pos].1.starts_with('-') {
            let (_, content, line_no) = &lines[*pos];
            let rest = content[1..].trim().to_string();
            *pos += 1;
            if rest.is_empty() {
                // Nested structure under the dash.
                out.push(parse_block(lines, pos, indent + 2)?);
            } else if let Some((k, v)) = split_kv(&rest) {
                // Inline first key of a map item: `- name: smallbank`.
                let mut map = BTreeMap::new();
                if v.is_empty() {
                    let nested = parse_block(lines, pos, indent + 4)?;
                    map.insert(k.to_string(), nested);
                } else {
                    map.insert(k.to_string(), Value::Scalar(v.to_string()));
                }
                // Continuation keys at indent+2.
                while *pos < lines.len()
                    && lines[*pos].0 == indent + 2
                    && !lines[*pos].1.starts_with('-')
                {
                    let (_, content, line_no) = &lines[*pos];
                    let Some((k, v)) = split_kv(content) else {
                        return Err(ConfigError::Syntax {
                            line: *line_no,
                            message: "expected key: value".into(),
                        });
                    };
                    *pos += 1;
                    if v.is_empty() {
                        let nested = parse_block(lines, pos, indent + 4)?;
                        map.insert(k.to_string(), nested);
                    } else {
                        map.insert(k.to_string(), Value::Scalar(v.to_string()));
                    }
                }
                out.push(Value::Map(map));
            } else {
                let _ = line_no;
                out.push(Value::Scalar(rest));
            }
        }
        return Ok(Value::List(out));
    }
    let mut map = BTreeMap::new();
    while *pos < lines.len() && lines[*pos].0 == indent {
        let (_, content, line_no) = &lines[*pos];
        if content.starts_with('-') {
            break;
        }
        let Some((k, v)) = split_kv(content) else {
            return Err(ConfigError::Syntax {
                line: *line_no,
                message: "expected key: value".into(),
            });
        };
        *pos += 1;
        if v.is_empty() {
            let nested = parse_block(lines, pos, indent + 2)?;
            map.insert(k.to_string(), nested);
        } else {
            map.insert(k.to_string(), Value::Scalar(v.to_string()));
        }
    }
    Ok(Value::Map(map))
}

fn split_kv(s: &str) -> Option<(&str, &str)> {
    let idx = s.find(':')?;
    let (k, v) = s.split_at(idx);
    Some((k.trim(), v[1..].trim()))
}

/// A chaincode entry: name + endorsement policy.
#[derive(Debug, Clone)]
pub struct ChaincodeConfig {
    /// Chaincode name.
    pub name: String,
    /// Parsed endorsement policy.
    pub policy: Policy,
}

/// The complete BMac configuration.
#[derive(Debug, Clone)]
pub struct BmacConfig {
    /// Number of organizations.
    pub orgs: u8,
    /// Chaincodes with their policies.
    pub chaincodes: Vec<ChaincodeConfig>,
    /// tx_validator instances.
    pub tx_validators: usize,
    /// ecdsa_engines per tx_vscc.
    pub engines_per_vscc: usize,
    /// In-hardware database capacity.
    pub db_capacity: usize,
}

impl Default for BmacConfig {
    fn default() -> Self {
        BmacConfig {
            orgs: 2,
            chaincodes: Vec::new(),
            tx_validators: 8,
            engines_per_vscc: 2,
            db_capacity: fabric_statedb::HW_DB_DEFAULT_CAPACITY,
        }
    }
}

/// Rejects the first key of `map` not in `known`; `section` prefixes
/// its path in the error.
fn reject_unknown(map: &Value, section: &str, known: &[&str]) -> Result<(), ConfigError> {
    let Value::Map(m) = map else { return Ok(()) };
    match m.keys().find(|k| !known.contains(&k.as_str())) {
        Some(k) if section.is_empty() => Err(ConfigError::UnknownKey(k.clone())),
        Some(k) => Err(ConfigError::UnknownKey(format!("{section}.{k}"))),
        None => Ok(()),
    }
}

/// The integer at `path` (`section.key`) under `section`, if present.
fn int_at(section: &Value, path: &'static str) -> Result<Option<u64>, ConfigError> {
    let key = path.rsplit_once('.').map_or(path, |(_, key)| key);
    section
        .get(key)
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| ConfigError::BadValue(path, format!("{v:?}")))
        })
        .transpose()
}

impl BmacConfig {
    /// Parses the configuration from YAML-subset text.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] for syntax problems, missing or unknown keys, or
    /// malformed values and policies.
    pub fn from_yaml(input: &str) -> Result<Self, ConfigError> {
        let root = parse_yaml(input)?;
        reject_unknown(&root, "", &["network", "chaincodes", "architecture"])?;
        let mut config = BmacConfig::default();
        if let Some(network) = root.get("network") {
            reject_unknown(network, "network", &["orgs"])?;
            if let Some(n) = int_at(network, "network.orgs")? {
                config.orgs = n as u8;
            }
        }
        if let Some(ccs) = root.get("chaincodes") {
            for item in ccs.items() {
                reject_unknown(item, "chaincodes[]", &["name", "policy"])?;
                let name = item
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or(ConfigError::Missing("chaincodes[].name"))?
                    .to_string();
                let policy_str = item
                    .get("policy")
                    .and_then(Value::as_str)
                    .ok_or(ConfigError::Missing("chaincodes[].policy"))?;
                let policy =
                    parse_policy(policy_str).map_err(|e| ConfigError::BadPolicy(e.to_string()))?;
                config.chaincodes.push(ChaincodeConfig { name, policy });
            }
        }
        if let Some(arch) = root.get("architecture") {
            reject_unknown(
                arch,
                "architecture",
                &["tx_validators", "engines_per_vscc", "db_capacity"],
            )?;
            if let Some(n) = int_at(arch, "architecture.tx_validators")? {
                config.tx_validators = n as usize;
            }
            if let Some(n) = int_at(arch, "architecture.engines_per_vscc")? {
                config.engines_per_vscc = n as usize;
            }
            if let Some(n) = int_at(arch, "architecture.db_capacity")? {
                config.db_capacity = n as usize;
            }
        }
        Ok(config)
    }

    /// The architecture geometry.
    pub fn geometry(&self) -> bmac_hw::Geometry {
        bmac_hw::Geometry::new(self.tx_validators, self.engines_per_vscc)
    }

    /// Policies as a name → policy map.
    pub fn policy_map(&self) -> std::collections::HashMap<String, Policy> {
        self.chaincodes
            .iter()
            .map(|c| (c.name.clone(), c.policy.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# Blockchain Machine configuration
network:
  orgs: 4
chaincodes:
  - name: smallbank
    policy: 2-outof-2 orgs
  - name: drm
    policy: (Org1 & Org2) | (Org3 & Org4)
architecture:
  tx_validators: 16
  engines_per_vscc: 2
  db_capacity: 8192
";

    #[test]
    fn parses_full_sample() {
        let c = BmacConfig::from_yaml(SAMPLE).unwrap();
        assert_eq!(c.orgs, 4);
        assert_eq!(c.chaincodes.len(), 2);
        assert_eq!(c.chaincodes[0].name, "smallbank");
        assert_eq!(c.tx_validators, 16);
        assert_eq!(c.geometry().to_string(), "16x2");
    }

    #[test]
    fn defaults_apply_for_missing_sections() {
        let c = BmacConfig::from_yaml("network:\n  orgs: 3\n").unwrap();
        assert_eq!(c.orgs, 3);
        assert_eq!(c.tx_validators, 8);
        assert_eq!(c.db_capacity, 8192);
    }

    #[test]
    fn bad_policy_is_reported() {
        let err =
            BmacConfig::from_yaml("chaincodes:\n  - name: x\n    policy: 5of3\n").unwrap_err();
        assert!(matches!(err, ConfigError::BadPolicy(_)));
    }

    #[test]
    fn missing_policy_is_reported() {
        let err = BmacConfig::from_yaml("chaincodes:\n  - name: x\n").unwrap_err();
        assert_eq!(err, ConfigError::Missing("chaincodes[].policy"));
    }

    #[test]
    fn bad_scalar_type_is_reported() {
        let err = BmacConfig::from_yaml("architecture:\n  tx_validators: many\n").unwrap_err();
        assert!(matches!(
            err,
            ConfigError::BadValue("architecture.tx_validators", _)
        ));
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let err = BmacConfig::from_yaml("architecture:\n  tx_validator: 16\n").unwrap_err();
        assert_eq!(
            err,
            ConfigError::UnknownKey("architecture.tx_validator".into())
        );
        let err = BmacConfig::from_yaml("architecture:\n  short_circuit: true\n").unwrap_err();
        assert_eq!(
            err,
            ConfigError::UnknownKey("architecture.short_circuit".into())
        );
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let c = BmacConfig::from_yaml("# hi\n\nnetwork:\n  orgs: 2 # two orgs\n").unwrap();
        assert_eq!(c.orgs, 2);
    }

    #[test]
    fn odd_indentation_rejected() {
        let err = parse_yaml("a:\n   b: 1\n").unwrap_err();
        assert!(matches!(err, ConfigError::Syntax { .. }));
    }

    #[test]
    fn yaml_value_accessors() {
        let v = parse_yaml("a: 5\nb: true\nc: hello\n").unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(5));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("c").unwrap().as_str(), Some("hello"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn scalar_lists() {
        let v = parse_yaml("items:\n  - a\n  - b\n").unwrap();
        let items = v.get("items").unwrap().items();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].as_str(), Some("a"));
    }
}
