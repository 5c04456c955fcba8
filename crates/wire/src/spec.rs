//! Declarative lifting configurations for the wire protocol.
//!
//! A `Lifting` proper holds trait objects (the matcher and builder), so it
//! cannot travel over the wire. What can is the *recipe*: which search
//! procedure to run (`kind`), over which types, with which rename rules.
//! The daemon re-runs the corresponding `configure` against its own warm
//! environment, and the spec's digest keys both the per-session config
//! cache and the on-disk persistent lift cache.

use crate::Value;
use crate::{DigestBuilder, TermDigest, WireError, WIRE_VERSION};

/// A serializable description of a lifting configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LiftSpec {
    /// Which search procedure configures the equivalence: one of `swap`,
    /// `factor`, `ornament`, `bin`, `records`.
    pub kind: String,
    /// The source type (ignored by kinds that fix it, e.g. `ornament`).
    pub a: String,
    /// The target type.
    pub b: String,
    /// Rename rules, applied in order (`Old.` → `New.` prefix rewrites).
    pub rename: Vec<(String, String)>,
}

impl LiftSpec {
    /// The common case: a swap configuration with one prefix rule.
    pub fn swap(a: &str, b: &str, from: &str, to: &str) -> Self {
        LiftSpec {
            kind: "swap".into(),
            a: a.into(),
            b: b.into(),
            rename: vec![(from.into(), to.into())],
        }
    }

    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("kind".into(), Value::str(&self.kind)),
            ("a".into(), Value::str(&self.a)),
            ("b".into(), Value::str(&self.b)),
            (
                "rename".into(),
                Value::Arr(
                    self.rename
                        .iter()
                        .map(|(f, t)| Value::Arr(vec![Value::str(f), Value::str(t)]))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_value(v: &Value) -> Result<Self, WireError> {
        let s = |k: &str| -> Result<String, WireError> {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| WireError::Shape(format!("config is missing string field `{k}`")))
        };
        let rename = v
            .get("rename")
            .and_then(Value::as_arr)
            .ok_or_else(|| WireError::Shape("config is missing `rename` array".into()))?
            .iter()
            .map(|pair| {
                let items = pair
                    .as_arr()
                    .filter(|items| items.len() == 2)
                    .ok_or_else(|| {
                        WireError::Shape("rename rule must be a [from,to] pair".into())
                    })?;
                match (items[0].as_str(), items[1].as_str()) {
                    (Some(f), Some(t)) => Ok((f.to_string(), t.to_string())),
                    _ => Err(WireError::Shape("rename rule must hold strings".into())),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(LiftSpec {
            kind: s("kind")?,
            a: s("a")?,
            b: s("b")?,
            rename,
        })
    }

    /// The configuration digest: wire version, kind, endpoints, and rename
    /// rules in order. This keys the persistent lift cache directory, so
    /// any change to the recipe — or a wire version bump — lands in a
    /// fresh, empty cache.
    pub fn digest(&self) -> TermDigest {
        let mut h = DigestBuilder::new();
        h.write_u64(WIRE_VERSION as u64);
        h.write_str(&self.kind);
        h.write_str(&self.a);
        h.write_str(&self.b);
        h.write_u64(self.rename.len() as u64);
        for (f, t) in &self.rename {
            h.write_str(f);
            h.write_str(t);
        }
        TermDigest(h.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrip() {
        let spec = LiftSpec::swap("Old.list", "New.list", "Old.", "New.");
        let v = Value::parse(&spec.to_value().to_string()).unwrap();
        assert_eq!(LiftSpec::from_value(&v).unwrap(), spec);
    }

    #[test]
    fn digest_separates_specs() {
        let a = LiftSpec::swap("Old.list", "New.list", "Old.", "New.");
        let mut b = a.clone();
        b.kind = "factor".into();
        let mut c = a.clone();
        c.rename.push(("X.".into(), "Y.".into()));
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.digest(), a.clone().digest());
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            r#"{"kind":"swap"}"#,
            r#"{"kind":"swap","a":"A","b":"B","rename":[["x"]]}"#,
            r#"{"kind":"swap","a":"A","b":"B","rename":[[1,2]]}"#,
            r#"{"kind":"swap","a":"A","b":"B","rename":"no"}"#,
        ] {
            let v = Value::parse(bad).unwrap();
            assert!(LiftSpec::from_value(&v).is_err(), "accepted {bad}");
        }
    }
}
