//! Minimal argument parsing: `--flag value` pairs plus positionals, with
//! typed accessors. Hand-rolled to keep the dependency set at the workspace
//! baseline.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed argument list: named `--key value` options and positionals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    named: BTreeMap<String, String>,
    positional: Vec<String>,
}

/// Errors from argument parsing and typed access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// A `--flag` appeared without a value.
    MissingValue(String),
    /// A required option was not supplied.
    MissingOption(&'static str),
    /// An option's value failed to parse as the expected type.
    BadValue {
        /// Option name.
        option: String,
        /// The supplied value.
        value: String,
        /// Expected type description.
        expected: &'static str,
    },
    /// An option that is not understood by the command.
    UnknownOption(String),
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::MissingValue(flag) => write!(f, "option --{flag} needs a value"),
            ArgsError::MissingOption(flag) => write!(f, "required option --{flag} is missing"),
            ArgsError::BadValue {
                option,
                value,
                expected,
            } => write!(f, "--{option} expects {expected}, got `{value}`"),
            ArgsError::UnknownOption(flag) => write!(f, "unknown option --{flag}"),
        }
    }
}

impl std::error::Error for ArgsError {}

impl Args {
    /// Parses a raw token stream (`--key value` and positionals, in any
    /// order), validating that every named option is in `allowed`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::MissingValue`] for a trailing flag and
    /// [`ArgsError::UnknownOption`] for flags outside `allowed`.
    pub fn parse<I: IntoIterator<Item = String>>(
        tokens: I,
        allowed: &[&str],
    ) -> Result<Self, ArgsError> {
        let mut named = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = tokens.into_iter();
        while let Some(tok) = it.next() {
            if let Some(flag) = tok.strip_prefix("--") {
                if !allowed.contains(&flag) {
                    return Err(ArgsError::UnknownOption(flag.to_string()));
                }
                let value = it
                    .next()
                    .ok_or_else(|| ArgsError::MissingValue(flag.to_string()))?;
                named.insert(flag.to_string(), value);
            } else {
                positional.push(tok);
            }
        }
        Ok(Args { named, positional })
    }

    /// The positionals in order.
    #[must_use]
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// An optional string option.
    #[must_use]
    pub fn get(&self, option: &str) -> Option<&str> {
        self.named.get(option).map(String::as_str)
    }

    /// A required string option.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::MissingOption`] when absent.
    pub fn require(&self, option: &'static str) -> Result<&str, ArgsError> {
        self.get(option).ok_or(ArgsError::MissingOption(option))
    }

    /// An optional typed option.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::BadValue`] when present but unparsable.
    pub fn get_parsed<T: std::str::FromStr>(
        &self,
        option: &str,
        expected: &'static str,
    ) -> Result<Option<T>, ArgsError> {
        self.get(option)
            .map(|v| {
                v.parse().map_err(|_| ArgsError::BadValue {
                    option: option.to_string(),
                    value: v.to_string(),
                    expected,
                })
            })
            .transpose()
    }

    /// An optional typed option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::BadValue`] when present but unparsable.
    pub fn get_or<T: std::str::FromStr>(
        &self,
        option: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgsError> {
        Ok(self.get_parsed(option, expected)?.unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_named_and_positional() {
        let a = Args::parse(toks("input.edf --seed 7 extra --out dir"), &["seed", "out"]).unwrap();
        assert_eq!(a.positional(), &["input.edf", "extra"]);
        assert_eq!(a.get("seed"), Some("7"));
        assert_eq!(a.get("out"), Some("dir"));
        assert_eq!(a.get("absent"), None);
    }

    #[test]
    fn trailing_flag_is_an_error() {
        assert_eq!(
            Args::parse(toks("--seed"), &["seed"]),
            Err(ArgsError::MissingValue("seed".into()))
        );
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert_eq!(
            Args::parse(toks("--bogus 1"), &["seed"]),
            Err(ArgsError::UnknownOption("bogus".into()))
        );
    }

    #[test]
    fn typed_access_with_defaults() {
        let a = Args::parse(toks("--scale 3"), &["scale", "seed"]).unwrap();
        assert_eq!(a.get_or("scale", 1usize, "an integer").unwrap(), 3);
        assert_eq!(a.get_or("seed", 42u64, "an integer").unwrap(), 42);
        assert!(a.get_or("scale", 0.0f64, "a number").is_ok());
    }

    #[test]
    fn typed_access_rejects_garbage() {
        let a = Args::parse(toks("--scale many"), &["scale"]).unwrap();
        assert!(matches!(
            a.get_or("scale", 1usize, "an integer"),
            Err(ArgsError::BadValue { .. })
        ));
    }

    #[test]
    fn require_reports_missing() {
        let a = Args::parse(Vec::new(), &["out"]).unwrap();
        assert_eq!(a.require("out"), Err(ArgsError::MissingOption("out")));
    }

    #[test]
    fn errors_display() {
        for e in [
            ArgsError::MissingValue("x".into()),
            ArgsError::MissingOption("y"),
            ArgsError::BadValue {
                option: "z".into(),
                value: "v".into(),
                expected: "an integer",
            },
            ArgsError::UnknownOption("w".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
