//! Minimal `--key value` flag parsing.

use std::collections::BTreeMap;

/// Parsed command-line flags.
#[derive(Clone, Debug, Default)]
pub struct Args {
    flags: BTreeMap<String, String>,
}

impl Args {
    /// Parse `--key value` pairs and bare `--flag` booleans: a flag followed
    /// by another `--…` token (or by nothing) stores the value `"true"`.
    /// Rejects repeated keys and positional arguments.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut it = argv.iter().peekable();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("unexpected positional argument '{key}'"));
            };
            let value = match it.peek() {
                Some(next) if !next.starts_with("--") => it.next().expect("peeked").clone(),
                _ => "true".to_string(),
            };
            if flags.insert(name.to_string(), value).is_some() {
                return Err(format!("flag --{name} given twice"));
            }
        }
        Ok(Args { flags })
    }

    /// Raw string flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// String flag with a default.
    pub fn str_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Required string flag.
    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// Typed flag with a default.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{key}: cannot parse '{v}'")),
        }
    }

    /// Whether a bare boolean flag (`--metrics`) was given.
    pub fn bool_flag(&self, key: &str) -> bool {
        self.get(key) == Some("true")
    }

    /// Every flag given, in sorted order (for strictness checks against the
    /// flags a command reads).
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.flags.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_pairs() {
        let a = Args::parse(&sv(&["--n", "32", "--protocol", "smm"])).unwrap();
        assert_eq!(a.get("n"), Some("32"));
        assert_eq!(a.str_or("protocol", "x"), "smm");
        assert_eq!(a.str_or("missing", "dflt"), "dflt");
        assert_eq!(a.parse_or("n", 0usize).unwrap(), 32);
        assert_eq!(a.parse_or("other", 7usize).unwrap(), 7);
        assert_eq!(a.keys().count(), 2);
    }

    #[test]
    fn rejects_malformed() {
        assert!(Args::parse(&sv(&["positional"])).is_err());
        assert!(Args::parse(&sv(&["--n", "1", "--n", "2"])).is_err());
        let a = Args::parse(&sv(&["--n", "abc"])).unwrap();
        assert!(a.parse_or("n", 0usize).is_err());
        assert!(a.required("missing").is_err());
        assert_eq!(a.required("n").unwrap(), "abc");
    }

    #[test]
    fn bare_flags_are_booleans() {
        let a = Args::parse(&sv(&["--metrics", "--n", "8"])).unwrap();
        assert!(a.bool_flag("metrics"));
        assert!(!a.bool_flag("n"));
        assert!(!a.bool_flag("absent"));
        assert_eq!(a.parse_or("n", 0usize).unwrap(), 8);
        // Trailing bare flag and a numeric flag that was left dangling.
        let a = Args::parse(&sv(&["--n", "8", "--verbose"])).unwrap();
        assert!(a.bool_flag("verbose"));
        let a = Args::parse(&sv(&["--n"])).unwrap();
        assert!(
            a.parse_or("n", 0usize).is_err(),
            "dangling --n parses as boolean"
        );
    }
}
