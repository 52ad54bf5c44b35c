//! Parser for `lint/hotpaths.toml`: the root sets and escape lists the
//! semantic analyses are driven by.
//!
//! The accepted grammar is the tiny TOML subset the file actually uses (a
//! real TOML crate is unavailable offline):
//!
//! ```toml
//! [[hotpath]]                        # transitive-purity root
//! file = "crates/core/src/lts.rs"    # workspace-relative, '/'-separated
//! function = "step"
//!
//! [[kernel]]                         # determinism root (counter-gated)
//! file = "crates/sem/src/simd.rs"
//! function = "scalar_stiffness_batch"
//!
//! [[exclude]]                        # traversal stop — reason mandatory
//! file = "crates/obs/src/registry.rs"
//! function = "inc_key"
//! reason = "amortized: key set is fixed after the first step"
//! ```
//!
//! A bare `function` names every function of that name in the file;
//! `Type::name` names only the methods of `impl … Type` blocks.
//!
//! `#` comments and blank lines are ignored; anything else is a hard error
//! with a line number, so a typo can't silently drop a policy entry. Every
//! entry is validated against the symbol table after parsing — an entry
//! naming a function that no longer exists is a lint violation, not a
//! silent un-gating (see `analyze::validate_config`).

/// One `(file, function)` root entry.
pub type Entry = (String, String);

/// The parsed policy file.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct LintConfig {
    /// Transitive hot-path purity roots.
    pub hot: Vec<Entry>,
    /// Determinism roots (bitwise counter-gated kernels).
    pub kernels: Vec<Entry>,
    /// Traversal stops: `(file, function, reason)`.
    pub excludes: Vec<(String, String, String)>,
    /// 1-based line of each entry's `[[table]]` header, parallel to the
    /// concatenation hot ++ kernels ++ excludes (for stale-entry blame).
    pub hot_lines: Vec<usize>,
    pub kernel_lines: Vec<usize>,
    pub exclude_lines: Vec<usize>,
}

/// Back-compat alias: the legacy lexer rule only sees the hot list.
pub type HotPathConfig = LintConfig;

impl LintConfig {
    /// Is `(file, function)` a hot-path root? (Legacy rule + root seeding.)
    pub fn contains(&self, file: &str, function: &str) -> bool {
        self.hot.iter().any(|(f, g)| f == file && g == function)
    }

    pub fn is_excluded(&self, file: &str, function: &str) -> Option<&str> {
        self.excludes
            .iter()
            .find(|(f, g, _)| f == file && g == function)
            .map(|(_, _, r)| r.as_str())
    }

    pub fn parse(text: &str) -> Result<LintConfig, String> {
        #[derive(Clone, Copy, PartialEq)]
        enum Table {
            Hot,
            Kernel,
            Exclude,
        }
        struct Pending {
            table: Table,
            line: usize,
            file: Option<String>,
            function: Option<String>,
            reason: Option<String>,
        }
        let mut entries: Vec<Pending> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = match raw.find('#') {
                Some(p) => &raw[..p],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            let table = match line {
                "[[hotpath]]" => Some(Table::Hot),
                "[[kernel]]" => Some(Table::Kernel),
                "[[exclude]]" => Some(Table::Exclude),
                _ => None,
            };
            if let Some(table) = table {
                entries.push(Pending {
                    table,
                    line: i + 1,
                    file: None,
                    function: None,
                    reason: None,
                });
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "hotpaths.toml:{}: expected `key = \"value\"` or a [[hotpath]]/[[kernel]]/[[exclude]] header",
                    i + 1
                ));
            };
            let value = value.trim();
            if !(value.starts_with('"') && value.ends_with('"') && value.len() >= 2) {
                return Err(format!("hotpaths.toml:{}: value must be quoted", i + 1));
            }
            let value = value[1..value.len() - 1].to_string();
            let Some(entry) = entries.last_mut() else {
                return Err(format!("hotpaths.toml:{}: key outside a table", i + 1));
            };
            match key.trim() {
                "file" => entry.file = Some(value),
                "function" => entry.function = Some(value),
                "reason" if entry.table == Table::Exclude => entry.reason = Some(value),
                k => return Err(format!("hotpaths.toml:{}: unknown key `{k}`", i + 1)),
            }
        }
        let mut out = LintConfig::default();
        for e in entries {
            let (Some(f), Some(g)) = (e.file.clone(), e.function.clone()) else {
                return Err(format!(
                    "hotpaths.toml:{}: entry is missing `file` or `function`",
                    e.line
                ));
            };
            match e.table {
                Table::Hot => {
                    out.hot.push((f, g));
                    out.hot_lines.push(e.line);
                }
                Table::Kernel => {
                    out.kernels.push((f, g));
                    out.kernel_lines.push(e.line);
                }
                Table::Exclude => {
                    let Some(r) = e.reason else {
                        return Err(format!(
                            "hotpaths.toml:{}: [[exclude]] requires a `reason`",
                            e.line
                        ));
                    };
                    if r.trim().len() < 8 {
                        return Err(format!(
                            "hotpaths.toml:{}: exclude reason must actually justify the stop",
                            e.line
                        ));
                    }
                    out.excludes.push((f, g, r));
                    out.exclude_lines.push(e.line);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_three_tables() {
        let cfg = LintConfig::parse(
            "# policy\n\n[[hotpath]]\nfile = \"a/b.rs\"  # inline comment\nfunction = \"f\"\n\n[[kernel]]\nfile = \"c.rs\"\nfunction = \"k\"\n\n[[exclude]]\nfile = \"d.rs\"\nfunction = \"setup\"\nreason = \"amortized one-time table build\"\n",
        )
        .unwrap();
        assert_eq!(cfg.hot, vec![("a/b.rs".into(), "f".into())]);
        assert_eq!(cfg.kernels, vec![("c.rs".into(), "k".into())]);
        assert_eq!(cfg.excludes.len(), 1);
        assert!(cfg.contains("a/b.rs", "f"));
        assert!(!cfg.contains("c.rs", "k"), "kernels are not hot roots");
        assert_eq!(
            cfg.is_excluded("d.rs", "setup"),
            Some("amortized one-time table build")
        );
        assert_eq!(cfg.hot_lines, vec![3]);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(LintConfig::parse("file = \"x\"\n").is_err()); // outside table
        assert!(LintConfig::parse("[[hotpath]]\nfile = x\n").is_err()); // unquoted
        assert!(LintConfig::parse("[[hotpath]]\nfile = \"x\"\n").is_err()); // incomplete
        assert!(LintConfig::parse("[[hotpath]]\nnope = \"x\"\n").is_err()); // unknown key
        assert!(
            LintConfig::parse("[[hotpath]]\nfile = \"x\"\nfunction = \"f\"\nreason = \"r\"\n")
                .is_err()
        ); // reason only on excludes
        assert!(LintConfig::parse("[[exclude]]\nfile = \"x\"\nfunction = \"f\"\n").is_err()); // missing reason
        assert!(LintConfig::parse(
            "[[exclude]]\nfile = \"x\"\nfunction = \"f\"\nreason = \"no\"\n"
        )
        .is_err()); // vacuous reason
    }
}
