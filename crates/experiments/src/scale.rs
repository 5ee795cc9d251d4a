//! Experiment scaling: quick (CI-friendly) vs full fidelity.

use std::fmt;

/// How much simulation to spend per experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Tiny budgets and a coarse stride — seconds end-to-end. For CI
    /// smoke runs and cache-behavior tests, not for reading results off.
    Smoke,
    /// Reduced instruction budgets and a strided configuration space —
    /// minutes on a laptop core.
    Quick,
    /// Full budgets and the complete space.
    Full,
}

impl Scale {
    /// Multiplier on each workload's detailed instruction budget.
    #[must_use]
    pub fn detailed_factor(self) -> f64 {
        match self {
            Scale::Smoke => 0.08,
            Scale::Quick => 0.3,
            Scale::Full => 1.0,
        }
    }

    /// Stride over the configuration space for brute-force sweeps
    /// (1 = every configuration).
    #[must_use]
    pub fn space_stride(self) -> usize {
        match self {
            Scale::Smoke => 32,
            Scale::Quick => 4,
            Scale::Full => 1,
        }
    }

    /// Total instruction budget for controller (MCT runtime) experiments.
    #[must_use]
    pub fn controller_insts(self) -> u64 {
        match self {
            Scale::Smoke => 2_000_000,
            Scale::Quick => 8_000_000,
            Scale::Full => 20_000_000,
        }
    }

    /// File-name tag for cached datasets.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// Parse an experiment binary's arguments (without the program
    /// name): `[--scale smoke|quick|full]`. With no `--scale` the scale
    /// is quick; a repeated `--scale` takes the last value.
    ///
    /// # Errors
    /// Any other argument (`--scale=smoke` included), a `--scale` with no
    /// value (at the end or before another flag), and a value that names
    /// no scale.
    pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<Scale, ScaleArgError> {
        let mut scale = Scale::Quick;
        let mut args = args.iter().map(AsRef::as_ref);
        while let Some(arg) = args.next() {
            if arg != "--scale" {
                return Err(ScaleArgError::UnknownFlag(arg.to_string()));
            }
            scale = match args.next().filter(|v| !v.starts_with('-')) {
                Some("smoke") => Scale::Smoke,
                Some("quick") => Scale::Quick,
                Some("full") => Scale::Full,
                Some(other) => return Err(ScaleArgError::BadValue(other.to_string())),
                None => return Err(ScaleArgError::MissingValue),
            };
        }
        Ok(scale)
    }

    /// The process's scale, parsed by [`Scale::parse`]; on a usage error,
    /// prints it with a usage line to stderr and exits with code 2. Call
    /// it first in `main`, before measuring anything.
    #[must_use]
    pub fn from_args() -> Scale {
        let mut argv = std::env::args();
        let bin = argv.next().unwrap_or_default();
        let args: Vec<String> = argv.collect();
        Scale::parse(&args).unwrap_or_else(|e| {
            eprintln!("{bin}: {e}\nusage: {bin} [--scale smoke|quick|full]");
            std::process::exit(2)
        })
    }
}

/// Why an experiment binary's command line was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScaleArgError {
    /// An argument other than `--scale` and its value (a typo such as
    /// `--sacle`, `--help`, `--scale=smoke`, or a stray positional).
    UnknownFlag(String),
    /// `--scale` with no value after it.
    MissingValue,
    /// A `--scale` value that is not `smoke`, `quick` or `full`.
    BadValue(String),
}

impl fmt::Display for ScaleArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScaleArgError::UnknownFlag(a) => write!(f, "unknown argument {a}"),
            ScaleArgError::MissingValue => f.write_str("--scale needs a value"),
            ScaleArgError::BadValue(v) => {
                write!(
                    f,
                    "invalid value {v:?} for --scale: expected smoke|quick|full"
                )
            }
        }
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_strictly_ordered_by_cost() {
        assert!(Scale::Smoke.detailed_factor() < Scale::Quick.detailed_factor());
        assert!(Scale::Quick.detailed_factor() < Scale::Full.detailed_factor());
        assert!(Scale::Smoke.space_stride() > Scale::Quick.space_stride());
        assert!(Scale::Quick.space_stride() > Scale::Full.space_stride());
        assert!(Scale::Smoke.controller_insts() < Scale::Quick.controller_insts());
        assert!(Scale::Quick.controller_insts() < Scale::Full.controller_insts());
    }

    #[test]
    fn tags() {
        assert_eq!(Scale::Smoke.tag(), "smoke");
        assert_eq!(Scale::Quick.tag(), "quick");
        assert_eq!(Scale::Full.to_string(), "full");
    }

    #[test]
    fn scale_argv_table() {
        use ScaleArgError::*;
        let rows: Vec<(&str, Result<Scale, ScaleArgError>)> = vec![
            ("", Ok(Scale::Quick)),
            ("--scale smoke", Ok(Scale::Smoke)),
            ("--scale quick", Ok(Scale::Quick)),
            ("--scale full", Ok(Scale::Full)),
            ("--scale smoke --scale full", Ok(Scale::Full)),
            ("--scale=smoke", Err(UnknownFlag("--scale=smoke".into()))),
            ("--sacle smoke", Err(UnknownFlag("--sacle".into()))),
            ("--scales smoke", Err(UnknownFlag("--scales".into()))),
            ("--help", Err(UnknownFlag("--help".into()))),
            ("smoke", Err(UnknownFlag("smoke".into()))),
            ("--scale smoke extra", Err(UnknownFlag("extra".into()))),
            ("--scale", Err(MissingValue)),
            ("--scale --help", Err(MissingValue)),
            ("--scale fast", Err(BadValue("fast".into()))),
            ("--scale Smoke", Err(BadValue("Smoke".into()))),
        ];
        for (line, want) in rows {
            let argv: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(Scale::parse(&argv), want, "argv {line:?}");
        }
        let owned: Vec<String> = vec!["--scale".into(), "smoke".into()];
        assert_eq!(Scale::parse(&owned), Ok(Scale::Smoke));
    }
}
