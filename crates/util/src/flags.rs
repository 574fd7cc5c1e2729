//! The binaries' one `--flag value` parser: a flag is known iff the
//! command's usage line names it, takes exactly one value and is given at
//! most once; anything else is an error naming the argument.

/// The `--flag value` arguments of a command line, checked against its
/// usage line.
pub struct Flags {
    pairs: Vec<(String, String)>,
    usage: &'static str,
}

impl Flags {
    /// Parses `args` (the command line after the program or subcommand
    /// name) against `usage`: an unknown argument, a flag without a value
    /// and a repeated flag are errors.
    pub fn parse(args: &[String], usage: &'static str) -> Result<Flags, String> {
        let known = |flag: &str| {
            flag.starts_with("--")
                && usage
                    .split(|c: char| c == '[' || c == ']' || c.is_whitespace())
                    .any(|token| token == flag)
        };
        let mut pairs: Vec<(String, String)> = Vec::new();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            if !known(flag) {
                return Err(format!("unknown argument '{flag}'"));
            }
            if pairs.iter().any(|(f, _)| f == flag) {
                return Err(format!("repeated argument '{flag}'"));
            }
            let value = args
                .next()
                .ok_or_else(|| format!("missing value for {flag}"))?;
            pairs.push((flag.clone(), value.clone()));
        }
        Ok(Flags { pairs, usage })
    }

    /// Parses the process arguments; on a bad command line prints the
    /// error and the usage line to stderr and exits with code 2.
    pub fn from_env(usage: &'static str) -> Flags {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Flags::parse(&args, usage).unwrap_or_else(|e| exit_usage(&e, usage))
    }

    /// The value given for `flag`.
    pub fn get(&self, flag: &str) -> Option<&str> {
        (self.pairs.iter()).find_map(|(f, v)| (f == flag).then_some(v.as_str()))
    }

    /// The value given for `flag` parsed as `T`, or `default` when the
    /// flag is absent; an error naming the flag when it does not parse.
    pub fn try_value<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for {flag}: '{v}'")),
        }
    }

    /// [`Flags::try_value`], exiting like [`Flags::from_env`] on an error.
    pub fn value<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        self.try_value(flag, default)
            .unwrap_or_else(|e| exit_usage(&e, self.usage))
    }
}

fn exit_usage(error: &str, usage: &str) -> ! {
    eprintln!("error: {error}\n{usage}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_reject_what_the_usage_line_does_not_name() {
        const USAGE: &str = "usage: campus [--users N] [--faults SPEC]";
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            Flags::parse(&args, USAGE)
        };
        let err = |args: &[&str]| parse(args).err().expect("rejected");
        // A typo, a trailing flag with no value, a flag the usage dropped,
        // a bare value, a flag given twice.
        assert_eq!(err(&["--user", "500"]), "unknown argument '--user'");
        assert_eq!(
            err(&["--faults", "", "--users"]),
            "missing value for --users"
        );
        assert_eq!(err(&["--report", ""]), "unknown argument '--report'");
        assert_eq!(err(&["500"]), "unknown argument '500'");
        assert_eq!(
            err(&["--users", "5", "--users", "6"]),
            "repeated argument '--users'"
        );
        // What it does name parses, empty values included.
        let flags = parse(&["--users", "500", "--faults", ""]).expect("accepted");
        assert_eq!(flags.value("--users", 10_000usize), 500);
        assert_eq!(flags.get("--faults"), Some(""));
        assert_eq!(parse(&[]).expect("accepted").value("--users", 7usize), 7);
        let bad = parse(&["--users", "many"]).expect("accepted");
        assert_eq!(
            bad.try_value("--users", 7usize),
            Err("bad value for --users: 'many'".to_string())
        );
    }
}
