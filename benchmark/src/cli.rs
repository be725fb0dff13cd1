//! What the two binaries' command lines share.

/// The seed when `--seed` is not given: the paper's first measurement day.
pub const DEFAULT_SEED: u64 = 20_250_209;

/// Scratch and reports, relative to the checkout root the command runs from.
pub const OUT: &str = "benchmark/out";

/// The argument after `flag`, if both are there.
pub fn value_of<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The number after `flag`, or `default` when the flag is absent.
pub fn number_of<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, String> {
    match value_of(args, flag) {
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("{flag} {raw}: not a number")),
        None => Ok(default),
    }
}
