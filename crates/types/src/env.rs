//! Environment knobs for the workspace's binaries: a variable that is unset
//! means its default, and one that is set must parse.

use std::str::FromStr;

/// `value`, the setting of the environment variable `name` (`None` when
/// unset), parsed as `T`: `default` when unset, an error naming the variable
/// and its value when set but not a valid `T`.
pub fn parse_env<T: FromStr>(name: &str, value: Option<&str>, default: T) -> Result<T, String> {
    match value {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| {
            format!(
                "{name}={raw:?} is not a valid {}",
                std::any::type_name::<T>()
            )
        }),
    }
}

/// The environment variable `name` parsed as `T`, or `default` when unset.
/// A set value that does not parse (or is not UTF-8) ends the process with
/// exit status 2 and a message naming the variable and its value, so a typo
/// never runs the default under the name of the value asked for.
pub fn env_or<T: FromStr>(name: &str, default: T) -> T {
    let parsed = match std::env::var(name) {
        Ok(value) => parse_env(name, Some(&value), default),
        Err(std::env::VarError::NotPresent) => parse_env(name, None, default),
        Err(std::env::VarError::NotUnicode(raw)) => Err(format!("{name}={raw:?} is not UTF-8")),
    };
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::parse_env;

    #[test]
    fn unset_is_the_default_and_a_malformed_setting_is_an_error() {
        assert_eq!(parse_env::<u64>("SANDWICH_DAYS", None, 120), Ok(120));
        assert_eq!(parse_env::<u64>("SANDWICH_DAYS", Some("5"), 120), Ok(5));
        for raw in ["5d", "0.005", "", "-1"] {
            let err = parse_env::<u64>("SANDWICH_SCALE", Some(raw), 4_000).unwrap_err();
            assert!(err.contains("SANDWICH_SCALE"), "{err}");
            assert!(err.contains(&format!("{raw:?}")), "{err}");
            assert!(err.contains("u64"), "{err}");
        }
        // A zero volume denominator is refused, not run at full volume.
        let zero = std::num::NonZeroU64::new(4_000).expect("non-zero");
        assert!(parse_env("SANDWICH_SCALE", Some("0"), zero).is_err());
        assert_eq!(
            parse_env(
                "SANDWICH_STORE_DIR",
                Some("x.store"),
                String::from("dataset.store")
            ),
            Ok(String::from("x.store"))
        );
    }
}
