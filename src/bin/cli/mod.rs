//! Flag parsing shared by the `tle`, `tle-trace` and `tle-torture`
//! binaries.

/// Pull `--key value` out of an argument list.
pub fn opt(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parse `--key value`, or `default` when the flag is absent. A value that
/// does not parse is a usage error: the flag is named and the process
/// exits 2 rather than running a configuration nobody asked for.
pub fn opt_parse<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> T {
    match opt(args, key) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!(
                "{}: {key}: `{v}` is not a valid value",
                env!("CARGO_BIN_NAME")
            );
            std::process::exit(2);
        }),
    }
}
