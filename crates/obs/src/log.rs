//! Structured stderr logging facade.
//!
//! Every ad-hoc diagnostic line in the workspace (store load/execute
//! narration, campaign progress) routes through
//! this module so that daemon-ification later has a single switch. The
//! active threshold comes from the `GOSSIPOPT_LOG` environment variable
//! (`error`, `warn`, `info`, `debug`; default `info`) and is read once
//! per process.
//!
//! Messages are emitted **verbatim** — no timestamp or level prefix —
//! because existing CI greps match the historical line shapes exactly
//! (e.g. `store: 12 loaded, 0 executed`).

use std::sync::OnceLock;

/// Severity of a log line, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The process cannot do what was asked (bad flags, I/O failures).
    Error = 0,
    /// Something recoverable went wrong (corrupt store entry recomputed).
    Warn = 1,
    /// Normal progress narration (campaign headers, store counts).
    Info = 2,
    /// Chatty detail useful only when debugging.
    Debug = 3,
}

impl Level {
    fn parse(text: &str) -> Option<Level> {
        match text.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }
}

fn threshold() -> Level {
    static THRESHOLD: OnceLock<Level> = OnceLock::new();
    *THRESHOLD.get_or_init(|| {
        std::env::var("GOSSIPOPT_LOG")
            .ok()
            .and_then(|v| Level::parse(&v))
            .unwrap_or(Level::Info)
    })
}

/// Whether a line at `level` would be emitted under the current filter.
///
/// Use this to skip building expensive messages when they would be
/// discarded anyway.
pub fn enabled(level: Level) -> bool {
    level <= threshold()
}

/// Emit `msg` to stderr verbatim if `level` passes the filter.
pub fn log(level: Level, msg: &str) {
    if enabled(level) {
        eprintln!("{msg}");
    }
}

/// Emit an [`Level::Error`] line.
pub fn error(msg: &str) {
    log(Level::Error, msg);
}

/// Emit a [`Level::Warn`] line.
pub fn warn(msg: &str) {
    log(Level::Warn, msg);
}

/// Emit an [`Level::Info`] line.
pub fn info(msg: &str) {
    log(Level::Info, msg);
}

/// Emit a [`Level::Debug`] line.
pub fn debug(msg: &str) {
    log(Level::Debug, msg);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_from_most_to_least_severe() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
    }

    #[test]
    fn parse_accepts_known_names_case_insensitively() {
        assert_eq!(Level::parse("ERROR"), Some(Level::Error));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse(" info "), Some(Level::Info));
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("verbose"), None);
    }
}
