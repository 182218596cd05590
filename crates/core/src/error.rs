//! The unified error type of the Flash core crate.
//!
//! Dispatcher, verifier, adapter, and shard-pool APIs that previously
//! panicked or returned bare values thread [`FlashError`] instead, so a
//! malformed agent feed or a failing worker degrades into a reportable
//! condition rather than a process abort. Hand-rolled (`thiserror`-style
//! Display/Error impls) to stay dependency-light.

/// Any error the Flash core can surface to an embedding application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlashError {
    /// A network/agent input failed to parse; `line` is 1-based.
    Parse { line: usize, msg: String },
    /// A subspace worker panicked. `message` is the stringified panic
    /// payload when one was available.
    WorkerPanic { worker: usize, message: String },
    /// A worker exhausted its restart budget and was abandoned.
    RestartsExhausted { worker: usize, restarts: u32 },
    /// An invalid service or fault-plan configuration.
    Config(String),
}

impl FlashError {
    /// Convenience constructor for parse failures.
    pub fn parse(line: usize, msg: impl Into<String>) -> Self {
        FlashError::Parse { line, msg: msg.into() }
    }

    /// The offending input line for [`FlashError::Parse`] errors.
    pub fn parse_line(&self) -> Option<usize> {
        match self {
            FlashError::Parse { line, .. } => Some(*line),
            _ => None,
        }
    }
}

impl std::fmt::Display for FlashError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlashError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            FlashError::WorkerPanic { worker, message } => {
                write!(f, "worker {worker} panicked: {message}")
            }
            FlashError::RestartsExhausted { worker, restarts } => {
                write!(f, "worker {worker} abandoned after {restarts} restarts")
            }
            FlashError::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for FlashError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = FlashError::parse(7, "bad prefix");
        assert_eq!(e.to_string(), "line 7: bad prefix");
        assert_eq!(e.parse_line(), Some(7));
        let e = FlashError::RestartsExhausted {
            worker: 1,
            restarts: 3,
        };
        assert_eq!(e.to_string(), "worker 1 abandoned after 3 restarts");
        assert_eq!(e.parse_line(), None);
    }
}
