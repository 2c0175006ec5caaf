use leime_dnn::DnnError;
use leime_par::ParError;
use std::fmt;

/// Top-level error type of the `leime` crate.
#[derive(Debug, Clone, PartialEq)]
pub enum LeimeError {
    /// A model/exit-combination error from the DNN layer.
    Dnn(DnnError),
    /// An invalid scenario or parameter configuration.
    Config(String),
    /// A failure in the deterministic parallel layer (a shard panic or a
    /// lost worker — see [`leime_par::ParError`]).
    Parallel(ParError),
}

impl fmt::Display for LeimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LeimeError::Dnn(e) => write!(f, "model error: {e}"),
            LeimeError::Config(msg) => write!(f, "configuration error: {msg}"),
            LeimeError::Parallel(e) => write!(f, "parallel execution error: {e}"),
        }
    }
}

impl std::error::Error for LeimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LeimeError::Dnn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DnnError> for LeimeError {
    fn from(e: DnnError) -> Self {
        LeimeError::Dnn(e)
    }
}

impl From<ParError> for LeimeError {
    fn from(e: ParError) -> Self {
        LeimeError::Parallel(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = LeimeError::from(DnnError::EmptyChain);
        assert!(e.to_string().contains("chain has no layers"));
        assert!(std::error::Error::source(&e).is_some());
        let c = LeimeError::Config("bad".into());
        assert!(c.to_string().contains("bad"));
        assert!(std::error::Error::source(&c).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LeimeError>();
    }
}
