//! Error type for framework construction.

use std::error::Error;
use std::fmt;

use icsad_bloom::BloomError;
use icsad_features::FeatureError;

/// Errors produced while training or assembling the detection framework.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// Feature engineering failed (discretizer fitting).
    Feature(FeatureError),
    /// Bloom filter construction failed.
    Bloom(BloomError),
    /// The training data is unusable for the requested configuration.
    InvalidTrainingData {
        /// Explanation.
        reason: String,
    },
    /// A training setting is outside the range a loadable detector can be
    /// trained from.
    InvalidConfig {
        /// Explanation.
        reason: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Feature(e) => write!(f, "feature engineering failed: {e}"),
            CoreError::Bloom(e) => write!(f, "bloom filter construction failed: {e}"),
            CoreError::InvalidTrainingData { reason } => {
                write!(f, "invalid training data: {reason}")
            }
            CoreError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Feature(e) => Some(e),
            CoreError::Bloom(e) => Some(e),
            CoreError::InvalidTrainingData { .. } | CoreError::InvalidConfig { .. } => None,
        }
    }
}

impl From<FeatureError> for CoreError {
    fn from(e: FeatureError) -> Self {
        CoreError::Feature(e)
    }
}

impl From<BloomError> for CoreError {
    fn from(e: BloomError) -> Self {
        CoreError::Bloom(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::InvalidTrainingData {
            reason: "empty".into(),
        };
        assert!(e.to_string().contains("empty"));
        assert!(e.source().is_none());

        let e = CoreError::from(BloomError::Corrupt);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("bloom"));
    }
}
