//! Error type for the cryptographic layer.

use std::fmt;

use minshare_bignum::BigNumError;

/// Errors produced by group operations, ciphers and oblivious transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// The modulus is not a safe prime (or failed the probabilistic check).
    NotSafePrime,
    /// The requested parameter size is unsupported.
    UnsupportedSize {
        /// Bits requested by the caller.
        bits: u64,
    },
    /// A value that should be a group element (a signed residue in
    /// `[1, q]`) is not.
    NotGroupElement,
    /// A key outside `KeyF = {1, …, q-1}`.
    InvalidKey,
    /// A payload is too large for the one-block multiplicative cipher.
    PayloadTooLarge {
        /// Payload size in bytes.
        payload_bytes: usize,
        /// Maximum encodable size in bytes.
        max_bytes: usize,
    },
    /// Ciphertext failed structural validation (length, framing).
    MalformedCiphertext,
    /// Authentication tag mismatch on an authenticated payload.
    AuthenticationFailed,
    /// An underlying big-integer failure (division by zero etc.).
    Arithmetic(BigNumError),
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::NotSafePrime => write!(f, "modulus is not a safe prime"),
            CryptoError::UnsupportedSize { bits } => {
                write!(f, "unsupported parameter size: {bits} bits")
            }
            CryptoError::NotGroupElement => {
                write!(f, "value is not a group element (outside [1, q])")
            }
            CryptoError::InvalidKey => write!(f, "key outside KeyF = {{1..q-1}}"),
            CryptoError::PayloadTooLarge {
                payload_bytes,
                max_bytes,
            } => write!(
                f,
                "payload of {payload_bytes} bytes exceeds one-block capacity {max_bytes}"
            ),
            CryptoError::MalformedCiphertext => write!(f, "malformed ciphertext"),
            CryptoError::AuthenticationFailed => write!(f, "payload authentication failed"),
            CryptoError::Arithmetic(e) => write!(f, "arithmetic failure: {e}"),
        }
    }
}

impl std::error::Error for CryptoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CryptoError::Arithmetic(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BigNumError> for CryptoError {
    fn from(e: BigNumError) -> Self {
        CryptoError::Arithmetic(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CryptoError::from(BigNumError::DivisionByZero);
        assert!(e.to_string().contains("arithmetic"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&CryptoError::NotSafePrime).is_none());
    }
}
