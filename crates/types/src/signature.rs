//! 64-byte transaction signatures.
//!
//! Layout: bytes 0..8 carry the Schnorr commitment R, bytes 8..16 the
//! response s, and the remaining 48 bytes are a deterministic digest of
//! (R, s, message) so each signature renders as a unique 64-byte base58
//! string — the same shape as Solana's ed25519 signatures, which double as
//! transaction ids.

use std::fmt;
use std::str::FromStr;

use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

use crate::base58;
use crate::hash::Hash;
use crate::schnorr::SchnorrSig;

/// Size of a signature in bytes.
pub const SIGNATURE_BYTES: usize = 64;

/// A 64-byte signature, also used as a transaction id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Signature(pub [u8; SIGNATURE_BYTES]);

impl Default for Signature {
    fn default() -> Self {
        Signature([0u8; SIGNATURE_BYTES])
    }
}

impl Signature {
    /// Pack a Schnorr signature over `msg` into wire form.
    pub fn from_schnorr(sig: SchnorrSig, msg: &[u8]) -> Self {
        let mut bytes = [0u8; SIGNATURE_BYTES];
        bytes[..8].copy_from_slice(&sig.r.to_le_bytes());
        bytes[8..16].copy_from_slice(&sig.s.to_le_bytes());
        let tail =
            Hash::digest_parts(&[b"sig-tail", &sig.r.to_le_bytes(), &sig.s.to_le_bytes(), msg]);
        bytes[16..48].copy_from_slice(&tail.0);
        bytes[48..].copy_from_slice(&Hash::digest_parts(&[b"sig-tail2", &tail.0]).0[..16]);
        Signature(bytes)
    }

    /// Recover the algebraic part for verification.
    pub fn schnorr(&self) -> SchnorrSig {
        SchnorrSig {
            r: u64::from_le_bytes(self.0[..8].try_into().unwrap()),
            s: u64::from_le_bytes(self.0[8..16].try_into().unwrap()),
        }
    }

    /// Short display prefix for reports.
    pub fn short(&self) -> String {
        self.to_string().chars().take(8).collect()
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&base58::encode(&self.0))
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signature({})", self.short())
    }
}

impl FromStr for Signature {
    type Err = &'static str;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bytes = base58::decode(s).ok_or("invalid base58")?;
        let arr: [u8; SIGNATURE_BYTES] = bytes.try_into().map_err(|_| "wrong length")?;
        Ok(Signature(arr))
    }
}

impl Serialize for Signature {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(&base58::encode(&self.0))
    }
}

impl<'de> Deserialize<'de> for Signature {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let s = String::deserialize(d)?;
        s.parse().map_err(D::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pubkey::Keypair;

    #[test]
    fn schnorr_roundtrips_through_bytes() {
        let kp = Keypair::from_label("sig-test");
        let sig = kp.sign(b"payload");
        let inner = sig.schnorr();
        assert!(inner.verify(kp.pubkey().verifying_element(), b"payload"));
    }

    #[test]
    fn distinct_messages_distinct_signatures() {
        let kp = Keypair::from_label("sig-test");
        assert_ne!(kp.sign(b"a"), kp.sign(b"b"));
    }

    #[test]
    fn display_parse_roundtrip() {
        let sig = Keypair::from_label("x").sign(b"m");
        assert_eq!(sig.to_string().parse::<Signature>().unwrap(), sig);
    }

    #[test]
    fn serde_roundtrip() {
        let sig = Keypair::from_label("x").sign(b"m");
        let json = serde_json::to_string(&sig).unwrap();
        let back: Signature = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sig);
    }
}
