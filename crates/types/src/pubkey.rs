//! Account addresses.
//!
//! A [`Pubkey`] is a 32-byte address rendered in base58, exactly like Solana.
//! For signing accounts the first eight bytes embed the Schnorr public group
//! element (see [`crate::schnorr`]) so that signatures are publicly
//! verifiable from the address alone; the remaining 24 bytes are a
//! deterministic tag that spreads addresses over the full display space.
//! Program and sysvar addresses are derived from a name and never sign.

use std::fmt;
use std::str::FromStr;

use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

use crate::base58;
use crate::hash::Hash;
use crate::schnorr;

/// Size of a public key in bytes.
pub const PUBKEY_BYTES: usize = 32;

/// A 32-byte account address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Pubkey(pub [u8; PUBKEY_BYTES]);

impl Pubkey {
    /// Address for a signing key's public group element.
    pub fn from_element(element: u64) -> Self {
        let mut bytes = [0u8; PUBKEY_BYTES];
        bytes[..8].copy_from_slice(&element.to_le_bytes());
        let tag = Hash::digest_parts(&[b"pk-tag", &element.to_le_bytes()]);
        bytes[8..].copy_from_slice(&tag.0[..24]);
        Pubkey(bytes)
    }

    /// Deterministic non-signing address (programs, sysvars, tip accounts).
    pub fn derive(name: &str) -> Self {
        let h = Hash::digest_parts(&[b"derived-address", name.as_bytes()]);
        Pubkey(h.0)
    }

    /// Derived address namespaced under a parent (e.g. token accounts).
    pub fn derive_with(parent: &Pubkey, name: &str) -> Self {
        let h = Hash::digest_parts(&[b"derived-address", &parent.0, name.as_bytes()]);
        Pubkey(h.0)
    }

    /// The embedded Schnorr public element (only meaningful for signing keys).
    pub fn verifying_element(&self) -> u64 {
        u64::from_le_bytes(self.0[..8].try_into().unwrap())
    }

    /// Verify a signature over `msg` allegedly produced by this address.
    pub fn verify(&self, msg: &[u8], sig: &crate::signature::Signature) -> bool {
        // A signing address embeds its element and a matching tag; forged or
        // derived addresses fail the tag check and can never verify.
        let expected = Pubkey::from_element(self.verifying_element());
        if expected != *self {
            return false;
        }
        sig.schnorr().verify(self.verifying_element(), msg)
    }

    /// Raw bytes.
    pub fn as_bytes(&self) -> &[u8; PUBKEY_BYTES] {
        &self.0
    }

    /// Short display prefix (first eight base58 chars), handy in reports.
    pub fn short(&self) -> String {
        let s = self.to_string();
        s.chars().take(8).collect()
    }
}

impl fmt::Display for Pubkey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&base58::encode(&self.0))
    }
}

impl fmt::Debug for Pubkey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pubkey({})", self.short())
    }
}

impl FromStr for Pubkey {
    type Err = &'static str;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bytes = base58::decode(s).ok_or("invalid base58")?;
        let arr: [u8; PUBKEY_BYTES] = bytes.try_into().map_err(|_| "wrong length")?;
        Ok(Pubkey(arr))
    }
}

impl Serialize for Pubkey {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(&base58::encode(&self.0))
    }
}

impl<'de> Deserialize<'de> for Pubkey {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let s = String::deserialize(d)?;
        s.parse().map_err(D::Error::custom)
    }
}

/// A signing identity: Schnorr secret plus its derived address.
#[derive(Clone, Copy, Debug)]
pub struct Keypair {
    signing: schnorr::SigningKey,
    pubkey: Pubkey,
}

impl Keypair {
    /// Deterministic keypair from a 32-byte seed.
    pub fn from_seed(seed: &[u8; 32]) -> Self {
        let signing = schnorr::SigningKey::from_seed(seed);
        Keypair {
            signing,
            pubkey: Pubkey::from_element(signing.public_element()),
        }
    }

    /// Deterministic keypair from a label (testing and simulation agents).
    pub fn from_label(label: &str) -> Self {
        let seed = Hash::digest_parts(&[b"keypair-label", label.as_bytes()]);
        Keypair::from_seed(&seed.0)
    }

    /// Random keypair.
    pub fn generate<R: rand::Rng>(rng: &mut R) -> Self {
        let mut seed = [0u8; 32];
        rng.fill(&mut seed);
        Keypair::from_seed(&seed)
    }

    /// This identity's address.
    pub fn pubkey(&self) -> Pubkey {
        self.pubkey
    }

    /// Sign a message.
    pub fn sign(&self, msg: &[u8]) -> crate::signature::Signature {
        crate::signature::Signature::from_schnorr(self.signing.sign(msg), msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_parse_roundtrip() {
        let kp = Keypair::from_label("alice");
        let s = kp.pubkey().to_string();
        assert_eq!(s.parse::<Pubkey>().unwrap(), kp.pubkey());
    }

    #[test]
    fn keypair_sign_verify() {
        let kp = Keypair::from_label("alice");
        let sig = kp.sign(b"hello");
        assert!(kp.pubkey().verify(b"hello", &sig));
        assert!(!kp.pubkey().verify(b"tampered", &sig));
    }

    #[test]
    fn different_labels_different_keys() {
        assert_ne!(
            Keypair::from_label("a").pubkey(),
            Keypair::from_label("b").pubkey()
        );
    }

    #[test]
    fn derived_addresses_never_verify() {
        let program = Pubkey::derive("system_program");
        let kp = Keypair::from_label("alice");
        let sig = kp.sign(b"msg");
        assert!(!program.verify(b"msg", &sig));
    }

    #[test]
    fn derive_is_stable_and_namespaced() {
        assert_eq!(Pubkey::derive("x"), Pubkey::derive("x"));
        assert_ne!(Pubkey::derive("x"), Pubkey::derive("y"));
        let parent = Pubkey::derive("mint");
        assert_ne!(Pubkey::derive_with(&parent, "x"), Pubkey::derive("x"));
    }

    #[test]
    fn serde_roundtrip() {
        let pk = Keypair::from_label("serde").pubkey();
        let json = serde_json::to_string(&pk).unwrap();
        let back: Pubkey = serde_json::from_str(&json).unwrap();
        assert_eq!(back, pk);
    }
}
