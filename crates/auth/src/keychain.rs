//! Key issuance, signing handles, and verification.

use std::fmt;
use std::sync::Arc;

/// Identifies a key issued by a [`Keychain`].
///
/// Key ids are public information: they name *who* allegedly signed a
/// payload; verification decides whether the claim is genuine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeyId(u32);

impl fmt::Debug for KeyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "key{}", self.0)
    }
}

/// A signature tag over a payload digest.
///
/// Tag bits are never meaningful to callers; only [`Verifier::verify`] can
/// interpret them.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    key: KeyId,
    tag: u64,
}

impl Signature {
    /// The key this signature claims to be from.
    #[cfg(test)]
    pub(crate) fn key(&self) -> KeyId {
        self.key
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sig({:?}, {:016x})", self.key, self.tag)
    }
}

/// The authority that issues signing keys for one simulated system.
///
/// Create one keychain per cluster, [`issue`](Keychain::issue) a handle to
/// the writer, and distribute [`Verifier`]s to everyone.
pub struct Keychain {
    secrets: Vec<u64>,
    seed: u64,
}

impl Keychain {
    /// Creates a keychain whose secrets are derived from `seed`.
    ///
    /// Different seeds yield different, mutually unverifiable key universes.
    pub fn new(seed: u64) -> Self {
        Keychain {
            secrets: Vec::new(),
            seed,
        }
    }

    /// Issues a fresh key and returns its signing handle.
    ///
    /// The handle is the *only* way to produce valid signatures under the
    /// new key; hand it to exactly one (honest) process.
    pub fn issue(&mut self) -> SignerHandle {
        let index = self.secrets.len() as u32;
        let secret = splitmix(self.seed ^ splitmix(index as u64 + 0x9e37));
        self.secrets.push(secret);
        SignerHandle {
            key: KeyId(index),
            secret,
        }
    }

    /// Returns a verifier for all keys issued so far.
    ///
    /// Issue every key *before* taking verifiers; later keys are unknown to
    /// earlier verifiers.
    pub fn verifier(&self) -> Verifier {
        Verifier {
            secrets: Arc::new(self.secrets.clone()),
        }
    }

    /// Number of keys issued.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.secrets.len()
    }

    /// Returns `true` if no keys have been issued.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.secrets.is_empty()
    }
}

impl fmt::Debug for Keychain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print secrets.
        write!(f, "Keychain({} keys)", self.secrets.len())
    }
}

/// The capability to sign under one key.
///
/// Possession of a `SignerHandle` *is* the secret key; do not hand it to
/// Byzantine strategies.
pub struct SignerHandle {
    key: KeyId,
    secret: u64,
}

impl SignerHandle {
    /// The public id of this handle's key.
    pub fn key(&self) -> KeyId {
        self.key
    }

    /// Signs a payload digest.
    pub fn sign(&self, payload_digest: u64) -> Signature {
        Signature {
            key: self.key,
            tag: tag_for(self.secret, payload_digest),
        }
    }
}

impl fmt::Debug for SignerHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the secret.
        write!(f, "SignerHandle({:?})", self.key)
    }
}

/// Shared verification capability for all keys of one keychain.
///
/// Cheap to clone (`Arc` inside); safe to give to every actor including
/// Byzantine ones — it exposes no way to produce signatures.
#[derive(Clone)]
pub struct Verifier {
    secrets: Arc<Vec<u64>>,
}

impl Verifier {
    /// Returns `true` iff `sig` is a genuine signature of `payload_digest`
    /// under `key`.
    pub fn verify(&self, key: KeyId, payload_digest: u64, sig: &Signature) -> bool {
        if sig.key != key {
            return false;
        }
        match self.secrets.get(key.0 as usize) {
            Some(&secret) => sig.tag == tag_for(secret, payload_digest),
            None => false,
        }
    }
}

impl fmt::Debug for Verifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Verifier({} keys)", self.secrets.len())
    }
}

/// SplitMix64 finalizer — a strong 64-bit mixer.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn tag_for(secret: u64, payload_digest: u64) -> u64 {
    splitmix(secret ^ splitmix(payload_digest))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let mut c = Keychain::new(0);
        let h = c.issue();
        let v = c.verifier();
        let sig = h.sign(123);
        assert!(v.verify(h.key(), 123, &sig));
    }

    #[test]
    fn wrong_digest_fails() {
        let mut c = Keychain::new(0);
        let h = c.issue();
        let v = c.verifier();
        let sig = h.sign(123);
        assert!(!v.verify(h.key(), 124, &sig));
    }

    #[test]
    fn wrong_key_fails() {
        let mut c = Keychain::new(0);
        let h1 = c.issue();
        let h2 = c.issue();
        let v = c.verifier();
        let sig = h1.sign(123);
        assert!(!v.verify(h2.key(), 123, &sig));
    }

    #[test]
    fn unknown_key_fails() {
        let mut c = Keychain::new(0);
        let h = c.issue();
        let v = c.verifier();
        let mut c2 = Keychain::new(0);
        let _ = c2.issue();
        let h_late = c2.issue(); // key index 1, unknown to v
        let sig = h_late.sign(1);
        assert!(!v.verify(h_late.key(), 1, &sig));
        // Sanity: the known key still verifies.
        assert!(v.verify(h.key(), 2, &h.sign(2)));
    }

    #[test]
    fn verifier_is_cheap_to_clone_and_consistent() {
        let mut c = Keychain::new(9);
        let h = c.issue();
        let v1 = c.verifier();
        let v2 = v1.clone();
        let sig = h.sign(7);
        assert!(v1.verify(h.key(), 7, &sig));
        assert!(v2.verify(h.key(), 7, &sig));
    }

    #[test]
    fn distinct_keys_have_distinct_tags() {
        let mut c = Keychain::new(4);
        let h1 = c.issue();
        let h2 = c.issue();
        let s1 = h1.sign(42);
        let s2 = h2.sign(42);
        assert_ne!(s1, s2);
    }

    #[test]
    fn deterministic_across_runs() {
        let make = || {
            let mut c = Keychain::new(77);
            let h = c.issue();
            h.sign(5)
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn debug_never_leaks_secrets() {
        let mut c = Keychain::new(0);
        let h = c.issue();
        let v = c.verifier();
        let all = format!("{c:?} {h:?} {v:?}");
        assert!(all.contains("Keychain(1 keys)"));
        assert!(all.contains("SignerHandle(key0)"));
        assert!(all.contains("Verifier(1 keys)"));
    }

    #[test]
    fn keychain_len_tracks_issues() {
        let mut c = Keychain::new(0);
        assert!(c.is_empty());
        c.issue();
        c.issue();
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn signature_reports_key() {
        let mut c = Keychain::new(0);
        let h = c.issue();
        assert_eq!(h.sign(0).key(), h.key());
    }
}
