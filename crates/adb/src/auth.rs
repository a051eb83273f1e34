//! ADB authentication.
//!
//! Real adb uses RSA keypairs: the device challenges with a 20-byte token,
//! the host answers with a signature, and unknown keys require the user to
//! tap "allow" on the device. We keep the exact message flow
//! (`AUTH TOKEN` → `AUTH SIGNATURE` → fallback `AUTH RSAPUBLICKEY`) over a
//! keyed-hash scheme instead of RSA — the protocol behaviour, trust store
//! and failure modes are what BatteryLab depends on, not the asymmetric
//! math.

use serde::Serialize;

/// Length of the device's challenge token, bytes (as in real adb).
pub const TOKEN_LEN: usize = 20;

/// A host identity key (`~/.android/adbkey` equivalent).
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct AdbKey {
    /// Public fingerprint, shown in the device's "allow USB debugging?"
    /// dialog and stored in its trust store.
    pub fingerprint: String,
    secret: u64,
}

impl AdbKey {
    /// Deterministically derive a key for a named host.
    pub fn generate(host_name: &str, seed: u64) -> AdbKey {
        let secret = mix(seed ^ hash_str(host_name));
        AdbKey {
            fingerprint: format!("{:016x}:{}", mix(secret), host_name),
            secret,
        }
    }

    /// Sign a challenge token.
    pub fn sign(&self, token: &[u8]) -> Vec<u8> {
        keyed_hash(self.secret, token).to_le_bytes().to_vec()
    }

    /// Public part, sent in `AUTH RSAPUBLICKEY`: fingerprint plus the
    /// verification tag the device stores (hex, so the blob stays ASCII
    /// like real adb's base64 key lines).
    pub fn public_blob(&self) -> Vec<u8> {
        format!("{} {:016x}", self.fingerprint, mix(self.secret)).into_bytes()
    }
}

/// Device-side verification material parsed from a public blob.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct PublicKey {
    /// The key's fingerprint.
    pub fingerprint: String,
    tag: u64,
}

impl PublicKey {
    /// Parse a blob from `AUTH RSAPUBLICKEY`.
    pub fn parse(blob: &[u8]) -> Option<PublicKey> {
        let text = std::str::from_utf8(blob).ok()?;
        let (fp, tag_hex) = text.rsplit_once(' ')?;
        if fp.is_empty() || tag_hex.len() != 16 {
            return None;
        }
        Some(PublicKey {
            fingerprint: fp.to_string(),
            tag: u64::from_str_radix(tag_hex, 16).ok()?,
        })
    }

    /// Verify a signature over `token` claimed by this key.
    pub fn verify(&self, token: &[u8], signature: &[u8]) -> bool {
        let sig_bytes: Result<[u8; 8], _> = signature.try_into();
        let Ok(sig) = sig_bytes else { return false };
        // The tag is mix(secret); a valid signer proves knowledge of a
        // secret whose keyed hash matches under that tag.
        u64::from_le_bytes(sig) == keyed_hash_tagged(self.tag, token)
    }
}

fn hash_str(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn keyed_hash(secret: u64, data: &[u8]) -> u64 {
    keyed_hash_tagged(mix(secret), data)
}

fn keyed_hash_tagged(tag: u64, data: &[u8]) -> u64 {
    data.iter()
        .fold(tag ^ 0x1234_5678_9abc_def0, |h, &b| mix(h ^ b as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_round_trip() {
        let key = AdbKey::generate("access-server", 42);
        let public = PublicKey::parse(&key.public_blob()).unwrap();
        let token = [7u8; TOKEN_LEN];
        let sig = key.sign(&token);
        assert!(public.verify(&token, &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let key = AdbKey::generate("access-server", 42);
        let imposter = AdbKey::generate("access-server", 43);
        let public = PublicKey::parse(&key.public_blob()).unwrap();
        let token = [7u8; TOKEN_LEN];
        assert!(!public.verify(&token, &imposter.sign(&token)));
    }

    #[test]
    fn wrong_token_rejected() {
        let key = AdbKey::generate("h", 1);
        let public = PublicKey::parse(&key.public_blob()).unwrap();
        let sig = key.sign(&[1u8; TOKEN_LEN]);
        assert!(!public.verify(&[2u8; TOKEN_LEN], &sig));
    }

    #[test]
    fn deterministic_generation() {
        let a = AdbKey::generate("h", 9);
        let b = AdbKey::generate("h", 9);
        assert_eq!(a, b);
        let c = AdbKey::generate("other", 9);
        assert_ne!(a.fingerprint, c.fingerprint);
    }

    #[test]
    fn garbage_blob_rejected() {
        assert!(PublicKey::parse(b"").is_none());
        assert!(PublicKey::parse(b"no-space-here").is_none());
        assert!(PublicKey::parse(b"fp short").is_none());
    }

    #[test]
    fn malformed_signature_rejected() {
        let key = AdbKey::generate("h", 1);
        let public = PublicKey::parse(&key.public_blob()).unwrap();
        assert!(!public.verify(&[0u8; TOKEN_LEN], b"short"));
        assert!(!public.verify(&[0u8; TOKEN_LEN], &[0u8; 16]));
    }
}
