//! FNV-1a, the workspace's one content hash: per-row attack seeds, the
//! noise defense's batch key, scenario fingerprints, checkpoint and WAL
//! checksums, and experiment seeds all fold through [`fnv_words`].
//! Changing it moves every one of those pinned values.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, with the offset basis tweaked by `basis`
/// (`basis = 0` is plain FNV-1a).
pub fn fnv(basis: u64, bytes: &[u8]) -> u64 {
    fnv_words(basis, bytes.iter().map(|&b| u64::from(b)))
}

/// FNV-1a's fold with each step XOR-ing in a whole 64-bit word rather
/// than a byte — how `f64` bit patterns are hashed. On words below 256
/// it equals [`fnv`] over the same values as bytes.
pub fn fnv_words(basis: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(OFFSET_BASIS ^ basis.wrapping_mul(PRIME), |h, w| {
            (h ^ w).wrapping_mul(PRIME)
        })
}
