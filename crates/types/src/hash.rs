//! SHA-256 and the 32-byte [`Hash`] value used for transaction and bundle ids.
//!
//! Implemented from scratch (FIPS 180-4) so the workspace has no external
//! cryptography dependencies; the measurement pipeline only needs collision
//! resistance for id derivation, not constant-time guarantees.

use std::fmt;

use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

use crate::base58;

/// Size of a [`Hash`] in bytes.
pub const HASH_BYTES: usize = 32;

/// A 32-byte SHA-256 digest, displayed in base58 like Solana hashes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Hash(pub [u8; HASH_BYTES]);

impl Hash {
    /// Hash of a single byte slice.
    pub fn digest(data: &[u8]) -> Self {
        let mut h = Sha256::new();
        h.update(data);
        Hash(h.finalize())
    }

    /// Hash of the concatenation of several byte slices.
    pub fn digest_parts(parts: &[&[u8]]) -> Self {
        let mut h = Sha256::new();
        for p in parts {
            h.update(p);
        }
        Hash(h.finalize())
    }

    /// Raw bytes of the digest.
    pub fn as_bytes(&self) -> &[u8; HASH_BYTES] {
        &self.0
    }

    /// Parse a base58 string produced by `Display`.
    pub fn from_base58(s: &str) -> Option<Self> {
        let bytes = base58::decode(s)?;
        let arr: [u8; HASH_BYTES] = bytes.try_into().ok()?;
        Some(Hash(arr))
    }
}

impl fmt::Display for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&base58::encode(&self.0))
    }
}

impl fmt::Debug for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash({self})")
    }
}

impl Serialize for Hash {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(&base58::encode(&self.0))
    }
}

impl<'de> Deserialize<'de> for Hash {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let s = String::deserialize(d)?;
        Hash::from_base58(&s).ok_or_else(|| D::Error::custom("invalid base58 hash"))
    }
}

/// A message of at most [`OneBlock::MAX_LEN`] bytes padded into its one SHA-256
/// block, built once per key; [`OneBlock::set`] rewrites a counter in place.
#[derive(Clone, Copy, Debug)]
pub struct OneBlock {
    block: [u8; 64],
    len: usize,
}

impl OneBlock {
    /// 64 bytes less the `0x80` marker and the 8-byte bit length.
    pub const MAX_LEN: usize = 55;

    /// The padded block of the concatenation of `parts`; panics if that is
    /// longer than [`Self::MAX_LEN`].
    pub fn new(parts: &[&[u8]]) -> OneBlock {
        let mut block = [0u8; 64];
        let mut len = 0;
        for part in parts {
            assert!(len + part.len() <= Self::MAX_LEN, "message over one block");
            block[len..len + part.len()].copy_from_slice(part);
            len += part.len();
        }
        block[len] = 0x80;
        block[56..].copy_from_slice(&(len as u64 * 8).to_be_bytes());
        OneBlock { block, len }
    }

    /// Overwrite message bytes `at..at + bytes.len()`; panics past the
    /// message, so the padding cannot be touched.
    pub fn set(&mut self, at: usize, bytes: &[u8]) {
        self.block[..self.len][at..at + bytes.len()].copy_from_slice(bytes);
    }

    /// Each message's SHA-256 ([`Hash::digest`] of its bytes), compressed
    /// `N` at a time: the SHA-NI rounds of independent blocks interleave, so
    /// two lanes cost little more than one.
    pub fn digests<const N: usize>(blocks: &[OneBlock; N]) -> [Hash; N] {
        let mut states = [H0; N];
        compress_lanes(&mut states, &blocks.map(|b| b.block));
        states.map(|state| Hash(std::array::from_fn(|i| state[i / 4].to_be_bytes()[i % 4])))
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher with the FIPS initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            length_bytes: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.length_bytes = self.length_bytes.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while let Some((block, rest)) = data.split_first_chunk::<64>() {
            self.compress(block);
            data = rest;
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffered = data.len();
        }
    }

    /// Finish and produce the digest.
    pub fn finalize(mut self) -> [u8; HASH_BYTES] {
        let bit_len = self.length_bytes.wrapping_mul(8);
        // One update carries the whole tail: 0x80, zeros up to 56 mod 64, and
        // the length as captured above (`update` counts these bytes too).
        let mut tail = [0u8; 72];
        tail[0] = 0x80;
        let pad = (119 - self.buffered) % 64 + 1;
        tail[pad..pad + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&tail[..pad + 8]);

        let mut out = [0u8; HASH_BYTES];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        compress_lanes(
            std::array::from_mut(&mut self.state),
            std::array::from_ref(block),
        );
    }
}

/// One compression of each block into its state: on the SHA extensions
/// when the CPU has them, lane by lane through [`compress_portable`] if not.
fn compress_lanes<const N: usize>(states: &mut [[u32; 8]; N], blocks: &[[u8; 64]; N]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::available() {
        // SAFETY: the CPU reports every feature the kernel is compiled for.
        unsafe { sha_ni::compress(states, blocks) };
        return;
    }
    for (state, block) in states.iter_mut().zip(blocks) {
        compress_portable(state, block);
    }
}

/// The FIPS 180-4 compression function in plain Rust: what runs on a CPU
/// without the SHA extensions, and the reference the kernel is tested
/// against.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[i * 4],
            block[i * 4 + 1],
            block[i * 4 + 2],
            block[i * 4 + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(add);
    }
}

/// The compression function on the x86 SHA extensions: `sha256rnds2` runs
/// two rounds, `sha256msg1`/`sha256msg2` extend the message schedule four
/// words at a time.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use std::arch::x86_64::*;

    use super::K;

    /// Whether this CPU can run [`compress`] (SSE2 is baseline on x86_64).
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// One compression of each block into its state, the lanes' rounds
    /// interleaved to hide `sha256rnds2` latency. Callers must have seen
    /// [`available`] hold: on a CPU without these extensions the
    /// instructions are undefined behaviour.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress<const N: usize>(states: &mut [[u32; 8]; N], blocks: &[[u8; 64]; N]) {
        // Message words arrive big-endian; this shuffle byte-swaps each lane.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let mut abef = [_mm_setzero_si128(); N];
        let mut cdgh = [_mm_setzero_si128(); N];
        let mut w = [[_mm_setzero_si128(); 4]; N];
        for lane in 0..N {
            // SAFETY: each state is 32 readable bytes and each block 64;
            // `loadu` has no alignment requirement.
            let (dcba, hgfe) = unsafe {
                let s = states[lane].as_ptr().cast::<__m128i>();
                let b = blocks[lane].as_ptr().cast::<__m128i>();
                w[lane] = [0, 1, 2, 3].map(|i| _mm_shuffle_epi8(_mm_loadu_si128(b.add(i)), bswap));
                (_mm_loadu_si128(s), _mm_loadu_si128(s.add(1)))
            };
            // `sha256rnds2` wants the working variables as ABEF and CDGH.
            let cdab = _mm_shuffle_epi32(dcba, 0xb1);
            let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
            abef[lane] = _mm_alignr_epi8(cdab, efgh, 8);
            cdgh[lane] = _mm_blend_epi16(efgh, cdab, 0xf0);
        }
        let (abef_in, cdgh_in) = (abef, cdgh);

        for i in 0..16 {
            for ((abef, cdgh), w) in abef.iter_mut().zip(&mut cdgh).zip(&mut w) {
                if i < 4 {
                    rounds4(abef, cdgh, w[i], i);
                    continue;
                }
                // W[t..t+4] from W[t-16..t-12], W[t-15..t-11], W[t-7..t-3], W[t-4..t].
                let next = _mm_sha256msg2_epu32(
                    _mm_add_epi32(
                        _mm_sha256msg1_epu32(w[0], w[1]),
                        _mm_alignr_epi8(w[3], w[2], 4),
                    ),
                    w[3],
                );
                rounds4(abef, cdgh, next, i);
                *w = [w[1], w[2], w[3], next];
            }
        }

        for lane in 0..N {
            let abef = _mm_add_epi32(abef[lane], abef_in[lane]);
            let cdgh = _mm_add_epi32(cdgh[lane], cdgh_in[lane]);
            let feba = _mm_shuffle_epi32(abef, 0x1b);
            let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
            let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
            let hgfe = _mm_alignr_epi8(dchg, feba, 8);
            // SAFETY: each state is 32 writable bytes; `storeu` has no
            // alignment requirement.
            unsafe {
                let s = states[lane].as_mut_ptr().cast::<__m128i>();
                _mm_storeu_si128(s, dcba);
                _mm_storeu_si128(s.add(1), hgfe);
            }
        }
    }

    /// Rounds `4 * i .. 4 * i + 4` over the message words `words`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, words: __m128i, i: usize) {
        // SAFETY: `K` has 64 words and `i < 16`, so the 16 bytes at
        // `4 * i` are in bounds.
        let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * i).cast()) };
        let wk = _mm_add_epi32(words, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    const EMPTY: &str = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
    const ABC: &str = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
    const TWO_BLOCK_MSG: &[u8] = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    const TWO_BLOCK: &str = "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
    const MILLION_A: &str = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
    /// Lengths on both sides of where the padding spills into a second
    /// block (55 | 56) and of a block edge, one and two blocks in; digests
    /// of `b"a" * n` from `python3 hashlib`.
    const PADDING: [(usize, &str); 6] = [
        (
            55,
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
        ),
        (
            56,
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
        ),
        (
            63,
            "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
        ),
        (
            64,
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
        ),
        (
            119,
            "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb",
        ),
        (
            120,
            "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c",
        ),
    ];

    /// Every known-answer vector above as `(message, digest)`.
    fn vectors() -> Vec<(Vec<u8>, &'static str)> {
        let mut v = vec![
            (Vec::new(), EMPTY),
            (b"abc".to_vec(), ABC),
            (TWO_BLOCK_MSG.to_vec(), TWO_BLOCK),
            (vec![b'a'; 1_000_000], MILLION_A),
        ];
        v.extend(PADDING.map(|(len, digest)| (vec![b'a'; len], digest)));
        v
    }

    type Compress = fn(&mut [u32; 8], &[u8; 64]);

    /// SHA-256 of `data` with every block through `compress`, padded here
    /// so that neither `Sha256` nor its dispatch is involved.
    fn digest_via(compress: Compress, data: &[u8]) -> String {
        let mut message = data.to_vec();
        message.push(0x80);
        while message.len() % 64 != 56 {
            message.push(0);
        }
        message.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in message.chunks_exact(64) {
            compress(&mut state, block.try_into().unwrap());
        }
        hex(&state.map(u32::to_be_bytes).concat())
    }

    /// The SHA-NI kernel when this CPU has it, else `None` (and a note on
    /// stdout), so the portable half of each test runs on every host.
    fn kernel() -> Option<Compress> {
        #[cfg(target_arch = "x86_64")]
        if sha_ni::available() {
            // SAFETY: only reached when the CPU reports the kernel's features.
            return Some(|state, block| unsafe {
                sha_ni::compress(std::array::from_mut(state), std::array::from_ref(block))
            });
        }
        println!("no SHA extensions on this CPU: skipped the kernel half");
        None
    }

    #[test]
    fn empty_vector() {
        assert_eq!(hex(&Hash::digest(b"").0), EMPTY);
    }

    #[test]
    fn abc_vector() {
        assert_eq!(hex(&Hash::digest(b"abc").0), ABC);
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(hex(&Hash::digest(TWO_BLOCK_MSG).0), TWO_BLOCK);
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(hex(&Hash::digest(&data).0), MILLION_A);
    }

    #[test]
    fn padding_boundary_vectors() {
        for (len, digest) in PADDING {
            let message = vec![b'a'; len];
            assert_eq!(hex(&Hash::digest(&message).0), digest, "length {len}");
        }
    }

    #[test]
    fn known_answers_on_each_compress() {
        let paths = [Some(compress_portable as Compress), kernel()];
        for compress in paths.into_iter().flatten() {
            for (message, digest) in vectors() {
                assert_eq!(
                    digest_via(compress, &message),
                    digest,
                    "length {}",
                    message.len()
                );
            }
        }
    }

    /// The one-lane kernel and the two-lane one (whose second lane holds
    /// the first's block in one case of eight) both equal `compress_portable`.
    #[test]
    fn kernel_matches_portable_on_random_blocks() {
        let Some(kernel) = kernel() else { return };
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5a256);
        for case in 0..10_000 {
            let mut states: [[u32; 8]; 2] =
                std::array::from_fn(|_| std::array::from_fn(|_| rng.gen()));
            let mut blocks = [[0u8; 64]; 2];
            for block in &mut blocks {
                rng.fill(&mut block[..]);
            }
            if case % 8 == 0 {
                (states[1], blocks[1]) = (states[0], blocks[0]);
            }
            let mut portable = states;
            let mut single = states;
            for lane in 0..2 {
                compress_portable(&mut portable[lane], &blocks[lane]);
                kernel(&mut single[lane], &blocks[lane]);
            }
            assert_eq!(single, portable, "case {case}: states {states:08x?}");
            let mut lanes = states;
            compress_lanes(&mut lanes, &blocks);
            assert_eq!(lanes, portable, "case {case}: states {states:08x?}");
        }
    }

    #[test]
    fn one_block_digests_equal_the_hasher() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1b10c);
        for len in 0..=OneBlock::MAX_LEN {
            let mut message = vec![0u8; len];
            rng.fill(&mut message[..]);
            let (head, tail) = message.split_at(len / 3);
            let block = OneBlock::new(&[head, tail]);
            assert_eq!(
                OneBlock::digests(&[block]),
                [Hash::digest(&message)],
                "length {len}"
            );

            // Overwriting a field is building the block from the new bytes.
            let mut edited = message.clone();
            let field = (len / 2)..len.min(len / 2 + 8);
            rng.fill(&mut edited[field.clone()]);
            let mut reused = block;
            reused.set(field.start, &edited[field]);
            let [a, b] = OneBlock::digests(&[block, reused]);
            assert_eq!([a, b], [Hash::digest(&message), Hash::digest(&edited)]);
        }
    }

    #[test]
    #[should_panic(expected = "message over one block")]
    fn one_block_rejects_a_two_block_message() {
        OneBlock::new(&[&[0u8; 40], &[0u8; 16]]);
    }

    #[test]
    #[should_panic]
    fn one_block_set_cannot_reach_the_padding() {
        OneBlock::new(&[b"abc"]).set(2, b"de");
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(10_000).collect();
        for chunk in [1usize, 3, 7, 63, 64, 65, 1000] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), Hash::digest(&data).0, "chunk size {chunk}");
        }
    }

    #[test]
    fn digest_parts_equals_concat() {
        let a = b"hello ".as_slice();
        let b = b"world".as_slice();
        assert_eq!(Hash::digest_parts(&[a, b]), Hash::digest(b"hello world"));
    }

    #[test]
    fn display_roundtrip() {
        let h = Hash::digest(b"roundtrip");
        let s = h.to_string();
        assert_eq!(Hash::from_base58(&s), Some(h));
    }

    #[test]
    fn serde_roundtrip() {
        let h = Hash::digest(b"serde");
        let json = serde_json::to_string(&h).unwrap();
        let back: Hash = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }
}
