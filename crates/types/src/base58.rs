//! Base58 encoding with the Bitcoin/Solana alphabet.
//!
//! Used to render pubkeys, signatures and hashes the way Solana explorers do.
//! Both directions convert in wide limbs, not a digit or byte at a time.

const ALPHABET: &[u8; 58] = b"123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz";

/// 58⁵, the largest power of 58 below 2³²: the encoder's limb base.
const LIMB_BASE: u64 = 58 * 58 * 58 * 58 * 58;

/// Each byte's digit value; 58 and up outside the alphabet.
const DIGIT_OF: [u8; 256] = {
    let mut table = [u8::MAX; 256];
    let mut i = 0;
    while i < ALPHABET.len() {
        table[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// `data` as a first chunk of `data.len() % width` items (when not empty)
/// and then chunks of exactly `width`, most significant first.
fn chunks_from_the_top<T>(data: &[T], width: usize) -> impl Iterator<Item = &[T]> {
    let (head, body) = data.split_at(data.len() % width);
    let head = (!head.is_empty()).then_some(head);
    head.into_iter().chain(body.chunks_exact(width))
}

/// Encode `data` as a base58 string.
pub fn encode(data: &[u8]) -> String {
    // Count leading zero bytes: each encodes to '1'.
    let zeros = data.iter().take_while(|&&b| b == 0).count();

    // Base-58⁵ limbs, little-endian, four input bytes shifted in at a time:
    // a limb is below 2²⁹·³ and a carry below 2³³, so the sum fits a u64.
    let mut limbs: Vec<u32> = Vec::with_capacity((data.len() - zeros) * 138 / 500 + 1);
    for chunk in chunks_from_the_top(&data[zeros..], 4) {
        let mut carry = chunk.iter().fold(0u64, |acc, &b| acc << 8 | u64::from(b));
        for limb in limbs.iter_mut() {
            carry += u64::from(*limb) << (8 * chunk.len());
            *limb = (carry % LIMB_BASE) as u32;
            carry /= LIMB_BASE;
        }
        while carry > 0 {
            limbs.push((carry % LIMB_BASE) as u32);
            carry /= LIMB_BASE;
        }
    }

    let digits = limbs.iter().rev().flat_map(|&limb| {
        let (mut digits, mut rest) = ([0u8; 5], limb);
        for digit in digits.iter_mut().rev() {
            (*digit, rest) = ((rest % 58) as u8, rest / 58);
        }
        digits
    });
    let mut out = String::with_capacity(zeros + 5 * limbs.len());
    out.extend(std::iter::repeat_n('1', zeros));
    out.extend(
        digits
            .skip_while(|&d| d == 0)
            .map(|d| ALPHABET[d as usize] as char),
    );
    out
}

/// Decode a base58 string; returns `None` on any non-alphabet character.
pub fn decode(s: &str) -> Option<Vec<u8>> {
    let bytes = s.as_bytes();
    let zeros = bytes.iter().take_while(|&&c| c == b'1').count();

    // Base-2³² limbs, little-endian, five digits (below 2³⁰) at a time.
    let mut limbs: Vec<u32> = Vec::with_capacity((bytes.len() - zeros) * 733 / 4000 + 1);
    for chunk in chunks_from_the_top(&bytes[zeros..], 5) {
        let (mut carry, mut scale) = (0u64, 1u64);
        for &c in chunk {
            let digit = DIGIT_OF[c as usize];
            if digit >= 58 {
                return None;
            }
            (carry, scale) = (carry * 58 + u64::from(digit), scale * 58);
        }
        for limb in limbs.iter_mut() {
            carry += u64::from(*limb) * scale;
            *limb = carry as u32;
            carry >>= 32;
        }
        while carry > 0 {
            limbs.push(carry as u32);
            carry >>= 32;
        }
    }

    let mut result = vec![0u8; zeros];
    let value = limbs.iter().rev().flat_map(|limb| limb.to_be_bytes());
    result.extend(value.skip_while(|&b| b == 0));
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// The byte-at-a-time encoder the limb version replaced: the oracle.
    fn encode_bytewise(data: &[u8]) -> String {
        let zeros = data.iter().take_while(|&&b| b == 0).count();
        let mut digits: Vec<u8> = Vec::with_capacity(data.len() * 138 / 100 + 1);
        for &byte in &data[zeros..] {
            let mut carry = byte as u32;
            for d in digits.iter_mut() {
                carry += (*d as u32) << 8;
                *d = (carry % 58) as u8;
                carry /= 58;
            }
            while carry > 0 {
                digits.push((carry % 58) as u8);
                carry /= 58;
            }
        }
        let mut out = String::with_capacity(zeros + digits.len());
        for _ in 0..zeros {
            out.push('1');
        }
        for &d in digits.iter().rev() {
            out.push(ALPHABET[d as usize] as char);
        }
        out
    }

    /// The digit-at-a-time decoder the limb version replaced: the oracle.
    fn decode_digitwise(s: &str) -> Option<Vec<u8>> {
        let bytes = s.as_bytes();
        let zeros = bytes.iter().take_while(|&&c| c == b'1').count();
        let mut out: Vec<u8> = Vec::with_capacity(s.len());
        for &c in &bytes[zeros..] {
            let mut carry = ALPHABET.iter().position(|&a| a == c)? as u32;
            for o in out.iter_mut() {
                carry += (*o as u32) * 58;
                *o = (carry & 0xff) as u8;
                carry >>= 8;
            }
            while carry > 0 {
                out.push((carry & 0xff) as u8);
                carry >>= 8;
            }
        }
        let mut result = vec![0u8; zeros];
        result.extend(out.iter().rev());
        Some(result)
    }

    #[test]
    fn known_vectors() {
        assert_eq!(encode(b""), "");
        assert_eq!(encode(b"hello world"), "StV1DL6CwTryKyV");
        assert_eq!(encode(&[0, 0, 40, 127, 180, 205]), "11233QC4");
        assert_eq!(decode("StV1DL6CwTryKyV").unwrap(), b"hello world");
        assert_eq!(decode("11233QC4").unwrap(), vec![0, 0, 40, 127, 180, 205]);
    }

    #[test]
    fn leading_zeros_preserved() {
        let data = [0u8, 0, 0, 1, 2, 3];
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn rejects_invalid_chars() {
        assert!(decode("0OIl").is_none());
        assert!(decode("abc!").is_none());
    }

    #[test]
    fn empty_roundtrip() {
        assert_eq!(decode("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn roundtrip_32_bytes() {
        let data: Vec<u8> = (0u8..32)
            .map(|i| i.wrapping_mul(7).wrapping_add(3))
            .collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    /// The limb encoder and decoder equal the byte- and digit-at-a-time
    /// ones: on every length 0–90 with leading zero bytes, on base58 text
    /// with leading `'1'`s, and on text carrying `0`, `O`, `I`, `l`,
    /// non-ASCII or over-long runs, which must be rejected (or not) alike.
    #[test]
    fn limbs_equal_the_bytewise_oracles() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xba5e58);
        let foreign = ["0", "O", "I", "l", "é", "😀", " ", "+", "\0", "\u{ff}"];
        for case in 0..6_000 {
            let len = case % 91;
            let mut data = vec![0u8; len];
            rng.fill(&mut data[..]);
            let zeros = rng.gen_range(0..len.min(4) + 1);
            data[..zeros].fill(0);
            if case % 7 == 0 {
                data.iter_mut()
                    .for_each(|b| *b = if *b < 128 { 0 } else { 0xff });
            }
            let text = encode_bytewise(&data);
            assert_eq!(encode(&data), text, "data {data:?}");
            assert_eq!(decode(&text), Some(data), "text {text}");

            // Arbitrary text: alphabet characters, extra leading '1's, one
            // foreign character in a third of the cases, any length.
            let mut text = "1".repeat(rng.gen_range(0usize..3));
            for _ in 0..rng.gen_range(0..len + 41) {
                text.push(ALPHABET[rng.gen_range(0usize..58)] as char);
            }
            if case % 3 == 0 {
                let at = text
                    .char_indices()
                    .map(|(i, _)| i)
                    .nth(rng.gen_range(0..text.len() + 1));
                text.insert_str(at.unwrap_or(text.len()), foreign[case % foreign.len()]);
            }
            assert_eq!(decode(&text), decode_digitwise(&text), "text {text:?}");
        }
        let long = format!("11{}", "z".repeat(400));
        assert_eq!(decode(&long), decode_digitwise(&long));
        assert_eq!(decode(&"1".repeat(300)), Some(vec![0; 300]));
    }
}
