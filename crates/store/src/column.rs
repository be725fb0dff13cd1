//! The columnar fast-path section of a segment.
//!
//! Sealed between the body and the footer, the section repeats a handful
//! of per-record facts in struct-of-arrays form so a scan can classify
//! most bundles — length histogram, tips, defensive classification, and
//! the detector's cheap rejections — without decoding a single body
//! record. Layout (all integers LEB128 varints):
//!
//! ```text
//! n_bundles · n_details · n_linked · polls_offset
//! bundle_off[n]   delta from previous offset (first is absolute)
//! slot[n]         zigzag delta from previous slot
//! meta[n]         1 byte: low 3 bits = min(tx count, 7);
//!                 0x08 LINKED · 0x10 C1 · 0x20 C2
//! tx_overflow     varint tx count for each meta whose low bits are 7
//! tip[n]          lamports
//! linked[k]       for each LINKED bundle in bundle order:
//!                   attacker table ref · pool table ref + 1 (0 = none) ·
//!                   3 × detail index
//! detail_off[m]   delta from previous offset (first is absolute)
//! detail_slot[m]  zigzag delta from previous detail slot
//! ```
//!
//! The flag bits are **conservative pre-filters**, sound by construction:
//!
//! * `LINKED` — the bundle has length 3 and all three tx ids resolve in
//!   the segment's last-wins tx-id → detail map (the exact map the scan's
//!   decode route, `core::scan::visit_decoded`, builds). Unset ⇒ the scan
//!   cannot assemble metas and never calls the detector.
//! * `C1` — the three resolved metas satisfy criterion 1 structurally
//!   (`signer₁ == signer₃ && signer₁ != signer₂`). Unset ⇒ the detector's
//!   verdict fails criterion 1 in both the full and the naive tip-only
//!   reading, so no mask that applies criterion 1 admits the bundle.
//! * `C2` — the per-tx sets of mints with a nonzero signer-owned token
//!   delta are equal across all three txs, nonempty, and of size ≤ 2.
//!   Trade extraction turns exactly those mints into token legs, so an
//!   unequal/empty/oversized set forces either a failed extraction or a
//!   criterion-2 mismatch. Sound to skip on only when the mask applies
//!   criteria 2 **and** 5 — a mask without criterion 5 admits tip-only
//!   finals by the naive reading, which never inspects the third tx.
//!
//! A set flag licenses nothing: the scan still decodes the bundle and
//! runs the full detector on it.

use std::collections::HashMap;

use sandwich_ledger::TransactionId;
use sandwich_types::Pubkey;

use crate::codec::{BodyLayout, CorruptSegment, SegmentData};
use crate::varint::{get_i64, get_u64, put_i64, put_u64};

/// Low 3 bits of the meta byte: transaction count, saturating at 7.
pub const META_TXC_MASK: u8 = 0x07;
/// Meta bit: all three tx ids of this length-3 bundle resolve to details.
pub const META_LINKED: u8 = 0x08;
/// Meta bit: criterion 1 holds structurally (outer signers match, middle
/// differs).
pub const META_C1: u8 = 0x10;
/// Meta bit: the traded-mint sets are consistent across the three txs.
pub const META_C2: u8 = 0x20;

/// Column data for one LINKED bundle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkedColumns {
    /// Interning-table index of the candidate attacker (signer of tx 1).
    pub attacker_ref: u64,
    /// Interning-table index of the traded pool mint (first of the common
    /// mint set), when the `C2` flag is set.
    pub pool_ref: Option<u64>,
    /// Indices of the three winning detail records, in tx order.
    pub details: [u64; 3],
}

/// Decoded columnar section. The vectors are reused across segments by
/// the scan hot loop (cleared, not reallocated), so a long scan does one
/// round of heap growth instead of one per segment.
#[derive(Clone, Debug, Default)]
pub struct Columns {
    /// Absolute body offset of each bundle record.
    pub bundle_off: Vec<u64>,
    /// Absolute slot of each bundle.
    pub slot: Vec<u64>,
    /// Raw meta byte of each bundle (`META_*` bits).
    pub flags: Vec<u8>,
    /// Resolved transaction count of each bundle.
    pub tx_count: Vec<u32>,
    /// Tip of each bundle, in lamports.
    pub tip: Vec<u64>,
    /// One entry per LINKED bundle, in bundle order.
    pub linked: Vec<LinkedColumns>,
    /// Absolute body offset of each detail record.
    pub detail_off: Vec<u64>,
    /// Absolute slot of each detail record.
    pub detail_slot: Vec<u64>,
    /// Absolute body offset of the poll-section count varint.
    pub polls_offset: u64,
}

impl Columns {
    fn clear(&mut self) {
        self.bundle_off.clear();
        self.slot.clear();
        self.flags.clear();
        self.tx_count.clear();
        self.tip.clear();
        self.linked.clear();
        self.detail_off.clear();
        self.detail_slot.clear();
        self.polls_offset = 0;
    }
}

/// The sorted set of mints with a nonzero signer-owned token delta — the
/// exact mints trade extraction will turn into token legs.
fn traded_mints(meta: &sandwich_ledger::TransactionMeta) -> Vec<Pubkey> {
    let mut mints: Vec<Pubkey> = meta
        .token_deltas
        .iter()
        .filter(|d| d.owner == meta.signer && d.delta != 0)
        .map(|d| d.mint)
        .collect();
    mints.sort();
    mints.dedup();
    mints
}

/// Build the encoded columnar section for a segment body.
pub(crate) fn build_columns(data: &SegmentData, layout: &BodyLayout) -> Vec<u8> {
    // The same last-wins map the scan builds: later details overwrite
    // earlier ones for a repeated tx id.
    let mut detail_of: HashMap<TransactionId, usize> = HashMap::new();
    for (i, d) in data.details.iter().enumerate() {
        detail_of.insert(d.meta.tx_id, i);
    }

    let mut linked: Vec<(usize, LinkedColumns)> = Vec::new();
    let mut metas = vec![0u8; data.bundles.len()];
    for (i, b) in data.bundles.iter().enumerate() {
        metas[i] = (b.tx_ids.len() as u8).min(META_TXC_MASK);
        if b.tx_ids.len() != 3 {
            continue;
        }
        let Some(d) = b
            .tx_ids
            .iter()
            .map(|id| detail_of.get(id).copied())
            .collect::<Option<Vec<usize>>>()
        else {
            continue;
        };
        metas[i] |= META_LINKED;
        let m: Vec<_> = d.iter().map(|&j| &data.details[j].meta).collect();
        if m[0].signer == m[2].signer && m[0].signer != m[1].signer {
            metas[i] |= META_C1;
        }
        let mints = traded_mints(m[0]);
        let consistent = !mints.is_empty()
            && mints.len() <= 2
            && mints == traded_mints(m[1])
            && mints == traded_mints(m[2]);
        let mut pool_ref = None;
        if consistent {
            metas[i] |= META_C2;
            pool_ref = layout.key_index.get(&mints[0]).copied();
        }
        linked.push((
            i,
            LinkedColumns {
                attacker_ref: layout.key_index.get(&m[0].signer).copied().unwrap_or(0),
                pool_ref,
                details: [d[0] as u64, d[1] as u64, d[2] as u64],
            },
        ));
    }

    let mut out = Vec::new();
    put_u64(&mut out, data.bundles.len() as u64);
    put_u64(&mut out, data.details.len() as u64);
    put_u64(&mut out, linked.len() as u64);
    put_u64(&mut out, layout.polls_offset);
    let mut prev = 0u64;
    for &off in &layout.bundle_offsets {
        put_u64(&mut out, off - prev);
        prev = off;
    }
    let mut prev = 0i64;
    for b in &data.bundles {
        put_i64(&mut out, b.slot.0 as i64 - prev);
        prev = b.slot.0 as i64;
    }
    out.extend_from_slice(&metas);
    for b in &data.bundles {
        if b.tx_ids.len() >= META_TXC_MASK as usize {
            put_u64(&mut out, b.tx_ids.len() as u64);
        }
    }
    for b in &data.bundles {
        put_u64(&mut out, b.tip.0);
    }
    for (_, l) in &linked {
        put_u64(&mut out, l.attacker_ref);
        put_u64(&mut out, l.pool_ref.map_or(0, |r| r + 1));
        for d in l.details {
            put_u64(&mut out, d);
        }
    }
    let mut prev = 0u64;
    for &off in &layout.detail_offsets {
        put_u64(&mut out, off - prev);
        prev = off;
    }
    let mut prev = 0i64;
    for d in &data.details {
        put_i64(&mut out, d.slot.0 as i64 - prev);
        prev = d.slot.0 as i64;
    }
    out
}

/// Decode a columnar section into `cols` (reusing its buffers). The
/// section is already checksum-verified by the caller; bounds are still
/// checked so a logic error never panics.
pub fn decode_columns(buf: &[u8], cols: &mut Columns) -> Result<(), CorruptSegment> {
    cols.clear();
    let mut pos = 0usize;
    let n = get_u64(buf, &mut pos)? as usize;
    let m = get_u64(buf, &mut pos)? as usize;
    let k = get_u64(buf, &mut pos)? as usize;
    if n > buf.len() || m > buf.len() || k > n {
        return Err(CorruptSegment("columnar counts exceed section".into()));
    }
    cols.polls_offset = get_u64(buf, &mut pos)?;

    cols.bundle_off.reserve(n);
    let mut prev = 0u64;
    for _ in 0..n {
        prev = prev
            .checked_add(get_u64(buf, &mut pos)?)
            .ok_or_else(|| CorruptSegment("bundle offset overflow".into()))?;
        cols.bundle_off.push(prev);
    }
    cols.slot.reserve(n);
    let mut prev = 0i64;
    for _ in 0..n {
        prev = prev
            .checked_add(get_i64(buf, &mut pos)?)
            .filter(|&s| s >= 0)
            .ok_or_else(|| CorruptSegment("slot column overflow".into()))?;
        cols.slot.push(prev as u64);
    }
    if pos + n > buf.len() {
        return Err(CorruptSegment("truncated meta column".into()));
    }
    cols.flags.extend_from_slice(&buf[pos..pos + n]);
    pos += n;
    cols.tx_count.reserve(n);
    for i in 0..n {
        let low = cols.flags[i] & META_TXC_MASK;
        let c = if low == META_TXC_MASK {
            get_u64(buf, &mut pos)? as u32
        } else {
            u32::from(low)
        };
        cols.tx_count.push(c);
    }
    cols.tip.reserve(n);
    for _ in 0..n {
        let t = get_u64(buf, &mut pos)?;
        cols.tip.push(t);
    }
    cols.linked.reserve(k);
    for _ in 0..k {
        let attacker_ref = get_u64(buf, &mut pos)?;
        let pool = get_u64(buf, &mut pos)?;
        let mut details = [0u64; 3];
        for d in &mut details {
            *d = get_u64(buf, &mut pos)?;
            if *d >= m as u64 {
                return Err(CorruptSegment("linked detail index out of range".into()));
            }
        }
        cols.linked.push(LinkedColumns {
            attacker_ref,
            pool_ref: pool.checked_sub(1),
            details,
        });
    }
    cols.detail_off.reserve(m);
    let mut prev = 0u64;
    for _ in 0..m {
        prev = prev
            .checked_add(get_u64(buf, &mut pos)?)
            .ok_or_else(|| CorruptSegment("detail offset overflow".into()))?;
        cols.detail_off.push(prev);
    }
    cols.detail_slot.reserve(m);
    let mut prev = 0i64;
    for _ in 0..m {
        prev = prev
            .checked_add(get_i64(buf, &mut pos)?)
            .filter(|&s| s >= 0)
            .ok_or_else(|| CorruptSegment("detail slot column overflow".into()))?;
        cols.detail_slot.push(prev as u64);
    }
    if pos != buf.len() {
        return Err(CorruptSegment(format!(
            "{} trailing bytes after columns",
            buf.len() - pos
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_body_with_layout;
    use crate::records::{CollectedBundle, CollectedDetail};
    use sandwich_ledger::{SolDelta, TokenDelta, TransactionMeta};
    use sandwich_types::{Hash, Keypair, LamportDelta, Lamports, Slot};

    fn meta_for(kp: &Keypair, n: u64, mint: Pubkey, tokens: i128) -> TransactionMeta {
        TransactionMeta {
            tx_id: kp.sign(&n.to_le_bytes()),
            signer: kp.pubkey(),
            fee: Lamports(5_000),
            priority_fee: Lamports::ZERO,
            success: true,
            error: None,
            sol_deltas: vec![SolDelta {
                account: kp.pubkey(),
                delta: LamportDelta(if tokens > 0 { -1_000_000 } else { 1_000_000 }),
            }],
            token_deltas: vec![TokenDelta {
                owner: kp.pubkey(),
                mint,
                delta: tokens,
            }],
        }
    }

    fn sandwich_segment() -> SegmentData {
        let attacker = Keypair::from_label("col-attacker");
        let victim = Keypair::from_label("col-victim");
        let mint = Pubkey::derive("mint:COL");
        let metas = vec![
            meta_for(&attacker, 1, mint, 10_000),
            meta_for(&victim, 2, mint, 10_000),
            meta_for(&attacker, 3, mint, -10_000),
        ];
        let tx_ids: Vec<_> = metas.iter().map(|m| m.tx_id).collect();
        let bundle = CollectedBundle {
            bundle_id: sandwich_jito::bundle_id_of(&tx_ids),
            slot: Slot(500),
            timestamp_ms: 200_000,
            tip: Lamports(77_000),
            tx_ids,
        };
        let lone = CollectedBundle {
            bundle_id: Hash::digest(b"lone"),
            slot: Slot(510),
            timestamp_ms: 204_000,
            tip: Lamports(9_000),
            tx_ids: vec![Keypair::from_label("lone").sign(b"x")],
        };
        SegmentData {
            bundles: vec![bundle.clone(), lone],
            details: metas
                .into_iter()
                .map(|m| CollectedDetail {
                    bundle_id: bundle.bundle_id,
                    slot: Slot(500),
                    meta: m,
                })
                .collect(),
            polls: vec![],
        }
    }

    #[test]
    fn columns_roundtrip_and_flag_semantics() {
        let data = sandwich_segment();
        let (body, layout) = encode_body_with_layout(&data);
        let section = build_columns(&data, &layout);
        let mut cols = Columns::default();
        decode_columns(&section, &mut cols).unwrap();

        assert_eq!(cols.bundle_off, layout.bundle_offsets);
        assert_eq!(cols.detail_off, layout.detail_offsets);
        assert_eq!(cols.polls_offset, layout.polls_offset);
        assert_eq!(cols.polls_offset as usize, body.len() - 1, "empty polls");
        assert_eq!(cols.slot, vec![500, 510]);
        assert_eq!(cols.tx_count, vec![3, 1]);
        assert_eq!(cols.tip, vec![77_000, 9_000]);
        assert_eq!(cols.detail_slot, vec![500, 500, 500]);

        // The sandwich bundle is linked and passes both structural filters.
        assert_eq!(cols.flags[0] & META_LINKED, META_LINKED);
        assert_eq!(cols.flags[0] & META_C1, META_C1);
        assert_eq!(cols.flags[0] & META_C2, META_C2);
        // The length-1 bundle carries only its tx count.
        assert_eq!(cols.flags[1], 1);

        assert_eq!(cols.linked.len(), 1);
        let l = &cols.linked[0];
        assert_eq!(l.details, [0, 1, 2]);
        let attacker = Keypair::from_label("col-attacker").pubkey();
        assert_eq!(l.attacker_ref, layout.key_index[&attacker]);
        let mint = Pubkey::derive("mint:COL");
        assert_eq!(l.pool_ref, Some(layout.key_index[&mint]));
    }

    #[test]
    fn unlinked_and_criterion_violations_clear_flags() {
        let mut data = sandwich_segment();
        // Drop the victim's detail: the bundle is no longer linked.
        data.details.remove(1);
        let (_, layout) = encode_body_with_layout(&data);
        let section = build_columns(&data, &layout);
        let mut cols = Columns::default();
        decode_columns(&section, &mut cols).unwrap();
        assert_eq!(cols.flags[0] & META_LINKED, 0);
        assert!(cols.linked.is_empty());

        // A third distinct signer clears C1 but not LINKED.
        let mut data = sandwich_segment();
        let other = Keypair::from_label("col-other");
        data.details[2].meta.signer = other.pubkey();
        let (_, layout) = encode_body_with_layout(&data);
        let section = build_columns(&data, &layout);
        decode_columns(&section, &mut cols).unwrap();
        assert_eq!(cols.flags[0] & META_LINKED, META_LINKED);
        assert_eq!(cols.flags[0] & META_C1, 0);

        // A mint mismatch in the victim leg clears C2 and the pool ref.
        let mut data = sandwich_segment();
        data.details[1].meta.token_deltas[0].mint = Pubkey::derive("mint:OTHER");
        let (_, layout) = encode_body_with_layout(&data);
        let section = build_columns(&data, &layout);
        decode_columns(&section, &mut cols).unwrap();
        assert_eq!(cols.flags[0] & META_C2, 0);
        assert_eq!(cols.linked[0].pool_ref, None);
    }

    #[test]
    fn overflow_tx_counts_roundtrip() {
        let kp = Keypair::from_label("col-wide");
        let data = SegmentData {
            bundles: vec![CollectedBundle {
                bundle_id: Hash::digest(b"wide"),
                slot: Slot(9),
                timestamp_ms: 3_600,
                tip: Lamports(1),
                tx_ids: (0..9u64).map(|i| kp.sign(&i.to_le_bytes())).collect(),
            }],
            details: vec![],
            polls: vec![],
        };
        let (_, layout) = encode_body_with_layout(&data);
        let section = build_columns(&data, &layout);
        let mut cols = Columns::default();
        decode_columns(&section, &mut cols).unwrap();
        assert_eq!(cols.tx_count, vec![9]);
        assert_eq!(cols.flags[0] & META_TXC_MASK, META_TXC_MASK);
    }

    #[test]
    fn truncated_or_padded_section_is_rejected() {
        let data = sandwich_segment();
        let (_, layout) = encode_body_with_layout(&data);
        let section = build_columns(&data, &layout);
        let mut cols = Columns::default();
        assert!(decode_columns(&section[..section.len() - 1], &mut cols).is_err());
        let mut padded = section.clone();
        padded.push(0);
        assert!(decode_columns(&padded, &mut cols).is_err());
    }
}
