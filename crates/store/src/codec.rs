//! The segment body codec: a compact binary encoding of collected bundles,
//! transaction details, and poll records.
//!
//! Layout of a segment body (all integers LEB128 varints unless noted):
//!
//! ```text
//! pubkey table   varint count, then count × 32 raw bytes
//! bundles        varint count, then per record:
//!                  varint (tx count << 1 | id-is-derived) ·
//!                  zigzag(slot − prev slot) · [bundle id (32 raw)] ·
//!                  zigzag(timestamp − prev timestamp) · tip ·
//!                  tx ids (64 raw each)
//! details        varint count, then per record:
//!                  varint bundle ref (0 = external, else index+1) ·
//!                  external: zigzag(slot − prev slot) ·
//!                            bundle id (32 raw) · tx id (64 raw)
//!                  in-segment: varint tx position (== tx count means a
//!                            raw 64-byte tx id follows) ·
//!                            zigzag(slot − bundle slot)
//!                  then: signer (table index) · fee · priority fee ·
//!                  flags u8 · [error string] ·
//!                  sol deltas (index + zigzag i64) ·
//!                  token deltas (index + index + zigzag i128)
//! polls          varint count, then per record:
//!                  day · fetched · new · flags u8
//! ```
//!
//! Records are expected pre-sorted by slot (the writer sorts at seal time),
//! so the slot/timestamp deltas are small and usually one byte. Pubkeys
//! repeat heavily across details (signers, pool accounts, tip accounts,
//! mints), so they are interned into a per-segment table; transaction
//! signatures are effectively unique and stored raw — once. A bundle id is
//! normally the hash of the ordered tx ids ([`sandwich_jito::bundle_id_of`])
//! and is recomputed on decode instead of stored; a detail normally belongs
//! to a bundle sealed in the same segment and references it by index, so
//! neither its bundle id nor its tx id is repeated. Both carry raw-bytes
//! fallbacks for records that break those expectations.

use std::collections::HashMap;

use sandwich_ledger::{SolDelta, TokenDelta, TransactionMeta};
use sandwich_types::{Hash, LamportDelta, Lamports, Pubkey, Signature, Slot};

use crate::records::{CollectedBundle, CollectedDetail, PollRecord};
use crate::varint::{get_i128, get_i64, get_u64, put_i128, put_i64, put_u64, VarintError};

/// A decoding failure: the body does not parse as a segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptSegment(pub String);

impl std::fmt::Display for CorruptSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt segment: {}", self.0)
    }
}

impl std::error::Error for CorruptSegment {}

impl From<VarintError> for CorruptSegment {
    fn from(_: VarintError) -> Self {
        CorruptSegment("truncated or overlong varint".into())
    }
}

/// The decoded contents of one segment.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SegmentData {
    /// Bundle summaries, sorted by (slot, bundle id).
    pub bundles: Vec<CollectedBundle>,
    /// Transaction details for bundles in this segment.
    pub details: Vec<CollectedDetail>,
    /// Poll-ledger entries recorded since the previous seal.
    pub polls: Vec<PollRecord>,
}

/// Interns pubkeys into a dense table numbered in first-use order: a
/// segment body's, and the query index frame's.
#[derive(Default)]
pub struct KeyTable {
    index: HashMap<Pubkey, u64>,
    keys: Vec<Pubkey>,
}

impl KeyTable {
    /// The table index of `key`, appending it on first use.
    pub fn intern(&mut self, key: &Pubkey) -> u64 {
        if let Some(&i) = self.index.get(key) {
            return i;
        }
        let i = self.keys.len() as u64;
        self.index.insert(*key, i);
        self.keys.push(*key);
        i
    }

    /// Append the table as [`decode_key_table`] reads it: varint count,
    /// then count × 32 raw bytes.
    pub fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, self.keys.len() as u64);
        for key in &self.keys {
            out.extend_from_slice(key.as_bytes());
        }
    }
}

const FLAG_SUCCESS: u8 = 1;
const FLAG_HAS_ERROR: u8 = 2;
const FLAG_OVERLAPPED: u8 = 1;

/// Byte positions of every record inside an encoded body — the raw
/// material for the columnar fast-path section ([`crate::column`]). Only
/// the encoder produces this; readers get the same offsets back from the
/// columnar section itself.
pub(crate) struct BodyLayout {
    /// Offset of each bundle record (the header varint).
    pub bundle_offsets: Vec<u64>,
    /// Offset of each detail record (the bundle-ref varint).
    pub detail_offsets: Vec<u64>,
    /// Offset of the poll-section count varint.
    pub polls_offset: u64,
    /// The interning table built during encoding (pubkey → table index).
    pub key_index: HashMap<Pubkey, u64>,
}

/// Encode a segment body. Records should already be in their canonical
/// order (the writer sorts before calling this).
pub fn encode_body(data: &SegmentData) -> Vec<u8> {
    encode_body_with_layout(data).0
}

/// [`encode_body`] that also reports where each record landed.
pub(crate) fn encode_body_with_layout(data: &SegmentData) -> (Vec<u8>, BodyLayout) {
    // Pass 1: intern every pubkey the details reference.
    let mut table = KeyTable::default();
    for d in &data.details {
        table.intern(&d.meta.signer);
        for s in &d.meta.sol_deltas {
            table.intern(&s.account);
        }
        for t in &d.meta.token_deltas {
            table.intern(&t.owner);
            table.intern(&t.mint);
        }
    }

    let mut out = Vec::new();
    table.put(&mut out);

    put_u64(&mut out, data.bundles.len() as u64);
    let mut bundle_offsets = Vec::with_capacity(data.bundles.len());
    let mut prev_slot = 0i64;
    let mut prev_ts = 0i64;
    for b in &data.bundles {
        bundle_offsets.push(out.len() as u64);
        let derived = b.bundle_id == sandwich_jito::bundle_id_of(&b.tx_ids);
        put_u64(&mut out, (b.tx_ids.len() as u64) << 1 | u64::from(derived));
        put_i64(&mut out, b.slot.0 as i64 - prev_slot);
        prev_slot = b.slot.0 as i64;
        if !derived {
            out.extend_from_slice(b.bundle_id.as_bytes());
        }
        put_i64(&mut out, b.timestamp_ms as i64 - prev_ts);
        prev_ts = b.timestamp_ms as i64;
        put_u64(&mut out, b.tip.0);
        for tx in &b.tx_ids {
            out.extend_from_slice(&tx.0);
        }
    }

    let mut bundle_index: HashMap<sandwich_jito::BundleId, usize> = HashMap::new();
    for (i, b) in data.bundles.iter().enumerate() {
        bundle_index.entry(b.bundle_id).or_insert(i);
    }

    put_u64(&mut out, data.details.len() as u64);
    let mut detail_offsets = Vec::with_capacity(data.details.len());
    let mut prev_slot = 0i64;
    for d in &data.details {
        detail_offsets.push(out.len() as u64);
        match bundle_index.get(&d.bundle_id) {
            Some(&i) => {
                let b = &data.bundles[i];
                put_u64(&mut out, i as u64 + 1);
                match b.tx_ids.iter().position(|t| *t == d.meta.tx_id) {
                    Some(p) => put_u64(&mut out, p as u64),
                    None => {
                        put_u64(&mut out, b.tx_ids.len() as u64);
                        out.extend_from_slice(&d.meta.tx_id.0);
                    }
                }
                put_i64(&mut out, d.slot.0 as i64 - b.slot.0 as i64);
            }
            None => {
                put_u64(&mut out, 0);
                put_i64(&mut out, d.slot.0 as i64 - prev_slot);
                out.extend_from_slice(d.bundle_id.as_bytes());
                out.extend_from_slice(&d.meta.tx_id.0);
            }
        }
        prev_slot = d.slot.0 as i64;
        put_u64(&mut out, table.intern(&d.meta.signer));
        put_u64(&mut out, d.meta.fee.0);
        put_u64(&mut out, d.meta.priority_fee.0);
        let mut flags = 0u8;
        if d.meta.success {
            flags |= FLAG_SUCCESS;
        }
        if d.meta.error.is_some() {
            flags |= FLAG_HAS_ERROR;
        }
        out.push(flags);
        if let Some(err) = &d.meta.error {
            put_u64(&mut out, err.len() as u64);
            out.extend_from_slice(err.as_bytes());
        }
        put_u64(&mut out, d.meta.sol_deltas.len() as u64);
        for s in &d.meta.sol_deltas {
            put_u64(&mut out, table.intern(&s.account));
            put_i64(&mut out, s.delta.0);
        }
        put_u64(&mut out, d.meta.token_deltas.len() as u64);
        for t in &d.meta.token_deltas {
            put_u64(&mut out, table.intern(&t.owner));
            put_u64(&mut out, table.intern(&t.mint));
            put_i128(&mut out, t.delta);
        }
    }

    let polls_offset = out.len() as u64;
    put_u64(&mut out, data.polls.len() as u64);
    for p in &data.polls {
        put_u64(&mut out, p.day);
        put_u64(&mut out, p.fetched as u64);
        put_u64(&mut out, p.new as u64);
        out.push(if p.overlapped_previous {
            FLAG_OVERLAPPED
        } else {
            0
        });
    }

    (
        out,
        BodyLayout {
            bundle_offsets,
            detail_offsets,
            polls_offset,
            key_index: table.index,
        },
    )
}

/// Read `n` raw bytes at `pos`, advancing it.
pub fn get_bytes<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], CorruptSegment> {
    let end = pos
        .checked_add(n)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| CorruptSegment("truncated fixed-width field".into()))?;
    let slice = &buf[*pos..end];
    *pos = end;
    Ok(slice)
}

fn get_hash(buf: &[u8], pos: &mut usize) -> Result<Hash, CorruptSegment> {
    let b = get_bytes(buf, pos, 32)?;
    let mut arr = [0u8; 32];
    arr.copy_from_slice(b);
    Ok(Hash(arr))
}

fn get_signature(buf: &[u8], pos: &mut usize) -> Result<Signature, CorruptSegment> {
    let b = get_bytes(buf, pos, 64)?;
    let mut arr = [0u8; 64];
    arr.copy_from_slice(b);
    Ok(Signature(arr))
}

/// Read a count of records that are each at least `width` bytes long. A
/// count that could not fit in the bytes left after it is an error, so no
/// caller allocates for more records than the buffer can hold.
pub fn get_count(
    buf: &[u8],
    pos: &mut usize,
    width: usize,
    what: &str,
) -> Result<usize, CorruptSegment> {
    let n = get_u64(buf, pos)?;
    let fits = (buf.len() - *pos) / width.max(1);
    if n > fits as u64 {
        return Err(CorruptSegment(format!("{what} count {n} exceeds body")));
    }
    Ok(n as usize)
}

/// Decode a pubkey table written by [`KeyTable::put`], leaving `pos` just
/// past it (in a segment body, at the bundle-count varint).
pub fn decode_key_table(buf: &[u8], pos: &mut usize) -> Result<Vec<Pubkey>, CorruptSegment> {
    let key_count = get_count(buf, pos, 32, "pubkey table")?;
    let mut keys = Vec::with_capacity(key_count);
    for _ in 0..key_count {
        let b = get_bytes(buf, pos, 32)?;
        let mut arr = [0u8; 32];
        arr.copy_from_slice(b);
        keys.push(Pubkey(arr));
    }
    Ok(keys)
}

/// Decode one bundle record at `pos`. `prev_slot`/`prev_ts` are the
/// delta-coding context: the previous bundle's absolute values (0 for the
/// first record). The sequential decoder threads them through the loop;
/// the zero-copy view reads them from the slot column instead.
pub(crate) fn decode_bundle_record(
    buf: &[u8],
    pos: &mut usize,
    prev_slot: i64,
    prev_ts: i64,
) -> Result<CollectedBundle, CorruptSegment> {
    let header = get_u64(buf, pos)?;
    let derived = header & 1 != 0;
    let tx_count = (header >> 1) as usize;
    if tx_count > buf.len() / 64 {
        return Err(CorruptSegment(format!(
            "tx id count {tx_count} exceeds body"
        )));
    }
    let slot = prev_slot
        .checked_add(get_i64(buf, pos)?)
        .ok_or_else(|| CorruptSegment("slot delta overflow".into()))?;
    let stored_id = if derived {
        None
    } else {
        Some(get_hash(buf, pos)?)
    };
    let ts = prev_ts
        .checked_add(get_i64(buf, pos)?)
        .ok_or_else(|| CorruptSegment("timestamp delta overflow".into()))?;
    let tip = get_u64(buf, pos)?;
    let mut tx_ids = Vec::with_capacity(tx_count);
    for _ in 0..tx_count {
        tx_ids.push(get_signature(buf, pos)?);
    }
    if slot < 0 || ts < 0 {
        return Err(CorruptSegment("negative slot or timestamp".into()));
    }
    let bundle_id = stored_id.unwrap_or_else(|| sandwich_jito::bundle_id_of(&tx_ids));
    Ok(CollectedBundle {
        bundle_id,
        slot: Slot(slot as u64),
        timestamp_ms: ts as u64,
        tip: Lamports(tip),
        tx_ids,
    })
}

/// A bundle record parsed just far enough for random access: everything
/// but the delta-coded slot/timestamp (which the zero-copy view reads
/// from the columnar section instead) and the tx ids (left in place as a
/// fixed-stride region so single signatures can be read without
/// materializing the list).
#[derive(Clone, Copy, Debug)]
pub(crate) struct BundleBrief {
    /// The stored bundle id, or `None` when it is derived from the tx ids.
    pub stored_id: Option<Hash>,
    /// Offset of the first signature (64 bytes each).
    pub tx_ids_at: usize,
    /// Number of signatures.
    pub tx_count: usize,
}

impl BundleBrief {
    /// Signature `p` of the bundle, read in place.
    pub fn tx(&self, buf: &[u8], p: usize) -> Option<Signature> {
        if p >= self.tx_count {
            return None;
        }
        let mut pos = self.tx_ids_at + 64 * p;
        get_signature(buf, &mut pos).ok()
    }

    /// The bundle id: the stored one, or derived from the tx ids.
    pub fn bundle_id(&self, buf: &[u8]) -> Result<Hash, CorruptSegment> {
        if let Some(id) = self.stored_id {
            return Ok(id);
        }
        let mut pos = self.tx_ids_at;
        let mut tx_ids = Vec::with_capacity(self.tx_count);
        for _ in 0..self.tx_count {
            tx_ids.push(get_signature(buf, &mut pos)?);
        }
        Ok(sandwich_jito::bundle_id_of(&tx_ids))
    }
}

/// Parse one bundle record at `pos` without reconstructing its slot or
/// timestamp (their deltas are skipped). Same wire walk and bounds checks
/// as [`decode_bundle_record`], minus the work the fast path never needs.
pub(crate) fn decode_bundle_brief(
    buf: &[u8],
    pos: &mut usize,
) -> Result<BundleBrief, CorruptSegment> {
    let header = get_u64(buf, pos)?;
    let derived = header & 1 != 0;
    let tx_count = (header >> 1) as usize;
    if tx_count > buf.len() / 64 {
        return Err(CorruptSegment(format!(
            "tx id count {tx_count} exceeds body"
        )));
    }
    get_i64(buf, pos)?; // slot delta
    let stored_id = if derived {
        None
    } else {
        Some(get_hash(buf, pos)?)
    };
    get_i64(buf, pos)?; // timestamp delta
    get_u64(buf, pos)?; // tip (the columns carry it)
    let tx_ids_at = *pos;
    get_bytes(buf, pos, tx_count * 64)?;
    Ok(BundleBrief {
        stored_id,
        tx_ids_at,
        tx_count,
    })
}

/// What a detail record needs from the bundle it references: enough to
/// resolve its elided bundle id, slot base, and tx id. Implemented by the
/// decoded bundle slice (sequential decode) and by the lazy segment view.
pub(crate) trait BundleBriefs {
    /// `(slot, tx_count)` of bundle `index`, if it exists.
    fn brief(&self, index: usize) -> Option<(Slot, usize)>;
    /// The id of bundle `index`. Separate from [`Self::brief`] because a
    /// derived id costs a hash — callers that only need the meta
    /// ([`decode_detail_meta`]) never ask.
    fn id(&self, index: usize) -> Option<Hash>;
    /// Tx id at position `p` of bundle `index`, if in range.
    fn tx_at(&self, index: usize, p: usize) -> Option<Signature>;
}

impl BundleBriefs for [CollectedBundle] {
    fn brief(&self, index: usize) -> Option<(Slot, usize)> {
        self.get(index).map(|b| (b.slot, b.tx_ids.len()))
    }

    fn id(&self, index: usize) -> Option<Hash> {
        self.get(index).map(|b| b.bundle_id)
    }

    fn tx_at(&self, index: usize, p: usize) -> Option<Signature> {
        self.get(index).and_then(|b| b.tx_ids.get(p)).copied()
    }
}

/// Where a decoded detail's bundle id comes from: stored inline (external
/// details) or resolved from the referenced bundle on demand.
enum IdSource {
    Stored(Hash),
    Bundle(usize),
}

/// Decode one detail record at `pos`. `prev_slot` is the previous
/// *external* detail context (the running detail slot); in-segment details
/// take their slot base from the referenced bundle via `briefs`.
pub(crate) fn decode_detail_record<B, K>(
    buf: &[u8],
    pos: &mut usize,
    prev_slot: i64,
    briefs: &B,
    key_at: &K,
) -> Result<CollectedDetail, CorruptSegment>
where
    B: BundleBriefs + ?Sized,
    K: Fn(u64) -> Result<Pubkey, CorruptSegment>,
{
    let (id, slot, meta) = decode_detail_inner(buf, pos, prev_slot, briefs, key_at)?;
    let bundle_id = match id {
        IdSource::Stored(hash) => hash,
        IdSource::Bundle(index) => briefs
            .id(index)
            .ok_or_else(|| CorruptSegment(format!("detail bundle ref {index} out of segment")))?,
    };
    Ok(CollectedDetail {
        bundle_id,
        slot,
        meta,
    })
}

/// Decode only the transaction meta of a detail record — the id of the
/// bundle it belongs to is never resolved (for derived ids that is a hash
/// per record, which the scan's candidate path doesn't need: the detector
/// consumes metas alone).
pub(crate) fn decode_detail_meta<B, K>(
    buf: &[u8],
    pos: &mut usize,
    prev_slot: i64,
    briefs: &B,
    key_at: &K,
) -> Result<TransactionMeta, CorruptSegment>
where
    B: BundleBriefs + ?Sized,
    K: Fn(u64) -> Result<Pubkey, CorruptSegment>,
{
    decode_detail_inner(buf, pos, prev_slot, briefs, key_at).map(|(_, _, meta)| meta)
}

fn decode_detail_inner<B, K>(
    buf: &[u8],
    pos: &mut usize,
    prev_slot: i64,
    briefs: &B,
    key_at: &K,
) -> Result<(IdSource, Slot, TransactionMeta), CorruptSegment>
where
    B: BundleBriefs + ?Sized,
    K: Fn(u64) -> Result<Pubkey, CorruptSegment>,
{
    let bundle_ref = get_u64(buf, pos)?;
    let (id, tx_id, slot) = if bundle_ref == 0 {
        let slot = prev_slot
            .checked_add(get_i64(buf, pos)?)
            .ok_or_else(|| CorruptSegment("slot delta overflow".into()))?;
        let bundle_id = get_hash(buf, pos)?;
        let tx_id = get_signature(buf, pos)?;
        (IdSource::Stored(bundle_id), tx_id, slot)
    } else {
        let index = bundle_ref as usize - 1;
        let (bundle_slot, tx_count) = briefs.brief(index).ok_or_else(|| {
            CorruptSegment(format!("detail bundle ref {bundle_ref} out of segment"))
        })?;
        let p = get_u64(buf, pos)? as usize;
        let tx_id = if p == tx_count {
            get_signature(buf, pos)?
        } else {
            briefs
                .tx_at(index, p)
                .ok_or_else(|| CorruptSegment(format!("detail tx position {p} out of bundle")))?
        };
        let slot = (bundle_slot.0 as i64)
            .checked_add(get_i64(buf, pos)?)
            .ok_or_else(|| CorruptSegment("slot delta overflow".into()))?;
        (IdSource::Bundle(index), tx_id, slot)
    };
    let signer = key_at(get_u64(buf, pos)?)?;
    let fee = get_u64(buf, pos)?;
    let priority_fee = get_u64(buf, pos)?;
    let flags = *buf
        .get(*pos)
        .ok_or_else(|| CorruptSegment("truncated detail flags".into()))?;
    *pos += 1;
    let error = if flags & FLAG_HAS_ERROR != 0 {
        let len = get_count(buf, pos, 1, "error string")?;
        let bytes = get_bytes(buf, pos, len)?;
        Some(
            String::from_utf8(bytes.to_vec())
                .map_err(|_| CorruptSegment("error string is not utf-8".into()))?,
        )
    } else {
        None
    };
    let sol_count = get_count(buf, pos, 1, "sol delta")?;
    let mut sol_deltas = Vec::with_capacity(sol_count);
    for _ in 0..sol_count {
        let account = key_at(get_u64(buf, pos)?)?;
        let delta = LamportDelta(get_i64(buf, pos)?);
        sol_deltas.push(SolDelta { account, delta });
    }
    let token_count = get_count(buf, pos, 1, "token delta")?;
    let mut token_deltas = Vec::with_capacity(token_count);
    for _ in 0..token_count {
        let owner = key_at(get_u64(buf, pos)?)?;
        let mint = key_at(get_u64(buf, pos)?)?;
        let delta = get_i128(buf, pos)?;
        token_deltas.push(TokenDelta { owner, mint, delta });
    }
    if slot < 0 {
        return Err(CorruptSegment("negative detail slot".into()));
    }
    Ok((
        id,
        Slot(slot as u64),
        TransactionMeta {
            tx_id,
            signer,
            fee: Lamports(fee),
            priority_fee: Lamports(priority_fee),
            success: flags & FLAG_SUCCESS != 0,
            error,
            sol_deltas,
            token_deltas,
        },
    ))
}

/// Decode the poll section at `pos` (the count varint).
pub(crate) fn decode_poll_section(
    buf: &[u8],
    pos: &mut usize,
) -> Result<Vec<PollRecord>, CorruptSegment> {
    let poll_count = get_count(buf, pos, 1, "poll")?;
    let mut polls = Vec::with_capacity(poll_count);
    for _ in 0..poll_count {
        let day = get_u64(buf, pos)?;
        let fetched = get_u64(buf, pos)? as usize;
        let new = get_u64(buf, pos)? as usize;
        let flags = *buf
            .get(*pos)
            .ok_or_else(|| CorruptSegment("truncated poll flags".into()))?;
        *pos += 1;
        polls.push(PollRecord {
            day,
            fetched,
            new,
            overlapped_previous: flags & FLAG_OVERLAPPED != 0,
        });
    }
    Ok(polls)
}

/// Decode a segment body produced by [`encode_body`].
pub fn decode_body(buf: &[u8]) -> Result<SegmentData, CorruptSegment> {
    let mut pos = 0usize;

    let keys = decode_key_table(buf, &mut pos)?;
    let key_at = |i: u64| -> Result<Pubkey, CorruptSegment> {
        keys.get(i as usize)
            .copied()
            .ok_or_else(|| CorruptSegment(format!("pubkey index {i} out of table")))
    };

    let bundle_count = get_count(buf, &mut pos, 1, "bundle")?;
    let mut bundles = Vec::with_capacity(bundle_count);
    let mut prev_slot = 0i64;
    let mut prev_ts = 0i64;
    for _ in 0..bundle_count {
        let b = decode_bundle_record(buf, &mut pos, prev_slot, prev_ts)?;
        prev_slot = b.slot.0 as i64;
        prev_ts = b.timestamp_ms as i64;
        bundles.push(b);
    }

    let detail_count = get_count(buf, &mut pos, 1, "detail")?;
    let mut details = Vec::with_capacity(detail_count);
    let mut prev_slot = 0i64;
    for _ in 0..detail_count {
        let d = decode_detail_record(buf, &mut pos, prev_slot, &bundles[..], &key_at)?;
        prev_slot = d.slot.0 as i64;
        details.push(d);
    }

    let polls = decode_poll_section(buf, &mut pos)?;

    if pos != buf.len() {
        return Err(CorruptSegment(format!(
            "{} trailing bytes after records",
            buf.len() - pos
        )));
    }

    Ok(SegmentData {
        bundles,
        details,
        polls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SegmentData {
        let kp = sandwich_types::Keypair::from_label("codec");
        let other = Pubkey::derive("other");
        let mint = Pubkey::derive("mint");
        let bundles = vec![
            CollectedBundle {
                bundle_id: Hash::digest(b"b1"),
                slot: Slot(100),
                timestamp_ms: 40_000,
                tip: Lamports(5_000),
                tx_ids: vec![kp.sign(b"t1")],
            },
            CollectedBundle {
                bundle_id: Hash::digest(b"b2"),
                slot: Slot(101),
                timestamp_ms: 40_400,
                tip: Lamports(2_000_000),
                tx_ids: vec![kp.sign(b"t2"), kp.sign(b"t3"), kp.sign(b"t4")],
            },
        ];
        let details = vec![CollectedDetail {
            bundle_id: Hash::digest(b"b2"),
            slot: Slot(101),
            meta: TransactionMeta {
                tx_id: kp.sign(b"t2"),
                signer: kp.pubkey(),
                fee: Lamports(5_000),
                priority_fee: Lamports(0),
                success: false,
                error: Some("slippage exceeded".into()),
                sol_deltas: vec![
                    SolDelta {
                        account: kp.pubkey(),
                        delta: LamportDelta(-1_000_000),
                    },
                    SolDelta {
                        account: other,
                        delta: LamportDelta(995_000),
                    },
                ],
                token_deltas: vec![TokenDelta {
                    owner: kp.pubkey(),
                    mint,
                    delta: -170_141_183_460_469_231_731_687_303_715i128,
                }],
            },
        }];
        let polls = vec![
            PollRecord {
                day: 0,
                fetched: 50,
                new: 50,
                overlapped_previous: true,
            },
            PollRecord {
                day: 1,
                fetched: 50,
                new: 3,
                overlapped_previous: false,
            },
        ];
        SegmentData {
            bundles,
            details,
            polls,
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let data = sample();
        let body = encode_body(&data);
        let back = decode_body(&body).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn empty_segment_roundtrips() {
        let data = SegmentData::default();
        let body = encode_body(&data);
        assert_eq!(decode_body(&body).unwrap(), data);
    }

    #[test]
    fn truncation_is_detected() {
        let body = encode_body(&sample());
        for cut in [1, body.len() / 2, body.len() - 1] {
            assert!(decode_body(&body[..cut]).is_err(), "cut at {cut} passed");
        }
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut body = encode_body(&sample());
        body.push(0);
        assert!(decode_body(&body).is_err());
    }

    #[test]
    fn derived_bundle_ids_and_in_segment_details_are_not_stored() {
        let kp = sandwich_types::Keypair::from_label("codec");
        let tx_ids = vec![kp.sign(b"a"), kp.sign(b"b"), kp.sign(b"c")];
        let bundle_id = sandwich_jito::bundle_id_of(&tx_ids);
        let data = SegmentData {
            bundles: vec![CollectedBundle {
                bundle_id,
                slot: Slot(7),
                timestamp_ms: 2_800,
                tip: Lamports(10_000),
                tx_ids: tx_ids.clone(),
            }],
            details: vec![CollectedDetail {
                bundle_id,
                slot: Slot(7),
                meta: TransactionMeta {
                    tx_id: tx_ids[1],
                    signer: kp.pubkey(),
                    fee: Lamports(5_000),
                    priority_fee: Lamports(0),
                    success: true,
                    error: None,
                    sol_deltas: vec![],
                    token_deltas: vec![],
                },
            }],
            polls: vec![],
        };
        let body = encode_body(&data);
        assert_eq!(decode_body(&body).unwrap(), data);
        // The derivable bundle id is recomputed, not stored: its 32 bytes
        // never appear in the body.
        assert_eq!(
            body.windows(32)
                .filter(|w| *w == bundle_id.as_bytes())
                .count(),
            0
        );
        // The detail references the bundle and its second tx by index, so
        // each signature's 64 bytes appear exactly once (in the bundle).
        for tx in &tx_ids {
            assert_eq!(body.windows(64).filter(|w| *w == &tx.0[..]).count(), 1);
        }
    }

    #[test]
    fn interning_stores_each_pubkey_once() {
        let data = sample();
        let body = encode_body(&data);
        // The signer appears three times across the detail (signer + a sol
        // delta + a token-delta owner) but its 32 raw bytes must appear in
        // the body exactly once — everything else is a one-byte index.
        let signer = sandwich_types::Keypair::from_label("codec").pubkey();
        let occurrences = body.windows(32).filter(|w| *w == signer.as_bytes()).count();
        assert_eq!(occurrences, 1);
    }
}
